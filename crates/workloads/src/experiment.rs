//! The declarative experiment runner behind every bench table.
//!
//! One [`ExperimentConfig`] describes a complete execution — system size,
//! fault pattern, prediction budget and placement, input pattern,
//! adversary, pipeline, seed — and [`ExperimentConfig::run`] produces the
//! measured [`ExperimentOutcome`]: rounds until the last honest decision,
//! honest message count, whether Agreement/Validity held, the actual `B`,
//! and the realized misclassification count `k_A`. Everything is
//! deterministic given the config.
//!
//! Execution is pipeline-agnostic: the config picks a [`Pipeline`], the
//! pipeline indexes its [`Family`] row in [`FAMILIES`], and one generic
//! [`ExperimentConfig::run`] path builds, runs, and measures the
//! type-erased session — the same engine for the paper's wrappers, the
//! prediction-free baselines, and any future family.

use crate::driver::{k_a_from_probes, Family, SessionSpec, FAMILIES};
use crate::generators::{self, ErrorPlacement, FaultIds};
use crate::json::{JsonObject, ToJson};
use ba_sim::{RunReport, Value};

pub use crate::adversaries::LiarStyle;

/// Which protocol family to run. The first two are the paper's
/// prediction-consuming pipelines; `PhaseKing` and
/// `TruncatedDolevStrong` are the prediction-free early-stopping
/// baselines they must never lose to (the `min{·, f}` term of the
/// headline bound); `CommEff` is the communication-efficient
/// prediction pipeline of the Dzulfikar–Gilbert follow-up; `Resilient`
/// is the gracefully-degrading prediction pipeline of the Dallot et al.
/// follow-up; `CommEffSigned` and `ResilientSigned` are their signed
/// variants — the same protocols over the [`ba_crypto::Signed`]
/// envelope, trading signature bytes for the removal of each family's
/// documented equivocation conditionality.
///
/// Marked `#[non_exhaustive]`: this is the extension seam (sharded and
/// batched execution modes are the open directions), so downstream
/// matches must carry a wildcard arm and new variants are not breaking
/// changes. A new family is one variant here (plus its slot in
/// [`Pipeline::ALL`]) and one [`FAMILIES`] row. Prefer branching on the
/// family's capabilities ([`Family::uses_predictions`],
/// [`Family::max_faults`]) over matching variants.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// Theorem 11: `t < n/3`, no signatures.
    Unauth,
    /// Theorem 12: `t < n/2`, signatures.
    Auth,
    /// Prediction-free unauthenticated baseline: early-stopping
    /// phase-king with the full `t + 2` phase budget (`t < n/3`).
    PhaseKing,
    /// Prediction-free authenticated baseline: full Dolev–Strong
    /// (`k = t`, `t < n/2`).
    TruncatedDolevStrong,
    /// Communication-efficient prediction pipeline: committee-sampled
    /// fast lane plus phase-king fallback (`t < n/3`).
    CommEff,
    /// Gracefully-degrading prediction pipeline: one classification
    /// exchange, then phase king in aggregated-suspicion throne order —
    /// rounds cost one phase per faulty identifier the error budget
    /// promotes, instead of cliff-switching lanes (`t < n/3`).
    Resilient,
    /// The signed communication-efficient pipeline: signed
    /// submit/report/ack plus a transferable, echoed certify
    /// certificate, so an equivocating aggregator can no longer split
    /// the fast/fallback decision (`t < n/3`).
    CommEffSigned,
    /// The signed resilient pipeline: signed, echoed classifications
    /// with equivocation conviction make the honest suspicion views
    /// agree — `t + 2` phases, no rotation suffix (`t < n/3`).
    ResilientSigned,
}

impl Pipeline {
    /// Every selectable pipeline, in display order: the declaration
    /// order, so `ALL[i] as usize == i` and `ALL[i]` runs `FAMILIES[i]`.
    pub const ALL: [Pipeline; 8] = [
        Pipeline::Unauth,
        Pipeline::Auth,
        Pipeline::PhaseKing,
        Pipeline::TruncatedDolevStrong,
        Pipeline::CommEff,
        Pipeline::Resilient,
        Pipeline::CommEffSigned,
        Pipeline::ResilientSigned,
    ];

    /// The family table row executing this pipeline.
    pub fn driver(self) -> &'static Family {
        &FAMILIES[self as usize]
    }

    /// Stable display name (the family row's).
    pub fn name(self) -> &'static str {
        self.driver().name
    }
}

/// Honest input patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputPattern {
    /// All honest processes propose the same value (validity scenarios).
    Unanimous(u64),
    /// Alternating binary proposals (agreement under contention).
    Split,
}

/// Adversary selection (protocol-deep attacks are exercised in the
/// per-crate test suites; these are the execution-scale behaviours).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Faulty processes never send.
    Silent,
    /// Faulty processes lie during classification, then go silent.
    ClassifyLiar(LiarStyle),
    /// Faulty processes replay observed honest traffic with a delay.
    Replay,
    /// The schedule-driven worst-case coalition
    /// ([`crate::disruptor`]): shields itself during classification,
    /// equivocates every quorum protocol, withholds chains, splits
    /// plurality reports. This is the adversary the bench sweeps use to
    /// realize the paper's `min{B/n + 1, f}` round curve. The
    /// resilient and signed families get their own schedule-aware or
    /// signature-equivocating coalitions; on the prediction-free
    /// baselines and the unsigned committee pipeline it degrades to a
    /// replay coalition (see the [`crate::driver`] module docs).
    Disruptor,
}

/// Re-export of the fault placement strategy.
pub type FaultPlacement = FaultIds;

/// A complete experiment description.
///
/// Construct via [`ExperimentConfig::new`] for the classic defaults,
/// or fluently via [`ExperimentConfig::builder`]; tweak copies with the
/// `with_*` combinators instead of mutating fields in place.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// System size.
    pub n: usize,
    /// Fault tolerance bound.
    pub t: usize,
    /// Actual number of faults `f ≤ t`.
    pub f: usize,
    /// Where the faulty identifiers sit.
    pub fault_placement: FaultPlacement,
    /// Wrong-bit budget `B` for the prediction matrix.
    pub budget: usize,
    /// Wrong-bit placement strategy.
    pub placement: ErrorPlacement,
    /// Pipeline under test.
    pub pipeline: Pipeline,
    /// Honest inputs.
    pub inputs: InputPattern,
    /// Byzantine behaviour.
    pub adversary: AdversaryKind,
    /// RNG seed (predictions, adversary, PKI).
    pub seed: u64,
}

impl ExperimentConfig {
    /// A conservative default: silent faults, uniform errors, split
    /// inputs.
    pub fn new(n: usize, t: usize, f: usize, budget: usize, pipeline: Pipeline) -> Self {
        ExperimentConfig {
            n,
            t,
            f,
            fault_placement: FaultIds::Spread,
            budget,
            placement: ErrorPlacement::Uniform,
            pipeline,
            inputs: InputPattern::Split,
            adversary: AdversaryKind::Silent,
            seed: 0,
        }
    }

    /// Starts a fluent builder.
    ///
    /// ```
    /// use ba_workloads::{AdversaryKind, ErrorPlacement, ExperimentConfig, FaultPlacement, Pipeline};
    ///
    /// let cfg = ExperimentConfig::builder()
    ///     .n(32)
    ///     .faults(7, FaultPlacement::Spread)
    ///     .budget(12, ErrorPlacement::Concentrated)
    ///     .pipeline(Pipeline::Unauth)
    ///     .adversary(AdversaryKind::Disruptor)
    ///     .build();
    /// assert_eq!(cfg.t, 10, "t defaults to the pipeline's resilience bound");
    /// assert!(cfg.run().agreement);
    /// ```
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Returns a copy running a different pipeline.
    pub fn with_pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with different honest inputs.
    pub fn with_inputs(mut self, inputs: InputPattern) -> Self {
        self.inputs = inputs;
        self
    }

    /// Returns a copy with a different adversary.
    pub fn with_adversary(mut self, adversary: AdversaryKind) -> Self {
        self.adversary = adversary;
        self
    }

    /// Returns a copy with a different wrong-bit placement.
    pub fn with_placement(mut self, placement: ErrorPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Returns a copy with a different fault-identifier placement.
    pub fn with_fault_placement(mut self, fault_placement: FaultPlacement) -> Self {
        self.fault_placement = fault_placement;
        self
    }

    /// Returns a copy with a different wrong-bit budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Executes the experiment through the configured pipeline's family
    /// row — the single generic setup/measure path shared by every
    /// protocol family.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message where
    /// [`try_run`](Self::try_run) returns one.
    pub fn run(&self) -> ExperimentOutcome {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Self::run), returning a [`ConfigError`] instead of
    /// panicking when `n = 0`, `f > t`, or `t` exceeds the pipeline's
    /// resilience bound at `n`.
    pub fn try_run(&self) -> Result<ExperimentOutcome, ConfigError> {
        let family = self.pipeline.driver();
        ConfigError::check(family, self.n, self.t, self.f)?;
        let faulty = generators::faults(self.n, self.f, self.fault_placement);
        let matrix = generators::predictions_with_budget(
            self.n,
            &faulty,
            self.budget,
            self.placement,
            self.seed,
        );
        let b_actual = matrix.total_errors(&faulty);
        let spec = SessionSpec {
            n: self.n,
            t: self.t,
            faulty: &faulty,
            matrix: &matrix,
            inputs: self.inputs,
            adversary: self.adversary,
            seed: self.seed,
        };
        let mut session = family.build(&spec);
        let report = session.run(family.max_rounds(self.n, self.t));
        let k_a = if family.uses_predictions {
            k_a_from_probes(self.n, &faulty, &session.probes())
        } else {
            0
        };
        Ok(self.outcome(report, b_actual, k_a))
    }

    fn outcome(&self, report: RunReport<Value>, b_actual: usize, k_a: usize) -> ExperimentOutcome {
        let validity_ok = match self.inputs {
            InputPattern::Unanimous(v) => report.decision() == Some(&Value(v)),
            _ => report.agreement(),
        };
        ExperimentOutcome {
            rounds: report.last_decision_round,
            messages: report.honest_messages_until_decision,
            messages_total: report.honest_messages,
            bytes: report.honest_bytes_until_decision,
            bytes_total: report.honest_bytes,
            agreement: report.agreement(),
            validity_ok,
            b_actual,
            k_a,
        }
    }
}

/// Fluent constructor for [`ExperimentConfig`]; see
/// [`ExperimentConfig::builder`].
///
/// Unset fields default to: `n = 16`, `t` = the pipeline's resilience
/// bound at `n`, no faults, zero budget (uniform placement), split
/// inputs, silent adversary, unauthenticated pipeline, seed 0.
#[derive(Clone, Debug)]
pub struct ExperimentBuilder {
    n: usize,
    t: Option<usize>,
    f: usize,
    fault_placement: FaultPlacement,
    budget: usize,
    placement: ErrorPlacement,
    pipeline: Pipeline,
    inputs: InputPattern,
    adversary: AdversaryKind,
    seed: u64,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            n: 16,
            t: None,
            f: 0,
            fault_placement: FaultIds::Spread,
            budget: 0,
            placement: ErrorPlacement::Uniform,
            pipeline: Pipeline::Unauth,
            inputs: InputPattern::Split,
            adversary: AdversaryKind::Silent,
            seed: 0,
        }
    }
}

impl ExperimentBuilder {
    /// System size.
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Explicit fault-tolerance bound (otherwise the pipeline's maximum
    /// at `n`).
    pub fn t(mut self, t: usize) -> Self {
        self.t = Some(t);
        self
    }

    /// Actual fault count and identifier placement.
    pub fn faults(mut self, f: usize, placement: FaultPlacement) -> Self {
        self.f = f;
        self.fault_placement = placement;
        self
    }

    /// Wrong-bit budget and placement.
    pub fn budget(mut self, budget: usize, placement: ErrorPlacement) -> Self {
        self.budget = budget;
        self.placement = placement;
        self
    }

    /// Pipeline under test.
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Honest input pattern.
    pub fn inputs(mut self, inputs: InputPattern) -> Self {
        self.inputs = inputs;
        self
    }

    /// Byzantine behaviour.
    pub fn adversary(mut self, adversary: AdversaryKind) -> Self {
        self.adversary = adversary;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message where
    /// [`try_build`](Self::try_build) returns one.
    pub fn build(self) -> ExperimentConfig {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finalizes the configuration, or returns a [`ConfigError`] if the
    /// (explicit or derived) parameters violate `n ≥ 1`, `f ≤ t` or the
    /// pipeline's resilience bound — the contracts
    /// [`ExperimentConfig::try_run`] enforces, surfaced at build time.
    pub fn try_build(self) -> Result<ExperimentConfig, ConfigError> {
        let family = self.pipeline.driver();
        let t = self.t.unwrap_or(family.max_faults(self.n));
        ConfigError::check(family, self.n, t, self.f)?;
        Ok(ExperimentConfig {
            n: self.n,
            t,
            f: self.f,
            fault_placement: self.fault_placement,
            budget: self.budget,
            placement: self.placement,
            pipeline: self.pipeline,
            inputs: self.inputs,
            adversary: self.adversary,
            seed: self.seed,
        })
    }
}

/// A configuration no experiment can run, returned by
/// [`ExperimentBuilder::try_build`] and [`ExperimentConfig::try_run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A system with no processes: `n = 0`.
    NoProcesses {
        /// The pipeline's family name.
        family: &'static str,
    },
    /// More actual faults than the fault bound: `f > t`.
    FaultsAboveBound {
        /// The pipeline's family name.
        family: &'static str,
        /// Actual fault count.
        f: usize,
        /// Fault bound.
        t: usize,
    },
    /// A fault bound the pipeline does not tolerate at this size:
    /// `t > max_faults(n)`.
    BoundAboveResilience {
        /// The pipeline's family name.
        family: &'static str,
        /// System size.
        n: usize,
        /// Requested fault bound.
        t: usize,
        /// The family's [`Family::max_faults`] at `n`.
        max_t: usize,
    },
}

impl ConfigError {
    /// `n ≥ 1`, then `f ≤ t`, then `t ≤ family.max_faults(n)`.
    fn check(family: &Family, n: usize, t: usize, f: usize) -> Result<(), ConfigError> {
        let max_t = family.max_faults(n);
        if n == 0 {
            Err(ConfigError::NoProcesses {
                family: family.name,
            })
        } else if f > t {
            Err(ConfigError::FaultsAboveBound {
                family: family.name,
                f,
                t,
            })
        } else if t > max_t {
            Err(ConfigError::BoundAboveResilience {
                family: family.name,
                n,
                t,
                max_t,
            })
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoProcesses { family } => {
                write!(out, "{family} needs at least one process (got n = 0)")
            }
            ConfigError::FaultsAboveBound { family, f, t } => {
                write!(out, "f = {f} exceeds t = {t} (pipeline {family}); f ≤ t")
            }
            ConfigError::BoundAboveResilience {
                family,
                n,
                t,
                max_t,
            } => write!(
                out,
                "{family} tolerates at most t = {max_t} at n = {n} (got t = {t})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Measured results of one experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentOutcome {
    /// Round at which the last honest process decided (`None` = some
    /// process never decided — a liveness bug).
    pub rounds: Option<u64>,
    /// Honest messages until the last decision.
    pub messages: u64,
    /// Honest messages over the whole run (including the courtesy
    /// phase).
    pub messages_total: u64,
    /// Honest bytes on the wire until the last decision
    /// ([`ba_sim::WireSize`] accounting).
    pub bytes: u64,
    /// Honest bytes over the whole run.
    pub bytes_total: u64,
    /// Whether all honest processes decided on one value.
    pub agreement: bool,
    /// Agreement plus, for unanimous inputs, strong unanimity.
    pub validity_ok: bool,
    /// Wrong prediction bits actually injected.
    pub b_actual: usize,
    /// Misclassified processes after Algorithm 2 (`k_A`); zero for
    /// prediction-free pipelines.
    pub k_a: usize,
}

impl ToJson for ExperimentOutcome {
    fn to_json(&self) -> String {
        JsonObject::new()
            .field_opt_u64("rounds", self.rounds)
            .field_u64("messages", self.messages)
            .field_u64("messages_total", self.messages_total)
            .field_u64("bytes", self.bytes)
            .field_u64("bytes_total", self.bytes_total)
            .field_bool("agreement", self.agreement)
            .field_bool("validity_ok", self.validity_ok)
            .field_u64("b_actual", self.b_actual as u64)
            .field_u64("k_a", self.k_a as u64)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_eff_experiment_end_to_end() {
        let cfg = ExperimentConfig::new(16, 5, 2, 0, Pipeline::CommEff);
        let out = cfg.run();
        assert!(out.agreement, "perfect predictions, silent faults");
        assert!(out.validity_ok);
        assert_eq!(out.rounds, Some(4), "committee fast lane");
        assert_eq!(out.k_a, 0, "raw predictions are the probe surface");
        assert!(out.bytes > 0 && out.bytes <= out.bytes_total);
    }

    #[test]
    fn resilient_experiment_end_to_end() {
        let cfg = ExperimentConfig::new(16, 5, 2, 0, Pipeline::Resilient);
        let out = cfg.run();
        assert!(out.agreement, "perfect predictions, silent faults");
        assert!(out.validity_ok);
        assert_eq!(
            out.k_a, 0,
            "aggregated majority classification is the probe surface"
        );
        assert!(
            out.rounds.expect("decided") <= 1 + 2 * 5 + 1,
            "trusted throne order decides in the first phases"
        );
        assert!(out.bytes > 0 && out.bytes <= out.bytes_total);
    }

    #[test]
    fn resilient_classify_liar_cannot_break_agreement() {
        for style in [
            LiarStyle::AllOnes,
            LiarStyle::AllZeros,
            LiarStyle::Inverted,
            LiarStyle::RandomPerRecipient,
        ] {
            let cfg = ExperimentConfig::new(16, 5, 3, 10, Pipeline::Resilient)
                .with_adversary(AdversaryKind::ClassifyLiar(style));
            let out = cfg.run();
            assert!(out.agreement, "{style:?} broke agreement");
            assert!(out.rounds.is_some(), "{style:?} broke liveness");
        }
    }

    #[test]
    fn comm_eff_signed_experiment_end_to_end() {
        let cfg = ExperimentConfig::new(16, 5, 2, 0, Pipeline::CommEffSigned);
        let out = cfg.run();
        assert!(out.agreement, "perfect predictions, silent faults");
        assert!(out.validity_ok);
        assert_eq!(out.rounds, Some(5), "6-round signed fast lane");
        assert_eq!(out.k_a, 0, "raw predictions are the probe surface");
        assert!(out.bytes > 0 && out.bytes <= out.bytes_total);
        // Same workload unsigned: the signed run pays signature bytes.
        let unsigned = cfg.with_pipeline(Pipeline::CommEff).run();
        assert!(
            out.bytes_total > unsigned.bytes_total,
            "signatures must cost bytes ({} vs {})",
            out.bytes_total,
            unsigned.bytes_total
        );
    }

    #[test]
    fn resilient_signed_experiment_end_to_end() {
        let cfg = ExperimentConfig::new(16, 5, 2, 0, Pipeline::ResilientSigned);
        let out = cfg.run();
        assert!(out.agreement, "perfect predictions, silent faults");
        assert!(out.validity_ok);
        assert_eq!(out.k_a, 0, "aggregated classification is the probe");
        assert!(
            out.rounds.expect("decided") <= 2 + 2 * 5 + 1,
            "trusted throne order decides in the first phases"
        );
        let unsigned = cfg.with_pipeline(Pipeline::Resilient).run();
        assert!(
            out.bytes_total > unsigned.bytes_total,
            "the signed, echoed exchange must cost bytes ({} vs {})",
            out.bytes_total,
            unsigned.bytes_total
        );
    }

    #[test]
    fn signed_pipelines_survive_every_liar_style() {
        // Only the signed resilient family has a classification round
        // to lie in; for the signed committee pipeline every liar
        // style degrades to silence (see the driver docs), so one
        // representative case suffices there.
        for style in [
            LiarStyle::AllOnes,
            LiarStyle::AllZeros,
            LiarStyle::Inverted,
            LiarStyle::RandomPerRecipient,
        ] {
            let cfg = ExperimentConfig::new(16, 5, 3, 10, Pipeline::ResilientSigned)
                .with_adversary(AdversaryKind::ClassifyLiar(style));
            let out = cfg.run();
            assert!(out.agreement, "{style:?} broke agreement");
            assert!(out.rounds.is_some(), "{style:?} broke liveness");
        }
        let commeff = ExperimentConfig::new(16, 5, 3, 10, Pipeline::CommEffSigned)
            .with_adversary(AdversaryKind::ClassifyLiar(LiarStyle::AllZeros));
        let out = commeff.run();
        assert!(out.agreement && out.rounds.is_some());
    }

    #[test]
    fn unauth_experiment_end_to_end() {
        let cfg = ExperimentConfig::new(16, 5, 2, 0, Pipeline::Unauth);
        let out = cfg.run();
        assert!(out.agreement, "perfect predictions, silent faults");
        assert!(out.validity_ok);
        assert_eq!(out.b_actual, 0);
        assert_eq!(out.k_a, 0);
        assert!(out.rounds.is_some());
    }

    #[test]
    fn auth_experiment_end_to_end() {
        let cfg = ExperimentConfig::new(10, 4, 3, 0, Pipeline::Auth);
        let out = cfg.run();
        assert!(out.agreement);
        assert!(out.rounds.is_some());
    }

    #[test]
    fn baseline_pipelines_run_through_the_same_path() {
        for pipeline in [Pipeline::PhaseKing, Pipeline::TruncatedDolevStrong] {
            let cfg = ExperimentConfig::new(10, 3, 2, 0, pipeline)
                .with_inputs(InputPattern::Unanimous(4));
            let out = cfg.run();
            assert!(out.agreement, "{pipeline:?} broke agreement");
            assert!(out.validity_ok, "{pipeline:?} broke unanimity");
            assert_eq!(out.k_a, 0, "baselines never classify");
        }
    }

    #[test]
    fn baselines_ignore_the_prediction_budget() {
        let base = ExperimentConfig::new(10, 3, 2, 0, Pipeline::PhaseKing);
        let noisy = base.clone().with_budget(10 * 10);
        let a = base.run();
        let b = noisy.run();
        assert_eq!(a.rounds, b.rounds, "budget must not affect a baseline");
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn unanimous_inputs_check_validity() {
        let cfg = ExperimentConfig::new(16, 5, 1, 5, Pipeline::Unauth)
            .with_inputs(InputPattern::Unanimous(9));
        let out = cfg.run();
        assert!(out.validity_ok, "decision must equal the unanimous input");
    }

    #[test]
    fn budget_is_respected() {
        let cfg = ExperimentConfig::new(16, 5, 2, 30, Pipeline::Unauth);
        let out = cfg.run();
        assert_eq!(out.b_actual, 30);
    }

    #[test]
    fn classify_liar_does_not_break_agreement() {
        for style in [
            LiarStyle::AllOnes,
            LiarStyle::AllZeros,
            LiarStyle::Inverted,
            LiarStyle::RandomPerRecipient,
        ] {
            let cfg = ExperimentConfig::new(16, 5, 3, 10, Pipeline::Unauth)
                .with_adversary(AdversaryKind::ClassifyLiar(style));
            let out = cfg.run();
            assert!(out.agreement, "{style:?} broke agreement");
        }
    }

    #[test]
    fn replay_adversary_is_harmless() {
        let cfg = ExperimentConfig::new(16, 5, 3, 8, Pipeline::Unauth)
            .with_adversary(AdversaryKind::Replay);
        let out = cfg.run();
        assert!(out.agreement);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ExperimentConfig::new(16, 5, 2, 20, Pipeline::Unauth);
        let a = cfg.run();
        let b = cfg.run();
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.k_a, b.k_a);
    }

    #[test]
    fn perfect_predictions_decide_faster_than_garbage() {
        let good = ExperimentConfig::new(24, 7, 6, 0, Pipeline::Unauth).run();
        let bad = ExperimentConfig::new(24, 7, 6, 24 * 24, Pipeline::Unauth)
            .with_placement(ErrorPlacement::Concentrated)
            .run();
        assert!(good.agreement && bad.agreement);
        assert!(
            good.rounds.unwrap() <= bad.rounds.unwrap(),
            "accurate predictions must not be slower"
        );
    }

    #[test]
    fn builder_derives_t_from_the_pipeline() {
        let cfg = ExperimentConfig::builder()
            .n(32)
            .faults(7, FaultPlacement::Spread)
            .budget(12, ErrorPlacement::Concentrated)
            .adversary(AdversaryKind::Disruptor)
            .build();
        assert_eq!(cfg.t, 10, "(32 - 1) / 3");
        let auth = ExperimentConfig::builder()
            .n(32)
            .pipeline(Pipeline::Auth)
            .build();
        assert_eq!(auth.t, 15, "(32 - 1) / 2");
    }

    #[test]
    #[should_panic(expected = "exceeds t")]
    fn builder_rejects_f_above_t() {
        let _ = ExperimentConfig::builder()
            .n(10)
            .faults(4, FaultPlacement::Head)
            .build();
    }

    #[test]
    #[should_panic(expected = "tolerates at most")]
    fn run_rejects_t_beyond_the_pipeline_bound() {
        // t = 5 needs signatures at n = 12; the unauth driver must refuse.
        let _ = ExperimentConfig::new(12, 5, 2, 0, Pipeline::Unauth).run();
    }

    #[test]
    fn try_build_reports_f_above_t() {
        let err = ExperimentConfig::builder()
            .n(10)
            .faults(4, FaultPlacement::Head)
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::FaultsAboveBound {
                family: "unauth-wrapper",
                f: 4,
                t: 3
            }
        );
        let cfg = ExperimentConfig::new(10, 3, 4, 0, Pipeline::Unauth);
        assert_eq!(cfg.try_run(), Err(err));
    }

    #[test]
    fn try_run_reports_t_beyond_the_pipeline_bound() {
        let err = ExperimentConfig::new(12, 5, 2, 0, Pipeline::Unauth)
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::BoundAboveResilience {
                family: "unauth-wrapper",
                n: 12,
                t: 5,
                max_t: 3
            }
        );
        let built = ExperimentConfig::builder().n(12).t(5).try_build();
        assert_eq!(built.unwrap_err(), err);
        assert!(ExperimentConfig::builder().n(12).t(3).try_build().is_ok());
    }

    #[test]
    fn every_pipeline_reports_an_empty_system() {
        for pipeline in Pipeline::ALL {
            let err = ConfigError::NoProcesses {
                family: pipeline.driver().name,
            };
            let built = ExperimentConfig::builder()
                .n(0)
                .pipeline(pipeline)
                .try_build();
            assert_eq!(built.unwrap_err(), err, "{pipeline:?}");
            let cfg = ExperimentConfig::new(0, 0, 0, 0, pipeline);
            assert_eq!(cfg.try_run(), Err(err), "{pipeline:?}");
            assert!(err.to_string().contains("at least one process"));
        }
    }

    #[test]
    fn combinators_produce_modified_copies() {
        let base = ExperimentConfig::new(16, 5, 2, 8, Pipeline::Unauth);
        let tweaked = base
            .clone()
            .with_seed(7)
            .with_pipeline(Pipeline::Auth)
            .with_fault_placement(FaultPlacement::Head);
        assert_eq!(base.seed, 0);
        assert_eq!(tweaked.seed, 7);
        assert_eq!(tweaked.pipeline, Pipeline::Auth);
        assert_eq!(tweaked.fault_placement, FaultPlacement::Head);
        assert_eq!(base.pipeline, Pipeline::Unauth);
    }

    #[test]
    fn outcome_serializes_to_json() {
        let out = ExperimentConfig::new(16, 5, 2, 0, Pipeline::Unauth).run();
        let json = out.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"agreement\":true"));
        assert!(json.contains("\"rounds\":"));
        let undecided = ExperimentOutcome {
            rounds: None,
            ..out
        };
        assert!(undecided.to_json().contains("\"rounds\":null"));
    }
}
