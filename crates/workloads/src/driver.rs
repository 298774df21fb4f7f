//! The family table: every protocol family as one row of data.
//!
//! The paper's headline claim — `O(min{B/n + 1, f})` rounds, never
//! worse than a prediction-free early-stopping baseline — is a
//! comparison *across protocol families*, so the harness must be able
//! to run all of them through one code path. Each [`Family`] row of
//! [`FAMILIES`] holds a family's display data (name, resilience,
//! prediction use, round and communication shapes), its round budget,
//! and a `build` function that turns a [`SessionSpec`] (system size,
//! fault set, prediction matrix, inputs, adversary, seed) into a
//! type-erased [`ErasedSession`]; the generic engine in
//! [`crate::experiment`] then runs it and measures, identically for
//! every family. [`crate::tables::driver_table`] renders the rows as the
//! family comparison table.
//!
//! A new protocol plugs into every bench, example, and sweep with one
//! [`Pipeline`] variant (plus its slot in [`Pipeline::ALL`]) and one
//! `FAMILIES` row. Since the runner charges every session its
//! [`ba_sim::WireSize`] byte cost, each family's communication profile
//! is measured uniformly alongside its round count.
//!
//! ## Adversary mapping
//!
//! [`AdversaryKind`] names behaviours of the *wrapper* execution model.
//! `Silent` and `Replay` (a 1-round [`ReplayAdversary`]) mean the same
//! for every family. Families without a classification round (the
//! baselines and both committee pipelines) degrade `ClassifyLiar` to
//! silence: its lies have no audience. `Disruptor` maps to the strongest
//! behaviour each family admits: the schedule-driven coalitions of
//! [`crate::disruptor`] for the wrappers, one schedule-aware coalition,
//! [`ba_resilient::Disruptor`], over either classification exchange for
//! the resilient pair ([`ResilientDisruptor`] /
//! [`SignedResilientDisruptor`]), the full signature-equivocation menu
//! for the signed committee pipeline ([`SignedCertEquivocator`]), and a
//! 1-round replay coalition for the baselines and the unsigned committee
//! pipeline — documented deviations, chosen over panicking so that
//! sweeps can hold the adversary column fixed across pipelines.
//!
//! The two committee pipelines are one state machine,
//! [`ba_commeff::CommEffBa`], over a plain or a signed
//! [`ba_commeff::Lane`] ([`CommEff`] and [`CommEffSigned`] name the
//! two), just as the resilient pair is [`ba_resilient::Resilient`] over
//! either classification exchange.

use crate::adversaries::{ClassifyLiar, LiarStyle, SignedCertEquivocator};
use crate::disruptor::{AuthDisruptor, UnauthDisruptor};
use crate::experiment::{AdversaryKind, InputPattern, Pipeline};
use ba_commeff::{CommEff, CommEffSigned};
use ba_core::{AuthWrapper, BitVec, MisclassificationReport, PredictionMatrix, UnauthWrapper};
use ba_crypto::{Pki, SigningKey};
use ba_early::{PhaseKing, PhaseKingOutput, TruncatedDs};
use ba_resilient::{ResilientBa, ResilientDisruptor, ResilientSigned, SignedResilientDisruptor};
use ba_sim::{
    erase, Adversary, ErasedSession, MapOutput, Process, ProcessId, ReplayAdversary,
    SilentAdversary, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Everything a family needs to build one session. Produced by the
/// experiment engine from an
/// [`ExperimentConfig`](crate::experiment::ExperimentConfig); shared by
/// all families so that the same workload is presented to every
/// protocol.
#[derive(Clone, Debug)]
pub struct SessionSpec<'a> {
    /// System size.
    pub n: usize,
    /// Fault tolerance bound.
    pub t: usize,
    /// The corrupted identifiers (`|faulty| = f ≤ t`).
    pub faulty: &'a BTreeSet<ProcessId>,
    /// Prediction matrix (budgeted wrong bits already injected).
    /// Prediction-free families ignore it.
    pub matrix: &'a PredictionMatrix,
    /// Honest input pattern.
    pub inputs: InputPattern,
    /// Byzantine behaviour.
    pub adversary: AdversaryKind,
    /// Seed for PKI and adversary randomness.
    pub seed: u64,
}

impl SessionSpec<'_> {
    /// The input of the honest process in enumeration slot `slot`.
    pub fn input_for(&self, slot: usize) -> Value {
        match self.inputs {
            InputPattern::Unanimous(v) => Value(v),
            // Split inputs start at 1: the worst-case disruptor injects
            // strictly smaller values (0) selectively to split the
            // minimum-based conciliation (Algorithm 4 line 4).
            InputPattern::Split => Value(1 + (slot % 2) as u64),
        }
    }

    /// Honest identifiers with their enumeration slots, in id order.
    pub fn honest_slots(&self) -> impl Iterator<Item = (usize, ProcessId)> + '_ {
        ProcessId::all(self.n)
            .filter(|p| !self.faulty.contains(p))
            .enumerate()
    }

    /// The corrupted identifiers as a vector (adversary constructors).
    pub fn faulty_vec(&self) -> Vec<ProcessId> {
        self.faulty.iter().copied().collect()
    }
}

/// One protocol family: what the comparison table prints about it, and
/// how the generic engine bounds and builds its sessions.
#[derive(Debug)]
pub struct Family {
    /// Stable display name (bench tables, JSON output).
    pub name: &'static str,
    /// Resilience divisor `d`: the family tolerates `d·t < n`.
    pub divisor: usize,
    /// Whether the family consumes the prediction matrix. `false` marks
    /// the prediction-free baselines; the engine skips their (vacuous)
    /// misclassification measurement.
    pub uses_predictions: bool,
    /// Round-complexity shape, as printed by
    /// [`driver_table`](crate::tables::driver_table).
    pub round_shape: &'static str,
    /// Communication shape, as printed by
    /// [`driver_table`](crate::tables::driver_table).
    pub comm_shape: &'static str,
    /// Round budget sufficient for termination at `(n, t)`.
    pub rounds: fn(usize, usize) -> u64,
    /// Builds the full session — honest processes and adversary — for
    /// one experiment.
    pub build: fn(&SessionSpec<'_>) -> Box<dyn ErasedSession>,
}

impl Family {
    /// The largest fault bound `t` this family tolerates at size `n`:
    /// `⌊(n − 1)/divisor⌋`.
    pub fn max_faults(&self, n: usize) -> usize {
        n.saturating_sub(1) / self.divisor
    }

    /// Whether the family consumes the prediction matrix.
    pub fn uses_predictions(&self) -> bool {
        self.uses_predictions
    }

    /// Round budget sufficient for termination at `(n, t)`.
    pub fn max_rounds(&self, n: usize, t: usize) -> u64 {
        (self.rounds)(n, t)
    }

    /// Builds the full session for one experiment.
    pub fn build(&self, spec: &SessionSpec<'_>) -> Box<dyn ErasedSession> {
        (self.build)(spec)
    }
}

/// Every protocol family, in [`Pipeline::ALL`] order: variant `p` runs
/// `FAMILIES[p as usize]`. The length is tied to `Pipeline::ALL`, so a
/// row without a slot (or a slot without a row) does not compile.
///
/// A `static`, not a `const`: every `build` closure then has one copy,
/// in this crate, rather than one per crate that reads the table.
pub static FAMILIES: [Family; Pipeline::ALL.len()] = [
    // Theorem 11: Algorithm 1 over the unauthenticated subprotocols.
    Family {
        name: "unauth-wrapper",
        divisor: 3,
        uses_predictions: true,
        round_shape: "O(min{B/n + 1, f})",
        comm_shape: "O(f·n²)",
        rounds: |n, t| UnauthWrapper::schedule(n, t).total_steps + 4,
        build: |spec| {
            let adversary = adversary(
                spec.adversary,
                |style| Some(Box::new(liar(spec, style).wrapper())),
                || Box::new(UnauthDisruptor::new(spec.n, spec.t, spec.faulty_vec())),
            );
            let make = |id, input| {
                UnauthWrapper::new(id, spec.n, spec.t, input, spec.matrix.row(id).clone())
            };
            session(spec, make, adversary, |w| w.classification().map(bits_of))
        },
    },
    // Theorem 12: Algorithm 1 over the authenticated subprotocols.
    Family {
        name: "auth-wrapper",
        divisor: 2,
        uses_predictions: true,
        round_shape: "O(min{B/n + 1, f})",
        comm_shape: "O(n²) chain batches",
        rounds: |n, t| AuthWrapper::schedule(n, t).total_steps + 4,
        build: |spec| {
            let pki = pki(spec);
            let adversary = adversary(
                spec.adversary,
                |style| Some(Box::new(liar(spec, style).wrapper())),
                || Box::new(AuthDisruptor::new(spec.n, spec.t, spec.faulty_vec(), &pki)),
            );
            let make = |id: ProcessId, input| {
                let row = spec.matrix.row(id).clone();
                let key = pki.signing_key(id.0);
                AuthWrapper::new(id, spec.n, spec.t, input, row, Arc::clone(&pki), key)
            };
            session(spec, make, adversary, |w| w.classification().map(bits_of))
        },
    },
    // Prediction-free unauthenticated baseline: early-stopping phase
    // king with the full `t + 2` phase budget.
    Family {
        name: "phase-king",
        divisor: 3,
        uses_predictions: false,
        round_shape: "O(f)",
        comm_shape: "O(f·n²)",
        rounds: |_, t| PhaseKing::rounds(PhaseKing::phases_for(t)) + 2,
        build: |spec| {
            let decided: fn(&PhaseKingOutput) -> Value = |o| o.decision.unwrap_or(o.value);
            let make =
                |id, input| MapOutput::new(PhaseKing::full(id, spec.n, spec.t, input), decided);
            session(spec, make, baseline_adversary(spec.adversary), |_| None)
        },
    },
    // Prediction-free authenticated baseline: full Dolev–Strong (`k = t`).
    Family {
        name: "truncated-dolev-strong",
        divisor: 2,
        uses_predictions: false,
        round_shape: "t + 1",
        comm_shape: "Ω(n²) chain batches",
        rounds: |_, t| TruncatedDs::rounds(t) + 2,
        build: |spec| {
            let pki = pki(spec);
            let tag = spec.seed ^ 0x7d5;
            let make = |id: ProcessId, input| {
                let key = pki.signing_key(id.0);
                TruncatedDs::full(id, spec.n, spec.t, tag, input, Arc::clone(&pki), key)
            };
            session(spec, make, baseline_adversary(spec.adversary), |_| None)
        },
    },
    // Dzulfikar–Gilbert: committee-sampled dissemination in a 5-round
    // fast lane, phase-king fallback when the predictions prove
    // unreliable. Consumes the prediction matrix raw (no Algorithm 2
    // refinement), so its probe — and its measured `k_A` — is the
    // prediction string itself.
    Family {
        name: "comm-eff",
        divisor: 3,
        uses_predictions: true,
        round_shape: "5 fast / O(t) fallback",
        comm_shape: "Θ(n·f̂) fast lane",
        rounds: |_, t| CommEff::rounds(t) + 2,
        build: |spec| {
            let make =
                |id, input| CommEff::new(id, spec.n, spec.t, input, spec.matrix.row(id).clone());
            let adversary = baseline_adversary(spec.adversary);
            session(spec, make, adversary, |p| Some(bits_of(p.prediction())))
        },
    },
    // Dallot et al.: a classification exchange, then phase king in
    // aggregated-suspicion throne order, so rounds degrade by one phase
    // per faulty identifier the error budget promotes instead of
    // cliff-switching lanes. Its real classification round is attacked
    // natively by `ClassifyLiar`.
    Family {
        name: "resilient",
        divisor: 3,
        uses_predictions: true,
        round_shape: "O(promoted(B) + 1), ≤ 2t + 3 phases",
        comm_shape: "O((promoted(B) + 1)·n²)",
        rounds: |_, t| ResilientBa::rounds(t) + 2,
        build: |spec| {
            let adversary = adversary(
                spec.adversary,
                |style| Some(Box::new(liar(spec, style).resilient())),
                || Box::new(ResilientDisruptor::new(spec.n, spec.t, spec.faulty_vec())),
            );
            let make = |id, input| {
                ResilientBa::new(id, spec.n, spec.t, input, spec.matrix.row(id).clone())
            };
            session(spec, make, adversary, |p| p.classification().map(bits_of))
        },
    },
    // The comm-eff fast lane with signed submit/report/ack traffic and a
    // transferable, echoed certify certificate, so an equivocating
    // aggregator can no longer split the fast/fallback decision.
    Family {
        name: "comm-eff-signed",
        divisor: 3,
        uses_predictions: true,
        round_shape: "6 fast / O(t) fallback, uniform lane",
        comm_shape: "O(n³) certificate echo",
        rounds: |_, t| CommEffSigned::rounds(t) + 2,
        build: |spec| {
            let pki = pki(spec);
            let adversary = adversary(
                spec.adversary,
                |_| None,
                || {
                    let pki = Arc::clone(&pki);
                    let keys = corrupted_keys(&pki, spec.faulty);
                    Box::new(SignedCertEquivocator::new(spec.n, spec.t, keys, pki))
                },
            );
            let make = |id: ProcessId, input| {
                let row = spec.matrix.row(id).clone();
                let key = pki.signing_key(id.0);
                CommEffSigned::new(id, spec.n, spec.t, input, row, Arc::clone(&pki), key)
            };
            session(spec, make, adversary, |p| Some(bits_of(p.prediction())))
        },
    },
    // The same resilient state machine over the signed, echoed
    // classification exchange: equivocators are convicted by their own
    // signatures, the honest suspicion views agree, and the phase budget
    // shrinks from `2t + 3` to `t + 2` with no rotation suffix.
    Family {
        name: "resilient-signed",
        divisor: 3,
        uses_predictions: true,
        round_shape: "O(promoted(B) + 1), ≤ t + 2 phases",
        comm_shape: "O(n³) signed exchange",
        rounds: |_, t| ResilientSigned::rounds(t) + 2,
        build: |spec| {
            let pki = pki(spec);
            let keys = || corrupted_keys(&pki, spec.faulty);
            let adversary = adversary(
                spec.adversary,
                |style| Some(Box::new(liar(spec, style).resilient_signed(keys()))),
                || {
                    let pki = Arc::clone(&pki);
                    Box::new(SignedResilientDisruptor::new(spec.n, spec.t, keys(), pki))
                },
            );
            let make = |id: ProcessId, input| {
                let row = spec.matrix.row(id).clone();
                let key = pki.signing_key(id.0);
                ResilientSigned::new(id, spec.n, spec.t, input, row, Arc::clone(&pki), key)
            };
            session(spec, make, adversary, |p| p.classification().map(bits_of))
        },
    },
];

/// Builds one session: every honest slot runs `make(id, input)`, the
/// corrupted identifiers run `adversary`, and `probe` reads each honest
/// process's classification bits after the run.
fn session<P, F>(
    spec: &SessionSpec<'_>,
    make: impl Fn(ProcessId, Value) -> P,
    adversary: Box<dyn Adversary<P::Msg>>,
    probe: F,
) -> Box<dyn ErasedSession>
where
    P: Process<Output = Value> + 'static,
    F: Fn(&P) -> Option<Vec<bool>> + 'static,
{
    // An insert loop rather than `collect`: `BTreeMap::from_iter` sorts,
    // and would monomorphise a stable sort for every process type.
    let mut honest = BTreeMap::new();
    for (slot, id) in spec.honest_slots() {
        honest.insert(id, make(id, spec.input_for(slot)));
    }
    erase(spec.n, honest, adversary, probe)
}

/// Maps an [`AdversaryKind`] onto one family's message type (see the
/// module docs). `liar` returning `None` degrades the lies to silence.
fn adversary<M: Clone + 'static>(
    kind: AdversaryKind,
    liar: impl FnOnce(LiarStyle) -> Option<Box<dyn Adversary<M>>>,
    disruptor: impl FnOnce() -> Box<dyn Adversary<M>>,
) -> Box<dyn Adversary<M>> {
    match kind {
        AdversaryKind::Silent => Box::new(SilentAdversary),
        AdversaryKind::ClassifyLiar(style) => {
            liar(style).unwrap_or_else(|| Box::new(SilentAdversary))
        }
        AdversaryKind::Replay => Box::new(ReplayAdversary::new(1)),
        AdversaryKind::Disruptor => disruptor(),
    }
}

/// The mapping for families with no classification round and no
/// schedule-aware attack: lies are silence, the disruptor replays.
fn baseline_adversary<M: Clone + 'static>(kind: AdversaryKind) -> Box<dyn Adversary<M>> {
    adversary(kind, |_| None, || Box::new(ReplayAdversary::new(1)))
}

/// The classification liar for this session's coalition.
fn liar(spec: &SessionSpec<'_>, style: LiarStyle) -> ClassifyLiar {
    ClassifyLiar::new(spec.n, spec.faulty_vec(), style, spec.seed)
}

/// The session's simulated PKI, shared by its honest processes and its
/// adversary.
fn pki(spec: &SessionSpec<'_>) -> Arc<Pki> {
    Arc::new(Pki::new(spec.n, spec.seed ^ 0x91c1))
}

/// The signing keys of the corrupted identifiers — the only keys the
/// harness ever hands an adversary (simulated-PKI unforgeability is
/// exactly this discipline; see [`ba_crypto::Pki::signing_key`]).
fn corrupted_keys(pki: &Pki, faulty: &BTreeSet<ProcessId>) -> Vec<SigningKey> {
    faulty.iter().map(|p| pki.signing_key(p.0)).collect()
}

/// Converts a classification bit vector into the erased probe format.
fn bits_of(c: &BitVec) -> Vec<bool> {
    (0..c.len()).map(|i| c.get(i)).collect()
}

/// Computes the realized misclassification count `k_A` from erased
/// probes — the one measurement path shared by every
/// prediction-consuming family.
pub fn k_a_from_probes(
    n: usize,
    faulty: &BTreeSet<ProcessId>,
    probes: &[(ProcessId, Vec<bool>)],
) -> usize {
    let owned: Vec<(ProcessId, BitVec)> = probes
        .iter()
        .map(|(id, bits)| (*id, BitVec::from_bools(bits)))
        .collect();
    let refs: Vec<(ProcessId, &BitVec)> = owned.iter().map(|(id, c)| (*id, c)).collect();
    MisclassificationReport::compute(n, faulty, &refs).k_a()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn spec_parts(n: usize, f: usize) -> (BTreeSet<ProcessId>, PredictionMatrix) {
        let faulty = generators::faults(n, f, generators::FaultIds::Spread);
        let matrix = PredictionMatrix::perfect(n, &faulty);
        (faulty, matrix)
    }

    fn spec<'a>(
        n: usize,
        t: usize,
        faulty: &'a BTreeSet<ProcessId>,
        matrix: &'a PredictionMatrix,
    ) -> SessionSpec<'a> {
        SessionSpec {
            n,
            t,
            faulty,
            matrix,
            inputs: InputPattern::Unanimous(6),
            adversary: AdversaryKind::Silent,
            seed: 0,
        }
    }

    #[test]
    fn families_follow_pipeline_all() {
        assert_eq!(Pipeline::ALL.len(), FAMILIES.len());
        for (i, (pipeline, family)) in Pipeline::ALL.into_iter().zip(&FAMILIES).enumerate() {
            assert_eq!(pipeline as usize, i, "{pipeline:?} out of display order");
            // Row `i` is variant `i`'s own: `PhaseKing` runs
            // "phase-king", `Unauth` runs "unauth-wrapper".
            let mut kebab = String::new();
            for (j, c) in format!("{pipeline:?}").chars().enumerate() {
                if j > 0 && c.is_uppercase() {
                    kebab.push('-');
                }
                kebab.push(c.to_ascii_lowercase());
            }
            assert!(
                family.name == kebab || family.name == format!("{kebab}-wrapper"),
                "{pipeline:?} runs the {} row",
                family.name
            );
        }
    }

    #[test]
    fn every_driver_reaches_unanimous_agreement() {
        let n = 10;
        let (faulty, matrix) = spec_parts(n, 2);
        for pipeline in Pipeline::ALL {
            let family = pipeline.driver();
            let t = family.max_faults(n).min(3);
            let s = spec(n, t, &faulty, &matrix);
            let report = family.build(&s).run(family.max_rounds(n, t));
            assert!(report.agreement(), "{} broke agreement", family.name);
            assert_eq!(
                report.decision(),
                Some(&Value(6)),
                "{} broke unanimity",
                family.name
            );
        }
    }

    #[test]
    fn resilience_bounds_match_protocol_families() {
        for pipeline in Pipeline::ALL {
            let signed_quorum = matches!(pipeline, Pipeline::Auth | Pipeline::TruncatedDolevStrong);
            let expected = if signed_quorum { 4 } else { 3 };
            assert_eq!(pipeline.driver().max_faults(10), expected, "{pipeline:?}");
            assert_eq!(pipeline.driver().max_faults(0), 0, "{pipeline:?}");
        }
    }

    #[test]
    fn wrapper_probes_expose_classifications_baselines_do_not() {
        let n = 10;
        let (faulty, matrix) = spec_parts(n, 2);
        let s = spec(n, 3, &faulty, &matrix);

        let unauth = Pipeline::Unauth.driver();
        let mut wrapper = unauth.build(&s);
        let _ = wrapper.run(unauth.max_rounds(n, 3));
        let probes = wrapper.probes();
        assert_eq!(probes.len(), n - 2, "every honest wrapper classifies");
        assert_eq!(k_a_from_probes(n, &faulty, &probes), 0, "perfect matrix");

        let king = Pipeline::PhaseKing.driver();
        let mut baseline = king.build(&s);
        let _ = baseline.run(king.max_rounds(n, 3));
        assert!(
            baseline.probes().is_empty(),
            "baselines have no classification"
        );
    }

    #[test]
    fn k_a_helper_counts_misclassified_processes_once() {
        let n = 4;
        let faulty: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        // Two honest processes misclassify the same faulty id (counted
        // once) and one honest process accuses an honest id.
        let probes = vec![
            (ProcessId(0), vec![true, true, true, true]),
            (ProcessId(1), vec![true, false, true, true]),
            (ProcessId(2), vec![true, true, true, false]),
        ];
        assert_eq!(k_a_from_probes(n, &faulty, &probes), 2);
    }
}
