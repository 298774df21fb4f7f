//! # ba-bench — the paper's claims as tables
//!
//! Two bench targets (`cargo bench -p ba-bench`):
//!
//! * `claims` prints every claim's table as markdown and asserts the
//!   claim on each row: E1/E2 the round bounds of Theorems 11/12 and the
//!   round lower bound of Theorem 13, E4 the message floor of Theorem 14
//!   and its `n²` scaling, E5/E6 Algorithms 5 and 7 standalone
//!   (Theorems 5/6), E7 classification quality (Lemma 1), E8 the
//!   wrappers against the prediction-free baselines, E9 ablations, E10
//!   rounds against the `min{B/n + 1, f}` reference.
//! * `engine` times the substrate microbenchmarks.
//!
//! The measured quantities are deterministic (rounds, messages), so
//! `claims` runs each configuration once, through [`Outcomes`], and
//! prints tables rather than sampling wall-clock distributions.

#![forbid(unsafe_code)]

use ba_workloads::{
    faults, predictions_with_budget, AdversaryKind, ErrorPlacement, ExperimentConfig,
    ExperimentOutcome, FaultPlacement, Pipeline,
};
use std::collections::HashMap;

/// The worst-case experiment configuration used by the shape sweeps:
/// head-placed coalition, trusted-fault prediction spend, schedule-driven
/// disruptor.
pub fn worst_case(
    n: usize,
    t: usize,
    f: usize,
    budget: usize,
    pipeline: Pipeline,
) -> ExperimentConfig {
    ExperimentConfig::builder()
        .n(n)
        .t(t)
        .faults(f, FaultPlacement::Head)
        .budget(budget, ErrorPlacement::TrustedFaults)
        .pipeline(pipeline)
        .adversary(AdversaryKind::Disruptor)
        .build()
}

/// A silent-fault baseline configuration for a prediction-free
/// pipeline: the reference row the wrapper rows are compared against.
pub fn baseline(n: usize, t: usize, f: usize, pipeline: Pipeline) -> ExperimentConfig {
    ExperimentConfig::builder()
        .n(n)
        .t(t)
        .faults(f, FaultPlacement::Head)
        .pipeline(pipeline)
        .build()
}

/// Every outcome the tables read, each experiment run once and checked
/// for agreement and liveness.
///
/// A budget past the generator's capacity yields the same prediction
/// matrix as the capacity itself, so an outcome is keyed on its config
/// with the budget replaced by the number of wrong bits it realizes.
#[derive(Default)]
pub struct Outcomes(HashMap<String, ExperimentOutcome>);

impl Outcomes {
    /// `cfg`'s outcome, run on its first request.
    ///
    /// # Panics
    ///
    /// If the run breaks agreement or liveness.
    pub fn get(&mut self, cfg: &ExperimentConfig) -> ExperimentOutcome {
        let faulty = faults(cfg.n, cfg.f, cfg.fault_placement);
        let realized = predictions_with_budget(cfg.n, &faulty, cfg.budget, cfg.placement, cfg.seed)
            .total_errors(&faulty);
        let key = cfg.clone().with_budget(realized);
        *self.0.entry(format!("{key:?}")).or_insert_with(|| {
            let out = key.run();
            assert!(out.agreement, "agreement violated at {key:?}");
            assert!(out.rounds.is_some(), "liveness violated at {key:?}");
            out
        })
    }

    /// Worst-case outcomes at ascending `budgets`, up to the first one the
    /// generator cannot spend in full: every larger budget realizes the
    /// same matrix.
    pub fn sweep(
        &mut self,
        pipeline: Pipeline,
        n: usize,
        t: usize,
        f: usize,
        budgets: &[usize],
    ) -> Vec<ExperimentOutcome> {
        let mut rows = Vec::new();
        for &budget in budgets {
            let out = self.get(&worst_case(n, t, f, budget, pipeline));
            rows.push(out);
            if out.b_actual < budget {
                break;
            }
        }
        rows
    }
}
