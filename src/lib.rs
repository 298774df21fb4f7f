//! # ba-predictions — Byzantine Agreement with Predictions
//!
//! A production-quality Rust reproduction of *Byzantine Agreement with
//! Predictions* (Ben-David, Dzulfikar, Ellen, Gilbert — PODC 2025,
//! arXiv:2505.01793), packaged as a workspace facade.
//!
//! The paper asks: can Byzantine agreement exploit unreliable hints — an
//! `n`-bit *classification prediction* per process, guessing who is
//! faulty, produced e.g. by a network security monitor? Its answers,
//! all reproduced and measured here:
//!
//! * **Yes, for time**: agreement in `O(min{B/n + 1, f})` rounds, where
//!   `B` is the total number of wrong prediction bits and `f` the actual
//!   fault count (Theorems 11 and 12), and that bound is optimal
//!   (Theorem 13): the `claims` bench's E1/E2 tables, whose every row
//!   dominates the Theorem 13 bound.
//! * **No, for messages**: `Ω(n + t²)` messages remain necessary even
//!   with perfectly accurate predictions (Theorem 14; the `claims`
//!   bench's E4 table).
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`ba_sim`] | deterministic synchronous simulator, rushing Byzantine adversary |
//! | [`ba_crypto`] | SHA-256, HMAC, simulated PKI (substitution S1) |
//! | [`ba_graded`] | graded consensus: 2-round unauth (S2), certified gradecast + 5-round auth (S3) |
//! | [`ba_unauth`] | Algorithms 3 and 4 (§7), and one 5-round phase engine with two rules: Algorithm 5 (conciliation over `π(c)` blocks) and phase king (a king's broadcast) |
//! | [`ba_auth`] | committee certificates, message chains, Algorithms 6, 7 (§8) |
//! | [`ba_early`] | early-stopping substrates (S4, S5) and prediction-free baselines; re-exports phase king from the [`ba_unauth`] engine |
//! | [`ba_commeff`] | communication-efficient BA with predictions (Dzulfikar–Gilbert follow-up): one state machine over a plain or a signed-certify lane |
//! | [`ba_resilient`] | gracefully-degrading BA with predictions (Dallot et al. follow-up): one state machine over a plain or a signed classification exchange |
//! | [`ba_core`] | predictions, Algorithm 2, `π(c)` orderings, the Algorithm 1 wrapper |
//! | [`ba_workloads`] | generators, adversary gallery, protocol-family table and experiment harness, parallel sweeps, lower bounds |
//!
//! ## Execution API
//!
//! Every protocol family runs through one seam: a
//! [`Pipeline`](ba_workloads::Pipeline) indexes its
//! [`Family`](ba_workloads::Family) row in the
//! [`FAMILIES`](ba_workloads::FAMILIES) table, and
//! [`ExperimentConfig::run`](ba_workloads::ExperimentConfig::run)
//! builds, executes, and measures the type-erased session identically
//! for all of them: rounds, honest messages, and honest bytes
//! ([`WireSize`](ba_sim::WireSize) accounting), so communication-vs-
//! rounds trade-offs are comparable across families. Eight families
//! ship; the authoritative comparison table is rendered live by
//! [`driver_table`](ba_workloads::driver_table) from the same rows the
//! engine runs, so it cannot rot — run `examples/pipelines_compared.rs`
//! to see it. A snapshot:
//!
//! | pipeline | predictions | rounds | communication |
//! |---|---|---|---|
//! | `Unauth` (Thm 11, `3t < n`) | yes | `O(min{B/n + 1, f})` | `O(f·n²)` |
//! | `Auth` (Thm 12, `2t < n`) | yes | `O(min{B/n + 1, f})` | `O(n²)` chain batches |
//! | `PhaseKing` baseline (`3t < n`) | ignored | `O(f)` | `O(f·n²)` |
//! | `TruncatedDolevStrong` baseline (`2t < n`) | ignored | `t + 1` | `Ω(n²)` chain batches |
//! | `CommEff` (Dzulfikar–Gilbert, `3t < n`), `CommEffBa<Plain>` | yes | 5 fast / `O(t)` fallback | `Θ(n·f̂)` fast lane |
//! | `Resilient` (Dallot et al., `3t < n`), `Resilient<Plain>` | yes | `O(promoted(B) + 1)`, ≤ `2t + 3` phases | `O((promoted(B) + 1)·n²)` |
//! | `CommEffSigned` (`3t < n`), `CommEffBa<Certified>` | yes | 6 fast / `O(t)` fallback, uniform lane | `O(n³)` certificate echo |
//! | `ResilientSigned` (`3t < n`), `Resilient<Signed>` | yes | `O(promoted(B) + 1)`, ≤ `t + 2` phases | `O(n³)` signed exchange |
//!
//! The two lanes of the trade-off space: `CommEff` buys *communication*
//! and pays a fallback cliff when the hints betray it; `Resilient` buys
//! *round* degradation proportional to the realized error — each faulty
//! identifier the budget promotes up its suspicion-ordered throne
//! schedule costs exactly one stalled phase — and never cliffs. Both
//! are *conditional* on faulty processes not splitting honest views;
//! their signed variants buy the condition off with
//! [`Signed`](ba_crypto::Signed) envelopes (exactly 20 bytes per
//! signature in the [`WireSize`](ba_sim::WireSize) model — see the
//! `ba_sim` wire-module docs): `CommEffSigned` makes the fast/fallback
//! choice uniform under full signature equivocation (transferable,
//! echoed certify certificates), and `ResilientSigned` makes the
//! honest suspicion views agree (echoed signed classifications,
//! equivocators convicted by their own signatures), shrinking the
//! phase budget from `2t + 3` to `t + 2` with no rotation suffix. Each
//! pair is one state machine: [`CommEffBa<L>`](ba_commeff::CommEffBa)
//! over either [`Lane`](ba_commeff::Lane), and
//! [`Resilient<X>`](ba_resilient::Resilient) over either
//! [`Exchange`](ba_resilient::Exchange); only the lane or the exchange
//! differs.
//! Configurations are built fluently
//! ([`ExperimentConfig::builder`](ba_workloads::ExperimentConfig::builder),
//! `with_*` combinators); multi-config comparisons run in parallel via
//! [`SweepGrid`](ba_workloads::SweepGrid) /
//! [`sweep_grid`](ba_workloads::sweep_grid) with deterministic output,
//! serializable to JSON ([`ToJson`](ba_workloads::ToJson)). A new
//! protocol family (sharded or batched execution modes are the open
//! directions) plugs in with one `Pipeline` variant plus one
//! `FAMILIES` row.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use ba_predictions::prelude::*;
//!
//! let outcome = ExperimentConfig::new(16, 5, 2, /* B = */ 8, Pipeline::Unauth).run();
//! assert!(outcome.agreement && outcome.validity_ok);
//! println!("decided in {:?} rounds, {} messages", outcome.rounds, outcome.messages);
//!
//! // The same workload on the prediction-free baseline it must beat:
//! let baseline = ExperimentConfig::builder()
//!     .n(16)
//!     .faults(2, FaultPlacement::Spread)
//!     .pipeline(Pipeline::PhaseKing)
//!     .build()
//!     .run();
//! assert!(baseline.agreement);
//! ```

#![forbid(unsafe_code)]

pub use ba_auth;
pub use ba_commeff;
pub use ba_core;
pub use ba_crypto;
pub use ba_early;
pub use ba_graded;
pub use ba_resilient;
pub use ba_sim;
pub use ba_unauth;
pub use ba_workloads;

/// The most common imports for running experiments against the paper's
/// algorithms.
pub mod prelude {
    pub use ba_core::{
        AuthWrapper, BitVec, Classify, MisclassificationReport, PredictionMatrix, UnauthWrapper,
    };
    pub use ba_sim::{
        ErasedSession, ProcessId, RunReport, Runner, SilentAdversary, Value, WireSize,
    };
    pub use ba_workloads::{
        driver_table, faults, grid_to_json, message_lower_bound, predictions_with_budget,
        round_lower_bound, sweep_grid, sweep_seeds, AdversaryKind, ConfigError, ErrorPlacement,
        ExperimentBuilder, ExperimentConfig, ExperimentOutcome, Family, FaultPlacement, GridPoint,
        InputPattern, LiarStyle, Pipeline, SessionSpec, SweepGrid, SweepSummary, Table, ToJson,
    };
}
