//! # ba-workloads — workload generation and the experiment harness
//!
//! Everything the benchmark suite and the examples need to exercise the
//! *Byzantine Agreement with Predictions* implementation:
//!
//! * [`generators`] — prediction matrices with an exact budget of `B`
//!   wrong bits under several placement strategies (the paper's analysis
//!   is parameterized by `B` alone; placement controls how adversarial
//!   the noise is), plus fault-set placement;
//! * [`adversaries`] — Byzantine strategies against the wrapper
//!   (prediction liars, replayers, crashers);
//! * [`driver`] — the [`FAMILIES`] table: one [`Family`] row per
//!   protocol family (the paper's two wrapper pipelines, the
//!   prediction-free `PhaseKing`/`TruncatedDolevStrong` baselines, and
//!   the communication-efficient and gracefully-degrading pipelines
//!   with their signed variants) builds a type-erased session from a
//!   shared [`SessionSpec`], so one generic engine runs them all —
//!   measuring rounds, messages, *and* bytes uniformly. A future
//!   family is one `Pipeline` variant plus one row;
//! * [`experiment`] — the declarative experiment runner on top of the
//!   drivers: an [`ExperimentConfig`] (built fluently via
//!   [`ExperimentConfig::builder`] or tweaked with `with_*`
//!   combinators) in, `(rounds, messages, agreement, validity, k_A)`
//!   out, fully deterministic per seed;
//! * [`sweep`] — multi-seed aggregation ([`sweep_seeds`]) and parallel
//!   multi-config grids ([`sweep_grid`]) with deterministic ordering,
//!   plus curve-fitting helpers;
//! * [`json`] — machine-readable output ([`ToJson`]) for outcomes,
//!   summaries, and grid points;
//! * [`par`] — the scoped-thread parallel map behind [`sweep_grid`];
//! * [`lower_bounds`] — the paper's lower-bound formulas (Theorems 13
//!   and 14) as checkable functions;
//! * [`tables`] — markdown table rendering for the bench harnesses.

#![forbid(unsafe_code)]

pub mod adversaries;
pub mod disruptor;
pub mod driver;
pub mod experiment;
pub mod generators;
pub mod json;
pub mod lower_bounds;
pub mod par;
pub mod sweep;
pub mod tables;

pub use adversaries::{ClassifyLiar, LiarStyle, SignedCertEquivocator};
pub use disruptor::{AuthDisruptor, UnauthDisruptor};
pub use driver::{k_a_from_probes, Family, SessionSpec, FAMILIES};
pub use experiment::{
    AdversaryKind, ConfigError, ExperimentBuilder, ExperimentConfig, ExperimentOutcome,
    FaultPlacement, InputPattern, Pipeline,
};
pub use generators::{faults, predictions_with_budget, ErrorPlacement};
pub use json::{to_json_array, ToJson};
pub use lower_bounds::{message_lower_bound, round_lower_bound};
pub use par::par_map;
pub use sweep::{
    correlation, fit_power_law, grid_to_json, summarize, sweep_grid, sweep_grid_serial,
    sweep_seeds, GridPoint, SweepGrid, SweepSummary,
};
pub use tables::{driver_table, Table};
