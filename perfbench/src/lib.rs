//! Wall-clock benchmark of the BA-with-predictions experiment harness.
//!
//! Three workloads (`auth-silent`, `replay-flood`, `grid`) run closed
//! loop through the library's public API; a traced run splits their
//! time across the layers a round passes through. See `README.md` in
//! this directory for the load model, the metrics and what each should
//! move.

pub mod clock;
pub mod crypto_probe;
pub mod stats;
pub mod trace;
pub mod workload;
