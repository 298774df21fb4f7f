//! Multi-seed sweeps, multi-config grids, and summary statistics.
//!
//! The simulator is deterministic per configuration, but workload
//! randomness (error placement, adversary scheduling) makes single-seed
//! numbers noisy summaries of a configuration's behaviour. This module
//! runs a configuration across seeds and aggregates: worst case (what
//! the theorems bound), mean, and best case. [`sweep_grid`] lifts that
//! to the cartesian product over `n`/`B`/`f`/pipeline — the shape of
//! every cross-family bench table — executing configurations in
//! parallel ([`crate::par`]) with results in deterministic grid order,
//! byte-identical to the serial path. The scaling helpers fit the
//! measured curves against reference shapes (`n²`, `min{B/n+1, f}`), so
//! bench tables can report shape-conformance numerically.

use crate::experiment::{ExperimentConfig, ExperimentOutcome, Pipeline};
use crate::json::{to_json_array, JsonObject, ToJson};
use crate::par::par_map;

/// Aggregated results of one configuration across seeds.
///
/// Denominator convention: every `*_mean` field divides by the **total**
/// number of runs. `rounds_mean` is therefore only defined when every
/// run decided; if any run violated liveness it is `None` (exactly like
/// `rounds_max`/`rounds_min`), never a partial average or a fake `0.0`
/// that would read as instant agreement in grid JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSummary {
    /// Number of seeds run.
    pub runs: usize,
    /// Worst-case rounds across seeds (`None` if any run failed to
    /// decide — a liveness violation).
    pub rounds_max: Option<u64>,
    /// Best-case rounds.
    pub rounds_min: Option<u64>,
    /// Mean rounds over all runs (`None` if any run failed to decide,
    /// like `rounds_max`).
    pub rounds_mean: Option<f64>,
    /// Worst-case honest message count (until decision).
    pub messages_max: u64,
    /// Mean honest message count.
    pub messages_mean: f64,
    /// Worst-case honest byte count (until decision).
    pub bytes_max: u64,
    /// Mean honest byte count.
    pub bytes_mean: f64,
    /// Whether agreement held in every run.
    pub always_agreed: bool,
    /// Whether validity held in every run.
    pub always_valid: bool,
    /// Mean realized misclassification count `k_A`.
    pub k_a_mean: f64,
    /// The **maximum** realized error budget across seeds. Budget-exact
    /// placements spend the same `B` for every seed
    /// (`b_actual_uniform = true`); saturating or capacity-limited
    /// generators may not, and the maximum is the conservative summary
    /// of how much error the cell was exposed to.
    pub b_actual: usize,
    /// Whether every seed realized the same error budget. `false` flags
    /// a non-budget-exact generator that would otherwise masquerade as
    /// exact.
    pub b_actual_uniform: bool,
}

impl ToJson for SweepSummary {
    fn to_json(&self) -> String {
        JsonObject::new()
            .field_u64("runs", self.runs as u64)
            .field_opt_u64("rounds_max", self.rounds_max)
            .field_opt_u64("rounds_min", self.rounds_min)
            .field_opt_f64("rounds_mean", self.rounds_mean)
            .field_u64("messages_max", self.messages_max)
            .field_f64("messages_mean", self.messages_mean)
            .field_u64("bytes_max", self.bytes_max)
            .field_f64("bytes_mean", self.bytes_mean)
            .field_bool("always_agreed", self.always_agreed)
            .field_bool("always_valid", self.always_valid)
            .field_f64("k_a_mean", self.k_a_mean)
            .field_u64("b_actual", self.b_actual as u64)
            .field_bool("b_actual_uniform", self.b_actual_uniform)
            .finish()
    }
}

/// Runs `cfg` across `seeds` and aggregates the outcomes.
pub fn sweep_seeds(cfg: &ExperimentConfig, seeds: impl IntoIterator<Item = u64>) -> SweepSummary {
    let outcomes: Vec<ExperimentOutcome> = seeds
        .into_iter()
        .map(|seed| cfg.clone().with_seed(seed).run())
        .collect();
    summarize(&outcomes)
}

/// Aggregates a set of outcomes (see [`SweepSummary`] for the
/// denominator and `b_actual` conventions).
pub fn summarize(outcomes: &[ExperimentOutcome]) -> SweepSummary {
    assert!(!outcomes.is_empty(), "cannot summarize zero runs");
    let runs = outcomes.len();
    let all_decided = outcomes.iter().all(|o| o.rounds.is_some());
    let rounds: Vec<u64> = outcomes.iter().filter_map(|o| o.rounds).collect();
    let b_actual = outcomes.iter().map(|o| o.b_actual).max().unwrap_or(0);
    SweepSummary {
        runs,
        rounds_max: all_decided.then(|| rounds.iter().copied().max().unwrap_or(0)),
        rounds_min: all_decided.then(|| rounds.iter().copied().min().unwrap_or(0)),
        rounds_mean: all_decided.then(|| rounds.iter().sum::<u64>() as f64 / runs as f64),
        messages_max: outcomes.iter().map(|o| o.messages).max().unwrap_or(0),
        messages_mean: outcomes.iter().map(|o| o.messages).sum::<u64>() as f64 / runs as f64,
        bytes_max: outcomes.iter().map(|o| o.bytes).max().unwrap_or(0),
        bytes_mean: outcomes.iter().map(|o| o.bytes).sum::<u64>() as f64 / runs as f64,
        always_agreed: outcomes.iter().all(|o| o.agreement),
        always_valid: outcomes.iter().all(|o| o.validity_ok),
        k_a_mean: outcomes.iter().map(|o| o.k_a).sum::<usize>() as f64 / runs as f64,
        b_actual,
        b_actual_uniform: outcomes.iter().all(|o| o.b_actual == b_actual),
    }
}

/// A cartesian sweep over system size, error budget, fault count, and
/// pipeline, with every other knob held fixed by a base configuration.
///
/// ```
/// use ba_workloads::{ExperimentConfig, Pipeline, SweepGrid};
///
/// let grid = SweepGrid::new(ExperimentConfig::builder().build())
///     .ns([10, 13])
///     .budgets([0, 8])
///     .fs([0, 2])
///     .pipelines([Pipeline::Unauth, Pipeline::PhaseKing])
///     .seeds(0..2);
/// // The prediction-free PhaseKing pipeline ignores the budget axis,
/// // so it contributes one cell per (n, f) instead of one per budget.
/// let points = ba_workloads::sweep_grid(&grid);
/// assert_eq!(points.len(), 2 * 2 * 2 + 2 * 2);
/// assert!(points.iter().all(|p| p.summary.always_agreed));
/// ```
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// Template for every cell: inputs, adversary, placements are
    /// taken from here; `n`, `t`, `f`, `budget`, `pipeline`, `seed`
    /// are overridden per cell.
    pub base: ExperimentConfig,
    /// System sizes to sweep.
    pub ns: Vec<usize>,
    /// Error budgets to sweep.
    pub budgets: Vec<usize>,
    /// Fault counts to sweep. Combinations exceeding a pipeline's
    /// resilience at some `n` are skipped (deterministically — the
    /// skip depends only on the grid, never on execution).
    pub fs: Vec<usize>,
    /// Pipelines to sweep.
    pub pipelines: Vec<Pipeline>,
    /// Seeds aggregated per cell.
    pub seeds: Vec<u64>,
}

impl SweepGrid {
    /// Starts a grid from a base configuration; axes default to the
    /// base's own values and can be widened with the combinators.
    pub fn new(base: ExperimentConfig) -> Self {
        SweepGrid {
            ns: vec![base.n],
            budgets: vec![base.budget],
            fs: vec![base.f],
            pipelines: vec![base.pipeline],
            seeds: vec![base.seed],
            base,
        }
    }

    /// The canonical grid behind the repository's `BENCH_*.json`
    /// trajectory files: every pipeline family over a small
    /// `n × B × f` cube, three seeds per cell.
    /// `examples/sweep_grid_json.rs` produces it (CI's `BENCH_ci.json`)
    /// and `examples/bench_trajectory_diff.rs` regenerates it for the
    /// failing baseline diff — both must describe the same grid, so it
    /// is defined exactly once, here.
    pub fn bench_default() -> Self {
        SweepGrid::new(
            ExperimentConfig::builder()
                .n(16)
                .faults(2, crate::generators::FaultIds::Spread)
                .build(),
        )
        .ns([13, 16, 24])
        .budgets([0, 16, 64])
        .fs([0, 2, 4])
        .pipelines(Pipeline::ALL)
        .seeds(0..3)
    }

    /// Sets the system-size axis.
    pub fn ns(mut self, ns: impl IntoIterator<Item = usize>) -> Self {
        self.ns = ns.into_iter().collect();
        self
    }

    /// Sets the error-budget axis.
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = usize>) -> Self {
        self.budgets = budgets.into_iter().collect();
        self
    }

    /// Sets the fault-count axis.
    pub fn fs(mut self, fs: impl IntoIterator<Item = usize>) -> Self {
        self.fs = fs.into_iter().collect();
        self
    }

    /// Sets the pipeline axis.
    pub fn pipelines(mut self, pipelines: impl IntoIterator<Item = Pipeline>) -> Self {
        self.pipelines = pipelines.into_iter().collect();
        self
    }

    /// Sets the per-cell seed set.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Expands the grid into concrete configurations, in grid order
    /// (pipeline-major, then `n`, `f`, `B`). Each cell derives `t`
    /// from its pipeline's resilience bound at `n`; cells whose fault
    /// count exceeds that bound are skipped, and prediction-free
    /// pipelines collapse the budget axis to a single `B = 0` cell
    /// (they never read the matrix, so every budget would re-run the
    /// identical experiment and report a misleading non-zero `B`).
    pub fn configs(&self) -> Vec<ExperimentConfig> {
        let zero_budget = [0usize];
        let mut out = Vec::new();
        for &pipeline in &self.pipelines {
            let budgets: &[usize] = if pipeline.driver().uses_predictions() {
                &self.budgets
            } else {
                &zero_budget
            };
            for &n in &self.ns {
                let t = pipeline.driver().max_faults(n);
                for &f in &self.fs {
                    if f > t {
                        continue;
                    }
                    for &budget in budgets {
                        let mut cfg = self
                            .base
                            .clone()
                            .with_pipeline(pipeline)
                            .with_budget(budget);
                        cfg.n = n;
                        cfg.t = t;
                        cfg.f = f;
                        out.push(cfg);
                    }
                }
            }
        }
        out
    }
}

/// One cell of a grid sweep: the coordinates plus the seed-aggregated
/// summary.
#[derive(Clone, Debug, PartialEq)]
pub struct GridPoint {
    /// System size.
    pub n: usize,
    /// Derived fault bound.
    pub t: usize,
    /// Fault count.
    pub f: usize,
    /// Requested error budget.
    pub budget: usize,
    /// Pipeline run in this cell.
    pub pipeline: Pipeline,
    /// Seed-aggregated measurements.
    pub summary: SweepSummary,
}

impl ToJson for GridPoint {
    fn to_json(&self) -> String {
        JsonObject::new()
            .field_str("pipeline", self.pipeline.name())
            .field_u64("n", self.n as u64)
            .field_u64("t", self.t as u64)
            .field_u64("f", self.f as u64)
            .field_u64("budget", self.budget as u64)
            .field_raw("summary", &self.summary.to_json())
            .finish()
    }
}

/// Renders grid results as a JSON array — the machine-readable sweep
/// output consumed by benchmark trajectory tooling.
pub fn grid_to_json(points: &[GridPoint]) -> String {
    to_json_array(points)
}

fn grid_point(cfg: &ExperimentConfig, seeds: &[u64]) -> GridPoint {
    GridPoint {
        n: cfg.n,
        t: cfg.t,
        f: cfg.f,
        budget: cfg.budget,
        pipeline: cfg.pipeline,
        summary: sweep_seeds(cfg, seeds.iter().copied()),
    }
}

/// Runs every cell of `grid` in parallel, returning points in grid
/// order. Because each experiment is a pure function of its
/// configuration and ordering is restored by index, the output is
/// identical to [`sweep_grid_serial`].
pub fn sweep_grid(grid: &SweepGrid) -> Vec<GridPoint> {
    let configs = grid.configs();
    par_map(&configs, |cfg| grid_point(cfg, &grid.seeds))
}

/// Serial reference implementation of [`sweep_grid`] (also the
/// fallback semantics: same cells, same order).
pub fn sweep_grid_serial(grid: &SweepGrid) -> Vec<GridPoint> {
    grid.configs()
        .iter()
        .map(|cfg| grid_point(cfg, &grid.seeds))
        .collect()
}

/// Least-squares exponent of `y ≈ c·xᵖ` over positive samples — used to
/// check measured scaling against a reference power (e.g. messages vs
/// `n` should fit `p ≈ 2`).
pub fn fit_power_law(samples: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
}

/// Pearson correlation between two equal-length series — used to check
/// that measured rounds track the `min{B/n + 1, f}` reference curve.
pub fn correlation(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let denom = (vx * vy).sqrt();
    (denom > 1e-12).then(|| cov / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Pipeline;

    #[test]
    fn sweep_aggregates_deterministic_runs() {
        let cfg = ExperimentConfig::new(16, 5, 2, 12, Pipeline::Unauth);
        let summary = sweep_seeds(&cfg, 0..4);
        assert_eq!(summary.runs, 4);
        assert!(summary.always_agreed);
        assert!(summary.rounds_max.is_some());
        assert!(summary.rounds_min <= summary.rounds_max);
        assert!(summary.rounds_mean.expect("all decided") > 0.0);
        assert_eq!(summary.b_actual, 12);
        assert!(summary.b_actual_uniform, "exact placements spend B evenly");
    }

    #[test]
    fn livelock_cells_report_null_round_statistics() {
        // Regression: a cell where no (or not every) run decides must
        // not report rounds_mean = 0.0 — that reads as instant
        // agreement in grid JSON. All round statistics go to None/null.
        let decided = ExperimentConfig::new(10, 3, 1, 0, Pipeline::Unauth).run();
        assert!(decided.rounds.is_some(), "fixture must decide");
        let livelocked = ExperimentOutcome {
            rounds: None,
            ..decided
        };

        let all_stuck = summarize(&[livelocked, livelocked]);
        assert_eq!(all_stuck.rounds_mean, None);
        assert_eq!(all_stuck.rounds_max, None);
        let json = all_stuck.to_json();
        assert!(
            json.contains("\"rounds_mean\":null"),
            "livelock must serialize as null, got {json}"
        );

        // One stuck run poisons the mean exactly like it poisons the max.
        let partial = summarize(&[decided, livelocked]);
        assert_eq!(partial.rounds_mean, None);

        let healthy = summarize(&[decided, decided]);
        assert_eq!(
            healthy.rounds_mean,
            Some(decided.rounds.unwrap() as f64),
            "all-decided cells average over all runs"
        );
    }

    #[test]
    fn non_uniform_b_actual_is_surfaced_not_masked() {
        // Regression: `b_actual` used to silently report the first
        // seed's spend; a saturating generator could masquerade as
        // budget-exact. Now the summary reports the maximum and flags
        // the disagreement.
        let base = ExperimentConfig::new(10, 3, 1, 4, Pipeline::Unauth).run();
        let other = ExperimentOutcome {
            b_actual: 9,
            ..base
        };
        let summary = summarize(&[base, other]);
        assert_eq!(summary.b_actual, 9, "maximum across seeds");
        assert!(!summary.b_actual_uniform);
        assert!(summary.to_json().contains("\"b_actual_uniform\":false"));
    }

    #[test]
    fn bench_default_grid_covers_every_pipeline_family() {
        // The baseline diff catches a cell that disappears; this test
        // catches a family that never had one. It lives next to
        // Pipeline::ALL, where a forgotten variant is a test failure
        // instead of a silently ungated artifact.
        let configs = SweepGrid::bench_default().configs();
        for pipeline in Pipeline::ALL {
            assert!(
                configs.iter().any(|c| c.pipeline == pipeline),
                "{} has no cells in the bench grid",
                pipeline.name()
            );
        }
    }

    #[test]
    fn grid_expands_the_cartesian_product_in_stable_order() {
        let grid = SweepGrid::new(ExperimentConfig::builder().build())
            .ns([10, 13])
            .budgets([0, 4])
            .fs([0, 2])
            .pipelines([Pipeline::Unauth, Pipeline::Auth]);
        let configs = grid.configs();
        assert_eq!(configs.len(), 16);
        assert_eq!(configs[0].pipeline, Pipeline::Unauth);
        assert_eq!(configs[0].n, 10);
        assert_eq!(configs[0].t, 3, "t derived per pipeline");
        assert_eq!(configs[8].pipeline, Pipeline::Auth);
        assert_eq!(configs[8].t, 4);
        // Same grid, same expansion.
        let again = grid.configs();
        assert_eq!(
            format!("{configs:?}"),
            format!("{again:?}"),
            "expansion must be deterministic"
        );
    }

    #[test]
    fn grid_collapses_the_budget_axis_for_prediction_free_pipelines() {
        let grid = SweepGrid::new(ExperimentConfig::builder().build())
            .ns([10])
            .budgets([0, 8, 16])
            .pipelines([Pipeline::Unauth, Pipeline::PhaseKing]);
        let configs = grid.configs();
        // Unauth sweeps all three budgets; phase-king gets one B = 0 cell.
        assert_eq!(configs.len(), 4);
        let pk: Vec<_> = configs
            .iter()
            .filter(|c| c.pipeline == Pipeline::PhaseKing)
            .collect();
        assert_eq!(pk.len(), 1);
        assert_eq!(pk[0].budget, 0);
    }

    #[test]
    fn grid_skips_infeasible_fault_counts() {
        let grid = SweepGrid::new(ExperimentConfig::builder().build())
            .ns([10])
            .fs([0, 4])
            .pipelines([Pipeline::Unauth, Pipeline::Auth]);
        let configs = grid.configs();
        // Unauth at n = 10 tolerates t = 3 < 4: the f = 4 cell exists
        // only for the auth pipeline.
        assert_eq!(configs.len(), 3);
        assert!(configs
            .iter()
            .all(|c| c.pipeline == Pipeline::Auth || c.f == 0));
    }

    #[test]
    fn parallel_grid_matches_serial_byte_for_byte() {
        let grid = SweepGrid::new(ExperimentConfig::builder().build())
            .ns([10, 13])
            .budgets([0, 6])
            .fs([2])
            .pipelines(Pipeline::ALL)
            .seeds(0..2);
        let parallel = sweep_grid(&grid);
        let serial = sweep_grid_serial(&grid);
        assert_eq!(parallel.len(), serial.len());
        assert_eq!(
            format!("{parallel:?}"),
            format!("{serial:?}"),
            "parallel execution must not change results"
        );
        assert_eq!(grid_to_json(&parallel), grid_to_json(&serial));
    }

    #[test]
    fn grid_points_serialize_to_a_json_array() {
        let grid = SweepGrid::new(ExperimentConfig::builder().build()).seeds(0..2);
        let points = sweep_grid(&grid);
        let json = grid_to_json(&points);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"pipeline\":\"unauth-wrapper\""));
        assert!(json.contains("\"summary\":{\"runs\":2"));
    }

    #[test]
    fn fit_power_law_recovers_known_exponents() {
        let quadratic: Vec<(f64, f64)> =
            (1..=6).map(|x| (x as f64, (x * x) as f64 * 3.0)).collect();
        let p = fit_power_law(&quadratic).expect("fit");
        assert!((p - 2.0).abs() < 1e-9, "got {p}");

        let linear: Vec<(f64, f64)> = (1..=6).map(|x| (x as f64, x as f64 * 7.0)).collect();
        let p = fit_power_law(&linear).expect("fit");
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_power_law_needs_two_positive_points() {
        assert!(fit_power_law(&[(1.0, 2.0)]).is_none());
        assert!(fit_power_law(&[(0.0, 2.0), (0.0, 3.0)]).is_none());
    }

    #[test]
    fn correlation_detects_monotone_tracking() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 21.0, 29.0, 44.0];
        let r = correlation(&xs, &ys).expect("correlated");
        assert!(r > 0.98, "got {r}");
        let anti = [44.0, 29.0, 21.0, 10.0];
        assert!(correlation(&xs, &anti).expect("r") < -0.98);
    }

    #[test]
    fn correlation_rejects_mismatched_lengths() {
        assert!(correlation(&[1.0], &[1.0]).is_none());
        assert!(correlation(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn summarize_rejects_empty() {
        let _ = summarize(&[]);
    }
}
