//! The benchmark's workloads, the experiment paths it times, and the
//! checks every timed experiment must pass.

use crate::clock;
use crate::stats::Span;
use crate::trace::{SharedTracer, Timed, TimedAdversary, Tracer};
use ba_predictions::ba_core::{AuthWrapper, BitVec, PredictionMatrix};
use ba_predictions::ba_crypto::Pki;
use ba_predictions::ba_early::{PhaseKing, PhaseKingMsg, PhaseKingOutput};
use ba_predictions::ba_sim::{
    Adversary, ErasedSession, MapOutput, Process, ProcessId, ReplayAdversary, RunReport, Runner,
    SilentAdversary, Value,
};
use ba_predictions::ba_workloads::driver::{k_a_from_probes, SessionSpec};
use ba_predictions::ba_workloads::sweep::summarize;
use ba_predictions::ba_workloads::{
    faults, predictions_with_budget, AdversaryKind, ErrorPlacement, ExperimentConfig,
    ExperimentOutcome, FaultPlacement, GridPoint, InputPattern, Pipeline, SweepGrid,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One of the benchmark's fixed experiment lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Auth-wrapper (Theorem 12) at n = 64, silent faults: crypto-bound.
    AuthSilent,
    /// Phase king at n = 96 under replay: runner- and adversary-bound.
    ReplayFlood,
    /// The deterministic regression grid: all eight families, 540 runs.
    Grid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::AuthSilent, Workload::ReplayFlood, Workload::Grid];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuthSilent => "auth-silent",
            Workload::ReplayFlood => "replay-flood",
            Workload::Grid => "grid",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells and per-cell seeds one pass runs, generated from the
    /// benchmark's `--seed`. The seed reaches the library only through
    /// these configs.
    pub fn plan(self, seed: u64) -> Plan {
        match self {
            Workload::AuthSilent => Plan::single(
                ExperimentConfig::builder()
                    .n(64)
                    .t(31)
                    .faults(15, FaultPlacement::Spread)
                    .budget(64, ErrorPlacement::Uniform)
                    .pipeline(Pipeline::Auth)
                    .inputs(InputPattern::Split)
                    .adversary(AdversaryKind::Silent)
                    .build(),
                seed,
            ),
            Workload::ReplayFlood => Plan::single(
                ExperimentConfig::builder()
                    .n(96)
                    .t(31)
                    .faults(15, FaultPlacement::Spread)
                    .pipeline(Pipeline::PhaseKing)
                    .inputs(InputPattern::Split)
                    .adversary(AdversaryKind::Replay)
                    .build(),
                seed,
            ),
            Workload::Grid => {
                let grid = grid(seed);
                Plan {
                    cells: grid.configs(),
                    seeds: grid.seeds,
                }
            }
        }
    }

    /// Whether the traced run builds this workload's sessions by hand
    /// (wrapping every process and the adversary in timing adapters) or
    /// stops its spans at the experiment / build / run level.
    pub fn hand_built(self) -> bool {
        !matches!(self, Workload::Grid)
    }

    /// The counts every experiment of this workload must produce, for
    /// the workloads whose counts do not depend on the seed. `grid` has
    /// none: its seed changes the prediction matrices and so the
    /// traffic (seed 0 is checked against `BENCH_baseline.json`).
    pub fn expected(self) -> Option<Counts> {
        match self {
            Workload::AuthSilent => Some(Counts {
                rounds: 46,
                honest_envelopes: 109_941,
                faulty_envelopes: 0,
                honest_bytes: 2_607_405_651,
                faulty_bytes: 0,
            }),
            Workload::ReplayFlood => Some(Counts {
                rounds: 16,
                honest_envelopes: 69_445,
                faulty_envelopes: 6_666_720,
                honest_bytes: 833_150,
                faulty_bytes: 79_982_400,
            }),
            Workload::Grid => None,
        }
    }
}

/// The axes of `SweepGrid::bench_default()`, restated here so that an
/// edit of the library's grid cannot silently change this workload.
/// Seed `s` runs seeds `3s .. 3s + 3` in every cell; seed 0 is the
/// committed baseline grid.
pub fn grid(seed: u64) -> SweepGrid {
    let first = seed.wrapping_mul(3);
    SweepGrid::new(
        ExperimentConfig::builder()
            .n(16)
            .faults(2, FaultPlacement::Spread)
            .build(),
    )
    .ns([13, 16, 24])
    .budgets([0, 16, 64])
    .fs([0, 2, 4])
    .pipelines(Pipeline::ALL)
    .seeds((0..3).map(|i| first.wrapping_add(i)))
}

/// A pass's work: every cell runs every seed, cell by cell.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Cell configurations (their `seed` field is overridden per run).
    pub cells: Vec<ExperimentConfig>,
    /// Seeds run in every cell.
    pub seeds: Vec<u64>,
}

impl Plan {
    fn single(cfg: ExperimentConfig, seed: u64) -> Self {
        Plan {
            cells: vec![cfg.with_seed(seed)],
            seeds: vec![seed],
        }
    }

    /// Every experiment of one pass, in pass order.
    pub fn experiments(&self) -> Vec<ExperimentConfig> {
        self.cells
            .iter()
            .flat_map(|c| self.seeds.iter().map(|&s| c.clone().with_seed(s)))
            .collect()
    }
}

/// Deterministic work counts of one experiment, from its round traces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Rounds the runner executed.
    pub rounds: u64,
    /// Remote envelopes sent by honest processes.
    pub honest_envelopes: u64,
    /// Remote envelopes sent by the adversary.
    pub faulty_envelopes: u64,
    /// Modelled wire bytes of honest envelopes.
    pub honest_bytes: u64,
    /// Modelled wire bytes of faulty envelopes.
    pub faulty_bytes: u64,
}

impl Counts {
    fn of(report: &RunReport<Value>) -> Self {
        let mut c = Counts {
            rounds: report.rounds_executed,
            ..Counts::default()
        };
        for r in &report.rounds {
            c.honest_envelopes += r.honest_messages;
            c.faulty_envelopes += r.faulty_messages;
            c.honest_bytes += r.honest_bytes;
            c.faulty_bytes += r.faulty_bytes;
        }
        c
    }

    /// Remote envelopes delivered, honest plus faulty.
    pub fn envelopes(&self) -> u64 {
        self.honest_envelopes + self.faulty_envelopes
    }

    fn add(&mut self, o: &Counts) {
        self.rounds += o.rounds;
        self.honest_envelopes += o.honest_envelopes;
        self.faulty_envelopes += o.faulty_envelopes;
        self.honest_bytes += o.honest_bytes;
        self.faulty_bytes += o.faulty_bytes;
    }
}

/// One timed experiment.
#[derive(Clone, Debug)]
pub struct Record {
    /// The experiment's outcome.
    pub outcome: ExperimentOutcome,
    /// Work counts from the round traces (`None` in [`Mode::Plain`],
    /// where the library's `ExperimentConfig::run` hides the report).
    pub counts: Option<Counts>,
    /// Nanoseconds for the whole experiment.
    pub total_ns: u64,
}

/// How a pass runs and records an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: each experiment is one timed
    /// `ExperimentConfig::run`.
    Plain,
    /// The steps of `ExperimentConfig::run` restated, with spans at
    /// experiment / generators / build / run / k_A level, through the
    /// library's driver.
    Driver,
    /// Sessions built by hand from the public constructors, with every
    /// process and the adversary wrapped in timing adapters.
    Hand,
}

/// The result of one cell of a pass.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// One record per seed.
    pub records: Vec<Record>,
    /// The cell's seed-aggregated summary, as `sweep_grid` reports it.
    pub point: GridPoint,
    /// Nanoseconds the cell took, summary included.
    pub cell_ns: u64,
    /// The clock gauge while the cell ran: the mean of the readings just
    /// before and just after it.
    pub gauge_ns: u64,
}

/// One pass over a plan.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Wall nanoseconds of the whole pass.
    pub wall_ns: u64,
    /// Per-cell results, in plan order.
    pub cells: Vec<CellRun>,
    /// Spans (empty in [`Mode::Plain`]).
    pub spans: Vec<Span>,
    /// Span-site counters (empty in [`Mode::Plain`]).
    pub counters: BTreeMap<&'static str, u64>,
}

impl Pass {
    /// Every record, in plan order.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.cells.iter().flat_map(|c| c.records.iter())
    }
}

/// Runs every cell of `plan` on the calling thread, in the order and
/// with the per-cell summaries of `sweep_grid_serial`.
pub fn run_pass(plan: &Plan, mode: Mode) -> Pass {
    let start = Instant::now();
    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(start)));
    let mut before = clock::gauge_ns();
    let cells = plan
        .cells
        .iter()
        .map(|cfg| {
            let mut cell = run_cell(cfg, &plan.seeds, mode, &tracer);
            let after = clock::gauge_ns();
            cell.gauge_ns = (before + after) / 2;
            before = after;
            cell
        })
        .collect();
    let wall_ns = nanos_since(start);
    let (spans, counters) = Rc::try_unwrap(tracer)
        .expect("the pass's tracer has no other owner")
        .into_inner()
        .finish();
    Pass {
        wall_ns,
        cells,
        spans,
        counters,
    }
}

fn run_cell(cfg: &ExperimentConfig, seeds: &[u64], mode: Mode, tracer: &SharedTracer) -> CellRun {
    let start = Instant::now();
    let records: Vec<Record> = seeds
        .iter()
        .map(|&seed| {
            let cfg = cfg.clone().with_seed(seed);
            match mode {
                Mode::Plain => run_timed(&cfg),
                Mode::Driver | Mode::Hand => run_traced(&cfg, tracer, mode == Mode::Hand),
            }
        })
        .collect();
    let outcomes: Vec<ExperimentOutcome> = records.iter().map(|r| r.outcome).collect();
    let point = GridPoint {
        n: cfg.n,
        t: cfg.t,
        f: cfg.f,
        budget: cfg.budget,
        pipeline: cfg.pipeline,
        summary: summarize(&outcomes),
    };
    CellRun {
        records,
        point,
        cell_ns: nanos_since(start),
        gauge_ns: 0,
    }
}

/// What the experiment engine derives from a report (restates
/// `ExperimentConfig::run`, which the checks compare against).
fn outcome(
    cfg: &ExperimentConfig,
    report: &RunReport<Value>,
    b_actual: usize,
    k_a: usize,
) -> ExperimentOutcome {
    let validity_ok = match cfg.inputs {
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

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The fault set and prediction matrix `ExperimentConfig::run`
/// generates.
fn generate(cfg: &ExperimentConfig) -> (BTreeSet<ProcessId>, PredictionMatrix) {
    let faulty = faults(cfg.n, cfg.f, cfg.fault_placement);
    let matrix = predictions_with_budget(cfg.n, &faulty, cfg.budget, cfg.placement, cfg.seed);
    (faulty, matrix)
}

fn spec<'a>(
    cfg: &ExperimentConfig,
    faulty: &'a BTreeSet<ProcessId>,
    matrix: &'a PredictionMatrix,
) -> SessionSpec<'a> {
    SessionSpec {
        n: cfg.n,
        t: cfg.t,
        faulty,
        matrix,
        inputs: cfg.inputs,
        adversary: cfg.adversary,
        seed: cfg.seed,
    }
}

/// What the set-up of `ExperimentConfig::run` leaves behind.
type Built = (
    BTreeSet<ProcessId>,
    PredictionMatrix,
    usize,
    Box<dyn ErasedSession>,
);

/// The set-up `ExperimentConfig::run` performs before it runs the
/// session: fault set, prediction matrix and its error count,
/// `ProtocolDriver::build`.
fn set_up(cfg: &ExperimentConfig) -> Built {
    let (faulty, matrix) = generate(cfg);
    let b_actual = matrix.total_errors(&faulty);
    let session = cfg.pipeline.driver().build(&spec(cfg, &faulty, &matrix));
    (faulty, matrix, b_actual, session)
}

/// One experiment, as a user runs it: one timed
/// `ExperimentConfig::run`. The outcome carries no round traces, so the
/// record has no counts; they come from the [`Reference`].
pub fn run_timed(cfg: &ExperimentConfig) -> Record {
    let start = Instant::now();
    let outcome = cfg.run();
    Record {
        outcome,
        counts: None,
        total_ns: nanos_since(start),
    }
}

/// One set-up sample, in seconds at the reference clock: every
/// experiment of a pass is set up (serially, without running it) at
/// least `min_reps` times and until `budget` is spent, and the sample
/// sums each experiment's fastest set-up. Each result is dropped
/// outside the timed region, so one session at a time is alive.
pub fn setup_sample(plan: &Plan, min_reps: usize, budget: Duration) -> f64 {
    let experiments = plan.experiments();
    let mut fastest_ns = vec![u64::MAX; experiments.len()];
    let before = clock::gauge_ns();
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed() < budget {
        for (cfg, best) in experiments.iter().zip(&mut fastest_ns) {
            let rep = Instant::now();
            let built = set_up(cfg);
            *best = (*best).min(nanos_since(rep));
            drop(black_box(built));
        }
        reps += 1;
    }
    let gauge = (before + clock::gauge_ns()) / 2;
    clock::at_reference_clock(fastest_ns.iter().sum(), gauge) / 1e9
}

/// One experiment with the steps of `ExperimentConfig::run` restated
/// and spanned: experiment → generators / driver.build / session.run /
/// probes.k_a. With `hand`, the session is built from the public
/// constructors and each round is traced down to `process.step` and
/// `adversary.act`.
pub fn run_traced(cfg: &ExperimentConfig, tracer: &SharedTracer, hand: bool) -> Record {
    let start = Instant::now();
    let experiment = tracer.borrow_mut().enter("experiment");
    let driver = cfg.pipeline.driver();
    let (faulty, matrix) = tracer.borrow_mut().span("generators", || generate(cfg));
    let b_actual = matrix.total_errors(&faulty);
    let spec = spec(cfg, &faulty, &matrix);
    let max_rounds = driver.max_rounds(cfg.n, cfg.t);
    let (report, probes) = if hand {
        match (cfg.pipeline, cfg.adversary) {
            (Pipeline::Auth, AdversaryKind::Silent) => {
                let build = tracer.borrow_mut().enter("driver.build");
                let mut runner = hand_auth(&spec, tracer);
                tracer.borrow_mut().exit(build);
                let report = drive(&mut runner, max_rounds, tracer);
                let probes = spec
                    .honest_slots()
                    .filter_map(|(_, id)| {
                        let p = runner.process(id)?.inner().classification()?;
                        Some((id, bits_of(p)))
                    })
                    .collect();
                (report, probes)
            }
            (Pipeline::PhaseKing, AdversaryKind::Replay) => {
                let build = tracer.borrow_mut().enter("driver.build");
                let mut runner = hand_king(&spec, tracer);
                tracer.borrow_mut().exit(build);
                (drive(&mut runner, max_rounds, tracer), Vec::new())
            }
            other => panic!("no hand-built session for {other:?}"),
        }
    } else {
        let mut session = tracer
            .borrow_mut()
            .span("driver.build", || driver.build(&spec));
        let report = tracer
            .borrow_mut()
            .span("session.run", || session.run(max_rounds));
        (report, session.probes())
    };
    let k_a = tracer.borrow_mut().span("probes.k_a", || {
        if driver.uses_predictions() {
            k_a_from_probes(cfg.n, &faulty, &probes)
        } else {
            0
        }
    });
    tracer.borrow_mut().exit(experiment);
    Record {
        outcome: outcome(cfg, &report, b_actual, k_a),
        counts: Some(Counts::of(&report)),
        total_ns: nanos_since(start),
    }
}

fn bits_of(c: &BitVec) -> Vec<bool> {
    (0..c.len()).map(|i| c.get(i)).collect()
}

type Traced<P, A> = Runner<Timed<P>, TimedAdversary<A>>;

/// The auth-wrapper session `AuthWrapperDriver` builds for a silent
/// adversary, with timing adapters around every process.
fn hand_auth(
    spec: &SessionSpec<'_>,
    tracer: &SharedTracer,
) -> Traced<AuthWrapper, SilentAdversary> {
    let pki = Arc::new(Pki::new(spec.n, spec.seed ^ 0x91c1));
    let honest: BTreeMap<ProcessId, Timed<AuthWrapper>> = spec
        .honest_slots()
        .map(|(slot, id)| {
            let p = AuthWrapper::new(
                id,
                spec.n,
                spec.t,
                spec.input_for(slot),
                spec.matrix.row(id).clone(),
                Arc::clone(&pki),
                pki.signing_key(id.0),
            );
            (id, Timed::new(p, Rc::clone(tracer)))
        })
        .collect();
    let adversary = TimedAdversary::new(SilentAdversary, Rc::clone(tracer));
    Runner::with_ids(spec.n, honest, adversary)
}

type King = MapOutput<PhaseKing, fn(&PhaseKingOutput) -> Value>;

/// The phase-king session `PhaseKingDriver` builds for the replay
/// adversary, with timing adapters around every process and the
/// adversary.
fn hand_king(
    spec: &SessionSpec<'_>,
    tracer: &SharedTracer,
) -> Traced<King, ReplayAdversary<PhaseKingMsg>> {
    fn decided(o: &PhaseKingOutput) -> Value {
        o.decision.unwrap_or(o.value)
    }
    let honest: BTreeMap<ProcessId, Timed<King>> = spec
        .honest_slots()
        .map(|(slot, id)| {
            let p = MapOutput::new(
                PhaseKing::full(id, spec.n, spec.t, spec.input_for(slot)),
                decided as fn(&PhaseKingOutput) -> Value,
            );
            (id, Timed::new(p, Rc::clone(tracer)))
        })
        .collect();
    let adversary = TimedAdversary::new(ReplayAdversary::new(1), Rc::clone(tracer));
    Runner::with_ids(spec.n, honest, adversary)
}

/// `Runner::run`, one traced `Runner::step` at a time.
fn drive<P, A>(
    runner: &mut Traced<P, A>,
    max_rounds: u64,
    tracer: &SharedTracer,
) -> RunReport<Value>
where
    P: Process<Output = Value>,
    A: Adversary<P::Msg>,
{
    let run = tracer.borrow_mut().enter("session.run");
    for _ in 0..max_rounds {
        let round = tracer.borrow_mut().enter("round");
        let live = runner.step();
        tracer.borrow_mut().exit(round);
        if !live {
            break;
        }
    }
    let report = runner.report().clone();
    tracer.borrow_mut().exit(run);
    report
}

/// The benchmark's own answer for every experiment of a pass: outcome
/// and counts from one untimed [`Mode::Driver`] pass, plus the per-cell
/// summaries `sweep_grid` would report.
#[derive(Clone, Debug)]
pub struct Reference {
    /// One outcome per experiment, in plan order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// One set of counts per experiment, in plan order.
    pub counts: Vec<Counts>,
    /// One summary per cell, in plan order.
    pub points: Vec<GridPoint>,
}

impl Reference {
    /// Runs every experiment of `plan` once, serially, through the
    /// library's driver.
    pub fn compute(plan: &Plan) -> Self {
        let pass = run_pass(plan, Mode::Driver);
        Reference {
            outcomes: pass.records().map(|r| r.outcome).collect(),
            counts: pass
                .records()
                .map(|r| r.counts.expect("driver passes count"))
                .collect(),
            points: pass.cells.into_iter().map(|c| c.point).collect(),
        }
    }

    /// Whether the reference holds together: every experiment's honest
    /// envelope and byte totals from its round traces equal its
    /// outcome's, and with `expected`, every experiment has exactly
    /// those counts.
    pub fn consistent(&self, expected: Option<Counts>) -> bool {
        self.outcomes.iter().zip(&self.counts).all(|(o, c)| {
            c.honest_envelopes == o.messages_total
                && c.honest_bytes == o.bytes_total
                && expected.is_none_or(|e| e == *c)
        })
    }

    /// Summed counts of every experiment of a pass.
    pub fn total(&self) -> Counts {
        let mut total = Counts::default();
        for c in &self.counts {
            total.add(c);
        }
        total
    }
}

/// Checks one pass against the reference. An experiment fails unless it
/// kept agreement, validity and termination, reproduced the reference
/// outcome and (when it has counts) the reference counts; a cell whose
/// summary differs from the reference fails all its experiments.
/// Returns the number of failed experiments.
pub fn failures(pass: &Pass, reference: &Reference) -> usize {
    let mut failed = 0;
    let mut i = 0;
    for (cell, want_point) in pass.cells.iter().zip(&reference.points) {
        let cell_ok = cell.point == *want_point;
        for rec in &cell.records {
            let ok = cell_ok
                && rec.outcome.agreement
                && rec.outcome.validity_ok
                && rec.outcome.rounds.is_some()
                && rec.outcome == reference.outcomes[i]
                && rec.counts.is_none_or(|c| c == reference.counts[i]);
            failed += usize::from(!ok);
            i += 1;
        }
    }
    failed
}
