//! The benchmark's own checks: its helpers give known answers, its
//! hand-built sessions are the driver's sessions, and the seed argument
//! changes nothing but seeds.

use ba_predictions::ba_workloads::{
    grid_to_json, AdversaryKind, ErrorPlacement, ExperimentConfig, FaultPlacement, Pipeline,
    SweepGrid,
};
use perfbench::clock;
use perfbench::stats::{median, percentile, samples_beyond, self_times, Span};
use perfbench::trace::{layer_times, SharedTracer, Tracer};
use perfbench::workload::{
    failures, grid, run_pass, run_timed, run_traced, setup_sample, Counts, Mode, Plan, Reference,
    Workload,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
    }
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let xs = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(median(&xs), Some(2.5));
    assert_eq!(percentile(&xs, 0.0), Some(1.0));
    assert_eq!(percentile(&xs, 100.0), Some(4.0));
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let p98 = percentile(&hundred, 98.0).unwrap();
    assert!((p98 - 98.02).abs() < 1e-9, "got {p98}");
    assert_eq!(samples_beyond(&hundred, 98.0), 2);
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[7.0]), Some(7.0));
}

#[test]
fn self_time_subtracts_the_children() {
    // Nested the way the tracer records a hand-driven session.
    let spans = [
        span("session.run", 0, 100, None),
        span("round", 10, 40, Some(0)),
        span("process.step", 12, 20, Some(1)),
        span("process.step", 21, 30, Some(1)),
        span("adversary.act", 33, 38, Some(1)),
        span("round", 50, 90, Some(0)),
        span("process.step", 50, 90, Some(5)),
    ];
    assert_eq!(self_times(&spans), vec![30, 8, 8, 9, 5, 0, 40]);
    let layers = layer_times(&spans);
    assert_eq!(layers["round"].total, 70);
    assert_eq!(layers["round"].self_time, 8);
    assert_eq!(layers["round"].calls, 2);
    assert_eq!(layers["process.step"].total, 57);
    assert_eq!(layers["session.run"].self_time, 30);
}

#[test]
fn times_scale_to_the_reference_clock() {
    let reference = clock::REFERENCE_NS as u64;
    assert_eq!(clock::at_reference_clock(1_000, reference), 1_000.0);
    assert_eq!(clock::at_reference_clock(1_000, 2 * reference), 500.0);
    assert!(clock::gauge_ns() > 0);
}

#[test]
fn tracer_nests_spans_and_counts() {
    let mut tracer = Tracer::new(Instant::now());
    let outer = tracer.enter("experiment");
    let x = tracer.span("driver.build", || 3);
    tracer.count("process.inbox_envelopes", 5);
    tracer.count("process.inbox_envelopes", 2);
    tracer.exit(outer);
    let (spans, counters) = tracer.finish();
    assert_eq!(x, 3);
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    assert_eq!(counters["process.inbox_envelopes"], 7);
}

#[test]
fn changing_the_seed_changes_only_the_seeds() {
    for w in Workload::ALL {
        let a = w.plan(3);
        let b = w.plan(4);
        let (ea, eb) = (a.experiments(), b.experiments());
        assert_eq!(ea.len(), eb.len(), "{w:?}");
        assert_ne!(a.seeds, b.seeds, "{w:?}: the seed must reach the configs");
        for (x, y) in ea.iter().zip(&eb) {
            assert_ne!(x.seed, y.seed, "{w:?}");
            assert_eq!(
                format!("{:?}", x.clone().with_seed(0)),
                format!("{:?}", y.clone().with_seed(0)),
                "{w:?}: only the seed may differ"
            );
        }
        assert_eq!(
            format!("{:?}", w.plan(3).experiments()),
            format!("{ea:?}"),
            "{w:?}: the same seed gives the same configs"
        );
    }
}

#[test]
fn the_grid_restates_the_library_bench_grid() {
    let ours = grid(0);
    let library = SweepGrid::bench_default();
    assert_eq!(
        format!("{:?}", ours.configs()),
        format!("{:?}", library.configs())
    );
    assert_eq!(ours.seeds, library.seeds);
    assert_eq!(ours.configs().len(), 180);
}

#[test]
fn workloads_have_the_documented_shape() {
    let auth = &Workload::AuthSilent.plan(0).cells[0];
    assert_eq!((auth.n, auth.t, auth.f, auth.budget), (64, 31, 15, 64));
    assert_eq!(auth.pipeline, Pipeline::Auth);
    assert_eq!(auth.adversary, AdversaryKind::Silent);
    let flood = &Workload::ReplayFlood.plan(0).cells[0];
    assert_eq!((flood.n, flood.t, flood.f), (96, 31, 15));
    assert_eq!(flood.pipeline, Pipeline::PhaseKing);
    assert_eq!(flood.adversary, AdversaryKind::Replay);
    assert_eq!(Workload::Grid.plan(0).experiments().len(), 540);
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

fn traced(cfg: &ExperimentConfig, hand: bool) -> (Counts, perfbench::workload::Record) {
    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(Instant::now())));
    let record = run_traced(cfg, &tracer, hand);
    let (spans, counters) = Rc::try_unwrap(tracer).unwrap().into_inner().finish();
    let layers = layer_times(&spans);
    let counts = record.counts.expect("traced runs count");
    assert_eq!(layers["experiment"].calls, 1);
    assert_eq!(layers["session.run"].calls, 1);
    if hand {
        assert_eq!(layers["round"].calls, counts.rounds);
        assert!(layers["process.step"].calls > 0);
        assert!(counters["process.inbox_envelopes"] > 0);
    }
    (counts, record)
}

#[test]
fn hand_built_sessions_reproduce_the_library_outcome() {
    let auth = ExperimentConfig::builder()
        .n(16)
        .faults(5, FaultPlacement::Spread)
        .budget(16, ErrorPlacement::Uniform)
        .pipeline(Pipeline::Auth)
        .build();
    let king = ExperimentConfig::builder()
        .n(19)
        .faults(4, FaultPlacement::Spread)
        .pipeline(Pipeline::PhaseKing)
        .adversary(AdversaryKind::Replay)
        .build();
    for cfg in [auth, king] {
        for seed in 0..3 {
            let cfg = cfg.clone().with_seed(seed);
            let library = cfg.run();
            let (driver_counts, driver) = traced(&cfg, false);
            let (hand_counts, hand) = traced(&cfg, true);
            assert_eq!(driver.outcome, library, "{:?} seed {seed}", cfg.pipeline);
            assert_eq!(hand.outcome, library, "{:?} seed {seed}", cfg.pipeline);
            assert_eq!(hand_counts, driver_counts, "{:?} seed {seed}", cfg.pipeline);
            assert_eq!(run_timed(&cfg).outcome, library);
            assert!(library.agreement && library.rounds.is_some());
        }
    }
}

#[test]
fn replay_sessions_carry_faulty_traffic() {
    let cfg = ExperimentConfig::builder()
        .n(19)
        .faults(4, FaultPlacement::Spread)
        .pipeline(Pipeline::PhaseKing)
        .adversary(AdversaryKind::Replay)
        .build();
    let (counts, _) = traced(&cfg, true);
    assert!(counts.faulty_envelopes > counts.honest_envelopes);
    assert_eq!(counts.honest_envelopes, cfg.run().messages_total);
}

fn small_plan() -> Plan {
    let cfg = ExperimentConfig::builder()
        .n(13)
        .faults(2, FaultPlacement::Spread)
        .budget(16, ErrorPlacement::Uniform)
        .build();
    Plan {
        cells: Pipeline::ALL
            .into_iter()
            .map(|p| {
                let mut c = cfg.clone().with_pipeline(p);
                c.t = p.driver().max_faults(13);
                c
            })
            .collect(),
        seeds: vec![0, 1],
    }
}

#[test]
fn every_mode_passes_the_checks_and_a_wrong_answer_fails_them() {
    let plan = small_plan();
    let reference = Reference::compute(&plan);
    assert!(reference.consistent(None));
    let plain = run_pass(&plan, Mode::Plain);
    assert_eq!(failures(&plain, &reference), 0);
    assert!(plain.records().all(|r| r.counts.is_none()));
    let traced = run_pass(&plan, Mode::Driver);
    assert_eq!(failures(&traced, &reference), 0);
    assert!(traced.spans.iter().any(|s| s.name == "driver.build"));

    let mut wrong = traced.clone();
    wrong.cells[1].records[1]
        .counts
        .as_mut()
        .unwrap()
        .faulty_envelopes += 1;
    assert_eq!(failures(&wrong, &reference), 1);
    let mut bad = plain.clone();
    bad.cells[0].records[1].outcome.k_a += 1;
    assert_eq!(failures(&bad, &reference), 1);
    // A cell summary that disagrees fails every seed of the cell.
    bad.cells[0].point.summary.k_a_mean += 1.0;
    assert_eq!(failures(&bad, &reference), 2);
}

#[test]
fn a_reference_with_other_counts_than_expected_is_inconsistent() {
    let cfg = ExperimentConfig::builder()
        .n(19)
        .faults(4, FaultPlacement::Spread)
        .pipeline(Pipeline::PhaseKing)
        .adversary(AdversaryKind::Replay)
        .build();
    let plan = Plan {
        cells: vec![cfg],
        seeds: vec![5, 6],
    };
    let reference = Reference::compute(&plan);
    let counts = reference.counts[0];
    assert_eq!(
        reference.counts[1], counts,
        "replay counts do not depend on the seed"
    );
    assert!(reference.consistent(Some(counts)));
    let mut fewer = counts;
    fewer.faulty_envelopes -= 1;
    assert!(!reference.consistent(Some(fewer)));
    let mut broken = reference.clone();
    broken.outcomes[1].messages_total += 1;
    assert!(!broken.consistent(None));
}

#[test]
fn a_setup_sample_is_a_positive_time() {
    let plan = small_plan();
    let sample = setup_sample(&plan, 2, std::time::Duration::ZERO);
    assert!(sample > 0.0 && sample < 1.0, "got {sample}");
}

#[test]
fn the_grid_at_seed_zero_is_the_committed_baseline() {
    let plan = Workload::Grid.plan(0);
    let pass = run_pass(&plan, Mode::Plain);
    let points: Vec<_> = pass.cells.iter().map(|c| c.point.clone()).collect();
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCH_baseline.json"
    ))
    .expect("the committed baseline");
    assert_eq!(grid_to_json(&points), baseline.trim_end());
}
