//! Golden fingerprint of every family under every adversary kind.
//!
//! `BENCH_baseline.json` gates only silent runs, so it cannot notice a
//! family being handed the wrong `Disruptor` or liar. This test pins
//! `(rounds, messages, bytes_total, agreement, k_a)` for every
//! `Pipeline::ALL` family × {Silent, `ClassifyLiar(RandomPerRecipient)`,
//! Replay, Disruptor} at n = 16, f = t/2 + 1, B = 20, seed 7, plus the
//! faulty messages and bytes the adversary put on the wire. Honest
//! counts alone cannot tell some adversaries apart (the unauthenticated
//! wrapper's schedule is fixed), but the faulty traffic can. Every run
//! is deterministic, so any drift is a change in which adversary (or
//! protocol) a family runs against.

use ba_predictions::ba_workloads::driver::SessionSpec;
use ba_predictions::ba_workloads::Pipeline as P;
use ba_predictions::prelude::*;
use AdversaryKind::{Disruptor, Replay, Silent};

const LIAR: AdversaryKind = AdversaryKind::ClassifyLiar(LiarStyle::RandomPerRecipient);
const ADVERSARIES: [AdversaryKind; 4] = [Silent, LIAR, Replay, Disruptor];

/// `(rounds, messages, bytes_total, agreement, k_a, faulty_messages,
/// faulty_bytes)` per run.
type Fingerprint = (Option<u64>, u64, u64, bool, usize, u64, u64);

fn fingerprint(pipeline: Pipeline, adversary: AdversaryKind) -> Fingerprint {
    let n = 16;
    let t = pipeline.driver().max_faults(n);
    let cfg = ExperimentConfig::builder()
        .n(n)
        .t(t)
        .faults(t / 2 + 1, FaultPlacement::Spread)
        .budget(20, ErrorPlacement::Uniform)
        .pipeline(pipeline)
        .adversary(adversary)
        .seed(7)
        .build();
    let out = cfg.run();

    // The same session once more, for the faulty traffic the outcome
    // does not carry.
    let faulty = faults(n, cfg.f, cfg.fault_placement);
    let matrix = predictions_with_budget(n, &faulty, cfg.budget, cfg.placement, cfg.seed);
    let spec = SessionSpec {
        n,
        t,
        faulty: &faulty,
        matrix: &matrix,
        inputs: cfg.inputs,
        adversary,
        seed: cfg.seed,
    };
    let driver = pipeline.driver();
    let report = driver.build(&spec).run(driver.max_rounds(n, t));
    let faulty_messages = report.rounds.iter().map(|r| r.faulty_messages).sum();
    let faulty_bytes = report.rounds.iter().map(|r| r.faulty_bytes).sum();

    (
        out.rounds,
        out.messages,
        out.bytes_total,
        out.agreement,
        out.k_a,
        faulty_messages,
        faulty_bytes,
    )
}

/// One row per `Pipeline::ALL` × `ADVERSARIES` case, in that order.
#[rustfmt::skip]
const GOLDEN: [(Pipeline, AdversaryKind, Fingerprint); 32] = [
    (P::Unauth,              Silent,    (Some(37), 3555, 92100, true, 0, 0, 0)),
    (P::Unauth,              LIAR,      (Some(37), 3555, 92100, true, 0, 45, 315)),
    (P::Unauth,              Replay,    (Some(37), 3555, 92100, true, 0, 100800, 1473600)),
    (P::Unauth,              Disruptor, (Some(37), 3555, 92100, true, 0, 1443, 22297)),
    (P::Auth,                Silent,    (Some(22), 3408, 12566472, true, 0, 0, 0)),
    (P::Auth,                LIAR,      (Some(22), 3408, 12566472, true, 0, 60, 420)),
    (P::Auth,                Replay,    (Some(22), 3408, 12566472, true, 0, 108000, 201064320)),
    (P::Auth,                Disruptor, (Some(22), 3408, 12642792, true, 0, 370, 15888)),
    (P::PhaseKing,           Silent,    (Some(15), 1785, 21390, true, 0, 0, 0)),
    (P::PhaseKing,           LIAR,      (Some(15), 1785, 21390, true, 0, 0, 0)),
    (P::PhaseKing,           Replay,    (Some(15), 1785, 21390, true, 0, 28560, 342240)),
    (P::PhaseKing,           Disruptor, (Some(15), 1785, 21390, true, 0, 28560, 342240)),
    (P::TruncatedDolevStrong,Silent,    (Some(8), 360, 122940, true, 0, 0, 0)),
    (P::TruncatedDolevStrong,LIAR,      (Some(8), 360, 122940, true, 0, 0, 0)),
    (P::TruncatedDolevStrong,Replay,    (Some(8), 360, 122940, true, 0, 5760, 1967040)),
    (P::TruncatedDolevStrong,Disruptor, (Some(8), 360, 122940, true, 0, 5760, 1967040)),
    (P::CommEff,             Silent,    (Some(4), 310, 2885, true, 12, 0, 0)),
    (P::CommEff,             LIAR,      (Some(4), 310, 2885, true, 12, 0, 0)),
    (P::CommEff,             Replay,    (Some(4), 310, 2885, true, 12, 4980, 46350)),
    (P::CommEff,             Disruptor, (Some(4), 310, 2885, true, 12, 4980, 46350)),
    (P::Resilient,           Silent,    (Some(11), 1590, 19470, true, 0, 0, 0)),
    (P::Resilient,           LIAR,      (Some(26), 2805, 35220, true, 0, 45, 315)),
    (P::Resilient,           Replay,    (Some(11), 1590, 19470, true, 0, 25440, 311520)),
    (P::Resilient,           Disruptor, (Some(11), 1590, 19470, true, 0, 243, 2889)),
    (P::CommEffSigned,       Silent,    (Some(5), 505, 92875, true, 12, 0, 0)),
    (P::CommEffSigned,       LIAR,      (Some(5), 505, 92875, true, 12, 0, 0)),
    (P::CommEffSigned,       Replay,    (Some(5), 505, 92875, true, 12, 8100, 1486590)),
    (P::CommEffSigned,       Disruptor, (Some(16), 1825, 27805, true, 12, 1642, 57474)),
    (P::ResilientSigned,     Silent,    (Some(12), 1785, 90255, true, 0, 0, 0)),
    (P::ResilientSigned,     LIAR,      (Some(12), 1785, 105465, true, 0, 45, 1215)),
    (P::ResilientSigned,     Replay,    (Some(12), 1785, 90255, true, 0, 28560, 1444080)),
    (P::ResilientSigned,     Disruptor, (Some(12), 1785, 105465, true, 0, 243, 3789)),
];

#[test]
fn every_family_meets_every_adversary_kind_as_pinned() {
    let cases: Vec<(Pipeline, AdversaryKind)> = Pipeline::ALL
        .into_iter()
        .flat_map(|p| ADVERSARIES.map(|a| (p, a)))
        .collect();
    assert_eq!(cases.len(), GOLDEN.len(), "one golden row per case");
    for ((pipeline, adversary), &(p, a, expected)) in cases.into_iter().zip(&GOLDEN) {
        assert_eq!((pipeline, adversary), (p, a), "golden rows out of order");
        assert_eq!(
            fingerprint(pipeline, adversary),
            expected,
            "{pipeline:?} under {adversary:?}"
        );
    }
}
