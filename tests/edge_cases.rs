//! Edge-of-parameter-space integration tests: minimal systems, zero
//! tolerance, saturated budgets, extreme fault counts, and mid-run
//! crash injection. These are the configurations where off-by-one
//! errors in quorum thresholds, block layouts, and schedule arithmetic
//! would surface.

use ba_core::{AuthWrapper, BitVec, PredictionMatrix, UnauthWrapper};
use ba_crypto::Pki;
use ba_predictions::prelude::*;
use ba_sim::CrashAdversary;
use ba_workloads::UnauthDisruptor;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[test]
fn minimal_unauth_system_n4_t1() {
    // The smallest system with Byzantine tolerance: n = 4, t = 1.
    for f in [0usize, 1] {
        let mut cfg = ExperimentConfig::new(4, 1, f, 4, Pipeline::Unauth);
        cfg.inputs = InputPattern::Unanimous(2);
        let out = cfg.run();
        assert!(out.validity_ok, "n=4 t=1 f={f}");
    }
}

#[test]
fn minimal_auth_system_n3_t1() {
    // Authenticated: n = 3, t = 1 (impossible without signatures).
    for f in [0usize, 1] {
        let mut cfg = ExperimentConfig::new(3, 1, f, 2, Pipeline::Auth);
        cfg.inputs = InputPattern::Unanimous(6);
        let out = cfg.run();
        assert!(out.validity_ok, "n=3 t=1 f={f}");
    }
}

#[test]
fn zero_tolerance_still_terminates() {
    // t = 0: one phase, no faults allowed, trivial agreement — for every
    // family, down to n = 1, the only size where 3t < n but t + 2 > n
    // (the resilient schedules must wrap identifiers there).
    for pipeline in Pipeline::ALL {
        for n in [1, 2, 5] {
            let mut cfg = ExperimentConfig::new(n, 0, 0, 0, pipeline);
            cfg.inputs = InputPattern::Unanimous(1);
            let out = cfg.run();
            assert!(out.agreement, "{pipeline:?} n={n} t=0");
            assert!(out.validity_ok, "{pipeline:?} n={n} t=0");
        }
    }
}

#[test]
fn budget_saturation_beyond_matrix_capacity() {
    // B requested far beyond n² bits: generators must saturate, the
    // wrapper must still agree.
    let mut cfg = ExperimentConfig::new(13, 4, 4, 10_000, Pipeline::Unauth);
    cfg.placement = ErrorPlacement::Concentrated;
    let out = cfg.run();
    assert!(out.agreement);
    assert!(out.b_actual <= 13 * 13);
}

#[test]
fn single_honest_survivor_auth() {
    // n = 3, t = 1, f = 1: two honest remain; n − t = 2 quorums must
    // still be reachable by the two honest processes.
    let mut cfg = ExperimentConfig::new(3, 1, 1, 0, Pipeline::Auth);
    cfg.inputs = InputPattern::Unanimous(9);
    let out = cfg.run();
    assert!(out.validity_ok);
}

#[test]
fn crash_mid_run_after_active_disruption() {
    // Failure injection: the coalition disrupts for 40 rounds, then
    // crashes mid-broadcast (delivering only to low identifiers).
    // Safety and liveness must survive the behavioral switch.
    let n = 16;
    let t = 5;
    let f = 4;
    let faulty: BTreeSet<ProcessId> = (0..f as u32).map(ProcessId).collect();
    let matrix = PredictionMatrix::perfect(n, &faulty);
    let honest: BTreeMap<ProcessId, UnauthWrapper> = ProcessId::all(n)
        .filter(|p| !faulty.contains(p))
        .enumerate()
        .map(|(slot, id)| {
            (
                id,
                UnauthWrapper::new(
                    id,
                    n,
                    t,
                    Value(1 + (slot % 2) as u64),
                    matrix.row(id).clone(),
                ),
            )
        })
        .collect();
    let disruptor = UnauthDisruptor::new(n, t, faulty.iter().copied().collect());
    let adversary = CrashAdversary::new(disruptor, 40, 8);
    let budget = UnauthWrapper::schedule(n, t).total_steps + 4;
    let mut runner = ba_sim::Runner::with_ids(n, honest, adversary);
    let report = runner.run(budget);
    assert!(report.agreement(), "crash-after-disruption broke agreement");
}

#[test]
fn all_zero_and_all_one_predictions_coexist() {
    // Half the honest processes trust everyone, half trust no one — the
    // most divergent prediction split. Classification voting must still
    // produce agreement-compatible orderings.
    let n = 12;
    let t = 3;
    let rows: Vec<BitVec> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                BitVec::ones(n)
            } else {
                BitVec::zeros(n)
            }
        })
        .collect();
    let matrix = PredictionMatrix::from_rows(rows);
    let honest: BTreeMap<ProcessId, UnauthWrapper> = ProcessId::all(n)
        .take(n - 2)
        .enumerate()
        .map(|(slot, id)| {
            (
                id,
                UnauthWrapper::new(
                    id,
                    n,
                    t,
                    Value(1 + (slot % 2) as u64),
                    matrix.row(id).clone(),
                ),
            )
        })
        .collect();
    let budget = UnauthWrapper::schedule(n, t).total_steps + 4;
    let mut runner = ba_sim::Runner::with_ids(n, honest, ba_sim::SilentAdversary);
    let report = runner.run(budget);
    assert!(report.agreement());
}

#[test]
fn wrapper_survives_maximum_tolerated_faults_both_pipelines() {
    // f = t exactly, split inputs, worst-case adversary.
    let mut unauth = ExperimentConfig::new(16, 5, 5, 64, Pipeline::Unauth);
    unauth.adversary = AdversaryKind::Disruptor;
    unauth.fault_placement = FaultPlacement::Head;
    unauth.placement = ErrorPlacement::TrustedFaults;
    let out = unauth.run();
    assert!(out.agreement, "unauth f=t");

    let mut auth = ExperimentConfig::new(13, 6, 6, 64, Pipeline::Auth);
    auth.adversary = AdversaryKind::Disruptor;
    auth.fault_placement = FaultPlacement::Head;
    auth.placement = ErrorPlacement::TrustedFaults;
    let out = auth.run();
    assert!(out.agreement, "auth f=t (t < n/2)");
}

#[test]
fn auth_wrapper_with_tiny_committee_prefix() {
    // n barely above 2k+1 at phase 1: committee voting degenerates to
    // nearly the whole system; certificates must still form.
    let n = 4;
    let t = 1;
    let faulty: BTreeSet<ProcessId> = BTreeSet::new();
    let pki = Arc::new(Pki::new(n, 9));
    let matrix = PredictionMatrix::perfect(n, &faulty);
    let honest: BTreeMap<ProcessId, AuthWrapper> = ProcessId::all(n)
        .map(|id| {
            (
                id,
                AuthWrapper::new(
                    id,
                    n,
                    t,
                    Value(5),
                    matrix.row(id).clone(),
                    Arc::clone(&pki),
                    pki.signing_key(id.0),
                ),
            )
        })
        .collect();
    let budget = AuthWrapper::schedule(n, t).total_steps + 4;
    let mut runner = ba_sim::Runner::with_ids(n, honest, ba_sim::SilentAdversary);
    let report = runner.run(budget);
    assert!(report.agreement());
    assert_eq!(report.decision(), Some(&Value(5)));
}

#[test]
fn repeated_runs_share_no_state() {
    // Two consecutive runs of the same config must not influence each
    // other through globals (there are none — this pins that down).
    let cfg = ExperimentConfig::new(10, 3, 2, 15, Pipeline::Unauth);
    let outs: Vec<_> = (0..3).map(|_| cfg.run()).collect();
    assert!(outs.windows(2).all(|w| w[0].rounds == w[1].rounds));
    assert!(outs.windows(2).all(|w| w[0].messages == w[1].messages));
}
