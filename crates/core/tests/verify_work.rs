//! Deterministic work counters of the simulated PKI on one hand-built
//! authenticated-wrapper session: how many signature checks the
//! protocol asks for, how many MACs the verification memo leaves to
//! compute, how many times the memo is probed by message bytes, and how
//! many checks a sealed signature answers without the memo.

use ba_core::{AuthWrapper, PredictionMatrix};
use ba_crypto::{Pki, VerifyCounts};
use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Runs auth-wrapper at n = 16, t = 7 with three silent faulty
/// processes, split inputs and perfect predictions, and returns the
/// PKI's counters.
fn auth_wrapper_counts() -> VerifyCounts {
    let (n, t) = (16, 7);
    let faulty: BTreeSet<ProcessId> = [2, 7, 11].into_iter().map(ProcessId).collect();
    let matrix = PredictionMatrix::perfect(n, &faulty);
    let pki = Arc::new(Pki::new(n, 0x5eed));
    let honest: BTreeMap<ProcessId, AuthWrapper> = ProcessId::all(n)
        .filter(|id| !faulty.contains(id))
        .enumerate()
        .map(|(slot, id)| {
            let p = AuthWrapper::new(
                id,
                n,
                t,
                Value((slot % 2) as u64),
                matrix.row(id).clone(),
                Arc::clone(&pki),
                pki.signing_key(id.0),
            );
            (id, p)
        })
        .collect();
    let mut runner = Runner::with_ids(n, honest, SilentAdversary);
    let report = runner.run(AuthWrapper::schedule(n, t).total_steps + 4);
    assert!(report.agreement(), "the session must agree");
    assert!(report.decision().is_some(), "the session must decide");
    pki.verify_counts()
}

#[test]
fn verify_counts_are_pinned_and_the_memo_absorbs_repeats() {
    let counts = auth_wrapper_counts();
    // Gradecast's echoes and confirms are sealed as they are signed, so
    // their first recipients answer from the seal too: 1,404 of the
    // 1,620 MACs a first check used to compute, and 1,872 memo hits,
    // became seal hits. Calls and probes by bytes are unchanged: signing
    // probes the index where the first check on the same statement did.
    assert_eq!(
        counts,
        VerifyCounts {
            calls: 21_378,
            macs: 216,
            lookups: 3_754,
            sealed: 18_252
        }
    );
    assert!(
        counts.macs * 10 < counts.calls,
        "the memo should answer most checks: {counts:?}"
    );
    assert!(
        counts.lookups * 5 < counts.calls,
        "statements should find their memo slot once, not per signature: {counts:?}"
    );
    assert!(
        counts.sealed * 2 > counts.calls,
        "seals should answer the repeat checks of shared echoes and confirms: {counts:?}"
    );
}
