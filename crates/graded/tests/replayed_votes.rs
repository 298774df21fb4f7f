//! Pinned work of a small authenticated graded consensus under replay.
//!
//! Two faulty processes replay every honest payload a round or two
//! late, so echoes, confirms and certificates arrive again after their
//! quorum filled and after their certificate formed. The outputs, the
//! signature checks the protocol asks for and the memo probes by bytes
//! are pinned: a vote list that has gone into a certificate must skip
//! exactly the late signatures that a full list skips.

use ba_crypto::Pki;
use ba_graded::{AuthGraded, Graded};
use ba_sim::{ProcessId, ReplayAdversary, Runner, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Runs n = 7, t = 3 with p2 and p5 replaying at `delay`, honest inputs
/// 1, 1, 0, 1, 1 in id order. Returns the outputs in id order, and the
/// PKI's check calls and memo lookups.
fn replayed_session(delay: usize) -> (Vec<Graded>, u64, u64) {
    let (n, t) = (7, 3);
    let pki = Arc::new(Pki::new(n, 0xab));
    let honest: BTreeMap<ProcessId, AuthGraded> = [(0, 1), (1, 1), (3, 0), (4, 1), (6, 1)]
        .into_iter()
        .map(|(id, input)| {
            let me = ProcessId(id);
            let p = AuthGraded::new(
                me,
                n,
                t,
                5,
                Value(input),
                Arc::clone(&pki),
                pki.signing_key(id),
            );
            (me, p)
        })
        .collect();
    let mut runner = Runner::with_ids(n, honest, ReplayAdversary::new(delay));
    let report = runner.run(AuthGraded::ROUNDS + 1);
    assert!(report.all_decided());
    assert!(
        report.rounds.iter().any(|r| r.faulty_messages > 0),
        "the replayer must send"
    );
    let counts = pki.verify_counts();
    let outputs = report.outputs.into_values().collect();
    (outputs, counts.calls, counts.lookups)
}

#[test]
fn replayed_votes_and_certificates_keep_pinned_work() {
    let strong = Graded::new(Value(1), 2);
    // Recorded while certificates still copied their vote lists: a spent
    // list must skip exactly what a full one skipped.
    for (delay, calls, lookups) in [(1, 225, 75), (2, 225, 75)] {
        let (outputs, got_calls, got_lookups) = replayed_session(delay);
        assert_eq!(outputs, vec![strong; 5], "delay {delay}");
        assert_eq!((got_calls, got_lookups), (calls, lookups), "delay {delay}");
    }
}
