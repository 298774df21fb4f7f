//! The two lanes make the same choices when nobody equivocates.
//!
//! [`Plain`] and [`Certified`] share the committee sampling, steps 0–2
//! and the phase-king fallback of [`CommEffBa`], and differ in how
//! bodies travel and how the fast lane certifies. Against silence or a
//! replay of honest traffic every signature the signed lane checks is
//! either honest or replayed from a corrupted identity, so it accepts
//! exactly what the plain lane accepts from honest senders: every
//! honest process must sample the same committee, be degenerate or
//! not, fall back or not, and decide the same value under either lane.
//! The signed lane's echo round delays its decision by exactly one
//! round, in the fast lane and in the fallback alike.

use ba_commeff::{Certified, CommEffBa, Lane, Plain};
use ba_core::{BitVec, PredictionMatrix};
use ba_crypto::Pki;
use ba_sim::{Adversary, ProcessId, ReplayAdversary, Runner, SilentAdversary, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One honest process's `(committee, degenerate, fell_back, decision,
/// decision round)`.
type Seen = (Vec<ProcessId>, bool, bool, Value, u64);

#[derive(Clone, Copy, Debug)]
enum Attack {
    Silent,
    Replay,
}

#[derive(Clone, Copy, Debug)]
enum Predictions {
    Perfect,
    AllHonest,
    AllSuspect,
}

impl Predictions {
    fn matrix(self, n: usize, faulty: &BTreeSet<ProcessId>) -> PredictionMatrix {
        match self {
            Predictions::Perfect => PredictionMatrix::perfect(n, faulty),
            Predictions::AllHonest => PredictionMatrix::all_honest(n),
            Predictions::AllSuspect => PredictionMatrix::from_rows(vec![BitVec::zeros(n); n]),
        }
    }
}

/// Runs one system over the lane `lane` hands each identifier and
/// returns what every honest process saw.
fn seen<L: Lane>(
    n: usize,
    faulty: &BTreeSet<ProcessId>,
    predictions: Predictions,
    attack: Attack,
    lane: impl Fn(ProcessId) -> L,
) -> BTreeMap<ProcessId, Seen> {
    let t = (n - 1) / 3;
    let matrix = predictions.matrix(n, faulty);
    let honest: BTreeMap<ProcessId, CommEffBa<L>> = ProcessId::all(n)
        .filter(|id| !faulty.contains(id))
        .map(|id| {
            let row = matrix.row(id).clone();
            let input = Value(u64::from(id.0 % 2));
            (id, CommEffBa::with_lane(lane(id), id, n, t, input, row))
        })
        .collect();
    match attack {
        Attack::Silent => observe(Runner::with_ids(n, honest, SilentAdversary), t),
        Attack::Replay => observe(Runner::with_ids(n, honest, ReplayAdversary::new(1)), t),
    }
}

/// Runs `runner` for the full round budget and reads every honest
/// process.
fn observe<L: Lane, A: Adversary<L::Msg>>(
    mut runner: Runner<CommEffBa<L>, A>,
    t: usize,
) -> BTreeMap<ProcessId, Seen> {
    let report = runner.run(CommEffBa::<L>::rounds(t));
    assert!(report.agreement() && report.all_decided());
    report
        .outputs
        .iter()
        .map(|(&id, &decision)| {
            let p = runner.process(id).expect("honest");
            let seen = (
                p.committee().to_vec(),
                p.degenerate(),
                p.fell_back(),
                decision,
                report.decision_round[&id],
            );
            (id, seen)
        })
        .collect()
}

#[test]
fn plain_and_certified_lanes_choose_alike_without_equivocation() {
    for n in [7usize, 13, 16] {
        let t = (n - 1) / 3;
        let faulty: BTreeSet<ProcessId> = (0..t as u32).map(|j| ProcessId(2 * j + 1)).collect();
        let pki = Arc::new(Pki::new(n, 11));
        for predictions in [
            Predictions::Perfect,
            Predictions::AllHonest,
            Predictions::AllSuspect,
        ] {
            for attack in [Attack::Silent, Attack::Replay] {
                let case = format!("n = {n}, {predictions:?}, {attack:?}");
                let plain = seen(n, &faulty, predictions, attack, |_| Plain);
                let signed = seen(n, &faulty, predictions, attack, |id| {
                    Certified::new(Arc::clone(&pki), pki.signing_key(id.0))
                });
                assert_eq!(plain.len(), n - t, "{case}");
                assert!(plain.keys().eq(signed.keys()), "{case}: honest ids");
                for ((id, plain), (_, signed)) in plain.iter().zip(&signed) {
                    let (committee, degenerate, fell_back, decision, round) = plain;
                    assert_eq!(committee, &signed.0, "{case}: {id}'s committee");
                    assert_eq!(degenerate, &signed.1, "{case}: {id}'s degenerate flag");
                    assert_eq!(fell_back, &signed.2, "{case}: {id}'s lane choice");
                    assert_eq!(decision, &signed.3, "{case}: {id}'s decision");
                    assert_eq!(
                        signed.4,
                        round + 1,
                        "{case}: {id}: the echo round costs exactly one round"
                    );
                    // Degenerate predictions are the only ones here that
                    // leave the fast lane without an aggregator.
                    let degenerate_run = matches!(predictions, Predictions::AllSuspect);
                    assert_eq!(*fell_back, degenerate_run, "{case}: {id}'s lane");
                    if !fell_back {
                        assert_eq!(*round, Plain::FALLBACK_START - 1, "{case}: {id}: fast lane");
                    }
                }
            }
        }
    }
}
