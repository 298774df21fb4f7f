//! The two classification exchanges compute the same view when nobody
//! equivocates.
//!
//! [`Plain`] and [`Signed`] share one aggregation rule (suspicion
//! scores, the `2·s < voters` majority classification, the trust order)
//! and differ only in which strings they accept. Against silence or a
//! liar that *broadcasts* one string per member, both accept exactly one
//! string per sender, so every honest process must end with the same
//! suspicion scores and classification under either exchange, and the
//! two schedules must share their `t + 1`-slot trust prefix (the plain
//! schedule then adds its rotation suffix, the signed one its last
//! trust slot).

use ba_core::{BitVec, PredictionMatrix};
use ba_crypto::Pki;
use ba_resilient::{Exchange, Plain, Resilient, Signed};
use ba_sim::{AdversaryCtx, FnAdversary, ProcessId, Runner, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What the coalition broadcasts in round 0: nothing, or one crafted
/// string per member.
#[derive(Clone, Copy, Debug)]
enum Liar {
    Silent,
    AllOnes,
    AllZeros,
    Inverted,
}

impl Liar {
    fn vector(self, n: usize, faulty: &BTreeSet<ProcessId>) -> Option<BitVec> {
        let inverted = (0..n).map(|j| faulty.contains(&ProcessId(j as u32)));
        match self {
            Liar::Silent => None,
            Liar::AllOnes => Some(BitVec::ones(n)),
            Liar::AllZeros => Some(BitVec::zeros(n)),
            Liar::Inverted => Some(BitVec::from_bools(&inverted.collect::<Vec<_>>())),
        }
    }
}

/// One honest process's `(suspicion, classification, trust prefix)`.
type Seen = (Vec<usize>, BitVec, Vec<ProcessId>);

/// Runs one system over the exchange `exchange` hands each identifier
/// and returns what every honest process saw.
fn views<X: Exchange>(
    n: usize,
    t: usize,
    faulty: &BTreeSet<ProcessId>,
    liar: Liar,
    exchange: impl Fn(ProcessId) -> X,
) -> BTreeMap<ProcessId, Seen> {
    // Perfect predictions, with one honest-side slip per row so the
    // suspicion scores are not trivially 0 and n − t.
    let mut matrix = PredictionMatrix::perfect(n, faulty);
    for row in ProcessId::all(n) {
        let j = (row.index() * 3 + 1) % n;
        let bit = matrix.row(row).get(j);
        matrix.row_mut(row).set(j, !bit);
    }
    let honest: BTreeMap<ProcessId, Resilient<X>> = ProcessId::all(n)
        .filter(|id| !faulty.contains(id))
        .map(|id| {
            let row = matrix.row(id).clone();
            let input = Value(u64::from(id.0 % 2));
            (
                id,
                Resilient::with_exchange(exchange(id), id, n, t, input, row),
            )
        })
        .collect();
    let coalition: Vec<(ProcessId, X)> = faulty.iter().map(|&id| (id, exchange(id))).collect();
    let lie = liar.vector(n, faulty);
    let adversary = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, X::Msg>| {
        if let (0, Some(bits)) = (ctx.round, &lie) {
            for (from, member) in &coalition {
                ctx.broadcast(*from, member.classify(bits.clone()));
            }
        }
    });
    let mut runner = Runner::with_ids(n, honest, adversary);
    let report = runner.run(Resilient::<X>::rounds(t));
    assert!(
        report.agreement() && report.all_decided(),
        "n = {n}, {liar:?}"
    );
    ProcessId::all(n)
        .filter(|id| !faulty.contains(id))
        .map(|id| {
            let p = runner.process(id).expect("honest");
            let schedule = p.schedule().expect("seated");
            let seen = (
                p.suspicion().expect("aggregated").to_vec(),
                p.classification().expect("aggregated").clone(),
                schedule[..t + 1].to_vec(),
            );
            (id, seen)
        })
        .collect()
}

#[test]
fn plain_and_signed_exchanges_agree_without_equivocation() {
    for n in [7usize, 13, 16] {
        let t = (n - 1) / 3;
        let faulty: BTreeSet<ProcessId> = (0..t as u32).map(|j| ProcessId(2 * j + 1)).collect();
        let pki = Arc::new(Pki::new(n, 11));
        for liar in [Liar::Silent, Liar::AllOnes, Liar::AllZeros, Liar::Inverted] {
            let plain = views(n, t, &faulty, liar, |_| Plain);
            let signed = views(n, t, &faulty, liar, |id| Signed {
                pki: Arc::clone(&pki),
                key: pki.signing_key(id.0),
            });
            assert_eq!(
                plain, signed,
                "n = {n}, {liar:?}: the exchanges' views differ"
            );
            let first = plain.values().next().expect("honest population");
            assert!(
                plain.values().all(|seen| seen == first),
                "n = {n}, {liar:?}: honest views must agree without equivocation"
            );
        }
    }
}
