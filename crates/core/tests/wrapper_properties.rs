//! Property-based verification of the Algorithm 1 wrapper's internal
//! contracts, over both component kits: classification feeds π(c)
//! correctly, schedules are consistent, and the wrapper's safety
//! survives prediction matrices of arbitrary shape (not just budgeted
//! ones).

use ba_auth::AuthBaWithClassification;
use ba_core::{
    phase_budget, phase_count, pi_order, truth_vector, AuthWrapper, BitVec, Classify, Kit,
    PredictionMatrix, Schedule, SlotKind, UnauthWrapper, Wrapper,
};
use ba_crypto::Pki;
use ba_early::{EsUnauth, PhaseKing, TruncatedDs};
use ba_sim::{ProcessId, RunReport, Runner, SilentAdversary, Value};
use ba_unauth::UnauthBaWithClassification;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn arbitrary_matrix(n: usize) -> impl Strategy<Value = PredictionMatrix> {
    proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, n), n).prop_map(
        |rows| {
            PredictionMatrix::from_rows(rows.into_iter().map(|r| BitVec::from_bools(&r)).collect())
        },
    )
}

/// Runs `honest` against silent faults for the full schedule; returns
/// the report and each honest process's decision phase.
fn run<K: Kit>(
    n: usize,
    t: usize,
    honest: BTreeMap<ProcessId, Wrapper<K>>,
) -> (RunReport<Value>, Vec<Option<u16>>) {
    let ids: Vec<ProcessId> = honest.keys().copied().collect();
    let mut runner = Runner::with_ids(n, honest, SilentAdversary);
    let report = runner.run(Wrapper::<K>::schedule(n, t).total_steps + 4);
    let phases = ids
        .iter()
        .map(|&id| runner.process(id).expect("honest").decision_phase())
        .collect();
    (report, phases)
}

/// Runs Algorithm 1 over the authenticated kit if `auth`, else the
/// unauthenticated one. Identifiers `0..f` are silent; the `i`-th honest
/// process proposes `input(i)`.
fn run_wrapper(
    auth: bool,
    (n, t, f): (usize, usize, usize),
    matrix: &PredictionMatrix,
    input: impl Fn(usize) -> Value,
) -> (RunReport<Value>, Vec<Option<u16>>) {
    let honest = (f as u32..n as u32).map(ProcessId).enumerate();
    if auth {
        let pki = Arc::new(Pki::new(n, 1234));
        let make = |(i, id): (usize, ProcessId)| {
            let (row, key) = (matrix.row(id).clone(), pki.signing_key(id.0));
            (
                id,
                AuthWrapper::new(id, n, t, input(i), row, Arc::clone(&pki), key),
            )
        };
        run(n, t, honest.map(make).collect())
    } else {
        let make = |(i, id): (usize, ProcessId)| {
            (
                id,
                UnauthWrapper::new(id, n, t, input(i), matrix.row(id).clone()),
            )
        };
        run(n, t, honest.map(make).collect())
    }
}

/// `(auth, n, t)` cases: each kit at `t = 4`, plus `t ≥ n/3`, which only
/// the authenticated kit admits.
const KIT_CASES: [(bool, usize, usize); 3] = [(false, 13, 4), (true, 13, 4), (true, 9, 4)];

#[test]
fn both_kits_decide_in_phase_one_under_perfect_predictions() {
    for (auth, n, t) in KIT_CASES {
        let faulty: BTreeSet<ProcessId> = (0..t as u32).map(ProcessId).collect();
        let matrix = PredictionMatrix::perfect(n, &faulty);
        let (report, phases) = run_wrapper(auth, (n, t, t), &matrix, |_| Value(5));
        assert_eq!(report.decision(), Some(&Value(5)), "auth = {auth}, n = {n}");
        assert!(
            phases.iter().all(|&p| p == Some(1)),
            "auth = {auth}, n = {n}: {phases:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The wrapper satisfies Agreement and Termination for *arbitrary*
    /// prediction matrices — the matrix is adversary-chosen state, not
    /// trusted input — over either kit.
    #[test]
    fn wrapper_safe_under_arbitrary_predictions(
        (auth, n, t, matrix) in (0..KIT_CASES.len()).prop_flat_map(|case| {
            let (auth, n, t) = KIT_CASES[case];
            arbitrary_matrix(n).prop_map(move |m| (auth, n, t, m))
        }),
        f in 0usize..=4,
        unanimous in proptest::bool::ANY,
    ) {
        let input = |i: usize| if unanimous { Value(3) } else { Value(1 + (i % 2) as u64) };
        let (report, _) = run_wrapper(auth, (n, t, f), &matrix, input);
        prop_assert!(report.agreement(), "agreement under arbitrary predictions");
        if unanimous {
            prop_assert_eq!(report.decision(), Some(&Value(3)));
        }
    }

    /// Classification tally is symmetric: with all-honest voters the
    /// resulting vectors are identical across processes, and each bit
    /// reflects the strict majority of prediction bits.
    #[test]
    fn classification_majority_is_exact(
        matrix in arbitrary_matrix(9),
    ) {
        let n = 9;
        let honest: BTreeMap<ProcessId, Classify> = ProcessId::all(n)
            .map(|id| (id, Classify::new(id, n, matrix.row(id).clone())))
            .collect();
        let mut runner = Runner::with_ids(n, honest, SilentAdversary);
        let report = runner.run(3);
        let first = report.outputs.values().next().expect("decided").clone();
        for c in report.outputs.values() {
            prop_assert_eq!(c, &first, "all-honest classification must be identical");
        }
        let threshold = Classify::threshold(n);
        for j in 0..n {
            let votes = ProcessId::all(n).filter(|&i| matrix.row(i).get(j)).count();
            prop_assert_eq!(first.get(j), votes >= threshold, "bit {}", j);
        }
    }

    /// π(c) is a permutation, lists classified-honest ids first, and is
    /// monotone within each class.
    #[test]
    fn pi_order_is_a_classified_permutation(
        bits in proptest::collection::vec(proptest::bool::ANY, 3..40),
    ) {
        let c = BitVec::from_bools(&bits);
        let order = pi_order(&c);
        let n = bits.len();
        let as_set: BTreeSet<ProcessId> = order.iter().copied().collect();
        prop_assert_eq!(as_set.len(), n, "permutation");
        let honest_count = c.count_ones();
        for (pos, id) in order.iter().enumerate() {
            prop_assert_eq!(c.get(id.index()), pos < honest_count);
        }
        for w in order[..honest_count].windows(2) {
            prop_assert!(w[0] < w[1], "honest prefix ascending");
        }
        for w in order[honest_count..].windows(2) {
            prop_assert!(w[0] < w[1], "faulty suffix ascending");
        }
    }

    /// Schedule structure, over either kit: phases follow ⌈log₂ t⌉ + 1
    /// with doubling budgets, slots tile the timeline, Class slots appear
    /// exactly where structurally valid, and Es slots run a budget capped
    /// at `t`.
    #[test]
    fn schedule_structure(n in 10usize..60, t_raw in 1usize..30, auth in proptest::bool::ANY) {
        let divisor = if auth { 2 } else { 3 };
        let t = t_raw.min((n - 1) / divisor).max(1);
        let s: Schedule = if auth {
            AuthWrapper::schedule(n, t)
        } else {
            UnauthWrapper::schedule(n, t)
        };
        prop_assert_eq!(s.phases, phase_count(t));
        for w in s.slots.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "slots must tile");
        }
        let class_valid = |k: usize| if auth {
            AuthBaWithClassification::is_structurally_valid(n, k)
        } else {
            UnauthBaWithClassification::is_structurally_valid(n, k)
        };
        for phase in 1..=s.phases {
            let k = phase_budget(phase);
            let has_class = s.slots.iter().any(|s| s.kind == SlotKind::Class { phase, k });
            prop_assert_eq!(has_class, class_valid(k), "phase {}", phase);
        }
        for slot in &s.slots {
            match slot.kind {
                SlotKind::Class { phase, k } => {
                    prop_assert_eq!(k, phase_budget(phase));
                    if auth {
                        prop_assert!(2 * k < n, "invalid Class slot scheduled");
                    } else {
                        prop_assert!((2 * k + 1) * (3 * k + 1) <= n, "invalid Class slot scheduled");
                    }
                }
                SlotKind::Es { phase, k } => {
                    prop_assert_eq!(k, phase_budget(phase));
                    let capped = if auth {
                        TruncatedDs::rounds(k.min(t))
                    } else if EsUnauth::uses_alg5(n, t, k) {
                        UnauthBaWithClassification::rounds(k)
                    } else {
                        PhaseKing::rounds(PhaseKing::phases_for(k.min(t)))
                    };
                    prop_assert_eq!(slot.end - slot.start, capped, "Es budget capped at t");
                }
                _ => {}
            }
        }
    }

    /// The perfect-prediction truth vector classifies exactly the fault
    /// set, so downstream orderings push precisely the faulty ids last.
    #[test]
    fn truth_vector_round_trip(
        faulty_raw in proptest::collection::btree_set(0u32..20, 0..7),
    ) {
        let n = 20;
        let faulty: BTreeSet<ProcessId> = faulty_raw.into_iter().map(ProcessId).collect();
        let c = truth_vector(n, &faulty);
        let order = pi_order(&c);
        let tail: BTreeSet<ProcessId> = order[n - faulty.len()..].iter().copied().collect();
        prop_assert_eq!(tail, faulty);
    }
}
