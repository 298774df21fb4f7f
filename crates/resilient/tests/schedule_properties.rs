//! Property-based hardening of the king-schedule constructors.
//!
//! `PhaseKing::with_kings` panics on empty and out-of-range schedules,
//! and the resilient pipelines build their schedules from
//! *adversary-influenced* suspicion vectors (Byzantine classifications
//! feed the aggregation). These properties pin the safety contract: for
//! **any** suspicion input — arbitrary magnitudes, adversarial
//! orderings, conviction patterns — both [`king_schedule`] (unsigned,
//! with rotation suffix) and [`signed_king_schedule`] (suffix-free)
//! produce schedules that are non-empty, in range, of the documented
//! length, with a duplicate-free trust prefix whenever `t + 2 ≤ n`, and
//! that `PhaseKing::with_kings` accepts without panicking. At n = 1 (the
//! only size where `3t < n` but `t + 2 > n`) identifiers wrap modulo `n`.

use ba_early::PhaseKing;
use ba_resilient::{king_schedule, signed_king_schedule, ResilientBa, ResilientSigned};
use ba_sim::{ProcessId, Value};
use proptest::prelude::*;

/// Draws `(n, t, suspicion, convicted)` with `3t < n` (the pipelines'
/// resilience bound, which guarantees `t + 2 ≤ n` for n ≥ 2) and fully
/// arbitrary per-identifier scores, including adversarially huge ones.
fn arbitrary_inputs() -> impl Strategy<Value = (usize, usize, Vec<usize>, Vec<bool>)> {
    (1usize..40).prop_flat_map(|n| {
        let t_max = (n - 1) / 3;
        (
            Just(n),
            0usize..=t_max,
            proptest::collection::vec(0usize..=usize::MAX - 1, n..=n),
            proptest::collection::vec(proptest::bool::ANY, n..=n),
        )
    })
}

fn assert_in_range_and_nonempty(schedule: &[ProcessId], n: usize) {
    assert!(!schedule.is_empty(), "schedule must cover ≥ 1 phase");
    assert!(
        schedule.iter().all(|k| (k.0 as usize) < n),
        "every scheduled king must be inside the system"
    );
}

fn assert_prefix_distinct(prefix: &[ProcessId]) {
    let mut seen = prefix.to_vec();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        prefix.len(),
        "the trust prefix must not repeat an identifier"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The unsigned schedule: `t + 1` distinct trust slots plus the
    /// exact `t + 2`-phase rotation suffix, everything in range, and
    /// `with_kings` accepts it for any suspicion input.
    #[test]
    fn unsigned_king_schedule_is_always_well_formed(
        (n, t, suspicion, _convicted) in arbitrary_inputs(),
    ) {
        let schedule = king_schedule(n, t, &suspicion);
        prop_assert_eq!(schedule.len(), ResilientBa::phases(t));
        assert_in_range_and_nonempty(&schedule, n);
        if t + 2 <= n {
            assert_prefix_distinct(&schedule[..t + 1]);
            let suffix: Vec<ProcessId> = (0..=t + 1).map(|j| ProcessId(j as u32)).collect();
            prop_assert_eq!(&schedule[t + 1..], suffix.as_slice(), "unconditional suffix");
        }
        // The hardening target: with_kings must accept every schedule
        // a suspicion vector can induce (it panics on empty or
        // out-of-range input, so reaching here proves neither occurs).
        let _ = PhaseKing::with_kings(ProcessId(0), n, t, Value(0), schedule);
    }

    /// The signed schedule: exactly `t + 2` *distinct* in-range slots
    /// (no suffix), convicted identifiers demoted below every
    /// unconvicted one, and `with_kings` accepts it.
    #[test]
    fn signed_king_schedule_is_always_well_formed(
        (n, t, suspicion, convicted) in arbitrary_inputs(),
    ) {
        let schedule = signed_king_schedule(n, t, &suspicion, &convicted);
        prop_assert_eq!(schedule.len(), ResilientSigned::phases(t));
        assert_in_range_and_nonempty(&schedule, n);
        if t + 2 <= n {
            assert_prefix_distinct(&schedule);
        }
        // Conviction demotion: an unconvicted identifier outside the
        // schedule would contradict a convicted one inside it.
        let unconvicted_total = convicted.iter().filter(|c| !**c).count();
        for k in &schedule {
            if convicted[k.0 as usize] {
                prop_assert!(
                    unconvicted_total < schedule.len(),
                    "a convicted king may reign only when unconvicted \
                     identifiers cannot fill the schedule"
                );
            }
        }
        let _ = PhaseKing::with_kings(ProcessId(0), n, t, Value(0), schedule);
    }

    /// Suspicion ties always break toward the smaller identifier, so
    /// schedules are a pure function of the scores — no hidden
    /// iteration-order dependence an adversary could exploit.
    #[test]
    fn schedules_are_deterministic_in_the_scores(
        (n, t, suspicion, convicted) in arbitrary_inputs(),
    ) {
        prop_assert_eq!(
            king_schedule(n, t, &suspicion),
            king_schedule(n, t, &suspicion)
        );
        prop_assert_eq!(
            signed_king_schedule(n, t, &suspicion, &convicted),
            signed_king_schedule(n, t, &suspicion, &convicted)
        );
    }
}
