//! Early-stopping phase-king Byzantine agreement (`t < n/3`,
//! unauthenticated) — the generic half of substitution S4.
//!
//! The paper's wrapper needs an early-stopping BA (Theorem 9, citing
//! Lenzen–Sheikholeslami \[32\]) that, with `f` actual faults, completes in
//! `O(f)` rounds. This is a simplified protocol with the same structure
//! \[32\] itself builds on: the [`King`] rule of the shared
//! [phase engine](crate::phases). Both graded consensuses of a phase are
//! [`UnauthGraded`] (the first the *validator*, the second the *detect*
//! consensus), and in the middle round the phase's king — `p_{p mod n}`,
//! or `kings[p]` under an explicit schedule — broadcasts its value, which
//! every process below grade 2 adopts.
//!
//! *Safety.* Deciding requires detect-grade 2; grade-2 coherence of the
//! graded consensus then forces every honest process to carry the decided
//! value into the next phase, where strong unanimity makes everyone
//! decide it too. *Liveness.* In the first phase with an honest king,
//! either some honest process held validator grade 2 — in which case grade-2
//! coherence already put the same value (as the argmax) at every honest
//! process including the king — or nobody did and everyone adopts the
//! king; either way the phase ends unanimous and the detect consensus
//! fires grade 2 everywhere. With `f` faults an honest king appears
//! within `f + 1` phases, so all honest processes decide within `f + 2`
//! phases = `5(f + 2)` rounds — the early-stopping bound.
//!
//! Messages are `O(n²)` per phase, i.e. `O(fn²)` per run — a deviation
//! from \[32\]'s `O(n²)` total, accepted because this much simpler
//! protocol stands in for \[32\] and keeps its `O(f)` round bound.

use crate::phases::{PhaseMsg, PhaseOutput, Phases, Rule};
use ba_graded::{UnauthGcMsg, UnauthGraded};
use ba_sim::{Envelope, Outbox, ProcessId, Value};
use std::sync::Arc;

/// Messages of the phase-king protocol: `Middle` carries the king's value.
pub type PhaseKingMsg = PhaseMsg<UnauthGcMsg, Value>;

/// Result of a phase-king run. The decision is set once the second graded
/// consensus fires grade 2 (always the case when `f + 2 ≤` the phase
/// budget).
pub type PhaseKingOutput = PhaseOutput;

/// One process's state machine for early-stopping phase-king agreement.
///
/// # Examples
///
/// ```
/// use ba_unauth::PhaseKing;
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
///
/// let n = 4;
/// let procs: Vec<_> = (0..n as u32)
///     .map(|i| PhaseKing::full(ProcessId(i), n, 1, Value(3)))
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(40);
/// for o in report.outputs.values() {
///     assert_eq!(o.decision, Some(Value(3)));
/// }
/// ```
pub type PhaseKing = Phases<King>;

/// The phase-king [`Rule`]: unauthenticated graded consensus, and a
/// middle round in which the phase's king broadcasts its value.
pub struct King {
    n: usize,
    t: usize,
    /// Explicit king schedule (one entry per phase); `None` falls back
    /// to the classic identity rotation `p_{phase mod n}`.
    kings: Option<Arc<[ProcessId]>>,
}

impl King {
    fn king_of(&self, phase: usize) -> ProcessId {
        match &self.kings {
            Some(kings) => kings[phase],
            None => ProcessId((phase % self.n) as u32),
        }
    }
}

impl Rule for King {
    type Gc = UnauthGraded;
    type Middle = Value;

    fn graded(&self, me: ProcessId, _phase: usize, value: Value) -> UnauthGraded {
        UnauthGraded::new(me, self.n, self.t, value)
    }

    fn send_middle(
        &mut self,
        me: ProcessId,
        phase: usize,
        value: Value,
        out: &mut Outbox<PhaseKingMsg>,
    ) {
        if me == self.king_of(phase) {
            out.broadcast(PhaseMsg::Middle {
                phase: phase as u16,
                inner: value,
            });
        }
    }

    /// The king's first `Middle` of this phase.
    fn middle_value(
        &mut self,
        phase: usize,
        inbox: &[Envelope<PhaseKingMsg>],
        _out: &mut Outbox<PhaseKingMsg>,
    ) -> Option<Value> {
        let king = self.king_of(phase);
        inbox
            .iter()
            .filter(|env| env.from == king)
            .find_map(|env| match &*env.payload {
                PhaseMsg::Middle { phase: p, inner } if *p as usize == phase => Some(*inner),
                _ => None,
            })
    }
}

impl PhaseKing {
    /// Rounds used by a run with the given phase budget.
    pub fn rounds(phases: usize) -> u64 {
        5 * phases as u64
    }

    /// Phase budget sufficient to early-stop with `f ≤ k` faults.
    pub fn phases_for(k: usize) -> usize {
        k + 2
    }

    /// Creates a state machine with an explicit phase budget.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and `phases ≥ 1`.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, phases: usize) -> Self {
        Self::scheduled(me, n, t, input, phases, None)
    }

    /// A full, unconditionally correct run: `t + 2` phases (the
    /// prediction-free baseline BA of the benchmark suite).
    pub fn full(me: ProcessId, n: usize, t: usize, input: Value) -> Self {
        Self::new(me, n, t, input, t + 2)
    }

    /// Creates a state machine with an explicit king schedule: the king
    /// of phase `p` is `kings[p]`, and the phase budget is
    /// `kings.len()`. This is the hook prediction-guided protocols (the
    /// resilient pipeline) use to put trusted identifiers on the throne
    /// first; safety never depends on the schedule, only liveness does
    /// (an honest king phase unifies only if every honest process
    /// agrees who the king is).
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n`, the schedule is non-empty, and every
    /// scheduled king is a valid identifier below `n`.
    pub fn with_kings(
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        kings: Vec<ProcessId>,
    ) -> Self {
        assert!(!kings.is_empty(), "king schedule must cover ≥ 1 phase");
        assert!(
            kings.iter().all(|k| (k.0 as usize) < n),
            "king schedule names an identifier outside the system"
        );
        Self::scheduled(me, n, t, input, kings.len(), Some(kings.into()))
    }

    fn scheduled(
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        phases: usize,
        kings: Option<Arc<[ProcessId]>>,
    ) -> Self {
        assert!(3 * t < n, "phase king needs 3t < n");
        assert!(phases >= 1);
        Phases::with_rule(me, phases, King { n, t, kings }, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{AdversaryCtx, FnAdversary, Runner, SilentAdversary};
    use std::rc::Rc;

    fn system(n: usize, t: usize, inputs: &[u64], phases: usize) -> Vec<PhaseKing> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| PhaseKing::new(ProcessId(i as u32), n, t, Value(v), phases))
            .collect()
    }

    #[test]
    fn strong_unanimity_decides_in_first_phases() {
        let n = 7;
        let mut runner = Runner::new(n, system(n, 2, &[5; 7], 4), SilentAdversary);
        let report = runner.run(60);
        assert!(report.all_decided());
        for o in report.outputs.values() {
            assert_eq!(o.decision, Some(Value(5)));
        }
        // Unanimity: decide in phase 1, return in phase 2.
        assert!(report.last_decision_round.unwrap() <= 11);
    }

    #[test]
    fn early_stopping_with_f_silent_faults() {
        // f = 1 < t = 2: decision within f + 2 = 3 phases.
        let n = 7;
        let mut runner = Runner::new(n, system(n, 2, &[1, 2, 1, 2, 1, 2], 4), SilentAdversary);
        let report = runner.run(60);
        assert!(report.agreement());
        assert!(
            report.last_decision_round.unwrap() <= PhaseKing::rounds(3) + 1,
            "f+2 phase early stop"
        );
    }

    #[test]
    fn agreement_under_equivocating_king() {
        // p0 is the phase-0 king and faulty: it sends different king
        // values to different processes. Later honest kings must repair.
        let n = 7;
        let t = 2;
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, PhaseKingMsg>| {
            // Participate in GCs pretending input 0 or 1 depending on
            // recipient parity, and send split king values in phase 0.
            match ctx.round {
                0 | 3 => {
                    for to in 0..ctx.n as u32 {
                        let v = Value(u64::from(to % 2));
                        ctx.send(
                            ProcessId(0),
                            ProcessId(to),
                            if ctx.round == 0 {
                                PhaseKingMsg::First {
                                    phase: 0,
                                    inner: Rc::new(UnauthGcMsg::Vote(v)),
                                }
                            } else {
                                PhaseKingMsg::Second {
                                    phase: 0,
                                    inner: Rc::new(UnauthGcMsg::Vote(v)),
                                }
                            },
                        );
                    }
                }
                2 => {
                    for to in 0..ctx.n as u32 {
                        ctx.send(
                            ProcessId(0),
                            ProcessId(to),
                            PhaseKingMsg::Middle {
                                phase: 0,
                                inner: Value(u64::from(to % 2)),
                            },
                        );
                    }
                }
                _ => {}
            }
        });
        let honest: std::collections::BTreeMap<ProcessId, PhaseKing> = (1..n as u32)
            .map(|i| {
                (
                    ProcessId(i),
                    PhaseKing::new(ProcessId(i), n, t, Value(u64::from(i % 2)), t + 2),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(60);
        assert!(
            report.agreement(),
            "honest kings p1/p2 must repair the split"
        );
    }

    #[test]
    fn non_king_cannot_impersonate_king() {
        // A faulty non-king broadcasts king values; honest processes
        // only adopt from the phase's designated king.
        let n = 4;
        let t = 1;
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, PhaseKingMsg>| {
            if ctx.round % 5 == 2 {
                let phase = (ctx.round / 5) as u16;
                // p3 pretends to be king every phase (it is king only in
                // phase 3).
                if phase != 3 {
                    ctx.broadcast(
                        ProcessId(3),
                        PhaseKingMsg::Middle {
                            phase,
                            inner: Value(999),
                        },
                    );
                }
            }
        });
        let mut runner = Runner::new(n, system(n, t, &[6, 6, 6], t + 2), adv);
        let report = runner.run(60);
        assert!(report.agreement());
        assert_eq!(
            report.outputs.values().next().unwrap().decision,
            Some(Value(6)),
            "fake king values never adopted"
        );
    }

    #[test]
    fn safety_never_violated_across_random_faulty_noise() {
        // Deterministic pseudo-random Byzantine noise across all message
        // kinds; agreement and validity must hold in every run.
        for seed in 0..10u64 {
            let n = 7;
            let t = 2;
            let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, PhaseKingMsg>| {
                let phase = (ctx.round / 5) as u16;
                for (j, from) in [ProcessId(5), ProcessId(6)].into_iter().enumerate() {
                    let x = seed
                        .wrapping_mul(0x9e3779b97f4a7c15)
                        .wrapping_add(ctx.round * 31 + j as u64);
                    let v = Value(x % 3);
                    let msg = match x % 4 {
                        0 => PhaseKingMsg::First {
                            phase,
                            inner: Rc::new(UnauthGcMsg::Vote(v)),
                        },
                        1 => PhaseKingMsg::First {
                            phase,
                            inner: Rc::new(UnauthGcMsg::Echo(v)),
                        },
                        2 => PhaseKingMsg::Middle { phase, inner: v },
                        _ => PhaseKingMsg::Second {
                            phase,
                            inner: Rc::new(UnauthGcMsg::Vote(v)),
                        },
                    };
                    ctx.broadcast(from, msg);
                }
            });
            let mut runner = Runner::new(7, system(n, t, &[0, 1, 0, 1, 0], t + 2), adv);
            let report = runner.run(80);
            assert!(report.agreement(), "seed {seed} broke agreement");
            let d = report.outputs.values().next().unwrap().value;
            assert!(d == Value(0) || d == Value(1), "seed {seed} invented {d}");
        }
    }

    #[test]
    fn validity_all_same_input_under_noise() {
        let n = 7;
        let t = 2;
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, PhaseKingMsg>| {
            let phase = (ctx.round / 5) as u16;
            ctx.broadcast(
                ProcessId(6),
                PhaseKingMsg::First {
                    phase,
                    inner: Rc::new(UnauthGcMsg::Vote(Value(9))),
                },
            );
        });
        let mut runner = Runner::new(n, system(n, t, &[4; 6], t + 2), adv);
        let report = runner.run(80);
        assert!(report.agreement());
        assert_eq!(report.outputs.values().next().unwrap().value, Value(4));
    }

    #[test]
    fn explicit_king_schedule_changes_who_unifies_first() {
        // Split inputs, one silent fault (p3). Under the identity
        // rotation p0 (honest) is the phase-0 king and the run decides
        // immediately; with p3 scheduled first, phase 0 stalls and the
        // honest phase-1 king repairs — exactly one phase later.
        let n = 7;
        let t = 2;
        let run = |kings: Vec<ProcessId>| {
            let honest: std::collections::BTreeMap<ProcessId, PhaseKing> = (0..n as u32)
                .filter(|i| *i != 3)
                .map(|i| {
                    let id = ProcessId(i);
                    (
                        id,
                        PhaseKing::with_kings(id, n, t, Value(u64::from(i % 2)), kings.clone()),
                    )
                })
                .collect();
            let mut runner = Runner::with_ids(n, honest, SilentAdversary);
            let report = runner.run(60);
            assert!(report.agreement());
            report.last_decision_round.expect("decided")
        };
        let trusted_first = run(vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(4)]);
        let faulty_first = run(vec![ProcessId(3), ProcessId(0), ProcessId(1), ProcessId(2)]);
        assert_eq!(
            faulty_first,
            trusted_first + 5,
            "a scheduled faulty king costs exactly one phase"
        );
    }

    #[test]
    #[should_panic(expected = "≥ 1 phase")]
    fn empty_king_schedule_is_rejected() {
        let _ = PhaseKing::with_kings(ProcessId(0), 4, 1, Value(0), vec![]);
    }

    #[test]
    #[should_panic(expected = "outside the system")]
    fn out_of_range_king_is_rejected() {
        let _ = PhaseKing::with_kings(ProcessId(0), 4, 1, Value(0), vec![ProcessId(9)]);
    }

    #[test]
    fn phase_budget_bounds_rounds() {
        let n = 4;
        let mut runner = Runner::new(n, system(n, 1, &[1, 2, 1, 2], 3), SilentAdversary);
        let report = runner.run(100);
        assert!(report.all_decided());
        assert!(report.rounds_executed <= PhaseKing::rounds(3) + 2);
    }
}
