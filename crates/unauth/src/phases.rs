//! The 5-round phase engine shared by phase king and Algorithm 5.
//!
//! Both protocols run the same phase, the validator/middle/validator
//! structure Lenzen–Sheikholeslami's early-stopping agreement builds on
//! and the paper's Algorithm 5 (§7.3) instantiates:
//!
//! ```text
//! phase p (5 rounds):
//!   (v, g) ← graded-consensus_p(v)     // rounds 0–2
//!   m      ← middle_p(v)               // sent in round 2, read in round 3
//!   if g < 2 and m exists then v ← m
//!   (v, g) ← graded-consensus_p(v)     // rounds 3–5
//!   if already decided in an earlier phase: return the decision
//!   if g = 2: decide v
//! after the last phase: return v
//! ```
//!
//! Each graded consensus's output round overlaps the next step's first
//! send, so a phase is 2 + 1 + 2 rounds, exactly as the paper counts.
//! Grades follow [`Graded`]'s three levels: grade 2 is the paper's grade
//! 1, below 2 its grade 0.
//!
//! A [`Rule`] supplies only what differs: the phase's graded consensus
//! and the middle round's send and value. [`King`](crate::King) runs
//! [`UnauthGraded`](ba_graded::UnauthGraded) and the phase king's
//! broadcast; [`Classified`](crate::Classified) runs
//! [`CoreSetGraded`](crate::CoreSetGraded) and
//! [`Conciliation`](crate::Conciliation) over the phase's block of the
//! classification order `π(c)`. Each rule's module keeps its own safety
//! and liveness argument.
//!
//! Every message carries its phase tag, and an honest process routes a
//! message into a sub-protocol only if the tag and the slot match, so
//! cross-phase replay is inert.

use ba_graded::Graded;
use ba_sim::{step_sub, Envelope, Outbox, Process, ProcessId, Value, WireSize};
use std::rc::Rc;

/// What one protocol puts into the shared phase: its graded consensus and
/// its middle round.
pub trait Rule {
    /// The graded consensus run twice per phase.
    type Gc: Process<Output = Graded>;
    /// The middle round's payload.
    type Middle: Clone + WireSize;

    /// A graded consensus for `phase`, started from `value`.
    fn graded(&self, me: ProcessId, phase: usize, value: Value) -> Self::Gc;

    /// Round 2 of `phase`: the middle round's send, from the value the
    /// first graded consensus returned.
    fn send_middle(
        &mut self,
        me: ProcessId,
        phase: usize,
        value: Value,
        out: &mut Outbox<Msg<Self>>,
    );

    /// Round 3 of `phase`: the value to adopt below grade 2, if the
    /// middle round produced one.
    fn middle_value(
        &mut self,
        phase: usize,
        inbox: &[Envelope<Msg<Self>>],
        out: &mut Outbox<Msg<Self>>,
    ) -> Option<Value>;
}

/// The messages of the phase engine run by rule `R`.
pub type Msg<R> = PhaseMsg<<<R as Rule>::Gc as Process>::Msg, <R as Rule>::Middle>;

/// A phase-tagged message: one of the two graded consensuses, or the
/// middle round.
#[derive(Clone, Debug)]
pub enum PhaseMsg<G, M> {
    /// The phase's first graded consensus.
    First {
        /// Phase number (0-based).
        phase: u16,
        /// Graded-consensus payload.
        inner: Rc<G>,
    },
    /// The phase's middle round: a king's value or a conciliation claim.
    Middle {
        /// Phase number (0-based).
        phase: u16,
        /// Middle-round payload.
        inner: M,
    },
    /// The phase's second graded consensus.
    Second {
        /// Phase number (0-based).
        phase: u16,
        /// Graded-consensus payload.
        inner: Rc<G>,
    },
}

/// A discriminant byte, the phase tag, and the payload.
impl<G: WireSize, M: WireSize> WireSize for PhaseMsg<G, M> {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            PhaseMsg::First { phase, inner } | PhaseMsg::Second { phase, inner } => {
                phase.wire_bytes() + inner.wire_bytes()
            }
            PhaseMsg::Middle { phase, inner } => phase.wire_bytes() + inner.wire_bytes(),
        }
    }
}

/// The result of a phase-engine run at one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseOutput {
    /// The value held when returning.
    pub value: Value,
    /// The decision, if a second graded consensus ever returned grade 2.
    pub decision: Option<Value>,
}

/// One process's state machine: `phases` phases of rule `R`.
pub struct Phases<R: Rule> {
    me: ProcessId,
    phases: usize,
    rule: R,
    value: Value,
    decision: Option<Value>,
    /// The graded consensus in flight: the phase's first during rounds
    /// 0–2, its second from round 3 until the next phase's round 0.
    gc: Option<R::Gc>,
    first_grade: u8,
    out: Option<PhaseOutput>,
}

impl<R: Rule> std::fmt::Debug for Phases<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phases")
            .field("me", &self.me)
            .field("phases", &self.phases)
            .field("value", &self.value)
            .field("decision", &self.decision)
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl<R: Rule> Phases<R> {
    pub(crate) fn with_rule(me: ProcessId, phases: usize, rule: R, input: Value) -> Self {
        Phases {
            me,
            phases,
            rule,
            value: input,
            decision: None,
            gc: None,
            first_grade: 0,
            out: None,
        }
    }

    /// Steps the graded consensus in flight; returns its output once it
    /// has one (at its step 2).
    fn drive(
        &mut self,
        local: u64,
        phase: usize,
        second: bool,
        inbox: &[Envelope<Msg<R>>],
        out: &mut Outbox<Msg<R>>,
    ) -> Option<Graded> {
        let gc = self.gc.as_mut().expect("graded consensus live");
        let phase = phase as u16;
        step_sub(
            gc,
            local,
            inbox,
            out,
            |m| match m {
                PhaseMsg::First { phase: p, inner } if !second && *p == phase => {
                    Some(Rc::clone(inner))
                }
                PhaseMsg::Second { phase: p, inner } if second && *p == phase => {
                    Some(Rc::clone(inner))
                }
                _ => None,
            },
            |inner| {
                if second {
                    PhaseMsg::Second { phase, inner }
                } else {
                    PhaseMsg::First { phase, inner }
                }
            },
        );
        gc.output()
    }

    /// Starts a graded consensus. Its first step sees an empty inbox, as
    /// a standalone run's round 0 does: nothing an honest peer sent
    /// before the start can belong to it.
    fn start(&mut self, phase: usize, second: bool, out: &mut Outbox<Msg<R>>) {
        self.gc = Some(self.rule.graded(self.me, phase, self.value));
        self.drive(0, phase, second, &[], out);
    }

    fn finish(&mut self) {
        self.out = Some(PhaseOutput {
            value: self.decision.unwrap_or(self.value),
            decision: self.decision,
        });
    }
}

impl<R: Rule> Process for Phases<R> {
    type Msg = Msg<R>;
    type Output = PhaseOutput;

    fn step(&mut self, round: u64, inbox: &[Envelope<Msg<R>>], out: &mut Outbox<Msg<R>>) {
        if self.out.is_some() {
            return;
        }
        let phase = (round / 5) as usize;
        let off = round % 5;
        if phase > self.phases || (phase == self.phases && off > 0) {
            return;
        }
        match off {
            0 => {
                if phase > 0 {
                    // The previous phase's second graded consensus
                    // outputs in this round.
                    let graded = self
                        .drive(2, phase - 1, true, inbox, out)
                        .expect("graded consensus outputs at step 2");
                    self.value = graded.value;
                    if self.decision.is_some() {
                        // Decided one phase ago: return now.
                        self.finish();
                        return;
                    }
                    if graded.grade == 2 {
                        self.decision = Some(graded.value);
                    }
                }
                if phase == self.phases {
                    self.finish();
                    return;
                }
                self.start(phase, false, out);
            }
            1 | 4 => {
                self.drive(1, phase, off == 4, inbox, out);
            }
            2 => {
                let graded = self
                    .drive(2, phase, false, inbox, out)
                    .expect("graded consensus outputs at step 2");
                self.value = graded.value;
                self.first_grade = graded.grade;
                self.rule.send_middle(self.me, phase, self.value, out);
            }
            3 => {
                if self.first_grade < 2 {
                    if let Some(v) = self.rule.middle_value(phase, inbox, out) {
                        self.value = v;
                    }
                }
                self.start(phase, true, out);
            }
            _ => unreachable!("off < 5"),
        }
    }

    fn output(&self) -> Option<PhaseOutput> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreSetGcMsg, PhaseKing, UnauthBaWithClassification};
    use ba_graded::UnauthGcMsg;
    use ba_sim::{AdversaryCtx, FnAdversary, Runner};
    use std::sync::Arc;

    /// Runs 14 honest processes with input 4 while faulty p14 replays
    /// phase-0 `First` traffic during phase 1; returns every output.
    fn replay_phase_zero<R: Rule>(
        make: impl Fn(ProcessId) -> Phases<R>,
        replayed: <R::Gc as Process>::Msg,
    ) -> Vec<PhaseOutput> {
        let n = 15;
        let replayed = Rc::new(replayed);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Msg<R>>| {
            if (5..=9).contains(&ctx.round) {
                let inner = Rc::clone(&replayed);
                ctx.broadcast(ProcessId(14), PhaseMsg::First { phase: 0, inner });
            }
        });
        let procs: Vec<_> = ProcessId::all(n - 1).map(make).collect();
        let mut runner = Runner::new(n, procs, adv);
        runner.run(40).outputs.into_values().collect()
    }

    #[test]
    fn cross_phase_replay_is_ignored() {
        // Honest processes must not route phase-0 traffic into live
        // sub-protocols of phase 1, under either rule: unanimity holds.
        let order: Arc<Vec<ProcessId>> = Arc::new(ProcessId::all(15).collect());
        let classified = replay_phase_zero(
            |id| UnauthBaWithClassification::new(id, 15, 1, Value(4), Arc::clone(&order)),
            CoreSetGcMsg::Input(Value(999)),
        );
        let king = replay_phase_zero(
            |id| PhaseKing::full(id, 15, 4, Value(4)),
            UnauthGcMsg::Vote(Value(999)),
        );
        for outputs in [classified, king] {
            assert_eq!(outputs.len(), 14);
            for o in outputs {
                assert_eq!(o.value, Value(4));
            }
        }
    }
}
