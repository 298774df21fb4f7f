//! Unauthenticated graded consensus for `t < n/3` (substitution S2).
//!
//! A 2-round quorum protocol in the lineage of crusader agreement /
//! adopt-commit, standing in for the signature-free graded consensus of
//! Civit et al. \[14\] that the paper invokes in Theorem 7 (2 rounds,
//! `O(n²)` messages, `t < n/3`).
//!
//! ## Protocol
//!
//! * **Round 1 (vote).** Broadcast the input value. Let `cnt₁(v)` count
//!   distinct voters per value; if some `v` has `cnt₁(v) ≥ n − t`, bind
//!   `b := v` (at most one value can reach the quorum).
//! * **Round 2 (echo).** If bound, broadcast `b`. Let `cnt₂(v)` count
//!   distinct echoers, `v* := argmax cnt₂` (ties toward the smaller
//!   value). Output:
//!   * `(v*, 2)` if `cnt₂(v*) ≥ n − t`,
//!   * `(v*, 1)` if `cnt₂(v*) ≥ t + 1`,
//!   * `(input, 0)` otherwise.
//!
//! ## Why it is correct (`3t < n`)
//!
//! *Binding uniqueness.* If honest `pᵢ` binds `v` and `pⱼ` binds `w`, the
//! two vote quorums (distinct-sender sets of size `n − t`) intersect in
//! `≥ n − 2t ≥ t + 1` senders, so some **honest** sender voted both — so
//! `v = w`. Hence all honest round-2 echoes carry one common value `b*`,
//! and any other value receives at most `t` echoes (faulty only).
//!
//! *Strong Unanimity.* Unanimous input `v`: every honest process sees
//! `≥ n − t` votes and `≥ n − t` echoes for `v`, and junk stays `≤ t <
//! n − t`, so all output `(v, 2)`.
//!
//! *Grade-2 coherence.* If `pᵢ` outputs `(v, 2)` then `≥ n − 2t ≥ t + 1`
//! honest processes echoed `v`, so every honest `pₖ` has `cnt₂(v) ≥ t+1 >
//! t ≥ cnt₂(w)` for all `w ≠ v` (junk bound): `v* = v` with grade ≥ 1 at
//! every honest process — the paper's Coherence property under the
//! mapping paper-grade 1 := grade 2.
//!
//! *Grade-1 agreement.* Grade ≥ 1 requires `cnt₂ ≥ t + 1`, i.e. at least
//! one honest echo, so the value is the common binding `b*`.

use crate::Graded;
use ba_sim::{distinct_values_by_sender, Envelope, Outbox, Process, Tally, Value};

/// Messages of [`UnauthGraded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnauthGcMsg {
    /// Round-1 vote carrying the sender's input.
    Vote(Value),
    /// Round-2 echo carrying the sender's bound value.
    Echo(Value),
}

/// A discriminant byte plus the carried value.
impl ba_sim::WireSize for UnauthGcMsg {
    fn wire_bytes(&self) -> u64 {
        let (UnauthGcMsg::Vote(v) | UnauthGcMsg::Echo(v)) = self;
        1 + v.wire_bytes()
    }
}

/// One process's state machine for unauthenticated graded consensus.
///
/// Implements [`ba_sim::Process`]; two communication rounds, output
/// available from step 2 onward. Requires `3t < n`.
///
/// # Examples
///
/// ```
/// use ba_graded::UnauthGraded;
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
///
/// let n = 4;
/// let procs: Vec<_> = (0..n)
///     .map(|i| UnauthGraded::new(ProcessId(i as u32), n, 1, Value(7)))
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(4);
/// // Unanimous input: everyone returns (7, grade 2).
/// for out in report.outputs.values() {
///     assert_eq!(out.value, Value(7));
///     assert_eq!(out.grade, 2);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct UnauthGraded {
    me: ba_sim::ProcessId,
    n: usize,
    t: usize,
    input: Value,
    bound: Option<Value>,
    out: Option<Graded>,
}

impl UnauthGraded {
    /// Number of communication rounds this protocol uses.
    pub const ROUNDS: u64 = 2;

    /// Creates the state machine for process `me` with the given input.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` (the protocol's resilience bound, Theorem 7
    /// of the paper).
    pub fn new(me: ba_sim::ProcessId, n: usize, t: usize, input: Value) -> Self {
        assert!(3 * t < n, "unauthenticated graded consensus needs 3t < n");
        UnauthGraded {
            me,
            n,
            t,
            input,
            bound: None,
            out: None,
        }
    }

    /// The input this process started with.
    pub fn input(&self) -> Value {
        self.input
    }

    /// This process's identifier.
    pub fn id(&self) -> ba_sim::ProcessId {
        self.me
    }

    fn quorum(&self) -> usize {
        self.n - self.t
    }
}

impl Process for UnauthGraded {
    type Msg = UnauthGcMsg;
    type Output = Graded;

    fn step(&mut self, round: u64, inbox: &[Envelope<UnauthGcMsg>], out: &mut Outbox<UnauthGcMsg>) {
        match round {
            0 => out.broadcast(UnauthGcMsg::Vote(self.input)),
            1 => {
                let votes = distinct_values_by_sender(inbox, |_, m| match m {
                    UnauthGcMsg::Vote(v) => Some(*v),
                    _ => None,
                });
                let tally: Tally<Value> = votes.into_values().collect();
                self.bound = tally.first_reaching(self.quorum()).copied();
                if let Some(b) = self.bound {
                    out.broadcast(UnauthGcMsg::Echo(b));
                }
            }
            2 => {
                let echoes = distinct_values_by_sender(inbox, |_, m| match m {
                    UnauthGcMsg::Echo(v) => Some(*v),
                    _ => None,
                });
                let tally: Tally<Value> = echoes.into_values().collect();
                let out_pair = match tally.plurality() {
                    None => Graded::new(self.input, 0),
                    Some(&v_star) => {
                        let c = tally.count(&v_star);
                        if c >= self.quorum() {
                            Graded::new(v_star, 2)
                        } else if c > self.t {
                            Graded::new(v_star, 1)
                        } else {
                            Graded::new(self.input, 0)
                        }
                    }
                };
                self.out = Some(out_pair);
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<Graded> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{AdversaryCtx, FnAdversary, ProcessId, Runner, SilentAdversary};

    fn system(n: usize, t: usize, inputs: &[u64]) -> Vec<UnauthGraded> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| UnauthGraded::new(ProcessId(i as u32), n, t, Value(v)))
            .collect()
    }

    #[test]
    fn strong_unanimity_with_silent_faults() {
        // n = 7, t = 2, both faulty silent, all honest propose 3.
        let mut runner = Runner::new(7, system(7, 2, &[3; 5]), SilentAdversary);
        let report = runner.run(4);
        assert!(report.all_decided());
        for g in report.outputs.values() {
            assert_eq!((g.value, g.grade), (Value(3), 2));
        }
    }

    #[test]
    fn mixed_inputs_never_fabricate_grade_without_quorum() {
        // Split inputs 0/1 with no faults: nobody reaches the vote quorum
        // for a single value, so everyone keeps its input at grade 0.
        let mut runner = Runner::new(6, system(6, 1, &[0, 0, 0, 1, 1, 1]), SilentAdversary);
        let report = runner.run(4);
        for (id, g) in &report.outputs {
            assert_eq!(g.grade, 0);
            let expect = if id.index() < 3 { 0 } else { 1 };
            assert_eq!(g.value, Value(expect));
        }
    }

    #[test]
    fn grade2_coherence_under_equivocating_votes() {
        // n = 4, t = 1. Honest inputs 5,5,5. The faulty process p3 votes 5
        // to two processes and 9 to the third, then echoes 9 everywhere.
        // No honest process may end with a value other than 5 if anyone
        // reaches grade 2.
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, UnauthGcMsg>| match ctx.round {
            0 => {
                ctx.send(ProcessId(3), ProcessId(0), UnauthGcMsg::Vote(Value(5)));
                ctx.send(ProcessId(3), ProcessId(1), UnauthGcMsg::Vote(Value(5)));
                ctx.send(ProcessId(3), ProcessId(2), UnauthGcMsg::Vote(Value(9)));
            }
            1 => {
                ctx.broadcast(ProcessId(3), UnauthGcMsg::Echo(Value(9)));
            }
            _ => {}
        });
        let mut runner = Runner::new(4, system(4, 1, &[5, 5, 5]), adv);
        let report = runner.run(4);
        let outs: Vec<Graded> = report.outputs.values().copied().collect();
        let any_grade2 = outs.iter().any(|g| g.grade == 2);
        if any_grade2 {
            assert!(outs.iter().all(|g| g.value == Value(5) && g.grade >= 1));
        }
        // Junk value 9 can never be adopted: only the single faulty echo
        // supports it (≤ t < t+1).
        assert!(outs.iter().all(|g| g.value != Value(9)));
    }

    #[test]
    fn grade1_values_agree_across_honest_processes() {
        // Adversary gives the vote quorum for 1 to some processes only, so
        // grades split — but all grade ≥ 1 values must agree.
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, UnauthGcMsg>| match ctx.round {
            0 => {
                // p6 completes the quorum for value 1 at p0..p2 only.
                for to in 0..3 {
                    ctx.send(ProcessId(6), ProcessId(to), UnauthGcMsg::Vote(Value(1)));
                }
                ctx.send(ProcessId(5), ProcessId(0), UnauthGcMsg::Vote(Value(1)));
                ctx.send(ProcessId(5), ProcessId(1), UnauthGcMsg::Vote(Value(1)));
            }
            1 => {
                ctx.send(ProcessId(6), ProcessId(0), UnauthGcMsg::Echo(Value(1)));
            }
            _ => {}
        });
        // n = 7, t = 2; honest inputs: three 1s and two 8s.
        let mut runner = Runner::new(7, system(7, 2, &[1, 1, 1, 8, 8]), adv);
        let report = runner.run(4);
        let graded: Vec<&Graded> = report.outputs.values().collect();
        let adopted: Vec<Value> = graded
            .iter()
            .filter(|g| g.grade >= 1)
            .map(|g| g.value)
            .collect();
        assert!(
            adopted.windows(2).all(|w| w[0] == w[1]),
            "grade>=1 values diverged: {adopted:?}"
        );
    }

    #[test]
    fn duplicate_votes_from_one_sender_count_once() {
        // A faulty process floods 20 copies of its vote; the quorum logic
        // must count it once, so value 2 cannot reach the n−t = 3 quorum
        // from 2 honest + 1 flooding faulty... it can — but value 9 backed
        // by the same flooding trick with only one real voter cannot.
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, UnauthGcMsg>| {
            if ctx.round == 0 {
                for _ in 0..20 {
                    ctx.broadcast(ProcessId(3), UnauthGcMsg::Vote(Value(9)));
                }
            }
        });
        let mut runner = Runner::new(4, system(4, 1, &[5, 5, 5]), adv);
        let report = runner.run(4);
        for g in report.outputs.values() {
            assert_eq!((g.value, g.grade), (Value(5), 2));
        }
    }

    #[test]
    #[should_panic(expected = "3t < n")]
    fn constructor_rejects_bad_resilience() {
        let _ = UnauthGraded::new(ProcessId(0), 6, 2, Value(0));
    }

    #[test]
    fn message_complexity_is_at_most_two_broadcasts_per_process() {
        let n = 9;
        let mut runner = Runner::new(n, system(n, 2, &[4; 9]), SilentAdversary);
        let report = runner.run(4);
        // Each process: one vote + one echo broadcast = 2(n−1) remote
        // messages.
        for &c in report.messages_per_process.values() {
            assert_eq!(c, 2 * (n as u64 - 1));
        }
    }

    #[test]
    fn output_available_exactly_after_two_rounds() {
        let mut runner = Runner::new(4, system(4, 1, &[1, 1, 1, 1]), SilentAdversary);
        let report = runner.run(10);
        assert_eq!(report.last_decision_round, Some(UnauthGraded::ROUNDS));
    }
}
