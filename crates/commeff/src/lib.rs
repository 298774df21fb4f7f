//! # ba-commeff — communication-efficient BA with predictions
//!
//! The source paper buys *time* with predictions but leaves message
//! complexity quadratic; the follow-up *Communication Efficient
//! Byzantine Agreement with Predictions* (Dzulfikar–Gilbert, 2026)
//! shows the same prediction advantage is compatible with subquadratic
//! communication when the predictions are accurate. This crate
//! reproduces that trade-off in the repository's execution model
//! (`t < n/3`, no signatures) as a two-lane protocol:
//!
//! 1. **Committee-sampled fast lane** (5 rounds, `O(n · f̂)` messages):
//!    each process derives a *committee* from its own prediction string
//!    — the first `2f̂ + 1` identifiers it predicts honest, where `f̂`
//!    is the number of processes it predicts faulty — and routes its
//!    input through the committee instead of all-to-all. Committee
//!    members that provably heard from `n − t` processes aggregate,
//!    report, collect acknowledgements, and certify a decision.
//! 2. **Prediction-checked fallback** (phase-king, `O(t)` rounds): any
//!    inconsistency the fast lane surfaces — missing reports, split
//!    report values, aggregators that could not certify — diverts the
//!    run into a full early-stopping phase-king agreement seeded with
//!    the fast lane's tentative values.
//!
//! With accurate predictions and `f` actual faults the fast lane
//! decides in 5 rounds using `Θ(n · f)` messages of constant size —
//! asymptotically below both the wrappers' and the baselines' `Ω(n²)`
//! — and wrong predictions cost the fallback's rounds, never safety
//! against the execution-scale adversary gallery.
//!
//! *Conditional correctness.* Like [`ba_early::TruncatedDs`], the fast
//! lane's certify step assumes faulty processes cannot split the
//! honest view of broadcast traffic: against the repository's
//! execution-scale adversaries (silence, replay — see the driver's
//! degradation rules) every honest process observes identical report
//! and certificate sets, so the fast/fallback choice is uniform. A
//! fully Byzantine equivocator *can* split the unsigned lane choice
//! (pinned by `full_equivocation_can_split_the_unsigned_lane_choice`);
//! the [`signed`] variant ([`CommEffSigned`]) removes exactly that
//! conditionality with transferable certify certificates.

#![forbid(unsafe_code)]

pub mod signed;

pub use signed::{CommEffSigned, CommEffSignedMsg};

use ba_core::BitVec;
use ba_early::{PhaseKing, PhaseKingMsg};
use ba_sim::{
    distinct_values_by_sender, plurality_smallest, step_sub, Envelope, Outbox, Process, ProcessId,
    Tally, Value, WireSize,
};
use std::rc::Rc;

/// First fallback round: the fast lane occupies steps `0..=4`.
pub(crate) const FALLBACK_START: u64 = 5;

/// Messages of the communication-efficient pipeline. Every fast-lane
/// variant is bound to exactly one protocol step, so traffic replayed
/// across rounds is inert.
#[derive(Clone, Debug)]
pub enum CommEffMsg {
    /// Step 0 → committee: the sender's input value.
    Submit(Value),
    /// Step 1 → all: an active aggregator's plurality over the inputs
    /// it collected.
    Report(Value),
    /// Step 2 → committee: the sender's tentative value and whether the
    /// reports it saw were unanimous.
    Ack {
        /// Tentative value adopted from the reports (or own input).
        value: Value,
        /// Whether every received report carried the same value.
        happy: bool,
    },
    /// Step 3 → all: an aggregator certifying that `n − t` processes
    /// acknowledged the same value happily.
    Commit(Value),
    /// Step 3 → all: an aggregator that could not certify; forces the
    /// fallback lane everywhere.
    Retreat,
    /// Steps 5+: wrapped phase-king fallback traffic.
    Fallback(Rc<PhaseKingMsg>),
}

/// A discriminant byte plus the variant's payload.
impl WireSize for CommEffMsg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            CommEffMsg::Submit(v) | CommEffMsg::Report(v) | CommEffMsg::Commit(v) => v.wire_bytes(),
            CommEffMsg::Ack { value, happy } => value.wire_bytes() + happy.wire_bytes(),
            CommEffMsg::Retreat => 0,
            CommEffMsg::Fallback(inner) => inner.wire_bytes(),
        }
    }
}

/// One process's state machine for the communication-efficient
/// pipeline.
///
/// # Examples
///
/// ```
/// use ba_commeff::CommEff;
/// use ba_core::{BitVec, PredictionMatrix};
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
/// use std::collections::BTreeSet;
///
/// // n = 7, one silent fault (p6), perfect predictions.
/// let n = 7;
/// let faulty: BTreeSet<ProcessId> = [ProcessId(6)].into_iter().collect();
/// let matrix = PredictionMatrix::perfect(n, &faulty);
/// let procs: Vec<CommEff> = (0..6u32)
///     .map(|i| {
///         let id = ProcessId(i);
///         CommEff::new(id, n, 2, Value(9), matrix.row(id).clone())
///     })
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(CommEff::rounds(2));
/// assert_eq!(report.decision(), Some(&Value(9)));
/// assert_eq!(report.last_decision_round, Some(4), "fast lane");
/// ```
pub struct CommEff {
    me: ProcessId,
    n: usize,
    t: usize,
    input: Value,
    prediction: BitVec,
    committee: Vec<ProcessId>,
    /// Whether the prediction was degenerate (no fillable committee):
    /// the process drives no fast-lane traffic and leans toward the
    /// fallback.
    degenerate: bool,
    /// Set at step 1 when this process received `n − t` submissions.
    active: bool,
    tentative: Value,
    fallback: Option<PhaseKing>,
    out: Option<Value>,
}

impl std::fmt::Debug for CommEff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommEff")
            .field("me", &self.me)
            .field("committee", &self.committee)
            .field("active", &self.active)
            .field("fallback", &self.fallback.is_some())
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl CommEff {
    /// Total round budget: the 5-round fast lane plus the full
    /// phase-king fallback.
    pub fn rounds(t: usize) -> u64 {
        FALLBACK_START + PhaseKing::rounds(PhaseKing::phases_for(t))
    }

    /// Creates the state machine for process `me`.
    ///
    /// `prediction` is `me`'s n-bit prediction string (bit `j` set ⇔
    /// `pⱼ` predicted honest), exactly as handed to the paper's
    /// Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        assert!(3 * t < n, "communication-efficient BA needs 3t < n");
        assert_eq!(prediction.len(), n, "prediction must have n bits");
        let (committee, degenerate) = match Self::committee_of(&prediction) {
            Some(c) => (c, false),
            None => (Vec::new(), true),
        };
        CommEff {
            me,
            n,
            t,
            input,
            prediction,
            committee,
            degenerate,
            active: false,
            tentative: input,
            fallback: None,
            out: None,
        }
    }

    /// The committee a prediction string induces: the first
    /// `min(n, 2f̂ + 1)` identifiers the string predicts *honest*, where
    /// `f̂` is the number of predicted-faulty processes. Accurate
    /// predictions make every honest process sample the same, fully
    /// honest committee of size `2f + 1`.
    ///
    /// Returns `None` for *degenerate* predictions — strings that mark
    /// fewer than `min(n, 2f̂ + 1)` identifiers trusted (e.g. an
    /// all-suspect string), so the committee cannot be filled from
    /// trusted identifiers alone. Earlier revisions silently padded the
    /// committee with predicted-faulty identifiers, which breaks the
    /// fast lane's "at most `f̂` of `2f̂ + 1` members faulty" premise; a
    /// degenerate prediction now diverts its holder to the fallback
    /// lane instead (it drives no fast-lane traffic and falls back at
    /// the certify checkpoint unless a consistent certificate view
    /// arrives from non-degenerate peers).
    pub fn committee_of(prediction: &BitVec) -> Option<Vec<ProcessId>> {
        let n = prediction.len();
        let predicted_faulty = n - prediction.count_ones();
        let size = n.min(2 * predicted_faulty + 1);
        let committee: Vec<ProcessId> = (0..n)
            .filter(|&j| prediction.get(j))
            .take(size)
            .map(|j| ProcessId(j as u32))
            .collect();
        (committee.len() == size).then_some(committee)
    }

    /// This process's sampled committee (empty when the prediction was
    /// degenerate — see [`CommEff::committee_of`]).
    pub fn committee(&self) -> &[ProcessId] {
        &self.committee
    }

    /// Whether the prediction was degenerate (fewer than `2f̂ + 1`
    /// trusted identifiers): the process drives no fast-lane traffic.
    pub fn degenerate(&self) -> bool {
        self.degenerate
    }

    /// The raw prediction string this process acts on — the pipeline's
    /// classification surface (it trusts predictions unrefined, so its
    /// realized `k_A` measures raw prediction quality).
    pub fn prediction(&self) -> &BitVec {
        &self.prediction
    }

    /// Whether the fallback lane was engaged.
    pub fn fell_back(&self) -> bool {
        self.fallback.is_some()
    }

    fn step_fallback(
        &mut self,
        round: u64,
        inbox: &[Envelope<CommEffMsg>],
        out: &mut Outbox<CommEffMsg>,
    ) {
        let Some(inner) = self.fallback.as_mut() else {
            return;
        };
        step_sub(
            inner,
            round - FALLBACK_START,
            inbox,
            out,
            |m| match m {
                CommEffMsg::Fallback(x) => Some(Rc::clone(x)),
                _ => None,
            },
            CommEffMsg::Fallback,
        );
        if let Some(o) = inner.output() {
            self.out = Some(o.decision.unwrap_or(o.value));
        }
    }
}

impl Process for CommEff {
    type Msg = CommEffMsg;
    type Output = Value;

    fn step(&mut self, round: u64, inbox: &[Envelope<CommEffMsg>], out: &mut Outbox<CommEffMsg>) {
        if self.out.is_some() && self.fallback.is_none() {
            return; // fast-lane decision reached; nothing left to send
        }
        match round {
            // Step 0: route the input to the sampled committee.
            0 => out.multicast(
                self.committee.iter().copied(),
                CommEffMsg::Submit(self.input),
            ),
            // Step 1: processes trusted by n − t peers aggregate.
            // Degenerate predictions drive no fast-lane traffic, so
            // their holders never activate as aggregators either.
            1 => {
                if self.degenerate {
                    return;
                }
                let submits = distinct_values_by_sender(inbox, |m| match m {
                    CommEffMsg::Submit(v) => Some(*v),
                    _ => None,
                });
                if submits.len() >= self.n - self.t {
                    self.active = true;
                    let v = plurality_smallest(submits.values().copied())
                        .expect("n − t ≥ 1 submissions");
                    out.broadcast(CommEffMsg::Report(v));
                }
            }
            // Step 2: adopt the report plurality, acknowledge happiness.
            2 => {
                let reports = distinct_values_by_sender(inbox, |m| match m {
                    CommEffMsg::Report(v) => Some(*v),
                    _ => None,
                });
                let happy = !reports.is_empty()
                    && reports
                        .values()
                        .all(|v| *v == *reports.values().next().expect("non-empty"));
                self.tentative =
                    plurality_smallest(reports.values().copied()).unwrap_or(self.input);
                out.multicast(
                    self.committee.iter().copied(),
                    CommEffMsg::Ack {
                        value: self.tentative,
                        happy,
                    },
                );
            }
            // Step 3: aggregators certify n − t happy acknowledgements
            // of one value, or force the fallback.
            3 => {
                if !self.active {
                    return;
                }
                let acks = distinct_values_by_sender(inbox, |m| match m {
                    CommEffMsg::Ack { value, happy } => Some((*value, *happy)),
                    _ => None,
                });
                let mut happy_votes = Tally::new();
                for (value, happy) in acks.values() {
                    if *happy {
                        happy_votes.add(*value);
                    }
                }
                // Acks are one-per-sender and n − t > n/2, so at most
                // one value can reach the certification quorum.
                match happy_votes.first_reaching(self.n - self.t) {
                    Some(&v) => out.broadcast(CommEffMsg::Commit(v)),
                    None => out.broadcast(CommEffMsg::Retreat),
                }
            }
            // Step 4: a clean, unanimous certificate set decides; any
            // gap or retreat diverts into the fallback lane.
            4 => {
                let certs = distinct_values_by_sender(inbox, |m| match m {
                    CommEffMsg::Commit(v) => Some(Some(*v)),
                    CommEffMsg::Retreat => Some(None),
                    _ => None,
                });
                let commits: Vec<Value> = certs.values().filter_map(|c| *c).collect();
                let retreats = certs.values().any(|c| c.is_none());
                let unanimous = commits.windows(2).all(|w| w[0] == w[1]);
                if !commits.is_empty() && !retreats && unanimous {
                    self.out = Some(commits[0]);
                } else {
                    self.fallback = Some(PhaseKing::new(
                        self.me,
                        self.n,
                        self.t,
                        self.tentative,
                        PhaseKing::phases_for(self.t),
                    ));
                }
            }
            _ => self.step_fallback(round, inbox, out),
        }
    }

    fn output(&self) -> Option<Value> {
        self.out
    }

    fn halted(&self) -> bool {
        match &self.fallback {
            Some(inner) => inner.halted(),
            None => self.out.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_core::PredictionMatrix;
    use ba_sim::{ReplayAdversary, Runner, SilentAdversary};
    use std::collections::{BTreeMap, BTreeSet};

    fn faults(ids: &[u32]) -> BTreeSet<ProcessId> {
        ids.iter().copied().map(ProcessId).collect()
    }

    fn system(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        matrix: &PredictionMatrix,
        input: impl Fn(usize) -> u64,
    ) -> BTreeMap<ProcessId, CommEff> {
        ProcessId::all(n)
            .filter(|id| !faulty.contains(id))
            .enumerate()
            .map(|(slot, id)| {
                (
                    id,
                    CommEff::new(id, n, t, Value(input(slot)), matrix.row(id).clone()),
                )
            })
            .collect()
    }

    #[test]
    fn fast_lane_decides_in_five_rounds_with_perfect_predictions() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 6), SilentAdversary);
        let report = runner.run(CommEff::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert_eq!(report.last_decision_round, Some(4));
    }

    #[test]
    fn fast_lane_agrees_on_split_inputs() {
        let n = 13;
        let f = faults(&[1, 6]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(
            n,
            system(n, 4, &f, &m, |slot| 1 + (slot % 2) as u64),
            SilentAdversary,
        );
        let report = runner.run(CommEff::rounds(4));
        assert!(report.agreement());
        assert_eq!(report.last_decision_round, Some(4), "still the fast lane");
    }

    #[test]
    fn garbage_predictions_divert_into_the_fallback_and_still_agree() {
        // All-honest predictions put a single (faulty, silent) process
        // on every committee: no aggregator ever activates, so the run
        // must divert into phase-king and still decide unanimously.
        let n = 7;
        let f = faults(&[0]);
        let m = PredictionMatrix::all_honest(n);
        let mut runner = Runner::with_ids(n, system(n, 2, &f, &m, |_| 9), SilentAdversary);
        let report = runner.run(CommEff::rounds(2));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(9)), "unanimity survives");
        assert!(
            report.last_decision_round.expect("decided") > 4,
            "fallback lane"
        );
        assert!(runner.process(ProcessId(1)).expect("honest").fell_back());
    }

    #[test]
    fn divergent_committees_fall_back_consistently() {
        // Wrong bits scattered over the rows: committees differ, some
        // aggregators retreat — every honest process must make the same
        // lane choice and agree.
        let n = 10;
        let f = faults(&[4, 8]);
        let mut m = PredictionMatrix::perfect(n, &f);
        m.row_mut(ProcessId(0)).flip(1);
        m.row_mut(ProcessId(2)).flip(4);
        m.row_mut(ProcessId(3)).flip(0);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 5), SilentAdversary);
        let report = runner.run(CommEff::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(5)));
    }

    #[test]
    fn equivocating_committee_certifier_forces_the_fallback() {
        // Active equivocation inside the fast lane: every honest process
        // predicts the faulty p2 honest (missed detection) and suspects
        // the honest p9, so the shared committee is {0, 1, 2} with the
        // Byzantine p2 seated as an aggregator. p2 equivocates its
        // *report* (5 to evens, 77 to odds), souring half the
        // acknowledgements so no honest aggregator can certify, and then
        // sends conflicting *certify* messages to disjoint honest
        // halves. Every honest process must distrust the fast lane —
        // uniformly — and the fallback must still reach the unanimous
        // honest value.
        use ba_sim::{AdversaryCtx, FnAdversary};
        let n = 10;
        let t = 3;
        let f = faults(&[2]);
        let mut m = PredictionMatrix::perfect(n, &f);
        for row in ProcessId::all(n).filter(|p| !f.contains(p)) {
            m.row_mut(row).set(2, true); // trust the traitor
            m.row_mut(row).set(9, false); // suspect an innocent
        }
        let committee = CommEff::committee_of(m.row(ProcessId(0))).expect("non-degenerate");
        assert_eq!(
            committee,
            vec![ProcessId(0), ProcessId(1), ProcessId(2)],
            "fixture: the faulty process must sit on the committee"
        );
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, CommEffMsg>| {
            match ctx.round {
                // Split the report lane: honest acks come back unhappy.
                1 => {
                    for to in ProcessId::all(10) {
                        let v = if to.0 % 2 == 0 { Value(5) } else { Value(77) };
                        ctx.send(ProcessId(2), to, CommEffMsg::Report(v));
                    }
                }
                // Conflicting certificates to disjoint honest halves.
                3 => {
                    for to in ProcessId::all(10) {
                        let v = if to.0 < 5 { Value(5) } else { Value(77) };
                        ctx.send(ProcessId(2), to, CommEffMsg::Commit(v));
                    }
                }
                _ => {}
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, |_| 5), adv);
        let report = runner.run(CommEff::rounds(t));
        assert!(report.agreement(), "equivocation must not split the halves");
        assert_eq!(report.decision(), Some(&Value(5)), "unanimity survives");
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            assert!(
                runner.process(id).expect("honest").fell_back(),
                "{id} trusted an equivocated certificate set"
            );
        }
        assert!(
            report.last_decision_round.expect("decided") > 4,
            "decision must come from the fallback lane"
        );
    }

    #[test]
    fn replayed_traffic_is_inert() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 6), ReplayAdversary::new(1));
        let report = runner.run(CommEff::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert_eq!(report.last_decision_round, Some(4), "replay cannot stall");
    }

    #[test]
    fn full_equivocation_can_split_the_unsigned_lane_choice() {
        // Pins the *documented conditional* behaviour of the unsigned
        // fast lane (module docs: the certify step assumes faulty
        // processes cannot split the honest view of broadcast traffic).
        // With all-honest predictions the shared committee is the single
        // identifier p0 — which is faulty. p0 equivocates its report
        // (7 to evens, 9 to odds) and then delivers a certificate to the
        // even half only: the evens decide in the fast lane while the
        // odds divert into a fallback that can never reach quorum. This
        // split is exactly what `CommEffSigned`'s transferable,
        // echo-forwarded certificates remove — see
        // `crate::signed::tests::withheld_certificates_cannot_split_the_signed_lane`.
        use ba_sim::{AdversaryCtx, FnAdversary};
        let n = 7;
        let t = 2;
        let f = faults(&[0]);
        let m = PredictionMatrix::all_honest(n);
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, CommEffMsg>| match ctx.round {
            1 => {
                for to in ProcessId::all(7) {
                    let v = if to.0.is_multiple_of(2) {
                        Value(7)
                    } else {
                        Value(9)
                    };
                    ctx.send(ProcessId(0), to, CommEffMsg::Report(v));
                }
            }
            3 => {
                for to in ProcessId::all(7).filter(|p| p.0.is_multiple_of(2)) {
                    ctx.send(ProcessId(0), to, CommEffMsg::Commit(Value(7)));
                }
            }
            _ => {}
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, |_| 7), adv);
        let report = runner.run(CommEff::rounds(t));
        let fell_back: Vec<bool> = ProcessId::all(n)
            .filter(|p| !f.contains(p))
            .map(|id| runner.process(id).expect("honest").fell_back())
            .collect();
        assert!(
            fell_back.iter().any(|b| *b) && fell_back.iter().any(|b| !*b),
            "the unsigned lane choice must split under this equivocation \
             (got {fell_back:?}) — if this starts failing, the documented \
             conditionality has changed and the signed variant's contrast \
             tests need revisiting"
        );
        assert!(
            !report.all_decided(),
            "the under-quorum fallback half cannot decide"
        );
    }

    #[test]
    fn fast_lane_is_subquadratic_in_messages() {
        // With accurate predictions and f fixed, the fast lane costs
        // Θ(n · f) constant-size messages: for n = 31, 2 faults it must
        // stay far below the n² of a single all-to-all round.
        let n = 31;
        let f = faults(&[11, 23]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(n, system(n, 10, &f, &m, |_| 2), SilentAdversary);
        let report = runner.run(CommEff::rounds(10));
        assert_eq!(report.last_decision_round, Some(4));
        assert!(
            report.honest_messages < (n * n) as u64,
            "got {} messages",
            report.honest_messages
        );
        // Constant-size payloads: ≤ 10 bytes each.
        assert!(report.honest_bytes <= report.honest_messages * 10);
    }

    #[test]
    fn committee_tracks_the_predicted_fault_count() {
        let mut p = BitVec::ones(9);
        assert_eq!(CommEff::committee_of(&p), Some(vec![ProcessId(0)]));
        p.set(2, false); // one predicted fault → 2f̂ + 1 = 3 members
        assert_eq!(
            CommEff::committee_of(&p),
            Some(vec![ProcessId(0), ProcessId(1), ProcessId(3)]),
            "suspects are skipped"
        );
        // All suspected: no trusted identifier can seat the committee.
        assert_eq!(CommEff::committee_of(&BitVec::zeros(3)), None);
        let mut tight = BitVec::ones(9);
        for j in 0..4 {
            tight.set(j, false); // f̂ = 4 → min(9, 2·4 + 1) = 9 seats, 5 trusted
        }
        assert_eq!(
            CommEff::committee_of(&tight),
            None,
            "5 trusted ids cannot seat a 9-member committee"
        );
        let mut exact = BitVec::ones(9);
        exact.set(0, false); // f̂ = 1 → 3 seats, 8 trusted
        assert_eq!(
            CommEff::committee_of(&exact),
            Some(vec![ProcessId(1), ProcessId(2), ProcessId(3)]),
            "committee contains trusted identifiers only"
        );
    }

    #[test]
    fn all_suspect_predictions_divert_to_the_fallback() {
        // Regression for the degenerate-committee edge case: an
        // all-suspect prediction used to build a committee padded with
        // the very identifiers it distrusts; it must instead divert the
        // run into the fallback lane — uniformly — and still agree.
        let n = 7;
        let f = faults(&[0]);
        let m = PredictionMatrix::from_rows(vec![BitVec::zeros(n); n]);
        let mut runner = Runner::with_ids(n, system(n, 2, &f, &m, |_| 9), SilentAdversary);
        let report = runner.run(CommEff::rounds(2));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(9)), "unanimity survives");
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            let p = runner.process(id).expect("honest");
            assert!(p.degenerate(), "{id} should have no fillable committee");
            assert!(p.committee().is_empty());
            assert!(p.fell_back(), "{id} must divert to the fallback lane");
        }
        assert!(
            report.last_decision_round.expect("decided") > 4,
            "decision must come from the fallback lane"
        );
    }

    #[test]
    fn message_sizes_follow_the_wire_model() {
        assert_eq!(CommEffMsg::Submit(Value(1)).wire_bytes(), 9);
        assert_eq!(
            CommEffMsg::Ack {
                value: Value(1),
                happy: true
            }
            .wire_bytes(),
            10
        );
        assert_eq!(CommEffMsg::Retreat.wire_bytes(), 1);
    }

    #[test]
    #[should_panic(expected = "3t < n")]
    fn rejects_too_many_faults() {
        let _ = CommEff::new(ProcessId(0), 9, 3, Value(0), BitVec::ones(9));
    }
}
