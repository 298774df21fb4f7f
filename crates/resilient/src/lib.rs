//! # ba-resilient — resilient BA with predictions
//!
//! The source paper and the communication-efficient follow-up both treat
//! predictions as a *lane choice*: a fast path that assumes the hints
//! are good, plus a fallback that abandons them wholesale the moment an
//! inconsistency surfaces. The round cost is therefore a step function
//! of prediction quality — perfect hints are cheap, and one wrong bit
//! past the tolerance cliff costs the entire fallback. *Resilient
//! Byzantine Agreement with Predictions* (Dallot–Melnyk–Milentijevic–
//! Schmid–Welters, 2026) asks for the missing middle: a protocol whose
//! round complexity degrades **gracefully** — proportionally to the
//! realized prediction error — instead of cliff-switching.
//!
//! This crate reproduces that trade-off in the repository's execution
//! model (`t < n/3`, no signatures) by making predictions steer *who
//! leads*, not *which protocol runs*:
//!
//! 1. **Classification exchange** (1 round): every process broadcasts
//!    its `n`-bit prediction string and aggregates the strings it
//!    receives into a per-identifier *suspicion score* — the number of
//!    peers predicting that identifier faulty.
//! 2. **Trust-ordered phase king** (5 rounds per phase): a standard
//!    early-stopping phase-king agreement ([`ba_early::PhaseKing`])
//!    whose throne order is the suspicion order, most-trusted first
//!    ([`king_schedule`]). Accurate predictions put an honest king on
//!    the throne in phase 0; every faulty identifier the error budget
//!    `B` manages to promote above the first honest one costs exactly
//!    one extra (stalled) phase. The round count is thus a staircase in
//!    `B` with unit steps — no fast lane, no cliff — and it can never
//!    exceed the prediction-free baseline by more than the schedule
//!    constant, because at most `f` faulty identifiers exist to be
//!    promoted.
//!
//! Safety never depends on the predictions: deciding requires a grade-2
//! detect consensus exactly as in the baseline, so arbitrarily wrong
//! (or arbitrarily adversarial) hints can only cost rounds. Liveness
//! holds unconditionally too: the king schedule ends with a `t + 2`
//! phase suffix in plain identifier rotation, so even if Byzantine
//! classifications split the honest processes' suspicion views (they
//! are broadcast unauthenticated), every honest process eventually
//! crowns the same honest king.
//!
//! The worst-case budget is `2t + 3` phases — the `t + 1` suspicion-
//! ordered slots plus the unconditional suffix — i.e. within a small
//! constant factor of the baseline's `t + 2`, which is the resilience
//! contract: *graceful* gains when the predictions help, bounded loss
//! when they are garbage.
//!
//! The suffix is insurance against *classification equivocation* (the
//! schedule split is pinned by
//! `equivocated_classifications_split_the_unsigned_schedules`); the
//! [`signed`] variant ([`ResilientSigned`]) replaces the insurance with
//! signed, echoed classifications whose equivocators are convicted by
//! their own signatures — shrinking the budget to `t + 2` phases with
//! no suffix at all.

#![forbid(unsafe_code)]

pub mod signed;

pub use signed::{
    signed_king_schedule, ResilientSigned, ResilientSignedMsg, SignedResilientDisruptor,
};

use ba_core::BitVec;
use ba_early::{PhaseKing, PhaseKingMsg};
use ba_graded::UnauthGcMsg;
use ba_sim::{
    step_sub, Adversary, AdversaryCtx, Envelope, Outbox, Process, ProcessId, Value, WireSize,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Messages of the resilient pipeline. The classification exchange is
/// bound to round 0 and phase-king traffic carries its own phase tags,
/// so replayed messages are inert.
#[derive(Clone, Debug)]
pub enum ResilientMsg {
    /// Round 0 → all: the sender's n-bit prediction string.
    Classify(Arc<BitVec>),
    /// Rounds 1+: wrapped trust-ordered phase-king traffic.
    Phase(Arc<PhaseKingMsg>),
}

/// A discriminant byte plus the variant's payload.
impl WireSize for ResilientMsg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            ResilientMsg::Classify(bits) => bits.wire_bytes(),
            ResilientMsg::Phase(inner) => inner.wire_bytes(),
        }
    }
}

/// The first classification each sender shipped in an envelope batch —
/// the one aggregation view of the round-0 exchange. Honest processes
/// apply it to their round-1 inbox and [`ResilientDisruptor`] applies
/// it to the rushed honest traffic of round 0; both sides *must* go
/// through this function, because the disruptor's schedule
/// reconstruction is only exact while the two aggregations agree.
pub fn classifications_by_sender(
    envelopes: &[Envelope<ResilientMsg>],
) -> BTreeMap<ProcessId, &BitVec> {
    let mut per_sender: BTreeMap<ProcessId, &BitVec> = BTreeMap::new();
    for env in envelopes {
        if let ResilientMsg::Classify(bits) = &*env.payload {
            per_sender.entry(env.from).or_insert(bits);
        }
    }
    per_sender
}

/// Aggregates classification strings into per-identifier suspicion
/// scores: `scores[j]` counts the strings predicting `p_j` faulty.
/// Strings whose length is not `n` are ignored (Byzantine senders may
/// ship garbage).
pub fn suspicion_scores<'a>(
    n: usize,
    classifications: impl IntoIterator<Item = &'a BitVec>,
) -> Vec<usize> {
    let mut scores = vec![0usize; n];
    for c in classifications {
        if c.len() != n {
            continue;
        }
        for (j, s) in scores.iter_mut().enumerate() {
            if !c.get(j) {
                *s += 1;
            }
        }
    }
    scores
}

/// The throne order a suspicion vector induces: the `t + 1` least
/// suspected identifiers (ties toward the smaller id) followed by the
/// unconditional `t + 2`-phase identifier-rotation suffix `p_0 … p_{t+1}`.
///
/// The prefix is where predictions pay: with accurate hints it starts
/// with honest identifiers and the phase-0 king already unifies. The
/// prefix always contains an honest identifier (only `f ≤ t` faulty ones
/// exist, and the prefix has `t + 1` slots), so under a consistent
/// suspicion view the run decides inside the prefix; the suffix is the
/// liveness net for *inconsistent* views seeded by equivocated
/// classifications.
pub fn king_schedule(n: usize, t: usize, suspicion: &[usize]) -> Vec<ProcessId> {
    assert_eq!(suspicion.len(), n, "one suspicion score per identifier");
    assert!(t + 2 <= n, "suffix rotation needs t + 2 identifiers");
    let mut by_trust: Vec<usize> = (0..n).collect();
    by_trust.sort_by_key(|&j| (suspicion[j], j));
    by_trust
        .into_iter()
        .take(t + 1)
        .chain(0..=t + 1)
        .map(|j| ProcessId(j as u32))
        .collect()
}

/// One process's state machine for the resilient pipeline.
///
/// # Examples
///
/// ```
/// use ba_core::{PredictionMatrix, BitVec};
/// use ba_resilient::ResilientBa;
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
/// use std::collections::BTreeSet;
///
/// // n = 7, one silent fault (p6), perfect predictions.
/// let n = 7;
/// let faulty: BTreeSet<ProcessId> = [ProcessId(6)].into_iter().collect();
/// let matrix = PredictionMatrix::perfect(n, &faulty);
/// let procs: Vec<ResilientBa> = (0..6u32)
///     .map(|i| {
///         let id = ProcessId(i);
///         ResilientBa::new(id, n, 2, Value(9), matrix.row(id).clone())
///     })
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(ResilientBa::rounds(2));
/// assert_eq!(report.decision(), Some(&Value(9)));
/// ```
pub struct ResilientBa {
    me: ProcessId,
    n: usize,
    t: usize,
    input: Value,
    prediction: BitVec,
    suspicion: Option<Vec<usize>>,
    classification: Option<BitVec>,
    inner: Option<PhaseKing>,
    out: Option<Value>,
}

impl std::fmt::Debug for ResilientBa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientBa")
            .field("me", &self.me)
            .field("suspicion", &self.suspicion)
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl ResilientBa {
    /// Worst-case phase budget: the `t + 1` suspicion-ordered slots plus
    /// the unconditional `t + 2`-phase rotation suffix.
    pub fn phases(t: usize) -> usize {
        2 * t + 3
    }

    /// Total round budget: one classification round plus the phase-king
    /// rounds of the full schedule.
    pub fn rounds(t: usize) -> u64 {
        1 + PhaseKing::rounds(Self::phases(t))
    }

    /// Creates the state machine for process `me`.
    ///
    /// `prediction` is `me`'s n-bit prediction string (bit `j` set ⇔
    /// `p_j` predicted honest), exactly as handed to the paper's
    /// Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        assert!(3 * t < n, "resilient BA needs 3t < n");
        assert_eq!(prediction.len(), n, "prediction must have n bits");
        ResilientBa {
            me,
            n,
            t,
            input,
            prediction,
            suspicion: None,
            classification: None,
            inner: None,
            out: None,
        }
    }

    /// The raw prediction string this process started from.
    pub fn prediction(&self) -> &BitVec {
        &self.prediction
    }

    /// The aggregated classification — bit `j` set ⇔ a majority of the
    /// received prediction strings trusts `p_j`. This is the pipeline's
    /// probe surface: its realized `k_A` measures prediction quality
    /// *after* the exchange has washed out minority noise, which is the
    /// resilience mechanism in one number. `None` until round 1.
    pub fn classification(&self) -> Option<&BitVec> {
        self.classification.as_ref()
    }

    /// The per-identifier suspicion scores aggregated at round 1.
    pub fn suspicion(&self) -> Option<&[usize]> {
        self.suspicion.as_deref()
    }

    /// The king schedule this process derived (`None` until round 1).
    pub fn schedule(&self) -> Option<Vec<ProcessId>> {
        self.suspicion
            .as_ref()
            .map(|s| king_schedule(self.n, self.t, s))
    }

    /// Aggregates the round-0 classifications and seats the inner
    /// trust-ordered phase king.
    fn ingest_classifications(&mut self, inbox: &[Envelope<ResilientMsg>]) {
        let per_sender = classifications_by_sender(inbox);
        let voters = per_sender
            .values()
            .filter(|c| c.len() == self.n)
            .count()
            .max(1);
        let suspicion = suspicion_scores(self.n, per_sender.into_values());
        let mut classification = BitVec::zeros(self.n);
        for (j, &s) in suspicion.iter().enumerate() {
            classification.set(j, 2 * s < voters);
        }
        let schedule = king_schedule(self.n, self.t, &suspicion);
        self.inner = Some(PhaseKing::with_kings(
            self.me, self.n, self.t, self.input, schedule,
        ));
        self.suspicion = Some(suspicion);
        self.classification = Some(classification);
    }
}

impl Process for ResilientBa {
    type Msg = ResilientMsg;
    type Output = Value;

    fn step(
        &mut self,
        round: u64,
        inbox: &[Envelope<ResilientMsg>],
        out: &mut Outbox<ResilientMsg>,
    ) {
        if round == 0 {
            out.broadcast(ResilientMsg::Classify(Arc::new(self.prediction.clone())));
            return;
        }
        if round == 1 {
            self.ingest_classifications(inbox);
        }
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        step_sub(
            inner,
            round - 1,
            inbox,
            out,
            |m| match m {
                ResilientMsg::Phase(x) => Some(Arc::clone(x)),
                _ => None,
            },
            ResilientMsg::Phase,
        );
        if let Some(o) = inner.output() {
            self.out = Some(o.decision.unwrap_or(o.value));
        }
    }

    fn output(&self) -> Option<Value> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

/// The worst-case coalition against the resilient pipeline — the
/// adversary the bench sweeps use to realize the graceful-degradation
/// round curve (every faulty king the error budget promotes stalls its
/// phase):
///
/// * **classification round** — votes "everyone is honest", shielding
///   the coalition so that missed-detection budget spent on its members
///   keeps them at the head of the throne order;
/// * **every graded-consensus round** — equivocates value 0 to
///   even-numbered recipients and silence to the odd ones, keeping
///   honest values split below every quorum while no honest king reigns;
/// * **faulty king phases** — splits the crown broadcast (0 to evens,
///   1 to odds).
///
/// The coalition derives the throne order exactly as the honest
/// processes do: rushing visibility over the round-0 classifications
/// (plus its own shield votes) reproduces the suspicion scores, so it
/// always knows which phases are its own to waste. Deterministic: no
/// randomness anywhere.
pub struct ResilientDisruptor {
    n: usize,
    t: usize,
    faulty: Vec<ProcessId>,
    schedule: Vec<ProcessId>,
}

impl ResilientDisruptor {
    /// Creates the disruptor for the given system parameters.
    pub fn new(n: usize, t: usize, faulty: Vec<ProcessId>) -> Self {
        ResilientDisruptor {
            n,
            t,
            faulty,
            schedule: Vec::new(),
        }
    }

    /// One phase-slot's worth of coalition disruption, shared by the
    /// unsigned and signed disruptors: equivocate every graded-consensus
    /// round (the message to even recipients, silence to the odd ones —
    /// the selective half-cast that keeps minimum/plurality-style
    /// honest aggregation split) and split the crown broadcast whenever
    /// the scheduled king is a coalition member.
    pub(crate) fn disrupt_phase<M: Clone>(
        ctx: &mut AdversaryCtx<'_, M>,
        faulty: &[ProcessId],
        n: usize,
        king: ProcessId,
        tag: u16,
        slot: u64,
        wrap: impl Fn(Arc<PhaseKingMsg>) -> M,
    ) {
        let gc = |inner: UnauthGcMsg, main: bool| {
            let inner = Arc::new(inner);
            wrap(Arc::new(if main {
                PhaseKingMsg::Main { phase: tag, inner }
            } else {
                PhaseKingMsg::Detect { phase: tag, inner }
            }))
        };
        let split_cast = |ctx: &mut AdversaryCtx<'_, M>, msg: M| {
            for &from in faulty {
                for to in ProcessId::all(n).filter(|p| p.0.is_multiple_of(2)) {
                    ctx.send(from, to, msg.clone());
                }
            }
        };
        match slot {
            0 => split_cast(ctx, gc(UnauthGcMsg::Vote(Value(0)), true)),
            1 => split_cast(ctx, gc(UnauthGcMsg::Echo(Value(0)), true)),
            2 => {
                if faulty.contains(&king) {
                    for to in ProcessId::all(n) {
                        let value = Value(u64::from(to.0 % 2));
                        let msg = wrap(Arc::new(PhaseKingMsg::King { phase: tag, value }));
                        ctx.send(king, to, msg);
                    }
                }
            }
            3 => split_cast(ctx, gc(UnauthGcMsg::Vote(Value(0)), false)),
            4 => split_cast(ctx, gc(UnauthGcMsg::Echo(Value(0)), false)),
            _ => unreachable!(),
        }
    }
}

impl Adversary<ResilientMsg> for ResilientDisruptor {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, ResilientMsg>) {
        if ctx.round == 0 {
            // Reconstruct the suspicion scores the honest processes will
            // compute at round 1: their classifications (rushed) plus the
            // coalition's all-ones shield votes (which add no suspicion).
            let per_sender = classifications_by_sender(ctx.honest_traffic);
            let suspicion = suspicion_scores(self.n, per_sender.into_values());
            self.schedule = king_schedule(self.n, self.t, &suspicion);
            let shield = ResilientMsg::Classify(Arc::new(BitVec::ones(self.n)));
            for &from in &self.faulty {
                ctx.broadcast(from, shield.clone());
            }
            return;
        }
        let local = ctx.round - 1;
        let phase = (local / 5) as usize;
        if phase >= self.schedule.len() {
            return;
        }
        Self::disrupt_phase(
            ctx,
            &self.faulty,
            self.n,
            self.schedule[phase],
            phase as u16,
            local % 5,
            ResilientMsg::Phase,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_core::PredictionMatrix;
    use ba_sim::{ReplayAdversary, Runner, SilentAdversary};
    use std::collections::BTreeSet;

    fn faults(ids: &[u32]) -> BTreeSet<ProcessId> {
        ids.iter().copied().map(ProcessId).collect()
    }

    fn system(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        matrix: &PredictionMatrix,
        input: impl Fn(usize) -> u64,
    ) -> BTreeMap<ProcessId, ResilientBa> {
        ProcessId::all(n)
            .filter(|id| !faulty.contains(id))
            .enumerate()
            .map(|(slot, id)| {
                (
                    id,
                    ResilientBa::new(id, n, t, Value(input(slot)), matrix.row(id).clone()),
                )
            })
            .collect()
    }

    #[test]
    fn perfect_predictions_decide_in_the_first_phase() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 6), SilentAdversary);
        let report = runner.run(ResilientBa::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        // Classify + phase 0 decides + phase 1 returns: well inside two
        // phases' worth of rounds.
        assert!(report.last_decision_round.expect("decided") <= 1 + 2 * 5 + 1);
    }

    #[test]
    fn rounds_grow_one_phase_per_promoted_faulty_king() {
        // Split inputs never self-unify in the graded consensus (no
        // quorum), so each phase whose scheduled king is silent-faulty
        // stalls. Fully trusting k faulty identifiers (zero suspicion,
        // lowest ids) must cost exactly k extra phases.
        let n = 13;
        let t = 4;
        let f = faults(&[0, 1]);
        let decide_round = |promoted: usize| {
            let mut m = PredictionMatrix::perfect(n, &f);
            for target in 0..promoted {
                for row in ProcessId::all(n).filter(|p| !f.contains(p)) {
                    m.row_mut(row).set(target, true);
                }
            }
            let mut runner = Runner::with_ids(
                n,
                system(n, t, &f, &m, |slot| 1 + (slot % 2) as u64),
                SilentAdversary,
            );
            let report = runner.run(ResilientBa::rounds(t));
            assert!(report.agreement(), "promoted = {promoted}");
            report.last_decision_round.expect("decided")
        };
        let base = decide_round(0);
        assert_eq!(decide_round(1), base + 5, "one faulty king, one phase");
        assert_eq!(decide_round(2), base + 10, "two faulty kings, two phases");
    }

    #[test]
    fn garbage_predictions_still_decide_within_the_budget() {
        // All-zero predictions: everyone suspects everyone, the schedule
        // degenerates to identifier order — the baseline — and the run
        // must still agree on split inputs.
        let n = 10;
        let f = faults(&[0, 4]);
        let m = PredictionMatrix::from_rows(vec![BitVec::zeros(n); n]);
        let mut runner = Runner::with_ids(
            n,
            system(n, 3, &f, &m, |slot| 1 + (slot % 2) as u64),
            SilentAdversary,
        );
        let report = runner.run(ResilientBa::rounds(3));
        assert!(report.agreement());
        assert!(report.all_decided());
    }

    #[test]
    fn unanimity_validity_holds_regardless_of_prediction_quality() {
        let n = 10;
        let f = faults(&[2, 5]);
        let m = PredictionMatrix::all_honest(n);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 4), SilentAdversary);
        let report = runner.run(ResilientBa::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(4)), "unanimity survives");
    }

    #[test]
    fn equivocated_classifications_cannot_break_agreement_or_liveness() {
        // A Byzantine classifier sends a different prediction string to
        // every recipient: honest suspicion views (and therefore throne
        // prefixes) diverge. The identifier-rotation suffix must still
        // crown a common honest king inside the budget.
        use ba_sim::FnAdversary;
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::perfect(n, &f);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(7) {
                    // Suspect a different singleton per recipient.
                    let mut bits = BitVec::ones(7);
                    bits.set((to.0 as usize) % 7, false);
                    ctx.send(ProcessId(6), to, ResilientMsg::Classify(Arc::new(bits)));
                }
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, |slot| (slot % 2) as u64), adv);
        let report = runner.run(ResilientBa::rounds(t));
        assert!(report.agreement());
        assert!(report.all_decided(), "suffix rotation guarantees liveness");
    }

    #[test]
    fn equivocated_classifications_split_the_unsigned_schedules() {
        // Pins the *documented conditional* behaviour the rotation
        // suffix exists for: a per-recipient classification equivocator
        // splits the honest suspicion views so thoroughly that no two
        // honest processes share a throne prefix, every prefix phase
        // stalls (nobody believes itself king), and the decision only
        // lands in the common identifier-rotation suffix. The signed
        // variant convicts the equivocator instead — see
        // `signed::tests::equivocated_classifications_are_convicted_and_schedules_agree`.
        use ba_sim::FnAdversary;
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::perfect(n, &f);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(7) {
                    let mut bits = BitVec::ones(7);
                    bits.set((to.0 as usize) % 7, false);
                    ctx.send(ProcessId(6), to, ResilientMsg::Classify(Arc::new(bits)));
                }
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, |slot| (slot % 2) as u64), adv);
        let report = runner.run(ResilientBa::rounds(t));
        assert!(report.agreement());
        assert!(report.all_decided());
        let schedules: Vec<Vec<ProcessId>> = ProcessId::all(n)
            .filter(|p| !f.contains(p))
            .map(|id| {
                runner
                    .process(id)
                    .expect("honest")
                    .schedule()
                    .expect("seated")
            })
            .collect();
        assert!(
            schedules.windows(2).any(|w| w[0] != w[1]),
            "unsigned equivocation must split the schedules (got \
             {schedules:?}) — if this starts failing, the documented \
             conditionality has changed and the signed variant's \
             contrast tests need revisiting"
        );
        assert!(
            report.last_decision_round.expect("decided") > 1 + 5 * (t as u64 + 1),
            "with fully split prefixes, only the rotation suffix decides"
        );
    }

    #[test]
    fn disruptor_realizes_the_promoted_king_staircase() {
        // Against the worst-case coalition, promoting both faulty
        // identifiers to full trust costs two stalled phases even though
        // the coalition also equivocates every quorum protocol.
        let n = 13;
        let t = 4;
        let f = faults(&[0, 1]);
        let run = |promoted: usize| {
            let mut m = PredictionMatrix::perfect(n, &f);
            for target in 0..promoted {
                for row in ProcessId::all(n).filter(|p| !f.contains(p)) {
                    m.row_mut(row).set(target, true);
                }
            }
            let mut runner = Runner::with_ids(
                n,
                system(n, t, &f, &m, |slot| 1 + (slot % 2) as u64),
                ResilientDisruptor::new(n, t, vec![ProcessId(0), ProcessId(1)]),
            );
            let report = runner.run(ResilientBa::rounds(t));
            assert!(report.agreement(), "promoted = {promoted}");
            report.last_decision_round.expect("decided")
        };
        let base = run(0);
        assert!(run(1) > base, "a promoted faulty king must cost rounds");
        assert!(run(2) > run(1), "and the cost must grow with the count");
    }

    #[test]
    fn replayed_traffic_is_inert() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 6), ReplayAdversary::new(1));
        let report = runner.run(ResilientBa::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
    }

    #[test]
    fn aggregated_classification_washes_out_minority_noise() {
        // Two honest rows falsely accuse p1 and miss p3: the majority
        // verdict still classifies everyone correctly.
        let n = 10;
        let f = faults(&[3, 7]);
        let mut m = PredictionMatrix::perfect(n, &f);
        m.row_mut(ProcessId(0)).set(1, false);
        m.row_mut(ProcessId(2)).set(1, false);
        m.row_mut(ProcessId(0)).set(3, true);
        m.row_mut(ProcessId(2)).set(3, true);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 6), SilentAdversary);
        let _ = runner.run(ResilientBa::rounds(3));
        let p = runner.process(ProcessId(1)).expect("honest");
        let c = p.classification().expect("aggregated");
        for j in 0..n {
            assert_eq!(
                c.get(j),
                !f.contains(&ProcessId(j as u32)),
                "majority verdict wrong about p{j}"
            );
        }
    }

    #[test]
    fn suspicion_scores_count_accusers_and_ignore_garbage_lengths() {
        let a = BitVec::from_bools(&[true, false, true]);
        let b = BitVec::from_bools(&[false, false, true]);
        let junk = BitVec::from_bools(&[false; 7]);
        let s = suspicion_scores(3, [&a, &b, &junk]);
        assert_eq!(s, vec![1, 2, 0]);
    }

    #[test]
    fn king_schedule_puts_trust_first_and_ends_in_rotation() {
        // n = 7, t = 2: 3-slot trust prefix plus rotation p0..p3.
        let suspicion = vec![5, 0, 4, 0, 1, 6, 6];
        let ks = king_schedule(7, 2, &suspicion);
        assert_eq!(ks.len(), ResilientBa::phases(2));
        assert_eq!(&ks[..3], &[ProcessId(1), ProcessId(3), ProcessId(4)]);
        assert_eq!(
            &ks[3..],
            &[ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)]
        );
    }

    #[test]
    fn message_sizes_follow_the_wire_model() {
        let classify = ResilientMsg::Classify(Arc::new(BitVec::ones(16)));
        // 1 discriminant + 4 length prefix + 2 packed bytes.
        assert_eq!(classify.wire_bytes(), 7);
        let king = ResilientMsg::Phase(Arc::new(PhaseKingMsg::King {
            phase: 0,
            value: Value(1),
        }));
        // 1 + (1 discriminant + 2 phase + 8 value).
        assert_eq!(king.wire_bytes(), 12);
    }

    #[test]
    #[should_panic(expected = "3t < n")]
    fn rejects_too_many_faults() {
        let _ = ResilientBa::new(ProcessId(0), 9, 3, Value(0), BitVec::ones(9));
    }
}
