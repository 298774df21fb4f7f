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
//! model (`t < n/3`) by making predictions steer *who leads*, not *which
//! protocol runs*. The protocol is one state machine, [`Resilient<X>`],
//! in two stages:
//!
//! 1. **Classification exchange** ([`Exchange`]): every process ships
//!    its `n`-bit prediction string, and aggregates the strings it
//!    accepts into one [`View`] — a per-identifier *suspicion score*
//!    (the number of voters predicting that identifier faulty), the
//!    identifiers convicted of equivocation, the majority
//!    classification, and the king schedule.
//! 2. **Trust-ordered phase king** (5 rounds per phase): a standard
//!    early-stopping phase-king agreement ([`ba_early::PhaseKing`])
//!    whose throne order is the view's schedule, most-trusted first.
//!    Accurate predictions put an honest king on the throne in phase 0;
//!    every faulty identifier the error budget `B` manages to promote
//!    above the first honest one costs exactly one extra (stalled)
//!    phase. The round count is thus a staircase in `B` with unit steps
//!    — no fast lane, no cliff — and at most `f` faulty identifiers
//!    exist to be promoted.
//!
//! Two exchanges plug in; they differ only in the rounds before phase
//! king and in the schedule rule:
//!
//! | exchange | rounds before phase king | schedule | phase budget | pipeline |
//! |---|---|---|---|---|
//! | [`Plain`] | 1: broadcast | [`king_schedule`]: `t + 1` trust slots, then a `t + 2`-phase rotation suffix | `2t + 3` | [`ResilientBa`] |
//! | [`Signed`] | 2: sign, then echo | [`signed_king_schedule`]: `t + 2` trust slots | `t + 2` | [`ResilientSigned`] |
//!
//! ## Suffix versus conviction
//!
//! Safety never depends on the predictions: deciding requires a grade-2
//! detect consensus exactly as in the baseline, so arbitrarily wrong (or
//! adversarial) hints can only cost rounds. Liveness needs every honest
//! process to crown the same honest king, and the two exchanges buy that
//! differently:
//!
//! * [`Plain`] broadcasts unauthenticated, so a Byzantine classifier can
//!   send a *different* string to every recipient and split the honest
//!   suspicion views (pinned by
//!   `equivocated_classifications_split_the_unsigned_schedules`). Its
//!   schedule therefore ends with a `t + 2`-phase suffix in plain
//!   identifier rotation, which crowns a common honest king whatever the
//!   prefixes were. The worst case is `2t + 3` phases, a small constant
//!   factor over the baseline's `t + 2`: *graceful* gains when the
//!   predictions help, bounded loss when they are garbage.
//! * [`Signed`] makes the views agree instead: signed strings, an echo
//!   round that only counts strings carried by `t + 1` echoers, and
//!   conviction of signers caught with two strings (see [`signed`]).
//!   With agreeing views the suffix is dead weight, and the `t + 2`
//!   least-suspected identifiers (at least two of them honest) decide
//!   within `t + 2` phases. The price is the echo round's `O(n³)`
//!   signed-string bytes.
//!
//! [`Disruptor<X>`] is the worst-case coalition against either exchange.

#![forbid(unsafe_code)]

pub mod signed;

pub use signed::{signed_king_schedule, ResilientSignedMsg, Signed};

use ba_core::BitVec;
use ba_early::{PhaseKing, PhaseKingMsg};
use ba_graded::UnauthGcMsg;
use ba_sim::{
    step_sub, Adversary, AdversaryCtx, Envelope, Outbox, Process, ProcessId, Value, WireSize,
};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::rc::Rc;

/// A classification exchange: how prediction strings travel, which of
/// them count, and which throne order they induce. Round 0 broadcasts
/// [`classify`](Exchange::classify); rounds `1 .. PHASE_START` run
/// [`echo`](Exchange::echo); round `PHASE_START` runs
/// [`aggregate`](Exchange::aggregate) and seats the phase king.
pub trait Exchange: Sized {
    /// Messages of the pipeline over this exchange.
    type Msg: Clone + Debug + WireSize;
    /// The first phase-king round.
    const PHASE_START: u64;

    /// Worst-case phase budget of the exchange's schedule.
    fn phases(t: usize) -> usize;

    /// The throne order of a view.
    fn schedule(n: usize, t: usize, suspicion: &[usize], convicted: &[bool]) -> Vec<ProcessId>;

    /// The classification message this process sends for `bits`.
    fn classify(&self, bits: BitVec) -> Self::Msg;

    /// The rounds between the classification broadcast and
    /// [`PHASE_START`](Exchange::PHASE_START); none by default.
    fn echo(&self, _inbox: &[Envelope<Self::Msg>], _out: &mut Outbox<Self::Msg>) {}

    /// Aggregates the inbox of round [`PHASE_START`](Exchange::PHASE_START).
    fn aggregate(&self, n: usize, t: usize, inbox: &[Envelope<Self::Msg>]) -> View;

    /// The first accepted classification each sender shipped in an
    /// envelope batch.
    fn classifications_by_sender<'a>(
        &self,
        envelopes: &'a [Envelope<Self::Msg>],
    ) -> BTreeMap<ProcessId, &'a BitVec>;

    /// The view of one classification per sender, nobody convicted. It
    /// is [`Plain`]'s aggregation, and [`Disruptor`] reconstructs the
    /// honest schedule of either exchange through it from the rushed
    /// round-0 traffic; the reconstruction is exact only while both
    /// sides aggregate in this one function.
    fn view_by_sender(&self, n: usize, t: usize, envelopes: &[Envelope<Self::Msg>]) -> View {
        let strings = self.classifications_by_sender(envelopes).into_values();
        View::new::<Self>(n, t, strings, vec![false; n])
    }

    /// The phase-king payload `msg` carries, if any.
    fn phase(msg: &Self::Msg) -> Option<Rc<PhaseKingMsg>>;

    /// Wraps phase-king traffic.
    fn wrap(inner: Rc<PhaseKingMsg>) -> Self::Msg;
}

/// One process's aggregation of the classification exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    suspicion: Vec<usize>,
    convicted: Vec<bool>,
    classification: BitVec,
    schedule: Vec<ProcessId>,
}

impl View {
    /// Aggregates the accepted strings (one per voter) and the
    /// convictions under `X`'s schedule rule. Bit `j` of the
    /// classification is set ⇔ fewer than half the voters suspect `p_j`
    /// and `p_j` is unconvicted.
    pub(crate) fn new<'a, X: Exchange>(
        n: usize,
        t: usize,
        strings: impl IntoIterator<Item = &'a BitVec>,
        convicted: Vec<bool>,
    ) -> View {
        let strings: Vec<&BitVec> = strings.into_iter().collect();
        let voters = strings.iter().filter(|c| c.len() == n).count().max(1);
        let suspicion = suspicion_scores(n, strings);
        let mut classification = BitVec::zeros(n);
        for (j, &s) in suspicion.iter().enumerate() {
            classification.set(j, 2 * s < voters && !convicted[j]);
        }
        let schedule = X::schedule(n, t, &suspicion, &convicted);
        View {
            suspicion,
            convicted,
            classification,
            schedule,
        }
    }
}

/// The unauthenticated exchange: one broadcast round, one string per
/// sender, no convictions, and the rotation suffix as liveness insurance.
#[derive(Clone, Copy, Debug)]
pub struct Plain;

/// Messages of the resilient pipeline. The classification exchange is
/// bound to round 0 and phase-king traffic carries its own phase tags,
/// so replayed messages are inert.
#[derive(Clone, Debug)]
pub enum ResilientMsg {
    /// Round 0 → all: the sender's n-bit prediction string.
    Classify(Rc<BitVec>),
    /// Rounds 1+: wrapped trust-ordered phase-king traffic.
    Phase(Rc<PhaseKingMsg>),
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

impl Exchange for Plain {
    type Msg = ResilientMsg;
    const PHASE_START: u64 = 1;

    /// The `t + 1` suspicion-ordered slots plus the `t + 2`-phase suffix.
    fn phases(t: usize) -> usize {
        2 * t + 3
    }

    fn schedule(n: usize, t: usize, suspicion: &[usize], _: &[bool]) -> Vec<ProcessId> {
        king_schedule(n, t, suspicion)
    }

    fn classify(&self, bits: BitVec) -> ResilientMsg {
        ResilientMsg::Classify(Rc::new(bits))
    }

    fn aggregate(&self, n: usize, t: usize, inbox: &[Envelope<ResilientMsg>]) -> View {
        self.view_by_sender(n, t, inbox)
    }

    fn classifications_by_sender<'a>(
        &self,
        envelopes: &'a [Envelope<ResilientMsg>],
    ) -> BTreeMap<ProcessId, &'a BitVec> {
        let mut per_sender = BTreeMap::new();
        for env in envelopes {
            if let ResilientMsg::Classify(bits) = &*env.payload {
                per_sender.entry(env.from).or_insert(&**bits);
            }
        }
        per_sender
    }

    fn phase(msg: &ResilientMsg) -> Option<Rc<PhaseKingMsg>> {
        match msg {
            ResilientMsg::Phase(x) => Some(Rc::clone(x)),
            _ => None,
        }
    }

    fn wrap(inner: Rc<PhaseKingMsg>) -> ResilientMsg {
        ResilientMsg::Phase(inner)
    }
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

/// The shared throne order: `slots` identifiers by trust (convicted ones
/// below every unconvicted one, then least suspected, ties toward the
/// smaller id), followed by `suffix` phases of identifier rotation
/// `p_0, p_1, …`. Identifiers wrap modulo `n` — the rule
/// `PhaseKing` follows without a schedule — which only matters when the
/// schedule is longer than the system (n = 1).
fn throne_order(
    n: usize,
    suspicion: &[usize],
    convicted: &[bool],
    slots: usize,
    suffix: usize,
) -> Vec<ProcessId> {
    assert_eq!(suspicion.len(), n, "one suspicion score per identifier");
    assert_eq!(convicted.len(), n, "one conviction flag per identifier");
    let mut by_trust: Vec<usize> = (0..n).collect();
    by_trust.sort_by_key(|&j| (convicted[j], suspicion[j], j));
    by_trust
        .into_iter()
        .cycle()
        .take(slots)
        .chain(0..suffix)
        .map(|j| ProcessId((j % n) as u32))
        .collect()
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
    throne_order(n, suspicion, &vec![false; n], t + 1, t + 2)
}

/// One process's state machine for the resilient pipeline over the
/// classification exchange `X`.
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
pub struct Resilient<X: Exchange> {
    exchange: X,
    me: ProcessId,
    n: usize,
    t: usize,
    input: Value,
    prediction: BitVec,
    view: Option<View>,
    inner: Option<PhaseKing>,
    out: Option<Value>,
}

/// The resilient pipeline over the unauthenticated exchange.
pub type ResilientBa = Resilient<Plain>;
/// The resilient pipeline over the signed exchange.
pub type ResilientSigned = Resilient<Signed>;

impl<X: Exchange> Debug for Resilient<X> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resilient")
            .field("me", &self.me)
            .field("view", &self.view)
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl<X: Exchange> Resilient<X> {
    /// Worst-case phase budget of the exchange's schedule.
    pub fn phases(t: usize) -> usize {
        X::phases(t)
    }

    /// Total round budget: the exchange rounds plus the phase-king
    /// rounds of the full schedule.
    pub fn rounds(t: usize) -> u64 {
        X::PHASE_START + PhaseKing::rounds(X::phases(t))
    }

    /// Creates the state machine for process `me`, exchanging through
    /// `exchange`.
    ///
    /// `prediction` is `me`'s n-bit prediction string (bit `j` set ⇔
    /// `p_j` predicted honest), exactly as handed to the paper's
    /// Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn with_exchange(
        exchange: X,
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        prediction: BitVec,
    ) -> Self {
        assert!(3 * t < n, "resilient BA needs 3t < n");
        assert_eq!(prediction.len(), n, "prediction must have n bits");
        Resilient {
            exchange,
            me,
            n,
            t,
            input,
            prediction,
            view: None,
            inner: None,
            out: None,
        }
    }

    /// The raw prediction string this process started from.
    pub fn prediction(&self) -> &BitVec {
        &self.prediction
    }

    /// The aggregated classification — bit `j` set ⇔ a majority of the
    /// counted prediction strings trusts `p_j` and `p_j` is unconvicted.
    /// This is the pipeline's probe surface: its realized `k_A` measures
    /// prediction quality *after* the exchange has washed out minority
    /// noise, which is the resilience mechanism in one number. `None`
    /// until the view is aggregated.
    pub fn classification(&self) -> Option<&BitVec> {
        self.view.as_ref().map(|v| &v.classification)
    }

    /// The per-identifier suspicion scores of the view.
    pub fn suspicion(&self) -> Option<&[usize]> {
        self.view.as_ref().map(|v| v.suspicion.as_slice())
    }

    /// Which identifiers were convicted of classification equivocation
    /// (never any under [`Plain`]).
    pub fn convicted(&self) -> Option<&[bool]> {
        self.view.as_ref().map(|v| v.convicted.as_slice())
    }

    /// The king schedule this process derived.
    pub fn schedule(&self) -> Option<Vec<ProcessId>> {
        self.view.as_ref().map(|v| v.schedule.clone())
    }
}

impl Resilient<Plain> {
    /// Creates the state machine for process `me`.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        Self::with_exchange(Plain, me, n, t, input, prediction)
    }
}

impl<X: Exchange> Process for Resilient<X> {
    type Msg = X::Msg;
    type Output = Value;

    fn step(&mut self, round: u64, inbox: &[Envelope<X::Msg>], out: &mut Outbox<X::Msg>) {
        if round == 0 {
            out.broadcast(self.exchange.classify(self.prediction.clone()));
            return;
        }
        if round < X::PHASE_START {
            self.exchange.echo(inbox, out);
            return;
        }
        if round == X::PHASE_START {
            let view = self.exchange.aggregate(self.n, self.t, inbox);
            let kings = view.schedule.clone();
            self.inner = Some(PhaseKing::with_kings(
                self.me, self.n, self.t, self.input, kings,
            ));
            self.view = Some(view);
        }
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        step_sub(inner, round - X::PHASE_START, inbox, out, X::phase, X::wrap);
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
/// * **classification round** — every member votes "everyone is
///   honest" through its own exchange handle (signed with its own key
///   under [`Signed`]; equivocating there would get it convicted),
///   shielding the coalition so that missed-detection budget spent on
///   its members keeps them at the head of the throne order;
/// * **echo rounds** — silence: honest echoes already spread the
///   shields;
/// * **every graded-consensus round** — equivocates value 0 to
///   even-numbered recipients and silence to the odd ones, keeping
///   honest values split below every quorum while no honest king reigns;
/// * **faulty king phases** — splits the crown broadcast (0 to evens,
///   1 to odds).
///
/// The coalition derives the throne order exactly as the honest
/// processes do: rushing visibility over the round-0 classifications
/// (plus its own shield votes, which add no suspicion) reproduces the
/// view through [`Exchange::view_by_sender`], so it always knows which
/// phases are its own to waste. Deterministic: no randomness anywhere.
pub struct Disruptor<X: Exchange> {
    n: usize,
    t: usize,
    coalition: Vec<(ProcessId, X)>,
    faulty: Vec<ProcessId>,
    schedule: Vec<ProcessId>,
}

/// The worst-case coalition against [`ResilientBa`].
pub type ResilientDisruptor = Disruptor<Plain>;
/// The worst-case coalition against [`ResilientSigned`].
pub type SignedResilientDisruptor = Disruptor<Signed>;

impl<X: Exchange> Disruptor<X> {
    /// The coalition of the given members, each with its own exchange
    /// handle.
    pub(crate) fn with_coalition(n: usize, t: usize, coalition: Vec<(ProcessId, X)>) -> Self {
        let faulty = coalition.iter().map(|(id, _)| *id).collect();
        Disruptor {
            n,
            t,
            coalition,
            faulty,
            schedule: Vec::new(),
        }
    }
}

impl Disruptor<Plain> {
    /// Creates the disruptor for the given system parameters.
    pub fn new(n: usize, t: usize, faulty: Vec<ProcessId>) -> Self {
        Self::with_coalition(n, t, faulty.into_iter().map(|id| (id, Plain)).collect())
    }
}

impl<X: Exchange> Adversary<X::Msg> for Disruptor<X> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, X::Msg>) {
        let Some((_, exchange)) = self.coalition.first() else {
            return; // nobody to act
        };
        if ctx.round == 0 {
            let traffic: Vec<Envelope<X::Msg>> = ctx.honest_traffic().collect();
            let view = exchange.view_by_sender(self.n, self.t, &traffic);
            self.schedule = view.schedule;
            for (from, exchange) in &self.coalition {
                ctx.broadcast(*from, exchange.classify(BitVec::ones(self.n)));
            }
            return;
        }
        let Some(local) = ctx.round.checked_sub(X::PHASE_START) else {
            return;
        };
        let phase = (local / 5) as usize;
        if let Some(&king) = self.schedule.get(phase) {
            let (tag, slot) = (phase as u16, local % 5);
            disrupt_phase(ctx, &self.faulty, self.n, king, tag, slot, X::wrap);
        }
    }
}

/// One phase-slot's worth of coalition disruption: equivocate every
/// graded-consensus round (the message to even recipients, silence to
/// the odd ones — the selective half-cast that keeps
/// minimum/plurality-style honest aggregation split) and split the crown
/// broadcast whenever the scheduled king is a coalition member. Generic
/// over the carrier message, so any pipeline embedding phase king can
/// reuse the attack.
fn disrupt_phase<M: Clone>(
    ctx: &mut AdversaryCtx<'_, M>,
    faulty: &[ProcessId],
    n: usize,
    king: ProcessId,
    tag: u16,
    slot: u64,
    wrap: impl Fn(Rc<PhaseKingMsg>) -> M,
) {
    let gc = |inner: UnauthGcMsg, first: bool| {
        let inner = Rc::new(inner);
        wrap(Rc::new(if first {
            PhaseKingMsg::First { phase: tag, inner }
        } else {
            PhaseKingMsg::Second { phase: tag, inner }
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
                    let msg = wrap(Rc::new(PhaseKingMsg::Middle {
                        phase: tag,
                        inner: value,
                    }));
                    ctx.send(king, to, msg);
                }
            }
        }
        3 => split_cast(ctx, gc(UnauthGcMsg::Vote(Value(0)), false)),
        4 => split_cast(ctx, gc(UnauthGcMsg::Echo(Value(0)), false)),
        _ => unreachable!(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ba_core::PredictionMatrix;
    use ba_crypto::Pki;
    use ba_sim::{ReplayAdversary, Runner, SilentAdversary};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    pub(crate) fn faults(ids: &[u32]) -> BTreeSet<ProcessId> {
        ids.iter().copied().map(ProcessId).collect()
    }

    /// The plain exchange handle of any process.
    pub(crate) fn plain(_: ProcessId) -> Plain {
        Plain
    }

    /// The signed exchange handle of each process: its own key.
    pub(crate) fn signed(pki: &Arc<Pki>) -> impl Fn(ProcessId) -> Signed + '_ {
        |id| Signed {
            pki: Arc::clone(pki),
            key: pki.signing_key(id.0),
        }
    }

    /// The honest processes of a system, each with the exchange handle
    /// `exchange` gives it.
    pub(crate) fn system<X: Exchange>(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        matrix: &PredictionMatrix,
        exchange: impl Fn(ProcessId) -> X,
        input: impl Fn(usize) -> u64,
    ) -> BTreeMap<ProcessId, Resilient<X>> {
        ProcessId::all(n)
            .filter(|id| !faulty.contains(id))
            .enumerate()
            .map(|(slot, id)| {
                let row = matrix.row(id).clone();
                let p = Resilient::with_exchange(exchange(id), id, n, t, Value(input(slot)), row);
                (id, p)
            })
            .collect()
    }

    fn perfect_predictions_decide_in_the_first_phase_with<X: Exchange>(
        exchange: impl Fn(ProcessId) -> X,
    ) {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner =
            Runner::with_ids(n, system(n, 3, &f, &m, exchange, |_| 6), SilentAdversary);
        let report = runner.run(Resilient::<X>::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        // The exchange + phase 0 decides + phase 1 returns: well inside
        // two phases' worth of rounds.
        assert!(report.last_decision_round.expect("decided") <= X::PHASE_START + 2 * 5 + 1);
    }

    #[test]
    fn perfect_predictions_decide_in_the_first_phase() {
        perfect_predictions_decide_in_the_first_phase_with(plain);
        perfect_predictions_decide_in_the_first_phase_with(signed(&Arc::new(Pki::new(10, 5))));
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
                system(n, t, &f, &m, plain, |slot| 1 + (slot % 2) as u64),
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
            system(n, 3, &f, &m, plain, |slot| 1 + (slot % 2) as u64),
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
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, plain, |_| 4), SilentAdversary);
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
                    ctx.send(ProcessId(6), to, ResilientMsg::Classify(Rc::new(bits)));
                }
            }
        });
        let mut runner = Runner::with_ids(
            n,
            system(n, t, &f, &m, plain, |slot| (slot % 2) as u64),
            adv,
        );
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
        // `signed::tests::per_recipient_equivocation_is_ignored_and_schedules_agree`.
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
                    ctx.send(ProcessId(6), to, ResilientMsg::Classify(Rc::new(bits)));
                }
            }
        });
        let mut runner = Runner::with_ids(
            n,
            system(n, t, &f, &m, plain, |slot| (slot % 2) as u64),
            adv,
        );
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

    fn disruptor_realizes_the_promoted_king_staircase_with<X: Exchange>(
        exchange: impl Fn(ProcessId) -> X,
    ) {
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
            let coalition = f.iter().map(|&id| (id, exchange(id))).collect();
            let mut runner = Runner::with_ids(
                n,
                system(n, t, &f, &m, &exchange, |slot| 1 + (slot % 2) as u64),
                Disruptor::with_coalition(n, t, coalition),
            );
            let report = runner.run(Resilient::<X>::rounds(t));
            assert!(report.agreement(), "promoted = {promoted}");
            report.last_decision_round.expect("decided")
        };
        let base = run(0);
        assert!(run(1) > base, "a promoted faulty king must cost rounds");
        assert!(run(2) > run(1), "and the cost must grow with the count");
        assert!(
            run(2) <= Resilient::<X>::rounds(t),
            "even fully promoted, the budget suffices"
        );
    }

    #[test]
    fn disruptor_realizes_the_promoted_king_staircase() {
        // Against the worst-case coalition, promoting both faulty
        // identifiers to full trust costs two stalled phases even though
        // the coalition also equivocates every quorum protocol.
        disruptor_realizes_the_promoted_king_staircase_with(plain);
        disruptor_realizes_the_promoted_king_staircase_with(signed(&Arc::new(Pki::new(13, 5))));
    }

    fn replayed_traffic_is_inert_with<X: Exchange>(exchange: impl Fn(ProcessId) -> X) {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(
            n,
            system(n, 3, &f, &m, exchange, |_| 6),
            ReplayAdversary::new(1),
        );
        let report = runner.run(Resilient::<X>::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
    }

    #[test]
    fn replayed_traffic_is_inert() {
        replayed_traffic_is_inert_with(plain);
        replayed_traffic_is_inert_with(signed(&Arc::new(Pki::new(10, 5))));
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
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, plain, |_| 6), SilentAdversary);
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
    fn schedules_wrap_modulo_n_in_a_one_process_system() {
        // n = 1, t = 0: the only size where 3t < n but t + 2 > n. Both
        // schedules keep their documented lengths by wrapping to p0.
        assert_eq!(king_schedule(1, 0, &[0]), vec![ProcessId(0); 3]);
        assert_eq!(
            signed_king_schedule(1, 0, &[0], &[false]),
            vec![ProcessId(0); 2]
        );
    }

    #[test]
    fn message_sizes_follow_the_wire_model() {
        let classify = ResilientMsg::Classify(Rc::new(BitVec::ones(16)));
        // 1 discriminant + 4 length prefix + 2 packed bytes.
        assert_eq!(classify.wire_bytes(), 7);
        let king = ResilientMsg::Phase(Rc::new(PhaseKingMsg::Middle {
            phase: 0,
            inner: Value(1),
        }));
        // 1 + (1 discriminant + 2 phase + 8 value).
        assert_eq!(king.wire_bytes(), 12);
    }

    #[test]
    fn rejects_too_many_faults() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pki = Arc::new(Pki::new(9, 1));
        let key = pki.signing_key(0);
        let bits = BitVec::ones(9);
        let panics = [
            catch_unwind(|| ResilientBa::new(ProcessId(0), 9, 3, Value(0), bits.clone())).err(),
            catch_unwind(AssertUnwindSafe(|| {
                ResilientSigned::new(ProcessId(0), 9, 3, Value(0), bits.clone(), pki, key)
            }))
            .err(),
        ];
        for panic in panics {
            let panic = panic.expect("3t ≥ n must be rejected");
            let message = panic.downcast_ref::<&str>().expect("a static message");
            assert!(message.contains("3t < n"), "unexpected panic: {message}");
        }
    }
}
