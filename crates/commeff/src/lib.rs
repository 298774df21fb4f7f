//! # ba-commeff — communication-efficient BA with predictions
//!
//! The source paper buys *time* with predictions but leaves message
//! complexity quadratic; the follow-up *Communication Efficient
//! Byzantine Agreement with Predictions* (Dzulfikar–Gilbert, 2026)
//! shows the same prediction advantage is compatible with subquadratic
//! communication when the predictions are accurate. This crate
//! reproduces that trade-off in the repository's execution model
//! (`3t < n`) as one state machine, [`CommEffBa<L>`], with two phases:
//!
//! 1. **Committee-sampled fast lane** (`O(n · f̂)` messages): each
//!    process derives a *committee* from its own prediction string —
//!    the first `2f̂ + 1` identifiers it predicts honest, where `f̂` is
//!    the number of processes it predicts faulty
//!    ([`CommEffBa::committee_of`]) — and routes its input through the
//!    committee instead of all-to-all. Step 0 submits the input to the
//!    committee; at step 1 members that heard from `n − t` processes
//!    become aggregators and report the plurality to everyone; at step
//!    2 every process adopts the report plurality and acknowledges it
//!    to the committee, *happy* if the reports it counted agree; at
//!    step 3 aggregators certify `n − t` happy acknowledgements of one
//!    value; the certify traffic then decides.
//! 2. **Prediction-checked fallback** (phase king, `O(t)` rounds): any
//!    inconsistency the fast lane surfaces — missing reports, split
//!    report values, aggregators that could not certify — diverts the
//!    run into a full early-stopping phase-king agreement seeded with
//!    the fast lane's tentative values.
//!
//! With accurate predictions and `f` actual faults the fast lane
//! decides using `Θ(n · f)` messages of constant size — asymptotically
//! below both the wrappers' and the baselines' `Ω(n²)` — and wrong
//! predictions cost the fallback's rounds, never safety against the
//! execution-scale adversary gallery.
//!
//! ## Lanes
//!
//! A [`Lane`] is how the fast lane's traffic travels and certifies;
//! everything else above is written once in [`CommEffBa`].
//!
//! | lane | submit, report, ack | certify (step 3) | decision | fast rounds | pipeline |
//! |---|---|---|---|---|---|
//! | [`Plain`] | unsigned, from anyone | `Commit(v)` or `Retreat` | step 4: a unanimous, retreat-free commit set | 5 | [`CommEff`] |
//! | [`Certified`] | signed and verified on receive; reports only from the own committee | a [`Certificate`](signed::Certificate) of `n − t` signed happy acks, or nothing | step 4 echoes a valid certificate, step 5 decides on one | 6 | [`CommEffSigned`] |
//!
//! The certify steps also dedupe differently: [`Plain`] takes each
//! sender's first acknowledgement and then counts the happy ones, while
//! [`Certified`] takes each sender's first valid *happy* one.
//!
//! ## Conditionality, and what the signatures buy
//!
//! Like [`ba_early::TruncatedDs`], the plain certify step assumes faulty
//! processes cannot split the honest view of broadcast traffic. Against
//! the repository's execution-scale adversaries (silence, replay — see
//! the driver's degradation rules) every honest process observes
//! identical report and certificate sets, so the fast/fallback choice
//! is uniform. A fully Byzantine aggregator *can* split it: it shows a
//! commit to one honest half and nothing to the other (pinned by
//! `full_equivocation_can_split_the_unsigned_lane_choice`).
//!
//! [`Certified`] removes exactly that conditionality with the
//! [`ba_crypto::Signed`] envelope, following the signed certify step of
//! Dzulfikar–Gilbert:
//!
//! 1. **Verify on receive** — submit, report and acknowledgement bodies
//!    are signed; anything whose signature does not verify for the
//!    envelope sender (forged tags, honest signatures replayed from
//!    corrupted identities) is dropped as if never sent. Reports count
//!    only from the receiver's own committee, so with accurate
//!    predictions a non-member's signed but conflicting reports cannot
//!    sour acknowledgements.
//! 2. **Transferable certificates** — an aggregator certifies by
//!    broadcasting the proof itself: `n − t` signed happy
//!    acknowledgements of one value. Honest processes sign at most one
//!    acknowledgement per execution and two `n − t` quorums intersect in
//!    an honest process, so valid certificates for two different values
//!    cannot both exist: a Byzantine aggregator can at most *withhold* a
//!    certificate, never fabricate a conflicting one, and absence of
//!    proof replaces the plain lane's retreat.
//! 3. **Certificate echo** — one extra round: every process holding a
//!    valid certificate re-broadcasts it before anyone decides. A
//!    certificate delivered to a single honest process by the certify
//!    round reaches all of them by the decision round, so either every
//!    honest process decides in the fast lane or every one falls back.
//!
//! The price is bandwidth, not rounds: a certificate carries `n − t`
//! signatures, so the commit and echo rounds cost `O(n³)` signed bytes,
//! trading the plain lane's subquadratic communication *under attack*
//! for an unconditional lane choice. With accurate predictions and no
//! equivocation the totals still separate from the `Ω(n²)`-per-round
//! baselines per message count.
//!
//! *Scope.* The signatures buy the lane choice for every certificate
//! first delivered during the certify round, the withheld-certificate
//! attack included. Two boundaries remain, both deliberate. First, a
//! genuine certificate a Byzantine holder *first* injects during the
//! echo round arrives only at the decision step, too late to be
//! re-echoed; exact last-round agreement is the classic simultaneity
//! bound — closing it costs `Θ(t)` echo rounds, the fallback's whole
//! budget — and reaching this window at all requires a committee with
//! no active honest aggregator (otherwise honest certificates already
//! flooded the echo round). Second, the *value* a certificate certifies
//! is backed by `≥ t + 1` honest signed acknowledgements, i.e. by
//! honest processes that adopted it from their committee-filtered
//! report view; like every committee-sampled fast path, that view is
//! only as honest as the committee, so thoroughly garbage predictions
//! remain the fallback's responsibility, not the fast lane's.

#![forbid(unsafe_code)]

pub mod signed;

pub use signed::{Certified, CommEffSigned, CommEffSignedMsg};

use ba_core::BitVec;
use ba_early::{PhaseKing, PhaseKingMsg};
use ba_sim::{
    distinct_values_by_sender, plurality_smallest, step_sub, Envelope, Outbox, Process, ProcessId,
    Tally, Value, WireSize,
};
use std::fmt::Debug;
use std::rc::Rc;

/// How the fast lane's traffic travels and certifies. [`CommEffBa`]
/// runs steps 0–2 and seats the fallback at
/// [`FALLBACK_START`](Lane::FALLBACK_START); the lane seals and opens
/// each body, certifies at step 3, runs
/// [`echo`](Lane::echo) on the steps after it, and
/// [`decide`](Lane::decide)s at step `FALLBACK_START − 1`.
pub trait Lane: Debug {
    /// Messages of the pipeline over this lane.
    type Msg: Clone + Debug + WireSize;
    /// The first fallback round: the fast lane occupies the steps before
    /// it.
    const FALLBACK_START: u64;

    /// This process's step-0 submission of its input.
    fn submit(&self, value: Value) -> Self::Msg;

    /// The value `from` submitted in `msg`, if it counts.
    fn open_submit(&self, from: ProcessId, msg: &Self::Msg) -> Option<Value>;

    /// An aggregator's step-1 report of its plurality.
    fn report(&self, value: Value) -> Self::Msg;

    /// The value `from` reported in `msg`, if it counts at a process
    /// whose committee is `committee` (sorted by identifier).
    fn open_report(
        &self,
        from: ProcessId,
        msg: &Self::Msg,
        committee: &[ProcessId],
    ) -> Option<Value>;

    /// This process's step-2 acknowledgement of its tentative value.
    fn ack(&self, value: Value, happy: bool) -> Self::Msg;

    /// What an aggregator broadcasts at step 3 over the acknowledgements
    /// in `inbox`, if anything.
    fn certify(&self, n: usize, t: usize, inbox: &[Envelope<Self::Msg>]) -> Option<Self::Msg>;

    /// The steps between certify and the decision; none by default.
    fn echo(
        &mut self,
        _n: usize,
        _t: usize,
        _inbox: &[Envelope<Self::Msg>],
        _out: &mut Outbox<Self::Msg>,
    ) {
    }

    /// The fast-lane decision at step `FALLBACK_START − 1`, or `None` to
    /// enter the fallback.
    fn decide(&mut self, n: usize, t: usize, inbox: &[Envelope<Self::Msg>]) -> Option<Value>;

    /// The phase-king payload `msg` carries, if any.
    fn phase(msg: &Self::Msg) -> Option<Rc<PhaseKingMsg>>;

    /// Wraps phase-king traffic.
    fn wrap(inner: Rc<PhaseKingMsg>) -> Self::Msg;
}

/// The smallest value carried by at least `quorum` of `values`.
fn quorum_value(values: impl IntoIterator<Item = Value>, quorum: usize) -> Option<Value> {
    let mut tally = Tally::new();
    values.into_iter().for_each(|v| tally.add(v));
    tally.first_reaching(quorum).copied()
}

/// The unsigned lane: bodies travel bare, aggregators commit or retreat,
/// and step 4 decides.
#[derive(Clone, Copy, Debug)]
pub struct Plain;

/// Messages of the communication-efficient pipeline over [`Plain`].
/// Every fast-lane variant is bound to exactly one protocol step, so
/// traffic replayed across rounds is inert.
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

impl Lane for Plain {
    type Msg = CommEffMsg;
    const FALLBACK_START: u64 = 5;

    fn submit(&self, value: Value) -> CommEffMsg {
        CommEffMsg::Submit(value)
    }

    fn open_submit(&self, _: ProcessId, msg: &CommEffMsg) -> Option<Value> {
        match msg {
            CommEffMsg::Submit(v) => Some(*v),
            _ => None,
        }
    }

    fn report(&self, value: Value) -> CommEffMsg {
        CommEffMsg::Report(value)
    }

    fn open_report(&self, _: ProcessId, msg: &CommEffMsg, _: &[ProcessId]) -> Option<Value> {
        match msg {
            CommEffMsg::Report(v) => Some(*v),
            _ => None,
        }
    }

    fn ack(&self, value: Value, happy: bool) -> CommEffMsg {
        CommEffMsg::Ack { value, happy }
    }

    /// Commits the value `n − t` senders acknowledged happily, counting
    /// each sender's first acknowledgement, or retreats. Acks are
    /// one-per-sender and `n − t > n/2`, so at most one value can reach
    /// the quorum.
    fn certify(&self, n: usize, t: usize, inbox: &[Envelope<CommEffMsg>]) -> Option<CommEffMsg> {
        let acks = distinct_values_by_sender(inbox, |_, m| match m {
            CommEffMsg::Ack { value, happy } => Some((*value, *happy)),
            _ => None,
        });
        let happy = acks
            .into_values()
            .filter_map(|(v, happy)| happy.then_some(v));
        Some(match quorum_value(happy, n - t) {
            Some(v) => CommEffMsg::Commit(v),
            None => CommEffMsg::Retreat,
        })
    }

    /// A clean, unanimous commit set decides; any gap or retreat
    /// diverts into the fallback.
    fn decide(&mut self, _: usize, _: usize, inbox: &[Envelope<CommEffMsg>]) -> Option<Value> {
        let certs = distinct_values_by_sender(inbox, |_, m| match m {
            CommEffMsg::Commit(v) => Some(Some(*v)),
            CommEffMsg::Retreat => Some(None),
            _ => None,
        });
        let first = (*certs.values().next()?)?;
        certs.values().all(|c| *c == Some(first)).then_some(first)
    }

    fn phase(msg: &CommEffMsg) -> Option<Rc<PhaseKingMsg>> {
        match msg {
            CommEffMsg::Fallback(inner) => Some(Rc::clone(inner)),
            _ => None,
        }
    }

    fn wrap(inner: Rc<PhaseKingMsg>) -> CommEffMsg {
        CommEffMsg::Fallback(inner)
    }
}

/// One process's state machine for the communication-efficient
/// pipeline over the lane `L`.
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
pub struct CommEffBa<L: Lane> {
    lane: L,
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
    /// Set at step 1 when this process counted `n − t` submissions.
    active: bool,
    tentative: Value,
    fallback: Option<PhaseKing>,
    out: Option<Value>,
}

/// The communication-efficient pipeline over the unsigned lane.
pub type CommEff = CommEffBa<Plain>;

impl<L: Lane> Debug for CommEffBa<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommEffBa")
            .field("lane", &self.lane)
            .field("me", &self.me)
            .field("committee", &self.committee)
            .field("active", &self.active)
            .field("fallback", &self.fallback.is_some())
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl<L: Lane> CommEffBa<L> {
    /// Total round budget: the fast lane plus the full phase-king
    /// fallback.
    pub fn rounds(t: usize) -> u64 {
        L::FALLBACK_START + PhaseKing::rounds(PhaseKing::phases_for(t))
    }

    /// Creates the state machine for process `me` over `lane`.
    ///
    /// `prediction` is `me`'s n-bit prediction string (bit `j` set ⇔
    /// `pⱼ` predicted honest), exactly as handed to the paper's
    /// Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn with_lane(
        lane: L,
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        prediction: BitVec,
    ) -> Self {
        assert!(3 * t < n, "communication-efficient BA needs 3t < n");
        assert_eq!(prediction.len(), n, "prediction must have n bits");
        let committee = Self::committee_of(&prediction);
        CommEffBa {
            lane,
            me,
            n,
            t,
            input,
            prediction,
            degenerate: committee.is_none(),
            committee: committee.unwrap_or_default(),
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
    /// the decision step unless a consistent certify view arrives from
    /// non-degenerate peers).
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
    /// degenerate — see [`CommEffBa::committee_of`]).
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
}

impl CommEffBa<Plain> {
    /// Creates the state machine for process `me` over the unsigned
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        Self::with_lane(Plain, me, n, t, input, prediction)
    }
}

impl<L: Lane> Process for CommEffBa<L> {
    type Msg = L::Msg;
    type Output = Value;

    fn step(&mut self, round: u64, inbox: &[Envelope<L::Msg>], out: &mut Outbox<L::Msg>) {
        if self.out.is_some() && self.fallback.is_none() {
            return; // fast-lane decision reached; nothing left to send
        }
        let (n, t) = (self.n, self.t);
        match round {
            // Step 0: route the input to the sampled committee.
            // Degenerate predictions drive no fast-lane traffic.
            0 => {
                if !self.degenerate {
                    let submit = self.lane.submit(self.input);
                    out.multicast(self.committee.iter().copied(), submit);
                }
            }
            // Step 1: processes trusted by n − t peers aggregate.
            1 => {
                if self.degenerate {
                    return;
                }
                let submits =
                    distinct_values_by_sender(inbox, |from, m| self.lane.open_submit(from, m));
                if submits.len() >= n - t {
                    self.active = true;
                    let v =
                        plurality_smallest(submits.into_values()).expect("n − t ≥ 1 submissions");
                    out.broadcast(self.lane.report(v));
                }
            }
            // Step 2: adopt the report plurality, acknowledge happiness.
            2 => {
                let reports = distinct_values_by_sender(inbox, |from, m| {
                    self.lane.open_report(from, m, &self.committee)
                });
                let mut values = reports.values();
                let happy = values
                    .next()
                    .is_some_and(|first| values.all(|v| v == first));
                self.tentative = plurality_smallest(reports.into_values()).unwrap_or(self.input);
                if !self.degenerate {
                    let ack = self.lane.ack(self.tentative, happy);
                    out.multicast(self.committee.iter().copied(), ack);
                }
            }
            // Step 3: aggregators certify n − t happy acknowledgements
            // of one value.
            3 if self.active => {
                if let Some(msg) = self.lane.certify(n, t, inbox) {
                    out.broadcast(msg);
                }
            }
            3 => {}
            // Steps 4 .. FALLBACK_START: the lane's echo rounds, then its
            // decision; no decision seats the fallback.
            r if r + 1 < L::FALLBACK_START => self.lane.echo(n, t, inbox, out),
            r if r + 1 == L::FALLBACK_START => match self.lane.decide(n, t, inbox) {
                Some(v) => self.out = Some(v),
                None => {
                    let phases = PhaseKing::phases_for(t);
                    let inner = PhaseKing::new(self.me, n, t, self.tentative, phases);
                    self.fallback = Some(inner);
                }
            },
            _ => {
                let Some(inner) = self.fallback.as_mut() else {
                    return;
                };
                step_sub(
                    inner,
                    round - L::FALLBACK_START,
                    inbox,
                    out,
                    L::phase,
                    L::wrap,
                );
                if let Some(o) = inner.output() {
                    self.out = Some(o.decision.unwrap_or(o.value));
                }
            }
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
pub(crate) mod tests {
    use super::*;
    use ba_core::PredictionMatrix;
    use ba_crypto::Pki;
    use ba_sim::{ReplayAdversary, Runner, SilentAdversary};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    pub(crate) fn faults(ids: &[u32]) -> BTreeSet<ProcessId> {
        ids.iter().copied().map(ProcessId).collect()
    }

    /// The plain lane of any process.
    fn plain(_: ProcessId) -> Plain {
        Plain
    }

    /// The signed lane of each process: its own key.
    pub(crate) fn certified(pki: &Arc<Pki>) -> impl Fn(ProcessId) -> Certified + '_ {
        |id| Certified::new(Arc::clone(pki), pki.signing_key(id.0))
    }

    /// The honest processes of a system, each over the lane `lane`
    /// gives it.
    pub(crate) fn lane_system<L: Lane>(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        matrix: &PredictionMatrix,
        lane: impl Fn(ProcessId) -> L,
        input: impl Fn(usize) -> u64,
    ) -> BTreeMap<ProcessId, CommEffBa<L>> {
        ProcessId::all(n)
            .filter(|id| !faulty.contains(id))
            .enumerate()
            .map(|(slot, id)| {
                let row = matrix.row(id).clone();
                let p = CommEffBa::with_lane(lane(id), id, n, t, Value(input(slot)), row);
                (id, p)
            })
            .collect()
    }

    fn system(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        matrix: &PredictionMatrix,
        input: impl Fn(usize) -> u64,
    ) -> BTreeMap<ProcessId, CommEff> {
        lane_system(n, t, faulty, matrix, plain, input)
    }

    /// The step of the fast-lane decision.
    fn decision_step<L: Lane>() -> u64 {
        L::FALLBACK_START - 1
    }

    fn fast_lane_decides_in_its_last_step_with<L: Lane>(lane: impl Fn(ProcessId) -> L) {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let system = lane_system(n, 3, &f, &m, lane, |_| 6);
        let mut runner = Runner::with_ids(n, system, SilentAdversary);
        let report = runner.run(CommEffBa::<L>::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert_eq!(report.last_decision_round, Some(decision_step::<L>()));
    }

    #[test]
    fn fast_lane_decides_in_five_or_six_rounds_with_perfect_predictions() {
        assert_eq!(decision_step::<Plain>(), 4);
        assert_eq!(decision_step::<Certified>(), 5);
        fast_lane_decides_in_its_last_step_with(plain);
        fast_lane_decides_in_its_last_step_with(certified(&Arc::new(Pki::new(10, 5))));
    }

    fn fast_lane_agrees_on_split_inputs_with<L: Lane>(lane: impl Fn(ProcessId) -> L) {
        let n = 13;
        let f = faults(&[1, 6]);
        let m = PredictionMatrix::perfect(n, &f);
        let system = lane_system(n, 4, &f, &m, lane, |slot| 1 + (slot % 2) as u64);
        let mut runner = Runner::with_ids(n, system, SilentAdversary);
        let report = runner.run(CommEffBa::<L>::rounds(4));
        assert!(report.agreement());
        assert_eq!(
            report.last_decision_round,
            Some(decision_step::<L>()),
            "still the fast lane"
        );
    }

    #[test]
    fn fast_lane_agrees_on_split_inputs() {
        fast_lane_agrees_on_split_inputs_with(plain);
        fast_lane_agrees_on_split_inputs_with(certified(&Arc::new(Pki::new(13, 5))));
    }

    fn garbage_predictions_divert_with<L: Lane>(lane: impl Fn(ProcessId) -> L) {
        // All-honest predictions put a single (faulty, silent) process
        // on every committee: no aggregator ever activates, so the run
        // must divert into phase-king and still decide unanimously.
        let n = 7;
        let f = faults(&[0]);
        let m = PredictionMatrix::all_honest(n);
        let system = lane_system(n, 2, &f, &m, lane, |_| 9);
        let mut runner = Runner::with_ids(n, system, SilentAdversary);
        let report = runner.run(CommEffBa::<L>::rounds(2));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(9)), "unanimity survives");
        assert!(
            report.last_decision_round.expect("decided") > decision_step::<L>(),
            "fallback lane"
        );
        assert!(runner.process(ProcessId(1)).expect("honest").fell_back());
    }

    #[test]
    fn garbage_predictions_divert_into_the_fallback_and_still_agree() {
        garbage_predictions_divert_with(plain);
        garbage_predictions_divert_with(certified(&Arc::new(Pki::new(7, 5))));
    }

    fn replayed_traffic_is_inert_with<L: Lane>(lane: impl Fn(ProcessId) -> L) {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let system = lane_system(n, 3, &f, &m, lane, |_| 6);
        let mut runner = Runner::with_ids(n, system, ReplayAdversary::new(1));
        let report = runner.run(CommEffBa::<L>::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert_eq!(
            report.last_decision_round,
            Some(decision_step::<L>()),
            "replay cannot stall"
        );
    }

    #[test]
    fn replayed_traffic_is_inert() {
        replayed_traffic_is_inert_with(plain);
        replayed_traffic_is_inert_with(certified(&Arc::new(Pki::new(10, 5))));
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
    fn certify_counts_a_senders_first_ack_even_when_unhappy() {
        // The faulty committee member p3 splits p2's report view, so
        // only the honest p0 and p1 ack happily: one short of n − t = 3.
        // p3 then sends each aggregator an unhappy ack followed by a
        // happy one. The plain certify step takes the first ack per
        // sender and only then counts the happy ones, so p3 is not
        // counted and both aggregators retreat.
        use ba_sim::{AdversaryCtx, FnAdversary};
        let (n, t) = (4, 1);
        let f = faults(&[3]);
        let mut m = PredictionMatrix::perfect(n, &f);
        for row in [0, 1, 2] {
            m.row_mut(ProcessId(row)).set(2, false);
            m.row_mut(ProcessId(row)).set(3, true);
        }
        assert_eq!(
            CommEff::committee_of(m.row(ProcessId(0))),
            Some(vec![ProcessId(0), ProcessId(1), ProcessId(3)])
        );
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, CommEffMsg>| match ctx.round {
            1 => ctx.send(ProcessId(3), ProcessId(2), CommEffMsg::Report(Value(9))),
            2 => {
                for to in [ProcessId(0), ProcessId(1)] {
                    for happy in [false, true] {
                        let ack = CommEffMsg::Ack {
                            value: Value(5),
                            happy,
                        };
                        ctx.send(ProcessId(3), to, ack);
                    }
                }
            }
            _ => {}
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, |_| 5), adv);
        let report = runner.run(CommEff::rounds(t));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(5)));
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            assert!(
                runner.process(id).expect("honest").fell_back(),
                "{id}: p3's later happy ack must not complete the quorum"
            );
        }
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
    fn rejects_too_many_faults() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pki = Arc::new(Pki::new(9, 1));
        let key = pki.signing_key(0);
        let bits = BitVec::ones(9);
        let panics = [
            catch_unwind(|| CommEff::new(ProcessId(0), 9, 3, Value(0), bits.clone())).err(),
            catch_unwind(AssertUnwindSafe(|| {
                CommEffSigned::new(ProcessId(0), 9, 3, Value(0), bits.clone(), pki, key)
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
