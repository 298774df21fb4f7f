//! Algorithm 1 — Byzantine Agreement with Predictions (§5, §9,
//! Theorems 11 and 12).
//!
//! `ba-with-predictions(xᵢ, aᵢ)`:
//!
//! ```text
//!  1: cᵢ ← classify(aᵢ)                                  (Algorithm 2)
//!  4: for φ ← 1 to ⌈log₂ t⌉ + 1:
//!  6:   (vᵢ, gᵢ) ← graded-consensus(vᵢ)                  (S2 / S3)
//!  7:   v'ᵢ ← ba-early-stopping(vᵢ, T)                   (S4 / S5)
//!  8:   if gᵢ = 0 then vᵢ ← v'ᵢ
//!  9:   (vᵢ, gᵢ) ← graded-consensus(vᵢ)
//! 10:   v'ᵢ ← ba-with-classification(vᵢ, cᵢ, 2^{φ−1}, T) (Algorithm 5 / 7)
//! 11:   if gᵢ = 0 then vᵢ ← v'ᵢ
//! 12:   (vᵢ, gᵢ) ← graded-consensus(vᵢ)
//! 13:   if decidedᵢ then return decisionᵢ
//! 14:   if gᵢ = 1 then { decisionᵢ ← vᵢ; decidedᵢ ← true }
//! 17: return decisionᵢ
//! ```
//!
//! The algorithm is stated once, as [`Wrapper<K>`]; a [`Kit`] supplies
//! the sub-protocols and their round costs:
//!
//! * [`Unauth`] (Theorem 11, `t < n/3`): S2, S4 and Algorithm 5;
//! * [`Auth`] (Theorem 12, `t < n/2`): S3, S5 and Algorithm 7. Algorithm
//!   7 only needs `2k + 1 ≤ n − t − k`, so the prediction budget keeps
//!   paying off up to `B = Θ(n²)` (bench E2). Every signature is bound to
//!   its slot index (the session tag), so signatures harvested in one
//!   sub-protocol are useless in another.
//!
//! Safety rests *only* on the unconditional graded consensus: the
//! early-stopping and classification sub-protocols may return garbage in
//! phases whose preconditions fail, but a garbage value is adopted only
//! at grade 0, and grade-1 coherence pins every adopted decision
//! (Lemmas 28–31 of the paper). Performance comes from whichever
//! sub-protocol's condition fires first — `O(min{B/n + 1, f})` phases'
//! worth of doubling budgets.

use crate::bitvec::BitVec;
use crate::classify::Classify;
use crate::ordering::pi_order;
use crate::schedule::{Schedule, SlotKind};
use ba_auth::bb_committee::BbBatch;
use ba_auth::{Alg7Msg, AuthBaWithClassification};
use ba_crypto::{Pki, SigningKey};
use ba_early::{EsUnauth, EsUnauthMsg, TruncatedDs};
use ba_graded::{AuthGcMsg, AuthGraded, Graded, UnauthGcMsg, UnauthGraded};
use ba_sim::{step_sub, Envelope, Outbox, Process, ProcessId, Value, WireSize};
use ba_unauth::{Alg5Msg, UnauthBaWithClassification};
use std::fmt::Debug;
use std::rc::Rc;
use std::sync::Arc;

/// The component set one instantiation of Algorithm 1 plugs in.
///
/// Every slot constructor receives the slot index, which authenticated
/// kits use as the session tag binding the slot's signatures. The
/// `Clone + Debug` bounds let [`WrapperMsg`] derive both.
pub trait Kit: Clone + Debug {
    /// Graded consensus (lines 6, 9 and 12).
    type Gc: Process<Msg = Self::GcMsg, Output = Graded>;
    /// Early-stopping BA with a fault budget (line 7).
    type Es: Process<Msg = Self::EsMsg, Output = Value>;
    /// Conditional BA with classification and an error budget (line 10).
    type Class: Process<Msg = Self::ClassMsg>;
    /// Message of [`Gc`](Kit::Gc).
    type GcMsg: Clone + Debug + WireSize;
    /// Message of [`Es`](Kit::Es).
    type EsMsg: Clone + Debug + WireSize;
    /// Message of [`Class`](Kit::Class).
    type ClassMsg: Clone + Debug + WireSize;

    /// The deterministic schedule for `(n, t)`, from the kit's round
    /// costs and its [`Class`](Kit::Class) protocol's structural condition.
    fn schedule(n: usize, t: usize) -> Schedule;

    /// Graded consensus of slot `slot` on `input`.
    fn gc(&self, me: ProcessId, n: usize, t: usize, slot: u16, input: Value) -> Self::Gc;

    /// Early-stopping BA of slot `slot` at phase budget `k`.
    fn es(&self, me: ProcessId, n: usize, t: usize, k: usize, slot: u16, input: Value) -> Self::Es;

    /// Conditional BA of slot `slot` at error budget `k`, listening in
    /// the priority order `order = π(cᵢ)`.
    #[allow(clippy::too_many_arguments)]
    fn class(
        &self,
        me: ProcessId,
        n: usize,
        t: usize,
        k: usize,
        slot: u16,
        input: Value,
        order: Arc<Vec<ProcessId>>,
    ) -> Self::Class;

    /// The value a finished [`Class`](Kit::Class) run returned.
    fn class_value(output: <Self::Class as Process>::Output) -> Value;
}

/// The unauthenticated components (Theorem 11, `t < n/3`).
#[derive(Clone, Debug)]
pub struct Unauth;

impl Kit for Unauth {
    type Gc = UnauthGraded;
    type Es = EsUnauth;
    type Class = UnauthBaWithClassification;
    type GcMsg = UnauthGcMsg;
    type EsMsg = EsUnauthMsg;
    type ClassMsg = Alg5Msg;

    fn schedule(n: usize, t: usize) -> Schedule {
        Schedule::build(
            t,
            UnauthGraded::ROUNDS,
            |k| EsUnauth::rounds(n, t, k),
            |k| {
                UnauthBaWithClassification::is_structurally_valid(n, k)
                    .then(|| UnauthBaWithClassification::rounds(k))
            },
        )
    }

    fn gc(&self, me: ProcessId, n: usize, t: usize, _: u16, input: Value) -> Self::Gc {
        UnauthGraded::new(me, n, t, input)
    }

    fn es(&self, me: ProcessId, n: usize, t: usize, k: usize, _: u16, input: Value) -> Self::Es {
        EsUnauth::new(me, n, t, k, input)
    }

    fn class(
        &self,
        me: ProcessId,
        n: usize,
        _t: usize,
        k: usize,
        _slot: u16,
        input: Value,
        order: Arc<Vec<ProcessId>>,
    ) -> Self::Class {
        UnauthBaWithClassification::new(me, n, k, input, order)
    }

    fn class_value(output: ba_unauth::Alg5Output) -> Value {
        output.value
    }
}

/// The authenticated components (Theorem 12, `t < n/2`): one process's
/// view of the PKI and its own signing key.
#[derive(Clone, Debug)]
pub struct Auth {
    pki: Arc<Pki>,
    key: SigningKey,
}

impl Auth {
    /// The truncated Dolev–Strong budget of phase budget `k`: a run
    /// longer than `t + 1` rounds tolerates no more faults.
    fn es_budget(t: usize, k: usize) -> usize {
        k.min(t)
    }
}

impl Kit for Auth {
    type Gc = AuthGraded;
    type Es = TruncatedDs;
    type Class = AuthBaWithClassification;
    type GcMsg = AuthGcMsg;
    type EsMsg = BbBatch;
    type ClassMsg = Alg7Msg;

    fn schedule(n: usize, t: usize) -> Schedule {
        Schedule::build(
            t,
            AuthGraded::ROUNDS,
            |k| TruncatedDs::rounds(Self::es_budget(t, k)),
            |k| {
                AuthBaWithClassification::is_structurally_valid(n, k)
                    .then(|| AuthBaWithClassification::rounds(k))
            },
        )
    }

    fn gc(&self, me: ProcessId, n: usize, t: usize, slot: u16, input: Value) -> Self::Gc {
        let (pki, key) = (Arc::clone(&self.pki), self.key.clone());
        AuthGraded::new(me, n, t, u64::from(slot), input, pki, key)
    }

    fn es(&self, me: ProcessId, n: usize, t: usize, k: usize, slot: u16, input: Value) -> Self::Es {
        let (pki, key) = (Arc::clone(&self.pki), self.key.clone());
        let k = Self::es_budget(t, k);
        TruncatedDs::new(me, n, t, k, u64::from(slot), input, pki, key)
    }

    fn class(
        &self,
        me: ProcessId,
        n: usize,
        t: usize,
        k: usize,
        slot: u16,
        input: Value,
        order: Arc<Vec<ProcessId>>,
    ) -> Self::Class {
        let (pki, key) = (Arc::clone(&self.pki), self.key.clone());
        AuthBaWithClassification::new(me, n, t, k, u64::from(slot), input, order, pki, key)
    }

    fn class_value(output: Value) -> Value {
        output
    }
}

/// Messages of the wrapper, tagged by slot.
#[derive(Clone, Debug)]
pub enum WrapperMsg<K: Kit> {
    /// Algorithm 2 traffic.
    Classify(Rc<BitVec>),
    /// Graded-consensus traffic of one slot.
    Gc {
        /// Slot index (= session tag).
        slot: u16,
        /// Inner payload.
        inner: Rc<K::GcMsg>,
    },
    /// Early-stopping traffic of one slot.
    Es {
        /// Slot index (= session tag).
        slot: u16,
        /// Inner payload.
        inner: Rc<K::EsMsg>,
    },
    /// Conditional-BA traffic of one slot.
    Class {
        /// Slot index (= session tag).
        slot: u16,
        /// Inner payload.
        inner: Rc<K::ClassMsg>,
    },
}

/// Messages of the unauthenticated wrapper.
pub type UnauthWrapperMsg = WrapperMsg<Unauth>;
/// Messages of the authenticated wrapper.
pub type AuthWrapperMsg = WrapperMsg<Auth>;

/// A discriminant byte, the slot tag where present, and the inner
/// payload.
impl<K: Kit> WireSize for WrapperMsg<K> {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            WrapperMsg::Classify(bits) => bits.wire_bytes(),
            WrapperMsg::Gc { slot, inner } => slot.wire_bytes() + inner.wire_bytes(),
            WrapperMsg::Es { slot, inner } => slot.wire_bytes() + inner.wire_bytes(),
            WrapperMsg::Class { slot, inner } => slot.wire_bytes() + inner.wire_bytes(),
        }
    }
}

/// The sub-protocol of the current slot.
enum Active<K: Kit> {
    Classify(Classify),
    Gc(K::Gc),
    Es(K::Es),
    Class(K::Class),
}

/// One process's state machine for `ba-with-predictions` over the
/// components `K`.
///
/// The schedule (and therefore the exact number of rounds) is a pure
/// function of `(n, t)`: [`Wrapper::schedule`].
pub struct Wrapper<K: Kit> {
    kit: K,
    me: ProcessId,
    n: usize,
    t: usize,
    schedule: Schedule,
    cursor: usize,
    value: Value,
    grade: u8,
    decision: Option<Value>,
    decision_phase: Option<u16>,
    order: Option<Arc<Vec<ProcessId>>>,
    classification: Option<BitVec>,
    active: Active<K>,
    returned: bool,
}

/// Algorithm 1 over the unauthenticated pipeline (Theorem 11).
pub type UnauthWrapper = Wrapper<Unauth>;
/// Algorithm 1 over the authenticated pipeline (Theorem 12).
pub type AuthWrapper = Wrapper<Auth>;

impl<K: Kit> Debug for Wrapper<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wrapper")
            .field("me", &self.me)
            .field("value", &self.value)
            .field("decision", &self.decision)
            .field("returned", &self.returned)
            .finish_non_exhaustive()
    }
}

impl Wrapper<Unauth> {
    /// Creates the state machine for process `me`.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` (Theorem 11's resilience) and the
    /// prediction has `n` bits.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        assert!(3 * t < n, "the unauthenticated pipeline needs 3t < n");
        Self::build(Unauth, me, n, t, input, prediction)
    }
}

impl Wrapper<Auth> {
    /// Creates the state machine for process `me`, signing with `key`.
    ///
    /// # Panics
    ///
    /// Panics unless `2t < n`, the prediction has `n` bits and `key`
    /// belongs to `me`.
    pub fn new(
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        prediction: BitVec,
        pki: Arc<Pki>,
        key: SigningKey,
    ) -> Self {
        assert!(2 * t < n, "the authenticated pipeline needs t < n/2");
        assert_eq!(key.id(), me.0);
        Self::build(Auth { pki, key }, me, n, t, input, prediction)
    }
}

impl<K: Kit> Wrapper<K> {
    /// The deterministic schedule for a system of `n` processes with
    /// fault bound `t`.
    pub fn schedule(n: usize, t: usize) -> Schedule {
        K::schedule(n, t)
    }

    fn build(kit: K, me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        assert_eq!(prediction.len(), n);
        Wrapper {
            kit,
            me,
            n,
            t,
            schedule: K::schedule(n, t),
            cursor: 0,
            value: input,
            grade: 0,
            decision: None,
            decision_phase: None,
            order: None,
            classification: None,
            active: Active::Classify(Classify::new(me, n, prediction)),
            returned: false,
        }
    }

    /// The classification vector `cᵢ` (available once Algorithm 2 has
    /// run).
    pub fn classification(&self) -> Option<&BitVec> {
        self.classification.as_ref()
    }

    /// The phase in which this process decided, if it has.
    pub fn decision_phase(&self) -> Option<u16> {
        self.decision_phase
    }

    fn drive(
        &mut self,
        local: u64,
        inbox: &[Envelope<WrapperMsg<K>>],
        out: &mut Outbox<WrapperMsg<K>>,
    ) {
        let idx = self.schedule.slots[self.cursor].idx;
        match &mut self.active {
            Active::Classify(sub) => step_sub(
                sub,
                local,
                inbox,
                out,
                |m| match m {
                    WrapperMsg::Classify(x) => Some(Rc::clone(x)),
                    _ => None,
                },
                WrapperMsg::Classify,
            ),
            Active::Gc(sub) => step_sub(
                sub,
                local,
                inbox,
                out,
                |m| match m {
                    WrapperMsg::Gc { slot, inner } if *slot == idx => Some(Rc::clone(inner)),
                    _ => None,
                },
                |inner| WrapperMsg::Gc { slot: idx, inner },
            ),
            Active::Es(sub) => step_sub(
                sub,
                local,
                inbox,
                out,
                |m| match m {
                    WrapperMsg::Es { slot, inner } if *slot == idx => Some(Rc::clone(inner)),
                    _ => None,
                },
                |inner| WrapperMsg::Es { slot: idx, inner },
            ),
            Active::Class(sub) => step_sub(
                sub,
                local,
                inbox,
                out,
                |m| match m {
                    WrapperMsg::Class { slot, inner } if *slot == idx => Some(Rc::clone(inner)),
                    _ => None,
                },
                |inner| WrapperMsg::Class { slot: idx, inner },
            ),
        }
    }

    /// Applies the wrapper's per-slot transition (the numbered lines of
    /// Algorithm 1). Returns `true` if the process returned.
    fn finalize_slot(&mut self) -> bool {
        let kind = self.schedule.slots[self.cursor].kind;
        match (kind, &self.active) {
            (SlotKind::Classify, Active::Classify(sub)) => {
                let c = sub.output().expect("classification ready");
                self.order = Some(Arc::new(pi_order(&c)));
                self.classification = Some(c);
            }
            (SlotKind::GcA { .. } | SlotKind::GcB { .. }, Active::Gc(sub)) => {
                let g = sub.output().expect("graded consensus ready");
                self.value = g.value;
                self.grade = g.paper_grade();
            }
            (SlotKind::Es { .. }, Active::Es(sub)) => {
                let v = sub.output().expect("early stopping ready");
                if self.grade == 0 {
                    self.value = v;
                }
            }
            (SlotKind::Class { .. }, Active::Class(sub)) => {
                let o = sub.output().expect("conditional BA ready");
                if self.grade == 0 {
                    self.value = K::class_value(o);
                }
            }
            (SlotKind::GcC { phase }, Active::Gc(sub)) => {
                let g = sub.output().expect("graded consensus ready");
                self.value = g.value;
                if self.decision.is_some() {
                    self.returned = true; // line 13
                    return true;
                }
                if g.paper_grade() == 1 {
                    self.decision = Some(g.value); // lines 14–16
                    self.decision_phase = Some(phase);
                }
            }
            (kind, _) => unreachable!("slot {kind:?} finalized with mismatched sub-protocol"),
        }
        false
    }

    fn start_slot(&mut self) {
        let slot = self.schedule.slots[self.cursor];
        let (me, n, t, input) = (self.me, self.n, self.t, self.value);
        self.active = match slot.kind {
            SlotKind::Classify => unreachable!("classify is constructed up front"),
            SlotKind::GcA { .. } | SlotKind::GcB { .. } | SlotKind::GcC { .. } => {
                Active::Gc(self.kit.gc(me, n, t, slot.idx, input))
            }
            SlotKind::Es { k, .. } => Active::Es(self.kit.es(me, n, t, k, slot.idx, input)),
            SlotKind::Class { k, .. } => {
                let order = Arc::clone(self.order.as_ref().expect("classified before phase 1"));
                Active::Class(self.kit.class(me, n, t, k, slot.idx, input, order))
            }
        };
    }
}

impl<K: Kit> Process for Wrapper<K> {
    type Msg = WrapperMsg<K>;
    type Output = Value;

    fn step(
        &mut self,
        round: u64,
        inbox: &[Envelope<WrapperMsg<K>>],
        out: &mut Outbox<WrapperMsg<K>>,
    ) {
        if self.returned {
            return;
        }
        let slot = self.schedule.slots[self.cursor];
        if round == slot.end {
            // The slot's output step: feed it this step's inbox, read the
            // result, and (in the same step) start the next slot.
            self.drive(round - slot.start, inbox, out);
            if self.finalize_slot() {
                return;
            }
            if self.cursor + 1 == self.schedule.slots.len() {
                // Line 17: the schedule is exhausted.
                if self.decision.is_none() {
                    self.decision = Some(self.value);
                }
                self.returned = true;
                return;
            }
            self.cursor += 1;
            self.start_slot();
            self.drive(0, inbox, out);
        } else {
            debug_assert!(round >= slot.start && round < slot.end);
            self.drive(round - slot.start, inbox, out);
        }
    }

    fn output(&self) -> Option<Value> {
        self.decision
    }

    fn halted(&self) -> bool {
        self.returned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prediction::PredictionMatrix;
    use ba_sim::{RunReport, Runner, SilentAdversary};
    use std::collections::{BTreeMap, BTreeSet};

    /// Runs the wrapper built by `make` at every non-faulty identifier,
    /// handing out `inputs` in identifier order, against silent faults.
    fn run<K: Kit>(
        n: usize,
        faulty: &[u32],
        inputs: &[u64],
        max_rounds: u64,
        make: impl Fn(ProcessId, Value) -> Wrapper<K>,
    ) -> RunReport<Value> {
        let faulty: BTreeSet<ProcessId> = faulty.iter().copied().map(ProcessId).collect();
        let mut honest = BTreeMap::new();
        let mut next_input = inputs.iter().copied();
        for id in ProcessId::all(n).filter(|id| !faulty.contains(id)) {
            let v = Value(next_input.next().expect("enough inputs"));
            honest.insert(id, make(id, v));
        }
        Runner::with_ids(n, honest, SilentAdversary).run(max_rounds)
    }

    fn run_unauth(
        n: usize,
        t: usize,
        faulty: &[u32],
        inputs: &[u64],
        matrix: &PredictionMatrix,
        max_rounds: u64,
    ) -> RunReport<Value> {
        run(n, faulty, inputs, max_rounds, |id, v| {
            UnauthWrapper::new(id, n, t, v, matrix.row(id).clone())
        })
    }

    fn run_auth(
        n: usize,
        t: usize,
        faulty: &[u32],
        inputs: &[u64],
        matrix: &PredictionMatrix,
        max_rounds: u64,
    ) -> RunReport<Value> {
        let pki = Arc::new(Pki::new(n, 1234));
        run(n, faulty, inputs, max_rounds, |id, v| {
            let row = matrix.row(id).clone();
            AuthWrapper::new(id, n, t, v, row, Arc::clone(&pki), pki.signing_key(id.0))
        })
    }

    fn perfect(n: usize, faulty: &[u32]) -> PredictionMatrix {
        let f: BTreeSet<ProcessId> = faulty.iter().copied().map(ProcessId).collect();
        PredictionMatrix::perfect(n, &f)
    }

    #[test]
    fn unauth_unanimity_with_perfect_predictions_decides_fast() {
        let report = run_unauth(16, 5, &[14, 15], &[7; 14], &perfect(16, &[14, 15]), 400);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(7)));
    }

    #[test]
    fn unauth_mixed_inputs_agree_with_perfect_predictions() {
        let inputs: Vec<u64> = (0..14).map(|i| i % 2).collect();
        let report = run_unauth(16, 5, &[13, 15], &inputs, &perfect(16, &[13, 15]), 400);
        assert!(report.agreement());
        let d = report.decision().unwrap();
        assert!(*d == Value(0) || *d == Value(1), "validity of domain");
    }

    #[test]
    fn unauth_garbage_predictions_still_terminate_and_agree() {
        // Predictions are pure noise (all-zeros: everyone suspected);
        // the early-stopping path must carry the day.
        let n = 16;
        let m = PredictionMatrix::from_rows(vec![BitVec::zeros(n); n]);
        let inputs: Vec<u64> = (0..14).map(|i| i % 3).collect();
        let report = run_unauth(n, 5, &[7, 11], &inputs, &m, 600);
        assert!(report.agreement(), "graceful degradation");
    }

    #[test]
    fn unauth_schedule_is_deterministic_and_finite() {
        let s1 = UnauthWrapper::schedule(16, 5);
        let s2 = UnauthWrapper::schedule(16, 5);
        assert_eq!(s1.total_steps, s2.total_steps);
        assert_eq!(s1.slots.len(), s2.slots.len());
        assert!(s1.total_steps < 1000);
    }

    #[test]
    fn unauth_decision_never_changes_after_set() {
        let report = run_unauth(16, 5, &[], &[4; 16], &perfect(16, &[]), 400);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(4)));
    }

    #[test]
    fn auth_unanimity_beyond_one_third_faults() {
        // t = 4 of n = 10 — impossible for the unauthenticated pipeline.
        let faulty = [6, 7, 8, 9];
        let report = run_auth(10, 4, &faulty, &[3; 6], &perfect(10, &faulty), 600);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(3)));
    }

    #[test]
    fn auth_mixed_inputs_agree_with_perfect_predictions() {
        let inputs: Vec<u64> = (0..8).map(|i| i % 2).collect();
        let report = run_auth(10, 3, &[4, 9], &inputs, &perfect(10, &[4, 9]), 600);
        assert!(report.agreement());
    }

    #[test]
    fn auth_garbage_predictions_still_agree() {
        let n = 10;
        let m = PredictionMatrix::from_rows(vec![BitVec::zeros(n); n]);
        let inputs: Vec<u64> = (0..8).map(|i| i % 2).collect();
        let report = run_auth(n, 3, &[0, 5], &inputs, &m, 600);
        assert!(report.agreement(), "graceful degradation");
    }

    #[test]
    fn schedule_class_slots_survive_to_larger_k_than_unauth() {
        // The headline asymmetry: Algorithm 7 slots exist while
        // 2k+1 ≤ n; Algorithm 5 slots need (2k+1)(3k+1) ≤ n.
        let n = 32;
        let max_k = |s: &Schedule| {
            s.slots
                .iter()
                .filter_map(|s| match s.kind {
                    SlotKind::Class { k, .. } => Some(k),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        assert!(max_k(&AuthWrapper::schedule(n, 10)) > max_k(&UnauthWrapper::schedule(n, 10)));
    }
}
