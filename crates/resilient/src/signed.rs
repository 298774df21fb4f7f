//! The signed classification exchange: agreeing suspicion views, a
//! `t + 2`-phase budget, and no rotation suffix.
//!
//! [`Plain`](crate::Plain) broadcasts prediction strings
//! unauthenticated, so a Byzantine classifier can split the honest
//! suspicion views, and its schedule pays a rotation suffix for it (see
//! the crate docs). Following Dallot et al.'s signed exchange, [`Signed`]
//! makes the views agree instead:
//!
//! 1. **Signed classifications, verify-on-receive** — round 0
//!    broadcasts each process's prediction string in a
//!    [`ba_crypto::Signed`] envelope; forged tags and replayed honest
//!    signatures are dropped.
//! 2. **Echo round with carrier attestation** — round 1 re-broadcasts
//!    every *valid* signed classification received, and round 2
//!    aggregates only strings carried by **`≥ t + 1` distinct
//!    echoers**. Honest echoes are broadcast, so the honest carrier
//!    count of every string is identical at every honest process: a
//!    string broadcast in round 0 clears the threshold everywhere
//!    (`n − f ≥ t + 1` honest echo it), while a string *injected*
//!    selectively into echo-round inboxes — never broadcast — can
//!    muster at most `f ≤ t` faulty carriers and is ignored
//!    everywhere. Without the threshold, one such injection would
//!    split the suspicion views with zero equivocation.
//! 3. **Equivocation conviction** — two distinct attested strings from
//!    one signer are transferable *proof* of equivocation: the signer
//!    is convicted and demoted below every unconvicted identifier
//!    ([`signed_king_schedule`]), its strings ignored. Honest
//!    processes sign exactly one string, so they can never be
//!    convicted. Finer-grained equivocation (each string shown to
//!    `≤ t` processes) stays below the attestation threshold and is
//!    ignored wholesale — either way the equivocator contributes
//!    nothing, and the aggregated views agree.
//!
//! *Scope.* One window remains: a string delivered in round 0 to
//! `k ∈ [t + 1 − f, t]` honest processes sits at the attestation
//! boundary, where selective faulty echoes can tip inclusion for some
//! honest processes and not others. Closing it needs interactive
//! consistency on the classification set — `Θ(t)` more rounds — which
//! would cost more than the `t + 1` phases the suffix-free schedule
//! saves; the conformance suite pins the behaviour the threshold does
//! guarantee (pure injection and per-recipient equivocation defeated
//! at n ∈ {16, 32, 64}).

use crate::{throne_order, Disruptor, Exchange, Resilient, View};
use ba_core::BitVec;
use ba_crypto::{Encodable, Encoder, Pki, SigningKey};
use ba_early::PhaseKingMsg;
use ba_sim::{Envelope, Outbox, ProcessId, Value, WireSize};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// Signed body of a classification broadcast: the sender's `n`-bit
/// prediction string. The leading tag byte domain-separates it from
/// every other signed body kind in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifyBody {
    /// The prediction string (bit `j` set ⇔ `p_j` predicted honest).
    pub bits: BitVec,
}

impl Encodable for ClassifyBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(16);
        enc.u64(self.bits.len() as u64);
        let mut packed = vec![0u8; self.bits.len().div_ceil(8)];
        for j in 0..self.bits.len() {
            if self.bits.get(j) {
                packed[j / 8] |= 1 << (j % 8);
            }
        }
        enc.bytes(&packed);
    }
}

impl WireSize for ClassifyBody {
    fn wire_bytes(&self) -> u64 {
        self.bits.wire_bytes()
    }
}

/// A signed classification.
type Vote = ba_crypto::Signed<ClassifyBody>;

/// Messages of the signed resilient pipeline.
#[derive(Clone, Debug)]
pub enum ResilientSignedMsg {
    /// Round 0 → all: the sender's signed prediction string.
    Classify(Rc<Vote>),
    /// Round 1 → all: every valid signed classification the sender
    /// received — the common-pool mechanism behind agreeing views.
    Echo(Rc<Vec<Vote>>),
    /// Rounds 2+: wrapped trust-ordered phase-king traffic.
    Phase(Rc<PhaseKingMsg>),
}

/// A discriminant byte plus the variant's payload; a signed
/// classification costs its unsigned counterpart plus exactly the
/// 20-byte signature.
impl WireSize for ResilientSignedMsg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            ResilientSignedMsg::Classify(s) => s.wire_bytes(),
            ResilientSignedMsg::Echo(entries) => entries.wire_bytes(),
            ResilientSignedMsg::Phase(inner) => inner.wire_bytes(),
        }
    }
}

/// The throne order of the signed pipeline: the `t + 2` least-suspected
/// identifiers (ties toward the smaller id), with convicted
/// equivocators demoted below every unconvicted identifier — and **no**
/// rotation suffix, because the signed exchange makes the honest
/// suspicion views (and therefore the schedules) agree.
///
/// The schedule always contains at least two honest identifiers when
/// `t + 2 ≤ n` (at most `f ≤ t` faulty ones exist), so under an
/// agreeing view a common honest king reigns by phase `t + 1` and the
/// early-stopping phase king decides within `t + 2` phases.
///
/// # Panics
///
/// Panics unless `suspicion` and `convicted` have one entry per
/// identifier.
pub fn signed_king_schedule(
    n: usize,
    t: usize,
    suspicion: &[usize],
    convicted: &[bool],
) -> Vec<ProcessId> {
    throne_order(n, suspicion, convicted, t + 2, 0)
}

/// The signed exchange: one process's view of the PKI and its own
/// signing key.
#[derive(Clone, Debug)]
pub struct Signed {
    /// The public-key infrastructure every signature is checked against.
    pub pki: Arc<Pki>,
    /// The key this process signs its classification with.
    pub key: SigningKey,
}

impl Exchange for Signed {
    type Msg = ResilientSignedMsg;
    const PHASE_START: u64 = 2;

    /// `t + 2` suspicion-ordered slots — no rotation suffix.
    fn phases(t: usize) -> usize {
        t + 2
    }

    fn schedule(n: usize, t: usize, suspicion: &[usize], convicted: &[bool]) -> Vec<ProcessId> {
        signed_king_schedule(n, t, suspicion, convicted)
    }

    fn classify(&self, bits: BitVec) -> ResilientSignedMsg {
        ResilientSignedMsg::Classify(Rc::new(Vote::new(ClassifyBody { bits }, &self.key)))
    }

    /// Re-broadcasts the valid signed classifications of the round-0
    /// inbox: signature verified for the envelope sender, duplicates
    /// dropped, *distinct* equivocated strings kept (they are conviction
    /// evidence).
    fn echo(&self, inbox: &[Envelope<ResilientSignedMsg>], out: &mut Outbox<ResilientSignedMsg>) {
        let mut valid: Vec<Vote> = Vec::new();
        for env in inbox {
            let ResilientSignedMsg::Classify(signed) = &*env.payload else {
                continue;
            };
            if signed.verified_from(&self.pki, env.from.0).is_none() {
                continue;
            }
            if !valid.iter().any(|s| *s == **signed) {
                valid.push((**signed).clone());
            }
        }
        out.broadcast(ResilientSignedMsg::Echo(Rc::new(valid)));
    }

    /// Aggregates the echoed common pool into suspicion scores and
    /// convictions.
    ///
    /// Only strings carried by **at least `t + 1` distinct echoers**
    /// count (for scoring *and* conviction). Honest echoes are
    /// broadcast, so the honest carrier count of every string is the
    /// same at every honest process; a string broadcast in round 0
    /// reaches `n − f ≥ t + 1` honest echoers and is counted
    /// everywhere, while a string *injected* directly into echo-round
    /// inboxes (never broadcast in round 0) can muster at most `f ≤ t`
    /// faulty carriers and is ignored everywhere — so the coalition
    /// cannot split the aggregated views without committing a string
    /// to `≥ t + 1 − f` honest processes in round 0 first. Own direct
    /// receptions need no special case: a process's round-1 echo is
    /// broadcast, so it reaches its own round-2 inbox too.
    fn aggregate(&self, n: usize, t: usize, inbox: &[Envelope<ResilientSignedMsg>]) -> View {
        // Per signer: each distinct validly-signed string with its set
        // of distinct echo carriers. Echoed entries verify on their own
        // signatures — the echoer needs no trust for *validity*, only
        // the carrier count gates *inclusion*. Each distinct
        // (signer, string) pair is verified once, on first sight.
        let mut per_signer: BTreeMap<u32, Vec<(BitVec, BTreeSet<ProcessId>)>> = BTreeMap::new();
        for env in inbox {
            let ResilientSignedMsg::Echo(entries) = &*env.payload else {
                continue;
            };
            for signed in entries.iter() {
                if (signed.signer() as usize) >= n {
                    continue;
                }
                let strings = per_signer.entry(signed.signer()).or_default();
                match strings
                    .iter_mut()
                    .find(|(bits, _)| *bits == signed.body().bits)
                {
                    Some((_, carriers)) => {
                        carriers.insert(env.from);
                    }
                    None if signed.verify(&self.pki) => {
                        strings.push((signed.body().bits.clone(), BTreeSet::from([env.from])));
                    }
                    None => {}
                }
            }
        }
        let mut convicted = vec![false; n];
        let mut singles: Vec<&BitVec> = Vec::new();
        for (&signer, strings) in &per_signer {
            let attested: Vec<&BitVec> = strings
                .iter()
                .filter(|(_, carriers)| carriers.len() > t)
                .map(|(bits, _)| bits)
                .collect();
            match attested[..] {
                [] => {}
                [one] => singles.push(one),
                _ => convicted[signer as usize] = true,
            }
        }
        View::new::<Self>(n, t, singles, convicted)
    }

    /// Verify-on-receive: a string counts for its envelope sender only
    /// if the sender signed it. Identical strings from different senders
    /// each count, exactly as in the honest aggregation; a
    /// content-deduplicated count would rank identifiers differently.
    fn classifications_by_sender<'a>(
        &self,
        envelopes: &'a [Envelope<ResilientSignedMsg>],
    ) -> BTreeMap<ProcessId, &'a BitVec> {
        let mut per_sender = BTreeMap::new();
        for env in envelopes {
            let ResilientSignedMsg::Classify(signed) = &*env.payload else {
                continue;
            };
            if signed.verified_from(&self.pki, env.from.0).is_some() {
                per_sender.entry(env.from).or_insert(&signed.body().bits);
            }
        }
        per_sender
    }

    fn phase(msg: &ResilientSignedMsg) -> Option<Rc<PhaseKingMsg>> {
        match msg {
            ResilientSignedMsg::Phase(x) => Some(Rc::clone(x)),
            _ => None,
        }
    }

    fn wrap(inner: Rc<PhaseKingMsg>) -> ResilientSignedMsg {
        ResilientSignedMsg::Phase(inner)
    }
}

impl Resilient<Signed> {
    /// Creates the state machine for process `me`, signing with `key`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ba_core::PredictionMatrix;
    /// use ba_crypto::Pki;
    /// use ba_resilient::ResilientSigned;
    /// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
    /// use std::collections::BTreeSet;
    /// use std::sync::Arc;
    ///
    /// // n = 7, one silent fault (p6), perfect predictions.
    /// let n = 7;
    /// let faulty: BTreeSet<ProcessId> = [ProcessId(6)].into_iter().collect();
    /// let matrix = PredictionMatrix::perfect(n, &faulty);
    /// let pki = Arc::new(Pki::new(n, 1));
    /// let procs: Vec<ResilientSigned> = (0..6u32)
    ///     .map(|i| {
    ///         let id = ProcessId(i);
    ///         let key = pki.signing_key(i);
    ///         ResilientSigned::new(id, n, 2, Value(9), matrix.row(id).clone(), Arc::clone(&pki), key)
    ///     })
    ///     .collect();
    /// let mut runner = Runner::new(n, procs, SilentAdversary);
    /// let report = runner.run(ResilientSigned::rounds(2));
    /// assert_eq!(report.decision(), Some(&Value(9)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn new(
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        prediction: BitVec,
        pki: Arc<Pki>,
        key: SigningKey,
    ) -> Self {
        Self::with_exchange(Signed { pki, key }, me, n, t, input, prediction)
    }
}

impl Disruptor<Signed> {
    /// Creates the disruptor for the given system parameters; `keys`
    /// are the corrupted identifiers' signing keys (the harness hands
    /// the adversary exactly those, never honest ones).
    pub fn new(n: usize, t: usize, keys: Vec<SigningKey>, pki: Arc<Pki>) -> Self {
        let member = |key: SigningKey| {
            let pki = Arc::clone(&pki);
            (ProcessId(key.id()), Signed { pki, key })
        };
        Self::with_coalition(n, t, keys.into_iter().map(member).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suspicion_scores;
    use crate::tests::{faults, signed, system};
    use crate::ResilientSigned;
    use ba_core::PredictionMatrix;
    use ba_crypto::Signed;
    use ba_sim::{AdversaryCtx, FnAdversary, Runner};
    use std::collections::BTreeSet;

    /// Extracts every honest schedule and asserts they are identical —
    /// the invariant the suffix removal rests on.
    fn assert_schedules_agree(
        runner: &Runner<ResilientSigned, impl ba_sim::Adversary<ResilientSignedMsg>>,
        n: usize,
        f: &BTreeSet<ProcessId>,
    ) -> Vec<ProcessId> {
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
            schedules.windows(2).all(|w| w[0] == w[1]),
            "signed exchange must produce agreeing schedules, got {schedules:?}"
        );
        schedules.into_iter().next().expect("honest population")
    }

    /// The signed mirror of the unsigned schedule-split pin
    /// (`equivocated_classifications_split_the_unsigned_schedules` in
    /// the crate root): the same per-recipient classification
    /// equivocation leaves each of its strings with a single carrier —
    /// below the `t + 1` attestation threshold — so every honest
    /// process ignores the equivocator wholesale, derives the *same*
    /// suffix-free schedule (the honest strings' suspicion already
    /// demotes it), and decides within the first phases instead of
    /// crawling to the rotation suffix.
    #[test]
    fn per_recipient_equivocation_is_ignored_and_schedules_agree() {
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let key6 = pki.signing_key(6);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(7) {
                    // Suspect a different singleton per recipient —
                    // each string validly signed with p6's own key.
                    let mut bits = BitVec::ones(7);
                    bits.set((to.0 as usize) % 7, false);
                    let msg = ResilientSignedMsg::Classify(Rc::new(Signed::new(
                        ClassifyBody { bits },
                        &key6,
                    )));
                    ctx.send(ProcessId(6), to, msg);
                }
            }
        });
        let mut runner = Runner::with_ids(
            n,
            system(n, t, &f, &m, signed(&pki), |slot| (slot % 2) as u64),
            adv,
        );
        let report = runner.run(ResilientSigned::rounds(t));
        assert!(report.agreement());
        assert!(report.all_decided());
        let schedule = assert_schedules_agree(&runner, n, &f);
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            let p = runner.process(id).expect("honest");
            assert_eq!(
                p.convicted().expect("aggregated"),
                vec![false; n].as_slice(),
                "single-carrier strings stay below the attestation \
                 threshold: ignored, not convicted"
            );
            assert_eq!(
                p.suspicion().expect("aggregated")[..6],
                [0, 0, 0, 0, 0, 0],
                "{id}: sub-threshold strings must not add suspicion"
            );
            assert!(
                !p.classification().expect("aggregated").get(6),
                "the honest majority still classifies p6 faulty"
            );
        }
        assert!(
            !schedule.contains(&ProcessId(6)),
            "honest suspicion keeps the equivocator off the throne"
        );
        assert!(
            report.last_decision_round.expect("decided") <= 2 + 2 * 5 + 1,
            "an honest phase-0 king decides immediately — no suffix crawl"
        );
    }

    /// Coarse equivocation — each conflicting string broadcast widely
    /// enough to clear the `t + 1` attestation threshold — is the case
    /// conviction exists for: both strings enter the common pool
    /// everywhere, the signer is convicted uniformly and demoted below
    /// every unconvicted identifier.
    #[test]
    fn coarse_equivocation_is_convicted_uniformly() {
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::all_honest(n); // nobody suspects p6 a priori
        let pki = Arc::new(Pki::new(n, 5));
        let key6 = pki.signing_key(6);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(7) {
                    // Half the population sees "all honest", the other
                    // half "suspect everyone": each string reaches ≥
                    // t + 1 honest echoers.
                    let bits = if to.0.is_multiple_of(2) {
                        BitVec::ones(7)
                    } else {
                        BitVec::zeros(7)
                    };
                    let msg = ResilientSignedMsg::Classify(Rc::new(Signed::new(
                        ClassifyBody { bits },
                        &key6,
                    )));
                    ctx.send(ProcessId(6), to, msg);
                }
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, signed(&pki), |_| 4), adv);
        let report = runner.run(ResilientSigned::rounds(t));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(4)), "unanimity survives");
        let schedule = assert_schedules_agree(&runner, n, &f);
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            let p = runner.process(id).expect("honest");
            let convicted = p.convicted().expect("aggregated");
            assert!(convicted[6], "{id} must convict the coarse equivocator");
            assert_eq!(convicted.iter().filter(|c| **c).count(), 1);
            assert!(
                !p.classification().expect("aggregated").get(6),
                "convicted ⇒ classified faulty"
            );
        }
        assert!(
            !schedule.contains(&ProcessId(6)),
            "a convicted equivocator never reaches the throne"
        );
    }

    /// The echo-injection attack the attestation threshold exists for:
    /// a string that was *never broadcast in round 0* is wrapped in an
    /// `Echo` and delivered to half the honest processes only, during
    /// the echo round itself. Its carrier count is at most `f ≤ t`
    /// everywhere, so every honest process ignores it — without the
    /// threshold this zero-equivocation injection would split the
    /// suspicion views (and, suffix-free, the schedules).
    #[test]
    fn echo_injected_strings_cannot_split_the_schedules() {
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let key6 = pki.signing_key(6);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>| {
            if ctx.round == 1 {
                // Validly signed, never committed in round 0: frame the
                // low identifiers to half the population.
                let mut bits = BitVec::ones(7);
                for j in 0..4 {
                    bits.set(j, false);
                }
                let smear = Signed::new(ClassifyBody { bits }, &key6);
                for to in ProcessId::all(7).filter(|p| p.0.is_multiple_of(2)) {
                    ctx.send(
                        ProcessId(6),
                        to,
                        ResilientSignedMsg::Echo(Rc::new(vec![smear.clone()])),
                    );
                }
            }
        });
        let mut runner = Runner::with_ids(
            n,
            system(n, t, &f, &m, signed(&pki), |slot| (slot % 2) as u64),
            adv,
        );
        let report = runner.run(ResilientSigned::rounds(t));
        assert!(report.agreement());
        assert!(report.all_decided());
        let schedule = assert_schedules_agree(&runner, n, &f);
        assert_eq!(
            schedule,
            vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)],
            "the injected smear must not reorder the throne"
        );
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            let p = runner.process(id).expect("honest");
            assert_eq!(
                p.suspicion().expect("aggregated")[..4],
                [0, 0, 0, 0],
                "{id}: an injected (sub-threshold) string adds no suspicion"
            );
        }
        assert!(
            report.last_decision_round.expect("decided") <= 2 + 2 * 5 + 1,
            "agreeing schedules decide in the first phases"
        );
    }

    #[test]
    fn forged_and_replayed_classification_signatures_are_inert() {
        let n = 10;
        let t = 3;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let key3 = pki.signing_key(3);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>| {
            if ctx.round != 0 {
                return;
            }
            // Forge an all-zeros classification claiming an honest
            // signer: the tag cannot verify.
            let body = ClassifyBody {
                bits: BitVec::zeros(10),
            };
            let mut sig = *Signed::new(body.clone(), &key3).signature();
            sig.signer = 0;
            ctx.broadcast(
                ProcessId(3),
                ResilientSignedMsg::Classify(Rc::new(Signed::from_parts(body, sig))),
            );
            // Replay honest signed strings from the corrupted identity:
            // the signer no longer matches the envelope sender.
            for env in ctx.honest_traffic() {
                ctx.replay_broadcast(ProcessId(7), env.payload);
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, signed(&pki), |_| 6), adv);
        let report = runner.run(ResilientSigned::rounds(t));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        let p = runner.process(ProcessId(0)).expect("honest");
        assert_eq!(
            p.convicted().expect("aggregated"),
            vec![false; n].as_slice(),
            "forgeries and replays must convict nobody"
        );
        assert_eq!(
            p.suspicion().expect("aggregated")[0],
            0,
            "the forged all-zeros string must not add suspicion"
        );
    }

    #[test]
    fn disruptor_reconstruction_counts_strings_per_sender() {
        // Regression: the coalition's reconstruction used to deduplicate strings by
        // *content*, so three senders sharing one string counted once —
        // here that would seat p3 (dedup score 1) in the last slot
        // instead of p5, desynchronizing the coalition from the honest
        // throne order it means to disrupt.
        let n = 7;
        let t = 2;
        let pki = Arc::new(Pki::new(n, 3));
        let classify = |sender: u32, suspects: &[usize]| {
            let mut bits = BitVec::ones(7);
            for &j in suspects {
                bits.set(j, false);
            }
            Envelope::new(
                ProcessId(sender),
                ProcessId(6),
                ResilientSignedMsg::Classify(Rc::new(Signed::new(
                    ClassifyBody { bits },
                    &pki.signing_key(sender),
                ))),
            )
        };
        // p0/p1/p2 share one string suspecting p3; p3 and p4 hold
        // distinct strings both suspecting p4.
        let traffic = vec![
            classify(0, &[3]),
            classify(1, &[3]),
            classify(2, &[3]),
            classify(3, &[4, 5]),
            classify(4, &[4, 6]),
        ];
        let coalition = crate::Signed {
            key: pki.signing_key(6),
            pki,
        };
        let schedule = coalition.view_by_sender(n, t, &traffic).schedule;
        // Per-sender scores: p3 ← 3, p4 ← 2, p5 ← 1, p6 ← 1; the last
        // slot goes to p5 (tie with p6 broken by id).
        assert_eq!(
            schedule,
            vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(5)]
        );
        // And it matches the honest-side aggregation of the same pool.
        let strings: Vec<BitVec> = traffic
            .iter()
            .map(|env| match &*env.payload {
                ResilientSignedMsg::Classify(s) => s.body().bits.clone(),
                _ => unreachable!(),
            })
            .collect();
        let honest =
            signed_king_schedule(n, t, &suspicion_scores(n, strings.iter()), &vec![false; n]);
        assert_eq!(schedule, honest);
    }

    #[test]
    fn signed_schedule_is_suffix_free_distinct_and_in_range() {
        let suspicion = vec![5, 0, 4, 0, 1, 6, 6];
        let convicted = vec![false, false, true, false, false, false, false];
        let ks = signed_king_schedule(7, 2, &suspicion, &convicted);
        assert_eq!(ks.len(), ResilientSigned::phases(2));
        // p2 (score 4) would beat p0 (score 5) on suspicion alone, but
        // its conviction demotes it below every unconvicted identifier.
        assert_eq!(
            ks,
            vec![ProcessId(1), ProcessId(3), ProcessId(4), ProcessId(0)]
        );
        let mut distinct = ks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), ks.len(), "no identifier reigns twice");
    }

    #[test]
    fn signed_budget_is_smaller_than_unsigned() {
        for t in 1..12 {
            assert!(ResilientSigned::phases(t) < crate::ResilientBa::phases(t));
            assert!(ResilientSigned::rounds(t) < crate::ResilientBa::rounds(t));
        }
    }

    #[test]
    fn message_sizes_follow_the_signature_model() {
        let pki = Pki::new(16, 1);
        let bits = BitVec::ones(16);
        let unsigned = crate::ResilientMsg::Classify(Rc::new(bits.clone()));
        let signed = ResilientSignedMsg::Classify(Rc::new(Signed::new(
            ClassifyBody { bits },
            &pki.signing_key(0),
        )));
        assert_eq!(
            signed.wire_bytes(),
            unsigned.wire_bytes() + 20,
            "signed classify = unsigned + the 20-byte signature"
        );
    }
}
