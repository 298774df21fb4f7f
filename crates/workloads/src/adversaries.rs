//! Byzantine strategies against the wrapper protocols.
//!
//! The protocol-agnostic strategies (silence, crashing, replay) live in
//! `ba-sim`; here are the prediction-aware ones — the classification
//! liars for every pipeline with a classification round, and the
//! *signature equivocators* for the signed pipelines: coalitions that
//! forge tags (claiming honest signers), replay honest signatures from
//! corrupted identities, sign genuinely conflicting bodies with their
//! own corrupted keys, and selectively withhold genuine certificates —
//! the full menu the signed variants' verify-on-receive, conviction,
//! and certificate-echo mechanisms must defeat. The deepest
//! protocol-specific attacks (split chains, camp-splitting) are
//! exercised at the individual protocol layers (see the
//! `ba-graded`/`ba-auth` test suites), where the adversary can be
//! written against the concrete message type.

use ba_commeff::signed::{AckBody, Certificate, CommEffSignedMsg, ReportBody};
use ba_core::{BitVec, Kit, WrapperMsg};
use ba_crypto::{Pki, Signed, SigningKey};
use ba_resilient::signed::{ClassifyBody, ResilientSignedMsg};
use ba_resilient::ResilientMsg;
use ba_sim::{Adversary, AdversaryCtx, ProcessId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// What a lying voter claims during classification (Algorithm 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiarStyle {
    /// Everyone is honest — shields the adversary's own members.
    AllOnes,
    /// Everyone is faulty — maximal suspicion.
    AllZeros,
    /// Honest processes accused, faulty endorsed — the exact inversion.
    Inverted,
    /// Independent random bits per recipient (equivocating liar).
    RandomPerRecipient,
}

/// Broadcasts crafted prediction vectors in the classification round and
/// stays silent afterwards.
///
/// Works against both wrapper pipelines via [`ClassifyLiar::wrapper`].
#[derive(Clone, Debug)]
pub struct ClassifyLiar {
    n: usize,
    style: LiarStyle,
    faulty: Vec<ProcessId>,
    rng: StdRng,
}

impl ClassifyLiar {
    /// Creates the liar controlling `faulty` in a system of `n`.
    pub fn new(n: usize, faulty: Vec<ProcessId>, style: LiarStyle, seed: u64) -> Self {
        ClassifyLiar {
            n,
            style,
            faulty,
            rng: StdRng::seed_from_u64(seed ^ 0x11a5),
        }
    }

    fn vector(&mut self) -> BitVec {
        match self.style {
            LiarStyle::AllOnes => BitVec::ones(self.n),
            LiarStyle::AllZeros => BitVec::zeros(self.n),
            LiarStyle::Inverted => {
                let mut v = BitVec::zeros(self.n);
                for f in &self.faulty {
                    v.set(f.index(), true);
                }
                v
            }
            LiarStyle::RandomPerRecipient => {
                let bits: Vec<bool> = (0..self.n).map(|_| self.rng.gen()).collect();
                BitVec::from_bools(&bits)
            }
        }
    }

    /// Sends the crafted vectors of round 0: one per broadcast, or one
    /// per recipient under `RandomPerRecipient`, each wrapped by `wrap`
    /// for its sending member.
    fn emit<M: Clone>(
        &mut self,
        ctx: &mut AdversaryCtx<'_, M>,
        wrap: impl Fn(ProcessId, BitVec) -> M,
    ) {
        if ctx.round != 0 {
            return;
        }
        let per_recipient = matches!(self.style, LiarStyle::RandomPerRecipient);
        for from in self.faulty.clone() {
            if per_recipient {
                for to in ProcessId::all(self.n) {
                    let msg = wrap(from, self.vector());
                    ctx.send(from, to, msg);
                }
            } else {
                let msg = wrap(from, self.vector());
                ctx.broadcast(from, msg);
            }
        }
    }

    /// Adapter for the Algorithm-1 wrapper's message type, over either
    /// component kit.
    pub fn wrapper<K: Kit>(self) -> impl Adversary<WrapperMsg<K>> {
        Wrapped(self, |_: ProcessId, bits| {
            WrapperMsg::Classify(Rc::new(bits))
        })
    }

    /// Adapter for the resilient pipeline's message type — the only
    /// non-wrapper family with a real classification round to lie in
    /// (`RandomPerRecipient` there splits the honest suspicion views,
    /// exercising the schedule's liveness suffix).
    pub fn resilient(self) -> impl Adversary<ResilientMsg> {
        Wrapped(self, |_: ProcessId, bits| {
            ResilientMsg::Classify(Rc::new(bits))
        })
    }

    /// Adapter for the *signed* resilient pipeline: the same crafted
    /// vectors, each signed with the emitting coalition member's own
    /// corrupted key (the harness hands the adversary exactly those, one
    /// per member). `RandomPerRecipient` becomes a *signature
    /// equivocator* — and the signed exchange convicts it by its own
    /// signatures instead of paying the rotation suffix.
    pub fn resilient_signed(self, keys: Vec<SigningKey>) -> impl Adversary<ResilientSignedMsg> {
        let keys: BTreeMap<ProcessId, SigningKey> =
            keys.into_iter().map(|k| (ProcessId(k.id()), k)).collect();
        Wrapped(self, move |from: ProcessId, bits| {
            let vote = Signed::new(ClassifyBody { bits }, &keys[&from]);
            ResilientSignedMsg::Classify(Rc::new(vote))
        })
    }
}

/// A liar whose vectors travel in the classification message its
/// second field builds for the sending member.
struct Wrapped<F>(ClassifyLiar, F);
impl<M: Clone, F: Fn(ProcessId, BitVec) -> M> Adversary<M> for Wrapped<F> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        self.0.emit(ctx, &self.1);
    }
}

/// The full signature-equivocation menu against the signed
/// communication-efficient pipeline, used as its `Disruptor` mapping:
///
/// * **submit round** — rushing visibility replays every observed
///   honest signed submission from a corrupted identity, in the round
///   the submit step actually reads them (verify-on-receive must drop
///   each signer/sender mismatch);
/// * **report round** — every coalition member signs *conflicting*
///   reports with its own key (one value to even recipients, another to
///   odd ones), plus a forged-tag report claiming an honest signer;
/// * **ack round** — rushing visibility harvests every honest signed
///   acknowledgement; the coalition sends no acknowledgements;
/// * **certify round** — for each report value in turn, every member
///   signs a happy acknowledgement of it, and those join the harvested
///   ones; the first value whose acknowledgements reach an `n − t`
///   distinct-signer quorum makes a *genuine* certificate, which the
///   first member delivers to the odd half only (the withholding split
///   the echo round must repair). Either way every member split-casts a
///   certificate stuffed with forged acknowledgements to the even half.
///
/// Verify-on-receive drops the forgeries and replays, quorum
/// intersection prevents conflicting genuine certificates, and the
/// certificate echo spreads any withheld one — so the honest lane
/// choice stays uniform, which the conformance suite asserts at
/// n ∈ {16, 32, 64}. Deterministic: no randomness anywhere.
pub struct SignedCertEquivocator {
    n: usize,
    t: usize,
    keys: Vec<SigningKey>,
    pki: Arc<Pki>,
    harvested: Vec<Signed<AckBody>>,
}

impl SignedCertEquivocator {
    /// The two values the coalition plays against each other.
    const SPLIT: (u64, u64) = (5, 77);

    /// Creates the equivocator controlling the corrupted `keys`.
    pub fn new(n: usize, t: usize, keys: Vec<SigningKey>, pki: Arc<Pki>) -> Self {
        SignedCertEquivocator {
            n,
            t,
            keys,
            pki,
            harvested: Vec::new(),
        }
    }

    /// A certificate stuffed with forged acknowledgements: `key`'s tags
    /// re-attributed to honest signers. Must never verify.
    fn bogus_certificate(&self, key: &SigningKey, value: Value) -> Rc<Certificate> {
        let acks = (0..self.n as u32)
            .map(|claimed| {
                let body = AckBody { value, happy: true };
                let mut sig = *Signed::new(body, key).signature();
                sig.signer = claimed;
                Signed::from_parts(body, sig)
            })
            .collect();
        Rc::new(Certificate { value, acks })
    }

    /// The genuine certificate for `value`, if the harvested and own
    /// acknowledgements reach an `n − t` distinct-signer happy quorum.
    fn genuine_certificate(&self, value: Value) -> Option<Rc<Certificate>> {
        let mut signers = BTreeSet::new();
        let mut acks = Vec::new();
        let own = self
            .keys
            .iter()
            .map(|key| Signed::new(AckBody { value, happy: true }, key));
        for ack in self.harvested.iter().cloned().chain(own) {
            if ack.body().value == value
                && ack.body().happy
                && ack.verify(&self.pki)
                && signers.insert(ack.signer())
            {
                acks.push(ack);
            }
        }
        (signers.len() >= self.n - self.t).then(|| Rc::new(Certificate { value, acks }))
    }
}

impl Adversary<CommEffSignedMsg> for SignedCertEquivocator {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, CommEffSignedMsg>) {
        let (a, b) = Self::SPLIT;
        match ctx.round {
            0 => {
                // Replay every honest signed submission — observed via
                // rushing visibility in the round the Submit step
                // actually reads them — from a corrupted identity: the
                // signer/sender mismatch must get each one dropped by
                // verify-on-receive.
                if let Some(key) = self.keys.first() {
                    let from = ProcessId(key.id());
                    for env in ctx.honest_traffic() {
                        if matches!(&*env.payload, CommEffSignedMsg::Submit(_)) {
                            ctx.replay_broadcast(from, env.payload);
                        }
                    }
                }
            }
            1 => {
                // Conflicting reports under the coalition's own keys.
                for key in &self.keys {
                    let from = ProcessId(key.id());
                    for to in ProcessId::all(self.n) {
                        let v = if to.0.is_multiple_of(2) { a } else { b };
                        let msg = CommEffSignedMsg::Report(Signed::new(
                            ReportBody { value: Value(v) },
                            key,
                        ));
                        ctx.send(from, to, msg);
                    }
                    // A forged report claiming the first honest-looking
                    // signer (anyone but ourselves).
                    let claimed = (0..self.n as u32)
                        .find(|id| *id != key.id())
                        .unwrap_or_default();
                    let body = ReportBody { value: Value(a) };
                    let mut sig = *Signed::new(body, key).signature();
                    sig.signer = claimed;
                    ctx.broadcast(
                        from,
                        CommEffSignedMsg::Report(Signed::from_parts(body, sig)),
                    );
                }
            }
            2 => {
                // Rushing visibility: harvest the honest signed acks.
                for env in ctx.honest_traffic() {
                    if let CommEffSignedMsg::Ack(signed) = &*env.payload {
                        self.harvested.push(signed.clone());
                    }
                }
            }
            3 => {
                // Genuine-but-withheld certificate to the odd half…
                let genuine = [Value(a), Value(b)]
                    .into_iter()
                    .find_map(|v| self.genuine_certificate(v));
                if let (Some(cert), Some(key)) = (genuine, self.keys.first()) {
                    let from = ProcessId(key.id());
                    for to in ProcessId::all(self.n).filter(|p| !p.0.is_multiple_of(2)) {
                        ctx.send(from, to, CommEffSignedMsg::Commit(Rc::clone(&cert)));
                    }
                }
                // …and unverifiable forged certificates to the evens
                // (none without a corrupted key to forge with).
                let Some(forger) = self.keys.first() else {
                    return;
                };
                let bogus = self.bogus_certificate(forger, Value(a));
                for key in &self.keys {
                    let from = ProcessId(key.id());
                    for to in ProcessId::all(self.n).filter(|p| p.0.is_multiple_of(2)) {
                        ctx.send(from, to, CommEffSignedMsg::Commit(Rc::clone(&bogus)));
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn styles_produce_expected_vectors() {
        let mut liar = ClassifyLiar::new(4, vec![ProcessId(3)], LiarStyle::Inverted, 1);
        let v = liar.vector();
        assert!(!v.get(0) && !v.get(1) && !v.get(2) && v.get(3));

        let mut ones = ClassifyLiar::new(4, vec![ProcessId(3)], LiarStyle::AllOnes, 1);
        assert_eq!(ones.vector().count_ones(), 4);

        let mut zeros = ClassifyLiar::new(4, vec![ProcessId(3)], LiarStyle::AllZeros, 1);
        assert_eq!(zeros.vector().count_ones(), 0);
    }

    #[test]
    fn random_style_is_seed_deterministic() {
        let v1 =
            ClassifyLiar::new(8, vec![ProcessId(7)], LiarStyle::RandomPerRecipient, 9).vector();
        let v2 =
            ClassifyLiar::new(8, vec![ProcessId(7)], LiarStyle::RandomPerRecipient, 9).vector();
        assert_eq!(v1, v2);
    }
}
