//! Algorithm 6 — Byzantine Broadcast with an Implicit Committee (§8.2).
//!
//! A Dolev–Strong-style broadcast whose participants are the processes
//! holding committee certificates, truncated to `k + 1` rounds. The
//! committee is *implicit*: nobody knows its membership, but any member
//! can prove membership by attaching its certificate. With at most `k`
//! faulty certified processes, any valid chain of length `k + 1` contains
//! an honest link whose broadcast already reached everyone — the crux of
//! Lemma 23 (Committee Agreement).
//!
//! Guarantees (for `|C ∩ F| ≤ k`):
//!
//! * **Committee Agreement** — honest certificate holders return the same
//!   value;
//! * **Validity with Sender Certificate** — an honest certified sender's
//!   value is returned by every honest process;
//! * **Default without Sender Certificate** — no certificate, no chains:
//!   everyone returns `⊥` (Lemma 22).
//!
//! [`CommitteeMode::Universal`] drops the certificates entirely (every
//! process is implicitly certified). Running `n` universal instances in
//! parallel truncated at `k + 1` rounds and taking the plurality is this
//! repository's authenticated early-stopping agreement, standing in for
//! the authenticated variant of Lenzen–Sheikholeslami that the paper
//! cites (Theorem 10): it is a full Dolev–Strong per sender whenever
//! `f ≤ k`, and the guess-and-double wrapper supplies ever larger `k`.

use crate::chains::{CommitteeCert, MessageChain};
use ba_crypto::{Pki, SigningKey};
use ba_sim::{Envelope, Outbox, Process, ProcessId, Value};
use std::sync::Arc;

/// Who counts as a committee member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitteeMode {
    /// Members must attach valid committee certificates (Algorithm 6 as
    /// written; used inside Algorithm 7).
    Certified,
    /// Every process is implicitly a member; chains carry no
    /// certificates (the early-stopping fallback).
    Universal,
}

/// Static parameters of one broadcast instance.
#[derive(Clone, Copy, Debug)]
pub struct BbConfig {
    /// System size.
    pub n: usize,
    /// Global fault bound `t` (certificate threshold is `t + 1`).
    pub t: usize,
    /// Bound on *faulty committee members*; the protocol runs `k + 1`
    /// rounds.
    pub k: usize,
    /// Session tag bound into all signatures.
    pub session: u64,
    /// The designated sender (= instance id).
    pub inst: u32,
    /// Certificate discipline.
    pub mode: CommitteeMode,
}

impl BbConfig {
    fn require_certs(&self) -> bool {
        matches!(self.mode, CommitteeMode::Certified)
    }
}

/// State machine for one broadcast instance at one process, driven by
/// [`ParallelBroadcast`] (or a bespoke test harness).
#[derive(Clone, Debug)]
pub struct BbInstance {
    cfg: BbConfig,
    /// `Xᵢ`: accepted values (at most 2; more are never needed).
    accepted: Vec<Value>,
    /// Extensions of the chains accepted this round, built as each is
    /// accepted and waiting to be broadcast.
    extensions: Vec<MessageChain>,
}

impl BbInstance {
    /// Creates the instance state.
    pub fn new(cfg: BbConfig) -> Self {
        BbInstance {
            cfg,
            accepted: Vec::new(),
            extensions: Vec::new(),
        }
    }

    /// The instance configuration.
    pub fn config(&self) -> &BbConfig {
        &self.cfg
    }

    /// Round-1 send (sender only): start the chain, provided the sender
    /// can prove membership (Algorithm 6 lines 2–4).
    pub fn make_start(
        &mut self,
        key: &SigningKey,
        cert: Option<CommitteeCert>,
        value: Value,
    ) -> Option<MessageChain> {
        debug_assert_eq!(key.id(), self.cfg.inst);
        if self.cfg.require_certs() && cert.is_none() {
            return None;
        }
        self.accepted.push(value);
        Some(MessageChain::start(
            self.cfg.session,
            self.cfg.inst,
            value,
            key,
            cert,
        ))
    }

    /// Ingests a chain received in round `round` (1-based). Only valid
    /// chains of length exactly `round` count (Algorithm 6 lines 5, 11).
    ///
    /// An accepted chain is extended at once with `key` and `cert`
    /// (Algorithm 6 line 10) when this process will relay it: in rounds
    /// up to `k` (chains accepted in the final round are never extended,
    /// lines 12–13), and in certified mode only with a membership
    /// credential. `cert` is cloned once per extension made.
    pub fn recv_chain(
        &mut self,
        pki: &Pki,
        round: usize,
        chain: &MessageChain,
        key: &SigningKey,
        cert: Option<&CommitteeCert>,
    ) {
        if self.accepted.len() >= 2 {
            return; // |Xᵢ| < 2 gate (line 8)
        }
        if chain.len() != round {
            return;
        }
        if self.accepted.contains(&chain.value) {
            return;
        }
        if !chain.verify(
            self.cfg.session,
            self.cfg.inst,
            self.cfg.t,
            self.cfg.require_certs(),
            pki,
        ) {
            return;
        }
        self.accepted.push(chain.value);
        if round <= self.cfg.k && (cert.is_some() || !self.cfg.require_certs()) {
            let ext = chain.extend(self.cfg.session, self.cfg.inst, key, cert.cloned());
            self.extensions.push(ext);
        }
    }

    /// The extensions built since the last call, in acceptance order.
    pub fn take_extensions(&mut self) -> Vec<MessageChain> {
        std::mem::take(&mut self.extensions)
    }

    /// Final output (Algorithm 6 lines 14–16): the unique accepted value,
    /// or `None` (⊥).
    pub fn finish(&self) -> Option<Value> {
        match self.accepted.as_slice() {
            [x] => Some(*x),
            _ => None,
        }
    }
}

/// Runs `n` broadcast instances (one per potential sender) in parallel
/// with per-round batching: one physical message per ordered pair per
/// round.
///
/// Local step `r` corresponds to Algorithm 6's round `r + 1`; the output
/// (a vector `bb[s]` of `Option<Value>`, indexed by sender) is available
/// after step `k + 1`.
pub struct ParallelBroadcast {
    me: ProcessId,
    n: usize,
    k: usize,
    pki: Arc<Pki>,
    key: SigningKey,
    my_cert: Option<CommitteeCert>,
    my_value: Value,
    instances: Vec<BbInstance>,
    out: Option<Vec<Option<Value>>>,
}

impl std::fmt::Debug for ParallelBroadcast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelBroadcast")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("k", &self.k)
            .field("done", &self.out.is_some())
            .finish_non_exhaustive()
    }
}

/// Batched chain traffic: `(instance, chain)` pairs.
pub type BbBatch = Vec<(u32, MessageChain)>;

impl ParallelBroadcast {
    /// Number of communication rounds: `k + 1`.
    pub fn rounds(k: usize) -> u64 {
        k as u64 + 1
    }

    /// Creates the `n`-instance driver for process `me`.
    ///
    /// `my_cert` is this process's committee certificate (`None` means it
    /// is not on the committee, or universal mode).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: ProcessId,
        n: usize,
        t: usize,
        k: usize,
        session: u64,
        mode: CommitteeMode,
        my_value: Value,
        my_cert: Option<CommitteeCert>,
        pki: Arc<Pki>,
        key: SigningKey,
    ) -> Self {
        assert_eq!(key.id(), me.0);
        let instances = (0..n as u32)
            .map(|inst| {
                BbInstance::new(BbConfig {
                    n,
                    t,
                    k,
                    session,
                    inst,
                    mode,
                })
            })
            .collect();
        ParallelBroadcast {
            me,
            n,
            k,
            pki,
            key,
            my_cert,
            my_value,
            instances,
            out: None,
        }
    }

    /// The per-sender outputs, if finished.
    pub fn outputs(&self) -> Option<&[Option<Value>]> {
        self.out.as_deref()
    }
}

impl Process for ParallelBroadcast {
    type Msg = BbBatch;
    type Output = Vec<Option<Value>>;

    fn step(&mut self, round: u64, inbox: &[Envelope<BbBatch>], out: &mut Outbox<BbBatch>) {
        let k = self.k as u64;
        if round > k + 1 {
            return;
        }
        // Ingest round-`round` chains (sent in the previous step).
        if round >= 1 {
            for env in inbox {
                for (inst, chain) in env.payload.iter() {
                    if let Some(instance) = self.instances.get_mut(*inst as usize) {
                        let cert = self.my_cert.as_ref();
                        instance.recv_chain(&self.pki, round as usize, chain, &self.key, cert);
                    }
                }
            }
        }
        if round == k + 1 {
            self.out = Some(self.instances.iter().map(|i| i.finish()).collect());
            return;
        }
        let mut batch: BbBatch = Vec::new();
        if round == 0 {
            // Algorithm 6 round 1: start the own instance.
            let me = self.me.0;
            let cert = self.my_cert.clone();
            let value = self.my_value;
            if let Some(chain) = self.instances[self.me.index()].make_start(&self.key, cert, value)
            {
                batch.push((me, chain));
            }
        } else {
            for (i, instance) in self.instances.iter_mut().enumerate() {
                for ext in instance.take_extensions() {
                    batch.push((i as u32, ext));
                }
            }
        }
        if !batch.is_empty() {
            out.broadcast(batch);
        }
    }

    fn output(&self) -> Option<Vec<Option<Value>>> {
        self.out.clone()
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chains::committee_bytes;
    use ba_crypto::Signature;
    use ba_sim::{AdversaryCtx, FnAdversary, Runner, SilentAdversary};
    use std::collections::BTreeMap;

    fn cert_for(pki: &Pki, session: u64, member: u32, t: usize) -> CommitteeCert {
        let votes: Vec<Signature> = (0..(t + 1) as u32)
            .map(|s| pki.signing_key(s).sign(&committee_bytes(session, member)))
            .collect();
        CommitteeCert {
            member,
            sigs: votes,
        }
    }

    fn universal_system(
        n: usize,
        t: usize,
        k: usize,
        session: u64,
        inputs: &[u64],
        pki: &Arc<Pki>,
    ) -> Vec<ParallelBroadcast> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                ParallelBroadcast::new(
                    ProcessId(i as u32),
                    n,
                    t,
                    k,
                    session,
                    CommitteeMode::Universal,
                    Value(v),
                    None,
                    Arc::clone(pki),
                    pki.signing_key(i as u32),
                )
            })
            .collect()
    }

    #[test]
    fn universal_mode_honest_senders_deliver_everywhere() {
        let n = 5;
        let pki = Arc::new(Pki::new(n, 8));
        let mut runner = Runner::new(
            n,
            universal_system(n, 2, 2, 1, &[10, 11, 12, 13, 14], &pki),
            SilentAdversary,
        );
        let report = runner.run(8);
        assert!(report.all_decided());
        for outs in report.outputs.values() {
            for (s, v) in outs.iter().enumerate() {
                assert_eq!(*v, Some(Value(10 + s as u64)));
            }
        }
    }

    #[test]
    fn silent_sender_yields_bottom() {
        let n = 4;
        let pki = Arc::new(Pki::new(n, 8));
        // p3 faulty & silent: its instance must output ⊥ everywhere.
        let mut runner = Runner::new(
            n,
            universal_system(n, 1, 1, 1, &[1, 2, 3], &pki),
            SilentAdversary,
        );
        let report = runner.run(6);
        for outs in report.outputs.values() {
            assert_eq!(outs[3], None);
            assert_eq!(outs[0], Some(Value(1)));
        }
    }

    #[test]
    fn last_round_release_attack_fails_to_split() {
        // Classic Dolev–Strong attack: the faulty sender releases a valid
        // length-(k+1) chain to exactly one process in the last round. The
        // chain must carry k+1 distinct signers; with only f = 1 faulty
        // and k = 1, every such chain has an honest link which already
        // broadcast — so committee agreement must hold.
        let n = 4;
        let t = 1;
        let k = 1;
        let session = 5;
        let pki = Arc::new(Pki::new(n, 21));
        let key3 = pki.signing_key(3);
        // Build a chain of length 2 signed by p3 then... p3 cannot forge a
        // second distinct signer, so the best it can do alone is length 1
        // — deliver it in round 2 (too long/short mismatch) or round 1 to
        // some processes only.
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, BbBatch>| {
            if ctx.round == 0 {
                let chain = MessageChain::start(session, 3, Value(99), &key3, None);
                // Send only to p0: p0 accepts in round 1 and must extend,
                // rescuing agreement.
                ctx.send(ProcessId(3), ProcessId(0), vec![(3, chain)]);
            }
        });
        let mut runner = Runner::new(n, universal_system(n, t, k, session, &[1, 2, 3], &pki), adv);
        let report = runner.run(6);
        let views: Vec<_> = report.outputs.values().cloned().collect();
        // All honest processes agree on instance 3's output.
        assert!(views.windows(2).all(|w| w[0][3] == w[1][3]));
        assert_eq!(views[0][3], Some(Value(99)), "the rescued value delivers");
    }

    #[test]
    fn equivocating_sender_detected_yields_bottom() {
        // The faulty sender starts two chains with different values; both
        // propagate, everyone accepts both, |X| = 2 → ⊥ everywhere.
        let n = 4;
        let session = 5;
        let pki = Arc::new(Pki::new(n, 21));
        let key3 = pki.signing_key(3);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, BbBatch>| {
            if ctx.round == 0 {
                let a = MessageChain::start(session, 3, Value(100), &key3, None);
                let b = MessageChain::start(session, 3, Value(200), &key3, None);
                ctx.broadcast(ProcessId(3), vec![(3, a), (3, b)]);
            }
        });
        let mut runner = Runner::new(n, universal_system(n, 1, 1, session, &[1, 2, 3], &pki), adv);
        let report = runner.run(6);
        for outs in report.outputs.values() {
            assert_eq!(outs[3], None, "equivocation must collapse to ⊥");
        }
    }

    #[test]
    fn certified_mode_rejects_uncertified_chains() {
        // In certified mode a sender without a certificate produces
        // nothing acceptable (Lemma 22).
        let n = 4;
        let t = 1;
        let session = 2;
        let pki = Arc::new(Pki::new(n, 3));
        let mk = |i: u32, cert: Option<CommitteeCert>| {
            ParallelBroadcast::new(
                ProcessId(i),
                n,
                t,
                1,
                session,
                CommitteeMode::Certified,
                Value(i as u64 + 5),
                cert,
                Arc::clone(&pki),
                pki.signing_key(i),
            )
        };
        // Only p0 and p1 hold certificates.
        let procs = vec![
            mk(0, Some(cert_for(&pki, session, 0, t))),
            mk(1, Some(cert_for(&pki, session, 1, t))),
            mk(2, None),
            mk(3, None),
        ];
        let mut runner = Runner::new(n, procs, SilentAdversary);
        let report = runner.run(6);
        for outs in report.outputs.values() {
            assert_eq!(outs[0], Some(Value(5)));
            assert_eq!(outs[1], Some(Value(6)));
            assert_eq!(outs[2], None, "no certificate, no delivery");
            assert_eq!(outs[3], None);
        }
    }

    #[test]
    fn forged_certificate_chains_are_ignored() {
        // The adversary invents a certificate signed only by itself.
        let n = 4;
        let t = 1;
        let session = 6;
        let pki = Arc::new(Pki::new(n, 9));
        let key3 = pki.signing_key(3);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, BbBatch>| {
            if ctx.round == 0 {
                let fake_cert = CommitteeCert {
                    member: 3,
                    sigs: vec![key3.sign(&committee_bytes(session, 3))],
                };
                let chain = MessageChain::start(session, 3, Value(66), &key3, Some(fake_cert));
                ctx.broadcast(ProcessId(3), vec![(3, chain)]);
            }
        });
        let mk = |i: u32| {
            ParallelBroadcast::new(
                ProcessId(i),
                n,
                t,
                1,
                session,
                CommitteeMode::Certified,
                Value(1),
                Some(cert_for(&pki, session, i, t)),
                Arc::clone(&pki),
                pki.signing_key(i),
            )
        };
        let honest: BTreeMap<ProcessId, ParallelBroadcast> =
            (0..3u32).map(|i| (ProcessId(i), mk(i))).collect();
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(6);
        for outs in report.outputs.values() {
            assert_eq!(outs[3], None, "single-signature certificate rejected");
        }
    }

    #[test]
    fn output_arrives_after_k_plus_1_rounds() {
        let n = 5;
        let k = 3;
        let pki = Arc::new(Pki::new(n, 8));
        let mut runner = Runner::new(
            n,
            universal_system(n, 2, k, 1, &[7; 5], &pki),
            SilentAdversary,
        );
        let report = runner.run(10);
        assert_eq!(report.last_decision_round, Some(k as u64 + 1));
    }
}
