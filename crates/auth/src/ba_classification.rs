//! Algorithm 7 — Authenticated Byzantine Agreement with Classification
//! (§8.3).
//!
//! Round structure (`k + 3` rounds total):
//!
//! 1. **Committee voting.** Each process sends a signed
//!    `⟨committee, pⱼ⟩` to the first `2k + 1` identifiers of its priority
//!    order `π(cᵢ)`. A process collecting `t + 1` votes assembles its
//!    committee certificate from the `t + 1` smallest signer identifiers
//!    (line 6). Lemma 24: if `2k + 1 ≤ n − t − k`, the implicit committee
//!    `C` has `|C| ≤ 3k + 1`, at most `k` faulty members and at least
//!    `k + 1` honest members.
//! 2. **Parallel broadcast** (`k + 1` rounds). Every process participates
//!    in `n` instances of Algorithm 6 with sender `p_s` in instance `s`,
//!    with `k` bounding the faulty committee members.
//! 3. **Certified plurality.** Committee members broadcast the smallest
//!    most-frequent non-⊥ broadcast output together with their
//!    certificate; every process decides the smallest most-frequent value
//!    among certified reports.
//!
//! Theorem 6 (checked by this module's tests and the E6 bench harness):
//! with `kA ≤ k`, `2k+1 ≤ n−t−k`, `t < n/2` the outputs satisfy
//! Agreement and Strong Unanimity; unconditionally every process returns
//! after `k + 3` rounds having sent `O(n)` messages per broadcast it
//! participated in.

use crate::bb_committee::{BbBatch, CommitteeMode, ParallelBroadcast};
use crate::chains::{committee_bytes, CommitteeCert};
use ba_crypto::{Pki, Signature, SigningKey};
use ba_sim::{step_sub, Envelope, Outbox, Process, ProcessId, Tally, Value, WireSize};
use std::rc::Rc;
use std::sync::Arc;

/// Messages of Algorithm 7.
#[derive(Clone, Debug)]
pub enum Alg7Msg {
    /// Round-1 committee vote: a signature on `⟨committee, recipient⟩`.
    CommitteeVote(Signature),
    /// Batched chain traffic of the `n` parallel broadcasts.
    Chains(Rc<BbBatch>),
    /// Final-round certified plurality report.
    Plurality {
        /// The reported value.
        value: Value,
        /// The reporter's committee certificate.
        cert: CommitteeCert,
    },
}

/// A discriminant byte plus the variant's payload.
impl WireSize for Alg7Msg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            Alg7Msg::CommitteeVote(sig) => sig.wire_bytes(),
            Alg7Msg::Chains(batch) => batch.wire_bytes(),
            Alg7Msg::Plurality { value, cert } => value.wire_bytes() + cert.wire_bytes(),
        }
    }
}

/// One process's state machine for Algorithm 7.
pub struct AuthBaWithClassification {
    me: ProcessId,
    n: usize,
    t: usize,
    k: usize,
    session: u64,
    order: Arc<Vec<ProcessId>>,
    input: Value,
    pki: Arc<Pki>,
    key: SigningKey,
    cert: Option<CommitteeCert>,
    broadcast: Option<ParallelBroadcast>,
    out: Option<Value>,
}

impl std::fmt::Debug for AuthBaWithClassification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuthBaWithClassification")
            .field("me", &self.me)
            .field("k", &self.k)
            .field("input", &self.input)
            .field("certified", &self.cert.is_some())
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl AuthBaWithClassification {
    /// Total number of communication rounds: `k + 3`.
    pub fn rounds(k: usize) -> u64 {
        k as u64 + 3
    }

    /// Theorem 6's correctness precondition `2k + 1 ≤ n − t − k` and
    /// `t < n/2`.
    pub fn condition_holds(n: usize, t: usize, k: usize) -> bool {
        2 * t < n && n >= t + k && 2 * k < n - t - k
    }

    /// Whether the `2k + 1` committee candidates fit into `n`
    /// identifiers — the *structural* requirement for running at all.
    pub fn is_structurally_valid(n: usize, k: usize) -> bool {
        2 * k < n
    }

    /// Creates the state machine for process `me`.
    ///
    /// `order` is the priority ordering `π(cᵢ)`; `session` must be unique
    /// per invocation (binds all signatures).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: ProcessId,
        n: usize,
        t: usize,
        k: usize,
        session: u64,
        input: Value,
        order: Arc<Vec<ProcessId>>,
        pki: Arc<Pki>,
        key: SigningKey,
    ) -> Self {
        assert_eq!(order.len(), n, "π(c) must order all n identifiers");
        assert!(
            Self::is_structurally_valid(n, k),
            "committee votes need 2k + 1 candidates"
        );
        assert_eq!(key.id(), me.0);
        AuthBaWithClassification {
            me,
            n,
            t,
            k,
            session,
            order,
            input,
            pki,
            key,
            cert: None,
            broadcast: None,
            out: None,
        }
    }

    /// This process's committee certificate, if it obtained one.
    pub fn certificate(&self) -> Option<&CommitteeCert> {
        self.cert.as_ref()
    }

    fn drive_broadcast(
        &mut self,
        local: u64,
        inbox: &[Envelope<Alg7Msg>],
        out: &mut Outbox<Alg7Msg>,
    ) {
        let bb = self
            .broadcast
            .as_mut()
            .expect("parallel broadcast live during chain rounds");
        step_sub(
            bb,
            local,
            inbox,
            out,
            |m| match m {
                Alg7Msg::Chains(batch) => Some(Rc::clone(batch)),
                _ => None,
            },
            Alg7Msg::Chains,
        );
    }
}

impl Process for AuthBaWithClassification {
    type Msg = Alg7Msg;
    type Output = Value;

    fn step(&mut self, round: u64, inbox: &[Envelope<Alg7Msg>], out: &mut Outbox<Alg7Msg>) {
        let k = self.k as u64;
        if self.out.is_some() {
            return;
        }
        match round {
            // Round 1: vote for the first 2k+1 priorities (line 3).
            0 => {
                for &cand in self.order.iter().take(2 * self.k + 1) {
                    let sig = self.key.sign(&committee_bytes(self.session, cand.0));
                    out.send(cand, Alg7Msg::CommitteeVote(sig));
                }
            }
            // Round 2 = broadcast round 1: assemble the certificate from
            // received votes (lines 5–6), then start the own instance.
            1 => {
                let votes: Vec<Signature> = inbox
                    .iter()
                    .filter_map(|env| match &*env.payload {
                        Alg7Msg::CommitteeVote(sig)
                            if sig.signer == env.from.0
                                && self
                                    .pki
                                    .verify(&committee_bytes(self.session, self.me.0), sig) =>
                        {
                            Some(*sig)
                        }
                        _ => None,
                    })
                    .collect();
                self.cert = CommitteeCert::assemble(self.me.0, &votes, self.t);
                self.broadcast = Some(ParallelBroadcast::new(
                    self.me,
                    self.n,
                    self.t,
                    self.k,
                    self.session,
                    CommitteeMode::Certified,
                    self.input,
                    self.cert.clone(),
                    Arc::clone(&self.pki),
                    self.key.clone(),
                ));
                self.drive_broadcast(0, inbox, out);
            }
            // Chain rounds 2..=k, and the broadcast output step at k+1,
            // which coincides with the plurality broadcast (line 11).
            r if r >= 2 && r <= k + 2 => {
                let local = r - 1;
                self.drive_broadcast(local, inbox, out);
                if local == k + 1 {
                    let bb = self.broadcast.as_ref().expect("broadcast live");
                    let outputs = bb.outputs().expect("outputs ready after k+1 rounds");
                    if let Some(cert) = &self.cert {
                        // Line 10: smallest non-⊥ value occurring most
                        // often among the broadcast outputs; fall back to
                        // the own input if every instance returned ⊥
                        // (a deviation: the paper leaves that case
                        // undefined).
                        let tally: Tally<Value> = outputs.iter().flatten().copied().collect();
                        let plurality = tally.plurality().copied().unwrap_or(self.input);
                        out.broadcast(Alg7Msg::Plurality {
                            value: plurality,
                            cert: cert.clone(),
                        });
                    }
                }
            }
            // Final round: certified plurality decision (lines 12–13).
            r if r == k + 3 => {
                let mut tally: Tally<Value> = Tally::new();
                let mut seen: std::collections::BTreeSet<ProcessId> =
                    std::collections::BTreeSet::new();
                for env in inbox {
                    if let Alg7Msg::Plurality { value, cert } = &*env.payload {
                        if cert.member != env.from.0 || !seen.insert(env.from) {
                            continue;
                        }
                        if cert.verify(self.session, self.t, &self.pki) {
                            tally.add(*value);
                        }
                    }
                }
                // Line 13: smallest most-frequent among certified reports;
                // own input if none arrived (documented deviation).
                self.out = Some(tally.plurality().copied().unwrap_or(self.input));
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<Value> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{AdversaryCtx, FnAdversary, Runner, SilentAdversary};
    use std::collections::BTreeMap;

    fn identity_order(n: usize) -> Arc<Vec<ProcessId>> {
        Arc::new(ProcessId::all(n).collect())
    }

    fn system(
        n: usize,
        t: usize,
        k: usize,
        session: u64,
        inputs: &[u64],
        order: &Arc<Vec<ProcessId>>,
        pki: &Arc<Pki>,
    ) -> Vec<AuthBaWithClassification> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                AuthBaWithClassification::new(
                    ProcessId(i as u32),
                    n,
                    t,
                    k,
                    session,
                    Value(v),
                    Arc::clone(order),
                    Arc::clone(pki),
                    pki.signing_key(i as u32),
                )
            })
            .collect()
    }

    #[test]
    fn theorem6_strong_unanimity_no_faults() {
        // n = 10, t = 3, k = 2: 2k+1 = 5 ≤ n - t - k = 5 ✓.
        let n = 10;
        let (t, k) = (3, 2);
        assert!(AuthBaWithClassification::condition_holds(n, t, k));
        let pki = Arc::new(Pki::new(n, 4));
        let order = identity_order(n);
        let mut runner = Runner::new(
            n,
            system(n, t, k, 1, &[7; 10], &order, &pki),
            SilentAdversary,
        );
        let report = runner.run(AuthBaWithClassification::rounds(k) + 2);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(7)));
        assert_eq!(
            report.last_decision_round,
            Some(AuthBaWithClassification::rounds(k))
        );
    }

    #[test]
    fn theorem6_agreement_mixed_inputs_with_silent_faults() {
        // f = kA = 2 faulty (silent) sitting inside the first 2k+1
        // priorities of the identity order (misclassified as honest).
        let n = 10;
        let (t, k) = (3, 2);
        let pki = Arc::new(Pki::new(n, 4));
        let order = identity_order(n);
        let honest: BTreeMap<ProcessId, AuthBaWithClassification> = (2..n as u32)
            .map(|i| {
                (
                    ProcessId(i),
                    AuthBaWithClassification::new(
                        ProcessId(i),
                        n,
                        t,
                        k,
                        1,
                        Value(u64::from(i % 2)),
                        Arc::clone(&order),
                        Arc::clone(&pki),
                        pki.signing_key(i),
                    ),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, SilentAdversary);
        let report = runner.run(AuthBaWithClassification::rounds(k) + 2);
        assert!(report.agreement(), "silent committee members tolerated");
    }

    #[test]
    fn equivocating_committee_member_cannot_split() {
        // The faulty process p0 is in everyone's committee prefix; it
        // gets a genuine certificate, then starts two conflicting chains.
        // Committee agreement must still hold via the equivocation → ⊥
        // rule.
        let n = 10;
        let (t, k) = (3, 2);
        let session = 2;
        let pki = Arc::new(Pki::new(n, 14));
        let order = identity_order(n);
        let key0 = pki.signing_key(0);
        let pki_for_adv = Arc::clone(&pki);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Alg7Msg>| {
            match ctx.round {
                0 => {
                    // Vote like an honest process so others' certificates
                    // are unaffected.
                    for cand in 0..(2 * k + 1) as u32 {
                        let sig = key0.sign(&committee_bytes(session, cand));
                        ctx.send(ProcessId(0), ProcessId(cand), Alg7Msg::CommitteeVote(sig));
                    }
                }
                1 => {
                    // Harvest own certificate from honest votes observed
                    // in round 0? Votes were sent *to* p0 in round 0 and
                    // are in p0's inbox now.
                    let votes: Vec<Signature> = ctx
                        .faulty_inboxes
                        .get(&ProcessId(0))
                        .expect("p0 is corrupted")
                        .iter()
                        .filter_map(|env| match &*env.payload {
                            Alg7Msg::CommitteeVote(sig) => Some(*sig),
                            _ => None,
                        })
                        .collect();
                    if let Some(cert) = CommitteeCert::assemble(0, &votes, t) {
                        assert!(cert.verify(session, t, &pki_for_adv));
                        use crate::chains::MessageChain;
                        let a =
                            MessageChain::start(session, 0, Value(100), &key0, Some(cert.clone()));
                        let b = MessageChain::start(session, 0, Value(200), &key0, Some(cert));
                        for to in 0..5u32 {
                            ctx.send(
                                ProcessId(0),
                                ProcessId(to),
                                Alg7Msg::Chains(Rc::new(vec![(0, a.clone())])),
                            );
                        }
                        for to in 5..10u32 {
                            ctx.send(
                                ProcessId(0),
                                ProcessId(to),
                                Alg7Msg::Chains(Rc::new(vec![(0, b.clone())])),
                            );
                        }
                    }
                }
                _ => {}
            }
        });
        let honest: BTreeMap<ProcessId, AuthBaWithClassification> = (1..n as u32)
            .map(|i| {
                (
                    ProcessId(i),
                    AuthBaWithClassification::new(
                        ProcessId(i),
                        n,
                        t,
                        k,
                        session,
                        Value(4),
                        Arc::clone(&order),
                        Arc::clone(&pki),
                        pki.signing_key(i),
                    ),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(AuthBaWithClassification::rounds(k) + 2);
        assert!(report.agreement());
        // Strong unanimity: honest inputs are all 4.
        assert_eq!(report.decision(), Some(&Value(4)));
    }

    #[test]
    fn processes_outside_priority_prefix_get_no_certificate() {
        let n = 10;
        let (t, k) = (3, 2);
        let pki = Arc::new(Pki::new(n, 4));
        let order = identity_order(n);
        let mut runner = Runner::new(
            n,
            system(n, t, k, 1, &[3; 10], &order, &pki),
            SilentAdversary,
        );
        let report = runner.run(AuthBaWithClassification::rounds(k) + 2);
        assert!(report.agreement());
        // White-box: only the first 2k+1 = 5 processes can have collected
        // t+1 votes.
        for i in 0..n as u32 {
            let p = runner.process(ProcessId(i)).unwrap();
            if i < 5 {
                assert!(p.certificate().is_some(), "p{i} should be certified");
            } else {
                assert!(p.certificate().is_none(), "p{i} must not be certified");
            }
        }
    }

    #[test]
    fn round_and_message_bounds_hold_unconditionally() {
        // Even with k too small for the fault pattern, everyone returns
        // after k+3 rounds.
        let n = 12;
        let (t, k) = (5, 1);
        let pki = Arc::new(Pki::new(n, 5));
        let order = identity_order(n);
        let inputs: Vec<u64> = (0..8).map(|i| i % 2).collect();
        let mut runner = Runner::new(
            n,
            system(n, t, k, 1, &inputs, &order, &pki),
            SilentAdversary,
        );
        let report = runner.run(40);
        assert!(report.all_decided());
        assert_eq!(
            report.last_decision_round,
            Some(AuthBaWithClassification::rounds(k))
        );
        // O(n²) unconditional per-process bound (Theorem 6): generous
        // constant-checked version.
        for &c in report.messages_per_process.values() {
            assert!(c <= 2 * (n as u64) * (n as u64));
        }
    }

    #[test]
    fn forged_plurality_reports_are_discarded() {
        // A faulty process without a certificate fabricates a plurality
        // report with a self-signed "certificate"; honest processes must
        // ignore it.
        let n = 10;
        let (t, k) = (3, 2);
        let session = 8;
        let pki = Arc::new(Pki::new(n, 6));
        let order = identity_order(n);
        let key9 = pki.signing_key(9);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Alg7Msg>| {
            if ctx.round == (k as u64) + 2 {
                let fake = CommitteeCert {
                    member: 9,
                    sigs: vec![key9.sign(&committee_bytes(session, 9))],
                };
                ctx.broadcast(
                    ProcessId(9),
                    Alg7Msg::Plurality {
                        value: Value(666),
                        cert: fake,
                    },
                );
            }
        });
        let honest: BTreeMap<ProcessId, AuthBaWithClassification> = (0..9u32)
            .map(|i| {
                (
                    ProcessId(i),
                    AuthBaWithClassification::new(
                        ProcessId(i),
                        n,
                        t,
                        k,
                        session,
                        Value(5),
                        Arc::clone(&order),
                        Arc::clone(&pki),
                        pki.signing_key(i),
                    ),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(AuthBaWithClassification::rounds(k) + 2);
        assert_eq!(report.decision(), Some(&Value(5)));
    }

    #[test]
    fn condition_check_matches_paper() {
        assert!(AuthBaWithClassification::condition_holds(10, 3, 2));
        assert!(
            !AuthBaWithClassification::condition_holds(10, 5, 2),
            "t < n/2 required"
        );
        assert!(
            !AuthBaWithClassification::condition_holds(10, 3, 3),
            "2k+1 ≤ n-t-k violated"
        );
    }
}
