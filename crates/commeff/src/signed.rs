//! The signed lane, [`Certified`]: signed submit, report and
//! acknowledgement bodies, transferable certify [`Certificate`]s, and
//! one certificate-echo round. The crate docs explain what the
//! signatures buy over [`Plain`] and where that stops.

use crate::{quorum_value, CommEffBa, Lane, Plain};
use ba_core::BitVec;
use ba_crypto::{Encodable, Encoder, Pki, Signed, SigningKey};
use ba_early::PhaseKingMsg;
use ba_sim::{distinct_values_by_sender, Envelope, Outbox, ProcessId, Value, WireSize};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

/// Signed body of a step-0 submission. The leading tag byte
/// domain-separates the fast-lane body kinds, so a signature on one
/// kind can never be replayed as another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitBody {
    /// The sender's input value.
    pub value: Value,
}

impl Encodable for SubmitBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(1);
        enc.u64(self.value.0);
    }
}

impl WireSize for SubmitBody {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes()
    }
}

/// Signed body of a step-1 aggregator report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportBody {
    /// The aggregator's plurality over the submissions it collected.
    pub value: Value,
}

impl Encodable for ReportBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(2);
        enc.u64(self.value.0);
    }
}

impl WireSize for ReportBody {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes()
    }
}

/// Signed body of a step-2 acknowledgement — the unit certificates are
/// made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckBody {
    /// The tentative value adopted from the reports (or own input).
    pub value: Value,
    /// Whether every received report carried the same value.
    pub happy: bool,
}

impl Encodable for AckBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(3);
        enc.u64(self.value.0);
        enc.u8(u8::from(self.happy));
    }
}

impl WireSize for AckBody {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.happy.wire_bytes()
    }
}

/// A transferable certify proof: `n − t` distinct-signer signed happy
/// acknowledgements of one value. Self-certifying — validity depends
/// only on the signatures it carries, never on who relayed it — which
/// is what makes the echo round close the plain lane's split-view
/// loophole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The certified value.
    pub value: Value,
    /// The quorum of signed happy acknowledgements backing it.
    pub acks: Vec<Signed<AckBody>>,
}

impl Certificate {
    /// Verifies the proof: at least `n − t` *distinct* in-range signers,
    /// every acknowledgement happy, for this value, validly signed.
    pub fn verify(&self, pki: &Pki, n: usize, t: usize) -> bool {
        let mut signers = BTreeSet::new();
        for ack in &self.acks {
            let signer = ack.signer();
            if (signer as usize) >= n {
                return false;
            }
            let Some(body) = ack.verified_from(pki, signer) else {
                return false;
            };
            if !body.happy || body.value != self.value {
                return false;
            }
            signers.insert(signer);
        }
        signers.len() >= n - t
    }
}

impl WireSize for Certificate {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.acks.wire_bytes()
    }
}

/// Messages of the communication-efficient pipeline over [`Certified`].
/// Fast-lane bodies are signed and verified on receive; certificates
/// are self-certifying, so their variants carry no outer signature.
#[derive(Clone, Debug)]
pub enum CommEffSignedMsg {
    /// Step 0 → committee: the sender's signed input value.
    Submit(Signed<SubmitBody>),
    /// Step 1 → all: an active aggregator's signed report.
    Report(Signed<ReportBody>),
    /// Step 2 → committee: the sender's signed acknowledgement.
    Ack(Signed<AckBody>),
    /// Step 3 → all: an aggregator's certify proof.
    Commit(Rc<Certificate>),
    /// Step 4 → all: a certificate re-broadcast by any process that
    /// holds one, making the lane decision uniform.
    Echo(Rc<Certificate>),
    /// Steps 6+: wrapped phase-king fallback traffic.
    Fallback(Rc<PhaseKingMsg>),
}

/// A discriminant byte plus the variant's payload; each signed body
/// costs its unsigned counterpart plus exactly the 20-byte signature.
impl WireSize for CommEffSignedMsg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            CommEffSignedMsg::Submit(s) => s.wire_bytes(),
            CommEffSignedMsg::Report(s) => s.wire_bytes(),
            CommEffSignedMsg::Ack(s) => s.wire_bytes(),
            CommEffSignedMsg::Commit(c) | CommEffSignedMsg::Echo(c) => c.wire_bytes(),
            CommEffSignedMsg::Fallback(inner) => inner.wire_bytes(),
        }
    }
}

/// The signed lane: one process's view of the PKI, its own signing key,
/// and the certificate it echoed.
#[derive(Debug)]
pub struct Certified {
    pki: Arc<Pki>,
    key: SigningKey,
    /// The first valid certificate observed at the echo step, held for
    /// the decision step.
    cert: Option<Rc<Certificate>>,
}

impl Certified {
    /// The lane of the process holding `key`.
    pub fn new(pki: Arc<Pki>, key: SigningKey) -> Self {
        Certified {
            pki,
            key,
            cert: None,
        }
    }

    /// The first valid certificate in the inbox, if any.
    fn valid_cert(
        &self,
        n: usize,
        t: usize,
        inbox: &[Envelope<CommEffSignedMsg>],
    ) -> Option<Rc<Certificate>> {
        inbox.iter().find_map(|env| match &*env.payload {
            CommEffSignedMsg::Commit(c) | CommEffSignedMsg::Echo(c)
                if c.verify(&self.pki, n, t) =>
            {
                Some(Rc::clone(c))
            }
            _ => None,
        })
    }
}

/// The communication-efficient pipeline over the signed lane.
pub type CommEffSigned = CommEffBa<Certified>;

impl Lane for Certified {
    type Msg = CommEffSignedMsg;
    /// One certificate-echo round more than [`Plain`].
    const FALLBACK_START: u64 = Plain::FALLBACK_START + 1;

    fn submit(&self, value: Value) -> CommEffSignedMsg {
        CommEffSignedMsg::Submit(Signed::new(SubmitBody { value }, &self.key))
    }

    fn open_submit(&self, from: ProcessId, msg: &CommEffSignedMsg) -> Option<Value> {
        match msg {
            CommEffSignedMsg::Submit(s) => s.verified_from(&self.pki, from.0).map(|b| b.value),
            _ => None,
        }
    }

    fn report(&self, value: Value) -> CommEffSignedMsg {
        CommEffSignedMsg::Report(Signed::new(ReportBody { value }, &self.key))
    }

    /// Counts a verified report only from the receiver's own committee,
    /// so a signature equivocator outside it cannot sour the
    /// acknowledgements.
    fn open_report(
        &self,
        from: ProcessId,
        msg: &CommEffSignedMsg,
        committee: &[ProcessId],
    ) -> Option<Value> {
        match msg {
            CommEffSignedMsg::Report(s) if committee.binary_search(&from).is_ok() => {
                s.verified_from(&self.pki, from.0).map(|b| b.value)
            }
            _ => None,
        }
    }

    fn ack(&self, value: Value, happy: bool) -> CommEffSignedMsg {
        CommEffSignedMsg::Ack(Signed::new(AckBody { value, happy }, &self.key))
    }

    /// Assembles a certificate from each sender's first valid happy
    /// acknowledgement and broadcasts the proof itself. No valid
    /// certificates for two different values can exist (quorum
    /// intersection), so there is no retreat: absence of proof is the
    /// fallback signal.
    fn certify(
        &self,
        n: usize,
        t: usize,
        inbox: &[Envelope<CommEffSignedMsg>],
    ) -> Option<CommEffSignedMsg> {
        let acks = distinct_values_by_sender(inbox, |from, m| match m {
            CommEffSignedMsg::Ack(s) => {
                let happy = s.verified_from(&self.pki, from.0)?.happy;
                happy.then(|| s.clone())
            }
            _ => None,
        });
        let value = quorum_value(acks.values().map(|a| a.body().value), n - t)?;
        let acks = acks.into_values().filter(|a| a.body().value == value);
        let cert = Certificate {
            value,
            acks: acks.collect(),
        };
        Some(CommEffSignedMsg::Commit(Rc::new(cert)))
    }

    /// Certificate echo: any process holding a valid proof
    /// re-broadcasts it, so one honest recipient suffices to make the
    /// whole honest population decide.
    fn echo(
        &mut self,
        n: usize,
        t: usize,
        inbox: &[Envelope<CommEffSignedMsg>],
        out: &mut Outbox<CommEffSignedMsg>,
    ) {
        if let Some(cert) = self.valid_cert(n, t, inbox) {
            out.broadcast(CommEffSignedMsg::Echo(Rc::clone(&cert)));
            self.cert = Some(cert);
        }
    }

    /// The uniform lane decision: a valid certificate (held from the
    /// echo step or echoed to us) decides; no proof anywhere means no
    /// honest process saw one either, so everyone falls back together.
    fn decide(
        &mut self,
        n: usize,
        t: usize,
        inbox: &[Envelope<CommEffSignedMsg>],
    ) -> Option<Value> {
        let cert = self.cert.take().or_else(|| self.valid_cert(n, t, inbox));
        cert.map(|c| c.value)
    }

    fn phase(msg: &CommEffSignedMsg) -> Option<Rc<PhaseKingMsg>> {
        match msg {
            CommEffSignedMsg::Fallback(inner) => Some(Rc::clone(inner)),
            _ => None,
        }
    }

    fn wrap(inner: Rc<PhaseKingMsg>) -> CommEffSignedMsg {
        CommEffSignedMsg::Fallback(inner)
    }
}

impl CommEffBa<Certified> {
    /// Creates the state machine for process `me` over the signed lane,
    /// signing with `key`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ba_commeff::CommEffSigned;
    /// use ba_core::PredictionMatrix;
    /// use ba_crypto::Pki;
    /// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
    /// use std::collections::BTreeSet;
    /// use std::sync::Arc;
    ///
    /// // n = 7, one silent fault (p6), perfect predictions.
    /// let n = 7;
    /// let faulty: BTreeSet<ProcessId> = [ProcessId(6)].into_iter().collect();
    /// let matrix = PredictionMatrix::perfect(n, &faulty);
    /// let pki = Arc::new(Pki::new(n, 1));
    /// let procs: Vec<CommEffSigned> = (0..6u32)
    ///     .map(|i| {
    ///         let id = ProcessId(i);
    ///         let key = pki.signing_key(i);
    ///         CommEffSigned::new(id, n, 2, Value(9), matrix.row(id).clone(), Arc::clone(&pki), key)
    ///     })
    ///     .collect();
    /// let mut runner = Runner::new(n, procs, SilentAdversary);
    /// let report = runner.run(CommEffSigned::rounds(2));
    /// assert_eq!(report.decision(), Some(&Value(9)));
    /// assert_eq!(report.last_decision_round, Some(5), "6-round signed fast lane");
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
        Self::with_lane(Certified::new(pki, key), me, n, t, input, prediction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{certified, faults, lane_system};
    use ba_core::PredictionMatrix;
    use ba_sim::{AdversaryCtx, FnAdversary, Runner};
    use std::collections::BTreeMap;

    fn system(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        matrix: &PredictionMatrix,
        pki: &Arc<Pki>,
        input: impl Fn(usize) -> u64,
    ) -> BTreeMap<ProcessId, CommEffSigned> {
        lane_system(n, t, faulty, matrix, certified(pki), input)
    }

    /// The signed mirror of the unsigned split pin
    /// (`full_equivocation_can_split_the_unsigned_lane_choice`): same
    /// topology, same equivocating aggregator — but its report
    /// equivocation leaves no value with an `n − t` happy-ack quorum,
    /// so no valid certificate exists and its conflicting certify
    /// claims are unverifiable noise. Every honest process makes the
    /// *same* lane choice and the full-quorum fallback decides.
    #[test]
    fn report_equivocation_cannot_split_the_signed_lane() {
        let n = 7;
        let t = 2;
        let f = faults(&[0]);
        let m = PredictionMatrix::all_honest(n);
        let pki = Arc::new(Pki::new(n, 5));
        let adv_pki = Arc::clone(&pki);
        let key0 = pki.signing_key(0);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, CommEffSignedMsg>| {
            match ctx.round {
                1 => {
                    for to in ProcessId::all(7) {
                        let v = if to.0.is_multiple_of(2) {
                            Value(7)
                        } else {
                            Value(9)
                        };
                        let msg =
                            CommEffSignedMsg::Report(Signed::new(ReportBody { value: v }, &key0));
                        ctx.send(ProcessId(0), to, msg);
                    }
                }
                3 => {
                    // A certificate forged from self-signed acks
                    // claiming honest signers: must not verify.
                    let forged: Vec<Signed<AckBody>> = (1..6u32)
                        .map(|claimed| {
                            let body = AckBody {
                                value: Value(7),
                                happy: true,
                            };
                            let mut sig = *Signed::new(body, &key0).signature();
                            sig.signer = claimed;
                            Signed::from_parts(body, sig)
                        })
                        .collect();
                    let cert = Rc::new(Certificate {
                        value: Value(7),
                        acks: forged,
                    });
                    assert!(!cert.verify(&adv_pki, 7, 2), "forgery must not verify");
                    for to in ProcessId::all(7).filter(|p| p.0.is_multiple_of(2)) {
                        ctx.send(ProcessId(0), to, CommEffSignedMsg::Commit(Rc::clone(&cert)));
                    }
                }
                _ => {}
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 7), adv);
        let report = runner.run(CommEffSigned::rounds(t));
        assert!(report.agreement(), "signed lane choice must not split");
        assert!(report.all_decided(), "full-quorum fallback must decide");
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            assert!(
                runner.process(id).expect("honest").fell_back(),
                "{id} must make the same (fallback) lane choice"
            );
        }
    }

    /// The other half of the contrast: when a genuine certificate *can*
    /// be assembled (consistent reports, happy honest acks) but the
    /// Byzantine aggregator withholds it from half the processes, the
    /// echo round forwards the transferable proof and everyone decides
    /// in the fast lane — where the unsigned variant strands the other
    /// half in an under-quorum fallback.
    #[test]
    fn withheld_certificates_cannot_split_the_signed_lane() {
        let n = 7;
        let t = 2;
        let f = faults(&[0]);
        let m = PredictionMatrix::all_honest(n);
        let pki = Arc::new(Pki::new(n, 5));
        let key0 = pki.signing_key(0);
        let acks = Arc::new(std::sync::Mutex::new(Vec::<Signed<AckBody>>::new()));
        let acks_in = Arc::clone(&acks);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, CommEffSignedMsg>| {
            match ctx.round {
                // A consistent report: every honest ack will be happy.
                1 => {
                    let msg = CommEffSignedMsg::Report(Signed::new(
                        ReportBody { value: Value(7) },
                        &key0,
                    ));
                    ctx.broadcast(ProcessId(0), msg);
                }
                // Rushing visibility: harvest the signed happy acks.
                2 => {
                    let mut store = acks_in.lock().expect("poisoned");
                    for env in ctx.honest_traffic() {
                        if let CommEffSignedMsg::Ack(signed) = &*env.payload {
                            store.push(signed.clone());
                        }
                    }
                }
                // Deliver the genuine certificate to the evens only.
                3 => {
                    let store = acks_in.lock().expect("poisoned");
                    let cert = Rc::new(Certificate {
                        value: Value(7),
                        acks: store.clone(),
                    });
                    for to in ProcessId::all(7).filter(|p| p.0.is_multiple_of(2)) {
                        ctx.send(ProcessId(0), to, CommEffSignedMsg::Commit(Rc::clone(&cert)));
                    }
                }
                _ => {}
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 7), adv);
        let report = runner.run(CommEffSigned::rounds(t));
        assert!(report.agreement(), "withholding must not split the halves");
        assert!(report.all_decided());
        assert_eq!(report.decision(), Some(&Value(7)));
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            assert!(
                !runner.process(id).expect("honest").fell_back(),
                "{id} must ride the echoed certificate into the fast lane"
            );
        }
        assert_eq!(
            report.last_decision_round,
            Some(5),
            "uniform fast-lane decision at the echo checkpoint"
        );
    }

    #[test]
    fn certify_counts_a_senders_first_happy_ack() {
        // The plain lane's unhappy-then-happy fixture, signed: p3 splits
        // p2's report view, so only p0 and p1 ack happily, and then
        // sends each aggregator an unhappy ack followed by a happy one. The signed certify step
        // takes the first valid *happy* ack per sender, so p3's second
        // ack completes the n − t = 3 quorum and the fast lane decides.
        let (n, t) = (4, 1);
        let f = faults(&[3]);
        let mut m = PredictionMatrix::perfect(n, &f);
        for row in [0, 1, 2] {
            m.row_mut(ProcessId(row)).set(2, false);
            m.row_mut(ProcessId(row)).set(3, true);
        }
        let pki = Arc::new(Pki::new(n, 5));
        let key3 = pki.signing_key(3);
        let adv =
            FnAdversary::new(
                move |ctx: &mut AdversaryCtx<'_, CommEffSignedMsg>| match ctx.round {
                    1 => {
                        let report = Signed::new(ReportBody { value: Value(9) }, &key3);
                        ctx.send(ProcessId(3), ProcessId(2), CommEffSignedMsg::Report(report));
                    }
                    2 => {
                        for to in [ProcessId(0), ProcessId(1)] {
                            for happy in [false, true] {
                                let body = AckBody {
                                    value: Value(5),
                                    happy,
                                };
                                let ack = CommEffSignedMsg::Ack(Signed::new(body, &key3));
                                ctx.send(ProcessId(3), to, ack);
                            }
                        }
                    }
                    _ => {}
                },
            );
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 5), adv);
        let report = runner.run(CommEffSigned::rounds(t));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(5)));
        assert_eq!(report.last_decision_round, Some(5), "signed fast lane");
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            assert!(
                !runner.process(id).expect("honest").fell_back(),
                "{id}: p3's later happy ack must complete the quorum"
            );
        }
    }

    #[test]
    fn forged_and_replayed_signatures_are_inert() {
        // Forged tags claiming honest signers and honest signed bodies
        // replayed from a corrupted identity must all be dropped by
        // verify-on-receive: the fast lane proceeds as under silence.
        let n = 10;
        let t = 3;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let key3 = pki.signing_key(3);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, CommEffSignedMsg>| {
            // Replay every observed honest signed body from p3.
            for env in ctx.honest_traffic() {
                ctx.replay_broadcast(ProcessId(3), env.payload);
            }
            // Forge a submission claiming an honest signer.
            let body = SubmitBody { value: Value(99) };
            let mut sig = *Signed::new(body, &key3).signature();
            sig.signer = 1;
            let forged = CommEffSignedMsg::Submit(Signed::from_parts(body, sig));
            ctx.broadcast(ProcessId(3), forged);
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 6), adv);
        let report = runner.run(CommEffSigned::rounds(t));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert_eq!(
            report.last_decision_round,
            Some(5),
            "forgeries and replays cannot divert the fast lane"
        );
    }

    #[test]
    fn signed_messages_cost_exactly_the_signature_model_more() {
        // The conformance contract: each signed fast-lane message costs
        // its unsigned counterpart plus exactly the 20-byte signature.
        let pki = Pki::new(4, 1);
        let key = pki.signing_key(0);
        let submit = CommEffSignedMsg::Submit(Signed::new(SubmitBody { value: Value(1) }, &key));
        assert_eq!(
            submit.wire_bytes(),
            crate::CommEffMsg::Submit(Value(1)).wire_bytes() + 20
        );
        let report = CommEffSignedMsg::Report(Signed::new(ReportBody { value: Value(1) }, &key));
        assert_eq!(
            report.wire_bytes(),
            crate::CommEffMsg::Report(Value(1)).wire_bytes() + 20
        );
        let ack = CommEffSignedMsg::Ack(Signed::new(
            AckBody {
                value: Value(1),
                happy: true,
            },
            &key,
        ));
        assert_eq!(
            ack.wire_bytes(),
            crate::CommEffMsg::Ack {
                value: Value(1),
                happy: true
            }
            .wire_bytes()
                + 20
        );
    }

    #[test]
    fn certificates_for_two_values_cannot_coexist() {
        // Quorum intersection, exercised: with n = 7, t = 2 any two
        // n − t = 5 ack quorums share ≥ 3 signers, so building valid
        // certificates for two values requires some signer to happily
        // ack both — which the verifier accepts (signatures bind bodies,
        // not executions) but honest processes never produce. Assemble
        // the adversarial best case — all t faulty signers double-ack —
        // and check a second-value quorum still cannot be reached
        // without honest double-acks.
        let n = 7;
        let t = 2;
        let pki = Pki::new(n, 3);
        let happy = |signer: u32, value: u64| {
            Signed::new(
                AckBody {
                    value: Value(value),
                    happy: true,
                },
                &pki.signing_key(signer),
            )
        };
        // 5 honest signers ack value 4; the 2 faulty ack both values.
        let cert_a = Certificate {
            value: Value(4),
            acks: (0..5u32).map(|s| happy(s, 4)).collect(),
        };
        assert!(cert_a.verify(&pki, n, t));
        let cert_b = Certificate {
            value: Value(9),
            acks: (5..7u32).map(|s| happy(s, 9)).collect(),
        };
        assert!(
            !cert_b.verify(&pki, n, t),
            "t double-ackers alone are below every n − t quorum"
        );
    }

    #[test]
    fn certificate_verification_rejects_duplicates_and_unhappy_acks() {
        let n = 7;
        let t = 2;
        let pki = Pki::new(n, 3);
        let ack = |signer: u32, happy: bool| {
            Signed::new(
                AckBody {
                    value: Value(4),
                    happy,
                },
                &pki.signing_key(signer),
            )
        };
        let duplicated = Certificate {
            value: Value(4),
            acks: vec![ack(0, true); 5],
        };
        assert!(
            !duplicated.verify(&pki, n, t),
            "one signer repeated is one signer"
        );
        let unhappy = Certificate {
            value: Value(4),
            acks: (0..5u32).map(|s| ack(s, s != 2)).collect(),
        };
        assert!(!unhappy.verify(&pki, n, t), "unhappy acks prove nothing");
        let out_of_range = Certificate {
            value: Value(4),
            acks: (0..5u32)
                .map(|s| {
                    Signed::new(
                        AckBody {
                            value: Value(4),
                            happy: true,
                        },
                        &Pki::new(20, 3).signing_key(s + 10),
                    )
                })
                .collect(),
        };
        assert!(!out_of_range.verify(&pki, n, t), "unknown signers rejected");
    }
}
