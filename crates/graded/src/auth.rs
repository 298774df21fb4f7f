//! Authenticated graded consensus for `t < n/2` (substitution S3).
//!
//! Runs `n` [certified gradecast](crate::gradecast) instances in parallel
//! — one per process, each gradecasting its input — with all per-instance
//! payloads of a round batched into a single physical message per ordered
//! process pair. Five rounds, `O(n²)` messages (of `O(n)` words each).
//!
//! ## Reduction
//!
//! Let instance `j`'s output at process `p` be `(u_j, g_j)`. With quorum
//! `q = n − t`:
//!
//! * **value** — the unique `v` with `#{j : g_j ≥ 1 ∧ u_j = v} ≥ q`
//!   (unique because `q > n/2` of `n` instances), else the own input;
//! * **grade 2** — some `v` has `#{j : g_j = 2 ∧ u_j = v} ≥ q`;
//! * **grade 1** — the value rule fired;
//! * **grade 0** — otherwise.
//!
//! *Strong Unanimity*: with unanimous honest input `v`, every honest
//! instance (≥ `n − t` of them) outputs `(v, 2)` everywhere (gradecast
//! property (c)), so all return `(v, 2)`.
//!
//! *Coherence (paper §5)*: if `pᵢ` returns grade 2, it saw `q` instances
//! at grade 2 with value `v`; by gradecast transfer (b) those same
//! instances are at grade ≥ 1 with value `v` at **every** honest process,
//! so everyone's value rule fires on `v` — every honest process returns
//! `v` (with grade ≥ 1).
//!
//! *Grade-1 agreement*: two honest grade-≥1 outputs share ≥ `n − 2t ≥ 1`
//! supporting instances; within one instance, honest grade-≥1 values
//! never split (gradecast property (d)).

use crate::gradecast::{GcastConfig, GcastInstance, GcastItem, Items};
use crate::Graded;
use ba_crypto::{Pki, SigningKey};
use ba_sim::{Envelope, Outbox, Process, Tally, Value, WireSize};
use std::sync::Arc;

/// One round's batch: `(instance, payload)` pairs.
#[derive(Clone, Debug)]
pub struct AuthGcMsg {
    /// Per-instance payloads carried by this physical message.
    pub items: Items,
}

impl WireSize for AuthGcMsg {
    fn wire_bytes(&self) -> u64 {
        self.items.wire_bytes()
    }
}

/// Authenticated graded consensus for `t < n/2` over `n` parallel
/// gradecasts.
///
/// # Examples
///
/// ```
/// use ba_graded::AuthGraded;
/// use ba_crypto::Pki;
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
/// use std::sync::Arc;
///
/// let n = 4;
/// let pki = Arc::new(Pki::new(n, 7));
/// let procs: Vec<_> = (0..n as u32)
///     .map(|i| AuthGraded::new(ProcessId(i), n, 1, 42, Value(5), Arc::clone(&pki), pki.signing_key(i)))
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(8);
/// for g in report.outputs.values() {
///     assert_eq!((g.value, g.grade), (Value(5), 2));
/// }
/// ```
pub struct AuthGraded {
    me: ba_sim::ProcessId,
    n: usize,
    t: usize,
    input: Value,
    pki: Arc<Pki>,
    key: SigningKey,
    instances: Vec<GcastInstance>,
    out: Option<Graded>,
}

impl std::fmt::Debug for AuthGraded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuthGraded")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("t", &self.t)
            .field("input", &self.input)
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl AuthGraded {
    /// Number of communication rounds this protocol uses.
    pub const ROUNDS: u64 = 5;

    /// Creates the state machine for process `me`.
    ///
    /// `session` must be unique per protocol invocation within one
    /// execution: it binds every signature, so a signature from one
    /// invocation cannot be replayed in another.
    ///
    /// # Panics
    ///
    /// Panics unless `2t < n`.
    pub fn new(
        me: ba_sim::ProcessId,
        n: usize,
        t: usize,
        session: u64,
        input: Value,
        pki: Arc<Pki>,
        key: SigningKey,
    ) -> Self {
        assert!(2 * t < n, "authenticated graded consensus needs 2t < n");
        assert_eq!(key.id(), me.0, "signing key must belong to the process");
        let instances = (0..n as u32)
            .map(|inst| {
                GcastInstance::new(GcastConfig {
                    n,
                    t,
                    session,
                    inst,
                })
            })
            .collect();
        AuthGraded {
            me,
            n,
            t,
            input,
            pki,
            key,
            instances,
            out: None,
        }
    }

    /// The input this process started with.
    pub fn input(&self) -> Value {
        self.input
    }

    /// Hands every received item to its instance, in one pass of sealed
    /// checks: the step's seal hits are counted once, at its end.
    fn route_inbox(&mut self, inbox: &[Envelope<AuthGcMsg>]) {
        let mut checks = self.pki.sealed_checks();
        for env in inbox {
            for (inst, item) in &env.payload.items {
                let Some(instance) = self.instances.get_mut(*inst as usize) else {
                    continue;
                };
                match item {
                    GcastItem::Input { value, sig } => instance.recv_input(&self.pki, *value, sig),
                    GcastItem::Echo {
                        value,
                        sender_sig,
                        sig,
                    } => instance.recv_echo(&mut checks, *value, sender_sig, sig),
                    GcastItem::Cert(cert) => instance.recv_cert(&self.pki, cert),
                    GcastItem::Confirm { value, sig, cert } => {
                        instance.recv_confirm(&mut checks, *value, sig, cert)
                    }
                    GcastItem::Commit(cc) => instance.recv_commit(&self.pki, cc),
                }
            }
        }
    }

    fn finalize(&mut self) {
        let q = self.n - self.t;
        let mut strong: Tally<Value> = Tally::new();
        let mut any: Tally<Value> = Tally::new();
        for instance in &self.instances {
            let o = instance.finish();
            if let Some(v) = o.value {
                if o.grade >= 1 {
                    any.add(v);
                }
                if o.grade == 2 {
                    strong.add(v);
                }
            }
        }
        self.out = Some(match any.first_reaching(q) {
            Some(&v) => {
                let grade = if strong.count(&v) >= q { 2 } else { 1 };
                Graded::new(v, grade)
            }
            None => Graded::new(self.input, 0),
        });
    }
}

impl Process for AuthGraded {
    type Msg = AuthGcMsg;
    type Output = Graded;

    fn step(&mut self, round: u64, inbox: &[Envelope<AuthGcMsg>], out: &mut Outbox<AuthGcMsg>) {
        match round {
            0 => {
                // Round 1: start the own instance.
                let cfg = *self.instances[self.me.index()].config();
                let item = GcastInstance::make_input(&cfg, &self.key, self.input);
                out.broadcast(AuthGcMsg {
                    items: vec![(self.me.0, item)],
                });
            }
            1..=4 => {
                // Every instance pushes its items into the round's one
                // batch.
                self.route_inbox(inbox);
                let mut items = Vec::with_capacity(self.n);
                for instance in &mut self.instances {
                    match round {
                        // Round 2: echo every instance's unique value.
                        1 => instance.make_echo(&self.pki, &self.key, &mut items),
                        // Round 3: broadcast assembled certificates.
                        2 => instance.make_certs(&mut items),
                        // Round 4: confirm unique certified values (or
                        // report conflicts).
                        3 => instance.make_confirm(&self.pki, &self.key, &mut items),
                        // Round 5: spread commit certificates and known
                        // certificates.
                        _ => instance.make_spread(&mut items),
                    }
                }
                if !items.is_empty() {
                    out.broadcast(AuthGcMsg { items });
                }
            }
            5 => {
                self.route_inbox(inbox);
                self.finalize();
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<Graded> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradecast::{confirm_bytes, echo_bytes, value_bytes, CommitCert, EchoCert};
    use ba_sim::{AdversaryCtx, FnAdversary, ProcessId, Runner, SilentAdversary};
    use std::rc::Rc;

    fn system(n: usize, t: usize, session: u64, inputs: &[u64], pki: &Arc<Pki>) -> Vec<AuthGraded> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                AuthGraded::new(
                    ProcessId(i as u32),
                    n,
                    t,
                    session,
                    Value(v),
                    Arc::clone(pki),
                    pki.signing_key(i as u32),
                )
            })
            .collect()
    }

    #[test]
    fn strong_unanimity_tolerates_nearly_half_silent() {
        // n = 5, t = 2 (beyond n/3 — only possible with authentication).
        let pki = Arc::new(Pki::new(5, 11));
        let mut runner = Runner::new(5, system(5, 2, 1, &[9, 9, 9], &pki), SilentAdversary);
        let report = runner.run(8);
        assert!(report.all_decided());
        for g in report.outputs.values() {
            assert_eq!((g.value, g.grade), (Value(9), 2));
        }
        assert_eq!(report.last_decision_round, Some(AuthGraded::ROUNDS));
    }

    #[test]
    fn mixed_inputs_stay_safe() {
        let pki = Arc::new(Pki::new(4, 3));
        let mut runner = Runner::new(4, system(4, 1, 1, &[1, 1, 2, 2], &pki), SilentAdversary);
        let report = runner.run(8);
        // No faults: every instance delivers at grade 2, so counts are
        // 2 vs 2 — below the q = 3 threshold: everyone stays at grade 0.
        for (id, g) in &report.outputs {
            assert_eq!(g.grade, 0);
            let expect = if id.index() < 2 { 1 } else { 2 };
            assert_eq!(g.value, Value(expect));
        }
    }

    #[test]
    fn equivocating_sender_cannot_split_grades() {
        // The faulty sender p4 signs two values and sends one to each half
        // of the honest processes. Gradecast must not let instance 4 reach
        // grade 2 for different values at different processes; overall
        // outputs must satisfy coherence.
        let n = 5;
        let t = 2;
        let session = 7;
        let pki = Arc::new(Pki::new(n, 5));
        let adv_key = pki.signing_key(4);
        let adv_pki = Arc::clone(&pki);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, AuthGcMsg>| {
            let _ = &adv_pki;
            if ctx.round == 0 {
                let sig_a = adv_key.sign(&value_bytes(session, 4, Value(100)));
                let sig_b = adv_key.sign(&value_bytes(session, 4, Value(200)));
                for to in 0..2u32 {
                    ctx.send(
                        ProcessId(4),
                        ProcessId(to),
                        AuthGcMsg {
                            items: vec![(
                                4,
                                GcastItem::Input {
                                    value: Value(100),
                                    sig: sig_a,
                                },
                            )],
                        },
                    );
                }
                ctx.send(
                    ProcessId(4),
                    ProcessId(2),
                    AuthGcMsg {
                        items: vec![(
                            4,
                            GcastItem::Input {
                                value: Value(200),
                                sig: sig_b,
                            },
                        )],
                    },
                );
            }
        });
        let mut runner = Runner::new(n, system(n, t, session, &[3, 3, 3], &pki), adv);
        let report = runner.run(8);
        // All honest inputs equal 3: strong unanimity must survive the
        // equivocation in the faulty instance.
        for g in report.outputs.values() {
            assert_eq!((g.value, g.grade), (Value(3), 2));
        }
    }

    #[test]
    fn forged_certificates_are_rejected() {
        // The adversary fabricates an echo certificate from its own two
        // signatures (below quorum) plus a garbage signature, and a commit
        // certificate signed only by itself. Honest processes must ignore
        // both, so unanimity on 6 survives untouched.
        let n = 4;
        let t = 1;
        let session = 13;
        let pki = Arc::new(Pki::new(n, 99));
        let k3 = pki.signing_key(3);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, AuthGcMsg>| {
            if ctx.round == 2 {
                let fake_val = Value(777);
                let sender_sig = k3.sign(&value_bytes(session, 3, fake_val));
                let echo_sig = k3.sign(&echo_bytes(session, 3, fake_val));
                let cert = EchoCert {
                    value: fake_val,
                    sender_sig,
                    echo_sigs: vec![echo_sig], // far below q = 3
                };
                ctx.broadcast(
                    ProcessId(3),
                    AuthGcMsg {
                        items: vec![(3, GcastItem::Cert(Rc::new(cert)))],
                    },
                );
            }
            if ctx.round == 4 {
                let cc = CommitCert {
                    value: Value(777),
                    confirm_sigs: vec![k3.sign(&confirm_bytes(session, 3, Value(777)))],
                };
                ctx.broadcast(
                    ProcessId(3),
                    AuthGcMsg {
                        items: vec![(3, GcastItem::Commit(cc))],
                    },
                );
            }
        });
        let mut runner = Runner::new(n, system(n, t, session, &[6, 6, 6], &pki), adv);
        let report = runner.run(8);
        for g in report.outputs.values() {
            assert_eq!((g.value, g.grade), (Value(6), 2));
        }
    }

    #[test]
    fn cross_session_signatures_are_useless() {
        // Signatures harvested from session 1 are replayed into session 2.
        // Honest processes in session 2 must treat them as invalid.
        let n = 4;
        let t = 1;
        let pki = Arc::new(Pki::new(n, 42));

        // Harvest: run session 1 honestly and capture an input signature.
        let harvested_sig = {
            let key0 = pki.signing_key(0);
            key0.sign(&value_bytes(1, 0, Value(5)))
        };

        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, AuthGcMsg>| {
            if ctx.round == 0 {
                // Claim instance 0's value is 5 inside *session 2* using
                // the session-1 signature.
                ctx.broadcast(
                    ProcessId(3),
                    AuthGcMsg {
                        items: vec![(
                            0,
                            GcastItem::Input {
                                value: Value(5),
                                sig: harvested_sig,
                            },
                        )],
                    },
                );
            }
        });
        // Session 2: all honest propose 8. If the replay were accepted,
        // instance 0 would see two sender values and fail to deliver,
        // breaking unanimity.
        let mut runner = Runner::new(n, system(n, t, 2, &[8, 8, 8], &pki), adv);
        let report = runner.run(8);
        for g in report.outputs.values() {
            assert_eq!((g.value, g.grade), (Value(8), 2));
        }
    }

    #[test]
    fn camp_split_attack_cannot_produce_conflicting_grade2() {
        // The designed worst case from the gradecast analysis: the faulty
        // sender signs two values, splits the honest echoes into camps,
        // and completes echo quorums with faulty signatures, yielding two
        // valid certificates. Honest confirmers then see both certificates
        // (honest broadcasts cross camps), so nobody confirms and nobody
        // reaches grade ≥ 1 in that instance — and overall outputs remain
        // coherent.
        let n = 7;
        let t = 3; // 2t < n
        let session = 21;
        let pki = Arc::new(Pki::new(n, 1));
        let keys: Vec<SigningKey> = (4..7u32).map(|i| pki.signing_key(i)).collect();
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, AuthGcMsg>| {
            let va = Value(100);
            let vb = Value(200);
            let sig_a = keys[0].sign(&value_bytes(session, 4, va));
            let sig_b = keys[0].sign(&value_bytes(session, 4, vb));
            match ctx.round {
                0 => {
                    // Camp A = {p0, p1}, camp B = {p2, p3}.
                    for to in [0u32, 1] {
                        ctx.send(
                            ProcessId(4),
                            ProcessId(to),
                            AuthGcMsg {
                                items: vec![(
                                    4,
                                    GcastItem::Input {
                                        value: va,
                                        sig: sig_a,
                                    },
                                )],
                            },
                        );
                    }
                    for to in [2u32, 3] {
                        ctx.send(
                            ProcessId(4),
                            ProcessId(to),
                            AuthGcMsg {
                                items: vec![(
                                    4,
                                    GcastItem::Input {
                                        value: vb,
                                        sig: sig_b,
                                    },
                                )],
                            },
                        );
                    }
                }
                1 => {
                    // Faulty echoes complete both quorums (q = 4): camp A's
                    // two honest echoes + two faulty; likewise camp B.
                    for (value, ssig) in [(va, sig_a), (vb, sig_b)] {
                        for key in keys.iter().take(2) {
                            let esig = key.sign(&echo_bytes(session, 4, value));
                            ctx.broadcast(
                                ProcessId(key.id()),
                                AuthGcMsg {
                                    items: vec![(
                                        4,
                                        GcastItem::Echo {
                                            value,
                                            sender_sig: ssig,
                                            sig: esig.into(),
                                        },
                                    )],
                                },
                            );
                        }
                    }
                }
                _ => {}
            }
        });
        // Honest inputs unanimous at 1: instance 4's chaos must not break
        // strong unanimity of the overall graded consensus.
        let mut runner = Runner::new(n, system(n, t, session, &[1, 1, 1, 1], &pki), adv);
        let report = runner.run(8);
        for g in report.outputs.values() {
            assert_eq!((g.value, g.grade), (Value(1), 2));
        }
    }

    #[test]
    fn message_count_is_quadratic_not_cubic() {
        // Batching: each process sends at most one physical message per
        // recipient per round — ≤ 5 n (n−1) honest envelopes in total.
        let n = 6;
        let pki = Arc::new(Pki::new(n, 2));
        let mut runner = Runner::new(
            n,
            system(n, 2, 1, &[4, 4, 4, 4, 4, 4], &pki),
            SilentAdversary,
        );
        let report = runner.run(8);
        let bound = 5 * (n as u64) * (n as u64 - 1);
        assert!(
            report.honest_messages <= bound,
            "{} > {bound}",
            report.honest_messages
        );
    }
}
