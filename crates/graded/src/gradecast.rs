//! Certified gradecast: the single-sender authenticated primitive behind
//! [`crate::auth::AuthGraded`], which stands in for the authenticated
//! graded consensus the paper cites (\[37\]).
//!
//! A *gradecast* lets a designated sender `s` distribute a value such that
//! (for `t < n/2`, with signatures):
//!
//! * **(c) Honest sender.** If `s` is honest, every honest process outputs
//!   `(v_s, 2)`.
//! * **(a) Grade-2 consistency.** No two honest processes output grade 2
//!   with different values.
//! * **(b) Grade-2 transfer.** If some honest process outputs `(v, 2)`,
//!   every honest process outputs `v` with grade ≥ 1.
//! * **(d) No grade-1 splits.** Any two honest processes with grade ≥ 1
//!   output the same value.
//!
//! ## Protocol (5 rounds)
//!
//! Quorum `q = n − t`. All signed material binds `(session, instance)` so
//! signatures cannot be replayed across wrapper phases or instances.
//!
//! 1. **value** — `s` signs and broadcasts its value.
//! 2. **echo** — each process echoes the *unique* `s`-signed value it saw
//!    (two distinct `s`-signed values ⇒ echo nothing).
//! 3. **certify** — `q` echo signatures on one value form an *echo
//!    certificate* `EC(v)`; processes broadcast the certificates they
//!    formed (at most two distinct values matter).
//! 4. **confirm** — a process that knows certificates for *exactly one*
//!    value `v` signs and broadcasts a confirmation, attaching `EC(v)`;
//!    otherwise it broadcasts its (conflicting) certificates.
//! 5. **commit/spread** — `q` direct confirm signatures form a *commit
//!    certificate* `CC(v)`; processes broadcast any `CC` they formed plus
//!    every certificate value they know.
//!
//! Output: grade 2 iff the process formed `CC(v)` from direct confirms
//! *and* knows certificates for no value other than `v` even after round
//! 5; grade 1 iff exactly one commit-certificate value is known *and*
//! exactly one certificate value was known by the end of round 4.
//!
//! ## State
//!
//! Every per-value table of an instance holds at most two values: two
//! sender-signed values already prove equivocation, and two certified
//! values a conflict, so a third adds nothing any output depends on. The
//! tables are therefore private two-slot maps kept inline in the instance
//! in ascending value order, and an instance allocates only for the
//! signatures it gathers and the certificates it keeps. Whenever an
//! instance sends items for two values, the smaller value goes first.
//!
//! * Each sender-signed value holds its sender signature and its echo
//!   signatures; each certified value holds its first valid certificate
//!   and its direct confirm signatures.
//! * A value's echo and confirm statements are resolved against the
//!   [`Pki`] on the first signature to sign or check on them (see
//!   [`ba_crypto::Statement`]); every later signature on them is signed
//!   or checked without encoding or hashing the statement again. Their
//!   bytes are short enough to be kept inline.
//! * Quorum lists move, they are not copied: when a value's echoes or
//!   confirms fill a quorum, the instance moves the list into the echo or
//!   commit certificate it forms. The vote entry is then *spent*, and
//!   takes no more signatures, exactly as a full entry takes none.
//! * Certificates are shared, not copied: a formed or received echo
//!   certificate is one `Rc<EchoCert>` allocation, held by the instance
//!   and by every round-3 to round-5 item that carries it.
//! * Echo and confirm signatures travel as [`SealedSig`]s. The signer
//!   signs on the instance's own vote statement through
//!   [`Pki::sign_statement`], so each arrives already sealed, and every
//!   recipient accepts it from the seal without the memo (see
//!   [`SealedChecks::verify`]).
//! * Each round's `make_*` calls push their items into the one list the
//!   round broadcasts; no instance allocates a list of its own.
//! * Vote lists are kept sorted by signer. Inboxes are delivered in
//!   sender order, so an echo or confirm from a signer above the last
//!   one is appended after one comparison; only a vote arriving out of
//!   order is placed by binary search. Either way a certificate lists the
//!   first `q` signers that verified in signer order, whatever order
//!   they arrived in.
//!
//! ## Proof sketch
//!
//! *(c)*: only `v_s` can be `s`-signed, so only `EC(v_s)` can exist; all
//! honest processes confirm and commit it.
//!
//! *(a)*: grade 2 at `pᵢ` needs `q` direct confirms, hence an honest
//! confirmer of `v`, who attached `EC(v)` to its round-4 broadcast. If
//! `pⱼ` also had grade 2 on `w ≠ v`, an honest confirmer of `w` broadcast
//! `EC(w)` in round 4, which reaches `pᵢ` before its end-of-round-5 purity
//! check — contradiction.
//!
//! *(b)*: `pᵢ` (grade 2 on `v`) broadcast `CC(v)` in round 5, so every
//! `pⱼ` knows it. If `pⱼ` knew a certificate for `w ≠ v` by end of round
//! 4 it would have spread it in round 5, destroying `pᵢ`'s grade 2; so
//! `pⱼ`'s round-4 certificate set is exactly `{v}`. If `pⱼ` knew `CC(w)`,
//! an honest confirmer of `w` would again have spread `EC(w)` in round 4
//! to `pᵢ` — contradiction. Hence `pⱼ` outputs `(v, ≥1)`.
//!
//! *(d)*: any known `CC(w)` implies an honest confirmer of `w` whose
//! attached `EC(w)` reached **every** process in round 4; two grade-1
//! holders on different values would each violate the other's
//! "exactly one certificate value by end of round 4" condition.

use ba_crypto::{Encoder, Pki, SealedChecks, SealedSig, Signature, SigningKey, Statement};
use ba_sim::{Value, WireSize};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Static parameters of one gradecast instance.
#[derive(Clone, Copy, Debug)]
pub struct GcastConfig {
    /// System size.
    pub n: usize,
    /// Fault tolerance (requires `2t < n`).
    pub t: usize,
    /// Session tag binding all signatures of this protocol run.
    pub session: u64,
    /// The designated sender's identifier (= instance id).
    pub inst: u32,
}

impl GcastConfig {
    fn quorum(&self) -> usize {
        self.n - self.t
    }

    fn encoding(&self, domain: &str, value: Value) -> Encoder {
        encoding(domain, self.session, self.inst, value)
    }

    /// Whether `sig` is the instance sender's signature on `value`.
    fn sender_signed(&self, pki: &Pki, value: Value, sig: &Signature) -> bool {
        sig.signer == self.inst && pki.verify(self.encoding(VALUE, value).as_ref(), sig)
    }
}

/// One round's outgoing items, each tagged with its instance.
pub type Items = Vec<(u32, GcastItem)>;

/// The domains of the three signed statements.
const VALUE: &str = "gcast-val";
const ECHO: &str = "gcast-echo";
const CONFIRM: &str = "gcast-confirm";

/// The canonical encoding of a statement in `domain` about `value` in
/// instance `inst`: short enough to stay inline, so it allocates nothing.
fn encoding(domain: &str, session: u64, inst: u32, value: Value) -> Encoder {
    let mut e = Encoder::new(domain);
    e.u64(session).u32(inst).u64(value.0);
    e
}

/// Canonical bytes of the sender's value message.
pub fn value_bytes(session: u64, inst: u32, value: Value) -> Vec<u8> {
    encoding(VALUE, session, inst, value).finish()
}

/// Canonical bytes of an echo.
pub fn echo_bytes(session: u64, inst: u32, value: Value) -> Vec<u8> {
    encoding(ECHO, session, inst, value).finish()
}

/// Canonical bytes of a confirmation.
pub fn confirm_bytes(session: u64, inst: u32, value: Value) -> Vec<u8> {
    encoding(CONFIRM, session, inst, value).finish()
}

/// An echo certificate: `q` distinct echo signatures over one `s`-signed
/// value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EchoCert {
    /// The certified value.
    pub value: Value,
    /// The sender's signature over the value (proof the value originated
    /// from the instance's sender).
    pub sender_sig: Signature,
    /// Echo signatures by distinct processes.
    pub echo_sigs: Vec<Signature>,
}

impl WireSize for EchoCert {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.sender_sig.wire_bytes() + self.echo_sigs.wire_bytes()
    }
}

impl EchoCert {
    /// Verifies structure and signatures against `cfg`.
    pub fn verify(&self, cfg: &GcastConfig, pki: &Pki) -> bool {
        if !cfg.sender_signed(pki, self.value, &self.sender_sig) {
            return false;
        }
        let mut statement = pki.statement(cfg.encoding(ECHO, self.value));
        let mut signers = BTreeSet::new();
        for sig in &self.echo_sigs {
            if !signers.insert(sig.signer) {
                return false; // duplicate signer
            }
            if !pki.verify_statement(&mut statement, sig) {
                return false;
            }
        }
        signers.len() >= cfg.quorum()
    }
}

/// A commit certificate: `q` distinct confirm signatures on one value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitCert {
    /// The committed value.
    pub value: Value,
    /// Confirm signatures by distinct processes.
    pub confirm_sigs: Vec<Signature>,
}

impl WireSize for CommitCert {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.confirm_sigs.wire_bytes()
    }
}

impl CommitCert {
    /// Verifies structure and signatures against `cfg`.
    pub fn verify(&self, cfg: &GcastConfig, pki: &Pki) -> bool {
        let mut statement = pki.statement(cfg.encoding(CONFIRM, self.value));
        let mut signers = BTreeSet::new();
        for sig in &self.confirm_sigs {
            if !signers.insert(sig.signer) {
                return false;
            }
            if !pki.verify_statement(&mut statement, sig) {
                return false;
            }
        }
        signers.len() >= cfg.quorum()
    }
}

/// Per-round payloads of one gradecast instance (batched across instances
/// by [`crate::auth::AuthGraded`]).
#[derive(Clone, Debug)]
pub enum GcastItem {
    /// Round 1: the sender's signed value.
    Input {
        /// Proposed value.
        value: Value,
        /// Sender signature over [`value_bytes`].
        sig: Signature,
    },
    /// Round 2: an echo of the unique `s`-signed value.
    Echo {
        /// Echoed value.
        value: Value,
        /// The sender's signature being echoed.
        sender_sig: Signature,
        /// The echoer's signature over [`echo_bytes`].
        sig: SealedSig,
    },
    /// Rounds 3–5: an echo certificate (fresh, conflict report, or
    /// spread).
    Cert(Rc<EchoCert>),
    /// Round 4: a confirmation with its supporting certificate.
    Confirm {
        /// Confirmed value.
        value: Value,
        /// Confirmer's signature over [`confirm_bytes`].
        sig: SealedSig,
        /// Certificate justifying the confirmation.
        cert: Rc<EchoCert>,
    },
    /// Round 5: a commit certificate.
    Commit(CommitCert),
}

/// A discriminant byte plus the variant's payload.
impl WireSize for GcastItem {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            GcastItem::Input { value, sig } => value.wire_bytes() + sig.wire_bytes(),
            GcastItem::Echo {
                value,
                sender_sig,
                sig,
            } => value.wire_bytes() + sender_sig.wire_bytes() + sig.wire_bytes(),
            GcastItem::Cert(cert) => cert.wire_bytes(),
            GcastItem::Confirm { value, sig, cert } => {
                value.wire_bytes() + sig.wire_bytes() + cert.wire_bytes()
            }
            GcastItem::Commit(cert) => cert.wire_bytes(),
        }
    }
}

/// Output of one gradecast instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcastOutput {
    /// The delivered value (`None` at grade 0).
    pub value: Option<Value>,
    /// Grade in `{0, 1, 2}`.
    pub grade: u8,
}

/// State machine for one gradecast instance at one process.
///
/// Driven by an external scheduler ([`crate::auth::AuthGraded`]) that
/// routes payloads and collects outgoing items; it is not a standalone
/// [`ba_sim::Process`].
#[derive(Debug)]
pub struct GcastInstance {
    cfg: GcastConfig,
    /// Distinct sender-signed values seen (at most two: enough to prove
    /// equivocation), each with the echoes verified for it.
    inputs: Two<Input>,
    /// First valid certificate per value (at most two), each with the
    /// direct confirms verified for it in round 4.
    certs: Two<Certified>,
    /// The certificate value known at the end of round 4, if it was the
    /// only one.
    sole_cert_at_r4: Option<Value>,
    /// Value of the commit certificate this process formed from direct
    /// confirms.
    self_commit: Option<Value>,
    /// Values with a known valid commit certificate (at most two).
    commits: Two<()>,
}

/// A sender-signed value's sender signature and verified echoes.
#[derive(Debug)]
struct Input {
    sender_sig: Signature,
    echoes: Votes,
}

/// A certified value's first valid certificate and verified confirms.
#[derive(Debug)]
struct Certified {
    cert: Rc<EchoCert>,
    confirms: Votes,
}

/// Verified signatures on one statement: distinct signers in signer
/// order, at most a quorum, plus the statement once a signature on it
/// has been signed or checked.
#[derive(Debug, Default)]
struct Votes {
    statement: Option<Statement>,
    sigs: Vec<Signature>,
    /// Whether `sigs` has moved into a certificate.
    spent: bool,
}

impl GcastInstance {
    /// Creates the instance state.
    pub fn new(cfg: GcastConfig) -> Self {
        assert!(2 * cfg.t < cfg.n, "gradecast needs 2t < n");
        GcastInstance {
            cfg,
            inputs: Two::new(),
            certs: Two::new(),
            sole_cert_at_r4: None,
            self_commit: None,
            commits: Two::new(),
        }
    }

    /// The instance configuration.
    pub fn config(&self) -> &GcastConfig {
        &self.cfg
    }

    /// Round-1 send: the designated sender signs its value.
    pub fn make_input(cfg: &GcastConfig, key: &SigningKey, value: Value) -> GcastItem {
        debug_assert_eq!(key.id(), cfg.inst, "only the sender starts an instance");
        let sig = key.sign(cfg.encoding(VALUE, value).as_ref());
        GcastItem::Input { value, sig }
    }

    /// Ingests a round-1 `Input` item.
    pub fn recv_input(&mut self, pki: &Pki, value: Value, sig: &Signature) {
        if self.inputs.contains(value) {
            return;
        }
        if self.inputs.is_full() {
            return; // equivocation already proven; more values add nothing
        }
        if self.cfg.sender_signed(pki, value, sig) {
            self.inputs.insert(value, Input::new(*sig));
        }
    }

    /// Round-2 send: echo the unique sender-signed value, if any, signed
    /// and sealed on the value's echo statement.
    pub fn make_echo(&mut self, pki: &Pki, key: &SigningKey, items: &mut Items) {
        let cfg = &self.cfg;
        if let Some((value, input)) = self.inputs.sole_mut() {
            let statement = input.echoes.statement(pki, || cfg.encoding(ECHO, value));
            let sig = pki.sign_statement(key, statement);
            let sender_sig = input.sender_sig;
            items.push((
                cfg.inst,
                GcastItem::Echo {
                    value,
                    sender_sig,
                    sig,
                },
            ));
        }
    }

    /// Ingests a round-2 `Echo` item.
    pub fn recv_echo(
        &mut self,
        checks: &mut SealedChecks<'_>,
        value: Value,
        sender_sig: &Signature,
        sig: &SealedSig,
    ) {
        let cfg = &self.cfg;
        let input = match self.inputs.get_mut(value) {
            Some(input) => input,
            // The embedded sender signature proves the value originated
            // from the sender; it is verified once per value.
            None => {
                if !cfg.sender_signed(checks.pki(), value, sender_sig) {
                    return;
                }
                match self.inputs.insert(value, Input::new(*sender_sig)) {
                    Some(input) => input,
                    // A third sender-signed value: the sender has already
                    // proven itself faulty twice over; certificates for it
                    // are not needed for any output this instance can
                    // still produce.
                    None => return,
                }
            }
        };
        input
            .echoes
            .add(cfg, checks, sig, || cfg.encoding(ECHO, value));
    }

    /// Round-3 send: the certificates this process can assemble from
    /// echoes, each taking its quorum list.
    pub fn make_certs(&mut self, items: &mut Items) {
        let q = self.cfg.quorum();
        for (value, input) in self.inputs.iter_mut() {
            let Some(echo_sigs) = input.echoes.take_quorum(q) else {
                continue;
            };
            let cert = Rc::new(EchoCert {
                value,
                sender_sig: input.sender_sig,
                echo_sigs,
            });
            // Locally formed, so already valid.
            if !self.certs.contains(value) {
                self.certs.insert(value, Certified::new(Rc::clone(&cert)));
            }
            items.push((self.cfg.inst, GcastItem::Cert(cert)));
        }
    }

    /// Ingests a received certificate (any round).
    pub fn recv_cert(&mut self, pki: &Pki, cert: &Rc<EchoCert>) {
        if self.certs.contains(cert.value) {
            return; // one valid certificate per value suffices
        }
        if self.certs.is_full() {
            return; // conflict already established
        }
        if cert.verify(&self.cfg, pki) {
            self.certs
                .insert(cert.value, Certified::new(Rc::clone(cert)));
        }
    }

    /// Round-4 send: confirm the unique certified value, signed and sealed
    /// on its confirm statement, or report the conflict by spreading
    /// certificates.
    ///
    /// Call after all round-3 receives.
    pub fn make_confirm(&mut self, pki: &Pki, key: &SigningKey, items: &mut Items) {
        let cfg = &self.cfg;
        match self.certs.sole_mut() {
            Some((value, certified)) => {
                let statement = certified
                    .confirms
                    .statement(pki, || cfg.encoding(CONFIRM, value));
                let sig = pki.sign_statement(key, statement);
                items.push((
                    cfg.inst,
                    GcastItem::Confirm {
                        value,
                        sig,
                        cert: Rc::clone(&certified.cert),
                    },
                ));
            }
            None => self.push_certs(items),
        }
    }

    /// Ingests a round-4 `Confirm` item (records the attached certificate
    /// first, then the confirm signature).
    pub fn recv_confirm(
        &mut self,
        checks: &mut SealedChecks<'_>,
        value: Value,
        sig: &SealedSig,
        cert: &Rc<EchoCert>,
    ) {
        if cert.value == value {
            self.recv_cert(checks.pki(), cert);
        }
        // Count only confirms whose certificate checks out (a confirm for
        // an uncertifiable value is noise).
        let Some(certified) = self.certs.get_mut(value) else {
            return;
        };
        let cfg = &self.cfg;
        certified
            .confirms
            .add(cfg, checks, sig, || cfg.encoding(CONFIRM, value));
    }

    /// Round-5 send: spread any commit certificate formed from direct
    /// confirms, taking their quorum list, plus every certificate value
    /// known at the end of round 4.
    pub fn make_spread(&mut self, items: &mut Items) {
        self.sole_cert_at_r4 = self.certs.sole().map(|(value, _)| value);
        let q = self.cfg.quorum();
        if let Some((value, confirm_sigs)) = self
            .certs
            .iter_mut()
            .find_map(|(value, certified)| Some((value, certified.confirms.take_quorum(q)?)))
        {
            self.self_commit = Some(value);
            items.push((
                self.cfg.inst,
                GcastItem::Commit(CommitCert {
                    value,
                    confirm_sigs,
                }),
            ));
            // Two other commit values may already be known, and then this
            // one does not fit; either way more than one is known, which is
            // all `finish` asks.
            if !self.commits.contains(value) {
                self.commits.insert(value, ());
            }
        }
        self.push_certs(items);
    }

    /// Pushes every known certificate, in ascending value order.
    fn push_certs(&self, items: &mut Items) {
        items.extend(
            self.certs
                .iter()
                .map(|(_, certified)| (self.cfg.inst, GcastItem::Cert(Rc::clone(&certified.cert)))),
        );
    }

    /// Ingests a round-5 `Commit` item.
    pub fn recv_commit(&mut self, pki: &Pki, cc: &CommitCert) {
        if self.commits.contains(cc.value) {
            return;
        }
        if self.commits.is_full() {
            return;
        }
        if cc.verify(&self.cfg, pki) {
            self.commits.insert(cc.value, ());
        }
    }

    /// Final output after all round-5 receives.
    pub fn finish(&self) -> GcastOutput {
        if let Some(value) = self.self_commit {
            let pure = self.certs.sole().is_some_and(|(v, _)| v == value);
            if pure {
                return GcastOutput {
                    value: Some(value),
                    grade: 2,
                };
            }
        }
        if let Some((value, ())) = self.commits.sole() {
            if self.sole_cert_at_r4 == Some(value) {
                return GcastOutput {
                    value: Some(value),
                    grade: 1,
                };
            }
        }
        GcastOutput {
            value: None,
            grade: 0,
        }
    }
}

impl Input {
    fn new(sender_sig: Signature) -> Self {
        Input {
            sender_sig,
            echoes: Votes::default(),
        }
    }
}

impl Certified {
    fn new(cert: Rc<EchoCert>) -> Self {
        Certified {
            cert,
            confirms: Votes::default(),
        }
    }
}

impl Votes {
    /// Whether the entry takes no more signatures: it holds a quorum, or
    /// its list has moved into a certificate. Signatures it does not take
    /// are skipped unverified.
    fn closed(&self, quorum: usize) -> bool {
        self.spent || self.sigs.len() >= quorum
    }

    /// Moves out a full quorum list for a certificate, leaving the entry
    /// spent; `None` if the entry holds no quorum or is already spent.
    fn take_quorum(&mut self, quorum: usize) -> Option<Vec<Signature>> {
        if self.spent || self.sigs.len() < quorum {
            return None;
        }
        self.spent = true;
        Some(std::mem::take(&mut self.sigs))
    }

    /// The statement, resolved from `encoding()` on first use.
    fn statement(&mut self, pki: &Pki, encoding: impl FnOnce() -> Encoder) -> &mut Statement {
        self.statement
            .get_or_insert_with(|| pki.statement(encoding()))
    }

    /// Adds `sig` if the entry is not closed, its signer is new, and it
    /// verifies (or is sealed) on the statement.
    ///
    /// A sorted `Vec` sized to the quorum holds these few signatures in
    /// less memory than a `BTreeMap`, whose nodes have room for eleven.
    /// Inboxes arrive in sender order, so a signer above the last one is
    /// appended with one comparison; any other is placed by binary
    /// search.
    fn add(
        &mut self,
        cfg: &GcastConfig,
        checks: &mut SealedChecks<'_>,
        sig: &SealedSig,
        encoding: impl FnOnce() -> Encoder,
    ) {
        let quorum = cfg.quorum();
        if self.closed(quorum) {
            return;
        }
        let at = match self.sigs.last() {
            Some(last) if last.signer >= sig.signer => {
                match self.sigs.binary_search_by_key(&sig.signer, |s| s.signer) {
                    Ok(_) => return,
                    Err(at) => at,
                }
            }
            _ => self.sigs.len(),
        };
        let statement = self.statement(checks.pki(), encoding);
        if checks.verify(statement, sig) {
            self.sigs.reserve_exact(quorum - self.sigs.len());
            self.sigs.insert(at, **sig);
        }
    }
}

/// A map from at most two values, kept inline in ascending value order,
/// so it iterates as a `BTreeMap` would (see the [module docs](self#state)).
#[derive(Debug)]
struct Two<T> {
    /// Filled from the front: `slots[1]` is `Some` only if `slots[0]` is,
    /// and then holds the larger value.
    slots: [Option<(Value, T)>; 2],
}

impl<T> Two<T> {
    fn new() -> Self {
        Two {
            slots: [None, None],
        }
    }

    fn is_full(&self) -> bool {
        self.slots[1].is_some()
    }

    fn contains(&self, value: Value) -> bool {
        self.iter().any(|(v, _)| v == value)
    }

    fn get_mut(&mut self, value: Value) -> Option<&mut T> {
        self.iter_mut().find(|(v, _)| *v == value).map(|(_, t)| t)
    }

    /// The entry, if there is exactly one.
    fn sole(&self) -> Option<(Value, &T)> {
        match &self.slots {
            [Some((value, t)), None] => Some((*value, t)),
            _ => None,
        }
    }

    /// [`sole`](Self::sole), mutably.
    fn sole_mut(&mut self) -> Option<(Value, &mut T)> {
        match &mut self.slots {
            [Some((value, t)), None] => Some((*value, t)),
            _ => None,
        }
    }

    /// Entries in ascending value order.
    fn iter(&self) -> impl Iterator<Item = (Value, &T)> {
        self.slots.iter().flatten().map(|(value, t)| (*value, t))
    }

    /// [`iter`](Self::iter), mutably.
    fn iter_mut(&mut self) -> impl Iterator<Item = (Value, &mut T)> {
        self.slots
            .iter_mut()
            .flatten()
            .map(|(value, t)| (*value, t))
    }

    /// Inserts `value`, which must be absent, and returns its entry, or
    /// returns `None` if two values are already held.
    fn insert(&mut self, value: Value, t: T) -> Option<&mut T> {
        debug_assert!(!self.contains(value), "{value:?} is already held");
        let at = match &self.slots {
            [None, _] => 0,
            [Some(_), Some(_)] => return None,
            [Some((first, _)), None] if value < *first => {
                self.slots.swap(0, 1);
                0
            }
            [Some(_), None] => 1,
        };
        let (_, t) = self.slots[at].insert((value, t));
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GcastConfig {
        GcastConfig {
            n: 5,
            t: 2,
            session: 9,
            inst: 0,
        }
    }

    fn pki() -> Pki {
        Pki::new(5, 1234)
    }

    /// The items one `make_*` call pushes, without their instance tags.
    fn made(make: impl FnOnce(&mut Items)) -> Vec<GcastItem> {
        let mut items = Vec::new();
        make(&mut items);
        items.into_iter().map(|(_, item)| item).collect()
    }

    fn valid_cert(pki: &Pki, cfg: &GcastConfig, value: Value, echoers: &[u32]) -> EchoCert {
        let sender_sig = pki
            .signing_key(cfg.inst)
            .sign(&value_bytes(cfg.session, cfg.inst, value));
        let echo_sigs = echoers
            .iter()
            .map(|&i| {
                pki.signing_key(i)
                    .sign(&echo_bytes(cfg.session, cfg.inst, value))
            })
            .collect();
        EchoCert {
            value,
            sender_sig,
            echo_sigs,
        }
    }

    #[test]
    fn echo_cert_verifies_with_quorum() {
        let (pki, cfg) = (pki(), cfg());
        let cert = valid_cert(&pki, &cfg, Value(7), &[0, 1, 2]);
        assert!(cert.verify(&cfg, &pki));
    }

    #[test]
    fn echo_cert_rejects_below_quorum() {
        let (pki, cfg) = (pki(), cfg());
        let cert = valid_cert(&pki, &cfg, Value(7), &[0, 1]);
        assert!(!cert.verify(&cfg, &pki), "q = n - t = 3 signatures needed");
    }

    #[test]
    fn echo_cert_rejects_duplicate_signers() {
        let (pki, cfg) = (pki(), cfg());
        let mut cert = valid_cert(&pki, &cfg, Value(7), &[0, 1, 2]);
        cert.echo_sigs[2] = cert.echo_sigs[0];
        assert!(
            !cert.verify(&cfg, &pki),
            "padding with duplicates must fail"
        );
    }

    #[test]
    fn echo_cert_rejects_wrong_session() {
        let (pki, cfg) = (pki(), cfg());
        let other = GcastConfig { session: 10, ..cfg };
        let cert = valid_cert(&pki, &other, Value(7), &[0, 1, 2]);
        assert!(
            !cert.verify(&cfg, &pki),
            "signatures are bound to the session tag"
        );
    }

    #[test]
    fn echo_cert_rejects_forged_sender_signature() {
        let (pki, cfg) = (pki(), cfg());
        let mut cert = valid_cert(&pki, &cfg, Value(7), &[0, 1, 2]);
        // Replace the sender signature by one from a different process.
        cert.sender_sig = pki
            .signing_key(3)
            .sign(&value_bytes(cfg.session, cfg.inst, Value(7)));
        assert!(!cert.verify(&cfg, &pki));
    }

    #[test]
    fn commit_cert_verification() {
        let (pki, cfg) = (pki(), cfg());
        let sigs: Vec<Signature> = [1u32, 2, 3]
            .iter()
            .map(|&i| {
                pki.signing_key(i)
                    .sign(&confirm_bytes(cfg.session, cfg.inst, Value(4)))
            })
            .collect();
        let cc = CommitCert {
            value: Value(4),
            confirm_sigs: sigs,
        };
        assert!(cc.verify(&cfg, &pki));
        let wrong = CommitCert {
            value: Value(5),
            ..cc
        };
        assert!(!wrong.verify(&cfg, &pki), "signatures bind the value");
    }

    #[test]
    fn instance_ignores_input_not_signed_by_sender() {
        let (pki, cfg) = (pki(), cfg());
        let mut inst = GcastInstance::new(cfg);
        let bad_sig = pki
            .signing_key(2)
            .sign(&value_bytes(cfg.session, cfg.inst, Value(3)));
        inst.recv_input(&pki, Value(3), &bad_sig);
        assert!(made(|items| inst.make_echo(&pki, &pki.signing_key(1), items)).is_empty());
    }

    #[test]
    fn instance_echoes_unique_value_and_refuses_on_equivocation() {
        let (pki, cfg) = (pki(), cfg());
        let sender = pki.signing_key(0);
        let mut inst = GcastInstance::new(cfg);
        let s1 = sender.sign(&value_bytes(cfg.session, 0, Value(1)));
        inst.recv_input(&pki, Value(1), &s1);
        assert!(!made(|items| inst.make_echo(&pki, &pki.signing_key(1), items)).is_empty());
        // A second sender-signed value arrives: equivocation, echo nothing.
        let s2 = sender.sign(&value_bytes(cfg.session, 0, Value(2)));
        inst.recv_input(&pki, Value(2), &s2);
        assert!(made(|items| inst.make_echo(&pki, &pki.signing_key(1), items)).is_empty());
    }

    #[test]
    fn cert_formation_from_quorum_of_echoes() {
        let (pki, cfg) = (pki(), cfg());
        let sender = pki.signing_key(0);
        let mut inst = GcastInstance::new(cfg);
        let ssig = sender.sign(&value_bytes(cfg.session, 0, Value(6)));
        inst.recv_input(&pki, Value(6), &ssig);
        for i in [0u32, 1, 2] {
            let esig = pki
                .signing_key(i)
                .sign(&echo_bytes(cfg.session, 0, Value(6)));
            inst.recv_echo(&mut pki.sealed_checks(), Value(6), &ssig, &esig.into());
        }
        let certs = made(|items| inst.make_certs(items));
        assert_eq!(certs.len(), 1);
        match &certs[0] {
            GcastItem::Cert(c) => {
                assert_eq!(c.value, Value(6));
                assert!(c.verify(&cfg, &pki));
            }
            other => panic!("expected Cert, got {other:?}"),
        }
    }

    #[test]
    fn certificates_are_shared_not_copied() {
        let (pki, cfg) = (pki(), cfg());
        let sender = pki.signing_key(0);
        let mut formed = GcastInstance::new(cfg);
        let ssig = sender.sign(&value_bytes(cfg.session, 0, Value(6)));
        for i in [0u32, 1, 2] {
            let esig = pki
                .signing_key(i)
                .sign(&echo_bytes(cfg.session, 0, Value(6)));
            formed.recv_echo(&mut pki.sealed_checks(), Value(6), &ssig, &esig.into());
        }
        let mut received = GcastInstance::new(cfg);
        let cert = Rc::new(valid_cert(&pki, &cfg, Value(1), &[0, 1, 2]));
        received.recv_cert(&pki, &cert);
        let certs = |items: &[GcastItem]| -> Vec<Rc<EchoCert>> {
            items
                .iter()
                .map(|item| match item {
                    GcastItem::Cert(cert) | GcastItem::Confirm { cert, .. } => Rc::clone(cert),
                    other => panic!("expected a certificate, got {other:?}"),
                })
                .collect()
        };
        for (inst, first) in [(&mut formed, None), (&mut received, Some(cert))] {
            let first =
                first.unwrap_or_else(|| certs(&made(|items| inst.make_certs(items)))[0].clone());
            let key = pki.signing_key(3);
            for later in [
                certs(&made(|items| inst.make_confirm(&pki, &key, items))),
                certs(&made(|items| inst.make_spread(items))),
            ] {
                assert!(
                    Rc::ptr_eq(&first, &later[0]),
                    "one allocation per certificate"
                );
            }
        }
    }

    #[test]
    fn no_cert_without_echo_quorum() {
        let (pki, cfg) = (pki(), cfg());
        let sender = pki.signing_key(0);
        let mut inst = GcastInstance::new(cfg);
        let ssig = sender.sign(&value_bytes(cfg.session, 0, Value(6)));
        inst.recv_input(&pki, Value(6), &ssig);
        for i in [1u32, 2] {
            let esig = pki
                .signing_key(i)
                .sign(&echo_bytes(cfg.session, 0, Value(6)));
            inst.recv_echo(&mut pki.sealed_checks(), Value(6), &ssig, &esig.into());
        }
        assert!(made(|items| inst.make_certs(items)).is_empty());
    }

    #[test]
    fn confirm_only_with_unique_certified_value() {
        let (pki, cfg) = (pki(), cfg());
        let mut inst = GcastInstance::new(cfg);
        inst.recv_cert(&pki, &valid_cert(&pki, &cfg, Value(1), &[0, 1, 2]).into());
        let items = made(|items| inst.make_confirm(&pki, &pki.signing_key(3), items));
        assert!(
            matches!(items.as_slice(), [GcastItem::Confirm { value, .. }] if *value == Value(1))
        );

        // Conflicting certificates: report instead of confirming.
        let mut inst2 = GcastInstance::new(cfg);
        inst2.recv_cert(&pki, &valid_cert(&pki, &cfg, Value(1), &[0, 1, 2]).into());
        inst2.recv_cert(&pki, &valid_cert(&pki, &cfg, Value(2), &[0, 3, 4]).into());
        let items2 = made(|items| inst2.make_confirm(&pki, &pki.signing_key(3), items));
        assert_eq!(items2.len(), 2);
        assert!(items2.iter().all(|i| matches!(i, GcastItem::Cert(_))));
    }

    #[test]
    fn grade0_when_nothing_happens() {
        let (pki, cfg) = (pki(), cfg());
        let mut inst = GcastInstance::new(cfg);
        let _ = made(|items| inst.make_confirm(&pki, &pki.signing_key(1), items));
        let _ = made(|items| inst.make_spread(items));
        assert_eq!(
            inst.finish(),
            GcastOutput {
                value: None,
                grade: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "2t < n")]
    fn rejects_majority_corruption() {
        let _ = GcastInstance::new(GcastConfig {
            n: 4,
            t: 2,
            session: 0,
            inst: 0,
        });
    }
}
