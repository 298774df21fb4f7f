//! Simulated PKI: per-process signing keys and a verification oracle.
//!
//! Real asymmetric signatures are simulated: signatures are HMAC-SHA256 tags
//! under per-process secret keys held privately by the [`Pki`] oracle.
//! Honest code paths sign with their own [`SigningKey`]; anyone verifies
//! via [`Pki::verify`]. The Byzantine adversary is handed the signing keys
//! of corrupted identifiers only (via [`Pki::signing_key`], called by the
//! experiment harness at corruption time), so within the simulation a
//! signature by an honest process is unforgeable — exactly the assumption
//! of §8.1 of the paper.
//!
//! # The verification memo
//!
//! Certificates travel: every receiver re-checks the same quorum
//! signatures in every copy of a certificate it sees, so most
//! [`Pki::verify`] calls repeat an earlier one. The oracle therefore
//! remembers each signature that verified and answers a repeat without
//! recomputing its MAC.
//!
//! * The memo is exact. It is keyed on the full message bytes and holds
//!   the `(signer, tag)` pairs that verified on them; a hit needs message,
//!   signer and tag all equal to a triple that verified. No digest stands
//!   in for the message, so no hash assumption enters the key, and none is
//!   paid for: the protocols' statements are a few dozen bytes, so hashing
//!   one would cost about as much as the MAC it saves.
//! * Only successes are stored. A forgery — a wrong tag, another
//!   message, a re-attributed or unknown signer — never matches an entry,
//!   so its MAC is recomputed and it is rejected on every call.
//! * Verification is a pure function of its inputs, so the memo changes
//!   no outcome, only how often the MAC is computed
//!   ([`Pki::verify_counts`]).
//!
//! ## Statements
//!
//! A quorum certificate carries many signatures on one message, and a
//! gradecast receiver checks one signature per sender on the same echo.
//! [`Pki::verify`] finds the message's memo entry by its bytes on every
//! call. A [`Statement`] lets the caller find it once instead:
//! [`Pki::statement`] binds the canonical bytes to this `Pki`, and
//! [`Pki::verify_statement`] checks signatures on them.
//!
//! * The memo is an index from message bytes to a slot holding that
//!   message's verified signatures. A statement remembers its slot once
//!   the index has one, and from then on goes straight to it: no hashing
//!   and no byte comparison.
//! * Resolving a statement inserts nothing. Its slot is filled on the
//!   first signature that verifies on its bytes, through either method;
//!   until then each check probes the index again.
//! * Both methods share one check, so a statement answers exactly as
//!   [`Pki::verify`] would on its bytes: the same hits, the same MACs,
//!   the same rejections.
//! * A statement is bound to the `Pki` that resolved it, through an id
//!   unique to each `Pki`. Another `Pki` checks it through its bytes and
//!   never reads or writes its slot.
//!
//! [`VerifyCounts::lookups`] counts the index probes, so the saving is a
//! deterministic count.
//!
//! ## Seals
//!
//! A broadcast payload is shared by all its recipients, and each of them
//! checks the same signature in it on the same statement. Even a slot hit
//! takes the memo's lock and scans the slot. A [`SealedSig`] carries the
//! answer instead: a [`SealedChecks::verify`] that accepts it records on
//! the signature itself the `Pki` and the memo slot it verified on, and a
//! later check of the same signature on a statement that knows the same
//! slot in the same `Pki` is answered from that record without locking the
//! memo.
//!
//! * The seal is exact. A slot names one message's bytes in one `Pki`,
//!   the seal is set only once the signature is known to be valid on that
//!   slot, and a sealed signature cannot be changed: its fields are
//!   private and it dereferences to a [`Signature`] only immutably.
//! * A seal is set once and never read by another `Pki`, even one with
//!   the same keys, nor for a statement whose slot differs or is not
//!   known yet. Those checks take the statement path; a forgery never
//!   gets a seal, so it is recomputed and rejected on every call.
//!
//! ### Sealing at signing
//!
//! An honest signer's own `Pki` need not check what it just signed.
//! [`Pki::sign_statement`] computes the tag, records `(signer, tag)` in
//! the statement's memo slot, creating the slot if the bytes have none,
//! and returns the signature already sealed on that slot, so even its
//! first recipient pays no MAC.
//!
//! * The memo now also holds signatures this `Pki` produced, and it stays
//!   exact: such a tag is the MAC this `Pki` computes under its own key
//!   for the signer on exactly the slot's bytes, which is the one tag a
//!   check of that signer on those bytes accepts. Recording it records a
//!   signature that verifies.
//! * It seals only when the key was issued by this `Pki` and the statement
//!   was resolved by it. A key from another `Pki`, even a twin with the
//!   same seed, or a statement from another `Pki`, gets a plain unsealed
//!   signature and leaves the memo untouched.
//! * Signing probes the index by bytes only while the statement does not
//!   know its slot, and counts that probe in [`VerifyCounts::lookups`]; it
//!   is no check, so it adds to no other count.
//!
//! ### Counting seal hits
//!
//! [`VerifyCounts::calls`] still counts every check, and
//! [`VerifyCounts::sealed`] counts those a seal answered. A seal hit
//! touches no shared state: [`SealedChecks`] tallies the hits of one pass
//! of checks and adds them to both counts once, when the pass is dropped,
//! so the counts are exact whenever no pass is open.

use crate::encode::{Bytes, Encoder};
use crate::hmac::{tags_equal, HmacKey};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Identifier type mirrored from `ba-sim` (kept as a raw `u32` here so the
/// crypto substrate has no simulator dependency; protocol crates convert
/// from `ProcessId` at the boundary).
pub type SignerId = u32;

/// A signature: a MAC tag binding `(signer, message)`.
///
/// The tag is truncated to 16 bytes; at simulation scale this preserves a
/// 2⁻¹²⁸ forgery bound while halving envelope sizes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    /// Claimed signer.
    pub signer: SignerId,
    tag: [u8; 16],
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sig(p{}, {:02x}{:02x}…)",
            self.signer, self.tag[0], self.tag[1]
        )
    }
}

/// Signer id plus the 16-byte authentication tag.
impl ba_sim::WireSize for Signature {
    fn wire_bytes(&self) -> u64 {
        4 + 16
    }
}

impl crate::encode::Encodable for Signature {
    /// Canonical encoding of a signature (signer then tag), used when a
    /// signature is itself part of signed material — e.g. the paper's
    /// message chains (Definition 2), where each link signs the previous
    /// link's signature.
    fn encode(&self, enc: &mut crate::encode::Encoder) {
        enc.u32(self.signer);
        enc.bytes(&self.tag);
    }
}

/// A [`Signature`] that remembers where it is valid, so that the
/// recipients of one shared payload pay for its check at most once (see
/// the [module docs](self#seals)): sealed by its first successful check,
/// or by [`Pki::sign_statement`] as it is signed.
///
/// It reads as the signature it wraps, and goes on the wire as one.
#[derive(Clone)]
pub struct SealedSig {
    sig: Signature,
    /// The id of the `Pki` the signature verified in, and the memo slot
    /// of the bytes it verified on. A `OnceCell` suffices: the messages
    /// that carry sealed signatures stay on one thread.
    seal: OnceCell<(u64, u32)>,
}

impl From<Signature> for SealedSig {
    fn from(sig: Signature) -> Self {
        SealedSig {
            sig,
            seal: OnceCell::new(),
        }
    }
}

impl Deref for SealedSig {
    type Target = Signature;

    fn deref(&self) -> &Signature {
        &self.sig
    }
}

impl std::fmt::Debug for SealedSig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.sig.fmt(f)
    }
}

/// The seal stays with the receiver: on the wire this is a signature.
impl ba_sim::WireSize for SealedSig {
    fn wire_bytes(&self) -> u64 {
        self.sig.wire_bytes()
    }
}

/// The capability to sign as one process.
///
/// Obtained from [`Pki::signing_key`]. Cloning is allowed (a process may
/// hand its key to sub-protocol state machines); what matters is that
/// *honest* keys never reach adversary code, which the experiment harness
/// guarantees by construction.
#[derive(Clone)]
pub struct SigningKey {
    id: SignerId,
    /// The id of the [`Pki`] that issued the key.
    pki: u64,
    key: HmacKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the key material.
        write!(f, "SigningKey(p{})", self.id)
    }
}

impl SigningKey {
    /// The identifier this key signs for.
    pub fn id(&self) -> SignerId {
        self.id
    }

    /// Signs canonical message bytes.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            signer: self.id,
            tag: truncate(&self.key.mac(message)),
        }
    }
}

fn truncate(full: &[u8; 32]) -> [u8; 16] {
    let mut tag = [0u8; 16];
    tag.copy_from_slice(&full[..16]);
    tag
}

/// How much work [`Pki::verify`], [`Pki::verify_statement`] and
/// [`SealedChecks::verify`] have done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyCounts {
    /// Signature checks, through any method.
    pub calls: u64,
    /// MACs those calls computed; the rest were answered by the memo or
    /// a seal, or named an unknown signer.
    pub macs: u64,
    /// Memo probes keyed by message bytes: one per [`Pki::verify`] call,
    /// and one per statement check or [`Pki::sign_statement`] on a
    /// statement whose slot is not yet known.
    pub lookups: u64,
    /// Checks answered from a [`SealedSig`]'s seal, without the memo,
    /// by [`SealedChecks`] passes that have ended.
    pub sealed: u64,
}

/// Successful verifications, and the work counters, behind one lock.
#[derive(Default)]
struct Memo {
    /// Message bytes → the slot in `valid` holding the signatures that
    /// verified on them.
    index: HashMap<Box<[u8]>, u32>,
    /// Every signature (signer and tag) that verified on one message, per
    /// slot. One entry per message rather than per signature: a statement
    /// gathers up to a quorum of signatures, and storing the message once
    /// per signature instead raised the auth-wrapper benchmark's peak
    /// memory by about a fifth.
    valid: Vec<Vec<Signature>>,
    counts: VerifyCounts,
}

impl Memo {
    /// Probes the index for `message`'s slot.
    fn lookup(&mut self, message: &[u8]) -> Option<u32> {
        self.counts.lookups += 1;
        self.index.get(message).copied()
    }

    /// Whether `sig` is recorded in `slot`.
    fn holds(&self, slot: Option<u32>, sig: &Signature) -> bool {
        slot.is_some_and(|slot| self.valid[slot as usize].contains(sig))
    }

    /// Records `sig`, which must be valid on `message` and not yet
    /// recorded, in `message`'s slot, creating the slot if `message` has
    /// none. Returns the slot.
    fn record(&mut self, message: &[u8], slot: Option<u32>, sig: &Signature) -> u32 {
        let slot = slot.unwrap_or_else(|| {
            let slot = u32::try_from(self.valid.len()).expect("fewer than 2^32 messages");
            self.valid.push(Vec::new());
            self.index.insert(message.into(), slot);
            slot
        });
        // Grow one entry at a time: a message gathers at most a quorum of
        // signatures, and doubling would leave up to half of each
        // allocation empty.
        let seen = &mut self.valid[slot as usize];
        seen.reserve_exact(1);
        seen.push(*sig);
        slot
    }
}

/// Canonical message bytes resolved against one [`Pki`], for checking
/// many signatures on them (see the [module docs](self#statements)).
///
/// Made by [`Pki::statement`]; checked with [`Pki::verify_statement`] or
/// [`SealedChecks::verify`], and signed with [`Pki::sign_statement`].
#[derive(Clone, Debug)]
pub struct Statement {
    /// Inline when short, as every gradecast and committee statement is.
    bytes: Bytes,
    /// The id of the `Pki` that resolved these bytes.
    pki: u64,
    /// The bytes' memo slot in that `Pki`, once it has one.
    slot: Option<u32>,
}

/// The verification oracle, holding every per-process secret.
///
/// Constructed once per execution from a seed; shared read-only
/// (`Arc<Pki>`) by all processes. Secrets are private fields: protocol and
/// adversary code can only `verify`. Successful verifications are
/// memoised (see the [module docs](self)); the memo sits behind a
/// `Mutex`, so a `Pki` stays `Send + Sync`.
pub struct Pki {
    keys: Vec<HmacKey>,
    /// Distinguishes this `Pki` from every other in the process, so that
    /// a [`Statement`]'s slot is only ever read by the `Pki` that set it.
    id: u64,
    memo: Mutex<Memo>,
}

/// The id the next [`Pki`] gets.
static NEXT_PKI_ID: AtomicU64 = AtomicU64::new(0);

// A session runs on one thread and shares its message payloads through
// `Rc`, but a `Pki` is state handed to constructors: it stays an
// `Arc<Pki>` on purpose, so one key set can serve sessions on several
// threads. Fail the build if the memo ever makes `Pki` thread-bound.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pki>();
};

impl std::fmt::Debug for Pki {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pki({} identities)", self.keys.len())
    }
}

impl Pki {
    /// Derives a PKI for `n` processes from `seed`.
    ///
    /// Key derivation is deterministic (`HMAC(seed, id)`), making whole
    /// executions reproducible.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut root = Encoder::new("pki-root");
        root.u64(seed);
        let root = HmacKey::new(&root.finish());
        let keys = (0..n as u32)
            .map(|id| {
                let mut e = Encoder::new("pki-key");
                e.u32(id);
                HmacKey::new(&root.mac(&e.finish()))
            })
            .collect();
        Pki {
            keys,
            id: NEXT_PKI_ID.fetch_add(1, Ordering::Relaxed),
            memo: Mutex::default(),
        }
    }

    /// Number of identities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the PKI is empty (never true for real systems; provided for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Issues the signing key of `id`.
    ///
    /// The experiment harness calls this once per process at setup and once
    /// per corrupted id for the adversary. Protocol code never calls it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn signing_key(&self, id: SignerId) -> SigningKey {
        SigningKey {
            id,
            pki: self.id,
            key: self.keys[id as usize].clone(),
        }
    }

    /// Verifies that `sig` is a valid signature by `sig.signer` over
    /// `message`.
    ///
    /// A signature that verified before is accepted from the memo without
    /// recomputing its MAC; anything else is checked in full.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let mut memo = self.memo();
        let slot = memo.lookup(message);
        self.check(&mut memo, message, slot, sig).0
    }

    /// Resolves canonical message bytes for [`Pki::verify_statement`],
    /// [`SealedChecks::verify`] and [`Pki::sign_statement`]. Bytes as
    /// short as the protocols' statements are kept inline, so an
    /// [`Encoder`] passed here allocates nothing.
    ///
    /// This neither locks nor fills the memo: the statement finds its slot
    /// on its first check or signature.
    pub fn statement(&self, bytes: impl AsRef<[u8]>) -> Statement {
        Statement {
            bytes: Bytes::from(bytes.as_ref()),
            pki: self.id,
            slot: None,
        }
    }

    /// Signs the statement's bytes as `key`'s signer, sealed on their memo
    /// slot (see [sealing at signing](self#sealing-at-signing)).
    ///
    /// If this `Pki` issued `key` and resolved `statement`, the signature
    /// is recorded in the statement's slot, created if needed, and comes
    /// back sealed on it. Otherwise it is a plain signature, as
    /// [`SigningKey::sign`] gives, and the memo is left untouched.
    pub fn sign_statement(&self, key: &SigningKey, statement: &mut Statement) -> SealedSig {
        let bytes = statement.bytes.as_slice();
        if key.pki != self.id || statement.pki != self.id {
            return key.sign(bytes).into();
        }
        let sig = Signature {
            signer: key.id,
            tag: truncate(&self.keys[key.id as usize].mac(bytes)),
        };
        let mut memo = self.memo();
        let slot = statement.slot.or_else(|| memo.lookup(bytes));
        let slot = match slot {
            Some(slot) if memo.holds(Some(slot), &sig) => slot,
            slot => memo.record(bytes, slot, &sig),
        };
        statement.slot = Some(slot);
        SealedSig {
            sig,
            seal: OnceCell::from((self.id, slot)),
        }
    }

    /// Opens a pass of [`SealedSig`] checks: the seal hits it answers are
    /// counted once, when it is dropped (see
    /// [counting seal hits](self#counting-seal-hits)).
    pub fn sealed_checks(&self) -> SealedChecks<'_> {
        SealedChecks { pki: self, hits: 0 }
    }

    /// Verifies that `sig` is a valid signature by `sig.signer` over the
    /// statement's bytes, with the same answer and the same MACs as
    /// [`Pki::verify`] on them.
    ///
    /// Once the statement knows its memo slot, a repeat is answered from
    /// the slot without hashing the bytes. A statement resolved by another
    /// `Pki` is checked through its bytes alone.
    pub fn verify_statement(&self, statement: &mut Statement, sig: &Signature) -> bool {
        let bytes = statement.bytes.as_slice();
        if statement.pki != self.id {
            return self.verify(bytes, sig);
        }
        let mut memo = self.memo();
        let slot = statement.slot.or_else(|| memo.lookup(bytes));
        let (valid, slot) = self.check(&mut memo, bytes, slot, sig);
        statement.slot = slot;
        valid
    }

    /// The one signature check behind every `verify` method: answers from
    /// `message`'s memo slot if it has one, else computes the MAC and
    /// records a success. Returns the verdict and the message's slot
    /// afterwards.
    fn check(
        &self,
        memo: &mut Memo,
        message: &[u8],
        slot: Option<u32>,
        sig: &Signature,
    ) -> (bool, Option<u32>) {
        memo.counts.calls += 1;
        if memo.holds(slot, sig) {
            return (true, slot);
        }
        let Some(key) = self.keys.get(sig.signer as usize) else {
            return (false, slot);
        };
        memo.counts.macs += 1;
        if !tags_equal(&truncate(&key.mac(message)), &sig.tag) {
            return (false, slot);
        }
        (true, Some(memo.record(message, slot, sig)))
    }

    /// Verify calls so far, the MACs they computed, the memo probes they
    /// and signing made, and the calls a seal answered in passes that have
    /// ended.
    pub fn verify_counts(&self) -> VerifyCounts {
        self.memo().counts
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        // Every update leaves each stored signature a verified one, so a
        // memo whose lock a panicking thread poisoned is still sound.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One pass of [`SealedSig`] checks against a [`Pki`], opened by
/// [`Pki::sealed_checks`].
///
/// A seal hit is tallied here and touches nothing shared; the tally is
/// added to [`VerifyCounts::calls`] and [`VerifyCounts::sealed`] once,
/// when the pass is dropped.
pub struct SealedChecks<'a> {
    pki: &'a Pki,
    hits: u64,
}

impl<'a> SealedChecks<'a> {
    /// The `Pki` this pass checks against.
    pub fn pki(&self) -> &'a Pki {
        self.pki
    }

    /// Verifies `sig` on the statement's bytes like
    /// [`Pki::verify_statement`], and seals it once it verified on the
    /// statement's slot (see the [module docs](self#seals)).
    ///
    /// A signature sealed by this `Pki` on the slot the statement knows
    /// is accepted without touching the memo; any other seal is ignored.
    pub fn verify(&mut self, statement: &mut Statement, sig: &SealedSig) -> bool {
        let pki = self.pki;
        let ours = statement.pki == pki.id;
        if ours
            && statement
                .slot
                .is_some_and(|slot| sig.seal.get() == Some(&(pki.id, slot)))
        {
            self.hits += 1;
            return true;
        }
        let valid = pki.verify_statement(statement, sig);
        if let (true, true, Some(slot)) = (valid, ours, statement.slot) {
            // A signature already sealed elsewhere keeps that seal.
            let _ = sig.seal.set((pki.id, slot));
        }
        valid
    }
}

impl Drop for SealedChecks<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            let counts = &mut self.pki.memo().counts;
            counts.calls += self.hits;
            counts.sealed += self.hits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_then_verify_roundtrip() {
        let pki = Pki::new(4, 7);
        let key = pki.signing_key(2);
        let sig = key.sign(b"hello");
        assert!(pki.verify(b"hello", &sig));
    }

    #[test]
    fn verification_binds_the_message() {
        let pki = Pki::new(4, 7);
        let sig = pki.signing_key(1).sign(b"msg-a");
        assert!(!pki.verify(b"msg-b", &sig));
    }

    #[test]
    fn verification_binds_the_signer() {
        let pki = Pki::new(4, 7);
        let sig = pki.signing_key(1).sign(b"m");
        let forged = Signature { signer: 2, ..sig };
        assert!(!pki.verify(b"m", &forged), "re-attributing a tag must fail");
    }

    #[test]
    fn unknown_signer_rejected() {
        let pki = Pki::new(2, 7);
        let other = Pki::new(5, 7);
        let sig = other.signing_key(4).sign(b"m");
        assert!(!pki.verify(b"m", &sig));
    }

    #[test]
    fn keys_differ_across_processes_and_seeds() {
        let pki_a = Pki::new(3, 1);
        let pki_b = Pki::new(3, 2);
        let s0 = pki_a.signing_key(0).sign(b"m");
        let s1 = pki_a.signing_key(1).sign(b"m");
        assert_ne!(s0, s1);
        let s0b = pki_b.signing_key(0).sign(b"m");
        assert!(!pki_b.verify(b"m", &s0), "cross-seed signatures invalid");
        assert!(pki_b.verify(b"m", &s0b));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = Pki::new(3, 42).signing_key(1).sign(b"x");
        let b = Pki::new(3, 42).signing_key(1).sign(b"x");
        assert_eq!(a, b);
    }

    #[test]
    fn guessing_tags_fails() {
        // A computationally-bounded adversary without the key cannot do
        // better than guessing; spot-check a handful of guesses.
        let pki = Pki::new(2, 9);
        for guess in 0u8..32 {
            let fake = Signature {
                signer: 0,
                tag: [guess; 16],
            };
            assert!(!pki.verify(b"target", &fake));
        }
    }

    #[test]
    fn memoised_tags_reject_every_flipped_bit() {
        let pki = Pki::new(4, 7);
        let sig = pki.signing_key(1).sign(b"m");
        assert!(pki.verify(b"m", &sig));
        for bit in 0..128 {
            let mut forged = sig;
            forged.tag[bit / 8] ^= 1 << (bit % 8);
            assert!(!pki.verify(b"m", &forged), "tag bit {bit} flipped");
        }
        assert!(pki.verify(b"m", &sig));
        assert_eq!(
            pki.verify_counts(),
            VerifyCounts {
                calls: 130,
                macs: 129,
                lookups: 130,
                sealed: 0
            }
        );
    }

    #[test]
    fn statements_reject_every_flipped_bit() {
        let pki = Pki::new(4, 7);
        let sig = pki.signing_key(1).sign(b"m");
        let mut statement = pki.statement(b"m");
        assert!(pki.verify_statement(&mut statement, &sig));
        for bit in 0..128 {
            let mut forged = sig;
            forged.tag[bit / 8] ^= 1 << (bit % 8);
            for _ in 0..2 {
                assert!(
                    !pki.verify_statement(&mut statement, &forged),
                    "tag bit {bit} flipped"
                );
            }
        }
        assert!(pki.verify_statement(&mut statement, &sig));
        assert_eq!(
            pki.verify_counts(),
            VerifyCounts {
                calls: 258,
                macs: 257,
                lookups: 1,
                sealed: 0
            }
        );
    }

    #[test]
    fn statements_that_never_verify_leave_no_memo_entry() {
        let pki = Pki::new(4, 7);
        let sig = pki.signing_key(1).sign(b"m");
        let mut statement = pki.statement(b"other");
        assert_eq!(pki.verify_counts(), VerifyCounts::default());
        for _ in 0..2 {
            assert!(!pki.verify_statement(&mut statement, &sig));
        }
        let memo = pki.memo();
        assert!(memo.index.is_empty() && memo.valid.is_empty());
        assert_eq!(statement.slot, None);
        assert_eq!(
            memo.counts,
            VerifyCounts {
                calls: 2,
                macs: 2,
                lookups: 2,
                sealed: 0
            }
        );
    }

    #[test]
    fn statements_are_bound_to_the_pki_that_resolved_them() {
        // Two PKIs with the same keys give their first messages the same
        // slot. If `twin` read `pki`'s slot, it would find `sig_b` there
        // and accept it on a message it does not sign.
        let (pki, twin) = (Pki::new(4, 7), Pki::new(4, 7));
        let sig_a = pki.signing_key(1).sign(b"a");
        let sig_b = twin.signing_key(1).sign(b"b");
        let mut statement = pki.statement(b"a");
        assert!(pki.verify_statement(&mut statement, &sig_a));
        assert!(twin.verify(b"b", &sig_b));
        assert_eq!(statement.slot, Some(0));
        assert_eq!(twin.memo().index.get(&b"b"[..]), Some(&0));
        for _ in 0..2 {
            assert!(!twin.verify_statement(&mut statement, &sig_b));
        }
        assert!(twin.verify_statement(&mut statement, &sig_a), "bytes path");
        assert_eq!(statement.slot, Some(0), "the slot stays `pki`'s");
        assert!(pki.verify_statement(&mut statement, &sig_a));
        assert_eq!(
            twin.verify_counts(),
            VerifyCounts {
                calls: 4,
                macs: 4,
                lookups: 4,
                sealed: 0
            }
        );
        assert_eq!(
            pki.verify_counts(),
            VerifyCounts {
                calls: 2,
                macs: 1,
                lookups: 1,
                sealed: 0
            }
        );
    }

    #[test]
    fn sealed_signatures_reject_every_flipped_bit() {
        let pki = Pki::new(4, 7);
        let sig = SealedSig::from(pki.signing_key(1).sign(b"m"));
        let mut statement = pki.statement(b"m");
        assert!(pki.sealed_checks().verify(&mut statement, &sig));
        assert_eq!(sig.seal.get(), Some(&(pki.id, 0)));
        for bit in 0..128 {
            let mut forged = *sig;
            forged.tag[bit / 8] ^= 1 << (bit % 8);
            let forged = SealedSig::from(forged);
            for _ in 0..2 {
                assert!(
                    !pki.sealed_checks().verify(&mut statement, &forged),
                    "tag bit {bit} flipped"
                );
            }
            assert_eq!(forged.seal.get(), None, "a forgery is never sealed");
        }
        assert!(pki.sealed_checks().verify(&mut statement, &sig), "seal hit");
        assert_eq!(
            pki.verify_counts(),
            VerifyCounts {
                calls: 258,
                macs: 257,
                lookups: 1,
                sealed: 1
            }
        );
    }

    #[test]
    fn seals_are_bound_to_the_pki_that_set_them() {
        // A twin with the same keys gives its first message the same slot
        // as `pki`. If it trusted `pki`'s seal on `sig_a`, it would accept
        // `sig_a` on bytes `a` was never signed over.
        let (pki, twin) = (Pki::new(4, 7), Pki::new(4, 7));
        let sig_a = SealedSig::from(pki.signing_key(1).sign(b"a"));
        let mut on_a = pki.statement(b"a");
        assert!(pki.sealed_checks().verify(&mut on_a, &sig_a));
        assert_eq!(sig_a.seal.get(), Some(&(pki.id, 0)));
        let mut twin_on_b = twin.statement(b"b");
        assert!(twin.verify_statement(&mut twin_on_b, &twin.signing_key(2).sign(b"b")));
        assert_eq!(twin_on_b.slot, Some(0));
        for _ in 0..2 {
            assert!(!twin.sealed_checks().verify(&mut twin_on_b, &sig_a));
        }
        // On its own bytes the twin accepts `sig_a` by its MAC, and keeps
        // `pki`'s seal.
        let mut twin_on_a = twin.statement(b"a");
        for _ in 0..2 {
            assert!(twin.sealed_checks().verify(&mut twin_on_a, &sig_a));
        }
        assert_eq!(sig_a.seal.get(), Some(&(pki.id, 0)));
        assert_eq!(
            twin.verify_counts(),
            VerifyCounts {
                calls: 5,
                macs: 4,
                lookups: 2,
                sealed: 0
            }
        );
    }

    #[test]
    fn a_seal_never_accepts_its_signature_on_other_bytes() {
        let pki = Pki::new(4, 7);
        let sig = SealedSig::from(pki.signing_key(1).sign(b"a"));
        let mut on_a = pki.statement(b"a");
        assert!(pki.sealed_checks().verify(&mut on_a, &sig));
        // `b` gets its own slot from another signer's signature; `c` has
        // none yet.
        let mut on_b = pki.statement(b"b");
        assert!(pki.verify_statement(&mut on_b, &pki.signing_key(2).sign(b"b")));
        assert_eq!((on_a.slot, on_b.slot), (Some(0), Some(1)));
        let mut on_c = pki.statement(b"c");
        for _ in 0..2 {
            assert!(!pki.sealed_checks().verify(&mut on_b, &sig));
            assert!(!pki.sealed_checks().verify(&mut on_c, &sig));
        }
        assert_eq!(sig.seal.get(), Some(&(pki.id, 0)), "the seal stays on `a`");
        assert!(pki.sealed_checks().verify(&mut on_a, &sig));
        assert_eq!(
            pki.verify_counts(),
            VerifyCounts {
                calls: 7,
                macs: 6,
                lookups: 4,
                sealed: 1
            }
        );
    }

    #[test]
    fn signatures_sealed_at_signing_are_recorded_and_sealed() {
        let pki = Pki::new(4, 7);
        let key = pki.signing_key(1);
        let mut statement = pki.statement(b"m");
        let sig = pki.sign_statement(&key, &mut statement);
        assert_eq!(*sig, key.sign(b"m"), "the same signature as plain signing");
        assert_eq!(statement.slot, Some(0));
        assert_eq!(sig.seal.get(), Some(&(pki.id, 0)));
        assert_eq!(pki.memo().valid, [vec![*sig]]);
        // Signing again records nothing new and probes nothing.
        let again = pki.sign_statement(&key, &mut statement);
        assert_eq!((*again, again.seal.get()), (*sig, Some(&(pki.id, 0))));
        assert_eq!(pki.memo().valid, [vec![*sig]]);
        assert_eq!(
            pki.verify_counts(),
            VerifyCounts {
                lookups: 1,
                ..VerifyCounts::default()
            },
            "signing is no check"
        );
    }

    #[test]
    fn keys_from_a_twin_pki_get_no_seal_and_leave_no_memo_entry() {
        let (pki, twin) = (Pki::new(4, 7), Pki::new(4, 7));
        let key = twin.signing_key(1);
        let mut statement = pki.statement(b"m");
        let sig = pki.sign_statement(&key, &mut statement);
        assert_eq!(*sig, key.sign(b"m"));
        assert_eq!(sig.seal.get(), None);
        assert_eq!(statement.slot, None);
        let memo = pki.memo();
        assert!(memo.index.is_empty() && memo.valid.is_empty());
        assert_eq!(memo.counts, VerifyCounts::default());
    }

    #[test]
    fn statements_from_another_pki_get_a_plain_signature() {
        let (pki, other) = (Pki::new(4, 7), Pki::new(4, 7));
        let key = pki.signing_key(2);
        let mut foreign = other.statement(b"m");
        let sig = pki.sign_statement(&key, &mut foreign);
        assert_eq!(*sig, key.sign(b"m"));
        assert_eq!((sig.seal.get(), foreign.slot), (None, None));
        for p in [&pki, &other] {
            let memo = p.memo();
            assert!(memo.index.is_empty() && memo.valid.is_empty());
            assert_eq!(memo.counts, VerifyCounts::default());
        }
        // Its first check pays the MAC.
        assert!(other.sealed_checks().verify(&mut foreign, &sig));
        assert_eq!(other.verify_counts().macs, 1);
    }

    #[test]
    fn signatures_sealed_at_signing_reject_every_flipped_bit() {
        let pki = Pki::new(4, 7);
        let mut signed_on = pki.statement(b"m");
        let sig = pki.sign_statement(&pki.signing_key(1), &mut signed_on);
        let mut statement = pki.statement(b"m");
        for bit in 0..128 {
            let mut forged = *sig;
            forged.tag[bit / 8] ^= 1 << (bit % 8);
            let forged = SealedSig::from(forged);
            for checked_on in [&mut signed_on, &mut statement] {
                assert!(
                    !pki.sealed_checks().verify(checked_on, &forged),
                    "tag bit {bit} flipped"
                );
            }
            assert_eq!(forged.seal.get(), None, "a forgery is never sealed");
        }
        assert!(pki.sealed_checks().verify(&mut statement, &sig));
        assert_eq!(
            pki.verify_counts(),
            VerifyCounts {
                calls: 257,
                macs: 256,
                lookups: 2,
                sealed: 1
            },
            "one MAC per forgery check, none for the genuine signature"
        );
    }

    #[test]
    fn signatures_sealed_at_signing_verify_on_a_fresh_statement_without_a_mac() {
        let pki = Pki::new(4, 7);
        let mut signed_on = pki.statement(b"m");
        let sig = pki.sign_statement(&pki.signing_key(3), &mut signed_on);
        let mut fresh = pki.statement(b"m");
        let mut checks = pki.sealed_checks();
        assert!(checks.verify(&mut fresh, &sig), "a memo hit finds the slot");
        assert!(checks.verify(&mut fresh, &sig), "then a seal hit");
        assert!(pki.verify(b"m", &sig), "the bytes path hits the memo too");
        drop(checks);
        assert_eq!(
            pki.verify_counts(),
            VerifyCounts {
                calls: 3,
                macs: 0,
                lookups: 3,
                sealed: 1
            }
        );
    }

    #[test]
    fn seal_hits_are_counted_when_their_pass_ends() {
        let pki = Pki::new(4, 7);
        let mut statement = pki.statement(b"m");
        let sig = pki.sign_statement(&pki.signing_key(0), &mut statement);
        let mut checks = pki.sealed_checks();
        for _ in 0..3 {
            assert!(checks.verify(&mut statement, &sig));
        }
        assert_eq!(pki.verify_counts().sealed, 0, "the pass is still open");
        drop(checks);
        let counts = pki.verify_counts();
        assert_eq!((counts.calls, counts.sealed, counts.macs), (3, 3, 0));
    }

    #[test]
    fn debug_output_never_leaks_secrets() {
        let pki = Pki::new(2, 3);
        let key = pki.signing_key(0);
        assert!(pki.verify(b"m", &key.sign(b"m")), "fill the memo");
        // Exact output: there is no room for key material, midstates or
        // memo contents.
        assert_eq!(format!("{key:?}"), "SigningKey(p0)");
        assert_eq!(format!("{pki:?}"), "Pki(2 identities)");
    }
}
