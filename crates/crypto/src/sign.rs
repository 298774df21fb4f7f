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

use crate::encode::Encoder;
use crate::hmac::{tags_equal, HmacKey};
use std::collections::HashMap;
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

/// The capability to sign as one process.
///
/// Obtained from [`Pki::signing_key`]. Cloning is allowed (a process may
/// hand its key to sub-protocol state machines); what matters is that
/// *honest* keys never reach adversary code, which the experiment harness
/// guarantees by construction.
#[derive(Clone)]
pub struct SigningKey {
    id: SignerId,
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

/// How much work [`Pki::verify`] has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyCounts {
    /// Calls to [`Pki::verify`].
    pub calls: u64,
    /// MACs those calls computed; the rest were answered by the memo or
    /// named an unknown signer.
    pub macs: u64,
}

/// Successful verifications, and the work counters, behind one lock.
#[derive(Default)]
struct Memo {
    /// Message bytes → every signature (signer and tag) that verified on
    /// them. One entry per message rather than per signature: a statement
    /// gathers up to a quorum of signatures, and storing the message once
    /// per signature instead raised the auth-wrapper benchmark's peak
    /// memory by about a fifth.
    valid: HashMap<Box<[u8]>, Vec<Signature>>,
    counts: VerifyCounts,
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
    memo: Mutex<Memo>,
}

// Parallel sweeps move sessions, and with them their `Arc<Pki>`, across
// threads: fail the build if the memo ever makes `Pki` thread-bound.
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
        let Memo { valid, counts } = &mut *memo;
        counts.calls += 1;
        let seen = valid.get_mut(message);
        if seen.as_ref().is_some_and(|seen| seen.contains(sig)) {
            return true;
        }
        let Some(key) = self.keys.get(sig.signer as usize) else {
            return false;
        };
        counts.macs += 1;
        if !tags_equal(&truncate(&key.mac(message)), &sig.tag) {
            return false;
        }
        match seen {
            // Grow one entry at a time: a message gathers at most a quorum
            // of signatures, and doubling would leave up to half of each
            // allocation empty.
            Some(seen) => {
                seen.reserve_exact(1);
                seen.push(*sig);
            }
            None => {
                valid.insert(message.into(), vec![*sig]);
            }
        }
        true
    }

    /// Verify calls so far, and the MACs they computed.
    pub fn verify_counts(&self) -> VerifyCounts {
        self.memo().counts
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        // Every update leaves each stored signature a verified one, so a
        // memo whose lock a panicking thread poisoned is still sound.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
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
                macs: 129
            }
        );
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
