//! Committee certificates and message chains (§8.1, Definitions 1–2).
//!
//! A *committee certificate* for `pᵢ` is a set of signatures on
//! `⟨committee, pᵢ⟩` by `t + 1` different processes: since at most `t`
//! processes are faulty, every certificate contains at least one honest
//! signature — i.e. at least one honest process voted `pᵢ` onto the
//! committee.
//!
//! A *message chain* of length `b` for value `x` started by `pₛ` is the
//! Dolev–Strong object: `pₛ`'s signed value, extended link by link, each
//! link adding its signer's committee certificate and a signature over
//! everything before it. A valid chain of length `b` is signed by `b`
//! distinct processes, all of which demonstrably belong to the committee;
//! if at most `k` committee members are faulty, any chain of length
//! `k + 1` carries an honest link — which is what lets Algorithm 6
//! truncate Dolev–Strong to `k + 1` rounds.

use ba_crypto::{Encodable, Encoder, Pki, Signature, SigningKey};
use ba_sim::{Value, WireSize};
use std::collections::BTreeSet;

/// Canonical bytes of the committee-membership statement
/// `⟨committee, p_member⟩` within a session.
pub fn committee_bytes(session: u64, member: u32) -> Vec<u8> {
    committee_encoding(session, member).finish()
}

/// [`committee_bytes`] unfinished: short enough to stay inline, so
/// resolving a statement from it allocates nothing.
fn committee_encoding(session: u64, member: u32) -> Encoder {
    let mut e = Encoder::new("committee");
    e.u64(session).u32(member);
    e
}

/// Canonical bytes a chain link signs: the session, the broadcast
/// instance (= starter identifier), the value, and every prior link
/// signature in order.
pub fn chain_link_bytes(session: u64, inst: u32, value: Value, prior: &[Signature]) -> Vec<u8> {
    let mut e = Encoder::new("chain-link");
    e.u64(session).u32(inst).u64(value.0).seq(prior);
    e.finish()
}

/// A committee certificate (Definition 1): `t + 1` signatures on
/// `⟨committee, p_member⟩` by distinct processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitteeCert {
    /// The certified member.
    pub member: u32,
    /// Signatures by `t + 1` distinct processes.
    pub sigs: Vec<Signature>,
}

impl WireSize for CommitteeCert {
    fn wire_bytes(&self) -> u64 {
        self.member.wire_bytes() + self.sigs.wire_bytes()
    }
}

impl CommitteeCert {
    /// Assembles a certificate from collected votes, using the `t + 1`
    /// smallest signer identifiers (Algorithm 7 line 6).
    ///
    /// Returns `None` if fewer than `t + 1` distinct signers are present.
    pub fn assemble(member: u32, votes: &[Signature], t: usize) -> Option<Self> {
        let mut by_signer: Vec<&Signature> = {
            let mut seen = BTreeSet::new();
            votes.iter().filter(|s| seen.insert(s.signer)).collect()
        };
        by_signer.sort_by_key(|s| s.signer);
        if by_signer.len() < t + 1 {
            return None;
        }
        Some(CommitteeCert {
            member,
            sigs: by_signer[..t + 1].iter().map(|s| **s).collect(),
        })
    }

    /// Verifies the certificate: `t + 1` distinct valid signatures over
    /// the membership statement.
    pub fn verify(&self, session: u64, t: usize, pki: &Pki) -> bool {
        let mut statement = pki.statement(committee_encoding(session, self.member));
        let mut signers = BTreeSet::new();
        for sig in &self.sigs {
            if !signers.insert(sig.signer) || !pki.verify_statement(&mut statement, sig) {
                return false;
            }
        }
        signers.len() > t
    }
}

/// One link of a message chain: the signer's committee credential plus
/// its signature over everything before it.
///
/// In [`CommitteeMode::Universal`](crate::bb_committee::CommitteeMode)
/// deployments (every process implicitly certified — used by the
/// truncated-Dolev–Strong early-stopping fallback, substitution S5) the
/// certificate is omitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// The signer's committee certificate (`None` in universal mode).
    pub cert: Option<CommitteeCert>,
    /// Signature over [`chain_link_bytes`] of the prefix.
    pub sig: Signature,
}

impl WireSize for ChainLink {
    fn wire_bytes(&self) -> u64 {
        self.cert.wire_bytes() + self.sig.wire_bytes()
    }
}

/// A message chain (Definition 2) for one value started by one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageChain {
    /// The carried value.
    pub value: Value,
    /// Links in extension order; `links[0]` is the starter's.
    pub links: Vec<ChainLink>,
}

impl WireSize for MessageChain {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.links.wire_bytes()
    }
}

impl MessageChain {
    /// Starts a chain of length 1 (Algorithm 6 line 4).
    pub fn start(
        session: u64,
        inst: u32,
        value: Value,
        key: &SigningKey,
        cert: Option<CommitteeCert>,
    ) -> Self {
        debug_assert_eq!(key.id(), inst, "only the sender starts a chain");
        let sig = key.sign(&chain_link_bytes(session, inst, value, &[]));
        MessageChain {
            value,
            links: vec![ChainLink { cert, sig }],
        }
    }

    /// Extends the chain by one link (Algorithm 6 line 10).
    pub fn extend(
        &self,
        session: u64,
        inst: u32,
        key: &SigningKey,
        cert: Option<CommitteeCert>,
    ) -> Self {
        let prior: Vec<Signature> = self.links.iter().map(|l| l.sig).collect();
        let sig = key.sign(&chain_link_bytes(session, inst, self.value, &prior));
        let mut links = self.links.clone();
        links.push(ChainLink { cert, sig });
        MessageChain {
            value: self.value,
            links,
        }
    }

    /// Chain length (number of links / distinct signers required).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the chain has no links (never valid; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The starter's identifier, if any link exists.
    pub fn starter(&self) -> Option<u32> {
        self.links.first().map(|l| l.sig.signer)
    }

    /// Validates the chain for instance `inst`:
    ///
    /// * the first link is signed by `inst`;
    /// * link signatures cover the growing prefix and verify;
    /// * all signers are distinct;
    /// * when `require_certs` is set, every link carries a valid
    ///   committee certificate for its signer.
    pub fn verify(
        &self,
        session: u64,
        inst: u32,
        t: usize,
        require_certs: bool,
        pki: &Pki,
    ) -> bool {
        if self.links.is_empty() {
            return false;
        }
        if self.links[0].sig.signer != inst {
            return false;
        }
        let mut signers = BTreeSet::new();
        let mut prior: Vec<Signature> = Vec::with_capacity(self.links.len());
        for link in &self.links {
            if !signers.insert(link.sig.signer) {
                return false;
            }
            match (&link.cert, require_certs) {
                (Some(cert), true)
                    if (cert.member != link.sig.signer || !cert.verify(session, t, pki)) =>
                {
                    return false;
                }
                (None, true) => return false,
                _ => {}
            }
            if !pki.verify(
                &chain_link_bytes(session, inst, self.value, &prior),
                &link.sig,
            ) {
                return false;
            }
            prior.push(link.sig);
        }
        true
    }
}

// `Signature` is `Encodable` in ba-crypto; chains rely on that to make
// each link's signed bytes cover the prefix. This blanket check keeps the
// dependency honest at compile time.
const _: fn() = || {
    fn assert_encodable<T: Encodable>() {}
    assert_encodable::<Signature>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn pki() -> Pki {
        Pki::new(6, 77)
    }

    fn cert_for(pki: &Pki, session: u64, member: u32, signers: &[u32]) -> CommitteeCert {
        let votes: Vec<Signature> = signers
            .iter()
            .map(|&s| pki.signing_key(s).sign(&committee_bytes(session, member)))
            .collect();
        CommitteeCert {
            member,
            sigs: votes,
        }
    }

    #[test]
    fn committee_cert_roundtrip() {
        let pki = pki();
        let cert = cert_for(&pki, 1, 2, &[0, 1, 3]);
        assert!(cert.verify(1, 2, &pki));
    }

    #[test]
    fn committee_cert_needs_t_plus_1_distinct() {
        let pki = pki();
        let mut cert = cert_for(&pki, 1, 2, &[0, 1, 3]);
        cert.sigs.pop();
        assert!(!cert.verify(1, 2, &pki), "only t signatures");
        let mut dup = cert_for(&pki, 1, 2, &[0, 1, 3]);
        dup.sigs[2] = dup.sigs[0];
        assert!(!dup.verify(1, 2, &pki), "duplicate signer padding");
    }

    #[test]
    fn committee_cert_binds_member_and_session() {
        let pki = pki();
        let cert = cert_for(&pki, 1, 2, &[0, 1, 3]);
        let stolen = CommitteeCert {
            member: 4,
            sigs: cert.sigs.clone(),
        };
        assert!(!stolen.verify(1, 2, &pki), "cert cannot be re-pointed");
        assert!(!cert.verify(9, 2, &pki), "cert bound to session");
    }

    #[test]
    fn assemble_picks_t_plus_1_smallest_signers() {
        let pki = pki();
        let votes: Vec<Signature> = [5u32, 0, 3, 1]
            .iter()
            .map(|&s| pki.signing_key(s).sign(&committee_bytes(7, 2)))
            .collect();
        let cert = CommitteeCert::assemble(2, &votes, 2).expect("enough votes");
        let signers: Vec<u32> = cert.sigs.iter().map(|s| s.signer).collect();
        assert_eq!(signers, vec![0, 1, 3], "the t+1 smallest identifiers");
        assert!(cert.verify(7, 2, &pki));
        assert!(CommitteeCert::assemble(2, &votes[..2], 2).is_none());
    }

    #[test]
    fn chain_of_length_one_verifies() {
        let pki = pki();
        let cert = cert_for(&pki, 3, 1, &[0, 2, 4]);
        let chain = MessageChain::start(3, 1, Value(8), &pki.signing_key(1), Some(cert));
        assert!(chain.verify(3, 1, 2, true, &pki));
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.starter(), Some(1));
    }

    #[test]
    fn extended_chain_verifies_and_binds_prefix() {
        let pki = pki();
        let session = 3;
        let c1 = cert_for(&pki, session, 1, &[0, 2, 4]);
        let c5 = cert_for(&pki, session, 5, &[0, 2, 4]);
        let chain = MessageChain::start(session, 1, Value(8), &pki.signing_key(1), Some(c1));
        let longer = chain.extend(session, 1, &pki.signing_key(5), Some(c5));
        assert!(longer.verify(session, 1, 2, true, &pki));
        assert_eq!(longer.len(), 2);

        // Tampering with the value invalidates every signature.
        let mut tampered = longer.clone();
        tampered.value = Value(9);
        assert!(!tampered.verify(session, 1, 2, true, &pki));
    }

    #[test]
    fn chain_rejects_duplicate_signers() {
        let pki = pki();
        let session = 3;
        let c1 = cert_for(&pki, session, 1, &[0, 2, 4]);
        let chain =
            MessageChain::start(session, 1, Value(8), &pki.signing_key(1), Some(c1.clone()));
        let selfie = chain.extend(session, 1, &pki.signing_key(1), Some(c1));
        assert!(
            !selfie.verify(session, 1, 2, true, &pki),
            "a process cannot extend its own chain to fake length"
        );
    }

    #[test]
    fn chain_rejects_wrong_starter() {
        let pki = pki();
        let session = 3;
        let c2 = cert_for(&pki, session, 2, &[0, 1, 4]);
        let chain = MessageChain::start(session, 2, Value(8), &pki.signing_key(2), Some(c2));
        assert!(
            !chain.verify(session, 1, 2, true, &pki),
            "instance 1 only accepts chains started by p1"
        );
    }

    #[test]
    fn chain_requires_certs_when_mode_demands() {
        let pki = pki();
        let chain = MessageChain::start(3, 1, Value(8), &pki.signing_key(1), None);
        assert!(!chain.verify(3, 1, 2, true, &pki), "missing certificate");
        assert!(chain.verify(3, 1, 2, false, &pki), "universal mode accepts");
    }

    #[test]
    fn chain_rejects_mismatched_cert_owner() {
        let pki = pki();
        let session = 3;
        // p5 presents p1's certificate.
        let c1 = cert_for(&pki, session, 1, &[0, 2, 4]);
        let chain =
            MessageChain::start(session, 1, Value(8), &pki.signing_key(1), Some(c1.clone()));
        let bad = chain.extend(session, 1, &pki.signing_key(5), Some(c1));
        assert!(!bad.verify(session, 1, 2, true, &pki));
    }

    #[test]
    fn forged_middle_link_detected() {
        let pki = pki();
        let session = 3;
        let c1 = cert_for(&pki, session, 1, &[0, 2, 4]);
        let c5 = cert_for(&pki, session, 5, &[0, 2, 4]);
        let c0 = cert_for(&pki, session, 0, &[1, 2, 4]);
        let chain = MessageChain::start(session, 1, Value(8), &pki.signing_key(1), Some(c1));
        let longer = chain
            .extend(session, 1, &pki.signing_key(5), Some(c5))
            .extend(session, 1, &pki.signing_key(0), Some(c0));
        // Excising the middle link breaks the prefix binding.
        let mut cut = longer.clone();
        cut.links.remove(1);
        assert!(!cut.verify(session, 1, 2, true, &pki));
    }
}
