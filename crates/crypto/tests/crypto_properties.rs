//! Property-based tests of the cryptographic substrate: streaming/one-shot
//! equivalence for SHA-256, precomputed HMAC keys against the textbook
//! construction, signature binding under random inputs (also once the
//! verification memo holds the genuine signature, through resolved
//! statements, once the genuine signature is sealed, and once the PKI
//! sealed it as it signed), encoder injectivity on structured inputs, and
//! in-place nesting against the two-step encoding.

use ba_crypto::{
    hmac_sha256, sha256, Encodable, Encoder, HmacKey, Pki, SealedSig, Sha256, Signature,
    VerifyCounts,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Chunked hashing equals one-shot hashing for arbitrary data and
    /// arbitrary chunk boundaries.
    #[test]
    fn sha256_streaming_equals_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        splits in proptest::collection::vec(0usize..600, 0..6),
    ) {
        let whole = sha256(&data);
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for &c in &cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), whole);
    }

    /// A prepared key MACs like RFC 2104 spelled out, for keys on both
    /// sides of the 64-byte block (longer ones are hashed first), and
    /// stays reusable across messages.
    #[test]
    fn hmac_key_matches_the_textbook_construction(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg_a in proptest::collection::vec(any::<u8>(), 0..200),
        msg_b in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let prepared = HmacKey::new(&key);
        for msg in [&msg_a, &msg_b, &msg_a] {
            let expected = textbook_hmac(&key, msg);
            prop_assert_eq!(prepared.mac(msg), expected);
            prop_assert_eq!(hmac_sha256(&key, msg), expected);
        }
    }

    /// Once a genuine signature sits in the verification memo, every
    /// variation of it is still rejected: another message, a prefix or
    /// an extension of the message, another signer, or a signer outside
    /// the PKI. Rejections are recomputed each time and never stored.
    /// (A flipped tag bit needs the private tag field; the `sign` unit
    /// tests flip each of its 128 bits.)
    #[test]
    fn memoised_signatures_admit_no_forgery(
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        other in proptest::collection::vec(any::<u8>(), 0..64),
        extra in proptest::collection::vec(any::<u8>(), 1..8),
        ids in (0u32..8, 1u32..8),
        seed in 0u64..1000,
    ) {
        let pki = Pki::new(8, seed);
        let (signer, shift) = ids;
        let sig = pki.signing_key(signer).sign(&msg);
        prop_assert!(pki.verify(&msg, &sig));
        prop_assert!(pki.verify(&msg, &sig), "memo hit");

        let claimed_by = |id: u32| {
            let mut forged = sig;
            forged.signer = id;
            forged
        };
        let extended = [msg.as_slice(), &extra].concat();
        let mut forgeries: Vec<(Vec<u8>, Signature)> = vec![
            (extended, sig),
            (msg[..msg.len() - 1].to_vec(), sig),
            (msg.clone(), claimed_by((signer + shift) % 8)),
            (msg.clone(), claimed_by(8 + shift)),
            (msg.clone(), claimed_by(u32::MAX)),
        ];
        if other != msg {
            forgeries.push((other, sig));
        }
        for (forged_msg, forged_sig) in &forgeries {
            for _ in 0..2 {
                prop_assert!(
                    !pki.verify(forged_msg, forged_sig),
                    "forgery accepted: {:?} over {:?}", forged_sig, forged_msg
                );
            }
        }
        prop_assert!(pki.verify(&msg, &sig), "the genuine signature still verifies");
        let counts = pki.verify_counts();
        prop_assert_eq!(counts.calls, 3 + 2 * forgeries.len() as u64);
        // One MAC for the genuine signature; every in-range forgery is
        // recomputed on each try; out-of-range signers have no key.
        let in_range = forgeries.iter().filter(|(_, s)| s.signer < 8).count() as u64;
        prop_assert_eq!(counts.macs, 1 + 2 * in_range);
    }

    /// The statement path mirrors the memo test above. Once a genuine
    /// signature has verified through a resolved statement, every
    /// variation of it is still rejected, twice each: other bytes (another
    /// message, a prefix, an extension), another signer, a signer outside
    /// the PKI, and the same bytes resolved by a PKI with another seed.
    /// The statement finds its memo slot once and keeps it.
    #[test]
    fn statements_admit_no_forgery(
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        other in proptest::collection::vec(any::<u8>(), 0..64),
        extra in proptest::collection::vec(any::<u8>(), 1..8),
        ids in (0u32..8, 1u32..8),
        seed in 0u64..1000,
    ) {
        let pki = Pki::new(8, seed);
        let (signer, shift) = ids;
        let sig = pki.signing_key(signer).sign(&msg);
        let mut statement = pki.statement(&msg);
        prop_assert!(pki.verify_statement(&mut statement, &sig));
        prop_assert!(pki.verify_statement(&mut statement, &sig), "slot hit");
        prop_assert!(pki.verify(&msg, &sig), "the bytes path finds the same entry");

        let mut other_bytes = vec![
            [msg.as_slice(), &extra].concat(),
            msg[..msg.len() - 1].to_vec(),
        ];
        if other != msg {
            other_bytes.push(other);
        }
        for bytes in &other_bytes {
            let mut forged = pki.statement(bytes);
            for _ in 0..2 {
                prop_assert!(
                    !pki.verify_statement(&mut forged, &sig),
                    "{:?} accepted over {:?}", sig, bytes
                );
            }
        }
        let claimed_by = |id: u32| {
            let mut forged = sig;
            forged.signer = id;
            forged
        };
        let forged_sigs = [claimed_by((signer + shift) % 8), claimed_by(8 + shift), claimed_by(u32::MAX)];
        for forged in &forged_sigs {
            for _ in 0..2 {
                prop_assert!(
                    !pki.verify_statement(&mut statement, forged),
                    "{:?} accepted", forged
                );
            }
        }

        let stranger = Pki::new(8, seed + 1000);
        let mut foreign = stranger.statement(&msg);
        for _ in 0..2 {
            prop_assert!(!stranger.verify_statement(&mut foreign, &sig), "cross-seed statement");
            prop_assert!(!stranger.verify_statement(&mut statement, &sig), "cross-seed slot");
        }
        prop_assert!(pki.verify_statement(&mut statement, &sig), "the genuine signature still verifies");

        // One MAC for the genuine signature, and one per rejection of an
        // in-range signer. Probes by bytes: the first statement check,
        // `verify`, and every check of a statement with no slot yet.
        let counts = pki.verify_counts();
        prop_assert_eq!(counts.calls, 4 + 2 * (other_bytes.len() + forged_sigs.len()) as u64);
        prop_assert_eq!(counts.macs, 1 + 2 * (other_bytes.len() as u64 + 1));
        prop_assert_eq!(counts.lookups, 2 + 2 * other_bytes.len() as u64);
        let counts = stranger.verify_counts();
        prop_assert_eq!((counts.calls, counts.macs, counts.lookups), (4, 4, 4));
    }

    /// The seal path mirrors the statement test above. Once a genuine
    /// signature is sealed, it and its clones are accepted from the seal,
    /// and every variation is still rejected, twice each: the sealed
    /// signature on other bytes that have a memo slot of their own,
    /// another signer, a signer outside the PKI, a PKI with another seed,
    /// and a twin PKI with the same keys, which checks it by its MAC and
    /// never reads the seal.
    #[test]
    fn sealed_signatures_admit_no_forgery(
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        other in proptest::collection::vec(any::<u8>(), 0..64),
        extra in proptest::collection::vec(any::<u8>(), 1..8),
        ids in (0u32..8, 1u32..8),
        seed in 0u64..1000,
    ) {
        let pki = Pki::new(8, seed);
        let (signer, shift) = ids;
        let sig = SealedSig::from(pki.signing_key(signer).sign(&msg));
        let mut statement = pki.statement(&msg);
        prop_assert!(pki.sealed_checks().verify(&mut statement, &sig));
        prop_assert!(pki.sealed_checks().verify(&mut statement, &sig), "seal hit");
        prop_assert!(pki.sealed_checks().verify(&mut statement, &sig.clone()), "a clone keeps the seal");

        let mut other_bytes = vec![
            [msg.as_slice(), &extra].concat(),
            msg[..msg.len() - 1].to_vec(),
        ];
        if other != msg && !other_bytes.contains(&other) {
            other_bytes.push(other);
        }
        let witness = pki.signing_key((signer + shift) % 8);
        for bytes in &other_bytes {
            let mut forged = pki.statement(bytes);
            prop_assert!(pki.verify_statement(&mut forged, &witness.sign(bytes)), "give the bytes a slot");
            for _ in 0..2 {
                prop_assert!(
                    !pki.sealed_checks().verify(&mut forged, &sig),
                    "{:?} accepted over {:?}", sig, bytes
                );
            }
        }
        let claimed_by = |id: u32| {
            let mut forged = *sig;
            forged.signer = id;
            SealedSig::from(forged)
        };
        let forged_sigs = [claimed_by((signer + shift) % 8), claimed_by(8 + shift), claimed_by(u32::MAX)];
        for forged in &forged_sigs {
            for _ in 0..2 {
                prop_assert!(
                    !pki.sealed_checks().verify(&mut statement, forged),
                    "{:?} accepted", forged
                );
            }
        }

        let stranger = Pki::new(8, seed + 1000);
        let mut foreign = stranger.statement(&msg);
        for _ in 0..2 {
            prop_assert!(!stranger.sealed_checks().verify(&mut foreign, &sig), "cross-seed statement");
            prop_assert!(!stranger.sealed_checks().verify(&mut statement, &sig), "cross-seed slot");
        }
        let twin = Pki::new(8, seed);
        let mut twin_statement = twin.statement(&msg);
        for _ in 0..2 {
            prop_assert!(twin.sealed_checks().verify(&mut twin_statement, &sig), "same keys, own memo");
        }
        prop_assert!(pki.sealed_checks().verify(&mut statement, &sig), "the genuine signature still verifies");

        // Seals answer the three repeats of the genuine signature. One MAC
        // for it, one per witness, and one per rejection of an in-range
        // signer. Probes by bytes: the first check on each statement.
        let ob = other_bytes.len() as u64;
        let counts = pki.verify_counts();
        prop_assert_eq!(counts.calls, 4 + 3 * ob + 2 * forged_sigs.len() as u64);
        prop_assert_eq!(counts.macs, 1 + 3 * ob + 2);
        prop_assert_eq!(counts.lookups, 1 + ob);
        prop_assert_eq!(counts.sealed, 3);
        let counts = stranger.verify_counts();
        prop_assert_eq!((counts.calls, counts.macs, counts.lookups, counts.sealed), (4, 4, 4, 0));
        let counts = twin.verify_counts();
        prop_assert_eq!((counts.calls, counts.macs, counts.lookups, counts.sealed), (2, 1, 1, 0));
    }

    /// Sealing at signing. A signature the PKI seals as it signs is the
    /// plain signature, and it verifies on a fresh statement of its bytes,
    /// and through the bytes path, with no MAC. A key from a same-seed
    /// twin PKI, or a statement from another PKI, gets a plain signature
    /// and leaves no memo entry. Every variation of a signature sealed at
    /// signing is still rejected, twice each, with its MAC recomputed:
    /// the signature on other bytes that have a slot of their own, and
    /// another signer. (The `sign` unit tests flip each tag bit.)
    #[test]
    fn signatures_sealed_at_signing_admit_no_forgery(
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        extra in proptest::collection::vec(any::<u8>(), 1..8),
        ids in (0u32..8, 1u32..8),
        seed in 0u64..1000,
    ) {
        let pki = Pki::new(8, seed);
        let (signer, shift) = ids;
        let key = pki.signing_key(signer);
        let mut signed_on = pki.statement(&msg);
        let sig = pki.sign_statement(&key, &mut signed_on);
        prop_assert_eq!(*sig, key.sign(&msg));
        let mut fresh = pki.statement(&msg);
        let mut checks = pki.sealed_checks();
        prop_assert!(checks.verify(&mut fresh, &sig), "memo hit");
        prop_assert!(checks.verify(&mut fresh, &sig), "seal hit");
        prop_assert!(checks.verify(&mut signed_on, &sig), "seal hit on the signed statement");
        prop_assert!(pki.verify(&msg, &sig), "bytes path");
        drop(checks);
        let counts = pki.verify_counts();
        prop_assert_eq!((counts.calls, counts.macs, counts.lookups, counts.sealed), (4, 0, 3, 2));

        let twin = Pki::new(8, seed);
        let mut twin_statement = pki.statement([msg.as_slice(), &extra].concat());
        let plain = pki.sign_statement(&twin.signing_key(signer), &mut twin_statement);
        let other = Pki::new(8, seed);
        let mut foreign = other.statement([msg.as_slice(), &extra, &extra].concat());
        let foreign_sig = pki.sign_statement(&key, &mut foreign);
        prop_assert_eq!(pki.verify_counts(), counts, "neither touched the memo");
        prop_assert_eq!(other.verify_counts(), VerifyCounts::default());
        let mut checks = pki.sealed_checks();
        prop_assert!(checks.verify(&mut twin_statement, &plain), "a valid, unsealed signature");
        drop(checks);
        prop_assert!(other.sealed_checks().verify(&mut foreign, &foreign_sig));
        prop_assert_eq!(pki.verify_counts().macs, 1, "the twin key's signature pays its MAC");
        prop_assert_eq!(other.verify_counts().macs, 1, "so does the foreign statement's");

        let mut forged_sigs = vec![(twin_statement, sig.clone())];
        let mut claimed = *sig;
        claimed.signer = (signer + shift) % 8;
        forged_sigs.push((pki.statement(&msg), SealedSig::from(claimed)));
        let before = pki.verify_counts();
        for (statement, forged) in &mut forged_sigs {
            for _ in 0..2 {
                prop_assert!(
                    !pki.sealed_checks().verify(statement, forged),
                    "{:?} accepted", forged
                );
            }
        }
        let after = pki.verify_counts();
        prop_assert_eq!(after.macs - before.macs, 4, "every rejection is recomputed");
        prop_assert_eq!(after.sealed, before.sealed, "no seal answers a forgery");
    }

    /// `nested` and `seq` encode in place exactly what the two-step
    /// encoding wrote: each item encoded on its own under the `nested`
    /// domain, then appended as a length-prefixed byte string. Items
    /// that nest sequences themselves (`Link`) check the length
    /// back-fill at two depths.
    #[test]
    fn nested_and_seq_match_the_two_step_encoding(
        words in proptest::collection::vec(any::<u32>(), 0..6),
        longs in proptest::collection::vec(any::<u64>(), 0..6),
        strings in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..5),
        signed in proptest::collection::vec((0u32..4, proptest::collection::vec(any::<u8>(), 0..16)), 0..6),
        seed in 0u64..1000,
    ) {
        let pki = Pki::new(4, seed);
        let sigs: Vec<Signature> = signed
            .iter()
            .map(|(id, msg)| pki.signing_key(*id).sign(msg))
            .collect();
        let links: Vec<Link> = (0..=sigs.len())
            .map(|k| Link { value: k as u64, sigs: sigs[..k].to_vec() })
            .collect();

        prop_assert_eq!(in_place(&words), two_step(&words, |w| plain(|e| { e.u32(*w); })));
        prop_assert_eq!(in_place(&longs), two_step(&longs, |l| plain(|e| { e.u64(*l); })));
        prop_assert_eq!(in_place(&strings), two_step(&strings, |b| plain(|e| { e.bytes(b); })));
        prop_assert_eq!(in_place(&sigs), two_step(&sigs, two_step_signature));
        prop_assert_eq!(in_place(&links), two_step(&links, two_step_link));
        for link in &links {
            let mut e = Encoder::new("one");
            e.nested(link);
            let mut reference = Encoder::new("one");
            reference.bytes(&two_step_link(link));
            prop_assert_eq!(e.finish(), reference.finish());
        }
    }

    /// Distinct (signer, message) pairs never cross-verify.
    #[test]
    fn signatures_bind_signer_and_message(
        msg_a in proptest::collection::vec(any::<u8>(), 1..64),
        msg_b in proptest::collection::vec(any::<u8>(), 1..64),
        ids in (0u32..8, 0u32..8),
        seed in 0u64..1000,
    ) {
        let pki = Pki::new(8, seed);
        let (ia, ib) = ids;
        let sig = pki.signing_key(ia).sign(&msg_a);
        prop_assert!(pki.verify(&msg_a, &sig));
        if msg_a != msg_b {
            prop_assert!(!pki.verify(&msg_b, &sig), "message substitution accepted");
        }
        if ia != ib {
            let other = pki.signing_key(ib).sign(&msg_a);
            prop_assert_ne!(sig, other, "two signers produced the same tag");
        }
    }

    /// Length-prefixed encodings are injective over (bytes, bytes) pairs:
    /// no two distinct pairs share a canonical encoding — the property
    /// that makes signatures over encoded compounds unambiguous.
    #[test]
    fn encoder_pairs_are_injective(
        a1 in proptest::collection::vec(any::<u8>(), 0..24),
        a2 in proptest::collection::vec(any::<u8>(), 0..24),
        b1 in proptest::collection::vec(any::<u8>(), 0..24),
        b2 in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let enc = |x: &[u8], y: &[u8]| {
            let mut e = Encoder::new("pair");
            e.bytes(x).bytes(y);
            e.finish()
        };
        if (a1.clone(), a2.clone()) != (b1.clone(), b2.clone()) {
            prop_assert_ne!(enc(&a1, &a2), enc(&b1, &b2));
        } else {
            prop_assert_eq!(enc(&a1, &a2), enc(&b1, &b2));
        }
    }

    /// Cross-seed PKIs never validate each other's signatures (fresh
    /// executions cannot replay old-execution credentials).
    #[test]
    fn cross_execution_signatures_invalid(
        msg in proptest::collection::vec(any::<u8>(), 1..32),
        seed_a in 0u64..500,
        seed_b in 501u64..1000,
    ) {
        let pki_a = Pki::new(4, seed_a);
        let pki_b = Pki::new(4, seed_b);
        let sig = pki_a.signing_key(2).sign(&msg);
        prop_assert!(!pki_b.verify(&msg, &sig));
    }
}

/// An item that nests a sequence, as a message-chain link does.
#[derive(Debug)]
struct Link {
    value: u64,
    sigs: Vec<Signature>,
}

impl Encodable for Link {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.value).seq(&self.sigs);
    }
}

/// `items` as a sequence between two other fields, encoded by `seq`.
fn in_place<E: Encodable>(items: &[E]) -> Vec<u8> {
    let mut e = Encoder::new("seq");
    e.u32(7).seq(items).u8(9);
    e.finish()
}

/// What `in_place` wrote before nesting was done in place, spelled out
/// without `nested` or `seq`.
fn two_step<E>(items: &[E], encode_alone: impl Fn(&E) -> Vec<u8>) -> Vec<u8> {
    let mut e = Encoder::new("seq");
    e.u32(7);
    [e.finish(), two_step_seq(items, encode_alone), vec![9]].concat()
}

/// A sequence field the two-step way: the item count, then each item's
/// standalone encoding (from `encode_alone`) behind its length, all
/// big-endian `u64`s.
fn two_step_seq<E>(items: &[E], encode_alone: impl Fn(&E) -> Vec<u8>) -> Vec<u8> {
    let mut seq = (items.len() as u64).to_be_bytes().to_vec();
    for item in items {
        let alone = encode_alone(item);
        seq.extend((alone.len() as u64).to_be_bytes());
        seq.extend(alone);
    }
    seq
}

/// A standalone encoding under the `nested` domain.
fn plain(write: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut e = Encoder::new("nested");
    write(&mut e);
    e.finish()
}

/// A signature's standalone encoding.
fn two_step_signature(sig: &Signature) -> Vec<u8> {
    plain(|e| sig.encode(e))
}

/// A link's standalone encoding, its signatures nested the two-step way.
fn two_step_link(link: &Link) -> Vec<u8> {
    let head = plain(|e| {
        e.u64(link.value);
    });
    [head, two_step_seq(&link.sigs, two_step_signature)].concat()
}

/// HMAC-SHA256 as RFC 2104 writes it, from the streaming hasher alone:
/// `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`, with `K` zero-padded (or first
/// hashed, when longer than a block) to 64 bytes.
fn textbook_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&k.map(|b| b ^ 0x36));
    inner.update(msg);
    let mut outer = Sha256::new();
    outer.update(&k.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}
