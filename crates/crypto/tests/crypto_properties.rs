//! Property-based tests of the cryptographic substrate: streaming/one-shot
//! equivalence for SHA-256, precomputed HMAC keys against the textbook
//! construction, signature binding under random inputs (also once the
//! verification memo holds the genuine signature), and encoder
//! injectivity on structured inputs.

use ba_crypto::{hmac_sha256, sha256, Encoder, HmacKey, Pki, Sha256, Signature};
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
