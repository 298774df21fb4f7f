//! Property-based verification of Theorem 6 (Algorithm 7) and fuzzing of
//! the certificate/chain validation surfaces.

use ba_auth::chains::{chain_link_bytes, committee_bytes, CommitteeCert, MessageChain};
use ba_auth::AuthBaWithClassification;
use ba_crypto::Pki;
use ba_sim::{AdversaryCtx, FnAdversary, ProcessId, Runner, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Theorem 6 with silent fault patterns at any placement and split
    /// or unanimous inputs: agreement, strong unanimity, exactly k+3
    /// rounds.
    #[test]
    fn theorem6_agreement_and_rounds(
        seed in 0u64..5_000,
        fault_slots in proptest::collection::btree_set(0u32..12, 0..=2),
        unanimous in proptest::bool::ANY,
    ) {
        let (n, t, k) = (12usize, 4usize, 2usize);
        prop_assert!(AuthBaWithClassification::condition_holds(n, t, k));
        let pki = Arc::new(Pki::new(n, seed));
        let order: Arc<Vec<ProcessId>> = Arc::new(ProcessId::all(n).collect());
        let honest: BTreeMap<ProcessId, AuthBaWithClassification> = ProcessId::all(n)
            .filter(|p| !fault_slots.contains(&p.0))
            .enumerate()
            .map(|(slot, id)| {
                let v = if unanimous { Value(8) } else { Value(1 + (slot % 2) as u64) };
                (
                    id,
                    AuthBaWithClassification::new(
                        id, n, t, k, seed, v, Arc::clone(&order),
                        Arc::clone(&pki), pki.signing_key(id.0),
                    ),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, ba_sim::SilentAdversary);
        let report = runner.run(AuthBaWithClassification::rounds(k) + 2);
        prop_assert!(report.agreement(), "agreement violated");
        prop_assert_eq!(report.last_decision_round, Some(AuthBaWithClassification::rounds(k)));
        if unanimous {
            prop_assert_eq!(report.decision(), Some(&Value(8)), "strong unanimity violated");
        }
    }

    /// Forged plurality reports, forged votes, and mis-attributed
    /// certificates never break agreement among honest processes.
    #[test]
    fn alg7_resists_forged_credentials(
        seed in 0u64..5_000,
        junk_value in 0u64..1000,
    ) {
        let (n, t, k) = (12usize, 4usize, 2usize);
        let session = seed;
        let pki = Arc::new(Pki::new(n, seed));
        let order: Arc<Vec<ProcessId>> = Arc::new(ProcessId::all(n).collect());
        let bad = ProcessId(11);
        let key = pki.signing_key(bad.0);
        let pki_adv = Arc::clone(&pki);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ba_auth::Alg7Msg>| {
            let _ = &pki_adv;
            // Self-signed "certificate" (1 signature instead of t+1).
            let fake = CommitteeCert {
                member: bad.0,
                sigs: vec![key.sign(&committee_bytes(session, bad.0))],
            };
            if ctx.round == (k as u64) + 2 {
                ctx.broadcast(
                    bad,
                    ba_auth::Alg7Msg::Plurality { value: Value(junk_value), cert: fake.clone() },
                );
            }
            if ctx.round == 1 {
                // Chain with a certificate stolen from another member id.
                let stolen = CommitteeCert { member: 0, sigs: fake.sigs.clone() };
                let chain = MessageChain::start(session, bad.0, Value(junk_value), &key, Some(stolen));
                ctx.broadcast(bad, ba_auth::Alg7Msg::Chains(Rc::new(vec![(bad.0, chain)])));
            }
        });
        let honest: BTreeMap<ProcessId, AuthBaWithClassification> = ProcessId::all(n)
            .filter(|p| *p != bad)
            .map(|id| {
                (
                    id,
                    AuthBaWithClassification::new(
                        id, n, t, k, session, Value(5), Arc::clone(&order),
                        Arc::clone(&pki), pki.signing_key(id.0),
                    ),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(AuthBaWithClassification::rounds(k) + 2);
        prop_assert!(report.agreement());
        prop_assert_eq!(report.decision(), Some(&Value(5)), "unanimity must survive forgeries");
    }

    /// Chain-validation fuzz: random mutations of a valid chain
    /// (value, signer order, link excision, cert swaps) never verify.
    #[test]
    fn mutated_chains_never_verify(
        seed in 0u64..10_000,
        mutation in 0u8..5,
    ) {
        let n = 8usize;
        let t = 2usize;
        let session = seed;
        let pki = Pki::new(n, seed);
        let cert_for = |member: u32| {
            let sigs = (0..(t + 1) as u32)
                .map(|s| pki.signing_key(s).sign(&committee_bytes(session, member)))
                .collect();
            CommitteeCert { member, sigs }
        };
        let chain = MessageChain::start(session, 1, Value(4), &pki.signing_key(1), Some(cert_for(1)))
            .extend(session, 1, &pki.signing_key(2), Some(cert_for(2)))
            .extend(session, 1, &pki.signing_key(3), Some(cert_for(3)));
        prop_assert!(chain.verify(session, 1, t, true, &pki));

        let mut bad = chain.clone();
        match mutation {
            0 => bad.value = Value(5),
            1 => { bad.links.remove(1); }
            2 => bad.links.swap(1, 2),
            3 => {
                // Re-point the middle link's certificate at someone else.
                if let Some(cert) = &mut bad.links[1].cert { cert.member = 7; }
            }
            _ => {
                // Forge the final signature from a wrong prefix.
                let prior: Vec<_> = bad.links[..1].iter().map(|l| l.sig).collect();
                bad.links[2].sig = pki
                    .signing_key(3)
                    .sign(&chain_link_bytes(session, 1, bad.value, &prior));
            }
        }
        prop_assert!(!bad.verify(session, 1, t, true, &pki), "mutation {mutation} slipped through");
    }
}
