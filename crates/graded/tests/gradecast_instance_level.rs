//! Instance-level tests of the certified gradecast state machine,
//! driving each of the five rounds by hand so the per-round rules
//! (echo uniqueness, certificate caps, the confirm snapshot, grade
//! conditions) are pinned in isolation from the batched scheduler.

use ba_crypto::{Pki, Signature};
use ba_graded::gradecast::{
    confirm_bytes, echo_bytes, value_bytes, CommitCert, EchoCert, GcastConfig, GcastInstance,
    GcastItem, GcastOutput, Items,
};
use ba_sim::Value;
use std::rc::Rc;

fn cfg() -> GcastConfig {
    GcastConfig {
        n: 5,
        t: 2,
        session: 11,
        inst: 0,
    }
}

fn pki() -> Pki {
    Pki::new(5, 77)
}

fn sender_sig(pki: &Pki, v: Value) -> Signature {
    pki.signing_key(0).sign(&value_bytes(11, 0, v))
}

fn echo_sig(pki: &Pki, signer: u32, v: Value) -> Signature {
    pki.signing_key(signer).sign(&echo_bytes(11, 0, v))
}

fn confirm_sig(pki: &Pki, signer: u32, v: Value) -> Signature {
    pki.signing_key(signer).sign(&confirm_bytes(11, 0, v))
}

/// The items one `make_*` call pushes, without their instance tags.
fn made(make: impl FnOnce(&mut Items)) -> Vec<GcastItem> {
    let mut items = Vec::new();
    make(&mut items);
    items.into_iter().map(|(_, item)| item).collect()
}

fn cert(pki: &Pki, v: Value, echoers: &[u32]) -> Rc<EchoCert> {
    Rc::new(EchoCert {
        value: v,
        sender_sig: sender_sig(pki, v),
        echo_sigs: echoers.iter().map(|&s| echo_sig(pki, s, v)).collect(),
    })
}

/// Runs a fully honest instance end to end by hand: every round's rule
/// fires, and the final output is grade 2.
#[test]
fn honest_happy_path_reaches_grade_2() {
    let pki = pki();
    let c = cfg();
    let mut inst = GcastInstance::new(c);
    let v = Value(6);

    // R1: sender input.
    inst.recv_input(&pki, v, &sender_sig(&pki, v));
    assert!(!made(|items| inst.make_echo(&pki, &pki.signing_key(1), items)).is_empty());

    // R2: quorum (n − t = 3) of echoes.
    let ssig = sender_sig(&pki, v);
    for s in [0u32, 1, 2] {
        inst.recv_echo(
            &mut pki.sealed_checks(),
            v,
            &ssig,
            &echo_sig(&pki, s, v).into(),
        );
    }
    let certs = made(|items| inst.make_certs(items));
    assert_eq!(certs.len(), 1);

    // R3 → R4: unique certificate ⇒ confirm.
    let confirm = made(|items| inst.make_confirm(&pki, &pki.signing_key(1), items));
    assert!(matches!(confirm.as_slice(), [GcastItem::Confirm { value, .. }] if *value == v));

    // R4: quorum of direct confirms.
    let own_cert = cert(&pki, v, &[0, 1, 2]);
    for s in [0u32, 1, 2] {
        inst.recv_confirm(
            &mut pki.sealed_checks(),
            v,
            &confirm_sig(&pki, s, v).into(),
            &own_cert,
        );
    }
    let spread = made(|items| inst.make_spread(items));
    assert!(
        spread.iter().any(|i| matches!(i, GcastItem::Commit(_))),
        "commit certificate must form from a direct confirm quorum"
    );

    assert_eq!(
        inst.finish(),
        GcastOutput {
            value: Some(v),
            grade: 2
        }
    );
}

/// A second certificate value arriving before the confirm decision
/// suppresses the confirmation (the round-4 conflict-report path).
#[test]
fn conflicting_certs_suppress_confirmation_and_grade() {
    let pki = pki();
    let mut inst = GcastInstance::new(cfg());
    inst.recv_cert(&pki, &cert(&pki, Value(1), &[0, 1, 2]));
    inst.recv_cert(&pki, &cert(&pki, Value(2), &[0, 3, 4]));
    let items = made(|items| inst.make_confirm(&pki, &pki.signing_key(1), items));
    assert_eq!(items.len(), 2, "conflict report carries both certs");
    assert!(items.iter().all(|i| matches!(i, GcastItem::Cert(_))));
    let _ = made(|items| inst.make_spread(items));
    assert_eq!(inst.finish().grade, 0);
}

/// Commit certificates received in round 5 give grade 1 only when the
/// end-of-round-4 certificate view was pure.
#[test]
fn grade_1_requires_pure_round_4_view() {
    let pki = pki();
    let v = Value(9);

    // Pure view: cert(v) only at confirm and spread time ⇒ grade 1 on a
    // received commit certificate.
    let mut pure = GcastInstance::new(cfg());
    pure.recv_cert(&pki, &cert(&pki, v, &[0, 1, 2]));
    let _ = made(|items| pure.make_confirm(&pki, &pki.signing_key(1), items));
    let _ = made(|items| pure.make_spread(items));
    let cc = CommitCert {
        value: v,
        confirm_sigs: [0u32, 1, 2]
            .iter()
            .map(|&s| confirm_sig(&pki, s, v))
            .collect(),
    };
    pure.recv_commit(&pki, &cc);
    assert_eq!(
        pure.finish(),
        GcastOutput {
            value: Some(v),
            grade: 1
        }
    );

    // Impure view: a second certificate value known by the end of round
    // 4 forces grade 0 even with the same commit certificate.
    let mut impure = GcastInstance::new(cfg());
    impure.recv_cert(&pki, &cert(&pki, v, &[0, 1, 2]));
    impure.recv_cert(&pki, &cert(&pki, Value(8), &[0, 3, 4]));
    let _ = made(|items| impure.make_confirm(&pki, &pki.signing_key(1), items));
    let _ = made(|items| impure.make_spread(items));
    impure.recv_commit(&pki, &cc);
    assert_eq!(impure.finish().grade, 0);
}

/// Confirm signatures for a value with no known certificate are noise.
#[test]
fn confirms_without_certificates_do_not_count() {
    let pki = pki();
    let mut inst = GcastInstance::new(cfg());
    let v = Value(3);
    let junk_cert = Rc::new(EchoCert {
        value: Value(4), // mismatched: attached cert is for another value
        sender_sig: sender_sig(&pki, Value(4)),
        echo_sigs: vec![echo_sig(&pki, 0, Value(4))],
    });
    for s in [0u32, 1, 2] {
        inst.recv_confirm(
            &mut pki.sealed_checks(),
            v,
            &confirm_sig(&pki, s, v).into(),
            &junk_cert,
        );
    }
    let _ = made(|items| inst.make_confirm(&pki, &pki.signing_key(1), items));
    let spread = made(|items| inst.make_spread(items));
    assert!(
        !spread.iter().any(|i| matches!(i, GcastItem::Commit(_))),
        "no certificate, no commit"
    );
    assert_eq!(inst.finish().grade, 0);
}

/// Duplicate echo signers never inflate a quorum.
#[test]
fn duplicate_echoers_do_not_reach_quorum() {
    let pki = pki();
    let mut inst = GcastInstance::new(cfg());
    let v = Value(5);
    let ssig = sender_sig(&pki, v);
    inst.recv_input(&pki, v, &ssig);
    for _ in 0..5 {
        inst.recv_echo(
            &mut pki.sealed_checks(),
            v,
            &ssig,
            &echo_sig(&pki, 1, v).into(),
        );
    }
    assert!(
        made(|items| inst.make_certs(items)).is_empty(),
        "one signer echoed five times"
    );
}

/// A commit certificate below the confirm quorum is rejected.
#[test]
fn short_commit_certificates_rejected() {
    let pki = pki();
    let mut inst = GcastInstance::new(cfg());
    inst.recv_cert(&pki, &cert(&pki, Value(2), &[0, 1, 2]));
    let _ = made(|items| inst.make_confirm(&pki, &pki.signing_key(1), items));
    let _ = made(|items| inst.make_spread(items));
    let short = CommitCert {
        value: Value(2),
        confirm_sigs: vec![
            confirm_sig(&pki, 0, Value(2)),
            confirm_sig(&pki, 1, Value(2)),
        ],
    };
    inst.recv_commit(&pki, &short);
    assert_eq!(inst.finish().grade, 0, "2 < n − t = 3 confirm signatures");
}
