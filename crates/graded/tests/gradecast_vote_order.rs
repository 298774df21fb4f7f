//! Vote arrival order does not change the certificates a gradecast
//! instance forms.
//!
//! Inboxes are delivered in sender order, and the instance appends a
//! vote from a signer above the last one without searching. Echoes and
//! confirms that arrive in reverse or shuffled order take the binary
//! search path instead; these tests drive both paths by hand and check
//! that they form the same `EchoCert` and `CommitCert`.

use ba_crypto::{Pki, Signature};
use ba_graded::gradecast::{
    confirm_bytes, echo_bytes, value_bytes, CommitCert, EchoCert, GcastConfig, GcastInstance,
    GcastItem, Items,
};
use ba_sim::Value;
use std::rc::Rc;

const SESSION: u64 = 23;
const V: Value = Value(9);

/// n = 7, t = 3: quorum 4, instance 2.
fn cfg() -> GcastConfig {
    GcastConfig {
        n: 7,
        t: 3,
        session: SESSION,
        inst: 2,
    }
}

fn sign(pki: &Pki, signer: u32, bytes: &[u8]) -> Signature {
    pki.signing_key(signer).sign(bytes)
}

/// The items one `make_*` call pushes, without their instance tags.
fn made(make: impl FnOnce(&mut Items)) -> Vec<GcastItem> {
    let mut items = Vec::new();
    make(&mut items);
    items.into_iter().map(|(_, item)| item).collect()
}

/// Runs one instance through rounds 1–5 with echoes and confirms from
/// `voters`, delivered in that order, and returns the echo certificate
/// it forms in round 3 and the commit certificate it forms in round 5.
fn certificates(voters: &[u32]) -> (EchoCert, CommitCert) {
    let pki = Pki::new(7, 0x5eed);
    let c = cfg();
    let mut inst = GcastInstance::new(c);
    let sender_sig = sign(&pki, c.inst, &value_bytes(SESSION, c.inst, V));
    inst.recv_input(&pki, V, &sender_sig);
    for &s in voters {
        let echo = sign(&pki, s, &echo_bytes(SESSION, c.inst, V)).into();
        inst.recv_echo(&mut pki.sealed_checks(), V, &sender_sig, &echo);
    }
    let echo_cert = match made(|items| inst.make_certs(items)).as_slice() {
        [GcastItem::Cert(cert)] => Rc::clone(cert),
        other => panic!("one echo certificate expected, got {other:?}"),
    };
    let confirm = made(|items| inst.make_confirm(&pki, &pki.signing_key(0), items));
    assert!(matches!(confirm.as_slice(), [GcastItem::Confirm { .. }]));
    for &s in voters {
        let sig = sign(&pki, s, &confirm_bytes(SESSION, c.inst, V)).into();
        inst.recv_confirm(&mut pki.sealed_checks(), V, &sig, &echo_cert);
    }
    let commit = made(|items| inst.make_spread(items))
        .into_iter()
        .find_map(|item| match item {
            GcastItem::Commit(cc) => Some(cc),
            _ => None,
        })
        .expect("a commit certificate forms from a confirm quorum");
    assert!(echo_cert.verify(&c, &pki) && commit.verify(&c, &pki));
    (Rc::unwrap_or_clone(echo_cert), commit)
}

fn signers(sigs: &[Signature]) -> Vec<u32> {
    sigs.iter().map(|s| s.signer).collect()
}

#[test]
fn reverse_and_shuffled_votes_form_the_sender_order_certificates() {
    let in_order = certificates(&[1, 3, 4, 6]);
    assert_eq!(signers(&in_order.0.echo_sigs), vec![1, 3, 4, 6]);
    assert_eq!(signers(&in_order.1.confirm_sigs), vec![1, 3, 4, 6]);
    for voters in [
        [6, 4, 3, 1],
        [4, 1, 6, 3],
        [3, 6, 1, 4],
        [1, 6, 3, 4],
        [6, 1, 4, 3],
    ] {
        assert_eq!(
            certificates(&voters),
            in_order,
            "voters in order {voters:?}"
        );
    }
}

#[test]
fn repeated_out_of_order_signers_count_once() {
    // Repeats of the last signer and of earlier ones are dropped; the
    // quorum fills with the four distinct signers.
    let in_order = certificates(&[1, 3, 4, 6]);
    assert_eq!(certificates(&[4, 4, 1, 4, 6, 1, 6, 3]), in_order);
}

#[test]
fn a_full_list_keeps_its_first_quorum_in_signer_order() {
    // Five voters arrive in reverse: the first four to verify fill the
    // quorum and the fifth (p0) is skipped, and each certificate lists
    // its four signers in signer order.
    let (echo, commit) = certificates(&[6, 5, 3, 1, 0]);
    assert_eq!(signers(&echo.echo_sigs), vec![1, 3, 5, 6]);
    assert_eq!(signers(&commit.confirm_sigs), vec![1, 3, 5, 6]);
}
