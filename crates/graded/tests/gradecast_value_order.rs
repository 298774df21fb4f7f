//! Value order of a gradecast instance that tracks two values: whatever
//! order values arrive in, the instance emits them in ascending order,
//! and it refuses a third.

use ba_crypto::{Pki, Signature};
use ba_graded::gradecast::{
    confirm_bytes, echo_bytes, value_bytes, CommitCert, EchoCert, GcastConfig, GcastInstance,
    GcastItem, Items,
};
use ba_sim::Value;
use std::rc::Rc;

const SESSION: u64 = 3;

fn cfg() -> GcastConfig {
    GcastConfig {
        n: 5,
        t: 2,
        session: SESSION,
        inst: 0,
    }
}

fn sender_sig(pki: &Pki, v: Value) -> Signature {
    pki.signing_key(0).sign(&value_bytes(SESSION, 0, v))
}

fn echo_sig(pki: &Pki, signer: u32, v: Value) -> Signature {
    pki.signing_key(signer).sign(&echo_bytes(SESSION, 0, v))
}

fn confirm_sig(pki: &Pki, signer: u32, v: Value) -> Signature {
    pki.signing_key(signer).sign(&confirm_bytes(SESSION, 0, v))
}

/// The items one `make_*` call pushes, without their instance tags.
fn made(make: impl FnOnce(&mut Items)) -> Vec<GcastItem> {
    let mut items = Vec::new();
    make(&mut items);
    items.into_iter().map(|(_, item)| item).collect()
}

fn cert(pki: &Pki, v: Value) -> Rc<EchoCert> {
    Rc::new(EchoCert {
        value: v,
        sender_sig: sender_sig(pki, v),
        echo_sigs: [0, 1, 2].iter().map(|&s| echo_sig(pki, s, v)).collect(),
    })
}

/// The value each item carries, in emitted order, with `C` for a
/// certificate and `K` for a commit certificate.
fn shape(items: &[GcastItem]) -> Vec<(char, u64)> {
    items
        .iter()
        .map(|item| match item {
            GcastItem::Cert(cert) => ('C', cert.value.0),
            GcastItem::Commit(cc) => ('K', cc.value.0),
            other => panic!("unexpected item {other:?}"),
        })
        .collect()
}

#[test]
fn two_values_arriving_in_descending_order_are_emitted_ascending() {
    let pki = Pki::new(5, 21);
    let (high, low, third) = (Value(9), Value(4), Value(6));
    let mut inst = GcastInstance::new(cfg());

    // Round 1 and 2: the sender equivocates, larger value first, and a
    // quorum echoes each value, larger value first. A third value gets
    // as far as its echoes, and no further.
    for v in [high, low, third] {
        inst.recv_input(&pki, v, &sender_sig(&pki, v));
    }
    assert!(
        made(|items| inst.make_echo(&pki, &pki.signing_key(1), items)).is_empty(),
        "equivocation"
    );
    for v in [high, low, third] {
        for s in [0, 1, 2] {
            inst.recv_echo(
                &mut pki.sealed_checks(),
                v,
                &sender_sig(&pki, v),
                &echo_sig(&pki, s, v).into(),
            );
        }
    }
    let certs = made(|items| inst.make_certs(items));
    assert_eq!(shape(&certs), [('C', 4), ('C', 9)]);
    for item in &certs {
        let GcastItem::Cert(cert) = item else {
            unreachable!()
        };
        assert!(cert.verify(&cfg(), &pki));
    }

    // Round 3: a valid certificate for the third value is refused.
    inst.recv_cert(&pki, &cert(&pki, third));
    let report = made(|items| inst.make_confirm(&pki, &pki.signing_key(1), items));
    assert_eq!(shape(&report), [('C', 4), ('C', 9)], "conflict report");

    // Round 4: confirm quorums arrive larger value first; confirms for
    // the refused value are noise. The commit certificate is formed for
    // the smaller value, then both certificates follow in order.
    for v in [high, low, third] {
        for s in [0, 1, 2] {
            inst.recv_confirm(
                &mut pki.sealed_checks(),
                v,
                &confirm_sig(&pki, s, v).into(),
                &cert(&pki, v),
            );
        }
    }
    let spread = made(|items| inst.make_spread(items));
    assert_eq!(shape(&spread), [('K', 4), ('C', 4), ('C', 9)]);

    // Round 5: a commit certificate for the other value is accepted, and
    // the two conflicting certificates leave grade 0.
    let cc = CommitCert {
        value: high,
        confirm_sigs: [0, 1, 2]
            .iter()
            .map(|&s| confirm_sig(&pki, s, high))
            .collect(),
    };
    inst.recv_commit(&pki, &cc);
    assert_eq!(inst.finish().grade, 0);
}

#[test]
fn received_certificates_are_kept_in_ascending_order_and_capped_at_two() {
    let pki = Pki::new(5, 22);
    let mut inst = GcastInstance::new(cfg());
    for v in [8, 5, 2, 9] {
        inst.recv_cert(&pki, &cert(&pki, Value(v)));
    }
    assert!(
        made(|items| inst.make_certs(items)).is_empty(),
        "no echoes were received"
    );
    assert_eq!(
        shape(&made(|items| inst.make_confirm(
            &pki,
            &pki.signing_key(1),
            items
        ))),
        [('C', 5), ('C', 8)]
    );
    assert_eq!(
        shape(&made(|items| inst.make_spread(items))),
        [('C', 5), ('C', 8)]
    );
}
