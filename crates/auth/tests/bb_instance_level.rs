//! Instance-level tests of the Algorithm 6 state machine: round-exact
//! chain acceptance, the |X| < 2 gate, extension discipline, and the
//! committee-credential gates — driven directly, without the batched
//! scheduler, so each rule is pinned in isolation.

use ba_auth::bb_committee::{BbConfig, BbInstance, CommitteeMode};
use ba_auth::chains::{committee_bytes, CommitteeCert, MessageChain};
use ba_crypto::{Pki, Signature};
use ba_sim::Value;

fn cfg(mode: CommitteeMode) -> BbConfig {
    BbConfig {
        n: 6,
        t: 2,
        k: 2,
        session: 5,
        inst: 0,
        mode,
    }
}

fn pki() -> Pki {
    Pki::new(6, 31)
}

fn cert_for(pki: &Pki, member: u32) -> CommitteeCert {
    let sigs: Vec<Signature> = (0..3u32)
        .map(|s| pki.signing_key(s).sign(&committee_bytes(5, member)))
        .collect();
    CommitteeCert { member, sigs }
}

#[test]
fn sender_without_cert_cannot_start_in_certified_mode() {
    let pki = pki();
    let mut inst = BbInstance::new(cfg(CommitteeMode::Certified));
    assert!(inst
        .make_start(&pki.signing_key(0), None, Value(1))
        .is_none());
    // Universal mode: starting without a certificate is the point.
    let mut uni = BbInstance::new(cfg(CommitteeMode::Universal));
    assert!(uni
        .make_start(&pki.signing_key(0), None, Value(1))
        .is_some());
}

#[test]
fn chain_length_must_match_the_round() {
    let pki = pki();
    let mut inst = BbInstance::new(cfg(CommitteeMode::Universal));
    let chain = MessageChain::start(5, 0, Value(7), &pki.signing_key(0), None);
    // A length-1 chain in round 2 is stale and must be ignored.
    inst.recv_chain(&pki, 2, &chain, &pki.signing_key(1), None);
    assert_eq!(inst.finish(), None);
    // In round 1 it is accepted.
    inst.recv_chain(&pki, 1, &chain, &pki.signing_key(1), None);
    assert_eq!(inst.finish(), Some(Value(7)));
}

#[test]
fn third_value_is_never_recorded() {
    let pki = pki();
    let mut inst = BbInstance::new(cfg(CommitteeMode::Universal));
    let k0 = pki.signing_key(0);
    for v in [1u64, 2, 3] {
        let chain = MessageChain::start(5, 0, Value(v), &k0, None);
        inst.recv_chain(&pki, 1, &chain, &pki.signing_key(1), None);
    }
    // |X| = 2 → ⊥; the third chain must not have been buffered either.
    assert_eq!(inst.finish(), None);
    let exts = inst.take_extensions();
    assert_eq!(exts.len(), 2, "only the first two values are extended");
}

#[test]
fn extensions_extend_by_exactly_one_link() {
    let pki = pki();
    let mut inst = BbInstance::new(cfg(CommitteeMode::Universal));
    let chain = MessageChain::start(5, 0, Value(4), &pki.signing_key(0), None);
    inst.recv_chain(&pki, 1, &chain, &pki.signing_key(2), None);
    let exts = inst.take_extensions();
    assert_eq!(exts.len(), 1);
    assert_eq!(exts[0].len(), 2);
    assert!(exts[0].verify(5, 0, 2, false, &pki));
    // Extensions are consumed: a second call yields nothing.
    assert!(inst.take_extensions().is_empty());
}

#[test]
fn certified_mode_extension_requires_certificate() {
    let pki = pki();
    let mut inst = BbInstance::new(cfg(CommitteeMode::Certified));
    let chain = MessageChain::start(5, 0, Value(4), &pki.signing_key(0), Some(cert_for(&pki, 0)));
    inst.recv_chain(&pki, 1, &chain, &pki.signing_key(2), None);
    assert!(
        inst.take_extensions().is_empty(),
        "no certificate, no extension (Algorithm 6 line 10)"
    );
    let mut inst2 = BbInstance::new(cfg(CommitteeMode::Certified));
    let cert = cert_for(&pki, 2);
    inst2.recv_chain(&pki, 1, &chain, &pki.signing_key(2), Some(&cert));
    let exts = inst2.take_extensions();
    assert_eq!(exts.len(), 1);
    assert!(exts[0].verify(5, 0, 2, true, &pki));
}

#[test]
fn duplicate_value_chains_are_idempotent() {
    let pki = pki();
    let mut inst = BbInstance::new(cfg(CommitteeMode::Universal));
    let chain = MessageChain::start(5, 0, Value(9), &pki.signing_key(0), None);
    inst.recv_chain(&pki, 1, &chain, &pki.signing_key(1), None);
    inst.recv_chain(&pki, 1, &chain, &pki.signing_key(1), None);
    assert_eq!(inst.finish(), Some(Value(9)));
    // Only one pending extension despite the duplicate.
    assert_eq!(inst.take_extensions().len(), 1);
}

#[test]
fn wrong_instance_chains_rejected() {
    let pki = pki();
    let mut inst = BbInstance::new(cfg(CommitteeMode::Universal));
    // Chain started by p1, delivered into instance 0.
    let chain = MessageChain::start(5, 1, Value(9), &pki.signing_key(1), None);
    inst.recv_chain(&pki, 1, &chain, &pki.signing_key(1), None);
    assert_eq!(inst.finish(), None);
}

#[test]
fn cross_session_chains_rejected() {
    let pki = pki();
    let mut inst = BbInstance::new(cfg(CommitteeMode::Universal));
    let chain = MessageChain::start(6, 0, Value(9), &pki.signing_key(0), None);
    inst.recv_chain(&pki, 1, &chain, &pki.signing_key(1), None);
    assert_eq!(inst.finish(), None, "session tag must bind the chain");
}
