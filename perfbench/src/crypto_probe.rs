//! Direct probes of the crypto layer (`ba_crypto::sha256`,
//! `Pki::verify`).
//!
//! Every repetition hashes and verifies inputs it has never used
//! before, so a cache inside the crypto layer cannot answer the probe:
//! it keeps measuring the uncached cost.

use crate::stats::median;
use ba_predictions::ba_auth::{chain_link_bytes, committee_bytes};
use ba_predictions::ba_crypto::{sha256, Pki, Signature};
use ba_predictions::ba_sim::Value;
use std::hint::black_box;
use std::time::Instant;

const REPS: u64 = 5;
const SHA_BLOCK: usize = 16 * 1024;
const SHA_BLOCKS: usize = 128;
const VERIFIES: u64 = 8192;
/// Longest prior-signature list of the probed chain links.
const MAX_PRIOR: u64 = 7;

/// Median nanoseconds per KiB hashed, over distinct 16 KiB inputs.
pub fn sha256_ns_per_kib() -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let blocks: Vec<Vec<u8>> = (0..SHA_BLOCKS)
                .map(|b| {
                    let tag = (rep * SHA_BLOCKS as u64 + b as u64).to_le_bytes();
                    (0..SHA_BLOCK).map(|i| tag[i % 8] ^ (i as u8)).collect()
                })
                .collect();
            let start = Instant::now();
            for block in &blocks {
                black_box(sha256(black_box(block)));
            }
            let ns = start.elapsed().as_nanos() as f64;
            ns / (SHA_BLOCKS * SHA_BLOCK / 1024) as f64
        })
        .collect();
    median(&samples).expect("at least one repetition")
}

/// The statements the auth-wrapper pipeline signs: committee membership
/// and chain links carrying `0..=MAX_PRIOR` prior signatures. `salt`
/// makes every message distinct.
fn signed_statement(pki: &Pki, salt: u64) -> (Vec<u8>, Signature) {
    let n = pki.len() as u64;
    let signer = (salt % n) as u32;
    let prior_len = salt % (MAX_PRIOR + 2);
    let msg = if prior_len == 0 {
        committee_bytes(salt, signer)
    } else {
        let prior: Vec<Signature> = (0..prior_len - 1)
            .map(|j| {
                pki.signing_key(((salt + j) % n) as u32)
                    .sign(&j.to_le_bytes())
            })
            .collect();
        chain_link_bytes(salt, signer, Value(salt & 1), &prior)
    };
    let sig = pki.signing_key(signer).sign(&msg);
    (msg, sig)
}

/// Median nanoseconds per `Pki::verify` over distinct valid signatures
/// at the auth-wrapper pipeline's statement sizes. Returns `None` if a
/// genuine signature failed to verify.
pub fn verify_ns() -> Option<f64> {
    let pki = Pki::new(64, 0x5eed);
    let mut samples = Vec::new();
    for rep in 0..REPS {
        let batch: Vec<(Vec<u8>, Signature)> = (0..VERIFIES)
            .map(|i| signed_statement(&pki, rep * VERIFIES + i))
            .collect();
        let start = Instant::now();
        let valid = batch
            .iter()
            .filter(|(msg, sig)| pki.verify(black_box(msg), black_box(sig)))
            .count();
        let ns = start.elapsed().as_nanos() as f64;
        if valid != batch.len() {
            return None;
        }
        samples.push(ns / VERIFIES as f64);
    }
    median(&samples)
}
