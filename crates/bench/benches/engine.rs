//! Engine microbenchmarks: the substrates' wall-clock costs.
//!
//! The offline container has no `criterion`, so this is a plain timing
//! harness: each benchmark is warmed up, then run for a fixed number of
//! iterations, reporting the per-iteration mean and the fastest
//! observed batch (a serviceable noise floor for a deterministic
//! workload).

use ba_crypto::{hmac_sha256, sha256, Pki, SealedSig, Signature};
use ba_graded::{AuthGraded, UnauthGraded};
use ba_sim::{
    distinct_values_by_sender, AdversaryCtx, Envelope, FnAdversary, Outbox, Process, ProcessId,
    ReplayAdversary, Runner, SilentAdversary, Value,
};
use ba_workloads::Table;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Untimed calls before `measure` starts timing.
const WARMUP: u32 = 16;

/// Times `f` over `batches × per_batch` iterations, returning
/// (mean ns/iter, best batch ns/iter).
fn measure<R>(batches: u32, per_batch: u32, mut f: impl FnMut() -> R) -> (f64, f64) {
    for _ in 0..per_batch.min(WARMUP) {
        black_box(f());
    }
    let mut total_ns = 0u128;
    let mut best_ns_per_iter = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos();
        total_ns += ns;
        best_ns_per_iter = best_ns_per_iter.min(ns as f64 / f64::from(per_batch));
    }
    let mean = total_ns as f64 / (f64::from(batches) * f64::from(per_batch));
    (mean, best_ns_per_iter)
}

/// Broadcasts a fresh value every round and never decides.
struct Broadcaster;

impl Process for Broadcaster {
    type Msg = Value;
    type Output = ();
    fn step(&mut self, round: u64, inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
        black_box(inbox.len());
        out.broadcast(Value(round));
    }
    fn output(&self) -> Option<()> {
        None
    }
    fn halted(&self) -> bool {
        false
    }
}

fn main() {
    let mut table = Table::new(
        "engine microbenchmarks (ns/iter)",
        &["benchmark", "mean", "best batch"],
    );

    let data = vec![0xa5u8; 1024];
    let (mean, best) = measure(20, 200, || sha256(black_box(&data)));
    table.row([
        "sha256_1kib".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // One block compression, portable and as dispatched: the dispatched
    // row runs on the SHA extensions when the CPU has them.
    let block = [0x5au8; 64];
    let mut state = [0u32; 8];
    let (mean, best) = measure(20, 5000, || {
        ba_crypto::sha256::compress_portable(black_box(&mut state), black_box(&block))
    });
    table.row([
        "sha256_block_portable".to_string(),
        format!("{mean:.1}"),
        format!("{best:.1}"),
    ]);
    let (mean, best) = measure(20, 5000, || {
        ba_crypto::sha256::compress(black_box(&mut state), black_box(&block))
    });
    table.row([
        "sha256_block".to_string(),
        format!("{mean:.1}"),
        format!("{best:.1}"),
    ]);

    let key = [7u8; 32];
    let msg = vec![1u8; 128];
    let (mean, best) = measure(20, 500, || hmac_sha256(black_box(&key), black_box(&msg)));
    table.row([
        "hmac_sha256_128b".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // The PKI memoises successful verifications, so the cold row gives
    // every iteration a message it has never verified and the hit row
    // re-verifies one signature.
    let (batches, per_batch) = (20, 500);
    let pki = Pki::new(64, 1);
    let signing_key = pki.signing_key(3);
    let fresh: Vec<(Vec<u8>, Signature)> = (0..WARMUP + batches * per_batch)
        .map(|i| {
            let msg = format!("benchmark message {i}").into_bytes();
            let sig = signing_key.sign(&msg);
            (msg, sig)
        })
        .collect();
    let mut fresh = fresh.iter();
    let (mean, best) = measure(batches, per_batch, || {
        let (msg, sig) = fresh.next().expect("one message per iteration");
        assert!(pki.verify(black_box(msg), black_box(sig)));
    });
    table.row([
        "pki_verify_cold".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    let sig = signing_key.sign(b"benchmark message");
    let (mean, best) = measure(batches, per_batch, || {
        pki.verify(black_box(b"benchmark message"), black_box(&sig))
    });
    table.row([
        "pki_verify_hit".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // The same hit through a resolved statement, which goes straight to
    // its memo slot instead of hashing the message.
    let mut statement = pki.statement(b"benchmark message");
    let (mean, best) = measure(batches, per_batch, || {
        pki.verify_statement(black_box(&mut statement), black_box(&sig))
    });
    table.row([
        "pki_verify_statement_hit".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // The same check once the signature is sealed on the statement's
    // slot: answered from the seal, without the memo's lock, and counted
    // when the pass of checks ends.
    let sealed = SealedSig::from(sig);
    let mut checks = pki.sealed_checks();
    assert!(checks.verify(&mut statement, &sealed));
    let (mean, best) = measure(batches, per_batch, || {
        checks.verify(black_box(&mut statement), black_box(&sealed))
    });
    drop(checks);
    table.row([
        "pki_verify_sealed_hit".to_string(),
        format!("{mean:.1}"),
        format!("{best:.1}"),
    ]);

    // Signing sealed on a resolved statement: the MAC, then the memo's
    // lock to record the signature and seal it, so that no recipient
    // pays a MAC for it.
    let (mean, best) = measure(batches, per_batch, || {
        pki.sign_statement(black_box(&signing_key), black_box(&mut statement))
    });
    table.row([
        "pki_sign_statement_sealed".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    let (mean, best) = measure(10, 20, || {
        let n = 32;
        let procs: Vec<_> = (0..n as u32)
            .map(|i| UnauthGraded::new(ProcessId(i), n, 10, Value(u64::from(i % 2))))
            .collect();
        let mut runner = Runner::new(n, procs, SilentAdversary);
        black_box(runner.run(4))
    });
    table.row([
        "unauth_graded_consensus_n32".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // One authenticated graded consensus at the auth-silent benchmark's
    // size, all processes honest: n parallel certified gradecasts, each
    // echo and confirm round checking about n² signatures. It times ten
    // batches of three sessions (about 20 ms each): three single
    // sessions read means 15% apart across runs of one binary, wider
    // than the changes this row is meant to show.
    let (n, t) = (64, 31);
    let (mean, best) = measure(10, 3, || {
        let pki = Arc::new(Pki::new(n, 5));
        let procs: Vec<_> = (0..n as u32)
            .map(|i| {
                let input = Value(u64::from(i % 2));
                AuthGraded::new(
                    ProcessId(i),
                    n,
                    t,
                    1,
                    input,
                    Arc::clone(&pki),
                    pki.signing_key(i),
                )
            })
            .collect();
        let mut runner = Runner::new(n, procs, SilentAdversary);
        black_box(runner.run(AuthGraded::ROUNDS + 1))
    });
    table.row([
        "auth_graded_n64".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // Sender dedupe on one replay-flood-shaped inbox in sender order:
    // 96 senders, 81 honest with one envelope each and 15 faulty with
    // 260 replays each (3,981 envelopes). A third of the payloads do not
    // extract, so a faulty sender's first replays may be skipped before
    // one counts.
    let faulty: Vec<u32> = (0..15).map(|i| i * 96 / 15).collect();
    let inbox: Vec<Envelope<Value>> = (0..96u32)
        .flat_map(|from| {
            let copies = if faulty.contains(&from) { 260 } else { 1 };
            (0..copies).map(move |i| {
                Envelope::new(ProcessId(from), ProcessId(0), Value(u64::from(from + i)))
            })
        })
        .collect();
    let (mean, best) = measure(20, 50, || {
        distinct_values_by_sender(black_box(&inbox), |_, v| (v.0 % 3 != 0).then_some(*v))
    });
    table.row([
        "distinct_values_by_sender_replay".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // The same 81 honest broadcasters with silent faults: one round of
    // honest-only routing, about 7.8k envelopes, so the replay row below
    // less this one is the cost of the replayed traffic.
    let (n, f) = (96, 15);
    let mut runner = Runner::new(n, (0..n - f).map(|_| Broadcaster), SilentAdversary);
    let (mean, best) = measure(5, 8, || runner.step());
    table.row([
        "runner_step_broadcast_n96".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // The same round with each faulty id splitting its vote: one
    // point-to-point send per recipient, even ids told 0 and odd ids 1
    // (the Disruptor's split-cast shape), so 15 × 96 one-recipient sends
    // ride on the honest broadcasts.
    let split_cast = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, Value>| {
        for &from in ctx.corrupted {
            for to in ProcessId::all(ctx.n) {
                ctx.send(from, to, Value(u64::from(to.0 % 2)));
            }
        }
    });
    let mut runner = Runner::new(n, (0..n - f).map(|_| Broadcaster), split_cast);
    let (mean, best) = measure(5, 8, || runner.step());
    table.row([
        "runner_step_split_cast_n96".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // One steady-state round of routing under replay: 81 honest
    // broadcasts, each replayed a round later to all 96 processes, so
    // about 7.8k honest and 750k faulty envelopes per round.
    let mut runner = Runner::new(n, (0..n - f).map(|_| Broadcaster), ReplayAdversary::new(1));
    let (mean, best) = measure(5, 8, || runner.step());
    table.row([
        "runner_step_replay_n96".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    table.print();
}
