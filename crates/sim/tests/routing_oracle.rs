//! Routing oracle: random rounds of honest and faulty traffic, checked
//! against a reference that expands every send into envelopes and
//! stable-sorts them by (recipient, sender).
//!
//! Every inbox the runner delivers, honest or corrupted, and each round's
//! four message and byte counts must equal the reference's.

use ba_sim::{
    Adversary, AdversaryCtx, CrashAdversary, Envelope, FnAdversary, Outbox, Process, ProcessId,
    RoundTrace, Runner, WireSize,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Rounds in which scripted traffic is sent; the run takes one more so
/// the last round's traffic is delivered.
const ROUNDS: u64 = 3;

/// A payload: a tag unique to its send, padded so sizes differ.
type Msg = Vec<u32>;

/// An inbox as `(sender, payload)` pairs, in delivery order.
type Transcript = Vec<(u32, Msg)>;

/// What each process was delivered, by (round, id).
type Log = Rc<RefCell<BTreeMap<(u64, u32), Transcript>>>;

/// One send as the reference sees it.
#[derive(Clone, Debug)]
struct Sent {
    from: u32,
    to: u32,
    payload: Msg,
}

fn payload(tag: usize) -> Msg {
    let mut body = vec![tag as u32];
    body.resize(1 + tag % 3, 0);
    body
}

/// An honest send: `kind` 0 sends to `arg mod n`, 1 broadcasts, 2
/// multicasts to the ids whose bit is set in `arg`, highest first when
/// bit 31 is set.
#[derive(Clone, Debug)]
enum HonestOp {
    Send(ProcessId),
    Broadcast,
    Multicast(Vec<ProcessId>),
}

impl HonestOp {
    fn new(kind: u8, arg: u32, n: usize) -> Self {
        match kind % 3 {
            0 => HonestOp::Send(ProcessId(arg % n as u32)),
            1 => HonestOp::Broadcast,
            _ => {
                let mut targets: Vec<ProcessId> = ProcessId::all(n)
                    .filter(|id| arg >> (id.0 % 31) & 1 == 1)
                    .collect();
                if arg >> 31 == 1 {
                    targets.reverse();
                }
                HonestOp::Multicast(targets)
            }
        }
    }

    fn recipients(&self, n: usize) -> Vec<ProcessId> {
        match self {
            HonestOp::Send(to) => vec![*to],
            HonestOp::Broadcast => ProcessId::all(n).collect(),
            HonestOp::Multicast(targets) => targets.clone(),
        }
    }
}

/// A faulty send: `kind` 0 is `send`, 1 `replay`, 2 `broadcast`, 3
/// `replay_broadcast`. Point-to-point recipients range past `n`, and
/// include `ProcessId(u32::MAX)`.
#[derive(Clone, Debug)]
enum FaultyOp {
    Send(ProcessId),
    Replay(ProcessId),
    Broadcast,
    ReplayBroadcast,
}

impl FaultyOp {
    fn new(kind: u8, arg: u32, n: usize) -> Self {
        let to = if arg.is_multiple_of(7) {
            ProcessId(u32::MAX)
        } else {
            ProcessId(arg % (n as u32 + 3))
        };
        match kind % 4 {
            0 => FaultyOp::Send(to),
            1 => FaultyOp::Replay(to),
            2 => FaultyOp::Broadcast,
            _ => FaultyOp::ReplayBroadcast,
        }
    }

    fn recipients(&self, n: usize) -> Vec<ProcessId> {
        match self {
            FaultyOp::Send(to) | FaultyOp::Replay(to) => vec![*to],
            FaultyOp::Broadcast | FaultyOp::ReplayBroadcast => ProcessId::all(n).collect(),
        }
    }
}

/// Runs its script's sends each round and logs every inbox it is
/// delivered.
struct Scripted {
    me: ProcessId,
    /// `(round, op, payload)`, in send order.
    script: Vec<(u64, HonestOp, Msg)>,
    log: Log,
}

fn transcript(inbox: &[Envelope<Msg>]) -> Transcript {
    inbox
        .iter()
        .map(|e| (e.from.0, (*e.payload).clone()))
        .collect()
}

impl Process for Scripted {
    type Msg = Msg;
    type Output = ();
    fn step(&mut self, round: u64, inbox: &[Envelope<Msg>], out: &mut Outbox<Msg>) {
        self.log
            .borrow_mut()
            .insert((round, self.me.0), transcript(inbox));
        for (_, op, msg) in self.script.iter().filter(|(r, ..)| *r == round) {
            match op {
                HonestOp::Send(to) => out.send(*to, msg.clone()),
                HonestOp::Broadcast => out.broadcast(msg.clone()),
                HonestOp::Multicast(targets) => out.multicast(targets.iter().copied(), msg.clone()),
            }
        }
    }
    fn output(&self) -> Option<()> {
        None
    }
    fn halted(&self) -> bool {
        false
    }
}

/// One round's counts, as the runner reports them.
fn counts(trace: &RoundTrace) -> [u64; 4] {
    [
        trace.honest_messages,
        trace.honest_bytes,
        trace.faulty_messages,
        trace.faulty_bytes,
    ]
}

/// `(messages, bytes)` of `sent`, self-copies excluded.
fn cost(sent: &[Sent]) -> (u64, u64) {
    sent.iter()
        .filter(|s| s.from != s.to)
        .fold((0, 0), |(m, b), s| (m + 1, b + s.payload.wire_bytes()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn routing_matches_a_stable_sort_of_every_send_by_recipient_and_sender(
        n in 1usize..10,
        mask in any::<u16>(),
        honest_ops in proptest::collection::vec((0..ROUNDS, any::<u8>(), any::<u8>(), any::<u32>()), 0..24),
        faulty_ops in proptest::collection::vec((0..ROUNDS, any::<u8>(), any::<u8>(), any::<u32>()), 0..24),
        crash in (any::<bool>(), 0..ROUNDS, 0u32..12),
    ) {
        // Corrupted ids are the set bits of `mask`, interleaved with the
        // honest ones; id `mask >> 12` mod n always stays honest.
        let keep = (usize::from(mask >> 12) % n) as u32;
        let corrupted: Vec<ProcessId> = ProcessId::all(n)
            .filter(|id| id.0 != keep && mask >> id.0 & 1 == 1)
            .collect();
        let honest_ids: Vec<ProcessId> = ProcessId::all(n)
            .filter(|id| !corrupted.contains(id))
            .collect();

        // The reference: every send expanded, in send order, per round.
        let mut sent: Vec<(Vec<Sent>, Vec<Sent>)> = vec![Default::default(); ROUNDS as usize];
        let mut tag = 0;
        let mut scripts: BTreeMap<ProcessId, Vec<(u64, HonestOp, Msg)>> = BTreeMap::new();
        for &(round, sel, kind, arg) in &honest_ops {
            let from = honest_ids[usize::from(sel) % honest_ids.len()];
            let op = HonestOp::new(kind, arg, n);
            tag += 1;
            let msg = payload(tag);
            for to in op.recipients(n) {
                sent[round as usize].0.push(Sent { from: from.0, to: to.0, payload: msg.clone() });
            }
            scripts.entry(from).or_default().push((round, op, msg));
        }
        let (crashes, crash_round, cutoff) = crash;
        let crash_round = if crashes { crash_round } else { u64::MAX };
        let mut faulty_script: Vec<(u64, ProcessId, FaultyOp, Msg)> = Vec::new();
        if !corrupted.is_empty() {
            for &(round, sel, kind, arg) in &faulty_ops {
                let from = corrupted[usize::from(sel) % corrupted.len()];
                let op = FaultyOp::new(kind, arg, n);
                tag += 1;
                let msg = payload(tag);
                for to in op.recipients(n) {
                    let delivered = round < crash_round || (round == crash_round && to.0 < cutoff);
                    if delivered {
                        sent[round as usize].1.push(Sent { from: from.0, to: to.0, payload: msg.clone() });
                    }
                }
                faulty_script.push((round, from, op, msg));
            }
        }

        let log: Log = Rc::default();
        let honest: BTreeMap<ProcessId, Scripted> = honest_ids
            .iter()
            .map(|&me| {
                let script = scripts.remove(&me).unwrap_or_default();
                (me, Scripted { me, script, log: Rc::clone(&log) })
            })
            .collect();
        let inner = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Msg>| {
            let round = ctx.round;
            for (_, from, op, msg) in faulty_script.iter().filter(|(r, ..)| *r == round) {
                match op {
                    FaultyOp::Send(to) => ctx.send(*from, *to, msg.clone()),
                    FaultyOp::Replay(to) => ctx.replay(*from, *to, Rc::new(msg.clone())),
                    FaultyOp::Broadcast => ctx.broadcast(*from, msg.clone()),
                    FaultyOp::ReplayBroadcast => ctx.replay_broadcast(*from, Rc::new(msg.clone())),
                }
            }
        });
        let mut crash = CrashAdversary::new(inner, crash_round, cutoff);
        let adversary_log = Rc::clone(&log);
        let adversary = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Msg>| {
            for id in ctx.corrupted.iter() {
                let inbox = transcript(ctx.faulty_inboxes.get(id).expect("corrupted"));
                adversary_log.borrow_mut().insert((ctx.round, id.0), inbox);
            }
            crash.act(ctx);
        });
        let report = Runner::with_ids(n, honest, adversary).run(ROUNDS + 1);
        prop_assert_eq!(report.rounds_executed, ROUNDS + 1);

        let log = log.borrow();
        for round in 0..=ROUNDS {
            let mut expected: Vec<Sent> = match round.checked_sub(1) {
                Some(r) => {
                    let (honest, faulty) = &sent[r as usize];
                    honest.iter().chain(faulty).cloned().collect()
                }
                None => Vec::new(),
            };
            expected.sort_by_key(|s| (s.to, s.from));
            for id in ProcessId::all(n) {
                let inbox: Transcript = expected
                    .iter()
                    .filter(|s| s.to == id.0)
                    .map(|s| (s.from, s.payload.clone()))
                    .collect();
                prop_assert_eq!(log.get(&(round, id.0)), Some(&inbox), "round {}, {}", round, id);
            }
        }
        for (round, trace) in report.rounds.iter().enumerate() {
            let (honest, faulty) = sent.get(round).cloned().unwrap_or_default();
            let ((hm, hb), (fm, fb)) = (cost(&honest), cost(&faulty));
            prop_assert_eq!(counts(trace), [hm, hb, fm, fb], "round {}", round);
        }
    }
}
