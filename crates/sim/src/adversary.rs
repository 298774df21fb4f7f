//! The Byzantine adversary interface and generic attack strategies.
//!
//! One adversary object controls *all* faulty processes, reflecting the
//! standard worst-case model: corruptions coordinate perfectly. The
//! adversary is **rushing** — each round it sees every honest message of
//! that round before emitting its own — and it may send any payload from
//! any corrupted identity to any recipient (sender identities are
//! unforgeable; see [`crate::Envelope`]).
//!
//! Protocol-specific attacks (equivocators, chain withholders, vote liars,
//! …) live in `ba-workloads`; this module provides the trait plus the
//! protocol-agnostic strategies used across the test suites.

use crate::envelope::{Cast, Envelope};
use crate::id::ProcessId;
use crate::runner::Delivery;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// Everything the adversary can see and do in one round.
pub struct AdversaryCtx<'a, M> {
    /// Current round number.
    pub round: u64,
    /// Total number of processes.
    pub n: usize,
    /// Identifiers controlled by the adversary.
    pub corrupted: &'a BTreeSet<ProcessId>,
    /// Messages delivered to each corrupted process at the start of this
    /// round (i.e. sent during the previous round), read from the
    /// runner's delivery.
    pub faulty_inboxes: FaultyInboxes<'a, M>,
    /// This round's honest sends, grouped by sender in id order.
    pub(crate) honest: &'a [Cast<M>],
    /// This round's faulty sends, in the order they were made.
    pub(crate) outgoing: Vec<Cast<M>>,
}

impl<'a, M> AdversaryCtx<'a, M> {
    /// All messages emitted by honest processes *this* round (rushing
    /// visibility), one envelope per recipient: by sender in id order,
    /// each sender's in send order, a broadcast's recipients ascending.
    ///
    /// The runner keeps each send as one record; this expands them
    /// lazily, cloning one payload reference per envelope. The iterator
    /// does not borrow the context, so the adversary may send while it
    /// reads.
    pub fn honest_traffic(&self) -> impl Iterator<Item = Envelope<M>> + 'a {
        self.honest.iter().flat_map(Cast::envelopes)
    }

    /// Panics unless `from` is a corrupted identity.
    fn check_sender(&self, from: ProcessId) {
        assert!(
            self.faulty_inboxes.is_corrupted(from),
            "adversary attempted to spoof honest sender {from}"
        );
    }

    /// Sends `msg` from corrupted process `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted: the simulator enforces that the
    /// adversary cannot spoof honest senders.
    pub fn send(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.replay(from, to, Rc::new(msg));
    }

    /// Sends `msg` from corrupted `from` to every process.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted.
    pub fn broadcast(&mut self, from: ProcessId, msg: M) {
        self.replay_broadcast(from, Rc::new(msg));
    }

    /// Re-sends an observed payload (e.g. an honest message body) from a
    /// corrupted identity — the strongest replay the model permits.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted.
    pub fn replay(&mut self, from: ProcessId, to: ProcessId, payload: Rc<M>) {
        self.check_sender(from);
        let to = u64::from(to.0);
        self.outgoing.push(Cast {
            from,
            to: to..to + 1,
            payload,
        });
    }

    /// Re-sends one payload from corrupted `from` to every process, in
    /// recipient order `0..n`: the same deliveries as `n` calls of
    /// [`replay`](Self::replay), for one sender check. The send is one
    /// record, as an honest broadcast is, so it costs O(1) here and its
    /// message and byte counts are computed once from the record.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted.
    pub fn replay_broadcast(&mut self, from: ProcessId, payload: Rc<M>) {
        self.check_sender(from);
        self.outgoing.push(Cast {
            from,
            to: 0..self.n as u64,
            payload,
        });
    }
}

/// The inboxes of the corrupted processes for one round: a view of the
/// runner's delivery, each inbox complete and ordered by sender.
pub struct FaultyInboxes<'a, M> {
    delivery: &'a mut Delivery<M>,
}

impl<'a, M> FaultyInboxes<'a, M> {
    pub(crate) fn new(delivery: &'a mut Delivery<M>) -> Self {
        FaultyInboxes { delivery }
    }

    pub(crate) fn is_corrupted(&self, id: ProcessId) -> bool {
        self.delivery.is_corrupted(id)
    }

    /// The envelopes delivered to `id` this round, ordered by sender, or
    /// `None` if `id` is not corrupted.
    ///
    /// The inbox is built on demand, as an honest one is just before its
    /// process steps, in the buffer the runner reuses; the next call
    /// overwrites it, so copy out what must outlive it.
    pub fn get(&mut self, id: &ProcessId) -> Option<&[Envelope<M>]> {
        self.is_corrupted(*id).then(|| self.delivery.inbox(*id))
    }
}

/// A coordinated Byzantine strategy for all corrupted processes.
pub trait Adversary<M> {
    /// Produces this round's faulty traffic given full rushing visibility.
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>);
}

impl<M, A: Adversary<M> + ?Sized> Adversary<M> for Box<A> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        (**self).act(ctx)
    }
}

/// Faulty processes send nothing at all (equivalently: they crashed before
/// the execution started). The weakest adversary; also the baseline for
/// message-count comparisons.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentAdversary;

impl<M> Adversary<M> for SilentAdversary {
    fn act(&mut self, _ctx: &mut AdversaryCtx<'_, M>) {}
}

/// Faulty processes behave honestly until `crash_round`, then go silent —
/// optionally mid-broadcast: in the crash round each faulty process
/// delivers its pending honest messages only to recipients with identifier
/// below `partial_cutoff`.
///
/// This adversary needs an "honest template" to imitate; callers supply a
/// closure producing the honest traffic each round via [`FnAdversary`] in
/// protocol crates. At the `ba-sim` layer, `CrashAdversary` simply drops
/// everything from `crash_round` onward and is combined with replaying
/// strategies in higher-level crates.
#[derive(Clone, Debug)]
pub struct CrashAdversary<A> {
    inner: A,
    crash_round: u64,
    partial_cutoff: u32,
}

impl<A> CrashAdversary<A> {
    /// Wraps `inner`, suppressing all its traffic from `crash_round`
    /// onward; in the crash round itself, messages to identifiers
    /// `>= partial_cutoff` are dropped (a mid-broadcast crash).
    pub fn new(inner: A, crash_round: u64, partial_cutoff: u32) -> Self {
        CrashAdversary {
            inner,
            crash_round,
            partial_cutoff,
        }
    }
}

impl<M, A: Adversary<M>> Adversary<M> for CrashAdversary<A> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        if ctx.round > self.crash_round {
            return;
        }
        self.inner.act(ctx);
        if ctx.round == self.crash_round {
            let cutoff = u64::from(self.partial_cutoff);
            ctx.outgoing.retain_mut(|send| {
                send.to.end = send.to.end.min(cutoff);
                !send.to.is_empty()
            });
        }
    }
}

/// An adversary defined by a closure — the workhorse for targeted,
/// protocol-specific attacks in tests.
pub struct FnAdversary<F> {
    f: F,
}

impl<F> FnAdversary<F> {
    /// Wraps `f` as an adversary.
    pub fn new(f: F) -> Self {
        FnAdversary { f }
    }
}

impl<M, F> Adversary<M> for FnAdversary<F>
where
    F: FnMut(&mut AdversaryCtx<'_, M>),
{
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        (self.f)(ctx)
    }
}

/// Replays honest payloads observed in earlier rounds from corrupted
/// identities, to every process, shifted by `delay` rounds. Exercises
/// protocols' session/round tagging: correctly-tagged protocols must treat
/// replayed traffic as noise.
#[derive(Debug)]
pub struct ReplayAdversary<M> {
    delay: usize,
    /// The honest payloads of the last `delay` rounds, oldest first.
    history: VecDeque<Vec<Rc<M>>>,
}

impl<M> ReplayAdversary<M> {
    /// Creates a replayer with the given round delay (≥ 1).
    pub fn new(delay: usize) -> Self {
        assert!(delay >= 1, "replay delay must be at least one round");
        ReplayAdversary {
            delay,
            history: VecDeque::new(),
        }
    }
}

impl<M> Adversary<M> for ReplayAdversary<M> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        self.history
            .push_back(ctx.honest_traffic().map(|e| e.payload).collect());
        if self.history.len() <= self.delay {
            return;
        }
        let replayed = self.history.pop_front().expect("delay + 1 rounds held");
        let faulty: Vec<ProcessId> = ctx.corrupted.iter().copied().collect();
        if faulty.is_empty() {
            return;
        }
        for (k, payload) in replayed.into_iter().enumerate() {
            ctx.replay_broadcast(faulty[k % faulty.len()], payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Outbox;

    /// The system size of every fixture.
    const N: usize = 4;

    /// A system of `N` processes with the given ids corrupted and nothing
    /// delivered yet.
    struct Fixture {
        corrupted: BTreeSet<ProcessId>,
        delivery: Delivery<u32>,
    }

    impl Fixture {
        fn new(corrupted: &[u32]) -> Self {
            let corrupted = corrupted.iter().copied().map(ProcessId).collect();
            Fixture {
                delivery: Delivery::new(N, &corrupted),
                corrupted,
            }
        }

        fn ctx<'a>(&'a mut self, round: u64, honest: &'a [Cast<u32>]) -> AdversaryCtx<'a, u32> {
            AdversaryCtx {
                round,
                n: N,
                corrupted: &self.corrupted,
                faulty_inboxes: FaultyInboxes::new(&mut self.delivery),
                honest,
                outgoing: Vec::new(),
            }
        }
    }

    /// The envelopes `ctx` has sent so far, in send order, taken out of
    /// it: each record expanded over its recipients, in or out of range.
    fn sent(ctx: &mut AdversaryCtx<'_, u32>) -> Vec<Envelope<u32>> {
        let outgoing = std::mem::take(&mut ctx.outgoing);
        outgoing.iter().flat_map(Cast::envelopes).collect()
    }

    #[test]
    fn adversary_can_send_only_from_corrupted_ids() {
        let mut fixture = Fixture::new(&[3]);
        let mut ctx = fixture.ctx(3, &[]);
        ctx.send(ProcessId(3), ProcessId(0), 99);
        assert_eq!(sent(&mut ctx).len(), 1);
    }

    #[test]
    #[should_panic(expected = "spoof")]
    fn spoofing_honest_sender_panics() {
        let mut fixture = Fixture::new(&[3]);
        let mut ctx = fixture.ctx(3, &[]);
        ctx.send(ProcessId(0), ProcessId(1), 1);
    }

    #[test]
    #[should_panic(expected = "spoof")]
    fn spoofing_an_out_of_range_sender_panics() {
        let mut fixture = Fixture::new(&[3]);
        let mut ctx = fixture.ctx(3, &[]);
        ctx.replay(ProcessId(9), ProcessId(1), Rc::new(1));
    }

    #[test]
    fn replay_broadcast_shares_one_payload_in_recipient_order() {
        let mut fixture = Fixture::new(&[1, 3]);
        let mut ctx = fixture.ctx(0, &[]);
        let payload = Rc::new(7);
        ctx.replay_broadcast(ProcessId(3), Rc::clone(&payload));
        ctx.broadcast(ProcessId(1), 8);
        let outgoing = sent(&mut ctx);
        assert_eq!(outgoing.len(), 8);
        let (replayed, broadcast) = outgoing.split_at(4);
        assert!(replayed
            .iter()
            .all(|e| e.from == ProcessId(3) && Rc::ptr_eq(&e.payload, &payload)));
        assert_eq!(Rc::strong_count(&payload), 5);
        assert!(broadcast
            .iter()
            .all(|e| e.from == ProcessId(1) && Rc::ptr_eq(&e.payload, &broadcast[0].payload)));
        for envs in [replayed, broadcast] {
            let to: Vec<u32> = envs.iter().map(|e| e.to.0).collect();
            assert_eq!(to, [0, 1, 2, 3]);
        }
    }

    #[test]
    #[should_panic(expected = "spoof")]
    fn replay_broadcast_from_an_honest_sender_panics() {
        let mut fixture = Fixture::new(&[3]);
        let mut ctx = fixture.ctx(3, &[]);
        ctx.replay_broadcast(ProcessId(0), Rc::new(1));
    }

    #[test]
    #[should_panic(expected = "spoof")]
    fn replay_broadcast_from_an_out_of_range_sender_panics() {
        let mut fixture = Fixture::new(&[3]);
        let mut ctx = fixture.ctx(3, &[]);
        ctx.replay_broadcast(ProcessId(4), Rc::new(1));
    }

    #[test]
    fn faulty_inboxes_answer_only_for_corrupted_ids() {
        let mut fixture = Fixture::new(&[3]);
        let mut ctx = fixture.ctx(3, &[]);
        assert_eq!(
            ctx.faulty_inboxes.get(&ProcessId(3)).map(<[_]>::len),
            Some(0)
        );
        assert!(ctx.faulty_inboxes.get(&ProcessId(0)).is_none());
        assert!(ctx.faulty_inboxes.get(&ProcessId(4)).is_none());
    }

    #[test]
    fn honest_traffic_expands_every_send_as_into_envelopes_does() {
        // p0 mixes all three send kinds; p2 only broadcasts.
        let script = |me: u32| {
            let mut out = Outbox::new(ProcessId(me), N);
            if me == 0 {
                out.send(ProcessId(2), 1);
                out.broadcast(2);
                out.multicast([ProcessId(3), ProcessId(1)], 3);
                out.send(ProcessId(0), 4);
            } else {
                out.broadcast(5);
            }
            out
        };
        let triples = |envs: Vec<Envelope<u32>>| -> Vec<(u32, u32, u32)> {
            envs.iter()
                .map(|e| (e.from.0, e.to.0, *e.payload))
                .collect()
        };
        let expected = triples(
            [0, 2]
                .into_iter()
                .flat_map(|me| script(me).into_envelopes())
                .collect(),
        );
        assert_eq!(
            expected,
            [
                (0, 2, 1),
                (0, 0, 2),
                (0, 1, 2),
                (0, 2, 2),
                (0, 3, 2),
                (0, 3, 3),
                (0, 1, 3),
                (0, 0, 4),
                (2, 0, 5),
                (2, 1, 5),
                (2, 2, 5),
                (2, 3, 5),
            ]
        );
        let honest: Vec<Cast<u32>> = [0, 2]
            .into_iter()
            .flat_map(|me| script(me).into_casts())
            .collect();
        let mut fixture = Fixture::new(&[3]);
        let ctx = fixture.ctx(0, &honest);
        assert_eq!(triples(ctx.honest_traffic().collect()), expected);
    }

    #[test]
    fn crash_adversary_truncates_mid_broadcast() {
        let mut fixture = Fixture::new(&[3]);
        let inner = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, u32>| {
            ctx.broadcast(ProcessId(3), 5);
        });
        let mut crash = CrashAdversary::new(inner, 3, 2);
        let mut ctx = fixture.ctx(3, &[]);
        crash.act(&mut ctx);
        // Broadcast to n=4, truncated to recipients {0, 1}.
        let outgoing = sent(&mut ctx);
        assert_eq!(outgoing.len(), 2);
        assert!(outgoing.iter().all(|e| e.to.0 < 2));
    }

    #[test]
    fn crash_adversary_is_silent_after_crash() {
        let mut fixture = Fixture::new(&[3]);
        let inner = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, u32>| {
            ctx.broadcast(ProcessId(3), 5);
        });
        let mut crash = CrashAdversary::new(inner, 2, 4);
        let mut ctx = fixture.ctx(3, &[]);
        crash.act(&mut ctx);
        assert!(sent(&mut ctx).is_empty());
    }

    #[test]
    fn replay_adversary_resends_old_honest_payloads() {
        let mut fixture = Fixture::new(&[3]);
        let mut replayer: ReplayAdversary<u32> = ReplayAdversary::new(1);

        let mut out = Outbox::new(ProcessId(0), N);
        out.send(ProcessId(1), 77u32);
        let honest_r0 = out.into_casts();
        let mut ctx0 = fixture.ctx(0, &honest_r0);
        replayer.act(&mut ctx0);
        assert!(sent(&mut ctx0).is_empty(), "nothing old to replay yet");

        let mut ctx1 = fixture.ctx(1, &[]);
        replayer.act(&mut ctx1);
        let outgoing = sent(&mut ctx1);
        assert_eq!(outgoing.len(), 4, "payload replayed to all n = 4");
        assert!(outgoing.iter().all(|e| *e.payload == 77));
        assert!(outgoing.iter().all(|e| e.from == ProcessId(3)));
    }

    #[test]
    fn replay_adversary_replays_round_r_minus_delay_and_keeps_only_that_window() {
        let mut fixture = Fixture::new(&[2, 3]);
        // Round r: p0 broadcasts 10r (one shared payload, four envelopes)
        // and p1 sends 10r + 1 to p0.
        let honest = |r: u32| {
            let mut p0 = Outbox::new(ProcessId(0), N);
            p0.broadcast(10 * r);
            let mut p1 = Outbox::new(ProcessId(1), N);
            p1.send(ProcessId(0), 10 * r + 1);
            let mut sends = p0.into_casts();
            sends.extend(p1.into_casts());
            sends
        };
        for delay in [1, 2] {
            let mut replayer: ReplayAdversary<u32> = ReplayAdversary::new(delay);
            for r in 0..5u32 {
                let traffic = honest(r);
                let mut ctx = fixture.ctx(u64::from(r), &traffic);
                replayer.act(&mut ctx);
                assert!(replayer.history.len() <= delay + 1);
                let sent: Vec<(u32, u32, u32)> = sent(&mut ctx)
                    .iter()
                    .map(|e| (e.from.0, e.to.0, *e.payload))
                    .collect();
                // Payload k of round r − delay goes from faulty id
                // k mod 2 (p2, p3) to all four processes.
                let expected: Vec<(u32, u32, u32)> = match r.checked_sub(delay as u32) {
                    None => Vec::new(),
                    Some(old) => honest(old)
                        .iter()
                        .flat_map(Cast::envelopes)
                        .enumerate()
                        .flat_map(|(k, e)| {
                            let payload = *e.payload;
                            (0..4).map(move |to| (2 + k as u32 % 2, to, payload))
                        })
                        .collect(),
                };
                assert_eq!(sent, expected, "delay {delay}, round {r}");
            }
        }
    }
}
