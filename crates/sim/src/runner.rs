//! Lockstep execution engine with complexity instrumentation.

use crate::adversary::{Adversary, AdversaryCtx, FaultyInboxes};
use crate::envelope::{Cast, Envelope, Outbox};
use crate::id::ProcessId;
use crate::process::Process;
use crate::wire::WireSize;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Per-round accounting, retained for the whole run.
#[derive(Clone, Debug, Default)]
pub struct RoundTrace {
    /// Messages sent by honest processes this round (self-copies excluded).
    pub honest_messages: u64,
    /// Messages sent by faulty processes this round (self-copies excluded).
    pub faulty_messages: u64,
    /// Bytes sent by honest processes this round ([`WireSize`] of every
    /// remote envelope's payload).
    pub honest_bytes: u64,
    /// Bytes sent by faulty processes this round.
    pub faulty_bytes: u64,
}

/// Sums [`Cast::remote_cost`] over `sends`.
fn total_cost<M: WireSize>(sends: &[Cast<M>]) -> (u64, u64) {
    sends
        .iter()
        .map(Cast::remote_cost)
        .fold((0, 0), |(m, b), (dm, db)| (m + dm, b + db))
}

/// One round's traffic, delivered in inbox order: by sender, with one
/// sender's envelopes in the order they were sent.
///
/// Every send, honest or faulty, arrives as one record. A sender whose
/// every send this round reaches all of `0..n` (broadcasts, replayed
/// broadcasts) keeps its records, sorted by sender; any other sender's
/// sends are written into one bucket per recipient. [`inbox`](Self::inbox)
/// builds a recipient's inbox, honest or corrupted, by merging its bucket
/// with the records, in one buffer reused across recipients and rounds:
/// just before an honest process steps, and when the adversary reads a
/// corrupted inbox. Buckets, records and the buffer keep their capacity
/// from round to round.
pub(crate) struct Delivery<M> {
    /// Per recipient: the envelopes of the senders routed eagerly.
    buckets: Vec<Vec<Envelope<M>>>,
    /// `is_corrupted[i]` iff `ProcessId(i)` is corrupted.
    is_corrupted: Vec<bool>,
    /// `eager[i]`: `ProcessId(i)` made a send this round that does not
    /// reach exactly `0..n`, so all its sends are routed into buckets.
    eager: Vec<bool>,
    /// The full-range sends of the other senders, sorted by sender.
    records: Vec<Cast<M>>,
    /// The inbox last built by [`inbox`](Self::inbox).
    built: Vec<Envelope<M>>,
}

impl<M> Delivery<M> {
    /// Nothing delivered, in a system of `n` processes of which
    /// `corrupted` are faulty.
    pub(crate) fn new(n: usize, corrupted: &BTreeSet<ProcessId>) -> Self {
        let mut is_corrupted = vec![false; n];
        for id in corrupted {
            is_corrupted[id.index()] = true;
        }
        Delivery {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            is_corrupted,
            eager: vec![false; n],
            records: Vec::new(),
            built: Vec::new(),
        }
    }

    pub(crate) fn is_corrupted(&self, id: ProcessId) -> bool {
        self.is_corrupted.get(id.index()) == Some(&true)
    }

    /// The envelopes delivered to `id`, ordered by sender: its bucket
    /// when no records are pending, else the bucket merged with the
    /// records in a buffer that the next call overwrites. A buffer slot
    /// that already holds the same sender and payload only has its
    /// recipient rewritten, so broadcast traffic moves no reference
    /// counts from one recipient to the next.
    pub(crate) fn inbox(&mut self, id: ProcessId) -> &[Envelope<M>] {
        let bucket = &self.buckets[id.index()];
        if self.records.is_empty() {
            return bucket;
        }
        let built = &mut self.built;
        let mut len = 0;
        let mut put = |from: ProcessId, payload: &Rc<M>| {
            match built.get_mut(len) {
                Some(slot) if slot.from == from && Rc::ptr_eq(&slot.payload, payload) => {
                    slot.to = id;
                }
                Some(slot) => {
                    *slot = Envelope {
                        from,
                        to: id,
                        payload: Rc::clone(payload),
                    };
                }
                None => built.push(Envelope {
                    from,
                    to: id,
                    payload: Rc::clone(payload),
                }),
            }
            len += 1;
        };
        // A sender's envelopes are all in the bucket or all in the
        // records, so the merge never compares equal senders.
        let mut records = self.records.iter().peekable();
        for env in bucket {
            while let Some(send) = records.next_if(|send| send.from < env.from) {
                put(send.from, &send.payload);
            }
            put(env.from, &env.payload);
        }
        for send in records {
            put(send.from, &send.payload);
        }
        built.truncate(len);
        built
    }

    /// Replaces the delivered traffic with `sent`, drained: this round's
    /// sends, honest and faulty, each sender's in send order. They are
    /// stably sorted by sender here. An envelope addressed to an id
    /// outside the system is dropped.
    fn route(&mut self, sent: &mut Vec<Cast<M>>) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.records.clear();
        self.eager.fill(false);
        let n = self.buckets.len() as u64;
        for send in sent.iter() {
            if send.to != (0..n) {
                self.eager[send.from.index()] = true;
            }
        }
        sent.sort_by_key(|send| send.from);
        for send in sent.drain(..) {
            if !self.eager[send.from.index()] {
                self.records.push(send);
                continue;
            }
            let (start, end) = (send.to.start.min(n) as usize, send.to.end.min(n) as usize);
            for (to, bucket) in (start..end).zip(&mut self.buckets[start..end]) {
                bucket.push(Envelope {
                    from: send.from,
                    to: ProcessId(to as u32),
                    payload: Rc::clone(&send.payload),
                });
            }
        }
    }
}

/// The outcome and cost profile of one synchronous execution.
#[derive(Clone, Debug)]
pub struct RunReport<O> {
    /// Number of honest processes.
    pub honest_count: usize,
    /// Decision of each honest process that produced one.
    pub outputs: BTreeMap<ProcessId, O>,
    /// Round at which each honest process first reported an output.
    pub decision_round: BTreeMap<ProcessId, u64>,
    /// Round at which the *last* honest process decided — the paper's time
    /// complexity measure — if all of them did.
    pub last_decision_round: Option<u64>,
    /// Total messages sent by honest processes over the run (self-copies
    /// excluded) — the paper's message complexity measure.
    pub honest_messages: u64,
    /// Messages sent by honest processes up to and including the round in
    /// which the last honest process decided (the paper counts messages
    /// "up until they decide").
    pub honest_messages_until_decision: u64,
    /// Total bytes sent by honest processes over the run (self-copies
    /// excluded) — the communication complexity measure of the
    /// communication-efficient follow-up work.
    pub honest_bytes: u64,
    /// Bytes sent by honest processes up to and including the round of
    /// the last honest decision (mirrors
    /// [`honest_messages_until_decision`](Self::honest_messages_until_decision)).
    pub honest_bytes_until_decision: u64,
    /// Per-process message counts (self-copies excluded).
    pub messages_per_process: BTreeMap<ProcessId, u64>,
    /// Per-round traces.
    pub rounds: Vec<RoundTrace>,
    /// Rounds actually executed.
    pub rounds_executed: u64,
}

impl<O: Clone + Eq> RunReport<O> {
    /// Whether every honest process produced an output.
    pub fn all_decided(&self) -> bool {
        self.outputs.len() == self.honest_count
    }

    /// Whether every honest process decided, and on the same value
    /// (the paper's Agreement property).
    pub fn agreement(&self) -> bool {
        if !self.all_decided() {
            return false;
        }
        let mut it = self.outputs.values();
        match it.next() {
            None => true,
            Some(first) => it.all(|o| o == first),
        }
    }

    /// The common decision, if agreement holds.
    pub fn decision(&self) -> Option<&O> {
        if self.agreement() {
            self.outputs.values().next()
        } else {
            None
        }
    }
}

/// Drives honest processes and one adversary in lockstep rounds.
///
/// Honest processes are stepped in identifier order; the adversary then
/// acts with full visibility of the round's honest traffic (rushing).
///
/// All round-`r` traffic is delivered at step `r + 1`. An inbox is
/// ordered by sender, with one sender's envelopes in the order they were
/// sent. Every send, honest or faulty, is one record (sender, recipients,
/// shared payload), so a broadcast is one record for `0..n`, and its
/// message and byte counts come from the record. The adversary reads the
/// honest records as envelopes through
/// [`AdversaryCtx::honest_traffic`]. Routing keeps the records of a
/// sender whose every send this round reaches all of `0..n`, and writes
/// any other sender's sends into one bucket per recipient; each inbox is
/// built from its bucket and the records when it is read, in one buffer
/// the runner reuses: an honest one just before its process steps, a
/// corrupted one when the adversary reads it through
/// [`AdversaryCtx::faulty_inboxes`]. An envelope addressed to an
/// identifier `≥ n` is counted but delivered to no one.
pub struct Runner<P: Process, A> {
    n: usize,
    honest: BTreeMap<ProcessId, P>,
    adversary: A,
    corrupted: BTreeSet<ProcessId>,
    /// Last round's traffic, routed for delivery this round.
    delivery: Delivery<P::Msg>,
    /// This round's honest sends, then the faulty ones appended, drained
    /// into `delivery`; both buffers are kept to reuse their allocations.
    honest_sent: Vec<Cast<P::Msg>>,
    faulty_sent: Vec<Cast<P::Msg>>,
    round: u64,
    report: RunReport<P::Output>,
}

impl<P, A> Runner<P, A>
where
    P: Process,
    A: Adversary<P::Msg>,
{
    /// Creates a runner for a fully honest system: `honest` are assigned
    /// identifiers `0 ..` in order; the adversary controls the remaining
    /// identifiers `honest.len() .. n`.
    ///
    /// For arbitrary corruption patterns use [`Runner::with_ids`].
    pub fn new<I>(n: usize, honest: I, adversary: A) -> Self
    where
        I: IntoIterator<Item = P>,
    {
        let honest: BTreeMap<ProcessId, P> = honest
            .into_iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i as u32), p))
            .collect();
        let corrupted: BTreeSet<ProcessId> = ProcessId::all(n)
            .filter(|id| !honest.contains_key(id))
            .collect();
        Self::with_parts(n, honest, corrupted, adversary)
    }

    /// Creates a runner with an explicit honest-process map; every
    /// identifier in `0..n` absent from the map is corrupted.
    pub fn with_ids(n: usize, honest: BTreeMap<ProcessId, P>, adversary: A) -> Self {
        let corrupted: BTreeSet<ProcessId> = ProcessId::all(n)
            .filter(|id| !honest.contains_key(id))
            .collect();
        Self::with_parts(n, honest, corrupted, adversary)
    }

    fn with_parts(
        n: usize,
        honest: BTreeMap<ProcessId, P>,
        corrupted: BTreeSet<ProcessId>,
        adversary: A,
    ) -> Self {
        assert!(n >= 1, "a system needs at least one process");
        assert!(
            honest.keys().all(|id| id.index() < n),
            "honest identifier out of range"
        );
        let honest_count = honest.len();
        Runner {
            n,
            honest,
            adversary,
            delivery: Delivery::new(n, &corrupted),
            corrupted,
            honest_sent: Vec::new(),
            faulty_sent: Vec::new(),
            round: 0,
            report: RunReport {
                honest_count,
                outputs: BTreeMap::new(),
                decision_round: BTreeMap::new(),
                last_decision_round: None,
                honest_messages: 0,
                honest_messages_until_decision: 0,
                honest_bytes: 0,
                honest_bytes_until_decision: 0,
                messages_per_process: BTreeMap::new(),
                rounds: Vec::new(),
                rounds_executed: 0,
            },
        }
    }

    /// Identifiers the adversary controls.
    pub fn corrupted(&self) -> &BTreeSet<ProcessId> {
        &self.corrupted
    }

    /// Executes one synchronous round. Returns `true` while any honest
    /// process is still participating.
    pub fn step(&mut self) -> bool {
        let round = self.round;
        let mut trace = RoundTrace::default();

        for (&id, proc) in self.honest.iter_mut() {
            if proc.halted() {
                continue;
            }
            let mut out = Outbox::new(id, self.n);
            proc.step(round, self.delivery.inbox(id), &mut out);
            let sent = out.into_casts();
            let (remote, bytes) = total_cost(&sent);
            trace.honest_messages += remote;
            trace.honest_bytes += bytes;
            *self.report.messages_per_process.entry(id).or_insert(0) += remote;
            self.honest_sent.extend(sent);

            if let Some(o) = proc.output() {
                self.report.outputs.entry(id).or_insert(o);
                self.report.decision_round.entry(id).or_insert(round);
            }
        }

        // Rushing adversary: acts after seeing this round's honest traffic.
        let mut ctx = AdversaryCtx {
            round,
            n: self.n,
            corrupted: &self.corrupted,
            faulty_inboxes: FaultyInboxes::new(&mut self.delivery),
            honest: &self.honest_sent,
            outgoing: std::mem::take(&mut self.faulty_sent),
        };
        self.adversary.act(&mut ctx);
        self.faulty_sent = ctx.outgoing;
        (trace.faulty_messages, trace.faulty_bytes) = total_cost(&self.faulty_sent);

        self.report.honest_messages += trace.honest_messages;
        self.report.honest_bytes += trace.honest_bytes;
        if self.report.outputs.len() < self.report.honest_count {
            self.report.honest_messages_until_decision = self.report.honest_messages;
            self.report.honest_bytes_until_decision = self.report.honest_bytes;
        }

        self.honest_sent.append(&mut self.faulty_sent);
        self.delivery.route(&mut self.honest_sent);

        self.report.rounds.push(trace);
        self.round += 1;
        self.report.rounds_executed = self.round;

        if self.report.outputs.len() == self.report.honest_count
            && self.report.last_decision_round.is_none()
        {
            self.report.last_decision_round = self.report.decision_round.values().copied().max();
        }

        self.honest.values().any(|p| !p.halted())
    }

    /// Runs until every honest process halts or `max_rounds` is reached,
    /// returning the report.
    pub fn run(&mut self, max_rounds: u64) -> RunReport<P::Output>
    where
        P::Output: Clone,
    {
        for _ in 0..max_rounds {
            if !self.step() {
                break;
            }
        }
        self.report.clone()
    }

    /// Read access to an honest process (for white-box assertions in
    /// tests).
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.honest.get(&id)
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &RunReport<P::Output> {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FnAdversary, SilentAdversary};
    use crate::id::Value;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Echo-min protocol used across runner tests: broadcast once, then
    /// output the minimum value heard.
    struct MinEcho {
        mine: Value,
        out: Option<Value>,
    }

    impl Process for MinEcho {
        type Msg = Value;
        type Output = Value;
        fn step(&mut self, round: u64, inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
            match round {
                0 => out.broadcast(self.mine),
                1 => {
                    let min = inbox.iter().map(|e| *e.payload).min().unwrap_or(self.mine);
                    self.out = Some(min.min(self.mine));
                }
                _ => {}
            }
        }
        fn output(&self) -> Option<Value> {
            self.out
        }
        fn halted(&self) -> bool {
            self.out.is_some()
        }
    }

    fn min_echo_system(_n: usize, honest: usize) -> Vec<MinEcho> {
        (0..honest)
            .map(|i| MinEcho {
                mine: Value(100 + i as u64),
                out: None,
            })
            .collect()
    }

    #[test]
    fn all_honest_reach_min_in_two_rounds() {
        let n = 5;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(100)));
        assert_eq!(report.last_decision_round, Some(1));
    }

    #[test]
    fn honest_message_count_excludes_self_copies() {
        let n = 4;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        // Each of 4 processes broadcasts once: 3 remote copies each.
        assert_eq!(report.honest_messages, 12);
        assert!(report.messages_per_process.values().all(|&c| c == 3));
    }

    #[test]
    fn honest_byte_count_charges_payload_sizes() {
        let n = 4;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        // 12 remote Value envelopes at 8 bytes each.
        assert_eq!(report.honest_bytes, 96);
        assert_eq!(report.rounds[0].honest_bytes, 96);
        assert!(report.rounds.iter().skip(1).all(|t| t.honest_bytes == 0));
    }

    #[test]
    fn bytes_until_decision_freeze_with_messages() {
        let n = 5;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        assert_eq!(
            report.honest_bytes_until_decision,
            report.honest_messages_until_decision * 8,
            "every MinEcho payload is one 8-byte Value"
        );
        assert!(report.honest_bytes_until_decision <= report.honest_bytes);
    }

    #[test]
    fn faulty_traffic_counted_separately() {
        let n = 4;
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, Value>| {
            if ctx.round == 0 {
                ctx.broadcast(ProcessId(3), Value(1));
            }
        });
        let mut runner = Runner::new(n, min_echo_system(n, 3), adv);
        let report = runner.run(10);
        assert_eq!(report.rounds[0].faulty_messages, 3);
        // The faulty minimum wins: honest processes adopt Value(1).
        assert_eq!(report.decision(), Some(&Value(1)));
    }

    #[test]
    fn adversary_sees_honest_traffic_before_acting() {
        let n = 3;
        // The adversary echoes (min honest value - 1) in the same round it
        // observes the broadcasts — only a rushing adversary can do this.
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, Value>| {
            if ctx.round == 0 {
                let min = ctx
                    .honest_traffic()
                    .map(|e| *e.payload)
                    .min()
                    .expect("rushing adversary must see round-0 honest traffic");
                ctx.broadcast(ProcessId(2), Value(min.0 - 50));
            }
        });
        let mut runner = Runner::new(n, min_echo_system(n, 2), adv);
        let report = runner.run(10);
        assert_eq!(report.decision(), Some(&Value(50)));
    }

    #[test]
    fn runner_stops_at_max_rounds_without_outputs() {
        struct Forever;
        impl Process for Forever {
            type Msg = ();
            type Output = ();
            fn step(&mut self, _r: u64, _i: &[Envelope<()>], _o: &mut Outbox<()>) {}
            fn output(&self) -> Option<()> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let mut runner = Runner::new(2, vec![Forever, Forever], SilentAdversary);
        let report = runner.run(7);
        assert_eq!(report.rounds_executed, 7);
        assert!(!report.all_decided());
        assert!(report.last_decision_round.is_none());
    }

    #[test]
    fn corrupted_set_is_the_complement_of_honest_ids() {
        let runner: Runner<MinEcho, SilentAdversary> =
            Runner::new(5, min_echo_system(5, 3), SilentAdversary);
        let corrupted: Vec<u32> = runner.corrupted().iter().map(|p| p.0).collect();
        assert_eq!(corrupted, vec![3, 4]);
    }

    #[test]
    fn with_ids_supports_arbitrary_corruption_patterns() {
        let mut honest = BTreeMap::new();
        honest.insert(
            ProcessId(0),
            MinEcho {
                mine: Value(5),
                out: None,
            },
        );
        honest.insert(
            ProcessId(2),
            MinEcho {
                mine: Value(6),
                out: None,
            },
        );
        let runner: Runner<MinEcho, SilentAdversary> = Runner::with_ids(4, honest, SilentAdversary);
        let corrupted: Vec<u32> = runner.corrupted().iter().map(|p| p.0).collect();
        assert_eq!(corrupted, vec![1, 3]);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let run = || {
            let mut runner = Runner::new(6, min_echo_system(6, 4), SilentAdversary);
            let r = runner.run(10);
            (r.honest_messages, r.last_decision_round, r.rounds_executed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn decision_round_recorded_per_process() {
        let n = 3;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        assert_eq!(report.decision_round.len(), 3);
        assert!(report.decision_round.values().all(|&r| r == 1));
    }

    /// `Recorder` senders tag their round-0 messages `100·id + tag`, in
    /// this order to every recipient.
    const TAG_ORDER: [u64; 3] = [2, 1, 3];

    fn tags(from: u32) -> impl Iterator<Item = Value> {
        TAG_ORDER
            .iter()
            .map(move |tag| Value(100 * u64::from(from) + tag))
    }

    /// An inbox as `(sender, payload)` pairs.
    type Transcript = Vec<(u32, u64)>;

    fn transcript(inbox: &[Envelope<Value>]) -> Transcript {
        inbox.iter().map(|e| (e.from.0, e.payload.0)).collect()
    }

    /// Sends its tags to everyone in round 0, then outputs its round-1
    /// inbox as `(sender, payload)` pairs.
    struct Recorder {
        me: ProcessId,
        n: usize,
        out: Option<Transcript>,
    }

    impl Recorder {
        fn new(me: u32, n: usize) -> Self {
            Recorder {
                me: ProcessId(me),
                n,
                out: None,
            }
        }
    }

    impl Process for Recorder {
        type Msg = Value;
        type Output = Transcript;
        fn step(&mut self, round: u64, inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
            if round == 0 {
                for to in ProcessId::all(self.n) {
                    for tag in tags(self.me.0) {
                        out.send(to, tag);
                    }
                }
            } else {
                self.out = Some(transcript(inbox));
            }
        }
        fn output(&self) -> Option<Transcript> {
            self.out.clone()
        }
        fn halted(&self) -> bool {
            self.out.is_some()
        }
    }

    /// Round 1's faulty inboxes as the adversary saw them, plus whether it
    /// was shown an honest process's inbox.
    type Seen = Rc<RefCell<Vec<(ProcessId, Option<Transcript>)>>>;

    /// Runs `Recorder`s on honest ids {1, 3, 5} of n = 6. The faulty p0,
    /// p2 and p4 send the same tags, highest sender and recipient first,
    /// so only the routing can restore the order.
    fn interleaved_run() -> (RunReport<Transcript>, Seen) {
        let n = 6;
        let honest: BTreeMap<ProcessId, Recorder> = [1, 3, 5]
            .into_iter()
            .map(|i| (ProcessId(i), Recorder::new(i, n)))
            .collect();
        let seen: Seen = Rc::default();
        let log = Rc::clone(&seen);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Value>| match ctx.round {
            0 => {
                let faulty: Vec<ProcessId> = ctx.corrupted.iter().rev().copied().collect();
                for from in faulty {
                    for to in (0..n as u32).rev().map(ProcessId) {
                        for tag in tags(from.0) {
                            ctx.send(from, to, tag);
                        }
                    }
                }
            }
            1 => {
                for id in ProcessId::all(n) {
                    let inbox = ctx.faulty_inboxes.get(&id).map(transcript);
                    log.borrow_mut().push((id, inbox));
                }
            }
            _ => {}
        });
        let report = Runner::with_ids(n, honest, adv).run(5);
        (report, seen)
    }

    /// What every process receives in round 1 of `interleaved_run`.
    fn interleaved_inbox() -> Transcript {
        (0..6)
            .flat_map(|from| tags(from).map(move |v| (from, v.0)))
            .collect()
    }

    #[test]
    fn inboxes_are_ordered_by_sender_and_keep_each_senders_send_order() {
        let (report, _) = interleaved_run();
        assert_eq!(report.outputs.len(), 3);
        for inbox in report.outputs.values() {
            assert_eq!(*inbox, interleaved_inbox());
        }
    }

    #[test]
    fn faulty_inboxes_hold_exactly_last_rounds_envelopes_to_each_corrupted_id() {
        let (_, seen) = interleaved_run();
        let expected: Vec<(ProcessId, Option<Transcript>)> = ProcessId::all(6)
            .map(|id| (id, (id.0 % 2 == 0).then(interleaved_inbox)))
            .collect();
        assert_eq!(*seen.borrow(), expected);
    }

    #[test]
    fn envelopes_to_ids_outside_the_system_are_counted_but_not_delivered() {
        let n = 4;
        let seen: Seen = Rc::default();
        let log = Rc::clone(&seen);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Value>| match ctx.round {
            0 => {
                ctx.send(ProcessId(3), ProcessId(n as u32 + 3), Value(7));
                ctx.send(ProcessId(3), ProcessId(0), Value(8));
            }
            1 => {
                let inbox = ctx.faulty_inboxes.get(&ProcessId(3)).map(transcript);
                log.borrow_mut().push((ProcessId(3), inbox));
            }
            _ => {}
        });
        let honest = (0..3).map(|i| Recorder::new(i, n));
        let report = Runner::new(n, honest, adv).run(5);
        assert_eq!(report.rounds[0].faulty_messages, 2);
        assert_eq!(report.rounds[0].faulty_bytes, 16);
        let from_honest: Transcript = (0..3)
            .flat_map(|from| tags(from).map(move |v| (from, v.0)))
            .collect();
        let mut to_p0 = from_honest.clone();
        to_p0.push((3, 8));
        assert_eq!(report.outputs[&ProcessId(0)], to_p0);
        assert_eq!(report.outputs[&ProcessId(1)], from_honest);
        assert_eq!(report.outputs[&ProcessId(2)], from_honest);
        assert_eq!(*seen.borrow(), vec![(ProcessId(3), Some(from_honest))]);
    }

    #[test]
    fn a_faulty_send_to_the_largest_id_is_counted_once_and_delivered_nowhere() {
        let n = 4;
        let seen: Seen = Rc::default();
        let log = Rc::clone(&seen);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Value>| match ctx.round {
            0 => {
                ctx.send(ProcessId(3), ProcessId(u32::MAX), Value(7));
                ctx.replay(ProcessId(3), ProcessId(u32::MAX), Rc::new(Value(8)));
            }
            1 => {
                let inbox = ctx.faulty_inboxes.get(&ProcessId(3)).map(transcript);
                log.borrow_mut().push((ProcessId(3), inbox));
            }
            _ => {}
        });
        let honest = (0..3).map(|i| Recorder::new(i, n));
        let report = Runner::new(n, honest, adv).run(5);
        assert_eq!(report.rounds[0].faulty_messages, 2);
        assert_eq!(report.rounds[0].faulty_bytes, 16);
        let from_honest: Transcript = (0..3)
            .flat_map(|from| tags(from).map(move |v| (from, v.0)))
            .collect();
        assert!(report.outputs.values().all(|inbox| *inbox == from_honest));
        assert_eq!(*seen.borrow(), vec![(ProcessId(3), Some(from_honest))]);
    }

    #[test]
    fn halted_processes_stop_consuming_and_sending() {
        let n = 3;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        // Protocol halts after round 1; no honest messages afterwards.
        assert!(report.rounds.iter().skip(1).all(|t| t.honest_messages == 0));
        assert!(report.rounds_executed <= 3);
    }

    #[test]
    fn a_faulty_senders_mixed_sends_arrive_in_send_order_everywhere() {
        // Honest p0, p2 and p4 send their tags to everyone in round 0.
        // Faulty p1 mixes full-range and one-recipient sends, one of
        // them to an id outside the system, so it is routed eagerly;
        // faulty p3 only broadcasts, so its sends stay records.
        let n = 5;
        let honest: BTreeMap<ProcessId, Recorder> = [0, 2, 4]
            .into_iter()
            .map(|i| (ProcessId(i), Recorder::new(i, n)))
            .collect();
        let seen: Seen = Rc::default();
        let log = Rc::clone(&seen);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Value>| match ctx.round {
            0 => {
                let (p1, p3) = (ProcessId(1), ProcessId(3));
                ctx.broadcast(p3, Value(301));
                ctx.replay_broadcast(p1, Rc::new(Value(101)));
                ctx.send(p1, ProcessId(4), Value(102));
                ctx.replay(p1, ProcessId(n as u32 + 2), Rc::new(Value(103)));
                ctx.replay_broadcast(p3, Rc::new(Value(302)));
                ctx.broadcast(p1, Value(104));
                ctx.replay(p1, ProcessId(1), Rc::new(Value(105)));
                ctx.send(p1, ProcessId(0), Value(106));
            }
            1 => {
                for &id in ctx.corrupted {
                    let inbox = ctx.faulty_inboxes.get(&id).map(transcript);
                    log.borrow_mut().push((id, inbox));
                }
            }
            _ => {}
        });
        let report = Runner::with_ids(n, honest, adv).run(5);
        let expected = |to: u32| -> Transcript {
            let from_p1 = [
                (101, true),
                (102, to == 4),
                (104, true),
                (105, to == 1),
                (106, to == 0),
            ]
            .into_iter()
            .filter(|&(_, delivered)| delivered)
            .map(|(v, _)| (1, v));
            let honest = |from: u32| tags(from).map(move |v| (from, v.0));
            honest(0)
                .chain(from_p1)
                .chain(honest(2))
                .chain([(3, 301), (3, 302)])
                .chain(honest(4))
                .collect()
        };
        assert_eq!(report.outputs.len(), 3);
        for (id, inbox) in &report.outputs {
            assert_eq!(*inbox, expected(id.0), "{id}");
        }
        let faulty: Vec<(ProcessId, Option<Transcript>)> = [1, 3]
            .into_iter()
            .map(|i| (ProcessId(i), Some(expected(i))))
            .collect();
        assert_eq!(*seen.borrow(), faulty);
    }

    /// The eager routing that `Delivery` replaces for full-range
    /// senders: every envelope written into its recipient's inbox at
    /// routing, senders walked in id order.
    struct EagerDelivery<M> {
        inboxes: Vec<Vec<Envelope<M>>>,
    }

    impl<M> EagerDelivery<M> {
        fn new(n: usize) -> Self {
            EagerDelivery {
                inboxes: (0..n).map(|_| Vec::new()).collect(),
            }
        }

        fn route(&mut self, sent: &mut Vec<Cast<M>>) {
            for inbox in &mut self.inboxes {
                inbox.clear();
            }
            sent.sort_by_key(|send| send.from);
            for send in sent.drain(..) {
                for env in send.envelopes() {
                    if let Some(inbox) = self.inboxes.get_mut(env.to.index()) {
                        inbox.push(env);
                    }
                }
            }
        }
    }

    /// An inbox as `(sender, recipient, payload address)` triples.
    fn addressed(inbox: &[Envelope<u32>]) -> Vec<(u32, u32, *const u32)> {
        inbox
            .iter()
            .map(|e| (e.from.0, e.to.0, Rc::as_ptr(&e.payload)))
            .collect()
    }

    /// Copies of `sends`, sharing their payloads.
    fn copied(sends: &[Cast<u32>]) -> Vec<Cast<u32>> {
        sends
            .iter()
            .map(|send| Cast {
                from: send.from,
                to: send.to.clone(),
                payload: Rc::clone(&send.payload),
            })
            .collect()
    }

    /// Rounds of traffic each property case routes through one `Delivery`.
    const ROUNDS: u64 = 3;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn just_in_time_inboxes_equal_eager_routing(
            n in 1usize..13,
            mask in any::<u16>(),
            honest_ops in proptest::collection::vec((0..ROUNDS, any::<u8>(), any::<u8>(), any::<u32>()), 0..30),
            faulty_ops in proptest::collection::vec((0..ROUNDS, any::<u8>(), any::<u8>(), any::<u32>()), 0..30),
            skipped in any::<u16>(),
        ) {
            // Corrupted ids are the set bits of `mask`; honest ids whose
            // bit is set in `skipped` do not step (they have halted).
            let corrupted: BTreeSet<ProcessId> = ProcessId::all(n)
                .filter(|id| mask >> id.0 & 1 == 1)
                .collect();
            let honest_ids: Vec<ProcessId> = ProcessId::all(n)
                .filter(|id| !corrupted.contains(id))
                .collect();
            let mut delivery = Delivery::new(n, &corrupted);
            let mut eager = EagerDelivery::new(n);
            for round in 0..ROUNDS {
                // Honest traffic through each sender's `Outbox`, senders
                // in id order: `kind` 0 sends to `arg mod n`, 1
                // broadcasts, 2 multicasts to the ids whose bit is set in
                // `arg`, highest first. The first honest id also sends,
                // broadcasts and multicasts every round, so it mixes all
                // three kinds.
                let mut honest: Vec<Cast<u32>> = Vec::new();
                for (i, &from) in honest_ids.iter().enumerate() {
                    let mut out = Outbox::new(from, n);
                    if i == 0 {
                        out.broadcast(round as u32);
                        out.send(ProcessId(round as u32 % n as u32), 1);
                        out.multicast((0..n as u32).rev().map(ProcessId), 2);
                    }
                    let ops = honest_ops
                        .iter()
                        .filter(|op| op.0 == round && usize::from(op.1) % honest_ids.len() == i);
                    for &(_, _, kind, arg) in ops {
                        match kind % 3 {
                            0 => out.send(ProcessId(arg % n as u32), arg),
                            1 => out.broadcast(arg),
                            _ => out.multicast(
                                (0..n as u32).rev().filter(|id| arg >> (id % 32) & 1 == 1).map(ProcessId),
                                arg,
                            ),
                        }
                    }
                    honest.extend(out.into_casts());
                }
                // Faulty traffic through the adversary's API: `kind` 0
                // sends, 1 replays, 2 broadcasts, 3 replay-broadcasts.
                // Replays reuse an honest payload when there is one, and
                // one-recipient sends reach past `n`.
                let mut ctx = AdversaryCtx {
                    round,
                    n,
                    corrupted: &corrupted,
                    faulty_inboxes: FaultyInboxes::new(&mut delivery),
                    honest: &honest,
                    outgoing: Vec::new(),
                };
                let traffic: Vec<Envelope<u32>> = ctx.honest_traffic().collect();
                if !corrupted.is_empty() {
                    let faulty: Vec<ProcessId> = corrupted.iter().copied().collect();
                    for &(_, sel, kind, arg) in faulty_ops.iter().filter(|op| op.0 == round) {
                        let from = faulty[usize::from(sel) % faulty.len()];
                        let to = if arg.is_multiple_of(7) {
                            ProcessId(u32::MAX)
                        } else {
                            ProcessId(arg % (n as u32 + 3))
                        };
                        let replayed = match traffic.get(arg as usize % (traffic.len() + 1)) {
                            Some(env) => Rc::clone(&env.payload),
                            None => Rc::new(arg),
                        };
                        match kind % 4 {
                            0 => ctx.send(from, to, arg),
                            1 => ctx.replay(from, to, replayed),
                            2 => ctx.broadcast(from, arg),
                            _ => ctx.replay_broadcast(from, replayed),
                        }
                    }
                }
                let mut faulty = ctx.outgoing;
                let mut sent = honest;
                sent.append(&mut faulty);
                let mut sent_copy = copied(&sent);
                delivery.route(&mut sent);
                eager.route(&mut sent_copy);
                prop_assert!(sent.is_empty());
                let mut faulty_inboxes = FaultyInboxes::new(&mut delivery);
                for id in &corrupted {
                    let got = faulty_inboxes.get(id).map(addressed);
                    prop_assert_eq!(got, Some(addressed(&eager.inboxes[id.index()])), "round {}, {}", round, id);
                }
                for &id in honest_ids.iter().filter(|id| skipped >> id.0 & 1 == 0) {
                    let got = addressed(delivery.inbox(id));
                    prop_assert_eq!(got, addressed(&eager.inboxes[id.index()]), "round {}, {}", round, id);
                }
            }
        }
    }
}
