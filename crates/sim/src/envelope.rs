//! Message envelopes and per-round outboxes.

use crate::id::ProcessId;
use crate::wire::WireSize;
use std::ops::Range;
use std::rc::Rc;

/// A message in flight: `payload` sent from `from` to `to` during a round.
///
/// The sender identity is trustworthy: the synchronous model (and any
/// point-to-point authenticated-channel network) lets a receiver attribute
/// a message to the link it arrived on. Byzantine processes may send
/// arbitrary payloads, multiple messages per round, or nothing — but they
/// cannot spoof `from`.
///
/// Payloads are reference-counted so that broadcasting to `n` recipients
/// does not copy the message body `n` times. The count is an [`Rc`], not
/// an `Arc`: a session runs on one thread from start to finish, so
/// envelopes (and every message holding them) are `!Send`, and sharing a
/// payload costs no atomic operation. Parallel sweeps move configs and
/// outcomes between threads, never sessions. State handed to
/// constructors, such as `Arc<Pki>`, stays `Arc` on purpose (see the
/// [crate docs](crate)).
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender identifier (unforgeable).
    pub from: ProcessId,
    /// Recipient identifier.
    pub to: ProcessId,
    /// Shared message body.
    pub payload: Rc<M>,
}

impl<M> Envelope<M> {
    /// Creates an envelope, wrapping the payload.
    pub fn new(from: ProcessId, to: ProcessId, payload: M) -> Self {
        Envelope {
            from,
            to,
            payload: Rc::new(payload),
        }
    }
}

/// One send: `payload` from `from` to every identifier in `to`, kept as
/// one record until the recipients' inboxes are built (see
/// [`crate::Runner`]). A broadcast is one record for recipients `0..n`;
/// a send, a replay and each target of a multicast is a one-recipient
/// record. The range is over `u64` so that a faulty send to
/// `ProcessId(u32::MAX)` has an end.
#[derive(Debug)]
pub(crate) struct Cast<M> {
    pub(crate) from: ProcessId,
    pub(crate) to: Range<u64>,
    pub(crate) payload: Rc<M>,
}

impl<M> Cast<M> {
    /// The envelopes of this send, recipients ascending, identifiers
    /// outside the system included.
    pub(crate) fn envelopes(&self) -> impl Iterator<Item = Envelope<M>> + '_ {
        self.to.clone().map(|to| Envelope {
            from: self.from,
            to: ProcessId(to as u32),
            payload: Rc::clone(&self.payload),
        })
    }
}

impl<M: WireSize> Cast<M> {
    /// `(messages, bytes)`: one message per recipient other than the
    /// sender, identifiers outside the system included, each charged the
    /// payload's [`WireSize`].
    pub(crate) fn remote_cost(&self) -> (u64, u64) {
        let self_copy = self.to.contains(&u64::from(self.from.0));
        let messages = self.to.end - self.to.start - u64::from(self_copy);
        (messages, messages * self.payload.wire_bytes())
    }
}

/// Collects the messages a process sends during one round.
///
/// Obtained inside [`crate::Process::step`]. Each call records one send
/// (a multicast one per target, all sharing the payload); the runner
/// delivers them at the next step.
#[derive(Debug)]
pub struct Outbox<M> {
    me: ProcessId,
    n: usize,
    buf: Vec<Cast<M>>,
}

impl<M> Outbox<M> {
    /// Creates an outbox for process `me` in a system of `n` processes.
    pub fn new(me: ProcessId, n: usize) -> Self {
        Outbox {
            me,
            n,
            buf: Vec::new(),
        }
    }

    /// Sends `msg` to a single recipient.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.push_to(to, Rc::new(msg));
    }

    /// Sends `msg` to every process, including the sender itself.
    ///
    /// The paper's pseudocode (`broadcast aᵢ`, "including from itself",
    /// Algorithm 2) assumes self-delivery; message *counting* excludes the
    /// self-copy (see [`crate::RunReport`]).
    pub fn broadcast(&mut self, msg: M) {
        self.push(0..self.n as u64, Rc::new(msg));
    }

    /// Sends `msg` to every process in `targets`, in order, all sharing
    /// one payload.
    pub fn multicast<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        let payload = Rc::new(msg);
        for to in targets {
            self.push_to(to, Rc::clone(&payload));
        }
    }

    fn push_to(&mut self, to: ProcessId, payload: Rc<M>) {
        debug_assert!(to.index() < self.n, "recipient {to} out of range");
        let to = u64::from(to.0);
        self.push(to..to + 1, payload);
    }

    /// Records one send from this outbox's owner.
    pub(crate) fn push(&mut self, to: Range<u64>, payload: Rc<M>) {
        self.buf.push(Cast {
            from: self.me,
            to,
            payload,
        });
    }

    /// Whether nothing has been sent this round.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The sending process.
    pub fn sender(&self) -> ProcessId {
        self.me
    }

    /// The system size this outbox addresses.
    pub fn system_size(&self) -> usize {
        self.n
    }

    /// Consumes the outbox, returning one envelope per recipient of each
    /// send, in send order and, within a broadcast, recipients ascending.
    pub fn into_envelopes(self) -> Vec<Envelope<M>> {
        self.buf.iter().flat_map(Cast::envelopes).collect()
    }

    /// Consumes the outbox, returning its sends in send order.
    pub(crate) fn into_casts(self) -> Vec<Cast<M>> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_records_addressing() {
        let mut out: Outbox<u32> = Outbox::new(ProcessId(1), 4);
        out.send(ProcessId(3), 42);
        let env = &out.into_envelopes()[0];
        assert_eq!(env.from, ProcessId(1));
        assert_eq!(env.to, ProcessId(3));
        assert_eq!(*env.payload, 42);
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let mut out: Outbox<&str> = Outbox::new(ProcessId(0), 3);
        out.broadcast("hi");
        let envs = out.into_envelopes();
        let targets: Vec<u32> = envs.iter().map(|e| e.to.0).collect();
        assert_eq!(targets, vec![0, 1, 2]);
    }

    #[test]
    fn broadcast_shares_one_payload_allocation() {
        let mut out: Outbox<String> = Outbox::new(ProcessId(0), 5);
        out.broadcast("shared".to_string());
        let envs = out.into_envelopes();
        // All five envelopes point at the same allocation: 5 strong refs.
        assert_eq!(Rc::strong_count(&envs[0].payload), 5);
    }

    #[test]
    fn multicast_hits_exactly_the_targets() {
        let mut out: Outbox<u8> = Outbox::new(ProcessId(2), 6);
        out.multicast([ProcessId(1), ProcessId(4)], 7);
        let envs = out.into_envelopes();
        assert_eq!(envs.len(), 2);
        assert!(envs.iter().all(|e| *e.payload == 7));
    }

    #[test]
    fn empty_outbox_reports_empty() {
        let mut out: Outbox<u8> = Outbox::new(ProcessId(0), 2);
        assert!(out.is_empty());
        out.multicast([], 1);
        assert!(out.is_empty());
        out.send(ProcessId(1), 2);
        assert!(!out.is_empty());
    }

    #[test]
    fn a_broadcast_is_one_record_and_a_multicast_one_per_target() {
        let mut out: Outbox<u8> = Outbox::new(ProcessId(1), 5);
        out.broadcast(1);
        out.multicast([ProcessId(4), ProcessId(0)], 2);
        out.send(ProcessId(2), 3);
        let sends: Vec<(Range<u64>, u8)> = out
            .into_casts()
            .into_iter()
            .map(|send| (send.to, *send.payload))
            .collect();
        assert_eq!(sends, [(0..5, 1), (4..5, 2), (0..1, 2), (2..3, 3)]);
    }
}
