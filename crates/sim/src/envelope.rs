//! Message envelopes and per-round outboxes.

use crate::id::ProcessId;
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

/// Collects the messages a process sends during one round.
///
/// Obtained inside [`crate::Process::step`]; the runner routes the buffered
/// envelopes for delivery at the next step.
#[derive(Debug)]
pub struct Outbox<M> {
    me: ProcessId,
    n: usize,
    buf: Vec<Envelope<M>>,
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
        debug_assert!(to.index() < self.n, "recipient {to} out of range");
        self.buf.push(Envelope::new(self.me, to, msg));
    }

    /// Sends `msg` to every process, including the sender itself.
    ///
    /// The paper's pseudocode (`broadcast aᵢ`, "including from itself",
    /// Algorithm 2) assumes self-delivery; message *counting* excludes the
    /// self-copy (see [`crate::RunReport`]).
    pub fn broadcast(&mut self, msg: M) {
        self.fan_out(ProcessId::all(self.n), msg);
    }

    /// Sends `msg` to every process in `targets`.
    pub fn multicast<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        let n = self.n;
        let targets = targets.into_iter().inspect(|to| {
            debug_assert!(to.index() < n, "recipient {to} out of range");
        });
        self.fan_out(targets, msg);
    }

    /// Appends one envelope to each recipient in `to`, in order, all
    /// sharing one payload: the fan-out behind broadcast and multicast.
    /// It reserves once for the recipients the iterator reports and
    /// extends, so a broadcast costs `n` reference increments and one
    /// growth check.
    fn fan_out(&mut self, to: impl IntoIterator<Item = ProcessId>, msg: M) {
        let (from, payload) = (self.me, Rc::new(msg));
        let to = to.into_iter();
        self.buf.reserve(to.size_hint().0);
        self.buf.extend(to.map(|to| Envelope {
            from,
            to,
            payload: Rc::clone(&payload),
        }));
    }

    /// Number of envelopes buffered so far this round.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no envelope has been buffered this round.
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

    /// Pushes a pre-built envelope (used by protocol-composition helpers).
    ///
    /// # Panics
    ///
    /// Panics if the envelope's sender is not this outbox's owner: honest
    /// composition layers must not spoof senders any more than the
    /// adversary may.
    pub fn push_envelope(&mut self, env: Envelope<M>) {
        assert_eq!(env.from, self.me, "outbox owner mismatch");
        debug_assert!(env.to.index() < self.n, "recipient {} out of range", env.to);
        self.buf.push(env);
    }

    /// Consumes the outbox, returning the buffered envelopes.
    pub fn into_envelopes(self) -> Vec<Envelope<M>> {
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
        let out: Outbox<u8> = Outbox::new(ProcessId(0), 2);
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
    }
}
