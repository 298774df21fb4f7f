//! Embedding one protocol inside another.
//!
//! Higher-level protocols (the paper's Algorithm 5 and the Algorithm-1
//! wrapper) run sub-protocols in tagged slots: every sub-protocol message
//! travels wrapped in the outer protocol's message enum, carrying the
//! slot tag, so Byzantine replay across slots or phases is inert — an
//! honest process simply never routes a mis-tagged message into a live
//! sub-protocol.
//!
//! [`step_sub`] keeps that routing cheap, with constant work per
//! envelope and no buffer regrowth:
//!
//! * inner payloads stay behind their `Rc`;
//! * the sub-inbox is allocated once, at the first envelope that passes
//!   the filter, with room for every envelope left, and not at all when
//!   none passes;
//! * each sub-protocol send is one record (a broadcast one for all
//!   recipients), wrapped once and handed on as one record.

use crate::envelope::{Envelope, Outbox};
use crate::process::Process;
use std::rc::Rc;

/// Steps the embedded sub-protocol `sub` at its local round `local`.
///
/// `extract` projects the outer inbox onto the sub-protocol's: it returns
/// the inner payload of messages addressed to this sub-protocol (its
/// slot, phase, or lane) and `None` for everything else, which is
/// discarded. Every send `sub` makes is recorded in `out` to the same
/// recipients, its payload wrapped by `wrap` once per send, so a
/// broadcast's recipients share one outer allocation. The sub-protocol
/// sends as `out`'s owner in a system of `out`'s size.
pub fn step_sub<P: Process, M>(
    sub: &mut P,
    local: u64,
    inbox: &[Envelope<M>],
    out: &mut Outbox<M>,
    mut extract: impl FnMut(&M) -> Option<Rc<P::Msg>>,
    mut wrap: impl FnMut(Rc<P::Msg>) -> M,
) {
    let mut lift = |env: &Envelope<M>| {
        extract(&env.payload).map(|payload| Envelope {
            from: env.from,
            to: env.to,
            payload,
        })
    };
    let mut rest = inbox.iter();
    let sub_inbox = match rest.by_ref().find_map(&mut lift) {
        None => Vec::new(),
        Some(first) => {
            let mut sub_inbox = Vec::with_capacity(1 + rest.len());
            sub_inbox.push(first);
            sub_inbox.extend(rest.filter_map(lift));
            sub_inbox
        }
    };
    let mut sub_out = Outbox::new(out.sender(), out.system_size());
    sub.step(local, &sub_inbox, &mut sub_out);
    for send in sub_out.into_casts() {
        out.push(send.to, Rc::new(wrap(send.payload)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ProcessId;

    #[derive(Clone, Debug, PartialEq)]
    enum Outer {
        A(Rc<u32>),
        B(Rc<u32>),
    }

    /// Records what it receives and, when stepped, sends its script:
    /// `(Some(to), v)` to one recipient, `(None, v)` to everyone.
    #[derive(Default)]
    struct Scripted {
        seen: Vec<(ProcessId, u32)>,
        script: Vec<(Option<ProcessId>, u32)>,
    }

    impl Process for Scripted {
        type Msg = u32;
        type Output = ();
        fn step(&mut self, _round: u64, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
            self.seen
                .extend(inbox.iter().map(|env| (env.from, *env.payload)));
            for (to, v) in self.script.drain(..) {
                match to {
                    Some(to) => out.send(to, v),
                    None => out.broadcast(v),
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

    fn only_a(m: &Outer) -> Option<Rc<u32>> {
        match m {
            Outer::A(x) => Some(Rc::clone(x)),
            Outer::B(_) => None,
        }
    }

    #[test]
    fn step_sub_filters_and_unwraps() {
        let inbox = vec![
            Envelope::new(ProcessId(0), ProcessId(1), Outer::A(Rc::new(10))),
            Envelope::new(ProcessId(2), ProcessId(1), Outer::B(Rc::new(20))),
        ];
        let mut sub = Scripted::default();
        let mut out: Outbox<Outer> = Outbox::new(ProcessId(1), 3);
        step_sub(&mut sub, 0, &inbox, &mut out, only_a, Outer::A);
        assert_eq!(sub.seen, vec![(ProcessId(0), 10)]);
        assert!(out.is_empty());
    }

    #[test]
    fn step_sub_wraps_and_shares_allocations() {
        let mut sub = Scripted {
            script: vec![(None, 7)],
            ..Scripted::default()
        };
        let mut out: Outbox<Outer> = Outbox::new(ProcessId(0), 3);
        step_sub(&mut sub, 0, &[], &mut out, only_a, Outer::A);
        let envs = out.into_envelopes();
        assert_eq!(envs.len(), 3);
        assert!(envs.iter().all(|env| env.from == ProcessId(0)));
        // One outer allocation shared by all three envelopes.
        assert!(envs
            .windows(2)
            .all(|w| Rc::ptr_eq(&w[0].payload, &w[1].payload)));
        assert!(matches!(&*envs[0].payload, Outer::A(x) if **x == 7));
    }

    #[test]
    fn step_sub_distinguishes_distinct_payloads() {
        let mut sub = Scripted {
            script: vec![(Some(ProcessId(0)), 1), (Some(ProcessId(2)), 2)],
            ..Scripted::default()
        };
        let mut out: Outbox<Outer> = Outbox::new(ProcessId(1), 4);
        step_sub(&mut sub, 0, &[], &mut out, only_a, Outer::B);
        let envs = out.into_envelopes();
        assert_eq!(envs.len(), 2);
        assert!(!Rc::ptr_eq(&envs[0].payload, &envs[1].payload));
        assert_eq!(envs[0].to, ProcessId(0));
        assert!(matches!(&*envs[0].payload, Outer::B(x) if **x == 1));
        assert!(matches!(&*envs[1].payload, Outer::B(x) if **x == 2));
    }
}
