//! Type-erased session handles: one engine for every message type.
//!
//! Each protocol family in this workspace exchanges its own message type
//! (`WrapperMsg<K>`, `BbBatch`, `PhaseKingMsg`, …), so a [`Runner`] is
//! generic over it — and any harness that wants to treat protocols
//! uniformly ends up duplicating its setup/measure logic per message
//! type. This module erases the type: a fully built session (honest
//! process map plus adversary) is boxed behind the object-safe
//! [`ErasedSession`] trait, whose surface is exactly what a harness
//! needs — run to completion, then probe per-process state.
//!
//! The probe channel is deliberately monomorphic (`Vec<bool>` per
//! process): the only cross-protocol white-box observation the
//! experiment harness makes is each process's classification bit
//! vector, and erasing it as plain bools keeps `ba-sim` free of
//! higher-layer types.

use crate::adversary::Adversary;
use crate::envelope::{Envelope, Outbox};
use crate::id::{ProcessId, Value};
use crate::process::Process;
use crate::runner::{RunReport, Runner};
use std::collections::BTreeMap;

/// Object-safe handle to a fully built session with the protocol's
/// message type erased. Produced by [`erase`].
pub trait ErasedSession {
    /// Runs until every honest process halts or `max_rounds` is
    /// reached, returning the report.
    fn run(&mut self, max_rounds: u64) -> RunReport<Value>;

    /// Post-run white-box probe: per-process observation bits for every
    /// honest process whose probe produced a value (e.g. classification
    /// vectors). Empty when the protocol has nothing to report.
    fn probes(&self) -> Vec<(ProcessId, Vec<bool>)>;
}

struct TypedSession<P: Process<Output = Value>, A, F> {
    runner: Runner<P, A>,
    honest_ids: Vec<ProcessId>,
    probe: F,
}

impl<P, A, F> ErasedSession for TypedSession<P, A, F>
where
    P: Process<Output = Value>,
    A: Adversary<P::Msg>,
    F: Fn(&P) -> Option<Vec<bool>>,
{
    fn run(&mut self, max_rounds: u64) -> RunReport<Value> {
        self.runner.run(max_rounds)
    }

    fn probes(&self) -> Vec<(ProcessId, Vec<bool>)> {
        self.honest_ids
            .iter()
            .filter_map(|&id| {
                self.runner
                    .process(id)
                    .and_then(|p| (self.probe)(p))
                    .map(|bits| (id, bits))
            })
            .collect()
    }
}

/// Boxes a concrete session behind [`ErasedSession`].
///
/// `probe` extracts the post-run observation bits from one honest
/// process (return `None` for protocols without any, or before the
/// state exists).
pub fn erase<P, A, F>(
    n: usize,
    honest: BTreeMap<ProcessId, P>,
    adversary: A,
    probe: F,
) -> Box<dyn ErasedSession>
where
    P: Process<Output = Value> + 'static,
    A: Adversary<P::Msg> + 'static,
    F: Fn(&P) -> Option<Vec<bool>> + 'static,
{
    let honest_ids: Vec<ProcessId> = honest.keys().copied().collect();
    Box::new(TypedSession {
        runner: Runner::with_ids(n, honest, adversary),
        honest_ids,
        probe,
    })
}

/// Adapts a [`Process`] whose output is not [`Value`] by mapping its
/// output — e.g. collapsing a rich protocol result to the decided value
/// so it can run under an [`ErasedSession`].
pub struct MapOutput<P, F> {
    inner: P,
    f: F,
}

impl<P, F> MapOutput<P, F> {
    /// Wraps `inner`, translating outputs through `f`.
    pub fn new(inner: P, f: F) -> Self {
        MapOutput { inner, f }
    }

    /// The wrapped process (for white-box probes).
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P, O, F> Process for MapOutput<P, F>
where
    P: Process,
    O: Clone,
    F: Fn(&P::Output) -> O,
{
    type Msg = P::Msg;
    type Output = O;

    fn step(&mut self, round: u64, inbox: &[Envelope<Self::Msg>], out: &mut Outbox<Self::Msg>) {
        self.inner.step(round, inbox, out);
    }

    fn output(&self) -> Option<O> {
        self.inner.output().map(|o| (self.f)(&o))
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SilentAdversary;

    /// Broadcast once, output the min (the runner-test workhorse).
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

    fn session(n: usize, honest: usize) -> Box<dyn ErasedSession> {
        let map: BTreeMap<ProcessId, MinEcho> = (0..honest)
            .map(|i| {
                (
                    ProcessId(i as u32),
                    MinEcho {
                        mine: Value(100 + i as u64),
                        out: None,
                    },
                )
            })
            .collect();
        erase(n, map, SilentAdversary, |p: &MinEcho| {
            p.out.map(|v| vec![v == Value(100)])
        })
    }

    #[test]
    fn erased_session_runs_and_reports() {
        let mut s = session(5, 5);
        let report = s.run(10);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(100)));
    }

    #[test]
    fn probes_surface_per_process_bits() {
        let mut s = session(4, 3);
        assert!(s.probes().iter().all(|(_, bits)| !bits.is_empty()));
        let _ = s.run(10);
        let probes = s.probes();
        assert_eq!(probes.len(), 3);
        assert!(probes.iter().all(|(_, bits)| bits == &vec![true]));
    }

    #[test]
    fn erased_sessions_with_different_message_types_coexist() {
        struct Unit {
            done: bool,
        }
        impl Process for Unit {
            type Msg = ();
            type Output = Value;
            fn step(&mut self, _r: u64, _i: &[Envelope<()>], _o: &mut Outbox<()>) {
                self.done = true;
            }
            fn output(&self) -> Option<Value> {
                self.done.then_some(Value(0))
            }
            fn halted(&self) -> bool {
                self.done
            }
        }
        let unit: BTreeMap<ProcessId, Unit> =
            [(ProcessId(0), Unit { done: false })].into_iter().collect();
        let mut sessions: Vec<Box<dyn ErasedSession>> = vec![
            session(4, 4),
            erase(1, unit, SilentAdversary, |_: &Unit| None),
        ];
        let reports: Vec<_> = sessions.iter_mut().map(|s| s.run(10)).collect();
        assert!(reports.iter().all(|r| r.all_decided()));
        assert!(sessions[1].probes().is_empty());
    }

    #[test]
    fn map_output_translates_and_preserves_halting() {
        struct Rich;
        impl Process for Rich {
            type Msg = ();
            type Output = (Value, u8);
            fn step(&mut self, _r: u64, _i: &[Envelope<()>], _o: &mut Outbox<()>) {}
            fn output(&self) -> Option<(Value, u8)> {
                Some((Value(9), 2))
            }
            fn halted(&self) -> bool {
                true
            }
        }
        let mut mapped = MapOutput::new(Rich, |(v, _): &(Value, u8)| *v);
        let mut out = Outbox::new(ProcessId(0), 1);
        mapped.step(0, &[], &mut out);
        assert_eq!(mapped.output(), Some(Value(9)));
        assert!(mapped.halted());
        assert_eq!(mapped.inner().output(), Some((Value(9), 2)));
    }

    #[test]
    fn probes_before_run_reflect_current_state() {
        let s = session(4, 2);
        // MinEcho has no output before running, so probes are empty.
        assert!(s.probes().is_empty());
    }
}
