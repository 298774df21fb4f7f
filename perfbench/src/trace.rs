//! In-memory span recording, plus timing adapters that wrap a
//! [`Process`] and an [`Adversary`] so a hand-driven [`Runner`] reports
//! where each round's time goes.
//!
//! Spans are taken from outside the library, around calls into its
//! public functions; the library itself is not instrumented.
//!
//! [`Runner`]: ba_predictions::ba_sim::Runner

use crate::stats::{self_times, Span};
use ba_predictions::ba_sim::{Adversary, AdversaryCtx, Envelope, Outbox, Process};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Records nested spans against a common epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// The recorded spans and counters.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        assert!(self.open.is_empty(), "every span must be closed");
        (self.spans, self.counters)
    }
}

/// Total and self time and the number of spans, per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Summed span durations, in nanoseconds.
    pub total: u64,
    /// Summed self times, in nanoseconds.
    pub self_time: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Aggregates spans by name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let layer = out.entry(span.name).or_default();
        layer.total += span.duration();
        layer.self_time += own;
        layer.calls += 1;
    }
    out
}

/// A tracer shared between the driving loop and the timing adapters.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Wraps an honest [`Process`]: each `step` becomes a `process.step`
/// span, and its inbox size is counted.
pub struct Timed<P> {
    inner: P,
    tracer: SharedTracer,
}

impl<P> Timed<P> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: P, tracer: SharedTracer) -> Self {
        Timed { inner, tracer }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Process> Process for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step(&mut self, round: u64, inbox: &[Envelope<P::Msg>], out: &mut Outbox<P::Msg>) {
        let id = self.tracer.borrow_mut().enter("process.step");
        self.inner.step(round, inbox, out);
        let mut tracer = self.tracer.borrow_mut();
        tracer.exit(id);
        tracer.count("process.inbox_envelopes", inbox.len() as u64);
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }
}

/// Wraps an [`Adversary`]: each `act` becomes an `adversary.act` span.
pub struct TimedAdversary<A> {
    inner: A,
    tracer: SharedTracer,
}

impl<A> TimedAdversary<A> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: A, tracer: SharedTracer) -> Self {
        TimedAdversary { inner, tracer }
    }
}

impl<M, A: Adversary<M>> Adversary<M> for TimedAdversary<A> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        let id = self.tracer.borrow_mut().enter("adversary.act");
        self.inner.act(ctx);
        self.tracer.borrow_mut().exit(id);
    }
}
