//! Order statistics and span self time.

/// Linearly interpolated percentile (`q` in `0..=100`) of `samples`,
/// the rule `numpy.percentile` uses by default. Returns `None` for an
/// empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// How many samples lie strictly above the `q`-th percentile: a
/// percentile is worth reporting only with at least ten of them.
pub fn samples_beyond(samples: &[f64], q: f64) -> usize {
    match percentile(samples, q) {
        Some(p) => samples.iter().filter(|&&s| s > p).count(),
        None => 0,
    }
}

/// One timed interval of a trace, in nanoseconds since the trace epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`session.run`, `process.step`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus its children's
/// durations. The tracer opens every span inside its parent and closes
/// spans innermost first on one thread, so children never overlap each
/// other or outrun their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.duration();
        }
    }
    own
}
