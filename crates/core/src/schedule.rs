//! The guess-and-double phase schedule of Algorithm 1 (§5).
//!
//! The wrapper runs `⌈log₂ t⌉ + 1` phases; phase `φ` (1-based) uses the
//! error budget `k = 2^{φ−1}` and consists of five sub-protocol slots:
//! graded consensus, early-stopping BA (time-boxed), graded consensus,
//! conditional BA with classification (time-boxed), graded consensus. A
//! classification slot (Algorithm 2) precedes phase 1.
//!
//! All processes derive the identical schedule from `(n, t)` and the
//! pipeline's round costs, so the lockstep windows line up exactly — the
//! paper's "every process synchronously spends T time on the
//! sub-protocol" (§5, footnote 4). Sub-protocols whose structural
//! preconditions cannot hold at a given `k` (e.g. Algorithm 5's
//! `(2k+1)(3k+1) ≤ n` block layout) are *skipped deterministically*,
//! which every process again computes identically.
//!
//! Slot boundaries overlap by one step: a `d`-round slot starting at step
//! `b` produces its output while receiving step `b + d`'s messages, the
//! same step in which the next slot broadcasts for the first time.

/// What runs in one schedule slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// Algorithm 2, once, up front.
    Classify,
    /// Graded consensus protecting validity before the early-stopping BA
    /// (line 6).
    GcA {
        /// 1-based phase number.
        phase: u16,
    },
    /// Early-stopping BA with fault budget `k` (line 7).
    Es {
        /// 1-based phase number.
        phase: u16,
        /// Fault budget `k = 2^{φ−1}` (the protocol caps it at `t`).
        k: usize,
    },
    /// Graded consensus between the two conditional BAs (line 9).
    GcB {
        /// 1-based phase number.
        phase: u16,
    },
    /// Conditional BA with classification and error budget `k` (line 10).
    Class {
        /// 1-based phase number.
        phase: u16,
        /// Error budget `k = 2^{φ−1}`.
        k: usize,
    },
    /// Graded consensus checking for agreement (line 12).
    GcC {
        /// 1-based phase number.
        phase: u16,
    },
}

/// One scheduled slot.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// What runs.
    pub kind: SlotKind,
    /// Unique index — doubles as the session tag binding the slot's
    /// signatures in authenticated pipelines.
    pub idx: u16,
    /// First step (the slot's round-1 sends happen here).
    pub start: u64,
    /// Output step (= the next slot's `start`).
    pub end: u64,
}

/// The complete deterministic schedule of one wrapper execution.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Slots in execution order.
    pub slots: Vec<Slot>,
    /// Number of phases `⌈log₂ t⌉ + 1`.
    pub phases: u16,
    /// Total steps: the last slot's `end` (the final output step).
    pub total_steps: u64,
}

/// `⌈log₂ t⌉ + 1`, with the degenerate cases `t ∈ {0, 1}` mapped to one
/// phase.
pub fn phase_count(t: usize) -> u16 {
    if t <= 1 {
        1
    } else {
        (usize::BITS - (t - 1).leading_zeros()) as u16 + 1
    }
}

/// The error budget of a 1-based phase: `k = 2^{φ−1}`.
pub fn phase_budget(phase: u16) -> usize {
    1usize << (phase - 1)
}

impl Schedule {
    /// Builds the schedule from the pipeline's round costs.
    ///
    /// * `gc_rounds` — rounds of one graded consensus;
    /// * `es_rounds(k)` — rounds of the early-stopping BA at budget `k`;
    /// * `class_rounds(k)` — rounds of the conditional BA at budget `k`,
    ///   or `None` when the slot must be skipped at this `k`.
    pub fn build(
        t: usize,
        gc_rounds: u64,
        es_rounds: impl Fn(usize) -> u64,
        class_rounds: impl Fn(usize) -> Option<u64>,
    ) -> Self {
        let phases = phase_count(t);
        let mut slots = Vec::new();
        let mut cursor = 0u64;
        let mut idx = 0u16;
        let mut push = |kind: SlotKind, dur: u64| {
            slots.push(Slot {
                kind,
                idx,
                start: cursor,
                end: cursor + dur,
            });
            cursor += dur;
            idx += 1;
        };
        push(SlotKind::Classify, 1);
        for phase in 1..=phases {
            let k = phase_budget(phase);
            push(SlotKind::GcA { phase }, gc_rounds);
            push(SlotKind::Es { phase, k }, es_rounds(k));
            push(SlotKind::GcB { phase }, gc_rounds);
            if let Some(dur) = class_rounds(k) {
                push(SlotKind::Class { phase, k }, dur);
            }
            push(SlotKind::GcC { phase }, gc_rounds);
        }
        Schedule {
            slots,
            phases,
            total_steps: cursor,
        }
    }

    /// The slot active at `step` (the one whose `[start, end)` window
    /// contains it), if any.
    pub fn slot_at(&self, step: u64) -> Option<&Slot> {
        self.slots.iter().find(|s| s.start <= step && step < s.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_count_matches_ceil_log2_plus_one() {
        assert_eq!(phase_count(0), 1);
        assert_eq!(phase_count(1), 1);
        assert_eq!(phase_count(2), 2);
        assert_eq!(phase_count(3), 3, "⌈log₂ 3⌉ + 1 = 3");
        assert_eq!(phase_count(4), 3);
        assert_eq!(phase_count(5), 4);
        assert_eq!(phase_count(16), 5);
        assert_eq!(phase_count(17), 6);
    }

    #[test]
    fn budgets_double() {
        assert_eq!(phase_budget(1), 1);
        assert_eq!(phase_budget(2), 2);
        assert_eq!(phase_budget(5), 16);
    }

    #[test]
    fn slots_are_contiguous_and_indexed() {
        let s = Schedule::build(
            4,
            2,
            |k| 5 * (k as u64 + 2),
            |k| Some(5 * (2 * k as u64 + 1)),
        );
        assert_eq!(s.phases, 3);
        // Classify + 3 phases × 5 slots.
        assert_eq!(s.slots.len(), 1 + 3 * 5);
        for (i, w) in s.slots.windows(2).enumerate() {
            assert_eq!(w[0].end, w[1].start, "gap after slot {i}");
        }
        let idxs: Vec<u16> = s.slots.iter().map(|s| s.idx).collect();
        let expect: Vec<u16> = (0..s.slots.len() as u16).collect();
        assert_eq!(idxs, expect);
        assert_eq!(s.total_steps, s.slots.last().unwrap().end);
    }

    #[test]
    fn skipped_class_slots_are_absent_consistently() {
        let s = Schedule::build(8, 2, |_| 10, |k| (k <= 2).then_some(5));
        let class_phases: Vec<u16> = s
            .slots
            .iter()
            .filter_map(|s| match s.kind {
                SlotKind::Class { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        assert_eq!(class_phases, vec![1, 2], "k = 4, 8 skipped");
    }

    #[test]
    fn slot_at_finds_the_window() {
        let s = Schedule::build(2, 2, |_| 5, |_| Some(5));
        let slot = s.slot_at(0).unwrap();
        assert_eq!(slot.kind, SlotKind::Classify);
        let slot = s.slot_at(1).unwrap();
        assert!(matches!(slot.kind, SlotKind::GcA { phase: 1 }));
        assert!(s.slot_at(s.total_steps).is_none());
    }
}
