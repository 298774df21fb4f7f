//! Prediction and fault-set generators.
//!
//! The theorems of the paper are parameterized by the *number* of wrong
//! prediction bits `B`; how those bits are placed decides how much damage
//! they do. Every generator here spends an exact budget (or saturates and
//! reports it), so the bench sweeps control `B` precisely.

use ba_core::prediction::PredictionMatrix;
use ba_sim::ProcessId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// How a fault set is placed among the identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultIds {
    /// The highest identifiers (last in every priority order prefix —
    /// kindest to the classification machinery).
    Tail,
    /// The lowest identifiers (inside the first listen blocks — the
    /// adversarial placement for identity-like orderings).
    Head,
    /// Evenly spread.
    Spread,
    /// Adjacent pairs aligned to the width-4 listen blocks of the
    /// `k = 1` phases (`{0,1}, {4,5}, {8,9}, …`). Two colluding members
    /// inside one block are what lets the worst-case disruptor forge
    /// grade-1 outcomes of Algorithm 3 for half the processes and keep
    /// honest values split across phases.
    Pairs,
}

/// Builds a fault set of size `f`.
pub fn faults(n: usize, f: usize, placement: FaultIds) -> BTreeSet<ProcessId> {
    assert!(f <= n);
    match placement {
        FaultIds::Tail => ((n - f)..n).map(|i| ProcessId(i as u32)).collect(),
        FaultIds::Head => (0..f).map(|i| ProcessId(i as u32)).collect(),
        FaultIds::Spread => {
            if f == 0 {
                return BTreeSet::new();
            }
            (0..f).map(|i| ProcessId(((i * n) / f) as u32)).collect()
        }
        FaultIds::Pairs => {
            let mut ids = BTreeSet::new();
            let mut base = 0usize;
            while ids.len() < f && base + 1 < n {
                ids.insert(ProcessId(base as u32));
                if ids.len() < f {
                    ids.insert(ProcessId(base as u32 + 1));
                }
                base += 4;
            }
            // Fill up from the tail if the pair pattern ran out of room.
            let mut tail = n;
            while ids.len() < f {
                tail -= 1;
                ids.insert(ProcessId(tail as u32));
            }
            ids
        }
    }
}

/// Where the wrong bits go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorPlacement {
    /// Uniformly random wrong bits across honest rows and targets.
    Uniform,
    /// Concentrated per target: spend enough bits on one process to flip
    /// its classification before moving to the next — the placement that
    /// maximizes misclassified processes per wrong bit (the paper's
    /// worst case, `k_A ≈ B / (n/2 − f)`).
    Concentrated,
    /// Only missed detections (`B_F`): faulty processes predicted honest.
    MissedFaultsOnly,
    /// Only false accusations (`B_H`): honest processes predicted faulty.
    FalseAccusationsOnly,
    /// The adversarially optimal spend: concentrate exactly
    /// `⌈(n+1)/2⌉ − f` missed-detection bits on one faulty target after
    /// another (in identifier order), so that — with the coalition
    /// voting "everyone is honest" during classification — each fully
    /// funded target becomes *trusted by every honest process* at the
    /// cheapest possible price (Observation 1 of the paper).
    TrustedFaults,
}

/// Builds a prediction matrix with exactly `budget` wrong bits (or the
/// maximum the placement admits, whichever is smaller). Returns the
/// matrix; the actual spent budget can be re-measured with
/// [`PredictionMatrix::total_errors`].
pub fn predictions_with_budget(
    n: usize,
    faulty: &BTreeSet<ProcessId>,
    budget: usize,
    placement: ErrorPlacement,
    seed: u64,
) -> PredictionMatrix {
    let mut m = PredictionMatrix::perfect(n, faulty);
    let honest: Vec<ProcessId> = ProcessId::all(n).filter(|p| !faulty.contains(p)).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_ba11);
    let mut remaining = budget;

    let flip = |m: &mut PredictionMatrix, row: ProcessId, col: usize, remaining: &mut usize| {
        if *remaining == 0 {
            return false;
        }
        let cur = m.row(row).get(col);
        m.row_mut(row).set(col, !cur);
        *remaining -= 1;
        true
    };

    // Flips the honest rows' bits in `cols`, one (row, column) cell at a
    // time in a seed-shuffled order, until the budget is spent or every
    // such bit is wrong.
    let shuffle_and_flip =
        |m: &mut PredictionMatrix, cols: &[usize], rng: &mut StdRng, remaining: &mut usize| {
            let mut cells: Vec<(ProcessId, usize)> = honest
                .iter()
                .flat_map(|&r| cols.iter().map(move |&c| (r, c)))
                .collect();
            cells.shuffle(rng);
            for (r, c) in cells {
                if !flip(m, r, c, remaining) {
                    break;
                }
            }
        };

    match placement {
        ErrorPlacement::Uniform => {
            let all: Vec<usize> = (0..n).collect();
            shuffle_and_flip(&mut m, &all, &mut rng, &mut remaining);
        }
        ErrorPlacement::Concentrated => {
            // Walk targets in a seed-shuffled order; for each, flip the
            // bit in every honest row (a fully-flipped target is
            // misclassified everywhere).
            let mut targets: Vec<usize> = (0..n).collect();
            targets.shuffle(&mut rng);
            'outer: for c in targets {
                for &r in &honest {
                    if remaining == 0 {
                        break 'outer;
                    }
                    flip(&mut m, r, c, &mut remaining);
                }
            }
        }
        ErrorPlacement::MissedFaultsOnly => {
            let cols: Vec<usize> = faulty.iter().map(|p| p.index()).collect();
            shuffle_and_flip(&mut m, &cols, &mut rng, &mut remaining);
        }
        ErrorPlacement::FalseAccusationsOnly => {
            let cols: Vec<usize> = honest.iter().map(|p| p.index()).collect();
            shuffle_and_flip(&mut m, &cols, &mut rng, &mut remaining);
        }
        ErrorPlacement::TrustedFaults => {
            // Observation 1: flipping a faulty target to "trusted
            // everywhere" costs ⌈(n+1)/2⌉ − f wrong honest bits when the
            // f coalition votes endorse it.
            let per_target =
                (n.div_ceil(2) + usize::from(n.is_multiple_of(2))).saturating_sub(faulty.len());
            'outer: for col in faulty.iter().map(|p| p.index()) {
                for &r in honest.iter().take(per_target) {
                    if remaining == 0 {
                        break 'outer;
                    }
                    flip(&mut m, r, col, &mut remaining);
                }
            }
        }
    }
    let _ = rng.gen::<u8>(); // keep the stream length placement-dependent
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_placements() {
        let tail = faults(10, 3, FaultIds::Tail);
        assert!(tail.contains(&ProcessId(9)) && tail.contains(&ProcessId(7)));
        let head = faults(10, 3, FaultIds::Head);
        assert!(head.contains(&ProcessId(0)) && head.contains(&ProcessId(2)));
        let spread = faults(10, 2, FaultIds::Spread);
        assert_eq!(spread.len(), 2);
        assert!(faults(5, 0, FaultIds::Spread).is_empty());
    }

    #[test]
    fn budget_is_spent_exactly() {
        let f = faults(15, 3, FaultIds::Tail);
        for placement in [
            ErrorPlacement::Uniform,
            ErrorPlacement::Concentrated,
            ErrorPlacement::MissedFaultsOnly,
            ErrorPlacement::FalseAccusationsOnly,
        ] {
            let m = predictions_with_budget(15, &f, 20, placement, 7);
            assert_eq!(
                m.total_errors(&f),
                20,
                "{placement:?} spent a different budget"
            );
        }
    }

    #[test]
    fn budget_saturates_at_capacity() {
        // MissedFaultsOnly capacity: honest_rows × f = 12 × 3 = 36.
        let f = faults(15, 3, FaultIds::Tail);
        let m = predictions_with_budget(15, &f, 1000, ErrorPlacement::MissedFaultsOnly, 7);
        let (bf, bh) = m.error_counts(&f);
        assert_eq!((bf, bh), (36, 0));
    }

    #[test]
    fn missed_faults_only_produces_pure_bf() {
        let f = faults(12, 2, FaultIds::Spread);
        let m = predictions_with_budget(12, &f, 9, ErrorPlacement::MissedFaultsOnly, 3);
        let (bf, bh) = m.error_counts(&f);
        assert_eq!((bf, bh), (9, 0));
    }

    #[test]
    fn false_accusations_only_produces_pure_bh() {
        let f = faults(12, 2, FaultIds::Spread);
        let m = predictions_with_budget(12, &f, 9, ErrorPlacement::FalseAccusationsOnly, 3);
        let (bf, bh) = m.error_counts(&f);
        assert_eq!((bf, bh), (0, 9));
    }

    #[test]
    fn deterministic_per_seed() {
        let f = faults(10, 2, FaultIds::Tail);
        let a = predictions_with_budget(10, &f, 15, ErrorPlacement::Uniform, 42);
        let b = predictions_with_budget(10, &f, 15, ErrorPlacement::Uniform, 42);
        for i in ProcessId::all(10) {
            assert_eq!(a.row(i), b.row(i));
        }
    }
}
