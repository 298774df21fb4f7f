//! Allocation budget of two small experiments.
//!
//! A counting global allocator tallies the heap allocations and
//! reallocations made on the test's own thread while one auth-wrapper
//! experiment and one phase-king experiment under replay run. Both are
//! deterministic per seed, so the counts are too; the bounds below are
//! the measured counts plus a 10% margin (for toolchain and standard
//! library drift), so losing the hot paths' no-regrowth discipline fails
//! this test.
//!
//! Counts measured on this tree, and on the tree before inbox passes,
//! vote lists, sub-protocol embedding, memo slots and chains stopped
//! regrowing buffers:
//!
//! | experiment | allocations | reallocations | before |
//! |---|---|---|---|
//! | auth-wrapper n = 16, t = 7, f = 3, B = 16, silent | 11,044 | 1,428 | 13,309 / 4,593 |
//! | phase king n = 24, t = 7, f = 4, replay | 2,214 | 190 | 2,394 / 1,930 |

use ba_predictions::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations and reallocations, then defers to
/// the system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the thread's counters may already be gone while it
    // frees its last buffers at exit.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-locals without destructors, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and reallocations this thread makes while running `cfg`.
fn counts(cfg: &ExperimentConfig) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let out = cfg.run();
    let after = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    assert!(out.agreement && out.validity_ok);
    (after.0 - before.0, after.1 - before.1)
}

/// The measured count plus a 10% margin.
fn budget(measured: u64) -> u64 {
    measured + measured / 10
}

#[test]
fn small_experiments_stay_within_their_allocation_budget() {
    let auth = ExperimentConfig::builder()
        .n(16)
        .t(7)
        .faults(3, FaultPlacement::Spread)
        .budget(16, ErrorPlacement::Uniform)
        .pipeline(Pipeline::Auth)
        .inputs(InputPattern::Split)
        .adversary(AdversaryKind::Silent)
        .build()
        .with_seed(1);
    let king = ExperimentConfig::builder()
        .n(24)
        .t(7)
        .faults(4, FaultPlacement::Spread)
        .pipeline(Pipeline::PhaseKing)
        .inputs(InputPattern::Split)
        .adversary(AdversaryKind::Replay)
        .build()
        .with_seed(1);
    for (name, cfg, allocs, reallocs) in [
        ("auth-wrapper", &auth, 11_044, 1_428),
        ("phase king under replay", &king, 2_214, 190),
    ] {
        let (got_allocs, got_reallocs) = counts(cfg);
        eprintln!("{name}: {got_allocs} allocations, {got_reallocs} reallocations");
        assert!(
            got_allocs <= budget(allocs),
            "{name}: {got_allocs} allocations, budget {}",
            budget(allocs)
        );
        assert!(
            got_reallocs <= budget(reallocs),
            "{name}: {got_reallocs} reallocations, budget {}",
            budget(reallocs)
        );
    }
}
