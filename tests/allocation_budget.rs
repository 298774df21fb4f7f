//! Allocation budget of three small experiments.
//!
//! A counting global allocator tallies the heap allocations and
//! reallocations made on the test's own thread while one auth-wrapper
//! experiment (silent, then under its `Disruptor`, the attacked path,
//! whose adversary reads corrupted inboxes) and one phase-king
//! experiment under replay run. All are deterministic per seed, so the
//! counts are too; the bounds below are the measured counts plus a 4%
//! margin (for toolchain and standard library drift), so losing the hot
//! paths' no-regrowth discipline, copying each accepted chain again,
//! allocating a payload-size table per sending step, writing every
//! replayed envelope into every inbox at routing, or building each inbox
//! in a fresh buffer fails this test. The `Disruptor` reads only a few
//! corrupted inboxes a run at this size, so a fresh buffer for those
//! reads alone stays inside the margin.
//!
//! Counts measured on this tree, where honest sends are records too; on
//! the tree before that change; on the tree before faulty broadcasts
//! were delivered just in time and the runner kept one payload-size
//! buffer; and on the tree before inbox passes, vote lists, sub-protocol
//! embedding, memo slots and chains stopped regrowing buffers
//! (allocations / reallocations):
//!
//! | experiment | allocations | reallocations | before honest records | before delivery change | before no-regrowth |
//! |---|---|---|---|---|---|
//! | auth-wrapper n = 16, t = 7, f = 3, B = 16, silent | 9,594 | 1,416 | 9,630 / 1,421 | 10,132 / 1,428 | 13,309 / 4,593 |
//! | the same under `Disruptor` | 11,122 | 1,510 | 11,149 / 1,517 | — | — |
//! | phase king n = 24, t = 7, f = 4, replay | 1,972 | 81 | 2,037 / 124 | 2,214 / 190 | 2,394 / 1,930 |

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

/// The measured count plus a 4% margin.
fn budget(measured: u64) -> u64 {
    measured + measured / 25
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
    let disrupted = ExperimentConfig {
        adversary: AdversaryKind::Disruptor,
        ..auth.clone()
    };
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
        ("auth-wrapper", &auth, 9_594, 1_416),
        ("auth-wrapper under Disruptor", &disrupted, 11_122, 1_510),
        ("phase king under replay", &king, 1_972, 81),
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
