//! Reading a corrupted inbox allocates nothing per read.
//!
//! `AdversaryCtx::faulty_inboxes.get` builds a corrupted process's inbox
//! from its bucket and the pending broadcast records into one buffer
//! that every read reuses. A counting global allocator tallies this
//! thread's allocations over two otherwise identical runs: the adversary
//! reads every corrupted inbox once per round in one and four times per
//! round in the other. The counts must be equal, so an inbox built into
//! a fresh buffer on each read fails this test.

use ba_sim::{AdversaryCtx, Envelope, FnAdversary, Outbox, Process, ProcessId, Runner, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations, then defers to the system
/// allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the counter may already be gone while the thread
        // frees its last buffers at exit.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const N: usize = 16;
const HONEST: usize = 12;
const ROUNDS: u64 = 12;

/// Broadcasts every round and, on even rounds, also sends one unicast to
/// a corrupted id: a sender with a unicast is routed through the
/// per-recipient buckets, an all-broadcast one stays a record.
struct Chatter {
    me: ProcessId,
    out: Option<()>,
}

impl Process for Chatter {
    type Msg = Value;
    type Output = ();

    fn step(&mut self, round: u64, _inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
        if round == ROUNDS {
            self.out = Some(());
            return;
        }
        out.broadcast(Value(round));
        if round.is_multiple_of(2) {
            let to = ProcessId((HONEST + self.me.index() % (N - HONEST)) as u32);
            out.send(to, Value(round + 1));
        }
    }

    fn output(&self) -> Option<()> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

/// This thread's allocations over one run whose adversary reads every
/// corrupted inbox `reads` times a round, and the envelopes it read.
fn run(reads: usize) -> (u64, usize) {
    let procs: Vec<Chatter> = ProcessId::all(HONEST)
        .map(|me| Chatter { me, out: None })
        .collect();
    let mut read = 0;
    let adversary = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, Value>| {
        let corrupted = ctx.corrupted;
        for _ in 0..reads {
            for id in corrupted {
                read += ctx.faulty_inboxes.get(id).map_or(0, <[_]>::len);
            }
        }
    });
    let mut runner = Runner::new(N, procs, adversary);
    let before = ALLOCS.with(Cell::get);
    let report = runner.run(ROUNDS + 1);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(report.outputs.len(), HONEST);
    drop(runner);
    (allocs, read)
}

#[test]
fn reading_a_corrupted_inbox_again_allocates_nothing() {
    let (once, read_once) = run(1);
    let (four_times, read_four_times) = run(4);
    eprintln!("one read a round: {once} allocations; four reads: {four_times}");
    // Every round after the first delivers a broadcast from each honest
    // process to each corrupted one.
    assert!(read_once >= (N - HONEST) * HONEST * ROUNDS as usize);
    assert_eq!(read_four_times, 4 * read_once);
    assert_eq!(once, four_times, "an inbox read allocated");
}
