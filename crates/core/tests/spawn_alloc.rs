//! Exact allocation count of external ingress: a dropped-handle
//! `ThreadPool::spawn` allocates one block (job header, handle state and
//! closure together) on the submitting thread, and the worker that runs it
//! frees that block and nothing else.
//!
//! Its own test binary, because it installs a counting global allocator.
//! The instrumentation features allocate on the paths they instrument (the
//! `hb` checker's clock maps, the `model` explorer's logs), so the counts
//! are asserted for builds without them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lcws_core::{PoolBuilder, Variant};

/// Per-thread allocation and free counts, on top of the system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread's TLS may already be gone while it exits.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn frees() -> u64 {
    FREES.with(Cell::get)
}

/// One helper, held inside a gate task while the submitter spawns, so every
/// dropped handle goes first and the helper's run frees each block.
#[test]
#[cfg_attr(
    any(feature = "hb", feature = "model"),
    ignore = "the instrumentation allocates on the paths it checks"
)]
fn dropped_handle_spawn_is_one_allocation_freed_by_its_executor() {
    const TASKS: u64 = 1_000;
    let pool = PoolBuilder::new(Variant::Ws).threads(2).build();
    pool.serve();
    let go = Arc::new(AtomicBool::new(false));
    let gate_go = Arc::clone(&go);
    let gate = pool.spawn(move || {
        let before = frees();
        while !gate_go.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        before
    });

    let start = allocs();
    for _ in 0..TASKS {
        drop(pool.spawn(|| ()));
    }
    let spawned = allocs() - start;
    go.store(true, Ordering::Release);

    // The injector is FIFO and there is one helper: the probe runs after
    // the gate and the 1 000 tasks, and both handles are freed here.
    let after = pool.spawn(frees).join();
    let before = gate.join();
    pool.shutdown();
    assert_eq!(
        spawned, TASKS,
        "one allocation per spawned task on the submitting thread"
    );
    assert_eq!(
        after - before,
        TASKS,
        "the helper frees exactly the blocks of the tasks it ran"
    );
}
