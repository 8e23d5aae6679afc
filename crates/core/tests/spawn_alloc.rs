//! Exact allocation counts of task memory.
//!
//! * External ingress: a dropped-handle `ThreadPool::spawn` allocates one
//!   block (job header, handle state and closure together) on the
//!   submitting thread, and the worker that runs it frees that block and
//!   nothing else.
//! * Scope spawns: the owner carves jobs from page-sized chunks and every
//!   executor hands its block back, so a flood of spawns costs the owner
//!   one chunk per 64 live tasks plus the chunk list, all freed by the
//!   owner at scope end, and the thief frees nothing. Nested scopes on one
//!   worker free everything they allocate, round after round.
//!
//! Its own test binary, because it installs a counting global allocator.
//! The instrumentation features allocate on the paths they instrument (the
//! `hb` checker's clock maps, the `model` explorer's logs), so the counts
//! are asserted for builds without them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lcws_core::{scope, worker_index, PoolBuilder, Variant};

/// Per-thread allocation and free counts, on top of the system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Page-sized, line-aligned allocations: the scope chunks.
    static CHUNKS: Cell<u64> = const { Cell::new(0) };
    /// Set on a pool helper by the first scope task it runs; from then on
    /// its frees also count into `HELPER_FREES`.
    static HELPER: Cell<bool> = const { Cell::new(false) };
}

static HELPER_FREES: AtomicU64 = AtomicU64::new(0);

const PAGE: usize = 4096;
const LINE: usize = 64;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread's TLS may already be gone while it exits.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        if layout.size() == PAGE && layout.align() == LINE {
            bump(&CHUNKS);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        if HELPER.try_with(Cell::get).unwrap_or(false) {
            HELPER_FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    /// Counted apart from `alloc`: a growing `Vec` is one allocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
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

fn reallocs() -> u64 {
    REALLOCS.with(Cell::get)
}

fn chunks() -> u64 {
    CHUNKS.with(Cell::get)
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

/// A flood-shaped scope: the owner spawns `SPAWNS` sub-microsecond tasks
/// in a loop, then the helper steals while the owner drains. A task the
/// helper takes during the loop waits for the loop to end, so every scope
/// peaks at the same ~4 096 live tasks (otherwise a later scope could
/// outgrow an earlier one's chunks by timing alone). Returns the owner's
/// (allocations, chunk allocations, reallocations, frees) over the scope
/// and how many tasks the helper ran.
fn flood_scope(pool: &lcws_core::ThreadPool) -> ([u64; 4], u64) {
    const SPAWNS: u64 = 4_096;
    let sum = AtomicU64::new(0);
    let on_helper = AtomicU64::new(0);
    let spawning = AtomicBool::new(true);
    let counts = || [allocs(), chunks(), reallocs(), frees()];
    let (before, after) = pool.run(|| {
        let before = counts();
        scope(|s| {
            for i in 0..SPAWNS {
                let (sum, on_helper, spawning) = (&sum, &on_helper, &spawning);
                s.spawn(move || {
                    if worker_index() != Some(0) {
                        HELPER.with(|h| h.set(true));
                        on_helper.fetch_add(1, Ordering::Relaxed);
                        while spawning.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    let mut x = i;
                    for _ in 0..64 {
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                    }
                    sum.fetch_add(x & 1, Ordering::Relaxed);
                });
            }
            spawning.store(false, Ordering::Release);
        });
        (before, counts())
    });
    assert!(sum.load(Ordering::Relaxed) <= SPAWNS);
    let delta = [0, 1, 2, 3].map(|k| after[k] - before[k]);
    (delta, on_helper.load(Ordering::Relaxed))
}

/// `HELPER_FREES` is process-wide: one scope test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The owner's counts are (allocations, chunks, reallocations, frees).
fn assert_scope_memory(threads: usize) {
    const MAX_CHUNKS: u64 = 4_096 / 64;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for variant in [Variant::Ws, Variant::UsLcws] {
        let pool = PoolBuilder::new(variant).threads(threads).build();
        HELPER_FREES.store(0, Ordering::Relaxed);
        let ([allocs, chunks, reallocs, frees], stolen) = flood_scope(&pool);
        let what = format!("{variant} at P = {threads}");
        // At most one task leaves before the loop ends (to the helper,
        // which hands its block back): 4 095 or 4 096 jobs are live.
        assert_eq!(chunks, MAX_CHUNKS, "{what}");
        assert_eq!(allocs, chunks + 1, "{what}: the chunks and the chunk list");
        assert!(reallocs < 8, "{what}: the chunk list only doubles");
        assert_eq!(frees, allocs, "{what}: the owner frees them at scope end");
        let (again, stolen_again) = flood_scope(&pool);
        let first = [allocs, chunks, reallocs, frees];
        assert_eq!(again, first, "{what}: the next scope costs the same");
        assert_eq!(
            HELPER_FREES.load(Ordering::Relaxed),
            0,
            "{what}: the helper hands blocks back instead of freeing them \
             ({stolen} + {stolen_again} tasks stolen)"
        );
        eprintln!("{what}: {stolen} + {stolen_again} tasks ran on the helper");
        if threads == 1 {
            assert_eq!(stolen + stolen_again, 0);
        }
    }
}

#[test]
#[cfg_attr(
    any(feature = "hb", feature = "model"),
    ignore = "the instrumentation allocates on the paths it checks"
)]
fn scope_spawns_carve_owner_chunks_and_the_helper_frees_nothing() {
    assert_scope_memory(2);
}

#[test]
#[cfg_attr(
    any(feature = "hb", feature = "model"),
    ignore = "the instrumentation allocates on the paths it checks"
)]
fn one_worker_scope_allocates_one_chunk_per_64_live_tasks() {
    assert_scope_memory(1);
}

/// `NESTED_SPAWNS` tasks into `s`. One the helper takes waits until
/// `spawning` is cleared, so no block comes back while the owner spawns.
fn spawn_into<'s>(s: &lcws_core::Scope<'s>, spawning: &'s AtomicBool) {
    for _ in 0..NESTED_SPAWNS {
        s.spawn(move || {
            if worker_index() != Some(0) {
                HELPER.with(|h| h.set(true));
                while spawning.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        });
    }
}

const NESTED_SPAWNS: u64 = 200;

/// Nested scopes keep memory flat: each round opens an inner scope inside
/// an outer one on the owner, and spawns into both (into the outer one
/// also from the inner body), all before any task finishes: 400 outer and
/// 200 inner tasks, 7 + 4 chunks. Every round carves those 11 and frees
/// all it allocated, however long the pool lives (a per-worker list that
/// kept chunks between scopes once grew by an inner scope's chunks every
/// round here), and the helper frees nothing.
#[test]
#[cfg_attr(
    any(feature = "hb", feature = "model"),
    ignore = "the instrumentation allocates on the paths it checks"
)]
fn nested_scopes_free_their_chunks_every_round() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let peak = (2 * NESTED_SPAWNS).div_ceil(64) + NESTED_SPAWNS.div_ceil(64);
    for variant in [Variant::Ws, Variant::UsLcws] {
        let pool = PoolBuilder::new(variant).threads(2).build();
        HELPER_FREES.store(0, Ordering::Relaxed);
        let round = || {
            pool.run(|| {
                let spawning = AtomicBool::new(true);
                let before = [allocs(), chunks(), frees()];
                scope(|outer| {
                    spawn_into(outer, &spawning);
                    scope(|inner| {
                        spawn_into(inner, &spawning);
                        spawn_into(outer, &spawning);
                        spawning.store(false, Ordering::Release);
                    });
                });
                let after = [allocs(), chunks(), frees()];
                [0, 1, 2].map(|k| after[k] - before[k])
            })
        };
        for k in 0..10 {
            let [allocs, chunks, frees] = round();
            let what = format!("{variant}, round {k}");
            assert_eq!(chunks, peak, "{what}: the live tasks' chunks");
            assert_eq!(allocs, frees, "{what}: the owner frees all it allocated");
        }
        assert_eq!(
            HELPER_FREES.load(Ordering::Relaxed),
            0,
            "{variant}: the helper frees nothing"
        );
    }
}
