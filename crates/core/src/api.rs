//! The public fork-join API: [`join`], [`par_for`], and [`scope`].
//!
//! All three are *ambient*: inside a [`crate::ThreadPool::run`] they
//! schedule onto the pool's deques; outside one they degrade to sequential
//! execution with identical semantics, so library code (e.g. `parlay-rs`)
//! can be written once and tested without a pool.

use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use parking_lot::Mutex;

use crate::job::{Blocks, ScopeJob, NO_WORKER};
use crate::shim::AtomicUsize;
use crate::sleep::WAITER_PARK_TIMEOUT;
use crate::worker::{current_ctx, pool_of, wake_worker};

/// Run `a` and `b` potentially in parallel, returning both results.
///
/// `b` is pushed onto the current worker's deque where thieves can take it
/// (after exposure, for the LCWS variants); `a` runs immediately. If `b` is
/// not stolen the worker reclaims and runs it inline — the common,
/// synchronization-free case that LCWS optimizes.
///
/// Outside a pool run, executes `a` then `b` sequentially.
///
/// Panics in either closure propagate after both have completed (the
/// surviving closure is never abandoned mid-flight).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let ctx = current_ctx();
    if ctx.is_null() {
        return (a(), b());
    }
    // Safety: non-null ctx pointers installed via CtxGuard remain valid for
    // the guard's (and hence this call's) extent on this thread.
    unsafe { (*ctx).join(a, b) }
}

/// Is the current thread participating in a pool run?
pub fn in_pool() -> bool {
    !current_ctx().is_null()
}

/// Number of workers in the ambient pool (1 when outside a pool run).
pub fn num_workers() -> usize {
    let ctx = current_ctx();
    if ctx.is_null() {
        1
    } else {
        unsafe { (*ctx).pool().workers.len() }
    }
}

/// Index of the current worker within the ambient pool, if any.
pub fn worker_index() -> Option<usize> {
    let ctx = current_ctx();
    if ctx.is_null() {
        None
    } else {
        Some(unsafe { (*ctx).index() })
    }
}

/// Default grain size for [`par_for`]: split until roughly `8 P` leaves of
/// at least `MIN_GRAIN` iterations each — coarser than Parlay's `parfor`,
/// whose grain is max(a block timed at ≥ 1 µs, `n / (128 P)`).
pub fn default_grain(n: usize) -> usize {
    const MIN_GRAIN: usize = 64;
    let p = num_workers();
    (n / (8 * p).max(1)).max(MIN_GRAIN).max(1)
}

/// Parallel loop over `range`, calling `f(i)` for every index, recursively
/// halving the range down to blocks of at most `grain` iterations.
pub fn par_for_grain<F>(range: Range<usize>, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let grain = grain.max(1);
    par_for_rec(range, grain, &f);
}

/// Parallel loop over `range` with the [`default_grain`] heuristic.
pub fn par_for<F>(range: Range<usize>, f: F)
where
    F: Fn(usize) + Sync,
{
    let grain = default_grain(range.end.saturating_sub(range.start));
    par_for_rec(range, grain, &f);
}

fn par_for_rec<F>(range: Range<usize>, grain: usize, f: &F)
where
    F: Fn(usize) + Sync,
{
    let len = range.end.saturating_sub(range.start);
    if len <= grain {
        for i in range {
            f(i);
        }
        return;
    }
    let mid = range.start + len / 2;
    let (start, end) = (range.start, range.end);
    join(
        || par_for_rec(start..mid, grain, f),
        || par_for_rec(mid..end, grain, f),
    );
}

/// A spawn scope: dynamically many fire-and-forget tasks that are all
/// guaranteed complete when [`scope`] returns.
pub struct Scope<'scope> {
    pub(crate) pending: AtomicUsize,
    /// Index of the worker that opened the scope — the only thread that
    /// ever drains it — or `NO_WORKER` outside a pool run. The task that
    /// performs the last `pending` decrement wakes exactly that worker.
    pub(crate) owner: u32,
    /// Address of the pool that worker belongs to (see [`pool_of`]).
    pool: usize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    pub(crate) blocks: Blocks,
    // Invariant lifetime, rayon-style: spawned closures may borrow anything
    // that strictly outlives the `scope` call.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawn `f` as an independent task. It may run on any worker, any time
    /// before the enclosing [`scope`] returns.
    ///
    /// Outside a run of the pool that opened the scope (no worker of the
    /// spawning pool will ever drain it), the task executes immediately
    /// inline.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let ctx = current_ctx();
        if ctx.is_null() || pool_of(ctx) != self.pool {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                self.record_panic(payload);
            }
            return;
        }
        self.pending.fetch_add(1, Ordering::AcqRel);
        // Safety: non-null ctx pointers stay valid for this call's extent.
        let ctx = unsafe { &*ctx };
        // Only the owner carves blocks (unsynchronised bookkeeping).
        let job = ScopeJob::allocate(self, f, ctx.index() as u32 == self.owner);
        ctx.push_and_wake(job);
    }

    /// Run a task's closure, record its panic, then settle it.
    ///
    /// # Safety
    /// `scope` is live; not `&self`, as the final decrement may free it.
    pub(crate) unsafe fn complete(scope: *const Scope<'_>, f: impl FnOnce()) {
        let sc = &*scope;
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
            sc.record_panic(payload);
        }
        // `owner` by value: the scope may be freed the instant the drain
        // sees this decrement. SeqCst publish, then wake: pairs with the
        // drain's announce → SeqCst `pending` recheck (see `crate::sleep`).
        let owner = sc.owner;
        if sc.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            wake_worker(owner);
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock();
        // Keep the first panic, like rayon / std::thread::scope.
        slot.get_or_insert(payload);
    }
}

/// Create a scope in which tasks can be [`Scope::spawn`]ed; returns only
/// after every spawned task (transitively) finished. The first panic from
/// the body or any task is resumed on the caller.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let ctx = current_ctx();
    let sc = Scope {
        pending: AtomicUsize::new(0),
        // Safety: non-null ctx pointers stay valid for this call's extent.
        owner: if ctx.is_null() {
            NO_WORKER
        } else {
            unsafe { (*ctx).index() as u32 }
        },
        pool: pool_of(ctx),
        panic: Mutex::new(None),
        blocks: Blocks::default(),
        _marker: PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&sc)));
    // Drain: help run work until every spawned task has completed. Spawned
    // jobs sit in deques and cannot be abandoned even if `f` panicked.
    // (Outside a pool run every spawn ran inline: nothing is pending.)
    // Each block came back before its decrement, so `sc` frees its chunks.
    let drained = || sc.pending.load(Ordering::SeqCst) == 0;
    if ctx.is_null() {
        debug_assert!(drained(), "pending scope tasks require a pool");
    } else {
        unsafe { (*ctx).help_until(drained, WAITER_PARK_TIMEOUT) };
    }
    let task_panic = sc.panic.lock().take();
    match result {
        Err(payload) => panic::resume_unwind(payload),
        Ok(value) => {
            if let Some(payload) = task_panic {
                panic::resume_unwind(payload);
            }
            value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Ambient-free behaviour (no pool): everything runs sequentially but
    // with identical results. Pool-backed behaviour is tested in the crate
    // integration tests.

    #[test]
    fn join_without_pool_is_sequential() {
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
        assert!(!in_pool());
        assert_eq!(num_workers(), 1);
        assert_eq!(worker_index(), None);
    }

    #[test]
    fn par_for_without_pool_covers_all_indices() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_grain(0..n, 16, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_range() {
        par_for(0..0, |_| panic!("must not be called"));
        #[allow(clippy::reversed_empty_ranges)]
        par_for(5..3, |_| panic!("must not be called"));
    }

    #[test]
    fn scope_without_pool_runs_inline() {
        let mut data = vec![0u32; 8];
        {
            let slots: Vec<_> = data.iter_mut().collect();
            scope(|s| {
                for (i, slot) in slots.into_iter().enumerate() {
                    s.spawn(move || *slot = i as u32);
                }
            });
        }
        assert_eq!(data, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn scope_propagates_task_panic() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("task panic"));
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn join_propagates_left_panic_after_right_completes() {
        let right_ran = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || panic!("left"),
                || {
                    right_ran.fetch_add(1, Ordering::SeqCst);
                },
            );
        }));
        assert!(caught.is_err());
        // Outside a pool, sequential semantics run `a` first and panic
        // before `b`; inside a pool `b` may or may not run. Either is
        // acceptable; the invariant is no use-after-free, which the pool
        // integration tests stress.
    }

    #[test]
    fn default_grain_reasonable() {
        assert!(default_grain(0) >= 1);
        assert!(default_grain(1_000_000) >= 64);
    }
}
