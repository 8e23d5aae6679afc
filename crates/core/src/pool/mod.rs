//! The scheduler thread pool: one deque per worker, epoch-based run
//! lifecycle, and metrics collection at quiescence.
//!
//! Execution model (mirrors Parlay): the pool owns `P − 1` helper threads;
//! the thread calling [`ThreadPool::run`] becomes worker 0 for the duration
//! of the call. Helpers park between runs and spin-steal (with yields)
//! during them. A run finishes when the root closure returns — fork-join
//! semantics guarantee every transitively spawned task has completed by
//! then — after which helpers flush their synchronization counters and
//! quiesce before `run` returns, so [`ThreadPool::metrics`] is exact.
//!
//! A second, open-ended mode serves **external ingress**: between
//! [`ThreadPool::serve`] and [`ThreadPool::shutdown`] the helpers run a
//! long-lived generation with no worker 0, and *any* thread may submit
//! tasks through [`ThreadPool::spawn`] / [`ThreadPool::spawn_batch`], which
//! route through the pool-global [`crate::injector`] and return joinable
//! handles. `shutdown` drains the outstanding-task count to zero, closes
//! the generation with the same quiescence handshake as `run`, and returns
//! the serve window's metrics snapshot. The two modes share one exclusion
//! (`run` blocks while a serve window is open, and vice versa).
//!
//! This file is the generation lifecycle both modes share and the helper
//! work loop. `builder.rs` builds the pool, `serve.rs` is the serve window,
//! and `supervision.rs` starts, joins and watches the helpers.

mod builder;
mod serve;
mod supervision;

pub use builder::PoolBuilder;

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle as ThreadJoinHandle;
use std::time::Duration;

use crossbeam_utils::CachePadded;
use lcws_metrics::{Collector, Event, Snapshot};
use parking_lot::{Condvar, Mutex};

use crate::deque::AnyDeque;
use crate::hb;
use crate::injector::Injector;
use crate::policy::Policies;
use crate::shim::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};
use crate::signal;
use crate::sleep::{Sleep, PARK_TIMEOUT};
use crate::trace;
use crate::variant::Variant;
use crate::worker::{current_ctx, WorkerCtx};

/// Shared, cross-thread-visible state of one worker slot.
pub(crate) struct WorkerShared {
    pub(crate) deque: AnyDeque,
    /// The paper's `targeted` flag (one per processor), widened to say
    /// *when*: 0 while no exposure request is pending, else the
    /// [`crate::worker::request_word`] of the thief that was answered
    /// `PRIVATE_WORK` or whose steal took the last public task. Protocol:
    /// `WorkerCtx::notify_victim` and `steal_once`, DESIGN.md §4.
    pub(crate) expose_request: CachePadded<AtomicU64>,
    /// pthread handle for `pthread_kill` notifications, 0 while the slot
    /// cannot be signalled. A helper stores it once its handler is armed;
    /// `build` waits for that before the first generation opens.
    pub(crate) pthread: AtomicU64,
    /// Set by the exposure serve when it exposes work, in lieu of waking
    /// sleepers directly (condvar notify is not async-signal-safe). The
    /// owner drains it right after its own serves and on its next deque
    /// access after a handler's, and performs the wake then.
    pub(crate) wake_pending: CachePadded<AtomicBool>,
    /// This worker's scheduling-event ring (owner-written, drained at run
    /// close; see `crate::trace`).
    #[cfg(feature = "trace")]
    pub(crate) trace: trace::TraceRing,
}

/// [`PoolInner::window`]: no serve window is open, `spawn` panics.
const CLOSED: u8 = 0;
/// Between `serve` and `shutdown`: `spawn` is accepted.
const OPEN: u8 = 1;
/// `shutdown` is draining: `spawn` is rejected, so `outstanding` can only
/// fall.
const DRAINING: u8 = 2;

/// State shared between the pool handle and its worker threads.
pub(crate) struct PoolInner {
    pub(crate) variant: Variant,
    /// The resolved policy bundle every worker consults. Equal to
    /// `variant.policies()` unless [`PoolBuilder::policies`] overrode it;
    /// `variant` stays as the display/compatibility label.
    pub(crate) policies: Policies,
    pub(crate) workers: Box<[WorkerShared]>,
    pub(crate) collector: Arc<Collector>,
    /// Sleeper subsystem for idle workers (spin → yield → park).
    pub(crate) sleep: Sleep,
    /// Global ingress queue for externally-submitted tasks (`spawn`).
    /// Workers fall back to it after a fruitless steal round.
    pub(crate) injector: Injector,
    /// Spawned-but-not-completed task count of the current serve window;
    /// `shutdown` drains it to zero before closing the generation.
    outstanding: AtomicUsize,
    /// The serve window: [`CLOSED`], [`OPEN`] or [`DRAINING`].
    window: AtomicU8,
    /// Signalled (under `sync`) when `outstanding` hits zero mid-drain.
    drain_cv: Condvar,
    /// Run generation; bumped (under `sync`) to start a run.
    epoch: AtomicU64,
    /// Last completed generation; helpers exit their work loop when it
    /// reaches their current generation.
    done_epoch: AtomicU64,
    /// Helpers still inside the work loop of the current generation.
    active: AtomicUsize,
    shutdown: AtomicBool,
    sync: Mutex<()>,
    start_cv: Condvar,
    quiesce_cv: Condvar,
    /// Opt-in watchdog period ([`PoolBuilder::stall_timeout`]): when set,
    /// the quiescence and generation-open waits are timed, and an expired
    /// quiescence wait emits a stall report to stderr and keeps waiting.
    stall_timeout: Option<Duration>,
    /// How many stall reports this pool has emitted (diagnostics/tests).
    stall_reports: AtomicU64,
    /// Merged trace of the most recent completed run (drained at run
    /// close), handed out by `ThreadPool::take_trace`.
    #[cfg(feature = "trace")]
    trace_last: Mutex<Option<trace::Trace>>,
}

/// A work-stealing thread pool running one of the paper's five schedulers.
///
/// ```
/// use lcws_core::{PoolBuilder, Variant};
///
/// let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
/// let total: u64 = pool.run(|| {
///     let (a, b) = lcws_core::join(|| (0..500u64).sum::<u64>(),
///                                  || (500..1000u64).sum::<u64>());
///     a + b
/// });
/// assert_eq!(total, (0..1000u64).sum());
/// ```
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    /// Slot `i` holds the join handle of helper `i + 1`.
    handles: Vec<ThreadJoinHandle<()>>,
    /// `true` while a `run` call or an open serve window owns the pool's
    /// generation machinery. A plain `Mutex<()>` guard cannot express the
    /// serve case — the exclusion must span `serve()`'s return and be
    /// released by `shutdown()`, possibly on a different thread — so this
    /// is a hand-rolled lock: flag + condvar.
    run_state: Mutex<bool>,
    /// Signalled when `run_state` flips back to `false`.
    run_free: Condvar,
}

impl ThreadPool {
    /// Convenience constructor: `variant` scheduler with `threads` workers.
    pub fn new(variant: Variant, threads: usize) -> ThreadPool {
        PoolBuilder::new(variant).threads(threads).build()
    }

    /// The scheduler variant this pool runs.
    pub fn variant(&self) -> Variant {
        self.inner.variant
    }

    /// Number of workers (including the `run` caller).
    pub fn num_workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Execute `f` on the pool: the calling thread becomes worker 0 and
    /// `f` may freely use [`crate::join`], [`crate::par_for`] and
    /// [`crate::scope`]. Returns once every transitively spawned task has
    /// completed and all helpers have quiesced.
    ///
    /// Panics from `f` (or any spawned task, propagated through the
    /// fork-join structure) resume on the caller after quiescence.
    ///
    /// Resets the pool's metrics collector, so [`ThreadPool::metrics`]
    /// afterwards reflects exactly this run.
    pub fn run<F, T>(&self, f: F) -> T
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        assert!(
            current_ctx().is_null(),
            "ThreadPool::run may not be nested inside a pool run"
        );
        let _serial = self.acquire_run();
        let pool = &*self.inner;
        // Helpers are parked between runs, so nobody can signal the seat
        // before the generation opens.
        pool.workers[0]
            .pthread
            .store(signal::current_pthread() as u64, Ordering::Release);
        self.open_generation();

        let ctx = WorkerCtx::new(pool, 0);
        let result = {
            let _guard = ctx.install();
            trace::record(Event::RunStart, pool.workers.len() as u32);
            panic::catch_unwind(AssertUnwindSafe(f))
        };

        close_generation(pool, "run quiescence");
        result.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Open a generation for `run` or `serve`, under the run token: reset
    /// metrics and trace rings so they cover exactly this generation, then
    /// release the helpers into it.
    fn open_generation(&self) {
        let pool = &*self.inner;
        lcws_metrics::touch();
        lcws_metrics::reset_local();
        pool.collector.reset();
        // Helpers are parked between generations and the caller has not
        // installed a ctx (`serve`'s never does), so nobody records while
        // the rings reset.
        #[cfg(feature = "trace")]
        for w in pool.workers.iter() {
            w.trace.reset();
        }
        // Under the lock to avoid lost wakeups.
        let _g = pool.sync.lock();
        pool.active.store(pool.workers.len() - 1, Ordering::Release);
        pool.epoch.fetch_add(1, Ordering::AcqRel);
        pool.start_cv.notify_all();
    }

    /// Block until no `run` call or serve window owns the pool, then claim
    /// it. Returns a guard for `run`'s scoped use; `serve` forgets the
    /// guard and `shutdown` releases manually.
    fn acquire_run(&self) -> RunToken<'_> {
        let mut busy = self.run_state.lock();
        while *busy {
            self.run_free.wait(&mut busy);
        }
        *busy = true;
        RunToken { pool: self }
    }

    fn release_run(&self) {
        let mut busy = self.run_state.lock();
        debug_assert!(*busy, "release_run without a claimed pool");
        *busy = false;
        // One waiter can make progress; the rest re-block behind it.
        self.run_free.notify_one();
    }

    /// Run `f` and return its result together with the synchronization
    /// profile of the run (the paper's Figure 3/8 quantities).
    pub fn run_measured<F, T>(&self, f: F) -> (T, Snapshot)
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let value = self.run(f);
        (value, self.metrics())
    }

    /// Synchronization counters of the most recent completed run.
    pub fn metrics(&self) -> Snapshot {
        self.inner.collector.snapshot()
    }

    /// Take the merged scheduling trace of the most recent completed run
    /// (`None` if no run finished since the last take). See
    /// [`crate::trace`] for the event model and export helpers.
    #[cfg(feature = "trace")]
    pub fn take_trace(&self) -> Option<trace::Trace> {
        self.inner.trace_last.lock().take()
    }
}

/// Scoped ownership of the pool's generation machinery (`run`'s use of
/// [`ThreadPool::acquire_run`]); releases on every exit path including the
/// panic-resume ones. `serve` forgets its token and `shutdown` releases by
/// hand, because their exclusion spans two calls (and possibly threads).
struct RunToken<'a> {
    pool: &'a ThreadPool,
}

impl Drop for RunToken<'_> {
    fn drop(&mut self) {
        self.pool.release_run();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // A serve window left open at drop would strand injected tasks and
        // leave helpers in a live generation; close it first.
        if self.inner.window.load(Ordering::SeqCst) == OPEN {
            self.shutdown();
        }
        self.inner.stop_helpers(std::mem::take(&mut self.handles));
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("variant", &self.inner.variant)
            .field("workers", &self.inner.workers.len())
            .finish()
    }
}

/// Close the current generation (`run`'s end, `shutdown`'s end) and wait
/// for the helpers to drain out of it.
fn close_generation(pool: &PoolInner, what: &str) {
    pool.done_epoch
        .store(pool.epoch.load(Ordering::Acquire), Ordering::Release);
    // Helpers may be parked in the sleeper: wake them all so they can
    // observe the closed generation and quiesce promptly.
    pool.sleep.wake_all();
    lcws_metrics::flush_into(&pool.collector);
    pool.wait_with_watchdog(&pool.quiesce_cv, what, || {
        pool.active.load(Ordering::Acquire) == 0
    });
    // Quiescent: helpers left their work loop through the `active` AcqRel
    // handshake, so every deque and ring write happens-before this point.
    // This is the retirement list's epoch-free reclamation moment: no
    // thread can still hold a buffer captured before a grow.
    //
    // `run`'s caller registration is withdrawn here, not at the next open:
    // a signal raced against teardown (or sent by a thief of the next,
    // differently-stacked run) must fail fast to the fallback flag rather
    // than land on a thread that left the pool.
    pool.workers[0].pthread.store(0, Ordering::Release);
    for w in pool.workers.iter() {
        // Safety: quiescence established above.
        unsafe { w.deque.release_retired() };
    }
    // The caller's TLS ring was cleared with its ctx guard; worker 0's ring
    // is still exclusively ours, so the close marker goes in directly.
    #[cfg(feature = "trace")]
    {
        pool.workers[0].trace.record_now(Event::RunClose, 0);
        let merged = trace::Trace::merge(pool.workers.iter().map(|w| w.trace.drain()).collect());
        *pool.trace_last.lock() = Some(merged);
    }
}

/// A helper thread's body. Task panics are caught at the task boundary
/// (`job.rs`), so a panic that escapes the steal loop is a broken scheduler
/// invariant (or an injected `Site::WorkerLoop` fault), after which
/// resuming the pool is unsound: print which worker it was and abort, as
/// rayon and Parlay do (DESIGN.md §5e). The default panic hook has already
/// printed the payload.
fn worker_main(pool: Arc<PoolInner>, index: usize) {
    if panic::catch_unwind(AssertUnwindSafe(|| work_loop(&pool, index))).is_err() {
        eprintln!("lcws: a panic escaped worker {index}'s steal loop; aborting");
        std::process::abort();
    }
}

fn work_loop(pool: &PoolInner, index: usize) {
    lcws_metrics::touch();
    let ctx = WorkerCtx::new(pool, index);
    let _guard = ctx.install();
    // Registered only now that the handler is armed: the registration
    // barrier (`supervision::await_registration`) means "may be signalled".
    pool.workers[index]
        .pthread
        .store(signal::current_pthread() as u64, Ordering::Release);

    // Helpers start before the first generation opens, at epoch 0.
    let mut seen = 0;
    loop {
        // Park until a new generation opens (or shutdown).
        {
            let mut g = pool.sync.lock();
            loop {
                if pool.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let e = pool.epoch.load(Ordering::Acquire);
                if e > seen {
                    seen = e;
                    break;
                }
                match pool.stall_timeout {
                    None => pool.start_cv.wait(&mut g),
                    // Watchdog mode: the generation-open wait is timed so a
                    // lost notification self-heals on the re-check above.
                    // No stall report from here — a helper idling between
                    // runs is the normal state, not a stall; the quiescence
                    // side owns the reporting.
                    Some(timeout) => {
                        let _ = pool.start_cv.wait_for(&mut g, timeout);
                    }
                }
            }
        }
        let generation = seen;
        ctx.help_until(
            || {
                if pool.done_epoch.load(Ordering::Acquire) >= generation {
                    return true;
                }
                // The fault site sits where the loop asks whether to go on,
                // between tasks: a forced fire panics the helper here, the
                // one way to test the abort in `worker_main`.
                if crate::fault::fail_at(crate::fault::Site::WorkerLoop) {
                    panic!("injected worker-loop fault (Site::WorkerLoop)");
                }
                false
            },
            PARK_TIMEOUT,
        );
        // Leave the generation: flush the TLS counters (the caller reads
        // the collector right after quiescence), then the `active`
        // handshake.
        lcws_metrics::flush_into(&pool.collector);
        if pool.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = pool.sync.lock();
            pool.quiesce_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::supervision::stall_report;
    use super::*;
    use crate::worker::{request_age_ns, request_word, StealAttempt, REQUEST_SIGNALLED};
    use std::ptr;

    #[test]
    fn pool_builds_and_drops_for_every_variant() {
        for v in Variant::ALL {
            let pool = ThreadPool::new(v, 3);
            assert_eq!(pool.num_workers(), 3);
            assert_eq!(pool.variant(), v);
        }
    }

    #[test]
    fn run_returns_value_single_worker() {
        let pool = ThreadPool::new(Variant::Ws, 1);
        assert_eq!(pool.run(|| 2 + 2), 4);
    }

    #[test]
    fn sequential_runs_reuse_workers() {
        let pool = ThreadPool::new(Variant::Signal, 4);
        for i in 0..20 {
            assert_eq!(pool.run(move || i * 2), i * 2);
        }
    }

    #[test]
    fn run_propagates_panic_and_pool_survives() {
        let pool = ThreadPool::new(Variant::UsLcws, 2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|| panic!("root panic"));
        }));
        assert!(caught.is_err());
        // Pool still usable.
        assert_eq!(pool.run(|| 7), 7);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = PoolBuilder::new(Variant::Ws).threads(0).build();
    }

    #[test]
    fn metrics_reset_between_runs() {
        let pool = ThreadPool::new(Variant::Ws, 2);
        let (_, m1) = pool.run_measured(|| {
            crate::join(|| (), || ());
        });
        assert!(m1.tasks_run() >= 1, "the forked job counts as a task");
        let (_, m2) = pool.run_measured(|| 0);
        assert!(
            m2.tasks_run() <= m1.tasks_run(),
            "second run must not inherit first run's counters"
        );
    }

    /// Regression: §3's "`targeted` is reset when a task is removed from
    /// the deque's public part" applies to every split-deque bundle. The
    /// reset used to be gated on `uses_signals()`, leaving the request
    /// stuck for USLCWS after a public pop — thieves would then skip this
    /// victim (Listing 1 line 21 checks `!targeted`) even though it still
    /// had private work.
    #[test]
    fn request_resets_on_public_pop() {
        for variant in [Variant::UsLcws, Variant::Signal] {
            let pool = PoolBuilder::new(variant).threads(1).build();
            let ctx = WorkerCtx::new(&pool.inner, 0);
            let _guard = ctx.install();
            let w = &pool.inner.workers[0];
            let AnyDeque::Split(d) = &w.deque else {
                panic!("{variant} uses the split deque");
            };
            // One task, made public (as if a poll served an exposure
            // request), with a thief's exposure request still pending.
            d.push_bottom(ptr::dangling_mut());
            d.update_public_bottom(crate::deque::ExposurePolicy::One);
            w.expose_request.store(request_word(1), Ordering::Relaxed);
            // Private part empty → acquire_local falls through to
            // pop_public_bottom.
            let job = ctx.acquire_local();
            assert_eq!(job, Some(ptr::dangling_mut()));
            assert_eq!(
                w.expose_request.load(Ordering::Relaxed),
                0,
                "{variant}: public-part removal must reset the request"
            );
        }
    }

    /// One serve path for every split-deque bundle: a request found at the
    /// owner's next pop *or* push is served there (cleared, one task
    /// exposed) — a push used to drop it.
    #[test]
    fn every_split_bundle_serves_a_request_at_its_next_pop_or_push() {
        let job = |k: usize| (k * 8) as *mut crate::job::Job;
        for variant in [Variant::UsLcws, Variant::Signal, Variant::SignalHalf] {
            let pool = PoolBuilder::new(variant).threads(1).build();
            let ctx = WorkerCtx::new(&pool.inner, 0);
            let _guard = ctx.install();
            let w = &pool.inner.workers[0];
            let AnyDeque::Split(d) = &w.deque else {
                panic!("{variant} uses the split deque");
            };
            d.push_bottom(job(1));
            d.push_bottom(job(2));
            let ask = || {
                w.expose_request
                    .store(request_word(trace::now_ns()), Ordering::Relaxed)
            };
            ask();
            ctx.push_and_wake(job(3));
            assert_eq!(w.expose_request.load(Ordering::Relaxed), 0, "{variant}");
            let public = d.public_len();
            assert!(public >= 1, "{variant}: the push served it");
            d.push_bottom(job(4));
            ask();
            assert_eq!(ctx.acquire_local(), Some(job(4)));
            assert_eq!(w.expose_request.load(Ordering::Relaxed), 0, "{variant}");
            assert!(d.public_len() > public, "{variant}: the pop served it");
            while ctx.acquire_local().is_some() {}
        }
    }

    /// Satellite of the supervision issue: `run` used to leave the caller's
    /// pthread registered in slot 0 forever, so a signal racing the next
    /// run (whose caller may be a different thread) or pool teardown could
    /// target a thread that had left the pool.
    #[test]
    fn caller_pthread_cleared_after_run() {
        let pool = ThreadPool::new(Variant::Signal, 2);
        assert_eq!(pool.run(|| 5), 5);
        assert_eq!(
            pool.inner.workers[0].pthread.load(Ordering::Acquire),
            0,
            "run close must withdraw the caller's signal registration"
        );
    }

    #[test]
    fn stall_report_lists_pool_and_worker_state() {
        let pool = PoolBuilder::new(Variant::SignalConservative)
            .threads(3)
            .stall_timeout(Duration::from_millis(7))
            .build();
        let report = stall_report(&pool.inner, "unit-test wait");
        assert!(report.contains("stall watchdog"));
        assert!(report.contains("unit-test wait"));
        assert!(report.contains("7ms"));
        assert!(report.contains("worker 0: (caller)"));
        assert!(report.contains("worker 2:"));
        assert!(report.contains("counters (flushed)"));
        // Reports not yet emitted (this formats the report directly,
        // bypassing the watchdog).
        assert_eq!(pool.stall_reports(), 0);
    }

    #[test]
    fn watchdog_defaults_off() {
        let pool = ThreadPool::new(Variant::Ws, 2);
        assert!(pool.inner.stall_timeout.is_none());
        for i in 0..10 {
            assert_eq!(pool.run(move || i), i);
        }
        assert_eq!(pool.stall_reports(), 0);
    }

    /// A worker pulls one injector task and passes no wake on, so a batch
    /// submission wakes one worker per task, capped at the pool size: 8
    /// tasks on 4 workers cost the submitter 4 wake attempts.
    #[test]
    fn spawn_batch_wakes_one_worker_per_task_up_to_the_pool_size() {
        let pool = PoolBuilder::new(Variant::Ws).threads(4).build();
        pool.serve();
        lcws_metrics::reset_local();
        let handles = pool.spawn_batch((0..8).map(|i| move || i));
        let c = Collector::new();
        lcws_metrics::flush_into(&c);
        assert_eq!(c.snapshot().wake_attempts(), 4);
        assert_eq!(handles.into_iter().map(|h| h.join()).sum::<i32>(), 28);
        pool.shutdown();
    }

    /// Regression: a thief that catches a victim slot before its worker
    /// thread registered a pthread handle (the pre-spawn zero) must not
    /// call `pthread_kill` on the sentinel — POSIX has no null pthread_t,
    /// so that is undefined behaviour. The request stays on the flag the
    /// victim polls instead.
    #[test]
    fn signal_to_unregistered_worker_stays_on_the_flag() {
        let pool = PoolBuilder::new(Variant::Signal).threads(2).build();
        let victim = &pool.inner.workers[1];
        // Simulate the pre-registration window, with a request long past
        // its grace.
        victim.pthread.store(0, Ordering::Release);
        victim
            .expose_request
            .store(request_word(1), Ordering::Relaxed);
        let ctx = WorkerCtx::new(&pool.inner, 0);
        let _guard = ctx.install();
        lcws_metrics::reset_local();
        ctx.signal_or_flag(1, victim);
        let c = Collector::new();
        lcws_metrics::flush_into(&c);
        let snap = c.snapshot();
        assert_eq!(
            snap.signals_sent() + snap.signal_send_failed(),
            0,
            "no pthread_kill(0)"
        );
        assert_eq!(snap.signal_fallback_flag(), 1);
        assert_ne!(
            victim.expose_request.load(Ordering::Relaxed),
            0,
            "the undeliverable request must stay flagged"
        );
        // The pool survives: the victim serves the flag at its next task
        // boundary once a run restores its handle and feeds it work.
        drop(_guard);
        assert_eq!(pool.run(|| 21 * 2), 42);
    }

    /// The request's stamp lives in the shared word, so the thief that
    /// escalates need not be the one that asked: thief 1 records the
    /// request (no signal), thief 2 finds it unserved a grace later and
    /// sends the one signal, thief 3 finds it already signalled.
    #[test]
    fn any_thief_escalates_a_request_that_outlived_its_grace() {
        let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
        let victim = &pool.inner.workers[0];
        let AnyDeque::Split(d) = &victim.deque else {
            panic!("signal variants use the split deque");
        };
        // A registered victim holding private work only. Its "thread" is
        // this one, whose handler finds the probing thief's empty deque.
        victim
            .pthread
            .store(signal::current_pthread() as u64, Ordering::Release);
        d.push_bottom(ptr::dangling_mut());
        let signals_after_probe_by = |thief: usize| {
            let ctx = WorkerCtx::new(&pool.inner, thief);
            let _guard = ctx.install();
            lcws_metrics::reset_local();
            ctx.notify_victim(0, victim, d);
            let c = Collector::new();
            lcws_metrics::flush_into(&c);
            c.snapshot().signals_sent()
        };
        assert_eq!(signals_after_probe_by(1), 0, "the first probe only asks");
        let asked = victim.expose_request.load(Ordering::Relaxed);
        assert!(asked != 0 && asked & REQUEST_SIGNALLED == 0);
        // Inside the grace (a stamp from the future never looks old).
        victim.expose_request.store(
            request_word(trace::now_ns() + 1_000_000_000),
            Ordering::Relaxed,
        );
        assert_eq!(
            signals_after_probe_by(2),
            0,
            "a young request is left alone"
        );
        victim.expose_request.store(asked, Ordering::Relaxed);
        while request_age_ns(asked) < signal::EXPOSE_GRACE_NS {
            std::hint::spin_loop();
        }
        assert_eq!(signals_after_probe_by(2), 1, "another thief escalates it");
        assert_eq!(
            victim.expose_request.load(Ordering::Relaxed),
            asked | REQUEST_SIGNALLED,
            "still pending, now marked as signalled"
        );
        assert_eq!(signals_after_probe_by(3), 0, "one signal per request");
        victim.pthread.store(0, Ordering::Release);
        assert!(d
            .pop_bottom(crate::deque::PopBottomMode::Standard)
            .is_some());
    }

    /// A steal that takes the victim's last public task while private work
    /// remains asks for the next task at once (a fresh, unsignalled
    /// request) instead of clearing the word; any other steal clears it.
    /// Conservative still asks only a victim left with two tasks.
    #[test]
    fn a_steal_of_the_last_public_task_asks_for_the_next() {
        let stale = request_word(1) | REQUEST_SIGNALLED;
        for variant in [
            Variant::UsLcws,
            Variant::Signal,
            Variant::SignalHalf,
            Variant::SignalConservative,
        ] {
            let pool = PoolBuilder::new(variant).threads(2).build();
            let victim = &pool.inner.workers[0];
            let AnyDeque::Split(d) = &victim.deque else {
                panic!("{variant} uses the split deque");
            };
            let ctx = WorkerCtx::new(&pool.inner, 1);
            let _guard = ctx.install();
            // The word left behind by steal_once on a victim holding
            // `public` public and `private` private tasks, whose request
            // word was a stale, signalled one.
            let word_after_steal = |public: usize, private: usize| {
                for _ in 0..public + private {
                    d.push_bottom(ptr::dangling_mut());
                }
                for _ in 0..public {
                    d.update_public_bottom(crate::deque::ExposurePolicy::One);
                }
                victim.expose_request.store(stale, Ordering::Relaxed);
                let StealAttempt::Taken(_) = ctx.steal_once() else {
                    panic!("{variant}: the public task must be stolen");
                };
                let word = victim.expose_request.load(Ordering::Relaxed);
                while d
                    .pop_bottom(crate::deque::PopBottomMode::SignalSafe)
                    .or_else(|| d.pop_public_bottom())
                    .is_some()
                {}
                victim.expose_request.store(0, Ordering::Relaxed);
                word
            };
            let min_private = if variant == Variant::SignalConservative {
                2
            } else {
                1
            };
            for k in min_private..=3 {
                let word = word_after_steal(1, k);
                assert!(
                    word != 0 && word != stale && word & REQUEST_SIGNALLED == 0,
                    "{variant}, 1 public + {k} private: a fresh request, got {word:#x}"
                );
            }
            if variant == Variant::SignalConservative {
                assert_eq!(word_after_steal(1, 1), 0, "{variant}: one task left");
            }
            assert_eq!(word_after_steal(1, 0), 0, "{variant}: nothing left");
            assert_eq!(word_after_steal(2, 0), 0, "{variant}: public work left");
            assert_eq!(word_after_steal(2, 2), 0, "{variant}: public work left");
        }
    }
}
