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

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle as ThreadJoinHandle;
use std::time::Duration;

use crossbeam_utils::CachePadded;
use lcws_metrics::{Collector, Event, Snapshot};
use parking_lot::{Condvar, Mutex};

use crate::deque::{AbpDeque, SplitDeque, DEFAULT_DEQUE_CAPACITY};
use crate::hb;
use crate::injector::{Injector, JoinHandle, TaskState};
use crate::job::{HeapJob, Job, NO_WORKER};
use crate::policy::Policies;
use crate::shim::{self, AtomicBool, AtomicU64, AtomicUsize};
use crate::signal;
use crate::sleep::{Sleep, PARK_TIMEOUT};
use crate::trace;
use crate::variant::Variant;
use crate::worker::{current_ctx, request_age_ns, WorkerCtx, REQUEST_SIGNALLED};

/// A worker's deque: ABP for the WS baseline, split for every LCWS variant.
pub(crate) enum AnyDeque {
    Abp(AbpDeque),
    Split(SplitDeque),
}

impl AnyDeque {
    /// Free ring buffers retired by growth during the closing run.
    ///
    /// # Safety
    /// Quiescence only: every helper must have left its work loop (the
    /// run-close `active` handshake), so no thread still holds a captured
    /// buffer pointer. Parked helpers do not touch deques between epochs,
    /// and the SIGUSR1 handler only moves `public_bot` — a late signal
    /// cannot reach a retired ring either.
    unsafe fn release_retired(&self) -> usize {
        match self {
            AnyDeque::Abp(d) => d.release_retired(),
            AnyDeque::Split(d) => d.release_retired(),
        }
    }

    /// Racy `(private, public)` depth snapshot for the stall report. The
    /// ABP deque has no private part: every task is stealable.
    fn depths(&self) -> (u32, u32) {
        match self {
            AnyDeque::Abp(d) => {
                let (bot, age) = d.raw_state();
                (0, bot.saturating_sub(age.top))
            }
            AnyDeque::Split(d) => (d.private_len(), d.public_len()),
        }
    }

    /// Restore the canonical empty state before a replacement worker takes
    /// over this slot. Caller must hold quiescence (between runs, under the
    /// run lock).
    fn reset_for_respawn(&self) {
        match self {
            AnyDeque::Abp(d) => d.reset_for_respawn(),
            AnyDeque::Split(d) => d.reset_for_respawn(),
        }
    }
}

/// Shared, cross-thread-visible state of one worker slot.
pub(crate) struct WorkerShared {
    pub(crate) deque: AnyDeque,
    /// The paper's `targeted` flag (one per processor), widened to say
    /// *when*: 0 while no exposure request is pending, else the
    /// [`crate::worker::request_word`] of the thief that was answered
    /// `PRIVATE_WORK`. Protocol: `WorkerCtx::notify_victim`, DESIGN.md §4.
    pub(crate) expose_request: CachePadded<AtomicU64>,
    /// pthread handle for `pthread_kill` notifications; registered before
    /// the worker can be targeted.
    pub(crate) pthread: AtomicU64,
    /// Set by this worker's `SIGUSR1` handler after it exposes work, in
    /// lieu of waking sleepers directly (condvar notify is not
    /// async-signal-safe). The owner drains it on its next deque access
    /// and performs the wake then.
    pub(crate) wake_pending: CachePadded<AtomicBool>,
    /// Set by the worker's own unwind path after a panic escaped its work
    /// loop (see `handle_worker_death`); cleared by the between-runs healer
    /// once a replacement thread owns this slot. While set, the slot is
    /// excluded from the generation's `active` count and its zeroed
    /// `pthread` keeps exposure requests on the flag path.
    pub(crate) dead: AtomicBool,
    /// This worker's scheduling-event ring (owner-written, drained at run
    /// close; see `crate::trace`).
    #[cfg(feature = "trace")]
    pub(crate) trace: trace::TraceRing,
}

impl WorkerShared {
    /// Slot `index` of a pool built from `builder` (only the trace ring
    /// needs to know which slot it is).
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    fn new(policies: &Policies, builder: &PoolBuilder, index: usize) -> WorkerShared {
        let capacity = builder.deque_capacity;
        let deque = if policies.uses_split_deque() {
            AnyDeque::Split(SplitDeque::new(capacity))
        } else {
            AnyDeque::Abp(AbpDeque::new(capacity))
        };
        WorkerShared {
            deque,
            expose_request: CachePadded::new(shim::named_u64(0, "expose_request")),
            pthread: AtomicU64::new(0),
            wake_pending: CachePadded::new(AtomicBool::new(false)),
            dead: AtomicBool::new(false),
            #[cfg(feature = "trace")]
            trace: trace::TraceRing::new(index as u16, builder.trace_capacity),
        }
    }
}

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
    /// A serve window is open: `spawn` is accepted.
    serving: AtomicBool,
    /// `shutdown` has begun draining; new `spawn`s are rejected so
    /// `outstanding` can only fall.
    draining: AtomicBool,
    /// Signalled (under `sync`) when `outstanding` hits zero mid-drain.
    drain_cv: Condvar,
    /// Run generation; bumped (under `sync`) to start a run.
    epoch: AtomicU64,
    /// Last completed generation; helpers exit their work loop when it
    /// reaches their current generation.
    done_epoch: AtomicU64,
    /// Helpers still inside the work loop of the current generation.
    active: AtomicUsize,
    /// Helpers that finished their prologue (pthread registration).
    ready: AtomicUsize,
    shutdown: AtomicBool,
    sync: Mutex<()>,
    start_cv: Condvar,
    quiesce_cv: Condvar,
    /// First panic payload that escaped a helper's work loop this run;
    /// `run` resumes it on the caller after quiescence (first death wins,
    /// matching how fork-join propagates the first of two sibling panics).
    death: Mutex<Option<Box<dyn Any + Send>>>,
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

impl PoolInner {
    /// `n` submitted jobs reached the injector: account them and wake a
    /// worker. External threads have no TLS metrics cells to flush, so
    /// the ingress count goes to the collector directly (this is why the
    /// site is not a `trace::emit`); the trace half is a no-op unless the
    /// submitter is itself a worker thread.
    fn published(&self, n: usize) {
        self.collector.add(Event::InjectorPush, n as u64);
        trace::record(Event::InjectorPush, n as u32);
        self.sleep.wake_one();
    }

    /// Completion side of the serve window's outstanding count, called by
    /// every spawned task's wrapper (and by `spawn`'s validation undo).
    ///
    /// SeqCst pairing with `shutdown`: in the single total order, either
    /// this decrement precedes `draining.store(true)` — then `shutdown`'s
    /// subsequent `outstanding` read sees it — or it follows, in which case
    /// the `draining` load here reads `true` and the notification is taken.
    /// The notify happens under `sync`, the same lock `shutdown` holds
    /// across its check-then-wait, so the signal cannot fall into that gap.
    pub(crate) fn task_done(&self) {
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1
            && self.draining.load(Ordering::SeqCst)
        {
            let _g = self.sync.lock();
            self.drain_cv.notify_all();
        }
    }
}

/// Builder for [`ThreadPool`].
#[derive(Debug, Clone)]
pub struct PoolBuilder {
    variant: Variant,
    /// Explicit policy-bundle override; `None` means "the variant's own
    /// composition".
    policies: Option<Policies>,
    threads: Option<usize>,
    deque_capacity: usize,
    stall_timeout: Option<Duration>,
    #[cfg(feature = "trace")]
    trace_capacity: usize,
}

impl PoolBuilder {
    /// Start building a pool for the given scheduler variant.
    pub fn new(variant: Variant) -> PoolBuilder {
        PoolBuilder {
            variant,
            policies: None,
            threads: None,
            deque_capacity: DEFAULT_DEQUE_CAPACITY,
            stall_timeout: None,
            #[cfg(feature = "trace")]
            trace_capacity: trace::DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Override the full policy bundle the workers run with (see
    /// [`crate::Policies`]). Without this, the pool runs the variant's own
    /// composition — `PoolBuilder::new(v)` and
    /// `PoolBuilder::new(v).policies(v.policies())` build identical pools.
    /// The variant remains the pool's label (thread names, CSV rows).
    ///
    /// `build` panics on a bundle [`crate::Policies::validate`] rejects.
    pub fn policies(mut self, policies: Policies) -> PoolBuilder {
        self.policies = Some(policies);
        self
    }

    /// Total number of workers, including the caller of `run` (≥ 1).
    /// Defaults to the machine's available parallelism.
    pub fn threads(mut self, threads: usize) -> PoolBuilder {
        assert!(threads >= 1, "a pool needs at least one worker");
        self.threads = Some(threads);
        self
    }

    /// Per-worker *initial* deque capacity in slots (rounded up to a power
    /// of two). Deques grow by doubling whenever a push finds the ring
    /// full, so this only tunes how many early doublings a deep workload
    /// pays — it is no longer a hard limit.
    pub fn deque_capacity(mut self, capacity: usize) -> PoolBuilder {
        self.deque_capacity = capacity;
        self
    }

    /// Opt-in stall watchdog: when a run's quiescence wait (or a helper's
    /// wait for the next generation) exceeds `timeout`, the wait becomes a
    /// timed re-check instead of an unbounded block, and an expired
    /// quiescence wait prints a structured stall report to stderr — per
    /// worker parked/dead state, deque depths, counter snapshot, and (with
    /// the `trace` feature) the tail of each trace ring — then keeps
    /// waiting. Off by default: without it the waits are plain untimed
    /// condvar blocks and the supervision layer adds nothing to the close
    /// path.
    pub fn stall_timeout(mut self, timeout: Duration) -> PoolBuilder {
        assert!(!timeout.is_zero(), "stall timeout must be non-zero");
        self.stall_timeout = Some(timeout);
        self
    }

    /// Per-worker trace-ring capacity in events (16 bytes each). When a
    /// run records more, the ring keeps the newest events and
    /// [`crate::trace::Trace::dropped`] reports the overwritten count.
    #[cfg(feature = "trace")]
    pub fn trace_capacity(mut self, events: usize) -> PoolBuilder {
        assert!(events > 0, "trace ring needs at least one slot");
        self.trace_capacity = events;
        self
    }

    /// Spawn the helper threads and return the pool.
    pub fn build(self) -> ThreadPool {
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        // Resolve the policy bundle: explicit override, else the variant's
        // composition. An unsound bundle never reaches a worker.
        let policies = self.policies.unwrap_or_else(|| self.variant.policies());
        if let Err(e) = policies.validate() {
            panic!("invalid policy bundle for {} pool: {e}", self.variant);
        }
        if policies.uses_signals() {
            signal::install_handler();
        }
        let workers = (0..threads)
            .map(|index| WorkerShared::new(&policies, &self, index))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let inner = Arc::new(PoolInner {
            variant: self.variant,
            policies,
            sleep: Sleep::new(threads),
            injector: Injector::new(),
            outstanding: AtomicUsize::new(0),
            serving: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drain_cv: Condvar::new(),
            workers,
            collector: Collector::new(),
            epoch: AtomicU64::new(0),
            done_epoch: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            ready: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sync: Mutex::new(()),
            start_cv: Condvar::new(),
            quiesce_cv: Condvar::new(),
            death: Mutex::new(None),
            stall_timeout: self.stall_timeout,
            stall_reports: AtomicU64::new(0),
            #[cfg(feature = "trace")]
            trace_last: Mutex::new(None),
        });
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for index in 1..threads {
            match spawn_helper(&inner, index, 0) {
                Ok(h) => handles.push(Some(h)),
                Err(e) => {
                    // Partial-build cleanup: the workers spawned so far are
                    // waiting for (or racing towards) the start condvar.
                    // Flip shutdown under the lock and join every one of
                    // them before surfacing the error — a panic with
                    // context is acceptable, leaked threads are not.
                    {
                        let _g = inner.sync.lock();
                        inner.shutdown.store(true, Ordering::Release);
                        inner.start_cv.notify_all();
                    }
                    let mut panicked = 0usize;
                    for h in handles.into_iter().flatten() {
                        if let Err(payload) = h.join() {
                            // A helper that died before the teardown would
                            // silently vanish here; surface it instead.
                            panicked += 1;
                            inner.collector.add(Event::WorkerDeath, 1);
                            eprintln!(
                                "lcws: worker panicked during partial-build \
                                 teardown: {}",
                                payload_msg(payload.as_ref())
                            );
                        }
                    }
                    panic!(
                        "failed to spawn worker thread {index} of {threads} \
                         ({e}); {} already-spawned worker(s) joined \
                         ({panicked} of them panicked)",
                        index - 1
                    );
                }
            }
        }
        // Wait until every helper registered its pthread handle, so the
        // first run can already signal any victim safely.
        while inner.ready.load(Ordering::Acquire) != threads - 1 {
            std::thread::yield_now();
        }
        ThreadPool {
            inner,
            handles: Mutex::new(handles),
            run_state: Mutex::new(false),
            run_free: Condvar::new(),
        }
    }
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
    /// Slot `i` holds the join handle of helper `i + 1` (`None` while a
    /// dead helper awaits respawn, or after a failed respawn).
    handles: Mutex<Vec<Option<ThreadJoinHandle<()>>>>,
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

        let death = close_generation(pool, "run quiescence");
        // A panic from the root closure (which fork-join already funnels
        // sibling panics into) outranks a helper-death payload.
        match result {
            Ok(v) => {
                if let Some(payload) = death {
                    panic::resume_unwind(payload);
                }
                v
            }
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Open a generation for `run` or `serve`, under the run token:
    /// self-heal, reset metrics and trace rings so they cover exactly this
    /// generation, then release the live helpers into it.
    fn open_generation(&self) {
        // Respawn any helper that died in a previous generation (must
        // precede the collector reset below so the respawn counts land in
        // *this* generation's metrics).
        let (respawned, stray_deaths) = self.heal_dead_workers();
        let pool = &*self.inner;
        lcws_metrics::touch();
        lcws_metrics::reset_local();
        pool.collector.reset();
        pool.collector
            .add(Event::WorkerRespawn, respawned.len() as u64);
        pool.collector.add(Event::WorkerDeath, stray_deaths);
        // Helpers are parked between generations and the caller has not
        // installed a ctx (`serve`'s never does), so nobody records while
        // the rings reset.
        #[cfg(feature = "trace")]
        {
            for w in pool.workers.iter() {
                w.trace.reset();
            }
            // Respawns are the healer's (i.e. the caller's) events; the
            // rings were just reset, so worker 0's is exclusively ours.
            for &index in &respawned {
                pool.workers[0]
                    .trace
                    .record_now(Event::WorkerRespawn, index);
            }
        }
        // Under the lock to avoid lost wakeups. Only live helpers take part
        // in the `active` handshake: a slot whose respawn failed stays dead
        // and must not be waited for.
        let _g = pool.sync.lock();
        let live = pool
            .workers
            .iter()
            .skip(1)
            .filter(|w| !w.dead.load(Ordering::Acquire))
            .count();
        pool.active.store(live, Ordering::Release);
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

    /// Open a serve window: the helpers start a long-lived generation with
    /// no worker 0, and [`ThreadPool::spawn`] becomes available from any
    /// thread until [`ThreadPool::shutdown`] closes the window. Blocks
    /// while a `run` call (or another serve window) owns the pool.
    ///
    /// Like `run`, resets the metrics collector: the snapshot `shutdown`
    /// returns covers exactly this window.
    ///
    /// A window executes on helpers only (worker 0 is the seat `run`'s
    /// caller occupies), so a `threads = 1` pool serves with **zero**
    /// executors: submissions queue up and are drained inline by
    /// `shutdown`. On such a pool, `JoinHandle::join` from a non-worker
    /// thread before `shutdown` would wait on work nobody will run —
    /// join after shutdown, or give the pool at least two workers.
    pub fn serve(&self) {
        assert!(
            current_ctx().is_null(),
            "ThreadPool::serve may not be nested inside a pool run"
        );
        let token = self.acquire_run();
        // The exclusion now spans until shutdown(); drop the guard without
        // releasing.
        std::mem::forget(token);
        // Unlike `run`, worker 0 does not participate: its deque stays
        // empty and unregistered, thieves that pick it just find nothing.
        self.open_generation();
        // Accept spawns only once the collector is reset, so the window's
        // push/pop accounting balances.
        let pool = &*self.inner;
        pool.draining.store(false, Ordering::SeqCst);
        pool.serving.store(true, Ordering::SeqCst);
    }

    /// Submit `f` to the pool from any thread and get a [`JoinHandle`] to
    /// its result. Requires an open serve window (see [`ThreadPool::serve`]);
    /// panics otherwise.
    ///
    /// The task is pushed into the global injector, a parked worker is
    /// woken for it, and workers pull it (batched) after their next
    /// fruitless steal round. A `faultpoints`-forced injector-push failure
    /// degrades to running the task inline on the submitting thread —
    /// submissions are never lost.
    ///
    /// ```
    /// use lcws_core::{PoolBuilder, Variant};
    ///
    /// let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
    /// pool.serve();
    /// let handle = pool.spawn(|| 6 * 7);
    /// assert_eq!(handle.join(), 42);
    /// pool.shutdown();
    /// ```
    pub fn spawn<F, T>(&self, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (job, handle) = self.wrap_task(f, &[]);
        self.submit_batch(&[job]);
        handle
    }

    /// Submit a batch of tasks with a single injector publication (one CAS
    /// for the whole batch) and one wake per batch. Same contract as
    /// [`ThreadPool::spawn`], returning handles in submission order.
    pub fn spawn_batch<F, T, I>(&self, tasks: I) -> Vec<JoinHandle<T>>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let mut jobs: Vec<*mut Job> = Vec::new();
        let mut handles = Vec::new();
        for f in tasks {
            let (job, handle) = self.wrap_task(f, &jobs);
            jobs.push(job);
            handles.push(handle);
        }
        self.submit_batch(&jobs);
        handles
    }

    /// Count one task into the serve window and wrap `f` as a heap job that
    /// publishes into a fresh [`TaskState`]. `wrapped` holds the jobs this
    /// submission has wrapped so far; it matters only when the window turns
    /// out to be closed.
    fn wrap_task<F, T>(&self, f: F, wrapped: &[*mut Job]) -> (*mut Job, JoinHandle<T>)
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let pool = &*self.inner;
        pool.outstanding.fetch_add(1, Ordering::SeqCst);
        // Validate *after* counting (and undo on failure): the increment
        // is what `shutdown`'s drain waits on, so counting first closes the
        // race where a spawn slips between the drain's last-zero check and
        // the generation close. See `task_done` for the SeqCst pairing.
        if !pool.serving.load(Ordering::SeqCst) || pool.draining.load(Ordering::SeqCst) {
            pool.task_done();
            // The jobs wrapped so far are counted in `outstanding` and
            // must not leak — but the window that would drain them is
            // closing (or never opened), so injecting them could strand
            // them forever. Run them inline instead, then fail.
            for &job in wrapped {
                // Safety: never published; sole ownership.
                unsafe { Job::execute(job, NO_WORKER) };
            }
            panic!("ThreadPool::spawn requires an open serve window (call serve() first)");
        }
        let state = Arc::new(TaskState::new());
        let task_state = Arc::clone(&state);
        let inner = Arc::clone(&self.inner);
        let job = HeapJob::push_new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            // Publish the result (waking a blocked joiner) *before* the
            // outstanding decrement: once `shutdown` returns, every handle
            // must already be joinable without blocking.
            task_state.complete(result.map_err(|e| e as Box<dyn Any + Send>));
            inner.task_done();
        });
        (job, JoinHandle { state })
    }

    /// Publish wrapped jobs to the injector as one chain (inline fallback
    /// on a forced push failure) and wake a worker for them.
    fn submit_batch(&self, jobs: &[*mut Job]) {
        if jobs.is_empty() {
            return;
        }
        let pool = &*self.inner;
        match pool.injector.push_batch(jobs) {
            Ok(()) => pool.published(jobs.len()),
            Err(()) => {
                pool.collector.add(Event::OverflowInline, jobs.len() as u64);
                for &job in jobs {
                    // Safety: rejected batch, sole ownership retained.
                    unsafe { Job::execute(job, NO_WORKER) };
                }
            }
        }
    }

    /// Close the serve window: reject further spawns, drain every
    /// outstanding task, quiesce the helpers exactly like `run`'s close
    /// path, and return the window's metrics snapshot. Panics if no serve
    /// window is open. A task panic (of a spawned task whose handle was
    /// dropped unjoined) does **not** resurface here — it lives in the
    /// dropped handle's state; helper *deaths* resurface like in `run`.
    pub fn shutdown(&self) -> Snapshot {
        let pool = &*self.inner;
        assert!(
            pool.serving.load(Ordering::SeqCst),
            "ThreadPool::shutdown without an open serve window"
        );
        pool.draining.store(true, Ordering::SeqCst);
        let drained = || pool.outstanding.load(Ordering::SeqCst) == 0;
        if pool.workers.len() == 1 {
            // No helpers exist to drain the injector: the shutting-down
            // thread becomes worker 0 and drains inline. "Outstanding but
            // nothing visible" means a producer is between its count and
            // its push, or an inline fallback is running elsewhere — a
            // brief window the idle ladder rides out.
            let ctx = WorkerCtx::new(pool, 0);
            let _guard = ctx.install();
            ctx.help_until(drained, PARK_TIMEOUT);
        } else {
            wait_with_watchdog(pool, &pool.drain_cv, "shutdown drain", drained);
        }
        pool.serving.store(false, Ordering::SeqCst);
        let death = close_generation(pool, "shutdown quiescence");
        pool.draining.store(false, Ordering::SeqCst);
        let snapshot = pool.collector.snapshot();
        self.release_run();
        if let Some(payload) = death {
            panic::resume_unwind(payload);
        }
        snapshot
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

    /// How many stall reports the watchdog has emitted over this pool's
    /// lifetime (0 unless [`PoolBuilder::stall_timeout`] was set). For
    /// tests and diagnostics; not part of the stable API.
    #[doc(hidden)]
    pub fn stall_reports(&self) -> u64 {
        self.inner.stall_reports.load(Ordering::Relaxed)
    }

    /// Between-runs self-healing: reap every helper whose death flag is
    /// set, restore its deque/flag state to the canonical empty slot, and
    /// spawn a replacement thread into the slot.
    ///
    /// Returns the respawned worker indices plus the number of *stray*
    /// deaths — join errors from panics that escaped the containment in
    /// `worker_main` (possible only for bugs outside the work loop, e.g.
    /// in the prologue) — so `run` can count both into the fresh metrics.
    ///
    /// A failed respawn (thread-spawn error, or a forced
    /// [`crate::fault::Site::ThreadSpawn`] fire) leaves the slot dead: the
    /// pool keeps running degraded — the slot is excluded from `active`,
    /// its deque is empty, and its zeroed pthread reroutes signals — and
    /// the next `run` retries the respawn.
    fn heal_dead_workers(&self) -> (Vec<u32>, u64) {
        let pool = &*self.inner;
        let mut respawned = Vec::new();
        let mut stray_deaths = 0u64;
        let mut handles = self.handles.lock();
        for index in 1..pool.workers.len() {
            let w = &pool.workers[index];
            if !w.dead.load(Ordering::Acquire) {
                continue;
            }
            // Reap the corpse. Containment makes a dying worker *return*
            // from `worker_main`, so the join normally succeeds; an Err is
            // a second, uncontained panic and counts as its own death.
            if let Some(h) = handles[index - 1].take() {
                if let Err(payload) = h.join() {
                    stray_deaths += 1;
                    eprintln!(
                        "lcws: worker {index} panicked outside its contained \
                         work loop: {}",
                        payload_msg(payload.as_ref())
                    );
                }
            }
            // The previous run quiesced, so the slot is ours: restore the
            // canonical deque state and clear every per-worker flag the
            // dead owner can no longer serve.
            w.deque.reset_for_respawn();
            w.expose_request.store(0, Ordering::Relaxed);
            w.wake_pending.store(false, Ordering::Relaxed);
            // The replacement must not join a generation it never saw open:
            // it baselines at the *current* epoch (stable under the run
            // lock), so it first participates in the next opened run.
            let seen0 = pool.epoch.load(Ordering::Acquire);
            match spawn_helper(&self.inner, index, seen0) {
                Ok(h) => {
                    handles[index - 1] = Some(h);
                    w.dead.store(false, Ordering::Release);
                    respawned.push(index as u32);
                }
                Err(e) => {
                    eprintln!(
                        "lcws: failed to respawn worker {index} ({e}); \
                         continuing degraded with the slot dead"
                    );
                }
            }
        }
        // Replacements must register their pthread handle before the run
        // opens, mirroring the build-time barrier: the first steal of the
        // new generation may already signal them.
        for &index in &respawned {
            let w = &pool.workers[index as usize];
            while w.pthread.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
        }
        (respawned, stray_deaths)
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
        // leave helpers in a live generation; close it first. `shutdown`
        // re-panics helper deaths — contain that here, destructors must
        // not unwind.
        if self.inner.serving.load(Ordering::SeqCst)
            && panic::catch_unwind(AssertUnwindSafe(|| self.shutdown())).is_err()
        {
            eprintln!("lcws: shutdown during pool teardown resurfaced a worker death");
        }
        {
            let _g = self.inner.sync.lock();
            self.inner.shutdown.store(true, Ordering::Release);
            self.inner.start_cv.notify_all();
        }
        for handle in self.handles.get_mut().drain(..).flatten() {
            // Contained deaths return from `worker_main`, so an Err here is
            // a panic that escaped containment; surface it instead of
            // swallowing the payload.
            if let Err(payload) = handle.join() {
                self.inner.collector.add(Event::WorkerDeath, 1);
                eprintln!(
                    "lcws: worker panicked during pool teardown: {}",
                    payload_msg(payload.as_ref())
                );
            }
        }
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

/// Block on `cv` (under `pool.sync`) until `reached` holds. With the stall
/// watchdog armed the wait is timed, and each expiry prints a stall report
/// to stderr and keeps waiting — report-and-keep-waiting, never give up.
fn wait_with_watchdog(pool: &PoolInner, cv: &Condvar, what: &str, reached: impl Fn() -> bool) {
    let mut g = pool.sync.lock();
    while !reached() {
        match pool.stall_timeout {
            None => cv.wait(&mut g),
            Some(timeout) => {
                if cv.wait_for(&mut g, timeout).timed_out() && !reached() {
                    pool.stall_reports.fetch_add(1, Ordering::Relaxed);
                    // Report outside the lock: formatting takes racy
                    // snapshots only, and a helper finishing meanwhile
                    // must not block on us.
                    drop(g);
                    eprintln!("{}", stall_report(pool, what));
                    g = pool.sync.lock();
                }
            }
        }
    }
}

/// Close the current generation (`run`'s end, `shutdown`'s end) and wait
/// for the helpers to drain out of it; returns the first helper-death
/// payload, if any, for the caller to resume — an unclaimed one must not
/// leak into the next generation.
fn close_generation(pool: &PoolInner, what: &str) -> Option<Box<dyn Any + Send>> {
    pool.done_epoch
        .store(pool.epoch.load(Ordering::Acquire), Ordering::Release);
    // Helpers may be parked in the sleeper: wake them all so they can
    // observe the closed generation and quiesce promptly.
    pool.sleep.wake_all();
    lcws_metrics::flush_into(&pool.collector);
    wait_with_watchdog(pool, &pool.quiesce_cv, what, || {
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
    pool.death.lock().take()
}

/// Leave-the-generation guard: flushes the worker's TLS counters and
/// performs the `active` handshake on **every** exit path of a generation —
/// normal drain-out and unwind alike — so `run`'s quiescence wait can never
/// hang on a dead helper.
struct ActiveGuard<'a> {
    pool: &'a PoolInner,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        // Flush first: on the death path the WorkerDeath bump and the
        // dying deque's exposure counts are still in TLS, and the caller
        // reads the collector right after quiescence.
        lcws_metrics::flush_into(&self.pool.collector);
        if self.pool.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.pool.sync.lock();
            self.pool.quiesce_cv.notify_all();
        }
    }
}

/// Best-effort text of a panic payload (the two shapes `panic!` produces).
fn payload_msg(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

/// Dying-owner protocol, run on the worker's own thread after a panic
/// escaped its work loop and before the `ActiveGuard` completes the
/// handshake (DESIGN.md §5e):
///
/// 1. **Expose everything.** The owner publishes its entire private region
///    (`public_bot ← bot`) so thieves rescue tasks that would otherwise be
///    stranded forever. This is safe precisely *because* a panic cannot
///    escape a task boundary (`StackJob::run_erased` catches, `join` funnels
///    sibling panics): an unwind reaching `worker_main` started in
///    scheduler code between tasks, so the deque holds only heap-allocated
///    scope jobs whose scopes are still alive, awaiting their `pending`
///    counts. The run's root cannot return until those jobs execute, and
///    the caller (worker 0) never dies this way, so a live thief always
///    exists to drain them.
/// 2. **Withdraw from the signal plane.** The pthread slot is zeroed before
///    the death flag rises, so a thief that still picks this victim fails
///    fast (its request stays on the flag) and never `pthread_kill`s a
///    corpse.
/// 3. **Publish the death.** Trace event, `worker_deaths` counter (flushed
///    by the guard), the first escaped payload stashed for `run` to resume
///    on the caller, and a `wake_all` so parked thieves re-poll the newly
///    exposed work.
fn handle_worker_death(pool: &PoolInner, index: usize, payload: Box<dyn Any + Send>) {
    let w = &pool.workers[index];
    let exposed = match &w.deque {
        // ABP: every queued task is already public to thieves.
        AnyDeque::Abp(_) => 0,
        AnyDeque::Split(d) => d.expose_all(),
    };
    w.pthread.store(0, Ordering::Release);
    // The kill site can fire inside a park's recheck, after the announce.
    pool.sleep.retire(index);
    w.dead.store(true, Ordering::Release);
    trace::emit(Event::WorkerDeath, 1, exposed);
    eprintln!(
        "lcws: worker {index} died mid-run ({} private task(s) exposed for \
         rescue): {}",
        exposed,
        payload_msg(payload.as_ref())
    );
    {
        let mut death = pool.death.lock();
        if death.is_none() {
            *death = Some(payload);
        }
    }
    pool.sleep.wake_all();
}

/// One line per worker plus pool-level state, for the stall watchdog. All
/// reads are racy snapshots — the stalled pool may be wedged, not stopped —
/// which is fine for a diagnostic aimed at a human.
fn stall_report(pool: &PoolInner, waiting_for: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lcws: stall watchdog: {waiting_for} exceeded {:?} \
         (variant={}, epoch={}, done_epoch={}, active={})",
        pool.stall_timeout.unwrap_or_default(),
        pool.variant.name(),
        pool.epoch.load(Ordering::Relaxed),
        pool.done_epoch.load(Ordering::Relaxed),
        pool.active.load(Ordering::Relaxed),
    );
    for (i, w) in pool.workers.iter().enumerate() {
        let (private, public) = w.deque.depths();
        // The one exposure-request state: pending for how long, signalled?
        let r = w.expose_request.load(Ordering::Relaxed);
        let pending_ns = (r != 0).then(|| request_age_ns(r));
        let _ = writeln!(
            out,
            "  worker {i}: {}{}registered={} parked={} expose_request={pending_ns:?} \
             signalled={} deque={{private: {private}, public: {public}}}",
            if i == 0 { "(caller) " } else { "" },
            if w.dead.load(Ordering::Relaxed) {
                "DEAD "
            } else {
                ""
            },
            w.pthread.load(Ordering::Relaxed) != 0,
            pool.sleep.is_sleeping(i),
            r & REQUEST_SIGNALLED,
        );
    }
    // Flushed totals only: the stalled helpers' TLS counters are exactly
    // what has *not* reached the collector yet.
    let snap = pool.collector.snapshot();
    let _ = writeln!(
        out,
        "  counters (flushed): tasks_run={} steals_ok={} exposures={} \
         worker_deaths={} worker_respawns={}",
        snap.tasks_run(),
        snap.steals_ok(),
        snap.exposures(),
        snap.worker_deaths(),
        snap.worker_respawns(),
    );
    #[cfg(feature = "trace")]
    for w in pool.workers.iter() {
        let tail = w.trace.peek_tail(8);
        if tail.is_empty() {
            continue;
        }
        let _ = write!(out, "  trace tail worker {}:", w.trace.worker_index());
        for ev in tail {
            let _ = write!(
                out,
                " {}({})",
                ev.kind.trace_name().unwrap_or("?"),
                ev.payload
            );
        }
        let _ = writeln!(out);
    }
    out.pop(); // drop the trailing newline; eprintln! adds one
    out
}

/// Start helper `index`'s thread (at build, and again when the healer
/// replaces a dead one). The helper first joins the generation opened
/// after epoch `seen0`.
fn spawn_helper(
    inner: &Arc<PoolInner>,
    index: usize,
    seen0: u64,
) -> std::io::Result<ThreadJoinHandle<()>> {
    if crate::fault::fail_at(crate::fault::Site::ThreadSpawn) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "injected worker-spawn failure",
        ));
    }
    let inner = Arc::clone(inner);
    let fork = hb::fork_token();
    std::thread::Builder::new()
        .name(format!("lcws-{}-{index}", inner.variant.name()))
        .spawn(move || {
            hb::join_token(fork);
            worker_main(inner, index, seen0)
        })
}

fn worker_main(pool: Arc<PoolInner>, index: usize, seen0: u64) {
    lcws_metrics::touch();
    pool.workers[index]
        .pthread
        .store(signal::current_pthread() as u64, Ordering::Release);
    let ctx = WorkerCtx::new(&pool, index);
    let _guard = ctx.install();
    pool.ready.fetch_add(1, Ordering::AcqRel);

    // Respawned helpers baseline at the epoch their healer observed (the
    // original cohort at 0): reading `pool.epoch` here instead could see a
    // generation that opened with this slot excluded from `active`, and
    // joining it would break the quiescence handshake.
    let mut seen = seen0;
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
        // The guard owns this generation's `active` slot: constructed
        // before the work loop, dropped (flush + decrement + notify) on
        // every exit path below — including the unwind path, where it runs
        // *after* the death handler so the handler's counter bumps and
        // death flag are visible by the time the caller wakes.
        let active = ActiveGuard { pool: &pool };
        let unwind = panic::catch_unwind(AssertUnwindSafe(|| {
            ctx.help_until(
                || {
                    if pool.done_epoch.load(Ordering::Acquire) >= generation {
                        return true;
                    }
                    // Supervision fault site: a forced fire panics the
                    // helper here, where the loop asks whether to go on —
                    // the worker provably holds no task in hand, so the
                    // chaos tests can kill it deterministically and assert
                    // the dying-owner handoff rescues everything still
                    // queued (see `handle_worker_death`). Only this, the
                    // helper main loop, carries the site.
                    if crate::fault::fail_at(crate::fault::Site::WorkerLoop) {
                        panic!("injected worker-loop fault (Site::WorkerLoop)");
                    }
                    false
                },
                PARK_TIMEOUT,
            );
        }));
        match unwind {
            Ok(()) => drop(active),
            Err(payload) => {
                handle_worker_death(&pool, index, payload);
                drop(active);
                // The thread exits *normally*: the corpse is reaped and the
                // slot respawned by the next run's healer.
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::request_word;

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
            d.push_bottom(8 as *mut crate::job::Job);
            d.update_public_bottom(crate::deque::ExposurePolicy::One);
            w.expose_request.store(request_word(1), Ordering::Relaxed);
            // Private part empty → acquire_local falls through to
            // pop_public_bottom.
            let job = ctx.acquire_local();
            assert_eq!(job, Some(8 as *mut crate::job::Job));
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
            assert!(ctx.push_or_run_inline(&[job(3)]));
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
        // Healthy pool between runs: nobody dead, reports not yet emitted
        // (this formats the report directly, bypassing the watchdog).
        assert!(!report.contains("DEAD"));
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

    /// Regression: `try_injector` used to fire one `sleep.wake_one()` per
    /// re-queued tail task through `try_push_job` — 3 redundant wake
    /// attempts per `INJECTOR_BATCH = 4` drain. The tail becomes visible
    /// together, so one coalesced wake after the loop suffices.
    #[test]
    fn injector_drain_coalesces_tail_wakes_into_one() {
        let pool = PoolBuilder::new(Variant::Ws).threads(1).build();
        for _ in 0..crate::injector::INJECTOR_BATCH {
            pool.inner
                .injector
                .push_batch(&[HeapJob::push_new(|| {})])
                .expect("no fault plan installed");
        }
        let ctx = WorkerCtx::new(&pool.inner, 0);
        let _guard = ctx.install();
        lcws_metrics::reset_local();
        assert!(ctx.try_injector(), "a queued batch must be drained");
        let c = Collector::new();
        lcws_metrics::flush_into(&c);
        let snap = c.snapshot();
        assert_eq!(
            snap.injector_pops(),
            crate::injector::INJECTOR_BATCH as u64,
            "the whole batch is taken in one visit"
        );
        assert_eq!(
            snap.wake_attempts(),
            1,
            "one coalesced wake for the re-queued tail, not one per task"
        );
        // Drain the re-queued tail so the heap jobs are freed.
        let mut drained = 0;
        while let Some(job) = ctx.acquire_local() {
            ctx.execute(job);
            drained += 1;
        }
        assert_eq!(drained, crate::injector::INJECTOR_BATCH - 1);
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
        assert_eq!(snap.signal_send_attempts(), 0, "no pthread_kill(0)");
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
        d.push_bottom(8 as *mut crate::job::Job);
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
}
