//! The serve window: [`ThreadPool::serve`] opens it, any thread submits
//! through [`ThreadPool::spawn`] / [`ThreadPool::spawn_batch`], and
//! [`ThreadPool::shutdown`] drains and closes it. Whether submissions are
//! accepted is one SeqCst word, `PoolInner::window`, paired Dekker-style
//! with the `outstanding` count (`PoolInner::task_done` has the argument).

use super::*;
use crate::injector::{JoinHandle, SpawnJob};
use crate::job::Job;

impl PoolInner {
    /// Completion side of the serve window's outstanding count, called by
    /// a spawned task's executor once the task has published its result
    /// (and by `wrap_task`'s validation undo).
    ///
    /// A producer counts its task and then reads the window; `shutdown`
    /// moves the window to [`DRAINING`] and then reads the count. Either
    /// this decrement precedes that move in the SeqCst order — then
    /// `shutdown`'s subsequent `outstanding` read sees it — or it follows,
    /// and the window load here reads [`DRAINING`] and the notification is
    /// taken. The notify happens under `sync`, the lock `shutdown` holds
    /// across its check-then-wait, so the signal cannot fall into that gap.
    pub(crate) fn task_done(&self) {
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1
            && self.window.load(Ordering::SeqCst) == DRAINING
        {
            let _g = self.sync.lock();
            self.drain_cv.notify_all();
        }
    }
}

impl ThreadPool {
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
        self.inner.window.store(OPEN, Ordering::SeqCst);
    }

    /// Submit `f` to the pool from any thread and get a [`JoinHandle`] to
    /// its result. Requires an open serve window (see [`ThreadPool::serve`]);
    /// panics otherwise.
    ///
    /// The task is pushed into the global injector, a parked worker is
    /// woken for it, and a worker pulls it after its next fruitless steal
    /// round.
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
        let (job, handle) = self.wrap_task(f);
        self.submit_batch(&[job]);
        handle
    }

    /// Submit a batch of tasks with a single injector publication (one CAS
    /// for the whole batch) and one wake per task, up to one per worker.
    /// Same contract as [`ThreadPool::spawn`], returning handles in
    /// submission order. If `tasks` panics midway, the tasks it yielded
    /// before the panic are still published and run.
    pub fn spawn_batch<F, T, I>(&self, tasks: I) -> Vec<JoinHandle<T>>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let mut jobs: Vec<*mut Job> = Vec::new();
        let mut handles = Vec::new();
        // Wrapped tasks are counted, so the drain waits for them: publish
        // them even if the iterator (or a closed window) unwinds.
        let wrapped = panic::catch_unwind(AssertUnwindSafe(|| {
            for f in tasks {
                let (job, handle) = self.wrap_task(f);
                jobs.push(job);
                handles.push(handle);
            }
        }));
        self.submit_batch(&jobs);
        if let Err(payload) = wrapped {
            panic::resume_unwind(payload);
        }
        handles
    }

    /// Count one task into the serve window and allocate its block.
    fn wrap_task<F, T>(&self, f: F) -> (*mut Job, JoinHandle<T>)
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let pool = &*self.inner;
        pool.outstanding.fetch_add(1, Ordering::SeqCst);
        // Validate *after* counting (and undo on failure): the increment
        // is what `shutdown`'s drain waits on, so counting first closes the
        // race where a spawn slips between the drain's last-zero check and
        // the generation close (`task_done` has the pairing).
        if pool.window.load(Ordering::SeqCst) != OPEN {
            pool.task_done();
            panic!("ThreadPool::spawn requires an open serve window (call serve() first)");
        }
        SpawnJob::allocate(f, pool as *const PoolInner as usize)
    }

    /// Publish wrapped jobs to the injector as one chain and wake a worker
    /// per job, up to the pool size: a worker pulls one task and passes no
    /// wake on, so each task that may run in parallel needs its own.
    fn submit_batch(&self, jobs: &[*mut Job]) {
        if jobs.is_empty() {
            return;
        }
        let pool = &*self.inner;
        pool.injector.push_batch(jobs);
        // External threads have no TLS metrics cells to flush, so the
        // ingress count goes to the collector directly (not a
        // `trace::emit`); the trace half is a no-op unless the submitter is
        // itself a worker thread.
        pool.collector.add(Event::InjectorPush, jobs.len() as u64);
        trace::record(Event::InjectorPush, jobs.len() as u32);
        for _ in 0..jobs.len().min(pool.workers.len()) {
            pool.sleep.wake_one();
        }
    }

    /// Close the serve window: reject further spawns, drain every
    /// outstanding task, quiesce the helpers exactly like `run`'s close
    /// path, and return the window's metrics snapshot. Panics if no serve
    /// window is open. A task panic (of a spawned task whose handle was
    /// dropped unjoined) does **not** resurface here — it lives in the
    /// dropped handle's state.
    pub fn shutdown(&self) -> Snapshot {
        let pool = &*self.inner;
        let opened =
            pool.window
                .compare_exchange(OPEN, DRAINING, Ordering::SeqCst, Ordering::SeqCst);
        assert!(
            opened.is_ok(),
            "ThreadPool::shutdown without an open serve window"
        );
        let drained = || pool.outstanding.load(Ordering::SeqCst) == 0;
        if pool.workers.len() == 1 {
            // No helpers exist to drain the injector: the shutting-down
            // thread becomes worker 0 and drains inline. "Outstanding but
            // nothing visible" means a producer is between its count and
            // its push — a brief window the idle ladder rides out.
            let ctx = WorkerCtx::new(pool, 0);
            let _guard = ctx.install();
            ctx.help_until(drained, PARK_TIMEOUT);
        } else {
            pool.wait_with_watchdog(&pool.drain_cv, "shutdown drain", drained);
        }
        pool.window.store(CLOSED, Ordering::SeqCst);
        close_generation(pool, "shutdown quiescence");
        let snapshot = pool.collector.snapshot();
        self.release_run();
        snapshot
    }
}
