//! Helper-thread supervision (DESIGN.md §5e): starting helpers and waiting
//! for them to register, joining them, the dying-owner handoff, the
//! between-runs healer, and the opt-in stall watchdog.

use super::*;
use crate::fault::{self, Site};
use crate::worker::{request_age_ns, REQUEST_SIGNALLED};

/// Start helper `index`'s thread (at build, and again when the healer
/// replaces a dead one). The helper first joins the generation opened
/// after epoch `seen0`.
pub(super) fn spawn_helper(
    inner: &Arc<PoolInner>,
    index: usize,
    seen0: u64,
) -> std::io::Result<ThreadJoinHandle<()>> {
    if fault::fail_at(Site::ThreadSpawn) {
        return Err(std::io::Error::other("injected worker-spawn failure"));
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

/// The registration barrier of `build` and the healer: wait until every
/// helper in `indices` stored its pthread handle, which it does only once
/// its signal handler is armed — so the first steal of the next generation
/// may already signal it.
pub(super) fn await_registration(pool: &PoolInner, indices: impl IntoIterator<Item = usize>) {
    for index in indices {
        while pool.workers[index].pthread.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    }
}

/// Join helper threads and return how many panicked. Containment makes a
/// dying helper *return* from `worker_main`, so a join error is a panic
/// that escaped it: print its payload rather than swallow it.
fn join_helpers(handles: impl IntoIterator<Item = ThreadJoinHandle<()>>) -> u64 {
    let mut panicked = 0;
    for handle in handles {
        let thread = handle.thread().clone();
        if let Err(payload) = handle.join() {
            panicked += 1;
            eprintln!(
                "lcws: {} panicked outside its contained work loop: {}",
                thread.name().unwrap_or("worker"),
                payload_msg(payload.as_ref())
            );
        }
    }
    panicked
}

impl PoolInner {
    /// The one teardown (a failed build, `Drop`): tell every helper to exit
    /// for good — set under `sync`, so none misses it between its check and
    /// its wait — then join them. Returns how many panicked.
    pub(super) fn stop_helpers(&self, handles: Vec<Option<ThreadJoinHandle<()>>>) -> u64 {
        {
            let _g = self.sync.lock();
            self.shutdown.store(true, Ordering::Release);
            self.start_cv.notify_all();
        }
        join_helpers(handles.into_iter().flatten())
    }

    /// Block on `cv` (under `sync`) until `reached` holds. With the stall
    /// watchdog armed the wait is timed, and each expiry prints a stall
    /// report to stderr and keeps waiting — report-and-keep-waiting, never
    /// give up.
    pub(super) fn wait_with_watchdog(&self, cv: &Condvar, what: &str, reached: impl Fn() -> bool) {
        let mut g = self.sync.lock();
        while !reached() {
            match self.stall_timeout {
                None => cv.wait(&mut g),
                Some(timeout) => {
                    if cv.wait_for(&mut g, timeout).timed_out() && !reached() {
                        self.stall_reports.fetch_add(1, Ordering::Relaxed);
                        // Report outside the lock: formatting takes racy
                        // snapshots only, and a helper finishing meanwhile
                        // must not block on us.
                        drop(g);
                        eprintln!("{}", stall_report(self, what));
                        g = self.sync.lock();
                    }
                }
            }
        }
    }
}

impl ThreadPool {
    /// How many stall reports the watchdog has emitted over this pool's
    /// lifetime (0 unless [`PoolBuilder::stall_timeout`] was set).
    /// For tests and diagnostics; not part of the stable API.
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
    /// `worker_main` — so `run` can count both into the fresh metrics.
    ///
    /// A failed respawn (thread-spawn error, or a forced
    /// [`Site::ThreadSpawn`] fire) leaves the slot dead: the pool keeps
    /// running degraded — the slot is excluded from `active`, its deque is
    /// empty, and its zeroed pthread keeps requests on the flag — and the
    /// next `run` retries the respawn.
    pub(super) fn heal_dead_workers(&self) -> (Vec<u32>, u64) {
        let pool = &*self.inner;
        let mut respawned = Vec::new();
        let mut stray_deaths = 0;
        let mut handles = self.handles.lock();
        for index in 1..pool.workers.len() {
            let w = &pool.workers[index];
            if !w.dead.load(Ordering::Acquire) {
                continue;
            }
            stray_deaths += join_helpers(handles[index - 1].take());
            // The previous run quiesced, so the slot is ours: empty the
            // deque and clear every per-worker flag the dead owner can no
            // longer serve.
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
                Err(e) => eprintln!(
                    "lcws: failed to respawn worker {index} ({e}); \
                     continuing degraded with the slot dead"
                ),
            }
        }
        await_registration(pool, respawned.iter().map(|&i| i as usize));
        (respawned, stray_deaths)
    }
}

/// Best-effort text of a panic payload (the two shapes `panic!` produces).
fn payload_msg(payload: &(dyn Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    let text = text.or_else(|| payload.downcast_ref::<&'static str>().copied());
    text.unwrap_or("<non-string panic payload>")
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
pub(super) fn handle_worker_death(pool: &PoolInner, index: usize, payload: Box<dyn Any + Send>) {
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
pub(super) fn stall_report(pool: &PoolInner, waiting_for: &str) -> String {
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
        let dead = if w.dead.load(Ordering::Relaxed) {
            "DEAD "
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  worker {i}: {}{dead}registered={} parked={} expose_request={pending_ns:?} \
             signalled={} deque={{private: {private}, public: {public}}}",
            if i == 0 { "(caller) " } else { "" },
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
            let name = ev.kind.trace_name().unwrap_or("?");
            let _ = write!(out, " {name}({})", ev.payload);
        }
        let _ = writeln!(out);
    }
    out.pop(); // drop the trailing newline; eprintln! adds one
    out
}
