//! Helper-thread supervision (DESIGN.md §5e): starting helpers and waiting
//! for them to register, joining them, and the opt-in stall watchdog.

use super::*;
use crate::fault::{self, Site};
use crate::worker::{request_age_ns, REQUEST_SIGNALLED};

/// Start helper `index`'s thread at build; it joins the first generation.
pub(super) fn spawn_helper(
    inner: &Arc<PoolInner>,
    index: usize,
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
            worker_main(inner, index)
        })
}

/// The registration barrier of `build`: wait until every helper in
/// `indices` stored its pthread handle, which it does only once its signal
/// handler is armed — so the first steal of the first generation may
/// already signal it.
pub(super) fn await_registration(pool: &PoolInner, indices: impl IntoIterator<Item = usize>) {
    for index in indices {
        while pool.workers[index].pthread.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    }
}

impl PoolInner {
    /// The one teardown (a failed build, `Drop`): tell every helper to exit
    /// for good — set under `sync`, so none misses it between its check and
    /// its wait — then join them. A join cannot fail: a panic that escapes
    /// a helper's body aborts the process first (`worker_main`).
    pub(super) fn stop_helpers(&self, handles: Vec<ThreadJoinHandle<()>>) {
        {
            let _g = self.sync.lock();
            self.shutdown.store(true, Ordering::Release);
            self.start_cv.notify_all();
        }
        for handle in handles {
            let _ = handle.join();
        }
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
        let _ = writeln!(
            out,
            "  worker {i}: {}registered={} parked={} expose_request={pending_ns:?} \
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
        "  counters (flushed): tasks_run={} steals_ok={} exposures={}",
        snap.tasks_run(),
        snap.steals_ok(),
        snap.exposures(),
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
