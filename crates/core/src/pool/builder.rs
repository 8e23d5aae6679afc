//! [`PoolBuilder`]: resolve the policy bundle, lay out the worker slots,
//! start the helpers and wait for them to register.

use super::supervision::{await_registration, spawn_helper};
use super::*;
use crate::deque::{AbpDeque, SplitDeque, DEFAULT_DEQUE_CAPACITY};
use crate::shim;

/// Builder for [`ThreadPool`].
#[derive(Debug, Clone)]
pub struct PoolBuilder {
    variant: Variant,
    /// Explicit policy-bundle override; `None` means "the variant's own
    /// composition".
    policies: Option<Policies>,
    threads: Option<usize>,
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
        let parallelism = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = self.threads.unwrap_or_else(parallelism);
        // Resolve the policy bundle: explicit override, else the variant's
        // composition.
        let policies = self.policies.unwrap_or_else(|| self.variant.policies());
        if policies.uses_signals() {
            signal::install_handler();
        }
        let workers = (0..threads)
            .map(|index| self.worker_slot(&policies, index))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let inner = Arc::new(PoolInner {
            variant: self.variant,
            policies,
            sleep: Sleep::new(threads),
            injector: Injector::new(),
            outstanding: AtomicUsize::new(0),
            window: AtomicU8::new(CLOSED),
            drain_cv: Condvar::new(),
            workers,
            collector: Collector::new(),
            epoch: AtomicU64::new(0),
            done_epoch: AtomicU64::new(0),
            active: AtomicUsize::new(0),
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
        let mut handles = Vec::with_capacity(threads - 1);
        for index in 1..threads {
            match spawn_helper(&inner, index, 0) {
                Ok(h) => handles.push(Some(h)),
                Err(e) => {
                    // Partial build: join every helper spawned so far before
                    // surfacing the error — a panic with context is
                    // acceptable, leaked threads are not.
                    let panicked = inner.stop_helpers(handles);
                    panic!(
                        "failed to spawn worker thread {index} of {threads} \
                         ({e}); {} already-spawned worker(s) joined \
                         ({panicked} of them panicked)",
                        index - 1
                    );
                }
            }
        }
        // The first run may already signal any victim.
        await_registration(&inner, 1..threads);
        ThreadPool {
            inner,
            handles: Mutex::new(handles),
            run_state: Mutex::new(false),
            run_free: Condvar::new(),
        }
    }

    /// Slot `index` of the pool being built (only the trace ring needs to
    /// know which slot it is).
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    fn worker_slot(&self, policies: &Policies, index: usize) -> WorkerShared {
        let deque = if policies.uses_split_deque() {
            AnyDeque::Split(SplitDeque::new(DEFAULT_DEQUE_CAPACITY))
        } else {
            AnyDeque::Abp(AbpDeque::new(DEFAULT_DEQUE_CAPACITY))
        };
        WorkerShared {
            deque,
            expose_request: CachePadded::new(shim::named_u64(0, "expose_request")),
            pthread: AtomicU64::new(0),
            wake_pending: CachePadded::new(AtomicBool::new(false)),
            dead: AtomicBool::new(false),
            #[cfg(feature = "trace")]
            trace: trace::TraceRing::new(index as u16, self.trace_capacity),
        }
    }
}
