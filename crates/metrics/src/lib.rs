//! Synchronization-operation instrumentation for the LCWS schedulers.
//!
//! The SPAA '23 paper's primary quantitative evidence (Figures 3 and 8) is
//! the *count of synchronization operations* — seq-cst memory fences and
//! compare-and-swap instructions — executed by each scheduler, together with
//! scheduling-event counts (steal attempts, successful steals, work
//! exposures, exposed-but-unstolen tasks, signals sent, idle iterations).
//!
//! This crate provides that accounting with near-zero perturbation:
//!
//! * Every counter increment is a **plain, non-atomic add on a thread-local
//!   `Cell<u64>`** (one load, one add, one store — no lock prefix, no fence).
//!   Counting a fence with an atomic RMW would itself be a synchronization
//!   operation and would distort exactly the quantity being measured.
//! * Thread-local counters are **flushed** into a shared [`Collector`] at
//!   natural quiescence points (the scheduler flushes when a parallel run
//!   finishes), where a handful of `fetch_add`s per thread per run are noise.
//!
//! The instrumented entry points ([`fence_seq_cst`], [`record_cas`], …) are
//! called by `lcws-core`'s deques and schedulers at exactly the points where
//! the paper's C++ listings execute the corresponding instruction, so the
//! per-run [`Snapshot`] reproduces the paper's profile plots.
//!
//! What can be counted is declared once, in this file's event table
//! (`event_table!`): the same [`Event`] names a counter here and a trace
//! record in `lcws-core`, so the two can never drift apart.
//!
//! Signal-handler safety: the signal-based schedulers bump these counters
//! from inside a `SIGUSR1` handler. That is sound because the increments
//! touch only a `Cell` in the *interrupted thread's own* TLS block (already
//! initialized by the worker prologue) and perform no allocation, locking,
//! or syscalls.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds `Some(name)` from a table cell, `None` from an empty one.
macro_rules! cell_name {
    () => {
        None
    };
    ($name:ident) => {
        Some(stringify!($name))
    };
}

/// Emits the [`Snapshot`] getter of a counted row; nothing for a row
/// without a `count:` cell.
macro_rules! counter_getter {
    ($(#[$doc:meta])* $variant:ident) => {};
    ($(#[$doc:meta])* $variant:ident $csv:ident) => {
        $(#[$doc])*
        pub fn $csv(&self) -> u64 {
            self.get(Event::$variant)
        }
    };
}

/// The event table: every scheduling event is declared here exactly once.
///
/// A row is the variant, its doc comment, a `count:` cell (the CSV column
/// and [`Snapshot`] getter name; empty = never counted) and a `trace:` cell
/// (the Chrome-trace name; empty = never traced). From the rows the macro
/// generates [`Event`], [`Event::ALL`], [`Event::COUNT`], both name
/// lookups, [`Event::from_index`] and one `Snapshot` getter per counted
/// row. Adding an event is one row here plus its call site.
///
/// CSV columns are the counted rows in table order, so a new counted row
/// goes below the last one (archived CSVs keep their column positions).
macro_rules! event_table {
    ($(
        $(#[$doc:meta])*
        $variant:ident { $(count: $csv:ident)? $(,)? $(trace: $trace:ident)? }
    )*) => {
        /// A scheduling event: something the instrumentation counts, traces,
        /// or both. One vocabulary for `lcws-metrics` counters and
        /// `lcws-core`'s trace rings.
        ///
        /// The discriminant is the row's index in the event table. It
        /// indexes [`Collector`]/[`Snapshot`] storage and is the code a
        /// trace ring stores; it never leaves the process, so rows may be
        /// reordered — the *names* are the stable surface.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u16)]
        pub enum Event {
            $( $(#[$doc])* $variant, )*
        }

        impl Event {
            /// Every event, in table order (`ALL[e as usize] == e`).
            pub const ALL: &'static [Event] = &[$(Event::$variant),*];

            /// Number of rows in the table.
            pub const COUNT: usize = Self::ALL.len();

            /// CSV column / [`Snapshot`] getter name; `None` for an event
            /// that is only traced.
            pub const fn counter_name(self) -> Option<&'static str> {
                match self {
                    $( Event::$variant => cell_name!($($csv)?), )*
                }
            }

            /// Chrome-trace event name; `None` for an event that is only
            /// counted.
            pub const fn trace_name(self) -> Option<&'static str> {
                match self {
                    $( Event::$variant => cell_name!($($trace)?), )*
                }
            }

            /// Decode a table index (`None` past the end of the table, e.g.
            /// a trace ring's never-written slot marker).
            pub fn from_index(index: u16) -> Option<Event> {
                Self::ALL.get(index as usize).copied()
            }
        }

        impl Snapshot {
            $( counter_getter! { $(#[$doc])* $variant $($csv)? } )*
        }
    };
}

event_table! {
    /// Sequentially-consistent memory fences (`atomic_thread_fence(seq_cst)`
    /// in the paper's Listing 2, and the fence the WS baseline deque pays on
    /// every local `pop_bottom`).
    Fence { count: fences }
    /// Compare-and-swap instructions (successful or failed).
    Cas { count: cas }
    /// Steal attempts: every `pop_top` invocation by a thief.
    StealAttempt { count: steal_attempts }
    /// Successful steals: `pop_top` returned a task to a thief. Counted in
    /// the deque, traced by the thief's steal loop (payload = victim index).
    StealOk { count: steals_ok, trace: steal_ok }
    /// Steal attempts answered with `PRIVATE_WORK` (the victim had only
    /// private tasks, so the thief requested exposure). Counted in the
    /// deque, traced by the thief's steal loop (payload = victim index).
    StealPrivate { count: steals_private, trace: steal_private }
    /// Tasks transferred from the private to the public part of a split
    /// deque (`update_public_bottom` moved the boundary by one per task;
    /// payload = how many this call moved, and the count adds the payload).
    Exposure { count: exposures, trace: expose }
    /// Exposed tasks that were re-taken by their owner via
    /// `pop_public_bottom` — the paper's "exposed work that is not stolen"
    /// (payload = new public boundary, low 32 bits).
    OwnerPublicPop { count: owner_public_pops, trace: public_pop }
    /// `pthread_kill(SIGUSR1)` notifications that reached a victim.
    SignalSent { count: signals_sent }
    /// Work-exposure requests handled (signal-handler activations or
    /// owner-side polls of the request word that led to an exposure
    /// check).
    ExposureRequest { count: exposure_requests }
    /// Iterations of the thief loop that yielded no task.
    IdleIter { count: idle_iters }
    /// Tasks executed (both locally popped and stolen).
    TaskRun { count: tasks_run }
    /// Local bottom pushes (`push_bottom`; payload = the new bottom index,
    /// low 32 bits: deque indices only grow, so it is not a depth).
    Push { count: pushes, trace: push }
    /// Successful local bottom pops (`pop_bottom` returned a task;
    /// payload = the new bottom index, low 32 bits).
    LocalPop { count: local_pops, trace: local_pop }
    /// Times a worker fully escalated its idle backoff and blocked on its
    /// sleeper slot (condvar park; payload = 0).
    Park { count: parks, trace: park }
    /// Wakeups delivered to parked workers by producers (push, exposure,
    /// run close). Counted and traced on the *waker* (payload = index of
    /// the woken worker).
    Unpark { count: unparks, trace: unpark }
    /// Parks that ended without a matching wakeup: timed-park backstop
    /// expiry or a spurious condvar return (payload = 0).
    SpuriousWake { count: spurious_wakes, trace: spurious_wake }
    /// `pthread_kill` notifications that returned a nonzero status (e.g.
    /// ESRCH from a racing thread exit); each send is one attempt.
    /// Counted in the sender, traced by the thief (payload = victim index),
    /// where it cancels the pending latency pairing.
    SignalSendFailed { count: signal_send_failed, trace: signal_send_failed }
    /// Signal escalations that could not be delivered (failed send, or a
    /// victim with no registered handle): the steal request stays on the
    /// flag the victim polls, so it is not lost (payload = victim index).
    SignalFallbackFlag { count: signal_fallback_flag, trace: fallback_reroute }
    /// Fault-injection sites that fired (delay, yield storm, or forced
    /// failure). Always zero unless the `faultpoints` feature of
    /// `lcws-core` is enabled and a plan is installed.
    FaultInjected { count: faults_injected }
    /// Steal attempts that lost the `top` CAS race to another taker
    /// (`Steal::Abort`). Distinct from an empty victim: an abort proves the
    /// victim held work an instant ago, so thieves must not treat it as
    /// emptiness when escalating their idle backoff.
    StealAbort { count: steal_aborts }
    /// Deque ring-buffer growths: `push_bottom` found the current ring full
    /// and doubled it (payload = new capacity in slots). One count per
    /// successful doubling, so the final capacity of a worker's deque is
    /// `initial << grows` (per deque; this counter aggregates across
    /// workers like every other counter).
    DequeGrow { count: deque_grows, trace: deque_grow }
    /// Worker threads that died: a panic escaped a helper's work loop (the
    /// job-level `catch_unwind` contains task panics, so this counts
    /// scheduler-internal failures and injected `WorkerLoop` faults), or a
    /// join at teardown surfaced a panic payload. Traced on the dying
    /// worker, before it leaves the run's `active` handshake (payload =
    /// private tasks exposed for rescue).
    WorkerDeath { count: worker_deaths, trace: worker_death }
    /// Replacement helper threads spawned by the pool's between-run
    /// self-healing pass (one per dead worker successfully respawned).
    /// Traced on worker 0's ring at the start of the run that healed the
    /// pool (payload = the respawned worker's index).
    WorkerRespawn { count: worker_respawns, trace: worker_respawn }
    /// Tasks submitted to the pool's global injector
    /// (`ThreadPool::spawn`/`spawn_batch`; payload = tasks in the
    /// submission). External producer threads account these directly into
    /// the pool collector (they have no flushed thread-local cells) and
    /// have no trace ring, so their pushes appear only in the counter.
    InjectorPush { count: injector_pushes, trace: inject }
    /// Tasks taken out of the global injector by workers falling back to
    /// it between steal attempts, one per pull and one record each.
    /// `injector_pushes == injector_pops` once a serve generation drains.
    InjectorPop { count: injector_pops, trace: injector_pop }
    /// Race reports emitted by the happens-before checker (`hb` feature of
    /// `lcws-core`). Always zero in default builds; any nonzero value under
    /// `--features hb` is a detected data race (two accesses to a tracked
    /// location unordered by happens-before).
    HbReport { count: hb_reports }
    /// **Extra** tasks transferred by a direct `SplitDeque::pop_top_batch`
    /// call, beyond the one task every successful steal returns: a batch
    /// that took `k` tasks counts this event `k - 1` times. No pool steals
    /// in batches, so this is 0 in every pool run; it stays because the
    /// benchmark (`lcws-e2e`) measures `pop_top_batch`.
    StealBatchTask { count: steal_batch_tasks }
    /// Producer-side wake attempts: every `wake_one` / `wake_worker` /
    /// `wake_all` call, counted *before* the has-sleepers fast-path exit, so
    /// redundant notifications are visible even when nobody was parked.
    WakeAttempt { count: wake_attempts }

    // Traced only: no CSV column.

    /// A pool run opened (worker 0; payload = number of workers).
    RunStart { trace: run_start }
    /// A pool run closed after quiescence (worker 0; payload = 0).
    RunClose { trace: run_close }
    /// Thief began sending `SIGUSR1` to a victim (payload = victim index).
    /// Recorded *before* `pthread_kill`, so the victim's
    /// [`Event::HandlerEntry`] minus this timestamp is the true delivery
    /// latency.
    SignalSend { trace: signal_send }
    /// `SIGUSR1` handler entered on the victim (payload = 0). Recorded in
    /// signal context.
    HandlerEntry { trace: handler_entry }
    /// Handler finished its exposure (payload = tasks exposed, possibly 0).
    /// Recorded in signal context.
    HandlerExpose { trace: handler_expose }
    /// Owner served an exposure request at a task boundary (payload = 1
    /// when the request had already been escalated to a signal — still in
    /// flight, or undeliverable — else 0).
    TargetedPoll { trace: targeted_poll }
}

thread_local! {
    static LOCAL: [Cell<u64>; Event::COUNT] = const {
        [const { Cell::new(0) }; Event::COUNT]
    };
}

/// Count `event` once on the current thread.
///
/// Cost: one non-atomic TLS add. Safe to call from a signal handler once the
/// thread has touched its counters at least once (worker prologues call
/// [`touch`] to guarantee this).
#[inline]
pub fn bump(event: Event) {
    bump_by(event, 1);
}

/// Count `event` `n` times on the current thread.
#[inline]
pub fn bump_by(event: Event, n: u64) {
    debug_assert!(event.counter_name().is_some(), "{event:?} is not counted");
    LOCAL.with(|c| {
        let cell = &c[event as usize];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Force initialization of this thread's counter TLS block.
///
/// Worker threads call this before installing signal handlers so that
/// handler-context increments never trigger lazy TLS initialization.
pub fn touch() {
    LOCAL.with(|c| {
        let _ = c[0].get();
    });
}

/// Issue a sequentially-consistent fence **and** account for it.
///
/// All fences in the instrumented deques go through this function so the
/// fence counts of Figures 3a/8a/8e can be regenerated exactly.
#[inline]
pub fn fence_seq_cst() {
    std::sync::atomic::fence(Ordering::SeqCst);
    bump(Event::Fence);
}

/// Account for one compare-and-swap instruction (call adjacent to the CAS).
#[inline]
pub fn record_cas() {
    bump(Event::Cas);
}

/// Flush this thread's counters into `collector`, resetting them to zero.
///
/// Called by the scheduler whenever a worker quiesces at the end of a
/// parallel run, and by the main thread before reading a [`Snapshot`].
pub fn flush_into(collector: &Collector) {
    LOCAL.with(|c| {
        for (i, cell) in c.iter().enumerate() {
            let v = cell.replace(0);
            if v != 0 {
                collector.totals[i].fetch_add(v, Ordering::Relaxed);
            }
        }
    });
}

/// Discard this thread's pending counts (used between measurement phases).
pub fn reset_local() {
    LOCAL.with(|c| {
        for cell in c.iter() {
            cell.set(0);
        }
    });
}

/// Shared accumulation target for a group of threads.
///
/// A scheduler owns one `Collector`; its workers flush into it at quiescence.
/// `Collector` is cheap to share (`Arc` internally-atomic totals).
#[derive(Debug)]
pub struct Collector {
    totals: [AtomicU64; Event::COUNT],
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            totals: [const { AtomicU64::new(0) }; Event::COUNT],
        }
    }
}

impl Collector {
    /// New collector with all totals zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Reset all totals to zero (start of a measured run).
    pub fn reset(&self) {
        for t in &self.totals {
            t.store(0, Ordering::Relaxed);
        }
    }

    /// Read the current totals.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for (i, t) in self.totals.iter().enumerate() {
            s.counts[i] = t.load(Ordering::Relaxed);
        }
        s
    }

    /// Add `v` to one total directly (used by tests and by flushes from
    /// threads that are about to exit).
    pub fn add(&self, event: Event, v: u64) {
        self.totals[event as usize].fetch_add(v, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Collector`]'s totals. Every counted row of
/// the event table has a getter named after its CSV column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; Event::COUNT],
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            counts: [0; Event::COUNT],
        }
    }
}

impl Snapshot {
    /// Value of one counter.
    #[inline]
    pub fn get(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// `(column name, value)` of every counted row, in CSV column order.
    fn columns(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Event::ALL
            .iter()
            .filter_map(|&e| Some((e.counter_name()?, self.get(e))))
    }

    /// Fraction of exposed tasks that were **not** stolen (taken back by the
    /// owner) — the paper's Figure 3d / 8d metric. `None` when nothing was
    /// exposed.
    pub fn unstolen_exposure_ratio(&self) -> Option<f64> {
        let exposed = self.exposures();
        if exposed == 0 {
            return None;
        }
        Some(self.owner_public_pops() as f64 / exposed as f64)
    }

    /// Ratio of one snapshot's counter to another's (paper plots e.g.
    /// "USLCWS fences / WS fences"). `None` when the denominator is zero.
    pub fn ratio(&self, other: &Snapshot, event: Event) -> Option<f64> {
        let d = other.get(event);
        if d == 0 {
            return None;
        }
        Some(self.get(event) as f64 / d as f64)
    }

    /// Element-wise sum of two snapshots.
    pub fn merged(&self, other: &Snapshot) -> Snapshot {
        let mut out = *self;
        for i in 0..Event::COUNT {
            out.counts[i] = out.counts[i].wrapping_add(other.counts[i]);
        }
        out
    }

    /// Element-wise difference (`self - other`), saturating at zero.
    pub fn since(&self, other: &Snapshot) -> Snapshot {
        let mut out = *self;
        for i in 0..Event::COUNT {
            out.counts[i] = out.counts[i].saturating_sub(other.counts[i]);
        }
        out
    }

    /// CSV header matching [`Snapshot::to_csv_row`]: the counted rows of
    /// the event table, in table order.
    pub fn csv_header() -> String {
        let names: Vec<_> = Event::ALL.iter().filter_map(|e| e.counter_name()).collect();
        names.join(",")
    }

    /// Comma-separated counter values in [`Snapshot::csv_header`] order.
    pub fn to_csv_row(&self) -> String {
        let values: Vec<_> = self.columns().map(|(_, v)| v.to_string()).collect();
        values.join(",")
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, v) in self.columns().filter(|&(_, v)| v != 0) {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={v}")?;
            first = false;
        }
        if first {
            write!(f, "(all zero)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_flush_accumulate() {
        reset_local();
        let c = Collector::new();
        bump(Event::Fence);
        bump(Event::Fence);
        bump_by(Event::Cas, 5);
        flush_into(&c);
        let s = c.snapshot();
        assert_eq!(s.fences(), 2);
        assert_eq!(s.cas(), 5);
        // Locals were reset by the flush.
        flush_into(&c);
        assert_eq!(c.snapshot().fences(), 2);
    }

    #[test]
    fn fence_counts_and_orders() {
        reset_local();
        let c = Collector::new();
        fence_seq_cst();
        flush_into(&c);
        assert_eq!(c.snapshot().fences(), 1);
    }

    #[test]
    fn snapshot_ratio_and_unstolen() {
        let c = Collector::new();
        c.add(Event::Exposure, 10);
        c.add(Event::OwnerPublicPop, 4);
        let s = c.snapshot();
        assert_eq!(s.unstolen_exposure_ratio(), Some(0.4));

        let d = Collector::new();
        d.add(Event::Fence, 100);
        c.add(Event::Fence, 25);
        let r = c.snapshot().ratio(&d.snapshot(), Event::Fence);
        assert_eq!(r, Some(0.25));
    }

    #[test]
    fn ratio_none_on_zero_denominator() {
        let a = Collector::new().snapshot();
        let b = Collector::new().snapshot();
        assert_eq!(a.ratio(&b, Event::Fence), None);
        assert_eq!(a.unstolen_exposure_ratio(), None);
    }

    #[test]
    fn flush_from_multiple_threads() {
        let c = Collector::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    reset_local();
                    for _ in 0..100 {
                        bump(Event::TaskRun);
                    }
                    flush_into(c);
                });
            }
        });
        assert_eq!(c.snapshot().tasks_run(), 400);
    }

    #[test]
    fn merged_and_since() {
        let c = Collector::new();
        c.add(Event::Push, 7);
        c.add(Event::LocalPop, 3);
        let s1 = c.snapshot();
        c.add(Event::Push, 5);
        let s2 = c.snapshot();
        assert_eq!(s2.since(&s1).pushes(), 5);
        assert_eq!(s2.since(&s1).local_pops(), 0);
        assert_eq!(s1.merged(&s2).pushes(), 19);
    }

    /// The table is the only list: indices decode back, no name is used
    /// twice in a column, every row has a name, and both frozen name lists
    /// (CSV header, Chrome-trace names) still read as they did before the
    /// table existed.
    #[test]
    fn event_table_is_the_only_list() {
        for (i, &e) in Event::ALL.iter().enumerate() {
            assert_eq!(e as usize, i);
            assert_eq!(Event::from_index(i as u16), Some(e));
            assert!(
                e.counter_name().is_some() || e.trace_name().is_some(),
                "{e:?} is neither counted nor traced"
            );
        }
        assert_eq!(Event::from_index(Event::COUNT as u16), None);
        assert_eq!(Event::from_index(u16::MAX), None, "fresh-slot marker");

        let column = |name: fn(Event) -> Option<&'static str>| -> Vec<&'static str> {
            let mut names: Vec<_> = Event::ALL.iter().filter_map(|&e| name(e)).collect();
            let listed = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), listed, "a name is used twice: {names:?}");
            names
        };
        // Frozen: the sweep CSVs' columns, in this order.
        assert_eq!(
            Snapshot::csv_header(),
            "fences,cas,steal_attempts,steals_ok,steals_private,exposures,\
             owner_public_pops,signals_sent,exposure_requests,idle_iters,tasks_run,\
             pushes,local_pops,parks,unparks,spurious_wakes,\
             signal_send_failed,signal_fallback_flag,faults_injected,\
             steal_aborts,deque_grows,worker_deaths,worker_respawns,\
             injector_pushes,injector_pops,hb_reports,steal_batch_tasks,\
             wake_attempts"
        );
        assert_eq!(
            column(Event::counter_name).len(),
            Snapshot::default().to_csv_row().split(',').count(),
            "header and row column counts must match"
        );
        // Frozen: the Chrome-trace event names (any order).
        assert_eq!(
            column(Event::trace_name).join(","),
            "deque_grow,expose,fallback_reroute,handler_entry,handler_expose,inject,\
             injector_pop,local_pop,park,public_pop,push,run_close,\
             run_start,signal_send,signal_send_failed,spurious_wake,steal_ok,\
             steal_private,targeted_poll,unpark,worker_death,worker_respawn"
        );
    }

    #[test]
    fn display_skips_zeros() {
        let c = Collector::new();
        c.add(Event::SignalSent, 2);
        let txt = format!("{}", c.snapshot());
        assert!(txt.contains("signals_sent=2"));
        assert!(!txt.contains("fences"));
        assert_eq!(format!("{}", Snapshot::default()), "(all zero)");
    }

    #[test]
    fn reset_clears_collector() {
        let c = Collector::new();
        c.add(Event::Fence, 9);
        c.reset();
        assert_eq!(c.snapshot().fences(), 0);
    }
}
