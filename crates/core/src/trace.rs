//! Async-signal-safe scheduling trace (the `lcws-trace` layer, opt-in via
//! the `trace` cargo feature).
//!
//! Synchronization *counts* (the [`crate::Snapshot`] profile) reproduce the
//! paper's Figures 3 and 8, but they cannot show the §4 headline property —
//! work exposure in **constant time, up to OS signal-delivery latency** —
//! nor explain a steal/park interleaving the chaos suite provokes. This
//! module records a per-worker timeline instead: every scheduling event of
//! interest is appended to the worker's fixed-capacity ring buffer as a
//! 16-byte `(CLOCK_MONOTONIC timestamp, worker, kind, payload)` record, and
//! the rings are drained at run close into a merged, time-ordered
//! [`Trace`] that can be exported as Chrome trace-event JSON
//! (chrome://tracing, Perfetto) or reduced to a signal-delivery latency
//! distribution (thief-side [`Event::SignalSend`] paired with the
//! victim's [`Event::HandlerEntry`]).
//!
//! ## One vocabulary, one call per site
//!
//! What can happen is declared once, in `lcws-metrics`' event table: a row
//! with a `trace:` cell may be recorded here, under that name. The `kind`
//! a ring slot stores is the row's table index — an in-process detail that
//! is decoded again before anything leaves the ring; the Chrome-trace
//! *names* are the stable surface. A site whose event is both counted and
//! traced makes one call, `emit`; a site that only traces (or traces an
//! event counted elsewhere, e.g. `steal_ok`, counted in the deque but
//! traced where the victim index is known) calls `record`.
//!
//! ## Async-signal-safety
//!
//! [`Event::HandlerEntry`] and [`Event::HandlerExpose`] are
//! recorded *inside* the `SIGUSR1` handler, so the recording path is held
//! to the same standard as the handler itself (see `crate::signal`):
//!
//! * the ring pointer lives in a const-initialized `thread_local!` `Cell`,
//!   installed by the worker prologue before the thread can be signalled —
//!   no lazy TLS initialization can run in the handler;
//! * a record is two Relaxed atomic ops on the ring head plus a plain
//!   16-byte slot store — no allocation, no locks, no formatting;
//! * the timestamp comes from `clock_gettime(CLOCK_MONOTONIC)`, which
//!   POSIX.1-2008 lists as async-signal-safe.
//!
//! The ring head is reserved *before* the slot is written, so a handler
//! interrupting its own thread's in-flight record appends to the next slot
//! and at most **one** event (the interrupted one, overwritten on resume)
//! can be lost per interruption — the timeline never tears beyond that.
//!
//! ## Zero cost when disabled
//!
//! Without the `trace` feature, [`record`] is an empty `#[inline(always)]`
//! stub the compiler folds away — the default build contains no trace code,
//! exactly like the `faultpoints` layer (CI asserts both).
//!
//! ## Drain points
//!
//! Rings are owner-written during a run and drained by `ThreadPool::run`
//! after quiescence: helpers leave the work loop with an `AcqRel`
//! handshake on `active`, which orders every Relaxed ring write before the
//! drain's reads. The merged trace of the last run is then available from
//! `ThreadPool::take_trace`.

#[cfg(feature = "trace")]
use std::cell::{Cell, UnsafeCell};
#[cfg(feature = "trace")]
use std::sync::atomic::Ordering;

use lcws_metrics::{self as metrics, Event};

#[cfg(feature = "trace")]
use crate::hb;
#[cfg(feature = "trace")]
use crate::shim::AtomicU64;

/// One decoded trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// `CLOCK_MONOTONIC` nanoseconds (comparable within one process run).
    pub ts_ns: u64,
    /// Worker that recorded the event.
    pub worker: u16,
    /// What happened (a row of the event table with a trace name).
    pub kind: Event,
    /// Kind-specific payload (see [`Event`]).
    pub payload: u32,
}

/// Default per-worker ring capacity in events (16 bytes each → 1 MiB per
/// worker). Override with `PoolBuilder::trace_capacity`.
#[cfg(feature = "trace")]
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// On-ring record layout: 16 bytes, plain-copyable from signal context.
#[cfg(feature = "trace")]
#[derive(Clone, Copy)]
struct RawEvent {
    ts_ns: u64,
    /// `Event as u16`; `u16::MAX` in a never-written slot.
    kind: u16,
    worker: u16,
    payload: u32,
}

#[cfg(feature = "trace")]
impl RawEvent {
    /// `None` for a code past the end of the event table: a fresh slot, or
    /// a record torn by the bounded-loss window / a racing `peek_tail`.
    fn decode(self) -> Option<TraceEvent> {
        Some(TraceEvent {
            ts_ns: self.ts_ns,
            worker: self.worker,
            kind: Event::from_index(self.kind)?,
            payload: self.payload,
        })
    }
}

/// `CLOCK_MONOTONIC` in nanoseconds. Async-signal-safe. Also stamps
/// exposure requests (`WorkerShared::expose_request`), trace or not.
#[inline]
pub(crate) fn now_ns() -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // Safety: plain out-pointer syscall wrapper; CLOCK_MONOTONIC always
    // exists on Linux, so the result is ignored (a failure would leave the
    // zeroed timespec, which only misorders trace output, never UB).
    unsafe { libc::clock_gettime(libc::CLOCK_MONOTONIC, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A single worker's event ring. Written only by its owner thread
/// (including from that thread's signal handler); read by the pool at
/// quiescence, after the run-close handshake established happens-before.
#[cfg(feature = "trace")]
pub(crate) struct TraceRing {
    worker: u16,
    /// Total events ever recorded (monotonic); slot = `head % capacity`.
    /// Owner-only Relaxed ops — the cross-thread ordering comes from the
    /// pool's quiescence handshake, not from this field.
    head: AtomicU64,
    slots: Box<[UnsafeCell<RawEvent>]>,
}

// Safety: slots are written only by the owner thread and read by the pool
// only at quiescence, where the `active` AcqRel handshake orders every
// owner write before the reader's loads — no concurrent access exists.
#[cfg(feature = "trace")]
unsafe impl Send for TraceRing {}
#[cfg(feature = "trace")]
unsafe impl Sync for TraceRing {}

#[cfg(feature = "trace")]
impl TraceRing {
    pub(crate) fn new(worker: u16, capacity: usize) -> TraceRing {
        assert!(capacity > 0, "trace ring needs at least one slot");
        TraceRing {
            worker,
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| {
                    UnsafeCell::new(RawEvent {
                        ts_ns: 0,
                        kind: u16::MAX,
                        worker: 0,
                        payload: 0,
                    })
                })
                .collect(),
        }
    }

    /// Record an event now. Owner thread (or its signal handler) only.
    ///
    /// Reserve-head-first ordering: the head is advanced *before* the slot
    /// store, so a signal handler interrupting between the two appends to
    /// the next slot and the interrupted event is the only one at risk
    /// (overwritten when the owner resumes) — bounded loss of one event
    /// per interruption, never a corrupted ring structure.
    #[inline]
    pub(crate) fn record_now(&self, kind: Event, payload: u32) {
        debug_assert!(kind.trace_name().is_some(), "{kind:?} is not traced");
        let h = self.head.load(Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Relaxed);
        let idx = (h % self.slots.len() as u64) as usize;
        hb::on_write(self.slots[idx].get() as usize, "trace slot (record_now)");
        // Safety: owner-only write discipline (see the Sync rationale); the
        // handler runs on the owning thread so this is never concurrent.
        unsafe {
            *self.slots[idx].get() = RawEvent {
                ts_ns: now_ns(),
                kind: kind as u16,
                worker: self.worker,
                payload,
            };
        }
    }

    /// Which worker slot this ring belongs to.
    pub(crate) fn worker_index(&self) -> u16 {
        self.worker
    }

    /// Forget all recorded events (between runs, owner quiesced).
    pub(crate) fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
    }

    /// Decode the ring's surviving events in record order, plus how many
    /// older events the ring capacity overwrote. Caller must hold the
    /// quiescence happens-before (see the Sync rationale).
    pub(crate) fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let h = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let kept = h.min(cap);
        let dropped = h - kept;
        let mut out = Vec::with_capacity(kept as usize);
        for i in (h - kept)..h {
            hb::on_read(
                self.slots[(i % cap) as usize].get() as usize,
                "trace slot (drain)",
            );
            // Safety: quiescent read; see above.
            let raw = unsafe { *self.slots[(i % cap) as usize].get() };
            out.extend(raw.decode());
        }
        (out, dropped)
    }

    /// Best-effort snapshot of the newest `n` events for the stall
    /// watchdog's diagnostic report. Unlike [`TraceRing::drain`], this may
    /// run while the owner is still recording: slots are read with volatile
    /// loads and a record torn by a concurrent write decodes to an unknown
    /// kind (`RawEvent::decode` → `None`) and is skipped. Diagnostics only — never
    /// used for the merged run trace.
    pub(crate) fn peek_tail(&self, n: usize) -> Vec<TraceEvent> {
        let h = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let kept = h.min(cap).min(n as u64);
        let mut out = Vec::with_capacity(kept as usize);
        for i in (h - kept)..h {
            // Racy-by-design read (see above); volatile keeps the compiler
            // from caching or tearing the copy further.
            // Deliberately NOT hb-instrumented: this read races the owner
            // by design and tolerates torn records; filing it would turn
            // every watchdog report into a false positive.
            let raw = unsafe { std::ptr::read_volatile(self.slots[(i % cap) as usize].get()) };
            out.extend(raw.decode());
        }
        out
    }
}

#[cfg(feature = "trace")]
impl Drop for TraceRing {
    fn drop(&mut self) {
        // The slot array's addresses may be recycled by a later ring (or
        // any other allocation); drop the checker's history for them.
        hb::forget_range(
            self.slots.as_ptr() as usize,
            std::mem::size_of_val(&*self.slots),
        );
    }
}

#[cfg(feature = "trace")]
thread_local! {
    /// The current thread's ring; null outside pool participation. Const-
    /// initialized so the signal handler never triggers lazy TLS init.
    static RING: Cell<*const TraceRing> = const { Cell::new(std::ptr::null()) };
}

/// Point the current thread's [`record`] calls at `ring` (null to disarm).
///
/// # Safety
/// `ring`, when non-null, must stay valid until replaced or cleared, and
/// the calling thread must be the ring's sole writer while installed.
#[cfg(feature = "trace")]
pub(crate) unsafe fn set_ring(ring: *const TraceRing) {
    RING.with(|c| c.set(ring));
}

/// Append an event to the current thread's ring, if one is installed.
/// Async-signal-safe (see the module docs); a no-op outside pool runs.
#[cfg(feature = "trace")]
#[inline]
pub(crate) fn record(kind: Event, payload: u32) {
    let r = RING.with(|c| c.get());
    if r.is_null() {
        return;
    }
    // Safety: non-null pointers are installed by the worker prologue and
    // cleared before the referent is dropped (CtxGuard in worker.rs).
    unsafe { (*r).record_now(kind, payload) };
}

/// With `trace` disabled, recording is an empty function the compiler
/// removes entirely — the hook sites compile to nothing.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub(crate) fn record(_kind: Event, _payload: u32) {}

/// The one call of a site whose event is both counted and traced: add
/// `count` to `event`'s counter (1, or the payload where the payload is a
/// number of tasks) and record it with `payload`. Async-signal-safe like
/// its two halves; with `trace` disabled it is exactly `metrics::bump_by`.
#[inline(always)]
pub(crate) fn emit(event: Event, count: u64, payload: u32) {
    metrics::bump_by(event, count);
    record(event, payload);
}

/// The merged, time-ordered trace of one pool run.
#[cfg(feature = "trace")]
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All surviving events, sorted by timestamp (ties keep worker order).
    pub events: Vec<TraceEvent>,
    /// Number of workers the run used.
    pub workers: usize,
    /// Events lost to ring-capacity overwrites (raise
    /// `PoolBuilder::trace_capacity` if non-zero).
    pub dropped: u64,
}

#[cfg(feature = "trace")]
impl Trace {
    /// Merge per-ring drains into one time-ordered trace.
    pub(crate) fn merge(per_ring: Vec<(Vec<TraceEvent>, u64)>) -> Trace {
        let workers = per_ring.len();
        let mut dropped = 0;
        let mut events = Vec::with_capacity(per_ring.iter().map(|(v, _)| v.len()).sum());
        for (evs, d) in per_ring {
            dropped += d;
            events.extend(evs);
        }
        // Stable: same-timestamp events keep per-worker record order.
        events.sort_by_key(|e| e.ts_ns);
        Trace {
            events,
            workers,
            dropped,
        }
    }

    /// Render as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// object form), loadable in chrome://tracing and Perfetto. Every
    /// record becomes a thread-scoped instant event on `tid = worker`;
    /// timestamps are microseconds relative to the first event.
    pub fn to_chrome_json(&self) -> String {
        let t0 = self.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rel = e.ts_ns - t0;
            // Microseconds with nanosecond precision, as Perfetto expects.
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\
                 \"ts\":{}.{:03},\"args\":{{\"payload\":{}}}}}",
                e.kind
                    .trace_name()
                    .expect("recorded events are rows with a trace name"),
                e.worker,
                rel / 1_000,
                rel % 1_000,
                e.payload,
            ));
        }
        out.push_str("]}");
        out
    }

    /// True signal-delivery latencies: each thief-side
    /// [`Event::SignalSend`] paired with the victim's next
    /// [`Event::HandlerEntry`], in nanoseconds.
    ///
    /// Pairing walks the time-ordered stream keeping a FIFO of unmatched
    /// sends per victim: a [`Event::SignalSendFailed`] cancels that
    /// thief's pending send (the retry loop is synchronous, so a thief has
    /// at most one in flight), and a handler entry consumes the oldest
    /// pending send. Sends left unmatched at the end are coalesced signals
    /// (the OS merges a `SIGUSR1` sent while one is already pending) and
    /// produce no sample.
    pub fn signal_latencies_ns(&self) -> Vec<u64> {
        let mut pending: std::collections::HashMap<u32, Vec<(u64, u16)>> =
            std::collections::HashMap::new();
        let mut out = Vec::new();
        for e in &self.events {
            match e.kind {
                Event::SignalSend => {
                    pending
                        .entry(e.payload)
                        .or_default()
                        .push((e.ts_ns, e.worker));
                }
                Event::SignalSendFailed => {
                    if let Some(q) = pending.get_mut(&e.payload) {
                        if let Some(pos) = q.iter().rposition(|&(_, t)| t == e.worker) {
                            q.remove(pos);
                        }
                    }
                }
                Event::HandlerEntry => {
                    if let Some(q) = pending.get_mut(&(e.worker as u32)) {
                        if !q.is_empty() {
                            let (sent, _) = q.remove(0);
                            out.push(e.ts_ns.saturating_sub(sent));
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Events of one kind, in time order (convenience for tests/tools).
    pub fn of_kind(&self, kind: Event) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, worker: u16, kind: Event, payload: u32) -> TraceEvent {
        TraceEvent {
            ts_ns,
            worker,
            kind,
            payload,
        }
    }

    #[test]
    fn ring_records_and_drains_in_order() {
        let ring = TraceRing::new(3, 8);
        // Safety: single-threaded test — we are the owner.
        unsafe { set_ring(&ring) };
        for i in 0..5u32 {
            record(Event::Push, i);
        }
        unsafe { set_ring(std::ptr::null()) };
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.worker, 3);
            assert_eq!(e.kind, Event::Push);
            assert_eq!(e.payload, i as u32);
        }
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn ring_wrap_keeps_newest_and_counts_dropped() {
        let ring = TraceRing::new(0, 4);
        for i in 0..10u32 {
            ring.record_now(Event::LocalPop, i);
        }
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 6);
        let payloads: Vec<u32> = events.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, [6, 7, 8, 9]);
        ring.reset();
        let (events, dropped) = ring.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn record_without_ring_is_a_noop() {
        record(Event::Park, 0); // must not crash
    }

    #[test]
    fn latency_pairing_matches_send_to_handler_entry() {
        // Thief 1 signals victim 0 twice; the second send coalesces (only
        // one handler entry). Thief 2's failed send must not pair.
        let t = Trace {
            events: vec![
                ev(100, 1, Event::SignalSend, 0),
                ev(150, 2, Event::SignalSend, 0),
                ev(160, 2, Event::SignalSendFailed, 0),
                ev(400, 0, Event::HandlerEntry, 0),
                ev(500, 1, Event::SignalSend, 0),
                ev(900, 0, Event::HandlerEntry, 0),
                ev(950, 1, Event::SignalSend, 0), // coalesced: unmatched
            ],
            workers: 3,
            dropped: 0,
        };
        assert_eq!(t.signal_latencies_ns(), vec![300, 400]);
    }

    #[test]
    fn chrome_json_is_well_formed_and_relative() {
        let t = Trace {
            events: vec![
                ev(1_000_000, 0, Event::RunStart, 2),
                ev(1_002_500, 1, Event::StealOk, 0),
            ],
            workers: 2,
            dropped: 0,
        };
        let json = t.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"run_start\""));
        assert!(json.contains("\"ts\":0.000"));
        assert!(
            json.contains("\"ts\":2.500"),
            "µs with ns precision: {json}"
        );
        assert!(json.contains("\"tid\":1"));
        assert_eq!(
            json.matches("{\"name\":").count(),
            2,
            "one object per event"
        );
    }
}
