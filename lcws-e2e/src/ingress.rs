//! External-ingress measurements on a pool in `serve()`: the open loop of
//! `ingress_serve` and the traced pass's injector/sleep probes.
//!
//! The open loop is Poisson arrivals from one producer thread (this one), so
//! at the sparse rate nearly every task finds the helpers parked and pays a
//! park→wake. A task is timed from the instant it was *due*, not from when
//! it was sent, so a stalled generator charges its lateness to the tasks
//! behind it; how late the generator itself ran is reported separately. The
//! producer spins between arrivals, so it occupies one core for the window.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcws_core::{Snapshot, ThreadPool};
use parlay_rs::random::Random;

use crate::span::Spans;

/// `p`-quantile (0..=1) of an ascending slice, nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Result of one open-loop window.
pub struct OpenLoop {
    /// Due→start wait of every task, microseconds, ascending.
    pub waits_us: Vec<f64>,
    /// Median wait of each run of [`CHUNK_TASKS`] consecutive arrivals.
    pub chunk_p50_us: Vec<f64>,
    /// Send-time lateness of the generator, microseconds, ascending.
    pub late_us: Vec<f64>,
    pub tasks: u64,
    /// Tasks whose accounting failed (0 or all: push/pop mismatch).
    pub failed: u64,
    pub snapshot: Snapshot,
}

/// The typical wait is the median over chunks of consecutive arrivals (a
/// tenth of a second at the sparse rate) of each chunk's median wait. On a
/// shared host the waits sit on a level (35–36 µs) with episodes of 0.3–0.6 s
/// on a higher one (45–60 µs) once every few seconds. An episode spoils the
/// chunks it falls in and the median over chunks passes those by: with a
/// quarter of the arrivals lifted by 12 µs the median of all waits pooled
/// reads 8 % higher, the median over chunks 4 %.
pub const CHUNK_TASKS: usize = 200;

/// Spans are kept for this many tasks per window (a full window is tens of
/// thousands of tasks; the trace file does not need them all).
const TRACED_TASKS: usize = 256;

/// One serve window of Poisson arrivals at `rate` tasks/s for `duration`.
pub fn open_loop(
    pool: &ThreadPool,
    rate: f64,
    duration: Duration,
    seed: u64,
    spans: &mut Spans,
) -> OpenLoop {
    let n = ((rate * duration.as_secs_f64()) as usize).max(16);
    let random = Random::new(seed ^ 0x09E4_100B);
    let mut due_s = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for i in 0..n {
        t += -random.ith_f64(i as u64).max(f64::MIN_POSITIVE).ln() / rate;
        due_s.push(t);
    }
    // Per task: its start, nanoseconds after `t0` (+1 so 0 = never ran).
    let started: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let mut late_us = Vec::with_capacity(n);
    let mut sent = Vec::with_capacity(if spans.enabled() { TRACED_TASKS } else { 0 });
    spans.scoped("core.pool.serve", |_| pool.serve());
    let t0 = Instant::now();
    for (i, &due) in due_s.iter().enumerate() {
        // Spin to the due time, never sleep: a generator that sleeps to
        // within 100 µs of it oversleeps one arrival in four on a 2-vCPU
        // guest (lateness p75 6–20 µs, p90 65 µs; spinning, p90 0.1 µs), the
        // task is charged that lateness, and how many arrivals oversleep
        // moves the median wait by a fifth from one process to the next.
        loop {
            let now = t0.elapsed().as_secs_f64();
            if now >= due {
                late_us.push((now - due) * 1e6);
                break;
            }
            std::hint::spin_loop();
        }
        let started = Arc::clone(&started);
        let before = Instant::now();
        drop(pool.spawn(move || {
            started[i].store(t0.elapsed().as_nanos() as u64 + 1, Ordering::Relaxed);
        }));
        if sent.len() < sent.capacity() {
            sent.push((before, Instant::now()));
        }
    }
    let snapshot = spans.scoped("core.pool.shutdown", |_| pool.shutdown());
    // shutdown() drained the window, so every start mark is final.
    let mut waits_us = Vec::with_capacity(n);
    let mut ran = 0u64;
    for (i, &due) in due_s.iter().enumerate() {
        let start = started[i].load(Ordering::Relaxed);
        if start == 0 {
            continue;
        }
        ran += 1;
        waits_us.push(((start - 1) as f64 / 1e3 - due * 1e6).max(0.0));
        if let Some(&(before, after)) = sent.get(i) {
            spans.closed("core.pool.spawn", before, after);
            spans.closed(
                "core.injector.wait",
                t0 + Duration::from_secs_f64(due),
                t0 + Duration::from_nanos(start - 1),
            );
        }
    }
    // Whole chunks only, unless the window is shorter than one.
    let chunk_p50_us = waits_us
        .chunks(CHUNK_TASKS)
        .filter(|c| c.len() == CHUNK_TASKS.min(waits_us.len()))
        .map(|c| percentile(&sorted(c.to_vec()), 0.5))
        .collect();
    let n = n as u64;
    let accounted = ran == n && snapshot.injector_pushes() == n && snapshot.injector_pops() == n;
    OpenLoop {
        waits_us: sorted(waits_us),
        chunk_p50_us,
        late_us: sorted(late_us),
        tasks: n,
        failed: if accounted { 0 } else { n },
        snapshot,
    }
}

/// Queue a full backlog on purpose: hold every helper inside a gate task,
/// spawn `tasks` more behind them, then open the gate and wait for all of
/// them. In the closed loop the producer runs ahead of the helpers by a
/// distance that is a matter of luck (peak memory 8–28 MB from one process to
/// the next); after this burst the process's peak is what `tasks` queued
/// tasks cost, every time. Returns (tasks, tasks whose accounting failed).
pub fn gated_burst(pool: &ThreadPool, tasks: usize, spans: &mut Spans) -> (u64, u64) {
    let helpers = pool.num_workers() - 1;
    let entered = Arc::new(AtomicUsize::new(0));
    let open = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicU64::new(0));
    let id = spans.begin("core.injector.burst");
    pool.serve();
    // One gate at a time: workers pull injected tasks in batches, so of two
    // gates queued together one helper may take both, block in the first and
    // (a USLCWS victim exposes only between tasks) never hand on the second.
    // A helper inside a gate cannot take another, so once all gates are
    // entered nobody is left to run what is queued next.
    for gate in 1..=helpers {
        let (inside, open) = (Arc::clone(&entered), Arc::clone(&open));
        drop(pool.spawn(move || {
            inside.fetch_add(1, Ordering::Release);
            while !open.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        }));
        while entered.load(Ordering::Acquire) < gate {
            std::thread::yield_now();
        }
    }
    for _ in 0..tasks {
        let done = Arc::clone(&done);
        drop(pool.spawn(move || {
            done.fetch_add(1, Ordering::Release);
        }));
    }
    open.store(true, Ordering::Release);
    let snapshot = pool.shutdown();
    spans.end(id);
    let n = (tasks + helpers) as u64;
    let accounted = done.load(Ordering::Acquire) == tasks as u64
        && snapshot.injector_pushes() == n
        && snapshot.injector_pops() == n;
    (n, if accounted { 0 } else { n })
}

/// The traced pass's closed-loop probes of the injector on one pool:
/// spawn→join round trips, batch submission, and an idle window.
pub struct Probes {
    /// Round-trip times of single spawn→join, microseconds, ascending.
    pub rtt_us: Vec<f64>,
    pub batch_tasks_per_s: f64,
    /// `serve()` → immediate `shutdown()` of an idle window, microseconds.
    pub shutdown_idle_us: f64,
    pub serve_us: f64,
    pub tasks: u64,
    pub failed: u64,
}

pub fn probes(pool: &ThreadPool, round_trips: usize, spans: &mut Spans) -> Probes {
    let mut serve_us = Vec::new();
    let mut serve = |pool: &ThreadPool| {
        let t = Instant::now();
        pool.serve();
        serve_us.push(t.elapsed().as_secs_f64() * 1e6);
    };
    let mut tasks = 0u64;
    let mut failed = 0u64;

    serve(pool);
    let mut rtt_us = Vec::with_capacity(round_trips);
    for i in 0..round_trips as u64 {
        let id = spans.begin("core.pool.join");
        let t = Instant::now();
        let got = pool.spawn(move || std::hint::black_box(i) + 1).join();
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.end(id);
        failed += (got != i + 1) as u64;
    }
    tasks += round_trips as u64;
    let snap = pool.shutdown();
    failed += (snap.injector_pushes() != snap.injector_pops()) as u64;

    const BATCH: usize = 4096;
    serve(pool);
    let mut batch_s = Vec::new();
    for _ in 0..8 {
        let id = spans.begin("core.pool.spawn_batch");
        let t = Instant::now();
        let handles = pool.spawn_batch((0..BATCH as u64).map(|i| move || std::hint::black_box(i)));
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        batch_s.push(t.elapsed().as_secs_f64());
        spans.end(id);
        failed += (sum != (BATCH as u64 - 1) * BATCH as u64 / 2) as u64;
    }
    tasks += 8 * BATCH as u64;
    pool.shutdown();

    let mut idle_us = Vec::new();
    for _ in 0..20 {
        serve(pool);
        let t = Instant::now();
        pool.shutdown();
        idle_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    Probes {
        rtt_us: sorted(rtt_us),
        batch_tasks_per_s: BATCH as f64 / percentile(&sorted(batch_s), 0.5),
        shutdown_idle_us: percentile(&sorted(idle_us), 0.5),
        serve_us: percentile(&sorted(serve_us), 0.5),
        tasks,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
