//! The timed rounds of the five workloads.
//!
//! A round is one unit of verified work of at least ~50 ms on two cores:
//! shorter rounds are bimodal at P = 2 (whether the helper woke before the
//! round ended decides the time), longer ones repeat. Every round checks its
//! own output after the clock stops.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lcws_bench::BoxStats;
use lcws_core::{join, par_for_grain, scope, Snapshot, ThreadPool};

use crate::pbbs_mix::{PbbsMix, KERNELS};
use crate::plan::Sizes;
use crate::span::Spans;

/// `fib` by binary fork-join, one `join` per internal node.
pub fn fib(n: u32) -> u64 {
    if n < 2 {
        return n as u64;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// `fib(n)` by iteration (the reference), and the number of `join` calls
/// `fib(n)` makes.
pub fn fib_reference(n: u32) -> (u64, u64) {
    let (mut a, mut b) = (0u64, 1u64); // fib(k), fib(k+1)
    let (mut ja, mut jb) = (0u64, 0u64); // joins(k), joins(k+1)
    for _ in 0..n {
        (a, b) = (b, a + b);
        (ja, jb) = (jb, 1 + ja + jb);
    }
    (a, ja)
}

/// The flood task's body: `iters` dependent multiply-xorshift steps
/// (~2 ns each), so a task is pure register work of a known length.
#[inline(never)]
pub fn mix(seed: u64, iters: u32) -> u64 {
    // Odd start, distinct per seed; each step is a bijection fixing 0, so
    // the result is never 0 (the flood uses 0 for "slot not written").
    let mut x = (seed << 1) | 1;
    for _ in 0..iters {
        x = (x ^ (x >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    x
}

/// The typical time of a PBBS kernel: the lower quartile of its samples
/// (`None` without samples).
///
/// Join-waiter wake-ups are sometimes lost and recovered only by the 50 ms
/// park backstop, which quantises a kernel into 8, 58, 108 ms... at a rate
/// that changes from one process to the next and, under USLCWS, passes one
/// execution in two (README.md, "Known failures"). Medians and means inherit
/// that rate and differ by 25 % between runs of one commit; the lower
/// quartile estimates the time the kernel takes when nothing stalls, and
/// repeats within 2–5 %. How often operations stall is reported on its own
/// (`core.sleep.stalled_ops_ratio.*`). Rounds that are one operation are
/// reported by their median.
pub fn typical(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| BoxStats::of(samples).q1)
}

/// Share of `samples` that ran at least one park backstop (40 ms, allowing
/// for the operation's own jitter) over their typical time.
pub fn stalled_share(samples: &[f64]) -> Option<f64> {
    let base = typical(samples)?;
    let stalled = samples.iter().filter(|&&ms| ms >= base + 40.0).count();
    Some(stalled as f64 / samples.len() as f64)
}

/// How a round enters the pool: `run`, or `run_measured` for the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Measured,
}

/// A named interval measured inside a pool closure.
pub type Part = (&'static str, Instant, Instant);

/// What one round produced.
pub struct RoundOut {
    /// The round's time, milliseconds (what `round_ms.*` is the median of).
    pub ms: f64,
    /// Verified operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Counters of the round (`Mode::Measured`, or a serve window).
    pub snapshot: Option<Snapshot>,
    /// Named sub-times of the round, milliseconds.
    pub parts: Vec<(&'static str, f64)>,
}

fn ms(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e3
}

/// Enter the pool once, under a `core.pool.run` span whose children are the
/// intervals the closure reports: the span's self time is then the pool's
/// entry/exit cost (helper wake + quiescence).
pub fn pool_run<T: Send>(
    pool: &ThreadPool,
    mode: Mode,
    spans: &mut Spans,
    body: impl FnOnce() -> (T, Vec<Part>) + Send,
) -> (T, f64, Option<Snapshot>, Vec<Part>) {
    let id = spans.begin("core.pool.run");
    let start = Instant::now();
    let ((out, parts), snapshot) = match mode {
        Mode::Plain => (pool.run(body), None),
        Mode::Measured => {
            let (out, snap) = pool.run_measured(body);
            (out, Some(snap))
        }
    };
    let end = Instant::now();
    for &(name, a, b) in &parts {
        spans.closed(name, a, b);
    }
    spans.end(id);
    (out, ms(start, end), snapshot, parts)
}

/// One workload's state across rounds.
pub trait Workload {
    /// Run and verify one round.
    fn round(&mut self, pool: &ThreadPool, mode: Mode, spans: &mut Spans) -> RoundOut;

    /// Once, on the fresh pool, before the warm-up rounds; returns verified
    /// operations attempted and failed.
    fn prime(&mut self, _pool: &ThreadPool, _spans: &mut Spans) -> (u64, u64) {
        (0, 0)
    }
}

/// Verified operations per round, known without building inputs (what a
/// lost child is charged per planned round).
pub fn ops_per_round(workload: &str, sizes: &Sizes) -> u64 {
    match workload {
        "forkjoin_balanced" => 2,
        "flood_skew" => 1,
        "pbbs_mix" | "pbbs_oversub" => KERNELS.len() as u64,
        _ => sizes.ff_tasks as u64,
    }
}

/// Build a workload's inputs and references (outside any pool).
pub fn build(
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    spans: &mut Spans,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "forkjoin_balanced" => Box::new(ForkJoin::new(sizes)),
        "flood_skew" => Box::new(Flood::new(seed, sizes, spans)),
        "pbbs_mix" | "pbbs_oversub" => Box::new(Pbbs {
            mix: PbbsMix::generate(seed, sizes.pbbs_scale, spans)?,
        }),
        "ingress_serve" => Box::new(IngressFf {
            tasks: sizes.ff_tasks,
        }),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// `forkjoin_balanced`: `fib(n)` then a grain-1 `par_for`.
pub struct ForkJoin {
    fib_n: u32,
    want: u64,
    /// One byte per `par_for` index; a round stores its tag in every slot.
    hits: Vec<AtomicU8>,
    tag: u8,
}

impl ForkJoin {
    pub fn new(sizes: &Sizes) -> ForkJoin {
        ForkJoin {
            fib_n: sizes.fib_n,
            want: fib_reference(sizes.fib_n).0,
            hits: (0..sizes.par_for_n).map(|_| AtomicU8::new(0)).collect(),
            tag: 0,
        }
    }
}

impl Workload for ForkJoin {
    fn round(&mut self, pool: &ThreadPool, mode: Mode, spans: &mut Spans) -> RoundOut {
        self.tag = self.tag % 255 + 1;
        let (tag, n, hits) = (self.tag, self.fib_n, &self.hits);
        let (got, ms, snapshot, parts) = pool_run(pool, mode, spans, || {
            let t0 = Instant::now();
            let f = fib(n);
            let t1 = Instant::now();
            par_for_grain(0..hits.len(), 1, |i| hits[i].store(tag, Ordering::Relaxed));
            let t2 = Instant::now();
            (
                f,
                vec![("core.api.join", t0, t1), ("core.api.par_for", t1, t2)],
            )
        });
        let fib_ok = got == self.want;
        let par_for_ok = hits.iter().all(|h| h.load(Ordering::Relaxed) == tag);
        RoundOut {
            ms,
            attempted: 2,
            failed: !fib_ok as u64 + !par_for_ok as u64,
            snapshot,
            parts: parts
                .iter()
                .map(|&(name, a, b)| (name, self::ms(a, b)))
                .collect(),
        }
    }
}

/// `flood_skew`: one scope, every task spawned by the root.
pub struct Flood {
    slots: Vec<u64>,
    seed: u64,
    iters: u32,
    want_xor: u64,
}

impl Flood {
    pub fn new(seed: u64, sizes: &Sizes, spans: &mut Spans) -> Flood {
        let id = spans.begin("bench.reference");
        let want_xor =
            (0..sizes.flood_tasks).fold(0, |acc, i| acc ^ mix(seed ^ i as u64, sizes.flood_iters));
        spans.end(id);
        Flood {
            slots: vec![0; sizes.flood_tasks],
            seed,
            iters: sizes.flood_iters,
            want_xor,
        }
    }
}

impl Workload for Flood {
    fn round(&mut self, pool: &ThreadPool, mode: Mode, spans: &mut Spans) -> RoundOut {
        self.slots.fill(0);
        let (seed, iters, slots) = (self.seed, self.iters, &mut self.slots);
        let ((), ms, snapshot, _) = pool_run(pool, mode, spans, || {
            let t0 = Instant::now();
            scope(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move || *slot = mix(seed ^ i as u64, iters));
                }
            });
            ((), vec![("core.api.scope", t0, Instant::now())])
        });
        let all_set = self.slots.iter().all(|&v| v != 0);
        let xor = self.slots.iter().fold(0, |a, &v| a ^ v);
        RoundOut {
            ms,
            attempted: 1,
            failed: !(all_set && xor == self.want_xor) as u64,
            snapshot,
            parts: Vec::new(),
        }
    }
}

/// `pbbs_mix` / `pbbs_oversub`: eight kernels, one `run` each. The round's
/// time is the sum of the kernel spans (input clones excluded).
pub struct Pbbs {
    pub mix: PbbsMix,
}

impl Workload for Pbbs {
    fn round(&mut self, pool: &ThreadPool, mode: Mode, spans: &mut Spans) -> RoundOut {
        let mut out = RoundOut {
            ms: 0.0,
            attempted: 0,
            failed: 0,
            snapshot: None,
            parts: Vec::new(),
        };
        for (k, &kernel) in KERNELS.iter().enumerate() {
            let mix = &self.mix;
            let (run, _, snapshot, _) = pool_run(pool, mode, spans, || {
                // Input clones before the kernel and the output check after
                // it are the benchmark's own time, not the pool's.
                let entered = Instant::now();
                let run = mix.run_kernel(k);
                let parts = vec![
                    ("bench.clone", entered, run.start),
                    (kernel, run.start, run.end),
                    ("bench.check", run.end, Instant::now()),
                ];
                (run, parts)
            });
            out.ms += run.ms();
            out.attempted += 1;
            out.failed += !run.ok as u64;
            out.parts.push((kernel, run.ms()));
            out.snapshot = match (out.snapshot, snapshot) {
                (Some(a), Some(b)) => Some(a.merged(&b)),
                (a, b) => a.or(b),
            };
        }
        out
    }
}

/// `ingress_serve` closed loop: one serve window per round, `tasks`
/// fire-and-forget spawns from this thread, timed to the last completion.
pub struct IngressFf {
    pub tasks: usize,
}

impl Workload for IngressFf {
    /// Every child's peak memory is then that of a full backlog, not of how
    /// far the producer happened to get ahead of the helpers.
    fn prime(&mut self, pool: &ThreadPool, spans: &mut Spans) -> (u64, u64) {
        crate::ingress::gated_burst(pool, self.tasks, spans)
    }

    fn round(&mut self, pool: &ThreadPool, _mode: Mode, spans: &mut Spans) -> RoundOut {
        let n = self.tasks as u64;
        let done = Arc::new(AtomicU64::new(0));
        spans.scoped("core.pool.serve", |_| pool.serve());
        let spawn = spans.begin("core.pool.spawn");
        let start = Instant::now();
        for _ in 0..n {
            let done = Arc::clone(&done);
            drop(pool.spawn(move || {
                done.fetch_add(1, Ordering::Release);
            }));
        }
        let spawned = Instant::now();
        spans.end(spawn);
        let wait = spans.begin("core.pool.wait");
        while done.load(Ordering::Acquire) != n {
            std::hint::spin_loop();
        }
        let end = Instant::now();
        spans.end(wait);
        let snapshot = spans.scoped("core.pool.shutdown", |_| pool.shutdown());
        let accounted = snapshot.injector_pushes() == n && snapshot.injector_pops() == n;
        RoundOut {
            ms: ms(start, end),
            attempted: n,
            // Every task ran (the loop above saw them all); a push/pop
            // miscount means the injector lost or duplicated work somewhere.
            failed: if accounted { 0 } else { n },
            snapshot: Some(snapshot),
            parts: vec![("spawn_loop", ms(start, spawned))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_reference_counts_joins() {
        assert_eq!(fib_reference(0), (0, 0));
        assert_eq!(fib_reference(1), (1, 0));
        assert_eq!(fib_reference(2), (1, 1));
        assert_eq!(fib_reference(5), (5, 7));
        assert_eq!(fib_reference(32).0, 2_178_309);
        // Outside a pool `join` is sequential, so `fib` is checkable here.
        assert_eq!(fib(15), fib_reference(15).0);
    }

    #[test]
    fn typical_is_the_lower_quartile_and_ignores_stalls() {
        assert_eq!(typical(&[]), None);
        let kernel = [8.0, 9.0, 8.0, 58.0, 8.0, 59.0, 8.0, 8.0, 108.0];
        assert_eq!(typical(&kernel), Some(8.0));
        assert_eq!(stalled_share(&kernel), Some(3.0 / 9.0));
    }

    #[test]
    fn mix_is_never_zero() {
        for seed in 0..1000 {
            assert_ne!(mix(seed, 400), 0);
        }
    }
}
