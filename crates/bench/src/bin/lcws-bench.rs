//! `lcws-bench`: the one-shot performance snapshot behind the repo's
//! `BENCH_<n>.json` trajectory (see EXPERIMENTS.md, "The BENCH_*.json
//! trajectory").
//!
//! Every growth PR that can move performance runs this binary and commits
//! the refreshed snapshot at the repo root; `scripts/compare_bench.py`
//! diffs the two highest-numbered snapshots and flags >10% regressions.
//! The snapshot is deliberately small — a handful of scalar keys, stable
//! names, directions encoded in the suffix (`*_ns` lower-is-better,
//! `*_per_sec` higher-is-better, anything else informational).
//!
//! Sections:
//! * `fork_join` — end-to-end `pool.run(fib(18))` latency per variant.
//! * `deque_ops` — single-threaded push/pop/steal throughput on both
//!   deques, plus the resize-heavy case (fresh capacity-4 ring paying
//!   every doubling) that tracks the growable-ring overhead.
//! * `signal_latency` — `signal_send → handler_entry` p50/p99 from the
//!   trace layer; `null` unless built with `--features trace`.
//! * `scheduler` — informational counters from one fine-grained run
//!   (idle wakeups, overflow inlines, steal aborts, ring grows).
//! * `granularity` — tiny-task flood (2^14 near-empty tasks through a
//!   skewed scope): per-variant latency plus the near-first + steal-half
//!   policy composition, the regime where scheduling overhead dominates.
//! * `ingress` — external-submission throughput through the global
//!   injector: a spawn→join round-trip rate, and the many-producer stress
//!   (64 producers × 10⁵ tasks by default) in a single timed round with
//!   its push/pop accounting.
//!
//! Usage: `cargo run --release -p lcws-bench --bin lcws-bench [-- --out
//! BENCH_10.json --threads N]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lcws_core::deque::{AbpDeque, SplitDeque};
use lcws_core::{
    join, par_for_grain, scope, ExposurePolicy, Policies, PoolBuilder, PopBottomMode, StealAmount,
    Variant, VictimSelection,
};

struct Config {
    out: String,
    threads: usize,
    rounds: usize,
    stress_producers: usize,
    stress_tasks: usize,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        out: "BENCH_10.json".to_string(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8),
        rounds: 15,
        stress_producers: 64,
        stress_tasks: 100_000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = || args.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--out" => cfg.out = take(),
            "--threads" => cfg.threads = take().parse().expect("--threads needs a number"),
            "--rounds" => cfg.rounds = take().parse().expect("--rounds needs a number"),
            "--stress-producers" => {
                cfg.stress_producers = take().parse().expect("--stress-producers needs a number");
            }
            "--stress-tasks" => {
                cfg.stress_tasks = take().parse().expect("--stress-tasks needs a number");
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --out PATH --threads N --rounds N \
                     --stress-producers N --stress-tasks N(per producer)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown option {other}"),
        }
    }
    cfg.rounds = cfg.rounds.max(3);
    cfg
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Median wall time of `f` in nanoseconds over `rounds` timed rounds
/// (plus two untimed warm-ups).
fn median_ns(rounds: usize, mut f: impl FnMut()) -> u64 {
    f();
    f();
    let mut samples: Vec<u64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Throughput in ops/sec given ops per round and the median round time.
fn per_sec(ops_per_round: usize, round_ns: u64) -> f64 {
    ops_per_round as f64 * 1e9 / round_ns.max(1) as f64
}

#[cfg(feature = "trace")]
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Minimal JSON emitter: nested objects of number-or-null leaves, keys in
/// insertion order. Enough structure for `compare_bench.py`'s flattener.
#[derive(Default)]
struct Obj(Vec<(String, String)>);

impl Obj {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        // Two decimals is plenty for ns/ops scales and keeps diffs short.
        self.0.push((key.to_string(), format!("{v:.2}")));
        self
    }
    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }
    fn raw(&mut self, key: &str, v: String) -> &mut Self {
        self.0.push((key.to_string(), v));
        self
    }
    fn render(&self, indent: usize) -> String {
        let pad = " ".repeat(indent + 2);
        let body = self
            .0
            .iter()
            .map(|(k, v)| format!("{pad}\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n{}}}", " ".repeat(indent))
    }
}

fn bench_fork_join(cfg: &Config, out: &mut Obj) {
    for variant in [Variant::Ws, Variant::UsLcws, Variant::Signal] {
        let pool = PoolBuilder::new(variant).threads(cfg.threads).build();
        let ns = median_ns(cfg.rounds, || {
            assert_eq!(pool.run(|| fib(18)), 2584);
        });
        out.int(&format!("fib18_{variant}_ns"), ns);
        eprintln!("fork_join/fib18 {variant}: {ns} ns");
    }
}

fn bench_deque_ops(cfg: &Config, out: &mut Obj) {
    const OPS: usize = 1024;

    // Owner-local push/pop, capacity pre-sized (the non-resize fast path).
    let split = SplitDeque::new(OPS + 1);
    let ns = median_ns(cfg.rounds, || {
        for i in 1..=OPS {
            split.push_bottom(i as *mut _);
        }
        for _ in 0..OPS {
            std::hint::black_box(split.pop_bottom(PopBottomMode::Standard));
        }
    });
    out.num("split_push_pop_per_sec", per_sec(2 * OPS, ns));

    let abp = AbpDeque::new(OPS + 1);
    let ns = median_ns(cfg.rounds, || {
        for i in 1..=OPS {
            abp.push_bottom(i as *mut _);
        }
        for _ in 0..OPS {
            std::hint::black_box(abp.pop_bottom());
        }
    });
    out.num("abp_push_pop_per_sec", per_sec(2 * OPS, ns));

    // Resize-heavy: a fresh capacity-4 ring pays every doubling up to OPS.
    let ns = median_ns(cfg.rounds, || {
        let d = SplitDeque::new(4);
        for i in 1..=OPS {
            d.push_bottom(i as *mut _);
        }
        for _ in 0..OPS {
            std::hint::black_box(d.pop_bottom(PopBottomMode::Standard));
        }
    });
    out.num("split_resize_heavy_push_pop_per_sec", per_sec(2 * OPS, ns));

    // Steal paths (uncontended): fresh deque per round — steals advance
    // `top` without a reset, so a reused ring would keep growing.
    let ns = median_ns(cfg.rounds, || {
        let d = SplitDeque::new(OPS + 1);
        for i in 1..=OPS {
            d.push_bottom(i as *mut _);
        }
        for _ in 0..OPS {
            d.update_public_bottom(ExposurePolicy::One);
            std::hint::black_box(d.pop_top());
        }
    });
    out.num("split_expose_steal_per_sec", per_sec(OPS, ns));

    let ns = median_ns(cfg.rounds, || {
        let d = AbpDeque::new(OPS + 1);
        for i in 1..=OPS {
            d.push_bottom(i as *mut _);
        }
        for _ in 0..OPS {
            std::hint::black_box(d.pop_top());
        }
    });
    out.num("abp_steal_per_sec", per_sec(OPS, ns));
    eprintln!("deque_ops: done");
}

/// p50/p99 of `signal_send → handler_entry` pairs, when the trace layer is
/// compiled in. Returns `None` (→ JSON null) otherwise.
#[cfg(feature = "trace")]
fn signal_latency(cfg: &Config) -> Option<Obj> {
    let pool = PoolBuilder::new(Variant::Signal)
        .threads(cfg.threads.max(2))
        .build();
    let mut latencies: Vec<u64> = Vec::new();
    for _ in 0..50 {
        let sum = AtomicU64::new(0);
        pool.run(|| {
            par_for_grain(0..1 << 14, 1, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        let trace = pool.take_trace().expect("traced run must leave a trace");
        latencies.extend(trace.signal_latencies_ns());
        if latencies.len() >= 200 {
            break;
        }
    }
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_unstable();
    let mut o = Obj::default();
    o.int("p50_ns", percentile(&latencies, 0.50));
    o.int("p99_ns", percentile(&latencies, 0.99));
    o.int("samples", latencies.len() as u64);
    eprintln!(
        "signal_latency: p50={} p99={} ({} samples)",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        latencies.len()
    );
    Some(o)
}

#[cfg(not(feature = "trace"))]
fn signal_latency(_cfg: &Config) -> Option<Obj> {
    eprintln!("signal_latency: skipped (build with --features trace to measure)");
    None
}

/// Informational scheduler counters from one fine-grained signal-variant
/// run: how often workers were woken from a park, how often pushes fell
/// back to inline execution (must stay 0 with growable rings), how many
/// steal CAS races were lost, and how many ring doublings happened.
fn scheduler_counters(cfg: &Config, out: &mut Obj) {
    let pool = PoolBuilder::new(Variant::Signal)
        .threads(cfg.threads)
        .deque_capacity(4)
        .build();
    let sum = AtomicU64::new(0);
    let (_, m) = pool.run_measured(|| {
        par_for_grain(0..1 << 16, 1, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
    });
    assert_eq!(
        sum.into_inner(),
        ((1u64 << 16) - 1) * (1 << 16) / 2,
        "workload result corrupted"
    );
    out.int("idle_wakeups", m.unparks());
    out.int("overflow_inline", m.overflow_inline());
    out.int("steal_aborts", m.steal_aborts());
    out.int("deque_grows", m.deque_grows());
    eprintln!(
        "scheduler: idle_wakeups={} overflow_inline={} steal_aborts={} deque_grows={}",
        m.unparks(),
        m.overflow_inline(),
        m.steal_aborts(),
        m.deque_grows()
    );
}

/// Tiny-task flood — the granularity stress ROADMAP item 5 called for.
///
/// A skewed scope: the root spawns 2^14 near-empty tasks, so all the work
/// sits in one deque and every other worker lives off exposure + stealing.
/// This is the regime where scheduling policy dominates (the per-task work
/// is ~a fetch_add), so it separates the exposure/steal compositions:
/// per-variant flood latency for WS / Signal / Expose Half, plus the
/// near-first + steal-half composition from the policy layer (§5h). The
/// informational `flood_half_batched_tasks` counter records how many
/// tasks moved in multi-slot takes during the Expose Half rounds.
fn bench_granularity(cfg: &Config, out: &mut Obj) {
    const TASKS: usize = 1 << 14;
    let threads = cfg.threads.max(2);
    let flood = |pool: &lcws_core::ThreadPool| {
        let hits = AtomicU64::new(0);
        let (_, m) = pool.run_measured(|| {
            scope(|s| {
                for _ in 0..TASKS {
                    let hits = &hits;
                    s.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(
            hits.into_inner(),
            TASKS as u64,
            "flood lost tasks — refusing to report a latency"
        );
        m.steal_batch_tasks()
    };
    for variant in [Variant::Ws, Variant::Signal, Variant::SignalHalf] {
        // `flood16k_half_ns` has meant Expose Half *with* batch steals since
        // BENCH_10; the named composition now steals one task per CAS, so
        // opt in explicitly to keep the series like-for-like.
        let mut policies = variant.policies();
        if variant == Variant::SignalHalf {
            policies.steal = StealAmount::Half;
        }
        let pool = PoolBuilder::new(variant)
            .policies(policies)
            .threads(threads)
            .build();
        let mut batched = 0u64;
        let ns = median_ns(cfg.rounds, || {
            batched += flood(&pool);
        });
        out.int(&format!("flood16k_{variant}_ns"), ns);
        if variant == Variant::SignalHalf {
            out.int("flood_half_batched_tasks", batched);
        }
        eprintln!("granularity/flood16k {variant}: {ns} ns (batched={batched})");
    }
    let mut p = Policies::signal_half();
    p.victim = VictimSelection::NearFirst;
    p.steal = StealAmount::Half;
    let pool = PoolBuilder::new(Variant::SignalHalf)
        .policies(p)
        .threads(threads)
        .build();
    let ns = median_ns(cfg.rounds, || {
        flood(&pool);
    });
    out.int("flood16k_half_near_first_ns", ns);
    eprintln!("granularity/flood16k half+near-first: {ns} ns");
}

/// External-ingress throughput through the global injector.
///
/// Two numbers: the spawn→join round-trip rate for a single external
/// producer feeding batches while the pool serves, and the many-producer
/// stress — the PR 8 acceptance scenario — run as one timed round (the
/// workload is large enough that medianing adds minutes for no stability
/// gain). The stress asserts zero task loss before reporting, so a broken
/// number can never be committed.
fn bench_ingress(cfg: &Config, out: &mut Obj) {
    use std::sync::Arc;

    // A serve window executes on helper workers only (worker 0 is the
    // `run` caller's seat), so a threads=1 pool defers everything to the
    // shutdown drain — joining before shutdown would deadlock. Floor the
    // serving pools at 2, same as signal_latency.
    let threads = cfg.threads.max(2);

    // Spawn→join round-trip: one producer, batch submission, join all.
    const BATCH: usize = 4096;
    let pool = PoolBuilder::new(Variant::Signal).threads(threads).build();
    pool.serve();
    let ns = median_ns(cfg.rounds, || {
        let handles = pool.spawn_batch((0..BATCH as u64).map(|i| move || std::hint::black_box(i)));
        for h in handles {
            h.join();
        }
    });
    pool.shutdown();
    out.num("injector_spawn_join_per_sec", per_sec(BATCH, ns));
    eprintln!("ingress/spawn_join: {:.0} tasks/s", per_sec(BATCH, ns));

    // Many-producer stress: stress_producers external threads each submit
    // stress_tasks fire-and-forget tasks; the clock covers first submit
    // through full drain (shutdown).
    let total = (cfg.stress_producers * cfg.stress_tasks) as u64;
    let pool = PoolBuilder::new(Variant::Signal)
        .threads(cfg.threads)
        .build();
    pool.serve();
    let executed = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cfg.stress_producers {
            let pool = &pool;
            let executed = Arc::clone(&executed);
            s.spawn(move || {
                for _ in 0..cfg.stress_tasks {
                    let executed = Arc::clone(&executed);
                    drop(pool.spawn(move || {
                        executed.fetch_add(1, Ordering::Relaxed);
                    }));
                }
            });
        }
    });
    let snap = pool.shutdown();
    let ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(
        executed.load(Ordering::Relaxed),
        total,
        "producer stress lost tasks — refusing to report a throughput"
    );
    out.num("producer_stress_per_sec", per_sec(total as usize, ns));
    out.int("producer_stress_total_tasks", total);
    out.int("producer_stress_injector_pushes", snap.injector_pushes());
    out.int("producer_stress_injector_pops", snap.injector_pops());
    eprintln!(
        "ingress/producer_stress: {} producers x {} tasks -> {:.0} tasks/s \
         (pushes={} pops={})",
        cfg.stress_producers,
        cfg.stress_tasks,
        per_sec(total as usize, ns),
        snap.injector_pushes(),
        snap.injector_pops()
    );
}

fn main() {
    let cfg = parse_args();

    let mut fork_join = Obj::default();
    bench_fork_join(&cfg, &mut fork_join);

    let mut deque_ops = Obj::default();
    bench_deque_ops(&cfg, &mut deque_ops);

    let siglat = signal_latency(&cfg);

    let mut sched = Obj::default();
    scheduler_counters(&cfg, &mut sched);

    let mut granularity = Obj::default();
    bench_granularity(&cfg, &mut granularity);

    let mut ingress = Obj::default();
    bench_ingress(&cfg, &mut ingress);

    let mut meta = Obj::default();
    meta.int("threads", cfg.threads as u64);
    meta.int("rounds", cfg.rounds as u64);
    meta.int(
        "timestamp_unix_s",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    );

    let mut root = Obj::default();
    root.raw("meta", meta.render(2));
    root.raw("fork_join", fork_join.render(2));
    root.raw("deque_ops", deque_ops.render(2));
    root.raw(
        "signal_latency",
        siglat.map_or("null".to_string(), |o| o.render(2)),
    );
    root.raw("scheduler", sched.render(2));
    root.raw("granularity", granularity.render(2));
    root.raw("ingress", ingress.render(2));

    let json = format!("{}\n", root.render(0));
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", cfg.out));
    eprintln!("wrote {}", cfg.out);
}
