//! Signal-delivery latency histogram from the `lcws-trace` layer.
//!
//! Runs fork-join workloads of *long* leaves on the `signal` variant with
//! per-worker event rings enabled, pairs every thief-side `signal_send`
//! with the victim's `handler_entry` (see `lcws_core::Trace`), and reduces
//! the paired latencies to a log₂-bucket histogram — the paper's §4
//! "constant time, up to OS signal-delivery latency" claim, measured.
//!
//! A signal is only sent when an exposure request outlives its grace
//! (`EXPOSE_GRACE_NS` in `crates/core/src/signal.rs`), i.e. when the victim
//! sits in a task longer than that, so each leaf spins for `LEAF_BUSY`.
//! The median printed here is the delivery half of what an interrupt costs;
//! that constant's doc comment names the comparison, and this is the
//! command that re-takes the number.
//!
//! Artifacts:
//! * `results/siglat_hist.csv` — `bucket_lo_ns,bucket_hi_ns,count`
//! * `results/trace_siglat.json` — Chrome trace-event JSON of the densest
//!   run (load in chrome://tracing or Perfetto)
//!
//! Requires `--features trace` (the binary is feature-gated in Cargo.toml):
//! `cargo run --release -p lcws-bench --features trace --bin siglat`
//!
//! Options: `--threads N --samples N --rounds N --n N --grain N`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lcws_core::{par_for_grain, Event, PoolBuilder, Trace, Variant};

struct Config {
    threads: usize,
    /// Stop once this many latency samples are collected …
    samples: usize,
    /// … or after this many pool runs, whichever comes first.
    rounds: usize,
    n: usize,
    grain: usize,
}

/// Busy time of one leaf: what keeps a victim away from its request flag
/// past the grace, so the request is escalated to a signal. Five times the
/// 10 µs grace; a leaf shorter than one grace sends almost no signals.
const LEAF_BUSY: Duration = Duration::from_micros(50);

fn parse_args() -> Config {
    let mut cfg = Config {
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8),
        samples: 1_000,
        rounds: 200,
        n: 1 << 10,
        grain: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = || {
            args.next()
                .unwrap_or_else(|| panic!("{a} needs a value"))
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("{a} needs a number"))
        };
        match a.as_str() {
            "--threads" => cfg.threads = take().max(2),
            "--samples" => cfg.samples = take(),
            "--rounds" => cfg.rounds = take().max(1),
            "--n" => cfg.n = take(),
            "--grain" => cfg.grain = take().max(1),
            "--help" | "-h" => {
                eprintln!("options: --threads N --samples N --rounds N --n N --grain N");
                std::process::exit(0);
            }
            other => panic!("unknown option {other}"),
        }
    }
    cfg
}

/// Log₂ histogram: bucket k counts latencies in `[2^k, 2^{k+1})` ns
/// (bucket 0 also holds exact zeros).
fn histogram(latencies: &[u64]) -> Vec<(u64, u64, usize)> {
    let bucket_of = |ns: u64| 64 - ns.max(1).leading_zeros() as usize - 1;
    let lo_bucket = latencies.iter().map(|&ns| bucket_of(ns)).min().unwrap_or(0);
    let hi_bucket = latencies.iter().map(|&ns| bucket_of(ns)).max().unwrap_or(0);
    let mut counts = vec![0usize; hi_bucket - lo_bucket + 1];
    for &ns in latencies {
        counts[bucket_of(ns) - lo_bucket] += 1;
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let k = lo_bucket + i;
            (1u64 << k, 1u64 << (k + 1), c)
        })
        .collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let cfg = parse_args();
    let pool = PoolBuilder::new(Variant::Signal)
        .threads(cfg.threads)
        .build();

    let mut latencies: Vec<u64> = Vec::new();
    let mut best_trace: Option<Trace> = None;
    let mut best_signal_events = 0usize;
    let mut rounds_used = 0usize;
    for _ in 0..cfg.rounds {
        rounds_used += 1;
        let sum = AtomicU64::new(0);
        pool.run(|| {
            par_for_grain(0..cfg.n, cfg.grain, |i| {
                let t0 = Instant::now();
                while t0.elapsed() < LEAF_BUSY {
                    std::hint::spin_loop();
                }
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (cfg.n as u64 - 1) * cfg.n as u64 / 2,
            "workload result corrupted"
        );
        let trace = pool.take_trace().expect("traced run must leave a trace");
        latencies.extend(trace.signal_latencies_ns());
        let signal_events =
            trace.of_kind(Event::SignalSend).count() + trace.of_kind(Event::HandlerEntry).count();
        if signal_events >= best_signal_events {
            best_signal_events = signal_events;
            best_trace = Some(trace);
        }
        if latencies.len() >= cfg.samples {
            break;
        }
    }

    let mut report = lcws_bench::Report::new("Signal-delivery latency (lcws-trace)");
    report.section("setup");
    report.line(format!(
        "variant=signal threads={} n={} grain={} leaf_us={} rounds={rounds_used} samples={}",
        cfg.threads,
        cfg.n,
        cfg.grain,
        LEAF_BUSY.as_micros(),
        latencies.len(),
    ));

    if latencies.is_empty() {
        report.section("result");
        report.line("no signal_send/handler_entry pair observed — nothing to histogram");
        report.print();
        std::process::exit(1);
    }

    latencies.sort_unstable();
    report.section("latency (ns)");
    report.line(format!(
        "min={} p50={} p90={} p99={} max={}",
        latencies[0],
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        latencies[latencies.len() - 1],
    ));
    report.line(format!(
        "median {} ns — compare `EXPOSE_GRACE_NS` in crates/core/src/signal.rs (its doc comment \
         says how the two relate)",
        percentile(&latencies, 0.50),
    ));

    let hist = histogram(&latencies);
    report.section("histogram (log2 buckets)");
    let peak = hist.iter().map(|&(_, _, c)| c).max().unwrap_or(1).max(1);
    for &(lo, hi, count) in &hist {
        report.line(format!(
            "[{lo:>9}, {hi:>9}) {count:>6} {}",
            "#".repeat(count * 40 / peak)
        ));
    }
    report.csv(
        "siglat_hist",
        "bucket_lo_ns,bucket_hi_ns,count",
        &hist
            .iter()
            .map(|&(lo, hi, count)| format!("{lo},{hi},{count}"))
            .collect::<Vec<_>>(),
    );

    let trace = best_trace.expect("at least one round ran");
    report.section("trace export");
    report.line(format!(
        "densest run: {} events from {} workers ({} dropped)",
        trace.events.len(),
        trace.workers,
        trace.dropped,
    ));
    let json_path = std::path::Path::new("results").join("trace_siglat.json");
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&json_path, trace.to_chrome_json()))
    {
        Ok(()) => report.line(format!("wrote {}", json_path.display())),
        Err(e) => report.line(format!(
            "warning: cannot write {}: {e}",
            json_path.display()
        )),
    }
    report.print();
}
