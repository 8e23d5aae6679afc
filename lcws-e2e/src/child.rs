//! One child process: one pool for its whole life, one JSON report.
//!
//! The parent re-executes the binary once per (workload, scheduler) — and
//! once per single-layer section of the traced pass — because that is what
//! makes the numbers repeat: a child generates its inputs from the seed,
//! computes references outside any pool, builds **exactly one** pool, warms
//! up, and then measures what the parent asks for, when it asks:
//!
//! ```text
//! child  → "ready <round ms>"      set-up and warm-up are done
//! parent → "rounds <ms> <min>"     timed rounds for <ms>, at least <min>
//! parent → "ff <ms>"               closed-loop ingress rounds on the same pool
//! parent → "open <ms>"             one open-loop ingress window
//! child  → "ok"                    after each of the three
//! parent → "finish"                end-of-life probes, drop the pool
//! child  → {report}                one JSON line, the last one
//! ```
//!
//! The parent owns the schedule so that it can give the four schedulers of
//! an untraced pass their slices in turn: between commands a child blocks on
//! its stdin and its helpers on the pool's condition variable, so a waiting
//! child uses no CPU. Nothing leaks from one scheduler's measurement into the
//! next, and a crash costs one child, not the run.

use std::collections::HashMap;
use std::io::BufRead;
use std::time::{Duration, Instant};

use lcws_bench::BoxStats;
use lcws_core::{PoolBuilder, Snapshot, ThreadPool};

use crate::ingress::{self, percentile, sorted};
use crate::json::Json;
use crate::layers::{self, Values};
use crate::pbbs_mix::KERNELS;
use crate::plan::{self, Sizes};
use crate::span::Spans;
use crate::sys;
use crate::workloads::{self, IngressFf, Mode, Workload};

/// Arguments of a child, as the parent wrote them (`--key value` pairs).
pub struct ChildArgs(pub HashMap<String, String>);

impl ChildArgs {
    fn str(&self, key: &str) -> &str {
        self.0
            .get(key)
            .unwrap_or_else(|| panic!("child argument --{key} missing"))
    }
    fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.str(key)
            .parse()
            .unwrap_or_else(|_| panic!("child argument --{key} is not a number"))
    }
    fn flag(&self, key: &str) -> bool {
        self.0.get(key).is_some_and(|v| v == "1")
    }
    fn millis(&self, key: &str) -> Duration {
        Duration::from_millis(self.0.get(key).map_or(0, |_| self.num(key)))
    }
}

/// Per-layer values under their final metric names. A child knows only its
/// own scheduler: `put("core.x.y", v)` lands on `core.x.y.<comp>` if the plan
/// has that name, on `core.x.y` if the plan has *that* and this child runs
/// `signal` (the scheduler every unsuffixed per-layer metric is taken under),
/// and nowhere otherwise.
struct Layer {
    comp: String,
    names: Vec<String>,
    values: Vec<(String, f64)>,
}

impl Layer {
    fn new(comp: &str) -> Layer {
        Layer {
            comp: comp.to_string(),
            names: plan::per_layer().into_iter().map(|m| m.name).collect(),
            values: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        let suffixed = format!("{name}.{}", self.comp);
        if self.names.contains(&suffixed) {
            self.values.push((suffixed, value));
        } else if self.comp == "signal" && self.names.iter().any(|n| n == name) {
            self.values.push((name.to_string(), value));
        }
    }

    fn extend(&mut self, values: Values) {
        for (name, v) in values {
            // Already final names; keep only what the plan knows.
            if self.names.contains(&name) {
                self.values.push((name, v));
            }
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (k, v) in &self.values {
            o.set(k, *v);
        }
        o
    }
}

/// Interpolated median (NaN, reported as "not measured", without samples).
fn median(samples: &[f64]) -> f64 {
    BoxStats::of(samples).median
}

/// `workloads::typical`, NaN (reported as "not measured") without samples.
fn typical(samples: &[f64]) -> f64 {
    workloads::typical(samples).unwrap_or(f64::NAN)
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn build_pool(comp: &str, workers: usize) -> Result<ThreadPool, String> {
    let (variant, policies) =
        plan::composition(comp).ok_or_else(|| format!("unknown composition `{comp}`"))?;
    Ok(PoolBuilder::new(variant)
        .policies(policies)
        .threads(workers)
        .build())
}

/// Entry point of `lcws-e2e --child ...`; `started` is the instant `main`
/// began (child start, for `setup_s`). Speaks the protocol above on
/// stdin/stdout and returns when the report has been printed.
pub fn run(args: &ChildArgs, started: Instant) {
    let steal0 = sys::steal_ticks();
    let mut report = Json::obj();
    let outcome = match args.str("kind") {
        "workload" => workload_child(args, started, &mut report),
        "deque" | "api" | "parlay" => section_child(args, &mut report),
        other => Err(format!("unknown child kind `{other}`")),
    };
    if let Err(e) = &outcome {
        report.set("error", e.as_str());
    }
    report.set("ok", outcome.is_ok());
    report.set("rss_mb", sys::peak_rss_mb().unwrap_or(0.0));
    report.set(
        "nonvoluntary_switches",
        sys::nonvoluntary_switches().unwrap_or(0),
    );
    report.set(
        "steal_ticks",
        sys::steal_ticks()
            .zip(steal0)
            .map_or(0, |(a, b)| a.saturating_sub(b)),
    );
    println!("{}", report.compact());
}

/// Set up, announce `ready`, obey commands until `finish` (or end of input).
fn workload_child(args: &ChildArgs, started: Instant, report: &mut Json) -> Result<(), String> {
    let mut session = Session::set_up(args, started)?;
    report.set("setup_s", session.setup_s);
    println!("ready {}", session.warm_round_ms);
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let mut words = line.split_whitespace();
        let command = words.next().unwrap_or("");
        let mut number = || {
            words
                .next()
                .and_then(|w| w.parse::<u64>().ok())
                .unwrap_or(0)
        };
        let budget = Duration::from_millis(number());
        match command {
            "rounds" => session.rounds(budget, number() as usize),
            "ff" => session.ff(budget),
            "open" => session.open(budget),
            "finish" => break,
            other => return Err(format!("unknown command `{other}`")),
        }
        println!("ok");
    }
    session.finish(report);
    Ok(())
}

/// The single-layer sections: `deque` (no pool), `api` (P = 1), `parlay`.
/// They measure during set-up and have no commands to wait for.
fn section_child(args: &ChildArgs, report: &mut Json) -> Result<(), String> {
    let sizes = Sizes::get(args.flag("smoke"));
    let mut spans = Spans::new(true);
    spans.set_round(1);
    let comp = args.str("comp");
    let mut layer = Layer::new(comp);
    match args.str("kind") {
        "deque" => layer.extend(layers::deque(&sizes, &mut spans)),
        "api" => {
            let pool = build_pool(comp, 1)?;
            layer.extend(layers::api(
                &pool,
                comp,
                args.num("seed"),
                &sizes,
                &mut spans,
            ));
        }
        _ => {
            let pool = build_pool(comp, args.num("workers"))?;
            layer.extend(layers::parlay(&pool, args.num("seed"), &sizes, &mut spans));
        }
    }
    report.set("layer", layer.to_json());
    report.set("spans", spans.to_json());
    report.set("attempted", 0u64).set("failed", 0u64);
    Ok(())
}

/// Counters summed over the rounds that reported them, with their wall time.
#[derive(Default)]
struct Counted {
    snapshot: Snapshot,
    wall_ms: f64,
    rounds: u64,
}

/// The open-loop windows of one child, merged.
#[derive(Default)]
struct OpenWindows {
    waits_us: Vec<f64>,
    chunk_p50_us: Vec<f64>,
    late_us: Vec<f64>,
    tasks: u64,
    snapshot: Snapshot,
}

/// A workload child between `ready` and `finish`: the one pool, the
/// workload's state, and every sample taken so far.
struct Session<'a> {
    args: &'a ChildArgs,
    workload: &'a str,
    comp: &'a str,
    trace: bool,
    /// Traced `signal` child: cycle plain / measured / measured+spans rounds.
    cycle: bool,
    sizes: Sizes,
    seed: u64,
    setup_s: f64,
    /// Median warm-up round, milliseconds: the parent shares a lap among
    /// its children in proportion, so that each runs as many rounds.
    warm_round_ms: f64,
    pool: ThreadPool,
    wl: Box<dyn Workload>,
    spans: Spans,
    layer: Layer,
    attempted: u64,
    failed: u64,
    round: usize,
    plain: Vec<f64>,
    measured: Vec<f64>,
    traced: Vec<f64>,
    counted: Counted,
    /// Named sub-times of the rounds (PBBS kernels, the ingress spawn loop).
    parts: Vec<(&'static str, Vec<f64>)>,
    rounds_cpu_s: f64,
    /// Peak memory of set-up and rounds, before any ingress slice (whose
    /// backlog of queued tasks is a matter of producer/consumer luck).
    rss_rounds_mb: f64,
    /// Closed-loop ingress rounds of `ff` slices, and their spawn loops.
    ff_ms: Vec<f64>,
    ff_spawn_ms: Vec<f64>,
    open: OpenWindows,
}

impl<'a> Session<'a> {
    /// Inputs and references outside any pool, then the one pool, then
    /// whole warm-up rounds until the warm-up time has passed.
    fn set_up(args: &'a ChildArgs, started: Instant) -> Result<Session<'a>, String> {
        let workload = args.str("workload");
        let comp = args.str("comp");
        let trace = args.flag("trace");
        let sizes = Sizes::get(args.flag("smoke"));
        let seed: u64 = args.num("seed");
        let mut spans = Spans::new(trace);
        let mut layer = Layer::new(comp);
        let (mut attempted, mut failed) = (0u64, 0u64);

        let mut wl = workloads::build(workload, seed, &sizes, &mut spans)?;
        let build = spans.begin("core.pool.build");
        let t = Instant::now();
        let pool = build_pool(comp, args.num("workers"))?;
        layer.put("core.pool.build_ms", t.elapsed().as_secs_f64() * 1e3);
        spans.end(build);

        let warm_until = Instant::now() + args.millis("warmup_ms");
        let (tasks, lost) = wl.prime(&pool, &mut spans);
        attempted += tasks;
        failed += lost;
        let mut warm_ms = Vec::new();
        loop {
            let out = wl.round(&pool, Mode::Plain, &mut spans);
            warm_ms.push(out.ms);
            attempted += out.attempted;
            failed += out.failed;
            if Instant::now() >= warm_until {
                break;
            }
        }
        Ok(Session {
            args,
            workload,
            comp,
            trace,
            cycle: args.flag("cycle_modes"),
            sizes,
            seed,
            setup_s: started.elapsed().as_secs_f64(),
            warm_round_ms: median(&warm_ms),
            pool,
            wl,
            spans,
            layer,
            attempted,
            failed,
            round: 0,
            plain: Vec::new(),
            measured: Vec::new(),
            traced: Vec::new(),
            counted: Counted::default(),
            parts: Vec::new(),
            rounds_cpu_s: 0.0,
            rss_rounds_mb: 0.0,
            ff_ms: Vec::new(),
            ff_spawn_ms: Vec::new(),
            open: OpenWindows::default(),
        })
    }

    /// Timed rounds: at least `min`, then until `budget` is spent. In the
    /// traced pass the `signal` child cycles through plain, measured and
    /// traced rounds, so the overhead of `run_measured` and of the span
    /// recorder is the ratio of median round times taken in one process.
    fn rounds(&mut self, budget: Duration, min: usize) {
        let abort_after: Option<usize> = self
            .args
            .0
            .get("abort_after")
            .map(|_| self.args.num("abort_after"));
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let mut done = 0;
        while done < min || t0.elapsed() < budget {
            if abort_after == Some(self.round) {
                // --inject-child-abort: die the way a crashed scheduler would.
                std::process::abort();
            }
            done += 1;
            self.round += 1;
            self.spans.set_round(self.round as u32);
            let (mode, record, samples) = match (self.trace, self.cycle, self.round % 3) {
                (false, _, _) => (Mode::Plain, false, &mut self.plain),
                (true, true, 1) => (Mode::Plain, false, &mut self.plain),
                (true, true, 2) => (Mode::Measured, false, &mut self.measured),
                (true, _, _) => (Mode::Measured, true, &mut self.traced),
            };
            self.spans.set_enabled(record);
            let out = self.wl.round(&self.pool, mode, &mut self.spans);
            samples.push(out.ms);
            self.attempted += out.attempted;
            self.failed += out.failed;
            if let Some(snapshot) = &out.snapshot {
                self.counted.snapshot = self.counted.snapshot.merged(snapshot);
                self.counted.wall_ms += out.ms;
                self.counted.rounds += 1;
            }
            for (name, ms) in out.parts {
                match self.parts.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, v)) => v.push(ms),
                    None => self.parts.push((name, vec![ms])),
                }
            }
        }
        self.spans.set_enabled(self.trace);
        self.spans.set_round(0);
        if let Some((a, b)) = sys::cpu_seconds().zip(cpu0) {
            self.rounds_cpu_s += a - b;
        }
        if self.ff_ms.is_empty() && self.open.tasks == 0 {
            self.rss_rounds_mb = sys::peak_rss_mb().unwrap_or(0.0);
        }
    }

    /// Closed-loop ingress rounds on the same pool, for workloads whose own
    /// rounds are not that already.
    fn ff(&mut self, budget: Duration) {
        let mut ff = IngressFf {
            tasks: self.sizes.ff_tasks,
        };
        let t0 = Instant::now();
        loop {
            let out = ff.round(&self.pool, Mode::Plain, &mut self.spans);
            self.ff_ms.push(out.ms);
            self.ff_spawn_ms.extend(out.parts.iter().map(|p| p.1));
            self.attempted += out.attempted;
            self.failed += out.failed;
            if t0.elapsed() >= budget {
                break;
            }
        }
    }

    /// One open-loop window at the sparse rate.
    fn open(&mut self, budget: Duration) {
        // A different arrival sequence per window.
        let seed = self.seed ^ (self.open.tasks << 20);
        let window = ingress::open_loop(
            &self.pool,
            self.sizes.open_rate,
            budget,
            seed,
            &mut self.spans,
        );
        self.attempted += window.tasks;
        self.failed += window.failed;
        self.open.waits_us.extend(window.waits_us);
        self.open.chunk_p50_us.extend(window.chunk_p50_us);
        self.open.late_us.extend(window.late_us);
        self.open.tasks += window.tasks;
        self.open.snapshot = self.open.snapshot.merged(&window.snapshot);
    }

    /// Turn the samples into the report; traced children also probe the
    /// pool's entry cost and (`signal`) the injector. Drops the pool.
    fn finish(mut self, report: &mut Json) {
        report.set("rss_rounds_mb", self.rss_rounds_mb);

        // The round time this child stands for: plain rounds when it has any
        // (the untraced pass, the cycling child), traced rounds otherwise.
        let round_ms = if self.plain.is_empty() {
            &self.traced
        } else {
            &self.plain
        };
        let mut samples = Json::obj();
        samples.set("round_ms", round_ms.clone());
        let mut parts_json = Json::obj();
        for (name, ms) in &self.parts {
            parts_json.set(name, ms.clone());
        }
        samples.set("parts", parts_json);
        // Elsewhere the round is the operation and its median is the
        // number. A PBBS round is eight operations, and which of them stalls
        // changes from round to round (`workloads::typical`): its number is
        // the sum of the kernels' typical times.
        let kernels: Vec<&Vec<f64>> = self
            .parts
            .iter()
            .filter(|(name, _)| KERNELS.contains(name))
            .map(|(_, ms)| ms)
            .collect();
        let (round_value_ms, stalled) = if kernels.is_empty() {
            (median(round_ms), workloads::stalled_share(round_ms))
        } else {
            let executions: usize = kernels.iter().map(|ms| ms.len()).sum();
            let stalled: f64 = kernels
                .iter()
                .filter_map(|ms| Some(workloads::stalled_share(ms)? * ms.len() as f64))
                .sum();
            (
                kernels.iter().map(|ms| typical(ms)).sum(),
                Some(stalled / executions as f64),
            )
        };
        let mut values = Json::obj();
        values.set("round_ms", round_value_ms);
        let layer = &mut self.layer;
        layer.put("core.sleep.stalled_ops_ratio", stalled.unwrap_or(f64::NAN));
        if self.comp == "cons" || self.comp == "half_near_first" {
            layer.values.push((
                format!("core.policy.{}_round_ms", self.comp),
                round_value_ms,
            ));
        }
        if self.args.flag("oversubscribed") {
            layer.put("core.worker.oversub_round_ms", round_value_ms);
        }
        if self.cycle {
            // Each cycle's plain round is the base of its measured and its
            // traced round: neighbours in time share the host's speed, so
            // the median of the per-cycle ratios is far steadier than the
            // ratio of the medians.
            let over_plain = |rounds: &[f64]| {
                let ratios: Vec<f64> = rounds.iter().zip(&self.plain).map(|(r, p)| r / p).collect();
                median(&ratios)
            };
            layer.put(
                "metrics.run_measured_overhead_ratio",
                over_plain(&self.measured),
            );
            layer.put("bench.trace_overhead_ratio", over_plain(&self.traced));
        }
        if self.counted.rounds > 0 {
            let s = &self.counted.snapshot;
            let ktasks = s.tasks_run().max(1) as f64 / 1e3;
            layer.put("core.worker.fences_per_ktask", s.fences() as f64 / ktasks);
            layer.put("core.worker.cas_per_ktask", s.cas() as f64 / ktasks);
            layer.put(
                "core.worker.steals_per_ktask",
                s.steals_ok() as f64 / ktasks,
            );
            layer.put(
                "core.worker.steal_success_ratio",
                ratio(s.steals_ok(), s.steal_attempts()),
            );
            layer.put(
                "core.worker.us_per_steal",
                self.counted.wall_ms * 1e3 / s.steals_ok().max(1) as f64,
            );
            layer.put(
                "core.worker.idle_iters_per_ktask",
                s.idle_iters() as f64 / ktasks,
            );
            layer.put(
                "core.worker.unstolen_exposure_ratio",
                ratio(s.owner_public_pops(), s.exposures()),
            );
            report.set("counters", counters_json(s, self.counted.rounds));
        }
        layer.put(
            "core.sleep.cpu_s_per_round",
            self.rounds_cpu_s / self.round.max(1) as f64,
        );
        if self.workload.starts_with("pbbs_") {
            for (name, ms) in &self.parts {
                layer.put(&format!("pbbs.{name}_ms"), typical(ms));
            }
            // The generation span is the first one recorded, when recording.
            if let Some(gen) = self.spans.spans().iter().find(|s| s.name == "pbbs.gen") {
                layer.put("pbbs.gen_ms", (gen.end_ns - gen.start_ns) as f64 / 1e6);
            }
        }

        if self.trace {
            let empties: Vec<f64> = (0..200)
                .map(|_| {
                    let t = Instant::now();
                    self.pool.run(|| ());
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            layer.put("core.pool.run_empty_us", median(&empties));
        }

        // Closed-loop ingress: the `ff` slices, or on `ingress_serve` the
        // rounds themselves.
        let own_spawn_ms = self
            .parts
            .iter()
            .find(|(n, _)| *n == "spawn_loop")
            .map(|(_, v)| v);
        let (ff_ms, spawn_ms) = if own_spawn_ms.is_some() {
            (Some(round_ms), own_spawn_ms)
        } else if self.ff_ms.is_empty() {
            (None, None)
        } else {
            (Some(&self.ff_ms), Some(&self.ff_spawn_ms))
        };
        if let Some(ff_ms) = ff_ms {
            let rate = self.sizes.ff_tasks as f64 / (median(ff_ms) / 1e3);
            samples.set("ff_round_ms", ff_ms.clone());
            values.set("ff_tasks_per_s", rate);
            layer.put("core.injector.ff_tasks_per_s", rate);
        }
        if let Some(spawn_ms) = spawn_ms {
            layer.put(
                "core.injector.spawn_call_ns",
                median(spawn_ms) * 1e6 / self.sizes.ff_tasks as f64,
            );
        }
        if self.open.tasks > 0 {
            let waits_us = sorted(std::mem::take(&mut self.open.waits_us));
            let late_us = sorted(std::mem::take(&mut self.open.late_us));
            // The typical wait is taken over chunks (`ingress::CHUNK_TASKS`);
            // the tail quantiles are of all waits pooled.
            let p50 = median(&self.open.chunk_p50_us);
            values.set("wake_p50_us", p50);
            values.set("wake_samples", waits_us.len());
            let deciles: Vec<f64> = (1..10)
                .map(|d| percentile(&waits_us, d as f64 / 10.0))
                .collect();
            samples.set("wake_deciles_us", deciles);
            layer.put("core.sleep.wake_p50_us", p50);
            layer.put("core.sleep.wake_p90_us", percentile(&waits_us, 0.9));
            layer.put("core.sleep.wake_p99_us", percentile(&waits_us, 0.99));
            layer.put("core.sleep.wake_p999_us", percentile(&waits_us, 0.999));
            layer.put("bench.gen_late_p99_us", percentile(&late_us, 0.99));
            let s = &self.open.snapshot;
            layer.put(
                "core.sleep.parks_per_ktask",
                s.parks() as f64 / (self.open.tasks as f64 / 1e3),
            );
            layer.put(
                "core.sleep.wake_attempts_per_unpark",
                ratio(s.wake_attempts(), s.unparks()),
            );
        }
        if self.args.flag("probes") {
            let p = ingress::probes(
                &self.pool,
                if self.args.flag("smoke") { 200 } else { 2000 },
                &mut self.spans,
            );
            self.attempted += p.tasks;
            self.failed += p.failed;
            layer.put("core.injector.rtt_p50_us", percentile(&p.rtt_us, 0.5));
            layer.put("core.injector.rtt_p99_us", percentile(&p.rtt_us, 0.99));
            layer.put("core.injector.batch_tasks_per_s", p.batch_tasks_per_s);
            layer.put("core.pool.serve_us", p.serve_us);
            layer.put("core.pool.shutdown_idle_us", p.shutdown_idle_us);
            let busy = ingress::open_loop(
                &self.pool,
                self.sizes.busy_rate,
                Duration::from_millis(250),
                self.seed ^ 1,
                &mut self.spans,
            );
            self.attempted += busy.tasks;
            self.failed += busy.failed;
            layer.put(
                "core.injector.busy_wait_p50_us",
                percentile(&busy.waits_us, 0.5),
            );
            layer.put(
                "core.injector.busy_wait_p99_us",
                percentile(&busy.waits_us, 0.99),
            );
        }

        let drop_span = self.spans.begin("core.pool.drop");
        let t = Instant::now();
        drop(self.pool);
        layer.put("core.pool.drop_ms", t.elapsed().as_secs_f64() * 1e3);
        self.spans.end(drop_span);

        report
            .set("samples", samples)
            .set("values", values)
            .set("layer", layer.to_json())
            .set("rounds", self.round)
            .set("attempted", self.attempted)
            .set("failed", self.failed);
        if self.trace {
            report.set("spans", self.spans.to_json());
        }
    }
}

/// Raw counter totals of the counted rounds (the contract test asserts the
/// theory bounds on these).
fn counters_json(s: &Snapshot, rounds: u64) -> Json {
    let mut o = Json::obj();
    o.set("rounds", rounds)
        .set("tasks_run", s.tasks_run())
        .set("fences", s.fences())
        .set("cas", s.cas())
        .set("steal_attempts", s.steal_attempts())
        .set("steals_ok", s.steals_ok())
        .set("exposures", s.exposures())
        .set("idle_iters", s.idle_iters())
        .set("parks", s.parks())
        .set("injector_pushes", s.injector_pushes())
        .set("injector_pops", s.injector_pops());
    o
}
