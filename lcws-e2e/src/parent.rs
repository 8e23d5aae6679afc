//! The parent: plans a pass, runs its children one after another, and folds
//! their reports into metrics.
//!
//! A pass over one workload is either *untraced* (four scheduler children;
//! gives the end-to-end metrics) or *traced* (the same four with spans and
//! counters, two policy compositions, and the single-layer sections; gives
//! the per-layer metrics and the trace file). Children never *run* at the
//! same time: on a two-core box a neighbour is the largest disturbance there
//! is. The four children of an untraced pass are alive together and take
//! turns, a slice of rounds each, lap after lap, while the others block on
//! their stdin: this host's speed moves in steps of ±12 % that last seconds
//! (a neighbour on the sibling hyperthread), and a scheduler measured in one
//! contiguous window inherits whichever step it met, while one measured in
//! `LAPS` windows spread over the run meets them all, as its rivals do. A
//! child that crashes, hangs or cannot be parsed costs its planned
//! operations as failures; nothing is retried.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Instant;

use lcws_bench::BoxStats;

use crate::json::{self, Json};
use crate::plan::{self, MetricDef, Sizes, SCHEDS};
use crate::span::{self, Span};
use crate::sys;
use crate::workloads;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Seconds of measurement per pass (`--seconds`).
    pub seconds: f64,
    pub smoke: bool,
    /// `P`: workers of a non-oversubscribed pool.
    pub workers: usize,
    /// Directory for child reports, trace files and `result.json`.
    pub out: PathBuf,
    /// Make the first child of every pass abort (tests the accounting).
    pub inject_child_abort: bool,
    /// Instant by which every child must have ended.
    pub deadline: Instant,
}

/// Which of a child's per-layer values the pass keeps.
#[derive(Debug, Clone, Copy)]
enum Take {
    All,
    Only(&'static str),
    Except(&'static str),
}

impl Take {
    fn keeps(self, name: &str) -> bool {
        match self {
            Take::All => true,
            Take::Only(prefix) => name.starts_with(prefix),
            Take::Except(prefix) => !name.starts_with(prefix),
        }
    }
}

/// One command of a child's schedule (`child.rs` has the protocol).
#[derive(Debug, Clone, Copy)]
struct Slice {
    command: &'static str,
    ms: u64,
    /// Least number of rounds (`rounds` only).
    min: usize,
}

struct ChildSpec {
    label: String,
    args: Vec<(&'static str, String)>,
    /// What the child is told to do in each lap, in order.
    schedule: Vec<Slice>,
    /// Operations charged as failed if the child is lost.
    planned_ops: u64,
    take: Take,
}

/// Laps of an untraced pass: each child's rounds come in this many slices
/// spread over the run.
const LAPS: usize = 4;

/// One child's fate, kept in the result file so a disturbed or lost child is
/// recognisable afterwards.
pub struct ChildOutcome {
    pub label: String,
    /// "ok", or how it ended ("exit status: 134", "timeout", ...).
    pub status: String,
    pub report: Option<Json>,
}

/// A reported metric: the value the contract prints, and the spread of the
/// samples behind it where there are any.
pub struct Metric {
    pub def: MetricDef,
    pub value: f64,
    pub stats: Option<BoxStats>,
}

/// The result of one pass over one workload.
pub struct PassResult {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub children: Vec<ChildOutcome>,
    /// Human-readable reasons for every failed operation or lost child.
    pub problems: Vec<String>,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The contract's result line.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut o = Json::obj();
            o.set("value", m.value).set("unit", m.def.unit);
            metrics.set(&m.def.name, o);
        }
        let mut line = Json::obj();
        line.set("correct", self.correct())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics);
        line.compact()
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}): attempted {} failed {}\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<58} {:>16.4} {}",
                m.def.name, m.value, m.def.unit
            ));
            if let Some(s) = &m.stats {
                out.push_str(&format!("   q1 {:.4} q3 {:.4} n {}", s.q1, s.q3, s.n));
            }
            out.push('\n');
        }
        for p in &self.problems {
            out.push_str(&format!("!! {p}\n"));
        }
        out
    }

    /// The pass as it is stored in `result.json`.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut o = Json::obj();
            o.set("value", m.value).set("unit", m.def.unit);
            if let Some(s) = &m.stats {
                o.set("median", s.median)
                    .set("q1", s.q1)
                    .set("q3", s.q3)
                    .set("n", s.n);
            }
            metrics.set(&m.def.name, o);
        }
        let children: Vec<Json> = self
            .children
            .iter()
            .map(|c| {
                let mut o = Json::obj();
                o.set("label", c.label.as_str())
                    .set("status", c.status.as_str());
                if let Some(r) = &c.report {
                    for key in [
                        "setup_s",
                        "rounds",
                        "attempted",
                        "failed",
                        "rss_mb",
                        "steal_ticks",
                        "nonvoluntary_switches",
                        "counters",
                        "error",
                    ] {
                        if let Some(v) = r.get(key) {
                            o.set(key, v.clone());
                        }
                    }
                }
                o
            })
            .collect();
        let mut o = Json::obj();
        o.set("correct", self.correct())
            .set("ops_attempted", self.attempted)
            .set("ops_failed", self.failed)
            .set("metrics", metrics)
            .set("children", children)
            .set(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect::<Vec<_>>(),
            );
        o
    }
}

/// `share` of the run's `--seconds`, split over `laps`, in milliseconds.
fn slice_ms(cfg: &RunConfig, share: f64, laps: usize) -> u64 {
    (cfg.seconds * share * 1e3 / laps as f64) as u64
}

fn workload_child(
    workload: &str,
    comp: &str,
    workers: usize,
    cfg: &RunConfig,
    trace: bool,
    rounds: Slice,
) -> ChildSpec {
    let sizes = Sizes::get(cfg.smoke);
    let warmup_ms = match (cfg.smoke, trace) {
        (true, _) => 0,
        (false, true) => 300,
        // Caches filled, rings grown, helpers past their first park.
        (false, false) => 1000,
    };
    ChildSpec {
        label: comp.to_string(),
        args: vec![
            ("kind", "workload".to_string()),
            ("workload", workload.to_string()),
            ("comp", comp.to_string()),
            ("workers", workers.to_string()),
            (
                "oversubscribed",
                ((workers > cfg.workers) as u8).to_string(),
            ),
            ("seed", cfg.seed.to_string()),
            ("trace", (trace as u8).to_string()),
            ("warmup_ms", warmup_ms.to_string()),
        ],
        schedule: vec![rounds],
        planned_ops: rounds.min as u64 * workloads::ops_per_round(workload, &sizes),
        take: if workload == "pbbs_oversub" {
            // Its kernels run at 2P; `pbbs.*` is defined at P.
            Take::Except("pbbs.")
        } else {
            Take::All
        },
    }
}

fn section_child(kind: &'static str, comp: &str, cfg: &RunConfig) -> ChildSpec {
    ChildSpec {
        label: format!("{kind}.{comp}"),
        args: vec![
            ("kind", kind.to_string()),
            ("comp", comp.to_string()),
            ("workers", cfg.workers.to_string()),
            ("seed", cfg.seed.to_string()),
        ],
        schedule: Vec::new(),
        planned_ops: 1,
        take: Take::All,
    }
}

/// The untraced pass: one child per scheduler, `--seconds` split among them
/// and over `laps`. The `signal` child also carries the ingress
/// measurements, on the same pool, after its rounds of each lap.
fn untraced_plan(workload: &str, cfg: &RunConfig, laps: usize) -> Vec<ChildSpec> {
    let ingress = workload == "ingress_serve";
    SCHEDS
        .iter()
        .map(|&comp| {
            let rounds = Slice {
                command: "rounds",
                ms: slice_ms(cfg, if ingress { 0.15 } else { 0.2 }, laps),
                min: if cfg.smoke { 2 } else { 1 },
            };
            // USLCWS under oversubscription is the pathology the paper's §4
            // motivates signals with — a descheduled victim cannot poll its
            // flag — and its round time does not repeat (quartiles 320–470 ms
            // within one child). It stays a per-layer number
            // (`core.worker.oversub_round_ms.uslcws`); end to end,
            // `pbbs_oversub` runs its `uslcws` child on P workers.
            let workers = if comp == "uslcws" {
                cfg.workers
            } else {
                plan::workers_for(workload, cfg.workers)
            };
            let mut spec = workload_child(workload, comp, workers, cfg, false, rounds);
            spec.planned_ops *= laps as u64;
            if comp == "signal" {
                if !ingress {
                    spec.schedule.push(Slice {
                        command: "ff",
                        ms: slice_ms(cfg, 0.08, laps),
                        min: 0,
                    });
                }
                spec.schedule.push(Slice {
                    command: "open",
                    ms: slice_ms(cfg, if ingress { 0.4 } else { 0.12 }, laps),
                    min: 0,
                });
            }
            spec
        })
        .collect()
}

/// The traced pass: the four schedulers with spans and counters (`signal`
/// also cycles round modes and probes the injector, `ws` gets a short ingress
/// tail for the `.ws` ingress metrics), the two policy compositions, and the
/// single-layer sections. One child at a time, one lap each.
fn traced_plan(workload: &str, cfg: &RunConfig) -> Vec<ChildSpec> {
    let ingress = workload == "ingress_serve";
    let rounds = |share: f64| Slice {
        command: "rounds",
        ms: slice_ms(cfg, share, 1),
        min: if cfg.smoke { 2 } else { 3 },
    };
    let workers = plan::workers_for(workload, cfg.workers);
    let mut plan = Vec::new();
    for comp in SCHEDS {
        // The cycling child splits its rounds three ways and the overhead
        // ratios need several cycles, so it gets four shares.
        let share = if comp == "signal" { 0.32 } else { 0.08 };
        let mut spec = workload_child(workload, comp, workers, cfg, true, rounds(share));
        if comp == "signal" {
            spec.args.push(("cycle_modes", "1".to_string()));
            spec.args.push(("probes", "1".to_string()));
            spec.schedule[0].min *= 3;
            spec.planned_ops *= 3;
        }
        if comp == "signal" || comp == "ws" {
            if !ingress {
                spec.schedule.push(Slice {
                    command: "ff",
                    ms: slice_ms(cfg, 0.03, 1),
                    min: 0,
                });
            }
            spec.schedule.push(Slice {
                command: "open",
                ms: slice_ms(cfg, if comp == "signal" { 0.10 } else { 0.06 }, 1),
                min: 0,
            });
        }
        plan.push(spec);
    }
    for comp in ["cons", "half_near_first"] {
        plan.push(workload_child(
            workload,
            comp,
            workers,
            cfg,
            true,
            rounds(0.05),
        ));
    }
    if workers == cfg.workers {
        // `core.worker.oversub_round_ms.uslcws`: on `pbbs_oversub` the main
        // `uslcws` child already runs at 2P; elsewhere one more child does.
        let mut spec = workload_child(workload, "uslcws", 2 * cfg.workers, cfg, true, rounds(0.04));
        spec.label = "oversub.uslcws".to_string();
        spec.take = Take::Only("core.worker.oversub_");
        plan.push(spec);
    }
    plan.push(section_child("deque", "signal", cfg));
    for comp in SCHEDS {
        plan.push(section_child("api", comp, cfg));
    }
    plan.push(section_child("parlay", "signal", cfg));
    if workload != "pbbs_mix" {
        for comp in ["ws", "signal"] {
            let slice = Slice {
                min: 2,
                ..rounds(0.04)
            };
            let mut spec = workload_child("pbbs_mix", comp, cfg.workers, cfg, true, slice);
            spec.label = format!("pbbs.{comp}");
            spec.take = Take::Only("pbbs.");
            plan.push(spec);
        }
    }
    plan
}

/// A child process that has been started and not yet reaped.
struct Running {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Lines of the child's stdout, from a reader thread (so that waiting
    /// for one can time out).
    lines: Receiver<String>,
    /// Once the child is over: its report, or how it was lost.
    over: Option<Result<Json, String>>,
    /// Length of a warm-up round as the child announced it, milliseconds.
    round_ms: f64,
}

impl Running {
    /// Start `spec`'s child and wait until it is `ready`.
    fn start(spec: &ChildSpec, cfg: &RunConfig) -> Result<Running, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut command = Command::new(exe);
        command.arg("--child");
        for (key, value) in &spec.args {
            command.arg(format!("--{key}")).arg(value);
        }
        if cfg.smoke {
            command.arg("--smoke");
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        // Ends at the child's end of output; a send after the receiver is
        // gone (a child killed at the deadline) just stops it early.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut running = Running {
            stdin: child.stdin.take(),
            child,
            lines,
            over: None,
            round_ms: 0.0,
        };
        if let Some(rest) = running.wait_for("ready", cfg.deadline) {
            running.round_ms = rest.trim().parse().unwrap_or(0.0);
        }
        Ok(running)
    }

    /// Read the child's output up to a line that starts with the word
    /// `token` and return the rest of that line, or up to the child's report
    /// (an empty token, or a child that ended early). A child silent past
    /// `deadline` is hung: note where its threads are stuck, and kill it.
    fn wait_for(&mut self, token: &str, deadline: Instant) -> Option<String> {
        while self.over.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if line.starts_with('{') => {
                    self.over =
                        Some(json::parse(&line).map_err(|e| format!("unreadable report: {e}")));
                }
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(token).filter(|_| !token.is_empty()) {
                        return Some(rest.to_string());
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let threads = sys::thread_states(self.child.id());
                    let _ = self.child.kill();
                    self.over = Some(Err(format!("timeout; threads: {threads}")));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.over = Some(Err(match self.child.wait() {
                        Ok(status) => status.to_string(),
                        Err(e) => format!("wait: {e}"),
                    }));
                }
            }
        }
        None
    }

    /// Send one command and wait for its `ok`.
    fn command(&mut self, line: &str, deadline: Instant) {
        if let Some(stdin) = &mut self.stdin {
            // A child that is gone shows as such in `wait_for`.
            let _ = writeln!(stdin, "{line}");
            self.wait_for("ok", deadline);
        }
    }

    /// Tell the child to finish, take its report, and reap it.
    fn finish(mut self, label: &str, deadline: Instant) -> ChildOutcome {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "finish");
        }
        self.wait_for("", deadline);
        let status = match self.child.wait() {
            Ok(status) if status.success() => None,
            Ok(status) => Some(status.to_string()),
            Err(e) => Some(format!("wait: {e}")),
        };
        match (self.over.take(), status) {
            (Some(Ok(report)), None) => ChildOutcome {
                label: label.to_string(),
                status: "ok".to_string(),
                report: Some(report),
            },
            (Some(Err(status)), _) | (_, Some(status)) => ChildOutcome {
                label: label.to_string(),
                status,
                report: None,
            },
            (None, None) => unreachable!("wait_for(\"\") returns only once the child is over"),
        }
    }
}

/// Run the children of `plan`: those of one group are alive together and
/// take turns lap by lap; groups follow each other.
fn run_children(
    plan: &[ChildSpec],
    together: bool,
    laps: usize,
    cfg: &RunConfig,
) -> Vec<ChildOutcome> {
    let mut outcomes = Vec::new();
    for group in plan.chunks(if together { plan.len() } else { 1 }) {
        let mut running: Vec<Result<Running, String>> =
            group.iter().map(|spec| Running::start(spec, cfg)).collect();
        // A lap's time for rounds is shared in proportion to the length of
        // each child's round, so that every scheduler runs as many rounds: a
        // slow scheduler's time is then known from as many samples as a fast
        // one's.
        let round_ms = |c: &Result<Running, String>| c.as_ref().map_or(0.0, |c| c.round_ms);
        let mean_round_ms = running.iter().map(round_ms).sum::<f64>() / group.len() as f64;
        for _ in 0..laps {
            for (spec, child) in group.iter().zip(&mut running) {
                let weight = if mean_round_ms > 0.0 {
                    round_ms(child) / mean_round_ms
                } else {
                    1.0
                };
                let Ok(child) = child else { continue };
                for slice in &spec.schedule {
                    let ms = match slice.command {
                        "rounds" => (slice.ms as f64 * weight) as u64,
                        _ => slice.ms,
                    };
                    child.command(
                        &format!("{} {ms} {}", slice.command, slice.min),
                        cfg.deadline,
                    );
                }
            }
        }
        for (spec, child) in group.iter().zip(running) {
            outcomes.push(match child {
                Ok(child) => child.finish(&spec.label, cfg.deadline),
                Err(status) => ChildOutcome {
                    label: spec.label.clone(),
                    status,
                    report: None,
                },
            });
        }
    }
    outcomes
}

fn stats_of(samples: &[f64]) -> Option<BoxStats> {
    (!samples.is_empty()).then(|| BoxStats::of(samples))
}

/// Run one pass over `workload`.
pub fn run_pass(workload: &str, traced: bool, cfg: &RunConfig) -> Result<PassResult, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let laps = if traced || cfg.smoke { 1 } else { LAPS };
    let mut plan = if traced {
        traced_plan(workload, cfg)
    } else {
        untraced_plan(workload, cfg, laps)
    };
    if cfg.inject_child_abort {
        plan[0].args.push(("abort_after", "1".to_string()));
    }
    let pass = format!("{workload}.{}", if traced { "traced" } else { "untraced" });
    let mut result = PassResult {
        workload: workload.to_string(),
        traced,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        children: Vec::new(),
        problems: Vec::new(),
    };
    let mut layer: Vec<(String, f64)> = Vec::new();
    let outcomes = run_children(&plan, !traced, laps, cfg);
    for (spec, outcome) in plan.iter().zip(outcomes) {
        match &outcome.report {
            Some(report) => {
                // Kept beside the results: the samples behind every number.
                let path = cfg.out.join(format!("child.{pass}.{}.json", spec.label));
                std::fs::write(&path, report.compact())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                result.attempted += report.num("attempted").unwrap_or(0.0) as u64;
                let failed = report.num("failed").unwrap_or(0.0) as u64;
                result.failed += failed;
                if failed > 0 {
                    result
                        .problems
                        .push(format!("child {}: {failed} wrong outputs", spec.label));
                }
                if report.get("ok").and_then(Json::as_bool) != Some(true) {
                    result.attempted += spec.planned_ops;
                    result.failed += spec.planned_ops;
                    result.problems.push(format!(
                        "child {}: {}",
                        spec.label,
                        report
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("failed")
                    ));
                }
                if let Some(values) = report.get("layer") {
                    for (name, v) in values.fields() {
                        if spec.take.keeps(name) {
                            layer.push((name.clone(), v.as_f64().unwrap_or(f64::NAN)));
                        }
                    }
                }
            }
            None => {
                result.attempted += spec.planned_ops;
                result.failed += spec.planned_ops;
                result.problems.push(format!(
                    "child {} lost ({}): {} planned operations failed",
                    spec.label, outcome.status, spec.planned_ops
                ));
            }
        }
        result.children.push(outcome);
    }
    if traced {
        per_layer_metrics(&mut result, &layer);
        write_trace(&result, cfg)?;
    } else {
        end_to_end_metrics(&mut result, cfg);
    }
    Ok(result)
}

fn child_report<'a>(result: &'a PassResult, label: &str) -> Option<&'a Json> {
    result
        .children
        .iter()
        .find(|c| c.label == label)
        .and_then(|c| c.report.as_ref())
}

fn end_to_end_metrics(result: &mut PassResult, cfg: &RunConfig) {
    let (metrics, missing) = measure_end_to_end(result, cfg);
    result.metrics = metrics;
    result.problems.extend(missing);
}

fn measure_end_to_end(result: &PassResult, cfg: &RunConfig) -> (Vec<Metric>, Vec<String>) {
    let sizes = Sizes::get(cfg.smoke);
    let samples = |label: &str, key: &str| -> Vec<f64> {
        child_report(result, label)
            .and_then(|r| r.get("samples"))
            .map(|s| s.nums(key))
            .unwrap_or_default()
    };
    let over_children = |key: &str| -> Vec<f64> {
        result
            .children
            .iter()
            .filter_map(|c| c.report.as_ref()?.num(key))
            .collect()
    };
    let value_of = |label: &str, key: &str| -> Option<f64> {
        child_report(result, label)?.get("values")?.num(key)
    };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for def in plan::end_to_end() {
        // Children compute the values (`Session::finish` in child.rs); the
        // samples behind them give the spread `--compare` judges by.
        let (value, stats) = match def.name.as_str() {
            "ingress_ff_tasks_per_s" => {
                let rates: Vec<f64> = samples("signal", "ff_round_ms")
                    .iter()
                    .map(|ms| sizes.ff_tasks as f64 / (ms / 1e3))
                    .collect();
                (value_of("signal", "ff_tasks_per_s"), stats_of(&rates))
            }
            "ingress_wake_p50_us" => (value_of("signal", "wake_p50_us"), None),
            "setup_s" => {
                let s = over_children("setup_s");
                (stats_of(&s).map(|s| s.median), stats_of(&s))
            }
            "peak_rss_mb" => {
                let s = over_children("rss_rounds_mb");
                (s.iter().copied().reduce(f64::max), stats_of(&s))
            }
            name => {
                let comp = name.strip_prefix("round_ms.").unwrap_or(name);
                (
                    value_of(comp, "round_ms"),
                    stats_of(&samples(comp, "round_ms")),
                )
            }
        };
        if value.is_none() {
            missing.push(format!("metric {} not measured", def.name));
        }
        metrics.push(Metric {
            def,
            value: value.unwrap_or(0.0),
            stats,
        });
    }
    (metrics, missing)
}

fn per_layer_metrics(result: &mut PassResult, layer: &[(String, f64)]) {
    for def in plan::per_layer() {
        let value = layer
            .iter()
            .find(|(name, v)| *name == def.name && v.is_finite())
            .map(|&(_, v)| v);
        if value.is_none() {
            result
                .problems
                .push(format!("metric {} not measured", def.name));
        }
        result.metrics.push(Metric {
            def,
            value: value.unwrap_or(0.0),
            stats: None,
        });
    }
}

/// Path of a workload's trace file under `out`.
pub fn trace_path(out: &Path, workload: &str) -> PathBuf {
    out.join(format!("trace.{workload}.json"))
}

/// Write `trace.<workload>.json`: every child's spans, and per child the
/// self time of each span name over the timed rounds.
fn write_trace(result: &PassResult, cfg: &RunConfig) -> Result<(), String> {
    let mut children = Vec::new();
    let mut total = std::collections::BTreeMap::<String, f64>::new();
    for c in &result.children {
        let Some(spans_json) = c.report.as_ref().and_then(|r| r.get("spans")) else {
            continue;
        };
        let spans: Vec<Span> = span::spans_from_json(spans_json);
        let mut self_ms = Json::obj();
        for (name, ms) in span::self_time_ms(&spans) {
            self_ms.set(&name, ms);
            // The selected workload's own children only: the sections and
            // the pbbs layer children measure other things.
            if !c.label.contains('.') {
                *total.entry(name).or_insert(0.0) += ms;
            }
        }
        let mut o = Json::obj();
        o.set("child", c.label.as_str())
            .set("self_time_ms", self_ms)
            .set("spans", spans_json.clone());
        children.push(o);
    }
    let mut total_json = Json::obj();
    for (name, ms) in &total {
        total_json.set(name, *ms);
    }
    let mut root = Json::obj();
    root.set("workload", result.workload.as_str())
        .set("seed", cfg.seed)
        .set("self_time_ms", total_json)
        .set("children", children);
    let path = trace_path(&cfg.out, &result.workload);
    std::fs::write(&path, root.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
