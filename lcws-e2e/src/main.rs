//! `lcws-e2e`: the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! lcws-e2e --workload W --seed N --seconds S --trace 0|1   one pass, contract line last
//! lcws-e2e --seed N [--seconds S] [--out DIR] [--smoke]     every workload, both passes
//! lcws-e2e --compare A.json B.json                          judge B against A
//! lcws-e2e --print-benchmark-json                           regenerate BENCHMARK.json
//! ```
//!
//! See README.md beside this crate for the workloads, the metrics and how to
//! read a trace file. Only default-build public functions of the workspace
//! are called; every layer is measured from outside.

mod child;
mod compare;
mod ingress;
mod json;
mod layers;
mod parent;
mod pbbs_mix;
mod plan;
mod span;
mod sys;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use parent::{PassResult, RunConfig};

const USAGE: &str = "usage: lcws-e2e [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
[--out DIR] [--smoke] [--inject-child-abort] | --compare A.json B.json | --print-benchmark-json";

/// `--key value` pairs, bare flags, and positional arguments in order (only
/// `--compare` takes any).
fn parse_args(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    const FLAGS: [&str; 5] = [
        "child",
        "smoke",
        "inject-child-abort",
        "compare",
        "print-benchmark-json",
    ];
    let mut map = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(key) if FLAGS.contains(&key) => {
                map.insert(key.to_string(), "1".to_string());
            }
            Some(key) => {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                map.insert(key.to_string(), value.clone());
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok((map, positional))
}

fn number<T: std::str::FromStr>(
    map: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: `{v}` is not a valid number")),
    }
}

/// Default output directory: beside the executable, i.e. inside the cargo
/// target directory, which is already ignored and inside the checkout.
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("e2e-out")))
        .unwrap_or_else(|| PathBuf::from("e2e-out"))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let (map, positional) = parse_args(args)?;
    if map.contains_key("child") {
        child::run(&child::ChildArgs(map), started);
        return Ok(ExitCode::SUCCESS);
    }
    if map.contains_key("print-benchmark-json") {
        print!("{}", plan::benchmark_json().pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if map.contains_key("compare") {
        let [a, b] = positional.as_slice() else {
            return Err(USAGE.to_string());
        };
        let (table, regressed, _) = compare::compare(&read_json(a)?, &read_json(b)?)?;
        print!("{table}");
        return Ok(exit_code(regressed == 0));
    }
    if !positional.is_empty() {
        return Err(USAGE.to_string());
    }

    let smoke = map.contains_key("smoke");
    let default_seconds = if smoke { 0.2 } else { plan::RUN_SECONDS as f64 };
    let seconds: f64 = number(&map, "seconds", default_seconds)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let mut cfg = RunConfig {
        seed: number(&map, "seed", 1)?,
        seconds,
        smoke,
        workers: plan::default_workers(),
        out: map.get("out").map_or_else(default_out, PathBuf::from),
        inject_child_abort: map.contains_key("inject-child-abort"),
        deadline: started,
    };
    // A pass runs ~`seconds` of measurement plus set-up; past this it is hung.
    let pass_limit = Duration::from_secs_f64(60.0 + 8.0 * seconds);

    if let Some(workload) = map.get("workload") {
        if !plan::is_workload(workload) {
            return Err(format!("unknown workload `{workload}`"));
        }
        let traced = match map.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
        };
        cfg.deadline = Instant::now() + pass_limit;
        let result = parent::run_pass(workload, traced, &cfg)?;
        print!("{}", result.table());
        println!("{}", result.contract_line());
        return Ok(exit_code(result.correct()));
    }

    // Every workload: the untraced passes first (end-to-end numbers never
    // come from a traced run), then the traced passes.
    let mut passes: Vec<PassResult> = Vec::new();
    for traced in [false, true] {
        for w in &plan::WORKLOADS {
            cfg.deadline = Instant::now() + pass_limit;
            let result = parent::run_pass(w.name, traced, &cfg)?;
            print!("{}", result.table());
            passes.push(result);
        }
    }
    let mut workloads = Json::obj();
    for w in &plan::WORKLOADS {
        let mut o = Json::obj();
        for p in passes.iter().filter(|p| p.workload == w.name) {
            let key = if p.traced { "per_layer" } else { "end_to_end" };
            o.set(key, p.to_json());
        }
        workloads.set(w.name, o);
    }
    let correct = passes.iter().all(PassResult::correct);
    let mut root = Json::obj();
    root.set("meta", sys::meta(cfg.workers))
        .set("seed", cfg.seed)
        .set("seconds", cfg.seconds)
        .set("smoke", cfg.smoke)
        .set("correct", correct)
        .set("workloads", workloads);
    let path = cfg.out.join("result.json");
    std::fs::write(&path, root.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(exit_code(correct))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lcws-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
