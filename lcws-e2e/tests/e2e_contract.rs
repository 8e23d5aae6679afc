//! Contract test of the `lcws-e2e` binary, driven through its command line:
//! the names it reports are exactly those of `BENCHMARK.json`, a smoke run
//! emits every metric of every workload with no failed operation, the
//! scheduler counters it collects obey the theory bounds, and a child killed
//! on purpose shows up as failed operations instead of vanishing.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

fn e2e(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lcws-e2e"))
        .args(args)
        .output()
        .expect("run lcws-e2e")
}

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn committed_benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json")).expect("parse")
}

fn names(benchmark: &Json, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .expect(key)
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_plan_and_meets_the_limits() {
    let printed = e2e(&["--print-benchmark-json"]);
    assert!(printed.status.success());
    let plan = json::parse(&String::from_utf8(printed.stdout).unwrap()).unwrap();
    let committed = committed_benchmark_json();
    assert_eq!(
        plan, committed,
        "BENCHMARK.json is stale: regenerate it with `lcws-e2e --print-benchmark-json`"
    );
    let workloads = names(&committed, "workloads");
    assert_eq!(
        workloads,
        [
            "forkjoin_balanced",
            "flood_skew",
            "pbbs_mix",
            "pbbs_oversub",
            "ingress_serve"
        ]
    );
    let e2e_names = names(&committed, "end_to_end");
    let layer_names = names(&committed, "per_layer");
    assert_eq!(e2e_names.len(), 8);
    assert!(e2e_names.len() <= 16 && layer_names.len() <= 128);
    for name in workloads.iter().chain(&e2e_names).chain(&layer_names) {
        assert!(
            name.len() <= 64
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
            "bad name {name}"
        );
    }
    assert!(e2e_names.iter().any(|n| n == "setup_s"));
}

fn metric_names(pass: &Json) -> Vec<String> {
    pass.get("metrics")
        .expect("metrics")
        .fields()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn smoke_run_reports_every_metric_and_obeys_the_theory() {
    let out = out_dir("smoke");
    let run = e2e(&["--smoke", "--seed", "7", "--out", out.to_str().unwrap()]);
    assert!(
        run.status.success(),
        "smoke run failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let result = json::parse(&std::fs::read_to_string(out.join("result.json")).unwrap()).unwrap();
    let benchmark = committed_benchmark_json();
    let p = result.get("meta").unwrap().num("P").unwrap();
    for workload in names(&benchmark, "workloads") {
        let w = result
            .get("workloads")
            .unwrap()
            .get(&workload)
            .expect("workload");
        for (pass, key) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let pass = w.get(pass).expect("pass");
            assert_eq!(metric_names(pass), names(&benchmark, key), "{workload}");
            assert_eq!(pass.num("ops_failed"), Some(0.0), "{workload}");
            assert!(pass.num("ops_attempted").unwrap() >= 1.0);
            for (name, m) in pass.get("metrics").unwrap().fields() {
                let v = m.num("value");
                assert!(v.is_some_and(f64::is_finite), "{workload} {name}: {v:?}");
            }
        }
        assert!(out.join(format!("trace.{workload}.json")).is_file());
    }

    // Theory, on the smoke round of forkjoin_balanced: fib(24) then a
    // grain-1 par_for over 2^14 indices, so span n = 24 + 14. Split-deque
    // schedulers synchronise in proportion to P·T∞, not to the work
    // (Rito & Paulino); classic WS fences at least once per task; steals
    // stay within O(P·T∞) (Gu, Napier & Sun).
    let n = 24.0 + 14.0;
    let children = result
        .get("workloads")
        .unwrap()
        .get("forkjoin_balanced")
        .unwrap()
        .get("per_layer")
        .unwrap()
        .get("children")
        .unwrap();
    let counters = |label: &str| {
        children
            .items()
            .iter()
            .find(|c| c.get("label").and_then(Json::as_str) == Some(label))
            .and_then(|c| c.get("counters"))
            .unwrap_or_else(|| panic!("no counters for {label}"))
            .clone()
    };
    for sched in ["uslcws", "signal", "half"] {
        let c = counters(sched);
        let rounds = c.num("rounds").unwrap();
        assert!(c.num("tasks_run").unwrap() > 10_000.0 * rounds);
        assert!(
            c.num("fences").unwrap() <= 8.0 * p * n * rounds,
            "{sched}: {}",
            c.compact()
        );
        assert!(
            c.num("steals_ok").unwrap() <= 8.0 * p * n * rounds,
            "{sched}"
        );
    }
    let ws = counters("ws");
    assert!(ws.num("fences").unwrap() >= ws.num("tasks_run").unwrap());
    assert!(ws.num("steals_ok").unwrap() <= 8.0 * p * n * ws.num("rounds").unwrap());
}

#[test]
fn a_killed_child_counts_as_failed_operations() {
    let out = out_dir("abort");
    let run = e2e(&[
        "--smoke",
        "--workload",
        "forkjoin_balanced",
        "--trace",
        "0",
        "--inject-child-abort",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(!run.status.success(), "a lost child must fail the run");
    let stdout = String::from_utf8(run.stdout).unwrap();
    let line = json::parse(stdout.lines().last().expect("result line")).unwrap();
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    assert!(line.num("failed").unwrap() > 0.0);
    assert!(line.num("attempted").unwrap() >= line.num("failed").unwrap());
}
