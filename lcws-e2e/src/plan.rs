//! The benchmark's fixed vocabulary: workloads, scheduler compositions,
//! metric names with unit, direction and bound, and input sizes.
//!
//! `BENCHMARK.json` at the repo root is this module printed
//! (`lcws-e2e --print-benchmark-json`); `tests/e2e_contract.rs` fails when
//! the two drift apart.

use lcws_core::{Policies, StealAmount, Variant, VictimSelection};

use crate::json::Json;
use crate::pbbs_mix::KERNELS;

/// Seconds one contract-mode run measures for (`run_seconds`): with set-up
/// an untraced run takes 22–26 s of wall time here and a traced one ~30 s,
/// which keeps the driver's 114 runs and two builds inside its 3420 s.
pub const RUN_SECONDS: u64 = 16;

/// The four schedulers every workload runs under, in child order.
pub const SCHEDS: [&str; 4] = ["ws", "uslcws", "signal", "half"];

/// A workload and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether the seed changes the inputs (and not just arrival jitter or
    /// slot values): results from different seeds are then not comparable.
    pub seeded_inputs: bool,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "forkjoin_balanced",
        why: "fib(32) via join then par_for over 2^22 indices at grain 1: ~7.7M near-empty tasks, a few dozen steals, so the owner path (deque push/pop, job, api) does all the work",
        seeded_inputs: false,
    },
    WorkloadDef {
        name: "flood_skew",
        why: "one scope spawns 2^17 sub-microsecond tasks from a single deque, so every other worker lives off notify, expose and steal: the thief side of the same layers",
        seeded_inputs: false,
    },
    WorkloadDef {
        name: "pbbs_mix",
        why: "eight PBBS kernels at registry sizes, five coarse and three irregular graph ones: Parlay/PBBS time dominates, and a scheduler change should not move the coarse five",
        seeded_inputs: true,
    },
    WorkloadDef {
        name: "pbbs_oversub",
        why: "the pbbs_mix inputs on twice as many workers as cores: descheduled task holders and idle spinners make idle policy and the notify channel matter",
        seeded_inputs: true,
    },
    WorkloadDef {
        name: "ingress_serve",
        why: "a serve() window fed by one external producer, closed loop at saturation and open loop with sparse Poisson arrivals: injector and sleep layers, no fork-join",
        seeded_inputs: false,
    },
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// Scheduler composition by name: the four `SCHEDS`, the two policy
/// compositions the traced pass adds (`cons`, `half_near_first`), and
/// `half_batch`, which no pass runs (see below).
///
/// `half` is the paper's Expose Half (§4.1.2): signal-driven exposure of
/// `round(r/2)` tasks, stolen one at a time. `Variant::SignalHalf`'s own
/// bundle additionally steals in batches, and that pairing executed a task
/// twice in 2 of ~90 `pbbs_oversub` children while this benchmark was being
/// written (README.md, "Known failures"), so it cannot sit in a run that must
/// never fail; `half_batch` names it for reproducing the failure by hand.
pub fn composition(name: &str) -> Option<(Variant, Policies)> {
    let variant = match name {
        "ws" => Variant::Ws,
        "uslcws" => Variant::UsLcws,
        "signal" => Variant::Signal,
        "half" | "half_near_first" | "half_batch" => Variant::SignalHalf,
        "cons" => Variant::SignalConservative,
        _ => return None,
    };
    let mut policies = variant.policies();
    if name != "half_batch" {
        policies.steal = StealAmount::One;
    }
    if name == "half_near_first" {
        policies.victim = VictimSelection::NearFirst;
    }
    Some((variant, policies))
}

/// `P = min(nproc, 4)`, and at least 2: a serve window on a one-worker pool
/// has no helper to run anything.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 4)
}

/// Worker count of a workload's pools given `P`.
pub fn workers_for(workload: &str, p: usize) -> usize {
    if workload == "pbbs_oversub" {
        2 * p
    } else {
        p
    }
}

/// Input sizes. They set the regime each workload is in, so the full sizes
/// are constants; `--smoke` shrinks them only to test the harness itself.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub fib_n: u32,
    pub par_for_n: usize,
    pub flood_tasks: usize,
    pub flood_iters: u32,
    pub pbbs_scale: f64,
    pub ff_tasks: usize,
    /// Open-loop Poisson arrival rate, tasks per second.
    pub open_rate: f64,
    /// Arrival rate of the traced pass's busy open loop.
    pub busy_rate: f64,
    pub parlay_n: usize,
    pub deque_ops: usize,
    pub api_fib_n: u32,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        fib_n: 32,
        par_for_n: 1 << 22,
        flood_tasks: 1 << 17,
        flood_iters: 400,
        pbbs_scale: 1.0,
        ff_tasks: 300_000,
        open_rate: 2_000.0,
        busy_rate: 200_000.0,
        parlay_n: 1 << 22,
        deque_ops: 1_000_000,
        api_fib_n: 27,
    };

    /// fib(24) is the size the contract test asserts the theory bounds on.
    pub const SMOKE: Sizes = Sizes {
        fib_n: 24,
        par_for_n: 1 << 14,
        flood_tasks: 1 << 12,
        flood_iters: 400,
        pbbs_scale: 0.01,
        ff_tasks: 5_000,
        open_rate: 2_000.0,
        busy_rate: 200_000.0,
        parlay_n: 1 << 14,
        deque_ops: 20_000,
        api_fib_n: 18,
    };

    pub fn get(smoke: bool) -> Sizes {
        if smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The eight end-to-end metrics. Every workload reports all of them (see
/// README.md, "End-to-end metrics").
///
/// The bounds are what this host can resolve, not what one would wish for:
/// ten runs of one commit spread (interquartile range over median) by 2–9 %
/// on most timings and by up to 17 % on the flood's and the closed loop's,
/// because the host's speed moves in steps of ±12 % that last seconds and two
/// of the workloads sit in one of two regimes for seconds at a time
/// (README.md, "How steady the numbers are").
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("round_ms.ws", "ms", Better::Lower, 0.25),
        bounded("round_ms.uslcws", "ms", Better::Lower, 0.25),
        bounded("round_ms.signal", "ms", Better::Lower, 0.25),
        bounded("round_ms.half", "ms", Better::Lower, 0.25),
        bounded("ingress_ff_tasks_per_s", "tasks/s", Better::Higher, 0.25),
        bounded("ingress_wake_p50_us", "us", Better::Lower, 0.25),
        bounded("setup_s", "s", Better::Lower, 0.25),
        bounded("peak_rss_mb", "MB", Better::Lower, 0.10),
    ]
}

/// The per-layer metrics of the traced pass, grouped by layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for name in [
        "split_push_pop_ns",
        "abp_push_pop_ns",
        "cl_push_pop_ns",
        "split_grow_push_pop_ns",
        "abp_grow_push_pop_ns",
        "split_expose_steal_ns",
        "split_expose_half_batch_steal_ns",
        "abp_steal_ns",
        "cl_steal_ns",
    ] {
        out.push(def(format!("core.deque.{name}"), "ns", Lower));
    }
    for name in [
        "split_fences_per_pop",
        "abp_fences_per_pop",
        "split_cas_per_steal",
        "abp_cas_per_steal",
    ] {
        out.push(def(format!("core.deque.{name}"), "count", Lower));
    }
    for s in SCHEDS {
        out.push(def(format!("core.api.join_ns.{s}"), "ns", Lower));
        out.push(def(format!("core.api.scope_spawn_ns.{s}"), "ns", Lower));
        out.push(def(format!("core.api.par_for_iter_ns.{s}"), "ns", Lower));
        out.push(def(format!("core.api.t1_over_ts.{s}"), "ratio", Lower));
    }
    for s in SCHEDS {
        out.push(def(
            format!("core.worker.fences_per_ktask.{s}"),
            "count",
            Lower,
        ));
        out.push(def(
            format!("core.worker.cas_per_ktask.{s}"),
            "count",
            Lower,
        ));
        out.push(def(
            format!("core.worker.steals_per_ktask.{s}"),
            "count",
            Lower,
        ));
        out.push(def(
            format!("core.worker.steal_success_ratio.{s}"),
            "ratio",
            Higher,
        ));
        out.push(def(format!("core.worker.us_per_steal.{s}"), "us", Lower));
        out.push(def(
            format!("core.worker.idle_iters_per_ktask.{s}"),
            "count",
            Lower,
        ));
        out.push(def(format!("core.sleep.cpu_s_per_round.{s}"), "s", Lower));
        out.push(def(
            format!("core.sleep.stalled_ops_ratio.{s}"),
            "ratio",
            Lower,
        ));
        out.push(def(format!("core.pool.run_empty_us.{s}"), "us", Lower));
    }
    for s in ["uslcws", "signal", "half"] {
        out.push(def(
            format!("core.worker.unstolen_exposure_ratio.{s}"),
            "ratio",
            Lower,
        ));
    }
    out.push(def("core.worker.oversub_round_ms.uslcws", "ms", Lower));
    out.push(def("core.policy.cons_round_ms", "ms", Lower));
    out.push(def("core.policy.half_near_first_round_ms", "ms", Lower));
    for name in ["build_ms", "drop_ms"] {
        out.push(def(format!("core.pool.{name}"), "ms", Lower));
    }
    for name in ["serve_us", "shutdown_idle_us"] {
        out.push(def(format!("core.pool.{name}"), "us", Lower));
    }
    out.push(def("core.injector.spawn_call_ns", "ns", Lower));
    out.push(def("core.injector.batch_tasks_per_s", "tasks/s", Higher));
    out.push(def("core.injector.ff_tasks_per_s.ws", "tasks/s", Higher));
    for name in [
        "core.injector.rtt_p50_us",
        "core.injector.rtt_p99_us",
        "core.injector.busy_wait_p50_us",
        "core.injector.busy_wait_p99_us",
        "core.sleep.wake_p90_us",
        "core.sleep.wake_p99_us",
        "core.sleep.wake_p999_us",
        "core.sleep.wake_p50_us.ws",
        "bench.gen_late_p99_us",
    ] {
        out.push(def(name, "us", Lower));
    }
    out.push(def("core.sleep.parks_per_ktask", "count", Lower));
    out.push(def("core.sleep.wake_attempts_per_unpark", "count", Lower));
    out.push(def("metrics.run_measured_overhead_ratio", "ratio", Lower));
    out.push(def("bench.trace_overhead_ratio", "ratio", Lower));
    for name in [
        "tabulate",
        "map",
        "reduce",
        "scan",
        "filter",
        "pack_index",
        "flatten",
    ] {
        out.push(def(
            format!("parlay.primitives.{name}_melem_s"),
            "Melem/s",
            Higher,
        ));
    }
    for name in ["sort", "sample_sort", "integer_sort"] {
        out.push(def(
            format!("parlay.sort.{name}_melem_s"),
            "Melem/s",
            Higher,
        ));
    }
    out.push(def("parlay.hashtable.insert_mops", "Mops/s", Higher));
    out.push(def("parlay.speculative.iters_mops", "Mops/s", Higher));
    out.push(def("parlay.selection.kth_melem_s", "Melem/s", Higher));
    for kernel in KERNELS {
        for s in ["ws", "signal"] {
            out.push(def(format!("pbbs.{kernel}_ms.{s}"), "ms", Lower));
        }
    }
    out.push(def("pbbs.gen_ms", "ms", Lower));
    out
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDef| {
        let mut o = Json::obj();
        o.set("name", m.name.as_str())
            .set("unit", m.unit)
            .set("better", m.better.as_str());
        if let Some(b) = m.bound {
            o.set("bound", b);
        }
        o
    };
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "lcws-e2e/Cargo.toml",
        "--",
    ]
    .iter()
    .map(|&s| Json::from(s))
    .collect();
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = Json::obj();
            o.set("name", w.name).set("why", w.why);
            o
        })
        .collect();
    let mut root = Json::obj();
    root.set("command", command)
        .set("paths", vec![Json::from("lcws-e2e")])
        .set("run_seconds", RUN_SECONDS)
        .set("workloads", workloads)
        .set(
            "end_to_end",
            end_to_end().iter().map(metric).collect::<Vec<_>>(),
        )
        .set(
            "per_layer",
            per_layer().iter().map(metric).collect::<Vec<_>>(),
        );
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16);
            assert!(m.unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(layers.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn compositions_are_sound() {
        for name in SCHEDS
            .iter()
            .chain(&["cons", "half_near_first", "half_batch"])
        {
            let (_, p) = composition(name).expect(name);
            p.validate().expect(name);
        }
        assert!(composition("bogus").is_none());
    }
}
