//! Integration tests for the composable policy layer: every composition
//! must run real fork-join work to the right answer, an explicit bundle
//! must reproduce its variant, and the near-first victim axis must
//! actually engage.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lcws_core::{join, scope, worker_index, Policies, PoolBuilder, Variant, VictimSelection};

/// Deterministic fork-join reduction with enough fan-out to force steals.
fn par_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 32 {
        (lo..hi).sum()
    } else {
        let mid = lo + (hi - lo) / 2;
        let (a, b) = join(|| par_sum(lo, mid), || par_sum(mid, hi));
        a + b
    }
}

/// Burn CPU for roughly `d` (sleeping would free the core and flatten the
/// steal pressure these tests rely on).
fn busy_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        for _ in 0..200 {
            black_box(0u64);
        }
    }
}

/// Every named composition, plus each with near-first victims.
fn sound_matrix() -> Vec<(String, Variant, Policies)> {
    let mut out = Vec::new();
    for v in Variant::ALL {
        let base = v.policies();
        out.push((v.to_string(), v, base));
        let mut near = base;
        near.victim = VictimSelection::NearFirst;
        out.push((format!("{v}+near-first"), v, near));
    }
    out
}

const SUM_N: u64 = 4_096;

fn expected_sum() -> u64 {
    SUM_N * (SUM_N - 1) / 2
}

/// The matrix smoke: every sound bundle builds a pool and computes a
/// fork-join reduction correctly at a width that forces stealing.
#[test]
fn every_sound_composition_runs_fork_join_correctly() {
    for (label, variant, policies) in sound_matrix() {
        let pool = PoolBuilder::new(variant)
            .policies(policies)
            .threads(3)
            .build();
        let got = pool.run(|| par_sum(0, SUM_N));
        assert_eq!(got, expected_sum(), "{label}: wrong fork-join result");
    }
}

/// A pool built from a bare variant and one built from that variant's
/// explicit policy bundle must behave identically — same answers, and the
/// same protocol counters firing (signals for signal bundles, zero
/// exposures for ABP).
#[test]
fn explicit_policy_bundle_reproduces_the_variant() {
    for v in Variant::ALL {
        let by_variant = PoolBuilder::new(v).threads(2).build();
        let by_policies = PoolBuilder::new(v)
            .policies(v.policies())
            .threads(2)
            .build();
        let (a, snap_v) = by_variant.run_measured(|| par_sum(0, SUM_N));
        let (b, snap_p) = by_policies.run_measured(|| par_sum(0, SUM_N));
        assert_eq!(
            a, b,
            "{v}: results diverge between variant- and policy-built pools"
        );
        // Protocol counters are timing-dependent, but their *impossibility*
        // is not: a pool that must not run the exposure protocol (ABP) may
        // never record one, whichever way it was built.
        if !v.policies().uses_split_deque() {
            assert_eq!(snap_v.exposures(), 0, "{v}: ABP pool exposed work");
            assert_eq!(
                snap_p.exposures(),
                0,
                "{v}: policy-built ABP pool exposed work"
            );
        }
        if !v.policies().uses_signals() {
            assert_eq!(
                snap_v.signals_sent(),
                0,
                "{v}: signal-free pool sent signals"
            );
            assert_eq!(
                snap_p.signals_sent(),
                0,
                "{v}: policy-built signal-free pool sent signals"
            );
        }
    }
}

/// Near-first victim selection is not just a no-op relabelling: a
/// steal-heavy run under it must actually migrate work (steals land) and
/// still execute every task exactly once. The workload is a skewed
/// tiny-task run on the Expose Half scheduler, whose constant-time
/// wholesale exposure makes steals plentiful — one-at-a-time exposure
/// bundles legitimately steal close to nothing at this task granularity
/// (§3's lost constant-time guarantee), which would make the assertion
/// meaningless there.
///
/// A gate, not timing, forces the steal: after spawning, the root waits
/// without popping until some task ran off worker 0. Its signal handler
/// still serves the thieves' requests, so only a victim order that never
/// reaches worker 0 can hold the gate shut (the deadline reports that).
#[test]
fn near_first_victims_sustain_a_steal_heavy_run() {
    const TASKS: u64 = 3_000;
    let mut p = Policies::signal_half();
    p.victim = VictimSelection::NearFirst;
    let pool = PoolBuilder::new(Variant::SignalHalf)
        .policies(p)
        .threads(4)
        .build();
    let executed = AtomicU64::new(0);
    let stolen = AtomicBool::new(false);
    let (_, snap) = pool.run_measured(|| {
        scope(|s| {
            for _ in 0..TASKS {
                s.spawn(|| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if worker_index() != Some(0) {
                        stolen.store(true, Ordering::Relaxed);
                    }
                    busy_for(Duration::from_micros(2));
                });
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while !stolen.load(Ordering::Relaxed) {
                assert!(
                    Instant::now() < deadline,
                    "no task left worker 0 within 10 s — victim order broken?"
                );
                std::hint::spin_loop();
            }
        });
    });
    assert_eq!(executed.load(Ordering::Relaxed), TASKS);
    assert!(
        snap.steals_ok() > 0,
        "near-first run never stole — victim order broken?"
    );
}
