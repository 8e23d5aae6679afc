//! Integration tests for the composable policy layer: every sound
//! composition must run real fork-join work to the right answer, unsound
//! bundles must be rejected at pool construction, and the two new axes
//! (near-first victims, steal-half batches) must actually engage — the
//! batch axis is pinned by the `steal_batch_tasks > steals_ok` acceptance
//! criterion on a skewed workload.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lcws_core::{join, scope, Policies, PoolBuilder, StealAmount, Variant, VictimSelection};

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

/// Every named composition, plus each with near-first victims, plus the
/// sound cross-axis combinations the validator's rules single out.
fn sound_matrix() -> Vec<(String, Variant, Policies)> {
    let mut out = Vec::new();
    for v in Variant::ALL {
        let base = v.policies();
        out.push((v.to_string(), v, base));
        let mut near = base;
        near.victim = VictimSelection::NearFirst;
        out.push((format!("{v}+near-first"), v, near));
    }
    // Batch steals without Expose Half: legal, just less profitable.
    let mut p = Policies::signal();
    p.steal = StealAmount::Half;
    out.push(("signal+steal-half".into(), Variant::Signal, p));
    // ...and with it: the pairing the batch axis was built for (opt-in
    // since the named composition went back to the paper's one per CAS).
    let mut p = Policies::signal_half();
    p.steal = StealAmount::Half;
    out.push(("half+steal-half".into(), Variant::SignalHalf, p));
    // Everything at once on the conservative scheduler.
    let mut p = Policies::signal_conservative();
    p.victim = VictimSelection::NearFirst;
    p.steal = StealAmount::Half;
    out.push((
        "signal-conservative+near-first+steal-half".into(),
        Variant::SignalConservative,
        p,
    ));
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
        assert_eq!(
            policies.validate(),
            Ok(()),
            "{label}: matrix bundle unsound"
        );
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

#[test]
#[should_panic(expected = "invalid policy bundle")]
fn abp_batch_steals_are_rejected_at_build() {
    let mut p = Policies::ws();
    p.steal = StealAmount::Half;
    let _pool = PoolBuilder::new(Variant::Ws).policies(p).threads(2).build();
}

/// Near-first victim selection is not just a no-op relabelling: a
/// steal-heavy run under it must actually migrate work (steals land) and
/// still execute every task exactly once. The workload is the same skewed
/// tiny-task run the batch test uses, on the Expose Half scheduler whose
/// constant-time wholesale exposure makes steals plentiful — one-at-a-time
/// exposure bundles legitimately steal close to nothing at this task
/// granularity (§3's lost constant-time guarantee), which would make the
/// assertion meaningless there.
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
    let (_, snap) = pool.run_measured(|| {
        scope(|s| {
            for _ in 0..TASKS {
                s.spawn(|| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    busy_for(Duration::from_micros(2));
                });
            }
        });
    });
    assert_eq!(executed.load(Ordering::Relaxed), TASKS);
    assert!(
        snap.steals_ok() > 0,
        "near-first run never stole — victim order broken?"
    );
}

/// The acceptance criterion for the steal-batch axis: on a skewed workload
/// (one worker owns a long run of tiny tasks, Expose Half publishes them
/// wholesale) the batch steal must move more than one task per CAS —
/// i.e. the surplus ledger `steal_batch_tasks` must exceed the number of
/// successful steal CASes. Scheduling noise can flatten any single run, so
/// the claim gets a handful of attempts; each individual run still has to
/// execute every task exactly once.
#[test]
fn expose_half_batches_transfer_more_than_one_task_per_cas() {
    const TASKS: u64 = 3_000;
    let mut best = (0u64, 0u64);
    // Explicit opt-in: the named composition steals one task per CAS.
    let mut p = Policies::signal_half();
    p.steal = StealAmount::Half;
    for _attempt in 0..25 {
        let pool = PoolBuilder::new(Variant::SignalHalf)
            .policies(p)
            .threads(4)
            .build();
        let executed = AtomicU64::new(0);
        let (_, snap) = pool.run_measured(|| {
            scope(|s| {
                // The root spawns the whole run itself: every task lands in
                // worker 0's deque, so thieves face one deeply skewed victim.
                for _ in 0..TASKS {
                    s.spawn(|| {
                        executed.fetch_add(1, Ordering::Relaxed);
                        busy_for(Duration::from_micros(2));
                    });
                }
            });
        });
        assert_eq!(
            executed.load(Ordering::Relaxed),
            TASKS,
            "skewed batch-steal run lost or duplicated tasks"
        );
        let (batched, steals) = (snap.steal_batch_tasks(), snap.steals_ok());
        if batched > best.0 {
            best = (batched, steals);
        }
        if batched > steals && steals > 0 {
            return;
        }
    }
    panic!(
        "steal-half never beat one-task-per-CAS on the skewed workload: best run \
         moved {} surplus tasks across {} successful steals",
        best.0, best.1
    );
}
