//! Mini-Figure-3 assertions: the synchronization-profile *shapes* the
//! paper reports must hold on live runs — LCWS variants execute a small
//! fraction of WS's fences and CAS ops, conservative exposure never
//! publishes a victim's last task, and WS never exposes or signals at all.

use lcws::{join, par_for_grain, scope, PoolBuilder, Snapshot, Variant};

fn profile(variant: Variant, threads: usize) -> Snapshot {
    let pool = PoolBuilder::new(variant).threads(threads).build();
    let (_, m) = pool.run_measured(|| {
        par_for_grain(0..150_000, 64, |i| {
            std::hint::black_box(i);
        });
    });
    m
}

#[test]
fn lcws_fence_ratio_is_far_below_ws() {
    // Figure 3a: USLCWS uses less than 1% of WS's fences (we allow 10%
    // headroom for the small input and single-core host).
    let ws = profile(Variant::Ws, 2);
    assert!(ws.fences() > 1_000, "WS must fence per local op: {ws}");
    for variant in [Variant::UsLcws, Variant::Signal, Variant::SignalHalf] {
        let m = profile(variant, 2);
        let ratio = m.fences() as f64 / ws.fences() as f64;
        assert!(
            ratio < 0.10,
            "{variant}: fence ratio {ratio:.4} not ≪ 1 ({m} vs ws {ws})"
        );
    }
}

#[test]
fn lcws_cas_ratio_is_below_ws() {
    // Figure 3b: USLCWS executes well under half of WS's CAS operations.
    let ws = profile(Variant::Ws, 2);
    let us = profile(Variant::UsLcws, 2);
    let ratio = us.cas() as f64 / ws.cas().max(1) as f64;
    assert!(ratio < 0.60, "CAS ratio {ratio:.3} too high ({us} vs {ws})");
}

#[test]
fn ws_never_exposes_or_signals() {
    let ws = profile(Variant::Ws, 4);
    assert_eq!(ws.exposures(), 0);
    assert_eq!(ws.signals_sent(), 0);
    assert_eq!(ws.steals_private(), 0);
}

#[test]
fn uslcws_never_signals() {
    let us = profile(Variant::UsLcws, 4);
    assert_eq!(
        us.signals_sent(),
        0,
        "user-space variant must not use signals"
    );
}

#[test]
fn exposure_accounting_is_consistent() {
    // Exposed tasks are either stolen or re-taken by the owner; the two
    // sinks can never exceed the source.
    for variant in [Variant::Signal, Variant::SignalHalf, Variant::UsLcws] {
        let m = profile(variant, 4);
        assert!(
            m.steals_ok() + m.owner_public_pops() <= m.exposures() + 1,
            "{variant}: sinks exceed exposures: {m}"
        );
    }
}

#[test]
fn single_worker_lcws_runs_nearly_synchronization_free() {
    // The limiting case of the paper's low-processor-count argument: with
    // P = 1 nothing is ever stolen, so an LCWS scheduler should execute
    // (almost) no fences and no CAS at all, while WS still pays per-op.
    let us = profile(Variant::UsLcws, 1);
    assert_eq!(
        us.fences(),
        0,
        "no thieves → no public pops → no fences: {us}"
    );
    assert_eq!(us.cas(), 0, "{us}");
    let ws = profile(Variant::Ws, 1);
    assert!(ws.fences() > 1_000, "WS pays fences even alone: {ws}");
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn single_worker_join_counts_are_exact() {
    // P = 1: every `join` pushes its right arm and pops it back, so the
    // counters are a pure function of the call tree. fib(20) makes
    // fib(21) − 1 = 10 945 joins: one task run each, two WS fences each
    // (push and pop), and no fence or CAS at all under LCWS.
    for variant in Variant::ALL {
        let pool = PoolBuilder::new(variant).threads(1).build();
        let (r, m) = pool.run_measured(|| fib(20));
        assert_eq!(r, 6765);
        assert_eq!(m.tasks_run(), 10_945, "{variant}: {m}");
        if variant == Variant::Ws {
            assert_eq!(m.fences(), 21_890, "{m}");
        } else {
            assert_eq!((m.fences(), m.cas()), (0, 0), "{variant}: {m}");
        }
    }
}

/// `(tasks_run, pushes, local_pops, wake_attempts, fences, cas)` of `m`.
fn owner_path_counts(m: &Snapshot) -> [u64; 6] {
    [
        m.tasks_run(),
        m.pushes(),
        m.local_pops(),
        m.wake_attempts(),
        m.fences(),
        m.cas(),
    ]
}

#[test]
fn single_worker_par_for_and_scope_counts_are_exact() {
    // P = 1, as above, for the other two owner paths. A grain-1 `par_for`
    // over 4 096 indices is 4 095 joins; a scope of 1 000 spawns pushes and
    // pops 1 000 heap jobs. Each push asks `wake_one` once, and the run
    // close adds one `wake_all`. WS pays two fences per task, plus one CAS
    // whenever its pop takes the last task of an era (12 in the loop's
    // call tree, 1 in the scope's); LCWS pays nothing.
    for variant in Variant::ALL {
        let pool = PoolBuilder::new(variant).threads(1).build();
        let (_, m) = pool.run_measured(|| {
            par_for_grain(0..4096, 1, |i| {
                std::hint::black_box(i);
            })
        });
        let sync = if variant == Variant::Ws {
            [8_190, 12]
        } else {
            [0, 0]
        };
        let want = [4_095, 4_095, 4_095, 4_096, sync[0], sync[1]];
        assert_eq!(owner_path_counts(&m), want, "{variant} par_for: {m}");
        let (_, m) = pool.run_measured(|| {
            scope(|s| {
                for i in 0..1_000 {
                    s.spawn(move || {
                        std::hint::black_box(i);
                    });
                }
            })
        });
        let sync = if variant == Variant::Ws {
            [2_000, 1]
        } else {
            [0, 0]
        };
        let want = [1_000, 1_000, 1_000, 1_001, sync[0], sync[1]];
        assert_eq!(owner_path_counts(&m), want, "{variant} scope: {m}");
    }
}

#[test]
fn signals_flow_only_under_signal_variants_with_thieves() {
    // With oversubscribed workers on a fine-grained loop, thieves find
    // private work and must request exposure at least occasionally. On a
    // heavily loaded single-core host worker 0 can occasionally finish
    // before any helper is scheduled, so grow the workload and retry.
    let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
    for attempt in 0..6 {
        let n = 200_000usize << attempt;
        let (_, m) = pool.run_measured(|| {
            par_for_grain(0..n, 64, |i| {
                std::hint::black_box(i);
            });
        });
        if m.steal_attempts() > 0 {
            return;
        }
    }
    panic!("thieves never attempted a steal across six growing runs");
}
