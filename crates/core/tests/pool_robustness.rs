//! Robustness tests for the pool lifecycle: concurrent pools, deque
//! growth, reuse after panics, and ambient-API fallbacks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lcws_core::deque::DEFAULT_DEQUE_CAPACITY;
use lcws_core::{join, par_for_grain, scope, PoolBuilder, ThreadPool, Variant};

#[test]
fn two_pools_run_concurrently_without_crosstalk() {
    // Two signal-based pools on different OS threads: SIGUSR1 traffic from
    // one must never corrupt the other (handler contexts are per-thread).
    let t1 = std::thread::spawn(|| {
        let pool = ThreadPool::new(Variant::Signal, 3);
        let mut acc = 0u64;
        for round in 0..10 {
            let sum = AtomicU64::new(0);
            pool.run(|| {
                par_for_grain(0..20_000, 32, |i| {
                    sum.fetch_add(i as u64, Ordering::Relaxed);
                });
            });
            acc += sum.load(Ordering::Relaxed) + round;
        }
        acc
    });
    let t2 = std::thread::spawn(|| {
        let pool = ThreadPool::new(Variant::SignalHalf, 3);
        let mut acc = 0u64;
        for round in 0..10 {
            let sum = AtomicU64::new(0);
            pool.run(|| {
                par_for_grain(0..20_000, 32, |i| {
                    sum.fetch_add(i as u64, Ordering::Relaxed);
                });
            });
            acc += sum.load(Ordering::Relaxed) + round;
        }
        acc
    });
    let expected: u64 = (0..20_000u64).sum();
    let expected_total = 10 * expected + 45;
    assert_eq!(t1.join().unwrap(), expected_total);
    assert_eq!(t2.join().unwrap(), expected_total);
}

/// More than one signal-channel pool per process, two alive together and
/// then a third after both are gone, at twice the cores' worth of workers.
/// 30 µs leaves outlive the exposure grace, so thieves escalate requests to
/// `SIGUSR1` while the other pool's workers come and go: a signal that
/// reached a joined or recycled thread would take the process down.
#[test]
fn signal_pools_alive_together_and_in_sequence() {
    const LEAVES: usize = 512;
    fn rounds(pool: &ThreadPool) -> u64 {
        let mut signals = 0;
        for _ in 0..20 {
            let sum = AtomicU64::new(0);
            let ((), snap) = pool.run_measured(|| {
                par_for_grain(0..LEAVES, 1, |i| {
                    let t0 = Instant::now();
                    while t0.elapsed() < Duration::from_micros(30) {
                        std::hint::spin_loop();
                    }
                    sum.fetch_add(i as u64, Ordering::Relaxed);
                })
            });
            assert_eq!(sum.into_inner(), (0..LEAVES as u64).sum::<u64>());
            signals += snap.signals_sent();
        }
        signals
    }
    let together = || std::thread::spawn(|| rounds(&ThreadPool::new(Variant::Signal, 4)));
    let (a, b) = (together(), together());
    let mut signals = a.join().unwrap() + b.join().unwrap();
    signals += rounds(&ThreadPool::new(Variant::Signal, 4));
    assert!(
        signals > 0,
        "no request outlived its grace: the signal path went unexercised"
    );
}

#[test]
fn sequential_runs_from_different_caller_threads() {
    // The pool's worker-0 role migrates with the caller.
    let pool = std::sync::Arc::new(ThreadPool::new(Variant::Signal, 2));
    for k in 0..4u64 {
        let p = std::sync::Arc::clone(&pool);
        let out = std::thread::spawn(move || p.run(move || k * 2))
            .join()
            .unwrap();
        assert_eq!(out, k * 2);
    }
}

#[test]
fn deque_growth_absorbs_spawn_bursts_without_inline_fallback() {
    // A burst of spawns well past the initial capacity: `push_bottom`
    // doubles the ring on demand, so every task is queued (and stealable)
    // and `deque_grows` records the doublings. The lone thief takes one
    // task per steal, far slower than the owner pushes, so the live extent
    // passes the initial ring.
    const SPAWNS: u64 = 4 * DEFAULT_DEQUE_CAPACITY as u64;
    let pool = PoolBuilder::new(Variant::UsLcws).threads(2).build();
    let ran = AtomicU64::new(0);
    let (_, m) = pool.run_measured(|| {
        scope(|s| {
            for _ in 0..SPAWNS {
                let ran = &ran;
                s.spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    });
    assert_eq!(
        ran.load(Ordering::Relaxed),
        SPAWNS,
        "every spawned task runs exactly once"
    );
    assert!(
        m.deque_grows() > 0,
        "{SPAWNS} eager spawns must double the initial ring: {m}"
    );
    // The pool stays fully usable afterwards.
    assert_eq!(pool.run(|| 7), 7);
}

#[test]
fn deep_unbalanced_fork_tree_grows_instead_of_degrading() {
    // A left-spine fork tree several times deeper than the initial ring:
    // every level queues its second arm, and the ring doubles under it
    // while three thieves steal from the top. The run needs a caller stack
    // big enough for the recursion depth.
    fn spine(depth: u64) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = join(|| spine(depth - 1), || 1u64);
        a + b
    }
    const DEPTH: u64 = 4 * DEFAULT_DEQUE_CAPACITY as u64;
    let t = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
            let (sum, m) = pool.run_measured(|| spine(DEPTH));
            (sum, m)
        })
        .expect("spawn deep-recursion thread");
    let (sum, m) = t.join().expect("deep fork tree must not panic");
    assert_eq!(sum, DEPTH + 1);
    assert!(
        m.deque_grows() > 0,
        "depth {DEPTH} must double the initial ring: {m}"
    );
}

#[test]
fn join_recursion_at_depth_100k_grows_the_ring() {
    // Join-spine variant: recursion depth 10^5, bounded only by the
    // caller's stack (each level holds a `join` frame). The deque itself
    // is bounded by ring growth, with the doublings recorded in metrics.
    fn tree(depth: u64) -> u64 {
        if depth == 0 {
            return 1;
        }
        // Unbalanced: one deep arm, one shallow arm per level.
        let (a, b) = join(|| tree(depth - 1), || tree(depth.min(2) - 1));
        a + b + 1
    }
    const DEPTH: u64 = 100_000;
    let t = std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(|| {
            let pool = PoolBuilder::new(Variant::UsLcws).threads(2).build();
            pool.run_measured(|| tree(DEPTH))
        })
        .expect("spawn deep-recursion thread");
    let (sum, m) = t.join().expect("pool must survive depth 10^5");
    assert!(sum > DEPTH, "tree result grows with depth: {sum}");
    assert!(
        m.deque_grows() > 0,
        "depth {DEPTH} must record ring doublings: {m}"
    );
}

#[test]
fn depth_one_million_spawns_from_capacity_4_never_overflow() {
    // Deque depth 10^6 completes. Scope spawns reach that depth without
    // deep native recursion: with a single worker the scope body queues
    // all 10^6 tasks before any is popped, so the ring must double from
    // the initial 2^13 slots to 2^20 (7 grows) while holding every queued
    // task. A second, two-thread run covers the same pressure with
    // concurrent thieves draining mid-growth.
    const SPAWNS: u64 = 1_000_000;
    for threads in [1usize, 2] {
        let pool = PoolBuilder::new(if threads == 1 {
            Variant::Ws
        } else {
            Variant::UsLcws
        })
        .threads(threads)
        .build();
        let ran = AtomicU64::new(0);
        let (_, m) = pool.run_measured(|| {
            scope(|s| {
                for _ in 0..SPAWNS {
                    let ran = &ran;
                    s.spawn(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), SPAWNS, "threads = {threads}");
        assert!(
            m.deque_grows() > 0,
            "threads = {threads}: 10^6 spawns must grow the ring: {m}"
        );
        if threads == 1 {
            // Deterministic with no thieves: depth exactly 10^6 needs
            // capacity 2^20, i.e. 7 doublings from 2^13.
            assert_eq!(m.deque_grows(), 7, "single-thread growth count: {m}");
        }
    }
}

#[test]
fn nested_scopes_and_joins_compose() {
    let pool = ThreadPool::new(Variant::SignalConservative, 4);
    let total = AtomicU64::new(0);
    pool.run(|| {
        scope(|outer| {
            for i in 0..8u64 {
                let total = &total;
                outer.spawn(move || {
                    let (a, b) = join(
                        || {
                            let mut acc = 0;
                            scope(|inner| {
                                let acc_ref = &mut acc;
                                inner.spawn(move || *acc_ref = i);
                            });
                            acc
                        },
                        || i * 10,
                    );
                    total.fetch_add(a + b, Ordering::Relaxed);
                });
            }
        });
    });
    let expected: u64 = (0..8).map(|i| i + i * 10).sum();
    assert_eq!(total.load(Ordering::Relaxed), expected);
}

#[test]
fn ambient_api_usable_without_pool_after_pool_use() {
    let pool = ThreadPool::new(Variant::Ws, 2);
    assert_eq!(pool.run(lcws_core::num_workers), 2);
    // Back outside: sequential fallback.
    assert_eq!(lcws_core::num_workers(), 1);
    let (a, b) = join(|| 1, || 2);
    assert_eq!(a + b, 3);
}

#[test]
fn variant_parse_round_trips_through_display() {
    for v in Variant::ALL {
        let s = format!("{v}");
        assert_eq!(s.parse::<Variant>().unwrap(), v);
    }
    assert!("".parse::<Variant>().is_err());
    let err = "nonsense".parse::<Variant>().unwrap_err();
    assert!(format!("{err}").contains("nonsense"));
}

#[test]
fn metrics_task_accounting_counts_forked_jobs() {
    let pool = ThreadPool::new(Variant::Signal, 2);
    let (_, m) = pool.run_measured(|| {
        par_for_grain(0..1024, 8, |_| {});
    });
    // 1024/8 = 128 leaves → 127 forks; each fork pushes one job. Every
    // pushed job is executed exactly once (inline, reclaimed, or stolen).
    assert!(m.pushes() >= 127);
    assert!(m.tasks_run() <= m.pushes());
}
