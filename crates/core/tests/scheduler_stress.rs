//! Cross-variant stress tests for the five schedulers: identical results,
//! panic containment, signal storms during long sequential tasks, and deep
//! nesting.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lcws_core::{join, par_for_grain, scope, PoolBuilder, ThreadPool, Variant};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn all_variants_compute_fib_identically() {
    for variant in Variant::ALL {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(variant, threads);
            let result = pool.run(|| fib(18));
            assert_eq!(result, 2584, "variant {variant} threads {threads}");
        }
    }
}

#[test]
fn par_for_touches_every_index_once_under_steal_pressure() {
    const N: usize = 50_000;
    for variant in Variant::ALL {
        let pool = ThreadPool::new(variant, 4);
        let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|| {
            // Tiny grain maximizes task count and steal pressure.
            par_for_grain(0..N, 8, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        let bad = hits
            .iter()
            .enumerate()
            .find(|(_, h)| h.load(Ordering::Relaxed) != 1);
        assert!(
            bad.is_none(),
            "variant {variant}: index {:?} executed {:?} times",
            bad.map(|(i, _)| i),
            bad.map(|(_, h)| h.load(Ordering::Relaxed)),
        );
    }
}

#[test]
fn nested_joins_inside_scope_spawns() {
    for variant in [Variant::Ws, Variant::Signal, Variant::SignalHalf] {
        let pool = ThreadPool::new(variant, 4);
        let total = AtomicU64::new(0);
        pool.run(|| {
            scope(|s| {
                for k in 0..32u64 {
                    let total = &total;
                    s.spawn(move || {
                        let v = fib(10) + k;
                        total.fetch_add(v, Ordering::Relaxed);
                    });
                }
            });
        });
        let expected: u64 = (0..32).map(|k| 55 + k).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected, "variant {variant}");
    }
}

#[test]
fn scope_runs_tasks_spawned_from_outside_its_pool() {
    // `Scope: Sync`, so a scope can be spawned into from a run of another
    // pool than the one that opened it, or of a pool when it was opened
    // outside any. No worker of the spawning pool drains that scope: its
    // tasks must run at the spawn, not sit on that pool's deques past the
    // scope's return, or forever while the scope's own worker waits.
    for variant in Variant::ALL {
        for threads in [1, 2] {
            let (done, ran) = mpsc::channel();
            std::thread::spawn(move || {
                let pool_a = ThreadPool::new(variant, threads);
                let pool_b = ThreadPool::new(variant, threads);
                let ran = AtomicUsize::new(0);
                let task = || {
                    ran.fetch_add(1, Ordering::Relaxed);
                };
                scope(|s| pool_b.run(|| s.spawn(task)));
                pool_a.run(|| {
                    scope(|s| {
                        std::thread::scope(|t| {
                            t.spawn(|| pool_b.run(|| s.spawn(task)));
                        })
                    })
                });
                done.send(ran.load(Ordering::Relaxed)).unwrap();
            });
            let ran = ran
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{variant} P={threads}: no scope return ({e})"));
            assert_eq!(ran, 2, "{variant} P={threads}");
        }
    }
}

#[test]
fn long_sequential_task_gets_work_exposed_mid_task() {
    // The Lace-weakness scenario from §2: a busy worker executes one long
    // sequential task while holding a private (joinable) sibling. With
    // signals, thieves must be able to get that sibling exposed and stolen
    // *during* the long task: the request they leave on the victim's flag
    // outlives its grace, so one of them escalates it to SIGUSR1.
    for variant in [
        Variant::Signal,
        Variant::SignalConservative,
        Variant::SignalHalf,
    ] {
        let pool = ThreadPool::new(variant, 4);
        // Conservative never exposes a victim's only task: its long arm
        // just runs out. The others end when the sibling ran elsewhere.
        let patience = if variant == Variant::SignalConservative {
            Duration::from_millis(30)
        } else {
            Duration::from_secs(10)
        };
        let sibling_done = AtomicBool::new(false);
        let ((sibling_won, b), metrics) = pool.run_measured(|| {
            // Let the thieves park first: one that is mid-probe at the very
            // moment of the push can get its request served by the push's
            // own poll, with no signal (about one run in fifty when they
            // spin; a parked thief only learns of the sibling from the
            // wake that follows the poll).
            std::thread::sleep(Duration::from_millis(5));
            join(
                || {
                    // Long sequential "task": no scheduler interaction,
                    // thousands of graces long unless the sibling gets run.
                    let t0 = Instant::now();
                    while !sibling_done.load(Ordering::Acquire) && t0.elapsed() < patience {
                        std::hint::spin_loop();
                    }
                    sibling_done.load(Ordering::Acquire)
                },
                || {
                    sibling_done.store(true, Ordering::Release);
                    7u64
                },
            )
        });
        assert_eq!(b, 7, "variant {variant}");
        if variant == Variant::SignalConservative {
            // Conservative is *expected* to stay silent here: the victim
            // never holds two tasks, which is precisely its notification
            // condition.
            assert_eq!(
                metrics.signals_sent(),
                0,
                "conservative must not signal single-task victims ({metrics})"
            );
            continue;
        }
        assert!(
            metrics.signals_sent() >= 1,
            "variant {variant}: idle thieves never escalated their request ({metrics})"
        );
        // Exposure stayed constant-time: the sibling did not wait for the
        // long arm's task boundary.
        assert!(
            sibling_won,
            "variant {variant}: sibling not run during the long arm ({metrics})"
        );
    }
}

/// The flood task of `lcws-e2e`'s `flood_skew`: ~0.5 µs of register work.
#[inline(never)]
fn mix(seed: u64) -> u64 {
    let mut x = (seed << 1) | 1;
    for _ in 0..400 {
        x = (x ^ (x >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    x
}

#[test]
fn short_tasks_are_asked_not_interrupted() {
    // The other regime of the request rule: a victim in sub-microsecond
    // tasks reaches its next push or pop long before a request's grace
    // runs out, so the flag serves (nearly) every steal. Before the rule
    // every signal-exposed steal cost one SIGUSR1: ≈ 1.1 signals per steal
    // on this flood, 11 450 for 10 684.
    //
    // What still sends a signal is an owner that really is away: each time
    // it is descheduled for longer than a grace while the thief runs, one
    // request rightly expires — one signal per owner time slice, whatever
    // the thief steals. `N / 64` allows for those (owner and thief
    // time-sliced on one core all round long stay far below it; signalling
    // per steal does not).
    const N: usize = 1 << 15;
    for variant in [Variant::Signal, Variant::SignalHalf] {
        let pool = ThreadPool::new(variant, 2);
        let mut slots = vec![0u64; N];
        let ((), m) = pool.run_measured(|| {
            scope(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move || *slot = mix(i as u64));
                }
            });
        });
        assert!(
            slots.iter().all(|&v| v != 0),
            "variant {variant}: a flood slot was never written"
        );
        assert!(
            m.signals_sent() <= m.steals_ok() / 4 + (N / 64) as u64,
            "variant {variant}: short tasks must be served by the flag, not by signal ({m})"
        );
    }
}

#[test]
fn panics_in_stolen_tasks_propagate_to_root() {
    for variant in Variant::ALL {
        let pool = ThreadPool::new(variant, 4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| {
                par_for_grain(0..1_000, 4, |i| {
                    if i == 777 {
                        panic!("injected failure at 777");
                    }
                });
            });
        }));
        assert!(caught.is_err(), "variant {variant} swallowed the panic");
        // Pool remains usable afterwards.
        assert_eq!(
            pool.run(|| fib(8)),
            21,
            "variant {variant} broken after panic"
        );
    }
}

#[test]
fn repeated_runs_are_stable_under_signal_storms() {
    let pool = ThreadPool::new(Variant::Signal, 8);
    for round in 0..30 {
        let n = 10_000 + round * 100;
        let sum = AtomicU64::new(0);
        pool.run(|| {
            par_for_grain(0..n, 16, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        let expected = (n as u64 - 1) * n as u64 / 2;
        assert_eq!(sum.load(Ordering::Relaxed), expected, "round {round}");
    }
}

#[test]
fn oversubscribed_pool_completes() {
    // More workers than cores (this CI host has very few): correctness and
    // termination under heavy timeslicing.
    for variant in [Variant::Ws, Variant::UsLcws, Variant::Signal] {
        let pool = ThreadPool::new(variant, 8);
        let result = pool.run(|| fib(16));
        assert_eq!(result, 987, "variant {variant}");
    }
}

#[test]
fn lcws_uses_far_fewer_fences_than_ws_on_low_parallelism() {
    // The paper's headline profile (Figure 3a): USLCWS executes < 1% of
    // WS's memory fences because local operations are synchronization-free.
    let n = 200_000;
    let work = |_: usize| {
        std::hint::black_box(0u64);
    };

    let ws = ThreadPool::new(Variant::Ws, 2);
    let (_, ws_m) = ws.run_measured(|| par_for_grain(0..n, 64, work));

    let us = ThreadPool::new(Variant::UsLcws, 2);
    let (_, us_m) = us.run_measured(|| par_for_grain(0..n, 64, work));

    assert!(
        ws_m.fences() > 1_000,
        "WS should fence per local op: {ws_m}"
    );
    let ratio = us_m.fences() as f64 / ws_m.fences() as f64;
    assert!(
        ratio < 0.10,
        "USLCWS should need far fewer fences than WS (got ratio {ratio:.4}; us={us_m}, ws={ws_m})"
    );
}

#[test]
fn deque_capacity_is_configurable() {
    let pool = PoolBuilder::new(Variant::Signal)
        .threads(2)
        .deque_capacity(1 << 16)
        .build();
    assert_eq!(pool.run(|| fib(12)), 144);
}

#[test]
fn results_flow_back_from_stolen_branches() {
    // Return values (not just side effects) must cross the steal boundary.
    let pool = ThreadPool::new(Variant::SignalHalf, 4);
    let v = pool.run(|| {
        fn build(depth: usize) -> Vec<usize> {
            if depth == 0 {
                return vec![1];
            }
            let (mut a, b) = join(|| build(depth - 1), || build(depth - 1));
            a.extend(b);
            a
        }
        build(10)
    });
    assert_eq!(v.len(), 1024);
    assert!(v.iter().all(|&x| x == 1));
}

#[test]
fn single_worker_join_panics_keep_pop_back_semantics() {
    // P = 1: nobody can steal `b`. A panic in `b` (popped back and run by
    // the owner) reaches `run`'s caller with its own payload after `a` ran;
    // a panic in `a` reclaims `b` unrun. Either way the pool stays usable.
    for variant in Variant::ALL {
        for left_panics in [false, true] {
            let pool = ThreadPool::new(variant, 1);
            let (a_ran, b_ran) = (AtomicBool::new(false), AtomicBool::new(false));
            let arm = |ran: &AtomicBool, panics: bool, msg: &'static str| {
                if panics {
                    panic!("{msg}");
                }
                ran.store(true, Ordering::Relaxed);
            };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|| {
                    join(
                        || arm(&a_ran, left_panics, "left arm failed"),
                        || arm(&b_ran, !left_panics, "right arm failed"),
                    )
                })
            }));
            let payload = caught.expect_err("the arm's panic was swallowed");
            let expected = if left_panics {
                "left arm failed"
            } else {
                "right arm failed"
            };
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(expected),
                "variant {variant}: wrong payload"
            );
            if left_panics {
                assert!(!b_ran.load(Ordering::Relaxed), "variant {variant}: `b` ran");
            } else {
                assert!(a_ran.load(Ordering::Relaxed), "variant {variant}: `a` lost");
            }
            assert_eq!(
                pool.run(|| fib(8)),
                21,
                "variant {variant} broken after panic"
            );
        }
    }
}
