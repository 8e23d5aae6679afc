//! Integration tests for the adaptive idle subsystem (spin → yield → park):
//! no lost wakeups under a sparse producer, clean teardown around parked
//! workers, and the headline claim — parking collapses the idle-iteration
//! count of workers starved by a long sequential task.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lcws_core::{scope, PoolBuilder, Variant};

/// The tests below that assert on wall-clock shapes (idle-iteration
/// ratios, spurious-wake counts, per-round latency) take this lock: two of
/// them at once on a two-core host starve each other's helpers through
/// their `yield_now` rungs and measure that instead.
fn timing_sensitive() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Burn CPU (not sleep — the worker must look busy to the scheduler) for
/// roughly `d`.
fn busy_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        for _ in 0..1_000 {
            black_box(0u64);
        }
    }
}

/// One producer drips single jobs with gaps long enough for every helper to
/// escalate through spin and yield into a park; each job must still be
/// picked up and executed. A lost wakeup would either hang the run
/// (without the timed-park backstop) or blow the generous deadline.
#[test]
fn no_lost_wakeups_with_sparse_single_job_producer() {
    const ROUNDS: u32 = 150;
    for variant in [Variant::Ws, Variant::Signal, Variant::UsLcws] {
        let pool = PoolBuilder::new(variant).threads(4).build();
        let executed = AtomicU64::new(0);
        let deadline = Instant::now() + Duration::from_secs(60);
        let (_, snap) = pool.run_measured(|| {
            for _ in 0..ROUNDS {
                scope(|s| {
                    s.spawn(|| {
                        executed.fetch_add(1, Ordering::AcqRel);
                        busy_for(Duration::from_micros(50));
                    });
                });
                // Gap: long enough for the three idle helpers to park
                // (spin + yield stages are microseconds; the park timeout
                // is 1ms).
                busy_for(Duration::from_micros(300));
                assert!(
                    Instant::now() < deadline,
                    "{variant}: sparse producer stalled — wakeup lost?"
                );
            }
        });
        assert_eq!(
            executed.load(Ordering::Acquire),
            u64::from(ROUNDS),
            "{variant}: a spawned job was dropped"
        );
        // The run must actually have exercised the park path, or this test
        // guards nothing.
        assert!(
            snap.parks() > 0,
            "{variant}: helpers never parked (ladder misconfigured?)"
        );
    }
}

/// Dropping the pool right after runs that drove workers deep into the
/// parking path must join every helper promptly (run close wakes all
/// sleepers; teardown then goes through the between-runs start condvar).
#[test]
fn teardown_joins_workers_that_were_parked() {
    for variant in Variant::ALL {
        let t0 = Instant::now();
        {
            let pool = PoolBuilder::new(variant).threads(4).build();
            // Starve three helpers for long enough that they are parked at
            // the moment the run closes.
            pool.run(|| busy_for(Duration::from_millis(20)));
        } // Drop: must not hang on a parked worker.
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "{variant}: teardown stalled"
        );
    }
}

/// The acceptance criterion for the sleeper: with a 2-worker pool running
/// one long sequential task, the starved worker climbs the idle ladder once
/// and then parks, re-polling once per timed-park backstop. Its idle
/// iterations are bounded by the ladder's own arithmetic — the rungs below
/// the park, plus one per 1 ms park with 2× slack — where a worker that
/// never parks runs hundreds of thousands (`results/idle_wakeup.txt`: 151
/// idle iterations, 71 parks). The root task *blocks* rather than burns CPU
/// so the idle worker is free to run on any machine size — on a single-core
/// box a spinning root would starve the idler and mask the busy-wait cost
/// being measured. (Run with `--nocapture` to see the numbers.)
#[test]
fn adaptive_idle_cuts_idle_iters_10x_on_sequential_task() {
    let _serial = timing_sensitive();
    const TASK_MS: u64 = 80;
    // `sleep.rs`: SPIN_ROUNDS + YIELD_ROUNDS iterations reach the park
    // rung, and every park after that lasts at most PARK_TIMEOUT = 1 ms.
    const BELOW_PARK: u64 = 64 + 16;
    let pool = PoolBuilder::new(Variant::Ws).threads(2).build();
    let (_, snap) = pool.run_measured(|| std::thread::sleep(Duration::from_millis(TASK_MS)));
    println!(
        "sequential {TASK_MS}ms, 2 workers: idle_iters={} parks={} unparks={} spurious={}",
        snap.idle_iters(),
        snap.parks(),
        snap.unparks(),
        snap.spurious_wakes(),
    );
    assert!(snap.parks() > 0, "the idler never parked");
    assert!(
        snap.idle_iters() <= BELOW_PARK + 2 * TASK_MS,
        "idle iterations beyond the ladder's bound: {}",
        snap.idle_iters()
    );
}

/// Regression (PR 8 satellite): a join waiter parked on a stolen arm used
/// to be woken by nothing but the 1ms timed-park backstop — an 80ms stolen
/// arm meant ~80 spurious timeout wakes while the joiner polled `done`.
/// Completion now delivers a targeted wake to the arm's owner (and workers
/// waiting on a completion park with the longer 50ms backstop), so the
/// spurious count collapses: the joiner eats at most a couple of backstop
/// expiries plus scheduling noise, not one per millisecond.
#[test]
fn join_completion_wake_is_targeted_not_polled() {
    let _serial = timing_sensitive();
    let pool = PoolBuilder::new(Variant::Ws).threads(2).build();
    let (_, snap) = pool.run_measured(|| {
        lcws_core::join(
            // Keep the owner busy long enough for the idle helper to steal
            // the 80ms arm, so the owner must *wait* for a thief.
            || busy_for(Duration::from_millis(5)),
            || std::thread::sleep(Duration::from_millis(80)),
        );
    });
    assert!(
        snap.parks() > 0,
        "joiner never parked while awaiting the stolen arm"
    );
    assert!(
        snap.unparks() > 0,
        "no wake was delivered — completion wake not wired?"
    );
    let spurious = snap.spurious_wakes();
    assert!(
        spurious <= 15,
        "join waiter still poll-waking: {spurious} spurious wakes across an \
         80ms stolen arm (the 1ms-backstop regime produced ~80)"
    );
}

/// Regression (PR 10's headline bugfix): `JoinHandle::join` from *inside*
/// a pool worker used to park under the plain 1ms backstop with no
/// targeted completion wake — the task's completer had nowhere to record
/// who was waiting, so a worker joining an 80ms spawned task burned ~80
/// spurious backstop expiries polling `done`. `TaskState` carries a waiter
/// slot: the joiner names itself, parks with the lazy 50ms waiter backstop,
/// and `complete` delivers a targeted `wake_worker`. The spurious count
/// across the 70ms wait collapses to scheduling noise.
#[test]
fn worker_side_handle_join_wake_is_targeted_not_polled() {
    let _serial = timing_sensitive();
    // threads(3) ⇒ two serve-mode helpers: one to sleep inside the slow
    // task, one to run the joiner. (With a single helper the two tasks
    // would serialize and the join would never wait at all.)
    let pool = std::sync::Arc::new(PoolBuilder::new(Variant::Ws).threads(3).build());
    pool.serve();
    // Land the slow task on one helper first, so the joiner runs on the
    // other and must park while it waits (rather than one helper taking
    // both while the other idles at the short backstop, polluting the
    // spurious count this test pins).
    let slow = pool.spawn(|| {
        std::thread::sleep(Duration::from_millis(80));
        40u64
    });
    std::thread::sleep(Duration::from_millis(10));
    let h = pool.spawn(move || slow.join() + 2);
    assert_eq!(h.join(), 42);
    let snap = pool.shutdown();
    assert!(
        snap.parks() > 0,
        "worker-side joiner never parked while awaiting the spawned task"
    );
    assert!(
        snap.unparks() > 0,
        "no wake was delivered — TaskState completion wake not wired?"
    );
    let spurious = snap.spurious_wakes();
    assert!(
        spurious <= 25,
        "worker-side join still poll-waking: {spurious} spurious wakes across \
         an 80ms spawned task (the untargeted 1ms-backstop regime produced ~80)"
    );
}

/// Regression: `JoinHandle::join` on a worker of *another* pool used to
/// register that worker's index in the task's waiter slot, but the
/// completer routes `wake_worker` through its own pool, so the wake went to
/// the serving pool's worker of that index (or nobody) and the joiner slept
/// out the 50 ms waiter backstop on every join. It now blocks like an
/// external thread, so each join of a 5 ms task takes about 5 ms. A batch
/// of ten with one join slowed by a neighbour gets two more tries; the bug
/// slows every join of every batch.
#[test]
fn join_from_another_pools_worker_is_woken_on_completion() {
    let _serial = timing_sensitive();
    let serving = std::sync::Arc::new(PoolBuilder::new(Variant::Signal).threads(2).build());
    serving.serve();
    for variant in Variant::ALL {
        let pool = PoolBuilder::new(variant).threads(2).build();
        let batch = || -> Vec<Duration> {
            pool.run(|| {
                (0..10)
                    .map(|_| {
                        let h = serving.spawn(|| std::thread::sleep(Duration::from_millis(5)));
                        let t0 = Instant::now();
                        h.join();
                        t0.elapsed()
                    })
                    .collect()
            })
        };
        let mut seen = Vec::new();
        for _attempt in 0..3 {
            let joins = batch();
            if joins.iter().all(|&d| d < Duration::from_millis(25)) {
                break;
            }
            seen.push(joins);
        }
        assert!(
            seen.len() < 3,
            "{variant}: cross-pool joins of a 5 ms task took {seen:?}"
        );
    }
    serving.shutdown();
}

/// Regression (lost completion wake): a thief used to publish a stolen
/// `join` arm's `done` with a Release store and then look for the owner in
/// the sleeper mask — store-buffering, so the store could still be in flight
/// when the mask read missed an owner who was just then announcing itself
/// and rechecking `done`. Both sides missed, and the owner slept out its
/// whole 50 ms waiter backstop: PBBS rounds under `uslcws` came in steps of
/// exactly 50 ms. Completion is now a SeqCst publish followed by the wake,
/// against the waiter's SeqCst announce followed by a SeqCst recheck.
///
/// Each round hands the second arm to the other worker and sizes it so the
/// owner has climbed to `IdleAction::Park` by the time it finishes, with
/// private work left in the thief's deque until the very end — under USLCWS
/// that keeps the owner cycling announce → recheck → abort, so completion
/// keeps landing inside that window. A lost wake shows as one round taking
/// a backstop instead of a few hundred microseconds, and as a timeout
/// counted in `SpuriousWake`. The scope drain and the worker-side
/// `JoinHandle::join` wait through the same loop and are further inputs.
///
/// The window is a property of optimized code: with the old protocol one
/// round in a hundred stalled under `cargo test --release`, about one in
/// 15 000 in a debug build (whose spills keep the store buffer too full for
/// the mask read to overtake the `done` store). CI runs this in release.
#[test]
fn completion_wakes_are_never_lost() {
    let _serial = timing_sensitive();
    const ROUNDS: usize = 3_000;
    // Half the waiter backstop: far above a round (~0.4 ms), far below a
    // slept-out backstop.
    const STALL: Duration = Duration::from_millis(25);
    let us = Duration::from_micros;
    // The arm the waiter does *not* run: an inner join keeps one private
    // task in the executor's deque while the long half runs.
    let longer = move || {
        lcws_core::join(|| busy_for(us(250)), || ());
    };
    // What the waiter does first: the inner join is the task boundary at
    // which a USLCWS owner serves the thief's exposure request, and its
    // second half gives the thief time to take what was exposed.
    let short = move || {
        lcws_core::join(|| busy_for(us(20)), || busy_for(us(80)));
    };
    // `batch` runs ROUNDS rounds and returns the slowest one with the
    // batch's counters. A lost wake recurs in every batch (dozens of rounds
    // each); a neighbour taking the core for 25 ms does not, so a batch
    // that shows a stall gets two more tries before it counts.
    let check = |shape: &str, batch: &dyn Fn() -> (Duration, lcws_core::Snapshot)| {
        let mut seen = Vec::new();
        for _attempt in 0..3 {
            let (worst, snap) = batch();
            assert!(
                snap.parks() > 0,
                "{shape}: no waiter ever parked — the shape guards nothing"
            );
            let spurious = snap.spurious_wakes();
            if worst < STALL && spurious <= 30 {
                return;
            }
            seen.push((worst, spurious));
        }
        panic!(
            "{shape}: completion wakes are being lost — (slowest round, parks \
             ended by their backstop) over three batches of {ROUNDS} \
             sub-millisecond waits: {seen:?}"
        );
    };
    let timed = |round: &dyn Fn()| {
        let mut worst = Duration::ZERO;
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            round();
            worst = worst.max(t0.elapsed());
        }
        worst
    };

    let pool = PoolBuilder::new(Variant::UsLcws).threads(2).build();
    check("join", &|| {
        pool.run_measured(|| {
            timed(&|| {
                lcws_core::join(short, longer);
            })
        })
    });
    check("scope drain", &|| {
        pool.run_measured(|| {
            timed(&|| {
                scope(|s| {
                    s.spawn(longer);
                    short();
                })
            })
        })
    });
    // A serve window runs on helpers only: three workers give the joiner a
    // peer to wait for.
    let pool = std::sync::Arc::new(PoolBuilder::new(Variant::UsLcws).threads(3).build());
    check("handle join", &|| {
        pool.serve();
        let worst = timed(&|| {
            let inner_pool = std::sync::Arc::clone(&pool);
            pool.spawn(move || {
                let h = inner_pool.spawn(move || busy_for(us(250)));
                busy_for(us(100));
                h.join()
            })
            .join()
        });
        (worst, pool.shutdown())
    });
}

/// Regression: a thief whose park is aborted because work is *visible* but
/// not stealable (a USLCWS victim inside a long task holds only private
/// work, and serves requests at task granularity) used to stay on the
/// `Park` rung and re-announce on every iteration — two SeqCst RMWs on the
/// sleeper mask per idle iteration, and every `wake_one` of a pushing
/// owner found the bit set and spent an epoch bump and a slot lock on a
/// worker that was not asleep: hundreds of `Unpark`s per round with zero
/// parks. An aborted park now drops below the `Park` rung
/// (`IdleBackoff::park_aborted`; the exact announce count is pinned by
/// `sleep::tests::aborted_park_reenters_the_ladder_below_the_park_rung`).
#[test]
fn visible_private_work_neither_parks_nor_churns_the_sleeper_set() {
    let _serial = timing_sensitive();
    let pool = PoolBuilder::new(Variant::UsLcws).threads(2).build();

    // (a) The long task: eight private tasks, then 20 ms without a task
    // boundary. The thief must stay awake for them (no park while work is
    // visible) and take its share once the boundary comes. Its counters
    // are read on its own thread, from inside the tasks it stole — zeroed
    // by the first, flushed by each later one — so the honest parks of the
    // run's head (nothing pushed yet) and tail (everything taken, the
    // generation not closed yet) stay outside: from the first stolen task
    // to the last, the victim's deque is never empty (it only pops once
    // the scope body is over).
    let window = lcws_metrics::Collector::new();
    let thief_awake = AtomicBool::new(false);
    let stolen = AtomicU64::new(0);
    pool.run(|| {
        let owner = std::thread::current().id();
        let note_if_stolen = || {
            if std::thread::current().id() != owner {
                stolen.fetch_add(1, Ordering::AcqRel);
                lcws_metrics::flush_into(&window);
            }
        };
        scope(|s| {
            // Pushes serve requests oldest task first: only the thief can
            // run this one, and it keeps the thief busy while the siblings
            // below are pushed — all eight private when the window opens.
            s.spawn(|| {
                lcws_metrics::reset_local();
                thief_awake.store(true, Ordering::Release);
                busy_for(Duration::from_millis(2));
            });
            while !thief_awake.load(Ordering::Acquire) {
                s.spawn(note_if_stolen);
            }
            for _ in 0..8 {
                s.spawn(|| {
                    busy_for(Duration::from_micros(200));
                    note_if_stolen();
                });
            }
            busy_for(Duration::from_millis(20));
            // The task boundary, held open until the thief has used it (on
            // a busy box it may not be running just now): every push serves
            // its request.
            let t0 = Instant::now();
            while stolen.load(Ordering::Acquire) == 0 && t0.elapsed() < Duration::from_secs(10) {
                s.spawn(note_if_stolen);
            }
        });
    });
    let thief = window.snapshot();
    assert!(
        stolen.load(Ordering::Acquire) >= 1,
        "the thief never stole after the task boundary ({thief})"
    );
    assert_eq!(
        thief.parks(),
        0,
        "a thief parked while the victim held work ({thief})"
    );

    // (b) The pushing owner: one deque floods 2^15 sub-microsecond tasks,
    // a `wake_one` per push. The thief is fed all along, so nobody sleeps
    // and (nearly) no wake should find anyone to deliver to.
    let slots: Vec<AtomicU64> = (0..1 << 15).map(|_| AtomicU64::new(0)).collect();
    let (_, snap) = pool.run_measured(|| {
        scope(|s| {
            for slot in &slots {
                s.spawn(move || {
                    slot.store(black_box(1), Ordering::Relaxed);
                });
            }
        });
    });
    assert!(slots.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    assert!(
        snap.unparks() <= 32 + 2 * snap.parks(),
        "wakes delivered to workers that were not asleep ({snap})"
    );
}

/// Parks must not perturb correctness-critical accounting: a run that
/// parks still executes every task exactly once.
#[test]
fn parked_pool_preserves_task_accounting() {
    let pool = PoolBuilder::new(Variant::Signal).threads(3).build();
    for _ in 0..20 {
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(|| {
            scope(|s| {
                for h in &hits {
                    s.spawn(move || {
                        h.fetch_add(1, Ordering::AcqRel);
                    });
                }
            });
        });
        // Let helpers park between runs' work bursts.
        busy_for(Duration::from_micros(200));
        assert!(hits.iter().all(|h| h.load(Ordering::Acquire) == 1));
    }
}
