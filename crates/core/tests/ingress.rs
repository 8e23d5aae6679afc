//! Integration tests for external ingress: `ThreadPool::serve` windows,
//! `spawn`/`spawn_batch` + `JoinHandle`, the many-producer stress (the PR's
//! acceptance scenario), and the trace behaviour of the global injector.
//! The `Site::InjectorPush` storm lives in the chaos suite: a fault plan is
//! process-wide, and every accounting assertion here would see its fires.
//!
//! The stress dimensions default to a debug-friendly size; set
//! `LCWS_INGRESS_FULL=1` to run the full 64 producers × 10⁵ tasks
//! acceptance configuration (use a release build — see EXPERIMENTS.md).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcws_core::{PoolBuilder, ThreadPool, Variant};

fn stress_dims() -> (usize, usize) {
    if std::env::var("LCWS_INGRESS_FULL").is_ok_and(|v| v == "1") {
        (64, 100_000)
    } else {
        (8, 2_000)
    }
}

/// The acceptance scenario: many external producer threads hammer `spawn`
/// concurrently while the pool serves. Zero tasks may be lost, the
/// injector push/pop accounting must balance, and the sleeper must show
/// real wakes with a bounded spurious-wake count (parked workers are woken
/// by submissions, not by backstop polling).
///
/// Loss and accounting are asserted on every window. The wake shape depends
/// on who got the two cores while nine sibling tests share them (a helper
/// starved through its yield rungs never parks; one whose producers were
/// descheduled times out legitimately), so that claim gets repeated windows
/// up to a deadline instead of one throw of the dice.
#[test]
fn many_producer_stress_loses_nothing() {
    let (producers, per_producer) = stress_dims();
    let total = (producers * per_producer) as u64;
    for variant in [Variant::Ws, Variant::Signal] {
        let pool = Arc::new(PoolBuilder::new(variant).threads(4).build());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            pool.serve();
            let executed = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for _ in 0..producers {
                    let pool = Arc::clone(&pool);
                    let executed = Arc::clone(&executed);
                    s.spawn(move || {
                        for _ in 0..per_producer {
                            let executed = Arc::clone(&executed);
                            // Handles dropped: completion is observed
                            // through the counter and the shutdown drain.
                            drop(pool.spawn(move || {
                                executed.fetch_add(1, Ordering::Relaxed);
                            }));
                        }
                    });
                }
            });
            let snap = pool.shutdown();
            assert_eq!(
                executed.load(Ordering::Relaxed),
                total,
                "{variant}: tasks lost in the many-producer stress"
            );
            // Every submission went through the injector (no faults forced)
            // and every queued task left it through a worker's pop.
            assert_eq!(
                snap.injector_pushes(),
                total,
                "{variant}: injector push accounting broken"
            );
            assert_eq!(
                snap.injector_pops(),
                total,
                "{variant}: injector pop accounting broken"
            );
            // Wake accounting, read on the *sleeper's* side: a park ends
            // either by a delivered wake or by its backstop (counted
            // spurious). The waker-side `unparks` cannot serve here — the
            // wakers are the producer threads, which have no counters the
            // pool could collect. If anyone parked mid-stress, some park
            // must have ended by a real wake, and the spurious count must
            // stay far below one-per-task — the bound that separates "woken
            // by submissions" from "found the work by polling".
            let (parks, spurious) = (snap.parks(), snap.spurious_wakes());
            if (parks == 0 || parks > spurious) && spurious < total / 4 + 500 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{variant}: {parks} parks, {spurious} of them ended by the \
                 backstop, for {total} tasks — parked workers are \
                 backstop-polling, not being woken"
            );
        }
    }
}

#[test]
fn spawn_handle_returns_value_and_rethrows_panic() {
    let pool = ThreadPool::new(Variant::Signal, 3);
    pool.serve();
    let h = pool.spawn(|| String::from("computed on the pool"));
    assert_eq!(h.join(), "computed on the pool");
    let boom = pool.spawn(|| -> u32 { panic!("task boom") });
    let caught = panic::catch_unwind(AssertUnwindSafe(|| boom.join()));
    assert!(caught.is_err(), "join must rethrow the task panic");
    // A panicking task must not poison the window: the pool still serves.
    let after = pool.spawn(|| 7 * 6);
    assert_eq!(after.join(), 42);
    pool.shutdown();
}

#[test]
fn spawn_batch_returns_handles_in_submission_order() {
    let pool = ThreadPool::new(Variant::SignalHalf, 4);
    pool.serve();
    let handles = pool.spawn_batch((0..64u64).map(|i| move || i * i));
    let values: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();
    assert_eq!(values, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    let snap = pool.shutdown();
    assert_eq!(snap.injector_pushes(), 64);
}

/// Parked workers must wake for an external submission promptly — through
/// the eventcount wake, not only the 1ms backstop. The latency bound here
/// is deliberately loose (CI machines); the real assertion is that the
/// join completes at all while every worker is parked beforehand.
#[test]
fn external_submit_wakes_parked_workers() {
    let pool = ThreadPool::new(Variant::Ws, 4);
    // Whether 30 ms is enough for a helper to climb its ladder into a park
    // depends on how long its `yield_now` rungs take, i.e. on what else
    // wants the cores; counters only surface when a window closes. So idle
    // a window, submit, close, and look — again until helpers did park.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        pool.serve();
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        let h = pool.spawn(|| 123u32);
        assert_eq!(h.join(), 123);
        let latency = t0.elapsed();
        let snap = pool.shutdown();
        assert!(
            latency < Duration::from_secs(5),
            "external submit took {latency:?} to complete against a parked pool"
        );
        if snap.parks() > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "helpers never parked in any 30ms idle window"
        );
    }
}

/// `join` from inside a task (i.e. on a worker thread) must help run work
/// instead of blocking the worker — blocking could deadlock the very pool
/// that has to execute the joined task.
#[test]
fn worker_side_join_helps_instead_of_blocking() {
    let pool = Arc::new(ThreadPool::new(Variant::Signal, 2));
    pool.serve();
    let inner_pool = Arc::clone(&pool);
    let h = pool.spawn(move || {
        let inner = inner_pool.spawn(|| 40u64);
        inner.join() + 2
    });
    assert_eq!(h.join(), 42);
    pool.shutdown();
}

/// A worker waiting on a stolen `join` arm runs the same loop as an idle
/// helper, injector included: with both other helpers held inside stolen
/// arms, an external batch is served by the waiter. It pulls one task at a
/// time, so the rest of the batch outlives the inner wait in the injector,
/// where the enclosing `join`'s wait (or a released helper) pulls it.
#[test]
fn join_waiter_serves_the_injector() {
    fn wait(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !flag.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "the serve window is stuck");
            std::thread::yield_now();
        }
    }
    let flag = || Arc::new(AtomicBool::new(false));
    let (outer_stolen, inner_stolen, batch_started) = (flag(), flag(), flag());
    let (release_outer, release_inner, release_batch) = (flag(), flag(), flag());

    // ABP deques: thieves need no exposure from the spinning owner.
    let pool = ThreadPool::new(Variant::Ws, 4);
    pool.serve();
    let task = {
        let (outer_stolen, inner_stolen) = (outer_stolen.clone(), inner_stolen.clone());
        let (release_outer, release_inner) = (release_outer.clone(), release_inner.clone());
        pool.spawn(move || {
            lcws_core::join(
                || {
                    lcws_core::join(
                        // Holds the owner until a thief has the inner arm
                        // (and so, top first, the outer one too).
                        || wait(&inner_stolen),
                        || {
                            inner_stolen.store(true, Ordering::SeqCst);
                            wait(&release_inner);
                        },
                    )
                },
                || {
                    outer_stolen.store(true, Ordering::SeqCst);
                    wait(&release_outer);
                },
            );
        })
    };
    wait(&outer_stolen);
    wait(&inner_stolen);
    // Two helpers sit in the arms; the third waits on the inner join and is
    // the only one who can take this batch: it pulls the head and leaves
    // the rest queued.
    let batch = pool.spawn_batch((0..4).map(|i| {
        let (batch_started, release_batch) = (batch_started.clone(), release_batch.clone());
        move || {
            if i == 0 {
                batch_started.store(true, Ordering::SeqCst);
            }
            wait(&release_batch);
            if i != 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }));
    wait(&batch_started);
    // End the inner wait while the head still runs, then the head: the
    // waiter returns to the outer join with the rest still queued.
    release_inner.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(1));
    release_batch.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(1));
    release_outer.store(true, Ordering::SeqCst);
    task.join();
    batch.into_iter().for_each(|h| h.join());
    pool.shutdown();
}

/// A task that blocks must not hide the tasks submitted with it. `a` waits
/// (up to 3 s) for its batch mate `b` to start; with two idle helpers, `b`
/// starts at once — unless the worker that took `a` also took `b` into its
/// own deque, where a split-deque owner that never reaches a task boundary
/// never exposes it and no thief can ask it to (USLCWS has no signal).
#[test]
fn blocked_task_does_not_strand_its_batch_mate() {
    for variant in Variant::ALL {
        let pool = ThreadPool::new(variant, 3);
        pool.serve();
        let b_started = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&b_started);
        let a = move || {
            let deadline = Instant::now() + Duration::from_secs(3);
            while !seen.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
            seen.load(Ordering::SeqCst)
        };
        let b_flag = Arc::clone(&b_started);
        let b = move || {
            b_flag.store(true, Ordering::SeqCst);
            true
        };
        let tasks: Vec<Box<dyn FnOnce() -> bool + Send>> = vec![Box::new(a), Box::new(b)];
        let mut handles = pool.spawn_batch(tasks).into_iter();
        let saw_b = handles.next().unwrap().join();
        handles.for_each(|h| assert!(h.join()));
        pool.shutdown();
        assert!(saw_b, "{variant}: the blocked task hid its batch mate");
    }
}

#[test]
fn serve_windows_and_runs_interleave() {
    let pool = ThreadPool::new(Variant::UsLcws, 3);
    // run → serve → run → serve on the same pool.
    assert_eq!(pool.run(|| 1), 1);
    pool.serve();
    let h = pool.spawn(|| 2);
    assert_eq!(h.join(), 2);
    pool.shutdown();
    assert_eq!(pool.run(|| 3), 3);
    pool.serve();
    let handles = pool.spawn_batch((0..8).map(|i| move || i));
    assert_eq!(handles.into_iter().map(|h| h.join()).sum::<i32>(), 28);
    pool.shutdown();
}

/// A `spawn_batch` iterator that panics midway has already counted the
/// tasks it yielded into the serve window. Those tasks must still be
/// published and run: otherwise the drain waits on them forever, and so
/// does `shutdown` (and `Drop`).
#[test]
fn spawn_batch_iterator_panic_does_not_strand_the_drain() {
    let pool = Arc::new(ThreadPool::new(Variant::Signal, 3));
    pool.serve();
    let ran = Arc::new(AtomicU64::new(0));
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.spawn_batch((0..8).map(|i| {
            if i == 3 {
                panic!("the task iterator fails at 3");
            }
            let ran = Arc::clone(&ran);
            move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }
        }))
    }));
    assert!(caught.is_err(), "the iterator's panic reaches the caller");
    // Shut down on another thread, so a stranded drain fails the test
    // instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let closer = Arc::clone(&pool);
    std::thread::spawn(move || {
        let _ = tx.send(closer.shutdown());
    });
    let snap = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown is stuck on tasks the panicking iterator stranded");
    assert_eq!(snap.injector_pushes(), snap.injector_pops());
    assert_eq!(
        ran.load(Ordering::Relaxed),
        3,
        "the tasks accepted before the panic run"
    );
}

#[test]
fn spawn_outside_serve_window_panics() {
    let pool = ThreadPool::new(Variant::Ws, 2);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        drop(pool.spawn(|| ()));
    }));
    assert!(caught.is_err(), "spawn without serve() must panic");
    // The failed spawn must not corrupt the outstanding count: a full
    // serve window still opens and drains cleanly.
    pool.serve();
    let h = pool.spawn(|| 9);
    assert_eq!(h.join(), 9);
    pool.shutdown();
}

/// A task that keeps spawning while `shutdown` drains sees the window move
/// to `Draining` under it: its `spawn` panics, the panic reaches the task's
/// handle, and the rejected spawn's count is undone — so `outstanding`
/// reaches zero, `shutdown` returns, and the next window drains too.
#[test]
fn spawn_while_shutdown_drains_panics_through_the_handle() {
    let pool = Arc::new(ThreadPool::new(Variant::Signal, 3));
    pool.serve();
    let inner = Arc::clone(&pool);
    // Spawns until one is refused; the drain waits for this very task, so
    // it cannot end before the window closed on it.
    let spawner = pool.spawn(move || -> u32 {
        loop {
            drop(inner.spawn(|| ()));
            std::thread::yield_now();
        }
    });
    let snap = pool.shutdown();
    assert!(spawner.is_finished(), "shutdown returned before its drain");
    assert_eq!(snap.injector_pushes(), snap.injector_pops());
    let caught = panic::catch_unwind(AssertUnwindSafe(|| spawner.join()));
    let payload = caught.expect_err("a spawn into a draining window must panic");
    assert!(
        payload
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("requires an open serve window")),
        "the closed-window panic, through the handle"
    );
    pool.serve();
    assert_eq!(pool.spawn(|| 5).join(), 5);
    pool.shutdown();
}

/// A single-worker pool has no helpers to drain the injector: `shutdown`
/// itself must become the worker and drain inline.
#[test]
fn single_worker_pool_drains_on_shutdown() {
    let pool = ThreadPool::new(Variant::Signal, 1);
    pool.serve();
    let executed = Arc::new(AtomicU64::new(0));
    for _ in 0..100 {
        let executed = Arc::clone(&executed);
        drop(pool.spawn(move || {
            executed.fetch_add(1, Ordering::Relaxed);
        }));
    }
    let snap = pool.shutdown();
    assert_eq!(executed.load(Ordering::Relaxed), 100);
    assert_eq!(snap.injector_pushes(), 100);
}

/// Dropping a pool with an open serve window must drain it (tasks are
/// never lost), not leak the queued tasks or hang the teardown.
#[test]
fn drop_with_open_serve_window_drains() {
    let executed = Arc::new(AtomicU64::new(0));
    {
        let pool = ThreadPool::new(Variant::Ws, 3);
        pool.serve();
        for _ in 0..50 {
            let executed = Arc::clone(&executed);
            drop(pool.spawn(move || {
                executed.fetch_add(1, Ordering::Relaxed);
            }));
        }
    } // Drop runs shutdown.
    assert_eq!(executed.load(Ordering::Relaxed), 50);
}

/// The wake budget of external load, through the public counters: the
/// workers' wake attempts stay within one per submission plus half a wake
/// per pop, plus a small constant for serve/shutdown transitions. (The
/// submitter's own wakes — one per task, up to the pool size — are counted
/// on its thread, which the pool does not collect.) A puller that woke
/// peers for every task it took would blow this bound.
#[test]
fn ingress_wakes_stay_within_budget() {
    const TASKS: u64 = 2_000;
    let pool = ThreadPool::new(Variant::Ws, 4);
    pool.serve();
    let executed = Arc::new(AtomicU64::new(0));
    for _ in 0..TASKS {
        let executed = Arc::clone(&executed);
        drop(pool.spawn(move || {
            executed.fetch_add(1, Ordering::Relaxed);
        }));
    }
    let snap = pool.shutdown();
    assert_eq!(executed.load(Ordering::Relaxed), TASKS);
    let pushes = snap.injector_pushes();
    let pops = snap.injector_pops();
    assert_eq!(pushes, TASKS);
    assert_eq!(pops, TASKS);
    let wakes = snap.wake_attempts();
    assert!(
        wakes <= pushes + pops / 2 + 64,
        "wake stampede: {wakes} wake attempts for {pushes} submissions and \
         {pops} pops"
    );
}

/// With tracing on, worker-side injector pops land in the merged trace.
/// (External producers have no trace ring, so `Inject` events appear only
/// for worker-thread submissions — the pops are the ingress witness.)
#[cfg(feature = "trace")]
#[test]
fn trace_records_injector_pops() {
    use lcws_core::Event;

    let pool = ThreadPool::new(Variant::Signal, 3);
    pool.serve();
    let handles = pool.spawn_batch((0..32u32).map(|i| move || i));
    for h in handles {
        h.join();
    }
    pool.shutdown();
    let trace = pool.take_trace().expect("serve window must leave a trace");
    let pops = trace.of_kind(Event::InjectorPop).count();
    assert!(
        pops > 0,
        "no InjectorPop events in the serve-window trace ({} events total)",
        trace.events.len()
    );
}
