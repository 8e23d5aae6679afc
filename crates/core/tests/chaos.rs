//! Chaos suite: scheduler correctness under an armed `FaultPlan`
//! (`--features faultpoints`; see `lcws_core::fault`).
//!
//! Every test here runs a real workload while a seeded plan perturbs or
//! fails the synchronization-critical transitions, and then checks the
//! *result* — the paper's correctness argument must hold under the forced
//! interleavings, not just the lucky ones. Failures are replayable: the
//! plan seed fully determines each site's fire pattern (EXPERIMENTS.md,
//! "Reproducing a chaos run").
//!
//! Plans are process-global, so the whole suite serializes on [`CHAOS`].

#![cfg(feature = "faultpoints")]

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use lcws_core::fault::{install, FaultPlan, Site, SiteAction};
use lcws_core::{join, par_for_grain, scope, PoolBuilder, Variant};

/// One plan at a time, process-wide.
static CHAOS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock just means an earlier chaos test failed; the plan
    // guard has dropped, so later tests can still run.
    CHAOS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` on a fresh big-stack thread, failing the test if it neither
/// completes nor panics within `secs` (chaos deadlocks must not hang CI).
fn run_with_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::Builder::new()
        .name("chaos-driver".into())
        .stack_size(64 << 20)
        .spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        })
        .expect("spawn chaos driver");
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(result) => {
            t.join().expect("chaos driver thread");
            match result {
                Ok(v) => v,
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        Err(_) => panic!("chaos run exceeded {secs}s — likely deadlock under the fault plan"),
    }
}

/// Burn CPU for roughly `d` with no scheduler interaction: a task long
/// enough for a thief's exposure request to outlive its grace, which is
/// when `pthread_kill` is attempted at all (short tasks are served by the
/// flag; `scheduler_stress::short_tasks_are_asked_not_interrupted`).
fn long_task(d: Duration) {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Acceptance case from the fault-injection issue: with *every*
/// `pthread_kill` forced to fail, a signal-variant pool must still finish a
/// 2^16-task fork-join tree — each failed send leaves the request on the
/// flag the victim polls, USLCWS-style.
#[test]
fn forced_signal_failure_storm_completes_via_flag_fallback() {
    let _g = lock();
    let guard =
        install(FaultPlan::new(0xBAD_516).with(Site::SignalSend, SiteAction::fail_always()));
    let (sum, m) = run_with_timeout(60, || {
        let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
        let sum = AtomicU64::new(0);
        let (_, m) = pool.run_measured(|| {
            // The root sits in a long task holding the whole tree as one
            // private arm: three idle thieves ask, wait out the grace, and
            // escalate into the failing send. Then 2^16 leaves at grain 1:
            // maximal forking pressure on the flag path that is left.
            join(
                || long_task(Duration::from_millis(20)),
                || {
                    par_for_grain(0..1 << 16, 1, |i| {
                        sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                    })
                },
            );
        });
        (sum.into_inner(), m)
    });
    let n = 1u64 << 16;
    assert_eq!(
        sum,
        n * (n + 1) / 2,
        "fork-join tree lost work under signal failure"
    );
    assert!(
        guard.fires(Site::SignalSend) > 0,
        "idle thieves beside a 20 ms task must attempt a notification"
    );
    // Every send failed: nothing was delivered, every attempt is accounted
    // as a failure, and every failure left its request flagged, not dropped.
    assert_eq!(
        m.signals_sent(),
        0,
        "no send succeeded, none may count: {m}"
    );
    assert_eq!(m.signal_send_failed(), guard.fires(Site::SignalSend), "{m}");
    assert_eq!(
        m.signal_fallback_flag(),
        m.signal_send_failed(),
        "every failure must be recorded as left on the flag: {m}"
    );
}

/// Accounting regression for the signal-path metrics fix: with roughly
/// half of all `pthread_kill`s forced to fail, `signals_sent` must count
/// only the successful deliveries, and every attempt must land in exactly
/// one of the two outcome counters (a send is one `pthread_kill`, so the
/// attempt ledger balances exactly).
#[test]
fn signal_send_accounting_balances_under_partial_failure() {
    let _g = lock();
    let guard = install(
        FaultPlan::new(0x51_6AA1).with(Site::SignalSend, SiteAction::fail_always().one_in(2)),
    );
    let m = run_with_timeout(60, || {
        let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
        let (_, m) = pool.run_measured(|| {
            // Leaves several graces long: a thief that finds a victim
            // inside one escalates, so sends keep flowing.
            par_for_grain(0..1 << 10, 1, |i| {
                long_task(Duration::from_micros(40));
                std::hint::black_box(i);
            });
        });
        m
    });
    // The regression check is the ledger: every attempt resolves to
    // exactly one outcome, and each forced failure is counted as one. It
    // must hold however many attempts happened.
    let attempts = guard.hits(Site::SignalSend);
    assert_eq!(
        m.signals_sent() + m.signal_send_failed(),
        attempts,
        "every attempt must resolve to exactly one outcome: {m}"
    );
    assert_eq!(guard.fires(Site::SignalSend), m.signal_send_failed(), "{m}");
    // The both-sides-populated checks need a minimally busy run: a starved
    // box (e.g. single-core CI) can produce so few notification attempts
    // that the seeded one_in(2) coin lands all on one side.
    if attempts >= 8 {
        assert!(
            m.signal_send_failed() > 0,
            "forced failures must be counted: {m}"
        );
        assert!(
            m.signals_sent() > 0,
            "the un-failed half must still deliver: {m}"
        );
    }
}

/// Exposure storm: long delays inside the handler path (`HandlerEntry`,
/// `UpdatePublicBottom`) and in the §4 `pop_bottom` race window stretch the
/// owner-vs-handler interleavings the SignalSafe pop exists for.
#[test]
fn exposure_delay_storm_keeps_results_correct() {
    let _g = lock();
    for seed in [1u64, 2, 3] {
        let guard = install(
            FaultPlan::new(seed)
                // Handler-context sites: spin delays only (async-signal-safe).
                .with(Site::HandlerEntry, SiteAction::delay(300).one_in(2))
                .with(Site::UpdatePublicBottom, SiteAction::delay(150).one_in(3))
                .with(Site::PopBottom, SiteAction::delay(40).one_in(5)),
        );
        let sum = run_with_timeout(60, move || {
            // Expose Half needs the SignalSafe pop: the widened race window
            // is exactly what the delays aim at.
            let pool = PoolBuilder::new(Variant::SignalHalf).threads(4).build();
            let sum = AtomicU64::new(0);
            pool.run(|| {
                par_for_grain(0..40_000, 8, |i| {
                    sum.fetch_add(i as u64, Ordering::Relaxed);
                });
            });
            sum.into_inner()
        });
        assert_eq!(sum, (0..40_000u64).sum::<u64>(), "seed {seed}");
        assert!(
            guard.fires(Site::PopBottom) > 0,
            "seed {seed}: pop delays never fired"
        );
    }
}

/// Steal bursts against a near-empty public part: yield storms at the
/// thief's top-read → CAS window and delays between the owner's two
/// seq-cst fences force the last-task CAS races of Listing 2.
#[test]
fn steal_bursts_on_last_task_races_stay_linearizable() {
    use lcws_core::deque::Steal;
    use lcws_core::{ExposurePolicy, PopBottomMode, SplitDeque};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;

    let _g = lock();
    let guard = install(
        FaultPlan::new(0xCA5)
            .with(Site::PopTop, SiteAction::yield_storm(1).one_in(2))
            .with(Site::PopPublicBottom, SiteAction::delay(60).one_in(2))
            .with(Site::PopBottom, SiteAction::yield_storm(1).one_in(4)),
    );
    const N: usize = 1500;
    run_with_timeout(60, || {
        let d = SplitDeque::new(N + 1);
        let taken = Mutex::new(Vec::<usize>::new());
        let done = AtomicBool::new(false);
        let cookie = |v: usize| (v + 1) as *mut lcws_core::Job;
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        if let Steal::Ok(j) = d.pop_top() {
                            local.push(j as usize);
                        }
                    }
                    loop {
                        match d.pop_top() {
                            Steal::Ok(j) => local.push(j as usize),
                            Steal::Abort => continue,
                            _ => break,
                        }
                    }
                    taken.lock().unwrap().extend(local);
                });
            }
            // Owner: keep the public part starved (expose rarely, pop
            // often) so steals keep hitting the last-task path.
            let mut local = Vec::new();
            for i in 1..=N {
                d.push_bottom(cookie(i - 1));
                if i % 2 == 0 {
                    d.update_public_bottom(ExposurePolicy::One);
                }
                if i % 3 == 0 {
                    if let Some(j) = d.pop_bottom(PopBottomMode::SignalSafe) {
                        local.push(j as usize);
                    } else if let Some(j) = d.pop_public_bottom() {
                        local.push(j as usize);
                    }
                }
            }
            loop {
                if let Some(j) = d.pop_bottom(PopBottomMode::SignalSafe) {
                    local.push(j as usize);
                } else if let Some(j) = d.pop_public_bottom() {
                    local.push(j as usize);
                } else {
                    break;
                }
            }
            done.store(true, Ordering::Release);
            taken.lock().unwrap().extend(local);
        });
        let all = taken.into_inner().unwrap();
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "a task ran twice under chaos");
        assert_eq!(set.len(), N, "a task was lost under chaos");
    });
    assert!(guard.fires(Site::PopTop) > 0);
}

/// Park/unpark races: delays right before a sleeper announces itself and
/// yield storms inside wake delivery stress the announce-then-sleep window
/// the eventcount protocol closes.
#[test]
fn park_unpark_races_never_strand_a_run() {
    let _g = lock();
    let guard = install(
        FaultPlan::new(0x5EE9)
            .with(Site::SleeperPark, SiteAction::delay(400).one_in(2))
            .with(Site::SleeperUnpark, SiteAction::yield_storm(2).one_in(2)),
    );
    run_with_timeout(60, || {
        let pool = PoolBuilder::new(Variant::UsLcws).threads(4).build();
        // Each round forks work (waking parked helpers through the
        // perturbed deliver path), then starves the helpers long enough
        // for the idle backoff (64 spins + 16 yields) to park them again.
        for round in 0..30u64 {
            let sum = AtomicU64::new(0);
            pool.run(|| {
                par_for_grain(0..256, 4, |i| {
                    sum.fetch_add(i as u64, Ordering::Relaxed);
                });
                std::thread::sleep(Duration::from_millis(2));
            });
            assert_eq!(sum.into_inner(), (0..256u64).sum::<u64>(), "round {round}");
        }
    });
    assert!(
        guard.hits(Site::SleeperPark) > 0,
        "rounds must park workers"
    );
}

/// Resize-window storm: `Site::DequeResize` delays stretch the window
/// between a grow's copy loop and its buffer publish while thieves keep
/// stealing from the ring that is about to be retired. The correctness
/// claim under §4 is that a thief's stale buffer capture is harmless —
/// its `top` CAS validates that `top` never moved — so the storm must
/// lose nothing and run no task twice, on both deques.
#[test]
fn delay_storms_inside_the_resize_window_stay_linearizable() {
    use lcws_core::deque::{AbpDeque, AbpSteal, Steal};
    use lcws_core::{ExposurePolicy, PopBottomMode, SplitDeque};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;

    let _g = lock();
    let guard = install(
        FaultPlan::new(0x6209)
            .with(Site::DequeResize, SiteAction::delay(500))
            .with(Site::PopTop, SiteAction::yield_storm(1).one_in(3)),
    );
    const N: usize = 3000;
    let cookie = |v: usize| (v + 1) as *mut lcws_core::Job;

    // Split deque. Exposure is deliberately rare (One per 4 pushes): `top`
    // advances at most N/4, so the live extent provably outgrows capacity
    // 4 and growth is guaranteed to happen while thieves are stealing.
    run_with_timeout(60, move || {
        let d = SplitDeque::new(4);
        let taken = Mutex::new(Vec::<usize>::new());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        if let Steal::Ok(j) = d.pop_top() {
                            local.push(j as usize);
                        }
                    }
                    loop {
                        match d.pop_top() {
                            Steal::Ok(j) => local.push(j as usize),
                            Steal::Abort => continue,
                            _ => break,
                        }
                    }
                    taken.lock().unwrap().extend(local);
                });
            }
            let mut local = Vec::new();
            for i in 1..=N {
                d.push_bottom(cookie(i - 1));
                if i % 4 == 0 {
                    d.update_public_bottom(ExposurePolicy::One);
                }
                if i % 5 == 0 {
                    if let Some(j) = d.pop_bottom(PopBottomMode::SignalSafe) {
                        local.push(j as usize);
                    } else if let Some(j) = d.pop_public_bottom() {
                        local.push(j as usize);
                    }
                }
            }
            loop {
                if let Some(j) = d.pop_bottom(PopBottomMode::SignalSafe) {
                    local.push(j as usize);
                } else if let Some(j) = d.pop_public_bottom() {
                    local.push(j as usize);
                } else {
                    break;
                }
            }
            done.store(true, Ordering::Release);
            taken.lock().unwrap().extend(local);
        });
        let all = taken.into_inner().unwrap();
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(
            set.len(),
            all.len(),
            "split: a task ran twice across a resize"
        );
        assert_eq!(set.len(), N, "split: a task was lost across a resize");
        assert!(
            d.generation() > 0,
            "split: capacity 4 under {N} pushes must grow"
        );
    });

    // ABP deque: same storm over the fully-concurrent deque. A small
    // pre-fill before the thieves start guarantees at least one growth
    // even if the thieves then keep pace with the pushes.
    run_with_timeout(60, move || {
        let d = AbpDeque::new(4);
        for i in 0..8 {
            d.push_bottom(cookie(i));
        }
        assert!(d.generation() > 0, "abp: pre-fill must grow capacity 4");
        let taken = Mutex::new(Vec::<usize>::new());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        if let AbpSteal::Ok(j) = d.pop_top() {
                            local.push(j as usize);
                        }
                    }
                    while let AbpSteal::Ok(j) = d.pop_top() {
                        local.push(j as usize);
                    }
                    taken.lock().unwrap().extend(local);
                });
            }
            let mut local = Vec::new();
            for i in 8..N {
                d.push_bottom(cookie(i));
                if i % 5 == 0 {
                    if let Some(j) = d.pop_bottom() {
                        local.push(j as usize);
                    }
                }
            }
            while let Some(j) = d.pop_bottom() {
                local.push(j as usize);
            }
            done.store(true, Ordering::Release);
            taken.lock().unwrap().extend(local);
        });
        let all = taken.into_inner().unwrap();
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(
            set.len(),
            all.len(),
            "abp: a task ran twice across a resize"
        );
        assert_eq!(set.len(), N, "abp: a task was lost across a resize");
    });

    assert!(
        guard.fires(Site::DequeResize) > 0,
        "growth must pass through the resize-window delay"
    );
}

/// A forced spawn failure mid-build must tear the partial pool down (every
/// already-spawned worker joined) and leave the process able to build a
/// fresh pool once the plan is gone.
#[test]
fn spawn_failure_mid_build_tears_down_and_recovers() {
    let _g = lock();
    let guard = install(
        // Hits 0 and 1 (workers 1 and 2) succeed; hit 2 (worker 3) fails.
        FaultPlan::new(7).with(Site::ThreadSpawn, SiteAction::fail_always().after(2)),
    );
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        PoolBuilder::new(Variant::Signal).threads(4).build()
    }));
    let msg = match result {
        Ok(_) => panic!("build must fail under the forced spawn fault"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    };
    assert!(
        msg.contains("failed to spawn worker thread 3 of 4"),
        "panic must name the failing worker: {msg}"
    );
    assert!(
        msg.contains("2 already-spawned worker(s) joined"),
        "panic must confirm the partial teardown: {msg}"
    );
    assert_eq!(guard.fires(Site::ThreadSpawn), 1);
    drop(guard);
    // The failed build left no residue: a fresh pool works.
    let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
    assert_eq!(pool.run(|| join(|| 20, || 22)), (20, 22));
}

/// Staggered worker startup: long delays at every `ThreadSpawn` stretch
/// the window in which some worker slots still hold the pre-spawn zero
/// pthread handle. `build` must still wait out every registration (its
/// registration barrier is what keeps the first run's `pthread_kill`s
/// safe), and a signal-heavy workload right after the delayed build must
/// complete with nothing lost. The zero-handle reroute itself is
/// unit-tested in
/// `pool::tests::signal_to_unregistered_worker_stays_on_the_flag`.
#[test]
fn delayed_worker_spawns_keep_signal_runs_correct() {
    let _g = lock();
    let guard = install(
        // Delay-only action: `fail_at` performs the delay and reports
        // no-failure, so every spawn succeeds — late.
        FaultPlan::new(0x57A66E2).with(Site::ThreadSpawn, SiteAction::delay(5_000)),
    );
    let (sum, m) = run_with_timeout(60, || {
        let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
        let sum = AtomicU64::new(0);
        let (_, m) = pool.run_measured(|| {
            par_for_grain(0..1 << 14, 1, |i| {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        });
        (sum.into_inner(), m)
    });
    let n = 1u64 << 14;
    assert_eq!(sum, n * (n + 1) / 2, "work lost under staggered startup");
    assert_eq!(
        guard.hits(Site::ThreadSpawn),
        3,
        "one delay per helper spawn"
    );
    assert_eq!(
        m.signal_send_failed(),
        0,
        "the registration barrier must keep every post-build send on a live handle: {m}"
    );
}

/// Steal-abort storm: force roughly every other `pop_top` that found work
/// to lose its CAS race (`Steal::Abort`). Aborts now mean "work exists —
/// stay hot" in the scheduler's backoff, and they are accounted by the new
/// `steal_aborts` counter. (Before the fix, aborts walked thieves up the
/// idle-backoff ladder toward parking at peak contention — and were
/// invisible in the metrics.)
#[test]
fn forced_steal_abort_storm_completes_and_is_counted() {
    use lcws_core::deque::{AbpDeque, AbpSteal, Steal};
    use lcws_core::{ExposurePolicy, SplitDeque};

    let _g = lock();
    let guard =
        install(FaultPlan::new(0xAB027).with(Site::PopTop, SiteAction::fail_always().one_in(2)));

    // A full pool run first: Contended outcomes must not strand the run
    // (they keep thieves hot instead of escalating toward a park).
    let sum = run_with_timeout(60, || {
        let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
        let sum = AtomicU64::new(0);
        pool.run(|| {
            par_for_grain(0..1 << 14, 1, |i| {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        });
        sum.into_inner()
    });
    let n = 1u64 << 14;
    assert_eq!(sum, n * (n + 1) / 2, "work lost under the abort storm");

    // Deterministic accounting section, independent of how much the pool
    // actually stole on this machine: drive both deques' thief path
    // directly and balance the counter ledger.
    let cookie = |v: usize| (v + 1) as *mut lcws_core::Job;
    lcws_metrics::reset_local();
    let c = lcws_metrics::Collector::new();
    let mut forced = 0u64;
    let mut stolen = 0u64;
    {
        let d = SplitDeque::new(64);
        for i in 0..32 {
            d.push_bottom(cookie(i));
        }
        // Expose half: 16 public tasks for the storm to fight over.
        d.update_public_bottom(ExposurePolicy::Half);
        loop {
            match d.pop_top() {
                Steal::Ok(_) => stolen += 1,
                Steal::Abort => forced += 1,
                Steal::PrivateWork | Steal::Empty => break,
            }
        }
        assert_eq!(stolen, 16, "every public task is eventually stolen");
    }
    {
        let d = AbpDeque::new(16);
        for i in 0..8 {
            d.push_bottom(cookie(i));
        }
        loop {
            match d.pop_top() {
                AbpSteal::Ok(_) => stolen += 1,
                AbpSteal::Abort => forced += 1,
                AbpSteal::Empty => break,
            }
        }
        assert_eq!(stolen, 24, "the ABP deque drains through the storm too");
    }
    lcws_metrics::flush_into(&c);
    let s = c.snapshot();
    assert!(forced > 0, "one_in(2) over 24+ eligible steals must fire");
    assert_eq!(
        s.steal_aborts(),
        forced,
        "every abort lands in the counter: {s}"
    );
    // +2: the two loop-terminating calls (PrivateWork / Empty) are
    // attempts too, and cannot be forced to abort (no work present).
    assert_eq!(
        s.steal_attempts(),
        stolen + forced + 2,
        "attempt ledger balances: {s}"
    );
    assert!(guard.fires(Site::PopTop) > 0);
}

/// Steal ledger under a CAS storm: with roughly every third `pop_top` CAS
/// forced to abort, an Expose Half pool must still run every task exactly
/// once, and the deterministic deque-level section must balance the batch
/// ledger of a direct `pop_top_batch` drive exactly — tasks migrated =
/// `steals_ok` (one per successful batch CAS) + `steal_batch_tasks` (the
/// surplus), with every forced abort landing in `steal_aborts` and no slot
/// delivered twice.
#[test]
fn batch_steal_ledger_balances_under_cas_storm() {
    use lcws_core::deque::{Steal, STEAL_BATCH_MAX};
    use lcws_core::{ExposurePolicy, SplitDeque};
    use std::collections::HashSet;

    let _g = lock();
    let guard =
        install(FaultPlan::new(0xBA7C4).with(Site::PopTop, SiteAction::fail_always().one_in(3)));

    // Pool section: the storm hits the steal CAS of a SignalHalf run,
    // whose wholesale exposures give thieves runs to fight over; aborts
    // retry hot, and nothing may be lost or doubled.
    let (executed, m) = run_with_timeout(60, || {
        let pool = PoolBuilder::new(Variant::SignalHalf).threads(4).build();
        let executed = AtomicU64::new(0);
        let (_, m) = pool.run_measured(|| {
            scope(|s| {
                for _ in 0..4_000 {
                    let executed = &executed;
                    s.spawn(move || {
                        executed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        (executed.into_inner(), m)
    });
    assert_eq!(executed, 4_000, "steal storm lost or doubled tasks");
    assert_eq!(
        m.tasks_run(),
        4_000,
        "task accounting drifted under the storm"
    );

    // Deterministic ledger section: drive `pop_top_batch` directly against
    // a wholesale-exposed run and balance every counter.
    let cookie = |v: usize| (v + 1) as *mut lcws_core::Job;
    lcws_metrics::reset_local();
    let c = lcws_metrics::Collector::new();
    const N: usize = 128;
    let d = SplitDeque::new(2 * N);
    for i in 0..N {
        d.push_bottom(cookie(i));
    }
    // Expose Half publishes ⌈N/2⌉ = 64 tasks for the storm to fight over.
    d.update_public_bottom(ExposurePolicy::Half);
    let (mut batches, mut surplus, mut aborts) = (0u64, 0u64, 0u64);
    let mut taken = Vec::new();
    loop {
        let mut extras = Vec::new();
        match d.pop_top_batch(&mut extras, STEAL_BATCH_MAX - 1) {
            Steal::Ok(j) => {
                batches += 1;
                surplus += extras.len() as u64;
                taken.push(j as usize);
                taken.extend(extras.into_iter().map(|e| e as usize));
            }
            Steal::Abort => aborts += 1,
            Steal::PrivateWork | Steal::Empty => break,
        }
    }
    let set: HashSet<_> = taken.iter().copied().collect();
    assert_eq!(set.len(), taken.len(), "a slot was delivered twice");
    assert_eq!(set.len(), N / 2, "the exposed half must drain exactly");
    assert!(surplus > 0, "⌈public/2⌉ takes must move surplus tasks");
    assert!(
        aborts > 0,
        "one_in(3) over ≥8 batch CASes must force aborts"
    );
    lcws_metrics::flush_into(&c);
    let s = c.snapshot();
    assert_eq!(
        s.steals_ok(),
        batches,
        "one StealOk per successful batch CAS: {s}"
    );
    assert_eq!(
        s.steal_batch_tasks(),
        surplus,
        "surplus ledger drifted: {s}"
    );
    assert_eq!(
        s.steals_ok() + s.steal_batch_tasks(),
        (N / 2) as u64,
        "migrated tasks must equal steals_ok + steal_batch_tasks: {s}"
    );
    assert_eq!(
        s.steal_aborts(),
        aborts,
        "forced aborts must be counted: {s}"
    );
    assert!(guard.fires(Site::PopTop) > 0);
}

/// Same seed, same plan → same per-site fire pattern over a deterministic
/// (single-threaded) hit sequence — the property that makes a chaos
/// failure replayable from its seed alone.
#[test]
fn chaos_runs_replay_from_their_seed() {
    let _g = lock();
    let fires_for = |seed: u64| {
        let guard = install(
            FaultPlan::new(seed).with(Site::SignalSend, SiteAction::fail_always().one_in(5)),
        );
        let pattern: Vec<bool> = (0..512)
            .map(|_| {
                // Single-threaded hits: the pattern is the pure seeded
                // schedule, no interleaving noise.
                lcws_core::fault::probe(Site::SignalSend)
            })
            .collect();
        let fires = guard.fires(Site::SignalSend);
        drop(guard);
        (pattern, fires)
    };
    let (p1, f1) = fires_for(0xD15EA5E);
    let (p2, f2) = fires_for(0xD15EA5E);
    let (p3, _) = fires_for(0xD15EA5E + 1);
    assert_eq!(p1, p2, "identical seeds must replay identically");
    assert_eq!(f1, f2);
    assert_ne!(p1, p3, "a different seed must perturb differently");
}
