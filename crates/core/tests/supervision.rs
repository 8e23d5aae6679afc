//! Supervision suite: pool lifecycle churn (ROADMAP item 5) and —
//! under `--features faultpoints` — deterministic worker-death storms
//! exercising the containment → expose-private → quiesce → respawn
//! protocol of DESIGN.md §5e.
//!
//! Fault plans are process-global, so the faulted tests serialize on
//! [`SUPERVISION`]; the churn test takes the same lock so an armed plan
//! from a concurrently scheduled test can never leak into it.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use lcws_core::{join, par_for_grain, PoolBuilder, Variant};

/// One fault plan at a time, process-wide.
static SUPERVISION: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock just means an earlier test failed; any plan guard has
    // dropped, so later tests can still run.
    SUPERVISION.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` on a fresh big-stack thread, failing the test if it neither
/// completes nor panics within `secs` (supervision bugs tend to present as
/// quiescence hangs, which must not hang CI).
fn run_with_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::Builder::new()
        .name("supervision-driver".into())
        .stack_size(64 << 20)
        .spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        })
        .expect("spawn supervision driver");
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(result) => {
            t.join().expect("supervision driver thread");
            match result {
                Ok(v) => v,
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        Err(_) => panic!("supervision run exceeded {secs}s — likely a quiescence hang"),
    }
}

/// ROADMAP item 5 (shutdown/restart churn + oversubscription): build → run
/// → drop across every variant and several thread counts, including one
/// past the core count of small CI boxes. Each round must produce the
/// exact sum and each drop must join its helpers cleanly.
#[test]
fn lifecycle_churn_all_variants() {
    let _g = lock();
    run_with_timeout(180, || {
        for &threads in &[1, 2, 4, 8] {
            for v in Variant::ALL {
                let pool = PoolBuilder::new(v).threads(threads).build();
                for round in 0..3u64 {
                    let sum = AtomicU64::new(0);
                    pool.run(|| {
                        par_for_grain(0..256, 16, |i| {
                            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    });
                    assert_eq!(
                        sum.into_inner(),
                        (256 * 257) / 2,
                        "{v:?} x{threads} round {round} lost or duplicated work"
                    );
                }
                // Implicit drop here: helpers must join without hanging.
            }
        }
    });
}

/// Watchdog with a comfortable timeout never fires on healthy runs — the
/// supervision layer must be invisible when nothing is wrong.
#[test]
fn watchdog_silent_on_healthy_runs() {
    let _g = lock();
    run_with_timeout(60, || {
        let pool = PoolBuilder::new(Variant::SignalHalf)
            .threads(4)
            .stall_timeout(Duration::from_millis(500))
            .build();
        for _ in 0..5 {
            assert_eq!(pool.run(|| join(|| 1, || 2)), (1, 2));
        }
        assert_eq!(pool.stall_reports(), 0);
    });
}

#[cfg(feature = "faultpoints")]
mod faulted {
    use super::*;
    use lcws_core::fault::{install, FaultPlan, Site, SiteAction};
    use std::time::Instant;

    /// The issue's acceptance scenario: a seeded `Site::WorkerLoop` plan
    /// kills helpers mid-run on a capacity-4 pool. The run must terminate
    /// (no quiescence hang), zero tasks may be lost (the dying owner's
    /// expose-all handoff plus the task-boundary containment argument),
    /// the panic payload must resume on the caller, and the *next* run on
    /// the same pool must succeed after the healer respawned the dead
    /// slots.
    #[test]
    fn worker_death_storm_contained_and_healed() {
        let _g = lock();
        run_with_timeout(120, || {
            let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
            // Installed after build: the plan must hit running helpers,
            // not the build-time ThreadSpawn site.
            let guard = install(FaultPlan::new(0x5EED_0007).with(
                Site::WorkerLoop,
                // Let the storm ramp up first, then kill two of the three
                // helpers (never all: fires are per-site, one panic each).
                // Helpers hit the loop-top probe a few hundred times over a
                // run this size, so 30 leaves wide margin on both sides.
                SiteAction::fail_always().after(30).max_fires(2),
            ));
            let done = AtomicU64::new(0);
            let mut rounds = 0;
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(|| {
                    // On two shared cores one 8192-task loop can finish
                    // before any helper reaches its 31st loop-top probe, so
                    // keep the generation open until the plan has killed a
                    // helper (or a deadline shows it never will).
                    let deadline = Instant::now() + Duration::from_secs(30);
                    loop {
                        par_for_grain(0..8192, 1, |_| {
                            done.fetch_add(1, Ordering::Relaxed);
                        });
                        rounds += 1;
                        if guard.fires(Site::WorkerLoop) >= 1 || Instant::now() >= deadline {
                            break;
                        }
                    }
                });
            }));
            let fires = guard.fires(Site::WorkerLoop);
            drop(guard);
            assert!(fires >= 1, "the plan never killed a helper");
            // Zero loss: every task ran exactly once despite the deaths.
            assert_eq!(done.into_inner(), 8192 * rounds);
            // The escaped payload resumed on the caller...
            let payload = result.expect_err("worker death must resume on the caller");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(|s| s.as_str()))
                .unwrap_or("<non-string>");
            assert!(
                msg.contains("injected worker-loop fault"),
                "unexpected payload: {msg}"
            );
            // ...and was counted before quiescence released the caller.
            assert!(pool.metrics().worker_deaths() >= 1);
            assert_eq!(pool.metrics().worker_respawns(), 0);

            // Self-heal: the next run respawns the dead helpers and
            // completes normally.
            let sum = AtomicU64::new(0);
            pool.run(|| {
                par_for_grain(0..1024, 4, |i| {
                    sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
            });
            assert_eq!(sum.into_inner(), (1024 * 1025) / 2);
            assert!(
                pool.metrics().worker_respawns() >= 1,
                "healer must have respawned at least one helper"
            );
            assert_eq!(pool.metrics().worker_deaths(), 0);
        });
    }

    /// A failed respawn (forced `Site::ThreadSpawn` fire during healing)
    /// must leave the pool running degraded, not broken; once the plan is
    /// gone, the following run's healer retries and fully recovers.
    #[test]
    fn failed_respawn_degrades_then_heals() {
        let _g = lock();
        run_with_timeout(120, || {
            let pool = PoolBuilder::new(Variant::UsLcws).threads(4).build();
            // Round 1: kill exactly one helper.
            {
                let guard = install(
                    FaultPlan::new(0xDEAD_0001)
                        .with(Site::WorkerLoop, SiteAction::fail_always().max_fires(1)),
                );
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.run(|| {
                        // Big enough that helpers iterate while the run is
                        // still open (a tiny workload can close the
                        // generation before any helper wakes, and a helper
                        // that wakes into a closed generation exits at the
                        // `finished` check before reaching the fault
                        // probe).
                        let sum = AtomicU64::new(0);
                        par_for_grain(0..8192, 1, |i| {
                            sum.fetch_add(i as u64, Ordering::Relaxed);
                        });
                        sum.into_inner()
                    });
                }));
                assert!(result.is_err(), "the death payload must resume");
                drop(guard);
                assert!(pool.metrics().worker_deaths() >= 1);
            }
            // Round 2: healer's respawn is forced to fail — the pool keeps
            // working with the slot dead (excluded from the handshake).
            {
                let guard = install(
                    FaultPlan::new(0xDEAD_0002).with(Site::ThreadSpawn, SiteAction::fail_always()),
                );
                assert_eq!(pool.run(|| 40 + 2), 42);
                assert_eq!(
                    pool.metrics().worker_respawns(),
                    0,
                    "respawn was forced to fail, none may be counted"
                );
                drop(guard);
            }
            // Round 3: no plan — the healer retries and recovers the slot.
            assert_eq!(pool.run(|| 21 * 2), 42);
            assert!(pool.metrics().worker_respawns() >= 1);
        });
    }

    /// Watchdog under a genuine stall: helpers wedged in huge forced
    /// sleeper delays while the caller closes the run. The 2ms quiescence
    /// waits must expire into stall reports, and the run must still
    /// complete correctly once the delays drain — report-and-keep-waiting,
    /// never report-and-give-up.
    #[test]
    fn stall_watchdog_reports_and_recovers() {
        let _g = lock();
        run_with_timeout(120, || {
            let pool = PoolBuilder::new(Variant::Ws)
                .threads(2)
                .stall_timeout(Duration::from_millis(2))
                .build();
            let guard = install(FaultPlan::new(0x0005_7A11).with(
                Site::SleeperPark,
                // Every park entry spins ~tens of ms, far past the 2ms
                // watchdog, wedging the helper across the run close.
                SiteAction::delay(50_000_000),
            ));
            let v = pool.run(|| {
                // Idle the helper long enough to escalate spin → yield →
                // park and take the forced delay.
                std::thread::sleep(Duration::from_millis(30));
                7
            });
            drop(guard);
            assert_eq!(v, 7);
            assert!(
                pool.stall_reports() >= 1,
                "a 2ms watchdog must have fired across a ~50ms wedge"
            );
        });
    }
}
