//! Supervision suite: pool lifecycle churn (ROADMAP item 5), the stall
//! watchdog, and — under `--features faultpoints` — the abort that ends
//! the process when a panic escapes a helper's steal loop (DESIGN.md §5e).
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
    use std::io::Read;
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Stdio};
    use std::thread::JoinHandle;
    use std::time::Instant;

    /// Set in the child process of
    /// [`escaped_helper_panic_aborts_the_process`].
    const ABORT_CHILD: &str = "LCWS_SUPERVISION_ABORT_CHILD";
    /// Printed by the child if `run` ever returns.
    const AFTER_RUN: &str = "lcws-test: run returned";

    /// A panic that escapes a helper's steal loop aborts the process. The
    /// test re-runs its own binary, filtered to itself, as a child that
    /// forces one `Site::WorkerLoop` fire into a run on a 2-worker pool:
    /// the child must die of SIGABRT, its stderr must name worker 1, and
    /// it must print nothing after `run` (no panic resumed on the caller,
    /// no healed pool carrying on).
    #[test]
    fn escaped_helper_panic_aborts_the_process() {
        if std::env::var_os(ABORT_CHILD).is_some() {
            let pool = PoolBuilder::new(Variant::UsLcws).threads(2).build();
            let guard = install(
                FaultPlan::new(0xAB07_0001)
                    .with(Site::WorkerLoop, SiteAction::fail_always().max_fires(1)),
            );
            let deadline = Instant::now() + Duration::from_secs(20);
            pool.run(|| {
                // Keep the generation open until the helper reaches the
                // probe (or a deadline shows it never will).
                while guard.fires(Site::WorkerLoop) == 0 && Instant::now() < deadline {
                    par_for_grain(0..1024, 16, |_| {});
                }
            });
            println!("{AFTER_RUN}");
            return;
        }
        let _g = lock();
        let exe = std::env::current_exe().expect("test binary path");
        // `ulimit -c 0`: the abort must not leave a core file behind.
        let mut child = Command::new("sh")
            .arg("-c")
            .arg("ulimit -c 0 && exec \"$0\" \"$@\"")
            .arg(exe)
            .args([
                "--exact",
                "faulted::escaped_helper_panic_aborts_the_process",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(ABORT_CHILD, "1")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the child test process");
        // Read both pipes while waiting, so a long backtrace cannot fill
        // one and stall the child.
        fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
            std::thread::spawn(move || {
                let mut text = String::new();
                let _ = pipe.read_to_string(&mut text);
                text
            })
        }
        let stdout = drain(child.stdout.take().unwrap());
        let stderr = drain(child.stderr.take().unwrap());
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait for the child") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("the child did not exit within 60 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let (stdout, stderr) = (stdout.join().unwrap(), stderr.join().unwrap());
        const SIGABRT: i32 = 6;
        assert_eq!(
            status.signal(),
            Some(SIGABRT),
            "the child must abort, got {status}\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        assert!(
            stderr.contains("worker 1's steal loop"),
            "stderr must name worker 1:\n{stderr}"
        );
        assert!(
            !stdout.contains(AFTER_RUN),
            "nothing may run after `run`:\n{stdout}"
        );
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
