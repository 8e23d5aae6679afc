//! Happens-before checker soundness suite (ISSUE 9 satellite).
//!
//! Every test here drives a *sound* schedule — the five paper pairings,
//! pool lifecycle churn, and a trimmed many-producer ingress stress —
//! under full `hb` instrumentation and asserts that the checker
//! files **zero** race reports. The complementary negative tests (broken
//! orderings the checker MUST report) are unit tests in `src/hb.rs`, where
//! the crate-private `StackJob`/deque internals can be driven directly.
//!
//! The checker is process-global, so every test serializes on [`HB`] and
//! drains state with `hb::reset()` before running its scenario.

#![cfg(all(feature = "hb", not(feature = "model")))]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use lcws_core::{hb, join, par_for_grain, PoolBuilder, ThreadPool, Variant};

/// One hb scenario at a time, process-wide (the checker state is global).
static HB: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    HB.lock().unwrap_or_else(|e| e.into_inner())
}

/// Assert the checker filed nothing, printing every report on failure.
fn assert_clean(context: &str) {
    let reports = hb::take_reports();
    assert!(
        reports.is_empty(),
        "{context}: hb checker filed {} report(s):\n{}",
        reports.len(),
        reports.join("\n")
    );
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// The five sound pairings (WS, USLCWS, Signal, Conservative, Half): a
/// fork-join fib plus a tiny-grain `par_for` per variant, which together
/// exercise push/pop/steal, ring growth, exposure (owner- and
/// handler-side), and the sleeper — all of it instrumented.
#[test]
fn five_sound_pairings_report_no_races() {
    let _g = lock();
    for variant in Variant::ALL {
        hb::reset();
        let pool = ThreadPool::new(variant, 4);
        assert_eq!(pool.run(|| fib(16)), 987, "variant {variant}");
        let hits: Vec<AtomicU64> = (0..4096).map(|_| AtomicU64::new(0)).collect();
        pool.run(|| {
            par_for_grain(0..4096, 4, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        drop(pool);
        assert_clean(&format!("sound pairing {variant}"));
        assert_eq!(hb::report_count(), 0);
    }
}

/// Pool lifecycle churn under hb: build → run → drop across all variants
/// must file no race, so every generation open, quiescence close and
/// helper teardown is ordered.
#[test]
fn lifecycle_churn_reports_no_races() {
    let _g = lock();
    hb::reset();
    for variant in Variant::ALL {
        let pool = ThreadPool::new(variant, 3);
        let sum = AtomicU64::new(0);
        pool.run(|| {
            par_for_grain(0..2048, 8, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.into_inner(), 2048 * 2047 / 2, "variant {variant}");
    }
    assert_clean("lifecycle churn");
}

/// Scope-job blocks under hb: a P = 2 flood-shaped scope whose stolen
/// tasks hand their blocks back through the return stack, then a second
/// scope, whose chunks `malloc` may place on the first one's freed pages.
/// The owner's every reuse of a block is checked against the hand-back
/// that freed it, so a take that did not join the thief's CAS would be
/// reported here.
#[test]
fn scope_block_reuse_reports_no_races() {
    use lcws_core::scope;

    let _g = lock();
    for variant in [Variant::Ws, Variant::UsLcws] {
        hb::reset();
        let pool = PoolBuilder::new(variant).threads(2).build();
        let executed = AtomicU64::new(0);
        for _scope in 0..2 {
            pool.run(|| {
                scope(|s| {
                    for i in 0..2_000u64 {
                        let executed = &executed;
                        s.spawn(move || {
                            executed.fetch_add(i % 2, Ordering::Relaxed);
                        });
                    }
                });
            });
        }
        assert_eq!(executed.into_inner(), 2_000, "{variant}: tasks lost");
        drop(pool);
        assert_clean(&format!("scope block reuse under {variant}"));
    }
}

/// Trimmed ingress stress (8 producers × 10⁴ tasks = 8×10⁴): external
/// submission through the global injector, worker pops, and targeted join
/// wakes — zero reports, and the `hb_reports` counter that feeds the sweep
/// CSV agrees with the checker.
#[test]
fn trimmed_ingress_stress_reports_no_races() {
    let _g = lock();
    hb::reset();
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 10_000;
    let pool = Arc::new(PoolBuilder::new(Variant::Signal).threads(4).build());
    pool.serve();
    let executed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..PRODUCERS {
            let pool = Arc::clone(&pool);
            let executed = Arc::clone(&executed);
            s.spawn(move || {
                for _ in 0..PER_PRODUCER {
                    let executed = Arc::clone(&executed);
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
        (PRODUCERS * PER_PRODUCER) as u64,
        "tasks lost in the trimmed ingress stress"
    );
    // The checker's verdict and the metrics pipeline must agree: the
    // counter is how sweep CSVs surface hb findings.
    assert_eq!(snap.hb_reports(), 0, "hb_reports counter nonzero");
    assert_eq!(snap.hb_reports(), 0);
    assert_clean("trimmed ingress stress");
}
