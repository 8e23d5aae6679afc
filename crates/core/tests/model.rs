//! Exhaustive interleaving checks for the §4 owner/thief/handler races
//! (`cargo test -p lcws-core --features model --test model`).
//!
//! Each scenario sets up a small deque script — push during single-threaded
//! setup, then one owner pop round racing one thief steal, with the
//! variant's exposure policy running either at an owner scheduling point
//! (USLCWS-style synchronous polling) or as a signal handler the scheduler
//! may inject between *any* two owner atomic accesses (the signal
//! variants). The explorer enumerates every schedule; after each one we
//! drain the deque on the (unscheduled) explorer thread and check
//!
//! 1. no task was lost or executed twice, and
//! 2. the drained deque rests at `bot == public_bot == top` — including
//!    the §4 repair of `bot` in `pop_public_bottom`.
//!
//! The five paper pairings (WS, USLCWS, Signal, Conservative, Half) must
//! pass exhaustively; the known-unsound pairing `Standard` + `Half` must
//! be *caught* as a double-take (negative test).

#![cfg(feature = "model")]

use std::sync::Mutex;

use lcws_core::deque::{
    AbpDeque, AbpSteal, ExposurePolicy, PopBottomMode, SplitDeque, Steal, STEAL_BATCH_MAX,
};
use lcws_core::model::{explore, pause, Execution, Options, Report};
use lcws_core::Job;

/// Distinguishable non-null fake job pointers (never dereferenced).
fn cookie(i: usize) -> *mut Job {
    (i + 1) as *mut Job
}

/// A never-pushed slot reads null, which maps to `usize::MAX` and fails
/// the loss/duplication check.
fn uncookie(t: *mut Job) -> usize {
    (t as usize).wrapping_sub(1)
}

/// A drained split deque rests at `bot == public_bot == top`, wherever its
/// indices started.
fn check_drained(d: &SplitDeque) -> Result<(), String> {
    let (bot, public_bot, top) = d.raw_state();
    if bot == public_bot && public_bot == top {
        Ok(())
    } else {
        Err(format!(
            "inconsistent empty state: bot={bot} public_bot={public_bot} top={top}"
        ))
    }
}

/// The ABP twin of [`check_drained`]: `bot == top`.
fn check_abp_drained(d: &AbpDeque) -> Result<(), String> {
    let (bot, top) = d.raw_state();
    if bot == top {
        Ok(())
    } else {
        Err(format!("inconsistent empty state: bot={bot} top={top}"))
    }
}

/// Sorted multiset check: everything taken during the execution plus
/// everything drained afterwards must be exactly `0..ntasks`.
fn check_no_loss_no_dup(mut all: Vec<usize>, ntasks: usize) -> Result<(), String> {
    all.sort_unstable();
    let expect: Vec<usize> = (0..ntasks).collect();
    if all == expect {
        Ok(())
    } else {
        Err(format!(
            "task loss/duplication: took {all:?}, expected {expect:?}"
        ))
    }
}

/// Post-run drain on the (unscheduled) explorer thread: take everything
/// the owner still can, private part first.
fn drain_owner(d: &SplitDeque, all: &mut Vec<usize>) {
    while let Some(t) = d
        .pop_bottom(PopBottomMode::SignalSafe)
        .or_else(|| d.pop_public_bottom())
    {
        all.push(uncookie(t));
    }
}

/// One batch steal with the full budget; everything it took goes to `taken`.
fn steal_batch_into(d: &SplitDeque, taken: &Mutex<Vec<usize>>) {
    let mut extras = Vec::new();
    if let Steal::Ok(t) = d.pop_top_batch(&mut extras, STEAL_BATCH_MAX - 1) {
        let mut g = taken.lock().unwrap();
        g.push(uncookie(t));
        g.extend(extras.into_iter().map(uncookie));
    }
}

/// Who runs `update_public_bottom` in the script.
#[derive(Clone, Copy, PartialEq)]
enum Exposer {
    /// At an owner scheduling point before the pop (USLCWS's synchronous
    /// poll — exposures cannot land inside `pop_bottom`).
    Owner,
    /// As a signal handler the scheduler may deliver between any two owner
    /// accesses (the signal variants).
    Handler,
}

/// One owner pop round vs one thief steal on a split deque, under the
/// given (pop mode × exposure policy × exposure mechanism) triple.
fn check_split(
    mode: PopBottomMode,
    policy: ExposurePolicy,
    exposer: Exposer,
    ntasks: usize,
) -> Report {
    check_split_from(mode, policy, exposer, ntasks, 0)
}

/// [`check_split`] with the deque's indices starting at `start`.
fn check_split_from(
    mode: PopBottomMode,
    policy: ExposurePolicy,
    exposer: Exposer,
    ntasks: usize,
    start: u64,
) -> Report {
    explore(Options::default(), || {
        let d = SplitDeque::new(8);
        d.set_start_index(start);
        for i in 0..ntasks {
            d.push_bottom(cookie(i));
        }
        let taken = Mutex::new(Vec::new());

        let exec = Execution::new()
            .thread("owner", || {
                // Leading pause: lets the handler/thief act on the fully
                // private deque before the owner's first own access.
                pause();
                if exposer == Exposer::Owner {
                    d.update_public_bottom(policy);
                }
                let job = d.pop_bottom(mode).or_else(|| d.pop_public_bottom());
                if let Some(t) = job {
                    taken.lock().unwrap().push(uncookie(t));
                }
                // Trailing pause: a handler may also arrive after the
                // protocol completed (must be harmless).
                pause();
            })
            .thread("thief", || {
                if let Steal::Ok(t) = d.pop_top() {
                    taken.lock().unwrap().push(uncookie(t));
                }
            });
        let exec = match exposer {
            Exposer::Owner => exec,
            Exposer::Handler => exec.handler_on(0, || {
                d.update_public_bottom(policy);
            }),
        };
        exec.run();

        // Drain on the explorer thread (unregistered: accesses pass the
        // scheduler by). Mirrors the scheduler's acquire path. Always uses
        // the SignalSafe pop: it is total even on the inconsistent states a
        // *violating* execution leaves behind (e.g. `bot == 0` with
        // `public_bot == 1` after a Standard-mode double-take), where the
        // Standard pop would underflow instead of reporting the damage.
        let mut all = taken.into_inner().unwrap();
        drain_owner(&d, &mut all);
        check_no_loss_no_dup(all, ntasks)?;
        check_drained(&d)
    })
}

// ---------------------------------------------------------------------------
// The five paper pairings (positive: must pass exhaustively).
// ---------------------------------------------------------------------------

/// WS baseline: ABP deque, owner `pop_bottom` racing a thief for the last
/// task(s); the thief keeps stealing while it succeeds, up to `steals`
/// times, and the indices start at `start`.
fn check_abp(ntasks: usize, start: u64, steals: usize) -> Report {
    explore(Options::default(), || {
        let d = AbpDeque::new(8);
        d.set_start_index(start);
        for i in 0..ntasks {
            d.push_bottom(cookie(i));
        }
        let taken = Mutex::new(Vec::new());
        Execution::new()
            .thread("owner", || {
                if let Some(t) = d.pop_bottom() {
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .thread("thief", || {
                for _ in 0..steals {
                    let AbpSteal::Ok(t) = d.pop_top() else { break };
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .run();
        let mut all = taken.into_inner().unwrap();
        while let Some(t) = d.pop_bottom() {
            all.push(uncookie(t));
        }
        check_no_loss_no_dup(all, ntasks)?;
        check_abp_drained(&d)
    })
}

#[test]
fn ws_abp_owner_thief_race() {
    for ntasks in [1, 2] {
        let report = check_abp(ntasks, 0, 1);
        report.assert_exhaustive_pass("WS/ABP owner-vs-thief");
        assert!(report.schedules >= 10, "expected a real interleaving space");
    }
}

#[test]
fn uslcws_standard_one_owner_side_exposure() {
    // USLCWS: Standard pop is safe because exposure happens only at the
    // owner's own polling points, never inside pop_bottom.
    for ntasks in [1, 2] {
        check_split(
            PopBottomMode::Standard,
            ExposurePolicy::One,
            Exposer::Owner,
            ntasks,
        )
        .assert_exhaustive_pass("USLCWS (Standard + One, owner-side)");
    }
}

#[test]
fn signal_signalsafe_one_handler_exposure() {
    for ntasks in [1, 2] {
        let report = check_split(
            PopBottomMode::SignalSafe,
            ExposurePolicy::One,
            Exposer::Handler,
            ntasks,
        );
        report.assert_exhaustive_pass("Signal (SignalSafe + One, handler)");
        assert!(
            report.schedules >= 100,
            "handler injection must multiply the schedule count, got {}",
            report.schedules
        );
    }
}

#[test]
fn signal_conservative_standard_handler_exposure() {
    // Conservative exposure keeps the bottom-most task private, which is
    // exactly what makes the cheaper Standard pop safe again (§4.1.1).
    for ntasks in [1, 2, 3] {
        check_split(
            PopBottomMode::Standard,
            ExposurePolicy::Conservative,
            Exposer::Handler,
            ntasks,
        )
        .assert_exhaustive_pass("Conservative (Standard + Conservative, handler)");
    }
}

#[test]
fn signal_half_signalsafe_handler_exposure() {
    // Expose Half moves round(r/2) tasks at once; SignalSafe pop keeps the
    // owner correct even when its bottom task goes public mid-pop.
    for ntasks in [1, 2, 3] {
        check_split(
            PopBottomMode::SignalSafe,
            ExposurePolicy::Half,
            Exposer::Handler,
            ntasks,
        )
        .assert_exhaustive_pass("Half (SignalSafe + Half, handler)");
    }
}

/// The §4 scenario in isolation: no thief, just the owner's pop racing a
/// handler exposure of the task under its feet, including the
/// `pop_public_bottom` index repair (`bot ← public_bot` when the public
/// part is empty).
#[test]
fn signalsafe_owner_vs_handler_only() {
    let report = explore(Options::default(), || {
        let d = SplitDeque::new(8);
        d.push_bottom(cookie(0));
        let taken = Mutex::new(Vec::new());
        Execution::new()
            .thread("owner", || {
                pause();
                let job = d
                    .pop_bottom(PopBottomMode::SignalSafe)
                    .or_else(|| d.pop_public_bottom());
                if let Some(t) = job {
                    taken.lock().unwrap().push(uncookie(t));
                }
                pause();
            })
            .handler_on(0, || {
                d.update_public_bottom(ExposurePolicy::One);
            })
            .run();
        let mut all = taken.into_inner().unwrap();
        drain_owner(&d, &mut all);
        check_no_loss_no_dup(all, 1)?;
        check_drained(&d)
    });
    report.assert_exhaustive_pass("§4 owner-vs-handler with index repair");
}

/// The no-re-entry rule (DESIGN.md §4): the owner itself runs
/// `update_public_bottom` for every request it serves at a task boundary,
/// and its handler may land between that call's loads and its store. Two
/// deliveries there (one handler run doing the body twice — the explorer
/// delivers at most once) move `public_bot` two up, and the outer store
/// then *lowers* it by one under a thief. `marked` is
/// `HandlerCtx::exposing`: up around the owner's call, and the handler
/// returns early under it. Checks that `public_bot` never moves down.
fn check_owner_exposure_vs_own_handler(marked: bool) -> Report {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const NTASKS: usize = 4;
    explore(Options::default(), || {
        let d = SplitDeque::new(8);
        for i in 0..NTASKS {
            d.push_bottom(cookie(i));
        }
        let taken = Mutex::new(Vec::new());
        let exposing = AtomicBool::new(false);
        let high_water = AtomicU64::new(0);
        Execution::new()
            .thread("owner", || {
                pause();
                exposing.store(marked, Ordering::Relaxed);
                d.update_public_bottom(ExposurePolicy::One);
                exposing.store(false, Ordering::Relaxed);
                pause();
            })
            .thread("thief", || {
                if let Steal::Ok(t) = d.pop_top() {
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .handler_on(0, || {
                if exposing.load(Ordering::Relaxed) {
                    return;
                }
                d.update_public_bottom(ExposurePolicy::One);
                d.update_public_bottom(ExposurePolicy::One);
                high_water.store(d.raw_state().1, Ordering::Relaxed);
            })
            .run();
        let (high, public_bot) = (high_water.into_inner(), d.raw_state().1);
        if public_bot < high {
            return Err(format!("public_bot moved down: {high} -> {public_bot}"));
        }
        let mut all = taken.into_inner().unwrap();
        drain_owner(&d, &mut all);
        check_no_loss_no_dup(all, NTASKS)
    })
}

#[test]
fn owner_exposure_is_not_clobbered_by_its_own_handler() {
    check_owner_exposure_vs_own_handler(true)
        .assert_exhaustive_pass("owner-side exposure vs its own handler, mark up");
    let v = check_owner_exposure_vs_own_handler(false)
        .violation
        .expect("without the mark the outer store must lower public_bot");
    assert!(v.message.contains("moved down"), "{}", v.message);
}

// ---------------------------------------------------------------------------
// Ring growth (the Resize decision point).
// ---------------------------------------------------------------------------

/// Owner-grow vs thief-steal vs handler-expose on a capacity-2 split
/// deque: the owner's third push must double the ring, so its grow-publish
/// store and the thief's buffer capture become scheduling points. The DFS
/// covers both sides of the race that decides whether growth happens at
/// all — if the thief's CAS lands before the owner's full-check refresh,
/// `top` has advanced and the push fits without growing — and, in the
/// growing branch, every placement of the thief's capture and the
/// handler's exposure around the copy/publish window. Stale captures must
/// be harmless (the thief's `top` CAS validates them) and the retired
/// ring's contents must never be re-read after a steal.
#[test]
fn split_resize_vs_thief_and_handler() {
    let ntasks = 3;
    let report = explore(Options::default(), || {
        let d = SplitDeque::new(2);
        d.push_bottom(cookie(0));
        d.push_bottom(cookie(1));
        // Seed the public part so the thief races the growth, not just the
        // exposure.
        d.update_public_bottom(ExposurePolicy::One);
        let taken = Mutex::new(Vec::new());
        Execution::new()
            .thread("owner", || {
                pause();
                // The ring holds 2 of 2 slots: this push grows 2 → 4
                // unless the thief's steal already advanced `top`.
                d.push_bottom(cookie(2));
                let job = d
                    .pop_bottom(PopBottomMode::SignalSafe)
                    .or_else(|| d.pop_public_bottom());
                if let Some(t) = job {
                    taken.lock().unwrap().push(uncookie(t));
                }
                pause();
            })
            .thread("thief", || {
                if let Steal::Ok(t) = d.pop_top() {
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .handler_on(0, || {
                d.update_public_bottom(ExposurePolicy::One);
            })
            .run();
        if d.generation() > 1 {
            return Err(format!(
                "at most one doubling is reachable, generation = {}",
                d.generation()
            ));
        }
        let mut all = taken.into_inner().unwrap();
        drain_owner(&d, &mut all);
        check_no_loss_no_dup(all, ntasks)?;
        check_drained(&d)
    });
    report.assert_exhaustive_pass("split resize vs thief vs handler");
    assert!(
        report.schedules >= 100,
        "resize + handler injection must multiply the schedule count, got {}",
        report.schedules
    );
}

/// Owner-grow vs thief-steal on a capacity-2 ABP deque: same Resize
/// decision point over the fully-concurrent deque, where the thief's
/// capture races the owner's publish directly (no exposure step).
#[test]
fn abp_resize_vs_thief() {
    let ntasks = 3;
    let report = explore(Options::default(), || {
        let d = AbpDeque::new(2);
        d.push_bottom(cookie(0));
        d.push_bottom(cookie(1));
        let taken = Mutex::new(Vec::new());
        Execution::new()
            .thread("owner", || {
                d.push_bottom(cookie(2));
                if let Some(t) = d.pop_bottom() {
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .thread("thief", || {
                if let AbpSteal::Ok(t) = d.pop_top() {
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .run();
        if d.generation() > 1 {
            return Err(format!(
                "at most one doubling is reachable, generation = {}",
                d.generation()
            ));
        }
        let mut all = taken.into_inner().unwrap();
        while let Some(t) = d.pop_bottom() {
            all.push(uncookie(t));
        }
        check_no_loss_no_dup(all, ntasks)?;
        check_abp_drained(&d)
    });
    report.assert_exhaustive_pass("ABP resize vs thief");
    assert!(
        report.schedules >= 20,
        "expected a real interleaving space, got {}",
        report.schedules
    );
}

// ---------------------------------------------------------------------------
// High indices: the same races with the indices crossing 2³².
// ---------------------------------------------------------------------------

/// Signal pairing (SignalSafe + One, handler injection) with the indices
/// crossing 2³² mid-race: two tasks from `u32::MAX - 1` put `bot` exactly
/// on 2³² while the deque is full.
#[test]
fn wrapped_era_signalsafe_handler_race() {
    for ntasks in [1, 2, 3] {
        let report = check_split_from(
            PopBottomMode::SignalSafe,
            ExposurePolicy::One,
            Exposer::Handler,
            ntasks,
            u64::from(u32::MAX) - 1,
        );
        report.assert_exhaustive_pass("wrapped era (SignalSafe + One, handler)");
        assert!(
            report.schedules >= 10,
            "expected a real interleaving space, got {}",
            report.schedules
        );
    }
}

/// USLCWS pairing (Standard + One, owner-side exposure) across the same
/// index: the Standard pop's decrement and the public-bottom compare both
/// cross it.
#[test]
fn wrapped_era_uslcws_owner_race() {
    for ntasks in [1, 2] {
        check_split_from(
            PopBottomMode::Standard,
            ExposurePolicy::One,
            Exposer::Owner,
            ntasks,
            u64::from(u32::MAX) - 1,
        )
        .assert_exhaustive_pass("wrapped era (Standard + One, owner-side)");
    }
}

/// Half exposure across 2³²: `round(r/2)` of the public-bottom advance
/// lands above it while the thief steals from just below it.
#[test]
fn wrapped_era_half_exposure_race() {
    for ntasks in [2, 3] {
        check_split_from(
            PopBottomMode::SignalSafe,
            ExposurePolicy::Half,
            Exposer::Handler,
            ntasks,
            u64::from(u32::MAX) - 2,
        )
        .assert_exhaustive_pass("wrapped era (SignalSafe + Half, handler)");
    }
}

/// Start index for the drained-deque scenarios below: past 2³¹, which an
/// empty pop that stored an index far below `top` would turn into a
/// *positive* signed distance for a draining thief.
const DRAINED_START: u64 = u32::MAX as u64 - 2;

/// One task, a thief that steals twice, and an owner pop that finds the
/// deque already drained. The owner's empty pop must leave `bot` at `top`:
/// a thief pairing `top` with a `bot` it could read as ahead of it would
/// pass its CAS and return a slot that was never pushed (null).
#[test]
fn ws_abp_drained_pop_vs_thief_stealing_twice() {
    check_abp(1, DRAINED_START, 2).assert_exhaustive_pass("ABP drained pop vs two steals");
}

/// The split twins: one task at [`DRAINED_START`], exposed by the owner
/// (USLCWS) or by a handler (Signal), one owner pop round, and a thief that
/// keeps stealing while it succeeds, up to twice: the owner's drained
/// public pop must leave `public_bot` at `top`. No leading or trailing
/// pause, unlike [`check_split`]: a delivery before the owner's first access
/// is already an option, and the second steal would make the space too
/// large to exhaust.
fn check_split_drained(mode: PopBottomMode, exposer: Exposer) -> Report {
    explore(Options::default(), || {
        let d = SplitDeque::new(8);
        d.set_start_index(DRAINED_START);
        d.push_bottom(cookie(0));
        let taken = Mutex::new(Vec::new());
        let exec = Execution::new()
            .thread("owner", || {
                if exposer == Exposer::Owner {
                    d.update_public_bottom(ExposurePolicy::One);
                }
                if let Some(t) = d.pop_bottom(mode).or_else(|| d.pop_public_bottom()) {
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .thread("thief", || {
                for _ in 0..2 {
                    let Steal::Ok(t) = d.pop_top() else { break };
                    taken.lock().unwrap().push(uncookie(t));
                }
            });
        let exec = match exposer {
            Exposer::Owner => exec,
            Exposer::Handler => exec.handler_on(0, || {
                d.update_public_bottom(ExposurePolicy::One);
            }),
        };
        exec.run();
        let mut all = taken.into_inner().unwrap();
        drain_owner(&d, &mut all);
        check_no_loss_no_dup(all, 1)?;
        check_drained(&d)
    })
}

#[test]
fn uslcws_drained_public_pop_vs_thief_stealing_twice() {
    check_split_drained(PopBottomMode::Standard, Exposer::Owner)
        .assert_exhaustive_pass("USLCWS drained public pop vs two steals");
}

#[test]
fn signal_drained_public_pop_vs_thief_stealing_twice() {
    check_split_drained(PopBottomMode::SignalSafe, Exposer::Handler)
        .assert_exhaustive_pass("Signal drained public pop vs two steals");
}

/// Signal pairing with every task already public and the private part
/// empty (what a `Half` serve of three or more, or two `One` serves,
/// leaves): the owner's SignalSafe pop must still decrement `bot` before it
/// reports a miss. If it returned with `bot == public_bot`, the handler
/// could land after `pop_public_bottom`'s `public_bot` decrement, read one
/// private task and re-expose the slot the owner is taking; the owner's
/// next public pop (the drain) or a thief would then take it again. The
/// thief steals once: the drain already exposes the double take, and a
/// second steal multiplies the space past what a test run can exhaust.
#[test]
fn signal_all_public_pop_vs_handler_and_thief() {
    const NTASKS: usize = 2;
    let report = explore(Options::default(), || {
        let d = SplitDeque::new(8);
        for i in 0..NTASKS {
            d.push_bottom(cookie(i));
        }
        d.expose_all();
        let taken = Mutex::new(Vec::new());
        Execution::new()
            .thread("owner", || {
                let job = d
                    .pop_bottom(PopBottomMode::SignalSafe)
                    .or_else(|| d.pop_public_bottom());
                if let Some(t) = job {
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .thread("thief", || {
                if let Steal::Ok(t) = d.pop_top() {
                    taken.lock().unwrap().push(uncookie(t));
                }
            })
            .handler_on(0, || {
                d.update_public_bottom(ExposurePolicy::One);
            })
            .run();
        let mut all = taken.into_inner().unwrap();
        drain_owner(&d, &mut all);
        check_no_loss_no_dup(all, NTASKS)?;
        check_drained(&d)
    });
    report.assert_exhaustive_pass("Signal all-public pop vs handler and thief");
}

// ---------------------------------------------------------------------------
// Batch steals: the multi-slot take's single validating CAS. No pool
// steals in batches; `pop_top_batch` and these scenarios stay while the
// benchmark (`lcws-e2e`) measures it.
// ---------------------------------------------------------------------------

/// A batch thief racing the owner's SignalSafe pop while a handler exposes
/// Half — the pairing the pool's deleted batch steal ran. The batch
/// thief's k slot reads are validated by one `top` CAS (§4's argument
/// extended to multi-slot takes: the CAS pins `top`, and concurrent
/// exposures only move `public_bot` away from the stolen range); the
/// explorer must find no interleaving where a slot is delivered twice or
/// dropped, including handler exposures landing between the batch's slot
/// reads and its CAS.
fn check_split_batch(ntasks: usize, start: u64) -> Report {
    explore(Options::default(), || {
        let d = SplitDeque::new(8);
        d.set_start_index(start);
        for i in 0..ntasks {
            d.push_bottom(cookie(i));
        }
        let taken = Mutex::new(Vec::new());
        Execution::new()
            .thread("owner", || {
                pause();
                let job = d
                    .pop_bottom(PopBottomMode::SignalSafe)
                    .or_else(|| d.pop_public_bottom());
                if let Some(t) = job {
                    taken.lock().unwrap().push(uncookie(t));
                }
                pause();
            })
            .thread("batch-thief", || {
                steal_batch_into(&d, &taken);
            })
            .handler_on(0, || {
                d.update_public_bottom(ExposurePolicy::Half);
            })
            .run();

        let mut all = taken.into_inner().unwrap();
        drain_owner(&d, &mut all);
        check_no_loss_no_dup(all, ntasks)?;
        check_drained(&d)
    })
}

#[test]
fn batch_steal_vs_owner_and_handler() {
    for ntasks in [2, 3] {
        let report = check_split_batch(ntasks, 0);
        report.assert_exhaustive_pass("batch steal (SignalSafe + Half + batch CAS)");
        assert!(
            report.schedules >= 100,
            "handler injection must multiply the schedule count, got {}",
            report.schedules
        );
    }
}

/// The same batch race started just below 2³²: the batch's `top + i` slot
/// walk and its `top + k` CAS both cross it.
#[test]
fn wrapped_era_batch_steal_race() {
    for ntasks in [2, 3] {
        check_split_batch(ntasks, u64::from(u32::MAX) - 2)
            .assert_exhaustive_pass("wrapped era batch steal");
    }
}

/// Two thieves — one batch, one scalar — fighting over a pre-exposed run
/// of tasks, with no owner or handler in the race (their interplay is
/// covered above; leaving them out keeps the space exhaustively small).
/// Exactly one CAS can win each slot range: the batch's multi-slot take
/// and the scalar steal must partition the public region with no slot
/// delivered twice and none dropped, in every interleaving — including the
/// one where the scalar CAS lands between the batch's slot reads and its
/// validating CAS (which must then abort or re-window, never deliver stale
/// slots).
#[test]
fn batch_steal_vs_scalar_steal_single_winner_per_slot() {
    for ntasks in [2, 3] {
        let report = explore(Options::default(), || {
            let d = SplitDeque::new(8);
            for i in 0..ntasks {
                d.push_bottom(cookie(i));
            }
            // Whole region public: the two thieves race pure steal CASes.
            d.expose_all();
            let taken = Mutex::new(Vec::new());
            Execution::new()
                .thread("batch-thief", || {
                    steal_batch_into(&d, &taken);
                })
                .thread("scalar-thief", || {
                    if let Steal::Ok(t) = d.pop_top() {
                        taken.lock().unwrap().push(uncookie(t));
                    }
                })
                .run();
            // Thief-side drain of whatever the racers left.
            let mut all = taken.into_inner().unwrap();
            loop {
                match d.pop_top() {
                    Steal::Ok(t) => all.push(uncookie(t)),
                    Steal::Abort => continue,
                    Steal::Empty | Steal::PrivateWork => break,
                }
            }
            check_no_loss_no_dup(all, ntasks)
        });
        report.assert_exhaustive_pass("batch CAS vs scalar CAS single winner");
        assert!(
            report.schedules >= 10,
            "expected a real interleaving space, got {}",
            report.schedules
        );
    }
}

/// The batch steal's open window (DESIGN.md §5h), why no pool steals in
/// batches: the owner pops *twice* from a fully public region of three
/// while a batch thief validates `k = 2` slot reads with one `top` CAS. `pop_public_bottom`
/// takes the bottom public task without touching `top` while more than one
/// remains, so two owner pops walk `public_bot` down into `[top, top + k)`
/// and the thief's CAS still succeeds — task 1 is delivered to both.
/// `batch_steal_vs_owner_and_handler` cannot see it: its owner pops once.
///
/// A *detection* test, like `standard_half_double_take_detected`: the
/// explorer must find the double take while `pop_top_batch` exists.
#[test]
fn batch_steal_double_take_detected() {
    const NTASKS: usize = 3;
    let report = explore(Options::default(), || {
        let d = SplitDeque::new(8);
        for i in 0..NTASKS {
            d.push_bottom(cookie(i));
        }
        d.expose_all();
        let taken = Mutex::new(Vec::new());
        Execution::new()
            .thread("owner", || {
                for _ in 0..2 {
                    let job = d
                        .pop_bottom(PopBottomMode::SignalSafe)
                        .or_else(|| d.pop_public_bottom());
                    if let Some(t) = job {
                        taken.lock().unwrap().push(uncookie(t));
                    }
                }
            })
            .thread("batch-thief", || {
                steal_batch_into(&d, &taken);
            })
            .run();
        let mut all = taken.into_inner().unwrap();
        drain_owner(&d, &mut all);
        check_no_loss_no_dup(all, NTASKS)
    });
    let v = report
        .violation
        .expect("two owner pops vs a k=2 batch steal must double-take");
    assert!(
        v.message.contains("loss/duplication"),
        "unexpected violation kind: {}",
        v.message
    );
    // The window itself: both owner `public_bot` decrements land between
    // the thief's snapshot and its still-successful CAS.
    let cas = v
        .trace
        .iter()
        .position(|l| l.starts_with("batch-thief: cas top") && l.ends_with("ok"))
        .unwrap_or_else(|| panic!("no successful batch CAS in:\n{}", v.render()));
    let owner_stores = v.trace[..cas]
        .iter()
        .filter(|l| l.starts_with("owner: store public_bot"))
        .count();
    assert_eq!(
        owner_stores,
        2,
        "expected two owner public_bot stores before the thief's CAS:\n{}",
        v.render()
    );
    eprintln!("{}", v.render());
}

// ---------------------------------------------------------------------------
// Negative: the known-unsound pairing must be *detected*.
// ---------------------------------------------------------------------------

/// `Standard` pop + `Half` exposure is the combination §4 warns about: the
/// handler can expose the task the owner has already committed to taking
/// (between the owner's `public_bot` load and its `bot` store), after which
/// a thief steals the same slot — a double-take. The explorer must find it.
#[test]
fn standard_half_double_take_detected() {
    let report = check_split(
        PopBottomMode::Standard,
        ExposurePolicy::Half,
        Exposer::Handler,
        1,
    );
    let v = report
        .violation
        .expect("Standard+Half must double-take under handler exposure");
    assert!(
        v.message.contains("loss/duplication"),
        "unexpected violation kind: {}",
        v.message
    );
    assert!(
        v.trace.iter().any(|l| l.contains("SIGUSR1")),
        "the counterexample must involve a signal delivery:\n{}",
        v.render()
    );
    assert!(!v.schedule.is_empty());
    // The rendered trace is the artefact EXPERIMENTS.md walks through.
    eprintln!("{}", v.render());
}

/// Same unsoundness, base policy: `Standard` + `One` under handler
/// exposure double-takes too (this is *why* the base signal variant uses
/// the SignalSafe pop).
#[test]
fn standard_one_double_take_detected() {
    let report = check_split(
        PopBottomMode::Standard,
        ExposurePolicy::One,
        Exposer::Handler,
        1,
    );
    let v = report
        .violation
        .expect("Standard+One must double-take under handler exposure");
    assert!(v.message.contains("loss/duplication"));
    assert!(v.trace.iter().any(|l| l.contains("SIGUSR1")));
}
