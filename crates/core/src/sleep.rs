//! Adaptive idle management for the steal loop: spin → yield → park.
//!
//! The schedulers' thieves used to busy-wait (`yield_now` per idle
//! iteration) whenever no work was stealable. That burns a full core per
//! idle worker, inflates the `IdleIter` profile, and — on loaded machines —
//! steals cycles from the workers that *do* have work. This module gives
//! each pool a [`Sleep`] subsystem with the classic three-stage escalation:
//!
//! 1. **Spin**: a bounded number of `spin_loop` rounds, keeping the thief
//!    hot for the common case where work reappears within microseconds.
//! 2. **Yield**: a bounded number of `yield_now` rounds, giving the OS a
//!    chance to run somebody useful while staying runnable.
//! 3. **Park**: block on a per-worker mutex/condvar slot, registered in a
//!    pool-wide sleeper set so producers can find and wake sleepers in
//!    `O(words)` time.
//!
//! ## The announce-then-sleep race (no lost wakeups)
//!
//! Parking uses an eventcount protocol around a global [`Sleep::epoch`]:
//!
//! * **Sleeper**: read `epoch` (SeqCst) → publish the worker's bit in the
//!   sleeper mask (`fetch_or`, SeqCst — a full barrier) → *recheck* for
//!   work → take the slot lock and re-validate (`epoch` unchanged and no
//!   wakeup pending) → wait on the condvar.
//! * **Waker**: make the work visible (push / boundary move) → bump
//!   `epoch` (SeqCst RMW) → scan the mask → mark each chosen slot woken
//!   under its lock → `notify_one`.
//!
//! In the SeqCst total order, either the waker's epoch bump precedes the
//! sleeper's epoch read — then the sleeper's recheck (or its under-lock
//! epoch re-validation) observes the work/bump and aborts the park — or
//! the sleeper's mask publication precedes the waker's mask scan, and the
//! waker delivers a wakeup through the slot (the `woken` flag absorbs a
//! notify that lands before the wait starts). Either way, no wakeup is
//! lost. Every park is nevertheless *timed*: the one producer-side gate
//! that is deliberately racy ([`Sleep::wake_one`]'s Relaxed empty-set
//! check) can miss a sleeper, and the backstop ([`PARK_TIMEOUT`], or
//! [`WAITER_PARK_TIMEOUT`] for a worker waiting on a completion) bounds
//! what that costs.
//!
//! ## What wakes sleepers
//!
//! * Every push on any deque (`join`'s arm, `Scope::spawn`'s task:
//!   new local work a thief could take or expose): one wake per push.
//! * Work-exposure events on a split deque, served by the owner's poll or
//!   by the `SIGUSR1` handler, and *deferred to the owner* either way (next
//!   point).
//! * Pool run close (`done_epoch` store), which wakes **all** sleepers so
//!   helpers can observe `finished()` and quiesce.
//!
//! The `SIGUSR1` handler itself must **never** call the waker: condvar
//! notify takes a lock and is not async-signal-safe (the interrupted
//! thread might hold that very lock). The serve only stores a flag
//! ([`crate::pool::WorkerShared::wake_pending`]); the owner drains the
//! flag and performs the wake right after its own serve or on its next
//! deque access, keeping the handler confined to flag stores.
//!
//! * External submission into the global injector
//!   ([`crate::ThreadPool::spawn`] / `spawn_batch`), which must be able to
//!   rouse a fully parked `serve`-mode pool: one wake per published task,
//!   up to the pool size, since a worker pulls one task and passes no wake on.
//! * Completion of something a worker waits for, as a **targeted** wake
//!   ([`Sleep::wake_worker`]). One rule for every completion: *publish
//!   with SeqCst, then wake the waiter*; the waiter's side is `park`
//!   itself — announce the mask bit (SeqCst RMW), then recheck completion
//!   (SeqCst load). In the SeqCst total order either the completer's mask
//!   load follows the announce — it sees the bit and delivers through the
//!   slot — or it precedes it, and then so does the publication that is
//!   program-ordered before that load, so the recheck sees completion and
//!   the park aborts. There is no third interleaving.
//!
//!   Who the waiter is needs no registration where it is known in
//!   advance: only the worker that pushed a `join` arm can wait on it, and
//!   only the worker that opened a `scope` drains it, so both carry that
//!   worker's index as a plain field written before the job is published.
//!   The completer reads it *before* publishing (its last legal touch of a
//!   frame the waiter may free the instant completion is visible), and —
//!   for a `join` arm — pays the SeqCst store and the wake only on a
//!   *steal*: the pop-it-back path runs the arm as a direct call and
//!   stores nothing. A spawn handle's joiner is not known at spawn time,
//!   so `TaskState` keeps a slot the joining worker writes once before it
//!   starts helping; the `Arc` keeps the slot alive, so the completer
//!   loads it *after* publishing `DONE` and the same argument covers a
//!   registration racing the completion.

use std::sync::atomic::Ordering;
use std::time::Duration;

use crossbeam_utils::CachePadded;
use lcws_metrics::{self as metrics, Event};
use parking_lot::{Condvar, Mutex};

use crate::fault::{self, Site};
use crate::shim::AtomicU64;
use crate::trace;

/// Spin-loop rounds before escalating to yields (stage 1 length).
const SPIN_ROUNDS: u32 = 64;
/// `yield_now` rounds before escalating to parking (stage 2 length).
const YIELD_ROUNDS: u32 = 16;
/// Timed-park backstop of the helper main loop: the longest an idle worker
/// stays blocked without re-polling, bounding the cost of a work wake
/// missed by [`Sleep::wake_one`]'s racy gate to one timeout.
pub(crate) const PARK_TIMEOUT: Duration = Duration::from_millis(1);
/// Backstop for a worker waiting on a completion (stolen `join` arm, scope
/// drain, spawn handle). What it waits for arrives through
/// [`Sleep::wake_worker`], which cannot be missed; the re-poll only
/// recovers *optional* helping after a missed work wake, so it is ~50×
/// lazier than [`PARK_TIMEOUT`] and a long wait is not a run of spurious
/// wakes (asserted in `tests/sleeper.rs`).
pub(crate) const WAITER_PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// What the backoff ladder tells an idle worker to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdleAction {
    /// Stay hot: issue a few `spin_loop` hints.
    Spin,
    /// Stay runnable but let others in: `yield_now`.
    Yield,
    /// Escalate to a timed condvar park.
    Park,
}

/// Per-idle-episode escalation state. One instance lives on the stack of
/// each steal/wait loop; `reset` on any progress.
#[derive(Default)]
pub(crate) struct IdleBackoff {
    step: u32,
}

impl IdleBackoff {
    /// Record that the worker made progress: restart the ladder.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.step = 0;
    }

    /// Next action for one fruitless iteration.
    #[inline]
    pub(crate) fn next(&mut self) -> IdleAction {
        let step = self.step;
        self.step = self.step.saturating_add(1);
        if step < SPIN_ROUNDS {
            IdleAction::Spin
        } else if step < SPIN_ROUNDS + YIELD_ROUNDS {
            IdleAction::Yield
        } else {
            IdleAction::Park
        }
    }

    /// A park attempt did not block: work is visible, none stealable yet.
    /// Drop to the yield rung instead of re-announcing next iteration — two
    /// SeqCst RMWs on `mask`, and the set bit attracts wakes on `epoch`.
    #[inline]
    pub(crate) fn park_aborted(&mut self) {
        self.step = SPIN_ROUNDS;
    }

    /// Execute one non-parking action (shared by all idle loops).
    #[inline]
    pub(crate) fn relax(action: IdleAction) {
        match action {
            IdleAction::Spin => {
                for _ in 0..8 {
                    std::hint::spin_loop();
                }
            }
            IdleAction::Yield | IdleAction::Park => std::thread::yield_now(),
        }
    }
}

/// One worker's parking place.
struct SleepSlot {
    /// `true` while a wakeup is pending for this slot; set by wakers under
    /// the lock, consumed by the sleeper.
    woken: Mutex<bool>,
    cv: Condvar,
}

/// Pool-wide sleeper subsystem: the eventcount epoch, the sleeper set, and
/// one [`SleepSlot`] per worker.
pub(crate) struct Sleep {
    /// Eventcount epoch; bumped (SeqCst) by every wake so in-flight parks
    /// can detect that a wakeup raced past them.
    epoch: CachePadded<AtomicU64>,
    /// Sleeper set: bit `w % 64` of word `w / 64` is set while worker `w`
    /// is announcing or inside a park.
    mask: Box<[CachePadded<AtomicU64>]>,
    slots: Box<[SleepSlot]>,
}

impl Sleep {
    pub(crate) fn new(workers: usize) -> Sleep {
        let words = workers.div_ceil(64).max(1);
        Sleep {
            epoch: CachePadded::new(AtomicU64::new(0)),
            mask: (0..words)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            slots: (0..workers)
                .map(|_| SleepSlot {
                    woken: Mutex::new(false),
                    cv: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Fast-path producer gate: is any worker announced in the sleeper set?
    /// One relaxed load per mask word — this is all a push pays when nobody
    /// sleeps, keeping the sleeper invisible on the hot path.
    #[inline]
    pub(crate) fn has_sleepers(&self) -> bool {
        self.mask.iter().any(|w| w.load(Ordering::Relaxed) != 0)
    }

    /// Is worker `index` currently announced in the sleeper set (racy)?
    /// Diagnostic only — the stall watchdog's report uses it to distinguish
    /// parked helpers from ones still running (or dead); never used for
    /// wake decisions.
    pub(crate) fn is_sleeping(&self, index: usize) -> bool {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        self.mask[word].load(Ordering::Relaxed) & bit != 0
    }

    /// Block worker `index` until woken, the timed `backstop` fires, or
    /// `abort` reports that parking is (no longer) warranted.
    ///
    /// `abort` is re-evaluated *after* the worker announces itself
    /// in the sleeper set — that ordering, against the waker's
    /// publish-then-read-the-mask ordering, is what closes the
    /// announce-then-sleep race (see the module docs).
    /// Returns whether the worker blocked (`false`: an aborted park).
    pub(crate) fn park(&self, index: usize, backstop: Duration, abort: impl Fn() -> bool) -> bool {
        let slot = &self.slots[index];
        let (word, bit) = (index / 64, 1u64 << (index % 64));

        // A delay here stretches the decide-to-sleep → announce window the
        // eventcount protocol must tolerate.
        fault::point(Site::SleeperPark);
        // Eventcount read: any wake that happens after this point either
        // bumps the epoch we re-validate under the lock, or sees our mask
        // bit and delivers through the slot.
        let epoch = self.epoch.load(Ordering::SeqCst);
        // Announce. SeqCst RMW: full barrier between the announcement and
        // the recheck's loads.
        self.mask[word].fetch_or(bit, Ordering::SeqCst);

        // And here the announce → recheck window, against racing wakers.
        fault::point(Site::SleeperPark);
        // Recheck: did work appear (or the run finish) while we decided to
        // sleep? Producers publish work *before* scanning the mask, so
        // missing it here means they will see our bit.
        if abort() {
            self.retire(index);
            return false;
        }

        let mut woken = slot.woken.lock();
        // A waker that bumped the epoch after our read above may have
        // already marked us woken, or may still be about to; either way the
        // epoch moved and we must not block on a condvar nobody will ping.
        if *woken || self.epoch.load(Ordering::SeqCst) != epoch {
            *woken = false;
            drop(woken);
            self.retire(index);
            return false;
        }

        trace::emit(Event::Park, 1, 0);
        let _ = slot.cv.wait_for(&mut woken, backstop);
        if *woken {
            *woken = false;
        } else {
            // Timeout expiry or spurious condvar return: nobody signed up
            // to wake us, so count it against the backstop.
            trace::emit(Event::SpuriousWake, 1, 0);
        }
        drop(woken);
        self.retire(index);
        true
    }

    /// Withdraw worker `index` from the sleeper set and absorb any wakeup
    /// that was delivered concurrently (so a stale `woken` can never leak
    /// into the next park).
    pub(crate) fn retire(&self, index: usize) {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        self.mask[word].fetch_and(!bit, Ordering::SeqCst);
        let mut woken = self.slots[index].woken.lock();
        *woken = false;
    }

    /// Wake one sleeper, if any. Producers call this after making new work
    /// visible (push, exposure). Cheap when the sleeper set is empty.
    ///
    /// The empty-set gate is a Relaxed load, so a store-buffering
    /// interleaving exists where the producer's work-store is not yet
    /// visible to a sleeper's recheck while the sleeper's mask bit is not
    /// yet visible here (closing it would put a SeqCst fence on every
    /// producer fast path — the very cost this crate exists to avoid). The
    /// window costs at most one [`PARK_TIMEOUT`], absorbed by the timed
    /// park.
    #[inline]
    pub(crate) fn wake_one(&self) {
        // Counted before the empty-set gate: redundant notifications (e.g.
        // a batch submission's per-task wakes on a busy pool) are exactly
        // what the counter exists to expose.
        metrics::bump(Event::WakeAttempt);
        if self.has_sleepers() {
            self.wake_one_sleeper();
        }
    }

    /// [`Sleep::wake_one`] past its gate.
    #[cold]
    #[inline(never)]
    fn wake_one_sleeper(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for (w, word) in self.mask.iter().enumerate() {
            let mut bits = word.load(Ordering::SeqCst);
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.deliver(w * 64 + bit) {
                    return;
                }
            }
        }
    }

    /// Targeted wake of worker `index` (completion wakes). One SeqCst
    /// mask-word load when the target is not announced; epoch bump + slot
    /// delivery when it is.
    ///
    /// Pairing with [`Sleep::park`]: the waiter announces its mask bit
    /// (SeqCst RMW) *before* its recheck loads. If this load misses the
    /// bit, the announce is later in the SeqCst order, so the caller's
    /// **SeqCst** publication of completion, program-ordered before this
    /// call, is visible to the waiter's SeqCst recheck — the park aborts
    /// without needing us. (A Release publication would not do: the mask
    /// load could be satisfied while the store still sits in the store
    /// buffer.)
    pub(crate) fn wake_worker(&self, index: usize) {
        metrics::bump(Event::WakeAttempt);
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if self.mask[word].load(Ordering::SeqCst) & bit == 0 {
            return;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.deliver(index);
    }

    /// Wake every sleeper (run close, teardown).
    pub(crate) fn wake_all(&self) {
        metrics::bump(Event::WakeAttempt);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for (w, word) in self.mask.iter().enumerate() {
            let mut bits = word.load(Ordering::SeqCst);
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.deliver(w * 64 + bit);
            }
        }
    }

    /// Mark `index`'s slot woken and ping its condvar. Returns whether a
    /// wakeup was (newly) delivered.
    fn deliver(&self, index: usize) -> bool {
        // A delay between choosing a sleeper and pinging its slot races the
        // sleeper's own retire/re-park transitions.
        fault::point(Site::SleeperUnpark);
        let slot = &self.slots[index];
        let mut woken = slot.woken.lock();
        if *woken {
            // Already has a pending wakeup from another producer.
            return false;
        }
        *woken = true;
        slot.cv.notify_one();
        // Recorded on the *waker's* ring: the wake decision is its event.
        trace::emit(Event::Unpark, 1, index as u32);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn backoff_escalates_and_resets() {
        let mut b = IdleBackoff::default();
        for _ in 0..SPIN_ROUNDS {
            assert_eq!(b.next(), IdleAction::Spin);
        }
        for _ in 0..YIELD_ROUNDS {
            assert_eq!(b.next(), IdleAction::Yield);
        }
        assert_eq!(b.next(), IdleAction::Park);
        assert_eq!(b.next(), IdleAction::Park);
        b.reset();
        assert_eq!(b.next(), IdleAction::Spin);
    }

    #[test]
    fn aborted_park_reenters_the_ladder_below_the_park_rung() {
        // 1 000 fruitless iterations with work visible the whole time: one
        // announce per YIELD_ROUNDS + 1 iterations once the ladder is
        // climbed, not one per iteration.
        let sleep = Sleep::new(1);
        let mut b = IdleBackoff::default();
        let mut announces = 0;
        for _ in 0..1_000 {
            if b.next() == IdleAction::Park {
                announces += 1;
                assert!(!sleep.park(0, PARK_TIMEOUT, || true), "nothing blocked");
                b.park_aborted();
            }
        }
        assert_eq!(
            announces,
            (1_000 - SPIN_ROUNDS - YIELD_ROUNDS).div_ceil(YIELD_ROUNDS + 1),
            "aborted parks must not re-announce every iteration"
        );
    }

    #[test]
    fn park_aborts_when_work_already_visible() {
        let sleep = Sleep::new(2);
        let start = Instant::now();
        sleep.park(0, PARK_TIMEOUT, || true);
        // An aborted park must not block for the timeout.
        assert!(start.elapsed() < PARK_TIMEOUT);
        assert!(!sleep.has_sleepers());
    }

    #[test]
    fn wake_one_wakes_a_parked_worker() {
        let sleep = Arc::new(Sleep::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let parks = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&sleep);
        let stop2 = Arc::clone(&stop);
        let parks2 = Arc::clone(&parks);
        let h = std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                s2.park(0, PARK_TIMEOUT, || stop2.load(Ordering::Acquire));
                parks2.fetch_add(1, Ordering::AcqRel);
            }
        });
        // Drive several wake rounds through the slot.
        for _ in 0..10 {
            let before = parks.load(Ordering::Acquire);
            sleep.wake_one();
            let t0 = Instant::now();
            while parks.load(Ordering::Acquire) == before {
                assert!(t0.elapsed() < Duration::from_secs(5), "wakeup lost");
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        sleep.wake_all();
        h.join().unwrap();
    }

    #[test]
    fn wake_all_wakes_every_parked_worker() {
        const P: usize = 4;
        let sleep = Arc::new(Sleep::new(P));
        let released = Arc::new(AtomicUsize::new(0));
        let go = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..P)
            .map(|i| {
                let sleep = Arc::clone(&sleep);
                let released = Arc::clone(&released);
                let go = Arc::clone(&go);
                std::thread::spawn(move || {
                    while !go.load(Ordering::Acquire) {
                        sleep.park(i, PARK_TIMEOUT, || go.load(Ordering::Acquire));
                    }
                    released.fetch_add(1, Ordering::AcqRel);
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        go.store(true, Ordering::Release);
        sleep.wake_all();
        let t0 = Instant::now();
        while released.load(Ordering::Acquire) != P {
            assert!(t0.elapsed() < Duration::from_secs(5), "a sleeper was lost");
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn no_lost_wakeup_under_contention() {
        // One producer repeatedly: publish a token, wake. One consumer:
        // park unless a token is visible, consume. If a wakeup could be
        // lost, the consumer would stall for the full timeout each round
        // and the loop would blow the deadline.
        let sleep = Arc::new(Sleep::new(1));
        let tokens = Arc::new(AtomicUsize::new(0));
        const ROUNDS: usize = 20_000;
        let s2 = Arc::clone(&sleep);
        let t2 = Arc::clone(&tokens);
        let consumer = std::thread::spawn(move || {
            let mut got = 0usize;
            while got < ROUNDS {
                if t2
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                    .is_ok()
                {
                    got += 1;
                } else {
                    s2.park(0, PARK_TIMEOUT, || t2.load(Ordering::Acquire) > 0);
                }
            }
        });
        for _ in 0..ROUNDS {
            tokens.fetch_add(1, Ordering::AcqRel);
            sleep.wake_one();
        }
        consumer.join().unwrap();
    }
}
