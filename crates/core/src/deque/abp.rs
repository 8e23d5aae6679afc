//! The fully-concurrent ABP-style work-stealing deque used by the WS
//! baseline (the deque Parlay's stock scheduler uses).
//!
//! Unlike the split deque, *every* slot can be taken by a thief at any time,
//! which forces the owner to pay a sequentially-consistent fence on **every**
//! `pop_bottom` (and to publish every `push_bottom` with a fence) — this is
//! the `O(W)`-fences synchronization cost LCWS eliminates, and exactly what
//! Figures 3a/8a of the paper ratio against.
//!
//! The implementation mirrors Parlay's `work_stealing_deque` (itself the
//! bounded-array deque of Arora–Blumofe–Plaxton), with the fence/CAS
//! placement preserved so the counted operations match. Where ABP keeps a
//! tagged `age = {tag, top}` word and resets an empty deque to index 0,
//! this one keeps Chase–Lev's monotone `u64` indices: the owner's
//! last-task CAS advances `top`, and an empty pop leaves `bot = top`.

use std::sync::atomic::Ordering;

use crossbeam_utils::CachePadded;
use lcws_metrics::{self as metrics, Event};

use crate::deque::ring::GrowableRing;
// Aliased locally: the ABP outcome type has no `PrivateWork` (there is no
// private part), and the alias keeps the paper-mirroring internals readable.
use crate::deque::{sdist, AbpSteal as Steal};
use crate::fault::{self, Site};
use crate::hb;
use crate::job::Job;
// Index words go through the shim atomics: plain std atomics in normal
// builds, DFS scheduling points under the opt-in `model` feature.
use crate::shim::{self, AtomicU64};
use crate::trace;

/// ABP deque: a monotone `top` at the top, `bot` at the bottom, slots in
/// a generation-tagged growable ring (see [`crate::deque::ring`]) instead
/// of the classic bounded array — `push_bottom` doubles on full, with the
/// fence/CAS placement of every operation unchanged from the bounded
/// version.
pub struct AbpDeque {
    top: CachePadded<AtomicU64>,
    bot: CachePadded<AtomicU64>,
    ring: CachePadded<GrowableRing>,
}

unsafe impl Send for AbpDeque {}
unsafe impl Sync for AbpDeque {}

impl AbpDeque {
    /// Create a deque whose ring starts at `capacity` slots (rounded up to
    /// a power of two) and doubles on demand up to
    /// [`crate::deque::ring::MAX_DEQUE_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        AbpDeque {
            top: CachePadded::new(shim::named_u64(0, "top")),
            bot: CachePadded::new(shim::named_u64(0, "bot")),
            ring: CachePadded::new(GrowableRing::new(capacity)),
        }
    }

    /// Current slot capacity of the ring (racy for non-owners).
    pub fn capacity(&self) -> usize {
        self.ring.capture().capacity() as usize
    }

    /// Number of ring doublings since construction (0 = still the initial
    /// buffer). Racy for non-owners, exact for the owner.
    pub fn generation(&self) -> u32 {
        self.ring.capture().generation()
    }

    /// Owner: push at the bottom, doubling the ring when full. Publishes
    /// with a seq-cst fence so concurrent thieves observe the slot before
    /// the new `bot`.
    #[inline]
    pub fn push_bottom(&self, task: *mut Job) {
        let b = self.bot.load(Ordering::Relaxed);
        let buf = self.ring.for_push(b, || self.top.load(Ordering::Relaxed));
        // Unlike the split deque (plain-array slot semantics, ordering
        // carried by `public_bot`/the grow publish), the ABP slot handoff
        // is itself Release/Acquire — so the checker models the slot as an
        // *atomic*, carrying the job-content edge to the thief, and leaves
        // race detection to the tracked job cells downstream.
        hb::atomic_store(buf.slot(b) as *const _ as usize, Ordering::Release, || {
            buf.slot(b).store(task, Ordering::Release)
        });
        self.bot.store(b + 1, Ordering::Release);
        shim::fence_seq_cst();
        trace::emit(Event::Push, 1, (b + 1) as u32);
    }

    /// Owner: pop from the bottom. Pays a seq-cst fence unless an earlier
    /// pop already found the deque empty and nothing was pushed since;
    /// pays a CAS too when racing thieves for the last task.
    pub fn pop_bottom(&self) -> Option<*mut Job> {
        fault::point(Site::PopBottom);
        let b = self.bot.load(Ordering::Relaxed);
        // `top_bound <= top <= bot`: `bot` at the owner's cached bound (set
        // where an empty pop re-anchored) proves the deque empty without a
        // fence or a read of the thieves' `top` line.
        if sdist(b, self.ring.top_bound()) <= 0 {
            return None;
        }
        let b1 = b - 1;
        self.bot.store(b1, Ordering::Relaxed);
        // The expensive fence WS pays on every local pop (cf. Attiya et
        // al.'s lower bound, discussed in the paper's introduction).
        shim::fence_seq_cst();
        let task = self.ring.owner().slot(b1).load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        if sdist(b1, t) > 0 {
            trace::emit(Event::LocalPop, 1, b1 as u32);
            return Some(task);
        }
        // Zero or one task left. Either way the deque ends empty at
        // `top == b`: a thief already took slot `b1` (`t == b`), or this
        // CAS or a thief's moves `top` from `b1` to `b`. So `b` is a valid
        // cached bound from the moment this pop returns.
        self.bot.store(b, Ordering::Relaxed);
        self.ring.set_top_bound(b);
        if b1 == t {
            metrics::record_cas();
            // Failure ordering Relaxed: the loaded-on-failure value is
            // discarded (only `is_ok` is tested), so it synchronizes
            // nothing. Success stays SeqCst — the ABP argument orders this
            // CAS against the owner fence/thief CAS in the SC total order.
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                trace::emit(Event::LocalPop, 1, b as u32);
                return Some(task);
            }
        }
        None
    }

    /// Thief: steal the top-most task.
    pub fn pop_top(&self) -> Steal {
        fault::point(Site::PopTop);
        metrics::bump(Event::StealAttempt);
        let t = self.top.load(Ordering::Acquire);
        let b = self.bot.load(Ordering::Acquire);
        if sdist(b, t) > 0 {
            // Single buffer capture per steal, *after* the `top` load: the
            // CAS below fails whenever `top` moved, which is the only way
            // this ring's slot at `top` could have been overwritten or the
            // ring retired-and-superseded mid-steal (see `deque::ring`).
            let slot = self.ring.capture().slot(t);
            // Atomic-modeled (see `push_bottom`): the Acquire joins the
            // pushing owner's release clock, which is the edge the stolen
            // job's content reads rely on.
            let task = hb::atomic_load(slot as *const _ as usize, Ordering::Acquire, || {
                slot.load(Ordering::Acquire)
            });
            // Forced fire: lose the CAS race outright (chaos tests use this
            // to exercise the Abort path deterministically).
            if fault::fail_at(Site::PopTop) {
                metrics::bump(Event::StealAbort);
                return Steal::Abort;
            }
            metrics::record_cas();
            // Failure ordering Relaxed: a failed steal returns Abort without
            // touching the loaded value (see pop_bottom's CAS).
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                metrics::bump(Event::StealOk);
                return Steal::Ok(task);
            }
            metrics::bump(Event::StealAbort);
            return Steal::Abort;
        }
        Steal::Empty
    }

    /// Raw `(bot, top)` snapshot. For tests and the model checker, which
    /// assert that a drained deque rests at `bot == top`; not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn raw_state(&self) -> (u64, u64) {
        (
            self.bot.load(Ordering::Relaxed),
            self.top.load(Ordering::Relaxed),
        )
    }

    /// Is the deque observably empty (racy)?
    pub fn is_empty(&self) -> bool {
        let b = self.bot.load(Ordering::Relaxed);
        let top = self.top.load(Ordering::Relaxed);
        sdist(b, top) <= 0
    }

    /// Test hook: re-anchor the (empty, otherwise-idle) deque at absolute
    /// index `start`. Owner-only; lets the tests and the model scenarios
    /// start `bot`/`top`/the cached push bound at high indices. Not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn set_start_index(&self, start: u64) {
        self.bot.store(start, Ordering::Relaxed);
        self.top.store(start, Ordering::Relaxed);
        self.ring.set_top_bound(start);
    }

    /// Free rings retired by growth.
    ///
    /// # Safety
    /// Callable only at quiescence: no thread may still hold a buffer
    /// captured before the grow that retired it (the pool calls this after
    /// the run-close `active` handshake).
    pub(crate) unsafe fn release_retired(&self) -> usize {
        self.ring.release_retired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(n: usize) -> *mut Job {
        n as *mut Job
    }

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let d = AbpDeque::new(16);
        d.push_bottom(job(1));
        d.push_bottom(job(2));
        d.push_bottom(job(3));
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        assert_eq!(d.pop_bottom(), Some(job(3)));
        assert_eq!(d.pop_bottom(), Some(job(2)));
        assert_eq!(d.pop_bottom(), None);
        assert_eq!(d.pop_top(), Steal::Empty);
    }

    #[test]
    fn reset_reuses_slots() {
        let d = AbpDeque::new(4);
        for round in 0..10 {
            d.push_bottom(job(round * 2 + 1));
            d.push_bottom(job(round * 2 + 2));
            assert!(d.pop_bottom().is_some());
            assert!(d.pop_bottom().is_some());
            assert_eq!(d.pop_bottom(), None);
        }
    }

    #[test]
    fn push_past_capacity_grows_the_ring() {
        let d = AbpDeque::new(2);
        assert_eq!(d.capacity(), 2);
        for i in 1..=35 {
            d.push_bottom(job(i));
        }
        assert_eq!(d.capacity(), 64);
        assert_eq!(d.generation(), 5, "2 -> 4 -> 8 -> 16 -> 32 -> 64");
        for i in (1..=35).rev() {
            assert_eq!(d.pop_bottom(), Some(job(i)));
        }
        assert_eq!(d.pop_bottom(), None);
        // The last pop's CAS advanced `top` to `bot`.
        assert_eq!(d.raw_state(), (1, 1));
    }

    #[test]
    fn growth_preserves_stolen_prefix_and_lifo_suffix() {
        let d = AbpDeque::new(2);
        d.push_bottom(job(1));
        d.push_bottom(job(2));
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        // b = 2, top = 1: the next push recycles the stolen physical slot
        // (ring indexing, no grow); the one after finds the ring genuinely
        // full and doubles it, copying live indices 1 and 2.
        d.push_bottom(job(3));
        d.push_bottom(job(4)); // grows 2 -> 4
        assert_eq!(d.generation(), 1);
        assert_eq!(d.pop_top(), Steal::Ok(job(2)));
        assert_eq!(d.pop_bottom(), Some(job(4)));
        assert_eq!(d.pop_bottom(), Some(job(3)));
        assert_eq!(d.pop_bottom(), None);
        assert_eq!(d.pop_top(), Steal::Empty);
    }

    #[test]
    fn fences_counted_per_local_op() {
        lcws_metrics::reset_local();
        let c = lcws_metrics::Collector::new();
        let d = AbpDeque::new(16);
        d.push_bottom(job(1));
        d.pop_bottom();
        lcws_metrics::flush_into(&c);
        let s = c.snapshot();
        assert_eq!(s.fences(), 2, "one fence per push + one per pop");
    }

    #[test]
    fn wraparound_push_pop_steal_and_grow() {
        // Start at a high index (8 below 2³²): the pushes carry `bot` past
        // 2³² while `top` is still below it, and the capacity-4 ring
        // doubles twice on the way.
        let d = AbpDeque::new(4);
        let start = u64::from(u32::MAX) - 7;
        d.set_start_index(start);
        for i in 1..=16 {
            d.push_bottom(job(i));
        }
        assert_eq!(d.capacity(), 16, "4 -> 8 -> 16 across 2^32");
        assert_eq!(d.raw_state(), (start + 16, start));
        // Thief consumes indices below 2³², owner those above.
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        assert_eq!(d.pop_top(), Steal::Ok(job(2)));
        for i in (4..=16).rev() {
            assert_eq!(d.pop_bottom(), Some(job(i)));
        }
        assert_eq!(d.pop_bottom(), Some(job(3)));
        assert_eq!(d.pop_bottom(), None);
        assert_eq!(d.raw_state(), (start + 3, start + 3), "drained at `top`");
        d.push_bottom(job(99));
        assert_eq!(d.pop_bottom(), Some(job(99)));
    }

    #[test]
    fn wraparound_concurrent_stress_no_loss_no_duplication() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;

        // Same owner-vs-thieves storm as below, started at a high index
        // that the indices cross (2³²) while thieves are live.
        const N: usize = 2000;
        let d = AbpDeque::new(64);
        d.set_start_index(u64::from(u32::MAX) - 500);
        let taken = Mutex::new(Vec::<usize>::new());
        let done = AtomicBool::new(false);

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        match d.pop_top() {
                            Steal::Ok(j) => local.push(j as usize),
                            Steal::Abort => continue,
                            _ => {
                                if done.load(Ordering::Acquire) {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    taken.lock().unwrap().extend(local);
                });
            }
            let mut local = Vec::new();
            for i in 1..=N {
                d.push_bottom(job(i));
                if i % 3 == 0 {
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
        assert_eq!(set.len(), all.len(), "a task was executed twice");
        assert_eq!(set.len(), N, "a task was lost");
    }

    #[test]
    fn concurrent_stress_no_loss_no_duplication() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;

        const N: usize = 2000;
        let d = AbpDeque::new(N + 1);
        let taken = Mutex::new(Vec::<usize>::new());
        let done = AtomicBool::new(false);

        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        match d.pop_top() {
                            Steal::Ok(j) => local.push(j as usize),
                            Steal::Abort => continue,
                            _ => {
                                if done.load(Ordering::Acquire) {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    taken.lock().unwrap().extend(local);
                });
            }
            let mut local = Vec::new();
            for i in 1..=N {
                d.push_bottom(job(i));
                if i % 2 == 0 {
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
        assert_eq!(set.len(), all.len(), "a task was executed twice");
        assert_eq!(set.len(), N, "a task was lost");
    }
}
