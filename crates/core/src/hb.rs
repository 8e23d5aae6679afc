//! Dynamic happens-before race checking — the `hb` cargo feature.
//!
//! The DFS explorer behind the `model` feature proves the deque protocols
//! exhaustively, but only on 2–3-thread micro-scenarios and only under
//! *interleaving* (sequentially consistent) semantics: it cannot tell a
//! `Relaxed` publish from a `Release` one. This module is the complementary
//! tool: a ThreadSanitizer-style **vector-clock checker** that runs under
//! full-scale workloads (all five variants, supervision churn, 64-producer
//! ingress) and checks that the memory *orderings* actually written in the
//! source establish the happens-before edges the unsafe code relies on.
//!
//! ## Algorithm
//!
//! Every participating thread `t` carries a vector clock `C_t` (its slot is
//! assigned lazily on first instrumented access). The instrumented
//! atomics of `crate::shim` report every operation here:
//!
//! * store with a Release component: the atomic's *release clock* `L_a`
//!   becomes a copy of `C_t`; a `Relaxed` store **resets** `L_a` (C++20
//!   semantics: a plain store breaks the release sequence).
//! * RMW (`swap`, `fetch_*`, successful `compare_exchange`): joins instead
//!   of replacing — an RMW continues an existing release sequence whatever
//!   its ordering, and additionally contributes `C_t` when it has a Release
//!   component.
//! * load/RMW with an Acquire component: `C_t := C_t ⊔ L_a`.
//! * any `SeqCst` access and `fence(SeqCst)`: additionally joins through a
//!   global SC clock (`C_t := C_t ⊔ SC; SC := SC ⊔ C_t`) — a sound model of
//!   the single total order S, and the edge the fence-based deque protocols
//!   (`pop_public_bottom`, ABP `pop_bottom`) rely on.
//!
//! Non-atomic locations where real races would live — ring-buffer slots,
//! `Job`/`TaskState` result cells, trace-ring records — are registered
//! explicitly via [`on_read`]/[`on_write`] with a site name. Each tracked
//! address remembers its last write and all reads since, as
//! `(thread, clock)` epochs; an access that is not happens-after a
//! conflicting prior access produces a report naming **both** sites.
//!
//! Thief-side ring-slot reads are *speculative*: the Chase-Lev steal reads
//! the slot before the `age` CAS validates ownership, and a read whose CAS
//! fails discards the value. [`speculative_read`] captures the would-be
//! race at read time; [`commit_read`] files it only if the steal succeeds,
//! so sound executions under contention produce no false reports.
//!
//! ## Cost
//!
//! With the feature off, every hook in this module is an empty
//! `#[inline(always)]` stub and the shim atomics are plain `std` aliases
//! (TypeId-asserted in `shim::tests`), so default builds are bit-identical
//! to pre-`hb` ones. With the feature on, every hook serializes through one
//! global mutex — the checker is a correctness instrument, not a
//! performance configuration. Hooks block `SIGUSR1` for the lock's
//! duration, so the expose handler's own accesses always run fully
//! instrumented (never interleaving with a half-recorded hook); a TLS
//! re-entrancy flag remains as a skip-don't-deadlock backstop.

/// Test-only ordering switches for the seeded "broken variant" negative
/// tests. Each returns the sound ordering unless a test explicitly broke
/// it; with the `hb` feature off they are compile-time constants.
pub mod negative {
    use std::sync::atomic::Ordering;

    #[cfg(feature = "hb")]
    use std::sync::atomic::AtomicBool;

    #[cfg(feature = "hb")]
    static BROKEN_GROW_PUBLISH: AtomicBool = AtomicBool::new(false);
    #[cfg(feature = "hb")]
    static BROKEN_DONE_STORE: AtomicBool = AtomicBool::new(false);

    /// Ordering used by `GrowableRing::grow` to publish the new buffer:
    /// `Release` normally, `Relaxed` when broken by
    /// [`set_broken_grow_publish`].
    #[cfg(feature = "hb")]
    #[inline]
    pub fn grow_publish_order() -> Ordering {
        if BROKEN_GROW_PUBLISH.load(Ordering::Relaxed) {
            Ordering::Relaxed
        } else {
            Ordering::Release
        }
    }

    /// Sound constant when the checker is compiled out.
    #[cfg(not(feature = "hb"))]
    #[inline(always)]
    pub fn grow_publish_order() -> Ordering {
        Ordering::Release
    }

    /// Ordering used by `StackJob::run_erased` for the owner-executed
    /// `done` store: `Release` normally, `Relaxed` when broken by
    /// [`set_broken_done_store`].
    #[cfg(feature = "hb")]
    #[inline]
    pub fn done_store_order() -> Ordering {
        if BROKEN_DONE_STORE.load(Ordering::Relaxed) {
            Ordering::Relaxed
        } else {
            Ordering::Release
        }
    }

    /// Sound constant when the checker is compiled out.
    #[cfg(not(feature = "hb"))]
    #[inline(always)]
    pub fn done_store_order() -> Ordering {
        Ordering::Release
    }

    /// Break (or restore) the ring-grow buffer publish to `Relaxed`.
    /// Test-only; requires `--features hb`.
    #[cfg(feature = "hb")]
    pub fn set_broken_grow_publish(broken: bool) {
        BROKEN_GROW_PUBLISH.store(broken, Ordering::Relaxed);
    }

    /// Break (or restore) the owner-executed `done` publish to `Relaxed`.
    /// Test-only; requires `--features hb`.
    #[cfg(feature = "hb")]
    pub fn set_broken_done_store(broken: bool) {
        BROKEN_DONE_STORE.store(broken, Ordering::Relaxed);
    }
}

#[cfg(feature = "hb")]
mod imp {
    use std::cell::Cell;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::atomic::Ordering;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    const UNREGISTERED: usize = usize::MAX;
    /// Stop accumulating after this many reports (floods help nobody).
    const MAX_REPORTS: usize = 200;

    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(UNREGISTERED) };
        /// Re-entrancy backstop: a hook re-entered on the same thread must
        /// not relock the checker. With [`SigBlock`] masking the expose
        /// signal for the lock's duration this should never fire, but the
        /// uninstrumented fallback is still safer than a self-deadlock.
        static IN_HOOK: Cell<bool> = const { Cell::new(false) };
    }

    /// Blocks `EXPOSE_SIGNAL` for the current thread while a hook holds
    /// the checker lock. Without this, a `SIGUSR1` landing mid-hook would
    /// run the handler's own hooks uninstrumented (via `IN_HOOK`), silently
    /// dropping the exposure's release edge and turning sound schedules
    /// into false positives.
    struct SigBlock {
        old: libc::sigset_t,
    }

    impl SigBlock {
        fn new() -> SigBlock {
            // Safety: plain sigset manipulation plus pthread_sigmask, all
            // async-signal-safe and thread-local by definition.
            unsafe {
                let mut set: libc::sigset_t = std::mem::zeroed();
                libc::sigemptyset(&mut set);
                libc::sigaddset(&mut set, crate::signal::EXPOSE_SIGNAL);
                let mut old: libc::sigset_t = std::mem::zeroed();
                libc::pthread_sigmask(libc::SIG_BLOCK, &set, &mut old);
                SigBlock { old }
            }
        }
    }

    impl Drop for SigBlock {
        fn drop(&mut self) {
            // Safety: restores the mask captured by `new` on this thread.
            unsafe {
                libc::pthread_sigmask(libc::SIG_SETMASK, &self.old, std::ptr::null_mut());
            }
        }
    }

    /// A vector clock: `0[t] = k` means "has observed thread t's first k
    /// instrumented accesses".
    #[derive(Debug, Clone, Default)]
    struct Vc(Vec<u64>);

    impl Vc {
        fn get(&self, t: usize) -> u64 {
            self.0.get(t).copied().unwrap_or(0)
        }
        fn set(&mut self, t: usize, v: u64) {
            if self.0.len() <= t {
                self.0.resize(t + 1, 0);
            }
            self.0[t] = v;
        }
        fn join(&mut self, other: &Vc) {
            if self.0.len() < other.0.len() {
                self.0.resize(other.0.len(), 0);
            }
            for (s, &o) in self.0.iter_mut().zip(other.0.iter()) {
                *s = (*s).max(o);
            }
        }
        fn clear(&mut self) {
            self.0.clear();
        }
    }

    /// One recorded access to a tracked data location.
    #[derive(Debug, Clone, Copy)]
    struct Access {
        tid: usize,
        epoch: u64,
        site: &'static str,
    }

    #[derive(Debug, Default)]
    struct AtomicState {
        /// The release clock: joined into readers that synchronize with
        /// this atomic (release store / release sequence headed here).
        release: Vc,
    }

    #[derive(Debug, Default)]
    struct DataState {
        write: Option<Access>,
        reads: Vec<Access>,
    }

    #[derive(Default)]
    struct Checker {
        /// Per-slot thread clocks. Slots are assigned on first access and
        /// recycled when a thread exits (its epoch counter carries over, so
        /// recorded accesses of the dead thread stay well-ordered).
        threads: Vec<Vc>,
        free_slots: Vec<usize>,
        /// Global SeqCst clock (the total order S, as an HB approximation).
        sc: Vc,
        /// Keyed by address; `BTreeMap` so [`forget_range`] can drop a freed
        /// range in `O(log n + k)` instead of scanning every entry (a
        /// million-job run calls it once per job free).
        atomics: BTreeMap<usize, AtomicState>,
        data: BTreeMap<usize, DataState>,
        /// Parent-clock snapshots for explicit thread-spawn edges.
        forks: HashMap<u64, Vc>,
        /// Next fork token; starts at 1 so the stubbed/skipped token 0 can
        /// never collide with a real edge.
        next_fork: u64,
        reports: Vec<String>,
        seen_pairs: HashMap<(&'static str, &'static str), ()>,
    }

    static CHECKER: Mutex<Option<Checker>> = Mutex::new(None);

    fn lock() -> MutexGuard<'static, Option<Checker>> {
        CHECKER.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current thread's clock slot, assigning (or recycling) one on
    /// first use. Must be called with the checker lock held.
    fn register(ck: &mut Checker) -> usize {
        let tid = SLOT.with(|s| s.get());
        if tid != UNREGISTERED {
            return tid;
        }
        let slot = ck.free_slots.pop().unwrap_or_else(|| {
            ck.threads.push(Vc::default());
            ck.threads.len() - 1
        });
        // A fresh thread starts one past whatever epoch the slot's
        // previous occupant reached, so the dead thread's recorded
        // accesses stay distinguishable from the newcomer's.
        let next = ck.threads[slot].get(slot) + 1;
        ck.threads[slot].clear();
        ck.threads[slot].set(slot, next);
        SLOT.with(|s| s.set(slot));
        RECYCLE.with(|r| r.slot.set(slot));
        slot
    }

    /// Run `f` on the checker unless this thread is already inside a hook
    /// (re-entrancy backstop) — then skip instrumentation entirely.
    fn with<T: Default>(f: impl FnOnce(&mut Checker, usize) -> T) -> T {
        let _sig = SigBlock::new();
        if IN_HOOK.with(|c| c.replace(true)) {
            return T::default();
        }
        let result = {
            let mut g = lock();
            let ck = g.get_or_insert_with(Checker::default);
            let tid = register(ck);
            f(ck, tid)
        };
        IN_HOOK.with(|c| c.set(false));
        result
    }

    /// TLS guard returning a thread's slot to the free list on exit.
    struct Recycle {
        slot: Cell<usize>,
    }

    impl Drop for Recycle {
        fn drop(&mut self) {
            let slot = self.slot.get();
            if slot == UNREGISTERED {
                return;
            }
            let mut g = lock();
            if let Some(ck) = g.as_mut() {
                ck.free_slots.push(slot);
            }
        }
    }

    thread_local! {
        static RECYCLE: Recycle = const {
            Recycle { slot: Cell::new(UNREGISTERED) }
        };
    }

    impl Checker {
        fn bump_epoch(&mut self, tid: usize) {
            let e = self.threads[tid].get(tid) + 1;
            self.threads[tid].set(tid, e);
        }

        /// Does recorded access `a` happen-before the current state of
        /// thread `tid`?
        fn ordered(&self, a: &Access, tid: usize) -> bool {
            a.tid == tid || self.threads[tid].get(a.tid) >= a.epoch
        }

        fn file(
            &mut self,
            kind: &str,
            prior: &Access,
            tid: usize,
            site: &'static str,
            addr: usize,
        ) {
            let key = (prior.site, site);
            if self.seen_pairs.contains_key(&key) || self.reports.len() >= MAX_REPORTS {
                return;
            }
            self.seen_pairs.insert(key, ());
            let msg = format!(
                "hb: {kind} race at {addr:#x}: [{}] (thread slot {} @ epoch {}) is unordered with [{}] (thread slot {tid})",
                prior.site, prior.tid, prior.epoch, site
            );
            eprintln!("{msg}");
            self.reports.push(msg);
            lcws_metrics::bump(lcws_metrics::Event::HbReport);
        }

        /// The conflict scan for a read of `addr`; returns the racing write
        /// (if any) without recording the read.
        fn read_conflict(&self, addr: usize, tid: usize) -> Option<Access> {
            let st = self.data.get(&addr)?;
            match &st.write {
                Some(w) if !self.ordered(w, tid) => Some(*w),
                _ => None,
            }
        }

        fn record_read(&mut self, addr: usize, tid: usize, site: &'static str) {
            let epoch = self.threads[tid].get(tid);
            let st = self.data.entry(addr).or_default();
            // Keep the read set small: drop reads already ordered before
            // this one from the same thread.
            st.reads.retain(|r| r.tid != tid);
            st.reads.push(Access { tid, epoch, site });
        }
    }

    fn has_acquire(o: Ordering) -> bool {
        matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn has_release(o: Ordering) -> bool {
        matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn sc_sync(ck: &mut Checker, tid: usize) {
        let sc = ck.sc.clone();
        ck.threads[tid].join(&sc);
        let t = ck.threads[tid].clone();
        ck.sc.join(&t);
    }

    /// Run `op` under the checker lock and feed its result to the clock
    /// update `f`. The lock makes the real access and its clock bookkeeping
    /// one step, so hook/op interleavings cannot fabricate or hide edges.
    /// Re-entrant calls run uninstrumented (backstop; `SigBlock` keeps the
    /// expose handler from ever re-entering).
    fn with_op<T>(op: impl FnOnce() -> T, f: impl FnOnce(&mut Checker, usize, &T)) -> T {
        let _sig = SigBlock::new();
        if IN_HOOK.with(|c| c.replace(true)) {
            return op();
        }
        let result = {
            let mut g = lock();
            let ck = g.get_or_insert_with(Checker::default);
            let tid = register(ck);
            let v = op();
            f(ck, tid, &v);
            v
        };
        IN_HOOK.with(|c| c.set(false));
        result
    }

    /// Clock update for a plain load: acquire joins the release clock.
    fn load_clocks(ck: &mut Checker, tid: usize, addr: usize, order: Ordering) {
        ck.bump_epoch(tid);
        if has_acquire(order) {
            let rel = ck.atomics.entry(addr).or_default().release.clone();
            ck.threads[tid].join(&rel);
        }
        if order == Ordering::SeqCst {
            sc_sync(ck, tid);
        }
    }

    /// Clock update for an RMW (swap, fetch_*, successful CAS): continues
    /// the release sequence whatever its ordering.
    fn rmw_clocks(ck: &mut Checker, tid: usize, addr: usize, order: Ordering) {
        ck.bump_epoch(tid);
        if order == Ordering::SeqCst {
            sc_sync(ck, tid);
        }
        if has_acquire(order) {
            let rel = ck.atomics.entry(addr).or_default().release.clone();
            ck.threads[tid].join(&rel);
        }
        if has_release(order) {
            let clock = ck.threads[tid].clone();
            // Join, not replace: an RMW continues the release sequence.
            ck.atomics.entry(addr).or_default().release.join(&clock);
        }
    }

    /// Atomic load through a shim type.
    pub(crate) fn atomic_load<T>(addr: usize, order: Ordering, op: impl FnOnce() -> T) -> T {
        with_op(op, |ck, tid, _| load_clocks(ck, tid, addr, order))
    }

    /// Atomic store through a shim type.
    pub(crate) fn atomic_store<T>(addr: usize, order: Ordering, op: impl FnOnce() -> T) -> T {
        with_op(op, |ck, tid, _| {
            ck.bump_epoch(tid);
            if order == Ordering::SeqCst {
                sc_sync(ck, tid);
            }
            let clock = ck.threads[tid].clone();
            let st = ck.atomics.entry(addr).or_default();
            if has_release(order) {
                st.release = clock;
            } else {
                // A plain store breaks the release sequence (C++20).
                st.release.clear();
            }
        })
    }

    /// Atomic read-modify-write (swap, `fetch_*`).
    pub(crate) fn atomic_rmw<T>(addr: usize, order: Ordering, op: impl FnOnce() -> T) -> T {
        with_op(op, |ck, tid, _| rmw_clocks(ck, tid, addr, order))
    }

    /// Compare-exchange: RMW semantics on success, plain-load semantics
    /// (with the failure ordering) on failure.
    pub(crate) fn atomic_cas<V>(
        addr: usize,
        success: Ordering,
        failure: Ordering,
        op: impl FnOnce() -> Result<V, V>,
    ) -> Result<V, V> {
        with_op(op, |ck, tid, r| match r {
            Ok(_) => rmw_clocks(ck, tid, addr, success),
            Err(_) => load_clocks(ck, tid, addr, failure),
        })
    }

    /// `fence(SeqCst)` (the only fence the schedulers use).
    pub(crate) fn fence_seq_cst<T>(op: impl FnOnce() -> T) -> T {
        with_op(op, |ck, tid, _| {
            ck.bump_epoch(tid);
            sc_sync(ck, tid);
        })
    }

    /// Lock-based edge (the injector's `ready` list): acquire side, called
    /// right after taking the lock.
    pub(crate) fn lock_acquired(addr: usize) {
        with(|ck, tid| rmw_clocks(ck, tid, addr, Ordering::Acquire))
    }

    /// Lock-based edge: call immediately before releasing the lock, after
    /// the last write under it.
    pub(crate) fn lock_releasing(addr: usize) {
        with(|ck, tid| rmw_clocks(ck, tid, addr, Ordering::Release))
    }

    /// Committed read of a tracked non-atomic location.
    pub(crate) fn on_read(addr: usize, site: &'static str) {
        with(|ck, tid| {
            ck.bump_epoch(tid);
            if let Some(w) = ck.read_conflict(addr, tid) {
                ck.file("read/write", &w, tid, site, addr);
            }
            ck.record_read(addr, tid, site);
        })
    }

    /// Write to a tracked non-atomic location.
    pub(crate) fn on_write(addr: usize, site: &'static str) {
        with(|ck, tid| {
            ck.bump_epoch(tid);
            let (racy_write, racy_reads): (Option<Access>, Vec<Access>) = match ck.data.get(&addr) {
                Some(st) => (
                    st.write.as_ref().filter(|w| !ck.ordered(w, tid)).copied(),
                    st.reads
                        .iter()
                        .filter(|r| !ck.ordered(r, tid))
                        .copied()
                        .collect(),
                ),
                None => (None, Vec::new()),
            };
            if let Some(w) = racy_write {
                ck.file("write/write", &w, tid, site, addr);
            }
            for r in racy_reads {
                ck.file("read/write", &r, tid, site, addr);
            }
            let epoch = ck.threads[tid].get(tid);
            let st = ck.data.entry(addr).or_default();
            st.write = Some(Access { tid, epoch, site });
            st.reads.clear();
        })
    }

    /// A pending (not yet validated) racy-by-design read: the Chase-Lev
    /// thief slot read before its `age` CAS.
    #[derive(Debug, Default)]
    pub(crate) struct PendingRead {
        addr: usize,
        site: &'static str,
        conflict: Option<Access>,
        armed: bool,
    }

    /// Capture a speculative read; file nothing yet.
    pub(crate) fn speculative_read(addr: usize, site: &'static str) -> PendingRead {
        with(|ck, tid| {
            ck.bump_epoch(tid);
            PendingRead {
                addr,
                site,
                conflict: ck.read_conflict(addr, tid),
                armed: true,
            }
        })
    }

    /// The speculative read's value was actually used (the steal CAS
    /// succeeded): file the captured conflict, record the read.
    pub(crate) fn commit_read(pending: PendingRead) {
        if !pending.armed {
            return;
        }
        with(|ck, tid| {
            if let Some(w) = pending.conflict {
                ck.file("read/write", &w, tid, pending.site, pending.addr);
            }
            ck.record_read(pending.addr, tid, pending.site);
        })
    }

    /// Forget all tracking state for `len` bytes at `addr` — called when a
    /// tracked allocation is freed, so an unrelated reuse of the address by
    /// another thread is not misread as a race.
    pub(crate) fn forget_range(addr: usize, len: usize) {
        with(|ck, _tid| {
            let end = addr.saturating_add(len);
            let doomed: Vec<usize> = ck.data.range(addr..end).map(|(&a, _)| a).collect();
            for a in doomed {
                ck.data.remove(&a);
            }
            let doomed: Vec<usize> = ck.atomics.range(addr..end).map(|(&a, _)| a).collect();
            for a in doomed {
                ck.atomics.remove(&a);
            }
        })
    }

    /// Parent half of an explicit thread-spawn edge.
    pub(crate) fn fork_token() -> u64 {
        with(|ck, tid| {
            ck.bump_epoch(tid);
            let clock = ck.threads[tid].clone();
            ck.next_fork += 1;
            let token = ck.next_fork;
            ck.forks.insert(token, clock);
            token
        })
    }

    /// Child half: joins the parent's clock at spawn time.
    pub(crate) fn join_token(token: u64) {
        with(|ck, tid| {
            if let Some(clock) = ck.forks.remove(&token) {
                ck.threads[tid].join(&clock);
            }
        })
    }

    /// Number of race reports filed since the last [`reset`].
    pub fn report_count() -> u64 {
        lock().as_ref().map_or(0, |ck| ck.reports.len() as u64)
    }

    /// Drain and return the accumulated reports.
    pub fn take_reports() -> Vec<String> {
        let mut g = lock();
        match g.as_mut() {
            Some(ck) => {
                ck.seen_pairs.clear();
                std::mem::take(&mut ck.reports)
            }
            None => Vec::new(),
        }
    }

    /// Clear reports *and* all location state (clocks survive: they only
    /// ever add order, never remove it).
    pub fn reset() {
        let mut g = lock();
        if let Some(ck) = g.as_mut() {
            ck.reports.clear();
            ck.seen_pairs.clear();
            ck.data.clear();
            ck.atomics.clear();
        }
    }
}

#[cfg(feature = "hb")]
#[allow(unused_imports)]
pub(crate) use imp::PendingRead;
#[cfg(feature = "hb")]
pub(crate) use imp::{
    atomic_cas, atomic_load, atomic_rmw, atomic_store, commit_read, fence_seq_cst, forget_range,
    fork_token, join_token, lock_acquired, lock_releasing, on_read, on_write, speculative_read,
};
#[cfg(feature = "hb")]
pub use imp::{report_count, reset, take_reports};

#[cfg(not(feature = "hb"))]
mod stub {
    use std::sync::atomic::Ordering;

    /// Zero-sized stand-in for the checker's pending-read token.
    #[derive(Debug, Default)]
    pub(crate) struct PendingRead;

    #[inline(always)]
    pub(crate) fn atomic_load<T>(_addr: usize, _order: Ordering, op: impl FnOnce() -> T) -> T {
        op()
    }
    #[inline(always)]
    pub(crate) fn atomic_store<T>(_addr: usize, _order: Ordering, op: impl FnOnce() -> T) -> T {
        op()
    }
    #[inline(always)]
    pub(crate) fn on_read(_addr: usize, _site: &'static str) {}
    #[inline(always)]
    pub(crate) fn on_write(_addr: usize, _site: &'static str) {}
    #[inline(always)]
    pub(crate) fn speculative_read(_addr: usize, _site: &'static str) -> PendingRead {
        PendingRead
    }
    #[inline(always)]
    pub(crate) fn commit_read(_pending: PendingRead) {}
    #[inline(always)]
    pub(crate) fn forget_range(_addr: usize, _len: usize) {}
    #[inline(always)]
    pub(crate) fn fork_token() -> u64 {
        0
    }
    #[inline(always)]
    pub(crate) fn join_token(_token: u64) {}
    #[inline(always)]
    pub(crate) fn lock_acquired(_addr: usize) {}
    #[inline(always)]
    pub(crate) fn lock_releasing(_addr: usize) {}

    /// Always zero without the `hb` feature.
    pub fn report_count() -> u64 {
        0
    }

    /// Always empty without the `hb` feature.
    pub fn take_reports() -> Vec<String> {
        Vec::new()
    }

    /// No-op without the `hb` feature.
    pub fn reset() {}
}

#[cfg(not(feature = "hb"))]
#[allow(unused_imports)]
pub(crate) use stub::PendingRead;
#[cfg(not(feature = "hb"))]
#[allow(unused_imports)]
pub(crate) use stub::{
    atomic_load, atomic_store, commit_read, forget_range, fork_token, join_token, lock_acquired,
    lock_releasing, on_read, on_write, speculative_read,
};
#[cfg(not(feature = "hb"))]
pub use stub::{report_count, reset, take_reports};

#[cfg(test)]
mod tests {
    /// Negative-test harness: seeded broken orderings the checker MUST
    /// report (mirroring how `tests/model.rs` keeps the known-unsound
    /// pairings as negative tests). Each test first runs the *sound*
    /// schedule as a control (zero reports), then flips the ordering
    /// switch and asserts a report naming both access sites appears.
    ///
    /// The scenarios are built from crate internals (`SplitDeque`,
    /// `StackJob`) with `std::sync` primitives for the *real*
    /// synchronization: std mutexes/joins are invisible to the checker, so
    /// the only checker-visible edges are the instrumented atomics under
    /// test — making the verdict deterministic, not schedule-dependent.
    #[cfg(all(feature = "hb", not(feature = "model")))]
    mod negative_harness {
        use crate::deque::{SplitDeque, Steal};
        use crate::hb;
        use crate::job::{Job, StackJob};
        use std::sync::Mutex;

        /// The broken-ordering switches are process-global; one negative
        /// scenario at a time.
        static NEG: Mutex<()> = Mutex::new(());

        /// Restore the sound orderings even if the test panics.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                hb::negative::set_broken_grow_publish(false);
                hb::negative::set_broken_done_store(false);
            }
        }

        fn drain() -> Vec<String> {
            hb::take_reports()
        }

        /// Owner grows the ring (copying live slots into a fresh buffer),
        /// then a thief steals through the published buffer pointer. With
        /// the publish weakened to `Relaxed` the thief's committed slot
        /// read has no edge back to the copy — the exact bug class the
        /// Chase-Lev publish exists to prevent.
        fn grow_then_steal() -> Vec<String> {
            drain();
            let deque = SplitDeque::new(2);
            // Two pushes fill the capacity-2 ring; expose both (Release on
            // `public_bot` — the thief's only sound edge besides the
            // buffer publish).
            deque.push_bottom(0x100 as *mut Job);
            deque.push_bottom(0x200 as *mut Job);
            deque.expose_all();
            // Third push doubles the ring: live slots 0..2 are copied into
            // the new buffer and the buffer pointer is published with
            // `negative::grow_publish_order()`.
            deque.push_bottom(0x300 as *mut Job);
            assert_eq!(deque.capacity(), 4, "grow must have happened");
            // Thief on a fresh thread (no fork edge on purpose): its only
            // clock joins are the Acquire loads inside `pop_top`.
            std::thread::scope(|s| {
                s.spawn(|| match deque.pop_top() {
                    Steal::Ok(t) => assert_eq!(t as usize, 0x100),
                    other => panic!("steal must succeed, got {other:?}"),
                });
            });
            drain()
        }

        #[test]
        fn broken_grow_publish_is_reported_with_both_sites() {
            let _g = NEG.lock().unwrap_or_else(|e| e.into_inner());
            let _restore = Restore;
            // Control: the sound Release publish orders the copy before
            // the committed steal read.
            let sound = grow_then_steal();
            assert!(
                sound.is_empty(),
                "sound grow/steal must be race-free, got:\n{}",
                sound.join("\n")
            );
            hb::negative::set_broken_grow_publish(true);
            let broken = grow_then_steal();
            assert!(
                broken
                    .iter()
                    .any(|r| r.contains("ring slot (grow copy)")
                        && r.contains("split slot (pop_top)")),
                "Relaxed grow publish must be reported naming both sites, got:\n{}",
                broken.join("\n")
            );
        }

        /// Executor writes the job result, then publishes completion via
        /// the `done` flag; the joiner reads the result after observing
        /// `done`. With the store weakened to `Relaxed` the result write
        /// is unordered with the joiner's read.
        fn execute_then_join() -> Vec<String> {
            drain();
            let job = StackJob::new(|| 41usize + 1, 0);
            let ptr = job.as_job_ptr() as usize;
            // Real fork edge: the executor inherits the owner's
            // pre-publish closure/result writes (a deque push would carry
            // this edge in the scheduler; here the handoff is direct).
            let fork = hb::fork_token();
            std::thread::scope(|s| {
                s.spawn(|| {
                    hb::join_token(fork);
                    // Safety: sole executor of a not-yet-run job. It runs
                    // as the owner (index 0) so completion takes the
                    // Release `done` store the switch under test weakens —
                    // a thief's SeqCst store is not switchable.
                    unsafe { Job::execute(ptr as *const Job, 0) };
                });
            });
            // The scope join is real synchronization (invisible to the
            // checker): `done` is physically visible, and the only
            // *checker* edge is the `done` store/load pair under test.
            assert!(job.is_done());
            // Safety: done observed, taken once.
            assert_eq!(unsafe { job.take_result() }, 42);
            drain()
        }

        #[test]
        fn broken_done_store_is_reported_with_both_sites() {
            let _g = NEG.lock().unwrap_or_else(|e| e.into_inner());
            let _restore = Restore;
            let sound = execute_then_join();
            assert!(
                sound.is_empty(),
                "sound execute/join must be race-free, got:\n{}",
                sound.join("\n")
            );
            hb::negative::set_broken_done_store(true);
            let broken = execute_then_join();
            assert!(
                broken
                    .iter()
                    .any(|r| r.contains("StackJob::result (run_erased)")
                        && r.contains("StackJob::result (take_result)")),
                "Relaxed done store must be reported naming both sites, got:\n{}",
                broken.join("\n")
            );
        }
    }

    #[cfg(not(feature = "hb"))]
    #[test]
    fn stubs_are_inert_by_default() {
        // The stub surface must be callable and observably do nothing, and
        // the pending-read token must be zero-sized (no per-steal cost).
        assert_eq!(std::mem::size_of::<super::PendingRead>(), 0);
        super::on_write(0x1000, "w");
        super::on_read(0x1000, "r");
        super::commit_read(super::speculative_read(0x1000, "s"));
        assert_eq!(super::report_count(), 0);
        assert!(super::take_reports().is_empty());
        use std::sync::atomic::Ordering;
        assert_eq!(super::negative::grow_publish_order(), Ordering::Release);
        assert_eq!(super::negative::done_store_order(), Ordering::Release);
    }
}
