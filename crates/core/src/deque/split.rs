//! The split deque of Listing 2, with the paper's §4 signal-safe
//! `pop_bottom` variant and the §4.1 exposure policies.
//!
//! Layout invariant (see Figure 1): slots `[0, bot)` hold tasks;
//! `[age.top, public_bot)` is the **public part** (stealable), and
//! `[public_bot, bot)` is the **private part**, touched only by the owner
//! with plain (Relaxed) operations — no fences, no CAS.
//!
//! ## Memory-model notes (deviations from the C++ listing, all justified)
//!
//! * The C++ fields `bot`/`public_bot` are plain `unsigned int` and the task
//!   array is non-atomic; cross-thread plain accesses are UB in Rust, so all
//!   fields are atomics accessed with `Relaxed` (which compiles to the same
//!   plain loads/stores the C++ emits) and the paper's two explicit
//!   `atomic_thread_fence(seq_cst)` calls are kept verbatim.
//! * `update_public_bottom` stores `public_bot` with **Release** and thieves
//!   load it with **Acquire**. The listing uses plain accesses and relies on
//!   x86-TSO to order the slot write before the boundary publication; on
//!   x86 Release/Acquire are exactly those plain accesses, so the observable
//!   synchronization cost is unchanged, and the code stays correct on
//!   weakly-ordered ISAs. The paper itself counts exposure as a
//!   synchronization event (Figure 3d discussion), consistent with this.
//! * In `pop_top`, `age` is loaded with Acquire so the subsequent
//!   `public_bot` load cannot be hoisted above it on weak ISAs (free on
//!   x86).
//! * **Slot reuse.** A thief's steal CAS on `age` is **Release** on
//!   success, and every owner read of `age` that can observe it — the
//!   push's top-bound refresh, both loads in `pop_public_bottom`, the
//!   failed reset CAS — is **Acquire**. The owner overwrites a stolen
//!   slot's physical cell (ring wrap, or the next era after a reset) only
//!   after learning through one of those reads that `top` moved past it;
//!   the pair orders that overwrite after the thief's slot read. The
//!   listing's plain accesses get this from x86-TSO (same instructions:
//!   `lock cmpxchg`, `mov`); ABP's steal CAS is SeqCst for the same reason.
//!
//! None of these strengthen the *fence/CAS counts* the evaluation measures.
//!
//! ## The §4 owner-vs-handler race
//!
//! With signals, `update_public_bottom` runs inside a `SIGUSR1` handler that
//! can interrupt the owner *between any two instructions* of `pop_bottom`.
//! [`PopBottomMode::SignalSafe`] implements the paper's fix: decrement `bot`
//! first, then compare with `public_bot` (`--bot < public_bot`), with
//! `pop_public_bottom` resetting `bot ← 0` when it finds the deque at an
//! empty era base. One extra guard not spelled out in the listing: when
//! `bot == 0` **and** `public_bot == 0` the private part is provably empty
//! (`public_bot == bot`), so we return `None` before decrementing, which no
//! handler interleaving can invalidate because the handler never modifies
//! `bot` and never exposes past it. `bot == 0` alone is *not* proof of
//! emptiness: absolute indices wrap modulo 2³² on a long-lived `serve`
//! deque, so every ordering comparison below goes through the wrap-safe
//! signed distance ([`crate::deque::sdist`]) and every increment/decrement
//! is wrapping.
//!
//! ## Growable storage
//!
//! Slots live in a generation-tagged growable ring ([`crate::deque::ring`])
//! rather than a fixed array: `push_bottom` doubles the ring when full
//! instead of reporting [`DequeFull`], thieves capture the buffer pointer
//! once per `pop_top` (after the `age` load, which validates stale
//! captures), and the handler's `update_public_bottom` never touches the
//! buffer at all — it only moves `public_bot` — so the §4 argument is
//! untouched by resizes. The fence/CAS placement of every operation is
//! unchanged from the fixed-array version (asserted by the fence-counting
//! tests): growth adds no synchronization to the fast path.

use std::sync::atomic::Ordering;

use crossbeam_utils::CachePadded;
use lcws_metrics::{self as metrics, Event};

use crate::age::{Age, AtomicAge};
use crate::deque::ring::GrowableRing;
use crate::deque::{sdist, DequeFull, Steal};
use crate::fault::{self, Site};
use crate::hb;
use crate::job::Job;
// All index/age words go through the shim atomics: plain std atomics in
// normal builds, DFS scheduling points under the opt-in `model` feature.
use crate::shim::{self, AtomicU32};
use crate::trace;

/// How the owner's `pop_bottom` guards against concurrent exposure from a
/// signal handler (paper §4, "A Subtlety in the Signal-Based
/// Implementation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopBottomMode {
    /// Listing 2 line 7: compare *then* decrement. Correct when exposures
    /// only happen at the owner's own scheduling points (WS-style polling,
    /// USLCWS) or when exposure always leaves the bottom task private
    /// (Conservative Exposure, §4.1.1).
    Standard,
    /// §4: decrement *then* compare (`--bot < public_bot`). Required when a
    /// signal handler may expose the task `pop_bottom` is about to take
    /// (base signal implementation and Expose Half).
    SignalSafe,
}

/// How many private tasks `update_public_bottom` transfers to the public
/// part when a work-exposure request is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExposurePolicy {
    /// Expose the top-most private task (Listing 2 line 41; base LCWS).
    One,
    /// §4.1.1: expose one task only while **two or more** private tasks
    /// remain (`public_bot + 1 < bot`), so the bottom-most task can never
    /// become public under the owner's feet and `Standard` pop stays safe.
    Conservative,
    /// §4.1.2: with `r ≥ 3` private tasks expose `round(r/2)` of them,
    /// otherwise at most one. Rounding uses the Lua-inspired
    /// [`double2int`] bit trick the paper adopted after `std::round`
    /// proved an order of magnitude too slow.
    Half,
}

/// The Lua `lua_number2int`-style float-to-int conversion used by the
/// Expose Half variant (§4.1.2, "Implementation Details").
///
/// Adding `1.5 * 2^52` forces the value into the mantissa range where the
/// low 32 bits of the IEEE-754 representation *are* the rounded integer
/// (round-to-nearest-even, like the hardware default mode the paper runs
/// under). Valid for `0 ≤ r < 2^31`, far beyond any deque size — outside
/// that domain the truncated bits are garbage, so debug builds assert the
/// range instead of returning it silently.
#[inline]
pub fn double2int(r: f64) -> i32 {
    // The edge is 2^31 - 0.5, not 2^31: anything at or above it *rounds*
    // to 2^31, whose low 32 bits read back as `i32::MIN`.
    debug_assert!(
        (0.0..2147483647.5).contains(&r),
        "double2int is only defined for 0 <= round(r) < 2^31, got {r}"
    );
    const MAGIC: f64 = 6755399441055744.0; // 1.5 * 2^52
    (r + MAGIC).to_bits() as i32
}

/// Upper bound on tasks a single [`SplitDeque::pop_top_batch`] call can
/// transfer (the first returned task plus up to `STEAL_BATCH_MAX - 1`
/// extras). Bounds the thief-side stack buffers; the protocol itself caps
/// the take at half the public part, so this only bites on very full
/// deques.
pub const STEAL_BATCH_MAX: usize = 16;

/// The split deque (Listing 2). One per worker; the worker is the only
/// caller of `push_bottom` / `pop_bottom` / `pop_public_bottom` /
/// `update_public_bottom`, while any thief may call `pop_top` /
/// `has_two_tasks` / `is_public_empty`.
pub struct SplitDeque {
    /// Packed `{tag, top}` guarding the public part's top end.
    age: CachePadded<AtomicAge>,
    /// One past the bottom-most public task; the private part starts here.
    public_bot: CachePadded<AtomicU32>,
    /// One past the bottom-most task overall (owner-local).
    bot: CachePadded<AtomicU32>,
    /// Growable slot ring (current buffer, cached top bound, retirement
    /// list).
    ring: CachePadded<GrowableRing>,
}

// Job pointers are handed off between threads with deque ownership-transfer
// discipline; the deque itself contains only atomics.
unsafe impl Send for SplitDeque {}
unsafe impl Sync for SplitDeque {}

impl SplitDeque {
    /// Create a deque whose ring starts at `capacity` slots (rounded up to
    /// a power of two) and doubles on demand up to
    /// [`crate::deque::ring::MAX_DEQUE_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        SplitDeque {
            age: CachePadded::new(AtomicAge::new()),
            public_bot: CachePadded::new(shim::named_u32(0, "public_bot")),
            bot: CachePadded::new(shim::named_u32(0, "bot")),
            ring: CachePadded::new(GrowableRing::new(capacity)),
        }
    }

    /// Current slot capacity of the ring (racy for non-owners: a grow may
    /// be publishing concurrently).
    pub fn capacity(&self) -> usize {
        self.ring.capture().capacity() as usize
    }

    /// Number of ring doublings since construction (0 = still the initial
    /// buffer). Racy for non-owners, exact for the owner.
    pub fn generation(&self) -> u32 {
        self.ring.capture().generation()
    }

    /// Owner: push a task at the bottom. Synchronization-free (Listing 2
    /// line 5) on the fast path: one plain store of the slot, one plain
    /// store of `bot`. A full ring is doubled in place (amortized O(1));
    /// [`DequeFull`] remains only for a `faultpoints`-forced
    /// [`Site::DequeResize`] failure or a ring already at its maximum
    /// capacity, and leaves the deque untouched and the task with the
    /// caller so the scheduler can degrade to running it inline.
    #[inline]
    pub fn try_push_bottom(&self, task: *mut Job) -> Result<(), DequeFull> {
        let b = self.bot.load(Ordering::Relaxed);
        if fault::fail_at(Site::PushBottom) {
            return Err(DequeFull);
        }
        // Acquire: a `top` that moved frees cells for the write below,
        // which must come after the thief's read of them (*Slot reuse*).
        let buf = self
            .ring
            .for_push(b, || self.age.load(Ordering::Acquire).top)?;
        hb::on_write(buf.slot(b) as *const _ as usize, "split slot (push_bottom)");
        buf.slot(b).store(task, Ordering::Relaxed);
        self.bot.store(b.wrapping_add(1), Ordering::Relaxed);
        trace::emit(Event::Push, 1, b.wrapping_add(1));
        Ok(())
    }

    /// Owner: push a task at the bottom, growing the ring as needed;
    /// panics only when growth itself is impossible (ring at maximum
    /// capacity, or a forced `DequeResize` fault under `faultpoints`). The
    /// scheduler goes through [`SplitDeque::try_push_bottom`] and degrades
    /// gracefully instead.
    #[inline]
    pub fn push_bottom(&self, task: *mut Job) {
        assert!(
            self.try_push_bottom(task).is_ok(),
            "split deque overflow (capacity {}): ring growth failed \
             (maximum capacity or forced DequeResize fault)",
            self.capacity()
        );
    }

    /// Owner: pop the bottom-most **private** task. Synchronization-free.
    ///
    /// Returns `None` when the private part is empty; the caller should then
    /// try [`SplitDeque::pop_public_bottom`].
    #[inline]
    pub fn pop_bottom(&self, mode: PopBottomMode) -> Option<*mut Job> {
        fault::point(Site::PopBottom);
        match mode {
            PopBottomMode::Standard => {
                // Listing 2 line 7: `bot == public_bot ? nullptr : deq[--bot]`.
                let b = self.bot.load(Ordering::Relaxed);
                let pb = self.public_bot.load(Ordering::Relaxed);
                if b == pb {
                    return None;
                }
                let b1 = b.wrapping_sub(1);
                self.bot.store(b1, Ordering::Relaxed);
                let task = self.ring.owner().slot(b1).load(Ordering::Relaxed);
                trace::emit(Event::LocalPop, 1, b1);
                Some(task)
            }
            PopBottomMode::SignalSafe => {
                // §4: `--bot < public_bot ? nullptr : deq[bot]`, plus the
                // empty-private-part guard discussed in the module docs
                // (`bot == 0` alone is not proof on a wrapped era).
                let b = self.bot.load(Ordering::Relaxed);
                if b == 0 && self.public_bot.load(Ordering::Relaxed) == 0 {
                    return None;
                }
                let b1 = b.wrapping_sub(1);
                self.bot.store(b1, Ordering::Relaxed);
                // The §4 race window: a handler exposure landing between
                // the decrement above and the comparison below.
                fault::point(Site::PopBottom);
                if sdist(b1, self.public_bot.load(Ordering::Relaxed)) < 0 {
                    // A handler exposed the task under us; it is now public
                    // and must be taken via pop_public_bottom (which also
                    // repairs `bot`).
                    return None;
                }
                let task = self.ring.owner().slot(b1).load(Ordering::Relaxed);
                trace::emit(Event::LocalPop, 1, b1);
                Some(task)
            }
        }
    }

    /// Owner: pop the bottom-most task of the **public** part (Listing 2
    /// lines 9–29, with the §4 `bot ← 0` reset when `public_bot == 0`).
    ///
    /// Pays the paper's two seq-cst fences, and a CAS when racing thieves
    /// for the last public task.
    pub fn pop_public_bottom(&self) -> Option<*mut Job> {
        fault::point(Site::PopPublicBottom);
        let pb0 = self.public_bot.load(Ordering::Relaxed);
        // Every owner read of `age` that can observe a thief's CAS is an
        // Acquire: it is how the owner learns slots below `top` are free.
        if pb0 == 0 && self.age.load(Ordering::Acquire).top == 0 {
            // §4 modification: repair `bot` (the SignalSafe pop_bottom may
            // have left it decremented below a now-empty deque). The guard
            // requires `top == 0` too: on a wrapped era `public_bot == 0`
            // with `top` just below the boundary is a *live* public part
            // `[top, 0)`, handled by the wrapping decrement below.
            self.bot.store(0, Ordering::Relaxed);
            return None;
        }
        let pb = pb0.wrapping_sub(1);
        // Release, not Relaxed: a plain store would *break the release
        // sequence* headed by the exposure's Release store (C++20), so a
        // thief acquire-loading the decremented value would lose the edge
        // covering the still-public slots `[top, pb)` — the hb checker
        // catches this as slot races under the SignalSafe variants. (The
        // paper's Listing 2 uses seq-cst stores here, which release too.)
        self.public_bot.store(pb, Ordering::Release);
        // Fence #1 (Listing 2 line 12): publish the decrement to thieves and
        // read an up-to-date `age`.
        shim::fence_seq_cst();
        let task = self.ring.owner().slot(pb).load(Ordering::Relaxed);
        let old_age = self.age.load(Ordering::Acquire);
        if sdist(pb, old_age.top) > 0 {
            // More than one public task remained: the bottom-most one is
            // ours without contention. Private part is empty here (this
            // method is only called when pop_bottom failed), so `bot`
            // follows the boundary.
            self.bot.store(pb, Ordering::Relaxed);
            trace::emit(Event::OwnerPublicPop, 1, pb);
            return Some(task);
        }
        // At most one public task remains and thieves may be racing for it:
        // reset the deque and fight for the task with a CAS. A delay here
        // (between the two fences) widens the owner-vs-thief CAS race.
        fault::point(Site::PopPublicBottom);
        self.bot.store(0, Ordering::Relaxed);
        // The reset opens a fresh tag era with `top = 0`; the push fast
        // path's cached bound must not carry over from the old era.
        self.ring.reset_top_bound();
        let new_age = old_age.reset();
        let local_bot = pb;
        // Release (sequence continuation, as above) — and ordered before
        // the era-opening `age` publishes below: a thief that observes the
        // fresh era must also observe `public_bot = 0`, or it could pair
        // the new `age` with a stale (larger) `public_bot` and steal a
        // *private* new-era slot. The SC fences don't close that window
        // for thieves (they carry no fence); the Release/Acquire chain
        // through `age` does, by write-read coherence.
        self.public_bot.store(0, Ordering::Release);
        let won = if local_bot == old_age.top {
            metrics::record_cas();
            // Failure Acquire: losing means a thief's CAS took the last
            // task; the next era reuses the slot that thief read.
            self.age
                .compare_exchange(old_age, new_age, Ordering::Release, Ordering::Acquire)
                .is_ok()
        } else {
            false
        };
        let result = if won {
            trace::emit(Event::OwnerPublicPop, 1, 0);
            Some(task)
        } else {
            // A thief took it (or top had already moved past us): make the
            // reset visible and report empty. Release for the same
            // era-vs-`public_bot` coherence argument as the CAS above.
            self.age.store(new_age, Ordering::Release);
            None
        };
        // Fence #2 (Listing 2 line 27): thieves must not observe the new
        // `age` together with the old `public_bot`, which could double-run
        // a task.
        shim::fence_seq_cst();
        result
    }

    /// Thief: try to steal the top-most public task (Listing 2 lines 30–40).
    ///
    /// Note: the listing's final line reads
    /// `(public_bot < bot) ? nullptr : PRIVATE_WORK`, which inverts the
    /// semantics §3.2 specifies ("if only the public part is empty it
    /// returns PRIVATE_WORK"); we implement the specified semantics.
    pub fn pop_top(&self) -> Steal {
        fault::point(Site::PopTop);
        metrics::bump(Event::StealAttempt);
        let old_age = self.age.load(Ordering::Acquire);
        let pb = self.public_bot.load(Ordering::Acquire);
        if sdist(pb, old_age.top) > 0 {
            // Single buffer capture per steal, *after* the `age` load: the
            // CAS below fails whenever `top` moved, which is the only way
            // this ring's slot at `top` could have been overwritten or the
            // ring retired-and-superseded mid-steal (see `deque::ring`).
            let slot = self.ring.capture().slot(old_age.top);
            // Speculative for the checker: this read only counts (and only
            // races) if the validating CAS below commits it.
            let pending = hb::speculative_read(slot as *const _ as usize, "split slot (pop_top)");
            let task = slot.load(Ordering::Relaxed);
            let new_age = old_age.with_top_incremented();
            // Stretch the read-age → CAS window thieves race within; a
            // forced fire models losing the race outright (the chaos tests
            // use it to exercise the Abort path deterministically).
            if fault::fail_at(Site::PopTop) {
                metrics::bump(Event::StealAbort);
                return Steal::Abort;
            }
            metrics::record_cas();
            // Success Release: commits the slot read above, ordering it
            // before the owner's reuse of the cell (module docs, *Slot
            // reuse*).
            if self
                .age
                .compare_exchange(old_age, new_age, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                hb::commit_read(pending);
                metrics::bump(Event::StealOk);
                return Steal::Ok(task);
            }
            metrics::bump(Event::StealAbort);
            return Steal::Abort;
        }
        // Public part empty: report whether private work exists so the thief
        // can request exposure. `bot` is an owner-local field read racily —
        // a stale value only costs a wasted notification or a retry.
        if sdist(pb, self.bot.load(Ordering::Relaxed)) < 0 {
            metrics::bump(Event::StealPrivate);
            Steal::PrivateWork
        } else {
            Steal::Empty
        }
    }

    /// Thief: steal up to `⌈public/2⌉` tasks with **one** validating `age`
    /// CAS (the steal-half policy, [`crate::StealAmount::Half`]).
    ///
    /// Returns the top-most stolen task exactly like
    /// [`SplitDeque::pop_top`]; any *additional* tasks (at most `max_extra`,
    /// itself capped by [`STEAL_BATCH_MAX`]` - 1`) are appended to `extras`
    /// in top-to-bottom order for the thief to requeue locally. Empty /
    /// private-work / abort outcomes are identical to the scalar steal, and
    /// with `max_extra == 0` this *is* the scalar steal.
    ///
    /// ## Why one CAS over `k` slots is safe (§4 signal-window argument)
    ///
    /// The scalar proof: a thief reads slot `top`, then CASes
    /// `age: {tag, top} → {tag, top+1}`; the CAS succeeding proves `top`
    /// never moved between the read and the commit, so the slot could not
    /// have been overwritten (overwrite requires the owner to reclaim the
    /// index, which requires the era reset that bumps `tag`) nor taken by
    /// another thief (which requires advancing `top`).
    ///
    /// The multi-slot extension takes `k ≤ ⌈sdist(public_bot, top)/2⌉`
    /// slots `[top, top+k)`. Every index is strictly below the
    /// `public_bot` value loaded *after* `age`, so every slot was written
    /// before the exposure's Release store and the Acquire load here — the
    /// per-slot publication edge is the scalar one, `k` times. The single
    /// CAS `{tag, top} → {tag, top+k}` validates all `k` reads at once: if
    /// any other taker (thief CAS, owner reset) touched the range first,
    /// `top` or `tag` changed and the CAS fails, taking nothing. An owner
    /// `pop_public_bottom` racing on the *last* public task CASes the same
    /// word, so the two-fence reset protocol is undisturbed: the batch
    /// either wins wholly before the reset (owner sees `top` advanced,
    /// resigns) or loses wholly. Signal-handler exposures only move
    /// `public_bot` upward, which can only under-count `avail` here —
    /// never expose a slot to double-take. Taking at most *half* (the
    /// ceiling) leaves the remainder immediately re-stealable, preserving
    /// the paper's steal-half fairness argument on the thief side.
    pub fn pop_top_batch(&self, extras: &mut Vec<*mut Job>, max_extra: usize) -> Steal {
        fault::point(Site::PopTop);
        metrics::bump(Event::StealAttempt);
        let old_age = self.age.load(Ordering::Acquire);
        let pb = self.public_bot.load(Ordering::Acquire);
        let avail = sdist(pb, old_age.top);
        if avail > 0 {
            let avail = avail as u32;
            // Half of the public part, rounded up, capped by the caller's
            // budget and the stack-array bound; always at least the one
            // task a scalar steal would take.
            let k = (avail.div_ceil(2))
                .min(max_extra.min(STEAL_BATCH_MAX - 1) as u32 + 1)
                .max(1) as usize;
            // Single buffer capture per steal, after the `age` load, exactly
            // as in pop_top: the CAS below fails whenever `top` moved, which
            // is the only way any of the `k` slots could have been
            // overwritten or the ring retired mid-steal.
            let buf = self.ring.capture();
            let mut tasks = [std::ptr::null_mut::<Job>(); STEAL_BATCH_MAX];
            let mut pending: [Option<hb::PendingRead>; STEAL_BATCH_MAX] =
                std::array::from_fn(|_| None);
            for (i, (task, pend)) in tasks.iter_mut().zip(pending.iter_mut()).take(k).enumerate() {
                let slot = buf.slot(old_age.top.wrapping_add(i as u32));
                // Speculative for the checker: these reads only count (and
                // only race) if the validating CAS below commits them.
                *pend = Some(hb::speculative_read(
                    slot as *const _ as usize,
                    "split slot (pop_top_batch)",
                ));
                *task = slot.load(Ordering::Relaxed);
            }
            let new_age = old_age.with_top_advanced(k as u32);
            // Same stretchable read-age → CAS window as the scalar steal.
            if fault::fail_at(Site::PopTop) {
                metrics::bump(Event::StealAbort);
                return Steal::Abort;
            }
            metrics::record_cas();
            // Success Release, as in `pop_top`: orders the `k` slot reads
            // before the owner's reuse of those slots.
            if self
                .age
                .compare_exchange(old_age, new_age, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                for pend in pending.iter_mut().take(k) {
                    hb::commit_read(pend.take().expect("pending read recorded above"));
                }
                metrics::bump(Event::StealOk);
                if k > 1 {
                    metrics::bump_by(Event::StealBatchTask, (k - 1) as u64);
                    extras.extend_from_slice(&tasks[1..k]);
                }
                return Steal::Ok(tasks[0]);
            }
            metrics::bump(Event::StealAbort);
            return Steal::Abort;
        }
        if sdist(pb, self.bot.load(Ordering::Relaxed)) < 0 {
            metrics::bump(Event::StealPrivate);
            Steal::PrivateWork
        } else {
            Steal::Empty
        }
    }

    /// Owner (possibly from a signal handler): transfer private tasks to the
    /// public part according to `policy`. Returns how many were exposed.
    ///
    /// Async-signal-safe: relaxed/release atomics and TLS counter bumps
    /// only.
    pub fn update_public_bottom(&self, policy: ExposurePolicy) -> u32 {
        // May run in signal-handler context: spin-delay actions only.
        fault::point(Site::UpdatePublicBottom);
        let b = self.bot.load(Ordering::Relaxed);
        let pb = self.public_bot.load(Ordering::Relaxed);
        // Private-part length; sdist keeps it exact across index wrap (the
        // transient SignalSafe decrement can make it -1, clamped to 0).
        let r = sdist(b, pb).max(0) as u32;
        let exposed = match policy {
            ExposurePolicy::One => {
                if r >= 1 {
                    1
                } else {
                    0
                }
            }
            ExposurePolicy::Conservative => {
                // Expose only while ≥ 2 private tasks remain, so the task at
                // `bot - 1` can never become public (keeps Standard
                // pop_bottom race-free).
                if r >= 2 {
                    1
                } else {
                    0
                }
            }
            ExposurePolicy::Half => {
                if r >= 3 {
                    double2int(r as f64 / 2.0) as u32
                } else if r >= 1 {
                    1
                } else {
                    0
                }
            }
        };
        if exposed > 0 {
            debug_assert!(exposed <= r);
            // Release pairs with the Acquire in pop_top so thieves see the
            // slot contents before the moved boundary.
            self.public_bot
                .store(pb.wrapping_add(exposed), Ordering::Release);
            // May run in signal-handler context; both halves of the call
            // are async-signal-safe by design (see `crate::trace`).
            trace::emit(Event::Exposure, exposed as u64, exposed);
        }
        exposed
    }

    /// Owner (dying): publish the **entire** private region so thieves can
    /// rescue tasks a panicking worker would otherwise strand forever.
    /// Returns how many tasks were exposed.
    ///
    /// This is the supervision layer's last-gasp handoff (DESIGN.md §5e):
    /// policy-agnostic (`public_bot ← bot` regardless of the variant's
    /// [`ExposurePolicy`]) because the owner is about to stop scheduling —
    /// the §4.1 policies exist to protect the *owner's* future `pop_bottom`,
    /// and a dying owner has none. Called on the worker's own thread from
    /// the unwind path, so the owner-only access discipline holds.
    pub fn expose_all(&self) -> u32 {
        let b = self.bot.load(Ordering::Relaxed);
        let pb = self.public_bot.load(Ordering::Relaxed);
        let exposed = sdist(b, pb).max(0) as u32;
        if exposed > 0 {
            // Release pairs with the Acquire in pop_top, exactly like
            // update_public_bottom: thieves must see the slot contents
            // before the moved boundary.
            self.public_bot.store(b, Ordering::Release);
            trace::emit(Event::Exposure, exposed as u64, exposed);
        }
        exposed
    }

    /// Pool (at quiescence): restore the canonical `(bot, public_bot,
    /// age) = (0, 0, {tag+1, 0})` empty state before handing this deque to
    /// a respawned worker.
    ///
    /// Mirrors the reset arm of [`SplitDeque::pop_public_bottom`]: the tag
    /// bump invalidates any `age` snapshot a thief captured in the dead
    /// worker's era, and the push fast path's cached top bound must not
    /// carry over.
    ///
    /// # Safety (enforced by the caller)
    /// Only sound at quiescence with no concurrent owner or thief — the
    /// pool calls this between runs, under the run lock, after the `active`
    /// handshake of the previous generation completed.
    pub(crate) fn reset_for_respawn(&self) {
        self.bot.store(0, Ordering::Relaxed);
        self.public_bot.store(0, Ordering::Relaxed);
        self.ring.reset_top_bound();
        let new_age = self.age.load(Ordering::Relaxed).reset();
        self.age.store(new_age, Ordering::Relaxed);
    }

    /// Test hook: re-anchor an **empty, quiescent** deque so its next era
    /// starts at absolute index `start`. Lets the wraparound tests (and the
    /// `model` scenarios) reach the `u32` index boundary in a few pushes
    /// instead of 2³² operations. Bumps the ABA tag like every other reset
    /// path and reseeds the ring's cached top bound.
    ///
    /// Not part of the stable API; callable only with no concurrent owner,
    /// thief, or handler, like [`SplitDeque::reset_for_respawn`].
    #[doc(hidden)]
    pub fn set_start_index(&self, start: u32) {
        self.bot.store(start, Ordering::Relaxed);
        self.public_bot.store(start, Ordering::Relaxed);
        let new_age = Age {
            tag: self.age.load(Ordering::Relaxed).tag.wrapping_add(1),
            top: start,
        };
        self.age.store(new_age, Ordering::Relaxed);
        self.ring.set_top_bound(start);
    }

    /// Thief-side heuristic for the Conservative variant's notification
    /// condition (§4.1.1): does the victim hold at least two tasks?
    #[inline]
    pub fn has_two_tasks(&self) -> bool {
        let b = self.bot.load(Ordering::Relaxed);
        let top = self.age.load(Ordering::Relaxed).top;
        sdist(b, top) >= 2
    }

    /// Number of tasks currently in the private part (owner-accurate,
    /// racy for other threads).
    pub fn private_len(&self) -> u32 {
        let b = self.bot.load(Ordering::Relaxed);
        let pb = self.public_bot.load(Ordering::Relaxed);
        sdist(b, pb).max(0) as u32
    }

    /// Number of tasks currently in the public part (racy).
    pub fn public_len(&self) -> u32 {
        let pb = self.public_bot.load(Ordering::Relaxed);
        let top = self.age.load(Ordering::Relaxed).top;
        sdist(pb, top).max(0) as u32
    }

    /// Is the deque observably empty (racy)?
    pub fn is_empty(&self) -> bool {
        let b = self.bot.load(Ordering::Relaxed);
        let top = self.age.load(Ordering::Relaxed).top;
        sdist(b, top) <= 0
    }

    /// Raw `(bot, public_bot, age)` snapshot. For tests and the model
    /// checker, which assert the canonical `(0, 0)` empty-state repair;
    /// not part of the stable API.
    #[doc(hidden)]
    pub fn raw_state(&self) -> (u32, u32, Age) {
        (
            self.bot.load(Ordering::Relaxed),
            self.public_bot.load(Ordering::Relaxed),
            self.age.load(Ordering::Relaxed),
        )
    }

    #[cfg(test)]
    pub(crate) fn raw_indices(&self) -> (u32, u32, Age) {
        self.raw_state()
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
        n as *mut Job // opaque non-null cookie; never dereferenced here
    }

    #[test]
    fn double2int_matches_round_to_nearest_even() {
        assert_eq!(double2int(0.0), 0);
        assert_eq!(double2int(1.0), 1);
        assert_eq!(double2int(1.49), 1);
        assert_eq!(double2int(1.5), 2); // ties to even
        assert_eq!(double2int(2.5), 2); // ties to even
        assert_eq!(double2int(3.5), 4);
        assert_eq!(double2int(1234567.4), 1234567);
        for r in 0..1000u32 {
            let x = r as f64 / 2.0;
            let expected = {
                // round-half-to-even reference
                let fl = x.floor();
                if x - fl == 0.5 {
                    if (fl as i64) % 2 == 0 {
                        fl as i32
                    } else {
                        fl as i32 + 1
                    }
                } else {
                    x.round() as i32
                }
            };
            assert_eq!(double2int(x), expected, "r = {r}");
        }
    }

    #[test]
    fn push_pop_lifo_private() {
        let d = SplitDeque::new(16);
        for i in 1..=5 {
            d.push_bottom(job(i));
        }
        for i in (1..=5).rev() {
            assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(i)));
        }
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), None);
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);
    }

    #[test]
    fn steal_requires_exposure() {
        let d = SplitDeque::new(16);
        d.push_bottom(job(1));
        d.push_bottom(job(2));
        // Nothing public yet: thief sees PRIVATE_WORK.
        assert_eq!(d.pop_top(), Steal::PrivateWork);
        assert_eq!(d.update_public_bottom(ExposurePolicy::One), 1);
        // Thieves steal from the top: oldest task first.
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        assert_eq!(d.pop_top(), Steal::PrivateWork);
        // Owner still holds task 2 privately.
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(2)));
        assert_eq!(d.pop_top(), Steal::Empty);
    }

    #[test]
    fn owner_reclaims_exposed_work_via_public_pop() {
        let d = SplitDeque::new(16);
        d.push_bottom(job(1));
        d.push_bottom(job(2));
        d.update_public_bottom(ExposurePolicy::One);
        d.update_public_bottom(ExposurePolicy::One);
        // All work public: private pop fails, public pop succeeds
        // bottom-first (task 2 then task 1).
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), None);
        assert_eq!(d.pop_public_bottom(), Some(job(2)));
        assert_eq!(d.pop_public_bottom(), Some(job(1)));
        assert_eq!(d.pop_public_bottom(), None);
        let (bot, pb, age) = d.raw_indices();
        assert_eq!((bot, pb), (0, 0));
        assert_eq!(age.top, 0);
        assert!(age.tag >= 1, "reset path bumps the ABA tag");
    }

    #[test]
    fn conservative_exposure_keeps_last_task_private() {
        let d = SplitDeque::new(16);
        d.push_bottom(job(1));
        assert_eq!(d.update_public_bottom(ExposurePolicy::Conservative), 0);
        d.push_bottom(job(2));
        assert_eq!(d.update_public_bottom(ExposurePolicy::Conservative), 1);
        // Only one private task left now: no further exposure.
        assert_eq!(d.update_public_bottom(ExposurePolicy::Conservative), 0);
        assert_eq!(d.private_len(), 1);
        assert_eq!(d.public_len(), 1);
    }

    #[test]
    fn half_exposure_amounts() {
        let d = SplitDeque::new(64);
        // r = 1 → expose 1.
        d.push_bottom(job(1));
        assert_eq!(d.update_public_bottom(ExposurePolicy::Half), 1);
        // r = 2 → expose 1.
        d.push_bottom(job(2));
        d.push_bottom(job(3));
        assert_eq!(d.update_public_bottom(ExposurePolicy::Half), 1);
        // r = 7 → round(3.5) = 4.
        for i in 4..=9 {
            d.push_bottom(job(i));
        }
        assert_eq!(d.private_len(), 7);
        assert_eq!(d.update_public_bottom(ExposurePolicy::Half), 4);
        // r = 3 → round(1.5) = 2 (ties to even).
        assert_eq!(d.private_len(), 3);
        assert_eq!(d.update_public_bottom(ExposurePolicy::Half), 2);
    }

    #[test]
    fn signal_safe_pop_with_exposure_interleaving() {
        // Reproduce the §4 race resolution: one private task, exposure
        // "arrives" before the owner's comparison.
        let d = SplitDeque::new(16);
        d.push_bottom(job(1));
        // Handler exposes the only task.
        assert_eq!(d.update_public_bottom(ExposurePolicy::One), 1);
        // Owner's signal-safe pop must NOT return the now-public task...
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);
        // ...but pop_public_bottom retrieves it and repairs the indices.
        assert_eq!(d.pop_public_bottom(), Some(job(1)));
        assert_eq!(d.pop_public_bottom(), None);
        let (bot, pb, _) = d.raw_indices();
        assert_eq!((bot, pb), (0, 0));
    }

    #[test]
    fn empty_deque_signal_safe_pop_does_not_underflow() {
        let d = SplitDeque::new(4);
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);
        assert_eq!(d.pop_public_bottom(), None);
        // Deque stays usable.
        d.push_bottom(job(9));
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), Some(job(9)));
    }

    #[test]
    fn pop_public_bottom_repairs_bot_after_signal_safe_miss() {
        // SignalSafe pop decrements bot even when it returns None; the §4
        // modification makes pop_public_bottom reset bot when public_bot==0.
        let d = SplitDeque::new(16);
        d.push_bottom(job(1));
        d.update_public_bottom(ExposurePolicy::One);
        // Thief steals the exposed task.
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        // Owner pops: private empty (bot decremented to 0 by the miss path
        // or by the compare), then public pop resets cleanly.
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);
        assert_eq!(d.pop_public_bottom(), None);
        let (bot, pb, _) = d.raw_indices();
        assert_eq!((bot, pb), (0, 0));
        d.push_bottom(job(2));
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), Some(job(2)));
    }

    #[test]
    fn batch_steal_takes_half_of_public_rounded_up() {
        let d = SplitDeque::new(32);
        for i in 1..=8 {
            d.push_bottom(job(i));
        }
        // Expose all 8, then batch-steal: ⌈8/2⌉ = 4 tasks, one CAS.
        assert_eq!(d.expose_all(), 8);
        let mut extras = Vec::new();
        assert_eq!(
            d.pop_top_batch(&mut extras, STEAL_BATCH_MAX - 1),
            Steal::Ok(job(1))
        );
        // Extras come out in top-to-bottom (oldest-first) order.
        assert_eq!(extras, vec![job(2), job(3), job(4)]);
        assert_eq!(d.public_len(), 4, "surplus stays immediately re-stealable");
        // The remaining half is still stealable through the scalar path.
        assert_eq!(d.pop_top(), Steal::Ok(job(5)));
    }

    #[test]
    fn batch_steal_with_zero_budget_is_the_scalar_steal() {
        let d = SplitDeque::new(16);
        for i in 1..=4 {
            d.push_bottom(job(i));
        }
        d.expose_all();
        let mut extras = Vec::new();
        assert_eq!(d.pop_top_batch(&mut extras, 0), Steal::Ok(job(1)));
        assert!(extras.is_empty());
        assert_eq!(d.public_len(), 3);
    }

    #[test]
    fn batch_steal_single_public_task_and_empty_outcomes() {
        let d = SplitDeque::new(16);
        let mut extras = Vec::new();
        assert_eq!(d.pop_top_batch(&mut extras, 8), Steal::Empty);
        d.push_bottom(job(1));
        assert_eq!(d.pop_top_batch(&mut extras, 8), Steal::PrivateWork);
        d.update_public_bottom(ExposurePolicy::One);
        assert_eq!(d.pop_top_batch(&mut extras, 8), Steal::Ok(job(1)));
        assert!(extras.is_empty(), "a lone public task never batches");
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), None);
    }

    #[test]
    fn batch_steal_across_index_wrap() {
        let d = SplitDeque::new(4);
        d.set_start_index(u32::MAX - 2);
        for i in 1..=8 {
            d.push_bottom(job(i));
        }
        assert_eq!(d.expose_all(), 8);
        // The take range [top, top+4) straddles the u32 boundary.
        let mut extras = Vec::new();
        assert_eq!(d.pop_top_batch(&mut extras, 8), Steal::Ok(job(1)));
        assert_eq!(extras, vec![job(2), job(3), job(4)]);
        assert_eq!(d.public_len(), 4);
        for i in 5..=8 {
            assert_eq!(d.pop_public_bottom(), Some(job(8 + 5 - i)));
        }
    }

    #[test]
    fn batch_steal_caps_at_steal_batch_max() {
        let d = SplitDeque::new(64);
        for i in 1..=60 {
            d.push_bottom(job(i));
        }
        assert_eq!(d.expose_all(), 60);
        // ⌈60/2⌉ = 30 > STEAL_BATCH_MAX: the take is clamped to 16 total.
        let mut extras = Vec::new();
        assert_eq!(d.pop_top_batch(&mut extras, usize::MAX), Steal::Ok(job(1)));
        assert_eq!(extras.len(), STEAL_BATCH_MAX - 1);
        assert_eq!(d.public_len(), 60 - STEAL_BATCH_MAX as u32);
    }

    #[test]
    fn steal_race_on_last_public_task_has_single_winner() {
        // Owner and a simulated thief race for the single public task; the
        // CAS protocol must hand it to exactly one of them.
        for owner_first in [false, true] {
            let d = SplitDeque::new(16);
            d.push_bottom(job(7));
            d.update_public_bottom(ExposurePolicy::One);
            if owner_first {
                assert_eq!(d.pop_public_bottom(), Some(job(7)));
                assert!(matches!(d.pop_top(), Steal::Empty | Steal::Abort));
            } else {
                assert_eq!(d.pop_top(), Steal::Ok(job(7)));
                assert_eq!(d.pop_public_bottom(), None);
            }
        }
    }

    #[test]
    fn expose_all_publishes_entire_private_region() {
        let d = SplitDeque::new(16);
        for i in 1..=5 {
            d.push_bottom(job(i));
        }
        assert_eq!(d.update_public_bottom(ExposurePolicy::One), 1);
        // Dying-owner handoff: everything still private becomes stealable.
        assert_eq!(d.expose_all(), 4);
        assert_eq!(d.private_len(), 0);
        assert_eq!(d.public_len(), 5);
        for i in 1..=5 {
            assert_eq!(d.pop_top(), Steal::Ok(job(i)));
        }
        assert_eq!(d.pop_top(), Steal::Empty);
        // Idempotent on an empty deque.
        assert_eq!(d.expose_all(), 0);
    }

    #[test]
    fn reset_for_respawn_restores_canonical_state() {
        let d = SplitDeque::new(16);
        d.push_bottom(job(1));
        d.push_bottom(job(2));
        d.update_public_bottom(ExposurePolicy::One);
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        let tag_before = d.raw_state().2.tag;
        d.reset_for_respawn();
        let (bot, pb, age) = d.raw_state();
        assert_eq!((bot, pb, age.top), (0, 0, 0));
        assert!(
            age.tag > tag_before,
            "respawn reset must open a new tag era"
        );
        // The slot is fully reusable by the replacement owner.
        d.push_bottom(job(3));
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(3)));
    }

    #[test]
    fn push_past_capacity_grows_the_ring() {
        let d = SplitDeque::new(2);
        assert_eq!(d.capacity(), 2);
        d.push_bottom(job(1));
        d.push_bottom(job(2));
        // The old fixed array rejected this push; the ring doubles instead.
        d.push_bottom(job(3));
        assert_eq!(d.capacity(), 4);
        assert_eq!(d.generation(), 1);
        for i in (1..=3).rev() {
            assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(i)));
        }
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), None);
    }

    #[test]
    fn growth_preserves_live_range_across_many_doublings() {
        let d = SplitDeque::new(4);
        for i in 1..=100 {
            d.push_bottom(job(i));
        }
        assert_eq!(d.capacity(), 128);
        assert_eq!(d.generation(), 5, "4 -> 8 -> 16 -> 32 -> 64 -> 128");
        for i in (1..=100).rev() {
            assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(i)));
        }
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), None);
    }

    #[test]
    fn growth_keeps_public_part_stealable() {
        // Expose tasks, then grow: the copied ring must keep the public
        // range intact for thieves and the owner's public pop.
        let d = SplitDeque::new(2);
        d.push_bottom(job(1));
        d.push_bottom(job(2));
        assert_eq!(d.update_public_bottom(ExposurePolicy::One), 1);
        d.push_bottom(job(3)); // grows 2 -> 4
        d.push_bottom(job(4));
        d.push_bottom(job(5)); // grows 4 -> 8
        assert_eq!(d.generation(), 2);
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(5)));
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(4)));
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(3)));
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(2)));
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), None);
        assert_eq!(d.pop_top(), Steal::Empty);
    }

    #[test]
    fn ring_slots_recycle_after_reset_without_growing() {
        // Steals + resets advance the absolute indices; the ring must
        // recycle physical slots instead of growing.
        let d = SplitDeque::new(4);
        for round in 0..16 {
            d.push_bottom(job(round * 2 + 1));
            d.push_bottom(job(round * 2 + 2));
            d.update_public_bottom(ExposurePolicy::One);
            assert!(matches!(d.pop_top(), Steal::Ok(_)));
            assert!(d.pop_bottom(PopBottomMode::SignalSafe).is_some());
            assert!(d.pop_bottom(PopBottomMode::SignalSafe).is_none());
            assert!(d.pop_public_bottom().is_none()); // canonical reset
        }
        assert_eq!(d.generation(), 0, "steady-state reuse must not grow");
        assert_eq!(d.capacity(), 4);
    }

    #[test]
    fn wraparound_expose_steal_pop_and_grow() {
        // Start the era 8 slots below the u32 boundary and drive every
        // protocol operation across the wrap: growth, exposure (the new
        // public_bot lands exactly on 0), steals, SignalSafe pops, and the
        // owner's public-bottom pops with a wrapped decrement.
        let d = SplitDeque::new(4);
        let start = u32::MAX - 7;
        d.set_start_index(start);

        for i in 1..=16 {
            d.push_bottom(job(i)); // grows 4 -> 8 -> 16 across the wrap
        }
        assert_eq!(d.capacity(), 16);
        assert_eq!(d.generation(), 2);
        let (bot, pb, _) = d.raw_indices();
        assert_eq!(bot, start.wrapping_add(16)); // == 8, numerically < pb
        assert_eq!(pb, start);
        assert!(bot < pb, "raw indices must be inverted across the wrap");
        assert_eq!(d.private_len(), 16);
        assert_eq!(d.public_len(), 0);
        assert!(!d.is_empty());
        assert!(d.has_two_tasks());
        assert_eq!(d.pop_top(), Steal::PrivateWork);

        // Half policy: r = 16, expose 8 — public_bot wraps to exactly 0.
        assert_eq!(d.update_public_bottom(ExposurePolicy::Half), 8);
        assert_eq!(d.raw_indices().1, 0);
        assert_eq!(d.public_len(), 8);

        // Thief steals the two oldest tasks across the top end.
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        assert_eq!(d.pop_top(), Steal::Ok(job(2)));

        // Owner drains the private part (indices 0..8 post-wrap).
        for i in (9..=16).rev() {
            assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), Some(job(i)));
        }
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);

        // Public pops decrement public_bot back across the boundary
        // (0 -> u32::MAX -> ...), ending in the canonical reset.
        for i in (3..=8).rev() {
            assert_eq!(d.pop_public_bottom(), Some(job(i)));
        }
        assert_eq!(d.pop_public_bottom(), None);
        let (bot, pb, age) = d.raw_indices();
        assert_eq!((bot, pb, age.top), (0, 0, 0));

        // The re-anchored deque is fully usable in the fresh era.
        d.push_bottom(job(99));
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(99)));
    }

    #[test]
    fn wraparound_concurrent_stress_no_loss_no_duplication() {
        // The concurrent stress, but with the era anchored just below the
        // u32 boundary and a small initial ring so growth, exposure, steals,
        // and pops all race across the wrap.
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;

        const N: usize = 2000;
        let d = SplitDeque::new(8);
        d.set_start_index(u32::MAX - 500);
        let taken = Mutex::new(Vec::<usize>::new());
        let done = AtomicBool::new(false);

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        match d.pop_top() {
                            Steal::Ok(j) => local.push(j as usize),
                            _ => std::hint::spin_loop(),
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
                d.push_bottom(job(i));
                if i % 3 == 0 {
                    d.update_public_bottom(ExposurePolicy::Half);
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
        assert_eq!(set.len(), all.len(), "a task was executed twice");
        assert_eq!(set.len(), N, "a task was lost");
    }

    #[test]
    fn concurrent_steal_stress_no_loss_no_duplication() {
        // One owner exposing and popping, three thieves stealing; every
        // pushed cookie must be taken exactly once.
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        use std::sync::Mutex;

        const N: usize = 2000;
        let d = SplitDeque::new(N + 1);
        let taken = Mutex::new(Vec::<usize>::new());
        let stolen_count = AtomicUsize::new(0);
        let done = AtomicBool::new(false);

        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        match d.pop_top() {
                            Steal::Ok(j) => local.push(j as usize),
                            _ => std::hint::spin_loop(),
                        }
                    }
                    // Final drain.
                    loop {
                        match d.pop_top() {
                            Steal::Ok(j) => local.push(j as usize),
                            Steal::Abort => continue,
                            _ => break,
                        }
                    }
                    stolen_count.fetch_add(local.len(), Ordering::Relaxed);
                    taken.lock().unwrap().extend(local);
                });
            }
            // Owner thread.
            let mut local = Vec::new();
            for i in 1..=N {
                d.push_bottom(job(i));
                if i % 3 == 0 {
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
            // Drain everything the owner still holds.
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
        assert_eq!(set.len(), all.len(), "a task was executed twice");
        assert_eq!(set.len(), N, "a task was lost");
        assert!(set.iter().all(|&v| (1..=N).contains(&v)));
    }
}
