//! The split deque of Listing 2, with the paper's §4 signal-safe
//! `pop_bottom` variant and the §4.1 exposure policies.
//!
//! Layout invariant (see Figure 1): slots `[top, bot)` hold tasks;
//! `[top, public_bot)` is the **public part** (stealable), and
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
//! * In `pop_top`, `top` is loaded with Acquire so the subsequent
//!   `public_bot` load cannot be hoisted above it on weak ISAs (free on
//!   x86).
//! * **Slot reuse.** A thief's steal CAS on `top` is **Release** on
//!   success, and the push's top-bound refresh is **Acquire**. The owner
//!   overwrites a stolen slot's physical cell (ring wrap) only after
//!   learning through that read that `top` moved past it; the pair orders
//!   that overwrite after the thief's slot read. The listing's plain
//!   accesses get this from x86-TSO (same instructions: `lock cmpxchg`,
//!   `mov`); ABP's steal CAS is SeqCst for the same reason.
//! * **Monotone indices.** The listing's `age = {tag, top}` word and its
//!   empty-reset to index 0 are replaced by Chase–Lev's monotone `u64`
//!   `top`: the owner's last-task CAS advances `top`, and an empty pop
//!   re-anchors `bot` and `public_bot` at `top`. The reset let a thief pair
//!   the old `top` with the new `bot = 0`; with no reset there is nothing
//!   to pair, and reusing a `top` value takes 2⁶⁴ steals.
//!
//! None of these strengthen the *fence/CAS counts* the evaluation measures.
//!
//! ## The §4 owner-vs-handler race
//!
//! With signals, `update_public_bottom` runs inside a `SIGUSR1` handler that
//! can interrupt the owner *between any two instructions* of `pop_bottom`.
//! [`PopBottomMode::SignalSafe`] implements the paper's fix: decrement `bot`
//! first, then compare with `public_bot` (`--bot < public_bot`), with
//! `pop_public_bottom` repairing `bot` when it finds the public part empty.
//! One extra guard not spelled out in the listing: when `bot` is at the
//! owner's cached lower bound on `top`, the **whole deque** is provably
//! empty, so we return `None` before decrementing; a handler then reads
//! `bot == public_bot` and exposes nothing. An empty *private* part alone
//! is no such proof: `pop_public_bottom` must then run with `bot` one below
//! `public_bot`, or a handler landing after its `public_bot` decrement
//! would re-expose the slot the owner is taking. Until the repair,
//! comparisons go through the signed distance ([`crate::deque::sdist`]).
//!
//! ## Growable storage
//!
//! Slots live in a generation-tagged growable ring ([`crate::deque::ring`])
//! rather than a fixed array: `push_bottom` doubles the ring when full,
//! thieves capture the buffer pointer
//! once per `pop_top` (after the `top` load, which validates stale
//! captures), and the handler's `update_public_bottom` never touches the
//! buffer at all — it only moves `public_bot` — so the §4 argument is
//! untouched by resizes. The fence/CAS placement of every operation is
//! unchanged from the fixed-array version (asserted by the fence-counting
//! tests): growth adds no synchronization to the fast path.

use std::sync::atomic::Ordering;

use crossbeam_utils::CachePadded;
use lcws_metrics::{self as metrics, Event};

use crate::deque::ring::GrowableRing;
use crate::deque::{sdist, Steal};
use crate::fault::{self, Site};
use crate::hb;
use crate::job::Job;
// All index words go through the shim atomics: plain std atomics in
// normal builds, DFS scheduling points under the opt-in `model` feature.
use crate::shim::{self, AtomicU64};
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
/// deques. Pinned, like `pop_top_batch`, by the benchmark (`lcws-e2e`),
/// which compiles against it.
pub const STEAL_BATCH_MAX: usize = 16;

/// The split deque (Listing 2). One per worker; the worker is the only
/// caller of `push_bottom` / `pop_bottom` / `pop_public_bottom` /
/// `update_public_bottom`, while any thief may call `pop_top` /
/// `has_two_tasks` / `is_empty`.
pub struct SplitDeque {
    /// Index of the top-most public task; only ever grows.
    top: CachePadded<AtomicU64>,
    /// One past the bottom-most public task; the private part starts here.
    public_bot: CachePadded<AtomicU64>,
    /// One past the bottom-most task overall (owner-local).
    bot: CachePadded<AtomicU64>,
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
            top: CachePadded::new(shim::named_u64(0, "top")),
            public_bot: CachePadded::new(shim::named_u64(0, "public_bot")),
            bot: CachePadded::new(shim::named_u64(0, "bot")),
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
    /// store of `bot`. A full ring is doubled in place (amortized O(1)).
    #[inline]
    pub fn push_bottom(&self, task: *mut Job) {
        let b = self.bot.load(Ordering::Relaxed);
        // Acquire: a `top` that moved frees cells for the write below,
        // which must come after the thief's read of them (*Slot reuse*).
        let buf = self.ring.for_push(b, || self.top.load(Ordering::Acquire));
        hb::on_write(buf.slot(b) as *const _ as usize, "split slot (push_bottom)");
        buf.slot(b).store(task, Ordering::Relaxed);
        self.bot.store(b + 1, Ordering::Relaxed);
        trace::emit(Event::Push, 1, (b + 1) as u32);
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
                let b1 = b - 1;
                self.bot.store(b1, Ordering::Relaxed);
                let task = self.ring.owner().slot(b1).load(Ordering::Relaxed);
                trace::emit(Event::LocalPop, 1, b1 as u32);
                Some(task)
            }
            PopBottomMode::SignalSafe => {
                // §4: `--bot < public_bot ? nullptr : deq[bot]`, plus the
                // empty-deque guard discussed in the module docs.
                let b = self.bot.load(Ordering::Relaxed);
                if sdist(b, self.ring.top_bound()) <= 0 {
                    return None;
                }
                let b1 = b - 1;
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
                trace::emit(Event::LocalPop, 1, b1 as u32);
                Some(task)
            }
        }
    }

    /// Owner: pop the bottom-most task of the **public** part (Listing 2
    /// lines 9–29, with the §4 repair of `bot` when the public part is
    /// empty).
    ///
    /// Pays the paper's two seq-cst fences unless `public_bot` stands where
    /// an earlier pop found the deque empty, and a CAS when racing thieves
    /// for the last public task.
    pub fn pop_public_bottom(&self) -> Option<*mut Job> {
        fault::point(Site::PopPublicBottom);
        let pb0 = self.public_bot.load(Ordering::Relaxed);
        // `top_bound <= top <= public_bot`: `public_bot` at the owner's
        // cached bound proves the public part empty without a fence or a
        // read of the thieves' `top` line.
        if sdist(pb0, self.ring.top_bound()) <= 0 {
            // §4 modification: repair `bot` (the SignalSafe pop_bottom may
            // have left it decremented below `public_bot`).
            self.bot.store(pb0, Ordering::Relaxed);
            return None;
        }
        let pb = pb0 - 1;
        // Release, not Relaxed: a plain store would *break the release
        // sequence* headed by the exposure's Release store (C++20), so a
        // thief acquire-loading the decremented value would lose the edge
        // covering the still-public slots `[top, pb)` — the hb checker
        // catches this as slot races under the SignalSafe variants. (The
        // paper's Listing 2 uses seq-cst stores here, which release too.)
        self.public_bot.store(pb, Ordering::Release);
        // Fence #1 (Listing 2 line 12): publish the decrement to thieves and
        // read an up-to-date `top`.
        shim::fence_seq_cst();
        let task = self.ring.owner().slot(pb).load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if sdist(pb, t) > 0 {
            // More than one public task remained: the bottom-most one is
            // ours without contention. Private part is empty here (this
            // method is only called when pop_bottom failed), so `bot`
            // follows the boundary.
            self.bot.store(pb, Ordering::Relaxed);
            trace::emit(Event::OwnerPublicPop, 1, pb as u32);
            return Some(task);
        }
        // At most one public task remains and thieves may be racing for it.
        // A delay here (between the two fences) widens the owner-vs-thief
        // CAS race.
        fault::point(Site::PopPublicBottom);
        // Either way the deque ends empty at `top == pb0`: a thief already
        // took slot `pb` (`t == pb0`), or the CAS below or a thief's moves
        // `top` from `pb` to `pb0`. Re-anchor both bottoms there,
        // `public_bot` first: a handler landing between the two stores
        // reads `bot <= public_bot` and exposes nothing.
        // Release (sequence continuation, as above), before the CAS: a
        // thief that reads the advanced `top` from it reads this
        // `public_bot` or a later one.
        self.public_bot.store(pb0, Ordering::Release);
        self.bot.store(pb0, Ordering::Relaxed);
        let won = if pb == t {
            metrics::record_cas();
            // Success Release as the thieves' CAS; failure Acquire, like
            // every owner read of `top` here.
            self.top
                .compare_exchange(t, pb0, Ordering::Release, Ordering::Acquire)
                .is_ok()
        } else {
            false
        };
        // The owner has acquired `top == pb0` (the `t` load, a failed CAS)
        // or set it (a won CAS), as the push's refresh would learn it.
        self.ring.set_top_bound(pb0);
        if won {
            trace::emit(Event::OwnerPublicPop, 1, pb0 as u32);
        }
        // Fence #2 (Listing 2 line 27). In the listing it stops thieves
        // pairing the reset `age` with the old `public_bot`; with no reset
        // it is kept so the counted synchronisation stays the paper's.
        shim::fence_seq_cst();
        won.then_some(task)
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
        let t = self.top.load(Ordering::Acquire);
        let pb = self.public_bot.load(Ordering::Acquire);
        if sdist(pb, t) > 0 {
            // Single buffer capture per steal, *after* the `top` load: the
            // CAS below fails whenever `top` moved, which is the only way
            // this ring's slot at `top` could have been overwritten or the
            // ring retired-and-superseded mid-steal (see `deque::ring`).
            let slot = self.ring.capture().slot(t);
            // Speculative for the checker: this read only counts (and only
            // races) if the validating CAS below commits it.
            let pending = hb::speculative_read(slot as *const _ as usize, "split slot (pop_top)");
            let task = slot.load(Ordering::Relaxed);
            // Stretch the read-top → CAS window thieves race within; a
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
                .top
                .compare_exchange(t, t + 1, Ordering::Release, Ordering::Relaxed)
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

    /// Thief: steal up to `⌈public/2⌉` tasks with **one** validating `top`
    /// CAS.
    ///
    /// **Unsound, and no pool calls it**: the owner's `pop_public_bottom`
    /// can take a slot of `[top, top+k)` through `public_bot` alone before
    /// the CAS, which still succeeds (DESIGN §5h). Pinned by the benchmark
    /// (`lcws-e2e`), which measures it.
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
    /// `top → top+1`; the CAS succeeding proves `top` never moved between
    /// the read and the commit, so the slot could not have been overwritten
    /// (a ring wrap onto it needs `top` past it) nor taken by another thief
    /// (which requires advancing `top`).
    ///
    /// The multi-slot extension takes `k ≤ ⌈sdist(public_bot, top)/2⌉`
    /// slots `[top, top+k)`. Every index is strictly below the
    /// `public_bot` value loaded *after* `top`, so every slot was written
    /// before the exposure's Release store and the Acquire load here — the
    /// per-slot publication edge is the scalar one, `k` times. The single
    /// CAS `top → top+k` validates all `k` reads at once: if any other CAS
    /// taker touched the range first, `top` changed and the CAS fails,
    /// taking nothing. An owner `pop_public_bottom` racing on the *last*
    /// public task CASes the same word, so the two-fence protocol is
    /// undisturbed: the batch either wins wholly before the owner's CAS
    /// (owner sees `top` advanced, resigns) or loses wholly. Signal-handler
    /// exposures only move
    /// `public_bot` upward, which can only under-count `avail` here —
    /// never expose a slot to double-take. Taking at most *half* (the
    /// ceiling) leaves the remainder immediately re-stealable, preserving
    /// the paper's steal-half fairness argument on the thief side.
    pub fn pop_top_batch(&self, extras: &mut Vec<*mut Job>, max_extra: usize) -> Steal {
        fault::point(Site::PopTop);
        metrics::bump(Event::StealAttempt);
        let t = self.top.load(Ordering::Acquire);
        let pb = self.public_bot.load(Ordering::Acquire);
        let avail = sdist(pb, t);
        if avail > 0 {
            let avail = avail as u64;
            // Half of the public part, rounded up, capped by the caller's
            // budget and the stack-array bound; always at least the one
            // task a scalar steal would take.
            let k = (avail.div_ceil(2))
                .min(max_extra.min(STEAL_BATCH_MAX - 1) as u64 + 1)
                .max(1) as usize;
            // Single buffer capture per steal, after the `top` load, exactly
            // as in pop_top: the CAS below fails whenever `top` moved, which
            // is the only way any of the `k` slots could have been
            // overwritten or the ring retired mid-steal.
            let buf = self.ring.capture();
            let mut tasks = [std::ptr::null_mut::<Job>(); STEAL_BATCH_MAX];
            let mut pending: [Option<hb::PendingRead>; STEAL_BATCH_MAX] =
                std::array::from_fn(|_| None);
            for (i, (task, pend)) in tasks.iter_mut().zip(pending.iter_mut()).take(k).enumerate() {
                let slot = buf.slot(t + i as u64);
                // Speculative for the checker: these reads only count (and
                // only race) if the validating CAS below commits them.
                *pend = Some(hb::speculative_read(
                    slot as *const _ as usize,
                    "split slot (pop_top_batch)",
                ));
                *task = slot.load(Ordering::Relaxed);
            }
            // Same stretchable read-top → CAS window as the scalar steal.
            if fault::fail_at(Site::PopTop) {
                metrics::bump(Event::StealAbort);
                return Steal::Abort;
            }
            metrics::record_cas();
            // Success Release, as in `pop_top`: orders the `k` slot reads
            // before the owner's reuse of those slots.
            if self
                .top
                .compare_exchange(t, t + k as u64, Ordering::Release, Ordering::Relaxed)
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
        // Private-part length (the transient SignalSafe decrement can make
        // it -1, clamped to 0).
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
                .store(pb + exposed as u64, Ordering::Release);
            // May run in signal-handler context; both halves of the call
            // are async-signal-safe by design (see `crate::trace`).
            trace::emit(Event::Exposure, exposed as u64, exposed);
        }
        exposed
    }

    /// Owner: publish the **entire** private region (`public_bot ← bot`,
    /// whatever the [`ExposurePolicy`]) and return how many tasks that
    /// exposed. A setup hook for tests and the `model` scenarios that start
    /// from an all-public deque; the pool never calls it. Not part of the
    /// stable API.
    #[doc(hidden)]
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

    /// Test hook: re-anchor an **empty, quiescent** deque at absolute index
    /// `start` (`bot`, `public_bot`, `top` and the ring's cached top
    /// bound). Lets the tests and the `model` scenarios start at high
    /// indices.
    ///
    /// Not part of the stable API; callable only with no concurrent owner,
    /// thief, or handler.
    #[doc(hidden)]
    pub fn set_start_index(&self, start: u64) {
        self.bot.store(start, Ordering::Relaxed);
        self.public_bot.store(start, Ordering::Relaxed);
        self.top.store(start, Ordering::Relaxed);
        self.ring.set_top_bound(start);
    }

    /// Thief-side heuristic for the Conservative variant's notification
    /// condition (§4.1.1): does the victim hold at least two tasks?
    #[inline]
    pub fn has_two_tasks(&self) -> bool {
        let b = self.bot.load(Ordering::Relaxed);
        let top = self.top.load(Ordering::Relaxed);
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
        let top = self.top.load(Ordering::Relaxed);
        sdist(pb, top).max(0) as u32
    }

    /// Is the deque observably empty (racy)?
    pub fn is_empty(&self) -> bool {
        let b = self.bot.load(Ordering::Relaxed);
        let top = self.top.load(Ordering::Relaxed);
        sdist(b, top) <= 0
    }

    /// Raw `(bot, public_bot, top)` snapshot. For tests and the model
    /// checker, which assert that a drained deque rests at
    /// `bot == public_bot == top`; not part of the stable API.
    #[doc(hidden)]
    pub fn raw_state(&self) -> (u64, u64, u64) {
        (
            self.bot.load(Ordering::Relaxed),
            self.public_bot.load(Ordering::Relaxed),
            self.top.load(Ordering::Relaxed),
        )
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
        // The last-task CAS advanced `top`; both bottoms rest there.
        assert_eq!(d.raw_state(), (1, 1, 1));
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
        assert_eq!(d.raw_state(), (1, 1, 1));
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
        // modification makes pop_public_bottom repair it.
        let d = SplitDeque::new(16);
        d.push_bottom(job(1));
        d.update_public_bottom(ExposurePolicy::One);
        // Thief steals the exposed task.
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        // The miss leaves `bot` one below `public_bot`; the public pop
        // finds the deque drained and re-anchors both bottoms at `top`.
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);
        assert_eq!(d.raw_state(), (0, 1, 1));
        assert_eq!(d.pop_public_bottom(), None);
        assert_eq!(d.raw_state(), (1, 1, 1));
        // Now the empty deque is proved empty before the decrement.
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);
        assert_eq!(d.raw_state(), (1, 1, 1));
        d.push_bottom(job(2));
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), Some(job(2)));
    }

    #[test]
    fn signal_safe_miss_on_an_all_public_deque_decrements_bot() {
        // An empty private part over a non-empty public part is no proof
        // of an empty deque: the miss still leaves `bot` one below
        // `public_bot`, so a handler during the public pop exposes nothing.
        let d = SplitDeque::new(16);
        d.push_bottom(job(1));
        d.push_bottom(job(2));
        d.push_bottom(job(3));
        assert_eq!(d.expose_all(), 3);
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);
        assert_eq!(d.raw_state(), (2, 3, 1));
        assert_eq!(d.pop_public_bottom(), Some(job(3)));
        assert_eq!(d.raw_state(), (2, 2, 1));
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
        d.set_start_index(u64::from(u32::MAX) - 2);
        for i in 1..=8 {
            d.push_bottom(job(i));
        }
        assert_eq!(d.expose_all(), 8);
        // The take range [top, top+4) straddles 2³².
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
        // Everything still private becomes stealable.
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
        // Steals advance the absolute indices for good; the ring must
        // recycle physical slots instead of growing.
        let d = SplitDeque::new(4);
        for round in 0..16 {
            d.push_bottom(job(round * 2 + 1));
            d.push_bottom(job(round * 2 + 2));
            d.update_public_bottom(ExposurePolicy::One);
            assert!(matches!(d.pop_top(), Steal::Ok(_)));
            assert!(d.pop_bottom(PopBottomMode::SignalSafe).is_some());
            assert!(d.pop_bottom(PopBottomMode::SignalSafe).is_none());
            assert!(d.pop_public_bottom().is_none());
        }
        assert_eq!(d.raw_state(), (16, 16, 16));
        assert_eq!(d.generation(), 0, "steady-state reuse must not grow");
        assert_eq!(d.capacity(), 4);
    }

    #[test]
    fn wraparound_expose_steal_pop_and_grow() {
        // Start at a high index (8 below 2³²) and drive every protocol
        // operation past 2³²: growth, exposure (the new public_bot lands
        // exactly on it), steals, SignalSafe pops, and the owner's
        // public-bottom pops.
        let d = SplitDeque::new(4);
        let start = u64::from(u32::MAX) - 7;
        d.set_start_index(start);

        for i in 1..=16 {
            d.push_bottom(job(i)); // grows 4 -> 8 -> 16 across 2^32
        }
        assert_eq!(d.capacity(), 16);
        assert_eq!(d.generation(), 2);
        assert_eq!(d.raw_state(), (start + 16, start, start));
        assert_eq!(d.private_len(), 16);
        assert_eq!(d.public_len(), 0);
        assert!(!d.is_empty());
        assert!(d.has_two_tasks());
        assert_eq!(d.pop_top(), Steal::PrivateWork);

        // Half policy: r = 16, expose 8 — public_bot lands on 2^32.
        assert_eq!(d.update_public_bottom(ExposurePolicy::Half), 8);
        assert_eq!(d.raw_state().1, 1 << 32);
        assert_eq!(d.public_len(), 8);

        // Thief steals the two oldest tasks across the top end.
        assert_eq!(d.pop_top(), Steal::Ok(job(1)));
        assert_eq!(d.pop_top(), Steal::Ok(job(2)));

        // Owner drains the private part (indices above 2^32).
        for i in (9..=16).rev() {
            assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), Some(job(i)));
        }
        assert_eq!(d.pop_bottom(PopBottomMode::SignalSafe), None);

        // Public pops walk public_bot back below 2^32; the last one's CAS
        // advances `top`, and every index rests there.
        for i in (3..=8).rev() {
            assert_eq!(d.pop_public_bottom(), Some(job(i)));
        }
        assert_eq!(d.pop_public_bottom(), None);
        assert_eq!(d.raw_state(), (start + 3, start + 3, start + 3));

        d.push_bottom(job(99));
        assert_eq!(d.pop_bottom(PopBottomMode::Standard), Some(job(99)));
    }

    #[test]
    fn wraparound_concurrent_stress_no_loss_no_duplication() {
        // The concurrent stress, but started at a high index (500 below
        // 2³²) with a small initial ring, so growth, exposure, steals and
        // pops all race across 2³².
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;

        const N: usize = 2000;
        let d = SplitDeque::new(8);
        d.set_start_index(u64::from(u32::MAX) - 500);
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
