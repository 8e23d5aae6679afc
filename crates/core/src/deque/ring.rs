//! Generation-tagged growable ring buffer shared by both deques.
//!
//! The Chase–Lev lineage (Chase & Lev 2005; Le, Pop, Cohen & Zappa Nardelli
//! 2013) replaces the paper's fixed slot arrays: slot indices stay
//! *absolute* (monotonically increasing between empty-resets) and map onto a
//! power-of-two ring as `index & mask`. When `push_bottom` finds the ring
//! full it allocates a double-size ring, copies the old ring's slots to the
//! same absolute indices, and publishes the new buffer pointer with a
//! Release store (`crate::shim::SchedPtr`). Cross-thread readers
//! capture the pointer **once per operation** with an Acquire load and index
//! modulo the captured ring's own capacity.
//!
//! ## Why stale captures are safe
//!
//! A retired ring is never written again, so a thief still holding it reads
//! frozen slot values. The thief's `age` CAS validates the read: the slot at
//! absolute index `t` (with `t = age.top` at CAS time) can only have been
//! *overwritten* in the captured ring by a push at `t + capacity` or later,
//! which the full check forbids until `top > t` — and `top > t` (or an
//! owner reset, which bumps the ABA tag) makes the CAS fail, discarding the
//! stale read. The capture therefore has to happen **after** the `age`
//! load; both `pop_top` implementations do exactly that.
//!
//! ## Reclamation (epoch-free, no GC)
//!
//! Retired rings go on an owner-only retirement list. They are freed at the
//! pool's run-close quiescence point — after the `active` handshake proves
//! every helper left its work loop (parked helpers do not touch deques
//! between epochs, and the SIGUSR1 handler only moves `public_bot`, never
//! the buffer) — and on `Drop` for standalone deques.
//!
//! ## Index-width bound
//!
//! Absolute indices are `u32`, like the paper's. Because every capacity is
//! a power of two (and so divides 2³²), slot addressing stays consistent
//! even across index wrap-around, and the protocols' ordering comparisons
//! go through the wrap-safe signed distance (`crate::deque::sdist`), which
//! is exact while every live extent stays below 2³¹ — guaranteed by the
//! [`MAX_DEQUE_CAPACITY`] = 2³⁰ cap. A deque on a long-lived `serve` pool
//! can therefore push straight through the 2³² wrap mid-era; no empty-reset
//! is required for correctness (the wraparound tests in `split.rs`/`abp.rs`
//! start their indices at `u32::MAX - ε` and cross the boundary live).
//! Growth is capped at [`MAX_DEQUE_CAPACITY`] slots; a push that would need
//! more reports [`DequeFull`] and the scheduler degrades to the legacy
//! inline fallback.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicPtr, Ordering};

use lcws_metrics::Event;

use crate::deque::{sdist, DequeFull};
use crate::fault::{self, Site};
use crate::hb;
use crate::job::Job;
use crate::shim::SchedPtr;
use crate::trace;

/// Hard ceiling on a ring's slot count: 2³⁰ slots (8 GiB of task pointers).
/// Far past any real workload, comfortably inside the `u32` index space,
/// and the point where growth degrades to the inline-execution fallback
/// instead of doubling further.
pub const MAX_DEQUE_CAPACITY: usize = 1 << 30;

/// One immutable-capacity ring: a power-of-two slot array plus the
/// generation tag (how many doublings produced it).
pub(crate) struct RingBuffer {
    gen: u32,
    mask: u32,
    slots: Box<[AtomicPtr<Job>]>,
}

impl RingBuffer {
    fn alloc(capacity: usize, gen: u32) -> *mut RingBuffer {
        debug_assert!(capacity.is_power_of_two() && capacity <= MAX_DEQUE_CAPACITY);
        let slots = (0..capacity)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        Box::into_raw(Box::new(RingBuffer {
            gen,
            mask: (capacity - 1) as u32,
            slots,
        }))
    }

    /// Slot holding absolute index `index`.
    #[inline(always)]
    pub(crate) fn slot(&self, index: u32) -> &AtomicPtr<Job> {
        // Safety: `mask + 1 == slots.len()`, so the masked index is in
        // range by construction.
        unsafe { self.slots.get_unchecked((index & self.mask) as usize) }
    }

    /// Slot count (a power of two).
    #[inline(always)]
    pub(crate) fn capacity(&self) -> u32 {
        self.mask + 1
    }

    /// Doublings since the deque's initial ring (0 = initial).
    #[inline(always)]
    pub(crate) fn generation(&self) -> u32 {
        self.gen
    }
}

/// The growable half of a deque: current-buffer pointer, the owner's
/// cached lower bound on `top` (keeps the full check off the contended
/// `age` line), and the retirement list.
///
/// Thread roles mirror the deques': exactly one owner calls
/// [`GrowableRing::for_push`] / [`GrowableRing::owner`] /
/// [`GrowableRing::reset_top_bound`]; any thread may call
/// [`GrowableRing::capture`].
pub(crate) struct GrowableRing {
    /// Current ring. Owner publishes (Release) on grow; cross-thread
    /// readers capture with Acquire, once per operation.
    buffer: SchedPtr<RingBuffer>,
    /// Owner-local lower bound on `age.top`, refreshed only when the cheap
    /// check fails. Invariant: `cached_top ≤ top` at all times within the
    /// current tag era (every reset path calls `reset_top_bound`), so a
    /// passing fast check soundly proves the ring is not full.
    cached_top: Cell<u32>,
    /// Rings retired by grows; owner-only appends, freed at run-close
    /// quiescence or drop.
    retired: UnsafeCell<Vec<*mut RingBuffer>>,
}

impl GrowableRing {
    /// Ring with `capacity` rounded up to a power of two.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity <= MAX_DEQUE_CAPACITY,
            "deque capacity must be in 1..={MAX_DEQUE_CAPACITY}, got {capacity}"
        );
        GrowableRing {
            buffer: SchedPtr::new(RingBuffer::alloc(capacity.next_power_of_two(), 0), "buffer"),
            cached_top: Cell::new(0),
            retired: UnsafeCell::new(Vec::new()),
        }
    }

    /// Owner-side view of the current ring. Unscheduled under `model` and
    /// Relaxed: the owner is the pointer's only writer, so its own reads
    /// need no ordering and commute with every concurrent access.
    #[inline(always)]
    pub(crate) fn owner(&self) -> &RingBuffer {
        unsafe { &*self.buffer.load_owner(Ordering::Relaxed) }
    }

    /// Cross-thread capture of the current ring, **once per operation**.
    /// Acquire pairs with the grow's Release publish, making the copied
    /// slots (and the ring header) visible. Must be called *after* the
    /// operation's `age` load — see the module docs for why the `age` CAS
    /// then validates any stale capture.
    #[inline(always)]
    pub(crate) fn capture(&self) -> &RingBuffer {
        unsafe { &*self.buffer.load(Ordering::Acquire) }
    }

    /// Owner: the ring to push absolute index `b` into, doubling first when
    /// full. `load_top` reads the deque's current `age.top`; it is only
    /// invoked when the cached bound cannot prove a free slot.
    #[inline(always)]
    pub(crate) fn for_push(
        &self,
        b: u32,
        load_top: impl FnOnce() -> u32,
    ) -> Result<&RingBuffer, DequeFull> {
        let buf = self.owner();
        // `cached_top ≤ top` ⟹ `b - top ≤ b - cached_top < capacity`:
        // the live range has a free slot, no shared access needed.
        if b.wrapping_sub(self.cached_top.get()) < buf.capacity() {
            return Ok(buf);
        }
        self.refresh_or_grow(b, buf, load_top)
    }

    #[cold]
    #[inline(never)]
    fn refresh_or_grow<'a>(
        &'a self,
        b: u32,
        buf: &'a RingBuffer,
        load_top: impl FnOnce() -> u32,
    ) -> Result<&'a RingBuffer, DequeFull> {
        let top = load_top();
        self.cached_top.set(top);
        // `b` behind `top` is the split deque's transient SignalSafe-miss
        // state (`bot` decremented below `public_bot`); not a full ring.
        // Signed distance, not `<`: either index may have wrapped.
        if sdist(b, top) < 0 || b.wrapping_sub(top) < buf.capacity() {
            return Ok(buf);
        }
        self.grow(b, buf)
    }

    /// Double the ring. `b - top == capacity` here (the live range is
    /// exactly the whole old ring, possibly conservatively: a concurrent
    /// steal may already have advanced `top`, which only shrinks the range
    /// actually alive inside the copied window).
    #[cold]
    fn grow<'a>(&'a self, b: u32, old: &RingBuffer) -> Result<&'a RingBuffer, DequeFull> {
        let old_cap = old.capacity();
        if old_cap as usize >= MAX_DEQUE_CAPACITY || fault::fail_at(Site::DequeResize) {
            return Err(DequeFull);
        }
        let new_ptr = RingBuffer::alloc(old_cap as usize * 2, old.generation() + 1);
        let new_buf = unsafe { &*new_ptr };
        // Copy the whole old ring to the same absolute indices. Plain
        // (Relaxed) copies: the publish below releases them, and the old
        // ring is the owner's own data.
        for i in 0..old_cap {
            // Wrapping: the live window `[b - old_cap, b)` may straddle the
            // u32 boundary on a long-lived (never-reset) deque.
            let idx = b.wrapping_sub(old_cap).wrapping_add(i);
            hb::on_write(
                new_buf.slot(idx) as *const _ as usize,
                "ring slot (grow copy)",
            );
            new_buf
                .slot(idx)
                .store(old.slot(idx).load(Ordering::Relaxed), Ordering::Relaxed);
        }
        // The resize window: everything is copied but thieves still run on
        // the old ring until the publish below. Delay storms here stretch
        // the window the chaos tests race steals against.
        fault::point(Site::DequeResize);
        // `grow_publish_order()` is a compile-time `Release` unless an hb
        // negative test deliberately weakens it to demonstrate the checker
        // catches the severed copied-slots edge.
        self.buffer
            .store(new_ptr, hb::negative::grow_publish_order());
        // Retired rings stay readable (never written) until quiescence.
        unsafe { (*self.retired.get()).push(old as *const RingBuffer as *mut RingBuffer) };
        trace::emit(Event::DequeGrow, 1, new_buf.capacity());
        Ok(new_buf)
    }

    /// Owner: reset the cached `top` bound to the fresh era's 0. Must be
    /// called on every `age` reset path — the cache is only a valid lower
    /// bound within one tag era.
    #[inline(always)]
    pub(crate) fn reset_top_bound(&self) {
        self.cached_top.set(0);
    }

    /// Owner (test hook): seed the cached `top` bound at an arbitrary
    /// absolute index. Used by the deques' `#[doc(hidden)]`
    /// `set_start_index` hooks, which start an era near `u32::MAX` to
    /// exercise index wraparound.
    pub(crate) fn set_top_bound(&self, bound: u32) {
        self.cached_top.set(bound);
    }

    /// Free every retired ring; returns how many were freed.
    ///
    /// # Safety
    /// The caller must guarantee no thread still holds a
    /// [`GrowableRing::capture`]d reference to a retired ring — the pool
    /// calls this at run-close quiescence, after the `active` handshake.
    pub(crate) unsafe fn release_retired(&self) -> usize {
        let retired = &mut *self.retired.get();
        let n = retired.len();
        for p in retired.drain(..) {
            forget_ring_slots(p);
            drop(Box::from_raw(p));
        }
        n
    }
}

/// Drop the checker's access history for a ring's slot array before the
/// allocation is freed — a later ring reusing the addresses must not be
/// misread as racing the dead one.
fn forget_ring_slots(p: *mut RingBuffer) {
    // Safety: the caller owns `p` and is about to free it.
    unsafe {
        let slots: &[AtomicPtr<Job>] = &(*p).slots;
        hb::forget_range(slots.as_ptr() as usize, std::mem::size_of_val(slots));
    }
}

impl Drop for GrowableRing {
    fn drop(&mut self) {
        // Safety: `&mut self` proves exclusive access.
        unsafe {
            self.release_retired();
            let current = self.buffer.load_owner(Ordering::Relaxed);
            forget_ring_slots(current);
            drop(Box::from_raw(current));
        }
    }
}
