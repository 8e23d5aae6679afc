//! Generation-tagged growable ring buffer shared by both deques.
//!
//! The Chase–Lev lineage (Chase & Lev 2005; Le, Pop, Cohen & Zappa Nardelli
//! 2013) replaces the paper's fixed slot arrays: slot indices are
//! *absolute* `u64`s that only grow (`top` never moves back, and an empty
//! pop re-anchors `bot` at `top`), mapped onto a power-of-two ring as
//! `index & mask`. When `push_bottom` finds the ring full it allocates a
//! double-size ring, copies the old ring's slots to the same absolute
//! indices, and publishes the new buffer pointer with a Release store
//! (`crate::shim::SchedPtr`). Cross-thread readers capture the pointer
//! **once per operation** with an Acquire load and index modulo the
//! captured ring's own capacity.
//!
//! ## Why stale captures are safe
//!
//! A retired ring is never written again, so a thief still holding it reads
//! frozen slot values. The thief's `top` CAS validates the read: the slot
//! at absolute index `t` (the `top` it loaded) can only have been
//! *overwritten* in the captured ring by a push at `t + capacity` or later,
//! which the full check forbids until `top > t` — and `top > t` makes the
//! CAS fail, discarding the stale read. The capture therefore has to happen
//! **after** the `top` load; both `pop_top` implementations do exactly
//! that.
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
//! Absolute indices are `u64`. `top` moves by one per taken task and never
//! back, so reusing a `top` value (the ABA case that the paper's `{tag,
//! top}` word guards against with its tag) takes 2⁶⁴ steals. Every live
//! extent the protocols compare is bounded by [`MAX_DEQUE_CAPACITY`] = 2³⁰,
//! and ordering comparisons go through the signed distance
//! (`crate::deque::sdist`), which also covers the split deque's transient
//! `bot = public_bot - 1`. Growth is capped at [`MAX_DEQUE_CAPACITY`]
//! slots; a push that would need more aborts the process, as the allocator
//! does when it cannot grow.

use std::cell::{Cell, UnsafeCell};
use std::io::Write;
use std::sync::atomic::{AtomicPtr, Ordering};

use lcws_metrics::Event;

use crate::deque::sdist;
use crate::fault::{self, Site};
use crate::hb;
use crate::job::Job;
use crate::shim::SchedPtr;
use crate::trace;

/// Hard ceiling on a ring's slot count: 2³⁰ slots (8 GiB of task pointers).
/// Far past any real workload: a push beyond it aborts the process.
pub const MAX_DEQUE_CAPACITY: usize = 1 << 30;

/// One immutable-capacity ring: a power-of-two slot array plus the
/// generation tag (how many doublings produced it).
pub(crate) struct RingBuffer {
    gen: u32,
    mask: u64,
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
            mask: (capacity - 1) as u64,
            slots,
        }))
    }

    /// Slot holding absolute index `index`.
    #[inline(always)]
    pub(crate) fn slot(&self, index: u64) -> &AtomicPtr<Job> {
        // Safety: `mask + 1 == slots.len()`, so the masked index is in
        // range by construction.
        unsafe { self.slots.get_unchecked((index & self.mask) as usize) }
    }

    /// Slot count (a power of two).
    #[inline(always)]
    pub(crate) fn capacity(&self) -> u64 {
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
/// `top` line), and the retirement list.
///
/// Thread roles mirror the deques': exactly one owner calls
/// [`GrowableRing::for_push`] / [`GrowableRing::owner`] /
/// [`GrowableRing::top_bound`] / [`GrowableRing::set_top_bound`]; any
/// thread may call [`GrowableRing::capture`].
pub(crate) struct GrowableRing {
    /// Current ring. Owner publishes (Release) on grow; cross-thread
    /// readers capture with Acquire, once per operation.
    buffer: SchedPtr<RingBuffer>,
    /// Owner-local lower bound on `top`, refreshed only when the cheap
    /// check fails. `top` only grows, so `cached_top ≤ top` holds at all
    /// times and a passing fast check soundly proves the ring is not full.
    cached_top: Cell<u64>,
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
    /// operation's `top` load — see the module docs for why the `top` CAS
    /// then validates any stale capture.
    #[inline(always)]
    pub(crate) fn capture(&self) -> &RingBuffer {
        unsafe { &*self.buffer.load(Ordering::Acquire) }
    }

    /// Owner: the ring to push absolute index `b` into, doubling first when
    /// full. `load_top` reads the deque's current `top`; it is only invoked
    /// when the cached bound cannot prove a free slot.
    #[inline(always)]
    pub(crate) fn for_push(&self, b: u64, load_top: impl FnOnce() -> u64) -> &RingBuffer {
        let buf = self.owner();
        // `cached_top ≤ top` ⟹ `b - top ≤ b - cached_top < capacity`:
        // the live range has a free slot, no shared access needed. (`b`
        // below the bound wraps to a huge distance and takes the slow path.)
        if b.wrapping_sub(self.cached_top.get()) < buf.capacity() {
            return buf;
        }
        self.refresh_or_grow(b, buf, load_top)
    }

    #[cold]
    #[inline(never)]
    fn refresh_or_grow<'a>(
        &'a self,
        b: u64,
        buf: &'a RingBuffer,
        load_top: impl FnOnce() -> u64,
    ) -> &'a RingBuffer {
        let top = load_top();
        self.cached_top.set(top);
        // `b` behind `top` is the split deque's transient SignalSafe-miss
        // state (`bot` decremented below `public_bot`); not a full ring.
        if sdist(b, top) < 0 || b - top < buf.capacity() {
            return buf;
        }
        self.grow(b, buf)
    }

    /// Double the ring. `b - top == capacity` here (the live range is
    /// exactly the whole old ring, possibly conservatively: a concurrent
    /// steal may already have advanced `top`, which only shrinks the range
    /// actually alive inside the copied window).
    ///
    /// At [`MAX_DEQUE_CAPACITY`] it prints a message and aborts, like the
    /// allocator when it cannot grow. A panic would unwind out of the push
    /// with the caller's bookkeeping already raised for a job that was
    /// never queued (a scope's `pending`), and the caller would hang.
    #[cold]
    fn grow<'a>(&'a self, b: u64, old: &RingBuffer) -> &'a RingBuffer {
        let old_cap = old.capacity();
        if old_cap as usize >= MAX_DEQUE_CAPACITY {
            // Not `eprintln!`: that panics if stderr is gone.
            let _ = writeln!(
                std::io::stderr(),
                "deque ring at its {MAX_DEQUE_CAPACITY}-slot maximum: cannot grow"
            );
            std::process::abort();
        }
        let new_ptr = RingBuffer::alloc(old_cap as usize * 2, old.generation() + 1);
        let new_buf = unsafe { &*new_ptr };
        // Copy the whole old ring to the same absolute indices. Plain
        // (Relaxed) copies: the publish below releases them, and the old
        // ring is the owner's own data.
        for idx in b - old_cap..b {
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
        trace::emit(Event::DequeGrow, 1, new_buf.capacity() as u32);
        new_buf
    }

    /// Owner: the cached lower bound on `top`. `bot` at or below it proves
    /// the deque empty without touching the shared `top` line.
    #[inline(always)]
    pub(crate) fn top_bound(&self) -> u64 {
        self.cached_top.get()
    }

    /// Owner: set the cached bound to `bound`, a `top` value the owner has
    /// acquired (an empty pop's re-anchor) or set itself (respawn and the
    /// `set_start_index` test hooks, at quiescence).
    #[inline(always)]
    pub(crate) fn set_top_bound(&self, bound: u64) {
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
