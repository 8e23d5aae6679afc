//! Work-stealing deques: the paper's split deque and the ABP/Parlay-style
//! fully-concurrent deque used as the WS baseline.
//!
//! Both deques store thin `*mut Job` pointers in a generation-tagged
//! growable ring buffer ([`ring`]; the paper's fixed
//! `array<alligned_task_t, size> deq` is the initial generation) and share
//! the packed `{tag, top}` [`crate::age::Age`] word at their top end.
//!
//! Synchronization accounting: every seq-cst fence goes through
//! [`lcws_metrics::fence_seq_cst`] and every CAS is recorded with
//! [`lcws_metrics::record_cas`], placed at exactly the program points of the
//! paper's Listings — this is what regenerates Figures 3 and 8. Ring growth
//! adds nothing to those counts: the fast path pays one extra atomic
//! pointer load per operation, never a fence or CAS.

mod abp;
pub mod ring;
mod split;

pub use abp::AbpDeque;
pub use ring::MAX_DEQUE_CAPACITY;
pub use split::{double2int, ExposurePolicy, PopBottomMode, SplitDeque, STEAL_BATCH_MAX};

use crate::job::Job;

/// Wrap-safe signed distance `a - b` between two absolute ring indices.
///
/// Absolute `u32` indices are monotone within an era but wrap modulo 2³²,
/// so direct `<`/`>` comparisons are wrong once a long-lived deque (a
/// `serve`-mode pool that never drains) pushes through the wrap. The
/// two's-complement reinterpretation is exact whenever the true distance
/// lies in `[-2³¹, 2³¹)` — guaranteed here because every live extent the
/// protocols compare (`bot - top`, `bot - public_bot`, `public_bot - top`)
/// is bounded by [`MAX_DEQUE_CAPACITY`] = 2³⁰, and the transient
/// negatives (the §4 signal-safe decrement-then-compare) are `-1`.
#[inline(always)]
pub(crate) fn sdist(a: u32, b: u32) -> i32 {
    a.wrapping_sub(b) as i32
}

/// Error of a fallible bottom push. With growable rings this is nearly
/// extinct: it arises only when the `faultpoints` layer forces the
/// `PushBottom` or `DequeResize` outcome, or when the ring already sits at
/// [`MAX_DEQUE_CAPACITY`]. The task was **not** enqueued; the caller still
/// owns it and is expected to degrade gracefully (the scheduler runs it
/// inline on the owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DequeFull;

impl std::fmt::Display for DequeFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deque is full")
    }
}

impl std::error::Error for DequeFull {}

/// Outcome of a thief's `pop_top` attempt on the **split** deque.
///
/// The ABP deque has its own outcome type ([`AbpSteal`]) without the
/// `PrivateWork` sentinel: a fully-concurrent deque has no private part, so
/// the type system — not a dead match arm — rules the state out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// A task was stolen.
    Ok(*mut Job),
    /// The public part holds no work at all.
    Empty,
    /// The public part is empty but the victim has private work — the thief
    /// should request exposure (record a request in the victim's request
    /// word; signal bundles escalate one that outlives its grace to
    /// `SIGUSR1`). This is the paper's `PRIVATE_WORK` sentinel.
    PrivateWork,
    /// The CAS race was lost to another taker; retry elsewhere. This is the
    /// paper's `ABORT` sentinel.
    Abort,
}

impl Steal {
    /// The stolen job, if any.
    #[inline]
    pub fn success(self) -> Option<*mut Job> {
        match self {
            Steal::Ok(j) => Some(j),
            _ => None,
        }
    }
}

/// Outcome of a thief's `pop_top` attempt on the **ABP** deque, which can
/// never report `PrivateWork` — every task in a fully-concurrent deque is
/// public.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbpSteal {
    /// A task was stolen.
    Ok(*mut Job),
    /// The deque holds no work.
    Empty,
    /// The CAS race was lost to another taker; retry elsewhere.
    Abort,
}

impl AbpSteal {
    /// The stolen job, if any.
    #[inline]
    pub fn success(self) -> Option<*mut Job> {
        match self {
            AbpSteal::Ok(j) => Some(j),
            _ => None,
        }
    }
}

/// A worker's deque: ABP for the WS baseline, split for every LCWS variant.
pub(crate) enum AnyDeque {
    Abp(AbpDeque),
    Split(SplitDeque),
}

impl AnyDeque {
    /// Free ring buffers retired by growth during the closing run.
    ///
    /// # Safety
    /// Quiescence only: every helper must have left its work loop (the
    /// run-close `active` handshake), so no thread still holds a captured
    /// buffer pointer. Parked helpers do not touch deques between epochs,
    /// and the SIGUSR1 handler only moves `public_bot` — a late signal
    /// cannot reach a retired ring either.
    pub(crate) unsafe fn release_retired(&self) -> usize {
        match self {
            AnyDeque::Abp(d) => d.release_retired(),
            AnyDeque::Split(d) => d.release_retired(),
        }
    }

    /// Racy `(private, public)` depth snapshot for the stall report. The
    /// ABP deque has no private part: every task is stealable.
    pub(crate) fn depths(&self) -> (u32, u32) {
        match self {
            AnyDeque::Abp(d) => {
                let (bot, age) = d.raw_state();
                (0, bot.saturating_sub(age.top))
            }
            AnyDeque::Split(d) => (d.private_len(), d.public_len()),
        }
    }

    /// Restore the canonical empty state before a replacement worker takes
    /// over this slot. Caller must hold quiescence (between runs, under the
    /// run lock).
    pub(crate) fn reset_for_respawn(&self) {
        match self {
            AnyDeque::Abp(d) => d.reset_for_respawn(),
            AnyDeque::Split(d) => d.reset_for_respawn(),
        }
    }
}

/// Default *initial* number of slots per worker deque.
///
/// Fork-join recursion depth bounds the live extent for `join`-structured
/// programs (depth ≤ log2 n), while `scope` spawns can fill it linearly;
/// either way the ring doubles itself on demand, so the initial capacity
/// only tunes how many early doublings a deep workload pays.
/// [`crate::PoolBuilder::deque_capacity`] sets it per pool.
pub const DEFAULT_DEQUE_CAPACITY: usize = 1 << 13;
