//! Work-stealing deques: the paper's split deque and the ABP/Parlay-style
//! fully-concurrent deque used as the WS baseline.
//!
//! Both deques store thin `*mut Job` pointers in a generation-tagged
//! growable ring buffer ([`ring`]; the paper's fixed
//! `array<alligned_task_t, size> deq` is the initial generation) and guard
//! their top end with one monotone `u64` `top` index (Chase–Lev style, in
//! place of the paper's `{tag, top}` `age` word; see [`ring`]).
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

/// Signed distance `a - b` between two absolute ring indices.
///
/// Indices only grow, but the split deque's SignalSafe pop leaves `bot`
/// transiently one below `public_bot`, so lengths and emptiness tests need
/// a signed compare. Every live extent is bounded by
/// [`MAX_DEQUE_CAPACITY`] = 2³⁰, far inside `i64`.
#[inline(always)]
pub(crate) fn sdist(a: u64, b: u64) -> i64 {
    a.wrapping_sub(b) as i64
}

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
                let (bot, top) = d.raw_state();
                (0, sdist(bot, top).max(0) as u32)
            }
            AnyDeque::Split(d) => (d.private_len(), d.public_len()),
        }
    }
}

/// *Initial* number of slots of every pool worker's deque.
///
/// Fork-join recursion depth bounds the live extent for `join`-structured
/// programs (depth ≤ log2 n), while `scope` spawns can fill it linearly;
/// either way the ring doubles itself on demand, so the initial capacity
/// only tunes how many early doublings a deep workload pays.
pub const DEFAULT_DEQUE_CAPACITY: usize = 1 << 13;
