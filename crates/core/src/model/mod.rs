//! `lcws-model`: a deterministic interleaving explorer for the deque
//! protocols (opt-in via the `model` cargo feature, mirroring
//! `faultpoints` and `trace`).
//!
//! ## Why
//!
//! The paper's §4 correctness argument hinges on one subtlety: a `SIGUSR1`
//! handler may run `update_public_bottom` between **any two instructions**
//! of the owner's `pop_bottom`, and only the `--bot < public_bot` trick
//! plus the right (pop-mode × exposure-policy) pairing prevents a lost or
//! double-run task. Stress tests sample a handful of interleavings; this
//! module *enumerates* them.
//!
//! ## How
//!
//! The scheduler performs every atomic access through the shim types of
//! `crate::shim`. With the feature off, the shims are `std::sync::atomic`
//! re-exports — release codegen is unchanged. With the feature on, each
//! access first parks the calling thread on a central scheduler that
//! grants exactly one thread at a time, so a whole execution is a
//! deterministic sequence of scheduler decisions. [`explore`] then drives a depth-first search over
//! that decision tree: replay a recorded prefix, extend it with
//! first-choice decisions to completion, check the user's invariants,
//! backtrack.
//!
//! ## The signal model (what loom lacks)
//!
//! Besides picking which thread's atomic access runs next, the scheduler
//! has one extra choice at every point where the handler's target thread
//! is parked: **deliver the signal now**. Delivery runs the handler
//! closure inline on the target thread — before the access the target was
//! about to perform — which models a full `SIGUSR1` handler executing
//! between any two of the owner's atomic accesses. The handler's own
//! atomic accesses remain scheduling points, so other threads (a thief's
//! CAS, say) interleave with the handler body exactly as real preemption
//! allows. One execution delivers the handler at most once; a script that
//! needs n deliveries models them as n explored executions of smaller
//! scripts, which keeps the state space tractable.
//!
//! ## Scope and abstractions (see DESIGN.md §5c)
//!
//! * Interleaving (sequentially-consistent) semantics: every access reads
//!   the globally latest value. Weak-memory reorderings are *not*
//!   explored; the checker targets the paper's algorithmic races, not the
//!   fence placement (which `split.rs` documents separately).
//! * Task-slot (`AtomicPtr`) accesses pass through unscheduled: slots are
//!   written during single-threaded setup in every script, so their reads
//!   commute with everything — removing them from the schedule loses no
//!   behaviours while shrinking the tree by orders of magnitude.
//! * The growable rings' *buffer pointer* (`shim::SchedPtr`) is the
//!   exception — the `Resize` decision point. The owner's grow-publish
//!   store and every thief-side capture are scheduling points, so
//!   owner-grow vs. thief-steal vs. handler-expose interleavings are
//!   enumerated like any other access. Only the owner's *own* reads of the
//!   pointer (`load_owner`) pass through: the owner is its sole writer, so
//!   those reads commute with everything. The grow's slot copies into the
//!   not-yet-published ring are invisible to other threads by definition
//!   and stay unscheduled with the other slot accesses.
//! * Threads not registered with the scheduler (the explorer thread doing
//!   setup/drain, ordinary test threads) pass through the shims directly.

#[cfg(feature = "model")]
mod dfs;

#[cfg(feature = "model")]
pub(crate) use dfs::access;
#[cfg(feature = "model")]
pub use dfs::{explore, pause, Execution, Options, Report, Violation};

/// Explicit scheduling point with no atomic access attached. Model-thread
/// scripts use it to let the scheduler act (e.g. deliver a pending signal)
/// at a program point that performs no atomic access of its own — before a
/// protocol's first access or after its last. No-op when the `model`
/// feature is off or the calling thread is not a registered model thread.
#[cfg(not(feature = "model"))]
#[inline(always)]
pub fn pause() {}
