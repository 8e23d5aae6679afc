//! # lcws-core — synchronization-light work stealing
//!
//! A faithful Rust implementation of the schedulers from **"Efficient
//! Synchronization-Light Work Stealing"** (Custódio, Paulino, Rito —
//! SPAA '23), which in turn implement the *Low-Cost Work Stealing* (LCWS)
//! algorithm of Rito & Paulino over **split deques**.
//!
//! ## The idea
//!
//! Classic work stealing (WS) keeps every task in a fully concurrent deque,
//! so even the owner pays a sequentially-consistent fence on *every* local
//! pop (a cost Attiya et al. proved unavoidable for such deques). LCWS
//! splits each deque into a **private part** — a plain, synchronization-free
//! call stack for its owner — and a **public part** that thieves steal
//! from. Work migrates from private to public only when a thief asks for it
//! (a *work-exposure request*), so the owner pays synchronization
//! proportional to the amount of *actual* load balancing (`O(S·P)` expected)
//! rather than to the total work (`O(W)`).
//!
//! ## The five schedulers ([`Variant`])
//!
//! | Variant | Deque | Exposure request | Exposure amount |
//! |---|---|---|---|
//! | [`Variant::Ws`] | ABP (fully concurrent) | — | — |
//! | [`Variant::UsLcws`] | split | request word, polled at task boundaries | 1 task |
//! | [`Variant::Signal`] | split | request word, then `SIGUSR1` if unserved after `EXPOSE_GRACE_NS`; handled in constant time | 1 task |
//! | [`Variant::SignalConservative`] | split | as `Signal`, only if victim holds ≥ 2 tasks | 1 task (never the last) |
//! | [`Variant::SignalHalf`] | split | as `Signal` | `round(r/2)` of `r ≥ 3` tasks |
//!
//! ## Quick start
//!
//! ```
//! use lcws_core::{join, par_for, PoolBuilder, Variant};
//!
//! let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
//! let sum = pool.run(|| {
//!     // Fork-join parallelism with a synchronization-light scheduler.
//!     fn sum_range(lo: u64, hi: u64) -> u64 {
//!         if hi - lo < 1_000 {
//!             (lo..hi).sum()
//!         } else {
//!             let mid = lo + (hi - lo) / 2;
//!             let (a, b) = join(|| sum_range(lo, mid), || sum_range(mid, hi));
//!             a + b
//!         }
//!     }
//!     sum_range(0, 100_000)
//! });
//! assert_eq!(sum, 100_000 * 99_999 / 2);
//! ```
//!
//! Synchronization profiles (the paper's Figures 3 and 8) are one call away:
//!
//! ```
//! # use lcws_core::{PoolBuilder, Variant};
//! let pool = PoolBuilder::new(Variant::UsLcws).threads(2).build();
//! let (_, profile) = pool.run_measured(|| {
//!     lcws_core::par_for(0..10_000, |_i| { std::hint::black_box(0); });
//! });
//! println!("fences: {}, CAS: {}", profile.fences(), profile.cas());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod age;
mod api;
pub mod deque;
pub mod fault;
pub mod hb;
mod injector;
mod job;
pub mod model;
mod policy;
mod pool;
mod shim;
mod signal;
mod sleep;
pub mod trace;
mod variant;
mod worker;

pub use age::{Age, AtomicAge};
pub use api::{
    default_grain, in_pool, join, num_workers, par_for, par_for_grain, scope, worker_index, Scope,
};
pub use deque::{double2int, ExposurePolicy, PopBottomMode, SplitDeque};
pub use injector::JoinHandle;
pub use job::Job;
pub use policy::{NotifyChannel, Policies, PolicyError, StealAmount, VictimSelection};
pub use pool::{PoolBuilder, ThreadPool};
pub use signal::EXPOSE_SIGNAL;
#[cfg(feature = "trace")]
pub use trace::Trace;
pub use trace::TraceEvent;
pub use variant::{ParseVariantError, Variant};

// Re-export the metrics surface users need to interpret `run_measured`.
pub use lcws_metrics::{Event, Snapshot};
