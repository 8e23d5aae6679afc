//! # lcws — Efficient Synchronization-Light Work Stealing (SPAA '23) in Rust
//!
//! Facade crate: re-exports the scheduler core, the Parlay-style parallel
//! toolkit, and the PBBS benchmark suite from one place. See `README.md`
//! for the project layout, `DESIGN.md` for the paper→code map, and
//! `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! ```
//! use lcws::{PoolBuilder, Variant};
//!
//! let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
//! let mut data: Vec<u64> = (0..10_000).rev().collect();
//! pool.run(|| lcws::parlay::sort(&mut data));
//! assert!(data.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![deny(missing_docs)]

pub use lcws_core::{
    default_grain, in_pool, join, num_workers, par_for, par_for_grain, scope, worker_index, Event,
    ExposurePolicy, NotifyChannel, ParseVariantError, Policies, PolicyError, PoolBuilder,
    PopBottomMode, Scope, Snapshot, SplitDeque, StealAmount, ThreadPool, Variant, VictimSelection,
};

/// The Parlay-style parallel algorithms toolkit (see `parlay-rs`).
pub mod parlay {
    pub use parlay_rs::*;
}

/// The PBBS benchmark suite and input generators (see `pbbs-rs`).
pub mod pbbs {
    pub use pbbs_rs::*;
}

/// Synchronization-operation instrumentation (see `lcws-metrics`).
pub mod metrics {
    pub use lcws_metrics::*;
}
