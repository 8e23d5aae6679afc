//! The one atomic seam: every shared word of the scheduler — deque
//! indices, the `age` word, the ring-buffer pointer, sleeper masks, the
//! injector's Treiber head, job links, pool lifecycle flags — is declared
//! with a type from this module, and both opt-in checkers hang off it.
//!
//! * **Default build:** the types *are* `std::sync::atomic`'s (re-exports,
//!   `TypeId`-asserted below) plus `#[inline(always)]` passthroughs for the
//!   named constructors, the counted fence and [`SchedPtr`] — identical
//!   codegen to writing `std` atomics directly.
//! * **Instrumented build** (`model` or `hb`): one macro-generated wrapper
//!   family holding the value and a short field name. Every method routes
//!   its real operation through one of five backend functions, which are
//!   the only checker-specific code here: under `model` they make the
//!   access a scheduling point of the DFS explorer (`crate::model`) and log
//!   a trace line that reads like the paper's listings (`owner: store bot
//!   <- 0`); otherwise they feed the access and its ordering to the
//!   vector-clock race checker (`crate::hb`). With both features on,
//!   `model` wins and the race checker sees no atomics.
//!
//! Ring *slots* are deliberately not shim types: every model script writes
//! them during single-threaded setup, so scheduling their reads would grow
//! the tree without adding behaviours, and the race checker tracks them as
//! data through explicit `hb::on_write` / `hb::speculative_read` hooks.
//!
//! The growable rings' *buffer pointer* is different: the owner
//! republishes it on every resize, so thief captures racing an owner grow
//! are real protocol behaviours. [`SchedPtr`] wraps it; only the owner's
//! own reads ([`SchedPtr::load_owner`]) stay unscheduled under `model` —
//! the owner is the pointer's only writer, so they commute with every
//! other access.

use std::sync::atomic::Ordering;

#[cfg(not(any(feature = "model", feature = "hb")))]
mod imp {
    pub use std::sync::atomic::{
        AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    };

    /// Passthrough: a plain `AtomicU32`; the name only labels model traces.
    #[inline(always)]
    pub fn named_u32(value: u32, _name: &'static str) -> AtomicU32 {
        AtomicU32::new(value)
    }

    /// Passthrough: a plain `AtomicU64`.
    #[inline(always)]
    pub fn named_u64(value: u64, _name: &'static str) -> AtomicU64 {
        AtomicU64::new(value)
    }

    /// Passthrough: a plain `AtomicPtr`.
    #[inline(always)]
    pub(super) fn named_ptr<T>(ptr: *mut T, _name: &'static str) -> AtomicPtr<T> {
        AtomicPtr::new(ptr)
    }

    /// The paper's `atomic_thread_fence(seq_cst)`, with its metrics
    /// accounting (this is exactly `lcws_metrics::fence_seq_cst`).
    #[inline(always)]
    pub fn fence_seq_cst() {
        lcws_metrics::fence_seq_cst();
    }
}

#[cfg(any(feature = "model", feature = "hb"))]
mod imp {
    use std::fmt;
    use std::sync::atomic::Ordering;

    /// DFS explorer: the access is a scheduling point, `describe` its trace
    /// line. Interleaving semantics — orderings are not consulted.
    #[cfg(feature = "model")]
    mod backend {
        use std::sync::atomic::Ordering;

        use crate::model::access;

        type Cas<V> = Result<V, V>;

        #[inline]
        pub fn load<V>(
            _: usize,
            _: Ordering,
            op: impl FnOnce() -> V,
            d: impl FnOnce(&V) -> String,
        ) -> V {
            access(op, d)
        }
        #[inline]
        pub fn store(_: usize, _: Ordering, op: impl FnOnce(), d: impl FnOnce(&()) -> String) {
            access(op, d)
        }
        #[inline]
        pub fn rmw<V>(
            _: usize,
            _: Ordering,
            op: impl FnOnce() -> V,
            d: impl FnOnce(&V) -> String,
        ) -> V {
            access(op, d)
        }
        #[inline]
        pub fn cas<V>(
            _: usize,
            _: Ordering,
            _: Ordering,
            op: impl FnOnce() -> Cas<V>,
            d: impl FnOnce(&Cas<V>) -> String,
        ) -> Cas<V> {
            access(op, d)
        }
        /// A no-op in interleaving semantics, but its *position* between
        /// accesses is part of the protocol, so it shows up in traces.
        #[inline]
        pub fn fence(op: impl FnOnce()) {
            access(op, |_| "fence(seq_cst)".into())
        }
    }

    /// Race checker: the access and its ordering update the vector clocks,
    /// keyed by address; trace lines are never rendered.
    #[cfg(not(feature = "model"))]
    mod backend {
        use std::sync::atomic::Ordering;

        use crate::hb;

        type Cas<V> = Result<V, V>;

        #[inline]
        pub fn load<V>(
            addr: usize,
            order: Ordering,
            op: impl FnOnce() -> V,
            _: impl FnOnce(&V) -> String,
        ) -> V {
            hb::atomic_load(addr, order, op)
        }
        #[inline]
        pub fn store(
            addr: usize,
            order: Ordering,
            op: impl FnOnce(),
            _: impl FnOnce(&()) -> String,
        ) {
            hb::atomic_store(addr, order, op)
        }
        #[inline]
        pub fn rmw<V>(
            addr: usize,
            order: Ordering,
            op: impl FnOnce() -> V,
            _: impl FnOnce(&V) -> String,
        ) -> V {
            hb::atomic_rmw(addr, order, op)
        }
        #[inline]
        pub fn cas<V>(
            addr: usize,
            success: Ordering,
            failure: Ordering,
            op: impl FnOnce() -> Cas<V>,
            _: impl FnOnce(&Cas<V>) -> String,
        ) -> Cas<V> {
            hb::atomic_cas(addr, success, failure, op)
        }
        /// The SC-clock join: the edge fence-paired protocols rely on.
        #[inline]
        pub fn fence(op: impl FnOnce()) {
            hb::fence_seq_cst(op)
        }
    }

    fn show<V: fmt::Display>(v: V) -> String {
        v.to_string()
    }

    /// The only u64 the model scripts watch is the packed `{tag, top}`
    /// `age` word, whose halves are more readable separately.
    fn show_u64(v: u64) -> String {
        format!("{}:{}", v >> 32, v as u32)
    }

    fn show_ptr<T>(p: *mut T) -> String {
        format!("{p:p}")
    }

    /// One instrumented atomic: `$Name` wraps `std`'s type of the same
    /// name; `$show` renders a value for trace lines; the bracketed list
    /// names the value-in, old-value-out RMWs the scheduler uses on it.
    macro_rules! shim_atomic {
        ($Name:ident $(<$G:ident>)?, $V:ty, $show:expr, [$($rmw:ident),*]) => {
            /// Checker-instrumented stand-in for the `std` atomic of the
            /// same name.
            #[derive(Debug, Default)]
            pub struct $Name $(<$G>)? {
                pub(super) inner: std::sync::atomic::$Name $(<$G>)?,
                name: &'static str,
            }

            #[allow(dead_code)]
            impl $(<$G>)? $Name $(<$G>)? {
                /// Drop-in for `std`'s constructor; traces show a
                /// placeholder name.
                #[inline]
                pub const fn new(v: $V) -> Self {
                    Self::named(v, "atomic")
                }

                /// Constructor carrying the field name trace lines use.
                #[inline]
                pub const fn named(v: $V, name: &'static str) -> Self {
                    Self { inner: std::sync::atomic::$Name::new(v), name }
                }

                #[inline]
                fn addr(&self) -> usize {
                    &self.inner as *const _ as usize
                }

                #[inline]
                pub fn load(&self, order: Ordering) -> $V {
                    backend::load(
                        self.addr(),
                        order,
                        || self.inner.load(order),
                        |v| format!("load {} -> {}", self.name, $show(*v)),
                    )
                }

                #[inline]
                pub fn store(&self, v: $V, order: Ordering) {
                    backend::store(
                        self.addr(),
                        order,
                        || self.inner.store(v, order),
                        |_| format!("store {} <- {}", self.name, $show(v)),
                    )
                }

                $(
                    #[inline]
                    pub fn $rmw(&self, v: $V, order: Ordering) -> $V {
                        backend::rmw(
                            self.addr(),
                            order,
                            || self.inner.$rmw(v, order),
                            |old| format!(
                                "{} {} {} (was {})",
                                stringify!($rmw), self.name, $show(v), $show(*old)
                            ),
                        )
                    }
                )*

                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $V,
                    new: $V,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$V, $V> {
                    backend::cas(
                        self.addr(),
                        success,
                        failure,
                        || self.inner.compare_exchange(current, new, success, failure),
                        |r| self.describe_cas(current, new, r),
                    )
                }

                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    current: $V,
                    new: $V,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$V, $V> {
                    backend::cas(
                        self.addr(),
                        success,
                        failure,
                        || self.inner.compare_exchange_weak(current, new, success, failure),
                        |r| self.describe_cas(current, new, r),
                    )
                }

                fn describe_cas(&self, current: $V, new: $V, r: &Result<$V, $V>) -> String {
                    let head = format!("cas {} {} -> {}", self.name, $show(current), $show(new));
                    match r {
                        Ok(_) => format!("{head} ok"),
                        Err(seen) => format!("{head} FAILED (saw {})", $show(*seen)),
                    }
                }
            }
        };
    }

    shim_atomic!(AtomicBool, bool, show, [swap]);
    shim_atomic!(AtomicU8, u8, show, [swap]);
    shim_atomic!(AtomicU32, u32, show, [swap]);
    shim_atomic!(
        AtomicU64,
        u64,
        show_u64,
        [swap, fetch_add, fetch_or, fetch_and]
    );
    shim_atomic!(AtomicUsize, usize, show, [swap, fetch_add, fetch_sub]);
    shim_atomic!(AtomicPtr<T>, *mut T, show_ptr, [swap]);

    /// Named `u32` deque word.
    #[inline]
    pub fn named_u32(value: u32, name: &'static str) -> AtomicU32 {
        AtomicU32::named(value, name)
    }

    /// Named `u64` word (the `age`).
    #[inline]
    pub fn named_u64(value: u64, name: &'static str) -> AtomicU64 {
        AtomicU64::named(value, name)
    }

    /// Named pointer word (the ring-buffer pointer).
    #[inline]
    pub(super) fn named_ptr<T>(ptr: *mut T, name: &'static str) -> AtomicPtr<T> {
        AtomicPtr::named(ptr, name)
    }

    /// The paper's fence, counted as always, as a checker event.
    #[inline]
    pub fn fence_seq_cst() {
        backend::fence(lcws_metrics::fence_seq_cst)
    }
}

pub use imp::{
    fence_seq_cst, named_u32, named_u64, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8,
    AtomicUsize,
};

/// The growable rings' buffer pointer — the explorer's `Resize` decision
/// point. Default build: a `#[repr(transparent)]` `AtomicPtr` with
/// `#[inline(always)]` forwarding, one atomic pointer load per operation.
#[derive(Debug)]
#[repr(transparent)]
pub struct SchedPtr<T>(AtomicPtr<T>);

impl<T> SchedPtr<T> {
    /// The name labels model traces only.
    #[inline(always)]
    pub fn new(ptr: *mut T, name: &'static str) -> Self {
        SchedPtr(imp::named_ptr(ptr, name))
    }

    /// Capture the buffer for a thief/handler-visible operation: racing an
    /// owner grow is a real decision for the explorer.
    #[inline(always)]
    pub fn load(&self, order: Ordering) -> *mut T {
        self.0.load(order)
    }

    /// Owner-side read of a pointer only the owner writes. Unscheduled
    /// under `model` (it commutes with every concurrent access, like the
    /// task slots); still instrumented under `hb`, where an Acquire here
    /// would be a real edge.
    #[inline(always)]
    pub fn load_owner(&self, order: Ordering) -> *mut T {
        #[cfg(feature = "model")]
        return self.0.inner.load(order);
        #[cfg(not(feature = "model"))]
        self.0.load(order)
    }

    /// Publish a freshly grown buffer (owner-only write).
    #[inline(always)]
    pub fn store(&self, ptr: *mut T, order: Ordering) {
        self.0.store(ptr, order)
    }
}

#[cfg(test)]
mod tests {
    #[cfg(not(any(feature = "model", feature = "hb")))]
    #[test]
    fn shims_are_std_aliases_by_default() {
        use std::any::TypeId;
        use std::sync::atomic as std_atomic;
        // The zero-cost claim, statically: with both checkers off the shim
        // types *are* the std atomics, so no codegen can differ.
        macro_rules! same {
            ($($T:ident $(<$G:ty>)?),*) => {$(
                assert_eq!(
                    TypeId::of::<super::$T $(<$G>)?>(),
                    TypeId::of::<std_atomic::$T $(<$G>)?>()
                );
            )*};
        }
        same!(
            AtomicBool,
            AtomicU8,
            AtomicU32,
            AtomicU64,
            AtomicUsize,
            AtomicPtr<u8>
        );
        // `SchedPtr` cannot be a bare alias (it must also compile
        // instrumented), but it adds no bytes.
        use std::mem::{align_of, size_of};
        assert_eq!(
            size_of::<super::SchedPtr<u8>>(),
            size_of::<std_atomic::AtomicPtr<u8>>()
        );
        assert_eq!(
            align_of::<super::SchedPtr<u8>>(),
            align_of::<std_atomic::AtomicPtr<u8>>()
        );
    }

    #[cfg(any(feature = "model", feature = "hb"))]
    #[test]
    fn instrumented_wrappers_behave_like_std() {
        // Whatever the backend records, every wrapper method must return
        // what `std`'s would (one macro body per method: one check each).
        use std::sync::atomic::Ordering::SeqCst;
        let w = super::AtomicU64::new(0b0110);
        assert_eq!(w.fetch_or(0b0001, SeqCst), 0b0110);
        assert_eq!(w.fetch_and(0b0011, SeqCst), 0b0111);
        assert_eq!(w.fetch_add(1, SeqCst), 0b0011);
        assert_eq!(w.swap(9, SeqCst), 4);
        assert_eq!(w.compare_exchange(9, 10, SeqCst, SeqCst), Ok(9));
        assert_eq!(w.compare_exchange(9, 11, SeqCst, SeqCst), Err(10));
        assert_eq!(w.load(SeqCst), 10);
        let mut x = 0u8;
        let p = super::SchedPtr::new(std::ptr::null_mut::<u8>(), "p");
        p.store(&mut x, SeqCst);
        assert_eq!(p.load(SeqCst), &mut x as *mut u8);
        assert_eq!(p.load_owner(SeqCst), &mut x as *mut u8);
    }
}
