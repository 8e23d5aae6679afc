//! The two-field `age` word shared by the ABP and split deques.
//!
//! Both deques guard their top end with a single atomic word holding the
//! index of the top-most element (`top`) and a monotonically growing `tag`
//! that prevents the ABA problem on the reset path (Listing 2 of the paper,
//! after Dechev et al.). The two `u32` halves are packed into one `u64` so a
//! plain `AtomicU64` compare-and-swap updates them together.

use std::sync::atomic::Ordering;

use crate::shim::{self, AtomicU64};

/// Packed `{tag, top}` value. `top` lives in the low 32 bits so that the
/// common "bump top by one" update is an add on the raw word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Age {
    /// ABA-avoidance epoch, bumped every time the deque is reset.
    pub tag: u32,
    /// Index of the deque's top-most element.
    pub top: u32,
}

impl Age {
    /// The all-zero age a fresh deque starts with.
    pub const ZERO: Age = Age { tag: 0, top: 0 };

    /// Pack into the raw `u64` representation.
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.tag as u64) << 32) | self.top as u64
    }

    /// Unpack from the raw `u64` representation.
    #[inline]
    pub fn unpack(raw: u64) -> Age {
        Age {
            tag: (raw >> 32) as u32,
            top: raw as u32,
        }
    }

    /// This age with `top` advanced by one (a successful steal). Wraps:
    /// `top` is an absolute ring index, monotone modulo 2³² within an era
    /// (ordering comparisons against it go through the wrap-safe signed
    /// distance in `crate::deque`).
    #[inline]
    pub fn with_top_incremented(self) -> Age {
        Age {
            tag: self.tag,
            top: self.top.wrapping_add(1),
        }
    }

    /// This age with `top` advanced by `k` (a successful batch steal of `k`
    /// tasks validated by a single CAS). Wraps like
    /// [`Age::with_top_incremented`]; `with_top_advanced(1)` is identical to
    /// it.
    #[inline]
    pub fn with_top_advanced(self, k: u32) -> Age {
        Age {
            tag: self.tag,
            top: self.top.wrapping_add(k),
        }
    }

    /// The age after a deque reset: `top` back to zero, `tag` bumped so
    /// in-flight thieves holding the old age fail their CAS.
    #[inline]
    pub fn reset(self) -> Age {
        Age {
            tag: self.tag.wrapping_add(1),
            top: 0,
        }
    }
}

/// An atomic [`Age`] cell.
///
/// Backed by the `crate::shim` atomic so that, under the opt-in
/// `model` feature, every `age` access is a scheduling point of the
/// interleaving explorer; the default build is a plain `AtomicU64`.
#[derive(Debug)]
pub struct AtomicAge(AtomicU64);

impl AtomicAge {
    /// New cell holding [`Age::ZERO`].
    pub fn new() -> Self {
        AtomicAge(shim::named_u64(Age::ZERO.pack(), "age"))
    }

    /// Load with the given ordering.
    #[inline]
    pub fn load(&self, order: Ordering) -> Age {
        Age::unpack(self.0.load(order))
    }

    /// Store with the given ordering.
    #[inline]
    pub fn store(&self, age: Age, order: Ordering) {
        self.0.store(age.pack(), order)
    }

    /// Single-word compare-and-exchange over both fields.
    ///
    /// The caller is responsible for accounting the CAS via
    /// [`lcws_metrics::record_cas`]; this type stays measurement-free so the
    /// instrumentation sites mirror the paper's listings exactly.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Age,
        new: Age,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Age, Age> {
        self.0
            .compare_exchange(current.pack(), new.pack(), success, failure)
            .map(Age::unpack)
            .map_err(Age::unpack)
    }
}

impl Default for AtomicAge {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        for &(tag, top) in &[
            (0u32, 0u32),
            (1, 0),
            (0, 1),
            (u32::MAX, u32::MAX),
            (0xDEAD_BEEF, 0x1234_5678),
        ] {
            let a = Age { tag, top };
            assert_eq!(Age::unpack(a.pack()), a);
        }
    }

    #[test]
    fn top_lives_in_low_bits() {
        let a = Age { tag: 0, top: 7 };
        assert_eq!(a.pack(), 7);
        let b = Age { tag: 1, top: 0 };
        assert_eq!(b.pack(), 1u64 << 32);
    }

    #[test]
    fn increment_and_reset() {
        let a = Age { tag: 3, top: 9 };
        assert_eq!(a.with_top_incremented(), Age { tag: 3, top: 10 });
        assert_eq!(a.with_top_advanced(1), a.with_top_incremented());
        assert_eq!(a.with_top_advanced(5), Age { tag: 3, top: 14 });
        // Multi-slot advance wraps like the single-slot one.
        let e = Age {
            tag: 3,
            top: u32::MAX - 1,
        };
        assert_eq!(e.with_top_advanced(3), Age { tag: 3, top: 1 });
        assert_eq!(a.reset(), Age { tag: 4, top: 0 });
        // Tag wraps instead of overflowing.
        let m = Age {
            tag: u32::MAX,
            top: 5,
        };
        assert_eq!(m.reset(), Age { tag: 0, top: 0 });
        // `top` wraps too: it is an absolute index modulo 2³² within an
        // era, so a steal at `top == u32::MAX` must carry into 0.
        let w = Age {
            tag: 2,
            top: u32::MAX,
        };
        assert_eq!(w.with_top_incremented(), Age { tag: 2, top: 0 });
    }

    #[test]
    fn atomic_cas_success_and_failure() {
        let cell = AtomicAge::new();
        let cur = cell.load(Ordering::Relaxed);
        assert_eq!(cur, Age::ZERO);
        let next = cur.with_top_incremented();
        assert!(cell
            .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok());
        // Stale CAS fails and reports the live value.
        let err = cell
            .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            .unwrap_err();
        assert_eq!(err, next);
    }
}
