//! Composable scheduling policies: the axes the five paper variants are
//! points in.
//!
//! [`Variant`] is a closed enum because the paper evaluates exactly five
//! schedulers — but each scheduler is really a *composition* of orthogonal
//! choices: which deque backs each worker, how thieves ask for work, how
//! much the victim exposes, which `pop_bottom` flavour the owner needs and
//! which victim a thief probes. This module names those axes and bundles a
//! choice per axis into a [`Policies`] value. Every thief takes one task
//! per steal CAS, as in the paper; [`StealAmount`] has that one value.
//!
//! The variants stay the compatibility surface ([`Variant::policies`]
//! returns the composition each one denotes), while
//! [`crate::PoolBuilder::policies`] accepts any bundle — e.g. the base
//! signal scheduler with near-first victim order. Only the free axes are
//! fields. The deque and the owner's `pop_bottom` flavour are
//! *consequences* of them — no exposure channel means everything must be
//! public (ABP), and asynchronous unconstrained exposure needs the §4
//! decrement-then-compare — so a bundle pairing, say, signal-driven
//! exposure with the standard `pop_bottom` (the lost-task race §4 exists
//! to prevent) cannot be written down, and every bundle is sound.

use crate::deque::{ExposurePolicy, PopBottomMode};
use crate::variant::Variant;

/// How a thief tells a victim with only private work to expose some —
/// and thereby which deque backs each worker: the paper's split deque
/// (private part synchronization-free, work exposed on request) whenever
/// there is a channel to request through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NotifyChannel {
    /// No exposure requests at all, so nothing may be private: workers run
    /// the fully-concurrent ABP deque, every task stealable, the owner
    /// paying a seq-cst fence per pop (the WS baseline).
    None,
    /// Record the request in the victim's `expose_request` word; the victim
    /// serves it at its next task boundary (§3, USLCWS). A victim stuck in
    /// a long task serves it only when the task ends.
    Flag,
    /// The same request word, and a thief that finds a request still
    /// unserved after `EXPOSE_GRACE_NS` escalates it to `SIGUSR1`, once;
    /// the victim's handler serves it in constant time however long its
    /// task runs (§4). A failed send leaves the request on the word.
    Signal,
}

/// The order in which a thief picks victims to probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimSelection {
    /// Independent uniform draw over the other `P - 1` workers (the
    /// paper's choice; bias-free by construction, see
    /// `worker::victim_from_random`).
    Uniform,
    /// Locality-aware: probe victims in order of worker-index distance
    /// (`self + 1`, `self + 2`, … mod `P`), restarting from the nearest
    /// after a successful steal, and falling back to the uniform draw once
    /// a full ring of probes came up empty. Index distance is a proxy for
    /// cache/NUMA distance under the usual linear thread pinning; the
    /// fallback keeps the ring from orbiting a starved neighbourhood.
    NearFirst,
}

/// How many tasks a successful steal CAS transfers to the thief.
///
/// One, always: the paper's protocol on both deques. The type and
/// [`Policies::steal`] stay only because the benchmark (`lcws-e2e`)
/// assigns the field; the benchmark PR that retires what only it pins
/// deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealAmount {
    /// Exactly one task per CAS.
    One,
}

/// A full bundle of scheduling policies — one choice per axis.
///
/// Obtain one from a named composition ([`Policies::ws`] …
/// [`Policies::signal_half`], or [`Variant::policies`]), tweak the open
/// axes, and hand it to [`crate::PoolBuilder::policies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policies {
    /// Exposure-request channel (and with it the deque, see
    /// [`NotifyChannel`]).
    pub notify: NotifyChannel,
    /// Exposure amount per handled request (split deque only; ignored —
    /// but kept, for composition equality — under [`NotifyChannel::None`]).
    pub exposure: ExposurePolicy,
    /// Victim probe order.
    pub victim: VictimSelection,
    /// Tasks transferred per successful steal CAS: always one. Nothing
    /// reads it; kept because the benchmark assigns it.
    pub steal: StealAmount,
}

impl Policies {
    /// Classic work stealing (the paper's WS baseline): ABP deque, no
    /// exposure protocol, uniform victims, one task per steal.
    pub const fn ws() -> Policies {
        Policies {
            notify: NotifyChannel::None,
            exposure: ExposurePolicy::One, // unused; kept for equality
            victim: VictimSelection::Uniform,
            steal: StealAmount::One,
        }
    }

    /// User-Space LCWS (§3): split deque, requests on the victim's request
    /// word polled at task boundaries (never escalated to a signal), one
    /// task exposed and stolen at a time.
    pub const fn uslcws() -> Policies {
        Policies {
            notify: NotifyChannel::Flag,
            ..Policies::ws()
        }
    }

    /// Signal-based LCWS (§4): signal-driven exposure of one task, which
    /// may race the owner's pop — hence the signal-safe
    /// [`Policies::pop_bottom`].
    pub const fn signal() -> Policies {
        Policies {
            notify: NotifyChannel::Signal,
            ..Policies::ws()
        }
    }

    /// Conservative Exposure (§4.1.1): the handler never publishes the
    /// bottom-most task, so the standard `pop_bottom` stays sound.
    pub const fn signal_conservative() -> Policies {
        Policies {
            exposure: ExposurePolicy::Conservative,
            ..Policies::signal()
        }
    }

    /// Expose Half (§4.1.2): signal-driven exposure of `round(r/2)` tasks,
    /// stolen one per CAS as in the paper.
    pub const fn signal_half() -> Policies {
        Policies {
            exposure: ExposurePolicy::Half,
            ..Policies::signal()
        }
    }

    /// Does this bundle use split deques? Exactly when thieves have a
    /// channel to request exposure through.
    #[inline]
    pub fn uses_split_deque(&self) -> bool {
        self.notify != NotifyChannel::None
    }

    /// Does this bundle notify victims with POSIX signals?
    #[inline]
    pub fn uses_signals(&self) -> bool {
        self.notify == NotifyChannel::Signal
    }

    /// The owner-side `pop_bottom` flavour the bundle needs (§4's
    /// subtlety). Signal-driven exposure may fire inside the owner's
    /// `pop_bottom` window, so unless the exposure policy provably leaves
    /// the bottom task private ([`ExposurePolicy::Conservative`]) the owner
    /// must decrement-then-compare. Flag-driven exposure happens at the
    /// owner's own scheduling points, where the listing's compare-then-
    /// decrement is sound.
    #[inline]
    pub(crate) fn pop_bottom(&self) -> PopBottomMode {
        if self.uses_signals() && self.exposure != ExposurePolicy::Conservative {
            PopBottomMode::SignalSafe
        } else {
            PopBottomMode::Standard
        }
    }

    /// Every bundle is sound: the fields that could pair an unsound deque
    /// and protocol do not exist. Always `Ok`; kept for the benchmark's
    /// composition check.
    pub fn validate(&self) -> Result<(), std::convert::Infallible> {
        Ok(())
    }
}

impl Variant {
    /// The policy composition this variant denotes — the one place a
    /// variant's behaviour is defined, so a pool built from
    /// `PoolBuilder::new(v)` and one built from
    /// `PoolBuilder::new(v).policies(v.policies())` are bit-identical.
    pub fn policies(self) -> Policies {
        match self {
            Variant::Ws => Policies::ws(),
            Variant::UsLcws => Policies::uslcws(),
            Variant::Signal => Policies::signal(),
            Variant::SignalConservative => Policies::signal_conservative(),
            Variant::SignalHalf => Policies::signal_half(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_predicates_match_policies() {
        use crate::variant::Variant as V;
        for v in Variant::ALL {
            let p = v.policies();
            assert_eq!(p.uses_split_deque(), v != V::Ws, "{v}");
            assert_eq!(p.uses_signals(), !matches!(v, V::Ws | V::UsLcws), "{v}");
        }
        assert_eq!(V::SignalHalf.policies().exposure, ExposurePolicy::Half);
        assert_eq!(
            V::SignalConservative.policies().exposure,
            ExposurePolicy::Conservative
        );
    }

    #[test]
    fn open_axes_compose_freely() {
        // The victim axis touches no protocol invariant: the derived axes
        // stay where the variant put them.
        for v in Variant::ALL {
            let mut p = v.policies();
            p.victim = VictimSelection::NearFirst;
            assert_eq!(p.pop_bottom(), v.policies().pop_bottom(), "{v}");
            assert_eq!(p.uses_split_deque(), v.policies().uses_split_deque(), "{v}");
        }
        // Moving a bundle along the notify axis moves the derived axes
        // with it: no channel means ABP, and only asynchronous
        // unconstrained exposure needs the §4 pop.
        let mut p = Policies::signal();
        assert_eq!(p.pop_bottom(), PopBottomMode::SignalSafe);
        p.notify = NotifyChannel::Flag;
        assert_eq!(p.pop_bottom(), PopBottomMode::Standard);
        p.notify = NotifyChannel::None;
        assert!(!p.uses_split_deque());
    }
}
