//! Composable scheduling policies: the axes the five paper variants are
//! points in.
//!
//! [`Variant`] is a closed enum because the paper evaluates exactly five
//! schedulers — but each scheduler is really a *composition* of orthogonal
//! choices: which deque backs each worker, how thieves ask for work, how
//! much the victim exposes, which `pop_bottom` flavour the owner needs,
//! which victim a thief probes, how many tasks one steal CAS transfers, and
//! how an idle worker waits. This module names those axes and bundles a
//! choice per axis into a [`Policies`] value.
//!
//! The variants stay the compatibility surface ([`Variant::policies`]
//! returns the composition each one denotes), while
//! [`crate::PoolBuilder::policies`] accepts any *sound* bundle — e.g. the
//! base signal scheduler with near-first victim order, or Expose Half with
//! single-task steals. Soundness is checked by [`Policies::validate`]:
//! the §4 pop-bottom rule and the deque/notification pairing are
//! constraints *between* axes, and an unsound bundle (say, asynchronous
//! unconstrained exposure over the standard `pop_bottom`) would reintroduce
//! exactly the lost-task race §4 exists to prevent. Construction through
//! the named compositions or the builder can therefore never produce one.

use std::fmt;

use crate::deque::{ExposurePolicy, PopBottomMode};
use crate::sleep::IdlePolicy;
use crate::variant::Variant;

/// Which deque implementation backs each worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DequeKind {
    /// Fully-concurrent ABP deque: every task is stealable, the owner pays
    /// a seq-cst fence per pop (the WS baseline).
    Abp,
    /// The paper's split deque: private part synchronization-free, work
    /// exposed on request.
    Split,
}

/// How a thief tells a victim with only private work to expose some.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NotifyChannel {
    /// No exposure requests at all. Sound only with [`DequeKind::Abp`],
    /// where everything is public already.
    None,
    /// Set the victim's `targeted` flag; the victim polls it at task
    /// boundaries (§3, USLCWS).
    Flag,
    /// Send `SIGUSR1`; the victim's handler exposes work in constant time
    /// (§4). Failed sends reroute through the flag.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealAmount {
    /// Exactly one task per CAS — the paper's protocol on both deques.
    One,
    /// Split deque only: up to `⌈public/2⌉` tasks (capped at
    /// `SplitDeque::STEAL_BATCH_MAX`) with one validating age CAS; the
    /// thief keeps the oldest and requeues the surplus into its own deque,
    /// where it is immediately re-stealable. Pays off when Expose Half
    /// publishes whole runs of tasks at once.
    Half,
}

/// A full bundle of scheduling policies — one choice per axis.
///
/// Obtain one from a named composition ([`Policies::ws`] …
/// [`Policies::signal_half`], or [`Variant::policies`]), tweak the open
/// axes, and hand it to [`crate::PoolBuilder::policies`]. The builder
/// validates the bundle; see [`Policies::validate`] for the soundness
/// rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policies {
    /// Deque implementation per worker.
    pub deque: DequeKind,
    /// Exposure-request channel.
    pub notify: NotifyChannel,
    /// Exposure amount per handled request (split deque only; ignored —
    /// but kept, for composition equality — under [`DequeKind::Abp`]).
    pub exposure: ExposurePolicy,
    /// Owner-side `pop_bottom` flavour (§4's subtlety).
    pub pop_bottom: PopBottomMode,
    /// Victim probe order.
    pub victim: VictimSelection,
    /// Tasks transferred per successful steal CAS.
    pub steal: StealAmount,
    /// Idle-worker waiting strategy.
    pub idle: IdlePolicy,
}

/// Why a [`Policies`] bundle was rejected by [`Policies::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// Asynchronous (signal-driven) exposure that may publish the task the
    /// owner is popping requires [`PopBottomMode::SignalSafe`]; running it
    /// over `Standard` reintroduces the §4 lost-task race.
    SignalNeedsSignalSafePop,
    /// The ABP deque has no private part: an exposure-request channel is
    /// protocol confusion.
    AbpHasNoExposure,
    /// Batch steals ride the split deque's `{tag, top}` validation; the
    /// ABP protocol transfers exactly one task per CAS.
    AbpStealsOne,
    /// The split deque keeps new work private: without an exposure-request
    /// channel no thief could ever ask for it.
    SplitNeedsNotify,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::SignalNeedsSignalSafePop => f.write_str(
                "signal-driven exposure with an unconstrained exposure policy requires \
                 PopBottomMode::SignalSafe (the §4 decrement-then-compare)",
            ),
            PolicyError::AbpHasNoExposure => {
                f.write_str("the ABP deque has no private part; NotifyChannel must be None")
            }
            PolicyError::AbpStealsOne => f.write_str(
                "the ABP deque transfers exactly one task per CAS; StealAmount must be One",
            ),
            PolicyError::SplitNeedsNotify => f.write_str(
                "the split deque exposes work only on request; NotifyChannel must not be None",
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

impl Policies {
    /// Classic work stealing (the paper's WS baseline): ABP deque, no
    /// exposure protocol, uniform victims, one task per steal.
    pub const fn ws() -> Policies {
        Policies {
            deque: DequeKind::Abp,
            notify: NotifyChannel::None,
            exposure: ExposurePolicy::One, // unused; kept for equality
            pop_bottom: PopBottomMode::Standard,
            victim: VictimSelection::Uniform,
            steal: StealAmount::One,
            idle: IdlePolicy::Adaptive,
        }
    }

    /// User-Space LCWS (§3): split deque, `targeted`-flag requests polled
    /// at task boundaries, one task exposed and stolen at a time.
    pub const fn uslcws() -> Policies {
        Policies {
            deque: DequeKind::Split,
            notify: NotifyChannel::Flag,
            exposure: ExposurePolicy::One,
            pop_bottom: PopBottomMode::Standard,
            victim: VictimSelection::Uniform,
            steal: StealAmount::One,
            idle: IdlePolicy::Adaptive,
        }
    }

    /// Signal-based LCWS (§4): signal-driven exposure of one task, which
    /// may race the owner's pop — hence the signal-safe `pop_bottom`.
    pub const fn signal() -> Policies {
        Policies {
            deque: DequeKind::Split,
            notify: NotifyChannel::Signal,
            exposure: ExposurePolicy::One,
            pop_bottom: PopBottomMode::SignalSafe,
            victim: VictimSelection::Uniform,
            steal: StealAmount::One,
            idle: IdlePolicy::Adaptive,
        }
    }

    /// Conservative Exposure (§4.1.1): the handler never publishes the
    /// bottom-most task, so the standard `pop_bottom` stays sound.
    pub const fn signal_conservative() -> Policies {
        Policies {
            deque: DequeKind::Split,
            notify: NotifyChannel::Signal,
            exposure: ExposurePolicy::Conservative,
            pop_bottom: PopBottomMode::Standard,
            victim: VictimSelection::Uniform,
            steal: StealAmount::One,
            idle: IdlePolicy::Adaptive,
        }
    }

    /// Expose Half (§4.1.2): signal-driven exposure of `round(r/2)` tasks,
    /// stolen one per CAS as in the paper. [`StealAmount::Half`] composes
    /// with it (several tasks of the published run per CAS) but is opt-in:
    /// `SplitDeque::pop_top_batch` has an open double-take window against
    /// the owner's `pop_public_bottom` (DESIGN.md §5h).
    pub const fn signal_half() -> Policies {
        Policies {
            deque: DequeKind::Split,
            notify: NotifyChannel::Signal,
            exposure: ExposurePolicy::Half,
            pop_bottom: PopBottomMode::SignalSafe,
            victim: VictimSelection::Uniform,
            steal: StealAmount::One,
            idle: IdlePolicy::Adaptive,
        }
    }

    /// Does this bundle use split deques?
    #[inline]
    pub fn uses_split_deque(&self) -> bool {
        self.deque == DequeKind::Split
    }

    /// Does this bundle notify victims with POSIX signals?
    #[inline]
    pub fn uses_signals(&self) -> bool {
        self.notify == NotifyChannel::Signal
    }

    /// Check the cross-axis soundness rules.
    ///
    /// * Signal-driven exposure may fire inside the owner's `pop_bottom`
    ///   window. Unless the exposure policy provably leaves the bottom task
    ///   private ([`ExposurePolicy::Conservative`]), the owner must use the
    ///   §4 decrement-then-compare ([`PopBottomMode::SignalSafe`]).
    /// * The ABP deque has no private part: no notification channel, no
    ///   batch steals.
    /// * The split deque needs one: its work is private until requested.
    ///
    /// Everything else composes freely (victim order and idle policy touch
    /// no protocol invariant; flag-driven exposure happens at the owner's
    /// own scheduling points, where either `pop_bottom` flavour is sound).
    pub fn validate(&self) -> Result<(), PolicyError> {
        match self.deque {
            DequeKind::Abp => {
                if self.notify != NotifyChannel::None {
                    return Err(PolicyError::AbpHasNoExposure);
                }
                if self.steal != StealAmount::One {
                    return Err(PolicyError::AbpStealsOne);
                }
            }
            DequeKind::Split => {
                if self.notify == NotifyChannel::None {
                    return Err(PolicyError::SplitNeedsNotify);
                }
                if self.notify == NotifyChannel::Signal
                    && self.exposure != ExposurePolicy::Conservative
                    && self.pop_bottom != PopBottomMode::SignalSafe
                {
                    return Err(PolicyError::SignalNeedsSignalSafePop);
                }
            }
        }
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
    fn named_compositions_are_sound() {
        for v in Variant::ALL {
            v.policies().validate().unwrap_or_else(|e| {
                panic!("named composition for {v} is unsound: {e}");
            });
        }
    }

    #[test]
    fn variant_predicates_match_policies() {
        use crate::variant::Variant as V;
        for v in Variant::ALL {
            let p = v.policies();
            assert_eq!(p.uses_split_deque(), v != V::Ws, "{v}");
            assert_eq!(p.uses_signals(), !matches!(v, V::Ws | V::UsLcws), "{v}");
            // The paper's schedulers all steal one task per CAS.
            assert_eq!(p.steal, StealAmount::One, "{v}");
        }
        assert_eq!(V::SignalHalf.policies().exposure, ExposurePolicy::Half);
        assert_eq!(
            V::SignalConservative.policies().exposure,
            ExposurePolicy::Conservative
        );
    }

    #[test]
    fn unsound_bundles_are_rejected() {
        // Signal exposure of the bottom task over the standard pop: the §4
        // race.
        let mut p = Policies::signal();
        p.pop_bottom = PopBottomMode::Standard;
        assert_eq!(p.validate(), Err(PolicyError::SignalNeedsSignalSafePop));
        let mut p = Policies::signal_half();
        p.pop_bottom = PopBottomMode::Standard;
        assert_eq!(p.validate(), Err(PolicyError::SignalNeedsSignalSafePop));
        // Conservative exposure is exempt (never publishes the bottom task).
        assert_eq!(Policies::signal_conservative().validate(), Ok(()));
        // ABP with an exposure channel or batch steals.
        let mut p = Policies::ws();
        p.notify = NotifyChannel::Flag;
        assert_eq!(p.validate(), Err(PolicyError::AbpHasNoExposure));
        let mut p = Policies::ws();
        p.steal = StealAmount::Half;
        assert_eq!(p.validate(), Err(PolicyError::AbpStealsOne));
        // A split deque nobody can ask for work: the first `PrivateWork`
        // answer would have no channel to go through.
        let mut p = Policies::uslcws();
        p.notify = NotifyChannel::None;
        assert_eq!(p.validate(), Err(PolicyError::SplitNeedsNotify));
    }

    #[test]
    fn open_axes_compose_freely() {
        for v in Variant::ALL {
            let mut p = v.policies();
            p.victim = VictimSelection::NearFirst;
            p.idle = IdlePolicy::SpinOnly;
            assert_eq!(p.validate(), Ok(()), "{v} with near-first victims");
        }
        // Flag exposure over either pop flavour is sound (owner-synchronous).
        let mut p = Policies::uslcws();
        p.pop_bottom = PopBottomMode::SignalSafe;
        assert_eq!(p.validate(), Ok(()));
        // Batch steals without Expose Half: legal, just less profitable.
        let mut p = Policies::signal();
        p.steal = StealAmount::Half;
        assert_eq!(p.validate(), Ok(()));
    }
}
