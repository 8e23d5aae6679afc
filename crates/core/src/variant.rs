//! The five schedulers the paper implements and evaluates.

use std::fmt;
use std::str::FromStr;

/// Scheduler selection: the WS baseline plus the paper's four LCWS-based
/// schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Classic work stealing over a fully-concurrent ABP deque — the
    /// behaviour of Parlay's stock scheduler, the paper's baseline.
    Ws,
    /// User-Space LCWS (§3): thieves record a request in the victim's
    /// request word; the victim serves it at its next task boundary and
    /// exposes one task.
    UsLcws,
    /// Signal-based LCWS (§4): the same request word, and a thief that
    /// finds a request unserved after `EXPOSE_GRACE_NS` sends `SIGUSR1`;
    /// the victim's handler exposes one task in constant time.
    Signal,
    /// Conservative Exposure (§4.1.1): signals, but exposure happens only
    /// while the victim holds at least two private tasks, and thieves only
    /// notify victims observed to hold two or more tasks.
    SignalConservative,
    /// Expose Half (§4.1.2): signals; victims with `r ≥ 3` private tasks
    /// expose `round(r/2)` of them.
    SignalHalf,
}

impl Variant {
    /// All variants, in the order the paper introduces them.
    pub const ALL: [Variant; 5] = [
        Variant::Ws,
        Variant::UsLcws,
        Variant::Signal,
        Variant::SignalConservative,
        Variant::SignalHalf,
    ];

    /// The paper's four LCWS-based schedulers (everything but the baseline).
    pub const LCWS_ALL: [Variant; 4] = [
        Variant::UsLcws,
        Variant::Signal,
        Variant::SignalConservative,
        Variant::SignalHalf,
    ];

    /// Short stable name (used in CLI flags and CSV output).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Ws => "ws",
            Variant::UsLcws => "uslcws",
            Variant::Signal => "signal",
            Variant::SignalConservative => "cons",
            Variant::SignalHalf => "half",
        }
    }

    /// Human-readable label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Ws => "WS",
            Variant::UsLcws => "User",
            Variant::Signal => "Signal",
            Variant::SignalConservative => "Cons",
            Variant::SignalHalf => "Half",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Variant`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVariantError(pub String);

impl fmt::Display for ParseVariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheduler variant `{}` (expected one of: ws, uslcws, signal, cons, half)",
            self.0
        )
    }
}

impl std::error::Error for ParseVariantError {}

impl FromStr for Variant {
    type Err = ParseVariantError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ws" | "baseline" => Ok(Variant::Ws),
            "uslcws" | "user" | "user-space" => Ok(Variant::UsLcws),
            "signal" | "lcws" => Ok(Variant::Signal),
            "cons" | "conservative" => Ok(Variant::SignalConservative),
            "half" | "expose-half" => Ok(Variant::SignalHalf),
            other => Err(ParseVariantError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for v in Variant::ALL {
            assert_eq!(v.name().parse::<Variant>().unwrap(), v);
        }
    }

    #[test]
    fn aliases_parse() {
        assert_eq!("LCWS".parse::<Variant>().unwrap(), Variant::Signal);
        assert_eq!("user".parse::<Variant>().unwrap(), Variant::UsLcws);
        assert!("bogus".parse::<Variant>().is_err());
    }

    #[test]
    fn signal_variants_need_signal_safe_pop_iff_unconstrained_exposure() {
        // §4's subtlety: USLCWS never exposes asynchronously and
        // Conservative exposure provably never publishes the bottom-most
        // task, so both keep the original comparison; the base signal
        // scheduler and Expose Half may expose the task the owner is
        // popping, so they need decrement-then-compare.
        use crate::deque::PopBottomMode as M;
        let pop = |v: Variant| v.policies().pop_bottom();
        assert_eq!(pop(Variant::Ws), M::Standard);
        assert_eq!(pop(Variant::UsLcws), M::Standard);
        assert_eq!(pop(Variant::SignalConservative), M::Standard);
        assert_eq!(pop(Variant::Signal), M::SignalSafe);
        assert_eq!(pop(Variant::SignalHalf), M::SignalSafe);
    }
}
