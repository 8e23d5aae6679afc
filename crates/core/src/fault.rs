//! Deterministic fault injection for the scheduler's synchronization-critical
//! transitions (the `lcws-faultpoints` layer).
//!
//! The paper's correctness argument (§3–§4, after Rito & Paulino's LCWS
//! proof) holds under *any* interleaving of owner pops, thief steals, and
//! handler exposures — but ordinary stress tests only ever sample a thin
//! slice of those interleavings. This module lets tests *force* the rare
//! ones: a named [`Site`] is compiled into every critical transition
//! (`pop_bottom`/`pop_top` and ring growth in both deques, exposure, signal
//! send and handler entry, exposure-request polls, sleeper park/unpark,
//! worker-thread spawn, the helper work loop, the injector pop), and a
//! seeded [`FaultPlan`] decides, per site and deterministically in hit
//! order, whether to perturb the schedule (busy delay, yield storm) or to
//! force the site's failure outcome (a lost steal CAS, a `pthread_kill`
//! error, a spawn error, a worker death, an empty injector round).
//!
//! Pushes have no failure outcome: both deques grow on demand and the
//! injector is unbounded, so a push always enqueues.
//!
//! ## Zero cost when disabled
//!
//! Everything here is gated on the `faultpoints` cargo feature. Without it,
//! [`point`] and [`fail_at`] are empty `#[inline(always)]` stubs that the
//! compiler folds away entirely — the default build contains no faultpoint
//! code, which CI asserts and the owner-path metrics of `lcws-e2e --trace 1`
//! guard (`core.api.join_ns.<s>`, `core.deque.*_push_pop_ns`).
//!
//! ## Determinism
//!
//! Each site keeps a hit counter; whether hit `n` of site `s` fires is a
//! pure function `splitmix64(seed ⊕ mix(s, n))` of the plan's seed. Thread
//! interleaving still decides which thread performs hit `n`, but the
//! *pattern* of perturbation per site is reproducible from the seed alone,
//! which is what makes a chaos-run failure replayable (see EXPERIMENTS.md,
//! "Reproducing a chaos run").
//!
//! ## Async-signal-safety
//!
//! [`Site::HandlerEntry`] and [`Site::UpdatePublicBottom`] fire inside the
//! `SIGUSR1` handler. The firing path touches only atomics, TLS counter
//! cells, and `spin_loop` — configure those sites with `delay_spins`, not
//! `yields` (a `sched_yield` storm inside a handler is harmless on Linux
//! but not formally async-signal-safe).
//!
//! ## Usage
//!
//! ```ignore
//! use lcws_core::fault::{FaultPlan, Site, SiteAction};
//!
//! let plan = FaultPlan::new(0xC0FFEE)
//!     .with(Site::SignalSend, SiteAction::fail_always())
//!     .with(Site::PopBottom, SiteAction::delay(200).one_in(7));
//! let guard = lcws_core::fault::install(plan);
//! // ... run the workload under the plan ...
//! assert!(guard.fires(Site::SignalSend) > 0);
//! drop(guard); // disarms the plan
//! ```

#[cfg(feature = "faultpoints")]
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// A named injection site: one synchronization-critical transition of the
/// scheduler. The set mirrors the transitions the paper's interleaving
/// argument quantifies over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// Owner `pop_bottom`, fired again between the `bot` decrement and the
    /// `public_bot` comparison of the `SignalSafe` flavour — the exact
    /// window of the §4 owner-vs-handler race.
    PopBottom = 0,
    /// Owner `pop_public_bottom`, fired again between the paper's two
    /// seq-cst fences where thieves race the owner for the last task.
    PopPublicBottom = 1,
    /// Thief `pop_top`, fired again between the `top` read and the CAS.
    /// Failable at that second site: a forced fire makes the thief lose
    /// the CAS race outright (`Steal::Abort`), so chaos tests can exercise
    /// the contention path deterministically.
    PopTop = 2,
    /// `update_public_bottom` exposure (possibly in signal-handler
    /// context: spin delays only).
    UpdatePublicBottom = 3,
    /// Thief-side `pthread_kill` notification. Failable: a forced fire
    /// simulates ESRCH from a victim racing with thread teardown.
    SignalSend = 4,
    /// `SIGUSR1` handler entry (signal-handler context: spin delays only).
    HandlerEntry = 5,
    /// Owner-side serve of a pending exposure request.
    TargetedPoll = 6,
    /// Sleeper park entry, before the worker announces itself — delays
    /// here stretch the announce-then-sleep race window.
    SleeperPark = 7,
    /// Sleeper wake delivery, between choosing a sleeper and pinging it.
    SleeperUnpark = 8,
    /// Worker-thread spawn in `PoolBuilder::build`. Failable: a forced
    /// fire makes the spawn report an OS error, exercising the
    /// partial-build teardown.
    ThreadSpawn = 9,
    /// Deque ring-buffer growth in `push_bottom`, between the slot copy
    /// and the new-buffer publish: delays there stretch the resize window
    /// thieves race against.
    DequeResize = 10,
    /// Wherever the helper main loop asks whether its generation is still
    /// open (top of each iteration, and the park recheck). Failable: a
    /// forced fire panics the helper thread, killing it mid-run — the
    /// deterministic worker-death injector behind the supervision chaos
    /// tests. Both probe points sit between tasks, where the helper
    /// provably holds no task in hand, so an injected death can strand
    /// tasks only in the deque (where the dying-owner expose-all rescues
    /// them), never a task mid-transfer.
    WorkerLoop = 11,
    /// Worker-side injector consumption (the one-task pop between steal
    /// attempts). A forced fire makes the pop round come back empty
    /// (contention-storm simulation); delay/yield storms stretch the
    /// Treiber-swap → ready-list window while producers keep pushing.
    InjectorPop = 12,
}

/// Number of distinct [`Site`]s.
pub const NUM_SITES: usize = 13;

/// What a site does when it fires, and how often it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteAction {
    /// Busy-spin rounds (`spin_loop` hints) on fire. Safe in handlers.
    pub delay_spins: u32,
    /// `yield_now` calls on fire (a yield storm hands the core to a racing
    /// thread at exactly the perturbed transition). Avoid in handler sites.
    pub yields: u32,
    /// Force the site's failure outcome on fire (only meaningful at the
    /// failable sites: `PopTop`, `SignalSend`, `ThreadSpawn`,
    /// `WorkerLoop`, `InjectorPop`).
    pub fail: bool,
    /// Fire on roughly 1 in `one_in` hits, chosen by the seeded hash
    /// (`1` = every hit, `0` = never).
    pub one_in: u32,
    /// Stop firing after this many fires (`u64::MAX` = unbounded).
    pub max_fires: u64,
    /// Skip the first `after` hits before the pattern may fire (lets a
    /// test target e.g. "the third worker spawn" precisely).
    pub after: u64,
}

impl Default for SiteAction {
    fn default() -> SiteAction {
        SiteAction {
            delay_spins: 0,
            yields: 0,
            fail: false,
            one_in: 0,
            max_fires: u64::MAX,
            after: 0,
        }
    }
}

impl SiteAction {
    /// Fire on every hit, forcing the failure outcome.
    pub fn fail_always() -> SiteAction {
        SiteAction {
            fail: true,
            one_in: 1,
            ..SiteAction::default()
        }
    }

    /// Fire on every hit with a busy delay of `spins` rounds.
    pub fn delay(spins: u32) -> SiteAction {
        SiteAction {
            delay_spins: spins,
            one_in: 1,
            ..SiteAction::default()
        }
    }

    /// Fire on every hit with a storm of `n` `yield_now` calls.
    pub fn yield_storm(n: u32) -> SiteAction {
        SiteAction {
            yields: n,
            one_in: 1,
            ..SiteAction::default()
        }
    }

    /// Dilute the action to roughly 1 in `n` hits (seed-deterministic).
    pub fn one_in(mut self, n: u32) -> SiteAction {
        self.one_in = n;
        self
    }

    /// Cap the number of fires.
    pub fn max_fires(mut self, n: u64) -> SiteAction {
        self.max_fires = n;
        self
    }

    /// Skip the first `n` hits before the pattern may fire.
    pub fn after(mut self, n: u64) -> SiteAction {
        self.after = n;
        self
    }
}

/// A seeded, per-site fault schedule. Build with [`FaultPlan::new`] +
/// [`FaultPlan::with`], activate with [`install`].
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed of the deterministic fire pattern. The same seed and site
    /// configuration reproduce the same per-site fire sequence.
    pub seed: u64,
    sites: [SiteAction; NUM_SITES],
}

impl FaultPlan {
    /// A plan with every site disarmed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: [SiteAction::default(); NUM_SITES],
        }
    }

    /// Arm `site` with `action` (builder style).
    pub fn with(mut self, site: Site, action: SiteAction) -> FaultPlan {
        self.sites[site as usize] = action;
        self
    }

    /// The action configured for `site`.
    pub fn action(&self, site: Site) -> SiteAction {
        self.sites[site as usize]
    }
}

/// SplitMix64 — the fire-pattern hash (also used for worker RNG seeding).
#[cfg(feature = "faultpoints")]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(feature = "faultpoints")]
mod active {
    use super::*;

    /// Live state of an installed plan: the plan plus per-site hit/fire
    /// counters (atomics — read from any thread and from signal handlers).
    pub struct PlanState {
        pub(super) plan: FaultPlan,
        pub(super) hits: [AtomicU64; NUM_SITES],
        pub(super) fires: [AtomicU64; NUM_SITES],
    }

    /// The currently installed plan (null = disarmed). A leaked `Box` so a
    /// handler-context reader can never observe a freed plan; tests install
    /// a handful of plans per process, so the leak is bounded and
    /// intentional.
    pub(super) static ACTIVE: AtomicPtr<PlanState> = AtomicPtr::new(std::ptr::null_mut());

    impl PlanState {
        /// Decide whether hit `n` of `site` fires, and perturb if so.
        /// Returns whether the site's failure outcome is forced.
        #[inline]
        pub(super) fn hit(&self, site: Site) -> bool {
            let s = site as usize;
            let cfg = &self.plan.sites[s];
            if cfg.one_in == 0 {
                return false;
            }
            let n = self.hits[s].fetch_add(1, Ordering::Relaxed);
            if n < cfg.after {
                return false;
            }
            let fires = if cfg.one_in == 1 {
                true
            } else {
                // Seeded pattern: pure in (seed, site, hit index).
                splitmix64(self.plan.seed ^ ((s as u64) << 56) ^ n)
                    .is_multiple_of(cfg.one_in as u64)
            };
            if !fires {
                return false;
            }
            // Cap check-then-add may overshoot by a hit or two under
            // contention; the cap is a test convenience, not an invariant.
            if self.fires[s].load(Ordering::Relaxed) >= cfg.max_fires {
                return false;
            }
            self.fires[s].fetch_add(1, Ordering::Relaxed);
            lcws_metrics::bump(lcws_metrics::Event::FaultInjected);
            for _ in 0..cfg.delay_spins {
                std::hint::spin_loop();
            }
            for _ in 0..cfg.yields {
                std::thread::yield_now();
            }
            cfg.fail
        }
    }
}

/// Guard for an installed [`FaultPlan`]; disarms the plan on drop and gives
/// tests access to the per-site fire counts.
#[cfg(feature = "faultpoints")]
pub struct PlanGuard {
    state: &'static active::PlanState,
}

#[cfg(feature = "faultpoints")]
impl PlanGuard {
    /// How many times `site` fired so far under this plan.
    pub fn fires(&self, site: Site) -> u64 {
        self.state.fires[site as usize].load(Ordering::Relaxed)
    }

    /// How many times `site` was reached (fired or not) under this plan.
    pub fn hits(&self, site: Site) -> u64 {
        self.state.hits[site as usize].load(Ordering::Relaxed)
    }
}

#[cfg(feature = "faultpoints")]
impl Drop for PlanGuard {
    fn drop(&mut self) {
        // Disarm. The state itself stays leaked (handler-safe; see ACTIVE).
        // Release suffices: no fence or SC argument references ACTIVE, the
        // store only has to order the guard's final counter traffic before
        // the null publish (docs/ordering_contract.md).
        active::ACTIVE.store(std::ptr::null_mut(), Ordering::Release);
    }
}

/// Install `plan` process-wide until the returned guard drops.
///
/// Panics if a plan is already installed — concurrent plans cannot be
/// meaningfully composed, so chaos tests must serialize (the `chaos` test
/// suite shares one lock).
#[cfg(feature = "faultpoints")]
pub fn install(plan: FaultPlan) -> PlanGuard {
    let state = Box::leak(Box::new(active::PlanState {
        plan,
        hits: [const { AtomicU64::new(0) }; NUM_SITES],
        fires: [const { AtomicU64::new(0) }; NUM_SITES],
    }));
    // AcqRel, not SeqCst: Release publishes the leaked PlanState to probing
    // threads, Acquire sees a prior guard's disarm for the assert below —
    // nothing orders ACTIVE against other SC operations.
    let prev = active::ACTIVE.swap(state as *mut _, Ordering::AcqRel);
    assert!(prev.is_null(), "a FaultPlan is already installed");
    PlanGuard { state }
}

#[cfg(feature = "faultpoints")]
#[inline]
fn current() -> Option<&'static active::PlanState> {
    let p = active::ACTIVE.load(Ordering::Relaxed);
    // Safety: non-null pointers are leaked boxes, valid forever.
    unsafe { p.as_ref() }
}

/// Test-facing probe: hit `site` exactly as the scheduler's internal
/// callsites do, returning whether the failure outcome was forced. Lets
/// the chaos suite replay a plan's seeded pattern directly.
#[cfg(feature = "faultpoints")]
pub fn probe(site: Site) -> bool {
    fail_at(site)
}

/// Perturbation-only injection site (schedule delays / yield storms).
///
/// With `faultpoints` disabled this is an empty function the compiler
/// removes entirely.
#[cfg(feature = "faultpoints")]
#[inline]
pub(crate) fn point(site: Site) {
    if let Some(st) = current() {
        let _ = st.hit(site);
    }
}

/// Failable injection site: perturbs like [`point`] and reports whether the
/// site must take its failure path (lost steal CAS, `pthread_kill` error,
/// spawn error, worker death, empty injector round).
///
/// With `faultpoints` disabled this is a constant `false` the compiler
/// folds away, so the failure branches compile to the plain success path.
#[cfg(feature = "faultpoints")]
#[inline]
pub(crate) fn fail_at(site: Site) -> bool {
    match current() {
        Some(st) => st.hit(site),
        None => false,
    }
}

#[cfg(not(feature = "faultpoints"))]
#[inline(always)]
pub(crate) fn point(_site: Site) {}

#[cfg(not(feature = "faultpoints"))]
#[inline(always)]
pub(crate) fn fail_at(_site: Site) -> bool {
    false
}

#[cfg(all(test, feature = "faultpoints"))]
mod tests {
    use super::active::PlanState;
    use super::*;

    // The fire-pattern tests drive a plan of their own through `hit` and
    // never install it: an installed plan is process-wide, so every other
    // lib test running meanwhile would hit its sites and shift its counts.

    fn local(plan: FaultPlan) -> PlanState {
        PlanState {
            plan,
            hits: [const { AtomicU64::new(0) }; NUM_SITES],
            fires: [const { AtomicU64::new(0) }; NUM_SITES],
        }
    }

    fn fires(state: &PlanState, site: Site) -> u64 {
        state.fires[site as usize].load(Ordering::Relaxed)
    }

    /// The one test that installs, with every site off: nothing fires or
    /// counts — here or in a concurrently running test — and the guard
    /// disarms on drop.
    #[test]
    fn disarmed_site_never_fires() {
        let guard = install(FaultPlan::new(1));
        for _ in 0..100 {
            assert!(!fail_at(Site::SignalSend));
        }
        assert_eq!(guard.fires(Site::SignalSend), 0);
        assert_eq!(guard.hits(Site::SignalSend), 0, "one_in=0 skips counting");
        drop(guard);
        assert!(current().is_none(), "disarmed after drop");
    }

    #[test]
    fn fail_always_fires_every_hit() {
        let state = local(FaultPlan::new(2).with(Site::SignalSend, SiteAction::fail_always()));
        for _ in 0..10 {
            assert!(state.hit(Site::SignalSend));
        }
        assert_eq!(fires(&state, Site::SignalSend), 10);
    }

    #[test]
    fn seeded_pattern_is_reproducible_and_diluted() {
        let collect = |seed: u64| {
            let state =
                local(FaultPlan::new(seed).with(Site::PopTop, SiteAction::delay(1).one_in(4)));
            let pattern: Vec<bool> = (0..256).map(|_| state.hit(Site::PopTop)).collect();
            // delay-only actions never force failure...
            assert!(pattern.iter().all(|&f| !f));
            fires(&state, Site::PopTop)
        };
        let a = collect(42);
        let b = collect(42);
        let c = collect(43);
        assert_eq!(a, b, "same seed, same fire count");
        // ~1/4 of 256 hits; the hash is uniform enough for a loose band.
        assert!(a > 16 && a < 128, "dilution out of band: {a}");
        // Different seeds almost surely differ somewhere in 256 draws;
        // equality of *counts* alone is possible, so only sanity-check c.
        assert!(c < 256);
    }

    #[test]
    fn after_skips_leading_hits() {
        let state =
            local(FaultPlan::new(5).with(Site::ThreadSpawn, SiteAction::fail_always().after(2)));
        let pattern: Vec<bool> = (0..5).map(|_| state.hit(Site::ThreadSpawn)).collect();
        assert_eq!(pattern, [false, false, true, true, true]);
        assert_eq!(
            state.hits[Site::ThreadSpawn as usize].load(Ordering::Relaxed),
            5
        );
        assert_eq!(fires(&state, Site::ThreadSpawn), 3);
    }

    #[test]
    fn max_fires_caps_the_schedule() {
        let state =
            local(FaultPlan::new(3).with(Site::SignalSend, SiteAction::fail_always().max_fires(3)));
        let forced = (0..10).filter(|_| state.hit(Site::SignalSend)).count();
        assert_eq!(forced, 3);
    }
}
