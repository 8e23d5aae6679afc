//! Property-based model checking of the deque state machines.
//!
//! The deques are driven with arbitrary operation sequences (sequentially —
//! concurrency is covered by the stress tests) and compared step-by-step
//! against simple `VecDeque` reference models:
//!
//! * split deque: private part = owner stack, public part = FIFO towards
//!   thieves, exposure moves the *oldest private* task across the
//!   boundary; `pop_public_bottom` may only be called when the private
//!   part is empty (the scheduler's call contract).
//! * ABP deque: plain deque (owner at the back, thieves at the front).
//!
//! Both model-comparison tests start from initial capacity 4, so ordinary
//! scripts cross several ring doublings — every step-by-step assertion also
//! validates the growth path's copy/publish against the reference.

use std::collections::VecDeque;

use lcws_core::deque::{AbpDeque, AbpSteal, Steal};
use lcws_core::{ExposurePolicy, PopBottomMode, SplitDeque};
use proptest::prelude::*;

type Task = *mut lcws_core::deque::AbpDeque; // opaque cookie type

fn cookie(v: usize) -> *mut lcws_core::Job {
    (v + 1) as *mut lcws_core::Job // +1: never null
}

#[derive(Debug, Clone)]
enum Op {
    Push,
    PopBottom,
    PopPublicBottom,
    Expose(u8),
    StealTop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Push),
        3 => Just(Op::PopBottom),
        1 => Just(Op::PopPublicBottom),
        2 => (0u8..3).prop_map(Op::Expose),
        2 => Just(Op::StealTop),
    ]
}

fn policy_of(code: u8) -> ExposurePolicy {
    match code {
        0 => ExposurePolicy::One,
        1 => ExposurePolicy::Conservative,
        _ => ExposurePolicy::Half,
    }
}

/// Reference model of the split deque.
#[derive(Default)]
struct SplitModel {
    public: VecDeque<usize>,  // front = top (steal side), back = boundary
    private: VecDeque<usize>, // front = oldest (next to expose), back = bottom
}

impl SplitModel {
    fn expose(&mut self, policy: ExposurePolicy) -> u32 {
        let r = self.private.len() as u32;
        let k = match policy {
            ExposurePolicy::One => u32::from(r >= 1),
            ExposurePolicy::Conservative => u32::from(r >= 2),
            ExposurePolicy::Half => {
                if r >= 3 {
                    // round-half-to-even of r/2 — matches double2int: odd r
                    // gives x.5, which rounds up only onto even integers.
                    let half = r / 2;
                    if r % 2 == 1 && half % 2 == 1 {
                        half + 1
                    } else {
                        half
                    }
                } else {
                    u32::from(r >= 1)
                }
            }
        };
        for _ in 0..k {
            let t = self.private.pop_front().unwrap();
            self.public.push_back(t);
        }
        k
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn split_deque_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        signal_safe in any::<bool>(),
    ) {
        let mode = if signal_safe { PopBottomMode::SignalSafe } else { PopBottomMode::Standard };
        let deque = SplitDeque::new(4);
        let mut model = SplitModel::default();
        let mut next = 0usize;
        for op in &ops {
            match op {
                Op::Push => {
                    deque.push_bottom(cookie(next));
                    model.private.push_back(next);
                    next += 1;
                }
                Op::PopBottom => {
                    let got = deque.pop_bottom(mode);
                    let want = model.private.pop_back();
                    prop_assert_eq!(got, want.map(cookie), "pop_bottom mismatch");
                    // SignalSafe pop decrements `bot` on a miss; the
                    // scheduler contract repairs it via pop_public_bottom,
                    // which we invoke exactly as the scheduler does.
                    if got.is_none() {
                        let pub_got = deque.pop_public_bottom();
                        let pub_want = model.public.pop_back();
                        prop_assert_eq!(pub_got, pub_want.map(cookie), "repair pop mismatch");
                    }
                }
                Op::PopPublicBottom => {
                    // Contract: only when the private part is empty.
                    if model.private.is_empty() {
                        let got = deque.pop_public_bottom();
                        let want = model.public.pop_back();
                        prop_assert_eq!(got, want.map(cookie));
                    }
                }
                Op::Expose(code) => {
                    let policy = policy_of(*code);
                    let exposed = deque.update_public_bottom(policy);
                    let want = model.expose(policy);
                    prop_assert_eq!(exposed, want, "exposure count mismatch");
                }
                Op::StealTop => {
                    let got = deque.pop_top();
                    match model.public.pop_front() {
                        Some(t) => prop_assert_eq!(got, Steal::Ok(cookie(t))),
                        None => prop_assert!(
                            matches!(got, Steal::Empty | Steal::PrivateWork),
                            "stole from empty public part: {:?}", got
                        ),
                    }
                }
            }
            // Size invariants hold continuously.
            prop_assert_eq!(deque.public_len() as usize, model.public.len());
        }
        // Drain: every remaining task comes out exactly once, in order.
        while let Some(want) = model.private.pop_back() {
            prop_assert_eq!(deque.pop_bottom(mode), Some(cookie(want)));
        }
        prop_assert_eq!(deque.pop_bottom(mode), None);
        while let Some(want) = model.public.pop_back() {
            prop_assert_eq!(deque.pop_public_bottom(), Some(cookie(want)));
        }
        prop_assert_eq!(deque.pop_public_bottom(), None);
    }

    #[test]
    fn abp_deque_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let deque = AbpDeque::new(4);
        let mut model: VecDeque<usize> = VecDeque::new();
        let mut next = 0usize;
        for op in &ops {
            match op {
                Op::Push | Op::Expose(_) => {
                    deque.push_bottom(cookie(next));
                    model.push_back(next);
                    next += 1;
                }
                Op::PopBottom | Op::PopPublicBottom => {
                    let got = deque.pop_bottom();
                    prop_assert_eq!(got, model.pop_back().map(cookie));
                }
                Op::StealTop => {
                    let got = deque.pop_top();
                    match model.pop_front() {
                        Some(t) => prop_assert_eq!(got, AbpSteal::Ok(cookie(t))),
                        None => prop_assert_eq!(got, AbpSteal::Empty),
                    }
                }
            }
        }
        while let Some(want) = model.pop_back() {
            prop_assert_eq!(deque.pop_bottom(), Some(cookie(want)));
        }
        prop_assert_eq!(deque.pop_bottom(), None);
    }

    #[test]
    fn split_deque_growth_preserves_task_count(
        extra in 24usize..96,
        steal_stride in 4usize..9,
        do_steal in any::<bool>(),
        signal_safe in any::<bool>(),
    ) {
        // The growth contract replacing the old overflow cliff: a push past
        // capacity doubles the ring instead of rejecting the task, so from
        // initial capacity 4 every push succeeds, and 28+ pushes (minus at
        // most a quarter stolen) force at least three doublings. Steals are
        // interspersed so the copy windows start at non-zero `top` values
        // and growth interleaves with a moving public part.
        let mode = if signal_safe { PopBottomMode::SignalSafe } else { PopBottomMode::Standard };
        let deque = SplitDeque::new(4);
        let total = 4 + extra;
        let mut stolen: Vec<usize> = Vec::new();
        for i in 0..total {
            if do_steal && i > 0 && i % steal_stride == 0
                && deque.update_public_bottom(ExposurePolicy::One) == 1
            {
                match deque.pop_top() {
                    Steal::Ok(t) => stolen.push(t as usize - 1),
                    other => prop_assert!(false, "uncontended steal failed: {:?}", other),
                }
            }
            deque.push_bottom(cookie(i));
        }
        // ≤ total/4 steals leave a live extent > 16 slots, so the ring must
        // have doubled 4 → 8 → 16 → 32 at minimum.
        prop_assert!(
            deque.generation() >= 3,
            "expected ≥ 3 resizes, generation = {}", deque.generation()
        );
        prop_assert!(deque.capacity() >= total - stolen.len());
        // Drain the owner side exactly as the scheduler acquires.
        let mut drained: Vec<usize> = Vec::new();
        loop {
            if let Some(t) = deque.pop_bottom(mode) {
                drained.push(t as usize - 1);
            } else if let Some(t) = deque.pop_public_bottom() {
                drained.push(t as usize - 1);
            } else {
                break;
            }
        }
        // Accounting across every resize: drained + stolen = exactly the
        // pushed tasks, nothing lost, nothing duplicated.
        let mut all: Vec<usize> = drained;
        all.extend(stolen);
        all.sort_unstable();
        prop_assert_eq!(all, (0..total).collect::<Vec<_>>());
        // After a full drain the deque takes pushes again.
        deque.push_bottom(cookie(0));
        prop_assert_eq!(deque.pop_bottom(mode), Some(cookie(0)));
    }

    #[test]
    fn abp_deque_growth_preserves_task_count(
        extra in 24usize..96,
        steal_stride in 4usize..9,
        do_steal in any::<bool>(),
    ) {
        let deque = AbpDeque::new(4);
        let total = 4 + extra;
        let mut stolen: Vec<usize> = Vec::new();
        for i in 0..total {
            if do_steal && i > 0 && i % steal_stride == 0 {
                if let AbpSteal::Ok(t) = deque.pop_top() {
                    stolen.push(t as usize - 1);
                }
            }
            deque.push_bottom(cookie(i));
        }
        prop_assert!(
            deque.generation() >= 3,
            "expected ≥ 3 resizes, generation = {}", deque.generation()
        );
        let mut drained: Vec<usize> = Vec::new();
        while let Some(t) = deque.pop_bottom() {
            drained.push(t as usize - 1);
        }
        let mut all = drained;
        all.extend(stolen);
        all.sort_unstable();
        prop_assert_eq!(all, (0..total).collect::<Vec<_>>());
        deque.push_bottom(cookie(0));
        prop_assert_eq!(deque.pop_bottom(), Some(cookie(0)));
    }

    /// Arbitrary interleave scripts of the §4 protocol steps — SignalSafe
    /// `pop_bottom` (with the scheduler's `pop_public_bottom` repair on a
    /// miss), exposures under every policy, owner public pops, and thief
    /// steals — driven over a seeded deque. Global accounting instead of a
    /// step-by-step model: every pushed task is taken exactly once, and a
    /// full drain always lands in the canonical empty state
    /// `bot == public_bot == top`, leaving the deque reusable.
    #[test]
    fn interleave_scripts_lose_nothing_and_repair_to_canonical(
        seed in 0usize..12,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let deque = SplitDeque::new(4);
        for i in 0..seed {
            deque.push_bottom(cookie(i));
        }
        let mut next = seed;
        let mut taken: Vec<usize> = Vec::new();
        for op in &ops {
            match op {
                Op::Push => {
                    deque.push_bottom(cookie(next));
                    next += 1;
                }
                Op::PopBottom => {
                    // The scheduler's acquire path: SignalSafe pop, then the
                    // §4 repair/acquire through pop_public_bottom on a miss.
                    if let Some(t) = deque.pop_bottom(PopBottomMode::SignalSafe) {
                        taken.push(t as usize - 1);
                    } else if let Some(t) = deque.pop_public_bottom() {
                        taken.push(t as usize - 1);
                    }
                }
                Op::PopPublicBottom => {
                    // Contract: only when the private part is empty.
                    if deque.private_len() == 0 {
                        if let Some(t) = deque.pop_public_bottom() {
                            taken.push(t as usize - 1);
                        }
                    }
                }
                Op::Expose(code) => {
                    deque.update_public_bottom(policy_of(*code));
                }
                Op::StealTop => {
                    if let Steal::Ok(t) = deque.pop_top() {
                        taken.push(t as usize - 1);
                    }
                }
            }
        }
        // Final drain, again exactly as the scheduler acquires.
        loop {
            if let Some(t) = deque.pop_bottom(PopBottomMode::SignalSafe) {
                taken.push(t as usize - 1);
            } else if let Some(t) = deque.pop_public_bottom() {
                taken.push(t as usize - 1);
            } else {
                break;
            }
        }
        taken.sort_unstable();
        prop_assert_eq!(taken, (0..next).collect::<Vec<_>>(), "task lost or duplicated");
        // Canonical §4 repair: a drained deque always rests with both
        // bottoms at `top`, whatever path emptied it.
        let (bot, public_bot, top) = deque.raw_state();
        prop_assert_eq!((bot, public_bot), (top, top));
        // And it is immediately reusable.
        deque.push_bottom(cookie(0));
        prop_assert_eq!(deque.pop_bottom(PopBottomMode::SignalSafe), Some(cookie(0)));
    }

    #[test]
    fn double2int_agrees_with_round_over_valid_domain(x in 0.0f64..2_147_483_647.5) {
        // The paper's §4.1.2 ablation claims the bit trick agrees with
        // rounding; precisely, it is IEEE round-to-nearest-even, so it
        // matches `round_ties_even` everywhere in the valid domain and
        // plain `round` (half-away-from-zero) everywhere off the ties.
        let got = lcws_core::double2int(x);
        prop_assert_eq!(got, x.round_ties_even() as i32);
        if x.fract() != 0.5 {
            prop_assert_eq!(got, x.round() as i32);
        }
    }

    #[test]
    fn double2int_rounds_half_to_even(r in 0u32..100_000) {
        let x = r as f64 / 2.0;
        let got = lcws_core::double2int(x);
        let fl = x.floor();
        let expected = if x - fl == 0.5 {
            if (fl as i64) % 2 == 0 { fl as i32 } else { fl as i32 + 1 }
        } else {
            x.round() as i32
        };
        prop_assert_eq!(got, expected);
    }
}

#[allow(dead_code)]
fn unused_type_anchor(_: Task) {}
