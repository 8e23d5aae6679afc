//! Single-layer measurements of the traced pass that do not depend on the
//! selected workload: deque operations, the fork-join API at P = 1, and the
//! Parlay primitives. Each layer is timed from outside through its public
//! functions; each function here runs in a child of its own.

use std::time::Instant;

use lcws_core::deque::{AbpDeque, SplitDeque, STEAL_BATCH_MAX};
use lcws_core::{par_for_grain, scope, ExposurePolicy, PopBottomMode, ThreadPool};
use lcws_metrics::Collector;
use parlay_rs::random::Random;

use crate::ingress::{percentile, sorted};
use crate::plan::Sizes;
use crate::span::Spans;
use crate::workloads::{fib, fib_reference, mix};

pub type Values = Vec<(String, f64)>;

/// Median wall time of `f`, nanoseconds, over `reps` runs after one warm-up.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    percentile(&sorted(samples), 0.5)
}

/// Median over five passes of the time per steal, nanoseconds: each pass
/// drains `batches` freshly `fill`ed deques of `batch` tasks, timing only the
/// draining.
fn steal_ns<D>(batches: usize, batch: usize, fill: impl Fn() -> D, drain: impl Fn(&D)) -> f64 {
    let passes = (0..5)
        .map(|_| {
            let mut ns = 0.0;
            for _ in 0..batches {
                let deque = fill();
                let t = Instant::now();
                drain(&deque);
                ns += t.elapsed().as_nanos() as f64;
            }
            ns / (batches * batch) as f64
        })
        .collect();
    percentile(&sorted(passes), 0.5)
}

/// Fences and CAS this thread executed inside `f`, from the deques' own
/// instrumentation (exact counts, not times).
fn sync_ops(f: impl FnOnce()) -> (f64, f64) {
    lcws_metrics::touch();
    lcws_metrics::reset_local();
    f();
    let collector = Collector::new();
    lcws_metrics::flush_into(&collector);
    let snap = collector.snapshot();
    (snap.fences() as f64, snap.cas() as f64)
}

/// `core.deque.*`: single-threaded cost of the owner path (push/pop) and of
/// the thief path (expose + steal) on the split deque, the ABP deque and the
/// vendored Chase–Lev baseline, in batches of `BATCH` totalling ~`deque_ops`.
pub fn deque(sizes: &Sizes, spans: &mut Spans) -> Values {
    const BATCH: usize = 4096;
    let batches = (sizes.deque_ops / (2 * BATCH)).max(1);
    let job = |i: usize| (i + 1) as *mut lcws_core::Job;
    let mut out = Values::new();
    let mut put = |name: &str, v: f64| out.push((format!("core.deque.{name}"), v));
    let id = spans.begin("core.deque");

    // Owner path at a pre-sized ring: `batches` × (BATCH pushes + BATCH pops).
    let per_op = |total_ns: f64| total_ns / (batches * 2 * BATCH) as f64;
    let split = SplitDeque::new(BATCH + 1);
    put(
        "split_push_pop_ns",
        per_op(median_ns(5, || {
            for _ in 0..batches {
                for i in 0..BATCH {
                    split.push_bottom(job(i));
                }
                for _ in 0..BATCH {
                    std::hint::black_box(split.pop_bottom(PopBottomMode::Standard));
                }
            }
        })),
    );
    let abp = AbpDeque::new(BATCH + 1);
    put(
        "abp_push_pop_ns",
        per_op(median_ns(5, || {
            for _ in 0..batches {
                for i in 0..BATCH {
                    abp.push_bottom(job(i));
                }
                for _ in 0..BATCH {
                    std::hint::black_box(abp.pop_bottom());
                }
            }
        })),
    );
    let cl: crossbeam_deque::Worker<usize> = crossbeam_deque::Worker::new_lifo();
    put(
        "cl_push_pop_ns",
        per_op(median_ns(5, || {
            for _ in 0..batches {
                for i in 0..BATCH {
                    cl.push(i);
                }
                for _ in 0..BATCH {
                    std::hint::black_box(cl.pop());
                }
            }
        })),
    );

    // Growth: a fresh capacity-4 ring per batch pays every doubling.
    put(
        "split_grow_push_pop_ns",
        per_op(median_ns(5, || {
            for _ in 0..batches {
                let d = SplitDeque::new(4);
                for i in 0..BATCH {
                    d.push_bottom(job(i));
                }
                for _ in 0..BATCH {
                    std::hint::black_box(d.pop_bottom(PopBottomMode::Standard));
                }
            }
        })),
    );
    put(
        "abp_grow_push_pop_ns",
        per_op(median_ns(5, || {
            for _ in 0..batches {
                let d = AbpDeque::new(4);
                for i in 0..BATCH {
                    d.push_bottom(job(i));
                }
                for _ in 0..BATCH {
                    std::hint::black_box(d.pop_bottom());
                }
            }
        })),
    );

    // Thief path, uncontended. Steals advance `top` without a reset, so each
    // batch gets a fresh deque, filled outside the timed part.
    let filled_split = || {
        let d = SplitDeque::new(BATCH + 1);
        for i in 0..BATCH {
            d.push_bottom(job(i));
        }
        d
    };
    let filled_abp = || {
        let d = AbpDeque::new(BATCH + 1);
        for i in 0..BATCH {
            d.push_bottom(job(i));
        }
        d
    };
    put(
        "split_expose_steal_ns",
        steal_ns(batches, BATCH, filled_split, |d| {
            for _ in 0..BATCH {
                d.update_public_bottom(ExposurePolicy::One);
                std::hint::black_box(d.pop_top());
            }
        }),
    );
    put(
        "split_expose_half_batch_steal_ns",
        steal_ns(batches, BATCH, filled_split, |d| {
            let mut extras = Vec::with_capacity(STEAL_BATCH_MAX);
            let mut taken = 0;
            while taken < BATCH {
                d.update_public_bottom(ExposurePolicy::Half);
                extras.clear();
                if d.pop_top_batch(&mut extras, STEAL_BATCH_MAX - 1)
                    .success()
                    .is_some()
                {
                    taken += 1 + extras.len();
                }
            }
        }),
    );
    put(
        "abp_steal_ns",
        steal_ns(batches, BATCH, filled_abp, |d| {
            for _ in 0..BATCH {
                std::hint::black_box(d.pop_top());
            }
        }),
    );
    put(
        "cl_steal_ns",
        steal_ns(
            batches,
            BATCH,
            || {
                let w: crossbeam_deque::Worker<usize> = crossbeam_deque::Worker::new_lifo();
                for i in 0..BATCH {
                    w.push(i);
                }
                let s = w.stealer();
                (w, s)
            },
            |(_owner, s)| {
                for _ in 0..BATCH {
                    std::hint::black_box(s.steal());
                }
            },
        ),
    );

    // Exact synchronisation counts per operation.
    let (fences, _) = sync_ops(|| {
        for i in 0..BATCH {
            split.push_bottom(job(i));
        }
        for _ in 0..BATCH {
            split.pop_bottom(PopBottomMode::Standard);
        }
    });
    put("split_fences_per_pop", fences / BATCH as f64);
    let (fences, _) = sync_ops(|| {
        for i in 0..BATCH {
            abp.push_bottom(job(i));
        }
        for _ in 0..BATCH {
            abp.pop_bottom();
        }
    });
    put("abp_fences_per_pop", fences / BATCH as f64);
    let d = filled_split();
    let (_, cas) = sync_ops(|| {
        for _ in 0..BATCH {
            d.update_public_bottom(ExposurePolicy::One);
            d.pop_top();
        }
    });
    put("split_cas_per_steal", cas / BATCH as f64);
    let d = filled_abp();
    let (_, cas) = sync_ops(|| {
        for _ in 0..BATCH {
            d.pop_top();
        }
    });
    put("abp_cas_per_steal", cas / BATCH as f64);
    spans.end(id);
    out
}

/// `core.api.*.<comp>` on a one-worker pool: with nobody to steal, the time
/// per join / spawn / iteration is pure scheduler overhead, and the flood's
/// time over the plain sequential loop is the work efficiency T1/Ts.
pub fn api(pool: &ThreadPool, comp: &str, seed: u64, sizes: &Sizes, spans: &mut Spans) -> Values {
    assert_eq!(pool.num_workers(), 1, "core.api.* is defined at P = 1");
    let mut out = Values::new();
    let mut put = |name: &str, v: f64| out.push((format!("core.api.{name}.{comp}"), v));
    let id = spans.begin("core.api");

    let (want, joins) = fib_reference(sizes.api_fib_n);
    let ns = median_ns(3, || assert_eq!(pool.run(|| fib(sizes.api_fib_n)), want));
    put("join_ns", ns / joins as f64);

    let tasks = sizes.flood_tasks;
    let ns = median_ns(3, || {
        pool.run(|| {
            scope(|s| {
                for i in 0..tasks {
                    s.spawn(move || {
                        std::hint::black_box(i);
                    });
                }
            })
        })
    });
    put("scope_spawn_ns", ns / tasks as f64);

    let n = sizes.par_for_n;
    let ns = median_ns(3, || {
        pool.run(|| {
            par_for_grain(0..n, 1, |i| {
                std::hint::black_box(i);
            })
        })
    });
    put("par_for_iter_ns", ns / n as f64);

    let iters = sizes.flood_iters;
    let mut slots = vec![0u64; tasks];
    let ts = median_ns(3, || {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = mix(seed ^ i as u64, iters);
        }
        std::hint::black_box(&slots);
    });
    let t1 = median_ns(3, || {
        pool.run(|| {
            scope(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move || *slot = mix(seed ^ i as u64, iters));
                }
            })
        })
    });
    put("t1_over_ts", t1 / ts);
    spans.end(id);
    out
}

/// Throughput in millions per second of `f` over `n` items: best of `reps`
/// after a warm-up (best, not median: these are few and long).
fn mega_per_s(n: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let best = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    n as f64 / best / 1e6
}

struct ClaimSlots<'a> {
    keys: &'a [u64],
    owner: Vec<std::sync::atomic::AtomicUsize>,
}

/// Iteration `i` claims slot `keys[i] % slots`; the lowest index wins, the
/// rest find the slot taken and finish as moot: a reservation loop with real
/// conflicts and a deterministic result.
impl parlay_rs::ReserveCommit for ClaimSlots<'_> {
    fn reserve(&self, i: usize) -> bool {
        let slot = (self.keys[i] % self.owner.len() as u64) as usize;
        parlay_rs::atomics::write_min_usize(&self.owner[slot], i);
        true
    }
    fn commit(&self, i: usize) -> bool {
        let slot = (self.keys[i] % self.owner.len() as u64) as usize;
        // Winner or loser, the iteration is done: losers never retry.
        std::hint::black_box(self.owner[slot].load(std::sync::atomic::Ordering::Acquire) == i);
        true
    }
}

/// `parlay.*` on the given pool (P workers, `signal`), n = `parlay_n`.
pub fn parlay(pool: &ThreadPool, seed: u64, sizes: &Sizes, spans: &mut Spans) -> Values {
    let n = sizes.parlay_n;
    let random = Random::new(seed ^ 0x9A21A7);
    let id = spans.begin("parlay");
    let keys: Vec<u64> = pool.run(|| parlay_rs::tabulate(n, |i| random.ith_rand(i as u64) >> 1));
    let flags: Vec<bool> = keys.iter().map(|k| k & 1 == 0).collect();
    let nested: Vec<Vec<u64>> = keys.chunks(1024).map(<[u64]>::to_vec).collect();
    let mut out = Values::new();
    let mut put = |name: &str, v: f64| out.push((format!("parlay.{name}"), v));

    put(
        "primitives.tabulate_melem_s",
        mega_per_s(n, 3, || {
            std::hint::black_box(
                pool.run(|| parlay_rs::tabulate(n, |i| random.ith_rand(i as u64))),
            );
        }),
    );
    put(
        "primitives.map_melem_s",
        mega_per_s(n, 3, || {
            std::hint::black_box(pool.run(|| parlay_rs::map(&keys, |&k| k ^ (k >> 7))));
        }),
    );
    put(
        "primitives.reduce_melem_s",
        mega_per_s(n, 3, || {
            std::hint::black_box(pool.run(|| parlay_rs::reduce(&keys, 0u64, |a, b| a ^ b)));
        }),
    );
    put(
        "primitives.scan_melem_s",
        mega_per_s(n, 3, || {
            std::hint::black_box(
                pool.run(|| parlay_rs::scan_exclusive(&keys, 0u64, |a, b| a.wrapping_add(b))),
            );
        }),
    );
    put(
        "primitives.filter_melem_s",
        mega_per_s(n, 3, || {
            std::hint::black_box(pool.run(|| parlay_rs::filter(&keys, |k| k & 1 == 0)));
        }),
    );
    put(
        "primitives.pack_index_melem_s",
        mega_per_s(n, 3, || {
            std::hint::black_box(pool.run(|| parlay_rs::pack_index(&flags)));
        }),
    );
    put(
        "primitives.flatten_melem_s",
        mega_per_s(n, 3, || {
            std::hint::black_box(pool.run(|| parlay_rs::flatten(&nested)));
        }),
    );
    // Sorts clone their input outside the timed call, like the PBBS rounds.
    let mut sort_rate = |name: &str, sort: &(dyn Fn(&mut [u64]) + Sync)| {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let mut v = keys.clone();
            let t = Instant::now();
            pool.run(|| sort(&mut v));
            best = best.min(t.elapsed().as_secs_f64());
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "{name} output unsorted");
        }
        put(name, n as f64 / best / 1e6);
    };
    sort_rate("sort.sort_melem_s", &|v| parlay_rs::sort(v));
    sort_rate("sort.sample_sort_melem_s", &|v| parlay_rs::sample_sort(v));
    sort_rate("sort.integer_sort_melem_s", &|v| parlay_rs::integer_sort(v));
    put(
        "hashtable.insert_mops",
        mega_per_s(n, 2, || {
            let set = parlay_rs::ConcurrentSet::with_capacity(n);
            pool.run(|| {
                par_for_grain(0..n, 2048, |i| {
                    set.insert(keys[i]);
                })
            });
            std::hint::black_box(set.num_slots());
        }),
    );
    put(
        "speculative.iters_mops",
        mega_per_s(n, 2, || {
            let step = ClaimSlots {
                keys: &keys,
                owner: (0..n / 4)
                    .map(|_| std::sync::atomic::AtomicUsize::new(usize::MAX))
                    .collect(),
            };
            std::hint::black_box(pool.run(|| parlay_rs::speculative_for(&step, 0, n, n / 16)));
        }),
    );
    put(
        "selection.kth_melem_s",
        mega_per_s(n, 2, || {
            std::hint::black_box(pool.run(|| parlay_rs::kth_smallest(&keys, n / 2)));
        }),
    );
    spans.end(id);
    out
}
