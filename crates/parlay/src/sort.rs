//! Parallel sorting: stable merge sort with parallel merge (the
//! `comparisonSort` substrate) and stable LSD parallel radix sort (the
//! `integerSort` substrate).

use std::cmp::Ordering as CmpOrdering;

use lcws_core::join;

use crate::primitives::{scan_exclusive, tabulate_grain, UnsafeSlice};

/// Below this size, fall back to `slice::sort_by` at the leaves.
const SORT_SEQ: usize = 4096;
/// Below this combined size, merge sequentially.
const MERGE_SEQ: usize = 8192;

/// Stable parallel sort by `Ord`.
pub fn sort<T: Ord + Clone + Send + Sync>(data: &mut [T]) {
    sort_by(data, |a, b| a.cmp(b));
}

/// Stable parallel sort with a comparator.
pub fn sort_by<T, C>(data: &mut [T], cmp: C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> CmpOrdering + Sync,
{
    let n = data.len();
    if n <= SORT_SEQ {
        data.sort_by(&cmp);
        return;
    }
    let mut buf = data.to_vec();
    sort_rec(data, &mut buf, &cmp, false);
}

/// Postcondition: sorted data lives in `buf` when `into_buf`, else in `a`.
fn sort_rec<T, C>(a: &mut [T], buf: &mut [T], cmp: &C, into_buf: bool)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> CmpOrdering + Sync,
{
    debug_assert_eq!(a.len(), buf.len());
    if a.len() <= SORT_SEQ {
        a.sort_by(cmp);
        if into_buf {
            buf.clone_from_slice(a);
        }
        return;
    }
    let mid = a.len() / 2;
    let (a1, a2) = a.split_at_mut(mid);
    let (b1, b2) = buf.split_at_mut(mid);
    // Sort the halves into the *other* array, then merge back into this one.
    join(
        || sort_rec(a1, b1, cmp, !into_buf),
        || sort_rec(a2, b2, cmp, !into_buf),
    );
    if into_buf {
        par_merge(a1, a2, buf, cmp);
    } else {
        let (b1, b2) = buf.split_at(mid);
        par_merge(b1, b2, a, cmp);
    }
}

/// Merge two sorted runs into `out`, splitting the larger run at its
/// midpoint and binary-searching the split point in the other (stable:
/// ties favour the left run).
fn par_merge<T, C>(left: &[T], right: &[T], out: &mut [T], cmp: &C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> CmpOrdering + Sync,
{
    debug_assert_eq!(left.len() + right.len(), out.len());
    if out.len() <= MERGE_SEQ {
        seq_merge(left, right, out, cmp);
        return;
    }
    if left.len() >= right.len() {
        let lm = left.len() / 2;
        let pivot = &left[lm];
        // First right element NOT strictly less than pivot → ties stay left.
        let rm = right.partition_point(|x| cmp(x, pivot) == CmpOrdering::Less);
        let (l1, l2) = left.split_at(lm);
        let (r1, r2) = right.split_at(rm);
        let (o1, o2) = out.split_at_mut(lm + rm);
        join(|| par_merge(l1, r1, o1, cmp), || par_merge(l2, r2, o2, cmp));
    } else {
        let rm = right.len() / 2;
        let pivot = &right[rm];
        // Left elements ≤ pivot go first (stability: left wins ties).
        let lm = left.partition_point(|x| cmp(x, pivot) != CmpOrdering::Greater);
        let (l1, l2) = left.split_at(lm);
        let (r1, r2) = right.split_at(rm);
        let (o1, o2) = out.split_at_mut(lm + rm);
        join(|| par_merge(l1, r1, o1, cmp), || par_merge(l2, r2, o2, cmp));
    }
}

fn seq_merge<T, C>(left: &[T], right: &[T], out: &mut [T], cmp: &C)
where
    T: Clone,
    C: Fn(&T, &T) -> CmpOrdering,
{
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_left = if i == left.len() {
            false
        } else if j == right.len() {
            true
        } else {
            cmp(&right[j], &left[i]) != CmpOrdering::Less // stable
        };
        if take_left {
            *slot = left[i].clone();
            i += 1;
        } else {
            *slot = right[j].clone();
            j += 1;
        }
    }
}

/// Stable parallel LSD radix sort of `u64` keys.
pub fn integer_sort(data: &mut [u64]) {
    integer_sort_by_key(data, |&x| x);
}

/// Stable parallel LSD radix sort of `Copy` items by a `u64` key.
///
/// Digit width is 8 bits; the number of passes adapts to the maximum key.
/// Each pass counts per exact block, scans the `(digit, block)` matrix
/// column-major (digit-major) for stable global offsets, and scatters.
pub fn integer_sort_by_key<T, K>(data: &mut [T], key: K)
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
{
    const RADIX_BITS: u32 = 8;
    const BUCKETS: usize = 1 << RADIX_BITS;

    let n = data.len();
    if n <= 1 {
        return;
    }
    // How many bits do we actually need?
    let max_key = crate::primitives::map(data, |x| key(x))
        .into_iter()
        .fold(0u64, u64::max);
    let key_bits = 64 - max_key.leading_zeros();
    let passes = (key_bits.div_ceil(RADIX_BITS)).max(1);

    let grain = (n.div_ceil(8 * lcws_core::num_workers())).clamp(1024, 1 << 16);
    let blocks = n.div_ceil(grain);

    let mut buf: Vec<T> = data.to_vec();
    let mut src_is_data = true;
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        {
            let (src, dst): (&[T], &mut [T]) = if src_is_data {
                (&*data, &mut buf)
            } else {
                (&*buf, &mut *data)
            };
            radix_pass(src, dst, blocks, grain, shift, BUCKETS, &key);
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        // Result landed in `buf`: copy back in parallel.
        crate::primitives::par_chunks_mut(data, grain, |offset, chunk| {
            chunk.copy_from_slice(&buf[offset..offset + chunk.len()]);
        });
    }
}

fn radix_pass<T, K>(
    src: &[T],
    dst: &mut [T],
    blocks: usize,
    grain: usize,
    shift: u32,
    buckets: usize,
    key: &K,
) where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
{
    let n = src.len();
    let mask = (buckets - 1) as u64;
    // counts[b * buckets + d] = how many keys with digit d in block b.
    let counts: Vec<usize> = tabulate_grain(blocks, 1, |b| {
        let lo = b * grain;
        let hi = ((b + 1) * grain).min(n);
        let mut c = vec![0usize; buckets];
        for x in &src[lo..hi] {
            c[((key(x) >> shift) & mask) as usize] += 1;
        }
        c
    })
    .into_iter()
    .flatten()
    .collect();
    // Digit-major (column-major) order gives stable global offsets:
    // all of digit 0 (blocks in order), then digit 1, ...
    let col_major: Vec<usize> = tabulate_grain(buckets * blocks, 1024, |i| {
        let d = i / blocks;
        let b = i % blocks;
        counts[b * buckets + d]
    });
    let (col_offsets, total) = scan_exclusive(&col_major, 0usize, |a, b| a + b);
    debug_assert_eq!(total, n);
    let slots = UnsafeSlice::new(dst);
    lcws_core::par_for_grain(0..blocks, 1, |b| {
        let lo = b * grain;
        let hi = ((b + 1) * grain).min(n);
        let mut local: Vec<usize> = (0..buckets).map(|d| col_offsets[d * blocks + b]).collect();
        for x in &src[lo..hi] {
            let d = ((key(x) >> shift) & mask) as usize;
            // Safety: offsets from the exclusive scan partition `dst`.
            unsafe { slots.write(local[d], *x) };
            local[d] += 1;
        }
    });
}

/// Sorted copy without mutating the input (convenience used by benchmarks).
pub fn sorted<T: Ord + Clone + Send + Sync>(data: &[T]) -> Vec<T> {
    let mut v = data.to_vec();
    sort(&mut v);
    v
}

/// Below this size, sample sort falls back to `slice::sort_by`.
const SAMPLE_SEQ: usize = 8192;
/// Pivot oversampling factor.
const OVERSAMPLE: usize = 8;

/// Stable parallel **sample sort** — the algorithm PBBS's `comparisonSort`
/// actually uses (merge sort above is the textbook alternative;
/// `lcws-e2e --trace 1` compares them as `parlay.sort.sort_melem_s` and
/// `parlay.sort.sample_sort_melem_s`).
///
/// One level of splitter-based bucketing (counts per exact block →
/// digit-major scan → stable scatter), then buckets sorted independently
/// in parallel. Stability: equal elements share a bucket (bucket id =
/// number of pivots ≤ x), the blocked scatter preserves input order within
/// a bucket, and the per-bucket sort is stable.
pub fn sample_sort_by<T, C>(data: &mut [T], cmp: C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> CmpOrdering + Sync,
{
    let n = data.len();
    if n <= SAMPLE_SEQ {
        data.sort_by(&cmp);
        return;
    }
    // Bucket count ~ n / SAMPLE_SEQ, clamped.
    let num_buckets = (n / SAMPLE_SEQ).next_power_of_two().clamp(2, 512);
    // Deterministic oversampled pivots.
    let rng = crate::random::Random::new(0x5A17_E50F ^ n as u64);
    let mut sample: Vec<T> = (0..num_buckets * OVERSAMPLE)
        .map(|i| data[(rng.ith_rand(i as u64) % n as u64) as usize].clone())
        .collect();
    sample.sort_by(&cmp);
    let pivots: Vec<T> = (1..num_buckets)
        .map(|b| sample[b * OVERSAMPLE].clone())
        .collect();
    let bucket_of = |x: &T| -> usize {
        // Number of pivots ≤ x; equal elements agree on this.
        pivots.partition_point(|p| cmp(p, x) != CmpOrdering::Greater)
    };

    let grain = (n.div_ceil(8 * lcws_core::num_workers())).clamp(1024, 1 << 16);
    let blocks = n.div_ceil(grain);
    // counts[b * num_buckets + d]
    let counts: Vec<usize> = tabulate_grain(blocks, 1, |b| {
        let lo = b * grain;
        let hi = ((b + 1) * grain).min(n);
        let mut c = vec![0usize; num_buckets];
        for x in &data[lo..hi] {
            c[bucket_of(x)] += 1;
        }
        c
    })
    .into_iter()
    .flatten()
    .collect();
    let col_major: Vec<usize> = tabulate_grain(num_buckets * blocks, 1024, |i| {
        let d = i / blocks;
        let b = i % blocks;
        counts[b * num_buckets + d]
    });
    let (col_offsets, total) = scan_exclusive(&col_major, 0usize, |a, b| a + b);
    debug_assert_eq!(total, n);
    // Stable scatter into a fresh buffer.
    let mut buf: Vec<std::mem::MaybeUninit<T>> = Vec::with_capacity(n);
    // Safety: MaybeUninit needs no init; every slot is written exactly once
    // below (scan offsets partition the buffer).
    unsafe { buf.set_len(n) };
    {
        let slots = UnsafeSlice::new_uninit(&mut buf);
        lcws_core::par_for_grain(0..blocks, 1, |b| {
            let lo = b * grain;
            let hi = ((b + 1) * grain).min(n);
            let mut local: Vec<usize> = (0..num_buckets)
                .map(|d| col_offsets[d * blocks + b])
                .collect();
            for x in &data[lo..hi] {
                let d = bucket_of(x);
                unsafe { slots.write(local[d], x.clone()) };
                local[d] += 1;
            }
        });
    }
    // Safety: fully initialized above.
    let mut buf: Vec<T> = unsafe {
        let mut b = std::mem::ManuallyDrop::new(buf);
        Vec::from_raw_parts(b.as_mut_ptr() as *mut T, b.len(), b.capacity())
    };
    // Bucket boundaries, then sort buckets independently.
    let bounds: Vec<usize> = (0..=num_buckets)
        .map(|d| {
            if d == num_buckets {
                n
            } else {
                col_offsets[d * blocks]
            }
        })
        .collect();
    {
        // Carve `buf` into per-bucket exclusive &mut slices (safe — the
        // bounds partition the buffer) and sort them as independent tasks.
        let mut rest: &mut [T] = &mut buf;
        let mut pending: Vec<&mut [T]> = Vec::with_capacity(num_buckets);
        for d in 0..num_buckets {
            let len = bounds[d + 1] - bounds[d];
            let (head, tail) = rest.split_at_mut(len);
            pending.push(head);
            rest = tail;
        }
        let cmp = &cmp;
        lcws_core::scope(|s| {
            for slice in pending {
                s.spawn(move || slice.sort_by(cmp));
            }
        });
    }
    // Copy back.
    crate::primitives::par_chunks_mut(data, grain, |off, chunk| {
        chunk.clone_from_slice(&buf[off..off + chunk.len()]);
    });
}

/// [`sample_sort_by`] with the natural `Ord`.
pub fn sample_sort<T: Ord + Clone + Send + Sync>(data: &mut [T]) {
    sample_sort_by(data, |a, b| a.cmp(b));
}

/// Merge two sorted runs into `out` in parallel (stable, ties favour
/// `left`). `out.len()` must equal `left.len() + right.len()`; its
/// existing contents are overwritten. Exposed for
/// [`crate::selection::merge`].
pub fn merge_into<T, C>(left: &[T], right: &[T], out: &mut [T], cmp: &C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> CmpOrdering + Sync,
{
    assert_eq!(left.len() + right.len(), out.len());
    par_merge(left, right, out, cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Random;

    #[test]
    fn sort_random_u64() {
        let r = Random::new(42);
        let mut v: Vec<u64> = (0..50_000).map(|i| r.ith_rand(i) % 1_000_000).collect();
        let mut expected = v.clone();
        expected.sort();
        sort(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn sort_already_sorted_and_reverse() {
        let mut v: Vec<u32> = (0..20_000).collect();
        sort(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let mut r: Vec<u32> = (0..20_000).rev().collect();
        sort(&mut r);
        assert_eq!(r, v);
    }

    #[test]
    fn sort_by_is_stable() {
        // Sort pairs by first key only; second component must preserve
        // insertion order within equal keys.
        let r = Random::new(7);
        let mut v: Vec<(u64, usize)> = (0..30_000)
            .map(|i| (r.ith_rand(i as u64) % 100, i))
            .collect();
        let mut expected = v.clone();
        expected.sort_by_key(|a| a.0);
        sort_by(&mut v, |a, b| a.0.cmp(&b.0));
        assert_eq!(v, expected, "parallel sort must be stable");
    }

    #[test]
    fn sort_tiny_inputs() {
        let mut empty: Vec<u8> = vec![];
        sort(&mut empty);
        let mut one = vec![5u8];
        sort(&mut one);
        assert_eq!(one, [5]);
        let mut two = vec![9u8, 3];
        sort(&mut two);
        assert_eq!(two, [3, 9]);
    }

    #[test]
    fn integer_sort_matches_std() {
        let r = Random::new(11);
        let mut v: Vec<u64> = (0..80_000).map(|i| r.ith_rand(i)).collect();
        let mut expected = v.clone();
        expected.sort();
        integer_sort(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn integer_sort_small_keys_few_passes() {
        let r = Random::new(3);
        let mut v: Vec<u64> = (0..30_000).map(|i| r.ith_rand(i) % 256).collect();
        let mut expected = v.clone();
        expected.sort();
        integer_sort(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn integer_sort_by_key_is_stable() {
        let r = Random::new(123);
        let mut v: Vec<(u64, u32)> = (0..40_000)
            .map(|i| (r.ith_rand(i as u64) % 64, i as u32))
            .collect();
        let mut expected = v.clone();
        expected.sort_by_key(|p| p.0);
        integer_sort_by_key(&mut v, |p| p.0);
        assert_eq!(v, expected, "radix sort must be stable");
    }

    #[test]
    fn integer_sort_all_equal_and_zero() {
        let mut v = vec![7u64; 10_000];
        integer_sort(&mut v);
        assert!(v.iter().all(|&x| x == 7));
        let mut z = vec![0u64; 5_000];
        integer_sort(&mut z);
        assert!(z.iter().all(|&x| x == 0));
    }

    #[test]
    fn sample_sort_matches_std() {
        let r = Random::new(21);
        let mut v: Vec<u64> = (0..60_000).map(|i| r.ith_rand(i)).collect();
        let mut expected = v.clone();
        expected.sort();
        sample_sort(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn sample_sort_is_stable() {
        let r = Random::new(22);
        let mut v: Vec<(u64, usize)> = (0..50_000)
            .map(|i| (r.ith_rand(i as u64) % 50, i))
            .collect();
        let mut expected = v.clone();
        expected.sort_by_key(|a| a.0);
        sample_sort_by(&mut v, |a, b| a.0.cmp(&b.0));
        assert_eq!(v, expected, "sample sort must be stable");
    }

    #[test]
    fn sample_sort_heavy_duplicates() {
        // One dominant value: the classic sample-sort stress case.
        let r = Random::new(23);
        let mut v: Vec<u64> = (0..40_000)
            .map(|i| {
                if r.ith_rand(i) % 10 < 8 {
                    7
                } else {
                    r.ith_rand(i) % 100
                }
            })
            .collect();
        let mut expected = v.clone();
        expected.sort();
        sample_sort(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn sample_sort_small_falls_back() {
        let mut v = vec![3u8, 1, 2];
        sample_sort(&mut v);
        assert_eq!(v, [1, 2, 3]);
    }

    #[test]
    fn sorted_does_not_mutate() {
        let v = vec![3u32, 1, 2];
        let s = sorted(&v);
        assert_eq!(v, [3, 1, 2]);
        assert_eq!(s, [1, 2, 3]);
    }
}
