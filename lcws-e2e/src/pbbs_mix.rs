//! The eight PBBS kernels of `pbbs_mix` / `pbbs_oversub`.
//!
//! Inputs come from `pbbs_rs::gen::*` with seeds derived from `--seed`
//! (never the registry's hard-coded ones), at the registry's default sizes.
//! Every kernel has a reference digest computed outside any pool before the
//! first round: from an independent sequential implementation where one is
//! affordable, otherwise from the kernel run sequentially and passed through
//! PBBS's own validity checker. A round's output is digested after its span
//! closes and compared with the reference, so a wrong answer is a failed
//! operation and never a silently reported time.

use std::time::Instant;

use parlay_rs::random::hash64;
use pbbs_rs::bench::{geometry, graphs, seq_ops, sorting, strings};
use pbbs_rs::gen::{geom, graphs as graph_gen, seqs, text};
use pbbs_rs::{checksum_u64s, Graph};

use crate::span::Spans;

/// `<benchmark>.<input>` of each kernel, in execution order: five coarse
/// kernels (a few hundred to a few thousand tasks each), then the three
/// irregular graph kernels where the exposure policy shows.
pub const KERNELS: [&str; 8] = [
    "comparisonSort.randomSeq_double",
    "removeDuplicates.randomSeq_int",
    "suffixArray.dna",
    "convexHull.2DinSphere",
    "nearestNeighbors.2DinCube",
    "breadthFirstSearch.randLocalGraph",
    "maximalMatching.rMatGraph",
    "spanningForest.randLocalGraph",
];

/// Seed of the matching's edge permutation (the registry's constant: it
/// parameterises the algorithm, not the input).
const MATCHING_ORDER_SEED: u64 = 42;

/// Generated inputs plus reference digests.
pub struct PbbsMix {
    sort_in: Vec<f64>,
    dedup_in: Vec<u64>,
    sa_in: Vec<u8>,
    hull_in: Vec<geom::Point2>,
    knn_in: Vec<geom::Point2>,
    bfs_g: Graph,
    mm_g: Graph,
    sf_g: Graph,
    reference: [u64; 8],
    /// Wall time of input generation, milliseconds.
    pub gen_ms: f64,
}

/// One executed kernel: its timed interval and whether the output passed.
pub struct KernelRun {
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
}

impl KernelRun {
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Time `body`, then check its output outside the timed interval.
fn timed<T>(body: impl FnOnce() -> T, check: impl FnOnce(&T) -> bool) -> KernelRun {
    let start = Instant::now();
    let out = body();
    let end = Instant::now();
    KernelRun {
        start,
        end,
        ok: check(&out),
    }
}

fn digest_u32s(v: &[u32]) -> u64 {
    checksum_u64s(v.iter().map(|&x| x as u64))
}

fn digest_matching(matched: &[bool], edges: usize) -> u64 {
    checksum_u64s(matched.iter().map(|&b| b as u64).chain([edges as u64]))
}

fn sized(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(1_000)
}

fn knn_digest(pts: &[geom::Point2], nn: &[u32]) -> u64 {
    // Distances, not indices: ties may resolve differently without being
    // wrong (same convention as the registry).
    checksum_u64s(
        nn.iter()
            .enumerate()
            .map(|(q, &i)| pts[i as usize].dist2(&pts[q]).to_bits()),
    )
}

impl PbbsMix {
    /// Generate the eight inputs from `seed` at `scale` × the registry's
    /// default sizes and compute the references. Call outside any pool.
    pub fn generate(seed: u64, scale: f64, spans: &mut Spans) -> Result<PbbsMix, String> {
        let s = |k: u64| hash64(seed ^ hash64(k));
        let n_graph = sized(60_000, scale);
        let gen = spans.begin("pbbs.gen");
        let t = Instant::now();
        let mut mix = PbbsMix {
            sort_in: seqs::random_f64_seq(sized(600_000, scale), s(1)),
            dedup_in: seqs::random_seq(sized(1_000_000, scale), u64::MAX >> 1, s(2)),
            sa_in: text::dna_string(sized(120_000, scale), s(3)),
            hull_in: geom::points_in_sphere_2d(sized(300_000, scale), s(4)),
            knn_in: geom::points_in_cube_2d(sized(100_000, scale), s(5)),
            bfs_g: graph_gen::rand_local_graph(n_graph, 5, s(6)),
            mm_g: graph_gen::rmat_graph(n_graph, n_graph * 5, s(7)),
            sf_g: graph_gen::rand_local_graph(n_graph, 5, s(8)),
            reference: [0; 8],
            gen_ms: 0.0,
        };
        mix.gen_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.end(gen);
        let reference = spans.begin("bench.reference");
        let result = mix.compute_references();
        spans.end(reference);
        result.map(|()| mix)
    }

    fn compute_references(&mut self) -> Result<(), String> {
        let mut sorted = self.sort_in.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        self.reference[0] = checksum_u64s(sorted.iter().map(|x| x.to_bits()));
        self.reference[1] = checksum_u64s(seq_ops::remove_duplicates_seq(&self.dedup_in));
        self.reference[2] = digest_u32s(&strings::suffix_array_seq(&self.sa_in));
        let hull = geometry::convex_hull(&self.hull_in);
        geometry::check_hull(&self.hull_in, &hull)?;
        self.reference[3] = digest_u32s(&hull);
        let nn = geometry::all_nearest_neighbors(&self.knn_in);
        self.spot_check_neighbors(&nn)?;
        self.reference[4] = knn_digest(&self.knn_in, &nn);
        self.reference[5] = digest_u32s(&graphs::bfs_seq(&self.bfs_g, 0));
        let (matched, k) = graphs::maximal_matching(&self.mm_g, MATCHING_ORDER_SEED);
        graphs::check_matching(&self.mm_g, &matched, k)?;
        self.reference[6] = digest_matching(&matched, k);
        // spanningForest has no reference digest: which edges join the
        // forest depends on commit interleaving, so every output goes
        // through the checker instead (reference[7] stays unused).
        Ok(())
    }

    /// Brute-force check of ~200 evenly spaced queries (full brute force is
    /// quadratic).
    fn spot_check_neighbors(&self, nn: &[u32]) -> Result<(), String> {
        let pts = &self.knn_in;
        for q in (0..pts.len()).step_by((pts.len() / 200).max(1)) {
            let best = pts
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != q)
                .map(|(_, p)| p.dist2(&pts[q]))
                .fold(f64::INFINITY, f64::min);
            let got = pts[nn[q] as usize].dist2(&pts[q]);
            if (got - best).abs() > 1e-12 {
                return Err(format!("nearestNeighbors query {q}: {got} vs brute {best}"));
            }
        }
        Ok(())
    }

    /// Execute kernel `k` in the ambient context (inside `ThreadPool::run`
    /// for a timed round). Input clones and the output check fall outside
    /// the timed interval, as in `pbbs_rs::registry`. An output that misses
    /// its reference digest still passes if PBBS's checker accepts it: the
    /// reservation algorithms may legitimately pick a different valid answer.
    pub fn run_kernel(&self, k: usize) -> KernelRun {
        let want = self.reference[k];
        match k {
            0 => {
                let mut v = self.sort_in.clone();
                timed(
                    || {
                        sorting::comparison_sort_bench(&mut v);
                        v
                    },
                    |v| checksum_u64s(v.iter().map(|x| x.to_bits())) == want,
                )
            }
            1 => timed(
                || seq_ops::remove_duplicates(&self.dedup_in),
                |d| checksum_u64s(d.iter().copied()) == want,
            ),
            2 => timed(
                || strings::suffix_array(&self.sa_in),
                |sa| digest_u32s(sa) == want,
            ),
            3 => timed(
                || geometry::convex_hull(&self.hull_in),
                |h| digest_u32s(h) == want || geometry::check_hull(&self.hull_in, h).is_ok(),
            ),
            4 => timed(
                || geometry::all_nearest_neighbors(&self.knn_in),
                |nn| knn_digest(&self.knn_in, nn) == want,
            ),
            5 => timed(|| graphs::bfs(&self.bfs_g, 0), |d| digest_u32s(d) == want),
            6 => timed(
                || graphs::maximal_matching(&self.mm_g, MATCHING_ORDER_SEED),
                |(m, k)| {
                    digest_matching(m, *k) == want
                        || graphs::check_matching(&self.mm_g, m, *k).is_ok()
                },
            ),
            7 => timed(
                || graphs::spanning_forest(&self.sf_g),
                |f| graphs::check_spanning_forest(&self.sf_g, f).is_ok(),
            ),
            _ => unreachable!("pbbs_mix has eight kernels"),
        }
    }
}
