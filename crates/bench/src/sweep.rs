//! The shared experiment runner: executes benchmark configurations
//! ⟨benchmark, input, P⟩ under selected scheduler variants.

use std::collections::HashMap;
use std::time::Duration;

use lcws_core::{Policies, PoolBuilder, Snapshot, ThreadPool, Variant, VictimSelection};
use pbbs_rs::registry::{all_instances, Instance};

/// One named scheduler composition: a base variant plus policy-axis
/// overrides from the composable layer (DESIGN.md §5h). A plain variant is
/// the composition `Composition::of(v)` whose label is `v.name()`, so the
/// default sweep CSVs are unchanged except for the extra `policies`
/// column.
#[derive(Debug, Clone)]
pub struct Composition {
    /// CSV/report label (`signal+near-first` style).
    pub label: String,
    /// Base variant (keys the speedup/ratio joins).
    pub variant: Variant,
    /// The full policy bundle the pool is built with.
    pub policies: Policies,
}

impl Composition {
    /// The plain composition of a named variant.
    pub fn of(variant: Variant) -> Composition {
        Composition {
            label: variant.name().to_string(),
            variant,
            policies: variant.policies(),
        }
    }

    /// Parse a `variant[+modifier...]` spec. Modifiers: `near-first` /
    /// `uniform` (victim axis).
    pub fn parse(spec: &str) -> Result<Composition, String> {
        let mut parts = spec.split('+');
        let base = parts.next().unwrap_or_default();
        let variant: Variant = base
            .parse()
            .map_err(|_| format!("unknown variant `{base}` in composition `{spec}`"))?;
        let mut policies = variant.policies();
        for m in parts {
            match m {
                "near-first" => policies.victim = VictimSelection::NearFirst,
                "uniform" => policies.victim = VictimSelection::Uniform,
                other => {
                    return Err(format!("unknown policy modifier `{other}` in `{spec}`"));
                }
            }
        }
        Ok(Composition {
            label: spec.to_string(),
            variant,
            policies,
        })
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Scheduler variants to execute (WS is required by speedup reports).
    pub variants: Vec<Variant>,
    /// Extra policy compositions to run *in addition to* `variants`
    /// (empty by default; `--compositions` on the CLI). Each appears in
    /// the sweep output as its own row, keyed by its label.
    pub compositions: Vec<Composition>,
    /// Worker counts (the paper's processor axis).
    pub threads: Vec<usize>,
    /// Repetitions per configuration (paper: 10; default here: 3).
    pub reps: usize,
    /// Case-insensitive substring filter on `benchmark/input` labels.
    pub filter: Option<String>,
    /// Run each instance's checker once before measuring.
    pub verify: bool,
    /// Print progress lines to stderr.
    pub progress: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            variants: Variant::ALL.to_vec(),
            compositions: Vec::new(),
            threads: vec![1, 2, 4, 8],
            reps: 3,
            filter: None,
            verify: false,
            progress: true,
        }
    }
}

impl SweepConfig {
    /// Parse CLI arguments:
    /// `--variants ws,signal --threads 1,2,4 --reps 3 --scale 0.25
    ///  --filter bfs --verify --quiet`.
    ///
    /// `--scale` sets `LCWS_SCALE` for the input generators.
    pub fn from_args() -> SweepConfig {
        Self::from_args_with_default_variants("ws,uslcws,signal,cons,half")
    }

    /// [`SweepConfig::from_args`] with a figure-specific default variant
    /// set (used when `--variants` is not passed).
    pub fn from_args_with_default_variants(default_variants: &str) -> SweepConfig {
        let mut cfg = SweepConfig {
            variants: default_variants
                .split(',')
                .map(|s| s.parse().expect("bad default variant"))
                .collect(),
            ..SweepConfig::default()
        };
        let mut args = std::env::args().skip(1);
        // Default scale for figure regeneration: keep laptop-friendly
        // unless the caller overrides.
        if std::env::var("LCWS_SCALE").is_err() {
            std::env::set_var("LCWS_SCALE", "0.25");
        }
        while let Some(a) = args.next() {
            let mut take = || args.next().unwrap_or_else(|| panic!("{a} needs a value"));
            match a.as_str() {
                "--variants" => {
                    cfg.variants = take()
                        .split(',')
                        .map(|s| s.parse().expect("bad variant"))
                        .collect();
                }
                "--compositions" => {
                    cfg.compositions = take()
                        .split(',')
                        .map(|s| Composition::parse(s).unwrap_or_else(|e| panic!("{e}")))
                        .collect();
                }
                "--threads" => {
                    cfg.threads = take()
                        .split(',')
                        .map(|s| s.parse().expect("bad thread count"))
                        .collect();
                }
                "--reps" => cfg.reps = take().parse().expect("bad reps"),
                "--scale" => std::env::set_var("LCWS_SCALE", take()),
                "--filter" => cfg.filter = Some(take().to_ascii_lowercase()),
                "--verify" => cfg.verify = true,
                "--quiet" => cfg.progress = false,
                "--help" | "-h" => {
                    eprintln!(
                        "options: --variants a,b \
                         --compositions signal+near-first,... \
                         --threads 1,2,4 --reps N --scale F --filter SUBSTR \
                         --verify --quiet"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other}"),
            }
        }
        cfg
    }
}

/// One configuration's aggregate measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub benchmark: String,
    /// Input instance name.
    pub input: String,
    /// Scheduler variant.
    pub variant: Variant,
    /// Policy-composition label (`variant.name()` for plain variants;
    /// `signal+near-first` style for explicit compositions).
    pub policies: String,
    /// Worker count.
    pub threads: usize,
    /// Mean wall-clock seconds over the repetitions.
    pub secs: f64,
    /// Minimum seconds over the repetitions.
    pub secs_min: f64,
    /// Synchronization profile, summed over the repetitions.
    pub metrics: Snapshot,
    /// Output digest (deterministic benchmarks digest identically across
    /// variants and thread counts).
    pub checksum: u64,
}

impl Measurement {
    /// `benchmark/input` label.
    pub fn label(&self) -> String {
        format!("{}/{}", self.benchmark, self.input)
    }
}

/// Key for joining measurements across variants.
pub type ConfigKey = (String, usize);

/// Execute the sweep. Returns one [`Measurement`] per
/// (instance × variant × thread-count).
pub fn sweep(cfg: &SweepConfig) -> Vec<Measurement> {
    let instances: Vec<Instance> = all_instances()
        .into_iter()
        .filter(|i| match &cfg.filter {
            Some(f) => i.label().to_ascii_lowercase().contains(f),
            None => true,
        })
        .collect();
    assert!(!instances.is_empty(), "filter matched no instances");
    let mut out = Vec::new();
    let mut checksum_by_config: HashMap<String, u64> = HashMap::new();
    for inst in &instances {
        if cfg.progress {
            eprintln!("[prepare] {}", inst.label());
        }
        let prepared = inst.prepare();
        if cfg.verify {
            let pool = ThreadPool::new(Variant::Ws, cfg.threads.iter().copied().max().unwrap());
            let result = pool.run(|| prepared.verify());
            if let Err(e) = result {
                panic!("{} failed verification: {e}", inst.label());
            }
        }
        let compositions: Vec<Composition> = cfg
            .variants
            .iter()
            .map(|&v| Composition::of(v))
            .chain(cfg.compositions.iter().cloned())
            .collect();
        for comp in &compositions {
            let variant = comp.variant;
            for &threads in &cfg.threads {
                let pool = PoolBuilder::new(variant)
                    .policies(comp.policies)
                    .threads(threads)
                    .build();
                // One untimed warmup, then the measured repetitions.
                let _ = pool.run(|| prepared.run_parallel());
                let mut total = Duration::ZERO;
                let mut best = Duration::MAX;
                let mut metrics = Snapshot::default();
                let mut checksum = 0u64;
                for _ in 0..cfg.reps {
                    let (outcome, m) = pool.run_measured(|| prepared.run_parallel());
                    total += outcome.elapsed;
                    best = best.min(outcome.elapsed);
                    metrics = metrics.merged(&m);
                    checksum = outcome.checksum;
                }
                // Deterministic-output sanity: all variants and thread
                // counts must agree per instance.
                let entry = checksum_by_config.entry(inst.label()).or_insert(checksum);
                if *entry != checksum {
                    eprintln!(
                        "WARNING: {} produced differing checksums across runs \
                         ({:#x} vs {:#x}) — investigate determinism",
                        inst.label(),
                        entry,
                        checksum
                    );
                }
                if cfg.progress {
                    eprintln!(
                        "[run] {:<42} {:<7} P={:<3} {:>9.2} ms",
                        inst.label(),
                        comp.label,
                        threads,
                        total.as_secs_f64() * 1e3 / cfg.reps as f64
                    );
                }
                out.push(Measurement {
                    benchmark: inst.benchmark.to_string(),
                    input: inst.input.to_string(),
                    variant,
                    policies: comp.label.clone(),
                    threads,
                    secs: total.as_secs_f64() / cfg.reps as f64,
                    secs_min: best.as_secs_f64(),
                    metrics,
                    checksum,
                });
            }
        }
    }
    out
}

/// Index measurements as `(label, threads) → variant → measurement`.
///
/// Only plain-variant rows participate: explicit policy compositions share
/// a base variant with the plain row and would silently overwrite it in
/// the per-variant join the figures consume. Composition rows still reach
/// the raw CSV dump via their `policies` label.
pub fn by_config(ms: &[Measurement]) -> HashMap<ConfigKey, HashMap<Variant, &Measurement>> {
    let mut map: HashMap<ConfigKey, HashMap<Variant, &Measurement>> = HashMap::new();
    for m in ms.iter().filter(|m| m.policies == m.variant.name()) {
        map.entry((m.label(), m.threads))
            .or_default()
            .insert(m.variant, m);
    }
    map
}

/// Speedups of `variant` vs the WS baseline, grouped by thread count:
/// `threads → [t_ws / t_variant]` over all configurations.
pub fn speedups_vs_ws(
    ms: &[Measurement],
    variant: Variant,
) -> std::collections::BTreeMap<usize, Vec<f64>> {
    let idx = by_config(ms);
    let mut out: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for ((_label, threads), variants) in &idx {
        if let (Some(ws), Some(v)) = (variants.get(&Variant::Ws), variants.get(&variant)) {
            if v.secs > 0.0 {
                out.entry(*threads).or_default().push(ws.secs / v.secs);
            }
        }
    }
    out
}

/// Ratio of a metric counter between two variants per thread count:
/// `threads → [variant_count / base_count]` over all configurations
/// (configurations where the base count is zero are skipped).
pub fn metric_ratios(
    ms: &[Measurement],
    variant: Variant,
    base: Variant,
    counter: lcws_core::Event,
) -> std::collections::BTreeMap<usize, Vec<f64>> {
    let idx = by_config(ms);
    let mut out: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for ((_label, threads), variants) in &idx {
        if let (Some(b), Some(v)) = (variants.get(&base), variants.get(&variant)) {
            if let Some(r) = v.metrics.ratio(&b.metrics, counter) {
                out.entry(*threads).or_default().push(r);
            }
        }
    }
    out
}

/// Per-configuration fraction of exposed tasks not stolen, per thread
/// count, for one variant (Figures 3d / 8d).
pub fn unstolen_fractions(
    ms: &[Measurement],
    variant: Variant,
) -> std::collections::BTreeMap<usize, Vec<f64>> {
    let mut out: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for m in ms
        .iter()
        .filter(|m| m.variant == variant && m.policies == m.variant.name())
    {
        if let Some(f) = m.metrics.unstolen_exposure_ratio() {
            out.entry(m.threads).or_default().push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compositions_parse_modifiers_and_reject_unknown_ones() {
        let c = Composition::parse("signal+near-first").unwrap();
        assert_eq!(c.variant, Variant::Signal);
        assert_eq!(c.policies.victim, VictimSelection::NearFirst);
        assert_eq!(c.label, "signal+near-first");
        let c = Composition::parse("half+near-first+uniform").unwrap();
        assert_eq!(c.policies, Variant::SignalHalf.policies());

        // Plain compositions match the variant bundle exactly.
        let plain = Composition::of(Variant::SignalHalf);
        assert_eq!(plain.label, "half");
        assert_eq!(plain.policies, Variant::SignalHalf.policies());

        // Every pool steals one task per CAS: there is no amount axis.
        let err = Composition::parse("ws+steal-half").unwrap_err();
        assert!(
            err.contains("unknown policy modifier `steal-half`"),
            "{err}"
        );
        assert!(Composition::parse("signal+bogus").is_err());
        assert!(Composition::parse("notavariant").is_err());
    }
}
