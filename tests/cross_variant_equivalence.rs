//! Every scheduler variant must compute byte-identical results for the
//! deterministic PBBS benchmarks, at every worker count — the property
//! that lets the paper compare schedulers on timing alone.

use lcws::pbbs::registry::all_instances;
use lcws::{Policies, PoolBuilder, Variant, VictimSelection};

fn tiny_scale() {
    std::env::set_var("LCWS_SCALE", "0.01");
}

#[test]
fn checksums_agree_across_variants_and_thread_counts() {
    tiny_scale();
    // A representative subset spanning workload classes (flat loops,
    // sort-heavy, irregular graph, geometry, strings).
    let wanted = [
        "integerSort/randomSeq_int",
        "comparisonSort/randomSeq_double",
        "histogram/randomSeq_256_int",
        "removeDuplicates/randomSeq_100K_int",
        "breadthFirstSearch/rMatGraph",
        "maximalIndependentSet/randLocalGraph",
        "spanningForest/randLocalGraph",
        "convexHull/2DinSphere",
        "wordCounts/trigramSeq",
        "suffixArray/dna",
    ];
    for inst in all_instances()
        .iter()
        .filter(|i| wanted.contains(&i.label().as_str()))
    {
        let prepared = inst.prepare();
        let mut reference: Option<u64> = None;
        for variant in Variant::ALL {
            for threads in [1usize, 3] {
                let pool = PoolBuilder::new(variant).threads(threads).build();
                let outcome = pool.run(|| prepared.run_parallel());
                match reference {
                    None => reference = Some(outcome.checksum),
                    Some(r) => assert_eq!(
                        r,
                        outcome.checksum,
                        "{} diverged under {variant} with {threads} threads",
                        inst.label()
                    ),
                }
            }
        }
    }
}

/// The policy layer must preserve the equivalence property: pools built
/// from a variant's explicit policy bundle, and pools running the open
/// victim axis (near-first victims), must reproduce the exact
/// checksums of the plain variant pools — scheduling policy may move work,
/// never change answers.
#[test]
fn checksums_agree_across_policy_compositions() {
    tiny_scale();
    let wanted = [
        "integerSort/randomSeq_int",
        "breadthFirstSearch/rMatGraph",
        "convexHull/2DinSphere",
    ];
    for inst in all_instances()
        .iter()
        .filter(|i| wanted.contains(&i.label().as_str()))
    {
        let prepared = inst.prepare();
        let mut reference: Option<u64> = None;
        let mut check = |label: &str, variant: Variant, policies: Policies| {
            let pool = PoolBuilder::new(variant)
                .policies(policies)
                .threads(3)
                .build();
            let outcome = pool.run(|| prepared.run_parallel());
            match reference {
                None => reference = Some(outcome.checksum),
                Some(r) => assert_eq!(
                    r,
                    outcome.checksum,
                    "{} diverged under composition {label}",
                    inst.label()
                ),
            }
        };
        // The five named compositions, explicitly.
        for variant in Variant::ALL {
            check(&variant.to_string(), variant, variant.policies());
        }
        // The open axis over them.
        for variant in Variant::ALL {
            let mut p = variant.policies();
            p.victim = VictimSelection::NearFirst;
            check(&format!("{variant}+near-first"), variant, p);
        }
    }
}

#[test]
fn repeated_runs_are_deterministic_per_variant() {
    tiny_scale();
    let instances = all_instances();
    let inst = instances
        .iter()
        .find(|i| i.label() == "maximalMatching/rMatGraph")
        .expect("instance registered");
    let prepared = inst.prepare();
    let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
    let first = pool.run(|| prepared.run_parallel()).checksum;
    for _ in 0..5 {
        let again = pool.run(|| prepared.run_parallel()).checksum;
        assert_eq!(first, again, "speculative matching must be deterministic");
    }
}
