//! Unit tests for the report generators: feed hand-built measurements and
//! assert the derived statistics (speedups, ratios, win percentages) are
//! computed correctly — without running a real sweep.

use lcws_bench::figures;
use lcws_bench::sweep::{by_config, metric_ratios, speedups_vs_ws, Measurement};
use lcws_core::Variant;
use lcws_metrics::{Collector, Event, Snapshot};

fn snap(fences: u64, cas: u64, steals: u64, exposures: u64, owner_pops: u64) -> Snapshot {
    let c = Collector::new();
    c.add(Event::Fence, fences);
    c.add(Event::Cas, cas);
    c.add(Event::StealOk, steals);
    c.add(Event::Exposure, exposures);
    c.add(Event::OwnerPublicPop, owner_pops);
    c.snapshot()
}

fn m(
    bench: &str,
    input: &str,
    variant: Variant,
    threads: usize,
    secs: f64,
    metrics: Snapshot,
) -> Measurement {
    Measurement {
        benchmark: bench.into(),
        input: input.into(),
        variant,
        policies: variant.name().to_string(),
        threads,
        secs,
        secs_min: secs,
        metrics,
        checksum: 7,
    }
}

fn sample_measurements() -> Vec<Measurement> {
    vec![
        // Config A at P=2: USLCWS 25% faster than WS, 1% of the fences.
        m(
            "bfs",
            "rmat",
            Variant::Ws,
            2,
            1.00,
            snap(10_000, 500, 40, 0, 0),
        ),
        m(
            "bfs",
            "rmat",
            Variant::UsLcws,
            2,
            0.80,
            snap(100, 200, 30, 50, 20),
        ),
        m(
            "bfs",
            "rmat",
            Variant::Signal,
            2,
            0.90,
            snap(80, 180, 35, 40, 5),
        ),
        // Config B at P=2: USLCWS 20% slower.
        m(
            "sort",
            "rand",
            Variant::Ws,
            2,
            2.00,
            snap(50_000, 900, 10, 0, 0),
        ),
        m(
            "sort",
            "rand",
            Variant::UsLcws,
            2,
            2.50,
            snap(600, 300, 5, 80, 60),
        ),
        m(
            "sort",
            "rand",
            Variant::Signal,
            2,
            1.90,
            snap(500, 250, 8, 30, 3),
        ),
        // Config A at P=4.
        m(
            "bfs",
            "rmat",
            Variant::Ws,
            4,
            0.70,
            snap(12_000, 800, 90, 0, 0),
        ),
        m(
            "bfs",
            "rmat",
            Variant::UsLcws,
            4,
            0.77,
            snap(900, 500, 60, 200, 150),
        ),
        m(
            "bfs",
            "rmat",
            Variant::Signal,
            4,
            0.70,
            snap(700, 450, 80, 90, 10),
        ),
    ]
}

#[test]
fn speedups_join_on_config_and_threads() {
    let ms = sample_measurements();
    let s = speedups_vs_ws(&ms, Variant::UsLcws);
    let p2 = &s[&2];
    assert_eq!(p2.len(), 2);
    let mut sorted = p2.clone();
    sorted.sort_by(f64::total_cmp);
    assert!((sorted[0] - 0.8).abs() < 1e-12, "2.0/2.5 = 0.8");
    assert!((sorted[1] - 1.25).abs() < 1e-12, "1.0/0.8 = 1.25");
    let p4 = &s[&4];
    assert_eq!(p4.len(), 1);
    assert!((p4[0] - 0.70 / 0.77).abs() < 1e-12);
}

#[test]
fn metric_ratios_match_hand_computation() {
    let ms = sample_measurements();
    let r = metric_ratios(&ms, Variant::UsLcws, Variant::Ws, Event::Fence);
    let mut p2 = r[&2].clone();
    p2.sort_by(f64::total_cmp);
    assert!((p2[0] - 100.0 / 10_000.0).abs() < 1e-12);
    assert!((p2[1] - 600.0 / 50_000.0).abs() < 1e-12);
}

#[test]
fn by_config_groups_variants() {
    let ms = sample_measurements();
    let idx = by_config(&ms);
    let entry = &idx[&("bfs/rmat".to_string(), 2)];
    assert_eq!(entry.len(), 3);
    assert!(entry.contains_key(&Variant::Ws));
    assert!(entry.contains_key(&Variant::Signal));
}

#[test]
fn reports_render_without_panicking_and_mention_key_numbers() {
    let ms = sample_measurements();
    std::env::set_current_dir(std::env::temp_dir()).unwrap();
    let f3 = figures::fig3(&ms).render();
    assert!(f3.contains("(a)"), "{f3}");
    let f4 = figures::fig4(&ms).render();
    assert!(f4.contains("P=2"), "{f4}");
    let f5 = figures::fig5(&ms).render();
    assert!(f5.contains("geomean"));
    let f6 = figures::fig6(&ms).render();
    // USLCWS wins 1 of 2 configs at P=2 → 50%.
    assert!(f6.contains("50.0%"), "{f6}");
    let f7 = figures::fig7(&ms).render();
    assert!(f7.contains("speedup"));
    let f8 = figures::fig8(&ms).render();
    assert!(f8.contains("(e)"));
    let s51 = figures::stats51(&ms).render();
    assert!(s51.contains("best"));
    let s52 = figures::stats52(&ms).render();
    assert!(s52.contains("≥ 1.05"));
    let s54 = figures::stats54(&ms).render();
    assert!(s54.contains("fastest"));
}

#[test]
fn stats54_counts_wins_correctly() {
    let ms = sample_measurements();
    let rendered = figures::stats54(&ms).render();
    // Signal is fastest for sort/rand@2 (1.90) and ties-at-min for
    // bfs/rmat@4 (0.70, min_by keeps the first strictly-smaller, so WS or
    // Signal depending on iteration order) — at minimum Signal wins once.
    assert!(rendered.contains("Signal"), "{rendered}");
}

#[test]
fn raw_csv_has_row_per_measurement() {
    let ms = sample_measurements();
    let (header, rows) = figures::raw_csv(&ms);
    assert_eq!(rows.len(), ms.len());
    assert_eq!(
        header.split(',').count(),
        rows[0].split(',').count(),
        "header/row arity"
    );
}
