//! Report generators: one function per paper artifact, each turning a set
//! of [`crate::Measurement`]s into the corresponding table/figure report.
//!
//! Splitting generation from sweeping lets the `all` binary run a single
//! sweep and derive every artifact from the same data (cheaper and more
//! internally consistent than per-figure sweeps).

use lcws_core::{Event, Variant};

use crate::report::Report;
use crate::stats::{fraction_above, geomean, BoxStats};
use crate::sweep::{by_config, metric_ratios, speedups_vs_ws, unstolen_fractions, Measurement};

fn box_section(
    report: &mut Report,
    csv_name: &str,
    heading: &str,
    data: &std::collections::BTreeMap<usize, Vec<f64>>,
) {
    report.section(heading);
    let mut rows = Vec::new();
    for (p, values) in data {
        let s = BoxStats::of(values);
        report.line(format!("P={p:<3} {}", s.row()));
        rows.push(format!("{p},{}", s.csv_row()));
    }
    report.csv(
        csv_name,
        &format!("threads,{}", BoxStats::csv_header()),
        &rows,
    );
}

/// Figure 3: profile of USLCWS against WS (fence ratio, CAS ratio,
/// successful-steal ratio, % exposed-but-unstolen), box plots over all
/// benchmark configurations per processor count.
pub fn fig3(ms: &[Measurement]) -> Report {
    let mut r = Report::new("Figure 3 — Profile of USLCWS vs WS across all PBBS configurations");
    box_section(
        &mut r,
        "fig3a_fence_ratio",
        "(a) USLCWS memory fences / WS memory fences",
        &metric_ratios(ms, Variant::UsLcws, Variant::Ws, Event::Fence),
    );
    box_section(
        &mut r,
        "fig3b_cas_ratio",
        "(b) USLCWS CAS / WS CAS",
        &metric_ratios(ms, Variant::UsLcws, Variant::Ws, Event::Cas),
    );
    box_section(
        &mut r,
        "fig3c_steal_ratio",
        "(c) successful steals USLCWS / successful steals WS",
        &metric_ratios(ms, Variant::UsLcws, Variant::Ws, Event::StealOk),
    );
    box_section(
        &mut r,
        "fig3d_unstolen",
        "(d) fraction of exposed work not stolen in USLCWS",
        &unstolen_fractions(ms, Variant::UsLcws),
    );
    r
}

/// Figure 4: box plots of the speedup of USLCWS w.r.t. WS per processor
/// count.
pub fn fig4(ms: &[Measurement]) -> Report {
    let mut r = Report::new("Figure 4 — Speedup of USLCWS wrt WS (box plots per P)");
    box_section(
        &mut r,
        "fig4_uslcws_speedup",
        "speedup t_WS / t_USLCWS over all benchmark configurations",
        &speedups_vs_ws(ms, Variant::UsLcws),
    );
    r
}

/// Figure 5: average speedups of every LCWS variant w.r.t. WS per
/// processor count.
pub fn fig5(ms: &[Measurement]) -> Report {
    let mut r = Report::new("Figure 5 — Average speedups wrt WS per P");
    let mut rows = Vec::new();
    for variant in Variant::LCWS_ALL {
        r.section(&format!("{} (geometric mean of speedups)", variant.label()));
        for (p, values) in speedups_vs_ws(ms, variant) {
            let g = geomean(&values);
            let a = values.iter().sum::<f64>() / values.len() as f64;
            r.line(format!(
                "P={p:<3} geomean {g:6.4}  arith-mean {a:6.4}  (n={})",
                values.len()
            ));
            rows.push(format!("{},{p},{g},{a},{}", variant.name(), values.len()));
        }
    }
    r.csv(
        "fig5_avg_speedups",
        "variant,threads,geomean,arith_mean,n",
        &rows,
    );
    r
}

/// Figure 6: percentage of benchmark configurations with speedup > 1 per
/// variant per processor count.
pub fn fig6(ms: &[Measurement]) -> Report {
    let mut r = Report::new("Figure 6 — % of configurations with speedup > 1");
    let mut rows = Vec::new();
    for variant in Variant::LCWS_ALL {
        r.section(variant.label());
        for (p, values) in speedups_vs_ws(ms, variant) {
            let f = fraction_above(&values, 1.0) * 100.0;
            r.line(format!(
                "P={p:<3} {f:5.1}% of {} configurations",
                values.len()
            ));
            rows.push(format!("{},{p},{f:.2},{}", variant.name(), values.len()));
        }
    }
    r.csv("fig6_pct_wins", "variant,threads,pct_speedup_gt1,n", &rows);
    r
}

/// Figure 7: box plots of the speedup of signal-based LCWS w.r.t. WS.
pub fn fig7(ms: &[Measurement]) -> Report {
    let mut r = Report::new("Figure 7 — Speedup of signal-based LCWS wrt WS (box plots per P)");
    box_section(
        &mut r,
        "fig7_signal_speedup",
        "speedup t_WS / t_Signal over all benchmark configurations",
        &speedups_vs_ws(ms, Variant::Signal),
    );
    r
}

/// Figure 8: profile of signal-based LCWS — (a–d) against WS, (e–h)
/// against USLCWS.
pub fn fig8(ms: &[Measurement]) -> Report {
    let mut r = Report::new("Figure 8 — Profile of signal-based LCWS");
    box_section(
        &mut r,
        "fig8a_fence_ratio_ws",
        "(a) Signal memory fences / WS memory fences",
        &metric_ratios(ms, Variant::Signal, Variant::Ws, Event::Fence),
    );
    box_section(
        &mut r,
        "fig8b_cas_ratio_ws",
        "(b) Signal CAS / WS CAS",
        &metric_ratios(ms, Variant::Signal, Variant::Ws, Event::Cas),
    );
    box_section(
        &mut r,
        "fig8c_steals_ratio_ws",
        "(c) Signal successful steals / WS successful steals",
        &metric_ratios(ms, Variant::Signal, Variant::Ws, Event::StealOk),
    );
    box_section(
        &mut r,
        "fig8d_unstolen",
        "(d) fraction of exposed work not stolen (Signal)",
        &unstolen_fractions(ms, Variant::Signal),
    );
    box_section(
        &mut r,
        "fig8e_fence_ratio_uslcws",
        "(e) Signal memory fences / USLCWS memory fences",
        &metric_ratios(ms, Variant::Signal, Variant::UsLcws, Event::Fence),
    );
    box_section(
        &mut r,
        "fig8f_cas_ratio_uslcws",
        "(f) Signal CAS / USLCWS CAS",
        &metric_ratios(ms, Variant::Signal, Variant::UsLcws, Event::Cas),
    );
    box_section(
        &mut r,
        "fig8g_steals_ratio_uslcws",
        "(g) Signal successful steals / USLCWS successful steals",
        &metric_ratios(ms, Variant::Signal, Variant::UsLcws, Event::StealOk),
    );
    // (h): unstolen-exposure ratio Signal / USLCWS per configuration.
    {
        let idx = by_config(ms);
        let mut data: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
        for ((_l, p), variants) in &idx {
            if let (Some(s), Some(u)) = (
                variants.get(&Variant::Signal),
                variants.get(&Variant::UsLcws),
            ) {
                if let (Some(fs), Some(fu)) = (
                    s.metrics.unstolen_exposure_ratio(),
                    u.metrics.unstolen_exposure_ratio(),
                ) {
                    if fu > 0.0 {
                        data.entry(*p).or_default().push(fs / fu);
                    }
                }
            }
        }
        box_section(
            &mut r,
            "fig8h_unstolen_ratio_uslcws",
            "(h) Signal unstolen fraction / USLCWS unstolen fraction",
            &data,
        );
    }
    r
}

/// §5.1 statistics: USLCWS vs WS — overall average gain, plus the best and
/// worst configuration per benchmark.
pub fn stats51(ms: &[Measurement]) -> Report {
    let mut r = Report::new("§5.1 — User-Space LCWS versus Work Stealing");
    per_variant_extremes(&mut r, ms, Variant::UsLcws, "stats51_uslcws");
    r
}

/// §5.2 statistics: signal-based LCWS vs WS — fraction of executions with
/// speedup > 1 and with gains ≥ 5/10/15/20%.
pub fn stats52(ms: &[Measurement]) -> Report {
    let mut r = Report::new("§5.2 — Signal-Based LCWS versus Work Stealing");
    let all: Vec<f64> = speedups_vs_ws(ms, Variant::Signal)
        .into_values()
        .flatten()
        .collect();
    r.section("share of benchmark executions with speedup above threshold");
    let mut rows = Vec::new();
    for (label, thr) in [
        ("> 1.00", 1.0),
        ("≥ 1.05", 1.05),
        ("≥ 1.10", 1.10),
        ("≥ 1.15", 1.15),
        ("≥ 1.20", 1.20),
    ] {
        let f = fraction_above(&all, thr - 1e-12) * 100.0;
        r.line(format!(
            "speedup {label}: {f:5.1}% of {} executions",
            all.len()
        ));
        rows.push(format!("{thr},{f:.2},{}", all.len()));
    }
    r.csv("stats52_signal_thresholds", "threshold,pct,n", &rows);
    per_variant_extremes(&mut r, ms, Variant::Signal, "stats52_signal");
    r
}

/// §5.4 statistics: which variant is the best option per configuration;
/// Expose Half extremes.
pub fn stats54(ms: &[Measurement]) -> Report {
    let mut r = Report::new("§5.4 — Conservative Exposure and Expose Half");
    let idx = by_config(ms);
    let mut wins: std::collections::HashMap<Variant, usize> = Default::default();
    let mut total = 0usize;
    for variants in idx.values() {
        let best = variants
            .values()
            .min_by(|a, b| a.secs.total_cmp(&b.secs))
            .map(|m| m.variant);
        if let Some(v) = best {
            *wins.entry(v).or_default() += 1;
            total += 1;
        }
    }
    r.section("share of configurations where each scheduler is fastest");
    let mut rows = Vec::new();
    for v in Variant::ALL {
        let w = wins.get(&v).copied().unwrap_or(0);
        let pct = 100.0 * w as f64 / total.max(1) as f64;
        r.line(format!("{:<7} {pct:5.1}%  ({w}/{total})", v.label()));
        rows.push(format!("{},{w},{total},{pct:.2}", v.name()));
    }
    r.csv("stats54_best_option", "variant,wins,total,pct", &rows);
    per_variant_extremes(&mut r, ms, Variant::SignalHalf, "stats54_half");
    per_variant_extremes(&mut r, ms, Variant::SignalConservative, "stats54_cons");
    r
}

/// Shared: overall average gain + per-benchmark best/worst configurations
/// for one variant vs WS.
fn per_variant_extremes(r: &mut Report, ms: &[Measurement], variant: Variant, csv: &str) {
    let idx = by_config(ms);
    // (benchmark → Vec<(speedup, input, threads)>)
    let mut per_bench: std::collections::BTreeMap<String, Vec<(f64, String, usize)>> =
        Default::default();
    for ((label, threads), variants) in &idx {
        if let (Some(ws), Some(v)) = (variants.get(&Variant::Ws), variants.get(&variant)) {
            if v.secs > 0.0 {
                let bench = label.split('/').next().unwrap_or(label).to_string();
                per_bench.entry(bench).or_default().push((
                    ws.secs / v.secs,
                    label.clone(),
                    *threads,
                ));
            }
        }
    }
    let all: Vec<f64> = per_bench.values().flatten().map(|(s, _, _)| *s).collect();
    r.section(&format!(
        "{} vs WS: overall speedup geomean {:.4} over {} executions",
        variant.label(),
        geomean(&all),
        all.len()
    ));
    r.section(&format!(
        "{}: best / worst configuration per benchmark",
        variant.label()
    ));
    let mut rows = Vec::new();
    for (bench, entries) in &per_bench {
        let best = entries.iter().max_by(|a, b| a.0.total_cmp(&b.0)).unwrap();
        let worst = entries.iter().min_by(|a, b| a.0.total_cmp(&b.0)).unwrap();
        r.line(format!(
            "{bench:<26} best {:+6.1}% ({}, P={})   worst {:+6.1}% ({}, P={})",
            (best.0 - 1.0) * 100.0,
            best.1,
            best.2,
            (worst.0 - 1.0) * 100.0,
            worst.1,
            worst.2,
        ));
        rows.push(format!(
            "{bench},{:.4},{},{},{:.4},{},{}",
            best.0, best.1, best.2, worst.0, worst.1, worst.2
        ));
    }
    r.csv(
        csv,
        "benchmark,best_speedup,best_config,best_p,worst_speedup,worst_config,worst_p",
        &rows,
    );
}

/// Raw dump of every measurement (written by the `all` binary for
/// post-hoc analysis).
pub fn raw_csv(ms: &[Measurement]) -> (String, Vec<String>) {
    let header = format!(
        "benchmark,input,variant,policies,threads,secs_mean,secs_min,checksum,{}",
        lcws_core::Snapshot::csv_header()
    );
    let rows = ms
        .iter()
        .map(|m| {
            format!(
                "{},{},{},{},{},{},{},{:#x},{}",
                m.benchmark,
                m.input,
                m.variant.name(),
                m.policies,
                m.threads,
                m.secs,
                m.secs_min,
                m.checksum,
                m.metrics.to_csv_row()
            )
        })
        .collect();
    (header, rows)
}
