//! `lcws-e2e --compare A.json B.json`: judge result file B against A.
//!
//! Per (workload, end-to-end metric): both medians, the ratio B/A with A as
//! its base, the metric's bound, and a verdict — `regressed` when B is worse
//! than A by more than the bound, `unresolved` when either side's own
//! interquartile range is wider than the bound (the spread cannot carry the
//! verdict), `ok` otherwise. Results from different machines or worker
//! counts are refused outright: their times are not comparable. Between
//! different seeds only the workloads whose inputs do not follow the seed
//! are compared.

use crate::json::Json;
use crate::plan::{self, Better};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Why two result files cannot be compared, if they cannot.
pub fn refusal(a: &Json, b: &Json) -> Option<String> {
    for key in ["cpu", "nproc", "P"] {
        let of = |r: &Json| r.get("meta").and_then(|m| m.get(key)).cloned();
        if of(a) != of(b) || of(a).is_none() {
            return Some(format!(
                "meta.{key} differs: {:?} vs {:?}",
                of(a).map(|v| v.compact()),
                of(b).map(|v| v.compact())
            ));
        }
    }
    if a.get("smoke") != b.get("smoke") {
        return Some("smoke differs".to_string());
    }
    None
}

/// Interquartile range as a share of the median (0 without samples).
fn spread(metric: &Json) -> f64 {
    match (metric.num("q1"), metric.num("q3"), metric.num("median")) {
        (Some(q1), Some(q3), Some(median)) if median != 0.0 => (q3 - q1).abs() / median.abs(),
        _ => 0.0,
    }
}

pub fn verdict(a: &Json, b: &Json, better: Better, bound: f64) -> Verdict {
    let (va, vb) = (a.num("value").unwrap_or(0.0), b.num("value").unwrap_or(0.0));
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => vb / va - 1.0,
        Better::Higher => 1.0 - vb / va,
    };
    if va > 0.0 && worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The comparison table and how many pairs regressed / stayed unresolved.
pub fn compare(a: &Json, b: &Json) -> Result<(String, usize, usize), String> {
    if let Some(why) = refusal(a, b) {
        return Err(format!("refusing to compare: {why}"));
    }
    let mut out = format!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    let same_seed = a.get("seed") == b.get("seed");
    for w in &plan::WORKLOADS {
        if w.seeded_inputs && !same_seed {
            out.push_str(&format!(
                "{:<18} not compared: the seeds differ and its inputs follow the seed\n",
                w.name
            ));
            continue;
        }
        let metrics = |r: &Json| {
            r.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|p| p.get("metrics"))
                .cloned()
        };
        let (Some(ma), Some(mb)) = (metrics(a), metrics(b)) else {
            return Err(format!("workload {} missing from a result file", w.name));
        };
        for def in plan::end_to_end() {
            let (Some(xa), Some(xb)) = (ma.get(&def.name), mb.get(&def.name)) else {
                return Err(format!("{}: metric {} missing", w.name, def.name));
            };
            let bound = def.bound.unwrap_or(0.0);
            let v = verdict(xa, xb, def.better, bound);
            regressed += (v == Verdict::Regressed) as usize;
            unresolved += (v == Verdict::Unresolved) as usize;
            let (va, vb) = (
                xa.num("value").unwrap_or(0.0),
                xb.num("value").unwrap_or(0.0),
            );
            out.push_str(&format!(
                "{:<18} {:<24} {:>14.4} {:>14.4} {:>9.4} {:>6.2}  {}\n",
                w.name,
                def.name,
                va,
                vb,
                vb / va,
                bound,
                v.as_str()
            ));
        }
    }
    out.push_str(&format!(
        "ratios are B/A (base A); {regressed} regressed, {unresolved} unresolved\n"
    ));
    Ok((out, regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, q1: f64, q3: f64) -> Json {
        let mut o = Json::obj();
        o.set("value", value)
            .set("median", value)
            .set("q1", q1)
            .set("q3", q3)
            .set("n", 10u64);
        o
    }

    #[test]
    fn verdicts() {
        let a = metric(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(&a, &metric(105.0, 104.0, 106.0), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &metric(115.0, 114.0, 116.0), Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &metric(80.0, 79.0, 81.0), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &metric(80.0, 79.0, 81.0), Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &metric(100.0, 80.0, 120.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn different_machines_are_refused() {
        let result = |cpu: &str, seed: u64| {
            let mut meta = Json::obj();
            meta.set("cpu", cpu).set("nproc", 2u64).set("P", 2u64);
            let mut r = Json::obj();
            r.set("meta", meta).set("seed", seed).set("smoke", false);
            r
        };
        assert!(refusal(&result("x", 1), &result("x", 1)).is_none());
        assert!(refusal(&result("x", 1), &result("y", 1)).is_some());
        // Another seed is not refused: the seeded workloads are skipped.
        assert!(refusal(&result("x", 1), &result("x", 2)).is_none());
    }
}
