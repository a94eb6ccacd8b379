//! `compare A.json B.json`: judges result file B against A with the
//! benchmark's own bounds, one row per (workload, end-to-end metric).
//!
//! Simulated metrics repeat exactly for a fixed seed, so any change is a
//! change of the model: `better` or `worse` by direction, never `same`.
//! Host metrics are compared against the relative bound `BENCHMARK.json`
//! fixes for them; a difference beyond the bound is `unresolved` rather
//! than `better`/`worse` when either run's own spread is wider than the
//! bound. `setup_s` additionally ignores differences under 2 ms.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use tyr_stats::json::Json;

use crate::metrics::{Kind, Results, Value, END_TO_END};

/// `setup_s` differences smaller than this are noise whatever the ratio.
const SETUP_FLOOR_S: f64 = 0.002;

/// What happened to one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (host) or identical (simulated).
    Same,
    /// Improved beyond the bound.
    Better,
    /// Regressed beyond the bound.
    Worse,
    /// Cannot be judged: missing on one side, or beyond the bound while the
    /// run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative regression bounds of the host metrics, by name.
pub type Bounds = BTreeMap<String, f64>;

/// Reads the `end_to_end` bounds out of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Syntax errors or a missing `end_to_end` list.
pub fn bounds_from_benchmark_json(text: &str) -> Result<Bounds, String> {
    let doc = Json::parse(text)?;
    let list = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Judges one metric: all end-to-end metrics are better when lower.
pub fn judge(name: &str, kind: Kind, a: &Value, b: &Value, bounds: &Bounds) -> Verdict {
    match kind {
        Kind::Simulated if a.value == b.value => Verdict::Same,
        Kind::Simulated if b.value < a.value => Verdict::Better,
        Kind::Simulated => Verdict::Worse,
        Kind::Host => {
            let Some(&bound) = bounds.get(name) else { return Verdict::Unresolved };
            let diff = b.value - a.value;
            let within_floor = name == "setup_s" && diff.abs() < SETUP_FLOOR_S;
            if within_floor || diff.abs() <= bound * a.value.abs() {
                Verdict::Same
            } else if a.spread.max(b.spread) > bound {
                Verdict::Unresolved
            } else if diff < 0.0 {
                Verdict::Better
            } else {
                Verdict::Worse
            }
        }
    }
}

/// Compares every (workload, end-to-end metric) of `a` and `b`. Returns the
/// printed table and the verdict counts.
pub fn compare(
    a: &Results,
    b: &Results,
    bounds: &Bounds,
) -> (String, BTreeMap<&'static str, usize>) {
    let mut table = String::new();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let _ = writeln!(
        table,
        "{:<14} {:<16} {:>18} {:>18} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    let names: BTreeSet<&String> = a.workloads.keys().chain(b.workloads.keys()).collect();
    for workload in names {
        let (wa, wb) = (a.workloads.get(workload), b.workloads.get(workload));
        let mut row = |metric: &str, va: Option<&Value>, vb: Option<&Value>, verdict: Verdict| {
            let show = |v: Option<&Value>| v.map_or("-".to_string(), |v| format!("{}", v.value));
            let change = match (va, vb) {
                (Some(x), Some(y)) if x.value != 0.0 => {
                    format!("{:+.2}%", (y.value - x.value) * 100.0 / x.value)
                }
                _ => "-".to_string(),
            };
            let _ = writeln!(
                table,
                "{workload:<14} {metric:<16} {:>18} {:>18} {change:>9}  {}",
                show(va),
                show(vb),
                verdict.label()
            );
            *counts.entry(verdict.label()).or_insert(0) += 1;
        };
        for m in END_TO_END {
            let va = wa.and_then(|w| w.end_to_end.get(m.name));
            let vb = wb.and_then(|w| w.end_to_end.get(m.name));
            let verdict = match (va, vb) {
                (Some(x), Some(y)) => judge(m.name, m.kind, x, y, bounds),
                _ => Verdict::Unresolved,
            };
            row(m.name, va, vb, verdict);
        }
        // Failed operations are exact too: more failures is worse.
        let failed = |w: Option<&crate::metrics::WorkloadResult>| {
            w.map(|w| Value::exact(w.failed as f64, "count"))
        };
        let (fa, fb) = (failed(wa), failed(wb));
        let verdict = match (&fa, &fb) {
            (Some(x), Some(y)) => judge("failed", Kind::Simulated, x, y, bounds),
            _ => Verdict::Unresolved,
        };
        row("failed", fa.as_ref(), fb.as_ref(), verdict);
    }
    (table, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WorkloadResult;

    fn bounds() -> Bounds {
        [("wall_s", 0.10), ("peak_rss_mb", 0.10), ("setup_s", 0.25)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    fn results(wall: f64, spread: f64, setup: f64, cycles: f64, failed: u64) -> Results {
        let mut w = WorkloadResult { attempted: 35, failed, ..WorkloadResult::default() };
        let host = |value, spread| Value { value, unit: "s".into(), samples: 5, spread };
        w.end_to_end.insert("wall_s".into(), host(wall, spread));
        w.end_to_end.insert("peak_rss_mb".into(), host(100.0, 0.0));
        w.end_to_end.insert("setup_s".into(), host(setup, 0.0));
        for name in ["sim_cycles", "tyr_cycles", "sim_dyn_instrs", "sim_peak_live"] {
            w.end_to_end.insert(name.into(), Value::exact(cycles, "cycles"));
        }
        let mut r = Results { seed: 1, ..Results::default() };
        r.workloads.insert("suite_ideal".into(), w);
        r
    }

    fn verdict_of(table: &str, metric: &str) -> String {
        let line = table.lines().find(|l| l.split_whitespace().nth(1) == Some(metric)).unwrap();
        line.split_whitespace().last().unwrap().to_string()
    }

    #[test]
    fn identical_files_are_all_same() {
        let a = results(2.0, 0.01, 0.05, 1e6, 0);
        let (table, counts) = compare(&a, &a, &bounds());
        assert_eq!(counts.get("same"), Some(&8), "{table}");
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn host_metrics_use_the_relative_bound() {
        let a = results(2.0, 0.01, 0.05, 1e6, 0);
        let (t, _) = compare(&a, &results(2.19, 0.01, 0.05, 1e6, 0), &bounds());
        assert_eq!(verdict_of(&t, "wall_s"), "same");
        let (t, c) = compare(&a, &results(2.21, 0.01, 0.05, 1e6, 0), &bounds());
        assert_eq!(verdict_of(&t, "wall_s"), "worse");
        assert_eq!(c.get("worse"), Some(&1));
        let (t, _) = compare(&a, &results(1.7, 0.01, 0.05, 1e6, 0), &bounds());
        assert_eq!(verdict_of(&t, "wall_s"), "better");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_worse() {
        let a = results(2.0, 0.15, 0.05, 1e6, 0);
        let (t, c) = compare(&a, &results(2.5, 0.01, 0.05, 1e6, 0), &bounds());
        assert_eq!(verdict_of(&t, "wall_s"), "unresolved");
        assert_eq!(c.get("worse"), None);
    }

    #[test]
    fn setup_ignores_differences_under_two_milliseconds() {
        let a = results(2.0, 0.01, 0.0010, 1e6, 0);
        let (t, _) = compare(&a, &results(2.0, 0.01, 0.0025, 1e6, 0), &bounds());
        assert_eq!(verdict_of(&t, "setup_s"), "same");
        let (t, _) = compare(&a, &results(2.0, 0.01, 0.0040, 1e6, 0), &bounds());
        assert_eq!(verdict_of(&t, "setup_s"), "worse");
    }

    #[test]
    fn simulated_metrics_and_failures_compare_exactly() {
        let a = results(2.0, 0.01, 0.05, 1_000_000.0, 0);
        let (t, _) = compare(&a, &results(2.0, 0.01, 0.05, 1_000_001.0, 0), &bounds());
        assert_eq!(verdict_of(&t, "sim_cycles"), "worse");
        let (t, _) = compare(&a, &results(2.0, 0.01, 0.05, 999_999.0, 0), &bounds());
        assert_eq!(verdict_of(&t, "tyr_cycles"), "better");
        let (t, _) = compare(&a, &results(2.0, 0.01, 0.05, 1_000_000.0, 2), &bounds());
        assert_eq!(verdict_of(&t, "failed"), "worse");
    }

    #[test]
    fn a_workload_missing_on_one_side_is_unresolved() {
        let a = results(2.0, 0.01, 0.05, 1e6, 0);
        let (_, c) = compare(&a, &Results::default(), &bounds());
        assert_eq!(c.get("unresolved"), Some(&8));
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let text = r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#;
        assert_eq!(bounds_from_benchmark_json(text).unwrap().get("wall_s"), Some(&0.1));
        assert!(bounds_from_benchmark_json("{}").is_err());
    }
}
