//! The metric tables — the single list of names and units `BENCHMARK.json`,
//! the printed report, the result files and `compare` agree on — and the
//! result-file encoding.

use std::collections::BTreeMap;

use tyr_stats::json::{self, Json};

/// How `compare` judges a change in an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured on the host: noisy, compared against a relative bound.
    Host,
    /// Produced by the simulator: repeats exactly for a fixed seed, so any
    /// change is a change of the model.
    Simulated,
}

/// One end-to-end metric. All are better when lower.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Host or simulated.
    pub kind: Kind,
}

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "wall_s", unit: "s", kind: Kind::Host },
    EndToEnd { name: "peak_rss_mb", unit: "MB", kind: Kind::Host },
    EndToEnd { name: "setup_s", unit: "s", kind: Kind::Host },
    EndToEnd { name: "sim_cycles", unit: "cycles", kind: Kind::Simulated },
    EndToEnd { name: "tyr_cycles", unit: "cycles", kind: Kind::Simulated },
    EndToEnd { name: "sim_dyn_instrs", unit: "instrs", kind: Kind::Simulated },
    EndToEnd { name: "sim_peak_live", unit: "tokens", kind: Kind::Simulated },
];

/// The per-layer metrics `(name, unit, better)`, from the traced pass. A
/// metric a workload does not exercise is reported as 0 on that workload.
pub const PER_LAYER: [(&str, &str, &str); 79] = [
    ("workloads.build_ms", "ms", "lower"),
    ("workloads.gen_us_per_recipe", "us", "lower"),
    ("workloads.check_ms", "ms", "lower"),
    ("lang.compile_us_per_kernel", "us", "lower"),
    ("lang.source_bytes", "bytes", "lower"),
    ("ir.validate_us_per_program", "us", "lower"),
    ("ir.interp_minstr_per_s", "Minstr/s", "higher"),
    ("dfg.lower_tagged_us_per_program", "us", "lower"),
    ("dfg.lower_ordered_us_per_program", "us", "lower"),
    ("dfg.nodes_tyr", "count", "lower"),
    ("dfg.nodes_unordered", "count", "lower"),
    ("dfg.nodes_ordered", "count", "lower"),
    ("verify.static_us_per_graph", "us", "lower"),
    ("verify.tv_us_per_program", "us", "lower"),
    ("verify.shard_us_per_graph", "us", "lower"),
    ("verify.diagnostics", "count", "lower"),
    ("sim.tagged.new_us", "us", "lower"),
    ("sim.tagged.ns_per_instr", "ns", "lower"),
    ("sim.tagged.minstr_per_s", "Minstr/s", "higher"),
    ("sim.tagged.share_pct", "%", "lower"),
    ("sim.tagged.ns_per_cycle", "ns", "lower"),
    ("sim.ordered.new_us", "us", "lower"),
    ("sim.ordered.ns_per_instr", "ns", "lower"),
    ("sim.ordered.minstr_per_s", "Minstr/s", "higher"),
    ("sim.ordered.share_pct", "%", "lower"),
    ("sim.ordered.ns_per_cycle", "ns", "lower"),
    ("sim.seqdf.new_us", "us", "lower"),
    ("sim.seqdf.ns_per_instr", "ns", "lower"),
    ("sim.seqdf.minstr_per_s", "Minstr/s", "higher"),
    ("sim.seqdf.share_pct", "%", "lower"),
    ("sim.seqvn.new_us", "us", "lower"),
    ("sim.seqvn.ns_per_instr", "ns", "lower"),
    ("sim.seqvn.minstr_per_s", "Minstr/s", "higher"),
    ("sim.seqvn.share_pct", "%", "lower"),
    ("sim.ooo.new_us", "us", "lower"),
    ("sim.ooo.ns_per_instr", "ns", "lower"),
    ("sim.ooo.minstr_per_s", "Minstr/s", "higher"),
    ("sim.ooo.share_pct", "%", "lower"),
    ("sim.tagged.tag_allocs", "count", "lower"),
    ("sim.tagged.stalls_tag_starved", "count", "lower"),
    ("sim.tagged.stalls_partial_match", "count", "lower"),
    ("sim.ordered.stalls_back_pressure", "count", "lower"),
    ("sim.tagged.store_peak", "tokens", "lower"),
    ("sim.mem_loads", "count", "lower"),
    ("sim.mem_stores", "count", "lower"),
    ("sim.event.skipped_pct", "%", "higher"),
    ("sim.event.push_drain_ns", "ns", "lower"),
    ("sim.event.push_drain_var_ns", "ns", "lower"),
    ("sim.cache.access_ns", "ns", "lower"),
    ("sim.cache.l1_miss_pct_tyr", "%", "lower"),
    ("sim.cache.l1_miss_pct_unordered", "%", "lower"),
    ("sim.cache.l1_miss_pct_ordered", "%", "lower"),
    ("sim.cache.l2_miss_pct_tyr", "%", "lower"),
    ("sim.cache.mshr_stalls", "count", "lower"),
    ("sim.slab.turnover_ns", "ns", "lower"),
    ("sim.fxhash.churn_ns", "ns", "lower"),
    ("stats.events_per_instr", "ratio", "lower"),
    ("stats.counting_overhead_pct", "%", "lower"),
    ("stats.timeline_ns_per_event", "ns", "lower"),
    ("stats.profiler_ns_per_event", "ns", "lower"),
    ("stats.stream_ns_per_event", "ns", "lower"),
    ("stats.chrome_ns_per_event", "ns", "lower"),
    ("stats.chrome_render_ms", "ms", "lower"),
    ("stats.json_parse_mb_per_s", "MB/s", "higher"),
    ("stats.probe_overhead_x", "ratio", "lower"),
    ("stats.stream_bytes_per_event", "bytes", "lower"),
    ("stats.chrome_json_mb", "MB", "lower"),
    ("bench.run_system_glue_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.cpu_over_wall", "ratio", "higher"),
    ("bench.disturbed_passes", "count", "lower"),
    ("bench.layers_accounted_pct", "%", "higher"),
    ("bench.fail_share", "ratio", "lower"),
    ("bench.timed_passes", "count", "higher"),
    ("bench.wall_median_s", "s", "lower"),
    ("paper.tyr_vs_unordered_time", "ratio", "higher"),
    ("paper.tyr_speedup_vs_vn", "ratio", "higher"),
    ("paper.tyr_speedup_vs_ordered", "ratio", "higher"),
    ("paper.tyr_peak_vs_ordered", "ratio", "lower"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind a host metric (timed passes, set-up repeats); 0 for
    /// simulated counts.
    pub samples: u64,
    /// Spread of those samples: `host::runner_up_gap` of the pass totals
    /// for `wall_s`, `host::relative_iqr` for `setup_s`; 0 when unknown.
    pub spread: f64,
}

impl Value {
    /// An exact count or ratio with no sample statistics.
    pub fn exact(value: f64, unit: &str) -> Self {
        Value { value, unit: unit.to_string(), samples: 0, spread: 0.0 }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("value".into(), Json::Num(self.value)),
            ("unit".into(), json::str(self.unit.as_str())),
            ("samples".into(), json::num(self.samples)),
            ("spread".into(), Json::Num(self.spread)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(Value {
            value: j.get("value").and_then(Json::as_f64).ok_or("metric without a value")?,
            unit: j.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
            samples: j.get("samples").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            spread: j.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

/// Everything one workload's run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// Cell runs attempted, weighted by each cell's operation count.
    pub attempted: u64,
    /// Cell runs that failed, weighted likewise.
    pub failed: u64,
    /// The failures, `cell: reason`.
    pub failures: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, Value>,
    /// Per-layer metrics by name (empty without `--trace`).
    pub per_layer: BTreeMap<String, Value>,
}

impl WorkloadResult {
    /// The last line the driver reads: `correct`, `attempted`, `failed` and
    /// either the end-to-end metrics or (traced) every per-layer metric.
    pub fn driver_line(&self, traced: bool) -> String {
        let metric = |v: f64, unit: &str| {
            Json::Obj(vec![("value".into(), Json::Num(v)), ("unit".into(), json::str(unit))])
        };
        let metrics: Vec<(String, Json)> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let v = self.per_layer.get(name).map_or(0.0, |v| v.value);
                    (name.to_string(), metric(v, unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self.end_to_end.get(m.name).map_or(0.0, |v| v.value);
                    (m.name.to_string(), metric(v, m.unit))
                })
                .collect()
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), json::num(self.attempted)),
            ("failed".into(), json::num(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<String, Value>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
        };
        Json::Obj(vec![
            ("attempted".into(), json::num(self.attempted)),
            ("failed".into(), json::num(self.failed)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().map(|f| json::str(f.as_str())).collect()),
            ),
            ("end_to_end".into(), map(&self.end_to_end)),
            ("per_layer".into(), map(&self.per_layer)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let map = |key: &str| -> Result<BTreeMap<String, Value>, String> {
            j.get(key)
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .map(|(k, v)| Ok((k.clone(), Value::from_json(v)?)))
                .collect()
        };
        Ok(WorkloadResult {
            attempted: j.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            failed: j.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            failures: j
                .get("failures")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            end_to_end: map("end_to_end")?,
            per_layer: map("per_layer")?,
        })
    }
}

/// A result file: the run's parameters and one [`WorkloadResult`] per
/// workload run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Results {
    /// Input seed.
    pub seed: u64,
    /// Results by workload name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// Schema tag of result files.
pub const SCHEMA: &str = "tyr-benchmarks/v1";

impl Results {
    /// Serializes the results.
    pub fn render(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), json::str(SCHEMA)),
            ("seed".into(), json::num(self.seed)),
            (
                "workloads".into(),
                Json::Obj(self.workloads.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
            ),
        ])
        .render()
    }

    /// Parses a result file.
    ///
    /// # Errors
    ///
    /// Syntax errors, a wrong schema tag, or a metric without a value.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result file"));
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("result file without workloads")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), WorkloadResult::from_json(v)?)))
            .collect::<Result<_, String>>()?;
        Ok(Results {
            seed: doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        let mut r = WorkloadResult { attempted: 70, ..WorkloadResult::default() };
        r.end_to_end.insert(
            "wall_s".into(),
            Value { value: 2.3456789, unit: "s".into(), samples: 5, spread: 0.01 },
        );
        r.end_to_end.insert("sim_cycles".into(), Value::exact(8_200_000.0, "cycles"));
        r.per_layer.insert("sim.tagged.share_pct".into(), Value::exact(70.25, "%"));
        r
    }

    #[test]
    fn result_files_round_trip() {
        let mut results = Results { seed: 7, ..Results::default() };
        results.workloads.insert("suite_ideal".into(), sample());
        assert_eq!(Results::parse(&results.render()).unwrap(), results);
        assert!(Results::parse("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn driver_line_carries_exactly_the_declared_metrics() {
        let r = sample();
        let line = Json::parse(&r.driver_line(false)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let keys: Vec<&str> =
            line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(2.3456789));

        let traced = Json::parse(&r.driver_line(true)).unwrap();
        let metrics = traced.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let share = traced.get("metrics").and_then(|m| m.get("sim.tagged.share_pct")).unwrap();
        assert_eq!(share.get("value").and_then(Json::as_f64), Some(70.25));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|&(n, _, _)| n));
        let ok = |s: &str, extra: &str| {
            s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(n.len() <= 64 && ok(n, "_.-"), "{n}");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|&(_, u, _)| u)) {
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "{unit}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128);
    }
}
