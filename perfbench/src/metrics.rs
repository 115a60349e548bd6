//! The metric tables `BENCHMARK.json` commits to, and the set a run fills.
//!
//! A unit test keeps these tables and `BENCHMARK.json` identical, so a name
//! can be added or changed in one place only by failing that test first.

use crate::json::{obj, Value};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one; the
/// README maps each (workload, metric) pair to the quantity it measures.
pub const END_TO_END: &[MetricDef] = &[
    e2e("work_per_s", "1/s", Higher, 0.20),
    e2e("op_ms_p50", "ms", Lower, 0.20),
    e2e("slow_op_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    e2e("resident_bytes_per_point", "B/point", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics from the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // fbd-ingest.
    layer("ingest.wire.decode_ns_per_point", "ns/point", Lower),
    layer("ingest.wire.bytes_per_point", "B/point", Lower),
    layer("ingest.validate.ns_per_point", "ns/point", Lower),
    layer("ingest.quota.ns_per_batch", "ns/batch", Lower),
    layer("ingest.pipeline.backlog_points_p50", "points", Lower),
    layer("ingest.pipeline.backlog_ms_p90", "ms", Lower),
    layer("ingest.pipeline.paced_shed_share", "share", Lower),
    layer("ingest.pipeline.generator_late_ms_p90", "ms", Lower),
    layer("ingest.pipeline.decode_errors", "count", Lower),
    layer("ingest.pipeline.late_shed_points", "count", Lower),
    // fbd-tsdb, write side.
    layer("tsdb.store.append_ns_per_point", "ns/point", Lower),
    layer("tsdb.block.seal_ns_per_point", "ns/point", Lower),
    layer("tsdb.block.bytes_per_point", "B/point", Lower),
    layer("tsdb.store.evicted_points", "count", Lower),
    layer("tsdb.store.expire_ns_per_call", "ns/call", Lower),
    // fbd-tsdb, read side.
    layer("tsdb.store.snapshot_windows_ns_per_series", "ns/series", Lower),
    layer("tsdb.store.snapshot_deltas_ns_per_series", "ns/series", Lower),
    layer("tsdb.block.decode_ns_per_point", "ns/point", Lower),
    layer("tsdb.store.blocks_decoded_per_series", "count", Lower),
    layer("tsdb.store.decode_cache_hit_share", "share", Higher),
    layer("tsdb.store.decode_cache_evictions", "count", Lower),
    // fbdetect-core stage clocks (Pipeline::stage_profile deltas).
    layer("core.stage.ingest_ns_per_series", "ns/series", Lower),
    layer("core.stage.windowing_ns_per_series", "ns/series", Lower),
    layer("core.stage.short_term_ns_per_series", "ns/series", Lower),
    layer("core.stage.long_term_ns_per_series", "ns/series", Lower),
    layer("core.stage.complete_ns_per_series", "ns/series", Lower),
    layer("core.stage.went_away_ns_per_series", "ns/series", Lower),
    layer("core.stage.seasonality_ns_per_series", "ns/series", Lower),
    layer("core.stage.threshold_ns_per_series", "ns/series", Lower),
    layer("core.stage.som_dedup_ns_per_series", "ns/series", Lower),
    layer("core.stage.cost_shift_ns_per_series", "ns/series", Lower),
    layer("core.stage.pairwise_dedup_ns_per_series", "ns/series", Lower),
    layer("core.stage.root_cause_ns_per_series", "ns/series", Lower),
    layer("core.stage.closure_ratio", "ratio", Higher),
    layer("core.pipeline.serial_share", "share", Lower),
    // fbdetect-core direct calls on the workload's own inputs.
    layer("core.change_point.detect_ns_per_series", "ns/series", Lower),
    layer("core.long_term.detect_ns_per_series", "ns/series", Lower),
    layer("core.went_away.evaluate_ns_per_candidate", "ns/candidate", Lower),
    layer("core.seasonality.evaluate_ns_per_candidate", "ns/candidate", Lower),
    layer("core.dedup.som_ns_per_candidate", "ns/candidate", Lower),
    layer("core.dedup.pairwise_ns_per_candidate", "ns/candidate", Lower),
    layer("core.cost_shift.ns_per_candidate", "ns/candidate", Lower),
    layer("core.root_cause.ns_per_report", "ns/report", Lower),
    // fbdetect-core reuse: useful outcomes per attempt.
    layer("core.scan_state.reused_full_share", "share", Higher),
    layer("core.scan_state.advanced_online_share", "share", Higher),
    layer("core.scan_state.online_fallback_share", "share", Lower),
    layer("core.scan_state.summary_hits", "count", Higher),
    layer("core.scan_state.buffer_growth", "count", Lower),
    layer("core.scan_state.resident_points", "points", Lower),
    layer("core.scan_cache.hit_share", "share", Higher),
    // fbdetect-core funnel: exact counts and detection quality.
    layer("core.funnel.change_points", "count", Lower),
    layer("core.funnel.after_went_away", "count", Lower),
    layer("core.funnel.after_seasonality", "count", Lower),
    layer("core.funnel.after_threshold", "count", Lower),
    layer("core.funnel.after_same_merger", "count", Lower),
    layer("core.funnel.after_som_dedup", "count", Lower),
    layer("core.funnel.after_cost_shift", "count", Lower),
    layer("core.funnel.after_pairwise_dedup", "count", Lower),
    layer("core.funnel.reports", "count", Lower),
    layer("core.funnel.recall", "share", Higher),
    layer("core.funnel.false_reports", "count", Lower),
    layer("core.root_cause.top3_share", "share", Higher),
    // fbd-stats kernels on the workload's own windows.
    layer("stats.lrt_ns_per_window", "ns/window", Lower),
    layer("stats.mann_kendall_ns_per_window", "ns/window", Lower),
    layer("stats.theil_sen_ns_per_window", "ns/window", Lower),
    layer("stats.stl_ns_per_window", "ns/window", Lower),
    // Informational.
    layer("core.pipeline.scan_mt_speedup", "ratio", Higher),
    layer("core.pipeline.scan_mt_threads", "count", Higher),
    layer("op_ms_tail", "ms", Lower),
    layer("op_ms_tail_pct", "%", Higher),
    layer("op_samples", "count", Higher),
    layer("slow_op_ms_tail", "ms", Lower),
    layer("slow_op_samples", "count", Higher),
    layer("failed_share", "share", Lower),
    layer("proc.cpu_share", "ratio", Lower),
    layer("proc.steal_share", "ratio", Lower),
    layer("proc.steal_discard_share", "share", Lower),
    layer("fleet.generate_s", "s", Lower),
    layer("tsdb.load_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.closure_ratio", "ratio", Higher),
];

/// The values one run reports, keyed by the names of one table.
pub struct MetricSet {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// Every metric of `table`, starting at 0.
    pub fn new(table: &'static [MetricDef]) -> Self {
        MetricSet {
            table,
            values: table.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    /// Sets a metric. Panics on a name the table does not hold: a typo must
    /// not silently report 0.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("metric {name:?} is not in the table"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(definition, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.table.iter().map(|d| (d, self.values[d.name]))
    }

    /// The `metrics` object of a result line.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        obj(vec![("value", Value::Num(v)), ("unit", Value::Str(d.unit.to_string()))]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty() && s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    /// `BENCHMARK.json` at the repository root is this table, byte for
    /// byte in names, units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let check = |key: &str, table: &[MetricDef]| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (item, d) in listed.iter().zip(table) {
                assert_eq!(item.get("name").unwrap().as_str(), Some(d.name));
                assert_eq!(item.get("unit").unwrap().as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    item.get("better").unwrap().as_str(),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                assert_eq!(item.get("bound").and_then(Value::as_f64), d.bound, "{}", d.name);
                assert_eq!(item.as_obj().unwrap().len(), if d.bound.is_some() { 4 } else { 3 });
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(item.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(item.get("why").unwrap().as_str(), Some(w.why));
        }
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [Value::Str("perfbench".into())]
        );
    }

    #[test]
    fn metric_set_renders_every_metric_in_table_order() {
        let mut set = MetricSet::new(END_TO_END);
        set.set("op_ms_p50", 1.5);
        let rendered = set.to_json();
        let fields = rendered.as_obj().unwrap();
        assert_eq!(fields.len(), END_TO_END.len());
        assert_eq!(fields[1].0, "op_ms_p50");
        assert_eq!(fields[1].1.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(fields[1].1.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_names_panic() {
        MetricSet::new(END_TO_END).set("op_ms_p5O", 1.0);
    }
}
