//! Metric names, units and the result line.

use crate::stats::{fastest, median, percentile, tail, Tally};
use crate::trace::{durations_us, self_seconds_per_trace, Span};
use rrb::json::Json;
use std::collections::BTreeMap;

/// The end-to-end metrics every untraced run prints, in order. The
/// names are shared by all workloads; what each measures on each
/// workload is listed in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rate_per_s", "1/s"),
    ("rate2_per_s", "1/s"),
    ("min_ms", "ms"),
];

/// The per-layer metrics every traced run prints, in order.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("spec.parse_s", "s"),
    ("campaign.plan_s", "s"),
    ("campaign.unique_runs", "count"),
    ("campaign.dedup_ratio", "ratio"),
    ("campaign.finish_s", "s"),
    ("campaign.render_s", "s"),
    ("campaign.output_bytes", "bytes"),
    ("executor.runs", "count"),
    ("executor.run_s", "s"),
    ("executor.run_p50_us", "us"),
    ("executor.run_max_us", "us"),
    ("executor.failed_runs", "count"),
    ("executor.par_speedup", "ratio"),
    ("sim.reset_s", "s"),
    ("sim.load_s", "s"),
    ("sim.run_s", "s"),
    ("sim.simulated_cycles", "cycles"),
    ("sim.stepped_cycles", "cycles"),
    ("sim.stepped_share", "ratio"),
    ("sim.ns_per_stepped_cycle", "ns"),
    ("sim.instructions", "count"),
    ("store.open_s", "s"),
    ("store.lookups", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.rejected", "count"),
    ("store.lookup_s", "s"),
    ("store.lookup_p50_us", "us"),
    ("store.inserts", "count"),
    ("store.insert_s", "s"),
    ("store.insert_p50_us", "us"),
    ("store.entry_bytes", "bytes"),
    ("store.insert_vs_run", "ratio"),
    ("store.payload_p50_us", "us"),
    ("serve.requests", "count"),
    ("serve.non_200", "count"),
    ("serve.healthz_p50_us", "us"),
    ("serve.query_overhead_p50_us", "us"),
    ("serve.stream_ttfb_ms", "ms"),
    ("serve.stream_bytes", "bytes"),
    ("serve.runs_executed", "count"),
    ("static.cells", "count"),
    ("static.analyze_s", "s"),
    ("static.verify_s", "s"),
    ("static.explored", "count"),
    ("static.pruned_share", "ratio"),
    ("static.explored_per_s", "1/s"),
    ("trace.overhead", "ratio"),
];

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Values for [`END_TO_END`], by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The workload's own metrics under the names the docs use for them
    /// (`runs_per_s`, `query_p99_ms`, ...), printed for people.
    pub named: Vec<Metric>,
    /// Layer values set directly by the workload (counts, ratios);
    /// timings come from the spans.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Why checks failed, for stderr.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a named workload metric for the text report.
    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push(Metric { name: name.into(), value, unit });
    }

    /// Records the end-to-end values shared by every workload: `rate`
    /// and `rate2` per second and the gated latency `min_s`.
    pub fn end_to_end(&mut self, setup_s: f64, rate: f64, rate2: f64, min_s: f64) {
        for (name, value) in [
            ("setup_s", setup_s),
            ("rate_per_s", rate),
            ("rate2_per_s", rate2),
            ("min_ms", min_s * 1e3),
        ] {
            self.end_to_end.insert(name, value);
        }
    }

    /// Prints the fastest sample, the median and the tail (by the
    /// [`tail`] rule) of `samples_s` as `<name>_p<N>_ms`.
    pub fn latency_summary(&mut self, name: &str, samples_s: &[f64]) {
        let (pct, tail_s) = tail(samples_s);
        self.named(format!("{name}_min_ms"), fastest(samples_s) * 1e3, "ms");
        self.named(format!("{name}_p50_ms"), median(samples_s) * 1e3, "ms");
        self.named(format!("{name}_p{pct}_ms (n={})", samples_s.len()), tail_s * 1e3, "ms");
    }

    /// Records one pass: `ops` operations, `errors` failed on their own,
    /// and the problems its output checks found.
    pub fn pass(&mut self, ops: u64, errors: u64, problems: Vec<String>) {
        self.tally.pass(ops, errors, problems.is_empty());
        self.problems.extend(problems);
    }
}

/// Median, over traces, of the summed self time of spans named `name`.
fn per_trace_s(spans: &[Span], name: &str) -> f64 {
    median(&self_seconds_per_trace(spans, name).into_values().collect::<Vec<_>>())
}

/// Median duration, in microseconds, of spans named `name`.
fn p50_us(spans: &[Span], name: &str) -> f64 {
    median(&durations_us(spans, name))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every [`PER_LAYER`] metric, from the spans plus the values the
/// workload set. A layer the workload never calls reads 0.
pub fn layer_metrics(spans: &[Span], set: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("spec.parse_s", per_trace_s(spans, "spec.parse"));
    v.insert("campaign.plan_s", per_trace_s(spans, "campaign.plan"));
    v.insert("campaign.finish_s", per_trace_s(spans, "campaign.finish"));
    v.insert("campaign.render_s", per_trace_s(spans, "campaign.render"));
    let run_s = per_trace_s(spans, "executor.execute");
    let run_us = durations_us(spans, "executor.execute");
    v.insert("executor.run_s", run_s);
    v.insert("executor.run_p50_us", median(&run_us));
    v.insert("executor.run_max_us", percentile(&run_us, 100));
    v.insert("executor.par_speedup", ratio(run_s, per_trace_s(spans, "executor.batch")));
    let sim_run_s = per_trace_s(spans, "sim.run");
    v.insert("sim.reset_s", per_trace_s(spans, "sim.reset"));
    v.insert("sim.load_s", per_trace_s(spans, "sim.load"));
    v.insert("sim.run_s", sim_run_s);
    v.insert("store.open_s", median(&durations_us(spans, "store.open")) * 1e-6);
    v.insert("store.lookup_s", per_trace_s(spans, "store.lookup"));
    v.insert("store.lookup_p50_us", p50_us(spans, "store.lookup"));
    v.insert("store.insert_s", per_trace_s(spans, "store.insert"));
    let insert_p50 = p50_us(spans, "store.insert");
    v.insert("store.insert_p50_us", insert_p50);
    v.insert("store.insert_vs_run", ratio(insert_p50, median(&run_us)));
    let payload_p50 = p50_us(spans, "store.payload");
    v.insert("store.payload_p50_us", payload_p50);
    v.insert("serve.healthz_p50_us", p50_us(spans, "serve.healthz"));
    let query_p50 = p50_us(spans, "serve.query");
    v.insert(
        "serve.query_overhead_p50_us",
        if query_p50 > 0.0 { query_p50 - payload_p50 } else { 0.0 },
    );
    let verify_s = per_trace_s(spans, "static.verify");
    v.insert("static.analyze_s", per_trace_s(spans, "static.analyze"));
    v.insert("static.verify_s", verify_s);
    for (name, value) in set {
        v.insert(name, *value);
    }
    let get = |v: &BTreeMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let derived = [
        (
            "campaign.dedup_ratio",
            ratio(get(&v, "campaign.unique_runs"), get(&v, "campaign.planned_runs")),
        ),
        (
            "sim.stepped_share",
            ratio(get(&v, "sim.stepped_cycles"), get(&v, "sim.simulated_cycles")),
        ),
        ("sim.ns_per_stepped_cycle", ratio(sim_run_s * 1e9, get(&v, "sim.stepped_cycles"))),
        ("store.hit_ratio", ratio(get(&v, "store.hits"), get(&v, "store.lookups"))),
        (
            "static.pruned_share",
            ratio(get(&v, "static.pruned"), get(&v, "static.explored") + get(&v, "static.pruned")),
        ),
        ("static.explored_per_s", ratio(get(&v, "static.explored"), verify_s)),
    ];
    for (name, value) in derived {
        v.insert(name, value);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric { name: name.to_string(), value: get(&v, name), unit })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.fract() == 0.0 && m.value.abs() < 9.0e15 {
                Json::I64(m.value as i64)
            } else {
                Json::F64(m.value)
            };
            (m.name.as_str(), Json::obj(vec![("value", value), ("unit", Json::str(m.unit))]))
        })
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("correct", Json::Bool(tally.all_ok() && tally.attempted > 0)),
        ("attempted", Json::U64(tally.attempted.max(1))),
        ("failed", Json::U64(tally.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render_compact()
}
