//! Hand-rolled JSON values and writer, the named metric table, the text-table
//! writer, and the sweep CSV emitter and cross-seed aggregation it drives.
//!
//! The vendored `serde` is a no-op stub (crates.io is unreachable in the build
//! container), so machine-readable reports are built from this small tree type
//! instead of derives. Object keys keep insertion order, which keeps the emitted
//! reports diff-friendly across runs.
//!
//! `METRICS` defines each reported run metric once, by name, with the
//! extractor that reads it; every text column, JSON point key and CSV metric
//! column of a simulator-driven report is one of its names. [`sweep_csv`] renders a `loki sweep` result as one
//! flat CSV (per-point rows tagged `stat=point`, cross-seed aggregates as
//! `stat=mean` / `stat=stddev`), so figure plotting needs no post-processing;
//! [`aggregate_sweep`] exposes the same aggregation programmatically.

use crate::scenario::{MultiStats, PipelineSummary, PointResult, RunPoint};
use crate::sweep::Sweep;
use crate::ConfigValue;
use loki_core::ControllerStats;
use loki_sim::{BurnReport, CostSummary, RunSummary};
use std::fmt::Write as _;
use Value::{Absent, Count, Real};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    /// Non-finite floats render as `null` (JSON has no NaN/Infinity).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be extended with [`Json::push`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key to an object. Panics when `self` is not an object — report
    /// builders construct shapes statically, so this is a programming error.
    pub fn push(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(entries) => entries.push((key.to_string(), value)),
            _ => panic!("Json::push on a non-object"),
        }
        self
    }

    /// Look up a key in an object (test/diagnostic helper).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // Debug formatting is the shortest representation that round-trips,
                    // and always includes a `.` or exponent, so it is valid JSON.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<ConfigValue> for Json {
    fn from(v: ConfigValue) -> Json {
        match v {
            ConfigValue::Count(n) => Json::UInt(n),
            ConfigValue::Real(v) => Json::Num(v),
            ConfigValue::Flag(b) => Json::Bool(b),
            ConfigValue::Name(name) => name.into(),
        }
    }
}

// ---- the metric table ----------------------------------------------------------

/// One report cell: a count (a JSON integer), a real (a JSON number), or
/// absent because the row lacks the input it reads (left out of JSON
/// points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Value {
    Count(u64),
    Real(f64),
    Absent,
}

impl Value {
    /// The cell as a number, absent reading as zero: how sweep rows and
    /// cross-seed aggregates carry it.
    fn or_zero(self) -> f64 {
        match self {
            Count(n) => n as f64,
            Real(v) => v,
            Absent => 0.0,
        }
    }

    /// The cell as text-table content: counts as integers, reals to four
    /// decimals, absent values as `-`.
    pub(crate) fn cell(self) -> String {
        match self {
            Count(n) => n.to_string(),
            Real(v) => format!("{v:.4}"),
            Absent => "-".to_string(),
        }
    }
}

impl From<Value> for Json {
    fn from(v: Value) -> Json {
        match v {
            Count(n) => Json::UInt(n),
            Real(v) => Json::Num(v),
            Absent => Json::Null,
        }
    }
}

/// Everything a [`Metric`] reads for one report row: a run summary, its fleet
/// billing (elastic runs only), its cluster arbitration counts
/// (multi-pipeline points only), the control-plane counters of whichever
/// controller produced the summary, and the SLO error-budget analysis of the
/// summary's interval series.
pub(crate) struct MetricRow<'a> {
    summary: &'a RunSummary,
    cost: Option<&'a CostSummary>,
    multi: Option<&'a MultiStats>,
    stats: Option<&'a ControllerStats>,
    burn: Option<&'a BurnReport>,
}

impl<'a> MetricRow<'a> {
    /// The cluster-level row of an executed point.
    pub(crate) fn point(point: &'a PointResult) -> Self {
        Self {
            summary: &point.result.summary,
            cost: point.cost.as_ref(),
            multi: point.multi_stats.as_ref(),
            stats: point.controller_stats.as_ref(),
            burn: point.burn.as_ref(),
        }
    }

    /// One pipeline's row of a multi-pipeline point. Cost and arbitration
    /// are cluster-level, so pipeline rows carry neither.
    pub(crate) fn lane(lane: &'a PipelineSummary) -> Self {
        Self {
            summary: &lane.summary,
            cost: None,
            multi: None,
            stats: lane.controller_stats.as_ref(),
            burn: lane.burn.as_ref(),
        }
    }

    /// The row's value of the named metric. Panics on an unknown name:
    /// report layouts name metrics statically, so this is a programming
    /// error.
    pub(crate) fn get(&self, name: &str) -> Value {
        let metric = METRICS
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name:?}"));
        (metric.value)(self)
    }

    /// A text-table row: the label, then the named metrics' cells.
    pub(crate) fn cells(&self, label: &str, names: &[&str]) -> Vec<String> {
        let values = names.iter().map(|name| self.get(name).cell());
        std::iter::once(label.to_string()).chain(values).collect()
    }

    /// The row as JSON: `label`, then every metric the row has, in table
    /// order.
    pub(crate) fn to_json(&self, label: &str) -> Json {
        let mut obj = Json::object();
        obj.push("label", label.into());
        for metric in METRICS {
            let value = (metric.value)(self);
            if value != Absent {
                obj.push(metric.name, value.into());
            }
        }
        obj
    }
}

/// A named report metric and how to read it from a [`MetricRow`].
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: fn(&MetricRow) -> Value,
}

impl Metric {
    const fn new(name: &'static str, value: fn(&MetricRow) -> Value) -> Self {
        Self { name, value }
    }
}

/// Every scalar a simulator-driven report prints, in sweep CSV column order.
/// This one table names every text-table header cell, every scalar key of a
/// JSON point, the sweep CSV metric columns, and the cross-seed aggregates
/// with their `{name}_mean`/`{name}_stddev` JSON keys. Every metric is a
/// simulated value or a count, so each row is a pure function of its point's
/// scenario and config.
///
/// Cost metrics are absent for fixed-fleet points and on pipeline rows, the
/// arbitration counts outside multi-pipeline points and on pipeline rows,
/// and the control-plane metrics for controllers that do not track
/// [`ControllerStats`].
pub(crate) const METRICS: &[Metric] = &[
    Metric::new("arrivals", |r| Count(r.summary.total_arrivals)),
    Metric::new("on_time", |r| Count(r.summary.total_on_time)),
    Metric::new("late", |r| Count(r.summary.total_late)),
    Metric::new("dropped", |r| Count(r.summary.total_dropped)),
    Metric::new("dropped_deadline", |r| {
        Count(r.summary.total_dropped_deadline)
    }),
    Metric::new("dropped_reclaimed", |r| {
        Count(r.summary.total_dropped_reclaimed)
    }),
    Metric::new("dropped_revoked", |r| {
        Count(r.summary.total_dropped_revoked)
    }),
    Metric::new("rerouted", |r| Count(r.summary.total_rerouted)),
    Metric::new("slo_violation_ratio", |r| {
        Real(r.summary.slo_violation_ratio)
    }),
    Metric::new("system_accuracy", |r| Real(r.summary.system_accuracy)),
    Metric::new("mean_utilization", |r| Real(r.summary.mean_utilization)),
    Metric::new("p50_ms", |r| Real(r.summary.p50_ms)),
    Metric::new("p90_ms", |r| Real(r.summary.p90_ms)),
    Metric::new("p99_ms", |r| Real(r.summary.p99_ms)),
    Metric::new("p999_ms", |r| Real(r.summary.p999_ms)),
    Metric::new("events_processed", |r| Count(r.summary.events_processed)),
    Metric::new("min_active_workers", |r| {
        Count(r.summary.min_active_workers as u64)
    }),
    Metric::new("max_active_workers", |r| {
        Count(r.summary.max_active_workers as u64)
    }),
    Metric::new("peak_goodput", |r| Count(r.summary.peak_goodput)),
    Metric::new("gpu_hours", |r| {
        r.cost.map_or(Absent, |c| Real(c.gpu_hours()))
    }),
    Metric::new("cost_usd", |r| {
        r.cost.map_or(Absent, |c| Real(c.total_dollars))
    }),
    Metric::new("cost_per_1k", |r| {
        r.cost.map_or(Absent, |c| Real(c.cost_per_1k_queries))
    }),
    Metric::new("peak_fleet", |r| {
        r.cost.map_or(Absent, |c| Count(c.peak_fleet as u64))
    }),
    Metric::new("revocations", |r| {
        r.cost.map_or(Absent, |c| Count(c.revocations))
    }),
    Metric::new("stockouts", |r| {
        r.cost.map_or(Absent, |c| Count(c.stockouts))
    }),
    Metric::new("spot_usd", |r| {
        r.cost.map_or(Absent, |c| Real(c.spot_dollars))
    }),
    Metric::new("ondemand_usd", |r| {
        r.cost.map_or(Absent, |c| Real(c.ondemand_dollars))
    }),
    Metric::new("rebalances", |r| {
        r.multi.map_or(Absent, |m| Count(m.rebalances))
    }),
    Metric::new("migrations", |r| {
        r.multi.map_or(Absent, |m| Count(m.migrations))
    }),
    Metric::new("routing_cache_consults", |r| {
        r.stats
            .map_or(Absent, |s| Count(s.routing_cache_consults as u64))
    }),
    Metric::new("routing_cache_hits", |r| {
        r.stats
            .map_or(Absent, |s| Count(s.routing_cache_hits as u64))
    }),
    Metric::new("routing_warnings", |r| {
        r.stats
            .map_or(Absent, |s| Count(s.routing_warnings_total as u64))
    }),
    Metric::new("budget_consumed", |r| {
        r.burn.map_or(Absent, |b| Real(b.budget_consumed))
    }),
    Metric::new("worst_burn_rate", |r| {
        r.burn.map_or(Absent, |b| Real(b.worst_burn_rate))
    }),
    Metric::new("burn_episodes", |r| {
        r.burn.map_or(Absent, |b| Count(b.episodes.len() as u64))
    }),
];

/// Render rows of cells as aligned text columns, each as wide as its widest
/// cell: the first (the label) left-aligned, the rest right-aligned.
pub(crate) fn text_table(rows: &[Vec<String>]) -> String {
    let columns = rows.iter().map(Vec::len).max().unwrap_or(0);
    let widths: Vec<usize> = (0..columns)
        .map(|c| {
            rows.iter()
                .filter_map(|row| row.get(c))
                .map(|cell| cell.chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    for row in rows {
        let mut line = String::new();
        for (c, cell) in row.iter().enumerate() {
            let pad = " ".repeat(widths[c] - cell.chars().count());
            if c == 0 {
                line.push_str(cell);
                line.push_str(&pad);
            } else {
                line.push_str("  ");
                line.push_str(&pad);
                line.push_str(cell);
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

// ---- sweep aggregation and CSV -------------------------------------------------

/// Cross-seed statistics of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricStats {
    pub name: &'static str,
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub stddev: f64,
}

/// One axis point of a sweep (every knob except the seed), aggregated across
/// the seeds that ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisAggregate {
    /// The point's label with its ` seed=N` component removed.
    pub label: String,
    /// Seeds aggregated, in grid order.
    pub seeds: Vec<u64>,
    /// Per-metric statistics, one per `METRICS` entry, in table order.
    pub metrics: Vec<MetricStats>,
}

impl AxisAggregate {
    /// The statistics of the named metric (panics on an unknown name).
    pub fn get(&self, name: &str) -> &MetricStats {
        self.metrics
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name:?}"))
    }

    /// The `sweep --json` form: label, seeds, and a `{name}_mean` /
    /// `{name}_stddev` pair per metric.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push("label", self.label.as_str().into()).push(
            "seeds",
            Json::Arr(self.seeds.iter().map(|&s| Json::UInt(s)).collect()),
        );
        for s in &self.metrics {
            obj.push(&format!("{}_mean", s.name), s.mean.into())
                .push(&format!("{}_stddev", s.name), s.stddev.into());
        }
        obj
    }
}

fn strip_seed(label: &str) -> String {
    label
        .split_whitespace()
        .filter(|part| !part.starts_with("seed="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Mean and sample standard deviation (0 for a single sample).
fn mean_stddev(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().fold(0.0, |m, v| m + v / n);
    let stddev = if samples.len() > 1 {
        samples
            .iter()
            .fold(0.0, |sd, v| sd + (v - mean) * (v - mean) / (n - 1.0))
            .sqrt()
    } else {
        0.0
    };
    (mean, stddev)
}

/// Group a sweep's results by axis point and compute per-metric mean and
/// sample standard deviation across seeds. An axis point is a label with its
/// seed removed: sweep labels name every axis that varies, so points that
/// differ in anything but the seed never share a group. `points` and
/// `results` must be the sweep's grid and its results in the same (input)
/// order — which is what [`crate::runner::Runner::run`] guarantees.
pub fn aggregate_sweep(points: &[RunPoint], results: &[PointResult]) -> Vec<AxisAggregate> {
    assert_eq!(points.len(), results.len(), "one result per grid point");
    // Per group: label, seeds, and one sample column per metric.
    let mut groups: Vec<(String, Vec<u64>, Vec<Vec<f64>>)> = Vec::new();
    for (point, result) in points.iter().zip(results) {
        let label = strip_seed(&point.label);
        let index = match groups.iter().position(|g| g.0 == label) {
            Some(index) => index,
            None => {
                groups.push((label, Vec::new(), vec![Vec::new(); METRICS.len()]));
                groups.len() - 1
            }
        };
        let (_, seeds, columns) = &mut groups[index];
        seeds.push(point.cfg.seed);
        let row = MetricRow::point(result);
        for (column, metric) in columns.iter_mut().zip(METRICS) {
            column.push((metric.value)(&row).or_zero());
        }
    }
    groups
        .into_iter()
        .map(|(label, seeds, columns)| AxisAggregate {
            label,
            seeds,
            metrics: METRICS
                .iter()
                .zip(&columns)
                .map(|(metric, samples)| {
                    let (mean, stddev) = mean_stddev(samples);
                    MetricStats {
                        name: metric.name,
                        mean,
                        stddev,
                    }
                })
                .collect(),
        })
        .collect()
}

/// Render one CSV field, quoting only when the content requires it.
pub(crate) fn csv_field(out: &mut String, field: &str) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

pub(crate) fn csv_row(out: &mut String, fields: &[String]) {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        csv_field(out, field);
    }
    out.push('\n');
}

/// The [`sweep_csv`] columns that describe a row's point rather than its
/// config: the header is these, then the [`Sweep::AXES`] config columns, then
/// the [`METRICS`] columns.
const POINT_COLUMNS: [&str; 6] = [
    "scenario",
    "stat",
    "label",
    "controller",
    "pipeline",
    "trace",
];

/// True when a sweep's points span more than one seed: only then does it
/// report cross-seed aggregates.
pub(crate) fn multi_seed(points: &[RunPoint]) -> bool {
    points.iter().any(|p| p.cfg.seed != points[0].cfg.seed)
}

/// Render a sweep as one flat CSV: a `stat=point` row per grid point (with its
/// seed), then — when the sweep spans several seeds — `stat=mean` and
/// `stat=stddev` rows per axis point with the seed column empty. Uniform
/// columns throughout, so a plotting script filters on `stat` and is done.
pub fn sweep_csv(scenario: &str, points: &[RunPoint], results: &[PointResult]) -> String {
    assert_eq!(points.len(), results.len(), "one result per grid point");
    let mut out = String::new();
    let header: Vec<String> = POINT_COLUMNS
        .iter()
        .chain(&Sweep::AXES)
        .chain(METRICS.iter().map(|m| &m.name))
        .map(|name| name.to_string())
        .collect();
    csv_row(&mut out, &header);

    // The cells up to the axis columns; each axis cell is the config value
    // every point of `group` shares, blank where they differ.
    let lead = |stat: &str, label: &str, group: &[&RunPoint]| -> Vec<String> {
        let point = group[0];
        let mut row = vec![
            scenario.to_string(),
            stat.to_string(),
            label.to_string(),
            point.controller.name().to_string(),
            point.pipeline.name().to_string(),
            point.trace.name().to_string(),
        ];
        row.extend(Sweep::AXES.iter().map(|key| {
            let value = |p: &RunPoint| p.cfg.get(key).expect("every axis is a config key");
            let first = value(point).to_string();
            if group.iter().all(|p| value(p).to_string() == first) {
                first
            } else {
                String::new()
            }
        }));
        row
    };
    let metric_fields = |row: &MetricRow| -> Vec<String> {
        METRICS
            .iter()
            .map(|m| format!("{}", (m.value)(row).or_zero()))
            .collect()
    };

    for (point, result) in points.iter().zip(results) {
        let mut row = lead("point", &point.label, &[point]);
        row.extend(metric_fields(&MetricRow::point(result)));
        csv_row(&mut out, &row);
        // Multi-pipeline points additionally emit one `stat=pipeline` row per
        // pipeline on the cluster, same columns.
        for lane in &result.per_pipeline {
            let label = format!("{}/{}", point.label, lane.name);
            let mut row = lead("pipeline", &label, &[point]);
            row.extend(metric_fields(&MetricRow::lane(lane)));
            csv_row(&mut out, &row);
        }
    }

    if multi_seed(points) {
        for agg in aggregate_sweep(points, results) {
            let group: Vec<&RunPoint> = points
                .iter()
                .filter(|p| strip_seed(&p.label) == agg.label)
                .collect();
            for stat in ["mean", "stddev"] {
                let mut row = lead(stat, &agg.label, &group);
                row.extend(agg.metrics.iter().map(|s| {
                    let v = if stat == "mean" { s.mean } else { s.stddev };
                    format!("{v}")
                }));
                csv_row(&mut out, &row);
            }
        }
    }
    out
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let mut obj = Json::object();
        obj.push("name", "traffic".into())
            .push("count", 3u64.into())
            .push("ratio", 0.25.into())
            .push("flags", Json::Arr(vec![Json::Bool(true), Json::Null]));
        let text = obj.render();
        assert!(text.contains("\"name\": \"traffic\""));
        assert!(text.contains("\"count\": 3"));
        assert!(text.contains("\"ratio\": 0.25"));
        assert!(text.contains("true"));
        assert!(text.ends_with("}\n"));
        assert_eq!(obj.get("count"), Some(&Json::UInt(3)));
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite() {
        let s = Json::Str("a\"b\\c\nd\u{1}".to_string());
        let mut out = String::new();
        s.write(&mut out, 0);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn numbers_round_trip_shortest_form() {
        assert_eq!(Json::Num(17802298.119249).render(), "17802298.119249\n");
        assert_eq!(Json::Num(1.0).render(), "1.0\n");
        assert_eq!(Json::UInt(u64::MAX).render(), format!("{}\n", u64::MAX));
    }

    #[test]
    fn empty_collections_render_compactly() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::object().render(), "{}\n");
    }

    #[test]
    fn csv_fields_escape_only_when_needed() {
        let mut out = String::new();
        csv_row(
            &mut out,
            &[
                "plain".to_string(),
                "with,comma".to_string(),
                "with\"quote".to_string(),
            ],
        );
        assert_eq!(out, "plain,\"with,comma\",\"with\"\"quote\"\n");
    }

    /// Execute a tiny-pipeline sweep over seeds 41 and 42 plus `axes`.
    fn tiny_sweep_with(axes: &[(&str, &str)]) -> (Vec<RunPoint>, Vec<PointResult>) {
        use crate::scenario::PipelineSpec;
        use crate::ExperimentConfig;
        let cfg = ExperimentConfig {
            duration_s: 10,
            peak_qps: 60.0,
            base_qps: 60.0,
            drain_s: 5.0,
            ..ExperimentConfig::default()
        };
        let sc = crate::scenario::find("traffic_hetnet").expect("registered");
        let mut sweep = Sweep::for_scenario(sc, cfg);
        sweep.base.pipeline = PipelineSpec::Tiny;
        sweep.set_axis("seed", "41,42").unwrap();
        for (axis, values) in axes {
            sweep.set_axis(axis, values).unwrap();
        }
        let points = sweep.points();
        let results: Vec<PointResult> = points
            .iter()
            .map(|p| p.execute().expect("the point runs"))
            .collect();
        (points, results)
    }

    fn tiny_sweep() -> (Vec<RunPoint>, Vec<PointResult>) {
        tiny_sweep_with(&[])
    }

    #[test]
    fn cross_seed_aggregation_means_and_deviations() {
        let (points, results) = tiny_sweep();
        let aggs = aggregate_sweep(&points, &results);
        assert_eq!(aggs.len(), 1, "one axis point across two seeds");
        let agg = &aggs[0];
        assert_eq!(agg.label, "loki-greedy");
        assert_eq!(agg.seeds, vec![41, 42]);
        // Mean of on_time is the arithmetic mean of the two runs.
        let on_time: Vec<f64> = results
            .iter()
            .map(|r| r.result.summary.total_on_time as f64)
            .collect();
        let mean = (on_time[0] + on_time[1]) / 2.0;
        assert!((agg.get("on_time").mean - mean).abs() < 1e-9);
        // Sample stddev of two points: |a - b| / sqrt(2).
        let sd = (on_time[0] - on_time[1]).abs() / 2f64.sqrt();
        assert!((agg.get("on_time").stddev - sd).abs() < 1e-9);
    }

    #[test]
    fn aggregates_keep_every_non_seed_axis_apart() {
        let (points, results) = tiny_sweep_with(&[("route", "accuracy,link-aware")]);
        let aggs = aggregate_sweep(&points, &results);
        assert_eq!(aggs.len(), 2, "one aggregate per route value");
        for agg in &aggs {
            assert_eq!(agg.seeds, vec![41, 42], "{}", agg.label);
            assert!(agg.label.contains("route="), "{}", agg.label);
        }
        let csv = sweep_csv("unit", &points, &results);
        assert_eq!(csv.lines().filter(|l| l.contains(",mean,")).count(), 2);
        // The route has its own column, not only a label component.
        for mode in ["accuracy", "link-aware"] {
            let rows = csv
                .lines()
                .filter(|l| l.contains(&format!(",uniform,{mode},")));
            assert_eq!(rows.count(), 4, "2 points + mean + stddev for {mode}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
        let mut columns = POINT_COLUMNS.iter().chain(&crate::ExperimentConfig::KEYS);
        assert!(columns.all(|c| !names.contains(c)));
    }

    #[test]
    fn sweep_csv_header_is_axes_then_metric_table() {
        let (points, results) = tiny_sweep();
        let csv = sweep_csv("unit", &points, &results);
        let header = csv.lines().next().unwrap();
        let expected: Vec<&str> = POINT_COLUMNS
            .iter()
            .chain(&Sweep::AXES)
            .copied()
            .chain(METRICS.iter().map(|m| m.name))
            .collect();
        assert_eq!(header, expected.join(","));
        // Published column names: a rename must fail here, loudly.
        assert_eq!(
            header,
            "scenario,stat,label,controller,pipeline,trace,slo,peak,cluster,\
             links,route,elastic,spot,revoke,stockout,provisioner,seed,arrivals,on_time,late,\
             dropped,dropped_deadline,dropped_reclaimed,dropped_revoked,rerouted,\
             slo_violation_ratio,system_accuracy,mean_utilization,p50_ms,p90_ms,p99_ms,p999_ms,\
             events_processed,min_active_workers,max_active_workers,peak_goodput,gpu_hours,\
             cost_usd,cost_per_1k,peak_fleet,revocations,stockouts,spot_usd,ondemand_usd,\
             rebalances,migrations,routing_cache_consults,routing_cache_hits,routing_warnings,\
             budget_consumed,worst_burn_rate,burn_episodes"
        );
    }

    #[test]
    fn sweep_json_aggregates_carry_every_metric() {
        let (points, results) = tiny_sweep();
        let json = aggregate_sweep(&points, &results)[0].to_json();
        for m in METRICS {
            let mean = json.get(&format!("{}_mean", m.name));
            let stddev = json.get(&format!("{}_stddev", m.name));
            assert!(matches!(mean, Some(Json::Num(_))), "{}", m.name);
            assert!(matches!(stddev, Some(Json::Num(_))), "{}", m.name);
        }
        let Json::Obj(entries) = &json else {
            unreachable!("to_json builds an object")
        };
        assert_eq!(entries.len(), 2 + 2 * METRICS.len(), "label, seeds, pairs");
    }

    #[test]
    fn sweep_csv_has_point_and_aggregate_rows() {
        let (points, results) = tiny_sweep();
        let csv = sweep_csv("unit", &points, &results);
        let lines: Vec<&str> = csv.lines().collect();
        // header + 2 points + mean + stddev
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("scenario,stat,label,controller,"));
        let columns = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        }
        assert!(lines[1].contains(",point,") && lines[1].contains(",41,"));
        assert!(lines[2].contains(",point,") && lines[2].contains(",42,"));
        assert!(lines[3].contains(",mean,loki-greedy,"));
        assert!(lines[4].contains(",stddev,loki-greedy,"));
    }

    #[test]
    fn single_seed_sweep_csv_skips_aggregates() {
        let (points, results) = tiny_sweep();
        let csv = sweep_csv("unit", &points[..1], &results[..1]);
        assert_eq!(csv.lines().count(), 2, "header + one point, no aggregates");
    }
}
