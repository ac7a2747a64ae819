//! Windowed time-series export (`loki run <scenario> --timeline PATH`).
//!
//! Renders one executed [`PointResult`] as a machine-readable timeline:
//! per-interval rows for the cluster and for every lane — counters from
//! [`IntervalMetrics`] plus *exact* windowed latency percentiles from the
//! per-interval histogram deltas — with the cluster event journal interleaved
//! at its simulated timestamps, and the SLO burn analysis attached.
//!
//! Everything here is derived from simulated time only: no wall-clock fields,
//! no `jobs` field, no host identifiers. Two exports of the same point are
//! byte-identical regardless of lane parallelism — CI diffs the files
//! produced under `jobs=1` and `jobs=2` with `cmp`.
//!
//! Fleet context per row (`fleet_warm`, `billed_usd`, `spot_mult`) is the
//! step-function value of the most recent [`JournalKind::CostSample`] /
//! [`JournalKind::PriceStep`] event in effect at the interval's end; rows
//! before the first sample fall back to the interval's own `active_workers`,
//! `0.0`, and `1.0`.

use crate::report::{csv_row, Json, Value};
use crate::scenario::PointResult;
use loki_sim::{
    BurnReport, Histogram, IntervalMetrics, Journal, JournalEvent, JournalKind, CLUSTER_LANE,
};

/// The label the cluster-level rows carry in the `lane` column.
pub const CLUSTER_LABEL: &str = "cluster";

/// A right-continuous step function sampled from journal events: `at(t)` is
/// the value of the latest sample with `time <= t`.
struct StepSeries {
    points: Vec<(f64, f64)>,
}

impl StepSeries {
    fn from_journal(
        journal: Option<&Journal>,
        mut pick: impl FnMut(&JournalKind) -> Option<f64>,
    ) -> Self {
        let mut points = Vec::new();
        if let Some(journal) = journal {
            for event in &journal.events {
                if let Some(v) = pick(&event.kind) {
                    points.push((event.time_s(), v));
                }
            }
        }
        Self { points }
    }

    fn at(&self, t: f64) -> Option<f64> {
        self.points
            .iter()
            .take_while(|(time, _)| *time <= t)
            .last()
            .map(|(_, v)| *v)
    }
}

/// The fleet/market context attached to every interval row.
struct FleetContext {
    warm: StepSeries,
    dollars: StepSeries,
    multiplier: StepSeries,
}

impl FleetContext {
    fn new(journal: Option<&Journal>) -> Self {
        Self {
            warm: StepSeries::from_journal(journal, |k| match k {
                JournalKind::CostSample { warm, .. } => Some(f64::from(*warm)),
                _ => None,
            }),
            dollars: StepSeries::from_journal(journal, |k| match k {
                JournalKind::CostSample { dollars, .. } => Some(*dollars),
                _ => None,
            }),
            multiplier: StepSeries::from_journal(journal, |k| match k {
                JournalKind::PriceStep { multiplier } => Some(*multiplier),
                _ => None,
            }),
        }
    }
}

/// One lane's (or the cluster's) interval series plus its windowed histogram
/// deltas, ready to emit.
struct Series<'a> {
    lane: &'a str,
    intervals: &'a [IntervalMetrics],
    window: Option<&'a [Histogram]>,
}

fn point_series(point: &PointResult) -> Vec<Series<'_>> {
    let mut series = vec![Series {
        lane: CLUSTER_LABEL,
        intervals: &point.result.intervals,
        window: point.result.window.as_deref(),
    }];
    for lane in &point.per_pipeline {
        series.push(Series {
            lane: &lane.name,
            intervals: &lane.intervals,
            window: lane.window.as_deref(),
        });
    }
    series
}

/// The uniform reporting-interval length, recovered from the series itself so
/// the export never needs host-side configuration.
fn interval_length_s(intervals: &[IntervalMetrics]) -> f64 {
    match intervals {
        [a, b, ..] => b.start_s - a.start_s,
        _ => 1.0,
    }
}

/// Windowed percentiles of one interval's histogram delta, `None` when the
/// delta is absent or recorded nothing.
fn window_percentiles(window: Option<&[Histogram]>, index: usize) -> Option<[f64; 4]> {
    let hist = window?.get(index)?;
    if hist.is_empty() {
        None
    } else {
        Some(hist.percentiles_ms())
    }
}

/// Everything an interval column reads: the interval's counters, its
/// windowed percentiles, and the fleet context in effect at its end.
struct IntervalRow<'a> {
    m: &'a IntervalMetrics,
    pcts: Option<[f64; 4]>,
    fleet: &'a FleetContext,
    end_s: f64,
}

impl IntervalRow<'_> {
    fn pct(&self, i: usize) -> Value {
        self.pcts.map_or(Value::Absent, |p| Value::Real(p[i]))
    }
}

/// A named interval column and how to read it from an [`IntervalRow`].
type Column = (&'static str, fn(&IntervalRow) -> Value);

/// The per-interval columns, after the leading time and lane columns. Both
/// the CSV header and the keys of every JSON interval row come from this list.
const INTERVAL_COLUMNS: &[Column] = &[
    ("arrivals", |r| Value::Count(r.m.arrivals)),
    ("on_time", |r| Value::Count(r.m.completed_on_time)),
    ("late", |r| Value::Count(r.m.completed_late)),
    ("dropped", |r| Value::Count(r.m.dropped)),
    ("dropped_deadline", |r| Value::Count(r.m.dropped_deadline)),
    ("dropped_reclaimed", |r| Value::Count(r.m.dropped_reclaimed)),
    ("dropped_revoked", |r| Value::Count(r.m.dropped_revoked)),
    ("accuracy", |r| Value::Real(r.m.mean_accuracy())),
    ("active_workers", |r| {
        Value::Count(r.m.active_workers as u64)
    }),
    ("rerouted", |r| Value::Count(r.m.rerouted)),
    ("p50_ms", |r| r.pct(0)),
    ("p90_ms", |r| r.pct(1)),
    ("p99_ms", |r| r.pct(2)),
    ("p999_ms", |r| r.pct(3)),
    ("fleet_warm", |r| {
        let warm = r.fleet.warm.at(r.end_s);
        Value::Real(warm.unwrap_or(r.m.active_workers as f64))
    }),
    ("billed_usd", |r| {
        Value::Real(r.fleet.dollars.at(r.end_s).unwrap_or(0.0))
    }),
    ("spot_mult", |r| {
        Value::Real(r.fleet.multiplier.at(r.end_s).unwrap_or(1.0))
    }),
];

/// The timeline CSV header: time, lane, then [`INTERVAL_COLUMNS`].
fn timeline_header() -> Vec<String> {
    ["time_s", "lane"]
        .into_iter()
        .chain(INTERVAL_COLUMNS.iter().map(|(name, _)| *name))
        .map(String::from)
        .collect()
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        String::new()
    }
}

/// Render the timeline as CSV: a header row, then one row per interval per
/// lane, ordered by interval start time with the cluster row first.
pub fn timeline_csv(point: &PointResult) -> String {
    let series = point_series(point);
    let fleet = FleetContext::new(point.result.journal.as_ref());
    let interval_s = interval_length_s(&point.result.intervals);
    let mut out = String::new();
    csv_row(&mut out, &timeline_header());
    let rows = point.result.intervals.len();
    for index in 0..rows {
        for s in &series {
            let Some(m) = s.intervals.get(index) else {
                continue;
            };
            let row = IntervalRow {
                m,
                pcts: window_percentiles(s.window, index),
                fleet: &fleet,
                end_s: m.start_s + interval_s,
            };
            let mut fields = vec![fmt_f64(m.start_s), s.lane.to_string()];
            fields.extend(INTERVAL_COLUMNS.iter().map(|(_, value)| match value(&row) {
                Value::Count(n) => n.to_string(),
                Value::Real(v) => fmt_f64(v),
                Value::Absent => String::new(),
            }));
            csv_row(&mut out, &fields);
        }
    }
    out
}

/// One journal event as a JSON object: timestamp, owning lane, deterministic
/// sequence number, the kind's stable name, and its kind-specific fields.
fn event_json(event: &JournalEvent, lane_names: &[&str]) -> Json {
    let mut obj = Json::object();
    obj.push("type", "event".into())
        .push("t", event.time_s().into())
        .push("lane", lane_label(event.lane, lane_names))
        .push("seq", event.seq.into())
        .push("kind", event.kind.name().into());
    match &event.kind {
        JournalKind::Rebalance {
            epoch,
            moved,
            reason,
        } => {
            obj.push("epoch", (*epoch).into())
                .push("moved", (*moved).into());
            obj.push("reason", reason.map(Json::from).unwrap_or(Json::Null));
        }
        JournalKind::Migration {
            worker,
            from_lane,
            to_lane,
        } => {
            obj.push("worker", u64::from(*worker).into())
                .push("from_lane", lane_label(*from_lane, lane_names))
                .push("to_lane", lane_label(*to_lane, lane_names));
        }
        JournalKind::PlanInstall { epoch } => {
            obj.push("epoch", (*epoch).into());
        }
        JournalKind::AutoscaleDecision {
            provision,
            class,
            count,
            reason,
        } => {
            obj.push("provision", (*provision).into())
                .push("class", u64::from(*class).into())
                .push("count", u64::from(*count).into())
                .push("reason", reason.name().into());
        }
        JournalKind::Stockout { class, denied } => {
            obj.push("class", u64::from(*class).into())
                .push("denied", u64::from(*denied).into());
        }
        JournalKind::Boot { worker, class }
        | JournalKind::DrainStart { worker, class }
        | JournalKind::Retire { worker, class } => {
            obj.push("worker", u64::from(*worker).into())
                .push("class", u64::from(*class).into());
        }
        JournalKind::Revocation {
            worker,
            class,
            lane,
        } => {
            obj.push("worker", u64::from(*worker).into())
                .push("class", u64::from(*class).into())
                .push("owner", lane_label(*lane, lane_names));
        }
        JournalKind::RevokeGrace {
            worker,
            clean,
            lost,
        } => {
            obj.push("worker", u64::from(*worker).into())
                .push("clean", (*clean).into())
                .push("lost", (*lost).into());
        }
        JournalKind::PriceStep { multiplier } => {
            obj.push("multiplier", (*multiplier).into());
        }
        JournalKind::CostSample { warm, dollars } => {
            obj.push("warm", u64::from(*warm).into())
                .push("dollars", (*dollars).into());
        }
    }
    obj
}

fn lane_label(lane: u32, lane_names: &[&str]) -> Json {
    if lane == CLUSTER_LANE {
        Json::Str(CLUSTER_LABEL.to_string())
    } else {
        match lane_names.get(lane as usize) {
            Some(name) => Json::Str((*name).to_string()),
            None => Json::UInt(u64::from(lane)),
        }
    }
}

fn interval_json(lane: &str, row: &IntervalRow) -> Json {
    let mut obj = Json::object();
    obj.push("type", "interval".into())
        .push("t", row.m.start_s.into())
        .push("lane", lane.into());
    for (name, value) in INTERVAL_COLUMNS {
        obj.push(name, value(row).into());
    }
    obj
}

/// A [`BurnReport`] as JSON (used both for the cluster and per lane).
pub fn burn_json(report: &BurnReport) -> Json {
    let mut obj = Json::object();
    obj.push("slo_target", report.slo_target.into())
        .push("budget_queries", report.budget_queries.into())
        .push("budget_consumed", report.budget_consumed.into())
        .push("worst_burn_rate", report.worst_burn_rate.into())
        .push("episodes", episodes_json(report));
    obj
}

/// The burn episodes of a [`BurnReport`] as a JSON array.
pub fn episodes_json(report: &BurnReport) -> Json {
    let episodes = report
        .episodes
        .iter()
        .map(|e| {
            let mut ep = Json::object();
            ep.push("start_s", e.start_s.into())
                .push("end_s", e.end_s.into())
                .push("peak_burn_rate", e.peak_burn_rate.into())
                .push("bad_queries", e.bad_queries.into())
                .push("budget_consumed_pct", e.budget_consumed_pct.into())
                .push("cause", e.cause.name().into())
                .push("evidence", e.evidence.as_str().into());
            ep
        })
        .collect();
    Json::Arr(episodes)
}

/// Render the timeline as JSON: run identity (simulated quantities only), the
/// burn analysis, and a single `timeline` array interleaving interval rows
/// with journal events in simulated-time order.
pub fn timeline_json(scenario: &str, point: &PointResult) -> String {
    let series = point_series(point);
    let fleet = FleetContext::new(point.result.journal.as_ref());
    let interval_s = interval_length_s(&point.result.intervals);
    let lane_names: Vec<&str> = point.per_pipeline.iter().map(|p| p.name.as_str()).collect();

    let mut obj = Json::object();
    obj.push("scenario", scenario.into())
        .push("label", point.label.as_str().into())
        .push("interval_s", interval_s.into())
        .push(
            "lanes",
            Json::Arr(series.iter().map(|s| Json::from(s.lane)).collect()),
        );
    let journal = point.result.journal.as_ref();
    obj.push(
        "journal_events",
        journal.map_or(0u64, |j| j.len() as u64).into(),
    );
    if let Some(burn) = &point.burn {
        obj.push("burn", burn_json(burn));
    }
    let lane_burns: Vec<Json> = point
        .per_pipeline
        .iter()
        .filter_map(|p| {
            p.burn.as_ref().map(|b| {
                let mut entry = Json::object();
                entry.push("lane", p.name.as_str().into());
                entry.push("report", burn_json(b));
                entry
            })
        })
        .collect();
    if !lane_burns.is_empty() {
        obj.push("lane_burn", Json::Arr(lane_burns));
    }

    // Interleave: for each interval window emit the cluster row, the lane
    // rows, then every journal event inside the window. Events outside all
    // windows (before the first or after the last) bracket the array.
    let mut timeline = Vec::new();
    let events: &[JournalEvent] = journal.map_or(&[], |j| &j.events);
    let mut next_event = 0usize;
    let first_start = point.result.intervals.first().map_or(0.0, |m| m.start_s);
    while next_event < events.len() && events[next_event].time_s() < first_start {
        timeline.push(event_json(&events[next_event], &lane_names));
        next_event += 1;
    }
    for index in 0..point.result.intervals.len() {
        let end_s = point.result.intervals[index].start_s + interval_s;
        for s in &series {
            if let Some(m) = s.intervals.get(index) {
                let row = IntervalRow {
                    m,
                    pcts: window_percentiles(s.window, index),
                    fleet: &fleet,
                    end_s,
                };
                timeline.push(interval_json(s.lane, &row));
            }
        }
        while next_event < events.len() && events[next_event].time_s() < end_s {
            timeline.push(event_json(&events[next_event], &lane_names));
            next_event += 1;
        }
    }
    while next_event < events.len() {
        timeline.push(event_json(&events[next_event], &lane_names));
        next_event += 1;
    }
    obj.push("timeline", Json::Arr(timeline));
    obj.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_series_is_right_continuous() {
        let s = StepSeries {
            points: vec![(1.0, 10.0), (3.0, 30.0)],
        };
        assert_eq!(s.at(0.5), None);
        assert_eq!(s.at(1.0), Some(10.0));
        assert_eq!(s.at(2.9), Some(10.0));
        assert_eq!(s.at(3.0), Some(30.0));
        assert_eq!(s.at(100.0), Some(30.0));
    }

    #[test]
    fn csv_header_and_json_interval_keys_share_the_column_list() {
        let fleet = FleetContext::new(None);
        let m = IntervalMetrics::default();
        let row = IntervalRow {
            m: &m,
            pcts: None,
            fleet: &fleet,
            end_s: 1.0,
        };
        let Json::Obj(entries) = interval_json(CLUSTER_LABEL, &row) else {
            unreachable!("interval_json builds an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let header = timeline_header();
        assert_eq!(keys[..3], ["type", "t", "lane"]);
        assert_eq!(header[..2], ["time_s", "lane"]);
        assert_eq!(keys[3..], header[2..]);
        assert_eq!(
            header.join(","),
            "time_s,lane,arrivals,on_time,late,dropped,dropped_deadline,dropped_reclaimed,\
             dropped_revoked,accuracy,active_workers,rerouted,p50_ms,p90_ms,p99_ms,p999_ms,\
             fleet_warm,billed_usd,spot_mult"
        );
    }

    #[test]
    fn interval_length_recovers_from_series_and_defaults_to_one() {
        let mk = |start_s: f64| IntervalMetrics {
            start_s,
            ..IntervalMetrics::default()
        };
        assert_eq!(interval_length_s(&[mk(0.0), mk(0.5), mk(1.0)]), 0.5);
        assert_eq!(interval_length_s(&[mk(0.0)]), 1.0);
        assert_eq!(interval_length_s(&[]), 1.0);
    }
}
