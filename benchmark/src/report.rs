//! The metric table, the pass/fail accounting of reps, and the printed and
//! JSON forms of the results. Every metric the benchmark reports is named
//! here once, with its unit and direction; printing, JSON and the gate list
//! all read this table.

use crate::child::{RepResult, Role};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric's reps reduce to the one value reported for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// The most favourable rep. Every rep of a workload does identical work,
    /// so what differs between reps is interference from the rest of the
    /// host, which slows some reps by up to ~1.7× for seconds at a time; the
    /// best rep is the steadiest estimate of the program's own cost.
    Best,
    Median,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub reduce: Reduce,
    /// Listed under `end_to_end` in `BENCHMARK.json`, so a run with
    /// `--trace 0` reports it and a regression beyond its bound rejects a
    /// change. Not gated: the simulated latency percentiles (HDR buckets
    /// about 3% wide, so they read the same on most seeds and move in whole
    /// buckets), the drop rate (it varies by ±15% from seed to seed), and
    /// the cost (it exists on `spot_timeline` only).
    pub gated: bool,
}

impl MetricDef {
    /// The reported value over a run's reps.
    pub fn value(&self, s: &Summary) -> f64 {
        match (self.reduce, self.better) {
            (Reduce::Median, _) => s.median,
            (Reduce::Best, Better::Lower) => s.min(),
            (Reduce::Best, Better::Higher) => s.max(),
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    reduce: Reduce,
    gated: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        reduce,
        gated,
    }
}

/// A per-layer metric: one value per traced run, never gated.
const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, Reduce::Median, false)
}

use Better::{Higher, Lower};
use Reduce::{Best, Median};

/// What a user of the simulator sees: the host cost of a run, and the
/// simulated system's service. `sim_*` values are identical in every rep of
/// a workload at one seed. Set-up time is the median of the run's set-ups,
/// so that work moved out of the run into set-up shows even when it only
/// lengthens some of them.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, Median, true),
    e2e("run_s", "s", Lower, Best, true),
    e2e("arrivals_per_s", "1/s", Higher, Best, true),
    e2e("peak_rss_mb", "MiB", Lower, Median, true),
    e2e("sim_slo_attainment", "ratio", Higher, Median, true),
    e2e("sim_accuracy", "ratio", Higher, Median, true),
    e2e("sim_p50_ms", "ms", Lower, Median, false),
    e2e("sim_p999_ms", "ms", Lower, Median, false),
    e2e("sim_drop_rate", "ratio", Lower, Median, false),
    e2e("sim_cost_per_1k_usd", "USD", Lower, Median, false),
];

/// One layer each (see the layer table in `README.md`), from the traced rep,
/// the observation on/off pairs and the microbenchmarks.
pub const PER_LAYER: [MetricDef; 47] = [
    m("workload.trace_s", "s", Lower),
    m("workload.arrivals_s", "s", Lower),
    m("engine.new_s", "s", Lower),
    m("engine.events", "count", Lower),
    m("engine.events_per_arrival", "ratio", Lower),
    m("engine.self_s", "s", Lower),
    m("engine.ns_per_event", "ns", Lower),
    m("par.epochs", "count", Lower),
    m("engine.cpu_per_wall", "ratio", Higher),
    m("engine.lane_critical_share", "ratio", Lower),
    m("engine.barrier_wait_share", "ratio", Lower),
    m("controller.plan_calls", "count", Lower),
    m("controller.plan_s", "s", Lower),
    m("controller.plan_p99_ms", "ms", Lower),
    m("controller.plan_installs", "count", Lower),
    m("controller.routing_calls", "count", Lower),
    m("controller.routing_s", "s", Lower),
    m("controller.routing_p99_ms", "ms", Lower),
    m("controller.routing_installs", "count", Lower),
    m("controller.routing_cache_hit_ratio", "ratio", Higher),
    m("arbiter.calls", "count", Lower),
    m("arbiter.s", "s", Lower),
    m("arbiter.rebalances", "count", Lower),
    m("arbiter.migrations", "count", Lower),
    m("sim.dropped_reclaimed", "count", Lower),
    m("provisioner.calls", "count", Lower),
    m("provisioner.s", "s", Lower),
    m("provisioner.actions", "count", Lower),
    m("market.revocations", "count", Lower),
    m("market.stockouts", "count", Lower),
    m("elastic.provisioned", "count", Lower),
    m("elastic.retired", "count", Lower),
    m("sim.dropped_revoked", "count", Lower),
    m("observe.hist_overhead_pct", "%", Lower),
    m("trace.hist_record_ns", "ns", Lower),
    m("observe.timeline_overhead_pct", "%", Lower),
    m("journal.events", "count", Lower),
    m("calendar.push_pop_ns.uniform", "ns", Lower),
    m("calendar.push_pop_ns.two_tier", "ns", Lower),
    m("routing.alias_sample_ns", "ns", Lower),
    m("routing.plan_emit_us", "us", Lower),
    m("slab.insert_remove_ns", "ns", Lower),
    m("milp.solve_s", "s", Lower),
    m("milp.nodes", "count", Lower),
    m("milp.simplex_iters", "count", Lower),
    m("milp.us_per_simplex_iter", "us", Lower),
    m("bench.trace_overhead_pct", "%", Lower),
];

/// Make every rep of one workload agree with the first good rep of the same
/// histogram setting: same seed, same simulation, whatever the thread count,
/// tracing or timeline recorder. (Turning histograms off zeroes the summary's
/// percentiles, so those reps are compared among themselves.) Reps that
/// disagree are marked failed.
pub fn gate(reps: &mut [RepResult]) {
    for histograms in [true, false] {
        let reference = reps
            .iter()
            .find(|r| r.config.histograms == histograms && r.ok())
            .and_then(|r| r.fingerprint.clone());
        let Some(reference) = reference else { continue };
        for rep in reps.iter_mut() {
            if rep.config.histograms != histograms || !rep.ok() {
                continue;
            }
            let fingerprint = rep.fingerprint.clone().unwrap_or_default();
            if fingerprint != reference {
                rep.problems.push(format!(
                    "simulation differs from the first rep ({fingerprint} vs {reference})"
                ));
            }
        }
    }
}

/// Operations counted for pass/fail: one per simulated root arrival.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    pub ops: u64,
    /// Arrivals of reps that errored, crashed or failed a check.
    pub failed_rep_ops: u64,
    /// Queries the simulated system dropped, in good reps.
    pub dropped: u64,
    pub failed_reps: usize,
}

impl Accounting {
    pub fn of(reps: &[RepResult]) -> Accounting {
        let mut a = Accounting::default();
        for rep in reps {
            a.ops += rep.arrivals;
            if rep.ok() {
                a.dropped += rep.get("sim.dropped").unwrap_or(0.0) as u64;
            } else {
                a.failed_rep_ops += rep.arrivals;
                a.failed_reps += 1;
            }
        }
        a
    }

    /// Failed operations: dropped queries plus every arrival of a bad rep.
    pub fn ops_failed(&self) -> u64 {
        self.dropped + self.failed_rep_ops
    }
}

/// The end-to-end metrics of a workload, over its timed reps.
pub fn end_to_end(reps: &[RepResult]) -> BTreeMap<&'static str, Summary> {
    let timed: Vec<&RepResult> = reps
        .iter()
        .filter(|r| r.role == Role::Timed && r.ok())
        .collect();
    END_TO_END
        .iter()
        .filter_map(|def| {
            let values: Vec<f64> = timed.iter().filter_map(|r| r.get(def.name)).collect();
            (!values.is_empty()).then(|| (def.name, Summary::of(values)))
        })
        .collect()
}

/// Look a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// The end-to-end table of one workload.
pub fn print_end_to_end(
    workload: &str,
    metrics: &BTreeMap<&'static str, Summary>,
    accounting: &Accounting,
) {
    println!(
        "\n{workload}: end to end (value = best rep for host times, median otherwise; \
         ops = simulated root arrivals)"
    );
    println!(
        "  {:<20} {:<5} {:<6} {:>14} {:>14} {:>14} {:>14} {:>4} {:>9} {:>10}",
        "metric", "unit", "better", "value", "median", "q1", "q3", "reps", "ops", "ops_failed"
    );
    for def in END_TO_END.iter() {
        let Some(s) = metrics.get(def.name) else {
            continue;
        };
        println!(
            "  {:<20} {:<5} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>9} {:>10}",
            def.name,
            def.unit,
            def.better.label(),
            def.value(s),
            s.median,
            s.q1,
            s.q3,
            s.values.len(),
            accounting.ops,
            accounting.ops_failed()
        );
    }
}

/// A per-layer table.
pub fn print_per_layer(title: &str, values: &BTreeMap<&'static str, f64>) {
    println!("\n{title}");
    for def in PER_LAYER.iter() {
        if let Some(v) = values.get(def.name) {
            println!(
                "  {:<36} {:<6} {:<7} {:>16.6}",
                def.name,
                def.unit,
                def.better.label(),
                v
            );
        }
    }
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"k": v, ...}` from already-encoded values.
pub fn json_object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A metric's summary as JSON: unit, reported value, median, quartiles and
/// every rep's value.
pub fn summary_json(def: &MetricDef, s: &Summary) -> String {
    let values: Vec<String> = s.values.iter().map(|v| json_num(*v)).collect();
    json_object([
        ("unit", json_str(def.unit)),
        ("value", json_num(def.value(s))),
        ("median", json_num(s.median)),
        ("q1", json_num(s.q1)),
        ("q3", json_num(s.q3)),
        ("reps", s.values.len().to_string()),
        ("values", format!("[{}]", values.join(", "))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{RepConfig, Workload};

    fn rep(role: Role, arrivals: u64, fingerprint: &str, dropped: f64) -> RepResult {
        let text = format!("arrivals {arrivals}\nfingerprint {fingerprint}\nsim.dropped {dropped}\nrun_s 2\ndone\n");
        RepResult::parse(RepConfig::new(Workload::SteadyUniform, 1), role, &text)
    }

    #[test]
    fn failed_reps_count_every_arrival_as_failed() {
        let mut reps = vec![
            rep(Role::Warmup, 100, "aa", 3.0),
            rep(Role::Timed, 100, "aa", 3.0),
            rep(Role::Timed, 100, "bb", 3.0),
            RepResult::parse(
                RepConfig::new(Workload::SteadyUniform, 1),
                Role::Timed,
                "arrivals 100\n",
            ),
        ];
        gate(&mut reps);
        assert!(reps[1].ok());
        assert!(!reps[2].ok(), "a rep that simulated something else fails");
        assert!(!reps[3].ok(), "a crashed rep fails");
        let a = Accounting::of(&reps);
        assert_eq!(a.ops, 400);
        assert_eq!(a.failed_reps, 2);
        assert_eq!(a.failed_rep_ops, 200);
        assert_eq!(a.dropped, 6);
        assert_eq!(a.ops_failed(), 206);
        // Only good timed reps enter the medians.
        assert_eq!(end_to_end(&reps)["run_s"].values, vec![2.0]);
    }

    #[test]
    fn histogram_off_reps_are_compared_among_themselves() {
        let mut off = rep(Role::Overhead, 100, "cc", 0.0);
        off.config.histograms = false;
        let mut reps = vec![rep(Role::Timed, 100, "aa", 0.0), off.clone(), off];
        gate(&mut reps);
        assert!(reps.iter().all(RepResult::ok));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn json_helpers_escape_and_null_non_finite() {
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_object([("k", json_num(2.0))]), "{\"k\": 2}");
    }
}
