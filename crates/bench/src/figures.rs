//! Scenario executors and the one renderer of simulator-driven reports.
//!
//! Every simulator-driven [`ScenarioKind`] is a piece of data: its labelled
//! point set (what `loki run` executes and `loki sweep` crosses with its
//! axes), the metric names its tables show, and its named headline values.
//! [`render`] turns executed points into the text and `--json` forms of both
//! commands, so every header cell and every JSON point key is a metric name
//! (`crate::report::METRICS`). The analytic kinds (phase diagram, trade-off
//! table, allocator probes) compute in place and keep their own layouts.

use crate::report::{
    aggregate_sweep, multi_seed, text_table, AxisAggregate, Json, MetricRow, Value,
};
use crate::runner::Runner;
use crate::scenario::{PipelineSpec, PointResult, RunPoint, Scenario, ScenarioKind};
use crate::sweep::{Sweep, Variant};
use crate::timeline::episodes_json;
use crate::{bucketize, ElasticMode, ExperimentConfig};
use loki_core::allocator::{AllocationContext, AllocationOutcome, Allocator};
use loki_core::greedy::GreedyAllocator;
use loki_core::milp_alloc::MilpAllocator;
use loki_core::perf::{FanoutOverrides, PerfModel};
use loki_core::{LokiConfig, LokiController, ScalingMode};
use loki_sim::{CostSummary, DropPolicy, EngineError, RunSummary};
use loki_workload::TraceSpec;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use Value::{Count, Real};

/// The rendered outcome of running one scenario.
pub struct ScenarioReport {
    /// Human-readable report.
    pub text: String,
    /// Machine-readable report (`--json`).
    pub json: Json,
}

/// Run a scenario: an analytic kind computes its report in place; a
/// simulator-driven kind executes its default sweep and renders it with its
/// headlines, or returns the [`EngineError`] a run stopped on.
pub fn run_scenario(
    sc: &Scenario,
    cfg: &ExperimentConfig,
    runner: &Runner,
) -> Result<ScenarioReport, EngineError> {
    match sc.kind {
        ScenarioKind::PhaseDiagram => return Ok(phase_diagram(sc, cfg)),
        ScenarioKind::TradeoffTable => return Ok(tradeoff_table(sc, cfg)),
        ScenarioKind::AllocatorAblation => return Ok(allocator_ablation(sc, cfg)),
        ScenarioKind::MultFactorAblation => return Ok(multfactor_ablation(sc, cfg)),
        ScenarioKind::MilpProbe => return Ok(milp_probe(sc, cfg)),
        _ => {}
    }
    let points = Sweep::for_scenario(sc, cfg.clone()).points();
    let results = runner.run(points.clone())?;
    let family = family(sc.kind);
    let mut headlines = Vec::new();
    if sc.kind == ScenarioKind::CapacityTable {
        // The analytic half: Figure 1's capacity gain.
        let gain = Phases::new(sc, cfg).capacity_gain();
        headlines.extend(gain.map(|g| ("capacity_gain".to_string(), g)));
    }
    for prefix in family.groups {
        let lookup = Lookup {
            results: &results,
            prefix,
        };
        for (name, value) in family.headlines {
            if let Some(value) = value(&lookup) {
                headlines.push((format!("{prefix}{name}"), value));
            }
        }
    }
    Ok(render(sc, cfg, &points, &results, &headlines))
}

/// JSON view of the experiment knobs a report was produced with: every
/// [`ExperimentConfig::KEYS`] entry by name, so the object replays as
/// `key=value` overrides.
pub fn config_json(cfg: &ExperimentConfig) -> Json {
    let mut obj = Json::object();
    for key in ExperimentConfig::KEYS {
        obj.push(key, cfg.get(key).expect("every key reads").into());
    }
    obj
}

fn report_header(sc: &Scenario, cfg: &ExperimentConfig) -> Json {
    let mut obj = Json::object();
    obj.push("scenario", sc.name.into())
        .push("title", sc.title.into())
        .push("kind", format!("{:?}", sc.kind).into())
        .push("pipeline", sc.pipeline.name().into())
        .push("trace", sc.trace.name().into())
        .push("config", config_json(cfg));
    obj
}

// ---- simulator-driven kinds as data -------------------------------------------

/// How a kind's point set is written down.
pub(crate) enum PointSet {
    /// The scenario's canonical point alone.
    Canonical,
    /// One point per value of a sweep axis (`controllers` or one of
    /// [`Sweep::AXES`], values comma-separated as on the command line); the
    /// points are labelled like any sweep point.
    Axis(&'static str, &'static str),
    /// Named points, each applying its own settings.
    Named(fn() -> Vec<Variant>),
}

/// A point value beyond the metric table that one kind reports: its name
/// and how to read it.
type Extra = (&'static str, fn(&RunPoint, &PointResult) -> Value);

/// A named headline value, read from points looked up by label.
type Headline = (&'static str, fn(&Lookup) -> Option<f64>);

/// A run's results by label, within one headline group's label prefix.
struct Lookup<'a> {
    results: &'a [PointResult],
    prefix: &'a str,
}

impl Lookup<'_> {
    fn get(&self, label: &str) -> Option<&PointResult> {
        let mut results = self.results.iter();
        results.find(|r| r.label.strip_prefix(self.prefix) == Some(label))
    }

    fn summary(&self, label: &str) -> Option<&RunSummary> {
        self.get(label).map(|r| &r.result.summary)
    }

    fn cost(&self, label: &str) -> Option<&CostSummary> {
        self.get(label)?.cost.as_ref()
    }
}

/// A simulator-driven scenario kind.
pub(crate) struct Family {
    /// The labelled points `loki run` executes and `loki sweep` crosses.
    pub(crate) points: PointSet,
    /// The metric names its tables show after the label, space-separated.
    columns: &'static str,
    /// Its per-point values beyond the metric table.
    extras: &'static [Extra],
    /// Its named headline values, evaluated once per group.
    headlines: &'static [Headline],
    /// Label prefixes the headlines are evaluated under; each headline key
    /// carries its group's prefix.
    groups: &'static [&'static str],
    /// What to read the report against (the paper's finding).
    note: &'static str,
}

/// The defaults a family overrides: the canonical point, no extras and no
/// headlines.
const ONE_POINT: Family = Family {
    points: PointSet::Canonical,
    columns: "",
    extras: &[],
    headlines: &[],
    groups: &[""],
    note: "",
};

/// The family of a scenario kind. An analytic kind's family is the
/// canonical simulated point its sweeps run.
pub(crate) fn family(kind: ScenarioKind) -> &'static Family {
    match kind {
        ScenarioKind::Comparison => &COMPARISON,
        ScenarioKind::SloSweep => &SLO_SWEEP,
        ScenarioKind::DropPolicyAblation => &DROP_POLICIES,
        ScenarioKind::CapacityTable => &CAPACITY,
        ScenarioKind::MultiPipeline(..) => &MULTI,
        ScenarioKind::Elastic => &ELASTIC,
        ScenarioKind::Spot => &SPOT,
        _ => &CANONICAL,
    }
}

/// The three-system panel of Figures 5/6.
const PANEL: &str = "loki-greedy,inferline,proteus";

const COMPARISON: Family = Family {
    points: PointSet::Axis("controllers", PANEL),
    columns: "arrivals on_time late dropped slo_violation_ratio system_accuracy \
              mean_utilization p50_ms p99_ms p999_ms",
    headlines: &[
        ("peak_goodput_gain_vs_inferline", |l| {
            let (loki, inferline) = (l.summary("loki-greedy")?, l.summary("inferline")?);
            Some(loki.peak_goodput as f64 / inferline.peak_goodput.max(1) as f64)
        }),
        ("violation_reduction_vs_proteus", |l| {
            let (loki, proteus) = (l.summary("loki-greedy")?, l.summary("proteus")?);
            let loki_viol = loki.slo_violation_ratio;
            Some(if loki_viol > 0.0 {
                proteus.slo_violation_ratio / loki_viol
            } else {
                f64::INFINITY
            })
        }),
        ("offpeak_server_saving_vs_proteus", |l| {
            let (loki, proteus) = (l.summary("loki-greedy")?, l.summary("proteus")?);
            Some(proteus.max_active_workers as f64 / loki.min_active_workers.max(1) as f64)
        }),
    ],
    note: "(Paper: Loki's peak goodput is ~2.5-2.7x the hardware-scaling-only \
           (InferLine-style) system's; against pipeline-agnostic accuracy scaling \
           (Proteus-style) it has ~10x fewer SLO violations, ~2.67x fewer off-peak servers and \
           up to ~20% less accuracy drop.)",
    ..ONE_POINT
};

const SLO_SWEEP: Family = Family {
    points: PointSet::Axis("slo", "200,250,300,350,400"),
    columns: "system_accuracy slo_violation_ratio",
    extras: &[("max_accuracy_drop_pct", max_accuracy_drop_pct)],
    note: "(The paper reports sharp improvements up to ~300 ms and diminishing returns beyond.)",
    ..ONE_POINT
};

/// Maximum accuracy drop of a run, in percent: the worst 30 s-bucket
/// accuracy vs the pipeline maximum at the point's SLO.
fn max_accuracy_drop_pct(point: &RunPoint, result: &PointResult) -> Value {
    let graph = point.pipeline.build(point.cfg.slo_ms);
    let buckets = bucketize(&result.result.intervals, 30);
    let min_acc = buckets
        .iter()
        .filter(|b| b.accuracy_count > 0)
        .map(|b| b.mean_accuracy())
        .fold(f64::INFINITY, f64::min);
    Real(if min_acc.is_finite() {
        100.0 * (graph.max_accuracy() - min_acc) / graph.max_accuracy()
    } else {
        100.0
    })
}

const DROP_POLICIES: Family = Family {
    points: PointSet::Named(|| {
        let policies = DropPolicy::all().into_iter();
        policies
            .map(|p| Variant {
                drop_policy: Some(p),
                ..Variant::new(p.label(), "")
            })
            .collect()
    }),
    columns: "slo_violation_ratio system_accuracy rerouted",
    note: "(The paper's Figure 7 shows opportunistic rerouting with the lowest violation ratio.)",
    ..ONE_POINT
};

const CAPACITY: Family = Family {
    // The Figure 5/6 panel on both pipelines, each on its own trace.
    points: PointSet::Named(|| {
        let workloads = [
            (PipelineSpec::Traffic, TraceSpec::AzureDiurnal),
            (PipelineSpec::Social, TraceSpec::TwitterBursty),
        ];
        let points = workloads.into_iter().flat_map(|(pipeline, trace)| {
            PANEL.split(',').map(move |c| Variant {
                workload: Some((pipeline, trace)),
                ..Variant::new(
                    &format!("{}/{c}", pipeline.name()),
                    &format!("controllers={c}"),
                )
            })
        });
        points.collect()
    }),
    groups: &["traffic/", "social/"],
    note: "(Paper: capacity gain from accuracy scaling >2.7x; the ratios read as in \
           fig5_traffic, per pipeline.)",
    ..COMPARISON
};

const CANONICAL: Family = Family {
    columns: "arrivals events_processed on_time late dropped dropped_deadline \
              dropped_reclaimed dropped_revoked system_accuracy p50_ms p90_ms p99_ms p999_ms",
    ..ONE_POINT
};

const MULTI: Family = Family {
    columns: "arrivals on_time late dropped slo_violation_ratio system_accuracy rebalances \
              migrations events_processed",
    note: "(Compare multi_traffic_social against multi_static_split / multi_oracle_split: under \
           the skewed mix the contended Resource Manager beats the 50/50 split on aggregate SLO \
           attainment.)",
    ..ONE_POINT
};

/// The elastic provisioning family: the scenario's workload under
/// static-peak, static-mean, and autoscaled fleets, side by side with dollar
/// costs. The headline is cost at comparable SLO attainment: the autoscaler
/// should approach static-peak's attainment at a fraction of its cost, while
/// static-mean shows why "just provision for the average" is not an answer.
const ELASTIC: Family = Family {
    points: PointSet::Named(|| {
        let modes = [
            ElasticMode::StaticPeak,
            ElasticMode::StaticMean,
            ElasticMode::Autoscale,
        ];
        let variant = |m: ElasticMode| Variant::new(m.name(), &format!("elastic={}", m.name()));
        modes.into_iter().map(variant).collect()
    }),
    columns: "gpu_hours cost_usd cost_per_1k peak_fleet slo_violation_ratio system_accuracy \
              dropped",
    headlines: &[
        ("autoscale_saving_pct", |l| {
            Some(saving_pct(l.cost("static-peak")?, l.cost("autoscale")?))
        }),
        ("attainment_delta_vs_peak", |l| {
            l.cost("static-peak").and(l.cost("autoscale"))?;
            Some(attainment(l, "static-peak")? - attainment(l, "autoscale")?)
        }),
    ],
    note: "(Static-mean is the cautionary baseline: cheapest fleet, but it melts at peak.)",
    ..ONE_POINT
};

/// The adversarial-cloud family: the scenario's workload on the same
/// autoscaled cluster under three fleets — all-on-demand with the reactive
/// autoscaler (the friendly-cloud baseline: no spot classes means no
/// revocations or stockouts to survive), spot-enabled with the reactive
/// autoscaler (cheap but naive about revocations), and spot-enabled with the
/// forecasting provisioner (pre-boots ahead of the ramp, hedges the spot mix
/// against observed revocations). The headline is adversity survival: under
/// nonzero revocations the forecasting provisioner should beat the reactive
/// autoscaler on SLO attainment at equal-or-lower dollars, and the spot fleet
/// should undercut all-on-demand cost at comparable attainment.
const SPOT: Family = Family {
    points: PointSet::Named(|| {
        vec![
            Variant::new(
                "ondemand-reactive",
                "elastic=autoscale spot=false provisioner=reactive revoke=0 stockout=0",
            ),
            Variant::new(
                "spot-reactive",
                "elastic=autoscale spot=true provisioner=reactive",
            ),
            Variant::new(
                "spot-forecast",
                "elastic=autoscale spot=true provisioner=forecast",
            ),
        ]
    }),
    columns: "cost_usd spot_usd ondemand_usd revocations stockouts peak_fleet \
              slo_violation_ratio cost_per_1k dropped budget_consumed burn_episodes",
    headlines: &[
        ("forecast_attainment_gain", |l| {
            spot_costs(l)?;
            Some(attainment(l, "spot-forecast")? - attainment(l, "spot-reactive")?)
        }),
        ("forecast_cost_delta_usd", |l| {
            let (_, reactive, forecast) = spot_costs(l)?;
            Some(forecast.total_dollars - reactive.total_dollars)
        }),
        ("spot_saving_pct_vs_ondemand", |l| {
            let (ondemand, _, forecast) = spot_costs(l)?;
            Some(saving_pct(ondemand, forecast))
        }),
        ("attainment_delta_vs_ondemand", |l| {
            spot_costs(l)?;
            Some(attainment(l, "spot-forecast")? - attainment(l, "ondemand-reactive")?)
        }),
    ],
    note: "(Revocations force-drain warm spot workers on a short deadline; billing stops at \
           revocation and lost batches re-queue at the lane head.)",
    ..ONE_POINT
};

/// The three spot fleets' billing, when every fleet reported one.
fn spot_costs<'a>(l: &'a Lookup) -> Option<(&'a CostSummary, &'a CostSummary, &'a CostSummary)> {
    let fleet = |label| l.cost(label);
    Some((
        fleet("ondemand-reactive")?,
        fleet("spot-reactive")?,
        fleet("spot-forecast")?,
    ))
}

/// A labelled point's SLO attainment (on-time share of finished queries).
fn attainment(l: &Lookup, label: &str) -> Option<f64> {
    l.summary(label).map(RunSummary::slo_attainment)
}

/// How much cheaper `cheap` is than `baseline`, in percent (0 when the
/// baseline cost nothing).
fn saving_pct(baseline: &CostSummary, cheap: &CostSummary) -> f64 {
    if baseline.total_dollars > 0.0 {
        100.0 * (1.0 - cheap.total_dollars / baseline.total_dollars)
    } else {
        0.0
    }
}

// ---- the renderer --------------------------------------------------------------

/// The columns of the comparison's per-bucket series, after the label: one
/// row per bucket and system.
pub(crate) const SERIES_COLUMNS: &str =
    "time_s demand_qps system_accuracy mean_utilization slo_violation_ratio";

/// Render executed points as one report, for `loki run` (with `headlines`)
/// and `loki sweep` (without): one table of the kind's metric columns with a
/// `label/lane` row per pipeline of a multi-pipeline point, cross-seed mean
/// and stddev per axis point when the points span several seeds, and the
/// headline values. The JSON form carries every metric of each point (lanes
/// under `pipelines`, per-class billing under `per_class`, burn episodes
/// under `episodes`), the aggregates, and each headline as a top-level key.
pub fn render(
    sc: &Scenario,
    cfg: &ExperimentConfig,
    points: &[RunPoint],
    results: &[PointResult],
    headlines: &[(String, f64)],
) -> ScenarioReport {
    let family = family(sc.kind);
    let columns: Vec<&str> = family.columns.split_whitespace().collect();
    let mut text = format!("# {}: {}\n\n", sc.name.to_uppercase(), sc.title);
    // `run` only: a sweep's points need not share one trace.
    if sc.kind == ScenarioKind::Comparison && !headlines.is_empty() {
        text.push_str(&series(points, results, cfg.bucket_s));
        text.push('\n');
    }

    let header = std::iter::once("label").chain(columns.iter().copied());
    let header: Vec<String> = header
        .chain(family.extras.iter().map(|e| e.0))
        .map(String::from)
        .collect();
    let mut rows = vec![header];
    let mut json_points = Vec::new();
    for (point, result) in points.iter().zip(results) {
        let row = MetricRow::point(result);
        let mut obj = row.to_json(&result.label);
        let mut cells = row.cells(&result.label, &columns);
        for (name, value) in family.extras {
            let value = value(point, result);
            obj.push(name, value.into());
            cells.push(value.cell());
        }
        rows.push(cells);
        if let Some(cost) = &result.cost {
            obj.push("per_class", per_class_json(cost));
        }
        if let Some(burn) = &result.burn {
            obj.push("episodes", episodes_json(burn));
        }
        if !result.per_pipeline.is_empty() {
            let lanes = result.per_pipeline.iter().map(|lane| {
                let row = MetricRow::lane(lane);
                rows.push(row.cells(&format!("{}/{}", result.label, lane.name), &columns));
                row.to_json(&lane.name)
            });
            obj.push("pipelines", Json::Arr(lanes.collect()));
        }
        json_points.push(obj);
    }
    text.push_str(&text_table(&rows));
    let mut json = report_header(sc, cfg);
    json.push("points", Json::Arr(json_points));

    if multi_seed(points) {
        let aggregates = aggregate_sweep(points, results);
        let mut rows = vec![rows[0][..=columns.len()].to_vec()];
        for agg in &aggregates {
            let stats = columns.iter().map(|name| {
                let stats = agg.get(name);
                format!(
                    "{} ± {}",
                    Real(stats.mean).cell(),
                    Real(stats.stddev).cell()
                )
            });
            rows.push(std::iter::once(agg.label.clone()).chain(stats).collect());
        }
        let seeds: Vec<String> = aggregates[0].seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(
            text,
            "\ncross-seed mean ± stddev over seeds {}:",
            seeds.join(", ")
        );
        text.push_str(&text_table(&rows));
        let aggregates = aggregates.iter().map(AxisAggregate::to_json);
        json.push("aggregates", Json::Arr(aggregates.collect()));
    }

    if !headlines.is_empty() {
        let rows: Vec<Vec<String>> = headlines
            .iter()
            .map(|(name, value)| vec![name.clone(), Real(*value).cell()])
            .collect();
        text.push('\n');
        text.push_str(&text_table(&rows));
        for (name, value) in headlines {
            json.push(name, (*value).into());
        }
    }
    if !family.note.is_empty() {
        let _ = writeln!(text, "\n{}", family.note);
    }
    ScenarioReport { text, json }
}

/// The per-class billing rows of an elastic point.
fn per_class_json(cost: &CostSummary) -> Json {
    Json::Arr(
        cost.per_class
            .iter()
            .map(|c| {
                let mut row = Json::object();
                row.push("class", c.class.as_str().into())
                    .push("spot", c.spot.into())
                    .push("gpu_seconds", c.gpu_seconds.into())
                    .push("dollars", c.dollars.into())
                    .push("peak_warm", c.peak_warm.into())
                    .push("provisioned", c.provisioned.into())
                    .push("retired", c.retired.into())
                    .push("revocations", c.revocations.into())
                    .push("stockouts", c.stockouts.into());
                row
            })
            .collect(),
    )
}

/// The comparison's stacked time series (Figures 5/6): per bucket and
/// system, the offered demand and the bucket's accuracy, utilization and
/// SLO-violation ratio.
fn series(points: &[RunPoint], results: &[PointResult], bucket_s: usize) -> String {
    let trace = points[0].build_trace();
    let buckets: Vec<_> = results
        .iter()
        .map(|r| bucketize(&r.result.intervals, bucket_s))
        .collect();
    let header = std::iter::once("label").chain(SERIES_COLUMNS.split_whitespace());
    let mut rows = vec![header.map(String::from).collect()];
    let len = buckets.iter().map(Vec::len).min().unwrap_or(0);
    for i in 0..len {
        let t = buckets[0][i].start_s;
        let demand = (0..bucket_s)
            .map(|s| trace.qps_at(t as usize + s))
            .sum::<f64>()
            / bucket_s as f64;
        for (result, b) in results.iter().zip(&buckets) {
            let values = [
                Count(t as u64),
                Real(demand),
                Real(b[i].mean_accuracy()),
                Real(b[i].cluster_utilization()),
                Real(b[i].slo_violation_ratio()),
            ];
            rows.push(
                std::iter::once(result.label.clone())
                    .chain(values.map(Value::cell))
                    .collect(),
            );
        }
    }
    text_table(&rows)
}

// ---- analytic kinds ------------------------------------------------------------

/// The greedy controller's allocation at every demand from 25 to 3200 QPS in
/// 25 QPS steps, and the two limits Figure 1 reads off the phases: the
/// hardware-scaling capacity (the servable demand of the last
/// hardware-scaling step) and the accuracy-scaling capacity (that of the last
/// step before saturation, or of the last step when the sweep never
/// saturates).
struct Phases {
    steps: Vec<(f64, AllocationOutcome)>,
    hardware_qps: Option<f64>,
    accuracy_qps: Option<f64>,
}

impl Phases {
    fn new(sc: &Scenario, cfg: &ExperimentConfig) -> Self {
        let mut controller =
            LokiController::new(sc.pipeline.build(cfg.slo_ms), LokiConfig::with_greedy());
        let steps: Vec<(f64, AllocationOutcome)> = (1..=128)
            .map(|k| {
                let demand = 25.0 * k as f64;
                (
                    demand,
                    controller.allocate_for_demand(demand, cfg.cluster_size),
                )
            })
            .collect();
        let mut hardware_qps = None;
        let mut accuracy_qps = None;
        for pair in steps.windows(2) {
            let (prev, next) = (&pair[0].1, &pair[1].1);
            if prev.mode == ScalingMode::Hardware && next.mode != ScalingMode::Hardware {
                hardware_qps = Some(prev.servable_demand);
            }
            if prev.mode != ScalingMode::Saturated && next.mode == ScalingMode::Saturated {
                accuracy_qps = Some(prev.servable_demand);
            }
        }
        let accuracy_qps = accuracy_qps.or(steps.last().map(|(_, o)| o.servable_demand));
        Self {
            steps,
            hardware_qps,
            accuracy_qps,
        }
    }

    /// The effective capacity gain from accuracy scaling.
    fn capacity_gain(&self) -> Option<f64> {
        Some(self.accuracy_qps? / self.hardware_qps?)
    }
}

fn phase_diagram(sc: &Scenario, cfg: &ExperimentConfig) -> ScenarioReport {
    let phases = Phases::new(sc, cfg);
    let mut text = format!(
        "# {}: traffic-analysis pipeline, {} workers, SLO {} ms\n",
        sc.name.to_uppercase(),
        cfg.cluster_size,
        cfg.slo_ms
    );
    let _ = writeln!(
        text,
        "{:>8} {:>12} {:>9} {:>11} {:>12}",
        "demand", "mode", "servers", "accuracy", "servable"
    );

    let mut rows = Vec::new();
    for (demand, out) in &phases.steps {
        let _ = writeln!(
            text,
            "{:>8.0} {:>12} {:>9} {:>11.4} {:>12.0}",
            demand,
            format!("{:?}", out.mode),
            out.servers_used,
            out.expected_accuracy,
            out.servable_demand
        );
        let mut row = Json::object();
        row.push("demand_qps", (*demand).into())
            .push("mode", format!("{:?}", out.mode).into())
            .push("servers_used", out.servers_used.into())
            .push("expected_accuracy", out.expected_accuracy.into())
            .push("servable_demand", out.servable_demand.into());
        rows.push(row);
    }

    text.push('\n');
    let mut json = report_header(sc, cfg);
    json.push("points", Json::Arr(rows));
    match (
        phases.hardware_qps,
        phases.accuracy_qps,
        phases.capacity_gain(),
    ) {
        (Some(hw), Some(acc), Some(gain)) => {
            let _ = writeln!(
                text,
                "phase 1 -> 2 transition (hardware-scaling capacity): {hw:.0} QPS (paper: ~560 QPS)"
            );
            let _ = writeln!(
                text,
                "maximum throughput with accuracy scaling:            {acc:.0} QPS (paper: ~1765 QPS)"
            );
            let _ = writeln!(
                text,
                "effective capacity gain from accuracy scaling:       {gain:.2}x (paper: ~2.7-3.1x)"
            );
            json.push("hardware_capacity_qps", hw.into())
                .push("max_capacity_qps", acc.into())
                .push("capacity_gain", gain.into());
        }
        _ => {
            text.push_str("could not identify both phase transitions; widen the demand sweep\n");
        }
    }
    ScenarioReport { text, json }
}

fn tradeoff_table(sc: &Scenario, cfg: &ExperimentConfig) -> ScenarioReport {
    let mut text =
        String::from("# FIG3: accuracy-throughput tradeoff per model family (batch size 8)\n");
    let mut families = Vec::new();
    for (family, variants) in loki_pipeline::zoo::all_families() {
        let _ = writeln!(text, "\n## {family}");
        let _ = writeln!(
            text,
            "{:<20} {:>12} {:>16} {:>16}",
            "variant", "accuracy", "qps(batch=8)", "qps(batch=1)"
        );
        let mut rows = Vec::new();
        for v in &variants {
            let _ = writeln!(
                text,
                "{:<20} {:>12.3} {:>16.1} {:>16.1}",
                v.name,
                v.accuracy,
                v.throughput_qps(8),
                v.throughput_qps(1)
            );
            let mut row = Json::object();
            row.push("variant", v.name.as_str().into())
                .push("accuracy", v.accuracy.into())
                .push("qps_batch8", v.throughput_qps(8).into())
                .push("qps_batch1", v.throughput_qps(1).into());
            rows.push(row);
        }
        let mut entry = Json::object();
        entry
            .push("family", family.into())
            .push("variants", Json::Arr(rows));
        families.push(entry);
    }
    text.push_str(
        "\n(The paper's Figure 3 plots the EfficientNet column: lower accuracy => higher throughput.)\n",
    );
    let mut json = report_header(sc, cfg);
    json.push("families", Json::Arr(families));
    ScenarioReport { text, json }
}

fn allocator_ablation(sc: &Scenario, cfg: &ExperimentConfig) -> ScenarioReport {
    let graph = sc.pipeline.build(cfg.slo_ms);
    let fanout = FanoutOverrides::new();
    let greedy = GreedyAllocator::new();
    // The bounded solve budget mirrors how the paper deploys Gurobi (≈500 ms solves).
    let milp = MilpAllocator::new(Duration::from_millis(800), 2_000);

    let mut text =
        String::from("# Allocator ablation: greedy vs MILP (traffic pipeline, 20 workers)\n");
    let _ = writeln!(
        text,
        "{:>8} {:>10} {:>10} {:>12} {:>10} {:>10} {:>12}",
        "demand", "greedy_acc", "milp_acc", "greedy_srv", "milp_srv", "greedy_ms", "milp_ms"
    );
    let mut rows = Vec::new();
    for demand in [200.0, 500.0, 800.0, 1100.0, 1400.0, 1700.0, 2000.0] {
        let ctx = AllocationContext {
            graph: &graph,
            cluster_size: cfg.cluster_size,
            demand_qps: demand,
            fanout: &fanout,
            drop_policy: DropPolicy::OpportunisticRerouting,
            slo_divisor: 2.0,
            budgets: loki_sim::HopBudgets::uniform(2.0, graph.num_tasks()),
            upgrade_with_leftover: true,
        };
        let t0 = Instant::now();
        let g = greedy.allocate(&ctx);
        let greedy_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let t1 = Instant::now();
        let m = milp.allocate(&ctx);
        let milp_ms = t1.elapsed().as_secs_f64() * 1000.0;
        let _ = writeln!(
            text,
            "{:>8.0} {:>10.4} {:>10.4} {:>12} {:>10} {:>10.2} {:>12.1}",
            demand,
            g.expected_accuracy,
            m.expected_accuracy,
            g.servers_used,
            m.servers_used,
            greedy_ms,
            milp_ms
        );
        let mut row = Json::object();
        row.push("demand_qps", demand.into())
            .push("greedy_accuracy", g.expected_accuracy.into())
            .push("milp_accuracy", m.expected_accuracy.into())
            .push("greedy_servers", g.servers_used.into())
            .push("milp_servers", m.servers_used.into())
            .push("greedy_ms", greedy_ms.into())
            .push("milp_ms", milp_ms.into());
        rows.push(row);
    }
    let mut json = report_header(sc, cfg);
    json.push("points", Json::Arr(rows));
    ScenarioReport { text, json }
}

fn multfactor_ablation(sc: &Scenario, cfg: &ExperimentConfig) -> ScenarioReport {
    let graph = sc.pipeline.build(cfg.slo_ms);
    let perf = PerfModel::new(&graph, 2.0, 2.0);
    let fanout = FanoutOverrides::new();
    let choice: Vec<usize> = graph
        .tasks()
        .map(|(_, t)| t.most_accurate_variant())
        .collect();

    let mut text = String::from(
        "# Multiplicative-factor ablation (traffic pipeline, most accurate variants)\n",
    );
    let _ = writeln!(
        text,
        "{:>8} {:<22} {:>16} {:>18} {:>12}",
        "demand", "task", "true_task_qps", "naive_task_qps", "shortfall"
    );
    let mut rows = Vec::new();
    for demand in [200.0, 400.0, 600.0] {
        let true_demands = perf.task_demands(&choice, demand, &fanout);
        for (task_id, task) in graph.tasks() {
            let t = task_id.index();
            // A pipeline-agnostic controller assumes each task sees the root demand.
            let naive = demand;
            let shortfall = (true_demands[t] - naive).max(0.0) / true_demands[t].max(1e-9);
            let _ = writeln!(
                text,
                "{:>8.0} {:<22} {:>16.1} {:>18.1} {:>11.1}%",
                demand,
                task.name,
                true_demands[t],
                naive,
                100.0 * shortfall
            );
            let mut row = Json::object();
            row.push("demand_qps", demand.into())
                .push("task", task.name.as_str().into())
                .push("true_task_qps", true_demands[t].into())
                .push("naive_task_qps", naive.into())
                .push("shortfall_pct", (100.0 * shortfall).into());
            rows.push(row);
        }
    }
    text.push_str(
        "\n(Ignoring multiplication under-provisions the car-classification task by ~30-50%.)\n",
    );
    let mut json = report_header(sc, cfg);
    json.push("points", Json::Arr(rows));
    ScenarioReport { text, json }
}

fn milp_probe(sc: &Scenario, cfg: &ExperimentConfig) -> ScenarioReport {
    let graph = sc.pipeline.build(cfg.slo_ms);
    let fanout = FanoutOverrides::new();
    let perf = PerfModel::new(&graph, 2.0, 2.0);
    let best: Vec<usize> = graph
        .tasks()
        .map(|(_, t)| t.most_accurate_variant())
        .collect();
    let hw_cap = perf.max_servable_demand(&best, cfg.cluster_size, &fanout);
    let min_choice: Vec<usize> = graph
        .tasks()
        .map(|(_, t)| t.least_accurate_variant())
        .collect();
    let max_cap = perf.max_servable_demand(&min_choice, cfg.cluster_size, &fanout);

    let mut text = format!(
        "hw capacity ({} servers, max acc): {hw_cap:.1} qps\n",
        cfg.cluster_size
    );
    let _ = writeln!(
        text,
        "max capacity ({} servers, min acc): {max_cap:.1} qps ({:.2}x)",
        cfg.cluster_size,
        max_cap / hw_cap
    );
    let mut rows = Vec::new();
    for demand in [hw_cap * 0.5, hw_cap * 1.3, hw_cap * 2.0] {
        let ctx = AllocationContext {
            graph: &graph,
            cluster_size: cfg.cluster_size,
            demand_qps: demand,
            fanout: &fanout,
            drop_policy: DropPolicy::OpportunisticRerouting,
            slo_divisor: 2.0,
            budgets: loki_sim::HopBudgets::uniform(2.0, graph.num_tasks()),
            upgrade_with_leftover: true,
        };
        let alloc = MilpAllocator::new(Duration::from_secs(10), 4000);
        let t0 = Instant::now();
        let out = alloc.allocate(&ctx);
        let solve_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let _ = writeln!(
            text,
            "demand {:.0}: mode {:?} servers {} acc {:.4} in {:.0} ms",
            demand, out.mode, out.servers_used, out.expected_accuracy, solve_ms
        );
        let mut row = Json::object();
        row.push("demand_qps", demand.into())
            .push("mode", format!("{:?}", out.mode).into())
            .push("servers_used", out.servers_used.into())
            .push("expected_accuracy", out.expected_accuracy.into())
            .push("solve_ms", solve_ms.into());
        rows.push(row);
    }
    let mut json = report_header(sc, cfg);
    json.push("hardware_capacity_qps", hw_cap.into())
        .push("max_capacity_qps", max_cap.into())
        .push("points", Json::Arr(rows));
    ScenarioReport { text, json }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::METRICS;

    fn keys(json: Option<&Json>) -> String {
        match json {
            Some(Json::Obj(entries)) => {
                let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                keys.join(",")
            }
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn first_point(report: &ScenarioReport) -> Option<&Json> {
        match report.json.get("points") {
            Some(Json::Arr(points)) => points.first(),
            _ => None,
        }
    }

    #[test]
    fn throughput_and_summary_objects_keep_their_published_keys() {
        let sc = crate::scenario::find("traffic_hetnet").expect("registered");
        let cfg = ExperimentConfig {
            duration_s: 2,
            drain_s: 1.0,
            ..sc.config()
        };
        let report = run_scenario(sc, &cfg, &Runner::serial()).expect("the scenario runs");
        assert_eq!(
            keys(Some(&report.json)),
            "scenario,title,kind,pipeline,trace,config,points"
        );
        assert_eq!(
            keys(first_point(&report)),
            "label,arrivals,on_time,late,dropped,dropped_deadline,dropped_reclaimed,\
             dropped_revoked,rerouted,slo_violation_ratio,system_accuracy,mean_utilization,\
             p50_ms,p90_ms,p99_ms,p999_ms,events_processed,min_active_workers,\
             max_active_workers,peak_goodput,routing_cache_consults,routing_cache_hits,\
             routing_warnings,budget_consumed,worst_burn_rate,burn_episodes,episodes"
        );
    }

    /// The scalar keys of a JSON point (and of its lanes) that are neither
    /// `label`, a metric nor one of `extras`.
    fn unnamed_keys(point: &Json, extras: &[&str], out: &mut Vec<String>) {
        let Json::Obj(entries) = point else {
            panic!("a point is an object: {point:?}")
        };
        for (key, value) in entries {
            match value {
                Json::Arr(items) if key == "pipelines" => {
                    for lane in items {
                        unnamed_keys(lane, extras, out);
                    }
                }
                Json::Arr(_) if key == "per_class" || key == "episodes" => {}
                _ if key == "label"
                    || extras.contains(&key.as_str())
                    || METRICS.iter().any(|m| m.name == key) => {}
                _ => out.push(key.clone()),
            }
        }
    }

    #[test]
    fn every_simulated_report_names_its_cells_by_metric() {
        let mut covered = 0;
        for sc in crate::scenario::REGISTRY {
            let analytic = matches!(
                sc.kind,
                ScenarioKind::PhaseDiagram
                    | ScenarioKind::TradeoffTable
                    | ScenarioKind::AllocatorAblation
                    | ScenarioKind::MultFactorAblation
                    | ScenarioKind::MilpProbe
            );
            if analytic {
                continue;
            }
            let cfg = ExperimentConfig {
                duration_s: 2,
                drain_s: 1.0,
                ..sc.config()
            };
            let report = run_scenario(sc, &cfg, &Runner::serial()).expect("the scenario runs");
            let family = family(sc.kind);
            let mut extras: Vec<&str> = family.extras.iter().map(|e| e.0).collect();
            if sc.kind == ScenarioKind::Comparison {
                extras.extend(SERIES_COLUMNS.split_whitespace());
            }
            let headers: Vec<&str> = report
                .text
                .lines()
                .filter(|line| line.split_whitespace().next() == Some("label"))
                .collect();
            assert!(
                !headers.is_empty(),
                "{}: no table\n{}",
                sc.name,
                report.text
            );
            for header in headers {
                for cell in header.split_whitespace() {
                    assert!(
                        cell == "label"
                            || extras.contains(&cell)
                            || METRICS.iter().any(|m| m.name == cell),
                        "{}: header cell {cell:?} is not a metric",
                        sc.name
                    );
                }
            }
            let Some(Json::Arr(points)) = report.json.get("points") else {
                panic!("{}: no points", sc.name)
            };
            assert!(!points.is_empty(), "{}", sc.name);
            let mut unnamed = Vec::new();
            for point in points {
                unnamed_keys(point, &extras, &mut unnamed);
            }
            assert!(unnamed.is_empty(), "{}: keys {unnamed:?}", sc.name);
            covered += 1;
        }
        assert_eq!(covered, 14, "every simulator-driven scenario is covered");
    }

    #[test]
    fn headlines_are_named_report_keys() {
        let run = |name: &str| {
            let sc = crate::scenario::find(name).expect("registered");
            let cfg = ExperimentConfig {
                duration_s: 10,
                drain_s: 2.0,
                ..sc.config()
            };
            run_scenario(sc, &cfg, &Runner::serial())
                .expect("the scenario runs")
                .json
        };
        let spot = run("spot_diurnal");
        for name in [
            "forecast_attainment_gain",
            "forecast_cost_delta_usd",
            "spot_saving_pct_vs_ondemand",
            "attainment_delta_vs_ondemand",
        ] {
            assert!(matches!(spot.get(name), Some(Json::Num(_))), "{name}");
        }
        // capacity_table and fig1_phases read one capacity gain.
        let gain = run("capacity_table").get("capacity_gain").cloned();
        assert_eq!(gain, run("fig1_phases").get("capacity_gain").cloned());
        assert!(matches!(gain, Some(Json::Num(g)) if g > 2.7), "{gain:?}");
    }
}
