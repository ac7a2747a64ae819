//! Kind-specific scenario executors and renderers.
//!
//! Each [`ScenarioKind`] maps to one function that turns a scenario + configuration
//! into a [`ScenarioReport`]: the human-readable text the former figure binaries
//! printed, plus a machine-readable [`Json`] tree. Simulator-driven kinds express
//! their work as [`RunPoint`]s and execute through the (possibly parallel)
//! [`Runner`]; analytic kinds (phase diagram, trade-off tables, allocator probes)
//! compute in place.

use crate::report::{push_metrics, Json, MetricRow, METRICS};
use crate::runner::Runner;
use crate::scenario::{ControllerSpec, PointResult, RunPoint, Scenario, ScenarioKind};
use crate::sweep::Sweep;
use crate::{
    bucketize, format_comparison_timeseries, format_headline_ratios, format_summary_table,
};
use crate::{ElasticMode, ExperimentConfig, ProvisionerKind};
use loki_core::allocator::{AllocationContext, Allocator};
use loki_core::greedy::GreedyAllocator;
use loki_core::milp_alloc::MilpAllocator;
use loki_core::perf::{FanoutOverrides, PerfModel};
use loki_core::{LokiConfig, LokiController, ScalingMode};
use loki_sim::{CostSummary, DropPolicy, RunSummary, SimResult};
use loki_workload::TraceSpec;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The rendered outcome of running one scenario.
pub struct ScenarioReport {
    /// Human-readable report (what the former figure binaries printed).
    pub text: String,
    /// Machine-readable report (`loki run <scenario> --json`).
    pub json: Json,
}

/// Run a scenario with its kind-specific executor.
pub fn run_scenario(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    match sc.kind {
        ScenarioKind::Comparison => comparison(sc, cfg, runner),
        ScenarioKind::SloSweep => slo_sweep(sc, cfg, runner),
        ScenarioKind::DropPolicyAblation => drop_policy_ablation(sc, cfg, runner),
        ScenarioKind::PhaseDiagram => phase_diagram(sc, cfg),
        ScenarioKind::TradeoffTable => tradeoff_table(sc, cfg),
        ScenarioKind::AllocatorAblation => allocator_ablation(sc, cfg),
        ScenarioKind::MultFactorAblation => multfactor_ablation(sc, cfg),
        ScenarioKind::MilpProbe => milp_probe(sc, cfg),
        ScenarioKind::CapacityTable => capacity_table(sc, cfg, runner),
        ScenarioKind::Throughput => throughput(sc, cfg, runner),
        ScenarioKind::MultiPipeline(..) => multi_pipeline(sc, cfg, runner),
        ScenarioKind::Elastic => elastic_family(sc, cfg, runner),
        ScenarioKind::Spot => spot_family(sc, cfg, runner),
    }
}

/// JSON view of a whole-run summary. Every field here is simulated state
/// (bit-identical across `jobs=` values).
pub fn summary_json(s: &RunSummary) -> Json {
    let row = MetricRow::summary(s);
    let mut obj = Json::object();
    obj.push("total_arrivals", s.total_arrivals.into());
    for metric in METRICS.iter().filter(|m| m.in_summary) {
        obj.push(metric.name, (metric.value)(&row).into());
    }
    obj.push("min_active_workers", s.min_active_workers.into())
        .push("max_active_workers", s.max_active_workers.into())
        .push("peak_goodput", s.peak_goodput.into())
        .push("rerouted", s.total_rerouted.into())
        .push("events_processed", s.events_processed.into());
    obj
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

/// JSON view of an elastic run's fleet-cost accounting.
pub fn cost_json(cost: &CostSummary) -> Json {
    let mut obj = Json::object();
    obj.push("gpu_seconds", cost.total_gpu_seconds.into())
        .push("gpu_hours", cost.gpu_hours().into())
        .push("dollars", cost.total_dollars.into())
        .push("served_queries", cost.served_queries.into())
        .push("cost_per_1k_queries", cost.cost_per_1k_queries.into())
        .push("peak_fleet", cost.peak_fleet.into())
        .push("revocations", cost.revocations.into())
        .push("stockouts", cost.stockouts.into())
        .push("spot_dollars", cost.spot_dollars.into())
        .push("ondemand_dollars", cost.ondemand_dollars.into())
        .push(
            "per_class",
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
            ),
        );
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

fn base_point(sc: &Scenario, cfg: &ExperimentConfig) -> RunPoint {
    crate::scenario::scenario_point(sc, cfg)
}

// ---- simulator-driven kinds ----------------------------------------------------

fn comparison(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    let points: Vec<RunPoint> = ControllerSpec::COMPARISON
        .into_iter()
        .map(|controller| RunPoint {
            label: controller.system_label().to_string(),
            controller,
            ..base_point(sc, cfg)
        })
        .collect();
    let trace = points[0].build_trace();
    let results = runner.run(points);
    let named: Vec<(String, SimResult)> =
        results.into_iter().map(|r| (r.label, r.result)).collect();

    let mut text = format_comparison_timeseries(
        &format!("{}: {}", sc.name.to_uppercase(), sc.title),
        &trace,
        &named,
        cfg.bucket_s,
    );
    text.push_str(&format_summary_table(&named));
    text.push_str(&format_headline_ratios(&named));

    let mut json = report_header(sc, cfg);
    json.push("systems", systems_json(&named));
    ScenarioReport { text, json }
}

fn slo_sweep(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    let points = Sweep::for_scenario(sc, cfg.clone()).points();
    let slos: Vec<f64> = points.iter().map(|p| p.cfg.slo_ms).collect();
    let results = runner.run(points);

    let mut text = format!(
        "# {}: effect of the latency SLO on Loki\n",
        sc.name.to_uppercase()
    );
    let _ = writeln!(
        text,
        "{:>8} {:>14} {:>16} {:>16}",
        "slo_ms", "avg_accuracy", "max_acc_drop_%", "avg_slo_viol"
    );
    let mut rows = Vec::new();
    for (slo, point) in slos.iter().zip(&results) {
        let max_drop = max_accuracy_drop_pct(sc, *slo, &point.result);
        let s = &point.result.summary;
        let _ = writeln!(
            text,
            "{:>8.0} {:>14.4} {:>16.2} {:>16.4}",
            slo, s.system_accuracy, max_drop, s.slo_violation_ratio
        );
        let mut row = Json::object();
        row.push("slo_ms", (*slo).into())
            .push("max_accuracy_drop_pct", max_drop.into())
            .push("summary", summary_json(s));
        rows.push(row);
    }
    text.push_str(
        "\n(The paper reports sharp improvements up to ~300 ms and diminishing returns beyond.)\n",
    );

    let mut json = report_header(sc, cfg);
    json.push("points", Json::Arr(rows));
    ScenarioReport { text, json }
}

/// The `systems` array of a comparison: each system's name and summary.
fn systems_json(named: &[(String, SimResult)]) -> Json {
    Json::Arr(
        named
            .iter()
            .map(|(name, r)| {
                let mut obj = Json::object();
                obj.push("name", name.as_str().into())
                    .push("summary", summary_json(&r.summary));
                obj
            })
            .collect(),
    )
}

/// Maximum accuracy drop of a run: the worst 30 s-bucket accuracy vs the pipeline
/// maximum at this SLO.
fn max_accuracy_drop_pct(sc: &Scenario, slo_ms: f64, result: &SimResult) -> f64 {
    let graph = sc.pipeline.build(slo_ms);
    let buckets = bucketize(&result.intervals, 30);
    let min_acc = buckets
        .iter()
        .filter(|b| b.accuracy_count > 0)
        .map(|b| b.mean_accuracy())
        .fold(f64::INFINITY, f64::min);
    if min_acc.is_finite() {
        100.0 * (graph.max_accuracy() - min_acc) / graph.max_accuracy()
    } else {
        100.0
    }
}

fn drop_policy_ablation(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    let points: Vec<RunPoint> = DropPolicy::all()
        .into_iter()
        .map(|policy| RunPoint {
            label: policy.label().to_string(),
            drop_policy: Some(policy),
            ..base_point(sc, cfg)
        })
        .collect();
    let results = runner.run(points);

    let mut text = format!(
        "# {}: load-balancer ablation (traffic pipeline, overload segment)\n",
        sc.name.to_uppercase()
    );
    let _ = writeln!(
        text,
        "{:<28} {:>14} {:>12} {:>12}",
        "policy", "slo_violation", "accuracy", "rerouted"
    );
    let mut rows = Vec::new();
    for point in &results {
        let s = &point.result.summary;
        let _ = writeln!(
            text,
            "{:<28} {:>14.4} {:>12.4} {:>12}",
            point.label, s.slo_violation_ratio, s.system_accuracy, s.total_rerouted
        );
        let mut row = Json::object();
        row.push("policy", point.label.as_str().into())
            .push("summary", summary_json(s));
        rows.push(row);
    }
    text.push_str(
        "\n(The paper's Figure 7 shows opportunistic rerouting with the lowest violation ratio.)\n",
    );

    let mut json = report_header(sc, cfg);
    json.push("points", Json::Arr(rows));
    ScenarioReport { text, json }
}

fn capacity_table(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    let mut text = String::from("# T-CAP: headline numbers (paper-reported vs measured)\n");

    // Capacity gain from accuracy scaling (analytical, matches Figure 1).
    let graph = sc.pipeline.build(cfg.slo_ms);
    let mut controller = LokiController::new(graph.clone(), LokiConfig::with_greedy());
    let mut hw_cap = 0.0f64;
    let mut max_cap = 0.0f64;
    let mut demand = 25.0;
    while demand <= 3200.0 {
        let out = controller.allocate_for_demand(demand, cfg.cluster_size);
        match out.mode {
            ScalingMode::Hardware => hw_cap = out.servable_demand,
            _ => max_cap = max_cap.max(out.servable_demand),
        }
        demand += 25.0;
    }
    let capacity_gain = max_cap / f64::max(hw_cap, 1.0);
    let _ = writeln!(
        text,
        "effective capacity gain (accuracy vs hardware scaling): measured {capacity_gain:.2}x, paper >2.7x"
    );

    let mut json = report_header(sc, cfg);
    json.push("capacity_gain", capacity_gain.into());

    // End-to-end comparison ratios on both pipelines.
    let mut pipelines_json = Vec::new();
    for (label, pipeline, trace) in [
        (
            "traffic_analysis",
            crate::scenario::PipelineSpec::Traffic,
            TraceSpec::AzureDiurnal,
        ),
        (
            "social_media",
            crate::scenario::PipelineSpec::Social,
            TraceSpec::TwitterBursty,
        ),
    ] {
        let _ = writeln!(text, "\n## {label}");
        let points: Vec<RunPoint> = ControllerSpec::COMPARISON
            .into_iter()
            .map(|controller| RunPoint {
                label: controller.system_label().to_string(),
                pipeline,
                trace,
                controller,
                drop_policy: None,
                multi: None,
                cfg: cfg.clone(),
            })
            .collect();
        let results = runner.run(points);
        let named: Vec<(String, SimResult)> =
            results.into_iter().map(|r| (r.label, r.result)).collect();
        text.push_str(&format_summary_table(&named));
        text.push_str(&format_headline_ratios(&named));
        let mut entry = Json::object();
        entry
            .push("pipeline", label.into())
            .push("systems", systems_json(&named));
        pipelines_json.push(entry);
    }
    json.push("pipelines", Json::Arr(pipelines_json));
    ScenarioReport { text, json }
}

fn throughput(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    let results = runner.run(vec![base_point(sc, cfg)]);
    let entry = throughput_json(sc.name, &results[0]);

    let s = &results[0].result.summary;
    let mut text = format!("# {}: {}\n", sc.name, sc.title);
    let _ = writeln!(
        text,
        "arrivals {}  events {}",
        results[0].arrivals, s.events_processed,
    );
    let _ = writeln!(
        text,
        "on_time {}  late {}  dropped {} (deadline {}, reclaimed {}, revoked {})  accuracy {:.4}",
        s.total_on_time,
        s.total_late,
        s.total_dropped,
        s.total_dropped_deadline,
        s.total_dropped_reclaimed,
        s.total_dropped_revoked,
        s.system_accuracy
    );
    if results[0].result.latency.is_some() {
        let _ = writeln!(
            text,
            "latency_ms p50 {:.1}  p90 {:.1}  p99 {:.1}  p999 {:.1}",
            s.p50_ms, s.p90_ms, s.p99_ms, s.p999_ms
        );
    }

    let mut json = report_header(sc, cfg);
    json.push("throughput", entry);
    ScenarioReport { text, json }
}

fn multi_pipeline(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    let results = runner.run(vec![base_point(sc, cfg)]);
    let point = &results[0];
    let stats = point
        .multi_stats
        .as_ref()
        .expect("multi scenario yields arbitration stats");

    let mut text = format!(
        "# {}: {} pipelines on one {}-worker cluster\n",
        sc.name.to_uppercase(),
        point.per_pipeline.len(),
        cfg.cluster_size
    );
    let _ = writeln!(
        text,
        "arbiter {}  rebalances {}  migrations {}  events {}  jobs {}",
        stats.arbiter,
        stats.rebalances,
        stats.migrations,
        point.result.summary.events_processed,
        cfg.jobs.max(1)
    );
    let _ = writeln!(
        text,
        "\n{:<12} {:>10} {:>10} {:>8} {:>9} {:>11} {:>10}",
        "pipeline", "arrivals", "on_time", "late", "dropped", "slo_attain", "accuracy"
    );
    let mut rows = Vec::new();
    for lane in &point.per_pipeline {
        let s = &lane.summary;
        let _ = writeln!(
            text,
            "{:<12} {:>10} {:>10} {:>8} {:>9} {:>11.4} {:>10.4}",
            lane.name,
            s.total_arrivals,
            s.total_on_time,
            s.total_late,
            s.total_dropped,
            s.slo_attainment(),
            s.system_accuracy
        );
        let mut row = Json::object();
        row.push("pipeline", lane.name.as_str().into())
            .push("slo_attainment", s.slo_attainment().into())
            .push("summary", summary_json(s));
        rows.push(row);
    }
    let agg = &point.result.summary;
    let _ = writeln!(
        text,
        "{:<12} {:>10} {:>10} {:>8} {:>9} {:>11.4} {:>10.4}",
        "aggregate",
        agg.total_arrivals,
        agg.total_on_time,
        agg.total_late,
        agg.total_dropped,
        agg.slo_attainment(),
        agg.system_accuracy
    );
    text.push_str(
        "\n(Compare multi_traffic_social against multi_static_split / multi_oracle_split: \
         under the skewed mix the contended Resource Manager beats the 50/50 split on \
         aggregate SLO attainment.)\n",
    );

    let mut json = report_header(sc, cfg);
    json.push("arbiter", stats.arbiter.as_str().into())
        .push("rebalances", stats.rebalances.into())
        .push("migrations", stats.migrations.into())
        .push("pipelines", Json::Arr(rows))
        .push("aggregate_slo_attainment", agg.slo_attainment().into())
        .push("aggregate", summary_json(agg));
    ScenarioReport { text, json }
}

/// The elastic provisioning family: the scenario's workload under static-peak,
/// static-mean, and autoscaled fleets, side by side with dollar costs. The
/// headline is cost at comparable SLO attainment: the autoscaler must approach
/// static-peak's attainment at a fraction of its cost, while static-mean shows
/// why "just provision for the average" is not an answer.
fn elastic_family(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    let modes = [
        ElasticMode::StaticPeak,
        ElasticMode::StaticMean,
        ElasticMode::Autoscale,
    ];
    let points: Vec<RunPoint> = modes
        .into_iter()
        .map(|mode| RunPoint {
            label: mode.name().to_string(),
            cfg: ExperimentConfig {
                elastic: mode,
                ..cfg.clone()
            },
            ..base_point(sc, cfg)
        })
        .collect();
    let results = runner.run(points);

    let mut text = format!(
        "# {}: provisioning modes on the diurnal trace ({} classes catalog)\n",
        sc.name.to_uppercase(),
        cfg.classes.name()
    );
    let _ = writeln!(
        text,
        "{:<14} {:>10} {:>10} {:>10} {:>9} {:>11} {:>10} {:>10} {:>9}",
        "mode",
        "gpu_hours",
        "cost_usd",
        "cost/1k",
        "fleet",
        "slo_attain",
        "accuracy",
        "dropped",
        "scaled"
    );
    let mut rows = Vec::new();
    for point in &results {
        let s = &point.result.summary;
        let cost = point.cost.as_ref().expect("elastic modes report cost");
        let scaled = cost
            .per_class
            .iter()
            .map(|c| c.provisioned + c.retired)
            .sum::<u64>();
        let _ = writeln!(
            text,
            "{:<14} {:>10.2} {:>10.2} {:>10.4} {:>9} {:>11.4} {:>10.4} {:>10} {:>9}",
            point.label,
            cost.gpu_hours(),
            cost.total_dollars,
            cost.cost_per_1k_queries,
            cost.peak_fleet,
            s.slo_attainment(),
            s.system_accuracy,
            s.total_dropped,
            scaled,
        );
        let mut row = Json::object();
        row.push("mode", point.label.as_str().into())
            .push("slo_attainment", s.slo_attainment().into())
            .push("cost", cost_json(cost))
            .push("summary", summary_json(s));
        rows.push(row);
    }

    let mut json = report_header(sc, cfg);
    json.push("modes", Json::Arr(rows));
    let peak = &results[0];
    let auto = &results[2];
    if let (Some(peak_cost), Some(auto_cost)) = (&peak.cost, &auto.cost) {
        let saving_pct = if peak_cost.total_dollars > 0.0 {
            100.0 * (1.0 - auto_cost.total_dollars / peak_cost.total_dollars)
        } else {
            0.0
        };
        let attain_delta =
            peak.result.summary.slo_attainment() - auto.result.summary.slo_attainment();
        let _ = writeln!(
            text,
            "\nautoscale vs static-peak: {saving_pct:.1}% cheaper at {attain_delta:+.4} SLO-attainment delta"
        );
        text.push_str(
            "(Static-mean is the cautionary baseline: cheapest fleet, but it melts at peak.)\n",
        );
        json.push("autoscale_saving_pct", saving_pct.into())
            .push("attainment_delta_vs_peak", attain_delta.into());
    }
    ScenarioReport { text, json }
}

/// The adversarial-cloud family: the scenario's workload on the same
/// autoscaled cluster under three fleets — all-on-demand with the reactive
/// autoscaler (the friendly-cloud baseline), spot-enabled with the reactive
/// autoscaler (cheap but naive about revocations), and spot-enabled with the
/// forecasting provisioner (pre-boots ahead of the ramp, hedges the spot mix
/// against observed revocations). The headline is adversity survival: under
/// nonzero revocations the forecasting provisioner must beat the reactive
/// autoscaler on SLO attainment at equal-or-lower dollars, and the spot fleet
/// must undercut all-on-demand cost at comparable attainment.
fn spot_family(sc: &Scenario, cfg: &ExperimentConfig, runner: &Runner) -> ScenarioReport {
    let variants: [(&str, bool, ProvisionerKind); 3] = [
        ("ondemand-reactive", false, ProvisionerKind::Reactive),
        ("spot-reactive", true, ProvisionerKind::Reactive),
        ("spot-forecast", true, ProvisionerKind::Forecast),
    ];
    let points: Vec<RunPoint> = variants
        .into_iter()
        .map(|(label, spot, provisioner)| RunPoint {
            label: label.to_string(),
            cfg: ExperimentConfig {
                elastic: ElasticMode::Autoscale,
                spot,
                provisioner,
                // The on-demand baseline lives on the friendly cloud: no spot
                // classes means no revocations or stockouts to survive.
                revoke_per_hour: if spot { cfg.revoke_per_hour } else { 0.0 },
                stockout: if spot { cfg.stockout } else { 0.0 },
                ..cfg.clone()
            },
            ..base_point(sc, cfg)
        })
        .collect();
    let results = runner.run(points);

    let mut text = format!(
        "# {}: adversarial cloud (revoke={}/h, stockout={}, {} classes catalog)\n",
        sc.name.to_uppercase(),
        cfg.revoke_per_hour,
        cfg.stockout,
        cfg.classes.name()
    );
    let _ = writeln!(
        text,
        "{:<18} {:>9} {:>9} {:>9} {:>8} {:>9} {:>7} {:>11} {:>9} {:>8} {:>8} {:>7}",
        "fleet",
        "cost_usd",
        "spot_usd",
        "od_usd",
        "revoked",
        "stockout",
        "fleet",
        "slo_attain",
        "cost/1k",
        "dropped",
        "budget%",
        "burn_ep"
    );
    let mut rows = Vec::new();
    for point in &results {
        let s = &point.result.summary;
        let cost = point.cost.as_ref().expect("spot modes report cost");
        let burn = point.burn.as_ref().expect("burn analysis always runs");
        let _ = writeln!(
            text,
            "{:<18} {:>9.2} {:>9.2} {:>9.2} {:>8} {:>9} {:>7} {:>11.4} {:>9.4} {:>8} {:>8.1} {:>7}",
            point.label,
            cost.total_dollars,
            cost.spot_dollars,
            cost.ondemand_dollars,
            cost.revocations,
            cost.stockouts,
            cost.peak_fleet,
            s.slo_attainment(),
            cost.cost_per_1k_queries,
            s.total_dropped,
            burn.budget_consumed * 100.0,
            burn.episodes.len(),
        );
        let mut row = Json::object();
        row.push("fleet", point.label.as_str().into())
            .push("slo_attainment", s.slo_attainment().into())
            .push("cost", cost_json(cost))
            .push("summary", summary_json(s))
            .push("burn", crate::timeline::burn_json(burn));
        rows.push(row);
    }

    let mut json = report_header(sc, cfg);
    json.push("fleets", Json::Arr(rows));
    let (ondemand, reactive, forecast) = (&results[0], &results[1], &results[2]);
    if let (Some(od_cost), Some(re_cost), Some(fc_cost)) =
        (&ondemand.cost, &reactive.cost, &forecast.cost)
    {
        let fc_attain = forecast.result.summary.slo_attainment();
        let re_attain = reactive.result.summary.slo_attainment();
        let od_attain = ondemand.result.summary.slo_attainment();
        let spot_saving_pct = if od_cost.total_dollars > 0.0 {
            100.0 * (1.0 - fc_cost.total_dollars / od_cost.total_dollars)
        } else {
            0.0
        };
        let _ = writeln!(
            text,
            "\nforecast vs reactive on spot: {:+.4} SLO-attainment at {:+.2} USD",
            fc_attain - re_attain,
            fc_cost.total_dollars - re_cost.total_dollars,
        );
        let _ = writeln!(
            text,
            "spot-forecast vs all-on-demand: {spot_saving_pct:.1}% cheaper at {:+.4} attainment delta",
            fc_attain - od_attain,
        );
        text.push_str(
            "(Revocations force-drain warm spot workers on a short deadline; billing stops \
             at revocation and lost batches re-queue at the lane head.)\n",
        );
        json.push("forecast_attainment_gain", (fc_attain - re_attain).into())
            .push(
                "forecast_cost_delta_usd",
                (fc_cost.total_dollars - re_cost.total_dollars).into(),
            )
            .push("spot_saving_pct_vs_ondemand", spot_saving_pct.into())
            .push(
                "attainment_delta_vs_ondemand",
                (fc_attain - od_attain).into(),
            );
    }
    ScenarioReport { text, json }
}

/// The `throughput` object of a Throughput report: run identity, the
/// control-plane counters and the event count around the [`METRICS`] a
/// throughput run is judged by.
fn throughput_json(name: &str, point: &PointResult) -> Json {
    let row = MetricRow::point(point);
    let mut entry = Json::object();
    entry
        .push("name", name.into())
        .push("arrivals", point.arrivals.into());
    push_metrics(
        &mut entry,
        &row,
        &[
            "routing_cache_consults",
            "routing_cache_hits",
            "routing_warnings",
        ],
    );
    entry.push(
        "events_processed",
        point.result.summary.events_processed.into(),
    );
    push_metrics(
        &mut entry,
        &row,
        &[
            "on_time",
            "late",
            "dropped",
            "dropped_deadline",
            "dropped_reclaimed",
            "dropped_revoked",
            "system_accuracy",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "p999_ms",
        ],
    );
    if let Some(cost) = &point.cost {
        entry.push("cost", cost_json(cost));
    }
    entry
}

// ---- analytic kinds ------------------------------------------------------------

fn phase_diagram(sc: &Scenario, cfg: &ExperimentConfig) -> ScenarioReport {
    let graph = sc.pipeline.build(cfg.slo_ms);
    let mut controller = LokiController::new(graph.clone(), LokiConfig::with_greedy());

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
    let mut hw_limit: Option<f64> = None;
    let mut acc_limit: Option<f64> = None;
    let mut last: Option<loki_core::AllocationOutcome> = None;
    let mut demand = 25.0;
    while demand <= 3200.0 {
        let out = controller.allocate_for_demand(demand, cfg.cluster_size);
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
        row.push("demand_qps", demand.into())
            .push("mode", format!("{:?}", out.mode).into())
            .push("servers_used", out.servers_used.into())
            .push("expected_accuracy", out.expected_accuracy.into())
            .push("servable_demand", out.servable_demand.into());
        rows.push(row);
        if let Some(prev) = &last {
            if prev.mode == ScalingMode::Hardware && out.mode != ScalingMode::Hardware {
                hw_limit = Some(prev.servable_demand);
            }
            if prev.mode != ScalingMode::Saturated && out.mode == ScalingMode::Saturated {
                acc_limit = Some(prev.servable_demand);
            }
        }
        last = Some(out);
        demand += 25.0;
    }
    if acc_limit.is_none() {
        acc_limit = last.as_ref().map(|o| o.servable_demand);
    }

    text.push('\n');
    match (hw_limit, acc_limit) {
        (Some(hw), Some(acc)) => {
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
                "effective capacity gain from accuracy scaling:       {:.2}x (paper: ~2.7-3.1x)",
                acc / hw
            );
        }
        _ => {
            text.push_str("could not identify both phase transitions; widen the demand sweep\n");
        }
    }

    let mut json = report_header(sc, cfg);
    json.push("points", Json::Arr(rows));
    if let (Some(hw), Some(acc)) = (hw_limit, acc_limit) {
        json.push("hardware_capacity_qps", hw.into())
            .push("max_capacity_qps", acc.into())
            .push("capacity_gain", (acc / hw).into());
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

    fn keys(json: Option<&Json>) -> String {
        match json {
            Some(Json::Obj(entries)) => {
                let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                keys.join(",")
            }
            other => panic!("expected an object, got {other:?}"),
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
        let report = run_scenario(sc, &cfg, &Runner::serial());
        assert_eq!(
            keys(report.json.get("throughput")),
            "name,arrivals,routing_cache_consults,routing_cache_hits,routing_warnings,\
             events_processed,on_time,late,dropped,dropped_deadline,dropped_reclaimed,\
             dropped_revoked,system_accuracy,p50_ms,p90_ms,p99_ms,p999_ms"
        );
        assert_eq!(
            keys(Some(&summary_json(&RunSummary::default()))),
            "total_arrivals,on_time,late,dropped,dropped_deadline,dropped_reclaimed,\
             dropped_revoked,slo_violation_ratio,system_accuracy,mean_utilization,p50_ms,\
             p90_ms,p99_ms,p999_ms,min_active_workers,max_active_workers,peak_goodput,\
             rerouted,events_processed"
        );
    }
}
