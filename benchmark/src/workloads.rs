//! The four benchmark workloads and one rep of each.
//!
//! The workloads are defined here rather than borrowed from the `loki_bench`
//! scenario registry, so that a change to the harness cannot silently change
//! what the benchmark measures. Every workload is open loop: Poisson arrivals
//! follow the trace's rate schedule in simulated time, so a query's latency
//! counts from its scheduled arrival and the generator never runs late. The
//! simulator receives only the generated arrival times; the seed never reaches
//! it except as `SimConfig::seed`.
//!
//! Why each workload exists (which layers it drives and which it bypasses) is
//! recorded in `README.md`.

use crate::host;
use crate::spans::{SpanLog, Timed};
use loki_core::{
    AutoscalerConfig, ForecastConfig, ForecastingProvisioner, LokiConfig, LokiController,
    ResourceManager,
};
use loki_pipeline::{zoo, PipelineGraph};
use loki_sim::{
    CostSummary, ElasticSimConfig, EngineError, LinkDelayModel, MarketConfig, MultiPipeline,
    MultiSimConfig, MultiSimulation, ObserveConfig, RouteMode, RunSummary, SimConfig, Simulation,
    WorkerClass, WorkerClassCatalog,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess, Trace};

/// End-to-end latency SLO of the traffic pipeline (the social lanes of
/// `zipf16_shared` get 1.2× this).
const SLO_MS: f64 = 250.0;
/// Fleet cap of `spot_timeline`: slack over the 20 workers its peak needs.
const SPOT_MAX_FLEET: usize = 28;
/// Peak rate of the diurnal single-lane workloads.
const DIURNAL_PEAK_QPS: f64 = 1500.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SteadyUniform,
    DiurnalHetnet,
    Zipf16Shared,
    SpotTimeline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyUniform,
        Workload::DiurnalHetnet,
        Workload::Zipf16Shared,
        Workload::SpotTimeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyUniform => "steady_uniform",
            Workload::DiurnalHetnet => "diurnal_hetnet",
            Workload::Zipf16Shared => "zipf16_shared",
            Workload::SpotTimeline => "spot_timeline",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds of arrivals.
    pub fn duration_s(self) -> usize {
        match self {
            Workload::SteadyUniform => 1000,
            Workload::DiurnalHetnet => 3600,
            Workload::Zipf16Shared => 1800,
            Workload::SpotTimeline => 600,
        }
    }

    /// End-to-end reps per `all` set: more for the shorter workloads, so each
    /// gets about the same measuring time and a steady median.
    pub fn reps(self) -> usize {
        match self {
            Workload::SteadyUniform | Workload::DiurnalHetnet => 15,
            Workload::Zipf16Shared => 21,
            Workload::SpotTimeline => 41,
        }
    }

    /// Engine threads: only the multi-lane workload runs lanes in parallel.
    pub fn jobs(self) -> usize {
        match self {
            Workload::Zipf16Shared => 2,
            _ => 1,
        }
    }

    pub fn is_multi_lane(self) -> bool {
        self == Workload::Zipf16Shared
    }
}

/// One rep's settings: a workload at a seed, plus the knobs the harness
/// varies around it (observation on/off pairs, the `jobs=1` identity rep,
/// tracing, and a shorter duration for smoke tests).
#[derive(Debug, Clone, PartialEq)]
pub struct RepConfig {
    pub workload: Workload,
    pub seed: u64,
    pub duration_s: usize,
    pub jobs: usize,
    pub histograms: bool,
    pub timeline: bool,
    pub traced: bool,
}

impl RepConfig {
    /// The workload as defined: histograms on everywhere, the timeline
    /// recorder on `spot_timeline` only, tracing off.
    pub fn new(workload: Workload, seed: u64) -> RepConfig {
        RepConfig {
            workload,
            seed,
            duration_s: workload.duration_s(),
            jobs: workload.jobs(),
            histograms: true,
            timeline: workload == Workload::SpotTimeline,
            traced: false,
        }
    }

    fn observe(&self) -> ObserveConfig {
        ObserveConfig {
            histograms: self.histograms,
            timeline: self.timeline,
            ..ObserveConfig::default()
        }
    }
}

/// One lane of a multi-lane result.
#[derive(Debug, Clone)]
pub struct LaneOutput {
    pub summary: RunSummary,
    pub wall_s: f64,
    pub barrier_wait_s: f64,
}

/// Everything one rep produced.
#[derive(Debug)]
pub struct RepOutput {
    /// Root arrivals generated (all lanes).
    pub arrivals: u64,
    /// Setup and run spans, plus the adapters' call spans when traced.
    pub spans: SpanLog,
    pub setup_span: usize,
    pub run_span: usize,
    /// The whole-run summary (the cluster aggregate for multi-lane runs).
    pub summary: RunSummary,
    /// Per-lane results (multi-lane runs only).
    pub lanes: Vec<LaneOutput>,
    pub cost: Option<CostSummary>,
    pub rebalances: u64,
    pub migrations: u64,
    pub journal_events: usize,
    /// Process CPU seconds spent inside the run span.
    pub cpu_s: f64,
}

/// Run one rep: generate the inputs, build the controllers and the
/// simulation, and run it through the `try_run*` entry points. `announce`
/// receives the arrival count as soon as the inputs exist, so a caller can
/// account for them even if the run then fails.
pub fn run_rep(cfg: &RepConfig, announce: impl FnOnce(u64)) -> Result<RepOutput, EngineError> {
    let mut log = SpanLog::default();
    let rep = log.open("rep", None);
    let setup = log.open("setup", Some(rep));
    let mut out = if cfg.workload.is_multi_lane() {
        run_zipf16(cfg, log, rep, setup, announce)
    } else {
        run_single_lane(cfg, log, rep, setup, announce)
    }?;
    out.spans.close(rep);
    Ok(out)
}

fn run_single_lane(
    cfg: &RepConfig,
    mut log: SpanLog,
    rep: usize,
    setup: usize,
    announce: impl FnOnce(u64),
) -> Result<RepOutput, EngineError> {
    let w = cfg.workload;
    let d = cfg.duration_s;
    let graph = zoo::traffic_analysis_pipeline(SLO_MS);
    let trace = log.time("workload.trace", setup, || match w {
        Workload::SteadyUniform => generators::constant(d, 2000.0),
        _ => generators::azure_like_diurnal(cfg.seed, d, 80.0, DIURNAL_PEAK_QPS),
    });
    let arrivals = log.time("workload.arrivals", setup, || {
        generate_arrivals(&trace, ArrivalProcess::Poisson, cfg.seed)
    });
    announce(arrivals.len() as u64);
    let links = match w {
        Workload::DiurnalHetnet => two_tier_links(),
        _ => LinkDelayModel::Uniform,
    };
    let (controller, mut policy) = log.time("controller.new", setup, || {
        let mut loki = LokiConfig::with_greedy();
        if w == Workload::DiurnalHetnet {
            loki.link_delays = links.clone();
            loki.route = RouteMode::LinkAware;
        }
        let controller = Timed::new(
            LokiController::new(graph.clone(), loki),
            Some(0),
            cfg.traced,
        );
        let policy = (w == Workload::SpotTimeline)
            .then(|| Timed::new(spot_provisioner(graph.num_tasks(), d), None, cfg.traced));
        (controller, policy)
    });
    let config = SimConfig {
        cluster_size: match w {
            Workload::SteadyUniform => 100,
            Workload::DiurnalHetnet => 20,
            _ => SPOT_MAX_FLEET,
        },
        seed: cfg.seed,
        initial_demand_hint: Some(trace.qps_at(0).max(1.0)),
        drain_s: if w == Workload::SteadyUniform {
            10.0
        } else {
            20.0
        },
        link_delays: links,
        elastic: (w == Workload::SpotTimeline).then(|| spot_fleet(&trace, graph.num_tasks(), d)),
        observe: cfg.observe(),
        ..SimConfig::default()
    };
    let mut sim = log.time("engine.new", setup, || {
        Simulation::new(&graph, config, controller)
    });
    log.close(setup);

    let run = log.open("run", Some(rep));
    let cpu_before = host::cpu_s();
    let result = match policy.as_mut() {
        Some(policy) => sim.try_run_elastic(&arrivals, policy),
        None => sim.try_run(&arrivals),
    };
    let cpu_s = host::cpu_s() - cpu_before;
    log.close(run);
    let result = result?;
    log.adopt(run, sim.into_controller().take_spans());
    if let Some(policy) = policy.as_mut() {
        log.adopt(run, policy.take_spans());
    }
    Ok(RepOutput {
        arrivals: arrivals.len() as u64,
        spans: log,
        setup_span: setup,
        run_span: run,
        summary: result.summary,
        lanes: Vec::new(),
        cost: result.cost,
        rebalances: 0,
        migrations: 0,
        journal_events: result.journal.map_or(0, |j| j.len()),
        cpu_s,
    })
}

/// The 16 tenants of `zipf16_shared`: lane `i` carries `1/(i+1)` of the
/// demand (normalised by the 16th harmonic number); even lanes are traffic
/// pipelines on the diurnal trace, odd lanes social-media pipelines on the
/// bursty trace with a 20% looser SLO.
const ZIPF_LANES: usize = 16;

fn run_zipf16(
    cfg: &RepConfig,
    mut log: SpanLog,
    rep: usize,
    setup: usize,
    announce: impl FnOnce(u64),
) -> Result<RepOutput, EngineError> {
    let d = cfg.duration_s;
    let harmonic: f64 = (1..=ZIPF_LANES).map(|k| 1.0 / k as f64).sum();
    let share = |i: usize| 1.0 / ((i + 1) as f64 * harmonic);
    let social = |i: usize| i % 2 == 1;
    let graphs: Vec<PipelineGraph> = (0..ZIPF_LANES)
        .map(|i| {
            if social(i) {
                zoo::social_media_pipeline(SLO_MS * 1.2)
            } else {
                zoo::traffic_analysis_pipeline(SLO_MS)
            }
        })
        .collect();
    let traces: Vec<Trace> = log.time("workload.trace", setup, || {
        (0..ZIPF_LANES)
            .map(|i| {
                let (base, peak) = (400.0 * share(i), 1600.0 * share(i));
                if social(i) {
                    generators::twitter_like_bursty(cfg.seed ^ 0x5eed, d, base, peak)
                } else {
                    generators::azure_like_diurnal(cfg.seed, d, base, peak)
                }
            })
            .collect()
    });
    // Lanes after the first perturb the seed so co-served frontends do not
    // share an arrival pattern.
    let arrivals: Vec<Vec<f64>> = log.time("workload.arrivals", setup, || {
        traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let seed = cfg.seed.wrapping_add(i as u64 * 7919);
                generate_arrivals(t, ArrivalProcess::Poisson, seed)
            })
            .collect()
    });
    let total_arrivals: u64 = arrivals.iter().map(|a| a.len() as u64).sum();
    announce(total_arrivals);
    let (controllers, mut arbiter) = log.time("controller.new", setup, || {
        let controllers: Vec<Timed<LokiController>> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let loki = LokiController::new(g.clone(), LokiConfig::with_greedy());
                Timed::new(loki, Some(i as u32), cfg.traced)
            })
            .collect();
        let arbiter = Timed::new(ResourceManager::default(), None, cfg.traced);
        (controllers, arbiter)
    });
    let config = SimConfig {
        cluster_size: 64,
        seed: cfg.seed,
        drain_s: 10.0,
        observe: cfg.observe(),
        ..SimConfig::default()
    };
    let mut sim = log.time("engine.new", setup, || {
        let mut sim = MultiSimulation::new(MultiSimConfig {
            sim: config,
            jobs: cfg.jobs,
        });
        for (i, (controller, arrivals_s)) in controllers.into_iter().zip(arrivals).enumerate() {
            sim.add_pipeline(MultiPipeline {
                name: format!("zipf{i:02}"),
                graph: &graphs[i],
                controller,
                arrivals_s,
                initial_demand_hint: Some(traces[i].qps_at(0).max(1.0)),
            });
        }
        sim
    });
    log.close(setup);

    let run = log.open("run", Some(rep));
    let cpu_before = host::cpu_s();
    let result = sim.try_run(&mut arbiter);
    let cpu_s = host::cpu_s() - cpu_before;
    log.close(run);
    let result = result?;
    for mut pipeline in sim.into_pipelines() {
        log.adopt(run, pipeline.controller.take_spans());
    }
    log.adopt(run, arbiter.take_spans());
    Ok(RepOutput {
        arrivals: total_arrivals,
        spans: log,
        setup_span: setup,
        run_span: run,
        summary: result.aggregate(64).summary,
        lanes: result
            .pipelines
            .iter()
            .map(|p| LaneOutput {
                summary: p.result.summary.clone(),
                wall_s: p.lane_wall_s,
                barrier_wait_s: p.barrier_wait_s,
            })
            .collect(),
        cost: result.cost,
        rebalances: result.rebalances,
        migrations: result.migrations,
        journal_events: result.journal.map_or(0, |j| j.len()),
        cpu_s,
    })
}

/// Two interconnect classes striped across the cluster: 0.2 ms hops within a
/// class, 5 ms across, 2 ms from the frontend.
fn two_tier_links() -> LinkDelayModel {
    LinkDelayModel::PerWorkerClass {
        classes: 2,
        delay_ms: vec![0.2, 5.0, 5.0, 0.2],
        frontend_ms: vec![2.0, 2.0],
    }
}

/// Smallest fleet that serves the pipeline at all (one worker per task).
fn fleet_floor(num_tasks: usize) -> usize {
    num_tasks.clamp(2, SPOT_MAX_FLEET)
}

/// `spot_timeline`'s fleet: an on-demand reference class plus its spot twin
/// at 0.32× the price, starting at the size the trace's mean demand needs,
/// on a market with 6 revocations per spot-worker-hour, 5% stockouts and a
/// stepwise spot price over the compressed day.
fn spot_fleet(trace: &Trace, num_tasks: usize, duration_s: usize) -> ElasticSimConfig {
    let mean_share = (trace.mean_qps() / DIURNAL_PEAK_QPS).clamp(0.0, 1.0);
    let initial = ((SPOT_MAX_FLEET as f64 * mean_share).ceil() as usize)
        .clamp(fleet_floor(num_tasks), SPOT_MAX_FLEET);
    let on_demand = WorkerClass {
        name: "a100".to_string(),
        latency_scale: 1.0,
        memory_gb: 80.0,
        price_per_hour: 2.5,
        boot_delay_s: 20.0,
        spot: false,
    };
    let spot = WorkerClass {
        name: "a100-spot".to_string(),
        price_per_hour: 2.5 * 0.32,
        spot: true,
        ..on_demand.clone()
    };
    let t = duration_s as f64;
    ElasticSimConfig {
        catalog: WorkerClassCatalog {
            classes: vec![on_demand, spot],
        },
        initial: vec![(0, initial)],
        max_fleet: SPOT_MAX_FLEET,
        decide_interval_s: 10.0,
        market: Some(MarketConfig {
            revocation_rate_per_hour: 6.0,
            price_schedule: vec![(0.0, 0.9), (0.45 * t, 1.3), (0.8 * t, 0.95)],
            stockout_probability: 0.05,
            ..MarketConfig::default()
        }),
    }
}

/// The forecasting provisioner: one seasonal period per compressed day,
/// buying capacity one boot delay plus one decide interval ahead.
fn spot_provisioner(num_tasks: usize, duration_s: usize) -> ForecastingProvisioner {
    ForecastingProvisioner::new(ForecastConfig {
        autoscaler: AutoscalerConfig {
            min_fleet: fleet_floor(num_tasks),
            max_fleet: SPOT_MAX_FLEET,
            qps_per_worker: DIURNAL_PEAK_QPS / SPOT_MAX_FLEET as f64,
            ..AutoscalerConfig::default()
        },
        period_s: (duration_s as f64).max(1.0),
        lead_s: 20.0 + 10.0,
        ..ForecastConfig::default()
    })
}

/// The correctness gate every rep passes: query conservation, drop-cause
/// accounting, ordered percentiles (on the whole run and on every lane), and
/// the simulator seeing exactly the generated arrivals.
pub fn check(out: &RepOutput) -> Vec<String> {
    let mut problems = Vec::new();
    check_summary("run", &out.summary, &mut problems);
    for (i, lane) in out.lanes.iter().enumerate() {
        check_summary(&format!("lane {i}"), &lane.summary, &mut problems);
    }
    if out.summary.total_arrivals != out.arrivals {
        problems.push(format!(
            "run: simulator saw {} arrivals, {} were generated",
            out.summary.total_arrivals, out.arrivals
        ));
    }
    problems
}

fn check_summary(label: &str, s: &RunSummary, problems: &mut Vec<String>) {
    let finished = s.total_on_time + s.total_late + s.total_dropped;
    if s.total_arrivals != finished {
        problems.push(format!(
            "{label}: arrivals {} != on_time {} + late {} + dropped {}",
            s.total_arrivals, s.total_on_time, s.total_late, s.total_dropped
        ));
    }
    let causes = s.total_dropped_deadline + s.total_dropped_reclaimed + s.total_dropped_revoked;
    if s.total_dropped != causes {
        problems.push(format!(
            "{label}: dropped {} != deadline {} + reclaimed {} + revoked {}",
            s.total_dropped,
            s.total_dropped_deadline,
            s.total_dropped_reclaimed,
            s.total_dropped_revoked
        ));
    }
    if !(s.p50_ms <= s.p90_ms && s.p90_ms <= s.p99_ms && s.p99_ms <= s.p999_ms) {
        problems.push(format!(
            "{label}: percentiles out of order: p50 {} p90 {} p99 {} p999 {}",
            s.p50_ms, s.p90_ms, s.p99_ms, s.p999_ms
        ));
    }
}

/// A digest of everything the simulation decided (the whole-run summary, the
/// per-lane summaries and the cost), bit for bit: two reps of one workload at
/// one seed must print the same digest whatever the host, the thread count
/// or the tracing.
pub fn fingerprint(out: &RepOutput) -> String {
    let mut text = format!("{:?}|{:?}", out.summary, out.cost);
    for lane in &out.lanes {
        text.push_str(&format!("|{:?}", lane.summary));
    }
    // FNV-1a, 64 bit.
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, jobs: usize, traced: bool) -> RepOutput {
        let cfg = RepConfig {
            duration_s: 20,
            jobs,
            traced,
            ..RepConfig::new(workload, 7)
        };
        let mut announced = None;
        let out = run_rep(&cfg, |n| announced = Some(n)).expect("smoke rep runs");
        assert_eq!(announced, Some(out.arrivals));
        assert!(
            out.arrivals > 0,
            "{} generated no arrivals",
            workload.name()
        );
        let problems = check(&out);
        assert!(problems.is_empty(), "{}: {problems:?}", workload.name());
        out
    }

    #[test]
    fn every_workload_passes_the_gate_at_twenty_seconds() {
        for workload in Workload::ALL {
            let out = smoke(workload, workload.jobs(), false);
            assert!(out.spans.dur_s(out.run_span) > 0.0);
            assert_eq!(
                out.lanes.len(),
                if workload.is_multi_lane() { 16 } else { 0 }
            );
            assert_eq!(out.cost.is_some(), workload == Workload::SpotTimeline);
        }
    }

    #[test]
    fn tracing_and_jobs_do_not_change_the_simulation() {
        let serial = smoke(Workload::Zipf16Shared, 1, false);
        let traced = smoke(Workload::Zipf16Shared, 2, true);
        assert_eq!(fingerprint(&serial), fingerprint(&traced));
        assert!(traced.spans.named("controller.routing").count() > 0);
        assert!(traced.spans.named("arbiter.partition").count() > 0);
        assert_eq!(serial.spans.named("controller.routing").count(), 0);
        let spot = smoke(Workload::SpotTimeline, 1, true);
        assert!(spot.spans.named("provisioner.decide").count() > 0);
        assert!(spot.journal_events > 0);
    }

    #[test]
    fn the_gate_reports_broken_conservation() {
        let mut out = smoke(Workload::SteadyUniform, 1, false);
        out.summary.total_late += 1;
        out.summary.p90_ms = out.summary.p999_ms + 1.0;
        let problems = check(&out);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("arrivals"));
        assert!(problems[1].contains("percentiles"));
    }
}
