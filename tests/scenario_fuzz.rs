//! Seeded scenario fuzzer for the sharded engine.
//!
//! Every case draws a random shared-cluster scenario from its seed: one to
//! three pipeline lanes (traffic and social alternating), a random SLO,
//! cluster size, link model (uniform, two-tier or per-edge) and model-swap
//! cost, and in most cases an elastic fleet with an on-demand and a spot
//! class, exposed to a market that revokes spot workers, denies provisions
//! and steps the spot price once. Each lane's controller is Loki-greedy,
//! InferLine or Proteus, each with a random drop policy; all three plan
//! through the shared performance model and emit through
//! `MostAccurateFirst`. A Loki lane plans with the case's link model and a
//! random route mode, so link-aware ordering runs on every link model;
//! InferLine and Proteus budget every hop with the model's worst one, as
//! every `loki` run builds them. The cluster is arbitrated by the
//! `ResourceManager`, an even `StaticPartition` or one with the lanes' drawn
//! rates as shares, and an elastic fleet is scaled by the
//! `ReactiveAutoscaler` or the `ForecastingProvisioner`. The timeline is
//! always on; some cases also trace.
//!
//! Each case runs through `try_run*` at `jobs = 1` and at `jobs = 2`, and the
//! engine's universal invariants must hold:
//!
//! * no `EngineError`;
//! * per lane, every arrival is on time, late or dropped, and every drop has
//!   exactly one cause;
//! * per lane, `p50 <= p90 <= p99 <= p999`;
//! * the journal is time-ordered;
//! * per class, billed GPU time never exceeds every worker the class ever had
//!   (initial plus provisioned) warm for the whole run;
//! * `jobs = 1` and `jobs = 2` agree on summaries, intervals, latency
//!   histograms, traces, cost, journal and migration counts.
//!
//! A failing case names its seed; rerun it alone by narrowing `CASES`.

use loki_baselines::{InferLineController, ProteusController};
use loki_core::{
    AutoscalerConfig, ForecastConfig, ForecastingProvisioner, LokiConfig, LokiController,
    ReactiveAutoscaler, ResourceManager, ResourceManagerConfig,
};
use loki_pipeline::{zoo, PipelineGraph};
use loki_sim::types::{secs_to_us, us_to_secs};
use loki_sim::{
    Controller, DropPolicy, ElasticPolicy, ElasticSimConfig, LinkDelayModel, MarketConfig,
    MultiPipeline, MultiSimConfig, MultiSimResult, MultiSimulation, ObserveConfig, ResourceArbiter,
    RouteMode, SimConfig, StaticPartition, WorkerClass, WorkerClassCatalog,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds `0..CASES`, each one scenario.
const CASES: std::ops::Range<u64> = 0..32;
/// Seconds of arrivals per lane.
const ARRIVAL_S: usize = 40;
/// Seconds the run continues after the last arrival.
const DRAIN_S: f64 = 10.0;

/// The serving controllers a lane may draw.
#[derive(Debug, Clone, Copy, PartialEq)]
enum System {
    Loki,
    InferLine,
    Proteus,
}

impl System {
    /// The lane's controller. Loki plans with `links` and `route`; the
    /// baselines know one comm latency, so they budget with the worst hop of
    /// `links` (as `loki_bench::scenario::ControllerSpec::build` does).
    fn controller(
        self,
        graph: &PipelineGraph,
        drop_policy: DropPolicy,
        links: &LinkDelayModel,
        route: RouteMode,
    ) -> Box<dyn Controller> {
        let graph = graph.clone();
        match self {
            System::Loki => Box::new(LokiController::new(
                graph,
                LokiConfig {
                    drop_policy,
                    link_delays: links.clone(),
                    route,
                    ..LokiConfig::with_greedy()
                },
            )),
            System::InferLine => {
                let mut controller = InferLineController::with_drop_policy(graph, drop_policy);
                let comm = &mut controller.config_mut().comm_latency_ms;
                *comm = links.max_hop_ms(*comm);
                Box::new(controller)
            }
            System::Proteus => {
                let mut controller = ProteusController::with_drop_policy(graph, drop_policy);
                let comm = &mut controller.config_mut().comm_latency_ms;
                *comm = links.max_hop_ms(*comm);
                Box::new(controller)
            }
        }
    }
}

/// The cluster arbiters a case may draw.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arbiter {
    /// The contended `ResourceManager`.
    Manager,
    /// `StaticPartition::even`.
    Even,
    /// `StaticPartition::with_shares` over the lanes' drawn rates.
    Shares,
}

/// The fleet policies an elastic case may draw, with their sizing.
#[derive(Debug, Clone)]
enum Provisioner {
    Reactive(AutoscalerConfig),
    Forecasting(ForecastConfig),
}

/// One random scenario: the simulator config, the per-lane pipelines,
/// arrivals and controllers, and the cluster policies with their knobs.
struct Scenario {
    sim: SimConfig,
    lanes: Vec<(PipelineGraph, Vec<f64>, f64)>,
    /// Each lane's controller, drop policy and route mode.
    systems: Vec<(System, DropPolicy, RouteMode)>,
    rebalance_s: f64,
    arbiter: Arbiter,
    /// An elastic case's fleet policy.
    provisioner: Option<Provisioner>,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let slo_ms = rng.gen_range(150.0..400.0);
    let cluster = rng.gen_range(6..25);
    let lanes: Vec<_> = (0..rng.gen_range(1..4))
        .map(|li: usize| {
            let graph = if li.is_multiple_of(2) {
                zoo::traffic_analysis_pipeline(slo_ms)
            } else {
                zoo::social_media_pipeline(slo_ms)
            };
            let qps = rng.gen_range(20.0..300.0);
            let trace = generators::constant(ARRIVAL_S, qps);
            let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, seed * 7 + li as u64);
            (graph, arrivals, qps)
        })
        .collect();
    let model_swap_ms = if rng.gen_bool(0.5) {
        0.0
    } else {
        rng.gen_range(50.0..3000.0)
    };
    let (elastic, autoscaler) = if rng.gen_bool(0.7) {
        let on_demand = WorkerClass {
            name: "gpu".to_string(),
            latency_scale: 1.0,
            memory_gb: 40.0,
            price_per_hour: 3.0,
            boot_delay_s: rng.gen_range(1.0..8.0),
            spot: false,
        };
        let spot = WorkerClass {
            name: "gpu-spot".to_string(),
            price_per_hour: 1.0,
            spot: true,
            ..on_demand.clone()
        };
        let max_fleet = cluster + rng.gen_range(0..cluster);
        let market = MarketConfig {
            revocation_rate_per_hour: rng.gen_range(0.0..200.0),
            revocation_deadline_s: rng.gen_range(0.0..3.0),
            stockout_probability: rng.gen_range(0.0..0.5),
            price_schedule: vec![(rng.gen_range(5.0..35.0), rng.gen_range(0.5..2.0))],
            ..MarketConfig::default()
        };
        let elastic = ElasticSimConfig {
            catalog: WorkerClassCatalog {
                classes: vec![on_demand, spot],
            },
            initial: vec![(0, cluster)],
            max_fleet,
            decide_interval_s: rng.gen_range(3.0..10.0),
            market: Some(market),
        };
        let autoscaler = AutoscalerConfig {
            min_fleet: 2,
            max_fleet,
            qps_per_worker: rng.gen_range(20.0..80.0),
            ..AutoscalerConfig::default()
        };
        (Some(elastic), Some(autoscaler))
    } else {
        (None, None)
    };
    let trace_sample = if rng.gen_bool(0.3) { 7 } else { 0 };
    let rebalance_s = rng.gen_range(2.0..8.0);
    // Drawn after every other draw, so the rest of a case does not depend on
    // which controllers, links or routes it drew.
    let systems: Vec<_> = (0..lanes.len())
        .map(|_| {
            let system =
                [System::Loki, System::InferLine, System::Proteus][rng.gen_range(0..3usize)];
            (system, DropPolicy::all()[rng.gen_range(0..4usize)])
        })
        .collect();
    let link_delays = match rng.gen_range(0..3) {
        0 => LinkDelayModel::Uniform,
        1 => LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![0.2, 5.0, 5.0, 0.2],
            frontend_ms: vec![2.0, 2.0],
        },
        // Task 0 feeds task 1 in both pipelines.
        _ => LinkDelayModel::PerEdge {
            frontend_ms: 2.0,
            default_ms: 2.0,
            edges: vec![((0, 1), 5.0)],
        },
    };
    let systems = systems
        .into_iter()
        .map(|(system, drop_policy)| {
            let route = [RouteMode::Accuracy, RouteMode::LinkAware][rng.gen_range(0..2usize)];
            (system, drop_policy, route)
        })
        .collect();
    // The cluster policies come last, so no other draw depends on them.
    let arbiter = [Arbiter::Manager, Arbiter::Even, Arbiter::Shares][rng.gen_range(0..3usize)];
    let provisioner = elastic.as_ref().zip(autoscaler).map(|(elastic, sizing)| {
        if rng.gen_bool(0.5) {
            return Provisioner::Reactive(sizing);
        }
        // One seasonal period per run, buying one boot delay plus one
        // decide interval ahead, as `loki` configures it.
        let boot_s = elastic.catalog.classes[0].boot_delay_s;
        Provisioner::Forecasting(ForecastConfig {
            autoscaler: sizing,
            period_s: ARRIVAL_S as f64,
            lead_s: boot_s + elastic.decide_interval_s,
            ..ForecastConfig::default()
        })
    });
    Scenario {
        sim: SimConfig {
            cluster_size: cluster,
            link_delays,
            model_swap_ms,
            control_interval_s: 5.0,
            seed,
            drain_s: DRAIN_S,
            elastic,
            observe: ObserveConfig {
                trace_sample,
                timeline: true,
                ..ObserveConfig::default()
            },
            ..SimConfig::default()
        },
        lanes,
        systems,
        rebalance_s,
        arbiter,
        provisioner,
    }
}

fn run(s: &Scenario, seed: u64, jobs: usize) -> MultiSimResult {
    let mut multi: MultiSimulation<'_> = MultiSimulation::new(MultiSimConfig {
        sim: s.sim.clone(),
        jobs,
    });
    let links = &s.sim.link_delays;
    for (li, ((graph, arrivals, qps), &(system, drop_policy, route))) in
        s.lanes.iter().zip(&s.systems).enumerate()
    {
        multi.add_pipeline(MultiPipeline {
            name: format!("lane{li}"),
            graph,
            controller: system.controller(graph, drop_policy, links, route),
            arrivals_s: arrivals.clone(),
            initial_demand_hint: Some(*qps),
        });
    }
    let mut arbiter: Box<dyn ResourceArbiter> = match s.arbiter {
        Arbiter::Manager => Box::new(ResourceManager::new(ResourceManagerConfig {
            rebalance_interval_s: s.rebalance_s,
            ..ResourceManagerConfig::default()
        })),
        Arbiter::Even => Box::new(StaticPartition::even(s.lanes.len())),
        Arbiter::Shares => Box::new(StaticPartition::with_shares(
            "static-shares",
            s.lanes.iter().map(|&(_, _, qps)| qps).collect(),
        )),
    };
    let mut policy: Option<Box<dyn ElasticPolicy>> = match &s.provisioner {
        Some(Provisioner::Reactive(cfg)) => Some(Box::new(ReactiveAutoscaler::new(cfg.clone()))),
        Some(Provisioner::Forecasting(cfg)) => {
            Some(Box::new(ForecastingProvisioner::new(cfg.clone())))
        }
        None => None,
    };
    let result = match policy.as_deref_mut() {
        Some(policy) => multi.try_run_elastic(&mut *arbiter, policy),
        None => multi.try_run(&mut *arbiter),
    };
    result.unwrap_or_else(|e| panic!("case {seed}, jobs={jobs}: {e}"))
}

fn check_invariants(s: &Scenario, seed: u64, r: &MultiSimResult) {
    for p in &r.pipelines {
        let m = &p.result.summary;
        let lane = &p.name;
        assert_eq!(
            m.total_arrivals,
            m.total_on_time + m.total_late + m.total_dropped,
            "case {seed} {lane}: arrivals not conserved: {m:?}"
        );
        assert_eq!(
            m.total_dropped,
            m.total_dropped_deadline + m.total_dropped_reclaimed + m.total_dropped_revoked,
            "case {seed} {lane}: drops without exactly one cause: {m:?}"
        );
        assert!(
            m.p50_ms <= m.p90_ms && m.p90_ms <= m.p99_ms && m.p99_ms <= m.p999_ms,
            "case {seed} {lane}: percentiles out of order: {m:?}"
        );
    }
    let journal = r.journal.as_ref().expect("timeline on");
    assert!(
        journal
            .events
            .windows(2)
            .all(|w| w[0].time_us <= w[1].time_us),
        "case {seed}: journal out of time order"
    );
    if let (Some(elastic), Some(cost)) = (&s.sim.elastic, &r.cost) {
        // The run ends at the last arrival plus the drain, on the engine's
        // microsecond clock.
        let run_s = s
            .lanes
            .iter()
            .filter_map(|(_, a, _)| a.last())
            .map(|&last| us_to_secs(secs_to_us(last) + secs_to_us(DRAIN_S)))
            .fold(0.0, f64::max);
        for (c, class) in cost.per_class.iter().enumerate() {
            let initial: usize = elastic
                .initial
                .iter()
                .filter(|(k, _)| *k == c)
                .map(|(_, n)| n)
                .sum();
            let bound = (initial as f64 + class.provisioned as f64) * run_s;
            assert!(
                class.gpu_seconds <= bound + 1e-9,
                "case {seed}: class {} billed {} GPU-s, more than {bound}",
                class.class,
                class.gpu_seconds
            );
        }
    }
}

/// Everything simulated a run produced, rendered for a bit-identity check
/// (host timings are excluded). `Debug` renderings compare
/// equal exactly when the values are identical, NaN fields included.
fn simulated(r: &MultiSimResult) -> Vec<(String, String)> {
    let mut out = vec![
        (
            "cluster".to_string(),
            format!("{} {} {}", r.total_events, r.rebalances, r.migrations),
        ),
        ("cost".to_string(), format!("{:?}", r.cost)),
        ("journal".to_string(), format!("{:?}", r.journal)),
    ];
    for p in &r.pipelines {
        let res = &p.result;
        out.push((format!("{} summary", p.name), format!("{:?}", res.summary)));
        out.push((
            format!("{} intervals", p.name),
            format!("{:?}", res.intervals),
        ));
        out.push((format!("{} latency", p.name), format!("{:?}", res.latency)));
        out.push((format!("{} trace", p.name), format!("{:?}", res.trace)));
        out.push((format!("{} window", p.name), format!("{:?}", res.window)));
    }
    out
}

#[test]
fn random_scenarios_keep_the_engine_invariants_at_every_jobs_value() {
    let (mut elastic, mut revocations, mut migrations) = (0, 0, 0);
    let (mut link_aware, mut per_edge, mut budgeted_baselines) = (0, 0, 0);
    let (mut systems, mut arbiters) = (Vec::new(), Vec::new());
    let (mut reactive, mut forecasting) = (0, 0);
    for seed in CASES {
        let s = scenario(seed);
        if !arbiters.contains(&s.arbiter) {
            arbiters.push(s.arbiter);
        }
        match s.provisioner {
            Some(Provisioner::Reactive(_)) => reactive += 1,
            Some(Provisioner::Forecasting(_)) => forecasting += 1,
            None => {}
        }
        let uniform = s.sim.link_delays == LinkDelayModel::Uniform;
        for &(system, _, route) in &s.systems {
            if !systems.contains(&system) {
                systems.push(system);
            }
            link_aware += usize::from(system == System::Loki && route == RouteMode::LinkAware);
            budgeted_baselines += usize::from(system != System::Loki && !uniform);
        }
        per_edge += usize::from(matches!(s.sim.link_delays, LinkDelayModel::PerEdge { .. }));
        let serial = run(&s, seed, 1);
        let parallel = run(&s, seed, 2);
        check_invariants(&s, seed, &serial);
        check_invariants(&s, seed, &parallel);
        for ((what, a), (_, b)) in simulated(&serial).into_iter().zip(simulated(&parallel)) {
            assert!(a == b, "case {seed}: jobs=1 and jobs=2 differ in {what}");
        }
        elastic += usize::from(s.sim.elastic.is_some());
        revocations += serial.cost.as_ref().map_or(0, |c| c.revocations);
        migrations += serial.migrations;
    }
    // The generator must actually reach the code it is meant to stress.
    assert!(elastic > 0 && revocations > 0 && migrations > 0);
    assert_eq!(systems.len(), 3, "every controller is drawn: {systems:?}");
    assert_eq!(arbiters.len(), 3, "every arbiter is drawn: {arbiters:?}");
    assert!(
        reactive > 0 && forecasting > 0,
        "every fleet policy is drawn: {reactive} reactive, {forecasting} forecasting"
    );
    assert!(
        link_aware > 0 && per_edge > 0 && budgeted_baselines > 0,
        "link-aware Loki lanes {link_aware}, per-edge cases {per_edge}, \
         baseline lanes on two-tier or per-edge links {budgeted_baselines}"
    );
}
