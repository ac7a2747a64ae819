//! Cross-pipeline determinism and degeneracy guards for multi-pipeline serving.
//!
//! Three layers of protection for the shared-cluster engine:
//!
//! 1. `zero_demand_lane_is_bit_identical_to_single_pipeline_run`: a
//!    two-pipeline run where one pipeline offers no demand (and is granted no
//!    workers) must reproduce the single-pipeline run of the other pipeline
//!    *bit for bit* — same workload, same seed, same `RunSummary`, including
//!    the event count. This pins the property that the multi-lane engine is a
//!    strict generalization of the single-pipeline engine (the determinism
//!    goldens in `determinism.rs` pin the single-pipeline side).
//! 2. `multi_pipeline_same_seed_runs_are_identical`: contended two-pipeline
//!    runs are deterministic per seed, per lane.
//! 3. Migration semantics: a demand shift moves workers between pipelines
//!    through the Resource Manager (and a static split never does).

use loki_core::{LokiConfig, LokiController, ResourceManager, ResourceManagerConfig};
use loki_pipeline::zoo;
use loki_sim::{
    ElasticAction, ElasticObservation, ElasticPolicy, ElasticSimConfig, MultiPipeline,
    MultiSimResult, MultiSimulation, RunSummary, SimConfig, Simulation, StaticPartition,
    WorkerClass, WorkerClassCatalog,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess, Trace};

/// The single-pipeline workload of the determinism goldens: traffic pipeline,
/// 30 s at 300 QPS, arrival seed 11.
fn traffic_arrivals() -> Vec<f64> {
    let trace = generators::constant(30, 300.0);
    generate_arrivals(&trace, ArrivalProcess::Poisson, 11)
}

fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster_size: 20,
        drain_s: 10.0,
        seed,
        ..SimConfig::default()
    }
}

fn loki(graph: &loki_pipeline::PipelineGraph) -> LokiController {
    LokiController::new(graph.clone(), LokiConfig::with_greedy())
}

#[test]
fn zero_demand_lane_is_bit_identical_to_single_pipeline_run() {
    let traffic = zoo::traffic_analysis_pipeline(250.0);
    let social = zoo::social_media_pipeline(250.0);
    let arrivals = traffic_arrivals();

    // The single-pipeline reference run (exactly the goldens' configuration).
    let single: RunSummary = {
        let mut config = base_config(42);
        config.initial_demand_hint = Some(300.0);
        let mut sim = Simulation::new(&traffic, config, loki(&traffic));
        sim.try_run(&arrivals).unwrap().summary
    };

    // The same run as lane 0 of a two-pipeline cluster whose second pipeline
    // offers zero demand: the Resource Manager grants it zero workers, its
    // ticks touch only its own (empty) state, and lane 0 must execute the
    // identical event schedule.
    let mut multi = MultiSimulation::new(base_config(42));
    multi.add_pipeline(MultiPipeline {
        name: "traffic".to_string(),
        graph: &traffic,
        controller: Box::new(loki(&traffic)),
        arrivals_s: arrivals.clone(),
        initial_demand_hint: Some(300.0),
    });
    multi.add_pipeline(MultiPipeline {
        name: "social".to_string(),
        graph: &social,
        controller: Box::new(loki(&social)),
        arrivals_s: Vec::new(),
        initial_demand_hint: None,
    });
    let mut manager = ResourceManager::default();
    let result = multi.try_run(&mut manager).unwrap();

    assert_eq!(
        result.migrations, 0,
        "an idle lane must never claim workers"
    );
    let lane0 = &result.pipelines[0].result.summary;
    assert_eq!(
        lane0, &single,
        "zero-demand degenerate case must be bit-identical to the single-pipeline run"
    );
    let lane1 = &result.pipelines[1].result.summary;
    assert_eq!(lane1.total_arrivals, 0);
    assert_eq!(lane1.max_active_workers, 0);
}

/// A two-pipeline contended workload: traffic carries most of the demand,
/// social a fraction, both over the shared 20-worker cluster.
fn contended_run(seed: u64) -> MultiSimResult {
    let traffic = zoo::traffic_analysis_pipeline(250.0);
    let social = zoo::social_media_pipeline(300.0);
    let traffic_trace = generators::constant(40, 400.0);
    let social_trace = generators::constant(40, 120.0);
    let mut multi = MultiSimulation::new(base_config(seed));
    multi.add_pipeline(MultiPipeline {
        name: "traffic".to_string(),
        graph: &traffic,
        controller: Box::new(loki(&traffic)),
        arrivals_s: generate_arrivals(&traffic_trace, ArrivalProcess::Poisson, 11),
        initial_demand_hint: Some(400.0),
    });
    multi.add_pipeline(MultiPipeline {
        name: "social".to_string(),
        graph: &social,
        controller: Box::new(loki(&social)),
        arrivals_s: generate_arrivals(&social_trace, ArrivalProcess::Poisson, 12),
        initial_demand_hint: Some(120.0),
    });
    let mut manager = ResourceManager::default();
    multi.try_run(&mut manager).unwrap()
}

#[test]
fn multi_pipeline_same_seed_runs_are_identical() {
    let a = contended_run(42);
    let b = contended_run(42);
    assert_eq!(a.pipelines.len(), 2);
    for (lane_a, lane_b) in a.pipelines.iter().zip(&b.pipelines) {
        assert_eq!(lane_a.name, lane_b.name);
        assert_eq!(
            lane_a.result.summary, lane_b.result.summary,
            "same-seed multi-pipeline runs must produce identical summaries"
        );
    }
    assert_eq!(a.total_events, b.total_events);
    assert_eq!(a.migrations, b.migrations);

    // Different seeds must actually diverge.
    let c = contended_run(43);
    assert_ne!(
        a.pipelines[0].result.summary.events_processed,
        c.pipelines[0].result.summary.events_processed
    );
}

#[test]
fn both_pipelines_serve_on_the_shared_cluster() {
    let result = contended_run(42);
    for lane in &result.pipelines {
        let s = &lane.result.summary;
        assert!(s.total_arrivals > 0, "{} saw no arrivals", lane.name);
        assert!(
            s.slo_violation_ratio < 0.1,
            "{} violations {} on an adequately-sized shared cluster",
            lane.name,
            s.slo_violation_ratio
        );
        assert!(s.max_active_workers > 0, "{} never ran a worker", lane.name);
    }
    // Partitions are disjoint: concurrently active workers never exceed the
    // cluster, and the demand skew shows in the partition sizes.
    let active: usize = result
        .pipelines
        .iter()
        .map(|p| p.result.summary.max_active_workers)
        .sum();
    assert!(active <= 20);
    let aggregate = result.aggregate(20).summary;
    assert_eq!(
        aggregate.total_arrivals,
        result
            .pipelines
            .iter()
            .map(|p| p.result.summary.total_arrivals)
            .sum::<u64>()
    );
    assert!(aggregate.events_processed >= result.pipelines[0].result.summary.events_processed);
}

#[test]
fn demand_shift_migrates_workers_between_pipelines() {
    // Pipeline A starts hot and goes idle; pipeline B starts idle and ramps
    // up. The Resource Manager must move workers from A to B mid-run.
    let tiny_a = zoo::tiny_pipeline(200.0);
    let tiny_b = zoo::tiny_pipeline(200.0);
    let mut series_a = vec![120.0; 30];
    series_a.extend(vec![1.0; 30]);
    let mut series_b = vec![1.0; 30];
    series_b.extend(vec![120.0; 30]);
    let trace_a = Trace::new("shift-a", series_a);
    let trace_b = Trace::new("shift-b", series_b);
    // Step-function demand: a fast control cadence keeps the per-pipeline
    // replan lag (backlog served late) from dominating the attainment.
    let mut config = base_config(7);
    config.control_interval_s = 2.0;
    let mut multi = MultiSimulation::new(config);
    multi.add_pipeline(MultiPipeline {
        name: "a".to_string(),
        graph: &tiny_a,
        controller: Box::new(loki(&tiny_a)),
        arrivals_s: generate_arrivals(&trace_a, ArrivalProcess::Poisson, 1),
        initial_demand_hint: Some(120.0),
    });
    multi.add_pipeline(MultiPipeline {
        name: "b".to_string(),
        graph: &tiny_b,
        controller: Box::new(loki(&tiny_b)),
        arrivals_s: generate_arrivals(&trace_b, ArrivalProcess::Poisson, 2),
        initial_demand_hint: Some(1.0),
    });
    let mut manager = ResourceManager::new(ResourceManagerConfig {
        hysteresis: 0.05,
        rebalance_interval_s: 5.0,
        ..ResourceManagerConfig::default()
    });
    let result = multi.try_run(&mut manager).unwrap();
    assert!(
        result.migrations > 0,
        "a demand shift must migrate workers across pipelines"
    );
    assert!(result.rebalances > 0);
    assert!(manager.epochs() > 1);
    // Both pipelines must have been served through their hot phases. The
    // ramp-up lane pays for the estimate + rebalance-epoch lag (its demand
    // spikes from idle, so a window of arrivals drops before workers arrive),
    // hence the bound is "most of the run", not near-perfect.
    for lane in &result.pipelines {
        let s = &lane.result.summary;
        assert!(
            s.total_arrivals > 1000,
            "{}: {}",
            lane.name,
            s.total_arrivals
        );
        assert!(
            s.total_on_time as f64 / s.total_arrivals as f64 > 0.65,
            "{} attainment too low: {:?}",
            lane.name,
            s
        );
    }
}

/// A policy that provisions a fixed batch at a scheduled time (multi-lane
/// elastic plumbing needs no autoscaler intelligence to be exercised).
struct ProvisionOnce {
    at_s: f64,
    count: usize,
    done: bool,
}

impl ElasticPolicy for ProvisionOnce {
    fn name(&self) -> &str {
        "provision-once"
    }

    fn decide(&mut self, observation: &ElasticObservation<'_>) -> Vec<ElasticAction> {
        if self.done || observation.now_s < self.at_s {
            return Vec::new();
        }
        self.done = true;
        vec![ElasticAction::Provision {
            class: 0,
            count: self.count,
        }]
    }
}

#[test]
fn resource_manager_absorbs_a_fleet_that_grows_between_epochs() {
    // Two contended pipelines start on a deliberately undersized 6-worker
    // fleet; at t=12 s the provisioner boots 6 more. The Resource Manager
    // must re-apportion the grown fleet at a later epoch (its observation's
    // `cluster_size` changes between rebalances), and both pipelines must end
    // up served on partitions that together exceed the initial fleet.
    let traffic = zoo::traffic_analysis_pipeline(250.0);
    let social = zoo::social_media_pipeline(300.0);
    let traffic_trace = generators::constant(60, 300.0);
    let social_trace = generators::constant(60, 90.0);
    let run = || {
        let mut config = base_config(5);
        config.control_interval_s = 5.0;
        config.elastic = Some(ElasticSimConfig {
            catalog: WorkerClassCatalog::single(WorkerClass {
                name: "gpu".to_string(),
                latency_scale: 1.0,
                memory_gb: 40.0,
                price_per_hour: 2.5,
                boot_delay_s: 5.0,
                spot: false,
            }),
            initial: vec![(0, 6)],
            max_fleet: 12,
            decide_interval_s: 6.0,
            market: None,
        });
        let mut multi = MultiSimulation::new(config);
        multi.add_pipeline(MultiPipeline {
            name: "traffic".to_string(),
            graph: &traffic,
            controller: Box::new(loki(&traffic)),
            arrivals_s: generate_arrivals(&traffic_trace, ArrivalProcess::Poisson, 21),
            initial_demand_hint: Some(300.0),
        });
        multi.add_pipeline(MultiPipeline {
            name: "social".to_string(),
            graph: &social,
            controller: Box::new(loki(&social)),
            arrivals_s: generate_arrivals(&social_trace, ArrivalProcess::Poisson, 22),
            initial_demand_hint: Some(90.0),
        });
        let mut manager = ResourceManager::new(ResourceManagerConfig {
            rebalance_interval_s: 5.0,
            ..ResourceManagerConfig::default()
        });
        let mut policy = ProvisionOnce {
            at_s: 12.0,
            count: 6,
            done: false,
        };
        multi.try_run_elastic(&mut manager, &mut policy).unwrap()
    };
    let result = run();
    let cost = result.cost.as_ref().expect("elastic multi runs bill");
    assert_eq!(cost.per_class[0].provisioned, 6);
    assert_eq!(cost.peak_fleet, 12);
    // The grown capacity was actually granted and used: the concurrent
    // active peak across both partitions exceeds the initial 6-worker fleet.
    let active: usize = result
        .pipelines
        .iter()
        .map(|p| p.result.summary.max_active_workers)
        .sum();
    assert!(active > 6, "grown fleet must be apportioned, got {active}");
    assert!(active <= 12, "partitions stay disjoint, got {active}");
    for lane in &result.pipelines {
        let s = &lane.result.summary;
        assert!(s.total_arrivals > 0);
        assert!(
            s.total_on_time as f64 / s.total_arrivals as f64 > 0.5,
            "{} must be served after the fleet grows: {s:?}",
            lane.name
        );
    }
    // The aggregate view carries the cluster-level cost.
    assert_eq!(result.aggregate(12).cost, result.cost);
    // Same-seed elastic multi runs stay deterministic.
    let again = run();
    for (a, b) in result.pipelines.iter().zip(&again.pipelines) {
        assert_eq!(a.result.summary, b.result.summary);
    }
    assert_eq!(result.cost, again.cost);
}

#[test]
fn static_even_split_never_migrates() {
    let tiny_a = zoo::tiny_pipeline(200.0);
    let tiny_b = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(20, 40.0);
    let mut multi = MultiSimulation::new(base_config(9));
    for (name, graph, seed) in [("a", &tiny_a, 1u64), ("b", &tiny_b, 2)] {
        multi.add_pipeline(MultiPipeline {
            name: name.to_string(),
            graph,
            controller: Box::new(loki(graph)),
            arrivals_s: generate_arrivals(&trace, ArrivalProcess::Poisson, seed),
            initial_demand_hint: Some(40.0),
        });
    }
    let mut arbiter = StaticPartition::even(2);
    let result = multi.try_run(&mut arbiter).unwrap();
    assert_eq!(result.migrations, 0);
    assert_eq!(result.rebalances, 0);
    assert_eq!(result.arbiter, "static-even");
    for lane in &result.pipelines {
        // Each pipeline lives inside its static half of the cluster.
        assert!(lane.result.summary.max_active_workers <= 10);
        assert!(lane.result.summary.total_on_time > 0);
    }
}
