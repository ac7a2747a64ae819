//! Engine mechanics under a fixed controller (`common/static_controller.rs`):
//! request accounting under load and overload, the tick cadence, drops with
//! no allocation, seed determinism, utilization and accuracy accounting,
//! structured errors, heterogeneous link delays and branching fan-out.

use loki_pipeline::{zoo, VariantId};
use loki_sim::{
    AllocationPlan, CompiledPlan, Controller, DropPolicy, EngineError, InstanceSpec,
    LinkDelayModel, ObservedState, SimConfig, Simulation,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};
use std::collections::HashMap;

#[path = "common/static_controller.rs"]
mod static_controller;

use static_controller::{tiny_plan, StaticController};

fn small_config(cluster: usize) -> SimConfig {
    SimConfig {
        cluster_size: cluster,
        network_delay_ms: 1.0,
        link_delays: LinkDelayModel::Uniform,
        model_swap_ms: 0.0,
        control_interval_s: 5.0,
        routing_interval_s: 1.0,
        metrics_interval_s: 1.0,
        seed: 7,
        initial_demand_hint: Some(20.0),
        drain_s: 10.0,
        elastic: None,
        observe: Default::default(),
    }
}

#[test]
fn underloaded_cluster_serves_everything_on_time() {
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(20, 20.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 1);
    let mut sim = Simulation::new(&graph, small_config(8), StaticController::tiny(2));
    let result = sim.try_run(&arrivals).unwrap();
    assert_eq!(result.summary.total_arrivals, 400);
    assert_eq!(
        result.summary.total_on_time + result.summary.total_late + result.summary.total_dropped,
        400
    );
    assert!(
        result.summary.slo_violation_ratio < 0.02,
        "violations: {}",
        result.summary.slo_violation_ratio
    );
    // tiny pipeline max accuracy is 1.0 and the static plan uses the best variants
    assert!(result.summary.system_accuracy > 0.99);
}

/// Counts the engine's controller calls while asking for a 2 s plan
/// cadence, which the engine must ignore in favour of [`SimConfig`]'s.
struct CountingController {
    inner: StaticController,
    plans: usize,
    routings: usize,
}

impl Controller for CountingController {
    fn name(&self) -> &str {
        "counting"
    }

    fn control_interval_s(&self) -> f64 {
        2.0
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        self.plans += 1;
        self.inner.plan(observed)
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        self.routings += 1;
        self.inner.routing(observed)
    }
}

#[test]
fn tick_cadence_follows_the_sim_config() {
    let graph = zoo::tiny_pipeline(200.0);
    // Arrivals every 0.5 s up to 12 s; with the 10 s drain the run ends at 22 s.
    let arrivals: Vec<f64> = (0..=24).map(|i| f64::from(i) * 0.5).collect();
    let controller = CountingController {
        inner: StaticController::tiny(2),
        plans: 0,
        routings: 0,
    };
    // Control ticks every 5 s, routing ticks every 1 s.
    let mut sim = Simulation::new(&graph, small_config(8), controller);
    sim.try_run(&arrivals).unwrap();
    let counted = sim.into_controller();
    // Plans at 0, 5, 10, 15 and 20 s.
    assert_eq!(counted.plans, 5);
    // Routing at each of the 23 ticks 0..=22 s, plus once after each plan.
    assert_eq!(counted.routings, 23 + 5);
}

#[test]
fn overloaded_cluster_without_dropping_violates_slos() {
    let graph = zoo::tiny_pipeline(100.0);
    // one worker per task, demand far above capacity
    let trace = generators::constant(20, 400.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 2);
    let mut sim = Simulation::new(&graph, small_config(2), StaticController::tiny(1));
    let result = sim.try_run(&arrivals).unwrap();
    assert!(
        result.summary.slo_violation_ratio > 0.5,
        "expected heavy violations, got {}",
        result.summary.slo_violation_ratio
    );
}

#[test]
fn no_allocation_means_everything_is_dropped() {
    let graph = zoo::tiny_pipeline(100.0);
    let trace = generators::constant(5, 10.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 3);
    let empty_plan = AllocationPlan::default();
    let mut sim = Simulation::new(&graph, small_config(4), StaticController::new(empty_plan));
    let result = sim.try_run(&arrivals).unwrap();
    assert_eq!(result.summary.total_arrivals, 50);
    assert_eq!(result.summary.total_dropped, 50);
    assert_eq!(result.summary.total_on_time, 0);
    assert!((result.summary.slo_violation_ratio - 1.0).abs() < 1e-12);
}

#[test]
fn simulation_is_deterministic_for_a_seed() {
    let graph = zoo::tiny_pipeline(150.0);
    let trace = generators::ramp(30, 10.0, 60.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 5);
    let run = |seed: u64| {
        let mut cfg = small_config(6);
        cfg.seed = seed;
        let mut sim = Simulation::new(&graph, cfg, StaticController::new(tiny_plan(3, 8)));
        sim.try_run(&arrivals).unwrap().summary
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a.total_on_time, b.total_on_time);
    assert_eq!(a.total_late, b.total_late);
    assert_eq!(a.total_dropped, b.total_dropped);
    assert!((a.system_accuracy - b.system_accuracy).abs() < 1e-12);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn utilization_reflects_active_workers() {
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(10, 10.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 4);
    let mut sim = Simulation::new(&graph, small_config(10), StaticController::tiny(1));
    let result = sim.try_run(&arrivals).unwrap();
    // only 2 of 10 workers are ever active
    assert_eq!(result.summary.max_active_workers, 2);
    assert!(result.summary.mean_utilization <= 0.2 + 1e-9);
}

#[test]
fn accuracy_reflects_variant_choice() {
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(10, 10.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 6);
    // use the *least* accurate variants
    let plan = AllocationPlan {
        instances: vec![
            InstanceSpec {
                variant: VariantId::new(0, 0),
                max_batch: 4,
                count: 1,
            },
            InstanceSpec {
                variant: VariantId::new(1, 0),
                max_batch: 4,
                count: 1,
            },
        ],
        latency_budgets_ms: HashMap::new(),
        drop_policy: DropPolicy::NoEarlyDropping,
    };
    let mut sim = Simulation::new(&graph, small_config(4), StaticController::new(plan));
    let result = sim.try_run(&arrivals).unwrap();
    let expected = graph.min_accuracy();
    assert!(
        (result.summary.system_accuracy - expected).abs() < 1e-9,
        "accuracy {} vs expected {}",
        result.summary.system_accuracy,
        expected
    );
}

#[test]
fn try_run_returns_ok_and_errors_render_with_context() {
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(5, 10.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 1);
    let mut sim = Simulation::new(&graph, small_config(4), StaticController::tiny(1));
    let result = sim.try_run(&arrivals).expect("healthy run must be Ok");
    assert_eq!(result.summary.total_arrivals, 50);

    // The structured errors carry the failing source/handler and the
    // simulated time, so a scheduler regression reports *where* it broke.
    let rendered = EngineError::EmptyEventSource {
        source: "scheduler",
        now_us: 1234,
        events_processed: 99,
    }
    .to_string();
    assert!(rendered.contains("scheduler"), "{rendered}");
    assert!(rendered.contains("1234"), "{rendered}");
    assert!(rendered.contains("99"), "{rendered}");
    let rendered = EngineError::MissingRoot {
        context: "complete",
        now_us: 77,
    }
    .to_string();
    assert!(rendered.contains("complete"), "{rendered}");
    assert!(rendered.contains("77"), "{rendered}");
}

#[test]
fn heterogeneous_link_delays_reorder_deliveries() {
    // Two interconnect classes striped across the cluster: intra-class hops
    // are PCIe-fast, cross-class hops are 25x slower. Deliveries now leave
    // in an order a single-constant FIFO could not produce (short links
    // overtake long ones), so the same seed must yield a different — but
    // still internally consistent — execution than the uniform model.
    let graph = zoo::tiny_pipeline(150.0);
    let trace = generators::constant(20, 40.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 12);
    let run = |link_delays: LinkDelayModel| {
        let mut cfg = small_config(8);
        cfg.link_delays = link_delays;
        let mut sim = Simulation::new(&graph, cfg, StaticController::tiny(2));
        sim.try_run(&arrivals).unwrap().summary
    };
    let uniform = run(LinkDelayModel::Uniform);
    let hetnet = run(LinkDelayModel::PerWorkerClass {
        classes: 2,
        delay_ms: vec![0.2, 5.0, 5.0, 0.2],
        frontend_ms: vec![1.0, 1.0],
    });
    assert_eq!(uniform.total_arrivals, hetnet.total_arrivals);
    assert_eq!(
        hetnet.total_on_time + hetnet.total_late + hetnet.total_dropped,
        hetnet.total_arrivals
    );
    // The per-link schedule must actually change the execution: with every
    // hop at 1 ms the two runs would be identical, with mixed 0.2/5 ms
    // links the delivery order (and thus batch formation) shifts.
    assert_ne!(
        (
            uniform.total_on_time,
            uniform.total_late,
            uniform.events_processed
        ),
        (
            hetnet.total_on_time,
            hetnet.total_late,
            hetnet.events_processed
        ),
        "heterogeneous delays must reorder deliveries relative to the uniform model"
    );
    // Same model, same seed: still fully deterministic.
    let again = run(LinkDelayModel::PerWorkerClass {
        classes: 2,
        delay_ms: vec![0.2, 5.0, 5.0, 0.2],
        frontend_ms: vec![1.0, 1.0],
    });
    assert_eq!(again, hetnet);
}

#[test]
fn per_edge_delay_on_the_critical_path_violates_slos() {
    // The tiny pipeline's single edge (task 0 -> task 1) crosses a 200 ms
    // interconnect while the SLO is 150 ms: every request that makes it
    // downstream blows its deadline, where the uniform model serves on time.
    let graph = zoo::tiny_pipeline(150.0);
    let trace = generators::constant(20, 20.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 13);
    let run = |link_delays: LinkDelayModel| {
        let mut cfg = small_config(8);
        cfg.link_delays = link_delays;
        let mut sim = Simulation::new(&graph, cfg, StaticController::tiny(2));
        sim.try_run(&arrivals).unwrap().summary
    };
    let uniform = run(LinkDelayModel::Uniform);
    let slow_edge = run(LinkDelayModel::PerEdge {
        frontend_ms: 1.0,
        default_ms: 1.0,
        edges: vec![((0, 1), 200.0)],
    });
    assert!(uniform.slo_violation_ratio < 0.05);
    assert!(
        slow_edge.slo_violation_ratio > 0.5,
        "a 200 ms edge under a 150 ms SLO must violate, got {}",
        slow_edge.slo_violation_ratio
    );
}

#[test]
fn fanout_creates_downstream_load_in_branching_pipeline() {
    let graph = zoo::traffic_analysis_pipeline(400.0);
    let trace = generators::constant(15, 20.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 9);
    // most accurate variants with plenty of replicas
    let plan = AllocationPlan {
        instances: vec![
            InstanceSpec {
                variant: VariantId::new(0, 4),
                max_batch: 4,
                count: 3,
            },
            InstanceSpec {
                variant: VariantId::new(1, 7),
                max_batch: 4,
                count: 4,
            },
            InstanceSpec {
                variant: VariantId::new(2, 3),
                max_batch: 4,
                count: 3,
            },
        ],
        latency_budgets_ms: HashMap::new(),
        drop_policy: DropPolicy::NoEarlyDropping,
    };
    let mut sim = Simulation::new(&graph, small_config(10), StaticController::new(plan));
    let result = sim.try_run(&arrivals).unwrap();
    assert!(result.summary.total_on_time > 0);
    // yolov5x multiplies by 2.0, so downstream work exists and completes; system
    // accuracy should be near the pipeline max (all best variants).
    assert!(
        result.summary.system_accuracy > 0.95 * graph.max_accuracy(),
        "accuracy {}",
        result.summary.system_accuracy
    );
    assert!(result.summary.slo_violation_ratio < 0.1);
}
