//! Values returned through the public `Controller`, `ResourceArbiter` and
//! `ElasticPolicy` traits are outside input to the engine. An out-of-range
//! one must come back from `try_run*` as an `EngineError` that names the
//! input, the offending index and the simulated time — never as a panic, and
//! never silently filed under another index. A run the caller set up wrong
//! comes back the same way, before any event runs.

use loki_pipeline::{zoo, PipelineGraph, VariantId};
use loki_sim::{
    AllocationPlan, ArbiterObservation, CompiledPlan, Controller, DropPolicy, ElasticAction,
    ElasticObservation, ElasticPolicy, ElasticSimConfig, EngineError, InstanceSpec, LinkDelayModel,
    MultiPipeline, MultiSimulation, ObservedState, ResourceArbiter, SimConfig, Simulation,
    StaticPartition, WorkerClass, WorkerClassCatalog, WorkerId,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};
use std::collections::HashMap;

/// A controller that installs one fixed plan (routing falls back to the
/// engine's shortest-queue path).
struct FixedPlan(AllocationPlan);

impl Controller for FixedPlan {
    fn name(&self) -> &str {
        "fixed"
    }

    fn plan(&mut self, _observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        Some(self.0.clone())
    }

    fn routing(&mut self, _observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        None
    }
}

/// One instance of each tiny-pipeline task, plus any extra instance and
/// latency budgets.
fn plan(extra: Option<VariantId>, budgets: &[(VariantId, f64)]) -> AllocationPlan {
    let instance = |variant| InstanceSpec {
        variant,
        max_batch: 4,
        count: 1,
    };
    let mut instances = vec![
        instance(VariantId::new(0, 1)),
        instance(VariantId::new(1, 1)),
    ];
    instances.extend(extra.map(instance));
    AllocationPlan {
        instances,
        latency_budgets_ms: budgets.iter().copied().collect::<HashMap<_, _>>(),
        drop_policy: DropPolicy::NoEarlyDropping,
    }
}

fn config() -> SimConfig {
    SimConfig {
        cluster_size: 4,
        network_delay_ms: 1.0,
        model_swap_ms: 0.0,
        control_interval_s: 5.0,
        seed: 3,
        initial_demand_hint: Some(20.0),
        drain_s: 5.0,
        ..SimConfig::default()
    }
}

fn arrivals() -> Vec<f64> {
    generate_arrivals(&generators::constant(20, 20.0), ArrivalProcess::Uniform, 1)
}

fn run_single(plan: AllocationPlan) -> Result<u64, EngineError> {
    run_single_on(config(), plan)
}

fn run_single_on(config: SimConfig, plan: AllocationPlan) -> Result<u64, EngineError> {
    let graph = zoo::tiny_pipeline(200.0);
    let mut sim = Simulation::new(&graph, config, FixedPlan(plan));
    sim.try_run(&arrivals()).map(|r| r.summary.total_arrivals)
}

#[test]
fn plan_instance_outside_the_graph_is_an_error() {
    // The tiny pipeline's tasks have two variants each.
    let result = run_single(plan(Some(VariantId::new(0, 5)), &[]));
    assert_eq!(
        result,
        Err(EngineError::UnknownVariant {
            input: "plan instance",
            lane: 0,
            task: 0,
            variant: 5,
            now_us: 0,
        })
    );
}

#[test]
fn latency_budget_past_its_tasks_variants_is_an_error() {
    // Variant 2 of task 0 does not exist; its dense slot is task 1's first
    // variant, which must not receive the budget.
    let budgets = [(VariantId::new(1, 1), 40.0), (VariantId::new(0, 2), 10.0)];
    let result = run_single(plan(None, &budgets));
    assert_eq!(
        result,
        Err(EngineError::UnknownVariant {
            input: "latency budget",
            lane: 0,
            task: 0,
            variant: 2,
            now_us: 0,
        })
    );
    // The valid budgets alone run.
    assert_eq!(run_single(plan(None, &budgets[..1])), Ok(400));
}

/// An arbiter that splits evenly at first and then returns one share too few.
struct ShortPartition {
    calls: u32,
}

impl ResourceArbiter for ShortPartition {
    fn name(&self) -> &str {
        "short"
    }

    fn rebalance_interval_s(&self) -> f64 {
        2.0
    }

    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>> {
        self.calls += 1;
        let lanes = observation.partition.len();
        let share = observation.cluster_size / lanes;
        Some(vec![share; if self.calls == 1 { lanes } else { lanes - 1 }])
    }
}

/// A shared-cluster run of `lanes` tiny pipelines on `config`.
fn multi(config: SimConfig, graph: &PipelineGraph, lanes: usize) -> MultiSimulation<'_> {
    let mut sim = MultiSimulation::new(config);
    for lane in 0..lanes {
        sim.add_pipeline(MultiPipeline {
            name: format!("p{lane}"),
            graph,
            controller: Box::new(FixedPlan(plan(None, &[]))) as Box<dyn Controller>,
            arrivals_s: arrivals(),
            initial_demand_hint: Some(20.0),
        });
    }
    sim
}

#[test]
fn arbiter_partition_of_the_wrong_length_is_an_error() {
    let graph = zoo::tiny_pipeline(200.0);
    let result = multi(config(), &graph, 2).try_run(&mut ShortPartition { calls: 0 });
    // The initial partition is fine; the first rebalance (t = 2 s) is not.
    assert_eq!(
        result.err(),
        Some(EngineError::PartitionLength {
            len: 1,
            lanes: 2,
            now_us: 2_000_000,
        })
    );
}

/// An elastic policy that asks for the same action at every tick.
struct Always(ElasticAction);

impl ElasticPolicy for Always {
    fn name(&self) -> &str {
        "always"
    }

    fn decide(&mut self, _observation: &ElasticObservation<'_>) -> Vec<ElasticAction> {
        vec![self.0]
    }
}

/// `config()` on an elastic fleet of one class, starting from `workers`.
fn elastic_config(workers: usize) -> SimConfig {
    SimConfig {
        elastic: Some(ElasticSimConfig {
            catalog: WorkerClassCatalog::single(WorkerClass {
                name: "gpu".to_string(),
                latency_scale: 1.0,
                memory_gb: 40.0,
                price_per_hour: 3.6,
                boot_delay_s: 1.0,
                spot: false,
            }),
            initial: vec![(0, workers)],
            max_fleet: 6,
            decide_interval_s: 10.0,
            market: None,
        }),
        ..config()
    }
}

fn run_elastic(action: ElasticAction) -> Result<u64, EngineError> {
    let graph = zoo::tiny_pipeline(200.0);
    let mut sim = Simulation::new(&graph, elastic_config(4), FixedPlan(plan(None, &[])));
    sim.try_run_elastic(&arrivals(), &mut Always(action))
        .map(|r| r.summary.total_arrivals)
}

#[test]
fn provisioning_a_class_outside_the_catalog_is_an_error() {
    let result = run_elastic(ElasticAction::Provision { class: 3, count: 1 });
    assert_eq!(
        result,
        Err(EngineError::UnknownClass {
            action: "provision",
            class: 3,
            classes: 1,
            now_us: 10_000_000,
        })
    );
    assert_eq!(
        run_elastic(ElasticAction::Provision { class: 0, count: 1 }),
        Ok(400)
    );
}

#[test]
fn draining_a_class_outside_the_catalog_is_an_error() {
    let result = run_elastic(ElasticAction::Drain { class: 1, count: 1 });
    assert_eq!(
        result,
        Err(EngineError::UnknownClass {
            action: "drain",
            class: 1,
            classes: 1,
            now_us: 10_000_000,
        })
    );
    let rendered = result.unwrap_err().to_string();
    assert!(
        rendered.contains("drain") && rendered.contains("class 1"),
        "{rendered}"
    );
}

const NEEDS_ELASTIC: EngineError = EngineError::InvalidRun {
    reason: "an elastic policy needs SimConfig::elastic",
};

#[test]
fn an_elastic_run_without_an_elastic_config_is_an_error() {
    let graph = zoo::tiny_pipeline(200.0);
    let mut sim = Simulation::new(&graph, config(), FixedPlan(plan(None, &[])));
    let mut policy = Always(ElasticAction::Provision { class: 0, count: 1 });
    let result = sim.try_run_elastic(&arrivals(), &mut policy);
    assert_eq!(result.err(), Some(NEEDS_ELASTIC));
}

#[test]
fn a_shared_elastic_run_without_an_elastic_config_is_an_error() {
    let graph = zoo::tiny_pipeline(200.0);
    let mut policy = Always(ElasticAction::Provision { class: 0, count: 1 });
    let result =
        multi(config(), &graph, 2).try_run_elastic(&mut StaticPartition::even(2), &mut policy);
    assert_eq!(result.err(), Some(NEEDS_ELASTIC));
}

#[test]
fn a_shared_run_without_pipelines_is_an_error() {
    let graph = zoo::tiny_pipeline(200.0);
    let error = multi(config(), &graph, 0)
        .try_run(&mut StaticPartition::even(0))
        .err();
    assert_eq!(
        error,
        Some(EngineError::InvalidRun {
            reason: "register at least one pipeline before running",
        })
    );
    assert_eq!(
        error.map(|e| e.to_string()).as_deref(),
        Some("cannot start the run: register at least one pipeline before running")
    );
}

const INVALID_ELASTIC: EngineError = EngineError::InvalidRun {
    reason: "SimConfig::elastic is invalid",
};

#[test]
fn a_zero_worker_elastic_fleet_is_an_error() {
    assert_eq!(
        run_single_on(elastic_config(0), plan(None, &[])),
        Err(INVALID_ELASTIC)
    );
}

#[test]
fn a_shared_run_on_a_zero_worker_elastic_fleet_is_an_error() {
    let graph = zoo::tiny_pipeline(200.0);
    let result = multi(elastic_config(0), &graph, 2).try_run(&mut StaticPartition::even(2));
    assert_eq!(result.err(), Some(INVALID_ELASTIC));
}

#[test]
fn a_per_edge_link_delay_outside_the_pipeline_is_an_error() {
    // The tiny pipeline has tasks 0 and 1 only.
    let run = |edge| {
        let link_delays = LinkDelayModel::PerEdge {
            frontend_ms: 1.0,
            default_ms: 1.0,
            edges: vec![(edge, 5.0)],
        };
        let config = SimConfig {
            link_delays,
            ..config()
        };
        run_single_on(config, plan(None, &[]))
    };
    assert_eq!(
        run((1, 2)),
        Err(EngineError::InvalidRun {
            reason: "SimConfig::link_delays is invalid for a pipeline of the run",
        })
    );
    assert_eq!(run((0, 1)), Ok(400));
}

const INVALID_GRAPH: EngineError = EngineError::InvalidRun {
    reason: "a pipeline graph of the run is invalid",
};

#[test]
fn an_empty_pipeline_is_an_error() {
    let graph = PipelineGraph::new("empty", 200.0);
    let mut sim = Simulation::new(&graph, config(), FixedPlan(plan(None, &[])));
    assert_eq!(sim.try_run(&arrivals()).err(), Some(INVALID_GRAPH));
}

#[test]
fn a_shared_run_with_an_empty_pipeline_is_an_error() {
    let tiny = zoo::tiny_pipeline(200.0);
    let empty = PipelineGraph::new("empty", 200.0);
    let mut sim = multi(config(), &tiny, 1);
    sim.add_pipeline(MultiPipeline {
        name: "empty".to_string(),
        graph: &empty,
        controller: Box::new(FixedPlan(plan(None, &[]))) as Box<dyn Controller>,
        arrivals_s: arrivals(),
        initial_demand_hint: Some(20.0),
    });
    let result = sim.try_run(&mut StaticPartition::even(2));
    assert_eq!(result.err(), Some(INVALID_GRAPH));
}

/// A controller that plans one fixed plan and records, for every worker it
/// observes, the frontend delay into it and the hop delays between it and
/// worker 0 that [`ObservedState::links`] gives.
struct LinkProbe {
    plan: AllocationPlan,
    seen: Vec<(WorkerId, [u64; 3])>,
}

impl Controller for LinkProbe {
    fn name(&self) -> &str {
        "link-probe"
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        let links = observed.links;
        let first = WorkerId(0);
        for w in observed.workers.iter().map(|view| view.id) {
            let delays = [
                links.frontend_us(w),
                links.hop_us(first, 0, w, 1),
                links.hop_us(w, 0, first, 1),
            ];
            self.seen.push((w, delays));
        }
        Some(self.plan.clone())
    }

    fn routing(&mut self, _observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        None
    }
}

#[test]
fn controllers_observe_the_link_table_the_engine_charges() {
    // Two interconnect classes striped over the fleet (worker `w` is in class
    // `w % 2`), every delay distinct so a wrong class shows.
    let link_delays = LinkDelayModel::PerWorkerClass {
        classes: 2,
        delay_ms: vec![0.2, 5.0, 4.0, 0.3],
        frontend_ms: vec![1.0, 2.5],
    };
    let config = SimConfig {
        link_delays,
        ..elastic_config(2)
    };
    let graph = zoo::tiny_pipeline(200.0);
    let probe = LinkProbe {
        plan: plan(None, &[]),
        seen: Vec::new(),
    };
    let mut sim = Simulation::new(&graph, config, probe);
    let mut policy = Always(ElasticAction::Provision { class: 0, count: 2 });
    sim.try_run_elastic(&arrivals(), &mut policy).unwrap();
    let seen = sim.into_controller().seen;
    // Workers 2 and 3 booted past the initial fleet of two.
    assert!(seen.iter().any(|&(w, _)| w == WorkerId(3)), "{seen:?}");
    let frontend_us = [1_000, 2_500];
    let hop_us = [200, 5_000, 4_000, 300];
    for &(w, delays) in &seen {
        let class = w.index() % 2;
        let expected = [frontend_us[class], hop_us[class], hop_us[class * 2]];
        assert_eq!(delays, expected, "{w}");
    }
}
