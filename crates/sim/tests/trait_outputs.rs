//! Values returned through the public `Controller`, `ResourceArbiter` and
//! `ElasticPolicy` traits are outside input to the engine. An out-of-range
//! one must come back from `try_run*` as an `EngineError` that names the
//! input, the offending index and the simulated time — never as a panic, and
//! never silently filed under another index.

use loki_pipeline::{zoo, VariantId};
use loki_sim::{
    AllocationPlan, ArbiterObservation, CompiledPlan, Controller, DropPolicy, ElasticAction,
    ElasticObservation, ElasticPolicy, ElasticSimConfig, EngineError, InstanceSpec, MultiPipeline,
    MultiSimulation, ObservedState, ResourceArbiter, SimConfig, Simulation, WorkerClass,
    WorkerClassCatalog,
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
    let graph = zoo::tiny_pipeline(200.0);
    let mut sim = Simulation::new(&graph, config(), FixedPlan(plan));
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

#[test]
fn arbiter_partition_of_the_wrong_length_is_an_error() {
    let graph = zoo::tiny_pipeline(200.0);
    let mut sim = MultiSimulation::new(config());
    for name in ["a", "b"] {
        sim.add_pipeline(MultiPipeline {
            name: name.to_string(),
            graph: &graph,
            controller: Box::new(FixedPlan(plan(None, &[]))) as Box<dyn Controller>,
            arrivals_s: arrivals(),
            initial_demand_hint: Some(20.0),
        });
    }
    let result = sim.try_run(&mut ShortPartition { calls: 0 });
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

fn run_elastic(action: ElasticAction) -> Result<u64, EngineError> {
    let graph = zoo::tiny_pipeline(200.0);
    let mut cfg = config();
    cfg.elastic = Some(ElasticSimConfig {
        catalog: WorkerClassCatalog::single(WorkerClass {
            name: "gpu".to_string(),
            latency_scale: 1.0,
            memory_gb: 40.0,
            price_per_hour: 3.6,
            boot_delay_s: 1.0,
            spot: false,
        }),
        initial: vec![(0, 4)],
        max_fleet: 6,
        decide_interval_s: 10.0,
        market: None,
    });
    let mut sim = Simulation::new(&graph, cfg, FixedPlan(plan(None, &[])));
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
