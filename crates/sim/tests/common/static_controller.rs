//! A fixed controller (static allocation, uniform routing), so a test
//! exercises engine mechanics without control-plane intelligence.

use loki_pipeline::VariantId;
use loki_sim::{
    AllocationPlan, CompiledPlan, Controller, DropPolicy, InstanceSpec, ObservedState, PlanBuilder,
};
use std::collections::HashMap;

/// Re-asserts one fixed allocation every control tick and routes uniformly
/// over whatever instances it currently holds. Re-planning each tick (rather
/// than once) matters: replica counts are clamped by the engine, so a shrunken
/// fleet keeps a valid plan, and a lane reconciles its instances after every
/// migration, which exercises the model-swap path.
pub struct StaticController {
    plan: AllocationPlan,
}

impl StaticController {
    /// Re-assert `plan` at every control tick.
    pub fn new(plan: AllocationPlan) -> Self {
        Self { plan }
    }

    /// `replicas` instances of each task of the tiny pipeline, at batch 4.
    pub fn tiny(replicas: usize) -> Self {
        Self::new(tiny_plan(replicas, 4))
    }
}

/// `replicas` instances of the most accurate variant of each task of the
/// tiny pipeline, at `max_batch`, with no early dropping.
pub fn tiny_plan(replicas: usize, max_batch: u32) -> AllocationPlan {
    let instance = |task| InstanceSpec {
        variant: VariantId::new(task, 1),
        max_batch,
        count: replicas,
    };
    AllocationPlan {
        instances: vec![instance(0), instance(1)],
        latency_budgets_ms: HashMap::new(),
        drop_policy: DropPolicy::NoEarlyDropping,
    }
}

impl Controller for StaticController {
    fn name(&self) -> &str {
        "static"
    }

    fn plan(&mut self, _observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        Some(self.plan.clone())
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        let hosted = || {
            observed
                .workers
                .iter()
                .filter_map(|w| Some((w.id, w.variant?.task)))
        };
        let num_tasks = hosted().map(|(_, task)| task + 1).max().unwrap_or(0);
        let mut plan = PlanBuilder::default();
        plan.begin(num_tasks);
        for task in 0..num_tasks {
            let table: Vec<_> = hosted()
                .filter(|&(_, t)| t == task)
                .map(|(id, _)| (id, 1.0))
                .collect();
            if task == 0 {
                for &(id, weight) in &table {
                    plan.push_frontend(id, weight);
                }
            }
            if !table.is_empty() {
                plan.set_default(task, &table);
            }
        }
        Some(plan.finish())
    }
}
