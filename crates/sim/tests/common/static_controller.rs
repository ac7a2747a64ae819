//! A fixed controller (static allocation, uniform routing), so a test
//! exercises engine mechanics without control-plane intelligence.

use loki_pipeline::VariantId;
use loki_sim::{
    AllocationPlan, CompiledPlan, Controller, DropPolicy, InstanceSpec, ObservedState, RoutingPlan,
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
    /// `replicas` instances of each task of the tiny pipeline, at batch 4.
    pub fn tiny(replicas: usize) -> Self {
        let instance = |task| InstanceSpec {
            variant: VariantId::new(task, 1),
            max_batch: 4,
            count: replicas,
        };
        Self {
            plan: AllocationPlan {
                instances: vec![instance(0), instance(1)],
                latency_budgets_ms: HashMap::new(),
                drop_policy: DropPolicy::NoEarlyDropping,
            },
        }
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
        let mut plan = RoutingPlan::default();
        let mut num_tasks = 0;
        for w in observed.workers {
            if let Some(v) = w.variant {
                if v.task == 0 {
                    plan.frontend.push((w.id, 1.0));
                }
                plan.downstream_default
                    .entry(v.task)
                    .or_default()
                    .push((w.id, 1.0));
                num_tasks = num_tasks.max(v.task + 1);
            }
        }
        Some(CompiledPlan::from_routing_plan(&plan, num_tasks))
    }
}
