//! An InferLine-style baseline: pipeline-aware hardware scaling, fixed model variants.
//!
//! InferLine (SoCC'20) provisions and scales inference pipelines to meet latency SLOs
//! at minimum cost, but the client pins a single model variant per task and the system
//! never switches variants. We reproduce that behaviour: the controller always hosts
//! the most accurate variant of every task, scales replica counts (and batch sizes)
//! with demand, and powers servers down during off-peak periods. When demand exceeds
//! what the full cluster can serve at maximum accuracy, it simply saturates — which is
//! exactly the regime where the paper shows its SLO violations shooting up.

use loki_core::load_balancer::MostAccurateFirst;
use loki_core::perf::{FanoutOverrides, PerfModel};
use loki_pipeline::{PipelineGraph, VariantId};
use loki_sim::{AllocationPlan, CompiledPlan, Controller, DropPolicy, InstanceSpec, ObservedState};
use std::collections::HashMap;

/// Configuration of the InferLine-style baseline.
#[derive(Debug, Clone)]
pub struct InferLineConfig {
    /// Runtime drop policy (InferLine itself has no accuracy-aware rerouting, so the
    /// default is conservative last-task dropping).
    pub drop_policy: DropPolicy,
    /// SLO headroom divisor (2.0, same queueing model as Loki).
    pub slo_headroom_divisor: f64,
    /// Per-hop network latency in ms.
    pub comm_latency_ms: f64,
    /// Provisioning margin over the demand estimate.
    pub provisioning_margin: f64,
    /// Relative demand change that triggers a re-allocation.
    pub replan_threshold: f64,
}

impl Default for InferLineConfig {
    fn default() -> Self {
        Self {
            drop_policy: DropPolicy::LastTask,
            slo_headroom_divisor: 2.0,
            comm_latency_ms: 2.0,
            provisioning_margin: 1.25,
            replan_threshold: 0.05,
        }
    }
}

/// The InferLine-style controller.
pub struct InferLineController {
    graph: PipelineGraph,
    config: InferLineConfig,
    /// Shared plan-emission seam: the same `MostAccurateFirst` emitter Loki uses,
    /// so this baseline's routing compiles through the identical dense-plan API.
    lb: MostAccurateFirst,
    fanout: FanoutOverrides,
    last_planned_demand: f64,
    planned_once: bool,
}

impl InferLineController {
    /// Create a controller for a pipeline.
    pub fn new(graph: PipelineGraph, config: InferLineConfig) -> Self {
        graph.validate().expect("pipeline graph must be valid");
        Self {
            graph,
            config,
            lb: MostAccurateFirst::default(),
            fanout: FanoutOverrides::new(),
            last_planned_demand: 0.0,
            planned_once: false,
        }
    }

    /// Create a controller with the default configuration.
    pub fn with_defaults(graph: PipelineGraph) -> Self {
        Self::new(graph, InferLineConfig::default())
    }

    /// Create a controller with the default configuration but a specific runtime drop
    /// policy (used by scenario factories that ablate drop policies across systems).
    pub fn with_drop_policy(graph: PipelineGraph, drop_policy: DropPolicy) -> Self {
        Self::new(
            graph,
            InferLineConfig {
                drop_policy,
                ..InferLineConfig::default()
            },
        )
    }

    /// The controller configuration.
    pub fn config(&self) -> &InferLineConfig {
        &self.config
    }

    /// Mutable access to the configuration (scenario factories adjust the comm
    /// latency to the cluster's link-delay model before the run starts).
    pub fn config_mut(&mut self) -> &mut InferLineConfig {
        &mut self.config
    }

    fn most_accurate_choice(&self) -> Vec<usize> {
        self.graph
            .tasks()
            .map(|(_, t)| t.most_accurate_variant())
            .collect()
    }

    /// Build the allocation for a given demand, capping at the cluster size when the
    /// demand exceeds the maximum-accuracy capacity.
    pub fn allocate_for_demand(&self, demand: f64, cluster_size: usize) -> AllocationPlan {
        let perf = PerfModel::new(
            &self.graph,
            self.config.slo_headroom_divisor,
            self.config.comm_latency_ms,
        );
        let choice = self.most_accurate_choice();
        let target = {
            let cap = perf.max_servable_demand(&choice, cluster_size, &self.fanout);
            if cap > 0.0 {
                demand.min(cap)
            } else {
                demand
            }
        };
        let Some(plan) = perf.plan_for_choice(&choice, target, &self.fanout) else {
            return AllocationPlan {
                instances: Vec::new(),
                latency_budgets_ms: HashMap::new(),
                drop_policy: self.config.drop_policy,
            };
        };
        let mut instances = Vec::new();
        let mut budgets = HashMap::new();
        for (t, &k) in plan.choice.iter().enumerate() {
            if plan.replicas[t] == 0 {
                continue;
            }
            let variant = VariantId::new(t, k);
            instances.push(InstanceSpec {
                variant,
                max_batch: plan.batches[t],
                count: plan.replicas[t],
            });
            budgets.insert(variant, perf.runtime_budget_ms(variant, plan.batches[t]));
        }
        AllocationPlan {
            instances,
            latency_budgets_ms: budgets,
            drop_policy: self.config.drop_policy,
        }
    }

    fn demand_estimate(&self, observed: &ObservedState<'_>) -> f64 {
        let base = if observed.demand.is_empty() {
            observed.initial_demand_hint.unwrap_or(0.0)
        } else {
            observed
                .demand
                .provisioning_estimate()
                .max(observed.initial_demand_hint.unwrap_or(0.0))
        };
        base * self.config.provisioning_margin
    }
}

impl Controller for InferLineController {
    fn name(&self) -> &str {
        "inferline"
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        if !observed.observed_fanout.is_empty() {
            self.fanout = observed.observed_fanout.clone();
        }
        let demand = self.demand_estimate(observed);
        let relative_change =
            (demand - self.last_planned_demand).abs() / self.last_planned_demand.max(1.0);
        if self.planned_once && relative_change <= self.config.replan_threshold {
            return None;
        }
        self.planned_once = true;
        self.last_planned_demand = demand;
        Some(self.allocate_for_demand(demand, observed.cluster_size))
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        let demand = self.demand_estimate(observed);
        Some(
            self.lb
                .emit(&self.graph, observed.workers, demand, &self.fanout),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_pipeline::zoo;
    use loki_sim::{SimConfig, Simulation};
    use loki_workload::{generate_arrivals, generators, ArrivalProcess};

    #[test]
    fn always_hosts_most_accurate_variants() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let ctl = InferLineController::with_defaults(g.clone());
        for demand in [50.0, 500.0, 5_000.0] {
            let plan = ctl.allocate_for_demand(demand, 20);
            for spec in &plan.instances {
                let task = g.task(loki_pipeline::TaskId(spec.variant.task));
                assert_eq!(spec.variant.variant, task.most_accurate_variant());
            }
            assert!(plan.total_workers() <= 20);
        }
    }

    #[test]
    fn replicas_grow_with_demand_until_cluster_is_full() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let ctl = InferLineController::with_defaults(g.clone());
        let low = ctl.allocate_for_demand(50.0, 20).total_workers();
        let mid = ctl.allocate_for_demand(300.0, 20).total_workers();
        let high = ctl.allocate_for_demand(50_000.0, 20).total_workers();
        assert!(low < mid);
        assert!(mid <= high);
        assert!(high <= 20);
    }

    #[test]
    fn serves_within_capacity_but_saturates_beyond() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let perf = PerfModel::new(&g, 2.0, 2.0);
        let choice: Vec<usize> = g.tasks().map(|(_, t)| t.most_accurate_variant()).collect();
        let hw_cap = perf.max_servable_demand(&choice, 20, &FanoutOverrides::new());

        let run = |demand: f64| {
            let controller = InferLineController::with_defaults(g.clone());
            let trace = generators::constant(30, demand);
            let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 5);
            let config = SimConfig {
                cluster_size: 20,
                control_interval_s: 5.0,
                initial_demand_hint: Some(demand),
                drain_s: 15.0,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(&g, config, controller);
            sim.try_run(&arrivals).unwrap().summary
        };

        let ok = run(hw_cap * 0.6);
        assert!(
            ok.slo_violation_ratio < 0.05,
            "within capacity violations: {}",
            ok.slo_violation_ratio
        );
        assert!((ok.system_accuracy - g.max_accuracy()).abs() < 1e-6);

        let overloaded = run(hw_cap * 2.0);
        assert!(
            overloaded.slo_violation_ratio > 0.3,
            "overload violations should shoot up: {}",
            overloaded.slo_violation_ratio
        );
    }
}
