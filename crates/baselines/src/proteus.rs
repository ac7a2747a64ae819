//! A Proteus-style baseline: per-model accuracy scaling, pipeline-agnostic.
//!
//! Proteus (ASPLOS'24) introduced accuracy scaling for *independent* models on a
//! fixed-size cluster. Applied to a pipeline (as in the paper's evaluation), it manages
//! every task in isolation:
//!
//! * each task's provisioning is driven by the arrival rate **observed at that task**,
//!   with no model of the workload multiplication upstream variants will cause;
//! * the cluster is statically partitioned across tasks (no hardware scaling — all
//!   servers stay active, which is why the paper reports Loki using up to 2.67× fewer
//!   servers off-peak);
//! * within its partition, each task independently picks the most accurate variant
//!   that can absorb its observed demand, degrading accuracy locally without regard to
//!   the end-to-end accuracy impact.

use loki_core::load_balancer::MostAccurateFirst;
use loki_core::perf::PerfModel;
use loki_pipeline::{BatchSize, PipelineGraph, TaskId, VariantId};
use loki_sim::{AllocationPlan, CompiledPlan, Controller, DropPolicy, InstanceSpec, ObservedState};
use std::collections::HashMap;

/// Configuration of the Proteus-style baseline.
#[derive(Debug, Clone)]
pub struct ProteusConfig {
    /// Runtime drop policy.
    pub drop_policy: DropPolicy,
    /// SLO headroom divisor.
    pub slo_headroom_divisor: f64,
    /// Per-hop network latency (ms).
    pub comm_latency_ms: f64,
    /// Provisioning margin over observed per-task demand.
    pub provisioning_margin: f64,
}

impl Default for ProteusConfig {
    fn default() -> Self {
        Self {
            drop_policy: DropPolicy::LastTask,
            slo_headroom_divisor: 2.0,
            comm_latency_ms: 2.0,
            provisioning_margin: 1.25,
        }
    }
}

/// The Proteus-style controller.
pub struct ProteusController {
    graph: PipelineGraph,
    config: ProteusConfig,
    /// Shared plan-emission seam: the same `MostAccurateFirst` emitter Loki uses,
    /// so this baseline's routing compiles through the identical dense-plan API.
    lb: MostAccurateFirst,
}

impl ProteusController {
    /// Create a controller for a pipeline.
    pub fn new(graph: PipelineGraph, config: ProteusConfig) -> Self {
        graph.validate().expect("pipeline graph must be valid");
        Self {
            graph,
            config,
            lb: MostAccurateFirst::default(),
        }
    }

    /// Create a controller with the default configuration.
    pub fn with_defaults(graph: PipelineGraph) -> Self {
        Self::new(graph, ProteusConfig::default())
    }

    /// Create a controller with the default configuration but a specific runtime drop
    /// policy (used by scenario factories that ablate drop policies across systems).
    pub fn with_drop_policy(graph: PipelineGraph, drop_policy: DropPolicy) -> Self {
        Self::new(
            graph,
            ProteusConfig {
                drop_policy,
                ..ProteusConfig::default()
            },
        )
    }

    /// The controller configuration.
    pub fn config(&self) -> &ProteusConfig {
        &self.config
    }

    /// Mutable access to the configuration (scenario factories adjust the comm
    /// latency to the cluster's link-delay model before the run starts).
    pub fn config_mut(&mut self) -> &mut ProteusConfig {
        &mut self.config
    }

    /// The per-task latency budget a pipeline-agnostic system would use: an equal split
    /// of the (headroom-adjusted) SLO across tasks, since it has no path model.
    fn per_task_budget_ms(&self) -> f64 {
        let tasks = self.graph.num_tasks() as f64;
        (self.graph.slo_ms() / self.config.slo_headroom_divisor
            - self.config.comm_latency_ms * (tasks + 1.0))
            / tasks
    }

    /// The largest allowed batch size for a variant whose latency fits in the per-task
    /// budget.
    fn batch_for(&self, variant: VariantId, budget_ms: f64) -> Option<BatchSize> {
        self.graph
            .variant(variant)
            .largest_batch_within(self.graph.batch_sizes(), budget_ms)
    }

    /// Allocate the whole cluster across tasks given the per-task observed demand.
    pub fn allocate_for_observed(
        &self,
        per_task_demand: &HashMap<usize, f64>,
        cluster_size: usize,
    ) -> AllocationPlan {
        let perf = PerfModel::new(
            &self.graph,
            self.config.slo_headroom_divisor,
            self.config.comm_latency_ms,
        );
        let budget = self.per_task_budget_ms();
        let num_tasks = self.graph.num_tasks();

        // Demand per task (default: same as the root if never observed — a
        // pipeline-agnostic system has no better prior).
        let root_demand = per_task_demand
            .get(&self.graph.root().index())
            .copied()
            .unwrap_or(0.0);
        let demands: Vec<f64> = (0..num_tasks)
            .map(|t| {
                per_task_demand
                    .get(&t)
                    .copied()
                    .unwrap_or(root_demand)
                    .max(0.0)
                    * self.config.provisioning_margin
            })
            .collect();

        // Static partition of the cluster proportional to each task's compute need
        // (demand × per-query cost of its most accurate variant).
        let weights: Vec<f64> = (0..num_tasks)
            .map(|t| {
                let task = self.graph.task(TaskId(t));
                let v = VariantId::new(t, task.most_accurate_variant());
                let cost = 1.0 / self.graph.variant(v).peak_throughput_qps_or_default();
                (demands[t] * cost).max(1e-6)
            })
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let mut partition: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total_weight) * cluster_size as f64).floor() as usize)
            .map(|n| n.max(1))
            .collect();
        // Distribute any remaining servers to the heaviest tasks; trim if we overshot
        // because of the per-task minimum of one server.
        loop {
            let used: usize = partition.iter().sum();
            if used == cluster_size {
                break;
            }
            if used < cluster_size {
                let t = (0..num_tasks)
                    .max_by(|&a, &b| weights[a].partial_cmp(&weights[b]).unwrap())
                    .unwrap();
                partition[t] += 1;
            } else {
                let t = (0..num_tasks)
                    .filter(|&t| partition[t] > 1)
                    .min_by(|&a, &b| weights[a].partial_cmp(&weights[b]).unwrap());
                match t {
                    Some(t) => partition[t] -= 1,
                    None => break,
                }
            }
        }

        // Each task independently picks the most accurate variant whose partition can
        // absorb its observed demand.
        let mut instances = Vec::new();
        let mut budgets = HashMap::new();
        for t in 0..num_tasks {
            let task = self.graph.task(TaskId(t));
            let servers = partition[t];
            let mut selected: Option<(VariantId, BatchSize)> = None;
            for &k in &task.variants_by_accuracy_desc() {
                let variant = VariantId::new(t, k);
                let Some(batch) = self.batch_for(variant, budget) else {
                    continue;
                };
                let capacity = servers as f64 * self.graph.variant(variant).throughput_qps(batch);
                if capacity >= demands[t] || k == task.least_accurate_variant() {
                    selected = Some((variant, batch));
                    if capacity >= demands[t] {
                        break;
                    }
                }
            }
            // Fall back to the least accurate variant at batch 1 if nothing fits the
            // per-task latency budget (mirrors Proteus degrading as far as it can).
            let (variant, batch) = selected.unwrap_or_else(|| {
                let v = VariantId::new(t, task.least_accurate_variant());
                (v, *self.graph.batch_sizes().iter().min().unwrap())
            });
            instances.push(InstanceSpec {
                variant,
                max_batch: batch,
                count: servers,
            });
            budgets.insert(variant, perf.runtime_budget_ms(variant, batch));
        }

        AllocationPlan {
            instances,
            latency_budgets_ms: budgets,
            drop_policy: self.config.drop_policy,
        }
    }
}

/// Small extension trait so the partition weights can use the asymptotic throughput of
/// a variant without dividing by zero anywhere.
trait PeakThroughput {
    fn peak_throughput_qps_or_default(&self) -> f64;
}

impl PeakThroughput for loki_pipeline::ModelVariant {
    fn peak_throughput_qps_or_default(&self) -> f64 {
        let p = self.latency.peak_throughput_qps();
        if p.is_finite() && p > 0.0 {
            p
        } else {
            1.0
        }
    }
}

impl Controller for ProteusController {
    fn name(&self) -> &str {
        "proteus"
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        // Pipeline-agnostic: the only inputs are the per-task observed arrival rates
        // (and the frontend demand for the root task).
        let mut per_task = observed.per_task_arrival_qps.clone();
        let root = self.graph.root().index();
        let root_demand = if observed.demand.is_empty() {
            observed.initial_demand_hint.unwrap_or(0.0)
        } else {
            observed
                .demand
                .provisioning_estimate()
                .max(observed.initial_demand_hint.unwrap_or(0.0))
        };
        let entry = per_task.entry(root).or_insert(0.0);
        *entry = entry.max(root_demand);
        Some(self.allocate_for_observed(&per_task, observed.cluster_size))
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        let demand = observed
            .demand
            .provisioning_estimate()
            .max(observed.initial_demand_hint.unwrap_or(0.0));
        // Proteus routes per task without pipeline knowledge; MostAccurateFirst over
        // the observed fan-out degenerates to exactly that when fan-out data is empty.
        Some(self.lb.emit(
            &self.graph,
            observed.workers,
            demand,
            observed.observed_fanout,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_pipeline::zoo;
    use loki_sim::{SimConfig, Simulation};
    use loki_workload::{generate_arrivals, generators, ArrivalProcess};

    #[test]
    fn always_uses_the_whole_cluster() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let ctl = ProteusController::with_defaults(g.clone());
        for demand in [20.0, 200.0, 2_000.0] {
            let mut observed = HashMap::new();
            observed.insert(0usize, demand);
            let plan = ctl.allocate_for_observed(&observed, 20);
            assert_eq!(
                plan.total_workers(),
                20,
                "Proteus never powers servers down (demand {demand})"
            );
        }
    }

    #[test]
    fn degrades_accuracy_per_task_under_load() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let ctl = ProteusController::with_defaults(g.clone());
        let mut low = HashMap::new();
        low.insert(0usize, 50.0);
        let mut high = HashMap::new();
        high.insert(0usize, 3_000.0);
        high.insert(1usize, 5_000.0);
        high.insert(2usize, 1_500.0);
        let acc_of = |plan: &AllocationPlan| -> f64 {
            plan.instances
                .iter()
                .map(|s| g.variant(s.variant).accuracy)
                .sum::<f64>()
                / plan.instances.len() as f64
        };
        let low_plan = ctl.allocate_for_observed(&low, 20);
        let high_plan = ctl.allocate_for_observed(&high, 20);
        assert!(acc_of(&high_plan) < acc_of(&low_plan));
    }

    #[test]
    fn end_to_end_simulation_runs() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let controller = ProteusController::with_defaults(g.clone());
        let trace = generators::constant(30, 150.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 8);
        let config = SimConfig {
            cluster_size: 20,
            control_interval_s: 5.0,
            initial_demand_hint: Some(150.0),
            drain_s: 15.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&g, config, controller);
        let result = sim.run(&arrivals);
        assert!(result.summary.total_arrivals > 4000);
        // The whole cluster is always on.
        assert_eq!(result.summary.max_active_workers, 20);
        assert!(result.summary.mean_utilization > 0.9);
        // It still serves most of the (moderate) demand.
        assert!(result.summary.total_on_time > result.summary.total_arrivals / 2);
    }
}
