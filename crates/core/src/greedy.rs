//! The greedy Resource-Manager allocator.
//!
//! The greedy allocator mirrors the structure of the paper's two-step MILP:
//!
//! 1. **Hardware scaling.** Provision the most accurate variant for every task with the
//!    fewest servers that cover the estimated demand (batch sizes enlarged greedily
//!    while every root-to-sink path stays within its latency budget). If that fits in
//!    the cluster, done — only those servers are activated.
//! 2. **Accuracy scaling.** Otherwise, repeatedly downgrade the task whose downgrade
//!    saves the most servers per unit of end-to-end accuracy lost (the pipeline-aware
//!    criterion the paper motivates with Figure 1: the second task of the traffic
//!    pipeline is degraded before the first). Once the demand fits, any leftover
//!    servers are spent hosting higher-accuracy replicas that `MostAccurateFirst`
//!    routing will saturate first, so accuracy degrades continuously rather than in
//!    steps.
//! 3. **Saturation.** If even the least accurate configuration cannot absorb the
//!    demand, provision for the maximum servable demand; the excess is handled by the
//!    runtime drop policies.
//!
//! Besides being the default engine for long simulations, the greedy solution is also
//! used as the warm-start incumbent for the exact MILP.

use crate::allocator::{AllocationContext, AllocationOutcome, Allocator, ScalingMode};
use crate::perf::{effective_fanout, ChoicePlan, PerfModel};
use loki_pipeline::{BatchSize, TaskId, VariantId};
use loki_sim::{AllocationPlan, InstanceSpec};
use std::collections::HashMap;

/// The greedy allocation engine.
#[derive(Debug, Clone, Default)]
pub struct GreedyAllocator;

/// A loaded task's one-rank accuracy upgrade, as priced for leftover servers.
struct Upgrade {
    /// The next more accurate variant of the task.
    variant: VariantId,
    /// The largest batch that keeps every path feasible with that variant.
    batch: BatchSize,
    /// Throughput (QPS) one replica of it adds.
    added: f64,
    /// End-to-end accuracy gained if it served all of the task's traffic.
    gain: f64,
}

impl GreedyAllocator {
    /// Create a greedy allocator.
    pub fn new() -> Self {
        Self
    }

    /// The per-task variant choice that uses the most accurate variant everywhere.
    fn most_accurate_choice(ctx: &AllocationContext<'_>) -> Vec<usize> {
        ctx.graph
            .tasks()
            .map(|(_, t)| t.most_accurate_variant())
            .collect()
    }

    /// Greedy accuracy degradation: starting from `choice` and its plan `current_plan`,
    /// repeatedly apply the downgrade with the best servers-saved-per-accuracy-lost
    /// ratio until the plan fits in the cluster or no further downgrade exists.
    /// Returns the final choice and its plan (if any plan is latency-feasible at all).
    fn degrade_until_feasible(
        perf: &PerfModel<'_>,
        ctx: &AllocationContext<'_>,
        mut choice: Vec<usize>,
        mut current_plan: Option<ChoicePlan>,
    ) -> (Vec<usize>, Option<ChoicePlan>) {
        let max_steps: usize = ctx.graph.tasks().map(|(_, t)| t.variants.len()).sum();
        for _ in 0..max_steps {
            if let Some(p) = &current_plan {
                if p.servers <= ctx.cluster_size {
                    return (choice, current_plan);
                }
            }
            // Evaluate every single-task downgrade.
            let current_servers = current_plan
                .as_ref()
                .map(|p| p.servers as f64)
                .unwrap_or(f64::INFINITY);
            let current_accuracy = current_plan
                .as_ref()
                .map(|p| p.accuracy)
                .unwrap_or_else(|| perf.choice_accuracy(&choice));
            // Among downgrades that already make the plan fit the cluster, prefer the
            // one losing the least accuracy; otherwise fall back to the best
            // servers-saved-per-accuracy-lost ratio. Each candidate is planned on
            // `choice` in place, and only the leader's plan is kept.
            let mut best: Option<(f64, ChoicePlan)> = None;
            let mut best_feasible: Option<(f64, ChoicePlan)> = None;
            for t in 0..ctx.graph.num_tasks() {
                let order = ctx.graph.accuracy_order(TaskId(t));
                let pos = order.iter().position(|&k| k == choice[t]).unwrap();
                let Some(&down) = order.get(pos + 1) else {
                    continue; // already at the least accurate variant
                };
                let current = choice[t];
                choice[t] = down;
                let plan = perf.plan_for_choice(&choice, ctx.demand_qps, ctx.fanout);
                choice[t] = current;
                let Some(plan) = plan else {
                    continue;
                };
                if plan.servers <= ctx.cluster_size {
                    // A fitting downgrade always wins over the ratio fallback.
                    if best_feasible
                        .as_ref()
                        .is_none_or(|(a, _)| plan.accuracy > *a)
                    {
                        best_feasible = Some((plan.accuracy, plan));
                    }
                    continue;
                }
                let saved = if current_servers.is_finite() {
                    current_servers - plan.servers as f64
                } else {
                    // Any latency-feasible plan beats an infeasible one.
                    1e9 - plan.servers as f64
                };
                let lost = (current_accuracy - plan.accuracy).max(1e-6);
                let score = saved / lost;
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((score, plan));
                }
            }
            match best_feasible.or(best) {
                Some((_, plan)) => {
                    choice.copy_from_slice(&plan.choice);
                    current_plan = Some(plan);
                }
                None => break,
            }
        }
        (choice, current_plan)
    }

    /// Convert a single-choice plan into the data-plane allocation plan.
    fn plan_to_alloc(
        perf: &PerfModel<'_>,
        ctx: &AllocationContext<'_>,
        plan: &ChoicePlan,
    ) -> AllocationPlan {
        let mut instances = Vec::new();
        let mut budgets = HashMap::new();
        for (t, &k) in plan.choice.iter().enumerate() {
            if plan.replicas[t] == 0 {
                continue;
            }
            let variant = VariantId::new(t, k);
            let batch = plan.batches[t];
            instances.push(InstanceSpec {
                variant,
                max_batch: batch,
                count: plan.replicas[t],
            });
            budgets.insert(variant, perf.runtime_budget_ms(variant, batch));
        }
        AllocationPlan {
            instances,
            latency_budgets_ms: budgets,
            drop_policy: ctx.drop_policy,
        }
    }

    /// Spend leftover servers on replicas of more accurate variants so that part of the
    /// traffic can be served at higher accuracy (MostAccurateFirst saturates these
    /// first). Returns the extra instances and an estimate of the accuracy uplift.
    fn upgrade_with_leftover(
        perf: &PerfModel<'_>,
        ctx: &AllocationContext<'_>,
        plan: &ChoicePlan,
        leftover: usize,
        alloc: &mut AllocationPlan,
    ) -> f64 {
        if leftover == 0 {
            return plan.accuracy;
        }
        let graph = ctx.graph;
        // A task's upgrade does not depend on which replicas were added before it, so
        // each is priced once, on copies of the plan's choice and batches.
        let base_accuracy = perf.choice_accuracy(&plan.choice);
        let mut choice = plan.choice.clone();
        let mut batches = plan.batches.clone();
        let upgrades: Vec<Option<Upgrade>> = (0..graph.num_tasks())
            .map(|t| {
                if plan.task_demands[t] <= 1e-9 {
                    return None;
                }
                let order = graph.accuracy_order(TaskId(t));
                let pos = order.iter().position(|&k| k == plan.choice[t]).unwrap();
                // `None` when the task already runs its most accurate variant.
                let up = *order[..pos].last()?;
                // The upgraded variant is slower; find the largest batch that keeps
                // every path feasible when this task runs the upgraded variant.
                choice[t] = up;
                let mut best_batch = None;
                for &b in graph.batch_sizes() {
                    batches[t] = b;
                    if perf.batches_fit(&choice, &batches) {
                        best_batch = Some(match best_batch {
                            Some(prev) if prev >= b => prev,
                            _ => b,
                        });
                    }
                }
                batches[t] = plan.batches[t];
                let gain = (perf.choice_accuracy(&choice) - base_accuracy).max(0.0);
                choice[t] = plan.choice[t];
                let batch = best_batch?;
                let variant = VariantId::new(t, up);
                Some(Upgrade {
                    variant,
                    batch,
                    added: graph.variant(variant).throughput_qps(batch),
                    gain,
                })
            })
            .collect();

        let mut upgraded_capacity = vec![0.0; graph.num_tasks()];
        let mut remaining = leftover;
        let mut expected_accuracy = plan.accuracy;
        while remaining > 0 {
            let mut best: Option<(f64, usize, &Upgrade)> = None; // (gain, task, upgrade)
            for (t, up) in upgrades.iter().enumerate() {
                let Some(up) = up else { continue };
                let demand = plan.task_demands[t];
                let already = upgraded_capacity[t];
                let coverable = ((already + up.added).min(demand) - already).max(0.0);
                if coverable <= 1e-9 {
                    continue;
                }
                let acc_gain = up.gain * (coverable / demand);
                if acc_gain > 1e-9 && best.is_none_or(|(g, ..)| acc_gain > g) {
                    best = Some((acc_gain, t, up));
                }
            }
            let Some((gain, t, up)) = best else {
                break;
            };
            upgraded_capacity[t] += up.added;
            expected_accuracy += gain;
            if let Some(existing) = alloc
                .instances
                .iter_mut()
                .find(|i| i.variant == up.variant && i.max_batch == up.batch)
            {
                existing.count += 1;
            } else {
                alloc.instances.push(InstanceSpec {
                    variant: up.variant,
                    max_batch: up.batch,
                    count: 1,
                });
            }
            alloc
                .latency_budgets_ms
                .entry(up.variant)
                .or_insert_with(|| perf.runtime_budget_ms(up.variant, up.batch));
            remaining -= 1;
        }
        expected_accuracy.min(ctx.graph.max_accuracy())
    }

    /// Steps 1 and 2: the most accurate plan that fits the cluster, by hardware
    /// scaling if the most accurate variants fit and by accuracy scaling otherwise.
    /// `None` if no plan the degradation reaches fits.
    fn scale_to_fit(
        perf: &PerfModel<'_>,
        ctx: &AllocationContext<'_>,
        demand: f64,
    ) -> Option<AllocationOutcome> {
        let best_choice = Self::most_accurate_choice(ctx);
        // Step 1: hardware scaling with the most accurate variants.
        let best_plan = perf.plan_for_choice(&best_choice, demand, ctx.fanout);
        if let Some(plan) = &best_plan {
            if plan.servers <= ctx.cluster_size {
                let alloc = Self::plan_to_alloc(perf, ctx, plan);
                let servable =
                    perf.max_servable_demand(&best_choice, plan.servers.max(1), ctx.fanout);
                return Some(AllocationOutcome {
                    expected_accuracy: plan.accuracy,
                    servers_used: plan.servers,
                    demand_planned: demand,
                    servable_demand: servable,
                    mode: ScalingMode::Hardware,
                    plan: alloc,
                });
            }
        }

        // Step 2: accuracy scaling, from the step-1 plan. It was planned for the
        // clamped demand, which differs from `ctx.demand_qps` only when that is
        // negative, and a negative demand needs no server, so step 1 took it.
        let (choice, plan) = Self::degrade_until_feasible(perf, ctx, best_choice, best_plan);
        if let Some(plan) = plan {
            if plan.servers <= ctx.cluster_size {
                let mut alloc = Self::plan_to_alloc(perf, ctx, &plan);
                let leftover = ctx.cluster_size - plan.servers;
                let expected_accuracy = if ctx.upgrade_with_leftover {
                    Self::upgrade_with_leftover(perf, ctx, &plan, leftover, &mut alloc)
                } else {
                    plan.accuracy
                };
                let servers_used = alloc.total_workers();
                let servable = perf.max_servable_demand(&choice, ctx.cluster_size, ctx.fanout);
                return Some(AllocationOutcome {
                    plan: alloc,
                    mode: ScalingMode::Accuracy,
                    servers_used,
                    expected_accuracy,
                    demand_planned: demand,
                    servable_demand: servable,
                });
            }
        }
        None
    }

    /// Whether every variant choice sends demand to every task, so that any plan
    /// needs at least one server per task. Follows `PerfModel::task_demands` with
    /// each edge's least fan-out over its parent's variants, which bounds every
    /// choice's task demands from below.
    fn loads_every_task(ctx: &AllocationContext<'_>, demand: f64) -> bool {
        let graph = ctx.graph;
        let mut least_demand = vec![0.0; graph.num_tasks()];
        least_demand[graph.root().index()] = demand;
        for &task_id in graph.topological_order() {
            let t = task_id.index();
            let task = graph.task(task_id);
            for edge in &task.children {
                let mut least = f64::INFINITY;
                for k in 0..task.variants.len() {
                    let f = effective_fanout(graph, VariantId::new(t, k), edge.child, ctx.fanout);
                    if f.is_nan() || f < 0.0 {
                        return false; // a negative or NaN fan-out bounds nothing
                    }
                    least = least.min(f);
                }
                least_demand[edge.child.index()] += least_demand[t] * least;
            }
        }
        // `plan_for_choice` gives a task no replica at or below this demand.
        least_demand.iter().all(|&d| d > 1e-9)
    }

    /// The least accurate (highest throughput) variant choice.
    fn least_accurate_choice(ctx: &AllocationContext<'_>) -> Vec<usize> {
        ctx.graph
            .tasks()
            .map(|(_, t)| t.least_accurate_variant())
            .collect()
    }
}

impl Allocator for GreedyAllocator {
    fn name(&self) -> &str {
        "greedy"
    }

    fn allocate(&self, ctx: &AllocationContext<'_>) -> AllocationOutcome {
        let perf = PerfModel::with_budgets(ctx.graph, ctx.slo_divisor, &ctx.budgets);
        let demand = ctx.demand_qps.max(0.0);
        // A cluster with fewer servers than the tasks every choice loads fits no
        // plan, so steps 1 and 2 would search in vain.
        let fits_none =
            ctx.cluster_size < ctx.graph.num_tasks() && Self::loads_every_task(ctx, demand);
        if !fits_none {
            if let Some(outcome) = Self::scale_to_fit(&perf, ctx, demand) {
                return outcome;
            }
        }

        // Step 3: saturated — provision for the maximum demand the cluster can absorb
        // with the cheapest latency-feasible configuration.
        let min_choice = Self::least_accurate_choice(ctx);
        let capacity = perf.max_servable_demand(&min_choice, ctx.cluster_size, ctx.fanout);
        let target = (capacity * 0.98).max(1.0);
        match perf.plan_for_choice(&min_choice, target, ctx.fanout) {
            // A cluster smaller than the number of loaded tasks cannot host the
            // pipeline at all; report an empty plan rather than an oversized one.
            Some(plan) if plan.servers > ctx.cluster_size => AllocationOutcome {
                plan: AllocationPlan {
                    instances: Vec::new(),
                    latency_budgets_ms: HashMap::new(),
                    drop_policy: ctx.drop_policy,
                },
                mode: ScalingMode::Saturated,
                servers_used: 0,
                expected_accuracy: 0.0,
                demand_planned: demand,
                servable_demand: 0.0,
            },
            Some(plan) => {
                let mut alloc = Self::plan_to_alloc(&perf, ctx, &plan);
                let leftover = ctx.cluster_size.saturating_sub(plan.servers);
                let expected_accuracy = if ctx.upgrade_with_leftover {
                    Self::upgrade_with_leftover(&perf, ctx, &plan, leftover, &mut alloc)
                } else {
                    plan.accuracy
                };
                let servers_used = alloc.total_workers();
                AllocationOutcome {
                    plan: alloc,
                    mode: ScalingMode::Saturated,
                    servers_used,
                    expected_accuracy,
                    demand_planned: demand,
                    servable_demand: capacity,
                }
            }
            None => AllocationOutcome {
                // The SLO is so tight that no configuration is latency-feasible at all;
                // return an empty plan (the paper observes the same below ~200 ms for
                // the traffic pipeline).
                plan: AllocationPlan {
                    instances: Vec::new(),
                    latency_budgets_ms: HashMap::new(),
                    drop_policy: ctx.drop_policy,
                },
                mode: ScalingMode::Saturated,
                servers_used: 0,
                expected_accuracy: 0.0,
                demand_planned: demand,
                servable_demand: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::FanoutOverrides;
    use loki_pipeline::{zoo, TaskId};
    use loki_sim::DropPolicy;

    fn ctx<'a>(
        graph: &'a loki_pipeline::PipelineGraph,
        fanout: &'a FanoutOverrides,
        demand: f64,
        cluster: usize,
    ) -> AllocationContext<'a> {
        AllocationContext {
            graph,
            cluster_size: cluster,
            demand_qps: demand,
            fanout,
            drop_policy: DropPolicy::OpportunisticRerouting,
            slo_divisor: 2.0,
            budgets: loki_sim::HopBudgets::uniform(2.0, graph.num_tasks()),
            upgrade_with_leftover: true,
        }
    }

    #[test]
    fn low_demand_uses_hardware_scaling_and_few_servers() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        let out = GreedyAllocator::new().allocate(&ctx(&g, &fanout, 50.0, 20));
        assert_eq!(out.mode, ScalingMode::Hardware);
        assert!(out.servers_used < 20, "servers={}", out.servers_used);
        assert!((out.expected_accuracy - g.max_accuracy()).abs() < 1e-9);
        // All hosted variants are the most accurate of their task.
        for spec in &out.plan.instances {
            let task = g.task(TaskId(spec.variant.task));
            assert_eq!(spec.variant.variant, task.most_accurate_variant());
        }
        assert!(out.servable_demand >= 50.0);
    }

    #[test]
    fn servers_scale_with_demand_in_hardware_mode() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        let a = GreedyAllocator::new().allocate(&ctx(&g, &fanout, 50.0, 20));
        let b = GreedyAllocator::new().allocate(&ctx(&g, &fanout, 200.0, 20));
        assert!(a.servers_used < b.servers_used);
    }

    #[test]
    fn overload_switches_to_accuracy_scaling() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        let perf = PerfModel::new(&g, 2.0, 2.0);
        let best: Vec<usize> = g.tasks().map(|(_, t)| t.most_accurate_variant()).collect();
        let hw_capacity = perf.max_servable_demand(&best, 20, &fanout);
        let demand = hw_capacity * 1.5;
        let out = GreedyAllocator::new().allocate(&ctx(&g, &fanout, demand, 20));
        assert_eq!(out.mode, ScalingMode::Accuracy);
        assert!(out.expected_accuracy < g.max_accuracy());
        assert!(out.expected_accuracy > g.min_accuracy());
        assert!(out.plan.total_workers() <= 20);
        assert!(out.servable_demand >= demand * 0.95);
    }

    #[test]
    fn accuracy_scaling_prefers_downgrading_downstream_tasks_first() {
        // Mild overload: only a little accuracy has to be sacrificed. The detector
        // (task 0) appears on every path, so downgrading it costs more end-to-end
        // accuracy per server saved; the greedy allocator should keep it at maximum
        // accuracy and downgrade a downstream task instead (the Figure 1 behaviour).
        let g = zoo::traffic_analysis_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        let perf = PerfModel::new(&g, 2.0, 2.0);
        let best: Vec<usize> = g.tasks().map(|(_, t)| t.most_accurate_variant()).collect();
        let hw_capacity = perf.max_servable_demand(&best, 20, &fanout);
        let out = GreedyAllocator::new().allocate(&ctx(&g, &fanout, hw_capacity * 1.3, 20));
        assert_eq!(out.mode, ScalingMode::Accuracy);
        let detector_variants: Vec<usize> = out
            .plan
            .instances
            .iter()
            .filter(|s| s.variant.task == 0)
            .map(|s| s.variant.variant)
            .collect();
        let best_det = g.task(TaskId(0)).most_accurate_variant();
        assert!(
            detector_variants.contains(&best_det),
            "detector should still host its most accurate variant, got {detector_variants:?}"
        );
    }

    #[test]
    fn extreme_demand_saturates() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        let out = GreedyAllocator::new().allocate(&ctx(&g, &fanout, 100_000.0, 20));
        assert_eq!(out.mode, ScalingMode::Saturated);
        assert!(out.servable_demand < 100_000.0);
        assert!(out.plan.total_workers() <= 20);
        assert!(out.servable_demand > 0.0);
    }

    #[test]
    fn impossible_slo_yields_empty_plan() {
        let g = zoo::traffic_analysis_pipeline(15.0);
        let fanout = FanoutOverrides::new();
        let out = GreedyAllocator::new().allocate(&ctx(&g, &fanout, 100.0, 20));
        assert!(out.plan.instances.is_empty());
        assert_eq!(out.servers_used, 0);
        assert_eq!(out.servable_demand, 0.0);
    }

    #[test]
    fn plans_never_exceed_the_cluster() {
        let g = zoo::social_media_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        for demand in [10.0, 100.0, 400.0, 900.0, 2500.0, 8000.0] {
            let out = GreedyAllocator::new().allocate(&ctx(&g, &fanout, demand, 20));
            assert!(
                out.plan.total_workers() <= 20,
                "demand {demand}: {} workers",
                out.plan.total_workers()
            );
        }
    }

    #[test]
    fn accuracy_trends_downwards_with_demand() {
        // The greedy allocator is a heuristic, so we allow tiny local wiggles (its
        // leftover-upgrade step can recover a little accuracy at specific demand
        // levels) but the overall trend must be a substantial decrease.
        let g = zoo::traffic_analysis_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        let demands = [100.0, 300.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0];
        let accs: Vec<f64> = demands
            .iter()
            .map(|&d| {
                GreedyAllocator::new()
                    .allocate(&ctx(&g, &fanout, d, 20))
                    .expected_accuracy
            })
            .collect();
        for w in accs.windows(2) {
            assert!(
                w[1] <= w[0] + 0.05,
                "accuracy should not jump up with demand: {accs:?}"
            );
        }
        assert!(
            accs[accs.len() - 1] < accs[0] - 0.05,
            "high demand must cost accuracy: {accs:?}"
        );
    }

    #[test]
    fn leftover_upgrade_raises_expected_accuracy() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        let perf = PerfModel::new(&g, 2.0, 2.0);
        let best: Vec<usize> = g.tasks().map(|(_, t)| t.most_accurate_variant()).collect();
        let hw_capacity = perf.max_servable_demand(&best, 20, &fanout);
        let demand = hw_capacity * 1.4;
        let mut with = ctx(&g, &fanout, demand, 20);
        with.upgrade_with_leftover = true;
        let mut without = ctx(&g, &fanout, demand, 20);
        without.upgrade_with_leftover = false;
        let a = GreedyAllocator::new().allocate(&with);
        let b = GreedyAllocator::new().allocate(&without);
        assert!(a.expected_accuracy >= b.expected_accuracy - 1e-9);
    }
}
