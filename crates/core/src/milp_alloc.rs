//! The exact MILP Resource-Manager allocator (Section 4.1 of the paper).
//!
//! The formulation follows the paper's notation. For every model variant `v_{i,k}` and
//! allowed batch size `b` we introduce
//!
//! * `n(i,k,b)` — an integer count of instances of `v_{i,k}` configured with maximum
//!   batch size `b` (the paper's `x(i,k)` split by batch size so that the product
//!   `x(i,k) · q(i,k,y(i,k))` of Constraint 2 becomes linear),
//! * `z(i,k,b)` — a binary selecting `b` as the variant's batch size `y(i,k)` (at most
//!   one per variant, Constraint 4),
//!
//! and for every root-to-sink path `p` of the augmented graph
//!
//! * `c(p)` — the fraction of queries routed through `p`,
//! * `I(p)` — a binary indicating whether `p` carries any traffic (Constraint 7's
//!   big-M latency guard).
//!
//! **Step 1 (hardware scaling)** restricts the variant set to the most accurate variant
//! of every task and minimizes `Σ n` (Equation 11). **Step 2 (accuracy scaling)** keeps
//! all variants and maximizes `Σ_p c(p)·Â(p)` (Equation 12). Both steps share the
//! throughput (Constraint 2), cluster-size (Constraint 3), and latency (Constraints
//! 4–7) models. The greedy allocator's plan is passed to the solver as a warm-start
//! incumbent so branch-and-bound can prune aggressively.

use crate::allocator::{AllocationContext, AllocationOutcome, Allocator, ScalingMode};
use crate::greedy::GreedyAllocator;
use crate::perf::PerfModel;
use loki_milp::{LinExpr, Model, ObjectiveSense, Sense, SolveOptions, Var};
use loki_pipeline::{AugmentedGraph, BatchSize, PipelineGraph, TaskId, VariantId};
use loki_sim::{AllocationPlan, InstanceSpec};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// The MILP allocation engine.
#[derive(Debug, Clone)]
pub struct MilpAllocator {
    time_budget: Duration,
    node_limit: usize,
}

/// Handles into a built allocation MILP, used to extract the plan from a solution and
/// to express warm starts. Ordered maps, so everything derived by iterating them (the
/// branching priority, the accuracy sum) is the same in every process.
pub struct MilpVars {
    /// `n(i,k,b)` instance-count variables.
    pub n: BTreeMap<(VariantId, BatchSize), Var>,
    /// `z(i,k,b)` batch-selection binaries.
    pub z: BTreeMap<(VariantId, BatchSize), Var>,
    /// `c(p)` path traffic ratios, keyed by path id.
    pub c: BTreeMap<usize, Var>,
    /// `I(p)` path-use indicators, keyed by path id.
    pub i_use: BTreeMap<usize, Var>,
}

impl MilpAllocator {
    /// Create a MILP allocator with the given solve budget.
    pub fn new(time_budget: Duration, node_limit: usize) -> Self {
        Self {
            time_budget,
            node_limit,
        }
    }

    /// Build the allocation MILP for the given context.
    ///
    /// When `restrict_to_most_accurate` is true only the most accurate variant of each
    /// task is considered and the objective minimizes the number of servers (Step 1,
    /// hardware scaling); otherwise every variant participates and the objective
    /// maximizes system accuracy (Step 2, accuracy scaling).
    pub fn build_model(
        ctx: &AllocationContext<'_>,
        aug: &AugmentedGraph,
        restrict_to_most_accurate: bool,
    ) -> (Model, MilpVars) {
        let graph = ctx.graph;
        let perf = PerfModel::with_budgets(graph, ctx.slo_divisor, &ctx.budgets);
        let s = ctx.cluster_size as f64;
        let demand = ctx.demand_qps.max(0.0);

        let mut model = Model::new(if restrict_to_most_accurate {
            "loki-hardware-scaling"
        } else {
            "loki-accuracy-scaling"
        });

        // Which variants participate.
        let allowed_variant = |v: VariantId| -> bool {
            if !restrict_to_most_accurate {
                return true;
            }
            graph.task(TaskId(v.task)).most_accurate_variant() == v.variant
        };

        // Per-variant: the largest path budget among paths through it (batches whose
        // single-task latency exceeds it can never be used).
        let mut max_budget: HashMap<VariantId, f64> = HashMap::new();
        for path in aug.paths() {
            let budget = perf.path_budget_ms(path.vertices.len());
            for &v in &path.vertices {
                let e = max_budget.entry(v).or_insert(f64::MIN);
                *e = e.max(budget);
            }
        }

        let mut vars = MilpVars {
            n: BTreeMap::new(),
            z: BTreeMap::new(),
            c: BTreeMap::new(),
            i_use: BTreeMap::new(),
        };

        // n and z variables plus the per-variant linking constraints.
        for v in graph.variant_ids() {
            if !allowed_variant(v) {
                continue;
            }
            let budget = max_budget.get(&v).copied().unwrap_or(f64::MIN);
            let mut z_sum = LinExpr::new();
            let mut any_batch = false;
            for &b in graph.batch_sizes() {
                let latency = graph.variant(v).batch_latency_ms(b);
                if latency > budget + 1e-9 {
                    continue;
                }
                any_batch = true;
                let n = model.add_integer(format!("n_{}_{}_{b}", v.task, v.variant), 0.0, s);
                let z = model.add_binary(format!("z_{}_{}_{b}", v.task, v.variant));
                // n(i,k,b) <= S * z(i,k,b)
                model.add_constraint(
                    format!("link_{}_{}_{b}", v.task, v.variant),
                    1.0 * n - s * z,
                    Sense::Le,
                    0.0,
                );
                vars.n.insert((v, b), n);
                vars.z.insert((v, b), z);
                z_sum += z;
            }
            if any_batch {
                // Σ_b z(i,k,b) <= 1 : a single batch size per variant (Constraint 4).
                model.add_constraint(
                    format!("one_batch_{}_{}", v.task, v.variant),
                    z_sum,
                    Sense::Le,
                    1.0,
                );
            }
        }

        // Path variables: only paths whose variants all participate and whose minimum
        // possible latency fits the budget.
        let min_batch = *graph.batch_sizes().iter().min().unwrap();
        for (pid, path) in aug.paths().iter().enumerate() {
            if !path.vertices.iter().all(|&v| allowed_variant(v)) {
                continue;
            }
            let budget = perf.path_budget_ms(path.vertices.len());
            let min_latency: f64 = path
                .vertices
                .iter()
                .map(|&v| graph.variant(v).batch_latency_ms(min_batch))
                .sum();
            if min_latency > budget + 1e-9 {
                continue;
            }
            let c = model.add_continuous(format!("c_{pid}"), 0.0, 1.0);
            let i_use = model.add_binary(format!("i_{pid}"));
            // c(p) <= I(p)
            model.add_constraint(format!("use_{pid}"), 1.0 * c - 1.0 * i_use, Sense::Le, 0.0);
            vars.c.insert(pid, c);
            vars.i_use.insert(pid, i_use);

            // Latency (Constraints 5-7): Σ_(i,k)∈p Σ_b l(i,k,b)·z(i,k,b) <= budget + M(1-I(p)).
            let mut latency_expr = LinExpr::new();
            let mut big_m = 0.0f64;
            for &v in &path.vertices {
                let mut max_l = 0.0f64;
                for &b in graph.batch_sizes() {
                    if let Some(&z) = vars.z.get(&(v, b)) {
                        let l = graph.variant(v).batch_latency_ms(b);
                        latency_expr.add_term(z, l);
                        max_l = max_l.max(l);
                    }
                }
                big_m += max_l;
            }
            // latency + M*I <= budget + M
            latency_expr.add_term(i_use, big_m);
            model.add_constraint(
                format!("lat_{pid}"),
                latency_expr,
                Sense::Le,
                budget + big_m,
            );
        }

        // Demand coverage (Constraint 2): every task path must route all of its traffic.
        for tp in 0..aug.num_task_paths() {
            let mut sum = LinExpr::new();
            let mut any = false;
            for &pid in aug.paths_for_task_path(tp) {
                if let Some(&c) = vars.c.get(&pid) {
                    sum += c;
                    any = true;
                }
            }
            if any {
                model.add_constraint(format!("route_all_{tp}"), sum, Sense::Eq, 1.0);
            } else {
                // No latency-feasible path for this task path: force infeasibility so
                // the caller falls back (mirrors the paper's observation below 200 ms).
                let dummy = model.add_continuous(format!("infeasible_{tp}"), 1.0, 1.0);
                model.add_constraint(format!("route_all_{tp}"), 1.0 * dummy, Sense::Le, 0.0);
            }
        }

        // Throughput capacity per variant (Constraint 2).
        for v in graph.variant_ids() {
            if !allowed_variant(v) {
                continue;
            }
            let mut expr = LinExpr::new();
            let mut touches = false;
            for &pid in aug.paths_through(v) {
                if let Some(&c) = vars.c.get(&pid) {
                    let m = aug.arrival_multiplier(pid, v).unwrap_or(0.0);
                    if m > 0.0 {
                        expr.add_term(c, demand * m);
                        touches = true;
                    }
                }
            }
            let mut capacity = LinExpr::new();
            let mut has_capacity_vars = false;
            for &b in graph.batch_sizes() {
                if let Some(&n) = vars.n.get(&(v, b)) {
                    capacity.add_term(n, graph.variant(v).throughput_qps(b));
                    has_capacity_vars = true;
                }
            }
            if touches && has_capacity_vars {
                model.add_constraint(
                    format!("cap_{}_{}", v.task, v.variant),
                    expr - capacity,
                    Sense::Le,
                    0.0,
                );
            } else if touches {
                // The variant can carry traffic but has no feasible batch size: forbid
                // routing through it.
                for &pid in aug.paths_through(v) {
                    if let Some(&c) = vars.c.get(&pid) {
                        model.add_constraint(
                            format!("forbid_{}_{}_{pid}", v.task, v.variant),
                            1.0 * c,
                            Sense::Le,
                            0.0,
                        );
                    }
                }
            }
        }

        // Cluster size (Constraint 3): Σ n <= S.
        let total: LinExpr = vars.n.values().map(|&n| 1.0 * n).sum();
        model.add_constraint("cluster", total.clone(), Sense::Le, s);

        // Objective.
        if restrict_to_most_accurate {
            model.set_objective(ObjectiveSense::Minimize, total);
        } else {
            let mut obj = LinExpr::new();
            for (pid, &c) in &vars.c {
                obj.add_term(c, aug.path(*pid).accuracy);
            }
            model.set_objective(ObjectiveSense::Maximize, obj);
        }

        (model, vars)
    }

    /// Convert a greedy allocation into a warm-start assignment for the MILP.
    fn warm_start(
        model: &Model,
        vars: &MilpVars,
        aug: &AugmentedGraph,
        graph: &PipelineGraph,
        greedy_plan: &AllocationPlan,
    ) -> Vec<f64> {
        let mut values = vec![0.0; model.num_vars()];
        // Instances.
        let mut hosted: HashMap<usize, Vec<VariantId>> = HashMap::new();
        for spec in &greedy_plan.instances {
            if let (Some(&n), Some(&z)) = (
                vars.n.get(&(spec.variant, spec.max_batch)),
                vars.z.get(&(spec.variant, spec.max_batch)),
            ) {
                values[n.index()] = spec.count as f64;
                values[z.index()] = 1.0;
                hosted
                    .entry(spec.variant.task)
                    .or_default()
                    .push(spec.variant);
            }
        }
        // Route each task path entirely through the least accurate hosted variant of
        // each task (the greedy "floor"), which is the combination guaranteed to have
        // enough capacity.
        for tp in 0..aug.num_task_paths() {
            let mut chosen: Option<usize> = None;
            for &pid in aug.paths_for_task_path(tp) {
                if !vars.c.contains_key(&pid) {
                    continue;
                }
                let path = aug.path(pid);
                let all_floor = path.vertices.iter().all(|v| {
                    hosted
                        .get(&v.task)
                        .map(|hs| {
                            let floor = hs
                                .iter()
                                .min_by(|a, b| {
                                    graph
                                        .variant(**a)
                                        .accuracy
                                        .partial_cmp(&graph.variant(**b).accuracy)
                                        .unwrap()
                                })
                                .unwrap();
                            *floor == *v
                        })
                        .unwrap_or(false)
                });
                if all_floor {
                    chosen = Some(pid);
                    break;
                }
            }
            if let Some(pid) = chosen {
                values[vars.c[&pid].index()] = 1.0;
                values[vars.i_use[&pid].index()] = 1.0;
            }
        }
        values
    }

    /// Extract a data-plane allocation plan from a MILP solution.
    fn extract_plan(
        ctx: &AllocationContext<'_>,
        vars: &MilpVars,
        solution: &loki_milp::Solution,
    ) -> (AllocationPlan, usize) {
        let perf = PerfModel::with_budgets(ctx.graph, ctx.slo_divisor, &ctx.budgets);
        let mut instances = Vec::new();
        let mut budgets = HashMap::new();
        let mut servers = 0usize;
        for (&(variant, batch), &n) in &vars.n {
            let count = solution.int_value(n).max(0) as usize;
            if count == 0 {
                continue;
            }
            servers += count;
            instances.push(InstanceSpec {
                variant,
                max_batch: batch,
                count,
            });
            budgets.insert(variant, perf.runtime_budget_ms(variant, batch));
        }
        instances.sort_by_key(|s| (s.variant.task, s.variant.variant, s.max_batch));
        (
            AllocationPlan {
                instances,
                latency_budgets_ms: budgets,
                drop_policy: ctx.drop_policy,
            },
            servers,
        )
    }

    /// Expected system accuracy of a solution: the accuracy-weighted traffic split,
    /// averaged over task paths.
    fn expected_accuracy(
        aug: &AugmentedGraph,
        vars: &MilpVars,
        solution: &loki_milp::Solution,
    ) -> f64 {
        let mut total = 0.0;
        for (&pid, &c) in &vars.c {
            total += solution.value(c).max(0.0) * aug.path(pid).accuracy;
        }
        total / aug.num_task_paths() as f64
    }

    fn solve_options(&self, warm: Option<Vec<f64>>, vars: &MilpVars) -> SolveOptions {
        // Branch on batch-selection binaries first, then path indicators: once they are
        // integral, the instance counts round almost freely. Both lists follow key order.
        let mut priority: Vec<Var> = vars.z.values().copied().collect();
        priority.extend(vars.i_use.values().copied());
        SolveOptions {
            node_limit: self.node_limit,
            time_limit: self.time_budget,
            mip_gap: 5e-3,
            warm_start: warm,
            heuristic_frequency: 10,
            branch_priority: priority,
            ..SolveOptions::default()
        }
    }
}

impl Allocator for MilpAllocator {
    fn name(&self) -> &str {
        "milp"
    }

    fn allocate(&self, ctx: &AllocationContext<'_>) -> AllocationOutcome {
        let aug = AugmentedGraph::new(ctx.graph);
        let perf = PerfModel::with_budgets(ctx.graph, ctx.slo_divisor, &ctx.budgets);
        let greedy = GreedyAllocator::new().allocate(ctx);

        // ---- Step 1: hardware scaling ---------------------------------------------
        let (hw_model, hw_vars) = Self::build_model(ctx, &aug, true);
        let hw_warm = if greedy.mode == ScalingMode::Hardware {
            Some(Self::warm_start(
                &hw_model,
                &hw_vars,
                &aug,
                ctx.graph,
                &greedy.plan,
            ))
        } else {
            None
        };
        let hw_opts = self.solve_options(hw_warm, &hw_vars);
        if let Ok(solution) = hw_model.solve_with(&hw_opts) {
            if solution.status.has_solution() {
                let (plan, servers) = Self::extract_plan(ctx, &hw_vars, &solution);
                if servers > 0 && servers <= ctx.cluster_size {
                    let choice: Vec<usize> = ctx
                        .graph
                        .tasks()
                        .map(|(_, t)| t.most_accurate_variant())
                        .collect();
                    return AllocationOutcome {
                        expected_accuracy: ctx.graph.max_accuracy(),
                        servers_used: servers,
                        demand_planned: ctx.demand_qps,
                        servable_demand: perf.max_servable_demand(
                            &choice,
                            servers.max(1),
                            ctx.fanout,
                        ),
                        mode: ScalingMode::Hardware,
                        plan,
                    };
                }
            }
        }

        // ---- Step 2: accuracy scaling ----------------------------------------------
        let (acc_model, acc_vars) = Self::build_model(ctx, &aug, false);
        let warm = Some(Self::warm_start(
            &acc_model,
            &acc_vars,
            &aug,
            ctx.graph,
            &greedy.plan,
        ));
        let acc_opts = self.solve_options(warm, &acc_vars);
        match acc_model.solve_with(&acc_opts) {
            Ok(solution) if solution.status.has_solution() => {
                let (plan, servers) = Self::extract_plan(ctx, &acc_vars, &solution);
                if servers == 0 {
                    return greedy;
                }
                let expected_accuracy = Self::expected_accuracy(&aug, &acc_vars, &solution);
                AllocationOutcome {
                    plan,
                    mode: ScalingMode::Accuracy,
                    servers_used: servers,
                    expected_accuracy,
                    demand_planned: ctx.demand_qps,
                    servable_demand: ctx.demand_qps,
                }
            }
            // Infeasible (demand beyond even minimum-accuracy capacity) or solver
            // limits hit: fall back to the greedy plan, which handles saturation.
            _ => greedy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::FanoutOverrides;
    use loki_pipeline::zoo;
    use loki_sim::DropPolicy;

    fn ctx<'a>(
        graph: &'a PipelineGraph,
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

    fn milp() -> MilpAllocator {
        MilpAllocator::new(Duration::from_secs(20), 4_000)
    }

    #[test]
    fn tiny_pipeline_hardware_scaling_is_optimal() {
        let g = zoo::tiny_pipeline(100.0);
        let fanout = FanoutOverrides::new();
        let out = milp().allocate(&ctx(&g, &fanout, 100.0, 10));
        assert_eq!(out.mode, ScalingMode::Hardware);
        assert!((out.expected_accuracy - g.max_accuracy()).abs() < 1e-9);
        assert!(out.servers_used <= 10);
        // The greedy allocator should not beat the optimal MILP on server count.
        let greedy = GreedyAllocator::new().allocate(&ctx(&g, &fanout, 100.0, 10));
        assert!(out.servers_used <= greedy.servers_used);
    }

    #[test]
    fn tiny_pipeline_accuracy_scaling_when_overloaded() {
        let g = zoo::tiny_pipeline(100.0);
        let fanout = FanoutOverrides::new();
        let perf = PerfModel::new(&g, 2.0, 2.0);
        let best: Vec<usize> = g.tasks().map(|(_, t)| t.most_accurate_variant()).collect();
        let hw_cap = perf.max_servable_demand(&best, 4, &fanout);
        let out = milp().allocate(&ctx(&g, &fanout, hw_cap * 1.5, 4));
        assert_eq!(out.mode, ScalingMode::Accuracy);
        assert!(out.plan.total_workers() <= 4);
        assert!(out.expected_accuracy <= g.max_accuracy() + 1e-9);
        assert!(out.expected_accuracy >= g.min_accuracy() - 1e-9);
        // The MILP's accuracy should be at least as good as the greedy floor estimate.
        let greedy = GreedyAllocator::new().allocate(&ctx(&g, &fanout, hw_cap * 1.5, 4));
        assert!(out.expected_accuracy >= greedy.expected_accuracy - 0.05);
    }

    #[test]
    fn hardware_model_restricts_variants() {
        let g = zoo::tiny_pipeline(100.0);
        let fanout = FanoutOverrides::new();
        let context = ctx(&g, &fanout, 50.0, 8);
        let aug = AugmentedGraph::new(&g);
        let (model, vars) = MilpAllocator::build_model(&context, &aug, true);
        // Only the most accurate variant of each task has n/z variables.
        for &(v, _) in vars.n.keys() {
            assert_eq!(
                v.variant,
                g.task(TaskId(v.task)).most_accurate_variant(),
                "hardware-scaling model must only host the most accurate variants"
            );
        }
        assert!(model.num_constraints() > 0);
        let (full_model, full_vars) = MilpAllocator::build_model(&context, &aug, false);
        assert!(full_vars.n.len() > vars.n.len());
        assert!(full_model.num_vars() > model.num_vars());
    }

    #[test]
    fn branch_priority_is_the_same_for_every_build() {
        // Two builds in one process: maps keyed by hash would iterate in two
        // different random orders here.
        let g = zoo::traffic_analysis_pipeline(250.0);
        let fanout = FanoutOverrides::new();
        let context = ctx(&g, &fanout, 400.0, 20);
        let aug = AugmentedGraph::new(&g);
        let priority = || {
            let (_, vars) = MilpAllocator::build_model(&context, &aug, false);
            milp().solve_options(None, &vars).branch_priority
        };
        let first = priority();
        assert!(first.len() > 8, "the model has enough binaries to reorder");
        assert_eq!(first, priority());
    }

    #[test]
    fn saturated_demand_falls_back_to_greedy() {
        let g = zoo::tiny_pipeline(100.0);
        let fanout = FanoutOverrides::new();
        let out = milp().allocate(&ctx(&g, &fanout, 1_000_000.0, 2));
        assert_eq!(out.mode, ScalingMode::Saturated);
        assert!(out.plan.total_workers() <= 2);
    }
}
