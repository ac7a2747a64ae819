//! Performance models: how a resource-allocation plan translates into latency,
//! throughput capacity, and end-to-end accuracy (Section 4.1 of the paper).
//!
//! These models are shared by the greedy allocator, the MILP formulation (which uses
//! them to pre-compute coefficients and latency budgets), and the baseline controllers.

use loki_pipeline::{BatchSize, PipelineGraph, TaskId, VariantId};
use loki_sim::HopBudgets;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// Observed fan-out overrides: (upstream variant, downstream task) -> average number of
/// intermediate queries generated per processed query (already including the branch
/// ratio). Reported by workers through heartbeats and aggregated by the controller.
pub type FanoutOverrides = HashMap<(VariantId, usize), f64>;

/// The effective fan-out from `variant` to `child` task: the observed value if the
/// controller has heartbeat data, otherwise the profiled multiplicative factor
/// times the edge's branch ratio.
pub fn effective_fanout(
    graph: &PipelineGraph,
    variant: VariantId,
    child: TaskId,
    overrides: &FanoutOverrides,
) -> f64 {
    if let Some(&v) = overrides.get(&(variant, child.index())) {
        return v;
    }
    let ratio = graph
        .branch_ratio(TaskId(variant.task), child)
        .unwrap_or(0.0);
    graph.variant(variant).mult_factor * ratio
}

/// The latency/throughput/accuracy model for one pipeline under one SLO policy.
#[derive(Debug, Clone)]
pub struct PerfModel<'a> {
    graph: &'a PipelineGraph,
    /// Divisor applied to the SLO to reserve queueing headroom (2.0 in the paper).
    slo_divisor: f64,
    /// Per-hop one-way network latency budgets, charged once per hop on a path.
    budgets: Cow<'a, HopBudgets>,
    /// Processing budget (ms) of each of the graph's task paths, in
    /// [`PipelineGraph::task_paths`] order: the SLO divided by the headroom
    /// divisor, minus the path's network charge.
    path_budgets: Vec<f64>,
}

/// The provisioning implied by choosing one specific model variant per task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChoicePlan {
    /// The variant index chosen for each task.
    pub choice: Vec<usize>,
    /// The maximum batch size chosen for each task.
    pub batches: Vec<BatchSize>,
    /// Replicas required per task to absorb the task's demand.
    pub replicas: Vec<usize>,
    /// Demand (QPS) arriving at each task, including workload multiplication.
    pub task_demands: Vec<f64>,
    /// Total servers required (`Σ replicas`).
    pub servers: usize,
    /// End-to-end pipeline accuracy of this choice (average over task paths of the
    /// product of per-task accuracies).
    pub accuracy: f64,
}

impl<'a> PerfModel<'a> {
    /// Create a performance model with a uniform per-hop latency of `comm_ms` —
    /// every hop (frontend or worker-to-worker) is charged the same scalar, the
    /// historical behaviour.
    pub fn new(graph: &'a PipelineGraph, slo_divisor: f64, comm_ms: f64) -> Self {
        assert!(comm_ms >= 0.0);
        Self::build(
            graph,
            slo_divisor,
            Cow::Owned(HopBudgets::uniform(comm_ms, graph.num_tasks())),
        )
    }

    /// Create a performance model that borrows explicit per-hop latency budgets
    /// (e.g. from `LinkDelayModel::hop_budgets`), so paths that stay on cheap links
    /// are not charged the cluster's worst-case hop.
    pub fn with_budgets(
        graph: &'a PipelineGraph,
        slo_divisor: f64,
        budgets: &'a HopBudgets,
    ) -> Self {
        Self::build(graph, slo_divisor, Cow::Borrowed(budgets))
    }

    fn build(graph: &'a PipelineGraph, slo_divisor: f64, budgets: Cow<'a, HopBudgets>) -> Self {
        assert!(slo_divisor >= 1.0, "the SLO divisor must be at least 1");
        let mut perf = Self {
            graph,
            slo_divisor,
            budgets,
            path_budgets: Vec::new(),
        };
        perf.path_budgets = graph
            .task_paths()
            .iter()
            .map(|p| graph.slo_ms() / slo_divisor - perf.path_comm_ms(&p.tasks))
            .collect();
        perf
    }

    /// The underlying pipeline graph.
    pub fn graph(&self) -> &PipelineGraph {
        self.graph
    }

    /// The per-hop latency budgets in use.
    pub fn budgets(&self) -> &HopBudgets {
        &self.budgets
    }

    /// Total one-way network latency (ms) charged to a concrete root-to-sink task
    /// path: one frontend hop in, each inter-task edge, and one frontend hop out.
    pub fn path_comm_ms(&self, tasks: &[TaskId]) -> f64 {
        2.0 * self.budgets.frontend_ms()
            + tasks
                .windows(2)
                .map(|w| self.budgets.edge_ms(w[0].index(), w[1].index()))
                .sum::<f64>()
    }

    /// The processing-latency budget (ms) available to a root-to-sink path with
    /// `num_tasks` tasks: the SLO divided by the queueing-headroom divisor, minus the
    /// worst-case network charge for a path of that length (one hop per edge plus the
    /// frontend hop each way). Concrete paths may enjoy a looser budget under per-edge
    /// models; see [`PerfModel::path_comm_ms`].
    pub fn path_budget_ms(&self, num_tasks: usize) -> f64 {
        self.graph.slo_ms() / self.slo_divisor - self.budgets.worst_path_comm_ms(num_tasks)
    }

    /// Demand (QPS) arriving at each task when the root receives `demand` QPS and each
    /// task uses the variant given by `choice` (the workload-multiplication model of
    /// Section 2.2.1).
    pub fn task_demands(
        &self,
        choice: &[usize],
        demand: f64,
        overrides: &FanoutOverrides,
    ) -> Vec<f64> {
        assert_eq!(choice.len(), self.graph.num_tasks());
        let mut demands = vec![0.0; self.graph.num_tasks()];
        demands[self.graph.root().index()] = demand;
        for &task_id in self.graph.topological_order() {
            let t = task_id.index();
            let variant = VariantId::new(t, choice[t]);
            let incoming = demands[t];
            for edge in &self.graph.task(task_id).children {
                demands[edge.child.index()] +=
                    incoming * effective_fanout(self.graph, variant, edge.child, overrides);
            }
        }
        demands
    }

    /// End-to-end accuracy of a per-task variant choice.
    pub fn choice_accuracy(&self, choice: &[usize]) -> f64 {
        let paths = self.graph.task_paths();
        let total: f64 = paths
            .iter()
            .map(|p| {
                p.tasks
                    .iter()
                    .map(|&t| self.graph.task(t).variants[choice[t.index()]].accuracy)
                    .product::<f64>()
            })
            .sum();
        total / paths.len() as f64
    }

    /// True if the given per-task batch sizes keep the processing latency of every
    /// root-to-sink path within its budget.
    pub fn batches_fit(&self, choice: &[usize], batches: &[BatchSize]) -> bool {
        for (path, &budget) in self.graph.task_paths().iter().zip(&self.path_budgets) {
            let total: f64 = path
                .tasks
                .iter()
                .map(|&t| {
                    let i = t.index();
                    self.graph.task(t).variants[choice[i]].batch_latency_ms(batches[i])
                })
                .sum();
            if total > budget + 1e-9 {
                return false;
            }
        }
        true
    }

    /// Compute the provisioning (batch sizes, replicas, server count) required to serve
    /// `demand` QPS with a fixed per-task variant choice, or `None` if the latency SLO
    /// cannot be met even with batch size 1.
    ///
    /// Batch sizes are chosen greedily: start at 1 everywhere and repeatedly enlarge
    /// the batch of the task that currently needs the most replicas, as long as every
    /// path still fits its latency budget and the enlargement reduces the total server
    /// count. Candidates are tried in place, so only the returned plan allocates.
    pub fn plan_for_choice(
        &self,
        choice: &[usize],
        demand: f64,
        overrides: &FanoutOverrides,
    ) -> Option<ChoicePlan> {
        let n = self.graph.num_tasks();
        assert_eq!(choice.len(), n);
        let allowed = self.graph.batch_sizes();
        let min_batch = *allowed.iter().min().expect("batch size set is non-empty");
        let mut batches = vec![min_batch; n];
        if !self.batches_fit(choice, &batches) {
            return None;
        }
        let demands = self.task_demands(choice, demand, overrides);

        // Replicas task `t` needs to absorb its demand at maximum batch `batch`.
        let replicas_at = |t: usize, batch: BatchSize| -> usize {
            if demands[t] <= 1e-9 {
                0
            } else {
                let q = self.graph.task(TaskId(t)).variants[choice[t]].throughput_qps(batch);
                (demands[t] / q).ceil().max(1.0) as usize
            }
        };

        let mut replicas: Vec<usize> = (0..n).map(|t| replicas_at(t, batches[t])).collect();
        let mut servers: usize = replicas.iter().sum();
        // A task whose batch latency grows with the batch size cannot fit a larger
        // batch than one that failed, so when the sizes ascend its search stops at
        // the first failure.
        let ascending = allowed.is_sorted();
        // Greedy batch enlargement: at each step apply the single-task batch increase
        // (to any larger allowed size) that reduces the total server count the most,
        // while keeping every path within its latency budget. A candidate changes one
        // task's batch, so only that task's replica count changes.
        loop {
            // (task, batch, its replicas, total servers)
            let mut best: Option<(usize, BatchSize, usize, usize)> = None;
            for t in 0..n {
                let current = batches[t];
                let monotone = ascending
                    && self.graph.task(TaskId(t)).variants[choice[t]]
                        .latency
                        .beta_ms
                        >= 0.0;
                for &cand_batch in allowed.iter().filter(|&&b| b > current) {
                    let cand_replicas = replicas_at(t, cand_batch);
                    let cand_servers = servers - replicas[t] + cand_replicas;
                    // Only a candidate that would take the lead needs its latency checked.
                    if cand_servers >= servers || best.is_some_and(|b| cand_servers >= b.3) {
                        continue;
                    }
                    batches[t] = cand_batch;
                    let fits = self.batches_fit(choice, &batches);
                    batches[t] = current;
                    if fits {
                        best = Some((t, cand_batch, cand_replicas, cand_servers));
                    } else if monotone {
                        break;
                    }
                }
            }
            let Some((t, batch, task_replicas, total)) = best else {
                break;
            };
            batches[t] = batch;
            replicas[t] = task_replicas;
            servers = total;
        }

        Some(ChoicePlan {
            choice: choice.to_vec(),
            batches,
            replicas,
            task_demands: demands,
            servers,
            accuracy: self.choice_accuracy(choice),
        })
    }

    /// The runtime latency budget (queueing + execution, in ms) assigned to a hosted
    /// variant, used by the early-dropping policies of Section 5.2.
    ///
    /// The planner keeps the sum of *execution* times along every path within
    /// `SLO / divisor`; at runtime a query may additionally wait in queues, so the
    /// budget for a task is the larger of `divisor ×` its execution time and an equal
    /// share of the full path allowance. This partitions (approximately) the whole SLO
    /// across the tasks of a path instead of only its execution half, which is what
    /// makes per-task progress checks meaningful rather than hair-trigger.
    pub fn runtime_budget_ms(&self, variant: VariantId, batch: BatchSize) -> f64 {
        let exec = self.graph.variant(variant).batch_latency_ms(batch);
        // The tightest equal share over the root-to-sink paths through this variant's
        // task, each charged its own per-hop network cost. (Under uniform budgets the
        // tightest share always comes from the longest path, matching the historical
        // worst-case-length formula exactly.)
        let share = self
            .graph
            .task_paths()
            .iter()
            .filter(|p| p.tasks.iter().any(|t| t.index() == variant.task))
            .map(|p| {
                (self.graph.slo_ms() - self.path_comm_ms(&p.tasks)).max(exec) / p.tasks.len() as f64
            })
            .min_by(f64::total_cmp)
            .unwrap_or_else(|| {
                (self.graph.slo_ms() - self.budgets.worst_path_comm_ms(1)).max(exec)
            });
        (self.slo_divisor * exec).max(share)
    }

    /// The batch sizes that maximize per-server throughput while keeping every path
    /// within its latency budget (used for capacity estimation under overload, where
    /// bigger batches are always better).
    pub fn max_batches_for_choice(&self, choice: &[usize]) -> Option<Vec<BatchSize>> {
        let n = self.graph.num_tasks();
        let allowed = self.graph.batch_sizes();
        let min_batch = *allowed.iter().min().unwrap();
        let mut batches = vec![min_batch; n];
        if !self.batches_fit(choice, &batches) {
            return None;
        }
        // Round-robin enlargement until nothing fits any more, each step tried in
        // place.
        loop {
            let mut changed = false;
            for t in 0..n {
                let current = batches[t];
                let next = allowed.iter().copied().filter(|&b| b > current).min();
                if let Some(next) = next {
                    batches[t] = next;
                    if self.batches_fit(choice, &batches) {
                        changed = true;
                    } else {
                        batches[t] = current;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Some(batches)
    }

    /// The maximum root demand (QPS) a cluster of `servers` workers can absorb with the
    /// given per-task variant choice, assuming throughput-optimal batch sizes. Returns
    /// 0 if the choice cannot meet the SLO at all.
    pub fn max_servable_demand(
        &self,
        choice: &[usize],
        servers: usize,
        overrides: &FanoutOverrides,
    ) -> f64 {
        let Some(batches) = self.max_batches_for_choice(choice) else {
            return 0.0;
        };
        let n = self.graph.num_tasks();
        // Per-unit-of-root-demand load multiplier for each task.
        let unit = self.task_demands(choice, 1.0, overrides);
        let per_server_q: Vec<f64> = (0..n)
            .map(|t| self.graph.task(TaskId(t)).variants[choice[t]].throughput_qps(batches[t]))
            .collect();
        // Upper bound ignoring integrality of replicas.
        let mut hi: f64 = f64::INFINITY;
        for t in 0..n {
            if unit[t] > 1e-12 {
                hi = hi.min(per_server_q[t] * servers as f64 / unit[t]);
            }
        }
        if !hi.is_finite() {
            return 0.0;
        }
        let feasible = |d: f64| -> bool {
            let total: usize = (0..n)
                .map(|t| {
                    let load = unit[t] * d;
                    if load <= 1e-9 {
                        0
                    } else {
                        (load / per_server_q[t]).ceil().max(1.0) as usize
                    }
                })
                .sum();
            total <= servers
        };
        if feasible(hi) {
            return hi;
        }
        let mut lo = 0.0;
        let mut hi_b = hi;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi_b);
            if feasible(mid) {
                lo = mid;
            } else {
                hi_b = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_pipeline::zoo;

    fn no_overrides() -> FanoutOverrides {
        HashMap::new()
    }

    #[test]
    fn path_budget_subtracts_headroom_and_hops() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let m = PerfModel::new(&g, 2.0, 2.0);
        // 250/2 - 2*(2+1) = 119
        assert!((m.path_budget_ms(2) - 119.0).abs() < 1e-9);
        let m2 = PerfModel::new(&g, 1.0, 0.0);
        assert!((m2.path_budget_ms(2) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn task_demands_follow_multiplicative_factors() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let m = PerfModel::new(&g, 2.0, 2.0);
        // Most accurate everywhere: yolov5x mult 2.0, branches 0.7 / 0.3.
        let choice = vec![4, 7, 3];
        let d = m.task_demands(&choice, 100.0, &no_overrides());
        assert!((d[0] - 100.0).abs() < 1e-9);
        assert!((d[1] - 100.0 * 2.0 * 0.7).abs() < 1e-9);
        assert!((d[2] - 100.0 * 2.0 * 0.3).abs() < 1e-9);
        // Least accurate detector (yolov5n, mult 1.5) generates less downstream load.
        let d_lo = m.task_demands(&[0, 7, 3], 100.0, &no_overrides());
        assert!(d_lo[1] < d[1]);
        assert!(d_lo[2] < d[2]);
    }

    #[test]
    fn observed_fanout_overrides_profiles() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let m = PerfModel::new(&g, 2.0, 2.0);
        let mut ov = HashMap::new();
        // the detector actually produced 3 car queries per frame
        ov.insert((VariantId::new(0, 4), 1usize), 3.0);
        let d = m.task_demands(&[4, 7, 3], 100.0, &ov);
        assert!((d[1] - 300.0).abs() < 1e-9);
        // the face branch still uses the profiled value
        assert!((d[2] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn plan_for_choice_scales_with_demand() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let m = PerfModel::new(&g, 2.0, 2.0);
        let choice = vec![4, 7, 3];
        let low = m.plan_for_choice(&choice, 50.0, &no_overrides()).unwrap();
        let high = m.plan_for_choice(&choice, 500.0, &no_overrides()).unwrap();
        assert!(low.servers < high.servers);
        assert!(low.servers >= g.num_tasks()); // at least one replica per loaded task
        assert!((low.accuracy - g.max_accuracy()).abs() < 1e-9);
        // The chosen batches must respect the SLO on every path.
        assert!(m.batches_fit(&choice, &low.batches));
        assert!(m.batches_fit(&choice, &high.batches));
        // Capacity must cover demand per task.
        #[allow(clippy::needless_range_loop)]
        for t in 0..g.num_tasks() {
            let q = g.task(TaskId(t)).variants[choice[t]].throughput_qps(high.batches[t]);
            assert!(high.replicas[t] as f64 * q >= high.task_demands[t] - 1e-6);
        }
    }

    #[test]
    fn infeasible_slo_returns_none() {
        // An SLO so tight that even batch-1 processing cannot fit.
        let g = zoo::traffic_analysis_pipeline(20.0);
        let m = PerfModel::new(&g, 2.0, 2.0);
        assert!(m
            .plan_for_choice(&[4, 7, 3], 100.0, &no_overrides())
            .is_none());
        assert!(m.max_batches_for_choice(&[4, 7, 3]).is_none());
        assert_eq!(m.max_servable_demand(&[4, 7, 3], 20, &no_overrides()), 0.0);
    }

    #[test]
    fn cheaper_variants_need_fewer_servers() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let m = PerfModel::new(&g, 2.0, 2.0);
        let best = m
            .plan_for_choice(&[4, 7, 3], 400.0, &no_overrides())
            .unwrap();
        let worst = m
            .plan_for_choice(&[0, 0, 0], 400.0, &no_overrides())
            .unwrap();
        assert!(worst.servers < best.servers);
        assert!(worst.accuracy < best.accuracy);
    }

    #[test]
    fn max_servable_demand_matches_plan_feasibility() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let m = PerfModel::new(&g, 2.0, 2.0);
        let choice = vec![4, 7, 3];
        let cap = m.max_servable_demand(&choice, 20, &no_overrides());
        assert!(
            cap > 100.0,
            "20-server capacity should be sizable, got {cap}"
        );
        // Just below capacity must fit in 20 servers, just above must not.
        let below = m
            .plan_for_choice(&choice, cap * 0.98, &no_overrides())
            .unwrap();
        assert!(below.servers <= 20, "servers={}", below.servers);
        let above = m
            .plan_for_choice(&choice, cap * 1.10, &no_overrides())
            .unwrap();
        assert!(above.servers > 20, "servers={}", above.servers);
    }

    #[test]
    fn two_tier_per_hop_budgets_strictly_tighter_than_scalar() {
        use loki_sim::LinkDelayModel;
        // The two-tier hetnet link model: cheap intra-class hops (0.2 ms), expensive
        // cross-class hops (5 ms), 2 ms frontend. The legacy scalar model charged the
        // worst hop (5 ms) on EVERY hop including the frontend; per-hop budgets charge
        // the frontend its real 2 ms. The network charge must be strictly smaller on
        // every path (budget strictly looser), and never larger on any.
        let g = zoo::traffic_analysis_pipeline(250.0);
        let links = LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![0.2, 5.0, 5.0, 0.2],
            frontend_ms: vec![2.0, 2.0],
        };
        let scalar_hop = links.max_hop_ms(2.0);
        assert!((scalar_hop - 5.0).abs() < 1e-9);
        let budgets = links.hop_budgets(2.0, g.num_tasks());
        let per_hop = PerfModel::with_budgets(&g, 2.0, &budgets);
        let scalar = PerfModel::new(&g, 2.0, scalar_hop);
        let mut strictly_tighter = 0;
        for path in g.task_paths() {
            let new_comm = per_hop.path_comm_ms(&path.tasks);
            let old_comm = scalar.path_comm_ms(&path.tasks);
            assert!(
                new_comm <= old_comm + 1e-9,
                "per-hop charge must never exceed the scalar worst case"
            );
            if new_comm < old_comm - 1e-9 {
                strictly_tighter += 1;
            }
        }
        assert!(
            strictly_tighter >= 1,
            "no path got a tighter network charge"
        );
        // Consequently every per-task runtime budget is at least as generous, and at
        // least one task's strictly more so.
        let mut strictly_looser = 0;
        for t in 0..g.num_tasks() {
            for v in 0..g.task(TaskId(t)).variants.len() {
                let id = VariantId::new(t, v);
                let new_b = per_hop.runtime_budget_ms(id, 4);
                let old_b = scalar.runtime_budget_ms(id, 4);
                assert!(new_b >= old_b - 1e-9, "budget got looser for {id:?}");
                if new_b > old_b + 1e-9 {
                    strictly_looser += 1;
                }
            }
        }
        assert!(strictly_looser >= 1);
    }

    #[test]
    fn accuracy_scaling_raises_capacity() {
        // The premise of the paper: the least accurate configuration supports several
        // times the demand of the most accurate one on the same cluster.
        let g = zoo::traffic_analysis_pipeline(250.0);
        let m = PerfModel::new(&g, 2.0, 2.0);
        let hi = m.max_servable_demand(&[4, 7, 3], 20, &no_overrides());
        let lo = m.max_servable_demand(&[0, 0, 0], 20, &no_overrides());
        assert!(
            lo > 2.0 * hi,
            "accuracy scaling should raise capacity by >2x (hi={hi:.0}, lo={lo:.0})"
        );
        assert!(
            lo < 6.0 * hi,
            "capacity gain implausibly large (hi={hi:.0}, lo={lo:.0})"
        );
    }
}
