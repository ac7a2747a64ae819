//! Configuration of the Loki controller.

use loki_sim::{DropPolicy, HopBudgets, LinkDelayModel, RouteMode};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which resource-allocation engine the Resource Manager uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AllocatorBackend {
    /// The exact MILP formulation of Section 4.1, solved with `loki-milp`
    /// (branch-and-bound with the greedy solution as warm start). Matches the paper's
    /// Gurobi-based implementation; slower but optimal.
    Milp,
    /// A greedy allocator that mirrors the structure of the MILP (hardware scaling
    /// first, then pipeline-aware accuracy degradation). Orders of magnitude faster,
    /// near-optimal on the evaluated pipelines, and used as the MILP warm start.
    #[default]
    Greedy,
}

/// Configuration of the Loki controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LokiConfig {
    /// Allocation engine.
    pub backend: AllocatorBackend,
    /// Runtime drop policy pushed to the data plane (opportunistic rerouting is Loki's
    /// full mechanism; the alternatives exist for the Figure 7 ablation).
    pub drop_policy: DropPolicy,
    /// Divisor applied to the latency SLO to reserve queueing headroom. The paper
    /// divides the SLO by two ("a query may wait for the current batch to finish
    /// before its own batch starts").
    pub slo_headroom_divisor: f64,
    /// One-way communication latency between servers in milliseconds (subtracted from
    /// the SLO once per hop along a path). Under a non-uniform [`LinkDelayModel`] the
    /// planner budgets with the model's worst-case hop instead (see
    /// [`LokiConfig::effective_comm_ms`]).
    pub comm_latency_ms: f64,
    /// The cluster's per-link delay model, mirrored from
    /// [`loki_sim::SimConfig::link_delays`]. The Resource Manager cannot know which
    /// worker a query will traverse at plan time, so it budgets the SLO with the
    /// worst-case hop delay of this model — conservative, but safe on the slowest
    /// link.
    pub link_delays: LinkDelayModel,
    /// Relative demand change (e.g. 0.05 = 5%) below which the Resource Manager keeps
    /// the previous plan instead of re-allocating.
    pub replan_threshold: f64,
    /// Wall-clock budget for a single MILP solve.
    pub milp_time_budget: Duration,
    /// Maximum branch-and-bound nodes per MILP solve.
    pub milp_node_limit: usize,
    /// When true, spend servers left over after accuracy scaling on upgrading a
    /// fraction of the traffic to more accurate variants.
    pub upgrade_with_leftover: bool,
    /// Multiplier applied to the demand estimate before provisioning, so that workers
    /// run below saturation and queueing delays stay within the SLO headroom (i.e. a
    /// target utilization of `1 / provisioning_margin`).
    pub provisioning_margin: f64,
    /// Relative demand change below which the Load Balancer keeps the previous routing
    /// tables instead of rebuilding them every tick, provided worker assignments and
    /// the adopted fan-out observations are also unchanged. `0.0` disables the cache
    /// (only bit-identical demand estimates reuse tables).
    pub routing_cache_threshold: f64,
    /// Candidate-ordering mode for the Load Balancer. [`RouteMode::Accuracy`] is the
    /// historical most-accurate-first order; [`RouteMode::LinkAware`] additionally
    /// breaks equal-accuracy ties toward replicas on cheap links of `link_delays`, and
    /// switches the planner's SLO accounting from the worst-case-hop scalar to per-hop
    /// budgets (see [`LokiConfig::hop_budgets`]).
    pub route: RouteMode,
}

impl Default for LokiConfig {
    fn default() -> Self {
        Self {
            backend: AllocatorBackend::Greedy,
            drop_policy: DropPolicy::OpportunisticRerouting,
            slo_headroom_divisor: 2.0,
            comm_latency_ms: 2.0,
            link_delays: LinkDelayModel::Uniform,
            replan_threshold: 0.05,
            milp_time_budget: Duration::from_millis(800),
            milp_node_limit: 2_000,
            upgrade_with_leftover: true,
            provisioning_margin: 1.25,
            routing_cache_threshold: 0.02,
            route: RouteMode::Accuracy,
        }
    }
}

impl LokiConfig {
    /// The per-hop latency (ms) the planner subtracts from the SLO: the
    /// configured uniform latency under [`LinkDelayModel::Uniform`], the
    /// worst-case hop of the model otherwise.
    pub fn effective_comm_ms(&self) -> f64 {
        self.link_delays.max_hop_ms(self.comm_latency_ms)
    }

    /// The per-hop latency budgets the planner charges against the SLO. Under
    /// [`RouteMode::Accuracy`] this collapses to the historical uniform
    /// worst-case-hop scalar ([`LokiConfig::effective_comm_ms`]), keeping the
    /// allocator bit-identical to previous releases; under
    /// [`RouteMode::LinkAware`] the budgets follow [`LokiConfig::link_delays`]
    /// per edge, so paths on cheap links stop paying for the slowest link in
    /// the cluster.
    pub fn hop_budgets(&self, num_tasks: usize) -> HopBudgets {
        match self.route {
            RouteMode::Accuracy => HopBudgets::uniform(self.effective_comm_ms(), num_tasks),
            RouteMode::LinkAware => self
                .link_delays
                .hop_budgets(self.comm_latency_ms, num_tasks),
        }
    }

    /// A configuration using the exact MILP allocator.
    pub fn with_milp() -> Self {
        Self {
            backend: AllocatorBackend::Milp,
            ..Self::default()
        }
    }

    /// A configuration using the greedy allocator.
    pub fn with_greedy() -> Self {
        Self {
            backend: AllocatorBackend::Greedy,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = LokiConfig::default();
        assert!((c.slo_headroom_divisor - 2.0).abs() < 1e-12);
        assert_eq!(c.drop_policy, DropPolicy::OpportunisticRerouting);
    }

    #[test]
    fn backend_constructors() {
        assert_eq!(LokiConfig::with_milp().backend, AllocatorBackend::Milp);
        assert_eq!(LokiConfig::with_greedy().backend, AllocatorBackend::Greedy);
    }

    #[test]
    fn effective_comm_budgets_the_worst_hop() {
        let mut c = LokiConfig::default();
        assert_eq!(c.effective_comm_ms(), c.comm_latency_ms);
        c.link_delays = LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![0.2, 5.0, 5.0, 0.2],
            frontend_ms: vec![1.0, 1.0],
        };
        assert_eq!(c.effective_comm_ms(), 5.0);
    }
}
