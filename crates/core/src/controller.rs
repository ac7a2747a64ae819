//! The Loki controller: glues the Resource Manager (allocation) and the Load Balancer
//! (routing) behind the simulator's [`Controller`] interface, mirroring the Controller
//! component of Figure 4.

use crate::allocator::{AllocationContext, AllocationOutcome, Allocator, AllocatorKind};
use crate::config::LokiConfig;
use crate::load_balancer::{MostAccurateFirst, PlannerWarning};
use crate::perf::FanoutOverrides;
use loki_pipeline::{BatchSize, PipelineGraph, VariantId};
use loki_sim::{AllocationPlan, CompiledPlan, Controller, ObservedState, WorkerId, WorkerView};
use serde::{Deserialize, Serialize};

/// Invocation counts of the control plane. Every field is a count, so the stats of a
/// run are a pure function of its inputs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Number of Resource-Manager allocations performed.
    pub allocations: usize,
    /// Number of Load-Balancer routing computations.
    pub routings: usize,
    /// Routing ticks on which the cache was consulted (every routing tick with a
    /// populated cache). Tracked separately from hits so the hit ratio stays
    /// meaningful even when a controller is driven outside the simulator loop.
    pub routing_cache_consults: usize,
    /// Routing ticks answered from the cache (demand within the configured deadband
    /// and worker assignments + fan-out unchanged), skipping the table rebuild.
    pub routing_cache_hits: usize,
    /// Warnings from the most recent routing emission: tasks that received demand
    /// but had no routable workers (traffic the data plane can only drop).
    pub routing_warnings: Vec<PlannerWarning>,
    /// Cumulative count of unroutable-task warnings across all emissions.
    pub routing_warnings_total: usize,
}

impl ControllerStats {
    /// Fraction of cache consults that were hits. Falls back to
    /// hits / (rebuilds + hits) for stats that predate consult tracking.
    pub fn routing_cache_hit_ratio(&self) -> f64 {
        let total = if self.routing_cache_consults > 0 {
            self.routing_cache_consults
        } else {
            self.routings + self.routing_cache_hits
        };
        if total == 0 {
            0.0
        } else {
            self.routing_cache_hits as f64 / total as f64
        }
    }
}

/// The routing inputs that produced the last built routing plan. A routing tick whose
/// inputs still match (demand within the deadband, identical worker assignments, same
/// adopted fan-out) keeps the engine's current tables instead of rebuilding.
#[derive(Debug, Clone)]
struct RoutingCacheKey {
    demand_qps: f64,
    /// Assignment fields of each worker view; `queue_len` is deliberately excluded
    /// because `MostAccurateFirst` never reads it.
    workers: Vec<(WorkerId, Option<VariantId>, BatchSize, bool)>,
    /// Generation of the adopted fan-out observations (bumped whenever `plan` adopts a
    /// new heartbeat aggregate). Comparing generations avoids cloning the map per tick.
    fanout_generation: u64,
    /// Simulated time of the rebuild. A hit certifies "the engine already holds these
    /// tables", which no longer holds if the controller is moved to a fresh engine —
    /// observed time jumping backwards detects that and invalidates the cache.
    now_s: f64,
}

fn worker_assignments_match(
    cached: &[(WorkerId, Option<VariantId>, BatchSize, bool)],
    current: &[WorkerView],
) -> bool {
    cached.len() == current.len()
        && cached
            .iter()
            .zip(current)
            .all(|(c, w)| *c == (w.id, w.variant, w.max_batch, w.swapping))
}

/// The Loki controller.
pub struct LokiController {
    graph: PipelineGraph,
    config: LokiConfig,
    allocator: AllocatorKind,
    /// The Load Balancer's plan emitter (owns the reusable emission scratch).
    lb: MostAccurateFirst,
    fanout: FanoutOverrides,
    fanout_generation: u64,
    last_outcome: Option<AllocationOutcome>,
    last_planned_demand: f64,
    routing_cache: Option<RoutingCacheKey>,
    /// Control-plane invocation counts.
    pub stats: ControllerStats,
}

impl LokiController {
    /// Create a controller for a pipeline with the given configuration.
    pub fn new(graph: PipelineGraph, config: LokiConfig) -> Self {
        graph.validate().expect("pipeline graph must be valid");
        let allocator = AllocatorKind::from_config(&config);
        Self {
            graph,
            config,
            allocator,
            lb: MostAccurateFirst::default(),
            fanout: FanoutOverrides::new(),
            fanout_generation: 0,
            last_outcome: None,
            last_planned_demand: 0.0,
            routing_cache: None,
            stats: ControllerStats::default(),
        }
    }

    /// The pipeline this controller serves.
    pub fn graph(&self) -> &PipelineGraph {
        &self.graph
    }

    /// The controller configuration.
    pub fn config(&self) -> &LokiConfig {
        &self.config
    }

    /// The most recent allocation outcome, if any.
    pub fn last_outcome(&self) -> Option<&AllocationOutcome> {
        self.last_outcome.as_ref()
    }

    /// Run a one-off allocation for a specific demand and cluster size without going
    /// through the simulator. Used by the Figure 1 phase analysis and by capacity
    /// planning tools.
    pub fn allocate_for_demand(
        &mut self,
        demand_qps: f64,
        cluster_size: usize,
    ) -> AllocationOutcome {
        let ctx = AllocationContext {
            graph: &self.graph,
            cluster_size,
            demand_qps,
            fanout: &self.fanout,
            drop_policy: self.config.drop_policy,
            slo_divisor: self.config.slo_headroom_divisor,
            budgets: self.config.hop_budgets(self.graph.num_tasks()),
            upgrade_with_leftover: self.config.upgrade_with_leftover,
        };
        let outcome = self.allocator.allocate(&ctx);
        self.stats.allocations += 1;
        self.last_outcome = Some(outcome.clone());
        self.last_planned_demand = demand_qps;
        outcome
    }

    /// The demand estimate to provision for, given the observations.
    fn demand_estimate(&self, observed: &ObservedState<'_>) -> f64 {
        if observed.demand.is_empty() {
            observed.initial_demand_hint.unwrap_or(0.0)
        } else {
            observed
                .demand
                .provisioning_estimate()
                .max(observed.initial_demand_hint.unwrap_or(0.0))
        }
    }

    /// Whether the demand changed enough (or the current plan became insufficient) to
    /// warrant a re-allocation.
    fn needs_replan(&self, demand: f64) -> bool {
        let Some(outcome) = &self.last_outcome else {
            return true;
        };
        let relative_change =
            (demand - self.last_planned_demand).abs() / self.last_planned_demand.max(1.0);
        if relative_change > self.config.replan_threshold {
            return true;
        }
        // The estimate is within the threshold but the plan cannot absorb it.
        demand > outcome.servable_demand * 1.02 && outcome.servable_demand > 0.0
    }
}

impl Controller for LokiController {
    fn name(&self) -> &str {
        "loki"
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        // Heartbeat aggregation: adopt the observed multiplicative factors. The
        // generation bump conservatively invalidates the routing cache (adopted
        // aggregates usually differ between control ticks).
        if !observed.observed_fanout.is_empty() {
            self.fanout = observed.observed_fanout.clone();
            self.fanout_generation += 1;
        }
        // Provision for the estimate times the margin so workers run below saturation.
        let demand = self.demand_estimate(observed) * self.config.provisioning_margin;
        if !self.needs_replan(demand) {
            return None;
        }
        let outcome = self.allocate_for_demand(demand, observed.cluster_size);
        Some(outcome.plan)
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        let demand = self.demand_estimate(observed) * self.config.provisioning_margin;
        // Routing cache: if nothing the table builder reads has changed materially
        // since the last rebuild, keep the engine's current tables (`None`). The
        // deadband is relative to the demand the cached tables were built for, so
        // drift cannot accumulate across consecutive hits.
        if let Some(cache) = &self.routing_cache {
            self.stats.routing_cache_consults += 1;
            let tolerance = self.config.routing_cache_threshold * cache.demand_qps.max(1.0);
            if observed.now_s >= cache.now_s
                && cache.fanout_generation == self.fanout_generation
                && (demand - cache.demand_qps).abs() <= tolerance
                && worker_assignments_match(&cache.workers, observed.workers)
            {
                self.stats.routing_cache_hits += 1;
                return None;
            }
        }
        let plan = self.lb.emit_with_route(
            &self.graph,
            observed.workers,
            demand,
            &self.fanout,
            self.config.route,
            &self.config.link_delays,
            self.config.comm_latency_ms,
        );
        self.stats.routings += 1;
        self.stats.routing_warnings = self.lb.warnings().to_vec();
        self.stats.routing_warnings_total += self.lb.warnings().len();
        self.routing_cache = Some(RoutingCacheKey {
            demand_qps: demand,
            workers: observed
                .workers
                .iter()
                .map(|w| (w.id, w.variant, w.max_batch, w.swapping))
                .collect(),
            fanout_generation: self.fanout_generation,
            now_s: observed.now_s,
        });
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::ScalingMode;
    use loki_pipeline::zoo;
    use loki_sim::{SimConfig, Simulation};
    use loki_workload::{generate_arrivals, generators, ArrivalProcess};

    /// Maximum demand a 20-worker cluster can absorb with the most accurate variants.
    fn full_cluster_hw_capacity(g: &loki_pipeline::PipelineGraph) -> f64 {
        let perf = crate::perf::PerfModel::new(g, 2.0, 2.0);
        let best: Vec<usize> = g.tasks().map(|(_, t)| t.most_accurate_variant()).collect();
        perf.max_servable_demand(&best, 20, &crate::perf::FanoutOverrides::new())
    }

    #[test]
    fn allocate_for_demand_tracks_phases() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let hw_cap = full_cluster_hw_capacity(&g);
        let mut ctl = LokiController::new(g, LokiConfig::with_greedy());
        let low = ctl.allocate_for_demand(100.0, 20);
        assert_eq!(low.mode, ScalingMode::Hardware);
        let high = ctl.allocate_for_demand(hw_cap * 1.5, 20);
        assert_eq!(high.mode, ScalingMode::Accuracy);
        assert!(ctl.stats.allocations == 2);
        assert!(ctl.last_outcome().is_some());
    }

    #[test]
    fn replan_only_on_significant_demand_change() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let mut ctl = LokiController::new(g, LokiConfig::with_greedy());
        ctl.allocate_for_demand(200.0, 20);
        assert!(
            !ctl.needs_replan(205.0),
            "a 2.5% change should not trigger a replan"
        );
        assert!(ctl.needs_replan(400.0), "a 2x change must trigger a replan");
    }

    #[test]
    fn end_to_end_simulation_with_loki_controller() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let controller = LokiController::new(g.clone(), LokiConfig::with_greedy());
        let trace = generators::constant(40, 120.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 3);
        let config = SimConfig {
            cluster_size: 20,
            control_interval_s: 5.0,
            initial_demand_hint: Some(120.0),
            drain_s: 15.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&g, config, controller);
        let result = sim.run(&arrivals);
        assert!(result.summary.total_arrivals > 4000);
        assert!(
            result.summary.slo_violation_ratio < 0.05,
            "violations {}",
            result.summary.slo_violation_ratio
        );
        assert!(
            result.summary.system_accuracy > 0.95,
            "accuracy {}",
            result.summary.system_accuracy
        );
        // Hardware scaling: nowhere near the whole cluster should be needed.
        assert!(result.summary.max_active_workers < 20);
        let ctl = sim.into_controller();
        assert!(ctl.stats.allocations >= 1);
        assert!(ctl.stats.routings >= 1);
    }

    #[test]
    fn routing_cache_skips_rebuilds_at_steady_demand() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let controller = LokiController::new(g.clone(), LokiConfig::with_greedy());
        let trace = generators::constant(60, 150.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 5);
        let config = SimConfig {
            cluster_size: 20,
            initial_demand_hint: Some(150.0),
            drain_s: 10.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&g, config, controller);
        sim.run(&arrivals);
        let stats = sim.into_controller().stats;
        // At steady demand, most of the ~60 one-second routing ticks must be served
        // from the cache rather than rebuilding the tables.
        assert!(
            stats.routing_cache_hits > stats.routings,
            "cache hits {} vs rebuilds {}",
            stats.routing_cache_hits,
            stats.routings
        );
        assert!(stats.routing_cache_hit_ratio() > 0.5);
        // Disabling the deadband (exact matching only) must produce far fewer hits.
        let mut strict_cfg = LokiConfig::with_greedy();
        strict_cfg.routing_cache_threshold = 0.0;
        let strict = LokiController::new(g.clone(), strict_cfg);
        let config = SimConfig {
            cluster_size: 20,
            initial_demand_hint: Some(150.0),
            drain_s: 10.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&g, config, strict);
        sim.run(&arrivals);
        let strict_stats = sim.into_controller().stats;
        assert!(strict_stats.routings >= stats.routings);
    }

    #[test]
    fn overload_simulation_scales_accuracy_not_violations() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let hw_cap = full_cluster_hw_capacity(&g);
        // Demand well beyond the best-accuracy capacity of the full cluster, but
        // within what accuracy scaling can absorb.
        let mut probe = LokiController::new(g.clone(), LokiConfig::with_greedy());
        let max_cap = probe.allocate_for_demand(100_000.0, 20).servable_demand;
        let demand = (hw_cap * 1.5).min(max_cap * 0.85);
        let controller = LokiController::new(g.clone(), LokiConfig::with_greedy());
        let trace = generators::constant(40, demand);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 17);
        let config = SimConfig {
            cluster_size: 20,
            control_interval_s: 5.0,
            initial_demand_hint: Some(demand),
            drain_s: 20.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&g, config, controller);
        let result = sim.run(&arrivals);
        // Accuracy scaling should keep most requests within the SLO while lowering
        // accuracy below the maximum.
        assert!(
            result.summary.slo_violation_ratio < 0.2,
            "violations {}",
            result.summary.slo_violation_ratio
        );
        assert!(result.summary.system_accuracy < g.max_accuracy() - 0.01);
        assert!(result.summary.system_accuracy > g.min_accuracy());
    }
}
