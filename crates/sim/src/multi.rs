//! Multi-pipeline serving on one shared cluster.
//!
//! The paper's evaluation serves one pipeline per cluster and names contended
//! multi-pipeline serving as future work (Section 7). This module supplies the
//! missing cluster level: a [`MultiSimulation`] drives several pipelines — each
//! with its own frontend (arrival stream), controller, routing tables, metrics,
//! and latency budgets — through one engine run over one shared worker fleet
//! and one event scheduler, and a [`ResourceArbiter`] decides how the fleet is
//! *partitioned* across the pipelines. Each pipeline's controller only ever
//! sees its partition (a capacity-scoped [`crate::ObservedState`] whose
//! `cluster_size` is the partition size), so the per-pipeline Loki planner
//! runs unchanged underneath the arbiter.
//!
//! A multi-pipeline run is a several-lane run of the engine's one checked
//! entry (`crate::engine`'s module docs): each registered pipeline becomes a
//! lane paired with its controller, and a pipeline, graph or config the run
//! cannot start from comes back from `try_run*` as
//! [`EngineError::InvalidRun`].
//!
//! The arbiter policy lives above this crate (the demand/SLO-weighted
//! `ResourceManager` in `loki-core` implements [`ResourceArbiter`]);
//! [`StaticPartition`] provides the fixed-share baselines (even split, oracle
//! split) the contended manager is evaluated against.

use crate::elastic::ElasticPolicy;
use crate::engine::{run, EngineError, Lane, LaneInput, RunOutput, SimResult};
use crate::metrics::{CostSummary, IntervalMetrics, RunSummary};
use crate::trace::{Histogram, TraceLog};
use crate::types::{Controller, SimConfig};
use loki_pipeline::PipelineGraph;

/// What a [`ResourceArbiter`] observes at each rebalance tick. All slices are
/// indexed by pipeline, in registration order.
#[derive(Debug, Clone)]
pub struct ArbiterObservation<'a> {
    /// Current simulated time in seconds.
    pub now_s: f64,
    /// Total workers in the shared cluster.
    pub cluster_size: usize,
    /// Current partition: workers owned per pipeline (may sum to less than
    /// `cluster_size` when workers sit in the free pool).
    pub partition: &'a [usize],
    /// Per-pipeline demand estimates (QPS) — the same provisioning estimates
    /// the pipelines' own controllers compute, or the initial demand hints at
    /// time zero.
    pub demand_qps: &'a [f64],
    /// Per-pipeline end-to-end latency SLOs (ms).
    pub slo_ms: &'a [f64],
    /// Per-pipeline task counts — the minimum viable footprint of a pipeline
    /// (one worker per task), below which a grant serves nothing.
    pub num_tasks: &'a [usize],
    /// Per-pipeline total queued queries across the partition (a pressure
    /// signal demand estimates lag behind).
    pub queued: &'a [usize],
}

/// A cluster-level resource arbiter: owns the worker fleet and decides how
/// many workers each registered pipeline holds. The engine invokes it once
/// before the first event (with demand hints) and then at every rebalance
/// tick; worker moves it requests become scheduled events (queue drain,
/// model-unload cooldown) rather than instantaneous teleports.
pub trait ResourceArbiter {
    /// Name used in reports.
    fn name(&self) -> &str;

    /// Seconds between rebalance ticks (the arbiter's epoch length).
    fn rebalance_interval_s(&self) -> f64 {
        10.0
    }

    /// Desired worker counts per pipeline, or `None` to keep the current
    /// partition. Entries must match the pipeline count; the engine trims
    /// over-subscribed targets to the physical cluster.
    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>>;

    /// A short label for *why* the last [`ResourceArbiter::partition`] call
    /// returned the target it did, journaled with the rebalance event when
    /// `observe.timeline` is on. Purely observational — defaulted to `None`
    /// so existing arbiters need no change.
    fn decision_reason(&self) -> Option<&'static str> {
        None
    }
}

/// Largest-remainder apportionment of `total` workers over non-negative
/// `weights`. Zero-weight entries get zero workers; an all-zero weight vector
/// falls back to an even split. Deterministic: remainder ties go to the lower
/// index.
pub fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if sum <= 0.0 {
        let even = vec![1.0; weights.len()];
        return apportion(&even, total);
    }
    if !(total as f64 * sum).is_finite() {
        // The quotas would overflow to inf/inf: scale the weights into
        // [0, 1] first (sums that fit are never rescaled, so never moved).
        let max = weights
            .iter()
            .copied()
            .filter(|w| w.is_finite())
            .fold(0.0, f64::max);
        let scaled: Vec<f64> = weights.iter().map(|w| w / max).collect();
        return apportion(&scaled, total);
    }
    let mut counts = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let quota = total as f64 * w / sum;
        let floor = quota as usize;
        counts.push(floor);
        assigned += floor;
        // Zero-weight pipelines never receive remainder workers.
        remainders.push((i, if w > 0.0 { quota - floor as f64 } else { -1.0 }));
    }
    // Hand the leftover workers to the largest fractional remainders.
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut leftover = total.saturating_sub(assigned);
    for (i, remainder) in remainders {
        if leftover == 0 {
            break;
        }
        if remainder < 0.0 {
            continue;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    counts
}

/// A fixed-share arbiter: partitions the cluster proportionally to static
/// shares once and never moves a worker again. `even` is the naive 50/50
/// baseline; `with_shares` with the true offered loads is the oracle split.
#[derive(Debug, Clone)]
pub struct StaticPartition {
    label: String,
    shares: Vec<f64>,
}

impl StaticPartition {
    /// An even split across `pipelines`.
    pub fn even(pipelines: usize) -> Self {
        Self {
            label: "static-even".to_string(),
            shares: vec![1.0; pipelines],
        }
    }

    /// A split proportional to `shares` (e.g. the known offered load per
    /// pipeline — the oracle the contended manager is compared against).
    pub fn with_shares(label: impl Into<String>, shares: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            shares,
        }
    }
}

impl ResourceArbiter for StaticPartition {
    fn name(&self) -> &str {
        &self.label
    }

    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>> {
        let target = apportion(&self.shares, observation.cluster_size);
        // Static: after the initial grant the target always matches the
        // current partition, and the engine treats a no-op target as "keep".
        (target != observation.partition).then_some(target)
    }
}

/// One pipeline registered with a [`MultiSimulation`]: its graph, controller,
/// arrival trace, and initial demand hint (the multi-pipeline analogue of
/// [`SimConfig::initial_demand_hint`]).
///
/// Generic over the controller type so callers that need the controller back
/// after the run (e.g. to read its runtime statistics through
/// [`MultiSimulation::into_pipelines`]) can register a concrete type; the
/// default `Box<dyn Controller>` keeps heterogeneous registrations working.
pub struct MultiPipeline<'a, C: Controller + 'a = Box<dyn Controller + 'a>> {
    /// Label used in per-pipeline results and reports.
    pub name: String,
    /// The pipeline to serve.
    pub graph: &'a PipelineGraph,
    /// The pipeline's serving controller (it only ever sees the pipeline's
    /// partition of the cluster).
    pub controller: C,
    /// Root-query arrival times in seconds, ascending. The engine reads them
    /// in place for the run; it keeps no copy.
    pub arrivals_s: Vec<f64>,
    /// Demand hint handed to the controller at its first control tick and to
    /// the arbiter for the initial partition.
    pub initial_demand_hint: Option<f64>,
}

/// One pipeline's outcome within a multi-pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The pipeline's registration label.
    pub name: String,
    /// The pipeline's per-interval metrics and whole-run summary. Interval
    /// `cluster_size` is the pipeline's partition size at the interval end, so
    /// utilization is measured against granted capacity.
    pub result: SimResult,
    /// Wall-clock seconds this pipeline's execution shard spent processing
    /// events (host time, not simulated time — excluded from determinism
    /// comparisons).
    pub lane_wall_s: f64,
    /// Estimated wall-clock seconds this shard spent waiting on slower shards
    /// at epoch barriers (zero when the shard was the epoch's slowest; a load
    /// imbalance signal for the sharded parallel engine).
    pub barrier_wait_s: f64,
}

/// The outcome of a multi-pipeline run.
#[derive(Debug, Clone)]
pub struct MultiSimResult {
    /// Per-pipeline results, in registration order.
    pub pipelines: Vec<PipelineResult>,
    /// The arbiter that partitioned the cluster.
    pub arbiter: String,
    /// Total events processed, including cluster-level rebalance ticks (the
    /// per-pipeline summaries count only their own events).
    pub total_events: u64,
    /// Rebalance ticks that moved at least one worker.
    pub rebalances: u64,
    /// Workers moved across pipelines over the whole run.
    pub migrations: u64,
    /// Cluster-level fleet cost (elastic runs only; the fleet is shared, so
    /// cost lives here and on the [`MultiSimResult::aggregate`] result, not
    /// on the per-pipeline ones).
    pub cost: Option<CostSummary>,
    /// The merged cluster event journal — `Some` only when `observe.timeline`
    /// was on. Cluster-level (one journal for the shared fleet);
    /// [`MultiSimResult::aggregate`] clones it onto the aggregate result.
    pub journal: Option<crate::journal::Journal>,
    /// The run's metrics-interval length in seconds, carried so aggregation
    /// can reconstruct durations from interval counts.
    pub metrics_interval_s: f64,
}

impl MultiSimResult {
    /// Cluster-level aggregate of the per-pipeline results: totals summed,
    /// accuracy weighted by served queries, intervals summed element-wise.
    /// Each aggregate interval's `cluster_size` is the sum of the lanes'
    /// granted warm capacity at that interval — for a fixed fleet that equals
    /// the physical cluster, and for an elastic fleet it tracks the billed
    /// fleet over time, so utilization stays measured against what was
    /// actually rented. `cluster_size` is only the fallback for intervals no
    /// lane reported. The aggregate's `events_processed` includes
    /// cluster-level events.
    pub fn aggregate(&self, cluster_size: usize) -> SimResult {
        let rows = self
            .pipelines
            .iter()
            .map(|p| p.result.intervals.len())
            .max()
            .unwrap_or(0);
        let mut intervals: Vec<IntervalMetrics> = Vec::with_capacity(rows);
        for row in 0..rows {
            let mut agg = IntervalMetrics::default();
            let mut granted = 0usize;
            for p in &self.pipelines {
                let Some(m) = p.result.intervals.get(row) else {
                    continue;
                };
                agg.start_s = m.start_s;
                agg.add_counts(m);
                agg.active_workers += m.active_workers;
                granted += m.cluster_size;
            }
            agg.cluster_size = if granted > 0 { granted } else { cluster_size };
            intervals.push(agg);
        }
        let name = format!("multi({})", self.arbiter);
        let mut summary = RunSummary::from_intervals(&name, &intervals, self.metrics_interval_s);
        summary.events_processed = self.total_events;
        // Latency histograms merge exactly (fixed bucket layout), so the
        // aggregate percentiles are the true cluster-level percentiles, not an
        // average of per-pipeline ones. Windowed rows merge element-wise,
        // row-aligned with the aggregate intervals: a row starts as the first
        // lane's copy and grows to the union of the occupied bucket ranges of
        // the lanes merged into it. Sampled traces concatenate in registration
        // order (each root records its lane, so provenance survives the merge).
        let mut latency: Option<Histogram> = None;
        let mut window: Option<Vec<Histogram>> = None;
        let mut roots = Vec::new();
        for result in self.pipelines.iter().map(|p| &p.result) {
            if let Some(l) = &result.latency {
                latency.get_or_insert_with(Histogram::new).merge(l);
            }
            if let Some(rows) = &result.window {
                let agg = window.get_or_insert_with(Vec::new);
                for (i, row) in rows.iter().enumerate() {
                    match agg.get_mut(i) {
                        Some(into) => into.merge(row),
                        None => agg.push(row.clone()),
                    }
                }
            }
            if let Some(t) = &result.trace {
                roots.extend(t.roots.iter().cloned());
            }
        }
        let trace = (!roots.is_empty()).then_some(TraceLog { roots });
        SimResult {
            cost: self.cost.clone(),
            journal: self.journal.clone(),
            ..SimResult::new(intervals, summary, latency, trace, window)
        }
    }
}

/// Configuration of a multi-pipeline run: the shared-cluster [`SimConfig`]
/// plus the execution-parallelism knob. `From<SimConfig>` gives the serial
/// default (`jobs = 1`), so existing `MultiSimulation::new(sim_config)` call
/// sites keep working unchanged.
#[derive(Debug, Clone)]
pub struct MultiSimConfig {
    /// The shared-cluster simulation configuration.
    pub sim: SimConfig,
    /// Worker threads for lane execution between rebalance epochs. `1` runs
    /// every lane inline on the calling thread; `> 1` runs lanes on a bounded
    /// scoped pool ([`crate::par::par_map`]). The simulated results are
    /// bit-identical for every value (pinned by the parallel-identity tests);
    /// only wall-clock time changes.
    pub jobs: usize,
}

impl From<SimConfig> for MultiSimConfig {
    fn from(sim: SimConfig) -> Self {
        Self { sim, jobs: 1 }
    }
}

/// A simulation of several pipelines sharing one cluster under a
/// [`ResourceArbiter`]. The engine's scheduling core is the same one the
/// single-pipeline [`crate::Simulation`] uses; a two-pipeline run where one
/// pipeline has zero demand (and thus a zero-worker partition) is bit-identical
/// to the single-pipeline run of the other.
pub struct MultiSimulation<'a, C: Controller + 'a = Box<dyn Controller + 'a>> {
    config: MultiSimConfig,
    pipelines: Vec<MultiPipeline<'a, C>>,
}

impl<'a, C: Controller + 'a> MultiSimulation<'a, C> {
    /// Create an empty multi-pipeline simulation from a [`MultiSimConfig`] (or
    /// a bare [`SimConfig`], which runs serial). `initial_demand_hint` is
    /// ignored — each registered pipeline carries its own hint.
    pub fn new(config: impl Into<MultiSimConfig>) -> Self {
        Self {
            config: config.into(),
            pipelines: Vec::new(),
        }
    }

    /// Register a pipeline. Registration order is the index order every
    /// arbiter observation and result vector uses. Nothing is checked until
    /// the run: an invalid graph makes `try_run*` return
    /// [`EngineError::InvalidRun`].
    pub fn add_pipeline(&mut self, pipeline: MultiPipeline<'a, C>) -> &mut Self {
        self.pipelines.push(pipeline);
        self
    }

    /// Run to completion under `arbiter`. A run with no pipeline registered
    /// or a config it cannot start from returns [`EngineError::InvalidRun`],
    /// and an engine invariant violation or a bad controller or arbiter
    /// output its own [`EngineError`].
    pub fn try_run(
        &mut self,
        arbiter: &mut dyn ResourceArbiter,
    ) -> Result<MultiSimResult, EngineError> {
        let (config, lanes) = self.lanes();
        let out = run(&config.sim, lanes, Some(&mut *arbiter), None, config.jobs)?;
        Ok(self.result(out, arbiter))
    }

    /// Like [`MultiSimulation::try_run`], with an [`ElasticPolicy`] scaling
    /// the shared fleet under the arbiter: boots land in the free pool and the
    /// next rebalance apportions them, so the partition size changes between
    /// arbiter epochs. Without [`SimConfig::elastic`] the run returns
    /// [`EngineError::InvalidRun`].
    pub fn try_run_elastic(
        &mut self,
        arbiter: &mut dyn ResourceArbiter,
        policy: &mut dyn ElasticPolicy,
    ) -> Result<MultiSimResult, EngineError> {
        let (config, lanes) = self.lanes();
        let out = run(
            &config.sim,
            lanes,
            Some(&mut *arbiter),
            Some(policy),
            config.jobs,
        )?;
        Ok(self.result(out, arbiter))
    }

    /// The run's config and its lanes: each registered pipeline paired with
    /// its controller, in registration order.
    fn lanes(&mut self) -> (&MultiSimConfig, Vec<Lane<'_>>) {
        let lanes = self
            .pipelines
            .iter_mut()
            .map(|p| {
                let input = LaneInput {
                    graph: p.graph,
                    arrivals_s: &p.arrivals_s,
                    initial_demand_hint: p.initial_demand_hint,
                };
                (input, &mut p.controller as &mut dyn Controller)
            })
            .collect();
        (&self.config, lanes)
    }

    /// Label the run's outputs with the pipelines' names and the arbiter's.
    fn result(&self, out: RunOutput, arbiter: &dyn ResourceArbiter) -> MultiSimResult {
        let lanes = out.results.into_iter().zip(out.timings);
        MultiSimResult {
            pipelines: self
                .pipelines
                .iter()
                .zip(lanes)
                .map(
                    |(p, (result, (lane_wall_s, barrier_wait_s)))| PipelineResult {
                        name: p.name.clone(),
                        result,
                        lane_wall_s,
                        barrier_wait_s,
                    },
                )
                .collect(),
            arbiter: arbiter.name().to_string(),
            total_events: out.total_events,
            rebalances: out.rebalances,
            migrations: out.migrations,
            cost: out.cost,
            journal: out.journal,
            metrics_interval_s: self.config.sim.metrics_interval_s,
        }
    }

    /// Consume the simulation and return the registered pipelines (useful to
    /// inspect controller internals — e.g. per-lane `ControllerStats` — after
    /// a run).
    pub fn into_pipelines(self) -> Vec<MultiPipeline<'a, C>> {
        self.pipelines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_is_proportional_and_exact() {
        assert_eq!(apportion(&[1.0, 1.0], 20), vec![10, 10]);
        assert_eq!(apportion(&[3.0, 1.0], 20), vec![15, 5]);
        assert_eq!(apportion(&[1100.0, 183.0], 20), vec![17, 3]);
        // Zero weight gets zero workers; the rest absorbs everything.
        assert_eq!(apportion(&[300.0, 0.0], 20), vec![20, 0]);
        // All-zero weights fall back to an even split.
        assert_eq!(apportion(&[0.0, 0.0, 0.0], 9), vec![3, 3, 3]);
        // Remainders distribute by largest fraction, ties to the lower index.
        assert_eq!(apportion(&[1.0, 1.0, 1.0], 10), vec![4, 3, 3]);
        let counts = apportion(&[0.7, 0.2, 0.1], 7);
        assert_eq!(counts.iter().sum::<usize>(), 7);
        // NaN/negative weights are treated as zero, not propagated.
        assert_eq!(apportion(&[f64::NAN, 2.0], 4), vec![0, 4]);
        assert_eq!(apportion(&[-3.0, 2.0], 4), vec![0, 4]);
        assert_eq!(apportion(&[], 4), Vec::<usize>::new());
        // Weights whose sum overflows split like their ratios.
        assert_eq!(apportion(&[f64::MAX, f64::MAX], 2), vec![1, 1]);
        assert_eq!(apportion(&[f64::MAX, f64::MAX / 3.0], 8), vec![6, 2]);
    }

    #[test]
    fn static_partition_grants_once_then_keeps() {
        let mut arbiter = StaticPartition::even(2);
        assert_eq!(arbiter.name(), "static-even");
        let observation = ArbiterObservation {
            now_s: 0.0,
            cluster_size: 10,
            partition: &[0, 0],
            demand_qps: &[100.0, 100.0],
            slo_ms: &[250.0, 250.0],
            num_tasks: &[2, 2],
            queued: &[0, 0],
        };
        assert_eq!(arbiter.partition(&observation), Some(vec![5, 5]));
        let settled = ArbiterObservation {
            partition: &[5, 5],
            ..observation
        };
        assert_eq!(arbiter.partition(&settled), None);

        let mut oracle = StaticPartition::with_shares("oracle", vec![3.0, 1.0]);
        assert_eq!(oracle.partition(&settled), Some(vec![8, 2]));
    }
}
