//! Observability determinism guards: query tracing records *simulated* time,
//! so traces must be bit-identical for every `jobs` value, and turning
//! tracing and the timeline on must not perturb the simulation itself.
//!
//! 1. `traces_are_bit_identical_across_jobs`: a four-lane contended run under
//!    a migration-heavy seesaw arbiter produces identical per-lane span trees
//!    (same sampled roots, same spans, same timestamps) for `jobs ∈ {1, 2, 4}`.
//! 2. `observability_does_not_perturb_the_simulation`: the same run with
//!    tracing + timeline on yields a summary and interval series bit-identical
//!    to the run with observability off.
//! 3. `critical_path_is_bounded_by_measured_latency`: for every sampled root,
//!    `critical_path().total_us <= latency_us()` and the per-kind components
//!    sum to no more than the total.

use loki_pipeline::{zoo, PipelineGraph, VariantId};
use loki_sim::{
    apportion, AllocationPlan, ArbiterObservation, CompiledPlan, Controller, DropPolicy,
    InstanceSpec, MultiPipeline, MultiSimConfig, MultiSimResult, MultiSimulation, ObserveConfig,
    ObservedState, ResourceArbiter, RoutingPlan, SimConfig,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};
use std::collections::HashMap;

struct StaticController {
    plan: AllocationPlan,
}

impl StaticController {
    fn tiny(replicas: usize, batch: u32) -> Self {
        Self {
            plan: AllocationPlan {
                instances: vec![
                    InstanceSpec {
                        variant: VariantId::new(0, 1),
                        max_batch: batch,
                        count: replicas,
                    },
                    InstanceSpec {
                        variant: VariantId::new(1, 1),
                        max_batch: batch,
                        count: replicas,
                    },
                ],
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

/// Flips the cluster split every epoch so workers migrate constantly — the
/// requeue/re-home paths leave `Requeue` trace markers, which must land
/// identically regardless of lane parallelism.
struct SeesawArbiter {
    epoch: u64,
}

impl ResourceArbiter for SeesawArbiter {
    fn name(&self) -> &str {
        "seesaw"
    }

    fn rebalance_interval_s(&self) -> f64 {
        2.0
    }

    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>> {
        self.epoch += 1;
        let lanes = observation.partition.len();
        let weights: Vec<f64> = (0..lanes)
            .map(|i| {
                if i.is_multiple_of(2) == self.epoch.is_multiple_of(2) {
                    3.0
                } else {
                    1.0
                }
            })
            .collect();
        Some(apportion(&weights, observation.cluster_size))
    }
}

fn observed_config(seed: u64, observe: ObserveConfig) -> SimConfig {
    SimConfig {
        cluster_size: 16,
        drain_s: 10.0,
        seed,
        observe,
        ..SimConfig::default()
    }
}

fn four_lane_run(seed: u64, jobs: usize, observe: ObserveConfig) -> MultiSimResult {
    let graphs: Vec<PipelineGraph> = (0..4).map(|_| zoo::tiny_pipeline(200.0)).collect();
    let trace = generators::constant(20, 30.0);
    let mut multi = MultiSimulation::new(MultiSimConfig {
        sim: observed_config(seed, observe),
        jobs,
    });
    for (i, graph) in graphs.iter().enumerate() {
        multi.add_pipeline(MultiPipeline {
            name: format!("lane{i}"),
            graph,
            controller: Box::new(StaticController::tiny(2, 4)),
            arrivals_s: generate_arrivals(&trace, ArrivalProcess::Poisson, seed + i as u64),
            initial_demand_hint: Some(30.0),
        });
    }
    let mut arbiter = SeesawArbiter { epoch: 0 };
    multi.run(&mut arbiter)
}

fn dense_tracing() -> ObserveConfig {
    ObserveConfig {
        trace_sample: 3,
        histograms: true,
        timeline: true,
    }
}

#[test]
fn traces_are_bit_identical_across_jobs() {
    for seed in [7, 42] {
        let serial = four_lane_run(seed, 1, dense_tracing());
        for jobs in [2, 4] {
            let parallel = four_lane_run(seed, jobs, dense_tracing());
            assert_eq!(
                serial.pipelines.len(),
                parallel.pipelines.len(),
                "seed {seed} jobs {jobs}: lane count"
            );
            for (a, b) in serial.pipelines.iter().zip(&parallel.pipelines) {
                let ta = a.result.trace.as_ref().expect("serial lane trace");
                let tb = b.result.trace.as_ref().expect("parallel lane trace");
                assert!(
                    !ta.roots.is_empty(),
                    "seed {seed} lane {}: dense sampling must capture roots",
                    a.name
                );
                // RootTrace derives PartialEq over every field — lane,
                // arrival index, simulated timestamps, and the full span list.
                assert_eq!(
                    ta.roots, tb.roots,
                    "seed {seed} jobs {jobs}: lane {} span trees",
                    a.name
                );
                assert_eq!(
                    a.result.latency, b.result.latency,
                    "seed {seed} jobs {jobs}: lane {} latency histograms",
                    a.name
                );
            }
        }
    }
}

#[test]
fn observability_does_not_perturb_the_simulation() {
    let plain = four_lane_run(11, 2, ObserveConfig::default());
    let observed = four_lane_run(11, 2, dense_tracing());
    for (a, b) in plain.pipelines.iter().zip(&observed.pipelines) {
        assert_eq!(
            a.result.summary.total_on_time, b.result.summary.total_on_time,
            "lane {}: tracing/timeline changed on-time count",
            a.name
        );
        assert_eq!(
            a.result.summary.total_dropped, b.result.summary.total_dropped,
            "lane {}: tracing/timeline changed drop count",
            a.name
        );
        assert_eq!(
            a.result.intervals, b.result.intervals,
            "lane {}: tracing/timeline changed the interval series",
            a.name
        );
    }
    assert_eq!(plain.total_events, observed.total_events, "event count");
    assert_eq!(plain.migrations, observed.migrations, "migrations");
}

/// The timeline channel (cluster journal + per-interval histogram deltas)
/// records simulated time only, so it must be bit-identical for every `jobs`
/// value — even under a migration-heavy arbiter.
#[test]
fn timeline_is_bit_identical_across_jobs() {
    for seed in [7, 42] {
        let serial = four_lane_run(seed, 1, dense_tracing());
        let parallel = four_lane_run(seed, 2, dense_tracing());
        let ja = serial.journal.as_ref().expect("serial journal");
        let jb = parallel.journal.as_ref().expect("parallel journal");
        assert!(
            !ja.is_empty(),
            "seed {seed}: the seesaw arbiter must journal rebalances"
        );
        assert!(
            ja.count_matching(|k| matches!(k, loki_sim::JournalKind::Migration { .. })) > 0,
            "seed {seed}: migrations must be journaled"
        );
        assert_eq!(ja.events, jb.events, "seed {seed}: journal event streams");
        for (a, b) in serial.pipelines.iter().zip(&parallel.pipelines) {
            assert_eq!(
                a.result.window, b.result.window,
                "seed {seed}: lane {} windowed histograms",
                a.name
            );
        }
    }
}

/// The windowed recorder is reset-based: merging every per-interval delta must
/// reproduce the whole-run end-to-end histogram exactly (same counts, same
/// min/max), per lane and for the aggregate.
#[test]
fn window_deltas_remerge_to_the_run_histogram() {
    let run = four_lane_run(11, 2, dense_tracing());
    for lane in &run.pipelines {
        let rows = lane.result.window.as_ref().expect("lane window rows");
        assert_eq!(
            rows.len(),
            lane.result.intervals.len(),
            "lane {}: one histogram delta per interval",
            lane.name
        );
        let mut merged = loki_sim::Histogram::new();
        for row in rows {
            merged.merge(row);
        }
        let e2e = &lane.result.latency.as_ref().expect("lane histograms").e2e;
        assert_eq!(
            &merged, e2e,
            "lane {}: re-merged deltas differ from the run histogram",
            lane.name
        );
    }
    let agg = run.aggregate(16);
    let rows = agg.window.as_ref().expect("aggregate window rows");
    let mut merged = loki_sim::Histogram::new();
    for row in rows {
        merged.merge(row);
    }
    assert_eq!(
        &merged,
        &agg.latency.as_ref().expect("aggregate histograms").e2e,
        "aggregate: re-merged deltas differ from the merged run histogram"
    );
}

#[test]
fn critical_path_is_bounded_by_measured_latency() {
    let run = four_lane_run(42, 2, dense_tracing());
    let mut checked = 0usize;
    for lane in &run.pipelines {
        let log = lane.result.trace.as_ref().expect("lane trace");
        for root in &log.roots {
            let cp = root.critical_path();
            assert!(
                cp.total_us <= root.latency_us(),
                "lane {} root {}: critical path {}us exceeds measured latency {}us",
                lane.name,
                root.arrival_index,
                cp.total_us,
                root.latency_us()
            );
            assert!(
                cp.queue_us + cp.exec_us + cp.network_us <= cp.total_us,
                "lane {} root {}: critical-path components exceed the total",
                lane.name,
                root.arrival_index
            );
            checked += 1;
        }
    }
    assert!(
        checked > 10,
        "expected a meaningful trace corpus, got {checked}"
    );
}
