//! Sharded-engine determinism guards: lane-parallel execution must be
//! *bit-identical* to serial execution.
//!
//! The engine runs each pipeline lane on its own worker thread between
//! rebalance epochs (`MultiSimConfig::jobs`), merging at epoch barriers. These
//! tests pin the contract that `jobs` changes wall-clock time and nothing
//! else:
//!
//! 1. `jobs_values_are_bit_identical_across_seeds`: a four-lane contended run
//!    produces identical per-lane summaries, interval series, and event counts
//!    for `jobs ∈ {1, 2, 4}`, across several seeds.
//! 2. `migration_heavy_seesaw_is_bit_identical`: an adversarial arbiter that
//!    flips the partition every epoch (so workers migrate constantly, the
//!    code path where lane-local state crosses shard boundaries) stays
//!    bit-identical under parallel execution.
//! 3. `single_lane_parallel_path_matches_dedicated_simulation`: a one-lane
//!    `MultiSimulation` at any `jobs` value reproduces the dedicated
//!    single-pipeline `Simulation` bit for bit — the sharded path is a strict
//!    generalization, not a fork.
//!
//! Wall-clock fields (`lane_wall_s`, `barrier_wait_s`) are host measurements
//! and deliberately excluded from every comparison.

use loki_pipeline::{zoo, PipelineGraph};
use loki_sim::{MultiPipeline, MultiSimConfig, MultiSimResult, MultiSimulation, SimConfig};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};

#[path = "common/static_controller.rs"]
mod static_controller;

#[path = "common/seesaw_arbiter.rs"]
mod seesaw_arbiter;

use seesaw_arbiter::SeesawArbiter;
use static_controller::StaticController;

fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster_size: 16,
        drain_s: 10.0,
        seed,
        ..SimConfig::default()
    }
}

/// Four tiny-pipeline lanes with staggered Poisson arrival streams, run under
/// the seesaw arbiter with the given engine parallelism.
fn four_lane_run(seed: u64, jobs: usize) -> MultiSimResult {
    let graphs: Vec<PipelineGraph> = (0..4).map(|_| zoo::tiny_pipeline(200.0)).collect();
    let trace = generators::constant(20, 30.0);
    let mut multi = MultiSimulation::new(MultiSimConfig {
        sim: base_config(seed),
        jobs,
    });
    for (i, graph) in graphs.iter().enumerate() {
        multi.add_pipeline(MultiPipeline {
            name: format!("lane{i}"),
            graph,
            controller: Box::new(StaticController::tiny(2)),
            arrivals_s: generate_arrivals(&trace, ArrivalProcess::Poisson, seed + i as u64),
            initial_demand_hint: Some(30.0),
        });
    }
    let mut arbiter = SeesawArbiter { epoch: 0 };
    multi.try_run(&mut arbiter).unwrap()
}

/// Everything deterministic about a run must match; host-time fields must not
/// participate.
fn assert_bit_identical(a: &MultiSimResult, b: &MultiSimResult, what: &str) {
    assert_eq!(a.pipelines.len(), b.pipelines.len(), "{what}: lane count");
    for (lane_a, lane_b) in a.pipelines.iter().zip(&b.pipelines) {
        assert_eq!(lane_a.name, lane_b.name, "{what}: lane order");
        assert_eq!(
            lane_a.result.summary, lane_b.result.summary,
            "{what}: lane {} summary",
            lane_a.name
        );
        assert_eq!(
            lane_a.result.intervals, lane_b.result.intervals,
            "{what}: lane {} interval series",
            lane_a.name
        );
    }
    assert_eq!(a.total_events, b.total_events, "{what}: total events");
    assert_eq!(a.rebalances, b.rebalances, "{what}: rebalances");
    assert_eq!(a.migrations, b.migrations, "{what}: migrations");
    assert_eq!(a.cost, b.cost, "{what}: cost accounting");
}

#[test]
fn jobs_values_are_bit_identical_across_seeds() {
    for seed in [7, 11, 42] {
        let serial = four_lane_run(seed, 1);
        for jobs in [2, 4] {
            let parallel = four_lane_run(seed, jobs);
            assert_bit_identical(&serial, &parallel, &format!("seed {seed} jobs {jobs}"));
        }
    }
}

#[test]
fn migration_heavy_seesaw_is_bit_identical() {
    let serial = four_lane_run(42, 1);
    assert!(
        serial.migrations > 0,
        "the seesaw arbiter must actually migrate workers (got {} over {} rebalances)",
        serial.migrations,
        serial.rebalances
    );
    assert!(
        serial.rebalances >= 5,
        "partition must shift on (nearly) every epoch, got {}",
        serial.rebalances
    );
    let parallel = four_lane_run(42, 4);
    assert_bit_identical(&serial, &parallel, "seesaw jobs 4");
}

#[test]
fn single_lane_parallel_path_matches_dedicated_simulation() {
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(20, 40.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 3);

    let mut config = base_config(42);
    config.initial_demand_hint = Some(40.0);
    let single = loki_sim::Simulation::new(&graph, config, StaticController::tiny(3))
        .try_run(&arrivals)
        .unwrap()
        .summary;

    for jobs in [1, 2, 4] {
        let mut multi = MultiSimulation::new(MultiSimConfig {
            sim: base_config(42),
            jobs,
        });
        multi.add_pipeline(MultiPipeline {
            name: "only".to_string(),
            graph: &graph,
            controller: Box::new(StaticController::tiny(3)),
            arrivals_s: arrivals.clone(),
            initial_demand_hint: Some(40.0),
        });
        let mut arbiter = loki_sim::StaticPartition::even(1);
        let result = multi.try_run(&mut arbiter).unwrap();
        assert_eq!(
            result.pipelines[0].result.summary, single,
            "jobs={jobs}: a one-lane multi run must reproduce the dedicated \
             single-pipeline simulation bit for bit"
        );
    }
}
