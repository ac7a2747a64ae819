//! Bench-layer guard for the sharded engine: every registered multi-pipeline
//! scenario must produce bit-identical results at every `jobs` setting.
//!
//! The sim-level identity tests (`loki_sim/tests/parallel_identity.rs`) pin
//! the engine under synthetic controllers; this test pins the full bench
//! stack — registry scenario, real Loki controllers per lane, Resource
//! Manager arbitration — at scaled-down durations, for `jobs ∈ {1, 2, 4}`
//! across seeds. A point result carries no host time, so everything it
//! reports is compared, the control-plane counters included.

use loki_bench::scenario::{self, scenario_point, PointResult};
use loki_bench::ExperimentConfig;

/// A scaled-down config for identity runs: short duration, modest load.
fn short_cfg(sc: &scenario::Scenario, seed: u64) -> ExperimentConfig {
    let mut cfg = sc.config();
    cfg.duration_s = 20;
    cfg.drain_s = 5.0;
    cfg.peak_qps = 300.0;
    cfg.base_qps = 100.0;
    cfg.seed = seed;
    cfg
}

fn run(sc: &scenario::Scenario, seed: u64, jobs: usize) -> PointResult {
    let mut cfg = short_cfg(sc, seed);
    cfg.jobs = jobs;
    scenario_point(sc, &cfg).execute()
}

/// Compare everything deterministic about two multi-pipeline points.
fn assert_identical(a: &PointResult, b: &PointResult, what: &str) {
    assert_eq!(
        a.result.summary, b.result.summary,
        "{what}: aggregate summary"
    );
    assert_eq!(
        a.result.intervals, b.result.intervals,
        "{what}: aggregate interval series"
    );
    assert_eq!(a.arrivals, b.arrivals, "{what}: arrivals");
    assert_eq!(
        a.controller_stats, b.controller_stats,
        "{what}: controller stats"
    );
    assert_eq!(
        a.per_pipeline.len(),
        b.per_pipeline.len(),
        "{what}: lane count"
    );
    for (lane_a, lane_b) in a.per_pipeline.iter().zip(&b.per_pipeline) {
        assert_eq!(lane_a.name, lane_b.name, "{what}: lane order");
        assert_eq!(
            lane_a.summary, lane_b.summary,
            "{what}: lane {} summary",
            lane_a.name
        );
        assert_eq!(
            lane_a.controller_stats, lane_b.controller_stats,
            "{what}: lane {} controller stats",
            lane_a.name
        );
    }
    let (stats_a, stats_b) = (
        a.multi_stats.as_ref().expect("multi stats"),
        b.multi_stats.as_ref().expect("multi stats"),
    );
    assert_eq!(stats_a.arbiter, stats_b.arbiter, "{what}: arbiter");
    assert_eq!(stats_a.rebalances, stats_b.rebalances, "{what}: rebalances");
    assert_eq!(stats_a.migrations, stats_b.migrations, "{what}: migrations");
}

#[test]
fn multi_traffic_social_is_bit_identical_across_jobs_and_seeds() {
    let sc = scenario::find("multi_traffic_social").unwrap();
    for seed in [7, 11, 42] {
        let serial = run(sc, seed, 1);
        assert!(serial.result.summary.total_arrivals > 0);
        for jobs in [2, 4] {
            let parallel = run(sc, seed, jobs);
            assert_identical(
                &serial,
                &parallel,
                &format!("multi_traffic_social seed {seed} jobs {jobs}"),
            );
        }
    }
}

#[test]
fn multi_zipf_16_is_bit_identical_across_jobs() {
    let sc = scenario::find("multi_zipf_16").unwrap();
    let serial = run(sc, 42, 1);
    assert_eq!(serial.per_pipeline.len(), 16);
    assert!(serial.result.summary.total_arrivals > 0);
    for jobs in [2, 4] {
        let parallel = run(sc, 42, jobs);
        assert_identical(&serial, &parallel, &format!("multi_zipf_16 jobs {jobs}"));
    }
}
