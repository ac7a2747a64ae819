//! Integration tests for the Scenario subsystem: deterministic grid enumeration and
//! the core guarantee of the parallel runner — summaries bit-identical to serial
//! execution for the same seeds.

use loki_bench::runner::Runner;
use loki_bench::scenario::{self, ControllerSpec};
use loki_bench::sweep::Sweep;
use loki_bench::ExperimentConfig;

/// A short fig8-style SLO×seed grid (kept small so the suite stays fast).
fn short_slo_sweep() -> Sweep {
    let sc = scenario::find("fig8_slo_sweep").expect("fig8 registered");
    let cfg = ExperimentConfig {
        duration_s: 20,
        peak_qps: 200.0,
        base_qps: 120.0,
        drain_s: 10.0,
        ..sc.config()
    };
    let mut sweep = Sweep::for_scenario(sc, cfg);
    sweep.set_axis("slo", "200,300").expect("slo axis");
    sweep.set_axis("seed", "7,8").expect("seed axis");
    sweep
}

#[test]
fn sweep_grid_enumeration_is_deterministic() {
    let sweep = short_slo_sweep();
    assert_eq!(sweep.len(), 4);
    let a = sweep.points();
    let b = sweep.points();
    assert_eq!(a, b, "two enumerations of the same grid must be identical");
    // The enumeration order is the documented nesting: slo outer, seed inner.
    let keys: Vec<(f64, u64)> = a.iter().map(|p| (p.cfg.slo_ms, p.cfg.seed)).collect();
    assert_eq!(keys, vec![(200.0, 7), (200.0, 8), (300.0, 7), (300.0, 8)]);
}

#[test]
fn parallel_runner_matches_serial_bit_for_bit() {
    let sweep = short_slo_sweep();
    let serial = Runner::serial().run(sweep.points()).unwrap();
    let parallel = Runner::with_jobs(3).run(sweep.points()).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label, "parallel results must keep input order");
        // `RunSummary` is `PartialEq` over every counter and float: bit-identical.
        assert_eq!(
            s.result.summary, p.result.summary,
            "parallel summary diverged from serial for {}",
            s.label
        );
        assert_eq!(s.result.intervals.len(), p.result.intervals.len());
        assert!(s.result.summary.total_arrivals > 0);
    }
}

#[test]
fn comparison_points_run_all_three_systems_in_parallel() {
    let sc = scenario::find("smoke").expect("smoke registered");
    let mut cfg = sc.config();
    cfg.duration_s = 20;
    let mut sweep = Sweep::for_scenario(sc, cfg);
    sweep
        .set_axis("controllers", "loki-greedy,inferline,proteus")
        .unwrap();
    let results = Runner::with_jobs(2).run(sweep.points()).unwrap();
    assert_eq!(results.len(), 3);
    let labels: Vec<_> = results.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, vec!["loki-greedy", "inferline", "proteus"]);
    for r in &results {
        assert!(r.result.summary.total_arrivals > 0, "{} idle", r.label);
    }
}

#[test]
fn fresh_controllers_per_point_keep_milp_and_greedy_separate() {
    let graph = scenario::PipelineSpec::Traffic.build(250.0);
    // Building twice from the same spec must not share state: both start with
    // zeroed stats.
    for spec in [ControllerSpec::LokiGreedy, ControllerSpec::LokiMilp] {
        let a = spec.build(
            &graph,
            None,
            &loki_sim::LinkDelayModel::Uniform,
            loki_sim::RouteMode::Accuracy,
        );
        let b = spec.build(
            &graph,
            None,
            &loki_sim::LinkDelayModel::Uniform,
            loki_sim::RouteMode::Accuracy,
        );
        assert_eq!(a.controller_stats().unwrap().allocations, 0);
        assert_eq!(b.controller_stats().unwrap().allocations, 0);
    }
}
