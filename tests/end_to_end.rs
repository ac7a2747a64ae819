//! Cross-crate integration tests: the full Loki stack (pipeline zoo + workload +
//! simulator + controller) compared against the baselines on short workloads.

use loki::prelude::*;

fn short_config(hint: f64) -> SimConfig {
    SimConfig {
        cluster_size: 20,
        control_interval_s: 5.0,
        initial_demand_hint: Some(hint),
        drain_s: 15.0,
        ..SimConfig::default()
    }
}

fn run<C: Controller>(graph: &PipelineGraph, trace: &Trace, controller: C) -> SimResult {
    let arrivals = generate_arrivals(trace, ArrivalProcess::Poisson, 99);
    let mut sim = Simulation::new(graph, short_config(trace.qps_at(0)), controller);
    sim.try_run(&arrivals).unwrap()
}

#[test]
fn loki_matches_inferline_at_low_demand_with_fewer_or_equal_servers() {
    let graph = zoo::traffic_analysis_pipeline(250.0);
    let trace = generators::constant(30, 150.0);
    let loki = run(
        &graph,
        &trace,
        LokiController::new(graph.clone(), LokiConfig::with_greedy()),
    );
    let inferline = run(
        &graph,
        &trace,
        InferLineController::with_defaults(graph.clone()),
    );
    // Both serve comfortably at max accuracy when demand is low.
    assert!(loki.summary.slo_violation_ratio < 0.05);
    assert!(inferline.summary.slo_violation_ratio < 0.05);
    assert!((loki.summary.system_accuracy - graph.max_accuracy()).abs() < 1e-6);
    // Neither needs the whole cluster.
    assert!(loki.summary.max_active_workers < 20);
    assert!(inferline.summary.max_active_workers < 20);
}

#[test]
fn loki_beats_hardware_scaling_only_under_overload() {
    let graph = zoo::traffic_analysis_pipeline(250.0);
    // Roughly twice the cluster's maximum-accuracy capacity.
    let trace = generators::constant(30, 1400.0);
    let loki = run(
        &graph,
        &trace,
        LokiController::new(graph.clone(), LokiConfig::with_greedy()),
    );
    let inferline = run(
        &graph,
        &trace,
        InferLineController::with_defaults(graph.clone()),
    );
    assert!(
        loki.summary.slo_violation_ratio < 0.25,
        "loki violations {}",
        loki.summary.slo_violation_ratio
    );
    assert!(
        inferline.summary.slo_violation_ratio > 2.0 * loki.summary.slo_violation_ratio,
        "inferline {} vs loki {}",
        inferline.summary.slo_violation_ratio,
        loki.summary.slo_violation_ratio
    );
    // Loki pays with accuracy, not with violations.
    assert!(loki.summary.system_accuracy < graph.max_accuracy());
}

#[test]
fn loki_uses_fewer_servers_than_proteus_off_peak() {
    let graph = zoo::traffic_analysis_pipeline(250.0);
    let trace = generators::constant(30, 100.0);
    let loki = run(
        &graph,
        &trace,
        LokiController::new(graph.clone(), LokiConfig::with_greedy()),
    );
    let proteus = run(
        &graph,
        &trace,
        ProteusController::with_defaults(graph.clone()),
    );
    assert_eq!(proteus.summary.max_active_workers, 20);
    assert!(
        (loki.summary.max_active_workers as f64) < 0.6 * 20.0,
        "loki active workers {}",
        loki.summary.max_active_workers
    );
}

#[test]
fn social_media_pipeline_end_to_end() {
    // A gentle ramp (slow relative to the 5 s control interval) that stays within the
    // cluster's maximum-accuracy capacity: Loki should track it with hardware scaling
    // and keep violations low.
    let graph = zoo::social_media_pipeline(250.0);
    let trace = generators::ramp(60, 100.0, 450.0);
    let loki = run(
        &graph,
        &trace,
        LokiController::new(graph.clone(), LokiConfig::with_greedy()),
    );
    assert!(loki.summary.total_arrivals > 10_000);
    assert!(
        loki.summary.slo_violation_ratio < 0.1,
        "violations {}",
        loki.summary.slo_violation_ratio
    );
    assert!(loki.summary.system_accuracy > graph.min_accuracy());
    assert!(loki.summary.max_active_workers < 20);
}

#[test]
fn drop_policy_ablation_orders_as_expected() {
    // Opportunistic rerouting should not be worse than doing nothing at all.
    let graph = zoo::traffic_analysis_pipeline(250.0);
    let trace = generators::constant(25, 1200.0);
    let mut results = Vec::new();
    for policy in DropPolicy::all() {
        let mut config = LokiConfig::with_greedy();
        config.drop_policy = policy;
        let r = run(&graph, &trace, LokiController::new(graph.clone(), config));
        results.push((policy, r.summary.slo_violation_ratio));
    }
    let get = |p: DropPolicy| results.iter().find(|(x, _)| *x == p).unwrap().1;
    let none = get(DropPolicy::NoEarlyDropping);
    let rerouting = get(DropPolicy::OpportunisticRerouting);
    assert!(
        rerouting <= none + 0.05,
        "rerouting {rerouting} should not be much worse than no dropping {none}"
    );
}
