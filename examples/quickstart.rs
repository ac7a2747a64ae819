//! Quickstart: build a small pipeline, let the Loki controller allocate resources for a
//! few demand levels, and run a short end-to-end simulation.
//!
//! Run: `cargo run --release --example quickstart`

use loki::prelude::*;

fn main() -> Result<(), EngineError> {
    // 1. A small two-task pipeline (see `zoo::traffic_analysis_pipeline` for the real one).
    let graph = zoo::tiny_pipeline(100.0);
    println!(
        "pipeline `{}`: {} tasks, {} variants, accuracy range {:.2}..{:.2}",
        graph.name(),
        graph.num_tasks(),
        graph.num_variants(),
        graph.min_accuracy(),
        graph.max_accuracy()
    );

    // 2. Ask the Resource Manager what it would provision at different demand levels.
    let mut controller = LokiController::new(graph.clone(), LokiConfig::with_greedy());
    for demand in [50.0, 400.0, 1500.0] {
        let out = controller.allocate_for_demand(demand, 8);
        println!(
            "demand {demand:>6.0} qps -> {:?} scaling, {} servers, expected accuracy {:.3}",
            out.mode, out.servers_used, out.expected_accuracy
        );
    }

    // 3. Run a short simulation on an 8-worker cluster with a ramping workload.
    let trace = generators::ramp(60, 50.0, 600.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 7);
    let controller = LokiController::new(graph.clone(), LokiConfig::with_greedy());
    let config = SimConfig {
        cluster_size: 8,
        initial_demand_hint: Some(trace.qps_at(0)),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(&graph, config, controller);
    let result = sim.try_run(&arrivals)?;
    println!(
        "simulated {} requests: {:.2}% SLO violations, system accuracy {:.3}, mean utilization {:.0}%",
        result.summary.total_arrivals,
        100.0 * result.summary.slo_violation_ratio,
        result.summary.system_accuracy,
        100.0 * result.summary.mean_utilization
    );
    Ok(())
}
