//! The paper's traffic-analysis scenario: object detection feeding car classification
//! and facial recognition, served by Loki on a 20-GPU cluster under a diurnal workload.
//!
//! Run: `cargo run --release --example traffic_analysis`

use loki::prelude::*;

fn main() -> Result<(), EngineError> {
    let graph = zoo::traffic_analysis_pipeline(250.0);

    // Phase analysis (Figure 1): where does hardware scaling end?
    let mut controller = LokiController::new(graph.clone(), LokiConfig::with_greedy());
    let mut hw_capacity = 0.0f64;
    for demand in (50..3000).step_by(50) {
        let out = controller.allocate_for_demand(demand as f64, 20);
        if out.mode == ScalingMode::Hardware {
            hw_capacity = out.servable_demand;
        }
    }
    println!("hardware-scaling capacity of 20 workers at max accuracy: {hw_capacity:.0} QPS");

    // A compressed diurnal day that peaks well above that capacity.
    let trace = generators::azure_like_diurnal(3, 600, 60.0, hw_capacity * 2.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 3);
    let controller = LokiController::new(graph.clone(), LokiConfig::with_greedy());
    let config = SimConfig {
        cluster_size: 20,
        initial_demand_hint: Some(trace.qps_at(0)),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(&graph, config, controller);
    let result = sim.try_run(&arrivals)?;
    println!(
        "day peak {:.0} QPS: violations {:.2}%, accuracy {:.3} (max {:.3}), active workers {}..{}",
        trace.peak_qps(),
        100.0 * result.summary.slo_violation_ratio,
        result.summary.system_accuracy,
        graph.max_accuracy(),
        result.summary.min_active_workers,
        result.summary.max_active_workers,
    );
    println!(
        "During the off-peak valley Loki powers most of the cluster down; at the peak it trades"
    );
    println!("a little accuracy for throughput instead of dropping requests.");
    Ok(())
}
