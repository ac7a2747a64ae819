//! The paper's social-media scenario: image classification feeding image captioning,
//! comparing Loki with a Proteus-style pipeline-agnostic accuracy-scaling controller.
//!
//! Run: `cargo run --release --example social_media`

use loki::prelude::*;

fn main() -> Result<(), EngineError> {
    let graph = zoo::social_media_pipeline(250.0);
    let trace = generators::twitter_like_bursty(11, 600, 60.0, 900.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 11);
    let config = SimConfig {
        cluster_size: 20,
        initial_demand_hint: Some(trace.qps_at(0)),
        ..SimConfig::default()
    };

    let mut loki_sim = Simulation::new(
        &graph,
        config.clone(),
        LokiController::new(graph.clone(), LokiConfig::with_greedy()),
    );
    let loki = loki_sim.try_run(&arrivals)?;

    let mut proteus_sim = Simulation::new(
        &graph,
        config,
        ProteusController::with_defaults(graph.clone()),
    );
    let proteus = proteus_sim.try_run(&arrivals)?;

    println!(
        "{:<10} {:>12} {:>12} {:>14}",
        "system", "slo_viol", "accuracy", "mean_util"
    );
    for (name, r) in [("loki", &loki), ("proteus", &proteus)] {
        println!(
            "{:<10} {:>12.4} {:>12.4} {:>14.3}",
            name,
            r.summary.slo_violation_ratio,
            r.summary.system_accuracy,
            r.summary.mean_utilization
        );
    }
    println!(
        "\nLoki keeps violations {:.1}x lower while using as few as {} of 20 workers off-peak.",
        proteus.summary.slo_violation_ratio / loki.summary.slo_violation_ratio.max(1e-6),
        loki.summary.min_active_workers
    );
    Ok(())
}
