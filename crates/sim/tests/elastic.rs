//! Elasticity invariants of the engine:
//!
//! * provisioned capacity is never billed before boot completes (billing spans
//!   are exact, pinned to the microsecond);
//! * a draining worker finishes its in-flight work but never receives a new
//!   dispatch — with half the fleet drained mid-run, every request is still
//!   accounted for and the survivors serve the rest;
//! * same-seed elastic runs are deterministic, and scaling actions actually
//!   change the execution relative to the static fleet;
//! * a fixed-fleet run (`elastic: None`) is bit-identical to the same config
//!   with an elastic single-class fleet of the same size and a no-op policy —
//!   the billing layer observes, it never perturbs.

use loki_pipeline::zoo;
use loki_sim::{
    ElasticAction, ElasticSimConfig, RunSummary, SimConfig, Simulation, StaticFleet, WorkerClass,
    WorkerClassCatalog,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};

#[path = "common/static_controller.rs"]
mod static_controller;

#[path = "common/scripted_policy.rs"]
mod scripted_policy;

use scripted_policy::ScriptedPolicy;
use static_controller::StaticController;

fn catalog(boot_delay_s: f64) -> WorkerClassCatalog {
    WorkerClassCatalog::single(WorkerClass {
        name: "gpu".to_string(),
        latency_scale: 1.0,
        memory_gb: 40.0,
        price_per_hour: 3.6, // 0.001 $/s: dollars are easy to eyeball
        boot_delay_s,
        spot: false,
    })
}

fn elastic_config(initial: usize, max_fleet: usize, boot_delay_s: f64) -> ElasticSimConfig {
    ElasticSimConfig {
        catalog: catalog(boot_delay_s),
        initial: vec![(0, initial)],
        max_fleet,
        decide_interval_s: 10.0,
        market: None,
    }
}

fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster_size: 4,
        network_delay_ms: 1.0,
        model_swap_ms: 0.0,
        control_interval_s: 5.0,
        metrics_interval_s: 1.0,
        seed,
        initial_demand_hint: Some(40.0),
        drain_s: 10.0,
        ..SimConfig::default()
    }
}

#[test]
fn billing_starts_at_boot_not_at_provisioning() {
    // 20 s of arrivals + 10 s drain = a 30 s run. Two initial workers billed
    // for the whole run; one worker provisioned at the t=10 s tick with a 5 s
    // boot is billed from t=15 s only: 2*30 + 15 = 75 GPU-seconds exactly.
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(20, 40.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 3);
    let mut config = base_config(7);
    config.elastic = Some(elastic_config(2, 8, 5.0));
    let mut policy = ScriptedPolicy {
        script: vec![(10.0, vec![ElasticAction::Provision { class: 0, count: 1 }])],
    };
    let mut sim = Simulation::new(&graph, config, StaticController::tiny(1));
    let result = sim.try_run_elastic(&arrivals, &mut policy).unwrap();
    let cost = result.cost.expect("elastic runs report cost");
    // The run ends at last arrival + drain; the provisioned worker is billed
    // from its boot completion at t=15 s, not from the t=10 s request.
    let end_s = arrivals.last().unwrap() + 10.0;
    let expected = 2.0 * end_s + (end_s - 15.0);
    assert!(
        (cost.total_gpu_seconds - expected).abs() < 1e-3,
        "expected {expected} GPU-seconds (no billing before boot), got {}",
        cost.total_gpu_seconds
    );
    assert!((cost.total_dollars - expected * 0.001).abs() < 1e-6);
    assert_eq!(cost.per_class.len(), 1);
    assert_eq!(cost.per_class[0].provisioned, 1);
    assert_eq!(cost.per_class[0].retired, 0);
    assert_eq!(cost.peak_fleet, 3);
    assert!(cost.served_queries > 0);
    assert!(cost.cost_per_1k_queries > 0.0);
}

#[test]
fn draining_workers_finish_but_never_take_new_work() {
    // Four workers serve comfortably; at t=10 s half the fleet drains. Every
    // request must still be accounted for (conservation), the run must stay
    // healthy on the surviving half, and the retired workers' billing stops
    // at retirement (well before the end of the run).
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(30, 40.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 5);
    let mut config = base_config(11);
    config.elastic = Some(elastic_config(4, 8, 5.0));
    let mut policy = ScriptedPolicy {
        script: vec![(10.0, vec![ElasticAction::Drain { class: 0, count: 2 }])],
    };
    let mut sim = Simulation::new(&graph, config, StaticController::tiny(2));
    let result = sim.try_run_elastic(&arrivals, &mut policy).unwrap();
    let s = &result.summary;
    assert_eq!(
        s.total_on_time + s.total_late + s.total_dropped,
        s.total_arrivals,
        "drains must not lose requests"
    );
    assert!(
        s.total_on_time as f64 / s.total_arrivals as f64 > 0.9,
        "survivors should keep serving: {s:?}"
    );
    let cost = result.cost.expect("cost");
    assert_eq!(cost.per_class[0].retired, 2);
    // Two survivors billed to the end of the run, two drained at ~10 s
    // (in-flight batches add at most milliseconds past the drain request).
    let end_s = arrivals.last().unwrap() + 10.0;
    let expected = 2.0 * end_s + 2.0 * 10.0;
    assert!(
        cost.total_gpu_seconds >= expected && cost.total_gpu_seconds < expected + 1.0,
        "billing must stop at retirement: {} vs {expected}",
        cost.total_gpu_seconds
    );
}

#[test]
fn same_seed_elastic_runs_are_deterministic_and_scaling_changes_execution() {
    let graph = zoo::tiny_pipeline(150.0);
    // The ramp overloads the 2-worker fleet (one worker per task saturates
    // well under 400 QPS on the tiny pipeline), so extra capacity shows.
    let trace = generators::ramp(40, 50.0, 400.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 9);
    let run = |script: Vec<(f64, Vec<ElasticAction>)>| -> RunSummary {
        let mut config = base_config(13);
        config.elastic = Some(elastic_config(2, 6, 3.0));
        let mut policy = ScriptedPolicy { script };
        let mut sim = Simulation::new(&graph, config, StaticController::tiny(2));
        sim.try_run_elastic(&arrivals, &mut policy).unwrap().summary
    };
    let grow = || vec![(10.0, vec![ElasticAction::Provision { class: 0, count: 2 }])];
    let a = run(grow());
    let b = run(grow());
    assert_eq!(a, b, "same-seed elastic runs must be identical");
    let static_fleet = run(vec![]);
    assert_ne!(
        (a.events_processed, a.total_on_time),
        (static_fleet.events_processed, static_fleet.total_on_time),
        "provisioned capacity must change the execution"
    );
    // The ramp overloads two workers; the grown fleet serves strictly more.
    assert!(a.total_on_time > static_fleet.total_on_time);
}

#[test]
fn noop_policy_on_an_elastic_fleet_matches_the_fixed_fleet_run() {
    // Same seed, same 4 workers: the only difference is the billing layer and
    // a reference-class catalog. The execution must be bit-identical; only
    // the cost summary is new.
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(20, 40.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 4);
    let fixed = {
        let mut sim = Simulation::new(&graph, base_config(21), StaticController::tiny(2));
        sim.try_run(&arrivals).unwrap()
    };
    assert!(fixed.cost.is_none(), "fixed fleets have no billing");
    let elastic = {
        let mut config = base_config(21);
        config.elastic = Some(elastic_config(4, 4, 5.0));
        let mut policy = StaticFleet;
        let mut sim = Simulation::new(&graph, config, StaticController::tiny(2));
        sim.try_run_elastic(&arrivals, &mut policy).unwrap()
    };
    assert_eq!(fixed.summary, elastic.summary);
    let cost = elastic.cost.expect("elastic runs report cost");
    // 4 workers for the whole run (last arrival + 10 s drain).
    let expected = 4.0 * (arrivals.last().unwrap() + 10.0);
    assert!((cost.total_gpu_seconds - expected).abs() < 1e-3);
    assert_eq!(cost.per_class[0].provisioned, 0);
    assert_eq!(cost.per_class[0].retired, 0);
}

#[test]
fn provisioning_is_clamped_to_the_fleet_bound() {
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(20, 40.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 6);
    let mut config = base_config(23);
    config.elastic = Some(elastic_config(2, 3, 1.0));
    let mut policy = ScriptedPolicy {
        script: vec![(
            10.0,
            vec![ElasticAction::Provision {
                class: 0,
                count: 50,
            }],
        )],
    };
    let mut sim = Simulation::new(&graph, config, StaticController::tiny(1));
    let result = sim.try_run_elastic(&arrivals, &mut policy).unwrap();
    let cost = result.cost.expect("cost");
    assert_eq!(
        cost.per_class[0].provisioned, 1,
        "a 50-worker ask on a 3-bound fleet of 2 must provision exactly 1"
    );
    assert_eq!(cost.peak_fleet, 3);
}
