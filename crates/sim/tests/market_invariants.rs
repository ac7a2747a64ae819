//! Adversarial-market invariants of the engine:
//!
//! * billing stops exactly at the revocation instant, not at the end of the
//!   forced-drain grace period (pinned to the microsecond with a
//!   probability-1 revocation);
//! * lost in-flight batches are re-queued, never dropped on the floor —
//!   request accounting is conserved through arbitrary revocation storms;
//! * forced drains are invisible to the policy's `draining` observation (the
//!   autoscaler's voluntary-drain hysteresis must not count the market's
//!   victims), while the cumulative revocation counter is visible;
//! * a market whose rates are all zero is bit-identical to no market at all;
//! * `WorkerClass::memory_gb` is documented vacuous — two catalogs differing
//!   only in memory run bit-identically.

use loki_pipeline::{zoo, VariantId};
use loki_sim::{
    AllocationPlan, CompiledPlan, Controller, DropPolicy, ElasticAction, ElasticObservation,
    ElasticPolicy, ElasticSimConfig, InstanceSpec, MarketConfig, ObservedState, RoutingPlan,
    SimConfig, Simulation, WorkerClass, WorkerClassCatalog,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};
use std::collections::HashMap;

/// A fixed controller (static allocation, uniform routing) so the tests
/// exercise the market mechanics without control-plane intelligence.
struct StaticController {
    plan: AllocationPlan,
}

impl StaticController {
    fn tiny(replicas_a: usize, replicas_b: usize) -> Self {
        Self {
            plan: AllocationPlan {
                instances: vec![
                    InstanceSpec {
                        variant: VariantId::new(0, 1),
                        max_batch: 4,
                        count: replicas_a,
                    },
                    InstanceSpec {
                        variant: VariantId::new(1, 1),
                        max_batch: 4,
                        count: replicas_b,
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

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        let _ = observed;
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

/// A policy that replays a fixed script of `(tick_time_s, actions)` entries.
struct ScriptedPolicy {
    script: Vec<(f64, Vec<ElasticAction>)>,
}

impl ElasticPolicy for ScriptedPolicy {
    fn name(&self) -> &str {
        "scripted"
    }

    fn decide(&mut self, observation: &ElasticObservation<'_>) -> Vec<ElasticAction> {
        let mut out = Vec::new();
        self.script.retain(|(when, actions)| {
            if *when <= observation.now_s {
                out.extend(actions.iter().copied());
                false
            } else {
                true
            }
        });
        out
    }
}

/// On-demand reference class plus a spot twin, `0.001 $/s` each so billed
/// dollars are easy to eyeball.
fn spot_catalog(memory_gb: f64) -> WorkerClassCatalog {
    WorkerClassCatalog {
        classes: vec![
            WorkerClass {
                name: "gpu".to_string(),
                latency_scale: 1.0,
                memory_gb,
                price_per_hour: 3.6,
                boot_delay_s: 5.0,
                spot: false,
            },
            WorkerClass {
                name: "gpu-spot".to_string(),
                latency_scale: 1.0,
                memory_gb,
                price_per_hour: 3.6,
                boot_delay_s: 5.0,
                spot: true,
            },
        ],
    }
}

/// A market that revokes every warm spot worker at the first tick: rate 720/h
/// over a 5 s check interval puts the per-worker revocation probability at
/// exactly 1.
fn shredder(deadline_s: f64) -> MarketConfig {
    MarketConfig {
        revocation_rate_per_hour: 720.0,
        revocation_deadline_s: deadline_s,
        check_interval_s: 5.0,
        ..MarketConfig::default()
    }
}

fn elastic_config(
    initial: Vec<(usize, usize)>,
    max_fleet: usize,
    market: Option<MarketConfig>,
) -> ElasticSimConfig {
    ElasticSimConfig {
        catalog: spot_catalog(40.0),
        initial,
        max_fleet,
        decide_interval_s: 10.0,
        market,
    }
}

fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster_size: 8,
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
fn billing_stops_exactly_at_revocation() {
    // Two on-demand workers and one spot worker; the probability-1 market
    // revokes the spot worker at the first tick, t=5 s exactly. Its billed
    // span is 5 GPU-seconds to the microsecond even though the forced drain
    // grants a 2 s grace period — billing stops when the provider pulls the
    // lease, not when the victim finishes dying.
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(20, 40.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 3);
    let mut config = base_config(7);
    config.elastic = Some(elastic_config(vec![(0, 2), (1, 1)], 8, Some(shredder(2.0))));
    let mut policy = ScriptedPolicy { script: vec![] };
    let mut sim = Simulation::new(&graph, config, StaticController::tiny(1, 1));
    let result = sim.run_elastic(&arrivals, &mut policy);
    let cost = result.cost.expect("elastic runs report cost");
    let spot = cost.per_class.iter().find(|c| c.spot).expect("spot class");
    assert_eq!(spot.revocations, 1);
    assert_eq!(spot.retired, 1);
    assert!(
        (spot.gpu_seconds - 5.0).abs() < 1e-6,
        "spot billing must stop at the t=5 s revocation, got {} GPU-seconds",
        spot.gpu_seconds
    );
    // The on-demand pair is never revoked and bills to the end of the run.
    let od = cost.per_class.iter().find(|c| !c.spot).expect("od class");
    assert_eq!(od.revocations, 0);
    let end_s = arrivals.last().unwrap() + 10.0;
    assert!((od.gpu_seconds - 2.0 * end_s).abs() < 1e-3);
    assert_eq!(cost.revocations, 1);
}

#[test]
fn lost_batches_requeue_and_conserve_queries() {
    // Four spot workers under heavy load are all revoked at t=5 s with a
    // near-zero deadline, so in-flight batches are aborted and re-queued at
    // the lane head. Nothing may fall on the floor: every arrival is still
    // on-time, late, or dropped, and the surviving on-demand pair serves the
    // rest of the run.
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(30, 300.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 5);
    let run = || {
        let mut config = base_config(11);
        config.elastic = Some(elastic_config(
            vec![(0, 2), (1, 4)],
            8,
            Some(shredder(0.001)),
        ));
        let mut policy = ScriptedPolicy { script: vec![] };
        let mut sim = Simulation::new(&graph, config, StaticController::tiny(3, 3));
        sim.run_elastic(&arrivals, &mut policy)
    };
    let result = run();
    let s = &result.summary;
    assert_eq!(
        s.total_on_time + s.total_late + s.total_dropped,
        s.total_arrivals,
        "revocation storms must not lose requests: {s:?}"
    );
    let cost = result.cost.expect("cost");
    assert_eq!(cost.revocations, 4, "all four spot workers revoked");
    assert!(
        s.total_on_time > 0,
        "the surviving on-demand pair must keep serving"
    );
    // Same-seed runs through the storm are bit-identical.
    assert_eq!(result.summary, run().summary);
}

#[test]
fn forced_drains_are_invisible_to_the_policy() {
    // The autoscaler's voluntary-drain hysteresis keys off
    // `ElasticObservation::draining`; the market's forced drains must never
    // appear there (the policy did not choose them), while the cumulative
    // revocation counter must be visible so policies can price the market.
    struct Probe {
        max_draining_seen: usize,
        revocations_seen: u64,
    }
    impl ElasticPolicy for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn decide(&mut self, observation: &ElasticObservation<'_>) -> Vec<ElasticAction> {
            let draining: usize = observation.draining.iter().sum();
            self.max_draining_seen = self.max_draining_seen.max(draining);
            self.revocations_seen = self.revocations_seen.max(observation.revocations);
            Vec::new()
        }
    }
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(30, 40.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 9);
    let mut config = base_config(13);
    let mut elastic = elastic_config(vec![(0, 2), (1, 3)], 8, Some(shredder(2.0)));
    // Tick every second so the 2 s forced-drain window cannot slip between
    // policy observations.
    elastic.decide_interval_s = 1.0;
    config.elastic = Some(elastic);
    let mut policy = Probe {
        max_draining_seen: 0,
        revocations_seen: 0,
    };
    let mut sim = Simulation::new(&graph, config, StaticController::tiny(2, 2));
    let result = sim.run_elastic(&arrivals, &mut policy);
    assert_eq!(result.cost.expect("cost").revocations, 3);
    assert_eq!(
        policy.max_draining_seen, 0,
        "forced drains must not leak into the voluntary-drain observation"
    );
    assert_eq!(
        policy.revocations_seen, 3,
        "the cumulative revocation counter must be observable"
    );
}

#[test]
fn zero_rate_market_is_bit_identical_to_no_market() {
    // A market with zero revocation rate, zero stockout probability, and an
    // empty price schedule draws no randomness and schedules no events: the
    // run must be bit-identical to the PR 5 friendly cloud (`market: None`),
    // including billing.
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(25, 60.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 17);
    let run = |market: Option<MarketConfig>| {
        let mut config = base_config(21);
        config.elastic = Some(elastic_config(vec![(0, 2), (1, 2)], 8, market));
        // Exercise the scaling paths too: a mid-run provision and drain.
        let mut policy = ScriptedPolicy {
            script: vec![
                (8.0, vec![ElasticAction::Provision { class: 1, count: 2 }]),
                (18.0, vec![ElasticAction::Drain { class: 1, count: 1 }]),
            ],
        };
        let mut sim = Simulation::new(&graph, config, StaticController::tiny(2, 2));
        sim.run_elastic(&arrivals, &mut policy)
    };
    let friendly = run(None);
    let zeroed = run(Some(MarketConfig::default()));
    assert_eq!(friendly.summary, zeroed.summary);
    let (a, b) = (friendly.cost.expect("cost"), zeroed.cost.expect("cost"));
    assert_eq!(a.total_gpu_seconds, b.total_gpu_seconds);
    assert_eq!(a.total_dollars, b.total_dollars);
    assert_eq!(b.revocations, 0);
    assert_eq!(b.stockouts, 0);
}

#[test]
fn memory_capacity_is_vacuous() {
    // `WorkerClass::memory_gb` is documented as carrying no behavior (no
    // variant has a memory footprint yet): two catalogs differing only in
    // memory must run bit-identically, billing included. If this test ever
    // fails, memory grew semantics — update the field's documentation and
    // the capacity model together.
    let graph = zoo::tiny_pipeline(200.0);
    let trace = generators::constant(20, 50.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 29);
    let run = |memory_gb: f64| {
        let mut config = base_config(31);
        config.elastic = Some(ElasticSimConfig {
            catalog: spot_catalog(memory_gb),
            initial: vec![(0, 2), (1, 2)],
            max_fleet: 8,
            decide_interval_s: 10.0,
            market: Some(shredder(2.0)),
        });
        let mut policy = ScriptedPolicy { script: vec![] };
        let mut sim = Simulation::new(&graph, config, StaticController::tiny(2, 2));
        sim.run_elastic(&arrivals, &mut policy)
    };
    let small = run(16.0);
    let huge = run(4096.0);
    assert_eq!(small.summary, huge.summary);
    assert_eq!(
        small.cost.expect("cost").total_gpu_seconds,
        huge.cost.expect("cost").total_gpu_seconds
    );
}
