//! Same-seed determinism and semantic-stability guards for the simulator.
//!
//! Two layers of protection:
//!
//! 1. `same_seed_runs_are_identical`: two runs of the full Loki controller with
//!    the same seed must produce bit-identical `RunSummary`s. This is the
//!    invariant every figure in the paper reproduction rests on.
//! 2. `golden_summary_is_stable`: a pinned snapshot of one run's summary. Any
//!    engine change that alters simulation behaviour (event ordering, RNG draw
//!    sequence, routing semantics) trips this test and must justify updating
//!    the constants. The slab-arena/alias-table rewrite of the event core was
//!    validated against the seed engine on these same scenarios (on-time /
//!    late / dropped within 0.1%, identical accuracy) before this snapshot was
//!    taken. `golden_hetnet_trace_is_stable` pins the order in which every
//!    root's spans are recorded, which a change to delivery order moves even
//!    when the totals happen to agree.

use loki_core::{LokiConfig, LokiController};
use loki_pipeline::zoo;
use loki_sim::{LinkDelayModel, ObserveConfig, RunSummary, SimConfig, SimResult, Simulation};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};

fn run_observed(seed: u64, link_delays: LinkDelayModel, observe: ObserveConfig) -> SimResult {
    let graph = zoo::traffic_analysis_pipeline(250.0);
    let trace = generators::constant(30, 300.0);
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 11);
    let mut loki_config = LokiConfig::with_greedy();
    loki_config.link_delays = link_delays.clone();
    let controller = LokiController::new(graph.clone(), loki_config);
    let config = SimConfig {
        cluster_size: 20,
        initial_demand_hint: Some(300.0),
        drain_s: 10.0,
        seed,
        link_delays,
        observe,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(&graph, config, controller);
    sim.run(&arrivals)
}

fn run_with_links(seed: u64, link_delays: LinkDelayModel) -> RunSummary {
    run_observed(seed, link_delays, ObserveConfig::default()).summary
}

fn run_once(seed: u64) -> RunSummary {
    run_with_links(seed, LinkDelayModel::Uniform)
}

/// The two-tier interconnect of the `traffic_hetnet` scenario: PCIe-fast
/// intra-class hops, 5 ms cross-class hops, workers striped over two classes.
fn two_tier() -> LinkDelayModel {
    LinkDelayModel::PerWorkerClass {
        classes: 2,
        delay_ms: vec![0.2, 5.0, 5.0, 0.2],
        frontend_ms: vec![2.0, 2.0],
    }
}

#[test]
fn same_seed_runs_are_identical() {
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a, b, "same-seed runs must produce identical summaries");
}

#[test]
fn different_seeds_diverge() {
    let a = run_once(42);
    let b = run_once(43);
    // Stochastic routing/fan-out must actually depend on the seed.
    assert_ne!(
        (a.events_processed, a.total_on_time, a.total_late),
        (b.events_processed, b.total_on_time, b.total_late)
    );
}

#[test]
fn golden_summary_is_stable() {
    let s = run_once(42);
    println!("golden candidate: {s:?}");
    assert_eq!(s.total_arrivals, 8981);
    assert_eq!(s.total_on_time, GOLDEN_ON_TIME);
    assert_eq!(s.total_late, GOLDEN_LATE);
    assert_eq!(s.total_dropped, GOLDEN_DROPPED);
    assert_eq!(s.events_processed, GOLDEN_EVENTS);
    assert!((s.system_accuracy - GOLDEN_ACCURACY).abs() < 1e-12);
}

// Golden values pinned after the routing-cache change (PR 2): the Load Balancer now
// keeps its tables when the demand estimate moves less than the 2% deadband and
// worker assignments are unchanged, so table refreshes (and the RNG draws behind
// re-sampled routing) land on slightly different ticks than in PR 1. Validated
// against the PR-1 goldens on this scenario: on-time within 0.2% (8976 vs 8961),
// identical accuracy, late+dropped down from 20 to 5.
//
// The calendar-queue scheduler (PR 3) reproduced these constants bit-for-bit —
// under the uniform link-delay model its pop order is provably identical to the
// heap+FIFO merge it replaced, so no re-pin was needed.
const GOLDEN_ON_TIME: u64 = 8976;
const GOLDEN_LATE: u64 = 3;
const GOLDEN_DROPPED: u64 = 2;
const GOLDEN_EVENTS: u64 = 51628;
const GOLDEN_ACCURACY: f64 = 1.0;

#[test]
fn same_seed_hetnet_runs_are_identical() {
    let a = run_with_links(42, two_tier());
    let b = run_with_links(42, two_tier());
    assert_eq!(
        a, b,
        "same-seed hetnet runs must produce identical summaries"
    );
}

#[test]
fn heterogeneous_delays_change_the_schedule() {
    // Per-link delays must demonstrably reorder deliveries relative to the
    // single-constant model: the same seed and arrivals produce a different
    // event schedule (and thus different totals) under the two-tier model.
    let uniform = run_once(42);
    let hetnet = run_with_links(42, two_tier());
    assert_eq!(uniform.total_arrivals, hetnet.total_arrivals);
    assert_ne!(
        (
            uniform.total_on_time,
            uniform.total_late,
            uniform.events_processed
        ),
        (
            hetnet.total_on_time,
            hetnet.total_late,
            hetnet.events_processed
        ),
        "two-tier links must change the delivery schedule"
    );
}

#[test]
fn golden_hetnet_summary_is_stable() {
    let s = run_with_links(42, two_tier());
    println!("hetnet golden candidate: {s:?}");
    assert_eq!(s.total_arrivals, 8981);
    assert_eq!(s.total_on_time, GOLDEN_HETNET_ON_TIME);
    assert_eq!(s.total_late, GOLDEN_HETNET_LATE);
    assert_eq!(s.total_dropped, GOLDEN_HETNET_DROPPED);
    assert_eq!(s.events_processed, GOLDEN_HETNET_EVENTS);
    assert!((s.system_accuracy - GOLDEN_HETNET_ACCURACY).abs() < 1e-12);
}

// Golden values for the heterogeneous two-tier interconnect (pinned with the
// calendar-queue scheduler that makes per-link delays possible, PR 3). Same
// workload as the uniform golden above; the slower cross-class hops shift
// batch formation and routing draws, hence the different totals.
const GOLDEN_HETNET_ON_TIME: u64 = 8975;
const GOLDEN_HETNET_LATE: u64 = 4;
const GOLDEN_HETNET_DROPPED: u64 = 2;
const GOLDEN_HETNET_EVENTS: u64 = 51638;
const GOLDEN_HETNET_ACCURACY: f64 = 1.0;

/// FNV-1a (64 bit) over a stream of `u64` words, little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn golden_hetnet_trace_is_stable() {
    // The two-tier workload above with every root traced. On two-tier links
    // one batch's children go out at two delivery times (a fast intra-class
    // hop and a slow cross-class one), so this pins the order in which the
    // engine delivers them: every span of every root, in recording order.
    let observe = ObserveConfig {
        trace_sample: 1,
        ..ObserveConfig::default()
    };
    let result = run_observed(42, two_tier(), observe);
    assert_eq!(result.summary.events_processed, GOLDEN_HETNET_EVENTS);
    let log = result.trace.expect("tracing is on");
    assert_eq!(log.roots.len(), 8981, "every root is sampled");
    let digest = fnv1a(log.roots.iter().flat_map(|root| {
        let head = [
            root.lane as u64,
            root.arrival_index,
            root.arrival_us,
            root.end_us,
            root.dropped as u64,
            root.spans.len() as u64,
        ];
        let spans = root.spans.iter().flat_map(|s| {
            [
                s.kind as u64,
                s.start_us,
                s.end_us,
                s.task as u64,
                s.worker as u64,
            ]
        });
        head.into_iter().chain(spans)
    }));
    println!(
        "hetnet trace golden candidate: spans {} digest {digest:#018x}",
        log.num_spans()
    );
    assert_eq!(log.num_spans(), GOLDEN_HETNET_SPANS);
    assert_eq!(digest, GOLDEN_HETNET_TRACE_DIGEST);
}

// Pinned before deliveries of one handler were grouped into one calendar
// entry, which must leave every span where it was.
const GOLDEN_HETNET_SPANS: usize = 85_541;
const GOLDEN_HETNET_TRACE_DIGEST: u64 = 0xe4ea_2d5e_badd_72f3;
