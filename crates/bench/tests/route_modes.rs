//! Pins the `route=` axis semantics end-to-end.
//!
//! Two guarantees ride on this file. First, `route=link-aware` must actually
//! *win* on a heterogeneous interconnect: on the two-tier hetnet profile
//! (0.2 ms intra-class hops, 5 ms across the tier boundary) with a tight SLO,
//! keeping chains inside an interconnect class and budgeting the SLO per hop
//! must convert into strictly better SLO attainment than accuracy-only
//! ordering. Second, `route=link-aware` must be a no-op on a homogeneous
//! interconnect: with uniform links the stable candidate sort never reorders
//! anything and the hop budgets collapse to the legacy scalar, so summaries
//! are bit-identical to `route=accuracy` — which is what lets the flag default
//! on without re-pinning any determinism golden.

use loki_bench::scenario::{self, RunPoint};
use loki_bench::LinkProfile;
use loki_sim::RouteMode;

/// A small, deterministic hetnet point: 300 QPS for 30 s on 20 workers striped
/// over the two-tier interconnect, with an SLO tight enough (100 ms) that the
/// ~5 ms-per-hop tier-crossing tax shows up as lateness.
fn hetnet_point(route: RouteMode) -> RunPoint {
    let sc = scenario::find("traffic_hetnet").expect("traffic_hetnet registered");
    let mut cfg = sc.config();
    cfg.cluster_size = 20;
    cfg.duration_s = 30;
    cfg.peak_qps = 300.0;
    cfg.base_qps = 300.0;
    cfg.slo_ms = 100.0;
    cfg.route = route;
    let mut point = scenario::scenario_point(sc, &cfg);
    point.label = format!("hetnet route={}", route.label());
    point
}

#[test]
fn link_aware_routing_beats_accuracy_only_on_the_two_tier_hetnet() {
    let accuracy = hetnet_point(RouteMode::Accuracy)
        .execute()
        .unwrap()
        .result
        .summary;
    let link_aware = hetnet_point(RouteMode::LinkAware)
        .execute()
        .unwrap()
        .result
        .summary;

    assert_eq!(accuracy.total_arrivals, link_aware.total_arrivals);
    assert!(
        accuracy.total_late + accuracy.total_dropped > 0,
        "the pin needs a config where accuracy-only routing actually violates \
         the SLO (got a clean run; tighten the SLO or raise demand)"
    );
    assert!(
        link_aware.total_on_time > accuracy.total_on_time,
        "link-aware must improve SLO attainment on the two-tier interconnect: \
         on_time {} (link-aware) vs {} (accuracy)",
        link_aware.total_on_time,
        accuracy.total_on_time
    );
    assert!(
        link_aware.slo_violation_ratio < accuracy.slo_violation_ratio,
        "link-aware must lower the violation ratio: {} vs {}",
        link_aware.slo_violation_ratio,
        accuracy.slo_violation_ratio
    );
    // The win must come from routing, not from trading accuracy away.
    assert!(link_aware.system_accuracy >= accuracy.system_accuracy - 1e-9);
}

#[test]
fn link_aware_is_bit_identical_to_accuracy_on_uniform_links() {
    let mut a = hetnet_point(RouteMode::Accuracy);
    let mut b = hetnet_point(RouteMode::LinkAware);
    a.cfg.links = LinkProfile::Uniform;
    b.cfg.links = LinkProfile::Uniform;
    let a = a.execute().unwrap().result.summary;
    let b = b.execute().unwrap().result.summary;
    assert_eq!(a, b, "uniform links must make route= a no-op");
}

#[test]
fn hetnet_linkaware_scenario_differs_from_hetnet_only_in_route() {
    let base = scenario::find("traffic_hetnet").unwrap().config();
    let aware = scenario::find("traffic_hetnet_linkaware").unwrap().config();
    assert_eq!(base.route, RouteMode::Accuracy);
    assert_eq!(aware.route, RouteMode::LinkAware);
    let rebased = loki_bench::ExperimentConfig {
        route: RouteMode::Accuracy,
        ..aware
    };
    assert_eq!(rebased, base);
}
