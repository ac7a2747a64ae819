//! The `multi_` scenario family: acceptance and determinism guards.
//!
//! * `contended_beats_static_even_split`: the headline acceptance property —
//!   under the skewed traffic+social mix, the contended Resource Manager must
//!   beat a naive 50/50 split on aggregate SLO attainment.
//! * `multi_traffic_social_golden`: a pinned same-seed snapshot of the
//!   flagship scenario (scaled down), per pipeline. Any engine or arbiter
//!   change that alters multi-pipeline behaviour trips this and must justify
//!   re-pinning.
//! * Registry/report plumbing: per-pipeline rows in sweep CSV and the JSON
//!   report path.

use loki_bench::report::sweep_csv;
use loki_bench::scenario::{self, scenario_point, LaneSet, MultiMode, ScenarioKind};
use loki_bench::ExperimentConfig;

/// The registry-default skewed-demand config. The full 300 s matters: the
/// compressed diurnal ramp is steep, and shorter runs turn control-plane lag
/// into the dominant effect for *both* arbiters.
fn short_cfg(sc: &scenario::Scenario) -> ExperimentConfig {
    sc.config()
}

#[test]
fn multi_family_is_registered_with_modes() {
    for (name, mode) in [
        ("multi_traffic_social", MultiMode::Contended),
        ("multi_static_split", MultiMode::StaticEven),
        ("multi_oracle_split", MultiMode::OracleSplit),
    ] {
        let sc = scenario::find(name).unwrap_or_else(|| panic!("{name} missing from registry"));
        assert_eq!(
            sc.kind,
            ScenarioKind::MultiPipeline(mode, LaneSet::TrafficSocial)
        );
        let spec = sc.multi_spec().expect("multi scenarios carry a spec");
        assert_eq!(spec.mode, mode);
        assert_eq!(spec.lanes.len(), 2);
        assert_eq!(spec.lanes[0].name, "traffic");
        assert_eq!(spec.lanes[1].name, "social");
    }
    // Single-pipeline scenarios carry none.
    assert!(scenario::find("fig5_traffic")
        .unwrap()
        .multi_spec()
        .is_none());
}

#[test]
fn zipf_scenario_registers_sixteen_lanes_with_zipf_demand() {
    let sc = scenario::find("multi_zipf_16").expect("multi_zipf_16 registered");
    assert_eq!(
        sc.kind,
        ScenarioKind::MultiPipeline(MultiMode::Contended, LaneSet::Zipf16)
    );
    let spec = sc.multi_spec().expect("zipf scenario carries a spec");
    assert_eq!(spec.lanes.len(), 16);
    // Zipf demand shares: strictly decreasing by rank, normalised to 1.
    let shares: Vec<f64> = spec.lanes.iter().map(|l| l.demand_share).collect();
    for pair in shares.windows(2) {
        assert!(
            pair[0] > pair[1],
            "shares must decrease by rank: {shares:?}"
        );
    }
    let total: f64 = shares.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "shares sum to 1, got {total}");
    // Lane names are unique (they key per-pipeline report rows).
    let mut names: Vec<&str> = spec.lanes.iter().map(|l| l.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 16);
}

#[test]
fn contended_beats_static_even_split_on_aggregate_slo_attainment() {
    let contended_sc = scenario::find("multi_traffic_social").unwrap();
    let static_sc = scenario::find("multi_static_split").unwrap();
    let contended = scenario_point(contended_sc, &short_cfg(contended_sc)).execute();
    let static_even = scenario_point(static_sc, &short_cfg(static_sc)).execute();

    let contended_attain = contended.result.summary.slo_attainment();
    let static_attain = static_even.result.summary.slo_attainment();
    assert!(
        contended_attain > static_attain,
        "contended Resource Manager ({contended_attain:.4}) must beat the naive 50/50 \
         split ({static_attain:.4}) on aggregate SLO attainment under skewed demand"
    );
    // The skew is the mechanism: the static split pins traffic to half the
    // cluster, which cannot serve the 1600 QPS peak even at minimum accuracy.
    let static_traffic = &static_even.per_pipeline[0];
    assert_eq!(static_traffic.name, "traffic");
    assert!(
        static_traffic.summary.slo_attainment() < 0.8,
        "the 50/50 split should starve traffic at peak, got {:?}",
        static_traffic.summary
    );
    let contended_traffic = &contended.per_pipeline[0];
    assert!(
        contended_traffic.summary.slo_attainment() > 0.85,
        "the contended manager should serve traffic, got {:?}",
        contended_traffic.summary
    );
    // Both runs served both pipelines' arrival streams.
    for point in [&contended, &static_even] {
        assert_eq!(point.per_pipeline.len(), 2);
        let stats = point.multi_stats.as_ref().expect("multi stats");
        assert!(!stats.arbiter.is_empty());
        for lane in &point.per_pipeline {
            assert!(lane.summary.total_arrivals > 0, "{} idle", lane.name);
        }
    }
}

#[test]
fn multi_traffic_social_golden() {
    let sc = scenario::find("multi_traffic_social").unwrap();
    let point = scenario_point(sc, &short_cfg(sc)).execute();
    let traffic = &point.per_pipeline[0].summary;
    let social = &point.per_pipeline[1].summary;
    println!("golden candidate traffic: {traffic:?}");
    println!("golden candidate social:  {social:?}");
    println!(
        "golden candidate stats: {:?} total_events {}",
        point.multi_stats, point.result.summary.events_processed
    );
    assert_eq!(traffic.total_arrivals, GOLDEN_TRAFFIC_ARRIVALS);
    assert_eq!(traffic.total_on_time, GOLDEN_TRAFFIC_ON_TIME);
    assert_eq!(traffic.total_late, GOLDEN_TRAFFIC_LATE);
    assert_eq!(traffic.total_dropped, GOLDEN_TRAFFIC_DROPPED);
    assert_eq!(traffic.events_processed, GOLDEN_TRAFFIC_EVENTS);
    assert_eq!(social.total_arrivals, GOLDEN_SOCIAL_ARRIVALS);
    assert_eq!(social.total_on_time, GOLDEN_SOCIAL_ON_TIME);
    assert_eq!(social.total_late, GOLDEN_SOCIAL_LATE);
    assert_eq!(social.total_dropped, GOLDEN_SOCIAL_DROPPED);
    assert_eq!(social.events_processed, GOLDEN_SOCIAL_EVENTS);
}

// Golden values pinned when the multi-pipeline subsystem landed: the flagship
// contended scenario at its registry-default config (300 s, seed 42). The
// per-lane event counts exclude cluster-level rebalance ticks by design.
const GOLDEN_TRAFFIC_ARRIVALS: u64 = 271_526;
const GOLDEN_TRAFFIC_ON_TIME: u64 = 243_175;
const GOLDEN_TRAFFIC_LATE: u64 = 7_436;
const GOLDEN_TRAFFIC_DROPPED: u64 = 20_915;
const GOLDEN_TRAFFIC_EVENTS: u64 = 1_285_499;
const GOLDEN_SOCIAL_ARRIVALS: u64 = 19_949;
const GOLDEN_SOCIAL_ON_TIME: u64 = 18_586;
const GOLDEN_SOCIAL_LATE: u64 = 684;
const GOLDEN_SOCIAL_DROPPED: u64 = 679;
const GOLDEN_SOCIAL_EVENTS: u64 = 92_874;

#[test]
fn sweep_csv_emits_per_pipeline_rows_for_multi_points() {
    let sc = scenario::find("multi_traffic_social").unwrap();
    let mut cfg = short_cfg(sc);
    cfg.duration_s = 20;
    cfg.drain_s = 5.0;
    cfg.peak_qps = 300.0;
    cfg.base_qps = 100.0;
    let points = vec![scenario_point(sc, &cfg)];
    let results: Vec<_> = points.iter().map(|p| p.execute()).collect();
    let csv = sweep_csv(sc.name, &points, &results);
    let lines: Vec<&str> = csv.lines().collect();
    // header + point + one row per pipeline
    assert_eq!(lines.len(), 4, "{csv}");
    let columns = lines[0].split(',').count();
    for line in &lines {
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
    }
    assert!(lines[1].contains(",point,"));
    assert!(lines[2].contains(",pipeline,") && lines[2].contains("/traffic,"));
    assert!(lines[3].contains(",pipeline,") && lines[3].contains("/social,"));
}
