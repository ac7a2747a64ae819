//! The `spot_` scenario family: the elastic diurnal day on an adversarial
//! cloud. Pins the headline the family exists to demonstrate — under nonzero
//! revocations the forecasting provisioner beats the reactive autoscaler on
//! SLO attainment at equal-or-lower cost, and the spot-enabled fleet
//! undercuts the all-on-demand fleet's dollars at comparable attainment —
//! plus the registry entry, config keys, sweep axes, and CSV plumbing.

use loki_bench::report::sweep_csv;
use loki_bench::scenario::{self, scenario_point, PointResult, ScenarioKind};
use loki_bench::{ExperimentConfig, ProvisionerKind};

/// One fleet of the `spot_family` comparison (mirrors the executor's triple).
fn run_fleet(spot: bool, provisioner: ProvisionerKind) -> PointResult {
    let sc = scenario::find("spot_diurnal").expect("registered");
    let base = sc.config();
    let cfg = ExperimentConfig {
        spot,
        provisioner,
        // The on-demand baseline lives on the friendly cloud: no spot classes
        // means no revocations or stockouts to survive.
        revoke_per_hour: if spot { base.revoke_per_hour } else { 0.0 },
        stockout: if spot { base.stockout } else { 0.0 },
        ..base
    };
    scenario_point(sc, &cfg).execute().unwrap()
}

#[test]
fn spot_family_is_registered_with_config_keys_and_axes() {
    let sc = scenario::find("spot_diurnal").expect("registered");
    assert_eq!(sc.kind, ScenarioKind::Spot);
    let cfg = sc.config();
    assert!(cfg.spot);
    assert!(cfg.revoke_per_hour > 0.0);
    assert!(cfg.stockout > 0.0);
    assert_eq!(cfg.provisioner, ProvisionerKind::Forecast);

    // Config keys parse strictly.
    let mut over = ExperimentConfig::default();
    over.apply_overrides([
        "spot=true",
        "revoke=8.5",
        "stockout=0.1",
        "provisioner=forecast",
    ])
    .expect("valid overrides");
    assert!(over.spot);
    assert_eq!(over.revoke_per_hour, 8.5);
    assert_eq!(over.stockout, 0.1);
    assert_eq!(over.provisioner, ProvisionerKind::Forecast);
    assert!(over.set("spot", "maybe").is_err());
    assert!(over.set("revoke", "-1").is_err());
    assert!(over.set("stockout", "1.5").is_err());
    assert!(over.set("provisioner", "oracle").is_err());
    for kind in ProvisionerKind::ALL {
        assert_eq!(ProvisionerKind::from_name(kind.name()), Some(kind));
    }

    // The market sweep axes enumerate with deterministic labels.
    let mut sweep = loki_bench::sweep::Sweep::for_scenario(sc, sc.config());
    assert_eq!(sweep.axis("provisioner"), ["forecast"]);
    sweep.set_axis("revoke", "0,6,12").expect("valid axis");
    sweep
        .set_axis("provisioner", "reactive,forecast")
        .expect("valid axis");
    assert!(sweep.set_axis("revoke", "-2").is_err());
    assert!(sweep.set_axis("stockout", "2").is_err());
    assert!(sweep.set_axis("provisioner", "oracle").is_err());
    assert_eq!(sweep.len(), 6);
    let points = sweep.points();
    assert_eq!(points.len(), 6);
    assert!(points[0].label.contains("revoke=0"));
    assert!(points[0].label.contains("provisioner=reactive"));
    assert!(points[5].label.contains("revoke=12"));
    assert!(points[5].label.contains("provisioner=forecast"));
}

/// The tentpole headline, pinned at the scenario's default configuration.
/// Deterministic per seed, so the comparisons hold exactly — re-examine the
/// provisioner (not just this test) if a change flips them.
#[test]
fn forecast_beats_reactive_and_spot_undercuts_ondemand() {
    let ondemand = run_fleet(false, ProvisionerKind::Reactive);
    let reactive = run_fleet(true, ProvisionerKind::Reactive);
    let forecast = run_fleet(true, ProvisionerKind::Forecast);

    let od_cost = ondemand.cost.as_ref().expect("cost");
    let re_cost = reactive.cost.as_ref().expect("cost");
    let fc_cost = forecast.cost.as_ref().expect("cost");

    // The market actually bites: the spot fleets suffer revocations, and the
    // friendly-cloud baseline never sees one.
    assert!(re_cost.revocations > 0);
    assert!(fc_cost.revocations > 0);
    assert_eq!(od_cost.revocations, 0);
    assert_eq!(od_cost.spot_dollars, 0.0);
    assert!(fc_cost.spot_dollars > 0.0);
    assert!(fc_cost.ondemand_dollars > 0.0);

    // Headline 1: prediction beats reaction under revocations, on attainment
    // AND dollars.
    let re_attain = reactive.result.summary.slo_attainment();
    let fc_attain = forecast.result.summary.slo_attainment();
    assert!(
        fc_attain > re_attain,
        "forecast must beat reactive on SLO attainment under revocations: \
         {fc_attain:.4} vs {re_attain:.4}"
    );
    assert!(
        fc_cost.total_dollars <= re_cost.total_dollars,
        "forecast must cost no more than reactive: {} vs {}",
        fc_cost.total_dollars,
        re_cost.total_dollars
    );

    // Headline 2: the spot fleet undercuts all-on-demand dollars at
    // attainment within one point.
    let od_attain = ondemand.result.summary.slo_attainment();
    assert!(
        fc_cost.total_dollars < 0.6 * od_cost.total_dollars,
        "spot must undercut all-on-demand by >= 40%: {} vs {}",
        fc_cost.total_dollars,
        od_cost.total_dollars
    );
    assert!(
        od_attain - fc_attain <= 0.01,
        "spot attainment must stay within one point of all-on-demand: \
         {fc_attain:.4} vs {od_attain:.4}"
    );
}

#[test]
fn sweep_csv_carries_market_columns() {
    let sc = scenario::find("spot_diurnal").expect("registered");
    // A small fast grid: short run, both provisioners.
    let mut cfg = sc.config();
    cfg.apply_overrides(["duration=60", "peak=300", "cluster=6"])
        .expect("valid overrides");
    let mut sweep = loki_bench::sweep::Sweep::for_scenario(sc, cfg);
    sweep
        .set_axis("provisioner", "reactive,forecast")
        .expect("valid axis");
    let points: Vec<_> = sweep
        .points()
        .into_iter()
        .map(|p| scenario_point(sc, &p.cfg))
        .collect();
    let results: Vec<_> = points.iter().map(|p| p.execute().unwrap()).collect();
    let csv = sweep_csv(sc.name, &points, &results);
    let header = csv.lines().next().expect("header");
    for column in [
        "spot",
        "revoke",
        "stockout",
        "provisioner",
        "revocations",
        "stockouts",
        "spot_usd",
        "ondemand_usd",
    ] {
        assert!(header.contains(column), "missing CSV column {column}");
    }
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), 2);
    assert!(rows[0].contains("reactive"));
    assert!(rows[1].contains("forecast"));
    // Every row is fully populated (same field count as the header).
    let fields = header.split(',').count();
    for row in rows {
        assert_eq!(row.split(',').count(), fields, "ragged CSV row: {row}");
    }
}
