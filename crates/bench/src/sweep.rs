//! Declarative sweep grids over scenario axes.
//!
//! A [`Sweep`] takes a base scenario configuration, the scenario kind's
//! labelled point set, a controller list and a value list per config axis
//! ([`Sweep::AXES`]: SLO, … , seed) and enumerates their cartesian product as
//! [`RunPoint`]s in a fixed nesting order — point set outermost, then the
//! controller, then the axes, seed innermost — so grid enumeration is
//! deterministic and parallel execution (which preserves input order) reports
//! points exactly where a serial loop would. Axis values are config values:
//! each is checked, stored and applied through [`ExperimentConfig::set`], and
//! read back through [`ExperimentConfig::get`] for labels and reports.

use crate::figures::{family, PointSet};
use crate::report::Json;
use crate::scenario::{ControllerSpec, PipelineSpec, RunPoint, Scenario};
use crate::ExperimentConfig;
use loki_sim::DropPolicy;
use loki_workload::TraceSpec;

/// One named point of a kind's point set: the settings it applies on top of
/// each grid point it is crossed with.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Variant {
    pub(crate) label: String,
    /// Space-separated `key=value` settings, as on the command line:
    /// `controllers=` picks the controller, every other key goes through
    /// [`ExperimentConfig::set`].
    pub(crate) settings: String,
    /// Override of the controller's runtime drop policy.
    pub(crate) drop_policy: Option<DropPolicy>,
    /// Override of the scenario's pipeline and trace.
    pub(crate) workload: Option<(PipelineSpec, TraceSpec)>,
}

impl Variant {
    /// A variant that applies `settings` and nothing else.
    pub(crate) fn new(label: &str, settings: &str) -> Self {
        Self {
            label: label.to_string(),
            settings: settings.to_string(),
            drop_policy: None,
            workload: None,
        }
    }

    /// The setting keys this variant varies.
    fn keys(&self) -> impl Iterator<Item = &str> {
        self.settings
            .split_whitespace()
            .filter_map(|kv| kv.split('=').next())
    }

    fn apply(&self, point: &mut RunPoint) {
        for setting in self.settings.split_whitespace() {
            let (key, value) = setting.split_once('=').expect("settings are key=value");
            if key == "controllers" {
                point.controller =
                    ControllerSpec::from_name(value).expect("a registered controller");
            } else {
                point
                    .cfg
                    .set(key, value)
                    .expect("variant settings are valid");
            }
        }
        point.drop_policy = self.drop_policy.or(point.drop_policy);
        if let Some((pipeline, trace)) = self.workload {
            point.pipeline = pipeline;
            point.trace = trace;
        }
    }
}

/// A grid of experiment points over a base configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    pub base: RunPoint,
    pub controllers: Vec<ControllerSpec>,
    /// One value list per [`Sweep::AXES`] key, in that order. Each value is
    /// the display form [`ExperimentConfig::get`] prints.
    axes: Vec<(&'static str, Vec<String>)>,
    /// The kind's named points, crossed with everything else; empty for a
    /// kind without them, or once an axis over a setting they vary replaced
    /// them.
    variants: Vec<Variant>,
}

impl Sweep {
    /// The config keys a sweep can vary, in grid nesting order (after the
    /// controller, which is outermost). `jobs` is not one: it changes no
    /// simulated output, so a sweep over it would repeat one row.
    pub const AXES: [&'static str; 11] = [
        "slo",
        "peak",
        "cluster",
        "links",
        "route",
        "elastic",
        "spot",
        "revoke",
        "stockout",
        "provisioner",
        "seed",
    ];

    /// True when `key` names a sweep axis: `controllers` (or its alias
    /// `controller`) or one of [`Sweep::AXES`].
    pub fn is_axis(key: &str) -> bool {
        matches!(key, "controllers" | "controller") || Self::AXES.contains(&key)
    }

    /// The scenario kind's default sweep: its labelled point set, every axis a
    /// singleton taken from `cfg`. `points()` returns exactly the points
    /// `loki run` executes until axes are set.
    pub fn for_scenario(scenario: &Scenario, cfg: ExperimentConfig) -> Self {
        let axes = Self::AXES
            .iter()
            .map(|&key| (key, vec![config_value(&cfg, key)]))
            .collect();
        let mut sweep = Self {
            base: crate::scenario::scenario_point(scenario, &cfg),
            controllers: vec![ControllerSpec::LokiGreedy],
            axes,
            variants: Vec::new(),
        };
        match family(scenario.kind).points {
            PointSet::Canonical => {}
            PointSet::Axis(axis, values) => sweep
                .set_axis(axis, values)
                .expect("a point-set axis is valid"),
            PointSet::Named(variants) => sweep.variants = variants(),
        }
        sweep
    }

    /// Set an axis from a comma-separated value list (CLI surface). Unknown axes and
    /// unparsable values are hard errors, never silently ignored: each value
    /// must pass [`ExperimentConfig::set`]. An axis over a setting the kind's
    /// named points vary replaces them.
    pub fn set_axis(&mut self, axis: &str, values: &str) -> Result<(), String> {
        let values = values.split(',').map(str::trim);
        let setting = if let Some((key, list)) = self.axes.iter_mut().find(|(key, _)| *key == axis)
        {
            let mut cfg = self.base.cfg.clone();
            *list = values
                .map(|v| {
                    cfg.set(key, v)?;
                    Ok(config_value(&cfg, key))
                })
                .collect::<Result<_, String>>()?;
            *key
        } else if Self::is_axis(axis) {
            let known = ControllerSpec::ALL.map(|c| c.name()).join(", ");
            self.controllers = values
                .map(|v| {
                    ControllerSpec::from_name(v).ok_or_else(|| {
                        format!("invalid value for controllers: {v:?} (known: {known})")
                    })
                })
                .collect::<Result<_, _>>()?;
            "controllers"
        } else {
            return Err(format!(
                "unknown sweep axis {axis:?} (axes: controllers, {})",
                Self::AXES.join(", ")
            ));
        };
        if self
            .variants
            .iter()
            .any(|v| v.keys().any(|key| key == setting))
        {
            self.variants.clear();
        }
        Ok(())
    }

    /// The values of one axis, in the display form [`ExperimentConfig::get`]
    /// prints. Panics on a name outside [`Sweep::AXES`].
    pub fn axis(&self, axis: &str) -> &[String] {
        match self.axes.iter().find(|(key, _)| *key == axis) {
            Some((_, values)) => values,
            None => panic!("unknown sweep axis {axis:?}"),
        }
    }

    /// The grid's axes as JSON (`loki list --json`): `controllers`, then each
    /// of [`Sweep::AXES`] with its values as typed config values.
    pub fn axes_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push(
            "controllers",
            Json::Arr(self.controllers.iter().map(|c| c.name().into()).collect()),
        );
        for (key, values) in &self.axes {
            let mut cfg = self.base.cfg.clone();
            let typed = values.iter().map(|v| {
                cfg.set(key, v).expect("axis values pass `set`");
                cfg.get(key).expect("every axis is a config key").into()
            });
            obj.push(key, Json::Arr(typed.collect()));
        }
        obj
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.variants.len().max(1)
            * self.controllers.len()
            * self.axes.iter().map(|(_, v)| v.len()).product::<usize>()
    }

    /// True when the grid is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate the grid in its fixed nesting order: the named points
    /// outermost, then the controller, then each axis in [`Sweep::AXES`]
    /// order, seed innermost.
    pub fn points(&self) -> Vec<RunPoint> {
        let variants: Vec<Option<&Variant>> = if self.variants.is_empty() {
            vec![None]
        } else {
            self.variants.iter().map(Some).collect()
        };
        let mut grid: Vec<(Option<&Variant>, ControllerSpec, ExperimentConfig)> = variants
            .iter()
            .flat_map(|&v| {
                self.controllers
                    .iter()
                    .map(move |&c| (v, c, self.base.cfg.clone()))
            })
            .collect();
        // Replace every grid point by one point per value of the next axis.
        for (key, values) in &self.axes {
            grid = grid
                .into_iter()
                .flat_map(|(variant, controller, cfg)| {
                    values.iter().map(move |v| {
                        let mut cfg = cfg.clone();
                        cfg.set(key, v).expect("axis values pass `set`");
                        (variant, controller, cfg)
                    })
                })
                .collect();
        }
        grid.into_iter()
            .map(|(variant, controller, cfg)| {
                let mut point = RunPoint {
                    label: self.label(variant, controller, &cfg),
                    controller,
                    cfg,
                    ..self.base.clone()
                };
                if let Some(variant) = variant {
                    variant.apply(&mut point);
                }
                point
            })
            .collect()
    }

    /// A point's label: its named point's label (else its controller), then
    /// `axis=value` for every axis that actually varies, so single-axis
    /// sweeps stay readable.
    fn label(
        &self,
        variant: Option<&Variant>,
        controller: ControllerSpec,
        cfg: &ExperimentConfig,
    ) -> String {
        let mut label = variant.map_or(controller.name(), |v| &v.label).to_string();
        if variant.is_some() && self.controllers.len() > 1 {
            label.push_str(&format!(" controllers={}", controller.name()));
        }
        for (key, values) in &self.axes {
            if values.len() > 1 {
                label.push_str(&format!(" {key}={}", config_value(cfg, key)));
            }
        }
        label
    }
}

/// The display form of one axis key's value in `cfg`.
fn config_value(cfg: &ExperimentConfig, key: &str) -> String {
    cfg.get(key)
        .expect("every axis is a config key")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario, LinkProfile};
    use loki_sim::RouteMode;

    fn fig8() -> &'static Scenario {
        scenario::find("fig8_slo_sweep").expect("fig8 registered")
    }

    #[test]
    fn singleton_sweep_has_one_point_per_controller() {
        let sc = scenario::find("fig5_traffic").unwrap();
        let sweep = Sweep::for_scenario(sc, sc.config());
        assert_eq!(sweep.len(), 3, "comparison panel has three systems");
        let labels: Vec<_> = sweep.points().into_iter().map(|p| p.label).collect();
        assert_eq!(labels, vec!["loki-greedy", "inferline", "proteus"]);
    }

    #[test]
    fn slo_scenario_defaults_to_canonical_axis() {
        let sweep = Sweep::for_scenario(fig8(), fig8().config());
        assert_eq!(sweep.axis("slo"), ["200", "250", "300", "350", "400"]);
        let slos: Vec<f64> = sweep.points().iter().map(|p| p.cfg.slo_ms).collect();
        assert_eq!(slos, vec![200.0, 250.0, 300.0, 350.0, 400.0]);
        assert_eq!(sweep.len(), 5);
    }

    #[test]
    fn grid_enumeration_is_deterministic_and_complete() {
        let mut sweep = Sweep::for_scenario(fig8(), fig8().config());
        sweep.set_axis("seed", "1,2,3").unwrap();
        sweep.set_axis("cluster", "10,20").unwrap();
        assert_eq!(sweep.len(), 5 * 3 * 2);
        let a = sweep.points();
        let b = sweep.points();
        assert_eq!(a, b, "enumeration must be reproducible");
        assert_eq!(a.len(), sweep.len());
        // Seed is the innermost axis; the first three points share every other knob.
        assert_eq!(a[0].cfg.seed, 1);
        assert_eq!(a[1].cfg.seed, 2);
        assert_eq!(a[2].cfg.seed, 3);
        assert_eq!(a[0].cfg.slo_ms, a[2].cfg.slo_ms);
        // All labels unique.
        let mut labels: Vec<_> = a.iter().map(|p| p.label.clone()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), sweep.len());
    }

    #[test]
    fn axis_errors_are_loud() {
        let mut sweep = Sweep::for_scenario(fig8(), fig8().config());
        let err = sweep.set_axis("slo", "200,25o").unwrap_err();
        assert_eq!(err, "invalid value for slo: \"25o\"");
        assert!(sweep.set_axis("warp", "9").is_err());
        assert!(sweep.set_axis("controllers", "loki-greedy,gurobi").is_err());
        assert!(sweep.set_axis("links", "uniform,warp-drive").is_err());
        // `jobs` is a base key only: it changes no simulated output, so a
        // sweep over it would repeat one row.
        assert!(sweep.set_axis("jobs", "1,2").is_err());
        assert!(sweep.set_axis("controllers", "loki-milp,proteus").is_ok());
        assert_eq!(
            sweep.controllers,
            vec![ControllerSpec::LokiMilp, ControllerSpec::Proteus]
        );
    }

    #[test]
    fn every_axis_is_settable_and_listed() {
        let mut sweep = Sweep::for_scenario(fig8(), fig8().config());
        let listed = sweep.axes_json();
        let Json::Obj(entries) = &listed else {
            panic!("axes_json builds an object")
        };
        let names: Vec<&str> = entries.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names[0], "controllers");
        assert_eq!(names[1..], Sweep::AXES);
        for axis in std::iter::once("controllers").chain(Sweep::AXES) {
            assert!(Sweep::is_axis(axis));
            assert!(axis == "controllers" || ExperimentConfig::KEYS.contains(&axis));
            let current = match listed.get(axis) {
                Some(Json::Arr(values)) => values[0].clone(),
                other => panic!("axis {axis} lists {other:?}"),
            };
            // Round-trip each axis's default back through `set_axis`.
            let value = match current {
                Json::Str(s) => s,
                Json::Num(v) => format!("{v}"),
                Json::UInt(v) => format!("{v}"),
                Json::Bool(b) => format!("{b}"),
                other => panic!("axis {axis} value {other:?}"),
            };
            sweep.set_axis(axis, &value).unwrap();
        }
        assert!(Sweep::is_axis("controller"));
        assert!(!Sweep::is_axis("duration"));
    }

    #[test]
    fn route_axis_enumerates_and_labels_modes() {
        let sc = scenario::find("traffic_hetnet").unwrap();
        let mut sweep = Sweep::for_scenario(sc, sc.config());
        assert_eq!(sweep.axis("route"), ["accuracy"]);
        sweep.set_axis("route", "accuracy,link-aware").unwrap();
        assert_eq!(sweep.len(), 2);
        let points = sweep.points();
        assert_eq!(points[0].cfg.route, RouteMode::Accuracy);
        assert_eq!(points[1].cfg.route, RouteMode::LinkAware);
        assert!(points[1].label.contains("route=link-aware"));
        assert!(sweep.set_axis("route", "telepathy").is_err());
    }

    #[test]
    fn family_sweeps_aggregate_each_named_point_across_seeds() {
        for (name, labels) in [
            (
                "spot_diurnal",
                &["ondemand-reactive", "spot-reactive", "spot-forecast"][..],
            ),
            (
                "fig7_ablation",
                &[
                    "no-early-dropping",
                    "last-task-dropping",
                    "per-task-dropping",
                    "opportunistic-rerouting",
                ],
            ),
            (
                "elastic_diurnal",
                &["static-peak", "static-mean", "autoscale"],
            ),
        ] {
            let sc = scenario::find(name).unwrap();
            let cfg = ExperimentConfig {
                duration_s: 10,
                drain_s: 2.0,
                ..sc.config()
            };
            let mut sweep = Sweep::for_scenario(sc, cfg);
            sweep.set_axis("seed", "1,2").unwrap();
            assert_eq!(sweep.len(), 2 * labels.len(), "{name}");
            let points = sweep.points();
            let results = crate::runner::Runner::serial()
                .run(points.clone())
                .expect("the sweep runs");
            let aggregates = crate::report::aggregate_sweep(&points, &results);
            let got: Vec<&str> = aggregates.iter().map(|a| a.label.as_str()).collect();
            assert_eq!(got, labels, "{name}: one aggregate per named point");
            for agg in &aggregates {
                assert_eq!(agg.seeds, [1, 2], "{name} {}", agg.label);
            }
        }
    }

    #[test]
    fn an_axis_over_a_family_setting_replaces_its_points() {
        let spot = scenario::find("spot_diurnal").unwrap();
        let sweep = Sweep::for_scenario(spot, spot.config());
        let points = sweep.points();
        // The on-demand fleet lives on the friendly cloud.
        assert_eq!(points[0].label, "ondemand-reactive");
        assert!(!points[0].cfg.spot);
        assert_eq!(points[0].cfg.revoke_per_hour, 0.0);
        assert_eq!(points[0].cfg.stockout, 0.0);
        assert_eq!(points[2].label, "spot-forecast");
        assert_eq!(points[2].cfg, spot.config());

        let mut sweep = Sweep::for_scenario(spot, spot.config());
        sweep.set_axis("provisioner", "reactive,forecast").unwrap();
        let labels: Vec<_> = sweep.points().into_iter().map(|p| p.label).collect();
        assert_eq!(
            labels,
            [
                "loki-greedy provisioner=reactive",
                "loki-greedy provisioner=forecast"
            ]
        );

        let elastic = scenario::find("elastic_diurnal").unwrap();
        let mut sweep = Sweep::for_scenario(elastic, elastic.config());
        sweep.set_axis("elastic", "static-peak,autoscale").unwrap();
        sweep.set_axis("seed", "1,2").unwrap();
        let labels: Vec<_> = sweep.points().into_iter().map(|p| p.label).collect();
        assert_eq!(
            labels,
            [
                "loki-greedy elastic=static-peak seed=1",
                "loki-greedy elastic=static-peak seed=2",
                "loki-greedy elastic=autoscale seed=1",
                "loki-greedy elastic=autoscale seed=2",
            ]
        );
    }

    #[test]
    fn links_axis_enumerates_and_labels_profiles() {
        let sc = scenario::find("traffic_hetnet").unwrap();
        let mut sweep = Sweep::for_scenario(sc, sc.config());
        assert_eq!(sweep.axis("links"), ["two-tier"]);
        sweep.set_axis("links", "uniform,two-tier").unwrap();
        sweep.set_axis("seed", "1,2").unwrap();
        assert_eq!(sweep.len(), 4);
        let points = sweep.points();
        assert_eq!(points[0].cfg.links, LinkProfile::Uniform);
        assert_eq!(points[2].cfg.links, LinkProfile::TwoTier);
        assert!(points[0].label.contains("links=uniform"));
        assert!(points[2].label.contains("links=two-tier"));
        assert!(points[0].label.contains("seed=1"));
    }
}
