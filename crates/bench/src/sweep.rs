//! Declarative sweep grids over scenario axes.
//!
//! A [`Sweep`] takes a base scenario configuration, a controller list and a
//! value list per config axis ([`Sweep::AXES`]: SLO, … , seed) and enumerates
//! the cartesian product as [`RunPoint`]s in a fixed nesting order — controller
//! outermost, seed innermost — so grid enumeration is deterministic and
//! parallel execution (which preserves input order) reports points exactly
//! where a serial loop would. Axis values are config values: each is checked,
//! stored and applied through [`ExperimentConfig::set`], and read back through
//! [`ExperimentConfig::get`] for labels and reports.

use crate::report::Json;
use crate::scenario::{ControllerSpec, RunPoint, Scenario, ScenarioKind};
use crate::ExperimentConfig;

/// A grid of experiment points over a base configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    pub base: RunPoint,
    pub controllers: Vec<ControllerSpec>,
    /// One value list per [`Sweep::AXES`] key, in that order. Each value is
    /// the display form [`ExperimentConfig::get`] prints.
    axes: Vec<(&'static str, Vec<String>)>,
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

    /// A sweep whose axes are all singletons taken from `cfg` — `points()` returns
    /// exactly the scenario's canonical runs until axes are widened. Comparison
    /// scenarios default to the three-system panel, the SLO-sensitivity scenario to
    /// its canonical 200–400 ms axis, everything else to Loki-greedy alone.
    pub fn for_scenario(scenario: &Scenario, cfg: ExperimentConfig) -> Self {
        let controllers = match scenario.kind {
            ScenarioKind::Comparison | ScenarioKind::CapacityTable => {
                ControllerSpec::COMPARISON.to_vec()
            }
            _ => vec![ControllerSpec::LokiGreedy],
        };
        let axes = Self::AXES
            .iter()
            .map(|&key| (key, vec![config_value(&cfg, key)]))
            .collect();
        let mut sweep = Self {
            base: crate::scenario::scenario_point(scenario, &cfg),
            controllers,
            axes,
        };
        if scenario.kind == ScenarioKind::SloSweep {
            sweep
                .set_axis("slo", "200,250,300,350,400")
                .expect("the canonical SLO axis is valid");
        }
        sweep
    }

    /// Set an axis from a comma-separated value list (CLI surface). Unknown axes and
    /// unparsable values are hard errors, never silently ignored: each value
    /// must pass [`ExperimentConfig::set`].
    pub fn set_axis(&mut self, axis: &str, values: &str) -> Result<(), String> {
        let values = values.split(',').map(str::trim);
        if let Some((key, list)) = self.axes.iter_mut().find(|(key, _)| *key == axis) {
            let mut cfg = self.base.cfg.clone();
            *list = values
                .map(|v| {
                    cfg.set(key, v)?;
                    Ok(config_value(&cfg, key))
                })
                .collect::<Result<_, String>>()?;
        } else if Self::is_axis(axis) {
            let known = ControllerSpec::ALL.map(|c| c.name()).join(", ");
            self.controllers = values
                .map(|v| {
                    ControllerSpec::from_name(v).ok_or_else(|| {
                        format!("invalid value for controllers: {v:?} (known: {known})")
                    })
                })
                .collect::<Result<_, _>>()?;
        } else {
            return Err(format!(
                "unknown sweep axis {axis:?} (axes: controllers, {})",
                Self::AXES.join(", ")
            ));
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
        self.controllers.len() * self.axes.iter().map(|(_, v)| v.len()).product::<usize>()
    }

    /// True when the grid is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate the grid in its fixed nesting order: controller outermost,
    /// then each axis in [`Sweep::AXES`] order, seed innermost.
    pub fn points(&self) -> Vec<RunPoint> {
        let mut grid: Vec<(ControllerSpec, ExperimentConfig)> = self
            .controllers
            .iter()
            .map(|&c| (c, self.base.cfg.clone()))
            .collect();
        // Replace every grid point by one point per value of the next axis.
        for (key, values) in &self.axes {
            grid = grid
                .into_iter()
                .flat_map(|(controller, cfg)| {
                    values.iter().map(move |v| {
                        let mut cfg = cfg.clone();
                        cfg.set(key, v).expect("axis values pass `set`");
                        (controller, cfg)
                    })
                })
                .collect();
        }
        grid.into_iter()
            .map(|(controller, cfg)| RunPoint {
                label: self.label(controller, &cfg),
                controller,
                cfg,
                ..self.base.clone()
            })
            .collect()
    }

    /// A point's label: the controller, then `axis=value` for every axis that
    /// actually varies, so single-axis sweeps stay readable.
    fn label(&self, controller: ControllerSpec, cfg: &ExperimentConfig) -> String {
        let mut label = controller.name().to_string();
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
