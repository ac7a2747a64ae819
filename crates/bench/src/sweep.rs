//! Declarative sweep grids over scenario axes.
//!
//! A [`Sweep`] takes a base scenario configuration and a value list per axis
//! ([`Sweep::AXES`]: controller, SLO, … , seed) and enumerates the cartesian
//! product as [`RunPoint`]s in a fixed nesting order — controller outermost, seed
//! innermost — so grid enumeration is deterministic and parallel execution (which
//! preserves input order) reports points exactly where a serial loop would.

use crate::report::Json;
use crate::scenario::{ControllerSpec, RunPoint, Scenario, ScenarioKind};
use crate::{ElasticMode, ExperimentConfig, LinkProfile, ProvisionerKind};
use loki_sim::RouteMode;

/// A grid of experiment points over a base configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    pub scenario_name: String,
    pub base: RunPoint,
    pub controllers: Vec<ControllerSpec>,
    pub slo_ms: Vec<f64>,
    pub peak_qps: Vec<f64>,
    pub cluster_size: Vec<usize>,
    pub links: Vec<LinkProfile>,
    pub route: Vec<RouteMode>,
    pub elastic: Vec<ElasticMode>,
    pub spot: Vec<bool>,
    pub revoke: Vec<f64>,
    pub stockout: Vec<f64>,
    pub provisioner: Vec<ProvisionerKind>,
    pub seed: Vec<u64>,
}

impl Sweep {
    /// The axis names [`Sweep::set_axis`] accepts (`controller` is also
    /// accepted as an alias of `controllers`), in grid nesting order.
    pub const AXES: [&'static str; 12] = [
        "controllers",
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

    /// True when `key` names a sweep axis.
    pub fn is_axis(key: &str) -> bool {
        key == "controller" || Self::AXES.contains(&key)
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
        let slo_ms = match scenario.kind {
            ScenarioKind::SloSweep => vec![200.0, 250.0, 300.0, 350.0, 400.0],
            _ => vec![cfg.slo_ms],
        };
        let base = crate::scenario::scenario_point(scenario, &cfg);
        Self {
            scenario_name: scenario.name.to_string(),
            base,
            controllers,
            slo_ms,
            peak_qps: vec![cfg.peak_qps],
            cluster_size: vec![cfg.cluster_size],
            links: vec![cfg.links],
            route: vec![cfg.route],
            elastic: vec![cfg.elastic],
            spot: vec![cfg.spot],
            revoke: vec![cfg.revoke_per_hour],
            stockout: vec![cfg.stockout],
            provisioner: vec![cfg.provisioner],
            seed: vec![cfg.seed],
        }
    }

    /// Set an axis from a comma-separated value list (CLI surface). Unknown axes and
    /// unparsable values are hard errors, never silently ignored.
    pub fn set_axis(&mut self, axis: &str, values: &str) -> Result<(), String> {
        /// Parse every comma-separated value with `parse`; `want` describes
        /// the accepted values in the error.
        fn list<T>(
            axis: &str,
            values: &str,
            want: &str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Result<Vec<T>, String> {
            match values.split(',').map(|v| parse(v.trim())).collect() {
                Some(list) if !Vec::is_empty(&list) => Ok(list),
                _ => Err(format!("invalid {axis} list {values:?} (want {want})")),
            }
        }
        fn number<T: std::str::FromStr>(v: &str) -> Option<T> {
            v.parse().ok()
        }
        match axis {
            "slo" => self.slo_ms = list(axis, values, "numbers", number)?,
            "peak" => self.peak_qps = list(axis, values, "numbers", number)?,
            "cluster" => self.cluster_size = list(axis, values, "counts", number)?,
            "seed" => self.seed = list(axis, values, "integers", number)?,
            "controllers" | "controller" => {
                let known = ControllerSpec::ALL.map(|c| c.name()).join(", ");
                self.controllers = list(axis, values, &known, ControllerSpec::from_name)?
            }
            "links" => {
                let known = LinkProfile::ALL.map(|p| p.name()).join(", ");
                self.links = list(axis, values, &known, LinkProfile::from_name)?
            }
            "route" => self.route = list(axis, values, "accuracy, link-aware", RouteMode::parse)?,
            "elastic" => {
                let known = ElasticMode::ALL.map(|m| m.name()).join(", ");
                self.elastic = list(axis, values, &known, ElasticMode::from_name)?
            }
            "spot" => self.spot = list(axis, values, "true/false", number)?,
            "revoke" => {
                self.revoke = list(axis, values, "rates >= 0", |v| {
                    number::<f64>(v).filter(|r| r.is_finite() && *r >= 0.0)
                })?
            }
            "stockout" => {
                self.stockout = list(axis, values, "probabilities in [0, 1]", |v| {
                    number::<f64>(v).filter(|p| (0.0..=1.0).contains(p))
                })?
            }
            "provisioner" => {
                let known = ProvisionerKind::ALL.map(|k| k.name()).join(", ");
                self.provisioner = list(axis, values, &known, ProvisionerKind::from_name)?
            }
            _ => {
                return Err(format!(
                    "unknown sweep axis {axis:?} (axes: {})",
                    Self::AXES.join(", ")
                ))
            }
        }
        Ok(())
    }

    /// The values of one axis as JSON (`loki list --json`). Panics on a name
    /// outside [`Sweep::AXES`].
    pub fn axis_json(&self, axis: &str) -> Json {
        fn arr<T>(values: &[T], f: impl Fn(&T) -> Json) -> Json {
            Json::Arr(values.iter().map(f).collect())
        }
        match axis {
            "controllers" => arr(&self.controllers, |c| c.name().into()),
            "slo" => arr(&self.slo_ms, |&v| v.into()),
            "peak" => arr(&self.peak_qps, |&v| v.into()),
            "cluster" => arr(&self.cluster_size, |&v| v.into()),
            "links" => arr(&self.links, |l| l.name().into()),
            "route" => arr(&self.route, |r| r.label().into()),
            "elastic" => arr(&self.elastic, |m| m.name().into()),
            "spot" => arr(&self.spot, |&v| v.into()),
            "revoke" => arr(&self.revoke, |&v| v.into()),
            "stockout" => arr(&self.stockout, |&v| v.into()),
            "provisioner" => arr(&self.provisioner, |k| k.name().into()),
            "seed" => arr(&self.seed, |&v| Json::UInt(v)),
            _ => panic!("unknown sweep axis {axis:?}"),
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.controllers.len()
            * self.slo_ms.len()
            * self.peak_qps.len()
            * self.cluster_size.len()
            * self.links.len()
            * self.route.len()
            * self.elastic.len()
            * self.spot.len()
            * self.revoke.len()
            * self.stockout.len()
            * self.provisioner.len()
            * self.seed.len()
    }

    /// True when the grid is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate the grid in its fixed nesting order: controller outermost,
    /// then each axis in [`Sweep::AXES`] order, seed innermost.
    pub fn points(&self) -> Vec<RunPoint> {
        type Grid = Vec<(ControllerSpec, ExperimentConfig)>;
        /// Replace every grid point by one point per value of the next axis.
        fn nest<T: Copy>(grid: Grid, values: &[T], set: fn(&mut ExperimentConfig, T)) -> Grid {
            grid.into_iter()
                .flat_map(|(controller, cfg)| {
                    values.iter().map(move |&v| {
                        let mut cfg = cfg.clone();
                        set(&mut cfg, v);
                        (controller, cfg)
                    })
                })
                .collect()
        }
        let mut grid: Grid = self
            .controllers
            .iter()
            .map(|&c| (c, self.base.cfg.clone()))
            .collect();
        grid = nest(grid, &self.slo_ms, |c, v| c.slo_ms = v);
        grid = nest(grid, &self.peak_qps, |c, v| c.peak_qps = v);
        grid = nest(grid, &self.cluster_size, |c, v| c.cluster_size = v);
        grid = nest(grid, &self.links, |c, v| c.links = v);
        grid = nest(grid, &self.route, |c, v| c.route = v);
        grid = nest(grid, &self.elastic, |c, v| c.elastic = v);
        grid = nest(grid, &self.spot, |c, v| c.spot = v);
        grid = nest(grid, &self.revoke, |c, v| c.revoke_per_hour = v);
        grid = nest(grid, &self.stockout, |c, v| c.stockout = v);
        grid = nest(grid, &self.provisioner, |c, v| c.provisioner = v);
        grid = nest(grid, &self.seed, |c, v| c.seed = v);
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
        for (len, part) in [
            (self.slo_ms.len(), format!("slo={}", cfg.slo_ms)),
            (self.peak_qps.len(), format!("peak={}", cfg.peak_qps)),
            (
                self.cluster_size.len(),
                format!("cluster={}", cfg.cluster_size),
            ),
            (self.links.len(), format!("links={}", cfg.links.name())),
            (self.route.len(), format!("route={}", cfg.route.label())),
            (
                self.elastic.len(),
                format!("elastic={}", cfg.elastic.name()),
            ),
            (self.spot.len(), format!("spot={}", cfg.spot)),
            (self.revoke.len(), format!("revoke={}", cfg.revoke_per_hour)),
            (self.stockout.len(), format!("stockout={}", cfg.stockout)),
            (
                self.provisioner.len(),
                format!("provisioner={}", cfg.provisioner.name()),
            ),
            (self.seed.len(), format!("seed={}", cfg.seed)),
        ] {
            if len > 1 {
                label.push(' ');
                label.push_str(&part);
            }
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

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
        assert_eq!(sweep.slo_ms, vec![200.0, 250.0, 300.0, 350.0, 400.0]);
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
        assert!(sweep.set_axis("slo", "200,25o").is_err());
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
        for axis in Sweep::AXES {
            assert!(Sweep::is_axis(axis));
            let current = match sweep.axis_json(axis) {
                Json::Arr(values) => values[0].clone(),
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
        assert_eq!(sweep.route, vec![RouteMode::Accuracy]);
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
        assert_eq!(sweep.links, vec![LinkProfile::TwoTier]);
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
