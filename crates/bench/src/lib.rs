//! # loki-bench
//!
//! The experiment harness that regenerates every table and figure of the Loki
//! evaluation (Section 6) behind one declarative API and one CLI.
//!
//! * [`scenario`] — the Scenario subsystem: named experiment registrations
//!   ([`scenario::REGISTRY`]), the [`scenario::ControllerSpec`] factory enum, and
//!   self-contained [`scenario::RunPoint`]s.
//! * [`sweep`] — experiment grids over the scenario axes ([`sweep::Sweep::AXES`]) with
//!   deterministic enumeration.
//! * [`runner`] — a hand-rolled scoped-thread pool that fans independent runs out
//!   across cores; parallel results are bit-identical to serial execution.
//! * [`figures`] — each simulator-driven scenario kind as data (its labelled
//!   point set, table columns and headlines), the one renderer of their text
//!   and JSON reports, and the analytic kinds' executors.
//! * [`report`] — the hand-rolled JSON writer (the vendored serde is a no-op stub)
//!   and the named metric table every report column and key derives from.
//! * [`timeline`] — the windowed time-series export of one run.
//!
//! The single `loki` binary (`src/bin/loki.rs`) exposes all of it: `loki list`,
//! `loki run <scenario> [key=value…] [--json]`, and `loki sweep <scenario>
//! [axis=v,v…]`. `EXPERIMENTS.md` at the repository root indexes every scenario
//! with the invocation that reproduces the corresponding paper figure. Speed is
//! measured by the reference benchmark instead (`benchmark/README.md`), which
//! does not link this crate.

pub mod figures;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod timeline;

use loki_core::{AutoscalerConfig, ForecastConfig, ForecastingProvisioner, ReactiveAutoscaler};
use loki_sim::{
    ElasticPolicy, ElasticSimConfig, IntervalMetrics, LinkDelayModel, MarketConfig, RouteMode,
    SimConfig, WorkerClass, WorkerClassCatalog,
};
use loki_workload::Trace;

/// Named per-link delay profiles for the experiment harness: the CLI's `links=`
/// key (and sweep axis) selects one by name, and [`LinkProfile::to_model`]
/// expands it into the simulator's [`LinkDelayModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkProfile {
    /// Every hop takes the uniform `network_delay_ms` (2 ms): the paper's
    /// homogeneous testbed.
    #[default]
    Uniform,
    /// Two interconnect classes striped across the cluster (worker `w` is in
    /// class `w % 2`): intra-class hops are PCIe-fast (0.2 ms), cross-class
    /// hops cross the datacenter network (5 ms), and the frontend reaches both
    /// classes in 2 ms.
    TwoTier,
    /// Per-pipeline-edge delays for a detection → classification split across
    /// racks: the edge from task 0 to task 1 costs 5 ms, the edge from task 0
    /// to task 2 is co-located (0.2 ms), everything else (and the frontend)
    /// keeps the uniform 2 ms. Meant for the three-task traffic pipeline: a
    /// run on a pipeline without tasks 0–2 returns
    /// [`loki_sim::EngineError::InvalidRun`], and `loki` exits 2.
    EdgeSplit,
}

impl LinkProfile {
    /// All profiles, in registry order.
    pub const ALL: [LinkProfile; 3] = [
        LinkProfile::Uniform,
        LinkProfile::TwoTier,
        LinkProfile::EdgeSplit,
    ];

    /// Stable name used by the CLI (`links=` key / sweep axis) and reports.
    pub fn name(self) -> &'static str {
        match self {
            LinkProfile::Uniform => "uniform",
            LinkProfile::TwoTier => "two-tier",
            LinkProfile::EdgeSplit => "edge-split",
        }
    }

    /// Look a profile up by its [`LinkProfile::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Expand into the simulator's per-link delay model.
    pub fn to_model(self) -> LinkDelayModel {
        match self {
            LinkProfile::Uniform => LinkDelayModel::Uniform,
            LinkProfile::TwoTier => LinkDelayModel::PerWorkerClass {
                classes: 2,
                delay_ms: vec![0.2, 5.0, 5.0, 0.2],
                frontend_ms: vec![2.0, 2.0],
            },
            LinkProfile::EdgeSplit => LinkDelayModel::PerEdge {
                frontend_ms: 2.0,
                default_ms: 2.0,
                edges: vec![((0, 1), 5.0), ((0, 2), 0.2)],
            },
        }
    }
}

/// How the worker fleet is provisioned for a run: the CLI's `elastic=` key
/// (and sweep axis). Everything but `fixed` attaches an elastic fleet
/// ([`loki_sim::ElasticSimConfig`]) and reports cost; `autoscale` additionally
/// drives it with the reactive Provisioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ElasticMode {
    /// The historical fixed fleet of `cluster` workers — no billing, no
    /// scaling; bit-identical to pre-elastic runs.
    #[default]
    Fixed,
    /// A static billed fleet sized for the experiment's peak (`cluster`
    /// workers): today's provision-for-peak deployment.
    StaticPeak,
    /// A static billed fleet sized for the trace's *mean* demand: cheap, but
    /// it melts at peak — the cautionary baseline.
    StaticMean,
    /// A billed fleet starting at the mean size, scaled between the pipeline
    /// footprint and `cluster` workers by the reactive Provisioner
    /// ([`loki_core::ReactiveAutoscaler`]).
    Autoscale,
}

impl ElasticMode {
    /// All modes, in registry order.
    pub const ALL: [ElasticMode; 4] = [
        ElasticMode::Fixed,
        ElasticMode::StaticPeak,
        ElasticMode::StaticMean,
        ElasticMode::Autoscale,
    ];

    /// Stable name used by the CLI (`elastic=` key / sweep axis) and reports.
    pub fn name(self) -> &'static str {
        match self {
            ElasticMode::Fixed => "fixed",
            ElasticMode::StaticPeak => "static-peak",
            ElasticMode::StaticMean => "static-mean",
            ElasticMode::Autoscale => "autoscale",
        }
    }

    /// Look a mode up by its [`ElasticMode::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Named GPU-class catalogs: the CLI's `classes=` key. Prices are
/// cloud-list-like reference numbers; what matters for the `elastic_` family
/// is their ratio, not their absolute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GpuClassProfile {
    /// One reference class ("a100"): the paper's homogeneous testbed with a
    /// price tag ($2.50/h, 20 s boots).
    #[default]
    Uniform,
    /// Two classes: "premium" (reference speed, $3.00/h, 20 s boots) and
    /// "budget" (1.5x slower, $1.50/h, 40 s boots). Budget wins on effective
    /// price, so the cost-aware Provisioner prefers it for scale-ups.
    Mixed,
}

impl GpuClassProfile {
    /// All profiles, in registry order.
    pub const ALL: [GpuClassProfile; 2] = [GpuClassProfile::Uniform, GpuClassProfile::Mixed];

    /// Stable name used by the CLI (`classes=` key) and reports.
    pub fn name(self) -> &'static str {
        match self {
            GpuClassProfile::Uniform => "uniform",
            GpuClassProfile::Mixed => "mixed",
        }
    }

    /// Look a profile up by its [`GpuClassProfile::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Expand into the simulator's worker-class catalog.
    pub fn to_catalog(self) -> WorkerClassCatalog {
        match self {
            GpuClassProfile::Uniform => WorkerClassCatalog::single(WorkerClass {
                name: "a100".to_string(),
                latency_scale: 1.0,
                memory_gb: 80.0,
                price_per_hour: 2.5,
                boot_delay_s: 20.0,
                spot: false,
            }),
            GpuClassProfile::Mixed => WorkerClassCatalog {
                classes: vec![
                    WorkerClass {
                        name: "premium".to_string(),
                        latency_scale: 1.0,
                        memory_gb: 80.0,
                        price_per_hour: 3.0,
                        boot_delay_s: 20.0,
                        spot: false,
                    },
                    WorkerClass {
                        name: "budget".to_string(),
                        latency_scale: 1.5,
                        memory_gb: 24.0,
                        price_per_hour: 1.5,
                        boot_delay_s: 40.0,
                        spot: false,
                    },
                ],
            },
        }
    }
}

/// Which [`ElasticPolicy`] drives an autoscaled fleet: the CLI's
/// `provisioner=` key (and sweep axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProvisionerKind {
    /// The reactive autoscaler ([`loki_core::ReactiveAutoscaler`]): scales on
    /// observed demand and pressure, pays the boot lag on every ramp.
    #[default]
    Reactive,
    /// The forecasting provisioner ([`loki_core::ForecastingProvisioner`]):
    /// fits the trace's seasonal profile online, pre-boots ahead of ramps,
    /// and hedges the spot/on-demand mix against observed revocations.
    Forecast,
}

impl ProvisionerKind {
    /// All kinds, in registry order.
    pub const ALL: [ProvisionerKind; 2] = [ProvisionerKind::Reactive, ProvisionerKind::Forecast];

    /// Stable name used by the CLI (`provisioner=` key / sweep axis) and reports.
    pub fn name(self) -> &'static str {
        match self {
            ProvisionerKind::Reactive => "reactive",
            ProvisionerKind::Forecast => "forecast",
        }
    }

    /// Look a kind up by its [`ProvisionerKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Common knobs for an end-to-end comparison experiment. Each field is one
/// `key=value` config key ([`ExperimentConfig::KEYS`]): the CLI, sweeps,
/// labels and reports name and print keys only through
/// [`ExperimentConfig::set`] and [`ExperimentConfig::get`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of workers in the cluster (20, as in the paper).
    pub cluster_size: usize,
    /// End-to-end latency SLO (ms).
    pub slo_ms: f64,
    /// Simulated duration in seconds (the day-long traces are compressed into this).
    pub duration_s: usize,
    /// Peak demand of the trace, in QPS.
    pub peak_qps: f64,
    /// Off-peak floor of the trace, in QPS.
    pub base_qps: f64,
    /// Seed for trace generation and the simulator.
    pub seed: u64,
    /// Reporting bucket for printed time series, in seconds.
    pub bucket_s: usize,
    /// Post-arrival drain time before unfinished queries count as dropped, in seconds.
    pub drain_s: f64,
    /// Engine worker threads for multi-pipeline points (`jobs=` key): each
    /// pipeline lane runs on its own core between rebalance epochs. Results
    /// are bit-identical for every value. Ignored by single-pipeline points.
    pub jobs: usize,
    /// Per-link network-delay profile (`links=` key; uniform by default).
    pub links: LinkProfile,
    /// Fleet-provisioning mode (`elastic=` key; fixed fleet by default).
    pub elastic: ElasticMode,
    /// GPU-class catalog for elastic fleets (`classes=` key).
    pub classes: GpuClassProfile,
    /// Add a discounted spot twin of the reference class to the catalog and
    /// attach the cloud market (`spot=` key, `true`/`false`).
    pub spot: bool,
    /// Expected spot revocations per warm spot worker per hour (`revoke=`
    /// key). `0` disables the revocation process entirely.
    pub revoke_per_hour: f64,
    /// Probability one requested spot worker is denied by a capacity stockout
    /// (`stockout=` key, in `[0, 1]`).
    pub stockout: f64,
    /// Which policy drives [`ElasticMode::Autoscale`] fleets (`provisioner=`
    /// key; the reactive autoscaler by default).
    pub provisioner: ProvisionerKind,
    /// Load-Balancer candidate-ordering mode (`route=` key; accuracy-first by
    /// default). `link-aware` breaks equal-accuracy ties toward replicas on
    /// cheap links of the `links` profile and budgets the SLO per hop.
    pub route: RouteMode,
    /// Deterministic query-trace sampling: record a span tree for every Nth
    /// root query (`trace=` key; `0` disables tracing). The sample set is
    /// seed-stable and identical for every `jobs=` value.
    pub trace_sample: u64,
    /// Timeline telemetry (`timeline=` key, `true`/`false`): the cluster
    /// event journal plus per-interval windowed histogram deltas. Records
    /// simulated time only, so the channel is bit-identical for every `jobs=`
    /// value and never perturbs the run. The `--timeline PATH` CLI flag turns
    /// this on and exports the windowed series + journal to disk.
    pub timeline: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            cluster_size: 20,
            slo_ms: 250.0,
            duration_s: 1200,
            peak_qps: 1500.0,
            base_qps: 80.0,
            seed: 42,
            bucket_s: 60,
            drain_s: 20.0,
            jobs: 1,
            links: LinkProfile::Uniform,
            elastic: ElasticMode::Fixed,
            classes: GpuClassProfile::Uniform,
            spot: false,
            revoke_per_hour: 0.0,
            stockout: 0.0,
            provisioner: ProvisionerKind::Reactive,
            route: RouteMode::Accuracy,
            trace_sample: 0,
            timeline: false,
        }
    }
}

/// The typed value of one config key, as [`ExperimentConfig::get`] reads it.
/// Its `Display` form is what sweep labels and CSV cells print, and
/// [`ExperimentConfig::set`] accepts it back; reports render it as the
/// matching JSON type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigValue {
    /// A count, size or seed.
    Count(u64),
    /// A real-valued quantity.
    Real(f64),
    /// An on/off switch.
    Flag(bool),
    /// One of a key's named choices.
    Name(&'static str),
}

impl std::fmt::Display for ConfigValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigValue::Count(v) => write!(f, "{v}"),
            ConfigValue::Real(v) => write!(f, "{v}"),
            ConfigValue::Flag(v) => write!(f, "{v}"),
            ConfigValue::Name(v) => f.write_str(v),
        }
    }
}

impl ExperimentConfig {
    /// Every `key=value` config key, in report order: what
    /// [`ExperimentConfig::set`] accepts, [`ExperimentConfig::get`] reads and
    /// every report's `config` object lists.
    pub const KEYS: [&'static str; 19] = [
        "cluster",
        "slo",
        "duration",
        "peak",
        "base",
        "seed",
        "bucket",
        "drain",
        "jobs",
        "links",
        "elastic",
        "classes",
        "spot",
        "revoke",
        "stockout",
        "provisioner",
        "route",
        "trace",
        "timeline",
    ];

    /// Apply one `key=value` override. Unknown keys and unparsable values are hard
    /// errors — a typo like `slo=25o` must never silently fall back to the default.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("invalid value for {key}: {value:?}"))
        }
        /// A named choice, or the error listing the key's `known` names.
        fn choice<T>(
            key: &str,
            value: &str,
            parsed: Option<T>,
            known: &[&str],
        ) -> Result<T, String> {
            parsed.ok_or_else(|| {
                format!(
                    "invalid value for {key}: {value:?} (known: {})",
                    known.join(", ")
                )
            })
        }
        match key {
            "cluster" => self.cluster_size = parse(key, value)?,
            "slo" => self.slo_ms = parse(key, value)?,
            "duration" => self.duration_s = parse(key, value)?,
            "peak" => self.peak_qps = parse(key, value)?,
            "base" => self.base_qps = parse(key, value)?,
            "seed" => self.seed = parse(key, value)?,
            "bucket" => self.bucket_s = parse(key, value)?,
            "drain" => self.drain_s = parse(key, value)?,
            "jobs" => self.jobs = parse::<usize>(key, value)?.max(1),
            "links" => {
                let known = LinkProfile::ALL.map(LinkProfile::name);
                self.links = choice(key, value, LinkProfile::from_name(value), &known)?
            }
            "elastic" => {
                let known = ElasticMode::ALL.map(ElasticMode::name);
                self.elastic = choice(key, value, ElasticMode::from_name(value), &known)?
            }
            "classes" => {
                let known = GpuClassProfile::ALL.map(GpuClassProfile::name);
                self.classes = choice(key, value, GpuClassProfile::from_name(value), &known)?
            }
            "spot" => self.spot = parse(key, value)?,
            "revoke" => {
                let rate: f64 = parse(key, value)?;
                if !rate.is_finite() || rate < 0.0 {
                    return Err(format!("invalid value for {key}: {value:?} (want >= 0)"));
                }
                self.revoke_per_hour = rate;
            }
            "stockout" => {
                let p: f64 = parse(key, value)?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!(
                        "invalid value for {key}: {value:?} (want a probability in [0, 1])"
                    ));
                }
                self.stockout = p;
            }
            "provisioner" => {
                let known = ProvisionerKind::ALL.map(ProvisionerKind::name);
                self.provisioner = choice(key, value, ProvisionerKind::from_name(value), &known)?
            }
            "route" => {
                let known = [RouteMode::Accuracy, RouteMode::LinkAware].map(|r| r.label());
                self.route = choice(key, value, RouteMode::parse(value), &known)?
            }
            "trace" => self.trace_sample = parse(key, value)?,
            "timeline" => self.timeline = parse(key, value)?,
            _ => {
                return Err(format!(
                    "unknown key {key:?} (known: {})",
                    Self::KEYS.join(", ")
                ))
            }
        }
        Ok(())
    }

    /// Read one config key as the typed value [`ExperimentConfig::set`]
    /// stores; `None` for a name outside [`ExperimentConfig::KEYS`].
    pub fn get(&self, key: &str) -> Option<ConfigValue> {
        use ConfigValue::{Count, Flag, Name, Real};
        Some(match key {
            "cluster" => Count(self.cluster_size as u64),
            "slo" => Real(self.slo_ms),
            "duration" => Count(self.duration_s as u64),
            "peak" => Real(self.peak_qps),
            "base" => Real(self.base_qps),
            "seed" => Count(self.seed),
            "bucket" => Count(self.bucket_s as u64),
            "drain" => Real(self.drain_s),
            "jobs" => Count(self.jobs as u64),
            "links" => Name(self.links.name()),
            "elastic" => Name(self.elastic.name()),
            "classes" => Name(self.classes.name()),
            "spot" => Flag(self.spot),
            "revoke" => Real(self.revoke_per_hour),
            "stockout" => Real(self.stockout),
            "provisioner" => Name(self.provisioner.name()),
            "route" => Name(self.route.label()),
            "trace" => Count(self.trace_sample),
            "timeline" => Flag(self.timeline),
            _ => return None,
        })
    }

    /// Apply a sequence of `key=value` overrides, rejecting anything malformed.
    pub fn apply_overrides<'a>(
        &mut self,
        args: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), String> {
        for arg in args {
            let Some((key, value)) = arg.split_once('=') else {
                return Err(format!("expected key=value, got {arg:?}"));
            };
            self.set(key, value)?;
        }
        Ok(())
    }
}

/// The generator seed a trace family uses for a given experiment seed. The
/// Twitter-like trace perturbs the seed so paired traffic/social runs with the same
/// experiment seed do not share an arrival pattern; this is the single place the
/// perturbation lives.
pub fn trace_seed(trace: loki_workload::TraceSpec, seed: u64) -> u64 {
    match trace {
        loki_workload::TraceSpec::TwitterBursty => seed ^ 0x5eed,
        _ => seed,
    }
}

/// Fleet sizes an elastic experiment derives from its knobs: the peak fleet
/// is the experiment's `cluster` (what the fixed-fleet scenarios provision),
/// the mean fleet scales it by the trace's mean-to-peak demand ratio, and
/// both are floored at the pipeline footprint (below which nothing serves).
/// One derivation shared by the fleet builder and the autoscaler, so the
/// modes can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticFleetSizes {
    /// Pipeline footprint: the minimum viable fleet (`num_tasks`, at least 2).
    pub floor: usize,
    /// Fleet sized for the trace's mean demand.
    pub mean: usize,
    /// Fleet sized for peak demand (the experiment's `cluster`).
    pub peak: usize,
}

impl ElasticFleetSizes {
    /// The reference per-worker serving rate this sizing implies: the rate
    /// each of the `peak` workers must sustain at `peak_qps` — the
    /// calibration the demand-target autoscaler plans with.
    pub fn qps_per_worker(&self, peak_qps: f64) -> f64 {
        if peak_qps > 0.0 {
            peak_qps / self.peak as f64
        } else {
            AutoscalerConfig::default().qps_per_worker
        }
    }
}

/// Derive [`ElasticFleetSizes`] from an experiment's knobs.
pub fn elastic_fleet_sizes(
    cfg: &ExperimentConfig,
    num_tasks: usize,
    mean_qps: f64,
) -> ElasticFleetSizes {
    let peak = cfg.cluster_size.max(1);
    let floor = num_tasks.max(2).min(peak);
    let share = if cfg.peak_qps > 0.0 {
        (mean_qps / cfg.peak_qps).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let mean = ((peak as f64 * share).ceil() as usize).clamp(floor, peak);
    ElasticFleetSizes { floor, mean, peak }
}

/// Spot classes are billed at this fraction of the on-demand list price
/// (before the market's time-varying multiplier): the ~68% discount typical
/// of preemptible capacity.
pub const SPOT_DISCOUNT: f64 = 0.32;

/// The worker-class catalog of an experiment: the named profile, plus — when
/// `spot=true` — a spot twin of the reference class (same silicon, same
/// boots, [`SPOT_DISCOUNT`] of the price, revocable by the market).
pub fn fleet_catalog(cfg: &ExperimentConfig) -> WorkerClassCatalog {
    let mut catalog = cfg.classes.to_catalog();
    if cfg.spot {
        let reference = &catalog.classes[0];
        let twin = WorkerClass {
            name: format!("{}-spot", reference.name),
            price_per_hour: reference.price_per_hour * SPOT_DISCOUNT,
            spot: true,
            ..reference.clone()
        };
        catalog.classes.push(twin);
    }
    catalog
}

/// The cloud market an experiment is exposed to, or `None` when every market
/// knob is off (`spot=false`, `revoke=0`, `stockout=0`) — the friendly cloud,
/// bit-identical to pre-market runs. Spot-enabled runs get a stepwise price
/// schedule over the compressed day: a discounted valley, a demand-peak
/// premium, and a post-peak relaxation.
pub fn market_config(cfg: &ExperimentConfig) -> Option<MarketConfig> {
    if !cfg.spot && cfg.revoke_per_hour == 0.0 && cfg.stockout == 0.0 {
        return None;
    }
    let t = cfg.duration_s as f64;
    let price_schedule = if cfg.spot {
        vec![(0.0, 0.9), (0.45 * t, 1.3), (0.8 * t, 0.95)]
    } else {
        Vec::new()
    };
    Some(MarketConfig {
        revocation_rate_per_hour: cfg.revoke_per_hour,
        price_schedule,
        stockout_probability: cfg.stockout,
        ..MarketConfig::default()
    })
}

/// The elastic-fleet half of the simulator config for an experiment, or
/// `None` for [`ElasticMode::Fixed`]. Static modes pin `max_fleet` at their
/// initial size (they never scale); autoscaled fleets start at the mean size
/// and may grow to the peak fleet.
pub fn elastic_sim_config(
    cfg: &ExperimentConfig,
    num_tasks: usize,
    mean_qps: f64,
) -> Option<ElasticSimConfig> {
    let sizes = elastic_fleet_sizes(cfg, num_tasks, mean_qps);
    let (initial, max_fleet) = match cfg.elastic {
        ElasticMode::Fixed => return None,
        ElasticMode::StaticPeak => (sizes.peak, sizes.peak),
        ElasticMode::StaticMean => (sizes.mean, sizes.mean),
        ElasticMode::Autoscale => (sizes.mean, sizes.peak),
    };
    Some(ElasticSimConfig {
        catalog: fleet_catalog(cfg),
        // The initial fleet is reference-class (on-demand); the policy's
        // scale-ups pick spot or on-demand classes from the catalog.
        initial: vec![(0, initial)],
        max_fleet,
        decide_interval_s: 10.0,
        market: market_config(cfg),
    })
}

/// The autoscaler sizing an experiment implies, shared by both provisioner
/// kinds: bounded by the pipeline footprint below and the experiment's
/// `cluster` above, calibrated to the same per-worker rate the peak fleet was
/// sized with (peak QPS over the peak fleet) — so a re-sized experiment
/// (`peak=`, `cluster=` overrides) re-calibrates the demand target
/// automatically.
pub fn autoscaler_config(
    cfg: &ExperimentConfig,
    num_tasks: usize,
    mean_qps: f64,
) -> AutoscalerConfig {
    let sizes = elastic_fleet_sizes(cfg, num_tasks, mean_qps);
    AutoscalerConfig {
        min_fleet: sizes.floor,
        max_fleet: sizes.peak,
        qps_per_worker: sizes.qps_per_worker(cfg.peak_qps),
        ..AutoscalerConfig::default()
    }
}

/// The [`ElasticPolicy`] an autoscaled experiment runs: the experiment's
/// `provisioner=` choice over the shared [`autoscaler_config`] sizing. The
/// forecasting provisioner fits one seasonal period per compressed day (the
/// run duration) and buys capacity one boot delay plus one decide interval
/// ahead, so pre-boots land exactly when the forecast demand arrives.
pub fn provisioner_policy(
    cfg: &ExperimentConfig,
    num_tasks: usize,
    mean_qps: f64,
) -> Box<dyn ElasticPolicy> {
    let autoscaler = autoscaler_config(cfg, num_tasks, mean_qps);
    match cfg.provisioner {
        ProvisionerKind::Reactive => Box::new(ReactiveAutoscaler::new(autoscaler)),
        ProvisionerKind::Forecast => {
            let max_boot_s = fleet_catalog(cfg)
                .classes
                .iter()
                .map(|c| c.boot_delay_s)
                .fold(0.0, f64::max);
            Box::new(ForecastingProvisioner::new(ForecastConfig {
                autoscaler,
                period_s: (cfg.duration_s as f64).max(1.0),
                lead_s: max_boot_s + 10.0,
                ..ForecastConfig::default()
            }))
        }
    }
}

/// The simulator configuration shared by all end-to-end experiments.
pub fn sim_config(cfg: &ExperimentConfig, trace: &Trace) -> SimConfig {
    SimConfig {
        cluster_size: cfg.cluster_size,
        control_interval_s: 10.0,
        routing_interval_s: 1.0,
        metrics_interval_s: 1.0,
        seed: cfg.seed,
        initial_demand_hint: Some(trace.qps_at(0).max(1.0)),
        drain_s: cfg.drain_s,
        link_delays: cfg.links.to_model(),
        observe: loki_sim::ObserveConfig {
            trace_sample: cfg.trace_sample,
            timeline: cfg.timeline,
            ..loki_sim::ObserveConfig::default()
        },
        ..SimConfig::default()
    }
}

/// Aggregate per-second interval metrics into coarser buckets for printing.
pub fn bucketize(intervals: &[IntervalMetrics], bucket_s: usize) -> Vec<IntervalMetrics> {
    let mut out: Vec<IntervalMetrics> = Vec::new();
    for chunk in intervals.chunks(bucket_s.max(1)) {
        let mut agg = IntervalMetrics {
            start_s: chunk[0].start_s,
            cluster_size: chunk[0].cluster_size,
            ..Default::default()
        };
        let mut active_sum = 0usize;
        for m in chunk {
            agg.add_counts(m);
            active_sum += m.active_workers;
        }
        agg.active_workers = (active_sum as f64 / chunk.len() as f64).round() as usize;
        out.push(agg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_workload::generators;

    #[test]
    fn bucketize_preserves_totals() {
        let intervals: Vec<IntervalMetrics> = (0..10)
            .map(|i| IntervalMetrics {
                start_s: i as f64,
                arrivals: 10,
                completed_on_time: 8,
                completed_late: 1,
                dropped: 1,
                dropped_deadline: 1,
                dropped_reclaimed: 0,
                dropped_revoked: 0,
                accuracy_sum: 8.0,
                accuracy_count: 9,
                active_workers: 5,
                cluster_size: 20,
                rerouted: 0,
            })
            .collect();
        let buckets = bucketize(&intervals, 5);
        assert_eq!(buckets.len(), 2);
        let total_arrivals: u64 = buckets.iter().map(|b| b.arrivals).sum();
        assert_eq!(total_arrivals, 100);
        assert_eq!(buckets[0].active_workers, 5);
    }

    #[test]
    fn small_comparison_runs_end_to_end() {
        let sc = scenario::find("smoke").expect("smoke is registered");
        let cfg = ExperimentConfig {
            duration_s: 10,
            drain_s: 5.0,
            ..(sc.defaults)()
        };
        let report = figures::run_scenario(sc, &cfg, &runner::Runner::serial())
            .expect("the smoke scenario runs");
        let Some(report::Json::Arr(points)) = report.json.get("points") else {
            panic!("comparison report has a points array");
        };
        let systems = ["loki-greedy", "inferline", "proteus"];
        let labels: Vec<_> = points.iter().map(|p| p.get("label").cloned()).collect();
        assert_eq!(labels, systems.map(|s| Some(s.into())));
        for point in points {
            let arrivals = point.get("arrivals");
            assert!(
                matches!(arrivals, Some(report::Json::UInt(n)) if *n > 0),
                "{point:?} saw no arrivals"
            );
        }
        // The text report names every system and prints the headline ratios,
        // which the JSON report carries by the same names.
        for name in systems {
            assert!(report.text.contains(name), "{}", report.text);
        }
        for headline in [
            "peak_goodput_gain_vs_inferline",
            "violation_reduction_vs_proteus",
            "offpeak_server_saving_vs_proteus",
        ] {
            assert!(report.text.contains(headline), "{}", report.text);
            assert!(report.json.get(headline).is_some(), "{headline}");
        }
    }

    #[test]
    fn config_overrides_are_strict() {
        let mut cfg = ExperimentConfig::default();
        cfg.apply_overrides(["slo=300", "duration=60", "jobs=2"])
            .expect("valid overrides");
        assert_eq!(cfg.slo_ms, 300.0);
        assert_eq!(cfg.duration_s, 60);
        assert_eq!(cfg.jobs, 2);
        // The typo the old parser silently swallowed is now a hard error.
        let err = cfg.set("slo", "25o").unwrap_err();
        assert!(err.contains("invalid value"), "{err}");
        let err = cfg.set("slos", "250").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        // Retired host-speed keys (the engine self-profiler, best-of-N
        // repetition, the histogram switch) are rejected, not ignored.
        for retired in ["profile=true", "runs=3", "hist=false"] {
            let err = cfg.apply_overrides([retired]).unwrap_err();
            assert!(err.contains("unknown key"), "{retired}: {err}");
        }
        let err = cfg.apply_overrides(["duration"]).unwrap_err();
        assert!(err.contains("key=value"), "{err}");
        // Failed overrides must not have clobbered earlier state.
        assert_eq!(cfg.slo_ms, 300.0);
    }

    #[test]
    fn every_key_reads_back_through_set() {
        // Most of spot_diurnal's keys are off their defaults, so replaying its
        // config onto the defaults exercises nearly every `set` arm.
        let cfg = scenario::find("spot_diurnal").expect("registered").config();
        let mut replayed = ExperimentConfig::default();
        for key in ExperimentConfig::KEYS {
            let value = cfg.get(key).unwrap_or_else(|| panic!("{key} reads"));
            replayed
                .set(key, &value.to_string())
                .unwrap_or_else(|err| panic!("{key}={value}: {err}"));
            assert_eq!(replayed.get(key), Some(value), "{key}");
        }
        assert_eq!(replayed, cfg);
        assert_eq!(cfg.get("slo_ms"), None);
        assert_eq!(cfg.get("controllers"), None);
    }

    #[test]
    fn link_profiles_round_trip_and_expand() {
        use loki_sim::LinkDelayModel;
        for profile in LinkProfile::ALL {
            assert_eq!(LinkProfile::from_name(profile.name()), Some(profile));
            assert!(profile.to_model().validate().is_ok());
        }
        assert_eq!(LinkProfile::from_name("warp-drive"), None);
        assert_eq!(LinkProfile::Uniform.to_model(), LinkDelayModel::Uniform);
        // The heterogeneous profiles must actually be heterogeneous: their
        // worst hop exceeds the 2 ms uniform delay.
        assert!(LinkProfile::TwoTier.to_model().max_hop_ms(2.0) > 2.0);
        assert!(LinkProfile::EdgeSplit.to_model().max_hop_ms(2.0) > 2.0);

        let mut cfg = ExperimentConfig::default();
        assert_eq!(cfg.links, LinkProfile::Uniform);
        cfg.apply_overrides(["links=two-tier"]).expect("valid");
        assert_eq!(cfg.links, LinkProfile::TwoTier);
        let err = cfg.set("links", "nope").unwrap_err();
        assert!(err.contains("invalid value for links"), "{err}");
        // The simulator config inherits the expanded model.
        let trace = generators::constant(5, 10.0);
        assert_eq!(
            sim_config(&cfg, &trace).link_delays,
            LinkProfile::TwoTier.to_model()
        );
    }
}
