//! The declarative Scenario subsystem.
//!
//! Every experiment of the Loki evaluation is described by data rather than by a
//! dedicated binary: a [`Scenario`] names a pipeline ([`PipelineSpec`]), a workload
//! ([`loki_workload::TraceSpec`]), a [`ScenarioKind`] (which figure archetype it
//! reproduces), and default [`ExperimentConfig`] knobs. Sweeps construct fresh
//! controllers per grid point through the [`ControllerSpec`] factory enum, and every
//! simulator-driven point is a self-contained [`RunPoint`] that the parallel
//! [`crate::runner::Runner`] can execute on any thread.

use crate::{ElasticMode, ExperimentConfig, LinkProfile};
use loki_baselines::{InferLineController, ProteusController};
use loki_core::{ControllerStats, LokiConfig, LokiController, ResourceManager};
use loki_pipeline::{zoo, PipelineGraph};
use loki_sim::{
    analyze_burn, AllocationPlan, BurnReport, CompiledPlan, Controller, CostSummary, DropPolicy,
    EngineError, IntervalMetrics, LinkDelayModel, MultiPipeline, MultiSimConfig, MultiSimulation,
    ObservedState, ResourceArbiter, RouteMode, RunSummary, SimResult, Simulation, StaticPartition,
    MAX_RUN_ARRIVALS,
};
use loki_workload::{generate_arrivals, ArrivalProcess, Trace, TraceSpec};

/// The pipelines of the evaluation, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineSpec {
    /// The traffic-analysis pipeline (YOLO → EfficientNet car classification + VGG
    /// pedestrian branch).
    Traffic,
    /// The social-media pipeline (ResNet classification feeding CLIP-ViT captioning).
    Social,
    /// The two-task toy pipeline used by unit tests.
    Tiny,
}

impl PipelineSpec {
    /// All pipeline specs, in registry order.
    pub const ALL: [PipelineSpec; 3] = [
        PipelineSpec::Traffic,
        PipelineSpec::Social,
        PipelineSpec::Tiny,
    ];

    /// Stable name used by the CLI and reports.
    pub fn name(self) -> &'static str {
        match self {
            PipelineSpec::Traffic => "traffic",
            PipelineSpec::Social => "social",
            PipelineSpec::Tiny => "tiny",
        }
    }

    /// Look a spec up by its [`PipelineSpec::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Build the pipeline graph for a latency SLO.
    pub fn build(self, slo_ms: f64) -> PipelineGraph {
        match self {
            PipelineSpec::Traffic => zoo::traffic_analysis_pipeline(slo_ms),
            PipelineSpec::Social => zoo::social_media_pipeline(slo_ms),
            PipelineSpec::Tiny => zoo::tiny_pipeline(slo_ms),
        }
    }
}

/// Factory enum for the serving systems under comparison. Sweeps construct a fresh
/// controller per grid point (controllers carry run state and must never be shared
/// between runs), so the spec — not the controller — is what grids enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerSpec {
    /// Loki with the greedy Resource-Manager allocator (the paper's deployed setup).
    LokiGreedy,
    /// Loki with the exact MILP allocator (slower; used by the allocator ablation).
    LokiMilp,
    /// InferLine-style pipeline-aware hardware scaling, fixed variants.
    InferLine,
    /// Proteus-style pipeline-agnostic accuracy scaling.
    Proteus,
}

impl ControllerSpec {
    /// All controller specs, in comparison order.
    pub const ALL: [ControllerSpec; 4] = [
        ControllerSpec::LokiGreedy,
        ControllerSpec::LokiMilp,
        ControllerSpec::InferLine,
        ControllerSpec::Proteus,
    ];

    /// Stable name used by the CLI (`controllers=` axis), point labels and
    /// headlines.
    pub fn name(self) -> &'static str {
        match self {
            ControllerSpec::LokiGreedy => "loki-greedy",
            ControllerSpec::LokiMilp => "loki-milp",
            ControllerSpec::InferLine => "inferline",
            ControllerSpec::Proteus => "proteus",
        }
    }

    /// Look a spec up by its [`ControllerSpec::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Construct a fresh controller for a pipeline, optionally overriding the runtime
    /// drop policy (used by the Figure 7 ablation). `links` is the cluster's per-link
    /// delay model: Loki mirrors it into its planner config, the baselines budget
    /// with its worst-case hop (they only know one comm latency), so every system
    /// plans against the interconnect it will actually be simulated on.
    pub fn build(
        self,
        graph: &PipelineGraph,
        drop_policy: Option<DropPolicy>,
        links: &LinkDelayModel,
        route: RouteMode,
    ) -> AnyController {
        match self {
            ControllerSpec::LokiGreedy => {
                let mut config = LokiConfig::with_greedy();
                if let Some(policy) = drop_policy {
                    config.drop_policy = policy;
                }
                config.link_delays = links.clone();
                config.route = route;
                AnyController::Loki(LokiController::new(graph.clone(), config))
            }
            ControllerSpec::LokiMilp => {
                let mut config = LokiConfig::with_milp();
                if let Some(policy) = drop_policy {
                    config.drop_policy = policy;
                }
                config.link_delays = links.clone();
                config.route = route;
                AnyController::Loki(LokiController::new(graph.clone(), config))
            }
            ControllerSpec::InferLine => {
                let mut controller = match drop_policy {
                    Some(policy) => InferLineController::with_drop_policy(graph.clone(), policy),
                    None => InferLineController::with_defaults(graph.clone()),
                };
                let comm = links.max_hop_ms(controller.config().comm_latency_ms);
                controller.config_mut().comm_latency_ms = comm;
                AnyController::InferLine(controller)
            }
            ControllerSpec::Proteus => {
                let mut controller = match drop_policy {
                    Some(policy) => ProteusController::with_drop_policy(graph.clone(), policy),
                    None => ProteusController::with_defaults(graph.clone()),
                };
                let comm = links.max_hop_ms(controller.config().comm_latency_ms);
                controller.config_mut().comm_latency_ms = comm;
                AnyController::Proteus(controller)
            }
        }
    }
}

/// A controller built by [`ControllerSpec::build`]: static dispatch over the three
/// concrete controller types behind one value the runner can own. One controller
/// exists per in-flight run, so the size skew between variants is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum AnyController {
    Loki(LokiController),
    InferLine(InferLineController),
    Proteus(ProteusController),
}

impl AnyController {
    /// Control-plane counters, when the underlying controller tracks them.
    pub fn controller_stats(&self) -> Option<&ControllerStats> {
        match self {
            AnyController::Loki(c) => Some(&c.stats),
            _ => None,
        }
    }
}

impl Controller for AnyController {
    fn name(&self) -> &str {
        match self {
            AnyController::Loki(c) => c.name(),
            AnyController::InferLine(c) => c.name(),
            AnyController::Proteus(c) => c.name(),
        }
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        match self {
            AnyController::Loki(c) => c.plan(observed),
            AnyController::InferLine(c) => c.plan(observed),
            AnyController::Proteus(c) => c.plan(observed),
        }
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        match self {
            AnyController::Loki(c) => c.routing(observed),
            AnyController::InferLine(c) => c.routing(observed),
            AnyController::Proteus(c) => c.routing(observed),
        }
    }
}

/// How the shared cluster is arbitrated in a multi-pipeline scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiMode {
    /// The cluster-level [`ResourceManager`]: demand/SLO-weighted partitions,
    /// rebalanced at epoch cadence with hysteresis.
    Contended,
    /// A naive fixed 50/50 (1/N) split — the baseline the contended manager
    /// must beat under skewed demand.
    StaticEven,
    /// A fixed split proportional to each pipeline's *true* mean offered load
    /// (an oracle no online system has).
    OracleSplit,
}

impl MultiMode {
    /// Stable name used in labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            MultiMode::Contended => "contended",
            MultiMode::StaticEven => "static-even",
            MultiMode::OracleSplit => "oracle-split",
        }
    }

    /// Build the arbiter for this mode. `offered_qps` is each pipeline's mean
    /// offered load (only the oracle split reads it).
    pub fn arbiter(self, offered_qps: &[f64]) -> Box<dyn ResourceArbiter> {
        match self {
            MultiMode::Contended => Box::new(ResourceManager::default()),
            MultiMode::StaticEven => Box::new(StaticPartition::even(offered_qps.len())),
            MultiMode::OracleSplit => Box::new(StaticPartition::with_shares(
                "oracle-split",
                offered_qps.to_vec(),
            )),
        }
    }
}

/// One pipeline of a multi-pipeline scenario, parameterized against the
/// experiment's shared knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLane {
    /// Lane label in reports ("traffic", "social", "zipf03").
    pub name: String,
    pub pipeline: PipelineSpec,
    pub trace: TraceSpec,
    /// Fraction of the experiment's `peak_qps`/`base_qps` this lane carries.
    pub demand_share: f64,
    /// Multiplier on the experiment's `slo_ms` for this lane.
    pub slo_scale: f64,
}

/// The multi-pipeline half of a [`RunPoint`]: which pipelines share the
/// cluster and how it is arbitrated.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSpec {
    pub mode: MultiMode,
    pub lanes: Vec<MultiLane>,
}

/// The pipeline mix of the `multi_` scenario family: the traffic-analysis
/// pipeline carrying the bulk of the demand on the diurnal trace, plus the
/// social-media pipeline at a tenth of the demand on the bursty trace with a
/// 20% looser SLO — the skewed mix under which a 50/50 split starves traffic
/// while social idles.
pub fn traffic_social_lanes() -> Vec<MultiLane> {
    vec![
        MultiLane {
            name: "traffic".to_string(),
            pipeline: PipelineSpec::Traffic,
            trace: TraceSpec::AzureDiurnal,
            demand_share: 1.0,
            slo_scale: 1.0,
        },
        MultiLane {
            name: "social".to_string(),
            pipeline: PipelineSpec::Social,
            trace: TraceSpec::TwitterBursty,
            demand_share: 0.1,
            slo_scale: 1.2,
        },
    ]
}

/// A 16-tenant mix with Zipf-distributed popularity: lane `i` carries a
/// `1/(i+1)` share of the demand (normalized by the 16th harmonic number, so
/// the shares sum to 1), alternating traffic-analysis lanes on the diurnal
/// trace with social-media lanes on the bursty trace, the latter with a 20%
/// looser SLO. The long-tail skew — lane 0 alone carries ~30% of the load —
/// is what exercises both the contended arbiter and the sharded engine's
/// epoch barriers (the head lanes carry most of each epoch's events).
pub fn zipf_lanes() -> Vec<MultiLane> {
    const LANES: usize = 16;
    let harmonic: f64 = (1..=LANES).map(|k| 1.0 / k as f64).sum();
    (0..LANES)
        .map(|i| {
            let social = i % 2 == 1;
            MultiLane {
                name: format!("zipf{i:02}"),
                pipeline: if social {
                    PipelineSpec::Social
                } else {
                    PipelineSpec::Traffic
                },
                trace: if social {
                    TraceSpec::TwitterBursty
                } else {
                    TraceSpec::AzureDiurnal
                },
                demand_share: 1.0 / ((i + 1) as f64 * harmonic),
                slo_scale: if social { 1.2 } else { 1.0 },
            }
        })
        .collect()
}

/// One self-contained simulator run: everything needed to build the pipeline(s), the
/// workload, and fresh controllers on any thread. Equality compares the full spec,
/// which is what makes grid enumeration testable.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPoint {
    /// Label used in tables, sweep output, and JSON reports.
    pub label: String,
    pub pipeline: PipelineSpec,
    pub trace: TraceSpec,
    pub controller: ControllerSpec,
    /// Override of the controller's runtime drop policy (Figure 7 ablation).
    pub drop_policy: Option<DropPolicy>,
    /// When set, this point runs several pipelines on one shared cluster
    /// (`pipeline`/`trace` above are ignored in favour of the lanes).
    pub multi: Option<MultiSpec>,
    pub cfg: ExperimentConfig,
}

/// One pipeline's summary within a multi-pipeline point.
#[derive(Debug, Clone)]
pub struct PipelineSummary {
    pub name: String,
    pub summary: RunSummary,
    /// The lane's control-plane counters, when its controller tracks them
    /// (threaded out through `MultiSimulation::into_pipelines`).
    pub controller_stats: Option<ControllerStats>,
    /// The lane's per-interval metrics series (simulated time; feeds the
    /// timeline export's per-lane rows).
    pub intervals: Vec<IntervalMetrics>,
    /// Per-interval end-to-end latency histogram deltas (`timeline=true` runs
    /// only) — windowed percentiles are exact, not approximations.
    pub window: Option<Vec<loki_sim::Histogram>>,
    /// The lane's SLO error-budget analysis against its own interval series
    /// (cluster journal shared for causal attribution).
    pub burn: Option<BurnReport>,
}

/// Cluster-arbitration statistics of a multi-pipeline point.
#[derive(Debug, Clone)]
pub struct MultiStats {
    /// The arbiter that partitioned the cluster.
    pub arbiter: String,
    /// Rebalance ticks that moved at least one worker.
    pub rebalances: u64,
    /// Workers moved across pipelines over the run.
    pub migrations: u64,
}

/// The outcome of executing one [`RunPoint`].
#[derive(Debug, Clone)]
pub struct PointResult {
    pub label: String,
    /// Per-interval metrics and whole-run summary (bit-identical across repeated
    /// executions of the same point — the determinism the figure harness rests
    /// on). For multi-pipeline points this is the cluster-level aggregate.
    pub result: SimResult,
    /// Control-plane counters of the run, when the controller tracks them.
    /// For multi-pipeline points this is the sum over lanes (per-lane stats
    /// are on [`PointResult::per_pipeline`]).
    pub controller_stats: Option<ControllerStats>,
    /// Per-pipeline summaries (empty for single-pipeline points).
    pub per_pipeline: Vec<PipelineSummary>,
    /// Cluster-arbitration statistics (multi-pipeline points only).
    pub multi_stats: Option<MultiStats>,
    /// Fleet cost accounting (elastic points only).
    pub cost: Option<CostSummary>,
    /// SLO error-budget analysis of the point's (cluster-level) interval
    /// series: budget consumed, worst burn rate, and causally attributed burn
    /// episodes. Always computed — attribution falls back to the interval drop
    /// counters when the run carries no journal.
    pub burn: Option<BurnReport>,
}

impl RunPoint {
    /// The workload trace for this point. The Twitter-like trace perturbs the seed
    /// (matching the original harness) so paired traffic/social runs with the same
    /// seed do not share an arrival pattern.
    pub fn build_trace(&self) -> Trace {
        self.trace.build(
            crate::trace_seed(self.trace, self.cfg.seed),
            self.cfg.duration_s,
            self.cfg.base_qps,
            self.cfg.peak_qps,
        )
    }

    /// Reject knobs this point's traces cannot be generated from, naming the
    /// config key: a zero `duration` or `bucket`, a negative or non-finite
    /// `peak`, a `peak` whose expected arrivals pass
    /// [`loki_sim::MAX_RUN_ARRIVALS`] (each lane's `peak × duration`, its
    /// count at a constant peak rate, summed over the lanes), and, when a
    /// trace is not constant (a diurnal or bursty trace spans `base` to
    /// `peak`), a negative or non-finite `base` or one above `peak`. A
    /// constant trace runs at `peak` and ignores `base`. The `loki` CLI checks
    /// every point before it runs any, because the generators assert these
    /// and a run past the arrival limit would first generate every arrival.
    pub fn check_workload(&self) -> Result<(), String> {
        let cfg = &self.cfg;
        if cfg.duration_s == 0 {
            return Err("invalid value for duration: 0 (want at least 1 s)".into());
        }
        if cfg.bucket_s == 0 {
            return Err("invalid value for bucket: 0 (want at least 1 s)".into());
        }
        let rate = |qps: f64| qps.is_finite() && qps >= 0.0;
        if !rate(cfg.peak_qps) {
            return Err(format!(
                "invalid value for peak: {} (want a finite rate >= 0)",
                cfg.peak_qps
            ));
        }
        let shares: f64 = match &self.multi {
            Some(multi) => multi.lanes.iter().map(|l| l.demand_share).sum(),
            None => 1.0,
        };
        let expected = cfg.peak_qps * shares * cfg.duration_s as f64;
        if !(expected.is_finite() && expected <= MAX_RUN_ARRIVALS as f64) {
            return Err(format!(
                "invalid value for peak: {:?} (peak * duration over the lanes is \
                 {expected:?} expected arrivals; want at most {MAX_RUN_ARRIVALS})",
                cfg.peak_qps
            ));
        }
        let spans_base = match &self.multi {
            Some(multi) => multi.lanes.iter().any(|l| l.trace != TraceSpec::Constant),
            None => self.trace != TraceSpec::Constant,
        };
        if spans_base && !(rate(cfg.base_qps) && cfg.base_qps <= cfg.peak_qps) {
            return Err(format!(
                "invalid value for base: {} (want a finite rate in [0, peak={}] \
                 on a diurnal or bursty trace)",
                cfg.base_qps, cfg.peak_qps
            ));
        }
        Ok(())
    }

    /// Execute the point: build graph, trace, and arrivals, run the simulator
    /// once, and return the result, or the [`EngineError`] the run stopped on.
    pub fn execute(&self) -> Result<PointResult, EngineError> {
        if let Some(multi) = &self.multi {
            return self.execute_multi(multi);
        }
        let graph = self.pipeline.build(self.cfg.slo_ms);
        let trace = self.build_trace();
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, self.cfg.seed);
        let links = self.cfg.links.to_model();
        let mut config = crate::sim_config(&self.cfg, &trace);
        config.elastic = crate::elastic_sim_config(&self.cfg, graph.num_tasks(), trace.mean_qps());
        let controller = self
            .controller
            .build(&graph, self.drop_policy, &links, self.cfg.route);
        let interval_s = config.metrics_interval_s;
        let mut sim = Simulation::new(&graph, config, controller);
        let result = match self.cfg.elastic {
            ElasticMode::Autoscale => {
                let mut policy =
                    crate::provisioner_policy(&self.cfg, graph.num_tasks(), trace.mean_qps());
                sim.try_run_elastic(&arrivals, &mut *policy)?
            }
            _ => sim.try_run(&arrivals)?,
        };
        let controller_stats = sim.into_controller().controller_stats().cloned();
        let burn = analyze_burn(&result.intervals, interval_s, result.journal.as_ref());
        Ok(PointResult {
            label: self.label.clone(),
            cost: result.cost.clone(),
            burn: Some(burn),
            result,
            controller_stats,
            per_pipeline: Vec::new(),
            multi_stats: None,
        })
    }

    /// Execute a multi-pipeline point: every lane's pipeline, trace, and
    /// arrivals are built from the shared experiment knobs (scaled by the
    /// lane's `demand_share`/`slo_scale`), fresh controllers are constructed
    /// per lane, and one engine run serves them all on the shared cluster
    /// under the mode's arbiter.
    fn execute_multi(&self, spec: &MultiSpec) -> Result<PointResult, EngineError> {
        assert!(
            !spec.lanes.is_empty(),
            "multi point needs at least one lane"
        );
        let cfg = &self.cfg;
        let links = cfg.links.to_model();
        let graphs: Vec<PipelineGraph> = spec
            .lanes
            .iter()
            .map(|lane| lane.pipeline.build(cfg.slo_ms * lane.slo_scale))
            .collect();
        let traces: Vec<Trace> = spec
            .lanes
            .iter()
            .map(|lane| {
                lane.trace.build(
                    crate::trace_seed(lane.trace, cfg.seed),
                    cfg.duration_s,
                    cfg.base_qps * lane.demand_share,
                    cfg.peak_qps * lane.demand_share,
                )
            })
            .collect();
        // Lane 0 keeps the experiment seed (comparable with single-pipeline
        // runs); later lanes perturb it so co-served frontends do not share an
        // arrival pattern.
        let arrivals: Vec<Vec<f64>> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| {
                generate_arrivals(
                    trace,
                    ArrivalProcess::Poisson,
                    cfg.seed.wrapping_add(i as u64 * 7919),
                )
            })
            .collect();
        let offered: Vec<f64> = traces.iter().map(Trace::mean_qps).collect();
        // Elastic sizing for the shared cluster: the combined footprint and
        // offered load across lanes.
        let total_tasks: usize = graphs.iter().map(|g| g.num_tasks()).sum();
        let offered_total: f64 = offered.iter().sum();

        let mut config = crate::sim_config(cfg, &traces[0]);
        config.initial_demand_hint = None;
        config.elastic = crate::elastic_sim_config(cfg, total_tasks, offered_total);
        let mut sim: MultiSimulation<'_, AnyController> = MultiSimulation::new(MultiSimConfig {
            sim: config,
            jobs: cfg.jobs.max(1),
        });
        for ((i, lane), arrivals_s) in spec.lanes.iter().enumerate().zip(arrivals) {
            sim.add_pipeline(MultiPipeline {
                name: lane.name.clone(),
                graph: &graphs[i],
                controller: self
                    .controller
                    .build(&graphs[i], self.drop_policy, &links, cfg.route),
                arrivals_s,
                initial_demand_hint: Some(traces[i].qps_at(0).max(1.0)),
            });
        }
        let mut arbiter = spec.mode.arbiter(&offered);
        let outcome = match cfg.elastic {
            ElasticMode::Autoscale => {
                let mut policy = crate::provisioner_policy(cfg, total_tasks, offered_total);
                sim.try_run_elastic(&mut *arbiter, &mut *policy)?
            }
            _ => sim.try_run(&mut *arbiter)?,
        };
        // Thread each lane's control-plane counters out of the run.
        let lane_stats: Vec<Option<ControllerStats>> = sim
            .into_pipelines()
            .iter()
            .map(|p| p.controller.controller_stats().cloned())
            .collect();
        // The point-level stats aggregate the lanes (the shared run has one
        // control plane, spread across every lane's controller).
        let controller_stats = lane_stats.iter().flatten().cloned().reduce(|mut a, b| {
            a.allocations += b.allocations;
            a.routings += b.routings;
            a.routing_cache_consults += b.routing_cache_consults;
            a.routing_cache_hits += b.routing_cache_hits;
            a.routing_warnings.extend(b.routing_warnings);
            a.routing_warnings_total += b.routing_warnings_total;
            a
        });
        let result = outcome.aggregate(cfg.cluster_size);
        // Burn analysis: the cluster series against the cluster journal, and
        // each lane's own series against the same (shared) journal — one
        // revocation storm can burn several lanes' budgets at once.
        let interval_s = outcome.metrics_interval_s;
        let burn = analyze_burn(&result.intervals, interval_s, result.journal.as_ref());
        Ok(PointResult {
            label: self.label.clone(),
            cost: outcome.cost.clone(),
            result,
            controller_stats,
            per_pipeline: outcome
                .pipelines
                .iter()
                .zip(lane_stats)
                .map(|(p, controller_stats)| PipelineSummary {
                    name: p.name.clone(),
                    summary: p.result.summary.clone(),
                    controller_stats,
                    intervals: p.result.intervals.clone(),
                    window: p.result.window.clone(),
                    burn: Some(analyze_burn(
                        &p.result.intervals,
                        interval_s,
                        outcome.journal.as_ref(),
                    )),
                })
                .collect(),
            multi_stats: Some(MultiStats {
                arbiter: outcome.arbiter.clone(),
                rebalances: outcome.rebalances,
                migrations: outcome.migrations,
            }),
            burn: Some(burn),
        })
    }
}

/// The pipeline mixes a multi-pipeline scenario can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneSet {
    /// The skewed two-lane traffic+social mix ([`traffic_social_lanes`]).
    TrafficSocial,
    /// Sixteen tenants with Zipf-distributed popularity ([`zipf_lanes`]) —
    /// the lane count that gives the sharded parallel engine real fan-out.
    Zipf16,
}

impl LaneSet {
    /// Build the lanes of this mix.
    pub fn lanes(self) -> Vec<MultiLane> {
        match self {
            LaneSet::TrafficSocial => traffic_social_lanes(),
            LaneSet::Zipf16 => zipf_lanes(),
        }
    }
}

/// Which figure archetype a scenario reproduces; decides how its report is computed
/// and rendered (see `crate::figures`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Three-system end-to-end comparison with stacked time series (Figures 5/6).
    Comparison,
    /// Loki accuracy/violation sensitivity across the SLO axis (Figure 8).
    SloSweep,
    /// Runtime drop-policy ablation (Figure 7).
    DropPolicyAblation,
    /// Analytic hardware→accuracy scaling phase diagram (Figure 1).
    PhaseDiagram,
    /// Accuracy/throughput trade-off table of the model zoo (Figure 3).
    TradeoffTable,
    /// Greedy vs MILP allocator ablation (Section 6.5 complement).
    AllocatorAblation,
    /// Multiplicative-factor awareness ablation (Section 2.2.1 failure mode).
    MultFactorAblation,
    /// MILP allocator runtime probe.
    MilpProbe,
    /// Headline capacity/efficiency numbers (abstract / Section 6.2).
    CapacityTable,
    /// One Loki-greedy run at trace scale, reported as its simulated outcome
    /// (host speed is measured by the reference benchmark,
    /// `benchmark/README.md`).
    Throughput,
    /// Several pipelines on one shared cluster under a resource arbiter
    /// (Section 7's contended multi-pipeline serving), over a named lane mix.
    MultiPipeline(MultiMode, LaneSet),
    /// Elastic provisioning comparison: the same workload under static-peak,
    /// static-mean, and autoscaled fleets, with cost accounting (the
    /// cost/SLO/accuracy trade-off the `elastic_` family studies).
    Elastic,
    /// Adversarial-cloud comparison: the same workload on an all-on-demand
    /// fleet vs a spot-enabled fleet under revocations, price dynamics, and
    /// stockouts, driven by the reactive and the forecasting provisioner
    /// (the `spot_` family).
    Spot,
}

/// A registered experiment: a named, declarative description of one figure or table
/// of the evaluation. `defaults` is a function pointer so the registry can stay a
/// `const` table while `ExperimentConfig` carries floats.
#[derive(Clone)]
pub struct Scenario {
    pub name: &'static str,
    pub title: &'static str,
    pub kind: ScenarioKind,
    pub pipeline: PipelineSpec,
    pub trace: TraceSpec,
    pub defaults: fn() -> ExperimentConfig,
}

impl Scenario {
    /// The default configuration of this scenario.
    pub fn config(&self) -> ExperimentConfig {
        (self.defaults)()
    }

    /// The multi-pipeline spec of a [`ScenarioKind::MultiPipeline`] scenario:
    /// its arbitration mode over its registered lane mix.
    pub fn multi_spec(&self) -> Option<MultiSpec> {
        match self.kind {
            ScenarioKind::MultiPipeline(mode, lane_set) => Some(MultiSpec {
                mode,
                lanes: lane_set.lanes(),
            }),
            _ => None,
        }
    }
}

/// The canonical [`RunPoint`] of a scenario: Loki-greedy controllers, default
/// drop policy, and the scenario's multi-pipeline spec when it has one. The
/// sweeps behind every simulator-driven report, `--trace` and `--timeline`
/// all start from this.
pub fn scenario_point(sc: &Scenario, cfg: &ExperimentConfig) -> RunPoint {
    RunPoint {
        label: sc.name.to_string(),
        pipeline: sc.pipeline,
        trace: sc.trace,
        controller: ControllerSpec::LokiGreedy,
        drop_policy: None,
        multi: sc.multi_spec(),
        cfg: cfg.clone(),
    }
}

fn base_cfg() -> ExperimentConfig {
    ExperimentConfig::default()
}

fn fig5_cfg() -> ExperimentConfig {
    ExperimentConfig::default()
}

fn fig6_cfg() -> ExperimentConfig {
    ExperimentConfig {
        peak_qps: 1200.0,
        base_qps: 60.0,
        ..ExperimentConfig::default()
    }
}

fn fig7_cfg() -> ExperimentConfig {
    ExperimentConfig {
        duration_s: 300,
        peak_qps: 1100.0,
        base_qps: 700.0,
        ..ExperimentConfig::default()
    }
}

fn fig8_cfg() -> ExperimentConfig {
    ExperimentConfig {
        duration_s: 600,
        ..ExperimentConfig::default()
    }
}

fn capacity_cfg() -> ExperimentConfig {
    ExperimentConfig {
        duration_s: 900,
        ..ExperimentConfig::default()
    }
}

fn smoke_cfg() -> ExperimentConfig {
    ExperimentConfig {
        duration_s: 30,
        peak_qps: 120.0,
        base_qps: 120.0,
        bucket_s: 10,
        drain_s: 10.0,
        ..ExperimentConfig::default()
    }
}

fn traffic_hetnet_cfg() -> ExperimentConfig {
    // One million arrivals (2000 QPS x 500 s) on a two-tier interconnect:
    // PCIe-fast intra-class hops (0.2 ms) mixed with 5 ms cross-class hops,
    // which exercises the calendar queue's out-of-order delivery scheduling at
    // trace scale. `links=uniform` gives the same run on the paper's
    // homogeneous 2 ms testbed.
    ExperimentConfig {
        cluster_size: 100,
        duration_s: 500,
        peak_qps: 2000.0,
        base_qps: 2000.0,
        seed: 11,
        drain_s: 10.0,
        links: LinkProfile::TwoTier,
        ..ExperimentConfig::default()
    }
}

fn traffic_hetnet_linkaware_cfg() -> ExperimentConfig {
    // The two-tier hetnet workload with link-aware routing: same interconnect,
    // same trace, but the Load Balancer breaks equal-accuracy ties toward
    // intra-class (0.2 ms) hops instead of spreading across the 5 ms tier
    // boundary, and the allocator budgets the SLO with per-hop link delays
    // instead of taxing every hop at the worst-case 5 ms.
    ExperimentConfig {
        route: RouteMode::LinkAware,
        ..traffic_hetnet_cfg()
    }
}

fn elastic_diurnal_cfg() -> ExperimentConfig {
    // The fig5 diurnal day compressed to 10 minutes: a deep off-peak valley
    // (~80 QPS) against a 1500 QPS evening peak. A peak-sized static fleet
    // (20 workers) idles through most of the run — exactly the gap between
    // provision-for-peak cost and autoscaled cost the elastic_ family pins.
    ExperimentConfig {
        duration_s: 600,
        peak_qps: 1500.0,
        base_qps: 80.0,
        bucket_s: 60,
        elastic: ElasticMode::Autoscale,
        ..ExperimentConfig::default()
    }
}

fn spot_diurnal_cfg() -> ExperimentConfig {
    // The elastic diurnal day on an adversarial cloud: a spot twin of the
    // reference class at a deep discount, ~1 revocation per spot worker per
    // compressed day (6/h over the 600 s run), occasional stockouts, and the
    // stepwise spot-price schedule of `market_config`. The forecasting
    // provisioner is the canonical driver; the `spot_` executor compares it
    // against the reactive autoscaler and an all-on-demand fleet. The fleet
    // cap carries slack over the peak (28 against elastic_diurnal's
    // peak-sized 20): on an adversarial cloud the interesting question is
    // how a policy absorbs revocation dips and boot lag, and a cap pinned
    // exactly at peak demand drowns that signal in saturation noise every
    // policy suffers alike.
    ExperimentConfig {
        cluster_size: 28,
        duration_s: 600,
        peak_qps: 1500.0,
        base_qps: 80.0,
        bucket_s: 60,
        elastic: ElasticMode::Autoscale,
        spot: true,
        revoke_per_hour: 6.0,
        stockout: 0.05,
        provisioner: crate::ProvisionerKind::Forecast,
        ..ExperimentConfig::default()
    }
}

fn multi_cfg() -> ExperimentConfig {
    // The skewed-demand shared-cluster mix: the traffic pipeline peaks at
    // 1600 QPS — far past what half the cluster can serve even at minimum
    // accuracy (~880 QPS on 10 workers), so a 50/50 split collapses at peak —
    // while social carries a tenth of the load. The contended Resource
    // Manager re-weights the partition to roughly 17:3 and serves both.
    ExperimentConfig {
        cluster_size: 20,
        duration_s: 300,
        peak_qps: 1600.0,
        base_qps: 200.0,
        bucket_s: 60,
        drain_s: 20.0,
        ..ExperimentConfig::default()
    }
}

fn multi_zipf_cfg() -> ExperimentConfig {
    // Sixteen Zipf-popularity tenants on a 64-worker cluster: enough lanes
    // that the sharded engine has real fan-out (the reference benchmark's
    // `zipf16_shared` workload, see benchmark/README.md, runs the same mix),
    // and enough demand skew that the contended arbiter's partition tracks
    // the 1/rank popularity curve.
    ExperimentConfig {
        cluster_size: 64,
        duration_s: 600,
        peak_qps: 1600.0,
        base_qps: 400.0,
        bucket_s: 60,
        drain_s: 10.0,
        ..ExperimentConfig::default()
    }
}

/// The scenario registry: every former figure/ablation/capacity binary, plus the
/// trace-scale, elastic, spot and shared-cluster scenarios. `loki list` prints
/// this table.
pub const REGISTRY: &[Scenario] = &[
    Scenario {
        name: "fig1_phases",
        title: "Phase diagram: hardware -> accuracy scaling transitions (Figure 1)",
        kind: ScenarioKind::PhaseDiagram,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: base_cfg,
    },
    Scenario {
        name: "fig3_tradeoff",
        title: "Accuracy/throughput trade-off per model family (Figure 3)",
        kind: ScenarioKind::TradeoffTable,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::Constant,
        defaults: base_cfg,
    },
    Scenario {
        name: "fig5_traffic",
        title: "End-to-end comparison, traffic pipeline, diurnal trace (Figure 5)",
        kind: ScenarioKind::Comparison,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: fig5_cfg,
    },
    Scenario {
        name: "fig6_social",
        title: "End-to-end comparison, social pipeline, bursty trace (Figure 6)",
        kind: ScenarioKind::Comparison,
        pipeline: PipelineSpec::Social,
        trace: TraceSpec::TwitterBursty,
        defaults: fig6_cfg,
    },
    Scenario {
        name: "fig7_ablation",
        title: "Load-balancer drop-policy ablation on an overload segment (Figure 7)",
        kind: ScenarioKind::DropPolicyAblation,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: fig7_cfg,
    },
    Scenario {
        name: "fig8_slo_sweep",
        title: "SLO sensitivity: accuracy and violations vs latency SLO (Figure 8)",
        kind: ScenarioKind::SloSweep,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: fig8_cfg,
    },
    Scenario {
        name: "ablation_allocator",
        title: "Resource-Manager ablation: greedy vs exact MILP allocator",
        kind: ScenarioKind::AllocatorAblation,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::Constant,
        defaults: base_cfg,
    },
    Scenario {
        name: "ablation_multfactor",
        title: "Multiplicative-factor awareness ablation (per-task shortfall)",
        kind: ScenarioKind::MultFactorAblation,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::Constant,
        defaults: base_cfg,
    },
    Scenario {
        name: "capacity_table",
        title: "Headline capacity/violation/off-peak ratios (T-CAP)",
        kind: ScenarioKind::CapacityTable,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: capacity_cfg,
    },
    Scenario {
        name: "milp_probe",
        title: "MILP allocator runtime probe",
        kind: ScenarioKind::MilpProbe,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::Constant,
        defaults: base_cfg,
    },
    Scenario {
        name: "smoke",
        title: "Fast end-to-end comparison for CI smoke runs (30 s sim)",
        kind: ScenarioKind::Comparison,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::Constant,
        defaults: smoke_cfg,
    },
    Scenario {
        name: "traffic_hetnet",
        title: "Heterogeneous per-link delays: 1M arrivals on a two-tier interconnect",
        kind: ScenarioKind::Throughput,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::Constant,
        defaults: traffic_hetnet_cfg,
    },
    Scenario {
        name: "traffic_hetnet_linkaware",
        title: "Heterogeneous per-link delays with link-aware routing and per-hop budgets",
        kind: ScenarioKind::Throughput,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::Constant,
        defaults: traffic_hetnet_linkaware_cfg,
    },
    Scenario {
        name: "elastic_diurnal",
        title: "Elastic fleet: static-peak vs static-mean vs autoscaled provisioning, with cost",
        kind: ScenarioKind::Elastic,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: elastic_diurnal_cfg,
    },
    Scenario {
        name: "spot_diurnal",
        title:
            "Adversarial cloud: spot revocations and price dynamics vs the forecasting provisioner",
        kind: ScenarioKind::Spot,
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: spot_diurnal_cfg,
    },
    Scenario {
        name: "multi_traffic_social",
        title: "Shared cluster: traffic + social pipelines under the contended Resource Manager",
        kind: ScenarioKind::MultiPipeline(MultiMode::Contended, LaneSet::TrafficSocial),
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: multi_cfg,
    },
    Scenario {
        name: "multi_static_split",
        title: "Shared cluster: traffic + social pipelines on a naive static 50/50 split",
        kind: ScenarioKind::MultiPipeline(MultiMode::StaticEven, LaneSet::TrafficSocial),
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: multi_cfg,
    },
    Scenario {
        name: "multi_oracle_split",
        title: "Shared cluster: traffic + social pipelines on an oracle offered-load split",
        kind: ScenarioKind::MultiPipeline(MultiMode::OracleSplit, LaneSet::TrafficSocial),
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: multi_cfg,
    },
    Scenario {
        name: "multi_zipf_16",
        title: "Shared cluster: 16 Zipf-popularity tenants under the contended Resource Manager",
        kind: ScenarioKind::MultiPipeline(MultiMode::Contended, LaneSet::Zipf16),
        pipeline: PipelineSpec::Traffic,
        trace: TraceSpec::AzureDiurnal,
        defaults: multi_zipf_cfg,
    },
];

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<_> = REGISTRY.iter().map(|s| s.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate scenario names");
        for sc in REGISTRY {
            assert!(find(sc.name).is_some());
            // Defaults must be constructible and sane.
            let cfg = sc.config();
            assert_eq!(
                scenario_point(sc, &cfg).check_workload(),
                Ok(()),
                "{}",
                sc.name
            );
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn check_workload_rejects_a_zero_bucket_and_a_peak_past_the_arrival_limit() {
        let check = |name: &str, overrides: &[&str]| {
            let sc = find(name).expect("registered");
            let mut cfg = sc.config();
            cfg.apply_overrides(overrides.iter().copied()).unwrap();
            scenario_point(sc, &cfg).check_workload()
        };
        let bucket = check("fig5_traffic", &["bucket=0"]).unwrap_err();
        assert!(
            bucket.starts_with("invalid value for bucket: 0"),
            "{bucket}"
        );
        assert_eq!(check("fig5_traffic", &["bucket=1"]), Ok(()));
        // Only the expected count is checked, so no arrival is generated.
        let peak = check("fig5_traffic", &["peak=1e300", "base=0", "duration=2"]).unwrap_err();
        assert!(peak.starts_with("invalid value for peak: 1e300"), "{peak}");
        let past = check("fig5_traffic", &["peak=1e308", "duration=1200"]).unwrap_err();
        assert!(past.contains("inf expected arrivals"), "{past}");
        // The limit applies to the sum over lanes: the Zipf lanes' shares
        // sum to 1, so the point expects `peak × duration` arrivals.
        let zipf = |peak: &str| check("multi_zipf_16", &[peak, "base=0", "duration=1000"]);
        assert_eq!(zipf("peak=4294967"), Ok(()));
        assert!(zipf("peak=4294968").is_err());
    }

    #[test]
    fn every_former_binary_is_registered() {
        for name in [
            "fig1_phases",
            "fig3_tradeoff",
            "fig5_traffic",
            "fig6_social",
            "fig7_ablation",
            "fig8_slo_sweep",
            "ablation_allocator",
            "ablation_multfactor",
            "capacity_table",
            "milp_probe",
        ] {
            assert!(find(name).is_some(), "{name} missing from registry");
        }
    }

    #[test]
    fn controller_spec_round_trips_and_builds_fresh_controllers() {
        let graph = zoo::tiny_pipeline(100.0);
        for spec in ControllerSpec::ALL {
            assert_eq!(ControllerSpec::from_name(spec.name()), Some(spec));
            let ctl = spec.build(
                &graph,
                Some(DropPolicy::PerTask),
                &LinkDelayModel::Uniform,
                RouteMode::Accuracy,
            );
            assert!(!ctl.name().is_empty());
        }
        assert_eq!(ControllerSpec::from_name("gurobi"), None);
        // Loki controllers expose stats; baselines do not.
        assert!(ControllerSpec::LokiGreedy
            .build(&graph, None, &LinkDelayModel::Uniform, RouteMode::Accuracy)
            .controller_stats()
            .is_some());
        assert!(ControllerSpec::Proteus
            .build(&graph, None, &LinkDelayModel::Uniform, RouteMode::Accuracy)
            .controller_stats()
            .is_none());
    }

    #[test]
    fn controllers_budget_with_the_link_delay_model() {
        let graph = zoo::tiny_pipeline(100.0);
        let links = LinkProfile::TwoTier.to_model();
        // Loki mirrors the model; the baselines budget with its worst hop.
        let AnyController::Loki(loki) =
            ControllerSpec::LokiGreedy.build(&graph, None, &links, RouteMode::Accuracy)
        else {
            panic!("loki spec must build a loki controller");
        };
        assert_eq!(loki.config().link_delays, links);
        assert_eq!(loki.config().effective_comm_ms(), 5.0);
        let AnyController::InferLine(inferline) =
            ControllerSpec::InferLine.build(&graph, None, &links, RouteMode::Accuracy)
        else {
            panic!("inferline spec must build an inferline controller");
        };
        assert_eq!(inferline.config().comm_latency_ms, 5.0);
        let AnyController::Proteus(proteus) =
            ControllerSpec::Proteus.build(&graph, None, &links, RouteMode::Accuracy)
        else {
            panic!("proteus spec must build a proteus controller");
        };
        assert_eq!(proteus.config().comm_latency_ms, 5.0);
    }

    #[test]
    fn traffic_hetnet_scenario_is_registered_with_two_tier_links() {
        let sc = find("traffic_hetnet").expect("traffic_hetnet registered");
        let cfg = sc.config();
        assert_eq!(cfg.links, LinkProfile::TwoTier);
        assert_ne!(cfg.links.to_model(), LinkDelayModel::Uniform);
    }

    #[test]
    fn run_point_execution_is_deterministic() {
        let point = RunPoint {
            label: "det".to_string(),
            pipeline: PipelineSpec::Traffic,
            trace: TraceSpec::Constant,
            controller: ControllerSpec::LokiGreedy,
            drop_policy: None,
            multi: None,
            cfg: ExperimentConfig {
                duration_s: 10,
                peak_qps: 100.0,
                base_qps: 100.0,
                drain_s: 5.0,
                ..ExperimentConfig::default()
            },
        };
        let a = point.execute().expect("the point runs");
        let b = point.execute().expect("the point runs");
        assert_eq!(a.result.summary, b.result.summary);
        assert!(a.result.summary.total_arrivals > 0);
    }
}
