//! The discrete-event simulation engine: a sharded driver over per-lane shards.
//!
//! The engine owns the cluster state (the worker fleet, the owner map,
//! elastic-fleet accounting) and the *cluster-level* event queue (rebalance and
//! elastic ticks, boot completions, unload cooldowns of free workers). Everything
//! lane-local — the calendar queue of ticks and deliveries, the arrival cursor,
//! the batch-completion heap, routing, metrics — lives in one `Shard` per
//! pipeline (see `crate::shard`).
//!
//! # Sharded execution with an epoch-barrier merge
//!
//! Between two cluster events, lanes are data-independent: a warm worker is owned
//! by exactly one lane (`Engine::owner`), and each shard is lent `&mut` access
//! to its own workers only (`crate::shard`'s module docs), so nothing mutable
//! is shared. The driver exploits that: it advances every shard up to the next
//! cluster-event timestamp (the *epoch barrier*), then — single-threaded —
//! settles the shards' retirements and applies the cluster events
//! (repartitions, fleet scaling, boot completions). With `jobs > 1` the shards
//! of one epoch run on separate worker threads (`crate::par::par_map`, the same
//! bounded scoped pool the bench harness uses); with `jobs = 1` they run inline
//! on the calling thread in lane order.
//!
//! **Parallel is bit-identical to serial.** Each shard draws event sequence
//! numbers from its own lane-salted counter, so a lane's internal event order —
//! the only order that affects its results — is independent of how lanes
//! interleave on wall-clock time. Cluster events at a barrier run before
//! same-timestamp lane events, in both modes. The bit-identity tests pin
//! `jobs ∈ {1, 2, 4}` against each other across seeds, and the single-lane
//! determinism goldens pin the sharded path against the historical global-heap
//! engine.
//!
//! # Hot-path architecture
//!
//! The engine is the substrate for every figure sweep, so its per-event cost is
//! kept allocation- and hash-free. Per lane (see `crate::shard` for details):
//! a generational [`Slab`](crate::slab::Slab) arena for root-request state, a
//! calendar-queue scheduler with O(1) amortized insert/pop, compiled per-link
//! delay tables, dense observability counters, Vose alias tables for O(1)
//! weighted routing (epoch-guarded against staleness), and reused scratch
//! buffers. Trace arrivals come from sorted per-lane arrays behind cursors;
//! batch completions (at most one per worker) live in per-lane min-heaps. Each
//! shard's dispatch loop merges its three sources by `(time, seq)`, exactly the
//! order a single heap would produce.
//!
//! # One checked entry
//!
//! Every simulation runs through one crate-private entry, `run`: it checks
//! the run's inputs once (at least one lane; an elastic policy only with a
//! valid [`SimConfig::elastic`]; every pipeline graph valid; every lane's link
//! table compiles), builds the engine from the checked values and runs it.
//! [`Simulation`] is a one-lane run of it and [`crate::MultiSimulation`] a
//! several-lane one; each lane arrives paired with its controller. A caller
//! error comes back as [`EngineError::InvalidRun`] before any event runs, and
//! impossible-but-unchecked scheduler states surface as a structured
//! [`EngineError`] instead of a bare `unwrap` panic.
//!
//! Determinism is unchanged: all hot-path state is iterated in dense index
//! order, and every stochastic choice consumes draws from its lane's seeded RNG
//! (lane 0 uses `SimConfig::seed` exactly). The reference benchmark
//! (`benchmark/README.md`) measures the resulting throughput.

use crate::calendar::CalendarGeometry;
use crate::elastic::{ElasticAction, ElasticObservation, ElasticPolicy, WorkerClassCatalog};
use crate::journal::{Journal, JournalKind, CLUSTER_LANE};
use crate::metrics::{ClassCost, CostSummary, IntervalMetrics, RunSummary};
use crate::multi::{ArbiterObservation, ResourceArbiter};
use crate::par::par_map;
use crate::shard::{
    fallback_worker_for_task, retire, DropCause, LaneCtx, LaneEvent, LaneState, Retirement, Shard,
    FREE,
};
use crate::slab::SlotRef;
use crate::trace::{Histogram, SpanKind, TraceLog, NO_ID};
use crate::types::{
    ms_to_us, secs_to_us, CompiledLinkDelays, Controller, Query, SimConfig, SimTime, WorkerId,
};
use crate::worker::{Lifecycle, Worker};
use loki_pipeline::PipelineGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(crate) use crate::shard::LaneInput;

/// The result of one simulation run (one pipeline's view of it).
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-interval metrics (one entry per metrics interval).
    pub intervals: Vec<IntervalMetrics>,
    /// Whole-run summary.
    pub summary: RunSummary,
    /// Fleet cost accounting — `Some` only for elastic runs
    /// ([`SimConfig::elastic`]); cluster-level, so in a multi-pipeline run it
    /// appears on the aggregate result, not the per-pipeline ones.
    pub cost: Option<CostSummary>,
    /// End-to-end latency histogram of served roots — `Some` unless
    /// `observe.histograms` was turned off.
    pub latency: Option<crate::trace::Histogram>,
    /// Sampled query traces — `Some` only when `observe.trace_sample > 0`.
    pub trace: Option<crate::trace::TraceLog>,
    /// Per-interval end-to-end latency histogram deltas, index-aligned with
    /// `intervals` — `Some` only when `observe.timeline` is on. Each row is
    /// the exact histogram of the queries that finished inside that interval,
    /// stored from its lowest to its highest occupied bucket. `latency` is
    /// folded from these rows, so merging every row reproduces it
    /// bit-for-bit.
    pub window: Option<Vec<crate::trace::Histogram>>,
    /// The cluster event journal — `Some` only when `observe.timeline` is on.
    /// Cluster-level, so in a multi-pipeline run it appears on the aggregate
    /// result, not the per-pipeline ones.
    pub journal: Option<Journal>,
}

impl SimResult {
    /// A result without cost or journal whose summary reads its
    /// `[p50, p90, p99, p999]` off `latency`: how each lane's observer and
    /// the multi-pipeline aggregate finish.
    pub(crate) fn new(
        intervals: Vec<IntervalMetrics>,
        mut summary: RunSummary,
        latency: Option<Histogram>,
        trace: Option<TraceLog>,
        window: Option<Vec<Histogram>>,
    ) -> Self {
        if let Some(l) = &latency {
            let s = &mut summary;
            [s.p50_ms, s.p90_ms, s.p99_ms, s.p999_ms] = l.percentiles_ms();
        }
        Self {
            intervals,
            summary,
            cost: None,
            latency,
            trace,
            window,
            journal: None,
        }
    }
}

/// A structured engine error: an engine invariant violation, an
/// out-of-range value returned through a public trait ([`Controller`],
/// [`ResourceArbiter`], [`ElasticPolicy`]), or a run that cannot start. The
/// dispatch loop and root bookkeeping guard their impossible-but-unchecked
/// states with these instead of bare `unwrap`s, so a scheduler-refactor
/// regression reports what broke, where in simulated time, and after how
/// many events; a bad trait output is named with its offending index and the
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The dispatch loop selected an event source whose queue turned out empty.
    EmptyEventSource {
        /// Which source ("scheduler", "arrival", "batch").
        source: &'static str,
        /// Simulated time at the failure, µs.
        now_us: SimTime,
        /// Events processed before the failure.
        events_processed: u64,
    },
    /// A query referenced a root slab slot that no longer exists even though
    /// its `outstanding` count said sub-queries were still in flight.
    MissingRoot {
        /// The handler that tripped ("drop", "complete").
        context: &'static str,
        /// Simulated time at the failure, µs.
        now_us: SimTime,
    },
    /// The [`ResourceArbiter`] returned a partition that does not size every
    /// pipeline exactly once.
    PartitionLength {
        /// Entries in the returned partition.
        len: usize,
        /// Pipelines in the run.
        lanes: usize,
        /// Simulated time of the arbiter call, µs.
        now_us: SimTime,
    },
    /// An [`ElasticPolicy`] action named a worker class outside the catalog.
    UnknownClass {
        /// The action ("provision", "drain").
        action: &'static str,
        /// The class index it named.
        class: usize,
        /// Classes in the catalog.
        classes: usize,
        /// Simulated time of the elastic tick, µs.
        now_us: SimTime,
    },
    /// A [`Controller`]'s allocation plan named a model variant outside its
    /// pipeline.
    UnknownVariant {
        /// Which part of the plan ("plan instance", "latency budget").
        input: &'static str,
        /// The pipeline lane whose controller emitted the plan.
        lane: u32,
        /// The task index of the named variant.
        task: usize,
        /// The variant index within that task.
        variant: usize,
        /// Simulated time of the control tick, µs.
        now_us: SimTime,
    },
    /// A revoked worker's grace period expired with a batch still running,
    /// but the worker was in the free pool, so no lane can re-queue the
    /// aborted queries.
    UnownedBatch {
        /// The revoked worker.
        worker: usize,
        /// Simulated time of the revocation deadline, µs.
        now_us: SimTime,
    },
    /// A `try_run*` call that cannot start: a multi-pipeline run with no
    /// pipeline registered, an elastic policy without [`SimConfig::elastic`],
    /// an invalid [`SimConfig::elastic`], an invalid pipeline graph, or a
    /// [`SimConfig::link_delays`] that is invalid or names an edge outside a
    /// lane's pipeline.
    InvalidRun {
        /// What the run is missing.
        reason: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyEventSource {
                source,
                now_us,
                events_processed,
            } => write!(
                f,
                "engine invariant violated: {source} event source empty after being \
                 selected by the dispatch merge (now = {now_us} us, \
                 {events_processed} events processed)"
            ),
            EngineError::MissingRoot { context, now_us } => write!(
                f,
                "engine invariant violated: root state missing in the {context} \
                 handler while sub-queries were outstanding (now = {now_us} us)"
            ),
            EngineError::PartitionLength { len, lanes, now_us } => write!(
                f,
                "resource arbiter returned a partition of {len} entries for \
                 {lanes} pipelines (now = {now_us} us)"
            ),
            EngineError::UnknownClass {
                action,
                class,
                classes,
                now_us,
            } => write!(
                f,
                "elastic policy asked to {action} class {class} outside the \
                 {classes}-class catalog (now = {now_us} us)"
            ),
            EngineError::UnknownVariant {
                input,
                lane,
                task,
                variant,
                now_us,
            } => write!(
                f,
                "controller of lane {lane} named variant {variant} of task {task} \
                 in a {input}, outside its pipeline (now = {now_us} us)"
            ),
            EngineError::UnownedBatch { worker, now_us } => write!(
                f,
                "engine invariant violated: revoked worker {worker} had a batch \
                 in flight at its deadline but no owning lane (now = {now_us} us)"
            ),
            EngineError::InvalidRun { reason } => write!(f, "cannot start the run: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One lane of a run: the pipeline it serves and the controller serving it.
pub(crate) type Lane<'a> = (LaneInput<'a>, &'a mut dyn Controller);

/// What [`run`] returns: each lane's result plus the cluster-level outputs.
pub(crate) struct RunOutput {
    /// Each lane's result, in lane order. Cost and journal are cluster-level,
    /// so they are on this output, not on a lane's result.
    pub(crate) results: Vec<SimResult>,
    /// Each lane's `(wall_s, barrier_wait_s)`: wall-clock seconds its shard
    /// spent executing events, and the estimated seconds it waited on slower
    /// shards at epoch barriers.
    pub(crate) timings: Vec<(f64, f64)>,
    /// All events processed: the cluster-level ones plus every lane's own
    /// (including swap completions of workers nobody owned).
    pub(crate) total_events: u64,
    /// Arbiter invocations that moved workers.
    pub(crate) rebalances: u64,
    /// Workers moved across lanes over the whole run.
    pub(crate) migrations: u64,
    /// Whole-run fleet cost (elastic runs only).
    pub(crate) cost: Option<CostSummary>,
    /// The cluster event journal with every lane's plan installs merged in
    /// (`observe.timeline` runs only).
    pub(crate) journal: Option<Journal>,
}

impl RunOutput {
    /// The one result of a one-lane run, carrying the cluster's cost and
    /// journal.
    pub(crate) fn into_single(self) -> Result<SimResult, EngineError> {
        let Some(result) = self.results.into_iter().next() else {
            return Err(NO_LANES);
        };
        Ok(SimResult {
            cost: self.cost,
            journal: self.journal,
            ..result
        })
    }
}

/// A run without lanes.
const NO_LANES: EngineError = EngineError::InvalidRun {
    reason: "register at least one pipeline before running",
};

/// The one entry of every simulation: check the run's inputs, build the
/// engine from them and run it. A run needs at least one lane, an elastic
/// `policy` needs a valid [`SimConfig::elastic`], every lane's graph must be
/// valid, and [`SimConfig::link_delays`] must compile for every lane's
/// pipeline; anything else is [`EngineError::InvalidRun`], returned before
/// any event runs. `arbiter` partitions the fleet across the lanes (without
/// one, the lanes split it evenly once); `jobs > 1` runs lanes on that many
/// threads between epochs.
pub(crate) fn run<'a>(
    config: &'a SimConfig,
    lanes: Vec<Lane<'a>>,
    arbiter: Option<&mut dyn ResourceArbiter>,
    policy: Option<&mut dyn ElasticPolicy>,
    jobs: usize,
) -> Result<RunOutput, EngineError> {
    let invalid = |reason| Err(EngineError::InvalidRun { reason });
    if lanes.is_empty() {
        return Err(NO_LANES);
    }
    if policy.is_some() && config.elastic.is_none() {
        return invalid("an elastic policy needs SimConfig::elastic");
    }
    if config
        .elastic
        .as_ref()
        .is_some_and(|e| e.validate().is_err())
    {
        return invalid("SimConfig::elastic is invalid");
    }
    if lanes.iter().any(|(lane, _)| lane.graph.validate().is_err()) {
        return invalid("a pipeline graph of the run is invalid");
    }
    // Elastic fleets can grow to `max_fleet`; compile the link tables for
    // that capacity so provisioned workers index them safely.
    let fleet_cap = config
        .elastic
        .as_ref()
        .map(|e| e.max_fleet.max(e.initial_fleet()))
        .unwrap_or(config.cluster_size);
    let compile = |(lane, _): &Lane<'a>| {
        config
            .link_delays
            .compile(config.network_delay_ms, fleet_cap, lane.graph.num_tasks())
    };
    let Ok(links) = lanes.iter().map(compile).collect::<Result<Vec<_>, _>>() else {
        return invalid("SimConfig::link_delays is invalid for a pipeline of the run");
    };
    let (inputs, mut controllers): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();
    let mut engine = Engine::new(config, inputs, links);
    let results = engine.run_epochs(&mut controllers, arbiter, policy, jobs)?;
    let cost = engine.finish_cost(&results);
    let shards = &engine.shards;
    Ok(RunOutput {
        results,
        timings: shards
            .iter()
            .map(|s| (s.wall_s, s.barrier_wait_s))
            .collect(),
        total_events: engine.cluster_events
            + shards
                .iter()
                .map(|s| s.lane.events_processed + s.unowned_events)
                .sum::<u64>(),
        rebalances: engine.rebalances,
        migrations: engine.migrations,
        cost,
        journal: engine.journal.map(|journal| {
            let mut journal = *journal;
            journal.finish();
            journal
        }),
    })
}

/// A cluster-level event on the driver's queue: everything that must run at an
/// epoch barrier, single-threaded, because it can touch more than one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ClusterEvent {
    /// Repartition tick (only scheduled when an arbiter runs).
    Rebalance,
    /// Fleet-scaling tick (only scheduled when an elastic policy runs).
    ElasticTick,
    /// A provisioned worker finished booting: it turns warm, starts billing,
    /// and becomes claimable (elastic fleets only).
    BootDone(WorkerId),
    /// Model-unload cooldown of a worker that was in the free pool when it was
    /// released (a lane-owned worker's cooldown lives on its shard's queue).
    SwapDone(WorkerId),
    /// Cloud-market tick: draw spot revocations (only scheduled when a
    /// [`crate::MarketConfig`] with a nonzero revocation rate is attached).
    MarketTick,
    /// A revoked worker's grace period expired: abort any batch still running
    /// and force-retire the worker, re-queueing the lost queries.
    RevokeDeadline(WorkerId),
}

/// A simulation of one pipeline served by one controller on one cluster: a
/// one-lane run of the engine.
pub struct Simulation<'a, C: Controller> {
    graph: &'a PipelineGraph,
    config: SimConfig,
    controller: C,
}

impl<'a, C: Controller> Simulation<'a, C> {
    /// Create a simulation for a pipeline, cluster configuration, and
    /// controller. Nothing is checked until the run: an invalid graph or
    /// config makes `try_run*` return [`EngineError::InvalidRun`].
    pub fn new(graph: &'a PipelineGraph, config: SimConfig, controller: C) -> Self {
        Self {
            graph,
            config,
            controller,
        }
    }

    /// Run the simulation over a list of root-query arrival times (seconds,
    /// ascending). A config the run cannot start from returns
    /// [`EngineError::InvalidRun`], and an engine invariant violation or a bad
    /// controller output its own [`EngineError`].
    ///
    /// With [`SimConfig::elastic`] set, the fleet is built from the elastic
    /// initial spec and billed, but no scaling policy runs (a static fleet);
    /// use [`Simulation::try_run_elastic`] to drive the fleet with a policy.
    pub fn try_run(&mut self, arrivals_s: &[f64]) -> Result<SimResult, EngineError> {
        let (config, lane) = self.lane(arrivals_s);
        run(config, vec![lane], None, None, 1)?.into_single()
    }

    /// Like [`Simulation::try_run`], with an [`ElasticPolicy`] scaling the
    /// worker fleet; without [`SimConfig::elastic`] the run returns
    /// [`EngineError::InvalidRun`].
    pub fn try_run_elastic(
        &mut self,
        arrivals_s: &[f64],
        policy: &mut dyn ElasticPolicy,
    ) -> Result<SimResult, EngineError> {
        let (config, lane) = self.lane(arrivals_s);
        run(config, vec![lane], None, Some(policy), 1)?.into_single()
    }

    /// The run's config and its one lane: the pipeline over `arrivals_s`,
    /// paired with the controller.
    fn lane<'s>(&'s mut self, arrivals_s: &'s [f64]) -> (&'s SimConfig, Lane<'s>) {
        let input = LaneInput {
            graph: self.graph,
            arrivals_s,
            initial_demand_hint: self.config.initial_demand_hint,
        };
        (&self.config, (input, &mut self.controller))
    }

    /// Consume the simulation and return the controller (useful to inspect controller
    /// internals after a run).
    pub fn into_controller(self) -> C {
        self.controller
    }
}

pub(crate) struct Engine<'a> {
    config: &'a SimConfig,
    /// One execution shard per pipeline lane (see `crate::shard`).
    shards: Vec<Shard<'a>>,
    end_time_us: SimTime,

    /// Cluster-level events, ordered by `(time, seq)` — the epoch barriers.
    cluster: BinaryHeap<Reverse<(SimTime, u64, ClusterEvent)>>,
    /// Sequence counter for cluster events (ties resolve in schedule order).
    cseq: u64,
    /// Driver time: the timestamp of the last barrier processed.
    now: SimTime,
    /// Cluster events attributed to no lane (rebalance/elastic ticks, boot
    /// completions, free workers' unload cooldowns).
    cluster_events: u64,

    /// The worker fleet, indexed by `WorkerId`. Shards reach their own
    /// workers only through tables lent from it (see `crate::shard`).
    fleet: Vec<Worker>,
    /// Owning lane per worker (`FREE` = released, claimable by a rebalance).
    /// Only the driver writes it, at barriers; shards read it as of the last
    /// one.
    owner: Vec<u32>,

    /// Arbiter invocations that actually moved workers.
    rebalances: u64,
    /// Workers moved across lanes over the whole run.
    migrations: u64,

    /// Elastic-fleet state (lifecycle accounting, billing); `None` for fixed
    /// fleets.
    elastic: Option<ElasticState>,
    /// Cloud-market state (revocation RNG, price schedule, stockouts); `None`
    /// when no [`crate::MarketConfig`] is attached to the elastic config.
    market: Option<MarketState>,
    /// Whether a resource arbiter drives this run (booted workers then wait in
    /// the free pool for the next rebalance instead of joining lane 0).
    has_arbiter: bool,
    /// The driver-side cluster event journal when `observe.timeline` is on.
    /// Recording is observation-only: no hook consumes RNG draws or schedules
    /// events, so a journaled run is bit-identical to an unjournaled one.
    journal: Option<Box<Journal>>,
    /// The last spot-price multiplier journaled (NaN before the first market
    /// tick), so `PriceStep` events record changes, not every tick.
    last_price: f64,
}

/// Engine-internal elastic-fleet bookkeeping: per-class lifecycle counters and
/// billed GPU-time, plus the busy-time window for the policy observation.
struct ElasticState {
    catalog: WorkerClassCatalog,
    max_fleet: usize,
    decide_interval_us: SimTime,
    /// Per class: boot delay in µs.
    boot_delay_us: Vec<SimTime>,
    /// Per class: billed warm GPU-microseconds (accrued at retirement and at
    /// the end of the run).
    class_gpu_us: Vec<u64>,
    /// Per class: multiplier-weighted billed microseconds — what dollars are
    /// computed from. Without a price schedule this equals `class_gpu_us`
    /// exactly (integer-valued f64 sums are exact far below 2^53), so
    /// flat-price runs bill bit-identically to the pre-market engine.
    class_weighted_us: Vec<f64>,
    /// Per class: workers provisioned over the run (initial fleet excluded).
    provisioned: Vec<u64>,
    /// Per class: workers retired over the run.
    retired: Vec<u64>,
    /// Per class: workers revoked by the market over the run.
    revocations: Vec<u64>,
    /// Per class: provision requests denied by capacity stockouts.
    stockouts: Vec<u64>,
    /// Per class: current warm workers.
    warm: Vec<usize>,
    /// Per class: workers still booting.
    provisioning: Vec<usize>,
    /// Per class: workers finishing their in-flight batches after a
    /// *voluntary* (policy-initiated) drain.
    draining: Vec<usize>,
    /// Per class: workers force-draining after a market revocation. Kept out
    /// of `draining` so [`ElasticObservation::draining`] — the signal the
    /// autoscaler's voluntary-drain/idle logic reads — never counts capacity
    /// the provider took away.
    revoked_draining: Vec<usize>,
    /// Per class: peak concurrent warm workers.
    peak_warm: Vec<usize>,
    /// Total fleet busy-time at the previous elastic tick (window baseline).
    prev_busy_us: u64,
    /// Time of the previous elastic tick.
    last_tick_us: SimTime,
    /// Peak concurrent warm workers across the whole fleet.
    peak_fleet: usize,
}

impl ElasticState {
    fn new(config: &crate::elastic::ElasticSimConfig) -> Self {
        let n = config.catalog.len();
        let mut warm = vec![0usize; n];
        for &(class, count) in &config.initial {
            warm[class] += count;
        }
        let total_warm: usize = warm.iter().sum();
        Self {
            boot_delay_us: config
                .catalog
                .classes
                .iter()
                .map(|c| secs_to_us(c.boot_delay_s))
                .collect(),
            max_fleet: config.max_fleet,
            decide_interval_us: secs_to_us(config.decide_interval_s),
            class_gpu_us: vec![0; n],
            class_weighted_us: vec![0.0; n],
            provisioned: vec![0; n],
            retired: vec![0; n],
            revocations: vec![0; n],
            stockouts: vec![0; n],
            peak_warm: warm.clone(),
            warm,
            provisioning: vec![0; n],
            draining: vec![0; n],
            revoked_draining: vec![0; n],
            prev_busy_us: 0,
            last_tick_us: 0,
            peak_fleet: total_warm,
            catalog: config.catalog.clone(),
        }
    }

    /// Bill one worker's warm interval `[from, to)` to its class: raw
    /// GPU-microseconds always, dollars through the market's price schedule
    /// for spot classes. Inverted/empty intervals bill nothing — a revoked
    /// worker's `billed_from_us` is set to `SimTime::MAX` so every later
    /// accrual on it is a no-op.
    fn accrue(
        &mut self,
        market: Option<&crate::MarketConfig>,
        class: usize,
        from: SimTime,
        to: SimTime,
    ) {
        if to <= from {
            return;
        }
        self.class_gpu_us[class] += to - from;
        self.class_weighted_us[class] += self.priced_us(market, class, from, to);
    }

    /// Account a settled retirement: move the worker out of its drain pool
    /// and bill what remains of its warm interval.
    fn settle(&mut self, market: Option<&crate::MarketConfig>, r: &Retirement) {
        let class = r.class as usize;
        // `from == MAX` marks a revoked worker: its billing already stopped
        // (the accrual below is a no-op) and its lifecycle count lives in the
        // revoked pool, invisible to the policy's voluntary-drain accounting.
        if r.billed_from_us == SimTime::MAX {
            self.revoked_draining[class] -= 1;
        } else {
            self.draining[class] -= 1;
        }
        self.retired[class] += 1;
        self.accrue(market, class, r.billed_from_us, r.at_us);
    }

    /// Reject an elastic action naming a class outside the catalog: actions
    /// come from the public [`ElasticPolicy`] trait, so they are outside input.
    fn check_class(
        &self,
        action: &'static str,
        class: usize,
        now_us: SimTime,
    ) -> Result<(), EngineError> {
        let classes = self.catalog.len();
        if class < classes {
            Ok(())
        } else {
            Err(EngineError::UnknownClass {
                action,
                class,
                classes,
                now_us,
            })
        }
    }

    /// Cumulative billed dollars through `now`, computed *read-only* for the
    /// journal's `CostSample` events: the per-class weighted time already
    /// accrued, plus each live worker's open warm interval, priced exactly as
    /// [`Engine::finish_cost`] prices closed ones. (A revoked worker's
    /// `billed_from_us` sentinel makes its open interval empty.)
    fn billed_dollars(
        &self,
        market: Option<&crate::MarketConfig>,
        fleet: &[Worker],
        now: SimTime,
    ) -> f64 {
        let mut weighted = self.class_weighted_us.clone();
        for w in fleet {
            if matches!(w.lifecycle, Lifecycle::Warm | Lifecycle::Draining)
                && w.billed_from_us < now
            {
                let class = w.class as usize;
                weighted[class] += self.priced_us(market, class, w.billed_from_us, now);
            }
        }
        weighted
            .iter()
            .zip(self.catalog.classes.iter())
            .map(|(us, class)| us / 1e6 / 3600.0 * class.price_per_hour)
            .sum()
    }

    /// The microseconds of a non-empty warm interval `[from, to)` weighted
    /// by the market's price schedule for spot classes; flat otherwise.
    fn priced_us(
        &self,
        market: Option<&crate::MarketConfig>,
        class: usize,
        from: SimTime,
        to: SimTime,
    ) -> f64 {
        match market {
            Some(m) if self.catalog.classes[class].spot => m.weighted_us(from, to),
            _ => (to - from) as f64,
        }
    }
}

/// Engine-internal cloud-market state: the config plus the market's own RNG
/// stream (decorrelated from every lane stream) and precomputed intervals.
struct MarketState {
    config: crate::MarketConfig,
    rng: StdRng,
    check_interval_us: SimTime,
    deadline_us: SimTime,
}

impl<'a> Engine<'a> {
    /// Build the engine from checked inputs (see [`run`]): one lane per
    /// input, each with its compiled link table.
    fn new(
        config: &'a SimConfig,
        inputs: Vec<LaneInput<'a>>,
        links: Vec<CompiledLinkDelays>,
    ) -> Self {
        assert!(
            inputs.len() < FREE as usize,
            "lane count fits the owner tag"
        );
        let lanes: Vec<LaneState<'a>> = inputs
            .iter()
            .zip(links)
            .enumerate()
            .map(|(i, (input, link))| LaneState::new(input, config, i, link))
            .collect();
        let end_time_us = lanes
            .iter()
            .map(|l| l.arrivals_s.last().map_or(0, |&s| secs_to_us(s)) + secs_to_us(config.drain_s))
            .fold(0, SimTime::max);
        // Fixed fleets are `cluster_size` identical reference-class workers;
        // elastic fleets start from the initial spec (warm at time zero,
        // billed from time zero — the pre-warmed bootstrap assumption).
        let (workers, elastic) = match &config.elastic {
            // `run` has validated the spec.
            Some(spec) => {
                let mut workers = Vec::with_capacity(spec.initial_fleet());
                for &(class, count) in &spec.initial {
                    for _ in 0..count {
                        let id = WorkerId(workers.len());
                        let mut w = Worker::new(id);
                        w.class = class as u32;
                        w.perf_scale = spec.catalog.classes[class].latency_scale;
                        workers.push(w);
                    }
                }
                (workers, Some(ElasticState::new(spec)))
            }
            None => (
                (0..config.cluster_size)
                    .map(|i| Worker::new(WorkerId(i)))
                    .collect(),
                None,
            ),
        };
        let market = config
            .elastic
            .as_ref()
            .and_then(|spec| spec.market.as_ref())
            .map(|m| MarketState {
                config: m.clone(),
                rng: StdRng::seed_from_u64(config.seed ^ crate::market::MARKET_RNG_SALT),
                check_interval_us: secs_to_us(m.check_interval_s),
                deadline_us: secs_to_us(m.revocation_deadline_s),
            });
        let (min_hop_ms, max_hop_ms) = config.link_delays.hop_range_ms(config.network_delay_ms);
        let (shift, num_buckets) =
            CalendarGeometry::Auto.resolve_for_range(ms_to_us(min_hop_ms), ms_to_us(max_hop_ms));
        // Each shard seeds its own periodic events and first arrival from its
        // lane-local seq stream; the per-lane relative order (control tick,
        // routing tick, metrics tick, first arrival) matches the historical
        // global seeding exactly.
        let shards: Vec<Shard<'a>> = lanes
            .into_iter()
            .enumerate()
            .map(|(i, lane)| Shard::new(lane, i as u32, config, shift, num_buckets))
            .collect();
        Self {
            config,
            shards,
            end_time_us,
            cluster: BinaryHeap::new(),
            cseq: 0,
            now: 0,
            cluster_events: 0,
            owner: vec![FREE; workers.len()],
            fleet: workers,
            rebalances: 0,
            migrations: 0,
            elastic,
            market,
            has_arbiter: false,
            journal: config.observe.timeline.then(|| Box::new(Journal::new())),
            last_price: f64::NAN,
        }
    }

    /// Append one cluster-level event to the journal at driver time (no-op
    /// with the journal off).
    fn journal_record(&mut self, kind: JournalKind) {
        if let Some(j) = self.journal.as_mut() {
            j.record(self.now, CLUSTER_LANE, kind);
        }
    }

    fn push_cluster(&mut self, time: SimTime, event: ClusterEvent) {
        self.cseq += 1;
        self.cluster.push(Reverse((time, self.cseq, event)));
    }

    /// Lend lane `li` its workers and run `f` on its shard: how barrier code
    /// acts on one lane (re-homing, batch starts, retirement).
    fn with_lane<R>(
        &mut self,
        li: usize,
        f: impl FnOnce(&mut Shard<'a>, &mut LaneCtx<'_>) -> R,
    ) -> R {
        let mut ctx = LaneCtx::lend(
            self.config,
            &mut self.fleet,
            &self.owner,
            self.end_time_us,
            li as u32,
        );
        f(&mut self.shards[li], &mut ctx)
    }

    /// Settle a retirement: free the worker's owner slot, move it out of its
    /// drain pool, stop its billing, and journal it at its own time. Mid-epoch
    /// retirements are settled at the next barrier, barrier-time ones at once.
    /// A fleet handler, which holds the elastic state itself, settles through
    /// [`ElasticState::settle`] and [`Engine::release`] instead.
    fn settle_retirement(&mut self, r: Retirement) {
        let market = self.market.as_ref().map(|m| &m.config);
        if let Some(e) = self.elastic.as_mut() {
            e.settle(market, &r);
        }
        self.release(r);
    }

    /// The engine's half of settling a retirement: free the worker's owner
    /// slot and journal the retirement at its own time.
    fn release(&mut self, r: Retirement) {
        self.owner[r.worker as usize] = FREE;
        let (worker, class) = (r.worker, r.class);
        if let Some(j) = self.journal.as_mut() {
            j.record(r.at_us, CLUSTER_LANE, JournalKind::Retire { worker, class });
        }
    }

    /// Apply the initial partition: contiguous blocks of workers per lane, in
    /// lane order. Workers beyond the partition sum stay `FREE`.
    fn init_partition(&mut self, sizes: &[usize]) {
        debug_assert_eq!(sizes.len(), self.shards.len());
        let mut next = 0usize;
        for (li, &count) in sizes.iter().enumerate() {
            let take = count.min(self.fleet.len().saturating_sub(next));
            self.owner[next..next + take].fill(li as u32);
            next += take;
        }
        self.rebuild_owned_lists();
        for shard in self.shards.iter_mut() {
            shard.lane.current.cluster_size = shard.lane.owned.len();
        }
    }

    /// Each lane's warm (dispatchable) owned workers — the units partitions
    /// are measured in.
    fn lane_warm_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                s.lane
                    .owned
                    .iter()
                    .filter(|w| self.fleet[w.index()].accepts_dispatches())
                    .count()
            })
            .collect()
    }

    /// Queries waiting on each lane's workers (arbiter and policy input).
    fn lane_queued(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                s.lane
                    .owned
                    .iter()
                    .map(|w| self.fleet[w.index()].queue_len())
                    .sum()
            })
            .collect()
    }

    /// Rebuild every lane's `owned` list from the owner map.
    fn rebuild_owned_lists(&mut self) {
        for shard in self.shards.iter_mut() {
            shard.lane.owned.clear();
        }
        for (w, &o) in self.owner.iter().enumerate() {
            if o != FREE {
                self.shards[o as usize].lane.owned.push(WorkerId(w));
            }
        }
    }

    /// Advance every shard to `bound`, each with its own workers lent to it —
    /// on `jobs` worker threads when asked and useful, inline in lane order
    /// otherwise — then (back on one thread) account barrier waits and settle
    /// the shards' mid-epoch retirements.
    fn run_shards_until(
        &mut self,
        bound: SimTime,
        jobs: usize,
        controllers: &mut [&mut dyn Controller],
    ) -> Result<(), EngineError> {
        let lanes = self.shards.len();
        let ctxs = LaneCtx::lend_all(
            self.config,
            &mut self.fleet,
            &self.owner,
            self.end_time_us,
            lanes,
        );
        let work = self
            .shards
            .iter_mut()
            .zip(controllers.iter_mut().map(|c| &mut **c))
            .zip(ctxs);
        if jobs > 1 && lanes > 1 {
            let work: Vec<_> = work.collect();
            for outcome in par_map(work, jobs, |((shard, controller), mut ctx)| {
                shard.run_until(bound, &mut ctx, controller)
            }) {
                outcome?;
            }
        } else {
            for ((shard, controller), mut ctx) in work {
                shard.run_until(bound, &mut ctx, controller)?;
            }
        }
        // Barrier-wait accounting: each shard waits (at most) for the slowest
        // shard of the epoch.
        let slowest = self
            .shards
            .iter()
            .map(|s| s.epoch_wall_s)
            .fold(0.0_f64, f64::max);
        for shard in self.shards.iter_mut() {
            shard.barrier_wait_s += (slowest - shard.epoch_wall_s).max(0.0);
        }
        // Settle mid-epoch retirements (drained workers whose last batch
        // completed inside a shard) before any cluster event, so the next
        // elastic tick observes exact lifecycle counts. Lanes merge in index
        // order on this one thread, so the journal's recording sequence — the
        // sort tiebreaker for equal-time retirements — is independent of
        // `jobs`.
        for li in 0..lanes {
            for r in std::mem::take(&mut self.shards[li].retirements) {
                self.settle_retirement(r);
            }
        }
        Ok(())
    }

    /// Run the simulation: advance the shards epoch by epoch, applying cluster
    /// events at each barrier. Cluster events at a boundary run before
    /// same-timestamp lane events (shards stop *before* the barrier time),
    /// matching the schedule order of the historical single-heap engine.
    /// `controllers` are the lanes' own, in lane order ([`run`] pairs them).
    fn run_epochs(
        &mut self,
        controllers: &mut [&mut dyn Controller],
        mut arbiter: Option<&mut dyn ResourceArbiter>,
        mut provisioner: Option<&mut dyn ElasticPolicy>,
        jobs: usize,
    ) -> Result<Vec<SimResult>, EngineError> {
        self.has_arbiter = arbiter.is_some();

        // Establish the initial partition before any event runs, so every
        // lane's first control tick sees its capacity-scoped worker set.
        match arbiter.as_mut() {
            Some(arb) => {
                let sizes = self.arbiter_partition(&mut **arb, true)?;
                let sizes =
                    sizes.unwrap_or_else(|| even_partition(self.shards.len(), self.fleet.len()));
                self.init_partition(&sizes);
                let first = secs_to_us(arb.rebalance_interval_s());
                if first <= self.end_time_us {
                    self.push_cluster(first, ClusterEvent::Rebalance);
                }
            }
            None => self.init_partition(&even_partition(self.shards.len(), self.fleet.len())),
        }
        // Seed the fleet-scaling cadence. The first tick fires one interval
        // in: at time zero the initial fleet is the policy's starting point
        // and no observation window exists yet.
        let elastic = self.elastic.as_ref().filter(|_| provisioner.is_some());
        if let Some(first) = elastic.map(|e| e.decide_interval_us) {
            if first <= self.end_time_us {
                self.push_cluster(first, ClusterEvent::ElasticTick);
            }
        }
        // Seed the market's revocation process. Independent of whether a
        // provisioner runs: revocations are the provider's events, outside
        // any policy's control. A zero rate schedules nothing, keeping such
        // runs bit-identical to market-less ones.
        if let Some(m) = self.market.as_ref() {
            if m.config.revokes() {
                let first = m.check_interval_us;
                if first <= self.end_time_us {
                    self.push_cluster(first, ClusterEvent::MarketTick);
                }
            }
        }

        loop {
            let bound = self.cluster.peek().map(|&Reverse((t, _, _))| t);
            match bound {
                Some(t) if t <= self.end_time_us => {
                    // Advance every shard to the barrier, then apply all
                    // cluster events scheduled at it, in schedule order.
                    self.run_shards_until(t, jobs, controllers)?;
                    self.now = t;
                    for shard in self.shards.iter_mut() {
                        shard.now = t;
                    }
                    while self
                        .cluster
                        .peek()
                        .is_some_and(|&Reverse((ct, _, _))| ct == t)
                    {
                        let Some(Reverse((_, _, event))) = self.cluster.pop() else {
                            break;
                        };
                        match event {
                            ClusterEvent::Rebalance => {
                                self.cluster_events += 1;
                                if let Some(arb) = arbiter.as_mut() {
                                    self.on_rebalance(&mut **arb)?;
                                }
                            }
                            ClusterEvent::ElasticTick => {
                                self.cluster_events += 1;
                                if let Some(policy) = provisioner.as_mut() {
                                    self.lend_elastic(|engine, e| {
                                        engine.on_elastic_tick(e, &mut **policy)
                                    })?;
                                }
                            }
                            ClusterEvent::BootDone(worker) => {
                                self.cluster_events += 1;
                                self.lend_elastic(|engine, e| {
                                    engine.on_boot_done(e, worker);
                                    Ok(())
                                })?;
                            }
                            ClusterEvent::MarketTick => {
                                self.cluster_events += 1;
                                // Scheduled only when a market is attached,
                                // which implies an elastic fleet.
                                if let Some(mut m) = self.market.take() {
                                    let out = self
                                        .lend_elastic(|engine, e| engine.on_market_tick(e, &mut m));
                                    self.market = Some(m);
                                    out?;
                                }
                            }
                            ClusterEvent::RevokeDeadline(worker) => {
                                self.cluster_events += 1;
                                self.on_revoke_deadline(worker)?;
                            }
                            ClusterEvent::SwapDone(worker) => {
                                // The worker was free when released but may
                                // have been claimed by a later rebalance.
                                match self.owner[worker.index()] {
                                    FREE => self.cluster_events += 1,
                                    o => {
                                        let li = o as usize;
                                        self.shards[li].lane.events_processed += 1;
                                        self.with_lane(li, |shard, ctx| shard.kick(ctx, worker));
                                    }
                                }
                            }
                        }
                    }
                }
                // No cluster event left inside the horizon: run every shard to
                // the end of the simulation (events exactly at the end time
                // still run, as in the historical engine).
                _ => {
                    self.run_shards_until(self.end_time_us.saturating_add(1), jobs, controllers)?;
                    break;
                }
            }
        }

        // Each lane ends at the run-global last event time, as the
        // single-heap engine's did.
        let final_now = self
            .shards
            .iter()
            .map(|s| s.now)
            .fold(self.now, SimTime::max);
        let ctxs = LaneCtx::lend_all(
            self.config,
            &mut self.fleet,
            &self.owner,
            self.end_time_us,
            self.shards.len(),
        );
        let mut out = Vec::with_capacity(self.shards.len());
        for ((shard, ctx), controller) in self.shards.iter_mut().zip(ctxs).zip(controllers) {
            let journal = self.journal.as_deref_mut();
            out.push(shard.finish(&ctx, controller.name(), final_now, journal));
        }
        Ok(out)
    }

    /// Close out fleet billing at the end of an elastic run: every worker
    /// still warm or draining is billed through the end of the run, and the
    /// per-class GPU-time turns into the whole-run [`CostSummary`] (`None` for
    /// a fixed fleet).
    fn finish_cost(&mut self, results: &[SimResult]) -> Option<CostSummary> {
        let market = self.market.as_ref().map(|m| &m.config);
        let e = self.elastic.as_mut()?;
        for w in self.fleet.iter() {
            if matches!(w.lifecycle, Lifecycle::Warm | Lifecycle::Draining) {
                let class = w.class as usize;
                let (from, to) = (w.billed_from_us, self.end_time_us);
                e.accrue(market, class, from, to);
            }
        }
        let served: u64 = results
            .iter()
            .map(|r| r.summary.total_on_time + r.summary.total_late)
            .sum();
        let mut per_class = Vec::with_capacity(e.catalog.len());
        let mut total_gpu_seconds = 0.0;
        let mut total_dollars = 0.0;
        let mut spot_dollars = 0.0;
        let mut ondemand_dollars = 0.0;
        for (i, class) in e.catalog.classes.iter().enumerate() {
            let gpu_seconds = crate::types::us_to_secs(e.class_gpu_us[i]);
            // Dollars come from the *weighted* microseconds so spot price
            // schedules bill through; without a schedule the two accumulators
            // are exactly equal and this reproduces the flat-price billing.
            let dollars = e.class_weighted_us[i] / 1e6 / 3600.0 * class.price_per_hour;
            total_gpu_seconds += gpu_seconds;
            total_dollars += dollars;
            if class.spot {
                spot_dollars += dollars;
            } else {
                ondemand_dollars += dollars;
            }
            per_class.push(ClassCost {
                class: class.name.clone(),
                gpu_seconds,
                dollars,
                peak_warm: e.peak_warm[i],
                provisioned: e.provisioned[i],
                retired: e.retired[i],
                spot: class.spot,
                revocations: e.revocations[i],
                stockouts: e.stockouts[i],
            });
        }
        Some(CostSummary {
            per_class,
            total_gpu_seconds,
            total_dollars,
            served_queries: served,
            cost_per_1k_queries: if served == 0 {
                0.0
            } else {
                total_dollars / (served as f64 / 1000.0)
            },
            peak_fleet: e.peak_fleet,
            revocations: e.revocations.iter().sum(),
            stockouts: e.stockouts.iter().sum(),
            spot_dollars,
            ondemand_dollars,
        })
    }

    // ---- cluster arbitration -----------------------------------------------------

    /// Ask the arbiter for a target partition. `initial` uses the demand hints
    /// (nothing has been observed yet).
    fn arbiter_partition(
        &mut self,
        arbiter: &mut dyn ResourceArbiter,
        initial: bool,
    ) -> Result<Option<Vec<usize>>, EngineError> {
        // Partitions are reported (and targeted) in *warm* workers: a lane's
        // draining workers are leaving and must neither pad its share in the
        // arbiter's eyes nor count against a warm-sized target when the
        // partition is applied (for fixed fleets owned == warm).
        let partition = self.lane_warm_counts();
        let demand_qps: Vec<f64> = self
            .shards
            .iter()
            .map(|s| {
                if initial {
                    s.lane.initial_demand_hint.unwrap_or(0.0)
                } else {
                    s.lane.demand_estimate()
                }
            })
            .collect();
        let slo_ms: Vec<f64> = self.shards.iter().map(|s| s.lane.slo_ms()).collect();
        let num_tasks: Vec<usize> = self.shards.iter().map(|s| s.lane.num_tasks).collect();
        let queued = self.lane_queued();
        // The partitionable fleet is the warm workers — elastic fleets change
        // size between epochs (boots add capacity, drains remove it), and the
        // arbiter must tolerate that; for fixed fleets this is `cluster_size`.
        let usable = self.fleet.iter().filter(|w| w.accepts_dispatches()).count();
        let observation = ArbiterObservation {
            now_s: crate::types::us_to_secs(self.now),
            cluster_size: usable,
            partition: &partition,
            demand_qps: &demand_qps,
            slo_ms: &slo_ms,
            num_tasks: &num_tasks,
            queued: &queued,
        };
        let Some(mut target) = arbiter.partition(&observation) else {
            return Ok(None);
        };
        if target.len() != self.shards.len() {
            return Err(EngineError::PartitionLength {
                len: target.len(),
                lanes: self.shards.len(),
                now_us: self.now,
            });
        }
        // Never exceed the physical cluster: trim the largest shares first.
        let mut total: usize = target.iter().sum();
        while total > usable {
            if let Some(max) = target.iter_mut().max() {
                *max -= 1;
                total -= 1;
            } else {
                break;
            }
        }
        Ok(Some(target))
    }

    fn on_rebalance(&mut self, arbiter: &mut dyn ResourceArbiter) -> Result<(), EngineError> {
        if let Some(target) = self.arbiter_partition(arbiter, false)? {
            let moved = self.apply_partition(&target)?;
            if moved > 0 {
                self.rebalances += 1;
                self.migrations += moved as u64;
                self.journal_record(JournalKind::Rebalance {
                    epoch: self.rebalances,
                    moved: moved as u64,
                    reason: arbiter.decision_reason(),
                });
            }
        }
        let next = self.now + secs_to_us(arbiter.rebalance_interval_s());
        if next <= self.end_time_us {
            self.push_cluster(next, ClusterEvent::Rebalance);
        }
        Ok(())
    }

    /// Move workers between lanes until the owned counts match `target`.
    /// Returns the number of workers that changed lanes.
    ///
    /// Shrinking lanes release idle capacity first (unassigned workers, then
    /// the assigned worker with the shortest queue, ties by index); released
    /// workers join the free pool, and growing lanes claim from it in lane
    /// order, ascending worker index. A released worker's queued queries are
    /// re-homed inside its old lane (or dropped if the lane has no server for
    /// the task left), and a worker that was hosting a model pays the
    /// model-unload cooldown (`SimConfig::model_swap_ms`) as a scheduled
    /// `SwapDone` event before its new lane can batch on it.
    ///
    /// Only workers with no in-flight batch are migrated: a moved worker's
    /// pending completion would otherwise fire inside the *old* lane's shard
    /// while the new lane batches on the worker — the one cross-lane coupling
    /// the epoch model cannot serialize. (Every mid-batch worker frees up by
    /// the next rebalance; its migration is deferred, not lost.)
    fn apply_partition(&mut self, target: &[usize]) -> Result<usize, EngineError> {
        // Warm counts, matching the units of the arbiter's target: a lane
        // holding draining workers is not over its target by their number,
        // and must not release warm capacity it is still entitled to.
        let current = self.lane_warm_counts();
        if current == target {
            return Ok(0);
        }
        let owner_before = self.owner.clone();
        // Phase 1: shrinking lanes release workers into the free pool; each
        // keeps the queries stranded on its released workers.
        let mut swapped: Vec<(WorkerId, SimTime)> = Vec::new();
        let mut shrunk: Vec<(usize, Vec<Query>)> = Vec::new();
        for li in 0..self.shards.len() {
            if current[li] <= target[li] {
                continue;
            }
            let surplus = current[li] - target[li];
            // Rank owned workers: unassigned first, then by (queue length,
            // index) — migrate the idlest capacity, keep the busy servers.
            // Draining workers are not released (they are already leaving);
            // neither are workers mid-batch (see the method docs).
            let mut candidates: Vec<WorkerId> = self.shards[li]
                .lane
                .owned
                .iter()
                .copied()
                .filter(|w| {
                    let worker = &self.fleet[w.index()];
                    worker.accepts_dispatches() && !worker.has_in_flight()
                })
                .collect();
            candidates.sort_by_key(|w| {
                let worker = &self.fleet[w.index()];
                (
                    worker.assignment.is_some() as u8,
                    worker.queue_len(),
                    w.index(),
                )
            });
            let mut orphans = Vec::new();
            for &w in candidates.iter().take(surplus) {
                let worker = &mut self.fleet[w.index()];
                let had_model = worker.assignment.is_some();
                orphans.extend(worker.drain_queue());
                worker.unassign();
                if had_model && self.config.model_swap_ms > 0.0 {
                    // First-class reassignment event: the model-unload
                    // cooldown before any lane can batch on this worker. The
                    // event is scheduled after phase 2, once the worker's new
                    // owner (a claiming lane, or the free pool) is known.
                    let until = self.now + ms_to_us(self.config.model_swap_ms);
                    worker.begin_swap(until);
                    swapped.push((w, until));
                }
                self.owner[w.index()] = FREE;
            }
            shrunk.push((li, orphans));
        }
        // Phase 2: growing lanes claim from the free pool, ascending index.
        // Only warm workers are claimable: booting, draining, and retired
        // slots carry the FREE tag but are not capacity.
        let mut pool = (0..self.fleet.len())
            .filter(|&w| self.owner[w] == FREE && self.fleet[w].accepts_dispatches())
            .collect::<Vec<_>>()
            .into_iter();
        let mut grown: Vec<usize> = Vec::new();
        for li in 0..self.shards.len() {
            if current[li] >= target[li] {
                continue;
            }
            for w in pool.by_ref().take(target[li] - current[li]) {
                self.owner[w] = li as u32;
            }
            grown.push(li);
        }
        // A migration is a worker whose owner actually changed over the whole
        // tick (released-and-reclaimed counts once; shrink-only targets that
        // park workers in the free pool still count their releases).
        let changed: Vec<(usize, u32, u32)> = owner_before
            .iter()
            .zip(&self.owner)
            .enumerate()
            .filter(|(_, (before, after))| before != after)
            .map(|(w, (&before, &after))| (w, before, after))
            .collect();
        // Journal every worker whose owner changed (`FREE` doubles as
        // `CLUSTER_LANE`: a release to the free pool reads as a migration to
        // the cluster, a claim as one from it).
        for &(w, from_lane, to_lane) in &changed {
            self.journal_record(JournalKind::Migration {
                worker: w as u32,
                from_lane,
                to_lane,
            });
        }
        // Phase 3: refresh the affected lanes' views of their partitions.
        self.rebuild_owned_lists();
        for li in shrunk.iter().map(|(li, _)| *li).chain(grown) {
            self.with_lane(li, |shard, ctx| shard.invalidate_routing(ctx));
        }
        // Schedule the unload cooldowns now that owners are settled: a
        // claimed worker's completion belongs on its new lane's queue (so the
        // lane can batch the moment the cooldown ends), a still-free worker's
        // on the cluster queue.
        for (w, until) in swapped {
            match self.owner[w.index()] {
                FREE => self.push_cluster(until, ClusterEvent::SwapDone(w)),
                o => self.shards[o as usize].push(until, LaneEvent::SwapDone(w)),
            }
        }
        // Phase 4: re-home queries stranded on released workers.
        for (li, orphans) in shrunk {
            self.with_lane(li, |shard, ctx| {
                shard.rehome(ctx, orphans, DropCause::Reclaimed)
            })?;
        }
        Ok(changed.len())
    }

    // ---- elastic fleet -----------------------------------------------------------

    /// Lend the elastic state to a fleet handler for one call. Elastic and
    /// market ticks and boots are scheduled only for elastic runs, so on a
    /// fixed fleet this calls nothing. While lent, `self.elastic` is `None`:
    /// the handler and everything it calls reach the state through the
    /// argument.
    fn lend_elastic(
        &mut self,
        handler: impl FnOnce(&mut Self, &mut ElasticState) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let Some(mut e) = self.elastic.take() else {
            return Ok(());
        };
        let out = handler(self, &mut e);
        self.elastic = Some(e);
        out
    }

    /// A fleet-scaling tick: build the policy observation (per-class fleet
    /// counts, per-pipeline demand/backlog/window-attainment, window busy
    /// fraction), apply the returned actions, and schedule the next tick.
    fn on_elastic_tick(
        &mut self,
        e: &mut ElasticState,
        policy: &mut dyn ElasticPolicy,
    ) -> Result<(), EngineError> {
        // Window busy fraction: busy time accrued since the previous tick over
        // warm capacity. Batch time is credited at batch start, so clamp.
        let busy_total: u64 = self.fleet.iter().map(|w| w.busy_time_us).sum();
        let demand_qps: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.lane.demand_estimate())
            .collect();
        let queued = self.lane_queued();
        let window_attainment: Vec<f64> = self
            .shards
            .iter_mut()
            .map(|s| {
                let l = &mut s.lane;
                let attainment = if l.window_finished == 0 {
                    1.0
                } else {
                    l.window_on_time as f64 / l.window_finished as f64
                };
                l.window_on_time = 0;
                l.window_finished = 0;
                attainment
            })
            .collect();
        let window_us = self.now.saturating_sub(e.last_tick_us);
        let warm_total: usize = e.warm.iter().sum();
        let busy_fraction = if warm_total > 0 && window_us > 0 {
            (busy_total.saturating_sub(e.prev_busy_us) as f64
                / (warm_total as f64 * window_us as f64))
                .min(1.0)
        } else {
            0.0
        };
        e.prev_busy_us = busy_total;
        e.last_tick_us = self.now;

        let active = self
            .fleet
            .iter()
            .filter(|w| w.accepts_dispatches() && w.is_active())
            .count();
        let spot_price_multiplier = self
            .market
            .as_ref()
            .map(|m| m.config.multiplier_at(crate::types::us_to_secs(self.now)))
            .unwrap_or(1.0);
        let observation = ElasticObservation {
            now_s: crate::types::us_to_secs(self.now),
            classes: &e.catalog.classes,
            warm: &e.warm,
            active,
            provisioning: &e.provisioning,
            draining: &e.draining,
            demand_qps: &demand_qps,
            queued: &queued,
            window_attainment: &window_attainment,
            busy_fraction,
            max_fleet: e.max_fleet,
            revocations: e.revocations.iter().sum(),
            stockouts: e.stockouts.iter().sum(),
            spot_price_multiplier,
        };
        let actions = policy.decide(&observation);
        let next = self.now + e.decide_interval_us;
        if self.journal.is_some() {
            // Sample the fleet and cumulative bill first (the tick's observed
            // state), then the policy's decisions with their stated reasons.
            let warm = warm_total as u32;
            let market = self.market.as_ref().map(|m| &m.config);
            let dollars = e.billed_dollars(market, &self.fleet, self.now);
            self.journal_record(JournalKind::CostSample { warm, dollars });
            let reasons = policy.last_reasons();
            for (i, action) in actions.iter().enumerate() {
                let (provision, class, count) = match *action {
                    ElasticAction::Provision { class, count } => (true, class, count),
                    ElasticAction::Drain { class, count } => (false, class, count),
                };
                self.journal_record(JournalKind::AutoscaleDecision {
                    provision,
                    class: class as u32,
                    count: count as u32,
                    reason: reasons
                        .get(i)
                        .copied()
                        .unwrap_or(crate::elastic::DecisionReason::Unspecified),
                });
            }
        }
        for action in actions {
            match action {
                ElasticAction::Provision { class, count } => {
                    self.apply_provision(e, class, count)?
                }
                ElasticAction::Drain { class, count } => self.apply_drain(e, class, count)?,
            }
        }
        if next <= self.end_time_us {
            self.push_cluster(next, ClusterEvent::ElasticTick);
        }
        Ok(())
    }

    /// Start `count` workers of `class` booting; clamped to the fleet bound
    /// (live = provisioning + warm + draining; retired slots do not count).
    /// With a market attached, each requested *spot* worker may be denied by
    /// a capacity stockout before admission.
    fn apply_provision(
        &mut self,
        e: &mut ElasticState,
        class: usize,
        count: usize,
    ) -> Result<(), EngineError> {
        e.check_class("provision", class, self.now)?;
        let requested = count;
        let mut count = count;
        if let Some(m) = self.market.as_mut() {
            let p = m.config.stockout_probability;
            if p > 0.0 && e.catalog.classes[class].spot {
                let granted = (0..count).filter(|_| m.rng.gen::<f64>() >= p).count();
                e.stockouts[class] += (count - granted) as u64;
                count = granted;
            }
        }
        if requested > count {
            self.journal_record(JournalKind::Stockout {
                class: class as u32,
                denied: (requested - count) as u32,
            });
        }
        let live = self
            .fleet
            .iter()
            .filter(|w| w.lifecycle != Lifecycle::Retired)
            .count();
        let take = count.min(e.max_fleet.saturating_sub(live));
        e.provisioning[class] += take;
        e.provisioned[class] += take as u64;
        let boot_done = self.now + e.boot_delay_us[class];
        let perf_scale = e.catalog.classes[class].latency_scale;
        for _ in 0..take {
            let id = WorkerId(self.fleet.len());
            self.fleet
                .push(Worker::provisioning(id, class as u32, perf_scale));
            self.owner.push(FREE);
            self.push_cluster(boot_done, ClusterEvent::BootDone(id));
        }
        Ok(())
    }

    /// A provisioned worker finished booting: it turns warm and billing
    /// starts now — never before (pinned by the elasticity-invariant tests).
    /// Without an arbiter, lane 0 adopts it immediately; with one, it waits
    /// in the free pool for the next rebalance to claim it.
    fn on_boot_done(&mut self, e: &mut ElasticState, worker: WorkerId) {
        let wi = worker.index();
        let class = {
            let w = &mut self.fleet[wi];
            debug_assert_eq!(w.lifecycle, Lifecycle::Provisioning);
            w.lifecycle = Lifecycle::Warm;
            w.billed_from_us = self.now;
            w.class as usize
        };
        e.provisioning[class] -= 1;
        e.warm[class] += 1;
        e.peak_warm[class] = e.peak_warm[class].max(e.warm[class]);
        let warm_total: usize = e.warm.iter().sum();
        e.peak_fleet = e.peak_fleet.max(warm_total);
        self.journal_record(JournalKind::Boot {
            worker: wi as u32,
            class: class as u32,
        });
        if !self.has_arbiter {
            self.owner[wi] = 0;
            // Worker ids grow monotonically, so pushing keeps `owned` sorted.
            self.shards[0].lane.owned.push(worker);
            // No epoch bump: an unassigned worker appears in no routing table;
            // the lane's next control tick will see (and use) the capacity.
        }
    }

    /// Drain `count` warm workers of `class`: idlest first (unassigned, then
    /// shortest queue, ties by index). Queued queries are re-homed inside the
    /// owner lane; workers without an in-flight batch retire immediately, the
    /// rest at their batch completion (inside their owner's shard, settled at
    /// the next barrier).
    fn apply_drain(
        &mut self,
        e: &mut ElasticState,
        class: usize,
        count: usize,
    ) -> Result<(), EngineError> {
        e.check_class("drain", class, self.now)?;
        let mut candidates: Vec<WorkerId> = self
            .fleet
            .iter()
            .filter(|w| w.lifecycle == Lifecycle::Warm && w.class == class as u32)
            .map(|w| w.id)
            .collect();
        candidates.sort_by_key(|w| {
            let worker = &self.fleet[w.index()];
            (
                worker.assignment.is_some() as u8,
                worker.queue_len(),
                w.index(),
            )
        });
        // Per lane: whether it lost a worker, and the queries to re-home.
        let mut touched: Vec<Option<Vec<Query>>> = vec![None; self.shards.len()];
        for &w in candidates.iter().take(count) {
            let wi = w.index();
            e.warm[class] -= 1;
            e.draining[class] += 1;
            self.journal_record(JournalKind::DrainStart {
                worker: wi as u32,
                class: class as u32,
            });
            let worker = &mut self.fleet[wi];
            worker.begin_drain();
            let idle = !worker.has_in_flight();
            // A free worker holds no queue (its queries were re-homed when
            // its lane released it).
            if let Some(orphans) = touched.get_mut(self.owner[wi] as usize) {
                orphans
                    .get_or_insert_with(Vec::new)
                    .extend(worker.drain_queue());
            }
            if idle {
                if let Some(r) = self.retire_at_barrier(w) {
                    e.settle(self.market.as_ref().map(|m| &m.config), &r);
                    self.release(r);
                }
            }
        }
        // Invalidate the touched lanes' routing state *before* re-homing, so
        // the fallback path cannot hand a query back to a draining worker.
        for (li, orphans) in touched.into_iter().enumerate() {
            if let Some(orphans) = orphans {
                self.with_lane(li, |shard, ctx| {
                    shard.invalidate_routing(ctx);
                    shard.rehome(ctx, orphans, DropCause::Reclaimed)
                })?;
            }
        }
        Ok(())
    }

    /// Retire a drained worker at a barrier (mid-epoch retirements happen in
    /// the owner's shard instead): a lane-owned worker leaves its lane through
    /// the shard's own [`Shard::retire_worker`]. The caller settles the
    /// returned retirement at once.
    fn retire_at_barrier(&mut self, worker: WorkerId) -> Option<Retirement> {
        let wi = worker.index();
        match self.owner[wi] {
            FREE => Some(retire(&mut self.fleet[wi], self.now)),
            li => self.with_lane(li as usize, |shard, ctx| shard.retire_worker(ctx, worker)),
        }
    }

    // ---- cloud market ------------------------------------------------------------

    /// A market tick: draw spot revocations. Warm spot-class workers are
    /// visited in ascending fleet index — a fixed order, so the draw sequence
    /// is a pure function of the seed — and each is revoked independently
    /// with the config's per-tick probability. Runs at an epoch barrier on
    /// the driver thread, so `jobs > 1` runs stay bit-identical.
    fn on_market_tick(
        &mut self,
        e: &mut ElasticState,
        m: &mut MarketState,
    ) -> Result<(), EngineError> {
        if self.journal.is_some() {
            let multiplier = m.config.multiplier_at(crate::types::us_to_secs(self.now));
            // NaN-initialised, so the first tick records the starting price.
            if multiplier != self.last_price {
                self.last_price = multiplier;
                self.journal_record(JournalKind::PriceStep { multiplier });
            }
        }
        let mut revoked: Vec<WorkerId> = Vec::new();
        let p = m.config.revocation_probability();
        for w in self.fleet.iter() {
            if w.lifecycle == Lifecycle::Warm
                && e.catalog.classes[w.class as usize].spot
                && m.rng.gen::<f64>() < p
            {
                revoked.push(w.id);
            }
        }
        for w in revoked {
            self.revoke_worker(e, &m.config, w, m.deadline_us)?;
        }
        let next = self.now + m.check_interval_us;
        if next <= self.end_time_us {
            self.push_cluster(next, ClusterEvent::MarketTick);
        }
        Ok(())
    }

    /// Revoke one warm spot worker: billing stops *now* (the warm interval is
    /// accrued and `billed_from_us` becomes the `SimTime::MAX` sentinel, so
    /// every later accrual on it is a no-op), queued queries are re-homed
    /// inside the owner lane, and the worker force-drains on the market's
    /// grace deadline. The lifecycle moves through the revoked pool — a
    /// provider event, never the policy's voluntary-drain accounting.
    fn revoke_worker(
        &mut self,
        e: &mut ElasticState,
        market: &crate::MarketConfig,
        worker: WorkerId,
        deadline_us: SimTime,
    ) -> Result<(), EngineError> {
        let wi = worker.index();
        let lane = self.owner[wi];
        let (class, billed_from) = {
            let w = &self.fleet[wi];
            debug_assert_eq!(w.lifecycle, Lifecycle::Warm);
            (w.class as usize, w.billed_from_us)
        };
        // `lane` is the raw owner tag: `FREE` doubles as `CLUSTER_LANE`.
        self.journal_record(JournalKind::Revocation {
            worker: wi as u32,
            class: class as u32,
            lane,
        });
        e.accrue(Some(market), class, billed_from, self.now);
        e.warm[class] -= 1;
        e.revoked_draining[class] += 1;
        e.revocations[class] += 1;
        let w = &mut self.fleet[wi];
        w.billed_from_us = SimTime::MAX;
        w.begin_drain();
        let idle = !w.has_in_flight();
        // A free worker holds no queue; an owned one's queue is re-homed in
        // its lane, after the lane's routing state is invalidated so the
        // fallback path cannot hand a query back to the revoked worker.
        if lane != FREE {
            let orphans = w.drain_queue();
            self.with_lane(lane as usize, |shard, ctx| {
                shard.invalidate_routing(ctx);
                shard.rehome(ctx, orphans, DropCause::Revoked)
            })?;
        }
        if idle {
            // Nothing running: the forced drain completes immediately.
            if let Some(r) = self.retire_at_barrier(worker) {
                e.settle(Some(market), &r);
                self.release(r);
            }
        } else {
            // Grace period: the in-flight batch may still complete (the
            // worker then retires through the normal drain path); at the
            // deadline whatever remains is aborted and lost.
            self.push_cluster(self.now + deadline_us, ClusterEvent::RevokeDeadline(worker));
        }
        Ok(())
    }

    /// A revoked worker's grace period expired. If its batch completed in
    /// time the worker already retired and this is a no-op; otherwise the
    /// batch is aborted — its unfinished work is *lost* — and the queries are
    /// re-queued at the head of a surviving worker's queue (they already
    /// waited their turn once). The stale batch-completion event left on the
    /// owner shard's heap fires harmlessly: the retired worker is lent to no
    /// lane.
    fn on_revoke_deadline(&mut self, worker: WorkerId) -> Result<(), EngineError> {
        let wi = worker.index();
        if self.fleet[wi].lifecycle != Lifecycle::Draining {
            // The worker retired before the deadline: a clean revocation.
            self.journal_record(JournalKind::RevokeGrace {
                worker: wi as u32,
                clean: true,
                lost: 0,
            });
            return Ok(());
        }
        debug_assert_eq!(
            self.fleet[wi].billed_from_us,
            SimTime::MAX,
            "revoke deadlines fire only for revoked workers"
        );
        let lane = self.owner[wi];
        let mut lost: Vec<Query> = Vec::new();
        self.fleet[wi].abort_batch_into(&mut lost, self.now);
        // A mid-batch worker is lane-owned (free workers never batch).
        if lane == FREE && !lost.is_empty() {
            return Err(EngineError::UnownedBatch {
                worker: wi,
                now_us: self.now,
            });
        }
        self.journal_record(JournalKind::RevokeGrace {
            worker: wi as u32,
            clean: false,
            lost: lost.len() as u64,
        });
        if let Some(r) = self.retire_at_barrier(worker) {
            self.settle_retirement(r);
        }
        let Some(task) = lost.first().map(|q| q.task) else {
            return Ok(());
        };
        // Unlike `Shard::rehome`: one batch serves one variant, so every lost
        // query shares a task — and therefore one fallback target — and the
        // queries go back at the head of its queue, reversed so the front-most
        // lost query ends up first (service order is preserved), with one
        // batch start for all of them.
        self.with_lane(lane as usize, |shard, ctx| {
            let pick = fallback_worker_for_task(&shard.lane, ctx, task);
            let Some((target, w)) = ctx.pick_mut(pick) else {
                return lost
                    .iter()
                    .try_for_each(|q| shard.drop_root_child(q.root, DropCause::Revoked));
            };
            for q in lost.into_iter().rev() {
                let (lane, root) = (&mut shard.lane, SlotRef::unpack(q.root));
                let slot = lane
                    .observer
                    .slot(|| Some(lane.roots.get(root)?.trace_slot));
                let now = shard.now;
                lane.observer
                    .span(slot, SpanKind::Requeue, now, now, NO_ID, target);
                w.enqueue_front(q);
            }
            shard.kick(ctx, target);
            Ok(())
        })
    }
}

/// An even worker split across `lanes` (largest remainder of equal weights):
/// the fallback partition when no arbiter preference exists.
fn even_partition(lanes: usize, cluster: usize) -> Vec<usize> {
    crate::multi::apportion(&vec![1.0; lanes], cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_pipeline::{zoo, VariantId};

    #[test]
    fn a_revoke_deadline_on_a_free_mid_batch_worker_is_an_error() {
        // A state the engine does not build: a revoked worker still running
        // a batch while it sits in the free pool. Its lost queries
        // have no lane to go back to, so the deadline reports the worker and
        // the time instead of indexing a lane with the `FREE` tag.
        let graph = zoo::tiny_pipeline(200.0);
        let config = SimConfig {
            cluster_size: 2,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(
            &config,
            vec![LaneInput {
                graph: &graph,
                arrivals_s: &[0.5],
                initial_demand_hint: None,
            }],
            vec![CompiledLinkDelays::Uniform { hop_us: 2_000 }],
        );
        let w = &mut engine.fleet[1];
        w.assign(VariantId::new(0, 1), 4, &graph);
        w.enqueue(Query {
            root: 0,
            task: 0,
            path_accuracy: 1.0,
            deadline_us: 1_000_000,
            enqueued_us: 0,
        });
        assert!(w.try_start_batch(0).is_some());
        w.begin_drain();
        w.billed_from_us = SimTime::MAX;
        assert_eq!(engine.owner[1], FREE);
        engine.now = 2_500;
        let error = engine
            .on_revoke_deadline(WorkerId(1))
            .expect_err("a free worker's batch has no lane to re-queue on");
        assert_eq!(
            error,
            EngineError::UnownedBatch {
                worker: 1,
                now_us: 2_500
            }
        );
        let rendered = error.to_string();
        assert!(rendered.contains("worker 1"), "{rendered}");
        assert!(rendered.contains("2500"), "{rendered}");
    }
}
