//! Per-lane execution shards: the engine's data plane, one shard per pipeline.
//!
//! A [`Shard`] owns everything one lane needs to advance independently between
//! two rebalance epochs: the lane's state ([`LaneState`]), its own calendar
//! queue of timed lane events, its own batch-completion heap, and its own event
//! sequence counter. Because a warm worker is owned by exactly one lane at a
//! time and ownership only changes at epoch boundaries (where the driver runs
//! single-threaded), per-epoch shard execution is data-independent: shards may
//! run on separate threads, and the merged run is bit-identical to the serial
//! one (per-lane seq streams preserve each lane's internal event order, and
//! cross-lane interleavings never touch shared mutable state mid-epoch).
//!
//! # Lending workers
//!
//! The driver keeps the fleet in a plain `Vec<Worker>` and the owner map in a
//! plain `Vec<u32>` that only it writes. Before each epoch it splits the
//! fleet's `iter_mut()` into one table per lane ([`LaneCtx::lend_all`]):
//! `Some(&mut Worker)` exactly at the lane's own workers, `None` elsewhere. A
//! shard therefore cannot reach a foreign worker, and the borrow checker, not
//! a calling convention, proves that lanes running on separate threads touch
//! disjoint workers. "Is this worker mine?" is "is it in my table?".
//!
//! Barrier code that acts on one lane (re-homing queries, starting a batch,
//! retiring a worker) borrows that lane's table the same way
//! ([`LaneCtx::lend`]) and calls the shard's own method, so each of those
//! actions exists once, here. The lane also sees the owner map as it stood at
//! the last barrier, read-only: a worker it retires mid-epoch leaves its table
//! at once, and the driver frees the slot in the owner map when it merges the
//! retirement at the next barrier.

use crate::calendar::CalendarQueue;
use crate::engine::EngineError;
use crate::journal::Journal;
use crate::metrics::RunSummary;
use crate::routing::CompiledPlan;
use crate::slab::{Slab, SlotRef};
use crate::trace::{LaneObserver, SpanKind, NO_ID};
use crate::types::{
    ms_to_us, secs_to_us, us_to_ms, AllocationPlan, CompiledLinkDelays, Controller, DropPolicy,
    ObservedState, Query, SimConfig, SimTime, WorkerId, WorkerView,
};
use crate::worker::{Lifecycle, Worker};
use crate::SimResult;
use loki_pipeline::{PipelineGraph, TaskId, VariantId};
use loki_workload::{DemandHistory, EwmaEstimator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, TryReserveError};

/// Owner tag of a worker no lane currently holds (released by a rebalance and
/// not yet re-granted).
pub(crate) const FREE: u32 = u32::MAX;

/// What a shard executes against: the run's config, the lane's lent
/// workers, and the owner map as of the last barrier (see the module docs).
pub(crate) struct LaneCtx<'e> {
    pub(crate) config: &'e SimConfig,
    /// One slot per fleet worker: `Some` exactly at this lane's workers.
    workers: Vec<Option<&'e mut Worker>>,
    /// The owner map as of the last barrier; nothing writes it until the
    /// next one.
    owner: &'e [u32],
    pub(crate) end_time_us: SimTime,
}

impl<'e> LaneCtx<'e> {
    /// Lend every one of `lanes` lanes its own workers for one epoch.
    pub(crate) fn lend_all(
        config: &'e SimConfig,
        fleet: &'e mut [Worker],
        owner: &'e [u32],
        end_time_us: SimTime,
        lanes: usize,
    ) -> Vec<Self> {
        let n = fleet.len();
        let mut ctxs: Vec<Self> = (0..lanes)
            .map(|_| Self {
                config,
                workers: std::iter::repeat_with(|| None).take(n).collect(),
                owner,
                end_time_us,
            })
            .collect();
        for (w, (worker, &o)) in fleet.iter_mut().zip(owner).enumerate() {
            if let Some(ctx) = ctxs.get_mut(o as usize) {
                ctx.workers[w] = Some(worker);
            }
        }
        ctxs
    }

    /// Lend one lane its workers (barrier-time actions on a single lane).
    pub(crate) fn lend(
        config: &'e SimConfig,
        fleet: &'e mut [Worker],
        owner: &'e [u32],
        end_time_us: SimTime,
        lane: u32,
    ) -> Self {
        Self {
            config,
            workers: fleet
                .iter_mut()
                .zip(owner)
                .map(|(worker, &o)| (o == lane).then_some(worker))
                .collect(),
            owner,
            end_time_us,
        }
    }

    /// This lane's worker `w`, or `None` when another lane (or nobody) owns it.
    #[inline]
    pub(crate) fn worker(&self, w: WorkerId) -> Option<&Worker> {
        self.workers[w.index()].as_deref()
    }

    /// Mutable [`LaneCtx::worker`].
    #[inline]
    pub(crate) fn worker_mut(&mut self, w: WorkerId) -> Option<&mut Worker> {
        self.workers[w.index()].as_deref_mut()
    }

    /// [`LaneCtx::worker_mut`] of an optional pick, keeping its id.
    #[inline]
    pub(crate) fn pick_mut(&mut self, pick: Option<WorkerId>) -> Option<(WorkerId, &mut Worker)> {
        let w = pick?;
        Some((w, self.worker_mut(w)?))
    }
}

/// A scheduled lane event's payload. `Deliveries` names one of the shard's
/// delivery buffers: the in-flight queries one handler sent out for the same
/// time, in send order (see [`Shard::schedule_delivery`]). (Cluster-level
/// events — rebalance and elastic ticks, boot completions — live on the
/// driver's queue instead.)
#[derive(Debug, Clone)]
pub(crate) enum LaneEvent {
    ControlTick,
    RoutingTick,
    MetricsTick,
    SwapDone(WorkerId),
    Deliveries(usize),
}

// The wheel's retained bucket buffers scale with the entry size.
const _: () = assert!(std::mem::size_of::<LaneEvent>() <= 16);

/// Why a root (or one of its branches) was dropped. The *first* cause sticks:
/// a root that loses a branch to a revocation and later expires is a
/// revocation loss, not a deadline miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum DropCause {
    /// Deadline-expired: drop policies firing, failed reroutes, unroutable
    /// queries, and roots still in flight when the run ends.
    Deadline = 1,
    /// The query's worker was reclaimed by a rebalance/repartition and no
    /// fallback worker could take it.
    Reclaimed = 2,
    /// Lost to a spot-market revocation (forced drain or revocation-deadline
    /// batch kill) with no surviving worker to re-queue on.
    Revoked = 3,
}

/// Tracking state of a root (client) request while any of its sub-queries are in
/// flight.
#[derive(Debug, Clone)]
pub(crate) struct RootState {
    pub(crate) deadline_us: SimTime,
    outstanding: usize,
    accuracy_sum: f64,
    pub(crate) accuracy_count: usize,
    /// First [`DropCause`] that hit any branch of this root (0 = none).
    pub(crate) drop_cause: u8,
    /// The root's trace slot in the lane's observer
    /// ([`crate::trace::UNTRACED`] when it is not sampled).
    pub(crate) trace_slot: u32,
}

/// A retired worker, for the driver to settle: free its owner slot, stop its
/// billing, and journal it.
pub(crate) struct Retirement {
    pub(crate) worker: u32,
    pub(crate) class: u32,
    /// When billing started. `SimTime::MAX` marks a worker the market revoked:
    /// its billing already stopped, and its lifecycle count leaves the revoked
    /// pool, not the voluntary draining pool.
    pub(crate) billed_from_us: SimTime,
    pub(crate) at_us: SimTime,
}

/// Retire a drained worker at `now`: it stops serving for good. Its slot is
/// never reused, so `WorkerId`s stay stable for the whole run.
pub(crate) fn retire(w: &mut Worker, now: SimTime) -> Retirement {
    debug_assert_eq!(w.lifecycle, Lifecycle::Draining);
    w.lifecycle = Lifecycle::Retired;
    w.unassign();
    Retirement {
        worker: w.id.index() as u32,
        class: w.class,
        billed_from_us: w.billed_from_us,
        at_us: now,
    }
}

/// One pipeline to serve: its graph, arrival trace, and initial demand hint.
pub(crate) struct LaneInput<'a> {
    pub graph: &'a PipelineGraph,
    /// Root-query arrival times in seconds, ascending. The engine borrows this
    /// slice for the whole run and reads it in place; it is never copied.
    pub arrivals_s: &'a [f64],
    pub initial_demand_hint: Option<f64>,
}

/// Per-pipeline engine state: everything that was per-run in the single-pipeline
/// engine and is per-lane now that one run serves several pipelines. All that
/// the lane records about itself goes through one field, its `observer`.
pub(crate) struct LaneState<'a> {
    pub(crate) graph: &'a PipelineGraph,
    /// The borrowed arrival trace ([`LaneInput::arrivals_s`]); each time goes
    /// through [`secs_to_us`] where it is read.
    pub(crate) arrivals_s: &'a [f64],
    /// The next trace arrival of this lane: `(time, seq, index)`.
    pub(crate) next_arrival: Option<(SimTime, u64, usize)>,

    /// The controller-emitted compiled plan, installed verbatim. Its retained
    /// raw weight vectors feed the stale-epoch slow path.
    compiled: CompiledPlan,
    /// Bumped whenever this lane's worker set or assignments change.
    pub(crate) assignments_epoch: u64,
    drop_policy: DropPolicy,

    // Dense graph lookups and pre-converted constants.
    pub(crate) num_tasks: usize,
    root_task: usize,
    /// Compiled per-hop link delays (µs), one array index per dispatch; the
    /// lane's controller observes the same table.
    link: CompiledLinkDelays,
    slo_us: SimTime,
    variant_offset: Vec<usize>,
    variant_ids: Vec<VariantId>,
    task_is_sink: Vec<bool>,
    /// Per dense variant: latency budget from the active plan (NaN = unset).
    latency_budgets_ms: Vec<f64>,
    /// Per task: owned workers currently assigned to it, ascending by index.
    pub(crate) workers_by_task: Vec<Vec<WorkerId>>,
    /// The lane's partition: owned workers, ascending by index.
    pub(crate) owned: Vec<WorkerId>,

    pub(crate) roots: Slab<RootState>,

    // Observability for the lane's controller.
    demand: DemandHistory,
    pub(crate) initial_demand_hint: Option<f64>,
    arrivals_this_interval: u64,
    fanout_sums: Vec<(f64, u64)>,
    fanout_avg: HashMap<(VariantId, usize), f64>,
    per_task_counts: Vec<u64>,
    per_task_seen: Vec<bool>,
    per_task_ewma: Vec<EwmaEstimator>,
    per_task_qps: HashMap<usize, f64>,
    first_control_tick: bool,

    // SLO attainment over the window since the last elastic tick (pressure
    // signal for fleet-scaling policies; unused when elastic is off).
    pub(crate) window_on_time: u64,
    pub(crate) window_finished: u64,

    /// Everything the lane records about itself — the run histogram, the
    /// timeline's rows and plan installs, the sampled traces — behind the
    /// hooks of one sink ([`LaneObserver`]). Observation-only: no hook
    /// consumes RNG draws or changes event order.
    pub(crate) observer: LaneObserver,

    // Metrics.
    pub(crate) current: crate::metrics::IntervalMetrics,
    pub(crate) intervals: Vec<crate::metrics::IntervalMetrics>,
    /// Events attributed to this lane (its ticks, arrivals, deliveries, batch
    /// completions, swap completions of its workers). Cluster-level rebalance
    /// ticks belong to no lane.
    pub(crate) events_processed: u64,

    rng: StdRng,
}

impl<'a> LaneState<'a> {
    /// Build a lane from its input and its compiled link table; the run has
    /// validated the graph.
    pub(crate) fn new(
        input: &LaneInput<'a>,
        config: &SimConfig,
        lane_idx: usize,
        link: CompiledLinkDelays,
    ) -> Self {
        let graph = input.graph;
        let num_tasks = graph.num_tasks();
        let mut variant_offset = Vec::with_capacity(num_tasks);
        let mut variant_ids = Vec::new();
        let mut task_is_sink = Vec::with_capacity(num_tasks);
        for (id, task) in graph.tasks() {
            variant_offset.push(variant_ids.len());
            for k in 0..task.variants.len() {
                variant_ids.push(VariantId::new(id.index(), k));
            }
            task_is_sink.push(task.is_sink());
        }
        let total_variants = variant_ids.len();
        Self {
            graph,
            arrivals_s: input.arrivals_s,
            next_arrival: None,
            // The default plan has epoch 0 and every table empty; with
            // `assignments_epoch` starting at 1 it reads as stale, so the
            // pre-first-plan window routes through the queue-length fallback
            // exactly as before.
            compiled: CompiledPlan::default(),
            assignments_epoch: 1,
            drop_policy: DropPolicy::default(),
            num_tasks,
            root_task: graph.root().index(),
            link,
            slo_us: ms_to_us(graph.slo_ms()),
            variant_offset,
            variant_ids,
            task_is_sink,
            latency_budgets_ms: vec![f64::NAN; total_variants],
            workers_by_task: vec![Vec::new(); num_tasks],
            owned: Vec::new(),
            roots: Slab::with_capacity(1024),
            demand: DemandHistory::new(60, 0.3, 1.1),
            initial_demand_hint: input.initial_demand_hint,
            arrivals_this_interval: 0,
            fanout_sums: vec![(0.0, 0); total_variants * num_tasks],
            fanout_avg: HashMap::new(),
            per_task_counts: vec![0; num_tasks],
            per_task_seen: vec![false; num_tasks],
            per_task_ewma: vec![EwmaEstimator::new(0.3); num_tasks],
            per_task_qps: HashMap::new(),
            first_control_tick: true,
            window_on_time: 0,
            window_finished: 0,
            observer: LaneObserver::new(&config.observe, lane_idx as u32),
            current: crate::metrics::IntervalMetrics::default(),
            intervals: Vec::new(),
            events_processed: 0,
            // Lane 0 draws from `SimConfig::seed` exactly (single-pipeline
            // parity); later lanes get decorrelated streams.
            rng: StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add((lane_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
        }
    }

    /// Reserve room for exactly `rows` metrics intervals: the lane's series
    /// and, with the timeline on, its observer's rows. The engine calls it
    /// once, with every interval the run will close, so neither grows while
    /// events run.
    pub(crate) fn reserve_intervals(&mut self, rows: usize) -> Result<(), TryReserveError> {
        self.intervals.try_reserve_exact(rows)?;
        self.observer.reserve_rows(rows)
    }

    /// The demand estimate the arbiter provisions this lane for — the same
    /// number the lane's Loki controller would compute from its observations.
    /// The initial hint only stands in while nothing has been observed
    /// (mirroring the controller, which consumes the hint at its first
    /// control tick only); flooring at the hint forever would pin a lane's
    /// share at its time-zero demand even after it decays.
    pub(crate) fn demand_estimate(&self) -> f64 {
        if self.demand.is_empty() {
            self.initial_demand_hint.unwrap_or(0.0)
        } else {
            self.demand.provisioning_estimate()
        }
    }

    /// The lane's SLO, in ms (arbiter observation input).
    pub(crate) fn slo_ms(&self) -> f64 {
        self.graph.slo_ms()
    }
}

/// One lane's execution shard: the lane state plus the lane-local event
/// sources (calendar queue, arrival cursor, batch-completion heap) and seq
/// counter that let it advance independently between rebalance epochs.
pub(crate) struct Shard<'a> {
    pub(crate) li: u32,
    pub(crate) lane: LaneState<'a>,

    /// Calendar-queue scheduler for this lane's ticks, swap completions, and
    /// network deliveries.
    events: CalendarQueue<LaneEvent>,
    /// Delivery buffers, indexed by [`LaneEvent::Deliveries`]: each holds the
    /// `(worker, query)` pairs of one scheduled entry, in send order.
    deliveries: Vec<Vec<(WorkerId, Query)>>,
    /// Indices of `deliveries` whose entry has been delivered, for reuse.
    free_deliveries: Vec<usize>,
    /// `(time, buffer)` of each buffer the running handler opened. Emptied
    /// before every handler, so a buffer never outlives its handler.
    open_deliveries: Vec<(SimTime, usize)>,
    /// Pending batch completions of this lane's workers: each worker has at
    /// most one batch in flight, so this min-heap never exceeds the partition
    /// size and stays cache-resident.
    batch_completions: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, WorkerId)>>,
    /// Lane-local event sequence counter: ties at equal timestamps resolve in
    /// schedule order *within* the lane, exactly as the former global counter
    /// did (cross-lane ties are immaterial — lanes share no mid-epoch state).
    seq: u64,
    pub(crate) now: SimTime,
    /// Swap completions that fired for a worker free at the last barrier or
    /// retired by this lane since (counted globally, attributed to no lane —
    /// mirrors the former engine's handling of free workers' swap completions).
    pub(crate) unowned_events: u64,

    /// Mid-epoch retirements for the driver to settle at the next barrier.
    pub(crate) retirements: Vec<Retirement>,

    // Scratch buffers, reused across events/ticks.
    views_scratch: Vec<WorkerView>,
    batch_scratch: Vec<Query>,
    reroute_scratch: Vec<WorkerId>,

    /// Wall-clock seconds this shard spent executing events (across all epochs).
    pub(crate) wall_s: f64,
    /// Wall-clock seconds of the most recent `run_until` segment.
    pub(crate) epoch_wall_s: f64,
    /// Wall-clock seconds spent waiting on slower shards at barriers
    /// (estimated as the gap to the slowest shard of each epoch; with fewer
    /// worker threads than lanes this overstates waiting, since queued shards
    /// also accrue the gap).
    pub(crate) barrier_wait_s: f64,
}

impl<'a> Shard<'a> {
    /// Build a shard and seed its periodic events and first arrival. The
    /// per-lane relative order (control tick, routing tick, metrics tick,
    /// first arrival) matches the former global seeding exactly.
    pub(crate) fn new(
        lane: LaneState<'a>,
        li: u32,
        config: &SimConfig,
        shift: u32,
        num_buckets: usize,
    ) -> Self {
        let mut shard = Self {
            li,
            lane,
            events: CalendarQueue::new(shift, num_buckets),
            deliveries: Vec::new(),
            free_deliveries: Vec::new(),
            open_deliveries: Vec::new(),
            batch_completions: std::collections::BinaryHeap::new(),
            seq: 0,
            now: 0,
            unowned_events: 0,
            retirements: Vec::new(),
            views_scratch: Vec::new(),
            batch_scratch: Vec::new(),
            reroute_scratch: Vec::new(),
            wall_s: 0.0,
            epoch_wall_s: 0.0,
            barrier_wait_s: 0.0,
        };
        shard.push(0, LaneEvent::ControlTick);
        shard.push(0, LaneEvent::RoutingTick);
        shard.push(
            secs_to_us(config.metrics_interval_s),
            LaneEvent::MetricsTick,
        );
        if let Some(&first) = shard.lane.arrivals_s.first() {
            shard.seq += 1;
            shard.lane.next_arrival = Some((secs_to_us(first), shard.seq, 0));
        }
        shard
    }

    pub(crate) fn push(&mut self, time: SimTime, payload: LaneEvent) {
        self.seq += 1;
        self.events.push(time, self.seq, payload);
    }

    /// Deliver `query` to `worker` at `at`. The running handler's first
    /// delivery for `at` opens a buffer and pushes it as one calendar entry
    /// with the next `seq`; its later deliveries for `at` join that buffer.
    /// This keeps the merged order: every push of one handler takes the next
    /// `seq`, so its same-time deliveries would pop back to back anyway, in
    /// send order, which is the order their buffer replays them in.
    fn schedule_delivery(&mut self, at: SimTime, worker: WorkerId, query: Query) {
        let open = self.open_deliveries.iter().find(|&&(t, _)| t == at);
        let buf = match open {
            Some(&(_, buf)) => buf,
            None => {
                let buf = self.free_deliveries.pop().unwrap_or_else(|| {
                    self.deliveries.push(Vec::new());
                    self.deliveries.len() - 1
                });
                self.open_deliveries.push((at, buf));
                self.push(at, LaneEvent::Deliveries(buf));
                buf
            }
        };
        self.deliveries[buf].push((worker, query));
    }

    /// Record that `worker`'s current batch finishes at `time`.
    #[inline]
    fn schedule_batch_completion(&mut self, time: SimTime, worker: WorkerId) {
        self.seq += 1;
        self.batch_completions
            .push(std::cmp::Reverse((time, self.seq, worker)));
    }

    /// Advance this lane until its next event would be at `bound` or later
    /// (events exactly at `bound` wait for the barrier: cluster events at a
    /// boundary run before same-time lane events, matching the former global
    /// schedule order). Dispatches across the three lane-local sources —
    /// calendar queue, arrival cursor, batch completions — lowest `(time,
    /// seq)` first, exactly the order a single heap would produce.
    pub(crate) fn run_until(
        &mut self,
        bound: SimTime,
        ctx: &mut LaneCtx<'_>,
        controller: &mut dyn Controller,
    ) -> Result<(), EngineError> {
        let started = std::time::Instant::now();
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Source {
            Scheduler,
            Arrival,
            Batch,
        }
        loop {
            let mut best: Option<(SimTime, u64, Source)> =
                self.events.peek().map(|(t, s)| (t, s, Source::Scheduler));
            if let Some((t, s, _)) = self.lane.next_arrival {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, Source::Arrival));
                }
            }
            if let Some(&std::cmp::Reverse((t, s, _))) = self.batch_completions.peek() {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, Source::Batch));
                }
            }
            let Some((time, _, source)) = best else {
                break;
            };
            if time >= bound || time > ctx.end_time_us {
                break;
            }
            self.now = time;
            self.open_deliveries.clear();
            match source {
                Source::Arrival => {
                    self.lane.events_processed += 1;
                    let (_, _, idx) =
                        self.lane
                            .next_arrival
                            .take()
                            .ok_or(EngineError::EmptyEventSource {
                                source: "arrival",
                                now_us: time,
                                events_processed: self.lane.events_processed,
                            })?;
                    self.on_arrival(ctx, idx)?;
                }
                Source::Batch => {
                    let worker = match self.batch_completions.pop() {
                        Some(std::cmp::Reverse((_, _, worker))) => worker,
                        None => {
                            return Err(EngineError::EmptyEventSource {
                                source: "batch",
                                now_us: time,
                                events_processed: self.lane.events_processed,
                            })
                        }
                    };
                    self.lane.events_processed += 1;
                    self.on_batch_done(ctx, worker)?;
                }
                Source::Scheduler => {
                    let (_, _, payload) =
                        self.events.pop().ok_or(EngineError::EmptyEventSource {
                            source: "scheduler",
                            now_us: time,
                            events_processed: self.lane.events_processed,
                        })?;
                    match payload {
                        LaneEvent::SwapDone(worker) => {
                            // The worker may have left the lane since the swap
                            // was scheduled (migrated or retired): only a lane
                            // it is still lent to may batch on it. A worker
                            // free at the last barrier, or retired by this
                            // lane since, belongs to no lane.
                            let owner = ctx.owner[worker.index()];
                            if ctx.worker(worker).is_some() {
                                self.lane.events_processed += 1;
                                self.kick(ctx, worker);
                            } else if owner == FREE || owner == self.li {
                                self.unowned_events += 1;
                            } else {
                                self.lane.events_processed += 1;
                            }
                        }
                        LaneEvent::ControlTick => {
                            self.lane.events_processed += 1;
                            self.on_control_tick(ctx, controller)?;
                        }
                        LaneEvent::RoutingTick => {
                            self.lane.events_processed += 1;
                            self.on_routing_tick(ctx, controller);
                        }
                        LaneEvent::MetricsTick => {
                            self.lane.events_processed += 1;
                            self.on_metrics_tick(ctx);
                        }
                        LaneEvent::Deliveries(buf) => {
                            // One event per query, as when each had its own
                            // entry: the determinism goldens pin the count.
                            let mut queries = std::mem::take(&mut self.deliveries[buf]);
                            for (worker, query) in queries.drain(..) {
                                self.lane.events_processed += 1;
                                self.on_delivered(ctx, query, worker)?;
                            }
                            self.deliveries[buf] = queries;
                            self.free_deliveries.push(buf);
                        }
                    }
                }
            }
        }
        self.epoch_wall_s = started.elapsed().as_secs_f64();
        self.wall_s += self.epoch_wall_s;
        Ok(())
    }

    // ---- event handlers ----------------------------------------------------------

    fn on_arrival(&mut self, ctx: &mut LaneCtx<'_>, idx: usize) -> Result<(), EngineError> {
        let lane = &mut self.lane;
        // The dispatch loop set `now` from this arrival's `next_arrival` time.
        let arrival_time = self.now;
        // Schedule the lane's next arrival first.
        if let Some(&next) = lane.arrivals_s.get(idx + 1) {
            self.seq += 1;
            lane.next_arrival = Some((secs_to_us(next), self.seq, idx + 1));
        }
        lane.current.arrivals += 1;
        lane.arrivals_this_interval += 1;

        let trace_slot = lane.observer.root_arrival(idx as u64, arrival_time);
        let deadline = arrival_time + lane.slo_us;
        let root_ref = lane.roots.insert(RootState {
            deadline_us: deadline,
            outstanding: 1,
            accuracy_sum: 0.0,
            accuracy_count: 0,
            drop_cause: 0,
            trace_slot,
        });
        let query = Query {
            root: root_ref.pack(),
            task: lane.root_task,
            path_accuracy: 1.0,
            deadline_us: deadline,
            enqueued_us: arrival_time,
        };
        match self.pick_frontend_worker(ctx) {
            Some(worker) => {
                let deliver_at = self.now + self.lane.link.frontend_us(worker);
                let (lane, now) = (&mut self.lane, self.now);
                let (frontend, task) = (SpanKind::Frontend, lane.root_task as u32);
                lane.observer
                    .span(trace_slot, frontend, now, deliver_at, task, worker);
                self.schedule_delivery(deliver_at, worker, query);
                Ok(())
            }
            None => self.drop_root_child(query.root, DropCause::Deadline),
        }
    }

    fn on_delivered(
        &mut self,
        ctx: &mut LaneCtx<'_>,
        mut q: Query,
        worker_id: WorkerId,
    ) -> Result<(), EngineError> {
        let lane = &mut self.lane;
        lane.per_task_counts[q.task] += 1;
        lane.per_task_seen[q.task] = true;

        // The designated worker may have been re-assigned (or migrated to a
        // different lane) since routing; fall back to any worker of this lane
        // currently serving the task.
        let target = if serves_task(ctx, worker_id, q.task) {
            Some(worker_id)
        } else {
            fallback_worker_for_task(lane, ctx, q.task)
        };
        let Some((target, worker)) = ctx.pick_mut(target) else {
            return self.drop_root_child(q.root, DropCause::Deadline);
        };

        // Last-task dropping: when the query reaches the final task and its leftover
        // budget cannot cover even the expected processing time, drop it.
        if lane.drop_policy == DropPolicy::LastTask && lane.task_is_sink[q.task] {
            let expected_ms = worker.profiled_exec_ms().unwrap_or(0.0);
            let remaining_ms = if q.deadline_us > self.now {
                us_to_ms(q.deadline_us - self.now)
            } else {
                0.0
            };
            if remaining_ms < expected_ms {
                return self.drop_root_child(q.root, DropCause::Deadline);
            }
        }

        q.enqueued_us = self.now;
        if let Some((finish, _)) = worker.deliver_and_try_start(q, self.now) {
            self.schedule_batch_completion(finish, target);
        }
        Ok(())
    }

    fn on_batch_done(
        &mut self,
        ctx: &mut LaneCtx<'_>,
        worker_id: WorkerId,
    ) -> Result<(), EngineError> {
        let mut batch = std::mem::take(&mut self.batch_scratch);
        // When the batch started executing: splits each sampled query's queue
        // wait from its execution.
        let (variant_id, batch_started_us) = match ctx.worker_mut(worker_id) {
            Some(w) => (w.finish_batch_into(&mut batch), w.batch_started_us),
            None => (None, 0),
        };
        let Some(variant_id) = variant_id else {
            // A completion with no in-flight variant: either a stale event
            // for a batch the market's revocation deadline aborted (the
            // worker is Retired and no longer lent; the batch is empty and
            // nothing happens), or an unexpected scheduler state — in which
            // case don't lose the queries.
            for q in batch.drain(..) {
                self.drop_root_child(q.root, DropCause::Deadline)?;
            }
            self.batch_scratch = batch;
            if ctx
                .worker(worker_id)
                .is_some_and(|w| w.lifecycle == Lifecycle::Draining)
            {
                let retired = self.retire_worker(ctx, worker_id);
                self.retirements.extend(retired);
            }
            return Ok(());
        };
        // Borrow model data straight from the graph (lifetime 'a, independent of
        // `self`), so the loop below can call `&mut self` methods without clones.
        let graph = self.lane.graph;
        let variant = graph.variant(variant_id);
        let children = &graph.task(TaskId(variant_id.task)).children;
        let vdense = self.lane.variant_offset[variant_id.task] + variant_id.variant;
        let budget_ms = {
            let b = self.lane.latency_budgets_ms[vdense];
            if b.is_nan() {
                variant.batch_latency_ms(8)
            } else {
                b
            }
        };
        let num_tasks = self.lane.num_tasks;
        let drop_policy = self.lane.drop_policy;

        for q in batch.drain(..) {
            let path_accuracy = q.path_accuracy * variant.accuracy;

            // Queue-wait and execution spans of sampled roots.
            let (lane, root) = (&mut self.lane, SlotRef::unpack(q.root));
            let slot = lane
                .observer
                .slot(|| Some(lane.roots.get(root)?.trace_slot));
            let (task, started) = (variant_id.task as u32, batch_started_us.max(q.enqueued_us));
            if started > q.enqueued_us {
                let queue = SpanKind::Queue;
                lane.observer
                    .span(slot, queue, q.enqueued_us, started, task, worker_id);
            }
            lane.observer
                .span(slot, SpanKind::Exec, started, self.now, task, worker_id);

            // Sink queries need no budget bookkeeping — they complete here.
            if children.is_empty() {
                self.complete_leaf(q.root, path_accuracy)?;
                continue;
            }

            let time_at_task_ms = us_to_ms(self.now - q.enqueued_us);
            let overrun_ms = time_at_task_ms - budget_ms;

            // Per-task dropping: the query exceeded this task's budget, drop it now.
            if drop_policy == DropPolicy::PerTask && overrun_ms > 0.0 {
                self.drop_root_child(q.root, DropCause::Deadline)?;
                continue;
            }

            // Fan out into intermediate queries for each child edge. Children go
            // out as they are routed, each with the delay of its own link —
            // nothing reads the root's bookkeeping until this handler returns,
            // so `outstanding` can be settled after the loop from the spawn
            // count.
            let mut spawned = 0usize;
            let mut any_child_dropped = false;
            for edge in children {
                let mean = variant.mult_factor * edge.branch_ratio;
                let count = stochastic_round(&mut self.lane.rng, mean);
                let child_task = edge.child.index();
                let cell = &mut self.lane.fanout_sums[vdense * num_tasks + child_task];
                cell.0 += count as f64;
                cell.1 += 1;
                for _ in 0..count {
                    let outcome = self.route_downstream(ctx, worker_id, child_task, overrun_ms);
                    match outcome {
                        RouteOutcome::To(target) | RouteOutcome::Rerouted(target) => {
                            let (lane, now) = (&mut self.lane, self.now);
                            let (from, task) = (variant_id.task, child_task as u32);
                            if matches!(outcome, RouteOutcome::Rerouted(_)) {
                                lane.current.rerouted += 1;
                                lane.observer
                                    .span(slot, SpanKind::Reroute, now, now, task, target);
                            }
                            let at = now + lane.link.hop_us(worker_id, from, target, child_task);
                            lane.observer
                                .span(slot, SpanKind::Hop, now, at, task, target);
                            let query = Query {
                                root: q.root,
                                task: child_task,
                                path_accuracy,
                                deadline_us: q.deadline_us,
                                enqueued_us: self.now,
                            };
                            self.schedule_delivery(at, target, query);
                            spawned += 1;
                        }
                        RouteOutcome::Drop => {
                            any_child_dropped = true;
                        }
                    }
                }
            }

            if spawned == 0 {
                if any_child_dropped {
                    // All children were dropped: the request cannot be fully served.
                    self.drop_root_child(q.root, DropCause::Deadline)?;
                } else {
                    // The model legitimately produced no downstream work (e.g. no
                    // objects detected): the query completes here.
                    self.complete_leaf(q.root, path_accuracy)?;
                }
                continue;
            }

            // Replace this query's contribution to `outstanding` with its children.
            if let Some(root) = self.lane.roots.get_mut(SlotRef::unpack(q.root)) {
                root.outstanding += spawned - 1;
                if any_child_dropped && root.drop_cause == 0 {
                    root.drop_cause = DropCause::Deadline as u8;
                }
            }
        }
        self.batch_scratch = batch;
        // A draining worker retires the moment its last batch completes; warm
        // workers pull the next batch from their queue as before.
        if ctx
            .worker(worker_id)
            .is_some_and(|w| w.lifecycle == Lifecycle::Draining)
        {
            let retired = self.retire_worker(ctx, worker_id);
            self.retirements.extend(retired);
        } else {
            self.kick(ctx, worker_id);
        }
        Ok(())
    }

    fn on_control_tick(
        &mut self,
        ctx: &mut LaneCtx<'_>,
        controller: &mut dyn Controller,
    ) -> Result<(), EngineError> {
        let hint = if self.lane.first_control_tick {
            self.lane.initial_demand_hint
        } else {
            None
        };
        self.lane.first_control_tick = false;

        self.refresh_views(ctx);
        let plan = controller.plan(&self.observed_state(hint));
        if let Some(plan) = plan {
            self.check_plan(&plan)?;
            self.apply_allocation(ctx, &plan)?;
            let epoch = self.lane.assignments_epoch;
            self.lane.observer.plan_install(self.now, epoch);
        }
        // Refresh routing right after a (possible) re-allocation so it reflects the new
        // worker assignments.
        self.refresh_routing(ctx, controller, hint);

        let next = self.now + secs_to_us(ctx.config.control_interval_s);
        if next <= ctx.end_time_us {
            self.push(next, LaneEvent::ControlTick);
        }
        Ok(())
    }

    fn on_routing_tick(&mut self, ctx: &LaneCtx<'_>, controller: &mut dyn Controller) {
        self.refresh_routing(ctx, controller, None);
        let next = self.now + secs_to_us(ctx.config.routing_interval_s);
        if next <= ctx.end_time_us {
            self.push(next, LaneEvent::RoutingTick);
        }
    }

    fn on_metrics_tick(&mut self, ctx: &LaneCtx<'_>) {
        let interval = ctx.config.metrics_interval_s;
        let lane = &mut self.lane;
        // Demand observation for the lane's controller.
        lane.demand
            .observe(lane.arrivals_this_interval as f64 / interval);
        lane.arrivals_this_interval = 0;
        // Per-task arrival rates (EWMA-smoothed). Dense state; the HashMap view
        // controllers consume is refreshed here, at tick cadence.
        for task in 0..lane.num_tasks {
            if !lane.per_task_seen[task] {
                continue;
            }
            let qps = lane.per_task_counts[task] as f64 / interval;
            lane.per_task_ewma[task].observe(qps);
            lane.per_task_qps
                .insert(task, lane.per_task_ewma[task].estimate());
            lane.per_task_counts[task] = 0;
        }
        // Fan-out averages for the controller (heartbeat aggregation).
        for (vdense, &variant_id) in lane.variant_ids.iter().enumerate() {
            for child in 0..lane.num_tasks {
                let (sum, count) = lane.fanout_sums[vdense * lane.num_tasks + child];
                if count > 0 {
                    lane.fanout_avg
                        .insert((variant_id, child), sum / count as f64);
                }
            }
        }

        self.flush_interval(ctx, self.now);

        let next = self.now + secs_to_us(interval);
        if next <= ctx.end_time_us {
            self.push(next, LaneEvent::MetricsTick);
        }
    }

    /// Close the current metrics interval at `now`. Called at metrics-tick
    /// cadence mid-run and once more by [`Shard::finish`] at the end of the
    /// run (with the run-global last event time, as the serial engine did).
    fn flush_interval(&mut self, ctx: &LaneCtx<'_>, now: SimTime) {
        let lane = &mut self.lane;
        let mut finished = std::mem::take(&mut lane.current);
        finished.start_s = crate::types::us_to_secs(now) - ctx.config.metrics_interval_s;
        if finished.start_s < 0.0 {
            finished.start_s = 0.0;
        }
        // The lane's capacity is its partition's warm workers, so per-pipeline
        // utilization is active-vs-granted, not active-vs-whole-cluster (and
        // draining workers count toward neither side).
        let warm_workers = || {
            lane.owned
                .iter()
                .filter_map(|&w| ctx.worker(w))
                .filter(|w| w.accepts_dispatches())
        };
        // `engine::run` checked that the fleet's size fits a `u32`.
        finished.active_workers = warm_workers().filter(|w| w.is_active()).count() as u32;
        finished.cluster_size = warm_workers().count() as u32;
        lane.intervals.push(finished);
        lane.observer.close_interval();
    }

    /// End the lane's run at `now`: every root still in flight counts as
    /// dropped, the last interval closes, and the observer hands over the
    /// lane's result (its plan installs go into the cluster `journal`).
    pub(crate) fn finish(
        &mut self,
        ctx: &LaneCtx<'_>,
        name: &str,
        now: SimTime,
        journal: Option<&mut Journal>,
    ) -> SimResult {
        let lane = &mut self.lane;
        lane.roots.drain_with(|state| {
            // A root still in flight keeps the cause of the branch it already
            // lost, if any; otherwise it simply ran out of time.
            count_drop(&mut lane.current, state.drop_cause);
            lane.observer.root_cut_off(state.trace_slot, now);
        });
        self.flush_interval(ctx, now);
        let lane = &mut self.lane;
        let interval_s = ctx.config.metrics_interval_s;
        let mut summary = RunSummary::from_intervals(name, &lane.intervals, interval_s);
        summary.events_processed = lane.events_processed;
        let intervals = std::mem::take(&mut lane.intervals);
        lane.observer.finish(intervals, summary, journal)
    }

    // ---- controller observation ---------------------------------------------------

    fn refresh_views(&mut self, ctx: &LaneCtx<'_>) {
        let now = self.now;
        let views = &mut self.views_scratch;
        views.clear();
        // Draining workers are excluded: they are finishing borrowed time, not
        // capacity the controller may plan instances onto.
        views.extend(
            self.lane
                .owned
                .iter()
                .filter_map(|&id| ctx.worker(id))
                .filter(|w| w.accepts_dispatches())
                .map(|w| WorkerView {
                    id: w.id,
                    variant: w.assignment.map(|a| a.variant),
                    max_batch: w.assignment.map(|a| a.max_batch).unwrap_or(1),
                    queue_len: w.queue_len(),
                    swapping: w.is_swapping(now),
                }),
        );
    }

    /// The capacity-scoped view the lane's controller observes: only the
    /// lane's partition (its warm workers), with `cluster_size` equal to the
    /// partition size. Callers must [`Shard::refresh_views`] first.
    fn observed_state(&self, hint: Option<f64>) -> ObservedState<'_> {
        let lane = &self.lane;
        ObservedState {
            now_s: crate::types::us_to_secs(self.now),
            cluster_size: self.views_scratch.len(),
            workers: &self.views_scratch,
            demand: &lane.demand,
            initial_demand_hint: hint,
            observed_fanout: &lane.fanout_avg,
            per_task_arrival_qps: &lane.per_task_qps,
            links: &lane.link,
        }
    }

    // ---- routing and dropping -----------------------------------------------------

    /// Ask the controller to route over the lane's current workers and
    /// install the compiled plan it returns verbatim. The plan is built from
    /// the worker views snapshotted here (nothing mutates assignments between
    /// the snapshot and this store), so its tables need no re-filtering:
    /// stamping it with the current assignment epoch is the whole hand-off.
    /// Any later assignment change bumps the epoch and diverts sampling to
    /// the validity-checked stale scan until the next refresh.
    fn refresh_routing(
        &mut self,
        ctx: &LaneCtx<'_>,
        controller: &mut dyn Controller,
        hint: Option<f64>,
    ) {
        self.refresh_views(ctx);
        if let Some(mut plan) = controller.routing(&self.observed_state(hint)) {
            plan.finalize(ctx.workers.len(), self.lane.assignments_epoch);
            self.lane.compiled = plan;
        }
    }

    fn pick_frontend_worker(&mut self, ctx: &LaneCtx<'_>) -> Option<WorkerId> {
        let lane = &mut self.lane;
        let choice = if lane.compiled.epoch() == lane.assignments_epoch {
            lane.compiled.frontend().sample(&mut lane.rng)
        } else {
            sample_table_scan(
                lane.compiled.frontend_raw(),
                ctx,
                lane.root_task,
                &mut lane.rng,
            )
        };
        choice.or_else(|| fallback_worker_for_task(lane, ctx, lane.root_task))
    }

    /// Choose where a query leaving `upstream` for `child_task` goes: the
    /// worker its routing table samples, a rescue when it runs `overrun_ms`
    /// behind under opportunistic rerouting, or a drop. A stale plan is read
    /// through the same tables, each entry checked with [`serves_task`].
    fn route_downstream(
        &mut self,
        ctx: &LaneCtx<'_>,
        upstream: WorkerId,
        child_task: usize,
        overrun_ms: f64,
    ) -> RouteOutcome {
        let mut ties = std::mem::take(&mut self.reroute_scratch);
        let lane = &mut self.lane;
        let fresh = lane.compiled.epoch() == lane.assignments_epoch;
        // Default choice: the upstream worker's own routing table, then the per-task
        // default table, then any owned worker serving the task.
        let sampled = if fresh {
            lane.compiled
                .downstream_table(upstream, child_task)
                .and_then(|t| t.sample(&mut lane.rng))
        } else {
            lane.compiled
                .raw_downstream(upstream, child_task)
                .and_then(|t| sample_table_scan(t, ctx, child_task, &mut lane.rng))
        };
        let default_choice = sampled.or_else(|| fallback_worker_for_task(lane, ctx, child_task));

        let Some(default_choice) = default_choice else {
            self.reroute_scratch = ties;
            return RouteOutcome::Drop;
        };

        // Opportunistic rerouting: if the query is running late, rescue it on a
        // backup fast enough to make up the deficit, drawn uniformly among the
        // most accurate such backups. One scan serves fresh and stale plans.
        if lane.drop_policy == DropPolicy::OpportunisticRerouting && overrun_ms > 0.0 {
            let default_exec_ms = ctx
                .worker(default_choice)
                .and_then(Worker::profiled_exec_ms)
                .unwrap_or(f64::INFINITY);
            let needed_ms = default_exec_ms - overrun_ms;
            ties.clear();
            // Backups arrive from `PlanBuilder::finish` most accurate first,
            // NaN last: the first fast-enough entry has the best accuracy,
            // and its ties follow it. On a stale plan an entry must also
            // still serve the task for this lane. A NaN accuracy (a
            // degenerate profile) ends the scan, so it never wins a rescue.
            let mut best_acc = f64::NEG_INFINITY;
            for b in lane.compiled.backup(child_task) {
                if b.accuracy.is_nan() || (!ties.is_empty() && b.accuracy < best_acc - 1e-9) {
                    break;
                }
                if b.exec_time_ms <= needed_ms && (fresh || serves_task(ctx, b.worker, child_task))
                {
                    if ties.is_empty() {
                        best_acc = b.accuracy;
                    }
                    ties.push(b.worker);
                }
            }
            if ties.is_empty() {
                self.reroute_scratch = ties;
                return RouteOutcome::Drop;
            }
            let pick = ties[lane.rng.gen_range(0..ties.len())];
            self.reroute_scratch = ties;
            return RouteOutcome::Rerouted(pick);
        }

        self.reroute_scratch = ties;
        RouteOutcome::To(default_choice)
    }

    /// A branch of a root was dropped; the root's first drop cause sticks.
    pub(crate) fn drop_root_child(
        &mut self,
        root_packed: u64,
        cause: DropCause,
    ) -> Result<(), EngineError> {
        self.end_branch(root_packed, "drop", |root| {
            if root.drop_cause == 0 {
                root.drop_cause = cause as u8;
            }
        })
    }

    /// A branch of a root was served at `accuracy`.
    fn complete_leaf(&mut self, root_packed: u64, accuracy: f64) -> Result<(), EngineError> {
        self.end_branch(root_packed, "complete", |root| {
            root.accuracy_sum += accuracy;
            root.accuracy_count += 1;
        })
    }

    /// Close one branch of a root: record its outcome with `outcome`, and
    /// finalize the root once no branch is outstanding.
    fn end_branch(
        &mut self,
        root_packed: u64,
        context: &'static str,
        outcome: impl FnOnce(&mut RootState),
    ) -> Result<(), EngineError> {
        let lane = &mut self.lane;
        let root_ref = SlotRef::unpack(root_packed);
        if let Some(root) = lane.roots.get_mut(root_ref) {
            outcome(root);
            root.outstanding = root.outstanding.saturating_sub(1);
            if root.outstanding == 0 {
                let state = lane
                    .roots
                    .remove(root_ref)
                    .ok_or(EngineError::MissingRoot {
                        context,
                        now_us: self.now,
                    })?;
                finalize_root(lane, self.now, state);
            }
        }
        Ok(())
    }

    // ---- allocation --------------------------------------------------------------

    /// Reject a plan that names a model variant outside this lane's pipeline.
    /// Plans come from the public [`Controller`] trait, so they are outside
    /// input: a bad instance would index past the graph, a bad latency-budget
    /// key would land in another variant's slot.
    fn check_plan(&self, plan: &AllocationPlan) -> Result<(), EngineError> {
        let graph = self.lane.graph;
        let known = |v: &VariantId| {
            v.task < graph.num_tasks() && v.variant < graph.task(TaskId(v.task)).variants.len()
        };
        let bad_instance = plan
            .instances
            .iter()
            .map(|s| s.variant)
            .find(|v| !known(v))
            .map(|v| ("plan instance", v));
        // The budgets are a hash map: report its smallest bad key, so the
        // error does not depend on iteration order.
        let bad_budget = || {
            plan.latency_budgets_ms
                .keys()
                .copied()
                .filter(|v| !known(v))
                .min()
                .map(|v| ("latency budget", v))
        };
        match bad_instance.or_else(bad_budget) {
            Some((input, v)) => Err(EngineError::UnknownVariant {
                input,
                lane: self.li,
                task: v.task,
                variant: v.variant,
                now_us: self.now,
            }),
            None => Ok(()),
        }
    }

    fn apply_allocation(
        &mut self,
        ctx: &mut LaneCtx<'_>,
        plan: &AllocationPlan,
    ) -> Result<(), EngineError> {
        {
            let lane = &mut self.lane;
            lane.latency_budgets_ms.fill(f64::NAN);
            for (&variant, &budget) in &plan.latency_budgets_ms {
                let idx = lane.variant_offset[variant.task] + variant.variant;
                lane.latency_budgets_ms[idx] = budget;
            }
            lane.drop_policy = plan.drop_policy;
        }
        let graph = self.lane.graph;
        // The lane only ever places instances on its own partition — and only
        // on its warm workers (draining ones are leaving, booting ones are
        // not capacity yet).
        let owned: Vec<WorkerId> = self
            .lane
            .owned
            .iter()
            .copied()
            .filter(|&w| ctx.worker(w).is_some_and(Worker::accepts_dispatches))
            .collect();

        // Desired replica counts per (variant, batch).
        let mut desired: Vec<(VariantId, u32, usize)> = plan
            .instances
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| (s.variant, s.max_batch, s.count))
            .collect();
        // Never exceed the lane's partition.
        let mut total: usize = desired.iter().map(|d| d.2).sum();
        while total > owned.len() {
            // Trim the largest group first (the plan should never do this, but the
            // engine enforces the physical limit regardless).
            if let Some(max) = desired.iter_mut().max_by_key(|d| d.2) {
                max.2 -= 1;
                total -= 1;
            } else {
                break;
            }
        }

        // Step 1: keep workers that already host a desired variant. `keep` is
        // indexed by position in `owned`.
        let mut remaining = desired;
        let mut keep: Vec<Option<(VariantId, u32)>> = vec![None; owned.len()];
        let assignment = |w: WorkerId| ctx.worker(w).and_then(|w| w.assignment);
        for (i, &w) in owned.iter().enumerate() {
            if let Some(a) = assignment(w) {
                if let Some(slot) = remaining
                    .iter_mut()
                    .find(|(v, _, c)| *v == a.variant && *c > 0)
                {
                    keep[i] = Some((slot.0, slot.1));
                    slot.2 -= 1;
                }
            }
        }

        // Step 2: place still-needed instances on unassigned workers first, then on
        // workers whose current variant is no longer needed.
        let mut to_place = remaining
            .iter()
            .flat_map(|&(v, b, c)| std::iter::repeat_n((v, b), c));
        for repurpose in [false, true] {
            for (i, &w) in owned.iter().enumerate() {
                if assignment(w).is_some() == repurpose && keep[i].is_none() {
                    keep[i] = to_place.next();
                }
            }
        }

        // Step 3: apply the assignment to every owned worker.
        let swap_us = (ctx.config.model_swap_ms > 0.0).then(|| ms_to_us(ctx.config.model_swap_ms));
        let mut orphaned: Vec<Query> = Vec::new();
        for (&w, kept) in owned.iter().zip(keep) {
            let Some(worker) = ctx.worker_mut(w) else {
                continue;
            };
            match kept {
                Some((variant, batch)) => {
                    let previous_task = worker.assignment.map(|a| a.variant.task);
                    if worker.assign(variant, batch, graph) {
                        // Queries queued for a different task must be re-routed.
                        if previous_task.is_some() && previous_task != Some(variant.task) {
                            orphaned.extend(worker.drain_queue());
                        }
                        // Loading a *different* model onto a previously active worker
                        // stalls it for the swap duration. Powered-down workers are
                        // assumed to be pre-warmed by the cluster bootstrap.
                        if let (Some(swap_us), Some(_)) = (swap_us, previous_task) {
                            let until = self.now + swap_us;
                            worker.begin_swap(until);
                            self.push(until, LaneEvent::SwapDone(w));
                        }
                    }
                }
                None => {
                    if worker.is_active() {
                        orphaned.extend(worker.drain_queue());
                        worker.unassign();
                    }
                }
            }
        }

        // Assignments (possibly) changed.
        self.invalidate_routing(ctx);

        // Step 4: re-home queries that were queued on reconfigured workers.
        self.rehome(ctx, orphaned, DropCause::Reclaimed)
    }

    /// The lane's workers or their assignments changed: divert routing to the
    /// validity-checked stale path until the controller installs a plan built
    /// against the new state, and rebuild the per-task worker lists of the
    /// fallback path from the owned partition. Only warm workers are listed:
    /// a draining worker must never receive a new dispatch.
    pub(crate) fn invalidate_routing(&mut self, ctx: &LaneCtx<'_>) {
        let lane = &mut self.lane;
        lane.assignments_epoch += 1;
        for list in lane.workers_by_task.iter_mut() {
            list.clear();
        }
        for &w in &lane.owned {
            let Some(worker) = ctx.worker(w).filter(|w| w.accepts_dispatches()) else {
                continue;
            };
            if let Some(a) = worker.assignment {
                if a.variant.task < lane.num_tasks {
                    lane.workers_by_task[a.variant.task].push(w);
                }
            }
        }
    }

    /// Move queries stranded on a worker that left this lane, changed task or
    /// started draining onto the lane's least-loaded server of each query's
    /// task, starting a batch there after each; a query with no server left
    /// is dropped with `cause`. Callers invalidate the lane's routing first,
    /// so no query goes back to the worker it came from.
    pub(crate) fn rehome(
        &mut self,
        ctx: &mut LaneCtx<'_>,
        queries: Vec<Query>,
        cause: DropCause,
    ) -> Result<(), EngineError> {
        for mut q in queries {
            let pick = fallback_worker_for_task(&self.lane, ctx, q.task);
            let Some((target, worker)) = ctx.pick_mut(pick) else {
                self.drop_root_child(q.root, cause)?;
                continue;
            };
            q.enqueued_us = self.now;
            let (lane, root) = (&mut self.lane, SlotRef::unpack(q.root));
            let slot = lane
                .observer
                .slot(|| Some(lane.roots.get(root)?.trace_slot));
            let now = self.now;
            lane.observer
                .span(slot, SpanKind::Requeue, now, now, NO_ID, target);
            worker.enqueue(q);
            self.kick(ctx, target);
        }
        Ok(())
    }

    /// Retire one of this lane's drained workers: it leaves the lane's table
    /// and partition, and its routing state is rebuilt without it. The driver
    /// settles the returned [`Retirement`] (owner slot, billing, journal) —
    /// at once at a barrier, at the next barrier mid-epoch. `None` when the
    /// worker is not lent to this lane.
    pub(crate) fn retire_worker(
        &mut self,
        ctx: &mut LaneCtx<'_>,
        worker: WorkerId,
    ) -> Option<Retirement> {
        let retired = retire(ctx.workers[worker.index()].take()?, self.now);
        if let Ok(pos) = self.lane.owned.binary_search(&worker) {
            self.lane.owned.remove(pos);
        }
        self.invalidate_routing(ctx);
        Some(retired)
    }

    /// Start the next queued batch on `worker` if it can (lent, idle, warm,
    /// not swapping, with a queue).
    pub(crate) fn kick(&mut self, ctx: &mut LaneCtx<'_>, worker: WorkerId) {
        if let Some((finish, _)) = ctx
            .worker_mut(worker)
            .and_then(|w| w.try_start_batch(self.now))
        {
            self.schedule_batch_completion(finish, worker);
        }
    }
}

/// Close a root whose last branch ended at `now`: count it as dropped, on
/// time or late, and hand its end to the observer, with a served root's
/// end-to-end latency: arrival (deadline − SLO) → now.
fn finalize_root(lane: &mut LaneState<'_>, now: SimTime, state: RootState) {
    lane.window_finished += 1;
    let served = state.drop_cause == 0 && state.accuracy_count > 0;
    let latency_us = served.then(|| now.saturating_sub(state.deadline_us - lane.slo_us));
    lane.observer.root_end(state.trace_slot, now, latency_us);
    if !served {
        count_drop(&mut lane.current, state.drop_cause);
        return;
    }
    let accuracy = state.accuracy_sum / state.accuracy_count as f64;
    if now <= state.deadline_us {
        lane.current.completed_on_time += 1;
        lane.window_on_time += 1;
    } else {
        lane.current.completed_late += 1;
    }
    lane.current.accuracy_sum += accuracy;
}

/// Count a dropped root under its first [`DropCause`]. Cause 0 (a root whose
/// every branch vanished without an explicit drop, or one still in flight at
/// the end of the run) reads as a deadline loss.
fn count_drop(m: &mut crate::metrics::IntervalMetrics, cause: u8) {
    match cause {
        c if c == DropCause::Reclaimed as u8 => m.dropped_reclaimed += 1,
        c if c == DropCause::Revoked as u8 => m.dropped_revoked += 1,
        _ => m.dropped_deadline += 1,
    }
}

/// Any worker of the lane serving `task`, preferring the shortest queue.
pub(crate) fn fallback_worker_for_task(
    lane: &LaneState<'_>,
    ctx: &LaneCtx<'_>,
    task: usize,
) -> Option<WorkerId> {
    lane.workers_by_task[task]
        .iter()
        .filter_map(|&w| Some((w, ctx.worker(w)?.queue_len())))
        .min_by_key(|&(_, queued)| queued)
        .map(|(w, _)| w)
}

fn stochastic_round(rng: &mut StdRng, mean: f64) -> usize {
    // `as usize` truncates, which equals floor() for the non-negative
    // means used here — and avoids a libm floor call on baseline x86-64.
    debug_assert!(mean >= 0.0);
    let base = mean as usize;
    let frac = mean - base as f64;
    let extra = if frac > 0.0 && rng.gen::<f64>() < frac {
        1
    } else {
        0
    };
    base + extra
}

/// True when `w` is lent to this lane, warm, and hosts a variant of `task`:
/// the validity test of a delivery and of the stale-routing slow paths.
fn serves_task(ctx: &LaneCtx<'_>, w: WorkerId, task: usize) -> bool {
    ctx.worker(w).is_some_and(|w| {
        w.accepts_dispatches() && w.assignment.is_some_and(|a| a.variant.task == task)
    })
}

/// Sample a worker from a raw weighted table, skipping entries that no longer
/// serve the expected task *for this lane*: the slow path used while the
/// compiled routing is stale. Two passes (sum, then CDF walk) — no allocation.
fn sample_table_scan(
    table: &[(WorkerId, f64)],
    ctx: &LaneCtx<'_>,
    task: usize,
    rng: &mut StdRng,
) -> Option<WorkerId> {
    let valid = |w: WorkerId, weight: f64| weight > 0.0 && serves_task(ctx, w, task);
    let total: f64 = table
        .iter()
        .filter(|(w, weight)| valid(*w, *weight))
        .map(|(_, weight)| *weight)
        .sum();
    if total <= 0.0 {
        return None;
    }
    let mut draw = rng.gen_range(0.0..total);
    let mut last = None;
    for (worker, weight) in table.iter().filter(|(w, weight)| valid(*w, *weight)) {
        draw -= weight;
        last = Some(*worker);
        if draw <= 0.0 {
            return last;
        }
    }
    last
}

#[derive(Clone, Copy)]
enum RouteOutcome {
    To(WorkerId),
    Rerouted(WorkerId),
    Drop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::PlanBuilder;
    use crate::types::BackupWorker;

    /// The compiled table of `config`'s uniform hop delay.
    fn uniform_links(config: &SimConfig) -> CompiledLinkDelays {
        CompiledLinkDelays::Uniform {
            hop_us: ms_to_us(config.network_delay_ms),
        }
    }

    /// A controller that never plans or routes: the lane's ticks run and
    /// change nothing.
    struct Idle;

    impl Controller for Idle {
        fn name(&self) -> &str {
            "idle"
        }

        fn plan(&mut self, _observed: &ObservedState<'_>) -> Option<AllocationPlan> {
            None
        }

        fn routing(&mut self, _observed: &ObservedState<'_>) -> Option<CompiledPlan> {
            None
        }
    }

    #[test]
    fn a_handler_sends_one_entry_per_delivery_time() {
        let graph = loki_pipeline::zoo::tiny_pipeline(200.0);
        let config = SimConfig::default();
        let input = LaneInput {
            graph: &graph,
            arrivals_s: &[],
            initial_demand_hint: None,
        };
        let lane = LaneState::new(&input, &config, 0, uniform_links(&config));
        let mut shard = Shard::new(lane, 0, &config, 10, 128);
        // The lane's first ticks: control and routing at 0, metrics at 1 s.
        assert_eq!(shard.events.len(), 3);
        let query = Query {
            root: 0,
            task: 0,
            path_accuracy: 1.0,
            deadline_us: 0,
            enqueued_us: 0,
        };
        // One handler's deliveries: three queries due at two times.
        for at in [500, 700, 500] {
            shard.schedule_delivery(at, WorkerId(0), query);
        }
        assert_eq!(shard.events.len(), 5);

        // Run the ticks at 0: each is a handler of its own, so a delivery
        // sent for 500 afterwards starts a new entry rather than joining
        // the earlier handler's buffer.
        let mut fleet = vec![Worker::new(WorkerId(0))];
        let owner = [FREE];
        let mut ctx = LaneCtx::lend_all(&config, &mut fleet, &owner, SimTime::MAX, 1)
            .pop()
            .expect("one lane");
        shard.run_until(1, &mut ctx, &mut Idle).expect("ticks run");
        assert_eq!(shard.lane.events_processed, 2);
        shard.schedule_delivery(500, WorkerId(0), query);
        assert_eq!(shard.events.len(), 6);

        // Every query still counts as one event. Worker 0 belongs to no lane,
        // so each query is dropped; its root is unknown, so nothing else
        // happens.
        shard
            .run_until(600, &mut ctx, &mut Idle)
            .expect("deliveries run");
        assert_eq!(shard.lane.events_processed, 2 + 3);
        shard
            .run_until(800, &mut ctx, &mut Idle)
            .expect("deliveries run");
        assert_eq!(shard.lane.events_processed, 2 + 3 + 1);
        // All three delivered buffers wait for reuse.
        assert_eq!(shard.free_deliveries.len(), 3);
    }

    /// A plan for the tiny pipeline with no routing tables and the given
    /// task-1 backups, each `(worker, exec_time_ms, accuracy)`.
    fn backup_plan(backups: &[(usize, f64, f64)]) -> CompiledPlan {
        let mut builder = PlanBuilder::default();
        builder.begin(2);
        for &(w, exec_time_ms, accuracy) in backups {
            let worker = WorkerId(w);
            let backup = BackupWorker {
                worker,
                exec_time_ms,
                accuracy,
            };
            builder.push_backup(1, backup);
        }
        builder.finish()
    }

    /// Warm workers at batch 4: worker 0 hosts task 0 of the tiny pipeline,
    /// every other worker task 1.
    fn tiny_fleet(graph: &PipelineGraph, n: usize) -> Vec<Worker> {
        (0..n)
            .map(|i| {
                let mut w = Worker::new(WorkerId(i));
                w.assign(VariantId::new(usize::from(i > 0), 1), 4, graph);
                w
            })
            .collect()
    }

    /// Lane 0 of the tiny pipeline under opportunistic rerouting, with
    /// `plan` installed fresh. The fallback sees only worker 1 for task 1,
    /// so a default choice draws no random number.
    fn rescue_shard<'a>(
        graph: &'a PipelineGraph,
        config: &SimConfig,
        fleet_len: usize,
        mut plan: CompiledPlan,
    ) -> Shard<'a> {
        let input = LaneInput {
            graph,
            arrivals_s: &[],
            initial_demand_hint: None,
        };
        let lane = LaneState::new(&input, config, 0, uniform_links(config));
        let mut shard = Shard::new(lane, 0, config, 10, 128);
        shard.lane.drop_policy = DropPolicy::OpportunisticRerouting;
        shard.lane.workers_by_task[1] = vec![WorkerId(1)];
        plan.finalize(fleet_len, shard.lane.assignments_epoch);
        shard.lane.compiled = plan;
        shard
    }

    #[test]
    fn a_nan_accuracy_backup_never_wins_a_rescue() {
        let graph = loki_pipeline::zoo::tiny_pipeline(200.0);
        let config = SimConfig::default();
        let mut fleet = tiny_fleet(&graph, 4);
        let owner = [0; 4];
        let ctx = LaneCtx::lend_all(&config, &mut fleet, &owner, SimTime::MAX, 1)
            .pop()
            .expect("one lane");
        // An accurate backup too slow to make up 1 ms, then a fast one. The
        // default choice (worker 1) needs 21 ms.
        let rescue = |accuracy: f64| {
            let plan = backup_plan(&[(2, 1e9, 1.0), (3, 0.0, accuracy)]);
            let mut shard = rescue_shard(&graph, &config, 4, plan);
            assert_eq!(shard.lane.compiled.epoch(), shard.lane.assignments_epoch);
            let fresh = shard.route_downstream(&ctx, WorkerId(0), 1, 1.0);
            shard.lane.assignments_epoch += 1;
            let stale = shard.route_downstream(&ctx, WorkerId(0), 1, 1.0);
            (fresh, stale)
        };
        assert!(matches!(
            rescue(0.9),
            (
                RouteOutcome::Rerouted(WorkerId(3)),
                RouteOutcome::Rerouted(WorkerId(3))
            )
        ));
        // A degenerate profile's NaN accuracy sorts last and wins nothing,
        // on a fresh plan as on a stale one.
        assert!(matches!(
            rescue(f64::NAN),
            (RouteOutcome::Drop, RouteOutcome::Drop)
        ));
    }

    #[test]
    fn fresh_and_stale_plans_pick_the_same_rescue() {
        let graph = loki_pipeline::zoo::tiny_pipeline(200.0);
        let config = SimConfig::default();
        let mut fleet = tiny_fleet(&graph, 7);
        let owner = [0; 7];
        let ctx = LaneCtx::lend_all(&config, &mut fleet, &owner, SimTime::MAX, 1)
            .pop()
            .expect("one lane");
        // Pushed in no accuracy order: a slow backup more accurate than the
        // three fast 0.9 ties, and a fast, less accurate one.
        let plan = backup_plan(&[
            (5, 0.0, 0.8),
            (2, 0.0, 0.9),
            (4, 1e9, 0.95),
            (3, 0.5, 0.9),
            (6, 0.0, 0.9),
        ]);
        let mut shard = rescue_shard(&graph, &config, 7, plan);
        let rng = shard.lane.rng.clone();
        let draws = |shard: &mut Shard<'_>| -> Vec<(Vec<WorkerId>, WorkerId)> {
            (0..32)
                .map(
                    |_| match shard.route_downstream(&ctx, WorkerId(0), 1, 1.0) {
                        RouteOutcome::Rerouted(pick) => (shard.reroute_scratch.clone(), pick),
                        _ => panic!("three fast backups tie"),
                    },
                )
                .collect()
        };
        let fresh = draws(&mut shard);
        // Stale: an assignment changed, but every backup still serves task 1.
        shard.lane.rng = rng;
        shard.lane.assignments_epoch += 1;
        let stale = draws(&mut shard);
        assert_eq!(fresh, stale);
        assert_eq!(fresh[0].0, [WorkerId(2), WorkerId(3), WorkerId(6)]);
        let mut picks: Vec<WorkerId> = fresh.iter().map(|&(_, pick)| pick).collect();
        picks.sort_unstable();
        picks.dedup();
        assert_eq!(picks, [WorkerId(2), WorkerId(3), WorkerId(6)]);
    }
}
