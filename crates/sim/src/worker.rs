//! The worker (GPU) model: a FIFO queue, greedy batch formation, and profile-driven
//! processing times.

use crate::types::{Query, SimTime, WorkerId};
use loki_pipeline::{BatchSize, LatencyProfile, PipelineGraph, VariantId};
use std::collections::VecDeque;

/// The model-variant instance currently hosted on a worker.
///
/// Carries a copy of the variant's latency profile so the hot batching path
/// (`try_start_batch`, the drop-policy checks) never walks the pipeline graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The hosted variant.
    pub variant: VariantId,
    /// Maximum batch size the worker may form.
    pub max_batch: BatchSize,
    /// The variant's profiled batch-latency model, cached at assignment time.
    pub latency: LatencyProfile,
}

/// Lifecycle state of a worker in an elastic fleet. Fixed-fleet workers are
/// `Warm` for the whole run, which reproduces the historical engine exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lifecycle {
    /// Requested from the provider, still booting: owns no lane, hosts no
    /// model, is not billed.
    Provisioning,
    /// Fully operational (the only state that accepts new dispatches).
    #[default]
    Warm,
    /// Scheduled for removal: finishes its in-flight batch but accepts no new
    /// dispatches (its queue was re-homed when draining began).
    Draining,
    /// Removed from the fleet; its slot is kept so `WorkerId`s stay stable,
    /// but the worker never serves (or bills) again.
    Retired,
}

/// A single worker (GPU) in the simulated cluster.
#[derive(Debug, Clone)]
pub struct Worker {
    /// This worker's id.
    pub id: WorkerId,
    /// Current assignment (None = powered down / unassigned).
    pub assignment: Option<Assignment>,
    /// Queue of queries waiting to be batched.
    queue: VecDeque<Query>,
    /// The batch currently being processed (empty if idle).
    in_flight: Vec<Query>,
    /// The variant that is processing the in-flight batch (it may differ from the
    /// current assignment if the worker was re-assigned mid-batch).
    pub in_flight_variant: Option<VariantId>,
    /// Time until which the worker is busy processing the in-flight batch.
    pub busy_until: SimTime,
    /// When the in-flight batch started executing (meaningful only while
    /// [`Worker::has_in_flight`]); lets the tracer split a query's time at a
    /// worker into queue wait vs. execution without storing per-query state.
    pub batch_started_us: SimTime,
    /// Time until which the worker is loading a new model (cannot process).
    pub swap_until: SimTime,
    /// Accumulated busy time (for utilization accounting).
    pub busy_time_us: u64,
    /// Number of queries this worker has processed.
    pub processed: u64,
    /// Elastic lifecycle state (`Warm` for fixed-fleet workers).
    pub lifecycle: Lifecycle,
    /// Catalog class index (0 for fixed-fleet workers).
    pub class: u32,
    /// Multiplier on hosted variants' latency profiles (the worker's
    /// class-relative speed; 1.0 = the profiled reference GPU).
    pub perf_scale: f64,
    /// When billing started (boot completion; 0 for the initial warm fleet).
    pub billed_from_us: SimTime,
}

impl Worker {
    /// Create an idle, unassigned worker.
    pub fn new(id: WorkerId) -> Self {
        Self {
            id,
            assignment: None,
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            in_flight_variant: None,
            busy_until: 0,
            batch_started_us: 0,
            swap_until: 0,
            busy_time_us: 0,
            processed: 0,
            lifecycle: Lifecycle::Warm,
            class: 0,
            perf_scale: 1.0,
            billed_from_us: 0,
        }
    }

    /// Create a still-booting worker of a catalog class.
    pub fn provisioning(id: WorkerId, class: u32, perf_scale: f64) -> Self {
        Self {
            lifecycle: Lifecycle::Provisioning,
            class,
            perf_scale,
            ..Self::new(id)
        }
    }

    /// True when the worker may receive new dispatches (warm — not booting,
    /// draining, or retired). Every routing path in the engine filters on
    /// this, which is what guarantees a draining worker never receives a new
    /// dispatch.
    #[inline]
    pub fn accepts_dispatches(&self) -> bool {
        self.lifecycle == Lifecycle::Warm
    }

    /// Begin draining: the worker accepts no new dispatches from now on. The
    /// caller is responsible for re-homing the queue (via
    /// [`Worker::drain_queue`]) and for retiring the worker once its in-flight
    /// batch completes (immediately when [`Worker::has_in_flight`] is false).
    pub fn begin_drain(&mut self) {
        debug_assert_eq!(self.lifecycle, Lifecycle::Warm, "only warm workers drain");
        self.lifecycle = Lifecycle::Draining;
    }

    /// True while a batch is executing on the worker.
    pub fn has_in_flight(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// True if the worker hosts a variant.
    pub fn is_active(&self) -> bool {
        self.assignment.is_some()
    }

    /// True if the worker is still loading a model at time `now`.
    pub fn is_swapping(&self, now: SimTime) -> bool {
        self.swap_until > now
    }

    /// Length of the waiting queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Push a query onto the waiting queue.
    pub fn enqueue(&mut self, q: Query) {
        self.queue.push_back(q);
    }

    /// Push a query at the *head* of the waiting queue. Used when re-homing
    /// queries lost to a spot revocation: they were already at the front of
    /// the revoked worker's service order, so they keep their place on the
    /// survivor rather than re-queueing behind newer arrivals.
    pub fn enqueue_front(&mut self, q: Query) {
        self.queue.push_front(q);
    }

    /// Deliver a query and immediately try to start a batch — the common case
    /// in an underloaded cluster is an idle worker with an empty queue, where
    /// the query can go straight into execution as a batch of one without the
    /// round trip through the waiting queue.
    #[inline]
    pub fn deliver_and_try_start(&mut self, q: Query, now: SimTime) -> Option<(SimTime, usize)> {
        debug_assert!(
            self.accepts_dispatches(),
            "dispatch to a non-warm worker {}",
            self.id
        );
        if self.in_flight.is_empty() && self.queue.is_empty() && !self.is_swapping(now) {
            if let Some(assignment) = self.assignment.as_ref() {
                let variant = assignment.variant;
                let latency_ms = assignment.latency.batch_latency_ms(1);
                self.in_flight.push(q);
                self.in_flight_variant = Some(variant);
                let duration = crate::types::ms_to_us(latency_ms);
                self.busy_until = now + duration;
                self.batch_started_us = now;
                self.busy_time_us += duration;
                self.processed += 1;
                return Some((self.busy_until, 1));
            }
        }
        self.queue.push_back(q);
        self.try_start_batch(now)
    }

    /// Remove and return every queued query (used when a worker is re-assigned and its
    /// queue has to be re-routed elsewhere).
    pub fn drain_queue(&mut self) -> Vec<Query> {
        self.queue.drain(..).collect()
    }

    /// Assign a (possibly different) variant to this worker.
    ///
    /// Returns `true` if the model actually changed (which incurs the swap delay the
    /// caller is responsible for applying via [`Worker::begin_swap`]). Changing only
    /// the batch size is free.
    pub fn assign(
        &mut self,
        variant: VariantId,
        max_batch: BatchSize,
        graph: &PipelineGraph,
    ) -> bool {
        let changed = match self.assignment {
            Some(a) => a.variant != variant,
            None => true,
        };
        // Cache the latency profile scaled by the worker's class speed, so the
        // hot batching path pays the heterogeneity exactly once, here.
        let reference = graph.variant(variant).latency;
        let latency = if self.perf_scale == 1.0 {
            reference
        } else {
            loki_pipeline::LatencyProfile::new(
                reference.alpha_ms * self.perf_scale,
                reference.beta_ms * self.perf_scale,
            )
        };
        self.assignment = Some(Assignment {
            variant,
            max_batch,
            latency,
        });
        changed
    }

    /// Power the worker down (hardware scaling during off-peak periods).
    pub fn unassign(&mut self) {
        self.assignment = None;
    }

    /// Mark the worker as loading a model until `until`.
    pub fn begin_swap(&mut self, until: SimTime) {
        self.swap_until = until;
    }

    /// Try to start processing a batch at time `now`.
    ///
    /// Returns `Some((finish_time, batch_size))` if a batch was started; the engine is
    /// expected to schedule a batch-completion event at `finish_time`. Returns `None`
    /// if the worker is unassigned, busy, swapping, or has an empty queue.
    pub fn try_start_batch(&mut self, now: SimTime) -> Option<(SimTime, usize)> {
        if !self.in_flight.is_empty()
            || self.queue.is_empty()
            || self.is_swapping(now)
            || !self.accepts_dispatches()
        {
            return None;
        }
        let assignment = self.assignment.as_ref()?;
        let take = (self.queue.len()).min(assignment.max_batch as usize);
        let variant = assignment.variant;
        let latency_ms = assignment.latency.batch_latency_ms(take as BatchSize);
        // Manual pop loop: cheaper than a `drain` iterator for the tiny batch
        // sizes that dominate here.
        self.in_flight.reserve(take);
        for _ in 0..take {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            self.in_flight.push(q);
        }
        self.in_flight_variant = Some(variant);
        let duration = crate::types::ms_to_us(latency_ms);
        self.busy_until = now + duration;
        self.batch_started_us = now;
        self.busy_time_us += duration;
        self.processed += take as u64;
        Some((self.busy_until, take))
    }

    /// Finish the in-flight batch, moving its queries into `out` (which is
    /// cleared first) and returning the variant that processed them. The swap
    /// lets the engine reuse one scratch buffer for every batch instead of
    /// allocating a fresh `Vec` per completion.
    pub fn finish_batch_into(&mut self, out: &mut Vec<Query>) -> Option<VariantId> {
        out.clear();
        std::mem::swap(&mut self.in_flight, out);
        self.in_flight_variant.take()
    }

    /// Abort the in-flight batch at `now`, moving its queries into `out`
    /// (cleared first). The inverse of [`Worker::finish_batch_into`] for a
    /// batch that will never complete: busy-time credited at batch start is
    /// refunded for the unexecuted remainder, the processed count is rolled
    /// back, and the worker is left idle. Used when a revocation deadline
    /// expires with the batch still running.
    pub fn abort_batch_into(&mut self, out: &mut Vec<Query>, now: SimTime) {
        out.clear();
        std::mem::swap(&mut self.in_flight, out);
        self.busy_time_us = self
            .busy_time_us
            .saturating_sub(self.busy_until.saturating_sub(now));
        self.busy_until = now;
        self.processed = self.processed.saturating_sub(out.len() as u64);
        self.in_flight_variant = None;
    }

    /// Profiled execution time (ms) of one full batch at the configured batch size.
    pub fn profiled_exec_ms(&self) -> Option<f64> {
        self.assignment
            .map(|a| a.latency.batch_latency_ms(a.max_batch))
    }

    /// Profiled throughput (QPS) of this worker at its configured batch size.
    pub fn capacity_qps(&self) -> f64 {
        self.assignment
            .map(|a| a.latency.throughput_qps(a.max_batch))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_pipeline::zoo;

    fn query(id: u64, task: usize) -> Query {
        Query {
            root: id,
            task,
            path_accuracy: 1.0,
            deadline_us: 1_000_000,
            enqueued_us: 0,
        }
    }

    #[test]
    fn idle_unassigned_worker_does_not_start() {
        let _g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(0));
        w.enqueue(query(1, 0));
        assert!(w.try_start_batch(0).is_none());
        assert!(!w.is_active());
    }

    #[test]
    fn batch_formation_respects_max_batch() {
        let g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(0));
        w.assign(VariantId::new(0, 0), 4, &g);
        for i in 0..10 {
            w.enqueue(query(i, 0));
        }
        let (finish, size) = w.try_start_batch(0).unwrap();
        assert_eq!(size, 4);
        assert_eq!(w.queue_len(), 6);
        // a-small: alpha=2, beta=1 -> 2 + 4 = 6 ms
        assert_eq!(finish, crate::types::ms_to_us(6.0));
        // cannot start another batch while busy
        assert!(w.try_start_batch(1).is_none());
        let mut done = Vec::new();
        let variant = w.finish_batch_into(&mut done);
        assert_eq!(done.len(), 4);
        assert_eq!(variant, Some(VariantId::new(0, 0)));
        // now it can start again with the remaining queries
        let (_, size2) = w.try_start_batch(finish).unwrap();
        assert_eq!(size2, 4);
    }

    #[test]
    fn partial_batches_form_when_queue_is_short() {
        let g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(1));
        w.assign(VariantId::new(0, 1), 8, &g);
        w.enqueue(query(1, 0));
        w.enqueue(query(2, 0));
        let (_, size) = w.try_start_batch(100).unwrap();
        assert_eq!(size, 2);
        assert_eq!(w.queue_len(), 0);
    }

    #[test]
    fn swap_blocks_processing_and_reassignment_detects_change() {
        let g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(2));
        let changed = w.assign(VariantId::new(0, 0), 2, &g);
        assert!(changed);
        // same variant, different batch: no swap needed
        assert!(!w.assign(VariantId::new(0, 0), 4, &g));
        // different variant: swap needed
        assert!(w.assign(VariantId::new(0, 1), 4, &g));
        w.begin_swap(5_000);
        w.enqueue(query(1, 0));
        assert!(w.try_start_batch(1_000).is_none());
        assert!(w.is_swapping(1_000));
        assert!(!w.is_swapping(5_000));
        assert!(w.try_start_batch(5_000).is_some());
    }

    #[test]
    fn drain_queue_and_capacity() {
        let g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(3));
        assert_eq!(w.capacity_qps(), 0.0);
        w.assign(VariantId::new(1, 1), 8, &g);
        w.enqueue(query(1, 1));
        w.enqueue(query(2, 1));
        let drained = w.drain_queue();
        assert_eq!(drained.len(), 2);
        assert_eq!(w.queue_len(), 0);
        let expected = g.variant(VariantId::new(1, 1)).throughput_qps(8);
        assert!((w.capacity_qps() - expected).abs() < 1e-9);
        assert!(w.profiled_exec_ms().is_some());
        w.unassign();
        assert!(!w.is_active());
    }

    #[test]
    fn draining_worker_finishes_in_flight_but_starts_nothing_new() {
        let g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(5));
        w.assign(VariantId::new(0, 0), 4, &g);
        w.enqueue(query(1, 0));
        let (finish, _) = w.try_start_batch(0).unwrap();
        // Draining mid-batch: the in-flight batch still completes...
        w.begin_drain();
        assert!(!w.accepts_dispatches());
        assert!(w.has_in_flight());
        let mut done = Vec::new();
        assert_eq!(w.finish_batch_into(&mut done), Some(VariantId::new(0, 0)));
        assert_eq!(done.len(), 1);
        // ...but nothing new ever starts, even with queued work.
        w.enqueue(query(2, 0));
        assert!(w.try_start_batch(finish).is_none());
        w.lifecycle = Lifecycle::Retired;
        assert!(w.try_start_batch(finish).is_none());
    }

    #[test]
    fn perf_scale_stretches_the_cached_latency_profile() {
        let g = zoo::tiny_pipeline(100.0);
        let mut reference = Worker::new(WorkerId(6));
        reference.assign(VariantId::new(0, 0), 4, &g);
        let mut slow = Worker::provisioning(WorkerId(7), 1, 1.5);
        assert_eq!(slow.lifecycle, Lifecycle::Provisioning);
        slow.lifecycle = Lifecycle::Warm;
        slow.assign(VariantId::new(0, 0), 4, &g);
        let base = reference.profiled_exec_ms().unwrap();
        let scaled = slow.profiled_exec_ms().unwrap();
        assert!((scaled - base * 1.5).abs() < 1e-9, "{scaled} vs {base}");
        // Throughput drops by the same factor.
        assert!((slow.capacity_qps() - reference.capacity_qps() / 1.5).abs() < 1e-9);
    }

    #[test]
    fn abort_batch_refunds_busy_time_and_processed_count() {
        let g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(8));
        w.assign(VariantId::new(0, 0), 4, &g);
        for i in 0..3 {
            w.enqueue(query(i, 0));
        }
        let (finish, size) = w.try_start_batch(0).unwrap();
        assert_eq!(size, 3);
        assert_eq!(w.busy_time_us, finish);
        // Revocation deadline hits 1 ms into the batch: the batch is lost,
        // only the elapsed 1 ms stays credited as busy time.
        let now = crate::types::ms_to_us(1.0);
        let mut lost = Vec::new();
        w.abort_batch_into(&mut lost, now);
        assert_eq!(lost.len(), 3);
        assert!(!w.has_in_flight());
        assert_eq!(w.in_flight_variant, None);
        assert_eq!(w.busy_until, now);
        assert_eq!(w.busy_time_us, now);
        assert_eq!(w.processed, 0);
    }

    #[test]
    fn enqueue_front_preserves_service_order() {
        let g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(9));
        w.assign(VariantId::new(0, 0), 1, &g);
        w.enqueue(query(10, 0));
        w.enqueue_front(query(5, 0));
        let (_, size) = w.try_start_batch(0).unwrap();
        assert_eq!(size, 1);
        let mut done = Vec::new();
        w.finish_batch_into(&mut done);
        // The front-enqueued query is served before the earlier arrival.
        assert_eq!(done[0].root, 5);
        assert_eq!(w.queue_len(), 1);
    }

    #[test]
    fn busy_time_accumulates() {
        let g = zoo::tiny_pipeline(100.0);
        let mut w = Worker::new(WorkerId(4));
        w.assign(VariantId::new(0, 0), 1, &g);
        w.enqueue(query(1, 0));
        let mut scratch = Vec::new();
        let (t1, _) = w.try_start_batch(0).unwrap();
        w.finish_batch_into(&mut scratch);
        w.enqueue(query(2, 0));
        let (t2, _) = w.try_start_batch(t1).unwrap();
        w.finish_batch_into(&mut scratch);
        assert_eq!(w.busy_time_us, t2);
        assert_eq!(w.processed, 2);
    }
}
