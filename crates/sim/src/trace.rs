//! The observation layer: log-bucketed latency histograms, deterministic
//! sampled query tracing, and the one sink each lane records through.
//!
//! Everything in this module is *observation-only*: nothing here consumes RNG
//! draws, schedules events, or perturbs the `(time, seq)` dispatch order, so
//! enabling any of it leaves the simulated results bit-identical (pinned by the
//! determinism goldens and the trace-identity tests).
//!
//! # Histograms
//!
//! [`Histogram`] is an HDR-style log-linear histogram over microsecond values
//! with a **fixed bucket layout** (compile-time constants, independent of the
//! data): values below 2^[`HIST_SUB_BITS`] land in exact unit buckets, larger
//! values in `2^HIST_SUB_BITS` sub-buckets per power of two (≤ ~3% relative
//! error). Because the layout never adapts, merging histograms is exact
//! element-wise integer addition — lane merges and seed aggregation commute
//! with recording.
//!
//! # Query tracing
//!
//! A lane samples every Nth root arrival (a seed-stable, RNG-free decision on
//! the lane-local arrival index, so `jobs = N` runs trace exactly the roots
//! serial runs trace) and records a [`Span`] tree across the root's whole
//! life: the frontend hop, per-hop queue wait, batch execution, network
//! transfers, rescue/requeue events, and the terminal completion or drop.
//! [`TraceLog::to_chrome_json`] exports the merged log as Chrome trace-event
//! JSON loadable in Perfetto (`loki run <scenario> --trace out.json`).
//!
//! # The lane observer
//!
//! Each lane records through one `LaneObserver`, built once from
//! [`ObserveConfig`]. It owns the run histogram, the timeline state (the
//! interval recorder, the closed rows and the plan-install journal) and the
//! sampled tracer, and the shard calls it at a few hooks: root arrival (which
//! returns the root's trace slot), span, root end (a served root's latency or
//! a drop, plus the terminal marker), root cut off at run end, interval
//! close, plan install, and `finish`, which yields the lane's
//! [`crate::SimResult`]. A hook does nothing for a recorder the config
//! leaves off.

use crate::engine::SimResult;
use crate::journal::{Journal, JournalKind};
use crate::metrics::{IntervalMetrics, RunSummary};
use crate::types::{SimTime, WorkerId};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Observability configuration carried by [`crate::SimConfig`]: which of the
/// lane observer's recorders run. The default — histograms on, tracing and
/// timeline off — adds no trace allocations to the hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveConfig {
    /// Trace every Nth root arrival per lane (`0` disables tracing). The
    /// decision uses the lane-local arrival index — never the RNG — so the
    /// sampled set is identical across `jobs` values and unchanged runs.
    pub trace_sample: u64,
    /// Record the end-to-end latency histogram of served roots (the
    /// observer's root-end hook). On by default — recording is a couple of
    /// array increments per served root; the reference benchmark reports its
    /// cost as `observe.hist_overhead_pct` (see `benchmark/README.md`).
    pub histograms: bool,
    /// Record the timeline layer: the structured cluster event journal
    /// ([`crate::journal::Journal`]) plus per-metrics-interval windowed
    /// latency histograms ([`crate::SimResult::window`]). Off by default.
    /// Observation-only like everything else here: journal recording happens
    /// at hooks that already exist (it consumes no RNG draws and schedules no
    /// events), and a served root's latency is still recorded once: into the
    /// observer's interval recorder in place of the whole-run histogram. Each
    /// interval close cuts the recorder's occupied bucket range out as a row
    /// ([`Histogram::take_row`]), resets it in place and merges the row into
    /// the run histogram, which is therefore the exact sum of the rows.
    pub timeline: bool,
}
impl Default for ObserveConfig {
    fn default() -> Self {
        Self {
            trace_sample: 0,
            histograms: true,
            timeline: false,
        }
    }
}

/// Sub-bucket resolution of the log-linear layout: `2^HIST_SUB_BITS`
/// sub-buckets per power of two (values below that are exact).
pub const HIST_SUB_BITS: u32 = 5;
const SUB: u64 = 1 << HIST_SUB_BITS;
/// Total buckets of the fixed layout (covers the full `u64` range).
pub const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize + 1) * SUB as usize;

/// Bucket index of a microsecond value under the fixed log-linear layout.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let shift = msb - HIST_SUB_BITS as u64;
        let group = shift + 1;
        let sub = (v >> shift) & (SUB - 1);
        (group * SUB + sub) as usize
    }
}

/// Lower bound (inclusive) of a bucket, i.e. the smallest value mapping to it.
pub fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        index
    } else {
        let group = index / SUB;
        let sub = index % SUB;
        (SUB + sub) << (group - 1)
    }
}

/// `counts` placed at bucket `at` of `len` otherwise zero buckets.
fn relaid(counts: &[u64], at: usize, len: usize) -> Box<[u64]> {
    let mut grown = vec![0; len];
    grown[at..at + counts.len()].copy_from_slice(counts);
    grown.into_boxed_slice()
}

/// A row grown back to the full layout: the cold path of
/// [`Histogram::record`]. It takes and returns the buckets by value, so the
/// histogram's own address never escapes the hot path, and the array type
/// tells the caller the new length.
#[cold]
#[inline(never)]
fn expand(counts: Box<[u64]>, first: usize) -> Box<[u64; HIST_BUCKETS]> {
    let mut grown = Box::new([0; HIST_BUCKETS]);
    grown[first..first + counts.len()].copy_from_slice(&counts);
    grown
}

/// An HDR-style log-linear histogram over microsecond values with a fixed
/// bucket layout, so merges are exact integer additions. [`Histogram::new`]
/// allocates the full layout, so recording is branch + shift + increment;
/// rows cut by [`Histogram::take_row`] store only the buckets from their
/// lowest to their highest occupied one. Recording into such a row first
/// grows it back to the full layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    /// Buckets `first..first + counts.len()` of the fixed layout; every
    /// bucket outside that range is zero. Dense histograms have `first == 0`
    /// and [`HIST_BUCKETS`] buckets.
    counts: Box<[u64]>,
    first: usize,
    total: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Equal when the recorded values are: the stored bucket range is storage,
/// not data, so a row equals the dense histogram holding the same values.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.sum_us == other.sum_us
            && self.min_us == other.min_us
            && self.max_us == other.max_us
            && self.occupied().eq(other.occupied())
    }
}

impl Histogram {
    /// An empty histogram with the full fixed layout preallocated.
    pub fn new() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS].into_boxed_slice(),
            first: 0,
            total: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Record one microsecond value.
    #[inline]
    pub fn record(&mut self, us: u64) {
        // Live recorders are dense, so this check never depends on `us` and
        // is never taken on the hot path. Past it the length is known (and
        // `first` is 0, so the index needs no offset), which drops the
        // bounds check on the increment.
        if self.counts.len() != HIST_BUCKETS {
            self.counts = expand(std::mem::take(&mut self.counts), self.first);
            self.first = 0;
        }
        self.counts[bucket_index(us)] += 1;
        self.total += 1;
        self.sum_us += us;
        if us < self.min_us {
            self.min_us = us;
        }
        if us > self.max_us {
            self.max_us = us;
        }
    }

    /// Move the recorded values out as a row that stores exactly the buckets
    /// from the lowest to the highest occupied one, and leave `self` empty.
    /// Only those buckets are zeroed, and `self` keeps its storage for the
    /// next interval.
    pub fn take_row(&mut self) -> Histogram {
        let (first, end) = if self.total == 0 {
            (self.first, self.first)
        } else {
            (bucket_index(self.min_us), bucket_index(self.max_us) + 1)
        };
        let stored = first - self.first..end - self.first;
        let row = Histogram {
            counts: self.counts[stored.clone()].into(),
            first,
            total: self.total,
            sum_us: self.sum_us,
            min_us: self.min_us,
            max_us: self.max_us,
        };
        self.counts[stored].fill(0);
        self.total = 0;
        self.sum_us = 0;
        self.min_us = u64::MAX;
        self.max_us = 0;
        row
    }

    /// One past the last stored bucket.
    fn end(&self) -> usize {
        self.first + self.counts.len()
    }

    /// `(bucket, count)` of every non-zero bucket, in bucket order.
    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (self.first..)
            .zip(self.counts.iter().copied())
            .filter(|&(_, c)| c != 0)
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of the recorded values in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.total as f64 / 1_000.0
        }
    }

    /// The exact largest recorded value in microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max_us
        }
    }

    /// The quantile value in microseconds: the lower bound of the first bucket
    /// whose cumulative count reaches `ceil(q * count)` (HDR's "lowest
    /// equivalent value" convention — exact for values below 2^[`HIST_SUB_BITS`],
    /// ≤ ~3% below the true value otherwise). Returns 0 when empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (i, c) in self.occupied() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_low(i);
            }
        }
        self.max_us
    }

    /// [`Histogram::percentile_us`] in milliseconds.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.percentile_us(q) as f64 / 1_000.0
    }

    /// Merge another histogram into this one. Exact: the result is
    /// bit-identical to a histogram that recorded both value streams.
    /// Storage grows to the union of the two stored ranges.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.is_empty() {
            self.counts = other.counts.clone();
            self.first = other.first;
        } else if !other.counts.is_empty() {
            let first = self.first.min(other.first);
            let end = self.end().max(other.end());
            if (first, end) != (self.first, self.end()) {
                self.counts = relaid(&self.counts, self.first - first, end - first);
                self.first = first;
            }
            let into = &mut self.counts[other.first - self.first..];
            for (a, b) in into.iter_mut().zip(other.counts.iter()) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The `[p50, p90, p99, p999]` milliseconds vector reports print.
    pub fn percentiles_ms(&self) -> [f64; 4] {
        [
            self.percentile_ms(0.50),
            self.percentile_ms(0.90),
            self.percentile_ms(0.99),
            self.percentile_ms(0.999),
        ]
    }
}

/// What one [`Span`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Frontend → first-task worker network hop.
    Frontend,
    /// Wait in a worker's queue until its batch started.
    Queue,
    /// Batch execution on a worker.
    Exec,
    /// Upstream worker → downstream worker network hop.
    Hop,
    /// Zero-length marker: opportunistic rerouting rescued this query.
    Reroute,
    /// Zero-length marker: the query was re-homed after its worker was
    /// reclaimed or revoked.
    Requeue,
    /// Zero-length terminal marker: a branch of the root was dropped.
    Drop,
    /// Zero-length terminal marker: the root completed (all sinks done).
    Complete,
}

impl SpanKind {
    /// Stable lowercase name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Frontend => "frontend",
            SpanKind::Queue => "queue",
            SpanKind::Exec => "exec",
            SpanKind::Hop => "hop",
            SpanKind::Reroute => "reroute",
            SpanKind::Requeue => "requeue",
            SpanKind::Drop => "drop",
            SpanKind::Complete => "complete",
        }
    }
}

/// Sentinel for "no worker / no task" span coordinates.
pub const NO_ID: u32 = u32::MAX;

/// One recorded interval (or zero-length marker) in a sampled root's life.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What the interval measures.
    pub kind: SpanKind,
    /// Interval start, simulated µs.
    pub start_us: SimTime,
    /// Interval end, simulated µs (equal to `start_us` for markers).
    pub end_us: SimTime,
    /// Pipeline task the span belongs to ([`NO_ID`] for root-level spans).
    pub task: u32,
    /// Worker the span executed on ([`NO_ID`] when not worker-bound).
    pub worker: u32,
}

/// Per-kind duration attribution along the chain that ended a sampled root —
/// the critical-path summary of one trace.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Total critical-path duration, µs (≤ the measured end-to-end latency).
    pub total_us: SimTime,
    /// Of `total_us`: queue-wait time.
    pub queue_us: SimTime,
    /// Of `total_us`: batch-execution time.
    pub exec_us: SimTime,
    /// Of `total_us`: network-transfer time (frontend + inter-worker hops).
    pub network_us: SimTime,
}

/// The full recorded life of one sampled root query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootTrace {
    /// Pipeline lane the root arrived on.
    pub lane: u32,
    /// Lane-local arrival index of the root (the sampling key).
    pub arrival_index: u64,
    /// Root arrival time, simulated µs.
    pub arrival_us: SimTime,
    /// Completion or drop time, simulated µs (`arrival_us` while in flight).
    pub end_us: SimTime,
    /// Whether the root was dropped (any branch lost).
    pub dropped: bool,
    /// Recorded spans, in event-processing order (deterministic).
    pub spans: Vec<Span>,
}

impl RootTrace {
    /// Measured end-to-end latency of this root, µs.
    pub fn latency_us(&self) -> SimTime {
        self.end_us.saturating_sub(self.arrival_us)
    }

    /// Walk the span chain backwards from the last-finishing interval span
    /// (each span starts where its predecessor ended — the data plane leaves
    /// no gaps) and attribute its duration by kind. `total_us` can be smaller
    /// than [`RootTrace::latency_us`] when the chain breaks (e.g. a requeued
    /// query restarts its wait), never larger.
    pub fn critical_path(&self) -> CriticalPath {
        let mut cp = CriticalPath::default();
        let intervals: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.end_us > s.start_us)
            .collect();
        let Some(mut current) = intervals
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.end_us, usize::MAX - i))
            .map(|(_, s)| **s)
        else {
            return cp;
        };
        loop {
            let d = current.end_us - current.start_us;
            cp.total_us += d;
            match current.kind {
                SpanKind::Queue => cp.queue_us += d,
                SpanKind::Exec => cp.exec_us += d,
                SpanKind::Frontend | SpanKind::Hop => cp.network_us += d,
                _ => {}
            }
            if current.start_us <= self.arrival_us {
                break;
            }
            let Some(prev) = intervals.iter().find(|s| s.end_us == current.start_us) else {
                break;
            };
            current = **prev;
        }
        cp
    }
}

/// The trace slot of a root no tracer samples.
pub(crate) const UNTRACED: u32 = u32::MAX;

/// One lane's observation sink (see the module docs). A root's trace slot is
/// its index in `roots`, or [`UNTRACED`].
pub(crate) struct LaneObserver {
    /// The lane, as traced roots and plan installs record it.
    lane: u32,
    /// Trace every Nth root arrival; 0 leaves tracing off.
    sample_every: u64,
    /// The sampled roots, in arrival order.
    roots: Vec<RootTrace>,
    /// The run's end-to-end latency histogram. With the timeline on it holds
    /// only the closed intervals' rows, so it is complete only after the last
    /// interval closes.
    latency: Option<Box<Histogram>>,
    timeline: Option<Box<Timeline>>,
}

/// A lane's timeline state.
#[derive(Default)]
struct Timeline {
    /// The open interval's latency histogram; served roots record here in
    /// place of the run histogram.
    recorder: Histogram,
    /// Closed intervals' rows, index-aligned with the lane's intervals.
    rows: Vec<Histogram>,
    /// The lane's plan installs — every other journaled incident is
    /// cluster-level and recorded by the driver.
    journal: Journal,
}

impl LaneObserver {
    /// The sink of lane `lane`, with the recorders `observe` turns on.
    pub(crate) fn new(observe: &ObserveConfig, lane: u32) -> Self {
        Self {
            lane,
            sample_every: observe.trace_sample,
            roots: Vec::new(),
            latency: observe.histograms.then(Box::default),
            timeline: observe.timeline.then(Box::default),
        }
    }

    /// A root arrived at `at` with lane-local arrival index `index`: start its
    /// trace if it is sampled. Returns its trace slot.
    #[inline]
    pub(crate) fn root_arrival(&mut self, index: u64, at: SimTime) -> u32 {
        if self.sample_every == 0 || !index.is_multiple_of(self.sample_every) {
            return UNTRACED;
        }
        self.roots.push(RootTrace {
            lane: self.lane,
            arrival_index: index,
            arrival_us: at,
            end_us: at,
            dropped: false,
            spans: Vec::with_capacity(8),
        });
        self.roots.len() as u32 - 1
    }

    /// The trace slot `read` finds in a root's state. `read` runs only while
    /// tracing is on, so an untraced run never looks a root up for it.
    #[inline]
    pub(crate) fn slot(&self, read: impl FnOnce() -> Option<u32>) -> u32 {
        match self.sample_every {
            0 => UNTRACED,
            _ => read().unwrap_or(UNTRACED),
        }
    }

    /// Append a span of `kind` over `[start_us, end_us]` at `task` on
    /// `worker` to the trace in `slot` (markers have `start_us == end_us`).
    #[inline]
    pub(crate) fn span(
        &mut self,
        slot: u32,
        kind: SpanKind,
        start_us: SimTime,
        end_us: SimTime,
        task: u32,
        worker: WorkerId,
    ) {
        if let Some(root) = self.roots.get_mut(slot as usize) {
            let worker = worker.index() as u32;
            root.spans.push(Span {
                kind,
                start_us,
                end_us,
                task,
                worker,
            });
        }
    }

    /// The root in `slot` ended at `at`: served with end-to-end latency
    /// `served_us` (recorded into the open interval's row with the timeline
    /// on, into the run histogram otherwise), or dropped (`None`). Its trace
    /// gets the terminal marker.
    #[inline]
    pub(crate) fn root_end(&mut self, slot: u32, at: SimTime, served_us: Option<SimTime>) {
        if let Some(root) = self.roots.get_mut(slot as usize) {
            let kind = match served_us {
                Some(_) => SpanKind::Complete,
                None => SpanKind::Drop,
            };
            root.spans.push(Span {
                kind,
                start_us: at,
                end_us: at,
                task: NO_ID,
                worker: NO_ID,
            });
            (root.end_us, root.dropped) = (at, served_us.is_none());
        }
        let Some(us) = served_us else { return };
        if let Some(t) = self.timeline.as_deref_mut() {
            t.recorder.record(us);
        } else if let Some(h) = self.latency.as_deref_mut() {
            h.record(us);
        }
    }

    /// The root in `slot` was still in flight when the run ended at `at`: it
    /// ends dropped, with no terminal marker.
    pub(crate) fn root_cut_off(&mut self, slot: u32, at: SimTime) {
        if let Some(root) = self.roots.get_mut(slot as usize) {
            (root.end_us, root.dropped) = (at, true);
        }
    }

    /// Close the open metrics interval: cut the recorder's occupied buckets
    /// out as the interval's row and fold the row into the run histogram.
    pub(crate) fn close_interval(&mut self) {
        if let Some(t) = self.timeline.as_mut() {
            let row = t.recorder.take_row();
            if let Some(latency) = self.latency.as_mut() {
                latency.merge(&row);
            }
            t.rows.push(row);
        }
    }

    /// The lane installed a plan at `at`, moving its assignments to `epoch`.
    pub(crate) fn plan_install(&mut self, at: SimTime, epoch: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.journal
                .record(at, self.lane, JournalKind::PlanInstall { epoch });
        }
    }

    /// Hand over what the lane observed as its [`SimResult`], with the
    /// lane's `intervals` and `summary`; the plan installs go into the
    /// cluster `journal`.
    pub(crate) fn finish(
        &mut self,
        intervals: Vec<IntervalMetrics>,
        summary: RunSummary,
        journal: Option<&mut Journal>,
    ) -> SimResult {
        let window = self.timeline.take().map(|t| {
            let t = *t;
            if let Some(journal) = journal {
                journal.merge_from(t.journal);
            }
            t.rows
        });
        let trace = (self.sample_every > 0).then(|| TraceLog {
            roots: std::mem::take(&mut self.roots),
        });
        let latency = self.latency.take().map(|h| *h);
        SimResult::new(intervals, summary, latency, trace, window)
    }
}

/// The merged trace of a whole run: every lane's sampled roots, in lane order
/// then arrival order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceLog {
    /// All sampled roots.
    pub roots: Vec<RootTrace>,
}

impl TraceLog {
    /// Total spans across all sampled roots.
    pub fn num_spans(&self) -> usize {
        self.roots.iter().map(|r| r.spans.len()).sum()
    }

    /// Export as Chrome trace-event JSON (the `traceEvents` array format that
    /// Perfetto and `chrome://tracing` load). Each span becomes a complete
    /// (`"ph": "X"`) event with `ts`/`dur` in microseconds, `pid` = lane and
    /// `tid` = worker; each root additionally gets an umbrella event carrying
    /// the critical-path summary in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (ri, root) in self.roots.iter().enumerate() {
            let cp = root.critical_path();
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"root#{ri}\",\"cat\":\"root\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":0,\"args\":{{\"arrival_index\":{},\"latency_us\":{},\
                 \"critical_path_us\":{},\"critical_queue_us\":{},\"critical_exec_us\":{},\
                 \"critical_network_us\":{},\"dropped\":{}}}}}",
                root.arrival_us,
                root.latency_us().max(1),
                root.lane,
                root.arrival_index,
                root.latency_us(),
                cp.total_us,
                cp.queue_us,
                cp.exec_us,
                cp.network_us,
                root.dropped
            );
            for span in &root.spans {
                let tid = if span.worker == NO_ID {
                    0
                } else {
                    span.worker + 1
                };
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"root\":{ri},\"task\":{}}}}}",
                    span.kind.name(),
                    span.start_us,
                    span.end_us - span.start_us,
                    root.lane,
                    tid,
                    if span.task == NO_ID {
                        -1
                    } else {
                        span.task as i64
                    },
                );
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_below_the_linear_cutoff() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_monotone_and_self_consistent() {
        // Every bucket's lower bound maps back into the bucket, boundaries are
        // strictly increasing, and adjacent buckets meet with no gaps: the
        // value just below a bucket's lower bound belongs to the previous one.
        let mut prev_low = None;
        for idx in 0..HIST_BUCKETS {
            let low = bucket_low(idx);
            assert_eq!(bucket_index(low), idx, "low({idx}) must map back");
            if let Some(p) = prev_low {
                assert!(low > p, "bounds must increase at {idx}");
                assert_eq!(bucket_index(low - 1), idx - 1, "no gap below {idx}");
            }
            prev_low = Some(low);
        }
        // Power-of-two boundaries land on fresh buckets with exact bounds.
        for shift in HIST_SUB_BITS..63 {
            let v = 1u64 << shift;
            assert_eq!(bucket_low(bucket_index(v)), v);
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded_by_the_sub_bucket_resolution() {
        for &v in &[100u64, 1_000, 12_345, 1_000_000, 87_654_321] {
            let low = bucket_low(bucket_index(v));
            assert!(low <= v);
            let error = (v - low) as f64 / v as f64;
            assert!(error <= 1.0 / SUB as f64, "error {error} too big for {v}");
        }
    }

    #[test]
    fn percentiles_are_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 1..=20u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 20);
        assert_eq!(h.percentile_us(0.50), 10);
        assert_eq!(h.percentile_us(0.90), 18);
        assert_eq!(h.percentile_us(1.0), 20);
        assert_eq!(h.max_us(), 20);
        assert!((h.mean_ms() - 10.5 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile_us(0.99), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_is_exact() {
        // A histogram that recorded both streams is bit-identical to the
        // merge of two histograms that recorded one stream each.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..5_000u64 {
            let v = i * 37 % 1_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, both);
        // Merge order does not matter either.
        let mut reversed = b.clone();
        reversed.merge(&a);
        assert_eq!(reversed, both);
    }

    /// A dense histogram of `values` and the row cut from another one.
    fn dense_and_row(values: &[u64]) -> (Histogram, Histogram) {
        let mut dense = Histogram::new();
        let mut recorder = Histogram::new();
        for &v in values {
            dense.record(v);
            recorder.record(v);
        }
        (dense, recorder.take_row())
    }

    const SPREAD: [u64; 6] = [0, 7, 31, 900, 25_000, 140_000];

    #[test]
    fn trimmed_row_equals_the_dense_histogram() {
        let (dense, row) = dense_and_row(&SPREAD);
        assert!(row.counts.len() < dense.counts.len());
        assert_eq!(row, dense);
        assert_eq!(dense, row);
        assert_eq!(row.percentiles_ms(), dense.percentiles_ms());
        // Trailing zeros are ignored, a non-zero bucket past the shorter
        // side's length is not.
        let padded = |tail: &[u64]| Histogram {
            counts: [&row.counts[..], tail].concat().into(),
            ..row.clone()
        };
        assert_eq!(padded(&[0]), row);
        assert_ne!(padded(&[0, 1]), row);
        assert_ne!(row, padded(&[0, 1]));
        assert_ne!(row, Histogram::new());
        let (_, empty) = dense_and_row(&[]);
        assert_eq!(empty, Histogram::new());
    }

    #[test]
    fn merging_trimmed_and_dense_commutes() {
        let (_, small) = dense_and_row(&[3, 40]);
        let (big, _) = dense_and_row(&SPREAD);
        let mut a = small.clone();
        a.merge(&big);
        let mut b = big.clone();
        b.merge(&small);
        assert_eq!(a, b);
        let (both, _) = dense_and_row(&[3, 40, 0, 7, 31, 900, 25_000, 140_000]);
        assert_eq!(a, both);
        // Two rows merge to the union of their ranges, not the layout's.
        let (_, wide) = dense_and_row(&SPREAD);
        let mut rows = small.clone();
        rows.merge(&wide);
        assert_eq!(rows.counts.len(), wide.counts.len());
        assert_eq!(rows, both);
    }

    #[test]
    fn recording_into_a_trimmed_row_matches_a_dense_one() {
        // An offset row (values 5 and 600, so its first stored bucket is 5),
        // recorded into below, inside and above its stored range.
        let (mut dense, mut row) = dense_and_row(&[5, 600]);
        assert_eq!(row.first, 5);
        for v in [1, 600, 99_999] {
            dense.record(v);
            row.record(v);
            assert_eq!(row, dense, "after recording {v}");
            assert_eq!((row.first, row.counts.len()), (0, HIST_BUCKETS));
        }
        // The top bucket, into an empty row and a row trimmed to bucket 0
        // (both sum to zero, so adding `u64::MAX` cannot overflow the sum).
        for values in [&[][..], &[0]] {
            let (mut dense, mut row) = dense_and_row(values);
            dense.record(u64::MAX);
            row.record(u64::MAX);
            assert_eq!(row, dense);
            assert_eq!(row.percentile_us(1.0), bucket_low(HIST_BUCKETS - 1));
        }
    }

    #[test]
    fn taking_a_row_resets_the_recorder_in_place() {
        let mut recorder = Histogram::new();
        for &v in &SPREAD {
            recorder.record(v);
        }
        let row = recorder.take_row();
        assert_eq!(row.count(), SPREAD.len() as u64);
        assert_eq!(recorder, Histogram::new());
        assert_eq!(recorder.counts.len(), HIST_BUCKETS, "recorder stays dense");
        assert!(recorder.take_row().counts.is_empty());
    }

    #[test]
    fn a_row_spans_its_lowest_to_its_highest_occupied_bucket() {
        let gapped = [40, 25_000];
        for values in [&[0u64][..], &[31], &[32, 5], &SPREAD, &[u64::MAX], &gapped] {
            let (_, row) = dense_and_row(values);
            let lowest = values.iter().map(|&v| bucket_index(v)).min().unwrap();
            let highest = values.iter().map(|&v| bucket_index(v)).max().unwrap();
            assert_eq!(row.first, lowest, "{values:?}");
            assert_eq!(row.counts.len(), highest - lowest + 1, "{values:?}");
            assert_ne!(row.counts[0], 0, "{values:?}");
            assert_ne!(row.counts[highest - lowest], 0, "{values:?}");
        }
        // The empty buckets between two values stay stored, as zeros.
        let (_, row) = dense_and_row(&gapped);
        assert!(row.counts.len() > 2);
        assert_eq!(row.counts.iter().filter(|&&c| c != 0).count(), 2);
    }

    #[test]
    fn rows_with_disjoint_ranges_merge_like_dense_histograms() {
        let (dense_low, low) = dense_and_row(&[3, 9, 9]);
        let (dense_high, high) = dense_and_row(&[900, 25_000]);
        assert!(low.end() < high.first, "the ranges must be disjoint");
        let mut dense = dense_low.clone();
        dense.merge(&dense_high);
        for (a, b) in [(&low, &high), (&high, &low)] {
            let mut merged = a.clone();
            merged.merge(b);
            assert_eq!(merged, dense);
            assert_eq!(merged.percentiles_ms(), dense.percentiles_ms());
            // The merged row spans the union of the ranges, not the layout.
            assert_eq!((merged.first, merged.end()), (low.first, high.end()));
        }
    }

    #[test]
    fn offset_row_percentiles_equal_the_dense_ones() {
        let values: Vec<u64> = (0..500u64).map(|i| 18_000 + i * i * 3).collect();
        let (dense, row) = dense_and_row(&values);
        assert!(row.first > 0 && row.counts.len() < HIST_BUCKETS);
        assert_eq!(row.percentiles_ms(), dense.percentiles_ms());
        for q in [0.0, 0.001, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(row.percentile_us(q), dense.percentile_us(q), "q = {q}");
        }
        assert_eq!(row.percentile_us(0.0), bucket_low(row.first));
    }

    /// An observer of lane 0 with the given recorders on.
    fn observer(trace_sample: u64, histograms: bool, timeline: bool) -> LaneObserver {
        let observe = ObserveConfig {
            trace_sample,
            histograms,
            timeline,
        };
        LaneObserver::new(&observe, 0)
    }

    /// What an observer hands over, with no intervals.
    fn finished(mut observer: LaneObserver, journal: Option<&mut Journal>) -> SimResult {
        observer.finish(Vec::new(), RunSummary::default(), journal)
    }

    #[test]
    fn tracer_samples_every_nth_index() {
        let mut o = observer(100, true, false);
        let slots: Vec<u32> = [0, 1, 99, 100]
            .into_iter()
            .map(|i| o.root_arrival(i, 0))
            .collect();
        assert_eq!(slots, [0, UNTRACED, UNTRACED, 1]);
        assert_eq!(o.slot(|| Some(1)), 1);
        // trace_sample = 0 turns tracing off instead of dividing by zero,
        // and no root is looked up for its slot.
        let mut off = observer(0, true, false);
        assert_eq!(off.root_arrival(0, 0), UNTRACED);
        assert_eq!(off.slot(|| unreachable!()), UNTRACED);
        assert!(finished(off, None).trace.is_none());
    }

    #[test]
    fn critical_path_chains_contiguous_spans() {
        let mut o = observer(1, false, false);
        let (slot, w) = (o.root_arrival(0, 1_000), WorkerId(1));
        o.span(slot, SpanKind::Frontend, 1_000, 3_000, 0, w);
        o.span(slot, SpanKind::Queue, 3_000, 4_000, 0, w);
        o.span(slot, SpanKind::Exec, 4_000, 9_000, 0, w);
        // A parallel sibling branch that finished earlier: not on the path.
        o.span(slot, SpanKind::Exec, 4_000, 6_000, 0, w);
        o.root_end(slot, 9_000, Some(8_000));
        let root = &o.roots[0];
        assert_eq!(root.latency_us(), 8_000);
        let cp = root.critical_path();
        assert_eq!(cp.total_us, 8_000);
        assert_eq!(cp.network_us, 2_000);
        assert_eq!(cp.queue_us, 1_000);
        assert_eq!(cp.exec_us, 5_000);
        assert!(cp.total_us <= root.latency_us());
    }

    #[test]
    fn a_cut_off_root_ends_dropped_without_a_marker() {
        let mut o = observer(1, true, false);
        let (dropped, cut) = (o.root_arrival(0, 0), o.root_arrival(1, 5));
        o.root_end(dropped, 40, None);
        o.root_cut_off(cut, 50);
        let result = finished(o, None);
        assert_eq!(
            result.latency,
            Some(Histogram::new()),
            "drops record no latency"
        );
        let roots = result.trace.expect("tracing is on").roots;
        let kinds: Vec<Vec<SpanKind>> = roots
            .iter()
            .map(|r| r.spans.iter().map(|s| s.kind).collect())
            .collect();
        assert_eq!(kinds, [vec![SpanKind::Drop], vec![]]);
        assert_eq!((roots[0].end_us, roots[1].end_us), (40, 50));
        assert!(roots.iter().all(|r| r.dropped));
    }

    #[test]
    fn timeline_rows_fold_into_the_run_histogram() {
        // Timeline off, served roots go straight into the run histogram;
        // on, into the open interval's row, folded in at each close.
        let mut direct = observer(0, true, false);
        let mut folded = observer(0, true, true);
        for o in [&mut direct, &mut folded] {
            o.root_end(UNTRACED, 10, Some(7));
            o.root_end(UNTRACED, 20, None);
            o.close_interval();
            o.root_end(UNTRACED, 30, Some(900));
            o.close_interval();
            o.plan_install(30, 2);
        }
        let direct = finished(direct, None);
        let mut journal = Journal::new();
        let folded = finished(folded, Some(&mut journal));
        let latency = direct.latency.as_ref().expect("histograms are on");
        assert_eq!(latency.count(), 2);
        assert_eq!(folded.latency.as_ref(), Some(latency));
        let s = &direct.summary;
        assert_eq!(
            [s.p50_ms, s.p90_ms, s.p99_ms, s.p999_ms],
            latency.percentiles_ms()
        );
        assert_eq!((direct.window, direct.trace), (None, None));
        let rows = folded.window.expect("timeline rows");
        assert_eq!(
            rows.iter().map(Histogram::count).collect::<Vec<_>>(),
            [1, 1]
        );
        let installs: Vec<_> = journal
            .events
            .iter()
            .map(|e| (e.time_us, &e.kind))
            .collect();
        assert_eq!(installs, [(30, &JournalKind::PlanInstall { epoch: 2 })]);
        // Histograms off: the timeline still keeps its rows.
        let mut rows_only = observer(0, false, true);
        rows_only.root_end(UNTRACED, 10, Some(7));
        rows_only.close_interval();
        let rows_only = finished(rows_only, None);
        assert_eq!(rows_only.latency, None);
        assert_eq!(rows_only.window.map(|rows| rows.len()), Some(1));
    }

    #[test]
    fn chrome_export_is_wellformed_and_names_every_span() {
        let mut o = observer(1, true, false);
        let (slot, w) = (o.root_arrival(0, 0), WorkerId(1));
        o.span(slot, SpanKind::Frontend, 0, 2_000, 0, w);
        o.span(slot, SpanKind::Exec, 2_000, 5_000, 0, w);
        o.root_end(slot, 5_000, Some(5_000));
        let log = finished(o, None).trace.expect("tracing is on");
        assert_eq!(log.num_spans(), 3);
        let json = log.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        for name in ["frontend", "exec", "complete"] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name}");
        }
        assert!(json.contains("\"critical_path_us\":5000"));
        // Balanced braces/brackets — the export must parse.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
