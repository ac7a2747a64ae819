//! The deep-observability layer: log-bucketed latency histograms and
//! deterministic sampled query tracing.
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
//! [`LaneTracer`] samples every Nth root arrival of a lane (a seed-stable,
//! RNG-free decision on the lane-local arrival index, so `jobs = N` runs trace
//! exactly the roots serial runs trace) and records a [`Span`] tree across the
//! root's whole life: the frontend hop, per-hop queue wait, batch execution,
//! network transfers, rescue/requeue events, and the terminal completion or
//! drop. [`TraceLog::to_chrome_json`] exports the merged log as Chrome
//! trace-event JSON loadable in Perfetto (`loki run <scenario> --trace out.json`).

use crate::types::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Observability configuration carried by [`crate::SimConfig`]. The default —
/// histograms on, tracing and timeline off — adds no trace allocations to the
/// hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveConfig {
    /// Trace every Nth root arrival per lane (`0` disables tracing). The
    /// decision uses the lane-local arrival index — never the RNG — so the
    /// sampled set is identical across `jobs` values and unchanged runs.
    pub trace_sample: u64,
    /// Record latency histograms (end-to-end, per task, per worker class).
    /// On by default — recording is a couple of array increments per query;
    /// the reference benchmark reports its cost as
    /// `observe.hist_overhead_pct` (see `benchmark/README.md`).
    pub histograms: bool,
    /// Record the timeline layer: the structured cluster event journal
    /// ([`crate::journal::Journal`]) plus per-metrics-interval windowed
    /// latency histograms ([`crate::SimResult::window`]). Off by default.
    /// Observation-only like everything else here: journal recording happens
    /// at hooks that already exist (it consumes no RNG draws and schedules no
    /// events), and the windowed recorder is a second histogram recorded in
    /// parallel with the whole-run one. Each interval flush moves its
    /// occupied buckets out as a trimmed row ([`Histogram::take_row`]) and
    /// resets it in place, so the per-interval deltas re-merge *exactly* to
    /// the run histogram.
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

/// `counts` followed by zero buckets up to `len` buckets in all.
fn zero_extended(counts: &[u64], len: usize) -> Box<[u64]> {
    let mut grown = vec![0; len];
    grown[..counts.len()].copy_from_slice(counts);
    grown.into_boxed_slice()
}

/// A trimmed row grown back to the full layout: the cold path of
/// [`Histogram::record`]. It takes and returns the buckets by value, so the
/// histogram's own address never escapes the hot path, and the array type
/// tells the caller the new length.
#[cold]
#[inline(never)]
fn expand(counts: Box<[u64]>) -> Box<[u64; HIST_BUCKETS]> {
    zero_extended(&counts, HIST_BUCKETS)
        .try_into()
        .expect("zero_extended returns exactly HIST_BUCKETS buckets")
}

/// An HDR-style log-linear histogram over microsecond values with a fixed
/// bucket layout, so merges are exact integer additions. [`Histogram::new`]
/// allocates the full layout, so recording is branch + shift + increment;
/// rows cut by [`Histogram::take_row`] store only their occupied buckets.
/// Recording into such a row first grows it back to the full layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    /// Bucket counts of the fixed layout. May be shorter than
    /// [`HIST_BUCKETS`]: every bucket past `counts.len()` is zero.
    counts: Box<[u64]>,
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

/// Equal when the recorded values are: trailing zero buckets are storage, not
/// data, so a trimmed row equals the dense histogram holding the same values.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        self.total == other.total
            && self.sum_us == other.sum_us
            && self.min_us == other.min_us
            && self.max_us == other.max_us
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&c| c == 0)
    }
}

impl Histogram {
    /// An empty histogram with the full fixed layout preallocated.
    pub fn new() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS].into_boxed_slice(),
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
        // is never taken on the hot path. Past it the length is known, which
        // drops the bounds check on the increment.
        if self.counts.len() != HIST_BUCKETS {
            self.counts = expand(std::mem::take(&mut self.counts));
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

    /// Move the recorded values out as a row that stores only the buckets up
    /// to the highest occupied one, and leave `self` empty. Only that prefix
    /// is zeroed, and `self` keeps its storage for the next interval.
    pub fn take_row(&mut self) -> Histogram {
        let used = if self.total == 0 {
            0
        } else {
            bucket_index(self.max_us) + 1
        };
        let row = Histogram {
            counts: self.counts[..used].into(),
            total: self.total,
            sum_us: self.sum_us,
            min_us: self.min_us,
            max_us: self.max_us,
        };
        self.counts[..used].fill(0);
        self.total = 0;
        self.sum_us = 0;
        self.min_us = u64::MAX;
        self.max_us = 0;
        row
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
        for (i, &c) in self.counts.iter().enumerate() {
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
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts = zero_extended(&self.counts, other.counts.len());
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
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

/// The latency histograms of one run (or one pipeline lane of a multi run),
/// all in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// End-to-end latency of served (on-time or late) root queries.
    pub e2e: Histogram,
    /// Time at each task per processed query: queue wait plus batch execution,
    /// indexed by task.
    pub per_task: Vec<Histogram>,
    /// The same per-query task times, bucketed by the executing worker's
    /// class (one entry for fixed fleets; catalog order for elastic fleets).
    pub per_class: Vec<Histogram>,
}

impl LatencyStats {
    /// Empty stats preallocated for `num_tasks` tasks and `num_classes`
    /// worker classes.
    pub fn new(num_tasks: usize, num_classes: usize) -> Self {
        Self {
            e2e: Histogram::new(),
            per_task: (0..num_tasks).map(|_| Histogram::new()).collect(),
            per_class: (0..num_classes.max(1)).map(|_| Histogram::new()).collect(),
        }
    }

    /// Merge another lane's stats into this one (exact; tasks/classes beyond
    /// this side's layout are appended).
    pub fn merge(&mut self, other: &LatencyStats) {
        self.e2e.merge(&other.e2e);
        for (i, h) in other.per_task.iter().enumerate() {
            if i < self.per_task.len() {
                self.per_task[i].merge(h);
            } else {
                self.per_task.push(h.clone());
            }
        }
        for (i, h) in other.per_class.iter().enumerate() {
            if i < self.per_class.len() {
                self.per_class[i].merge(h);
            } else {
                self.per_class.push(h.clone());
            }
        }
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

/// The per-lane trace recorder. Lives inside a lane's state so span recording
/// needs no cross-lane coordination: a root's whole tree executes inside one
/// lane, and lanes merge in index order at the end of the run — identical for
/// every `jobs` value.
#[derive(Debug)]
pub struct LaneTracer {
    /// Trace every Nth root arrival (≥ 1).
    pub sample_every: u64,
    /// All sampled roots of this lane, in arrival order.
    pub roots: Vec<RootTrace>,
}

impl LaneTracer {
    /// A tracer sampling every `sample_every`-th root arrival.
    pub fn new(sample_every: u64) -> Self {
        Self {
            sample_every: sample_every.max(1),
            roots: Vec::new(),
        }
    }

    /// Whether the root with lane-local arrival index `index` is sampled.
    #[inline]
    pub fn samples(&self, index: u64) -> bool {
        index.is_multiple_of(self.sample_every)
    }

    /// Start a trace for a sampled root; returns its slot for the root's
    /// engine state to carry.
    pub fn begin_root(&mut self, lane: u32, arrival_index: u64, arrival_us: SimTime) -> u32 {
        let slot = self.roots.len() as u32;
        self.roots.push(RootTrace {
            lane,
            arrival_index,
            arrival_us,
            end_us: arrival_us,
            dropped: false,
            spans: Vec::with_capacity(8),
        });
        slot
    }

    /// Append a span to a sampled root.
    #[inline]
    pub fn span(&mut self, slot: u32, span: Span) {
        self.roots[slot as usize].spans.push(span);
    }

    /// Close a sampled root's trace at its completion or drop time.
    pub fn finish(&mut self, slot: u32, end_us: SimTime, dropped: bool) {
        let root = &mut self.roots[slot as usize];
        root.end_us = end_us;
        root.dropped = dropped;
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
        // Two trimmed rows merge to the longer one's length, not the layout's.
        let (_, wide) = dense_and_row(&SPREAD);
        let mut rows = small.clone();
        rows.merge(&wide);
        assert_eq!(rows.counts.len(), wide.counts.len());
        assert_eq!(rows, both);
    }

    #[test]
    fn recording_into_a_trimmed_row_matches_a_dense_one() {
        let (mut dense, mut row) = dense_and_row(&[5, 600]);
        for v in [1, 600, 99_999] {
            dense.record(v);
            row.record(v);
            assert_eq!(row, dense, "after recording {v}");
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
    fn a_row_ends_at_its_highest_occupied_bucket() {
        for values in [&[0u64][..], &[31], &[32, 5], &SPREAD, &[u64::MAX]] {
            let (_, row) = dense_and_row(values);
            let highest = values.iter().map(|&v| bucket_index(v)).max().unwrap();
            assert_eq!(row.counts.len(), highest + 1, "{values:?}");
            assert_ne!(row.counts[highest], 0);
        }
    }

    #[test]
    fn latency_stats_merge_appends_unknown_tasks() {
        let mut a = LatencyStats::new(2, 1);
        let mut b = LatencyStats::new(3, 1);
        a.e2e.record(100);
        b.e2e.record(200);
        b.per_task[2].record(5);
        a.merge(&b);
        assert_eq!(a.e2e.count(), 2);
        assert_eq!(a.per_task.len(), 3);
        assert_eq!(a.per_task[2].count(), 1);
    }

    #[test]
    fn tracer_samples_every_nth_index() {
        let t = LaneTracer::new(100);
        assert!(t.samples(0));
        assert!(!t.samples(1));
        assert!(!t.samples(99));
        assert!(t.samples(100));
        // sample_every = 0 clamps to 1 (trace everything) instead of dividing
        // by zero.
        let t = LaneTracer::new(0);
        assert!(t.samples(7));
    }

    fn span(kind: SpanKind, start: SimTime, end: SimTime) -> Span {
        Span {
            kind,
            start_us: start,
            end_us: end,
            task: 0,
            worker: 1,
        }
    }

    #[test]
    fn critical_path_chains_contiguous_spans() {
        let mut tracer = LaneTracer::new(1);
        let slot = tracer.begin_root(0, 0, 1_000);
        tracer.span(slot, span(SpanKind::Frontend, 1_000, 3_000));
        tracer.span(slot, span(SpanKind::Queue, 3_000, 4_000));
        tracer.span(slot, span(SpanKind::Exec, 4_000, 9_000));
        // A parallel sibling branch that finished earlier: not on the path.
        tracer.span(slot, span(SpanKind::Exec, 4_000, 6_000));
        tracer.finish(slot, 9_000, false);
        let root = &tracer.roots[0];
        assert_eq!(root.latency_us(), 8_000);
        let cp = root.critical_path();
        assert_eq!(cp.total_us, 8_000);
        assert_eq!(cp.network_us, 2_000);
        assert_eq!(cp.queue_us, 1_000);
        assert_eq!(cp.exec_us, 5_000);
        assert!(cp.total_us <= root.latency_us());
    }

    #[test]
    fn chrome_export_is_wellformed_and_names_every_span() {
        let mut tracer = LaneTracer::new(1);
        let slot = tracer.begin_root(0, 0, 0);
        tracer.span(slot, span(SpanKind::Frontend, 0, 2_000));
        tracer.span(slot, span(SpanKind::Exec, 2_000, 5_000));
        tracer.finish(slot, 5_000, false);
        let log = TraceLog {
            roots: tracer.roots,
        };
        assert_eq!(log.num_spans(), 2);
        let json = log.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"frontend\""));
        assert!(json.contains("\"name\":\"exec\""));
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
