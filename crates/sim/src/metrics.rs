//! Evaluation metrics matching Section 6.1 of the paper: system accuracy, SLO
//! violation ratio, and cluster utilization, collected per reporting interval and
//! summarized over a whole run.

use serde::{Deserialize, Serialize};

/// The most root arrivals one run may carry, summed over its lanes. Every
/// query count of an [`IntervalMetrics`] row is a `u32`, and a lane row, a
/// cluster row of [`crate::MultiSimResult::aggregate`] or a time bucket of
/// rows counts each root at most once, so no count can overflow: the run's
/// one checked entry ([`crate::engine`]'s module docs) returns
/// [`crate::EngineError::InvalidRun`] for a run above this limit.
pub const MAX_RUN_ARRIVALS: u64 = u32::MAX as u64;

/// Metrics aggregated over one reporting interval (one second by default).
///
/// A row holds only what cannot be derived, at the width its values need:
/// query counts are `u32` (bounded by [`MAX_RUN_ARRIVALS`]), and so are the
/// worker counts (the run's fleet is checked to fit). The dropped and served
/// totals are the methods [`IntervalMetrics::dropped`] and
/// [`IntervalMetrics::served`]. The engine keeps one row per lane per
/// interval for the whole run, reserved once when the run starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct IntervalMetrics {
    /// Start of the interval in seconds.
    pub start_s: f64,
    /// Root (client) queries that arrived during the interval.
    pub arrivals: u32,
    /// Root queries that completed within their SLO during the interval.
    pub completed_on_time: u32,
    /// Root queries that completed but missed their SLO.
    pub completed_late: u32,
    /// Dropped roots whose first loss was a deadline: drop policies firing,
    /// failed reroutes, unroutable queries, and roots still in flight at run
    /// end.
    pub dropped_deadline: u32,
    /// Dropped roots whose worker was reclaimed by a rebalance/repartition
    /// (orphan re-home failed).
    pub dropped_reclaimed: u32,
    /// Dropped roots lost to spot-market revocations (forced drains and
    /// revocation-deadline batch kills whose re-queue failed).
    pub dropped_revoked: u32,
    /// Sum of the end-to-end accuracy experienced by queries served in this interval
    /// (averaged over the paths each query actually took).
    pub accuracy_sum: f64,
    /// Number of workers holding an active model assignment at the end of the interval.
    pub active_workers: u32,
    /// Total workers in the cluster.
    pub cluster_size: u32,
    /// Queries rerouted by opportunistic rerouting during the interval. A
    /// reroute moves a child query, and a root can spawn many, so this count
    /// is not bounded by the arrivals and stays `u64`.
    pub rerouted: u64,
}

// The engine holds one row per lane per interval for the whole run.
const _: () = assert!(std::mem::size_of::<IntervalMetrics>() <= 56);

impl IntervalMetrics {
    /// Root queries dropped (preemptively or because their workers were
    /// reclaimed or revoked): the sum of the three causes, each dropped root
    /// counted under its first.
    pub fn dropped(&self) -> u64 {
        u64::from(self.dropped_deadline)
            + u64::from(self.dropped_reclaimed)
            + u64::from(self.dropped_revoked)
    }

    /// Root queries served (completed on time or late): the queries
    /// `accuracy_sum` sums over.
    pub fn served(&self) -> u64 {
        u64::from(self.completed_on_time) + u64::from(self.completed_late)
    }

    /// Queries finished during this interval (on time, late, or dropped).
    pub fn finished(&self) -> u64 {
        self.served() + self.dropped()
    }

    /// Finished queries that violated their SLO: completed late or dropped.
    pub fn violations(&self) -> u64 {
        u64::from(self.completed_late) + self.dropped()
    }

    /// Fraction of finished queries that violated their SLO (finished late or were
    /// dropped). Returns 0 when nothing finished.
    pub fn slo_violation_ratio(&self) -> f64 {
        let finished = self.finished();
        if finished == 0 {
            0.0
        } else {
            self.violations() as f64 / finished as f64
        }
    }

    /// Average accuracy of queries served during the interval (0 when none).
    pub fn mean_accuracy(&self) -> f64 {
        match self.served() {
            0 => 0.0,
            served => self.accuracy_sum / served as f64,
        }
    }

    /// Fraction of the cluster's workers that hold an active assignment.
    pub fn cluster_utilization(&self) -> f64 {
        if self.cluster_size == 0 {
            0.0
        } else {
            f64::from(self.active_workers) / f64::from(self.cluster_size)
        }
    }

    /// Goodput: queries completed within SLO during the interval.
    pub fn goodput(&self) -> u64 {
        u64::from(self.completed_on_time)
    }

    /// Add `other`'s query counters and accuracy sums into `self`: every field
    /// except `start_s`, `active_workers` and `cluster_size`, whose merge rule
    /// each caller picks (a time bucket averages workers, a cluster row sums
    /// them).
    pub fn add_counts(&mut self, other: &IntervalMetrics) {
        self.arrivals += other.arrivals;
        self.completed_on_time += other.completed_on_time;
        self.completed_late += other.completed_late;
        self.dropped_deadline += other.dropped_deadline;
        self.dropped_reclaimed += other.dropped_reclaimed;
        self.dropped_revoked += other.dropped_revoked;
        self.accuracy_sum += other.accuracy_sum;
        self.rerouted += other.rerouted;
    }
}

/// Whole-run summary derived from the interval metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunSummary {
    /// Controller that produced the run.
    pub controller: String,
    /// Total root queries that arrived.
    pub total_arrivals: u64,
    /// Total completed within SLO.
    pub total_on_time: u64,
    /// Total completed late.
    pub total_late: u64,
    /// Total dropped.
    pub total_dropped: u64,
    /// Of `total_dropped`: deadline-expired drops.
    pub total_dropped_deadline: u64,
    /// Of `total_dropped`: drops caused by rebalance worker reclaims.
    pub total_dropped_reclaimed: u64,
    /// Of `total_dropped`: drops caused by spot-market revocations.
    pub total_dropped_revoked: u64,
    /// System accuracy: average accuracy over all *served* queries.
    pub system_accuracy: f64,
    /// Overall SLO violation ratio: (late + dropped) / finished.
    pub slo_violation_ratio: f64,
    /// Mean cluster utilization across intervals.
    pub mean_utilization: f64,
    /// Minimum number of active workers observed over the run.
    pub min_active_workers: usize,
    /// Maximum number of active workers observed over the run.
    pub max_active_workers: usize,
    /// Peak goodput observed in any interval (queries per interval).
    pub peak_goodput: u64,
    /// Total rerouted queries.
    pub total_rerouted: u64,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Total discrete events the engine processed (set by the engine, not
    /// derived from intervals); the denominator for simulator-throughput
    /// benchmarks.
    pub events_processed: u64,
    /// Median end-to-end latency of served roots, milliseconds (0 when the
    /// latency histograms were disabled or nothing was served). Set by the
    /// engine from the run's latency histogram
    /// ([`crate::SimResult::latency`]), not derived from intervals.
    pub p50_ms: f64,
    /// 90th-percentile end-to-end latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile end-to-end latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile end-to-end latency, milliseconds.
    pub p999_ms: f64,
}

impl RunSummary {
    /// Build a summary from the per-interval series. `interval_s` is the
    /// configured metrics-interval length ([`crate::SimConfig`]'s
    /// `metrics_interval_s`): the run duration is the last interval's start
    /// plus one interval, so it must match the cadence the series was
    /// collected at.
    pub fn from_intervals(
        controller: &str,
        intervals: &[IntervalMetrics],
        interval_s: f64,
    ) -> Self {
        let mut s = RunSummary {
            controller: controller.to_string(),
            min_active_workers: usize::MAX,
            ..Default::default()
        };
        let mut accuracy_sum = 0.0;
        let mut served = 0u64;
        let mut util_sum = 0.0;
        for m in intervals {
            s.total_arrivals += u64::from(m.arrivals);
            s.total_on_time += u64::from(m.completed_on_time);
            s.total_late += u64::from(m.completed_late);
            s.total_dropped += m.dropped();
            s.total_dropped_deadline += u64::from(m.dropped_deadline);
            s.total_dropped_reclaimed += u64::from(m.dropped_reclaimed);
            s.total_dropped_revoked += u64::from(m.dropped_revoked);
            s.total_rerouted += m.rerouted;
            accuracy_sum += m.accuracy_sum;
            served += m.served();
            util_sum += m.cluster_utilization();
            let active = m.active_workers as usize;
            s.min_active_workers = s.min_active_workers.min(active);
            s.max_active_workers = s.max_active_workers.max(active);
            s.peak_goodput = s.peak_goodput.max(m.goodput());
        }
        if intervals.is_empty() {
            s.min_active_workers = 0;
        }
        let finished = s.total_on_time + s.total_late + s.total_dropped;
        s.slo_violation_ratio = if finished == 0 {
            0.0
        } else {
            (s.total_late + s.total_dropped) as f64 / finished as f64
        };
        s.system_accuracy = if served == 0 {
            0.0
        } else {
            accuracy_sum / served as f64
        };
        s.mean_utilization = if intervals.is_empty() {
            0.0
        } else {
            util_sum / intervals.len() as f64
        };
        s.duration_s = intervals
            .last()
            .map(|m| m.start_s + interval_s)
            .unwrap_or(0.0);
        s
    }

    /// SLO attainment: on-time completions over finished requests (on time,
    /// late, or dropped); 0 when nothing finished. The complement of
    /// [`RunSummary::slo_violation_ratio`] whenever something finished.
    pub fn slo_attainment(&self) -> f64 {
        let finished = self.total_on_time + self.total_late + self.total_dropped;
        if finished == 0 {
            0.0
        } else {
            self.total_on_time as f64 / finished as f64
        }
    }
}

/// Cost accounting of one GPU class over a run (elastic fleets only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ClassCost {
    /// Class name from the run's [`crate::elastic::WorkerClassCatalog`].
    pub class: String,
    /// Billed warm GPU-seconds (boot completion → retirement or run end).
    pub gpu_seconds: f64,
    /// Dollar cost: `gpu_seconds / 3600 * price_per_hour`.
    pub dollars: f64,
    /// Peak concurrent warm workers of this class.
    pub peak_warm: usize,
    /// Workers provisioned over the run (initial fleet excluded).
    pub provisioned: u64,
    /// Workers drained and retired over the run.
    pub retired: u64,
    /// True for spot (preemptible) classes.
    pub spot: bool,
    /// Workers of this class revoked by the market over the run. Revoked
    /// workers are also counted in `retired` once their forced drain lands.
    pub revocations: u64,
    /// Provision requests for this class denied by capacity stockouts.
    pub stockouts: u64,
}

/// Whole-run cost summary of an elastic fleet. Cluster-level: one per engine
/// run, shared by every pipeline lane served on the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CostSummary {
    /// Per-class breakdown, in catalog order.
    pub per_class: Vec<ClassCost>,
    /// Total billed GPU-seconds across classes.
    pub total_gpu_seconds: f64,
    /// Total dollar cost across classes.
    pub total_dollars: f64,
    /// Root queries served (completed on time or late) across all pipelines —
    /// the denominator of `cost_per_1k_queries`.
    pub served_queries: u64,
    /// Dollars per thousand served queries (0 when nothing was served).
    pub cost_per_1k_queries: f64,
    /// Peak concurrent warm workers across the whole fleet.
    pub peak_fleet: usize,
    /// Total spot revocations delivered by the market over the run.
    pub revocations: u64,
    /// Total spot provision requests denied by capacity stockouts.
    pub stockouts: u64,
    /// Dollars billed to spot classes (price schedule applied).
    pub spot_dollars: f64,
    /// Dollars billed to on-demand classes.
    pub ondemand_dollars: f64,
}

impl CostSummary {
    /// Total billed GPU-hours.
    pub fn gpu_hours(&self) -> f64 {
        self.total_gpu_seconds / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(on_time: u32, late: u32, dropped: u32, acc: f64, active: u32) -> IntervalMetrics {
        IntervalMetrics {
            start_s: 0.0,
            arrivals: on_time + late + dropped,
            completed_on_time: on_time,
            completed_late: late,
            dropped_deadline: dropped,
            dropped_reclaimed: 0,
            dropped_revoked: 0,
            accuracy_sum: acc * f64::from(on_time + late),
            active_workers: active,
            cluster_size: 20,
            rerouted: 0,
        }
    }

    #[test]
    fn dropped_sums_the_three_causes_and_served_both_completions() {
        let m = IntervalMetrics {
            completed_on_time: 7,
            completed_late: 2,
            dropped_deadline: 3,
            dropped_reclaimed: 4,
            dropped_revoked: 5,
            ..IntervalMetrics::default()
        };
        assert_eq!(m.dropped(), 12);
        assert_eq!(m.served(), 9);
        assert_eq!(m.finished(), 21);
        assert_eq!(m.violations(), 14);
        assert!((m.slo_violation_ratio() - 14.0 / 21.0).abs() < 1e-12);
        // The sums are taken in u64: counts at the u32 limit do not wrap.
        let full = IntervalMetrics {
            completed_on_time: u32::MAX,
            completed_late: u32::MAX,
            dropped_deadline: u32::MAX,
            dropped_reclaimed: u32::MAX,
            dropped_revoked: u32::MAX,
            ..IntervalMetrics::default()
        };
        assert_eq!(full.served(), 2 * u64::from(u32::MAX));
        assert_eq!(full.dropped(), 3 * u64::from(u32::MAX));
        assert_eq!(IntervalMetrics::default().dropped(), 0);
        assert_eq!(IntervalMetrics::default().served(), 0);
    }

    #[test]
    fn add_counts_adds_every_counter_but_the_time_and_worker_fields() {
        let mut into = interval(80, 10, 10, 0.95, 10);
        into.start_s = 3.0;
        into.dropped_revoked = 2;
        into.rerouted = 5;
        let mut other = interval(20, 5, 1, 0.5, 4);
        other.start_s = 9.0;
        other.dropped_reclaimed = 3;
        other.rerouted = 7;
        other.cluster_size = 8;
        into.add_counts(&other);
        let expected = IntervalMetrics {
            start_s: 3.0,
            arrivals: 100 + 26,
            completed_on_time: 100,
            completed_late: 15,
            dropped_deadline: 11,
            dropped_reclaimed: 3,
            dropped_revoked: 2,
            accuracy_sum: 0.95 * 90.0 + 0.5 * 25.0,
            active_workers: 10,
            cluster_size: 20,
            rerouted: 12,
        };
        assert_eq!(into, expected);
        assert_eq!(into.dropped(), 16);
        assert_eq!(into.served(), 115);
        assert!((into.mean_accuracy() - (85.5 + 12.5) / 115.0).abs() < 1e-12);
    }

    #[test]
    fn interval_ratios() {
        let m = interval(80, 10, 10, 0.95, 10);
        assert!((m.slo_violation_ratio() - 0.2).abs() < 1e-12);
        assert!((m.mean_accuracy() - 0.95).abs() < 1e-12);
        assert!((m.cluster_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(m.goodput(), 80);
        assert_eq!(m.finished(), 100);
    }

    #[test]
    fn empty_interval_is_safe() {
        let m = IntervalMetrics::default();
        assert_eq!(m.slo_violation_ratio(), 0.0);
        assert_eq!(m.mean_accuracy(), 0.0);
        assert_eq!(m.cluster_utilization(), 0.0);
    }

    #[test]
    fn summary_aggregates_intervals() {
        let intervals = vec![interval(90, 5, 5, 1.0, 5), interval(50, 25, 25, 0.9, 20)];
        let s = RunSummary::from_intervals("test", &intervals, 1.0);
        assert_eq!(s.total_arrivals, 200);
        assert_eq!(s.total_on_time, 140);
        assert_eq!(s.total_late, 30);
        assert_eq!(s.total_dropped, 30);
        assert_eq!(s.total_dropped_deadline, 30);
        assert_eq!(s.total_dropped_reclaimed, 0);
        assert!((s.slo_violation_ratio - 0.3).abs() < 1e-12);
        // accuracy: (95*1.0 + 75*0.9) / 170
        let expected_acc = (95.0 + 67.5) / 170.0;
        assert!((s.system_accuracy - expected_acc).abs() < 1e-12);
        assert_eq!(s.min_active_workers, 5);
        assert_eq!(s.max_active_workers, 20);
        assert_eq!(s.peak_goodput, 90);
        // utilization: mean of 0.25 and 1.0
        assert!((s.mean_utilization - 0.625).abs() < 1e-12);
    }

    #[test]
    fn summary_duration_respects_the_configured_interval() {
        // Two 60-second intervals starting at 0 and 60 cover 120 simulated
        // seconds — the old hardcoded `start_s + 1.0` reported 61.
        let mut first = interval(90, 5, 5, 1.0, 5);
        first.start_s = 0.0;
        let mut second = interval(50, 25, 25, 0.9, 20);
        second.start_s = 60.0;
        let s = RunSummary::from_intervals("test", &[first, second], 60.0);
        assert!((s.duration_s - 120.0).abs() < 1e-12, "{}", s.duration_s);
        // The 1-second cadence keeps its historical durations.
        let one = RunSummary::from_intervals("test", &[interval(1, 0, 0, 1.0, 1)], 1.0);
        assert!((one.duration_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_run() {
        let s = RunSummary::from_intervals("empty", &[], 1.0);
        assert_eq!(s.total_arrivals, 0);
        assert_eq!(s.system_accuracy, 0.0);
        assert_eq!(s.min_active_workers, 0);
        assert_eq!(s.duration_s, 0.0);
    }
}
