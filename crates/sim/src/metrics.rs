//! Evaluation metrics matching Section 6.1 of the paper: system accuracy, SLO
//! violation ratio, and cluster utilization, collected per reporting interval and
//! summarized over a whole run.

use serde::{Deserialize, Serialize};

/// Metrics aggregated over one reporting interval (one second by default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct IntervalMetrics {
    /// Start of the interval in seconds.
    pub start_s: f64,
    /// Root (client) queries that arrived during the interval.
    pub arrivals: u64,
    /// Root queries that completed within their SLO during the interval.
    pub completed_on_time: u64,
    /// Root queries that completed but missed their SLO.
    pub completed_late: u64,
    /// Root queries dropped (preemptively or because their workers were reclaimed).
    /// Always `dropped_deadline + dropped_reclaimed + dropped_revoked`.
    pub dropped: u64,
    /// Of `dropped`: deadline-expired drops — drop policies firing, failed
    /// reroutes, unroutable queries, and roots still in flight at run end.
    pub dropped_deadline: u64,
    /// Of `dropped`: queries lost because their worker was reclaimed by a
    /// rebalance/repartition (orphan re-home failed).
    pub dropped_reclaimed: u64,
    /// Of `dropped`: queries lost to spot-market revocations (forced drains
    /// and revocation-deadline batch kills whose re-queue failed).
    pub dropped_revoked: u64,
    /// Sum of the end-to-end accuracy experienced by queries served in this interval
    /// (averaged over the paths each query actually took).
    pub accuracy_sum: f64,
    /// Number of served queries contributing to `accuracy_sum`.
    pub accuracy_count: u64,
    /// Number of workers holding an active model assignment at the end of the interval.
    pub active_workers: usize,
    /// Total workers in the cluster.
    pub cluster_size: usize,
    /// Queries rerouted by opportunistic rerouting during the interval.
    pub rerouted: u64,
}

impl IntervalMetrics {
    /// Queries finished during this interval (on time, late, or dropped).
    pub fn finished(&self) -> u64 {
        self.completed_on_time + self.completed_late + self.dropped
    }

    /// Fraction of finished queries that violated their SLO (finished late or were
    /// dropped). Returns 0 when nothing finished.
    pub fn slo_violation_ratio(&self) -> f64 {
        let finished = self.finished();
        if finished == 0 {
            0.0
        } else {
            (self.completed_late + self.dropped) as f64 / finished as f64
        }
    }

    /// Average accuracy of queries served during the interval (0 when none).
    pub fn mean_accuracy(&self) -> f64 {
        if self.accuracy_count == 0 {
            0.0
        } else {
            self.accuracy_sum / self.accuracy_count as f64
        }
    }

    /// Fraction of the cluster's workers that hold an active assignment.
    pub fn cluster_utilization(&self) -> f64 {
        if self.cluster_size == 0 {
            0.0
        } else {
            self.active_workers as f64 / self.cluster_size as f64
        }
    }

    /// Goodput: queries completed within SLO during the interval.
    pub fn goodput(&self) -> u64 {
        self.completed_on_time
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
    /// engine from the run's [`crate::trace::LatencyStats`], not derived from
    /// intervals.
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
        let mut accuracy_count = 0u64;
        let mut util_sum = 0.0;
        for m in intervals {
            s.total_arrivals += m.arrivals;
            s.total_on_time += m.completed_on_time;
            s.total_late += m.completed_late;
            s.total_dropped += m.dropped;
            s.total_dropped_deadline += m.dropped_deadline;
            s.total_dropped_reclaimed += m.dropped_reclaimed;
            s.total_dropped_revoked += m.dropped_revoked;
            s.total_rerouted += m.rerouted;
            accuracy_sum += m.accuracy_sum;
            accuracy_count += m.accuracy_count;
            util_sum += m.cluster_utilization();
            s.min_active_workers = s.min_active_workers.min(m.active_workers);
            s.max_active_workers = s.max_active_workers.max(m.active_workers);
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
        s.system_accuracy = if accuracy_count == 0 {
            0.0
        } else {
            accuracy_sum / accuracy_count as f64
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

    fn interval(on_time: u64, late: u64, dropped: u64, acc: f64, active: usize) -> IntervalMetrics {
        IntervalMetrics {
            start_s: 0.0,
            arrivals: on_time + late + dropped,
            completed_on_time: on_time,
            completed_late: late,
            dropped,
            dropped_deadline: dropped,
            dropped_reclaimed: 0,
            dropped_revoked: 0,
            accuracy_sum: acc * (on_time + late) as f64,
            accuracy_count: on_time + late,
            active_workers: active,
            cluster_size: 20,
            rerouted: 0,
        }
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
