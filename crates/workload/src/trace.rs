//! Per-second query-arrival-rate traces and shape-preserving transformations.

use serde::{Deserialize, Serialize};

/// A workload trace: the query arrival rate (queries per second) for each second of an
/// experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    qps: Vec<f64>,
}

impl Trace {
    /// Create a trace from a per-second QPS series.
    pub fn new(name: impl Into<String>, qps: Vec<f64>) -> Self {
        assert!(!qps.is_empty(), "a trace must cover at least one second");
        assert!(
            qps.iter().all(|q| q.is_finite() && *q >= 0.0),
            "QPS values must be finite and non-negative"
        );
        Self {
            name: name.into(),
            qps,
        }
    }

    /// The trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Duration in seconds.
    pub fn duration_secs(&self) -> usize {
        self.qps.len()
    }

    /// The QPS during second `sec` (clamped to the last second for out-of-range
    /// queries, which keeps long simulations well-defined).
    pub fn qps_at(&self, sec: usize) -> f64 {
        let idx = sec.min(self.qps.len() - 1);
        self.qps[idx]
    }

    /// The full per-second series.
    pub fn series(&self) -> &[f64] {
        &self.qps
    }

    /// Peak QPS.
    pub fn peak_qps(&self) -> f64 {
        self.qps.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum QPS.
    pub fn min_qps(&self) -> f64 {
        self.qps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean QPS over the whole trace.
    pub fn mean_qps(&self) -> f64 {
        self.qps.iter().sum::<f64>() / self.qps.len() as f64
    }

    /// Total number of expected queries over the trace.
    pub fn total_queries(&self) -> f64 {
        self.qps.iter().sum()
    }

    /// Multiply every point by `factor` (shape-preserving).
    pub fn scale_by(&self, factor: f64) -> Trace {
        assert!(factor.is_finite() && factor >= 0.0);
        Trace {
            name: format!("{}*{factor:.3}", self.name),
            qps: self.qps.iter().map(|q| q * factor).collect(),
        }
    }

    /// Rescale so the peak equals `peak_qps` (the paper's shape-preserving
    /// transformation that matches a trace to the capacity of the cluster).
    pub fn scale_to_peak(&self, peak_qps: f64) -> Trace {
        let current = self.peak_qps();
        if current <= 0.0 {
            return Trace::new(self.name.clone(), vec![0.0; self.qps.len()]);
        }
        self.scale_by(peak_qps / current)
    }

    /// Keep only seconds `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Trace {
        assert!(start < end && end <= self.qps.len(), "invalid slice range");
        Trace {
            name: format!("{}[{start}..{end}]", self.name),
            qps: self.qps[start..end].to_vec(),
        }
    }

    /// Stretch or compress the trace to a new duration, preserving its shape by linear
    /// interpolation. Useful for fitting a day-long trace into a shorter simulation.
    pub fn resample(&self, new_duration_secs: usize) -> Trace {
        assert!(new_duration_secs >= 1);
        let n = self.qps.len();
        if n == 1 {
            return Trace::new(self.name.clone(), vec![self.qps[0]; new_duration_secs]);
        }
        let mut out = Vec::with_capacity(new_duration_secs);
        for i in 0..new_duration_secs {
            let pos = i as f64 / (new_duration_secs.max(2) - 1) as f64 * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            out.push(self.qps[lo] * (1.0 - frac) + self.qps[hi] * frac);
        }
        Trace {
            name: format!("{}@{new_duration_secs}s", self.name),
            qps: out,
        }
    }

    /// Concatenate another trace after this one.
    pub fn concat(&self, other: &Trace) -> Trace {
        let mut qps = self.qps.clone();
        qps.extend_from_slice(&other.qps);
        Trace {
            name: format!("{}+{}", self.name, other.name),
            qps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: &[f64]) -> Trace {
        Trace::new("t", values.to_vec())
    }

    #[test]
    fn basic_statistics() {
        let tr = t(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(tr.duration_secs(), 4);
        assert_eq!(tr.peak_qps(), 40.0);
        assert_eq!(tr.min_qps(), 10.0);
        assert_eq!(tr.mean_qps(), 25.0);
        assert_eq!(tr.total_queries(), 100.0);
        assert_eq!(tr.qps_at(2), 30.0);
        // out of range clamps to last value
        assert_eq!(tr.qps_at(1000), 40.0);
    }

    #[test]
    fn scaling_preserves_shape() {
        let tr = t(&[10.0, 20.0, 40.0]);
        let scaled = tr.scale_to_peak(100.0);
        assert_eq!(scaled.series(), &[25.0, 50.0, 100.0]);
        let doubled = tr.scale_by(2.0);
        assert_eq!(doubled.series(), &[20.0, 40.0, 80.0]);
        // ratios between points are unchanged
        assert!((scaled.series()[1] / scaled.series()[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slice_and_concat() {
        let tr = t(&[1.0, 2.0, 3.0, 4.0]);
        let s = tr.slice(1, 3);
        assert_eq!(s.series(), &[2.0, 3.0]);
        let c = s.concat(&t(&[9.0]));
        assert_eq!(c.series(), &[2.0, 3.0, 9.0]);
    }

    #[test]
    fn resample_preserves_endpoints() {
        let tr = t(&[10.0, 20.0, 30.0]);
        let up = tr.resample(5);
        assert_eq!(up.duration_secs(), 5);
        assert!((up.series()[0] - 10.0).abs() < 1e-9);
        assert!((up.series()[4] - 30.0).abs() < 1e-9);
        let down = tr.resample(2);
        assert!((down.series()[0] - 10.0).abs() < 1e-9);
        assert!((down.series()[1] - 30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one second")]
    fn empty_trace_rejected() {
        Trace::new("x", vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_qps_rejected() {
        Trace::new("x", vec![1.0, -2.0]);
    }
}
