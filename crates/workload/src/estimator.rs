//! Demand estimation: the exponentially-weighted moving average and the demand history
//! the Resource Manager consults (Section 4.2 of the paper), plus the windowed
//! per-phase [`SeasonalEstimator`] the forecasting provisioner pre-boots from.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An exponentially-weighted moving-average estimator.
///
/// The paper: "To estimate the demand to serve, we use an exponentially weighted moving
/// average on the recent demand history."
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EwmaEstimator {
    alpha: f64,
    value: Option<f64>,
}

impl EwmaEstimator {
    /// Create an estimator with smoothing factor `alpha` in `(0, 1]`; larger values
    /// react faster to recent observations.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// The current estimate (0 before any observation).
    pub fn estimate(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// True if at least one observation has been made.
    pub fn is_warm(&self) -> bool {
        self.value.is_some()
    }

    /// Reset to the initial (cold) state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// A sliding window of recent per-interval demand observations plus an EWMA estimate,
/// as stored in Loki's Metadata Store and consulted by the Resource Manager.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemandHistory {
    window: usize,
    recent: VecDeque<f64>,
    ewma: EwmaEstimator,
    /// Headroom multiplier applied to the estimate when provisioning (provisioning for
    /// exactly the average demand under-provisions half the time).
    headroom: f64,
}

impl DemandHistory {
    /// Create a history with the given window length (number of observations kept),
    /// EWMA smoothing factor, and provisioning headroom multiplier (e.g. 1.1 = +10%).
    pub fn new(window: usize, alpha: f64, headroom: f64) -> Self {
        assert!(window >= 1);
        assert!(headroom >= 1.0);
        Self {
            window,
            recent: VecDeque::with_capacity(window),
            ewma: EwmaEstimator::new(alpha),
            headroom,
        }
    }

    /// Record the demand observed over the last interval (queries per second).
    pub fn observe(&mut self, qps: f64) {
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(qps);
        self.ewma.observe(qps);
    }

    /// The smoothed demand estimate used for resource allocation, including headroom.
    /// Never less than the most recent observation's share of the peak in the window
    /// (a sudden spike should not be averaged away entirely).
    pub fn provisioning_estimate(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        let recent_max = self
            .recent
            .iter()
            .rev()
            .take(3)
            .copied()
            .fold(0.0, f64::max);
        let smoothed = self.ewma.estimate();
        self.headroom * smoothed.max(0.8 * recent_max)
    }

    /// The raw EWMA estimate without headroom.
    pub fn smoothed(&self) -> f64 {
        self.ewma.estimate()
    }

    /// The most recent observation, if any.
    pub fn last(&self) -> Option<f64> {
        self.recent.back().copied()
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// True if no observations have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }
}

/// A windowed per-phase demand estimator that fits a periodic (seasonal)
/// profile online and extrapolates the current ramp.
///
/// The period (e.g. one diurnal day, or the compressed day of the bench
/// traces) is split into `num_phases` equal phase bins; each bin keeps an
/// EWMA of the demand observed while the clock was inside it. A forecast for
/// `now + horizon` prefers the target phase's fitted level — scaled by the
/// ratio of the current observation to the current phase's fitted level, so a
/// day that runs hot or cold shifts the whole profile — and falls back to
/// linear trend extrapolation over a sliding window until the target phase
/// has been visited (the first period of a run, where no seasonal memory
/// exists yet).
///
/// The estimator also tracks its own skill: every `observe` scores the
/// forecast the estimator would have issued one horizon earlier against the
/// demand that actually arrived, maintaining an EWMA of the relative error.
/// A consumer (the forecasting provisioner) reads [`SeasonalEstimator::error`]
/// and falls back to reactive behavior when the forecast is not earning its
/// keep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeasonalEstimator {
    period_s: f64,
    /// Per phase bin: EWMA of demand observed in the bin (`None` = unvisited).
    phases: Vec<Option<f64>>,
    alpha: f64,
    /// Sliding `(t_s, qps)` window for the trend fallback.
    recent: VecDeque<(f64, f64)>,
    window: usize,
    /// Pending self-scoring probes: `(due_t_s, forecast_qps)`.
    probes: VecDeque<(f64, f64)>,
    /// Horizon the self-scoring probes are issued at, seconds.
    probe_horizon_s: f64,
    /// EWMA of `|forecast - actual| / max(actual, 1)`.
    error: EwmaEstimator,
}

impl SeasonalEstimator {
    /// Create an estimator for a seasonal period of `period_s` seconds, split
    /// into `num_phases` bins, scoring its own forecasts at `probe_horizon_s`.
    pub fn new(period_s: f64, num_phases: usize, probe_horizon_s: f64) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        assert!(num_phases >= 1, "need at least one phase bin");
        assert!(probe_horizon_s >= 0.0, "probe horizon must be >= 0");
        Self {
            period_s,
            phases: vec![None; num_phases],
            alpha: 0.4,
            recent: VecDeque::new(),
            window: 6,
            probes: VecDeque::new(),
            probe_horizon_s,
            error: EwmaEstimator::new(0.3),
        }
    }

    fn phase_of(&self, t_s: f64) -> usize {
        let frac = (t_s.rem_euclid(self.period_s)) / self.period_s;
        ((frac * self.phases.len() as f64) as usize).min(self.phases.len() - 1)
    }

    /// Record the demand observed at `now_s` (queries per second). Also
    /// settles any due self-scoring probes and issues the next one.
    pub fn observe(&mut self, now_s: f64, qps: f64) {
        // Settle probes that have come due: score the forecast made one
        // horizon ago against what actually arrived.
        while let Some(&(due, forecast)) = self.probes.front() {
            if due > now_s {
                break;
            }
            self.probes.pop_front();
            // A probe is scored against the first observation at or past its
            // due time — unless that observation arrives so late (a gap in
            // the feed) that the comparison would measure the gap, not the
            // forecast.
            if now_s - due > 0.5 * self.probe_horizon_s {
                continue;
            }
            // Symmetric relative error, bounded to [0, 2]: a miss at a
            // profile turn scores ~1 instead of exploding when the actual
            // demand is near zero.
            self.error
                .observe((forecast - qps).abs() / forecast.abs().max(qps.abs()).max(1.0));
        }
        // Fit the phase profile and the trend window.
        let phase = self.phase_of(now_s);
        self.phases[phase] = Some(match self.phases[phase] {
            None => qps,
            Some(v) => self.alpha * qps + (1.0 - self.alpha) * v,
        });
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back((now_s, qps));
        // Issue the next probe from the *post-update* state, mirroring how a
        // consumer would use the estimator at this tick.
        if self.probe_horizon_s > 0.0 {
            let f = self.forecast(now_s, self.probe_horizon_s);
            self.probes.push_back((now_s + self.probe_horizon_s, f));
        }
    }

    /// Forecast the demand at `now_s + horizon_s`. Prefers the target phase's
    /// fitted seasonal level (scaled to the current level); falls back to
    /// linear trend extrapolation over the recent window; 0 before any
    /// observation.
    pub fn forecast(&self, now_s: f64, horizon_s: f64) -> f64 {
        let Some(&(_, last_qps)) = self.recent.back() else {
            return 0.0;
        };
        let target = self.phase_of(now_s + horizon_s);
        let current = self.phase_of(now_s);
        if let (Some(seasonal_target), Some(seasonal_current)) =
            (self.phases[target], self.phases[current])
        {
            // Seasonal path — but only once the target bin holds *prior*
            // information. Mid-first-period both bins may be warm purely from
            // this ramp; the level-scaling still yields the right shape:
            // scale the target phase by how hot today runs vs the fit.
            if target != current && seasonal_current > 0.0 {
                let level = (last_qps / seasonal_current).clamp(0.25, 4.0);
                return (seasonal_target * level).max(0.0);
            }
        }
        // Trend fallback: least-squares slope over the recent window.
        if self.recent.len() < 2 {
            return last_qps;
        }
        let n = self.recent.len() as f64;
        let (mut st, mut sq, mut stt, mut stq) = (0.0, 0.0, 0.0, 0.0);
        for &(t, q) in &self.recent {
            st += t;
            sq += q;
            stt += t * t;
            stq += t * q;
        }
        let denom = n * stt - st * st;
        let slope = if denom.abs() < 1e-12 {
            0.0
        } else {
            (n * stq - st * sq) / denom
        };
        (last_qps + slope * horizon_s).max(0.0)
    }

    /// EWMA of the symmetric relative forecast error
    /// (`|forecast - actual| / max(|forecast|, |actual|, 1)`), in `[0, 1]`
    /// in practice; 0 until the first probe settles.
    pub fn error(&self) -> f64 {
        self.error.estimate()
    }

    /// True once at least one self-scoring probe has settled (the error
    /// signal carries information).
    pub fn scored(&self) -> bool {
        self.error.is_warm()
    }

    /// True once the phase bin covering `t_s` has been fitted.
    pub fn phase_warm(&self, t_s: f64) -> bool {
        self.phases[self.phase_of(t_s)].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = EwmaEstimator::new(0.3);
        assert!(!e.is_warm());
        assert_eq!(e.estimate(), 0.0);
        for _ in 0..100 {
            e.observe(50.0);
        }
        assert!((e.estimate() - 50.0).abs() < 1e-9);
        assert!(e.is_warm());
        e.reset();
        assert!(!e.is_warm());
    }

    #[test]
    fn ewma_tracks_level_shift_gradually() {
        let mut e = EwmaEstimator::new(0.5);
        e.observe(100.0);
        e.observe(200.0);
        // 0.5*200 + 0.5*100 = 150
        assert!((e.estimate() - 150.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_bad_alpha() {
        EwmaEstimator::new(0.0);
    }

    #[test]
    fn history_window_is_bounded() {
        let mut h = DemandHistory::new(3, 0.5, 1.0);
        for i in 0..10 {
            h.observe(i as f64);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.last(), Some(9.0));
    }

    #[test]
    fn provisioning_estimate_includes_headroom_and_reacts_to_spikes() {
        let mut h = DemandHistory::new(60, 0.2, 1.1);
        for _ in 0..60 {
            h.observe(100.0);
        }
        let steady = h.provisioning_estimate();
        assert!((steady - 110.0).abs() < 1.0, "steady={steady}");
        // A sudden spike must lift the estimate well above the smoothed value.
        h.observe(500.0);
        let spiked = h.provisioning_estimate();
        assert!(spiked >= 0.8 * 500.0 * 1.1 - 1e-9, "spiked={spiked}");
    }

    #[test]
    fn empty_history_estimates_zero() {
        let h = DemandHistory::new(10, 0.5, 1.2);
        assert!(h.is_empty());
        assert_eq!(h.provisioning_estimate(), 0.0);
        assert_eq!(h.last(), None);
    }

    /// One "day" of a triangular diurnal profile: ramp up over the first
    /// half, down over the second, peak 1000, base 100.
    fn diurnal(t_s: f64, period_s: f64) -> f64 {
        let x = (t_s.rem_euclid(period_s)) / period_s;
        let tri = 1.0 - (2.0 * x - 1.0).abs();
        100.0 + 900.0 * tri
    }

    #[test]
    fn seasonal_estimator_cold_start_extrapolates_the_ramp() {
        let mut e = SeasonalEstimator::new(600.0, 12, 30.0);
        assert_eq!(e.forecast(0.0, 30.0), 0.0);
        // Observe a rising ramp inside one phase bin (t in [0, 50)): the
        // seasonal path has no cross-bin memory yet, so the forecast must
        // extrapolate the slope (~+10 qps/s) rather than hold the level.
        for i in 0..5 {
            let t = i as f64 * 10.0;
            e.observe(t, 100.0 + 10.0 * t);
        }
        let f = e.forecast(40.0, 30.0);
        assert!(
            (f - (500.0 + 300.0)).abs() < 50.0,
            "trend forecast should track the ramp, got {f}"
        );
    }

    #[test]
    fn seasonal_estimator_learns_the_profile_across_periods() {
        let period = 600.0;
        let mut e = SeasonalEstimator::new(period, 20, 30.0);
        // Two full days at 10 s ticks: the second day scores the first day's fit.
        for i in 0..120 {
            let t = i as f64 * 10.0;
            e.observe(t, diurnal(t, period));
        }
        // Mid-morning of day 3: the forecast for one bin ahead (+30 s) should
        // be close to the true profile, well above the current level on the
        // up-ramp.
        let now = 2.0 * period + 120.0;
        e.observe(now, diurnal(now, period));
        let f = e.forecast(now, 60.0);
        let truth = diurnal(now + 60.0, period);
        assert!(
            (f - truth).abs() / truth < 0.25,
            "seasonal forecast {f} should be within 25% of {truth}"
        );
        // And the self-scored error should be small after a clean day.
        assert!(e.scored());
        assert!(e.error() < 0.25, "error={}", e.error());
    }

    #[test]
    fn seasonal_estimator_error_spikes_when_the_profile_breaks() {
        let period = 600.0;
        let mut e = SeasonalEstimator::new(period, 20, 30.0);
        for i in 0..120 {
            let t = i as f64 * 10.0;
            e.observe(t, diurnal(t, period));
        }
        let calm = e.error();
        // Day 3 betrays the fit: flat near-zero demand where the profile
        // promised a ramp.
        for i in 0..30 {
            let t = 2.0 * period + i as f64 * 10.0;
            e.observe(t, 5.0);
        }
        assert!(
            e.error() > calm + 0.5,
            "profile break must spike the error: calm={calm}, now={}",
            e.error()
        );
    }

    #[test]
    fn seasonal_estimator_level_shift_scales_the_profile() {
        let period = 600.0;
        let mut e = SeasonalEstimator::new(period, 20, 30.0);
        for i in 0..60 {
            let t = i as f64 * 10.0;
            e.observe(t, diurnal(t, period));
        }
        // Day 2 runs 2x hot; the forecast should scale the fitted profile up.
        let now = period + 120.0;
        e.observe(now, 2.0 * diurnal(now, period));
        let f = e.forecast(now, 60.0);
        let truth = 2.0 * diurnal(now + 60.0, period);
        assert!(
            (f - truth).abs() / truth < 0.35,
            "level-scaled forecast {f} should be near {truth}"
        );
        assert!(e.phase_warm(now));
    }
}
