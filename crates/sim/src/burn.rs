//! The SLO error-budget monitor: multi-window burn-rate evaluation over the
//! per-interval metrics series, with causal attribution against the cluster
//! event journal.
//!
//! The formulation is the standard SRE one. A run's *error budget* is the
//! fraction of finished queries allowed to violate the SLO, `1 - slo_target`.
//! The *burn rate* over a trailing window is the window's bad fraction
//! (late + dropped over finished) divided by the budget: burn rate 1.0 spends
//! the budget exactly at the sustainable pace, rate 10 exhausts it ten times
//! too fast. Alerting on a single window is noisy (short spikes) or sluggish
//! (long windows); the multi-window rule opens a *burn episode* only when both
//! a fast window (5 s — catches the onset quickly) and a slow window (60 s —
//! proves it is sustained) exceed the threshold, and closes it when the fast
//! window recovers.
//!
//! Each closed episode is then attributed to a cause by correlating it with
//! the [`crate::journal::Journal`] (when the run recorded one) and the
//! drop-cause counters: a revocation storm, a migration drain, boot lag,
//! stockout starvation, a plan-install gap, or — when no control-plane
//! incident explains it — pure queueing overload.
//!
//! Everything here is pure post-processing over deterministic inputs (the
//! interval series and the journal), so the analysis itself is deterministic
//! and runs identically with or without lane parallelism.

use crate::journal::{Journal, JournalKind};
use crate::metrics::IntervalMetrics;

/// The SLO attainment target; the error budget is `1 - SLO_TARGET`.
const SLO_TARGET: f64 = 0.99;
/// Fast alerting window, seconds (episode onset detection).
const FAST_WINDOW_S: f64 = 5.0;
/// Slow alerting window, seconds (sustained-burn confirmation).
const SLOW_WINDOW_S: f64 = 60.0;
/// Burn-rate threshold both windows must exceed to open an episode.
const THRESHOLD: f64 = 2.0;
/// How far before an episode's start the attributor scans the journal for a
/// triggering incident (control-plane damage precedes the visible burn).
const LOOKBACK_S: f64 = 15.0;

/// The attributed root cause of one burn episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurnCause {
    /// Spot-market revocations destroyed serving capacity.
    RevocationStorm,
    /// Rebalance migrations reclaimed workers mid-flight.
    MigrationDrain,
    /// Demand outran capacity that was still booting.
    BootLag,
    /// Provisioning was denied by capacity stockouts.
    Stockout,
    /// The burn started before the pipeline had any installed plan.
    PlanInstallGap,
    /// No control-plane incident correlates: plain queueing overload.
    Queueing,
}

impl BurnCause {
    /// Stable lowercase name used in reports and exports.
    pub fn name(self) -> &'static str {
        match self {
            BurnCause::RevocationStorm => "revocation_storm",
            BurnCause::MigrationDrain => "migration_drain",
            BurnCause::BootLag => "boot_lag",
            BurnCause::Stockout => "stockout",
            BurnCause::PlanInstallGap => "plan_install_gap",
            BurnCause::Queueing => "queueing",
        }
    }
}

/// One contiguous period of above-threshold budget burn.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnEpisode {
    /// Start of the first burning interval, seconds.
    pub start_s: f64,
    /// End of the last burning interval, seconds.
    pub end_s: f64,
    /// Highest fast-window burn rate observed during the episode.
    pub peak_burn_rate: f64,
    /// SLO-violating queries (late + dropped) finished during the episode.
    pub bad_queries: u64,
    /// Share of the whole run's error budget this episode consumed, percent
    /// (can exceed 100 when one episode alone blows the budget).
    pub budget_consumed_pct: f64,
    /// Attributed root cause.
    pub cause: BurnCause,
    /// Human-readable correlation evidence ("2 revocations, 31 revoked
    /// drops"), empty when nothing beyond the drop counters was available.
    pub evidence: String,
}

/// The budget verdict of a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnReport {
    /// The SLO attainment target the budget derives from.
    pub slo_target: f64,
    /// Total error budget in queries: `(1 - slo_target) * finished`.
    pub budget_queries: f64,
    /// Fraction of the budget consumed over the run (> 1 means the run blew
    /// its SLO budget).
    pub budget_consumed: f64,
    /// Highest fast-window burn rate anywhere in the run, episodes or not.
    pub worst_burn_rate: f64,
    /// Detected burn episodes, in time order.
    pub episodes: Vec<BurnEpisode>,
}

impl BurnReport {
    /// An empty report (no intervals, nothing burned).
    pub fn empty(slo_target: f64) -> Self {
        Self {
            slo_target,
            budget_queries: 0.0,
            budget_consumed: 0.0,
            worst_burn_rate: 0.0,
            episodes: Vec::new(),
        }
    }
}

fn window_burn(intervals: &[IntervalMetrics], end: usize, len: usize, budget: f64) -> f64 {
    let start = (end + 1).saturating_sub(len);
    let mut bad = 0u64;
    let mut finished = 0u64;
    for m in &intervals[start..=end] {
        bad += m.violations();
        finished += m.finished();
    }
    if finished == 0 {
        0.0
    } else {
        (bad as f64 / finished as f64) / budget
    }
}

/// Evaluate the burn-rate monitor over a run's interval series. `interval_s`
/// is the series' collection cadence; `journal` enables causal attribution
/// (without it the attributor falls back to the drop-cause counters alone).
pub fn analyze(
    intervals: &[IntervalMetrics],
    interval_s: f64,
    journal: Option<&Journal>,
) -> BurnReport {
    let budget = (1.0 - SLO_TARGET).max(f64::EPSILON);
    let mut report = BurnReport::empty(SLO_TARGET);
    if intervals.is_empty() || interval_s <= 0.0 {
        return report;
    }
    let fast_n = ((FAST_WINDOW_S / interval_s).ceil() as usize).max(1);
    let slow_n = ((SLOW_WINDOW_S / interval_s).ceil() as usize).max(fast_n);

    let total_finished: u64 = intervals.iter().map(|m| m.finished()).sum();
    let total_bad: u64 = intervals.iter().map(IntervalMetrics::violations).sum();
    report.budget_queries = budget * total_finished as f64;
    report.budget_consumed = if report.budget_queries > 0.0 {
        total_bad as f64 / report.budget_queries
    } else {
        0.0
    };

    // Scan the series once, tracking an open episode as a state machine.
    struct Open {
        start_idx: usize,
        peak: f64,
        bad: u64,
    }
    let mut open: Option<Open> = None;
    let mut closed: Vec<(usize, usize, f64, u64)> = Vec::new();
    for i in 0..intervals.len() {
        let fast = window_burn(intervals, i, fast_n, budget);
        let slow = window_burn(intervals, i, slow_n, budget);
        report.worst_burn_rate = report.worst_burn_rate.max(fast);
        let interval_bad = intervals[i].violations();
        match open.as_mut() {
            Some(ep) if fast < THRESHOLD => {
                closed.push((ep.start_idx, i - 1, ep.peak, ep.bad));
                open = None;
            }
            Some(ep) => {
                ep.peak = ep.peak.max(fast);
                ep.bad += interval_bad;
            }
            None if fast >= THRESHOLD && slow >= THRESHOLD => {
                open = Some(Open {
                    start_idx: i,
                    peak: fast,
                    bad: interval_bad,
                });
            }
            None => {}
        }
    }
    if let Some(ep) = open {
        closed.push((ep.start_idx, intervals.len() - 1, ep.peak, ep.bad));
    }

    for (start_idx, end_idx, peak, bad) in closed {
        let start_s = intervals[start_idx].start_s;
        let end_s = intervals[end_idx].start_s + interval_s;
        let (cause, evidence) = attribute(&intervals[start_idx..=end_idx], start_s, end_s, journal);
        report.episodes.push(BurnEpisode {
            start_s,
            end_s,
            peak_burn_rate: peak,
            bad_queries: bad,
            budget_consumed_pct: if report.budget_queries > 0.0 {
                bad as f64 / report.budget_queries * 100.0
            } else {
                0.0
            },
            cause,
            evidence,
        });
    }
    report
}

/// Correlate one episode against the journal and the drop-cause counters.
/// Rules apply in priority order — a revocation storm explains reclaimed
/// drops too (forced drains reclaim workers), so the more specific cause wins.
fn attribute(
    episode: &[IntervalMetrics],
    start_s: f64,
    end_s: f64,
    journal: Option<&Journal>,
) -> (BurnCause, String) {
    let revoked_drops: u64 = episode.iter().map(|m| u64::from(m.dropped_revoked)).sum();
    let reclaimed_drops: u64 = episode.iter().map(|m| u64::from(m.dropped_reclaimed)).sum();

    let mut revocations = 0usize;
    let mut migrations = 0usize;
    let mut boots = 0usize;
    let mut stockouts = 0usize;
    let mut provisions = 0usize;
    let mut installed_before = false;
    let mut any_install = false;
    if let Some(j) = journal {
        let from_s = start_s - LOOKBACK_S;
        for e in &j.events {
            match &e.kind {
                JournalKind::PlanInstall { .. } => {
                    any_install = true;
                    if e.time_s() <= start_s {
                        installed_before = true;
                    }
                }
                _ => {
                    let t = e.time_s();
                    if t < from_s || t >= end_s {
                        continue;
                    }
                    match &e.kind {
                        JournalKind::Revocation { .. } => revocations += 1,
                        JournalKind::Migration { .. } => migrations += 1,
                        JournalKind::Boot { .. } => boots += 1,
                        JournalKind::Stockout { denied, .. } => stockouts += *denied as usize,
                        JournalKind::AutoscaleDecision {
                            provision: true, ..
                        } => provisions += 1,
                        _ => {}
                    }
                }
            }
        }
    }

    if revocations > 0 || revoked_drops > 0 {
        let evidence = format!("{revocations} revocations, {revoked_drops} revoked drops");
        return (BurnCause::RevocationStorm, evidence);
    }
    if migrations > 0 || reclaimed_drops > 0 {
        let evidence = format!("{migrations} migrations, {reclaimed_drops} reclaimed drops");
        return (BurnCause::MigrationDrain, evidence);
    }
    if journal.is_some() && any_install && !installed_before {
        return (
            BurnCause::PlanInstallGap,
            "no plan installed before the burn started".to_string(),
        );
    }
    if stockouts > 0 {
        return (
            BurnCause::Stockout,
            format!("{stockouts} provision requests denied"),
        );
    }
    if boots > 0 || provisions > 0 {
        return (
            BurnCause::BootLag,
            format!("{provisions} scale-up decisions, {boots} boots landing"),
        );
    }
    (BurnCause::Queueing, String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::CLUSTER_LANE;
    use crate::types::secs_to_us;

    fn quiet(start_s: f64) -> IntervalMetrics {
        IntervalMetrics {
            start_s,
            arrivals: 100,
            completed_on_time: 100,
            ..Default::default()
        }
    }

    fn burning(start_s: f64, dropped: u32, revoked: u32) -> IntervalMetrics {
        IntervalMetrics {
            start_s,
            arrivals: 100,
            completed_on_time: 100 - dropped,
            dropped_deadline: dropped - revoked,
            dropped_revoked: revoked,
            ..Default::default()
        }
    }

    fn series(burn_from: usize, burn_len: usize, revoked: bool) -> Vec<IntervalMetrics> {
        (0..120)
            .map(|i| {
                if i >= burn_from && i < burn_from + burn_len {
                    burning(i as f64, 20, if revoked { 20 } else { 0 })
                } else {
                    quiet(i as f64)
                }
            })
            .collect()
    }

    #[test]
    fn quiet_run_burns_nothing() {
        let intervals: Vec<_> = (0..60).map(|i| quiet(i as f64)).collect();
        let report = analyze(&intervals, 1.0, None);
        assert!(report.episodes.is_empty());
        assert_eq!(report.budget_consumed, 0.0);
        assert_eq!(report.worst_burn_rate, 0.0);
        assert!((report.budget_queries - 60.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_burn_opens_and_closes_one_episode() {
        // 20% bad for 30 s in a 1% budget: burn rate 20 — far over threshold.
        let intervals = series(40, 30, false);
        let report = analyze(&intervals, 1.0, None);
        assert_eq!(report.episodes.len(), 1, "{:?}", report.episodes);
        let ep = &report.episodes[0];
        assert!(ep.start_s >= 40.0 && ep.start_s < 46.0, "{}", ep.start_s);
        assert!(ep.end_s > 69.0, "{}", ep.end_s);
        assert!(ep.peak_burn_rate > 10.0);
        assert_eq!(ep.cause, BurnCause::Queueing);
        assert!(report.worst_burn_rate >= ep.peak_burn_rate);
        // 600 bad queries of a 120-interval × 100-query × 1% = 120 budget.
        assert!(report.budget_consumed > 1.0);
        assert!(ep.budget_consumed_pct > 100.0);
    }

    #[test]
    fn short_spike_below_the_slow_window_does_not_alert() {
        // 3 bad seconds: the fast window fires but the 60 s window stays
        // under threshold, so no episode opens.
        let intervals = series(40, 3, false);
        let report = analyze(&intervals, 1.0, None);
        assert!(report.episodes.is_empty(), "{:?}", report.episodes);
        assert!(report.worst_burn_rate > 2.0);
    }

    #[test]
    fn drop_causes_attribute_without_a_journal() {
        let intervals = series(40, 30, true);
        let report = analyze(&intervals, 1.0, None);
        assert_eq!(report.episodes.len(), 1);
        assert_eq!(report.episodes[0].cause, BurnCause::RevocationStorm);
        assert!(report.episodes[0].evidence.contains("revoked drops"));
    }

    #[test]
    fn journal_attributes_revocations_within_the_lookback() {
        let intervals = series(40, 30, false);
        let mut journal = Journal::new();
        journal.record(0, 0, JournalKind::PlanInstall { epoch: 1 });
        journal.record(
            secs_to_us(38.0),
            CLUSTER_LANE,
            JournalKind::Revocation {
                worker: 7,
                class: 1,
                lane: 0,
            },
        );
        let report = analyze(&intervals, 1.0, Some(&journal));
        assert_eq!(report.episodes.len(), 1);
        assert_eq!(report.episodes[0].cause, BurnCause::RevocationStorm);
        assert!(report.episodes[0].evidence.starts_with("1 revocations"));
    }

    #[test]
    fn cold_start_attributes_to_the_plan_install_gap() {
        // Burn at the very start, first plan lands only at t = 50 s.
        let intervals = series(0, 30, false);
        let mut journal = Journal::new();
        journal.record(secs_to_us(50.0), 0, JournalKind::PlanInstall { epoch: 2 });
        let report = analyze(&intervals, 1.0, Some(&journal));
        assert_eq!(report.episodes.len(), 1);
        assert_eq!(report.episodes[0].cause, BurnCause::PlanInstallGap);
    }

    #[test]
    fn boot_lag_attribution_needs_scaling_activity() {
        let intervals = series(40, 30, false);
        let mut journal = Journal::new();
        journal.record(0, 0, JournalKind::PlanInstall { epoch: 1 });
        journal.record(
            secs_to_us(41.0),
            CLUSTER_LANE,
            JournalKind::AutoscaleDecision {
                provision: true,
                class: 0,
                count: 4,
                reason: crate::elastic::DecisionReason::PressureKick,
            },
        );
        journal.record(
            secs_to_us(55.0),
            CLUSTER_LANE,
            JournalKind::Boot {
                worker: 30,
                class: 0,
            },
        );
        let report = analyze(&intervals, 1.0, Some(&journal));
        assert_eq!(report.episodes.len(), 1);
        assert_eq!(report.episodes[0].cause, BurnCause::BootLag);
    }

    #[test]
    fn empty_series_is_safe() {
        let report = analyze(&[], 1.0, None);
        assert!(report.episodes.is_empty());
        assert_eq!(report.budget_queries, 0.0);
    }
}
