//! The structured cluster event journal: a first-class, deterministic log of
//! every control-plane incident of a run — rebalances and the worker
//! migrations they cause, fleet lifecycle transitions (boot, drain, retire),
//! spot-market revocations and their grace outcomes, price steps, stockouts,
//! per-lane plan installs, and autoscaler decisions with their reason enums.
//!
//! Recording is *observation-only* (gated by
//! [`crate::ObserveConfig::timeline`]): every hook sits at a decision the
//! engine already makes, consumes no RNG draws, and schedules no events, so a
//! journaled run is bit-identical to an unjournaled one. Determinism across
//! `jobs` values comes from where events are recorded: cluster-level events
//! are recorded serially on the driver thread (epoch barriers process in the
//! same order for every `jobs` value), and the only lane-recorded event kind
//! — [`JournalKind::PlanInstall`] — is merged at the end of the run by the
//! total order of [`JournalEvent::sort_key`], which is independent of lane
//! parallelism.

use crate::elastic::DecisionReason;
use crate::types::SimTime;

/// Lane index marking a cluster-level event (no owning pipeline).
pub const CLUSTER_LANE: u32 = u32::MAX;

/// What one [`JournalEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalKind {
    /// An arbiter rebalance tick that moved at least one worker.
    Rebalance {
        /// Rebalance epochs so far (1-based: the first moving tick is 1).
        epoch: u64,
        /// Workers that changed lanes at this tick.
        moved: u64,
        /// The arbiter's stated rationale, when it reports one.
        reason: Option<&'static str>,
    },
    /// One worker changed hands during a rebalance. `from_lane` is
    /// [`CLUSTER_LANE`] when the worker came from the free pool.
    Migration {
        /// Fleet slot of the moved worker.
        worker: u32,
        /// Previous owning lane.
        from_lane: u32,
        /// New owning lane ([`CLUSTER_LANE`] when released to the free pool).
        to_lane: u32,
    },
    /// A lane's controller installed a new allocation plan (lane-scoped:
    /// [`JournalEvent::lane`] is the installing lane).
    PlanInstall {
        /// The lane's assignment epoch right after the install.
        epoch: u64,
    },
    /// An elastic-policy action, with the policy's stated reason.
    AutoscaleDecision {
        /// True for a provision request, false for a drain.
        provision: bool,
        /// Catalog class index the action targets.
        class: u32,
        /// Requested worker count (before engine clamping).
        count: u32,
        /// Why the policy acted.
        reason: DecisionReason,
    },
    /// Spot provision requests denied by a capacity stockout.
    Stockout {
        /// Catalog class index.
        class: u32,
        /// Workers denied out of the request.
        denied: u32,
    },
    /// A provisioned worker finished booting and turned warm (billing starts).
    Boot {
        /// Fleet slot of the worker.
        worker: u32,
        /// Catalog class index.
        class: u32,
    },
    /// A warm worker began draining (voluntary scale-down, not a revocation).
    DrainStart {
        /// Fleet slot of the worker.
        worker: u32,
        /// Catalog class index.
        class: u32,
    },
    /// A draining worker finished its in-flight work and retired
    /// (billing stops).
    Retire {
        /// Fleet slot of the worker.
        worker: u32,
        /// Catalog class index.
        class: u32,
    },
    /// The market revoked a warm spot worker (forced drain on a deadline).
    Revocation {
        /// Fleet slot of the worker.
        worker: u32,
        /// Catalog class index.
        class: u32,
        /// Owning lane at revocation time ([`CLUSTER_LANE`] if free).
        lane: u32,
    },
    /// A revocation deadline resolved: either the worker had already drained
    /// cleanly, or its in-flight batch was aborted.
    RevokeGrace {
        /// Fleet slot of the worker.
        worker: u32,
        /// True when the worker retired before the deadline (nothing lost).
        clean: bool,
        /// Queries re-queued (or lost) from the aborted batch.
        lost: u64,
    },
    /// The spot-price multiplier changed (stepwise schedule). The first
    /// market tick records the initial multiplier.
    PriceStep {
        /// The multiplier now in effect.
        multiplier: f64,
    },
    /// Periodic fleet/cost sample at elastic-decide cadence.
    CostSample {
        /// Warm workers across all classes.
        warm: u32,
        /// Cumulative billed dollars since the start of the run.
        dollars: f64,
    },
}

impl JournalKind {
    /// Stable lowercase name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            JournalKind::Rebalance { .. } => "rebalance",
            JournalKind::Migration { .. } => "migration",
            JournalKind::PlanInstall { .. } => "plan_install",
            JournalKind::AutoscaleDecision { .. } => "autoscale_decision",
            JournalKind::Stockout { .. } => "stockout",
            JournalKind::Boot { .. } => "boot",
            JournalKind::DrainStart { .. } => "drain_start",
            JournalKind::Retire { .. } => "retire",
            JournalKind::Revocation { .. } => "revocation",
            JournalKind::RevokeGrace { .. } => "revoke_grace",
            JournalKind::PriceStep { .. } => "price_step",
            JournalKind::CostSample { .. } => "cost_sample",
        }
    }
}

/// One journaled incident.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Simulated time of the incident, µs.
    pub time_us: SimTime,
    /// Lane the event belongs to ([`CLUSTER_LANE`] for cluster-level events).
    pub lane: u32,
    /// Recording sequence within the event's journal (driver-side for cluster
    /// events, lane-local for lane events) — the deterministic tiebreaker.
    pub seq: u64,
    /// What happened.
    pub kind: JournalKind,
}

impl JournalEvent {
    /// The total order journal merges sort by: time, then cluster events
    /// before lane events, then lane index, then recording sequence. Every
    /// component is derived from simulated state, so the merged order is
    /// identical for every `jobs` value.
    pub fn sort_key(&self) -> (SimTime, u8, u32, u64) {
        let rank = if self.lane == CLUSTER_LANE { 0 } else { 1 };
        (self.time_us, rank, self.lane, self.seq)
    }

    /// Event time in seconds.
    pub fn time_s(&self) -> f64 {
        crate::types::us_to_secs(self.time_us)
    }
}

/// An append-only event journal. The engine keeps one on the driver for
/// cluster events; each lane keeps one for its plan installs; they merge at
/// the end of the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Journal {
    /// Recorded events. In recording order until [`Journal::merge_from`] +
    /// [`Journal::finish`] impose the global sort order.
    pub events: Vec<JournalEvent>,
    seq: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event at `time_us`, attributed to `lane`
    /// ([`CLUSTER_LANE`] for cluster-level incidents).
    pub fn record(&mut self, time_us: SimTime, lane: u32, kind: JournalKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(JournalEvent {
            time_us,
            lane,
            seq,
            kind,
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Absorb another journal's events (e.g. a lane journal into the cluster
    /// journal). Call [`Journal::finish`] after the last merge.
    pub fn merge_from(&mut self, other: Journal) {
        self.events.extend(other.events);
    }

    /// Impose the global deterministic order (see [`JournalEvent::sort_key`]).
    pub fn finish(&mut self) {
        self.events.sort_by_key(|e| e.sort_key());
    }

    /// Count events matching a predicate.
    pub fn count_matching(&self, mut pred: impl FnMut(&JournalKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_time_then_cluster_then_lane_then_seq() {
        let mut cluster = Journal::new();
        cluster.record(
            2_000_000,
            CLUSTER_LANE,
            JournalKind::PriceStep { multiplier: 1.3 },
        );
        cluster.record(
            2_000_000,
            CLUSTER_LANE,
            JournalKind::Boot {
                worker: 4,
                class: 0,
            },
        );
        let mut lane1 = Journal::new();
        lane1.record(1_000_000, 1, JournalKind::PlanInstall { epoch: 2 });
        lane1.record(2_000_000, 1, JournalKind::PlanInstall { epoch: 3 });
        let mut lane0 = Journal::new();
        lane0.record(2_000_000, 0, JournalKind::PlanInstall { epoch: 5 });

        cluster.merge_from(lane1);
        cluster.merge_from(lane0);
        cluster.finish();

        let order: Vec<(SimTime, u32, u64)> = cluster
            .events
            .iter()
            .map(|e| (e.time_us, e.lane, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (1_000_000, 1, 0),
                (2_000_000, CLUSTER_LANE, 0),
                (2_000_000, CLUSTER_LANE, 1),
                (2_000_000, 0, 0),
                (2_000_000, 1, 1),
            ]
        );
    }

    #[test]
    fn window_filter_and_counts() {
        let mut j = Journal::new();
        j.record(
            500_000,
            CLUSTER_LANE,
            JournalKind::PriceStep { multiplier: 0.9 },
        );
        j.record(
            1_500_000,
            CLUSTER_LANE,
            JournalKind::Revocation {
                worker: 3,
                class: 1,
                lane: 0,
            },
        );
        j.record(
            2_500_000,
            CLUSTER_LANE,
            JournalKind::Revocation {
                worker: 5,
                class: 1,
                lane: 2,
            },
        );
        assert_eq!(j.len(), 3);
        assert_eq!(
            j.count_matching(|k| matches!(k, JournalKind::Revocation { .. })),
            2
        );
        assert_eq!(j.events[1].kind.name(), "revocation");
    }
}
