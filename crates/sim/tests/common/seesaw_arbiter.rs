//! A migration-heavy resource arbiter.

use loki_sim::{apportion, ArbiterObservation, ResourceArbiter};

/// An arbiter that flips the cluster split every epoch: odd epochs favour the
/// low-index lanes, even epochs the high-index ones. Every tick moves workers,
/// which is exactly the behaviour the epoch-barrier migration path must absorb
/// without perturbing lane-local event order (the requeue/re-home paths also
/// leave `Requeue` trace markers).
pub struct SeesawArbiter {
    pub epoch: u64,
}

impl ResourceArbiter for SeesawArbiter {
    fn name(&self) -> &str {
        "seesaw"
    }

    fn rebalance_interval_s(&self) -> f64 {
        2.0
    }

    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>> {
        self.epoch += 1;
        let lanes = observation.partition.len();
        let weights: Vec<f64> = (0..lanes)
            .map(|i| {
                if i.is_multiple_of(2) == self.epoch.is_multiple_of(2) {
                    3.0
                } else {
                    1.0
                }
            })
            .collect();
        Some(apportion(&weights, observation.cluster_size))
    }
}
