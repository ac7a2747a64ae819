//! An elastic policy that replays a fixed script.

use loki_sim::{ElasticAction, ElasticObservation, ElasticPolicy};

/// A policy that replays a fixed script of `(tick_time_s, actions)` entries.
pub struct ScriptedPolicy {
    pub script: Vec<(f64, Vec<ElasticAction>)>,
}

impl ElasticPolicy for ScriptedPolicy {
    fn name(&self) -> &str {
        "scripted"
    }

    fn decide(&mut self, observation: &ElasticObservation<'_>) -> Vec<ElasticAction> {
        let mut out = Vec::new();
        self.script.retain(|(when, actions)| {
            if *when <= observation.now_s {
                out.extend(actions.iter().copied());
                false
            } else {
                true
            }
        });
        out
    }
}
