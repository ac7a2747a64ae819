//! Parallel execution of independent simulation runs.
//!
//! The bounded scoped-thread pool itself lives in `loki_sim::par` (the engine's
//! sharded lane execution uses the same one); this module adds the [`Runner`]
//! that drives batches of bench points through it. Each
//! [`crate::scenario::RunPoint`] is fully self-contained (it builds its own
//! graph, trace, and controller), which is what makes parallel summaries
//! bit-identical to serial ones.

use crate::scenario::{PointResult, RunPoint};
use loki_sim::par::par_map;
use loki_sim::EngineError;

/// Executes batches of [`RunPoint`]s, serially or across a bounded thread pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    /// Number of worker threads; `1` means inline serial execution.
    pub jobs: usize,
}

impl Runner {
    /// Strictly serial execution on the calling thread.
    pub fn serial() -> Self {
        Self { jobs: 1 }
    }

    /// A pool with an explicit worker count (clamped to at least one).
    pub fn with_jobs(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The default parallel runner: one worker per available core, and at least two
    /// so multi-point batches always exercise the pool.
    pub fn auto() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self { jobs: cores.max(2) }
    }

    /// Execute every point, returning results in input order, or the error of
    /// the first point (in input order) whose run failed.
    pub fn run(&self, points: Vec<RunPoint>) -> Result<Vec<PointResult>, EngineError> {
        par_map(points, self.jobs, |p| p.execute())
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_sizes_clamp_sensibly() {
        assert_eq!(Runner::with_jobs(0).jobs, 1);
        assert_eq!(Runner::serial().jobs, 1);
        assert!(Runner::auto().jobs >= 2);
    }
}
