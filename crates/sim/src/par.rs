//! A bounded scoped-thread map for independent work items.
//!
//! crates.io (and thus rayon) is unavailable in the build container, so this is a
//! hand-rolled bounded pool on `std::thread::scope`: a shared work queue drained by
//! `jobs` scoped workers, with results written back by index so the output order is
//! the input order regardless of scheduling. It runs both the bench harness's
//! independent simulation points (`loki_bench::runner`) and the engine's per-lane
//! shards between rebalance epochs (`crate::engine`). Items are moved into the
//! workers (`T: Send`), so an engine epoch hands each thread its shard together
//! with the `&mut` workers lent to that lane alone: the borrow checker, not a
//! convention, keeps the threads' mutable state disjoint. Both users carry the
//! same proof obligation: parallel output bit-identical to the serial path.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Map `f` over `items` using up to `jobs` scoped worker threads, preserving input
/// order in the output. `jobs <= 1` runs inline on the calling thread (the exact
/// serial path, with no pool involved).
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // No update under these locks can stop halfway, so a poisoned lock still
    // holds valid data and is recovered rather than propagated.
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                // Pop under the lock, compute outside it.
                let next = queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop_front();
                let Some((index, item)) = next else { break };
                let out = f(item);
                results.lock().unwrap_or_else(PoisonError::into_inner)[index] = Some(out);
            });
        }
    });
    #[expect(clippy::expect_used, reason = "every item ran, or scope panicked")]
    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every queued item completes"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_order_and_runs_everything() {
        let items: Vec<usize> = (0..37).collect();
        let calls = AtomicUsize::new(0);
        let out = par_map(items.clone(), 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert_eq!(calls.load(Ordering::Relaxed), 37);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_maps_agree() {
        let items: Vec<u64> = (0..16).collect();
        let serial = par_map(items.clone(), 1, |i| i.wrapping_mul(0x9e3779b9) >> 7);
        let parallel = par_map(items, 5, |i| i.wrapping_mul(0x9e3779b9) >> 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn oversized_pools_do_not_deadlock_or_drop_work() {
        let out = par_map(vec![1, 2], 16, |i| i + 1);
        assert_eq!(out, vec![2, 3]);
        let empty: Vec<i32> = par_map(Vec::<i32>::new(), 4, |i| i);
        assert!(empty.is_empty());
    }
}
