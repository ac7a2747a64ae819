//! The shared compiled-plan representation: dense task-indexed Vose alias
//! tables emitted by controllers and consumed natively by the engine.
//!
//! # The compile-once contract
//!
//! Historically controllers handed the engine a
//! [`RoutingPlan`] — human-readable weighted tables
//! keyed by `HashMap` — and the engine re-lowered it into alias tables on every
//! routing refresh. That interpreted seam is gone: controllers now emit a
//! [`CompiledPlan`] directly through [`PlanBuilder`], and the engine installs
//! it as-is. The low-frequency planner produces *exactly* the artifact the
//! high-frequency data path samples from:
//!
//! * a frontend [`AliasTable`] over root-task workers;
//! * a dense `(upstream worker × child task) → table` index into a pool of
//!   alias tables, with the "no upstream-specific entry → per-task default"
//!   rule folded in at build time so a routed query costs one load and one
//!   uniform draw;
//! * per-task backup lists sorted by accuracy descending (stable, so
//!   equal-accuracy workers keep the emission order) for opportunistic
//!   rerouting.
//!
//! Plans are emitted from a worker-view snapshot taken in the same control
//! event that installs them, so entries need no per-draw validity checks while
//! that snapshot holds.
//!
//! # The staleness window
//!
//! A plan is valid as long as worker assignments do not change. The engine
//! tracks assignment changes with a monotonically increasing epoch; installing
//! a plan stamps it with the current epoch (the *plan-epoch validity handle*,
//! see [`CompiledPlan::epoch`]). In the window between an assignment change
//! (allocation applied, worker retired or migrated) and the next routing
//! refresh, the plan is *stale*: the engine falls back to scanning the plan's
//! retained raw weight vectors with full per-candidate runtime validity checks
//! (ownership, dispatchability, task match). That slow path is the only
//! surviving remnant of the interpreted seam.
//!
//! [`CompiledPlan::from_routing_plan`] lowers a legacy `HashMap` plan into the
//! compiled form for controllers (mostly test fixtures) that still build one.

use crate::types::{BackupWorker, RoutingPlan, WorkerId};
use rand::Rng;

/// A Vose alias table: samples an index from a discrete weighted distribution
/// with a single uniform draw and two array reads, independent of table size.
/// Entries are packed (probability, alias, worker per slot) so a sample touches
/// at most two adjacent cache lines.
#[derive(Debug, Clone, Default)]
pub struct AliasTable {
    entries: Vec<AliasEntry>,
}

#[derive(Debug, Clone, Copy)]
struct AliasEntry {
    /// Acceptance probability of this column.
    prob: f64,
    /// Worker returned when the draw accepts the column.
    worker: WorkerId,
    /// Index of the worker returned when the draw rejects the column.
    alias: u32,
}

impl AliasTable {
    /// Build a table from `(worker, weight)` pairs. Non-positive weights are
    /// skipped; weights need not be normalized. An empty result (no positive
    /// weights) is a valid table that always samples `None`.
    pub fn from_weights<I: IntoIterator<Item = (WorkerId, f64)>>(entries: I) -> AliasTable {
        let mut out = AliasTable::default();
        AliasTableBuilder::default().build_into(entries, &mut out);
        out
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries (always samples `None`).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sample a worker. Consumes exactly one uniform draw when the table is
    /// non-empty and none when it is empty.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<WorkerId> {
        let n = self.entries.len();
        if n == 0 {
            return None;
        }
        let x = rng.gen::<f64>() * n as f64;
        let i = (x as usize).min(n - 1);
        let frac = x - i as f64;
        let e = &self.entries[i];
        Some(if frac < e.prob {
            e.worker
        } else {
            self.entries[e.alias as usize].worker
        })
    }
}

/// Scratch space for Vose table construction, reusable across builds so
/// plan emission does not allocate for table construction.
#[derive(Debug, Default)]
pub struct AliasTableBuilder {
    filtered: Vec<(WorkerId, f64)>,
    prob: Vec<f64>,
    alias: Vec<u32>,
    small: Vec<u32>,
    large: Vec<u32>,
}

impl AliasTableBuilder {
    /// Build the alias table for `entries` into `out` (cleared first), using
    /// Vose's algorithm: split the scaled weights into under- and over-full
    /// columns, then repeatedly top up an under-full column from an over-full
    /// one. Non-positive weights are skipped.
    pub fn build_into<I: IntoIterator<Item = (WorkerId, f64)>>(
        &mut self,
        entries: I,
        out: &mut AliasTable,
    ) {
        out.entries.clear();
        self.filtered.clear();
        self.filtered.extend(
            entries
                .into_iter()
                .filter(|(_, w)| *w > 0.0 && w.is_finite()),
        );
        let n = self.filtered.len();
        let total: f64 = self.filtered.iter().map(|(_, w)| *w).sum();
        if n == 0 || total <= 0.0 {
            return;
        }
        self.prob.clear();
        self.prob
            .extend(self.filtered.iter().map(|(_, w)| *w * n as f64 / total));
        self.alias.clear();
        self.alias.extend(0..n as u32);
        self.small.clear();
        self.large.clear();
        for (i, &p) in self.prob.iter().enumerate() {
            if p < 1.0 {
                self.small.push(i as u32);
            } else {
                self.large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (self.small.last(), self.large.last()) {
            self.small.pop();
            self.alias[s as usize] = l;
            // Move the deficit of column `s` out of column `l`.
            self.prob[l as usize] -= 1.0 - self.prob[s as usize];
            if self.prob[l as usize] < 1.0 {
                self.large.pop();
                self.small.push(l);
            }
        }
        // Numerical leftovers are exactly-full columns.
        for &i in self.small.iter().chain(self.large.iter()) {
            self.prob[i as usize] = 1.0;
        }
        out.entries
            .extend(self.filtered.iter().zip(&self.prob).zip(&self.alias).map(
                |(((worker, _), &prob), &alias)| AliasEntry {
                    prob,
                    worker: *worker,
                    alias,
                },
            ));
    }
}

const NO_TABLE: u32 = u32::MAX;

/// Sort key that pushes NaN accuracies to the end of a descending sort.
#[inline]
fn nan_last(v: f64) -> f64 {
    if v.is_nan() {
        f64::NEG_INFINITY
    } else {
        v
    }
}

/// One downstream table: the alias form sampled on the fresh fast path plus
/// the raw weights it was built from, retained for the staleness-window scan.
#[derive(Debug, Clone, Default)]
struct PlanTable {
    alias: AliasTable,
    raw: Vec<(WorkerId, f64)>,
}

/// A routing plan in the engine's native dense compiled form.
///
/// Built by controllers through [`PlanBuilder`] (or lowered from a legacy
/// [`RoutingPlan`] via [`CompiledPlan::from_routing_plan`]) and installed by
/// the engine verbatim. See the module docs for the compile-once contract and
/// the staleness window.
#[derive(Debug, Clone, Default)]
pub struct CompiledPlan {
    /// The assignment epoch this plan is valid for (stamped at install time).
    epoch: u64,
    num_tasks: usize,
    /// Number of upstream-worker rows in `downstream`.
    rows: usize,
    /// Alias table over root-task workers used by the frontend.
    frontend: AliasTable,
    /// Raw frontend weights, retained for the staleness-window scan.
    frontend_raw: Vec<(WorkerId, f64)>,
    /// Dense `(upstream worker × child task) -> tables` index (`NO_TABLE` =
    /// no table → queue-length fallback); the "missing entry → per-task
    /// default" rule is folded in by [`PlanBuilder::finish`].
    downstream: Vec<u32>,
    /// Per child task: the default table index (`NO_TABLE` = none). Kept
    /// after folding for workers beyond `rows` (an elastic fleet can grow
    /// between emissions).
    task_default: Vec<u32>,
    tables: Vec<PlanTable>,
    /// Per task: backup workers, sorted by accuracy descending (stable, so
    /// equal-accuracy workers keep the emission order — exec-time ascending
    /// for every in-tree controller).
    backup: Vec<Vec<BackupWorker>>,
}

impl CompiledPlan {
    /// Lower a legacy `HashMap`-keyed plan into the compiled form. Entries
    /// are taken at face value (no fleet filtering): a controller is expected
    /// to emit plans from the worker views it was handed, and the engine's
    /// delivery-time validity recheck catches anything that drifts.
    pub fn from_routing_plan(plan: &RoutingPlan, num_tasks: usize) -> CompiledPlan {
        let mut b = PlanBuilder::default();
        b.begin(num_tasks);
        for &(w, weight) in &plan.frontend {
            b.push_frontend(w, weight);
        }
        for (&(up, child), table) in &plan.downstream {
            if child >= num_tasks {
                continue;
            }
            b.set_downstream(up, child, table);
        }
        for (&child, table) in &plan.downstream_default {
            if child >= num_tasks {
                continue;
            }
            b.set_default(child, table);
        }
        for (&task, list) in &plan.backup {
            if task >= num_tasks {
                continue;
            }
            for &bw in list {
                b.push_backup(task, bw);
            }
        }
        b.finish()
    }

    /// The assignment epoch this plan was installed under; the engine compares
    /// it against the live epoch to decide fresh fast path vs. stale scan.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of child tasks this plan was emitted for.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Stamp the plan with the installing lane's assignment epoch and make
    /// sure every fleet slot has a dense row (a plan emitted from views never
    /// mentions workers it has not seen; those rows fold to the per-task
    /// default, exactly like the legacy `HashMap` default lookup).
    pub(crate) fn finalize(&mut self, fleet_len: usize, epoch: u64) {
        while self.rows < fleet_len {
            self.downstream.extend_from_slice(&self.task_default);
            self.rows += 1;
        }
        self.epoch = epoch;
    }

    /// Alias table over root-task workers sampled by the frontend.
    #[inline]
    pub fn frontend(&self) -> &AliasTable {
        &self.frontend
    }

    /// Raw frontend weights, for the staleness-window scan.
    #[inline]
    pub fn frontend_raw(&self) -> &[(WorkerId, f64)] {
        &self.frontend_raw
    }

    /// The table to sample for traffic from `upstream` toward `child_task`:
    /// the upstream-specific table if the plan had one (even if it is empty —
    /// an empty table means "drop to the queue-length fallback", not "use the
    /// default"), otherwise the per-task default. The fallback rule is folded
    /// in at build time, so this is one load.
    #[inline]
    pub fn downstream_table(&self, upstream: WorkerId, child_task: usize) -> Option<&AliasTable> {
        // Bounds first: a plan emitted for fewer tasks than the caller's graph
        // must miss cleanly, not alias another row's slot.
        if child_task >= self.num_tasks {
            return None;
        }
        // `get`, not indexing: an elastic fleet can grow between emissions,
        // and a worker provisioned after install has no row yet (it also has
        // no plan entries, so "no table → queue-length fallback" is right).
        let idx = *self
            .downstream
            .get(upstream.index() * self.num_tasks + child_task)?;
        if idx == NO_TABLE {
            None
        } else {
            Some(&self.tables[idx as usize].alias)
        }
    }

    /// Raw weights behind [`Self::downstream_table`], for the staleness-window
    /// scan. Workers beyond the dense rows resolve to the per-task default.
    #[inline]
    pub fn raw_downstream(
        &self,
        upstream: WorkerId,
        child_task: usize,
    ) -> Option<&[(WorkerId, f64)]> {
        if child_task >= self.num_tasks {
            return None;
        }
        let idx = if upstream.index() < self.rows {
            *self
                .downstream
                .get(upstream.index() * self.num_tasks + child_task)?
        } else {
            *self.task_default.get(child_task)?
        };
        if idx == NO_TABLE {
            None
        } else {
            Some(&self.tables[idx as usize].raw)
        }
    }

    /// Backup workers for `task`, accuracy-descending. Served to both the
    /// fresh rerouting scan and the staleness-window tie-break.
    #[inline]
    pub fn backup(&self, task: usize) -> &[BackupWorker] {
        self.backup.get(task).map_or(&[], Vec::as_slice)
    }
}

/// Incremental builder for [`CompiledPlan`]s.
///
/// A controller keeps one builder alive across refreshes so the Vose scratch
/// is reused; each `begin` → (`push_frontend` | `set_downstream` |
/// `set_default` | `push_backup`)* → `finish` cycle emits one plan. `finish`
/// builds the frontend alias table, sorts the backup lists, and folds the
/// per-task defaults into the dense downstream index.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    alias: AliasTableBuilder,
    plan: CompiledPlan,
}

impl PlanBuilder {
    /// Start a new plan for a pipeline of `num_tasks` tasks. Rows for
    /// upstream workers are grown on demand by [`Self::set_downstream`].
    pub fn begin(&mut self, num_tasks: usize) {
        let p = &mut self.plan;
        p.epoch = 0;
        p.num_tasks = num_tasks;
        p.rows = 0;
        p.frontend = AliasTable::default();
        p.frontend_raw.clear();
        p.downstream.clear();
        p.task_default.clear();
        p.task_default.resize(num_tasks, NO_TABLE);
        p.tables.clear();
        p.backup.resize_with(num_tasks, Vec::new);
        p.backup.truncate(num_tasks);
        for list in p.backup.iter_mut() {
            list.clear();
        }
    }

    /// Add a weighted root-task worker to the frontend table.
    pub fn push_frontend(&mut self, worker: WorkerId, weight: f64) {
        self.plan.frontend_raw.push((worker, weight));
    }

    /// Install the weighted table for traffic from `upstream` toward
    /// `child_task`. An explicitly installed empty table means "queue-length
    /// fallback", shadowing any per-task default.
    pub fn set_downstream(
        &mut self,
        upstream: WorkerId,
        child_task: usize,
        entries: &[(WorkerId, f64)],
    ) {
        debug_assert!(child_task < self.plan.num_tasks);
        let nt = self.plan.num_tasks;
        while self.plan.rows <= upstream.index() {
            let start = self.plan.downstream.len();
            self.plan.downstream.resize(start + nt, NO_TABLE);
            self.plan.rows += 1;
        }
        let idx = self.alloc_table(entries);
        self.plan.downstream[upstream.index() * nt + child_task] = idx;
    }

    /// Install the per-task default table used for upstream workers with no
    /// specific entry.
    pub fn set_default(&mut self, child_task: usize, entries: &[(WorkerId, f64)]) {
        debug_assert!(child_task < self.plan.num_tasks);
        let idx = self.alloc_table(entries);
        self.plan.task_default[child_task] = idx;
    }

    /// Append a backup worker for `task`. Push in exec-time-ascending order;
    /// `finish` stable-sorts by accuracy descending, so equal-accuracy
    /// workers keep that order.
    pub fn push_backup(&mut self, task: usize, backup: BackupWorker) {
        debug_assert!(task < self.plan.num_tasks);
        self.plan.backup[task].push(backup);
    }

    fn alloc_table(&mut self, entries: &[(WorkerId, f64)]) -> u32 {
        let mut t = PlanTable {
            alias: AliasTable::default(),
            raw: entries.to_vec(),
        };
        self.alias.build_into(entries.iter().copied(), &mut t.alias);
        let idx = self.plan.tables.len() as u32;
        self.plan.tables.push(t);
        idx
    }

    /// Finish the plan: build the frontend alias table, stable-sort backup
    /// lists by accuracy descending, and fold the per-task defaults into the
    /// dense downstream index so the per-query lookup is a single load.
    pub fn finish(&mut self) -> CompiledPlan {
        let p = &mut self.plan;
        let mut frontend = std::mem::take(&mut p.frontend);
        self.alias
            .build_into(p.frontend_raw.iter().copied(), &mut frontend);
        p.frontend = frontend;
        for list in p.backup.iter_mut() {
            list.sort_by(|a, b| nan_last(b.accuracy).total_cmp(&nan_last(a.accuracy)));
        }
        for row in p.downstream.chunks_mut(p.num_tasks.max(1)) {
            for (slot, &default) in row.iter_mut().zip(&p.task_default) {
                if *slot == NO_TABLE {
                    *slot = default;
                }
            }
        }
        std::mem::take(&mut self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn w(i: usize) -> WorkerId {
        WorkerId(i)
    }

    #[test]
    fn empty_table_samples_none() {
        let t = AliasTable::from_weights(Vec::<(WorkerId, f64)>::new());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(t.is_empty());
        assert_eq!(t.sample(&mut rng), None);
        let t = AliasTable::from_weights(vec![(w(0), 0.0), (w(1), -2.0)]);
        assert!(t.is_empty());
    }

    #[test]
    fn single_entry_always_wins() {
        let t = AliasTable::from_weights(vec![(w(3), 0.25)]);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), Some(w(3)));
        }
    }

    #[test]
    fn sampling_matches_weights() {
        // Weights 1:2:7 over three workers.
        let t = AliasTable::from_weights(vec![(w(0), 1.0), (w(1), 2.0), (w(2), 7.0)]);
        assert_eq!(t.len(), 3);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[t.sample(&mut rng).unwrap().index()] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - 0.1).abs() < 0.01, "{}", frac(0));
        assert!((frac(1) - 0.2).abs() < 0.01, "{}", frac(1));
        assert!((frac(2) - 0.7).abs() < 0.01, "{}", frac(2));
    }

    #[test]
    fn uniform_weights_are_uniform() {
        let t = AliasTable::from_weights((0..8).map(|i| (w(i), 1.0)));
        let mut rng = StdRng::seed_from_u64(4);
        let n = 80_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            counts[t.sample(&mut rng).unwrap().index()] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.125).abs() < 0.01, "{frac}");
        }
    }

    #[test]
    fn skewed_weights_do_not_lose_rare_entries() {
        let t = AliasTable::from_weights(vec![(w(0), 1e-6), (w(1), 1.0)]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen_rare = false;
        for _ in 0..5_000_000 {
            if t.sample(&mut rng) == Some(w(0)) {
                seen_rare = true;
                break;
            }
        }
        assert!(seen_rare, "rare entry should still be sampled");
    }

    #[test]
    fn default_tables_fold_into_unset_slots_only() {
        let mut b = PlanBuilder::default();
        b.begin(2);
        // Worker 0 gets an explicit (empty) table for task 1; worker 1 gets
        // nothing and should inherit the default.
        b.set_downstream(w(0), 1, &[]);
        b.set_downstream(w(1), 0, &[(w(0), 1.0)]);
        b.set_default(1, &[(w(5), 1.0)]);
        let mut plan = b.finish();
        plan.finalize(4, 7);
        assert_eq!(plan.epoch(), 7);

        // Explicit-but-empty shadows the default: sampling yields None.
        let mut rng = StdRng::seed_from_u64(9);
        let t = plan.downstream_table(w(0), 1).expect("explicit table");
        assert!(t.is_empty());
        assert_eq!(t.sample(&mut rng), None);
        assert_eq!(plan.raw_downstream(w(0), 1), Some(&[][..]));

        // No explicit entry → the default table.
        let t = plan.downstream_table(w(1), 1).expect("default table");
        assert_eq!(t.sample(&mut rng), Some(w(5)));
        // Rows grown by finalize (worker 2, 3) fold to the default too.
        let t = plan.downstream_table(w(3), 1).expect("grown default row");
        assert_eq!(t.sample(&mut rng), Some(w(5)));
        // ...and so do workers beyond the dense rows on the stale path.
        assert_eq!(plan.raw_downstream(w(9), 1), Some(&[(w(5), 1.0)][..]));
        // No default for task 0 → queue fallback.
        assert!(plan.downstream_table(w(1), 0).is_some());
        assert!(plan.downstream_table(w(3), 0).is_none());
        assert!(plan.raw_downstream(w(9), 0).is_none());
    }

    #[test]
    fn backups_sort_accuracy_descending_stable() {
        let bw = |i: usize, exec: f64, acc: f64| BackupWorker {
            worker: w(i),
            exec_time_ms: exec,
            accuracy: acc,
        };
        let mut b = PlanBuilder::default();
        b.begin(1);
        // Pushed exec-ascending; ties on accuracy must keep that order.
        b.push_backup(0, bw(1, 1.0, 0.8));
        b.push_backup(0, bw(2, 2.0, 0.9));
        b.push_backup(0, bw(3, 3.0, 0.8));
        b.push_backup(0, bw(4, 4.0, f64::NAN));
        let plan = b.finish();
        let ids: Vec<usize> = plan.backup(0).iter().map(|b| b.worker.index()).collect();
        assert_eq!(ids, vec![2, 1, 3, 4]);
        assert!(plan.backup(1).is_empty());
    }

    #[test]
    fn lowering_matches_builder_emission() {
        use std::collections::HashMap;
        let mut plan = RoutingPlan {
            frontend: vec![(w(0), 2.0), (w(1), 1.0)],
            ..RoutingPlan::default()
        };
        plan.downstream
            .insert((w(0), 1), vec![(w(2), 1.0), (w(3), 3.0)]);
        plan.downstream_default.insert(1, vec![(w(2), 1.0)]);
        plan.backup = HashMap::new();
        let mut compiled = CompiledPlan::from_routing_plan(&plan, 2);
        compiled.finalize(4, 1);

        let mut b = PlanBuilder::default();
        b.begin(2);
        b.push_frontend(w(0), 2.0);
        b.push_frontend(w(1), 1.0);
        b.set_downstream(w(0), 1, &[(w(2), 1.0), (w(3), 3.0)]);
        b.set_default(1, &[(w(2), 1.0)]);
        let mut emitted = b.finish();
        emitted.finalize(4, 1);

        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert_eq!(
                compiled.frontend().sample(&mut rng_a),
                emitted.frontend().sample(&mut rng_b)
            );
            let ta = compiled.downstream_table(w(0), 1).unwrap();
            let tb = emitted.downstream_table(w(0), 1).unwrap();
            assert_eq!(ta.sample(&mut rng_a), tb.sample(&mut rng_b));
            let ta = compiled.downstream_table(w(3), 1).unwrap();
            let tb = emitted.downstream_table(w(3), 1).unwrap();
            assert_eq!(ta.sample(&mut rng_a), tb.sample(&mut rng_b));
        }
    }
}
