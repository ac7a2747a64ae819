//! Round-trip property test for the plan-emission API (the compile-once contract).
//!
//! The controller-built [`CompiledPlan`] (emitted in place through `PlanBuilder`) must
//! sample *identically* — same RNG stream, same worker sequence — to the interpreted
//! reference of Algorithm 1 below ([`reference_plan`]: `HashMap`-keyed tables, lowered
//! through `PlanBuilder` at the end) for the same inputs. This pins the dense emission
//! path to that reference across randomized worker assignments, batches, swap flags,
//! demands, and fan-out overrides.

use loki_core::perf::{effective_fanout, FanoutOverrides};
use loki_core::MostAccurateFirst;
use loki_pipeline::{zoo, PipelineGraph, TaskId, VariantId};
use loki_sim::routing::more_accurate_first;
use loki_sim::{BackupWorker, CompiledPlan, PlanBuilder, WorkerId, WorkerView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One worker's routing state in the reference.
struct WorkerState {
    id: WorkerId,
    variant: VariantId,
    accuracy: f64,
    capacity: f64,
    capacity_left: f64,
    incoming: f64,
    exec_time_ms: f64,
}

/// Algorithm 1 (`MostAccurateFirst`) as an interpreted reference: it groups
/// workers and builds the `(upstream, child)` tables in `HashMap`s with no
/// scratch reuse, then lowers them through `PlanBuilder`.
fn reference_plan(
    graph: &PipelineGraph,
    workers: &[WorkerView],
    demand_qps: f64,
    fanout: &FanoutOverrides,
) -> CompiledPlan {
    // Group workers by task, sorted most-accurate-first (ties by id).
    let mut by_task: HashMap<usize, Vec<WorkerState>> = HashMap::new();
    for w in workers {
        let Some(variant) = w.variant else { continue };
        if w.swapping {
            continue;
        }
        let profile = graph.variant(variant);
        let capacity = profile.throughput_qps(w.max_batch);
        by_task.entry(variant.task).or_default().push(WorkerState {
            id: w.id,
            variant,
            accuracy: profile.accuracy,
            capacity,
            capacity_left: capacity,
            incoming: 0.0,
            exec_time_ms: profile.batch_latency_ms(w.max_batch),
        });
    }
    for states in by_task.values_mut() {
        states.sort_by(|a, b| more_accurate_first(a.accuracy, b.accuracy).then(a.id.cmp(&b.id)));
    }

    // Frontend: pour the root demand into the root task's workers.
    let mut frontend = Vec::new();
    if let Some(states) = by_task.get_mut(&graph.root().index()) {
        for (id, routed) in saturate(states, demand_qps) {
            if routed > 0.0 {
                frontend.push((id, routed));
            }
        }
    }

    // Walk tasks in topological order, assigning each worker's outgoing traffic to
    // downstream workers most-accurate-first.
    let mut downstream: HashMap<(WorkerId, usize), Vec<(WorkerId, f64)>> = HashMap::new();
    for &task_id in graph.topological_order() {
        let children: Vec<TaskId> = graph
            .task(task_id)
            .children
            .iter()
            .map(|e| e.child)
            .collect();
        let upstream: Vec<(WorkerId, VariantId, f64)> = by_task
            .get(&task_id.index())
            .map(|states| {
                states
                    .iter()
                    .map(|s| (s.id, s.variant, s.incoming))
                    .collect()
            })
            .unwrap_or_default();
        for (worker_id, variant, incoming) in upstream {
            for &child in &children {
                let outgoing = incoming * effective_fanout(graph, variant, child, fanout);
                let Some(child_states) = by_task.get_mut(&child.index()) else {
                    continue;
                };
                let assignments = saturate(child_states, outgoing);
                let total: f64 = assignments.iter().map(|(_, r)| r).sum();
                if total <= 0.0 {
                    continue;
                }
                let table = assignments
                    .into_iter()
                    .filter(|(_, r)| *r > 0.0)
                    .map(|(id, r)| (id, r / total))
                    .collect();
                downstream.insert((worker_id, child.index()), table);
            }
        }
    }

    // Lower through `PlanBuilder`. Per task: a default table proportional to
    // capacity, and the workers with leftover capacity as backups, fastest
    // first (`PlanBuilder::finish` then stable-sorts them most accurate first).
    let mut plan = PlanBuilder::default();
    plan.begin(graph.num_tasks());
    for &(worker, weight) in &frontend {
        plan.push_frontend(worker, weight);
    }
    for (&(upstream, child), table) in &downstream {
        plan.set_downstream(upstream, child, table);
    }
    let nan_slowest = |v: f64| if v.is_nan() { f64::INFINITY } else { v };
    for (&task, states) in &by_task {
        let default: Vec<(WorkerId, f64)> = states
            .iter()
            .map(|s| (s.id, s.capacity.max(1e-9)))
            .collect();
        plan.set_default(task, &default);
        let mut backups: Vec<BackupWorker> = states
            .iter()
            .filter(|s| s.capacity_left > 1e-6)
            .map(|s| BackupWorker {
                worker: s.id,
                exec_time_ms: s.exec_time_ms,
                accuracy: s.accuracy,
            })
            .collect();
        backups.sort_by(|a, b| nan_slowest(a.exec_time_ms).total_cmp(&nan_slowest(b.exec_time_ms)));
        for worker in backups {
            plan.push_backup(task, worker);
        }
    }
    plan.finish()
}

/// Pour `demand` into the accuracy-sorted workers, saturating each in turn;
/// demand beyond the total remaining capacity is spread in proportion to
/// capacity. Returns `(worker, routed)` for every worker.
fn saturate(states: &mut [WorkerState], demand: f64) -> Vec<(WorkerId, f64)> {
    let mut out: Vec<(WorkerId, f64)> = states.iter().map(|s| (s.id, 0.0)).collect();
    if demand <= 0.0 || states.is_empty() {
        return out;
    }
    let mut remaining = demand;
    for (i, s) in states.iter_mut().enumerate() {
        if remaining <= 0.0 {
            break;
        }
        let routed = remaining.min(s.capacity_left);
        if routed > 0.0 {
            s.capacity_left -= routed;
            s.incoming += routed;
            out[i].1 += routed;
            remaining -= routed;
        }
    }
    if remaining > 1e-9 {
        let total_capacity: f64 = states.iter().map(|s| s.capacity).sum();
        if total_capacity > 0.0 {
            for (i, s) in states.iter_mut().enumerate() {
                let share = remaining * s.capacity / total_capacity;
                s.incoming += share;
                out[i].1 += share;
            }
        }
    }
    out
}

fn random_workers(g: &PipelineGraph, rng: &mut StdRng) -> Vec<WorkerView> {
    let cluster = rng.gen_range(0..24usize);
    let batches = [1u32, 2, 4, 8];
    (0..cluster)
        .map(|id| {
            let variant = if rng.gen_bool(0.15) {
                None
            } else {
                let t = rng.gen_range(0..g.num_tasks());
                let v = rng.gen_range(0..g.task(TaskId(t)).variants.len());
                Some(VariantId::new(t, v))
            };
            WorkerView {
                id: WorkerId(id),
                variant,
                max_batch: batches[rng.gen_range(0..batches.len())],
                queue_len: rng.gen_range(0..5),
                swapping: rng.gen_bool(0.1),
            }
        })
        .collect()
}

fn random_fanout(g: &PipelineGraph, rng: &mut StdRng) -> FanoutOverrides {
    let mut fanout = FanoutOverrides::new();
    for (task_id, task) in g.tasks() {
        for edge in &task.children {
            if rng.gen_bool(0.3) {
                let v = rng.gen_range(0..task.variants.len());
                fanout.insert(
                    (VariantId::new(task_id.index(), v), edge.child.index()),
                    rng.gen_range(0.2..3.0),
                );
            }
        }
    }
    fanout
}

/// Draw `n` samples from the frontend tables of both plans with identical RNG
/// streams and assert the worker sequences match.
fn assert_frontend_matches(a: &CompiledPlan, b: &CompiledPlan, seed: u64) {
    let mut ra = StdRng::seed_from_u64(seed);
    let mut rb = StdRng::seed_from_u64(seed);
    for i in 0..512 {
        assert_eq!(
            a.frontend().sample(&mut ra),
            b.frontend().sample(&mut rb),
            "frontend sample {i} diverged"
        );
    }
    assert_eq!(a.frontend_raw(), b.frontend_raw());
}

/// Compare the downstream table for one (upstream, child) slot: same presence,
/// same sample stream, same raw fallback rows.
fn assert_slot_matches(a: &CompiledPlan, b: &CompiledPlan, up: WorkerId, child: usize, seed: u64) {
    let ta = a.downstream_table(up, child);
    let tb = b.downstream_table(up, child);
    assert_eq!(
        ta.is_some(),
        tb.is_some(),
        "table presence diverged at ({up:?}, {child})"
    );
    if let (Some(ta), Some(tb)) = (ta, tb) {
        let mut ra = StdRng::seed_from_u64(seed);
        let mut rb = StdRng::seed_from_u64(seed);
        for i in 0..256 {
            assert_eq!(
                ta.sample(&mut ra),
                tb.sample(&mut rb),
                "sample {i} diverged at ({up:?}, {child})"
            );
        }
    }
    assert_eq!(
        a.raw_downstream(up, child),
        b.raw_downstream(up, child),
        "stale-path raw rows diverged at ({up:?}, {child})"
    );
}

fn check_roundtrip(g: &PipelineGraph, trial_seed: u64) {
    let mut rng = StdRng::seed_from_u64(trial_seed);
    let workers = random_workers(g, &mut rng);
    let fanout = random_fanout(g, &mut rng);
    let demand = rng.gen_range(0.0..600.0);

    let lowered = reference_plan(g, &workers, demand, &fanout);
    let mut lb = MostAccurateFirst::default();
    let emitted = lb.emit(g, &workers, demand, &fanout);

    assert_eq!(emitted.num_tasks(), lowered.num_tasks());
    assert_frontend_matches(&emitted, &lowered, trial_seed ^ 0xF00D);

    // Every slot the reference populated, plus a fringe of absent upstreams
    // (exercising the per-task default fold and the beyond-rows extension) and
    // absent children.
    let max_up = workers.len() + 2;
    for up in 0..max_up {
        for child in 0..g.num_tasks() {
            assert_slot_matches(
                &emitted,
                &lowered,
                WorkerId(up),
                child,
                trial_seed ^ ((up as u64) << 20) ^ child as u64,
            );
        }
    }

    // Backup tables must agree exactly (same workers, same order) so the
    // opportunistic-rerouting scan behaves identically on both plans.
    for t in 0..g.num_tasks() {
        assert_eq!(
            emitted.backup(t),
            lowered.backup(t),
            "backup diverged at {t}"
        );
    }
}

#[test]
fn emitted_plan_samples_identically_to_lowered_legacy_plan() {
    let tiny = zoo::tiny_pipeline(100.0);
    let traffic = zoo::traffic_analysis_pipeline(250.0);
    for trial in 0..40u64 {
        check_roundtrip(&tiny, 0x51AB_0000 + trial);
        check_roundtrip(&traffic, 0x7EA1_0000 + trial);
    }
}

#[test]
fn roundtrip_holds_for_empty_and_degenerate_clusters() {
    let g = zoo::tiny_pipeline(100.0);
    // Empty cluster.
    check_roundtrip(&g, u64::MAX);
    let lowered = reference_plan(&g, &[], 100.0, &FanoutOverrides::new());
    let mut lb = MostAccurateFirst::default();
    let emitted = lb.emit(&g, &[], 100.0, &FanoutOverrides::new());
    let mut rng = StdRng::seed_from_u64(7);
    assert_eq!(emitted.frontend().sample(&mut rng), None);
    assert_eq!(lowered.frontend().sample(&mut rng), None);
    // Zero demand on a populated cluster still produces matching (empty) tables.
    let mut rng = StdRng::seed_from_u64(8);
    let workers = random_workers(&g, &mut rng);
    let lowered = reference_plan(&g, &workers, 0.0, &FanoutOverrides::new());
    let emitted = lb.emit(&g, &workers, 0.0, &FanoutOverrides::new());
    assert_frontend_matches(&emitted, &lowered, 9);
    for up in 0..workers.len() {
        for child in 0..g.num_tasks() {
            assert_slot_matches(&emitted, &lowered, WorkerId(up), child, 10 + up as u64);
        }
    }
}
