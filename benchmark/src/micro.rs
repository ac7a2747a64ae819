//! Microbenchmarks of single layers through their public API.
//!
//! Each timing is the median over several batches of the per-operation cost;
//! inputs and results pass through `black_box` so the compiler cannot fold
//! the measured work away. These numbers attribute an end-to-end change to a
//! layer; they are not end-to-end metrics themselves.

use crate::stats;
use loki_core::allocator::AllocationContext;
use loki_core::milp_alloc::MilpAllocator;
use loki_core::perf::{FanoutOverrides, PerfModel};
use loki_core::MostAccurateFirst;
use loki_milp::SolveOptions;
use loki_pipeline::{zoo, AugmentedGraph, PipelineGraph, TaskId, VariantId};
use loki_sim::{
    AliasTable, CalendarGeometry, CalendarQueue, DropPolicy, Histogram, HopBudgets, Slab, WorkerId,
    WorkerView,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per microbenchmark (the median is reported).
const BATCHES: usize = 7;
/// Events in flight in the calendar replay and slots live in the slab replay:
/// the order of a loaded lane's in-flight queries.
const LIVE: usize = 4096;

/// Median nanoseconds per operation of `step(ops)` over [`BATCHES`] batches,
/// after one untimed batch. Unit tests run unoptimised, so they take fewer.
fn ns_per_op(ops: usize, mut step: impl FnMut(usize)) -> f64 {
    let ops = if cfg!(test) { (ops / 256).max(1) } else { ops };
    step(ops);
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            step(ops);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&per_op)
}

/// Push/pop cost of the calendar queue in a hold model: pop the earliest
/// event, schedule its successor one hop later, with hops replayed from
/// `hops_us` and the wheel sized for their range as the engine sizes it.
pub fn calendar_push_pop_ns(hops_us: &[u64]) -> f64 {
    let min = *hops_us.iter().min().expect("hops");
    let max = *hops_us.iter().max().expect("hops");
    let (shift, buckets) = CalendarGeometry::Auto.resolve_for_range(min, max);
    let mut queue: CalendarQueue<u32> = CalendarQueue::new(shift, buckets);
    let mut rng = StdRng::seed_from_u64(1);
    let mut seq = 0u64;
    for item in 0..LIVE as u32 {
        seq += 1;
        queue.push(rng.gen_range(0..max), seq, item);
    }
    let mut k = 0usize;
    ns_per_op(1 << 20, |ops| {
        for _ in 0..ops {
            let (time, _, item) = queue.pop().expect("the hold model never drains");
            seq += 1;
            queue.push(time + hops_us[k % hops_us.len()], seq, black_box(item));
            k += 1;
        }
    })
}

/// Hop sequences for the calendar replay: the uniform testbed's 2 ms hops,
/// and the two-tier interconnect's 0.2 ms / 5 ms mix (half the hops cross
/// the class boundary).
pub fn hop_mix(two_tier: bool) -> Vec<u64> {
    if !two_tier {
        return vec![2_000];
    }
    let mut rng = StdRng::seed_from_u64(2);
    (0..LIVE)
        .map(|_| if rng.gen_bool(0.5) { 200 } else { 5_000 })
        .collect()
}

/// One weighted routing draw from a 64-worker alias table.
pub fn alias_sample_ns() -> f64 {
    let table = AliasTable::from_weights((0..64).map(|i| (WorkerId(i), 1.0 + (i % 5) as f64)));
    let mut rng = StdRng::seed_from_u64(3);
    let mut sum = 0usize;
    let ns = ns_per_op(1 << 20, |ops| {
        for _ in 0..ops {
            sum += table.sample(&mut rng).map_or(0, |w| w.index());
        }
    });
    black_box(sum);
    ns
}

/// One insert plus one remove on a slab holding [`LIVE`] root-sized values,
/// freeing the oldest slot each time (FIFO, as queries complete).
pub fn slab_insert_remove_ns() -> f64 {
    let mut slab: Slab<[u64; 6]> = Slab::with_capacity(LIVE);
    let mut ring: Vec<_> = (0..LIVE as u64).map(|i| slab.insert([i; 6])).collect();
    let mut k = 0usize;
    ns_per_op(1 << 20, |ops| {
        for _ in 0..ops {
            let slot = k % LIVE;
            let value = slab.remove(ring[slot]).expect("live slot");
            ring[slot] = slab.insert(black_box(value));
            k += 1;
        }
    })
}

/// One latency record into an HDR histogram, latencies spread over
/// 20–150 ms as the simulated queries' are.
pub fn hist_record_ns() -> f64 {
    let mut rng = StdRng::seed_from_u64(4);
    let values: Vec<u64> = (0..LIVE)
        .map(|_| (20_000.0 * (rng.gen::<f64>() * 2.0).exp()) as u64)
        .collect();
    let mut hist = Histogram::new();
    let mut k = 0usize;
    let ns = ns_per_op(1 << 21, |ops| {
        for _ in 0..ops {
            hist.record(values[k % LIVE]);
            k += 1;
        }
    });
    black_box(hist.count());
    ns
}

/// One `MostAccurateFirst::emit` of the traffic pipeline's routing plan on a
/// 64-worker assignment that hosts the two most accurate variants of every
/// task, in microseconds.
pub fn plan_emit_us() -> f64 {
    let graph = zoo::traffic_analysis_pipeline(250.0);
    let tasks = graph.num_tasks();
    let workers: Vec<WorkerView> = (0..64)
        .map(|i| {
            let order = graph.task(TaskId(i % tasks)).variants_by_accuracy_desc();
            let variant = order[((i / tasks) % 2).min(order.len() - 1)];
            WorkerView {
                id: WorkerId(i),
                variant: Some(VariantId::new(i % tasks, variant)),
                max_batch: 8,
                queue_len: 0,
                swapping: false,
            }
        })
        .collect();
    let fanout = FanoutOverrides::new();
    let mut lb = MostAccurateFirst::default();
    ns_per_op(512, |ops| {
        for _ in 0..ops {
            black_box(lb.emit(&graph, &workers, black_box(2000.0), &fanout));
        }
    }) / 1e3
}

/// Results of the MILP microbenchmark, summed over both pipelines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MilpRun {
    pub solve_s: f64,
    pub nodes: usize,
    pub simplex_iters: usize,
    pub problems: Vec<String>,
}

/// Solves per pipeline; the counts of every solve must agree.
const MILP_REPS: usize = 2;

/// The accuracy-scaling MILP on the paper's 20 workers, solved with a node
/// limit but no wall-clock limit, no warm start and no branch priority, so
/// the search (and its node and iteration counts) cannot depend on host
/// speed or on `HashMap` order. Social runs at 1.3× its hardware-scaling
/// capacity; traffic at 0.7×, because past about 0.9× its model finds no
/// incumbent within the node limit without the allocator's greedy warm start.
pub fn milp() -> MilpRun {
    let options = SolveOptions {
        node_limit: 2_000,
        time_limit: Duration::from_secs(24 * 3600),
        mip_gap: 5e-3,
        heuristic_frequency: 10,
        ..SolveOptions::default()
    };
    let fanout = FanoutOverrides::new();
    let mut run = MilpRun::default();
    let pipelines: [(&str, PipelineGraph, f64); 2] = [
        ("traffic", zoo::traffic_analysis_pipeline(250.0), 0.7),
        ("social", zoo::social_media_pipeline(250.0), 1.3),
    ];
    for (name, graph, load) in &pipelines {
        let best: Vec<usize> = graph
            .tasks()
            .map(|(_, t)| t.most_accurate_variant())
            .collect();
        let capacity = PerfModel::new(graph, 2.0, 2.0).max_servable_demand(&best, 20, &fanout);
        let ctx = AllocationContext {
            graph,
            cluster_size: 20,
            demand_qps: load * capacity,
            fanout: &fanout,
            drop_policy: DropPolicy::OpportunisticRerouting,
            slo_divisor: 2.0,
            budgets: HopBudgets::uniform(2.0, graph.num_tasks()),
            upgrade_with_leftover: true,
        };
        let aug = AugmentedGraph::new(graph);
        let mut times = Vec::new();
        let mut counts = Vec::new();
        for _ in 0..MILP_REPS {
            let (model, _) = MilpAllocator::build_model(&ctx, &aug, false);
            let start = Instant::now();
            let solved = model.solve_with(&options);
            let elapsed = start.elapsed().as_secs_f64();
            match solved {
                Ok(s) => {
                    times.push(elapsed);
                    counts.push((s.stats.nodes_explored, s.stats.simplex_iterations));
                }
                Err(e) => run.problems.push(format!("milp {name}: {e}")),
            }
        }
        if counts.windows(2).any(|w| w[0] != w[1]) {
            run.problems.push(format!(
                "milp {name}: (nodes, simplex iterations) differ across solves: {counts:?}"
            ));
        }
        if let Some(&(nodes, iters)) = counts.first() {
            run.nodes += nodes;
            run.simplex_iters += iters;
        }
        run.solve_s += stats::median(&times);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_mixes_cover_both_tiers() {
        assert_eq!(hop_mix(false), vec![2_000]);
        let mix = hop_mix(true);
        assert!(mix.contains(&200) && mix.contains(&5_000));
    }

    #[test]
    fn layer_timings_are_positive() {
        assert!(calendar_push_pop_ns(&hop_mix(true)) > 0.0);
        assert!(alias_sample_ns() > 0.0);
        assert!(slab_insert_remove_ns() > 0.0);
        assert!(hist_record_ns() > 0.0);
    }
}
