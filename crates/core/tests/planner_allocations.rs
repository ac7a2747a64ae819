//! Heap-allocation guard for the planner's inner loops.
//!
//! The greedy Resource Manager evaluates hundreds of candidate plans per
//! replan, and each evaluation walks the pipeline's root-to-sink paths. The
//! graph derives those paths, its topological order and each task's accuracy
//! order once, so after a warm-up call the path walks must not touch the heap,
//! and the batch-size search must allocate only the plan it returns.
//!
//! A counting global allocator tallies allocations per thread (tests run on
//! parallel threads, so a process-wide count would mix them up).

use loki_core::perf::{FanoutOverrides, PerfModel};
use loki_pipeline::{zoo, PipelineGraph, VariantId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while this thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator with the same arguments;
// the counter is a plain thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the heap allocations (and reallocations) it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn most_accurate(graph: &PipelineGraph) -> Vec<usize> {
    graph
        .tasks()
        .map(|(_, t)| t.most_accurate_variant())
        .collect()
}

#[test]
fn graph_structure_is_derived_once() {
    for graph in [
        zoo::traffic_analysis_pipeline(250.0),
        zoo::social_media_pipeline(250.0),
    ] {
        // Warm-up: the first call may build the cached structure.
        let paths = graph.task_paths().len();
        let order = graph.topological_order().len();
        let ((), n) = allocations(|| {
            for _ in 0..100 {
                assert_eq!(graph.task_paths().len(), paths);
                assert_eq!(graph.topological_order().len(), order);
            }
        });
        assert_eq!(n, 0, "{}: path and order queries allocated", graph.name());
    }
}

#[test]
fn path_walks_allocate_nothing() {
    for graph in [
        zoo::traffic_analysis_pipeline(250.0),
        zoo::social_media_pipeline(250.0),
    ] {
        let perf = PerfModel::new(&graph, 2.0, 2.0);
        let fanout = FanoutOverrides::new();
        let choice = most_accurate(&graph);
        let batches = vec![1; graph.num_tasks()];
        let variant = VariantId::new(graph.num_tasks() - 1, 0);
        let fits = perf.batches_fit(&choice, &batches);
        let accuracy = perf.choice_accuracy(&choice);
        let budget = perf.runtime_budget_ms(variant, 4);
        let ((), n) = allocations(|| {
            for _ in 0..100 {
                assert_eq!(perf.batches_fit(&choice, &batches), fits);
                assert_eq!(perf.choice_accuracy(&choice).to_bits(), accuracy.to_bits());
                assert_eq!(
                    perf.runtime_budget_ms(variant, 4).to_bits(),
                    budget.to_bits()
                );
            }
        });
        assert_eq!(n, 0, "{}: a path walk allocated", graph.name());
        // Demand propagation allocates only the vector it returns (after a
        // warm-up call derived the topological order).
        perf.task_demands(&choice, 100.0, &fanout);
        let (_, n) = allocations(|| perf.task_demands(&choice, 100.0, &fanout));
        assert_eq!(n, 1, "{}: task_demands", graph.name());
    }
}

#[test]
fn batch_search_allocates_only_the_plan() {
    // The same plan problem with one allowed batch size (no candidate to try)
    // and with 64 (dozens of candidates per enlargement step): the search
    // itself must not allocate, so both make the same number of allocations.
    let fanout = FanoutOverrides::new();
    let mut counts = Vec::new();
    for sizes in [vec![1], (1..=64).collect::<Vec<_>>()] {
        let mut graph = zoo::traffic_analysis_pipeline(250.0);
        graph.set_batch_sizes(sizes);
        let perf = PerfModel::new(&graph, 2.0, 2.0);
        let choice = most_accurate(&graph);
        perf.plan_for_choice(&choice, 400.0, &fanout)
            .expect("warm-up plan");
        let (plan, n) = allocations(|| perf.plan_for_choice(&choice, 400.0, &fanout));
        let plan = plan.expect("the traffic pipeline fits a 250 ms SLO");
        counts.push((n, plan.batches));
    }
    assert!(
        counts[1].1.iter().any(|&b| b > 1),
        "the wide search must enlarge some batch: {counts:?}"
    );
    assert_eq!(
        counts[0].0, counts[1].0,
        "allocations grew with the number of batch candidates: {counts:?}"
    );
    // The returned plan owns four vectors: choice, batches, replicas and demands.
    assert_eq!(counts[0].0, 4, "{counts:?}");
}
