//! Observability determinism guards: query tracing records *simulated* time,
//! so traces must be bit-identical for every `jobs` value, and turning
//! tracing and the timeline on must not perturb the simulation itself.
//!
//! 1. `traces_are_bit_identical_across_jobs`: a four-lane contended run under
//!    a migration-heavy seesaw arbiter produces identical per-lane span trees
//!    (same sampled roots, same spans, same timestamps) for `jobs ∈ {1, 2, 4}`.
//! 2. `observability_does_not_perturb_the_simulation`: the same run under
//!    every [`ObserveConfig`] combination yields totals, an interval series
//!    and event counts bit-identical to the default run, a latency histogram
//!    equal to the default one exactly when histograms are on, and each
//!    recorder's output exactly when that recorder is on. With the timeline
//!    on, the run's end-to-end histogram is folded from the per-interval
//!    rows; with it off, it is recorded directly.
//! 3. `critical_path_is_bounded_by_measured_latency`: for every sampled root,
//!    `critical_path().total_us <= latency_us()` and the per-kind components
//!    sum to no more than the total.
//! 4. `golden_observations_are_stable`: a digest of everything the run
//!    observed (merged journal, every lane's timeline rows and traced roots)
//!    is pinned, so a change that moves them the same way at every `jobs`
//!    value still shows.

use loki_pipeline::{zoo, PipelineGraph};
use loki_sim::{
    MultiPipeline, MultiSimConfig, MultiSimResult, MultiSimulation, ObserveConfig, SimConfig,
};
use loki_workload::{generate_arrivals, generators, ArrivalProcess};

#[path = "common/static_controller.rs"]
mod static_controller;

#[path = "common/seesaw_arbiter.rs"]
mod seesaw_arbiter;

use seesaw_arbiter::SeesawArbiter;
use static_controller::StaticController;

fn observed_config(seed: u64, observe: ObserveConfig) -> SimConfig {
    SimConfig {
        cluster_size: 16,
        drain_s: 10.0,
        seed,
        observe,
        ..SimConfig::default()
    }
}

fn four_lane_run(seed: u64, jobs: usize, observe: ObserveConfig) -> MultiSimResult {
    let graphs: Vec<PipelineGraph> = (0..4).map(|_| zoo::tiny_pipeline(200.0)).collect();
    let trace = generators::constant(20, 30.0);
    let mut multi = MultiSimulation::new(MultiSimConfig {
        sim: observed_config(seed, observe),
        jobs,
    });
    for (i, graph) in graphs.iter().enumerate() {
        multi.add_pipeline(MultiPipeline {
            name: format!("lane{i}"),
            graph,
            controller: Box::new(StaticController::tiny(2)),
            arrivals_s: generate_arrivals(&trace, ArrivalProcess::Poisson, seed + i as u64),
            initial_demand_hint: Some(30.0),
        });
    }
    let mut arbiter = SeesawArbiter { epoch: 0 };
    multi.try_run(&mut arbiter).unwrap()
}

fn dense_tracing() -> ObserveConfig {
    ObserveConfig {
        trace_sample: 3,
        histograms: true,
        timeline: true,
    }
}

#[test]
fn traces_are_bit_identical_across_jobs() {
    for seed in [7, 42] {
        let serial = four_lane_run(seed, 1, dense_tracing());
        for jobs in [2, 4] {
            let parallel = four_lane_run(seed, jobs, dense_tracing());
            assert_eq!(
                serial.pipelines.len(),
                parallel.pipelines.len(),
                "seed {seed} jobs {jobs}: lane count"
            );
            for (a, b) in serial.pipelines.iter().zip(&parallel.pipelines) {
                let ta = a.result.trace.as_ref().expect("serial lane trace");
                let tb = b.result.trace.as_ref().expect("parallel lane trace");
                assert!(
                    !ta.roots.is_empty(),
                    "seed {seed} lane {}: dense sampling must capture roots",
                    a.name
                );
                // RootTrace derives PartialEq over every field — lane,
                // arrival index, simulated timestamps, and the full span list.
                assert_eq!(
                    ta.roots, tb.roots,
                    "seed {seed} jobs {jobs}: lane {} span trees",
                    a.name
                );
                assert_eq!(
                    a.result.latency, b.result.latency,
                    "seed {seed} jobs {jobs}: lane {} latency histograms",
                    a.name
                );
            }
        }
    }
}

#[test]
fn observability_does_not_perturb_the_simulation() {
    let plain = four_lane_run(11, 2, ObserveConfig::default());
    for histograms in [true, false] {
        for timeline in [false, true] {
            for trace_sample in [0, 3] {
                let observe = ObserveConfig {
                    trace_sample,
                    histograms,
                    timeline,
                };
                let label = format!("{observe:?}");
                let observed = four_lane_run(11, 2, observe);
                for (a, b) in plain.pipelines.iter().zip(&observed.pipelines) {
                    let (sa, sb) = (&a.result.summary, &b.result.summary);
                    assert_eq!(
                        (sa.total_on_time, sa.total_late, sa.total_dropped),
                        (sb.total_on_time, sb.total_late, sb.total_dropped),
                        "{label} lane {}: totals",
                        a.name
                    );
                    assert_eq!(
                        a.result.intervals, b.result.intervals,
                        "{label} lane {}: interval series",
                        a.name
                    );
                    // With the timeline on, the run histogram is folded from
                    // the rows; with it off, it is recorded directly.
                    let latency = histograms.then(|| a.result.latency.clone().expect("default"));
                    assert_eq!(
                        b.result.latency, latency,
                        "{label} lane {}: run histogram",
                        a.name
                    );
                    assert_eq!(
                        (b.result.window.is_some(), b.result.trace.is_some()),
                        (timeline, trace_sample > 0),
                        "{label} lane {}: which recorders reported",
                        a.name
                    );
                }
                assert_eq!(observed.journal.is_some(), timeline, "{label}: journal");
                assert_eq!(plain.total_events, observed.total_events, "{label}: events");
                assert_eq!(plain.migrations, observed.migrations, "{label}: migrations");
            }
        }
    }
}

/// The timeline channel (cluster journal + per-interval histogram deltas)
/// records simulated time only, so it must be bit-identical for every `jobs`
/// value — even under a migration-heavy arbiter.
#[test]
fn timeline_is_bit_identical_across_jobs() {
    for seed in [7, 42] {
        let serial = four_lane_run(seed, 1, dense_tracing());
        let parallel = four_lane_run(seed, 2, dense_tracing());
        let ja = serial.journal.as_ref().expect("serial journal");
        let jb = parallel.journal.as_ref().expect("parallel journal");
        assert!(
            !ja.is_empty(),
            "seed {seed}: the seesaw arbiter must journal rebalances"
        );
        assert!(
            ja.count_matching(|k| matches!(k, loki_sim::JournalKind::Migration { .. })) > 0,
            "seed {seed}: migrations must be journaled"
        );
        assert_eq!(ja.events, jb.events, "seed {seed}: journal event streams");
        for (a, b) in serial.pipelines.iter().zip(&parallel.pipelines) {
            assert_eq!(
                a.result.window, b.result.window,
                "seed {seed}: lane {} windowed histograms",
                a.name
            );
        }
    }
}

/// The run histogram is folded from the per-interval deltas, so merging every
/// delta must reproduce it exactly (same counts, same min/max), per lane and
/// for the aggregate. `observability_does_not_perturb_the_simulation` checks
/// the fold against an independent direct record.
#[test]
fn window_deltas_remerge_to_the_run_histogram() {
    let run = four_lane_run(11, 2, dense_tracing());
    for lane in &run.pipelines {
        let rows = lane.result.window.as_ref().expect("lane window rows");
        assert_eq!(
            rows.len(),
            lane.result.intervals.len(),
            "lane {}: one histogram delta per interval",
            lane.name
        );
        let mut merged = loki_sim::Histogram::new();
        for row in rows {
            merged.merge(row);
        }
        let e2e = lane.result.latency.as_ref().expect("lane histogram");
        assert_eq!(
            &merged, e2e,
            "lane {}: re-merged deltas differ from the run histogram",
            lane.name
        );
    }
    let agg = run.aggregate(16);
    let rows = agg.window.as_ref().expect("aggregate window rows");
    let mut merged = loki_sim::Histogram::new();
    for row in rows {
        merged.merge(row);
    }
    assert_eq!(
        &merged,
        agg.latency.as_ref().expect("aggregate histogram"),
        "aggregate: re-merged deltas differ from the merged run histogram"
    );
}

#[test]
fn critical_path_is_bounded_by_measured_latency() {
    let run = four_lane_run(42, 2, dense_tracing());
    let mut checked = 0usize;
    for lane in &run.pipelines {
        let log = lane.result.trace.as_ref().expect("lane trace");
        for root in &log.roots {
            let cp = root.critical_path();
            assert!(
                cp.total_us <= root.latency_us(),
                "lane {} root {}: critical path {}us exceeds measured latency {}us",
                lane.name,
                root.arrival_index,
                cp.total_us,
                root.latency_us()
            );
            assert!(
                cp.queue_us + cp.exec_us + cp.network_us <= cp.total_us,
                "lane {} root {}: critical-path components exceed the total",
                lane.name,
                root.arrival_index
            );
            checked += 1;
        }
    }
    assert!(
        checked > 10,
        "expected a meaningful trace corpus, got {checked}"
    );
}

/// FNV-1a (64 bit) over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything a run observed, as one byte stream: the merged journal (each
/// event's time, lane, recording sequence and kind name), then per lane its
/// timeline rows (count, max and five percentiles each) and its traced roots
/// with every span, in recording order.
fn observation_bytes(run: &MultiSimResult) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut word = |w: u64| bytes.extend(w.to_le_bytes());
    let journal = run.journal.as_ref().expect("the timeline is on");
    word(journal.events.len() as u64);
    let mut names = Vec::new();
    for event in &journal.events {
        word(event.time_us);
        word(event.lane as u64);
        word(event.seq);
        names.push(event.kind.name());
    }
    for lane in &run.pipelines {
        let rows = lane.result.window.as_ref().expect("the timeline is on");
        word(rows.len() as u64);
        for row in rows {
            word(row.count());
            word(row.max_us());
            for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
                word(row.percentile_us(q));
            }
        }
        let roots = &lane.result.trace.as_ref().expect("tracing is on").roots;
        word(roots.len() as u64);
        for root in roots {
            word(root.lane as u64);
            word(root.arrival_index);
            word(root.arrival_us);
            word(root.end_us);
            word(root.dropped as u64);
            word(root.spans.len() as u64);
            for s in &root.spans {
                word(s.kind as u64);
                word(s.start_us);
                word(s.end_us);
                word(s.task as u64);
                word(s.worker as u64);
            }
        }
    }
    for name in names {
        bytes.extend(name.bytes().chain([0]));
    }
    bytes
}

// Pinned before the lane's observation state moved behind one observer,
// which must leave every journal event, row and span where it was.
const GOLDEN_OBSERVATION_BYTES: usize = 216_328;
const GOLDEN_OBSERVATION_DIGEST: u64 = 0x0176_4612_9041_5bb5;

#[test]
fn golden_observations_are_stable() {
    for jobs in [1, 2] {
        let run = four_lane_run(42, jobs, dense_tracing());
        let bytes = observation_bytes(&run);
        let digest = fnv1a(bytes.iter().copied());
        println!(
            "observation golden candidate (jobs {jobs}): bytes {} digest {digest:#018x}",
            bytes.len()
        );
        assert_eq!(bytes.len(), GOLDEN_OBSERVATION_BYTES, "jobs {jobs}");
        assert_eq!(digest, GOLDEN_OBSERVATION_DIGEST, "jobs {jobs}");
    }
}
