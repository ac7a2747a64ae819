//! # loki-sim
//!
//! A deterministic discrete-event simulator of a GPU inference-serving cluster.
//!
//! The Loki paper runs a core set of experiments on a 20-GPU testbed, validates a
//! discrete-event simulator against it (observing ≤ 2% difference, thanks to the
//! determinism of DNN inference), and then uses the simulator for every parameter
//! sweep. This crate reproduces that simulator:
//!
//! * a cluster of identical *workers* (GPUs), each hosting at most one model-variant
//!   instance with a configured maximum batch size;
//! * a *frontend* where client queries arrive (driven by a [`loki_workload::Trace`]),
//!   are routed to first-task workers, fan out into intermediate queries along the
//!   pipeline, and are finally aggregated back;
//! * per-worker FIFO queues with greedy batch formation (a worker that becomes idle
//!   immediately takes up to its maximum batch size from its queue);
//! * a per-link network-delay model ([`LinkDelayModel`]): homogeneous by default,
//!   with per-pipeline-edge and per-worker-class variants for heterogeneous
//!   interconnects (PCIe vs. network hops), scheduled by a calendar-queue event
//!   scheduler ([`calendar::CalendarQueue`]);
//! * runtime drop policies (none / last-task / per-task / opportunistic rerouting,
//!   Section 5.2 of the paper) executed by the data plane using the latency budgets and
//!   backup tables supplied by the control plane;
//! * periodic invocation of a pluggable [`Controller`] (Loki, InferLine-style,
//!   Proteus-style, or anything else) that produces allocation and routing plans;
//! * per-interval metrics (demand, SLO violations, system accuracy, active workers)
//!   matching the evaluation metrics of Section 6.1.
//!
//! The simulator is fully deterministic for a given seed, which is what makes the
//! figure-regeneration harness in `loki-bench` reproducible.

// The sharded engine's lanes share no mutable state by construction (see
// `shard`'s module docs); this keeps it that way.
#![forbid(unsafe_code)]
// A broken invariant surfaces as an `EngineError`, not a panic: every
// `unwrap`, `expect` or `panic!` left outside tests carries an `#[expect]`
// with its reason (tests are exempt through the workspace `clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod burn;
pub mod calendar;
pub mod elastic;
pub mod engine;
pub mod journal;
pub mod market;
pub mod metrics;
pub mod multi;
pub mod par;
pub mod routing;
mod shard;
pub mod slab;
pub mod trace;
pub mod types;
pub mod worker;

pub use burn::{analyze as analyze_burn, BurnCause, BurnEpisode, BurnReport};
pub use calendar::{CalendarGeometry, CalendarQueue};
pub use elastic::{
    cheapest_effective, DecisionReason, ElasticAction, ElasticObservation, ElasticPolicy,
    ElasticSimConfig, StaticFleet, WorkerClass, WorkerClassCatalog,
};
pub use engine::{EngineError, SimResult, Simulation};
pub use journal::{Journal, JournalEvent, JournalKind, CLUSTER_LANE};
pub use market::MarketConfig;
pub use metrics::{ClassCost, CostSummary, IntervalMetrics, RunSummary};
pub use multi::{
    apportion, ArbiterObservation, MultiPipeline, MultiSimConfig, MultiSimResult, MultiSimulation,
    PipelineResult, ResourceArbiter, StaticPartition,
};
pub use par::par_map;
pub use routing::{AliasTable, CompiledPlan, PlanBuilder};
pub use slab::{Slab, SlotRef};
pub use trace::{CriticalPath, Histogram, ObserveConfig, RootTrace, Span, SpanKind, TraceLog};
pub use types::{
    AllocationPlan, BackupWorker, CompiledLinkDelays, Controller, DropPolicy, HopBudgets,
    InstanceSpec, LinkDelayModel, ObservedState, Query, RouteMode, SimConfig, WorkerId, WorkerView,
};
