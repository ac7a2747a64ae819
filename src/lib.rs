//! # loki
//!
//! A from-scratch Rust reproduction of **Loki: A System for Serving ML Inference
//! Pipelines with Hardware and Accuracy Scaling** (HPDC 2024), including every
//! substrate the system depends on: a MILP solver, a discrete-event GPU-cluster
//! simulator, synthetic workload generators, a model-variant profile zoo, and the two
//! baseline serving systems from the paper's evaluation.
//!
//! This crate is a facade that re-exports the workspace crates under one roof; see the
//! individual crates for the full APIs:
//!
//! * [`pipeline`] (`loki-pipeline`) — pipeline graphs, model variants, the model zoo;
//! * [`workload`] (`loki-workload`) — traces, arrival processes, demand estimators;
//! * [`sim`] (`loki-sim`) — the discrete-event cluster simulator;
//! * [`milp`] (`loki-milp`) — the simplex + branch-and-bound MILP solver;
//! * [`core`] (`loki-core`) — the Loki controller (Resource Manager + Load Balancer);
//! * [`baselines`] (`loki-baselines`) — InferLine-style and Proteus-style controllers.
//!
//! ## Quickstart
//!
//! ```
//! use loki::core::{LokiConfig, LokiController};
//! use loki::pipeline::zoo;
//!
//! // Build the paper's traffic-analysis pipeline with a 250 ms SLO and ask the
//! // Resource Manager what it would do on a 20-GPU cluster at 100 QPS.
//! let graph = zoo::traffic_analysis_pipeline(250.0);
//! let mut controller = LokiController::new(graph, LokiConfig::with_greedy());
//! let outcome = controller.allocate_for_demand(100.0, 20);
//! assert_eq!(outcome.mode, loki::core::ScalingMode::Hardware);
//! assert!(outcome.servers_used < 20);
//! ```

pub use loki_baselines as baselines;
pub use loki_core as core;
pub use loki_milp as milp;
pub use loki_pipeline as pipeline;
pub use loki_sim as sim;
pub use loki_workload as workload;

/// Convenience prelude re-exporting the types most programs need.
pub mod prelude {
    pub use loki_baselines::{InferLineController, ProteusController};
    pub use loki_core::{AllocationOutcome, LokiConfig, LokiController, ScalingMode};
    pub use loki_pipeline::{zoo, AugmentedGraph, ModelVariant, PipelineGraph, VariantId};
    pub use loki_sim::{Controller, DropPolicy, EngineError, SimConfig, SimResult, Simulation};
    pub use loki_workload::{generate_arrivals, generators, ArrivalProcess, Trace};
}
