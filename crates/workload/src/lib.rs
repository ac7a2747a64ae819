//! # loki-workload
//!
//! Synthetic query-arrival workloads for the Loki reproduction.
//!
//! The paper drives its two pipelines with (a) one day of the Microsoft Azure Functions
//! trace and (b) a Twitter streaming trace, both rescaled with shape-preserving
//! transformations to match the capacity of the evaluation cluster, and both used only
//! as *per-second arrival-rate series* (the request contents come from separate image
//! datasets and only matter through the intermediate queries they spawn).
//!
//! Neither trace can be redistributed here, so this crate generates seeded synthetic
//! series with the same qualitative shape:
//!
//! * [`generators::azure_like_diurnal`] — a diurnal pattern with an off-peak valley,
//!   morning ramp, evening peak, and small stochastic bursts (Azure-Functions-like);
//! * [`generators::twitter_like_bursty`] — a noisy baseline with heavy short spikes
//!   (Twitter-like);
//! * deterministic shapes (ramp, step, constant, sinusoid) for controlled experiments.
//!
//! [`trace::Trace`] holds a per-second QPS series and provides the shape-preserving
//! scaling the paper applies; [`arrivals`] expands a trace into individual arrival
//! timestamps (Poisson or evenly spaced); [`estimator::EwmaEstimator`] is the
//! exponentially-weighted moving-average demand estimator the Resource Manager uses.

// Non-test code calls no `unwrap`, `expect` or `panic!`; this keeps it that
// way (tests are exempt through the workspace `clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod arrivals;
pub mod estimator;
pub mod generators;
pub mod trace;

pub use arrivals::{generate_arrivals, ArrivalProcess};
pub use estimator::{DemandHistory, EwmaEstimator, SeasonalEstimator};
pub use generators::TraceSpec;
pub use trace::Trace;
