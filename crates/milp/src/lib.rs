//! # loki-milp
//!
//! A small, dependency-free mixed-integer linear programming (MILP) solver used by the
//! Loki resource manager (see the `loki-core` crate).
//!
//! The original Loki system (HPDC'24) formulates its hardware-scaling and
//! accuracy-scaling resource-allocation problems as MILPs and solves them with Gurobi.
//! Gurobi is proprietary and unavailable here, so this crate provides the substrate the
//! paper depends on: an exact solver built from
//!
//! * a dense, two-phase, **bounded-variable primal simplex** for the LP relaxation
//!   ([`simplex`]), and
//! * a best-first **branch-and-bound** search over fractional integer variables
//!   ([`branch_bound`]), with rounding heuristics, warm-start incumbents, and
//!   node/time/gap limits.
//!
//! The allocation MILPs produced by Loki are small (a few hundred variables and
//! constraints), which is exactly the regime where a dense simplex is simple, robust,
//! and fast enough. The solver is general-purpose, however, and is tested against
//! textbook LPs/MILPs (knapsack, assignment, covering) independent of Loki.
//!
//! ## Quick example
//!
//! ```
//! use loki_milp::{Model, VarType, Sense, ObjectiveSense, SolveOptions};
//!
//! // maximize 5x + 4y  s.t.  6x + 4y <= 24,  x + 2y <= 6,  x,y >= 0
//! let mut m = Model::new("example");
//! let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
//! let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
//! m.add_constraint("c1", 6.0 * x + 4.0 * y, Sense::Le, 24.0);
//! m.add_constraint("c2", 1.0 * x + 2.0 * y, Sense::Le, 6.0);
//! m.set_objective(ObjectiveSense::Maximize, 5.0 * x + 4.0 * y);
//! let sol = m.solve_with(&SolveOptions::default()).unwrap();
//! assert!((sol.objective - 21.0).abs() < 1e-6);
//! assert!((sol.value(x) - 3.0).abs() < 1e-6);
//! assert!((sol.value(y) - 1.5).abs() < 1e-6);
//! ```

// Non-test code calls no `unwrap`, `expect` or `panic!`; this keeps it that
// way (tests are exempt through the workspace `clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod branch_bound;
pub mod expr;
pub mod model;
pub mod simplex;
pub mod solution;

pub use expr::{LinExpr, Var};
pub use model::{Model, ObjectiveSense, Sense, VarType};
pub use solution::{Solution, SolveError, SolveOptions, SolveStatus};

/// Numerical tolerance used throughout the solver for feasibility checks.
pub const FEAS_TOL: f64 = 1e-7;
/// Tolerance below which a value is considered integral.
pub const INT_TOL: f64 = 1e-6;
