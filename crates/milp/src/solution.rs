//! Solver results, options, and error types.

use crate::expr::Var;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// Proven optimal (within the configured MIP gap for MILPs).
    Optimal,
    /// A feasible solution was found but optimality was not proven before a
    /// node/time limit was reached.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// A node or time limit was reached without finding any feasible solution.
    LimitReached,
}

impl SolveStatus {
    /// True if the solution carries usable variable values.
    pub fn has_solution(&self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// Errors surfaced by the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The model is structurally invalid (e.g. a variable bound with `lb > ub`).
    InvalidModel(String),
    /// The problem was proven infeasible.
    Infeasible,
    /// The problem was proven unbounded.
    Unbounded,
    /// A limit was reached before any feasible solution was found.
    NoSolutionFound,
    /// Internal numerical failure (should not happen on well-scaled models).
    Numerical(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "problem is unbounded"),
            SolveError::NoSolutionFound => write!(f, "no feasible solution found within limits"),
            SolveError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Maximum number of branch-and-bound nodes to explore.
    pub node_limit: usize,
    /// Wall-clock limit for the whole solve.
    pub time_limit: Duration,
    /// Relative MIP gap at which the search stops and declares optimality.
    pub mip_gap: f64,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Optional warm-start assignment (dense, indexed by variable). Values for integer
    /// variables are rounded and checked for feasibility; if feasible the assignment
    /// seeds the incumbent so branch-and-bound can prune aggressively from the start.
    pub warm_start: Option<Vec<f64>>,
    /// Run the rounding heuristic at every `heuristic_frequency`-th node (0 disables).
    pub heuristic_frequency: usize,
    /// Variables to branch on first (higher priority earlier in the list).
    pub branch_priority: Vec<Var>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            node_limit: 20_000,
            time_limit: Duration::from_secs(30),
            mip_gap: 1e-6,
            int_tol: crate::INT_TOL,
            warm_start: None,
            heuristic_frequency: 20,
            branch_priority: Vec::new(),
        }
    }
}

/// Statistics reported alongside a solution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SolveStats {
    /// Number of branch-and-bound nodes explored (0 for pure LPs).
    pub nodes_explored: usize,
    /// Total simplex iterations across all LP solves.
    pub simplex_iterations: usize,
    /// Final relative MIP gap (0 for proven-optimal solutions).
    pub mip_gap: f64,
    /// Wall-clock solve time in seconds.
    pub solve_time_secs: f64,
}

/// The result of solving a model.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Status of the solve.
    pub status: SolveStatus,
    /// Objective value in the user's optimization sense.
    pub objective: f64,
    /// Dense variable assignment (indexed by [`Var::index`]).
    pub values: Vec<f64>,
    /// Search statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// Value of a single variable.
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// Value of a variable rounded to the nearest integer (useful for integer and
    /// binary variables which may carry tiny floating-point noise).
    pub fn int_value(&self, var: Var) -> i64 {
        self.values[var.index()].round() as i64
    }

    /// True when a binary variable is set.
    pub fn is_set(&self, var: Var) -> bool {
        self.values[var.index()] > 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_has_solution() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::Unbounded.has_solution());
        assert!(!SolveStatus::LimitReached.has_solution());
    }

    #[test]
    fn default_options_are_sane() {
        let o = SolveOptions::default();
        assert!(o.node_limit > 0);
        assert!(o.mip_gap >= 0.0);
        assert!(o.int_tol > 0.0);
    }

    #[test]
    fn error_display() {
        let e = SolveError::InvalidModel("bad bound".into());
        assert!(e.to_string().contains("bad bound"));
        assert_eq!(SolveError::Infeasible.to_string(), "problem is infeasible");
    }
}
