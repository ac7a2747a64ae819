//! The model builder: variables, constraints, objective.

use crate::expr::{LinExpr, Var};
use crate::solution::{Solution, SolveError, SolveOptions};
use crate::{branch_bound, simplex};

/// The type of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// A real-valued variable.
    Continuous,
    /// An integer-valued variable.
    Integer,
    /// A 0/1 variable (integer with bounds clamped to `[0, 1]`).
    Binary,
}

/// Relational sense of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Direction of the objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveSense {
    Minimize,
    Maximize,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub vtype: VarType,
    pub lb: f64,
    pub ub: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintDef {
    pub name: String,
    pub expr: LinExpr,
    pub sense: Sense,
    pub rhs: f64,
}

/// An optimization model: a set of variables, linear constraints, and a linear
/// objective. Models are built incrementally and solved with [`Model::solve`] /
/// [`Model::solve_with`].
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: ObjectiveSense,
}

impl Model {
    /// Create an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense: ObjectiveSense::Minimize,
        }
    }

    /// The model name (useful in logs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a decision variable with the given type and bounds, returning its handle.
    ///
    /// Binary variables have their bounds clamped to `[0, 1]`. Lower bounds must be
    /// finite; upper bounds may be `f64::INFINITY`.
    pub fn add_var(&mut self, name: impl Into<String>, vtype: VarType, lb: f64, ub: f64) -> Var {
        let (lb, ub) = match vtype {
            VarType::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        self.vars.push(VarDef {
            name: name.into(),
            vtype,
            lb,
            ub,
        });
        Var(self.vars.len() - 1)
    }

    /// Convenience: a continuous variable in `[lb, ub]`.
    pub fn add_continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.add_var(name, VarType::Continuous, lb, ub)
    }

    /// Convenience: an integer variable in `[lb, ub]`.
    pub fn add_integer(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.add_var(name, VarType::Integer, lb, ub)
    }

    /// Convenience: a 0/1 variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name, VarType::Binary, 0.0, 1.0)
    }

    /// Add the linear constraint `expr (sense) rhs`.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: impl Into<LinExpr>,
        sense: Sense,
        rhs: f64,
    ) {
        let expr = expr.into();
        // Move the expression's constant onto the right-hand side so internal storage
        // keeps rhs as a plain number.
        let constant = expr.constant();
        let mut e = expr;
        e.add_constant(-constant);
        self.constraints.push(ConstraintDef {
            name: name.into(),
            expr: e,
            sense,
            rhs: rhs - constant,
        });
    }

    /// Set the objective direction and expression.
    pub fn set_objective(&mut self, sense: ObjectiveSense, expr: impl Into<LinExpr>) {
        self.sense = sense;
        self.objective = expr.into();
    }

    /// Number of variables in the model.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints in the model.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer (including binary) variables.
    pub fn num_integer_vars(&self) -> usize {
        self.vars
            .iter()
            .filter(|v| v.vtype != VarType::Continuous)
            .count()
    }

    /// Bounds of a variable.
    pub fn var_bounds(&self, var: Var) -> (f64, f64) {
        let d = &self.vars[var.index()];
        (d.lb, d.ub)
    }

    /// Validate structural properties of the model (bounds, finiteness of coefficients).
    pub fn validate(&self) -> Result<(), SolveError> {
        for (i, v) in self.vars.iter().enumerate() {
            if !v.lb.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "variable {} (#{}) has a non-finite lower bound",
                    v.name, i
                )));
            }
            if v.ub.is_nan() {
                return Err(SolveError::InvalidModel(format!(
                    "variable {} (#{}) has a NaN upper bound",
                    v.name, i
                )));
            }
            if v.lb > v.ub + 1e-12 {
                return Err(SolveError::InvalidModel(format!(
                    "variable {} (#{}) has lb {} > ub {}",
                    v.name, i, v.lb, v.ub
                )));
            }
        }
        for c in &self.constraints {
            if !c.rhs.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "constraint {} has a non-finite right-hand side",
                    c.name
                )));
            }
            for (idx, coeff) in c.expr.iter() {
                if idx >= self.vars.len() {
                    return Err(SolveError::InvalidModel(format!(
                        "constraint {} references unknown variable #{}",
                        c.name, idx
                    )));
                }
                if !coeff.is_finite() {
                    return Err(SolveError::InvalidModel(format!(
                        "constraint {} has a non-finite coefficient on variable #{}",
                        c.name, idx
                    )));
                }
            }
        }
        for (idx, coeff) in self.objective.iter() {
            if idx >= self.vars.len() || !coeff.is_finite() {
                return Err(SolveError::InvalidModel(
                    "objective references an unknown variable or non-finite coefficient".into(),
                ));
            }
        }
        Ok(())
    }

    /// Check whether a dense assignment satisfies all constraints and variable bounds
    /// (within `tol`), including integrality of integer variables.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if v.vtype != VarType::Continuous && (x - x.round()).abs() > tol.max(crate::INT_TOL) {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.evaluate(values);
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Evaluate the objective for a dense assignment (in the user's sense: larger is
    /// better for maximization).
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.evaluate(values)
    }

    /// Solve with default options.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solve the model. Pure LPs (no integer variables) go straight to the simplex;
    /// otherwise branch-and-bound is used.
    pub fn solve_with(&self, options: &SolveOptions) -> Result<Solution, SolveError> {
        self.validate()?;
        if self.num_integer_vars() == 0 {
            simplex::solve_lp(self, &[])
        } else {
            branch_bound::solve_milp(self, options)
        }
    }

    /// Solve the LP relaxation (integrality dropped), optionally with extra bounds
    /// overriding the declared variable bounds. Used internally by branch-and-bound and
    /// exposed for diagnostics.
    pub fn solve_relaxation(
        &self,
        extra_bounds: &[(Var, f64, f64)],
    ) -> Result<Solution, SolveError> {
        self.validate()?;
        simplex::solve_lp(self, extra_bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_model() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 5.0);
        let z = m.add_binary("z");
        m.add_constraint("c", 1.0 * x + 2.0 * y + 3.0 * z, Sense::Le, 10.0);
        m.set_objective(ObjectiveSense::Maximize, 1.0 * x + 1.0 * y);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.num_integer_vars(), 2);
        assert_eq!(m.var_bounds(z), (0.0, 1.0));
    }

    #[test]
    fn constraint_constant_moves_to_rhs() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        // x + 3 <= 5  should be stored as x <= 2
        m.add_constraint("c", 1.0 * x + 3.0, Sense::Le, 5.0);
        assert_eq!(m.constraints[0].rhs, 2.0);
        assert_eq!(m.constraints[0].expr.constant(), 0.0);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut m = Model::new("t");
        m.add_continuous("x", 5.0, 1.0);
        assert!(matches!(m.validate(), Err(SolveError::InvalidModel(_))));

        let mut m2 = Model::new("t2");
        m2.add_continuous("x", f64::NEG_INFINITY, 1.0);
        assert!(m2.validate().is_err());
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 5.0);
        m.add_constraint("c", 1.0 * x + 1.0 * y, Sense::Le, 6.0);
        assert!(m.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[2.0, 5.0], 1e-9)); // violates constraint
        assert!(!m.is_feasible(&[2.0, 2.5], 1e-9)); // fractional integer
        assert!(!m.is_feasible(&[-1.0, 0.0], 1e-9)); // bound violation
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn binary_bounds_clamped() {
        let mut m = Model::new("t");
        let z = m.add_var("z", VarType::Binary, -3.0, 7.0);
        assert_eq!(m.var_bounds(z), (0.0, 1.0));
    }
}
