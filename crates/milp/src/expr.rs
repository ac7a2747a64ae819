//! Linear expressions over model variables.
//!
//! [`Var`] is a lightweight copyable handle into a [`crate::Model`]; [`LinExpr`] is a
//! sparse linear combination of variables plus a constant. Operator overloading makes
//! formulation code read close to the mathematical notation used in the paper:
//!
//! ```
//! use loki_milp::{Model, VarType};
//! let mut m = Model::new("ex");
//! let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
//! let y = m.add_var("y", VarType::Continuous, 0.0, 1.0);
//! let e = 2.0 * x + 3.0 * y - 1.0;
//! assert_eq!(e.coefficient(x), 2.0);
//! assert_eq!(e.constant(), -1.0);
//! ```

use std::collections::BTreeMap;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A handle to a decision variable inside a [`crate::Model`].
///
/// Handles are plain indices: using a `Var` created by one model inside a different
/// model is a logic error and will either panic (out of range) or silently refer to a
/// different variable, so keep models and their variables together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The index of this variable inside its model (stable across the model lifetime).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A sparse linear expression `Σ aᵢ·xᵢ + c`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: BTreeMap<usize, f64>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// An expression consisting only of a constant.
    pub fn constant_expr(c: f64) -> Self {
        Self {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// Add `coeff * var` to the expression, merging with any existing term.
    pub fn add_term(&mut self, var: Var, coeff: f64) -> &mut Self {
        if coeff != 0.0 {
            let slot = self.terms.entry(var.0).or_insert(0.0);
            *slot += coeff;
            if slot.abs() < f64::EPSILON {
                self.terms.remove(&var.0);
            }
        }
        self
    }

    /// Add a constant to the expression.
    pub fn add_constant(&mut self, c: f64) -> &mut Self {
        self.constant += c;
        self
    }

    /// The coefficient of `var` (0 if absent).
    pub fn coefficient(&self, var: Var) -> f64 {
        self.terms.get(&var.0).copied().unwrap_or(0.0)
    }

    /// The constant offset of the expression.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Number of variables with a non-zero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Iterate over `(variable index, coefficient)` pairs in ascending variable order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.terms.iter().map(|(&i, &c)| (i, c))
    }

    /// Evaluate the expression given a dense assignment of variable values.
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        let mut total = self.constant;
        for (&i, &c) in &self.terms {
            total += c * values[i];
        }
        total
    }

    /// Scale the whole expression by a factor.
    pub fn scale(&mut self, factor: f64) -> &mut Self {
        if factor == 0.0 {
            self.terms.clear();
            self.constant = 0.0;
        } else {
            for c in self.terms.values_mut() {
                *c *= factor;
            }
            self.constant *= factor;
        }
        self
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        let mut e = LinExpr::new();
        e.add_term(v, 1.0);
        e
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant_expr(c)
    }
}

// ---- operator overloading -------------------------------------------------------

impl Add<LinExpr> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (i, c) in rhs.terms {
            let slot = self.terms.entry(i).or_insert(0.0);
            *slot += c;
            if slot.abs() < f64::EPSILON {
                self.terms.remove(&i);
            }
        }
        self.constant += rhs.constant;
        self
    }
}

impl Add<Var> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: Var) -> LinExpr {
        self.add_term(rhs, 1.0);
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl Add<LinExpr> for Var {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Add<Var> for Var {
    type Output = LinExpr;
    fn add(self, rhs: Var) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Add<f64> for Var {
    type Output = LinExpr;
    fn add(self, rhs: f64) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Sub<LinExpr> for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Sub<Var> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: Var) -> LinExpr {
        self.add_term(rhs, -1.0);
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl Sub<Var> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: Var) -> LinExpr {
        LinExpr::from(self) - rhs
    }
}

impl Sub<LinExpr> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) - rhs
    }
}

impl Sub<f64> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: f64) -> LinExpr {
        LinExpr::from(self) - rhs
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.scale(-1.0);
        self
    }
}

impl Neg for Var {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        -LinExpr::from(self)
    }
}

impl Mul<f64> for Var {
    type Output = LinExpr;
    fn mul(self, rhs: f64) -> LinExpr {
        let mut e = LinExpr::new();
        e.add_term(self, rhs);
        e
    }
}

impl Mul<Var> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: Var) -> LinExpr {
        rhs * self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        self.scale(rhs);
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: LinExpr) -> LinExpr {
        rhs * self
    }
}

impl AddAssign<LinExpr> for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        let lhs = std::mem::take(self);
        *self = lhs + rhs;
    }
}

impl AddAssign<Var> for LinExpr {
    fn add_assign(&mut self, rhs: Var) {
        self.add_term(rhs, 1.0);
    }
}

impl SubAssign<LinExpr> for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        let lhs = std::mem::take(self);
        *self = lhs - rhs;
    }
}

impl SubAssign<Var> for LinExpr {
    fn sub_assign(&mut self, rhs: Var) {
        self.add_term(rhs, -1.0);
    }
}

impl std::iter::Sum for LinExpr {
    fn sum<I: Iterator<Item = LinExpr>>(iter: I) -> Self {
        iter.fold(LinExpr::new(), |acc, e| acc + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var(i)
    }

    #[test]
    fn build_and_merge_terms() {
        let mut e = LinExpr::new();
        e.add_term(v(0), 2.0);
        e.add_term(v(1), 3.0);
        e.add_term(v(0), -1.0);
        assert_eq!(e.coefficient(v(0)), 1.0);
        assert_eq!(e.coefficient(v(1)), 3.0);
        assert_eq!(e.num_terms(), 2);
    }

    #[test]
    fn cancelling_terms_are_removed() {
        let mut e = LinExpr::new();
        e.add_term(v(0), 2.0);
        e.add_term(v(0), -2.0);
        assert_eq!(e.num_terms(), 0);
    }

    #[test]
    fn operators_compose() {
        let e = 2.0 * v(0) + 3.0 * v(1) - v(2) + 5.0;
        assert_eq!(e.coefficient(v(0)), 2.0);
        assert_eq!(e.coefficient(v(1)), 3.0);
        assert_eq!(e.coefficient(v(2)), -1.0);
        assert_eq!(e.constant(), 5.0);
    }

    #[test]
    fn negation_and_scaling() {
        let e = -(2.0 * v(0) + 1.0);
        assert_eq!(e.coefficient(v(0)), -2.0);
        assert_eq!(e.constant(), -1.0);
        let scaled = e * 3.0;
        assert_eq!(scaled.coefficient(v(0)), -6.0);
        assert_eq!(scaled.constant(), -3.0);
    }

    #[test]
    fn evaluate_matches_manual_computation() {
        let e = 2.0 * v(0) + 3.0 * v(1) + 4.0;
        let vals = vec![1.5, 2.0];
        assert!((e.evaluate(&vals) - (3.0 + 6.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn sum_of_expressions() {
        let total: LinExpr = (0..4).map(|i| 1.0 * v(i)).sum();
        assert_eq!(total.num_terms(), 4);
        for i in 0..4 {
            assert_eq!(total.coefficient(v(i)), 1.0);
        }
    }

    #[test]
    fn var_minus_var() {
        let e = v(3) - v(4);
        assert_eq!(e.coefficient(v(3)), 1.0);
        assert_eq!(e.coefficient(v(4)), -1.0);
    }
}
