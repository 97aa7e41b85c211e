//! Degree and cardinality constraints (Section 2 of the paper).
//!
//! A degree constraint is a triple `(X, Y, N_{Y|X})` with `X ⊂ Y ⊆ [n]`
//! asserting that for every binding `t_X` of the variables `X`, at most
//! `N_{Y|X}` distinct `Y`-projections extend it in the guarding relation.
//! A *cardinality constraint* is the special case `X = ∅`, i.e. `|R_Y| ≤ N`.
//!
//! [`ConstraintSet`] maintains the paper's *best constraints assumption*:
//! for any `(X, Y)` pair it keeps only the smallest bound.

use crate::relation::Relation;
use cqap_common::{CqapError, FxHashMap, Result, VarSet};
use std::fmt;

/// A degree constraint `(X, Y, N_{Y|X})`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DegreeConstraint {
    /// The conditioning variables `X` (may be empty for a cardinality
    /// constraint).
    pub on: VarSet,
    /// The constrained variables `Y ⊃ X`.
    pub of: VarSet,
    /// The bound `N_{Y|X}`.
    pub bound: u64,
}

impl DegreeConstraint {
    /// Creates a degree constraint.
    ///
    /// # Errors
    /// Returns an error unless `X ⊂ Y` (strictly).
    pub fn new(on: VarSet, of: VarSet, bound: u64) -> Result<Self> {
        if !on.is_strict_subset(of) {
            return Err(CqapError::InvalidQuery(format!(
                "degree constraint requires X ⊂ Y, got X={on}, Y={of}"
            )));
        }
        Ok(DegreeConstraint { on, of, bound })
    }

    /// A cardinality constraint `|R_Y| ≤ bound`.
    pub fn cardinality(of: VarSet, bound: u64) -> Self {
        DegreeConstraint {
            on: VarSet::EMPTY,
            of,
            bound,
        }
    }

    /// Whether this is a cardinality constraint (`X = ∅`).
    #[inline]
    pub fn is_cardinality(&self) -> bool {
        self.on.is_empty()
    }
}

impl fmt::Debug for DegreeConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for DegreeConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_cardinality() {
            write!(f, "|R_{}| ≤ {}", self.of, self.bound)
        } else {
            write!(f, "deg({} | {}) ≤ {}", self.of, self.on, self.bound)
        }
    }
}

/// A set of degree constraints under the best-constraint assumption.
#[derive(Clone, Default)]
pub struct ConstraintSet {
    by_pair: FxHashMap<(VarSet, VarSet), u64>,
}

impl ConstraintSet {
    /// An empty constraint set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Adds a constraint, keeping the minimum bound for each `(X, Y)` pair
    /// (best-constraint assumption).
    pub fn add(&mut self, c: DegreeConstraint) {
        self.by_pair
            .entry((c.on, c.of))
            .and_modify(|b| *b = (*b).min(c.bound))
            .or_insert(c.bound);
    }

    /// Adds a cardinality constraint for the full variable set of a relation.
    pub fn add_cardinality(&mut self, of: VarSet, bound: u64) {
        self.add(DegreeConstraint::cardinality(of, bound));
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.by_pair.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.by_pair.is_empty()
    }

    /// The bound for a specific `(X, Y)` pair, if any.
    pub fn bound(&self, on: VarSet, of: VarSet) -> Option<u64> {
        self.by_pair.get(&(on, of)).copied()
    }

    /// The cardinality bound on `Y`, if any.
    pub fn cardinality_of(&self, of: VarSet) -> Option<u64> {
        self.bound(VarSet::EMPTY, of)
    }

    /// Iterates over the constraints (in unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = DegreeConstraint> + '_ {
        self.by_pair
            .iter()
            .map(|(&(on, of), &bound)| DegreeConstraint { on, of, bound })
    }

    /// Iterates over the constraints sorted by `(Y, X)` for deterministic
    /// output (used when building LPs so test results are stable).
    pub fn iter_sorted(&self) -> Vec<DegreeConstraint> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_by_key(|c| (c.of.0, c.on.0, c.bound));
        v
    }

    /// Merges another constraint set into this one.
    pub fn merge(&mut self, other: &ConstraintSet) {
        for c in other.iter() {
            self.add(c);
        }
    }

    /// Infers the full set of degree constraints actually satisfied by a
    /// relation: one constraint for every pair `X ⊂ Y ⊆ vars(R)`, with the
    /// measured max degree as the bound. This is how workload generators
    /// produce the `DC` input of the framework without hand-writing
    /// statistics.
    pub fn infer_from(rel: &Relation) -> Result<Self> {
        let mut set = ConstraintSet::new();
        let full = rel.varset();
        for y in full.subsets() {
            if y.is_empty() {
                continue;
            }
            for x in y.subsets() {
                if x == y {
                    continue;
                }
                let deg = rel.max_degree(x, y)? as u64;
                set.add(DegreeConstraint {
                    on: x,
                    of: y,
                    bound: deg,
                });
            }
        }
        Ok(set)
    }
}

impl fmt::Debug for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut cs = self.iter_sorted();
        cs.sort_by_key(|c| (c.of.0, c.on.0));
        f.debug_set().entries(cs).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use cqap_common::vars;

    #[test]
    fn constructor_validation() {
        assert!(DegreeConstraint::new(vars![1], vars![1, 2], 5).is_ok());
        assert!(DegreeConstraint::new(vars![1, 2], vars![1, 2], 5).is_err());
        assert!(DegreeConstraint::new(vars![3], vars![1, 2], 5).is_err());
    }

    #[test]
    fn best_constraint_assumption() {
        let mut cs = ConstraintSet::new();
        cs.add(DegreeConstraint::new(vars![1], vars![1, 2], 10).unwrap());
        cs.add(DegreeConstraint::new(vars![1], vars![1, 2], 4).unwrap());
        cs.add(DegreeConstraint::new(vars![1], vars![1, 2], 7).unwrap());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.bound(vars![1], vars![1, 2]), Some(4));
    }

    #[test]
    fn infer_from_relation() {
        let r = Relation::binary("R", 0, 1, [(1, 10), (1, 11), (1, 12), (2, 10)]);
        let cs = ConstraintSet::infer_from(&r).unwrap();
        // |R| = 4
        assert_eq!(cs.cardinality_of(vars![1, 2]), Some(4));
        // distinct x1 = 2, distinct x2 = 3
        assert_eq!(cs.cardinality_of(vars![1]), Some(2));
        assert_eq!(cs.cardinality_of(vars![2]), Some(3));
        // max out-degree = 3, max in-degree = 2
        assert_eq!(cs.bound(vars![1], vars![1, 2]), Some(3));
        assert_eq!(cs.bound(vars![2], vars![1, 2]), Some(2));
    }

    #[test]
    fn merge_keeps_minimum() {
        let mut a = ConstraintSet::new();
        a.add_cardinality(vars![1, 2], 100);
        let mut b = ConstraintSet::new();
        b.add_cardinality(vars![1, 2], 50);
        b.add_cardinality(vars![3], 7);
        a.merge(&b);
        assert_eq!(a.cardinality_of(vars![1, 2]), Some(50));
        assert_eq!(a.cardinality_of(vars![3]), Some(7));
    }

    #[test]
    fn display() {
        let c = DegreeConstraint::cardinality(vars![1, 2], 9);
        assert!(c.to_string().contains("≤ 9"));
        let d = DegreeConstraint::new(vars![1], vars![1, 2], 3).unwrap();
        assert!(d.to_string().contains("deg"));
    }
}
