//! Concrete set functions over variable subsets.
//!
//! A [`SetFunction`] assigns a rational value to every subset of `[n]`. It
//! is used to *check* polymatroid properties concretely (property tests of
//! the flow machinery) and to evaluate linear combinations of conditional
//! terms.

use cqap_common::{Rat, VarSet};

/// A set function `h : 2^[n] → Q` with `h(∅) = 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetFunction {
    n: usize,
    values: Vec<Rat>,
}

impl SetFunction {
    /// The zero function on `[n]`.
    pub fn zero(n: usize) -> Self {
        assert!(n <= 20, "set functions are dense in 2^n");
        SetFunction {
            n,
            values: vec![Rat::ZERO; 1 << n],
        }
    }

    /// Builds a set function by evaluating `f` on every subset (the value on
    /// the empty set is forced to zero).
    pub fn from_fn(n: usize, mut f: impl FnMut(VarSet) -> Rat) -> Self {
        assert!(n <= 20);
        let mut values = vec![Rat::ZERO; 1 << n];
        for (mask, slot) in values.iter_mut().enumerate().skip(1) {
            *slot = f(VarSet(mask as u64));
        }
        SetFunction { n, values }
    }

    /// The cardinality function `h(X) = |X|` — the canonical modular
    /// polymatroid.
    pub fn cardinality(n: usize) -> Self {
        SetFunction::from_fn(n, |s| Rat::int(s.len() as i128))
    }

    /// The rank-style function `h(X) = min(|X|, cap)` — a classic
    /// non-modular polymatroid.
    pub fn truncated_cardinality(n: usize, cap: usize) -> Self {
        SetFunction::from_fn(n, |s| Rat::int(s.len().min(cap) as i128))
    }

    /// `h(X)`.
    pub fn eval(&self, set: VarSet) -> Rat {
        let mask = set.0 as usize;
        assert!(mask < self.values.len(), "set outside the ground set");
        self.values[mask]
    }

    /// Sets `h(X) = value`.
    ///
    /// # Panics
    /// Panics when `X = ∅` and `value ≠ 0` (the empty set is pinned to 0).
    pub fn set(&mut self, set: VarSet, value: Rat) {
        if set.is_empty() {
            assert!(value.is_zero(), "h(∅) must stay 0");
            return;
        }
        let mask = set.0 as usize;
        assert!(mask < self.values.len());
        self.values[mask] = value;
    }

    /// Conditional value `h(Y | X) = h(Y ∪ X) − h(X)`.
    pub fn conditional(&self, of: VarSet, on: VarSet) -> Rat {
        self.eval(of.union(on)) - self.eval(on)
    }

    /// Whether the function is non-negative.
    pub fn is_nonnegative(&self) -> bool {
        self.values.iter().all(|v| !v.is_negative())
    }

    /// Whether the function is monotone (`X ⊆ Y ⇒ h(X) ≤ h(Y)`), checked
    /// via the elemental form `h(X) ≤ h(X ∪ {i})`.
    pub fn is_monotone(&self) -> bool {
        let full = VarSet::prefix(self.n);
        full.subsets().all(|x| {
            full.difference(x)
                .iter()
                .all(|i| self.eval(x) <= self.eval(x.insert(i)))
        })
    }

    /// Whether the function is submodular, checked via the elemental form
    /// `h(X∪{i}) + h(X∪{j}) ≥ h(X∪{i,j}) + h(X)`.
    pub fn is_submodular(&self) -> bool {
        let full = VarSet::prefix(self.n);
        for x in full.subsets() {
            let rest = full.difference(x).to_vec();
            for (a, &i) in rest.iter().enumerate() {
                for &j in &rest[a + 1..] {
                    let lhs = self.eval(x.insert(i)) + self.eval(x.insert(j));
                    let rhs = self.eval(x.insert(i).insert(j)) + self.eval(x);
                    if lhs < rhs {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Whether the function is a polymatroid: `h(∅) = 0`, non-negative,
    /// monotone and submodular.
    pub fn is_polymatroid(&self) -> bool {
        self.values[0].is_zero()
            && self.is_nonnegative()
            && self.is_monotone()
            && self.is_submodular()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::rat::rat;
    use cqap_common::vars;
    use proptest::prelude::*;

    #[test]
    fn cardinality_is_polymatroid() {
        let h = SetFunction::cardinality(4);
        assert!(h.is_polymatroid());
        assert_eq!(h.eval(vars![1, 3]), Rat::int(2));
        assert_eq!(h.conditional(vars![2], vars![1, 3]), Rat::ONE);
        assert_eq!(h.conditional(vars![1], vars![1, 3]), Rat::ZERO);
    }

    #[test]
    fn truncated_cardinality_is_polymatroid() {
        for cap in 0..=4 {
            assert!(SetFunction::truncated_cardinality(4, cap).is_polymatroid());
        }
    }

    #[test]
    fn non_monotone_detected() {
        let mut h = SetFunction::cardinality(3);
        h.set(vars![1, 2, 3], Rat::ONE); // below h({1,2}) = 2
        assert!(!h.is_monotone());
        assert!(!h.is_polymatroid());
    }

    #[test]
    fn non_submodular_detected() {
        // h(X) = |X|^2 is supermodular, not submodular.
        let h = SetFunction::from_fn(3, |s| Rat::int((s.len() * s.len()) as i128));
        assert!(h.is_monotone());
        assert!(!h.is_submodular());
    }

    #[test]
    fn set_and_eval_round_trip() {
        let mut h = SetFunction::zero(3);
        h.set(vars![1, 2], rat(3, 2));
        assert_eq!(h.eval(vars![1, 2]), rat(3, 2));
        assert_eq!(h.eval(vars![1]), Rat::ZERO);
        assert_eq!(h.eval(VarSet::EMPTY), Rat::ZERO);
    }

    proptest! {
        /// Random "entropy-like" functions built as minima of weighted
        /// cardinalities are polymatroids.
        #[test]
        fn min_of_modular_functions_is_polymatroid(
            w1 in 0i128..5, w2 in 0i128..5, cap in 0i128..8
        ) {
            let h = SetFunction::from_fn(4, |s| {
                let card = Rat::int(s.len() as i128);
                let weighted = Rat::int(w1) * card + Rat::int(w2);
                weighted.min(Rat::int(cap)).max(Rat::ZERO).min(Rat::int(w1) * card)
            });
            // min(a·|X|, cap-ish) stays submodular & monotone when a ≥ 0.
            prop_assert!(h.is_monotone());
            prop_assert!(h.is_submodular());
        }

        /// Conditional values of a polymatroid are non-negative.
        #[test]
        fn conditionals_nonnegative(cap in 0usize..5) {
            let h = SetFunction::truncated_cardinality(4, cap);
            let full = VarSet::prefix(4);
            for y in full.subsets() {
                for x in y.subsets() {
                    prop_assert!(!h.conditional(y, x).is_negative());
                }
            }
        }
    }
}
