//! Helpers for encoding the polymatroid cone `Γ_n` into a linear program.
//!
//! A polymatroid on `[n]` is encoded with one LP variable per *non-empty*
//! subset of `[n]` (the value on `∅` is identically zero). The cone is cut
//! out by the *elemental* Shannon inequalities, which are known to generate
//! all Shannon inequalities:
//!
//! * monotonicity: `h([n]) − h([n] \ {i}) ≥ 0` for every `i`;
//! * submodularity: `h(X ∪ {i}) + h(X ∪ {j}) − h(X ∪ {i,j}) − h(X) ≥ 0`
//!   for every `X ⊆ [n] \ {i,j}`, `i < j`.
//!
//! Non-negativity comes for free from the LP's `x ≥ 0` variable domain.

use crate::lp::{Lp, Relation};
use cqap_common::{Rat, VarSet};

/// Maps the non-empty subsets of `[n]` to a contiguous block of LP variable
/// indices starting at `base`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PolyVars {
    /// Ground-set size.
    pub n: usize,
    /// First LP variable index of the block.
    pub base: usize,
}

impl PolyVars {
    /// Number of LP variables used by one polymatroid block.
    pub(crate) fn block_len(n: usize) -> usize {
        (1usize << n) - 1
    }

    /// The LP variable index of `h(set)`; `None` for the empty set (whose
    /// value is identically zero and therefore contributes nothing).
    pub(crate) fn var(&self, set: VarSet) -> Option<usize> {
        if set.is_empty() {
            None
        } else {
            let mask = set.0 as usize;
            debug_assert!(mask < (1 << self.n), "set outside the ground set");
            Some(self.base + mask - 1)
        }
    }

    /// Appends `coeff · h(set)` to a constraint row (no-op for `∅`).
    pub(crate) fn push(&self, row: &mut Vec<(usize, Rat)>, coeff: Rat, set: VarSet) {
        if let Some(v) = self.var(set) {
            row.push((v, coeff));
        }
    }

    /// Appends `coeff · h(of | on) = coeff · (h(of ∪ on) − h(on))`.
    pub(crate) fn push_conditional(
        &self,
        row: &mut Vec<(usize, Rat)>,
        coeff: Rat,
        of: VarSet,
        on: VarSet,
    ) {
        self.push(row, coeff, of.union(on));
        self.push(row, -coeff, on);
    }

    /// Adds the elemental polymatroid inequalities for this block to `lp`.
    pub(crate) fn add_polymatroid_constraints(&self, lp: &mut Lp) {
        let full = VarSet::prefix(self.n);
        // Monotonicity at the top: h([n]\{i}) − h([n]) ≤ 0.
        for i in full.iter() {
            let mut row = Vec::with_capacity(2);
            self.push(&mut row, Rat::ONE, full.remove(i));
            self.push(&mut row, -Rat::ONE, full);
            lp.add_constraint(row, Relation::Le, Rat::ZERO);
        }
        // Elemental submodularity:
        // h(X∪{i,j}) + h(X) − h(X∪{i}) − h(X∪{j}) ≤ 0.
        for x in full.subsets() {
            let rest = full.difference(x).to_vec();
            for (a, &i) in rest.iter().enumerate() {
                for &j in &rest[a + 1..] {
                    let mut row = Vec::with_capacity(4);
                    self.push(&mut row, Rat::ONE, x.insert(i).insert(j));
                    self.push(&mut row, Rat::ONE, x);
                    self.push(&mut row, -Rat::ONE, x.insert(i));
                    self.push(&mut row, -Rat::ONE, x.insert(j));
                    lp.add_constraint(row, Relation::Le, Rat::ZERO);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpOutcome;
    use cqap_common::vars;

    #[test]
    fn variable_indexing() {
        let pv = PolyVars { n: 3, base: 10 };
        assert_eq!(PolyVars::block_len(3), 7);
        assert_eq!(pv.var(VarSet::EMPTY), None);
        assert_eq!(pv.var(vars![1]), Some(10));
        assert_eq!(pv.var(vars![1, 2, 3]), Some(16));
    }

    #[test]
    fn conditional_rows() {
        let pv = PolyVars { n: 3, base: 0 };
        let mut row = Vec::new();
        pv.push_conditional(&mut row, Rat::ONE, vars![2], vars![1]);
        // h(12) − h(1).
        assert_eq!(row.len(), 2);
        assert!(row.contains(&(pv.var(vars![1, 2]).unwrap(), Rat::ONE)));
        assert!(row.contains(&(pv.var(vars![1]).unwrap(), -Rat::ONE)));
    }

    #[test]
    fn shannon_basic_inequality_follows_from_elemental() {
        // max h(1) + h(2) - h(12) over the cone is 0 would be wrong — that
        // quantity (the mutual information) is unbounded? No: it is
        // non-negative and can grow with h, so maximizing it is unbounded;
        // instead verify that h(12) ≤ h(1) + h(2) always holds by maximizing
        // h(12) − h(1) − h(2) and checking the optimum is 0.
        let n = 2;
        let mut lp = Lp::new(PolyVars::block_len(n));
        let pv = PolyVars { n, base: 0 };
        pv.add_polymatroid_constraints(&mut lp);
        lp.set_objective(pv.var(vars![1, 2]).unwrap(), Rat::ONE);
        lp.set_objective(pv.var(vars![1]).unwrap(), -Rat::ONE);
        lp.set_objective(pv.var(vars![2]).unwrap(), -Rat::ONE);
        assert_eq!(lp.solve().value(), Some(Rat::ZERO));
    }

    #[test]
    fn monotonicity_follows_for_non_top_sets() {
        // h(1) ≤ h(13) is not an elemental inequality for n = 3, but must
        // follow from the elemental ones: maximize h(1) − h(13) → 0.
        let n = 3;
        let mut lp = Lp::new(PolyVars::block_len(n));
        let pv = PolyVars { n, base: 0 };
        pv.add_polymatroid_constraints(&mut lp);
        lp.set_objective(pv.var(vars![1]).unwrap(), Rat::ONE);
        lp.set_objective(pv.var(vars![1, 3]).unwrap(), -Rat::ONE);
        assert_eq!(lp.solve().value(), Some(Rat::ZERO));
    }

    #[test]
    fn non_shannon_direction_is_unbounded() {
        // Maximizing h(12) alone is unbounded over the cone.
        let n = 2;
        let mut lp = Lp::new(PolyVars::block_len(n));
        let pv = PolyVars { n, base: 0 };
        pv.add_polymatroid_constraints(&mut lp);
        lp.set_objective(pv.var(vars![1, 2]).unwrap(), Rat::ONE);
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
    }
}
