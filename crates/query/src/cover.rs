//! Fractional edge covers and slack (Section 6.2).

use crate::hypergraph::Hypergraph;
use cqap_common::{CqapError, Rat, Result, VarSet};

/// A fractional edge cover `u = (u_F)_{F ∈ E}` of a hypergraph: one
/// non-negative rational weight per edge.
///
/// The cover *covers* a set `S` when `Σ_{F ∋ i} u_F ≥ 1` for every `i ∈ S`.
/// Its *slack* w.r.t. a set `A` (Section 6.2) is
/// `α(u, A) = min_{i ∉ A} Σ_{F ∋ i} u_F` — the factor by which the cover can
/// be scaled down while still covering the variables outside `A`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FractionalEdgeCover {
    weights: Vec<Rat>,
}

impl FractionalEdgeCover {
    /// Creates a cover from per-edge weights (in hypergraph edge order).
    ///
    /// # Errors
    /// Returns an error if a weight is negative or the number of weights
    /// differs from the number of edges.
    pub fn new(hypergraph: &Hypergraph, weights: Vec<Rat>) -> Result<Self> {
        if weights.len() != hypergraph.num_edges() {
            return Err(CqapError::InvalidQuery(format!(
                "expected {} edge weights, got {}",
                hypergraph.num_edges(),
                weights.len()
            )));
        }
        if weights.iter().any(|w| w.is_negative()) {
            return Err(CqapError::InvalidQuery(
                "edge cover weights must be non-negative".into(),
            ));
        }
        Ok(FractionalEdgeCover { weights })
    }

    /// Weight of edge `i`.
    pub fn weight(&self, i: usize) -> Rat {
        self.weights[i]
    }

    /// All weights.
    pub fn weights(&self) -> &[Rat] {
        &self.weights
    }

    /// The coverage of a single variable: `Σ_{F ∋ v} u_F`.
    pub fn coverage(&self, hypergraph: &Hypergraph, v: usize) -> Rat {
        hypergraph
            .edges()
            .iter()
            .zip(&self.weights)
            .filter(|(e, _)| e.contains(v))
            .fold(Rat::ZERO, |acc, (_, &w)| acc + w)
    }

    /// Whether the cover covers every variable of `set` (each with total
    /// incident weight ≥ 1).
    pub fn covers(&self, hypergraph: &Hypergraph, set: VarSet) -> bool {
        set.iter()
            .all(|v| self.coverage(hypergraph, v) >= Rat::ONE)
    }

    /// The slack `α(u, A) = min_{v ∉ A} Σ_{F ∋ v} u_F` (Section 6.2). When
    /// every variable is in `A`, the slack is defined here as `+∞`
    /// represented by `None`.
    pub fn slack(&self, hypergraph: &Hypergraph, access: VarSet) -> Option<Rat> {
        hypergraph
            .vertices()
            .difference(access)
            .iter()
            .map(|v| self.coverage(hypergraph, v))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::rat::rat;
    use cqap_common::vars;

    /// The k-set-disjointness hypergraph for k = 3:
    /// R(y,x1), R(y,x2), R(y,x3) with y = x4.
    fn kset3() -> Hypergraph {
        Hypergraph::new(4, vec![vars![4, 1], vars![4, 2], vars![4, 3]]).unwrap()
    }

    #[test]
    fn validation() {
        let h = kset3();
        assert!(FractionalEdgeCover::new(&h, vec![Rat::ONE; 2]).is_err());
        assert!(FractionalEdgeCover::new(&h, vec![Rat::ONE, Rat::ONE, rat(-1, 2)]).is_err());
        assert!(FractionalEdgeCover::new(&h, vec![Rat::ONE; 3]).is_ok());
    }

    #[test]
    fn coverage_and_covers() {
        let h = kset3();
        let u = FractionalEdgeCover::new(&h, vec![Rat::ONE; 3]).unwrap();
        // y = x4 appears in all three edges.
        assert_eq!(u.coverage(&h, 3), Rat::int(3));
        assert_eq!(u.coverage(&h, 0), Rat::ONE);
        assert!(u.covers(&h, vars![1, 2, 3, 4]));

        let half = FractionalEdgeCover::new(&h, vec![rat(1, 2); 3]).unwrap();
        assert!(!half.covers(&h, vars![1]));
        assert!(half.covers(&h, vars![4]));
    }

    #[test]
    fn slack_matches_example_62() {
        // Example 6.2: for k-set disjointness with u_j = 1 for all j, the
        // slack w.r.t. [k] (the access variables x1..xk) is k, because only
        // y = x_{k+1} is outside A and it is covered k times.
        let h = kset3();
        let u = FractionalEdgeCover::new(&h, vec![Rat::ONE; 3]).unwrap();
        assert_eq!(u.slack(&h, vars![1, 2, 3]), Some(Rat::int(3)));
        // Weight 1/3 per edge (the cover scaled by the slack) still covers y.
        let scaled = FractionalEdgeCover::new(&h, vec![rat(1, 3); 3]).unwrap();
        assert_eq!(scaled.weight(0), rat(1, 3));
        assert!(scaled.covers(&h, vars![4]));
    }

    #[test]
    fn slack_on_path_query() {
        // 3-path R1(x1,x2), R2(x2,x3), R3(x3,x4), A = {x1,x4}.
        let h = Hypergraph::new(4, vec![vars![1, 2], vars![2, 3], vars![3, 4]]).unwrap();
        let u = FractionalEdgeCover::new(&h, vec![Rat::ONE; 3]).unwrap();
        // x2 and x3 are each covered twice, so the slack is 2.
        assert_eq!(u.slack(&h, vars![1, 4]), Some(Rat::int(2)));
        // With all variables in A the slack is undefined.
        assert_eq!(u.slack(&h, vars![1, 2, 3, 4]), None);
    }

    #[test]
    fn zero_slack_scaling() {
        let h = Hypergraph::new(2, vec![vars![1], vars![2]]).unwrap();
        let u = FractionalEdgeCover::new(&h, vec![Rat::ONE, Rat::ZERO]).unwrap();
        // x2's coverage is 0 so the slack w.r.t. {x1} is 0: no scaling exists.
        assert_eq!(u.slack(&h, vars![1]), Some(Rat::ZERO));
    }
}
