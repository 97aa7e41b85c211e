//! The square CQAP index (Example 5.2 / E.5).
//!
//! `φ(x1, x3 | x1, x3) ← R1(x1,x2) ∧ R2(x2,x3) ∧ R3(x3,x4) ∧ R4(x4,x1)`:
//! given two vertices, decide whether they sit on opposite corners of a
//! 4-cycle. The two "sides" of the square are independent 2-path
//! sub-problems — `x1 →_{R1} x2 →_{R2} x3` and `x3 →_{R3} x4 →_{R4} x1` —
//! so the structure is two [`TwoReachIndex`]-style halves and the answer is
//! their conjunction, giving the paper's `S · T² ≾ |D|² · |Q|²` tradeoff.

use crate::kreach::{k_reachable_naive, Adjacency, TwoReachIndex};
use cqap_common::Val;
use cqap_query::workload::Graph;

/// A budget-parameterized index for the square CQAP over a single graph
/// (all four atoms read the same edge relation, as in Example E.5).
pub struct SquareIndex {
    /// The `x1 → x2 → x3` side.
    forward: TwoReachIndex,
    /// The `x3 → x4 → x1` side.
    backward: TwoReachIndex,
    adj: Adjacency,
}

impl SquareIndex {
    /// Builds the index with a total space budget split evenly across the
    /// two sides of the square.
    pub fn build(graph: &Graph, budget: usize) -> Self {
        let half = (budget / 2).max(1);
        SquareIndex {
            forward: TwoReachIndex::build(graph, half),
            backward: TwoReachIndex::build(graph, half),
            adj: Adjacency::new(graph),
        }
    }

    /// Intrinsic space usage of both halves.
    pub fn space_used(&self) -> usize {
        self.forward.space_used() + self.backward.space_used()
    }

    /// Whether `(a, c)` are opposite corners of a square: `a` 2-reaches `c`
    /// and `c` 2-reaches `a`.
    pub fn query(&self, a: Val, c: Val) -> bool {
        self.forward.query(a, c) && self.backward.query(c, a)
    }

    /// Reference answer by BFS on both sides.
    pub fn query_naive(&self, a: Val, c: Val) -> bool {
        k_reachable_naive(&self.adj, 2, a, c) && k_reachable_naive(&self.adj, 2, c, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::work;
    use cqap_query::workload::graph_pair_requests;

    #[test]
    fn matches_naive() {
        let g = Graph::skewed(200, 1200, 5, 90, 19);
        for budget in [2usize, 128, 1 << 14] {
            let idx = SquareIndex::build(&g, budget);
            for (a, c) in graph_pair_requests(&g, 200, 7) {
                assert_eq!(idx.query(a, c), idx.query_naive(a, c), "pair ({a},{c})");
            }
        }
    }

    #[test]
    fn finds_a_known_square() {
        // 1 → 2 → 3 → 4 → 1 is a 4-cycle: (1,3) and (2,4) are opposite.
        let g = Graph {
            num_vertices: 6,
            edges: vec![(1, 2), (2, 3), (3, 4), (4, 1), (1, 5)],
        };
        let idx = SquareIndex::build(&g, 64);
        assert!(idx.query(1, 3));
        assert!(idx.query(2, 4));
        assert!(!idx.query(1, 4));
        assert!(!idx.query(1, 5));
    }

    #[test]
    fn tradeoff_direction() {
        let g = Graph::skewed(300, 2000, 6, 150, 23);
        let tight = SquareIndex::build(&g, 2);
        let roomy = SquareIndex::build(&g, 1 << 18);
        assert!(roomy.space_used() >= tight.space_used());
        let requests = graph_pair_requests(&g, 200, 29);
        let work_of = |idx: &SquareIndex| {
            let before = work::total();
            for &(a, c) in &requests {
                idx.query(a, c);
            }
            work::total() - before
        };
        assert!(work_of(&roomy) <= work_of(&tight));
    }
}
