//! The square CQAP index (Example 5.2 / E.5).
//!
//! `φ(x1, x3 | x1, x3) ← R1(x1,x2) ∧ R2(x2,x3) ∧ R3(x3,x4) ∧ R4(x4,x1)`:
//! given two vertices, decide whether they sit on opposite corners of a
//! 4-cycle. The two "sides" of the square are independent 2-path
//! sub-problems — `x1 →_{R1} x2 →_{R2} x3` and `x3 →_{R3} x4 →_{R4} x1` —
//! so the structure is two [`TwoReachIndex`]-style halves and the answer is
//! their conjunction, giving the paper's `S · T² ≾ |D|² · |Q|²` tradeoff.

use crate::kreach::TwoReachIndex;
use cqap_common::Val;
use cqap_query::workload::Graph;

/// A budget-parameterized index for the square CQAP over a single graph
/// (all four atoms read the same edge relation, as in Example E.5).
pub(crate) struct SquareIndex {
    /// The `x1 → x2 → x3` side.
    forward: TwoReachIndex,
    /// The `x3 → x4 → x1` side.
    backward: TwoReachIndex,
}

impl SquareIndex {
    /// Builds the index with a total space budget split evenly across the
    /// two sides of the square.
    pub(crate) fn build(graph: &Graph, budget: usize) -> Self {
        let half = (budget / 2).max(1);
        SquareIndex {
            forward: TwoReachIndex::build(graph, half),
            backward: TwoReachIndex::build(graph, half),
        }
    }

    /// Intrinsic space usage of both halves.
    pub(crate) fn space_used(&self) -> usize {
        self.forward.space_used() + self.backward.space_used()
    }

    /// Whether `(a, c)` are opposite corners of a square: `a` 2-reaches `c`
    /// and `c` 2-reaches `a`.
    pub(crate) fn query(&self, a: Val, c: Val) -> bool {
        self.forward.query(a, c) && self.backward.query(c, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{assert_pairs, bindings, verdicts};
    use cqap_common::work;
    use cqap_decomp::families::pmtds_square;
    use cqap_panda::CqapIndex;
    use cqap_query::families::square;
    use cqap_query::workload::graph_pair_requests;
    use cqap_relation::{Database, Relation};
    use cqap_yannakakis::naive_answer;

    /// The square CQAP's database over one graph: all four atoms read its
    /// edges (Example E.5).
    fn database(graph: &Graph) -> Database {
        let mut db = Database::new();
        for i in 1..=4 {
            let edges = graph.edges.iter().copied();
            db.add_relation(Relation::binary(format!("R{i}"), 0, 1, edges))
                .unwrap();
        }
        db
    }

    #[test]
    fn matches_naive() {
        let g = Graph::skewed(200, 1200, 5, 90, 19);
        let (cqap, db) = (square(true), database(&g));
        let requests = graph_pair_requests(&g, 200, 7);
        let checks = verdicts(&cqap, &db, bindings(&requests), |r| {
            naive_answer(&cqap, &db, r)
        });
        for budget in [2usize, 128, 1 << 14] {
            let idx = SquareIndex::build(&g, budget);
            assert_pairs(&checks, |a, c| idx.query(a, c), &format!("budget {budget}"));
        }
    }

    #[test]
    fn specialized_square_index_agrees_with_framework_driver() {
        let (cqap, pmtds) = pmtds_square().unwrap();
        let graph = Graph::random(40, 250, 31);
        let db = database(&graph);
        let driver = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let specialized = SquareIndex::build(&graph, 1 << 10);
        let requests = graph_pair_requests(&graph, 40, 37);
        let checks = verdicts(&cqap, &db, bindings(&requests), |r| driver.answer(r));
        assert!(checks.iter().any(|(_, held)| *held));
        assert_pairs(&checks, |a, c| specialized.query(a, c), "square");
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
