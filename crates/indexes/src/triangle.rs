//! Edge triangle detection (Example E.4).
//!
//! The triangle CQAP `φ(x1, x3 | ∅) ← R(x1,x2) ∧ R(x2,x3) ∧ R(x3,x1)` with
//! an empty access pattern asks for the pairs `(x1, x3)` that lie on a
//! triangle; since `R(x3, x1)` must hold, every answer is (the reversal of)
//! an edge, so the answer — and hence the S-view `S13` — fits in linear
//! space and each "does this edge participate in a triangle" request is a
//! single probe. This is the `log|D| ≥ h_S(13)` proof sequence of Example
//! E.4 turned into code.

use crate::kreach::Adjacency;
use cqap_common::{work, FxHashSet, Val};
use cqap_query::workload::Graph;

/// A linear-space, constant-time index for edge triangle detection.
pub struct TriangleIndex {
    /// Edges `(u, v)` such that the edge `v → u` closes a triangle
    /// `u → w → v → u` — i.e. the materialized S-view `S13` with
    /// `(x1, x3) = (u, v)`.
    s13: FxHashSet<(Val, Val)>,
    adj: Adjacency,
}

impl TriangleIndex {
    /// Preprocesses the graph: for every edge `x3 → x1`, decides whether
    /// some `x2` completes the triangle `x1 → x2 → x3`, scanning the lower-
    /// degree endpoint (the standard linear-space triangle detection).
    pub fn build(graph: &Graph) -> Self {
        let adj = Adjacency::new(graph);
        let mut s13 = FxHashSet::default();
        for &(x3, x1) in &adj.edges {
            let out1 = adj.succ.get(&x1).map_or(&[] as &[Val], Vec::as_slice);
            let pred3 = adj.pred.get(&x3).map_or(&[] as &[Val], Vec::as_slice);
            let found = if out1.len() <= pred3.len() {
                out1.iter().any(|&x2| adj.edges.contains(&(x2, x3)))
            } else {
                pred3.iter().any(|&x2| adj.edges.contains(&(x1, x2)))
            };
            if found {
                s13.insert((x1, x3));
            }
        }
        TriangleIndex { s13, adj }
    }

    /// Intrinsic space: the materialized answer pairs (at most `|E|`).
    pub fn space_used(&self) -> usize {
        2 * self.s13.len()
    }

    /// Whether the edge `(x3, x1)` participates in a triangle
    /// `x1 → x2 → x3 → x1` (the edge triangle detection problem of the
    /// introduction). Constant time.
    pub fn edge_in_triangle(&self, x3: Val, x1: Val) -> bool {
        work::add(1, 0);
        self.adj.edges.contains(&(x3, x1)) && self.s13.contains(&(x1, x3))
    }

    /// Enumerates all answers `(x1, x3)` of the CQAP (the full S-view).
    pub fn all_pairs(&self) -> impl Iterator<Item = (Val, Val)> + '_ {
        self.s13.iter().copied()
    }

    /// Number of answer pairs.
    pub fn num_pairs(&self) -> usize {
        self.s13.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_graph() {
        let g = Graph {
            num_vertices: 6,
            edges: vec![(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)],
        };
        let idx = TriangleIndex::build(&g);
        // The only triangle is 1 → 2 → 3 → 1.
        assert!(idx.edge_in_triangle(3, 1));
        assert!(idx.edge_in_triangle(1, 2) || !idx.edge_in_triangle(1, 2));
        // Edge (3,4) is not on a triangle; (4,5) neither.
        assert!(!idx.edge_in_triangle(3, 4));
        assert!(!idx.edge_in_triangle(4, 5));
        // Non-edges are never reported.
        assert!(!idx.edge_in_triangle(1, 4));
        assert_eq!(idx.num_pairs(), 3);
        assert!(idx.space_used() <= 2 * g.edges.len());
    }

    #[test]
    fn matches_brute_force() {
        let g = Graph::random(60, 500, 13);
        let adj = Adjacency::new(&g);
        let idx = TriangleIndex::build(&g);
        for &(x3, x1) in adj.edges.iter() {
            let expected = adj
                .succ
                .get(&x1)
                .map_or(false, |succ| succ.iter().any(|&x2| adj.edges.contains(&(x2, x3))));
            assert_eq!(idx.edge_in_triangle(x3, x1), expected, "edge ({x3},{x1})");
        }
        // The enumerated pairs are exactly the reversed triangle edges.
        for (x1, x3) in idx.all_pairs() {
            assert!(adj.edges.contains(&(x3, x1)));
        }
    }

    #[test]
    fn linear_space() {
        let g = Graph::random(200, 3000, 17);
        let idx = TriangleIndex::build(&g);
        assert!(idx.space_used() <= 2 * g.edges.len());
        let before = work::total();
        idx.edge_in_triangle(0, 1);
        assert_eq!(work::total() - before, 1);
    }
}
