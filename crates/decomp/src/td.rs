//! Rooted tree decompositions (Definition 3.1).

use cqap_common::{CqapError, Result, Var, VarSet};
use cqap_query::Hypergraph;
use std::fmt;

/// A rooted tree decomposition `(T, χ, r)` of a hypergraph.
///
/// Nodes are identified by indices `0..num_nodes()`. The tree is stored via
/// parent pointers oriented away from the root.
#[derive(Clone, PartialEq, Eq)]
pub struct TreeDecomposition {
    bags: Vec<VarSet>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    root: usize,
}

impl TreeDecomposition {
    /// Creates a rooted tree decomposition from bags and parent pointers.
    ///
    /// `parent[i]` is the parent of node `i`, or `None` exactly for the
    /// root. Structural validity (single root, acyclicity, connectivity) is
    /// checked here; validity *with respect to a hypergraph* (edge coverage
    /// and the running-intersection property) is checked by
    /// `TreeDecomposition::validate_for`.
    pub fn new(bags: Vec<VarSet>, parent: Vec<Option<usize>>, root: usize) -> Result<Self> {
        let n = bags.len();
        if n == 0 {
            return Err(CqapError::InvalidDecomposition("no bags".into()));
        }
        if parent.len() != n {
            return Err(CqapError::InvalidDecomposition(
                "parent array length mismatch".into(),
            ));
        }
        if root >= n || parent[root].is_some() {
            return Err(CqapError::InvalidDecomposition(
                "root must exist and have no parent".into(),
            ));
        }
        if parent.iter().filter(|p| p.is_none()).count() != 1 {
            return Err(CqapError::InvalidDecomposition(
                "exactly one node may be the root".into(),
            ));
        }
        let mut children = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                if p >= n {
                    return Err(CqapError::InvalidDecomposition(format!(
                        "node {i} has out-of-range parent {p}"
                    )));
                }
                children[p].push(i);
            }
        }
        let td = TreeDecomposition {
            bags,
            parent,
            children,
            root,
        };
        // Reachability from the root doubles as an acyclicity check: in a
        // graph with n nodes and n-1 parent edges, reaching all nodes from
        // the root implies a tree.
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if seen[t] {
                return Err(CqapError::InvalidDecomposition("cycle detected".into()));
            }
            seen[t] = true;
            stack.extend(td.children[t].iter().copied());
        }
        if seen.iter().any(|s| !s) {
            return Err(CqapError::InvalidDecomposition(
                "tree is not connected".into(),
            ));
        }
        Ok(td)
    }

    /// Convenience constructor for a path-shaped decomposition
    /// `bags[0] → bags[1] → ...` rooted at `bags[0]`.
    pub fn path(bags: Vec<VarSet>) -> Result<Self> {
        let n = bags.len();
        let parent = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        TreeDecomposition::new(bags, parent, 0)
    }

    /// Convenience constructor for a single-bag decomposition.
    pub fn single(bag: VarSet) -> Self {
        TreeDecomposition::new(vec![bag], vec![None], 0).expect("single bag is always valid")
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.bags.len()
    }

    /// The bag `χ(t)`.
    #[inline]
    pub fn bag(&self, t: usize) -> VarSet {
        self.bags[t]
    }

    /// All bags in node order.
    #[inline]
    pub(crate) fn bags(&self) -> &[VarSet] {
        &self.bags
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> usize {
        self.root
    }

    /// The parent of `t` (`None` for the root).
    #[inline]
    pub fn parent(&self, t: usize) -> Option<usize> {
        self.parent[t]
    }

    /// The children of `t`.
    #[inline]
    #[cfg(test)]
    pub(crate) fn children(&self, t: usize) -> &[usize] {
        &self.children[t]
    }

    /// The union of all bags.
    pub fn all_vars(&self) -> VarSet {
        self.bags
            .iter()
            .fold(VarSet::EMPTY, |acc, &b| acc.union(b))
    }

    /// Whether `anc` is a **proper** ancestor of `node`.
    pub(crate) fn is_ancestor(&self, anc: usize, node: usize) -> bool {
        let mut cur = self.parent[node];
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent[p];
        }
        false
    }

    /// The nodes of the subtree rooted at `t` (including `t`), in preorder.
    pub(crate) fn subtree(&self, t: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children[u].iter().copied());
        }
        out
    }

    /// Nodes in a bottom-up order (every node appears after all of its
    /// children) — the traversal order of the semijoin-reduce pass.
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let mut order = self.subtree(self.root);
        order.reverse();
        order
    }

    /// Nodes in a top-down order (every node appears before its children).
    pub fn top_down_order(&self) -> Vec<usize> {
        self.subtree(self.root)
    }

    /// `TOP_r(x)`: the node closest to the root whose bag contains `x`, if
    /// any. With the running-intersection property this is unique.
    pub(crate) fn top(&self, x: Var) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (depth, node)
        for t in 0..self.num_nodes() {
            if self.bags[t].contains(x) {
                let d = self.depth(t);
                match best {
                    Some((bd, _)) if bd <= d => {}
                    _ => best = Some((d, t)),
                }
            }
        }
        best.map(|(_, t)| t)
    }

    /// Depth of a node (root has depth 0).
    pub(crate) fn depth(&self, t: usize) -> usize {
        let mut d = 0;
        let mut cur = self.parent[t];
        while let Some(p) = cur {
            d += 1;
            cur = self.parent[p];
        }
        d
    }

    /// Checks this decomposition against a hypergraph: every hyperedge must
    /// be contained in some bag, every hypergraph vertex must appear in some
    /// bag, and each variable's bags must form a connected subtree (the
    /// running-intersection property).
    pub(crate) fn validate_for(&self, hypergraph: &Hypergraph) -> Result<()> {
        for e in hypergraph.edges() {
            if !self.bags.iter().any(|b| e.is_subset(*b)) {
                return Err(CqapError::InvalidDecomposition(format!(
                    "hyperedge {e} is not contained in any bag"
                )));
            }
        }
        if !hypergraph.vertices().is_subset(self.all_vars()) {
            return Err(CqapError::InvalidDecomposition(
                "some hypergraph vertex appears in no bag".into(),
            ));
        }
        for v in self.all_vars().iter() {
            if !self.variable_connected(v) {
                return Err(CqapError::InvalidDecomposition(format!(
                    "bags containing x{} do not form a connected subtree",
                    v + 1
                )));
            }
        }
        Ok(())
    }

    /// Whether the nodes whose bags contain `v` form a connected subtree.
    fn variable_connected(&self, v: Var) -> bool {
        let holders: Vec<usize> = (0..self.num_nodes())
            .filter(|&t| self.bags[t].contains(v))
            .collect();
        if holders.len() <= 1 {
            return true;
        }
        // In a rooted tree, a set of nodes is connected iff every node of
        // the set except the one closest to the root has its parent in the
        // set.
        let top = self.top(v).expect("v occurs in some bag");
        holders.iter().all(|&t| {
            t == top
                || match self.parent[t] {
                    Some(p) => self.bags[p].contains(v),
                    None => false,
                }
        })
    }

    /// Whether this decomposition is free-connex w.r.t. its root and the
    /// head `H` (Definition 3.1 / reference \[34\]): for every `x ∈ H` and
    /// `y ∈ vars \ H`, `TOP_r(y)` is not a (proper) ancestor of `TOP_r(x)`.
    pub(crate) fn is_free_connex(&self, head: VarSet) -> bool {
        let all = self.all_vars();
        let non_head = all.difference(head);
        for x in head.intersect(all).iter() {
            let tx = self.top(x).expect("x occurs");
            for y in non_head.iter() {
                let ty = self.top(y).expect("y occurs");
                if self.is_ancestor(ty, tx) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether no bag is a subset of another (non-redundant decomposition).
    pub fn is_non_redundant(&self) -> bool {
        for i in 0..self.num_nodes() {
            for j in 0..self.num_nodes() {
                if i != j && self.bags[i].is_subset(self.bags[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether every bag of `self` is a subset of some bag of `other`
    /// (decomposition domination, Section 3).
    pub fn dominated_by(&self, other: &TreeDecomposition) -> bool {
        self.bags
            .iter()
            .all(|b| other.bags.iter().any(|ob| b.is_subset(*ob)))
    }
}

impl fmt::Debug for TreeDecomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TreeDecomposition (root = {}):", self.root)?;
        for t in self.top_down_order() {
            let indent = "  ".repeat(self.depth(t) + 1);
            writeln!(f, "{indent}[{t}] {}", self.bags[t])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;
    use cqap_query::families;

    /// The left decomposition of Figure 1: {x1,x3,x4} → {x1,x2,x3}.
    fn fig1_left() -> TreeDecomposition {
        TreeDecomposition::path(vec![vars![1, 3, 4], vars![1, 2, 3]]).unwrap()
    }

    #[test]
    fn construction_and_navigation() {
        let td = fig1_left();
        assert_eq!(td.num_nodes(), 2);
        assert_eq!(td.root(), 0);
        assert_eq!(td.parent(1), Some(0));
        assert_eq!(td.children(0), &[1]);
        assert_eq!(td.depth(1), 1);
        assert_eq!(td.all_vars(), vars![1, 2, 3, 4]);
        assert!(td.is_ancestor(0, 1));
        assert!(!td.is_ancestor(1, 0));
        assert!(!td.is_ancestor(0, 0));
        assert_eq!(td.bottom_up_order(), vec![1, 0]);
        assert_eq!(td.top_down_order(), vec![0, 1]);
    }

    #[test]
    fn invalid_structures_rejected() {
        // Two roots.
        assert!(TreeDecomposition::new(vec![vars![1], vars![2]], vec![None, None], 0).is_err());
        // Cycle / not reachable from the root.
        assert!(
            TreeDecomposition::new(vec![vars![1], vars![2]], vec![Some(1), None], 0).is_err()
        );
        // Empty.
        assert!(TreeDecomposition::new(vec![], vec![], 0).is_err());
    }

    #[test]
    fn top_computation() {
        let td = fig1_left();
        assert_eq!(td.top(0), Some(0)); // x1 appears in both; top is root
        assert_eq!(td.top(1), Some(1)); // x2 only in child
        assert_eq!(td.top(3), Some(0)); // x4 only in root
        assert_eq!(td.top(9), None);
    }

    #[test]
    fn validation_against_three_path() {
        let q = families::k_path_distinct(3);
        let h = q.hypergraph();
        assert!(fig1_left().validate_for(&h).is_ok());
        // Decomposition missing the edge {x3,x4}.
        let bad = TreeDecomposition::path(vec![vars![1, 2, 3]]).unwrap();
        assert!(bad.validate_for(&h).is_err());
        // Running-intersection violation: x1 in both leaves but not the
        // middle bag.
        let broken = TreeDecomposition::path(vec![vars![1, 2], vars![2, 3], vars![1, 3, 4]])
            .unwrap();
        assert!(broken.validate_for(&h).is_err());
    }

    #[test]
    fn free_connex() {
        // Head {x1,x4}: the Figure 1 decompositions are free-connex.
        let td = fig1_left();
        assert!(td.is_free_connex(vars![1, 4]));
        // Single bag is always free-connex.
        assert!(TreeDecomposition::single(vars![1, 2, 3, 4]).is_free_connex(vars![1, 4]));
        // Root {x2,x3} with child {x1,x2}, head {x1}: TOP(x3) = root is a
        // proper ancestor of TOP(x1) = child, so NOT free-connex.
        let bad = TreeDecomposition::path(vec![vars![2, 3], vars![1, 2]]).unwrap();
        assert!(!bad.is_free_connex(vars![1]));
        // With head {x2} it is fine (TOP(x2) is the root itself).
        assert!(bad.is_free_connex(vars![2]));
    }

    #[test]
    fn redundancy_and_domination() {
        let td = fig1_left();
        assert!(td.is_non_redundant());
        let redundant =
            TreeDecomposition::path(vec![vars![1, 2, 3], vars![1, 2]]).unwrap();
        assert!(!redundant.is_non_redundant());
        let single = TreeDecomposition::single(vars![1, 2, 3, 4]);
        assert!(td.dominated_by(&single));
        assert!(!single.dominated_by(&td));
    }

    #[test]
    fn subtree_enumeration() {
        // A star: root 0 with children 1, 2; node 2 has child 3.
        let td = TreeDecomposition::new(
            vec![vars![1], vars![2], vars![3], vars![4]],
            vec![None, Some(0), Some(0), Some(2)],
            0,
        );
        // This is structurally fine (validation against a hypergraph is a
        // separate concern).
        let td = td.unwrap();
        let mut sub = td.subtree(2);
        sub.sort_unstable();
        assert_eq!(sub, vec![2, 3]);
        assert_eq!(td.subtree(0).len(), 4);
        let bu = td.bottom_up_order();
        let pos = |x: usize| bu.iter().position(|&t| t == x).unwrap();
        assert!(pos(3) < pos(2));
        assert!(pos(1) < pos(0));
        assert!(pos(2) < pos(0));
    }
}
