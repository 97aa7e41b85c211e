//! Query hypergraphs.

use cqap_common::{CqapError, Result, VarSet};
use std::fmt;

/// The hypergraph `H = ([n], E)` associated with a conjunctive query: the
/// vertices are the query variables `0..n` and each atom contributes the
/// hyperedge of its variables.
#[derive(Clone, PartialEq, Eq)]
pub struct Hypergraph {
    num_vars: usize,
    edges: Vec<VarSet>,
}

impl Hypergraph {
    /// Creates a hypergraph over `num_vars` variables with the given edges.
    ///
    /// # Errors
    /// Returns an error if an edge is empty or mentions a variable `≥
    /// num_vars`.
    pub(crate) fn new(num_vars: usize, edges: Vec<VarSet>) -> Result<Self> {
        let universe = VarSet::prefix(num_vars);
        for (i, e) in edges.iter().enumerate() {
            if e.is_empty() {
                return Err(CqapError::InvalidQuery(format!("edge {i} is empty")));
            }
            if !e.is_subset(universe) {
                return Err(CqapError::InvalidQuery(format!(
                    "edge {i} = {e} mentions a variable outside [{num_vars}]"
                )));
            }
        }
        Ok(Hypergraph { num_vars, edges })
    }

    /// Number of vertices (variables).
    #[inline]
    #[cfg(test)]
    pub(crate) fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The full vertex set `[n]`.
    #[inline]
    pub fn vertices(&self) -> VarSet {
        VarSet::prefix(self.num_vars)
    }

    /// The hyperedges, in atom order.
    #[inline]
    pub fn edges(&self) -> &[VarSet] {
        &self.edges
    }

    /// Number of hyperedges.
    #[inline]
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H([{}], {{", self.num_vars)?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;

    fn three_path() -> Hypergraph {
        // R1(x1,x2), R2(x2,x3), R3(x3,x4)
        Hypergraph::new(4, vec![vars![1, 2], vars![2, 3], vars![3, 4]]).unwrap()
    }

    #[test]
    fn construction_and_validation() {
        let h = three_path();
        assert_eq!(h.num_vars(), 4);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.vertices(), vars![1, 2, 3, 4]);
        assert!(Hypergraph::new(2, vec![VarSet::EMPTY]).is_err());
        assert!(Hypergraph::new(2, vec![vars![1, 3]]).is_err());
    }

    #[test]
    fn debug_format() {
        let h = three_path();
        let s = format!("{h:?}");
        assert!(s.contains("{x1,x2}"));
        assert!(s.contains("{x3,x4}"));
    }
}
