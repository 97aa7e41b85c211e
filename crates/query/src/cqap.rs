//! Conjunctive queries with access patterns (CQAPs).

use crate::cq::ConjunctiveQuery;
use cqap_common::{CqapError, Result, Tuple, Val, VarSet};
use std::fmt;

/// A CQAP `φ(x_H | x_A) ← ⋀_F R_F(x_F)` (Definition 2.1): a conjunctive
/// query whose result is accessed through bindings of the access-pattern
/// variables `A`.
///
/// The paper assumes w.l.o.g. that `H ⊇ A` (Section 2.2): if a CQAP is
/// declared with `H ⊉ A`, [`Cqap::new`] replaces the head by `H ∪ A` and
/// records that the caller should project the final answers back onto the
/// original head.
#[derive(Clone, PartialEq, Eq)]
pub struct Cqap {
    cq: ConjunctiveQuery,
    access: VarSet,
    /// The head as originally declared (before the `H ∪ A` normalization).
    declared_head: VarSet,
}

impl Cqap {
    /// Creates a CQAP from a CQ and an access pattern.
    ///
    /// # Errors
    /// Returns an error if the access pattern mentions unknown variables.
    pub fn new(cq: ConjunctiveQuery, access: VarSet) -> Result<Self> {
        if !access.is_subset(cq.all_vars()) {
            return Err(CqapError::InvalidQuery(format!(
                "access pattern {access} mentions a variable outside the query"
            )));
        }
        let declared_head = cq.head();
        let cq = if access.is_subset(cq.head()) {
            cq
        } else {
            let head = cq.head().union(access);
            cq.with_head(head)?
        };
        Ok(Cqap {
            cq,
            access,
            declared_head,
        })
    }

    /// The underlying (normalized) conjunctive query, with `H ⊇ A`.
    pub fn cq(&self) -> &ConjunctiveQuery {
        &self.cq
    }

    /// The access pattern `A`.
    pub fn access(&self) -> VarSet {
        self.access
    }

    /// The (normalized) head `H ⊇ A`.
    pub fn head(&self) -> VarSet {
        self.cq.head()
    }

    /// The head as originally declared (answers should be projected onto
    /// this set when it differs from [`Cqap::head`]).
    pub fn declared_head(&self) -> VarSet {
        self.declared_head
    }

    /// Whether the CQAP is Boolean *given* its access pattern (no output
    /// variables besides the access variables).
    #[cfg(test)]
    pub(crate) fn is_boolean_given_access(&self) -> bool {
        self.declared_head.is_subset(self.access)
    }

    /// Shorthand: the query hypergraph.
    pub fn hypergraph(&self) -> crate::hypergraph::Hypergraph {
        self.cq.hypergraph()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.cq.num_vars()
    }
}

impl fmt::Debug for Cqap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Cqap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.cq.name())?;
        for (i, v) in self.head().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{}", v + 1)?;
        }
        write!(f, " | ")?;
        for (i, v) in self.access.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{}", v + 1)?;
        }
        write!(f, ") ← ")?;
        for (i, a) in self.cq.atoms().iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// An access request `Q_A`: a set of bindings for the access-pattern
/// variables. The most common case (`|Q_A| = 1`) is a single lookup key; a
/// larger request batches several lookups (Section 2.1).
///
/// `Hash` is derived so requests can key answer caches (the serving
/// runtime's LRU cache is keyed by the `(access, tuples)` pair).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AccessRequest {
    access: VarSet,
    tuples: Vec<Tuple>,
}

impl AccessRequest {
    /// Creates an access request over the access variables `access`; each
    /// tuple binds those variables in ascending variable order.
    ///
    /// # Errors
    /// Returns an error if a tuple's arity differs from `|access|`.
    pub fn new(access: VarSet, tuples: Vec<Tuple>) -> Result<Self> {
        for t in &tuples {
            if t.arity() != access.len() {
                return Err(CqapError::AccessPatternMismatch {
                    expected_arity: access.len(),
                    found_arity: t.arity(),
                });
            }
        }
        Ok(AccessRequest { access, tuples })
    }

    /// A single-binding request (the `|Q_A| = 1` case of prior work).
    pub fn single(access: VarSet, vals: &[Val]) -> Result<Self> {
        AccessRequest::new(access, vec![Tuple::from_slice(vals)])
    }

    /// The access variables.
    pub fn access(&self) -> VarSet {
        self.access
    }

    /// The bindings.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of bindings `|Q_A|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the request is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Materializes the request as a relation named `Q_A` over the access
    /// variables, so it can participate in joins.
    pub fn as_relation(&self) -> cqap_relation::Relation {
        let schema = cqap_relation::Schema::of(self.access.iter());
        cqap_relation::Relation::from_tuples("Q_A", schema, self.tuples.iter().cloned())
            .expect("arity validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::Atom;
    use cqap_common::vars;

    fn three_path_cqap() -> Cqap {
        let cq = ConjunctiveQuery::new(
            "phi3",
            4,
            vec![
                Atom::new("R1", vec![0, 1]).unwrap(),
                Atom::new("R2", vec![1, 2]).unwrap(),
                Atom::new("R3", vec![2, 3]).unwrap(),
            ],
            vars![1, 4],
        )
        .unwrap();
        Cqap::new(cq, vars![1, 4]).unwrap()
    }

    #[test]
    fn construction() {
        let q = three_path_cqap();
        assert_eq!(q.access(), vars![1, 4]);
        assert_eq!(q.head(), vars![1, 4]);
        assert!(q.is_boolean_given_access());
    }

    #[test]
    fn head_normalization() {
        // Head {x5} with access {x1,...,x4}: H ⊉ A, so the head becomes
        // H ∪ A and the declared head is remembered.
        let cq = ConjunctiveQuery::new(
            "kset",
            5,
            vec![
                Atom::new("R", vec![4, 0]).unwrap(),
                Atom::new("R", vec![4, 1]).unwrap(),
                Atom::new("R", vec![4, 2]).unwrap(),
                Atom::new("R", vec![4, 3]).unwrap(),
            ],
            vars![5],
        )
        .unwrap();
        let q = Cqap::new(cq, vars![1, 2, 3, 4]).unwrap();
        assert_eq!(q.head(), vars![1, 2, 3, 4, 5]);
        assert_eq!(q.declared_head(), vars![5]);
        assert!(!q.is_boolean_given_access());
    }

    #[test]
    fn invalid_access_pattern() {
        let cq = ConjunctiveQuery::new(
            "q",
            2,
            vec![Atom::new("R", vec![0, 1]).unwrap()],
            vars![1, 2],
        )
        .unwrap();
        assert!(Cqap::new(cq, vars![5]).is_err());
    }

    #[test]
    fn access_request() {
        let req = AccessRequest::single(vars![1, 4], &[10, 20]).unwrap();
        assert_eq!(req.len(), 1);
        assert_eq!(req.access(), vars![1, 4]);
        let rel = req.as_relation();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.schema().vars(), &[0, 3]);

        assert!(AccessRequest::single(vars![1, 4], &[10]).is_err());
    }

    #[test]
    fn display() {
        let q = three_path_cqap();
        let s = q.to_string();
        assert!(s.contains("(x1,x4 | x1,x4)"));
        assert!(s.contains("R2(x2,x3)"));
    }
}
