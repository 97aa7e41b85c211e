//! Conjunctive queries.

use crate::hypergraph::Hypergraph;
use cqap_common::{CqapError, Result, Var, VarSet};
use std::fmt;

/// An atom `R(x_{i1}, ..., x_{ik})` of a conjunctive query: a relation name
/// plus an ordered list of variables. Repeated variables inside an atom are
/// not supported (none of the paper's queries need them); different atoms
/// may refer to the same relation name (self-joins), as in the k-path query
/// over a single edge relation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Name of the relation this atom reads.
    pub relation: String,
    /// Ordered variables of the atom.
    pub vars: Vec<Var>,
}

impl Atom {
    /// Creates an atom.
    ///
    /// # Errors
    /// Returns an error if a variable is repeated.
    pub fn new(relation: impl Into<String>, vars: Vec<Var>) -> Result<Self> {
        let mut seen = VarSet::EMPTY;
        for &v in &vars {
            if seen.contains(v) {
                return Err(CqapError::InvalidQuery(format!(
                    "repeated variable x{} in atom",
                    v + 1
                )));
            }
            seen = seen.insert(v);
        }
        Ok(Atom {
            relation: relation.into(),
            vars,
        })
    }

    /// The variables of the atom as a set.
    pub fn varset(&self) -> VarSet {
        VarSet::from_iter(self.vars.iter().copied())
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{}", v + 1)?;
        }
        write!(f, ")")
    }
}

/// A conjunctive query `φ(x_H) ← ⋀_{F ∈ E} R_F(x_F)` over variables
/// `0..num_vars` with head variables `H`.
#[derive(Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    name: String,
    num_vars: usize,
    atoms: Vec<Atom>,
    head: VarSet,
}

impl ConjunctiveQuery {
    /// Creates a conjunctive query.
    ///
    /// # Errors
    /// Returns an error if the head or an atom mentions a variable `≥
    /// num_vars`, if a body variable never occurs in an atom, or if the
    /// body is empty.
    pub fn new(
        name: impl Into<String>,
        num_vars: usize,
        atoms: Vec<Atom>,
        head: VarSet,
    ) -> Result<Self> {
        if atoms.is_empty() {
            return Err(CqapError::InvalidQuery("query has no atoms".into()));
        }
        let universe = VarSet::prefix(num_vars);
        if !head.is_subset(universe) {
            return Err(CqapError::InvalidQuery(format!(
                "head {head} mentions a variable outside [{num_vars}]"
            )));
        }
        let mut covered = VarSet::EMPTY;
        for a in &atoms {
            let vs = a.varset();
            if !vs.is_subset(universe) {
                return Err(CqapError::InvalidQuery(format!(
                    "atom {a} mentions a variable outside [{num_vars}]"
                )));
            }
            covered = covered.union(vs);
        }
        if covered != universe {
            return Err(CqapError::InvalidQuery(format!(
                "variables {} never occur in the body",
                universe.difference(covered)
            )));
        }
        Ok(ConjunctiveQuery {
            name: name.into(),
            num_vars,
            atoms,
            head,
        })
    }

    /// The query's name (used in printed reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// All variables `[n]`.
    pub(crate) fn all_vars(&self) -> VarSet {
        VarSet::prefix(self.num_vars)
    }

    /// The atoms of the body.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The head variables `H`.
    pub(crate) fn head(&self) -> VarSet {
        self.head
    }

    /// The query hypergraph (one edge per atom).
    pub(crate) fn hypergraph(&self) -> Hypergraph {
        Hypergraph::new(self.num_vars, self.atoms.iter().map(Atom::varset).collect())
            .expect("atoms validated at construction")
    }

    /// The distinct relation names referenced by the body.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.atoms.iter().map(|a| a.relation.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Returns a copy of the query with a different head.
    pub(crate) fn with_head(&self, head: VarSet) -> Result<Self> {
        ConjunctiveQuery::new(self.name.clone(), self.num_vars, self.atoms.clone(), head)
    }

    /// Whether the query is *hierarchical*: for any two variables, the sets
    /// of atoms containing them are either disjoint or one contains the
    /// other (Appendix F).
    #[cfg(test)]
    pub(crate) fn is_hierarchical(&self) -> bool {
        let atom_sets: Vec<VarSet> = self.atoms.iter().map(Atom::varset).collect();
        let atoms_of = |v: Var| -> u64 {
            let mut mask = 0u64;
            for (i, a) in atom_sets.iter().enumerate() {
                if a.contains(v) {
                    mask |= 1 << i;
                }
            }
            mask
        };
        let vars: Vec<Var> = self.all_vars().to_vec();
        for (i, &u) in vars.iter().enumerate() {
            for &v in &vars[i + 1..] {
                let a = atoms_of(u);
                let b = atoms_of(v);
                let disjoint = a & b == 0;
                let contained = a & b == a || a & b == b;
                if !(disjoint || contained) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{}", v + 1)?;
        }
        write!(f, ") ← ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;

    fn two_path() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            "phi2",
            3,
            vec![
                Atom::new("R1", vec![0, 1]).unwrap(),
                Atom::new("R2", vec![1, 2]).unwrap(),
            ],
            vars![1, 3],
        )
        .unwrap()
    }

    #[test]
    fn atom_validation() {
        assert!(Atom::new("R", vec![0, 0]).is_err());
        let a = Atom::new("R", vec![2, 0]).unwrap();
        assert_eq!(a.varset(), vars![1, 3]);
        assert_eq!(a.arity(), 2);
        assert_eq!(a.to_string(), "R(x3,x1)");
    }

    #[test]
    fn cq_validation() {
        assert!(two_path().head().contains(0));
        // head out of range
        assert!(ConjunctiveQuery::new(
            "q",
            2,
            vec![Atom::new("R", vec![0, 1]).unwrap()],
            vars![3]
        )
        .is_err());
        // uncovered variable
        assert!(ConjunctiveQuery::new(
            "q",
            3,
            vec![Atom::new("R", vec![0, 1]).unwrap()],
            vars![1]
        )
        .is_err());
        // empty body
        assert!(ConjunctiveQuery::new("q", 0, vec![], VarSet::EMPTY).is_err());
    }

    #[test]
    fn full_and_boolean() {
        let q = two_path();
        assert_ne!(q.head(), q.all_vars());
        let full = q.with_head(vars![1, 2, 3]).unwrap();
        assert_eq!(full.head(), full.all_vars());
        let boolean = q.with_head(VarSet::EMPTY).unwrap();
        assert!(boolean.head().is_empty());
    }

    #[test]
    fn hypergraph_and_names() {
        let q = two_path();
        let h = q.hypergraph();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.edges()[0], vars![1, 2]);
        assert_eq!(q.relation_names(), vec!["R1", "R2"]);
    }

    #[test]
    fn hierarchical_detection() {
        // R(y,x1) ∧ R(y,x2) is hierarchical (2-set-disjointness body).
        let q = ConjunctiveQuery::new(
            "setdisj",
            3,
            vec![
                Atom::new("R", vec![2, 0]).unwrap(),
                Atom::new("R", vec![2, 1]).unwrap(),
            ],
            vars![1, 2],
        )
        .unwrap();
        assert!(q.is_hierarchical());

        // The 3-path is NOT hierarchical (x2 and x3 share atom R2 but each
        // also has a private atom).
        let path = ConjunctiveQuery::new(
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
        assert!(!path.is_hierarchical());
    }

    #[test]
    fn display() {
        let q = two_path();
        let s = q.to_string();
        assert!(s.contains("phi2(x1,x3)"));
        assert!(s.contains("R1(x1,x2) ∧ R2(x2,x3)"));
    }
}
