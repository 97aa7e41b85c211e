//! Relation schemas: ordered lists of query variables.

use cqap_common::{CqapError, Result, Var, VarSet};
use std::fmt;

/// The schema of a relation: an ordered list of distinct query variables.
///
/// The order defines the column order of the relation's tuples. Two
/// relations over the same *set* of variables but different column orders
/// are interchangeable through [`Schema::positions_of`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    vars: Vec<Var>,
    varset: VarSet,
}

impl Schema {
    /// Creates a schema from an ordered list of variables.
    ///
    /// # Errors
    /// Returns an error if a variable is repeated.
    pub fn new(vars: Vec<Var>) -> Result<Self> {
        let mut seen = VarSet::EMPTY;
        for &v in &vars {
            if seen.contains(v) {
                return Err(CqapError::InvalidQuery(format!(
                    "repeated variable x{} in schema",
                    v + 1
                )));
            }
            seen = seen.insert(v);
        }
        Ok(Schema { varset: seen, vars })
    }

    /// Creates a schema, panicking on duplicates (for statically-known
    /// schemas in tests and query constructors).
    pub fn of(vars: impl IntoIterator<Item = Var>) -> Self {
        Schema::new(vars.into_iter().collect()).expect("invalid schema")
    }

    /// The empty schema (for Boolean results).
    #[cfg(test)]
    pub(crate) fn empty() -> Self {
        Schema {
            vars: Vec::new(),
            varset: VarSet::EMPTY,
        }
    }

    /// The ordered variables.
    #[inline]
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The variables as a set.
    #[inline]
    pub fn varset(&self) -> VarSet {
        self.varset
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Position of variable `v` in the column order, if present.
    #[inline]
    pub fn position(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&u| u == v)
    }

    /// Whether the schema contains variable `v`.
    #[inline]
    #[cfg(test)]
    pub(crate) fn contains(&self, v: Var) -> bool {
        self.varset.contains(v)
    }

    /// Positions of the given variables, in the order given.
    ///
    /// # Errors
    /// Returns an error if any variable is missing from the schema.
    pub fn positions_of(&self, vars: &[Var]) -> Result<Vec<usize>> {
        vars.iter()
            .map(|&v| {
                self.position(v)
                    .ok_or_else(|| CqapError::UnknownVariable(format!("x{}", v + 1)))
            })
            .collect()
    }

    /// Positions of the variables of `set`, in ascending variable order.
    pub fn positions_of_set(&self, set: VarSet) -> Result<Vec<usize>> {
        self.positions_of(&set.to_vec())
    }

    /// The schema obtained by projecting onto `set` (ascending variable
    /// order).
    pub fn project(&self, set: VarSet) -> Schema {
        let keep = self.varset.intersect(set);
        Schema {
            vars: keep.to_vec(),
            varset: keep,
        }
    }

    /// The schema of the natural join of `self` and `other`: `self`'s
    /// columns followed by `other`'s columns that are not already present.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut vars = self.vars.clone();
        for &v in &other.vars {
            if !self.varset.contains(v) {
                vars.push(v);
            }
        }
        let varset = self.varset.union(other.varset);
        Schema { vars, varset }
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{}", v + 1)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let s = Schema::of([0, 2, 5]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position(2), Some(1));
        assert_eq!(s.position(3), None);
        assert!(s.contains(5));
        assert_eq!(s.varset(), VarSet::from_iter([0, 2, 5]));
    }

    #[test]
    fn duplicates_rejected() {
        assert!(Schema::new(vec![0, 1, 0]).is_err());
    }

    #[test]
    fn positions_of() {
        let s = Schema::of([3, 1, 2]);
        assert_eq!(s.positions_of(&[2, 3]).unwrap(), vec![2, 0]);
        assert!(s.positions_of(&[4]).is_err());
        assert_eq!(
            s.positions_of_set(VarSet::from_iter([1, 3])).unwrap(),
            vec![1, 0]
        );
    }

    #[test]
    fn project_and_join() {
        let s = Schema::of([3, 1, 2]);
        let p = s.project(VarSet::from_iter([2, 3, 7]));
        assert_eq!(p.vars(), &[2, 3]);

        let t = Schema::of([2, 4]);
        let j = s.join(&t);
        assert_eq!(j.vars(), &[3, 1, 2, 4]);
        assert_eq!(j.varset(), VarSet::from_iter([1, 2, 3, 4]));
    }

    #[test]
    fn display() {
        let s = Schema::of([0, 2]);
        assert_eq!(s.to_string(), "(x1,x3)");
        assert_eq!(Schema::empty().to_string(), "()");
    }
}
