//! Databases: named collections of relations.

use crate::relation::Relation;
use cqap_common::{CqapError, Result};
use std::fmt;

/// A database instance `D`: the input relations of a CQAP (Section 2.2).
/// It stores no degree constraints `DC`: `cqap_entropy`'s `Stats::measured`
/// measures those its relations satisfy.
///
/// The paper defines `|D|` as the *maximum* relation size; [`Database::size`]
/// follows that convention.
#[derive(Clone, Default)]
pub struct Database {
    relations: Vec<Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds a relation. Relation names must be unique.
    ///
    /// # Errors
    /// Returns an error if a relation with the same name already exists.
    pub fn add_relation(&mut self, rel: Relation) -> Result<()> {
        if self.relation(rel.name()).is_some() {
            return Err(CqapError::InvalidQuery(format!(
                "duplicate relation name {}",
                rel.name()
            )));
        }
        self.relations.push(rel);
        Ok(())
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.iter().find(|r| r.name() == name)
    }

    /// Looks up a relation by name, returning an error when absent.
    pub fn relation_or_err(&self, name: &str) -> Result<&Relation> {
        self.relation(name)
            .ok_or_else(|| CqapError::Other(format!("relation {name} not found")))
    }

    /// Mutable lookup of a relation by name, for in-place delta
    /// maintenance.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .iter_mut()
            .find(|r| r.name() == name)
            .ok_or_else(|| CqapError::Other(format!("relation {name} not found")))
    }

    /// All relations.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// `|D|`: the maximum relation size (the paper's database-size measure).
    pub fn size(&self) -> usize {
        self.relations.iter().map(Relation::len).max().unwrap_or(0)
    }

    /// Total number of stored values across all relations (arity-weighted).
    #[cfg(test)]
    pub(crate) fn stored_values(&self) -> usize {
        self.relations.iter().map(Relation::stored_values).sum()
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Database (|D| = {}):", self.size())?;
        for r in &self.relations {
            writeln!(f, "  {r:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;

    #[test]
    fn add_and_lookup() {
        let mut db = Database::new();
        db.add_relation(Relation::binary("R", 0, 1, [(1, 2), (2, 3)]))
            .unwrap();
        db.add_relation(Relation::binary("S", 1, 2, [(2, 3)]))
            .unwrap();
        assert_eq!(db.num_relations(), 2);
        assert!(db.relation("R").is_some());
        assert!(db.relation("T").is_none());
        assert!(db.relation_or_err("T").is_err());
        assert_eq!(db.size(), 2);
        assert_eq!(db.stored_values(), 6);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = Database::new();
        db.add_relation(Relation::binary("R", 0, 1, [(1, 2)]))
            .unwrap();
        assert!(db
            .add_relation(Relation::binary("R", 1, 2, [(1, 2)]))
            .is_err());
    }

    #[test]
    fn stats_inference() {
        // The degrees `Stats::measured` reads off a stored relation.
        let mut db = Database::new();
        let r = Relation::binary("R", 0, 1, [(1, 10), (1, 11), (1, 12), (2, 10)]);
        db.add_relation(r).unwrap();
        let r = db.relation_or_err("R").unwrap();
        assert_eq!(db.size(), 4);
        assert_eq!(r.max_degree(vars![1], vars![1, 2]).unwrap(), 3);
        assert_eq!(r.max_degree(vars![2], vars![1, 2]).unwrap(), 2);
    }
}
