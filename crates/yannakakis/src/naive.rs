//! Reference (from-scratch) evaluation of a CQAP.

use cqap_common::{CqapError, Result};
use cqap_query::{AccessRequest, Cqap};
use cqap_relation::{Database, Relation, Schema};

/// Materializes an atom of the query as a relation over the atom's
/// variables, renaming the stored relation's columns accordingly.
pub fn atom_relation(db: &Database, atom: &cqap_query::Atom) -> Result<Relation> {
    let stored = db.relation_or_err(&atom.relation)?;
    if stored.schema().arity() != atom.arity() {
        return Err(CqapError::SchemaMismatch {
            expected: format!("arity {}", atom.arity()),
            found: format!("arity {}", stored.schema().arity()),
        });
    }
    let schema = Schema::new(atom.vars.clone())?;
    Relation::from_tuples(
        format!("{}", atom),
        schema,
        stored.iter().cloned(),
    )
}

/// The full join of the query body `⋈_F R_F` over the database, with each
/// atom's columns renamed to its query variables.
pub fn full_join(cqap: &Cqap, db: &Database) -> Result<Relation> {
    let mut acc: Option<Relation> = None;
    for atom in cqap.cq().atoms() {
        let rel = atom_relation(db, atom)?;
        acc = Some(match acc {
            None => rel,
            Some(prev) => prev.join(&rel)?,
        });
    }
    acc.ok_or_else(|| CqapError::InvalidQuery("query has no atoms".into()))
}

/// Answers an access request from scratch: joins every atom with the access
/// request and projects onto the (normalized) head. This is the reference
/// implementation (and the `S = O(1)` extreme of the tradeoff space).
pub fn naive_answer(cqap: &Cqap, db: &Database, request: &AccessRequest) -> Result<Relation> {
    if request.access() != cqap.access() {
        return Err(CqapError::AccessPatternMismatch {
            expected_arity: cqap.access().len(),
            found_arity: request.access().len(),
        });
    }
    // The request joins first even under an empty access pattern: its one
    // possible binding `()` is the join's unit, and a request without it
    // answers nothing.
    let mut joined = request.as_relation();
    for atom in cqap.cq().atoms() {
        joined = joined.join(&atom_relation(db, atom)?)?;
    }
    joined.project_onto(cqap.head())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::{Tuple, VarSet};
    use cqap_query::families;
    use cqap_query::workload::Graph;

    fn path_db_and_query(k: usize) -> (Cqap, Database) {
        let q = families::k_path_distinct(k);
        let g = Graph::random(30, 120, 42);
        (q, g.as_path_database(k))
    }

    #[test]
    fn two_path_answers() {
        let q = families::k_path_distinct(2);
        let mut db = Database::new();
        db.add_relation(Relation::binary("R1", 0, 1, [(1, 2), (1, 3), (4, 5)]))
            .unwrap();
        db.add_relation(Relation::binary("R2", 1, 2, [(2, 7), (3, 7), (5, 9)]))
            .unwrap();
        // (1, 7) is reachable via 2 and 3; (4, 9) via 5; (1, 9) is not.
        let yes = AccessRequest::single(q.access(), &[1, 7]).unwrap();
        let ans = naive_answer(&q, &db, &yes).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Tuple::pair(1, 7)));

        let no = AccessRequest::single(q.access(), &[1, 9]).unwrap();
        assert!(naive_answer(&q, &db, &no).unwrap().is_empty());
    }

    #[test]
    fn batched_requests() {
        let (q, db) = path_db_and_query(3);
        let req = AccessRequest::new(
            q.access(),
            vec![Tuple::pair(0, 1), Tuple::pair(2, 3), Tuple::pair(5, 5)],
        )
        .unwrap();
        let ans = naive_answer(&q, &db, &req).unwrap();
        // Every answer must be one of the requested pairs.
        for t in ans.iter() {
            assert!(req.tuples().contains(t));
        }
    }

    #[test]
    fn full_join_matches_manual_composition() {
        let (q, db) = path_db_and_query(2);
        let j = full_join(&q, &db).unwrap();
        let r1 = atom_relation(db_ref(&db), &q.cq().atoms()[0]).unwrap();
        let r2 = atom_relation(db_ref(&db), &q.cq().atoms()[1]).unwrap();
        assert_eq!(j, r1.join(&r2).unwrap());
    }

    fn db_ref(db: &Database) -> &Database {
        db
    }

    #[test]
    fn empty_access_pattern_triangle() {
        // The triangle CQAP has an empty access pattern: the "request" is
        // empty and the answer is all (x1, x3) pairs on a triangle.
        let q = families::triangle_edge();
        let mut db = Database::new();
        db.add_relation(Relation::binary(
            "R",
            0,
            1,
            [(1, 2), (2, 3), (3, 1), (3, 4)],
        ))
        .unwrap();
        let req = AccessRequest::new(VarSet::EMPTY, vec![Tuple::empty()]).unwrap();
        let ans = naive_answer(&q, &db, &req).unwrap();
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&Tuple::pair(1, 3)));
        assert!(ans.contains(&Tuple::pair(2, 1)));
        assert!(ans.contains(&Tuple::pair(3, 2)));
    }

    #[test]
    fn mismatched_access_pattern_rejected() {
        let (q, db) = path_db_and_query(3);
        let bad = AccessRequest::single(VarSet::from_iter([0, 1]), &[1, 2]).unwrap();
        assert!(naive_answer(&q, &db, &bad).is_err());
    }

    #[test]
    fn arity_mismatch_in_atom_rejected() {
        let q = families::k_path_distinct(2);
        let mut db = Database::new();
        // R1 stored with arity 3 although the atom expects 2.
        let mut r1 = Relation::new("R1", cqap_relation::Schema::of([0, 1, 2]));
        r1.insert(Tuple::triple(1, 2, 3)).unwrap();
        db.add_relation(r1).unwrap();
        db.add_relation(Relation::binary("R2", 1, 2, [(2, 3)])).unwrap();
        let req = AccessRequest::single(q.access(), &[1, 3]).unwrap();
        assert!(naive_answer(&q, &db, &req).is_err());
    }
}
