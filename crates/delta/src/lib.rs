//! Delta batches and the [`ApplyDelta`] seam.
//!
//! PRs 1–5 treat the database as frozen: every backend is build-once.
//! This crate introduces the vocabulary for *live* data: a [`DeltaBatch`]
//! is an ordered stream of `(relation, insert | delete, tuples)`
//! operations, and [`ApplyDelta`] is the seam every backend implements to
//! absorb one batch in place — the in-memory index edits its S-views and
//! atom indexes tuple by tuple, the disk tier buffers LSM-style overlay
//! segments, shards route tuples by their split column, and the serving
//! runtime invalidates its answer cache.
//!
//! The semantic contract, enforced by the equivalence matrix of the
//! umbrella crate (`tests/equivalence.rs`), is **rebuild equivalence**:
//! applying a batch incrementally must leave every backend answering
//! exactly like an index rebuilt from scratch over the post-delta
//! database, and like the naive evaluator over it.
//!
//! Batches are applied with *net-effect* semantics under the set
//! semantics of [`cqap_relation::Relation`]: operations are replayed in
//! order into a desired-presence map per relation, and only the net
//! difference against the base database is applied. Delete-then-reinsert
//! therefore cancels out, deleting an absent tuple is a no-op, and a
//! batch whose net effect is empty leaves the backend untouched (backends
//! use this to short-circuit without disturbing warm-path scratch state).

#![deny(missing_docs)]

use cqap_common::{CqapError, FxHashMap, Result, Tuple};
use cqap_relation::Database;

/// One kind of mutation in a [`DeltaBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert the tuples into the relation (duplicates are no-ops).
    Insert,
    /// Delete the tuples from the relation (absent tuples are no-ops).
    Delete,
}

/// An ordered stream of insert/delete operations against named relations.
///
/// Order matters *within* the batch: a delete followed by a re-insert of
/// the same tuple nets out to whatever the final operation says. The
/// whole batch is applied atomically against a snapshot of the base
/// database (net-effect semantics; see the crate docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    ops: Vec<(String, DeltaOp, Vec<Tuple>)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Appends an insert operation for `relation`.
    pub fn insert(mut self, relation: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        self.ops.push((relation.into(), DeltaOp::Insert, tuples));
        self
    }

    /// Appends a delete operation for `relation`.
    pub fn delete(mut self, relation: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        self.ops.push((relation.into(), DeltaOp::Delete, tuples));
        self
    }

    /// Appends an operation in place (non-builder form).
    pub fn push(&mut self, relation: impl Into<String>, op: DeltaOp, tuples: Vec<Tuple>) {
        self.ops.push((relation.into(), op, tuples));
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[(String, DeltaOp, Vec<Tuple>)] {
        &self.ops
    }

    /// Total number of tuples across all operations (before netting).
    pub fn num_tuples(&self) -> usize {
        self.ops.iter().map(|(_, _, ts)| ts.len()).sum()
    }
}

/// What one applied batch actually changed, summed over relations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Tuples that were absent from the base and are present after.
    pub inserted: usize,
    /// Tuples that were present in the base and are absent after.
    pub deleted: usize,
}

impl DeltaStats {
    /// Whether the batch had no net effect on the database.
    pub fn is_noop(&self) -> bool {
        self.inserted == 0 && self.deleted == 0
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: DeltaStats) {
        self.inserted += other.inserted;
        self.deleted += other.deleted;
    }
}

/// The net effect of a batch on one relation: tuples to truly insert
/// (absent in the base) and tuples to truly delete (present in the base),
/// after replaying the batch's operations in order.
#[derive(Debug, Clone, Default)]
pub struct RelationDelta {
    /// Name of the stored relation.
    pub relation: String,
    /// Tuples absent from the base relation that the batch makes present.
    pub inserts: Vec<Tuple>,
    /// Tuples present in the base relation that the batch removes.
    pub deletes: Vec<Tuple>,
}

impl RelationDelta {
    /// Whether this relation is left unchanged.
    pub(crate) fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Normalizes a batch against a base database into per-relation net
/// deltas, validating relation names and tuple arities.
///
/// Replays the operations in order into a desired-presence map per
/// relation, then diffs the final desired state against base membership.
/// Relations with an empty net delta are omitted, so an all-no-op batch
/// returns an empty vector. Tuple order within each delta is the batch's
/// first-touch order, keeping downstream work deterministic.
///
/// # Errors
/// Returns an error if an operation names a relation the database does
/// not store, or carries a tuple whose arity differs from the relation's
/// schema.
pub fn net_effect(db: &Database, batch: &DeltaBatch) -> Result<Vec<RelationDelta>> {
    // Desired presence per relation, with first-touch orders recorded so
    // the output is independent of hash iteration order.
    let mut desired: FxHashMap<&str, FxHashMap<Tuple, bool>> = FxHashMap::default();
    let mut rel_order: Vec<&str> = Vec::new();
    let mut tuple_order: FxHashMap<&str, Vec<Tuple>> = FxHashMap::default();
    for (name, op, tuples) in batch.ops() {
        let stored = db.relation_or_err(name)?;
        let arity = stored.schema().arity();
        if !desired.contains_key(name.as_str()) {
            rel_order.push(name);
        }
        let presence = desired.entry(name).or_default();
        let order = tuple_order.entry(name).or_default();
        for t in tuples {
            if t.arity() != arity {
                return Err(CqapError::SchemaMismatch {
                    expected: format!("arity {arity} for relation {name}"),
                    found: format!("delta tuple of arity {}", t.arity()),
                });
            }
            if !presence.contains_key(t) {
                order.push(t.clone());
            }
            presence.insert(t.clone(), *op == DeltaOp::Insert);
        }
    }
    let mut out = Vec::new();
    for name in rel_order {
        let stored = db.relation_or_err(name)?;
        let presence = &desired[name];
        let mut delta = RelationDelta {
            relation: name.to_string(),
            ..RelationDelta::default()
        };
        for t in &tuple_order[name] {
            let want = presence[t];
            let have = stored.contains(t);
            match (have, want) {
                (false, true) => delta.inserts.push(t.clone()),
                (true, false) => delta.deletes.push(t.clone()),
                _ => {}
            }
        }
        if !delta.is_empty() {
            out.push(delta);
        }
    }
    Ok(out)
}

/// The seam every backend implements to absorb a [`DeltaBatch`] in place.
///
/// Implementations must preserve **rebuild equivalence**: after
/// `apply_delta(batch)`, the backend answers every request exactly like a
/// fresh build over the database with the batch's net effect applied.
pub trait ApplyDelta {
    /// Applies the batch's net effect, returning what actually changed.
    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaStats>;
}

/// The reference maintainer: a plain [`Database`] absorbs the net effect
/// directly. Tests use this to produce the post-delta database that
/// incremental backends are compared against via a fresh rebuild.
impl ApplyDelta for Database {
    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaStats> {
        let deltas = net_effect(self, batch)?;
        let mut stats = DeltaStats::default();
        for delta in &deltas {
            let rel = self.relation_mut(&delta.relation)?;
            stats.deleted += rel.remove_all(&delta.deletes);
            for t in &delta.inserts {
                if rel.insert(t.clone())? {
                    stats.inserted += 1;
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_relation::Relation;

    fn base() -> Database {
        let mut db = Database::new();
        db.add_relation(Relation::binary("R", 0, 1, [(1, 2), (2, 3)]))
            .unwrap();
        db.add_relation(Relation::binary("S", 1, 2, [(3, 4)])).unwrap();
        db
    }

    #[test]
    fn net_effect_cancels_delete_then_reinsert() {
        let db = base();
        let batch = DeltaBatch::new()
            .delete("R", vec![Tuple::pair(1, 2)])
            .insert("R", vec![Tuple::pair(1, 2)]);
        assert!(net_effect(&db, &batch).unwrap().is_empty());
    }

    #[test]
    fn net_effect_orders_and_filters_noops() {
        let db = base();
        let batch = DeltaBatch::new()
            .insert("R", vec![Tuple::pair(2, 3)]) // already present: no-op
            .delete("R", vec![Tuple::pair(9, 9)]) // absent: no-op
            .insert("R", vec![Tuple::pair(5, 6)])
            .delete("S", vec![Tuple::pair(3, 4)]);
        let deltas = net_effect(&db, &batch).unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].relation, "R");
        assert_eq!(deltas[0].inserts, vec![Tuple::pair(5, 6)]);
        assert!(deltas[0].deletes.is_empty());
        assert_eq!(deltas[1].relation, "S");
        assert_eq!(deltas[1].deletes, vec![Tuple::pair(3, 4)]);
    }

    #[test]
    fn net_effect_last_op_wins() {
        let db = base();
        let batch = DeltaBatch::new()
            .insert("R", vec![Tuple::pair(7, 8)])
            .delete("R", vec![Tuple::pair(7, 8)]);
        assert!(net_effect(&db, &batch).unwrap().is_empty());
        let batch = DeltaBatch::new()
            .delete("R", vec![Tuple::pair(2, 3)])
            .insert("R", vec![Tuple::pair(2, 3)])
            .delete("R", vec![Tuple::pair(2, 3)]);
        let deltas = net_effect(&db, &batch).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].deletes, vec![Tuple::pair(2, 3)]);
    }

    #[test]
    fn unknown_relation_and_bad_arity_rejected() {
        let db = base();
        let bad_name = DeltaBatch::new().insert("Q", vec![Tuple::pair(1, 2)]);
        assert!(net_effect(&db, &bad_name).is_err());
        let bad_arity = DeltaBatch::new().insert("R", vec![Tuple::triple(1, 2, 3)]);
        assert!(net_effect(&db, &bad_arity).is_err());
    }

    #[test]
    fn database_apply_matches_manual_edit() {
        let mut db = base();
        let batch = DeltaBatch::new()
            .delete("R", vec![Tuple::pair(1, 2)])
            .insert("R", vec![Tuple::pair(4, 5), Tuple::pair(4, 5)])
            .insert("S", vec![Tuple::pair(3, 4)]); // already there
        let stats = db.apply_delta(&batch).unwrap();
        assert_eq!(stats, DeltaStats { inserted: 1, deleted: 1 });
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::pair(4, 5)));
        assert!(!r.contains(&Tuple::pair(1, 2)));
        assert_eq!(db.relation("S").unwrap().len(), 1);

        let empty = DeltaBatch::new();
        assert!(db.apply_delta(&empty).unwrap().is_noop());
    }
}
