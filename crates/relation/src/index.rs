//! Hash indexes over relations.
//!
//! A [`HashIndex`] groups the tuples of a relation by their projection onto
//! a *key* set of variables. Probing with a key tuple is O(1) and returns
//! the matching tuples; the index also exposes per-key degree information,
//! which the heavy/light split steps and the specialized application indexes
//! rely on.

use crate::relation::{instrument, Relation};
use crate::schema::Schema;
use cqap_common::{FxHashMap, Result, Tuple, VarSet};

/// A hash index of a relation on a key subset of its variables.
///
/// Equality is content equality: same key variables, schema and keys, and
/// per key the same *set* of tuples (bucket order is unspecified, and the
/// incremental edits below permute it).
#[derive(Clone, Debug)]
pub struct HashIndex {
    key_vars: VarSet,
    /// Positions of `key_vars` in `schema`, resolved once at build time.
    key_positions: Vec<usize>,
    schema: Schema,
    /// Maps a key-projection tuple to the full tuples sharing that key.
    buckets: FxHashMap<Tuple, Vec<Tuple>>,
    entries: usize,
}

/// A bucket for a key's first tuple. Sized for exactly that tuple: a view
/// keyed on all of its variables has one tuple per key, and `Vec`'s
/// default first growth (four slots) would quadruple its bucket memory.
fn new_bucket() -> Vec<Tuple> {
    Vec::with_capacity(1)
}

impl HashIndex {
    /// Builds an index of `rel` on `key_vars` (which must be a subset of the
    /// relation's variables).
    ///
    /// Key tuples use ascending variable order, matching
    /// [`Schema::positions_of_set`].
    pub fn build(rel: &Relation, key_vars: VarSet) -> Result<Self> {
        let key_positions = rel.schema().positions_of_set(key_vars)?;
        let mut buckets: FxHashMap<Tuple, Vec<Tuple>> = FxHashMap::default();
        for t in rel.iter() {
            buckets
                .entry(t.project(&key_positions))
                .or_insert_with(new_bucket)
                .push(t.clone());
        }
        instrument::record_indexed_tuples(rel.len() as u64);
        Ok(HashIndex {
            key_vars,
            key_positions,
            schema: rel.schema().clone(),
            entries: rel.len(),
            buckets,
        })
    }

    /// The key variables.
    #[inline]
    pub fn key_vars(&self) -> VarSet {
        self.key_vars
    }

    /// Number of distinct keys.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.buckets.len()
    }

    /// Total number of indexed tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The tuples matching a key, or an empty slice.
    #[inline]
    pub fn probe(&self, key: &Tuple) -> &[Tuple] {
        self.buckets.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether any tuple matches the key (a semijoin probe).
    #[inline]
    #[cfg(test)]
    pub(crate) fn contains_key(&self, key: &Tuple) -> bool {
        self.buckets.contains_key(key)
    }

    /// The degree of a key (number of matching tuples).
    #[inline]
    pub fn degree(&self, key: &Tuple) -> usize {
        self.buckets.get(key).map(Vec::len).unwrap_or(0)
    }

    /// The maximum degree over all keys.
    pub fn max_degree(&self) -> usize {
        self.buckets.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over `(key, tuples)` groups.
    pub fn groups(&self) -> impl Iterator<Item = (&Tuple, &[Tuple])> {
        self.buckets.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Machine-independent space measure: number of stored values across all
    /// buckets (keys are not double counted since the tuples embed them).
    #[cfg(test)]
    pub(crate) fn stored_values(&self) -> usize {
        self.entries * self.schema.arity()
    }

    /// Inserts tuples incrementally, keeping the index consistent with a
    /// relation that just accepted the same tuples.
    ///
    /// The caller guarantees the tuples are not already indexed (the
    /// owning relation deduplicates before forwarding its net inserts);
    /// a duplicate would inflate [`HashIndex::len`] and degree counts.
    pub fn insert_all(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            self.buckets
                .entry(t.project(&self.key_positions))
                .or_insert_with(new_bucket)
                .push(t.clone());
        }
        self.entries += tuples.len();
    }

    /// Removes tuples incrementally, returning how many were found.
    ///
    /// Buckets left empty are dropped so `HashIndex::contains_key` (the
    /// semijoin probe) stays exact — a lingering empty bucket would make
    /// a deleted key look present.
    pub fn remove_all(&mut self, tuples: &[Tuple]) -> usize {
        let mut removed = 0;
        for t in tuples {
            let key = t.project(&self.key_positions);
            if let Some(bucket) = self.buckets.get_mut(&key) {
                if let Some(pos) = bucket.iter().position(|b| b == t) {
                    bucket.swap_remove(pos);
                    removed += 1;
                    if bucket.is_empty() {
                        self.buckets.remove(&key);
                    }
                }
            }
        }
        self.entries -= removed;
        removed
    }
}

impl PartialEq for HashIndex {
    fn eq(&self, other: &Self) -> bool {
        self.key_vars == other.key_vars
            && self.schema == other.schema
            && self.entries == other.entries
            && self.buckets.len() == other.buckets.len()
            && self.buckets.iter().all(|(key, bucket)| {
                let theirs = other.probe(key);
                bucket.len() == theirs.len() && bucket.iter().all(|t| theirs.contains(t))
            })
    }
}

impl Eq for HashIndex {}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;

    fn sample() -> Relation {
        Relation::binary("R", 0, 1, [(1, 10), (1, 11), (2, 10), (3, 30), (3, 31)])
    }

    #[test]
    fn build_and_probe() {
        let r = sample();
        let idx = HashIndex::build(&r, vars![1]).unwrap();
        assert_eq!(idx.num_keys(), 3);
        assert_eq!(idx.len(), 5);
        let hits = idx.probe(&Tuple::unary(1));
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&Tuple::pair(1, 10)));
        assert!(hits.contains(&Tuple::pair(1, 11)));
        assert!(idx.probe(&Tuple::unary(9)).is_empty());
        assert!(idx.contains_key(&Tuple::unary(2)));
        assert!(!idx.contains_key(&Tuple::unary(9)));
    }

    #[test]
    fn degrees() {
        let r = sample();
        let idx = HashIndex::build(&r, vars![1]).unwrap();
        assert_eq!(idx.degree(&Tuple::unary(1)), 2);
        assert_eq!(idx.degree(&Tuple::unary(2)), 1);
        assert_eq!(idx.degree(&Tuple::unary(99)), 0);
        assert_eq!(idx.max_degree(), 2);
    }

    #[test]
    fn index_on_second_column() {
        let r = sample();
        let idx = HashIndex::build(&r, vars![2]).unwrap();
        assert_eq!(idx.num_keys(), 4);
        assert_eq!(idx.degree(&Tuple::unary(10)), 2);
    }

    #[test]
    fn index_on_full_key() {
        let r = sample();
        let idx = HashIndex::build(&r, vars![1, 2]).unwrap();
        assert_eq!(idx.num_keys(), 5);
        assert_eq!(idx.max_degree(), 1);
        assert!(idx.contains_key(&Tuple::pair(3, 31)));
    }

    #[test]
    fn unknown_key_var_is_error() {
        let r = sample();
        assert!(HashIndex::build(&r, vars![7]).is_err());
    }

    #[test]
    fn stored_values() {
        let r = sample();
        let idx = HashIndex::build(&r, vars![1]).unwrap();
        assert_eq!(idx.stored_values(), 10);
    }

    #[test]
    fn incremental_insert_and_remove() {
        let r = sample();
        let mut idx = HashIndex::build(&r, vars![1]).unwrap();
        idx.insert_all(&[Tuple::pair(9, 90)]);
        assert_eq!(idx.len(), 6);
        assert!(idx.contains_key(&Tuple::unary(9)));
        assert_eq!(
            idx.remove_all(&[Tuple::pair(9, 90), Tuple::pair(1, 10)]),
            2
        );
        assert_eq!(idx.len(), 4);
        assert!(
            !idx.contains_key(&Tuple::unary(9)),
            "empty buckets must be dropped so semijoin probes stay exact"
        );
        assert_eq!(idx.degree(&Tuple::unary(1)), 1);
        // Removing an absent tuple is a no-op.
        assert_eq!(idx.remove_all(&[Tuple::pair(9, 90)]), 0);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn edited_index_equals_a_rebuild_and_edits_are_not_counted_as_builds() {
        let mut r = sample();
        let mut idx = HashIndex::build(&r, vars![1]).unwrap();
        let builds = instrument::indexed_tuples();
        // Bucket order diverges from a fresh build (swap_remove, append)
        // but the content — keys and per-key tuple sets — must not.
        idx.remove_all(&[Tuple::pair(1, 10), Tuple::pair(2, 10)]);
        idx.insert_all(&[Tuple::pair(1, 10), Tuple::pair(3, 32)]);
        assert_eq!(instrument::indexed_tuples(), builds);
        r.remove_all(&[Tuple::pair(2, 10)]);
        r.insert(Tuple::pair(3, 32)).unwrap();
        let rebuilt = HashIndex::build(&r, vars![1]).unwrap();
        assert_eq!(instrument::indexed_tuples(), builds + r.len() as u64);
        assert_eq!(idx, rebuilt);
        idx.remove_all(&[Tuple::pair(3, 32)]);
        assert_ne!(idx, rebuilt);
    }
}
