//! In-memory relations (sets of tuples with a schema).

use crate::membership::{hash_bits, PositionTable};
use crate::schema::Schema;
use cqap_common::{hash_vals, CqapError, FxHashSet, Result, Tuple, Val, Var, VarSet};
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

/// Counters for the relation layer's hash-dedup work, used by tests to
/// prove that the compiled online path stays off the dedup machinery.
pub mod instrument {
    use std::cell::Cell;

    thread_local! {
        static DEDUP_INSERTS: Cell<u64> = const { Cell::new(0) };
        static INDEXED_TUPLES: Cell<u64> = const { Cell::new(0) };
    }

    /// Total tuples **this thread** has inserted into a relation-level
    /// dedup hash set (both eager [`Relation::insert`](crate::Relation::insert)
    /// calls and lazy materialization of a membership set). Monotone;
    /// callers diff two readings around the code under test. Per-thread so
    /// concurrent serving workers (and parallel tests) don't pollute each
    /// other's measurements.
    pub fn dedup_inserts() -> u64 {
        DEDUP_INSERTS.with(Cell::get)
    }

    #[inline]
    pub(crate) fn record_dedup_inserts(n: u64) {
        if n > 0 {
            DEDUP_INSERTS.with(|c| c.set(c.get() + n));
        }
    }

    /// Total tuples **this thread** has pushed through a from-scratch
    /// [`HashIndex::build`](crate::HashIndex::build) (incremental
    /// `insert_all` / `remove_all` edits are not counted). Monotone and
    /// per-thread like [`dedup_inserts`]; the delta-maintenance tests diff
    /// it around an apply to prove no index was rebuilt.
    pub fn indexed_tuples() -> u64 {
        INDEXED_TUPLES.with(Cell::get)
    }

    #[inline]
    pub(crate) fn record_indexed_tuples(n: u64) {
        if n > 0 {
            INDEXED_TUPLES.with(|c| c.set(c.get() + n));
        }
    }
}

/// An in-memory relation: a set of tuples over a [`Schema`].
///
/// Relations are *set-semantics*: [`Relation::insert`] deduplicates. The
/// paper's size measures (`|R|`, degree constraints) are all defined over
/// set semantics.
///
/// The membership table backing [`Relation::contains`], dedup and equality
/// maps each tuple to its position in the tuple vector (the tuples are
/// stored once) and is built **lazily**: a relation assembled from tuples
/// that are already distinct (every semijoin/join output of the online
/// phase — see [`RelationBuilder::distinct`]) carries only its tuple
/// vector until some caller actually needs membership tests. Names are
/// `Cow<'static, str>`,
/// so the hot path labels intermediates with borrowed constants instead of
/// `format!` allocations.
#[derive(Clone)]
pub struct Relation {
    name: Cow<'static, str>,
    schema: Schema,
    tuples: Vec<Tuple>,
    /// Lazily materialized dedup/membership table, tuple → its position in
    /// `tuples` (so a delete is a `swap_remove`, not a scan); empty for
    /// relations built through the distinct builder until first needed.
    seen: OnceLock<PositionTable>,
}

/// The hash bits the membership table files `t` under.
#[inline]
fn tuple_bits(t: &Tuple) -> u64 {
    hash_bits(hash_vals(t.as_slice()))
}

impl Relation {
    /// Creates an empty relation with the given name and schema.
    pub fn new(name: impl Into<Cow<'static, str>>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            tuples: Vec::new(),
            seen: OnceLock::new(),
        }
    }

    /// Creates a relation and bulk-loads tuples (deduplicating).
    pub fn from_tuples(
        name: impl Into<Cow<'static, str>>,
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let mut r = Relation::new(name, schema);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// Convenience constructor for a binary relation over variables `(a, b)`
    /// loaded from `(Val, Val)` pairs — the common case for the paper's
    /// graph workloads.
    pub fn binary(
        name: impl Into<Cow<'static, str>>,
        a: Var,
        b: Var,
        pairs: impl IntoIterator<Item = (Val, Val)>,
    ) -> Self {
        let mut r = Relation::new(name, Schema::of([a, b]));
        for (x, y) in pairs {
            r.insert(Tuple::pair(x, y)).expect("binary tuple");
        }
        r
    }

    /// The relation's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the relation.
    pub fn with_name(mut self, name: impl Into<Cow<'static, str>>) -> Self {
        self.name = name.into();
        self
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The variables of the relation as a set.
    #[inline]
    pub fn varset(&self) -> VarSet {
        self.schema.varset()
    }

    /// Number of (distinct) tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the tuples.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The tuples as a slice.
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consumes the relation into its tuple vector (dropping any
    /// membership set). For callers that fold a relation into another
    /// structure and would otherwise clone every tuple.
    #[inline]
    pub(crate) fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// The membership table, materializing it on first use.
    fn seen(&self) -> &PositionTable {
        self.seen.get_or_init(|| {
            instrument::record_dedup_inserts(self.tuples.len() as u64);
            let mut table = PositionTable::with_capacity(self.tuples.len());
            for (at, t) in self.tuples.iter().enumerate() {
                table.insert_new(tuple_bits(t), at);
            }
            table
        })
    }

    /// Inserts a tuple, ignoring duplicates.
    ///
    /// # Errors
    /// Returns an error if the tuple arity does not match the schema.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.schema.arity() {
            return Err(CqapError::SchemaMismatch {
                expected: format!("{} (arity {})", self.schema, self.schema.arity()),
                found: format!("tuple of arity {}", t.arity()),
            });
        }
        instrument::record_dedup_inserts(1);
        let _ = self.seen();
        let seen = self.seen.get_mut().expect("membership table just materialized");
        Ok(push_if_absent(seen, &mut self.tuples, t))
    }

    /// Whether the relation contains the tuple.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.seen()
            .find(tuple_bits(t), |at| self.tuples[at] == *t)
            .is_some()
    }

    /// Returns the tuple values for variable `v` (one per tuple, with
    /// repetitions).
    #[cfg(test)]
    pub(crate) fn column(&self, v: Var) -> Result<Vec<Val>> {
        let pos = self
            .schema
            .position(v)
            .ok_or_else(|| CqapError::UnknownVariable(format!("x{}", v + 1)))?;
        Ok(self.tuples.iter().map(|t| t.get(pos)).collect())
    }

    /// Number of distinct values of the projection onto `vars` (a `VarSet`).
    pub(crate) fn distinct_count(&self, vars: VarSet) -> Result<usize> {
        let positions = self.schema.positions_of_set(vars.intersect(self.varset()))?;
        let mut set: FxHashSet<Tuple> = FxHashSet::default();
        for t in &self.tuples {
            set.insert(t.project(&positions));
        }
        Ok(set.len())
    }

    /// The maximum degree `max_{t_X} deg(Y | t_X)` over the relation, i.e.
    /// the largest number of distinct `Y`-projections that share one
    /// `X`-projection value. This is the quantity guarded by a degree
    /// constraint `(X, Y, N_{Y|X})` in Section 2 of the paper.
    pub fn max_degree(&self, x: VarSet, y: VarSet) -> Result<usize> {
        if x.is_empty() {
            return self.distinct_count(y);
        }
        let xpos = self.schema.positions_of_set(x)?;
        let ypos = self.schema.positions_of_set(y.intersect(self.varset()))?;
        let mut groups: cqap_common::FxHashMap<Tuple, FxHashSet<Tuple>> =
            cqap_common::FxHashMap::default();
        for t in &self.tuples {
            groups
                .entry(t.project(&xpos))
                .or_default()
                .insert(t.project(&ypos));
        }
        Ok(groups.values().map(|s| s.len()).max().unwrap_or(0))
    }

    /// Removes every tuple in `gone` from the relation, returning how many
    /// were actually present (and hence removed). Tuple order is
    /// unspecified afterwards.
    ///
    /// With the membership table materialized (always the case on the
    /// delta-maintenance path, whose net-effect computation and inserts
    /// both go through it) each delete is one table removal plus a
    /// `swap_remove` — `O(|gone|)`, independent of the relation's size.
    /// Removal never forces the lazy table into existence: a relation
    /// built distinct and never membership-tested falls back to one retain
    /// pass over its tuple vector, staying off the counted dedup machinery.
    pub fn remove_all(&mut self, gone: &[Tuple]) -> usize {
        let Some(seen) = self.seen.get_mut() else {
            if gone.is_empty() {
                return 0;
            }
            let gone: FxHashSet<&Tuple> = gone.iter().collect();
            let before = self.tuples.len();
            self.tuples.retain(|t| !gone.contains(t));
            return before - self.tuples.len();
        };
        let tuples = &mut self.tuples;
        let mut removed = 0;
        for t in gone {
            let bits = tuple_bits(t);
            let Some(at) = seen.find(bits, |i| tuples[i] == *t) else {
                continue;
            };
            seen.remove(bits, at);
            tuples.swap_remove(at);
            if let Some(moved) = tuples.get(at) {
                seen.repoint(tuple_bits(moved), tuples.len(), at);
            }
            removed += 1;
        }
        removed
    }

    /// Heap bytes held, from the tuple vector's and the membership table's
    /// capacities (plus the boxed values of tuples too wide to be inline).
    pub fn heap_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Tuple>();
        let boxed = if self.schema.arity() * std::mem::size_of::<Val>() < inline {
            0
        } else {
            self.stored_values() * std::mem::size_of::<Val>()
        };
        self.tuples.capacity() * inline
            + boxed
            + self.seen.get().map_or(0, PositionTable::heap_bytes)
    }

    /// An estimate of the memory footprint in *stored values* (arity ×
    /// cardinality). Benches report this as the machine-independent space
    /// measure.
    #[inline]
    pub fn stored_values(&self) -> usize {
        self.len() * self.schema.arity()
    }
}

/// Appends `t` to `tuples` unless the table already holds it.
#[inline]
fn push_if_absent(seen: &mut PositionTable, tuples: &mut Vec<Tuple>, t: Tuple) -> bool {
    let fresh = seen
        .insert(tuple_bits(&t), tuples.len(), |at| tuples[at] == t)
        .is_none();
    if fresh {
        tuples.push(t);
    }
    fresh
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} [{} tuples]",
            self.name,
            self.schema,
            self.tuples.len()
        )
    }
}

impl PartialEq for Relation {
    /// Two relations are equal if they have the same schema and the same set
    /// of tuples (order-insensitive). Names are ignored.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len() == other.len()
            && self.tuples.iter().all(|t| other.contains(t))
    }
}

impl Eq for Relation {}

/// An append-only assembler for relations whose construction is on a hot
/// path.
///
/// The dedup-on-insert contract of [`Relation::insert`] pays two hash
/// probes and a shadow copy per tuple. Most relations the online phase
/// builds are **duplicate-free by construction** — a semijoin or selection
/// of a set is a subset, and a join output tuple embeds the probe-side
/// tuple plus columns that are functionally determined by it — so the
/// builder lets such producers opt out: [`RelationBuilder::distinct`]
/// skips the hash set entirely, and the resulting relation materializes a
/// membership set only if someone later asks for one.
///
/// Arity is checked with a `debug_assert!` per push (producers derive
/// tuples from the declared schema, so a mismatch is a bug, not input
/// validation); `debug` builds additionally verify the distinctness claim
/// at [`RelationBuilder::finish`].
pub struct RelationBuilder {
    name: Cow<'static, str>,
    schema: Schema,
    tuples: Vec<Tuple>,
    /// `Some` while dedup-on-push is active (donated to the finished
    /// relation); `None` for distinct builders.
    seen: Option<PositionTable>,
}

impl RelationBuilder {
    /// A builder that deduplicates on push, exactly like
    /// [`Relation::insert`].
    pub(crate) fn new(name: impl Into<Cow<'static, str>>, schema: Schema) -> Self {
        RelationBuilder {
            name: name.into(),
            schema,
            tuples: Vec::new(),
            seen: Some(PositionTable::default()),
        }
    }

    /// A builder for producers whose output is duplicate-free by
    /// construction: no dedup set is kept, so pushes are a plain vector
    /// append. The caller guarantees distinctness; debug builds verify it
    /// at [`RelationBuilder::finish`].
    pub fn distinct(name: impl Into<Cow<'static, str>>, schema: Schema) -> Self {
        RelationBuilder {
            name: name.into(),
            schema,
            tuples: Vec::new(),
            seen: None,
        }
    }

    /// Appends one row given as a value slice — the column-to-row exit of
    /// the columnar execution path: the row crosses into a [`Tuple`] here
    /// (inline for arity ≤ 4, so narrow answers never touch the heap) and
    /// nowhere earlier.
    #[inline]
    pub fn push_row(&mut self, vals: &[Val]) {
        self.push(Tuple::from_slice(vals));
    }

    /// Appends a tuple (deduplicating unless this is a distinct builder).
    #[inline]
    pub(crate) fn push(&mut self, t: Tuple) {
        debug_assert_eq!(
            t.arity(),
            self.schema.arity(),
            "builder tuple arity must match the schema"
        );
        match &mut self.seen {
            Some(seen) => {
                instrument::record_dedup_inserts(1);
                push_if_absent(seen, &mut self.tuples, t);
            }
            None => self.tuples.push(t),
        }
    }

    /// Finalizes the relation. A deduplicating builder donates its
    /// membership table as the relation's; a distinct builder leaves it to be
    /// materialized lazily (never, on the probe-only serving path).
    pub fn finish(self) -> Relation {
        #[cfg(debug_assertions)]
        if self.seen.is_none() {
            let distinct: FxHashSet<&Tuple> = self.tuples.iter().collect();
            debug_assert_eq!(
                distinct.len(),
                self.tuples.len(),
                "distinct builder received duplicate tuples"
            );
        }
        let seen_cell = OnceLock::new();
        if let Some(seen) = self.seen {
            let _ = seen_cell.set(seen);
        }
        Relation {
            name: self.name,
            schema: self.schema,
            tuples: self.tuples,
            seen: seen_cell,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(name: &'static str, pairs: &[(u64, u64)]) -> Relation {
        Relation::binary(name, 0, 1, pairs.iter().copied())
    }

    #[test]
    fn insert_dedup_and_contains() {
        let mut r = Relation::new("R", Schema::of([0, 1]));
        assert!(r.insert(Tuple::pair(1, 2)).unwrap());
        assert!(!r.insert(Tuple::pair(1, 2)).unwrap());
        assert!(r.insert(Tuple::pair(2, 3)).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::pair(1, 2)));
        assert!(!r.contains(&Tuple::pair(3, 2)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::new("R", Schema::of([0, 1]));
        assert!(r.insert(Tuple::triple(1, 2, 3)).is_err());
    }

    #[test]
    fn distinct_count_and_degree() {
        let r = edges("R", &[(1, 10), (1, 11), (1, 12), (2, 10), (3, 10)]);
        assert_eq!(r.distinct_count(VarSet::singleton(0)).unwrap(), 3);
        assert_eq!(r.distinct_count(VarSet::singleton(1)).unwrap(), 3);
        assert_eq!(
            r.distinct_count(VarSet::from_iter([0, 1])).unwrap(),
            5
        );
        // max out-degree of variable x1 is 3 (vertex 1).
        assert_eq!(
            r.max_degree(VarSet::singleton(0), VarSet::from_iter([0, 1]))
                .unwrap(),
            3
        );
        // max in-degree is 3 (vertex 10).
        assert_eq!(
            r.max_degree(VarSet::singleton(1), VarSet::from_iter([0, 1]))
                .unwrap(),
            3
        );
        // cardinality constraint: X = ∅.
        assert_eq!(
            r.max_degree(VarSet::EMPTY, VarSet::from_iter([0, 1])).unwrap(),
            5
        );
    }

    #[test]
    fn column_extraction() {
        let r = edges("R", &[(1, 10), (2, 20)]);
        let mut c = r.column(1).unwrap();
        c.sort_unstable();
        assert_eq!(c, vec![10, 20]);
        assert!(r.column(5).is_err());
    }

    #[test]
    fn equality_ignores_name_and_order() {
        let a = edges("R", &[(1, 2), (3, 4)]);
        let b = edges("S", &[(3, 4), (1, 2)]);
        assert_eq!(a, b);
        let c = edges("R", &[(1, 2)]);
        assert_ne!(a, c);
    }

    #[test]
    fn stored_values() {
        let r = edges("R", &[(1, 2), (3, 4), (5, 6)]);
        assert_eq!(r.stored_values(), 6);
    }

    #[test]
    fn distinct_builder_skips_the_dedup_set() {
        let before = instrument::dedup_inserts();
        let mut b = RelationBuilder::distinct("out", Schema::of([0, 1]));
        for i in 0..100u64 {
            b.push(Tuple::pair(i, i + 1));
        }
        let r = b.finish();
        assert_eq!(r.len(), 100);
        assert_eq!(
            instrument::dedup_inserts(),
            before,
            "distinct builder must not touch the dedup machinery"
        );
        // Membership still works — the set materializes lazily (and is
        // counted when it does).
        assert!(r.contains(&Tuple::pair(7, 8)));
        assert!(!r.contains(&Tuple::pair(8, 7)));
        assert_eq!(instrument::dedup_inserts(), before + 100);
    }

    #[test]
    fn dedup_builder_matches_insert_semantics() {
        let mut b = RelationBuilder::new("out", Schema::of([0, 1]));
        b.push(Tuple::pair(1, 2));
        b.push(Tuple::pair(1, 2));
        b.push(Tuple::pair(2, 3));
        let r = b.finish();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::pair(1, 2)));
        let direct =
            Relation::from_tuples("out", Schema::of([0, 1]), [Tuple::pair(1, 2), Tuple::pair(2, 3)])
                .unwrap();
        assert_eq!(r, direct);
    }

    #[test]
    fn remove_all_updates_membership() {
        let mut r = edges("R", &[(1, 2), (3, 4), (5, 6)]);
        assert!(r.contains(&Tuple::pair(1, 2))); // forces the seen set
        assert_eq!(r.remove_all(&[Tuple::pair(1, 2), Tuple::pair(9, 9)]), 1);
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&Tuple::pair(1, 2)));
        // The survivor that was swapped into the hole is still addressable.
        assert_eq!(r.remove_all(&[Tuple::pair(5, 6), Tuple::pair(5, 6)]), 1);
        assert_eq!(r.tuples(), &[Tuple::pair(3, 4)]);
        assert!(r.insert(Tuple::pair(5, 6)).unwrap());
        // A removed tuple can be re-inserted (delete-then-reinsert).
        assert!(r.insert(Tuple::pair(1, 2)).unwrap());
        assert_eq!(r.len(), 3);
        assert_eq!(r, edges("R", &[(1, 2), (3, 4), (5, 6)]));
    }

    #[test]
    fn remove_all_does_not_force_the_membership_set() {
        let mut b = RelationBuilder::distinct("out", Schema::of([0, 1]));
        for i in 0..10u64 {
            b.push(Tuple::pair(i, i + 1));
        }
        let mut r = b.finish();
        let before = instrument::dedup_inserts();
        assert_eq!(r.remove_all(&[Tuple::pair(0, 1)]), 1);
        assert_eq!(
            instrument::dedup_inserts(),
            before,
            "removal must not materialize the lazy membership set"
        );
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn lazy_relations_interoperate_with_eager_ones() {
        let mut b = RelationBuilder::distinct("lazy", Schema::of([0, 1]));
        b.push(Tuple::pair(1, 2));
        b.push(Tuple::pair(3, 4));
        let lazy = b.finish();
        let eager = edges("eager", &[(3, 4), (1, 2)]);
        assert_eq!(lazy, eager);
        // Inserting into a lazily-built relation still deduplicates.
        let mut lazy = lazy;
        assert!(!lazy.insert(Tuple::pair(1, 2)).unwrap());
        assert!(lazy.insert(Tuple::pair(5, 6)).unwrap());
        assert_eq!(lazy.len(), 3);
    }
}
