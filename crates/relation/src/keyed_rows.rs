//! [`KeyedRows`]: the compact resident form of a materialized view.
//!
//! A view is a set of rows that is only ever *probed by a key* — its
//! projection onto the link variables it shares with its parent — and
//! edited one row at a time by delta maintenance. `KeyedRows` stores
//! exactly that and nothing twice:
//!
//! * the rows live **once**, row-major in one flat `Vec<Val>` (16 bytes
//!   for a two-column row, against a 40-byte inline `Tuple`);
//! * a row is found through the 9-byte-per-slot position table that also
//!   backs [`Relation`]'s membership test (see `membership.rs`), so set
//!   insert and delete are `O(1)` — a delete is a `swap_remove`;
//! * when the link is all columns (in schema order) the key *is* the row
//!   and that table is the probe index; when the link is empty every row
//!   matches the one empty key; only for a proper part of the row does
//!   the structure keep a grouping — a second position table over the
//!   distinct keys, pointing at the head of a doubly linked chain threaded
//!   through the rows (8 bytes per row, no per-key allocation, no key
//!   copies: a key is read off its head row), so chain edits stay `O(1)`
//!   whatever the key's degree;
//! * an optional 4-byte count column makes the view its own support-count
//!   table for delta maintenance (how many full-join rows project onto
//!   each view row): the probed rows and the counted rows are one store.
//!
//! Vectors grow by an eighth, not by doubling, and give capacity back
//! when they shrink, so [`KeyedRows::heap_bytes`] tracks the content.

use std::borrow::Cow;
use std::hash::Hasher;

use crate::membership::{hash_bits, PositionTable};
use crate::relation::{instrument, Relation, RelationBuilder};
use crate::schema::Schema;
use cqap_common::{hash_vals, CqapError, FxHasher, Result, Val, VarSet};

/// Chain terminator.
const NIL: u32 = u32::MAX;

/// One row's neighbours in the chain of rows sharing its key.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

/// How a probe key finds its rows.
#[derive(Clone, Debug)]
enum KeyIndex {
    /// Empty link: the empty key matches every row.
    Every,
    /// The key is the whole row, in schema order: the row table answers.
    Row,
    /// The key is a proper part of the row: `heads` maps each distinct
    /// key to the first row of its chain, `links[at]` chains row `at`.
    Chains {
        heads: PositionTable,
        links: Vec<Link>,
    },
}

/// A set of fixed-arity rows, stored once, probed by a link key — see the
/// module docs.
#[derive(Clone, Debug)]
pub struct KeyedRows {
    schema: Schema,
    link: VarSet,
    /// Positions of the link variables in `schema`, in ascending variable
    /// order — the order of a probe key's components.
    key_positions: Vec<usize>,
    len: usize,
    /// Row-major values, `arity` per row.
    vals: Vec<Val>,
    /// Row → its position.
    table: PositionTable,
    key: KeyIndex,
    /// Per-row support counts, for a counted structure.
    counts: Option<Vec<u32>>,
}

#[inline]
fn row_at(vals: &[Val], arity: usize, at: usize) -> &[Val] {
    &vals[at * arity..(at + 1) * arity]
}

/// Row equality as an inlined loop: rows are a few values long, where a
/// `memcmp` call costs more than the compare.
#[inline]
fn same_row(a: &[Val], b: &[Val]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

#[inline]
fn row_bits(row: &[Val]) -> u64 {
    hash_bits(hash_vals(row))
}

/// The table bits of `row`'s key: [`hash_vals`] of its projection onto
/// `key_positions`, without materializing the projection.
#[inline]
fn key_bits(row: &[Val], key_positions: &[usize]) -> u64 {
    let mut hasher = FxHasher::default();
    for &p in key_positions {
        hasher.write_u64(row[p]);
    }
    hash_bits(hasher.finish())
}

/// Room for `extra` more elements, growing by an eighth instead of `Vec`'s
/// doubling: a resident store stays within 9/8 of what it holds.
fn reserve_tight<T>(v: &mut Vec<T>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(extra.max(v.len() / 8).max(16));
    }
}

/// Gives capacity back once a vector is under half full.
fn trim<T>(v: &mut Vec<T>) {
    if v.capacity() > 64 && v.len() * 2 < v.capacity() {
        v.shrink_to(v.len() + v.len() / 8);
    }
}

impl KeyedRows {
    /// An empty row set over `schema`, probed by `link`.
    ///
    /// # Errors
    /// Fails if `link` is not a subset of the schema's variables.
    pub fn new(schema: Schema, link: VarSet) -> Result<Self> {
        let key_positions = schema.positions_of_set(link)?;
        let key = if key_positions.is_empty() {
            KeyIndex::Every
        } else if key_positions.iter().copied().eq(0..schema.arity()) {
            KeyIndex::Row
        } else {
            KeyIndex::Chains {
                heads: PositionTable::default(),
                links: Vec::new(),
            }
        };
        Ok(KeyedRows {
            schema,
            link,
            key_positions,
            len: 0,
            vals: Vec::new(),
            table: PositionTable::default(),
            key,
            counts: None,
        })
    }

    /// An empty *counted* row set: every row carries a support count,
    /// edited through [`KeyedRows::add`] / [`KeyedRows::sub`]; a row is
    /// present exactly while its count is positive.
    ///
    /// # Errors
    /// Fails if `link` is not a subset of the schema's variables.
    pub fn counted(schema: Schema, link: VarSet) -> Result<Self> {
        let mut rows = KeyedRows::new(schema, link)?;
        rows.counts = Some(Vec::new());
        Ok(rows)
    }

    /// The rows of `rel` (borrowed, not cloned), probed by `link`.
    ///
    /// # Errors
    /// Fails if `link` is not a subset of the relation's variables.
    pub fn from_relation(rel: &Relation, link: VarSet) -> Result<Self> {
        let mut out = KeyedRows::new(rel.schema().clone(), link)?;
        out.vals.reserve_exact(rel.stored_values());
        out.table = PositionTable::with_capacity(rel.len());
        for t in rel.iter() {
            // A relation is a set: no row is present yet.
            out.table.insert_new(row_bits(t.as_slice()), out.len);
            out.push(t.as_slice());
        }
        Ok(out)
    }

    /// The schema of the rows.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The link (probe-key) variables.
    #[inline]
    pub fn link(&self) -> VarSet {
        self.link
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there is no row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stored values (arity × rows) — the machine-independent space
    /// measure, as [`Relation::stored_values`].
    #[inline]
    pub fn stored_values(&self) -> usize {
        self.len * self.schema.arity()
    }

    /// Heap bytes held, from the vectors' capacities: the rows, the
    /// position table(s), the chains and the counts. Deterministic — no
    /// allocator hook — and what the resident-byte gauges publish.
    pub fn heap_bytes(&self) -> usize {
        let key = match &self.key {
            KeyIndex::Every | KeyIndex::Row => 0,
            KeyIndex::Chains { heads, links } => {
                heads.heap_bytes() + links.capacity() * std::mem::size_of::<Link>()
            }
        };
        let counts = self.counts.as_ref().map_or(0, |c| c.capacity() * 4);
        self.vals.capacity() * std::mem::size_of::<Val>() + self.table.heap_bytes() + key + counts
    }

    /// The row at position `at < len` (positions are dense and change
    /// under deletes).
    #[inline]
    pub fn row(&self, at: usize) -> &[Val] {
        row_at(&self.vals, self.schema.arity(), at)
    }

    /// Iterates the rows in position order.
    pub fn rows(&self) -> impl Iterator<Item = &[Val]> + '_ {
        (0..self.len).map(|at| self.row(at))
    }

    /// The rows as a [`Relation`] (one `Tuple` per row) — the way out for
    /// callers that need relational operators; nothing on a serving or
    /// maintenance path does.
    pub fn to_relation(&self, name: impl Into<Cow<'static, str>>) -> Relation {
        let mut out = RelationBuilder::distinct(name, self.schema.clone());
        for row in self.rows() {
            out.push_row(row);
        }
        out.finish()
    }

    fn position(&self, row: &[Val]) -> Option<usize> {
        self.table
            .find(row_bits(row), |at| same_row(self.row(at), row))
    }

    /// Whether `row` is present.
    pub fn contains(&self, row: &[Val]) -> bool {
        self.position(row).is_some()
    }

    /// The support count of `row`: 0 if absent; 1 for a present row of an
    /// uncounted set.
    pub fn count(&self, row: &[Val]) -> u32 {
        match (self.position(row), &self.counts) {
            (None, _) => 0,
            (Some(_), None) => 1,
            (Some(at), Some(counts)) => counts[at],
        }
    }

    /// Whether some row projects onto `key` (the semijoin probe). A key of
    /// the wrong arity matches nothing.
    pub fn contains_key(&self, key: &[Val]) -> bool {
        match &self.key {
            KeyIndex::Every => key.is_empty() && self.len > 0,
            KeyIndex::Row => self.contains(key),
            KeyIndex::Chains { .. } => self.head_of(key).is_some(),
        }
    }

    /// Calls `f` on every row that projects onto `key` (the join probe),
    /// in unspecified order. A key of the wrong arity matches nothing.
    pub fn for_each_match(&self, key: &[Val], mut f: impl FnMut(&[Val])) {
        match &self.key {
            KeyIndex::Every => {
                if key.is_empty() {
                    self.rows().for_each(f);
                }
            }
            KeyIndex::Row => {
                if let Some(at) = self.position(key) {
                    f(self.row(at));
                }
            }
            KeyIndex::Chains { links, .. } => {
                let mut at = self.head_of(key).map_or(NIL, |head| head as u32);
                while at != NIL {
                    f(self.row(at as usize));
                    at = links[at as usize].next;
                }
            }
        }
    }

    /// The head row of `key`'s chain (`Chains` only).
    fn head_of(&self, key: &[Val]) -> Option<usize> {
        let KeyIndex::Chains { heads, .. } = &self.key else {
            unreachable!("only a chained key index has heads");
        };
        if key.len() != self.key_positions.len() {
            return None;
        }
        heads.find(hash_bits(hash_vals(key)), |head| {
            let row = self.row(head);
            self.key_positions
                .iter()
                .zip(key)
                .all(|(&p, &k)| row[p] == k)
        })
    }

    /// Set insert into an uncounted structure; `false` if `row` was
    /// already present. Counted where [`Relation::insert`] counts
    /// ([`instrument::dedup_inserts`]).
    ///
    /// # Errors
    /// Fails if `row`'s length is not the schema's arity.
    pub fn insert(&mut self, row: &[Val]) -> Result<bool> {
        debug_assert!(
            self.counts.is_none(),
            "a counted structure is edited by add / sub"
        );
        if row.len() != self.schema.arity() {
            return Err(CqapError::SchemaMismatch {
                expected: format!("{} (arity {})", self.schema, self.schema.arity()),
                found: format!("tuple of arity {}", row.len()),
            });
        }
        instrument::record_dedup_inserts(1);
        Ok(self.enter(row).is_none())
    }

    /// Set delete from an uncounted structure; `false` if `row` was
    /// absent.
    pub fn remove(&mut self, row: &[Val]) -> bool {
        debug_assert!(
            self.counts.is_none(),
            "a counted structure is edited by add / sub"
        );
        let Some(at) = self.position(row) else {
            return false;
        };
        self.evict(at);
        true
    }

    /// Raises `row`'s support count by `n > 0`; `true` if that made the
    /// row enter the set.
    ///
    /// # Panics
    /// If the structure is uncounted, `row`'s length is not the schema's
    /// arity, or the count overflows `u32`.
    pub fn add(&mut self, row: &[Val], n: u32) -> bool {
        debug_assert!(n > 0);
        let existing = self.enter(row);
        let counts = self.counts.as_mut().expect("add needs a counted structure");
        match existing {
            None => {
                reserve_tight(counts, 1);
                counts.push(n);
                true
            }
            Some(at) => {
                counts[at] = counts[at]
                    .checked_add(n)
                    .expect("support count overflows u32");
                false
            }
        }
    }

    /// Lowers `row`'s support count by `n`; `true` if that made the row
    /// leave the set. An absent row, or a count below `n`, is a caller bug
    /// (debug-asserted; release builds clamp at zero).
    ///
    /// # Panics
    /// If the structure is uncounted.
    pub fn sub(&mut self, row: &[Val], n: u32) -> bool {
        let Some(at) = self.position(row) else {
            debug_assert!(false, "support count of an absent row went negative");
            return false;
        };
        let counts = self.counts.as_mut().expect("sub needs a counted structure");
        debug_assert!(counts[at] >= n, "support count went negative");
        counts[at] = counts[at].saturating_sub(n);
        if counts[at] > 0 {
            return false;
        }
        self.evict(at);
        true
    }

    /// Stores `row` unless it is present, in which case its position
    /// comes back. (A counted caller pushes the new row's count.)
    fn enter(&mut self, row: &[Val]) -> Option<usize> {
        let (vals, arity) = (&self.vals, self.schema.arity());
        let existing = self.table.insert(row_bits(row), self.len, |at| {
            same_row(row_at(vals, arity, at), row)
        });
        if existing.is_none() {
            self.push(row);
        }
        existing
    }

    /// Appends a row whose table entry is already registered at `len`.
    fn push(&mut self, row: &[Val]) {
        // The flat store is only addressable while every row has `arity`
        // values, so this is a hard check.
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity must match the schema"
        );
        reserve_tight(&mut self.vals, self.schema.arity());
        self.vals.extend_from_slice(row);
        self.len += 1;
        self.link_in(self.len - 1);
    }

    /// Threads the stored row `at` (the last one) into its key's chain.
    fn link_in(&mut self, at: usize) {
        let KeyIndex::Chains { heads, links } = &mut self.key else {
            return;
        };
        let (vals, arity, key_positions) = (&self.vals, self.schema.arity(), &self.key_positions);
        let row = row_at(vals, arity, at);
        let same_key = |head: usize| {
            let other = row_at(vals, arity, head);
            key_positions.iter().all(|&p| other[p] == row[p])
        };
        let link = match heads.insert(key_bits(row, key_positions), at, same_key) {
            // A new key: `at` heads its chain.
            None => Link {
                prev: NIL,
                next: NIL,
            },
            // Behind the head, so the key's table entry stays put.
            Some(head) => {
                let next = links[head].next;
                links[head].next = at as u32;
                if next != NIL {
                    links[next as usize].prev = at as u32;
                }
                Link {
                    prev: head as u32,
                    next,
                }
            }
        };
        debug_assert_eq!(links.len(), at);
        reserve_tight(links, 1);
        links.push(link);
    }

    /// Removes the row at position `at`: its table entry goes, it leaves
    /// its chain, and the last row moves into the hole (`swap_remove`
    /// across the row store, the chain links and the counts), with the
    /// moved row's table entry and chain neighbours re-pointed.
    fn evict(&mut self, at: usize) {
        let arity = self.schema.arity();
        let last = self.len - 1;
        self.table.remove(row_bits(self.row(at)), at);
        if let KeyIndex::Chains { heads, links } = &mut self.key {
            let Link { prev, next } = links[at];
            if prev != NIL {
                links[prev as usize].next = next;
            } else {
                let bits = key_bits(row_at(&self.vals, arity, at), &self.key_positions);
                if next == NIL {
                    heads.remove(bits, at);
                } else {
                    heads.repoint(bits, at, next as usize);
                }
            }
            if next != NIL {
                links[next as usize].prev = prev;
            }
            links.swap_remove(at);
            trim(links);
        }
        self.vals
            .copy_within(last * arity..(last + 1) * arity, at * arity);
        self.vals.truncate(last * arity);
        trim(&mut self.vals);
        self.len = last;
        if let Some(counts) = &mut self.counts {
            counts.swap_remove(at);
            trim(counts);
        }
        if at == last {
            return;
        }
        let moved = row_at(&self.vals, arity, at);
        self.table.repoint(row_bits(moved), last, at);
        if let KeyIndex::Chains { heads, links } = &mut self.key {
            let Link { prev, next } = links[at];
            if prev != NIL {
                links[prev as usize].next = at as u32;
            } else {
                heads.repoint(key_bits(moved, &self.key_positions), last, at);
            }
            if next != NIL {
                links[next as usize].prev = at as u32;
            }
        }
    }
}

impl PartialEq for KeyedRows {
    /// Content equality: same schema and link, the same set of rows and
    /// (for counted structures) the same count per row. Row positions are
    /// unspecified and not compared.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.link == other.link
            && self.len == other.len
            && self.counts.is_some() == other.counts.is_some()
            && self.rows().all(|row| self.count(row) == other.count(row))
    }
}

impl Eq for KeyedRows {}
