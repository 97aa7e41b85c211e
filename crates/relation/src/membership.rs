//! The position table behind every set-semantics row store of this
//! crate: [`Relation`](crate::Relation)'s membership test and both lookup
//! tables of [`KeyedRows`](crate::KeyedRows).
//!
//! A store keeps its rows once, in a vector; this table only maps a row's
//! hash to its *position* in that vector. Compared with a `HashSet<Tuple>`
//! shadow copy that is 9 bytes per slot instead of a whole tuple, and
//! because the position is known a delete is a `swap_remove` — `O(1)`,
//! not a scan — which is what lets delta maintenance edit a 300 k-tuple
//! view at a cost proportional to the delta.
//!
//! Open addressing with linear probing at a load of at most one half.
//! Every slot carries 32 bits of the row's hash next to the position, so
//! probing compares hash bits before it touches a row, and growing,
//! shrinking or deleting never re-hashes one. In front of the 8-byte
//! entries sits one *tag byte* per slot — what a probe actually walks:
//! most S-view probes are semijoin misses, and a miss that reads only
//! the dense tags keeps the randomly touched part of a 16 MB table at
//! 2 MB (on the benchmark's 553 k-row view the entries-only table was
//! 8 % slower end to end than the hash map it replaced; with tags it is
//! level).

const POSITION: u64 = u32::MAX as u64;
const MIN_SLOTS: usize = 8;

/// The 32 hash bits a slot stores for a row whose 64-bit Fx hash is
/// `hash`: the high half, where a multiplicative hash mixes best.
#[inline]
pub(crate) fn hash_bits(hash: u64) -> u64 {
    hash >> 32
}

/// The tag of an occupied slot: seven of the row's hash bits under a set
/// high bit (a free slot's tag is 0). The low bits, because a slot's home
/// is the *top* bits of the same 32.
#[inline]
fn tag_of(bits: u64) -> u8 {
    0x80 | (bits & 0x7f) as u8
}

/// Positions of a duplicate-free row store, keyed by row.
///
/// The table never owns (or even sees) rows: lookups take the row's
/// [`hash_bits`] plus a predicate over candidate positions, and the caller
/// keeps the table and its store in step — a successful
/// [`PositionTable::insert`] is followed by a push at the registered
/// position, a delete is [`PositionTable::remove`], a `swap_remove` on
/// the store, and a [`PositionTable::repoint`] of the row that filled the
/// hole.
#[derive(Clone, Debug, Default)]
pub(crate) struct PositionTable {
    /// One byte per slot, 0 while the slot is free: what a probe walks.
    /// A lookup that misses reads only these — one dense byte per slot
    /// instead of an 8-byte entry, so the part of a large table that
    /// probes touch at random stays an eighth of its size (cache lines,
    /// and above all TLB reach).
    tags: Vec<u8>,
    /// `hash bits << 32 | position` where the tag is set, unspecified
    /// elsewhere. Both vectors are empty until the first insert, then a
    /// power of two ≥ `MIN_SLOTS` and ≥ twice `len` long.
    slots: Vec<u64>,
    len: usize,
}

impl PositionTable {
    /// An empty table with room for `rows` entries.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        let mut table = PositionTable::default();
        if rows > 0 {
            table.resize((rows * 2).next_power_of_two().max(MIN_SLOTS));
        }
        table
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>() + self.tags.capacity()
    }

    /// Where probing for these hash bits starts.
    #[inline]
    fn home(&self, bits: u64) -> usize {
        // `slots.len()` is 2^k with 3 ≤ k ≤ 32: the top k of the 32 bits.
        (bits >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// Stores an entry known to be absent in the first free slot of its
    /// probe sequence.
    fn place(&mut self, entry: u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(entry >> 32);
        while self.tags[i] != 0 {
            i = (i + 1) & mask;
        }
        self.tags[i] = tag_of(entry >> 32);
        self.slots[i] = entry;
    }

    /// Re-seats every entry in a table of `slots` slots, by its stored
    /// hash bits.
    fn resize(&mut self, slots: usize) {
        assert!(slots <= 1 << 32, "row store exceeds 2^31 rows");
        let old_tags = std::mem::replace(&mut self.tags, vec![0; slots]);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; slots]);
        for (tag, entry) in old_tags.into_iter().zip(old_slots) {
            if tag != 0 {
                self.place(entry);
            }
        }
    }

    /// The slot holding exactly the entry `(bits, at)`, which must exist.
    fn slot_of(&self, bits: u64, at: usize) -> usize {
        let (tag, entry) = (tag_of(bits), bits << 32 | at as u64);
        let mask = self.slots.len() - 1;
        let mut i = self.home(bits);
        while self.tags[i] != tag || self.slots[i] != entry {
            debug_assert_ne!(self.tags[i], 0, "every stored row has an entry");
            i = (i + 1) & mask;
        }
        i
    }

    /// The position of the row with these hash bits that `is_row` accepts,
    /// if there is one.
    #[inline]
    pub(crate) fn find(&self, bits: u64, mut is_row: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = tag_of(bits);
        let mask = self.slots.len() - 1;
        let mut i = self.home(bits);
        loop {
            if self.tags[i] == 0 {
                return None;
            }
            if self.tags[i] == tag {
                let entry = self.slots[i];
                let at = (entry & POSITION) as usize;
                if entry >> 32 == bits && is_row(at) {
                    return Some(at);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Registers a row with these hash bits at position `at` unless
    /// `is_row` accepts a stored one, whose position comes back instead;
    /// on `None` the caller must store the row at `at`.
    #[inline]
    pub(crate) fn insert(
        &mut self,
        bits: u64,
        at: usize,
        mut is_row: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.resize((self.slots.len() * 2).max(MIN_SLOTS));
        }
        let tag = tag_of(bits);
        let mask = self.slots.len() - 1;
        let mut i = self.home(bits);
        loop {
            if self.tags[i] == 0 {
                self.tags[i] = tag;
                self.slots[i] = bits << 32 | at as u64;
                self.len += 1;
                return None;
            }
            if self.tags[i] == tag {
                let entry = self.slots[i];
                let found = (entry & POSITION) as usize;
                if entry >> 32 == bits && is_row(found) {
                    return Some(found);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Registers a row known to be absent (bulk loads of distinct rows).
    pub(crate) fn insert_new(&mut self, bits: u64, at: usize) {
        let absent = self.insert(bits, at, |_| false);
        debug_assert!(absent.is_none());
    }

    /// Drops the entry of the row at position `at` (the caller removes
    /// the row itself), closing the gap in the probe sequences running
    /// through its slot — backward-shift deletion: no tombstones, so
    /// lookups never slow down under a delete-heavy stream. A table left
    /// under one-eighth full halves, so a store that shrank gives its
    /// slots back.
    pub(crate) fn remove(&mut self, bits: u64, at: usize) {
        let mut hole = self.slot_of(bits, at);
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            if self.tags[i] == 0 {
                break;
            }
            // The entry may move back into the hole iff the hole lies on
            // its probe path, i.e. cyclically within [home, i).
            let entry = self.slots[i];
            let from_home = i.wrapping_sub(self.home(entry >> 32)) & mask;
            let from_hole = i.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.tags[hole] = self.tags[i];
                self.slots[hole] = entry;
                hole = i;
            }
        }
        self.tags[hole] = 0;
        self.len -= 1;
        if self.slots.len() > MIN_SLOTS && self.len * 8 < self.slots.len() {
            self.resize(self.slots.len() / 2);
        }
    }

    /// Re-points the entry of the row that moved from position `from` to
    /// position `to` (the `swap_remove` that filled a hole).
    pub(crate) fn repoint(&mut self, bits: u64, from: usize, to: usize) {
        let slot = self.slot_of(bits, from);
        self.slots[slot] = bits << 32 | to as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::{hash_vals, FxHashSet, Tuple};

    fn bits(t: &Tuple) -> u64 {
        hash_bits(hash_vals(t.as_slice()))
    }

    /// Checks the table against the vector it indexes and a model set.
    fn check(table: &PositionTable, tuples: &[Tuple], model: &FxHashSet<Tuple>) {
        assert_eq!(table.len, tuples.len());
        assert_eq!(tuples.len(), model.len());
        assert!(table.slots.is_empty() || table.slots.len() >= 2 * table.len);
        assert!(
            table.slots.len() <= MIN_SLOTS.max(16 * table.len),
            "a shrunken store must give its slots back"
        );
        for (at, t) in tuples.iter().enumerate() {
            assert_eq!(table.find(bits(t), |i| tuples[i] == *t), Some(at));
            assert!(model.contains(t));
        }
    }

    /// The delete protocol every store follows: drop the entry,
    /// `swap_remove` the row, re-point the row that filled the hole.
    fn remove(table: &mut PositionTable, tuples: &mut Vec<Tuple>, t: &Tuple) -> bool {
        let Some(at) = table.find(bits(t), |i| tuples[i] == *t) else {
            return false;
        };
        table.remove(bits(t), at);
        tuples.swap_remove(at);
        if let Some(moved) = tuples.get(at) {
            table.repoint(bits(moved), tuples.len(), at);
        }
        true
    }

    #[test]
    fn random_inserts_and_removes_track_a_model_set() {
        // A small value domain forces duplicates, re-inserts after
        // removal, long probe runs and several resizes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut table = PositionTable::default();
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut model: FxHashSet<Tuple> = FxHashSet::default();
        for step in 0..6_000 {
            let t = Tuple::pair(next() % 40, next() % 40);
            if next() % 3 == 0 {
                assert_eq!(remove(&mut table, &mut tuples, &t), model.remove(&t));
            } else {
                let fresh = table
                    .insert(bits(&t), tuples.len(), |i| tuples[i] == t)
                    .is_none();
                assert_eq!(fresh, model.insert(t.clone()));
                if fresh {
                    tuples.push(t.clone());
                }
            }
            assert_eq!(
                table.find(bits(&t), |i| tuples[i] == t).is_some(),
                model.contains(&t)
            );
            if step % 500 == 0 {
                check(&table, &tuples, &model);
            }
        }
        check(&table, &tuples, &model);
        // Drain completely: backward shifts must leave no stranded entry.
        for t in model.clone() {
            assert!(remove(&mut table, &mut tuples, &t));
        }
        assert!(tuples.is_empty());
        assert_eq!(table.slots.len(), MIN_SLOTS);
        assert!(table.tags.iter().all(|&tag| tag == 0));
    }

    #[test]
    fn bulk_build_equals_incremental_inserts() {
        let tuples: Vec<Tuple> = (0..1_000u64).map(|i| Tuple::pair(i % 31, i)).collect();
        let mut table = PositionTable::with_capacity(tuples.len());
        for (at, t) in tuples.iter().enumerate() {
            table.insert_new(bits(t), at);
        }
        assert_eq!(table.slots.len(), 2_048, "sized once, never regrown");
        let model: FxHashSet<Tuple> = tuples.iter().cloned().collect();
        check(&table, &tuples, &model);
        let absent = Tuple::pair(31, 0);
        assert_eq!(table.find(bits(&absent), |i| tuples[i] == absent), None);
        assert_eq!(PositionTable::default().find(0, |_| true), None);
    }
}
