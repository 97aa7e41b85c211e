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
//! Open addressing with linear probing at a load of at most three
//! quarters (a table doubles past ¾ and halves under ⅛, so it holds 12–24
//! bytes per row). Every slot carries 32 bits of the row's hash next to
//! the position, so probing compares hash bits before it touches a row,
//! and growing, shrinking or deleting never re-hashes one. In front of
//! the 8-byte entries sits one *tag byte* per slot — what a probe
//! actually walks, eight slots per aligned `u64` word: a word gives its
//! free slots exactly and its tag matches as candidates for the entries'
//! hash bits to confirm, so the longer runs of a fuller table cost a
//! probe one or two words, not a branch per slot. Most S-view probes are
//! semijoin misses, and a miss that reads only the dense tags keeps the
//! randomly touched part of a table at an eighth of it (on the
//! benchmark's 553 k-row view, 1 MB of tags in front of 8 MB of entries;
//! an entries-only table was 8 % slower end to end than the hash map it
//! replaced, with tags it is level).

const POSITION: u64 = u32::MAX as u64;
/// Slots per tag word: a probe's unit, and a hint's group.
const GROUP: usize = 8;
const MIN_SLOTS: usize = GROUP;
/// The low / high bit of every tag byte of a word.
const LANE_LOW: u64 = 0x0101_0101_0101_0101;
const LANE_HIGH: u64 = 0x8080_8080_8080_8080;

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

/// The high bit of every free lane of a tag word: exact, since an
/// occupied tag has its high bit set and a free one is 0.
#[inline]
fn free_lanes(word: u64) -> u64 {
    !word & LANE_HIGH
}

/// The high bit of every lane of a tag word that holds `tag`, plus
/// possibly some occupied lanes above a true match (the borrow of the
/// zero-byte test) — candidates, which the entries' hash bits confirm.
/// Never a free lane: its high bit differs from `tag`'s.
#[inline]
fn tag_lanes(word: u64, tag: u8) -> u64 {
    let x = word ^ (LANE_LOW * u64::from(tag));
    x.wrapping_sub(LANE_LOW) & !x & LANE_HIGH
}

/// The lane of a word whose high bit is the lowest set bit of `lanes`.
#[inline]
fn first_lane(lanes: u64) -> usize {
    lanes.trailing_zeros() as usize / 8
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
    /// One tag byte per slot, 0 while the slot is free, slot `i` in byte
    /// `i % 8` of word `i / 8`: what a probe walks. A lookup that misses
    /// reads only these — one dense byte per slot instead of an 8-byte
    /// entry, so the part of a large table that probes touch at random
    /// stays an eighth of its size (cache lines, and above all TLB reach).
    tags: Vec<u64>,
    /// `hash bits << 32 | position` where the tag is set, unspecified
    /// elsewhere. Both vectors are empty until the first insert, then
    /// hold a power of two ≥ `MIN_SLOTS` slots, at least four for every
    /// three entries.
    slots: Vec<u64>,
    len: usize,
}

impl PositionTable {
    /// An empty table with room for `rows` entries.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        let mut table = PositionTable::default();
        if rows > 0 {
            table.resize((rows * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS));
        }
        table
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.tags.capacity() + self.slots.capacity()) * std::mem::size_of::<u64>()
    }

    /// Where probing for these hash bits starts.
    #[inline]
    fn home(&self, bits: u64) -> usize {
        // The table holds 2^k slots with 3 ≤ k ≤ 32: the top k of the 32
        // bits.
        (bits >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// Sets `slot`'s tag (0 frees it) and entry.
    #[inline]
    fn set(&mut self, slot: usize, tag: u8, entry: u64) {
        let shift = slot % GROUP * 8;
        let word = &mut self.tags[slot / GROUP];
        *word = *word & !(0xff << shift) | u64::from(tag) << shift;
        self.slots[slot] = entry;
    }

    /// Walks the probe sequence of these hash bits a tag word at a time
    /// (lanes below the home slot masked off in the first): the position
    /// of each entry before the first free slot that carries exactly
    /// these bits goes to `is_row`, in probe order. `Ok` with the slot of
    /// the first position `is_row` accepts, else `Err` with the first free
    /// slot. The table must not be empty.
    #[inline]
    fn probe(&self, bits: u64, mut is_row: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let tag = tag_of(bits);
        let mut hit = |slot: usize| {
            let entry = self.slots[slot];
            entry >> 32 == bits && is_row((entry & POSITION) as usize)
        };
        let word_mask = self.tags.len() - 1;
        let home = self.home(bits);
        let (mut w, lane) = (home / GROUP, home % GROUP);
        let mut word = self.tags[w];
        // The home slot alone first: its entry's address does not wait on
        // the tag word, so for a row at home — most hits — the tag and
        // the entry are loaded together.
        if (word >> (lane * 8)) as u8 == tag && hit(home) {
            return Ok(home);
        }
        let mut lanes = !0u64 << (lane * 8);
        let mut past_home = lanes << 8;
        loop {
            let free = free_lanes(word) & lanes;
            // Only lanes before the first free one can hold the row.
            let before_free = (free & free.wrapping_neg()).wrapping_sub(1);
            let mut candidates = tag_lanes(word, tag) & past_home & before_free;
            while candidates != 0 {
                let slot = w * GROUP + first_lane(candidates);
                if hit(slot) {
                    return Ok(slot);
                }
                candidates &= candidates - 1;
            }
            if free != 0 {
                return Err(w * GROUP + first_lane(free));
            }
            w = (w + 1) & word_mask;
            (word, lanes, past_home) = (self.tags[w], !0, !0);
        }
    }

    /// Re-seats every entry in a table of `slots` slots, by its stored
    /// hash bits.
    fn resize(&mut self, slots: usize) {
        // Positions are 32-bit and `u32::MAX` is reserved (`KeyedRows`'
        // chain terminator): 2^32 slots at a load of ¾ stay below it.
        assert!(slots <= 1 << 32, "row store exceeds 3 · 2^30 rows");
        let old_tags = std::mem::replace(&mut self.tags, vec![0; slots / GROUP]);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; slots]);
        let word_mask = self.tags.len() - 1;
        for (word, group) in old_tags.into_iter().zip(old_slots.chunks_exact(GROUP)) {
            // Occupied lanes only; each entry, known absent, takes the
            // first free slot of its probe sequence.
            let mut occupied = word & LANE_HIGH;
            while occupied != 0 {
                let lane = first_lane(occupied);
                occupied &= occupied - 1;
                let entry = group[lane];
                let home = self.home(entry >> 32);
                let (mut w, mut lanes) = (home / GROUP, !0u64 << (home % GROUP * 8));
                let free = loop {
                    let free = free_lanes(self.tags[w]) & lanes;
                    if free != 0 {
                        break w * GROUP + first_lane(free);
                    }
                    (w, lanes) = ((w + 1) & word_mask, !0);
                };
                self.set(free, (word >> (lane * 8)) as u8, entry);
            }
        }
    }

    /// The slot holding exactly the entry `(bits, at)`, which must exist.
    fn slot_of(&self, bits: u64, at: usize) -> usize {
        self.probe(bits, |found| found == at)
            .expect("every stored row has an entry")
    }

    /// The position of the row with these hash bits that `is_row` accepts,
    /// if there is one.
    #[inline]
    pub(crate) fn find(&self, bits: u64, is_row: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.tags.is_empty() {
            return None;
        }
        let slot = self.probe(bits, is_row).ok()?;
        Some((self.slots[slot] & POSITION) as usize)
    }

    /// The position held by the first slot of the aligned group of eight
    /// around this home whose tag matches these hash bits, at or after
    /// the home slot, if that slot's entry carries exactly these bits;
    /// `u32::MAX` otherwise (or while the table is empty). A load-only
    /// guess — the group's tag word and the home entry (whose 64-byte
    /// span holds the group's other entries) are both read whatever the
    /// tags say, so a caller that asks for a whole group of rows before it
    /// edits any has the group's cache misses in flight at once. Never an
    /// answer: a row displaced past its home's group gets no hint, and the
    /// caller must check the row at the hinted position before it trusts
    /// it.
    #[inline]
    pub(crate) fn home_hint(&self, bits: u64) -> u32 {
        if self.tags.is_empty() {
            return u32::MAX;
        }
        let home = self.home(bits);
        let (word, group) = (
            self.tags[home / GROUP],
            &self.slots[home & !(GROUP - 1)..][..GROUP],
        );
        // The home entry is read unconditionally (kept from being sunk
        // into the branch that uses it): its address does not wait on the
        // tag word, so the line is in flight beside it.
        let at_home = std::hint::black_box(group[home % GROUP]);
        let tag = tag_of(bits);
        let entry = match (word >> (home % GROUP * 8)) as u8 {
            home_tag if home_tag == tag => at_home,
            // A free home slot: no row has this home.
            0 => return u32::MAX,
            _ => {
                let candidates = tag_lanes(word, tag) & !0u64 << (home % GROUP * 8);
                if candidates == 0 {
                    return u32::MAX;
                }
                group[first_lane(candidates)]
            }
        };
        if entry >> 32 == bits {
            (entry & POSITION) as u32
        } else {
            u32::MAX
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
        is_row: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.resize((self.slots.len() * 2).max(MIN_SLOTS));
        }
        match self.probe(bits, is_row) {
            Ok(slot) => Some((self.slots[slot] & POSITION) as usize),
            Err(free) => {
                self.set(free, tag_of(bits), bits << 32 | at as u64);
                self.len += 1;
                None
            }
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
        // The run after the hole, a tag word at a time: every lane up to
        // the first free one holds an entry that may shift back.
        let mut next = (hole + 1) & mask;
        loop {
            let (w, first) = (next / GROUP, next % GROUP);
            let word = self.tags[w];
            let free = free_lanes(word) & !0u64 << (first * 8);
            let end = if free == 0 { GROUP } else { first_lane(free) };
            for lane in first..end {
                // The entry may move back into the hole iff the hole lies
                // on its probe path, i.e. cyclically within [home, slot).
                let slot = w * GROUP + lane;
                let entry = self.slots[slot];
                let from_home = slot.wrapping_sub(self.home(entry >> 32)) & mask;
                let from_hole = slot.wrapping_sub(hole) & mask;
                if from_home >= from_hole {
                    self.set(hole, (word >> (lane * 8)) as u8, entry);
                    hole = slot;
                }
            }
            if free != 0 {
                break;
            }
            next = ((w + 1) * GROUP) & mask;
        }
        self.set(hole, 0, 0);
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
    use std::hash::Hash;

    fn bits(t: &Tuple) -> u64 {
        hash_bits(hash_vals(t.as_slice()))
    }

    /// The tag of slot `i`.
    fn tag(table: &PositionTable, i: usize) -> u8 {
        (table.tags[i / GROUP] >> (i % GROUP * 8)) as u8
    }

    /// Checks the table against the vector it indexes and a model set.
    fn check<R: Eq + Hash>(
        table: &PositionTable,
        rows: &[R],
        model: &FxHashSet<R>,
        bits: impl Fn(&R) -> u64,
    ) {
        assert_eq!(table.len, rows.len());
        assert_eq!(rows.len(), model.len());
        assert!(table.tags.is_empty() || 4 * table.len <= 3 * table.slots.len());
        assert!(
            table.slots.len() <= MIN_SLOTS.max(16 * table.len),
            "a shrunken store must give its slots back"
        );
        let occupied = (0..table.slots.len()).filter(|&i| tag(table, i) != 0);
        for i in occupied.clone() {
            assert_eq!(tag(table, i), tag_of(table.slots[i] >> 32), "slot {i}");
        }
        assert_eq!(occupied.count(), table.len);
        for (at, row) in rows.iter().enumerate() {
            assert_eq!(table.find(bits(row), |i| rows[i] == *row), Some(at));
            assert!(model.contains(row));
        }
    }

    /// The delete protocol every store follows: drop the entry,
    /// `swap_remove` the row, re-point the row that filled the hole.
    fn remove<R: PartialEq>(
        table: &mut PositionTable,
        rows: &mut Vec<R>,
        row: &R,
        bits: impl Fn(&R) -> u64,
    ) -> bool {
        let Some(at) = table.find(bits(row), |i| rows[i] == *row) else {
            return false;
        };
        table.remove(bits(row), at);
        rows.swap_remove(at);
        if let Some(moved) = rows.get(at) {
            table.repoint(bits(moved), rows.len(), at);
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
                assert_eq!(remove(&mut table, &mut tuples, &t, bits), model.remove(&t));
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
                check(&table, &tuples, &model, bits);
            }
        }
        check(&table, &tuples, &model, bits);
        // Drain completely: backward shifts must leave no stranded entry.
        for t in model.clone() {
            assert!(remove(&mut table, &mut tuples, &t, bits));
        }
        assert!(tuples.is_empty());
        assert_eq!(table.slots.len(), MIN_SLOTS);
        assert!(table.tags.iter().all(|&word| word == 0));
    }

    #[test]
    fn bulk_build_equals_incremental_inserts() {
        // 1 000 rows take 2 048 slots at a load of ½ or ¾; 1 500 fit in
        // 2 048 only at ¾ (½ gives 4 096).
        for (rows, slots) in [(1_000u64, 2_048), (1_500, 2_048)] {
            let tuples: Vec<Tuple> = (0..rows).map(|i| Tuple::pair(i % 31, i)).collect();
            let mut table = PositionTable::with_capacity(tuples.len());
            for (at, t) in tuples.iter().enumerate() {
                table.insert_new(bits(t), at);
            }
            assert_eq!(table.slots.len(), slots, "sized once, never regrown");
            let model: FxHashSet<Tuple> = tuples.iter().cloned().collect();
            check(&table, &tuples, &model, bits);
            let absent = Tuple::pair(31, 0);
            assert_eq!(table.find(bits(&absent), |i| tuples[i] == absent), None);
        }
        assert_eq!(PositionTable::default().find(0, |_| true), None);
    }

    /// Slot-granular linear probing with backward-shift deletion, one
    /// `Option` per slot: the layout the word-at-a-time table must keep.
    struct Reference(Vec<Option<u64>>);

    impl Reference {
        fn home(&self, bits: u64) -> usize {
            (bits >> (32 - self.0.len().trailing_zeros())) as usize
        }

        fn insert(&mut self, bits: u64) {
            let mask = self.0.len() - 1;
            let mut i = self.home(bits);
            while self.0[i].is_some() {
                i = (i + 1) & mask;
            }
            self.0[i] = Some(bits);
        }

        fn remove(&mut self, slot: usize) {
            let mask = self.0.len() - 1;
            let (mut hole, mut i) = (slot, slot);
            loop {
                i = (i + 1) & mask;
                let Some(bits) = self.0[i] else { break };
                if i.wrapping_sub(self.home(bits)) & mask >= i.wrapping_sub(hole) & mask {
                    self.0[hole] = Some(bits);
                    hole = i;
                }
            }
            self.0[hole] = None;
        }
    }

    #[test]
    fn a_table_at_its_three_quarter_limit_probes_and_shifts_across_the_wrap() {
        // 16 slots, two tag words; a row's home is the top 4 of its 32
        // bits. Twelve rows (the ¾ limit) whose homes 13–15 and 0 run one
        // cluster from the last tag word through all of word 0; the two
        // home-13 rows share all 32 bits, so only the row check tells
        // them apart.
        let row = |home: u64, low: u64, id: u32| (home << 28 | low, id);
        let mut rows = vec![
            row(13, 1, 0),
            row(13, 1, 1),
            row(14, 2, 2),
            row(14, 3, 3),
            row(14, 0x83, 4),
            row(15, 4, 5),
            row(15, 5, 6),
            row(0, 6, 7),
            row(0, 7, 8),
            row(5, 8, 9),
            row(6, 9, 10),
            row(7, 10, 11),
        ];
        let key = |r: &(u64, u32)| r.0;
        let mut table = PositionTable::with_capacity(rows.len());
        let mut reference = Reference(vec![None; 16]);
        let same_layout = |table: &PositionTable, reference: &Reference| {
            for (i, slot) in reference.0.iter().enumerate() {
                let want = slot.map_or(0, tag_of);
                assert_eq!(tag(table, i), want, "slot {i}");
                if let Some(bits) = slot {
                    assert_eq!(table.slots[i] >> 32, *bits, "slot {i}");
                }
            }
        };
        for (at, r) in rows.iter().enumerate() {
            assert_eq!(table.insert(r.0, at, |i| rows[i] == *r), None);
            reference.insert(r.0);
        }
        assert_eq!(table.slots.len(), 16, "exactly at ¾: not grown");
        same_layout(&table, &reference);
        // The home-14 rows sit at 15, 0 and 1; word 0 is full and only 9–12
        // are free.
        assert_eq!(table.slot_of(rows[3].0, 3), 0);
        assert_eq!(
            (0..16).filter(|&i| tag(&table, i) == 0).collect::<Vec<_>>(),
            [9, 10, 11, 12]
        );
        let model: FxHashSet<(u64, u32)> = rows.iter().copied().collect();
        check(&table, &rows, &model, key);
        let absent = row(14, 0x11, 99);
        assert_eq!(table.find(absent.0, |_| true), None);

        // Deleting at the cluster's head shifts every later row back one
        // slot, the row at slot 0 across the wrap into word 1; then rows
        // on both sides of the wrap, one a twin of the same 32 bits.
        let mut model = model;
        for (round, victim) in [rows[0], rows[5], rows[3], rows[1], rows[7]]
            .into_iter()
            .enumerate()
        {
            let at = rows.iter().position(|r| *r == victim).unwrap();
            reference.remove(table.slot_of(victim.0, at));
            assert!(remove(&mut table, &mut rows, &victim, key));
            assert!(model.remove(&victim));
            same_layout(&table, &reference);
            check(&table, &rows, &model, key);
            assert_eq!(table.find(victim.0, |i| rows[i] == victim), None);
            if round == 0 {
                let at = rows.iter().position(|r| r.1 == 3).unwrap();
                assert_eq!(table.slot_of(rows[at].0, at), 15, "shifted across the wrap");
            }
        }
        assert_eq!(table.slots.len(), 16);
    }
}
