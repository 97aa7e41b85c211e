//! The membership table behind [`Relation`](crate::Relation)'s set
//! semantics.
//!
//! A relation keeps its tuples once, in a vector; this table only maps a
//! tuple's hash to its *position* in that vector. Compared with a
//! `HashSet<Tuple>` shadow copy that is 8 bytes per slot instead of a
//! whole tuple, and because the position is known a delete is a
//! `swap_remove` — `O(1)`, not a scan — which is what lets delta
//! maintenance edit a 300 k-tuple view at a cost proportional to the
//! delta.
//!
//! Open addressing with linear probing at a load of at most one half.
//! Every slot carries 32 bits of the tuple's hash next to the position,
//! so probing compares hash bits before it touches a tuple, and growing
//! or deleting never re-hashes one.

use cqap_common::{hash_vals, Tuple};

const EMPTY: u64 = u64::MAX;
const POSITION: u64 = u32::MAX as u64;
const MIN_SLOTS: usize = 8;

/// Positions of a duplicate-free tuple vector, keyed by tuple.
///
/// The table never owns tuples: every operation takes the vector it
/// indexes, and the caller keeps the two in step (`insert` is followed by
/// a push of the same tuple; `remove` edits the vector itself).
#[derive(Clone, Debug, Default)]
pub(crate) struct Membership {
    /// `EMPTY`, or `hash bits << 32 | position`. Empty until the first
    /// insert, then a power of two ≥ `MIN_SLOTS` and ≥ twice `len`.
    slots: Vec<u64>,
    len: usize,
}

/// The 32 hash bits a slot stores: the high half of the Fx hash, where a
/// multiplicative hash mixes best.
#[inline]
fn hash_bits(t: &Tuple) -> u64 {
    hash_vals(t.as_slice()) >> 32
}

impl Membership {
    /// The table of `tuples`, which must be pairwise distinct.
    pub(crate) fn of(tuples: &[Tuple]) -> Self {
        let mut table = Membership::default();
        table.resize((tuples.len() * 2).next_power_of_two().max(MIN_SLOTS));
        for (at, t) in tuples.iter().enumerate() {
            table.place(hash_bits(t) << 32 | at as u64);
        }
        table.len = tuples.len();
        table
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
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = entry;
    }

    /// Re-seats every entry in a table of `slots` slots, by its stored
    /// hash bits.
    fn resize(&mut self, slots: usize) {
        // A position must stay below `POSITION` so no entry equals `EMPTY`.
        assert!(slots <= 1 << 32, "relation exceeds 2^31 tuples");
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for entry in old.into_iter().filter(|&e| e != EMPTY) {
            self.place(entry);
        }
    }

    /// The slot holding `t`, if it is a member.
    fn slot_of(&self, tuples: &[Tuple], t: &Tuple) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let bits = hash_bits(t);
        let mask = self.slots.len() - 1;
        let mut i = self.home(bits);
        loop {
            let entry = self.slots[i];
            if entry == EMPTY {
                return None;
            }
            if entry >> 32 == bits && tuples[(entry & POSITION) as usize] == *t {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether `t` is one of `tuples`.
    #[inline]
    pub(crate) fn contains(&self, tuples: &[Tuple], t: &Tuple) -> bool {
        self.slot_of(tuples, t).is_some()
    }

    /// Registers `t` at position `tuples.len()` unless it is already a
    /// member; on `true` the caller must push `t` onto `tuples`.
    pub(crate) fn insert(&mut self, tuples: &[Tuple], t: &Tuple) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.resize((self.slots.len() * 2).max(MIN_SLOTS));
        }
        let bits = hash_bits(t);
        let mask = self.slots.len() - 1;
        let mut i = self.home(bits);
        loop {
            let entry = self.slots[i];
            if entry == EMPTY {
                self.slots[i] = bits << 32 | tuples.len() as u64;
                self.len += 1;
                return true;
            }
            if entry >> 32 == bits && tuples[(entry & POSITION) as usize] == *t {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `t` from the table **and** from `tuples` (by `swap_remove`,
    /// re-pointing the entry of the tuple that fills the hole). Returns
    /// whether it was a member.
    pub(crate) fn remove(&mut self, tuples: &mut Vec<Tuple>, t: &Tuple) -> bool {
        let Some(slot) = self.slot_of(tuples, t) else {
            return false;
        };
        let at = (self.slots[slot] & POSITION) as usize;
        self.vacate(slot);
        self.len -= 1;
        tuples.swap_remove(at);
        if let Some(moved) = tuples.get(at) {
            let bits = hash_bits(moved);
            let stale = bits << 32 | tuples.len() as u64;
            let mask = self.slots.len() - 1;
            let mut i = self.home(bits);
            while self.slots[i] != stale {
                debug_assert_ne!(self.slots[i], EMPTY, "every stored tuple has an entry");
                i = (i + 1) & mask;
            }
            self.slots[i] = bits << 32 | at as u64;
        }
        true
    }

    /// Empties `hole` and closes the gap in the probe sequences running
    /// through it (backward-shift deletion: no tombstones, so lookups
    /// never slow down under a delete-heavy stream).
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let entry = self.slots[i];
            if entry == EMPTY {
                break;
            }
            // The entry may move back into the hole iff the hole lies on
            // its probe path, i.e. cyclically within [home, i).
            let from_home = i.wrapping_sub(self.home(entry >> 32)) & mask;
            let from_hole = i.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.slots[hole] = entry;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::FxHashSet;

    /// Checks the table against the vector it indexes and a model set.
    fn check(table: &Membership, tuples: &[Tuple], model: &FxHashSet<Tuple>) {
        assert_eq!(table.len, tuples.len());
        assert_eq!(tuples.len(), model.len());
        assert!(table.slots.is_empty() || table.slots.len() >= 2 * table.len);
        for (at, t) in tuples.iter().enumerate() {
            let slot = table.slot_of(tuples, t).expect("stored tuple is a member");
            assert_eq!((table.slots[slot] & POSITION) as usize, at);
            assert!(model.contains(t));
        }
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
        let mut table = Membership::default();
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut model: FxHashSet<Tuple> = FxHashSet::default();
        for step in 0..6_000 {
            let t = Tuple::pair(next() % 40, next() % 40);
            if next() % 3 == 0 {
                assert_eq!(table.remove(&mut tuples, &t), model.remove(&t));
            } else {
                let fresh = table.insert(&tuples, &t);
                assert_eq!(fresh, model.insert(t.clone()));
                if fresh {
                    tuples.push(t.clone());
                }
            }
            assert_eq!(table.contains(&tuples, &t), model.contains(&t));
            if step % 500 == 0 {
                check(&table, &tuples, &model);
            }
        }
        check(&table, &tuples, &model);
        // Drain completely: backward shifts must leave no stranded entry.
        for t in model.clone() {
            assert!(table.remove(&mut tuples, &t));
        }
        assert!(tuples.is_empty());
        assert!(table.slots.iter().all(|&e| e == EMPTY));
    }

    #[test]
    fn bulk_build_equals_incremental_inserts() {
        let tuples: Vec<Tuple> = (0..1_000u64).map(|i| Tuple::pair(i % 31, i)).collect();
        let table = Membership::of(&tuples);
        let model: FxHashSet<Tuple> = tuples.iter().cloned().collect();
        check(&table, &tuples, &model);
        assert!(!table.contains(&tuples, &Tuple::pair(31, 0)));
        assert!(!Membership::default().contains(&[], &Tuple::pair(0, 0)));
    }
}
