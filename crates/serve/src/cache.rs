//! A small, dependency-free LRU answer cache.
//!
//! The serving runtime keys this cache by the request value — for the
//! framework driver that is the `(access, tuples)` pair of the
//! [`AccessRequest`](cqap_query::AccessRequest) — so repeated probes of hot
//! keys (zipfian workloads) skip the online phase entirely.
//!
//! The implementation is a classic O(1) LRU: a hash map from key to slot
//! plus an intrusive doubly-linked recency list over a slab of slots. It is
//! deliberately not thread-safe on its own; the runtime wraps it in a
//! `Mutex`, which is sufficient because the critical section is a handful
//! of pointer swaps. The runtime instantiates the value type as
//! `Arc<Answer>`, so the per-hit value clone is a refcount bump.

use cqap_common::FxHashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
///
/// `get` refreshes recency; `insert` evicts the least recently used entry
/// once `capacity` is exceeded. A capacity of zero disables the cache (every
/// `insert` is a no-op and every `get` misses).
pub(crate) struct LruCache<K, V> {
    capacity: usize,
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot, `NIL` when empty.
    head: usize,
    /// Least recently used slot, `NIL` when empty.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        let mut map = FxHashMap::default();
        map.reserve(capacity.min(1 << 20));
        LruCache {
            capacity,
            map,
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let &slot = self.map.get(key)?;
        self.detach(slot);
        self.attach_front(slot);
        Some(self.slots[slot].value.clone())
    }

    /// Inserts or refreshes `key → value`, evicting the least recently used
    /// entry if the cache is full. Returns the entry the insert displaced —
    /// the evicted one, or `key` with the value it replaced on a refresh —
    /// so the caller chooses where it is dropped. A capacity-0 cache
    /// returns `None`.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.map.get(&key) {
            let old = std::mem::replace(&mut self.slots[slot].value, value);
            self.detach(slot);
            self.attach_front(slot);
            return Some((key, old));
        }
        let fresh = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let (slot, evicted) = if self.map.len() >= self.capacity {
            // Full: the least recently used slot takes the new entry.
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.detach(lru);
            let old = std::mem::replace(&mut self.slots[lru], fresh);
            self.map.remove(&old.key);
            (lru, Some((old.key, old.value)))
        } else {
            self.slots.push(fresh);
            (self.slots.len() - 1, None)
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
        evicted
    }

    /// Removes all entries.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction_order() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(1)); // refreshes "a"
        cache.insert("c", 3); // evicts "b", the LRU
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"c"), Some(3));
        assert_eq!(cache.map.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "one");
        cache.insert(2, "two");
        cache.insert(1, "uno"); // refresh: now 2 is the LRU
        cache.insert(3, "three");
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some("uno"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        assert_eq!(cache.insert(1, 1), None, "nothing to displace");
        assert_eq!(cache.get(&1), None);
        assert!(cache.map.is_empty());
    }

    #[test]
    fn insert_returns_the_evicted_entry() {
        let mut cache = LruCache::new(2);
        assert_eq!(cache.insert("a", 1), None);
        assert_eq!(cache.insert("b", 2), None, "room left: nothing evicted");
        assert_eq!(cache.get(&"a"), Some(1)); // "b" is now the LRU
        assert_eq!(cache.insert("c", 3), Some(("b", 2)));
        assert_eq!(cache.insert("d", 4), Some(("a", 1)));
        assert_eq!(cache.map.len(), 2);
    }

    #[test]
    fn insert_returns_the_replaced_value_on_a_refresh() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "one");
        cache.insert(2, "two");
        assert_eq!(cache.insert(1, "uno"), Some((1, "one")));
        assert_eq!(cache.map.len(), 2, "a refresh evicts nothing");
        assert_eq!(cache.get(&1), Some("uno"));
        assert_eq!(cache.get(&2), Some("two"));
    }

    #[test]
    fn slab_reuse_under_churn() {
        let mut cache = LruCache::new(3);
        for i in 0..100 {
            cache.insert(i, i * 10);
        }
        assert_eq!(cache.map.len(), 3);
        // Only the last three survive, most recent first.
        assert_eq!(cache.get(&99), Some(990));
        assert_eq!(cache.get(&97), Some(970));
        assert_eq!(cache.get(&0), None);
        // An eviction reuses the evicted slot: the slab stops at capacity.
        assert_eq!(cache.slots.len(), 3);
    }

    #[test]
    fn clear_resets() {
        let mut cache = LruCache::new(4);
        cache.insert(1, 1);
        cache.clear();
        assert!(cache.map.is_empty());
        cache.insert(2, 2);
        assert_eq!(cache.get(&2), Some(2));
    }
}
