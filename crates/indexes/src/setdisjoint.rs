//! Set disjointness / set intersection with a space-time tradeoff.
//!
//! The classic structure from the introduction (and Section 6.1): given a
//! family of sets with `N` membership pairs in total and a space budget
//! `S`, pick the degree threshold `Δ = N / √S`. Sets larger than `Δ` are
//! *heavy* — there are at most `N/Δ = √S` of them, so the emptiness answer
//! for every heavy-heavy pair fits in `S`. A query involving a light set is
//! answered online by scanning the lighter of the two sets (≤ `Δ`
//! elements) and probing the other's membership table, giving
//! `T = O(Δ) = O(N/√S)` and the tradeoff `S · T² = O(N²)`.
//!
//! The k-ary generalization answers k-set intersection queries by scanning
//! the smallest of the k sets and probing the remaining k−1 membership
//! tables (with the heavy-pair table still short-circuiting Boolean
//! heavy-heavy 2-set queries).

use cqap_common::{work, FxHashMap, FxHashSet, Val};
use cqap_query::workload::SetFamily;

/// A space/time-tradeoff index for set disjointness and set intersection.
pub struct SetDisjointnessIndex {
    /// Membership test: (set, element) pairs.
    membership: FxHashSet<(Val, Val)>,
    /// Elements of each set.
    elements: FxHashMap<Val, Vec<Val>>,
    /// Degree threshold Δ.
    threshold: usize,
    /// Heavy sets (size > Δ).
    heavy: FxHashSet<Val>,
    /// For heavy set pairs (a ≤ b): whether they intersect.
    heavy_pairs: FxHashMap<(Val, Val), bool>,
    budget: usize,
}

impl SetDisjointnessIndex {
    /// Builds the index from a set family with the given space budget
    /// (counted in stored values for the heavy-pair table).
    ///
    /// The threshold is `Δ = ⌈N / √budget⌉` (with `budget ≥ 1`), matching
    /// the analysis in the introduction of the paper.
    pub fn build(family: &SetFamily, budget: usize) -> Self {
        let n = family.len().max(1);
        let budget = budget.max(1);
        let threshold = (n as f64 / (budget as f64).sqrt()).ceil() as usize;
        Self::build_with_threshold(family, threshold, budget)
    }

    /// Builds the index with an explicit degree threshold (used by the
    /// benchmark harness to sweep the tradeoff directly).
    pub fn build_with_threshold(family: &SetFamily, threshold: usize, budget: usize) -> Self {
        let mut membership = FxHashSet::default();
        let mut elements: FxHashMap<Val, Vec<Val>> = FxHashMap::default();
        for &(e, s) in &family.memberships {
            if membership.insert((s, e)) {
                elements.entry(s).or_default().push(e);
            }
        }
        let threshold = threshold.max(1);
        let heavy: FxHashSet<Val> = elements
            .iter()
            .filter(|(_, els)| els.len() > threshold)
            .map(|(&s, _)| s)
            .collect();
        // Materialize emptiness answers for all heavy-heavy pairs.
        let mut heavy_list: Vec<Val> = heavy.iter().copied().collect();
        heavy_list.sort_unstable();
        let mut heavy_pairs = FxHashMap::default();
        for (i, &a) in heavy_list.iter().enumerate() {
            for &b in &heavy_list[i..] {
                let intersects = {
                    let (small, big) = if elements[&a].len() <= elements[&b].len() {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    elements[&small]
                        .iter()
                        .any(|&e| membership.contains(&(big, e)))
                };
                heavy_pairs.insert((a, b), intersects);
            }
        }
        SetDisjointnessIndex {
            membership,
            elements,
            threshold,
            heavy,
            heavy_pairs,
            budget,
        }
    }

    /// The degree threshold Δ in use.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The number of heavy sets.
    pub fn num_heavy(&self) -> usize {
        self.heavy.len()
    }

    /// The space budget the index was built for.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Intrinsic space usage: the heavy-pair table (the membership and
    /// element tables are the input database itself, which the paper counts
    /// separately as `|D|`).
    pub fn space_used(&self) -> usize {
        self.heavy_pairs.len()
    }

    /// Whether both sets are heavy (answered from the materialized table).
    pub fn is_heavy(&self, set: Val) -> bool {
        self.heavy.contains(&set)
    }

    /// 2-set disjointness: do sets `a` and `b` intersect?
    pub fn intersects(&self, a: Val, b: Val) -> bool {
        if self.heavy.contains(&a) && self.heavy.contains(&b) {
            work::add(1, 0);
            let key = if a <= b { (a, b) } else { (b, a) };
            return *self.heavy_pairs.get(&key).unwrap_or(&false);
        }
        // At least one set is light: scan the smaller one.
        let (scan, probe) = match (self.elements.get(&a), self.elements.get(&b)) {
            (Some(ea), Some(eb)) => {
                if ea.len() <= eb.len() {
                    (a, b)
                } else {
                    (b, a)
                }
            }
            _ => return false, // an unknown set is empty
        };
        let scanned = &self.elements[&scan];
        work::add(0, scanned.len() as u64);
        scanned
            .iter()
            .any(|&e| self.membership.contains(&(probe, e)))
    }

    /// k-set intersection: the elements common to all the given sets
    /// (Example 2.2, eq. (2)). Returns an empty vector if any set is
    /// unknown.
    pub fn intersection(&self, sets: &[Val]) -> Vec<Val> {
        if sets.is_empty() {
            return Vec::new();
        }
        let Some(smallest) = sets
            .iter()
            .filter_map(|s| self.elements.get(s).map(|e| (s, e.len())))
            .min_by_key(|&(_, len)| len)
            .map(|(s, _)| *s)
        else {
            return Vec::new();
        };
        if sets.iter().any(|s| !self.elements.contains_key(s)) {
            return Vec::new();
        }
        let base = &self.elements[&smallest];
        work::add(0, base.len() as u64);
        base.iter()
            .copied()
            .filter(|&e| {
                sets.iter().all(|&s| {
                    if s == smallest {
                        true
                    } else {
                        work::add(1, 0);
                        self.membership.contains(&(s, e))
                    }
                })
            })
            .collect()
    }

    /// k-set disjointness (Boolean): is the intersection of the given sets
    /// non-empty?
    pub fn intersects_all(&self, sets: &[Val]) -> bool {
        if sets.len() == 2 {
            return self.intersects(sets[0], sets[1]);
        }
        !self.intersection(sets).is_empty()
    }

    /// Reference answer computed by brute force (used in tests).
    pub fn intersects_naive(&self, a: Val, b: Val) -> bool {
        match (self.elements.get(&a), self.elements.get(&b)) {
            (Some(ea), Some(eb)) => {
                let set: FxHashSet<Val> = ea.iter().copied().collect();
                eb.iter().any(|e| set.contains(e))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_query::workload::SetFamily;

    fn family() -> SetFamily {
        SetFamily::zipf(40, 2_000, 400, 1.0, 7)
    }

    #[test]
    fn matches_naive_on_all_pairs() {
        let f = family();
        let idx = SetDisjointnessIndex::build(&f, 64);
        for a in 0..f.num_sets as Val {
            for b in 0..f.num_sets as Val {
                assert_eq!(
                    idx.intersects(a, b),
                    idx.intersects_naive(a, b),
                    "sets {a}, {b}"
                );
            }
        }
    }

    #[test]
    fn space_respects_budget_shape() {
        let f = family();
        let n = f.len();
        for budget in [1usize, 16, 256, 4096] {
            let idx = SetDisjointnessIndex::build(&f, budget);
            // Heavy sets are at most N/Δ ≈ √budget, so the pair table is
            // O(budget) (up to the +1 rounding of the threshold).
            let heavy_bound = n / idx.threshold() + 1;
            assert!(idx.num_heavy() <= heavy_bound);
            assert!(
                idx.space_used() <= heavy_bound * (heavy_bound + 1) / 2,
                "budget {budget}: {} stored",
                idx.space_used()
            );
        }
    }

    #[test]
    fn more_space_means_less_online_work() {
        let f = family();
        let small = SetDisjointnessIndex::build(&f, 4);
        let large = SetDisjointnessIndex::build(&f, 10_000);
        let queries: Vec<(Val, Val)> = (0..40).map(|i| (i % 7, (i * 3) % 40)).collect();
        let work_of = |idx: &SetDisjointnessIndex| {
            let before = work::total();
            for &(a, b) in &queries {
                idx.intersects(a, b);
            }
            work::total() - before
        };
        let (large_work, small_work) = (work_of(&large), work_of(&small));
        assert!(
            large_work <= small_work,
            "large-budget index should do no more online work ({large_work} vs {small_work})"
        );
    }

    #[test]
    fn heavy_heavy_pairs_are_constant_time() {
        let f = family();
        let idx = SetDisjointnessIndex::build(&f, 1_000_000);
        // With a huge budget every non-trivial set is heavy.
        assert!(idx.num_heavy() > 0);
        let heavy: Vec<Val> = (0..f.num_sets as Val).filter(|&s| idx.is_heavy(s)).collect();
        let (probes, scans) = (work::probes(), work::scans());
        idx.intersects(heavy[0], heavy[heavy.len() - 1]);
        assert_eq!(work::scans() - scans, 0);
        assert_eq!(work::probes() - probes, 1);
    }

    #[test]
    fn k_set_intersection_matches_naive() {
        let f = family();
        let idx = SetDisjointnessIndex::build(&f, 128);
        for combo in [[0, 1, 2], [0, 5, 10], [3, 3, 7], [30, 31, 32]] {
            let got = idx.intersection(&combo.map(|s| s as Val));
            // Brute force.
            let mut expected: Vec<Val> = idx.elements[&(combo[0] as Val)]
                .iter()
                .copied()
                .filter(|&e| {
                    combo[1..]
                        .iter()
                        .all(|&s| idx.membership.contains(&(s as Val, e)))
                })
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got_sorted, expected, "combo {combo:?}");
            assert_eq!(
                idx.intersects_all(&combo.map(|s| s as Val)),
                !expected.is_empty()
            );
        }
    }

    #[test]
    fn unknown_sets_are_empty() {
        let f = family();
        let idx = SetDisjointnessIndex::build(&f, 64);
        assert!(!idx.intersects(0, 10_000));
        assert!(idx.intersection(&[0, 10_000]).is_empty());
        assert!(idx.intersection(&[]).is_empty());
    }
}
