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
pub(crate) struct SetDisjointnessIndex {
    /// Membership test: (set, element) pairs.
    membership: FxHashSet<(Val, Val)>,
    /// Elements of each set.
    elements: FxHashMap<Val, Vec<Val>>,
    /// Heavy sets (size > Δ).
    heavy: FxHashSet<Val>,
    /// For heavy set pairs (a ≤ b): whether they intersect.
    heavy_pairs: FxHashMap<(Val, Val), bool>,
}

impl SetDisjointnessIndex {
    /// Builds the index from a set family with the given space budget
    /// (counted in stored values for the heavy-pair table).
    ///
    /// The threshold is `Δ = ⌈N / √budget⌉` (with `budget ≥ 1`), matching
    /// the analysis in the introduction of the paper.
    pub(crate) fn build(family: &SetFamily, budget: usize) -> Self {
        let n = family.len().max(1);
        let budget = budget.max(1);
        let threshold = (n as f64 / (budget as f64).sqrt()).ceil() as usize;
        Self::build_with_threshold(family, threshold)
    }

    /// Builds the index with an explicit degree threshold.
    fn build_with_threshold(family: &SetFamily, threshold: usize) -> Self {
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
            heavy,
            heavy_pairs,
        }
    }

    /// The number of heavy sets.
    #[cfg(test)]
    pub(crate) fn num_heavy(&self) -> usize {
        self.heavy.len()
    }

    /// Intrinsic space usage: the heavy-pair table (the membership and
    /// element tables are the input database itself, which the paper counts
    /// separately as `|D|`).
    pub(crate) fn space_used(&self) -> usize {
        self.heavy_pairs.len()
    }

    /// 2-set disjointness: do sets `a` and `b` intersect?
    pub(crate) fn intersects(&self, a: Val, b: Val) -> bool {
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
    /// unknown. No sweep measures it; its test holds it to the oracle.
    #[cfg(test)]
    pub(crate) fn intersection(&self, sets: &[Val]) -> Vec<Val> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{assert_pairs, bindings, verdicts};
    use cqap_common::Tuple;
    use cqap_decomp::enumerate::trivial_pmtds;
    use cqap_panda::CqapIndex;
    use cqap_query::families::{k_set_disjointness, k_set_intersection};
    use cqap_query::AccessRequest;
    use cqap_relation::Database;
    use cqap_yannakakis::naive_answer;
    use proptest::prelude::*;

    fn family() -> SetFamily {
        SetFamily::zipf(40, 2_000, 400, 1.0, 7)
    }

    /// The family as the k-set CQAPs' one relation `R(y, x)`: element `y`
    /// belongs to set `x`.
    fn database(f: &SetFamily) -> Database {
        let mut db = Database::new();
        db.add_relation(f.as_relation("R", 2, 0)).unwrap();
        db
    }

    /// Every set pair that 2-set disjointness answers on the family, then
    /// `pairs`, each with `naive_answer`'s verdict.
    fn naive_intersects(f: &SetFamily, pairs: &[(Val, Val)]) -> Vec<(Tuple, bool)> {
        let (cqap, db) = (k_set_disjointness(2), database(f));
        verdicts(&cqap, &db, bindings(pairs), |r| naive_answer(&cqap, &db, r))
    }

    #[test]
    fn matches_naive_on_all_pairs() {
        let f = family();
        let idx = SetDisjointnessIndex::build(&f, 64);
        let sets = 0..f.num_sets as Val;
        let pairs: Vec<(Val, Val)> = sets
            .clone()
            .flat_map(|a| sets.clone().map(move |b| (a, b)))
            .collect();
        let checks = naive_intersects(&f, &pairs);
        assert_pairs(&checks, |a, b| idx.intersects(a, b), "sets");
    }

    #[test]
    fn space_respects_budget_shape() {
        let f = family();
        for budget in [1usize, 16, 256, 4096] {
            let idx = SetDisjointnessIndex::build(&f, budget);
            // A heavy set holds more than Δ = ⌈N/√budget⌉ of the N
            // elements, so fewer than √budget sets are heavy, and the table
            // of heavy pairs (a set with itself included) fits the budget.
            let heavy = idx.num_heavy();
            assert!(
                heavy * heavy < budget,
                "budget {budget}: {heavy} heavy sets"
            );
            assert_eq!(idx.space_used(), heavy * (heavy + 1) / 2);
            assert!(idx.space_used() <= budget);
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
        let heavy: Vec<Val> = (0..f.num_sets as Val)
            .filter(|s| idx.heavy.contains(s))
            .collect();
        let (probes, scans) = (work::probes(), work::scans());
        idx.intersects(heavy[0], heavy[heavy.len() - 1]);
        assert_eq!(work::scans() - scans, 0);
        assert_eq!(work::probes() - probes, 1);
    }

    #[test]
    fn k_set_intersection_matches_naive() {
        let f = family();
        let idx = SetDisjointnessIndex::build(&f, 128);
        let (cqap, db) = (k_set_intersection(3), database(&f));
        let mut nonempty = 0;
        for combo in [[0, 1, 2], [0, 5, 10], [3, 3, 7], [30, 31, 32]] {
            let request = AccessRequest::single(cqap.access(), &combo).unwrap();
            // The head is the three sets, then the element `y`.
            let answer = naive_answer(&cqap, &db, &request).unwrap();
            let mut expected: Vec<Val> = answer.iter().map(|t| t.get(3)).collect();
            let mut got = idx.intersection(&combo);
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "combo {combo:?}");
            nonempty += usize::from(!got.is_empty());
        }
        assert!(nonempty > 0);
    }

    #[test]
    fn unknown_sets_are_empty() {
        let f = family();
        let idx = SetDisjointnessIndex::build(&f, 64);
        assert!(!idx.intersects(0, 10_000));
        assert!(idx.intersection(&[0, 10_000]).is_empty());
        assert!(idx.intersection(&[]).is_empty());
    }

    #[test]
    fn boolean_k_set_disjointness_end_to_end() {
        // The Boolean 2-set disjointness CQAP answered through the framework
        // driver (trivial PMTDs of Theorem 6.1) versus the specialized
        // heavy/light structure of the introduction.
        let family = SetFamily::zipf(30, 1_000, 150, 1.0, 3);
        let cqap = k_set_disjointness(2);
        let pmtds = trivial_pmtds(&cqap).unwrap();
        let db = database(&family);
        let driver = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let specialized = SetDisjointnessIndex::build(&family, 256);
        let sets = family.num_sets as Val;
        let pairs: Vec<(Val, Val)> = (0..10)
            .flat_map(|a| [a, a + 3, a + 11].map(|b| (a, b % sets)))
            .collect();
        let checks = verdicts(&cqap, &db, bindings(&pairs), |r| driver.answer(r));
        assert_pairs(&checks, |a, b| specialized.intersects(a, b), "set pair");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Property: the set-disjointness index is correct for every budget.
        #[test]
        fn prop_set_disjointness_correct(seed in 0u64..500, budget in 1usize..5_000) {
            let family = SetFamily::zipf(25, 600, 120, 0.8, seed);
            let idx = SetDisjointnessIndex::build(&family, budget);
            let pairs: Vec<(Val, Val)> = (0..25)
                .flat_map(|a| (a..25).step_by(5).map(move |b| (a, b)))
                .collect();
            for (pair, held) in naive_intersects(&family, &pairs) {
                prop_assert_eq!(idx.intersects(pair.get(0), pair.get(1)), held);
            }
        }
    }
}
