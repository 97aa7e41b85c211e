//! Enumeration and pruning of PMTD sets.
//!
//! The framework of Section 4 is parameterized by a finite set of
//! non-redundant, pairwise non-dominant PMTDs. This module provides the
//! three ways the paper obtains such sets:
//!
//! * [`trivial_pmtds`] — the two single-bag PMTDs used in the proof of
//!   Theorem 6.1 ("store the answers" vs. "compute from scratch").
//! * [`all_pmtds_of`] — every PMTD of one fixed decomposition (every
//!   subtree-closed materialization set).
//! * [`induced_pmtds`] — the *induced* set of Section 6.3: pick an antichain
//!   of nodes, merge each picked node's subtree into its bag, truncate, and
//!   materialize the merged nodes.
//! * [`prune`] — remove redundant PMTDs and PMTDs dominated by another
//!   member of the set.

use crate::pmtd::Pmtd;
use crate::td::TreeDecomposition;
use cqap_common::{Result, VarSet};
use cqap_query::Cqap;

/// The two trivial PMTDs of Theorem 6.1 over the single bag `[n]`:
/// one fully materialized (store the query answers keyed by the access
/// pattern) and one not materialized at all (answer from scratch).
pub fn trivial_pmtds(cqap: &Cqap) -> Result<Vec<Pmtd>> {
    let bag = VarSet::prefix(cqap.num_vars());
    let store = Pmtd::for_cqap(TreeDecomposition::single(bag), [0], cqap)?;
    let scratch = Pmtd::for_cqap(TreeDecomposition::single(bag), [], cqap)?;
    Ok(vec![scratch, store])
}

/// Every PMTD obtainable from one fixed rooted decomposition by choosing a
/// subtree-closed materialization set (there are at most `2^nodes` of them;
/// decompositions in this workspace have a handful of nodes).
pub fn all_pmtds_of(td: &TreeDecomposition, cqap: &Cqap) -> Result<Vec<Pmtd>> {
    let n = td.num_nodes();
    assert!(n <= 16, "decomposition too large for exhaustive enumeration");
    let mut out = Vec::new();
    'mask: for mask in 0u32..(1u32 << n) {
        let selected: Vec<usize> = (0..n).filter(|&t| mask >> t & 1 == 1).collect();
        // Subtree-closure check before attempting construction.
        for &t in &selected {
            for u in td.subtree(t) {
                if mask >> u & 1 == 0 {
                    continue 'mask;
                }
            }
        }
        out.push(Pmtd::for_cqap(td.clone(), selected, cqap)?);
    }
    Ok(out)
}

/// The induced PMTD set of Section 6.3 for a fixed free-connex
/// decomposition: for every antichain of nodes (no member an ancestor of
/// another, the empty antichain included), merge each member's subtree bags
/// into that member, truncate the subtree, and materialize the member.
pub fn induced_pmtds(td: &TreeDecomposition, cqap: &Cqap) -> Result<Vec<Pmtd>> {
    let n = td.num_nodes();
    assert!(n <= 16, "decomposition too large for exhaustive enumeration");
    let mut out = Vec::new();
    'mask: for mask in 0u32..(1u32 << n) {
        let selected: Vec<usize> = (0..n).filter(|&t| mask >> t & 1 == 1).collect();
        // Antichain check.
        for &a in &selected {
            for &b in &selected {
                if a != b && td.is_ancestor(a, b) {
                    continue 'mask;
                }
            }
        }
        out.push(merge_and_truncate(td, &selected, cqap)?);
    }
    Ok(out)
}

/// Builds the PMTD obtained from `td` by merging each node of `antichain`'s
/// subtree into its bag, truncating those subtrees, and materializing the
/// merged nodes.
pub(crate) fn merge_and_truncate(
    td: &TreeDecomposition,
    antichain: &[usize],
    cqap: &Cqap,
) -> Result<Pmtd> {
    // Nodes strictly below an antichain member are removed.
    let mut removed = vec![false; td.num_nodes()];
    let mut merged_bag: Vec<VarSet> = td.bags().to_vec();
    for &a in antichain {
        for u in td.subtree(a) {
            merged_bag[a] = merged_bag[a].union(td.bag(u));
            if u != a {
                removed[u] = true;
            }
        }
    }
    // Re-index the surviving nodes.
    let survivors: Vec<usize> = (0..td.num_nodes()).filter(|&t| !removed[t]).collect();
    let new_id: cqap_common::FxHashMap<usize, usize> = survivors
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new))
        .collect();
    let bags: Vec<VarSet> = survivors.iter().map(|&t| merged_bag[t]).collect();
    let parent: Vec<Option<usize>> = survivors
        .iter()
        .map(|&t| td.parent(t).map(|p| new_id[&p]))
        .collect();
    let root = new_id[&td.root()];
    let new_td = TreeDecomposition::new(bags, parent, root)?;
    let materialized: Vec<usize> = antichain.iter().map(|a| new_id[a]).collect();
    Pmtd::for_cqap(new_td, materialized, cqap)
}

/// Removes redundant PMTDs and PMTDs dominated by another member of the
/// set. When two PMTDs dominate each other (their view multisets are
/// equivalent), the earlier one is kept.
pub fn prune(pmtds: Vec<Pmtd>) -> Vec<Pmtd> {
    let candidates: Vec<Pmtd> = pmtds.into_iter().filter(Pmtd::is_non_redundant).collect();
    let mut keep = vec![true; candidates.len()];
    for i in 0..candidates.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..candidates.len() {
            if i == j || !keep[j] {
                continue;
            }
            if candidates[i].dominated_by(&candidates[j]) {
                let mutual = candidates[j].dominated_by(&candidates[i]);
                if !mutual || j < i {
                    keep[i] = false;
                    break;
                }
            }
        }
    }
    candidates
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;
    use cqap_query::families;

    #[test]
    fn trivial_pmtds_for_kset() {
        // Section 6.1: from the single-node decomposition we get exactly two
        // PMTDs, T[k+1] and S[k+1] (here the S-view keeps the whole head).
        let q = families::k_set_intersection(3);
        let ps = trivial_pmtds(&q).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].summary(), "(T1234)");
        assert_eq!(ps[1].summary(), "(S1234)");
        let pruned = prune(ps);
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn trivial_pmtds_boolean_case() {
        let q = families::k_set_disjointness(2);
        let ps = trivial_pmtds(&q).unwrap();
        // Head is {x1,x2} after normalization, so the S-view keeps {x1,x2}.
        assert_eq!(ps[1].summary(), "(S12)");
    }

    #[test]
    fn all_pmtds_of_chain() {
        let q = families::k_path_distinct(3);
        let chain = TreeDecomposition::path(vec![vars![1, 3, 4], vars![1, 2, 3]]).unwrap();
        let all = all_pmtds_of(&chain, &q).unwrap();
        // Subtree-closed subsets of a 2-chain: {}, {leaf}, {leaf, root}.
        assert_eq!(all.len(), 3);
        let summaries: Vec<String> = all.iter().map(Pmtd::summary).collect();
        assert!(summaries.contains(&"(T134, T123)".to_string()));
        assert!(summaries.contains(&"(T134, S13)".to_string()));
        // The fully-materialized variant is redundant (empty child view).
        let pruned = prune(all);
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn induced_pmtds_recover_figure1() {
        // Inducing from the chain decomposition of Figure 1 gives: the
        // un-materialized chain, the chain with the leaf materialized, and
        // the single merged bag (antichain = {root}) — exactly Figure 1.
        let q = families::k_path_distinct(3);
        let chain = TreeDecomposition::path(vec![vars![1, 3, 4], vars![1, 2, 3]]).unwrap();
        let induced = induced_pmtds(&chain, &q).unwrap();
        assert_eq!(induced.len(), 3);
        let summaries: Vec<String> = induced.iter().map(Pmtd::summary).collect();
        assert!(summaries.contains(&"(T134, T123)".to_string()));
        assert!(summaries.contains(&"(T134, S13)".to_string()));
        assert!(summaries.contains(&"(S14)".to_string()));
        // All three survive pruning (they are exactly Figure 1).
        assert_eq!(prune(induced).len(), 3);
    }

    #[test]
    fn induced_pmtds_example_63() {
        // Example 6.3: 4-reachability with the decomposition
        // {x1,x2,x4,x5} → {x2,x3,x4}.
        let q = families::k_path_distinct(4);
        let td = TreeDecomposition::path(vec![vars![1, 2, 4, 5], vars![2, 3, 4]]).unwrap();
        let induced = induced_pmtds(&td, &q).unwrap();
        let summaries: Vec<String> = induced.iter().map(Pmtd::summary).collect();
        assert!(summaries.contains(&"(T1245, T234)".to_string()));
        assert!(summaries.contains(&"(T1245, S24)".to_string()));
        assert!(summaries.contains(&"(S15)".to_string()));
    }

    #[test]
    fn merge_and_truncate_three_level() {
        // A 3-node chain; merging at the middle node absorbs the leaf.
        let q = families::k_path_distinct(4);
        let td = TreeDecomposition::path(vec![
            vars![1, 2, 4, 5],
            vars![2, 3, 4],
            vars![3, 4],
        ])
        .unwrap();
        let merged = merge_and_truncate(&td, &[1], &q).unwrap();
        assert_eq!(merged.td().num_nodes(), 2);
        assert_eq!(merged.td().bag(1), vars![2, 3, 4]);
        assert!(merged.is_materialized(1));
        assert!(!merged.is_materialized(0));
    }

    #[test]
    fn prune_removes_dominated() {
        let q = families::k_path_distinct(3);
        let chain = TreeDecomposition::path(vec![vars![1, 3, 4], vars![1, 2, 3]]).unwrap();
        let small = Pmtd::for_cqap(chain, [], &q).unwrap();
        let big = Pmtd::for_cqap(TreeDecomposition::single(vars![1, 2, 3, 4]), [], &q).unwrap();
        let pruned = prune(vec![small, big.clone()]);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].summary(), big.summary());
    }

    #[test]
    fn prune_keeps_one_of_equivalent_pair() {
        let q = families::k_path_distinct(3);
        let p = Pmtd::for_cqap(TreeDecomposition::single(vars![1, 2, 3, 4]), [0], &q).unwrap();
        let pruned = prune(vec![p.clone(), p]);
        assert_eq!(pruned.len(), 1);
    }
}
