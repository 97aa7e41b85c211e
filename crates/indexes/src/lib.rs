//! # cqap-indexes
//!
//! Concrete, budget-parameterized data structures for the CQAPs the paper
//! studies — the *empirical* half of the reproduction. Each structure
//! implements one of the materialization strategies the framework
//! prescribes and exposes its intrinsic space usage (`space_used`, counted
//! in stored values beyond the input). Its online work — hash probes and
//! scanned tuples, the paper's `T` — goes to [`cqap_common::work`], the one
//! per-thread count the framework driver records into too, so benchmarks
//! report machine-independent time next to wall-clock numbers by diffing
//! `work::total()` around a query loop. A structure holds no counter: it is
//! immutable after its build and `Sync`.
//!
//! | module | paper reference | structure |
//! |---|---|---|
//! | [`setdisjoint`] | §1, §6.1, Ex. 6.2 | 2-set disjointness / k-set intersection with heavy/light thresholding (`S·T² = N²`) |
//! | [`kreach`] | §5, §6.4 | 2-reachability heavy/light index, the Goldstein-et-al. recursive k-reachability structure (`S·T^{2/(k−1)} = |D|²`), full materialization, BFS baseline |
//! | [`square`] | Ex. 5.2 / E.5 | opposite-corners-of-a-square index (`S·T² = |D|²·|Q|²`) |
//! | [`triangle`] | Ex. E.4 | edge-participates-in-a-triangle index (linear space, constant time) |
//! | [`hierarchical`] | App. F | two-level Boolean hierarchical CQAP index (adapted Kara et al. strategy) |

pub mod hierarchical;
pub mod kreach;
pub mod setdisjoint;
pub mod square;
pub mod triangle;

pub use hierarchical::HierarchicalIndex;
pub use kreach::{BfsBaseline, FullReachMaterialization, KReachGoldstein, TwoReachIndex};
pub use setdisjoint::SetDisjointnessIndex;
pub use square::SquareIndex;
pub use triangle::TriangleIndex;

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::{work, Val};
    use cqap_query::workload::{graph_pair_requests, Graph};

    #[test]
    fn indexes_are_shareable_across_threads() {
        // A structure holds no counter, so `&index` is probed from several
        // threads at once and each thread's work is its own: four
        // concurrent passes count exactly four single-threaded ones, with
        // nothing lost or counted twice.
        fn four_threads_count_four_passes(
            query: impl Fn(Val, Val) -> bool + Sync,
            requests: &[(Val, Val)],
        ) {
            let pass = || {
                let before = work::total();
                let answers: Vec<bool> = requests.iter().map(|&(u, v)| query(u, v)).collect();
                (answers, work::total() - before)
            };
            let (expected, single_pass) = pass();
            let runs: Vec<(Vec<bool>, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4).map(|_| s.spawn(pass)).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(single_pass > 0);
            for (answers, _) in &runs {
                assert_eq!(answers, &expected);
            }
            assert_eq!(runs.iter().map(|(_, w)| w).sum::<u64>(), 4 * single_pass);
        }

        let g = Graph::random(50, 250, 21);
        let requests = graph_pair_requests(&g, 200, 23);
        let two_reach = TwoReachIndex::build(&g, 5_000);
        four_threads_count_four_passes(|u, v| two_reach.query(u, v), &requests);
        let square = SquareIndex::build(&g, 5_000);
        four_threads_count_four_passes(|u, v| square.query(u, v), &requests);
    }
}
