//! The [`BatchAnswer`] trait: one serving API over every index family.
//!
//! The paper's model is *build once, probe heavily*: preprocessing runs
//! within a space budget, then a stream of access requests arrives. Every
//! answering structure in the workspace — the framework driver
//! ([`CqapIndex`], whose online phase is Online Yannakakis per PMTD) and
//! the specialized budget-parameterized structures of `cqap-indexes` —
//! implements this trait, so the serving runtime, the throughput benches
//! and the examples are written once, generically.
//!
//! A batch is answered member by member: [`BatchAnswer::answer_batch`],
//! the one bulk seam, returns one result per request, so a bad request
//! fails its own position and never its neighbours'.
//!
//! Implementations must be usable from many threads at once (`Sync` with
//! `&self` answering); a structure holds no counter — its online work goes
//! to the per-thread [`cqap_common::work`] count.

use std::hash::Hash;

use cqap_common::Result;
use cqap_common::Val;
use cqap_indexes::{
    BfsBaseline, FullReachMaterialization, HierarchicalIndex, KReachGoldstein,
    SetDisjointnessIndex, SquareIndex, TriangleIndex, TwoReachIndex,
};
use cqap_panda::CqapIndex;
use cqap_query::AccessRequest;
use cqap_relation::Relation;

/// An immutable index that answers access requests one at a time or in
/// batches, safely from multiple threads.
///
/// [`answer_batch`](Self::answer_batch) is the bulk seam: the serving
/// runtime in [`crate::runtime`] hands every probe job's live requests to
/// one `answer_batch` call, so an override (the shard router scatters
/// every request's legs before it gathers any) benefits `ServeRuntime`
/// too. The default answers request by request.
pub trait BatchAnswer: Send + Sync {
    /// The per-request key. `Hash + Eq` so answers can be cached and
    /// duplicate requests within a batch deduplicated.
    type Request: Clone + Eq + Hash + Send + Sync + 'static;

    /// The per-request answer. `Sync` so the runtime can share one answer
    /// across threads behind an `Arc` (the cache and every waiter on an
    /// in-flight probe hold the same allocation).
    type Answer: Clone + Send + Sync + 'static;

    /// Answers a single request.
    ///
    /// # Errors
    /// Propagates the structure's own failure modes (malformed request,
    /// schema mismatch); the specialized Boolean structures never fail.
    fn answer_one(&self, request: &Self::Request) -> Result<Self::Answer>;

    /// Answers a batch of requests: one result per request, in order. A
    /// failing request fails only its own position.
    fn answer_batch(&self, requests: &[Self::Request]) -> Vec<Result<Self::Answer>> {
        requests.iter().map(|r| self.answer_one(r)).collect()
    }

    /// A *degraded* (cheaper, possibly partial) answer, used by the
    /// serving runtime past its overload watermark
    /// (`ServeConfig::degrade_watermark`). `None` — the default — means
    /// the structure has no cheaper plan to offer, and the runtime falls
    /// back to [`BatchAnswer::answer_batch`].
    ///
    /// Implementations returning `Some` must mark the answer as degraded
    /// in a way the caller can observe (the framework driver renames the
    /// answer relation), because the runtime hands it out in place of
    /// the full answer. Degraded answers are never cached.
    fn answer_degraded(&self, request: &Self::Request) -> Option<Result<Self::Answer>> {
        let _ = request;
        None
    }
}

/// The framework driver: the online phase runs Online Yannakakis over every
/// PMTD and unions the per-PMTD answers, so this impl is the generic
/// (every-CQAP) serving path. A multi-binding request (the §6.4 batch
/// `Q_A`) is answered in one engine pass by `answer_one`; `answer_batch`
/// keeps the default, one request at a time.
impl BatchAnswer for CqapIndex {
    type Request = AccessRequest;
    type Answer = Relation;

    fn answer_one(&self, request: &Self::Request) -> Result<Self::Answer> {
        self.answer(request)
    }

    /// Past the runtime's overload watermark the driver answers from its
    /// single cheapest PMTD (the first its union runs: fewest T-views);
    /// the answer relation is renamed to
    /// [`DEGRADED_ANSWER_NAME`](cqap_panda::DEGRADED_ANSWER_NAME).
    fn answer_degraded(&self, request: &Self::Request) -> Option<Result<Self::Answer>> {
        Some(CqapIndex::answer_degraded(self, request))
    }
}

macro_rules! impl_batch_answer_pair {
    ($($ty:ty => $method:ident, $doc:literal;)*) => {$(
        #[doc = $doc]
        impl BatchAnswer for $ty {
            type Request = (Val, Val);
            type Answer = bool;

            fn answer_one(&self, &(a, b): &Self::Request) -> Result<Self::Answer> {
                Ok(self.$method(a, b))
            }
        }
    )*};
}

impl_batch_answer_pair! {
    TwoReachIndex => query, "2-reachability with heavy/light splitting (§5).";
    KReachGoldstein => query, "The Goldstein et al. k-reachability structure (Figures 4a/4b).";
    BfsBaseline => query, "The zero-space BFS baseline.";
    FullReachMaterialization => query, "The full-materialization baseline.";
    SquareIndex => query, "Opposite corners of a square (Example 5.2 / E.5).";
    SetDisjointnessIndex => intersects, "2-set disjointness (§1, §6.1).";
    TriangleIndex => edge_in_triangle, "Edge-in-a-triangle detection (Example E.4).";
}

/// The two-level hierarchical CQAP structure (Appendix F): requests are the
/// 4-tuples of access values `(z1, z2, z3, z4)`.
impl BatchAnswer for HierarchicalIndex {
    type Request = (Val, Val, Val, Val);
    type Answer = bool;

    fn answer_one(&self, &(z1, z2, z3, z4): &Self::Request) -> Result<Self::Answer> {
        Ok(self.query(z1, z2, z3, z4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::work;
    use cqap_decomp::families as pf;
    use cqap_query::workload::{graph_pair_requests, Graph, SetFamily};

    #[test]
    fn driver_batch_matches_singles() {
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(30, 120, 5);
        let db = g.as_path_database(3);
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 10, 3)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let batch = index.answer_batch(&requests);
        assert_eq!(batch.len(), requests.len());
        for (request, answer) in requests.iter().zip(batch) {
            assert_eq!(answer.unwrap(), index.answer(request).unwrap());
        }
    }

    #[test]
    fn boolean_structures_share_the_api() {
        let g = Graph::random(40, 160, 9);
        let requests = graph_pair_requests(&g, 20, 11);
        let two_reach = TwoReachIndex::build(&g, 10_000);
        let bfs = BfsBaseline::build(&g, 2);
        for pair in &requests {
            assert_eq!(
                two_reach.answer_one(pair).unwrap(),
                bfs.answer_one(pair).unwrap(),
                "structures disagree on {pair:?}"
            );
        }

        let family = SetFamily::zipf(15, 300, 60, 0.8, 13);
        let disjoint = SetDisjointnessIndex::build(&family, 500);
        let batch: Vec<(Val, Val)> = (0..15).map(|i| (i, (i + 3) % 15)).collect();
        let answers = disjoint.answer_batch(&batch);
        for (&(a, b), ans) in batch.iter().zip(answers) {
            assert_eq!(ans.unwrap(), disjoint.intersects(a, b));
        }
    }

    #[test]
    fn indexes_are_shareable_across_threads() {
        // A structure holds no counter, so `&index` is probed from several
        // threads at once and each thread's work is its own: four
        // concurrent passes count exactly four single-threaded ones, with
        // nothing lost or counted twice.
        fn four_threads_count_four_passes<I: BatchAnswer>(index: &I, requests: &[I::Request])
        where
            I::Answer: PartialEq + std::fmt::Debug,
        {
            let pass = || {
                let before = work::total();
                let answers: Vec<I::Answer> =
                    requests.iter().map(|r| index.answer_one(r).unwrap()).collect();
                (answers, work::total() - before)
            };
            let (expected, single_pass) = pass();
            let runs: Vec<(Vec<I::Answer>, u64)> = std::thread::scope(|s| {
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
        four_threads_count_four_passes(&TwoReachIndex::build(&g, 5_000), &requests);
        four_threads_count_four_passes(&SquareIndex::build(&g, 5_000), &requests);
    }
}
