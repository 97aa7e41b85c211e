//! The [`BatchAnswer`] trait: the one serving API of the runtime.
//!
//! The paper's model is *build once, probe heavily*: preprocessing runs
//! within a space budget, then a stream of access requests arrives. The
//! framework driver ([`CqapIndex`], whose online phase is Online
//! Yannakakis per PMTD) is what the paper puts on the answer path, and
//! the sharded index and shard router of `cqap-shard` wrap it; each
//! implements this trait, so the serving runtime is written once,
//! generically.
//!
//! A batch is answered member by member: [`BatchAnswer::answer_batch`],
//! the one bulk seam, returns one result per request, so a bad request
//! fails its own position and never its neighbours'.
//!
//! Implementations must be usable from many threads at once (`Sync` with
//! `&self` answering); an index holds no counter — its online work goes
//! to the per-thread [`cqap_common::work`] count.

use std::hash::Hash;

use cqap_common::Result;
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
    /// Propagates the index's own failure modes (malformed request,
    /// schema mismatch).
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

/// The framework driver: the online phase runs Online Yannakakis over the
/// PMTD with the fewest T-views, so this impl is the generic (every-CQAP)
/// serving path. A multi-binding request (the §6.4 batch
/// `Q_A`) is answered in one engine pass by `answer_one`; `answer_batch`
/// keeps the default, one request at a time.
impl BatchAnswer for CqapIndex {
    type Request = AccessRequest;
    type Answer = Relation;

    fn answer_one(&self, request: &Self::Request) -> Result<Self::Answer> {
        self.answer(request)
    }

    /// Past the runtime's overload watermark the driver answers as it
    /// always does, from the one PMTD with the fewest T-views; the answer
    /// relation is renamed to
    /// [`DEGRADED_ANSWER_NAME`](cqap_panda::DEGRADED_ANSWER_NAME).
    fn answer_degraded(&self, request: &Self::Request) -> Option<Result<Self::Answer>> {
        Some(CqapIndex::answer_degraded(self, request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::work;
    use cqap_decomp::families as pf;
    use cqap_query::workload::{graph_pair_requests, Graph};

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
    fn indexes_are_shareable_across_threads() {
        // The driver holds no counter, so `&index` is probed through
        // `answer_one` from several threads at once and each thread's work
        // is its own: four concurrent passes count exactly four
        // single-threaded ones, with nothing lost or counted twice.
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(50, 250, 21);
        let index = CqapIndex::build(&cqap, &g.as_path_database(3), &pmtds).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 200, 23)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let pass = || {
            let before = work::total();
            let answers: Vec<Relation> = requests
                .iter()
                .map(|r| index.answer_one(r).unwrap())
                .collect();
            (answers, work::total() - before)
        };
        let (expected, single_pass) = pass();
        let runs: Vec<(Vec<Relation>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(pass)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(single_pass > 0);
        for (answers, _) in &runs {
            assert_eq!(answers, &expected);
        }
        assert_eq!(runs.iter().map(|(_, w)| w).sum::<u64>(), 4 * single_pass);
    }
}
