//! # cqap-serve
//!
//! A batched, concurrent access-request serving runtime over the
//! workspace's CQAP indexes.
//!
//! The paper's contract is asymmetric: preprocessing happens **once**
//! within a space budget `S`, then the structure absorbs a **heavy stream**
//! of access requests, each answered within the online budget `T`. The
//! other crates build the "once" half; this crate is the "heavy stream"
//! half:
//!
//! * [`BatchAnswer`] — the one serving API: the framework driver
//!   [`CqapIndex`](cqap_panda::CqapIndex) (whose online phase is Online
//!   Yannakakis per PMTD) implements it, and so do the sharded index and
//!   shard router of `cqap-shard` that wrap it.
//! * [`WorkStealingPool`] — a std-only work-stealing thread pool (the
//!   environment has no registry access, so no rayon); round-robin
//!   distribution plus steal-half-from-a-victim rebalances skewed batches.
//! * `LruCache` — an O(1) LRU answer cache keyed by the request (for the
//!   driver that is the `(access, tuples)` pair), so zipfian request
//!   streams hit hot answers without re-running the online phase. The
//!   runtime stores `Arc<Answer>` values, so hits and inserts inside the
//!   cache mutex are refcount bumps, never deep `Relation` clones.
//! * [`ServeRuntime`] — ties the three together: `Arc`-shared immutable
//!   index, per-request one-shot result cells ([`Ticket`]), order-preserving
//!   batch serving with intra-batch deduplication, in-flight probe sharing
//!   across concurrent submitters (no thundering herd on a hot key), and
//!   [`ServeStats`] counters. Every door is one request path (a submit
//!   is a batch of one) whose fresh probes run as jobs through one worker
//!   path, which answers a job's members with one
//!   [`BatchAnswer::answer_batch`] call, member by member.
//! * Overload safety — shed-only bounded admission ([`AdmissionConfig`]:
//!   a probe job past the bound resolves at once with a typed
//!   [`ServeError::Overloaded`]), absolute deadlines
//!   ([`ServeRuntime::submit_with_deadline`]) checked once, on the worker
//!   before the backend probe, and an optional cheapest-plan degrade mode
//!   past a queue-depth watermark.
//!
//! ## Worked example: serving a 1 000-request batch
//!
//! Build the 3-reachability index of Figure 1 once, then serve a batch of
//! 1 000 access requests concurrently. The batched answers are bit-for-bit
//! identical to answering sequentially with
//! [`CqapIndex::answer`](cqap_panda::CqapIndex::answer):
//!
//! ```
//! use std::sync::Arc;
//! use cqap_decomp::families::pmtds_3reach_fig1;
//! use cqap_panda::CqapIndex;
//! use cqap_query::workload::{zipf_pair_requests, Graph};
//! use cqap_query::AccessRequest;
//! use cqap_serve::{ServeConfig, ServeRuntime};
//!
//! // Preprocessing phase: build once.
//! let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
//! let graph = Graph::random(60, 260, 42);
//! let db = graph.as_path_database(3);
//! let index = Arc::new(CqapIndex::build(&cqap, &db, &pmtds).unwrap());
//!
//! // Online phase: a zipf-skewed stream of 1 000 requests.
//! let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, 1_000, 1.1, 7)
//!     .into_iter()
//!     .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
//!     .collect();
//!
//! let runtime = ServeRuntime::with_config(
//!     Arc::clone(&index),
//!     ServeConfig { threads: 4, cache_capacity: 512, ..ServeConfig::default() },
//! );
//! let answers = runtime.serve_batch(&requests).unwrap();
//!
//! // Concurrent answers match the sequential reference, in order. Answers
//! // come back as `Arc<Relation>`: duplicates of a hot request share one
//! // allocation instead of cloning the relation per position.
//! assert_eq!(answers.len(), 1_000);
//! for (request, answer) in requests.iter().zip(&answers) {
//!     assert_eq!(answer.as_ref(), &index.answer(request).unwrap());
//! }
//!
//! // The zipf skew means many requests repeat: in this first (cold-cache)
//! // batch the repeats are answered by intra-batch deduplication, so the
//! // index is probed far less than 1 000 times. A second batch would hit
//! // the now-warm LRU cache (`stats.cache_hits`).
//! let stats = runtime.stats();
//! assert_eq!(stats.served, 1_000);
//! assert!(stats.dedup_hits > 0);
//! assert!(stats.cache_misses < 1_000);
//! ```
//!
//! For one-at-a-time submission use [`ServeRuntime::submit`], which returns
//! a [`Ticket`] per request.

#![deny(missing_docs)]

pub mod admission;
pub mod batch;
mod cache;
pub mod pool;
pub mod runtime;
mod ticket;

pub use admission::{AdmissionConfig, ServeError};
pub use batch::BatchAnswer;
pub use pool::{default_threads, WorkStealingPool};
pub use {
    runtime::{ServeConfig, ServeRuntime, ServeStats},
    ticket::Ticket,
};

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_decomp::families::pmtds_3reach_fig1;
    use cqap_panda::CqapIndex;
    use cqap_query::workload::Graph;
    use std::sync::Arc;

    #[test]
    fn empty_batch() {
        let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
        let db = Graph::random(10, 20, 1).as_path_database(3);
        let index = Arc::new(CqapIndex::build(&cqap, &db, &pmtds).unwrap());
        let runtime = ServeRuntime::new(index);
        assert!(runtime.serve_batch(&[]).unwrap().is_empty());
        let stats = runtime.stats();
        assert_eq!((stats.served, stats.cache_misses), (0, 0));
    }
}
