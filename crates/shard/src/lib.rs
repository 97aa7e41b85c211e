//! # cqap-shard
//!
//! Hash-sharded serving: partitioned CQAP index shards behind a
//! scatter-gather router.
//!
//! A single [`CqapIndex`](cqap_panda::CqapIndex) caps both preprocessing
//! parallelism and the dataset one working set can hold. This crate makes
//! the roadmap's "a shard is one `Arc<index>` + its runtime" seam real:
//!
//! * [`ShardSpec`] — the partition contract: requests route by the hash of
//!   their *routing variable* (the minimum access variable); relations
//!   mentioning the routing variable are hash-partitioned by it, all
//!   others replicated. These invariants make per-shard answers *exactly*
//!   the unsharded answers (see the [`partition`] module docs for the
//!   argument).
//! * [`ShardedIndex`] — `k` independently and concurrently built
//!   `CqapIndex` shards; itself a [`BatchAnswer`](cqap_serve::BatchAnswer)
//!   implementor, so it drops into every generic serving surface.
//! * [`tiered`] — placement: each shard stays resident (**hot**) or is
//!   spilled to disk (**cold**) by a [`PlacementPolicy`] driven by a
//!   hot-tier byte budget and observed per-shard request frequency
//!   ([`ShardedIndex::from_sharded`]), with
//!   [`ShardedIndex::space_used`] reporting the per-tier breakdown
//!   ([`TieredSpace`]). Hot and cold shards answer identically, so every
//!   surface here — the router included — serves any tier split.
//! * [`ShardRouter`] — one [`ServeRuntime`](cqap_serve::ServeRuntime) per
//!   shard; single-binding requests route to exactly one shard,
//!   multi-binding requests scatter-gather, and the router is again a
//!   `BatchAnswer` — wrap it in a top-level `ServeRuntime` and the whole
//!   existing surface (LRU cache, `serve_batch`, `submit`/`Ticket`,
//!   benches, examples) serves over shards unchanged.
//!
//! ## Worked example: shards end to end
//!
//! ```
//! use std::sync::Arc;
//! use cqap_decomp::families::pmtds_3reach_fig1;
//! use cqap_panda::CqapIndex;
//! use cqap_query::workload::{zipf_pair_requests, Graph};
//! use cqap_query::AccessRequest;
//! use cqap_serve::{BatchAnswer, ServeConfig, ServeRuntime};
//! use cqap_shard::{ShardRouter, ShardedIndex};
//!
//! let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
//! let graph = Graph::random(60, 260, 42);
//! let db = graph.as_path_database(3);
//!
//! // Preprocessing: 4 shards built concurrently from hash partitions.
//! let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 4).unwrap();
//! assert_eq!(sharded.num_shards(), 4);
//!
//! // Serving: per-shard runtimes behind a router, behind a front cache.
//! let runtime = ServeRuntime::with_config(
//!     Arc::new(ShardRouter::new(sharded)),
//!     ServeConfig { threads: 2, cache_capacity: 256, ..ServeConfig::default() },
//! );
//! let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, 300, 1.1, 7)
//!     .into_iter()
//!     .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
//!     .collect();
//! let answers = runtime.serve_batch(&requests).unwrap();
//!
//! // Sharded answers are exactly the unsharded answers (the router hands
//! // out Arc<Relation>, the front runtime wraps once more).
//! let reference = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
//! assert_eq!(answers.len(), requests.len());
//! for (request, answer) in requests.iter().zip(&answers) {
//!     assert_eq!(***answer, reference.answer(request).unwrap());
//! }
//! ```

#![deny(missing_docs)]

pub mod index;
pub mod partition;
pub mod router;
pub mod tiered;

pub use index::ShardedIndex;
pub use partition::ShardSpec;
pub use router::{ShardRouter, ShardRouterConfig};
pub use tiered::{PlacementPolicy, ShardTier, TieredSpace};
