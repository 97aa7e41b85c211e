//! # cqap-store
//!
//! The tiered storage backend: disk-resident S-views with hot/cold shard
//! placement.
//!
//! The paper's central object is the space budget `S` — it decides which
//! views are materialized and how fast probes are. Until this crate, `S`
//! only existed in RAM; here it becomes physical at a second storage tier:
//!
//! * [`format`](mod@format) — the on-disk view format: each S-view serialized as a
//!   sorted run of `(key, tuple-block)` records, probed via an in-memory
//!   *key filter* (a key the run does not hold costs no I/O) and a sparse
//!   *fence index* (binary search over the fences, then one contiguous
//!   file read). Plain `std` files, no serialization or mmap dependency.
//! * [`StoredIndex`] — the framework driver answering from disk: built
//!   from the **same preprocessing output** as
//!   [`CqapIndex`](cqap_panda::CqapIndex) and running the **same online
//!   phase** through the
//!   [`SViewProbe`](cqap_yannakakis::SViewProbe) seam, so its answers are
//!   identical to the in-memory index (proptest-enforced in
//!   `crates/store/tests`) while the S-views' resident footprint shrinks
//!   to the fence indexes.
//! * [`TieredShardedIndex`] — the `cqap-shard` seam extended by a storage
//!   dimension: every hash shard is independently placed
//!   [`Hot`](ShardTier::Hot) (in-memory `CqapIndex`) or
//!   [`Cold`](ShardTier::Cold) (`StoredIndex`) by a [`PlacementPolicy`]
//!   driven by a hot-tier byte budget and observed per-shard request
//!   frequency, with [`TieredShardedIndex::space_used`] reporting the
//!   per-tier breakdown ([`TieredSpace`]).
//!
//! Both index types implement [`BatchAnswer`](cqap_serve::BatchAnswer),
//! so the entire serving surface — `ServeRuntime`, the `perf/` harness,
//! the examples — runs over the disk tier unchanged. `perf/` measures two
//! points of the space-vs-latency curve: both shards cold (`cold_store`)
//! and one hot, one cold (`delta_mix`).
//!
//! ## Worked example: spill, then answer identically
//!
//! ```
//! use cqap_decomp::families::pmtds_3reach_fig1;
//! use cqap_panda::CqapIndex;
//! use cqap_query::workload::{graph_pair_requests, Graph};
//! use cqap_query::AccessRequest;
//! use cqap_store::StoredIndex;
//!
//! let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
//! let graph = Graph::random(40, 170, 42);
//! let db = graph.as_path_database(3);
//!
//! // Preprocess once in memory, then spill the S-views to disk (a
//! // process-unique scratch dir, so concurrent runs cannot collide).
//! let hot = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
//! let cold = StoredIndex::spill(&hot, cqap_store::scratch_dir("doc")).unwrap();
//!
//! // Same intrinsic S, a fraction of it resident, identical answers.
//! assert_eq!(cold.space_used(), hot.space_used());
//! assert!(cold.resident_values() < cold.space_used());
//! for (u, v) in graph_pair_requests(&graph, 10, 7) {
//!     let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
//!     assert_eq!(cold.answer(&request).unwrap(), hot.answer(&request).unwrap());
//! }
//! // Dropping `cold` deletes the spilled files again.
//! ```

#![deny(missing_docs)]

pub mod format;
pub mod stored;
pub mod tiered;

pub use format::StoredView;
pub use stored::{scratch_dir, StoredIndex, StoredViews};
pub use tiered::{PlacementPolicy, ShardTier, TieredShardedIndex, TieredSpace};
