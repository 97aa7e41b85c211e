//! # cqap-suite
//!
//! Umbrella crate for the reproduction of *"Space-Time Tradeoffs for
//! Conjunctive Queries with Access Patterns"* (Zhao, Deep, Koutris — PODS
//! 2023). It re-exports the whole workspace under one roof so the examples,
//! the integration tests and downstream users can depend on a single crate:
//!
//! * [`common`] — values, tuples, variable sets, exact rationals, hashing,
//!   and the one count of online work `T` (`common::work`).
//! * [`relation`] — relations, schemas, operators, heavy/light splits.
//! * [`query`] — hypergraphs, CQAPs, fractional edge covers, query families,
//!   workload generators.
//! * [`decomp`] — tree decompositions and PMTDs.
//! * [`entropy`] — polymatroids, (joint) Shannon-flow inequalities, the
//!   exact-rational LP, degree constraints (uniform or measured from a
//!   database), and tradeoff computation/verification.
//! * [`yannakakis`] — the naive evaluator and Online Yannakakis.
//! * [`delta`] — delta batches, net-effect computation, and the
//!   [`ApplyDelta`](delta::ApplyDelta) maintenance seam.
//! * [`obs`] — std-only observability: lock-free counters/gauges and
//!   log-bucketed latency histograms behind a
//!   [`MetricsSink`](obs::MetricsSink), with Prometheus-text export.
//! * [`panda`] — 2-phase disjunctive rules, the framework driver, and the
//!   Table 1 / Figure 4 analysis entry points. The driver,
//!   [`CqapIndex`](panda::CqapIndex), answers from resident S-views or,
//!   once [spilled](panda::CqapIndex::spill), from disk-resident ones.
//! * [`serve`] — the batched, concurrent request-serving runtime over the
//!   framework driver: the [`BatchAnswer`](serve::BatchAnswer) trait
//!   (implemented by `CqapIndex` and the sharded index and router that
//!   wrap it), a work-stealing thread pool, an `Arc`-valued LRU answer
//!   cache with in-flight probe sharing, and
//!   [`ServeRuntime`](serve::ServeRuntime) — overload-safe via bounded
//!   admission, request deadlines, load shedding and degrade mode.
//! * [`shard`] — hash-sharded serving: [`ShardedIndex`](shard::ShardedIndex)
//!   partitions the database by routing-variable hash into independently
//!   built `CqapIndex` shards, places each hot (in memory) or cold (on
//!   disk) under a budget- and traffic-driven
//!   [`PlacementPolicy`](shard::PlacementPolicy), and
//!   [`ShardRouter`](shard::ShardRouter) scatter-gathers requests across
//!   per-shard runtimes.
//! * [`store`] — the on-disk S-view format: sorted runs with key filters
//!   and sparse fence indexes, probed through
//!   [`StoredViews`](store::StoredViews).
//!
//! ## Quick start
//!
//! ```
//! use cqap_suite::prelude::*;
//!
//! // The 3-reachability CQAP and the PMTDs of Figure 1.
//! let (cqap, pmtds) = cqap_suite::decomp::families::pmtds_3reach_fig1().unwrap();
//!
//! // A small synthetic graph, loaded as the three path relations.
//! let graph = Graph::random(50, 200, 42);
//! let db = graph.as_path_database(3);
//!
//! // Preprocessing: materialize the S-views of the PMTD with the fewest
//! // T-views, (S14).
//! let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
//!
//! // Online: ask whether vertex 0 reaches vertex 1 by a path of length 3.
//! let request = AccessRequest::single(cqap.access(), &[0, 1]).unwrap();
//! let answer = index.answer(&request).unwrap();
//! assert_eq!(answer, naive_answer(&cqap, &db, &request).unwrap());
//! ```

pub use cqap_common as common;
pub use cqap_decomp as decomp;
pub use cqap_delta as delta;
pub use cqap_entropy as entropy;
pub use cqap_obs as obs;
pub use cqap_panda as panda;
pub use cqap_query as query;
pub use cqap_relation as relation;
pub use cqap_serve as serve;
pub use cqap_shard as shard;
pub use cqap_yannakakis as yannakakis;

/// `cqap-store` (the on-disk S-view format), plus the names the `perf/`
/// harness still calls the spilled index and the placed sharded index by.
pub mod store {
    pub use cqap_panda::CqapIndex as StoredIndex;
    pub use cqap_shard::{ShardTier, ShardedIndex as TieredShardedIndex, TieredSpace};
    pub use cqap_store::*;
}

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use cqap_common::{Rat, Tuple, Val, Var, VarSet};
    pub use cqap_decomp::{Pmtd, TreeDecomposition, ViewKind};
    pub use cqap_entropy::tradeoff::{Stats, SymbolicTradeoff};
    pub use cqap_entropy::RuleShape;
    pub use cqap_delta::{ApplyDelta, DeltaBatch};
    pub use cqap_obs::{MetricsSink, MetricsSnapshot};
    pub use cqap_panda::{CqapIndex, TwoPhaseRule};
    pub use cqap_query::workload::{Graph, SetFamily};
    pub use cqap_query::{AccessRequest, ConjunctiveQuery, Cqap, Hypergraph};
    pub use cqap_relation::{Database, Relation, Schema};
    pub use cqap_serve::{AdmissionConfig, BatchAnswer, ServeConfig, ServeError, ServeRuntime};
    pub use cqap_shard::{
        PlacementPolicy, ShardRouter, ShardRouterConfig, ShardSpec, ShardTier, ShardedIndex,
    };
    pub use cqap_yannakakis::{naive_answer, OnlineYannakakis};
}
