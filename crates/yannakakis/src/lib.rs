//! # cqap-yannakakis
//!
//! Query evaluation over (partially materialized) tree decompositions:
//!
//! * [`naive`] — a reference evaluator that joins all atoms of a CQAP with
//!   the access request and projects onto the head. It is the ground truth
//!   every other algorithm in the workspace is tested against, and it doubles
//!   as the "answer from scratch" baseline of the experiments.
//! * [`online`] — the preprocessing half of **Online Yannakakis**
//!   (Section 3.1 / Appendix A of the paper), the two-pass algorithm that
//!   answers an access request from a PMTD's S-views (materialized,
//!   probe-only) and T-views (computed online), in time that depends on the
//!   T-views and the output but *not* on the size of the S-views
//!   (Theorem 3.7): the preprocessed S-views and the probe seam
//!   [`SViewProbe`] every storage backend implements.
//! * [`compiled`] — the plan IR and its compiler: per (PMTD, access
//!   pattern) every schema lookup and traversal decision of the online
//!   phase is resolved once, at index build time, into a linear step
//!   program ([`CompiledPlan`]) that holds no database content.
//! * [`columnar`] — the executor, and the one production engine: it runs a
//!   compiled plan's steps column-at-a-time over a per-worker
//!   struct-of-arrays scratch ([`ColumnarScratch`]), reaching the S-views
//!   through the single column-writing probe of [`SViewProbe`].
//!
//! ## Quick start
//!
//! The ground-truth evaluator answers any CQAP from scratch:
//!
//! ```
//! use cqap_decomp::families::pmtds_3reach_fig1;
//! use cqap_query::AccessRequest;
//! use cqap_query::workload::Graph;
//! use cqap_yannakakis::naive_answer;
//!
//! let (cqap, _pmtds) = pmtds_3reach_fig1().unwrap();
//! let graph = Graph::random(40, 160, 7);
//! let db = graph.as_path_database(3);
//! let request = AccessRequest::single(cqap.access(), &[0, 1]).unwrap();
//! let answer = naive_answer(&cqap, &db, &request).unwrap();
//! assert!(answer.len() <= 1, "Boolean-given-access CQAP");
//! ```
//!
//! Online Yannakakis answers the same request from a PMTD's preprocessed
//! S-views through a plan compiled once. The fully materialized PMTD of
//! Figure 1 (the `(S14)` plan) has no T-views at all, so the online phase
//! is a pure index probe:
//!
//! ```
//! use cqap_decomp::families::pmtds_3reach_fig1;
//! use cqap_query::AccessRequest;
//! use cqap_query::workload::Graph;
//! use cqap_yannakakis::naive::full_join;
//! use cqap_yannakakis::{naive_answer, ColumnarScratch, OnlineYannakakis};
//!
//! let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
//! let graph = Graph::random(40, 160, 7);
//! let db = graph.as_path_database(3);
//!
//! // The third Figure 1 PMTD materializes its single bag as an S-view.
//! let pmtd = pmtds[2].clone();
//! let evaluator = OnlineYannakakis::new(pmtd.clone());
//!
//! // Preprocessing: S-views are semijoin-reduced projections of the full
//! // join (what the paper's preprocessing phase guarantees).
//! let full = full_join(&cqap, &db).unwrap();
//! let s_views: Vec<_> = pmtd
//!     .materialization_set()
//!     .into_iter()
//!     .map(|node| (node, full.project_onto(pmtd.view_schema(node)).unwrap()))
//!     .collect();
//! let preprocessed = evaluator.preprocess(&s_views).unwrap();
//! let plan = evaluator.compile(&preprocessed, &[]).unwrap();
//!
//! // Online: no T-views to compute; every answer matches the naive one.
//! let mut scratch = ColumnarScratch::new();
//! for (u, v) in [(0, 1), (3, 7), (12, 4)] {
//!     let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
//!     assert_eq!(
//!         plan.answer_from_columns(&preprocessed, [], &request, &mut scratch).unwrap(),
//!         naive_answer(&cqap, &db, &request).unwrap(),
//!     );
//! }
//! ```

pub mod columnar;
pub mod compiled;
pub mod naive;
pub mod online;

pub use columnar::{ColumnRun, ColumnarScratch, KeyMemo};
pub use compiled::CompiledPlan;
pub use naive::naive_answer;
pub use online::{OnlineYannakakis, PreprocessedViews, SViewProbe};
