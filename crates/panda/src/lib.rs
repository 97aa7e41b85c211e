//! # cqap-panda
//!
//! The framework layer of the paper (Sections 4 and 5):
//!
//! * [`rules`] — generation of the 2-phase disjunctive rules induced by a
//!   set of PMTDs (Section 4.2): one rule per choice of one view from every
//!   PMTD, deduplicated, with the paper's "discard rules with strictly more
//!   targets" pruning (Observation E.1).
//! * [`driver`] — an executable instantiation of the general framework: a
//!   [`driver::CqapIndex`] picks the PMTD of a set with the fewest T-views,
//!   materializes its S-views during a preprocessing phase and answers
//!   access requests with Online Yannakakis over it (Section 4.3; with no
//!   space budget every sub-instance goes to that PMTD, so the others
//!   store nothing and no per-PMTD union is needed). It is the
//!   reference "framework engine" the hand-written structures of
//!   `cqap-bench` are benchmarked against.
//! * [`analysis`] — the analytic reproduction entry points: Table 1
//!   (2-phase disjunctive rules for 3-reachability with their verified
//!   tradeoffs), the combined tradeoff curves of Figures 4a and 4b, and the
//!   prior-state-of-the-art baselines they are compared against.
//!
//! ## Quick start: the full pipeline
//!
//! The quickstart flow (`examples/quickstart.rs` at the workspace root),
//! compressed to its essentials — define the CQAP and PMTDs of Figure 1,
//! preprocess, answer online, and cross-check against the from-scratch
//! evaluator:
//!
//! ```
//! use cqap_decomp::families::pmtds_3reach_fig1;
//! use cqap_panda::CqapIndex;
//! use cqap_query::workload::{graph_pair_requests, Graph};
//! use cqap_query::AccessRequest;
//! use cqap_yannakakis::naive_answer;
//!
//! // The CQAP φ3(x1,x4 | x1,x4) ← R1(x1,x2) ∧ R2(x2,x3) ∧ R3(x3,x4)
//! // and the three PMTDs of Figure 1.
//! let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
//!
//! // A small synthetic graph loaded as the three path relations.
//! let graph = Graph::random(50, 200, 42);
//! let db = graph.as_path_database(3);
//!
//! // Preprocessing phase: pick the PMTD with the fewest T-views, (S14),
//! // and materialize its S-view.
//! let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
//! let (plan, _) = index.plans().next().unwrap();
//! assert_eq!(plan.pmtd().summary(), "(S14)");
//!
//! // Online phase: answer access requests, checked against the naive
//! // from-scratch evaluation.
//! for (u, v) in graph_pair_requests(&graph, 5, 1) {
//!     let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
//!     let answer = index.answer(&request).unwrap();
//!     assert_eq!(answer, naive_answer(&cqap, &db, &request).unwrap());
//! }
//! ```
//!
//! The analytic half — generating the Table 1 rules and verifying the
//! claimed space-time tradeoffs with the exact-rational LP:
//!
//! ```
//! use cqap_panda::table1_3reach;
//!
//! let (_rules, reports) = table1_3reach().unwrap();
//! assert!(reports.iter().all(|report| report.all_verified()));
//! ```

pub mod analysis;
mod chain;
pub mod compiled;
pub mod delta;
pub mod driver;
pub mod instrument;
pub mod rules;
mod stored;

pub use analysis::{figure4a_curve, figure4b_curve, goldstein_baseline, table1_3reach, RuleReport};
pub use compiled::{AtomIndexCache, CompiledPmtd};
pub use delta::DeltaMaintenance;
pub use driver::{CqapIndex, DEGRADED_ANSWER_NAME};
pub use rules::TwoPhaseRule;
