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
