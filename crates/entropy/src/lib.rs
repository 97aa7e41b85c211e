//! # cqap-entropy
//!
//! The information-theoretic half of the paper's framework:
//!
//! * [`lp`] — a from-scratch exact-rational simplex solver (two-phase,
//!   Bland's rule). Every optimum in this crate is an exact rational, so the
//!   tradeoff exponents reported by the reproduction are exact, not floats.
//! * [`setfn`] — concrete set functions over variable subsets with
//!   polymatroid checks (used heavily by the property tests).
//! * [`terms`] — conditional polymatroid terms `h(Y|X)` and linear
//!   combinations of them, for one polymatroid or for the joint
//!   `(h_S, h_T)` pair.
//! * [`flow`] — Shannon-flow inequalities (Appendix D.1), the four proof
//!   rules (submodularity, monotonicity, composition, decomposition), and
//!   proof-sequence verification.
//! * [`joint`] — joint Shannon-flow inequalities (Definition D.4) and their
//!   LP-based validity check.
//! * [`tradeoff`] — the heart of the reproduction: given a 2-phase
//!   disjunctive rule's target sets and the degree-constraint statistics
//!   ([`Stats`]: the paper's uniform setting, or measured from a database), it
//!   computes the intrinsic space-time tradeoff — both as an exact
//!   `OBJ(S)` sweep (the curves of Figure 4) and as a validity check for the
//!   symbolic `S^w · T^v ≾ |D|^c · |Q|^d` tradeoffs the paper tabulates
//!   (Table 1 and the Section 6 / Appendix E examples).

pub mod flow;
pub mod joint;
pub mod lp;
mod polycone;
pub mod setfn;
pub mod terms;
pub mod tradeoff;

pub use flow::{ProofSequence, ProofStep, ShannonFlow};
pub use joint::JointFlow;
pub use lp::{Lp, LpOutcome, Relation as LpRelation};
pub use setfn::SetFunction;
pub use terms::{CondTerm, JointLinComb, LinComb, Phase};
pub use tradeoff::{RuleShape, Stats, SymbolicTradeoff, TradeoffCurve, TradeoffPoint};
