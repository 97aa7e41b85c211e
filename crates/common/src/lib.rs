//! # cqap-common
//!
//! Foundational types shared by every crate in the CQAP workspace:
//!
//! * [`Val`] / [`Tuple`] — the value and tuple representation used by the
//!   relational layer. Tuples of arity ≤ 4 are stored inline (no heap
//!   allocation), which covers every relation in the paper (all binary or
//!   ternary) and keeps the hot join loops allocation-free.
//! * [`VarSet`] — a bitset over query variables (≤ 64 variables), the
//!   currency of the hypergraph / tree-decomposition / polymatroid layers.
//! * [`Rat`] — exact rational arithmetic used by the Shannon-flow LP layer.
//! * [`FxHashMap`] / [`FxHashSet`] — hash containers with a fast
//!   non-cryptographic hash, following the standard advice for database
//!   workloads where HashDoS is not a concern.
//! * [`CqapError`] — the shared error type.
//! * [`work`] — the paper's online time `T` (hash probes + scanned
//!   tuples), one per-thread count every structure and the driver record
//!   into.

pub mod error;
pub mod hash;
pub mod rat;
pub mod tuple;
pub mod varint;
pub mod varset;
pub mod work;

pub use error::{CqapError, Result};
pub use hash::{hash_fold_column, hash_vals, FxHashMap, FxHashSet, FxHasher};
pub use rat::Rat;
pub use tuple::{Tuple, Val};
pub use varset::{Var, VarSet};
