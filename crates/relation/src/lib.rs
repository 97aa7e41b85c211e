//! # cqap-relation
//!
//! The storage and relational-operator substrate used by every algorithm in
//! the workspace:
//!
//! * [`Schema`] — an ordered list of query variables naming the columns of a
//!   relation.
//! * [`Relation`] — an in-memory set of [`Tuple`](cqap_common::Tuple)s with a
//!   schema, plus the relational operators the paper's algorithms need
//!   (projection, selection, natural join, semijoin, union, distinct).
//! * [`HashIndex`] — a hash index over a key subset of a relation's
//!   variables (probes are O(1) and never enumerate the indexed relation);
//!   the join index over the atoms of a query.
//! * [`KeyedRows`] — the compact resident form of a materialized view: flat
//!   rows stored once, found through a position table of 9 bytes per slot
//!   at a load of up to ¾ (its tags scanned eight slots per word),
//!   probed by a link key, optionally carrying support counts. An S-view
//!   of Online Yannakakis and the support counts delta maintenance keeps
//!   for it are one such table.
//! * [`Database`] — a named collection of relations.
//! * [`split`] — heavy/light partitioning of a relation on a `(Y|X)` pair,
//!   the "split step" of the 2PP algorithm (Appendix C.2).

pub mod database;
pub mod index;
pub mod keyed_rows;
mod membership;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod split;

pub use database::Database;
pub use index::HashIndex;
pub use keyed_rows::{CountEdit, KeyedRows};
pub use ops::is_identity;
pub use relation::{instrument, Relation, RelationBuilder};
pub use schema::Schema;
pub use split::{split_heavy_light, HeavyLightSplit};
