//! Per-thread counts of the T-view programs' side choice, beside
//! `cqap_common::tuple::instrument` and `cqap_relation::instrument`: which
//! seed a two-seeded program took, exact and machine-independent, for a
//! test to diff around the code under test (`tests/t_view_cost.rs` and the
//! `both_seeds_*` harness of `delta_equivalence.rs`). They count a choice,
//! not work: the chains' probes and rows go to `cqap_common::work`.
//! Monotone; per-thread so concurrent serving workers and parallel tests
//! do not pollute each other's readings.

use std::cell::Cell;

thread_local! {
    static REQUEST_SIDE: Cell<u64> = const { Cell::new(0) };
    static PARENT_SIDE: Cell<u64> = const { Cell::new(0) };
}

/// Runs of two-seeded T-view programs (covered, under a per-request
/// T-parent) in which **this thread** took the request's seed. A program
/// with one seed has no side and is not counted.
pub fn request_side_programs() -> u64 {
    REQUEST_SIDE.with(Cell::get)
}

/// Runs of two-seeded T-view programs in which **this thread** took the
/// distinct link keys of the parent's run.
pub fn parent_side_programs() -> u64 {
    PARENT_SIDE.with(Cell::get)
}

#[inline]
pub(crate) fn record_side(from_parent: bool) {
    let side = if from_parent { &PARENT_SIDE } else { &REQUEST_SIDE };
    side.with(|c| c.set(c.get() + 1));
}
