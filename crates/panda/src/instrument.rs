//! Per-thread work counters of the join chains and T-view programs, beside
//! `cqap_common::tuple::instrument` and `cqap_relation::instrument`: exact,
//! machine-independent counts a test diffs around the code under test
//! (`tests/t_view_cost.rs` holds the programs' cost contract to them).
//! Monotone; per-thread so concurrent serving workers and parallel tests
//! do not pollute each other's readings.

use std::cell::Cell;

thread_local! {
    static CHAIN_ROWS: Cell<u64> = const { Cell::new(0) };
    static REQUEST_SIDE: Cell<u64> = const { Cell::new(0) };
    static PARENT_SIDE: Cell<u64> = const { Cell::new(0) };
    static INDEX_PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Rows the steps of **this thread**'s join chains have emitted — every
/// step's, not only the last one's, so a row a later membership step drops
/// still counts as the work it was. Around a window of answered requests
/// this is what the T-view programs expanded (the delta chains and the
/// build run the same steps and count too).
pub fn chain_rows() -> u64 {
    CHAIN_ROWS.with(Cell::get)
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

/// Atom-index lookups **this thread**'s join chains have made: one per
/// input row per step, plus one per degree lookup of a T-view program's
/// side choice.
pub fn index_probes() -> u64 {
    INDEX_PROBES.with(Cell::get)
}


#[inline]
pub(crate) fn record_side(from_parent: bool) {
    let side = if from_parent { &PARENT_SIDE } else { &REQUEST_SIDE };
    side.with(|c| c.set(c.get() + 1));
}

/// One step over one input run: `probes` index lookups, `rows` emitted.
#[inline]
pub(crate) fn record_step(probes: u64, rows: u64) {
    INDEX_PROBES.with(|c| c.set(c.get() + probes));
    CHAIN_ROWS.with(|c| c.set(c.get() + rows));
}
