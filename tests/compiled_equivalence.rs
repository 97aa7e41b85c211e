//! The compiled plans answer exactly like the naive oracle: every PMTD of
//! a family alone, and the family as a set, each on a resident and a
//! spilled index as built — the built column of the equivalence matrix's
//! index and per-PMTD cells (`matrix/mod.rs`). A set index builds only its
//! cheapest PMTD, so the per-PMTD cells are what build the others.

mod matrix;

use matrix::{Column, Fixture, Phase};

const COLUMNS: &[Column] = &[Column::Resident, Column::Spilled, Column::PerPmtd];

#[test]
fn two_reach_compiled_equivalence() {
    Fixture::pmtds_2reach().run_only(COLUMNS, &[Phase::Built]);
}

#[test]
fn three_reach_compiled_equivalence() {
    Fixture::pmtds_3reach_all().run_only(COLUMNS, &[Phase::Built]);
}

#[test]
fn four_reach_compiled_equivalence() {
    Fixture::pmtds_4reach().run_only(COLUMNS, &[Phase::Built]);
}

#[test]
fn square_compiled_equivalence() {
    Fixture::pmtds_square().run_only(COLUMNS, &[Phase::Built]);
}

/// A stored view under a stored parent still joins in when it holds head
/// variables its parent's view lacks: `(S12, S23)` needs `S23`'s `x3`.
#[test]
fn an_s_view_under_an_s_view_adds_its_head_variables() {
    Fixture::s_under_s_path2().run_only(COLUMNS, &[Phase::Built]);
}
