//! The equivalence matrix, row by row: every fixture on every backend in
//! every phase answers exactly like the naive oracle (see `matrix/mod.rs`
//! for the axes and the generator). The named slices of these rows that
//! pin one backend or phase each live beside them, in
//! `compiled_equivalence.rs`, `delta_equivalence.rs`,
//! `shard_equivalence.rs` and `store_equivalence.rs`.

mod matrix;

use matrix::Fixture;

#[test]
fn pmtds_2reach() {
    Fixture::pmtds_2reach().run();
}

#[test]
fn pmtds_3reach_fig1() {
    Fixture::pmtds_3reach_fig1().run();
}

#[test]
fn pmtds_3reach_all() {
    Fixture::pmtds_3reach_all().run();
}

#[test]
fn pmtds_4reach() {
    Fixture::pmtds_4reach().run();
}

#[test]
fn pmtds_square() {
    Fixture::pmtds_square().run();
}

#[test]
fn pmtds_kset_2() {
    Fixture::pmtds_kset_2().run();
}

#[test]
fn pmtds_triangle() {
    Fixture::pmtds_triangle().run();
}

#[test]
fn pmtds_hierarchical() {
    Fixture::pmtds_hierarchical().run();
}

#[test]
fn self_join_path2() {
    Fixture::self_join_path2().run();
}

#[test]
fn open_head_path2_chain_keyed() {
    Fixture::open_head_path2_chain_keyed().run();
}

#[test]
fn s_under_s_path2() {
    Fixture::s_under_s_path2().run();
}

#[test]
fn access_free_bag() {
    Fixture::access_free_bag().run();
}

#[test]
fn uncovered_bag_x1_x5() {
    Fixture::uncovered_bag_x1_x5().run();
}

#[test]
fn uncovered_bag_empty_access() {
    Fixture::uncovered_bag_empty_access().run();
}
