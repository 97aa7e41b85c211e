//! Sharded answering is exactly unsharded answering: all-hot deployments
//! of 1 and 3 shards over Figure 1's 3-reachability set, as built and
//! after each delta round routed through the `ShardSpec` contract — the
//! sharded column of the equivalence matrix (`matrix/mod.rs`). Every shard
//! also equals its own rebuild after each round.

mod matrix;

use matrix::{Column, Fixture, Phase};

#[test]
fn sharded_matches_unsharded() {
    Fixture::pmtds_3reach_fig1().run_only(&[Column::Sharded], &[Phase::Built]);
}

#[test]
fn sharded_deltas_match_unsharded_incremental() {
    Fixture::pmtds_3reach_fig1().run_only(&[Column::Sharded], &[Phase::Maintained]);
}
