//! The storage tier is exactly the in-memory index: a spilled `CqapIndex`
//! and a `[Hot, Cold, Cold]` 3-shard deployment answer like the naive
//! oracle as built, maintained and grown, stay under 8 bytes a stored
//! value, and equal a rebuild after every delta round — the spilled and
//! tiered columns of the equivalence matrix (`matrix/mod.rs`).

mod matrix;

use cqap_suite::delta::ApplyDelta;
use cqap_suite::prelude::*;
use cqap_suite::shard::{PlacementPolicy, ShardSpec, ShardTier, ShardedIndex};
use cqap_suite::store::scratch_dir;
use cqap_suite::yannakakis::naive::full_join;

use matrix::{assert_equals_rebuild, Column, Fixture, Phase, SEEDS};

#[test]
fn stored_and_tiered_match_in_memory() {
    let columns = [Column::Spilled, Column::Tiered];
    Fixture::pmtds_3reach_fig1().run_only(&columns, &[Phase::Built]);
}

/// The spilled index and its resident twin absorb the delta rounds: rounds
/// 0 and 1 probe the runs under pending overlay segments, then a forced
/// compaction folds them down (no overlay tuple left), and rounds 2 and 3
/// apply over, and probe, the rewritten runs. Growing from empty compacts
/// too.
#[test]
fn stored_delta_segments_match_incremental_and_rebuild() {
    let phases = [Phase::Maintained, Phase::Grown];
    Fixture::pmtds_3reach_fig1().run_only(&[Column::Resident, Column::Spilled], &phases);
}

/// The self-join (one delta edits both atoms' index slots of the spilled
/// lineage) and `(T1245, T234)`'s access-free bag (joined per request from
/// the spilled lineage's live atom indexes). A spill shares its atom
/// indexes with its source copy-on-write: the source, left out of every
/// delta its spill absorbs, still equals a build over the old database.
#[test]
fn stored_self_join_and_access_free_bag_match_rebuild() {
    let columns = [Column::Resident, Column::Spilled];
    for fixture in [Fixture::self_join_path2(), Fixture::access_free_bag()] {
        fixture.run_only(&columns, &[Phase::Maintained]);
        let (cqap, pmtds) = (&fixture.cqap, &fixture.pmtds);
        for seed in SEEDS {
            let (db, requests, deltas) = fixture.instance(seed);
            let source = CqapIndex::build(cqap, &db, pmtds).unwrap();
            let mut stored = source.spill(scratch_dir("spill-source")).unwrap();
            for batch in &deltas {
                stored.apply_delta(batch).unwrap();
            }
            let pristine = CqapIndex::build(cqap, &db, pmtds).unwrap();
            let at = format!("{} source of a maintained spill", fixture.name);
            assert_equals_rebuild(&source, &pristine, &at);
            for request in &requests {
                assert_eq!(
                    source.answer(request).unwrap(),
                    pristine.answer(request).unwrap(),
                    "{at}: the spill's deltas leaked into it"
                );
            }
        }
    }
}

/// After the rounds, the placement policy re-scores the grown shards: an
/// unbounded budget pulls every shard hot, a zero budget evicts all.
#[test]
fn tiered_deltas_match_unsharded_incremental() {
    let fixture = Fixture::pmtds_3reach_fig1();
    fixture.run_only(&[Column::Tiered], &[Phase::Maintained]);
    let dir = scratch_dir("replan");
    for seed in SEEDS {
        let (db, _, deltas) = fixture.instance(seed);
        let sharded = ShardedIndex::build(&fixture.cqap, &db, &fixture.pmtds, 3).unwrap();
        let placement = [ShardTier::Hot, ShardTier::Cold, ShardTier::Cold];
        let mut tiered = ShardedIndex::from_sharded(sharded, &placement, &dir).unwrap();
        for batch in &deltas {
            tiered.apply_delta(batch).unwrap();
        }
        assert_eq!(tiered.shard_bytes().len(), 3);
        let all_hot = tiered.replan(&PlacementPolicy::hot_budget(usize::MAX));
        assert!(all_hot.iter().all(|t| matches!(t, ShardTier::Hot)));
        let all_cold = tiered.replan(&PlacementPolicy::hot_budget(0));
        assert!(all_cold.iter().all(|t| matches!(t, ShardTier::Cold)));
    }
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every backend built over the empty database absorbs the whole database
/// as one insert batch and equals a build. On a larger database, whose full
/// join is several morsels long, the resident and spilled indexes also
/// drive the executor's flush through the maintenance sink.
#[test]
fn an_empty_index_absorbing_the_database_as_one_batch_equals_a_build() {
    Fixture::pmtds_3reach_fig1().run_only(Column::ALL, &[Phase::Grown]);
    let large = Fixture::pmtds_3reach_fig1().sized(60, 420);
    for seed in SEEDS {
        let (db, _, _) = large.instance(seed);
        let join_rows = full_join(&large.cqap, &db).unwrap().len();
        assert!(
            join_rows > 3 * 4096,
            "a full join of {join_rows} rows is too few morsels"
        );
    }
    large.run_only(&[Column::Resident, Column::Spilled], &[Phase::Grown]);
}

/// A request with a sole shard — no binding, one binding, or any request
/// when `k = 1` — is answered by that shard on the borrowed request; the
/// rest are split per shard and unioned. The sharded, tiered, served and
/// routed backends answer every one like the oracle.
#[test]
fn sole_shard_and_split_requests_match_the_oracle() {
    let fixture = Fixture::pmtds_3reach_fig1();
    let columns = [
        Column::Sharded,
        Column::Tiered,
        Column::Served,
        Column::Routed,
    ];
    fixture.run_only(&columns, &[Phase::Built]);
    for seed in SEEDS {
        let (_, requests, _) = fixture.instance(seed);
        assert!((0..=2).all(|n| requests.iter().any(|r| r.len().min(2) == n)));
        for shards in [1, 3] {
            let spec = ShardSpec::new(&fixture.cqap, shards).unwrap();
            for request in &requests {
                let sole = spec.sole_shard(request);
                let label = format!("k = {shards}, {} bindings", request.len());
                assert_eq!(sole.is_some(), shards == 1 || request.len() <= 1, "{label}");
                if sole.is_none() {
                    let split = spec.split_request(request).unwrap();
                    assert!(split.len() > 1, "{label}: a real split");
                }
            }
        }
    }
}
