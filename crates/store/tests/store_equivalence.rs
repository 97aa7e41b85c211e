//! Property test: the storage tier is *exactly* the in-memory index.
//!
//! Across randomized databases, tier splits and zipf-skewed multi-tuple
//! request batches, both a [`StoredIndex`] (every S-view on disk) and a
//! [`TieredShardedIndex`] (every hot/cold shard placement) must answer
//! bit-for-bit identically to the single in-memory [`CqapIndex`] built
//! over the whole database — the acceptance bar for the on-disk format
//! and the placement invariants, mirroring `shard_equivalence.rs` one
//! seam further down. The disk tier runs the v2 delta+varint compressed
//! format, so every case here also checks the compressed footprint
//! undercuts the plain 8-bytes-per-value encoding.

use cqap_common::{vars, Tuple, VarSet};
use cqap_decomp::families::{pmtds_3reach_fig1, pmtds_4reach};
use cqap_decomp::{Pmtd, TreeDecomposition};
use cqap_delta::{ApplyDelta, DeltaBatch};
use cqap_panda::{AtomIndexCache, CqapIndex};
use cqap_query::workload::{graph_pair_requests, zipf_multi_requests, Graph};
use cqap_query::{AccessRequest, Atom, ConjunctiveQuery, Cqap};
use cqap_relation::{Database, HashIndex, Relation, Schema};
use cqap_shard::ShardedIndex;
use cqap_store::{scratch_dir, PlacementPolicy, ShardTier, StoredIndex, TieredShardedIndex};
use cqap_yannakakis::naive_answer;
use proptest::prelude::*;

/// One update batch per round, generated against the current database —
/// the same four-round structure as `delta_equivalence.rs` in the
/// yannakakis crate: fresh chain inserts plus scattered deletes, a
/// cancel/no-op round with one real change, an entirely empty batch, and
/// finally deletion of the round-0 chain.
fn delta_round(round: usize, db: &Database, seed: u64) -> DeltaBatch {
    let names: Vec<String> = db.relations().iter().map(|r| r.name().to_string()).collect();
    let base = 20_000 + (seed % 89) * 10;
    match round {
        0 => {
            let mut batch = DeltaBatch::new();
            for (i, name) in names.iter().enumerate() {
                let i = i as u64;
                batch = batch.insert(name.clone(), vec![Tuple::pair(base + i, base + i + 1)]);
                let victims: Vec<Tuple> = db
                    .relation(name)
                    .unwrap()
                    .tuples()
                    .iter()
                    .skip(seed as usize % 4)
                    .step_by(6)
                    .take(4)
                    .cloned()
                    .collect();
                batch = batch.delete(name.clone(), victims);
            }
            batch
        }
        1 => {
            let mut batch = DeltaBatch::new();
            if let Some(t) = db.relation(&names[0]).unwrap().tuples().first().cloned() {
                batch = batch
                    .delete(names[0].clone(), vec![t.clone()])
                    .insert(names[0].clone(), vec![t]);
            }
            batch.insert(
                names[names.len() - 1].clone(),
                vec![Tuple::pair(base + 70, base + 71)],
            )
        }
        2 => DeltaBatch::new(),
        _ => {
            let mut batch = DeltaBatch::new();
            for (i, name) in names.iter().enumerate() {
                let i = i as u64;
                batch = batch.delete(name.clone(), vec![Tuple::pair(base + i, base + i + 1)]);
            }
            batch
        }
    }
}

/// The cold tier's atom indexes are edited in place like the hot tier's:
/// after every batch each must equal `HashIndex::build` over the
/// post-delta database (same keys, same bucket sets).
fn assert_atom_indexes_match_rebuild(maintained: &AtomIndexCache, db: &Database, round: usize) {
    assert!(maintained.entries().next().is_some(), "no atom indexes kept");
    for (relation, vars, index) in maintained.entries() {
        let renamed = Relation::from_tuples(
            relation.to_string(),
            Schema::new(vars.to_vec()).unwrap(),
            db.relation(relation).unwrap().iter().cloned(),
        )
        .unwrap();
        assert!(
            *index == HashIndex::build(&renamed, index.key_vars()).unwrap(),
            "round {round}: cold-tier index of {relation}{vars:?} on {} diverged from a rebuild",
            index.key_vars()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized database: the disk-resident index and every tier split
    /// of a 3-shard deployment answer identically to the reference, for
    /// single-binding requests and zipf multi-tuple batches.
    #[test]
    fn stored_and_tiered_match_in_memory(seed in 0u64..10_000, edges in 60usize..200) {
        let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
        let graph = Graph::random(40, edges, seed);
        let db = graph.as_path_database(3);
        let reference = CqapIndex::build(&cqap, &db, &pmtds).unwrap();

        let singles: Vec<AccessRequest> = graph_pair_requests(&graph, 10, seed ^ 0x5eed)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let multis: Vec<AccessRequest> = zipf_multi_requests(&graph, 5, 5, 1.1, seed ^ 0x21f)
            .into_iter()
            .map(|tuples| {
                let tuples: Vec<Tuple> =
                    tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
                AccessRequest::new(cqap.access(), tuples).unwrap()
            })
            .collect();

        // Unsharded, fully disk-resident: same intrinsic S, same answers.
        // Naive oracle ≡ engine on *both* backends (hash probes in memory,
        // fence + segment reads with column-direct decode on disk): one
        // equivalence class per request.
        let stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds).unwrap();
        prop_assert_eq!(stored.space_used(), reference.space_used());
        // The v2 delta+varint runs must beat the plain 8-bytes-per-value
        // encoding on every random database, not just the benchmarks.
        prop_assert!(
            stored.disk_bytes() < (stored.space_used() * 8) as u64,
            "compressed runs ({} B) not smaller than plain encoding of {} values",
            stored.disk_bytes(), stored.space_used()
        );
        for request in singles.iter().chain(&multis) {
            let expected = naive_answer(&cqap, &db, request).unwrap();
            prop_assert_eq!(
                stored.answer(request).unwrap(),
                expected.clone(),
                "StoredIndex engine diverged from the naive oracle"
            );
            prop_assert_eq!(
                reference.answer(request).unwrap(),
                expected,
                "CqapIndex engine diverged from the naive oracle"
            );
        }

        // Sharded with every hot/cold split of k = 3 (the seed picks the
        // cold subset): 0, 1, 2 and 3 cold shards, placement rotated by
        // the seed so every shard sees both tiers across cases.
        for cold in 0..=3usize {
            let placement: Vec<ShardTier> = (0..3)
                .map(|i| {
                    if (i + seed as usize) % 3 < cold {
                        ShardTier::Cold
                    } else {
                        ShardTier::Hot
                    }
                })
                .collect();
            let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 3).unwrap();
            let tiered = TieredShardedIndex::from_sharded(
                sharded,
                &placement,
                scratch_dir("proptest"),
            )
            .unwrap();
            // Cold shards report their compressed on-disk footprint; it
            // must undercut the logical size of the values they hold.
            let space = tiered.space_used();
            if space.cold_values > 0 {
                prop_assert!(
                    space.cold_disk_bytes < (space.cold_values * 8) as u64,
                    "cold tier not compressed: {} B for {} values",
                    space.cold_disk_bytes, space.cold_values
                );
            } else {
                prop_assert_eq!(space.cold_disk_bytes, 0);
            }
            for request in singles.iter().chain(&multis) {
                prop_assert_eq!(
                    tiered.answer(request).unwrap(),
                    reference.answer(request).unwrap(),
                    "tiered diverged at cold = {} placement {:?}", cold, placement
                );
            }
        }
    }

    /// The budget-driven policy end to end: any hot budget yields a valid
    /// placement whose tiered index is exact, and smaller budgets never
    /// place more shards hot than larger ones.
    #[test]
    fn policy_budgets_stay_exact(seed in 0u64..10_000, budget_kb in 0usize..64) {
        let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
        let graph = Graph::random(40, 150, seed);
        let db = graph.as_path_database(3);
        let reference = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&graph, 12, seed ^ 0x7ab)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();

        let spec = cqap_shard::ShardSpec::new(&cqap, 3).unwrap();
        let weights = PlacementPolicy::observe(&spec, &requests);
        let policy = PlacementPolicy::hot_budget(budget_kb * 1024).with_weights(weights);
        let tiered =
            TieredShardedIndex::build_in_temp(&cqap, &db, &pmtds, 3, &policy).unwrap();
        let space = tiered.space_used();
        prop_assert_eq!(space.hot_shards + space.cold_shards, 3);
        for request in &requests {
            prop_assert_eq!(
                tiered.answer(request).unwrap(),
                reference.answer(request).unwrap(),
                "budget {}KiB placement diverged", budget_kb
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Delta segments on the disk tier: a [`StoredIndex`] maintained
    /// through [`ApplyDelta`] — deltas buffered as LSM-style overlay
    /// segments, then folded down by a forced compaction — answers
    /// identically to the incrementally maintained in-memory index *and*
    /// to a fresh rebuild (memory and disk) over the post-delta database.
    /// Per request: the naive oracle over the post-delta database, the
    /// engine on both maintained backends, plus the two rebuilds.
    #[test]
    fn stored_delta_segments_match_incremental_and_rebuild(
        seed in 0u64..10_000,
        edges in 60usize..160,
    ) {
        let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
        let graph = Graph::random(40, edges, seed);
        let db = graph.as_path_database(3);

        let base = 20_000 + (seed % 89) * 10;
        let mut requests: Vec<AccessRequest> = graph_pair_requests(&graph, 8, seed ^ 0xd17a)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        // A request across the inserted chain: answered in rounds 0-2,
        // empty again after round 3 deletes the chain.
        requests.push(
            AccessRequest::single(cqap.access(), &[base, base + db.num_relations() as u64])
                .unwrap(),
        );

        let mut stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds).unwrap();
        let mut memory = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let mut reference_db = db.clone();

        for round in 0..4 {
            let batch = delta_round(round, &reference_db, seed);
            let stored_stats = stored.apply_delta(&batch).unwrap();
            let memory_stats = memory.apply_delta(&batch).unwrap();
            let ref_stats = reference_db.apply_delta(&batch).unwrap();
            prop_assert_eq!(&stored_stats, &ref_stats, "round {}: disk stats diverged", round);
            prop_assert_eq!(&memory_stats, &ref_stats, "round {}: memory stats diverged", round);

            // Round 1 probes with overlay segments still pending; the
            // forced compaction folds them into fresh base runs and the
            // remaining rounds probe the rewritten files.
            if round == 1 {
                stored.compact().unwrap();
                prop_assert_eq!(stored.overlay_len(), 0, "compaction left overlay tuples");
            }

            assert_atom_indexes_match_rebuild(
                stored.maintenance().atom_indexes(),
                &reference_db,
                round,
            );
            let rebuilt = CqapIndex::build(&cqap, &reference_db, &pmtds).unwrap();
            let rebuilt_stored =
                StoredIndex::build_in_temp(&cqap, &reference_db, &pmtds).unwrap();
            prop_assert_eq!(
                stored.space_used(),
                rebuilt.space_used(),
                "round {}: maintained disk S-view space diverged from a rebuild", round
            );
            // Both lineages keep the rebuild's support counts, row for
            // row and count for count.
            prop_assert!(
                stored.support_counts().eq(rebuilt.support_counts()),
                "round {}: disk support counts diverged from a rebuild", round
            );
            prop_assert!(
                memory.support_counts().eq(rebuilt.support_counts()),
                "round {}: memory support counts diverged from a rebuild", round
            );
            // Compression must survive the full overlay / compaction
            // cycle: base runs rewritten by compaction are still v2.
            prop_assert!(
                stored.disk_bytes() < (stored.space_used() * 8) as u64,
                "round {}: maintained runs ({} B) not smaller than plain encoding",
                round, stored.disk_bytes()
            );
            for request in &requests {
                let expected = rebuilt.answer(request).unwrap();
                prop_assert_eq!(
                    naive_answer(&cqap, &reference_db, request).unwrap(),
                    expected.clone(),
                    "round {}: rebuilt answer diverged from the naive oracle", round
                );
                prop_assert_eq!(
                    stored.answer(request).unwrap(),
                    expected.clone(),
                    "round {}: stored engine answer diverged", round
                );
                prop_assert_eq!(
                    memory.answer(request).unwrap(),
                    expected.clone(),
                    "round {}: memory engine answer diverged", round
                );
                prop_assert_eq!(
                    rebuilt_stored.answer(request).unwrap(),
                    expected,
                    "round {}: rebuilt stored answer diverged", round
                );
            }
        }
    }

    /// The two shapes the Figure-1 set does not have, on the cold tier: a
    /// self-join (one stored relation under two atoms — one delta edits
    /// both index slots of the spilled backend's own copy-on-write
    /// lineage, while the source index it was spilled from stays
    /// untouched) and `(T1245, T234)` of Example E.8, whose access-free
    /// bag is joined per request from the spilled lineage's live atom
    /// indexes, so a delta on its atoms reaches it with no recompile.
    #[test]
    fn stored_self_join_and_access_free_bag_match_rebuild(
        seed in 0u64..10_000,
        edges in 40usize..110,
    ) {
        let graph = Graph::random(24, edges, seed);

        let atoms = vec![
            Atom::new("E", vec![0, 1]).unwrap(),
            Atom::new("E", vec![1, 2]).unwrap(),
        ];
        let cq = ConjunctiveQuery::new("self_join", 3, atoms, VarSet::from_iter([0, 2])).unwrap();
        let self_join = Cqap::new(cq, VarSet::from_iter([0, 2])).unwrap();
        let td = TreeDecomposition::single(vars![1, 2, 3]);
        let self_join_pmtds = vec![
            Pmtd::for_cqap(td.clone(), [], &self_join).unwrap(),
            Pmtd::for_cqap(td, [0], &self_join).unwrap(),
        ];
        let mut edge_db = Database::new();
        edge_db
            .add_relation(Relation::binary("E", 0, 1, graph.edges.iter().copied()))
            .unwrap();

        let (four_reach, all) = pmtds_4reach().unwrap();
        let access_free: Vec<Pmtd> = all
            .into_iter()
            .filter(|p| p.summary() == "(T1245, T234)")
            .collect();
        prop_assert_eq!(access_free.len(), 1);

        for (cqap, pmtds, db) in [
            (&self_join, &self_join_pmtds, edge_db),
            (&four_reach, &access_free, graph.as_path_database(4)),
        ] {
            let hops = cqap.cq().atoms().len() as u64;
            let base = 20_000 + (seed % 89) * 10;
            let mut requests: Vec<AccessRequest> = graph_pair_requests(&graph, 8, seed ^ 0x5e1f)
                .into_iter()
                .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
                .collect();
            requests.push(AccessRequest::single(cqap.access(), &[base, base + hops]).unwrap());

            let source = CqapIndex::build(cqap, &db, pmtds).unwrap();
            let mut stored = StoredIndex::spill(&source, scratch_dir("fixtures")).unwrap();
            let mut reference_db = db.clone();
            // Round 0 inserts a fresh chain (one edge per atom) and
            // deletes scattered edges; round 1 deletes the chain again.
            for round in 0..2 {
                let mut batch = DeltaBatch::new();
                for (i, atom) in cqap.cq().atoms().iter().enumerate() {
                    let edge = vec![Tuple::pair(base + i as u64, base + i as u64 + 1)];
                    batch = if round == 0 {
                        batch.insert(atom.relation.clone(), edge)
                    } else {
                        batch.delete(atom.relation.clone(), edge)
                    };
                }
                if round == 0 {
                    for rel in reference_db.relations() {
                        let victims = rel.tuples().iter().step_by(7).take(3).cloned().collect();
                        batch = batch.delete(rel.name().to_string(), victims);
                    }
                }
                let stats = stored.apply_delta(&batch).unwrap();
                prop_assert_eq!(stats, reference_db.apply_delta(&batch).unwrap());
                assert_atom_indexes_match_rebuild(
                    stored.maintenance().atom_indexes(),
                    &reference_db,
                    round,
                );
                let rebuilt = CqapIndex::build(cqap, &reference_db, pmtds).unwrap();
                prop_assert_eq!(stored.space_used(), rebuilt.space_used());
                for request in &requests {
                    prop_assert_eq!(
                        stored.answer(request).unwrap(),
                        naive_answer(cqap, &reference_db, request).unwrap(),
                        "round {}: stored answer diverged from the naive oracle", round
                    );
                }
            }
            // The spill diverged copy-on-write: the source it shares its
            // compiled pipelines with still answers over the old database.
            assert_atom_indexes_match_rebuild(source.maintenance().atom_indexes(), &db, 2);
            let pristine = CqapIndex::build(cqap, &db, pmtds).unwrap();
            for request in &requests {
                prop_assert_eq!(
                    source.answer(request).unwrap(),
                    pristine.answer(request).unwrap(),
                    "the spilled sibling's deltas leaked into the source index"
                );
            }
        }
    }

    /// The fourth backend: every hot/cold split of a 3-shard tiered
    /// deployment absorbs a delta batch through [`ApplyDelta`] and keeps
    /// answering exactly like the maintained unsharded in-memory index;
    /// post-delta, the placement policy re-scores the grown shards.
    #[test]
    fn tiered_deltas_match_unsharded_incremental(seed in 0u64..10_000, edges in 60usize..140) {
        let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
        let graph = Graph::random(40, edges, seed);
        let db = graph.as_path_database(3);
        let batch = delta_round(0, &db, seed);

        let base = 20_000 + (seed % 89) * 10;
        let mut requests: Vec<AccessRequest> = graph_pair_requests(&graph, 8, seed ^ 0x71e2)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        requests.push(
            AccessRequest::single(cqap.access(), &[base, base + db.num_relations() as u64])
                .unwrap(),
        );

        let mut reference = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        reference.apply_delta(&batch).unwrap();

        for cold in 0..=3usize {
            let placement: Vec<ShardTier> = (0..3)
                .map(|i| {
                    if (i + seed as usize) % 3 < cold {
                        ShardTier::Cold
                    } else {
                        ShardTier::Hot
                    }
                })
                .collect();
            let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 3).unwrap();
            let mut tiered = TieredShardedIndex::from_sharded(
                sharded,
                &placement,
                scratch_dir("delta-proptest"),
            )
            .unwrap();
            tiered.apply_delta(&batch).unwrap();
            for request in &requests {
                prop_assert_eq!(
                    tiered.answer(request).unwrap(),
                    reference.answer(request).unwrap(),
                    "cold = {} placement {:?}", cold, placement
                );
            }
            // Re-scoring over the post-delta shard sizes: an unbounded
            // budget pulls every shard hot, a zero budget evicts all.
            let bytes = tiered.shard_bytes();
            prop_assert_eq!(bytes.len(), 3);
            let all_hot = tiered.replan(&PlacementPolicy::hot_budget(usize::MAX));
            prop_assert!(all_hot.iter().all(|t| matches!(t, ShardTier::Hot)));
            let all_cold = tiered.replan(&PlacementPolicy::hot_budget(0));
            prop_assert!(all_cold.iter().all(|t| matches!(t, ShardTier::Cold)));
        }
    }
}

/// Build is a delta from empty: an index built over the empty database
/// that absorbs the whole database as one insert batch — every relation
/// in the batch, so every full-join row comes out of three atoms' chains
/// and is kept by the first — is the index `CqapIndex::build` makes, hot
/// and cold. The join is several morsels long, so this also drives the
/// executor's flush through the maintenance sink.
#[test]
fn an_empty_index_absorbing_the_database_as_one_batch_equals_a_build() {
    let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
    let graph = Graph::skewed(60, 420, 3, 45, 77);
    let db = graph.as_path_database(3);
    let mut empty = Database::new();
    let mut batch = DeltaBatch::new();
    for rel in db.relations() {
        empty
            .add_relation(Relation::new(rel.name().to_string(), rel.schema().clone()))
            .unwrap();
        batch = batch.insert(rel.name().to_string(), rel.tuples().to_vec());
    }

    let built = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    let join_rows: u64 = built
        .support_counts()
        .filter(|(plan, _, _)| *plan == 2)
        .flat_map(|(_, _, counts)| counts.rows().map(|row| u64::from(counts.count(row))))
        .sum();
    assert!(join_rows > 3 * 4096, "a full join of {join_rows} rows is too few morsels");

    let mut hot = CqapIndex::build(&cqap, &empty, &pmtds).unwrap();
    let mut cold = StoredIndex::spill(&hot, scratch_dir("from-empty")).unwrap();
    assert_eq!((hot.space_used(), cold.space_used()), (0, 0));
    for stats in [hot.apply_delta(&batch).unwrap(), cold.apply_delta(&batch).unwrap()] {
        assert_eq!((stats.inserted, stats.deleted), (3 * graph.edges.len(), 0));
    }
    assert_eq!(hot.space_used(), built.space_used());
    assert_eq!(cold.space_used(), built.space_used());
    assert!(hot.support_counts().eq(built.support_counts()));
    assert!(cold.support_counts().eq(built.support_counts()));
    for maintenance in [hot.maintenance(), cold.maintenance()] {
        assert_atom_indexes_match_rebuild(maintenance.atom_indexes(), &db, 0);
    }
    for (u, v) in graph_pair_requests(&graph, 30, 79) {
        let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
        let expected = naive_answer(&cqap, &db, &request).unwrap();
        assert_eq!(built.answer(&request).unwrap(), expected);
        assert_eq!(hot.answer(&request).unwrap(), expected, "grown hot index, ({u},{v})");
        assert_eq!(cold.answer(&request).unwrap(), expected, "grown cold index, ({u},{v})");
    }
}

/// A request with a sole shard — no binding, one binding, or any request
/// when `k = 1` — is answered by that shard on the borrowed request; the
/// rest are split per shard and unioned. Both sharded indexes match the
/// naive oracle on every path.
#[test]
fn sole_shard_and_split_requests_match_the_oracle() {
    let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
    let graph = Graph::random(40, 150, 23);
    let db = graph.as_path_database(3);
    let bindings: Vec<Tuple> = graph_pair_requests(&graph, 12, 29)
        .into_iter()
        .map(|(u, v)| Tuple::pair(u, v))
        .collect();
    let requests = [
        AccessRequest::new(cqap.access(), Vec::new()).unwrap(),
        AccessRequest::new(cqap.access(), bindings[..1].to_vec()).unwrap(),
        AccessRequest::new(cqap.access(), bindings).unwrap(),
    ];
    for shards in [1, 3] {
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, shards).unwrap();
        let all_cold = PlacementPolicy::hot_budget(0);
        let tiered =
            TieredShardedIndex::build_in_temp(&cqap, &db, &pmtds, shards, &all_cold).unwrap();
        for request in &requests {
            let spec = sharded.spec();
            let sole = spec.sole_shard(request);
            assert_eq!(sole.is_some(), shards == 1 || request.len() <= 1);
            if sole.is_none() {
                assert!(spec.split_request(request).unwrap().len() > 1, "a real split");
            }
            let expected = naive_answer(&cqap, &db, request).unwrap();
            let label = format!("k = {shards}, {} bindings", request.len());
            assert_eq!(sharded.answer(request).unwrap(), expected, "sharded, {label}");
            assert_eq!(tiered.answer(request).unwrap(), expected, "tiered, {label}");
        }
    }
}
