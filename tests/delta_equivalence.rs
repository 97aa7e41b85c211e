//! Incremental maintenance is indistinguishable from a rebuild: the
//! resident index of a set, and one per PMTD of it, absorb the equivalence
//! matrix's delta rounds (a real change, a cancel-and-no-op round, an empty
//! batch, the undo of the first) and after each answer like the naive
//! oracle and equal a rebuild — the maintained phase of the matrix's
//! resident cells (`matrix/mod.rs`).

mod matrix;

use cqap_suite::common::Tuple;
use cqap_suite::delta::{ApplyDelta, DeltaBatch};
use cqap_suite::prelude::*;
use cqap_suite::store::scratch_dir;
use cqap_suite::yannakakis::SViewProbe;

use matrix::{
    assert_equals_rebuild, chain_keyed_views, fresh_tuple, open_head_path2, Column, Fixture, Phase,
    SEEDS,
};

const COLUMNS: &[Column] = &[Column::Resident, Column::PerPmtd];

#[test]
fn two_reach_delta_equivalence() {
    Fixture::pmtds_2reach().run_only(COLUMNS, &[Phase::Maintained]);
}

#[test]
fn three_reach_delta_equivalence() {
    Fixture::pmtds_3reach_all().run_only(COLUMNS, &[Phase::Maintained]);
}

#[test]
fn square_delta_equivalence() {
    Fixture::pmtds_square().run_only(COLUMNS, &[Phase::Maintained]);
}

/// One stored relation under two atoms: every delta on `E` edits both
/// atoms' index slots.
#[test]
fn self_join_delta_equivalence() {
    Fixture::self_join_path2().run_only(COLUMNS, &[Phase::Maintained]);
}

/// `S23` probed by `x2` and `S123` by `x1`: the counted tables serve them
/// through per-key chains, as built and after every delta round.
#[test]
fn chain_keyed_view_delta_equivalence() {
    let phases = [Phase::Built, Phase::Maintained];
    Fixture::open_head_path2_chain_keyed().run_only(COLUMNS, &phases);
}

/// `(T1245, T234)` alone: a set index builds only its cheapest PMTD, so
/// only a set of this plan alone runs it.
#[test]
fn access_free_bag_delta_equivalence() {
    Fixture::access_free_bag().run_only(COLUMNS, &[Phase::Maintained]);
}

/// The uncovered root under `{x1, x5}`: its T-view joins every atom onto
/// the whole request from the live atom indexes, so no delta leaves it
/// stale.
#[test]
fn uncovered_bag_delta_equivalence() {
    Fixture::uncovered_bag_x1_x5().run_only(COLUMNS, &[Phase::Maintained]);
}

/// The uncovered root under the empty access pattern: the all-atoms chain,
/// seeded by the one empty binding, streams the whole join as built and
/// after each delta round.
#[test]
fn uncovered_bag_with_empty_access_pattern_matches_the_references() {
    let phases = [Phase::Built, Phase::Maintained];
    Fixture::uncovered_bag_empty_access().run_only(COLUMNS, &phases);
}

/// `(T1245, T234)` alone under one-relation batches on `R1`, `R4`, `R2`,
/// `R3` in turn: each inserts that atom's tuple of the fresh valuation and
/// deletes a live tuple of the relation, and after each every answer is the
/// naive oracle's. The access-free bag `{x2,x3,x4}` reads `R2` and `R3`
/// through the live atom indexes on every request, so nothing a delta on
/// them does leaves it stale: the last insert completes the fresh 4-path,
/// and the plan, never recompiled, serves it.
#[test]
fn deltas_on_each_relation_of_an_access_free_bag_plan_match_naive() {
    let fixture = Fixture::access_free_bag();
    let atoms = fixture.cqap.cq().atoms();
    for seed in SEEDS {
        let (db, requests, _) = fixture.instance(seed);
        let mut index = CqapIndex::build(&fixture.cqap, &db, &fixture.pmtds).unwrap();
        for (i, hop) in [0, 3, 1, 2].into_iter().enumerate() {
            let relation = &atoms[hop].relation;
            let gone = db.relation(relation).unwrap().tuples()[5 * i].clone();
            let batch = DeltaBatch::new()
                .insert(relation.clone(), vec![fresh_tuple(&atoms[hop])])
                .delete(relation.clone(), vec![gone]);
            let stats = index.apply_delta(&batch).unwrap();
            assert_eq!(
                (stats.inserted, stats.deleted),
                (1, 1),
                "a delta on {relation}"
            );
            for request in &requests {
                assert_eq!(
                    index.answer(request).unwrap(),
                    naive_answer(&fixture.cqap, index.database(), request).unwrap(),
                    "after a delta on {relation}"
                );
            }
        }
        let fresh = requests.last().unwrap();
        assert_eq!(index.answer(fresh).unwrap().len(), 1, "the fresh 4-path");
    }
}

/// The families whose plans hold a T-view under a T-parent — the five
/// 3-reachability PMTDs, the eleven of Example E.8 and the hierarchical set
/// of Appendix F (over its dense-cube database) — as built and after each
/// delta round: the resident indexes answer like the oracle, and in every
/// one of those checks the set's index runs its two-seeded T-view
/// programs from the request *and* from their parent's link keys.
#[test]
fn both_seeds_agree_with_the_references() {
    let phases = [Phase::Built, Phase::Maintained];
    for fixture in [
        Fixture::pmtds_3reach_all(),
        Fixture::pmtds_4reach(),
        Fixture::pmtds_hierarchical(),
    ] {
        fixture.run_only(COLUMNS, &phases);
    }
}

/// A hub key of a chain-keyed view, deleted whole: sources 0 and 1 each
/// reach 40 midpoints with 30 targets apiece, so `S123` (probed by `x1`,
/// the view the set builds) holds two chains of 1 200 rows and `S23`
/// (probed by `x2`, the view of `(T12, S23)` built alone) 40 chains of 30
/// rows supported twice. One batch deletes every `R1` tuple: each view
/// must end as a rebuild over the empty join — no row, no key, and no
/// more than 2 KiB of heap.
#[test]
fn a_hub_key_of_a_chain_keyed_view_is_deleted_in_one_batch() {
    let (cqap, pmtds) = open_head_path2(&[&[], &[1]], true);
    let sources = (0..2u64).flat_map(|u| (0..40u64).map(move |mid| (u, 100 + mid)));
    let targets = (0..40u64).flat_map(|mid| (0..30u64).map(move |t| (100 + mid, 1_000 + t)));
    let mut db = Database::new();
    db.add_relation(Relation::binary("R1", 0, 1, sources.clone()))
        .unwrap();
    db.add_relation(Relation::binary("R2", 0, 1, targets))
        .unwrap();
    let gone: Vec<Tuple> = sources.map(|(u, mid)| Tuple::pair(u, mid)).collect();
    let batch = DeltaBatch::new().delete("R1", gone);
    let mut emptied = db.clone();
    emptied.apply_delta(&batch).unwrap();
    let hub = AccessRequest::single(cqap.access(), &[0]).unwrap();
    let check = |index: &CqapIndex, rows: usize, view: &str| {
        let expected = naive_answer(&cqap, index.database(), &hub).unwrap();
        assert_eq!(expected.len(), rows);
        assert_eq!(index.answer(&hub).unwrap(), expected, "{view}: engine");
    };
    let indexes = [
        ("S123", &pmtds[..], 3 * 2_400),
        ("S23", &pmtds[1..2], 2 * 1_200),
    ];
    for (view, chosen, values) in indexes {
        let mut index = CqapIndex::build(&cqap, &db, chosen).unwrap();
        check(&index, 1_200, view);
        assert_eq!(chain_keyed_views(&index), 1, "{view}");
        let (_, views) = index.plans().next().unwrap();
        assert_eq!(views.stored_values(), values, "{view}");
        let held = index.resident_bytes();
        assert!(held > 8 * index.space_used(), "{view}");

        let stats = index.apply_delta(&batch).unwrap();
        assert_eq!((stats.inserted, stats.deleted), (0, 80));
        let rebuilt = CqapIndex::build(&cqap, &emptied, chosen).unwrap();
        assert_equals_rebuild(&index, &rebuilt, &format!("{view} emptied"));
        assert_eq!((index.space_used(), chain_keyed_views(&index)), (0, 1));
        for (_, views) in index.plans() {
            for (node, run) in views.runs() {
                assert!(!views.contains(node, &Tuple::from_slice(&[0])).unwrap());
                assert!(!views.contains(node, &Tuple::from_slice(&[100])).unwrap());
                assert!(
                    run.heap_bytes() <= 2_048,
                    "emptied view {view} holds {} of {held} bytes",
                    run.heap_bytes()
                );
            }
        }
        check(&index, 0, view);
    }
}

/// A set index builds, maintains and spills only its cheapest PMTD (the
/// fewest non-materialized bags): it holds exactly what that PMTD built
/// alone holds — S-view space, support counts, atom indexes, and once
/// spilled the same bytes on disk — as built and after a real delta.
#[test]
fn a_set_index_is_its_cheapest_pmtd_built_alone() {
    for (fixture, cheapest) in [
        (Fixture::pmtds_3reach_fig1(), "(S14)"),
        (Fixture::pmtds_2reach(), "(S13)"),
        (Fixture::open_head_path2_chain_keyed(), "(S123)"),
    ] {
        let (db, _, deltas) = fixture.instance(SEEDS[0]);
        let alone: Vec<Pmtd> = fixture
            .pmtds
            .iter()
            .filter(|p| p.summary() == cheapest)
            .cloned()
            .collect();
        assert_eq!(alone.len(), 1, "{}: {cheapest} is in the set", fixture.name);
        let build = |pmtds: &[Pmtd]| {
            let resident = CqapIndex::build(&fixture.cqap, &db, pmtds).unwrap();
            let spilled = resident.spill(scratch_dir("set-vs-alone")).unwrap();
            [resident, spilled]
        };
        let (mut set, mut one) = (build(&fixture.pmtds), build(&alone));
        for (set, one) in set.iter_mut().zip(&mut one) {
            let backend = ["resident", "spilled"][set.is_spilled() as usize];
            let at = |phase| format!("{} × {backend} × {phase}", fixture.name);
            assert_same_index(set, one, &at("built"));
            let (ours, theirs) = (set.apply_delta(&deltas[0]), one.apply_delta(&deltas[0]));
            assert_eq!(ours.unwrap(), theirs.unwrap());
            assert_same_index(set, one, &at("after a delta"));
        }
    }
}

fn assert_same_index(set: &CqapIndex, alone: &CqapIndex, at: &str) {
    assert!(alone.space_used() > 0, "{at}: no S-view row to compare");
    assert_eq!(set.space_used(), alone.space_used(), "{at}: S-view space");
    let counts = set.support_counts().eq(alone.support_counts());
    assert!(counts, "{at}: support counts");
    let (ours, theirs) = (
        set.maintenance().atom_indexes(),
        alone.maintenance().atom_indexes(),
    );
    assert!(ours.entries().eq(theirs.entries()), "{at}: atom indexes");
    assert_eq!(set.disk_bytes(), alone.disk_bytes(), "{at}: spilled bytes");
}
