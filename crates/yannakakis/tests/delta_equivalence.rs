//! Property test: incremental maintenance is *exactly* a rebuild.
//!
//! Across randomized databases and randomized insert/delete streams —
//! including delete-then-reinsert, inserts of already-present tuples,
//! deletes of absent tuples and entirely empty batches — a [`CqapIndex`]
//! maintained in place through the [`ApplyDelta`] seam must answer
//! bit-for-bit identically to an index rebuilt from scratch over the
//! post-delta database — and to the naive evaluator over it — for the
//! 3-reach, 2-reach and square families of `compiled_equivalence.rs`. The maintained support counts — every
//! view's rows *and* how many full-join rows project onto each — must
//! equal the rebuild's: a join-delta row counted twice, or not at all,
//! shows here even while the answers still agree. And
//! because the compiled pipelines read the atom indexes *in place* — a
//! delta edits them bucket by bucket instead of rebuilding them — every
//! maintained index must equal `HashIndex::build` over the post-delta
//! database after every batch.
//!
//! Three fixtures cover what the reachability families do not: a self-join
//! (one stored relation under two atoms, so one delta edits two index
//! slots and one join-delta row comes out of both atoms' chains), the
//! `(T1245, T234)` PMTD of Example E.8, whose access-free bag `{x2,x3,x4}`
//! is a T-view computed per request by a chain from the empty schema (or
//! from its parent's link keys) — nothing of it is folded into the plan,
//! so no delta leaves the plan stale — and a hand-written decomposition
//! with an *uncovered* bag, whose T-view joins every atom onto the whole
//! request.
//!
//! Every S-view of those families is keyed by its whole row. A fourth
//! fixture keeps more in the head than the access pattern binds, so its
//! S-views are keyed by a *proper part* of their rows (per-key chains
//! inside the counted table): `check_family` probes every such view key
//! by key against the rebuild's, as built and after every round, and
//! `a_hub_key_of_a_chain_keyed_view_is_deleted_in_one_batch` empties a
//! 1 200-row chain at once.
//!
//! A T-view under a T-parent has two seeds — the request, or the parent's
//! link keys when those are cheaper — and uniform random graphs mostly
//! exercise one. `both_seeds_agree_with_the_references` runs the plan
//! families with T-children on skewed inputs and asserts, from
//! `cqap_panda::instrument`, that each family took both sides.

use cqap_common::{vars, Tuple, VarSet};
use cqap_decomp::families as pmtd_families;
use cqap_decomp::{Pmtd, TreeDecomposition};
use cqap_delta::{ApplyDelta, DeltaBatch};
use cqap_panda::{instrument, AtomIndexCache, CqapIndex};
use cqap_query::families::k_path_distinct;
use cqap_query::workload::{graph_pair_requests, zipf_multi_requests, Graph};
use cqap_query::{AccessRequest, Atom, ConjunctiveQuery, Cqap};
use cqap_relation::{Database, HashIndex, Relation, Schema};
use cqap_yannakakis::{naive_answer, ColumnRun, PreprocessedViews, SViewProbe};
use proptest::prelude::*;

/// The chain base vertex for inserted tuples: far outside any generated
/// graph, so chain inserts are guaranteed fresh.
fn chain_base(seed: u64) -> u64 {
    10_000 + (seed % 97) * 10
}

/// One update batch, generated against the *current* database state so
/// the intended no-op / cancellation structure actually holds:
///
/// * round 0 — inserts a fresh "chain" tuple per atom into that atom's
///   relation (for a path query this creates brand-new answers) and
///   deletes a few existing tuples per relation;
/// * round 1 — delete-then-reinsert of an existing tuple (nets out),
///   an insert of an already-present tuple and a delete of an absent
///   tuple (both no-ops), plus one real insert;
/// * round 2 — an entirely empty batch;
/// * round 3 — deletes the chain inserted in round 0 (removing the
///   answers it created).
fn make_batch(round: usize, cqap: &Cqap, db: &Database, seed: u64) -> DeltaBatch {
    let names: Vec<String> = db.relations().iter().map(|r| r.name().to_string()).collect();
    // Chain edge `i` goes into atom `i`'s relation: one relation per atom
    // for the reachability families, the same relation twice for a
    // self-join.
    let chain: Vec<(String, Tuple)> = cqap
        .cq()
        .atoms()
        .iter()
        .enumerate()
        .map(|(i, atom)| {
            let from = chain_base(seed) + i as u64;
            (atom.relation.clone(), Tuple::pair(from, from + 1))
        })
        .collect();
    let base = chain_base(seed);
    match round {
        0 => {
            let mut batch = DeltaBatch::new();
            for (name, edge) in &chain {
                batch = batch.insert(name.clone(), vec![edge.clone()]);
            }
            for name in &names {
                let victims: Vec<Tuple> = db
                    .relation(name)
                    .unwrap()
                    .tuples()
                    .iter()
                    .skip(seed as usize % 3)
                    .step_by(5)
                    .take(3)
                    .cloned()
                    .collect();
                batch = batch.delete(name.clone(), victims);
            }
            batch
        }
        1 => {
            let mut batch = DeltaBatch::new();
            let first_rel = &names[0];
            if let Some(t) = db.relation(first_rel).unwrap().tuples().first().cloned() {
                // Cancels out entirely…
                batch = batch
                    .delete(first_rel.clone(), vec![t.clone()])
                    .insert(first_rel.clone(), vec![t.clone()]);
                // …and inserting a present tuple is a no-op.
                batch = batch.insert(first_rel.clone(), vec![t]);
            }
            // Deleting an absent tuple is a no-op.
            batch = batch.delete(first_rel.clone(), vec![Tuple::pair(999_983, 999_983)]);
            // One real change so the batch is not a pure no-op.
            batch.insert(
                names[names.len() - 1].clone(),
                vec![Tuple::pair(base + 50, base + 51)],
            )
        }
        2 => DeltaBatch::new(),
        _ => {
            let mut batch = DeltaBatch::new();
            for (name, edge) in chain {
                batch = batch.delete(name, vec![edge]);
            }
            batch
        }
    }
}

/// Every in-place-maintained atom index must be what a fresh build over
/// `db` produces: same keys, same bucket sets (`HashIndex` equality).
fn assert_atom_indexes_match_rebuild(maintained: &AtomIndexCache, db: &Database, context: &str) {
    let mut checked = 0;
    for (relation, vars, index) in maintained.entries() {
        let stored = db.relation(relation).expect("atom relation is stored");
        let renamed = Relation::from_tuples(
            relation.to_string(),
            Schema::new(vars.to_vec()).unwrap(),
            stored.iter().cloned(),
        )
        .unwrap();
        let rebuilt = HashIndex::build(&renamed, index.key_vars()).unwrap();
        assert!(
            *index == rebuilt,
            "{context}: maintained index of {relation}{vars:?} on {} diverged from a rebuild \
             ({} tuples / {} keys maintained, {} / {} rebuilt)",
            index.key_vars(),
            index.len(),
            index.num_keys(),
            rebuilt.len(),
            rebuilt.num_keys(),
        );
        checked += 1;
    }
    assert!(checked > 0, "{context}: the index keeps no atom indexes to check");
}

/// The pair `(u, v)` as a binding of the access pattern: both endpoints
/// for the reachability families, the source alone where the access
/// pattern is one variable.
fn binding(cqap: &Cqap, (u, v): (u64, u64)) -> Tuple {
    Tuple::from_slice(&[u, v][..cqap.access().len()])
}

fn requests_for(cqap: &Cqap, graph: &Graph, seed: u64) -> Vec<AccessRequest> {
    let mut requests: Vec<AccessRequest> = graph_pair_requests(graph, 6, seed)
        .into_iter()
        .map(|pair| AccessRequest::new(cqap.access(), vec![binding(cqap, pair)]).unwrap())
        .collect();
    for tuples in zipf_multi_requests(graph, 2, 5, 1.1, seed ^ 0xfeed) {
        let tuples: Vec<Tuple> = tuples.into_iter().map(|pair| binding(cqap, pair)).collect();
        requests.push(AccessRequest::new(cqap.access(), tuples).unwrap());
    }
    requests
}

/// Probes every S-view of `index` whose link is a proper part of its row
/// — the views the counted table serves through per-key chains — key by
/// key against `reference`'s: the same block of rows per link key, and no
/// block for a key the reference does not hold. Returns how many such
/// views there were.
fn chain_keyed_views_served(index: &CqapIndex, reference: &CqapIndex, when: &str) -> usize {
    let mut served = 0;
    for ((_, views), (_, expected)) in index.plans().zip(reference.plans()) {
        for ((node, run), (_, expected_run)) in views.runs().zip(expected.runs()) {
            let link = run.link();
            if link.is_empty() || link == run.schema().varset() {
                continue;
            }
            served += 1;
            let positions = run.schema().positions_of_set(link).unwrap();
            let block_of = |views: &PreprocessedViews, key: &Tuple| {
                let mut block = ColumnRun::new();
                block.reset(run.schema().arity());
                views.probe_columns(node, key, &mut block).unwrap();
                let mut row = Vec::new();
                let mut rows: Vec<Vec<u64>> = (0..block.rows())
                    .map(|r| {
                        block.row_into(r, &mut row);
                        row.clone()
                    })
                    .collect();
                rows.sort_unstable();
                rows
            };
            for row in expected_run.rows().chain(run.rows()) {
                let key = Tuple::from_slice(row).project(&positions);
                let block = block_of(views, &key);
                assert_eq!(block, block_of(expected, &key), "{when}: node {node}, key {key:?}");
                assert_eq!(views.contains(node, &key).unwrap(), !block.is_empty());
                assert_eq!(block.contains(&row.to_vec()), run.contains(row));
            }
        }
    }
    served
}

/// Runs four update rounds, comparing the incrementally maintained index
/// against a fresh rebuild over the reference database after each round.
/// Returns the fewest chain-keyed S-views (see
/// [`chain_keyed_views_served`]) any phase served — as built, or after a
/// round.
fn check_family(
    cqap: &Cqap,
    pmtds: &[cqap_decomp::Pmtd],
    db: &Database,
    graph: &Graph,
    seed: u64,
) -> usize {
    let mut requests = requests_for(cqap, graph, seed ^ 0xde17a);
    // A request that crosses the inserted chain: its answer appears in
    // round 0 and disappears again in round 3.
    let base = chain_base(seed);
    let crossing = binding(cqap, (base, base + cqap.cq().atoms().len() as u64));
    requests.push(AccessRequest::new(cqap.access(), vec![crossing]).unwrap());

    let mut incremental = CqapIndex::build(cqap, db, pmtds).unwrap();
    let as_built = CqapIndex::build(cqap, db, pmtds).unwrap();
    let mut chain_keyed = chain_keyed_views_served(&incremental, &as_built, "as built");
    let mut reference_db = db.clone();
    for round in 0..4 {
        let batch = make_batch(round, cqap, &reference_db, seed);
        let inc_stats = incremental.apply_delta(&batch).unwrap();
        let ref_stats = reference_db.apply_delta(&batch).unwrap();
        assert_eq!(
            inc_stats, ref_stats,
            "round {round}: index and reference database disagree on the net effect"
        );
        assert_atom_indexes_match_rebuild(
            incremental.maintenance().atom_indexes(),
            &reference_db,
            &format!("round {round}"),
        );
        let rebuilt = CqapIndex::build(cqap, &reference_db, pmtds).unwrap();
        assert_eq!(
            incremental.space_used(),
            rebuilt.space_used(),
            "round {round}: incremental S-view space diverged from a rebuild"
        );
        assert!(
            incremental.support_counts().eq(rebuilt.support_counts()),
            "round {round}: maintained support counts diverged from a rebuild"
        );
        let served = chain_keyed_views_served(&incremental, &rebuilt, &format!("round {round}"));
        chain_keyed = chain_keyed.min(served);
        for request in &requests {
            let expected = rebuilt.answer(request).unwrap();
            assert_eq!(
                naive_answer(cqap, &reference_db, request).unwrap(),
                expected,
                "round {round}: rebuilt answer diverged from the naive oracle"
            );
            assert_eq!(
                incremental.answer(request).unwrap(),
                expected,
                "round {round}: engine answer diverged from rebuild"
            );
        }
    }
    chain_keyed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// All five 3-reachability PMTDs under random insert/delete streams.
    #[test]
    fn three_reach_delta_equivalence(seed in 0u64..10_000, edges in 50usize..180) {
        let (cqap, pmtds) = pmtd_families::pmtds_3reach_all().unwrap();
        let graph = Graph::random(35, edges, seed);
        let db = graph.as_path_database(3);
        check_family(&cqap, &pmtds, &db, &graph, seed);
    }

    /// 2-reachability: a different access pattern and bag structure.
    #[test]
    fn two_reach_delta_equivalence(seed in 0u64..10_000, edges in 40usize..160) {
        let (cqap, pmtds) = pmtd_families::pmtds_2reach().unwrap();
        let graph = Graph::random(30, edges, seed);
        let db = graph.as_path_database(2);
        check_family(&cqap, &pmtds, &db, &graph, seed);
    }

    /// The square (cyclic) query: four atoms over one edge relation.
    #[test]
    fn square_delta_equivalence(seed in 0u64..10_000, edges in 40usize..120) {
        let (cqap, pmtds) = pmtd_families::pmtds_square().unwrap();
        let graph = Graph::random(22, edges, seed);
        let mut db = Database::new();
        for i in 1..=4 {
            db.add_relation(Relation::binary(
                format!("R{i}"),
                0,
                1,
                graph.edges.iter().copied(),
            ))
            .unwrap();
        }
        check_family(&cqap, &pmtds, &db, &graph, seed);
    }

    /// Chain-keyed S-views: `S23` probed by `x2`, `S123` by `x1` — the
    /// counted tables serve them through per-key chains, as built and
    /// after every delta round.
    #[test]
    fn chain_keyed_view_delta_equivalence(seed in 0u64..10_000, edges in 40usize..160) {
        let (cqap, pmtds) = open_head_2path();
        let graph = Graph::random(30, edges, seed);
        let db = graph.as_path_database(2);
        let chain_keyed = check_family(&cqap, &pmtds, &db, &graph, seed);
        prop_assert_eq!(chain_keyed, 2, "S23 and S123 are keyed by a proper part of their rows");
    }

    /// A self-join: the 2-path query over *one* edge relation, so every
    /// delta on `E` must edit the index slots of both atoms.
    #[test]
    fn self_join_delta_equivalence(seed in 0u64..10_000, edges in 40usize..160) {
        let (cqap, pmtds) = self_join_2path();
        let graph = Graph::random(30, edges, seed);
        let mut db = Database::new();
        db.add_relation(Relation::binary("E", 0, 1, graph.edges.iter().copied())).unwrap();
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let on_e = index
            .maintenance()
            .atom_indexes()
            .entries()
            .filter(|(relation, _, _)| *relation == "E")
            .map(|(_, vars, _)| vars.to_vec())
            .collect::<std::collections::BTreeSet<_>>();
        prop_assert_eq!(on_e.len(), 2, "both atoms of the self-join keep indexes over E");
        check_family(&cqap, &pmtds, &db, &graph, seed);
    }

    /// `(T1245, T234)` of Example E.8 on its own (every PMTD answers
    /// completely, so beside others a wrong plan would hide in the union):
    /// the bag `{x2,x3,x4}` holds no access variable, and its T-view is
    /// joined per request from the live `R2` / `R3` indexes.
    #[test]
    fn access_free_bag_delta_equivalence(seed in 0u64..10_000, edges in 40usize..110) {
        let (cqap, pmtds) = access_free_bag_pmtds();
        let graph = Graph::random(24, edges, seed);
        let db = graph.as_path_database(4);
        check_family(&cqap, &pmtds[..1], &db, &graph, seed);
    }

    /// An uncovered bag: the root `{x1,x3,x5}` holds no atom, so its T-view
    /// is the chain over all four atoms seeded by the whole request and
    /// projected onto the bag; it reads the live atom indexes, so no delta
    /// leaves it stale. That the fixture reaches that program shows in the
    /// index slots: only a chain seeded by `x1` *and* `x5` closes on
    /// `R4(x4,x5)` with both variables bound (the delta chains and the two
    /// covered bags key `R4` on one).
    #[test]
    fn uncovered_bag_delta_equivalence(seed in 0u64..10_000, edges in 40usize..110) {
        let (cqap, pmtds) = uncovered_bag_pmtds(VarSet::from_iter([0, 4]));
        let graph = Graph::random(24, edges, seed);
        let db = graph.as_path_database(4);
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let r4_keys: Vec<VarSet> = index
            .maintenance()
            .atom_indexes()
            .entries()
            .filter(|(relation, _, _)| *relation == "R4")
            .map(|(_, _, index)| index.key_vars())
            .collect();
        prop_assert!(r4_keys.contains(&VarSet::from_iter([3, 4])), "R4 is keyed on {:?}", r4_keys);
        check_family(&cqap, &pmtds, &db, &graph, seed);
    }
}

/// `Q(x1, x3 | x1, x3) :- E(x1, x2), E(x2, x3)` with the two PMTDs of the
/// 2-reachability family: the online-only `(T123)` (which joins both atoms
/// through their indexes on every request) and the materialized `(S13)`.
fn self_join_2path() -> (Cqap, Vec<Pmtd>) {
    let atoms = vec![
        Atom::new("E", vec![0, 1]).unwrap(),
        Atom::new("E", vec![1, 2]).unwrap(),
    ];
    let cq = ConjunctiveQuery::new("self_join", 3, atoms, VarSet::from_iter([0, 2])).unwrap();
    let cqap = Cqap::new(cq, VarSet::from_iter([0, 2])).unwrap();
    let td = TreeDecomposition::single(vars![1, 2, 3]);
    let pmtds = vec![
        Pmtd::for_cqap(td.clone(), [], &cqap).unwrap(),
        Pmtd::for_cqap(td, [0], &cqap).unwrap(),
    ];
    (cqap, pmtds)
}

/// `Q(x1, x2, x3 | x1) :- R1(x1, x2), R2(x2, x3)` — every 2-path out of a
/// source, the head keeping more than the access pattern binds — under
/// the online-only `(T12, T23)`, `(T12, S23)` whose S-view `(x2, x3)` is
/// probed by `x2` alone, and the single bag `(S123)`, probed by `x1`.
fn open_head_2path() -> (Cqap, Vec<Pmtd>) {
    let atoms = vec![
        Atom::new("R1", vec![0, 1]).unwrap(),
        Atom::new("R2", vec![1, 2]).unwrap(),
    ];
    let head = VarSet::from_iter([0, 1, 2]);
    let cq = ConjunctiveQuery::new("open_head_2path", 3, atoms, head).unwrap();
    let cqap = Cqap::new(cq, VarSet::from_iter([0])).unwrap();
    let two = TreeDecomposition::new(vec![vars![1, 2], vars![2, 3]], vec![None, Some(0)], 0).unwrap();
    let pmtds = vec![
        Pmtd::for_cqap(two.clone(), [], &cqap).unwrap(),
        Pmtd::for_cqap(two, [1], &cqap).unwrap(),
        Pmtd::for_cqap(TreeDecomposition::single(vars![1, 2, 3]), [0], &cqap).unwrap(),
    ];
    (cqap, pmtds)
}

/// A hub key of a chain-keyed view, deleted whole: sources 0 and 1 each
/// reach 40 midpoints with 30 targets apiece, so `S123` (probed by `x1`)
/// holds two chains of 1 200 rows — one full-join row each — and `S23`
/// (probed by `x2`) 40 chains of 30 rows supported twice. One batch
/// deletes every `R1` tuple: 2 400 `ΔJ⁻` rows empty both views, take the
/// first support of every `S23` row before its second, and must leave what
/// a rebuild over the empty join leaves — no row, no key, no capacity.
#[test]
fn a_hub_key_of_a_chain_keyed_view_is_deleted_in_one_batch() {
    let (cqap, pmtds) = open_head_2path();
    let sources = (0..2u64).flat_map(|u| (0..40u64).map(move |mid| (u, 100 + mid)));
    let targets = (0..40u64).flat_map(|mid| (0..30u64).map(move |t| (100 + mid, 1_000 + t)));
    let mut db = Database::new();
    db.add_relation(Relation::binary("R1", 0, 1, sources.clone())).unwrap();
    db.add_relation(Relation::binary("R2", 0, 1, targets)).unwrap();
    let mut index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    let hub = AccessRequest::single(cqap.access(), &[0]).unwrap();
    let check = |index: &CqapIndex, rows: usize| {
        let expected = naive_answer(&cqap, index.database(), &hub).unwrap();
        assert_eq!(expected.len(), rows);
        assert_eq!(index.answer(&hub).unwrap(), expected, "engine");
    };
    check(&index, 1_200);
    let (_, s123) = index.plans().nth(2).unwrap();
    assert_eq!(s123.stored_values(), 3 * 2_400);
    assert!(s123.contains(0, &Tuple::from_slice(&[0])).unwrap());
    let held = index.resident_bytes();
    assert!(held > 8 * index.space_used());

    let gone: Vec<Tuple> = sources.map(|(u, mid)| Tuple::pair(u, mid)).collect();
    let batch = DeltaBatch::new().delete("R1", gone);
    let stats = index.apply_delta(&batch).unwrap();
    assert_eq!((stats.inserted, stats.deleted), (0, 80));
    db.apply_delta(&batch).unwrap();
    let rebuilt = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    assert_eq!(index.space_used(), 0);
    assert!(index.support_counts().eq(rebuilt.support_counts()), "maintained == rebuilt");
    assert_eq!(chain_keyed_views_served(&index, &rebuilt, "emptied"), 2);
    for (_, views) in index.plans() {
        for (node, run) in views.runs() {
            assert!(!views.contains(node, &Tuple::from_slice(&[0])).unwrap());
            assert!(!views.contains(node, &Tuple::from_slice(&[100])).unwrap());
            assert!(
                run.heap_bytes() <= 2_048,
                "emptied view {node} still holds {} of {held} bytes",
                run.heap_bytes()
            );
        }
    }
    check(&index, 0);
}

/// The two PMTDs of the 4-reachability set (Example E.8) built on the
/// decomposition `{x1,x2,x4,x5} → {x2,x3,x4}` — `(T1245, T234)` first —
/// plus the fully materialized `(S15)`.
fn access_free_bag_pmtds() -> (Cqap, Vec<Pmtd>) {
    let (cqap, all) = pmtd_families::pmtds_4reach().unwrap();
    let pmtds: Vec<Pmtd> = all
        .into_iter()
        .filter(|p| ["(T1245, T234)", "(T1245, S24)", "(S15)"].contains(&p.summary().as_str()))
        .collect();
    assert_eq!(pmtds.len(), 3);
    (cqap, pmtds)
}

/// The 4-path query under `access` (head `{x1,x5}`) on the hand-written
/// decomposition `{x1,x3,x5} → {x1,x2,x3}, {x3,x4,x5}`, nothing
/// materialized. No atom lies inside the root bag and the access pattern
/// never contains `x3`, so the root is not covered by its atoms plus the
/// access pattern: its T-view program joins every atom onto the whole
/// request and projects onto the bag.
fn uncovered_bag_pmtds(access: VarSet) -> (Cqap, Vec<Pmtd>) {
    let cqap = Cqap::new(k_path_distinct(4).cq().clone(), access).unwrap();
    let td = TreeDecomposition::new(
        vec![vars![1, 3, 5], vars![1, 2, 3], vars![3, 4, 5]],
        vec![None, Some(0), Some(0)],
        0,
    )
    .unwrap();
    let pmtds = vec![Pmtd::for_cqap(td, [], &cqap).unwrap()];
    (cqap, pmtds)
}

/// An uncovered bag under an empty access pattern: the all-atoms chain is
/// seeded by the one empty request row and streams the whole join (its
/// first step probes an index keyed on no variable): engine and naive
/// oracle must agree on it, before and after a delta that changes the
/// join.
#[test]
fn uncovered_bag_with_empty_access_pattern_matches_the_references() {
    let (cqap, pmtds) = uncovered_bag_pmtds(VarSet::EMPTY);
    let graph = Graph::random(20, 70, 5);
    let mut index = CqapIndex::build(&cqap, &graph.as_path_database(4), &pmtds).unwrap();
    let request = AccessRequest::new(VarSet::EMPTY, vec![Tuple::empty()]).unwrap();
    let check = |index: &CqapIndex| {
        let expected = naive_answer(&cqap, index.database(), &request).unwrap();
        assert!(!expected.is_empty());
        assert_eq!(index.answer(&request).unwrap(), expected, "engine");
        expected.len()
    };
    let before = check(&index);
    let mut batch = DeltaBatch::new();
    for i in 0..4u64 {
        batch = batch.insert(format!("R{}", i + 1), vec![Tuple::pair(9_000 + i, 9_001 + i)]);
    }
    assert!(!index.apply_delta(&batch).unwrap().is_noop());
    assert_eq!(check(&index), before + 1, "the inserted chain is one new answer");
}

/// `(T1245, T234)` alone under one-relation batches on each of `R1`–`R4`:
/// each batch inserts one edge of a fresh 4-path and deletes a live edge of
/// that relation, and after each every answer is the naive oracle's. The
/// access-free bag `{x2,x3,x4}` reads `R2` and `R3` through the live atom
/// indexes on every request, so there is nothing for a delta on them to
/// leave stale — the last insert completes the path, and the plan, never
/// recompiled, serves it.
#[test]
fn deltas_on_each_relation_of_an_access_free_bag_plan_match_naive() {
    let (cqap, pmtds) = access_free_bag_pmtds();
    let graph = Graph::random(24, 90, 7);
    let db = graph.as_path_database(4);
    let mut index = CqapIndex::build(&cqap, &db, &pmtds[..1]).unwrap();
    let path = AccessRequest::single(cqap.access(), &[9_000, 9_004]).unwrap();
    let mut requests = requests_for(&cqap, &graph, 7);
    requests.push(path.clone());
    let hops = [("R1", 0), ("R4", 3), ("R2", 1), ("R3", 2)];
    for (i, (relation, hop)) in hops.into_iter().enumerate() {
        let gone = db.relation(relation).unwrap().tuples()[5 * i].clone();
        let batch = DeltaBatch::new()
            .insert(relation, vec![Tuple::pair(9_000 + hop, 9_001 + hop)])
            .delete(relation, vec![gone]);
        let stats = index.apply_delta(&batch).unwrap();
        assert_eq!((stats.inserted, stats.deleted), (1, 1), "a delta on {relation}");
        for request in &requests {
            assert_eq!(
                index.answer(request).unwrap(),
                naive_answer(&cqap, index.database(), request).unwrap(),
                "after a delta on {relation}"
            );
        }
    }
    assert_eq!(index.answer(&path).unwrap().len(), 1, "9 000 → … → 9 004");
}

/// naive ≡ engine on `requests`, as built and after `batch`,
/// with the engine's two-seeded T-view programs having run from the
/// request *and* from their parent's link keys.
fn check_both_seeds(
    what: &str,
    cqap: &Cqap,
    pmtds: &[Pmtd],
    db: &Database,
    requests: &[AccessRequest],
    batch: &DeltaBatch,
) {
    let mut index = CqapIndex::build(cqap, db, pmtds).unwrap();
    let check = |index: &CqapIndex, when: &str| {
        let sides = (instrument::request_side_programs(), instrument::parent_side_programs());
        for request in requests {
            let expected = naive_answer(cqap, index.database(), request).unwrap();
            assert_eq!(index.answer(request).unwrap(), expected, "{what}, {when}: engine");
        }
        let from_request = instrument::request_side_programs() - sides.0;
        let from_parent = instrument::parent_side_programs() - sides.1;
        assert!(
            from_request > 0 && from_parent > 0,
            "{what}, {when}: {from_request} program runs from the request, {from_parent} from \
             the parent — a harness that never reaches a side proves nothing about it"
        );
    };
    check(&index, "as built");
    assert!(!index.apply_delta(batch).unwrap().is_noop());
    check(&index, "after the delta");
}

/// `requests`, then each of them again with `nowhere`, a binding with no
/// answer, added. The union of a Boolean-given-access CQAP stops once
/// every binding is answered — here mostly after a plan without the
/// two-seeded programs — so only a request with an unanswered binding
/// runs those programs over its other bindings.
fn and_with_a_miss(mut requests: Vec<AccessRequest>, nowhere: Tuple) -> Vec<AccessRequest> {
    let missed: Vec<AccessRequest> = requests
        .iter()
        .map(|request| {
            let tuples = request.tuples().iter().cloned().chain([nowhere.clone()]).collect();
            AccessRequest::new(request.access(), tuples).unwrap()
        })
        .collect();
    requests.extend(missed);
    requests
}

/// Single-tuple, multi-tuple and duplicate-binding requests over a graph's
/// endpoints (raw zipf ids: the hubs of a skewed graph are its low ids),
/// each also with a binding off the graph ([`and_with_a_miss`]).
fn mixed_requests(cqap: &Cqap, graph: &Graph, seed: u64) -> Vec<AccessRequest> {
    let mut requests = requests_for(cqap, graph, seed);
    let pairs = graph_pair_requests(graph, 14, seed ^ 0xd0b1e);
    requests.extend(
        pairs[6..]
            .iter()
            .map(|&(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap()),
    );
    // One tuple twice, and a second binding of the same `x1`.
    for w in pairs[..6].windows(2) {
        let ((u, v), (_, other)) = (w[0], w[1]);
        let tuples = vec![Tuple::pair(u, v), Tuple::pair(u, v), Tuple::pair(u, other)];
        requests.push(AccessRequest::new(cqap.access(), tuples).unwrap());
    }
    let off = graph.num_vertices as u64;
    and_with_a_miss(requests, binding(cqap, (off, off)))
}

/// The families whose plans hold a T-view under a T-parent, on skewed
/// inputs: the five 3-reachability PMTDs (a plan and its mirror), the
/// eleven of Example E.8, and the hierarchical set of Appendix F (an
/// uncovered 5-variable root seeding two T-children).
#[test]
fn both_seeds_agree_with_the_references() {
    for seed in [3, 11] {
        let graph = Graph::skewed(45, 210, 3, 30, seed);

        let (cqap, pmtds) = pmtd_families::pmtds_3reach_all().unwrap();
        let db = graph.as_path_database(3);
        let requests = mixed_requests(&cqap, &graph, seed);
        let batch = make_batch(0, &cqap, &db, seed);
        check_both_seeds("3-reach", &cqap, &pmtds, &db, &requests, &batch);

        let (cqap, pmtds) = pmtd_families::pmtds_4reach().unwrap();
        assert_eq!(pmtds.len(), 11);
        let db = graph.as_path_database(4);
        let requests = mixed_requests(&cqap, &graph, seed);
        let batch = make_batch(0, &cqap, &db, seed);
        check_both_seeds("4-reach", &cqap, &pmtds, &db, &requests, &batch);

        // R(x,y1,z1), S(x,y1,z2), T(x,y2,z3), U(x,y2,z4) over small
        // domains, three quarters full: most bindings of Z keep several
        // `x` (the request is the cheaper seed), while a binding of the
        // value 4, which no relation holds, empties the root (the parent
        // is).
        let (cqap, pmtds) = pmtd_families::pmtds_hierarchical().unwrap();
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            let atom = cqap.cq().atoms().iter().find(|a| a.relation == name).unwrap();
            let cells = (0..6).flat_map(|x| (0..3).flat_map(move |y| (0..4).map(move |z| [x, y, z])));
            let tuples: Vec<Tuple> = cells
                .filter(|_| next(4) > 0)
                .map(|cell| Tuple::from_slice(&cell))
                .collect();
            let schema = Schema::new((0..atom.arity()).collect()).unwrap();
            db.add_relation(Relation::from_tuples(name, schema, tuples).unwrap()).unwrap();
        }
        let binding = |next: &mut dyn FnMut(u64) -> u64| {
            Tuple::from_slice(&[next(5), next(5), next(5), next(5)])
        };
        let mut requests = Vec::new();
        for i in 0..24 {
            let mut tuples = vec![binding(&mut next)];
            if i % 3 == 1 {
                tuples.push(tuples[0].clone());
                tuples.push(binding(&mut next));
            }
            requests.push(AccessRequest::new(cqap.access(), tuples).unwrap());
        }
        let requests = and_with_a_miss(requests, Tuple::from_slice(&[4, 4, 4, 4]));
        let gone: Vec<Tuple> = db.relation("S").unwrap().tuples().iter().step_by(7).cloned().collect();
        let batch = DeltaBatch::new()
            .delete("S", gone)
            .insert("R", vec![Tuple::from_slice(&[7, 1, 4])])
            .insert("T", vec![Tuple::from_slice(&[7, 2, 2]), Tuple::from_slice(&[2, 0, 4])]);
        check_both_seeds("hierarchical", &cqap, &pmtds, &db, &requests, &batch);
    }
}
