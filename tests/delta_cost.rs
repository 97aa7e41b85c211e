//! The write path's cost contract, counted: absorbing a delta costs
//! `O(|Δ| + |ΔJ|)`, never `O(|D|)`.
//!
//! On a 20 k-edge skewed graph (the benchmark's `g20k`) a 1 + 1-tuple
//! [`ApplyDelta::apply_delta`] must move the relation layer's counters by
//! a small multiple of the join delta it causes — a handful of rows —
//! and not by the database: no atom index is rebuilt (the indexes are
//! edited in place), no plan is recompiled (a compiled plan holds no
//! database content), no relation is re-deduplicated. Before the
//! delta-proportional write path every effective batch re-indexed six
//! 20 k-tuple atom relations and re-deduplicated as many.
//!
//! The build has its contract too: it indexes each atom on each join key
//! it is probed by — `O(|D|)` — and nothing else. The full join is
//! streamed past the support counts, never held, so no index over a join
//! prefix (the oracle's `Relation::join` builds one per atom) is counted.
//!
//! Both hold for plans with an **access-free bag** too — `(T1245, T234)`
//! of Example E.8 and the Boolean triangle `(T123)` of Example E.4 — whose
//! T-views are computed per request from the live atom indexes. When such
//! a bag was joined once at compile time and folded into the plan, their
//! builds indexed the join's prefixes and every delta on a bag atom
//! re-joined the bag: a 1 + 1 `R2` batch on the 4-path cost 40 001 dedup
//! inserts and 20 000 re-indexed tuples, a 1-tuple `R` insert on the
//! triangle 60 004 and 40 002.

use cqap_suite::decomp::families::{pmtds_3reach_fig1, pmtds_4reach, pmtds_triangle};
use cqap_suite::prelude::*;
use cqap_suite::relation::instrument::{dedup_inserts, indexed_tuples};

#[test]
fn one_tuple_delta_costs_its_join_delta_not_the_database() {
    let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
    let graph = Graph::skewed(3_000, 20_000, 16, 400, 20_000);
    let db = graph.as_path_database(3);
    let database_tuples: usize = db.relations().iter().map(|r| r.len()).sum();
    assert_eq!(database_tuples, 60_000);
    let indexed_before = indexed_tuples();
    let mut index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    let slots = index.maintenance().atom_indexes().entries();
    assert_eq!(
        indexed_tuples() - indexed_before,
        slots.map(|(_, _, index)| index.len() as u64).sum::<u64>(),
        "a build indexes its atom-index slots and nothing more — no materialized join"
    );

    // All three relations hold the graph's edges, so an R2 edge (u, v)
    // sits in in(u) · out(v) rows of the full join R1 ⋈ R2 ⋈ R3.
    let mut indegree = vec![0usize; graph.num_vertices];
    let mut outdegree = vec![0usize; graph.num_vertices];
    for &(u, v) in &graph.edges {
        outdegree[u as usize] += 1;
        indegree[v as usize] += 1;
    }
    let join_rows = |(u, v): (u64, u64)| indegree[u as usize] * outdegree[v as usize];
    // Delete a live edge and insert a fresh one, each in a few (but some)
    // join rows, so the delta reaches the S-views without touching a hub.
    let modest = |edge: &(u64, u64)| (1..=40).contains(&join_rows(*edge));
    let deleted = *graph
        .edges
        .iter()
        .find(|e| modest(e))
        .expect("a light live edge");
    let inserted = (0..graph.num_vertices as u64)
        .flat_map(|u| (0..graph.num_vertices as u64).map(move |v| (u, v)))
        .find(|e| e.0 != e.1 && modest(e) && !graph.edges.contains(e))
        .expect("a light absent edge");
    let delta_j = join_rows(deleted) + join_rows(inserted);
    let batch = |gone: (u64, u64), fresh: (u64, u64)| {
        DeltaBatch::new()
            .delete("R2", vec![Tuple::pair(gone.0, gone.1)])
            .insert("R2", vec![Tuple::pair(fresh.0, fresh.1)])
    };

    let dedup_before = dedup_inserts();
    let indexed_before = indexed_tuples();
    let stats = index.apply_delta(&batch(deleted, inserted)).unwrap();
    let dedup = (dedup_inserts() - dedup_before) as usize;
    let indexed = indexed_tuples() - indexed_before;
    assert_eq!((stats.inserted, stats.deleted), (1, 1));

    assert_eq!(
        indexed, 0,
        "a delta must edit the atom indexes in place, not rebuild them"
    );
    // Per inserted tuple the stored relation's own set insert, and that is
    // all: a ΔJ row gives or takes one support in each S-view's counted
    // table (S13 and S14 here) — the view is that table, so no set insert
    // into a second copy follows — and no ΔR or ΔJ relation exists to
    // insert into.
    assert_eq!(
        dedup, 1,
        "a 1 + 1 delta with |ΔJ| = {delta_j} performed {dedup} dedup inserts"
    );
    assert!(
        (1..database_tuples / 20).contains(&delta_j),
        "|ΔJ| must be positive and far below |D| = {database_tuples} for the test to mean anything"
    );

    // The maintained index still answers exactly (spot check across the
    // edited edges), and the reverse delta is just as cheap.
    for (u, v) in [deleted, inserted] {
        for source in graph.edges.iter().filter(|e| e.1 == u).take(3) {
            for target in graph.edges.iter().filter(|e| e.0 == v).take(3) {
                let request = AccessRequest::single(cqap.access(), &[source.0, target.1]).unwrap();
                assert_eq!(
                    index.answer(&request).unwrap(),
                    naive_answer(&cqap, index.database(), &request).unwrap(),
                    "request ({},{})",
                    source.0,
                    target.1
                );
            }
        }
    }
    let (dedup_before, indexed_before) = (dedup_inserts(), indexed_tuples());
    index.apply_delta(&batch(inserted, deleted)).unwrap();
    assert_eq!(dedup_inserts() - dedup_before, 1);
    assert_eq!(indexed_tuples(), indexed_before);
}

/// Builds `pmtd`'s index over `db` and applies `batch` to it, holding both
/// to the contract above: the build indexes its atom-index slots and
/// nothing more, and the batch performs exactly one dedup insert (the
/// stored relation's own, for its one inserted tuple) and indexes nothing.
fn build_then_apply(what: &str, cqap: &Cqap, pmtd: &Pmtd, db: &Database, batch: &DeltaBatch) {
    let indexed_before = indexed_tuples();
    let mut index = CqapIndex::build(cqap, db, std::slice::from_ref(pmtd)).unwrap();
    let slots = index.maintenance().atom_indexes().entries();
    assert_eq!(
        indexed_tuples() - indexed_before,
        slots.map(|(_, _, index)| index.len() as u64).sum::<u64>(),
        "{what}: a build indexes its atom-index slots and nothing more"
    );
    assert_eq!(index.space_used(), 0, "{what}: nothing is stored");

    let (dedup_before, indexed_before) = (dedup_inserts(), indexed_tuples());
    let stats = index.apply_delta(batch).unwrap();
    assert_eq!(stats.inserted, 1, "{what}");
    assert_eq!(dedup_inserts() - dedup_before, 1, "{what}: dedup inserts of one batch");
    assert_eq!(indexed_tuples() - indexed_before, 0, "{what}: tuples indexed by one batch");
}

#[test]
fn access_free_bags_cost_their_join_delta_not_a_rejoin() {
    let graph = Graph::skewed(3_000, 20_000, 16, 400, 20_000);
    let fresh = (0..graph.num_vertices as u64)
        .map(|u| (u, u + 1))
        .find(|e| !graph.edges.contains(e))
        .expect("an absent edge");

    let (four_reach, pmtds) = pmtds_4reach().unwrap();
    let plan = pmtds.iter().find(|p| p.summary() == "(T1245, T234)").unwrap();
    let (u, v) = graph.edges[0];
    let batch = DeltaBatch::new()
        .delete("R2", vec![Tuple::pair(u, v)])
        .insert("R2", vec![Tuple::pair(fresh.0, fresh.1)]);
    build_then_apply("(T1245, T234)", &four_reach, plan, &graph.as_path_database(4), &batch);

    let (triangle, pmtds) = pmtds_triangle().unwrap();
    assert_eq!(pmtds[0].summary(), "(T123)");
    let mut db = Database::new();
    db.add_relation(Relation::binary("R", 0, 1, graph.edges.iter().copied())).unwrap();
    let batch = DeltaBatch::new().insert("R", vec![Tuple::pair(fresh.0, fresh.1)]);
    build_then_apply("Boolean (T123)", &triangle, &pmtds[0], &db, &batch);
}
