//! Property test: the compiled plans, executed by the columnar engine,
//! answer *exactly* like the naive from-scratch evaluator.
//!
//! Across randomized databases, every PMTD of several query families
//! (covering different access patterns, S/T mixes and tree shapes),
//! single-binding and multi-tuple requests, the engine — the compiled plan
//! over struct-of-arrays scratch, fed the ideal view contents — must be
//! bit-for-bit identical to the naive join (the oracle): compiled plans
//! are an *optimization*, never a semantics change.

use cqap_common::Tuple;
use cqap_decomp::{families as pmtd_families, Pmtd};
use cqap_query::workload::{graph_pair_requests, zipf_multi_requests, Graph};
use cqap_query::{AccessRequest, Cqap};
use cqap_relation::{Database, Relation};
use cqap_yannakakis::naive::{full_join, naive_answer};
use cqap_yannakakis::{ColumnRun, ColumnarScratch, OnlineYannakakis};
use proptest::prelude::*;

/// Checks naive ≡ engine for every PMTD of the family on every request.
/// The plan is fed the ideal view contents, projections of the full join
/// as in the paper's preprocessing contract: S-views preprocessed, T-views
/// as column runs in their own column order, which is the order the plan
/// is compiled with.
fn check_family(
    cqap: &Cqap,
    pmtds: &[Pmtd],
    db: &Database,
    requests: &[AccessRequest],
    scratch: &mut ColumnarScratch,
) {
    let full = full_join(cqap, db).unwrap();
    let naive: Vec<Relation> = requests
        .iter()
        .map(|request| naive_answer(cqap, db, request).unwrap())
        .collect();
    for pmtd in pmtds {
        let oy = OnlineYannakakis::new(pmtd.clone());
        let (mut s_views, mut t_schemas, mut t_cols) = (Vec::new(), Vec::new(), Vec::new());
        for t in 0..pmtd.td().num_nodes() {
            let rel = full.project_onto(pmtd.view_schema(t)).unwrap();
            if pmtd.is_materialized(t) {
                s_views.push((t, rel));
            } else {
                let mut run = ColumnRun::new();
                run.reset(rel.schema().arity());
                run.extend_from_tuples(rel.tuples());
                t_schemas.push((t, rel.schema().clone()));
                t_cols.push((t, run));
            }
        }
        let pre = oy.preprocess(&s_views).unwrap();
        let plan = oy.compile(&pre, &t_schemas).unwrap();
        for (request, naive) in requests.iter().zip(&naive) {
            let t_refs = t_cols.iter().map(|(n, run)| (*n, run));
            let engine = plan.answer_from_columns(&pre, t_refs, request, scratch).unwrap();
            assert_eq!(&engine, naive, "engine diverged from naive on {}", pmtd.summary());
        }
    }
}

fn requests_for(cqap: &Cqap, graph: &Graph, seed: u64) -> Vec<AccessRequest> {
    let mut requests: Vec<AccessRequest> = graph_pair_requests(graph, 8, seed)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
        .collect();
    for tuples in zipf_multi_requests(graph, 3, 5, 1.1, seed ^ 0xfeed) {
        let tuples: Vec<Tuple> = tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
        requests.push(AccessRequest::new(cqap.access(), tuples).unwrap());
    }
    // Duplicate bindings inside one request must dedup identically.
    if let Some(first) = requests.first().cloned() {
        let mut doubled = first.tuples().to_vec();
        doubled.extend_from_slice(first.tuples());
        requests.push(AccessRequest::new(cqap.access(), doubled).unwrap());
    }
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All five 3-reachability PMTDs (pure-T, mixed ST and pure-S plans
    /// over the access pattern (x1, x4)).
    #[test]
    fn three_reach_compiled_equivalence(seed in 0u64..10_000, edges in 50usize..220) {
        let (cqap, pmtds) = pmtd_families::pmtds_3reach_all().unwrap();
        let graph = Graph::random(35, edges, seed);
        let db = graph.as_path_database(3);
        let requests = requests_for(&cqap, &graph, seed ^ 0x51ed);
        let mut scratch = ColumnarScratch::new();
        check_family(&cqap, &pmtds, &db, &requests, &mut scratch);
    }

    /// 2-reachability: a different access pattern and bag structure.
    #[test]
    fn two_reach_compiled_equivalence(seed in 0u64..10_000, edges in 40usize..200) {
        let (cqap, pmtds) = pmtd_families::pmtds_2reach().unwrap();
        let graph = Graph::random(30, edges, seed);
        let db = graph.as_path_database(2);
        let requests = requests_for(&cqap, &graph, seed ^ 0x2bad);
        let mut scratch = ColumnarScratch::new();
        check_family(&cqap, &pmtds, &db, &requests, &mut scratch);
    }

    /// 4-reachability: the eleven PMTDs of Example E.8, both chain
    /// orientations, an access-free bag and the single bag.
    #[test]
    fn four_reach_compiled_equivalence(seed in 0u64..10_000, edges in 40usize..120) {
        let (cqap, pmtds) = pmtd_families::pmtds_4reach().unwrap();
        let graph = Graph::random(30, edges, seed);
        let db = graph.as_path_database(4);
        let requests = requests_for(&cqap, &graph, seed ^ 0x4eac);
        let mut scratch = ColumnarScratch::new();
        check_family(&cqap, &pmtds, &db, &requests, &mut scratch);
    }

    /// The square (cyclic) query: four atoms over one edge relation.
    #[test]
    fn square_compiled_equivalence(seed in 0u64..10_000, edges in 40usize..140) {
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
        let requests = requests_for(&cqap, &graph, seed ^ 0x4u64);
        let mut scratch = ColumnarScratch::new();
        check_family(&cqap, &pmtds, &db, &requests, &mut scratch);
    }
}
