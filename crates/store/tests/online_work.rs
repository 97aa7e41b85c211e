//! The paper's online time `T` on the framework driver, counted once
//! (`cqap_common::work`) where the columnar engine calls the `SViewProbe`
//! seam: one probe per distinct key a `probe_columns` call asks for plus
//! the rows it returns as scans, one probe per semijoin `contains`, the
//! request's tuples as scans, and the join chains' own lookups and rows.
//! Counting at the seam rather than inside a backend makes the in-memory
//! and the on-disk index report the same `T` by construction — what these
//! tests hold them to. Exact and machine-independent: no timing.

use cqap_common::{vars, work, FxHashMap, FxHashSet, Tuple, Val};
use cqap_decomp::families::pmtds_3reach_fig1;
use cqap_decomp::{Pmtd, TreeDecomposition};
use cqap_panda::CqapIndex;
use cqap_query::workload::{graph_pair_requests, Graph};
use cqap_query::{AccessRequest, Atom, ConjunctiveQuery, Cqap};
use cqap_relation::Relation;
use cqap_store::{scratch_dir, StoredIndex};

/// The `(probes, scans)` this thread spends while `answer` answers
/// `requests`, and the answers.
fn work_of(
    requests: &[AccessRequest],
    answer: impl Fn(&AccessRequest) -> Relation,
) -> ((u64, u64), Vec<Relation>) {
    let (probes, scans) = (work::probes(), work::scans());
    let answers = requests.iter().map(answer).collect();
    ((work::probes() - probes, work::scans() - scans), answers)
}

#[test]
fn hot_and_cold_backends_count_the_same_t() {
    let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
    let graph = Graph::skewed(300, 2_000, 6, 120, 5);
    let db = graph.as_path_database(3);
    let pairs = graph_pair_requests(&graph, 200, 7);
    let single = |&(u, v): &(Val, Val)| AccessRequest::single(cqap.access(), &[u, v]).unwrap();
    let mut requests: Vec<AccessRequest> = pairs.iter().map(single).collect();
    requests.extend(pairs.chunks(8).map(|chunk| {
        let tuples = chunk.iter().map(|&(u, v)| Tuple::pair(u, v)).collect();
        AccessRequest::new(cqap.access(), tuples).unwrap()
    }));
    // All three plans — T-views only, a T-view reduced by `S13`'s
    // semijoin, and the request probing `S14` — and `S14` alone, where
    // every probe is an S-view probe.
    for plans in [&pmtds[..], &pmtds[2..]] {
        let hot = CqapIndex::build(&cqap, &db, plans).unwrap();
        let cold = StoredIndex::spill(&hot, scratch_dir("online-work")).unwrap();
        let (hot_t, hot_answers) = work_of(&requests, |r| hot.answer(r).unwrap());
        let (cold_t, cold_answers) = work_of(&requests, |r| cold.answer(r).unwrap());
        assert_eq!(hot_answers, cold_answers);
        assert!(hot_t.0 > 0 && hot_t.1 > 0, "{hot_t:?}");
        assert_eq!(hot_t, cold_t, "(probes, scans) in memory and on disk");
    }
}

#[test]
fn s_view_probes_count_distinct_keys_and_the_rows_they_return() {
    // φ(x1, x2, x3 | x1) ← R1(x1, x2) ∧ R2(x2, x3), both bags of the path
    // decomposition stored: the request probes `S12` by `x1`, and every
    // row it returns probes `S23` by its `x2` — a link key all the
    // bindings reaching that `x2` share. No T-view: the engine's whole `T`
    // is S-view probes.
    let atoms = vec![Atom::new("R1", vec![0, 1]).unwrap(), Atom::new("R2", vec![1, 2]).unwrap()];
    let cq = ConjunctiveQuery::new("path2", 3, atoms, vars![1, 2, 3]).unwrap();
    let cqap = Cqap::new(cq, vars![1]).unwrap();
    let td = TreeDecomposition::path(vec![vars![1, 2], vars![2, 3]]).unwrap();
    let pmtd = Pmtd::for_cqap(td, [0, 1], &cqap).unwrap();
    let graph = Graph::skewed(60, 400, 3, 30, 11);
    let db = graph.as_path_database(2);

    let mut out: FxHashMap<Val, Vec<Val>> = FxHashMap::default();
    let mut has_in: FxHashSet<Val> = FxHashSet::default();
    for &(u, v) in &graph.edges {
        out.entry(u).or_default().push(v);
        has_in.insert(v);
    }
    // One multi-binding request: the first 30 vertices, and one no edge
    // leaves (a key the stored view does not hold is still one probe).
    let sources: Vec<Val> = (0..30).chain([1_000_000]).collect();
    let tuples = sources.iter().map(|&x1| Tuple::from_slice(&[x1])).collect();
    let request = AccessRequest::new(cqap.access(), tuples).unwrap();

    // The stored views are the full join's projections: `S12` keeps an
    // edge whose head has an out-edge, `S23` one whose tail has an in-edge.
    let s12 = |a: Val| -> Vec<Val> {
        let heads = out.get(&a).map_or(&[][..], Vec::as_slice);
        heads.iter().copied().filter(|b| out.contains_key(b)).collect()
    };
    let acc_rows: Vec<Val> = sources.iter().flat_map(|&a| s12(a)).collect();
    let links: FxHashSet<Val> = acc_rows.iter().copied().collect();
    assert!(acc_rows.len() > 2 * links.len(), "the bindings share link keys");
    let s23_rows: usize = links.iter().filter(|b| has_in.contains(b)).map(|b| out[b].len()).sum();
    let probes = sources.len() + links.len();
    let scans = request.len() + acc_rows.len() + s23_rows;

    let hot = CqapIndex::build(&cqap, &db, std::slice::from_ref(&pmtd)).unwrap();
    let cold = StoredIndex::spill(&hot, scratch_dir("online-work-keys")).unwrap();
    let requests = std::slice::from_ref(&request);
    let (hot_t, hot_answers) = work_of(requests, |r| hot.answer(r).unwrap());
    let (cold_t, cold_answers) = work_of(requests, |r| cold.answer(r).unwrap());
    assert_eq!(hot_answers, cold_answers);
    assert!(!hot_answers[0].is_empty());
    assert_eq!(hot_t, (probes as u64, scans as u64), "one probe per distinct key");
    assert_eq!(cold_t, hot_t);
}
