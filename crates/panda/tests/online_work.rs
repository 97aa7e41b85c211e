//! The paper's online time `T` on the framework driver, counted once
//! (`cqap_common::work`) where the columnar engine calls the `SViewProbe`
//! seam: one probe per distinct key a `probe_columns` call asks for plus
//! the rows it returns as scans, one probe per semijoin `contains`, the
//! request's tuples as scans, and the join chains' own lookups and rows.
//! Counting at the seam rather than inside a backend makes the in-memory
//! and the on-disk index report the same `T` by construction — what these
//! tests hold them to. Exact and machine-independent: no timing.
//!
//! The same counts are the only witness of the framework union's stop
//! rule: at `S = ∞` every plan alone answers the CQAP completely, so the
//! answer-equivalence tests cannot see a union that stops too early —
//! only what it costs shows which plans ran.

use cqap_common::{vars, work, FxHashMap, FxHashSet, Tuple, Val};
use cqap_decomp::families::pmtds_3reach_fig1;
use cqap_decomp::{Pmtd, TreeDecomposition};
use cqap_panda::CqapIndex;
use cqap_query::workload::{graph_pair_requests, Graph};
use cqap_query::{AccessRequest, Atom, ConjunctiveQuery, Cqap};
use cqap_relation::{Database, Relation};
use cqap_store::scratch_dir;
use cqap_yannakakis::naive_answer;

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

/// `φ(x1, x2, x3 | x1) ← R1(x1, x2) ∧ R2(x2, x3)` — not Boolean given its
/// access pattern — and two PMTDs over its path decomposition
/// `{x1,x2} → {x2,x3}`: `(S12, S23)`, both bags stored, and `(T12, T23)`,
/// nothing stored.
fn path2() -> (Cqap, Vec<Pmtd>) {
    let atoms = vec![Atom::new("R1", vec![0, 1]).unwrap(), Atom::new("R2", vec![1, 2]).unwrap()];
    let cq = ConjunctiveQuery::new("path2", 3, atoms, vars![1, 2, 3]).unwrap();
    let cqap = Cqap::new(cq, vars![1]).unwrap();
    let td = TreeDecomposition::path(vec![vars![1, 2], vars![2, 3]]).unwrap();
    let stored = Pmtd::for_cqap(td.clone(), [0, 1], &cqap).unwrap();
    let online = Pmtd::for_cqap(td, [], &cqap).unwrap();
    (cqap, vec![stored, online])
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
        let cold = hot.spill(scratch_dir("online-work")).unwrap();
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
    let (cqap, stored) = path2();
    let pmtd = stored[0].clone();
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
    let cold = hot.spill(scratch_dir("online-work-keys")).unwrap();
    let requests = std::slice::from_ref(&request);
    let (hot_t, hot_answers) = work_of(requests, |r| hot.answer(r).unwrap());
    let (cold_t, cold_answers) = work_of(requests, |r| cold.answer(r).unwrap());
    assert_eq!(hot_answers, cold_answers);
    assert!(!hot_answers[0].is_empty());
    assert_eq!(hot_t, (probes as u64, scans as u64), "one probe per distinct key");
    assert_eq!(cold_t, hot_t);
}

/// The in-memory index over `pmtds` and its disk spill.
fn both_backends(cqap: &Cqap, db: &Database, pmtds: &[Pmtd]) -> [CqapIndex; 2] {
    let hot = CqapIndex::build(cqap, db, pmtds).unwrap();
    let cold = hot.spill(scratch_dir("online-work-stop")).unwrap();
    [hot, cold]
}

/// Holds the union over `pmtds` to its stop rule in exact counts, on both
/// backends: each `(request, runs)` costs exactly what the first `runs`
/// plans of `order` cost as single-plan indexes, and answers what
/// `naive_answer` does.
fn check_union_cost(
    cqap: &Cqap,
    db: &Database,
    pmtds: &[Pmtd],
    order: &[usize],
    requests: &[(AccessRequest, usize)],
) {
    let union = both_backends(cqap, db, pmtds);
    let alone: Vec<_> = order.iter().map(|&i| both_backends(cqap, db, &pmtds[i..=i])).collect();
    for backend in 0..2 {
        for (request, runs) in requests {
            let request = std::slice::from_ref(request);
            let (t, answers) = work_of(request, |r| union[backend].answer(r).unwrap());
            let expected = alone[..*runs].iter().fold((0, 0), |(probes, scans), plan| {
                let (t, _) = work_of(request, |r| plan[backend].answer(r).unwrap());
                (probes + t.0, scans + t.1)
            });
            let what = format!("backend {backend}, {} binding(s)", request[0].len());
            assert_eq!(t, expected, "{what}: (probes, scans) of the first {runs} plan(s)");
            assert_eq!(answers[0], naive_answer(cqap, db, &request[0]).unwrap(), "{what}");
        }
    }
}

#[test]
fn the_boolean_union_stops_once_every_binding_is_answered() {
    // 3-reachability over the Figure-1 set, which runs `(S14)`, then
    // `(T134, S13)`, then `(T134, T123)`: a request whose bindings all
    // reach costs `(S14)` alone; one with a binding that does not, all
    // three.
    let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
    let graph = Graph::skewed(300, 2_000, 6, 120, 5);
    let db = graph.as_path_database(3);
    let pair = |&(u, v): &(Val, Val)| Tuple::pair(u, v);
    let request = |pairs: &[(Val, Val)]| {
        AccessRequest::new(cqap.access(), pairs.iter().map(pair).collect()).unwrap()
    };
    let (reached, missed): (Vec<_>, Vec<_>) = graph_pair_requests(&graph, 200, 7)
        .into_iter()
        .partition(|p| !naive_answer(&cqap, &db, &request(&[*p])).unwrap().is_empty());
    assert!(reached.len() >= 8 && missed.len() >= 8, "{} reached", reached.len());

    let mut requests: Vec<(AccessRequest, usize)> = Vec::new();
    requests.extend(reached.iter().map(|p| (request(&[*p]), 1)));
    requests.extend(missed.iter().map(|p| (request(&[*p]), 3)));
    requests.extend(reached.chunks_exact(8).map(|chunk| (request(chunk), 1)));
    // One binding twice: seven distinct bindings, all answered.
    let repeated = [&reached[..7], &reached[..1]].concat();
    requests.push((request(&repeated), 1));
    for (i, miss) in missed.iter().take(4).enumerate() {
        let mut chunk = reached[i * 7..i * 7 + 7].to_vec();
        chunk.insert(i, *miss);
        requests.push((request(&chunk), 3));
    }
    check_union_cost(&cqap, &db, &pmtds, &[2, 1, 0], &requests);
}

#[test]
fn a_non_boolean_union_runs_every_plan() {
    // φ(x1, x2, x3 | x1): an answer tuple is not a binding, so even a
    // request answered by as many tuples as it has bindings runs both
    // plans — `(S12, S23)` first, it has no T-view.
    let (cqap, pmtds) = path2();
    let graph = Graph::random(60, 90, 11);
    let db = graph.as_path_database(2);
    let single = |x1: Val| AccessRequest::single(cqap.access(), &[x1]).unwrap();
    let mut requests: Vec<(AccessRequest, usize)> = (0..60).map(|x1| (single(x1), 2)).collect();
    for chunk in (0..60).collect::<Vec<Val>>().chunks(8) {
        let tuples = chunk.iter().map(|&x1| Tuple::from_slice(&[x1])).collect();
        requests.push((AccessRequest::new(cqap.access(), tuples).unwrap(), 2));
    }
    let as_many = requests
        .iter()
        .filter(|(request, _)| naive_answer(&cqap, &db, request).unwrap().len() == request.len());
    assert!(as_many.count() >= 3, "requests answered by one tuple per binding");
    check_union_cost(&cqap, &db, &pmtds, &[0, 1], &requests);
}
