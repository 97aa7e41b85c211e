//! Cross-crate integration tests: the full pipeline from CQAP definition
//! through PMTD selection, preprocessing, and online answering, checked
//! against the naive evaluator, plus the analytic reproduction entry points.

use cqap_suite::decomp::families as pmtd_families;
use cqap_suite::panda::analysis::{
    default_sigma_grid, example_e8_4reach, figure4a_curve, goldstein_baseline, table1_3reach,
};
use cqap_suite::panda::rules::minimal_rules;
use cqap_suite::prelude::*;
use cqap_suite::query::workload::graph_pair_requests;
use cqap_suite::store::scratch_dir;
use proptest::prelude::*;

#[test]
fn three_reach_pipeline_matches_naive_on_skewed_graph() {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_all().unwrap();
    let graph = Graph::skewed(120, 600, 4, 80, 99);
    let db = graph.as_path_database(3);
    let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    for (u, v) in graph_pair_requests(&graph, 40, 17) {
        let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
        assert_eq!(
            index.answer(&request).unwrap(),
            naive_answer(&cqap, &db, &request).unwrap(),
            "request ({u},{v})"
        );
    }

    // Edge requests, on both backends: no binding at all (the union still
    // runs its first plan and answers empty, with the head's schema), and
    // a binding given twice beside one given once.
    let stored = index.spill(scratch_dir("framework-edge")).unwrap();
    let (u, v) = graph.edges[0];
    let twice = [Tuple::pair(u, v), Tuple::pair(v, u), Tuple::pair(u, v)];
    for tuples in [Vec::new(), twice.to_vec()] {
        let request = AccessRequest::new(cqap.access(), tuples).unwrap();
        let expected = naive_answer(&cqap, &db, &request).unwrap();
        assert_eq!(index.answer(&request).unwrap(), expected, "{} binding(s)", request.len());
        assert_eq!(stored.answer(&request).unwrap(), expected, "{} binding(s)", request.len());
    }
}

#[test]
fn specialized_two_reach_index_agrees_with_framework_driver() {
    let (cqap, pmtds) = pmtd_families::pmtds_2reach().unwrap();
    let graph = Graph::skewed(150, 800, 5, 90, 3);
    let db = graph.as_path_database(2);
    let driver = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    let specialized = TwoReachIndex::build(&graph, 1 << 12);
    for (u, v) in graph_pair_requests(&graph, 60, 23) {
        let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
        let framework_answer = !driver.answer(&request).unwrap().is_empty();
        assert_eq!(
            specialized.query(u, v),
            framework_answer,
            "2-reachability mismatch on ({u},{v})"
        );
    }
}

#[test]
fn specialized_square_index_agrees_with_framework_driver() {
    let (cqap, pmtds) = pmtd_families::pmtds_square().unwrap();
    let graph = Graph::random(40, 250, 31);
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
    let driver = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    let specialized = SquareIndex::build(&graph, 1 << 10);
    for (a, c) in graph_pair_requests(&graph, 40, 37) {
        let request = AccessRequest::single(cqap.access(), &[a, c]).unwrap();
        let framework_answer = !driver.answer(&request).unwrap().is_empty();
        assert_eq!(
            specialized.query(a, c),
            framework_answer,
            "square mismatch on ({a},{c})"
        );
    }
}

#[test]
fn table1_reproduces_and_figure4a_beats_baseline() {
    let (_, reports) = table1_3reach().unwrap();
    assert_eq!(reports.len(), 4);
    for report in &reports {
        assert!(report.all_verified(), "unverified claims for {}", report.label);
    }

    let curve = figure4a_curve(&default_sigma_grid()).unwrap();
    assert!(curve.is_monotone());
    let mut strictly_better = 0;
    for p in &curve.points {
        let baseline = goldstein_baseline(3, p.space);
        assert!(p.time <= baseline, "worse than baseline at σ = {}", p.space);
        if p.time < baseline {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 3,
        "expected a strict improvement over a significant part of the spectrum"
    );
}

#[test]
fn example_e8_claims_verify() {
    let (_, reports) = example_e8_4reach().unwrap();
    for report in &reports {
        assert!(report.all_verified(), "unverified claims for {}", report.label);
    }
}

#[test]
fn paper_pmtd_inventories_match() {
    let (_, fig1) = pmtd_families::pmtds_3reach_fig1().unwrap();
    assert_eq!(
        fig1.iter().map(|p| p.summary()).collect::<Vec<_>>(),
        vec!["(T134, T123)", "(T134, S13)", "(S14)"]
    );
    let (_, fig3) = pmtd_families::pmtds_3reach_all().unwrap();
    assert_eq!(fig3.len(), 5);
    let (_, e8) = pmtd_families::pmtds_4reach().unwrap();
    assert_eq!(e8.len(), 11);
    let (_, fig2) = pmtd_families::pmtds_square().unwrap();
    assert_eq!(fig2.len(), 2);

    // Rule generation on the Figure 3 set yields exactly the four Table 1
    // rules after pruning.
    assert_eq!(minimal_rules(&fig3).len(), 4);
}

#[test]
fn boolean_k_set_disjointness_end_to_end() {
    // The Boolean 2-set disjointness CQAP answered through the framework
    // driver (trivial PMTDs of Theorem 6.1) versus the specialized
    // heavy/light structure of the introduction.
    let family = SetFamily::zipf(30, 1_000, 150, 1.0, 3);
    let cqap = cqap_suite::query::families::k_set_disjointness(2);
    let pmtds = cqap_suite::decomp::enumerate::trivial_pmtds(&cqap).unwrap();
    let mut db = Database::new();
    // R(y, x): element y (variable x3) belongs to set x (variables x1/x2
    // via self-join).
    db.add_relation(family.as_relation("R", 2, 0)).unwrap();
    let driver = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    let specialized = SetDisjointnessIndex::build(&family, 256);
    for a in 0..10u64 {
        for b in [a, a + 3, a + 11] {
            let b = b % family.num_sets as u64;
            let request = AccessRequest::single(cqap.access(), &[a, b]).unwrap();
            let framework_answer = !driver.answer(&request).unwrap().is_empty();
            assert_eq!(
                specialized.intersects(a, b),
                framework_answer,
                "set pair ({a},{b})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for random graphs and random budgets, the budgeted
    /// 2-reachability index always agrees with the naive evaluator.
    #[test]
    fn prop_two_reach_index_is_correct(seed in 0u64..500, budget_exp in 0usize..18) {
        let graph = Graph::skewed(80, 400, 3, 50, seed);
        let idx = TwoReachIndex::build(&graph, 1usize << budget_exp);
        let adj = cqap_suite::indexes::kreach::Adjacency::new(&graph);
        for (u, v) in graph_pair_requests(&graph, 25, seed.wrapping_add(1)) {
            let expected = cqap_suite::indexes::kreach::k_reachable_naive(&adj, 2, u, v);
            prop_assert_eq!(idx.query(u, v), expected);
        }
    }

    /// Property: the set-disjointness index is correct for every budget.
    #[test]
    fn prop_set_disjointness_correct(seed in 0u64..500, budget in 1usize..5_000) {
        let family = SetFamily::zipf(25, 600, 120, 0.8, seed);
        let idx = SetDisjointnessIndex::build(&family, budget);
        for a in 0..25u64 {
            for b in (a..25u64).step_by(5) {
                prop_assert_eq!(idx.intersects(a, b), idx.intersects_naive(a, b));
            }
        }
    }
}
