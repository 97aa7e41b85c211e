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

    // Edge requests, on both backends: no binding at all (the plan still
    // runs and answers empty, with the head's schema), and
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
