//! Property-style integration tests for the analytic layer: the tradeoff
//! LPs, the rule generator, and the PMTD machinery, cross-checked against
//! each other and against the executable framework.

use cqap_suite::common::{Rat, VarSet};
use cqap_suite::decomp::enumerate::{all_pmtds_of, induced_pmtds, prune};
use cqap_suite::decomp::families as pmtd_families;
use cqap_suite::entropy::tradeoff::{
    combined_curve, time_exponent_at, verify_tradeoff, Stats, SymbolicTradeoff,
};
use cqap_suite::panda::rules::minimal_rules;
use cqap_suite::prelude::*;
use cqap_suite::query::families as query_families;

/// The per-rule time exponent is non-increasing in the space budget for
/// every Table 1 rule.
#[test]
fn time_exponent_monotone_in_budget() {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_all().unwrap();
    let stats = Stats::uniform_for_cqap(&cqap);
    for rule in minimal_rules(&pmtds) {
        let mut last = Rat::int(100);
        for i in 0..=8 {
            let sigma = Rat::new(i, 4);
            let tau = time_exponent_at(&rule.shape, &stats, sigma, Rat::ZERO)
                .expect("bounded online time");
            assert!(
                tau <= last,
                "rule {} not monotone at σ = {sigma}: {tau} > {last}",
                rule.label()
            );
            last = tau;
        }
        // At σ = 2 everything is materializable for 3-reachability.
        assert_eq!(last, Rat::ZERO, "rule {}", rule.label());
    }
}

/// Statistics measured from a skewed graph only add and tighten `DC` rows
/// of the uniform LP, so no rule's time exponent rises; and every measured
/// bound `|D|^{k/64}` holds on the database it was measured from.
#[test]
fn measured_statistics_never_raise_a_rule_exponent() {
    let graph = Graph::skewed(2000, 8000, 10, 300, 7);
    let fixtures = [
        pmtd_families::pmtds_2reach(),
        pmtd_families::pmtds_3reach_fig1(),
        pmtd_families::pmtds_square(),
    ];
    for (cqap, pmtds) in fixtures.map(Result::unwrap) {
        // Each relation stored over its atom's variables, so the realised
        // degrees below are read without renaming.
        let mut db = Database::new();
        for atom in cqap.cq().atoms() {
            let (a, b) = (atom.vars[0], atom.vars[1]);
            let rel = Relation::binary(atom.relation.clone(), a, b, graph.edges.clone());
            db.add_relation(rel).unwrap();
        }
        let measured = Stats::measured(&cqap, &db).unwrap();
        let ln_size = (db.size() as f64).ln();
        for c in &measured.dc {
            let realised = cqap
                .cq()
                .atoms()
                .iter()
                .filter(|atom| c.of.is_subset(atom.varset()))
                .map(|atom| db.relation(&atom.relation).unwrap().max_degree(c.on, c.of))
                .map(Result::unwrap)
                .min()
                .unwrap();
            assert!(
                (realised as f64).ln() <= c.size.d.to_f64() * ln_size + 1e-9,
                "{}: deg({} | {}) = {realised} exceeds |D|^{}",
                cqap.cq().name(),
                c.of,
                c.on,
                c.size.d
            );
        }

        let uniform = Stats::uniform_for_cqap(&cqap);
        for rule in minimal_rules(&pmtds) {
            for i in 0..=8 {
                let sigma = Rat::new(i, 4);
                let tau = |stats| time_exponent_at(&rule.shape, stats, sigma, Rat::ZERO).unwrap();
                let (m, u) = (tau(&measured), tau(&uniform));
                assert!(
                    m <= u,
                    "{} rule {} at σ = {sigma}: measured τ = {m} > uniform τ = {u}",
                    cqap.cq().name(),
                    rule.label()
                );
            }
        }
    }
}

/// Consistency between the two analytic interfaces: if a symbolic tradeoff
/// `S^w·T ≾ |D|^c` is verified for a rule, then the OBJ(σ) sweep never
/// exceeds `c − w·σ`.
#[test]
fn verified_tradeoffs_bound_the_obj_sweep() {
    let (cqap, pmtds) = pmtd_families::pmtds_3reach_all().unwrap();
    let stats = Stats::uniform_for_cqap(&cqap);
    let rules = minimal_rules(&pmtds);
    let claims = [
        SymbolicTradeoff::new(1, 2, 2, 2),
        SymbolicTradeoff::new(2, 3, 4, 3),
        SymbolicTradeoff::new(1, 1, 2, 1),
        SymbolicTradeoff::new(4, 1, 6, 1),
        SymbolicTradeoff::new(0, 1, 1, 1),
    ];
    for rule in &rules {
        for claim in &claims {
            if !verify_tradeoff(&rule.shape, &stats, claim) {
                continue;
            }
            if claim.t_exp.is_zero() {
                continue;
            }
            for i in 0..=8 {
                let sigma = Rat::new(i, 4);
                let tau = time_exponent_at(&rule.shape, &stats, sigma, Rat::ZERO).unwrap();
                // τ ≤ (c − w·σ)/v  (with |Q| = 1 the q exponent drops out).
                let bound = (claim.d_exp - claim.s_exp * sigma) / claim.t_exp;
                assert!(
                    tau <= bound.max(Rat::ZERO) || bound.is_negative(),
                    "rule {} violates verified claim {claim:?} at σ = {sigma}: τ = {tau}",
                    rule.label()
                );
            }
        }
    }
}

/// The combined 4-reachability curve (Figure 4b) never falls above the
/// 3-reachability curve shifted by the extra hop, and both are monotone.
#[test]
fn figure4_curves_are_monotone_and_ordered_at_extremes() {
    let sigmas: Vec<Rat> = (0..=4).map(|i| Rat::new(i, 2)).collect();
    let a = cqap_suite::panda::figure4a_curve(&sigmas).unwrap();
    let b = cqap_suite::panda::figure4b_curve(&sigmas).unwrap();
    assert!(a.is_monotone());
    assert!(b.is_monotone());
    assert_eq!(a.time_at(Rat::int(2)), Some(Rat::ZERO));
    assert_eq!(b.time_at(Rat::int(2)), Some(Rat::ZERO));
    // Harder query: the 4-path curve is never below the 3-path curve.
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert!(pb.time >= pa.time, "at σ = {}", pa.space);
    }
}

/// Every PMTD produced by the induced-set construction of §6.3 on the
/// Example 6.3 decomposition is valid, and pruning it yields a set that
/// answers requests correctly through the framework driver.
#[test]
fn induced_pmtd_sets_are_usable_end_to_end() {
    let cqap = query_families::k_path_distinct(4);
    let td = TreeDecomposition::path(vec![
        VarSet::from_iter([0, 1, 3, 4]),
        VarSet::from_iter([1, 2, 3]),
    ])
    .unwrap();
    let pmtds = prune(induced_pmtds(&td, &cqap).unwrap());
    assert!(!pmtds.is_empty());

    let graph = Graph::random(40, 160, 77);
    let db = graph.as_path_database(4);
    let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    for (u, v) in cqap_suite::query::workload::graph_pair_requests(&graph, 20, 5) {
        let req = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
        assert_eq!(
            index.answer(&req).unwrap(),
            naive_answer(&cqap, &db, &req).unwrap(),
            "({u},{v})"
        );
    }
}

/// Exhaustive PMTD enumeration over a fixed decomposition only ever yields
/// PMTDs whose rules the LP can bound, and the combined curve over those
/// rules is no worse than the curve of the hand-picked paper set.
#[test]
fn enumerated_pmtds_are_no_worse_than_paper_set() {
    let (cqap, paper) = pmtd_families::pmtds_3reach_fig1().unwrap();
    let chain = TreeDecomposition::path(vec![
        VarSet::from_iter([0, 2, 3]),
        VarSet::from_iter([0, 1, 2]),
    ])
    .unwrap();
    let enumerated = prune(all_pmtds_of(&chain, &cqap).unwrap());
    let stats = Stats::uniform_for_cqap(&cqap);
    let sigmas: Vec<Rat> = (0..=4).map(|i| Rat::new(i, 2)).collect();

    let curve_of = |pmtds: &[Pmtd]| {
        let shapes: Vec<_> = minimal_rules(pmtds)
            .into_iter()
            .map(|r| r.shape)
            .collect();
        combined_curve(&shapes, &stats, &sigmas, Rat::ZERO)
    };
    let paper_curve = curve_of(&paper);
    let enum_curve = curve_of(&enumerated);
    // The paper's Figure 1 set strictly contains the single-decomposition
    // enumeration's materialization options, so it can only be better or
    // equal at every budget.
    for (p, e) in paper_curve.points.iter().zip(&enum_curve.points) {
        assert!(p.time <= e.time, "at σ = {}", p.space);
    }
}
