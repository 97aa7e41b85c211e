//! Quickstart: build a CQAP index for 3-reachability and answer requests.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks through the full pipeline of the paper's framework:
//! define the CQAP, pick a set of PMTDs (Figure 1), materialize their
//! S-views, answer access requests with Online Yannakakis, and print the
//! symbolic tradeoff the framework proves for the generated rules.

use cqap_suite::decomp::families::pmtds_3reach_fig1;
use cqap_suite::entropy::tradeoff::{verify_tradeoff, Stats, SymbolicTradeoff};
use cqap_suite::panda::rules::minimal_rules;
use cqap_suite::prelude::*;

fn main() {
    // 1. The CQAP φ3(x1, x4 | x1, x4) ← R1(x1,x2) ∧ R2(x2,x3) ∧ R3(x3,x4)
    //    and the three PMTDs of Figure 1.
    let (cqap, pmtds) = pmtds_3reach_fig1().expect("paper PMTDs are valid");
    println!("CQAP: {cqap}");
    println!("PMTDs (Figure 1):");
    for p in &pmtds {
        println!("  {}", p.summary());
    }

    // 2. A synthetic graph with a few hub vertices, loaded as R1, R2, R3.
    let graph = Graph::skewed(2_000, 12_000, 10, 400, 7);
    let db = graph.as_path_database(3);
    println!(
        "\nDatabase: {} relations, |D| = {} tuples per relation",
        db.num_relations(),
        db.size()
    );

    // 3. Preprocessing phase: pick the PMTD with the fewest T-views and
    //    materialize its S-views.
    let index = CqapIndex::build(&cqap, &db, &pmtds).expect("preprocessing succeeds");
    let (plan, _) = index.plans().next().expect("an index builds one plan");
    println!(
        "Preprocessed {} of {} PMTDs, intrinsic space = {} stored values",
        plan.pmtd().summary(),
        pmtds.len(),
        index.space_used()
    );

    // 4. Online phase: answer a few single-pair access requests.
    println!("\nAccess requests:");
    for (u, v) in cqap_suite::query::workload::graph_pair_requests(&graph, 5, 1) {
        let request = AccessRequest::single(cqap.access(), &[u, v]).expect("valid request");
        let answer = index.answer(&request).expect("online phase succeeds");
        println!(
            "  is there a path of length 3 from {u} to {v}?  {}",
            if answer.is_empty() { "no" } else { "yes" }
        );
        assert_eq!(answer, naive_answer(&cqap, &db, &request).unwrap());
    }

    // 5. The analytic side: the rules generated by this PMTD set, and — for
    //    the full Figure 3 PMTD set — the Table 1 tradeoffs verified by the
    //    LP oracle.
    let rules = minimal_rules(&pmtds);
    println!("\n2-phase disjunctive rules of the Figure 1 set:");
    for rule in &rules {
        println!("  {} ← body", rule.label());
    }

    let (_, table1) = cqap_suite::panda::table1_3reach().expect("Table 1 rules generate");
    println!("\nTable 1 (Figure 3 PMTD set), LP-verified tradeoffs:");
    for report in &table1 {
        for (claim, ok) in report.claimed.iter().zip(&report.verified) {
            println!(
                "  {:<36} {:<26} {}",
                report.label,
                claim.to_string(),
                if *ok { "verified" } else { "NOT verified" }
            );
        }
    }

    // Spot-check a single claim directly through the public API.
    let stats = Stats::uniform_for_cqap(&cqap);
    let rho1 = &table1[0].rule;
    let claim = SymbolicTradeoff::new(1, 2, 2, 2);
    assert!(verify_tradeoff(&rho1.shape, &stats, &claim));
}
