//! A k-reachability oracle under a memory budget.
//!
//! ```sh
//! cargo run --release --example reachability_oracle -- [k] [edges]
//! ```
//!
//! Scenario: a service wants to answer "is there a path of exactly k hops
//! from u to v" (e.g. multi-hop connection queries in a social graph) but
//! can only afford a fraction of the quadratic space full materialization
//! would need. The example sweeps the space budget and reports, for each
//! budget, the measured space and the average online work of
//!
//! * the BFS-from-scratch baseline (zero space),
//! * the Goldstein-et-al. recursive structure (the prior state of the art
//!   the paper compares against), and
//! * full materialization (maximum space, constant time).

use cqap_suite::common::work;
use cqap_suite::prelude::*;
use cqap_suite::query::workload::graph_pair_requests;

fn main() {
    let mut args = std::env::args().skip(1);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let edges: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50_000);

    let graph = Graph::skewed(edges / 5, edges, 25, 800, 11);
    let requests = graph_pair_requests(&graph, 2_000, 3);
    println!(
        "k = {k}, |E| = {}, {} requests per configuration\n",
        graph.len(),
        requests.len()
    );

    let run = |name: &str, space: usize, total_work: u64, positives: usize| {
        println!(
            "{name:<28} space = {space:>10} values   avg online work = {:>10.1}   positive answers = {positives}",
            total_work as f64 / requests.len() as f64
        );
    };

    // Zero-space baseline.
    let bfs = BfsBaseline::build(&graph, k);
    let before = work::total();
    let mut positives = 0;
    for &(u, v) in &requests {
        if bfs.query(u, v) {
            positives += 1;
        }
    }
    run("BFS from scratch", bfs.space_used(), work::total() - before, positives);

    // Budgeted structures.
    for exponent in [1.0f64, 1.25, 1.5, 1.75] {
        let budget = (graph.len() as f64).powf(exponent) as usize;
        let idx = KReachGoldstein::build(&graph, k, budget);
        let before = work::total();
        let mut positives = 0;
        for &(u, v) in &requests {
            if idx.query(u, v) {
                positives += 1;
            }
        }
        run(
            &format!("Goldstein S = |E|^{exponent}"),
            idx.space_used(),
            work::total() - before,
            positives,
        );
    }

    // Full materialization.
    let full = FullReachMaterialization::build(&graph, k);
    let before = work::total();
    let mut positives = 0;
    for &(u, v) in &requests {
        if full.query(u, v) {
            positives += 1;
        }
    }
    run(
        "full materialization",
        full.space_used(),
        work::total() - before,
        positives,
    );

    println!(
        "\nExpectation from the paper: online work shrinks as the budget grows, \
         following S·T^{{2/(k-1)}} ≈ |E|² for the Goldstein structure."
    );
}
