//! Posting-list intersection with a space budget (k-set disjointness).
//!
//! ```sh
//! cargo run --release --example set_disjointness
//! ```
//!
//! Scenario: a search index stores one posting list (set of document ids)
//! per term and must answer "do these terms co-occur in some document"
//! (Boolean 2-set disjointness) and "which documents contain all k terms"
//! (k-set intersection). The example builds the heavy/light structure of
//! Section 6.1 at several space budgets and reports the measured
//! space/online-work tradeoff, which should follow `S · T² ≈ N²`.

use cqap_suite::common::work;
use cqap_suite::prelude::*;
use cqap_suite::query::workload::set_tuple_requests;

fn main() {
    // A Zipf-ish family: a few huge posting lists, many small ones.
    let family = SetFamily::zipf(2_000, 200_000, 20_000, 1.0, 13);
    let n = family.len();
    println!("posting lists: {} sets, N = {n} membership pairs\n", family.num_sets);

    let pair_queries: Vec<(Val, Val)> = set_tuple_requests(&family, 2, 4_000, 5)
        .into_iter()
        .map(|t| (t.get(0), t.get(1)))
        .collect();

    println!("Boolean 2-set disjointness:");
    println!("{:>14} {:>14} {:>14} {:>16}", "budget", "space", "avg work", "S·T² / N²");
    for exponent in [0.5f64, 0.75, 1.0, 1.25, 1.5] {
        let budget = (n as f64).powf(exponent) as usize;
        let idx = SetDisjointnessIndex::build(&family, budget);
        let before = work::total();
        let mut intersecting = 0usize;
        for &(a, b) in &pair_queries {
            if idx.intersects(a, b) {
                intersecting += 1;
            }
        }
        let avg_work = (work::total() - before) as f64 / pair_queries.len() as f64;
        let product = (idx.space_used().max(1) as f64) * avg_work * avg_work;
        println!(
            "{:>14} {:>14} {:>14.1} {:>16.3}",
            budget,
            idx.space_used(),
            avg_work,
            product / (n as f64 * n as f64)
        );
        let _ = intersecting;
    }

    println!("\n3-term intersection (enumeration):");
    let idx = SetDisjointnessIndex::build(&family, n);
    let triples = set_tuple_requests(&family, 3, 5, 9);
    for t in &triples {
        let sets = [t.get(0), t.get(1), t.get(2)];
        let common = idx.intersection(&sets);
        println!(
            "  terms {:?} share {} documents{}",
            sets,
            common.len(),
            if common.is_empty() { "" } else { " (non-disjoint)" }
        );
    }
}
