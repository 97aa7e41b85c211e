//! Serving a heavy stream of access requests against a shared index.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! The paper's model is *build once, probe heavily*: preprocessing
//! materializes views within a space budget, then a stream of access
//! requests arrives. This example builds the 3-reachability CQAP index of
//! Figure 1 once, generates a zipf-skewed stream of 2 000 requests, and
//! answers it three ways:
//!
//! 1. one at a time with `CqapIndex::answer` (the baseline loop);
//! 2. through the full `ServeRuntime` (work-stealing pool + LRU cache);
//! 3. through the runtime again, now with a warm cache.
//!
//! Every strategy is checked to produce bit-for-bit identical answers.

use std::sync::Arc;
use std::time::Instant;

use cqap_suite::decomp::families::pmtds_3reach_fig1;
use cqap_suite::prelude::*;
use cqap_suite::query::workload::zipf_pair_requests;
use cqap_suite::serve::default_threads;

const REQUESTS: usize = 2_000;

fn main() {
    // Preprocessing phase: build the index once.
    let (cqap, pmtds) = pmtds_3reach_fig1().expect("paper PMTDs are valid");
    let graph = Graph::skewed(800, 5_000, 8, 250, 7);
    let db = graph.as_path_database(3);
    let index = Arc::new(CqapIndex::build(&cqap, &db, &pmtds).expect("preprocessing succeeds"));
    let (plan, _) = index.plans().next().expect("an index builds one plan");
    println!(
        "Index built: {} of {} PMTDs, intrinsic space = {} stored values",
        plan.pmtd().summary(),
        pmtds.len(),
        index.space_used()
    );

    // A zipf-skewed stream: a few hot endpoint pairs dominate, as in real
    // serving traffic. skew = 1.05 ≈ web-like.
    let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, REQUESTS, 1.05, 11)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).expect("valid request"))
        .collect();
    let threads = default_threads();
    println!("Serving {REQUESTS} requests on {threads} threads\n");

    // 1. Sequential baseline.
    let start = Instant::now();
    let sequential: Vec<Relation> = requests
        .iter()
        .map(|r| index.answer(r).expect("online phase succeeds"))
        .collect();
    let sequential_time = start.elapsed();
    report("sequential loop", sequential_time, sequential_time);

    // 2. The full runtime: pool + LRU answer cache, cold.
    let runtime = ServeRuntime::with_config(
        Arc::clone(&index),
        ServeConfig {
            threads,
            cache_capacity: 1_024,
            ..ServeConfig::default()
        },
    );
    let start = Instant::now();
    let served = runtime.serve_batch(&requests).expect("serving succeeds");
    report("serve runtime (cold cache)", start.elapsed(), sequential_time);
    // Runtime answers arrive as `Arc<Relation>` (shared with the cache).
    assert_eq!(served.len(), sequential.len(), "one answer per request");
    assert!(
        served.iter().zip(&sequential).all(|(a, s)| a.as_ref() == s),
        "runtime answers must match"
    );

    // 3. Same stream again: the zipf head is now cached.
    let start = Instant::now();
    let warm = runtime.serve_batch(&requests).expect("serving succeeds");
    report("serve runtime (warm cache)", start.elapsed(), sequential_time);
    assert_eq!(warm.len(), sequential.len(), "one answer per request");
    assert!(
        warm.iter().zip(&sequential).all(|(a, s)| a.as_ref() == s),
        "cached answers must match"
    );

    let stats = runtime.stats();
    // `cache_misses` counts requests that needed probe work; a cold
    // batch's misses are dealt into one probe job per worker, each
    // answered member by member through `BatchAnswer::answer_batch`.
    println!(
        "\nRuntime stats: {stats} ({:.1}% cache/dedup-served)",
        100.0 * (stats.cache_hits + stats.dedup_hits) as f64 / stats.served as f64
    );
    println!("All {REQUESTS} concurrent answers identical to the sequential loop.");
}

fn report(label: &str, elapsed: std::time::Duration, baseline: std::time::Duration) {
    println!(
        "{label:<28} {:>10.1} ms   {:>7.2}x vs sequential",
        elapsed.as_secs_f64() * 1e3,
        baseline.as_secs_f64() / elapsed.as_secs_f64()
    );
}
