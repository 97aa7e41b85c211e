//! Serving a request stream over hash-partitioned index shards.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```
//!
//! The sharded deployment of `cqap-shard`, end to end:
//!
//! 1. the database is hash-partitioned by the routing variable (the
//!    minimum access variable) into `k = 4` shards, and a `CqapIndex` is
//!    built per shard, concurrently;
//! 2. a `ShardRouter` puts one `ServeRuntime` (pool + `Arc`-valued LRU
//!    cache) in front of every shard;
//! 3. the router itself implements `BatchAnswer`, so a *top-level*
//!    `ServeRuntime` wraps it unchanged — zipf-skewed single-binding
//!    requests route to exactly one shard, multi-binding requests
//!    scatter-gather and union;
//! 4. every answer is checked bit-for-bit identical to the unsharded
//!    `CqapIndex` reference.

use std::sync::Arc;
use std::time::Instant;

use cqap_suite::decomp::families::pmtds_3reach_fig1;
use cqap_suite::prelude::*;
use cqap_suite::query::workload::{zipf_multi_requests, zipf_pair_requests};

const SHARDS: usize = 4;
const SINGLES: usize = 1_200;
const MULTIS: usize = 200;

fn main() {
    let (cqap, pmtds) = pmtds_3reach_fig1().expect("paper PMTDs are valid");
    let graph = Graph::skewed(800, 5_000, 8, 250, 7);
    let db = graph.as_path_database(3);

    // Unsharded reference.
    let start = Instant::now();
    let reference = CqapIndex::build(&cqap, &db, &pmtds).expect("reference build");
    let unsharded_build = start.elapsed();

    // Sharded build: k hash partitions, built concurrently.
    let start = Instant::now();
    let sharded = ShardedIndex::build(&cqap, &db, &pmtds, SHARDS).expect("sharded build");
    let sharded_build = start.elapsed();
    println!(
        "build: unsharded {:.1} ms ({} stored values) | {} shards {:.1} ms ({} stored values)",
        unsharded_build.as_secs_f64() * 1e3,
        reference.space_used(),
        sharded.num_shards(),
        sharded_build.as_secs_f64() * 1e3,
        sharded.space_used().total_values(),
    );

    // The serving stack over shards: per-shard runtimes behind the
    // router, behind a top-level runtime with its own front cache.
    let router = ShardRouter::new(sharded);
    let runtime = ServeRuntime::with_config(
        Arc::new(router),
        ServeConfig {
            threads: cqap_suite::serve::default_threads(),
            cache_capacity: 1_024,
            ..ServeConfig::default()
        },
    );

    // Zipf-skewed single-binding stream plus multi-binding requests that
    // split across shards.
    let mut requests: Vec<AccessRequest> = zipf_pair_requests(&graph, SINGLES, 1.05, 11)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).expect("valid request"))
        .collect();
    requests.extend(
        zipf_multi_requests(&graph, MULTIS, 5, 1.05, 13)
            .into_iter()
            .map(|tuples| {
                let tuples: Vec<Tuple> =
                    tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
                AccessRequest::new(cqap.access(), tuples).expect("valid request")
            }),
    );

    let start = Instant::now();
    let sequential: Vec<Relation> = requests
        .iter()
        .map(|r| reference.answer(r).expect("reference answer"))
        .collect();
    let sequential_time = start.elapsed();

    let start = Instant::now();
    let cold = runtime.serve_batch(&requests).expect("sharded serving");
    let cold_time = start.elapsed();
    let start = Instant::now();
    let warm = runtime.serve_batch(&requests).expect("sharded serving");
    let warm_time = start.elapsed();

    assert_eq!(cold.len(), sequential.len(), "one answer per request");
    assert_eq!(warm.len(), sequential.len(), "one answer per request");
    assert!(
        cold.iter().zip(&sequential).all(|(a, s)| ***a == *s),
        "sharded answers must equal the unsharded reference"
    );
    assert!(
        warm.iter().zip(&sequential).all(|(a, s)| ***a == *s),
        "cached sharded answers must equal the unsharded reference"
    );

    println!(
        "serve {} requests: sequential {:.1} ms | sharded cold {:.1} ms | sharded warm {:.1} ms",
        requests.len(),
        sequential_time.as_secs_f64() * 1e3,
        cold_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
    );

    // Per-shard view: zipf skew shows up as uneven load; the fleet view
    // is the field-wise sum.
    let router = runtime.index();
    for (shard, stats) in router.shard_stats().into_iter().enumerate() {
        println!("shard {shard}: {stats}");
    }
    let fleet = router.stats();
    let front = runtime.stats();
    println!(
        "fleet: {} served across shards; front cache absorbed {} of {} top-level requests",
        fleet.served,
        front.cache_hits + front.dedup_hits,
        front.served,
    );
    println!(
        "All {} sharded answers identical to the unsharded CqapIndex.",
        requests.len()
    );
}
