//! Serving over hot/cold tiered shards: the space budget made physical.
//!
//! ```sh
//! cargo run --release --example tiered_serving
//! ```
//!
//! The tiered deployment of `cqap-store`, end to end:
//!
//! 1. the database is hash-partitioned into `k = 4` shards under the
//!    unchanged `ShardSpec` contract and a `CqapIndex` is built per shard;
//! 2. a `PlacementPolicy` — a hot-tier byte budget of about half the
//!    total S plus observed per-shard traffic — keeps the hottest shards
//!    in memory and spills the rest to disk-resident sorted runs in a
//!    temp directory (cleaned up before the example exits);
//! 3. the `TieredShardedIndex` implements `BatchAnswer`, so a stock
//!    `ServeRuntime` serves a zipf-skewed stream over it unchanged — a
//!    batch's fresh probes are dealt into one job per worker and answered
//!    member by member;
//! 4. every answer is checked bit-for-bit identical to the unsharded
//!    in-memory `CqapIndex` reference, and the per-tier space breakdown
//!    plus the `ServeStats` counters are printed.

use std::sync::Arc;
use std::time::Instant;

use cqap_suite::decomp::families::pmtds_3reach_fig1;
use cqap_suite::prelude::*;
use cqap_suite::query::workload::zipf_pair_requests;

const SHARDS: usize = 4;
const REQUESTS: usize = 800;

fn main() {
    let (cqap, pmtds) = pmtds_3reach_fig1().expect("paper PMTDs are valid");
    let graph = Graph::skewed(700, 4_200, 8, 240, 7);
    let db = graph.as_path_database(3);

    // Unsharded in-memory reference.
    let reference = CqapIndex::build(&cqap, &db, &pmtds).expect("reference build");

    // The zipf traffic sample that drives placement, and the stream that
    // is actually served (same skew, different seed — the policy sees
    // representative, not oracle, traffic).
    let sample: Vec<AccessRequest> = zipf_pair_requests(&graph, 200, 1.05, 3)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).expect("valid request"))
        .collect();
    let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, REQUESTS, 1.05, 11)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).expect("valid request"))
        .collect();

    // Budget roughly half the total S in memory; spill the rest, coldest
    // shards (by the sampled traffic) first. Runs live in a temp dir the
    // index removes again when dropped.
    let spec = ShardSpec::new(&cqap, SHARDS).expect("spec");
    let weights = PlacementPolicy::observe(&spec, &sample);
    let budget_bytes = reference.space_used() * std::mem::size_of::<Val>() / 2;
    let policy = PlacementPolicy::hot_budget(budget_bytes).with_weights(weights);

    let start = Instant::now();
    let tiered = TieredShardedIndex::build_in_temp(&cqap, &db, &pmtds, SHARDS, &policy)
        .expect("tiered build");
    let build_time = start.elapsed();

    let space = tiered.space_used();
    println!(
        "build: {SHARDS} shards in {:.1} ms under a {budget_bytes}-byte hot budget",
        build_time.as_secs_f64() * 1e3
    );
    println!("placement: {:?}", tiered.placements());
    println!("space: {space}");
    println!(
        "       -> resident {} of {} total values ({:.0}%)",
        space.resident_values(),
        space.total_values(),
        100.0 * space.resident_values() as f64 / space.total_values().max(1) as f64,
    );
    if space.cold_values > 0 {
        // Cold runs are v2 delta+varint compressed: the on-disk footprint
        // undercuts even the raw 8-byte encoding of the spilled values.
        let logical = (space.cold_values * 8) as u64;
        println!(
            "       -> cold tier compressed: {} B on disk vs {} B logical ({:.2}x)",
            space.cold_disk_bytes,
            logical,
            logical as f64 / space.cold_disk_bytes.max(1) as f64,
        );
        assert!(
            space.cold_disk_bytes < logical,
            "compressed cold tier must beat the plain encoding"
        );
    }

    // Serve through a stock runtime; the tiered index is just another
    // BatchAnswer.
    let runtime = ServeRuntime::with_config(
        Arc::new(tiered),
        ServeConfig {
            threads: cqap_suite::serve::default_threads(),
            cache_capacity: 1_024,
            ..ServeConfig::default()
        },
    );
    let start = Instant::now();
    let cold_pass = runtime.serve_batch(&requests).expect("tiered serving");
    let cold_time = start.elapsed();
    let start = Instant::now();
    let warm_pass = runtime.serve_batch(&requests).expect("tiered serving");
    let warm_time = start.elapsed();

    // Exactness: every answer equals the unsharded in-memory reference.
    for (request, answer) in requests.iter().zip(&cold_pass) {
        assert_eq!(
            answer.as_ref(),
            &reference.answer(request).expect("reference answer"),
            "tiered serving must be exact"
        );
    }
    assert_eq!(cold_pass, warm_pass, "cached answers identical");

    let stats = runtime.stats();
    println!(
        "serve {} zipf requests: cold {:.1} ms | warm {:.1} ms",
        requests.len(),
        cold_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
    );
    // `cache_misses` counts requests needing probe work, one index probe
    // each; `coalesced` counts those that shared a probe job.
    println!("stats: {stats}");
    println!(
        "per-shard load (bindings): {:?}",
        runtime.index().observed_loads()
    );
    println!(
        "All {} tiered answers identical to the unsharded CqapIndex.",
        requests.len()
    );
    // Dropping the runtime drops the tiered index, which deletes its
    // spilled runs and scratch directory.
}
