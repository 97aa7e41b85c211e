//! Per-request online latency of the compiled serving path, across every
//! backend that shares it.
//!
//! ```sh
//! cargo bench -p cqap-bench --bench online_latency
//! ```
//!
//! The compiled-probe-plan refactor moved all per-request bookkeeping of
//! the Online-Yannakakis driver (schema resolution, atom-relation clones,
//! per-request join-index builds, intermediate dedup inserts) to index
//! construction time. This bench tracks what is left: the **per-request
//! median**, cold and warm, for the three serving backends —
//!
//! * `driver_cold` / `driver_warm` — the framework driver (`CqapIndex`):
//!   cold is a direct `answer` per request (no cache anywhere; since PR 5
//!   this is the **columnar** path), warm is a `ServeRuntime` whose LRU
//!   already holds every answer;
//! * `driver_warm_traced` — the same warm submits with a 1-in-64-sampled
//!   flight recorder riding the sink: the cost of leaving request tracing
//!   on in production (unsampled requests stay allocation-free, so this
//!   should sit on top of `driver_warm`);
//! * `sharded_cold` — a 2-shard `ShardedIndex` routing each binding to
//!   its shard;
//! * `tiered_cold` — a 2-shard `TieredShardedIndex` with one shard
//!   spilled to disk (half the probes pay fence + segment reads).
//!
//! The `columnar` group runs the same request stream through the engine
//! on both storage backends — `mem_columnar` against the in-memory index,
//! `disk_columnar` against a fully disk-resident `StoredIndex` over the
//! same preprocessing output. Both are scratch-warm medians with no LRU
//! in front.
//!
//! Like the other serving benches this always emits a JSON baseline
//! (`BENCH_online_latency_<name>.json`, name from `BENCH_BASELINE`,
//! default `local`); when the named file already exists, the criterion
//! shim prints each benchmark's median delta against the saved run — CI
//! runs with `BENCH_BASELINE=pr4`, so the drift of every case against
//! the PR-4 run prints in every workflow log. Since PR 7 every line (and
//! JSON record) also carries the **p99/p999 tail latency**, estimated
//! through the
//! `cqap-obs` log-bucketed histogram — the same estimator the serving
//! stack's live metrics exposition uses, so bench tails and production
//! tails are directly comparable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use cqap_bench::ensure_baseline_named;
use cqap_decomp::families::pmtds_3reach_fig1;
use cqap_obs::{FlightRecorder, MetricsSink, SamplingPolicy};
use cqap_panda::CqapIndex;
use cqap_query::workload::{zipf_pair_requests, Graph};
use cqap_query::AccessRequest;
use cqap_serve::{BatchAnswer, ServeConfig, ServeRuntime};
use cqap_shard::ShardedIndex;
use cqap_store::{scratch_dir, PlacementPolicy, ShardTier, StoredIndex, TieredShardedIndex};

fn bench_online_latency(c: &mut Criterion) {
    ensure_baseline_named();
    let (cqap, pmtds) = pmtds_3reach_fig1().expect("paper PMTDs");
    let graph = Graph::skewed(900, 5_000, 8, 250, 7);
    let db = graph.as_path_database(3);
    let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, 256, 1.05, 11)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).expect("valid"))
        .collect();

    let index = Arc::new(CqapIndex::build(&cqap, &db, &pmtds).expect("preprocessing"));
    let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).expect("sharded build");
    let weights = PlacementPolicy::observe(sharded.spec(), &requests);
    // Half the deployment cold: the lower-traffic shard pays disk probes.
    let placement: Vec<ShardTier> = {
        let cold = if weights[0] <= weights[1] { 0 } else { 1 };
        (0..2)
            .map(|i| if i == cold { ShardTier::Cold } else { ShardTier::Hot })
            .collect()
    };
    let tiered = TieredShardedIndex::from_sharded(
        ShardedIndex::build(&cqap, &db, &pmtds, 2).expect("sharded build"),
        &placement,
        scratch_dir("online-latency"),
    )
    .expect("tiered build");

    // Sanity: every backend answers the stream identically.
    for request in requests.iter().take(16) {
        let expected = index.answer(request).expect("driver answer");
        assert_eq!(
            sharded.answer_one(request).expect("sharded answer"),
            expected
        );
        assert_eq!(tiered.answer_one(request).expect("tiered answer"), expected);
    }

    let mut group = c.benchmark_group("online_latency");
    group.sample_size(30);

    // Per-request sampling: each iteration answers the next request of
    // the zipf stream, so the reported median is a per-request latency.
    let mut at = 0usize;
    group.bench_function("driver_cold", |b| {
        b.iter(|| {
            at = (at + 1) % requests.len();
            black_box(index.answer(&requests[at]).expect("answer"))
        })
    });

    let runtime = ServeRuntime::with_config(
        Arc::clone(&index),
        ServeConfig {
            threads: 2,
            cache_capacity: 4_096,
            ..ServeConfig::default()
        },
    );
    runtime.serve_batch(&requests).expect("cache warm-up");
    let mut at = 0usize;
    group.bench_with_input(
        BenchmarkId::new("driver_warm", "lru"),
        &runtime,
        |b, runtime| {
            b.iter(|| {
                at = (at + 1) % requests.len();
                black_box(
                    runtime
                        .submit(requests[at].clone())
                        .wait()
                        .expect("warm answer"),
                )
            })
        },
    );

    // The same warm LRU submits with a 1-in-64-sampled flight recorder
    // riding a live sink: 63 of 64 requests must stay on the
    // allocation-free warm path (the trace seam does not even read the
    // clock for them), so this median should sit on top of
    // `driver_warm` — the tracing tax shows up here if it ever grows.
    let tracer = Arc::new(FlightRecorder::new(4_096, SamplingPolicy::OneInN(64)));
    let traced = ServeRuntime::with_metrics(
        Arc::clone(&index),
        ServeConfig {
            threads: 2,
            cache_capacity: 4_096,
            ..ServeConfig::default()
        },
        MetricsSink::recording().with_tracer(tracer),
    );
    traced.serve_batch(&requests).expect("cache warm-up");
    let mut at = 0usize;
    group.bench_with_input(
        BenchmarkId::new("driver_warm_traced", "one_in_64"),
        &traced,
        |b, traced| {
            b.iter(|| {
                at = (at + 1) % requests.len();
                black_box(
                    traced
                        .submit(requests[at].clone())
                        .wait()
                        .expect("warm answer"),
                )
            })
        },
    );

    let mut at = 0usize;
    group.bench_with_input(BenchmarkId::new("sharded_cold", "k2"), &sharded, |b, sharded| {
        b.iter(|| {
            at = (at + 1) % requests.len();
            black_box(sharded.answer_one(&requests[at]).expect("answer"))
        })
    });
    let mut at = 0usize;
    group.bench_with_input(
        BenchmarkId::new("tiered_cold", "k2_half_cold"),
        &tiered,
        |b, tiered| {
            b.iter(|| {
                at = (at + 1) % requests.len();
                black_box(tiered.answer_one(&requests[at]).expect("answer"))
            })
        },
    );
    group.finish();

    // Same stream, both storage backends. The StoredIndex spills the
    // *same* preprocessing output, so the two backends execute identical
    // plans — only the probes differ (hash buckets scattered column-wise
    // vs segments decoded column-directly).
    let stored =
        StoredIndex::spill(&index, scratch_dir("online-latency-columnar")).expect("spill");
    for request in requests.iter().take(8) {
        let expected = index.answer(request).expect("memory answer");
        assert_eq!(stored.answer(request).expect("disk answer"), expected);
    }
    // Unlike the per-request sampling above, each iteration here answers
    // the *whole* 256-request stream: every sample measures identical
    // work, so the reported median is a stable 256-request aggregate
    // (divide by 256 for the per-request figure) instead of depending on
    // which zipf requests a sample window happens to hit.
    let mut group = c.benchmark_group("columnar");
    group.sample_size(30);
    group.bench_function("mem_columnar", |b| {
        b.iter(|| {
            for request in &requests {
                black_box(index.answer(request).expect("answer"));
            }
        })
    });
    group.bench_function("disk_columnar", |b| {
        b.iter(|| {
            for request in &requests {
                black_box(stored.answer(request).expect("answer"));
            }
        })
    });
    group.finish();

    let space = tiered.space_used();
    println!(
        "tiered split: {} hot / {} cold shards, {} hot values, {} cold values on disk",
        space.hot_shards, space.cold_shards, space.hot_values, space.cold_values
    );
}

criterion_group!(benches, bench_online_latency);
criterion_main!(benches);
