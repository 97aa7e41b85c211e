//! Overload-control overhead: what admission costs when it isn't needed.
//!
//! ```sh
//! cargo bench -p cqap-bench --bench overload
//! ```
//!
//! The gate earns its keep under a flash crowd (see the
//! `overload_control` example for that regime); this bench watches the
//! other side of the bargain — the **un-overloaded** paths that every
//! request pays on:
//!
//! * `warm_submit` — a warm-cache submit/wait round trip with no
//!   admission and with a shed gate. A cache hit takes no gate slot, so
//!   the two bars should be within noise of each other.
//! * `cold_batch` — a cold-cache 512-request `serve_batch` with and
//!   without a (never-engaged) shed gate, and with per-request deadlines
//!   (all comfortably in the future), which additionally pays the
//!   earliest-deadline-first sort at dispatch.
//! * `deadline_submit` — `submit_with_deadline` vs plain `submit` on the
//!   warm path: the cost of carrying and checking a deadline that never
//!   fires.
//!
//! With `BENCH_BASELINE` set, results land in `BENCH_overload_*.json`
//! for cross-PR comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqap_indexes::TwoReachIndex;
use cqap_query::workload::{zipf_pair_requests, Graph};
use cqap_serve::{AdmissionConfig, ServeConfig, ServeRuntime};

const THREADS: usize = 4;
const BATCH: usize = 512;

fn runtime_with(
    index: &Arc<TwoReachIndex>,
    cache_capacity: usize,
    admission: Option<AdmissionConfig>,
) -> ServeRuntime<TwoReachIndex> {
    ServeRuntime::with_config(
        Arc::clone(index),
        ServeConfig {
            threads: THREADS,
            cache_capacity,
            admission,
            ..ServeConfig::default()
        },
    )
}

fn bench_overload_paths(c: &mut Criterion) {
    let graph = Graph::random(2_000, 12_000, 7);
    let index = Arc::new(TwoReachIndex::build(&graph, 200_000));
    let requests = zipf_pair_requests(&graph, BATCH, 1.1, 11);
    let hot = requests[0];

    // Warm-path round trip: a cache hit never reaches the gate, so this
    // checks that configuring admission adds nothing to the hit path.
    let mut group = c.benchmark_group("overload_warm_submit");
    group.sample_size(20);
    for (label, admission) in [
        ("unbounded", None),
        ("shed_gate", Some(AdmissionConfig::shed(64))),
    ] {
        let runtime = runtime_with(&index, 1_024, admission);
        runtime.submit(hot).wait().expect("warm the cache");
        group.bench_function(label, |b| {
            b.iter(|| black_box(runtime.submit(hot).wait().expect("hit")))
        });
    }
    group.finish();

    // Cold batches: gate admissions per probe, and the EDF sort when
    // deadlines ride along. Cache capacity 0 keeps every batch cold.
    let mut group = c.benchmark_group("overload_cold_batch");
    group.sample_size(10);
    let unbounded = runtime_with(&index, 0, None);
    group.bench_function("unbounded", |b| {
        b.iter(|| black_box(unbounded.serve_batch(&requests).expect("batch")))
    });
    let gated = runtime_with(&index, 0, Some(AdmissionConfig::shed(BATCH)));
    group.bench_function("shed_gate_headroom", |b| {
        b.iter(|| black_box(gated.serve_batch(&requests).expect("batch")))
    });
    group.bench_function("edf_deadlines", |b| {
        b.iter(|| {
            let deadlines: Vec<Instant> = requests
                .iter()
                .enumerate()
                .map(|(i, _)| Instant::now() + Duration::from_secs(10 + (i % 7) as u64))
                .collect();
            let answers = gated.serve_batch_with_deadlines(&requests, &deadlines);
            for answer in answers {
                black_box(answer.expect("deadline far in the future"));
            }
        })
    });
    group.finish();

    // Deadline bookkeeping on the warm path: carry + check, never fire.
    let mut group = c.benchmark_group("overload_deadline_submit");
    group.sample_size(20);
    let runtime = runtime_with(&index, 1_024, Some(AdmissionConfig::shed(64)));
    runtime.submit(hot).wait().expect("warm the cache");
    group.bench_function("plain", |b| {
        b.iter(|| black_box(runtime.submit(hot).wait().expect("hit")))
    });
    group.bench_function("with_deadline", |b| {
        b.iter(|| {
            black_box(
                runtime
                    .submit_with_deadline(hot, Instant::now() + Duration::from_secs(30))
                    .wait()
                    .expect("hit"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_overload_paths);
criterion_main!(benches);
