//! Incremental-maintenance throughput and its effect on serving latency.
//!
//! ```sh
//! cargo bench -p cqap-bench --bench delta_apply
//! ```
//!
//! The `delta_apply` group measures the per-batch cost of the
//! [`ApplyDelta`] seam — a six-tuple insert/delete round trip (one fresh
//! 3-chain inserted and removed again, so every iteration does identical
//! work and leaves the index unchanged) on both maintained backends,
//! plus the empty-batch fast path that a quiet serving loop pays:
//!
//! * `mem_roundtrip` — in-memory [`CqapIndex`]: delta plans, support
//!   counts, in-place atom-index and hash-view maintenance;
//! * `disk_roundtrip` — disk-resident [`StoredIndex`]: the same
//!   maintenance with ΔS-views absorbed as LSM-style overlay segments
//!   (the round trip cancels in the overlay, so no compaction runs);
//! * `mem_noop` / `disk_noop` — an empty [`DeltaBatch`], which must
//!   short-circuit before touching any plan.
//!
//! The `post_delta_probe` group reports the per-request cold latency of
//! the *maintained* indexes after a real (uncancelled) delta —
//! `mem_cold` against the maintained in-memory index, `disk_overlay`
//! with delta segments still pending on every probed view, and
//! `disk_compacted` after folding them down — the same zipf stream and
//! measurement shape as `online_latency`'s `driver_cold`, so the two
//! benches' medians are directly comparable (CI keeps the PR-4 run of
//! that bench as `BENCH_online_latency_pr4.json`; deltas for this bench
//! print against `BENCH_delta_apply_<name>.json` via the same shim).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqap_bench::ensure_baseline_named;
use cqap_common::Tuple;
use cqap_decomp::families::pmtds_3reach_fig1;
use cqap_delta::{ApplyDelta, DeltaBatch};
use cqap_panda::CqapIndex;
use cqap_query::workload::{zipf_pair_requests, Graph};
use cqap_query::AccessRequest;
use cqap_store::StoredIndex;

/// One fresh 3-chain far outside the generated graph, as inserts and as
/// the inverse deletes: applying both batches is a net no-op overall but
/// each apply is a real (non-empty) maintenance round.
fn chain_batches(base: u64) -> (DeltaBatch, DeltaBatch) {
    let mut fwd = DeltaBatch::new();
    let mut rev = DeltaBatch::new();
    for (i, name) in ["R1", "R2", "R3"].iter().enumerate() {
        let i = i as u64;
        let link = vec![Tuple::pair(base + i, base + i + 1)];
        fwd = fwd.insert(*name, link.clone());
        rev = rev.delete(*name, link);
    }
    (fwd, rev)
}

fn bench_delta_apply(c: &mut Criterion) {
    ensure_baseline_named();
    let (cqap, pmtds) = pmtds_3reach_fig1().expect("paper PMTDs");
    let graph = Graph::skewed(400, 2_200, 6, 150, 7);
    let db = graph.as_path_database(3);
    let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, 256, 1.05, 11)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).expect("valid"))
        .collect();

    let mut memory = CqapIndex::build(&cqap, &db, &pmtds).expect("preprocessing");
    let mut stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds).expect("disk build");
    let (fwd, rev) = chain_batches(50_000);
    let empty = DeltaBatch::new();

    let mut group = c.benchmark_group("delta_apply");
    group.sample_size(20);
    group.bench_function("mem_roundtrip", |b| {
        b.iter(|| {
            black_box(memory.apply_delta(&fwd).expect("insert chain"));
            black_box(memory.apply_delta(&rev).expect("delete chain"));
        })
    });
    group.bench_function("disk_roundtrip", |b| {
        b.iter(|| {
            black_box(stored.apply_delta(&fwd).expect("insert chain"));
            black_box(stored.apply_delta(&rev).expect("delete chain"));
        })
    });
    group.bench_function("mem_noop", |b| {
        b.iter(|| black_box(memory.apply_delta(&empty).expect("noop")))
    });
    group.bench_function("disk_noop", |b| {
        b.iter(|| black_box(stored.apply_delta(&empty).expect("noop")))
    });
    group.finish();

    // Leave one real chain applied, so the probed state is genuinely
    // post-delta: the in-memory index edited in place, the disk index with
    // uncompacted overlay segments on its views.
    memory.apply_delta(&fwd).expect("final chain (memory)");
    stored.apply_delta(&fwd).expect("final chain (disk)");
    assert!(stored.overlay_len() > 0, "the probe bench wants pending segments");
    for request in requests.iter().take(8) {
        assert_eq!(
            stored.answer(request).expect("disk answer"),
            memory.answer(request).expect("memory answer"),
            "maintained backends diverged"
        );
    }

    let mut group = c.benchmark_group("post_delta_probe");
    group.sample_size(30);
    let mut at = 0usize;
    group.bench_function("mem_cold", |b| {
        b.iter(|| {
            at = (at + 1) % requests.len();
            black_box(memory.answer(&requests[at]).expect("answer"))
        })
    });
    let mut at = 0usize;
    group.bench_function("disk_overlay", |b| {
        b.iter(|| {
            at = (at + 1) % requests.len();
            black_box(stored.answer(&requests[at]).expect("answer"))
        })
    });
    stored.compact().expect("fold overlay segments");
    assert_eq!(stored.overlay_len(), 0);
    let mut at = 0usize;
    group.bench_function("disk_compacted", |b| {
        b.iter(|| {
            at = (at + 1) % requests.len();
            black_box(stored.answer(&requests[at]).expect("answer"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_delta_apply);
criterion_main!(benches);
