//! End-to-end observability: one metrics sink across the whole serving
//! stack, exported as Prometheus text exposition.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! One `MetricsSink` (a shared lock-free recorder from `cqap-obs`) is
//! attached to every layer of a tiered deployment:
//!
//! 1. a `ShardedIndex` is placed with half its shards spilled to
//!    disk, and the sink is attached to both tiers — cold-shard probes
//!    count segment reads and bytes (or a key-filter negative, for a key
//!    the run does not hold), delta maintenance records apply latency
//!    and net-op sizes;
//! 2. a delta batch (a fresh 3-path chain) flows through `ApplyDelta`,
//!    leaving pending overlay tuples whose probes are counted until
//!    compaction folds them away;
//! 3. a zipf-skewed request stream is served through a `ServeRuntime`
//!    built with the same sink: every request's lifecycle — queue wait,
//!    cache lookup, coalesce, backend probe, ticket delivery — lands in
//!    one log-bucketed latency histogram per stage;
//! 4. the merged snapshot is dumped in Prometheus text exposition format
//!    (per-stage p50/p99/p999 plus the store and delta counters), and the
//!    example asserts every expected stage actually recorded.
//!
//! Everything here is allocation-free on the warm path and compiles away
//! entirely when the sink is disabled — the same binary serves with and
//! without metrics.

use std::sync::Arc;

use cqap_suite::decomp::families::pmtds_3reach_fig1;
use cqap_suite::obs::{CounterId, StageId};
use cqap_suite::prelude::*;
use cqap_suite::query::workload::zipf_pair_requests;
use cqap_suite::store::scratch_dir;

const SHARDS: usize = 4;
const REQUESTS: usize = 600;

fn main() {
    let (cqap, pmtds) = pmtds_3reach_fig1().expect("paper PMTDs are valid");
    let graph = Graph::skewed(600, 3_600, 8, 220, 7);
    let db = graph.as_path_database(3);

    // A tiered deployment with half the S-budget in memory: the placement
    // policy spills the colder shards to disk-resident sorted runs.
    let spec = ShardSpec::new(&cqap, SHARDS).expect("spec");
    let sample: Vec<AccessRequest> = zipf_pair_requests(&graph, 200, 1.05, 3)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).expect("valid request"))
        .collect();
    let weights = PlacementPolicy::observe(&spec, &sample);
    let reference = CqapIndex::build(&cqap, &db, &pmtds).expect("reference build");
    let budget_bytes = reference.space_used() * std::mem::size_of::<Val>() / 2;
    let policy = PlacementPolicy::hot_budget(budget_bytes).with_weights(weights);
    let dir = scratch_dir("tiered");
    let sharded = ShardedIndex::build(&cqap, &db, &pmtds, SHARDS).expect("sharded build");
    let placement = sharded.replan(&policy);
    let mut tiered = ShardedIndex::from_sharded(sharded, &placement, &dir).expect("spill");
    println!("placement: {:?}", tiered.placements());

    // One live sink for everything. Attaching to the index needs exclusive
    // ownership (like `apply_delta`), so it happens before serving starts.
    let sink = MetricsSink::recording();
    tiered
        .set_metrics_sink(sink.clone())
        .expect("index not yet shared");

    // A delta batch: a fresh 3-path chain, one new join row, starting at
    // a vertex that hash-routes to a *cold* shard — so the ΔS-views land
    // as pending overlay tuples over a disk-resident run. The apply
    // latency and net-op counters land in the sink.
    let placements = tiered.placements();
    assert!(
        placements.contains(&ShardTier::Cold),
        "a half-S budget must spill at least one shard"
    );
    let base = (10_000..)
        .step_by(10)
        .find(|&b| {
            placements[spec.shard_of_binding(&Tuple::pair(b, b + 3))] == ShardTier::Cold
        })
        .expect("some base routes cold");
    let mut batch = DeltaBatch::new();
    for (i, rel) in db.relations().iter().enumerate() {
        let from = base + i as u64;
        batch = batch.insert(rel.name().to_string(), vec![Tuple::pair(from, from + 1)]);
    }
    // Bracket the apply with snapshots: `MetricsSnapshot::delta` isolates
    // exactly what this phase recorded, the way a long-running process
    // reports per-window rates instead of ever-growing totals.
    let before_apply = sink.snapshot().expect("sink is recording");
    tiered.apply_delta(&batch).expect("delta applies");

    // The delta window: only what the apply phase itself did. The window
    // histogram carries the apply latency, the window counters the net
    // ops — and nothing from the build or the serving that follows.
    let window = sink
        .snapshot()
        .expect("sink is recording")
        .delta(&before_apply);
    println!(
        "delta-apply window: {} apply in {} ns (p50), {} net inserts",
        window.stage(StageId::DeltaApply).count,
        window.stage(StageId::DeltaApply).p50(),
        window.counter(CounterId::DeltaNetInserts),
    );
    assert_eq!(
        window.stage(StageId::DeltaApply).count,
        SHARDS as u64,
        "the window isolates exactly this batch's per-shard applies"
    );
    assert!(
        window.counter(CounterId::DeltaNetInserts) >= db.relations().len() as u64,
        "the chain's net inserts land inside the window"
    );
    assert_eq!(
        window.stage(StageId::BackendProbe).count,
        0,
        "no serving activity leaks into the delta window"
    );

    // Probe the fresh chain: the request routes to the cold shard whose
    // overlay is still pending, which is counted by the sink.
    let chain = AccessRequest::single(cqap.access(), &[base, base + 3]).expect("valid request");
    assert!(
        !tiered.answer(&chain).expect("chain answer").is_empty(),
        "the inserted chain must be visible"
    );

    // Serve a zipf stream through a stock runtime built over the same
    // sink: stage timings and pool gauges aggregate into one recorder.
    let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, REQUESTS, 1.05, 11)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).expect("valid request"))
        .collect();
    let runtime = ServeRuntime::with_metrics(
        Arc::new(tiered),
        ServeConfig {
            threads: cqap_suite::serve::default_threads(),
            cache_capacity: 1_024,
            ..ServeConfig::default()
        },
        sink.clone(),
    );
    runtime.serve_batch(&requests).expect("cold pass");
    runtime.serve_batch(&requests).expect("warm pass");
    println!("stats: {}", runtime.stats());
    // Join the pool so every in-flight worker lap has landed in the sink;
    // the index drops with it and deletes its spilled runs.
    drop(runtime);
    std::fs::remove_dir(&dir).expect("spill dir empty");

    // The merged snapshot, as Prometheus would scrape it.
    let snapshot = sink.snapshot().expect("sink is recording");
    let exposition = snapshot.to_prometheus();
    println!("\n{exposition}");

    // Every lifecycle stage must have recorded: this is the example's
    // regression check that the seam stays wired through all layers.
    for stage in [
        StageId::QueueWait,
        StageId::CacheLookup,
        StageId::Coalesce,
        StageId::BackendProbe,
        StageId::TicketDelivery,
        StageId::DeltaApply,
    ] {
        let hist = snapshot.stage(stage);
        assert!(hist.count > 0, "stage {} never recorded", stage.name());
        println!(
            "{:<16} count {:>6}  p50 {:>9} ns  p99 {:>9} ns  p999 {:>9} ns",
            stage.name(),
            hist.count,
            hist.p50(),
            hist.p99(),
            hist.p999(),
        );
    }
    assert!(
        snapshot.counter(CounterId::SegmentReads) > 0,
        "cold-tier probes must read segments"
    );
    assert!(
        snapshot.counter(CounterId::SegmentBytesRead)
            >= snapshot.counter(CounterId::SegmentReads),
        "segment reads are at least one byte each"
    );
    assert!(
        snapshot.counter(CounterId::FilterNegatives) > 0,
        "cold-tier probes for absent keys are answered by the key filter"
    );
    assert!(
        snapshot.counter(CounterId::OverlayPendingProbes) > 0,
        "probes over the un-compacted delta overlay are counted"
    );
    // Relations that do not mention the routing variable replicate across
    // shards, so the chain lands as at least one net insert per relation
    // (and more with replication).
    assert!(
        snapshot.counter(CounterId::DeltaNetInserts) >= db.relations().len() as u64,
        "the chain's net inserts are counted"
    );
    assert!(
        exposition.contains("# TYPE cqap_stage_duration_nanoseconds histogram")
            && exposition.contains("cqap_store_segment_reads_total"),
        "exposition carries the stage histograms and store counters"
    );
    println!("\nAll expected stages and counters recorded — the sink seam is wired through.");
}
