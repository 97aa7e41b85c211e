//! The whole serving stack under one metrics sink and one flight
//! recorder: a sharded index with cold shards, a delta batch left
//! pending in a cold shard's overlay, and a zipf stream served twice
//! through a `ServeRuntime`. Every layer records into the same sink, the
//! traces join the layers under one id, and the answers stay exactly the
//! unsharded index's.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cqap_common::Tuple;
use cqap_decomp::families::pmtds_3reach_fig1;
use cqap_delta::{ApplyDelta, DeltaBatch};
use cqap_obs::{
    tail_attribution, CounterId, FlightRecorder, MetricsSink, SamplingPolicy, StageId, TraceStage,
};
use cqap_panda::CqapIndex;
use cqap_query::workload::{zipf_pair_requests, Graph};
use cqap_query::AccessRequest;
use cqap_serve::{ServeConfig, ServeRuntime};
use cqap_shard::{ShardTier, ShardedIndex};
use cqap_store::scratch_dir;

const SHARDS: usize = 4;
const REQUESTS: usize = 300;

#[test]
fn one_sink_and_one_tracer_see_every_layer_of_a_cold_sharded_stack() {
    let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
    let graph = Graph::skewed(300, 1_500, 6, 100, 7);
    let db = graph.as_path_database(3);
    let mut reference = CqapIndex::build(&cqap, &db, &pmtds).unwrap();

    let dir = scratch_dir("observed-stack");
    let placement = [
        ShardTier::Hot,
        ShardTier::Cold,
        ShardTier::Hot,
        ShardTier::Cold,
    ];
    let sharded = ShardedIndex::build(&cqap, &db, &pmtds, SHARDS).unwrap();
    let mut tiered = ShardedIndex::from_sharded(sharded, &placement, &dir).unwrap();
    let tracer = Arc::new(FlightRecorder::new(1 << 16, SamplingPolicy::Always));
    let sink = MetricsSink::recording().with_tracer(Arc::clone(&tracer));
    tiered.set_metrics_sink(sink.clone()).unwrap();

    // A fresh 3-path chain starting at a vertex that routes to a cold
    // shard: its view rows land as pending overlay entries over the runs.
    let base = (10_000..)
        .step_by(10)
        .find(|&b| {
            placement[tiered.spec().shard_of_binding(&Tuple::pair(b, b + 3))] == ShardTier::Cold
        })
        .unwrap();
    let mut batch = DeltaBatch::new();
    for (i, rel) in db.relations().iter().enumerate() {
        let from = base + i as u64;
        batch = batch.insert(rel.name().to_string(), vec![Tuple::pair(from, from + 1)]);
    }
    let before_apply = sink.snapshot().unwrap();
    tiered.apply_delta(&batch).unwrap();
    reference.apply_delta(&batch).unwrap();
    // The window isolates this batch: one apply per shard, its net
    // inserts, and no serving activity.
    let window = sink.snapshot().unwrap().delta(&before_apply);
    assert_eq!(window.stage(StageId::DeltaApply).count, SHARDS as u64);
    assert!(window.counter(CounterId::DeltaNetInserts) >= db.relations().len() as u64);
    assert_eq!(window.stage(StageId::BackendProbe).count, 0);

    let mut requests: Vec<AccessRequest> = zipf_pair_requests(&graph, REQUESTS, 1.05, 11)
        .into_iter()
        .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
        .collect();
    requests.push(AccessRequest::single(cqap.access(), &[base, base + 3]).unwrap());
    let expected: Vec<_> = requests
        .iter()
        .map(|r| reference.answer(r).unwrap())
        .collect();
    assert!(
        !expected.last().unwrap().is_empty(),
        "the inserted chain is visible"
    );

    let runtime = ServeRuntime::with_metrics(
        Arc::new(tiered),
        ServeConfig {
            threads: 2,
            cache_capacity: 1_024,
            ..ServeConfig::default()
        },
        sink.clone(),
    );
    for pass in ["cold", "warm"] {
        let answers = runtime.serve_batch(&requests).unwrap();
        assert_eq!(answers.len(), expected.len());
        for (answer, expected) in answers.iter().zip(&expected) {
            assert_eq!(answer.as_ref(), expected, "{pass} pass");
        }
    }
    // Join the pool so every worker lap has landed in the sink and the
    // ring; the index drops with it and deletes its spilled runs.
    drop(runtime);
    std::fs::remove_dir(&dir).unwrap();

    let snapshot = sink.snapshot().unwrap();
    for stage in [
        StageId::QueueWait,
        StageId::CacheLookup,
        StageId::Coalesce,
        StageId::BackendProbe,
        StageId::TicketDelivery,
        StageId::DeltaApply,
    ] {
        assert!(
            snapshot.stage(stage).count > 0,
            "stage {} never recorded",
            stage.name()
        );
    }
    for counter in [
        CounterId::SegmentReads,
        CounterId::FilterNegatives,
        CounterId::OverlayPendingProbes,
    ] {
        assert!(
            snapshot.counter(counter) > 0,
            "{} never counted",
            counter.name()
        );
    }
    assert!(
        snapshot.counter(CounterId::SegmentBytesRead) >= snapshot.counter(CounterId::SegmentReads)
    );
    let exposition = snapshot.to_prometheus();
    assert!(exposition.contains("# TYPE cqap_stage_duration_nanoseconds histogram"));
    assert!(exposition.contains("cqap_store_segment_reads_total"));

    // One trace id joins the serving and the store layers.
    let events = tracer.drain();
    let mut stages: HashMap<u64, HashSet<TraceStage>> = HashMap::new();
    for event in &events {
        stages
            .entry(event.trace_id)
            .or_default()
            .insert(event.stage);
    }
    assert!(
        stages.values().any(|s| {
            [
                TraceStage::Request,
                TraceStage::QueueWait,
                TraceStage::BackendProbe,
            ]
            .iter()
            .all(|stage| s.contains(stage))
                && (s.contains(&TraceStage::SegmentRead) || s.contains(&TraceStage::OverlayProbe))
        }),
        "no trace carries a request root, queue wait, backend probe and store leg"
    );
    let report = tail_attribution(&events, 1.0);
    assert!(report.traces > 0);
    assert!(report.has_marker("overlay_pending"), "{report}");
}
