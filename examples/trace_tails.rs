//! Flight-recorder tracing under open-loop load: where the tail comes from.
//!
//! ```sh
//! cargo run --release --example trace_tails
//! ```
//!
//! A closed-loop driver (next request waits for the previous answer) can
//! never see real queueing: offered load self-throttles to service
//! capacity. This example drives an **open-loop** Poisson arrival stream —
//! requests are submitted at their scheduled times whether or not earlier
//! answers came back — against a deliberately under-provisioned deployment,
//! and uses the `cqap-obs` flight recorder to explain the resulting tail:
//!
//! 1. a `ShardedIndex` is placed with **every shard cold** (zero hot
//!    budget), so each backend probe pays disk fence reads, and a delta
//!    batch leaves **pending overlay tuples** on the cold runs — every
//!    probe merges the uncompacted overlay until compaction folds it away;
//! 2. a `FlightRecorder` rides the metrics sink: each sampled request's
//!    queue wait, backend probe, ticket delivery, segment reads and
//!    overlay probes are written into a lock-free ring as timestamped
//!    events sharing the request's trace id;
//! 3. an open-loop stream (`poisson_arrivals_ns` × drifting-zipf keys,
//!    offered well above the 2-thread service capacity) is replayed with
//!    real sleeps, so queueing delay genuinely compounds;
//! 4. the drained ring is exported as Chrome trace-event JSON
//!    (`target/trace_tails.json` — load it in `about:tracing` or Perfetto)
//!    and summarized by `tail_attribution`: the slowest fraction of
//!    requests, grouped by dominant stage and co-occurring store-side
//!    markers.
//!
//! The example asserts the two causes the setup engineers: at least one
//! tail bucket dominated by queue wait (the open-loop overload), and at
//! least one tail bucket carrying the `overlay_pending` marker (probes
//! that had to merge the uncompacted delta overlay on a cold shard).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqap_suite::decomp::families::pmtds_3reach_fig1;
use cqap_suite::obs::{
    tail_attribution, to_chrome_trace, FlightRecorder, SamplingPolicy, TraceStage,
};
use cqap_suite::prelude::*;
use cqap_suite::query::workload::open_loop_pair_stream;
use cqap_suite::store::scratch_dir;

const SHARDS: usize = 2;
const THREADS: usize = 2;
const REQUESTS: usize = 500;
/// Offered arrival rate, requests/second. Cold-shard probes take tens of
/// microseconds to milliseconds each, so 50k/s over 2 workers is far past
/// saturation — exactly the regime where open-loop queues grow.
const RATE_PER_SEC: f64 = 50_000.0;
/// The slowest fraction of committed traces the report analyzes.
const TAIL_FRACTION: f64 = 0.2;

fn main() {
    let (cqap, pmtds) = pmtds_3reach_fig1().expect("paper PMTDs are valid");
    let graph = Graph::skewed(500, 3_000, 8, 200, 7);
    let db = graph.as_path_database(3);

    // Zero hot budget: every shard spills, every probe is a disk probe.
    let policy = PlacementPolicy::hot_budget(0);
    let dir = scratch_dir("tiered");
    let sharded = ShardedIndex::build(&cqap, &db, &pmtds, SHARDS).expect("sharded build");
    let placement = sharded.replan(&policy);
    let mut tiered = ShardedIndex::from_sharded(sharded, &placement, &dir).expect("spill");
    assert!(
        tiered.placements().iter().all(|t| *t == ShardTier::Cold),
        "zero budget spills everything"
    );

    // The flight recorder rides the sink. `Always` samples every request:
    // this run exists to be analyzed, so no sampling economy is taken.
    let tracer = Arc::new(FlightRecorder::new(1 << 16, SamplingPolicy::Always));
    let sink = MetricsSink::recording().with_tracer(Arc::clone(&tracer));
    tiered
        .set_metrics_sink(sink.clone())
        .expect("index not yet shared");

    // A delta batch: fresh 3-path chains whose ΔS-views land as pending
    // overlay tuples on the cold runs. The batch is small enough that no
    // shard auto-compacts, so the overlay stays pending for the entire
    // serving phase and every probe into it carries the
    // `overlay_pending` marker.
    let mut batch = DeltaBatch::new();
    for (i, rel) in db.relations().iter().enumerate() {
        let tuples: Vec<Tuple> = (0..4)
            .map(|c| {
                let from = 10_000 + 10 * c + i as u64;
                Tuple::pair(from, from + 1)
            })
            .collect();
        batch = batch.insert(rel.name().to_string(), tuples);
    }
    tiered.apply_delta(&batch).expect("delta applies");

    // An under-provisioned runtime over the cold tiers. The tiny cache
    // plus the drifting-zipf key rotation keeps most probes cold.
    let runtime = ServeRuntime::with_metrics(
        Arc::new(tiered),
        ServeConfig {
            threads: THREADS,
            cache_capacity: 64,
            ..ServeConfig::default()
        },
        sink.clone(),
    );

    // Open-loop replay: sleep until each request's scheduled arrival and
    // submit without waiting for earlier answers. When service falls
    // behind the schedule, later requests are submitted immediately —
    // that is the open loop: offered load does not self-throttle, and
    // the backlog shows up as queue-wait time in the traces.
    let stream = open_loop_pair_stream(&graph, REQUESTS, RATE_PER_SEC, 0.9, 1.3, 100, 29);
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(stream.len());
    for (at_ns, (u, v)) in stream {
        if let Some(ahead) = Duration::from_nanos(at_ns).checked_sub(started.elapsed()) {
            std::thread::sleep(ahead);
        }
        let request =
            AccessRequest::single(cqap.access(), &[u, v]).expect("valid request");
        tickets.push(runtime.submit(request));
    }
    for ticket in tickets {
        ticket.wait().expect("request answers");
    }
    println!("stats: {}", runtime.stats());
    // Join the pool so every in-flight span has landed in the ring; the
    // index drops with it and deletes its spilled runs.
    drop(runtime);
    std::fs::remove_dir(&dir).expect("spill dir empty");

    let events = tracer.drain();
    println!(
        "drained {} trace events ({} dropped under contention)",
        events.len(),
        tracer.contended_drops()
    );
    assert!(!events.is_empty(), "the recorder captured the run");

    // Chrome trace-event export: load target/trace_tails.json in
    // about:tracing or https://ui.perfetto.dev to see the lanes.
    let chrome = to_chrome_trace(&events);
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/trace_tails.json", &chrome).expect("write export");
    println!("wrote target/trace_tails.json ({} bytes)", chrome.len());

    // Validate the export without a JSON dependency: the criterion shim's
    // string parser walks the (name, tid) pairs, and at least one trace
    // must be complete across layers — a request root plus its queue
    // wait, backend probe, and a store-side leg, all on one tid lane.
    let complete = complete_cross_layer_traces(&chrome);
    println!("complete cross-layer traces in the export: {complete}");
    assert!(
        complete >= 1,
        "the Chrome export must carry at least one complete cross-layer trace"
    );

    // The attribution report: slowest TAIL_FRACTION of committed traces,
    // grouped by dominant stage + store-side markers.
    let report = tail_attribution(&events, TAIL_FRACTION);
    println!("\n{report}");
    assert!(report.traces > 0, "committed traces reached the report");

    // The two engineered causes must both be visible in the tail:
    // open-loop overload shows up as queue-wait-dominated buckets...
    assert!(
        report.has_dominant(TraceStage::QueueWait),
        "open-loop overload must produce a queue-wait-dominated tail bucket"
    );
    // ...and the uncompacted delta overlay shows up as a store-side
    // cause: tail probes that had to merge pending overlay tuples.
    assert!(
        report.has_marker("overlay_pending"),
        "cold probes over the pending overlay must mark a tail bucket"
    );
    println!(
        "tail causes confirmed: queue-wait domination (open-loop overload) \
         and overlay-pending store probes (uncompacted delta)."
    );
}

/// Counts tid lanes in the Chrome export that carry a complete
/// cross-layer trace: the `request` root plus `queue_wait`,
/// `backend_probe`, and at least one store-side leg (`segment_read` or
/// `overlay_probe`). Parsing reuses [`criterion::parse_json_string`] —
/// the same tiny parser the bench baselines use — so the example needs
/// no JSON dependency.
fn complete_cross_layer_traces(chrome: &str) -> usize {
    let mut lanes: HashMap<u64, HashSet<String>> = HashMap::new();
    let mut rest = chrome;
    while let Some(at) = rest.find("\"name\":") {
        rest = &rest[at + "\"name\":".len()..];
        let Some((name, after)) = criterion::parse_json_string(rest) else {
            continue;
        };
        // `to_chrome_trace` writes `"tid"` right after the fixed fields
        // of the same record, before the nested `"args"` object.
        if let Some(tid_at) = after.find("\"tid\":") {
            let digits = after[tid_at + "\"tid\":".len()..].trim_start();
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            if let Ok(tid) = digits[..end].parse::<u64>() {
                lanes.entry(tid).or_default().insert(name);
            }
        }
        rest = after;
    }
    lanes
        .values()
        .filter(|stages| {
            stages.contains("request")
                && stages.contains("queue_wait")
                && stages.contains("backend_probe")
                && (stages.contains("segment_read") || stages.contains("overlay_probe"))
        })
        .count()
}
