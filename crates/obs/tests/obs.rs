//! Test suite for `cqap-obs`:
//!
//! * a property test checking the histogram's quantile estimates
//!   against the exact quantiles of the recorded sample — the estimate
//!   must land in the same bucket, i.e. within one bucket width;
//! * a concurrent multi-thread recording test plus a per-worker
//!   merge test;
//! * a golden test pinning the Prometheus text exposition byte-for-byte
//!   (regenerate with `BLESS_GOLDEN=1 cargo test -p cqap-obs`), plus a
//!   structural validity check of the exposition grammar.

use std::sync::Arc;
use std::thread;

use cqap_obs::{
    to_chrome_trace, CounterId, FlightRecorder, GaugeId, HistogramSnapshot, LatencyHistogram,
    MetricsSink, Recorder, SamplingPolicy, StageId, TraceEvent, TraceId, TraceStage,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact `q`-quantile of a sample by the nearest-rank definition used
/// by `HistogramSnapshot::quantile_bounds`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Draws a latency sample from one of three shapes: uniform,
/// heavy-tailed (uniform-of-exponents), or a bimodal fast-path /
/// slow-outlier mixture reaching past the histogram's overflow bucket.
fn draw_sample(rng: &mut StdRng, dist: u8) -> u64 {
    match dist % 3 {
        0 => rng.random_range(0u64..10_000_000),
        1 => {
            let exp = rng.random_range(0u32..36);
            rng.random_range(1u64..2 + (1u64 << exp))
        }
        _ => {
            if rng.random_range(0u32..100) < 95 {
                rng.random_range(200u64..2_000)
            } else {
                rng.random_range(1_000_000_000u64..2_000_000_000_000)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// For every distribution shape and every headline quantile, the
    /// bucketed estimate lies in the bucket guaranteed to contain the
    /// exact sample quantile, so its absolute error is at most one
    /// bucket width.
    #[test]
    fn quantile_estimate_within_one_bucket_width(
        seed in 0u64..1_000_000,
        len in 1usize..500,
        dist in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hist = LatencyHistogram::new();
        let mut samples = Vec::with_capacity(len);
        for _ in 0..len {
            let v = draw_sample(&mut rng, dist);
            samples.push(v);
            hist.record_ns(v);
        }
        samples.sort_unstable();
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, len as u64);
        prop_assert_eq!(snap.min, samples[0]);
        prop_assert_eq!(snap.max, *samples.last().unwrap());

        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&samples, q);
            let (lo, hi) = snap.quantile_bounds(q);
            prop_assert!(
                lo <= exact && exact < hi,
                "exact q={} quantile {} outside bucket bounds [{}, {})",
                q, exact, lo, hi
            );
            let est = snap.quantile(q);
            prop_assert!(lo <= est && est < hi);
            prop_assert!(
                est.abs_diff(exact) <= hi - lo,
                "q={}: estimate {} vs exact {} differs by more than bucket width {}",
                q, est, exact, hi - lo
            );
        }
    }
}

/// Many threads hammering one shared recorder through cloned sinks:
/// nothing is lost, and the queue-depth gauge returns to zero.
#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let sink = MetricsSink::recording();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let sink = sink.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    sink.gauge_add(GaugeId::QueueDepth, 1);
                    sink.observe_ns(StageId::BackendProbe, (t + 1) * 1_000 + i % 7);
                    sink.add(CounterId::SegmentBytesRead, 64);
                    sink.incr(CounterId::SegmentReads);
                    sink.shard_served(t as usize % 4);
                    sink.gauge_add(GaugeId::QueueDepth, -1);
                }
            });
        }
    });
    let snap = sink.snapshot().unwrap();
    let total = THREADS * PER_THREAD;
    assert_eq!(snap.stage(StageId::BackendProbe).count, total);
    assert_eq!(
        snap.stage(StageId::BackendProbe).buckets.iter().sum::<u64>(),
        total
    );
    assert_eq!(snap.counter(CounterId::SegmentReads), total);
    assert_eq!(snap.counter(CounterId::SegmentBytesRead), total * 64);
    assert_eq!(snap.gauge(GaugeId::QueueDepth), 0);
    assert_eq!(snap.shard_served.iter().sum::<u64>(), total);
    assert_eq!(snap.shard_served.len(), 4);
    assert_eq!(snap.stage(StageId::BackendProbe).min, 1_000);
    assert_eq!(snap.stage(StageId::BackendProbe).max, THREADS * 1_000 + 6);
}

/// Per-worker histogram snapshots merged into one are indistinguishable
/// from recording everything into one histogram directly.
#[test]
fn per_worker_merge_equals_direct_recording() {
    const WORKERS: u64 = 4;
    let locals: Vec<Arc<LatencyHistogram>> =
        (0..WORKERS).map(|_| Arc::new(LatencyHistogram::new())).collect();
    let reference = LatencyHistogram::new();
    let mut rng = StdRng::seed_from_u64(42);
    let mut per_worker_values: Vec<Vec<u64>> = vec![Vec::new(); WORKERS as usize];
    for i in 0..20_000u64 {
        let v = draw_sample(&mut rng, (i % 3) as u8);
        per_worker_values[(i % WORKERS) as usize].push(v);
        reference.record_ns(v);
    }
    thread::scope(|scope| {
        for (hist, values) in locals.iter().zip(&per_worker_values) {
            let hist = Arc::clone(hist);
            scope.spawn(move || {
                for &v in values {
                    hist.record_ns(v);
                }
            });
        }
    });

    let mut merged = HistogramSnapshot::empty();
    for local in &locals {
        merged.merge(&local.snapshot());
    }
    assert_eq!(merged, reference.snapshot());
}

/// Builds the deterministic snapshot the golden exposition is pinned
/// to: two stages with known observations, every counter touched, a
/// live queue depth, and skewed two-shard traffic.
fn golden_recorder() -> Arc<Recorder> {
    let recorder = Arc::new(Recorder::new());
    let sink = MetricsSink::attached(Arc::clone(&recorder));
    sink.observe_ns(StageId::CacheLookup, 120);
    sink.observe_ns(StageId::CacheLookup, 150);
    sink.observe_ns(StageId::CacheLookup, 151);
    sink.observe_ns(StageId::BackendProbe, 5_000);
    sink.observe_ns(StageId::BackendProbe, 250_000_000_000); // overflow bucket
    for (i, counter) in CounterId::ALL.into_iter().enumerate() {
        sink.add(counter, (i as u64 + 1) * 10);
    }
    sink.gauge_add(GaugeId::QueueDepth, 3);
    sink.gauge_set(GaugeId::HotResidentBytes, 262_144);
    sink.gauge_set(GaugeId::ColdResidentBytes, 16_384);
    sink.gauge_set(GaugeId::ColdDiskBytes, 65_536);
    sink.shard_served(0);
    sink.shard_served(0);
    sink.shard_served(0);
    sink.shard_served(1);
    recorder
}

/// The exposition output is pinned byte-for-byte against
/// `golden_prometheus.txt`. Run with `BLESS_GOLDEN=1` to regenerate
/// the file after an intentional format change.
#[test]
fn prometheus_exposition_matches_golden() {
    let rendered = golden_recorder().snapshot().to_prometheus();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_prometheus.txt");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(path).expect(
        "golden file missing; regenerate with BLESS_GOLDEN=1 cargo test -p cqap-obs",
    );
    assert_eq!(
        rendered, expected,
        "Prometheus exposition drifted from golden_prometheus.txt; \
         if intentional, regenerate with BLESS_GOLDEN=1"
    );
}

/// Structural validity of the exposition: every sample line parses as
/// `name{{labels}} value`, histogram buckets are cumulative and end at
/// `+Inf == count`, and every TYPE declaration precedes its samples.
#[test]
fn prometheus_exposition_is_well_formed() {
    let text = golden_recorder().snapshot().to_prometheus();
    let mut last_bucket: Option<(String, u64)> = None;
    let mut counts = std::collections::HashMap::new();
    let mut infs = std::collections::HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (metric, value) = line.rsplit_once(' ').expect("sample line has a value");
        value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in: {line}"));
        let name = metric.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        if let Some(labels) = metric.strip_prefix(name).and_then(|r| r.strip_prefix('{')) {
            let labels = labels.strip_suffix('}').expect("label block closes");
            for pair in labels.split(',') {
                let (k, v) = pair.split_once('=').expect("label is key=value");
                assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
            }
        }
        if name == "cqap_stage_duration_nanoseconds_bucket" {
            let stage = metric
                .split("stage=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .expect("bucket line has a stage label")
                .to_string();
            let cum: u64 = value.parse().unwrap();
            if let Some((prev_stage, prev)) = &last_bucket {
                if *prev_stage == stage {
                    assert!(cum >= *prev, "buckets must be cumulative: {line}");
                }
            }
            if metric.contains("le=\"+Inf\"") {
                infs.insert(stage.clone(), cum);
            }
            last_bucket = Some((stage, cum));
        } else if name == "cqap_stage_duration_nanoseconds_count" {
            let stage = metric
                .split("stage=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .unwrap()
                .to_string();
            counts.insert(stage, value.parse::<u64>().unwrap());
        }
    }
    assert!(!counts.is_empty(), "exposition contains stage histograms");
    for (stage, count) in &counts {
        assert_eq!(
            infs.get(stage),
            Some(count),
            "+Inf bucket must equal _count for stage {stage}"
        );
    }
}

/// `MetricsSnapshot::delta` recovers exactly the activity between two
/// cumulative snapshots: counters/buckets subtract, gauges carry the
/// signed change, and the delta histogram matches one that recorded
/// only the window's observations (bucket-for-bucket).
#[test]
fn snapshot_delta_isolates_the_window() {
    let sink = MetricsSink::recording();
    sink.observe_ns(StageId::BackendProbe, 4_000);
    sink.observe_ns(StageId::BackendProbe, 900);
    sink.add(CounterId::SegmentReads, 7);
    sink.gauge_add(GaugeId::QueueDepth, 5);
    sink.shard_served(0);
    let earlier = sink.snapshot().unwrap();

    sink.observe_ns(StageId::BackendProbe, 64_000);
    sink.observe_ns(StageId::BackendProbe, 120_000);
    sink.observe_ns(StageId::DeltaApply, 1_000_000);
    sink.add(CounterId::SegmentReads, 3);
    sink.gauge_add(GaugeId::QueueDepth, -2);
    sink.shard_served(0);
    sink.shard_served(1);
    let later = sink.snapshot().unwrap();

    let delta = later.delta(&earlier);
    assert_eq!(delta.counter(CounterId::SegmentReads), 3);
    assert_eq!(delta.gauge(GaugeId::QueueDepth), -2);
    assert_eq!(delta.shard_served, vec![1, 1]);
    assert_eq!(delta.stage(StageId::BackendProbe).count, 2);
    assert_eq!(delta.stage(StageId::DeltaApply).count, 1);
    assert_eq!(delta.stage(StageId::CacheLookup).count, 0);

    // The window's histogram matches a histogram fed only the window.
    let window_only = LatencyHistogram::new();
    window_only.record_ns(64_000);
    window_only.record_ns(120_000);
    let expected = window_only.snapshot();
    let got = delta.stage(StageId::BackendProbe);
    assert_eq!(got.buckets, expected.buckets);
    assert_eq!(got.sum, expected.sum);
    // min/max are bucket-resolution reconstructions, bounded by the
    // window's containing buckets.
    let (lo, _) = cqap_obs::bucket_range(cqap_obs::bucket_of(64_000));
    let (_, hi) = cqap_obs::bucket_range(cqap_obs::bucket_of(120_000));
    assert!(got.min >= lo && got.min <= 64_000);
    assert!(got.max >= 120_000 && got.max < hi);
    // An empty window is empty.
    let none = later.delta(&later);
    assert!(none.stage(StageId::BackendProbe).is_empty());
    assert_eq!(none.counter(CounterId::SegmentReads), 0);
}

/// Deterministic event set for the Chrome-trace golden file.
fn golden_trace_events() -> Vec<TraceEvent> {
    let mk = |trace_id, stage, shard, t0, t1, payload| TraceEvent {
        trace_id,
        stage,
        shard,
        t_start_ns: t0,
        t_end_ns: t1,
        payload,
    };
    vec![
        mk(1, TraceStage::QueueWait, 0, 1_000, 4_500, 0),
        mk(1, TraceStage::BackendProbe, 2, 4_500, 61_000, 0),
        mk(1, TraceStage::SegmentRead, 2, 9_000, 21_500, 4_096),
        mk(1, TraceStage::OverlayProbe, 2, 22_000, 30_000, 12),
        mk(0, TraceStage::Compaction, 2, 10_000, 55_000, 0),
        mk(1, TraceStage::TicketDelivery, 0, 61_000, 62_000, 0),
        mk(1, TraceStage::Request, 0, 1_000, 62_000, 61_000),
    ]
}

/// The Chrome trace-event export is pinned byte-for-byte against
/// `golden_chrome_trace.json` (regenerate with `BLESS_GOLDEN=1`).
#[test]
fn chrome_trace_matches_golden() {
    let rendered = to_chrome_trace(&golden_trace_events());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_chrome_trace.json");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(path).expect(
        "golden file missing; regenerate with BLESS_GOLDEN=1 cargo test -p cqap-obs",
    );
    assert_eq!(
        rendered, expected,
        "Chrome trace export drifted from golden_chrome_trace.json; \
         if intentional, regenerate with BLESS_GOLDEN=1"
    );
}

/// A full request lifecycle recorded through the sink seam round-trips
/// into a drained trace: span laps, leaf events under a `TraceScope`,
/// and the committed root, all sharing one trace id.
#[test]
fn sink_lifecycle_round_trips_through_the_ring() {
    let tracer = Arc::new(FlightRecorder::new(64, SamplingPolicy::Always));
    let sink = MetricsSink::recording().with_tracer(Arc::clone(&tracer));
    let shard_sink = sink.with_shard_label(3);

    // Outside any scope the span begins, and owns, a trace of its own.
    let root = sink.span();
    let id = TraceId::from(&root);
    assert!(id.is_sampled());
    let mut span = {
        let _scope = cqap_obs::trace::TraceScope::enter(&root);
        let mut read = shard_sink.inner_span(TraceStage::SegmentRead);
        read.lap(TraceStage::SegmentRead, 512);
        // Inside the scope a span joins the root's trace.
        shard_sink.span()
    };
    span.lap(StageId::BackendProbe, 0);
    span.lap(StageId::TicketDelivery, 0);
    drop(span);
    drop(root); // commits the root

    let events = tracer.drain();
    let of_id: Vec<&TraceEvent> = events.iter().filter(|e| e.trace_id == id.get()).collect();
    let stages: Vec<TraceStage> = of_id.iter().map(|e| e.stage).collect();
    assert!(stages.contains(&TraceStage::SegmentRead));
    assert!(stages.contains(&TraceStage::BackendProbe));
    assert!(stages.contains(&TraceStage::TicketDelivery));
    assert!(stages.contains(&TraceStage::Request));
    // The shard label sticks to events from the labelled clone.
    assert!(of_id
        .iter()
        .filter(|e| e.stage == TraceStage::BackendProbe)
        .all(|e| e.shard == 3));
    // The histograms recorded the same laps.
    let snap = sink.snapshot().unwrap();
    assert_eq!(snap.stage(StageId::BackendProbe).count, 1);
    assert_eq!(snap.stage(StageId::TicketDelivery).count, 1);
    // Outside the scope, an unsampled leaf span stays disarmed and records
    // nothing (`sink::tests` checks that its clock never runs).
    shard_sink
        .inner_span(TraceStage::SegmentRead)
        .lap(TraceStage::SegmentRead, 512);
    assert_eq!(tracer.drain().len(), events.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ring-buffer wraparound under concurrent writers: N threads race
    /// M events each into a ring smaller than the total. The drained
    /// set must be a consistent subset of what was written — every
    /// event's fields match exactly one written event (no torn mixes
    /// of two writes) — and on sequential overflow the newest events
    /// win (checked in the single-writer branch below).
    #[test]
    fn ring_wraparound_under_concurrent_writers(
        threads in 1usize..5,
        per_thread in 1u64..300,
        capacity in 1usize..48,
    ) {
        let fr = Arc::new(FlightRecorder::new(capacity, SamplingPolicy::Always));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let fr = Arc::clone(&fr);
                scope.spawn(move || {
                    let id = TraceId::from_raw(t as u64 + 1);
                    for i in 0..per_thread {
                        // Fields are a function of (thread, i), so a
                        // torn slot (fields from two writes) cannot
                        // satisfy the consistency check below.
                        let t0 = (t as u64 + 1) * 1_000_000 + i * 10;
                        fr.record(id, TraceStage::SegmentRead, t as u16, t0, t0 + 5, t0 ^ 0xABCD);
                    }
                });
            }
        });
        let events = fr.drain();
        prop_assert!(events.len() <= capacity);
        let total_written = threads as u64 * per_thread;
        let min_survivors = std::cmp::min(capacity as u64, total_written)
            .saturating_sub(fr.contended_drops());
        prop_assert!(
            events.len() as u64 >= min_survivors,
            "{} events drained, expected at least {} (cap {}, written {}, contended {})",
            events.len(), min_survivors, capacity, total_written, fr.contended_drops()
        );
        for ev in &events {
            // Reconstruct the (thread, i) this event claims to be and
            // verify every field agrees — a torn event fails here.
            prop_assert_eq!(ev.stage, TraceStage::SegmentRead);
            let t = ev.trace_id.checked_sub(1).expect("trace id >= 1");
            prop_assert!(t < threads as u64);
            let t0 = ev.t_start_ns;
            let i = t0.checked_sub((t + 1) * 1_000_000).expect("start offset") / 10;
            prop_assert!(i < per_thread);
            prop_assert_eq!(t0 % 10, 0);
            prop_assert_eq!(ev.shard as u64, t);
            prop_assert_eq!(ev.t_end_ns, t0 + 5);
            prop_assert_eq!(ev.payload, t0 ^ 0xABCD);
        }
        // No event is drained twice (each written event is unique).
        let mut seen: Vec<(u64, u64)> = events.iter().map(|e| (e.trace_id, e.t_start_ns)).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), events.len(), "drained events are distinct");

        // Single-writer overflow is deterministic: newest wins.
        if threads == 1 && per_thread > capacity as u64 {
            let newest_start = 1_000_000 + (per_thread - 1) * 10;
            prop_assert!(
                events.iter().any(|e| e.t_start_ns == newest_start),
                "the newest event must survive overflow"
            );
        }
    }
}
