//! Lock-free metrics and request-lifecycle tracing for the CQAP
//! serving stack.
//!
//! The serving layers built in earlier PRs (runtime, work-stealing
//! pool, shard router, cold store, delta maintenance) expose only
//! end-of-run counters; this crate adds the latency distributions and
//! live gauges needed to reason about tail behaviour. Everything is
//! std-only and lock-free:
//!
//! - [`LatencyHistogram`] — fixed log-bucketed `AtomicU64` histograms,
//!   two buckets per octave from 100ns to ~100s, mergeable across
//!   workers, with quantile estimates (p50/p95/p99/p999) whose error
//!   is bounded by one bucket width.
//! - [`Recorder`] / [`MetricsSink`] — the instrumentation seam. A
//!   `Recorder` is a fixed registry of stage histograms
//!   ([`StageId`]), event counters ([`CounterId`]), gauges
//!   ([`GaugeId`]) and per-shard served counts. A `MetricsSink` is a
//!   cheap-clone, possibly-disabled handle to one; a disabled sink
//!   reduces every recording call to a null check, so instrumented
//!   warm paths stay allocation-free and effectively free when
//!   metrics are off.
//! - [`Span`] — the one stage timer: a request's (or a maintenance
//!   job's) timeline of consecutive stage laps. Each lap reads the clock
//!   once and writes that reading to the stage histogram and the flight
//!   recorder; a span opened outside any [`TraceScope`] owns its trace's
//!   root and commits it when dropped. A disabled sink's spans never
//!   read the clock.
//! - [`MetricsSnapshot`] — an owned copy of a recorder, exportable as
//!   Prometheus text exposition
//!   ([`to_prometheus`](MetricsSnapshot::to_prometheus)); two
//!   snapshots subtract into an interval window
//!   ([`delta`](MetricsSnapshot::delta)).
//! - [`trace`] — the flight recorder: a fixed-capacity seqlock ring
//!   of compact per-request trace events ([`FlightRecorder`]),
//!   sampled by [`SamplingPolicy`], exported as Chrome trace-event
//!   JSON ([`to_chrome_trace`]) with a slowest-requests cause report
//!   ([`tail_attribution`]).
//!
//! # Example
//!
//! ```
//! use cqap_obs::{MetricsSink, StageId, CounterId};
//!
//! let sink = MetricsSink::recording();
//! let mut span = sink.span();
//! // ... look the request up ...
//! span.lap(StageId::CacheLookup, 0);
//! // ... probe the index ...
//! span.lap(StageId::BackendProbe, 0);
//! sink.incr(CounterId::SegmentReads);
//!
//! let snap = sink.snapshot().unwrap();
//! assert_eq!(snap.stage(StageId::CacheLookup).count, 1);
//! assert_eq!(snap.stage(StageId::BackendProbe).count, 1);
//! assert_eq!(snap.counter(CounterId::SegmentReads), 1);
//! println!("{}", snap.to_prometheus());
//! ```

#![deny(missing_docs)]

mod export;
mod hist;
mod sink;
pub mod trace;

pub use export::MetricsSnapshot;
pub use hist::{bucket_of, bucket_range, HistogramSnapshot, LatencyHistogram};
pub use sink::{CounterId, GaugeId, MetricsSink, Recorder, Span, StageId};
pub use trace::{
    tail_attribution, to_chrome_trace, FlightRecorder, SamplingPolicy, TailBucket, TailReport,
    TraceEvent, TraceId, TraceScope, TraceStage,
};
