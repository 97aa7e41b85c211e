//! The `MetricsSink` seam: a nullable handle the serving stack records
//! through.
//!
//! Every instrumented layer (`ServeRuntime`, the work-stealing pool,
//! `ShardRouter`, `cqap-store`, `DeltaMaintenance`) holds a
//! [`MetricsSink`] by value. A sink is either *disabled* (the default —
//! a `None`, so every recording call is a branch on a null check and
//! compiles down to nothing) or *attached* to a shared [`Recorder`]
//! holding the actual atomics. Cloning a sink is a reference-count
//! bump; recording through one never allocates, so it is safe on the
//! warm request path.

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::export::MetricsSnapshot;
use crate::hist::LatencyHistogram;
use crate::trace::{self, FlightRecorder, TraceId, TraceStage};

/// Request-lifecycle stages timed by the serving stack, one latency
/// histogram each.
///
/// The first six stages decompose a request's path through
/// `ServeRuntime`; the last two time maintenance work (delta batches
/// and cold-store compaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageId {
    /// Time from a probe job's launch (admission, then the push onto
    /// the work-stealing pool) until a worker picked it up.
    QueueWait,
    /// Answer-cache / in-flight map lookup under the runtime state
    /// lock.
    CacheLookup,
    /// Forming a batch's fresh probes into jobs and dispatching them.
    Coalesce,
    /// The backend index probe itself (the Yannakakis answer call).
    BackendProbe,
    /// Unioning per-shard partial answers into one result.
    AnswerUnion,
    /// Publishing an answer to the ticket and fanning it out to
    /// duplicate waiters.
    TicketDelivery,
    /// Applying one delta batch through incremental maintenance.
    DeltaApply,
    /// Rewriting a stored view's sorted run to fold its overlay in.
    Compaction,
}

impl StageId {
    /// Number of stages.
    pub(crate) const COUNT: usize = 8;

    /// Every stage, in canonical export order.
    pub(crate) const ALL: [StageId; Self::COUNT] = [
        StageId::QueueWait,
        StageId::CacheLookup,
        StageId::Coalesce,
        StageId::BackendProbe,
        StageId::AnswerUnion,
        StageId::TicketDelivery,
        StageId::DeltaApply,
        StageId::Compaction,
    ];

    /// Stable snake_case name used as the `stage` label in exports.
    pub fn name(self) -> &'static str {
        match self {
            StageId::QueueWait => "queue_wait",
            StageId::CacheLookup => "cache_lookup",
            StageId::Coalesce => "coalesce",
            StageId::BackendProbe => "backend_probe",
            StageId::AnswerUnion => "answer_union",
            StageId::TicketDelivery => "ticket_delivery",
            StageId::DeltaApply => "delta_apply",
            StageId::Compaction => "compaction",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Monotonic event counters recorded by the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Successful steals in the work-stealing pool.
    PoolSteals,
    /// Times a pool worker parked after finding no work.
    PoolParks,
    /// Contiguous segment reads issued against stored views.
    SegmentReads,
    /// Bytes fetched by those segment reads (on-disk, compressed).
    SegmentBytesRead,
    /// Logical little-endian-`u64` bytes those reads decoded to (the
    /// v1-equivalent size of the walked records); together with
    /// [`CounterId::SegmentBytesRead`] this yields the cold tier's
    /// effective compression ratio.
    SegmentBytesDecoded,
    /// Probes served while a stored view had un-compacted overlay
    /// entries pending.
    OverlayPendingProbes,
    /// Stored-view compactions performed.
    Compactions,
    /// Net tuple insertions applied by delta maintenance.
    DeltaNetInserts,
    /// Net tuple deletions applied by delta maintenance.
    DeltaNetDeletes,
    /// Requests shed at the admission gate, counted per resolved
    /// ticket.
    RequestsShed,
    /// Requests dropped because their deadline passed before the
    /// backend probe, counted per resolved ticket.
    DeadlinesExpired,
    /// Requests answered in degrade mode (cheapest plan only, past
    /// the queue-depth watermark).
    DegradedAnswers,
    /// Stored-view probes a run's key filter answered "no record"
    /// without a fence search or a segment read. Every probe of a run
    /// is one of these or one of [`CounterId::SegmentReads`].
    FilterNegatives,
}

impl CounterId {
    /// Number of counters.
    pub(crate) const COUNT: usize = 13;

    /// Every counter, in canonical export order.
    pub const ALL: [CounterId; Self::COUNT] = [
        CounterId::PoolSteals,
        CounterId::PoolParks,
        CounterId::SegmentReads,
        CounterId::SegmentBytesRead,
        CounterId::SegmentBytesDecoded,
        CounterId::OverlayPendingProbes,
        CounterId::Compactions,
        CounterId::DeltaNetInserts,
        CounterId::DeltaNetDeletes,
        CounterId::RequestsShed,
        CounterId::DeadlinesExpired,
        CounterId::DegradedAnswers,
        CounterId::FilterNegatives,
    ];

    /// Prometheus metric name (already `_total`-suffixed).
    pub fn name(self) -> &'static str {
        match self {
            CounterId::PoolSteals => "cqap_pool_steals_total",
            CounterId::PoolParks => "cqap_pool_parks_total",
            CounterId::SegmentReads => "cqap_store_segment_reads_total",
            CounterId::SegmentBytesRead => "cqap_store_segment_bytes_read_total",
            CounterId::SegmentBytesDecoded => "cqap_store_segment_bytes_decoded_total",
            CounterId::OverlayPendingProbes => "cqap_store_overlay_pending_probes_total",
            CounterId::Compactions => "cqap_store_compactions_total",
            CounterId::DeltaNetInserts => "cqap_delta_net_inserts_total",
            CounterId::DeltaNetDeletes => "cqap_delta_net_deletes_total",
            CounterId::RequestsShed => "cqap_serve_shed_total",
            CounterId::DeadlinesExpired => "cqap_serve_deadline_expired_total",
            CounterId::DegradedAnswers => "cqap_serve_degraded_answers_total",
            CounterId::FilterNegatives => "cqap_store_filter_negatives_total",
        }
    }

    /// One-line help string for the Prometheus exposition.
    pub(crate) fn help(self) -> &'static str {
        match self {
            CounterId::PoolSteals => "Successful steals in the work-stealing pool.",
            CounterId::PoolParks => "Times a pool worker parked after finding no work.",
            CounterId::SegmentReads => "Contiguous segment reads issued against stored views.",
            CounterId::SegmentBytesRead => {
                "On-disk (compressed) bytes fetched by stored-view segment reads."
            }
            CounterId::SegmentBytesDecoded => {
                "Logical (decoded) bytes represented by the records those segment reads walked."
            }
            CounterId::OverlayPendingProbes => {
                "Probes served while a stored view had overlay entries pending compaction."
            }
            CounterId::Compactions => "Stored-view compactions performed.",
            CounterId::DeltaNetInserts => "Net tuple insertions applied by delta maintenance.",
            CounterId::DeltaNetDeletes => "Net tuple deletions applied by delta maintenance.",
            CounterId::RequestsShed => "Requests shed at the admission gate.",
            CounterId::DeadlinesExpired => {
                "Requests dropped because their deadline passed before the backend probe."
            }
            CounterId::DegradedAnswers => {
                "Requests answered in degrade mode (cheapest plan only) past the watermark."
            }
            CounterId::FilterNegatives => {
                "Stored-view probes the key filter answered without a segment read."
            }
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Instantaneous gauges (values can go up and down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Jobs currently queued or executing in the serving pool.
    QueueDepth,
    /// Bytes resident in RAM for hot-tier shards of a tiered index.
    HotResidentBytes,
    /// Bytes resident in RAM for cold-tier shards (fence indexes and
    /// pending overlays; the runs themselves live on disk).
    ColdResidentBytes,
    /// Compressed on-disk bytes of the cold-tier runs (the v2 delta+
    /// varint format), as reported by the backing files' sizes.
    ColdDiskBytes,
    /// Requests currently holding an admission permit (admitted but
    /// not yet resolved); bounded by the configured admission limit.
    AdmittedPending,
}

impl GaugeId {
    /// Number of gauges.
    pub(crate) const COUNT: usize = 5;

    /// Every gauge, in canonical export order.
    pub(crate) const ALL: [GaugeId; Self::COUNT] = [
        GaugeId::QueueDepth,
        GaugeId::HotResidentBytes,
        GaugeId::ColdResidentBytes,
        GaugeId::ColdDiskBytes,
        GaugeId::AdmittedPending,
    ];

    /// Prometheus metric name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            GaugeId::QueueDepth => "cqap_serve_queue_depth",
            GaugeId::HotResidentBytes => "cqap_store_hot_resident_bytes",
            GaugeId::ColdResidentBytes => "cqap_store_cold_resident_bytes",
            GaugeId::ColdDiskBytes => "cqap_store_cold_disk_bytes",
            GaugeId::AdmittedPending => "cqap_serve_admitted_pending",
        }
    }

    /// One-line help string for the Prometheus exposition.
    pub(crate) fn help(self) -> &'static str {
        match self {
            GaugeId::QueueDepth => "Jobs currently queued or executing in the serving pool.",
            GaugeId::HotResidentBytes => {
                "Bytes resident in RAM for hot-tier shards of a tiered index."
            }
            GaugeId::ColdResidentBytes => {
                "Bytes resident in RAM for cold-tier shards (fences and pending overlays)."
            }
            GaugeId::ColdDiskBytes => {
                "Compressed on-disk bytes of cold-tier stored runs (v2 delta+varint format)."
            }
            GaugeId::AdmittedPending => {
                "Requests currently holding an admission permit (admitted, not yet resolved)."
            }
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Largest shard index tracked individually by the per-shard served
/// counters; higher shard indexes fold into the last slot.
pub(crate) const MAX_SHARDS: usize = 64;

/// The shared registry of atomics a [`MetricsSink`] records into.
///
/// One recorder aggregates a whole serving stack: all workers, shards
/// and tiers record into the same fixed-layout atomics, so there is
/// nothing to merge at snapshot time.
#[derive(Debug)]
pub struct Recorder {
    stages: [LatencyHistogram; StageId::COUNT],
    counters: [AtomicU64; CounterId::COUNT],
    gauges: [AtomicI64; GaugeId::COUNT],
    shard_served: [AtomicU64; MAX_SHARDS],
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self {
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            counters: [const { AtomicU64::new(0) }; CounterId::COUNT],
            gauges: [const { AtomicI64::new(0) }; GaugeId::COUNT],
            shard_served: [const { AtomicU64::new(0) }; MAX_SHARDS],
        }
    }

    /// Takes a point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed)),
            shard_served: {
                let last = self
                    .shard_served
                    .iter()
                    .rposition(|c| c.load(Ordering::Relaxed) > 0)
                    .map_or(0, |i| i + 1);
                self.shard_served[..last]
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect()
            },
        }
    }
}

/// A cheap-to-clone, possibly-disabled handle to a [`Recorder`].
///
/// This is the seam the serving stack is instrumented through: layers
/// hold a sink by value and call its recording methods unconditionally.
/// A disabled sink short-circuits on a null check; an attached sink
/// performs relaxed atomic updates. Neither path allocates.
///
/// A sink may additionally carry a [`FlightRecorder`]
/// ([`with_tracer`](Self::with_tracer)): a [`Span`]'s laps then also
/// write compact ring events for sampled requests, and a per-clone shard
/// label ([`with_shard_label`](Self::with_shard_label)) stamps those
/// events, and the roots its spans commit, with the shard that produced
/// them.
#[derive(Clone, Default)]
pub struct MetricsSink {
    recorder: Option<Arc<Recorder>>,
    tracer: Option<Arc<FlightRecorder>>,
    shard: u16,
}

impl fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsSink")
            .field("enabled", &self.is_enabled())
            .field("traced", &self.tracer.is_some())
            .field("shard", &self.shard)
            .finish()
    }
}

impl MetricsSink {
    /// A sink that records nothing (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A sink attached to a fresh recorder.
    pub fn recording() -> Self {
        Self::attached(Arc::new(Recorder::new()))
    }

    /// A sink attached to an existing shared recorder.
    pub fn attached(recorder: Arc<Recorder>) -> Self {
        Self {
            recorder: Some(recorder),
            tracer: None,
            shard: 0,
        }
    }

    /// This sink with a flight recorder attached: sampled requests'
    /// lifecycle laps also write ring trace events.
    pub fn with_tracer(mut self, tracer: Arc<FlightRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// A clone of this sink whose trace events are stamped with
    /// `shard` — the router hands one to each shard runtime so
    /// scatter-gather legs stay distinguishable in a drained trace.
    pub fn with_shard_label(&self, shard: u16) -> Self {
        let mut sink = self.clone();
        sink.shard = shard;
        sink
    }

    /// Whether this sink is attached to a recorder.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Opens a [`Span`] at this stage boundary: a request's timeline.
    ///
    /// Inside a [`TraceScope`](crate::TraceScope) the span records against
    /// the scope's trace and owns no root. Outside any scope it begins a
    /// trace of its own, per the tracer's sampling policy, and owns that
    /// trace's root. The clock runs only when a lap can record it: a
    /// recorder is attached, or a tracer is and the trace is sampled.
    pub fn span(&self) -> Span {
        let (trace, owns_root) = match trace::current() {
            Some(trace) => (trace, false),
            None => (self.tracer.as_ref().map_or(TraceId::NONE, |t| t.begin()), true),
        };
        let traced = self.tracer.is_some() && trace.is_sampled();
        self.open(trace, owns_root, self.recorder.is_some() || traced)
    }

    /// Opens a [`Span`] for work that is no request of its own, to be
    /// lapped as `stage`; it never begins a trace or owns a root, and
    /// records against the current [`TraceScope`](crate::TraceScope)'s
    /// trace (trace 0 outside any scope). A background stage (delta apply,
    /// compaction) runs its clock whenever this sink records anything. A
    /// leaf stage (a store read, an overlay probe) has no histogram, so
    /// its clock runs only inside a sampled trace with a tracer attached.
    pub fn inner_span(&self, stage: impl Into<TraceStage>) -> Span {
        let stage = stage.into();
        debug_assert!(
            stage.is_background() || StageId::ALL.get(stage as usize).is_none(),
            "an inner span laps a background or a leaf stage"
        );
        let trace = trace::current().unwrap_or(TraceId::NONE);
        let timed = if stage.is_background() {
            self.recorder.is_some() || self.tracer.is_some()
        } else {
            self.tracer.is_some() && trace.is_sampled()
        };
        self.open(trace, false, timed)
    }

    /// A span over `trace`, timed (reading the clock now) or inert. An
    /// inert span never records, so it holds no handle on the recorders.
    fn open(&self, trace: TraceId, owns_root: bool, timed: bool) -> Span {
        let now = timed.then(Instant::now);
        Span {
            sink: if timed { self.clone() } else { MetricsSink::default() },
            trace,
            root: now.filter(|_| owns_root && trace.is_sampled()),
            last: now,
        }
    }

    /// Snapshots the attached recorder, or `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.recorder.as_deref().map(Recorder::snapshot)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: CounterId, n: u64) {
        if let Some(r) = &self.recorder {
            r.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, counter: CounterId) {
        self.add(counter, 1);
    }

    /// Moves a gauge by `delta` (may be negative).
    #[inline]
    pub fn gauge_add(&self, gauge: GaugeId, delta: i64) {
        if let Some(r) = &self.recorder {
            r.gauges[gauge.index()].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets a gauge to an absolute value — for level-style gauges
    /// (resident bytes) republished from a source of truth rather
    /// than maintained by increments.
    #[inline]
    pub fn gauge_set(&self, gauge: GaugeId, value: i64) {
        if let Some(r) = &self.recorder {
            r.gauges[gauge.index()].store(value, Ordering::Relaxed);
        }
    }

    /// Records a stage latency of `ns` nanoseconds.
    #[inline]
    pub fn observe_ns(&self, stage: StageId, ns: u64) {
        if let Some(r) = &self.recorder {
            r.stages[stage.index()].record_ns(ns);
        }
    }

    /// Counts one request served by shard `shard`; indexes past
    /// `MAX_SHARDS` fold into the last slot.
    #[inline]
    pub fn shard_served(&self, shard: usize) {
        if let Some(r) = &self.recorder {
            r.shard_served[shard.min(MAX_SHARDS - 1)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One timeline of consecutive stages, opened by [`MetricsSink::span`] or
/// [`MetricsSink::inner_span`].
///
/// Each [`lap`](Self::lap) ends the current stage and starts the next at
/// one clock reading, so a span's stages tile its lifetime and each is
/// recorded exactly once. A span that owns its trace's root commits it
/// when dropped, once, stamped with its sink's shard label. A span moves
/// across threads with the work it times: the serving runtime hands a
/// request's span from its front door to the worker that answers it.
#[derive(Debug)]
pub struct Span {
    sink: MetricsSink,
    trace: TraceId,
    /// The instant the root began, when the span owns a sampled root.
    root: Option<Instant>,
    /// The last stage boundary; `None` when no lap can record.
    last: Option<Instant>,
}

impl Span {
    /// Ends the current stage as `stage`. The time since the last boundary
    /// goes to the stage's histogram (a [`StageId`] stage, recorder
    /// attached) and, with `payload`, to the flight recorder (a sampled
    /// trace, or a background stage); the next stage starts at the same
    /// reading.
    #[inline]
    pub fn lap(&mut self, stage: impl Into<TraceStage>, payload: u64) {
        let Some(last) = self.last else {
            return;
        };
        let stage = stage.into();
        debug_assert!(stage != TraceStage::Request, "a root is committed by the drop");
        let now = Instant::now();
        if let (Some(r), Some(histogram)) = (&self.sink.recorder, StageId::ALL.get(stage as usize)) {
            r.stages[histogram.index()].record_ns(nanos(now - last));
        }
        if let Some(t) = &self.sink.tracer {
            t.record_span(self.trace, stage, self.sink.shard, last, now, payload);
        }
        self.last = Some(now);
    }
}

impl From<&Span> for TraceId {
    /// The trace a span records against: what a
    /// [`TraceScope`](crate::TraceScope) entered with the span pins.
    fn from(span: &Span) -> TraceId {
        span.trace
    }
}

impl Drop for Span {
    /// Commits the root of a trace this span owns.
    fn drop(&mut self) {
        if let (Some(t), Some(root)) = (&self.sink.tracer, self.root) {
            t.finish(self.trace, self.sink.shard, nanos(root.elapsed()));
        }
    }
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SamplingPolicy, TraceScope};

    /// A leaf span runs its clock only inside a sampled trace: outside any
    /// scope, or in an unsampled one, it stays disarmed however much the
    /// sink records. A background span runs its clock whenever the sink
    /// records anything, in a scope or not.
    #[test]
    fn inner_spans_are_timed_only_when_a_lap_can_record() {
        let tracer = Arc::new(FlightRecorder::new(64, SamplingPolicy::Always));
        let sink = MetricsSink::recording().with_tracer(tracer);
        let leaves = [TraceStage::SegmentRead, TraceStage::OverlayProbe];
        for leaf in leaves {
            assert!(sink.inner_span(leaf).last.is_none(), "{leaf:?} outside any scope");
        }
        {
            let _scope = TraceScope::enter(TraceId::NONE);
            for leaf in leaves {
                assert!(sink.inner_span(leaf).last.is_none(), "{leaf:?} unsampled");
            }
            assert!(sink.inner_span(StageId::Compaction).last.is_some());
        }
        let root = sink.span();
        {
            let _scope = TraceScope::enter(&root);
            for leaf in leaves {
                assert!(sink.inner_span(leaf).last.is_some(), "{leaf:?} sampled");
            }
        }
        let untraced = MetricsSink::recording();
        let _scope = TraceScope::enter(&root);
        assert!(untraced.inner_span(TraceStage::SegmentRead).last.is_none(), "no tracer");
        for background in [StageId::DeltaApply, StageId::Compaction] {
            assert!(untraced.inner_span(background).last.is_some(), "{background:?}");
            assert!(MetricsSink::disabled().inner_span(background).last.is_none());
        }
    }
}
