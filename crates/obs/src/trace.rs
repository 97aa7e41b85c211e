//! The flight recorder: lock-free per-request tracing.
//!
//! A [`FlightRecorder`] is a fixed-capacity ring buffer of compact
//! trace events written with relaxed atomics — the warm serving path
//! pays a handful of atomic stores per sampled event and never
//! allocates (every event is a fixed-size slot of six `AtomicU64`s;
//! unsampled requests pay one relaxed counter increment at most).
//! One request's events share a `trace_id` allocated at submission,
//! so a drained trace crosses the whole stack: router → shard runtime
//! → pool worker → cold store.
//!
//! Each slot is a seqlock: a writer claims the slot by CAS-ing its
//! sequence word to an odd *ticket* value, fills the payload words
//! with relaxed stores, and releases the even successor. A reader
//! ([`drain`](FlightRecorder::drain)) validates the sequence word
//! around its payload reads, so a torn (concurrently overwritten)
//! slot is detected and skipped — the drained set is always a
//! consistent subset of the events actually written, and on overflow
//! newer events overwrite older ones (newest wins).
//!
//! Sampling is a [`SamplingPolicy`]: record every request, or one in
//! N. A sampled request's trace is committed by its root
//! [`TraceStage::Request`] event, written once the request resolves.
//!
//! Drained events export as Chrome trace-event JSON
//! ([`to_chrome_trace`]) loadable in `chrome://tracing` / Perfetto,
//! and [`tail_attribution`] groups the slowest fraction of committed
//! traces by dominant stage and co-occurring store-side markers
//! ("compaction overlapped this request", "probe paid a pending
//! overlay").

use std::cell::Cell;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

use crate::sink::StageId;

/// The identity of one request's trace, allocated by
/// `FlightRecorder::begin`.
///
/// Id `0` is the "not sampled" sentinel ([`TraceId::NONE`]): events
/// recorded against it are dropped unless their stage is a background
/// stage (see `TraceStage::is_background`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The unsampled sentinel: laps against it record nothing.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this id belongs to a sampled request.
    #[inline]
    pub fn is_sampled(self) -> bool {
        self.0 != 0
    }

    /// The raw id value (0 for [`NONE`](Self::NONE)).
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Rebuilds a trace id from its raw value (0 becomes
    /// [`NONE`](Self::NONE)).
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        TraceId(raw)
    }
}

/// What a trace event measures.
///
/// The first eight variants mirror [`StageId`] one-to-one (a
/// [`Span`](crate::Span) lap writes both the stage histogram and, when
/// traced, a ring event). The remainder are
/// trace-only: the per-request root span and the store-side events
/// that attribute a slow probe to its physical cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceStage {
    /// A job's wait from launch to pickup (mirrors
    /// [`StageId::QueueWait`]).
    QueueWait,
    /// Answer-cache / in-flight lookup (mirrors
    /// [`StageId::CacheLookup`]).
    CacheLookup,
    /// Batch job formation and dispatch (mirrors [`StageId::Coalesce`]).
    Coalesce,
    /// The backend index probe (mirrors [`StageId::BackendProbe`]).
    BackendProbe,
    /// Per-shard answer union (mirrors [`StageId::AnswerUnion`]).
    AnswerUnion,
    /// Ticket publication / waiter fan-out (mirrors
    /// [`StageId::TicketDelivery`]).
    TicketDelivery,
    /// Delta-batch application (mirrors [`StageId::DeltaApply`]).
    DeltaApply,
    /// Stored-view compaction (mirrors [`StageId::Compaction`]).
    Compaction,
    /// The whole-request root span, written at
    /// `FlightRecorder::finish` once a sampled request resolves. A
    /// trace without a root is incomplete and is ignored by the
    /// reports.
    Request,
    /// One contiguous cold-store segment read; the payload is the
    /// byte count.
    SegmentRead,
    /// A stored-view probe that had to merge a pending (uncompacted)
    /// overlay; the payload is the overlay entry count.
    OverlayProbe,
}

impl TraceStage {
    /// Number of trace stages.
    pub(crate) const COUNT: usize = 11;

    /// Every trace stage, in `repr` order.
    pub(crate) const ALL: [TraceStage; Self::COUNT] = [
        TraceStage::QueueWait,
        TraceStage::CacheLookup,
        TraceStage::Coalesce,
        TraceStage::BackendProbe,
        TraceStage::AnswerUnion,
        TraceStage::TicketDelivery,
        TraceStage::DeltaApply,
        TraceStage::Compaction,
        TraceStage::Request,
        TraceStage::SegmentRead,
        TraceStage::OverlayProbe,
    ];

    /// Stable snake_case name (matches [`StageId::name`] for the
    /// mirrored stages).
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceStage::QueueWait => "queue_wait",
            TraceStage::CacheLookup => "cache_lookup",
            TraceStage::Coalesce => "coalesce",
            TraceStage::BackendProbe => "backend_probe",
            TraceStage::AnswerUnion => "answer_union",
            TraceStage::TicketDelivery => "ticket_delivery",
            TraceStage::DeltaApply => "delta_apply",
            TraceStage::Compaction => "compaction",
            TraceStage::Request => "request",
            TraceStage::SegmentRead => "segment_read",
            TraceStage::OverlayProbe => "overlay_probe",
        }
    }

    /// Background stages record against [`TraceId::NONE`] too:
    /// maintenance work (delta application, compaction) is not tied
    /// to one request but still lands in the ring, so the tail report
    /// can detect wall-clock overlap with slow requests.
    #[inline]
    pub(crate) fn is_background(self) -> bool {
        matches!(self, TraceStage::DeltaApply | TraceStage::Compaction)
    }

    fn from_u8(raw: u8) -> Option<TraceStage> {
        Self::ALL.get(raw as usize).copied()
    }
}

impl From<StageId> for TraceStage {
    /// The mirrored stages share `repr` indexes with `StageId::ALL`.
    fn from(stage: StageId) -> Self {
        TraceStage::ALL[stage as usize]
    }
}

/// When the flight recorder assigns a trace id to a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingPolicy {
    /// Every request is traced.
    Always,
    /// One request in `n` is traced (relaxed round-robin across all
    /// submitting threads; `n = 0` behaves like `n = 1`).
    OneInN(u64),
}

/// One drained trace event.
///
/// Timestamps are nanoseconds since the owning recorder's epoch (its
/// construction instant), so events from every layer share one clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The owning request's trace id; 0 for background events.
    pub trace_id: u64,
    /// What the event measures.
    pub stage: TraceStage,
    /// The shard label of the sink that recorded the event.
    pub shard: u16,
    /// Event start, nanoseconds since the recorder epoch.
    pub t_start_ns: u64,
    /// Event end, nanoseconds since the recorder epoch.
    pub t_end_ns: u64,
    /// Stage-specific size: bytes for segment reads, overlay entries
    /// for overlay probes, total-latency ns for the root event, 0
    /// otherwise.
    pub payload: u64,
}

impl TraceEvent {
    /// Event duration in nanoseconds.
    #[inline]
    pub(crate) fn duration_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }

    /// Whether this event's `[t_start, t_end)` window overlaps
    /// another's.
    #[inline]
    pub(crate) fn overlaps(&self, other: &TraceEvent) -> bool {
        self.t_start_ns < other.t_end_ns && other.t_start_ns < self.t_end_ns
    }
}

/// One seqlock slot: `seq` is `2·ticket + 1` while a writer owns the
/// slot and `2·ticket + 2` once the payload words are stable (0 =
/// never written). Tickets increase monotonically, so a newer write
/// always carries a larger sequence and the CAS claim loses at most
/// one event per slot collision.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    meta: AtomicU64, // stage in the low 8 bits, shard in the next 16
    t_start: AtomicU64,
    t_end: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    const fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            t_start: AtomicU64::new(0),
            t_end: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        }
    }
}

/// The lock-free flight recorder: a ring of seqlock slots plus the
/// sampling state.
///
/// All methods take `&self`; writers from any thread race only on
/// relaxed/acq-rel atomics. See the [module docs](self) for the
/// protocol.
pub struct FlightRecorder {
    epoch: Instant,
    policy: SamplingPolicy,
    slots: Box<[Slot]>,
    head: AtomicU64,
    next_id: AtomicU64,
    sample_counter: AtomicU64,
    /// Writes dropped because a concurrent writer owned the slot.
    contended_drops: AtomicU64,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("policy", &self.policy)
            .field("events_written", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (rounded
    /// up to 1).
    pub fn new(capacity: usize, policy: SamplingPolicy) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, Slot::empty);
        FlightRecorder {
            epoch: Instant::now(),
            policy,
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            sample_counter: AtomicU64::new(0),
            contended_drops: AtomicU64::new(0),
        }
    }

    /// Events dropped because a concurrent writer owned the target
    /// slot (distinct from overflow, where newer events silently
    /// overwrite older ones).
    pub fn contended_drops(&self) -> u64 {
        self.contended_drops.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder epoch — the clock every event
    /// timestamp is expressed in.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Converts an [`Instant`] into epoch-relative nanoseconds
    /// (instants before the epoch clamp to 0).
    #[inline]
    pub(crate) fn instant_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates a trace id for a new request per the sampling
    /// policy; returns [`TraceId::NONE`] when the request is not
    /// sampled (one relaxed counter increment, nothing else).
    #[inline]
    pub(crate) fn begin(&self) -> TraceId {
        match self.policy {
            SamplingPolicy::Always => self.fresh_id(),
            SamplingPolicy::OneInN(n) => {
                let tick = self.sample_counter.fetch_add(1, Ordering::Relaxed);
                if tick % n.max(1) == 0 {
                    self.fresh_id()
                } else {
                    TraceId::NONE
                }
            }
        }
    }

    fn fresh_id(&self) -> TraceId {
        TraceId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Commits a trace: writes its root [`TraceStage::Request`] event
    /// (ending now, spanning `total_ns`), stamped with the committing
    /// sink's `shard` label. A [`TraceId::NONE`] finish records nothing.
    pub(crate) fn finish(&self, id: TraceId, shard: u16, total_ns: u64) {
        if id.is_sampled() {
            let end = self.now_ns();
            self.record(id, TraceStage::Request, shard, end.saturating_sub(total_ns), end, total_ns);
        }
    }

    /// Records one event against epoch-relative timestamps.
    ///
    /// Events against [`TraceId::NONE`] are kept only for background
    /// stages; everything else requires a sampled id. Allocation-free:
    /// the event is six relaxed/release atomic stores into a
    /// fixed-size slot.
    pub fn record(
        &self,
        id: TraceId,
        stage: TraceStage,
        shard: u16,
        t_start_ns: u64,
        t_end_ns: u64,
        payload: u64,
    ) {
        if !id.is_sampled() && !stage.is_background() {
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let busy = ticket * 2 + 1;
        let cur = slot.seq.load(Ordering::Relaxed);
        // A sequence at or above our busy mark means a newer writer
        // already owns (or finished) this slot — newest wins, we drop.
        // An odd sequence means an older writer is still mid-write;
        // stealing the slot would let its trailing release store mark
        // our half-written fields stable, so we drop instead of tear.
        if cur >= busy
            || cur % 2 == 1
            || slot
                .seq
                .compare_exchange(cur, busy, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.contended_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.trace_id.store(id.0, Ordering::Relaxed);
        slot.meta
            .store(stage as u64 | (shard as u64) << 8, Ordering::Relaxed);
        slot.t_start.store(t_start_ns, Ordering::Relaxed);
        slot.t_end.store(t_end_ns, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.seq.store(busy + 1, Ordering::Release);
    }

    /// Records one event from a pair of [`Instant`]s (converted to
    /// the recorder epoch).
    #[inline]
    pub(crate) fn record_span(
        &self,
        id: TraceId,
        stage: TraceStage,
        shard: u16,
        start: Instant,
        end: Instant,
        payload: u64,
    ) {
        if !id.is_sampled() && !stage.is_background() {
            return;
        }
        self.record(
            id,
            stage,
            shard,
            self.instant_ns(start),
            self.instant_ns(end),
            payload,
        );
    }

    /// Copies every stable event out of the ring, sorted by start
    /// time (ring write order breaks ties).
    ///
    /// The ring itself is left untouched — it keeps rolling, and a
    /// later drain sees whatever the window holds then. Slots being
    /// overwritten while read are detected via their sequence word
    /// and skipped, so the result is always a consistent subset of
    /// the events actually written (never a torn mix of two).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out: Vec<(u64, TraceEvent)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 || seq % 2 == 1 {
                continue; // never written, or a writer is mid-flight
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let t_start_ns = slot.t_start.load(Ordering::Relaxed);
            let t_end_ns = slot.t_end.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            // Seqlock validation (Boehm's recipe): the acquire fence
            // keeps the payload loads above from being satisfied after
            // the re-check below; a changed sequence means a writer
            // touched the slot while we read — skip the torn copy.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq {
                continue;
            }
            let Some(stage) = TraceStage::from_u8((meta & 0xff) as u8) else {
                continue;
            };
            out.push((
                seq,
                TraceEvent {
                    trace_id,
                    stage,
                    shard: (meta >> 8) as u16,
                    t_start_ns,
                    t_end_ns,
                    payload,
                },
            ));
        }
        out.sort_by_key(|(seq, ev)| (ev.t_start_ns, *seq));
        out.into_iter().map(|(_, ev)| ev).collect()
    }
}

// ---------------------------------------------------------------------
// The ambient trace id: store/maintenance layers are reached through
// compiled plans whose signatures know nothing about tracing, so the
// serving worker pins the current request's id in a thread-local and
// the leaf layers read it back.

thread_local! {
    static CURRENT_TRACE: Cell<Option<TraceId>> = const { Cell::new(None) };
}

/// The trace the current thread is serving, set by
/// [`TraceScope::enter`]: `Some` inside a scope, even an unsampled one
/// ([`TraceId::NONE`]), and `None` outside any scope.
#[inline]
pub fn current() -> Option<TraceId> {
    CURRENT_TRACE.with(Cell::get)
}

/// An RAII guard pinning a request's trace id on the current thread
/// for the duration of a backend probe, so leaf layers (segment
/// reads, overlay probes) can attribute their events without
/// threading the id through every signature. Restores the previous id
/// on drop, so nested scopes compose.
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<TraceId>,
}

impl TraceScope {
    /// Pins `id` (a [`TraceId`], or a [`Span`](crate::Span)'s trace) as
    /// the current thread's trace until the guard drops.
    pub fn enter(id: impl Into<TraceId>) -> TraceScope {
        TraceScope {
            prev: CURRENT_TRACE.with(|c| c.replace(Some(id.into()))),
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event export.

/// Renders drained events as Chrome trace-event JSON, loadable in
/// `chrome://tracing` or Perfetto.
///
/// Every event becomes a complete (`"ph": "X"`) event: timestamps in
/// microseconds with nanosecond precision, one `tid` row per trace id
/// (background events share row 0), the stage name as the event name,
/// and shard/trace/payload detail under `args`. The output is
/// deterministic for a given event slice (golden-file tested).
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Complete events with dur 0 are dropped by some viewers;
        // clamp to 1ns so every recorded event stays visible.
        let dur = ev.duration_ns().max(1);
        write!(
            out,
            "\n  {{\"name\": \"{}\", \"cat\": \"cqap\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \
             \"args\": {{\"trace_id\": {}, \"shard\": {}, \"payload\": {}}}}}",
            ev.stage.name(),
            ev.trace_id,
            micros(ev.t_start_ns),
            micros(dur),
            ev.trace_id,
            ev.shard,
            ev.payload,
        )
        .expect("write to String");
    }
    out.push_str("\n]}\n");
    out
}

/// Nanoseconds rendered as decimal microseconds without going through
/// floating point (deterministic output).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

// ---------------------------------------------------------------------
// Tail attribution.

/// One cluster of slow requests sharing a cause, produced by
/// [`tail_attribution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailBucket {
    /// The stage that consumed the most time across the bucket's
    /// member traces.
    pub dominant: TraceStage,
    /// Store-side markers shared by the bucket: `"overlay_pending"`
    /// (a probe merged an uncompacted overlay), `"segment_read"`
    /// (cold-store reads on the critical path), and
    /// `"<stage>_overlap"` for background maintenance events whose
    /// wall-clock window overlapped the request.
    pub markers: Vec<&'static str>,
    /// Member traces in this bucket.
    pub count: usize,
    /// The slowest member's total latency, nanoseconds.
    pub worst_ns: u64,
    /// The slowest member's trace id (for cross-referencing the
    /// Chrome export).
    pub example_trace: u64,
}

impl TailBucket {
    /// Whether the bucket carries a given store-side marker.
    pub(crate) fn has_marker(&self, marker: &str) -> bool {
        self.markers.iter().any(|m| *m == marker)
    }
}

/// The slowest-requests report from [`tail_attribution`].
#[derive(Debug, Clone, Default)]
pub struct TailReport {
    /// Committed (root-carrying) traces seen in the drained events.
    pub traces: usize,
    /// How many of those fell in the analyzed tail.
    pub tail_count: usize,
    /// Cause clusters, slowest first.
    pub buckets: Vec<TailBucket>,
}

impl TailReport {
    /// Whether any tail bucket is dominated by `stage`.
    pub fn has_dominant(&self, stage: TraceStage) -> bool {
        self.buckets.iter().any(|b| b.dominant == stage)
    }

    /// Whether any tail bucket carries `marker`.
    pub fn has_marker(&self, marker: &str) -> bool {
        self.buckets.iter().any(|b| b.has_marker(marker))
    }
}

impl fmt::Display for TailReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tail attribution: {} of {} traces in the analyzed tail",
            self.tail_count, self.traces
        )?;
        for b in &self.buckets {
            write!(
                f,
                "  {:>4} × dominant={:<16} worst {:>10.3} ms (trace {})",
                b.count,
                b.dominant.name(),
                b.worst_ns as f64 / 1e6,
                b.example_trace
            )?;
            if !b.markers.is_empty() {
                write!(f, "  [{}]", b.markers.join(", "))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Groups the slowest `fraction` of committed traces (at least one)
/// by dominant stage and co-occurring store-side/background markers.
///
/// A *committed* trace is one with a [`TraceStage::Request`] root
/// event — its duration is the request's total latency. The dominant
/// stage is the non-root stage with the largest summed duration
/// inside the trace ([`TraceStage::Request`] when no stage has a
/// non-zero total); markers record overlay-pending probes, segment
/// reads, and background maintenance events (recorded against trace
/// id 0) whose windows overlap the request's. Buckets come back
/// slowest-first.
pub fn tail_attribution(events: &[TraceEvent], fraction: f64) -> TailReport {
    // Committed traces, keyed by id: (root event, member events).
    let mut roots: Vec<TraceEvent> = Vec::new();
    for ev in events {
        if ev.stage == TraceStage::Request && ev.trace_id != 0 {
            roots.push(*ev);
        }
    }
    let background: Vec<&TraceEvent> =
        events.iter().filter(|ev| ev.trace_id == 0).collect();
    let traces = roots.len();
    if traces == 0 {
        return TailReport::default();
    }
    roots.sort_by_key(|r| std::cmp::Reverse(r.duration_ns()));
    let tail_count = ((fraction * traces as f64).ceil() as usize).clamp(1, traces);

    let mut buckets: Vec<TailBucket> = Vec::new();
    for root in &roots[..tail_count] {
        let mut per_stage = [0u64; TraceStage::COUNT];
        let mut markers: Vec<&'static str> = Vec::new();
        for ev in events.iter().filter(|ev| ev.trace_id == root.trace_id) {
            if ev.stage != TraceStage::Request {
                per_stage[ev.stage as usize] += ev.duration_ns();
            }
            match ev.stage {
                TraceStage::OverlayProbe => push_marker(&mut markers, "overlay_pending"),
                TraceStage::SegmentRead => push_marker(&mut markers, "segment_read"),
                _ => {}
            }
        }
        for bg in &background {
            if bg.overlaps(root) {
                let marker = match bg.stage {
                    TraceStage::Compaction => "compaction_overlap",
                    TraceStage::DeltaApply => "delta_apply_overlap",
                    _ => continue,
                };
                push_marker(&mut markers, marker);
            }
        }
        markers.sort_unstable();
        // A trace whose children were overwritten in the ring keeps only
        // its root (written last): with no timed stage it blames none.
        let dominant = per_stage
            .iter()
            .enumerate()
            .filter(|(_, &ns)| ns > 0)
            .max_by_key(|(_, &ns)| ns)
            .map(|(i, _)| TraceStage::ALL[i])
            .unwrap_or(TraceStage::Request);
        match buckets
            .iter_mut()
            .find(|b| b.dominant == dominant && b.markers == markers)
        {
            Some(b) => {
                b.count += 1;
                if root.duration_ns() > b.worst_ns {
                    b.worst_ns = root.duration_ns();
                    b.example_trace = root.trace_id;
                }
            }
            None => buckets.push(TailBucket {
                dominant,
                markers,
                count: 1,
                worst_ns: root.duration_ns(),
                example_trace: root.trace_id,
            }),
        }
    }
    buckets.sort_by_key(|b| std::cmp::Reverse(b.worst_ns));
    TailReport {
        traces,
        tail_count,
        buckets,
    }
}

fn push_marker(markers: &mut Vec<&'static str>, marker: &'static str) {
    if !markers.iter().any(|m| *m == marker) {
        markers.push(marker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace_id: u64, stage: TraceStage, t0: u64, t1: u64, payload: u64) -> TraceEvent {
        TraceEvent {
            trace_id,
            stage,
            shard: 0,
            t_start_ns: t0,
            t_end_ns: t1,
            payload,
        }
    }

    #[test]
    fn stage_roundtrips_through_repr() {
        for stage in TraceStage::ALL {
            assert_eq!(TraceStage::from_u8(stage as u8), Some(stage));
        }
        assert_eq!(TraceStage::from_u8(TraceStage::COUNT as u8), None);
        for stage in StageId::ALL {
            assert_eq!(TraceStage::from(stage).name(), stage.name());
        }
    }

    #[test]
    fn always_policy_records_and_drains_in_order() {
        let fr = FlightRecorder::new(16, SamplingPolicy::Always);
        let a = fr.begin();
        let b = fr.begin();
        assert!(a.is_sampled() && b.is_sampled() && a != b);
        fr.record(a, TraceStage::BackendProbe, 3, 100, 200, 0);
        fr.record(b, TraceStage::QueueWait, 0, 50, 90, 0);
        fr.finish(a, 0, 150);
        let events = fr.drain();
        assert_eq!(events.len(), 3);
        // Sorted by start time: b's queue wait first.
        assert_eq!(events[0].stage, TraceStage::QueueWait);
        assert_eq!(events[0].trace_id, b.get());
        assert_eq!(events[1].stage, TraceStage::BackendProbe);
        assert_eq!(events[1].shard, 3);
        assert!(events.iter().any(|e| e.stage == TraceStage::Request
            && e.trace_id == a.get()
            && e.payload == 150));
    }

    #[test]
    fn one_in_n_samples_every_nth() {
        let fr = FlightRecorder::new(8, SamplingPolicy::OneInN(4));
        let sampled: Vec<bool> = (0..12).map(|_| fr.begin().is_sampled()).collect();
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 3);
        assert!(sampled[0] && sampled[4] && sampled[8]);
        // Unsampled ids record nothing (non-background stage).
        fr.record(TraceId::NONE, TraceStage::BackendProbe, 0, 0, 10, 0);
        assert!(fr.drain().is_empty());
        // Background stages are kept even without a trace.
        fr.record(TraceId::NONE, TraceStage::Compaction, 0, 0, 10, 0);
        assert_eq!(fr.drain().len(), 1);
    }

    #[test]
    fn overflow_keeps_the_newest_events() {
        let fr = FlightRecorder::new(4, SamplingPolicy::Always);
        let id = fr.begin();
        for i in 0..10u64 {
            fr.record(id, TraceStage::SegmentRead, 0, i, i + 1, i);
        }
        let events = fr.drain();
        assert_eq!(events.len(), 4);
        let payloads: Vec<u64> = events.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![6, 7, 8, 9], "newest 4 of 10 survive");
        assert_eq!(fr.contended_drops(), 0, "sequential writes never drop");
    }

    #[test]
    fn trace_scope_nests_and_restores() {
        assert_eq!(current(), None);
        {
            let _outer = TraceScope::enter(TraceId::from_raw(7));
            assert_eq!(current(), Some(TraceId::from_raw(7)));
            {
                let _inner = TraceScope::enter(TraceId::NONE);
                assert_eq!(current(), Some(TraceId::NONE), "an unsampled scope is still a scope");
            }
            assert_eq!(current(), Some(TraceId::from_raw(7)));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn chrome_trace_renders_complete_events() {
        let events = vec![
            ev(1, TraceStage::QueueWait, 1_500, 4_000, 0),
            ev(0, TraceStage::Compaction, 2_000, 9_000, 3),
        ];
        let json = to_chrome_trace(&events);
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"queue_wait\""));
        assert!(json.contains("\"ts\": 1.500"));
        assert!(json.contains("\"dur\": 2.500"));
        assert!(json.contains("\"tid\": 0"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn tail_attribution_clusters_by_cause() {
        let events = vec![
            // Trace 1: queue-dominated, slowest.
            ev(1, TraceStage::QueueWait, 0, 9_000, 0),
            ev(1, TraceStage::BackendProbe, 9_000, 10_000, 0),
            ev(1, TraceStage::Request, 0, 10_000, 10_000),
            // Trace 2: probe-dominated with a pending overlay, and a
            // compaction overlapping its window.
            ev(2, TraceStage::BackendProbe, 11_000, 19_000, 0),
            ev(2, TraceStage::OverlayProbe, 12_000, 13_000, 5),
            ev(2, TraceStage::Request, 11_000, 20_000, 9_000),
            ev(0, TraceStage::Compaction, 12_000, 15_000, 0),
            // Trace 3: fast, outside the tail.
            ev(3, TraceStage::BackendProbe, 30_000, 30_500, 0),
            ev(3, TraceStage::Request, 30_000, 30_600, 600),
        ];
        let report = tail_attribution(&events, 0.67);
        assert_eq!(report.traces, 3);
        assert_eq!(report.tail_count, 3); // ceil(0.67 * 3) = 3... clamped
        let report = tail_attribution(&events, 0.5);
        assert_eq!(report.tail_count, 2);
        assert!(report.has_dominant(TraceStage::QueueWait));
        assert!(report.has_dominant(TraceStage::BackendProbe));
        assert!(report.has_marker("overlay_pending"));
        assert!(report.has_marker("compaction_overlap"));
        let display = report.to_string();
        assert!(display.contains("queue_wait"));
        assert!(display.contains("overlay_pending"));
    }

    #[test]
    fn a_root_without_timed_stages_is_dominated_by_the_request() {
        let report = tail_attribution(&[ev(1, TraceStage::Request, 0, 5_000, 5_000)], 1.0);
        assert_eq!(report.tail_count, 1);
        assert_eq!(report.buckets[0].dominant, TraceStage::Request);
        assert!(!report.has_dominant(TraceStage::OverlayProbe));
    }

    #[test]
    fn empty_events_make_an_empty_report() {
        let report = tail_attribution(&[], 0.001);
        assert_eq!(report.traces, 0);
        assert!(report.buckets.is_empty());
    }
}
