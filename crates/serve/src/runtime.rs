//! The serving runtime: a shared immutable index behind a work-stealing
//! pool, per-request one-shot result cells, and an LRU answer cache.
//!
//! [`ServeRuntime`] has two kinds of front door: [`ServeRuntime::submit`]
//! enqueues one request and returns a [`Ticket`] (a one-shot result
//! cell), and [`ServeRuntime::serve_batch`] answers a slice of requests
//! concurrently, in order. Both kinds (and their deadline variants) are
//! one request path, called with one entry or many: count the entries,
//! group duplicates, look every group up once under the state lock — a
//! cache hit, a join of the probe already in flight for the key (counted
//! as [`ServeStats::inflight_hits`], so a hot key never causes a
//! thundering herd), or a fresh probe — and deal the fresh probes into at
//! most one *job* per worker. Every job is admitted, queued and resolved
//! by one worker path. That path answers the job's live members with one
//! [`BatchAnswer::answer_batch`] call, publishes each outcome (answer,
//! probe error, expiry or shed) to the cache and the pending map at one
//! site, lets go of the index and its admission slot, and only then
//! fills the tickets and wakes their callers: a caller whose ticket
//! resolved holds the only index handle again.
//!
//! A [`Ticket`] is a one-shot result cell. A worker fills every ticket of
//! its job before it wakes anyone, so a caller gathering a batch's tickets
//! wakes once per job, not once per ticket. Answers are handed out as
//! `Arc<Answer>`: the cache stores the same `Arc`, so a hit is a refcount
//! bump, and duplicates share one allocation.
//!
//! The index is `Arc`-shared and read-only while requests are served —
//! the paper's regime: preprocessing fixes the materialized views within
//! the space budget, and the online phase only reads them.
//! [`ServeRuntime::apply_delta`] mutates it between requests.
//!
//! ## Overload safety
//!
//! By default the front door is unbounded. Configuring
//! [`ServeConfig::admission`] bounds it: every probe job takes a permit
//! from a shed-only gate, and a job that finds the gate full resolves its
//! callers at once with a typed [`ServeError::Overloaded`](crate::ServeError),
//! counted in [`ServeStats::shed`]. Cache hits and in-flight joins take
//! no slot. A deadline ([`ServeRuntime::submit_with_deadline`],
//! [`ServeRuntime::serve_batch_with_deadlines`]) has one rule: a job's
//! worker drops a member whose deadline has passed *before* the backend
//! probe and resolves it with [`CqapError::DeadlineExpired`] (counted in
//! [`ServeStats::deadline_expired`]); a hit or a join is answered
//! regardless. Batches dispatch earliest-deadline-first. Past an optional
//! queue-depth watermark ([`ServeConfig::degrade_watermark`]) lone probes
//! may answer from the index's cheapest plan
//! ([`BatchAnswer::answer_degraded`]), flagged in the answer and kept out
//! of the cache.
//!
//! Every door call opens one [`Span`]: the request's lifecycle. Its
//! `CacheLookup` lap ends the lookup pass. A lone request's span then goes
//! where its answer comes from: a hit finishes it at the door, a join
//! moves it into the pending map's waiter entry, and a fresh probe moves
//! it into its job. A batch keeps its span at the door (`Coalesce`, then
//! the gather) and each job carries a leg of it. A job's first lap, at
//! pickup, is `QueueWait`; then `BackendProbe` and `TicketDelivery`. A
//! span opened inside a [`TraceScope`] (a shard leg, submitted by the
//! router from a front worker's probe) records against that scope's trace
//! and owns no root; outside any scope it owns its trace's root, and a
//! job finishes the spans it carries before it fills their tickets.

use std::borrow::Cow;
use std::fmt;
use std::mem;
use std::slice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cqap_common::{CqapError, FxHashMap, Result};
use cqap_obs::{CounterId, MetricsSink, Span, StageId, TraceScope};

use crate::admission::{AdmissionConfig, AdmissionGate, AdmissionPermit};
use crate::batch::BatchAnswer;
use crate::cache::LruCache;
use crate::pool::{default_threads, WorkStealingPool};
use crate::ticket::{oneshot, Reply, Ticket, Wakes};

/// Configuration for a [`ServeRuntime`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads in the pool. Defaults to the machine's available
    /// parallelism.
    pub threads: usize,
    /// Capacity of the LRU answer cache, in entries. Zero disables caching.
    pub cache_capacity: usize,
    /// Shed-only bounded admission; `None` (the default) admits every
    /// probe. See [`AdmissionConfig`].
    pub admission: Option<AdmissionConfig>,
    /// Queue-depth watermark for graceful degradation: when set and the
    /// pool's pending-job count exceeds it at dispatch time, a lone probe
    /// may answer via [`BatchAnswer::answer_degraded`] (for the driver
    /// index: its one answering plan, flagged in the answer and never
    /// cached). `None` (the default) disables degrade mode.
    pub degrade_watermark: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: default_threads(),
            cache_capacity: 4_096,
            admission: None,
            degrade_watermark: None,
        }
    }
}

/// Counters describing what a runtime has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered (including cache hits).
    pub served: u64,
    /// Requests answered from the LRU cache.
    pub cache_hits: u64,
    /// Requests answered by sharing another identical request's computation
    /// within the same batch (intra-batch deduplication). Kept separate
    /// from [`ServeStats::cache_hits`] so cache-policy effectiveness and
    /// dedup savings stay independently measurable.
    pub dedup_hits: u64,
    /// Requests answered by joining an index probe that was already in
    /// flight for the same key (cross-caller deduplication), instead of
    /// re-probing the index.
    pub inflight_hits: u64,
    /// Fresh probes of a batch that shared their probe job with at least
    /// one other: every member of a job with two or more members counts,
    /// a job of one counts zero. The job's members are answered by one
    /// [`BatchAnswer::answer_batch`] call.
    pub coalesced: u64,
    /// Requests that had to probe the index.
    pub cache_misses: u64,
    /// Index probes that returned an error (counted once per probe; every
    /// waiter joined to the probe receives a clone of the error).
    pub errors: u64,
    /// Delta batches applied through [`ServeRuntime::apply_delta`]
    /// (including net no-ops, which leave the cache warm).
    pub deltas_applied: u64,
    /// Requests shed at the admission gate, counted per resolved ticket —
    /// a shed probe job counts every position it would have answered,
    /// and waiters fanned the `Overloaded` error count too.
    pub shed: u64,
    /// Requests dropped because their deadline had passed before the
    /// backend probe ran, counted per resolved ticket (waiters joined
    /// to an expired probe count too).
    pub deadline_expired: u64,
    /// Requests answered in degrade mode (cheapest-plan answers past
    /// the queue-depth watermark).
    pub degraded: u64,
}

impl fmt::Display for ServeStats {
    /// One-line human-readable summary, e.g.
    /// `served 512 | cache 100 | dedup 12 | in-flight 3 | coalesced 200 | misses 397 | errors 0 | deltas 1 | shed 4 | expired 2 | degraded 0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "served {} | cache {} | dedup {} | in-flight {} | coalesced {} | misses {} | errors {} | deltas {} | shed {} | expired {} | degraded {}",
            self.served,
            self.cache_hits,
            self.dedup_hits,
            self.inflight_hits,
            self.coalesced,
            self.cache_misses,
            self.errors,
            self.deltas_applied,
            self.shed,
            self.deadline_expired,
            self.degraded,
        )
    }
}

#[derive(Default)]
struct StatsCells {
    served: AtomicU64,
    cache_hits: AtomicU64,
    dedup_hits: AtomicU64,
    inflight_hits: AtomicU64,
    coalesced: AtomicU64,
    cache_misses: AtomicU64,
    errors: AtomicU64,
    deltas_applied: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    degraded: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            served: self.served.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            inflight_hits: self.inflight_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// Runs one call into the index, converting a panic into a regular
/// [`CqapError`] (`"{what} panicked: …"`) so workers stay alive, the
/// error counter stays truthful, and a panicking job still resolves every
/// member.
fn guarded<T>(what: &str, call: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(CqapError::Other(format!("{what} panicked: {message}")))
    })
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// The typed expiry of a request whose `deadline` had passed at `now`.
fn expiry(deadline: Instant, now: Instant) -> Option<CqapError> {
    (now >= deadline).then(|| CqapError::DeadlineExpired {
        late_ns: nanos(now - deadline),
    })
}

/// The reply that resolves one caller's ticket for an index `I`.
type AnswerReply<I> = Reply<Arc<<I as BatchAnswer>::Answer>>;

/// A cache entry an insert displaced, dropped outside the state lock.
type Displaced<I> = Option<(<I as BatchAnswer>::Request, Arc<<I as BatchAnswer>::Answer>)>;

/// The mutable online state, behind one mutex: the LRU answer cache plus
/// the in-flight pending map. Holding both under a single lock makes the
/// "check cache, then join or register a probe" sequence atomic, so two
/// concurrent lookups of one key can never both miss the pending map.
///
/// The cache stores `Arc<Answer>`: hits and inserts inside the critical
/// section are refcount bumps, never deep answer clones.
struct OnlineState<I: BatchAnswer> {
    cache: LruCache<I::Request, Arc<I::Answer>>,
    /// Keys currently being probed by a pool worker, each with the callers
    /// that arrived while the probe was in flight (one per ticket).
    pending: FxHashMap<I::Request, Vec<Waiter<I>>>,
}

/// A caller that joined a probe in flight: its reply and, for a lone
/// request, its door's span, which the probe's job finishes before it
/// fills the ticket.
struct Waiter<I: BatchAnswer> {
    reply: AnswerReply<I>,
    span: Option<Span>,
}

impl<I: BatchAnswer> OnlineState<I> {
    /// Resolves one probed key: removes the key's pending entry (the
    /// lookup that chose to probe registered it) and caches `answer` under
    /// the entry's own key when there is one worth keeping (and a cache to
    /// keep it in). Returns the waiters that
    /// joined the probe and the cache entry the insert displaced. An
    /// answer, a probe error, an expiry and a shed all resolve here, so a
    /// key is cached and un-pended at one site.
    fn publish(
        &mut self,
        request: &I::Request,
        answer: Option<&Arc<I::Answer>>,
    ) -> (Vec<Waiter<I>>, Displaced<I>) {
        let Some((key, waiters)) = self.pending.remove_entry(request) else {
            return (Vec::new(), None);
        };
        let displaced = answer
            .filter(|_| self.cache.capacity() > 0)
            .and_then(|answer| self.cache.insert(key, Arc::clone(answer)));
        (waiters, displaced)
    }
}

/// One distinct request of a door's entries: the position it first
/// appears at, then the positions of its duplicates.
struct Group {
    first: usize,
    rest: Vec<usize>,
}

impl Group {
    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

/// A group's outcome at its door: the cached answer, or the ticket that a
/// probe (already in flight, or launched by this call) resolves.
enum Outcome<A> {
    Cached(Arc<A>),
    Ticket(Ticket<Arc<A>>),
}

/// The entries of one door's call: a lone request, owned so that it moves
/// into its probe job, or a batch with optional per-position deadlines.
enum Entries<'a, R> {
    Lone(R, Option<Instant>),
    Batch(&'a [R], Option<&'a [Instant]>),
}

/// One caller a probe job answers: its reply, and the deadline past which
/// it resolves as expired instead.
struct Member<I: BatchAnswer> {
    reply: AnswerReply<I>,
    deadline: Option<Instant>,
}

/// Fresh probes and the callers they answer: the unit the admission gate
/// charges one slot and the pool runs as one job. A lone request's job has
/// one member; a batch deals its fresh probes into at most one job per
/// worker.
struct Job<I: BatchAnswer> {
    /// One distinct request key per member, in member order.
    requests: Vec<I::Request>,
    members: Vec<Member<I>>,
    /// A lone request's door span, or a leg of a batch door's span.
    span: Span,
}

/// What a runtime shares with its pool workers: the online state, the
/// counters and the metrics sink.
struct Shared<I: BatchAnswer> {
    state: Mutex<OnlineState<I>>,
    stats: StatsCells,
    sink: MetricsSink,
}

impl<I: BatchAnswer> Shared<I> {
    /// The one worker path: resolves every member of `job` with at most
    /// one call into the index.
    ///
    /// Each member's verdict is fixed before the call: shed (the gate's
    /// `refusal`), expired (its deadline passed), or live. The live
    /// members' requests go to [`probe`] — one [`BatchAnswer::answer_batch`]
    /// call, or the cheapest plan first when `degrade` is set (lone jobs
    /// only), whose answer is never cached. Each failing member counts one
    /// error.
    ///
    /// All members are published under one lock while the job still holds
    /// the index, so an `apply_delta` can never slip between the probe and
    /// the publish (a pre-delta answer cached after the delta's clear).
    /// Then, in this order: the index handle and the `permit` go, so a
    /// caller whose ticket resolved can `apply_delta` at once; the cache
    /// entries the publish displaced are dropped, outside the lock; the
    /// joined waiters' spans are finished and their tickets filled; the
    /// job's span laps the delivery (admitted jobs only) and is finished;
    /// every member's ticket is filled; and only then is any caller woken.
    /// A caller parked on one of the job's tickets therefore wakes once and
    /// finds the whole job resolved, instead of racing the worker through
    /// the rest. A span that owns its trace's root thus commits it before
    /// its caller can see the answer.
    fn dispatch(
        &self,
        job: Job<I>,
        index: Arc<I>,
        permit: Option<AdmissionPermit>,
        degrade: bool,
        refusal: Option<CqapError>,
    ) {
        let Job { requests, members, mut span } = job;
        // A shed job never queued or probed: it records no stage.
        let admitted = refusal.is_none();
        if admitted {
            span.lap(StageId::QueueWait, 0);
        }
        // One clock read fixes every verdict, and none without a deadline.
        let now = members.iter().any(|m| m.deadline.is_some()).then(Instant::now);
        let verdict =
            |member: &Member<I>| refusal.clone().or_else(|| expiry(member.deadline?, now?));
        let live = members.iter().filter(|m| verdict(m).is_none()).count();
        let mut degraded = false;
        let mut probed = (live > 0).then(|| {
            let _scope = TraceScope::enter(&span);
            let requests: Cow<'_, [I::Request]> = if live == members.len() {
                Cow::Borrowed(&requests)
            } else {
                let live = requests.iter().zip(&members);
                let live = live.filter(|(_, member)| verdict(member).is_none());
                Cow::Owned(live.map(|(request, _)| request.clone()).collect())
            };
            let (answers, cheap) = probe(&*index, &requests, degrade);
            degraded = cheap;
            span.lap(StageId::BackendProbe, 0);
            answers.map(Vec::into_iter)
        });
        let mut errors = 0;
        let mut resolved: Vec<_> = members
            .into_iter()
            .map(|member| {
                let verdict = verdict(&member);
                let skipped = verdict.is_some();
                let result = match (verdict, &mut probed) {
                    (Some(error), _) => Err(error),
                    (None, Some(Ok(answers))) => {
                        answers.next().expect("one answer per live member").map(Arc::new)
                    }
                    (None, Some(Err(error))) => Err(error.clone()),
                    (None, None) => unreachable!("a live member runs the probe"),
                };
                errors += u64::from(!skipped && result.is_err());
                (member, skipped, result, Vec::new(), None)
            })
            .collect();
        // Tickets resolved without the probe (shed or expired): each member
        // and each waiter that joined it.
        let mut dropped = 0;
        {
            let mut state = self.state.lock().expect("state lock");
            let members = resolved.iter_mut().zip(&requests);
            for ((_, skipped, result, waiters, displaced), request) in members {
                // Degraded answers are never cached: a warm hit must not
                // keep serving the cheap answer after the overload ends.
                let keep = result.as_ref().ok().filter(|_| !degraded);
                (*waiters, *displaced) = state.publish(request, keep);
                if *skipped {
                    dropped += 1 + waiters.len() as u64;
                }
            }
        }
        // Release after publish, before any fill: the caller a fill
        // resolves may mutate the index next, and `Arc::get_mut` needs
        // every other handle gone.
        drop(index);
        drop(permit);
        // An evicted answer may hold the last handle on its relation: free
        // it outside the state lock, before anyone wakes.
        for (.., displaced) in &mut resolved {
            drop(displaced.take());
        }
        if dropped > 0 {
            let (cell, counter) = if refusal.is_some() {
                (&self.stats.shed, CounterId::RequestsShed)
            } else {
                (&self.stats.deadline_expired, CounterId::DeadlinesExpired)
            };
            cell.fetch_add(dropped, Ordering::Relaxed);
            self.sink.add(counter, dropped);
        }
        if errors > 0 {
            self.stats.errors.fetch_add(errors, Ordering::Relaxed);
        }
        if degraded {
            self.stats.degraded.fetch_add(1, Ordering::Relaxed);
            self.sink.incr(CounterId::DegradedAnswers);
        }
        // Fill every ticket, then wake: a caller gathering the job's
        // tickets in order wakes on the first and finds the rest filled.
        let mut wakes = Wakes::default();
        for (_, _, result, waiters, _) in &mut resolved {
            for Waiter { reply, span } in waiters.drain(..) {
                drop(span);
                wakes.add(reply.fill(result.clone()));
            }
        }
        if admitted {
            span.lap(StageId::TicketDelivery, 0);
        }
        drop(span);
        for (member, _, result, ..) in resolved {
            wakes.add(member.reply.fill(result));
        }
        // The wake: every ticket of the job is filled by now.
        drop(wakes);
    }
}

/// Answers one job's live `requests`, one result each in order, and says
/// whether they are degraded. A lone request past the degrade watermark
/// tries the cheapest plan first; otherwise the requests go to one
/// [`BatchAnswer::answer_batch`] call, and a panic in it (or a result count
/// that does not match) is one error for all of them.
fn probe<I: BatchAnswer>(
    index: &I,
    requests: &[I::Request],
    degrade: bool,
) -> (Result<Vec<Result<I::Answer>>>, bool) {
    if let ([request], true) = (requests, degrade) {
        let cheap = guarded("degraded answer", || {
            index.answer_degraded(request).transpose()
        });
        if let Some(cheap) = cheap.transpose() {
            return (Ok(vec![cheap]), true);
        }
    }
    let answers = guarded("request", || {
        let answers = index.answer_batch(requests);
        if answers.len() == requests.len() {
            Ok(answers)
        } else {
            Err(CqapError::Other(format!(
                "answer_batch returned {} results for {} requests",
                answers.len(),
                requests.len()
            )))
        }
    });
    (answers, false)
}

/// A concurrent, caching request-serving runtime over a shared immutable
/// index.
pub struct ServeRuntime<I: BatchAnswer + 'static> {
    index: Arc<I>,
    pool: WorkStealingPool,
    shared: Arc<Shared<I>>,
    gate: Option<Arc<AdmissionGate>>,
    degrade_watermark: Option<usize>,
}

impl<I: BatchAnswer + 'static> ServeRuntime<I> {
    /// Creates a runtime with the default configuration.
    pub fn new(index: Arc<I>) -> Self {
        ServeRuntime::with_config(index, ServeConfig::default())
    }

    /// Creates a runtime with an explicit thread count and cache capacity.
    pub fn with_config(index: Arc<I>, config: ServeConfig) -> Self {
        ServeRuntime::with_metrics(index, config, MetricsSink::disabled())
    }

    /// Creates a runtime recording request-lifecycle metrics into `sink`:
    /// per-stage latency histograms (queue wait, cache lookup, coalesce,
    /// backend probe, ticket delivery) plus the pool's queue-depth gauge
    /// and steal/park counters. Recording is allocation-free on the warm
    /// path; a [`MetricsSink::disabled`] sink makes this identical to
    /// [`with_config`](Self::with_config).
    pub fn with_metrics(index: Arc<I>, config: ServeConfig, sink: MetricsSink) -> Self {
        ServeRuntime {
            index,
            pool: WorkStealingPool::with_sink(config.threads, sink.clone()),
            gate: config
                .admission
                .map(|admission| AdmissionGate::new(admission, sink.clone())),
            degrade_watermark: config.degrade_watermark,
            shared: Arc::new(Shared {
                state: Mutex::new(OnlineState {
                    cache: LruCache::new(config.cache_capacity),
                    pending: FxHashMap::default(),
                }),
                stats: StatsCells::default(),
                sink,
            }),
        }
    }

    /// The shared index being served.
    pub fn index(&self) -> &Arc<I> {
        &self.index
    }

    /// Counters since construction.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// Applies one delta batch to the served index in place, through the
    /// index's own [`ApplyDelta`](cqap_delta::ApplyDelta) implementation.
    ///
    /// The cache-invalidation rule: cached answers are dropped exactly
    /// when the batch had a **net effect** — a no-op batch (empty, or
    /// fully cancelling) leaves the LRU warm, because the index contents
    /// it reflects did not change. In-flight probes are unaffected either
    /// way: requiring exclusive access to the index (below) means none can
    /// be running, or holding an unpublished answer, during an apply. A
    /// worker lets go of the index after publishing and before it resolves
    /// any ticket, so an apply right after a `wait()` or a `serve_batch`
    /// finds the index free.
    ///
    /// # Errors
    /// Fails if the index `Arc` is shared outside this runtime or a probe
    /// is still in flight (exclusive access is required to mutate), and
    /// propagates the index's own apply errors.
    pub fn apply_delta(
        &mut self,
        batch: &cqap_delta::DeltaBatch,
    ) -> Result<cqap_delta::DeltaStats>
    where
        I: cqap_delta::ApplyDelta,
    {
        let index = Arc::get_mut(&mut self.index).ok_or_else(|| {
            CqapError::Other(
                "cannot apply a delta: the served index is shared (another \
                 handle or an in-flight probe holds it)"
                    .into(),
            )
        })?;
        let stats = index.apply_delta(batch)?;
        self.shared.stats.deltas_applied.fetch_add(1, Ordering::Relaxed);
        if !stats.is_noop() {
            self.shared.state.lock().expect("state lock").cache.clear();
        }
        Ok(stats)
    }

    /// Consults the cache and the pending map for `request` in the locked
    /// `state`: a hit; a join of the probe in flight, whose waiters get a
    /// new reply and `span` (a lone door's, which laps `CacheLookup` here);
    /// or a fresh probe, whose pending entry is registered and whose reply
    /// comes back for the job that will resolve it.
    fn lookup(
        &self,
        state: &mut OnlineState<I>,
        request: &I::Request,
        span: &mut Option<Span>,
    ) -> (Outcome<I::Answer>, Option<AnswerReply<I>>) {
        let stats = &self.shared.stats;
        if let Some(answer) = state.cache.get(request) {
            stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return (Outcome::Cached(answer), None);
        }
        let (reply, ticket) = oneshot();
        if let Some(waiters) = state.pending.get_mut(request) {
            stats.inflight_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(span) = span {
                span.lap(StageId::CacheLookup, 0);
            }
            waiters.push(Waiter { reply, span: span.take() });
            (Outcome::Ticket(ticket), None)
        } else {
            stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            state.pending.insert(request.clone(), Vec::new());
            (Outcome::Ticket(ticket), Some(reply))
        }
    }

    /// Admits `job` and queues it on the pool — or, when the gate is full,
    /// resolves it at once through the same worker path with the gate's
    /// refusal. Degrade mode is decided here: the submitter sees the queue
    /// depth the job is about to join, which is exactly the watermark
    /// signal (a worker-side check would see one job fewer).
    fn launch(&self, job: Job<I>) {
        let index = Arc::clone(&self.index);
        match self.gate.as_ref().map(AdmissionGate::admit).transpose() {
            Err(refusal) => self.shared.dispatch(job, index, None, false, Some(refusal)),
            Ok(permit) => {
                let degrade = job.members.len() == 1
                    && self
                        .degrade_watermark
                        .is_some_and(|watermark| self.pool.pending() > watermark);
                let shared = Arc::clone(&self.shared);
                self.pool
                    .execute(move || shared.dispatch(job, index, permit, degrade, None));
            }
        }
    }

    /// Submits one request; the returned [`Ticket`] resolves to its answer.
    /// Cache hits resolve immediately without entering the pool, and
    /// concurrent submits of one key share a single index probe.
    ///
    /// With admission configured ([`ServeConfig::admission`]) a request
    /// that must probe the index takes a gate slot; past the bound its
    /// ticket resolves immediately with [`CqapError::Overloaded`] (see
    /// [`ServeStats::shed`]). This call never blocks.
    ///
    /// With a flight recorder on the sink, the request's whole lifecycle
    /// records against the enclosing [`TraceScope`]'s trace, or else a
    /// trace of its own, allocated per the sampling policy.
    pub fn submit(&self, request: I::Request) -> Ticket<Arc<I::Answer>> {
        self.submit_entry(request, None)
    }

    /// [`submit`](Self::submit) with an absolute deadline.
    ///
    /// A request that must be probed, and whose `deadline` has passed when
    /// a worker picks its job up (or had passed on arrival), is dropped
    /// *before* the backend probe: its ticket resolves with
    /// [`CqapError::DeadlineExpired`]. Cache hits and joins of in-flight
    /// probes ignore the deadline: the answer is already paid for.
    pub fn submit_with_deadline(
        &self,
        request: I::Request,
        deadline: Instant,
    ) -> Ticket<Arc<I::Answer>> {
        self.submit_entry(request, Some(deadline))
    }

    /// The one-request doors: the lone entry's ticket. A hit's ticket is
    /// resolved here, after its door span is finished, so cache hits still
    /// show up as committed traces.
    fn submit_entry(&self, request: I::Request, deadline: Option<Instant>) -> Ticket<Arc<I::Answer>> {
        let mut outcome = None;
        self.serve(Entries::Lone(request, deadline), |_, o| outcome = Some(o));
        match outcome.expect("one outcome per entry") {
            Outcome::Ticket(ticket) => ticket,
            Outcome::Cached(answer) => {
                let (reply, ticket) = oneshot();
                reply.send(Ok(answer));
                ticket
            }
        }
    }

    /// Answers a batch of requests concurrently, preserving input order.
    ///
    /// Identical requests inside the batch are answered once and fanned out
    /// (sharing one `Arc`); previously served requests are answered from
    /// the LRU cache; requests whose probe is already in flight (from a
    /// concurrent `submit` or batch) join that probe instead of re-running
    /// it. Remaining fresh probes are dealt into at most one job per
    /// worker; each job answers its members with one
    /// [`BatchAnswer::answer_batch`] call, member by member (jobs of two or
    /// more members count in [`ServeStats::coalesced`]).
    ///
    /// # Errors
    /// Fails if any request fails (the first error in input order wins).
    pub fn serve_batch(&self, requests: &[I::Request]) -> Result<Vec<Arc<I::Answer>>> {
        // Collecting short-circuits on the first `Err` in iteration
        // order, which is input order — the documented contract.
        self.gather(requests, None).into_iter().collect()
    }

    /// [`serve_batch`](Self::serve_batch) with one absolute deadline per
    /// request, returning per-position results instead of failing the
    /// whole batch on the first error.
    ///
    /// Dispatch is earliest-deadline-first: distinct requests are ordered
    /// by their earliest position's deadline before their fresh probes
    /// are dealt into jobs. Expiry follows
    /// [`submit_with_deadline`](Self::submit_with_deadline)'s rule; a
    /// deduplicated group expires only once every position has.
    ///
    /// # Panics
    /// Panics if `deadlines.len() != requests.len()`.
    pub fn serve_batch_with_deadlines(
        &self,
        requests: &[I::Request],
        deadlines: &[Instant],
    ) -> Vec<Result<Arc<I::Answer>>> {
        assert_eq!(requests.len(), deadlines.len(), "one deadline per request");
        self.gather(requests, Some(deadlines))
    }

    /// The batch doors' gather: one result per position, in input order.
    /// The door's span is finished after the slowest answer.
    fn gather(
        &self,
        requests: &[I::Request],
        deadlines: Option<&[Instant]>,
    ) -> Vec<Result<Arc<I::Answer>>> {
        let mut answers: Vec<Option<Result<Arc<I::Answer>>>> = vec![None; requests.len()];
        let mut tickets = Vec::new();
        let door = self.serve(Entries::Batch(requests, deadlines), |group, outcome| match outcome {
                Outcome::Cached(answer) => {
                    group.positions().for_each(|p| answers[p] = Some(Ok(Arc::clone(&answer))));
                }
                Outcome::Ticket(ticket) => tickets.push((ticket, group)),
            });
        for (ticket, group) in tickets {
            let result = ticket.wait();
            group.positions().for_each(|p| answers[p] = Some(result.clone()));
        }
        drop(door);
        answers
            .into_iter()
            .map(|a| a.expect("every position answered or errored"))
            .collect()
    }

    /// The one request path behind every door. It counts the entries as
    /// served, groups duplicates (a lone entry is its own group: no map,
    /// no hash), looks every group up in one pass under the state lock,
    /// then deals the fresh probes into `min(threads, fresh)` contiguous
    /// jobs, earliest deadline first, and launches them after the lock's
    /// release (workers publish into the same state). Each group's outcome
    /// goes to `deliver`. Expiry is left to the jobs' workers.
    ///
    /// The door's span laps `CacheLookup` after the lookup pass. A lone
    /// request's span goes with its outcome (a hit finishes it here, a
    /// join moves it into the waiter entry, a fresh probe into its job); a
    /// batch's span laps `Coalesce` after the launch and comes back for the
    /// gather to finish.
    fn serve(
        &self,
        entries: Entries<'_, I::Request>,
        mut deliver: impl FnMut(Group, Outcome<I::Answer>),
    ) -> Option<Span> {
        let shared = &self.shared;
        let mut door = Some(shared.sink.span());
        let lone = matches!(entries, Entries::Lone(..));
        let (requests, deadlines) = match &entries {
            Entries::Lone(request, deadline) => {
                (slice::from_ref(request), deadline.as_ref().map(slice::from_ref))
            }
            Entries::Batch(requests, deadlines) => (*requests, *deadlines),
        };
        shared.stats.served.fetch_add(requests.len() as u64, Ordering::Relaxed);
        // A batch's positions sharing a request share one lookup; the
        // groups go most urgent first.
        let mut groups = Vec::new();
        if !lone {
            let mut by_request = FxHashMap::<&I::Request, Group>::default();
            by_request.reserve(requests.len());
            for (position, request) in requests.iter().enumerate() {
                by_request
                    .entry(request)
                    .and_modify(|group| group.rest.push(position))
                    .or_insert(Group { first: position, rest: Vec::new() });
            }
            let duplicates = (requests.len() - by_request.len()) as u64;
            shared.stats.dedup_hits.fetch_add(duplicates, Ordering::Relaxed);
            groups.extend(by_request);
            if let Some(deadlines) = deadlines {
                groups.sort_by_key(|(_, group)| group.positions().map(|p| deadlines[p]).min());
            }
        }
        let alone = lone.then(|| (&requests[0], Group { first: 0, rest: Vec::new() }));

        // The fresh probes, in group order: a batch clones each request
        // (the lone request moves into its job), and each group is one
        // member with its latest deadline, so the probe runs while any of
        // its positions can use it.
        let (mut probed, mut fresh) = (Vec::new(), Vec::new());
        {
            let mut state = shared.state.lock().expect("state lock");
            for (request, group) in alone.into_iter().chain(groups) {
                // Only a lone request's span can move into a waiter entry.
                let span = if lone { &mut door } else { &mut None };
                let (outcome, reply) = self.lookup(&mut state, request, span);
                if let Some(reply) = reply {
                    let deadline = deadlines.and_then(|ds| group.positions().map(|p| ds[p]).max());
                    fresh.push(Member { reply, deadline });
                    if !lone {
                        probed.push(request.clone());
                    }
                }
                deliver(group, outcome);
            }
        }
        // A lone join's span waits in its waiter entry, for the job that
        // resolves the probe to finish.
        let mut span = door?;
        span.lap(StageId::CacheLookup, 0);
        match entries {
            // A hit's span is finished here, before its ticket resolves.
            Entries::Lone(..) if fresh.is_empty() => None,
            Entries::Lone(request, _) => {
                self.launch(Job { requests: vec![request], members: fresh, span });
                None
            }
            Entries::Batch(..) if fresh.is_empty() => Some(span),
            Entries::Batch(..) => {
                self.launch_batch(probed, fresh, &span);
                span.lap(StageId::Coalesce, 0);
                Some(span)
            }
        }
    }

    /// Job formation for a batch door: contiguous runs, so every worker
    /// gets one and the most urgent job queues first; the last job takes
    /// the rest whole. Each job carries a leg of the door's span: a span
    /// opened inside the door's scope.
    fn launch_batch(&self, mut probed: Vec<I::Request>, mut fresh: Vec<Member<I>>, door: &Span) {
        let _scope = TraceScope::enter(door);
        let (n, jobs) = (fresh.len(), self.pool.threads().min(fresh.len()));
        for j in 0..jobs {
            let size = n / jobs + usize::from(j < n % jobs);
            let (requests, members) = if j + 1 < jobs {
                (probed.drain(..size).collect(), fresh.drain(..size).collect())
            } else {
                (mem::take(&mut probed), mem::take(&mut fresh))
            };
            if size >= 2 {
                self.shared.stats.coalesced.fetch_add(size as u64, Ordering::Relaxed);
            }
            self.launch(Job {
                requests,
                members,
                span: self.shared.sink.span(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::tests::until_parked;
    use cqap_decomp::families as pf;
    use cqap_panda::CqapIndex;
    use cqap_query::workload::{graph_pair_requests, Graph};
    use cqap_query::AccessRequest;
    use std::sync::mpsc;

    fn small_index() -> (Arc<CqapIndex>, Vec<AccessRequest>) {
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(30, 130, 17);
        let db = g.as_path_database(3);
        let index = Arc::new(CqapIndex::build(&cqap, &db, &pmtds).unwrap());
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 60, 19)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        (index, requests)
    }

    #[test]
    fn batch_matches_sequential_in_order() {
        let (index, requests) = small_index();
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 4,
                cache_capacity: 16,
                ..ServeConfig::default()
            },
        );
        let parallel = runtime.serve_batch(&requests).unwrap();
        for (request, answer) in requests.iter().zip(&parallel) {
            assert_eq!(answer.as_ref(), &index.answer(request).unwrap());
        }
    }

    #[test]
    fn cache_serves_repeats() {
        let (index, requests) = small_index();
        let runtime = ServeRuntime::new(index);
        let first = runtime.serve_batch(&requests[..10]).unwrap();
        let second = runtime.serve_batch(&requests[..10]).unwrap();
        assert_eq!(first, second);
        let stats = runtime.stats();
        assert_eq!(stats.served, 20);
        assert!(
            stats.cache_hits + stats.dedup_hits >= 10,
            "second pass should be answered without index probes: {stats:?}"
        );
    }

    #[test]
    fn duplicates_within_a_batch_are_computed_once() {
        let (index, requests) = small_index();
        let runtime = ServeRuntime::with_config(
            index,
            ServeConfig {
                threads: 2,
                cache_capacity: 64,
                ..ServeConfig::default()
            },
        );
        let repeated: Vec<AccessRequest> = std::iter::repeat(requests[0].clone()).take(50).collect();
        let answers = runtime.serve_batch(&repeated).unwrap();
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        let stats = runtime.stats();
        assert_eq!(stats.cache_misses, 1, "one probe for 50 duplicates");
        assert_eq!(stats.dedup_hits, 49, "duplicates are dedup, not LRU, hits");
        assert_eq!(stats.cache_hits, 0, "nothing was in the LRU yet");
    }

    #[test]
    fn submit_tickets_resolve() {
        let (index, requests) = small_index();
        let runtime = ServeRuntime::new(Arc::clone(&index));
        let tickets: Vec<_> = requests
            .iter()
            .take(20)
            .map(|r| runtime.submit(r.clone()))
            .collect();
        for (request, ticket) in requests.iter().zip(tickets) {
            assert_eq!(*ticket.wait().unwrap(), index.answer(request).unwrap());
        }
    }

    #[test]
    fn submit_cache_hit_resolves_without_pool() {
        let (index, requests) = small_index();
        let runtime = ServeRuntime::new(index);
        runtime.submit(requests[0].clone()).wait().unwrap();
        let ticket = runtime.submit(requests[0].clone());
        // A cache hit is sent synchronously, so the answer is already there.
        assert!(ticket.try_wait().is_some());
        assert_eq!(runtime.stats().cache_hits, 1);
    }

    /// Fill, then wake: a caller parked on the first ticket of a job wakes
    /// only once every ticket of the job is filled, so gathering the rest
    /// never races the worker that fills them.
    #[test]
    fn a_job_wakes_its_parked_caller_once_every_ticket_is_filled() {
        const MEMBERS: u64 = 4_096;
        let runtime = ServeRuntime::with_config(
            Arc::new(CountingIndex {
                probes: AtomicU64::new(0),
            }),
            ServeConfig {
                threads: 1,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        let (members, mut rest): (Vec<_>, Vec<_>) = (0..MEMBERS)
            .map(|_| {
                let (reply, ticket) = oneshot();
                (Member { reply, deadline: None }, ticket)
            })
            .unzip();
        let first = rest.remove(0);
        let (outcome, woke) = mpsc::channel();
        let caller = std::thread::spawn(move || {
            let answer = first.wait();
            // Last ticket first: a worker still filling fills it last.
            let unfilled = rest.iter().rev().filter(|t| t.try_wait().is_none()).count();
            outcome.send((answer, unfilled)).expect("test alive");
        });
        until_parked(&members[0].reply);
        let job = Job {
            requests: (0..MEMBERS).collect(),
            members,
            span: runtime.shared.sink.span(),
        };
        let index = Arc::clone(runtime.index());
        runtime.shared.dispatch(job, index, None, false, None);
        let (answer, unfilled) = woke
            .recv_timeout(Duration::from_secs(10))
            .expect("the parked caller woke");
        assert_eq!(*answer.unwrap(), 0);
        assert_eq!(unfilled, 0, "the caller woke before the job's last fill");
        caller.join().unwrap();
    }

    /// A deliberately faulty index: one poison key panics mid-answer.
    struct PanicIndex;

    impl crate::BatchAnswer for PanicIndex {
        type Request = u64;
        type Answer = u64;

        fn answer_one(&self, request: &u64) -> cqap_common::Result<u64> {
            assert!(*request != 13, "poison key");
            Ok(request * 2)
        }
    }

    #[test]
    fn panicking_request_becomes_an_error_not_a_dead_runtime() {
        let runtime = ServeRuntime::with_config(
            Arc::new(PanicIndex),
            ServeConfig {
                threads: 2,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        );
        let error = runtime.submit(13).wait().expect_err("poison key fails");
        assert!(
            error.to_string().contains("request panicked"),
            "got: {error}"
        );
        assert_eq!(runtime.stats().errors, 1);
        // The runtime is still alive and serving.
        assert_eq!(*runtime.submit(7).wait().unwrap(), 14);
        // In a batch, the panic fails the batch without hanging it.
        assert!(runtime.serve_batch(&[1, 13, 2]).is_err());
        let ok: Vec<u64> = runtime
            .serve_batch(&[1, 2, 3])
            .unwrap()
            .into_iter()
            .map(|a| *a)
            .collect();
        assert_eq!(ok, vec![2, 4, 6]);
    }

    /// An index whose probes block until the test releases them, with a
    /// probe counter — the tool for deterministic thundering-herd tests.
    struct GatedIndex {
        gate: Mutex<mpsc::Receiver<()>>,
        probes: AtomicU64,
    }

    impl GatedIndex {
        fn new() -> (Arc<Self>, mpsc::Sender<()>) {
            let (tx, rx) = mpsc::channel();
            (
                Arc::new(GatedIndex {
                    gate: Mutex::new(rx),
                    probes: AtomicU64::new(0),
                }),
                tx,
            )
        }
    }

    impl crate::BatchAnswer for GatedIndex {
        type Request = u64;
        type Answer = u64;

        fn answer_one(&self, request: &u64) -> cqap_common::Result<u64> {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.gate
                .lock()
                .expect("gate lock")
                .recv()
                .expect("gate open");
            if *request == 13 {
                return Err(cqap_common::CqapError::Other("poison key".into()));
            }
            Ok(request * 10)
        }
    }

    #[test]
    fn concurrent_submits_of_one_key_share_a_single_probe() {
        let (index, gate) = GatedIndex::new();
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 4,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        );
        // Ten submits of the hot key while the first probe is blocked on
        // the gate: nine must join the in-flight probe.
        let tickets: Vec<_> = (0..10).map(|_| runtime.submit(5)).collect();
        // Nothing has resolved yet (the probe is gated).
        assert!(tickets[0].try_wait().is_none());
        gate.send(()).expect("worker waiting");
        for ticket in tickets {
            assert_eq!(*ticket.wait().unwrap(), 50);
        }
        assert_eq!(index.probes.load(Ordering::Relaxed), 1, "one probe total");
        let stats = runtime.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.inflight_hits, 9);
        assert_eq!(stats.served, 10);
        // The answer is now cached: an eleventh submit is a cache hit.
        assert_eq!(*runtime.submit(5).wait().unwrap(), 50);
        assert_eq!(runtime.stats().cache_hits, 1);
    }

    #[test]
    fn serve_batch_joins_probes_already_in_flight() {
        let (index, gate) = GatedIndex::new();
        let runtime = Arc::new(ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 4,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        ));
        // A submit starts a gated probe of key 7...
        let ticket = runtime.submit(7);
        // ...then a batch containing 7 (twice) and a fresh key 8 arrives on
        // another thread. It must join the in-flight probe of 7, not rerun
        // it.
        let batch_runtime = Arc::clone(&runtime);
        let batch = std::thread::spawn(move || batch_runtime.serve_batch(&[7, 8, 7]).unwrap());
        // Wait until the batch has registered (it joins 7's probe in the
        // same locked pass that dispatches 8's), then release both gated
        // probes. 7's probe cannot complete before the batch registers,
        // because no gate token has been sent yet.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while runtime.stats().inflight_hits == 0 {
            assert!(std::time::Instant::now() < deadline, "batch never joined");
            std::thread::yield_now();
        }
        gate.send(()).expect("worker waiting");
        gate.send(()).expect("worker waiting");
        let answers: Vec<u64> = batch.join().unwrap().into_iter().map(|a| *a).collect();
        assert_eq!(answers, vec![70, 80, 70]);
        assert_eq!(*ticket.wait().unwrap(), 70);
        assert_eq!(
            index.probes.load(Ordering::Relaxed),
            2,
            "keys 7 and 8 probed once each"
        );
        let stats = runtime.stats();
        assert_eq!(stats.inflight_hits, 1, "the batch joined 7's probe");
        assert_eq!(stats.dedup_hits, 1, "7 appeared twice in the batch");
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn waiters_receive_errors_from_a_shared_probe() {
        let (index, gate) = GatedIndex::new();
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        );
        // Both submits of the poison key are registered while the single
        // probe is still gated, so the second joins it as a waiter.
        let first = runtime.submit(13);
        let second = runtime.submit(13);
        gate.send(()).expect("worker waiting");
        assert!(first.wait().is_err());
        assert!(second.wait().is_err());
        assert_eq!(index.probes.load(Ordering::Relaxed), 1, "one shared probe");
        let stats = runtime.stats();
        assert_eq!(stats.errors, 1, "errors count probes, not waiters");
        assert_eq!(stats.inflight_hits, 1);
        // Errors are not cached: the key stays probe-able.
        let retry = runtime.submit(13);
        gate.send(()).expect("worker waiting");
        assert!(retry.wait().is_err());
        assert_eq!(index.probes.load(Ordering::Relaxed), 2);
    }

    /// An index that counts its probes (`answer_one` calls; the default
    /// `answer_batch` makes one per request).
    struct CountingIndex {
        probes: AtomicU64,
    }

    impl crate::BatchAnswer for CountingIndex {
        type Request = u64;
        type Answer = u64;

        fn answer_one(&self, request: &u64) -> cqap_common::Result<u64> {
            self.probes.fetch_add(1, Ordering::Relaxed);
            Ok(request * 2)
        }
    }

    #[test]
    fn fresh_distinct_keys_probe_once_each_and_cache_per_key() {
        let index = Arc::new(CountingIndex {
            probes: AtomicU64::new(0),
        });
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 16,
                ..ServeConfig::default()
            },
        );
        let batch: Vec<u64> = vec![1, 2, 3, 4, 5];
        let answers: Vec<u64> = runtime.serve_batch(&batch).unwrap().iter().map(|a| **a).collect();
        assert_eq!(answers, vec![2, 4, 6, 8, 10]);
        // Five fresh keys, five `answer_one` probes: one job per worker
        // (three members and two), each answered member by member.
        assert_eq!(index.probes.load(Ordering::Relaxed), 5, "one probe per key");
        let stats = runtime.stats();
        assert_eq!(stats.cache_misses, 5);
        assert_eq!(stats.coalesced, 5, "both jobs had two or more members");
        // Every member was cached under its own key, so any subset hits.
        let subset: Vec<u64> = runtime.serve_batch(&[4, 2]).unwrap().iter().map(|a| **a).collect();
        assert_eq!(subset, vec![8, 4]);
        assert_eq!(runtime.stats().cache_hits, 2);
        assert_eq!(runtime.serve_batch(&batch).unwrap().len(), 5);
        assert_eq!(runtime.stats().cache_hits, 7);
        assert_eq!(index.probes.load(Ordering::Relaxed), 5, "warm passes probe nothing");
    }

    /// A batch is answered member by member: one request over another
    /// access pattern, in the same job as valid ones (one worker), fails
    /// only its own position.
    #[test]
    fn a_bad_request_fails_only_its_own_position() {
        use cqap_yannakakis::naive_answer;

        let (index, requests) = small_index();
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 1,
                cache_capacity: 64,
                ..ServeConfig::default()
            },
        );
        let wrong = AccessRequest::single(cqap_common::VarSet::from_iter([0, 1]), &[0, 1]).unwrap();
        let mut batch = requests[..12].to_vec();
        batch.insert(5, wrong);
        let far = Instant::now() + Duration::from_secs(3_600);
        let results = runtime.serve_batch_with_deadlines(&batch, &vec![far; batch.len()]);
        for (position, (request, result)) in batch.iter().zip(&results).enumerate() {
            if position == 5 {
                assert!(
                    matches!(result, Err(CqapError::AccessPatternMismatch { .. })),
                    "the bad request fails with its own error: {result:?}"
                );
            } else {
                let expected = naive_answer(index.cqap(), index.database(), request).unwrap();
                assert_eq!(**result.as_ref().unwrap(), expected, "position {position}");
            }
        }
        let stats = runtime.stats();
        assert_eq!(stats.errors, 1, "one failing member, one error");
        assert_eq!(stats.coalesced, 13, "every member shared the one job");
    }

    #[test]
    fn coalesced_driver_answers_match_sequential() {
        // A cold batch's distinct requests share four probe jobs (one per
        // worker), each answered member by member — exactly the
        // sequential answers.
        let (index, requests) = small_index();
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 4,
                cache_capacity: 256,
                ..ServeConfig::default()
            },
        );
        let answers = runtime.serve_batch(&requests).unwrap();
        for (request, answer) in requests.iter().zip(&answers) {
            assert_eq!(answer.as_ref(), &index.answer(request).unwrap());
        }
        let stats = runtime.stats();
        assert!(stats.coalesced > 0, "cold distinct requests share jobs: {stats:?}");
    }

    #[test]
    fn metrics_sink_records_request_lifecycle() {
        let (index, requests) = small_index();
        let sink = MetricsSink::recording();
        let runtime = ServeRuntime::with_metrics(
            index,
            ServeConfig {
                threads: 4,
                cache_capacity: 256,
                ..ServeConfig::default()
            },
            sink.clone(),
        );
        runtime.serve_batch(&requests).unwrap();
        runtime.serve_batch(&requests).unwrap(); // warm pass
        // Join the pool workers before snapshotting: the queue-depth
        // decrement runs after a job's result send, so it is only
        // guaranteed visible once the pool has drained.
        drop(runtime);
        let snap = sink.snapshot().expect("sink is recording");
        assert!(snap.stage(StageId::CacheLookup).count >= 2, "one per batch");
        assert!(snap.stage(StageId::BackendProbe).count > 0);
        assert!(snap.stage(StageId::TicketDelivery).count > 0);
        assert!(snap.stage(StageId::QueueWait).count > 0);
        assert!(
            snap.stage(StageId::Coalesce).count > 0,
            "the cold batch had fresh probes to form into jobs"
        );
        assert_eq!(
            snap.gauge(cqap_obs::GaugeId::QueueDepth),
            0,
            "all pool jobs completed"
        );
        // The warm pass dispatched nothing: probe count equals the cold
        // pass's pool activity.
        assert_eq!(
            snap.stage(StageId::BackendProbe).count,
            snap.stage(StageId::QueueWait).count,
            "every pool job was a probe"
        );
    }

    /// Satellite regression: attaching a live metrics sink must not
    /// re-introduce allocation on the warm single-request path. The
    /// cache-hit lookup (and its `CacheLookup` stage recording) runs on
    /// the calling thread, where the thread-local instrument counters
    /// can observe it.
    #[test]
    fn warm_submit_with_live_sink_stays_allocation_free() {
        let (index, requests) = small_index();
        let sink = MetricsSink::recording();
        let runtime = ServeRuntime::with_metrics(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 64,
                ..ServeConfig::default()
            },
            sink.clone(),
        );
        let cold = runtime.submit(requests[0].clone()).wait().unwrap();
        let dedup_before = cqap_relation::instrument::dedup_inserts();
        let boxes_before = cqap_common::tuple::instrument::heap_boxings();
        let warm = runtime.submit(requests[0].clone()).wait().unwrap();
        assert_eq!(
            cqap_relation::instrument::dedup_inserts(),
            dedup_before,
            "warm cache hit with live sink performs no relation dedup inserts"
        );
        assert_eq!(
            cqap_common::tuple::instrument::heap_boxings(),
            boxes_before,
            "warm cache hit with live sink boxes no tuples"
        );
        assert_eq!(warm, cold);
        let snap = sink.snapshot().expect("sink is recording");
        assert!(
            snap.stage(StageId::CacheLookup).count >= 2,
            "the warm lookup itself was recorded"
        );
        assert_eq!(runtime.stats().cache_hits, 1);
    }

    /// Tentpole acceptance: a 1-in-N–sampled flight recorder attached to
    /// the live sink preserves the warm-path guarantee. Unsampled warm
    /// requests perform zero relation dedup inserts and zero tuple heap
    /// boxings (the trace seam must not even read the clock for them),
    /// while the sampled request's events still land in the ring.
    #[test]
    fn warm_submit_with_one_in_n_tracer_stays_allocation_free() {
        use cqap_obs::{FlightRecorder, SamplingPolicy, TraceStage};

        let (index, requests) = small_index();
        let tracer = Arc::new(FlightRecorder::new(64, SamplingPolicy::OneInN(8)));
        let sink = MetricsSink::recording().with_tracer(Arc::clone(&tracer));
        let runtime = ServeRuntime::with_metrics(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 64,
                ..ServeConfig::default()
            },
            sink.clone(),
        );
        // Tick 0 of OneInN(8) is sampled: the cold request exercises the
        // full span path (QueueWait and probe legs write to the ring).
        let cold = runtime.submit(requests[0].clone()).wait().unwrap();
        // Ticks 1.. are unsampled: the warm hits are the acceptance
        // criterion.
        let dedup_before = cqap_relation::instrument::dedup_inserts();
        let boxes_before = cqap_common::tuple::instrument::heap_boxings();
        for _ in 0..3 {
            let warm = runtime.submit(requests[0].clone()).wait().unwrap();
            assert_eq!(warm, cold);
        }
        assert_eq!(
            cqap_relation::instrument::dedup_inserts(),
            dedup_before,
            "unsampled warm hits with a live tracer perform no relation dedup inserts"
        );
        assert_eq!(
            cqap_common::tuple::instrument::heap_boxings(),
            boxes_before,
            "unsampled warm hits with a live tracer box no tuples"
        );
        assert_eq!(runtime.stats().cache_hits, 3);
        // The sampled cold request committed a complete trace: a Request
        // root plus its QueueWait and BackendProbe legs share one id.
        drop(runtime); // join the pool so every leg is in the ring
        let events = tracer.drain();
        let root = events
            .iter()
            .find(|e| e.stage == TraceStage::Request)
            .expect("sampled request committed a root");
        for stage in [TraceStage::QueueWait, TraceStage::BackendProbe] {
            assert!(
                events
                    .iter()
                    .any(|e| e.stage == stage && e.trace_id == root.trace_id),
                "sampled trace carries a {stage:?} leg"
            );
        }
    }

    #[test]
    fn invalid_request_surfaces_as_error() {
        let (index, requests) = small_index();
        let runtime = ServeRuntime::new(index);
        // Wrong arity for the access pattern: the driver rejects it.
        let bad = AccessRequest::new(requests[0].access(), vec![cqap_common::Tuple::unary(1)]);
        assert!(bad.is_err(), "arity is validated at construction");
        // Errors from the index surface through serve_batch: a request over
        // the wrong access variables reaches the driver and fails there.
        let wrong_vars =
            AccessRequest::single(cqap_common::VarSet::from_iter([0, 1]), &[0, 1]).unwrap();
        let mut batch = requests[..3].to_vec();
        batch.push(wrong_vars);
        assert!(runtime.serve_batch(&batch).is_err());
    }

    // ----- Overload safety: admission, deadlines, degrade (PR 10) -----

    #[test]
    fn shed_admission_rejects_and_recovers() {
        let (index, gate) = GatedIndex::new();
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 8,
                admission: Some(AdmissionConfig::shed(2)),
                ..ServeConfig::default()
            },
        );
        // Admission happens on the submitting thread, so after these two
        // return, both slots are held by gated probes...
        let first = runtime.submit(1);
        let second = runtime.submit(2);
        // ...and the third submit sheds with the typed error.
        let error = runtime.submit(3).wait().expect_err("over the limit");
        assert!(error.is_overloaded(), "got: {error}");
        assert_eq!(runtime.stats().shed, 1);
        // Draining the gated probes frees the slots: the runtime recovers.
        gate.send(()).expect("worker waiting");
        gate.send(()).expect("worker waiting");
        assert_eq!(*first.wait().unwrap(), 10);
        assert_eq!(*second.wait().unwrap(), 20);
        let retry = runtime.submit(3);
        gate.send(()).expect("worker waiting");
        assert_eq!(*retry.wait().unwrap(), 30);
        assert_eq!(runtime.stats().shed, 1, "the retry was admitted");
        // Three probes total — keys 1, 2, and the retried 3. The shed
        // submit never reached the backend.
        assert_eq!(index.probes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn queued_request_past_its_deadline_is_dropped_before_the_probe() {
        let (index, gate) = GatedIndex::new();
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 1,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        );
        // Key 1 holds the single worker at the gate, so key 2's short
        // deadline passes while it sits queued.
        let first = runtime.submit(1);
        let second =
            runtime.submit_with_deadline(2, Instant::now() + Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(40));
        gate.send(()).expect("worker waiting");
        assert_eq!(*first.wait().unwrap(), 10);
        let error = second.wait().expect_err("deadline passed in the queue");
        assert!(error.is_deadline_expired(), "got: {error}");
        // One probe total: the expired request was dropped before the
        // backend (no second gate token was ever needed).
        assert_eq!(index.probes.load(Ordering::Relaxed), 1);
        let stats = runtime.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.errors, 0, "expiry is not a probe error");
    }

    /// Overload as counts, not timings: with the single worker held at
    /// the gate, an unbounded runtime queues every submit (its queue-depth
    /// gauge reaches the submitted count), while a shed-bounded one never
    /// holds more than `K` permits and sheds exactly the rest.
    #[test]
    fn a_held_worker_queues_every_submit_unless_the_gate_sheds() {
        use cqap_obs::GaugeId;

        const N: u64 = 12;
        const K: usize = 3;
        for admission in [None, Some(AdmissionConfig::shed(K))] {
            let (index, gate) = GatedIndex::new();
            let sink = MetricsSink::recording();
            let runtime = ServeRuntime::with_metrics(
                Arc::clone(&index),
                ServeConfig {
                    threads: 1,
                    cache_capacity: 0,
                    admission,
                    ..ServeConfig::default()
                },
                sink.clone(),
            );
            // Distinct keys (13 is the poison key), one probe job each.
            let mut tickets = Vec::new();
            for key in 1..=N {
                tickets.push((key, runtime.submit(key)));
                let gauges = sink.snapshot().expect("sink is recording");
                let admitted = gauges.gauge(GaugeId::AdmittedPending);
                match admission {
                    None => {
                        assert_eq!(gauges.gauge(GaugeId::QueueDepth), key as i64);
                        assert_eq!(admitted, 0, "no gate, no permits");
                    }
                    Some(_) => assert!(admitted <= K as i64, "{admitted} permits held"),
                }
            }
            let admitted = if admission.is_some() { K as u64 } else { N };
            let gauges = sink.snapshot().expect("sink is recording");
            assert_eq!(gauges.gauge(GaugeId::QueueDepth), admitted as i64);
            assert_eq!(runtime.stats().shed, N - admitted);
            for _ in 0..admitted {
                gate.send(()).expect("worker waiting");
            }
            let (mut answered, mut shed) = (0, 0);
            for (key, ticket) in tickets {
                match ticket.wait() {
                    Ok(answer) => {
                        assert_eq!(*answer, key * 10);
                        answered += 1;
                    }
                    Err(error) if error.is_overloaded() => shed += 1,
                    Err(error) => panic!("unexpected serving error: {error}"),
                }
            }
            assert_eq!((answered, shed), (admitted, N - admitted));
            assert_eq!(index.probes.load(Ordering::Relaxed), admitted);
            drop(runtime);
            let gauges = sink.snapshot().expect("sink is recording");
            assert_eq!(gauges.gauge(GaugeId::QueueDepth), 0);
            assert_eq!(gauges.gauge(GaugeId::AdmittedPending), 0);
        }
    }

    /// A queue-wait-dominated tail, made deterministic: the single worker
    /// is held at the gate while traced submits queue behind it, so every
    /// request but the first waits in the queue for at least the hold,
    /// and their probes find their release token already sent.
    #[test]
    fn requests_queued_behind_a_held_worker_make_a_queue_wait_tail() {
        use cqap_obs::{tail_attribution, FlightRecorder, SamplingPolicy, TraceStage};

        const N: u64 = 8;
        let (index, gate) = GatedIndex::new();
        let tracer = Arc::new(FlightRecorder::new(1 << 10, SamplingPolicy::Always));
        let sink = MetricsSink::recording().with_tracer(Arc::clone(&tracer));
        let runtime = ServeRuntime::with_metrics(
            index,
            ServeConfig {
                threads: 1,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            sink,
        );
        let tickets: Vec<_> = (1..=N).map(|key| runtime.submit(key)).collect();
        std::thread::sleep(Duration::from_millis(20));
        for _ in 0..N {
            gate.send(()).expect("worker waiting");
        }
        for (key, ticket) in (1..=N).zip(tickets) {
            assert_eq!(*ticket.wait().unwrap(), key * 10);
        }
        drop(runtime); // join the pool so every leg is in the ring
        let report = tail_attribution(&tracer.drain(), 0.5);
        assert_eq!(report.traces, N as usize, "every submit committed a trace");
        assert!(
            report.has_dominant(TraceStage::QueueWait),
            "the queued requests' tail is queue wait:\n{report}"
        );
    }

    /// Every door outcome under `SamplingPolicy::Always`, with the single
    /// worker held at the gate so each outcome is fixed: every trace
    /// commits exactly one root, and the row's door (the last trace begun)
    /// records exactly the listed stages.
    #[test]
    fn every_door_outcome_commits_one_root_over_its_exact_stages() {
        use cqap_obs::{FlightRecorder, SamplingPolicy, TraceStage};
        use std::collections::BTreeMap;
        use TraceStage::*;

        type Door = fn(&ServeRuntime<GatedIndex>, &mpsc::Sender<()>);
        let rows: [(&str, Option<AdmissionConfig>, Door, &[TraceStage]); 6] = [
            (
                "lone miss",
                None,
                |runtime, gate| {
                    let ticket = runtime.submit(1);
                    gate.send(()).expect("worker waiting");
                    assert_eq!(*ticket.wait().unwrap(), 10);
                },
                &[QueueWait, CacheLookup, BackendProbe, TicketDelivery, Request],
            ),
            (
                "lone hit",
                None,
                |runtime, gate| {
                    let cold = runtime.submit(1);
                    gate.send(()).expect("worker waiting");
                    cold.wait().unwrap();
                    assert_eq!(*runtime.submit(1).wait().unwrap(), 10);
                },
                &[CacheLookup, Request],
            ),
            (
                "lone join",
                None,
                |runtime, gate| {
                    let held = runtime.submit(1);
                    let joined = runtime.submit(1);
                    gate.send(()).expect("worker waiting");
                    held.wait().unwrap();
                    assert_eq!(*joined.wait().unwrap(), 10);
                    assert_eq!(runtime.stats().inflight_hits, 1);
                },
                &[CacheLookup, Request],
            ),
            (
                "lone shed",
                Some(AdmissionConfig::shed(1)),
                |runtime, gate| {
                    let held = runtime.submit(1);
                    assert!(runtime.submit(2).wait().unwrap_err().is_overloaded());
                    gate.send(()).expect("worker waiting");
                    held.wait().unwrap();
                },
                &[CacheLookup, Request],
            ),
            (
                "lone expired",
                None,
                |runtime, gate| {
                    let held = runtime.submit(1);
                    let past = Instant::now() - Duration::from_millis(1);
                    let expired = runtime.submit_with_deadline(2, past);
                    gate.send(()).expect("worker waiting");
                    held.wait().unwrap();
                    assert!(expired.wait().unwrap_err().is_deadline_expired());
                },
                &[QueueWait, CacheLookup, TicketDelivery, Request],
            ),
            (
                "batch: a duplicate, a hit, a join and fresh probes",
                None,
                |runtime, gate| {
                    let cold = runtime.submit(1);
                    gate.send(()).expect("worker waiting");
                    cold.wait().unwrap();
                    let held = runtime.submit(2);
                    std::thread::scope(|scope| {
                        let batch = scope.spawn(|| runtime.serve_batch(&[3, 3, 1, 2, 4]));
                        let patience = Instant::now() + Duration::from_secs(10);
                        while runtime.stats().inflight_hits == 0 {
                            assert!(Instant::now() < patience, "the batch never joined");
                            std::thread::yield_now();
                        }
                        for _ in 0..3 {
                            gate.send(()).expect("worker waiting");
                        }
                        let answers: Vec<u64> =
                            batch.join().unwrap().unwrap().iter().map(|a| **a).collect();
                        assert_eq!(answers, [30, 30, 10, 20, 40]);
                    });
                    held.wait().unwrap();
                },
                &[QueueWait, CacheLookup, Coalesce, BackendProbe, TicketDelivery, Request],
            ),
        ];
        for (row, admission, door, stages) in rows {
            let (index, gate) = GatedIndex::new();
            let tracer = Arc::new(FlightRecorder::new(1 << 10, SamplingPolicy::Always));
            let runtime = ServeRuntime::with_metrics(
                index,
                ServeConfig {
                    threads: 1,
                    cache_capacity: 8,
                    admission,
                    ..ServeConfig::default()
                },
                MetricsSink::recording().with_tracer(Arc::clone(&tracer)),
            );
            door(&runtime, &gate);
            drop(runtime); // join the pool so every lap is in the ring
            let mut traces = BTreeMap::<u64, Vec<TraceStage>>::new();
            for event in tracer.drain() {
                traces.entry(event.trace_id).or_default().push(event.stage);
            }
            for (trace, recorded) in &mut traces {
                let roots = recorded.iter().filter(|&&stage| stage == Request).count();
                assert_eq!(roots, 1, "{row}: trace {trace} committed {roots} roots");
                recorded.sort_unstable();
            }
            let (_, last) = traces.pop_last().expect("the row's door began a trace");
            assert_eq!(last, stages, "{row}");
        }
    }

    /// One deadline rule: an already-expired request is looked up like any
    /// other. On a cold cache its job expires on the worker with no probe;
    /// once its answer is cached, it is answered.
    #[test]
    fn an_already_expired_submit_is_answered_only_if_cached() {
        let index = Arc::new(CountingIndex {
            probes: AtomicU64::new(0),
        });
        let runtime = ServeRuntime::new(Arc::clone(&index));
        let past = Instant::now() - Duration::from_millis(5);
        let error = runtime.submit_with_deadline(4, past).wait().expect_err("expired, cold");
        assert!(error.is_deadline_expired(), "got: {error}");
        assert_eq!(index.probes.load(Ordering::Relaxed), 0, "expired before the probe");
        let stats = runtime.stats();
        assert_eq!((stats.cache_misses, stats.deadline_expired), (1, 1));

        assert_eq!(*runtime.submit(4).wait().unwrap(), 8);
        let cached = runtime.submit_with_deadline(4, past).wait();
        assert_eq!(*cached.expect("answered from the cache"), 8);
        assert_eq!(index.probes.load(Ordering::Relaxed), 1, "only the deadline-free submit probed");
        let stats = runtime.stats();
        assert_eq!((stats.cache_hits, stats.deadline_expired), (1, 1));
    }

    /// A batch's duplicates share one deadline window: their probe runs
    /// while any position can still use it, and expires, once, only when
    /// every position has expired.
    #[test]
    fn a_duplicate_group_expires_only_once_every_position_has() {
        for far in [true, false] {
            let (index, gate) = GatedIndex::new();
            let runtime = Arc::new(ServeRuntime::with_config(
                Arc::clone(&index),
                ServeConfig {
                    threads: 1,
                    cache_capacity: 8,
                    ..ServeConfig::default()
                },
            ));
            // Key 1 holds the single worker, so the batch's job queues.
            let held = runtime.submit(1);
            let near = Instant::now() + Duration::from_millis(20);
            let later = if far { near + Duration::from_secs(3_600) } else { near };
            let batch_runtime = Arc::clone(&runtime);
            let batch = std::thread::spawn(move || {
                batch_runtime.serve_batch_with_deadlines(&[2, 2], &[near, later])
            });
            let patience = Instant::now() + Duration::from_secs(10);
            while runtime.stats().cache_misses < 2 || Instant::now() <= near {
                assert!(Instant::now() < patience, "the batch never queued");
                std::thread::yield_now();
            }
            gate.send(()).expect("worker waiting");
            gate.send(()).expect("gate alive");
            assert_eq!(*held.wait().unwrap(), 10);
            let results = batch.join().unwrap();
            let key_probes = index.probes.load(Ordering::Relaxed) - 1;
            let stats = runtime.stats();
            if far {
                assert!(results.iter().all(|r| r.as_ref().is_ok_and(|a| **a == 20)));
                assert_eq!((key_probes, stats.deadline_expired), (1, 0));
            } else {
                assert!(results.iter().all(|r| r.as_ref().is_err_and(|e| e.is_deadline_expired())));
                assert_eq!((key_probes, stats.deadline_expired), (0, 1));
            }
        }
    }

    /// Release before send: a worker lets go of the index before the send
    /// that resolves a ticket, so the runtime holds the only handle again
    /// by the time any caller sees an answer, and `apply_delta` straight
    /// after succeeds on the first try — after a blocking `wait()`, after
    /// a polling `try_wait()` (which sees the answer the moment it is
    /// sent) and after a `serve_batch`.
    #[test]
    fn apply_delta_right_after_an_answer_finds_the_index_free() {
        use cqap_delta::DeltaBatch;

        let (index, requests) = small_index();
        let mut runtime = ServeRuntime::with_config(
            index,
            ServeConfig {
                threads: 2,
                cache_capacity: 64,
                ..ServeConfig::default()
            },
        );
        let edge = vec![cqap_common::Tuple::pair(1_000, 1_001)];
        for round in 0..200 {
            let request = &requests[round % requests.len()];
            match round % 3 {
                0 => {
                    runtime.submit(request.clone()).wait().unwrap();
                }
                1 => {
                    let ticket = runtime.submit(request.clone());
                    let answer = loop {
                        match ticket.try_wait() {
                            Some(answer) => break answer,
                            None => std::hint::spin_loop(),
                        }
                    };
                    answer.unwrap();
                }
                _ => {
                    runtime.serve_batch(&requests[..8]).unwrap();
                }
            }
            // Every batch has a net effect, so it clears the cache and
            // the next round probes the index again.
            let batch = if round % 2 == 0 {
                DeltaBatch::new().insert("R1", edge.clone())
            } else {
                DeltaBatch::new().delete("R1", edge.clone())
            };
            if let Err(error) = runtime.apply_delta(&batch) {
                panic!("round {round}: {error}");
            }
        }
        assert_eq!(runtime.stats().deltas_applied, 200);
    }

    /// A driver index whose probes wait for the test's go-ahead.
    struct GatedCqap {
        inner: CqapIndex,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl crate::BatchAnswer for GatedCqap {
        type Request = AccessRequest;
        type Answer = cqap_relation::Relation;

        fn answer_one(&self, request: &AccessRequest) -> Result<cqap_relation::Relation> {
            self.gate
                .lock()
                .expect("gate lock")
                .recv()
                .expect("gate open");
            self.inner.answer(request)
        }
    }

    impl cqap_delta::ApplyDelta for GatedCqap {
        fn apply_delta(
            &mut self,
            batch: &cqap_delta::DeltaBatch,
        ) -> Result<cqap_delta::DeltaStats> {
            self.inner.apply_delta(batch)
        }
    }

    /// Publish before release: a worker holds the index until its answer
    /// is cached and its pending entry is gone, so a delta applied while a
    /// ticket is unresolved can never be followed by the worker caching
    /// its pre-delta answer, nor by a later submit joining that probe.
    /// Each round pins the worker between its probe and its publish (the
    /// test holds the state lock before opening the probe's gate), checks
    /// the index is still held there, then applies a delta that changes
    /// the key's answer and requires the next submit of the key to match
    /// the oracle over the updated database.
    #[test]
    fn a_delta_never_lands_between_a_probe_and_its_publish() {
        use cqap_delta::DeltaBatch;
        use cqap_yannakakis::naive_answer;

        let (index, requests) = small_index();
        let (gate, rx) = mpsc::channel();
        let index = GatedCqap {
            inner: Arc::into_inner(index).expect("sole handle"),
            gate: Mutex::new(rx),
        };
        let mut runtime = ServeRuntime::with_config(
            Arc::new(index),
            ServeConfig {
                threads: 2,
                cache_capacity: 64,
                ..ServeConfig::default()
            },
        );
        let shared = Arc::clone(&runtime.shared);
        for round in 0..20 {
            // A key off the graph, empty until this round's delta inserts
            // the 3-path base → base+1 → base+2 → base+3.
            let base = 1_000 + 10 * round;
            let key = AccessRequest::single(requests[0].access(), &[base, base + 3]).unwrap();
            let unresolved = runtime.submit(key.clone());
            {
                let _pinned = shared.state.lock().expect("state lock");
                gate.send(()).expect("worker waiting");
                std::thread::sleep(Duration::from_millis(5));
                assert!(
                    Arc::strong_count(runtime.index()) > 1,
                    "round {round}: the worker let go of the index before publishing"
                );
            }
            let batch = ["R1", "R2", "R3"]
                .iter()
                .zip(base..)
                .fold(DeltaBatch::new(), |batch, (relation, from)| {
                    batch.insert(*relation, vec![cqap_common::Tuple::pair(from, from + 1)])
                });
            // The worker may still be publishing: wait for its handle to go.
            let patience = Instant::now() + Duration::from_secs(10);
            let stats = loop {
                match runtime.apply_delta(&batch) {
                    Ok(stats) => break stats,
                    Err(error) if error.to_string().contains("is shared") => {
                        assert!(Instant::now() < patience, "round {round}: {error}");
                        std::thread::yield_now();
                    }
                    Err(error) => panic!("round {round}: {error}"),
                }
            };
            assert!(!stats.is_noop());
            assert!(unresolved.wait().unwrap().is_empty(), "probed before the delta");
            gate.send(()).expect("worker waiting");
            let fresh = runtime.submit(key.clone()).wait().unwrap();
            let index = &runtime.index().inner;
            let expected = naive_answer(index.cqap(), index.database(), &key).unwrap();
            assert!(!expected.is_empty(), "the delta inserted a path for the key");
            assert_eq!(*fresh, expected, "round {round}: a pre-delta answer was served");
        }
    }

    /// An index that records the order keys are probed in, gated so the
    /// queue builds up behind the first probe.
    struct OrderIndex {
        gate: Mutex<mpsc::Receiver<()>>,
        order: Mutex<Vec<u64>>,
    }

    impl crate::BatchAnswer for OrderIndex {
        type Request = u64;
        type Answer = u64;

        fn answer_one(&self, request: &u64) -> cqap_common::Result<u64> {
            self.gate
                .lock()
                .expect("gate lock")
                .recv()
                .expect("gate open");
            self.order.lock().expect("order lock").push(*request);
            Ok(request * 10)
        }
    }

    #[test]
    fn batch_dispatch_is_earliest_deadline_first() {
        let (tx, rx) = mpsc::channel();
        let index = Arc::new(OrderIndex {
            gate: Mutex::new(rx),
            order: Mutex::new(Vec::new()),
        });
        // One worker drains its queue in FIFO order, so the recorded
        // probe order is exactly the dispatch order.
        let runtime = Arc::new(ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 1,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        ));
        let now = Instant::now();
        let requests = vec![1u64, 2, 3];
        let deadlines = vec![
            now + Duration::from_secs(60),
            now + Duration::from_secs(30),
            now + Duration::from_secs(10),
        ];
        let batch_runtime = Arc::clone(&runtime);
        let batch = std::thread::spawn(move || {
            batch_runtime.serve_batch_with_deadlines(&requests, &deadlines)
        });
        for _ in 0..3 {
            tx.send(()).expect("worker waiting");
        }
        let results = batch.join().unwrap();
        for (position, result) in results.iter().enumerate() {
            assert_eq!(**result.as_ref().unwrap(), (position as u64 + 1) * 10);
        }
        assert_eq!(
            *index.order.lock().unwrap(),
            vec![3, 2, 1],
            "the earliest deadline probes first"
        );
    }

    #[test]
    fn batch_admission_sheds_per_position_without_failing_the_batch() {
        let (index, gate) = GatedIndex::new();
        let runtime = Arc::new(ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 8,
                admission: Some(AdmissionConfig::shed(1)),
                ..ServeConfig::default()
            },
        ));
        let far = Instant::now() + Duration::from_secs(60);
        let batch_runtime = Arc::clone(&runtime);
        let batch = std::thread::spawn(move || {
            batch_runtime.serve_batch_with_deadlines(&[1, 2], &[far, far])
        });
        // One slot: the first job dispatches and gates, the second sheds.
        let patience = Instant::now() + Duration::from_secs(10);
        while runtime.stats().shed == 0 {
            assert!(Instant::now() < patience, "second job never shed");
            std::thread::yield_now();
        }
        gate.send(()).expect("worker waiting");
        let results = batch.join().unwrap();
        assert_eq!(**results[0].as_ref().unwrap(), 10);
        assert!(results[1].as_ref().is_err_and(|e| e.is_overloaded()));
        assert_eq!(runtime.stats().shed, 1);
        assert_eq!(index.probes.load(Ordering::Relaxed), 1, "shed members never probe");
    }

    /// A gated index with a cheap ungated degraded path, flagged by `+1`.
    struct DegradableIndex {
        gate: Mutex<mpsc::Receiver<()>>,
        probes: AtomicU64,
        degraded_probes: AtomicU64,
    }

    impl crate::BatchAnswer for DegradableIndex {
        type Request = u64;
        type Answer = u64;

        fn answer_one(&self, request: &u64) -> cqap_common::Result<u64> {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.gate
                .lock()
                .expect("gate lock")
                .recv()
                .expect("gate open");
            Ok(request * 10)
        }

        fn answer_degraded(&self, request: &u64) -> Option<cqap_common::Result<u64>> {
            self.degraded_probes.fetch_add(1, Ordering::Relaxed);
            Some(Ok(request * 10 + 1))
        }
    }

    #[test]
    fn degrade_mode_past_the_watermark_answers_cheaply_and_skips_the_cache() {
        let (tx, rx) = mpsc::channel();
        let index = Arc::new(DegradableIndex {
            gate: Mutex::new(rx),
            probes: AtomicU64::new(0),
            degraded_probes: AtomicU64::new(0),
        });
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 1,
                cache_capacity: 8,
                degrade_watermark: Some(0),
                ..ServeConfig::default()
            },
        );
        // Key 1 occupies the single worker (the queue was empty at its
        // dispatch, so it is served in full)...
        let first = runtime.submit(1);
        let patience = Instant::now() + Duration::from_secs(10);
        while index.probes.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < patience, "first probe never started");
            std::thread::yield_now();
        }
        // ...key 2 queues behind it (queue still empty at dispatch time:
        // key 1 was already picked up)...
        let second = runtime.submit(2);
        // ...and key 3 dispatches with key 2 sitting queued — past the
        // watermark, so it degrades to the cheap plan.
        let third = runtime.submit(3);
        tx.send(()).expect("worker waiting");
        tx.send(()).expect("worker waiting");
        assert_eq!(*first.wait().unwrap(), 10);
        assert_eq!(*second.wait().unwrap(), 20);
        assert_eq!(*third.wait().unwrap(), 31, "degraded answer is flagged");
        let stats = runtime.stats();
        assert_eq!(stats.degraded, 1);
        assert_eq!(index.degraded_probes.load(Ordering::Relaxed), 1);
        // Degraded answers are never cached: a calm re-submit of key 3
        // runs the full probe and returns the full answer.
        let retry = runtime.submit(3);
        tx.send(()).expect("worker waiting");
        assert_eq!(*retry.wait().unwrap(), 30);
        assert_eq!(runtime.stats().degraded, 1);
    }

    /// PR-10 acceptance: enabling admission must not re-introduce
    /// allocation on the warm single-request path (counter-enforced, as
    /// in the sink/tracer variants above).
    #[test]
    fn warm_submit_with_admission_stays_allocation_free() {
        let (index, requests) = small_index();
        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 64,
                admission: Some(AdmissionConfig::shed(32)),
                ..ServeConfig::default()
            },
        );
        let cold = runtime.submit(requests[0].clone()).wait().unwrap();
        let dedup_before = cqap_relation::instrument::dedup_inserts();
        let boxes_before = cqap_common::tuple::instrument::heap_boxings();
        let warm = runtime.submit(requests[0].clone()).wait().unwrap();
        assert_eq!(
            cqap_relation::instrument::dedup_inserts(),
            dedup_before,
            "warm cache hit through the admission gate performs no dedup inserts"
        );
        assert_eq!(
            cqap_common::tuple::instrument::heap_boxings(),
            boxes_before,
            "warm cache hit through the admission gate boxes no tuples"
        );
        assert_eq!(warm, cold);
        assert_eq!(runtime.stats().cache_hits, 1);
        assert_eq!(runtime.stats().shed, 0);
    }

    #[test]
    fn driver_degraded_answer_is_flagged_and_contained() {
        let (index, requests) = small_index();
        for request in requests.iter().take(10) {
            let full = index.answer(request).unwrap();
            let degraded = index.answer_degraded(request).unwrap();
            assert_eq!(degraded.name(), cqap_panda::DEGRADED_ANSWER_NAME);
            for tuple in degraded.iter() {
                assert!(
                    full.contains(&tuple),
                    "degraded answers only ever under-report"
                );
            }
        }
    }
}
