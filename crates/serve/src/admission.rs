//! Admission control: the bounded front door of the serving runtime.
//!
//! An unbounded runtime accepts every submission, so an open-loop
//! overload (arrivals faster than service) grows the pool queue — and
//! every request's queue wait — without limit. An `AdmissionGate`
//! caps how many requests may be in flight at once and applies one of
//! three [`AdmissionPolicy`]s to the excess:
//!
//! * [`Block`](AdmissionPolicy::Block) — backpressure: the submitter
//!   waits (optionally up to a timeout) until a permit frees up.
//! * [`Shed`](AdmissionPolicy::Shed) — load shedding: the newest
//!   request is rejected immediately with a typed
//!   [`ServeError::Overloaded`], keeping the wait of *admitted*
//!   requests bounded.
//! * [`SemaphoreGate`](AdmissionPolicy::SemaphoreGate) — closed-loop
//!   fairness: submitters wait like `Block`, but are admitted in
//!   strict FIFO ticket order, so no submitter can starve behind a
//!   barger.
//!
//! Admission is enforced at `submit`/`submit_traced`/`serve_batch` in
//! the runtime, so everything layered on top (`ShardRouter`, tiered
//! backends) inherits the bound unchanged. A granted permit is RAII
//! (`AdmissionPermit`): it rides into the worker closure and is
//! released when the request resolves — including on a panicking
//! backend, because the pool catches unwinds and drops the closure.
//!
//! [`RetryPolicy`] is the client-side complement for the `Shed`
//! policy: budget-capped, full-jitter exponential backoff on
//! [`Overloaded`](ServeError::Overloaded) rejections.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cqap_obs::{GaugeId, MetricsSink, StageId, TraceId, TraceStage};

/// Typed serving errors, re-exported from the workspace error type so
/// callers can match `ServeError::Overloaded` / `ServeError::DeadlineExpired`.
pub use cqap_common::CqapError as ServeError;

/// What happens to a submission that arrives while the admission gate
/// is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Backpressure: the submitting thread waits until a permit frees
    /// up, or until `timeout` elapses (then the request is rejected
    /// with [`ServeError::Overloaded`] and counted as shed). `None`
    /// waits indefinitely.
    Block {
        /// Longest a submitter may wait for admission.
        timeout: Option<Duration>,
    },
    /// Load shedding: reject the newest request immediately with
    /// [`ServeError::Overloaded`]. The open-loop-safe choice — the
    /// submitter never blocks and admitted requests keep a bounded
    /// queue wait.
    Shed,
    /// Closed-loop fairness: like `Block` without a timeout, but
    /// waiting submitters are admitted in strict FIFO ticket order.
    SemaphoreGate,
}

/// Bounded-admission configuration for a serving runtime.
///
/// `Copy`, like the rest of `ServeConfig`: sinks and other handles
/// enter the runtime separately, never through configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum requests holding an admission permit at once (clamped
    /// to at least 1).
    pub max_pending: usize,
    /// What happens to submissions past the bound.
    pub policy: AdmissionPolicy,
}

impl AdmissionConfig {
    /// Shed (immediately reject) everything past `max_pending`.
    pub fn shed(max_pending: usize) -> Self {
        AdmissionConfig {
            max_pending,
            policy: AdmissionPolicy::Shed,
        }
    }

    /// Block submitters past `max_pending`, up to `timeout` (`None`
    /// waits indefinitely).
    pub fn block(max_pending: usize, timeout: Option<Duration>) -> Self {
        AdmissionConfig {
            max_pending,
            policy: AdmissionPolicy::Block { timeout },
        }
    }

    /// FIFO-fair blocking admission at `max_pending` permits.
    pub fn semaphore(max_pending: usize) -> Self {
        AdmissionConfig {
            max_pending,
            policy: AdmissionPolicy::SemaphoreGate,
        }
    }
}

/// Gate bookkeeping under one mutex: the permit count plus the FIFO
/// ticket pair used by [`AdmissionPolicy::SemaphoreGate`].
#[derive(Debug)]
struct GateState {
    /// Permits currently held.
    admitted: usize,
    /// Next ticket to hand to a FIFO waiter.
    next_ticket: u64,
    /// Ticket currently allowed to take a permit.
    now_serving: u64,
}

/// The runtime's admission gate: a counting semaphore with a policy
/// for the full case. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    limit: usize,
    policy: AdmissionPolicy,
    state: Mutex<GateState>,
    freed: Condvar,
    sink: MetricsSink,
}

impl AdmissionGate {
    pub(crate) fn new(config: AdmissionConfig, sink: MetricsSink) -> Arc<Self> {
        Arc::new(AdmissionGate {
            limit: config.max_pending.max(1),
            policy: config.policy,
            state: Mutex::new(GateState {
                admitted: 0,
                next_ticket: 0,
                now_serving: 0,
            }),
            freed: Condvar::new(),
            sink,
        })
    }

    /// Tries to take a permit for one request, applying the gate's
    /// policy when full. Waiting time is observed against
    /// [`StageId::AdmissionWait`] (and as a trace span when `trace`
    /// is sampled); a rejection returns [`ServeError::Overloaded`]
    /// and the caller counts the shed.
    pub(crate) fn admit(
        self: &Arc<Self>,
        trace: TraceId,
    ) -> Result<AdmissionPermit, ServeError> {
        let timed = (self.sink.is_enabled() || trace.is_sampled())
            && !matches!(self.policy, AdmissionPolicy::Shed);
        let started = timed.then(Instant::now);
        let mut state = self.state.lock().expect("admission gate poisoned");
        match self.policy {
            AdmissionPolicy::Shed => {
                if state.admitted >= self.limit {
                    return Err(ServeError::Overloaded {
                        pending: state.admitted,
                        limit: self.limit,
                    });
                }
                state.admitted += 1;
            }
            AdmissionPolicy::Block { timeout } => {
                let deadline = timeout.map(|t| Instant::now() + t);
                while state.admitted >= self.limit {
                    state = match deadline {
                        None => self.freed.wait(state).expect("admission gate poisoned"),
                        Some(deadline) => {
                            let left = deadline.saturating_duration_since(Instant::now());
                            if left.is_zero() {
                                self.finish_wait(started, trace);
                                return Err(ServeError::Overloaded {
                                    pending: state.admitted,
                                    limit: self.limit,
                                });
                            }
                            self.freed
                                .wait_timeout(state, left)
                                .expect("admission gate poisoned")
                                .0
                        }
                    };
                }
                state.admitted += 1;
            }
            AdmissionPolicy::SemaphoreGate => {
                let ticket = state.next_ticket;
                state.next_ticket += 1;
                while state.now_serving < ticket || state.admitted >= self.limit {
                    state = self.freed.wait(state).expect("admission gate poisoned");
                }
                state.now_serving += 1;
                state.admitted += 1;
                // Wake the next ticket holder: admission order is the
                // ticket order, but wakeups are not.
                self.freed.notify_all();
            }
        }
        drop(state);
        self.sink.gauge_add(GaugeId::AdmittedPending, 1);
        self.finish_wait(started, trace);
        Ok(AdmissionPermit {
            gate: Arc::clone(self),
        })
    }

    /// Records the admission wait that ended now.
    fn finish_wait(&self, started: Option<Instant>, trace: TraceId) {
        if let Some(started) = started {
            let now = Instant::now();
            let ns = u64::try_from(now.duration_since(started).as_nanos()).unwrap_or(u64::MAX);
            self.sink.observe_ns(StageId::AdmissionWait, ns);
            if trace.is_sampled() {
                self.sink
                    .trace_span(trace, TraceStage::AdmissionWait, started, now, 0);
            }
        }
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("admission gate poisoned");
        debug_assert!(state.admitted > 0, "permit released twice");
        state.admitted = state.admitted.saturating_sub(1);
        drop(state);
        self.sink.gauge_add(GaugeId::AdmittedPending, -1);
        self.freed.notify_all();
    }
}

/// An RAII admission permit: one admitted request's slot at the gate,
/// released on drop.
///
/// The runtime moves the permit into the worker closure serving the
/// request, so the slot frees exactly when the request resolves —
/// even when the backend panics, because the pool catches the unwind
/// and drops the closure's captures.
#[derive(Debug)]
pub(crate) struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// Budget-capped, full-jitter exponential backoff for retrying
/// [`ServeError::Overloaded`] rejections from a shedding runtime.
///
/// Attempt `k` (0-based) sleeps a uniform-random duration in
/// `[0, min(max_delay, base_delay · 2^k)]` — "full jitter", which
/// decorrelates retrying clients instead of re-synchronising them
/// into the next overload spike. The jitter PRNG is seeded, so a
/// given policy produces a deterministic delay sequence (tests stay
/// reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (the total budget is
    /// `1 + max_retries` attempts).
    pub max_retries: u32,
    /// Backoff scale for the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the jitter PRNG.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let ceiling = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_delay);
        // splitmix64 of (seed, attempt): cheap, deterministic, and
        // well-distributed — no rand dependency on the serve crate.
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let fraction = (z >> 11) as f64 / (1u64 << 53) as f64;
        ceiling.mul_f64(fraction)
    }
}

/// Runs `attempt` under `policy`, sleeping a jittered backoff and
/// retrying while it returns [`ServeError::Overloaded`] and the retry
/// budget lasts. Any other outcome (success, other errors, budget
/// exhausted) is returned as-is.
pub fn retry_overloaded<A>(
    policy: RetryPolicy,
    mut attempt: impl FnMut() -> Result<A, ServeError>,
) -> Result<A, ServeError> {
    let mut tries = 0;
    loop {
        match attempt() {
            Err(e) if e.is_overloaded() && tries < policy.max_retries => {
                std::thread::sleep(policy.backoff(tries));
                tries += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn shed_rejects_past_the_limit_and_frees_on_drop() {
        let gate = AdmissionGate::new(AdmissionConfig::shed(2), MetricsSink::disabled());
        let a = gate.admit(TraceId::NONE).expect("first");
        let _b = gate.admit(TraceId::NONE).expect("second");
        let err = gate.admit(TraceId::NONE).expect_err("third is shed");
        assert_eq!(err, ServeError::Overloaded { pending: 2, limit: 2 });
        drop(a);
        gate.admit(TraceId::NONE).expect("slot freed by drop");
    }

    #[test]
    fn block_timeout_rejects_after_waiting() {
        let gate = AdmissionGate::new(
            AdmissionConfig::block(1, Some(Duration::from_millis(5))),
            MetricsSink::recording(),
        );
        let _held = gate.admit(TraceId::NONE).expect("first");
        let started = Instant::now();
        let err = gate.admit(TraceId::NONE).expect_err("times out");
        assert!(err.is_overloaded());
        assert!(started.elapsed() >= Duration::from_millis(5));
        // The wait landed in the AdmissionWait histogram.
        let snap = gate.sink.snapshot().expect("recording");
        assert!(snap.stage(StageId::AdmissionWait).count >= 1);
    }

    #[test]
    fn block_wakes_when_a_permit_frees() {
        let gate = AdmissionGate::new(AdmissionConfig::block(1, None), MetricsSink::disabled());
        let held = gate.admit(TraceId::NONE).expect("first");
        let gate2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            gate2.admit(TraceId::NONE).expect("eventually admitted")
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        let _permit = waiter.join().expect("no panic");
    }

    #[test]
    fn semaphore_gate_admits_waiters_in_fifo_order() {
        let gate = AdmissionGate::new(AdmissionConfig::semaphore(1), MetricsSink::disabled());
        let held = gate.admit(TraceId::NONE).expect("first");
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for i in 0..4usize {
            let gate2 = Arc::clone(&gate);
            let order = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let permit = gate2.admit(TraceId::NONE).expect("admitted");
                // The single permit serialises these pushes in
                // admission order.
                order.lock().unwrap().push(i);
                drop(permit);
            }));
            // Wait until this waiter has taken its FIFO ticket before
            // spawning the next, so arrival order is the spawn order
            // (`held` took ticket 0).
            while gate.state.lock().unwrap().next_ticket != (i + 2) as u64 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for w in waiters {
            w.join().expect("no panic");
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3], "FIFO admission");
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_capped_jitter() {
        let policy = RetryPolicy::default();
        for attempt in 0..8 {
            let d = policy.backoff(attempt);
            assert_eq!(d, policy.backoff(attempt), "deterministic per attempt");
            let ceiling = policy
                .base_delay
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(policy.max_delay);
            assert!(d <= ceiling, "jitter stays under the exponential ceiling");
        }
        // Different seeds decorrelate.
        let other = RetryPolicy {
            jitter_seed: 7,
            ..policy
        };
        assert!((0..8).any(|a| policy.backoff(a) != other.backoff(a)));
    }

    #[test]
    fn retry_overloaded_retries_within_budget_only() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
            ..RetryPolicy::default()
        };
        let calls = AtomicUsize::new(0);
        let overloaded = || ServeError::Overloaded { pending: 1, limit: 1 };
        // Succeeds on the third attempt.
        let out = retry_overloaded(policy, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(overloaded())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        // Budget exhausted: 1 + max_retries attempts, then the error.
        calls.store(0, Ordering::SeqCst);
        let out: Result<u32, _> = retry_overloaded(policy, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(overloaded())
        });
        assert!(out.expect_err("budget spent").is_overloaded());
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        // Non-overload errors are not retried.
        calls.store(0, Ordering::SeqCst);
        let out: Result<u32, _> =
            retry_overloaded(policy, || {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(ServeError::Other("backend".into()))
            });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
