//! Admission control: the bounded front door of the serving runtime.
//!
//! An unbounded runtime accepts every submission, so an open-loop
//! overload (arrivals faster than service) grows the pool queue — and
//! every request's queue wait — without limit. An `AdmissionGate` caps
//! how many probe jobs may be admitted at once and **sheds** the excess:
//! a job that finds the gate full resolves every caller it would have
//! answered with a typed [`ServeError::Overloaded`] at once. Admitted
//! requests keep a bounded queue wait, and no submitter ever blocks.
//!
//! The runtime charges the gate once per probe job (a submit's lone
//! probe, or one worker's share of a batch's fresh probes) on its one
//! dispatch path, so every
//! entry point — and everything layered on top (`ShardRouter`, tiered
//! backends) — inherits the bound. Cache hits and joins of a probe
//! already in flight take no slot. The gate is one atomic counter:
//! admission is a compare-and-swap below the limit, and the RAII
//! `AdmissionPermit` gives its slot back once the worker has published
//! the job's answers, before it sends them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cqap_obs::{GaugeId, MetricsSink};

/// Typed serving errors, re-exported from the workspace error type so
/// callers can match `ServeError::Overloaded` / `ServeError::DeadlineExpired`.
pub use cqap_common::CqapError as ServeError;

/// Bounded-admission configuration for a serving runtime: the gate sheds
/// every probe job past `max_pending`.
///
/// `Copy`, like the rest of `ServeConfig`: sinks and other handles
/// enter the runtime separately, never through configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum probe jobs holding an admission permit at once (clamped
    /// to at least 1).
    pub max_pending: usize,
}

impl AdmissionConfig {
    /// Shed (immediately reject) everything past `max_pending`.
    pub fn shed(max_pending: usize) -> Self {
        AdmissionConfig { max_pending }
    }
}

/// The runtime's admission gate: a shed-only counting semaphore. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    limit: usize,
    admitted: AtomicUsize,
    sink: MetricsSink,
}

impl AdmissionGate {
    pub(crate) fn new(config: AdmissionConfig, sink: MetricsSink) -> Arc<Self> {
        Arc::new(AdmissionGate {
            limit: config.max_pending.max(1),
            admitted: AtomicUsize::new(0),
            sink,
        })
    }

    /// Takes a permit for one probe job, or refuses with
    /// [`ServeError::Overloaded`] while `limit` permits are held. Never
    /// waits; the caller counts the shed.
    pub(crate) fn admit(self: &Arc<Self>) -> Result<AdmissionPermit, ServeError> {
        self.admitted
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                (held < self.limit).then_some(held + 1)
            })
            .map_err(|pending| ServeError::Overloaded {
                pending,
                limit: self.limit,
            })?;
        self.sink.gauge_add(GaugeId::AdmittedPending, 1);
        Ok(AdmissionPermit {
            gate: Arc::clone(self),
        })
    }
}

/// An RAII admission permit: one admitted probe job's slot at the gate,
/// released on drop.
///
/// The runtime moves the permit into the worker serving the job, which
/// drops it before resolving any ticket — and the pool drops it during
/// the unwind if the job panics, so a slot is never leaked.
#[derive(Debug)]
pub(crate) struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let held = self.gate.admitted.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(held > 0, "permit released twice");
        self.gate.sink.gauge_add(GaugeId::AdmittedPending, -1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_rejects_past_the_limit_and_frees_on_drop() {
        let gate = AdmissionGate::new(AdmissionConfig::shed(2), MetricsSink::disabled());
        let a = gate.admit().expect("first");
        let _b = gate.admit().expect("second");
        let err = gate.admit().expect_err("third is shed");
        assert_eq!(err, ServeError::Overloaded { pending: 2, limit: 2 });
        drop(a);
        gate.admit().expect("slot freed by drop");
    }
}
