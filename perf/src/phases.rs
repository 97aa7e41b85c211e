//! Closed-loop phases shared by the workloads, and the readers that turn a
//! metrics-sink export into per-layer metrics. Every call into the serving
//! stack goes through its public, durable surface (see README, "API
//! surface").

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqap_suite::common::{Val, VarSet};
use cqap_suite::query::AccessRequest;
use cqap_suite::serve::{BatchAnswer, ServeRuntime, Ticket};
use cqap_suite::store::TieredSpace;

use crate::data::{request, Stream};
use crate::metrics::Report;
use crate::prom;
use crate::spans::Spans;
use crate::stats::{calm, upper_quartile, Dist};
use crate::Ctx;

/// Outstanding requests of the closed-loop capacity phase.
pub const WINDOW: usize = 64;

/// Requests per `serve_batch` of the coalesced capacity phase.
pub const BATCH: usize = 64;

/// One traced request in this many gets its own span.
const SPAN_EVERY: usize = 256;

/// Keeps the vCPUs the measured threads are not using from halting, for as
/// long as it lives.
///
/// In a phase with one operation outstanding the generator and the worker
/// strictly alternate, so a vCPU goes idle at every hand-off, and on this
/// sandbox an idle vCPU halts into the hypervisor: waking it costs 3 µs
/// when the host is quiet and 40 µs when it is not — the median
/// `submit→wait` of identical code reads 7 µs or 80 µs by the hour. One
/// spinning thread per spare vCPU keeps the alternating pair on a vCPU that
/// never halts, so the phase times the program's hand-off and not the
/// host's. Phases that keep every vCPU busy by themselves (a window of
/// outstanding requests, the open-loop generator) do not use it.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spare = std::thread::available_parallelism().map_or(1, usize::from) - 1;
        let spinners = (0..spare)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; nothing to report from a failed join.
            let _ = spinner.join();
        }
    }
}

/// What a closed-loop phase did.
#[derive(Default)]
pub struct Closed {
    /// Per-operation wall times, µs (requests in a latency phase, batches
    /// in a batch phase; empty for the window phase).
    pub op_us: Vec<f64>,
    pub completed: usize,
    pub errors: usize,
    pub elapsed_s: f64,
}

impl Closed {
    pub fn per_second(&self) -> f64 {
        self.completed as f64 / self.elapsed_s
    }
}

/// Slices a closed-loop phase is cut into, interleaved with the slices of
/// the workload's other phase so that both see the whole run.
pub const SLICES: usize = 10;

/// Slices per phase in the (shorter) phases of a traced run.
pub const TRACED_SLICES: usize = 4;

/// The slices of one phase, summed up with the calm estimators.
#[derive(Default)]
pub struct Sliced(pub Vec<Closed>);

impl Sliced {
    pub fn completed(&self) -> usize {
        self.0.iter().map(|s| s.completed).sum()
    }

    pub fn errors(&self) -> usize {
        self.0.iter().map(|s| s.errors).sum()
    }

    /// Completions per second: the third quartile over the slices.
    pub fn per_second(&self) -> f64 {
        upper_quartile(&self.0.iter().map(Closed::per_second).collect::<Vec<_>>())
    }

    /// Calm median / p99 of the per-operation times.
    pub fn op_dist(&self) -> Dist {
        calm(self.0.iter().map(|s| s.op_us.as_slice()))
    }
}

/// One outstanding request at a time: `submit().wait()` per request, each
/// timed from submit to answer. Runs under [`KeepAwake`].
pub fn latency_phase<I>(
    rt: &ServeRuntime<I>,
    stream: &mut Stream,
    dur: Duration,
    spans: &mut Spans,
) -> Closed
where
    I: BatchAnswer<Request = AccessRequest> + 'static,
{
    let mut out = Closed::default();
    if dur.is_zero() {
        return out;
    }
    let _awake = KeepAwake::start();
    let start = Instant::now();
    loop {
        let request = stream.next_request();
        let sent = Instant::now();
        let answer = rt.submit(request).wait();
        let done = Instant::now();
        out.op_us.push((done - sent).as_nanos() as f64 / 1e3);
        out.completed += 1;
        if black_box(answer).is_err() {
            out.errors += 1;
        }
        if out.completed % SPAN_EVERY == 0 {
            let req = Some(out.completed as u64);
            spans.record("serve.submit_wait", "serve", sent, done, None, req);
        }
        if done - start >= dur {
            out.elapsed_s = (done - start).as_secs_f64();
            return out;
        }
    }
}

/// One generator keeping [`WINDOW`] individual `submit`s outstanding (no
/// coalescing): completions per second.
pub fn window_phase<I>(rt: &ServeRuntime<I>, stream: &mut Stream, dur: Duration) -> Closed
where
    I: BatchAnswer<Request = AccessRequest> + 'static,
{
    let mut out = Closed::default();
    let mut outstanding = VecDeque::with_capacity(WINDOW);
    let start = Instant::now();
    let finish = |out: &mut Closed, ticket: Ticket<Arc<I::Answer>>| {
        out.completed += 1;
        if black_box(ticket.wait()).is_err() {
            out.errors += 1;
        }
    };
    while start.elapsed() < dur {
        if outstanding.len() == WINDOW {
            finish(&mut out, outstanding.pop_front().expect("window is full"));
        }
        outstanding.push_back(rt.submit(stream.next_request()));
    }
    for ticket in outstanding {
        finish(&mut out, ticket);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Closed loop of `serve_batch` over [`BATCH`]-request batches — the
/// coalesced bulk-probe path. The generator waits for each batch, so this
/// too alternates and runs under [`KeepAwake`].
pub fn batch_phase<I>(
    rt: &ServeRuntime<I>,
    stream: &mut Stream,
    dur: Duration,
    spans: &mut Spans,
) -> Closed
where
    I: BatchAnswer<Request = AccessRequest> + 'static,
{
    let mut out = Closed::default();
    let _awake = KeepAwake::start();
    let start = Instant::now();
    while start.elapsed() < dur {
        let batch: Vec<AccessRequest> = (0..BATCH).map(|_| stream.next_request()).collect();
        let sent = Instant::now();
        let answers = rt.serve_batch(&batch);
        let done = Instant::now();
        out.op_us.push((done - sent).as_nanos() as f64 / 1e3);
        out.completed += BATCH;
        if black_box(answers).is_err() {
            out.errors += BATCH;
        }
        if out.op_us.len() % 16 == 0 {
            spans.record("serve.serve_batch", "serve", sent, done, None, None);
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// How the *cap* phase of a closed-loop workload submits.
#[derive(Clone, Copy)]
pub enum Cap {
    /// [`window_phase`]: individual tickets, 64 outstanding.
    Window,
    /// [`batch_phase`]: `serve_batch` over 64-request batches.
    Batches,
}

/// A closed-loop workload's two phases in `slices` interleaved slices, so
/// that both see the whole run: *lat* (one outstanding request) for
/// `lat_share` of the run's seconds in total, *cap* for `cap_share`.
pub fn interleaved<I>(
    ctx: &mut Ctx,
    rt: &ServeRuntime<I>,
    stream: &mut Stream,
    cap: Cap,
    slices: usize,
    (lat_share, cap_share): (f64, f64),
) -> (Sliced, Sliced)
where
    I: BatchAnswer<Request = AccessRequest> + 'static,
{
    let (mut lat, mut caps) = (Sliced::default(), Sliced::default());
    let lat_each = ctx.part(lat_share / slices as f64);
    let cap_each = ctx.part(cap_share / slices as f64);
    for _ in 0..slices {
        lat.0
            .push(latency_phase(rt, stream, lat_each, &mut ctx.spans));
        caps.0.push(match cap {
            Cap::Window => window_phase(rt, stream, cap_each),
            Cap::Batches => batch_phase(rt, stream, cap_each, &mut ctx.spans),
        });
    }
    (lat, caps)
}

/// One closed-loop pass over `keys` with [`WINDOW`] requests outstanding:
/// warms scratch arenas, lazily built state and whatever cache the
/// deployment has. Returns the number of failed requests.
pub fn warm_up<I>(rt: &ServeRuntime<I>, access: VarSet, keys: &[(Val, Val)]) -> usize
where
    I: BatchAnswer<Request = AccessRequest> + 'static,
{
    let mut outstanding = VecDeque::with_capacity(WINDOW);
    let mut errors = 0;
    for &key in keys {
        if outstanding.len() == WINDOW {
            let ticket: Ticket<_> = outstanding.pop_front().expect("window is full");
            errors += usize::from(ticket.wait().is_err());
        }
        outstanding.push_back(rt.submit(request(access, key)));
    }
    errors
        + outstanding
            .into_iter()
            .map(|ticket| usize::from(ticket.wait().is_err()))
            .sum::<usize>()
}

/// `(stored values, bytes)` of a tiered index: the bytes are the cold
/// tier's on disk plus 8 per value resident in memory (hot S-views and
/// cold fences).
pub fn tiered_footprint(space: &TieredSpace) -> (usize, usize) {
    let resident = (space.hot_values + space.cold_resident_values) * size_of::<Val>();
    (
        space.total_values(),
        space.cold_disk_bytes as usize + resident,
    )
}

/// Times `op` repeatedly for `dur`; per-call wall times in ns.
pub fn time_calls(dur: Duration, mut op: impl FnMut(usize)) -> Vec<f64> {
    let mut ns = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let t = Instant::now();
        op(i);
        let e = Instant::now();
        ns.push((e - t).as_nanos() as f64);
        i += 1;
        if e - start >= dur {
            return ns;
        }
    }
}

/// Serve-layer stage metrics, read from a sink export by exported name.
pub fn serve_sink_metrics(report: &mut Report, text: &str, requests: usize) {
    let us = |stage, q| prom::stage_quantile_ns(text, stage, q).map(|ns| ns / 1e3);
    let n = |stage| prom::stage_count(text, stage).unwrap_or(0.0) as usize;
    report.set_opt(
        "serve.queue_wait_us_p50",
        us("queue_wait", "0.5"),
        n("queue_wait"),
    );
    report.set_opt(
        "serve.queue_wait_us_p99",
        us("queue_wait", "0.99"),
        n("queue_wait"),
    );
    report.set_opt(
        "serve.backend_probe_us_p50",
        us("backend_probe", "0.5"),
        n("backend_probe"),
    );
    report.set_opt(
        "serve.ticket_delivery_us_p50",
        us("ticket_delivery", "0.5"),
        n("ticket_delivery"),
    );
    report.set_opt(
        "serve.cache_lookup_ns_p50",
        prom::stage_quantile_ns(text, "cache_lookup", "0.5"),
        n("cache_lookup"),
    );
    report.set_opt(
        "serve.admission_wait_ns_p50",
        prom::stage_quantile_ns(text, "admission_wait", "0.5"),
        n("admission_wait"),
    );
    report.set_opt(
        "serve.pool_parks_per_req",
        prom::lookup(text, "cqap_pool_parks_total").map(|c| c / requests.max(1) as f64),
        requests,
    );
}

/// Cold-tier read counters per request, read from a sink export by name.
pub fn store_sink_metrics(report: &mut Report, text: &str, requests: usize) {
    let per_req = |name| prom::lookup(text, name).map(|c| c / requests.max(1) as f64);
    report.set_opt(
        "store.segment_reads_per_req",
        per_req("cqap_store_segment_reads_total"),
        requests,
    );
    report.set_opt(
        "store.bytes_read_per_req",
        per_req("cqap_store_segment_bytes_read_total"),
        requests,
    );
    report.set_opt(
        "store.bytes_decoded_per_req",
        per_req("cqap_store_segment_bytes_decoded_total"),
        requests,
    );
}

/// `(untraced − traced) / untraced`, in percent.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (untraced - traced) / untraced * 100.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_awake_spins_on_every_spare_vcpu_and_stops_when_dropped() {
        let awake = KeepAwake::start();
        assert_eq!(
            awake.spinners.len(),
            std::thread::available_parallelism().map_or(1, usize::from) - 1
        );
        drop(awake); // joins: would hang if a spinner ignored the flag
    }

    #[test]
    fn overhead_is_a_share_of_the_untraced_rate() {
        assert_eq!(overhead_pct(200.0, 150.0), 25.0);
        assert_eq!(overhead_pct(0.0, 150.0), 0.0);
    }
}
