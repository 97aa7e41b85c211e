//! `serve_hot_open`: g20k, the full PMTD set, a 2-shard `ShardedIndex`
//! behind a `ShardRouter` (1 thread and a 4096-entry LRU per shard), itself
//! served by a front `ServeRuntime` (1 thread, no cache, admission
//! `shed(256)`). **Open loop**: Poisson arrivals of zipf-skewed keys at
//! five fixed rates; latency counts from the due time against a 5 ms limit.
//!
//! Admission, queueing, two pool hand-offs, the router split, the LRU hit
//! and ticket delivery dominate; the engine runs on under a tenth of the
//! requests. It fits the cache — the counterpart of `cold_store` — and is
//! the only workload with a queue, so the only one where an admission,
//! queue or pool change can show.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use cqap_suite::common::{CqapError, Val};
use cqap_suite::obs::MetricsSink;
use cqap_suite::panda::CqapIndex;
use cqap_suite::query::workload::{graph_pair_requests, poisson_arrivals_ns, zipf_pair_requests};
use cqap_suite::serve::{AdmissionConfig, BatchAnswer, ServeConfig, ServeRuntime, Ticket};
use cqap_suite::shard::{ShardRouter, ShardRouterConfig, ShardSpec, ShardedIndex};

use crate::data::{request, scatter_keys, sub_seed, Dataset, Oracle, Stream, G20K, ORACLE_SAMPLES};
use crate::ladder::{max_rate_ok, Poll, Step, LIMIT_US};
use crate::metrics::Report;
use crate::phases::{
    overhead_pct, serve_sink_metrics, store_sink_metrics, time_calls, warm_up, window_phase,
};
use crate::prom;
use crate::stats::{calm, percentile, sorted, upper_quartile, Dist};
use crate::{Ctx, Outcome, Res, SetupTimes};

/// The ladder, requests per second: frozen after calibration on the
/// 2-vCPU reference box, where this deployment keeps up with an open-loop
/// stream until a knee at ≈ 200 k/s. r1..r4 are 0.2, 0.4, 0.6 and 0.8 of
/// the knee; r5 is 1.2× — overload. (The issue asked for 2×; see README,
/// "Scale", for why one generator thread on two cores cannot offer that.)
pub const RATES: [f64; 5] = [40_000.0, 80_000.0, 120_000.0, 160_000.0, 240_000.0];
/// Index of the reference step, where the latency metrics are read.
pub const REFERENCE: usize = 1;
/// Index of the highest step below the knee, where goodput is read: past
/// the knee the generator itself falls behind on this box, and goodput
/// measures that instead of the system.
pub const HIGHEST_BELOW_KNEE: usize = 3;
/// Times the ladder is climbed. Every rate is measured in this many slices
/// spread over the run, and summed up with the calm estimators.
pub const ROUNDS: usize = 5;

/// Zipf exponent of the key stream: with it the shard LRUs answer ≥ 0.9 of
/// the requests after the warm-up.
const SKEW: f64 = 1.8;
const WARMUP: usize = 20_000;
const SHARDS: usize = 2;
const DISTINCT: usize = 50_000;

/// Requests the front door admits before it sheds.
const MAX_PENDING: usize = 256;

fn front_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        cache_capacity: 0,
        admission: Some(AdmissionConfig::shed(MAX_PENDING)),
        degrade_watermark: None,
    }
}

pub const ROUTER: ShardRouterConfig = ShardRouterConfig {
    threads_per_shard: 1,
    cache_capacity: 4_096,
    admission: None,
    degrade_watermark: None,
};

/// One slice of one step: due times and keys.
type Slice = (Vec<u64>, Vec<(Val, Val)>);

struct Deployment {
    data: Dataset,
    /// Half-hit / half-miss keys for the oracle and the uncached probes.
    distinct: Vec<(Val, Val)>,
    /// Per round and step: due times and keys.
    rounds: Vec<Vec<Slice>>,
    warm: Vec<(Val, Val)>,
    spec: ShardSpec,
    shards: Vec<Arc<CqapIndex>>,
    router: Arc<ShardRouter>,
    front: ServeRuntime<ShardRouter>,
    space_values: usize,
    times: SetupTimes,
}

/// `slice_s` is the length of one slice of one step; every step gets
/// [`ROUNDS`] of them, spread over the run.
fn setup(
    ctx: &mut Ctx,
    front_sink: &MetricsSink,
    router_sink: &MetricsSink,
    slice_s: f64,
) -> Res<Deployment> {
    let seed = ctx.seed;
    let mut times = SetupTimes::default();
    let (generated, gen_s) = ctx.spans.time("query.generate", "query", || {
        let data = Dataset::generate(G20K)?;
        let distinct = graph_pair_requests(&data.graph, DISTINCT, sub_seed(seed, 0x301));
        let zipf = |n: usize, stream: u64| {
            let mut keys = zipf_pair_requests(&data.graph, n, SKEW, sub_seed(seed, stream));
            scatter_keys(&mut keys, data.graph.num_vertices);
            keys
        };
        let warm = zipf(WARMUP, 0x302);
        let rounds = (0..ROUNDS as u64)
            .map(|round| {
                RATES
                    .iter()
                    .enumerate()
                    .map(|(i, &rate)| {
                        let n = (rate * slice_s) as usize;
                        let stream = 0x400 + round * 0x10 + i as u64;
                        (
                            poisson_arrivals_ns(n, rate, sub_seed(seed, stream)),
                            zipf(n, 0x800 + stream),
                        )
                    })
                    .collect()
            })
            .collect();
        Res::Ok((data, distinct, warm, rounds))
    });
    let (data, distinct, warm, rounds) = generated?;
    times.gen_s = gen_s;
    let (sharded, build_s) = ctx.spans.time("shard.build", "shard", || {
        ShardedIndex::build(&data.cqap, &data.db, &data.pmtds, SHARDS)
    });
    times.shard_build_s = build_s;
    let sharded = sharded?;
    let spec = *sharded.spec();
    let shards = sharded.shards().to_vec();
    let space_values = shards.iter().map(|s| s.space_used()).sum();
    let router = Arc::new(ShardRouter::with_metrics(
        sharded,
        ROUTER,
        router_sink.clone(),
    ));
    let front = ServeRuntime::with_metrics(Arc::clone(&router), front_config(), front_sink.clone());
    let (warmed, warm_s) = ctx.spans.time("serve.warmup", "serve", || {
        warm_up(&front, data.access(), &warm)
    });
    times.warmup_s = warm_s;
    if warmed > 0 {
        return Err(format!("{warmed} warm-up requests failed").into());
    }
    Ok(Deployment {
        data,
        distinct,
        rounds,
        warm,
        spec,
        shards,
        router,
        front,
        space_values,
        times,
    })
}

fn poll<A>(ticket: &Ticket<A>) -> Poll {
    match ticket.try_wait() {
        None => Poll::Pending,
        Some(Ok(answer)) => {
            black_box(answer);
            Poll::Answered
        }
        Some(Err(e)) if refused(&e) => Poll::Refused,
        Some(Err(_)) => Poll::Failed,
    }
}

fn refused(e: &CqapError) -> bool {
    e.is_overloaded() || e.is_deadline_expired()
}

/// Climbs the ladder [`ROUNDS`] times; returns, per rate, that rate's
/// slices in the order they ran.
fn run_ladder(dep: &Deployment) -> Vec<Vec<Step>> {
    let access = dep.data.access();
    let mut by_rate: Vec<Vec<Step>> = RATES.iter().map(|_| Vec::new()).collect();
    for round in &dep.rounds {
        for (i, (arrivals, keys)) in round.iter().enumerate() {
            by_rate[i].push(Step::run(
                RATES[i],
                arrivals,
                |k| dep.front.submit(request(access, keys[k])),
                poll,
            ));
        }
    }
    by_rate
}

/// Calm median / p99 of a rate's due-time latencies over its slices.
fn calm_latency(slices: &[Step]) -> Dist {
    calm(slices.iter().map(|s| s.latencies_us.as_slice()))
}

fn oracle_mismatches(dep: &Deployment) -> usize {
    Oracle::new(&dep.data).mismatches(&dep.distinct[..ORACLE_SAMPLES], |req| {
        dep.front
            .submit(req.clone())
            .wait()
            .ok()
            .map(|a| (**a).clone())
    })
}

pub fn run(ctx: &mut Ctx) -> Res<Outcome> {
    if ctx.traced {
        return run_traced(ctx);
    }
    let sink = MetricsSink::disabled();
    let slice_s = ctx.seconds / (RATES.len() * ROUNDS) as f64;
    let (dep, setup_s) = crate::repeat_setup(ctx, |ctx| setup(ctx, &sink, &sink, slice_s))?;
    let mismatches = oracle_mismatches(&dep);
    let ladder = run_ladder(&dep);
    let reference = calm_latency(&ladder[REFERENCE]);
    let busiest = &ladder[HIGHEST_BELOW_KNEE];
    let goodput: Vec<f64> = busiest.iter().map(|s| s.goodput_rps(LIMIT_US)).collect();
    let steps: Vec<Step> = ladder.iter().map(|slices| Step::merged(slices)).collect();

    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUP_REPEATS);
    report.set(
        "throughput_rps",
        upper_quartile(&goodput),
        steps[HIGHEST_BELOW_KNEE].offered,
    );
    report.set("latency_p50_us", reference.p50, reference.n);
    report.set("space_values", dep.space_values as f64, 1);
    report.set(
        "index_bytes",
        (dep.space_values * size_of::<Val>()) as f64,
        1,
    );
    Ok(Outcome {
        report,
        attempted: ORACLE_SAMPLES + steps.iter().map(|s| s.offered).sum::<usize>(),
        // A refusal under admission control is a designed response, counted
        // in goodput and the shed shares; only errors fail.
        failed: mismatches + steps.iter().map(|s| s.failed).sum::<usize>(),
    })
}

const STEP_P50: [&str; 5] = [
    "serve.step_p50_us.r1",
    "serve.step_p50_us.r2",
    "serve.step_p50_us.r3",
    "serve.step_p50_us.r4",
    "serve.step_p50_us.r5",
];
const STEP_P99: [&str; 5] = [
    "serve.step_p99_us.r1",
    "serve.step_p99_us.r2",
    "serve.step_p99_us.r3",
    "serve.step_p99_us.r4",
    "serve.step_p99_us.r5",
];
const STEP_SHED: [&str; 5] = [
    "serve.step_shed_share.r1",
    "serve.step_shed_share.r2",
    "serve.step_shed_share.r3",
    "serve.step_shed_share.r4",
    "serve.step_shed_share.r5",
];

/// One span per slice of a step and, under it, one per sampled request, from its due
/// time to its answer.
fn record_spans(ctx: &mut Ctx, slices: &[Step]) {
    for step in slices {
        let Some(started) = step.started else {
            continue;
        };
        let at = |ns: u64| started + Duration::from_nanos(ns);
        let parent = ctx.spans.record(
            "serve.step",
            "serve",
            started,
            at((step.span_s * 1e9) as u64),
            None,
            None,
        );
        for (req, &(due, done)) in step.sampled.iter().enumerate() {
            ctx.spans.record(
                "serve.request",
                "serve",
                at(due),
                at(done),
                parent,
                Some(req as u64),
            );
        }
    }
}

fn run_traced(ctx: &mut Ctx) -> Res<Outcome> {
    let mut report = Report::default();
    let slice_s = ctx.seconds * 0.08 / ROUNDS as f64;

    // Closed-loop capacity with the sink off: the figure the ladder was
    // calibrated against, and the reference for the tracing tax.
    let off = MetricsSink::disabled();
    let plain = setup(ctx, &off, &off, slice_s)?;
    let mut stream = Stream::new(plain.data.access(), &plain.warm);
    let reference = window_phase(&plain.front, &mut stream, ctx.part(0.1));
    report.set(
        "serve.closed_loop_capacity_rps",
        reference.per_second(),
        reference.completed,
    );
    drop(plain);

    let (front_sink, router_sink) = (MetricsSink::recording(), MetricsSink::recording());
    let dep = setup(ctx, &front_sink, &router_sink, slice_s)?;
    dep.times.report(&mut report);
    let mismatches = oracle_mismatches(&dep);
    let mut stream = Stream::new(dep.data.access(), &dep.warm);
    let traced = window_phase(&dep.front, &mut stream, ctx.part(0.1));
    report.set(
        "obs.overhead_pct",
        overhead_pct(reference.per_second(), traced.per_second()),
        1,
    );

    let snapshot = |sink: &MetricsSink| sink.snapshot().ok_or("recording sink has no snapshot");
    let (front_before, router_before) = (snapshot(&front_sink)?, snapshot(&router_sink)?);
    let ladder = run_ladder(&dep);
    for slices in &ladder {
        record_spans(ctx, slices);
    }
    let steps: Vec<Step> = ladder.iter().map(|slices| Step::merged(slices)).collect();
    let front_text = snapshot(&front_sink)?.delta(&front_before).to_prometheus();
    let router_text = snapshot(&router_sink)?
        .delta(&router_before)
        .to_prometheus();
    let offered: usize = steps.iter().map(|s| s.offered).sum();
    serve_sink_metrics(&mut report, &front_text, offered);
    store_sink_metrics(&mut report, &router_text, offered);
    // Shard runtimes look a key up once per routed request and probe the
    // engine only on a miss.
    if let (Some(lookups), Some(probes)) = (
        prom::stage_count(&router_text, "cache_lookup"),
        prom::stage_count(&router_text, "backend_probe"),
    ) {
        report.set(
            "serve.cache_hit_ratio",
            1.0 - probes / lookups.max(1.0),
            lookups as usize,
        );
    }
    report.set_opt(
        "shard.balance_skew",
        prom::lookup(&router_text, "cqap_shard_balance_skew"),
        offered,
    );
    for (i, step) in steps.iter().enumerate() {
        let dist = calm_latency(&ladder[i]);
        report.set(STEP_P50[i], dist.p50, dist.n);
        report.set(STEP_P99[i], dist.p99, dist.n);
        report.set(STEP_SHED[i], step.refused_share(), step.offered);
    }
    report.set(
        "serve.max_rate_ok_rps",
        max_rate_ok(&steps, LIMIT_US),
        steps.len(),
    );
    let low = &steps[..=REFERENCE];
    report.set(
        "serve.failed_share_r1_r2",
        low.iter().map(|s| s.refused + s.failed).sum::<usize>() as f64
            / low.iter().map(|s| s.offered).sum::<usize>().max(1) as f64,
        low.iter().map(|s| s.offered).sum(),
    );
    let late = sorted(
        steps
            .iter()
            .flat_map(|s| s.late_us.iter().copied())
            .collect(),
    );
    report.set("gen.late_p99_us", percentile(&late, 0.99), late.len());
    report.set(
        "gen.poll_gap_p99_us",
        steps.iter().map(Step::poll_gap_p99_us).fold(0.0, f64::max),
        steps.len(),
    );

    // shard: the request split, and what the router adds over the shard's
    // own engine call (on keys no LRU holds).
    let access = dep.data.access();
    let uncached: Vec<_> = dep.distinct[ORACLE_SAMPLES..]
        .iter()
        .map(|&key| request(access, key))
        .collect();
    let split_ns = time_calls(ctx.part(0.03), |i| {
        black_box(dep.spec.split_request(&uncached[i % uncached.len()])).ok();
    });
    let split = Dist::of(split_ns);
    report.set("shard.split_ns_p50", split.p50, split.n);
    // Each key is used once per side so neither run meets a warm LRU.
    let half = uncached.len() / 2;
    let routed_ns = time_calls(ctx.part(0.05), |i| {
        black_box(dep.router.answer_one(&uncached[i % half])).ok();
    });
    let direct_ns = time_calls(ctx.part(0.05), |i| {
        let req = &uncached[half + i % half];
        if let Ok([(shard, sub)]) = dep.spec.split_request(req).as_deref() {
            black_box(dep.shards[*shard].answer(sub)).ok();
        }
    });
    let (routed, direct) = (Dist::of_ns_in_us(&routed_ns), Dist::of_ns_in_us(&direct_ns));
    report.set(
        "shard.self_us_p50",
        routed.p50 - direct.p50,
        routed.n.min(direct.n),
    );

    // serve: a request answered from a warm LRU, front door to ticket; and
    // what the front runtime adds over the router call it wraps.
    let hot = request(access, dep.warm[0]);
    let hit_ns = time_calls(ctx.part(0.03), |_| {
        black_box(dep.front.submit(hot.clone()).wait()).ok();
    });
    let hit = Dist::of_ns_in_us(&hit_ns);
    report.set("serve.roundtrip_us_p50", hit.p50, hit.n);
    let one_ns = time_calls(ctx.part(0.05), |i| {
        black_box(
            dep.router
                .answer_one(&request(access, dep.warm[i % WARMUP])),
        )
        .ok();
    });
    let one = Dist::of_ns_in_us(&one_ns);
    let at_reference = calm_latency(&ladder[REFERENCE]);
    report.set(
        "serve.self_us_p50",
        at_reference.p50 - one.p50,
        at_reference.n,
    );
    report.set("serve.latency_p99_us", at_reference.p99, at_reference.n);

    Ok(Outcome {
        report,
        attempted: ORACLE_SAMPLES + offered + reference.completed + traced.completed,
        failed: mismatches
            + steps.iter().map(|s| s.failed).sum::<usize>()
            + reference.errors
            + traced.errors,
    })
}
