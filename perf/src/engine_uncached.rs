//! `engine_uncached`: g20k, all three Figure-1 PMTDs, one `CqapIndex`
//! behind a 1-thread `ServeRuntime` with the answer cache off.
//!
//! T-view joins, S-view probes and the per-PMTD union do most of the work;
//! the store does none and the cache does none. This is where a kernel,
//! plan or scratch optimisation must show, and where a serve-only change
//! must show nothing on `throughput_rps`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cqap_suite::common::{hash_fold_column, Val};
use cqap_suite::obs::MetricsSink;
use cqap_suite::panda::CqapIndex;
use cqap_suite::query::workload::graph_pair_requests;
use cqap_suite::serve::{BatchAnswer, ServeConfig, ServeRuntime};
use cqap_suite::yannakakis::{ColumnRun, SViewProbe};

use crate::data::{request, sub_seed, Dataset, Oracle, Stream, G20K, ORACLE_SAMPLES};
use crate::metrics::Report;
use crate::phases::{
    interleaved, overhead_pct, serve_sink_metrics, store_sink_metrics, time_calls, warm_up, Cap,
    SLICES, TRACED_SLICES,
};
use crate::stats::Dist;
use crate::{Ctx, Outcome, Res, SetupTimes};

/// Distinct request keys cycled through (key space 9 M; there is no cache).
const POOL: usize = 200_000;
const WARMUP: usize = 2_000;
/// Requests behind the exact `panda.answer_tuples_per_req` count.
const COUNTED: usize = 20_000;

pub const SERVE: ServeConfig = ServeConfig {
    threads: 1,
    cache_capacity: 0,
    admission: None,
    degrade_watermark: None,
};

struct Deployment {
    data: Dataset,
    pairs: Vec<(Val, Val)>,
    index: Arc<CqapIndex>,
    rt: ServeRuntime<CqapIndex>,
    times: SetupTimes,
}

fn setup(ctx: &mut Ctx, sink: &MetricsSink) -> Res<Deployment> {
    let seed = ctx.seed;
    let mut times = SetupTimes::default();
    let (generated, gen_s) = ctx.spans.time("query.generate", "query", || {
        let data = Dataset::generate(G20K)?;
        let pairs = graph_pair_requests(&data.graph, POOL, sub_seed(seed, 0x101));
        Res::Ok((data, pairs))
    });
    let (data, pairs) = generated?;
    times.gen_s = gen_s;
    let (index, build_s) = ctx.spans.time("panda.build", "panda", || {
        CqapIndex::build(&data.cqap, &data.db, &data.pmtds)
    });
    times.panda_build_s = build_s;
    let index = Arc::new(index?);
    let rt = ServeRuntime::with_metrics(Arc::clone(&index), SERVE, sink.clone());
    let (errors, warm_s) = ctx.spans.time("serve.warmup", "serve", || {
        warm_up(&rt, data.access(), &pairs[POOL - WARMUP..])
    });
    times.warmup_s = warm_s;
    if errors > 0 {
        return Err(format!("{errors} warm-up requests failed").into());
    }
    Ok(Deployment {
        data,
        pairs,
        index,
        rt,
        times,
    })
}

fn oracle_mismatches(dep: &Deployment) -> usize {
    Oracle::new(&dep.data).mismatches(&dep.pairs[..ORACLE_SAMPLES], |req| {
        dep.rt.submit(req.clone()).wait().ok().map(|a| (*a).clone())
    })
}

pub fn run(ctx: &mut Ctx) -> Res<Outcome> {
    if ctx.traced {
        return run_traced(ctx);
    }
    let sink = MetricsSink::disabled();
    let (dep, setup_s) = crate::repeat_setup(ctx, |ctx| setup(ctx, &sink))?;
    let mismatches = oracle_mismatches(&dep);
    let mut stream = Stream::new(dep.data.access(), &dep.pairs);
    let (lat, cap) = interleaved(ctx, &dep.rt, &mut stream, Cap::Window, SLICES, (0.5, 0.5));
    let dist = lat.op_dist();

    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUP_REPEATS);
    report.set("throughput_rps", cap.per_second(), cap.completed());
    report.set("latency_p50_us", dist.p50, dist.n);
    report.set("space_values", dep.index.space_used() as f64, 1);
    report.set(
        "index_bytes",
        (dep.index.space_used() * size_of::<Val>()) as f64,
        1,
    );
    Ok(Outcome {
        report,
        attempted: ORACLE_SAMPLES + lat.completed() + cap.completed(),
        failed: mismatches + lat.errors() + cap.errors(),
    })
}

fn run_traced(ctx: &mut Ctx) -> Res<Outcome> {
    let mut report = Report::default();

    // Untraced reference for the tracing tax.
    let plain = setup(ctx, &MetricsSink::disabled())?;
    let mut stream = Stream::new(plain.data.access(), &plain.pairs);
    let (_, reference) = interleaved(
        ctx,
        &plain.rt,
        &mut stream,
        Cap::Window,
        TRACED_SLICES,
        (0.0, 0.1),
    );
    drop(plain);

    let sink = MetricsSink::recording();
    let dep = setup(ctx, &sink)?;
    dep.times.report(&mut report);
    let mismatches = oracle_mismatches(&dep);
    let before = sink.snapshot().ok_or("recording sink has no snapshot")?;
    let mut stream = Stream::new(dep.data.access(), &dep.pairs);
    let (lat, cap) = interleaved(
        ctx,
        &dep.rt,
        &mut stream,
        Cap::Window,
        TRACED_SLICES,
        (0.2, 0.1),
    );
    let after = sink.snapshot().ok_or("recording sink has no snapshot")?;
    let text = after.delta(&before).to_prometheus();
    let served = lat.completed() + cap.completed();
    serve_sink_metrics(&mut report, &text, served);
    store_sink_metrics(&mut report, &text, served);
    report.set(
        "obs.overhead_pct",
        overhead_pct(reference.per_second(), cap.per_second()),
        1,
    );
    let stats = dep.rt.stats();
    report.set(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / stats.served.max(1) as f64,
        stats.served as usize,
    );

    // panda: direct `CqapIndex::answer` over the same stream.
    let access = dep.data.access();
    let mut tuples = 0usize;
    let answer_ns = {
        let started = Instant::now();
        let ns = time_calls(ctx.part(0.15), |i| {
            let answer = dep.index.answer(&request(access, dep.pairs[i % POOL]));
            if i < COUNTED {
                tuples += answer.as_ref().map_or(0, |a| a.len());
            }
            black_box(answer).ok();
        });
        ctx.spans.record(
            "panda.answer_loop",
            "panda",
            started,
            Instant::now(),
            None,
            None,
        );
        ns
    };
    if answer_ns.len() < COUNTED {
        for &pair in &dep.pairs[answer_ns.len()..COUNTED] {
            tuples += dep.index.answer(&request(access, pair))?.len();
        }
    }
    let direct = Dist::of_ns_in_us(&answer_ns);
    report.set("panda.answer_us_p50", direct.p50, direct.n);
    report.set("panda.answer_us_p99", direct.p99, direct.n);
    // The answer time is heavy-tailed (p50 ≪ mean), so it is the mean times
    // `throughput_rps` that gives the engine's share of a worker-second.
    report.set(
        "panda.answer_us_mean",
        answer_ns.iter().sum::<f64>() / 1e3 / answer_ns.len() as f64,
        answer_ns.len(),
    );
    report.set(
        "panda.answer_tuples_per_req",
        tuples as f64 / COUNTED as f64,
        COUNTED,
    );

    // serve: what the runtime adds over the engine call it wraps.
    let one_ns = time_calls(ctx.part(0.05), |i| {
        black_box(dep.index.answer_one(&request(access, dep.pairs[i % POOL]))).ok();
    });
    let one = Dist::of_ns_in_us(&one_ns);
    let served_dist = lat.op_dist();
    report.set(
        "serve.self_us_p50",
        served_dist.p50 - one.p50,
        served_dist.n,
    );
    report.set("serve.latency_p99_us", served_dist.p99, served_dist.n);

    // The Figure-1 space/time points: one single-PMTD index per plan.
    const PLAN_ANSWER: [&str; 3] = [
        "panda.plan_answer_us_p50.p0",
        "panda.plan_answer_us_p50.p1",
        "panda.plan_answer_us_p50.p2",
    ];
    const PLAN_SPACE: [&str; 3] = [
        "panda.plan_space_values.p0",
        "panda.plan_space_values.p1",
        "panda.plan_space_values.p2",
    ];
    for (p, pmtd) in dep.data.pmtds.iter().enumerate().take(3) {
        let single = CqapIndex::build(&dep.data.cqap, &dep.data.db, std::slice::from_ref(pmtd))?;
        let ns = time_calls(ctx.part(0.04), |i| {
            black_box(single.answer(&request(access, dep.pairs[i % POOL]))).ok();
        });
        let dist = Dist::of_ns_in_us(&ns);
        report.set(PLAN_ANSWER[p], dist.p50, dist.n);
        report.set(PLAN_SPACE[p], single.space_used() as f64, 1);
        if p == 2 {
            probe_in_memory(ctx, &mut report, &single, &dep);
        }
    }

    // common: the column-at-a-time key hashing kernel.
    let col: Vec<u64> = (0..4_096u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let mut hashes = vec![0u64; col.len()];
    let fold_ns = time_calls(ctx.part(0.03), |_| {
        hash_fold_column(black_box(&mut hashes), black_box(&col));
    });
    let fold = Dist::of(fold_ns);
    report.set(
        "common.hash_fold_mvals_s",
        col.len() as f64 / fold.p50 * 1e3,
        fold.n,
    );

    Ok(Outcome {
        report,
        attempted: ORACLE_SAMPLES + served + reference.completed(),
        failed: mismatches + lat.errors() + cap.errors() + reference.errors(),
    })
}

/// yannakakis: `probe_columns` on the in-memory S14 view (the single S-view
/// of the third PMTD), keyed by the request binding.
fn probe_in_memory(ctx: &Ctx, report: &mut Report, s14: &CqapIndex, dep: &Deployment) {
    let Some((_, views)) = s14.plans().next() else {
        return;
    };
    let Some((node, rel, _)) = views.materialized().next() else {
        return;
    };
    let width = rel.schema().arity();
    let access = dep.data.access();
    let keys: Vec<_> = dep.pairs[..4_096]
        .iter()
        .map(|&pair| request(access, pair).tuples()[0].clone())
        .collect();
    let mut run = ColumnRun::new();
    let ns = time_calls(ctx.part(0.04), |i| {
        run.reset(width);
        black_box(views.probe_columns(node, &keys[i % keys.len()], &mut run)).ok();
    });
    let dist = Dist::of(ns);
    report.set("yannakakis.probe_ns_p50", dist.p50, dist.n);
}
