//! `cold_store`: g28k, the S14-only PMTD (a pure S-view probe), a
//! `TieredShardedIndex` with both of its two shards **cold**, behind a
//! 1-thread `ServeRuntime` with a 256-entry cache (≪ the key space).
//!
//! Fence search, segment read and varint decode dominate; engine work is
//! one probe step. The capacity phase goes through `serve_batch` (the §6.4
//! coalesced bulk-probe path), so a gain for one submission style that
//! costs the other shows against `engine_uncached`. Reads are served from
//! the OS page cache: latencies are the sandbox's, not a device's.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cqap_suite::common::varint::decode_block;
use cqap_suite::common::Val;
use cqap_suite::obs::MetricsSink;
use cqap_suite::panda::CqapIndex;
use cqap_suite::query::workload::graph_pair_requests;
use cqap_suite::query::AccessRequest;
use cqap_suite::serve::{BatchAnswer, ServeConfig, ServeRuntime};
use cqap_suite::shard::{ShardSpec, ShardedIndex};
use cqap_suite::store::format::write_view;
use cqap_suite::store::{ShardTier, StoredIndex, StoredView, TieredShardedIndex};
use cqap_suite::yannakakis::ColumnRun;

use crate::data::{request, sub_seed, Dataset, Oracle, Stream, G28K, ORACLE_SAMPLES};
use crate::metrics::Report;
use crate::phases::{
    interleaved, overhead_pct, serve_sink_metrics, store_sink_metrics, tiered_footprint,
    time_calls, warm_up, Cap, SLICES, TRACED_SLICES,
};
use crate::stats::{median, Dist};
use crate::{Ctx, Outcome, Res, SetupTimes};

const POOL: usize = 200_000;
const WARMUP: usize = 2_000;
const SHARDS: usize = 2;

pub const SERVE: ServeConfig = ServeConfig {
    threads: 1,
    cache_capacity: 256,
    admission: None,
    degrade_watermark: None,
};

struct Deployment {
    data: Dataset,
    pairs: Vec<(Val, Val)>,
    index: Arc<TieredShardedIndex>,
    rt: ServeRuntime<TieredShardedIndex>,
    spec: ShardSpec,
    /// Shard 0 as built in memory, kept by the traced run only (the layer
    /// probes spill and read it on their own).
    shard0: Option<Arc<CqapIndex>>,
    times: SetupTimes,
}

fn setup(ctx: &mut Ctx, sink: &MetricsSink, keep_shard0: bool) -> Res<Deployment> {
    let seed = ctx.seed;
    let mut times = SetupTimes::default();
    let (generated, gen_s) = ctx.spans.time("query.generate", "query", || {
        let data = Dataset::generate(G28K)?;
        let pairs = graph_pair_requests(&data.graph, POOL, sub_seed(seed, 0x201));
        Res::Ok((data, pairs))
    });
    let (data, pairs) = generated?;
    times.gen_s = gen_s;
    let (sharded, build_s) = ctx.spans.time("shard.build", "shard", || {
        ShardedIndex::build(&data.cqap, &data.db, &data.pmtds[2..], SHARDS)
    });
    times.shard_build_s = build_s;
    let sharded = sharded?;
    let spec = *sharded.spec();
    let shard0 = keep_shard0.then(|| Arc::clone(&sharded.shards()[0]));
    let dir = ctx.fresh_dir("cold");
    let (tiered, spill_s) = ctx.spans.time("store.spill", "store", || {
        TieredShardedIndex::from_sharded(sharded, &[ShardTier::Cold; SHARDS], &dir)
    });
    times.spill_s = spill_s;
    let mut tiered = tiered?;
    tiered.set_metrics_sink(sink.clone())?;
    let index = Arc::new(tiered);
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
        spec,
        shard0,
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
    let (dep, setup_s) = crate::repeat_setup(ctx, |ctx| setup(ctx, &sink, false))?;
    let mismatches = oracle_mismatches(&dep);
    let mut stream = Stream::new(dep.data.access(), &dep.pairs);
    let (lat, cap) = interleaved(ctx, &dep.rt, &mut stream, Cap::Batches, SLICES, (0.5, 0.5));
    let dist = lat.op_dist();

    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUP_REPEATS);
    report.set("throughput_rps", cap.per_second(), cap.completed());
    report.set("latency_p50_us", dist.p50, dist.n);
    let (values, bytes) = tiered_footprint(&dep.index.space_used());
    report.set("space_values", values as f64, 1);
    report.set("index_bytes", bytes as f64, 1);
    Ok(Outcome {
        report,
        attempted: ORACLE_SAMPLES + lat.completed() + cap.completed(),
        failed: mismatches + lat.errors() + cap.errors(),
    })
}

fn run_traced(ctx: &mut Ctx) -> Res<Outcome> {
    let mut report = Report::default();

    let plain = setup(ctx, &MetricsSink::disabled(), false)?;
    let mut stream = Stream::new(plain.data.access(), &plain.pairs);
    let (_, reference) = interleaved(
        ctx,
        &plain.rt,
        &mut stream,
        Cap::Batches,
        TRACED_SLICES,
        (0.0, 0.1),
    );
    drop(plain);

    let sink = MetricsSink::recording();
    let dep = setup(ctx, &sink, true)?;
    dep.times.report(&mut report);
    let mismatches = oracle_mismatches(&dep);
    let before = sink.snapshot().ok_or("recording sink has no snapshot")?;
    let stats_before = dep.rt.stats();
    let mut stream = Stream::new(dep.data.access(), &dep.pairs);
    let (lat, cap) = interleaved(
        ctx,
        &dep.rt,
        &mut stream,
        Cap::Batches,
        TRACED_SLICES,
        (0.2, 0.1),
    );
    let text = sink
        .snapshot()
        .ok_or("recording sink has no snapshot")?
        .delta(&before)
        .to_prometheus();
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
        (stats.cache_hits - stats_before.cache_hits) as f64 / served as f64,
        served,
    );
    report.set(
        "serve.coalesced_share",
        (stats.coalesced - stats_before.coalesced) as f64 / cap.completed().max(1) as f64,
        cap.completed(),
    );
    let batches = cap.op_dist();
    report.set("serve.batch64_us_p50", batches.p50, batches.n);

    // serve: runtime cost over the index call it wraps, and a warm LRU hit.
    let access = dep.data.access();
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
    let hot = request(access, dep.pairs[0]);
    let hit_ns = time_calls(ctx.part(0.03), |_| {
        black_box(dep.rt.submit(hot.clone()).wait()).ok();
    });
    let hit = Dist::of_ns_in_us(&hit_ns);
    report.set("serve.roundtrip_us_p50", hit.p50, hit.n);

    let space_now = dep.index.space_used();
    report.set("store.disk_bytes", space_now.cold_disk_bytes as f64, 1);
    report.set(
        "store.bytes_per_value",
        space_now.cold_disk_bytes as f64 / space_now.cold_values.max(1) as f64,
        1,
    );

    if let Some(shard0) = &dep.shard0 {
        store_layers(ctx, &mut report, &dep, shard0)?;
    }

    // common: the block varint decoder on single-byte-heavy input, the
    // shape delta-encoded keys have.
    let values: Vec<u64> = (0..4_096u64)
        .map(|i| if i % 16 == 0 { 300 + i } else { i % 100 })
        .collect();
    let encoded = leb128(&values);
    let mut decoded = Vec::with_capacity(values.len());
    let decode_ns = time_calls(ctx.part(0.03), |_| {
        decoded.clear();
        black_box(decode_block(
            black_box(&encoded),
            values.len(),
            &mut decoded,
        ));
    });
    if decoded != values {
        return Err("varint block did not round-trip".into());
    }
    let decode = Dist::of(decode_ns);
    report.set(
        "common.varint_decode_mvals_s",
        values.len() as f64 / decode.p50 * 1e3,
        decode.n,
    );

    Ok(Outcome {
        report,
        attempted: ORACLE_SAMPLES + served + reference.completed(),
        failed: mismatches + lat.errors() + cap.errors() + reference.errors(),
    })
}

/// store: a `StoredIndex` and a single `StoredView` over shard 0, probed
/// directly with the requests that route to that shard.
fn store_layers(
    ctx: &mut Ctx,
    report: &mut Report,
    dep: &Deployment,
    shard0: &CqapIndex,
) -> Res<()> {
    let access = dep.data.access();
    let mine: Vec<AccessRequest> = dep
        .pairs
        .iter()
        .map(|&pair| request(access, pair))
        .filter(|req| matches!(dep.spec.split_request(req).as_deref(), Ok([(0, _)])))
        .take(50_000)
        .collect();
    if mine.is_empty() {
        return Err("no request routes to shard 0".into());
    }

    let stored = StoredIndex::spill(shard0, ctx.fresh_dir("stored"))?;
    let started = Instant::now();
    let answer_ns = time_calls(ctx.part(0.1), |i| {
        black_box(stored.answer(&mine[i % mine.len()])).ok();
    });
    ctx.spans.record(
        "store.answer_loop",
        "store",
        started,
        Instant::now(),
        None,
        None,
    );
    let answers = Dist::of_ns_in_us(&answer_ns);
    report.set("store.answer_us_p50", answers.p50, answers.n);
    report.set("store.answer_us_p99", answers.p99, answers.n);

    let Some((_, views)) = shard0.plans().next() else {
        return Ok(());
    };
    let Some((_, rel, link)) = views.materialized().next() else {
        return Ok(());
    };
    let dir = ctx.fresh_dir("view");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("s14.run");
    write_view(&path, rel, link)?;
    let mut opens = Vec::new();
    let mut view = None;
    for _ in 0..3 {
        let (opened, open_s) = ctx
            .spans
            .time("store.open", "store", || StoredView::open(&path));
        opens.push(open_s);
        view = Some(opened?);
    }
    let mut view = view.expect("opened three times");
    view.delete_on_drop();
    let open_s = median(&opens);
    report.set("store.open_ms", open_s * 1e3, opens.len());
    report.set(
        "store.decode_mb_s",
        (rel.stored_values() * size_of::<Val>()) as f64 / 1e6 / open_s,
        opens.len(),
    );
    let keys: Vec<_> = mine
        .iter()
        .take(8_192)
        .map(|req| req.tuples()[0].clone())
        .collect();
    let width = rel.schema().arity();
    let mut run = ColumnRun::new();
    let probe_ns = time_calls(ctx.part(0.1), |i| {
        run.reset(width);
        black_box(view.probe_columns(&keys[i % keys.len()], &mut run)).ok();
    });
    let probes = Dist::of(probe_ns);
    report.set("store.probe_ns_p50", probes.p50, probes.n);
    report.set("store.probe_ns_p99", probes.p99, probes.n);
    drop(view);
    let _ = std::fs::remove_dir(&dir);
    Ok(())
}

/// Plain LEB128, the encoding `decode_block` reads.
fn leb128(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &value in values {
        let mut v = value;
        while v >= 0x80 {
            out.push((v as u8) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out
}
