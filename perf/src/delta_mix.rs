//! `delta_mix`: g20k, the full PMTD set, a 2-shard `TieredShardedIndex`
//! placed `[Hot, Cold]`, behind a 1-thread `ServeRuntime` with a 4096-entry
//! cache. Rounds of reads — 64 single `submit().wait()` requests, then one
//! `serve_batch` of 512, zipf keys — followed by one `DeltaBatch` through
//! `ServeRuntime::apply_delta`.
//!
//! Writes beside reads over the same layers: delta plans, support counts
//! and plan recompiles, the LSM overlay and its compaction, delta routing,
//! cache invalidation. About two thirds of the wall time is apply. A probe
//! speed-up bought with heavier indexes or a different compaction trigger
//! shows here as a loss.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqap_suite::common::{CqapError, Val};
use cqap_suite::delta::{net_effect, ApplyDelta, DeltaBatch};
use cqap_suite::obs::MetricsSink;
use cqap_suite::query::workload::{graph_pair_requests, zipf_pair_requests};
use cqap_suite::query::AccessRequest;
use cqap_suite::serve::{ServeConfig, ServeRuntime};
use cqap_suite::shard::{ShardSpec, ShardedIndex};
use cqap_suite::store::{ShardTier, StoredIndex, TieredShardedIndex};

use crate::data::{request, sub_seed, Dataset, DeltaGen, Oracle, Stream, G20K, ORACLE_SAMPLES};
use crate::metrics::Report;
use crate::phases::{
    overhead_pct, serve_sink_metrics, store_sink_metrics, tiered_footprint, KeepAwake,
};
use crate::prom;
use crate::stats::{calm, equal_slices, upper_quartile, Dist};
use crate::{Ctx, Outcome, Res, SetupTimes};

/// Single reads per round, each timed on its own.
const SINGLES: usize = 64;
/// Reads per round in the `serve_batch`.
const BATCH: usize = 512;
/// Per relation and round: this many uniform inserts and as many deletes
/// of live edges. The issue's 8 + 8 is scaled to 128 + 128: the apply cost
/// is nearly flat in the batch size (≈ 45 ms at 1 + 1, ≈ 90 ms here), and
/// the larger batch takes the cold tier through a compaction every five
/// or six rounds, so a 15-second run sees many cycles and the 5-second
/// traced phase at least five.
const PER_RELATION: usize = 128;
const SKEW: f64 = 1.05;
const READ_POOL: usize = 64 * (SINGLES + BATCH);
const WARMUP_BATCHES: usize = 4;
/// Answers compared with the oracle after the last delta.
const ORACLE_AFTER: usize = 50;
/// How long a refused `apply_delta` is retried.
const BUSY_RETRY: Duration = Duration::from_secs(1);
const SHARDS: usize = 2;
const PLACEMENT: [ShardTier; SHARDS] = [ShardTier::Hot, ShardTier::Cold];

pub const SERVE: ServeConfig = ServeConfig {
    threads: 1,
    cache_capacity: 4_096,
    admission: None,
    degrade_watermark: None,
};

struct Deployment {
    data: Dataset,
    reads: Vec<(Val, Val)>,
    checks: Vec<(Val, Val)>,
    spec: ShardSpec,
    rt: ServeRuntime<TieredShardedIndex>,
    /// Stored values and bytes (disk + resident) as built. Taken at set-up
    /// because the run is timed, not counted: the state after the last
    /// delta depends on how many rounds fitted. The harness also keeps no
    /// handle on the served index — one would make `apply_delta` refuse.
    space_values: usize,
    index_bytes: usize,
    times: SetupTimes,
}

fn setup(ctx: &mut Ctx, sink: &MetricsSink) -> Res<Deployment> {
    let seed = ctx.seed;
    let mut times = SetupTimes::default();
    let (generated, gen_s) = ctx.spans.time("query.generate", "query", || {
        let data = Dataset::generate(G20K)?;
        let reads = zipf_pair_requests(&data.graph, READ_POOL, SKEW, sub_seed(seed, 0x401));
        let checks = graph_pair_requests(
            &data.graph,
            ORACLE_SAMPLES + ORACLE_AFTER,
            sub_seed(seed, 0x402),
        );
        Res::Ok((data, reads, checks))
    });
    let (data, reads, checks) = generated?;
    times.gen_s = gen_s;
    let (sharded, build_s) = ctx.spans.time("shard.build", "shard", || {
        ShardedIndex::build(&data.cqap, &data.db, &data.pmtds, SHARDS)
    });
    times.shard_build_s = build_s;
    let sharded = sharded?;
    let spec = *sharded.spec();
    let dir = ctx.fresh_dir("tiered");
    let (tiered, spill_s) = ctx.spans.time("store.spill", "store", || {
        TieredShardedIndex::from_sharded(sharded, &PLACEMENT, &dir)
    });
    times.spill_s = spill_s;
    let mut tiered = tiered?;
    tiered.set_metrics_sink(sink.clone())?;
    let (space_values, index_bytes) = tiered_footprint(&tiered.space_used());
    let rt = ServeRuntime::with_metrics(Arc::new(tiered), SERVE, sink.clone());
    let access = data.access();
    let (warmed, warm_s) = ctx.spans.time("serve.warmup", "serve", || {
        reads[..WARMUP_BATCHES * BATCH]
            .chunks(BATCH)
            .try_for_each(|chunk| {
                let batch: Vec<AccessRequest> =
                    chunk.iter().map(|&key| request(access, key)).collect();
                rt.serve_batch(&batch).map(drop)
            })
    });
    times.warmup_s = warm_s;
    warmed?;
    Ok(Deployment {
        data,
        reads,
        checks,
        spec,
        rt,
        space_values,
        index_bytes,
        times,
    })
}

fn oracle_mismatches(oracle: &Oracle, dep: &Deployment, keys: &[(Val, Val)]) -> usize {
    oracle.mismatches(keys, |req| {
        dep.rt.submit(req.clone()).wait().ok().map(|a| (*a).clone())
    })
}

/// The refusal `apply_delta` gives while a worker still holds the index
/// `Arc` of the probe it just finished.
fn is_busy(e: &CqapError) -> bool {
    matches!(e, CqapError::Other(msg) if msg.contains("is shared"))
}

/// What the read/write rounds measured.
#[derive(Default)]
struct Rounds {
    single_us: Vec<f64>,
    batch_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    applied: Vec<DeltaBatch>,
    busy_retries: usize,
    read_errors: usize,
    /// Per round: seconds spent inside the program (reads + apply; the
    /// harness's own bookkeeping between calls is left out).
    busy_s: Vec<f64>,
}

impl Rounds {
    fn reads(&self) -> usize {
        self.single_us.len() + self.batch_ms.len() * BATCH
    }

    /// Reads per second of the time spent in reads **and** applies: the
    /// third quartile over chunks of [`CHUNK_ROUNDS`] rounds.
    fn reads_per_second(&self) -> f64 {
        let rates: Vec<f64> = self
            .busy_s
            .chunks_exact(CHUNK_ROUNDS)
            .map(|chunk| (CHUNK_ROUNDS * (SINGLES + BATCH)) as f64 / chunk.iter().sum::<f64>())
            .collect();
        if rates.is_empty() {
            self.reads() as f64 / self.busy_s.iter().sum::<f64>()
        } else {
            upper_quartile(&rates)
        }
    }

    /// Calm median / p99 of the single reads.
    fn single_dist(&self) -> Dist {
        calm(equal_slices(&self.single_us, LATENCY_SLICES))
    }

    fn delta_tuples(&self) -> usize {
        self.applied.iter().map(DeltaBatch::num_tuples).sum()
    }
}

fn run_rounds(
    ctx: &mut Ctx,
    dep: &mut Deployment,
    deltas: &mut DeltaGen,
    dur: Duration,
) -> Res<Rounds> {
    let mut out = Rounds::default();
    let access = dep.data.access();
    let mut stream = Stream::new(access, &dep.reads);
    // Reads and applies alternate with the worker throughout.
    let _awake = KeepAwake::start();
    let start = Instant::now();
    while start.elapsed() < dur {
        let round_started = Instant::now();
        for _ in 0..SINGLES {
            let req = stream.next_request();
            let sent = Instant::now();
            let answer = dep.rt.submit(req).wait();
            out.single_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
            out.read_errors += usize::from(black_box(answer).is_err());
        }
        let batch: Vec<AccessRequest> = (0..BATCH).map(|_| stream.next_request()).collect();
        let sent = Instant::now();
        let answers = dep.rt.serve_batch(&batch);
        let read_done = Instant::now();
        out.batch_ms.push((read_done - sent).as_secs_f64() * 1e3);
        if black_box(answers).is_err() {
            out.read_errors += BATCH;
        }
        ctx.spans
            .record("serve.reads", "serve", round_started, read_done, None, None);

        let delta = deltas.next_batch(PER_RELATION);
        // Time the successful call only: a refusal because a worker has not
        // yet dropped its handle on the index is retried, counted, and kept
        // out of the apply latency.
        let first_try = Instant::now();
        let applied = loop {
            let tried = Instant::now();
            match dep.rt.apply_delta(&delta) {
                Ok(_) => break (tried, Instant::now()),
                Err(e) if is_busy(&e) && first_try.elapsed() < BUSY_RETRY => {
                    out.busy_retries += 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(e.into()),
            }
        };
        out.apply_ms
            .push((applied.1 - applied.0).as_secs_f64() * 1e3);
        out.busy_s.push(
            (read_done - round_started).as_secs_f64() + (applied.1 - applied.0).as_secs_f64(),
        );
        ctx.spans.record(
            "serve.apply_delta",
            "serve",
            applied.0,
            applied.1,
            None,
            None,
        );
        out.applied.push(delta);
    }
    Ok(out)
}

pub fn run(ctx: &mut Ctx) -> Res<Outcome> {
    if ctx.traced {
        return run_traced(ctx);
    }
    let sink = MetricsSink::disabled();
    let (mut dep, setup_s) = crate::repeat_setup(ctx, |ctx| setup(ctx, &sink))?;
    let mut oracle = Oracle::new(&dep.data);
    let mut mismatches = oracle_mismatches(&oracle, &dep, &dep.checks[..ORACLE_SAMPLES]);
    let mut deltas = DeltaGen::new(&dep.data.graph, sub_seed(ctx.seed, 0x403));
    let rounds = run_rounds(ctx, &mut dep, &mut deltas, ctx.part(1.0))?;
    oracle.absorb(&rounds.applied)?;
    mismatches += oracle_mismatches(&oracle, &dep, &dep.checks[ORACLE_SAMPLES..]);
    let singles = rounds.single_dist();

    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUP_REPEATS);
    report.set("throughput_rps", rounds.reads_per_second(), rounds.reads());
    report.set("latency_p50_us", singles.p50, singles.n);
    report.set("space_values", dep.space_values as f64, 1);
    report.set("index_bytes", dep.index_bytes as f64, 1);
    Ok(Outcome {
        report,
        attempted: dep.checks.len() + rounds.reads() + rounds.applied.len(),
        failed: mismatches + rounds.read_errors,
    })
}

fn run_traced(ctx: &mut Ctx) -> Res<Outcome> {
    let mut report = Report::default();
    let delta_seed = sub_seed(ctx.seed, 0x403);

    let mut plain = setup(ctx, &MetricsSink::disabled())?;
    let mut deltas = DeltaGen::new(&plain.data.graph, delta_seed);
    let reference = run_rounds(ctx, &mut plain, &mut deltas, ctx.part(0.15))?;
    drop(plain);

    let sink = MetricsSink::recording();
    let mut dep = setup(ctx, &sink)?;
    dep.times.report(&mut report);
    let mut oracle = Oracle::new(&dep.data);
    let mut mismatches = oracle_mismatches(&oracle, &dep, &dep.checks[..ORACLE_SAMPLES]);
    let before = sink.snapshot().ok_or("recording sink has no snapshot")?;
    let mut deltas = DeltaGen::new(&dep.data.graph, delta_seed);
    let rounds = run_rounds(ctx, &mut dep, &mut deltas, ctx.part(0.35))?;
    let text = sink
        .snapshot()
        .ok_or("recording sink has no snapshot")?
        .delta(&before)
        .to_prometheus();
    oracle.absorb(&rounds.applied)?;
    mismatches += oracle_mismatches(&oracle, &dep, &dep.checks[ORACLE_SAMPLES..]);

    let batches = rounds.applied.len();
    serve_sink_metrics(&mut report, &text, rounds.reads());
    store_sink_metrics(&mut report, &text, rounds.reads());
    report.set(
        "obs.overhead_pct",
        overhead_pct(reference.reads_per_second(), rounds.reads_per_second()),
        1,
    );
    let singles = rounds.single_dist();
    report.set("serve.latency_p99_us", singles.p99, singles.n);
    let applies = Dist::of(rounds.apply_ms.clone());
    report.set("delta.apply_ms_p50", applies.p50, applies.n);
    report.set(
        "delta.tuples_per_s",
        rounds.delta_tuples() as f64 / (rounds.apply_ms.iter().sum::<f64>() / 1e3),
        applies.n,
    );
    let read_batches = Dist::of(rounds.batch_ms.clone());
    report.set("serve.read_batch_ms_p50", read_batches.p50, read_batches.n);
    report.set("serve.read_batch_ms_p99", read_batches.p99, read_batches.n);
    report.set(
        "serve.apply_busy_retries",
        rounds.busy_retries as f64,
        batches,
    );
    let per_batch = |name| prom::lookup(&text, name).map(|c| c / batches.max(1) as f64);
    report.set_opt(
        "panda.recompiles_per_batch",
        per_batch("cqap_delta_plan_recompiles_total"),
        batches,
    );
    report.set_opt(
        "delta.net_tuples_per_batch",
        per_batch("cqap_delta_net_inserts_total")
            .zip(per_batch("cqap_delta_net_deletes_total"))
            .map(|(i, d)| i + d),
        batches,
    );
    let compactions = prom::lookup(&text, "cqap_store_compactions_total");
    report.set_opt("store.compactions", compactions, batches);
    report.set_opt(
        "store.compact_ms_p50",
        prom::stage_quantile_ns(&text, "compaction", "0.5").map(|ns| ns / 1e6),
        compactions.unwrap_or(0.0) as usize,
    );
    if let (Some(pending), Some(reads)) = (
        prom::lookup(&text, "cqap_store_overlay_pending_probes_total"),
        prom::lookup(&text, "cqap_store_segment_reads_total"),
    ) {
        report.set(
            "store.overlay_pending_probe_share",
            (pending / reads.max(1.0)).min(1.0),
            reads as usize,
        );
    }
    let stats = dep.rt.stats();
    report.set(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / stats.served.max(1) as f64,
        stats.served as usize,
    );
    report.set(
        "serve.coalesced_share",
        stats.coalesced as f64 / stats.served.max(1) as f64,
        stats.served as usize,
    );
    delta_layers(ctx, &mut report, &dep)?;

    Ok(Outcome {
        report,
        attempted: dep.checks.len()
            + rounds.reads()
            + rounds.applied.len()
            + reference.reads()
            + reference.applied.len(),
        failed: mismatches + rounds.read_errors + reference.read_errors,
    })
}

/// Rounds per throughput chunk: long enough to hold a compaction cycle,
/// short enough that a run has a dozen of them for the calm estimate.
const CHUNK_ROUNDS: usize = 8;
/// Equal-count slices the single-read latencies are cut into.
const LATENCY_SLICES: usize = 8;

/// Rounds of the direct per-layer delta probes.
const LAYER_ROUNDS: usize = 16;

/// delta / shard / panda / store: one delta stream applied directly —
/// `net_effect` on the harness's database, `partition_delta`, then each
/// part to a hot shard (`CqapIndex`) and a cold one (`StoredIndex`) built
/// like the deployment's.
fn delta_layers(ctx: &mut Ctx, report: &mut Report, dep: &Deployment) -> Res<()> {
    let data = &dep.data;
    let shards = {
        let sharded = ShardedIndex::build(&data.cqap, &data.db, &data.pmtds, SHARDS)?;
        sharded.shards().to_vec()
    };
    let [hot, cold]: [_; SHARDS] = shards.try_into().map_err(|_| "expected two shards")?;
    let mut stored = StoredIndex::spill(&cold, ctx.fresh_dir("layer-cold"))?;
    drop(cold);
    let mut hot = Arc::try_unwrap(hot).map_err(|_| "hot shard is shared")?;

    let mut db = data.db.clone();
    let mut deltas = DeltaGen::new(&data.graph, sub_seed(ctx.seed, 0x404));
    let (mut net_us, mut part_us, mut hot_ms, mut cold_ms) = (vec![], vec![], vec![], vec![]);
    for _ in 0..LAYER_ROUNDS {
        let batch = deltas.next_batch(PER_RELATION);
        let (net, s) = ctx
            .spans
            .time("delta.net_effect", "delta", || net_effect(&db, &batch));
        black_box(net?);
        net_us.push(s * 1e6);
        let (parts, s) = ctx.spans.time("shard.partition_delta", "shard", || {
            dep.spec.partition_delta(&batch, &db)
        });
        part_us.push(s * 1e6);
        let parts = parts?;
        let (applied, s) = ctx
            .spans
            .time("panda.apply_delta", "panda", || hot.apply_delta(&parts[0]));
        applied?;
        hot_ms.push(s * 1e3);
        let (applied, s) = ctx.spans.time("store.apply_delta", "store", || {
            stored.apply_delta(&parts[1])
        });
        applied?;
        cold_ms.push(s * 1e3);
        db.apply_delta(&batch)?;
    }
    let dist = |v| Dist::of(v);
    report.set("delta.net_effect_us_p50", dist(net_us).p50, LAYER_ROUNDS);
    report.set(
        "shard.partition_delta_us_p50",
        dist(part_us).p50,
        LAYER_ROUNDS,
    );
    report.set("panda.delta_apply_ms_p50", dist(hot_ms).p50, LAYER_ROUNDS);
    report.set("store.delta_apply_ms_p50", dist(cold_ms).p50, LAYER_ROUNDS);
    // A fixed number of rounds, so these repeat exactly for a seed.
    report.set("store.disk_bytes", stored.disk_bytes() as f64, 1);
    report.set(
        "store.bytes_per_value",
        stored.disk_bytes() as f64 / stored.space_used().max(1) as f64,
        1,
    );
    Ok(())
}
