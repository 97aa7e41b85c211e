//! [`ShardRouter`]: a scatter-gather front door over per-shard serving
//! runtimes.
//!
//! The router owns one [`ServeRuntime`] per shard — each with its own
//! work-stealing pool and `Arc`-valued LRU answer cache — and implements
//! [`BatchAnswer`] itself:
//!
//! * a **single-binding** request routes to exactly one shard (a hash of
//!   its routing value) and is served by that shard's runtime, hitting
//!   that shard's cache and in-flight dedup;
//! * a **multi-binding** request is split into per-shard sub-requests,
//!   *scattered* as concurrent submissions across the shard runtimes, and
//!   the per-shard answers are *gathered* and unioned, visiting shards in
//!   sub-request (first-appearance) order. Only the answer's *set
//!   contents* are guaranteed — relations are sets, and the union's
//!   internal tuple order depends on per-shard result sizes;
//! * a **batch** (`answer_batch`, one call per probe job of a front
//!   runtime) scatters every request's legs before it gathers any, so the
//!   shards probe the whole batch concurrently and each shard caches every
//!   leg under its own key.
//!
//! Because the router is itself a `BatchAnswer`, the whole generic serving
//! surface — a top-level [`ServeRuntime`] with its own global cache,
//! `serve_batch`, `submit`/`Ticket`, the benches and examples — works over
//! shards unchanged.

use std::sync::Arc;
use std::time::Instant;

use cqap_common::Result;
use cqap_obs::{trace, MetricsSink, StageId, TraceId, TraceStage};
use cqap_panda::CqapIndex;
use cqap_query::AccessRequest;
use cqap_relation::Relation;
use cqap_serve::{
    default_threads, AdmissionConfig, BatchAnswer, ServeConfig, ServeRuntime, ServeStats, Ticket,
};

use crate::index::ShardedIndex;
use crate::partition::ShardSpec;

/// Configuration of the per-shard runtimes behind a [`ShardRouter`].
#[derive(Clone, Copy, Debug)]
pub struct ShardRouterConfig {
    /// Worker threads in each shard's pool. Zero means "auto": spread the
    /// machine's available parallelism evenly across shards (at least one
    /// thread each).
    pub threads_per_shard: usize,
    /// Capacity of each shard's LRU answer cache, in entries.
    pub cache_capacity: usize,
    /// Per-shard admission control, applied verbatim to every shard
    /// runtime (each shard gets its own gate of `max_pending` slots —
    /// the router-wide bound is `shards × max_pending`). `None` (the
    /// default) serves unbounded, as before.
    pub admission: Option<AdmissionConfig>,
    /// Per-shard degrade watermark (see `ServeConfig::degrade_watermark`);
    /// `None` disables degrade mode.
    pub degrade_watermark: Option<usize>,
}

impl Default for ShardRouterConfig {
    fn default() -> Self {
        ShardRouterConfig {
            threads_per_shard: 0,
            cache_capacity: 1_024,
            admission: None,
            degrade_watermark: None,
        }
    }
}

/// One scattered sub-request: the shard runtime's ticket for its answer.
type Leg = Ticket<Arc<Relation>>;

/// A scatter-gather router serving a [`ShardedIndex`] through one
/// [`ServeRuntime`] per shard.
pub struct ShardRouter {
    spec: ShardSpec,
    runtimes: Vec<ServeRuntime<CqapIndex>>,
    sink: MetricsSink,
}

impl ShardRouter {
    /// Routes over `index` with the default per-shard configuration.
    pub fn new(index: ShardedIndex) -> Self {
        ShardRouter::with_config(index, ShardRouterConfig::default())
    }

    /// Routes over `index`, with `config` applied to every shard runtime.
    pub fn with_config(index: ShardedIndex, config: ShardRouterConfig) -> Self {
        ShardRouter::with_metrics(index, config, MetricsSink::disabled())
    }

    /// Routes over `index`, recording into `sink`: every shard runtime
    /// shares the sink (their stage timings and pool gauges aggregate
    /// into one recorder), the router counts requests per shard for the
    /// load-balance skew view, and multi-shard gathers record the
    /// answer-union stage.
    pub fn with_metrics(index: ShardedIndex, config: ShardRouterConfig, sink: MetricsSink) -> Self {
        let spec = *index.spec();
        let threads = if config.threads_per_shard == 0 {
            (default_threads() / spec.shards().max(1)).max(1)
        } else {
            config.threads_per_shard
        };
        let runtimes = index
            .shards()
            .iter()
            .enumerate()
            .map(|(shard, index)| {
                // Each shard runtime records through a shard-labelled
                // clone of the shared sink, so a drained trace shows
                // which shard served each scatter-gather leg.
                ServeRuntime::with_metrics(
                    Arc::clone(index),
                    ServeConfig {
                        threads,
                        cache_capacity: config.cache_capacity,
                        admission: config.admission,
                        degrade_watermark: config.degrade_watermark,
                    },
                    sink.with_shard_label(shard as u16),
                )
            })
            .collect();
        ShardRouter {
            spec,
            runtimes,
            sink,
        }
    }

    /// The metrics sink this router (and every shard runtime) records
    /// into; disabled unless built with
    /// [`with_metrics`](Self::with_metrics).
    pub fn metrics(&self) -> &MetricsSink {
        &self.sink
    }

    /// The partition contract the router routes by.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.runtimes.len()
    }

    /// The per-shard runtimes, in shard order (for direct shard probing
    /// and per-shard cache warm-up).
    pub fn runtimes(&self) -> &[ServeRuntime<CqapIndex>] {
        &self.runtimes
    }

    /// Per-shard serving counters, in shard order — the load-balance view
    /// (hash skew shows up as uneven `served` counts here).
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.runtimes.iter().map(ServeRuntime::stats).collect()
    }

    /// Fleet-wide counters: the field-wise sum of every shard's stats.
    pub fn stats(&self) -> ServeStats {
        self.shard_stats()
            .into_iter()
            .fold(ServeStats::default(), ServeStats::merge)
    }

    /// Splits `request` per shard and submits every leg to its shard
    /// runtime under the caller's trace, without waiting on any.
    fn scatter(&self, request: &AccessRequest, parent: TraceId) -> Result<Vec<Leg>> {
        let legs = self.spec.split_request(request)?;
        Ok(legs
            .into_iter()
            .map(|(shard, sub)| {
                self.sink.shard_served(shard);
                self.runtimes[shard].submit_traced(sub, parent)
            })
            .collect())
    }

    /// Waits on one request's legs and unions their answers in leg
    /// (first-appearance) order. A single leg — every single-binding
    /// request — hands the shard cache's own `Arc` through, with no union
    /// and no copy.
    fn gather(&self, mut legs: Vec<Leg>, parent: TraceId) -> Result<Arc<Relation>> {
        if legs.len() == 1 {
            return legs.pop().expect("one leg").wait();
        }
        let mut answer: Option<Relation> = None;
        let mut union_ns = 0u64;
        for leg in legs {
            let part = leg.wait()?;
            // Only the union work is the gather stage; waiting on the
            // shard probes is their own backend-probe time.
            let timer = self.sink.start();
            let union_started = parent.is_sampled().then(Instant::now);
            answer = Some(match answer {
                None => part.as_ref().clone(),
                Some(acc) => acc.union(part.as_ref())?,
            });
            union_ns += timer.elapsed_ns().unwrap_or(0);
            if let Some(started) = union_started {
                self.sink
                    .trace_span(parent, TraceStage::AnswerUnion, started, Instant::now(), 0);
            }
        }
        self.sink.observe_ns(StageId::AnswerUnion, union_ns);
        Ok(Arc::new(answer.expect("split_request is never empty")))
    }
}

impl BatchAnswer for ShardRouter {
    type Request = AccessRequest;
    /// `Arc` so the single-shard fast path hands the shard cache's answer
    /// through without a deep `Relation` clone.
    type Answer = Arc<Relation>;

    /// Scatter-gather one request across the shard runtimes.
    ///
    /// Runs under the caller's [`trace::current`] id (set by the serving
    /// worker that invoked this probe), so every scatter-gather leg
    /// submitted to a shard runtime shares the parent request's trace.
    fn answer_one(&self, request: &Self::Request) -> Result<Self::Answer> {
        let parent = trace::current();
        self.gather(self.scatter(request, parent)?, parent)
    }

    /// Scatters every request's legs before gathering any answer, so the
    /// shards probe the whole batch concurrently and each shard runtime
    /// caches every leg under its own key. A request that fails to split
    /// or whose leg fails fails only its own position.
    fn answer_batch(&self, requests: &[Self::Request]) -> Vec<Result<Self::Answer>> {
        let parent = trace::current();
        let scattered: Vec<_> = requests
            .iter()
            .map(|request| self.scatter(request, parent))
            .collect();
        scattered
            .into_iter()
            .map(|legs| self.gather(legs?, parent))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardTier;
    use cqap_common::Tuple;
    use cqap_decomp::families as pf;
    use cqap_query::workload::{graph_pair_requests, zipf_multi_requests, Graph};

    fn router_fixture(k: usize) -> (ShardRouter, CqapIndex, cqap_query::Cqap, Graph) {
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(45, 200, 4, 28, 37);
        let db = g.as_path_database(3);
        let reference = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, k).unwrap();
        (ShardRouter::new(sharded), reference, cqap, g)
    }

    #[test]
    fn router_matches_unsharded_reference() {
        let (router, reference, cqap, g) = router_fixture(3);
        // The same deployment with shard 1 spilled to disk: a router
        // serves any tier split.
        let (_, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let sharded = ShardedIndex::build(&cqap, reference.database(), &pmtds, 3).unwrap();
        let placement = [ShardTier::Hot, ShardTier::Cold, ShardTier::Hot];
        let dir = cqap_store::scratch_dir("router-cold");
        let cold = ShardRouter::new(ShardedIndex::from_sharded(sharded, &placement, &dir).unwrap());
        for router in [&router, &cold] {
            // Single-binding requests (the fast path)...
            for (u, v) in graph_pair_requests(&g, 30, 43) {
                let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
                assert_eq!(
                    *router.answer_one(&request).unwrap(),
                    reference.answer(&request).unwrap()
                );
            }
            // ...and multi-binding scatter-gather requests.
            for tuples in zipf_multi_requests(&g, 15, 5, 1.0, 47) {
                let tuples: Vec<Tuple> =
                    tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
                let request = AccessRequest::new(cqap.access(), tuples).unwrap();
                assert_eq!(
                    *router.answer_one(&request).unwrap(),
                    reference.answer(&request).unwrap()
                );
            }
        }
        drop(cold);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn router_inside_a_serve_runtime_serves_batches_over_shards() {
        let (router, reference, cqap, g) = router_fixture(4);
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 80, 53)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        // The whole existing serving surface over shards, unchanged: a
        // top-level runtime whose "index" is the router.
        let runtime = ServeRuntime::with_config(
            Arc::new(router),
            ServeConfig {
                threads: 4,
                cache_capacity: 64,
                ..ServeConfig::default()
            },
        );
        let answers = runtime.serve_batch(&requests).unwrap();
        assert_eq!(answers.len(), requests.len());
        for (request, answer) in requests.iter().zip(&answers) {
            // Top-level answers are Arc<Arc<Relation>>: the front cache's
            // Arc around the router's shared answer.
            assert_eq!(***answer, reference.answer(request).unwrap());
        }
        // Requests flowed through to the shard runtimes.
        let shard_stats = runtime.index().shard_stats();
        assert_eq!(shard_stats.len(), 4);
        let fleet = runtime.index().stats();
        assert!(fleet.served > 0);
        assert_eq!(
            fleet.served,
            shard_stats.iter().map(|s| s.served).sum::<u64>()
        );
    }

    /// A routed batch is answered member by member: every request's legs
    /// are scattered under one `answer_batch` call and each shard runtime
    /// caches every leg under its own key, so a repeat of the batch is
    /// served from the shard LRUs alone.
    #[test]
    fn a_routed_batch_caches_every_leg_in_its_shard() {
        use cqap_yannakakis::naive_answer;
        use std::collections::HashSet;

        let (router, reference, cqap, g) = router_fixture(2);
        let singles = graph_pair_requests(&g, 24, 61)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap());
        let multis = zipf_multi_requests(&g, 10, 4, 1.0, 67).into_iter().map(|tuples| {
            let tuples = tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
            AccessRequest::new(cqap.access(), tuples).unwrap()
        });
        // Keep requests whose legs no earlier request has, so every leg
        // is submitted once per pass.
        let mut legs = HashSet::new();
        let mut requests = Vec::new();
        for request in singles.chain(multis) {
            let parts = router.spec().split_request(&request).unwrap();
            if parts.iter().all(|part| !legs.contains(part)) {
                legs.extend(parts);
                requests.push(request);
            }
        }
        assert!(requests.iter().any(|r| r.len() > 1), "the batch mixes in multi-binding requests");
        // No front cache: the repeat reaches the router again.
        let runtime = ServeRuntime::with_config(
            Arc::new(router),
            ServeConfig {
                threads: 2,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        for pass in 0..2 {
            let answers = runtime.serve_batch(&requests).unwrap();
            for (request, answer) in requests.iter().zip(&answers) {
                let expected =
                    naive_answer(reference.cqap(), reference.database(), request).unwrap();
                assert_eq!(***answer, expected, "pass {pass}");
            }
        }
        let fleet = runtime.index().stats();
        assert_eq!(fleet.cache_misses, legs.len() as u64, "the first pass probed each leg");
        assert_eq!(fleet.cache_hits, legs.len() as u64, "the repeat hit each leg's shard LRU");
    }

    #[test]
    fn single_binding_requests_touch_exactly_one_shard() {
        let (router, _, cqap, _) = router_fixture(3);
        let request = AccessRequest::single(cqap.access(), &[1, 2]).unwrap();
        let owner = router.spec().shard_of_binding(&Tuple::pair(1, 2));
        router.answer_one(&request).unwrap();
        for (shard, stats) in router.shard_stats().into_iter().enumerate() {
            let expected = if shard == owner { 1 } else { 0 };
            assert_eq!(stats.served, expected, "shard {shard}");
        }
    }

    #[test]
    fn metrics_sink_aggregates_across_shards() {
        use cqap_obs::{GaugeId, MetricsSink};

        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(45, 200, 4, 28, 37);
        let db = g.as_path_database(3);
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 3).unwrap();
        let sink = MetricsSink::recording();
        let router =
            ShardRouter::with_metrics(sharded, ShardRouterConfig::default(), sink.clone());

        // Single-binding requests exercise the per-shard counters; a
        // multi-binding request exercises the answer-union stage.
        for (u, v) in graph_pair_requests(&g, 20, 43) {
            let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
            router.answer_one(&request).unwrap();
        }
        let tuples: Vec<Tuple> = zipf_multi_requests(&g, 1, 6, 1.0, 47)
            .pop()
            .unwrap()
            .into_iter()
            .map(|(u, v)| Tuple::pair(u, v))
            .collect();
        let multi = AccessRequest::new(cqap.access(), tuples).unwrap();
        router.answer_one(&multi).unwrap();

        drop(router); // join shard pools so all worker laps have landed
        let snap = sink.snapshot().unwrap();
        // Every shard runtime records into the one shared recorder.
        assert!(snap.stage(StageId::BackendProbe).count > 0);
        assert!(snap.stage(StageId::QueueWait).count > 0);
        assert_eq!(snap.stage(StageId::AnswerUnion).count, 1);
        let per_shard: u64 = snap.shard_served.iter().sum();
        assert!(snap.shard_served.len() <= 3);
        assert!(per_shard >= 21, "routed requests counted per shard");
        assert!(snap.shard_balance_skew().expect("shards served") >= 1.0);
        assert_eq!(snap.gauge(GaugeId::QueueDepth), 0);
    }

    #[test]
    fn shard_caches_absorb_repeats() {
        let (router, _, cqap, g) = router_fixture(2);
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 20, 59)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        for request in &requests {
            router.answer_one(request).unwrap();
        }
        // Second pass: every request hits some shard's LRU (or joins an
        // identical probe).
        for request in &requests {
            router.answer_one(request).unwrap();
        }
        let fleet = router.stats();
        assert_eq!(fleet.served, 2 * requests.len() as u64);
        assert!(
            fleet.cache_hits + fleet.inflight_hits >= requests.len() as u64,
            "warm pass should avoid index probes: {fleet:?}"
        );
    }
}
