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
//! Every call opens one [`Span`](cqap_obs::Span) and submits its legs, as
//! plain [`ServeRuntime::submit`] calls, inside that span's
//! [`TraceScope`]. Called from a front worker's probe, the span joins the
//! front request's trace; called directly, it owns a trace of its own. A
//! shard runtime records each leg under that trace and commits no root.
//!
//! Because the router is itself a `BatchAnswer`, the whole generic serving
//! surface — a top-level [`ServeRuntime`] with its own global cache,
//! `serve_batch`, `submit`/`Ticket`, the benches and examples — works over
//! shards unchanged.

use std::sync::Arc;

use cqap_common::Result;
use cqap_obs::{MetricsSink, StageId, TraceScope};
use cqap_panda::CqapIndex;
use cqap_query::AccessRequest;
use cqap_relation::Relation;
use cqap_serve::{default_threads, AdmissionConfig, BatchAnswer, ServeConfig, ServeRuntime, Ticket};

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
        ShardRouter::with_metrics(index, ShardRouterConfig::default(), MetricsSink::disabled())
    }

    /// Routes over `index`, recording into `sink`: every shard runtime
    /// shares the sink (their stage timings and pool gauges aggregate
    /// into one recorder), the router counts requests per shard for the
    /// load-balance skew view, and multi-shard gathers record the
    /// answer-union stage. Shard `i` labels its trace events `i`; the
    /// router labels its own (its union laps, a direct call's root) one
    /// past the last shard.
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
            sink: sink.with_shard_label(spec.shards() as u16),
        }
    }

    /// The partition contract the router routes by.
    #[cfg(test)]
    pub(crate) fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Per-shard serving counters, in shard order — the load-balance view
    /// (hash skew shows up as uneven `served` counts here).
    #[cfg(test)]
    pub(crate) fn shard_stats(&self) -> Vec<cqap_serve::ServeStats> {
        self.runtimes.iter().map(ServeRuntime::stats).collect()
    }

    /// Splits `request` per shard and submits every leg to its shard
    /// runtime, without waiting on any. Called inside the call's
    /// [`TraceScope`], so each leg records against the call's trace.
    fn scatter(&self, request: &AccessRequest) -> Result<Vec<Leg>> {
        let legs = self.spec.split_request(request)?;
        Ok(legs
            .into_iter()
            .map(|(shard, sub)| {
                self.sink.shard_served(shard);
                self.runtimes[shard].submit(sub)
            })
            .collect())
    }

    /// Waits on one request's legs in leg (first-appearance) order, then
    /// unions their answers under one `AnswerUnion` lap: waiting on the
    /// shard probes is their own backend-probe time. A single leg — every
    /// single-binding request — hands the shard cache's own `Arc` through,
    /// with no union and no copy.
    fn gather(&self, mut legs: Vec<Leg>) -> Result<Arc<Relation>> {
        if legs.len() == 1 {
            return legs.pop().expect("one leg").wait();
        }
        let parts = legs.into_iter().map(Leg::wait).collect::<Result<Vec<_>>>()?;
        let mut span = self.sink.span();
        let mut parts = parts.into_iter();
        let first = parts.next().expect("split_request is never empty").as_ref().clone();
        let answer = parts.try_fold(first, |acc, part| acc.union(&part))?;
        span.lap(StageId::AnswerUnion, 0);
        Ok(Arc::new(answer))
    }
}

impl BatchAnswer for ShardRouter {
    type Request = AccessRequest;
    /// `Arc` so the single-shard fast path hands the shard cache's answer
    /// through without a deep `Relation` clone.
    type Answer = Arc<Relation>;

    /// Scatter-gather one request across the shard runtimes, its legs
    /// under the call's span (see the module docs).
    fn answer_one(&self, request: &Self::Request) -> Result<Self::Answer> {
        let span = self.sink.span();
        let _scope = TraceScope::enter(&span);
        self.gather(self.scatter(request)?)
    }

    /// Scatters every request's legs before gathering any answer, so the
    /// shards probe the whole batch concurrently and each shard runtime
    /// caches every leg under its own key. A request that fails to split
    /// or whose leg fails fails only its own position. The legs share
    /// the call's span, as in [`answer_one`](Self::answer_one).
    fn answer_batch(&self, requests: &[Self::Request]) -> Vec<Result<Self::Answer>> {
        let span = self.sink.span();
        let _scope = TraceScope::enter(&span);
        let scattered: Vec<_> = requests.iter().map(|request| self.scatter(request)).collect();
        scattered.into_iter().map(|legs| self.gather(legs?)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardTier;
    use cqap_common::Tuple;
    use cqap_obs::TraceStage;
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
        assert!(shard_stats.iter().map(|s| s.served).sum::<u64>() > 0);
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
        let shards = runtime.index().shard_stats();
        let misses: u64 = shards.iter().map(|s| s.cache_misses).sum();
        let hits: u64 = shards.iter().map(|s| s.cache_hits).sum();
        assert_eq!(misses, legs.len() as u64, "the first pass probed each leg");
        assert_eq!(hits, legs.len() as u64, "the repeat hit each leg's shard LRU");
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

    /// A shard leg runs inside its front request's trace scope and takes
    /// its trace from it: a leg of a sampled request records under the
    /// front request's id, a leg of an unsampled one records nothing, and
    /// no leg begins a trace or commits a root of its own.
    #[test]
    fn shard_legs_record_under_their_front_requests_trace() {
        use cqap_obs::{FlightRecorder, SamplingPolicy};
        use std::collections::HashSet;

        const FRONT: u16 = u16::MAX;
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(45, 200, 4, 28, 37);
        let sharded = ShardedIndex::build(&cqap, &g.as_path_database(3), &pmtds, 2).unwrap();
        let tracer = Arc::new(FlightRecorder::new(1 << 14, SamplingPolicy::OneInN(2)));
        let sink = MetricsSink::recording().with_tracer(Arc::clone(&tracer));
        let router = ShardRouter::with_metrics(sharded, ShardRouterConfig::default(), sink.clone());
        let front = ServeRuntime::with_metrics(
            Arc::new(router),
            ServeConfig {
                threads: 2,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            sink.with_shard_label(FRONT),
        );
        let singles = graph_pair_requests(&g, 16, 71)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap());
        let multis = zipf_multi_requests(&g, 16, 4, 1.0, 73).into_iter().map(|tuples| {
            let tuples = tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
            AccessRequest::new(cqap.access(), tuples).unwrap()
        });
        // One at a time, so the front's requests take the sampling ticks
        // in order: every other one is sampled.
        let requests: Vec<AccessRequest> = singles.chain(multis).collect();
        for request in &requests {
            front.submit(request.clone()).wait().unwrap();
        }
        drop(front); // join every pool so every leg is in the ring
        let events = tracer.drain();
        let ids = |keep: &dyn Fn(&&cqap_obs::TraceEvent) -> bool| -> HashSet<u64> {
            events.iter().filter(keep).map(|e| e.trace_id).collect()
        };
        // The front's own laps and roots carry its label: they name its
        // sampled requests.
        let sampled = ids(&|e| e.shard == FRONT);
        assert_eq!(sampled.len(), requests.len().div_ceil(2), "every other front request");
        let roots: Vec<_> = events.iter().filter(|e| e.stage == TraceStage::Request).collect();
        assert_eq!(roots.len(), sampled.len(), "one root per sampled front request");
        assert_eq!(ids(&|e| e.stage == TraceStage::Request), sampled, "a shard leg committed a root");
        let legs = |e: &&cqap_obs::TraceEvent| e.shard != FRONT && e.stage != TraceStage::Request;
        assert!(
            events.iter().filter(legs).any(|e| e.stage == TraceStage::BackendProbe && e.shard == 1),
            "the sampled requests' legs reached both shards"
        );
        assert!(
            ids(&legs).is_subset(&sampled),
            "a shard-labelled event carries no front request's id"
        );
    }

    /// A root is stamped with the label of the sink that commits it: every
    /// front request's root carries the front's label, and a directly
    /// called router's root and union lap carry the router's own label (one
    /// past the last shard), so each is told apart from the shard legs
    /// recorded under the same trace.
    #[test]
    fn front_roots_carry_the_front_label_and_legs_their_shards() {
        use cqap_obs::{FlightRecorder, SamplingPolicy};

        const FRONT: u16 = 7;
        const ROUTER: u16 = 2;
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(45, 200, 4, 28, 37);
        let sharded = ShardedIndex::build(&cqap, &g.as_path_database(3), &pmtds, 2).unwrap();
        let tracer = Arc::new(FlightRecorder::new(1 << 12, SamplingPolicy::Always));
        let sink = MetricsSink::recording().with_tracer(Arc::clone(&tracer));
        // No shard cache: every leg probes its shard.
        let config = ShardRouterConfig {
            cache_capacity: 0,
            ..ShardRouterConfig::default()
        };
        let router = Arc::new(ShardRouter::with_metrics(sharded, config, sink.clone()));
        let front = ServeRuntime::with_metrics(
            Arc::clone(&router),
            ServeConfig {
                threads: 1,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            sink.with_shard_label(FRONT),
        );
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 8, 79)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        for request in &requests {
            front.submit(request.clone()).wait().unwrap();
        }
        drop(front);
        let events = tracer.drain();
        let roots: Vec<_> = events.iter().filter(|e| e.stage == TraceStage::Request).collect();
        assert_eq!(roots.len(), requests.len(), "one root per front request");
        assert!(
            roots.iter().all(|e| e.shard == FRONT),
            "a root carries the front's label"
        );
        for root in &roots {
            let probes = events
                .iter()
                .filter(|e| e.trace_id == root.trace_id && e.stage == TraceStage::BackendProbe);
            let labels: Vec<u16> = probes.map(|e| e.shard).collect();
            assert_eq!(labels.len(), 2, "a front probe and one shard leg's probe");
            assert!(labels.contains(&FRONT) && labels.iter().any(|&l| l < 2), "{labels:?}");
        }

        // A direct multi-binding call owns its root: one per call, under
        // the router's label, beside its union lap; its legs carry theirs.
        let tuples = graph_pair_requests(&g, 8, 79).into_iter().map(|(u, v)| Tuple::pair(u, v));
        let multi = AccessRequest::new(cqap.access(), tuples.collect()).unwrap();
        let legs = router.spec().split_request(&multi).unwrap().len();
        assert_eq!(legs, 2, "the request spans both shards");
        router.answer_one(&multi).unwrap();
        let fronts: Vec<u64> = roots.iter().map(|e| e.trace_id).collect();
        let mut events = tracer.drain();
        events.retain(|e| !fronts.contains(&e.trace_id));
        let labels = |stage: TraceStage| -> Vec<u16> {
            events.iter().filter(|e| e.stage == stage).map(|e| e.shard).collect()
        };
        assert_eq!(labels(TraceStage::Request), [ROUTER], "one root, the router's");
        assert_eq!(labels(TraceStage::AnswerUnion), [ROUTER], "one union lap");
        let mut probes = labels(TraceStage::BackendProbe);
        probes.sort_unstable();
        assert_eq!(probes, [0, 1], "one probe per shard leg");
        assert!(events.iter().all(|e| e.trace_id == events[0].trace_id), "one trace");
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
        let shards = router.shard_stats();
        let served: u64 = shards.iter().map(|s| s.served).sum();
        let warm: u64 = shards.iter().map(|s| s.cache_hits + s.inflight_hits).sum();
        assert_eq!(served, 2 * requests.len() as u64);
        assert!(
            warm >= requests.len() as u64,
            "warm pass should avoid index probes: {shards:?}"
        );
    }
}
