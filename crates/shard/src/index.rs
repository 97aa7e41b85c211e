//! [`ShardedIndex`]: `k` independently built [`CqapIndex`] shards over a
//! hash-partitioned database, each resident or spilled to disk.
//!
//! Preprocessing is embarrassingly parallel across shards — each shard
//! runs the full framework pipeline (full join of *its* partition, S-view
//! materialization, Online-Yannakakis preprocessing) on the existing
//! work-stealing pool — and each shard's working set covers only its hash
//! class of the routing variable, which is the "datasets larger than one
//! index" half of the roadmap item. A placement
//! ([`ShardedIndex::from_sharded`], see [`crate::tiered`]) then spills
//! the cold shards.

use std::path::Path;
use std::sync::{mpsc, Arc};

use cqap_common::{CqapError, Result, Val};
use cqap_decomp::Pmtd;
use cqap_delta::{ApplyDelta, DeltaBatch, DeltaStats};
use cqap_obs::{GaugeId, MetricsSink};
use cqap_panda::CqapIndex;
use cqap_query::{AccessRequest, Cqap};
use cqap_relation::{Database, Relation};
use cqap_serve::{default_threads, BatchAnswer, WorkStealingPool};

use crate::partition::ShardSpec;
use crate::tiered::{PlacementPolicy, ShardTier, TieredSpace};

/// A hash-sharded CQAP index: the partition contract plus one
/// `Arc`-shared [`CqapIndex`] per shard, each resident (hot) or spilled
/// (cold).
///
/// Implements [`BatchAnswer`] (splitting each request across shards and
/// unioning the per-shard answers), so a `ShardedIndex` drops into a
/// `ServeRuntime` exactly like a single `CqapIndex`. For serving production
/// traffic prefer [`ShardRouter`](crate::ShardRouter), which puts a full
/// `ServeRuntime` (pool + cache) in front of every shard.
pub struct ShardedIndex {
    spec: ShardSpec,
    shards: Vec<Arc<CqapIndex>>,
    /// Publishes the per-tier resident-byte gauges whenever the shard
    /// contents change. Disabled (free) until
    /// [`ShardedIndex::set_metrics_sink`].
    sink: MetricsSink,
}

impl ShardedIndex {
    /// Partitions `db` under the [`ShardSpec`] contract and builds the `k`
    /// shard indexes, all resident, concurrently on a fresh work-stealing
    /// pool sized `min(k, available parallelism)`.
    ///
    /// # Errors
    /// Fails if the spec is invalid (`shards == 0`) or any shard build
    /// fails (lowest shard id wins).
    pub fn build(cqap: &Cqap, db: &Database, pmtds: &[Pmtd], shards: usize) -> Result<Self> {
        let spec = ShardSpec::new(cqap, shards)?;
        let partitions = spec.partition_database(db)?;
        let pool = WorkStealingPool::new(shards.min(default_threads()));
        let (tx, rx) = mpsc::channel::<(usize, Result<CqapIndex>)>();
        let expected = partitions.len();
        for (shard, partition) in partitions.into_iter().enumerate() {
            let tx = tx.clone();
            let cqap = cqap.clone();
            let pmtds = pmtds.to_vec();
            pool.execute(move || {
                let built = CqapIndex::build(&cqap, &partition, &pmtds);
                let _ = tx.send((shard, built));
            });
        }
        drop(tx);

        let mut built: Vec<Option<Arc<CqapIndex>>> = (0..expected).map(|_| None).collect();
        let mut first_error: Option<(usize, CqapError)> = None;
        for _ in 0..expected {
            let (shard, result) = rx
                .recv()
                .map_err(|_| CqapError::Other("shard build worker disappeared".into()))?;
            match result {
                Ok(index) => built[shard] = Some(Arc::new(index)),
                Err(error) => {
                    if first_error.as_ref().is_none_or(|(s, _)| shard < *s) {
                        first_error = Some((shard, error));
                    }
                }
            }
        }
        if let Some((_, error)) = first_error {
            return Err(error);
        }
        Ok(ShardedIndex {
            spec,
            shards: built
                .into_iter()
                .map(|s| s.expect("every shard built or errored"))
                .collect(),
            sink: MetricsSink::disabled(),
        })
    }

    /// Applies a per-shard placement: every resident shard placed
    /// [`ShardTier::Cold`] is spilled under `<dir>/shard<i>` — in place
    /// when `sharded` alone holds its `Arc`, so its counted S-views stay
    /// the spilled shard's support counts, or as a spilled copy when the
    /// `Arc` is shared, left to its other holders as it was.
    ///
    /// # Errors
    /// Fails if `placement` does not have exactly one entry per shard,
    /// places a spilled shard hot, or on spill I/O errors.
    pub fn from_sharded(
        mut sharded: ShardedIndex,
        placement: &[ShardTier],
        dir: impl AsRef<Path>,
    ) -> Result<ShardedIndex> {
        if placement.len() != sharded.num_shards() {
            return Err(CqapError::InvalidQuery(format!(
                "placement has {} entries for {} shards",
                placement.len(),
                sharded.num_shards()
            )));
        }
        for (i, (shard, tier)) in sharded.shards.iter_mut().zip(placement).enumerate() {
            match (*tier, shard.is_spilled()) {
                (ShardTier::Hot, true) => {
                    return Err(CqapError::InvalidQuery(format!("shard {i} is already spilled")))
                }
                (ShardTier::Cold, false) => {
                    let dir = dir.as_ref().join(format!("shard{i}"));
                    match Arc::get_mut(shard) {
                        Some(owned) => owned.spill_in_place(dir)?,
                        None => *shard = Arc::new(shard.spill(dir)?),
                    }
                }
                _ => {}
            }
        }
        Ok(sharded)
    }

    /// The partition contract.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard indexes, in shard order.
    pub fn shards(&self) -> &[Arc<CqapIndex>] {
        &self.shards
    }

    /// The tier of each shard, in shard order.
    pub fn placements(&self) -> Vec<ShardTier> {
        let tier = |spilled| if spilled { ShardTier::Cold } else { ShardTier::Hot };
        self.shards.iter().map(|s| tier(s.is_spilled())).collect()
    }

    /// Attaches a metrics sink to every shard — delta-apply latency and
    /// net ops, plus segment reads/bytes, overlay probes and compactions
    /// on spilled shards — and publishes the per-tier resident-byte
    /// gauges now and after every [`ApplyDelta::apply_delta`]. Like
    /// `apply_delta` itself, this needs exclusive ownership of every
    /// shard.
    ///
    /// # Errors
    /// Fails, with no shard changed, if any shard `Arc` is shared
    /// (serving handles must be dropped before mutating).
    pub fn set_metrics_sink(&mut self, sink: MetricsSink) -> Result<()> {
        for index in self.shards_mut("attach a metrics sink")? {
            index.set_metrics_sink(sink.clone());
        }
        self.sink = sink;
        self.publish_space_gauges();
        Ok(())
    }

    /// Every shard's exclusive borrow, all taken before any shard is
    /// touched, so a shared shard refuses a mutation before any shard has
    /// changed instead of leaving the deployment half-changed.
    fn shards_mut(&mut self, action: &str) -> Result<Vec<&mut CqapIndex>> {
        self.shards
            .iter_mut()
            .map(|shard| {
                Arc::get_mut(shard).ok_or_else(|| {
                    CqapError::Other(format!(
                        "cannot {action}: a shard index is shared (serving \
                         handles must be dropped before mutating)"
                    ))
                })
            })
            .collect()
    }

    /// Publishes [`ShardedIndex::resident_bytes`] per tier and the cold
    /// tier's *compressed* on-disk bytes as absolute gauges: the physical
    /// footprint the byte budget actually buys.
    fn publish_space_gauges(&self) {
        if !self.sink.is_enabled() {
            return;
        }
        let (hot, cold) = self.resident_bytes();
        self.sink.gauge_set(GaugeId::HotResidentBytes, hot as i64);
        self.sink.gauge_set(GaugeId::ColdResidentBytes, cold as i64);
        self.sink
            .gauge_set(GaugeId::ColdDiskBytes, self.space_used().cold_disk_bytes as i64);
    }

    /// Heap bytes `(hot, cold)` the two tiers keep resident for their
    /// `S`, from container capacities ([`CqapIndex::resident_bytes`]): hot
    /// shards hold their counted S-views; cold shards hold fence indexes,
    /// key filters, pending overlays and — the part a fence-only count
    /// misses — those same counted views, as their support counts.
    pub(crate) fn resident_bytes(&self) -> (usize, usize) {
        let (mut hot, mut cold) = (0, 0);
        for shard in &self.shards {
            let tier = if shard.is_spilled() { &mut cold } else { &mut hot };
            *tier += shard.resident_bytes();
        }
        (hot, cold)
    }

    /// The intrinsic space per tier: per-shard S-view sizes summed. Views
    /// that project away the routing variable overlap between shards, so
    /// the total can exceed the unsharded index's
    /// [`CqapIndex::space_used`] — the price of partitioned builds.
    pub fn space_used(&self) -> TieredSpace {
        let mut space = TieredSpace::default();
        for shard in &self.shards {
            if shard.is_spilled() {
                space.cold_shards += 1;
                space.cold_values += shard.space_used();
                space.cold_disk_bytes += shard.disk_bytes();
                space.cold_resident_values += shard.resident_values();
            } else {
                space.hot_shards += 1;
                space.hot_values += shard.space_used();
            }
        }
        space
    }

    /// Bytes each shard's S-views occupy, by the uniform
    /// `values × size_of::<Val>()` measure both tiers share — the size
    /// input a placement decision works from.
    pub fn shard_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.space_used() * std::mem::size_of::<Val>()).collect()
    }

    /// The placement `policy` picks for the shards' **current** sizes (feed
    /// it [`PlacementPolicy::observe`] over a traffic sample via
    /// [`PlacementPolicy::with_weights`] for traffic-aware scoring) — the
    /// input of [`ShardedIndex::from_sharded`] after a build, and, as
    /// deltas grow or shrink shards, what to compare with
    /// [`ShardedIndex::placements`] to see which shards are worth
    /// migrating at the next rebuild.
    pub fn replan(&self, policy: &PlacementPolicy) -> Vec<ShardTier> {
        policy.place(&self.shard_bytes())
    }

    /// Answers an access request: routes each binding to the shard owning
    /// its routing value, answers the per-shard sub-requests (from
    /// whichever tier holds each shard), and unions the answers in
    /// sub-request order.
    ///
    /// By the [`ShardSpec`] invariants this is *exactly equal* to the
    /// unsharded [`CqapIndex::answer`] on the whole database. A request
    /// with a [sole shard](ShardSpec::sole_shard) goes to it as is.
    ///
    /// # Errors
    /// Propagates the first failing shard's error.
    pub fn answer(&self, request: &AccessRequest) -> Result<Relation> {
        if let Some(shard) = self.spec.sole_shard(request) {
            return self.shards[shard].answer(request);
        }
        let mut parts = self.spec.split_request(request)?.into_iter();
        let (shard, sub) = parts.next().expect("split_request is never empty");
        let mut answer = self.shards[shard].answer(&sub)?;
        for (shard, sub) in parts {
            // Both sides are owned: move the larger, insert the smaller.
            answer = answer.union_with(self.shards[shard].answer(&sub)?)?;
        }
        Ok(answer)
    }
}

/// Incremental maintenance of a sharded deployment: the batch is routed
/// through [`ShardSpec::partition_delta`] — delta tuples partition (or
/// replicate) exactly like the base data did — and each shard absorbs its
/// per-shard batch through its own [`ApplyDelta`] seam, keeping the
/// partition invariants (and hence exact sharded answering) intact. Every
/// shard absorbs its share even if another fails (a cold compaction
/// error) and the first error is returned, so no shard is left behind
/// the others and re-applying the batch is a no-op.
///
/// The returned [`DeltaStats`] sum the **shard-local** net effects: a
/// routed relation's changes count once in total, while a replicated
/// relation's changes count once per shard (each shard really did mutate
/// its replica). Callers comparing against an unsharded maintainer should
/// compare answers, not raw counts, whenever replicated relations are in
/// play.
impl ApplyDelta for ShardedIndex {
    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaStats> {
        let parts = self.spec.partition_delta(batch, self.shards[0].database())?;
        let (mut stats, mut applied) = (DeltaStats::default(), Ok(()));
        for (index, part) in self.shards_mut("apply a delta")?.into_iter().zip(parts) {
            match index.apply_delta(&part) {
                Ok(shard_stats) => stats.merge(shard_stats),
                Err(e) => applied = applied.and(Err(e)),
            }
        }
        // Deltas grow and shrink shards (and compactions fold overlays
        // into fresh runs), so re-publish the per-tier gauges.
        self.publish_space_gauges();
        applied.map(|()| stats)
    }
}

/// The sharded index serves through the same one-trait API as every other
/// structure, which is what lets runtimes, benches and examples work over
/// shards — hot, cold or mixed — unchanged.
impl BatchAnswer for ShardedIndex {
    type Request = AccessRequest;
    type Answer = Relation;

    fn answer_one(&self, request: &Self::Request) -> Result<Self::Answer> {
        self.answer(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::Tuple;
    use cqap_decomp::families as pf;
    use cqap_query::workload::{graph_pair_requests, zipf_multi_requests, Graph};
    use cqap_yannakakis::naive_answer;

    fn fixture() -> (Cqap, Vec<Pmtd>, Graph, Database, CqapIndex) {
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(50, 220, 4, 30, 23);
        let db = g.as_path_database(3);
        let reference = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        (cqap, pmtds, g, db, reference)
    }

    #[test]
    fn sharded_answers_equal_unsharded_for_singles() {
        let (cqap, pmtds, g, db, reference) = fixture();
        for k in [1, 2, 3, 7] {
            let sharded = ShardedIndex::build(&cqap, &db, &pmtds, k).unwrap();
            assert_eq!(sharded.num_shards(), k);
            for (u, v) in graph_pair_requests(&g, 40, 29) {
                let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
                assert_eq!(
                    sharded.answer(&request).unwrap(),
                    reference.answer(&request).unwrap(),
                    "k = {k}, request ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn sharded_answers_equal_unsharded_for_multi_tuple_batches() {
        let (cqap, pmtds, g, db, reference) = fixture();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 4).unwrap();
        for tuples in zipf_multi_requests(&g, 25, 6, 1.1, 31) {
            let tuples: Vec<Tuple> = tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
            let request = AccessRequest::new(cqap.access(), tuples).unwrap();
            assert_eq!(
                sharded.answer(&request).unwrap(),
                reference.answer(&request).unwrap()
            );
        }
    }

    #[test]
    fn empty_request_answers_empty() {
        let (cqap, pmtds, _, db, reference) = fixture();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 3).unwrap();
        let empty = AccessRequest::new(cqap.access(), Vec::new()).unwrap();
        assert_eq!(
            sharded.answer(&empty).unwrap(),
            reference.answer(&empty).unwrap()
        );
    }

    #[test]
    fn build_rejects_zero_shards_and_propagates_shard_errors() {
        let (cqap, pmtds, _, db, _) = fixture();
        assert!(ShardedIndex::build(&cqap, &db, &pmtds, 0).is_err());
        // A PMTD set for a different CQAP fails in every shard; the error
        // surfaces instead of hanging the build.
        let (cqap2, _) = pf::pmtds_2reach().unwrap();
        let g2 = Graph::random(20, 60, 3);
        let db2 = g2.as_path_database(2);
        assert!(ShardedIndex::build(&cqap2, &db2, &pmtds, 3).is_err());
    }

    /// A batch that routes to shards 0 and 1 of `spec` (a fresh path
    /// through every relation from a start value on each shard, plus
    /// deletes of existing tuples), and requests that see every part of it.
    fn batch_on_shards_0_and_1(
        cqap: &Cqap,
        spec: &ShardSpec,
        g: &Graph,
        db: &Database,
    ) -> (DeltaBatch, Vec<AccessRequest>) {
        let mut requests: Vec<AccessRequest> = graph_pair_requests(g, 20, 43)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let mut batch = DeltaBatch::new();
        for shard in 0..2 {
            let start = (50_000u64..)
                .find(|&a| spec.shard_of_value(a) == shard)
                .unwrap();
            for (i, rel) in db.relations().iter().enumerate() {
                let i = i as u64;
                batch = batch.insert(rel.name(), vec![Tuple::pair(start + i, start + i + 1)]);
            }
            let end = start + db.num_relations() as u64;
            requests.push(AccessRequest::single(cqap.access(), &[start, end]).unwrap());
        }
        let routed = &db.relations()[0];
        let victims: Vec<Tuple> = routed.tuples().iter().step_by(5).take(6).cloned().collect();
        (batch.delete(routed.name(), victims), requests)
    }

    #[test]
    fn a_shared_shard_refuses_a_delta_with_no_shard_changed() {
        let (cqap, pmtds, g, db, _) = fixture();
        let mut sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).unwrap();
        let (batch, requests) = batch_on_shards_0_and_1(&cqap, sharded.spec(), &g, &db);
        let held = Arc::clone(&sharded.shards()[1]);
        assert!(sharded.apply_delta(&batch).is_err());
        drop(held);
        for request in &requests {
            let expected = naive_answer(&cqap, &db, request).unwrap();
            assert_eq!(
                sharded.answer(request).unwrap(),
                expected,
                "after the refusal"
            );
        }

        sharded.apply_delta(&batch).unwrap();
        let mut after = db.clone();
        after.apply_delta(&batch).unwrap();
        for request in &requests {
            let expected = naive_answer(&cqap, &after, request).unwrap();
            assert_eq!(
                sharded.answer(request).unwrap(),
                expected,
                "after the re-apply"
            );
        }
    }
}
