//! [`TieredShardedIndex`]: hot/cold placement of hash-partitioned shards.
//!
//! This extends the `cqap-shard` seam with the storage tier: the database
//! is partitioned under the exact same [`ShardSpec`] contract, every shard
//! is built as a full [`CqapIndex`], and a *placement* then decides per
//! shard whether it stays **hot** (the in-memory index, hash probes) or
//! goes **cold** (spilled to a [`StoredIndex`], fence-indexed disk
//! probes). Since hot and cold shards answer identically — the storage
//! backend changes *where* S-view probes are served, never *what* they
//! return — the tiered index inherits the shard contract's exactness:
//! answers are bit-for-bit the unsharded reference, at any tier split.
//!
//! Placement is driven by [`PlacementPolicy`]: a per-deployment byte
//! budget for the hot tier plus observed per-shard request frequency.
//! Hottest shards are kept in memory first; whatever exceeds the budget
//! pays disk reads. That is the paper's space/time tradeoff made physical:
//! `S` resident buys probe latency. `perf/`'s `cold_store` (both shards
//! cold) and `delta_mix` (`[Hot, Cold]`) measure two points on this axis.

use std::cmp::Reverse;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cqap_common::{CqapError, Result};
use cqap_obs::{GaugeId, MetricsSink};
use cqap_decomp::Pmtd;
use cqap_delta::{ApplyDelta, DeltaBatch, DeltaStats};
use cqap_panda::CqapIndex;
use cqap_query::{AccessRequest, Cqap};
use cqap_relation::{Database, Relation};
use cqap_serve::BatchAnswer;
use cqap_shard::{ShardSpec, ShardedIndex};

use crate::stored::{scratch_dir, StoredIndex};

/// Where one shard's index lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardTier {
    /// In memory: a full [`CqapIndex`], hash-probed.
    Hot,
    /// On disk: a [`StoredIndex`], fence-probed.
    Cold,
}

/// Decides the hot/cold split: a hot-tier byte budget plus observed
/// per-shard request frequency.
#[derive(Clone, Debug)]
pub struct PlacementPolicy {
    hot_budget_bytes: usize,
    weights: Vec<u64>,
}

impl PlacementPolicy {
    /// A policy with the given hot-tier budget (bytes of S-view values
    /// resident in memory) and no traffic information (shards are then
    /// ranked by id).
    pub fn hot_budget(bytes: usize) -> Self {
        PlacementPolicy {
            hot_budget_bytes: bytes,
            weights: Vec::new(),
        }
    }

    /// Attaches observed per-shard request frequencies (higher = hotter).
    /// Typically produced by [`PlacementPolicy::observe`] over a traffic
    /// sample, or by [`TieredShardedIndex::observed_loads`] from a live
    /// deployment.
    #[must_use]
    pub fn with_weights(mut self, weights: Vec<u64>) -> Self {
        self.weights = weights;
        self
    }

    /// Counts how many request bindings each shard would receive under
    /// `spec` — the observed-frequency input to placement.
    pub fn observe(spec: &ShardSpec, requests: &[AccessRequest]) -> Vec<u64> {
        let mut weights = vec![0u64; spec.shards()];
        for request in requests {
            for tuple in request.tuples() {
                weights[spec.shard_of_binding(tuple)] += 1;
            }
        }
        weights
    }

    /// The placement: shards are visited hottest-first (weight descending,
    /// shard id as the deterministic tie-break) and kept [`ShardTier::Hot`]
    /// while they fit the remaining byte budget; everything else goes
    /// [`ShardTier::Cold`].
    pub fn place(&self, shard_bytes: &[usize]) -> Vec<ShardTier> {
        let mut order: Vec<usize> = (0..shard_bytes.len()).collect();
        order.sort_by_key(|&i| (Reverse(self.weights.get(i).copied().unwrap_or(0)), i));
        let mut remaining = self.hot_budget_bytes;
        let mut placement = vec![ShardTier::Cold; shard_bytes.len()];
        for shard in order {
            if shard_bytes[shard] <= remaining {
                remaining -= shard_bytes[shard];
                placement[shard] = ShardTier::Hot;
            }
        }
        placement
    }
}

enum TierShard {
    Hot(Arc<CqapIndex>),
    Cold(StoredIndex),
}

/// An exclusive borrow of one shard, from `TieredShardedIndex::shards_mut`.
enum TierShardMut<'a> {
    Hot(&'a mut CqapIndex),
    Cold(&'a mut StoredIndex),
}

/// Per-tier space breakdown of a [`TieredShardedIndex`] — the "space" axis
/// of the tradeoff, split by where it is actually paid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TieredSpace {
    /// Shards resident in memory.
    pub hot_shards: usize,
    /// Shards on disk.
    pub cold_shards: usize,
    /// S-view values resident in memory (hot shards).
    pub hot_values: usize,
    /// S-view values on disk (cold shards).
    pub cold_values: usize,
    /// Bytes the cold shards occupy on disk.
    pub cold_disk_bytes: u64,
    /// View values the cold shards keep resident (their sparse fence
    /// indexes and pending overlays) — the S-view share only; the cold
    /// tier's support counts show in
    /// [`TieredShardedIndex::resident_bytes`].
    pub cold_resident_values: usize,
}

impl TieredSpace {
    /// Total intrinsic `S` across both tiers.
    pub fn total_values(&self) -> usize {
        self.hot_values + self.cold_values
    }

    /// Values actually resident in RAM: hot S-views plus cold fence
    /// indexes.
    pub fn resident_values(&self) -> usize {
        self.hot_values + self.cold_resident_values
    }
}

impl std::fmt::Display for TieredSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hot shard(s): {} values in RAM | {} cold shard(s): {} values in {} bytes on disk, {} fence values resident",
            self.hot_shards,
            self.hot_values,
            self.cold_shards,
            self.cold_values,
            self.cold_disk_bytes,
            self.cold_resident_values,
        )
    }
}

/// A hash-sharded CQAP index whose shards are independently placed hot
/// (in-memory [`CqapIndex`]) or cold ([`StoredIndex`] on disk), under the
/// unchanged [`ShardSpec`] partition contract.
pub struct TieredShardedIndex {
    spec: ShardSpec,
    shards: Vec<TierShard>,
    /// Bindings routed to each shard since construction — the observed
    /// request frequency a re-placement would feed back into
    /// [`PlacementPolicy::with_weights`].
    loads: Vec<AtomicU64>,
    /// Observability seam: publishes the per-tier resident-byte gauges
    /// whenever the placement or the shard contents change. Disabled
    /// (free) until [`TieredShardedIndex::set_metrics_sink`].
    sink: MetricsSink,
    // Declared last so the cold shards' spill subdirectories are removed
    // before the parent scratch dir (present only for `build_in_temp`).
    _temp_parent: Option<TempParent>,
}

struct TempParent(std::path::PathBuf);

impl Drop for TempParent {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.0);
    }
}

impl TieredShardedIndex {
    /// Builds the `k` shard indexes (concurrently, via
    /// [`ShardedIndex::build`]), sizes them, and applies `policy` to place
    /// each shard hot or cold; cold shards are spilled under
    /// `<dir>/shard<i>` and their in-memory copies dropped.
    ///
    /// # Errors
    /// Propagates shard-build failures and spill I/O errors.
    pub fn build(
        cqap: &Cqap,
        db: &Database,
        pmtds: &[Pmtd],
        shards: usize,
        policy: &PlacementPolicy,
        dir: impl AsRef<Path>,
    ) -> Result<Self> {
        let sharded = ShardedIndex::build(cqap, db, pmtds, shards)?;
        let bytes: Vec<usize> = sharded
            .shards()
            .iter()
            .map(|s| s.space_used() * std::mem::size_of::<cqap_common::Val>())
            .collect();
        let placement = policy.place(&bytes);
        TieredShardedIndex::from_sharded(sharded, &placement, dir)
    }

    /// [`TieredShardedIndex::build`] into a fresh process-unique scratch
    /// directory, removed again when the index drops.
    ///
    /// # Errors
    /// Same failure modes as [`TieredShardedIndex::build`].
    pub fn build_in_temp(
        cqap: &Cqap,
        db: &Database,
        pmtds: &[Pmtd],
        shards: usize,
        policy: &PlacementPolicy,
    ) -> Result<Self> {
        let dir = scratch_dir("tiered");
        let mut built = TieredShardedIndex::build(cqap, db, pmtds, shards, policy, &dir)?;
        built._temp_parent = Some(TempParent(dir));
        Ok(built)
    }

    /// Applies an explicit per-shard placement to an already built
    /// [`ShardedIndex`], consuming it: hot shards keep their in-memory
    /// index, cold shards are spilled under `<dir>/shard<i>` and the
    /// in-memory copy is released. A cold shard whose `Arc` only
    /// `sharded` held is handed over whole, its counted S-views becoming
    /// the cold support counts; one still shared elsewhere is cloned and
    /// left to its other holders.
    ///
    /// # Errors
    /// Fails if `placement` does not have exactly one entry per shard, or
    /// on spill I/O errors.
    pub fn from_sharded(
        sharded: ShardedIndex,
        placement: &[ShardTier],
        dir: impl AsRef<Path>,
    ) -> Result<Self> {
        if placement.len() != sharded.num_shards() {
            return Err(CqapError::InvalidQuery(format!(
                "placement has {} entries for {} shards",
                placement.len(),
                sharded.num_shards()
            )));
        }
        let spec = *sharded.spec();
        let arcs: Vec<Arc<CqapIndex>> = sharded.shards().to_vec();
        drop(sharded);
        let dir = dir.as_ref();
        let mut shards = Vec::with_capacity(arcs.len());
        for (i, (index, tier)) in arcs.into_iter().zip(placement).enumerate() {
            shards.push(match tier {
                ShardTier::Hot => TierShard::Hot(index),
                ShardTier::Cold => {
                    let dir = dir.join(format!("shard{i}"));
                    TierShard::Cold(match Arc::try_unwrap(index) {
                        Ok(owned) => StoredIndex::spill_parts(owned.into_parts(), &dir)?,
                        Err(shared) => StoredIndex::spill(&shared, &dir)?,
                    })
                }
            });
        }
        let loads = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(TieredShardedIndex {
            spec,
            shards,
            loads,
            sink: MetricsSink::disabled(),
            _temp_parent: None,
        })
    }

    /// The partition contract.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The tier of each shard, in shard order.
    pub fn placements(&self) -> Vec<ShardTier> {
        self.shards
            .iter()
            .map(|s| match s {
                TierShard::Hot(_) => ShardTier::Hot,
                TierShard::Cold(_) => ShardTier::Cold,
            })
            .collect()
    }

    /// Bindings served per shard since construction — the observed
    /// frequency input for the next placement round.
    pub fn observed_loads(&self) -> Vec<u64> {
        self.loads.iter().map(|l| l.load(Ordering::Relaxed)).collect()
    }

    /// Attaches a metrics sink to every shard, both tiers: hot shards
    /// record delta-apply latency and net ops, cold shards add segment
    /// reads/bytes, overlay probes and compactions. Also publishes the
    /// per-tier resident-byte gauges immediately (and again after every
    /// [`ApplyDelta::apply_delta`]), so a scrape always sees the current
    /// hot/cold split. Like [`ApplyDelta::apply_delta`], this needs
    /// exclusive ownership of the hot shards.
    ///
    /// # Errors
    /// Fails, with no shard changed, if a hot shard `Arc` is shared
    /// (serving handles must be dropped before mutating).
    pub fn set_metrics_sink(&mut self, sink: MetricsSink) -> Result<()> {
        for shard in self.shards_mut("attach a metrics sink")? {
            match shard {
                TierShardMut::Hot(index) => index.set_metrics_sink(sink.clone()),
                TierShardMut::Cold(stored) => stored.set_metrics_sink(sink.clone()),
            }
        }
        self.sink = sink;
        self.publish_space_gauges();
        Ok(())
    }

    /// Every shard's exclusive borrow, all taken before any shard is
    /// touched, so a shared hot shard refuses a mutation before any shard
    /// has changed instead of leaving the deployment half-changed.
    fn shards_mut(&mut self, action: &str) -> Result<Vec<TierShardMut<'_>>> {
        self.shards
            .iter_mut()
            .map(|shard| match shard {
                TierShard::Hot(index) => {
                    Arc::get_mut(index).map(TierShardMut::Hot).ok_or_else(|| {
                        CqapError::Other(format!(
                            "cannot {action}: a hot shard is shared (serving \
                             handles must be dropped before mutating)"
                        ))
                    })
                }
                TierShard::Cold(stored) => Ok(TierShardMut::Cold(stored)),
            })
            .collect()
    }

    /// Publishes the RAM-resident footprint of each tier as absolute
    /// gauges — [`TieredShardedIndex::resident_bytes`], i.e. what the
    /// tiers actually hold, not a nominal 8 bytes per value — plus the
    /// cold tier's *compressed* on-disk bytes (the v2 run files' sizes),
    /// so the exposition carries the physical footprint the byte budget
    /// actually buys.
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
    /// `S`, from container capacities: hot shards hold their counted
    /// S-views ([`CqapIndex::resident_bytes`]); cold shards hold fence
    /// indexes, key filters, pending overlays and — the part a fence-only
    /// count misses — their own support counts, a clone of those same tables
    /// ([`StoredIndex::resident_bytes`]).
    pub fn resident_bytes(&self) -> (usize, usize) {
        let (mut hot, mut cold) = (0, 0);
        for shard in &self.shards {
            match shard {
                TierShard::Hot(index) => hot += index.resident_bytes(),
                TierShard::Cold(stored) => cold += stored.resident_bytes(),
            }
        }
        (hot, cold)
    }

    /// The per-tier space breakdown.
    pub fn space_used(&self) -> TieredSpace {
        let mut space = TieredSpace::default();
        for shard in &self.shards {
            match shard {
                TierShard::Hot(index) => {
                    space.hot_shards += 1;
                    space.hot_values += index.space_used();
                }
                TierShard::Cold(stored) => {
                    space.cold_shards += 1;
                    space.cold_values += stored.space_used();
                    space.cold_disk_bytes += stored.disk_bytes();
                    space.cold_resident_values += stored.resident_values();
                }
            }
        }
        space
    }

    /// Bytes each shard's S-views occupy, by the uniform
    /// `values × size_of::<Val>()` measure both tiers share — the size
    /// input a placement decision works from.
    pub fn shard_bytes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| {
                let values = match shard {
                    TierShard::Hot(index) => index.space_used(),
                    TierShard::Cold(stored) => stored.space_used(),
                };
                values * std::mem::size_of::<cqap_common::Val>()
            })
            .collect()
    }

    /// Re-scores the hot/cold split against the shards' **current** sizes:
    /// as deltas grow or shrink shards, the placement `policy` decided at
    /// build time can drift from what it would decide now. Returns the
    /// placement the policy picks today (feed it
    /// [`TieredShardedIndex::observed_loads`] via
    /// [`PlacementPolicy::with_weights`] for traffic-aware scoring);
    /// comparing it with [`TieredShardedIndex::placements`] tells an
    /// operator which shards are worth migrating at the next rebuild.
    pub fn replan(&self, policy: &PlacementPolicy) -> Vec<ShardTier> {
        policy.place(&self.shard_bytes())
    }

    fn answer_shard(&self, shard: usize, sub: &AccessRequest) -> Result<Relation> {
        self.loads[shard].fetch_add(sub.len().max(1) as u64, Ordering::Relaxed);
        match &self.shards[shard] {
            TierShard::Hot(index) => index.answer(sub),
            TierShard::Cold(stored) => stored.answer(sub),
        }
    }

    /// Answers an access request exactly like [`ShardedIndex::answer`]:
    /// split by routing hash, answer per shard (from whichever tier holds
    /// it), union the per-shard answers (set contents guaranteed; tuple
    /// order is an implementation detail of the size-directed union). A
    /// request with a [sole shard](ShardSpec::sole_shard) goes to it as is.
    ///
    /// # Errors
    /// Propagates the first failing shard's error.
    pub fn answer(&self, request: &AccessRequest) -> Result<Relation> {
        if let Some(shard) = self.spec.sole_shard(request) {
            return self.answer_shard(shard, request);
        }
        let mut parts = self.spec.split_request(request)?.into_iter();
        let (shard, sub) = parts.next().expect("split_request is never empty");
        let mut answer = self.answer_shard(shard, &sub)?;
        for (shard, sub) in parts {
            // Both sides are owned: move the larger, insert the smaller.
            answer = answer.union_with(self.answer_shard(shard, &sub)?)?;
        }
        Ok(answer)
    }
}

/// Incremental maintenance across tiers: the batch routes through the
/// unchanged [`ShardSpec`] contract ([`ShardSpec::partition_delta`] —
/// delta tuples partition or replicate exactly like the base data), then
/// each shard absorbs its share through whichever tier holds it: hot
/// shards update their hash-backed views in place, cold shards buffer
/// LSM-style overlays on their spilled runs. Stats are shard-local sums,
/// as in [`cqap_shard::ShardedIndex`]'s implementation. Every shard
/// absorbs its share even if another fails (a cold compaction error), and
/// the first error is returned, so no shard is left behind the others
/// and re-applying the batch is a no-op.
impl ApplyDelta for TieredShardedIndex {
    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaStats> {
        let parts = {
            let db = match &self.shards[0] {
                TierShard::Hot(index) => index.database(),
                TierShard::Cold(stored) => stored.database(),
            };
            self.spec.partition_delta(batch, db)?
        };
        let (mut stats, mut applied) = (DeltaStats::default(), Ok(()));
        for (shard, part) in self.shards_mut("apply a delta")?.into_iter().zip(parts) {
            let shard_stats = match shard {
                TierShardMut::Hot(index) => index.apply_delta(&part),
                TierShardMut::Cold(stored) => stored.apply_delta(&part),
            };
            match shard_stats {
                Ok(shard_stats) => stats.merge(shard_stats),
                Err(e) => applied = applied.and(Err(e)),
            }
        }
        // Deltas grow and shrink shards (and cold compactions fold
        // overlays into fresh runs), so re-publish the per-tier
        // resident-byte gauges after every absorbed batch.
        self.publish_space_gauges();
        applied.map(|()| stats)
    }
}

/// The tiered index serves through the same one-trait API as everything
/// else, so the serving runtime, benches and examples run over hot/cold
/// shards unchanged.
impl BatchAnswer for TieredShardedIndex {
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
    fn placement_is_greedy_hottest_first_within_budget() {
        let bytes = [100usize, 200, 300, 50];
        // No weights: ranked by shard id; 0 and 1 fit a 350-byte budget,
        // then 2 does not, but 3 still does.
        let policy = PlacementPolicy::hot_budget(350);
        assert_eq!(
            policy.place(&bytes),
            vec![ShardTier::Hot, ShardTier::Hot, ShardTier::Cold, ShardTier::Hot]
        );
        // Weighted: shard 2 is hottest and takes the budget first.
        let policy = PlacementPolicy::hot_budget(350).with_weights(vec![1, 2, 100, 3]);
        assert_eq!(
            policy.place(&bytes),
            vec![ShardTier::Cold, ShardTier::Cold, ShardTier::Hot, ShardTier::Hot]
        );
        // Zero budget: everything cold; infinite budget: everything hot.
        assert!(PlacementPolicy::hot_budget(0)
            .place(&bytes)
            .iter()
            .all(|t| *t == ShardTier::Cold));
        assert!(PlacementPolicy::hot_budget(usize::MAX)
            .place(&bytes)
            .iter()
            .all(|t| *t == ShardTier::Hot));
    }

    #[test]
    fn observe_counts_bindings_per_shard() {
        let (cqap, _, g, _, _) = fixture();
        let spec = ShardSpec::new(&cqap, 3).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 50, 7)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let weights = PlacementPolicy::observe(&spec, &requests);
        assert_eq!(weights.len(), 3);
        assert_eq!(weights.iter().sum::<u64>(), 50);
    }

    #[test]
    fn tiered_answers_equal_unsharded_at_every_split() {
        let (cqap, pmtds, g, db, reference) = fixture();
        for cold in 0..=3usize {
            let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 3).unwrap();
            let placement: Vec<ShardTier> = (0..3)
                .map(|i| if i < cold { ShardTier::Cold } else { ShardTier::Hot })
                .collect();
            let tiered = TieredShardedIndex::from_sharded(
                sharded,
                &placement,
                scratch_dir("split-test"),
            )
            .unwrap();
            assert_eq!(tiered.placements(), placement);
            for (u, v) in graph_pair_requests(&g, 25, 29) {
                let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
                assert_eq!(
                    tiered.answer(&request).unwrap(),
                    reference.answer(&request).unwrap(),
                    "cold = {cold}, request ({u},{v})"
                );
            }
            for tuples in zipf_multi_requests(&g, 8, 5, 1.1, 31) {
                let tuples: Vec<Tuple> =
                    tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
                let request = AccessRequest::new(cqap.access(), tuples).unwrap();
                assert_eq!(
                    tiered.answer(&request).unwrap(),
                    reference.answer(&request).unwrap(),
                    "cold = {cold}"
                );
            }
        }
    }

    #[test]
    fn space_reports_per_tier_and_loads_accumulate() {
        let (cqap, pmtds, g, db, _) = fixture();
        let policy = PlacementPolicy::hot_budget(0);
        let tiered =
            TieredShardedIndex::build_in_temp(&cqap, &db, &pmtds, 2, &policy).unwrap();
        let space = tiered.space_used();
        assert_eq!(space.cold_shards, 2);
        assert_eq!(space.hot_shards, 0);
        assert_eq!(space.hot_values, 0);
        assert!(space.cold_values > 0);
        assert!(space.cold_disk_bytes > 0);
        assert!(space.resident_values() < space.total_values());
        assert!(space.to_string().contains("cold"));

        assert_eq!(tiered.observed_loads(), vec![0, 0]);
        for (u, v) in graph_pair_requests(&g, 20, 37) {
            let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
            tiered.answer(&request).unwrap();
        }
        assert_eq!(tiered.observed_loads().iter().sum::<u64>(), 20);
    }

    #[test]
    fn resident_byte_gauges_track_the_tier_split() {
        use cqap_delta::{ApplyDelta, DeltaBatch};

        let (cqap, pmtds, _, db, _) = fixture();
        let val_bytes = std::mem::size_of::<cqap_common::Val>();

        // All-cold: the hot gauge is zero, the cold gauge is what the cold
        // shards really hold — more than their resident fence values,
        // because every cold lineage keeps its support counts.
        let policy = PlacementPolicy::hot_budget(0);
        let mut tiered =
            TieredShardedIndex::build_in_temp(&cqap, &db, &pmtds, 2, &policy).unwrap();
        let sink = MetricsSink::recording();
        tiered.set_metrics_sink(sink.clone()).unwrap();
        let space = tiered.space_used();
        let (hot, cold) = tiered.resident_bytes();
        let snap = sink.snapshot().unwrap();
        assert_eq!(hot, 0);
        assert_eq!(snap.gauge(GaugeId::HotResidentBytes), 0);
        assert_eq!(snap.gauge(GaugeId::ColdResidentBytes), cold as i64);
        assert!(
            cold > space.cold_resident_values * val_bytes,
            "the cold gauge must include the support counts"
        );
        // The disk gauge carries the cold runs' *compressed* bytes: it
        // matches the space report exactly and sits well under the
        // logical (values x 8) footprint of the cold tier.
        assert_eq!(snap.gauge(GaugeId::ColdDiskBytes), space.cold_disk_bytes as i64);
        assert!(snap.gauge(GaugeId::ColdDiskBytes) > 0);
        assert!(space.cold_disk_bytes < (space.cold_values * 8) as u64);

        // A delta re-publishes: gauges still match the current state, and
        // the pending overlay shows.
        let mut batch = DeltaBatch::new();
        for (i, rel) in db.relations().iter().enumerate() {
            let base = 9_000 + i as u64;
            batch = batch.insert(rel.name().to_string(), vec![Tuple::pair(base, base + 1)]);
        }
        tiered.apply_delta(&batch).unwrap();
        let space = tiered.space_used();
        let (_, cold_after) = tiered.resident_bytes();
        let snap = sink.snapshot().unwrap();
        assert!(cold_after > cold, "overlay and new counts are resident");
        assert_eq!(snap.gauge(GaugeId::ColdResidentBytes), cold_after as i64);
        assert_eq!(snap.gauge(GaugeId::ColdDiskBytes), space.cold_disk_bytes as i64);

        // All-hot: the cold gauge is zero and the hot gauge carries the
        // S-views — each one table with its support counts — at their real
        // size: above the nominal 8 bytes per value, within 4.5x of it, and
        // far below the 24x a tuple-copying layout cost.
        let policy = PlacementPolicy::hot_budget(usize::MAX);
        let mut tiered =
            TieredShardedIndex::build_in_temp(&cqap, &db, &pmtds, 2, &policy).unwrap();
        let sink = MetricsSink::recording();
        tiered.set_metrics_sink(sink.clone()).unwrap();
        let space = tiered.space_used();
        let (hot, cold) = tiered.resident_bytes();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.gauge(GaugeId::HotResidentBytes), hot as i64);
        assert!(hot > space.hot_values * val_bytes);
        assert!(2 * hot <= 9 * space.hot_values * val_bytes);
        assert_eq!(cold, 0);
        assert_eq!(snap.gauge(GaugeId::ColdResidentBytes), 0);
        assert_eq!(snap.gauge(GaugeId::ColdDiskBytes), 0);
    }

    #[test]
    fn placement_arity_is_validated_and_temp_dirs_are_cleaned() {
        let (cqap, pmtds, _, db, _) = fixture();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).unwrap();
        assert!(TieredShardedIndex::from_sharded(
            sharded,
            &[ShardTier::Hot],
            scratch_dir("arity-test")
        )
        .is_err());

        let policy = PlacementPolicy::hot_budget(0);
        let tiered =
            TieredShardedIndex::build_in_temp(&cqap, &db, &pmtds, 2, &policy).unwrap();
        let dir = tiered._temp_parent.as_ref().unwrap().0.clone();
        assert!(dir.exists());
        drop(tiered);
        assert!(!dir.exists(), "scratch dir cleaned up on drop");
    }

    #[test]
    fn a_failed_cold_compaction_still_applies_every_shard() {
        use crate::stored::tests::{compacting_batch, squat_compactions};

        let (cqap, pmtds, g, db, _) = fixture();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).unwrap();
        let dir = scratch_dir("half-applied-tiers");
        let mut tiered =
            TieredShardedIndex::from_sharded(sharded, &[ShardTier::Cold, ShardTier::Hot], &dir)
                .unwrap();
        let squats = squat_compactions(&dir.join("shard0"));
        let batch = compacting_batch(&db);
        assert!(tiered.apply_delta(&batch).is_err(), "the cold shard's compaction must fail");

        let mut after = db.clone();
        after.apply_delta(&batch).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 60, 47)
            .into_iter()
            .chain([(9_000, 9_300), (9_001, 9_300)])
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let check = |tiered: &TieredShardedIndex, when: &str| {
            for request in &requests {
                let expected = naive_answer(&cqap, &after, request).unwrap();
                assert_eq!(tiered.answer(request).unwrap(), expected, "{when}");
            }
        };
        check(&tiered, "after the failed compaction");
        assert!(tiered.apply_delta(&batch).unwrap().is_noop());
        check(&tiered, "after the retry");
        squats.iter().for_each(|tmp| std::fs::remove_dir(tmp).unwrap());
        drop(tiered);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn a_shared_hot_shard_refuses_a_delta_with_no_shard_changed() {
        let (cqap, pmtds, g, db, _) = fixture();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).unwrap();
        let held = Arc::clone(&sharded.shards()[1]);
        let mut tiered = TieredShardedIndex::from_sharded(
            sharded,
            &[ShardTier::Cold, ShardTier::Hot],
            scratch_dir("shared-test"),
        )
        .unwrap();

        // A fresh path through every relation from a start value on each
        // shard, plus deletes of existing tuples: both shards get a part.
        let mut requests: Vec<AccessRequest> = graph_pair_requests(&g, 20, 43)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let mut batch = DeltaBatch::new();
        for shard in 0..2 {
            let start = (50_000u64..)
                .find(|&a| tiered.spec().shard_of_value(a) == shard)
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
        let batch = batch.delete(routed.name(), victims);

        assert!(tiered.apply_delta(&batch).is_err());
        drop(held);
        for request in &requests {
            let expected = naive_answer(&cqap, &db, request).unwrap();
            assert_eq!(
                tiered.answer(request).unwrap(),
                expected,
                "after the refusal"
            );
        }

        tiered.apply_delta(&batch).unwrap();
        let mut after = db.clone();
        after.apply_delta(&batch).unwrap();
        for request in &requests {
            let expected = naive_answer(&cqap, &after, request).unwrap();
            assert_eq!(
                tiered.answer(request).unwrap(),
                expected,
                "after the re-apply"
            );
        }
    }

    #[test]
    fn a_shared_cold_shard_is_cloned_an_owned_one_moved_and_both_maintain() {
        use crate::stored::tests::compacting_batch;
        use cqap_obs::CounterId;

        let (cqap, pmtds, g, db, _) = fixture();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).unwrap();
        // Another holder keeps shard 0, so its spill clones; shard 1 is
        // only the sharded index's and is handed over whole.
        let held = Arc::clone(&sharded.shards()[0]);
        let held_counts: Vec<_> = held.support_counts().map(|(p, n, c)| (p, n, c.clone())).collect();
        let dir = scratch_dir("spill-paths");
        let mut tiered =
            TieredShardedIndex::from_sharded(sharded, &[ShardTier::Cold, ShardTier::Cold], &dir)
                .unwrap();
        let sink = MetricsSink::recording();
        tiered.set_metrics_sink(sink.clone()).unwrap();

        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 60, 53)
            .into_iter()
            .chain([(9_000, 9_300), (9_001, 9_300)])
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let check = |tiered: &TieredShardedIndex, db: &Database, when: &str| {
            for request in &requests {
                let expected = naive_answer(&cqap, db, request).unwrap();
                assert_eq!(tiered.answer(request).unwrap(), expected, "{when}");
            }
            let rebuilt = ShardedIndex::build(&cqap, db, &pmtds, 2).unwrap();
            for (shard, rebuilt) in tiered.shards.iter().zip(rebuilt.shards()) {
                let TierShard::Cold(stored) = shard else { panic!("both shards are cold") };
                assert!(stored.support_counts().eq(rebuilt.support_counts()), "{when}");
            }
        };
        check(&tiered, &db, "as spilled");
        assert!(tiered.observed_loads().iter().all(|&load| load > 0), "both shards answer");

        let batch = compacting_batch(&db);
        tiered.apply_delta(&batch).unwrap();
        assert!(sink.snapshot().unwrap().counter(CounterId::Compactions) > 0);
        let mut after = db.clone();
        after.apply_delta(&batch).unwrap();
        check(&tiered, &after, "after the compacting batch");
        // The clone left the other holder's shard as it was.
        assert!(held.support_counts().eq(held_counts.iter().map(|(p, n, c)| (*p, *n, c))));
        drop(tiered);
        let _ = std::fs::remove_dir(&dir);
    }
}
