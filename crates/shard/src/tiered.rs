//! Hot/cold placement: where each shard's `S` lives.
//!
//! A `ShardedIndex` shard is one `CqapIndex`, resident (**hot**:
//! hash probes) or spilled to disk (**cold**: fence-indexed segment
//! reads). Since both answer identically — the storage changes *where*
//! S-view probes are served, never *what* they return — a deployment
//! keeps the shard contract's exactness at any tier split: answers are
//! bit-for-bit the unsharded reference.
//!
//! Placement is driven by [`PlacementPolicy`]: a per-deployment byte
//! budget for the hot tier plus observed per-shard request frequency.
//! Hottest shards are kept in memory first; whatever exceeds the budget
//! pays disk reads (`ShardedIndex::from_sharded` spills them). That is
//! the paper's space/time tradeoff made physical: `S` resident buys probe
//! latency, and `ShardedIndex::space_used` reports it per tier
//! ([`TieredSpace`]). `perf/`'s `cold_store` (both shards cold) and
//! `delta_mix` (`[Hot, Cold]`) measure two points on this axis.

use std::cmp::Reverse;

use cqap_query::AccessRequest;

use crate::ShardSpec;

/// Where one shard's index lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardTier {
    /// In memory: a resident `CqapIndex`, hash-probed.
    Hot,
    /// On disk: a spilled `CqapIndex`, fence-probed.
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
    /// sample, or by
    /// [`ShardedIndex::observed_loads`](crate::ShardedIndex::observed_loads)
    /// from a live deployment.
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

/// Per-tier space breakdown of a [`ShardedIndex`](crate::ShardedIndex) —
/// the "space" axis of the tradeoff, split by where it is actually paid.
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
    /// [`ShardedIndex::resident_bytes`](crate::ShardedIndex::resident_bytes).
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

#[cfg(test)]
#[path = "../../panda/tests/support/compaction.rs"]
mod compaction;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ShardedIndex;
    use cqap_common::Tuple;
    use cqap_decomp::families as pf;
    use cqap_decomp::Pmtd;
    use cqap_delta::{ApplyDelta, DeltaBatch};
    use cqap_obs::{GaugeId, MetricsSink};
    use cqap_panda::CqapIndex;
    use cqap_query::workload::{graph_pair_requests, zipf_multi_requests, Graph};
    use cqap_query::Cqap;
    use cqap_relation::Database;
    use cqap_store::scratch_dir;
    use cqap_yannakakis::naive_answer;

    /// `k` shards placed by `policy`, the cold ones spilled under a fresh
    /// scratch directory.
    fn build_placed(
        cqap: &Cqap,
        db: &Database,
        pmtds: &[Pmtd],
        shards: usize,
        policy: &PlacementPolicy,
    ) -> ShardedIndex {
        let sharded = ShardedIndex::build(cqap, db, pmtds, shards).unwrap();
        let placement = sharded.replan(policy);
        ShardedIndex::from_sharded(sharded, &placement, scratch_dir("tiered")).unwrap()
    }

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
            let tiered = ShardedIndex::from_sharded(
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
        let tiered = build_placed(&cqap, &db, &pmtds, 2, &policy);
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
        let mut tiered = build_placed(&cqap, &db, &pmtds, 2, &policy);
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
        let mut tiered = build_placed(&cqap, &db, &pmtds, 2, &policy);
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
        assert!(ShardedIndex::from_sharded(
            sharded,
            &[ShardTier::Hot],
            scratch_dir("arity-test")
        )
        .is_err());

        let dir = scratch_dir("tiered");
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).unwrap();
        let tiered = ShardedIndex::from_sharded(sharded, &[ShardTier::Cold; 2], &dir).unwrap();
        let shard_dirs = [dir.join("shard0"), dir.join("shard1")];
        assert!(shard_dirs.iter().all(|d| d.exists()));
        // A spilled shard cannot be placed hot; the refused index drops.
        assert!(ShardedIndex::from_sharded(tiered, &[ShardTier::Hot; 2], &dir).is_err());
        assert!(!shard_dirs.iter().any(|d| d.exists()), "spill dirs cleaned up on drop");
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn a_failed_cold_compaction_still_applies_every_shard() {
        use super::compaction::{compacting_batch, squat_compactions};

        let (cqap, pmtds, g, db, _) = fixture();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).unwrap();
        let dir = scratch_dir("half-applied-tiers");
        let mut tiered =
            ShardedIndex::from_sharded(sharded, &[ShardTier::Cold, ShardTier::Hot], &dir)
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
        let check = |tiered: &ShardedIndex, when: &str| {
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
        let mut tiered = ShardedIndex::from_sharded(
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
        use super::compaction::compacting_batch;
        use cqap_obs::CounterId;

        let (cqap, pmtds, g, db, _) = fixture();
        let sharded = ShardedIndex::build(&cqap, &db, &pmtds, 2).unwrap();
        // Another holder keeps shard 0, so its spill clones; shard 1 is
        // only the sharded index's and is handed over whole.
        let held = Arc::clone(&sharded.shards()[0]);
        let held_counts: Vec<_> = held.support_counts().map(|(p, n, c)| (p, n, c.clone())).collect();
        let dir = scratch_dir("spill-paths");
        let mut tiered =
            ShardedIndex::from_sharded(sharded, &[ShardTier::Cold, ShardTier::Cold], &dir)
                .unwrap();
        let sink = MetricsSink::recording();
        tiered.set_metrics_sink(sink.clone()).unwrap();

        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 60, 53)
            .into_iter()
            .chain([(9_000, 9_300), (9_001, 9_300)])
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let check = |tiered: &ShardedIndex, db: &Database, when: &str| {
            for request in &requests {
                let expected = naive_answer(&cqap, db, request).unwrap();
                assert_eq!(tiered.answer(request).unwrap(), expected, "{when}");
            }
            let rebuilt = ShardedIndex::build(&cqap, db, &pmtds, 2).unwrap();
            for (shard, rebuilt) in tiered.shards().iter().zip(rebuilt.shards()) {
                assert!(shard.is_spilled(), "both shards are cold");
                assert!(shard.support_counts().eq(rebuilt.support_counts()), "{when}");
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
