//! The spilled state of a [`CqapIndex`](crate::CqapIndex): its S-views as
//! sorted-run files, one [`StoredViews`] per plan.
//!
//! A spilled index answers through the **same** compiled pipelines, with
//! the position-table probes replaced by fence-indexed segment reads that
//! return the same tuples, so the answers are identical (proptested in
//! `crates/shard/tests`) while the probed S-views' resident footprint
//! drops to the fence index and key filter — plus the support counts
//! every index keeps (`CqapIndex::resident_bytes` is the honest total).
//!
//! Those counts are the index's counted S-views — kept as they were when
//! spilled in place (a placed shard's spill), cloned exact-fit by
//! [`CqapIndex::spill`](crate::CqapIndex::spill) — the same `S`-sized
//! link-keyed tables a resident index probes, so a spilled index is
//! resident at the resident figure *plus* its fences and overlays, and a
//! view whose link is a proper part of its row carries its key chains
//! along (+8 B per row and the chain heads) though nothing spilled probes
//! them. That stands until the counts themselves move to disk (ROADMAP
//! open item 3(a)).

use std::path::{Path, PathBuf};

use cqap_common::{CqapError, Result};
use cqap_store::StoredViews;
use cqap_yannakakis::PreprocessedViews;

/// Per plan, its spilled S-views, and the directory they live in.
pub(crate) struct Spilled {
    pub(crate) plans: Vec<StoredViews>,
    // Declared last: removes the spill directory after the views above
    // have deleted their files.
    _dir: DirCleanup,
}

impl Spilled {
    /// Writes every plan's views under `dir` (created if missing) as
    /// `plan<i>_node<n>.sview` and opens them back; on failure the files
    /// written so far and a directory left empty are removed again.
    pub(crate) fn write(views: &[PreprocessedViews], dir: &Path) -> Result<Spilled> {
        std::fs::create_dir_all(dir).map_err(|e| {
            CqapError::Other(format!("cannot create spill dir {}: {e}", dir.display()))
        })?;
        let guard = DirCleanup(dir.to_path_buf());
        let plans = views
            .iter()
            .enumerate()
            .map(|(i, pre)| StoredViews::spill(pre, dir, &format!("plan{i}")))
            .collect::<Result<_>>()?;
        Ok(Spilled { plans, _dir: guard })
    }
}

/// Removes `dir` itself once the spilled files inside are gone (field
/// drop order deletes the views first). `remove_dir` is non-recursive, so
/// a caller-provided directory holding unrelated files is never destroyed.
struct DirCleanup(PathBuf);

impl Drop for DirCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.0);
    }
}

#[cfg(test)]
#[path = "../tests/support/compaction.rs"]
mod compaction;

#[cfg(test)]
mod tests {
    use cqap_common::Tuple;
    use cqap_decomp::families as pf;
    use cqap_decomp::Pmtd;
    use cqap_delta::{ApplyDelta, DeltaBatch};
    use cqap_query::workload::{graph_pair_requests, zipf_multi_requests, Graph};
    use cqap_query::{AccessRequest, Cqap};
    use cqap_relation::{Database, Relation};
    use cqap_store::scratch_dir;

    use super::compaction::{compacting_batch, squat_compactions};
    use crate::CqapIndex;

    fn fixture() -> (Cqap, Vec<Pmtd>, Graph, Database, CqapIndex) {
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(50, 220, 4, 30, 23);
        let db = g.as_path_database(3);
        let reference = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        (cqap, pmtds, g, db, reference)
    }

    #[test]
    fn stored_answers_equal_in_memory() {
        let (cqap, pmtds, g, db, reference) = fixture();
        let stored =
            CqapIndex::build(&cqap, &db, &pmtds).unwrap().spill(scratch_dir("stored")).unwrap();
        assert_eq!(stored.num_pmtds(), reference.num_pmtds());
        for (u, v) in graph_pair_requests(&g, 40, 29) {
            let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
            assert_eq!(
                stored.answer(&request).unwrap(),
                reference.answer(&request).unwrap(),
                "request ({u},{v})"
            );
        }
        for tuples in zipf_multi_requests(&g, 10, 6, 1.1, 31) {
            let tuples: Vec<Tuple> = tuples.into_iter().map(|(u, v)| Tuple::pair(u, v)).collect();
            let request = AccessRequest::new(cqap.access(), tuples).unwrap();
            assert_eq!(
                stored.answer(&request).unwrap(),
                reference.answer(&request).unwrap()
            );
        }
    }

    #[test]
    fn space_accounting_matches_the_source_index() {
        let (_cqap, _pmtds, _, _db, reference) = fixture();
        let dir = scratch_dir("accounting");
        let stored = reference.spill(&dir).unwrap();
        // The same intrinsic S on disk as in memory, and only the sparse
        // fence index resident.
        assert_eq!(stored.space_used(), reference.space_used());
        assert!(stored.disk_bytes() > 0);
        assert!(stored.resident_values() < stored.space_used());
        assert!(dir.exists());
        drop(stored);
        assert!(!dir.exists(), "spill dir cleaned up on drop");
    }

    #[test]
    fn empty_request_and_bad_requests_behave_like_the_reference() {
        let (cqap, pmtds, _, db, reference) = fixture();
        let stored =
            CqapIndex::build(&cqap, &db, &pmtds).unwrap().spill(scratch_dir("stored")).unwrap();
        let empty = AccessRequest::new(cqap.access(), Vec::new()).unwrap();
        assert_eq!(
            stored.answer(&empty).unwrap(),
            reference.answer(&empty).unwrap()
        );
        let wrong = AccessRequest::single(cqap_common::VarSet::from_iter([0, 1]), &[0, 1]).unwrap();
        assert!(stored.answer(&wrong).is_err());
        assert!(reference.answer(&wrong).is_err());
    }

    #[test]
    fn metrics_sink_counts_store_and_delta_activity() {
        use cqap_delta::{ApplyDelta, DeltaBatch};
        use cqap_obs::{CounterId, MetricsSink, StageId};

        let (cqap, pmtds, g, db, _) = fixture();
        let mut stored =
            CqapIndex::build(&cqap, &db, &pmtds).unwrap().spill(scratch_dir("stored")).unwrap();
        let sink = MetricsSink::recording();
        stored.set_metrics_sink(sink.clone());

        // Cold probes: every answered request reads fence segments.
        for (u, v) in graph_pair_requests(&g, 10, 29) {
            let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
            stored.answer(&request).unwrap();
        }
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter(CounterId::SegmentReads) > 0);
        assert!(
            snap.counter(CounterId::SegmentBytesRead) >= snap.counter(CounterId::SegmentReads),
            "every segment read is at least one byte"
        );
        assert_eq!(snap.counter(CounterId::OverlayPendingProbes), 0);

        // A fresh chain across the atoms (one new full-join row, so the
        // ΔS-views are non-empty): apply latency and net-op counters
        // land in the sink, and the views' overlays hold pending tuples.
        let mut batch = DeltaBatch::new();
        for (i, rel) in db.relations().iter().enumerate() {
            let base = 9_000 + i as u64;
            batch = batch.insert(rel.name().to_string(), vec![Tuple::pair(base, base + 1)]);
        }
        stored.apply_delta(&batch).unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.stage(StageId::DeltaApply).count, 1);
        assert_eq!(
            snap.counter(CounterId::DeltaNetInserts),
            db.relations().len() as u64
        );
        assert_eq!(snap.counter(CounterId::DeltaNetDeletes), 0);

        // Probes over the dirty overlay are counted…
        assert!(stored.overlay_len() > 0, "chain insert leaves pending overlay");
        let before = snap.counter(CounterId::OverlayPendingProbes);
        let request = AccessRequest::single(cqap.access(), &[9_000, 9_003]).unwrap();
        assert!(!stored.answer(&request).unwrap().is_empty());
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter(CounterId::OverlayPendingProbes) > before);
        // …and compaction folds them away, recording count and duration.
        stored.compact().unwrap();
        assert_eq!(stored.overlay_len(), 0);
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter(CounterId::Compactions) > 0);
        assert_eq!(
            snap.stage(StageId::Compaction).count,
            snap.counter(CounterId::Compactions)
        );
    }

    #[test]
    fn warm_stored_answers_with_live_sink_stay_allocation_free() {
        use cqap_obs::{CounterId, MetricsSink};

        // Satellite of the probe-only online phase: attaching a *live*
        // recording sink must not reintroduce dedup inserts or tuple
        // boxings on the warm cold-tier path — metrics recording is
        // atomic counters only. (Mirrors the in-memory test in
        // cqap-panda's compiled module.)
        let (cqap, pmtds, g, db, _) = fixture();
        let mut stored = CqapIndex::build(&cqap, &db, &pmtds[2..3])
            .unwrap()
            .spill(scratch_dir("stored"))
            .unwrap();
        let sink = MetricsSink::recording();
        stored.set_metrics_sink(sink.clone());
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 6, 17)
            .into_iter()
            .chain([(9_000, 9_003)])
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        // Expected answers (naive oracle) computed outside the counted
        // window, and one warm-up pass so every worker-thread segment
        // buffer has grown to its high-water mark.
        let expected: Vec<Relation> = requests
            .iter()
            .map(|r| cqap_yannakakis::naive_answer(&cqap, &db, r).unwrap())
            .collect();
        for r in &requests {
            stored.answer(r).unwrap();
        }

        let counted_pass = |stored: &CqapIndex, expected: &[Relation], when: &str| {
            let dedup_before = cqap_relation::instrument::dedup_inserts();
            let boxes_before = cqap_common::tuple::instrument::heap_boxings();
            let answers: Vec<Relation> =
                requests.iter().map(|r| stored.answer(r).unwrap()).collect();
            assert_eq!(
                cqap_relation::instrument::dedup_inserts(),
                dedup_before,
                "warm stored answering {when} must perform zero dedup inserts"
            );
            assert_eq!(
                cqap_common::tuple::instrument::heap_boxings(),
                boxes_before,
                "warm stored answering {when} must perform zero tuple boxings"
            );
            assert_eq!(answers, expected, "{when}");
        };
        counted_pass(&stored, &expected, "with a live sink");
        // The sink really was live for the counted window: every probe
        // is a segment read or a key-filter negative.
        let snap = sink.snapshot().unwrap();
        let probes = snap.counter(CounterId::SegmentReads) + snap.counter(CounterId::FilterNegatives);
        assert!(probes >= 2 * requests.len() as u64);

        // Again under a pending overlay — tombstones over the base run
        // and inserts beside it — which probes merge without boxing.
        let dropped = db.relation("R1").unwrap().tuples().iter().step_by(25).cloned().collect();
        let batch = DeltaBatch::new()
            .insert("R1", vec![Tuple::pair(9_000, 9_001)])
            .insert("R2", vec![Tuple::pair(9_001, 9_002)])
            .insert("R3", vec![Tuple::pair(9_002, 9_003)])
            .delete("R1", dropped);
        stored.apply_delta(&batch).unwrap();
        assert!(stored.overlay_len() > 0, "the delta stays pending");
        let expected: Vec<Relation> = requests
            .iter()
            .map(|r| cqap_yannakakis::naive_answer(&cqap, stored.database(), r).unwrap())
            .collect();
        for r in &requests {
            stored.answer(r).unwrap();
        }
        let pending_before = sink.snapshot().unwrap().counter(CounterId::OverlayPendingProbes);
        counted_pass(&stored, &expected, "under a pending overlay");
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter(CounterId::OverlayPendingProbes) > pending_before);
    }

    #[test]
    fn a_failed_compaction_still_applies_the_whole_batch_to_every_view() {
        use cqap_yannakakis::naive_answer;

        let (cqap, _, g, db, reference) = fixture();
        let dir = scratch_dir("half-applied");
        let mut stored = reference.spill(&dir).unwrap();
        let squats = squat_compactions(&dir);
        let batch = compacting_batch(&db);
        assert!(stored.apply_delta(&batch).is_err(), "a due compaction must hit a squat");
        assert!(stored.overlay_len() > 0, "the failed view keeps its overlay");

        let mut after = db.clone();
        after.apply_delta(&batch).unwrap();
        let mut requests: Vec<AccessRequest> = graph_pair_requests(&g, 60, 47)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        requests.push(AccessRequest::single(cqap.access(), &[9_000, 9_300]).unwrap());
        let check = |stored: &CqapIndex, when: &str| {
            for request in &requests {
                let expected = naive_answer(&cqap, &after, request).unwrap();
                assert_eq!(stored.answer(request).unwrap(), expected, "{when}");
            }
        };
        check(&stored, "after the failed compaction");
        // Every view already absorbed the batch: the retry changes nothing.
        assert!(stored.apply_delta(&batch).unwrap().is_noop());
        check(&stored, "after the retry");
        // Once the squats clear, the pending overlays compact cleanly.
        squats.iter().for_each(|tmp| std::fs::remove_dir(tmp).unwrap());
        stored.compact().unwrap();
        assert_eq!(stored.overlay_len(), 0);
        check(&stored, "after compaction");
    }

    #[test]
    fn stored_index_is_shareable_across_threads() {
        let (cqap, pmtds, g, db, reference) = fixture();
        let stored =
            CqapIndex::build(&cqap, &db, &pmtds).unwrap().spill(scratch_dir("stored")).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 30, 41)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let expected: Vec<Relation> = requests
            .iter()
            .map(|r| reference.answer(r).unwrap())
            .collect();
        // Four threads share the one spilled index.
        let answers: Vec<Relation> = std::thread::scope(|scope| {
            let stored = &stored;
            let workers: Vec<_> = requests
                .chunks(requests.len().div_ceil(4))
                .map(|part| {
                    let answer = move |r| stored.answer(r).unwrap();
                    scope.spawn(move || part.iter().map(answer).collect::<Vec<_>>())
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(answers, expected);
    }
}
