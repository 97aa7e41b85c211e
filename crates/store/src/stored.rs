//! [`StoredIndex`]: the framework driver answering from disk-resident
//! S-views.
//!
//! A `StoredIndex` is built from the **same preprocessing output** as an
//! in-memory [`CqapIndex`] — each plan's semijoin-reduced, link-keyed
//! S-views are spilled to one sorted-run file per view (see
//! [`crate::format`]) — and answers through the **same online phase**
//! (the compiled columnar engine, the very `CompiledPmtd` pipelines of the
//! source index), with the position-table probes replaced by fence-indexed
//! segment reads. Because every probe returns the same
//! tuples, the answers are identical to the in-memory index (the
//! equivalence proptest in `crates/store/tests` enforces this bit for
//! bit), while the resident footprint of the probed S-views drops to the
//! fence index and key filter — plus the support counts every maintenance lineage keeps
//! ([`StoredIndex::resident_bytes`] is the honest total).
//!
//! Those counts are the source index's counted S-views — moved over when
//! the source is given up (a tiered index's cold shard,
//! [`StoredIndex::build`]), cloned exact-fit by [`StoredIndex::spill`] —
//! the same `S`-sized link-keyed tables the hot index probes, so a cold
//! lineage is resident at the hot figure *plus* its fences and overlays,
//! and a view whose link is a proper part of its row carries its key
//! chains along (+8 B per row and the chain heads) though nothing cold
//! probes them. That stands until the counts themselves
//! move to disk (ROADMAP open item 4(b)).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cqap_common::{CqapError, Result, Tuple, Val};
use cqap_decomp::Pmtd;
use cqap_delta::{ApplyDelta, DeltaBatch, DeltaStats};
use cqap_panda::{CqapIndex, DeltaMaintenance};
use cqap_query::{AccessRequest, Cqap};
use cqap_relation::{Database, KeyedRows, Relation, Schema};
use cqap_serve::BatchAnswer;
use cqap_yannakakis::{PreprocessedViews, SViewProbe};

use crate::format::{write_run, StoredView};

/// Counter for unique scratch-directory names within one process.
static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A fresh, process-unique directory path under the system temp dir (not
/// yet created). Used by the `*_in_temp` constructors, the benches and the
/// tests.
pub fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cqap-store-{tag}-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Removes `dir` itself once the spilled files inside are gone. Declared
/// *after* the views in every owning struct, so Rust's field drop order
/// (declaration order) deletes the files first and then the — by then
/// empty — directory. `remove_dir` is non-recursive, so a caller-provided
/// directory holding unrelated files is never destroyed.
struct DirCleanup(PathBuf);

impl Drop for DirCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.0);
    }
}

/// The disk-resident S-views of one PMTD plan, implementing the
/// [`SViewProbe`] seam of the online phase.
pub struct StoredViews {
    views: Vec<Option<StoredView>>,
}

impl StoredViews {
    /// Spills every materialized view of `pre` to `<dir>/<prefix>_node<n>.sview`
    /// — streamed from the resident rows, no row relation in between —
    /// and opens the files back as fence-indexed stored views (which own
    /// and delete the files when dropped).
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn spill(
        pre: &PreprocessedViews,
        dir: &Path,
        prefix: &str,
    ) -> Result<StoredViews> {
        let mut views: Vec<Option<StoredView>> = Vec::new();
        for (node, run) in pre.runs() {
            let path = dir.join(format!("{prefix}_node{node}.sview"));
            write_run(&path, run)?;
            let mut view = StoredView::open(&path)?;
            view.delete_on_drop();
            if views.len() <= node {
                views.resize_with(node + 1, || None);
            }
            views[node] = Some(view);
        }
        Ok(StoredViews { views })
    }

    fn view(&self, node: usize) -> Result<&StoredView> {
        self.views
            .get(node)
            .and_then(|v| v.as_ref())
            .ok_or_else(|| {
                CqapError::InvalidPmtd(format!("S-view {node} was not spilled"))
            })
    }

    /// Stored values across all views (the intrinsic `S`, now on disk).
    pub fn stored_values(&self) -> usize {
        self.views.iter().flatten().map(StoredView::stored_values).sum()
    }

    /// Total bytes on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.views.iter().flatten().map(StoredView::disk_bytes).sum()
    }

    /// Values resident in RAM (the fence indexes plus any delta overlays).
    pub fn resident_values(&self) -> usize {
        self.views.iter().flatten().map(StoredView::resident_values).sum()
    }

    /// Heap bytes resident in RAM for the views (see
    /// [`StoredView::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.views.iter().flatten().map(StoredView::resident_bytes).sum()
    }

    /// Absorbs one row that entered or left `node`'s view into its delta
    /// overlay ([`StoredView::edit_row`]); compaction waits for
    /// [`StoredViews::compact_due`].
    pub(crate) fn edit_row(&mut self, node: usize, row: &[Val], entered: bool) {
        self.views[node].as_mut().expect("every counted view is spilled").edit_row(row, entered);
    }

    /// Compacts every view whose overlay outgrew a quarter of its base
    /// run; all are tried, and the first error is returned.
    pub(crate) fn compact_due(&mut self) -> Result<()> {
        self.views.iter_mut().flatten().map(StoredView::compact_if_due).fold(Ok(()), Result::and)
    }

    /// Forces every view with a pending overlay to compact into a fresh
    /// validated run (see [`StoredView::compact`]).
    ///
    /// # Errors
    /// Fails on compaction I/O errors.
    pub fn compact(&mut self) -> Result<()> {
        for view in self.views.iter_mut().flatten() {
            view.compact()?;
        }
        Ok(())
    }

    /// Delta tuples buffered across all views' overlays — zero after
    /// [`StoredViews::compact`].
    pub fn overlay_len(&self) -> usize {
        self.views.iter().flatten().map(StoredView::overlay_len).sum()
    }

    /// Attaches a metrics sink to every stored view (see
    /// [`StoredView::set_metrics_sink`]).
    pub fn set_metrics_sink(&mut self, sink: &cqap_obs::MetricsSink) {
        for view in self.views.iter_mut().flatten() {
            view.set_metrics_sink(sink.clone());
        }
    }
}

impl SViewProbe for StoredViews {
    fn schema(&self, node: usize) -> Option<&Schema> {
        self.views.get(node).and_then(|v| v.as_ref()).map(StoredView::schema)
    }

    /// Probes decode the matching segment block straight into the caller's
    /// column runs — the cold tier's bytes reach the executor without any
    /// intermediate `Tuple` boxing.
    fn probe_columns(
        &self,
        node: usize,
        key: &Tuple,
        out: &mut cqap_yannakakis::ColumnRun,
    ) -> Result<()> {
        self.view(node)?.probe_columns(key, out)
    }

    /// Semijoin probes walk the segment's keys only — no tuple block is
    /// decoded, no output vector is built.
    fn contains(&self, node: usize, key: &Tuple) -> Result<bool> {
        self.view(node)?.contains_key(key)
    }
}

/// A CQAP index whose S-views live on disk: same preprocessing content,
/// same online algorithm, answers identical to [`CqapIndex`] — but the
/// space budget `S` is spent on the cold tier. What stays resident is the
/// fence indexes, key filters and pending delta overlays of the views,
/// this lineage's support counts (the source's counted S-views: one 4-byte
/// count per stored view row on top of a compact copy of the row — what
/// keeps `apply_delta` proportional to the delta without reading the runs
/// back), and the `O(|D|)` state every backend keeps: the input database
/// and the atom indexes.
/// [`StoredIndex::resident_bytes`] adds up the `S`-proportional part.
pub struct StoredIndex {
    cqap: Cqap,
    db: Database,
    /// Per plan, its spilled S-views.
    plans: Vec<StoredViews>,
    /// The compiled pipelines, `Arc`-shared with the source index: the
    /// disk backend executes the *same* compiled plans as the in-memory
    /// one — only the probes behind `SViewProbe` change.
    compiled: Vec<std::sync::Arc<cqap_panda::CompiledPmtd>>,
    /// Plan positions in the order [`StoredIndex::answer`] unions them
    /// ([`cqap_panda::union_order`]), fixed at spill.
    order: Vec<usize>,
    /// This lineage's support counts, per plan: the source index's
    /// counted S-views, moved or cloned at spill time, edited by
    /// `maintenance` and never probed (counted in
    /// [`StoredIndex::resident_bytes`]).
    counts: Vec<PreprocessedViews>,
    /// This backend's own maintenance lineage (moved or cloned from the
    /// source index at spill time): compiled delta plans and the atom
    /// indexes the pipelines above probe — a clone shares them with the
    /// source by `Arc`, so they exist once per deployment until either
    /// side applies a delta and its touched indexes diverge
    /// copy-on-write. (Like the retained database, the atom indexes are
    /// `O(|D|)` state outside the S-accounting.)
    maintenance: DeltaMaintenance,
    // Declared last: removes the spill directory after the views above
    // have deleted their files.
    _dir: DirCleanup,
}

impl StoredIndex {
    /// Spills an existing in-memory index: every plan's preprocessed
    /// S-views are written to sorted-run files under `dir` (created if
    /// missing). The returned index owns the files — they are deleted when
    /// it drops, and `dir` itself is removed if that leaves it empty.
    ///
    /// `index` stays as it was: its parts are cloned (the counts
    /// exact-fit) and spilled by the path a tiered index's owned cold
    /// shard takes without the clone.
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn spill(index: &CqapIndex, dir: impl AsRef<Path>) -> Result<StoredIndex> {
        let parts = (
            index.cqap().clone(),
            index.database().clone(),
            index.compiled().cloned().collect(),
            index.plans().map(|(_, pre)| pre.clone()).collect(),
            index.maintenance().clone(),
        );
        StoredIndex::spill_parts(parts, dir.as_ref())
    }

    /// The one spill path: writes every plan's views under `dir` and
    /// keeps the parts of an index ([`CqapIndex::into_parts`], or their
    /// clones) as this lineage's own — the counted S-views become its
    /// support counts, so parts handed over are never copied.
    pub(crate) fn spill_parts(
        (cqap, db, compiled, counts, maintenance): (
            Cqap,
            Database,
            Vec<std::sync::Arc<cqap_panda::CompiledPmtd>>,
            Vec<PreprocessedViews>,
            DeltaMaintenance,
        ),
        dir: &Path,
    ) -> Result<StoredIndex> {
        std::fs::create_dir_all(dir).map_err(|e| {
            CqapError::Other(format!("cannot create spill dir {}: {e}", dir.display()))
        })?;
        let plans = counts
            .iter()
            .enumerate()
            .map(|(i, pre)| StoredViews::spill(pre, dir, &format!("plan{i}")))
            .collect::<Result<_>>()?;
        let order = cqap_panda::union_order(compiled.iter().map(AsRef::as_ref));
        Ok(StoredIndex {
            cqap,
            db,
            plans,
            compiled,
            order,
            counts,
            maintenance,
            _dir: DirCleanup(dir.to_path_buf()),
        })
    }

    /// Runs the full preprocessing phase and spills the result: equivalent
    /// to `CqapIndex::build` followed by [`StoredIndex::spill`], except
    /// that the built index is handed over rather than cloned: its
    /// counted S-views become the lineage's support counts.
    ///
    /// # Errors
    /// Propagates build failures (mismatched PMTDs, empty PMTD set) and
    /// I/O errors.
    pub fn build(
        cqap: &Cqap,
        db: &Database,
        pmtds: &[Pmtd],
        dir: impl AsRef<Path>,
    ) -> Result<StoredIndex> {
        StoredIndex::spill_parts(CqapIndex::build(cqap, db, pmtds)?.into_parts(), dir.as_ref())
    }

    /// [`StoredIndex::build`] into a fresh process-unique directory under
    /// the system temp dir (removed again when the index drops).
    ///
    /// # Errors
    /// Same failure modes as [`StoredIndex::build`].
    pub fn build_in_temp(cqap: &Cqap, db: &Database, pmtds: &[Pmtd]) -> Result<StoredIndex> {
        StoredIndex::build(cqap, db, pmtds, scratch_dir("stored"))
    }

    /// The CQAP this index answers.
    pub fn cqap(&self) -> &Cqap {
        &self.cqap
    }

    /// The retained input database (maintained in place by
    /// [`ApplyDelta::apply_delta`]; the online phase computes T-views from
    /// it, and sharded owners read relation schemas off it when routing
    /// delta tuples).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The delta-maintenance state (compiled delta plans, live atom
    /// indexes), mirroring [`CqapIndex::maintenance`].
    pub fn maintenance(&self) -> &DeltaMaintenance {
        &self.maintenance
    }

    /// Iterates `(plan, node, support counts)` over every materialized
    /// node, mirroring [`CqapIndex::support_counts`].
    pub fn support_counts(&self) -> impl Iterator<Item = (usize, usize, &KeyedRows)> + '_ {
        self.counts.iter().enumerate().flat_map(|(plan, counts)| {
            counts.runs().map(move |(node, counts)| (plan, node, counts))
        })
    }

    /// Forces every spilled view with a pending delta overlay to compact:
    /// the merged run is written to a temp file, re-validated, and renamed
    /// over the base (see [`StoredView::compact`](crate::format::StoredView::compact)).
    /// Normally compaction triggers itself by overlay size; this is the
    /// explicit hook for tests and maintenance windows.
    ///
    /// # Errors
    /// Fails on compaction I/O errors.
    pub fn compact(&mut self) -> Result<()> {
        for views in &mut self.plans {
            views.compact()?;
        }
        Ok(())
    }

    /// Delta tuples buffered across all views' overlays.
    pub fn overlay_len(&self) -> usize {
        self.plans.iter().map(StoredViews::overlay_len).sum()
    }

    /// Attaches a metrics sink to the whole disk tier: every stored view
    /// (segment reads/bytes, overlay probes, compactions) and this
    /// backend's delta maintenance (apply latency, net ops).
    pub fn set_metrics_sink(&mut self, sink: cqap_obs::MetricsSink) {
        for views in &mut self.plans {
            views.set_metrics_sink(&sink);
        }
        self.maintenance.set_metrics_sink(sink);
    }

    /// Number of PMTDs in the plan set.
    pub fn num_pmtds(&self) -> usize {
        self.plans.len()
    }

    /// The intrinsic space cost (stored values across all S-views) — the
    /// same measure as [`CqapIndex::space_used`], so a spilled index
    /// reports the same `S` as its in-memory source.
    pub fn space_used(&self) -> usize {
        self.plans.iter().map(StoredViews::stored_values).sum()
    }

    /// Bytes the S-views occupy on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.plans.iter().map(StoredViews::disk_bytes).sum()
    }

    /// View values resident in RAM for probing: the sparse fence indexes
    /// plus any pending delta overlays. This is the *S-view* share of the
    /// cold tier's memory in the paper's unit; the bytes the tier really
    /// holds, support counts included, are
    /// [`StoredIndex::resident_bytes`].
    pub fn resident_values(&self) -> usize {
        self.plans.iter().map(StoredViews::resident_values).sum()
    }

    /// Heap bytes this cold lineage keeps resident for its `S`: the
    /// views' fence indexes, key filters and overlays plus the lineage's
    /// support counts, from container capacities — the cold sibling of
    /// [`CqapIndex::resident_bytes`], excluding the same `O(|D|)` state.
    pub fn resident_bytes(&self) -> usize {
        let views: usize = self.plans.iter().map(StoredViews::resident_bytes).sum();
        let counts: usize = self.counts.iter().map(PreprocessedViews::resident_bytes).sum();
        views + counts
    }

    /// Online phase: identical to [`CqapIndex::answer`] — literally the
    /// same compiled columnar driver loop
    /// ([`cqap_panda::answer_with_compiled`]) executing the same
    /// [`cqap_panda::CompiledPmtd`] pipelines in the same
    /// [`cqap_panda::union_order`], fewest T-views first, under the same
    /// stop rule (a CQAP Boolean given its access pattern ends the union
    /// at the first plan after which it holds every binding of the
    /// request) — with every S-view probe served from disk, decoded
    /// column-directly out of the segment reads.
    ///
    /// # Errors
    /// The same validation failures as the in-memory driver, plus I/O
    /// errors from the cold tier.
    pub fn answer(&self, request: &AccessRequest) -> Result<Relation> {
        cqap_panda::answer_with_compiled(
            &self.cqap,
            self.maintenance.atom_indexes(),
            self.order.iter().map(|&i| (self.compiled[i].as_ref(), &self.plans[i])),
            request,
        )
    }
}

/// Incremental maintenance of the disk tier: this backend's own
/// [`DeltaMaintenance`] lineage streams each moved view row from the count
/// edit straight into its view's LSM-style overlay. Compaction runs only
/// once every view has absorbed the batch, so a failed one leaves no view
/// behind: the index answers the post-delta database and re-applying the
/// batch is a no-op. The compiled pipelines fold no database content, so
/// rebuild equivalence holds at any overlay state. A net no-op moves no
/// row and compacts nothing.
impl ApplyDelta for StoredIndex {
    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaStats> {
        let plans = &mut self.plans;
        let overlay = &mut |plan: usize, node, row: &[Val], entered| {
            plans[plan].edit_row(node, row, entered);
        };
        let (cqap, db, counts) = (&self.cqap, &mut self.db, &mut self.counts);
        let stats = self.maintenance.apply(cqap, db, counts, batch, overlay)?;
        if !stats.is_noop() {
            self.plans.iter_mut().map(StoredViews::compact_due).fold(Ok(()), Result::and)?;
        }
        Ok(stats)
    }
}

/// The disk backend serves through the same one-trait API as every other
/// structure — a `StoredIndex` drops into `ServeRuntime`, the benches and
/// the examples exactly like the in-memory driver.
impl BatchAnswer for StoredIndex {
    type Request = AccessRequest;
    type Answer = Relation;

    fn answer_one(&self, request: &Self::Request) -> Result<Self::Answer> {
        self.answer(request)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cqap_decomp::families as pf;
    use cqap_query::workload::{graph_pair_requests, zipf_multi_requests, Graph};

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
        let stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds).unwrap();
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
        let stored = StoredIndex::spill(&reference, &dir).unwrap();
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
        let stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds).unwrap();
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
        let mut stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds).unwrap();
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
        let mut stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds[2..3]).unwrap();
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

        let counted_pass = |stored: &StoredIndex, expected: &[Relation], when: &str| {
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

    /// The cold tier's count contract, exact and repeatable: over a fixed
    /// request set on the S14 plan (one probe of its one view per
    /// request), every probe is a segment read or a key-filter negative,
    /// and the reads are the requests whose key the run holds plus false
    /// positives on at most 3 % of the rest. A filter that always answers
    /// "maybe" reads a segment for every request and fails it.
    #[test]
    fn cold_probes_read_segments_only_for_held_keys_and_false_positives() {
        use cqap_obs::{CounterId, MetricsSink};

        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(600, 3_600, 8, 220, 7);
        let db = g.as_path_database(3);
        let mut stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds[2..3]).unwrap();
        let sink = MetricsSink::recording();
        stored.set_metrics_sink(sink.clone());
        let pairs = graph_pair_requests(&g, 3_000, 41);
        let requests: Vec<AccessRequest> = pairs
            .iter()
            .map(|&(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        // The run's keys, from the support counts it was spilled with.
        let held = {
            let mut views = stored.support_counts();
            let (_, _, s14) = views.next().expect("the S14 plan materializes S14");
            assert!(views.next().is_none(), "S14 is the plan's one view");
            pairs.iter().filter(|&&(u, v)| s14.contains_key(&[u, v])).count() as u64
        };
        let absent = requests.len() as u64 - held;
        assert!(held > 0 && absent > held, "{held} held of {}", requests.len());

        // (segment reads, filter negatives) of one pass over the requests.
        let pass = |stored: &StoredIndex| {
            let before = sink.snapshot().unwrap();
            for request in &requests {
                stored.answer(request).unwrap();
            }
            let counted = sink.snapshot().unwrap().delta(&before);
            let reads = counted.counter(CounterId::SegmentReads);
            let negatives = counted.counter(CounterId::FilterNegatives);
            assert_eq!(reads + negatives, requests.len() as u64, "one probe per request");
            (reads, negatives)
        };
        let within_contract = |reads: u64| reads >= held && (reads - held) * 100 <= 3 * absent;

        let (reads, negatives) = pass(&stored);
        assert!(within_contract(reads), "{reads} reads for {held} held keys of {}", requests.len());
        assert_eq!(pass(&stored), (reads, negatives), "the count is repeatable");

        for plan in &mut stored.plans {
            plan.views.iter_mut().flatten().for_each(StoredView::saturate_filter);
        }
        let (reads, negatives) = pass(&stored);
        assert_eq!((reads, negatives), (requests.len() as u64, 0));
        assert!(!within_contract(reads), "an always-maybe filter breaks the contract");
    }

    /// A batch that makes the `S13` view of the fixture outgrow its
    /// compaction trigger (a 40 × 40 fan of fresh `(x1, x3)` pairs) and
    /// drops every third `R1` edge, so every view also loses rows.
    pub(crate) fn compacting_batch(db: &Database) -> DeltaBatch {
        let fan = |from: u64, to: u64, n: u64, out: bool| -> Vec<Tuple> {
            (0..n)
                .map(|i| if out { Tuple::pair(from, to + i) } else { Tuple::pair(from + i, to) })
                .collect()
        };
        let dropped = db.relation("R1").unwrap().tuples().iter().step_by(3).cloned().collect();
        DeltaBatch::new()
            .insert("R1", fan(9_000, 9_100, 40, false))
            .insert("R2", fan(9_100, 9_200, 40, true))
            .insert("R3", fan(9_200, 9_300, 40, false))
            .delete("R1", dropped)
    }

    /// A directory squatting on the compaction temp path of every spilled
    /// view under `dir`, so each compaction fails before writing a byte.
    pub(crate) fn squat_compactions(dir: &Path) -> Vec<PathBuf> {
        let runs = std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path());
        let squats: Vec<PathBuf> = runs
            .filter(|path| path.extension().is_some_and(|ext| ext == "sview"))
            .map(|path| path.with_extension("tmp"))
            .collect();
        squats.iter().for_each(|tmp| std::fs::create_dir(tmp).unwrap());
        squats
    }

    #[test]
    fn a_failed_compaction_still_applies_the_whole_batch_to_every_view() {
        use cqap_yannakakis::naive_answer;

        let (cqap, _, g, db, reference) = fixture();
        let dir = scratch_dir("half-applied");
        let mut stored = StoredIndex::spill(&reference, &dir).unwrap();
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
        let check = |stored: &StoredIndex, when: &str| {
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
        let stored = StoredIndex::build_in_temp(&cqap, &db, &pmtds).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 30, 41)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let expected: Vec<Relation> = requests
            .iter()
            .map(|r| reference.answer(r).unwrap())
            .collect();
        let answers = cqap_serve::answer_batch_parallel(&stored, &requests, 4).unwrap();
        assert_eq!(answers, expected);
    }
}
