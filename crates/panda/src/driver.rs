//! An executable instantiation of the general framework (Sections 4.2–4.3).
//!
//! [`CqapIndex`] is the "reference engine" for the framework: given a CQAP,
//! a database and a set of PMTDs, the preprocessing phase picks the one
//! PMTD the index answers with and materializes its S-views (as
//! semijoin-reduced projections of the full join, which is exactly the
//! content the paper's preprocessing phase guarantees after its final
//! semijoin-reduce step) and indexes them for Online Yannakakis. The full
//! join itself is never held: the build is delta maintenance from empty
//! (`DeltaMaintenance::build`), which streams it through the crate's one
//! join chain into the index's counted S-views — the tables the online
//! phase probes are the support-count tables a delta edits, so `S` is
//! resident once. The online phase computes that plan's T-views for the
//! incoming access request — joining only the atoms of each
//! non-materialized bag, restricted by the request, through the same
//! chain — and runs Online Yannakakis over them and the plan's S-views.
//! The oracle's join (`naive::full_join`) is left to the oracle,
//! `naive_answer`, which every answer here is tested against.
//!
//! *Why one plan is built.* The paper (§4.2–4.3) hands each PMTD its own
//! share of the sub-instances, materializes S-views only over those and
//! unions the per-PMTD answers. An index built from a PMTD set has no
//! space budget (`S = ∞`), and at `S = ∞` every sub-instance goes to the
//! PMTD with the least online time, so the others store nothing. Here that
//! PMTD is the one with the fewest non-materialized bags (the fewest
//! T-views to join per request; the first on a tie): `(S14)` for Figure 1,
//! `(S13)` for 2-reachability. It is a free-connex tree decomposition with
//! the access variables `A ⊆ χ(root)`; its S-views are projections `π(J)`
//! of the full join over the index's database, and its T-views are joined
//! over the same database, so Online Yannakakis on it alone returns
//! `Q_A(db)` whole. The index builds, maintains and spills that plan only;
//! the other PMTDs of the set are checked against the CQAP and dropped.
//! The equivalence matrix still builds each PMTD of a set alone (its
//! per-PMTD cells) and holds it to `naive_answer` in every phase. The one
//! union left is the one over the shards and parts of a deployment
//! (`ShardedIndex::answer`), whose databases differ.
//!
//! The engine is *correct for every CQAP and PMTD set* and its space usage
//! is exactly the S-view sizes; its online time is not always the optimum
//! the 2PP analysis promises (that requires the per-rule heavy/light
//! splitting implemented by `cqap-bench`'s hand-written structures),
//! which is precisely the gap the benchmarks quantify. One part of that
//! gap is closed online: a T-view under a T-parent is expanded from the
//! parent's link keys when exact first-step fan-outs say that is cheaper
//! than expanding from the request (`compiled.rs`, "Two seeds"), so a hub
//! request no longer enumerates every 2-path out of the hub to filter a
//! handful of parent rows. That is a per-request choice between two
//! seeds over the *whole* database — the shadow of the paper's partition
//! into heavy and light sub-instances, not the partition.

use std::path::Path;
use std::sync::Arc;

use cqap_common::{CqapError, Result, Val};
use cqap_decomp::Pmtd;
use cqap_delta::{ApplyDelta, DeltaBatch, DeltaStats};
use cqap_query::{AccessRequest, Cqap};
use cqap_relation::{Database, KeyedRows, Relation};
use cqap_store::StoredView;
use cqap_yannakakis::{OnlineYannakakis, PreprocessedViews};

use crate::compiled::{with_driver_scratch, CompiledPmtd};
use crate::delta::DeltaMaintenance;
use crate::stored::Spilled;

/// The relation name stamped onto answers produced by
/// [`CqapIndex::answer_degraded`], so degraded answers are always
/// distinguishable from full ones.
pub const DEGRADED_ANSWER_NAME: &str = "degraded";

/// A materialized CQAP index over the one PMTD of a set it answers with,
/// its S-views resident or spilled to disk ([`CqapIndex::spill`]).
pub struct CqapIndex {
    cqap: Cqap,
    db: Database,
    evaluator: OnlineYannakakis,
    /// `Arc`-shared so the copy [`CqapIndex::spill`] writes reuses the
    /// pipeline by refcount (its atom indexes are shared the same way).
    compiled: Arc<CompiledPmtd>,
    /// The plan's counted S-views: probed by [`CqapIndex::answer`] while
    /// the index is resident, edited by `maintenance` in both states —
    /// the one `S`-sized table per node.
    views: PreprocessedViews,
    maintenance: DeltaMaintenance,
    /// The views' sorted runs once spilled: probed instead of `views`.
    spilled: Option<Spilled>,
}

impl CqapIndex {
    /// Preprocessing phase: picks the PMTD of the set with the fewest
    /// non-materialized bags (the first on a tie; the module doc has why
    /// it alone is built) and materializes and indexes its S-views.
    ///
    /// # Errors
    /// Returns an error if the set is empty or a PMTD does not match the
    /// CQAP (different access pattern or head).
    pub fn build(cqap: &Cqap, db: &Database, pmtds: &[Pmtd]) -> Result<Self> {
        for p in pmtds {
            if p.access() != cqap.access() || p.head() != cqap.head() {
                return Err(CqapError::InvalidPmtd(
                    "PMTD head/access pattern does not match the CQAP".into(),
                ));
            }
        }
        let t_views = |p: &&Pmtd| p.td().num_nodes() - p.materialization_set().len();
        let Some(pmtd) = pmtds.iter().min_by_key(t_views) else {
            return Err(CqapError::InvalidQuery(
                "the framework needs at least one PMTD".into(),
            ));
        };
        // Delta maintenance from empty: the atom indexes, the per-atom
        // delta chains, and every view filled with its counted projection
        // of the streamed full join, all views in one pass. A counted
        // projection is both the S-view (its distinct rows, keyed by the
        // link) and the view's support counts.
        let evaluator = OnlineYannakakis::new(pmtd.clone());
        let mut views = evaluator.counted_views()?;
        let mut maintenance = DeltaMaintenance::build(cqap, db, &mut views)?;
        let compiled = Arc::new(maintenance.compile(cqap, db, &evaluator, &views)?);
        Ok(CqapIndex {
            cqap: cqap.clone(),
            db: db.clone(),
            evaluator,
            compiled,
            views,
            maintenance,
            spilled: None,
        })
    }

    /// A copy of this index with its S-views spilled to sorted-run files
    /// under `dir` (created if missing; see [`CqapIndex::spill_in_place`]).
    /// `self` stays as it was: the copy shares the compiled pipeline and
    /// the atom indexes by `Arc` and clones the rest, its counted views
    /// exact-fit.
    ///
    /// ```
    /// use cqap_decomp::families::pmtds_3reach_fig1;
    /// use cqap_panda::CqapIndex;
    /// use cqap_query::workload::{graph_pair_requests, Graph};
    /// use cqap_query::AccessRequest;
    ///
    /// let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
    /// let graph = Graph::random(40, 170, 42);
    /// let db = graph.as_path_database(3);
    ///
    /// // Preprocess once in memory, then spill the S-views to disk (a
    /// // process-unique scratch dir, so concurrent runs cannot collide).
    /// let hot = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    /// let cold = hot.spill(cqap_store::scratch_dir("doc")).unwrap();
    ///
    /// // Same intrinsic S, a fraction of it resident, identical answers.
    /// assert_eq!(cold.space_used(), hot.space_used());
    /// assert!(cold.resident_values() < cold.space_used());
    /// for (u, v) in graph_pair_requests(&graph, 10, 7) {
    ///     let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
    ///     assert_eq!(cold.answer(&request).unwrap(), hot.answer(&request).unwrap());
    /// }
    /// // Dropping `cold` deletes the spilled files and `dir` again.
    /// ```
    ///
    /// # Errors
    /// Fails like [`CqapIndex::spill_in_place`].
    pub fn spill(&self, dir: impl AsRef<Path>) -> Result<CqapIndex> {
        let mut copy = CqapIndex {
            cqap: self.cqap.clone(),
            db: self.db.clone(),
            evaluator: self.evaluator.clone(),
            compiled: Arc::clone(&self.compiled),
            views: self.views.clone(),
            maintenance: self.maintenance.clone(),
            spilled: None,
        };
        copy.spill_in_place(dir)?;
        Ok(copy)
    }

    /// Spills the plan's S-views to one sorted-run file per view under
    /// `dir` (created if missing); from then on every S-view probe is a
    /// fence-indexed read of those files, and the counted views stay
    /// resident as the support counts deltas edit. The index owns the
    /// files: they are deleted when it drops, and `dir` too if that
    /// leaves it empty.
    ///
    /// # Errors
    /// Fails, leaving the index resident, if it is already spilled or on
    /// I/O errors.
    pub fn spill_in_place(&mut self, dir: impl AsRef<Path>) -> Result<()> {
        if self.spilled.is_some() {
            return Err(CqapError::Other("the index is already spilled".into()));
        }
        self.spilled = Some(Spilled::write(&self.views, dir.as_ref())?);
        Ok(())
    }

    /// Whether the S-views are probed from disk ([`CqapIndex::spill`]).
    pub fn is_spilled(&self) -> bool {
        self.spilled.is_some()
    }

    fn stored_views(&self) -> impl Iterator<Item = &StoredView> {
        self.spilled.iter().flat_map(|s| s.views.views())
    }

    fn stored_views_mut(&mut self) -> impl Iterator<Item = &mut StoredView> {
        self.spilled.iter_mut().flat_map(|s| s.views.views_mut())
    }

    /// The intrinsic space cost: total stored values across the S-views
    /// the plan probes — resident or spilled — excluding the input
    /// database itself, as in the paper's `Õ(S + |D|)` accounting.
    pub fn space_used(&self) -> usize {
        match self.spilled {
            None => self.views.stored_values(),
            Some(_) => self.stored_views().map(StoredView::stored_values).sum(),
        }
    }

    /// S-view values resident in RAM for probing: all of them while the
    /// index is resident; once spilled, the sparse fence indexes plus any
    /// pending delta overlays (the support counts show in
    /// [`CqapIndex::resident_bytes`]).
    pub fn resident_values(&self) -> usize {
        match self.spilled {
            None => self.space_used(),
            Some(_) => self.stored_views().map(StoredView::resident_values).sum(),
        }
    }

    /// Heap bytes the index actually holds for its `S`, from container
    /// capacities (see [`KeyedRows::heap_bytes`]): the plan's counted
    /// S-views — probed while resident, the support counts once spilled —
    /// plus, once spilled, the runs' fence indexes, key filters and
    /// overlays. The number to hold against
    /// `space_used() × size_of::<Val>()`. Excludes the `O(|D|)` state
    /// (database, atom indexes), like [`CqapIndex::space_used`].
    pub fn resident_bytes(&self) -> usize {
        let stored: usize = self.stored_views().map(StoredView::resident_bytes).sum();
        self.views.resident_bytes() + stored
    }

    /// Bytes the spilled S-views occupy on disk (0 while resident).
    pub fn disk_bytes(&self) -> u64 {
        self.stored_views().map(StoredView::disk_bytes).sum()
    }

    /// Delta tuples buffered in the spilled views' overlays (0 while
    /// resident, and after [`CqapIndex::compact`]).
    pub fn overlay_len(&self) -> usize {
        self.stored_views().map(StoredView::overlay_len).sum()
    }

    /// Forces every spilled view with a pending delta overlay to compact
    /// into a fresh validated run (see [`StoredView::compact`]); a
    /// resident index has nothing to compact. Normally compaction
    /// triggers itself by overlay size; this is the explicit hook for
    /// tests and maintenance windows.
    ///
    /// # Errors
    /// Every view is tried; the first compaction error is returned.
    pub fn compact(&mut self) -> Result<()> {
        self.stored_views_mut().map(StoredView::compact).fold(Ok(()), Result::and)
    }

    /// Iterates `(node, counted S-view)` over the plan's materialized
    /// nodes — what the rebuild-equivalence tests compare against a fresh
    /// build over the post-delta database (rows, link *and* counts).
    pub fn support_counts(&self) -> impl Iterator<Item = (usize, &KeyedRows)> + '_ {
        self.views.runs()
    }

    /// The CQAP this index answers.
    pub fn cqap(&self) -> &Cqap {
        &self.cqap
    }

    /// The input database (kept so the online phase can compute T-views;
    /// it is *not* part of [`CqapIndex::space_used`], matching the paper's
    /// `Õ(S + |D|)` accounting).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The plan the index answers with, as its one item: the
    /// Online-Yannakakis evaluator of the chosen PMTD plus its
    /// preprocessed (semijoin-reduced, link-keyed, counted) S-views, the
    /// content [`CqapIndex::spill`] writes to disk.
    pub fn plans(&self) -> impl Iterator<Item = (&OnlineYannakakis, &PreprocessedViews)> {
        std::iter::once((&self.evaluator, &self.views))
    }

    /// The plan's compiled pipeline (T-view programs + probe plans), which
    /// [`CqapIndex::answer`] runs against [`CqapIndex::maintenance`]'s
    /// atom indexes.
    pub fn compiled(&self) -> &Arc<CompiledPmtd> {
        &self.compiled
    }

    /// Online phase: answers an access request by running Online Yannakakis
    /// over the index's one plan (for the Figure-1 set `(S14)`), projected
    /// onto the CQAP's declared head. The plan's PMTD alone answers the
    /// CQAP completely (the module doc has the argument).
    ///
    /// Requests run through the **compiled columnar** pipeline: per-request
    /// work is the T-view programs' join chains over the live atom indexes
    /// (an access-free bag's included — its T-view is computed online, as
    /// the PMTD says) and column-at-a-time plan execution against
    /// pre-resolved positions, with all intermediate state in a per-worker
    /// struct-of-arrays scratch arena. A spilled index runs the same plan
    /// with every S-view probe served from disk, decoded column-directly
    /// out of the segment reads. Answers are identical to `naive_answer`
    /// over [`CqapIndex::database`] (enforced on every backend by the
    /// umbrella crate's equivalence matrix).
    pub fn answer(&self, request: &AccessRequest) -> Result<Relation> {
        let (plan, atoms) = (&self.compiled, self.maintenance.atom_indexes());
        with_driver_scratch(|scratch| match &self.spilled {
            None => plan.answer(atoms, &self.views, request, scratch),
            Some(spilled) => plan.answer(atoms, &spilled.views, request, scratch),
        })
    }

    /// [`CqapIndex::answer`] under another name: the same plan and the same
    /// contents, the answer relation renamed to [`DEGRADED_ANSWER_NAME`].
    /// It stays only for the serving runtime's degrade mode, which flags
    /// and never caches what it returns.
    ///
    /// # Errors
    /// Fails like [`CqapIndex::answer`].
    pub fn answer_degraded(&self, request: &AccessRequest) -> Result<Relation> {
        Ok(self.answer(request)?.with_name(DEGRADED_ANSWER_NAME))
    }

    /// The delta-maintenance state (delta chains, atom indexes).
    pub fn maintenance(&self) -> &DeltaMaintenance {
        &self.maintenance
    }

    /// Attaches a metrics sink to the index's delta maintenance —
    /// [`ApplyDelta::apply_delta`] then records apply latency and net
    /// insert/delete counters into it — and to every spilled view
    /// (segment reads and bytes, overlay probes, compactions).
    pub fn set_metrics_sink(&mut self, sink: cqap_obs::MetricsSink) {
        for view in self.stored_views_mut() {
            view.set_metrics_sink(sink.clone());
        }
        self.maintenance.set_metrics_sink(sink);
    }
}

/// In-place incremental maintenance, `O(|Δ| + |ΔJ|)` end to end: the net
/// effect flows through the delta chains (editing the stored relations
/// and the atom indexes tuple by tuple) into the support counts of the
/// plan's [`PreprocessedViews`] — a view row enters or leaves where its
/// count crosses zero, so that one edit per `ΔJ` row is the whole view
/// maintenance. The compiled pipeline reads that live state and holds no
/// database content of its own, so it is never recompiled; a net no-op
/// leaves views, plan and the warm scratch state untouched.
///
/// A spilled index streams each moved view row from the count edit
/// straight into its run's LSM-style overlay, and compacts the views
/// whose overlay is due only once every view has absorbed the batch: a
/// failed compaction returns its error with the batch whole, so the index
/// answers the post-delta database and re-applying the batch is a no-op.
impl ApplyDelta for CqapIndex {
    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaStats> {
        let (cqap, db, views) = (&self.cqap, &mut self.db, &mut self.views);
        let Some(spilled) = &mut self.spilled else {
            let no_second_form = &mut |_, _: &[_], _| {};
            return self.maintenance.apply(cqap, db, views, batch, no_second_form);
        };
        let overlay = &mut |node, row: &[Val], entered| {
            spilled.views.edit_row(node, row, entered);
        };
        let stats = self.maintenance.apply(cqap, db, views, batch, overlay)?;
        if !stats.is_noop() {
            self.stored_views_mut().map(StoredView::compact_if_due).fold(Ok(()), Result::and)?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::Tuple;
    use cqap_decomp::families as pf;
    use cqap_query::workload::{graph_pair_requests, Graph};
    use cqap_yannakakis::naive_answer;

    /// The summaries of the PMTDs `index` built plans for.
    fn built_plans(index: &CqapIndex) -> Vec<String> {
        index.plans().map(|(evaluator, _)| evaluator.pmtd().summary()).collect()
    }

    fn check_matches_scratch(index: &CqapIndex, cqap: &Cqap, requests: &[(u64, u64)]) {
        for &(a, b) in requests {
            let req = AccessRequest::single(cqap.access(), &[a, b]).unwrap();
            let got = index.answer(&req).unwrap();
            let expected = naive_answer(cqap, index.database(), &req).unwrap();
            assert_eq!(got, expected, "mismatch on request ({a},{b})");
        }
    }

    #[test]
    fn three_reach_index_matches_scratch() {
        let (cqap, pmtds) = pf::pmtds_3reach_all().unwrap();
        let g = Graph::skewed(50, 220, 3, 35, 5);
        let db = g.as_path_database(3);
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        assert_eq!(built_plans(&index), ["(S14)"]);
        assert!(index.space_used() > 0);
        let reqs = graph_pair_requests(&g, 25, 9);
        check_matches_scratch(&index, &cqap, &reqs);
    }

    #[test]
    fn two_reach_index_matches_scratch() {
        let (cqap, pmtds) = pf::pmtds_2reach().unwrap();
        let g = Graph::random(40, 200, 21);
        let db = g.as_path_database(2);
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let reqs = graph_pair_requests(&g, 25, 23);
        check_matches_scratch(&index, &cqap, &reqs);
    }

    #[test]
    fn square_index_matches_scratch() {
        let (cqap, pmtds) = pf::pmtds_square().unwrap();
        let g = Graph::random(20, 100, 33);
        let mut db = Database::new();
        for i in 1..=4 {
            db.add_relation(Relation::binary(
                format!("R{i}"),
                0,
                1,
                g.edges.iter().copied(),
            ))
            .unwrap();
        }
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let reqs = graph_pair_requests(&g, 20, 35);
        check_matches_scratch(&index, &cqap, &reqs);
    }

    #[test]
    fn batched_requests_match() {
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(35, 150, 45);
        let db = g.as_path_database(3);
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let tuples: Vec<Tuple> = graph_pair_requests(&g, 12, 47)
            .into_iter()
            .map(|(a, b)| Tuple::pair(a, b))
            .collect();
        let req = AccessRequest::new(cqap.access(), tuples).unwrap();
        let got = index.answer(&req).unwrap();
        let expected = naive_answer(&cqap, &db, &req).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn mismatched_pmtd_rejected() {
        let (cqap3, pmtds3) = pf::pmtds_3reach_fig1().unwrap();
        let (cqap2, _) = pf::pmtds_2reach().unwrap();
        let g = Graph::random(20, 60, 3);
        let db2 = g.as_path_database(2);
        assert!(CqapIndex::build(&cqap2, &db2, &pmtds3).is_err());
        assert!(CqapIndex::build(&cqap3, &db2, &[]).is_err());
    }

    #[test]
    fn the_plan_with_the_fewest_t_views_answers_and_degrades_to_itself() {
        // The Figure-1 set is given as (T134, T123), (T134, S13), (S14):
        // two T-views, one, none. Only (S14) is built, so the set stores
        // what (S14) alone stores, and the degraded answer is the same
        // answer renamed.
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(30, 120, 51);
        let db = g.as_path_database(3);
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        assert_eq!(built_plans(&index), ["(S14)"]);
        let alone: Vec<usize> = pmtds
            .iter()
            .map(|p| CqapIndex::build(&cqap, &db, std::slice::from_ref(p)).unwrap().space_used())
            .collect();
        assert_eq!(alone[0], 0);
        assert!(alone[2] > alone[1] && alone[1] > 0, "{alone:?}");
        assert_eq!(index.space_used(), alone[2]);
        for (u, v) in graph_pair_requests(&g, 20, 53) {
            let req = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
            let degraded = index.answer_degraded(&req).unwrap();
            assert_eq!(degraded.name(), DEGRADED_ANSWER_NAME);
            assert_eq!(degraded, index.answer(&req).unwrap());
        }

        // A tie goes to the first: (T134, S13) and (T124, S24) each join
        // one T-view per request.
        let (cqap, all) = pf::pmtds_3reach_all().unwrap();
        let tied = [all[3].clone(), all[1].clone()];
        let index = CqapIndex::build(&cqap, &db, &tied).unwrap();
        assert_eq!(built_plans(&index), ["(T124, S24)"]);
    }

    #[test]
    fn compact_tries_every_view_and_returns_the_first_error() {
        use cqap_common::{vars, Tuple};
        use cqap_decomp::TreeDecomposition;
        use cqap_delta::DeltaBatch;
        use cqap_query::{Atom, ConjunctiveQuery};

        // Every 2-path out of `x1` on the path {x1,x2} → {x2,x3}, both
        // bags stored: the plan spills S12 (node 0) and then S23 (node 1).
        // A squat on S12's compaction temp path fails that view alone,
        // and S23 comes after it. One fresh path leaves one row pending
        // in each, too few to trigger a compaction on apply.
        let atoms = vec![Atom::new("R1", vec![0, 1]).unwrap(), Atom::new("R2", vec![1, 2]).unwrap()];
        let cq = ConjunctiveQuery::new("open_head_path2", 3, atoms, vars![1, 2, 3]).unwrap();
        let cqap = Cqap::new(cq, vars![1]).unwrap();
        let td = TreeDecomposition::path(vec![vars![1, 2], vars![2, 3]]).unwrap();
        let pmtd = Pmtd::for_cqap(td, [0, 1], &cqap).unwrap();
        let db = Graph::skewed(50, 220, 4, 30, 23).as_path_database(2);
        let dir = cqap_store::scratch_dir("compact-every-view");
        let mut index = CqapIndex::build(&cqap, &db, &[pmtd]).unwrap().spill(&dir).unwrap();
        assert_eq!(built_plans(&index), ["(S12, S23)"]);
        std::fs::create_dir(dir.join("node0.tmp")).unwrap();
        let pending = |index: &CqapIndex| -> Vec<usize> {
            index.stored_views().map(StoredView::overlay_len).collect()
        };
        let path = DeltaBatch::new()
            .insert("R1", vec![Tuple::pair(9_000, 9_001)])
            .insert("R2", vec![Tuple::pair(9_001, 9_002)]);
        index.apply_delta(&path).unwrap();
        assert_eq!(pending(&index), [1, 1]);

        assert!(index.compact().is_err(), "S12's compaction must hit the squat");
        assert_eq!(pending(&index), [1, 0], "the failed view keeps its overlay, S23 compacts");
        std::fs::remove_dir(dir.join("node0.tmp")).unwrap();
        index.compact().unwrap();
        assert_eq!(pending(&index), [0, 0]);
    }

    #[test]
    fn space_accounting_reflects_materialization() {
        // The Figure 1 set: (T134,T123) stores nothing, (T134,S13) stores
        // the S13 view, (S14) stores the answer pairs. Using only the first
        // PMTD must use zero space.
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(30, 120, 51);
        let db = g.as_path_database(3);
        let only_online = CqapIndex::build(&cqap, &db, &pmtds[..1]).unwrap();
        assert_eq!(only_online.space_used(), 0);
        let all = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        assert!(all.space_used() > 0);
    }
}
