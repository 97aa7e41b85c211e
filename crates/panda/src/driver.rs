//! An executable instantiation of the general framework (Sections 4.2–4.3).
//!
//! [`CqapIndex`] is the "reference engine" for the framework: given a CQAP,
//! a database and a set of PMTDs, the preprocessing phase materializes the
//! S-views of every PMTD (as semijoin-reduced projections of the full join,
//! which is exactly the content the paper's preprocessing phase guarantees
//! after its final semijoin-reduce step) and indexes them for Online
//! Yannakakis. The full join itself is never held: the build is delta
//! maintenance from empty ([`DeltaMaintenance::build`]), which streams it
//! through the crate's one join chain into the index's counted S-views —
//! the tables the online phase probes are the support-count tables a delta
//! edits, so `S` is resident once. The online phase computes the T-views
//! for the incoming access request — joining only the atoms of each
//! non-materialized bag, restricted by the request, through the same
//! chain — runs Online Yannakakis per PMTD, and unions the results across
//! PMTDs, fewest T-views first ([`union_order`]). For a CQAP that is
//! Boolean given its access pattern the union stops at the first plan
//! after which it holds every binding of the request: every answer tuple
//! is a binding, so no later PMTD could add one. The oracle's join
//! (`naive::full_join`) is left to the oracle, `naive_answer`, which every
//! answer here is tested against.
//!
//! The engine is *correct for every CQAP and PMTD set* and its space usage
//! is exactly the S-view sizes; its online time is not always the optimum
//! the 2PP analysis promises (that requires the per-rule heavy/light
//! splitting implemented by the specialized structures in `cqap-indexes`),
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
use cqap_store::{StoredView, StoredViews};
use cqap_yannakakis::{OnlineYannakakis, PreprocessedViews};

use crate::compiled::{answer_with_compiled, union_order, CompiledPmtd};
use crate::delta::DeltaMaintenance;
use crate::stored::Spilled;

/// The relation name stamped onto answers produced by
/// [`CqapIndex::answer_degraded`], so degraded answers are always
/// distinguishable from full ones.
pub const DEGRADED_ANSWER_NAME: &str = "degraded";

/// A materialized CQAP index over a set of PMTDs, its S-views resident
/// or spilled to disk ([`CqapIndex::spill`]).
pub struct CqapIndex {
    cqap: Cqap,
    db: Database,
    plans: Vec<Plan>,
    /// Per plan, its counted S-views: probed by [`CqapIndex::answer`]
    /// while the index is resident, edited by `maintenance` in both
    /// states — the one `S`-sized table per (plan, node).
    views: Vec<PreprocessedViews>,
    /// Plan positions in the order [`CqapIndex::answer`] unions them
    /// ([`union_order`]), fixed at build.
    order: Vec<usize>,
    maintenance: DeltaMaintenance,
    /// The views' sorted runs once spilled: probed instead of `views`.
    spilled: Option<Spilled>,
}

#[derive(Clone)]
struct Plan {
    evaluator: OnlineYannakakis,
    /// `Arc`-shared so the copy [`CqapIndex::spill`] writes reuses the
    /// pipeline by refcount (its atom indexes are shared the same way).
    compiled: Arc<CompiledPmtd>,
}

impl CqapIndex {
    /// Preprocessing phase: materializes and indexes the S-views of every
    /// PMTD in the set.
    ///
    /// # Errors
    /// Returns an error if a PMTD does not match the CQAP (different access
    /// pattern or head).
    pub fn build(cqap: &Cqap, db: &Database, pmtds: &[Pmtd]) -> Result<Self> {
        if pmtds.is_empty() {
            return Err(CqapError::InvalidQuery(
                "the framework needs at least one PMTD".into(),
            ));
        }
        for p in pmtds {
            if p.access() != cqap.access() || p.head() != cqap.head() {
                return Err(CqapError::InvalidPmtd(
                    "PMTD head/access pattern does not match the CQAP".into(),
                ));
            }
        }
        // Delta maintenance from empty: the atom indexes (one table for
        // the whole build — PMTDs sharing an (atom, join-key) pair share
        // one slot), the per-atom delta chains, and every view filled
        // with its counted projection of the streamed full join, all
        // views in one pass. A counted projection is both the S-view (its
        // distinct rows, keyed by the link) and the view's support counts.
        let evaluators: Vec<_> = pmtds.iter().map(|p| OnlineYannakakis::new(p.clone())).collect();
        let mut views = evaluators
            .iter()
            .map(OnlineYannakakis::counted_views)
            .collect::<Result<Vec<_>>>()?;
        let mut maintenance = DeltaMaintenance::build(cqap, db, &mut views)?;
        let mut plans = Vec::with_capacity(pmtds.len());
        for (evaluator, views) in evaluators.into_iter().zip(&views) {
            let compiled = maintenance.compile(cqap, db, &evaluator, views)?;
            plans.push(Plan {
                evaluator,
                compiled: Arc::new(compiled),
            });
        }
        let order = union_order(plans.iter().map(|p| p.compiled.as_ref()));
        Ok(CqapIndex {
            cqap: cqap.clone(),
            db: db.clone(),
            plans,
            views,
            order,
            maintenance,
            spilled: None,
        })
    }

    /// A copy of this index with its S-views spilled to sorted-run files
    /// under `dir` (created if missing; see [`CqapIndex::spill_in_place`]).
    /// `self` stays as it was: the copy shares the compiled pipelines and
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
            plans: self.plans.clone(),
            views: self.views.clone(),
            order: self.order.clone(),
            maintenance: self.maintenance.clone(),
            spilled: None,
        };
        copy.spill_in_place(dir)?;
        Ok(copy)
    }

    /// Spills the S-views of every plan to one sorted-run file per view
    /// under `dir` (created if missing); from then on every S-view probe
    /// is a fence-indexed read of those files, and the counted views stay
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
        self.spilled.iter().flat_map(|s| &s.plans).flat_map(StoredViews::views)
    }

    fn stored_views_mut(&mut self) -> impl Iterator<Item = &mut StoredView> {
        self.spilled.iter_mut().flat_map(|s| &mut s.plans).flat_map(StoredViews::views_mut)
    }

    /// The intrinsic space cost: total stored values across the S-views
    /// every PMTD probes — resident or spilled — excluding the input
    /// database itself, as in the paper's `Õ(S + |D|)` accounting.
    pub fn space_used(&self) -> usize {
        match self.spilled {
            None => self.views.iter().map(PreprocessedViews::stored_values).sum(),
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
    /// capacities (see [`KeyedRows::heap_bytes`]): the counted S-views of
    /// every plan — probed while resident, the support counts once
    /// spilled — plus, once spilled, the runs' fence indexes, key filters
    /// and overlays. The number to hold against
    /// `space_used() × size_of::<Val>()`. Excludes the `O(|D|)` state
    /// (database, atom indexes), like [`CqapIndex::space_used`].
    pub fn resident_bytes(&self) -> usize {
        let counts: usize = self.views.iter().map(PreprocessedViews::resident_bytes).sum();
        counts + self.stored_views().map(StoredView::resident_bytes).sum::<usize>()
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

    /// Iterates `(plan, node, counted S-view)` over every materialized
    /// node — what the rebuild-equivalence tests compare against a fresh
    /// build over the post-delta database (rows, link *and* counts).
    pub fn support_counts(&self) -> impl Iterator<Item = (usize, usize, &KeyedRows)> + '_ {
        self.views.iter().enumerate().flat_map(|(plan, views)| {
            views.runs().map(move |(node, counts)| (plan, node, counts))
        })
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

    /// The per-PMTD plans, in the order of the build's PMTDs — each an
    /// Online-Yannakakis evaluator plus its preprocessed (semijoin-reduced,
    /// link-keyed, counted) S-views, the content [`CqapIndex::spill`]
    /// writes to disk.
    pub fn plans(&self) -> impl Iterator<Item = (&OnlineYannakakis, &PreprocessedViews)> {
        self.plans.iter().map(|p| &p.evaluator).zip(&self.views)
    }

    /// The per-PMTD compiled pipelines (T-view programs + probe plans), in
    /// the order of the build's PMTDs — what [`CqapIndex::answer`]
    /// executes, in its [`union_order`], against
    /// [`CqapIndex::maintenance`]'s atom indexes.
    pub fn compiled(&self) -> impl Iterator<Item = &Arc<CompiledPmtd>> {
        self.plans.iter().map(|p| &p.compiled)
    }

    /// Number of PMTDs in the plan set.
    pub fn num_pmtds(&self) -> usize {
        self.plans.len()
    }

    /// Online phase: answers an access request by running Online Yannakakis
    /// per PMTD and unioning the per-PMTD answers (Section 4.3),
    /// projected onto the CQAP's declared head.
    ///
    /// The PMTDs run fewest T-views first ([`union_order`]: for the
    /// Figure-1 set `(S14)`, then `(T134, S13)`, then `(T134, T123)`).
    /// When the CQAP is Boolean given its access pattern, the union stops
    /// after the first plan at which it holds every distinct binding of
    /// the request — exact at every `S`, because the answer is a subset of
    /// the request and the union only grows. A non-Boolean CQAP, or a
    /// request with a binding still unanswered, runs every plan.
    ///
    /// Requests run through the **compiled columnar** pipeline: per-request
    /// work is the T-view programs' join chains over the live atom indexes
    /// (an access-free bag's included — its T-view is computed online, as
    /// the PMTD says) and column-at-a-time plan execution against
    /// pre-resolved positions, with all intermediate state in a per-worker
    /// struct-of-arrays scratch arena. A spilled index runs the same loop
    /// with every S-view probe served from disk, decoded column-directly
    /// out of the segment reads. Answers are identical to `naive_answer`
    /// over [`CqapIndex::database`] (proptest-enforced in
    /// `crates/yannakakis/tests` and `crates/shard/tests`).
    pub fn answer(&self, request: &AccessRequest) -> Result<Relation> {
        self.answer_plans(&self.order, request)
    }

    /// Graceful-degradation online phase: answers from the single
    /// *cheapest* plan — the first of [`CqapIndex::answer`]'s
    /// [`union_order`], the PMTD with the fewest T-views — skipping the
    /// rest of the union.
    ///
    /// Its only saving over [`CqapIndex::answer`] is on requests with a
    /// binding that plan leaves unanswered: for a CQAP Boolean given its
    /// access pattern, `answer` already stops after this plan once every
    /// binding is answered.
    ///
    /// Every PMTD of the set is built over the whole database at
    /// `S = ∞`, so each answers the CQAP completely on its own and the
    /// degraded contents are **identical** to [`CqapIndex::answer`]'s.
    /// That stops holding once a budgeted build partitions the database
    /// into sub-instances, each answered by one PMTD: one plan's answer is
    /// then a subset, and this shortcut is unsound. The answer relation is
    /// renamed to [`DEGRADED_ANSWER_NAME`] so callers can always tell it
    /// apart from a full answer. The serving runtime uses this past its
    /// overload watermark and never caches the result.
    ///
    /// # Errors
    /// Propagates the plan's evaluation errors.
    pub fn answer_degraded(&self, request: &AccessRequest) -> Result<Relation> {
        let answer = self.answer_plans(&self.order[..1], request)?;
        Ok(answer.with_name(DEGRADED_ANSWER_NAME))
    }

    /// Unions the plans at `order`'s positions, probing wherever the
    /// S-views live.
    fn answer_plans(&self, order: &[usize], request: &AccessRequest) -> Result<Relation> {
        let (cqap, atoms) = (&self.cqap, self.maintenance.atom_indexes());
        let compiled = |i: usize| self.plans[i].compiled.as_ref();
        match &self.spilled {
            None => answer_with_compiled(
                cqap,
                atoms,
                order.iter().map(|&i| (compiled(i), &self.views[i])),
                request,
            ),
            Some(spilled) => answer_with_compiled(
                cqap,
                atoms,
                order.iter().map(|&i| (compiled(i), &spilled.plans[i])),
                request,
            ),
        }
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
/// and the atom indexes tuple by tuple) into the support counts of every
/// plan's [`PreprocessedViews`] — a view row enters or leaves where its
/// count crosses zero, so that one edit per `ΔJ` row is the whole view
/// maintenance. The compiled pipelines read that live state and hold no
/// database content of their own, so none is ever recompiled; a net no-op
/// leaves views, plans and the warm scratch state untouched.
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
            let no_second_form = &mut |_, _, _: &[_], _| {};
            return self.maintenance.apply(cqap, db, views, batch, no_second_form);
        };
        let overlay = &mut |plan: usize, node, row: &[Val], entered| {
            spilled.plans[plan].edit_row(node, row, entered);
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
        assert_eq!(index.num_pmtds(), 5);
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
    fn the_union_runs_fewest_t_views_first_and_degrades_to_its_first_plan() {
        // The Figure-1 set is given as (T134, T123), (T134, S13), (S14):
        // two T-views, one, none. The union runs it backwards, `plans()`
        // and `compiled()` keep the given order, and the degraded answer
        // comes from (S14), the plan with the most stored values.
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(30, 120, 51);
        let index = CqapIndex::build(&cqap, &g.as_path_database(3), &pmtds).unwrap();
        assert_eq!(index.order, [2, 1, 0]);
        let stored: Vec<usize> = index.plans().map(|(_, views)| views.stored_values()).collect();
        assert_eq!(stored[0], 0);
        assert!(stored[2] > stored[1] && stored[1] > 0, "{stored:?}");
        for (u, v) in graph_pair_requests(&g, 20, 53) {
            let req = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
            let degraded = index.answer_degraded(&req).unwrap();
            assert_eq!(degraded.name(), DEGRADED_ANSWER_NAME);
            assert_eq!(degraded, index.answer(&req).unwrap());
        }
    }

    #[test]
    fn compact_tries_every_view_and_returns_the_first_error() {
        use cqap_common::Tuple;
        use cqap_delta::DeltaBatch;

        // The Figure-1 set spills (T134, S13)'s S13 run and (S14)'s S14
        // run; a squat on S13's compaction temp path fails that view
        // alone, and S14 comes after it. One fresh chain leaves one row
        // pending in each, too few to trigger a compaction on apply.
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let db = Graph::skewed(50, 220, 4, 30, 23).as_path_database(3);
        let dir = cqap_store::scratch_dir("compact-every-view");
        let mut index = CqapIndex::build(&cqap, &db, &pmtds).unwrap().spill(&dir).unwrap();
        let (s13, _) = index.plans().nth(1).unwrap().1.runs().next().unwrap();
        let squat = dir.join(format!("plan1_node{s13}.tmp"));
        std::fs::create_dir(&squat).unwrap();
        let pending = |index: &CqapIndex, plan: usize| -> usize {
            let views = index.spilled.as_ref().unwrap().plans[plan].views();
            views.map(StoredView::overlay_len).sum()
        };
        let chain = DeltaBatch::new()
            .insert("R1", vec![Tuple::pair(9_000, 9_001)])
            .insert("R2", vec![Tuple::pair(9_001, 9_002)])
            .insert("R3", vec![Tuple::pair(9_002, 9_003)]);
        index.apply_delta(&chain).unwrap();
        assert_eq!((pending(&index, 1), pending(&index, 2)), (1, 1));

        assert!(index.compact().is_err(), "S13's compaction must hit the squat");
        assert_eq!(pending(&index, 1), 1, "the failed view keeps its overlay");
        assert_eq!(pending(&index, 2), 0, "S14 still compacts");
        std::fs::remove_dir(&squat).unwrap();
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
