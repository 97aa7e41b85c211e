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

use cqap_common::{CqapError, Result};
use cqap_decomp::Pmtd;
use cqap_delta::{ApplyDelta, DeltaBatch, DeltaStats};
use cqap_query::{AccessRequest, Cqap};
use cqap_relation::{Database, KeyedRows, Relation};
use cqap_yannakakis::{OnlineYannakakis, PreprocessedViews};

use crate::compiled::{answer_with_compiled, union_order, CompiledPmtd};
use crate::delta::DeltaMaintenance;

/// The relation name stamped onto answers produced by
/// [`CqapIndex::answer_degraded`], so degraded answers are always
/// distinguishable from full ones.
pub const DEGRADED_ANSWER_NAME: &str = "degraded";

/// A materialized CQAP index over a set of PMTDs.
pub struct CqapIndex {
    cqap: Cqap,
    db: Database,
    plans: Vec<Plan>,
    /// Per plan, its counted S-views: probed by [`CqapIndex::answer`],
    /// edited by `maintenance` — the one `S`-sized table per (plan, node).
    views: Vec<PreprocessedViews>,
    /// Plan positions in the order [`CqapIndex::answer`] unions them
    /// ([`union_order`]), fixed at build.
    order: Vec<usize>,
    maintenance: DeltaMaintenance,
}

struct Plan {
    evaluator: OnlineYannakakis,
    /// `Arc`-shared so a second backend over the same preprocessing
    /// output (a disk spill) reuses the pipeline by refcount, not by copy
    /// (the `O(|D|)`-sized atom indexes it probes live in the
    /// maintenance's `AtomIndexCache`, shared the same way).
    compiled: std::sync::Arc<CompiledPmtd>,
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
                compiled: std::sync::Arc::new(compiled),
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
        })
    }

    /// The intrinsic space cost: total stored values across all S-views of
    /// all PMTDs (excluding the input database itself, as in the paper's
    /// `Õ(S + |D|)` accounting).
    pub fn space_used(&self) -> usize {
        self.views.iter().map(PreprocessedViews::stored_values).sum()
    }

    /// Heap bytes the index actually holds for its `S`: the resident
    /// S-views of every plan, support counts included (they are one
    /// table), from vector capacities (see [`KeyedRows::heap_bytes`]) —
    /// the number to hold against `space_used() × size_of::<Val>()`.
    /// Excludes the `O(|D|)` state (database, atom indexes), like
    /// [`CqapIndex::space_used`].
    pub fn resident_bytes(&self) -> usize {
        self.views.iter().map(PreprocessedViews::resident_bytes).sum()
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
    /// link-keyed, counted) S-views. This is the preprocessing output a
    /// second storage tier spills: `cqap-store` streams exactly these views
    /// to disk, keyed by the same link variables, and keeps them as its
    /// lineage's support counts — cloned, or taken over by
    /// [`CqapIndex::into_parts`].
    pub fn plans(&self) -> impl Iterator<Item = (&OnlineYannakakis, &PreprocessedViews)> {
        self.plans.iter().map(|p| &p.evaluator).zip(&self.views)
    }

    /// The per-PMTD compiled pipelines (T-view programs + probe plans), in
    /// the order of the build's PMTDs — what [`CqapIndex::answer`]
    /// executes, in its [`union_order`]. A second backend over the same
    /// preprocessing output (e.g. `cqap-store`'s disk spill) shares these
    /// by `Arc` instead of recompiling, and answers them against its clone
    /// of [`CqapIndex::maintenance`]'s atom indexes.
    pub fn compiled(&self) -> impl Iterator<Item = &std::sync::Arc<CompiledPmtd>> {
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
    /// struct-of-arrays scratch arena. Answers are identical to
    /// `naive_answer` over [`CqapIndex::database`] (proptest-enforced in
    /// `crates/yannakakis/tests`).
    pub fn answer(&self, request: &AccessRequest) -> Result<Relation> {
        answer_with_compiled(
            &self.cqap,
            self.maintenance.atom_indexes(),
            self.order.iter().map(|&i| (self.plans[i].compiled.as_ref(), &self.views[i])),
            request,
        )
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
        let first = self.order[0];
        let answer = answer_with_compiled(
            &self.cqap,
            self.maintenance.atom_indexes(),
            std::iter::once((self.plans[first].compiled.as_ref(), &self.views[first])),
            request,
        )?;
        Ok(answer.with_name(DEGRADED_ANSWER_NAME))
    }

    /// The delta-maintenance state (delta chains, atom indexes). A second
    /// backend over the same preprocessing output (the disk spill in
    /// `cqap-store`) clones this, and the views of [`CqapIndex::plans`],
    /// to maintain its own lineage, or takes both over by
    /// [`CqapIndex::into_parts`].
    pub fn maintenance(&self) -> &DeltaMaintenance {
        &self.maintenance
    }

    /// Hands the index over to a backend that replaces it (`cqap-store`'s
    /// spill of an owned shard): the CQAP, the database, the compiled
    /// pipelines, the counted S-views per plan and the delta maintenance
    /// — what [`CqapIndex::cqap`], [`CqapIndex::database`],
    /// [`CqapIndex::compiled`], [`CqapIndex::plans`] and
    /// [`CqapIndex::maintenance`] show, moved instead of cloned, so the
    /// `S`-sized views are never held twice. The evaluators are dropped.
    pub fn into_parts(
        self,
    ) -> (Cqap, Database, Vec<std::sync::Arc<CompiledPmtd>>, Vec<PreprocessedViews>, DeltaMaintenance)
    {
        let compiled = self.plans.into_iter().map(|p| p.compiled).collect();
        (self.cqap, self.db, compiled, self.views, self.maintenance)
    }

    /// Attaches a metrics sink to the index's delta maintenance:
    /// [`ApplyDelta::apply_delta`] then records apply latency and net
    /// insert/delete counters into it.
    pub fn set_metrics_sink(&mut self, sink: cqap_obs::MetricsSink) {
        self.maintenance.set_metrics_sink(sink);
    }
}

/// In-place incremental maintenance, `O(|Δ| + |ΔJ|)` end to end: the net
/// effect flows through the delta chains (editing the stored relations
/// and the atom indexes tuple by tuple) into the support counts of every
/// plan's resident [`PreprocessedViews`] — a view row enters or leaves
/// where its count crosses zero, so that one edit per `ΔJ` row is the
/// whole view maintenance. The compiled pipelines read that live state
/// and hold no database content of their own, so none is ever recompiled;
/// a net no-op leaves views, plans and the warm scratch state untouched.
impl ApplyDelta for CqapIndex {
    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaStats> {
        let no_second_form = &mut |_, _, _: &[_], _| {};
        self.maintenance.apply(&self.cqap, &mut self.db, &mut self.views, batch, no_second_form)
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
