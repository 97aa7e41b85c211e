//! Online Yannakakis for PMTDs (Section 3.1 / Appendix A): the
//! preprocessing half and the storage seam.
//!
//! The algorithm answers an access request from a PMTD's views in two
//! passes:
//!
//! 1. a **bottom-up semijoin-reduce pass** that removes dangling tuples from
//!    the T-views and the access request — S-views are only ever *probed*
//!    (via indexes built once during preprocessing), never scanned, which is
//!    what makes the online time independent of the S-view sizes
//!    (Theorem 3.7);
//! 2. a **top-down join pass** over the reduced tree that assembles the
//!    output without producing dangling intermediate tuples.
//!
//! This module holds what those passes read: the preprocessed S-views
//! ([`PreprocessedViews`]), the probe seam every backend implements
//! ([`SViewProbe`]) and the per-PMTD host [`OnlineYannakakis`]. The passes
//! themselves are compiled once per plan ([`crate::compiled`]) and run by
//! the one engine ([`crate::columnar`]); the naive evaluator
//! ([`crate::naive`]) is the oracle they are tested against.

use std::borrow::Cow;
use std::sync::OnceLock;

use cqap_common::{CqapError, Result, Tuple, VarSet};
use cqap_decomp::Pmtd;
use cqap_relation::{KeyedRows, Relation, Schema};

use crate::columnar::ColumnRun;

/// The preprocessed (materialized) S-views of a PMTD, resident at the
/// size `S` says: each view is one [`KeyedRows`] — its rows stored once as
/// flat values, probed by the view's *link* variables (the variables it
/// shares with its parent; for the root: with the access pattern) through
/// a 9-byte-per-slot position table. There is no row `Tuple`, no second
/// copy in an index and no per-key allocation.
///
/// The views come in two kinds, told apart by how they were made:
///
/// * **counted**, when the framework driver builds them
///   ([`OnlineYannakakis::counted_views`], filled and maintained by
///   `cqap-panda`'s delta maintenance): every row carries how many
///   full-join rows project onto it, so the table the online phase probes
///   *is* the support-count table a delta edits — one `S`-sized table per
///   view, one random-access edit per full-join delta row;
/// * **uncounted**, when hand-fed as row relations
///   ([`OnlineYannakakis::preprocess`]): plain sets, for the tests and
///   tools.
///
/// Both are edited through [`PreprocessedViews::edit`] and probed through
/// [`SViewProbe`].
#[derive(Clone, Debug, Default)]
pub struct PreprocessedViews {
    views: Vec<Option<SView>>,
}

#[derive(Clone, Debug)]
struct SView {
    run: KeyedRows,
    /// The rows as a [`Relation`], built on the first
    /// [`PreprocessedViews::materialized`] call and dropped by the next
    /// edit. Nothing on a build, serving, spill or maintenance path asks
    /// for it.
    rows: OnceLock<Relation>,
}

impl PreprocessedViews {
    fn of(runs: Vec<Option<KeyedRows>>) -> Self {
        let views = runs
            .into_iter()
            .map(|run| {
                run.map(|run| SView {
                    run,
                    rows: OnceLock::new(),
                })
            })
            .collect();
        PreprocessedViews { views }
    }

    /// Total number of stored values across all S-views — the
    /// machine-independent space measure reported by the benchmarks (the
    /// paper's intrinsic space cost `S`).
    pub fn stored_values(&self) -> usize {
        self.runs().map(|(_, run)| run.stored_values()).sum()
    }

    /// Heap bytes the S-views hold, from their vectors' capacities (see
    /// [`KeyedRows::heap_bytes`]) — what `S` actually costs resident. A
    /// row relation handed out by [`PreprocessedViews::materialized`] is
    /// included while it is cached.
    pub fn resident_bytes(&self) -> usize {
        self.views
            .iter()
            .flatten()
            .map(|v| v.run.heap_bytes() + v.rows.get().map_or(0, Relation::heap_bytes))
            .sum()
    }

    /// Iterates `(node, S-view)` over the materialized nodes: the reduced
    /// rows and their link key in the resident layout. A spilled index
    /// streams its `cqap-store` runs from these.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &KeyedRows)> + '_ {
        self.views
            .iter()
            .enumerate()
            .filter_map(|(node, v)| v.as_ref().map(|v| (node, &v.run)))
    }

    /// Iterates `(node, reduced S-view, link variables)` over the
    /// materialized nodes with each view as a row [`Relation`] — an
    /// adapter for tools and measurements, **not** a production path: the
    /// relation is built from the resident rows on first use (one `Tuple`
    /// per row, as large as the pre-compaction layout) and cached until
    /// the view is next edited. Serving probes and spills read
    /// [`PreprocessedViews::runs`] instead.
    pub fn materialized(&self) -> impl Iterator<Item = (usize, &Relation, VarSet)> + '_ {
        self.views.iter().enumerate().filter_map(|(node, v)| {
            let v = v.as_ref()?;
            let rows = v.rows.get_or_init(|| v.run.to_relation("S"));
            Some((node, rows, v.run.link()))
        })
    }

    fn run(&self, node: usize) -> Result<&KeyedRows> {
        self.views
            .get(node)
            .and_then(|v| v.as_ref())
            .map(|v| &v.run)
            .ok_or_else(|| {
                CqapError::InvalidPmtd(format!("S-view {node} was not preprocessed"))
            })
    }

    /// The one edit entry: iterates `(node, S-view)` over the materialized
    /// nodes for in-place edits — [`KeyedRows::edit_counts`] on counted
    /// views (delta maintenance gives and takes one support per full-join
    /// delta row, a morsel per call), [`KeyedRows::insert`] /
    /// [`KeyedRows::remove`] on hand-fed ones. Each edit is one
    /// position-table edit plus an append or a `swap_remove`, independent
    /// of the view's size and of the degree of the key touched. Every
    /// row relation cached by [`PreprocessedViews::materialized`] is
    /// dropped.
    pub fn edit(&mut self) -> impl Iterator<Item = (usize, &mut KeyedRows)> + '_ {
        self.views.iter_mut().enumerate().filter_map(|(node, v)| {
            let v = v.as_mut()?;
            v.rows.take();
            Some((node, &mut v.run))
        })
    }
}

/// Probe-only access to the materialized S-views of one PMTD.
///
/// This is the storage seam of the online phase: Online Yannakakis never
/// scans an S-view, it only (a) asks whether some tuple matches a key over
/// the view's *link* variables (a semijoin probe) and (b) fetches the block
/// of tuples matching a key (a join probe). Anything that can serve those
/// two lookups — the resident [`PreprocessedViews`] rows behind their
/// position tables, or a disk-resident sorted run with a fence index — can
/// sit behind the columnar engine
/// ([`crate::CompiledPlan::answer_from_columns`]) and produce identical
/// answers.
///
/// Keys are the projection of a view tuple onto its link variables, in
/// ascending variable order (the [`cqap_relation::HashIndex`] convention).
pub trait SViewProbe {
    /// The schema of the stored view at `node`, or `None` if the node has
    /// no materialized view.
    fn schema(&self, node: usize) -> Option<&Schema>;

    /// Appends all stored tuples of `node`'s view whose link-variable
    /// projection equals `key` to the columns of `out` (which must already
    /// be reset to the view's arity and is *not* cleared, so the executor
    /// pools several probes in one run).
    ///
    /// This is the one join-probe entry point of the storage seam, and it
    /// writes columns: the caller owns the destination, the in-memory
    /// backend copies the matching flat rows into it, the disk backend
    /// decodes its segments straight into the columns — probe results
    /// reach the executor without ever materializing a row [`Tuple`].
    ///
    /// # Errors
    /// Fails if the node has no stored view, or on a storage-level fault
    /// (e.g. an I/O error in a disk backend).
    fn probe_columns(&self, node: usize, key: &Tuple, out: &mut ColumnRun) -> Result<()>;

    /// Whether any stored tuple of `node`'s view matches `key` on the link
    /// variables (the semijoin probe; a backend answers it without
    /// producing the matching block).
    ///
    /// # Errors
    /// Same failure modes as [`SViewProbe::probe_columns`].
    fn contains(&self, node: usize, key: &Tuple) -> Result<bool>;
}

/// The in-memory backend: a probe is one position-table lookup (slot →
/// row) whose matching flat rows are written straight into the caller's
/// columns — no row tuple is built or cloned.
impl SViewProbe for PreprocessedViews {
    fn schema(&self, node: usize) -> Option<&Schema> {
        self.views
            .get(node)
            .and_then(|v| v.as_ref())
            .map(|v| v.run.schema())
    }

    fn probe_columns(&self, node: usize, key: &Tuple, out: &mut ColumnRun) -> Result<()> {
        self.run(node)?
            .for_each_match(key.as_slice(), |row| out.push_row(row));
        Ok(())
    }

    fn contains(&self, node: usize, key: &Tuple) -> Result<bool> {
        Ok(self.run(node)?.contains_key(key.as_slice()))
    }
}

/// Online Yannakakis over one PMTD: the host of its link variables, its
/// preprocessing ([`OnlineYannakakis::preprocess`],
/// [`OnlineYannakakis::counted_views`]) and its plan compiler
/// ([`OnlineYannakakis::compile`]).
#[derive(Clone, Debug)]
pub struct OnlineYannakakis {
    pmtd: Pmtd,
}

impl OnlineYannakakis {
    /// Creates the evaluator for a non-redundant PMTD.
    pub fn new(pmtd: Pmtd) -> Self {
        OnlineYannakakis { pmtd }
    }

    /// The PMTD this evaluator answers from.
    pub fn pmtd(&self) -> &Pmtd {
        &self.pmtd
    }

    /// The link variables of a node: the view variables shared with the
    /// parent's view (for the root, with the access pattern).
    pub(crate) fn link(&self, node: usize) -> VarSet {
        let mine = self.pmtd.view_schema(node);
        match self.pmtd.td().parent(node) {
            Some(p) => mine.intersect(self.pmtd.td().bag(p)),
            None => mine.intersect(self.pmtd.access()),
        }
    }

    /// Preprocessing phase: takes the content of every S-view (one relation
    /// per materialized node, over exactly the view schema `ν(t)`), runs the
    /// bottom-up semijoin-reduce over SS-edges, and stores every S-view as
    /// one [`KeyedRows`] probed by its link variables. The relations are
    /// only borrowed: an unreduced view's rows are copied once, flat, into
    /// its resident run.
    pub fn preprocess(&self, s_views: &[(usize, Relation)]) -> Result<PreprocessedViews> {
        let td = self.pmtd.td();
        let mut rels: Vec<Option<Cow<'_, Relation>>> = vec![None; td.num_nodes()];
        for (node, rel) in s_views {
            if !self.pmtd.is_materialized(*node) {
                return Err(CqapError::InvalidPmtd(format!(
                    "node {node} is not in the materialization set"
                )));
            }
            let expected = self.pmtd.view_schema(*node);
            if rel.varset() != expected {
                return Err(CqapError::SchemaMismatch {
                    expected: format!("ν({node}) = {expected}"),
                    found: format!("{}", rel.schema()),
                });
            }
            rels[*node] = Some(Cow::Borrowed(rel));
        }
        for node in self.pmtd.materialization_set() {
            if rels[node].is_none() {
                return Err(CqapError::InvalidPmtd(format!(
                    "missing S-view for materialized node {node}"
                )));
            }
        }
        // Bottom-up semijoin-reduce over SS-edges.
        for t in td.bottom_up_order() {
            let Some(p) = td.parent(t) else { continue };
            if self.pmtd.is_materialized(t) && self.pmtd.is_materialized(p) {
                let parent = rels[p].take().expect("S-view present");
                let reduced = parent.semijoin(rels[t].as_ref().expect("S-view present"))?;
                rels[p] = Some(Cow::Owned(reduced));
            }
        }
        let runs = rels
            .iter()
            .enumerate()
            .map(|(t, rel)| {
                rel.as_ref()
                    .map(|rel| KeyedRows::from_relation(rel, self.link(t)))
                    .transpose()
            })
            .collect::<Result<_>>()?;
        Ok(PreprocessedViews::of(runs))
    }

    /// The preprocessing output before any full-join row is known: one
    /// empty *counted* [`KeyedRows`] per materialized node, over the view
    /// schema `ν(t)` in ascending variable order and keyed by the node's
    /// link. The framework driver fills them with every view's *ideal*
    /// content — `π_{ν(t)}` of the full join, one support per full-join
    /// row — on which the SS-edge semijoin-reduce of
    /// [`OnlineYannakakis::preprocess`] is a no-op: every parent row is
    /// the projection of a full-join row that also projects into the
    /// child.
    ///
    /// # Errors
    /// Propagates schema failures.
    pub fn counted_views(&self) -> Result<PreprocessedViews> {
        let mut runs: Vec<Option<KeyedRows>> = vec![None; self.pmtd.td().num_nodes()];
        for node in self.pmtd.materialization_set() {
            let schema = Schema::of(self.pmtd.view_schema(node).iter());
            runs[node] = Some(KeyedRows::counted(schema, self.link(node))?);
        }
        Ok(PreprocessedViews::of(runs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::work;
    use cqap_decomp::families as pmtd_families;
    use cqap_query::workload::Graph;
    use cqap_query::AccessRequest;
    use cqap_relation::Database;

    /// The content of every S-view of a PMTD computed directly from the
    /// full join (the "ideal" materialization the framework's
    /// preprocessing phase produces after its semijoin-reduce step).
    fn views_from_full_join(
        pmtd: &Pmtd,
        cqap: &cqap_query::Cqap,
        db: &Database,
    ) -> Vec<(usize, Relation)> {
        let full = crate::naive::full_join(cqap, db).unwrap();
        pmtd.materialization_set()
            .into_iter()
            .map(|t| (t, full.project_onto(pmtd.view_schema(t)).unwrap()))
            .collect()
    }

    /// A backend that counts what the plan asks of it, independently of
    /// the engine's own `work` accounting.
    struct Counting<'a> {
        views: &'a PreprocessedViews,
        probes: std::cell::Cell<usize>,
        rows: std::cell::Cell<usize>,
    }

    impl SViewProbe for Counting<'_> {
        fn schema(&self, node: usize) -> Option<&Schema> {
            self.views.schema(node)
        }

        fn probe_columns(&self, node: usize, key: &Tuple, out: &mut ColumnRun) -> Result<()> {
            let before = out.rows();
            self.views.probe_columns(node, key, out)?;
            self.probes.set(self.probes.get() + 1);
            self.rows.set(self.rows.get() + out.rows() - before);
            Ok(())
        }

        fn contains(&self, node: usize, key: &Tuple) -> Result<bool> {
            self.probes.set(self.probes.get() + 1);
            self.views.contains(node, key)
        }
    }

    #[test]
    fn online_time_does_not_scan_s_views() {
        // Probe-only behaviour: answering from the fully-materialized PMTD
        // (S14) costs one probe per distinct request tuple and reads only
        // the rows that answer it, regardless of |S-view|.
        let (cqap, pmtds) = pmtd_families::pmtds_3reach_fig1().unwrap();
        let single = &pmtds[2];
        let g = Graph::random(60, 300, 41);
        let db = g.as_path_database(3);
        let oy = OnlineYannakakis::new(single.clone());
        let pre = oy.preprocess(&views_from_full_join(single, &cqap, &db)).unwrap();
        assert_eq!(pre.views.iter().flatten().count(), 1);
        let plan = oy.compile(&pre, &[]).unwrap();
        let mut scratch = crate::ColumnarScratch::new();
        let pairs = cqap_query::workload::graph_pair_requests(&g, 12, 43);
        let mut tuples: Vec<Tuple> = pairs.iter().map(|&(u, v)| Tuple::pair(u, v)).collect();
        tuples.push(tuples[0].clone());
        let request = AccessRequest::new(cqap.access(), tuples).unwrap();
        let counting = Counting { views: &pre, probes: 0.into(), rows: 0.into() };
        let (probes, scans) = (work::probes(), work::scans());
        let answer = plan.answer_from_columns(&counting, [], &request, &mut scratch).unwrap();
        assert_eq!(answer, crate::naive_answer(&cqap, &db, &request).unwrap());
        let distinct: std::collections::HashSet<_> = request.tuples().iter().collect();
        assert_eq!(counting.probes.get(), distinct.len());
        assert_eq!(counting.rows.get(), answer.len());
        // The engine's `T` is what the backend saw: its probes, then the
        // request's tuples and the rows the probes returned as scans.
        assert_eq!(work::probes() - probes, counting.probes.get() as u64);
        assert_eq!(work::scans() - scans, (request.len() + counting.rows.get()) as u64);
        assert!(answer.len() < pre.stored_values());
    }

    #[test]
    fn fused_projections_equal_hand_fed_views() {
        // The two ways into `PreprocessedViews` — borrowed row relations
        // (SS-edges reduced here) and counted views given one support per
        // full-join row (already reduced) — must store the same rows
        // under the same link keys, for every PMTD family.
        let (cqap3, fig3) = pmtd_families::pmtds_3reach_all().unwrap();
        let (cqap4, reach4) = pmtd_families::pmtds_4reach().unwrap();
        let g = Graph::skewed(40, 150, 2, 20, 61);
        for (cqap, pmtds, db) in [
            (cqap3, fig3, g.as_path_database(3)),
            (cqap4, reach4, g.as_path_database(4)),
        ] {
            let full = crate::naive::full_join(&cqap, &db).unwrap();
            for pmtd in &pmtds {
                let oy = OnlineYannakakis::new(pmtd.clone());
                let s_views = views_from_full_join(pmtd, &cqap, &db);
                let fed = oy.preprocess(&s_views).unwrap();
                let mut fused = oy.counted_views().unwrap();
                assert_eq!(fused.stored_values(), 0);
                for (_, counted) in fused.edit() {
                    let vars = counted.schema().varset();
                    let positions = full.schema().positions_of_set(vars).unwrap();
                    for row in full.iter() {
                        counted.add(row.project(&positions).as_slice(), 1);
                    }
                }
                assert_eq!(fused.stored_values(), fed.stored_values());
                assert_eq!(fused.views.iter().flatten().count(), s_views.len());
                for ((a, fused_run), (b, fed_run)) in fused.runs().zip(fed.runs()) {
                    assert_eq!(a, b);
                    assert_eq!(fused_run.link(), oy.link(a));
                    assert_eq!(fused_run.link(), fed_run.link());
                    assert_eq!(fused_run.schema(), fed_run.schema());
                    // Counted against uncounted: compare the row sets, and
                    // the supports against the full join's size.
                    assert_eq!(fused_run.len(), fed_run.len(), "{} node {a}", pmtd.summary());
                    assert!(fed_run.rows().all(|row| fused_run.contains(row)));
                    let supports: usize =
                        fused_run.rows().map(|row| fused_run.count(row) as usize).sum();
                    assert_eq!(supports, full.len());
                }
            }
        }
    }

    #[test]
    fn the_row_relation_adapter_is_lazy_and_dropped_by_edits() {
        let (cqap, pmtds) = pmtd_families::pmtds_3reach_fig1().unwrap();
        let middle = &pmtds[1]; // (T134, S13)
        let db = Graph::random(30, 120, 47).as_path_database(3);
        let oy = OnlineYannakakis::new(middle.clone());
        let s_views = views_from_full_join(middle, &cqap, &db);
        let mut pre = oy.preprocess(&s_views).unwrap();
        let compact = pre.resident_bytes();
        assert!(compact > 0);
        {
            let (node, rows, link) = pre.materialized().next().unwrap();
            assert_eq!((node, link), (s_views[0].0, oy.link(node)));
            assert_eq!(rows, &s_views[0].1);
        }
        assert!(
            pre.resident_bytes() > compact,
            "the adapter's row relation is resident while cached"
        );
        let fresh = Tuple::pair(9_001, 9_002);
        let (node, view) = pre.edit().next().unwrap();
        assert_eq!(node, s_views[0].0);
        assert!(view.insert(fresh.as_slice()).unwrap());
        // Wrong-arity rows are refused.
        assert!(view.insert(&[1, 2, 3]).is_err());
        let edited = pre.resident_bytes();
        assert!(edited < compact + 1_024, "an edit drops the cached adapter");
        let (_, rows, _) = pre.materialized().next().unwrap();
        assert_eq!(rows.len(), s_views[0].1.len() + 1);
        assert!(rows.contains(&fresh));
    }

    #[test]
    fn counted_views_enter_and_leave_by_support() {
        // The driver's kind of view: a row is probed exactly while its
        // support count is positive, and the adapter follows the edits.
        let (_, pmtds) = pmtd_families::pmtds_3reach_fig1().unwrap();
        let oy = OnlineYannakakis::new(pmtds[1].clone()); // (T134, S13)
        let mut pre = oy.counted_views().unwrap();
        assert_eq!((pre.views.iter().flatten().count(), pre.stored_values()), (1, 0));
        let (node, view) = pre.edit().next().unwrap();
        assert!(view.add(&[1, 3], 1));
        assert!(!view.add(&[1, 3], 1));
        let key = Tuple::pair(1, 3);
        assert!(pre.contains(node, &key).unwrap());
        assert_eq!(pre.materialized().next().unwrap().1.len(), 1);
        let (_, view) = pre.edit().next().unwrap();
        assert!(!view.sub(&[1, 3], 1));
        assert!(view.sub(&[1, 3], 1));
        assert!(!pre.contains(node, &key).unwrap());
        assert_eq!(pre.materialized().next().unwrap().1.len(), 0);
        // A PMTD without materialized nodes has nothing to edit.
        let online_only = OnlineYannakakis::new(pmtds[0].clone());
        assert_eq!(online_only.counted_views().unwrap().edit().count(), 0);
    }

    #[test]
    fn validation_errors() {
        let (cqap, pmtds) = pmtd_families::pmtds_3reach_fig1().unwrap();
        let middle = &pmtds[1]; // (T134, S13)
        let db = Graph::random(20, 60, 43).as_path_database(3);
        let oy = OnlineYannakakis::new(middle.clone());

        // Wrong schema for the S-view.
        let bad = vec![(1usize, Relation::binary("bad", 0, 1, [(1, 2)]))];
        assert!(oy.preprocess(&bad).is_err());
        // Missing S-view.
        assert!(oy.preprocess(&[]).is_err());
        // Content for a node outside the materialization set.
        let wrong_phase = vec![(0usize, Relation::new("x", Schema::of([0, 2, 3])))];
        assert!(oy.preprocess(&wrong_phase).is_err());
        assert!(oy.preprocess(&views_from_full_join(middle, &cqap, &db)).is_ok());
    }
}
