//! The compiled online driver: per-PMTD T-view *programs* plus the
//! compiled probe plan of `cqap-yannakakis`.
//!
//! A T-view is the join of a bag's atoms restricted by the request.
//! Joining it from the stored relations would pay, on every request and
//! for every non-materialized bag, the cost of (a) copying each in-bag
//! atom's relation out of the database and (b) building a hash-join index
//! over it. Both are request-independent, so a compiled T-view program
//! hoists them to build time, and nothing else — a program holds no
//! database content:
//!
//! * a bag **covered by its atoms and access pattern** compiles to a
//!   `JoinChain` (`chain.rs`) over its atoms' pre-built [`HashIndex`]es,
//!   seeded by the request projected onto the bag: the per-request work is
//!   one index probe per row, never a scan of the database. The programs hold
//!   *slot numbers* into the index's [`AtomIndexCache`], not the indexes
//!   themselves, so delta maintenance edits the one copy in place and
//!   every pipeline reads the live content without being recompiled. A bag
//!   with **no access variable** is no exception: its chain starts from
//!   the empty schema (one empty seed row per non-empty request, a first
//!   step over an index keyed on no variable), and under a T-parent it has
//!   the parent's link keys as its second seed like any other. Its T-view
//!   is request-independent, but computing it online *is* what the PMTD
//!   says — the paper lists `(T1245, T234)` beside `(T1245, S24)` (Example
//!   E.8) and `(T123)` beside `(S13)` (Example E.4) — and the stored form
//!   is the PMTD that materializes the bag. Joining it once at build time
//!   would store a view `S` does not count, and re-join it on every delta
//!   that touches it;
//! * the rare **uncovered** bag (hand-written decompositions) is the same
//!   chain over *all* atoms seeded by the *whole* request, its rows
//!   projected onto the bag and deduplicated: `π_bag(J ⋉ request)`, sound
//!   by the naive evaluator's argument (joining every atom with the
//!   request yields exactly the full-join rows the request selects). It
//!   reads the live indexes too, so it folds nothing and never goes stale.
//!
//! **Two seeds (reduce before you expand).** The programs compile and run
//! in top-down order, and a covered program whose parent is itself a
//! per-request T-view gets a second seed: the **distinct link keys** `π_L`
//! of the run the parent's program has just produced, `L = bag ∩ parent
//! bag`, joined with the bag's atoms by a second `JoinChain` compiled
//! from start schema `L` — same compiler, same executor, its columns
//! permuted into the node's one compile-time schema, so the plan, the
//! columnar kernels and the `SViewProbe` seam see nothing new. A PMTD puts
//! the access pattern inside the root bag, so by running intersection every
//! access variable of the bag lies in `L`: the keys carry every request
//! value the program needs, for single- and multi-tuple requests alike. (A
//! link with nothing but access variables would only repeat the request's
//! seed and is not compiled; an uncovered program stays request-seeded as a
//! child, and seeds its own children like any parent.) `(T134, T123)` is
//! the case this exists for: seeded by `x1` alone, `T123` is every 2-path
//! out of `x1` — thousands out of a hub — to filter a `T134` of a handful
//! of rows; seeded by that handful's `(x1, x3)` it is the 2-paths between
//! them.
//!
//! *Soundness.* From the parent's keys the program emits exactly `T_c ⋉_L
//! T_p`, its T-view semijoin-reduced by the parent's run, and the plan
//! gets that instead of `T_c`. The plan only ever combines a child with
//! its parent through the link: bottom-up `p ⋉ c`, top-down `p ⋈ c` for a
//! kept child, and both look only at child rows carrying the link key of
//! the parent row at hand. A child row whose key no parent row carries is
//! dangling — it passes no semijoin up and joins nothing down — so
//! dropping it first changes no answer (`p ⋉ c ≡ p ⋉ (c ⋉ π_L p)`, the
//! first step of Yannakakis' full reducer run early); reductions of `c` by
//! its own children only shrink it further and commute. The parent's run
//! may itself be reduced by the grandparent's: the same argument, one
//! level up.
//!
//! *The side is chosen per request*, from exact counts the live indexes
//! already hold — no knob, no statistics to maintain. A side costs its
//! seed rows plus the tuples the chain's first step would walk for them
//! (one [`HashIndex::degree`] lookup per seed row, nothing expanded). The
//! request's side is priced first, one lookup per request tuple. A parent
//! run with at least that many rows settles it for the request without a
//! look at its keys; otherwise the parent's keys are deduplicated and
//! priced one by one, **stopping as soon as their sum passes the
//! request's** — so choosing never costs more than the request's side
//! would have, the common light request pays one extra degree lookup and
//! runs as it always did, a hub request runs from the parent's keys, and
//! an empty parent run (zero keys, cheaper than any request) makes an
//! empty child for nothing. The mirrored `(T124, T234)` is the other side
//! of the choice — its parent is the hub's out-neighbours, its child a
//! reverse two-hop over small in-degrees — and keeps the request's seed.
//! This is the online shadow of the paper's heavy/light split, decided per
//! request instead of per sub-instance; it does not replace the partition.
//!
//! A [`CompiledPmtd`] pairs these programs with the
//! [`CompiledPlan`] for the PMTD; its `CompiledPmtd::answer` is the one
//! request path of both places a `CqapIndex`'s S-views live (resident, or
//! spilled to `cqap-store`'s disk-resident runs).

use std::cell::RefCell;
use std::sync::Arc;

use cqap_common::{hash_vals, CqapError, Result, Tuple, Val, VarSet};
use cqap_query::{AccessRequest, Atom, Cqap};
use cqap_relation::{Database, HashIndex, Relation, Schema};
use cqap_yannakakis::naive::atom_relation;
use cqap_yannakakis::{
    ColumnRun, ColumnarScratch, CompiledPlan, KeyMemo, OnlineYannakakis, SViewProbe,
};

use crate::chain::{ChainScratch, JoinChain, MORSEL_ROWS};
use crate::instrument;

thread_local! {
    /// One scratch arena per serving worker: the pool threads of
    /// `cqap-serve` each own exactly one, so the compiled pipelines run
    /// with warm buffers and no cross-thread contention.
    static DRIVER_SCRATCH: RefCell<DriverScratch> = RefCell::new(DriverScratch::new());
}

/// Runs `f` with this thread's reusable [`DriverScratch`] arena.
pub(crate) fn with_driver_scratch<R>(f: impl FnOnce(&mut DriverScratch) -> R) -> R {
    DRIVER_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// The per-worker scratch of the full compiled driver: the plan
/// executor's arena plus the buffers of the T-view programs, so neither
/// half of a request allocates working state on a warm worker.
#[derive(Debug, Default)]
pub(crate) struct DriverScratch {
    /// The plan executor's arena (handed to
    /// `CompiledPlan::answer_from_columns`).
    col: ColumnarScratch,
    /// A T-view program's seed: the request projected onto its start
    /// variables.
    seed: ColumnRun,
    /// A link-seeded program's other seed: the distinct link keys of its
    /// parent's run.
    keys: ColumnRun,
    /// The per-step runs of the T-view join chains.
    chain: ChainScratch,
    /// Reused projection buffer of the T-view programs.
    vals: Vec<Val>,
    /// Deduplication memo: of the seed of a multi-tuple request, then of
    /// the parent's link keys or an uncovered bag's final projection.
    memo: KeyMemo<()>,
    /// Pooled per-program output runs.
    slot_runs: Vec<ColumnRun>,
}

impl DriverScratch {
    /// A fresh scratch arena (all buffers empty).
    pub(crate) fn new() -> Self {
        DriverScratch::default()
    }
}

/// The single owner of one index's per-atom join indexes, one *slot* per
/// distinct (stored relation, variable renaming, join-key varset): the
/// PMTDs of one index routinely join the same atoms on the same keys, so
/// the `O(|D|)`-sized indexes are built once per distinct key, not once
/// per PMTD. T-view programs and delta plans hold slot numbers and borrow
/// the table per request, which is what lets delta maintenance edit the
/// indexes in place instead of evicting and rebuilding them.
///
/// Cloning shares every index by `Arc` and keeps the slot numbering, so a
/// copy of an index (the one `CqapIndex::spill` writes) keeps executing
/// the source's compiled pipelines against its own copy of the table; the first delta on either side copies a touched index
/// once (`Arc::make_mut`) and the lineages diverge from there.
#[derive(Clone, Debug, Default)]
pub struct AtomIndexCache {
    slots: Vec<AtomSlot>,
}

#[derive(Clone, Debug)]
struct AtomSlot {
    relation: String,
    vars: Vec<usize>,
    index: Arc<HashIndex>,
}

impl AtomIndexCache {
    /// The slot indexing `atom` on `key`, building the index from `db` the
    /// first time the (atom, key) pair is asked for.
    pub(crate) fn slot_for(&mut self, db: &Database, atom: &Atom, key: VarSet) -> Result<usize> {
        let found = self.slots.iter().position(|s| {
            s.relation == atom.relation && s.vars == atom.vars && s.index.key_vars() == key
        });
        if let Some(slot) = found {
            return Ok(slot);
        }
        let index = HashIndex::build(&atom_relation(db, atom)?, key)?;
        self.slots.push(AtomSlot {
            relation: atom.relation.clone(),
            vars: atom.vars.clone(),
            index: Arc::new(index),
        });
        Ok(self.slots.len() - 1)
    }

    /// The existing slot over `atom` (on whatever key) whose longest bucket
    /// is shortest: what a membership step of a link-seeded chain walks
    /// instead of getting a slot of its own.
    pub(crate) fn lightest_slot_over(&self, atom: &Atom) -> Option<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].relation == atom.relation && self.slots[i].vars == atom.vars)
            .min_by_key(|&i| self.slots[i].index.max_degree())
    }

    #[inline]
    pub(crate) fn index(&self, slot: usize) -> &HashIndex {
        &self.slots[slot].index
    }

    /// Applies one stored relation's net delta to every slot over it (a
    /// self-join has several), bucket by bucket. The caller guarantees net
    /// semantics: `deletes` are indexed, `inserts` are not.
    pub(crate) fn apply(&mut self, relation: &str, inserts: &[Tuple], deletes: &[Tuple]) {
        for slot in self.slots.iter_mut().filter(|s| s.relation == relation) {
            let index = Arc::make_mut(&mut slot.index);
            index.remove_all(deletes);
            index.insert_all(inserts);
        }
    }

    /// Iterates `(stored relation, atom variables, index)` over the slots —
    /// what the rebuild-equivalence tests compare against
    /// [`HashIndex::build`] over the post-delta database.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[usize], &HashIndex)> + '_ {
        self.slots
            .iter()
            .map(|s| (s.relation.as_str(), s.vars.as_slice(), s.index.as_ref()))
    }
}

/// The compiled producer of the T-view of one non-materialized node whose
/// content depends on the request: start from the request projected onto
/// the start variables — or, under a T-parent, from the parent's link keys
/// when that is the cheaper side — then run the pre-indexed join chain.
#[derive(Clone, Debug)]
struct TViewProgram {
    node: usize,
    schema: Schema,
    /// Positions of the start variables in the request schema.
    start_positions: Vec<usize>,
    chain: JoinChain,
    /// Uncovered bag: the bag's positions in the chain's rows, which are
    /// projected onto it and deduplicated.
    project: Option<Vec<usize>>,
    /// The second seed of a covered program under a per-request T-parent.
    link: Option<LinkSeed>,
}

/// A program's second seed and chain: the distinct link keys `π_L` of its
/// parent's run (`L = bag ∩ parent bag`), joined with the bag's atoms by a
/// chain compiled from start schema `L`.
#[derive(Clone, Debug)]
struct LinkSeed {
    /// The parent's program (earlier in the top-down program order).
    parent: usize,
    /// Positions of the link variables in the parent's run.
    key_positions: Vec<usize>,
    chain: JoinChain,
    /// Per column of the program's schema, its column in this chain's rows.
    columns: Vec<usize>,
}

impl TViewProgram {
    /// Collects the distinct link keys of `parent`, the run of `link`'s
    /// parent program, into `scratch.keys` and reports whether running from
    /// them costs no more than running from the request's seed (already in
    /// `scratch.seed`) — cost being seed rows plus the tuples the first
    /// step would walk for them. Gives up (false) as soon as the keys cost
    /// more, and without looking when the parent run alone is that long:
    /// never more keys are collected or looked up than the request's side
    /// costs.
    fn parent_is_cheaper(
        &self,
        link: &LinkSeed,
        atom_indexes: &AtomIndexCache,
        parent: &ColumnRun,
        scratch: &mut DriverScratch,
    ) -> bool {
        let DriverScratch { seed, keys, chain, vals, memo, .. } = scratch;
        let fanout = |r| 1 + self.chain.first_fanout(atom_indexes, seed, r, chain);
        let request_cost: usize = (0..seed.rows()).map(fanout).sum();
        if parent.rows() >= request_cost {
            return false;
        }
        keys.reset(link.key_positions.len());
        memo.clear();
        let mut cost = 0;
        for r in 0..parent.rows() {
            parent.project_row_into(r, &link.key_positions, vals);
            if memo.insert_if_absent(hash_vals(vals), vals) {
                keys.push_row(vals);
                cost += 1 + link.chain.first_fanout(atom_indexes, keys, keys.rows() - 1, chain);
                if cost > request_cost {
                    return false;
                }
            }
        }
        true
    }

    /// Produces the T-view for `request` directly as a [`ColumnRun`] in
    /// the compile-time column order, so the view's tuples never exist in
    /// row form. `done` holds the runs the programs before this one (in
    /// top-down order) produced for this request; a link-seeded program
    /// reads its parent's: the output is the T-view semijoin-reduced by
    /// it, or the whole T-view when the request was the cheaper seed.
    fn exec_columns(
        &self,
        atom_indexes: &AtomIndexCache,
        request: &AccessRequest,
        done: &[ColumnRun],
        out: &mut ColumnRun,
        scratch: &mut DriverScratch,
    ) {
        // Seed: the request projected onto the start variables,
        // deduplicated, straight into columns.
        let DriverScratch { seed, vals, memo, .. } = &mut *scratch;
        seed.reset(self.start_positions.len());
        if request.len() <= 1 {
            for t in request.tuples() {
                t.project_into(&self.start_positions, vals);
                seed.push_row(vals);
            }
        } else {
            memo.clear();
            for t in request.tuples() {
                t.project_into(&self.start_positions, vals);
                if memo.insert_if_absent(hash_vals(vals), vals) {
                    seed.push_row(vals);
                }
            }
        }
        out.reset(self.schema.arity());
        // The side: exact first-step costs read off the live indexes.
        let link = self.link.as_ref().filter(|link| {
            let cheaper = self.parent_is_cheaper(link, atom_indexes, &done[link.parent], scratch);
            instrument::record_side(cheaper);
            cheaper
        });
        let DriverScratch { seed, keys, chain, vals, memo, .. } = scratch;
        let no_skip = |_, _: &Tuple| false;
        if let Some(link) = link {
            let mut emit = |rows: &ColumnRun| {
                out.append_columns(rows.rows(), |j, col| {
                    col.extend_from_slice(rows.col(link.columns[j]))
                })
            };
            link.chain.run(0, atom_indexes, keys, MORSEL_ROWS, &no_skip, chain, &mut emit);
        } else {
            if self.project.is_some() {
                memo.clear();
            }
            let mut emit = |rows: &ColumnRun| match &self.project {
                None => out.append_columns(rows.rows(), |j, col| col.extend_from_slice(rows.col(j))),
                Some(positions) => {
                    for r in 0..rows.rows() {
                        rows.project_row_into(r, positions, vals);
                        if memo.insert_if_absent(hash_vals(vals), vals) {
                            out.push_row(vals);
                        }
                    }
                }
            };
            self.chain.run(0, atom_indexes, seed, MORSEL_ROWS, &no_skip, chain, &mut emit);
        }
    }
}

/// One PMTD's full compiled answering pipeline: the T-view programs plus
/// the compiled Online-Yannakakis plan, sharing one fixed set of schemas.
///
/// Compiled once per plan at index build time and shared by `Arc` when a
/// copy of the index (e.g. a disk spill) reuses the same preprocessing
/// output. It holds no database content — the programs read the live
/// [`AtomIndexCache`] and the plan probes the live S-views — so no delta
/// leaves it stale and it is never recompiled.
#[derive(Clone, Debug)]
pub struct CompiledPmtd {
    access: VarSet,
    /// What an answer is projected onto: the CQAP's declared head and its
    /// access variables.
    output: VarSet,
    /// One T-view program per non-materialized node, in top-down order.
    programs: Vec<TViewProgram>,
    plan: CompiledPlan,
}

impl CompiledPmtd {
    /// Compiles the T-view programs and the probe plan for `evaluator`'s
    /// PMTD against the backend `views`. The join indexes of the dynamic
    /// programs are looked up (or built) in `atom_indexes`, the table the
    /// compiled pipeline must be answered against — a multi-PMTD build
    /// shares one index per distinct (atom, join-key) pair instead of
    /// building it per PMTD.
    ///
    /// # Errors
    /// Propagates schema/atom resolution failures; fails if a probed
    /// S-view is missing from `views`.
    pub(crate) fn compile<V: SViewProbe>(
        cqap: &Cqap,
        db: &Database,
        evaluator: &OnlineYannakakis,
        views: &V,
        atom_indexes: &mut AtomIndexCache,
    ) -> Result<CompiledPmtd> {
        let pmtd = evaluator.pmtd();
        let access = cqap.access();
        let atoms = cqap.cq().atoms();
        let request_schema = Schema::of(access.iter());
        let mut programs: Vec<TViewProgram> = Vec::new();
        let mut t_schemas: Vec<(usize, Schema)> = Vec::new();
        // Top-down, so a program's parent program exists when it compiles
        // and has run when it runs.
        for node in pmtd.td().top_down_order() {
            if pmtd.is_materialized(node) {
                continue;
            }
            let bag = pmtd.td().bag(node);
            let access_in_bag = access.intersect(bag);
            let in_bag: Vec<usize> = (0..atoms.len())
                .filter(|&i| atoms[i].varset().is_subset(bag))
                .collect();
            let atom_vars = in_bag
                .iter()
                .fold(VarSet::EMPTY, |vars, &i| vars.union(atoms[i].varset()));

            // A covered bag joins its own atoms onto its share of the
            // request; an uncovered one joins every atom onto the whole
            // request and projects onto the bag.
            let covered = access_in_bag.union(atom_vars) == bag;
            let (start, join) = if covered {
                (access_in_bag, in_bag)
            } else {
                (access, (0..atoms.len()).collect())
            };
            let start_schema = request_schema.project(start);
            let chain = JoinChain::compile(
                db,
                atom_indexes,
                atoms,
                start_schema,
                join.clone(),
                VarSet::EMPTY,
            )?;
            let (schema, project) = if covered {
                (chain.schema().clone(), None)
            } else {
                let positions = chain.schema().positions_of_set(bag)?;
                (Schema::of(bag.iter()), Some(positions))
            };
            // The second seed: under a per-request T-parent, the parent's
            // link keys — when they carry every request value the bag
            // needs (running intersection says they do) and are more than
            // the request's own share again.
            let parent = pmtd.td().parent(node).and_then(|parent| {
                let program = programs.iter().position(|p| p.node == parent)?;
                Some((program, bag.intersect(pmtd.td().bag(parent))))
            });
            let link = match parent {
                Some((parent, link)) if covered && start.is_strict_subset(link) => {
                    let chain = JoinChain::compile(
                        db,
                        atom_indexes,
                        atoms,
                        Schema::of(link.iter()),
                        join,
                        link.difference(access),
                    )?;
                    Some(LinkSeed {
                        parent,
                        key_positions: programs[parent].schema.positions_of_set(link)?,
                        columns: chain.schema().positions_of(schema.vars())?,
                        chain,
                    })
                }
                _ => None,
            };
            t_schemas.push((node, schema.clone()));
            programs.push(TViewProgram {
                node,
                schema,
                start_positions: request_schema.positions_of_set(start)?,
                chain,
                project,
                link,
            });
        }
        let plan = evaluator.compile(views, &t_schemas)?;
        Ok(CompiledPmtd {
            access,
            output: cqap.declared_head().union(access),
            programs,
            plan,
        })
    }

    /// Answers one request: the T-view programs write their output directly as
    /// column runs, the plan executes column-at-a-time, and rows become
    /// tuples only at the final head projection — onto the CQAP's declared
    /// head and access variables, the answer `naive_answer` gives.
    ///
    /// # Errors
    /// Fails on a request over another access pattern, propagates the
    /// plan's validation failures and backend storage errors.
    pub(crate) fn answer<V: SViewProbe>(
        &self,
        atom_indexes: &AtomIndexCache,
        views: &V,
        request: &AccessRequest,
        scratch: &mut DriverScratch,
    ) -> Result<Relation> {
        if request.access() != self.access {
            return Err(CqapError::AccessPatternMismatch {
                expected_arity: self.access.len(),
                found_arity: request.access().len(),
            });
        }
        let mut runs = std::mem::take(&mut scratch.slot_runs);
        while runs.len() < self.programs.len() {
            runs.push(ColumnRun::new());
        }
        // Top-down: a program's parent has produced its run — empty or
        // not, every program hands the plan one.
        for (i, program) in self.programs.iter().enumerate() {
            let (done, rest) = runs.split_at_mut(i);
            program.exec_columns(atom_indexes, request, done, &mut rest[0], scratch);
        }
        let answer = self.plan.answer_from_columns(
            views,
            self.programs.iter().map(|p| p.node).zip(runs.iter()),
            request,
            &mut scratch.col,
        );
        scratch.slot_runs = runs;
        project_final(answer?, self.output)
    }
}

/// Projects `rel` onto `target ∩ varset` like
/// [`Relation::project_onto`], but moves the relation through unchanged
/// when the projection is the identity (the common case: a plan already
/// produces head-shaped answers).
fn project_final(rel: Relation, target: VarSet) -> Result<Relation> {
    let keep = target.intersect(rel.varset());
    if keep == rel.varset() && rel.schema().vars().windows(2).all(|w| w[0] < w[1]) {
        return Ok(rel);
    }
    rel.project_onto(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CqapIndex;
    use cqap_common::work;
    use cqap_decomp::families as pf;
    use cqap_query::workload::{graph_pair_requests, Graph};
    use cqap_yannakakis::naive::full_join;
    use cqap_yannakakis::naive_answer;

    /// Runs a program — fed `done`, the runs of the programs before it —
    /// and lifts its column run into a relation over the program's schema.
    fn exec_to_relation(
        program: &TViewProgram,
        atom_indexes: &AtomIndexCache,
        request: &AccessRequest,
        done: &[ColumnRun],
    ) -> (ColumnRun, Relation) {
        let mut out = ColumnRun::new();
        program.exec_columns(atom_indexes, request, done, &mut out, &mut DriverScratch::new());
        let mut row = Vec::new();
        let rows = (0..out.rows()).map(|r| {
            out.row_into(r, &mut row);
            Tuple::from_slice(&row)
        });
        let rel = Relation::from_tuples("T_view", program.schema.clone(), rows).unwrap();
        assert_eq!(rel.len(), out.rows(), "a T-view program emits distinct rows");
        (out, rel)
    }

    /// The T-view of `bag` for `request`, by the oracle's joins:
    /// `π_bag(π_{A∩bag} request ⋈ in-bag atoms)` for a bag covered by its
    /// atoms and access pattern, `π_bag(J ⋉ request)` for an uncovered one.
    fn reference_t_view(
        cqap: &Cqap,
        db: &Database,
        bag: VarSet,
        request: &AccessRequest,
    ) -> Relation {
        let request_rel = request.as_relation();
        let mut view = request_rel.project_onto(request.access().intersect(bag)).unwrap();
        for atom in cqap.cq().atoms().iter().filter(|a| a.varset().is_subset(bag)) {
            view = view.join(&atom_relation(db, atom).unwrap()).unwrap();
        }
        if view.varset() == bag {
            return view;
        }
        let full = full_join(cqap, db).unwrap();
        full.semijoin(&request_rel).unwrap().project_onto(bag).unwrap()
    }

    /// The 4-path query under the access pattern `{x1,x5}` on the
    /// hand-written decomposition `{x1,x3,x5} → {x1,x2,x3}, {x3,x4,x5}`,
    /// nothing materialized: no atom lies inside the root bag and `x3` is
    /// no access variable, so the root is *uncovered* and its program is
    /// the all-atoms chain seeded by the whole request.
    fn uncovered_bag_fixture() -> (Cqap, Vec<cqap_decomp::Pmtd>) {
        use cqap_common::vars;
        use cqap_decomp::{Pmtd, TreeDecomposition};
        let path = cqap_query::families::k_path_distinct(4);
        let cqap = Cqap::new(path.cq().clone(), VarSet::from_iter([0, 4])).unwrap();
        let td = TreeDecomposition::new(
            vec![vars![1, 3, 5], vars![1, 2, 3], vars![3, 4, 5]],
            vec![None, Some(0), Some(0)],
            0,
        )
        .unwrap();
        let pmtds = vec![Pmtd::for_cqap(td, [], &cqap).unwrap()];
        (cqap, pmtds)
    }

    /// What a T-view program promises. A program without a T-parent emits
    /// exactly the reference T-view. A program under one emits that view
    /// semijoin-reduced by its parent's run when it took the parent's side
    /// and the whole view when it took the request's: in both cases a
    /// subset of the reference T-view holding every row of it whose link
    /// key some row of the parent's run carries — all the plan's semijoin
    /// and join with the parent ever look at.
    #[test]
    fn compiled_t_views_match_the_reference_ones() {
        let random = Graph::random(35, 150, 3);
        let skewed = Graph::skewed(35, 150, 2, 24, 3);
        let (fig1, fig1_pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let (uncovered, uncovered_pmtds) = uncovered_bag_fixture();
        for (cqap, pmtds, path_len, uncovered_bags) in
            [(fig1, fig1_pmtds, 3, 0), (uncovered, uncovered_pmtds, 4, 1)]
        {
            let (mut from_request, mut from_parent) = (0, 0);
            for g in [&random, &skewed] {
                let db = g.as_path_database(path_len);
                let full = full_join(&cqap, &db).unwrap();
                for pmtd in &pmtds {
                    let evaluator = OnlineYannakakis::new(pmtd.clone());
                    let mut s_views = Vec::new();
                    for node in pmtd.materialization_set() {
                        s_views.push((node, full.project_onto(pmtd.view_schema(node)).unwrap()));
                    }
                    let pre = evaluator.preprocess(&s_views).unwrap();
                    let mut atom_indexes = AtomIndexCache::default();
                    let compiled =
                        CompiledPmtd::compile(&cqap, &db, &evaluator, &pre, &mut atom_indexes)
                            .unwrap();
                    let projected = compiled.programs.iter().filter(|p| p.project.is_some());
                    assert_eq!(projected.count(), uncovered_bags);
                    assert_eq!(compiled.programs.len(), pmtd.td().num_nodes() - s_views.len());
                    for (u, v) in graph_pair_requests(g, 15, 5) {
                        let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
                        let (mut runs, mut rels) = (Vec::new(), Vec::<Relation>::new());
                        for program in &compiled.programs {
                            let what = format!("node {} of {}", program.node, pmtd.summary());
                            let bag = pmtd.td().bag(program.node);
                            let want = &reference_t_view(&cqap, &db, bag, &request);
                            let parent = program.link.as_ref().map(|link| &rels[link.parent]);
                            assert_eq!(
                                parent.is_some(),
                                program.project.is_none() && program.node != pmtd.td().root(),
                                "{what}: every covered non-root program here has a T-parent"
                            );
                            let taken = instrument::parent_side_programs();
                            let (run, got) =
                                exec_to_relation(program, &atom_indexes, &request, &runs);
                            // The chain's join order is connectivity-greedy,
                            // the reference's is the query's: same content,
                            // possibly other column order.
                            let got = got.reorder(want.schema()).unwrap();
                            match parent {
                                None => assert_eq!(&got, want, "{what}"),
                                Some(parent_run) => {
                                    assert!(got.iter().all(|t| want.contains(t)), "{what}: ⊆");
                                    let reduced = want.semijoin(parent_run).unwrap();
                                    assert!(reduced.iter().all(|t| got.contains(t)), "{what}: ⊇");
                                    if instrument::parent_side_programs() > taken {
                                        assert_eq!(got, reduced, "{what}: the parent's side");
                                        from_parent += 1;
                                    } else {
                                        assert_eq!(&got, want, "{what}: the request's side");
                                        from_request += 1;
                                    }
                                }
                            }
                            runs.push(run);
                            rels.push(got);
                        }
                    }
                }
            }
            assert!(
                from_request > 0 && from_parent > 0,
                "{}: {from_request} child runs from the request, {from_parent} from the parent",
                cqap.cq().name()
            );
        }
    }

    /// Top-down order makes an empty parent run an empty child, and the
    /// cost rule yields it by itself: no key costs less than any request.
    #[test]
    fn an_empty_parent_run_empties_the_child_for_one_degree_lookup() {
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(40, 200, 2, 30, 9);
        let db = g.as_path_database(3);
        let index = CqapIndex::build(&cqap, &db, &pmtds[..1]).unwrap();
        let compiled = index.compiled();
        let atom_indexes = index.maintenance().atom_indexes();
        let [root, child] = &compiled.programs[..] else {
            panic!("(T134, T123) has two programs")
        };
        assert!(root.link.is_none() && child.link.is_some());
        // Out of a hub, into a vertex no edge reaches.
        let request = AccessRequest::single(cqap.access(), &[0, 10_000]).unwrap();
        let (parent_run, parent_rel) = exec_to_relation(root, atom_indexes, &request, &[]);
        assert!(parent_rel.is_empty());

        let (probes, rows) = (work::probes(), work::scans());
        let taken = instrument::parent_side_programs();
        let (_, child_rel) = exec_to_relation(child, atom_indexes, &request, &[parent_run]);
        assert!(child_rel.is_empty());
        assert_eq!(work::scans(), rows, "nothing expanded out of the hub");
        assert_eq!(instrument::parent_side_programs(), taken + 1);
        assert_eq!(
            work::probes(),
            probes + 1,
            "the request side's degree lookup and nothing else"
        );
        // The plan still gets a run — an empty one — for every program.
        let answer = with_driver_scratch(|scratch| {
            let views = index.plans().next().unwrap().1;
            compiled.answer(atom_indexes, views, &request, scratch)
        });
        assert!(answer.unwrap().is_empty());
    }

    #[test]
    fn access_free_bags_run_as_chains_and_answers_stay_exact() {
        // A 2-path CQAP whose access pattern is only {x1}: the bag
        // {x2,x3} contains no access variable, so its T-view program is a
        // chain from the empty schema — and, under the T-parent {x1,x2},
        // from the parent's link keys `x2` when those are cheaper. A
        // Boolean variant (empty access pattern) has no access variable
        // anywhere: both programs start from the empty schema, seeded by
        // the one empty request row, and the empty request seeds nothing.
        use cqap_common::{vars, VarSet};
        use cqap_decomp::{Pmtd, TreeDecomposition};
        use cqap_query::{Atom, ConjunctiveQuery};

        let atoms = || {
            vec![
                Atom::new("R1", vec![0, 1]).unwrap(),
                Atom::new("R2", vec![1, 2]).unwrap(),
            ]
        };
        let g = Graph::random(30, 140, 19);
        let db = g.as_path_database(2);
        let full_head = VarSet::from_iter([0, 1, 2]);

        let check = |cqap: &Cqap, pmtds: &[Pmtd], requests: &[AccessRequest]| {
            let index = CqapIndex::build(cqap, &db, pmtds).unwrap();
            for request in requests {
                let expected = naive_answer(cqap, &db, request).unwrap();
                assert_eq!(index.answer(request).unwrap(), expected);
            }
            // One program per bag, nothing folded into the plan.
            assert_eq!(index.compiled().programs.len(), 2);
        };

        let cq = ConjunctiveQuery::new("p2", 3, atoms(), full_head).unwrap();
        let cqap = Cqap::new(cq, VarSet::from_iter([0])).unwrap();
        let td = TreeDecomposition::path(vec![vars![1, 2], vars![2, 3]]).unwrap();
        let pmtds = vec![Pmtd::for_cqap(td, [], &cqap).unwrap()];
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 20, 23)
            .into_iter()
            .map(|(u, _)| AccessRequest::single(cqap.access(), &[u]).unwrap())
            .collect();
        check(&cqap, &pmtds, &requests);

        // Boolean variant: empty access pattern, everything static.
        let cq = ConjunctiveQuery::new("p2b", 3, atoms(), full_head).unwrap();
        let bool_cqap = Cqap::new(cq, VarSet::EMPTY).unwrap();
        let td = TreeDecomposition::path(vec![vars![1, 2], vars![2, 3]]).unwrap();
        let pmtds = vec![Pmtd::for_cqap(td, [], &bool_cqap).unwrap()];
        let truthy = AccessRequest::new(VarSet::EMPTY, vec![Tuple::empty()]).unwrap();
        check(&bool_cqap, &pmtds, &[truthy]);
        // The empty request is the "false" binding: no answers on any
        // online path (the naive evaluator has no falsy form, so it is
        // not a reference here).
        let falsy = AccessRequest::new(VarSet::EMPTY, vec![]).unwrap();
        let index = CqapIndex::build(&bool_cqap, &db, &pmtds).unwrap();
        assert!(index.answer(&falsy).unwrap().is_empty());
    }

    #[test]
    fn static_bag_reduced_by_an_s_view_goes_stale_with_any_relation() {
        // x1-only access over a 3-path: the bag {x2,x3} is access-free
        // and reduced by the materialized child S34. S34 projects the
        // *full* join, so a delta on R1 — an atom outside the bag —
        // changes which of the bag's rows survive the reduction: content
        // folded at compile time would go stale here with any relation.
        // The bag's T-view is joined per request and reduced by the live
        // S34, so the answer follows the delta with no recompile.
        use cqap_common::{vars, VarSet};
        use cqap_decomp::{Pmtd, TreeDecomposition};
        use cqap_delta::{ApplyDelta, DeltaBatch};
        use cqap_query::{Atom, ConjunctiveQuery};

        let atoms = vec![
            Atom::new("R1", vec![0, 1]).unwrap(),
            Atom::new("R2", vec![1, 2]).unwrap(),
            Atom::new("R3", vec![2, 3]).unwrap(),
        ];
        let cq = ConjunctiveQuery::new("p3", 4, atoms, VarSet::from_iter([0, 1, 2, 3])).unwrap();
        let cqap = Cqap::new(cq, VarSet::from_iter([0])).unwrap();
        let td = TreeDecomposition::path(vec![vars![1, 2], vars![2, 3], vars![3, 4]]).unwrap();
        let pmtds = vec![Pmtd::for_cqap(td, [2], &cqap).unwrap()];
        let mut db = Database::new();
        db.add_relation(Relation::binary("R1", 0, 1, [(1, 2)])).unwrap();
        // (5,6) dangles at build time: no R1 edge reaches 5, so x3 = 6 is
        // absent from S34 and the reduction drops (5,6).
        db.add_relation(Relation::binary("R2", 0, 1, [(2, 3), (5, 6)])).unwrap();
        db.add_relation(Relation::binary("R3", 0, 1, [(3, 4), (6, 7)])).unwrap();
        let mut index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();

        let request = AccessRequest::single(cqap.access(), &[9]).unwrap();
        assert!(index.answer(&request).unwrap().is_empty());
        let batch = DeltaBatch::new().insert("R1", vec![Tuple::pair(9, 5)]);
        assert!(!index.apply_delta(&batch).unwrap().is_noop());
        let expected = naive_answer(&cqap, index.database(), &request).unwrap();
        assert_eq!(expected.len(), 1, "9 → 5 → 6 → 7");
        assert_eq!(index.answer(&request).unwrap(), expected);
    }

    #[test]
    fn warm_single_request_driver_path_performs_zero_dedup_inserts() {
        // The Figure-1 set answers with its fully-materialized plan (S14):
        // after one warm-up request, the complete driver path — T-view
        // programs, compiled plan, final projection — must never touch the
        // relation-level dedup machinery (the paper's "probe-only online
        // phase" made literal at the allocator level).
        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(50, 260, 13);
        let db = g.as_path_database(3);
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 6, 17)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        // Expected answers (naive oracle) computed outside the counted
        // window — the oracle itself uses dedup inserts.
        let expected: Vec<Relation> = requests
            .iter()
            .map(|r| naive_answer(&cqap, &db, r).unwrap())
            .collect();
        index.answer(&requests[0]).unwrap(); // warm the scratch arena

        let dedup_before = cqap_relation::instrument::dedup_inserts();
        let boxes_before = cqap_common::tuple::instrument::heap_boxings();
        let answers: Vec<Relation> =
            requests.iter().map(|r| index.answer(r).unwrap()).collect();
        assert_eq!(
            cqap_relation::instrument::dedup_inserts(),
            dedup_before,
            "warm single-request serving must perform zero relation-level dedup inserts"
        );
        assert_eq!(
            cqap_common::tuple::instrument::heap_boxings(),
            boxes_before,
            "the warm columnar request path must perform zero tuple heap boxings"
        );
        assert_eq!(answers, expected);
    }

    #[test]
    fn warm_path_after_deltas_stays_zero_dedup_and_zero_boxing() {
        // The maintenance seam must not erode the paper's probe-only
        // online phase: an empty [`DeltaBatch`] short-circuits without
        // touching the compiled plans, so a warm serving loop that
        // absorbs it stays allocation-free; and after a *real* delta
        // (which edits the atom indexes and S-views under the plans) a
        // single re-warming request restores the zero-dedup /
        // zero-boxing steady state.
        use cqap_delta::{ApplyDelta, DeltaBatch};

        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(50, 260, 13);
        let db = g.as_path_database(3);
        let mut index = CqapIndex::build(&cqap, &db, &pmtds[2..3]).unwrap();
        let requests: Vec<AccessRequest> = graph_pair_requests(&g, 6, 17)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let expected: Vec<Relation> = requests
            .iter()
            .map(|r| naive_answer(&cqap, &db, r).unwrap())
            .collect();
        index.answer(&requests[0]).unwrap(); // warm the scratch arena

        // Counted window 1: empty batch + warm answering.
        let dedup_before = cqap_relation::instrument::dedup_inserts();
        let boxes_before = cqap_common::tuple::instrument::heap_boxings();
        let stats = index.apply_delta(&DeltaBatch::new()).unwrap();
        assert!(stats.is_noop(), "an empty batch must be a net no-op");
        let answers: Vec<Relation> =
            requests.iter().map(|r| index.answer(r).unwrap()).collect();
        assert_eq!(
            cqap_relation::instrument::dedup_inserts(),
            dedup_before,
            "an empty delta batch must leave the zero-dedup warm path intact"
        );
        assert_eq!(
            cqap_common::tuple::instrument::heap_boxings(),
            boxes_before,
            "an empty delta batch must leave the zero-boxing warm path intact"
        );
        assert_eq!(answers, expected);

        // A real delta: answers change where the new chain completes, and
        // one re-warming request restores the allocation-free steady
        // state.
        let batch = DeltaBatch::new()
            .insert("R1", vec![Tuple::pair(90_000, 90_001)])
            .insert("R2", vec![Tuple::pair(90_001, 90_002)])
            .insert("R3", vec![Tuple::pair(90_002, 90_003)]);
        assert!(!index.apply_delta(&batch).unwrap().is_noop());
        let mut post_requests = requests.clone();
        post_requests
            .push(AccessRequest::single(cqap.access(), &[90_000, 90_003]).unwrap());
        let post_expected: Vec<Relation> = post_requests
            .iter()
            .map(|r| naive_answer(&cqap, index.database(), r).unwrap())
            .collect();
        assert_eq!(
            post_expected.last().unwrap().len(),
            1,
            "the inserted chain must produce the new answer"
        );
        index.answer(&post_requests[0]).unwrap(); // re-warm after the delta

        // Counted window 2: warm answering over the maintained index.
        let dedup_before = cqap_relation::instrument::dedup_inserts();
        let boxes_before = cqap_common::tuple::instrument::heap_boxings();
        let post_answers: Vec<Relation> = post_requests
            .iter()
            .map(|r| index.answer(r).unwrap())
            .collect();
        assert_eq!(
            cqap_relation::instrument::dedup_inserts(),
            dedup_before,
            "warm serving after a delta must perform zero relation-level dedup inserts"
        );
        assert_eq!(
            cqap_common::tuple::instrument::heap_boxings(),
            boxes_before,
            "warm serving after a delta must perform zero tuple heap boxings"
        );
        assert_eq!(post_answers, post_expected);
    }

    #[test]
    fn compiled_driver_matches_naive() {
        let (cqap, pmtds) = pf::pmtds_3reach_all().unwrap();
        let g = Graph::skewed(40, 180, 3, 30, 7);
        let db = g.as_path_database(3);
        let index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
        for (u, v) in graph_pair_requests(&g, 25, 11) {
            let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
            assert_eq!(
                index.answer(&request).unwrap(),
                naive_answer(&cqap, &db, &request).unwrap(),
                "({u},{v})"
            );
        }
    }
}
