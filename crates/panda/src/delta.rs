//! Delta maintenance of the S-views — and their build, which is the same
//! pass from empty.
//!
//! The paper's preprocessing phase materializes, per PMTD, the S-views as
//! semijoin-reduced projections of the full join `J = ⋈_F R_F`. Because
//! the SS-edge semijoin-reduce is a no-op on that *ideal* content (every
//! parent tuple is the projection of some J-row, which also projects into
//! the child), each S-view is **exactly** `π_{ν(t)}(J)` — so maintaining
//! the views under database updates reduces to maintaining projections of
//! J with support counts, semi-naive style:
//!
//! * `ΔJ⁻ = ⋃_a (ΔR⁻ renamed to atom a) ⋈ (all other atoms over the
//!   pre-delta database)` — the J-rows that disappear;
//! * `ΔJ⁺ = ⋃_a (ΔR⁺ renamed to atom a) ⋈ (all other atoms over the
//!   post-delta database)` — the J-rows that appear.
//!
//! A support count per (plan, materialized node, view tuple) tracks how
//! many J-rows project onto it; a view tuple leaves its S-view when its
//! count reaches zero and enters when it departs from zero. The counts
//! live **in the S-view itself**: the backend's resident
//! [`PreprocessedViews`] are counted `KeyedRows` keyed by each view's
//! link, so the table the online phase probes is the table a delta edits
//! — one `S`-sized table per (plan, node) per lineage, one random-access
//! edit per `ΔJ` row and view, and nothing to copy the edit into. The
//! backend owns the tables (`CqapIndex` serves from them; once spilled,
//! it keeps them as its counts beside the runs it probes)
//! and lends them to [`DeltaMaintenance::build`] / [`DeltaMaintenance::apply`]
//! by `&mut`; this module keeps only what expands a delta: the chains and
//! the atom indexes. A view row whose count crosses zero goes to the
//! caller's sink `(plan, node, row, entered)` as it crosses, never into a
//! list: a resident index passes a no-op, a spilled one its overlays.
//!
//! Each atom's term is one `JoinChain` (the chain type of the T-view
//! programs, compiled once at build time) seeded with that atom's net
//! tuples, and its rows are **streamed**: every morsel is projected onto
//! every view and bumps that view's counts straight from the columns, so
//! no `ΔJ` relation exists. That needs the unions above to be disjoint,
//! and they are not: a J-row whose tuples under two atoms are both in the
//! batch (any self-join, any multi-relation batch) comes out of both
//! chains. The **first-atom rule** attributes it to the first atom whose
//! tuple is in that side's delta: while atom `a`'s chain runs, a probed
//! tuple of an atom `b < a` that is in `ΔR_b` is skipped at the step
//! joining `b` — a lookup in the batch-sized delta set.
//!
//! Those count edits are most of a write's time, and on a large view
//! they wait on cache misses, not on instructions, so a morsel reaches
//! each view as **one batch**: every view's column positions in every
//! chain's schema are resolved once per build or apply, the morsel is
//! projected and hashed once per view, column by column, into buffers
//! reused across morsels, and
//! [`KeyedRows::edit_counts`](cqap_relation::KeyedRows::edit_counts)
//! warms each group of rows' table slots, rows and counts with
//! independent loads before it edits any of them (see
//! `cqap_relation::keyed_rows`). The edits, and the moved rows the sink
//! sees, keep the row order of one edit at a time.
//!
//! **Build is a delta from empty**: every J-row is new and atom 0 is its
//! first atom, so [`DeltaMaintenance::build`] runs atom 0's chain seeded
//! with all of `R₀` into the empty views — `J` is streamed, never held.
//!
//! Every step of an apply costs `O(|Δ| + |ΔJ|)`, never `O(|D|)`:
//!
//! * the stored relations absorb the net delta by position-map edits
//!   (`Relation::remove_all` / `insert`);
//! * the atom indexes over a touched relation are **edited in place**
//!   (`HashIndex::{remove_all, insert_all}`, bucket by bucket) between the
//!   ΔJ⁻ and ΔJ⁺ joins — the cache is their single owner, T-view programs
//!   and delta chains only hold slot numbers, so nothing is evicted,
//!   rebuilt or re-shared;
//! * the compiled pipelines read those live indexes and probe the live
//!   S-views and fold no database content — an access-free bag's T-view
//!   is computed per request like any other — so **no plan is ever
//!   recompiled**: a delta never re-joins a bag.

use cqap_common::{FxHashSet, Result, Tuple, Val, VarSet};
use cqap_delta::{net_effect, DeltaBatch, DeltaStats, RelationDelta};
use cqap_obs::{CounterId, MetricsSink, StageId, TraceStage};
use cqap_query::{Atom, Cqap};
use cqap_relation::{CountEdit, Database, Schema};
use cqap_yannakakis::{ColumnRun, OnlineYannakakis, PreprocessedViews, SViewProbe};

use crate::chain::{ChainScratch, JoinChain, MORSEL_ROWS};
use crate::compiled::{AtomIndexCache, CompiledPmtd};

/// Which side of a net delta to expand through the delta chains.
#[derive(Clone, Copy)]
enum Side {
    Inserts,
    Deletes,
}

/// Streams one side of the full-join delta of `deltas` into `sink`, which
/// gets each morsel with the atom whose chain (and so whose column order)
/// produced it: `Side::Deletes` against indexes holding the pre-delta
/// database is `J_old ∖ J_new`, `Side::Inserts` against the post-delta
/// ones `J_new ∖ J_old` — each row exactly once, by the first-atom rule
/// of the module docs.
fn stream_delta_join(
    chains: &[JoinChain],
    atom_indexes: &AtomIndexCache,
    atoms: &[Atom],
    deltas: &[RelationDelta],
    side: Side,
    cap: usize,
    sink: &mut impl FnMut(usize, &ColumnRun),
) {
    // Per atom, this side's net tuples of its relation.
    let changed = atoms.iter().map(|atom| {
        match (deltas.iter().find(|d| d.relation == atom.relation), side) {
            (None, _) => &[][..],
            (Some(delta), Side::Inserts) => &delta.inserts,
            (Some(delta), Side::Deletes) => &delta.deletes,
        }
    });
    let mut earlier: Vec<FxHashSet<&Tuple>> = Vec::with_capacity(atoms.len());
    let (mut seed, mut scratch) = (ColumnRun::new(), ChainScratch::default());
    for (a, tuples) in changed.enumerate() {
        if !tuples.is_empty() {
            seed.reset(atoms[a].arity());
            seed.extend_from_tuples(tuples);
            let skip = |b: usize, t: &Tuple| b < a && earlier[b].contains(&t);
            let mut emit = |rows: &ColumnRun| sink(a, rows);
            chains[a].run(0, atom_indexes, &seed, cap, &skip, &mut scratch, &mut emit);
        }
        earlier.push(tuples.iter().collect());
    }
}

/// The count edits of one build or apply: every counted view's columns
/// in every chain's schema, resolved once, and the morsel buffers each
/// edit reuses.
struct CountEdits {
    /// `positions[a]`: per view, plan by plan in
    /// [`PreprocessedViews::edit`] order, the columns of atom `a`'s chain
    /// schema that the view projects (in its ascending variable order).
    positions: Vec<Vec<Vec<usize>>>,
    /// A morsel projected onto one view, row after row.
    rows: Vec<Val>,
    /// [`cqap_common::hash_vals`] of each row of `rows`.
    hashes: Vec<u64>,
}

impl CountEdits {
    fn new(chains: &[JoinChain], plans: &[PreprocessedViews]) -> Self {
        let positions = chains
            .iter()
            .map(|chain| {
                plans
                    .iter()
                    .flat_map(PreprocessedViews::runs)
                    .map(|(_, view)| {
                        chain
                            .schema()
                            .positions_of_set(view.schema().varset())
                            .expect("a view projects the full join")
                    })
                    .collect()
            })
            .collect();
        CountEdits {
            positions,
            rows: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Gives (`Side::Inserts`) or takes (`Side::Deletes`) one support per
    /// row of `rows` (a morsel of atom `a`'s chain) to its projection onto
    /// every (counted) view of every plan — the one hot edit of a delta —
    /// and calls `moved(plan, node, row, entered)` for each view row that
    /// thereby entered or left its view, in row order. Per view the
    /// morsel is projected and hashed once, column by column, and handed
    /// to [`KeyedRows::edit_counts`](cqap_relation::KeyedRows::edit_counts)
    /// as one batch, whose grouped warm passes overlap the edits' cache
    /// misses (see `cqap_relation::keyed_rows`).
    fn shift_counts(
        &mut self,
        a: usize,
        rows: &ColumnRun,
        plans: &mut [PreprocessedViews],
        side: Side,
        moved: &mut impl FnMut(usize, usize, &[Val], bool),
    ) {
        let (edit, entered) = match side {
            Side::Inserts => (CountEdit::Add(1), true),
            Side::Deletes => (CountEdit::Sub(1), false),
        };
        let mut positions = self.positions[a].iter();
        for (p, plan) in plans.iter_mut().enumerate() {
            for (node, view) in plan.edit() {
                let positions = positions.next().expect("views resolved at build or apply");
                rows.project_rows_into(positions, &mut self.rows);
                rows.hash_rows_into(positions, &mut self.hashes);
                view.edit_counts(&self.rows, &self.hashes, edit, |row| {
                    moved(p, node, row, entered)
                });
            }
        }
    }
}

/// Build-once maintenance state for a set of PMTD plans over one
/// database: the per-atom delta chains and the atom-index cache the
/// backend's compiled pipelines answer against. The counted S-views a
/// delta edits are the backend's (see the module docs).
///
/// Cloneable so a copy of an index (the one `CqapIndex::spill` writes)
/// carries its own maintenance lineage; the
/// atom indexes are `Arc`-shared until a delta diverges them (one
/// copy-on-write per touched index).
#[derive(Clone, Debug)]
pub struct DeltaMaintenance {
    chains: Vec<JoinChain>,
    atom_indexes: AtomIndexCache,
    /// Observability seam: apply latency and net-op sizes. Disabled
    /// (free) unless a sink is attached via
    /// [`DeltaMaintenance::set_metrics_sink`]. Clones share the
    /// recorder, so a spilled backend's maintenance lineage keeps
    /// reporting into the same registry.
    sink: MetricsSink,
}

impl DeltaMaintenance {
    /// Compiles, per atom, the delta chain expanding that atom's tuple
    /// deltas to full-join row deltas (its own schema joined with all
    /// other atoms, indexed over `db`), and fills `views` — one plan's
    /// empty counted S-views per element
    /// ([`OnlineYannakakis::counted_views`]) — in one pass over the
    /// streamed full join: the insert of the whole database into an empty
    /// one, whose first atom is always atom 0.
    ///
    /// # Errors
    /// Propagates schema/atom resolution failures.
    pub fn build(cqap: &Cqap, db: &Database, views: &mut [PreprocessedViews]) -> Result<Self> {
        let atoms = cqap.cq().atoms();
        let mut atom_indexes = AtomIndexCache::default();
        let chains = (0..atoms.len())
            .map(|a| {
                let others = (0..atoms.len()).filter(|&b| b != a).collect();
                let start = Schema::new(atoms[a].vars.clone())?;
                JoinChain::compile(db, &mut atom_indexes, atoms, start, others, VarSet::EMPTY)
            })
            .collect::<Result<Vec<_>>>()?;
        let mut seed = ColumnRun::new();
        seed.reset(atoms[0].arity());
        seed.extend_from_tuples(db.relation_or_err(&atoms[0].relation)?.tuples());
        let (no_skip, mut scratch) = (|_, _: &Tuple| false, ChainScratch::default());
        let mut edits = CountEdits::new(&chains, views);
        let mut count = |rows: &ColumnRun| {
            edits.shift_counts(0, rows, views, Side::Inserts, &mut |_, _, _, _| {})
        };
        chains[0].run(0, &atom_indexes, &seed, MORSEL_ROWS, &no_skip, &mut scratch, &mut count);
        Ok(DeltaMaintenance {
            chains,
            atom_indexes,
            sink: MetricsSink::disabled(),
        })
    }

    /// Attaches a metrics sink: [`DeltaMaintenance::apply`] records the
    /// `delta_apply` stage latency and the net insert/delete counters.
    pub fn set_metrics_sink(&mut self, sink: MetricsSink) {
        self.sink = sink;
    }

    /// The live atom indexes the owning backend's compiled pipelines
    /// answer against (see
    /// [`answer_with_compiled`](crate::answer_with_compiled)).
    pub fn atom_indexes(&self) -> &AtomIndexCache {
        &self.atom_indexes
    }

    /// Compiles `evaluator`'s pipeline against this maintenance's atom
    /// indexes (see [`CompiledPmtd::compile`]).
    pub(crate) fn compile<V: SViewProbe>(
        &mut self,
        cqap: &Cqap,
        db: &Database,
        evaluator: &OnlineYannakakis,
        views: &V,
    ) -> Result<CompiledPmtd> {
        CompiledPmtd::compile(cqap, db, evaluator, views, &mut self.atom_indexes)
    }

    /// Applies one batch: streams `ΔJ⁻` against the pre-delta atom
    /// indexes into `views` (the lineage's counted S-views, one element
    /// per plan, as given to [`DeltaMaintenance::build`]), moves `db` and
    /// the atom indexes over the touched relations to the post-delta
    /// state (in place, tuple by tuple), and streams `ΔJ⁺`. Each view row
    /// whose support count crosses zero goes to `moved(plan, node, row,
    /// entered)` as it crosses, for a backend that keeps a second form of
    /// the views (the cold tier's overlays); `views` already holds it. A
    /// row that leaves and returns within the batch is reported both
    /// times, so that backend's edits must net it.
    ///
    /// A batch whose net effect is empty short-circuits: `db`, the
    /// views and the atom indexes are left untouched and nothing moves.
    pub fn apply(
        &mut self,
        cqap: &Cqap,
        db: &mut Database,
        views: &mut [PreprocessedViews],
        batch: &DeltaBatch,
        moved: &mut impl FnMut(usize, usize, &[Val], bool),
    ) -> Result<DeltaStats> {
        let timer = self.sink.start();
        let apply_mark = self.sink.trace_mark_background();
        let deltas = net_effect(db, batch)?;
        let mut stats = DeltaStats::default();
        if deltas.is_empty() {
            self.sink.stop(timer, StageId::DeltaApply);
            self.sink.trace_leaf(apply_mark, TraceStage::DeltaApply, 0);
            return Ok(stats);
        }
        let atoms = cqap.cq().atoms();
        let chains = &self.chains;
        let mut edits = CountEdits::new(chains, views);
        let mut stream = |side: Side, atom_indexes: &AtomIndexCache| {
            let mut count =
                |a: usize, rows: &ColumnRun| edits.shift_counts(a, rows, views, side, moved);
            stream_delta_join(chains, atom_indexes, atoms, &deltas, side, MORSEL_ROWS, &mut count);
        };
        // ΔJ⁻ over the pre-delta database: the view rows that lose their
        // last support leave.
        stream(Side::Deletes, &self.atom_indexes);
        // Net effect into the stored relations and, bucket by bucket,
        // into every atom index over them.
        for delta in &deltas {
            let rel = db.relation_mut(&delta.relation)?;
            stats.deleted += rel.remove_all(&delta.deletes);
            for t in &delta.inserts {
                if rel.insert(t.clone())? {
                    stats.inserted += 1;
                }
            }
            self.atom_indexes
                .apply(&delta.relation, &delta.inserts, &delta.deletes);
        }
        // ΔJ⁺ over the post-delta database: the view rows that gain their
        // first support enter.
        stream(Side::Inserts, &self.atom_indexes);
        self.sink.add(CounterId::DeltaNetInserts, stats.inserted as u64);
        self.sink.add(CounterId::DeltaNetDeletes, stats.deleted as u64);
        self.sink.stop(timer, StageId::DeltaApply);
        self.sink.trace_leaf(
            apply_mark,
            TraceStage::DeltaApply,
            (stats.inserted + stats.deleted) as u64,
        );
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::tests::{assert_each_once, collect, oracle_join, random_db, shapes};
    use cqap_delta::ApplyDelta;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// A batch touching every relation: the streamed `ΔJ⁻` / `ΔJ⁺` are
        /// the oracle's `J_old ∖ J_new` / `J_new ∖ J_old`, each row once —
        /// rows completed by delta tuples of two atoms included — at
        /// every morsel cap.
        #[test]
        fn delta_chains_stream_the_join_delta(seed in 0u64..10_000, edges in 10usize..40) {
            for cqap in shapes() {
                let atoms = cqap.cq().atoms();
                let old_db = random_db(&cqap, 9, edges, seed);
                let fresh = random_db(&cqap, 9, edges / 3 + 2, seed ^ 0xd17a);
                let mut batch = DeltaBatch::new();
                for rel in old_db.relations() {
                    let name = rel.name().to_string();
                    let gone = rel.tuples().iter().skip(seed as usize % 3).step_by(3).cloned();
                    batch = batch
                        .delete(name.clone(), gone.collect())
                        .insert(name.clone(), fresh.relation(&name).unwrap().tuples().to_vec());
                }
                let deltas = net_effect(&old_db, &batch).unwrap();
                let mut new_db = old_db.clone();
                new_db.apply_delta(&batch).unwrap();
                let (j_old, j_new) = (oracle_join(&cqap, &old_db), oracle_join(&cqap, &new_db));
                for cap in [1, 3, MORSEL_ROWS] {
                    let mut m = DeltaMaintenance::build(&cqap, &old_db, &mut []).unwrap();
                    let what = |side: &str| format!("{side} of {} at cap {cap}", cqap.cq().name());
                    let stream = |side: Side, indexes: &AtomIndexCache, target: &Schema| {
                        let mut streamed = Vec::new();
                        let mut sink = collect(target, cap, &mut streamed);
                        stream_delta_join(&m.chains, indexes, atoms, &deltas, side, cap,
                            &mut |a, rows| sink(m.chains[a].schema(), rows));
                        drop(sink);
                        streamed
                    };
                    let minus = stream(Side::Deletes, &m.atom_indexes, j_old.schema());
                    let gone = j_old.iter().filter(|t| !j_new.contains(t));
                    assert_each_once(&minus, gone, &what("ΔJ⁻"));
                    for delta in &deltas {
                        m.atom_indexes.apply(&delta.relation, &delta.inserts, &delta.deletes);
                    }
                    let plus = stream(Side::Inserts, &m.atom_indexes, j_new.schema());
                    let fresh = j_new.iter().filter(|t| !j_old.contains(t));
                    assert_each_once(&plus, fresh, &what("ΔJ⁺"));
                }
            }
        }
    }
}
