//! Compiled delta plans: incremental maintenance of the S-views.
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
//! (Net deltas are disjoint from / contained in the stored relations, so
//! both unions are exact — no overcounting across atoms beyond the set
//! union.) A support count per (plan, materialized node, view tuple)
//! tracks how many J-rows project onto it; a view tuple leaves its S-view
//! when its count reaches zero and enters when it departs from zero.
//!
//! The per-atom join chains are **compiled once at build time** (schemas,
//! key positions, appended columns, atom-index slots — the same
//! pre-resolved shape as the T-view programs of `compiled.rs`) and execute
//! by probing the shared [`AtomIndexCache`].
//!
//! Every step of an apply costs `O(|Δ| + |ΔJ|)`, never `O(|D|)`:
//!
//! * the stored relations absorb the net delta by position-map edits
//!   (`Relation::remove_all` / `insert`);
//! * the atom indexes over a touched relation are **edited in place**
//!   (`HashIndex::{remove_all, insert_all}`, bucket by bucket) between the
//!   ΔJ⁻ and ΔJ⁺ joins — the cache is their single owner, T-view programs
//!   and delta plans only hold slot numbers, so nothing is evicted,
//!   rebuilt or re-shared;
//! * because the compiled pipelines read those live indexes (and probe
//!   the live S-views), a plan is **recompiled only when content folded
//!   into it at compile time is stale**: a static (access-free) bag whose
//!   atoms — or a fallback bag whose full join — read a touched relation
//!   ([`DeltaMaintenance::refresh`]). None of the Figure-1 plans folds
//!   anything, so their deltas recompile nothing.

use std::sync::Arc;

use cqap_common::{FxHashMap, Result, Tuple};
use cqap_delta::{net_effect, DeltaBatch, DeltaStats, RelationDelta};
use cqap_obs::{CounterId, MetricsSink, StageId, TraceStage};
use cqap_query::Cqap;
use cqap_relation::{Database, KeyedRows, Relation, RelationBuilder, Schema};
use cqap_yannakakis::naive::full_join;
use cqap_yannakakis::{OnlineYannakakis, SViewProbe};

use crate::compiled::{AtomIndexCache, CompiledPmtd};

/// One pre-resolved join step of a delta plan: joining the accumulated
/// ΔJ-prefix with one other atom of the query, probing that atom's
/// build-time hash index on the (statically known) shared variables.
#[derive(Clone, Debug)]
struct DeltaStep {
    /// The joined atom's index, keyed on the variables it shares with the
    /// chain schema so far, in the [`AtomIndexCache`].
    slot: usize,
    /// Positions of the shared variables in the chain schema at this step.
    key_positions: Vec<usize>,
    /// Atom-side positions of the columns appended to the chain.
    appended: Vec<usize>,
}

/// The compiled delta plan of one atom: how a batch of that atom's tuple
/// deltas expands to full-join row deltas. Compiled once per atom at
/// index build time; the join order is connectivity-greedy so each step
/// keys on a non-empty shared variable set whenever the query allows it.
#[derive(Clone, Debug)]
struct DeltaProgram {
    /// The delta tuples renamed to the atom's variables.
    schema: Schema,
    steps: Vec<DeltaStep>,
}

impl DeltaProgram {
    fn compile(
        cqap: &Cqap,
        db: &Database,
        a: usize,
        atom_indexes: &mut AtomIndexCache,
    ) -> Result<DeltaProgram> {
        let atoms = cqap.cq().atoms();
        let schema = Schema::new(atoms[a].vars.clone())?;
        let mut chain = schema.clone();
        let mut remaining: Vec<usize> = (0..atoms.len()).filter(|&b| b != a).collect();
        let mut steps = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .position(|&b| {
                    !Schema::new(atoms[b].vars.clone())
                        .map(|s| s.varset().intersect(chain.varset()).is_empty())
                        .unwrap_or(true)
                })
                .unwrap_or(0);
            let b = remaining.remove(pick);
            let b_schema = Schema::new(atoms[b].vars.clone())?;
            let shared = chain.varset().intersect(b_schema.varset());
            let out = chain.join(&b_schema);
            let appended = out.vars()[chain.arity()..]
                .iter()
                .map(|&v| b_schema.position(v).expect("appended var"))
                .collect();
            steps.push(DeltaStep {
                slot: atom_indexes.slot_for(db, &atoms[b], shared)?,
                key_positions: chain.positions_of_set(shared)?,
                appended,
            });
            chain = out;
        }
        Ok(DeltaProgram { schema, steps })
    }

    /// Expands this atom's tuple delta into full-join row deltas by
    /// running the compiled chain against the live atom indexes (which
    /// hold the pre-delta database for ΔJ⁻ and the post-delta one for ΔJ⁺).
    fn exec(&self, tuples: &[Tuple], atom_indexes: &AtomIndexCache) -> Result<Relation> {
        let mut acc =
            Relation::from_tuples("ΔR", self.schema.clone(), tuples.iter().cloned())?;
        for step in &self.steps {
            let index = atom_indexes.index(step.slot);
            let out_schema = acc.schema().join(index.schema());
            // A join of two sets is duplicate-free by construction (the
            // probed tuple is determined by the key plus the appended
            // columns), so the builder skips the dedup set.
            let mut out = RelationBuilder::distinct("ΔJ", out_schema);
            for lt in acc.iter() {
                let key = lt.project(&step.key_positions);
                for rt in index.probe(&key) {
                    out.push(lt.concat_projected(rt, &step.appended));
                }
            }
            acc = out.finish();
        }
        Ok(acc)
    }
}

/// Support counts for one materialized node of one plan: how many
/// full-join rows project onto each stored view tuple — a counted
/// [`KeyedRows`] over the view schema (ascending variable order), the
/// same compact layout as the resident S-view itself.
#[derive(Clone, Debug)]
struct ViewCounts {
    node: usize,
    counts: KeyedRows,
}

/// Which side of a net delta to expand through the delta plans.
#[derive(Clone, Copy)]
enum Side {
    Inserts,
    Deletes,
}

/// The per-plan ΔS-views of one applied batch plus what it changed.
#[derive(Debug, Default)]
pub struct DeltaOutcome {
    /// Net database-level changes (see [`DeltaStats`]).
    pub stats: DeltaStats,
    /// Per plan (index-aligned with the PMTDs the maintenance was built
    /// over), per materialized node: `(node, inserts, deletes)` — the net
    /// view tuples to add and remove from that S-view.
    pub views: Vec<Vec<(usize, Vec<Tuple>, Vec<Tuple>)>>,
    /// Names of the stored relations the batch actually changed; empty
    /// exactly when the batch was a net no-op.
    pub touched: Vec<String>,
}

/// Build-once maintenance state for a set of PMTD plans over one
/// database: compiled per-atom delta plans, per-view support counts, the
/// atom-index cache the backend's compiled pipelines answer against, and
/// whether recompiles need the full join.
///
/// Cloneable so a second backend over the same preprocessing output (the
/// disk spill in `cqap-store`) carries its own maintenance lineage; the
/// atom indexes are `Arc`-shared until a delta diverges them (one
/// copy-on-write per touched index).
#[derive(Clone, Debug)]
pub struct DeltaMaintenance {
    programs: Vec<DeltaProgram>,
    plans: Vec<Vec<ViewCounts>>,
    atom_indexes: AtomIndexCache,
    needs_full: bool,
    /// Observability seam: apply latency, net-op sizes and recompile
    /// counts. Disabled (free) unless a sink is attached via
    /// [`DeltaMaintenance::set_metrics_sink`]. Clones share the
    /// recorder, so a spilled backend's maintenance lineage keeps
    /// reporting into the same registry.
    sink: MetricsSink,
}

impl DeltaMaintenance {
    /// Compiles the delta plans and takes over the support counts:
    /// `counts[i]` holds, per materialized node of plan `i`, the counted
    /// projection of the build-time full join onto that node's view
    /// schema ([`KeyedRows::count_projection`] — the very pass the
    /// S-views came out of). `atom_indexes` is the table the build's
    /// pipelines were compiled against; the delta plans add the join
    /// indexes only they need (built from `db`) and the maintenance takes
    /// ownership. `needs_full` records whether any compiled plan uses the
    /// fallback T-view path, in which case recompiles after a delta must
    /// recompute the full join.
    pub fn build(
        cqap: &Cqap,
        db: &Database,
        counts: Vec<Vec<(usize, KeyedRows)>>,
        mut atom_indexes: AtomIndexCache,
        needs_full: bool,
    ) -> Result<Self> {
        let num_atoms = cqap.cq().atoms().len();
        let mut programs = Vec::with_capacity(num_atoms);
        for a in 0..num_atoms {
            programs.push(DeltaProgram::compile(cqap, db, a, &mut atom_indexes)?);
        }
        let plans = counts
            .into_iter()
            .map(|plan| {
                plan.into_iter()
                    .map(|(node, counts)| ViewCounts { node, counts })
                    .collect()
            })
            .collect();
        Ok(DeltaMaintenance {
            programs,
            plans,
            atom_indexes,
            needs_full,
            sink: MetricsSink::disabled(),
        })
    }

    /// Attaches a metrics sink: [`DeltaMaintenance::apply`] records the
    /// `delta_apply` stage latency and the net insert/delete counters,
    /// and [`DeltaMaintenance::refresh`] counts plan recompilations.
    pub fn set_metrics_sink(&mut self, sink: MetricsSink) {
        self.sink = sink;
    }

    /// Heap bytes the support counts hold (see
    /// [`KeyedRows::heap_bytes`]): the part of the maintenance state that
    /// grows with `S` and stays resident in every lineage, hot or cold.
    /// The atom indexes are `O(|D|)` state outside the `S` accounting,
    /// like the database itself.
    pub fn resident_bytes(&self) -> usize {
        self.plans
            .iter()
            .flatten()
            .map(|vc| vc.counts.heap_bytes())
            .sum()
    }

    /// The live atom indexes the owning backend's compiled pipelines
    /// answer against (see
    /// [`answer_with_compiled`](crate::answer_with_compiled)).
    pub fn atom_indexes(&self) -> &AtomIndexCache {
        &self.atom_indexes
    }

    /// Recompiles, in place, exactly the pipelines a delta over the
    /// `touched` relations left stale, after the backing database and
    /// S-views absorbed it: those that folded content of a touched
    /// relation at compile time (see the module docs). The atom indexes
    /// were already edited in place by [`DeltaMaintenance::apply`], so a
    /// recompile finds every slot it needs. The full join is recomputed
    /// from `db` only when a stale plan actually retains it (fallback
    /// bags); otherwise a cheap empty placeholder stands in, which is
    /// sound because fallback-ness is decided purely from schemas and so
    /// cannot change between builds over the same CQAP and PMTDs.
    ///
    /// # Errors
    /// Propagates recompilation failures.
    pub fn refresh<'a, V: SViewProbe + 'a>(
        &mut self,
        cqap: &Cqap,
        db: &Database,
        touched: &[String],
        plans: impl IntoIterator<Item = (&'a OnlineYannakakis, &'a V, &'a mut Arc<CompiledPmtd>)>,
    ) -> Result<()> {
        let mut full: Option<Relation> = None;
        for (evaluator, views, compiled) in plans {
            if !compiled.is_stale_after(touched) {
                continue;
            }
            if full.is_none() {
                full = Some(if self.needs_full {
                    full_join(cqap, db)?
                } else {
                    Relation::new("J∅", Schema::empty())
                });
            }
            let full = full.as_ref().expect("just computed");
            self.sink.incr(CounterId::PlanRecompiles);
            *compiled = Arc::new(CompiledPmtd::compile(
                cqap,
                db,
                evaluator,
                views,
                full,
                &mut self.atom_indexes,
            )?);
        }
        Ok(())
    }

    /// Applies one batch: computes `ΔJ⁻` against the pre-delta atom
    /// indexes, moves `db` and the atom indexes over the touched
    /// relations to the post-delta state (in place, tuple by tuple),
    /// computes `ΔJ⁺`, updates the support counts, and returns the
    /// per-plan net ΔS-views for the caller's backend to absorb.
    ///
    /// A batch whose net effect is empty short-circuits: `db`, the
    /// counts and the atom indexes are left untouched and the outcome
    /// carries no view deltas.
    pub fn apply(
        &mut self,
        cqap: &Cqap,
        db: &mut Database,
        batch: &DeltaBatch,
    ) -> Result<DeltaOutcome> {
        let timer = self.sink.start();
        let apply_mark = self.sink.trace_mark_background();
        let deltas = net_effect(db, batch)?;
        if deltas.is_empty() {
            self.sink.stop(timer, StageId::DeltaApply);
            self.sink.trace_leaf(apply_mark, TraceStage::DeltaApply, 0);
            return Ok(DeltaOutcome::default());
        }
        // ΔJ⁻ over the pre-delta database.
        let minus = self.delta_join(cqap, &deltas, Side::Deletes)?;
        // Net effect into the stored relations and, bucket by bucket,
        // into every atom index over them.
        let mut stats = DeltaStats::default();
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
        let touched: Vec<String> = deltas.iter().map(|d| d.relation.clone()).collect();
        // ΔJ⁺ over the post-delta database.
        let plus = self.delta_join(cqap, &deltas, Side::Inserts)?;
        // Support-count transitions → net ΔS-views per plan and node.
        let mut views = Vec::with_capacity(self.plans.len());
        for plan in &mut self.plans {
            let mut per_plan = Vec::with_capacity(plan.len());
            for vc in plan.iter_mut() {
                let vars = vc.counts.schema().varset();
                let mut shifts: FxHashMap<Tuple, i64> = FxHashMap::default();
                if let Some(minus) = &minus {
                    let positions = minus.schema().positions_of_set(vars)?;
                    for t in minus.iter() {
                        *shifts.entry(t.project(&positions)).or_insert(0) -= 1;
                    }
                }
                if let Some(plus) = &plus {
                    let positions = plus.schema().positions_of_set(vars)?;
                    for t in plus.iter() {
                        *shifts.entry(t.project(&positions)).or_insert(0) += 1;
                    }
                }
                let mut ins = Vec::new();
                let mut del = Vec::new();
                for (key, shift) in shifts {
                    let by = u32::try_from(shift.unsigned_abs())
                        .expect("support count shift overflows u32");
                    if shift > 0 && vc.counts.add(key.as_slice(), by) {
                        ins.push(key);
                    } else if shift < 0 && vc.counts.sub(key.as_slice(), by) {
                        del.push(key);
                    }
                }
                per_plan.push((vc.node, ins, del));
            }
            views.push(per_plan);
        }
        self.sink.add(CounterId::DeltaNetInserts, stats.inserted as u64);
        self.sink.add(CounterId::DeltaNetDeletes, stats.deleted as u64);
        self.sink.stop(timer, StageId::DeltaApply);
        self.sink.trace_leaf(
            apply_mark,
            TraceStage::DeltaApply,
            (stats.inserted + stats.deleted) as u64,
        );
        Ok(DeltaOutcome {
            stats,
            views,
            touched,
        })
    }

    /// `⋃_a ΔR_a ⋈ (other atoms over db)` for one side of the net deltas:
    /// the exact set of full-join rows the batch removes (`Deletes`, run
    /// against the pre-delta database) or adds (`Inserts`, post-delta).
    fn delta_join(
        &self,
        cqap: &Cqap,
        deltas: &[RelationDelta],
        side: Side,
    ) -> Result<Option<Relation>> {
        let atoms = cqap.cq().atoms();
        let mut acc: Option<Relation> = None;
        for (a, atom) in atoms.iter().enumerate() {
            let Some(delta) = deltas.iter().find(|d| d.relation == atom.relation) else {
                continue;
            };
            let tuples = match side {
                Side::Inserts => &delta.inserts,
                Side::Deletes => &delta.deletes,
            };
            if tuples.is_empty() {
                continue;
            }
            let part = self.programs[a].exec(tuples, &self.atom_indexes)?;
            acc = Some(match acc {
                None => part,
                Some(prev) => prev.union_with(part)?,
            });
        }
        Ok(acc)
    }
}
