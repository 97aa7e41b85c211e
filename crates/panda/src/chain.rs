//! The one join chain of the framework driver.
//!
//! Every production join of this crate has one shape: rows over a start
//! schema are extended, atom by atom, by probing that atom's
//! [`HashIndex`](cqap_relation::HashIndex) on the variables it shares with
//! the row so far. A [`JoinChain`] is that shape compiled once, by one
//! compiler ([`JoinChain::compile`]), and run by one executor
//! ([`JoinChain::run`]) for three callers: the **T-view programs** of
//! `compiled.rs` (seed: the request; sink: the T-view's run), **delta
//! maintenance** in `delta.rs` (seed: an atom's net tuples; sink: the
//! views' support counts), and the **build**, which is that maintenance
//! from empty (seed: all of `R₀`).
//!
//! The executor works **depth-first in bounded morsels**: a step hands its
//! output on after at most `cap` rows, so a run's transient state is
//! `#steps × cap × width` values whatever the hub degrees — neither the
//! full join nor a join delta is ever held.

use cqap_common::{Result, Tuple, Val};
use cqap_query::Atom;
use cqap_relation::{Database, Schema};
use cqap_yannakakis::ColumnRun;

use crate::compiled::AtomIndexCache;

/// Rows a chain step collects before handing them on: what every
/// production caller of [`JoinChain::run`] passes as `cap` (tests pass 1).
pub(crate) const MORSEL_ROWS: usize = 4096;

/// One pre-resolved join of the running row with one atom, whose relation
/// is indexed on the variables it shares with the chain schema so far.
#[derive(Clone, Debug)]
struct JoinStep {
    /// The joined atom's position among the query's atoms.
    atom: usize,
    /// The atom's index in the [`AtomIndexCache`] of the owning backend.
    slot: usize,
    /// Shared-variable positions in the chain schema at this step.
    key_positions: Vec<usize>,
    /// Atom-side positions of the columns appended to the row.
    appended: Vec<usize>,
}

/// A compiled join of a run of start rows with a list of atoms.
#[derive(Clone, Debug)]
pub(crate) struct JoinChain {
    steps: Vec<JoinStep>,
    /// The schema of the rows the last step emits.
    schema: Schema,
}

/// The reusable buffers of [`JoinChain::run`]: one output run per step.
#[derive(Debug, Default)]
pub(crate) struct ChainScratch {
    levels: Vec<ColumnRun>,
    key_vals: Vec<Val>,
}

impl JoinChain {
    /// Compiles the join of rows over `start` with the atoms `join`
    /// (positions in `atoms`, the query's atom list). The order is
    /// connectivity-greedy — the first remaining atom sharing a variable
    /// with the chain so far — so a step keys on a non-empty variable set
    /// whenever the query allows it. Index slots are looked up, or built
    /// from `db`, in `atom_indexes`.
    ///
    /// # Errors
    /// Propagates schema/atom resolution failures.
    pub(crate) fn compile(
        db: &Database,
        atom_indexes: &mut AtomIndexCache,
        atoms: &[Atom],
        start: Schema,
        mut join: Vec<usize>,
    ) -> Result<JoinChain> {
        let mut schema = start;
        let mut steps = Vec::with_capacity(join.len());
        while !join.is_empty() {
            let pick = join
                .iter()
                .position(|&b| !atoms[b].varset().is_disjoint(schema.varset()))
                .unwrap_or(0);
            let atom = join.remove(pick);
            let atom_schema = Schema::new(atoms[atom].vars.clone())?;
            let shared = schema.varset().intersect(atom_schema.varset());
            let out = schema.join(&atom_schema);
            let appended = out.vars()[schema.arity()..]
                .iter()
                .map(|&v| atom_schema.position(v).expect("appended var"))
                .collect();
            steps.push(JoinStep {
                atom,
                slot: atom_indexes.slot_for(db, &atoms[atom], shared)?,
                key_positions: schema.positions_of_set(shared)?,
                appended,
            });
            schema = out;
        }
        Ok(JoinChain { steps, schema })
    }

    /// The schema of the rows handed to the sink.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Joins the `input` rows (callers pass the seed and `depth` 0) through
    /// the steps from `depth` on against the live `atom_indexes`, handing
    /// the result to `sink` in runs of at most `cap` rows: a step's matches
    /// move on to the next step whenever `cap` of them have collected, and
    /// once more at the end of the input. `skip(atom, tuple)` drops a probed
    /// tuple at the step joining `atom` — delta maintenance's first-atom
    /// rule; every other caller skips nothing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        depth: usize,
        atom_indexes: &AtomIndexCache,
        input: &ColumnRun,
        cap: usize,
        skip: &impl Fn(usize, &Tuple) -> bool,
        scratch: &mut ChainScratch,
        sink: &mut impl FnMut(&ColumnRun),
    ) {
        let Some(step) = self.steps.get(depth) else {
            return sink(input);
        };
        if scratch.levels.len() <= depth {
            scratch.levels.push(ColumnRun::new());
        }
        let mut out = std::mem::take(&mut scratch.levels[depth]);
        let index = atom_indexes.index(step.slot);
        let width = input.width() + step.appended.len();
        out.reset(width);
        for r in 0..input.rows() {
            // The key tuple is the only row-shaped value, and it stays inline.
            input.project_row_into(r, &step.key_positions, &mut scratch.key_vals);
            let key = Tuple::from_slice(&scratch.key_vals);
            for rt in index.probe(&key) {
                if skip(step.atom, rt) {
                    continue;
                }
                out.push_join_row(input, r, rt.as_slice(), &step.appended);
                if out.rows() >= cap {
                    self.run(depth + 1, atom_indexes, &out, cap, skip, scratch, sink);
                    out.reset(width);
                }
            }
        }
        if !out.is_empty() {
            self.run(depth + 1, atom_indexes, &out, cap, skip, scratch, sink);
        }
        scratch.levels[depth] = out;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cqap_common::{FxHashSet, VarSet};
    use cqap_query::families::{k_path_distinct, square};
    use cqap_query::workload::Graph;
    use cqap_query::{ConjunctiveQuery, Cqap};
    use cqap_relation::Relation;
    use cqap_yannakakis::naive::full_join;
    use proptest::prelude::*;

    /// A query over binary atoms; the access pattern plays no part here.
    fn query(name: &str, num_vars: usize, atoms: &[(&str, [usize; 2])]) -> Cqap {
        let atoms = atoms
            .iter()
            .map(|(relation, vars)| Atom::new(*relation, vars.to_vec()).unwrap())
            .collect();
        let cq = ConjunctiveQuery::new(name, num_vars, atoms, VarSet::from_iter([0])).unwrap();
        Cqap::new(cq, VarSet::from_iter([0])).unwrap()
    }

    /// The four shapes: a path, a self-join, a cycle, and a query whose
    /// last atom shares no variable with the rest (an empty join key).
    pub(crate) fn shapes() -> Vec<Cqap> {
        vec![
            k_path_distinct(3),
            query("self_join", 3, &[("E", [0, 1]), ("E", [1, 2])]),
            square(true),
            query("apart", 5, &[("R1", [0, 1]), ("R2", [1, 2]), ("U", [3, 4])]),
        ]
    }

    /// One random edge set per stored relation of `cqap`.
    pub(crate) fn random_db(cqap: &Cqap, vertices: usize, edges: usize, seed: u64) -> Database {
        let mut db = Database::new();
        for (i, name) in cqap.cq().relation_names().into_iter().enumerate() {
            let graph = Graph::random(vertices, edges, seed + i as u64);
            db.add_relation(Relation::binary(name.to_string(), 0, 1, graph.edges))
                .unwrap();
        }
        db
    }

    /// The oracle's materialized full join the streamed rows are held to.
    pub(crate) fn oracle_join(cqap: &Cqap, db: &Database) -> Relation {
        full_join(cqap, db).unwrap()
    }

    /// A sink collecting every streamed row, in `target`'s column order,
    /// after checking the morsel respects the cap.
    pub(crate) fn collect<'a>(
        target: &'a Schema,
        cap: usize,
        out: &'a mut Vec<Tuple>,
    ) -> impl FnMut(&Schema, &ColumnRun) + 'a {
        move |schema, rows| {
            assert!(
                (1..=cap).contains(&rows.rows()),
                "a morsel of {} rows",
                rows.rows()
            );
            let positions = schema.positions_of(target.vars()).unwrap();
            let mut row = Vec::new();
            for r in 0..rows.rows() {
                rows.project_row_into(r, &positions, &mut row);
                out.push(Tuple::from_slice(&row));
            }
        }
    }

    /// `streamed` is exactly `expected`, each row once.
    pub(crate) fn assert_each_once<'a>(
        streamed: &[Tuple],
        expected: impl Iterator<Item = &'a Tuple>,
        what: &str,
    ) {
        let expected: FxHashSet<&Tuple> = expected.collect();
        let distinct: FxHashSet<&Tuple> = streamed.iter().collect();
        assert_eq!(
            distinct.len(),
            streamed.len(),
            "{what}: a row was streamed twice"
        );
        assert_eq!(distinct, expected, "{what}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Atom 0's chain seeded with all of `R₀` streams the oracle's
        /// full join, each row once, whatever the morsel cap.
        #[test]
        fn atom_zero_chain_streams_the_full_join(seed in 0u64..10_000, edges in 10usize..45) {
            for cqap in shapes() {
                let db = random_db(&cqap, 9, edges, seed);
                let full = oracle_join(&cqap, &db);
                let atoms = cqap.cq().atoms();
                let mut atom_indexes = AtomIndexCache::default();
                let start_schema = Schema::new(atoms[0].vars.clone()).unwrap();
                let others = (1..atoms.len()).collect();
                let chain =
                    JoinChain::compile(&db, &mut atom_indexes, atoms, start_schema, others).unwrap();
                let mut start = ColumnRun::new();
                start.reset(atoms[0].arity());
                start.extend_from_tuples(db.relation(&atoms[0].relation).unwrap().tuples());
                for cap in [1, 3, MORSEL_ROWS] {
                    let mut streamed = Vec::new();
                    let mut sink = collect(full.schema(), cap, &mut streamed);
                    chain.run(
                        0,
                        &atom_indexes,
                        &start,
                        cap,
                        &|_, _| false,
                        &mut ChainScratch::default(),
                        &mut |rows| sink(chain.schema(), rows),
                    );
                    drop(sink);
                    assert_each_once(&streamed, full.iter(), &format!("{} at cap {cap}", cqap.cq().name()));
                }
            }
        }
    }
}
