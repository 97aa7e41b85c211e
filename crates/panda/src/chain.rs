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
//!
//! **Join order and the preference set.** The order is connectivity-greedy:
//! the first remaining atom sharing a variable with the chain so far. Every
//! chain above starts from rows whose variables are all *bound by the seed's
//! source* (a request's access variables, an atom's own tuple), and is
//! compiled with an **empty preference set**: first-connected order, one
//! slot per (atom, shared variables), exactly the chains this module has
//! always produced. The fourth caller — a T-view program's **link-seeded**
//! chain (`compiled.rs`), whose seed is the distinct link keys of the
//! parent T-view's run — passes the start variables the request does *not*
//! bind. A request-bound variable has one value across the whole seed, so
//! expanding from it repeats the same hub expansion once per key; the
//! compiler therefore prefers, among connected atoms, one touching a
//! preferred variable, and every variable a step binds joins the
//! preference (start `{x1,x3}` with `x1` request-bound joins `R2` by `x3`
//! first and meets `R1(x1,x2)` with both variables bound, instead of
//! opening all of `x1`'s out-edges under every key).
//!
//! **The membership step.** A step that finds its atom's variables all
//! bound appends nothing: it is a membership test. A link-seeded chain is a
//! program's *second* chain over atoms the first already indexed, so such a
//! step **borrows** an existing slot over the same atom — the one with the
//! smallest maximum degree, keyed on part of the bound variables — and
//! compares the remaining columns while walking the bucket
//! ([`JoinStep::checks`], the chain-side twin of the plan IR's
//! `ProbeJoin::{left_extra, rel_extra}`), rather than adding an
//! `O(|D|)`-sized slot of one-tuple buckets for every delta batch to edit.
//! It builds a slot only when the cache holds none over that atom.

use cqap_common::{work, Result, Tuple, Val, VarSet};
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
    /// Positions, in the chain schema at this step, of the variables the
    /// slot is keyed on: the shared variables, or part of them when a
    /// membership step borrowed the slot.
    key_positions: Vec<usize>,
    /// `(row position, tuple position)` of the shared variables the slot
    /// is *not* keyed on, compared per probed tuple. Empty unless the slot
    /// was borrowed.
    checks: Vec<(usize, usize)>,
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
    /// connectivity-greedy — the first remaining atom touching a variable
    /// of `prefer` (which every step's appended variables then join), else
    /// the first sharing any variable with the chain so far — so a step
    /// keys on a non-empty variable set whenever the query allows it. With
    /// `prefer` empty the order is first-connected and every step gets the
    /// slot keyed on exactly its shared variables; a non-empty `prefer`
    /// marks a link-seeded chain, whose membership steps borrow a slot
    /// (see the module docs). Index slots are looked up, or built from
    /// `db`, in `atom_indexes`.
    ///
    /// # Errors
    /// Propagates schema/atom resolution failures.
    pub(crate) fn compile(
        db: &Database,
        atom_indexes: &mut AtomIndexCache,
        atoms: &[Atom],
        start: Schema,
        mut join: Vec<usize>,
        mut prefer: VarSet,
    ) -> Result<JoinChain> {
        let link_seeded = !prefer.is_empty();
        let mut schema = start;
        let mut steps = Vec::with_capacity(join.len());
        while !join.is_empty() {
            let touching =
                |vars: VarSet| join.iter().position(|&b| !atoms[b].varset().is_disjoint(vars));
            let pick = touching(prefer)
                .or_else(|| touching(schema.varset()))
                .unwrap_or(0);
            let atom = join.remove(pick);
            let atom_schema = Schema::new(atoms[atom].vars.clone())?;
            let shared = schema.varset().intersect(atom_schema.varset());
            let out = schema.join(&atom_schema);
            let appended: Vec<usize> = out.vars()[schema.arity()..]
                .iter()
                .map(|&v| atom_schema.position(v).expect("appended var"))
                .collect();
            let borrowed = if link_seeded && appended.is_empty() {
                atom_indexes.lightest_slot_over(&atoms[atom])
            } else {
                None
            };
            let slot = match borrowed {
                Some(slot) => slot,
                None => atom_indexes.slot_for(db, &atoms[atom], shared)?,
            };
            let key = atom_indexes.index(slot).key_vars();
            let checks = shared
                .difference(key)
                .iter()
                .map(|v| {
                    let both = schema.position(v).zip(atom_schema.position(v));
                    both.expect("a shared variable")
                })
                .collect();
            steps.push(JoinStep {
                atom,
                slot,
                key_positions: schema.positions_of_set(key)?,
                checks,
                appended,
            });
            if link_seeded {
                prefer = prefer.union(out.varset().difference(schema.varset()));
            }
            schema = out;
        }
        Ok(JoinChain { steps, schema })
    }

    /// The schema of the rows handed to the sink.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// How many tuples the first step would walk for row `r` of a seed
    /// `input`: one degree lookup in the live index, nothing expanded (0
    /// for a chain without steps), counted as one probe of `T`. What a
    /// T-view program weighs its two seeds by.
    pub(crate) fn first_fanout(
        &self,
        atom_indexes: &AtomIndexCache,
        input: &ColumnRun,
        r: usize,
        scratch: &mut ChainScratch,
    ) -> usize {
        let Some(step) = self.steps.first() else {
            return 0;
        };
        work::add(1, 0);
        input.project_row_into(r, &step.key_positions, &mut scratch.key_vals);
        let key = Tuple::from_slice(&scratch.key_vals);
        atom_indexes.index(step.slot).degree(&key)
    }

    /// Joins the `input` rows (callers pass the seed and `depth` 0) through
    /// the steps from `depth` on against the live `atom_indexes`, handing
    /// the result to `sink` in runs of at most `cap` rows: a step's matches
    /// move on to the next step whenever `cap` of them have collected, and
    /// once more at the end of the input. A probed tuple failing the step's
    /// `checks` is no match. `skip(atom, tuple)` drops a probed tuple at
    /// the step joining `atom` — delta maintenance's first-atom rule; every
    /// other caller skips nothing. Each step records its `T`: one probe per
    /// input row and every row it emits as a scan, so a row a later
    /// membership step drops still counts as the work it was.
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
        let mut emitted = 0;
        for r in 0..input.rows() {
            // The key tuple is the only row-shaped value, and it stays inline.
            input.project_row_into(r, &step.key_positions, &mut scratch.key_vals);
            let key = Tuple::from_slice(&scratch.key_vals);
            for rt in index.probe(&key) {
                let unequal = |&(at, in_tuple): &(usize, usize)| input.col(at)[r] != rt.get(in_tuple);
                if step.checks.iter().any(unequal) || skip(step.atom, rt) {
                    continue;
                }
                out.push_join_row(input, r, rt.as_slice(), &step.appended);
                if out.rows() >= cap {
                    emitted += out.rows();
                    self.run(depth + 1, atom_indexes, &out, cap, skip, scratch, sink);
                    out.reset(width);
                }
            }
        }
        if !out.is_empty() {
            emitted += out.rows();
            self.run(depth + 1, atom_indexes, &out, cap, skip, scratch, sink);
        }
        work::add(input.rows() as u64, emitted as u64);
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

    /// The order `JoinChain::compile` produced before it took a preference
    /// set: the first remaining atom sharing a variable with the chain so
    /// far.
    fn first_connected_order(atoms: &[Atom], start: VarSet, mut join: Vec<usize>) -> Vec<usize> {
        let (mut bound, mut order) = (start, Vec::new());
        while !join.is_empty() {
            let connected = join.iter().position(|&b| !atoms[b].varset().is_disjoint(bound));
            let atom = join.remove(connected.unwrap_or(0));
            bound = bound.union(atoms[atom].varset());
            order.push(atom);
        }
        order
    }

    #[test]
    fn an_empty_preference_reproduces_every_existing_chain() {
        for cqap in shapes() {
            let atoms = cqap.cq().atoms();
            let db = random_db(&cqap, 9, 30, 7);
            let mut atom_indexes = AtomIndexCache::default();
            // The delta chains (atom a's tuples joined with the rest) and
            // a request-seeded chain over every atom.
            let mut starts: Vec<(Schema, Vec<usize>)> = (0..atoms.len())
                .map(|a| {
                    let others = (0..atoms.len()).filter(|&b| b != a).collect();
                    (Schema::new(atoms[a].vars.clone()).unwrap(), others)
                })
                .collect();
            starts.push((Schema::of(cqap.access().iter()), (0..atoms.len()).collect()));
            for (start, join) in starts {
                let expected = first_connected_order(atoms, start.varset(), join.clone());
                let mut bound = start.varset();
                let chain =
                    JoinChain::compile(&db, &mut atom_indexes, atoms, start, join, VarSet::EMPTY)
                        .unwrap();
                let order: Vec<usize> = chain.steps.iter().map(|s| s.atom).collect();
                assert_eq!(order, expected, "{}", cqap.cq().name());
                // One slot per (atom, shared variables), nothing borrowed.
                for step in &chain.steps {
                    let shared = bound.intersect(atoms[step.atom].varset());
                    assert_eq!(atom_indexes.index(step.slot).key_vars(), shared);
                    assert!(step.checks.is_empty());
                    bound = bound.union(atoms[step.atom].varset());
                }
            }
        }
    }

    /// The link-seeded `T123` chain of `(T134, T123)`: start `{x1,x3}` with
    /// `x1` request-bound goes `R2` by `x3` first and closes on `R1(x1,x2)`
    /// as a membership step over a borrowed slot — the lighter of the two
    /// the request-seeded and delta chains already keep — and streams
    /// exactly the 2-paths between its keys.
    #[test]
    fn a_link_seeded_chain_expands_from_the_unbound_variable_and_borrows_its_membership_slot() {
        let cqap = k_path_distinct(3);
        let atoms = cqap.cq().atoms();
        let graph = Graph::skewed(30, 140, 2, 20, 5);
        let db = graph.as_path_database(3);
        let mut atom_indexes = AtomIndexCache::default();
        let two_path = vec![0, 1];
        // What is there before: `R1` by `x1` (the request-seeded program)
        // and `R1` by `x2` (a delta chain), `R2` by `x2` and by `x3`.
        let x1 = Schema::of(VarSet::singleton(0).iter());
        JoinChain::compile(&db, &mut atom_indexes, atoms, x1, two_path.clone(), VarSet::EMPTY)
            .unwrap();
        let r3 = Schema::new(atoms[2].vars.clone()).unwrap();
        JoinChain::compile(&db, &mut atom_indexes, atoms, r3, two_path.clone(), VarSet::EMPTY)
            .unwrap();
        let slots_before = atom_indexes.entries().count();
        assert_eq!(slots_before, 4);

        let link = VarSet::from_iter([0, 2]);
        let chain = JoinChain::compile(
            &db,
            &mut atom_indexes,
            atoms,
            Schema::of(link.iter()),
            two_path,
            VarSet::singleton(2),
        )
        .unwrap();
        assert_eq!(atom_indexes.entries().count(), slots_before, "no new O(|D|) slot");
        let order: Vec<usize> = chain.steps.iter().map(|s| s.atom).collect();
        assert_eq!(order, [1, 0], "R2 by x3, then R1 as a membership step");
        assert_eq!(chain.schema.vars(), &[0, 2, 1]);
        let closing = &chain.steps[1];
        let borrowed = atom_indexes.index(closing.slot);
        assert_eq!(closing.checks.len(), 1);
        assert!(closing.appended.is_empty());
        let by = |v| {
            let over_r1 = |(relation, _, index): &(&str, &[usize], &cqap_relation::HashIndex)| {
                *relation == "R1" && index.key_vars() == VarSet::singleton(v)
            };
            atom_indexes.entries().find(over_r1).expect("R1 slot").2.max_degree()
        };
        assert_eq!(borrowed.max_degree(), by(0).min(by(1)));

        // All (x1, x3) pairs as keys: the chain streams every 2-path once.
        let two_paths = db.relation("R1").unwrap().join(db.relation("R2").unwrap()).unwrap();
        let keys = two_paths.project_onto(link).unwrap();
        let mut seed = ColumnRun::new();
        seed.reset(2);
        seed.extend_from_tuples(keys.tuples());
        for cap in [1, MORSEL_ROWS] {
            let mut streamed = Vec::new();
            let mut sink = collect(two_paths.schema(), cap, &mut streamed);
            let no_skip = |_, _: &Tuple| false;
            let mut scratch = ChainScratch::default();
            chain.run(0, &atom_indexes, &seed, cap, &no_skip, &mut scratch, &mut |rows| {
                sink(chain.schema(), rows)
            });
            drop(sink);
            assert_each_once(&streamed, two_paths.iter(), "link-seeded 2-paths");
        }
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
                    JoinChain::compile(&db, &mut atom_indexes, atoms, start_schema, others, VarSet::EMPTY)
                        .unwrap();
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
