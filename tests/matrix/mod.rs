//! The equivalence matrix: every fixture × backend × phase answers exactly
//! like the naive oracle.
//!
//! The framework's one claim about the online phase is that, for every
//! CQAP and every PMTD set, a request's answer is `φ(Q_A)` evaluated from
//! scratch. A [`Fixture`] is one row of the matrix; [`Fixture::run`] runs
//! it on every backend in every phase against `naive_answer`, and
//! [`Fixture::run_only`] runs a slice of it:
//!
//! * **Fixture** — every PMTD set of PAPER.md's fixture table, and the
//!   shapes those lack: the self-join 2-path, the open-head 2-path (S-views
//!   keyed by a proper part of their rows), an S-view under an S-view,
//!   `(T1245, T234)`'s access-free bag alone, and an uncovered bag under
//!   `{x1, x5}` and under the empty access pattern.
//! * **Backend** ([`Column`]) — a resident and a spilled `CqapIndex` (and,
//!   for a set, one of each per PMTD: a set index builds only its
//!   cheapest PMTD, so only these cells build the others), all-hot
//!   `ShardedIndex` deployments of 1 and 3 shards, a `[Hot, Cold, Cold]`
//!   one rotated by the seed, a `ServeRuntime` over the resident index and
//!   one over the 3-shard index, and a `ShardRouter`.
//! * **Phase** ([`Phase`]) — *built*; *maintained*: the built backends
//!   absorb a delta stream round by round (a real change, a cancel-and-no-op
//!   round, an empty batch, the undo of the first round); *grown*: built
//!   over the empty database, then absorbing the whole database as one
//!   batch.
//!
//! One seeded generator makes every fixture's database — random tuples at
//! each atom's arity over a small skewed domain, stored under positional
//! schemas `0..arity`, so an atom like `R4(x4, x1)` reads its variables by
//! position, not by the stored labels — its requests and its delta rounds
//! (the hierarchical row alone draws its database from a dense cube, on
//! which its two-seeded programs take both sides). Maintained and grown
//! cells also equal a rebuild over the current database on every backend
//! that exposes its indexes: S-view space, support counts, every shard's
//! stored relations, and every atom index equal to `HashIndex::build` over
//! them. Spilled runs stay under 8 bytes a value, and spilled indexes
//! compact after the second maintained round.
//!
//! Each test file that includes this module uses part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use cqap_suite::common::{vars, Tuple, Val, VarSet};
use cqap_suite::decomp::families;
use cqap_suite::delta::{ApplyDelta, DeltaBatch, DeltaStats};
use cqap_suite::panda::instrument;
use cqap_suite::prelude::*;
use cqap_suite::query::families::k_path_distinct;
use cqap_suite::query::Atom;
use cqap_suite::relation::HashIndex;
use cqap_suite::shard::{ShardRouter, ShardTier, ShardedIndex};
use cqap_suite::store::scratch_dir;
use cqap_suite::yannakakis::naive::full_join;

/// The value every variable `v` takes, plus `v`, in the fresh valuation the
/// first delta round inserts: far outside every generated domain, so it
/// adds exactly one new join row.
pub const FRESH: Val = 1_000_000;

/// The two seeds every row runs at.
pub const SEEDS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xD1B5_4A32_D192_ED03];

/// A column group of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// The resident `CqapIndex` over the whole set.
    Resident,
    /// The same index spilled to disk.
    Spilled,
    /// One resident and one spilled index per PMTD of a set of two or more.
    PerPmtd,
    /// All-hot `ShardedIndex` deployments of 1 and 3 shards.
    Sharded,
    /// A 3-shard `[Hot, Cold, Cold]` deployment rotated by the seed.
    Tiered,
    /// A `ServeRuntime` over the resident index and one over 3 shards.
    Served,
    /// A `ShardRouter` over 3 shards.
    Routed,
}

impl Column {
    pub const ALL: &'static [Column] = &[
        Column::Resident,
        Column::Spilled,
        Column::PerPmtd,
        Column::Sharded,
        Column::Tiered,
        Column::Served,
        Column::Routed,
    ];
}

/// A phase of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Built,
    Maintained,
    Grown,
}

impl Phase {
    pub const ALL: &'static [Phase] = &[Phase::Built, Phase::Maintained, Phase::Grown];
}

/// A xorshift stream: every fixture's database, requests and deltas.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A value of `0..domain`, skewed so the low values are hubs.
    fn skewed(&mut self, domain: u64) -> Val {
        let u = self.below(1 << 16);
        (domain * u * u) >> 32
    }

    fn tuple(&mut self, arity: usize, domain: u64) -> Tuple {
        Tuple::from_slice(&(0..arity).map(|_| self.skewed(domain)).collect::<Vec<_>>())
    }
}

/// One row of the matrix: a CQAP, its PMTD set and the size of its data.
pub struct Fixture {
    pub name: &'static str,
    pub cqap: Cqap,
    pub pmtds: Vec<Pmtd>,
    domain: u64,
    tuples: usize,
    /// Whether the per-PMTD resident cells, summed, must run a two-seeded
    /// T-view program from the request *and* from its parent's link keys,
    /// in every check of every phase (so a slice of such a row selects
    /// [`Column::PerPmtd`]).
    both_seeds: bool,
    /// Makes the row's database: [`Fixture::random_database`] but for a
    /// row whose shape needs a particular one.
    database: fn(&Fixture, &mut Rng) -> Database,
    /// Asserts, on the resident set index as built (`None`) and on each
    /// per-PMTD resident cell as built (`Some(p)`), that the fixture
    /// reaches the shape it is here for.
    shape: fn(Option<usize>, &CqapIndex),
}

impl Fixture {
    fn new(
        name: &'static str,
        (cqap, pmtds): (Cqap, Vec<Pmtd>),
        domain: u64,
        tuples: usize,
    ) -> Self {
        Fixture {
            name,
            cqap,
            pmtds,
            domain,
            tuples,
            both_seeds: false,
            database: Fixture::random_database,
            shape: |_, _| {},
        }
    }

    pub fn pmtds_2reach() -> Self {
        Fixture::new("pmtds_2reach", families::pmtds_2reach().unwrap(), 14, 45)
    }

    pub fn pmtds_3reach_fig1() -> Self {
        let pmtds = families::pmtds_3reach_fig1().unwrap();
        Fixture::new("pmtds_3reach_fig1", pmtds, 14, 40)
    }

    pub fn pmtds_3reach_all() -> Self {
        let pmtds = families::pmtds_3reach_all().unwrap();
        Fixture {
            both_seeds: true,
            ..Fixture::new("pmtds_3reach_all", pmtds, 14, 40)
        }
    }

    pub fn pmtds_4reach() -> Self {
        Fixture {
            both_seeds: true,
            ..Fixture::new("pmtds_4reach", families::pmtds_4reach().unwrap(), 12, 30)
        }
    }

    pub fn pmtds_square() -> Self {
        Fixture::new("pmtds_square", families::pmtds_square().unwrap(), 10, 35)
    }

    pub fn pmtds_kset_2() -> Self {
        Fixture::new("pmtds_kset(2)", families::pmtds_kset(2).unwrap(), 12, 40)
    }

    pub fn pmtds_triangle() -> Self {
        Fixture::new("pmtds_triangle", families::pmtds_triangle().unwrap(), 8, 30)
    }

    /// `R(x,y1,z1), S(x,y1,z2), T(x,y2,z3), U(x,y2,z4)`, each relation
    /// three quarters of the cells `x < 6, y < 3, z < 4`: a binding of `Z`
    /// keeps several `x`, so the request is the cheaper seed of the
    /// children's programs, while a binding no relation holds (a value past
    /// 3) empties the root, and the parent is.
    pub fn pmtds_hierarchical() -> Self {
        let pmtds = families::pmtds_hierarchical().unwrap();
        let database: fn(&Fixture, &mut Rng) -> Database = |fixture, rng| {
            let mut db = Database::new();
            for atom in fixture.cqap.cq().atoms() {
                let cells =
                    (0..6).flat_map(|x| (0..3).flat_map(move |y| (0..4).map(move |z| [x, y, z])));
                let rows: Vec<Tuple> = cells
                    .filter(|_| rng.below(4) > 0)
                    .map(|cell| Tuple::from_slice(&cell))
                    .collect();
                let schema = Schema::new((0..atom.arity()).collect()).unwrap();
                db.add_relation(
                    Relation::from_tuples(atom.relation.clone(), schema, rows).unwrap(),
                )
                .unwrap();
            }
            db
        };
        Fixture {
            both_seeds: true,
            database,
            ..Fixture::new("pmtds_hierarchical", pmtds, 5, 0)
        }
    }

    /// `Q(x1, x3 | x1, x3) :- E(x1, x2), E(x2, x3)`: one stored relation
    /// under two atoms, so one delta edits two index slots.
    pub fn self_join_path2() -> Self {
        let atoms = vec![
            Atom::new("E", vec![0, 1]).unwrap(),
            Atom::new("E", vec![1, 2]).unwrap(),
        ];
        let cq = ConjunctiveQuery::new("self_join", 3, atoms, vars![1, 3]).unwrap();
        let cqap = Cqap::new(cq, vars![1, 3]).unwrap();
        let td = TreeDecomposition::single(vars![1, 2, 3]);
        let pmtds = vec![
            Pmtd::for_cqap(td.clone(), [], &cqap).unwrap(),
            Pmtd::for_cqap(td, [0], &cqap).unwrap(),
        ];
        let shape: fn(Option<usize>, &CqapIndex) = |plan, index| {
            if plan.is_some() {
                return;
            }
            let slots: std::collections::BTreeSet<_> = atom_index_keys(index, "E")
                .into_iter()
                .map(|(vars, _)| vars)
                .collect();
            assert_eq!(
                slots.len(),
                2,
                "both atoms of the self-join keep indexes over E"
            );
        };
        Fixture {
            shape,
            ..Fixture::new("self_join_path2", (cqap, pmtds), 14, 45)
        }
    }

    /// `(T12, T23)`, `(T12, S23)` — its S-view probed by `x2` alone — and
    /// `(S123)`, probed by `x1`: two S-views keyed by a proper part of their
    /// rows, served through per-key chains of the counted table. The set
    /// builds `(S123)`; `(T12, S23)`'s per-PMTD cells hold `S23`.
    pub fn open_head_path2_chain_keyed() -> Self {
        let shape: fn(Option<usize>, &CqapIndex) = |plan, index| {
            let (view, expected) = match plan {
                None => ("S123", 1),
                Some(p) => (["none", "S23", "S123"][p], [0, 1, 1][p]),
            };
            assert_eq!(chain_keyed_views(index), expected, "{view}");
        };
        let pmtds = open_head_path2(&[&[], &[1]], true);
        Fixture {
            shape,
            ..Fixture::new("open_head_path2", pmtds, 14, 45)
        }
    }

    /// A stored view under a stored parent still joins in when it holds
    /// head variables its parent's view lacks: `(S12, S23)` needs `S23`'s
    /// `x3`.
    pub fn s_under_s_path2() -> Self {
        let pmtds = open_head_path2(&[&[], &[1], &[0, 1]], false);
        Fixture::new("s_under_s_path2", pmtds, 14, 45)
    }

    /// `(T1245, T234)` of Example E.8 alone: the bag `{x2,x3,x4}` holds no
    /// access variable, so its T-view is joined per request from the live
    /// atom indexes (or its parent's link keys), and no delta leaves it
    /// stale.
    pub fn access_free_bag() -> Self {
        let (cqap, all) = families::pmtds_4reach().unwrap();
        let pmtds: Vec<Pmtd> = all
            .into_iter()
            .filter(|p| p.summary() == "(T1245, T234)")
            .collect();
        assert_eq!(pmtds.len(), 1);
        Fixture::new("access_free_bag", (cqap, pmtds), 12, 30)
    }

    /// The uncovered root under `{x1, x5}`: only its chain, seeded by `x1`
    /// *and* `x5`, closes on `R4(x4, x5)` with both variables bound.
    pub fn uncovered_bag_x1_x5() -> Self {
        let shape: fn(Option<usize>, &CqapIndex) = |plan, index| {
            if plan.is_some() {
                return;
            }
            let keys: Vec<VarSet> = atom_index_keys(index, "R4")
                .into_iter()
                .map(|(_, key)| key)
                .collect();
            assert!(keys.contains(&vars![4, 5]), "R4 is keyed on {keys:?}");
        };
        Fixture {
            shape,
            ..Fixture::new("uncovered_bag_x1_x5", uncovered_bag(vars![1, 5]), 12, 30)
        }
    }

    /// The uncovered root under the empty access pattern: the all-atoms
    /// chain is seeded by the one empty binding and streams the whole join.
    pub fn uncovered_bag_empty_access() -> Self {
        let pmtds = uncovered_bag(VarSet::EMPTY);
        Fixture::new("uncovered_bag_empty_access", pmtds, 12, 30)
    }

    /// The same row over `tuples` tuples per relation from `0..domain`.
    pub fn sized(self, domain: u64, tuples: usize) -> Self {
        Fixture {
            domain,
            tuples,
            ..self
        }
    }

    /// The whole row: every column in every phase, at both seeds.
    pub fn run(&self) {
        self.run_only(Column::ALL, Phase::ALL);
    }

    /// The `columns` × `phases` slice of the row, at both seeds.
    pub fn run_only(&self, columns: &[Column], phases: &[Phase]) {
        assert!(
            !self.both_seeds || columns.contains(&Column::PerPmtd),
            "{}: a two-seeded row's slice selects Column::PerPmtd, whose cells check both seeds",
            self.name
        );
        for seed in SEEDS {
            self.run_seed(seed, columns, phases);
        }
    }

    /// The database, requests and delta rounds every slice of the row runs
    /// at `seed`.
    pub fn instance(&self, seed: u64) -> (Database, Vec<AccessRequest>, Vec<DeltaBatch>) {
        let rng = &mut Rng(seed);
        let db = (self.database)(self, rng);
        let requests = self.requests(&db, rng);
        let deltas = self.delta_stream(&db, rng);
        (db, requests, deltas)
    }

    fn run_seed(&self, seed: u64, columns: &[Column], phases: &[Phase]) {
        let (db, requests, deltas) = self.instance(seed);
        let set = CqapIndex::build(&self.cqap, &db, &self.pmtds).unwrap();
        (self.shape)(None, &set);

        // The tiered backends' shard directories, removed once they drop.
        let dir = scratch_dir("equivalence");
        let (built, maintained) = (
            phases.contains(&Phase::Built),
            phases.contains(&Phase::Maintained),
        );
        if built || maintained {
            let mut cells = self.cells(&db, seed, &dir.join("built"), columns);
            if built {
                self.check(&cells, &db, &requests, "built", false);
            }
            if maintained {
                let mut current = db.clone();
                for (round, batch) in deltas.iter().enumerate() {
                    let expected = current.apply_delta(batch).unwrap();
                    for cell in &mut cells {
                        if let Some(stats) = cell.apply(batch) {
                            assert_eq!(
                                stats, expected,
                                "{} × {}: net effect",
                                self.name, cell.label
                            );
                        }
                    }
                    self.check(
                        &cells,
                        &current,
                        &requests,
                        &format!("maintained round {round}"),
                        true,
                    );
                    // Rounds 0 and 1 probe the spilled runs under pending
                    // overlays; rounds 2 and 3 apply over, and probe, the
                    // runs a compaction rewrote.
                    if round == 1 {
                        for cell in &mut cells {
                            cell.compact();
                        }
                    }
                }
            }
        }

        if phases.contains(&Phase::Grown) {
            let mut empty = Database::new();
            let mut whole = DeltaBatch::new();
            for relation in db.relations() {
                empty
                    .add_relation(Relation::new(
                        relation.name().to_string(),
                        relation.schema().clone(),
                    ))
                    .unwrap();
                whole = whole.insert(relation.name(), relation.tuples().to_vec());
            }
            let mut grown = self.cells(&empty, seed, &dir.join("grown"), columns);
            for cell in &mut grown {
                cell.apply(&whole);
            }
            self.check(&grown, &db, &requests, "grown", true);
        }
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// `tuples` random tuples per relation an atom reads, at that atom's
    /// arity, over the skewed domain, under a positional schema.
    fn random_database(&self, rng: &mut Rng) -> Database {
        let mut db = Database::new();
        for atom in self.cqap.cq().atoms() {
            if db.relation(&atom.relation).is_none() {
                let schema = Schema::new((0..atom.arity()).collect()).unwrap();
                let rows = (0..self.tuples)
                    .map(|_| rng.tuple(atom.arity(), self.domain))
                    .collect::<Vec<_>>();
                db.add_relation(
                    Relation::from_tuples(atom.relation.clone(), schema, rows).unwrap(),
                )
                .unwrap();
            }
        }
        db
    }

    /// Half real positives (bindings drawn from the full join projected
    /// onto the access variables); then random bindings (mostly misses), a
    /// multi-binding request with a duplicate and a miss, a request with no
    /// binding, one off the domain, and, last, the fresh valuation's binding
    /// (answered only between the first delta round and its undo).
    fn requests(&self, db: &Database, rng: &mut Rng) -> Vec<AccessRequest> {
        let access = self.cqap.access();
        let answered = full_join(&self.cqap, db)
            .unwrap()
            .project_onto(access)
            .unwrap();
        assert!(
            !answered.is_empty(),
            "{}: the generated database answers nothing",
            self.name
        );
        let positives: Vec<Tuple> = (0..6)
            .map(|_| answered.tuples()[rng.below(answered.len() as u64) as usize].clone())
            .collect();
        let binding = |vals: &dyn Fn(usize) -> Val| {
            Tuple::from_slice(&access.iter().map(vals).collect::<Vec<_>>())
        };
        let (off, fresh) = (
            binding(&|_| self.domain + 7),
            binding(&|v| FRESH + v as Val),
        );
        let mut bindings: Vec<Vec<Tuple>> = positives.iter().map(|t| vec![t.clone()]).collect();
        bindings.extend((0..3).map(|_| vec![rng.tuple(access.len(), self.domain)]));
        let mut multi = positives[..3].to_vec();
        multi.extend([positives[0].clone(), off.clone()]);
        bindings.extend([multi, Vec::new(), vec![off], vec![fresh]]);
        bindings
            .into_iter()
            .map(|tuples| AccessRequest::new(access, tuples).unwrap())
            .collect()
    }

    /// The four delta rounds, each generated against the database the
    /// rounds before it leave: a real change (the fresh valuation's tuple
    /// per atom, two random inserts and three deletes per relation); a
    /// round that cancels out or changes nothing save one insert; an empty
    /// batch; and the undo of the first round.
    fn delta_stream(&self, db: &Database, rng: &mut Rng) -> Vec<DeltaBatch> {
        let mut current = db.clone();
        let absent = |current: &Database, name: &str, rng: &mut Rng| {
            let relation = current.relation(name).unwrap();
            (0..20)
                .map(|_| rng.tuple(relation.schema().arity(), self.domain))
                .find(|t| !relation.contains(t))
        };
        let mut inserted: Vec<(String, Tuple)> = Vec::new();
        for atom in self.cqap.cq().atoms() {
            inserted.push((atom.relation.clone(), fresh_tuple(atom)));
        }
        let mut deleted: Vec<(String, Tuple)> = Vec::new();
        for relation in current.relations() {
            let name = relation.name().to_string();
            for _ in 0..2 {
                inserted.extend(absent(&current, &name, rng).map(|t| (name.clone(), t)));
            }
            let skip = rng.below(4) as usize;
            deleted.extend(
                relation
                    .tuples()
                    .iter()
                    .skip(skip)
                    .step_by(4)
                    .take(3)
                    .map(|t| (name.clone(), t.clone())),
            );
        }
        let batch = |ins: &[(String, Tuple)], del: &[(String, Tuple)]| {
            let batch = ins.iter().fold(DeltaBatch::new(), |b, (n, t)| {
                b.insert(n.clone(), vec![t.clone()])
            });
            del.iter()
                .fold(batch, |b, (n, t)| b.delete(n.clone(), vec![t.clone()]))
        };
        let real = batch(&inserted, &deleted);
        current.apply_delta(&real).unwrap();

        let first = current.relations()[0].clone();
        let last = current.relations().last().unwrap().name().to_string();
        let held = first.tuples()[0].clone();
        let nowhere = Tuple::from_slice(&vec![FRESH - 1; first.schema().arity()]);
        let mut noop = DeltaBatch::new()
            .delete(first.name(), vec![held.clone()])
            .insert(first.name(), vec![held.clone()])
            .insert(first.name(), vec![held])
            .delete(first.name(), vec![nowhere]);
        if let Some(t) = absent(&current, &last, rng) {
            noop = noop.insert(last, vec![t]);
        }
        let undo = batch(&deleted, &inserted);
        vec![real, noop, DeltaBatch::new(), undo]
    }

    /// The backends of `columns` over `db`, in the matrix's column order,
    /// the tiered one's cold shards under `dir`.
    fn cells(&self, db: &Database, seed: u64, dir: &Path, columns: &[Column]) -> Vec<Cell> {
        let (cqap, pmtds) = (&self.cqap, &self.pmtds[..]);
        let has = |column| columns.contains(&column);
        let mut cells = Vec::new();
        let mut push = |label: String, plan, shards, backend| {
            cells.push(Cell {
                label,
                plan,
                shards,
                backend,
            });
        };
        let set = std::iter::once(None).filter(|_| has(Column::Resident) || has(Column::Spilled));
        let plans = (0..pmtds.len())
            .filter(|_| pmtds.len() > 1 && has(Column::PerPmtd))
            .map(Some);
        for plan in set.chain(plans) {
            let chosen = plan.map_or(pmtds, |p| &pmtds[p..=p]);
            let (keep_resident, keep_spilled) = match plan {
                Some(_) => (true, true),
                None => (has(Column::Resident), has(Column::Spilled)),
            };
            let resident = CqapIndex::build(cqap, db, chosen).unwrap();
            if plan.is_some() {
                (self.shape)(plan, &resident);
            }
            let spilled = keep_spilled.then(|| resident.spill(scratch_dir("equivalence")).unwrap());
            let suffix = plan.map_or(String::new(), |p| format!(" {}", pmtds[p].summary()));
            if keep_resident {
                push(
                    format!("resident{suffix}"),
                    plan,
                    None,
                    Backend::Index(resident),
                );
            }
            if let Some(spilled) = spilled {
                push(
                    format!("spilled{suffix}"),
                    plan,
                    None,
                    Backend::Index(spilled),
                );
            }
        }
        let sharded = |k| ShardedIndex::build(cqap, db, pmtds, k).unwrap();
        if has(Column::Sharded) {
            push(
                "sharded k=1".into(),
                None,
                Some(1),
                Backend::Sharded(sharded(1)),
            );
            push(
                "sharded k=3".into(),
                None,
                Some(3),
                Backend::Sharded(sharded(3)),
            );
        }
        if has(Column::Tiered) {
            let tier = |i: usize| {
                [ShardTier::Hot, ShardTier::Cold, ShardTier::Cold][(i + seed as usize) % 3]
            };
            let placement: Vec<ShardTier> = (0..3).map(tier).collect();
            let tiered = ShardedIndex::from_sharded(sharded(3), &placement, dir);
            push(
                format!("tiered {placement:?}"),
                None,
                Some(3),
                Backend::Sharded(tiered.unwrap()),
            );
        }
        if has(Column::Served) {
            let config = ServeConfig {
                threads: 1,
                cache_capacity: 64,
                ..ServeConfig::default()
            };
            let resident = Arc::new(CqapIndex::build(cqap, db, pmtds).unwrap());
            let served = Backend::Served(ServeRuntime::with_config(resident, config));
            push("served".into(), None, None, served);
            let served =
                Backend::ServedSharded(ServeRuntime::with_config(Arc::new(sharded(3)), config));
            push("served k=3".into(), None, Some(3), served);
        }
        if has(Column::Routed) {
            let routed = Backend::Routed {
                base: db.clone(),
                applied: Vec::new(),
            };
            push("routed k=3".into(), None, Some(3), routed);
        }
        assert!(!cells.is_empty(), "{}: no column selected", self.name);
        cells
    }

    /// Every cell's answers against the oracle over `db`, and, with
    /// `rebuild`, every exposed index against one built over `db`.
    fn check(
        &self,
        cells: &[Cell],
        db: &Database,
        requests: &[AccessRequest],
        phase: &str,
        rebuild: bool,
    ) {
        let expected: Vec<Relation> = requests
            .iter()
            .map(|r| naive_answer(&self.cqap, db, r).unwrap())
            .collect();
        let mut rebuilt = BTreeMap::new();
        // Program runs per side, summed over the per-PMTD resident cells.
        let (mut from_request, mut from_parent) = (0, 0);
        for cell in cells {
            let at = format!("{} × {} × {phase}", self.name, cell.label);
            let sides = (
                instrument::request_side_programs(),
                instrument::parent_side_programs(),
            );
            let answers = cell.answer(&self.cqap, &self.pmtds, requests);
            if cell.plan.is_some() && matches!(&cell.backend, Backend::Index(i) if !i.is_spilled()) {
                from_request += instrument::request_side_programs() - sides.0;
                from_parent += instrument::parent_side_programs() - sides.1;
            }
            for ((request, answer), expected) in requests.iter().zip(answers).zip(&expected) {
                assert_eq!(
                    &answer,
                    expected,
                    "{at}: {} binding(s) {:?}",
                    request.len(),
                    request.tuples()
                );
            }
            for index in cell
                .indexes()
                .into_iter()
                .filter(|i| i.is_spilled() && i.space_used() > 0)
            {
                assert!(
                    index.disk_bytes() < 8 * index.space_used() as u64,
                    "{at}: runs not compressed"
                );
            }
            if !rebuild || matches!(cell.backend, Backend::Routed { .. }) {
                continue;
            }
            let reference = rebuilt.entry((cell.plan, cell.shards)).or_insert_with(|| {
                let chosen = cell.plan.map_or(&self.pmtds[..], |p| &self.pmtds[p..=p]);
                match cell.shards {
                    None => vec![Arc::new(CqapIndex::build(&self.cqap, db, chosen).unwrap())],
                    Some(k) => ShardedIndex::build(&self.cqap, db, chosen, k)
                        .unwrap()
                        .shards()
                        .to_vec(),
                }
            });
            for (shard, (index, rebuilt)) in cell.indexes().into_iter().zip(&*reference).enumerate()
            {
                assert_equals_rebuild(index, rebuilt, &format!("{at}, shard {shard}"));
            }
        }
        assert!(
            !self.both_seeds || (from_request > 0 && from_parent > 0),
            "{} × per-PMTD resident × {phase}: {from_request} program runs from the request, \
             {from_parent} from the parent — cells that never reach a side prove nothing about it",
            self.name
        );
    }
}

/// The fresh valuation's tuple for `atom`: `FRESH + v` for each of its
/// variables `v`.
pub fn fresh_tuple(atom: &Atom) -> Tuple {
    let fresh = atom
        .vars
        .iter()
        .map(|&v| FRESH + v as Val)
        .collect::<Vec<_>>();
    Tuple::from_slice(&fresh)
}

/// A maintained (or grown) index against one built over the same data:
/// S-view space, support counts, stored relations and atom indexes.
pub fn assert_equals_rebuild(index: &CqapIndex, rebuilt: &CqapIndex, at: &str) {
    assert_eq!(
        index.space_used(),
        rebuilt.space_used(),
        "{at}: S-view space"
    );
    assert!(
        index.support_counts().eq(rebuilt.support_counts()),
        "{at}: support counts"
    );
    for relation in rebuilt.database().relations() {
        assert_eq!(
            index.database().relation(relation.name()),
            Some(relation),
            "{at}: stored {}",
            relation.name()
        );
    }
    let mut atom_indexes = 0;
    for (name, vars, atom_index) in index.maintenance().atom_indexes().entries() {
        let rows = index.database().relation(name).unwrap().iter().cloned();
        let relabeled =
            Relation::from_tuples(name.to_string(), Schema::new(vars.to_vec()).unwrap(), rows)
                .unwrap();
        let fresh = HashIndex::build(&relabeled, atom_index.key_vars()).unwrap();
        assert!(
            *atom_index == fresh,
            "{at}: atom index of {name}{vars:?} on {}",
            atom_index.key_vars()
        );
        atom_indexes += 1;
    }
    assert!(atom_indexes > 0, "{at}: no atom index to check");
}

/// One column of the matrix.
struct Cell {
    label: String,
    /// The one PMTD the cell's index holds, `None` for the whole set.
    plan: Option<usize>,
    /// The shard count of a sharded backend.
    shards: Option<usize>,
    backend: Backend,
}

enum Backend {
    /// A `CqapIndex`, resident or spilled.
    Index(CqapIndex),
    /// A `ShardedIndex`, all hot or tiered.
    Sharded(ShardedIndex),
    /// A `ServeRuntime` (one worker, cache on) and its index.
    Served(ServeRuntime<CqapIndex>),
    ServedSharded(ServeRuntime<ShardedIndex>),
    /// A `ShardRouter` takes its index by value and has no write path, so
    /// each check routes over a 3-shard index built over `base` that has
    /// absorbed every batch `applied` so far.
    Routed {
        base: Database,
        applied: Vec<DeltaBatch>,
    },
}

impl Cell {
    /// Absorbs `batch`, returning its net effect where one index applied
    /// it whole (a sharded index sums its shards' effects, so a replicated
    /// relation's change counts once per shard).
    fn apply(&mut self, batch: &DeltaBatch) -> Option<DeltaStats> {
        match &mut self.backend {
            Backend::Index(index) => Some(index.apply_delta(batch).unwrap()),
            Backend::Sharded(index) => index.apply_delta(batch).map(|_| None).unwrap(),
            Backend::Served(runtime) => Some(runtime.apply_delta(batch).unwrap()),
            Backend::ServedSharded(runtime) => runtime.apply_delta(batch).map(|_| None).unwrap(),
            Backend::Routed { applied, .. } => {
                applied.push(batch.clone());
                None
            }
        }
    }

    /// Folds a spilled index's pending overlays into rewritten runs.
    fn compact(&mut self) {
        if let Backend::Index(index) = &mut self.backend {
            if index.is_spilled() {
                index.compact().unwrap();
                assert_eq!(index.overlay_len(), 0, "{}: overlay left", self.label);
            }
        }
    }

    fn answer(&self, cqap: &Cqap, pmtds: &[Pmtd], requests: &[AccessRequest]) -> Vec<Relation> {
        let unwrap = |answers: Vec<Arc<Relation>>| answers.iter().map(|a| (**a).clone()).collect();
        match &self.backend {
            Backend::Index(index) => requests.iter().map(|r| index.answer(r).unwrap()).collect(),
            Backend::Sharded(index) => requests.iter().map(|r| index.answer(r).unwrap()).collect(),
            Backend::Served(runtime) => unwrap(runtime.serve_batch(requests).unwrap()),
            Backend::ServedSharded(runtime) => unwrap(runtime.serve_batch(requests).unwrap()),
            Backend::Routed { base, applied } => {
                let mut index = ShardedIndex::build(cqap, base, pmtds, 3).unwrap();
                for batch in applied {
                    index.apply_delta(batch).unwrap();
                }
                let answers = ShardRouter::new(index).answer_batch(requests);
                unwrap(answers.into_iter().map(|a| a.unwrap()).collect())
            }
        }
    }

    /// The indexes the backend exposes, in shard order.
    fn indexes(&self) -> Vec<&CqapIndex> {
        match &self.backend {
            Backend::Index(index) => vec![index],
            Backend::Sharded(index) => index.shards().iter().map(|s| &**s).collect(),
            Backend::Served(runtime) => vec![&**runtime.index()],
            Backend::ServedSharded(runtime) => {
                runtime.index().shards().iter().map(|s| &**s).collect()
            }
            Backend::Routed { .. } => Vec::new(),
        }
    }
}

/// `Q(x1, x2, x3 | x1) :- R1(x1, x2), R2(x2, x3)` — every 2-path out of a
/// source, the head keeping more than the access pattern binds — on the
/// path `{x1,x2} → {x2,x3}` under each materialization set of `path`,
/// plus the single bag `(S123)` when `single`.
pub fn open_head_path2(path: &[&[usize]], single: bool) -> (Cqap, Vec<Pmtd>) {
    let atoms = vec![
        Atom::new("R1", vec![0, 1]).unwrap(),
        Atom::new("R2", vec![1, 2]).unwrap(),
    ];
    let cq = ConjunctiveQuery::new("open_head_path2", 3, atoms, vars![1, 2, 3]).unwrap();
    let cqap = Cqap::new(cq, vars![1]).unwrap();
    let td = TreeDecomposition::path(vec![vars![1, 2], vars![2, 3]]).unwrap();
    let mut pmtds: Vec<Pmtd> = path
        .iter()
        .map(|m| Pmtd::for_cqap(td.clone(), m.iter().copied(), &cqap).unwrap())
        .collect();
    if single {
        pmtds.push(Pmtd::for_cqap(TreeDecomposition::single(vars![1, 2, 3]), [0], &cqap).unwrap());
    }
    (cqap, pmtds)
}

/// The 4-path query under `access` on the decomposition
/// `{x1,x3,x5} → {x1,x2,x3}, {x3,x4,x5}`, nothing materialized. No atom
/// lies inside the root and the access pattern never holds `x3`, so the
/// root's T-view joins every atom onto the whole request.
fn uncovered_bag(access: VarSet) -> (Cqap, Vec<Pmtd>) {
    let cqap = Cqap::new(k_path_distinct(4).cq().clone(), access).unwrap();
    let bags = vec![vars![1, 3, 5], vars![1, 2, 3], vars![3, 4, 5]];
    let td = TreeDecomposition::new(bags, vec![None, Some(0), Some(0)], 0).unwrap();
    (cqap.clone(), vec![Pmtd::for_cqap(td, [], &cqap).unwrap()])
}

/// How many S-views of `index` are keyed by a proper part of their rows.
pub fn chain_keyed_views(index: &CqapIndex) -> usize {
    let runs = index
        .plans()
        .flat_map(|(_, views)| views.runs().map(|(_, run)| run));
    runs.filter(|run| !run.link().is_empty() && run.link() != run.schema().varset())
        .count()
}

/// Which key sets `index` keeps an atom index of `relation` on.
fn atom_index_keys(index: &CqapIndex, relation: &str) -> Vec<(Vec<usize>, VarSet)> {
    let entries = index.maintenance().atom_indexes().entries();
    entries
        .filter(|(name, _, _)| *name == relation)
        .map(|(_, vars, i)| (vars.to_vec(), i.key_vars()))
        .collect()
}
