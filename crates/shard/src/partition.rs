//! Hash partitioning of databases and access requests by routing variable.
//!
//! [`ShardSpec`] fixes the three invariants that make sharded answering
//! exact (they are proved as a unit — weaken any one and per-shard answers
//! diverge from the unsharded index):
//!
//! 1. **Routing variable.** The routing variable is the *minimum* access
//!    variable of the CQAP (deterministic, so every component — data
//!    partitioner, request router, workload generators — agrees without
//!    coordination). A CQAP with an empty access pattern degenerates to a
//!    single effective shard.
//! 2. **Request placement.** A request binding belongs to shard
//!    `hash(v) mod k` where `v` is its routing-variable value — the same
//!    [`shard_of_key`] the workload helpers use. Nothing else about the
//!    binding influences placement.
//! 3. **Data placement.** A relation `R` is split on column `c` — each
//!    tuple goes to the shard owning its value at `c` — iff every atom
//!    reading `R` has the routing variable at column `c`; every other
//!    relation is replicated to all shards. The engine reads an atom's
//!    variables by position, so the column comes from the atoms, never
//!    from the stored schema's labels: `R4(x4, x1)` splits on its second
//!    column, and the self-join `R(y, x1), R(y, x2)` is replicated (its
//!    second atom has no routing variable).
//!
//! Together these guarantee that shard `i` holds **every** tuple of every
//! relation that can participate in a join result whose routing value
//! hashes to `i`: a split relation's tuple meets such a result only
//! through atoms that put the routing value at its split column, so it
//! sits in the shard's hash class (and all of those are present), and all
//! remaining relations are complete. Hence, for any sub-request whose
//! bindings all hash to `i`,
//! `π_head(join(D_i) ⋉ Q_A) = π_head(join(D) ⋉ Q_A)` — the shard's answer
//! is exactly the unsharded answer for those bindings.

use std::hash::Hasher;

use cqap_common::{CqapError, FxHasher, Result, Tuple, Val, Var};
use cqap_delta::DeltaBatch;
use cqap_query::workload::shard_of_key;
use cqap_query::{AccessRequest, Atom, Cqap};
use cqap_relation::{Database, Relation};

/// How many relations a spec can split; a CQAP whose atoms allow more
/// replicates the rest, which stays exact (invariant 3 only narrows what
/// is split).
const MAX_SPLITS: usize = 8;

/// The partition contract of a sharded deployment: shard count, routing
/// variable and the column each split relation is split on. Cheap to copy
/// and embedded in every sharded structure, so the data partitioner and
/// the request router can never disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
    /// The routing variable (`None` for an empty access pattern, which
    /// pins everything to shard 0).
    routing_var: Option<Var>,
    /// Position of the routing variable inside a request tuple (access
    /// variables are bound in ascending order).
    routing_pos: usize,
    /// `(name hash, column)` of each split relation (invariant 3), in
    /// the first `num_splits` slots; a relation not listed is replicated.
    splits: [(u64, usize); MAX_SPLITS],
    num_splits: usize,
}

/// The key a relation name is listed under in [`ShardSpec::splits`].
fn name_hash(name: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(name.as_bytes());
    hasher.finish()
}

impl ShardSpec {
    /// The spec for a CQAP: routes by the minimum access variable, and
    /// splits each relation whose every atom holds that variable at one
    /// column on that column (invariant 3).
    ///
    /// # Errors
    /// Fails if `shards` is zero.
    pub fn new(cqap: &Cqap, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(CqapError::InvalidQuery(
                "a sharded index needs at least one shard".into(),
            ));
        }
        let routing_var = cqap.access().iter().next();
        let mut spec = ShardSpec {
            shards,
            routing_var,
            // The routing variable is the minimum, i.e. the first value of
            // every (ascending) request binding.
            routing_pos: 0,
            splits: [(0, 0); MAX_SPLITS],
            num_splits: 0,
        };
        let Some(routing) = routing_var.filter(|_| shards > 1) else {
            return Ok(spec);
        };
        let atoms = cqap.cq().atoms();
        let column_in = |atom: &Atom| atom.vars.iter().position(|&v| v == routing);
        let mut names: Vec<&str> = atoms.iter().map(|a| a.relation.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        for name in &names {
            let mut columns = atoms.iter().filter(|a| a.relation == *name).map(column_in);
            let hash = name_hash(name);
            // A name sharing its hash with another read name stays
            // replicated: a lookup could not tell the two apart.
            let clash = names
                .iter()
                .any(|other| other != name && name_hash(other) == hash);
            let agreed = columns
                .next()
                .flatten()
                .filter(|&c| !clash && columns.all(|o| o == Some(c)));
            if let Some(column) = agreed.filter(|_| spec.num_splits < MAX_SPLITS) {
                spec.splits[spec.num_splits] = (hash, column);
                spec.num_splits += 1;
            }
        }
        Ok(spec)
    }

    /// The column `relation` is split on, `None` when it is replicated. A
    /// relation no atom reads is replicated, or split on a column in range
    /// should its name hash like a split one's — either way exact, since
    /// it cannot change an answer.
    fn split_column(&self, relation: &Relation) -> Option<usize> {
        let key = name_hash(relation.name());
        self.splits[..self.num_splits]
            .iter()
            .find(|&&(hash, _)| hash == key)
            .map(|&(_, column)| column)
            .filter(|&column| column < relation.schema().arity())
    }

    /// Number of shards `k`.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning a routing-variable value.
    pub fn shard_of_value(&self, value: Val) -> usize {
        shard_of_key(value, self.shards)
    }

    /// The shard owning one request binding (a tuple over the access
    /// variables in ascending order).
    pub fn shard_of_binding(&self, binding: &Tuple) -> usize {
        if self.routing_var.is_none() || binding.arity() == 0 {
            return 0;
        }
        self.shard_of_value(binding.get(self.routing_pos))
    }

    /// Partitions a database into the `k` per-shard databases: each split
    /// relation by the hash of its split column, all others replicated
    /// (invariant 3 above).
    ///
    /// # Errors
    /// Propagates relation-construction failures (cannot happen for
    /// schema-consistent inputs).
    pub(crate) fn partition_database(&self, db: &Database) -> Result<Vec<Database>> {
        let mut out: Vec<Database> = (0..self.shards).map(|_| Database::new()).collect();
        for relation in db.relations() {
            match self.split_column(relation) {
                Some(position) => {
                    let mut buckets: Vec<Vec<Tuple>> =
                        (0..self.shards).map(|_| Vec::new()).collect();
                    for tuple in relation.iter() {
                        buckets[self.shard_of_value(tuple.get(position))].push(tuple.clone());
                    }
                    for (shard, bucket) in buckets.into_iter().enumerate() {
                        out[shard].add_relation(Relation::from_tuples(
                            relation.name().to_string(),
                            relation.schema().clone(),
                            bucket,
                        )?)?;
                    }
                }
                None => {
                    for shard in &mut out {
                        shard.add_relation(relation.clone())?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Routes a delta batch under the **same data-placement invariant** as
    /// `ShardSpec::partition_database`: an operation on a split relation
    /// is split by the hash of each tuple's split column, while operations
    /// on every other relation are replicated to all shards. Operation order is preserved within each
    /// per-shard batch, so per-shard net effects replay exactly like the
    /// global batch would — applying the routed batches to the shard
    /// partitions yields precisely the partitions of the post-delta
    /// database (invariant 3 keeps holding under updates).
    ///
    /// `db` supplies the relation schemas; any shard's partition works,
    /// since schemas are identical across shards. Empty per-shard tuple
    /// lists are omitted, so untouched shards receive an empty batch.
    ///
    /// # Errors
    /// Fails if an operation names a relation `db` does not store, or
    /// carries a tuple whose arity differs from the relation's schema.
    pub fn partition_delta(&self, batch: &DeltaBatch, db: &Database) -> Result<Vec<DeltaBatch>> {
        let mut out: Vec<DeltaBatch> = (0..self.shards).map(|_| DeltaBatch::new()).collect();
        for (name, op, tuples) in batch.ops() {
            let relation = db.relation_or_err(name)?;
            let arity = relation.schema().arity();
            if let Some(bad) = tuples.iter().find(|t| t.arity() != arity) {
                return Err(CqapError::SchemaMismatch {
                    expected: format!("arity {arity} for relation {name}"),
                    found: format!("delta tuple of arity {}", bad.arity()),
                });
            }
            match self.split_column(relation) {
                Some(position) => {
                    let mut buckets: Vec<Vec<Tuple>> =
                        (0..self.shards).map(|_| Vec::new()).collect();
                    for tuple in tuples {
                        buckets[self.shard_of_value(tuple.get(position))].push(tuple.clone());
                    }
                    for (shard, bucket) in buckets.into_iter().enumerate() {
                        if !bucket.is_empty() {
                            out[shard].push(name.clone(), *op, bucket);
                        }
                    }
                }
                None => {
                    for shard in &mut out {
                        shard.push(name.clone(), *op, tuples.clone());
                    }
                }
            }
        }
        Ok(out)
    }

    /// The one shard that answers `request` whole, without splitting it:
    /// `Some` for a request with at most one binding (the common serving
    /// case), an empty access pattern (shard 0) or a single shard, `None`
    /// when the bindings must be grouped per shard first.
    pub fn sole_shard(&self, request: &AccessRequest) -> Option<usize> {
        (self.shards == 1 || self.routing_var.is_none() || request.tuples().len() <= 1).then(|| {
            request
                .tuples()
                .first()
                .map_or(0, |t| self.shard_of_binding(t))
        })
    }

    /// Splits a request into per-shard sub-requests, in order of first
    /// appearance of each shard in the request's tuple list (so unioning
    /// the per-shard answers in the returned order is deterministic).
    ///
    /// A request with a [sole shard](ShardSpec::sole_shard) maps to
    /// exactly one `(shard, request)` pair without splitting.
    ///
    /// # Errors
    /// Propagates request reconstruction failures (cannot happen: arity
    /// was validated when `request` was built).
    pub fn split_request(&self, request: &AccessRequest) -> Result<Vec<(usize, AccessRequest)>> {
        if let Some(shard) = self.sole_shard(request) {
            return Ok(vec![(shard, request.clone())]);
        }
        let mut order: Vec<usize> = Vec::new();
        let mut buckets: Vec<Vec<Tuple>> = (0..self.shards).map(|_| Vec::new()).collect();
        for tuple in request.tuples() {
            let shard = self.shard_of_binding(tuple);
            if buckets[shard].is_empty() {
                order.push(shard);
            }
            buckets[shard].push(tuple.clone());
        }
        order
            .into_iter()
            .map(|shard| {
                let tuples = std::mem::take(&mut buckets[shard]);
                Ok((shard, AccessRequest::new(request.access(), tuples)?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::VarSet;
    use cqap_query::families::{k_path_distinct, k_set_intersection, square, triangle_edge};
    use cqap_query::workload::Graph;
    use cqap_query::ConjunctiveQuery;
    use cqap_yannakakis::naive_answer;
    use proptest::prelude::*;

    /// 3-reachability over 3 shards: access `{x0, x3}`, routing by `x0`.
    fn spec3() -> ShardSpec {
        ShardSpec::new(&k_path_distinct(3), 3).unwrap()
    }

    #[test]
    fn routing_variable_is_min_access_var() {
        let spec = spec3();
        assert_eq!(spec.routing_var, Some(0));
        assert_eq!(spec.shards(), 3);
        assert!(ShardSpec::new(&k_path_distinct(3), 0).is_err());
    }

    /// Invariant 3 reads the split column off the atoms: `R4(x4, x1)`
    /// splits on its second column whatever its stored schema says, a
    /// relation under an atom without the routing variable is replicated
    /// (the self-join `R(y, x1), R(y, x2)`), and so is every relation of a
    /// single shard.
    #[test]
    fn split_columns_come_from_the_atoms() {
        let relation = |name: &'static str| {
            Relation::new(name, cqap_relation::Schema::new(vec![0, 1]).unwrap())
        };
        let spec = ShardSpec::new(&square(true), 3).unwrap();
        let columns: Vec<_> = ["R1", "R2", "R3", "R4"]
            .map(|n| spec.split_column(&relation(n)))
            .into();
        assert_eq!(columns, [Some(0), None, None, Some(1)]);
        let spec = ShardSpec::new(&k_set_intersection(2), 3).unwrap();
        assert_eq!(spec.split_column(&relation("R")), None);
        let spec = ShardSpec::new(&square(true), 1).unwrap();
        assert_eq!(spec.split_column(&relation("R1")), None);
    }

    #[test]
    fn empty_access_routes_everything_to_shard_zero() {
        let spec = ShardSpec::new(&triangle_edge(), 4).unwrap();
        assert_eq!(spec.routing_var, None);
        assert_eq!(spec.shard_of_binding(&Tuple::empty()), 0);
        let req = AccessRequest::new(VarSet::EMPTY, vec![Tuple::empty()]).unwrap();
        let parts = spec.split_request(&req).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 0);
    }

    #[test]
    fn database_partition_splits_routing_relations_and_replicates_the_rest() {
        let g = Graph::random(60, 300, 11);
        let db = g.as_path_database(3); // R1(x0,x1), R2(x1,x2), R3(x2,x3)
        let spec = spec3(); // routing var x0: only R1 mentions it
        let parts = spec.partition_database(&db).unwrap();
        assert_eq!(parts.len(), 3);

        // R1 is partitioned: shard sizes sum to |R1| and every tuple sits
        // on the shard owning its x0 hash.
        let total_r1: usize = parts.iter().map(|p| p.relation("R1").unwrap().len()).sum();
        assert_eq!(total_r1, db.relation("R1").unwrap().len());
        for (shard, part) in parts.iter().enumerate() {
            for tuple in part.relation("R1").unwrap().iter() {
                assert_eq!(spec.shard_of_value(tuple.get(0)), shard);
            }
            // R2 / R3 do not mention x0: replicated bit-for-bit.
            assert_eq!(part.relation("R2").unwrap(), db.relation("R2").unwrap());
            assert_eq!(part.relation("R3").unwrap(), db.relation("R3").unwrap());
        }
    }

    /// More splittable relations than a spec lists: the star
    /// `R1(x0, x1), …, R9(x0, x9)` under access `{x0}` splits the first
    /// eight names on column 0 and replicates `R9`, and every shard still
    /// answers its bindings exactly like the whole database.
    #[test]
    fn relations_past_the_split_table_are_replicated() {
        let atoms = (1..=9)
            .map(|i| Atom::new(format!("R{i}"), vec![0, i]).unwrap())
            .collect();
        let x0 = VarSet::from_iter([0]);
        let cq = ConjunctiveQuery::new("star9", 10, atoms, x0).unwrap();
        let cqap = Cqap::new(cq, x0).unwrap();
        // `R_i` holds every `x0` below 12 but `i`: 0, 10 and 11 answer.
        let mut db = Database::new();
        for i in 1..=9u64 {
            let pairs = (0..12u64).filter(|&v| v != i).map(|v| (v, v % 3));
            db.add_relation(Relation::binary(format!("R{i}"), 0, 1, pairs))
                .unwrap();
        }
        let spec = ShardSpec::new(&cqap, 3).unwrap();
        for relation in db.relations() {
            let expected = (relation.name() != "R9").then_some(0);
            assert_eq!(spec.split_column(relation), expected, "{}", relation.name());
        }
        let parts = spec.partition_database(&db).unwrap();
        let mut answered = 0;
        for v in 0..12 {
            let request = AccessRequest::single(x0, &[v]).unwrap();
            let expected = naive_answer(&cqap, &db, &request).unwrap();
            let shard = &parts[spec.shard_of_value(v)];
            assert_eq!(shard.relation("R9"), db.relation("R9"));
            assert_eq!(naive_answer(&cqap, shard, &request).unwrap(), expected, "x0 = {v}");
            answered += expected.len();
        }
        assert_eq!(answered, 3);
    }

    #[test]
    fn single_shard_partition_is_the_identity() {
        let g = Graph::random(40, 150, 13);
        let db = g.as_path_database(3);
        let spec = ShardSpec::new(&k_path_distinct(3), 1).unwrap();
        let parts = spec.partition_database(&db).unwrap();
        assert_eq!(parts.len(), 1);
        for relation in db.relations() {
            assert_eq!(parts[0].relation(relation.name()).unwrap(), relation);
        }
    }

    #[test]
    fn request_split_groups_by_shard_in_first_appearance_order() {
        let spec = spec3();
        let access = VarSet::from_iter([0, 3]);
        let tuples: Vec<Tuple> = (0..20).map(|i| Tuple::pair(i, i + 1)).collect();
        let request = AccessRequest::new(access, tuples.clone()).unwrap();
        let parts = spec.split_request(&request).unwrap();

        // Total bindings preserved; each sub-request homogeneous.
        let total: usize = parts.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 20);
        for (shard, sub) in &parts {
            assert!(sub
                .tuples()
                .iter()
                .all(|t| spec.shard_of_binding(t) == *shard));
        }
        // First-appearance order of shards.
        let expected_order: Vec<usize> = {
            let mut seen = Vec::new();
            for t in &tuples {
                let s = spec.shard_of_binding(t);
                if !seen.contains(&s) {
                    seen.push(s);
                }
            }
            seen
        };
        let got_order: Vec<usize> = parts.iter().map(|(s, _)| *s).collect();
        assert_eq!(got_order, expected_order);

        // A single-binding request routes to exactly one shard, unsplit.
        let single = AccessRequest::single(access, &[7, 9]).unwrap();
        let parts = spec.split_request(&single).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, spec.shard_of_value(7));
        assert_eq!(parts[0].1, single);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The delta-routing contract: tuples of a split relation land on
        /// exactly their hash shard, while ops on replicated relations —
        /// `R2` of the 3-path, and the self-joined `R` of 2-set
        /// intersection, whose second atom has no routing variable —
        /// appear verbatim in *every* per-shard batch.
        #[test]
        fn partition_delta_routes_and_replicates(seed in 0u64..10_000, edges in 40usize..120) {
            let graph = Graph::random(30, edges, seed);
            let db = graph.as_path_database(3);
            let mut kset_db = Database::new();
            kset_db.add_relation(db.relations()[1].clone().with_name("R")).unwrap();
            let inserts: Vec<Tuple> = (0..12u64)
                .map(|i| Tuple::pair(40_000 + seed + i, 40_000 + seed + i + 1))
                .collect();
            let deletes: Vec<Tuple> = db.relations()[1].tuples().iter().take(4).cloned().collect();
            let cases = [
                (k_path_distinct(3), &db, Some("R1"), "R2"),
                (k_set_intersection(2), &kset_db, None, "R"),
            ];
            for (cqap, db, routed, replicated) in cases {
                let mut batch = DeltaBatch::new().delete(replicated, deletes.clone());
                if let Some(routed) = routed {
                    batch = batch.insert(routed, inserts.clone());
                }
                for k in [2usize, 3, 7] {
                    let spec = ShardSpec::new(&cqap, k).unwrap();
                    let parts = spec.partition_delta(&batch, db).unwrap();
                    prop_assert_eq!(parts.len(), k);
                    for t in inserts.iter().filter(|_| routed.is_some()) {
                        let home = spec.shard_of_value(t.get(0));
                        for (shard, part) in parts.iter().enumerate() {
                            let present = part
                                .ops()
                                .iter()
                                .any(|(name, _, tuples)| Some(name.as_str()) == routed && tuples.contains(t));
                            prop_assert_eq!(present, shard == home, "k = {}: {:?} on shard {}", k, t, shard);
                        }
                    }
                    for part in &parts {
                        let replica: Vec<&Tuple> = part
                            .ops()
                            .iter()
                            .filter(|(name, _, _)| name == replicated)
                            .flat_map(|(_, _, tuples)| tuples)
                            .collect();
                        prop_assert_eq!(&replica, &deletes.iter().collect::<Vec<_>>(), "k = {}", k);
                    }
                }
                // `k = 1` degenerates to replication everywhere: one shard,
                // every op.
                let parts = ShardSpec::new(&cqap, 1).unwrap().partition_delta(&batch, db).unwrap();
                prop_assert_eq!(parts.len(), 1);
                prop_assert_eq!(parts[0].num_tuples(), batch.num_tuples());
            }
        }
    }
}
