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
//! 3. **Data placement.** A relation that *mentions* the routing variable
//!    is partitioned by the hash of its routing-variable column; every
//!    other relation is replicated to all shards.
//!
//! Together these guarantee that shard `i` holds **every** tuple of every
//! relation that can participate in a join result whose routing value
//! hashes to `i`: relations mentioning the routing variable contribute
//! only tuples in the shard's hash class (and all of those are present),
//! and all remaining relations are complete. Hence, for any sub-request
//! whose bindings all hash to `i`,
//! `π_head(join(D_i) ⋉ Q_A) = π_head(join(D) ⋉ Q_A)` — the shard's answer
//! is exactly the unsharded answer for those bindings.

use cqap_common::{CqapError, Result, Tuple, Val, Var};
use cqap_delta::DeltaBatch;
use cqap_query::workload::shard_of_key;
use cqap_query::{AccessRequest, Cqap};
use cqap_relation::{Database, Relation};

/// The partition contract of a sharded deployment: shard count plus
/// routing variable. Cheap to copy and embedded in every sharded
/// structure, so the data partitioner and the request router can never
/// disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
    /// The routing variable (`None` for an empty access pattern, which
    /// pins everything to shard 0).
    routing_var: Option<Var>,
    /// Position of the routing variable inside a request tuple (access
    /// variables are bound in ascending order).
    routing_pos: usize,
}

impl ShardSpec {
    /// The spec for a CQAP: routes by the minimum access variable.
    ///
    /// # Errors
    /// Fails if `shards` is zero.
    pub fn new(cqap: &Cqap, shards: usize) -> Result<Self> {
        ShardSpec::for_access(cqap.access().iter().collect::<Vec<_>>(), shards)
    }

    /// The spec for an explicit access-variable list (sorted internally:
    /// request tuples bind access variables in ascending order, so the
    /// routing position is computed against that order).
    ///
    /// # Errors
    /// Fails if `shards` is zero.
    pub(crate) fn for_access(access_vars: impl AsRef<[Var]>, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(CqapError::InvalidQuery(
                "a sharded index needs at least one shard".into(),
            ));
        }
        let mut access = access_vars.as_ref().to_vec();
        access.sort_unstable();
        access.dedup();
        let routing_var = access.first().copied();
        Ok(ShardSpec {
            shards,
            routing_var,
            // The routing variable is the minimum, i.e. the first value of
            // every (ascending) request binding.
            routing_pos: 0,
        })
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

    /// Partitions a database into the `k` per-shard databases: relations
    /// mentioning the routing variable are split by its hash, all others
    /// are replicated (invariant 3 above).
    ///
    /// # Errors
    /// Propagates relation-construction failures (cannot happen for
    /// schema-consistent inputs).
    pub(crate) fn partition_database(&self, db: &Database) -> Result<Vec<Database>> {
        let mut out: Vec<Database> = (0..self.shards).map(|_| Database::new()).collect();
        for relation in db.relations() {
            let split_pos = self
                .routing_var
                .filter(|_| self.shards > 1)
                .and_then(|r| relation.schema().position(r));
            match split_pos {
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
    /// `ShardSpec::partition_database`: an operation on a relation that
    /// mentions the routing variable is split by the hash of each tuple's
    /// routing column, while operations on every other relation are
    /// replicated to all shards. Operation order is preserved within each
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
            let split_pos = self
                .routing_var
                .filter(|_| self.shards > 1)
                .and_then(|r| relation.schema().position(r));
            match split_pos {
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
    use cqap_query::workload::Graph;

    fn spec3() -> ShardSpec {
        ShardSpec::for_access([0usize, 3], 3).unwrap()
    }

    #[test]
    fn routing_variable_is_min_access_var() {
        let spec = spec3();
        assert_eq!(spec.routing_var, Some(0));
        assert_eq!(spec.shards(), 3);
        assert!(ShardSpec::for_access([0usize, 3], 0).is_err());
    }

    #[test]
    fn empty_access_routes_everything_to_shard_zero() {
        let spec = ShardSpec::for_access([] as [Var; 0], 4).unwrap();
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
        let total_r1: usize = parts
            .iter()
            .map(|p| p.relation("R1").unwrap().len())
            .sum();
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

    #[test]
    fn single_shard_partition_is_the_identity() {
        let g = Graph::random(40, 150, 13);
        let db = g.as_path_database(3);
        let spec = ShardSpec::for_access([0usize, 3], 1).unwrap();
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
}
