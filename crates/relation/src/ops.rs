//! Relational operators: projection, natural join, semijoin and union.
//!
//! These are the operators that proof-sequence steps compile into (Section 5
//! of the paper): a composition step is a join, a decomposition step is a
//! projection, and the Online Yannakakis passes are built from semijoins and
//! joins. All binary operators are hash-based and run in time linear in
//! their input plus output (up to hashing).

use crate::index::HashIndex;
use crate::relation::{Relation, RelationBuilder};
use crate::schema::Schema;
use cqap_common::{FxHashSet, Result, Tuple, VarSet};

/// Whether `positions` is the identity permutation `0..arity` — i.e. the
/// projection/reorder it describes is a no-op. Shared with the compiled
/// online plans, which use it to elide identity final projections.
pub fn is_identity(positions: &[usize], arity: usize) -> bool {
    positions.len() == arity && positions.iter().enumerate().all(|(i, &p)| i == p)
}

impl Relation {
    /// π_vars(R): projection onto `vars` (deduplicating).
    ///
    /// Two structural fast paths keep the serving pipeline off the dedup
    /// machinery: projecting onto (a superset of) the full variable set in
    /// the existing column order is a clone, and any projection that keeps
    /// *all* columns is a permutation (duplicate-free by construction).
    pub fn project_onto(&self, vars: VarSet) -> Result<Relation> {
        let keep = vars.intersect(self.varset());
        let positions = self.schema().positions_of_set(keep)?;
        if is_identity(&positions, self.schema().arity()) {
            return Ok(self.clone());
        }
        let schema = Schema::of(keep.iter());
        if keep == self.varset() {
            // Column permutation: a bijection on tuples, no dedup needed.
            let mut out =
                RelationBuilder::distinct(format!("π{}({})", schema, self.name()), schema);
            for t in self.iter() {
                out.push(t.project(&positions));
            }
            return Ok(out.finish());
        }
        let mut out = RelationBuilder::new(format!("π{}({})", schema, self.name()), schema);
        for t in self.iter() {
            out.push(t.project(&positions));
        }
        Ok(out.finish())
    }

    /// Natural join `R ⋈ S` on the common variables.
    ///
    /// The output schema is `R`'s columns followed by `S`'s non-shared
    /// columns. Implemented as a hash join with the smaller input on the
    /// build side.
    pub fn join(&self, other: &Relation) -> Result<Relation> {
        // `join_impl` indexes its argument: hand it the smaller relation.
        if self.len() < other.len() {
            let swapped = other.join_impl(self)?;
            // Reorder columns to keep the documented column order
            // (self's columns first).
            let target = self.schema().join(other.schema());
            return swapped.reorder(&target);
        }
        self.join_impl(other)
    }

    /// Hash join probing an index built over `other` with `self`'s tuples.
    fn join_impl(&self, other: &Relation) -> Result<Relation> {
        let shared = self.varset().intersect(other.varset());
        let out_schema = self.schema().join(other.schema());
        // A join output tuple embeds the probe-side tuple and its matched
        // tuple is determined by it plus the appended columns, so the
        // output of a join of two sets is duplicate-free by construction.
        let mut out = RelationBuilder::distinct(
            format!("({} ⋈ {})", self.name(), other.name()),
            out_schema.clone(),
        );

        // Positions of the shared variables in each input (ascending order).
        let left_key = self.schema().positions_of_set(shared)?;
        let index = HashIndex::build(other, shared)?;
        // Positions (in `other`) of the columns appended to the output.
        let appended: Vec<usize> = out_schema.vars()[self.schema().arity()..]
            .iter()
            .map(|&v| other.schema().position(v).expect("appended var"))
            .collect();

        for lt in self.iter() {
            let key = lt.project(&left_key);
            for rt in index.probe(&key) {
                out.push(lt.concat_projected(rt, &appended));
            }
        }
        Ok(out.finish())
    }

    /// Reorders columns to match `target` (which must contain exactly the
    /// same variable set).
    pub fn reorder(&self, target: &Schema) -> Result<Relation> {
        if target.varset() != self.varset() {
            return Err(cqap_common::CqapError::SchemaMismatch {
                expected: format!("{target}"),
                found: format!("{}", self.schema()),
            });
        }
        let positions = self.schema().positions_of(target.vars())?;
        if is_identity(&positions, self.schema().arity()) {
            return Ok(self.clone());
        }
        // A column permutation is a bijection on tuples: no dedup needed.
        let mut out = RelationBuilder::distinct(self.name().to_string(), target.clone());
        for t in self.iter() {
            out.push(t.project(&positions));
        }
        Ok(out.finish())
    }

    /// Semijoin `R ⋉ S`: tuples of `R` that join with at least one tuple of
    /// `S` on the shared variables. Runs in `O(|R| + |S|)`.
    pub fn semijoin(&self, other: &Relation) -> Result<Relation> {
        let shared = self.varset().intersect(other.varset());
        let other_keys: FxHashSet<Tuple> = {
            let positions = other.schema().positions_of_set(shared)?;
            other.iter().map(|t| t.project(&positions)).collect()
        };
        let left_key = self.schema().positions_of_set(shared)?;
        // A semijoin of a set is a subset: duplicate-free by construction.
        let mut out = RelationBuilder::distinct(
            format!("({} ⋉ {})", self.name(), other.name()),
            self.schema().clone(),
        );
        for t in self.iter() {
            if other_keys.contains(&t.project(&left_key)) {
                out.push(t.clone());
            }
        }
        Ok(out.finish())
    }

    /// Union of two relations over the same variable set (columns are
    /// reordered if necessary).
    ///
    /// The *larger* input is cloned as the base and the smaller one is
    /// inserted into it, so only O(min(|R|, |S|)) tuples go through the
    /// per-tuple insert path. (The bulk side still costs O(big) to clone,
    /// and its membership set materializes once if it was lazily built;
    /// the saving is the per-tuple re-insertion, not the copy.)
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        if other.schema() == self.schema() && other.len() > self.len() {
            let mut out = other.clone().with_name(self.name().to_string());
            for t in self.iter() {
                out.insert(t.clone())?;
            }
            return Ok(out);
        }
        let mut out = self.clone();
        let reordered;
        let other = if other.schema() == self.schema() {
            other
        } else {
            reordered = other.reorder(self.schema())?;
            &reordered
        };
        for t in other.iter() {
            out.insert(t.clone())?;
        }
        Ok(out)
    }

    /// Consuming union: both inputs are owned, so the larger side becomes
    /// the base *by move* — no relation is cloned at all — and only the
    /// smaller side's tuples go through the per-tuple insert path
    /// (mismatched column orders reorder `other` into `self`'s schema
    /// first). This is the union the sharded index uses to fold per-shard
    /// answers, where both sides are freshly produced and owned. Note the result's tuple *order* depends on
    /// which side was larger; only the set contents are guaranteed.
    pub fn union_with(self, other: Relation) -> Result<Relation> {
        let other = if other.schema() == self.schema() {
            other
        } else {
            other.reorder(self.schema())?
        };
        let (mut base, small) = if other.len() > self.len() {
            let name = self.name().to_string();
            (other.with_name(name), self)
        } else {
            (self, other)
        };
        for t in small.into_tuples() {
            base.insert(t)?;
        }
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;
    use cqap_common::Var;

    fn rel(name: &'static str, a: Var, b: Var, pairs: &[(u64, u64)]) -> Relation {
        Relation::binary(name, a, b, pairs.iter().copied())
    }

    #[test]
    fn projection() {
        let r = rel("R", 0, 1, &[(1, 10), (1, 11), (2, 10)]);
        let p = r.project_onto(vars![1]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.contains(&Tuple::unary(1)));
        assert!(p.contains(&Tuple::unary(2)));
        // Projecting on a variable not in the schema keeps only the overlap.
        let q = r.project_onto(vars![2, 5]).unwrap();
        assert_eq!(q.schema().vars(), &[1]);
    }

    #[test]
    fn hash_join_path() {
        // R(x1,x2) ⋈ S(x2,x3): the classic 2-path.
        let r = rel("R", 0, 1, &[(1, 10), (2, 10), (3, 30)]);
        let s = rel("S", 1, 2, &[(10, 100), (10, 101), (30, 300)]);
        let j = r.join(&s).unwrap();
        assert_eq!(j.schema().vars(), &[0, 1, 2]);
        assert_eq!(j.len(), 5);
        assert!(j.contains(&Tuple::triple(1, 10, 100)));
        assert!(j.contains(&Tuple::triple(2, 10, 101)));
        assert!(j.contains(&Tuple::triple(3, 30, 300)));
        assert!(!j.contains(&Tuple::triple(3, 30, 100)));
    }

    #[test]
    fn join_indexes_the_smaller_input() {
        use crate::relation::instrument::indexed_tuples;
        let one = rel("one", 0, 1, &[(7, 8)]);
        let many = rel(
            "many",
            1,
            2,
            &(0..300u64).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        for (left, right, row) in [(&one, &many, [7, 8, 9]), (&many, &one, [8, 9, 7])] {
            let before = indexed_tuples();
            let j = left.join(right).unwrap();
            assert_eq!(
                indexed_tuples() - before,
                1,
                "a 1 × n join indexes the one tuple"
            );
            assert_eq!(j.schema(), &left.schema().join(right.schema()));
            assert_eq!(j.tuples(), [Tuple::from_slice(&row)]);
        }
    }

    #[test]
    fn join_is_symmetric_in_content() {
        let r = rel("R", 0, 1, &[(1, 10), (2, 10), (3, 30), (4, 40)]);
        let s = rel("S", 1, 2, &[(10, 100), (30, 300)]);
        let j1 = r.join(&s).unwrap();
        let j2 = s.join(&r).unwrap().reorder(j1.schema()).unwrap();
        assert_eq!(j1, j2);
    }

    #[test]
    fn join_no_shared_vars_is_cross_product() {
        let r = rel("R", 0, 1, &[(1, 2), (3, 4)]);
        let s = rel("S", 2, 3, &[(5, 6)]);
        let j = r.join(&s).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.schema().arity(), 4);
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let r = rel("R", 0, 1, &[(1, 10), (2, 20), (3, 30)]);
        let s = rel("S", 1, 2, &[(10, 100), (30, 300)]);
        let semi = r.semijoin(&s).unwrap();
        assert_eq!(semi.len(), 2);
        assert!(!semi.contains(&Tuple::pair(2, 20)));
        // The semijoin and the tuples it drops partition R.
        let mut anti = Relation::new("anti", r.schema().clone());
        anti.insert(Tuple::pair(2, 20)).unwrap();
        assert_eq!(semi.union(&anti).unwrap(), r);
    }

    #[test]
    fn union_reorders_columns() {
        let r = rel("R", 0, 1, &[(1, 10)]);
        let mut s = Relation::new("S", Schema::of([1, 0]));
        s.insert(Tuple::pair(20, 2)).unwrap();
        let u = r.union(&s).unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.contains(&Tuple::pair(2, 20)));
    }

    #[test]
    fn union_is_size_symmetric() {
        // A tiny delta unioned into a big relation must not depend on the
        // argument order for its result (only for its cost).
        let big = rel(
            "big",
            0,
            1,
            &(0..500u64).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let delta = rel("delta", 0, 1, &[(1, 2), (1_000, 1_001)]);
        let a = big.union(&delta).unwrap();
        let b = delta.union(&big).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 501);
        // Reordered columns still take the slow (reorder) path correctly.
        let mut swapped = Relation::new("S", Schema::of([1, 0]));
        swapped.insert(Tuple::pair(9_999, 77)).unwrap();
        let u = swapped.union(&big).unwrap();
        assert_eq!(u.schema().vars(), &[1, 0]);
        assert_eq!(u.len(), 501);
        assert!(u.contains(&Tuple::pair(9_999, 77)));
        assert!(
            u.contains(&Tuple::pair(2, 1)),
            "big side reordered into self's schema"
        );
    }

    #[test]
    fn consuming_union_matches_borrowing_union() {
        let big = rel(
            "big",
            0,
            1,
            &(0..200u64).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let delta = rel("delta", 0, 1, &[(1, 2), (900, 901)]);
        let expected = big.union(&delta).unwrap();
        assert_eq!(big.clone().union_with(delta.clone()).unwrap(), expected);
        assert_eq!(delta.clone().union_with(big.clone()).unwrap(), expected);
        // Mismatched column order falls back to the borrowing path.
        let mut swapped = Relation::new("S", Schema::of([1, 0]));
        swapped.insert(Tuple::pair(7, 70)).unwrap();
        assert_eq!(
            swapped.clone().union_with(delta.clone()).unwrap(),
            swapped.union(&delta).unwrap()
        );
    }

    #[test]
    fn identity_projection_and_reorder_are_clones() {
        let r = rel("R", 0, 1, &[(1, 2), (3, 4)]);
        let p = r.project_onto(VarSet::from_iter([0, 1, 9])).unwrap();
        assert_eq!(p, r);
        assert_eq!(p.schema(), r.schema());
        let same = r.reorder(r.schema()).unwrap();
        assert_eq!(same, r);
    }

    #[test]
    fn join_all_three_path() {
        let r1 = rel("R1", 0, 1, &[(1, 2), (5, 6)]);
        let r2 = rel("R2", 1, 2, &[(2, 3)]);
        let r3 = rel("R3", 2, 3, &[(3, 4)]);
        let j = r1.join(&r2).unwrap().join(&r3).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.contains(&Tuple::from_slice(&[1, 2, 3, 4])));
    }

    #[test]
    fn reorder_validates_varset() {
        let r = rel("R", 0, 1, &[(1, 2)]);
        assert!(r.reorder(&Schema::of([1, 2])).is_err());
        let ok = r.reorder(&Schema::of([1, 0])).unwrap();
        assert!(ok.contains(&Tuple::pair(2, 1)));
    }
}
