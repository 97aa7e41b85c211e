//! The two-level Boolean hierarchical CQAP of Appendix F.
//!
//! `φ(Z | Z) ← R(x,y1,z1) ∧ S(x,y1,z2) ∧ T(x,y2,z3) ∧ U(x,y2,z4)` with
//! access pattern `Z = (z1,z2,z3,z4)`: given a binding of the four leaf
//! variables, does some root value `x` (with witnesses `y1, y2`) satisfy all
//! four atoms?
//!
//! The structure follows the adapted Kara-et-al. strategy of Appendix F,
//! driven by a degree threshold `Δ` on the root variable `x`:
//!
//! * for every **light** `x` (at most `Δ` tuples in each relation), the
//!   half-views `W1(x | z1,z2) = ∃y1. R ∧ S` and `W2(x | z3,z4) = ∃y2. T ∧ U`
//!   are materialized and indexed by their `z`-pair — space `O(N·Δ)`;
//! * **heavy** `x` values (at most `N/Δ` of them) are checked online per
//!   request by probing the four per-`(x, z)` indexes — time `O(N/Δ)`
//!   probes.
//!
//! Sweeping `Δ` traces a space/time tradeoff between the two extremes
//! (everything materialized vs. everything online), which is what the
//! Appendix F experiment measures.

use cqap_common::{work, FxHashMap, FxHashSet, Val};

/// A tuple of one hierarchical input relation: `(x, y, z)`.
pub(crate) type HTuple = (Val, Val, Val);

/// The synthetic input of the hierarchical experiment: the four ternary
/// relations of Figure 6a.
#[derive(Clone, Debug, Default)]
pub(crate) struct HierarchicalInstance {
    /// `R(x, y1, z1)`.
    pub(crate) r: Vec<HTuple>,
    /// `S(x, y1, z2)`.
    pub(crate) s: Vec<HTuple>,
    /// `T(x, y2, z3)`.
    pub(crate) t: Vec<HTuple>,
    /// `U(x, y2, z4)`.
    pub(crate) u: Vec<HTuple>,
}

impl HierarchicalInstance {
    /// Generates a skewed instance: `num_roots` root values, the first
    /// `num_heavy` of which receive `heavy_width` (y, z) combinations per
    /// relation while the rest receive few, drawn deterministically from
    /// the seed.
    pub(crate) fn generate(
        num_roots: usize,
        num_heavy: usize,
        heavy_width: usize,
        light_width: usize,
        z_domain: usize,
        seed: u64,
    ) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = HierarchicalInstance::default();
        for x in 0..num_roots as Val {
            let width = if (x as usize) < num_heavy {
                heavy_width
            } else {
                light_width
            };
            for w in 0..width {
                let y1 = (x * 1000 + w as Val) % 10_000;
                let y2 = (x * 2000 + w as Val) % 10_000;
                inst.r.push((x, y1, rng.random_range(0..z_domain) as Val));
                inst.s.push((x, y1, rng.random_range(0..z_domain) as Val));
                inst.t.push((x, y2, rng.random_range(0..z_domain) as Val));
                inst.u.push((x, y2, rng.random_range(0..z_domain) as Val));
            }
        }
        inst
    }
}

/// Sorts and deduplicates a vector in place and returns it.
fn sorted_dedup<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v.dedup();
    v
}

/// The budget-parameterized index for the hierarchical CQAP.
pub(crate) struct HierarchicalIndex {
    /// Light-root half-views: `(z1, z2) → sorted x values` with `∃y1. R∧S`.
    w1: FxHashMap<(Val, Val), Vec<Val>>,
    /// Light-root half-views: `(z3, z4) → sorted x values` with `∃y2. T∧U`.
    w2: FxHashMap<(Val, Val), Vec<Val>>,
    /// Heavy root values, checked online per request.
    heavy_roots: Vec<Val>,
    /// Per-(x, z1) index of R: the y1 witnesses.
    r_by_xz: FxHashMap<(Val, Val), FxHashSet<Val>>,
    s_by_xz: FxHashMap<(Val, Val), FxHashSet<Val>>,
    t_by_xz: FxHashMap<(Val, Val), FxHashSet<Val>>,
    u_by_xz: FxHashMap<(Val, Val), FxHashSet<Val>>,
    space: usize,
}

impl HierarchicalIndex {
    /// Builds the index with the given root-degree threshold `Δ`.
    pub(crate) fn build_with_threshold(inst: &HierarchicalInstance, threshold: usize) -> Self {
        let threshold = threshold.max(1);
        // Per-root tuple counts to classify heavy/light.
        let mut degree: FxHashMap<Val, usize> = FxHashMap::default();
        for (x, _, _) in inst.r.iter().chain(&inst.s).chain(&inst.t).chain(&inst.u) {
            *degree.entry(*x).or_default() += 1;
        }
        let heavy: FxHashSet<Val> = degree
            .iter()
            .filter(|(_, &d)| d > 4 * threshold)
            .map(|(&x, _)| x)
            .collect();

        // Per-(x, z) atom indexes (these are rearrangements of the input and
        // count as the Õ(|D|) part of the space, not the intrinsic cost).
        let index_atom = |tuples: &[HTuple]| {
            let mut m: FxHashMap<(Val, Val), FxHashSet<Val>> = FxHashMap::default();
            for &(x, y, z) in tuples {
                m.entry((x, z)).or_default().insert(y);
            }
            m
        };
        let r_by_xz = index_atom(&inst.r);
        let s_by_xz = index_atom(&inst.s);
        let t_by_xz = index_atom(&inst.t);
        let u_by_xz = index_atom(&inst.u);

        // Materialize the light-root half-views W1 and W2.
        let half_view = |a: &FxHashMap<(Val, Val), FxHashSet<Val>>,
                         b: &FxHashMap<(Val, Val), FxHashSet<Val>>|
         -> FxHashMap<(Val, Val), Vec<Val>> {
            let mut out: FxHashMap<(Val, Val), FxHashSet<Val>> = FxHashMap::default();
            for (&(x, za), ys) in a {
                if heavy.contains(&x) {
                    continue;
                }
                for (&(x2, zb), ys2) in b {
                    if x2 != x {
                        continue;
                    }
                    if ys.iter().any(|y| ys2.contains(y)) {
                        out.entry((za, zb)).or_default().insert(x);
                    }
                }
            }
            out.into_iter()
                .map(|(k, v)| (k, sorted_dedup(v.into_iter().collect())))
                .collect()
        };
        let w1 = half_view(&r_by_xz, &s_by_xz);
        let w2 = half_view(&t_by_xz, &u_by_xz);

        let space =
            w1.values().map(Vec::len).sum::<usize>() + w2.values().map(Vec::len).sum::<usize>();
        let mut heavy_roots: Vec<Val> = heavy.into_iter().collect();
        heavy_roots.sort_unstable();
        HierarchicalIndex {
            w1,
            w2,
            heavy_roots,
            r_by_xz,
            s_by_xz,
            t_by_xz,
            u_by_xz,
            space,
        }
    }

    /// Intrinsic space usage: the materialized half-view entries.
    pub(crate) fn space_used(&self) -> usize {
        self.space
    }

    /// Answers the Boolean hierarchical CQAP for the request
    /// `Z = (z1, z2, z3, z4)`.
    pub(crate) fn query(&self, z1: Val, z2: Val, z3: Val, z4: Val) -> bool {
        // Light roots: intersect the two materialized half-view lists.
        work::add(2, 0);
        let l1 = self.w1.get(&(z1, z2));
        let l2 = self.w2.get(&(z3, z4));
        if let (Some(l1), Some(l2)) = (l1, l2) {
            let (small, big) = if l1.len() <= l2.len() {
                (l1, l2)
            } else {
                (l2, l1)
            };
            work::add(0, small.len() as u64);
            if small.iter().any(|x| big.binary_search(x).is_ok()) {
                return true;
            }
        }
        // Heavy roots: check each one directly against the four atoms.
        for &x in &self.heavy_roots {
            work::add(4, 0);
            let (Some(ry), Some(sy), Some(ty), Some(uy)) = (
                self.r_by_xz.get(&(x, z1)),
                self.s_by_xz.get(&(x, z2)),
                self.t_by_xz.get(&(x, z3)),
                self.u_by_xz.get(&(x, z4)),
            ) else {
                continue;
            };
            let y1_ok = {
                let (a, b) = if ry.len() <= sy.len() {
                    (ry, sy)
                } else {
                    (sy, ry)
                };
                work::add(0, a.len() as u64);
                a.iter().any(|y| b.contains(y))
            };
            if !y1_ok {
                continue;
            }
            let y2_ok = {
                let (a, b) = if ty.len() <= uy.len() {
                    (ty, uy)
                } else {
                    (uy, ty)
                };
                work::add(0, a.len() as u64);
                a.iter().any(|y| b.contains(y))
            };
            if y2_ok {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::verdicts;
    use cqap_common::Tuple;
    use cqap_query::families::hierarchical_two_level;
    use cqap_relation::{Database, Relation, Schema};
    use cqap_yannakakis::naive_answer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn instance() -> HierarchicalInstance {
        HierarchicalInstance::generate(60, 3, 60, 4, 12, 7)
    }

    /// The instance as the hierarchical CQAP's database: `R`, `S`, `T`
    /// and `U` over `(x, y, z)`.
    fn database(inst: &HierarchicalInstance) -> Database {
        let mut db = Database::new();
        for (name, rows) in [
            ("R", &inst.r),
            ("S", &inst.s),
            ("T", &inst.t),
            ("U", &inst.u),
        ] {
            let tuples = rows.iter().map(|&(x, y, z)| Tuple::triple(x, y, z));
            let schema = Schema::new(vec![0, 1, 2]).unwrap();
            db.add_relation(Relation::from_tuples(name, schema, tuples).unwrap())
                .unwrap();
        }
        db
    }

    #[test]
    fn matches_naive() {
        let inst = instance();
        let (cqap, db) = (hierarchical_two_level(), database(&inst));
        let mut rng = StdRng::seed_from_u64(3);
        let mut z = || rng.random_range(0..12) as Val;
        let requests: Vec<Tuple> = (0..150)
            .map(|_| Tuple::from_slice(&[z(), z(), z(), z()]))
            .collect();
        let checks = verdicts(&cqap, &db, requests, |r| naive_answer(&cqap, &db, r));
        for threshold in [1usize, 8, 1_000] {
            let idx = HierarchicalIndex::build_with_threshold(&inst, threshold);
            for (z, held) in &checks {
                let got = idx.query(z.get(0), z.get(1), z.get(2), z.get(3));
                assert_eq!(got, *held, "Δ = {threshold}, z = {z:?}");
            }
        }
    }

    #[test]
    fn known_positive_and_negative() {
        let inst = HierarchicalInstance {
            r: vec![(1, 10, 100)],
            s: vec![(1, 10, 101)],
            t: vec![(1, 20, 102)],
            u: vec![(1, 20, 103)],
        };
        let idx = HierarchicalIndex::build_with_threshold(&inst, 4);
        assert!(idx.query(100, 101, 102, 103));
        assert!(!idx.query(100, 101, 102, 104));
        assert!(!idx.query(101, 100, 102, 103));
    }

    #[test]
    fn threshold_controls_heavy_set_and_space() {
        let inst = instance();
        let all_online = HierarchicalIndex::build_with_threshold(&inst, 1);
        let all_materialized = HierarchicalIndex::build_with_threshold(&inst, 1_000_000);
        assert!(all_online.heavy_roots.len() >= all_materialized.heavy_roots.len());
        assert_eq!(all_materialized.heavy_roots.len(), 0);
        assert!(all_materialized.space_used() >= all_online.space_used());
    }

    #[test]
    fn more_space_less_online_work() {
        let inst = instance();
        let tight = HierarchicalIndex::build_with_threshold(&inst, 1);
        let roomy = HierarchicalIndex::build_with_threshold(&inst, 1_000_000);
        let mut rng = StdRng::seed_from_u64(11);
        let requests: Vec<(Val, Val, Val, Val)> = (0..200)
            .map(|_| {
                (
                    rng.random_range(0..12) as Val,
                    rng.random_range(0..12) as Val,
                    rng.random_range(0..12) as Val,
                    rng.random_range(0..12) as Val,
                )
            })
            .collect();
        let work_of = |idx: &HierarchicalIndex| {
            let before = work::total();
            for &(z1, z2, z3, z4) in &requests {
                idx.query(z1, z2, z3, z4);
            }
            work::total() - before
        };
        assert!(work_of(&roomy) <= work_of(&tight));
    }
}
