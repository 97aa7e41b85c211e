//! Heavy/light partitioning — the "split step" of the 2PP algorithm.
//!
//! A split step on a `(Y, X)` pair (Appendix C.2, following Lemma 6.1 of
//! PANDA) partitions a relation so that the product of the number of
//! distinct `X`-values and the per-`X` degree is bounded. In the practical
//! data structures of Section 5 and Section 6 this specializes to a single
//! *threshold* split:
//!
//! * the **heavy** part contains the tuples whose `X`-projection has degree
//!   `> threshold` — there are at most `|R| / threshold` distinct heavy
//!   `X`-values, so anything keyed by heavy values alone is small;
//! * the **light** part contains the remaining tuples — every light
//!   `X`-value has degree `≤ threshold`, so expanding a light value online
//!   is cheap.
//!
//! PANDA's full bucketing into `O(log |R|)` sub-relations of geometrically
//! increasing degree is not implemented: the space-budgeted build of
//! ROADMAP item 2 starts from one threshold.

use crate::index::HashIndex;
use crate::relation::Relation;
use cqap_common::{Result, Tuple, VarSet};

/// The result of a heavy/light threshold split of a relation on a key set.
#[derive(Clone, Debug)]
pub struct HeavyLightSplit {
    /// Tuples whose key has degree strictly greater than the threshold.
    pub heavy: Relation,
    /// Tuples whose key has degree at most the threshold.
    pub light: Relation,
    /// The threshold used.
    pub threshold: usize,
    /// Number of distinct heavy key values.
    pub heavy_keys: usize,
    /// Number of distinct light key values.
    pub light_keys: usize,
}

impl HeavyLightSplit {}

/// Splits `rel` on the key variables `x` with the given degree `threshold`.
///
/// A key value is *heavy* when strictly more than `threshold` tuples share
/// it. The classic 2-Set-Disjointness / 2-reachability structure uses
/// `threshold = |D| / sqrt(S)` so that the heavy part has at most `sqrt(S)`
/// distinct keys.
pub fn split_heavy_light(rel: &Relation, x: VarSet, threshold: usize) -> Result<HeavyLightSplit> {
    let idx = HashIndex::build(rel, x)?;
    let mut heavy = Relation::new(format!("{}^H", rel.name()), rel.schema().clone());
    let mut light = Relation::new(format!("{}^L", rel.name()), rel.schema().clone());
    let mut heavy_keys = 0usize;
    let mut light_keys = 0usize;
    for (_key, tuples) in idx.groups() {
        if tuples.len() > threshold {
            heavy_keys += 1;
            for t in tuples {
                heavy.insert(t.clone())?;
            }
        } else {
            light_keys += 1;
            for t in tuples {
                light.insert(t.clone())?;
            }
        }
    }
    Ok(HeavyLightSplit {
        heavy,
        light,
        threshold,
        heavy_keys,
        light_keys,
    })
}

/// Returns the set of heavy key values (as key tuples over `x` in ascending
/// variable order) — i.e. the keys with degree `> threshold`.
pub fn heavy_keys(rel: &Relation, x: VarSet, threshold: usize) -> Result<Vec<Tuple>> {
    let idx = HashIndex::build(rel, x)?;
    Ok(idx
        .groups()
        .filter(|(_, ts)| ts.len() > threshold)
        .map(|(k, _)| k.clone())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;

    /// Star graph: vertex 1 has out-degree 10; vertices 2..=5 have degree 1.
    fn skewed() -> Relation {
        let mut pairs = Vec::new();
        for j in 0..10 {
            pairs.push((1u64, 100 + j as u64));
        }
        for v in 2..=5u64 {
            pairs.push((v, 200 + v));
        }
        Relation::binary("R", 0, 1, pairs)
    }

    #[test]
    fn threshold_split_partitions_input() {
        let r = skewed();
        let split = split_heavy_light(&r, vars![1], 3).unwrap();
        assert_eq!(split.heavy.len() + split.light.len(), r.len());
        assert_eq!(split.heavy.len(), 10);
        assert_eq!(split.light.len(), 4);
        assert_eq!(split.heavy_keys, 1);
        assert_eq!(split.light_keys, 4);
        // Heavy and light parts are disjoint.
        assert!(split.heavy.iter().all(|t| !split.light.contains(t)));
    }

    #[test]
    fn threshold_extremes() {
        let r = skewed();
        let all_light = split_heavy_light(&r, vars![1], r.len()).unwrap();
        assert!(all_light.heavy.is_empty());
        assert_eq!(all_light.light.len(), r.len());

        let all_heavy = split_heavy_light(&r, vars![1], 0).unwrap();
        assert!(all_heavy.light.is_empty());
        assert_eq!(all_heavy.heavy.len(), r.len());
    }

    #[test]
    fn heavy_keys_bounded_by_n_over_threshold() {
        let r = skewed();
        let threshold = 3;
        let hk = heavy_keys(&r, vars![1], threshold).unwrap();
        assert_eq!(hk.len(), 1);
        assert!(hk.len() <= r.len() / threshold);
        assert_eq!(hk[0], Tuple::unary(1));
    }

    #[test]
    fn light_degree_bounded() {
        let r = skewed();
        let split = split_heavy_light(&r, vars![1], 3).unwrap();
        let idx = HashIndex::build(&split.light, vars![1]).unwrap();
        assert!(idx.max_degree() <= 3);
    }
}
