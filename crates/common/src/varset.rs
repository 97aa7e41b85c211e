//! Variable identifiers and bitsets over query variables.
//!
//! A conjunctive query in this workspace has at most 64 variables (far more
//! than any query in the paper), so a set of variables is represented as a
//! `u64` bitmask. All set algebra used by the hypergraph, tree-decomposition
//! and polymatroid layers (union, intersection, difference, subset tests,
//! iteration) is O(1) or O(popcount).

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Sub};

/// A query variable, identified by its index `0 ..= 63`.
///
/// The paper writes variables as `x_1, ..., x_n`; we use zero-based indices
/// internally and render them as `x{i+1}` in `Display` so printed output
/// matches the paper's numbering.
pub type Var = usize;

/// Maximum number of distinct variables supported in one query.
pub(crate) const MAX_VARS: usize = 64;

/// A set of query variables represented as a 64-bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VarSet(pub u64);

impl VarSet {
    /// The empty variable set.
    pub const EMPTY: VarSet = VarSet(0);

    /// Creates a set containing a single variable.
    ///
    /// # Panics
    /// Panics if `v >= 64`.
    #[inline]
    pub fn singleton(v: Var) -> Self {
        assert!(v < MAX_VARS, "variable index {v} out of range");
        VarSet(1u64 << v)
    }

    /// Creates a set from an iterator of variables.
    pub(crate) fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        let mut s = VarSet::EMPTY;
        for v in iter {
            s = s.insert(v);
        }
        s
    }

    /// Creates the set `{0, 1, ..., n-1}`.
    #[inline]
    pub fn prefix(n: usize) -> Self {
        assert!(n <= MAX_VARS);
        if n == MAX_VARS {
            VarSet(u64::MAX)
        } else {
            VarSet((1u64 << n) - 1)
        }
    }

    /// Returns the set with `v` added.
    #[inline]
    #[must_use]
    pub fn insert(self, v: Var) -> Self {
        assert!(v < MAX_VARS, "variable index {v} out of range");
        VarSet(self.0 | (1u64 << v))
    }

    /// Returns the set with `v` removed.
    #[inline]
    #[must_use]
    pub fn remove(self, v: Var) -> Self {
        VarSet(self.0 & !(1u64 << v))
    }

    /// Whether the set contains `v`.
    #[inline]
    pub fn contains(self, v: Var) -> bool {
        v < MAX_VARS && (self.0 >> v) & 1 == 1
    }

    /// Number of variables in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub fn union(self, other: VarSet) -> VarSet {
        VarSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    #[must_use]
    pub fn intersect(self, other: VarSet) -> VarSet {
        VarSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    #[must_use]
    pub fn difference(self, other: VarSet) -> VarSet {
        VarSet(self.0 & !other.0)
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: VarSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether `self ⊂ other` (strict).
    #[inline]
    pub fn is_strict_subset(self, other: VarSet) -> bool {
        self != other && self.is_subset(other)
    }

    /// Whether the sets are disjoint.
    #[inline]
    pub fn is_disjoint(self, other: VarSet) -> bool {
        self.0 & other.0 == 0
    }

    /// The "incomparable" relation `I ⊥ J` used by the submodularity rule:
    /// `I ⊄ J` and `J ⊄ I` (neither is a subset of the other).
    #[inline]
    pub fn is_incomparable(self, other: VarSet) -> bool {
        !self.is_subset(other) && !other.is_subset(self)
    }

    /// Iterates over the variables in ascending order.
    #[inline]
    pub fn iter(self) -> VarSetIter {
        VarSetIter(self.0)
    }

    /// Returns the variables as a `Vec`, ascending.
    pub fn to_vec(self) -> Vec<Var> {
        self.iter().collect()
    }

    /// Largest variable in the set, if non-empty.
    #[inline]
    pub fn max_var(self) -> Option<Var> {
        if self.0 == 0 {
            None
        } else {
            Some(63 - self.0.leading_zeros() as usize)
        }
    }

    /// Enumerates all subsets of this set (including `∅` and the set itself).
    ///
    /// The number of subsets is `2^len()`, so this is intended for the
    /// query-complexity layers (hypergraphs have ≤ ~10 variables).
    pub fn subsets(self) -> impl Iterator<Item = VarSet> {
        SubsetIter {
            mask: self.0,
            current: 0,
            done: false,
        }
    }

    /// Enumerates the *non-empty proper* subsets of this set.
    pub fn proper_nonempty_subsets(self) -> impl Iterator<Item = VarSet> {
        let full = self;
        self.subsets()
            .filter(move |s| !s.is_empty() && *s != full)
    }
}

impl BitOr for VarSet {
    type Output = VarSet;
    #[inline]
    fn bitor(self, rhs: VarSet) -> VarSet {
        self.union(rhs)
    }
}

impl BitAnd for VarSet {
    type Output = VarSet;
    #[inline]
    fn bitand(self, rhs: VarSet) -> VarSet {
        self.intersect(rhs)
    }
}

impl Sub for VarSet {
    type Output = VarSet;
    #[inline]
    fn sub(self, rhs: VarSet) -> VarSet {
        self.difference(rhs)
    }
}

impl BitXor for VarSet {
    type Output = VarSet;
    #[inline]
    fn bitxor(self, rhs: VarSet) -> VarSet {
        VarSet(self.0 ^ rhs.0)
    }
}

impl FromIterator<Var> for VarSet {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        VarSet::from_iter(iter)
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "x{}", v + 1)?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Iterator over the variables of a [`VarSet`].
pub struct VarSetIter(u64);

impl Iterator for VarSetIter {
    type Item = Var;

    #[inline]
    fn next(&mut self) -> Option<Var> {
        if self.0 == 0 {
            None
        } else {
            let v = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(v)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for VarSetIter {}

struct SubsetIter {
    mask: u64,
    current: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = VarSet;

    fn next(&mut self) -> Option<VarSet> {
        if self.done {
            return None;
        }
        let result = VarSet(self.current);
        if self.current == self.mask {
            self.done = true;
        } else {
            // Standard trick for enumerating subsets of a mask in order.
            self.current = (self.current.wrapping_sub(self.mask)) & self.mask;
        }
        Some(result)
    }
}

/// Convenience macro for building a [`VarSet`] from 1-based variable numbers
/// as they appear in the paper, e.g. `vars![1, 3, 4]` is `{x1, x3, x4}`.
#[macro_export]
macro_rules! vars {
    ($($v:expr),* $(,)?) => {
        $crate::varset::VarSet::from_iter([$( ($v as usize) - 1 ),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let a = VarSet::from_iter([0, 2, 3]);
        let b = VarSet::from_iter([2, 4]);
        assert_eq!(a.len(), 3);
        assert!(a.contains(2));
        assert!(!a.contains(1));
        assert_eq!(a.union(b), VarSet::from_iter([0, 2, 3, 4]));
        assert_eq!(a.intersect(b), VarSet::singleton(2));
        assert_eq!(a.difference(b), VarSet::from_iter([0, 3]));
        assert!(VarSet::singleton(2).is_subset(a));
        assert!(!a.is_subset(b));
        assert!(a.is_strict_subset(a.insert(10)));
        assert!(!a.is_strict_subset(a));
    }

    #[test]
    fn incomparable() {
        let a = VarSet::from_iter([0, 1]);
        let b = VarSet::from_iter([1, 2]);
        let c = VarSet::from_iter([0, 1, 2]);
        assert!(a.is_incomparable(b));
        assert!(!a.is_incomparable(c));
        assert!(!a.is_incomparable(a));
    }

    #[test]
    fn iteration_order() {
        let a = VarSet::from_iter([5, 1, 9]);
        assert_eq!(a.to_vec(), vec![1, 5, 9]);
        assert_eq!(a.max_var(), Some(9));
        assert_eq!(VarSet::EMPTY.max_var(), None);
    }

    #[test]
    fn prefix_sets() {
        assert_eq!(VarSet::prefix(0), VarSet::EMPTY);
        assert_eq!(VarSet::prefix(3), VarSet::from_iter([0, 1, 2]));
        assert_eq!(VarSet::prefix(64).len(), 64);
    }

    #[test]
    fn subsets_enumeration() {
        let a = VarSet::from_iter([1, 4, 6]);
        let subs: Vec<_> = a.subsets().collect();
        assert_eq!(subs.len(), 8);
        assert!(subs.contains(&VarSet::EMPTY));
        assert!(subs.contains(&a));
        assert!(subs.contains(&VarSet::from_iter([1, 6])));
        // All unique.
        let uniq: std::collections::HashSet<_> = subs.iter().collect();
        assert_eq!(uniq.len(), 8);

        let proper: Vec<_> = a.proper_nonempty_subsets().collect();
        assert_eq!(proper.len(), 6);
    }

    #[test]
    fn display_matches_paper_numbering() {
        let a = vars![1, 3, 4];
        assert_eq!(format!("{a}"), "{x1,x3,x4}");
    }

    #[test]
    fn operators() {
        let a = vars![1, 2];
        let b = vars![2, 3];
        assert_eq!(a | b, vars![1, 2, 3]);
        assert_eq!(a & b, vars![2]);
        assert_eq!(a - b, vars![1]);
        assert_eq!(a ^ b, vars![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = VarSet::singleton(64);
    }
}
