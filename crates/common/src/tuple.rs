//! Values and tuples.
//!
//! Every attribute value is an interned [`Val`] (`u64`). A [`Tuple`] is a
//! fixed-arity sequence of values; tuples of arity ≤ 4 are stored inline so
//! the relational operators never allocate per tuple for the binary and
//! ternary relations that make up all of the paper's workloads.

use std::fmt;
use std::hash::{Hash, Hasher};

/// An attribute value. Workload generators intern vertex ids, set ids and
/// element ids directly as `u64`.
pub type Val = u64;

const INLINE: usize = 4;

/// Counters for heap-allocating tuple representations, used by tests to
/// prove that the columnar online path never boxes an intermediate tuple.
pub mod instrument {
    use std::cell::Cell;

    thread_local! {
        static HEAP_BOXINGS: Cell<u64> = const { Cell::new(0) };
    }

    /// Total tuples **this thread** has materialized in the heap
    /// representation (arity above the inline limit). Monotone; callers
    /// diff two readings around the code under test. Per-thread so
    /// concurrent serving workers don't pollute each other's measurements.
    pub fn heap_boxings() -> u64 {
        HEAP_BOXINGS.with(Cell::get)
    }

    #[inline]
    pub(super) fn record_heap_boxing() {
        HEAP_BOXINGS.with(|c| c.set(c.get() + 1));
    }
}

/// A relational tuple of fixed arity.
#[derive(Clone, PartialEq, Eq)]
pub struct Tuple {
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// Arity ≤ INLINE, stored without heap allocation.
    Inline { len: u8, data: [Val; INLINE] },
    /// Arity > INLINE.
    Heap(Box<[Val]>),
}

/// Tuples hash as their value slice, so hash containers keyed by `Tuple`
/// can be probed with a borrowed `&[Val]` scratch slice (see the
/// `Borrow<[Val]>` impl) without materializing a key tuple first.
impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Tuples order as their value slice (lexicographic), keeping `Ord`
/// consistent with the slice-based `Hash`/`Eq`/`Borrow<[Val]>` family —
/// a derived order would compare the inline/heap representation first.
impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lets hash-map lookups borrow a tuple as its value slice: a hot loop
/// projects a key into a reused `Vec<Val>` ([`Tuple::project_into`]) and
/// probes the map with the slice, building an owned `Tuple` only on the
/// miss path. Consistent with `Hash`/`Eq` because both sides hash and
/// compare the slice.
impl std::borrow::Borrow<[Val]> for Tuple {
    #[inline]
    fn borrow(&self) -> &[Val] {
        self.as_slice()
    }
}

impl Tuple {
    /// The empty (arity-0) tuple, used for Boolean query results.
    pub fn empty() -> Self {
        Tuple {
            repr: Repr::Inline {
                len: 0,
                data: [0; INLINE],
            },
        }
    }

    /// Creates a tuple from a slice of values.
    pub fn from_slice(vals: &[Val]) -> Self {
        if vals.len() <= INLINE {
            let mut data = [0; INLINE];
            data[..vals.len()].copy_from_slice(vals);
            Tuple {
                repr: Repr::Inline {
                    len: vals.len() as u8,
                    data,
                },
            }
        } else {
            instrument::record_heap_boxing();
            Tuple {
                repr: Repr::Heap(vals.to_vec().into_boxed_slice()),
            }
        }
    }

    /// Creates a unary tuple.
    #[inline]
    pub fn unary(a: Val) -> Self {
        Tuple::from_slice(&[a])
    }

    /// Creates a binary tuple.
    #[inline]
    pub fn pair(a: Val, b: Val) -> Self {
        Tuple::from_slice(&[a, b])
    }

    /// Creates a ternary tuple.
    #[inline]
    pub fn triple(a: Val, b: Val, c: Val) -> Self {
        Tuple::from_slice(&[a, b, c])
    }

    /// Number of values in the tuple.
    #[inline]
    pub fn arity(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(b) => b.len(),
        }
    }

    /// The values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Val] {
        match &self.repr {
            Repr::Inline { len, data } => &data[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Value at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= arity()`.
    #[inline]
    pub fn get(&self, i: usize) -> Val {
        self.as_slice()[i]
    }

    /// Projects the tuple onto the given positions (in the given order).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        let slice = self.as_slice();
        if positions.len() <= INLINE {
            let mut data = [0; INLINE];
            for (k, &p) in positions.iter().enumerate() {
                data[k] = slice[p];
            }
            Tuple {
                repr: Repr::Inline {
                    len: positions.len() as u8,
                    data,
                },
            }
        } else {
            instrument::record_heap_boxing();
            Tuple {
                repr: Repr::Heap(positions.iter().map(|&p| slice[p]).collect()),
            }
        }
    }

    /// Concatenates two tuples.
    #[cfg(test)]
    pub(crate) fn concat(&self, other: &Tuple) -> Tuple {
        let a = self.as_slice();
        let b = other.as_slice();
        let total = a.len() + b.len();
        if total <= INLINE {
            let mut data = [0; INLINE];
            data[..a.len()].copy_from_slice(a);
            data[a.len()..total].copy_from_slice(b);
            Tuple {
                repr: Repr::Inline {
                    len: total as u8,
                    data,
                },
            }
        } else {
            instrument::record_heap_boxing();
            let mut v = Vec::with_capacity(total);
            v.extend_from_slice(a);
            v.extend_from_slice(b);
            Tuple {
                repr: Repr::Heap(v.into_boxed_slice()),
            }
        }
    }

    /// Returns a copy of the values as a `Vec`.
    pub fn to_vec(&self) -> Vec<Val> {
        self.as_slice().to_vec()
    }

    /// In-place projection: writes the projected values into `buf`
    /// (cleared first) instead of building a new tuple. Combined with the
    /// `Borrow<[Val]>` impl, this is how the compiled online path probes
    /// its key-memo tables: project into a reused buffer, look the slice
    /// up, and build an owned key [`Tuple`] only when the lookup misses.
    #[inline]
    pub fn project_into(&self, positions: &[usize], buf: &mut Vec<Val>) {
        let slice = self.as_slice();
        buf.clear();
        buf.extend(positions.iter().map(|&p| slice[p]));
    }

    /// Fused `self.concat(&other.project(positions))` without building the
    /// intermediate projected tuple — the shape of every join-output tuple
    /// (probe-side tuple + the appended columns of the matched tuple).
    pub fn concat_projected(&self, other: &Tuple, positions: &[usize]) -> Tuple {
        let a = self.as_slice();
        let b = other.as_slice();
        let total = a.len() + positions.len();
        if total <= INLINE {
            let mut data = [0; INLINE];
            data[..a.len()].copy_from_slice(a);
            for (k, &p) in positions.iter().enumerate() {
                data[a.len() + k] = b[p];
            }
            Tuple {
                repr: Repr::Inline {
                    len: total as u8,
                    data,
                },
            }
        } else {
            instrument::record_heap_boxing();
            let mut v = Vec::with_capacity(total);
            v.extend_from_slice(a);
            v.extend(positions.iter().map(|&p| b[p]));
            Tuple {
                repr: Repr::Heap(v.into_boxed_slice()),
            }
        }
    }

    /// Scatters the tuple's values into per-column vectors: value `j` is
    /// appended to `cols[j]`. The struct-of-arrays entry point of the
    /// columnar execution path — a row crosses into column runs without
    /// any intermediate allocation.
    #[inline]
    pub fn scatter_into(&self, cols: &mut [Vec<Val>]) {
        let slice = self.as_slice();
        debug_assert_eq!(slice.len(), cols.len());
        for (col, &v) in cols.iter_mut().zip(slice) {
            col.push(v);
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<&[Val]> for Tuple {
    fn from(vals: &[Val]) -> Self {
        Tuple::from_slice(vals)
    }
}

impl From<Vec<Val>> for Tuple {
    fn from(vals: Vec<Val>) -> Self {
        Tuple::from_slice(&vals)
    }
}

impl<const N: usize> From<[Val; N]> for Tuple {
    fn from(vals: [Val; N]) -> Self {
        Tuple::from_slice(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_heap() {
        let t = Tuple::from_slice(&[1, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.as_slice(), &[1, 2, 3]);
        assert!(matches!(t.repr, Repr::Inline { .. }));

        let big = Tuple::from_slice(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(big.arity(), 6);
        assert_eq!(big.get(5), 6);
        assert!(matches!(big.repr, Repr::Heap(_)));
    }

    #[test]
    fn equality_across_representations() {
        // The same logical tuple always has the same representation because
        // representation is chosen by arity, so equality is structural.
        let a = Tuple::from_slice(&[7, 8]);
        let b = Tuple::pair(7, 8);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn projection() {
        let t = Tuple::from_slice(&[10, 20, 30, 40, 50]);
        assert_eq!(t.project(&[0, 2]), Tuple::pair(10, 30));
        assert_eq!(t.project(&[4, 0]), Tuple::pair(50, 10));
        assert_eq!(t.project(&[]), Tuple::empty());
        assert_eq!(
            t.project(&[0, 1, 2, 3, 4]).as_slice(),
            &[10, 20, 30, 40, 50]
        );
    }

    #[test]
    fn concat() {
        let a = Tuple::pair(1, 2);
        let b = Tuple::triple(3, 4, 5);
        assert_eq!(a.concat(&b).as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(a.concat(&Tuple::empty()), a);
        assert_eq!(Tuple::empty().concat(&a), a);
    }

    #[test]
    fn empty_tuple() {
        let e = Tuple::empty();
        assert_eq!(e.arity(), 0);
        assert_eq!(e.as_slice(), &[] as &[Val]);
    }

    #[test]
    fn display() {
        assert_eq!(Tuple::triple(1, 2, 3).to_string(), "(1,2,3)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    #[test]
    fn in_place_projection_and_slice_borrowed_lookup() {
        let t = Tuple::from_slice(&[10, 20, 30, 40, 50]);
        let mut buf = Vec::new();
        t.project_into(&[4, 0], &mut buf);
        assert_eq!(buf, vec![50, 10]);
        t.project_into(&[], &mut buf);
        assert!(buf.is_empty());

        // The Borrow<[Val]> contract: a map keyed by Tuple is probeable
        // with the projected slice, across both representations.
        let mut map = std::collections::HashMap::new();
        map.insert(Tuple::pair(50, 10), "inline");
        map.insert(Tuple::from_slice(&[1, 2, 3, 4, 5]), "heap");
        t.project_into(&[4, 0], &mut buf);
        assert_eq!(map.get(buf.as_slice()), Some(&"inline"));
        assert_eq!(
            map.get([1u64, 2, 3, 4, 5].as_slice()),
            Some(&"heap")
        );
        assert_eq!(map.get([9u64].as_slice()), None);
    }

    #[test]
    fn ordering_is_lexicographic_across_representations() {
        // Ord must agree with slice order even when the representations
        // differ (inline vs heap) — the Borrow<[Val]> consistency contract.
        fn slice_cmp(a: &Tuple, b: &Tuple) -> std::cmp::Ordering {
            a.as_slice().cmp(b.as_slice())
        }
        let tuples = [
            Tuple::empty(),
            Tuple::unary(5),
            Tuple::pair(1, 2),
            Tuple::from_slice(&[1, 2, 3, 4, 5]),
            Tuple::from_slice(&[9, 0, 0, 0, 0, 0]),
        ];
        for a in &tuples {
            for b in &tuples {
                assert_eq!(a.cmp(b), slice_cmp(a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_concat_projected() {
        let a = Tuple::pair(1, 2);
        let b = Tuple::triple(7, 8, 9);
        assert_eq!(a.concat_projected(&b, &[2, 0]), Tuple::from_slice(&[1, 2, 9, 7]));
        assert_eq!(a.concat_projected(&b, &[]), a);
        // Spilling past the inline limit matches the two-step composition.
        let wide = Tuple::from_slice(&[1, 2, 3, 4]);
        assert_eq!(
            wide.concat_projected(&b, &[0, 1]),
            wide.concat(&b.project(&[0, 1]))
        );
    }

    #[test]
    fn conversions() {
        let t: Tuple = [1u64, 2, 3].into();
        assert_eq!(t, Tuple::triple(1, 2, 3));
        let t: Tuple = vec![4u64, 5].into();
        assert_eq!(t, Tuple::pair(4, 5));
    }
}
