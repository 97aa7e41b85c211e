//! Constructors for the query families studied in the paper.
//!
//! Variable numbering follows the paper exactly (rendered 1-based in
//! `Display`, stored 0-based):
//!
//! * [`k_path_distinct`] — k-reachability,
//!   `φ_k(x_1, x_{k+1} | x_1, x_{k+1}) ← ⋀_i R_i(x_i, x_{i+1})`, with
//!   distinct relation names `R_1..R_k` (the form used in Example 3.3 and
//!   Appendix E; Example 2.3's self-join reads one `R` at every hop).
//! * [`k_set_disjointness`] / [`k_set_intersection`] — Example 2.2 /
//!   Section 6.1, over `R(y, x)` meaning "element y belongs to set x".
//! * [`square`] — Example 5.2: opposite corners of a 4-cycle.
//! * [`triangle_edge`] — Example E.4: Boolean triangle with empty access
//!   pattern.
//! * [`hierarchical_two_level`] — the Appendix F example
//!   (Figure 6a): four ternary relations sharing a root variable.

use crate::cq::{Atom, ConjunctiveQuery};
use crate::cqap::Cqap;
use cqap_common::VarSet;

/// The k-path CQAP with *distinct* relation names `R1..Rk`, as used in the
/// worked examples of Section 3 and Appendix E. Each atom reads its own
/// relation, which lets workloads vary the levels independently.
pub fn k_path_distinct(k: usize) -> Cqap {
    assert!(k >= 1);
    let atoms = (0..k)
        .map(|i| Atom::new(format!("R{}", i + 1), vec![i, i + 1]).expect("distinct vars"))
        .collect();
    let head = VarSet::from_iter([0, k]);
    let cq =
        ConjunctiveQuery::new(format!("path{k}"), k + 1, atoms, head).expect("valid k-path query");
    Cqap::new(cq, head).expect("A ⊆ vars")
}

/// The Boolean k-set-disjointness CQAP (Example 2.2, eq. (1)):
/// `φ( | x_1..x_k) ← ⋀_i R(y, x_i)` with `y = x_{k+1}`.
///
/// The head is empty, so after the paper's `H ⊇ A` normalization the head
/// becomes the access pattern itself.
pub fn k_set_disjointness(k: usize) -> Cqap {
    assert!(k >= 1);
    let y = k; // the element variable x_{k+1}
    let atoms = (0..k)
        .map(|i| Atom::new("R", vec![y, i]).expect("distinct vars"))
        .collect();
    let access = VarSet::from_iter(0..k);
    let cq = ConjunctiveQuery::new(format!("setdisj{k}"), k + 1, atoms, VarSet::EMPTY)
        .expect("valid query");
    Cqap::new(cq, access).expect("A ⊆ vars")
}

/// The non-Boolean k-set-intersection CQAP (Example 2.2, eq. (2) /
/// Section 6.1): like [`k_set_disjointness`] but the element variable `y`
/// is returned.
pub fn k_set_intersection(k: usize) -> Cqap {
    assert!(k >= 1);
    let y = k;
    let atoms = (0..k)
        .map(|i| Atom::new("R", vec![y, i]).expect("distinct vars"))
        .collect();
    let access = VarSet::from_iter(0..k);
    let head = access.insert(y);
    let cq =
        ConjunctiveQuery::new(format!("setint{k}"), k + 1, atoms, head).expect("valid query");
    Cqap::new(cq, access).expect("A ⊆ vars")
}

/// The square CQAP (Example 5.2): given two vertices, decide whether they
/// are opposite corners of a 4-cycle.
/// `φ(x1,x3 | x1,x3) ← R1(x1,x2) ∧ R2(x2,x3) ∧ R3(x3,x4) ∧ R4(x4,x1)`.
///
/// When `distinct_relations` is false all four atoms read the same relation
/// `R` (a single graph), matching Example E.5.
pub fn square(distinct_relations: bool) -> Cqap {
    let name = |i: usize| {
        if distinct_relations {
            format!("R{i}")
        } else {
            "R".to_string()
        }
    };
    let atoms = vec![
        Atom::new(name(1), vec![0, 1]).unwrap(),
        Atom::new(name(2), vec![1, 2]).unwrap(),
        Atom::new(name(3), vec![2, 3]).unwrap(),
        Atom::new(name(4), vec![3, 0]).unwrap(),
    ];
    let head = VarSet::from_iter([0, 2]);
    let cq = ConjunctiveQuery::new("square", 4, atoms, head).expect("valid square query");
    Cqap::new(cq, head).expect("A ⊆ vars")
}

/// The triangle CQAP of Example E.4 with an *empty* access pattern:
/// `φ(x1,x3 | ∅) ← R(x1,x2) ∧ R(x2,x3) ∧ R(x3,x1)`.
pub fn triangle_edge() -> Cqap {
    let atoms = vec![
        Atom::new("R", vec![0, 1]).unwrap(),
        Atom::new("R", vec![1, 2]).unwrap(),
        Atom::new("R", vec![2, 0]).unwrap(),
    ];
    let head = VarSet::from_iter([0, 2]);
    let cq = ConjunctiveQuery::new("triangle", 3, atoms, head).expect("valid triangle query");
    Cqap::new(cq, VarSet::EMPTY).expect("empty access pattern")
}

/// The Boolean hierarchical CQAP of Appendix F (Figure 6a):
///
/// `φ(Z | Z) ← R(x,y1,z1) ∧ S(x,y1,z2) ∧ T(x,y2,z3) ∧ U(x,y2,z4)`
/// where `Z = {z1,z2,z3,z4}` is the access pattern.
///
/// Variable layout: `x = x1`, `y1 = x2`, `y2 = x3`, `z1..z4 = x4..x7`.
pub fn hierarchical_two_level() -> Cqap {
    let x = 0;
    let y1 = 1;
    let y2 = 2;
    let z = [3, 4, 5, 6];
    let atoms = vec![
        Atom::new("R", vec![x, y1, z[0]]).unwrap(),
        Atom::new("S", vec![x, y1, z[1]]).unwrap(),
        Atom::new("T", vec![x, y2, z[2]]).unwrap(),
        Atom::new("U", vec![x, y2, z[3]]).unwrap(),
    ];
    let access = VarSet::from_iter(z);
    let cq = ConjunctiveQuery::new("hier", 7, atoms, access).expect("valid hierarchical query");
    Cqap::new(cq, access).expect("A ⊆ vars")
}

/// A star CQAP `φ(x_0 | x_1..x_k) ← ⋀_i R_i(x_0, x_i)` used by tests of the
/// decomposition machinery (hierarchical, acyclic, one shared variable).
#[cfg(test)]
pub(crate) fn star(k: usize) -> Cqap {
    assert!(k >= 1);
    let atoms = (1..=k)
        .map(|i| Atom::new(format!("R{i}"), vec![0, i]).expect("distinct vars"))
        .collect();
    let access = VarSet::from_iter(1..=k);
    let head = access.insert(0);
    let cq = ConjunctiveQuery::new(format!("star{k}"), k + 1, atoms, head).expect("valid star");
    Cqap::new(cq, access).expect("A ⊆ vars")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;

    #[test]
    fn reachability_shapes() {
        for k in 1..=6 {
            let q = k_path_distinct(k);
            assert_eq!(q.num_vars(), k + 1);
            assert_eq!(q.cq().atoms().len(), k);
            assert_eq!(q.access(), VarSet::from_iter([0, k]));
            assert_eq!(q.head(), q.access());
            assert!(q.is_boolean_given_access());
            // One relation per hop.
            assert_eq!(q.cq().relation_names().len(), k);
        }
    }

    #[test]
    fn three_reachability_matches_example_33() {
        let q = k_path_distinct(3);
        assert_eq!(q.to_string().matches("∧").count(), 2);
        assert_eq!(q.access(), vars![1, 4]);
        assert_eq!(q.cq().relation_names(), vec!["R1", "R2", "R3"]);
        let h = q.hypergraph();
        assert_eq!(h.edges(), &[vars![1, 2], vars![2, 3], vars![3, 4]]);
    }

    #[test]
    fn set_disjointness_and_intersection() {
        let d = k_set_disjointness(3);
        assert_eq!(d.declared_head(), VarSet::EMPTY);
        assert_eq!(d.head(), vars![1, 2, 3]); // normalized to A
        assert!(d.is_boolean_given_access());
        assert!(d.cq().is_hierarchical());

        let i = k_set_intersection(3);
        assert_eq!(i.head(), vars![1, 2, 3, 4]);
        assert_eq!(i.head().difference(i.access()), vars![4]);
        assert!(!i.is_boolean_given_access());
    }

    #[test]
    fn square_and_triangle() {
        let s = square(true);
        assert_eq!(s.num_vars(), 4);
        assert_eq!(s.access(), vars![1, 3]);
        assert_eq!(s.cq().relation_names().len(), 4);
        let s1 = square(false);
        assert_eq!(s1.cq().relation_names(), vec!["R"]);

        let t = triangle_edge();
        assert_eq!(t.access(), VarSet::EMPTY);
        assert_eq!(t.head(), vars![1, 3]);
    }

    #[test]
    fn hierarchical_query_is_hierarchical() {
        let h = hierarchical_two_level();
        assert!(h.cq().is_hierarchical());
        assert_eq!(h.access().len(), 4);
        assert_eq!(h.num_vars(), 7);
        assert!(h.is_boolean_given_access());
    }

    #[test]
    fn star_query() {
        let s = star(3);
        assert!(s.cq().is_hierarchical());
        assert_eq!(s.head().difference(s.access()), vars![1]);
    }
}
