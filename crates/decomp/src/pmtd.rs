//! Partially materialized tree decompositions (Definition 3.2).

use crate::td::TreeDecomposition;
use cqap_common::{CqapError, Result, VarSet};
use cqap_query::Cqap;
use std::fmt;

/// Whether a view is materialized during preprocessing (`S`) or computed
/// online (`T`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViewKind {
    /// An S-view: materialized in the preprocessing phase.
    S,
    /// A T-view: computed in the online phase.
    T,
}

/// The view associated with a tree node of a PMTD: its kind and its schema
/// `ν(t)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct View {
    /// The tree node this view belongs to.
    pub node: usize,
    /// S or T.
    pub kind: ViewKind,
    /// The view schema `ν(t)`.
    pub vars: VarSet,
}

impl View {
    /// Paper-style label such as `T134` or `S13` (1-based variable digits).
    pub(crate) fn label(&self) -> String {
        let mut s = match self.kind {
            ViewKind::S => String::from("S"),
            ViewKind::T => String::from("T"),
        };
        if self.vars.is_empty() {
            s.push('∅');
        } else {
            for v in self.vars.iter() {
                s.push_str(&(v + 1).to_string());
            }
        }
        s
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A Partially Materialized Tree Decomposition (PMTD) of a CQAP
/// `φ(x_H | x_A)` with `H ⊇ A` (Definition 3.2): a free-connex tree
/// decomposition rooted at `r` with `A ⊆ χ(r)`, together with a
/// materialization set `M` closed under taking subtrees.
#[derive(Clone, PartialEq, Eq)]
pub struct Pmtd {
    td: TreeDecomposition,
    materialized: Vec<bool>,
    head: VarSet,
    access: VarSet,
}

impl Pmtd {
    /// Creates a PMTD, validating the three properties of Definition 3.2.
    pub(crate) fn new(
        td: TreeDecomposition,
        materialized_nodes: impl IntoIterator<Item = usize>,
        head: VarSet,
        access: VarSet,
    ) -> Result<Self> {
        let mut materialized = vec![false; td.num_nodes()];
        for t in materialized_nodes {
            if t >= td.num_nodes() {
                return Err(CqapError::InvalidPmtd(format!(
                    "materialized node {t} out of range"
                )));
            }
            materialized[t] = true;
        }
        if !access.is_subset(head) {
            return Err(CqapError::InvalidPmtd(format!(
                "PMTDs require A ⊆ H (A = {access}, H = {head})"
            )));
        }
        // Property (2): A ⊆ χ(r).
        if !access.is_subset(td.bag(td.root())) {
            return Err(CqapError::InvalidPmtd(format!(
                "access pattern {access} not contained in the root bag {}",
                td.bag(td.root())
            )));
        }
        // Property (1): free-connex w.r.t. the root.
        if !td.is_free_connex(head) {
            return Err(CqapError::InvalidPmtd(
                "decomposition is not free-connex w.r.t. the root".into(),
            ));
        }
        // Property (3): M is closed under subtrees.
        for t in 0..td.num_nodes() {
            if materialized[t] {
                for u in td.subtree(t) {
                    if !materialized[u] {
                        return Err(CqapError::InvalidPmtd(format!(
                            "materialization set not subtree-closed: node {t} ∈ M but its descendant {u} ∉ M"
                        )));
                    }
                }
            }
        }
        Ok(Pmtd {
            td,
            materialized,
            head,
            access,
        })
    }

    /// Creates a PMTD for the given CQAP (head and access pattern taken from
    /// the query).
    pub fn for_cqap(
        td: TreeDecomposition,
        materialized_nodes: impl IntoIterator<Item = usize>,
        cqap: &Cqap,
    ) -> Result<Self> {
        let pmtd = Pmtd::new(td, materialized_nodes, cqap.head(), cqap.access())?;
        pmtd.td.validate_for(&cqap.hypergraph())?;
        Ok(pmtd)
    }

    /// The underlying tree decomposition.
    pub fn td(&self) -> &TreeDecomposition {
        &self.td
    }

    /// The head `H`.
    pub fn head(&self) -> VarSet {
        self.head
    }

    /// The access pattern `A`.
    pub fn access(&self) -> VarSet {
        self.access
    }

    /// Whether node `t` is in the materialization set.
    pub fn is_materialized(&self, t: usize) -> bool {
        self.materialized[t]
    }

    /// The materialization set `M`.
    pub fn materialization_set(&self) -> Vec<usize> {
        (0..self.td.num_nodes())
            .filter(|&t| self.materialized[t])
            .collect()
    }

    /// The view schema `ν(t)` of Definition 3.2.
    pub fn view_schema(&self, t: usize) -> VarSet {
        let chi = self.td.bag(t);
        if !self.materialized[t] {
            return chi;
        }
        match self.td.parent(t) {
            None => chi.intersect(self.head),
            Some(p) => {
                if !self.materialized[p] {
                    chi.intersect(self.head.union(self.td.bag(p)))
                } else {
                    let mine = chi.intersect(self.head);
                    let parents = self.td.bag(p).intersect(self.head);
                    if mine.is_subset(parents) {
                        VarSet::EMPTY
                    } else {
                        mine
                    }
                }
            }
        }
    }

    /// The view (kind + schema) of node `t`.
    pub fn view(&self, t: usize) -> View {
        View {
            node: t,
            kind: if self.materialized[t] {
                ViewKind::S
            } else {
                ViewKind::T
            },
            vars: self.view_schema(t),
        }
    }

    /// All views in node order.
    pub(crate) fn views(&self) -> Vec<View> {
        (0..self.td.num_nodes()).map(|t| self.view(t)).collect()
    }

    /// The S-views (materialized during preprocessing).
    pub(crate) fn s_views(&self) -> Vec<View> {
        self.views()
            .into_iter()
            .filter(|v| v.kind == ViewKind::S)
            .collect()
    }

    /// The T-views (computed online).
    pub(crate) fn t_views(&self) -> Vec<View> {
        self.views()
            .into_iter()
            .filter(|v| v.kind == ViewKind::T)
            .collect()
    }

    /// PMTD non-redundancy (Definition 3.4): every materialized view is
    /// non-empty, and within each kind no view schema is a subset of
    /// another.
    pub(crate) fn is_non_redundant(&self) -> bool {
        let s: Vec<VarSet> = self.s_views().iter().map(|v| v.vars).collect();
        let t: Vec<VarSet> = self.t_views().iter().map(|v| v.vars).collect();
        if s.iter().any(|v| v.is_empty()) {
            return false;
        }
        let no_subset = |views: &[VarSet]| {
            for (i, a) in views.iter().enumerate() {
                for (j, b) in views.iter().enumerate() {
                    if i != j && a.is_subset(*b) {
                        return false;
                    }
                }
            }
            true
        };
        no_subset(&s) && no_subset(&t)
    }

    /// PMTD domination (Definition 3.5): `self` is dominated by `other` if
    /// every S-view schema of `self` is contained in some S-view schema of
    /// `other`, and every T-view schema of `self` is contained in some
    /// T-view schema of `other`.
    pub(crate) fn dominated_by(&self, other: &Pmtd) -> bool {
        let other_s: Vec<VarSet> = other.s_views().iter().map(|v| v.vars).collect();
        let other_t: Vec<VarSet> = other.t_views().iter().map(|v| v.vars).collect();
        self.s_views()
            .iter()
            .all(|v| other_s.iter().any(|o| v.vars.is_subset(*o)))
            && self
                .t_views()
                .iter()
                .all(|v| other_t.iter().any(|o| v.vars.is_subset(*o)))
    }

    /// Paper-style summary such as `(T134, S13)` (views in top-down node
    /// order).
    pub fn summary(&self) -> String {
        let labels: Vec<String> = self
            .td
            .top_down_order()
            .into_iter()
            .map(|t| self.view(t).label())
            .collect();
        format!("({})", labels.join(", "))
    }
}

impl fmt::Debug for Pmtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PMTD {} (H = {}, A = {})", self.summary(), self.head, self.access)?;
        for t in self.td.top_down_order() {
            let indent = "  ".repeat(self.td.depth(t) + 1);
            writeln!(
                f,
                "{indent}[{t}] χ = {}, view = {:?}",
                self.td.bag(t),
                self.view(t)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;
    use cqap_query::families;

    fn three_reach() -> Cqap {
        families::k_path_distinct(3)
    }

    /// The three PMTDs of Figure 1.
    fn figure1() -> (Pmtd, Pmtd, Pmtd) {
        let q = three_reach();
        let chain =
            TreeDecomposition::path(vec![vars![1, 3, 4], vars![1, 2, 3]]).unwrap();
        let left = Pmtd::for_cqap(chain.clone(), [], &q).unwrap();
        let middle = Pmtd::for_cqap(chain, [1], &q).unwrap();
        let single = TreeDecomposition::single(vars![1, 2, 3, 4]);
        let right = Pmtd::for_cqap(single, [0], &q).unwrap();
        (left, middle, right)
    }

    #[test]
    fn figure1_views_match_paper() {
        let (left, middle, right) = figure1();
        // Left: T134 over T123.
        assert_eq!(left.summary(), "(T134, T123)");
        assert_eq!(left.view(0).vars, vars![1, 3, 4]);
        assert_eq!(left.view(1).vars, vars![1, 2, 3]);
        // Middle: the materialized child projects out x2: S13.
        assert_eq!(middle.summary(), "(T134, S13)");
        assert_eq!(middle.view(1).vars, vars![1, 3]);
        assert_eq!(middle.view(1).kind, ViewKind::S);
        // Right: the single materialized bag keeps only x1, x4: S14.
        assert_eq!(right.summary(), "(S14)");
        assert_eq!(right.view(0).vars, vars![1, 4]);
    }

    #[test]
    fn figure1_pmtds_non_redundant_and_mutually_non_dominant() {
        let (left, middle, right) = figure1();
        for p in [&left, &middle, &right] {
            assert!(p.is_non_redundant(), "{p:?}");
        }
        let all = [&left, &middle, &right];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                if i != j {
                    assert!(!a.dominated_by(b), "{} dominated by {}", a.summary(), b.summary());
                }
            }
        }
    }

    #[test]
    fn example_36_redundant_pmtd() {
        // Example 3.6: take the left decomposition but put BOTH bags in M.
        // The child's view becomes empty, so the PMTD is redundant.
        let q = three_reach();
        let chain =
            TreeDecomposition::path(vec![vars![1, 3, 4], vars![1, 2, 3]]).unwrap();
        let p = Pmtd::for_cqap(chain, [0, 1], &q).unwrap();
        assert_eq!(p.view(0).vars, vars![1, 4]);
        assert_eq!(p.view(1).vars, VarSet::EMPTY);
        assert!(!p.is_non_redundant());
    }

    #[test]
    fn example_36_domination() {
        // Example 3.6: a single non-materialized bag {x1..x4} (view T1234)
        // dominates the left PMTD of Figure 1.
        let q = three_reach();
        let (left, _, _) = figure1();
        let single = TreeDecomposition::single(vars![1, 2, 3, 4]);
        let big = Pmtd::for_cqap(single, [], &q).unwrap();
        assert_eq!(big.summary(), "(T1234)");
        assert!(left.dominated_by(&big));
        assert!(!big.dominated_by(&left));
    }

    #[test]
    fn validation_errors() {
        let q = three_reach();
        // Root bag must contain the access pattern {x1, x4}.
        let bad_root =
            TreeDecomposition::path(vec![vars![1, 2, 3], vars![1, 3, 4]]).unwrap();
        assert!(Pmtd::for_cqap(bad_root, [], &q).is_err());
        // Materialization set must be subtree-closed: marking only the root
        // of a two-node chain is invalid.
        let chain =
            TreeDecomposition::path(vec![vars![1, 3, 4], vars![1, 2, 3]]).unwrap();
        assert!(Pmtd::for_cqap(chain.clone(), [0], &q).is_err());
        // Out-of-range node.
        assert!(Pmtd::for_cqap(chain, [7], &q).is_err());
    }

    #[test]
    fn nu_for_materialized_child_of_materialized_parent() {
        // 3-node chain for the 4-path query, all materialized; the deepest
        // node brings no new head variable and gets an empty view.
        let q = families::k_path_distinct(4);
        let td = TreeDecomposition::path(vec![
            vars![1, 2, 4, 5],
            vars![2, 3, 4],
            vars![2, 3],
        ])
        .unwrap();
        // Note: this decomposition is redundant ({2,3} ⊂ {2,3,4}) but still
        // structurally valid; we only use it to exercise ν.
        let p = Pmtd::new(td, [0, 1, 2], q.head(), q.access()).unwrap();
        assert_eq!(p.view(0).vars, vars![1, 5]);
        // Child of a materialized parent with new head vars? none here:
        // χ(1) ∩ H = ∅ ⊆ χ(0) ∩ H, so ν = ∅.
        assert_eq!(p.view(1).vars, VarSet::EMPTY);
        assert!(!p.is_non_redundant());
    }

    #[test]
    fn figure2_square_pmtds() {
        // Figure 2: two PMTDs for the square CQAP.
        let q = families::square(true);
        let chain =
            TreeDecomposition::path(vec![vars![1, 3, 4], vars![1, 2, 3]]).unwrap();
        let p1 = Pmtd::for_cqap(chain, [], &q).unwrap();
        assert_eq!(p1.summary(), "(T134, T123)");
        let single = TreeDecomposition::single(vars![1, 2, 3, 4]);
        let p2 = Pmtd::for_cqap(single, [0], &q).unwrap();
        assert_eq!(p2.summary(), "(S13)");
        assert!(p1.is_non_redundant() && p2.is_non_redundant());
        assert!(!p1.dominated_by(&p2) && !p2.dominated_by(&p1));
    }

    #[test]
    fn view_labels() {
        let (left, middle, _) = figure1();
        assert_eq!(left.view(0).label(), "T134");
        assert_eq!(middle.view(1).label(), "S13");
    }
}
