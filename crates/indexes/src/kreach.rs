//! k-reachability index structures (Section 5 and Section 6.4).
//!
//! * [`TwoReachIndex`] — the Section 5 running example: heavy/light split of
//!   the two edge levels with threshold `Δ = |D|/√S`; heavy-heavy endpoint
//!   pairs are materialized, every other query expands the light endpoint.
//!   Tradeoff `S · T² = O(|D|²)`.
//! * [`KReachGoldstein`] — the prior state-of-the-art recursive structure of
//!   Goldstein et al. for arbitrary `k`: materialize answers for
//!   heavy-heavy endpoint pairs, expand a light endpoint and recurse into a
//!   `(k−1)`-reachability structure. Tradeoff `S · T^{2/(k−1)} = O(|D|²)` —
//!   the brown baseline of Figures 4a/4b.
//! * [`FullReachMaterialization`] — the `T = O(1)` extreme: store all
//!   reachable endpoint pairs.
//! * [`BfsBaseline`] — the `S = O(1)` extreme: answer every request by a
//!   length-bounded breadth-first search.

use cqap_common::{work, FxHashMap, FxHashSet, Val};
use cqap_query::workload::Graph;

/// Adjacency representation shared by the reachability structures.
#[derive(Clone, Debug, Default)]
pub struct Adjacency {
    /// Successors of each vertex.
    pub succ: FxHashMap<Val, Vec<Val>>,
    /// Predecessors of each vertex.
    pub pred: FxHashMap<Val, Vec<Val>>,
    /// Edge membership.
    pub edges: FxHashSet<(Val, Val)>,
}

impl Adjacency {
    /// Builds the adjacency structure of a graph.
    pub fn new(graph: &Graph) -> Self {
        let mut adj = Adjacency::default();
        for &(u, v) in &graph.edges {
            if adj.edges.insert((u, v)) {
                adj.succ.entry(u).or_default().push(v);
                adj.pred.entry(v).or_default().push(u);
            }
        }
        adj
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of a vertex.
    pub fn out_degree(&self, v: Val) -> usize {
        self.succ.get(&v).map_or(0, Vec::len)
    }

    /// In-degree of a vertex (used by tests and future strategies).
    pub fn in_degree(&self, v: Val) -> usize {
        self.pred.get(&v).map_or(0, Vec::len)
    }
}

/// Whether there is a path of length exactly `k` from `u` to `v`, computed
/// by forward BFS level by level (the reference answer and the zero-space
/// baseline's workhorse).
pub fn k_reachable_naive(adj: &Adjacency, k: usize, u: Val, v: Val) -> bool {
    let mut frontier: FxHashSet<Val> = FxHashSet::default();
    frontier.insert(u);
    for _ in 0..k {
        let mut next = FxHashSet::default();
        for &x in &frontier {
            if let Some(succ) = adj.succ.get(&x) {
                next.extend(succ.iter().copied());
            }
        }
        frontier = next;
        if frontier.is_empty() {
            return false;
        }
    }
    frontier.contains(&v)
}

/// The `S = O(1)` baseline: answer every query by a length-k BFS.
pub struct BfsBaseline {
    adj: Adjacency,
    k: usize,
}

impl BfsBaseline {
    /// Builds the baseline (no preprocessing beyond adjacency lists).
    pub fn build(graph: &Graph, k: usize) -> Self {
        BfsBaseline {
            adj: Adjacency::new(graph),
            k,
        }
    }

    /// Intrinsic space: nothing beyond the input.
    pub fn space_used(&self) -> usize {
        0
    }

    /// Whether `u` reaches `v` by a path of length exactly `k`.
    pub fn query(&self, u: Val, v: Val) -> bool {
        let mut frontier: FxHashSet<Val> = FxHashSet::default();
        frontier.insert(u);
        for _ in 0..self.k {
            let mut next = FxHashSet::default();
            for &x in &frontier {
                if let Some(succ) = self.adj.succ.get(&x) {
                    work::add(0, succ.len() as u64);
                    next.extend(succ.iter().copied());
                }
            }
            frontier = next;
            if frontier.is_empty() {
                return false;
            }
        }
        work::add(1, 0);
        frontier.contains(&v)
    }
}

/// The `T = O(1)` extreme: all k-reachable pairs stored in a hash table.
pub struct FullReachMaterialization {
    pairs: FxHashSet<(Val, Val)>,
}

impl FullReachMaterialization {
    /// Materializes every k-reachable pair of the graph.
    pub fn build(graph: &Graph, k: usize) -> Self {
        let adj = Adjacency::new(graph);
        // Forward expansion from every source vertex.
        let mut pairs = FxHashSet::default();
        let sources: FxHashSet<Val> = adj.succ.keys().copied().collect();
        for &s in &sources {
            let mut frontier: FxHashSet<Val> = FxHashSet::default();
            frontier.insert(s);
            for _ in 0..k {
                let mut next = FxHashSet::default();
                for &x in &frontier {
                    if let Some(succ) = adj.succ.get(&x) {
                        next.extend(succ.iter().copied());
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
            for &t in &frontier {
                pairs.insert((s, t));
            }
        }
        FullReachMaterialization { pairs }
    }

    /// Intrinsic space: the stored pair table.
    pub fn space_used(&self) -> usize {
        2 * self.pairs.len()
    }

    /// O(1) lookup.
    pub fn query(&self, u: Val, v: Val) -> bool {
        work::add(1, 0);
        self.pairs.contains(&(u, v))
    }
}

/// The Section 5 running example: a 2-reachability index with heavy/light
/// splitting on both endpoints.
pub struct TwoReachIndex {
    adj: Adjacency,
    /// Degree threshold Δ = |D|/√S.
    threshold: usize,
    /// Sources with out-degree > Δ.
    heavy_out: FxHashSet<Val>,
    /// Targets with in-degree > Δ.
    heavy_in: FxHashSet<Val>,
    /// Materialized S13: heavy-heavy 2-reachable pairs.
    s13: FxHashSet<(Val, Val)>,
}

impl TwoReachIndex {
    /// Builds the index with space budget `S` (threshold `Δ = ⌈|E|/√S⌉`).
    pub fn build(graph: &Graph, budget: usize) -> Self {
        let n = graph.len().max(1);
        let threshold = (n as f64 / (budget.max(1) as f64).sqrt()).ceil() as usize;
        Self::build_with_threshold(graph, threshold.max(1))
    }

    /// Builds the index with an explicit degree threshold.
    pub fn build_with_threshold(graph: &Graph, threshold: usize) -> Self {
        let adj = Adjacency::new(graph);
        let heavy_out: FxHashSet<Val> = adj
            .succ
            .iter()
            .filter(|(_, s)| s.len() > threshold)
            .map(|(&v, _)| v)
            .collect();
        let heavy_in: FxHashSet<Val> = adj
            .pred
            .iter()
            .filter(|(_, p)| p.len() > threshold)
            .map(|(&v, _)| v)
            .collect();
        // Materialize heavy-heavy reachable pairs: for every heavy source,
        // expand once and keep heavy-in targets.
        let mut s13 = FxHashSet::default();
        for &a in &heavy_out {
            let mut reached: FxHashSet<Val> = FxHashSet::default();
            for &b in &adj.succ[&a] {
                if let Some(succ) = adj.succ.get(&b) {
                    reached.extend(succ.iter().copied());
                }
            }
            for c in reached {
                if heavy_in.contains(&c) {
                    s13.insert((a, c));
                }
            }
        }
        TwoReachIndex {
            adj,
            threshold,
            heavy_out,
            heavy_in,
            s13,
        }
    }

    /// The degree threshold Δ.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Intrinsic space: the materialized heavy-heavy pair table.
    pub fn space_used(&self) -> usize {
        2 * self.s13.len()
    }

    /// Whether there is a path of length exactly 2 from `a` to `c`.
    pub fn query(&self, a: Val, c: Val) -> bool {
        if self.heavy_out.contains(&a) && self.heavy_in.contains(&c) {
            work::add(1, 0);
            return self.s13.contains(&(a, c));
        }
        if self.adj.out_degree(a) <= self.threshold {
            // a is light: scan its successors and probe the edge (b, c).
            if let Some(succ) = self.adj.succ.get(&a) {
                work::add(succ.len() as u64, succ.len() as u64);
                return succ.iter().any(|&b| self.adj.edges.contains(&(b, c)));
            }
            return false;
        }
        // c is light: scan its predecessors and probe the edge (a, b).
        if let Some(pred) = self.adj.pred.get(&c) {
            work::add(pred.len() as u64, pred.len() as u64);
            return pred.iter().any(|&b| self.adj.edges.contains(&(a, b)));
        }
        false
    }
}

/// The Goldstein-et-al. recursive k-reachability structure, the conjectured
/// optimal `S · T^{2/(k−1)} = O(|D|²)` baseline the paper improves on.
///
/// Level `k` materializes the answers for pairs whose source has heavy
/// out-degree and whose target has heavy in-degree, and otherwise expands
/// the light endpoint, delegating to the level-(k−1) structure. Level 1 is
/// an edge lookup.
pub struct KReachGoldstein {
    k: usize,
    adj: Adjacency,
    threshold: usize,
    /// Materialized heavy-heavy answers per level (index 0 = level 2, ...).
    levels: Vec<FxHashSet<(Val, Val)>>,
    heavy_out: FxHashSet<Val>,
    heavy_in: FxHashSet<Val>,
}

impl KReachGoldstein {
    /// Builds the structure for paths of length exactly `k` with the given
    /// degree threshold Δ. The materialized tables have
    /// `O((|E|/Δ)²)` entries per level and queries take `O(Δ^{k−1})` probes,
    /// i.e. `S = (|E|/Δ)²` and `T = Δ^{k−1}` — the
    /// `S · T^{2/(k−1)} = O(|E|²)` tradeoff.
    pub fn build_with_threshold(graph: &Graph, k: usize, threshold: usize) -> Self {
        assert!(k >= 1);
        let adj = Adjacency::new(graph);
        let threshold = threshold.max(1);
        let heavy_out: FxHashSet<Val> = adj
            .succ
            .iter()
            .filter(|(_, s)| s.len() > threshold)
            .map(|(&v, _)| v)
            .collect();
        let heavy_in: FxHashSet<Val> = adj
            .pred
            .iter()
            .filter(|(_, p)| p.len() > threshold)
            .map(|(&v, _)| v)
            .collect();
        // For every level j = 2..=k, materialize the j-reachable heavy-heavy
        // pairs (heavy source, heavy target).
        let mut levels = Vec::new();
        for j in 2..=k {
            let mut table = FxHashSet::default();
            for &a in &heavy_out {
                let mut frontier: FxHashSet<Val> = FxHashSet::default();
                frontier.insert(a);
                for _ in 0..j {
                    let mut next = FxHashSet::default();
                    for &x in &frontier {
                        if let Some(succ) = adj.succ.get(&x) {
                            next.extend(succ.iter().copied());
                        }
                    }
                    frontier = next;
                    if frontier.is_empty() {
                        break;
                    }
                }
                for &c in &frontier {
                    if heavy_in.contains(&c) {
                        table.insert((a, c));
                    }
                }
            }
            levels.push(table);
        }
        KReachGoldstein {
            k,
            adj,
            threshold,
            levels,
            heavy_out,
            heavy_in,
        }
    }

    /// Builds the structure from a space budget: `Δ = ⌈|E|/√(S/(k−1))⌉`, so
    /// that the `k−1` materialized levels together fit in `O(S)`.
    pub fn build(graph: &Graph, k: usize, budget: usize) -> Self {
        let n = graph.len().max(1);
        let per_level = (budget.max(1) as f64 / (k.max(2) - 1) as f64).max(1.0);
        let threshold = (n as f64 / per_level.sqrt()).ceil() as usize;
        Self::build_with_threshold(graph, k, threshold.max(1))
    }

    /// The degree threshold Δ.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Path length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Intrinsic space: the materialized heavy-heavy tables of all levels.
    pub fn space_used(&self) -> usize {
        self.levels.iter().map(|t| 2 * t.len()).sum()
    }

    /// Whether there is a path of length exactly `k` from `u` to `v`.
    pub fn query(&self, u: Val, v: Val) -> bool {
        self.query_level(self.k, u, v)
    }

    fn query_level(&self, j: usize, u: Val, v: Val) -> bool {
        if j == 0 {
            return u == v;
        }
        if j == 1 {
            work::add(1, 0);
            return self.adj.edges.contains(&(u, v));
        }
        if self.heavy_out.contains(&u) && self.heavy_in.contains(&v) {
            work::add(1, 0);
            return self.levels[j - 2].contains(&(u, v));
        }
        if self.adj.out_degree(u) <= self.threshold {
            if let Some(succ) = self.adj.succ.get(&u) {
                work::add(0, succ.len() as u64);
                return succ.iter().any(|&w| self.query_level(j - 1, w, v));
            }
            return false;
        }
        // v must be light on the in-side.
        if let Some(pred) = self.adj.pred.get(&v) {
            work::add(0, pred.len() as u64);
            return pred.iter().any(|&w| self.query_level(j - 1, u, w));
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_query::workload::graph_pair_requests;

    fn graph() -> Graph {
        Graph::skewed(300, 1500, 6, 120, 3)
    }

    fn queries(g: &Graph, n: usize, seed: u64) -> Vec<(Val, Val)> {
        graph_pair_requests(g, n, seed)
    }

    #[test]
    fn two_reach_matches_naive() {
        let g = graph();
        let adj = Adjacency::new(&g);
        for budget in [1usize, 64, 1024, 1 << 16] {
            let idx = TwoReachIndex::build(&g, budget);
            for (u, v) in queries(&g, 200, 11) {
                assert_eq!(
                    idx.query(u, v),
                    k_reachable_naive(&adj, 2, u, v),
                    "budget {budget}, pair ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn two_reach_space_and_time_tradeoff() {
        let g = graph();
        let tight = TwoReachIndex::build(&g, 4);
        let roomy = TwoReachIndex::build(&g, 1 << 18);
        // More budget: no less materialized space, no more online work.
        assert!(roomy.space_used() >= tight.space_used());
        let requests = queries(&g, 300, 13);
        let work_of = |idx: &TwoReachIndex| {
            let before = work::total();
            for &(u, v) in &requests {
                idx.query(u, v);
            }
            work::total() - before
        };
        assert!(work_of(&roomy) <= work_of(&tight));
        // The heavy-heavy table is bounded by (|E|/Δ)².
        let cap = (g.len() / roomy.threshold() + 1).pow(2);
        assert!(roomy.space_used() / 2 <= cap);
    }

    #[test]
    fn goldstein_matches_naive_for_k_3_and_4() {
        let g = Graph::skewed(200, 900, 5, 80, 9);
        let adj = Adjacency::new(&g);
        for k in [3usize, 4] {
            for threshold in [1usize, 4, 16, 1024] {
                let idx = KReachGoldstein::build_with_threshold(&g, k, threshold);
                for (u, v) in queries(&g, 120, 17 + k as u64) {
                    assert_eq!(
                        idx.query(u, v),
                        k_reachable_naive(&adj, k, u, v),
                        "k={k}, Δ={threshold}, pair ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn goldstein_budget_controls_space() {
        let g = graph();
        let small = KReachGoldstein::build(&g, 3, 16);
        let large = KReachGoldstein::build(&g, 3, 1 << 16);
        assert!(small.threshold() >= large.threshold());
        assert!(small.space_used() <= large.space_used());
    }

    #[test]
    fn extremes_agree() {
        let g = Graph::skewed(150, 700, 4, 60, 21);
        let adj = Adjacency::new(&g);
        for k in [2usize, 3] {
            let bfs = BfsBaseline::build(&g, k);
            let full = FullReachMaterialization::build(&g, k);
            assert_eq!(bfs.space_used(), 0);
            assert!(full.space_used() > 0);
            for (u, v) in queries(&g, 150, 31) {
                let expected = k_reachable_naive(&adj, k, u, v);
                assert_eq!(bfs.query(u, v), expected);
                assert_eq!(full.query(u, v), expected);
            }
            // Full materialization answers with a single probe.
            let before = work::total();
            full.query(0, 1);
            assert_eq!(work::total() - before, 1);
        }
    }

    #[test]
    fn k1_is_edge_lookup() {
        let g = Graph::random(50, 200, 5);
        let idx = KReachGoldstein::build_with_threshold(&g, 1, 4);
        assert_eq!(idx.space_used(), 0);
        for &(u, v) in g.edges.iter().take(20) {
            assert!(idx.query(u, v));
        }
        assert!(!idx.query(1, 1) || g.edges.contains(&(1, 1)));
    }
}
