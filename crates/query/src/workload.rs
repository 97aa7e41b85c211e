//! Synthetic workload generators.
//!
//! The paper evaluates analytically; for the empirical reproduction we need
//! inputs that exercise the same regimes:
//!
//! * random directed graphs (uniform edge endpoints) — the "typical" case;
//! * skewed graphs with a controlled number of heavy vertices — the inputs
//!   that make the heavy/light split strategies matter (without skew every
//!   vertex is light and the baseline looks as good as the tradeoff
//!   structure);
//! * set families with Zipf-like set sizes for k-set disjointness;
//! * streams of access requests drawn from the realized join keys, so online
//!   probes actually hit non-empty results a controllable fraction of the
//!   time.
//!
//! All generators are deterministic given their seed.

use cqap_common::{Tuple, Val, Var};
use cqap_relation::{Database, Relation};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

/// A synthetic directed graph stored as an edge list.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Number of vertices (ids are `0..num_vertices`).
    pub num_vertices: usize,
    /// Directed edges.
    pub edges: Vec<(Val, Val)>,
}

impl Graph {
    /// Uniform random directed graph with `num_edges` distinct edges over
    /// `num_vertices` vertices.
    pub fn random(num_vertices: usize, num_edges: usize, seed: u64) -> Self {
        assert!(num_vertices >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = cqap_common::FxHashSet::default();
        let mut edges = Vec::with_capacity(num_edges);
        let max_possible = num_vertices * (num_vertices - 1);
        let target = num_edges.min(max_possible);
        while edges.len() < target {
            let u = rng.random_range(0..num_vertices) as Val;
            let v = rng.random_range(0..num_vertices) as Val;
            if u != v && seen.insert((u, v)) {
                edges.push((u, v));
            }
        }
        Graph {
            num_vertices,
            edges,
        }
    }

    /// Skewed graph: `num_heavy` designated hub vertices receive
    /// `heavy_degree` outgoing edges each; the remaining edges are uniform.
    /// This produces the degree profile under which the paper's heavy/light
    /// materialization strategies differ measurably from the baselines.
    pub fn skewed(
        num_vertices: usize,
        num_edges: usize,
        num_heavy: usize,
        heavy_degree: usize,
        seed: u64,
    ) -> Self {
        assert!(num_vertices >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = cqap_common::FxHashSet::default();
        let mut edges = Vec::with_capacity(num_edges);
        'outer: for h in 0..num_heavy {
            let hub = h as Val;
            let mut added = 0usize;
            let mut attempts = 0usize;
            while added < heavy_degree {
                if edges.len() >= num_edges {
                    break 'outer;
                }
                attempts += 1;
                if attempts > 10 * heavy_degree + 100 {
                    break;
                }
                let v = rng.random_range(0..num_vertices) as Val;
                if v != hub && seen.insert((hub, v)) {
                    edges.push((hub, v));
                    added += 1;
                }
            }
        }
        while edges.len() < num_edges {
            let u = rng.random_range(0..num_vertices) as Val;
            let v = rng.random_range(0..num_vertices) as Val;
            if u != v && seen.insert((u, v)) {
                edges.push((u, v));
            }
        }
        Graph {
            num_vertices,
            edges,
        }
    }

    /// Loads the graph as a binary relation over variables `(a, b)`.
    pub(crate) fn as_relation(&self, name: &str, a: Var, b: Var) -> Relation {
        Relation::binary(name.to_string(), a, b, self.edges.iter().copied())
    }

    /// Builds the database for the k-path query with distinct relation names
    /// `R1..Rk`, all loaded with this graph's edges over consecutive
    /// variables.
    pub fn as_path_database(&self, k: usize) -> Database {
        let mut db = Database::new();
        for i in 0..k {
            db.add_relation(self.as_relation(&format!("R{}", i + 1), i, i + 1))
                .expect("unique names");
        }
        db
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// A synthetic family of sets over a universe, for k-set disjointness.
#[derive(Clone, Debug)]
pub struct SetFamily {
    /// Number of sets (ids `0..num_sets`).
    pub num_sets: usize,
    /// Universe size (element ids `0..universe`).
    pub universe: usize,
    /// Membership pairs `(element, set)`.
    pub memberships: Vec<(Val, Val)>,
}

impl SetFamily {
    /// Generates a family in which set `s` has size roughly
    /// `max_size / (s+1)^skew` (Zipf-like): a few large sets and many small
    /// ones. `skew = 0` gives equal sizes.
    pub fn zipf(num_sets: usize, universe: usize, max_size: usize, skew: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut memberships = Vec::new();
        let mut seen = cqap_common::FxHashSet::default();
        for s in 0..num_sets {
            let size = ((max_size as f64 / ((s + 1) as f64).powf(skew)).ceil() as usize)
                .clamp(1, universe);
            let mut added = 0usize;
            let mut attempts = 0usize;
            while added < size && attempts < 10 * size + 100 {
                attempts += 1;
                let e = rng.random_range(0..universe) as Val;
                if seen.insert((e, s as Val)) {
                    memberships.push((e, s as Val));
                    added += 1;
                }
            }
        }
        SetFamily {
            num_sets,
            universe,
            memberships,
        }
    }

    /// Loads the family as the binary relation `R(y, x)` ("element y belongs
    /// to set x") over variables `(y, x)`.
    pub fn as_relation(&self, name: &str, y: Var, x: Var) -> Relation {
        Relation::binary(name.to_string(), y, x, self.memberships.iter().copied())
    }

    /// Total number of membership pairs `N`.
    pub fn len(&self) -> usize {
        self.memberships.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.memberships.is_empty()
    }
}

/// Generates `n` access-request keys for a query whose access variables are
/// endpoints of the data graph: half the keys are sampled from the realized
/// edge endpoints (likely to have answers), half are uniform (likely empty).
pub fn graph_pair_requests(graph: &Graph, n: usize, seed: u64) -> Vec<(Val, Val)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if i % 2 == 0 && !graph.edges.is_empty() {
            let &(u, _) = graph.edges.choose(&mut rng).expect("non-empty");
            let &(_, v) = graph.edges.choose(&mut rng).expect("non-empty");
            out.push((u, v));
        } else {
            out.push((
                rng.random_range(0..graph.num_vertices) as Val,
                rng.random_range(0..graph.num_vertices) as Val,
            ));
        }
    }
    out
}

/// Generates `n` k-tuples of set ids as access requests for k-set
/// disjointness.
pub fn set_tuple_requests(family: &SetFamily, k: usize, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let vals: Vec<Val> = (0..k)
                .map(|_| rng.random_range(0..family.num_sets) as Val)
                .collect();
            Tuple::from_slice(&vals)
        })
        .collect()
}

/// Generates `n` access-request keys with **zipfian key skew**: endpoint
/// pairs are drawn from the vertex ids with probability proportional to
/// `1 / rank^skew`, so a few hot keys dominate the stream. This is the
/// "heavy traffic" regime the serving runtime's answer cache targets —
/// `skew = 0` degenerates to uniform, `skew ≈ 1` is classic web-like skew,
/// larger values concentrate the stream further.
pub fn zipf_pair_requests(graph: &Graph, n: usize, skew: f64, seed: u64) -> Vec<(Val, Val)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ZipfSampler::new(graph.num_vertices, skew);
    (0..n)
        .map(|_| {
            (
                sampler.sample(&mut rng) as Val,
                sampler.sample(&mut rng) as Val,
            )
        })
        .collect()
}

/// Generates `n` **multi-tuple** access requests: each request carries
/// `tuples_per_request` zipf-skewed endpoint pairs (deduplicated within the
/// request). This is the workload shape a scatter-gather shard router has
/// to split: one request's tuples usually hash to several shards.
pub fn zipf_multi_requests(
    graph: &Graph,
    n: usize,
    tuples_per_request: usize,
    skew: f64,
    seed: u64,
) -> Vec<Vec<(Val, Val)>> {
    assert!(tuples_per_request > 0, "requests cannot be empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ZipfSampler::new(graph.num_vertices, skew);
    (0..n)
        .map(|_| {
            let mut tuples = Vec::with_capacity(tuples_per_request);
            let mut seen = cqap_common::FxHashSet::default();
            // Bounded attempts, as in the other generators: under heavy
            // skew (or tuples_per_request near the n² pair domain) fresh
            // pairs become vanishingly rare, and the request is allowed to
            // stay shorter rather than coupon-collecting forever.
            let mut attempts = 0usize;
            while tuples.len() < tuples_per_request
                && attempts < 10 * tuples_per_request + 100
            {
                attempts += 1;
                let pair = (
                    sampler.sample(&mut rng) as Val,
                    sampler.sample(&mut rng) as Val,
                );
                if seen.insert(pair) {
                    tuples.push(pair);
                }
            }
            tuples
        })
        .collect()
}

/// Generates `n` **Poisson arrival offsets** in nanoseconds from stream
/// start: inter-arrival gaps are exponential with mean `1 / rate_per_sec`,
/// the open-loop arrival process. Unlike a closed loop (next request waits
/// for the previous answer), an open-loop driver submits at these absolute
/// times regardless of completion — so when offered load exceeds service
/// capacity, queueing delay compounds and the latency *tail* grows, which
/// is exactly the regime tail-attribution reports are for.
pub fn poisson_arrivals_ns(n: usize, rate_per_sec: f64, seed: u64) -> Vec<u64> {
    assert!(rate_per_sec > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u = rng.random_range(0..u64::MAX) as f64 / u64::MAX as f64;
            // Inverse-CDF of the exponential; `1 - u` keeps ln away from 0.
            t += -(1.0 - u).ln() / rate_per_sec;
            (t * 1e9) as u64
        })
        .collect()
}

/// The shard a routing-key value belongs to under hash partitioning. This
/// single function is the partition invariant of the `cqap-shard` data
/// partitioner: a request lands on the shard that owns its key.
///
/// The hash is mapped to `0..shards` by multiply-shift over the *high*
/// bits (Lemire's range reduction) rather than `% shards`: the Fx hash is
/// multiplicative, so its low bits echo the key's low bits — with
/// `% 2` shard placement would literally be key parity, and any stride in
/// the key space (ids allocated in steps of 2 or 4) would starve shards.
pub fn shard_of_key(key: Val, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    ((u128::from(cqap_common::hash::hash_u64(key)) * shards as u128) >> 64) as usize
}

/// Inverse-CDF sampler for the zipf distribution over `0..n` (rank `i` has
/// weight `1 / (i+1)^skew`). Build cost is O(n), sampling is O(log n).
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, skew: f64) -> Self {
        assert!(n > 0, "cannot sample from an empty domain");
        assert!(skew >= 0.0, "negative skew is not meaningful");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(skew);
            cdf.push(total);
        }
        ZipfSampler { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("non-empty domain");
        let target = (rng.random_range(0..u64::MAX) as f64 / u64::MAX as f64) * total;
        self.cdf.partition_point(|&c| c < target).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::VarSet;

    #[test]
    fn random_graph_deterministic_and_distinct() {
        let g1 = Graph::random(100, 500, 7);
        let g2 = Graph::random(100, 500, 7);
        assert_eq!(g1.edges, g2.edges);
        assert_eq!(g1.len(), 500);
        let set: cqap_common::FxHashSet<_> = g1.edges.iter().collect();
        assert_eq!(set.len(), 500);
        assert!(g1.edges.iter().all(|&(u, v)| u != v));
    }

    #[test]
    fn random_graph_caps_at_max_edges() {
        let g = Graph::random(3, 100, 1);
        assert_eq!(g.len(), 6); // 3 * 2 possible directed edges
    }

    #[test]
    fn skewed_graph_has_hubs() {
        let g = Graph::skewed(1000, 2000, 5, 200, 11);
        assert_eq!(g.len(), 2000);
        let r = g.as_relation("R", 0, 1);
        let deg = r
            .max_degree(VarSet::singleton(0), VarSet::from_iter([0, 1]))
            .unwrap();
        assert!(deg >= 150, "expected a hub with high degree, got {deg}");
    }

    #[test]
    fn path_database() {
        let g = Graph::random(50, 200, 3);
        let db = g.as_path_database(3);
        assert_eq!(db.num_relations(), 3);
        assert_eq!(db.size(), 200);
        assert!(db.relation("R2").is_some());
        assert_eq!(db.relation("R2").unwrap().schema().vars(), &[1, 2]);
    }

    #[test]
    fn zipf_family_skew() {
        let f = SetFamily::zipf(50, 10_000, 1000, 1.0, 5);
        let r = f.as_relation("R", 4, 0);
        // Set 0 should be much larger than set 49.
        let idx = cqap_relation::HashIndex::build(&r, VarSet::singleton(0)).unwrap();
        let d0 = idx.degree(&Tuple::unary(0));
        let d49 = idx.degree(&Tuple::unary(49));
        assert!(d0 > 5 * d49.max(1), "d0={d0}, d49={d49}");
    }

    #[test]
    fn requests() {
        let g = Graph::random(100, 300, 9);
        let reqs = graph_pair_requests(&g, 64, 1);
        assert_eq!(reqs.len(), 64);
        let f = SetFamily::zipf(10, 100, 20, 0.5, 2);
        let ts = set_tuple_requests(&f, 3, 16, 4);
        assert_eq!(ts.len(), 16);
        assert!(ts.iter().all(|t| t.arity() == 3));
        assert!(ts
            .iter()
            .all(|t| t.as_slice().iter().all(|&v| (v as usize) < f.num_sets)));
    }

    #[test]
    fn zipf_requests_are_skewed_and_deterministic() {
        let g = Graph::random(200, 800, 3);
        let a = zipf_pair_requests(&g, 2_000, 1.1, 7);
        let b = zipf_pair_requests(&g, 2_000, 1.1, 7);
        assert_eq!(a, b, "deterministic given seed");
        assert!(a.iter().all(|&(u, v)| (u as usize) < 200 && (v as usize) < 200));
        // Rank-0 keys dominate a skewed stream.
        let zero_sources = a.iter().filter(|&&(u, _)| u == 0).count();
        let tail_sources = a.iter().filter(|&&(u, _)| u == 199).count();
        assert!(
            zero_sources > 10 * tail_sources.max(1),
            "skew missing: {zero_sources} vs {tail_sources}"
        );
        // Zero skew degenerates to roughly uniform.
        let uniform = zipf_pair_requests(&g, 2_000, 0.0, 7);
        let zero_uniform = uniform.iter().filter(|&&(u, _)| u == 0).count();
        assert!(zero_uniform < 60, "uniform stream has no hot key");
    }

    #[test]
    fn multi_tuple_requests_have_distinct_tuples() {
        let g = Graph::random(150, 600, 5);
        let requests = zipf_multi_requests(&g, 200, 6, 1.0, 9);
        assert_eq!(requests.len(), 200);
        for request in &requests {
            assert_eq!(request.len(), 6);
            let distinct: cqap_common::FxHashSet<_> = request.iter().collect();
            assert_eq!(distinct.len(), 6, "tuples deduplicated within a request");
        }
        assert_eq!(
            requests,
            zipf_multi_requests(&g, 200, 6, 1.0, 9),
            "deterministic given seed"
        );
    }

    #[test]
    fn strided_keys_still_spread_across_shards() {
        // All-even keys: with `hash % k` placement over the multiplicative
        // Fx hash, k = 2 would reduce to key parity and starve shard 1.
        // The high-bits range reduction must keep both shards loaded.
        let keys: Vec<Val> = (0..1_000).map(|i| 2 * i).collect();
        for shards in [2usize, 4] {
            let mut counts = vec![0usize; shards];
            for &key in &keys {
                counts[shard_of_key(key, shards)] += 1;
            }
            for (shard, &count) in counts.iter().enumerate() {
                assert!(
                    count > keys.len() / shards / 4,
                    "shard {shard} starved under stride-2 keys: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn poisson_arrivals_are_ordered_with_the_right_mean() {
        let a = poisson_arrivals_ns(10_000, 50_000.0, 13);
        assert_eq!(a, poisson_arrivals_ns(10_000, 50_000.0, 13), "deterministic");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrival times nondecrease");
        // Mean inter-arrival ≈ 1/rate = 20µs; the sample mean of 10k
        // exponentials is well within a factor of 1.25.
        let mean_ns = *a.last().unwrap() as f64 / a.len() as f64;
        assert!(
            (16_000.0..25_000.0).contains(&mean_ns),
            "mean inter-arrival {mean_ns} ns, expected ≈ 20_000"
        );
        // A 4x rate quarters the span.
        let fast = poisson_arrivals_ns(10_000, 200_000.0, 13);
        assert!(*fast.last().unwrap() < *a.last().unwrap() / 2);
    }
}
