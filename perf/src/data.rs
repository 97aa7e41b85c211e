//! Inputs, all made from `--seed`: the data graphs, request streams, delta
//! batches, and the naive oracle over the harness's own copy of the
//! database. The program under test sees only these generated inputs.

use std::collections::HashSet;

use cqap_suite::common::{Tuple, Val, VarSet};
use cqap_suite::decomp::families::pmtds_3reach_fig1;
use cqap_suite::decomp::Pmtd;
use cqap_suite::delta::{ApplyDelta, DeltaBatch};
use cqap_suite::query::workload::Graph;
use cqap_suite::query::{AccessRequest, Cqap};
use cqap_suite::relation::{Database, Relation};
use cqap_suite::yannakakis::naive_answer;

use crate::Res;

/// Parameters of `Graph::skewed`. The graph's own seed is part of the
/// dataset, not of the run: the data is the same for every `--seed`, so the
/// exact counts (`space_values`, `index_bytes`) repeat across seeds and can
/// carry a tight bound. `--seed` draws everything that arrives at the
/// program afterwards: request keys, arrival times, delta batches.
#[derive(Clone, Copy)]
pub struct GraphSpec {
    pub vertices: usize,
    pub edges: usize,
    pub hubs: usize,
    pub hub_degree: usize,
    pub seed: u64,
}

/// The in-memory workloads' dataset.
pub const G20K: GraphSpec = GraphSpec {
    vertices: 3_000,
    edges: 20_000,
    hubs: 16,
    hub_degree: 400,
    seed: 20_000,
};

/// The cold-tier dataset. The issue sized it at 60 k edges; it is scaled to
/// 28 k so that three set-ups, the oracle and the measured phase of one run
/// fit the driver's time cap (see README, "Scale").
pub const G28K: GraphSpec = GraphSpec {
    vertices: 4_000,
    edges: 28_000,
    hubs: 20,
    hub_degree: 450,
    seed: 28_000,
};

/// Relation names of the 3-path database.
pub const RELATIONS: [&str; 3] = ["R1", "R2", "R3"];

/// Answers compared with the oracle during set-up.
pub const ORACLE_SAMPLES: usize = 200;

/// splitmix64: the harness's own generator, for the streams no library
/// helper covers (delta batches, sub-seeds).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An independent seed for stream `k` of a run.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next()
}

/// The query, its Figure-1 PMTDs, the data graph and the database.
pub struct Dataset {
    pub cqap: Cqap,
    pub pmtds: Vec<Pmtd>,
    pub graph: Graph,
    pub db: Database,
}

impl Dataset {
    pub fn generate(spec: GraphSpec) -> Res<Dataset> {
        let (cqap, pmtds) = pmtds_3reach_fig1()?;
        let graph = Graph::skewed(
            spec.vertices,
            spec.edges,
            spec.hubs,
            spec.hub_degree,
            spec.seed,
        );
        let db = graph.as_path_database(3);
        Ok(Dataset {
            cqap,
            pmtds,
            graph,
            db,
        })
    }

    pub fn access(&self) -> VarSet {
        self.cqap.access()
    }
}

pub fn request(access: VarSet, (u, v): (Val, Val)) -> AccessRequest {
    AccessRequest::single(access, &[u, v]).expect("two values for the two access variables")
}

/// Spreads zipf-drawn vertex ids over the id space with a fixed bijection.
///
/// `zipf_pair_requests` draws id = rank, and `Graph::skewed` makes ids
/// `0..hubs` the hubs, so un-scattered the hottest keys are exactly the
/// most expensive ones and every LRU miss is a multi-millisecond join. A
/// workload that is about the serve layer scatters them; the key
/// distribution, and with it the hit ratio, is unchanged.
pub fn scatter_keys(pairs: &mut [(Val, Val)], vertices: usize) {
    const STRIDE: u64 = 7_919;
    let n = vertices as u64;
    assert!(
        gcd(STRIDE, n) == 1,
        "stride must be coprime with the vertex count"
    );
    let map = |id: Val| (id % n * STRIDE + 17) % n;
    for pair in pairs {
        *pair = (map(pair.0), map(pair.1));
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A request stream served round-robin from a pre-generated pool of keys;
/// the request object itself is built at send time, as a client would.
pub struct Stream<'a> {
    access: VarSet,
    pairs: &'a [(Val, Val)],
    cursor: usize,
}

impl<'a> Stream<'a> {
    pub fn new(access: VarSet, pairs: &'a [(Val, Val)]) -> Stream<'a> {
        assert!(!pairs.is_empty());
        Stream {
            access,
            pairs,
            cursor: 0,
        }
    }

    pub fn next_request(&mut self) -> AccessRequest {
        let pair = self.pairs[self.cursor % self.pairs.len()];
        self.cursor += 1;
        request(self.access, pair)
    }
}

/// The naive evaluator over the harness's own database copy.
pub struct Oracle {
    pub cqap: Cqap,
    pub db: Database,
}

impl Oracle {
    pub fn new(data: &Dataset) -> Oracle {
        Oracle {
            cqap: data.cqap.clone(),
            db: data.db.clone(),
        }
    }

    /// Compares `answer(request)` with the naive answer for each sampled
    /// key; returns the number of mismatches (an error from either side is
    /// a mismatch).
    pub fn mismatches(
        &self,
        keys: &[(Val, Val)],
        mut answer: impl FnMut(&AccessRequest) -> Option<Relation>,
    ) -> usize {
        keys.iter()
            .filter(|&&key| {
                let req = request(self.cqap.access(), key);
                let expected = naive_answer(&self.cqap, &self.db, &req).ok();
                expected.is_none() || answer(&req) != expected
            })
            .count()
    }

    /// Brings the oracle's database up to date with the batches the program
    /// has absorbed.
    pub fn absorb(&mut self, batches: &[DeltaBatch]) -> Res<()> {
        for batch in batches {
            self.db.apply_delta(batch)?;
        }
        Ok(())
    }
}

/// Generates delta batches against a model of the live edge sets, so every
/// delete names an edge that is present when its batch applies and every
/// insert one that is absent.
pub struct DeltaGen {
    rng: Rng,
    vertices: usize,
    live: [Vec<(Val, Val)>; 3],
    present: [HashSet<(Val, Val)>; 3],
}

impl DeltaGen {
    pub fn new(graph: &Graph, seed: u64) -> DeltaGen {
        let live = || graph.edges.clone();
        let present = || graph.edges.iter().copied().collect::<HashSet<_>>();
        DeltaGen {
            rng: Rng::new(seed),
            vertices: graph.num_vertices,
            live: [live(), live(), live()],
            present: [present(), present(), present()],
        }
    }

    /// One batch: per relation `per` uniform inserts and `per` deletes of
    /// live edges.
    pub fn next_batch(&mut self, per: usize) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for (r, name) in RELATIONS.iter().enumerate() {
            let mut deleted = Vec::with_capacity(per);
            for _ in 0..per.min(self.live[r].len()) {
                let at = self.rng.below(self.live[r].len());
                let edge = self.live[r].swap_remove(at);
                self.present[r].remove(&edge);
                deleted.push(edge);
            }
            let mut inserts = Vec::with_capacity(per);
            while inserts.len() < per {
                let edge = (
                    self.rng.below(self.vertices) as Val,
                    self.rng.below(self.vertices) as Val,
                );
                // Re-inserting an edge this batch deletes would cancel out.
                if edge.0 != edge.1 && !deleted.contains(&edge) && self.present[r].insert(edge) {
                    self.live[r].push(edge);
                    inserts.push(Tuple::pair(edge.0, edge.1));
                }
            }
            let deletes = deleted.iter().map(|e| Tuple::pair(e.0, e.1)).collect();
            batch = batch.delete(*name, deletes).insert(*name, inserts);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_batches_are_deterministic_and_track_live_edges() {
        let graph = Graph::skewed(60, 300, 2, 20, 5);
        let mut db = graph.as_path_database(3);
        let mut a = DeltaGen::new(&graph, 9);
        let mut b = DeltaGen::new(&graph, 9);
        for _ in 0..20 {
            let batch = a.next_batch(4);
            assert_eq!(batch, b.next_batch(4));
            assert_eq!(batch.num_tuples(), 24);
            // Every tuple has a net effect: deletes hit live edges, inserts
            // are new.
            let stats = db.apply_delta(&batch).unwrap();
            assert_eq!((stats.inserted, stats.deleted), (12, 12));
        }
        assert_ne!(
            DeltaGen::new(&graph, 10).next_batch(4),
            DeltaGen::new(&graph, 9).next_batch(4)
        );
    }

    #[test]
    fn scattering_is_a_bijection_on_vertex_ids() {
        let mut pairs: Vec<(Val, Val)> = (0..3_000).map(|i| (i, 2_999 - i)).collect();
        scatter_keys(&mut pairs, 3_000);
        let firsts: HashSet<Val> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(firsts.len(), 3_000);
        assert!(pairs.iter().all(|p| p.0 < 3_000 && p.1 < 3_000));
        assert_ne!(pairs[0].0, 0, "the head of the distribution moved");
    }

    #[test]
    fn sub_seeds_differ_per_stream_and_seed() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }
}
