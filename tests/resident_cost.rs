//! The space contract, counted: a resident S-view costs a small multiple
//! of what `S` says, hot and cold.
//!
//! The paper's budget is `S` stored values. On a 20 k-edge skewed graph
//! (the benchmark's `g20k`, the fixture of `tests/delta_cost.rs`) the hot
//! index must hold its S-views **and** their support counts in at most
//! eight times `space_used() × size_of::<Val>()` heap bytes — each row
//! once as flat values plus a 9-byte-per-slot position table, twice over
//! (view and counts). The tuple-copying layout this replaced cost about
//! 24×: a row lived three times as a 40-byte `Tuple`, in a relation, in a
//! hash index's per-key `Vec` and in a hash map of counts. `resident_bytes`
//! is computed from container capacities, so unlike RSS it is
//! deterministic and this test fails when a copy comes back.

use std::collections::HashSet;

use cqap_suite::decomp::families::pmtds_3reach_fig1;
use cqap_suite::prelude::*;
use cqap_suite::store::scratch_dir;

#[test]
fn resident_bytes_stay_within_eight_times_the_stored_values() {
    let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
    let graph = Graph::skewed(3_000, 20_000, 16, 400, 20_000);
    let db = graph.as_path_database(3);
    let mut index = CqapIndex::build(&cqap, &db, &pmtds).unwrap();
    let within_bound = |index: &CqapIndex, when: &str| {
        let nominal = index.space_used() * std::mem::size_of::<Val>();
        let resident = index.resident_bytes();
        assert!(
            resident > nominal,
            "{when}: the rows alone are `nominal` bytes"
        );
        assert!(
            resident <= 8 * nominal,
            "{when}: {resident} resident bytes for {nominal} bytes of stored values ({:.1}x)",
            resident as f64 / nominal as f64
        );
    };
    within_bound(&index, "as built");

    // Twenty batches of 128 deletes of live edges and 128 inserts of
    // absent ones, spread over the three relations: views grow and shrink,
    // and their tables and vectors must not leak capacity while they do.
    let mut state = 0x5DEE_CE66_D1CE_4E5Bu64;
    let mut next = move |below: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below as u64) as usize
    };
    let names = ["R1", "R2", "R3"];
    let mut live: Vec<Vec<(Val, Val)>> = vec![graph.edges.clone(); names.len()];
    let mut present: Vec<HashSet<(Val, Val)>> = live
        .iter()
        .map(|edges| edges.iter().copied().collect())
        .collect();
    for round in 0..20 {
        let mut batch = DeltaBatch::new();
        for _ in 0..128 {
            let r = next(names.len());
            let at = next(live[r].len());
            let gone = live[r].swap_remove(at);
            present[r].remove(&gone);
            batch = batch.delete(names[r], vec![Tuple::pair(gone.0, gone.1)]);
        }
        for _ in 0..128 {
            let r = next(names.len());
            let fresh = loop {
                let edge = (
                    next(graph.num_vertices) as Val,
                    next(graph.num_vertices) as Val,
                );
                if edge.0 != edge.1 && present[r].insert(edge) {
                    break edge;
                }
            };
            live[r].push(fresh);
            batch = batch.insert(names[r], vec![Tuple::pair(fresh.0, fresh.1)]);
        }
        let stats = index.apply_delta(&batch).unwrap();
        assert_eq!((stats.inserted, stats.deleted), (128, 128));
        within_bound(&index, &format!("after batch {round}"));
    }

    // The maintained index still answers exactly.
    for &(u, v) in graph.edges.iter().step_by(997) {
        let request = AccessRequest::single(cqap.access(), &[u, v]).unwrap();
        assert_eq!(
            index.answer(&request).unwrap(),
            index.answer_from_scratch(&request).unwrap(),
            "request ({u},{v})"
        );
    }

    // A cold lineage keeps fences and its own support counts — strictly
    // less than the hot index, which also holds the views.
    let stored = StoredIndex::spill(&index, scratch_dir("resident-cost")).unwrap();
    let hot = index.resident_bytes();
    drop(index);
    let cold = stored.resident_bytes();
    assert!(
        cold < hot,
        "cold lineage holds {cold} bytes, the hot index held {hot}"
    );
    assert!(
        cold >= stored.maintenance().resident_bytes(),
        "the cold figure includes the support counts"
    );
    assert!(stored.maintenance().resident_bytes() > 0);
}
