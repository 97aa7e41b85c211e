//! Property test: overload control **conserves requests**.
//!
//! Under every request mix, gate limit and deadline mix — submitted one
//! by one or as batches of multi-member probe jobs — each submitted
//! request resolves to exactly one of {answered, shed, deadline-expired}:
//! nothing is double-counted, nothing vanishes, and no ticket is left
//! unresolved at shutdown. The runtime's own counters must agree exactly with the
//! client-side classification, and every answered request must equal the
//! unthrottled reference answer: load shedding may drop work, but it must
//! never corrupt it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cqap_decomp::families::{pmtds_2reach, pmtds_3reach_fig1};
use cqap_panda::CqapIndex;
use cqap_query::workload::{zipf_pair_requests, Graph};
use cqap_query::AccessRequest;
use cqap_relation::Relation;
use cqap_serve::{AdmissionConfig, ServeConfig, ServeError, ServeRuntime, Ticket};
use proptest::prelude::*;

/// Batch size of the batched mode.
const CHUNK: usize = 16;

/// Which of {answered, shed, expired} a result is (`None` for any other
/// error).
fn outcome(result: &Result<Arc<Relation>, ServeError>) -> Option<usize> {
    match result {
        Ok(_) => Some(0),
        Err(error) if error.is_overloaded() => Some(1),
        Err(error) if error.is_deadline_expired() => Some(2),
        Err(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation: `submitted == answered + shed + deadline_expired`,
    /// exactly, on both the client's ledger and the runtime's counters —
    /// across tiny gate limits, a mixed deadline stream, and two modes:
    /// per-request submits (`mode = 0`) or `serve_batch_with_deadlines`
    /// in chunks of [`CHUNK`], whose fresh probes are dealt into one probe
    /// job per worker, each answered member by member (`mode = 1`).
    #[test]
    fn every_request_is_answered_shed_or_expired(
        seed in 0u64..10_000,
        n in 100usize..300,
        max_pending in 1usize..6,
        mode in 0usize..2,
    ) {
        let (cqap, pmtds) = pmtds_3reach_fig1().unwrap();
        let graph = Graph::random(50, 220, seed);
        let index = Arc::new(CqapIndex::build(&cqap, &graph.as_path_database(3), &pmtds).unwrap());
        let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, n, 1.1, seed ^ 0xbeef)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let reference: Vec<Relation> =
            requests.iter().map(|request| index.answer(request).unwrap()).collect();

        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 32,
                admission: Some(AdmissionConfig::shed(max_pending)),
                ..ServeConfig::default()
            },
        );

        // Mixed deadline stream: most requests are deadline-free, every
        // 5th carries a comfortable deadline, every 10th an immediate one
        // (already or nearly expired on arrival). Whether a given request
        // lands in `answered` or `expired` is timing-dependent; the
        // conservation identity must hold either way.
        let deadline = |i: usize| {
            if i % 10 == 9 {
                Some(Instant::now())
            } else if i % 5 == 4 {
                Some(Instant::now() + Duration::from_secs(30))
            } else {
                None
            }
        };
        // Every request resolves — the results being collected at all is
        // the "no request vanishes" half of the property.
        let results: Vec<Result<Arc<Relation>, ServeError>> = if mode == 0 {
            let tickets: Vec<_> = requests
                .iter()
                .enumerate()
                .map(|(i, request)| match deadline(i) {
                    Some(at) => runtime.submit_with_deadline(request.clone(), at),
                    None => runtime.submit(request.clone()),
                })
                .collect();
            tickets.into_iter().map(Ticket::wait).collect()
        } else {
            // Four threads take turns at the chunks, so one batch's jobs
            // meet the others' at the gate and in the pending map.
            let batch = |c: usize| {
                let chunk = &requests[c * CHUNK..n.min((c + 1) * CHUNK)];
                // A deadline-free request gets one far past the run.
                let far = Instant::now() + Duration::from_secs(3_600);
                let deadlines: Vec<Instant> = (c * CHUNK..c * CHUNK + chunk.len())
                    .map(|i| deadline(i).unwrap_or(far))
                    .collect();
                (c, runtime.serve_batch_with_deadlines(chunk, &deadlines))
            };
            let chunks = n.div_ceil(CHUNK);
            let mut batches: Vec<_> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..4)
                    .map(|t| {
                        scope.spawn(move || (t..chunks).step_by(4).map(batch).collect::<Vec<_>>())
                    })
                    .collect();
                threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
            });
            batches.sort_by_key(|(c, _)| *c);
            batches.into_iter().flat_map(|(_, results)| results).collect()
        };

        // The runtime counts a shed or an expiry once per resolution: per
        // ticket, or in a batch per dedup group (every position of one
        // request in one chunk shares one outcome, counted at the first).
        let first_of = |p: usize| {
            if mode == 0 {
                p
            } else {
                (p - p % CHUNK..p).find(|&q| requests[q] == requests[p]).unwrap_or(p)
            }
        };
        let (mut per_request, mut per_resolution) = ([0u64; 3], [0u64; 3]);
        for (position, result) in results.iter().enumerate() {
            let Some(kind) = outcome(result) else {
                prop_assert!(false, "unexpected error: {:?}", result);
                continue;
            };
            per_request[kind] += 1;
            let first = first_of(position);
            if first == position {
                per_resolution[kind] += 1;
            } else {
                prop_assert_eq!(outcome(&results[first]), Some(kind), "a dedup group split");
            }
            if let Ok(answer) = result {
                prop_assert_eq!(
                    answer.as_ref(), &reference[position],
                    "throttled answer diverged at position {}", position
                );
            }
        }

        // Client ledger conserves by construction; the runtime's counters
        // must agree with it exactly.
        let [answered, shed, _] = per_request;
        prop_assert_eq!(per_request.iter().sum::<u64>(), n as u64);
        let stats = runtime.stats();
        prop_assert_eq!(stats.served, n as u64);
        prop_assert_eq!(stats.shed, per_resolution[1]);
        prop_assert_eq!(stats.deadline_expired, per_resolution[2]);
        prop_assert_eq!(stats.errors, 0);
        // Every request is looked up exactly once — as a cache hit, miss,
        // in-flight join or batch duplicate — in both modes: the gate
        // sheds and the worker expires only after the lookup, so no
        // request, not even one expired on arrival, skips it.
        let looked_up =
            stats.cache_hits + stats.cache_misses + stats.inflight_hits + stats.dedup_hits;
        prop_assert!(
            looked_up >= answered + shed,
            "lookups {} < answered {} + shed {}", looked_up, answered, shed
        );
        prop_assert_eq!(looked_up, n as u64);
    }

    /// Shutdown flushes, never strands: tickets still unresolved when the
    /// runtime drops are answered (or typed-failed) by the drain — a
    /// `wait` after drop returns rather than hanging.
    #[test]
    fn no_ticket_is_left_unresolved_at_shutdown(seed in 0u64..10_000) {
        let (cqap, pmtds) = pmtds_2reach().unwrap();
        let graph = Graph::random(40, 160, seed);
        let index = Arc::new(CqapIndex::build(&cqap, &graph.as_path_database(2), &pmtds).unwrap());
        let requests: Vec<AccessRequest> = zipf_pair_requests(&graph, 64, 1.1, seed ^ 0x50de)
            .into_iter()
            .map(|(u, v)| AccessRequest::single(cqap.access(), &[u, v]).unwrap())
            .collect();
        let reference: Vec<Relation> =
            requests.iter().map(|request| index.answer(request).unwrap()).collect();

        let runtime = ServeRuntime::with_config(
            Arc::clone(&index),
            ServeConfig {
                threads: 2,
                cache_capacity: 16,
                admission: Some(AdmissionConfig::shed(4)),
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<_> = requests
            .iter()
            .map(|request| runtime.submit(request.clone()))
            .collect();
        // Drop with every ticket still in hand: the pool drains its queue
        // before the workers join, so in-flight probes complete.
        drop(runtime);
        for (position, ticket) in tickets.into_iter().enumerate() {
            match ticket.wait() {
                Ok(answer) => prop_assert_eq!(*answer, reference[position]),
                Err(error) => prop_assert!(
                    error.is_overloaded(),
                    "post-shutdown ticket resolved with unexpected error: {}",
                    error
                ),
            }
        }
    }
}
