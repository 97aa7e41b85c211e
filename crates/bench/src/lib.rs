//! # cqap-bench
//!
//! The benchmark harness: one entry point per table and figure of the
//! paper's evaluation. The library half contains the workload definitions
//! and the sweep loops; the `experiments` binary prints paper-style rows.
//! It is the one harness that measures the paper's structures: every
//! empirical row carries space, online work and wall-clock time.
//!
//! [`EXPERIMENTS`] lists them, each once: the `experiments` binary, its
//! `all`, its usage line and the golden test (`tests/golden.rs`) read it.
//! An entry's [`Body`] is one of two kinds:
//!
//! * **analytic** — regenerate the paper's tables/figures exactly (rational
//!   LP): Table 1, the PMTD inventories of Figures 1–3, the tradeoff curves
//!   of Figures 4a/4b, and the Section 6 / Appendix E/F symbolic tradeoffs.
//! * **empirical** — sweep the space budget of the concrete index
//!   structures on synthetic workloads and record measured space, measured
//!   online work (hash probes + scanned tuples, read as the difference of
//!   [`cqap_common::work::total`] around the query loop — the structures
//!   hold no counter) and wall-clock time; the *shape* of these curves is
//!   what the paper's tradeoffs predict.

use cqap_common::{work, FxHashMap, FxHashSet, Val};
use cqap_indexes::hierarchical::HierarchicalInstance;
use cqap_indexes::kreach::Adjacency;
use cqap_indexes::{
    BfsBaseline, FullReachMaterialization, HierarchicalIndex, KReachGoldstein,
    SetDisjointnessIndex, SquareIndex, TriangleIndex, TwoReachIndex,
};
use cqap_query::workload::{graph_pair_requests, set_tuple_requests, Graph, SetFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

mod analytic;
use Body::{Analytic, Sweep};

/// One measured row of an empirical sweep.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Human-readable configuration label (structure + budget).
    pub config: String,
    /// The space budget requested (in stored values), if applicable.
    pub budget: Option<usize>,
    /// The space the structure actually uses (stored values).
    pub space_used: usize,
    /// Average online work per request (hash probes + scanned tuples).
    pub avg_work: f64,
    /// Average wall-clock time per request, in nanoseconds.
    pub avg_time_ns: f64,
    /// Fraction of requests with a positive answer.
    pub positive_rate: f64,
}

/// What an experiment computes.
pub enum Body {
    /// An empirical sweep: measured rows at a [`Scale`].
    Sweep(fn(Scale) -> Vec<SweepRow>),
    /// An analytic result, exact: the text below the section title.
    Analytic(fn() -> String),
}

/// One table or figure of the paper's evaluation, as `experiments` runs it.
pub struct Experiment {
    /// The `experiments` sub-command.
    pub name: &'static str,
    /// The paper artifact, printed as the section title.
    pub title: &'static str,
    /// Whether `experiments all` runs it.
    pub in_all: bool,
    /// What it computes.
    pub body: Body,
}

/// An entry that `experiments all` runs.
const fn entry(name: &'static str, title: &'static str, body: Body) -> Experiment {
    Experiment {
        name,
        title,
        in_all: true,
        body,
    }
}

/// Every experiment, in the order `experiments all` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    entry(
        "fig1",
        "Figure 1: PMTDs for the 3-reachability CQAP",
        Analytic(analytic::figure1),
    ),
    entry(
        "fig2",
        "Figure 2: PMTDs for the square CQAP",
        Analytic(analytic::figure2),
    ),
    entry(
        "fig3",
        "Figure 3: all PMTDs for the 3-reachability CQAP",
        Analytic(analytic::figure3),
    ),
    entry(
        "table1",
        "Table 1: 2-phase disjunctive rules for 3-reachability",
        Analytic(analytic::table1),
    ),
    entry(
        "fig4a",
        "Figure 4a: 3-reachability tradeoff (|Q_A| = 1)",
        Analytic(|| analytic::figure4(3)),
    ),
    entry(
        "fig4b",
        "Figure 4b: 4-reachability tradeoff (|Q_A| = 1)",
        Analytic(|| analytic::figure4(4)),
    ),
    entry(
        "e8",
        "Example E.8: 4-reachability rules",
        Analytic(analytic::example_e8),
    ),
    entry(
        "section6",
        "Section 6.2/6.3 tradeoffs",
        Analytic(analytic::section6_examples),
    ),
    Experiment {
        in_all: false,
        ..entry(
            "appendix-f",
            "Appendix F: Boolean hierarchical CQAP",
            Analytic(analytic::appendix_f),
        )
    },
    entry(
        "2reach",
        "§5 running example: 2-reachability sweep",
        Sweep(sweep_2reach),
    ),
    entry(
        "3reach",
        "Figure 4a (empirical): 3-reachability sweep",
        Sweep(|s| sweep_kreach(3, s)),
    ),
    entry(
        "4reach",
        "Figure 4b (empirical): 4-reachability sweep",
        Sweep(|s| sweep_kreach(4, s)),
    ),
    entry("kset", "§6.1: k-set disjointness sweep", Sweep(sweep_kset)),
    entry(
        "square",
        "Example 5.2: square query sweep",
        Sweep(sweep_square),
    ),
    entry(
        "triangle",
        "Example E.4: triangle edge detection",
        Sweep(sweep_triangle),
    ),
    entry(
        "hierarchical",
        "Appendix F: hierarchical CQAP sweep",
        Sweep(sweep_hierarchical),
    ),
    entry(
        "batching",
        "§6.4 batching remark",
        Sweep(batching_experiment),
    ),
];

impl Experiment {
    /// The text `experiments <name>` prints: the title, then the analytic
    /// text or the measured rows as an aligned table.
    pub fn section(&self, scale: Scale) -> String {
        let body = match self.body {
            Sweep(sweep) => table(&sweep(scale)),
            Analytic(render) => render(),
        };
        format!("\n== {} ==\n{body}", self.title)
    }
}

/// Sweep rows as an aligned table.
fn table(rows: &[SweepRow]) -> String {
    let mut out = format!(
        "{:<34} {:>12} {:>12} {:>14} {:>14} {:>10}\n",
        "configuration", "budget", "space", "avg work", "avg ns/query", "positive"
    );
    for r in rows {
        out += &format!(
            "{:<34} {:>12} {:>12} {:>14.1} {:>14.1} {:>9.1}%\n",
            r.config,
            r.budget.map_or_else(|| "-".to_string(), |b| b.to_string()),
            r.space_used,
            r.avg_work,
            r.avg_time_ns,
            100.0 * r.positive_rate
        );
    }
    out
}

/// Serializes rows as JSON lines (for downstream plotting). The format is
/// written by hand: the build environment has no registry access, so the
/// workspace carries no serde dependency at all.
pub fn rows_to_json(rows: &[SweepRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{{\"config\":\"{}\",\"budget\":{},\"space_used\":{},\"avg_work\":{},\"avg_time_ns\":{},\"positive_rate\":{}}}",
                r.config.replace('"', "'"),
                r.budget.map_or_else(|| "null".to_string(), |b| b.to_string()),
                r.space_used,
                r.avg_work,
                r.avg_time_ns,
                r.positive_rate
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Answers every request once, reading the clock and [`work::total`]
/// around the whole loop: the one place a row's `avg_time_ns` and
/// `avg_work` come from. `head` is the row's `(config, budget, space_used)`.
fn measure<R>(
    head: (String, Option<usize>, usize),
    requests: &[R],
    mut query: impl FnMut(&R) -> bool,
) -> SweepRow {
    let (config, budget, space_used) = head;
    let start_work = work::total();
    let start = Instant::now();
    let positives = requests.iter().filter(|r| query(r)).count();
    let elapsed = start.elapsed().as_nanos() as f64;
    let per_request = |x: f64| x / requests.len().max(1) as f64;
    SweepRow {
        config,
        budget,
        space_used,
        avg_work: per_request((work::total() - start_work) as f64),
        avg_time_ns: per_request(elapsed),
        positive_rate: per_request(positives as f64),
    }
}

/// Standard budget grid: `S = N^σ` for `σ ∈ {0.5, 0.75, ..., 2.0}`.
pub fn budget_grid(n: usize) -> Vec<(f64, usize)> {
    [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
        .iter()
        .map(|&e| (e, (n as f64).powf(e).round() as usize))
        .collect()
}

/// The default experiment scale (kept modest so the `experiments` sweeps
/// finish in minutes; `--small` selects [`Scale::small`]).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Number of edges in graph workloads.
    pub edges: usize,
    /// Number of online requests per configuration.
    pub requests: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            edges: 40_000,
            requests: 2_000,
        }
    }
}

impl Scale {
    /// A smaller scale, selected by `experiments --small` and used by
    /// smoke tests.
    pub fn small() -> Self {
        Scale {
            edges: 6_000,
            requests: 400,
        }
    }
}

/// §5 running example: the 2-reachability heavy/light index vs. the
/// baselines, swept over the space budget.
fn sweep_2reach(scale: Scale) -> Vec<SweepRow> {
    let graph = Graph::skewed(scale.edges / 5, scale.edges, 20, 500, 7);
    let requests = graph_pair_requests(&graph, scale.requests, 11);
    let bfs = BfsBaseline::build(&graph, 2);
    let head = ("bfs-from-scratch (S=0)".into(), None, bfs.space_used());
    let mut rows = vec![measure(head, &requests, |&(u, v)| bfs.query(u, v))];
    for (exp, budget) in budget_grid(graph.len()) {
        let idx = TwoReachIndex::build(&graph, budget);
        let label = format!("two-reach S=|E|^{exp:.2}");
        let head = (label, Some(budget), idx.space_used());
        rows.push(measure(head, &requests, |&(u, v)| idx.query(u, v)));
    }
    let full = FullReachMaterialization::build(&graph, 2);
    let head = ("full materialization".into(), None, full.space_used());
    rows.push(measure(head, &requests, |&(u, v)| full.query(u, v)));
    rows
}

/// Figures 4a/4b (empirical side): the Goldstein-et-al. k-reachability
/// structure swept over the budget, vs. BFS and full materialization.
fn sweep_kreach(k: usize, scale: Scale) -> Vec<SweepRow> {
    let graph = Graph::skewed(scale.edges / 5, scale.edges, 15, 400, 13 + k as u64);
    let requests = graph_pair_requests(&graph, scale.requests, 17);
    let bfs = BfsBaseline::build(&graph, k);
    let head = (format!("{k}-reach bfs (S=0)"), None, bfs.space_used());
    let mut rows = vec![measure(head, &requests, |&(u, v)| bfs.query(u, v))];
    // Parallel build of the budgeted structures (the builds dominate).
    let indexes: Vec<(f64, usize, KReachGoldstein)> = std::thread::scope(|s| {
        let handles: Vec<_> = budget_grid(graph.len())
            .into_iter()
            .map(|(exp, budget)| {
                let graph = &graph;
                s.spawn(move || (exp, budget, KReachGoldstein::build(graph, k, budget)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (exp, budget, idx) in &indexes {
        let label = format!("{k}-reach goldstein S=|E|^{exp:.2}");
        let head = (label, Some(*budget), idx.space_used());
        rows.push(measure(head, &requests, |&(u, v)| idx.query(u, v)));
    }
    let full = FullReachMaterialization::build(&graph, k);
    let label = format!("{k}-reach full materialization");
    let head = (label, None, full.space_used());
    rows.push(measure(head, &requests, |&(u, v)| full.query(u, v)));
    rows
}

/// §6.1 / Example 6.2: k-set disjointness swept over the budget.
fn sweep_kset(scale: Scale) -> Vec<SweepRow> {
    let family = SetFamily::zipf(scale.edges / 20, scale.edges * 5, scale.edges / 2, 1.0, 5);
    let requests: Vec<(Val, Val)> = set_tuple_requests(&family, 2, scale.requests, 3)
        .into_iter()
        .map(|t| (t.get(0), t.get(1)))
        .collect();
    let grid = budget_grid(family.len()).into_iter();
    grid.map(|(exp, budget)| {
        let idx = SetDisjointnessIndex::build(&family, budget);
        let label = format!("set-disjointness S=N^{exp:.2}");
        let head = (label, Some(budget), idx.space_used());
        measure(head, &requests, |&(a, b)| idx.intersects(a, b))
    })
    .collect()
}

/// Example 5.2 / E.5: the square CQAP swept over the budget.
fn sweep_square(scale: Scale) -> Vec<SweepRow> {
    let graph = Graph::skewed(scale.edges / 5, scale.edges, 20, 400, 23);
    let requests = graph_pair_requests(&graph, scale.requests, 29);
    let grid = budget_grid(graph.len()).into_iter();
    grid.map(|(exp, budget)| {
        let idx = SquareIndex::build(&graph, budget);
        let label = format!("square S=|E|^{exp:.2}");
        let head = (label, Some(budget), idx.space_used());
        measure(head, &requests, |&(a, c)| idx.query(a, c))
    })
    .collect()
}

/// Example E.4: the triangle index (linear space, constant time).
fn sweep_triangle(scale: Scale) -> Vec<SweepRow> {
    let graph = Graph::random(scale.edges / 10, scale.edges, 31);
    let idx = TriangleIndex::build(&graph);
    let requests: Vec<(Val, Val)> = graph.edges.iter().take(scale.requests).copied().collect();
    let head = ("triangle edge-detection".into(), None, idx.space_used());
    let row = measure(head, &requests, |&(u, v)| idx.edge_in_triangle(u, v));
    vec![row]
}

/// Appendix F: the hierarchical CQAP swept over the root-degree threshold.
fn sweep_hierarchical(scale: Scale) -> Vec<SweepRow> {
    let roots = (scale.edges / 40).max(20);
    let inst = HierarchicalInstance::generate(roots, (roots / 20).max(2), 120, 6, 64, 37);
    let mut rng = StdRng::seed_from_u64(41);
    let mut z = || rng.random_range(0..64) as Val;
    let requests: Vec<_> = (0..scale.requests).map(|_| (z(), z(), z(), z())).collect();
    [1usize, 2, 4, 8, 16, 64, 1 << 20]
        .into_iter()
        .map(|threshold| {
            let idx = HierarchicalIndex::build_with_threshold(&inst, threshold);
            let label = format!("hierarchical Δ={threshold}");
            let head = (label, None, idx.space_used());
            measure(head, &requests, |&(z1, z2, z3, z4)| {
                idx.query(z1, z2, z3, z4)
            })
        })
        .collect()
}

/// §6.4 batching remark: answering `|D|` single-tuple requests one by one
/// versus batching them into one query answered from scratch.
fn batching_experiment(scale: Scale) -> Vec<SweepRow> {
    let graph = Graph::skewed(scale.edges / 5, scale.edges, 15, 300, 43);
    let n = graph.len();
    let requests = graph_pair_requests(&graph, n.min(scale.requests * 4), 47);

    // One-by-one with the budget-S Goldstein structure at S = |E|.
    let idx = KReachGoldstein::build(&graph, 3, n);
    let head = ("one-by-one (S=|E|)".into(), Some(n), idx.space_used());
    let one_by_one = measure(head, &requests, |&(u, v)| idx.query(u, v));

    // Batched: a single pass that joins the request set with the path
    // levels (semi-naive evaluation restricted to the requested sources),
    // run by the first request inside the same window. Work is counted as
    // `BfsBaseline` counts it: a scan per successor walked, a probe per
    // request's final membership test.
    let adj = Adjacency::new(&graph);
    let mut reach = None;
    let label = format!("batched ({} requests at once)", requests.len());
    let head = (label, Some(n), 0);
    let batched = measure(head, &requests, |&(u, v)| {
        let reach = reach.get_or_insert_with(|| batched_reach(&adj, &requests, 3));
        work::add(1, 0);
        reach.get(&u).is_some_and(|r| r.contains(&v))
    });
    vec![one_by_one, batched]
}

/// The vertices `k` steps from each request's source, found in one
/// level-by-level pass over all sources at once.
fn batched_reach(
    adj: &Adjacency,
    requests: &[(Val, Val)],
    k: usize,
) -> FxHashMap<Val, FxHashSet<Val>> {
    let mut reach: FxHashMap<Val, FxHashSet<Val>> = requests
        .iter()
        .map(|&(s, _)| (s, [s].into_iter().collect()))
        .collect();
    for _ in 0..k {
        for frontier in reach.values_mut() {
            let mut next = FxHashSet::default();
            for &x in frontier.iter() {
                if let Some(succ) = adj.succ.get(&x) {
                    work::add(0, succ.len() as u64);
                    next.extend(succ.iter().copied());
                }
            }
            *frontier = next;
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_produce_monotone_shapes() {
        let scale = Scale {
            edges: 2_000,
            requests: 150,
        };
        let rows = sweep_2reach(scale);
        assert!(rows.len() >= 3);
        // Within the budgeted two-reach rows, more budget never increases
        // the average online work.
        let budgeted: Vec<&SweepRow> = rows
            .iter()
            .filter(|r| r.config.starts_with("two-reach"))
            .collect();
        for pair in budgeted.windows(2) {
            assert!(
                pair[1].avg_work <= pair[0].avg_work + 1e-9,
                "{} vs {}",
                pair[0].config,
                pair[1].config
            );
        }
    }

    #[test]
    fn kset_sweep_follows_tradeoff_direction() {
        let scale = Scale {
            edges: 2_000,
            requests: 200,
        };
        let rows = sweep_kset(scale);
        assert!(rows.first().unwrap().avg_work >= rows.last().unwrap().avg_work);
        // Space grows along the grid.
        assert!(rows.first().unwrap().space_used <= rows.last().unwrap().space_used);
    }

    #[test]
    fn batching_rows_agree_on_positives_and_both_count_work() {
        let scale = Scale {
            edges: 3_000,
            requests: 300,
        };
        let rows = batching_experiment(scale);
        assert_eq!(rows.len(), 2);
        // Both strategies answer the same requests (identical hit rates);
        // the work comparison itself is scale-dependent and is reported by
        // the experiment binary rather than asserted at toy scale.
        assert!((rows[0].positive_rate - rows[1].positive_rate).abs() < 1e-9);
        assert!(rows.iter().all(|r| r.avg_work > 0.0));
    }

    #[test]
    fn json_serialization() {
        let rows = sweep_triangle(Scale {
            edges: 1_000,
            requests: 50,
        });
        let json = rows_to_json(&rows);
        assert!(json.contains("triangle"));
        assert!(json.contains("avg_work"));
    }
}
