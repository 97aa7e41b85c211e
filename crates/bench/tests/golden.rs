//! Every registry entry against its committed golden file, in-process at
//! `Scale::small`: a sweep's `--json` rows without `avg_time_ns` (the one
//! field that varies run to run) in `golden/<name>.jsonl`, an analytic
//! entry's text in `golden/<name>.txt`. There is no bless switch: a change
//! that moves a count edits the golden file in the same diff and says why.

use cqap_bench::{rows_to_json, Body, Experiment, Scale, SweepRow, EXPERIMENTS};
use std::collections::BTreeMap;

/// The entries too slow for a debug build, with their cost as debug
/// processes on 2 vCPUs.
const SKIP: [&str; 3] = [
    "fig4b",      // 153 s
    "e8",         // 5.2 s
    "appendix-f", // the 7-variable LP: tens of minutes or more
];

/// An entry's golden file name, and its text and rows at `Scale::small`.
fn run(e: &Experiment) -> (String, (String, Vec<SweepRow>)) {
    let Body::Sweep(sweep) = e.body else {
        return (
            format!("{}.txt", e.name),
            (e.section(Scale::small()), vec![]),
        );
    };
    let rows = sweep(Scale::small());
    let json = rows_to_json(&rows)
        .lines()
        .map(|r| without_time(r) + "\n")
        .collect();
    (format!("{}.jsonl", e.name), (json, rows))
}

#[test]
fn every_entry_matches_its_golden_file() {
    assert!(SKIP
        .iter()
        .all(|s| EXPERIMENTS.iter().any(|e| e.name == *s)));
    let runs: BTreeMap<_, _> = std::thread::scope(|s| {
        let entries = EXPERIMENTS.iter().filter(|e| !SKIP.contains(&e.name));
        let runs: Vec<_> = entries.map(|e| s.spawn(|| run(e))).collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut diffs = Vec::new();
    for (file, (got, _)) in &runs {
        let Ok(want) = std::fs::read_to_string(dir.join(file)) else {
            diffs.push(format!("{file}: missing, and its entry is not skipped"));
            continue;
        };
        let (want, got): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
        for i in 0..want.len().max(got.len()) {
            let want = want.get(i).unwrap_or(&"(no line)");
            let got = got.get(i).unwrap_or(&"(no line)");
            if want != got {
                diffs.push(format!(
                    "{file}:{}\n  golden: {want}\n  now:    {got}",
                    i + 1
                ));
            }
        }
    }
    for file in std::fs::read_dir(&dir).unwrap() {
        let file = file.unwrap().file_name().into_string().unwrap();
        if !runs.contains_key(&file) {
            diffs.push(format!("{file}: no registry entry (or a skipped one)"));
        }
    }
    assert!(
        diffs.is_empty(),
        "differs from golden/:\n{}",
        diffs.join("\n")
    );

    let rows = |name: &str| &runs[&format!("{name}.jsonl")].1;
    // §5: in the budgeted two-reach rows, more budget never adds work.
    let two_reach = rows("2reach")
        .iter()
        .filter(|r| r.config.starts_with("two-reach"));
    let work: Vec<_> = two_reach.map(|r| r.avg_work).collect();
    assert!(work.windows(2).all(|w| w[1] <= w[0]), "{work:?}");
    // §6.1: the k-set grid's first point stores least and works most.
    let (first, last) = (&rows("kset")[0], rows("kset").last().unwrap());
    assert!(first.avg_work >= last.avg_work && first.space_used <= last.space_used);
    // §6.4: both strategies answer the same requests, and both count work.
    let [one, batched] = &rows("batching")[..] else {
        panic!("two batching rows")
    };
    assert_eq!(one.positive_rate, batched.positive_rate);
    assert!(one.avg_work > 0.0 && batched.avg_work > 0.0);
}

/// A `--json` row without its wall-clock field.
fn without_time(row: &str) -> String {
    let (head, rest) = row.split_once(",\"avg_time_ns\":").expect("a sweep row");
    let tail = rest.split_once(',').expect("a field after it").1;
    format!("{head},{tail}")
}
