//! The `experiments` binary end to end: its JSON rows and its arguments.
//! A known experiment with known flags runs; anything else exits 2 with the
//! registry's usage line.

use cqap_bench::EXPERIMENTS;
use std::process::{Command, Output};

const SWEEP_ROW_KEYS: [&str; 6] = [
    "config",
    "budget",
    "space_used",
    "avg_work",
    "avg_time_ns",
    "positive_rate",
];

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts")
}

/// The keys of one flat JSON object, in order: every `"name":` that opens
/// the object or follows a comma.
fn object_keys(line: &str) -> Vec<&str> {
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "not an object: {line}"
    );
    let mut keys = Vec::new();
    for (at, _) in line.match_indices(['{', ',']) {
        let rest = &line[at + 1..];
        if let Some(name) = rest.strip_prefix('"').and_then(|r| r.split_once("\":")) {
            keys.push(name.0);
        }
    }
    keys
}

#[test]
fn small_json_sweeps_print_one_sweep_row_per_line() {
    for experiment in ["triangle", "batching"] {
        let out = experiments(&[experiment, "--small", "--json"]);
        assert_eq!(out.status.code(), Some(0), "{experiment}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = stdout.lines().collect();
        assert!(!lines.is_empty(), "{experiment} printed no rows");
        for line in lines {
            assert_eq!(object_keys(line), SWEEP_ROW_KEYS, "{experiment}: {line}");
        }
    }
}

#[test]
fn an_unknown_experiment_exits_2() {
    let out = experiments(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn arguments_decide_the_exit_code() {
    let cases: [(&[&str], i32); 7] = [
        (&["no-such"], 2),
        (&["triangle", "--smal"], 2),
        (&["triangle", "square"], 2),
        (&["triangle", "--small", "-j"], 2),
        (&["table1", "--json"], 2),
        (&["all", "--json"], 2),
        (&["triangle", "--small", "--json"], 0),
    ];
    for (args, code) in cases {
        let out = experiments(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        if code == 2 {
            assert!(
                EXPERIMENTS.iter().all(|e| stderr.contains(e.title)),
                "{args:?}: {stderr}"
            );
        } else {
            // The rows, without their wall-clock field, are the golden's.
            let rows = String::from_utf8(out.stdout).unwrap();
            let rows: String = rows.lines().map(|r| without_time(r) + "\n").collect();
            assert_eq!(rows, include_str!("golden/triangle.jsonl"));
        }
    }
}

/// A `--json` row without its wall-clock field.
fn without_time(row: &str) -> String {
    let (head, rest) = row.split_once(",\"avg_time_ns\":").expect("a sweep row");
    let tail = rest.split_once(',').expect("a field after it").1;
    format!("{head},{tail}")
}
