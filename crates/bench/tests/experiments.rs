//! The `experiments` binary end to end: its JSON rows and its exit codes.

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
