//! `run` and `repeat`: the whole suite, one child process per workload run
//! (so `peak_rss_mb` is the workload's own and a crash cannot take the
//! suite down), and the acceptance arithmetic over repeated runs.
//!
//! Numbers are compared only at equal seed, equal `--seconds` and equal
//! scale (the dataset and rate constants in the workload modules).

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::{out_dir, Args, Res, WORKLOADS};

/// A spread at or below this share of the bound counts as steady.
const STEADY_SHARE: f64 = 1.0 / 3.0;

/// The workloads a command covers: all four, or the one `--workload` names.
fn selected(args: &Args) -> Res<Vec<&'static str>> {
    match args.get("--workload") {
        None => Ok(WORKLOADS.iter().map(|(name, _)| *name).collect()),
        Some(wanted) => WORKLOADS
            .iter()
            .find(|(name, _)| *name == wanted)
            .map(|(name, _)| vec![*name])
            .ok_or_else(|| format!("unknown workload {wanted}").into()),
    }
}

/// One finished child: what it printed, and its parsed result line.
struct Child {
    stdout: String,
    result: Value,
    ok: bool,
}

/// Runs one workload in a child process and waits for it to end.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Res<Child> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    let ok =
        output.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
    Ok(Child { stdout, result, ok })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `run`: every selected workload once untraced and, with `--traced`, once
/// traced; prints each child's metric table and writes the results file.
pub fn run(args: &Args) -> Res<ExitCode> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", 15.0)?;
    let mut all_ok = true;
    let mut recorded = Vec::new();
    for workload in selected(args)? {
        let mut runs = vec![("end_to_end", false)];
        if args.flag("--traced") {
            runs.push(("per_layer", true));
        }
        let mut fields = Vec::new();
        for (key, traced) in runs {
            let done = child(workload, seed, seconds, traced)?;
            print!("{}", done.stdout);
            all_ok &= done.ok;
            fields.push((key.to_string(), done.result));
        }
        recorded.push((workload.to_string(), Value::Obj(fields)));
    }
    let path = out_dir().join(format!("results_seed{seed}.json"));
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(
        &path,
        Value::Obj(vec![
            ("seed".into(), Value::Num(seed as f64)),
            ("seconds".into(), Value::Num(seconds)),
            ("workloads".into(), Value::Obj(recorded)),
        ])
        .to_json(),
    )?;
    println!("# results written to {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The regression bounds `BENCHMARK.json` declares, by metric name.
fn bounds() -> Res<Vec<(String, f64)>> {
    let beside_crate = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let path = if beside_crate.is_file() {
        beside_crate
    } else {
        PathBuf::from("BENCHMARK.json")
    };
    let doc = json::parse(&std::fs::read_to_string(&path)?)?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_arr()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// By how much `now` is worse than `then`, as a share of `then`.
pub fn worse_by(better: &str, then: f64, now: f64) -> f64 {
    if then == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (then - now) / then.abs(),
        _ => (now - then) / then.abs(),
    }
}

/// `repeat`: each selected workload `--runs` times, each time with another
/// seed; per end-to-end metric the values, their median, and the distance
/// between the quartiles as a share of the median against the bound. With
/// `--against <file>` the medians are also compared with those an earlier
/// `repeat` saved.
pub fn repeat(args: &Args) -> Res<ExitCode> {
    let runs: usize = args.parsed("--runs", 10)?;
    let first_seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", 15.0)?;
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let bounds = bounds()?;
    let earlier = match args.get("--against") {
        Some(path) => Some(json::parse(&std::fs::read_to_string(path)?)?),
        None => None,
    };
    let mut all_pass = true;
    let mut saved = Vec::new();
    for workload in selected(args)? {
        let mut results = Vec::with_capacity(runs);
        for seed in first_seed..first_seed + runs as u64 {
            let done = child(workload, seed, seconds, false)?;
            if !done.ok {
                println!("{workload} seed {seed}: FAILED\n{}", done.stdout);
                all_pass = false;
            }
            results.push(done.result);
        }
        println!(
            "## {workload}: {runs} runs, seeds {first_seed}..{}",
            first_seed + runs as u64 - 1
        );
        let mut medians = Vec::new();
        for def in END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| metric_value(r, def.name))
                .collect();
            if values.len() != runs {
                return Err(format!("{workload}: {} missing from a run", def.name).into());
            }
            let bound = bounds
                .iter()
                .find(|(name, _)| name == def.name)
                .map(|(_, bound)| *bound)
                .ok_or_else(|| format!("no bound for {}", def.name))?;
            let (mid, spread) = (median(&values), iqr_share(&values));
            // The set-up time's spread is reported but not held to its bound.
            let verdict = if def.name == "setup_s" {
                "exempt"
            } else if spread <= bound * STEADY_SHARE {
                "PASS steady"
            } else if spread <= bound {
                "PASS"
            } else {
                all_pass = false;
                "FAIL"
            };
            println!(
                "{:<16} median {:>14.4} {:<7} spread {:>6.2}% bound {:>5.1}% {verdict}",
                def.name,
                mid,
                def.unit,
                spread * 100.0,
                bound * 100.0,
            );
            println!(
                "                 runs: {}",
                values
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            if let Some(then) = earlier
                .as_ref()
                .and_then(|doc| doc.get(workload)?.get(def.name)?.as_f64())
            {
                let worse = worse_by(def.better, then, mid);
                let verdict = if worse <= bound { "PASS" } else { "FAIL" };
                all_pass &= worse <= bound;
                println!(
                    "                 against {then:.4}: worse by {:.2}% {verdict}",
                    worse * 100.0
                );
            }
            medians.push((def.name.to_string(), Value::Num(mid)));
        }
        saved.push((workload.to_string(), Value::Obj(medians)));
    }
    let path = out_dir().join("repeat_medians.json");
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(&path, Value::Obj(saved).to_json())?;
    println!(
        "# medians written to {} (compare a later set with --against)",
        path.display()
    );
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by("lower", 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by("lower", 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by("higher", 200.0, 150.0) - 0.25).abs() < 1e-12);
        assert!(worse_by("higher", 200.0, 250.0) < 0.0);
        assert_eq!(worse_by("lower", 0.0, 5.0), 0.0);
    }
}
