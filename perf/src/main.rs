//! `cqap-perf`: the one benchmark of the CQAP serving stack — four
//! workloads, end-to-end metrics with the sink off, per-layer metrics from a
//! separate traced run. See `README.md` beside this crate.
//!
//! ```text
//! cqap-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cqap-perf run    [--seed n] [--seconds s] [--workload name] [--traced]
//! cqap-perf repeat [--runs k] [--seed n] [--seconds s] [--workload name]
//! ```
//!
//! The first form runs one workload in this process and prints its result
//! object as the last line of standard output; `run` and `repeat` start one
//! such child process per workload run and wait for each.

mod cold_store;
mod data;
mod delta_mix;
mod engine_uncached;
mod json;
mod ladder;
mod metrics;
mod phases;
mod prom;
mod serve_hot_open;
mod spans;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Value;
use metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use spans::Spans;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "engine_uncached",
        "cache off, all PMTDs in memory: T-view joins, S-view probes and the union do the work",
    ),
    (
        "cold_store",
        "all shards on disk, data >> 256-entry cache, coalesced batches: fence search, segment read, varint decode",
    ),
    (
        "serve_hot_open",
        "open-loop Poisson ladder, keys fit the shard LRUs: admission, queue, pool hand-off, router, ticket delivery",
    ),
    (
        "delta_mix",
        "reads beside delta batches on a hot+cold index: delta plans, recompiles, LSM overlay, compaction, cache invalidation",
    ),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One workload run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub spans: Spans,
    scratch: ScratchDir,
    dirs: usize,
}

impl Ctx {
    /// `share` of the run's measured seconds.
    pub fn part(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// A fresh path under this run's scratch directory (not yet created).
    pub fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.dirs += 1;
        self.scratch.0.join(format!("{tag}{}", self.dirs))
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub report: Report,
    pub attempted: usize,
    pub failed: usize,
}

/// The split of one set-up, seconds; stages a workload lacks stay 0.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub panda_build_s: f64,
    pub shard_build_s: f64,
    pub spill_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn report(&self, report: &mut Report) {
        report.set("query.gen_ms", self.gen_s * 1e3, 1);
        report.set("panda.build_ms", self.panda_build_s * 1e3, 1);
        report.set("shard.build_ms", self.shard_build_s * 1e3, 1);
        report.set("store.spill_ms", self.spill_s * 1e3, 1);
        report.set("serve.warmup_ms", self.warmup_s * 1e3, 1);
    }
}

/// Sets the deployment up [`SETUP_REPEATS`] times from scratch — generate,
/// build, shard, spill, warm up — dropping each before the next, and returns
/// the last one with the median set-up time.
pub fn repeat_setup<D>(ctx: &mut Ctx, mut setup: impl FnMut(&mut Ctx) -> Res<D>) -> Res<(D, f64)> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut deployment = None;
    for _ in 0..SETUP_REPEATS {
        drop(deployment.take());
        let started = Instant::now();
        deployment = Some(setup(ctx)?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((
        deployment.expect("at least one set-up"),
        stats::median(&seconds),
    ))
}

/// The harness's output directory, `perf/out` beside this crate's manifest
/// (falling back to the working directory if the build tree has moved).
pub fn out_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if manifest.is_dir() {
        manifest.join("out")
    } else {
        PathBuf::from("perf").join("out")
    }
}

/// A per-process scratch directory under `perf/out`, removed when dropped —
/// on success, on error and on panic alike.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> Res<ScratchDir> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `--key value` arguments.
pub struct Args(Vec<String>);

impl Args {
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Res<T> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value for {key}: {text}").into()),
        }
    }
}

fn run_workload(name: &str, ctx: &mut Ctx) -> Res<Outcome> {
    match name {
        "engine_uncached" => engine_uncached::run(ctx),
        "cold_store" => cold_store::run(ctx),
        "serve_hot_open" => serve_hot_open::run(ctx),
        "delta_mix" => delta_mix::run(ctx),
        other => Err(format!("unknown workload {other}").into()),
    }
}

/// Runs one workload in this process and prints every metric by name, then
/// the result object as the last line.
fn single(args: &Args) -> Res<ExitCode> {
    let name = args
        .get("--workload")
        .ok_or("missing --workload")?
        .to_string();
    let traced = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
    };
    let mut ctx = Ctx {
        seed: args.parsed("--seed", 1)?,
        seconds: args.parsed("--seconds", 15.0)?,
        traced,
        spans: Spans::new(traced),
        scratch: ScratchDir::create()?,
        dirs: 0,
    };
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let mut outcome = run_workload(&name, &mut ctx)?;
    let defs: &[MetricDef] = if traced {
        PER_LAYER
    } else {
        outcome.report.set("peak_rss_mb", peak_rss_mb()?, 1);
        END_TO_END
    };

    println!(
        "# {name} seed={} seconds={} trace={} threads_available={}",
        ctx.seed,
        ctx.seconds,
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let (value, n) = match outcome.report.get(def.name) {
            Some(found) => found,
            // A per-layer metric this workload does not measure reads 0.
            None if traced => (0.0, 0),
            None => return Err(format!("{name} did not report {}", def.name).into()),
        };
        if !value.is_finite() {
            return Err(format!("{} is not a finite number", def.name).into());
        }
        // A tail is only as good as the samples beyond it.
        let thin = def.name.contains("p99") && n > 0 && !stats::tail_supported(n, 0.99);
        println!(
            "{:<36} {:>18.4} {:<10} n={n}{}",
            def.name,
            value,
            def.unit,
            if thin {
                "  (fewer than 10 samples beyond p99)"
            } else {
                ""
            },
        );
        fields.push((
            def.name.to_string(),
            Value::Obj(vec![
                ("value".into(), Value::Num(value)),
                ("unit".into(), Value::Str(def.unit.into())),
            ]),
        ));
    }
    if traced {
        let path = out_dir().join(format!("trace_{name}.json"));
        ctx.spans.write_chrome_trace(&path)?;
        println!(
            "# {} spans written to {}",
            ctx.spans.spans.len(),
            path.display()
        );
    }
    let correct = outcome.failed == 0;
    if !correct {
        println!(
            "# FAILED: {} of {} operations",
            outcome.failed, outcome.attempted
        );
    }
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), Value::Obj(fields)),
    ]);
    // The deployment and its files are gone by now; remove the scratch
    // directory before the result line, so nothing is left once it prints.
    drop(ctx);
    println!("{}", result.to_json());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => suite::run(&Args(argv.split_off(1))),
        Some("repeat") => suite::repeat(&Args(argv.split_off(1))),
        _ => single(&Args(argv)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cqap-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares what this crate emits, name for name.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let registered = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), registered(END_TO_END));
        assert_eq!(declared("per_layer"), registered(PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.map(|(name, _)| name));
        for metric in doc.get("end_to_end").unwrap().as_arr() {
            let bound = metric.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn args_read_key_value_pairs() {
        let args = Args(["--seed", "7", "--traced"].map(String::from).to_vec());
        assert_eq!(args.parsed("--seed", 1u64).unwrap(), 7);
        assert_eq!(args.parsed("--runs", 10usize).unwrap(), 10);
        assert!(args.flag("--traced") && !args.flag("--quiet"));
        let bad = Args(["--seed", "x"].map(String::from).to_vec());
        assert!(bad.parsed::<u64>("--seed", 0).is_err());
    }
}
