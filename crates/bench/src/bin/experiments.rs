//! The experiment runner: one sub-command per table/figure of the paper.
//!
//! ```sh
//! cargo run --release -p cqap-bench --bin experiments -- [<experiment>] [--small] [--json]
//! ```
//!
//! The experiment defaults to `all`. `--small` runs the sweeps at
//! [`Scale::small`], and `--json` prints one sweep's rows as JSON lines.
//! Anything else exits 2 with the usage line, which lists the experiments.

use cqap_bench::{rows_to_json, Body, Scale, EXPERIMENTS};

fn main() {
    let (mut name, mut small, mut json) = (None, false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--small" => small = true,
            "--json" => json = true,
            _ if name.is_none() => name = Some(arg),
            _ => usage(),
        }
    }
    let name = name.unwrap_or_else(|| "all".to_string());
    let scale = small.then(Scale::small).unwrap_or_default();
    if json {
        // `all` is no entry, so it has no rows to print either.
        let Some(Body::Sweep(sweep)) = EXPERIMENTS.iter().find(|e| e.name == name).map(|e| &e.body)
        else {
            usage()
        };
        println!("{}", rows_to_json(&sweep(scale)));
        return;
    }
    let all = name == "all";
    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| if all { e.in_all } else { e.name == name })
        .collect();
    if chosen.is_empty() {
        usage()
    }
    for e in chosen {
        print!("{}", e.section(scale));
    }
}

/// Prints the usage line and the experiments, then exits 2.
fn usage() -> ! {
    eprintln!("usage: experiments [<experiment>] [--small] [--json (a sweep only)]");
    for e in EXPERIMENTS {
        let note = if e.in_all { "" } else { " (not in `all`)" };
        eprintln!("  {:<13} {}{note}", e.name, e.title);
    }
    eprintln!("  all           every experiment above not marked otherwise (the default)");
    std::process::exit(2)
}
