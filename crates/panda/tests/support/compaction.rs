//! Compaction fixtures shared by the spilled-index unit tests of
//! `cqap-panda` (`src/stored.rs`) and `cqap-shard` (`src/tiered.rs`),
//! which include this file by path.

use std::path::{Path, PathBuf};

use cqap_common::Tuple;
use cqap_delta::DeltaBatch;
use cqap_relation::Database;

/// A batch that makes the `S14` view of the fixture outgrow its
/// compaction trigger (40 fresh sources through one fresh 2-path to 40
/// fresh targets: 40 × 40 new `(x1, x4)` pairs) and drops every third
/// `R1` edge, so every view also loses rows.
pub fn compacting_batch(db: &Database) -> DeltaBatch {
    let fan = |from: u64, to: u64, n: u64, out: bool| -> Vec<Tuple> {
        (0..n)
            .map(|i| if out { Tuple::pair(from, to + i) } else { Tuple::pair(from + i, to) })
            .collect()
    };
    let dropped = db.relation("R1").unwrap().tuples().iter().step_by(3).cloned().collect();
    DeltaBatch::new()
        .insert("R1", fan(9_000, 9_100, 40, false))
        .insert("R2", vec![Tuple::pair(9_100, 9_200)])
        .insert("R3", fan(9_200, 9_300, 40, true))
        .delete("R1", dropped)
}

/// A directory squatting on the compaction temp path of every spilled
/// view under `dir`, so each compaction fails before writing a byte.
pub fn squat_compactions(dir: &Path) -> Vec<PathBuf> {
    let runs = std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path());
    let squats: Vec<PathBuf> = runs
        .filter(|path| path.extension().is_some_and(|ext| ext == "sview"))
        .map(|path| path.with_extension("tmp"))
        .collect();
    squats.iter().for_each(|tmp| std::fs::create_dir(tmp).unwrap());
    squats
}
