//! [`StoredViews`]: the spilled S-views of one PMTD plan, probed through
//! the online phase's [`SViewProbe`] seam.
//!
//! Each counted S-view of a plan is written to one sorted-run file (see
//! [`crate::format`]) and opened back as a fence-indexed [`StoredView`]
//! that owns the file. A probe is a key-filter check and, for a key the
//! run may hold, one segment read decoded straight into the caller's
//! column runs, so an index answering from these views returns exactly
//! the tuples the in-memory views would. Moved view rows go into each
//! view's delta overlay ([`StoredViews::edit_row`]); when to compact is
//! the owner's call.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cqap_common::{CqapError, Result, Tuple, Val};
use cqap_relation::Schema;
use cqap_yannakakis::{PreprocessedViews, SViewProbe};

use crate::format::{write_run, StoredView};

/// Counter for unique scratch-directory names within one process.
static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A fresh, process-unique directory path under the system temp dir (not
/// yet created), for spills in tests, examples and benches.
pub fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cqap-store-{tag}-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The disk-resident S-views of one PMTD plan, implementing the
/// [`SViewProbe`] seam of the online phase.
pub struct StoredViews {
    views: Vec<Option<StoredView>>,
}

impl StoredViews {
    /// Spills every materialized view of `pre` to `<dir>/node<n>.sview`
    /// — streamed from the resident rows, no row relation in between —
    /// and opens the files back as fence-indexed stored views (which own
    /// and delete the files when dropped).
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn spill(pre: &PreprocessedViews, dir: &Path) -> Result<StoredViews> {
        let mut views: Vec<Option<StoredView>> = Vec::new();
        for (node, run) in pre.runs() {
            let path = dir.join(format!("node{node}.sview"));
            write_run(&path, run)?;
            let mut view = StoredView::open(&path)?;
            view.delete_on_drop();
            if views.len() <= node {
                views.resize_with(node + 1, || None);
            }
            views[node] = Some(view);
        }
        Ok(StoredViews { views })
    }

    fn view(&self, node: usize) -> Result<&StoredView> {
        self.views
            .get(node)
            .and_then(|v| v.as_ref())
            .ok_or_else(|| {
                CqapError::InvalidPmtd(format!("S-view {node} was not spilled"))
            })
    }

    /// Every spilled view, in node order.
    pub fn views(&self) -> impl Iterator<Item = &StoredView> {
        self.views.iter().flatten()
    }

    /// Every spilled view, mutably, in node order.
    pub fn views_mut(&mut self) -> impl Iterator<Item = &mut StoredView> {
        self.views.iter_mut().flatten()
    }

    /// Absorbs one row that entered or left `node`'s view into its delta
    /// overlay (`StoredView::edit_row`); compaction waits for the owner.
    pub fn edit_row(&mut self, node: usize, row: &[Val], entered: bool) {
        self.views[node].as_mut().expect("every counted view is spilled").edit_row(row, entered);
    }
}

impl SViewProbe for StoredViews {
    fn schema(&self, node: usize) -> Option<&Schema> {
        self.views.get(node).and_then(|v| v.as_ref()).map(StoredView::schema)
    }

    /// Probes decode the matching segment block straight into the caller's
    /// column runs — the cold tier's bytes reach the executor without any
    /// intermediate `Tuple` boxing.
    fn probe_columns(
        &self,
        node: usize,
        key: &Tuple,
        out: &mut cqap_yannakakis::ColumnRun,
    ) -> Result<()> {
        self.view(node)?.probe_columns(key, out)
    }

    /// Semijoin probes walk the segment's keys only — no tuple block is
    /// decoded, no output vector is built.
    fn contains(&self, node: usize, key: &Tuple) -> Result<bool> {
        self.view(node)?.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_decomp::families as pf;
    use cqap_panda::CqapIndex;
    use cqap_query::workload::{graph_pair_requests, Graph};
    use cqap_yannakakis::ColumnRun;

    /// The cold tier's count contract, exact and repeatable: over a fixed
    /// request set on the S14 plan (one probe of its one view per
    /// request), every probe is a segment read or a key-filter negative,
    /// and the reads are the requests whose key the run holds plus false
    /// positives on at most 3 % of the rest. A filter that always answers
    /// "maybe" reads a segment for every request and fails it.
    #[test]
    fn cold_probes_read_segments_only_for_held_keys_and_false_positives() {
        use cqap_obs::{CounterId, MetricsSink};

        let (cqap, pmtds) = pf::pmtds_3reach_fig1().unwrap();
        let g = Graph::skewed(600, 3_600, 8, 220, 7);
        let db = g.as_path_database(3);
        let index = CqapIndex::build(&cqap, &db, &pmtds[2..3]).unwrap();
        let (_, counts) = index.plans().next().unwrap();
        let dir = scratch_dir("filter-contract");
        std::fs::create_dir_all(&dir).unwrap();
        let mut stored = StoredViews::spill(counts, &dir).unwrap();
        let sink = MetricsSink::recording();
        stored.views_mut().for_each(|view| view.set_metrics_sink(sink.clone()));
        let pairs = graph_pair_requests(&g, 3_000, 41);
        let requests: Vec<Tuple> = pairs.iter().map(|&(u, v)| Tuple::pair(u, v)).collect();
        // The run's keys, from the support counts it was spilled with.
        let (s14, held) = {
            let mut views = counts.runs();
            let (node, s14) = views.next().expect("the S14 plan materializes S14");
            assert!(views.next().is_none(), "S14 is the plan's one view");
            (node, pairs.iter().filter(|&&(u, v)| s14.contains_key(&[u, v])).count() as u64)
        };
        let absent = requests.len() as u64 - held;
        assert!(held > 0 && absent > held, "{held} held of {}", requests.len());

        // (segment reads, filter negatives) of one pass over the requests,
        // each the S14 probe the plan makes for it.
        let pass = |stored: &StoredViews| {
            let before = sink.snapshot().unwrap();
            let mut run = ColumnRun::new();
            for key in &requests {
                run.reset(2);
                stored.probe_columns(s14, key, &mut run).unwrap();
            }
            let counted = sink.snapshot().unwrap().delta(&before);
            let reads = counted.counter(CounterId::SegmentReads);
            let negatives = counted.counter(CounterId::FilterNegatives);
            assert_eq!(reads + negatives, requests.len() as u64, "one probe per request");
            (reads, negatives)
        };
        let within_contract = |reads: u64| reads >= held && (reads - held) * 100 <= 3 * absent;

        let (reads, negatives) = pass(&stored);
        assert!(within_contract(reads), "{reads} reads for {held} held keys of {}", requests.len());
        assert_eq!(pass(&stored), (reads, negatives), "the count is repeatable");

        stored.views_mut().for_each(StoredView::saturate_filter);
        let (reads, negatives) = pass(&stored);
        assert_eq!((reads, negatives), (requests.len() as u64, 0));
        assert!(!within_contract(reads), "an always-maybe filter breaks the contract");
        drop(stored);
        std::fs::remove_dir(&dir).unwrap();
    }
}
