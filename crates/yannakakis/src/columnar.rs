//! The plan executor: a [`CompiledPlan`]'s step program run
//! column-at-a-time over struct-of-arrays scratch.
//!
//! Step schemas are fixed at compile time, so every intermediate has a
//! *static width* and the whole scratch pipeline is flat column runs — no
//! step moves a row-major [`Tuple`]:
//!
//! * a [`ColumnRun`] stores an accumulator as one `Vec<Val>` per column
//!   with a shared row count — filtering is a gather over row indices,
//!   and a join output is a handful of bulk column copies driven by a
//!   `(left row, right row)` pair list, never a per-row tuple clone;
//! * probe keys are hashed **in batch** before the row loop
//!   ([`ColumnRun::hash_rows_into`] folds one contiguous column at a
//!   time through [`cqap_common::hash_fold_column`]'s 8-wide
//!   `chunks_exact` kernel) and grouped by a [`KeyMemo`] so each
//!   *distinct* key probes the S-view backend a single time across all
//!   accumulator rows;
//! * backends append probe results column-wise through
//!   [`SViewProbe::probe_columns`], the seam's one join probe — the
//!   in-memory backend copies its flat resident rows, the disk backend
//!   decodes its segments straight into the columns — so probe results
//!   never round-trip through a `Tuple` at all;
//! * rows become [`Tuple`]s exactly once, at the final head projection
//!   into the answer [`Relation`]
//!   ([`cqap_relation::RelationBuilder::push_row`], inline for arity ≤ 4).
//!
//! The S-view half of the paper's `T` is counted here, at the seam, into
//! [`cqap_common::work`]: one probe per `probe_columns` call (a distinct
//! key after the memo) plus the rows it appended as scans, one probe per
//! semijoin `contains`, and the request's tuples as scans once per answer.
//! Every backend thus reports the same `T` for the same plan and request —
//! a key-filter negative on disk is still one S-view probe; physical reads
//! are the store's own counters.
//!
//! On the warm serving path this executes a probe-only plan with **zero
//! tuple heap boxings and zero relation-level dedup inserts**
//! (counter-enforced by tests); answers are bit-for-bit identical to the
//! naive evaluator (enforced by the umbrella crate's equivalence matrix).

use cqap_common::{hash_fold_column, hash_vals, work, CqapError, FxHashMap, Result, Tuple, Val};
use cqap_relation::{Relation, RelationBuilder};

use crate::compiled::{BottomUpStep, CompiledPlan, HashJoin, ProbeJoin, RootStep, TopDownStep};
use crate::online::SViewProbe;
use cqap_query::AccessRequest;

/// A struct-of-arrays tuple run: one `Vec<Val>` per column, one shared
/// row count. The unit of storage of the columnar execution path — plan
/// accumulators, probe-result pools and per-request T-views are all
/// `ColumnRun`s.
///
/// A run keeps its column capacity across [`ColumnRun::reset`]s, so a
/// warm worker re-executes a plan without allocating.
#[derive(Clone, Debug, Default)]
pub struct ColumnRun {
    width: usize,
    rows: usize,
    /// `cols[..width]` are active; any extra vectors are retained capacity
    /// from earlier, wider uses.
    cols: Vec<Vec<Val>>,
}

impl ColumnRun {
    /// An empty run of width 0.
    pub fn new() -> Self {
        ColumnRun::default()
    }

    /// Clears the run and sets its width, retaining column capacity.
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.rows = 0;
        while self.cols.len() < width {
            self.cols.push(Vec::new());
        }
        for col in &mut self.cols[..width] {
            col.clear();
        }
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the run holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `j` as a value slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[Val] {
        &self.cols[j]
    }

    /// Appends one row given as a value slice (length must equal the
    /// width).
    #[inline]
    pub fn push_row(&mut self, vals: &[Val]) {
        debug_assert_eq!(vals.len(), self.width);
        for (col, &v) in self.cols.iter_mut().zip(vals) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Appends a slice of row tuples — the scatter used by seeding a
    /// chain with stored tuples ([`Tuple::scatter_into`] per row).
    pub fn extend_from_tuples(&mut self, tuples: &[Tuple]) {
        let cols = &mut self.cols[..self.width];
        for t in tuples {
            t.scatter_into(cols);
        }
        self.rows += tuples.len();
    }

    /// Appends `n` rows column-at-a-time: `f(j, col)` must push exactly
    /// `n` values onto column `j`. The column-direct decode entry point of
    /// the cold tier (and any other producer that already has its data in
    /// column order).
    pub fn append_columns(&mut self, n: usize, mut f: impl FnMut(usize, &mut Vec<Val>)) {
        for j in 0..self.width {
            f(j, &mut self.cols[j]);
            debug_assert_eq!(self.cols[j].len(), self.rows + n, "column {j} out of step");
        }
        self.rows += n;
    }

    /// Bulk row selection: appends `src`'s rows at the given indices
    /// (column-at-a-time). Widths must match.
    pub(crate) fn gather(&mut self, src: &ColumnRun, rows: &[u32]) {
        debug_assert_eq!(self.width, src.width);
        for j in 0..self.width {
            let from = &src.cols[j];
            self.cols[j].extend(rows.iter().map(|&r| from[r as usize]));
        }
        self.rows += rows.len();
    }

    /// Join emission by bulk column copies: for each `(left, right)` row
    /// pair, the output row is `left`'s full row followed by `right`'s
    /// `appended` columns. `self` must be reset to
    /// `left.width() + appended.len()`.
    pub(crate) fn emit_join(
        &mut self,
        left: &ColumnRun,
        right: &ColumnRun,
        appended: &[usize],
        pairs: &[(u32, u32)],
    ) {
        debug_assert_eq!(self.width, left.width + appended.len());
        for j in 0..left.width {
            let from = &left.cols[j];
            self.cols[j].extend(pairs.iter().map(|&(l, _)| from[l as usize]));
        }
        for (k, &p) in appended.iter().enumerate() {
            let from = &right.cols[p];
            self.cols[left.width + k].extend(pairs.iter().map(|&(_, r)| from[r as usize]));
        }
        self.rows += pairs.len();
    }

    /// Appends one join output row whose right side is a row slice (the
    /// T-view programs' join chains, whose build side is an atom index's
    /// tuple bucket).
    #[inline]
    pub fn push_join_row(&mut self, left: &ColumnRun, l: usize, right: &[Val], appended: &[usize]) {
        debug_assert_eq!(self.width, left.width + appended.len());
        for j in 0..left.width {
            self.cols[j].push(left.cols[j][l]);
        }
        for (k, &p) in appended.iter().enumerate() {
            self.cols[left.width + k].push(right[p]);
        }
        self.rows += 1;
    }

    /// Writes row `r` projected onto `positions` into `buf` (cleared
    /// first) — the columnar mirror of [`Tuple::project_into`].
    #[inline]
    pub fn project_row_into(&self, r: usize, positions: &[usize], buf: &mut Vec<Val>) {
        buf.clear();
        buf.extend(positions.iter().map(|&p| self.cols[p][r]));
    }

    /// Writes every row projected onto `positions` into `out` (cleared
    /// first), laid end to end — the row-major batch that
    /// [`cqap_relation::KeyedRows::edit_counts`] takes, filled a column at
    /// a time.
    pub fn project_rows_into(&self, positions: &[usize], out: &mut Vec<Val>) {
        out.clear();
        out.resize(self.rows * positions.len(), 0);
        if positions.is_empty() {
            return;
        }
        for (j, &p) in positions.iter().enumerate() {
            for (row, &v) in out.chunks_exact_mut(positions.len()).zip(&self.cols[p]) {
                row[j] = v;
            }
        }
    }

    /// Writes the full row `r` into `buf` (cleared first).
    #[inline]
    pub fn row_into(&self, r: usize, buf: &mut Vec<Val>) {
        buf.clear();
        buf.extend(self.cols[..self.width].iter().map(|col| col[r]));
    }

    /// Batch key hashing: fills `hashes` with `hash_vals` of every row's
    /// projection onto `positions`, without materializing any row. Each
    /// position folds its entire contiguous column into the running
    /// hashes ([`cqap_common::hash_fold_column`]'s 8-wide `chunks_exact`
    /// loop), so the per-row gather-then-hash of the scalar path becomes
    /// `positions.len()` sequential column sweeps the compiler can
    /// vectorize.
    pub fn hash_rows_into(&self, positions: &[usize], hashes: &mut Vec<u64>) {
        hashes.clear();
        hashes.resize(self.rows, 0);
        for &p in positions {
            hash_fold_column(hashes, &self.cols[p]);
        }
    }
}

/// A hash-grouping memo over variable-width value-slice keys, keyed by a
/// **caller-supplied 64-bit hash** plus a slice check.
///
/// This is the probe memo of the plan executor: a hot loop
/// projects a key into a reused buffer, hashes it once with
/// [`cqap_common::hash_vals`], and then uses that hash for both lookup
/// and insertion — a map keyed by the slice (or by a key `Tuple`) would
/// re-hash it on every operation. Key bytes are copied into one pooled
/// buffer; collisions chain through an index list, so the memo performs
/// no per-key allocation once warm.
#[derive(Debug, Default)]
pub struct KeyMemo<P> {
    /// hash → index of the first entry in the chain.
    heads: FxHashMap<u64, u32>,
    entries: Vec<MemoEntry<P>>,
    /// Pooled key values; entries address slices of it.
    keys: Vec<Val>,
}

#[derive(Debug)]
struct MemoEntry<P> {
    start: u32,
    len: u32,
    /// Next entry with the same hash, or `u32::MAX`.
    next: u32,
    payload: P,
}

impl<P> KeyMemo<P> {
    /// Empties the memo, retaining capacity.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.entries.clear();
        self.keys.clear();
    }

    #[inline]
    fn key_of(&self, e: &MemoEntry<P>) -> &[Val] {
        &self.keys[e.start as usize..(e.start + e.len) as usize]
    }

    #[inline]
    fn find(&self, hash: u64, key: &[Val]) -> Option<u32> {
        let mut at = *self.heads.get(&hash)?;
        loop {
            let e = &self.entries[at as usize];
            if self.key_of(e) == key {
                return Some(at);
            }
            if e.next == u32::MAX {
                return None;
            }
            at = e.next;
        }
    }

    /// The payload stored under `key`, if present. `hash` must be
    /// `hash_vals(key)`.
    #[inline]
    pub(crate) fn get(&self, hash: u64, key: &[Val]) -> Option<&P> {
        self.find(hash, key)
            .map(|at| &self.entries[at as usize].payload)
    }

    /// Mutable access to the payload stored under `key`, if present.
    #[inline]
    pub(crate) fn get_mut(&mut self, hash: u64, key: &[Val]) -> Option<&mut P> {
        self.find(hash, key)
            .map(|at| &mut self.entries[at as usize].payload)
    }

    /// Inserts `payload` under `key`, which must not be present yet (the
    /// memo usage pattern is get-miss-then-insert).
    pub(crate) fn insert(&mut self, hash: u64, key: &[Val], payload: P) {
        debug_assert!(self.find(hash, key).is_none(), "key inserted twice");
        let start = self.keys.len() as u32;
        self.keys.extend_from_slice(key);
        let idx = self.entries.len() as u32;
        let next = self.heads.insert(hash, idx).unwrap_or(u32::MAX);
        self.entries.push(MemoEntry {
            start,
            len: key.len() as u32,
            next,
            payload,
        });
    }
}

impl KeyMemo<()> {
    /// Set semantics: inserts `key` and reports whether it was new.
    #[inline]
    pub fn insert_if_absent(&mut self, hash: u64, key: &[Val]) -> bool {
        if self.find(hash, key).is_some() {
            false
        } else {
            self.insert(hash, key, ());
            true
        }
    }
}

/// Reusable per-worker scratch of the plan executor
/// ([`CompiledPlan::answer_from_columns`]). All buffers retain capacity
/// across requests, so a warm worker executes a plan without allocating;
/// one scratch per serving worker (the drivers keep it in a thread-local,
/// so every pool thread owns exactly one arena).
#[derive(Debug, Default)]
pub struct ColumnarScratch {
    /// The two ping-pong accumulators.
    acc: ColumnRun,
    next: ColumnRun,
    /// Pooled columnar probe results; `ranges` addresses row ranges of it.
    pool: ColumnRun,
    /// Probe memo: key hash → `(start, end)` row range in `pool`.
    ranges: KeyMemo<(u32, u32)>,
    /// Semijoin probe memo: key hash → hit.
    semi: KeyMemo<bool>,
    /// Per-step dedup set over projected rows.
    dedup: KeyMemo<()>,
    /// Hash-join build memo: key hash → head row of the chain.
    build: KeyMemo<u32>,
    /// Hash-join row chains (`build_next[r]` = next row with `r`'s key).
    build_next: Vec<u32>,
    /// Batch key-hash buffer (`hashes[r]` = hash of row `r`'s key).
    hashes: Vec<u64>,
    /// Reused key-projection buffer.
    key_vals: Vec<Val>,
    /// Reused full-row buffer.
    row_buf: Vec<Val>,
    /// Selected row indices (filter kernels).
    sel: Vec<u32>,
    /// `(left row, right row)` pair list (join kernels).
    pairs: Vec<(u32, u32)>,
    /// Recycled runs for owned T-view slots.
    run_pool: Vec<ColumnRun>,
}

impl ColumnarScratch {
    /// A fresh scratch arena (all buffers empty).
    pub fn new() -> Self {
        ColumnarScratch::default()
    }

    fn take_run(&mut self) -> ColumnRun {
        self.run_pool.pop().unwrap_or_default()
    }

    fn recycle_run(&mut self, run: ColumnRun) {
        self.run_pool.push(run);
    }

    fn recycle_slot(&mut self, slot: ColSlot<'_>) {
        if let ColSlot::Owned(run) = slot {
            self.run_pool.push(run);
        }
    }
}

/// A T-view's columns during columnar plan execution.
enum ColSlot<'a> {
    Empty,
    Borrowed(&'a ColumnRun),
    Owned(ColumnRun),
}

impl ColSlot<'_> {
    fn run(&self) -> &ColumnRun {
        match self {
            // Validation guarantees every slot a step reads is filled.
            ColSlot::Empty => unreachable!("validated T-view present"),
            ColSlot::Borrowed(run) => run,
            ColSlot::Owned(run) => run,
        }
    }
}

impl CompiledPlan {
    /// Executes the plan column-at-a-time, with every schema lookup and
    /// traversal decision pre-resolved and all intermediate state in
    /// `scratch`'s flat column runs (see the module docs). The caller
    /// holds the T-views as column runs in the **compile-time column
    /// order** — the compiled drivers produce their T-view programs' output
    /// directly as columns, so no row form ever exists (and hand over an
    /// iterator, so no per-request collection exists either). Every
    /// non-materialized node takes one run, access-free bags included;
    /// widths are validated against the compiled schemas.
    ///
    /// # Errors
    /// Fails on a request over another access pattern, a backend whose
    /// views differ from the compiled ones, a run for a materialized node,
    /// a run of the wrong width or a missing run; plus whatever
    /// storage-level errors the backend's probes surface.
    pub fn answer_from_columns<'a, V: SViewProbe>(
        &self,
        views: &V,
        t_cols: impl IntoIterator<Item = (usize, &'a ColumnRun)>,
        request: &AccessRequest,
        scratch: &mut ColumnarScratch,
    ) -> Result<Relation> {
        self.check_access(request)?;
        self.check_backend(views)?;
        let mut slots: Vec<ColSlot> = (0..self.num_nodes).map(|_| ColSlot::Empty).collect();
        for (node, run) in t_cols {
            if node >= self.num_nodes || self.materialized[node] {
                return Err(CqapError::InvalidPmtd(format!(
                    "node {node} does not take per-request T-view columns"
                )));
            }
            let expected = self.t_schema[node].as_ref().expect("validated at compile");
            if run.width() != expected.arity() {
                return Err(CqapError::SchemaMismatch {
                    expected: format!("{expected}"),
                    found: format!("column run of width {}", run.width()),
                });
            }
            slots[node] = ColSlot::Borrowed(run);
        }
        if let Some(t) = (0..self.num_nodes)
            .find(|&t| !self.materialized[t] && matches!(slots[t], ColSlot::Empty))
        {
            return Err(CqapError::InvalidPmtd(format!("missing T-view for node {t}")));
        }
        let result = self.run_columnar(views, request, &mut slots, scratch);
        for slot in slots {
            scratch.recycle_slot(slot);
        }
        result
    }

    fn run_columnar<V: SViewProbe>(
        &self,
        views: &V,
        request: &AccessRequest,
        slots: &mut [ColSlot<'_>],
        scratch: &mut ColumnarScratch,
    ) -> Result<Relation> {
        // Bottom-up semijoin-reduce over column runs: each filter gathers
        // the surviving rows column-at-a-time.
        for step in &self.bottom_up {
            match step {
                BottomUpStep::ProbeSemi {
                    child,
                    parent,
                    key_positions,
                } => {
                    scratch.semi.clear();
                    scratch.sel.clear();
                    let src = std::mem::replace(&mut slots[*parent], ColSlot::Empty);
                    {
                        let cr = src.run();
                        cr.hash_rows_into(key_positions, &mut scratch.hashes);
                        for r in 0..cr.rows() {
                            cr.project_row_into(r, key_positions, &mut scratch.key_vals);
                            let hash = scratch.hashes[r];
                            let hit = match scratch.semi.get(hash, &scratch.key_vals) {
                                Some(&hit) => hit,
                                None => {
                                    let key = Tuple::from_slice(&scratch.key_vals);
                                    let hit = views.contains(*child, &key)?;
                                    work::add(1, 0);
                                    scratch.semi.insert(hash, &scratch.key_vals, hit);
                                    hit
                                }
                            };
                            if hit {
                                scratch.sel.push(r as u32);
                            }
                        }
                    }
                    let filtered = gather_selected(scratch, &src);
                    scratch.recycle_slot(src);
                    slots[*parent] = ColSlot::Owned(filtered);
                }
                BottomUpStep::HashSemi {
                    child,
                    parent,
                    child_key,
                    parent_key,
                } => {
                    scratch.dedup.clear();
                    {
                        let cr = slots[*child].run();
                        cr.hash_rows_into(child_key, &mut scratch.hashes);
                        for r in 0..cr.rows() {
                            cr.project_row_into(r, child_key, &mut scratch.key_vals);
                            let hash = scratch.hashes[r];
                            scratch.dedup.insert_if_absent(hash, &scratch.key_vals);
                        }
                    }
                    scratch.sel.clear();
                    let src = std::mem::replace(&mut slots[*parent], ColSlot::Empty);
                    {
                        let cr = src.run();
                        cr.hash_rows_into(parent_key, &mut scratch.hashes);
                        for r in 0..cr.rows() {
                            cr.project_row_into(r, parent_key, &mut scratch.key_vals);
                            let hash = scratch.hashes[r];
                            if scratch.dedup.get(hash, &scratch.key_vals).is_some() {
                                scratch.sel.push(r as u32);
                            }
                        }
                    }
                    let filtered = gather_selected(scratch, &src);
                    scratch.recycle_slot(src);
                    slots[*parent] = ColSlot::Owned(filtered);
                }
                BottomUpStep::ProjectChild { node, project } => {
                    scratch.dedup.clear();
                    let src = std::mem::replace(&mut slots[*node], ColSlot::Empty);
                    let mut projected = scratch.take_run();
                    projected.reset(project.positions.len());
                    {
                        let cr = src.run();
                        cr.hash_rows_into(&project.positions, &mut scratch.hashes);
                        for r in 0..cr.rows() {
                            cr.project_row_into(r, &project.positions, &mut scratch.row_buf);
                            let hash = scratch.hashes[r];
                            if scratch.dedup.insert_if_absent(hash, &scratch.row_buf) {
                                projected.push_row(&scratch.row_buf);
                            }
                        }
                    }
                    scratch.recycle_slot(src);
                    slots[*node] = ColSlot::Owned(projected);
                }
            }
        }

        // Seed the accumulator with the (deduplicated) request bindings:
        // the request's tuples are scanned once.
        work::add(0, request.len() as u64);
        let mut acc = std::mem::take(&mut scratch.acc);
        let mut next = std::mem::take(&mut scratch.next);
        acc.reset(self.access.len());
        next.reset(0);
        if self.access.is_empty() {
            if !request.is_empty() {
                acc.push_row(&[]);
            }
        } else if request.len() <= 1 {
            for t in request.tuples() {
                acc.push_row(t.as_slice());
            }
        } else {
            scratch.dedup.clear();
            for t in request.tuples() {
                let hash = hash_vals(t.as_slice());
                if scratch.dedup.insert_if_absent(hash, t.as_slice()) {
                    acc.push_row(t.as_slice());
                }
            }
        }

        // Root reduction.
        match &self.root {
            RootStep::Probe { node, join } => {
                self.exec_probe_join_columnar(views, *node, join, &acc, &mut next, scratch)?;
                std::mem::swap(&mut acc, &mut next);
            }
            RootStep::Join {
                node,
                project,
                join,
            } => {
                scratch.dedup.clear();
                let src = std::mem::replace(&mut slots[*node], ColSlot::Empty);
                let mut reduced = scratch.take_run();
                reduced.reset(project.positions.len());
                {
                    let cr = src.run();
                    cr.hash_rows_into(&project.positions, &mut scratch.hashes);
                    for r in 0..cr.rows() {
                        cr.project_row_into(r, &project.positions, &mut scratch.row_buf);
                        let hash = scratch.hashes[r];
                        if scratch.dedup.insert_if_absent(hash, &scratch.row_buf) {
                            reduced.push_row(&scratch.row_buf);
                        }
                    }
                }
                scratch.recycle_slot(src);
                exec_hash_join_columnar(join, &acc, &reduced, &mut next, scratch);
                scratch.recycle_run(reduced);
                std::mem::swap(&mut acc, &mut next);
            }
        }

        // Top-down joins over the kept nodes.
        for step in &self.top_down {
            match step {
                TopDownStep::Probe { node, join } => {
                    self.exec_probe_join_columnar(views, *node, join, &acc, &mut next, scratch)?;
                }
                TopDownStep::Join { node, join } => {
                    let src = std::mem::replace(&mut slots[*node], ColSlot::Empty);
                    exec_hash_join_columnar(join, &acc, src.run(), &mut next, scratch);
                    slots[*node] = src;
                }
            }
            std::mem::swap(&mut acc, &mut next);
        }

        // Materialize the answer: the only place a row becomes a Tuple.
        // Every path above preserves distinctness, so the builder never
        // touches the dedup machinery.
        let out = match &self.final_project {
            None => {
                let mut builder =
                    RelationBuilder::distinct("Q_ans", self.output_schema().clone());
                for r in 0..acc.rows() {
                    acc.row_into(r, &mut scratch.row_buf);
                    builder.push_row(&scratch.row_buf);
                }
                builder.finish()
            }
            Some(project) => {
                scratch.dedup.clear();
                let mut builder = RelationBuilder::distinct("Q_ans", project.schema.clone());
                acc.hash_rows_into(&project.positions, &mut scratch.hashes);
                for r in 0..acc.rows() {
                    acc.project_row_into(r, &project.positions, &mut scratch.row_buf);
                    let hash = scratch.hashes[r];
                    if scratch.dedup.insert_if_absent(hash, &scratch.row_buf) {
                        builder.push_row(&scratch.row_buf);
                    }
                }
                builder.finish()
            }
        };
        scratch.acc = acc;
        scratch.next = next;
        Ok(out)
    }

    /// `acc_out = acc_in ⋈ view(node)` by probing the backend on the link
    /// variables: keys are gathered and hashed once per row, each distinct
    /// key probes the backend a single time (results pooled column-wise in
    /// `scratch.pool`), and the output is emitted by bulk column copies
    /// over the matched `(row, pool row)` pairs.
    fn exec_probe_join_columnar<V: SViewProbe>(
        &self,
        views: &V,
        node: usize,
        join: &ProbeJoin,
        acc_in: &ColumnRun,
        acc_out: &mut ColumnRun,
        scratch: &mut ColumnarScratch,
    ) -> Result<()> {
        scratch.ranges.clear();
        scratch.pool.reset(join.rel_arity);
        scratch.pairs.clear();
        acc_in.hash_rows_into(&join.key_positions, &mut scratch.hashes);
        for l in 0..acc_in.rows() {
            acc_in.project_row_into(l, &join.key_positions, &mut scratch.key_vals);
            let hash = scratch.hashes[l];
            let (start, end) = match scratch.ranges.get(hash, &scratch.key_vals) {
                Some(&range) => range,
                None => {
                    let key = Tuple::from_slice(&scratch.key_vals);
                    let start = scratch.pool.rows() as u32;
                    views.probe_columns(node, &key, &mut scratch.pool)?;
                    let end = scratch.pool.rows() as u32;
                    work::add(1, u64::from(end - start));
                    scratch.ranges.insert(hash, &scratch.key_vals, (start, end));
                    (start, end)
                }
            };
            if join.left_extra.is_empty() {
                for p in start..end {
                    scratch.pairs.push((l as u32, p));
                }
            } else {
                'matches: for p in start..end {
                    for (&a, &b) in join.left_extra.iter().zip(&join.rel_extra) {
                        if acc_in.col(a)[l] != scratch.pool.col(b)[p as usize] {
                            continue 'matches;
                        }
                    }
                    scratch.pairs.push((l as u32, p));
                }
            }
        }
        acc_out.reset(acc_in.width() + join.appended.len());
        acc_out.emit_join(acc_in, &scratch.pool, &join.appended, &scratch.pairs);
        Ok(())
    }
}

/// Gathers `scratch.sel` rows of `src` into a pooled run (the shared tail
/// of every columnar filter kernel).
fn gather_selected(scratch: &mut ColumnarScratch, src: &ColSlot<'_>) -> ColumnRun {
    let mut filtered = scratch.take_run();
    let cr = src.run();
    filtered.reset(cr.width());
    filtered.gather(cr, &scratch.sel);
    filtered
}

/// `acc_out = acc_in ⋈ build` on all shared variables: the build side's
/// rows are chained into per-key groups through the hash-cached memo (no
/// per-bucket vector is ever allocated), then the accumulator probes the
/// chains and the output is emitted by bulk column copies.
fn exec_hash_join_columnar(
    join: &HashJoin,
    acc_in: &ColumnRun,
    build: &ColumnRun,
    acc_out: &mut ColumnRun,
    scratch: &mut ColumnarScratch,
) {
    scratch.build.clear();
    scratch.build_next.clear();
    scratch.build_next.resize(build.rows(), u32::MAX);
    build.hash_rows_into(&join.build_key, &mut scratch.hashes);
    for r in 0..build.rows() {
        build.project_row_into(r, &join.build_key, &mut scratch.key_vals);
        let hash = scratch.hashes[r];
        match scratch.build.get_mut(hash, &scratch.key_vals) {
            Some(head) => {
                scratch.build_next[r] = *head;
                *head = r as u32;
            }
            None => scratch.build.insert(hash, &scratch.key_vals, r as u32),
        }
    }
    scratch.pairs.clear();
    acc_in.hash_rows_into(&join.probe_key, &mut scratch.hashes);
    for l in 0..acc_in.rows() {
        acc_in.project_row_into(l, &join.probe_key, &mut scratch.key_vals);
        let hash = scratch.hashes[l];
        if let Some(&head) = scratch.build.get(hash, &scratch.key_vals) {
            let mut r = head;
            while r != u32::MAX {
                scratch.pairs.push((l as u32, r));
                r = scratch.build_next[r as usize];
            }
        }
    }
    acc_out.reset(acc_in.width() + join.appended.len());
    acc_out.emit_join(acc_in, build, &join.appended, &scratch.pairs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_run_basics() {
        let mut run = ColumnRun::new();
        run.reset(3);
        run.push_row(&[1, 2, 3]);
        run.push_row(&[4, 5, 6]);
        assert_eq!(run.rows(), 2);
        assert_eq!(run.col(1), &[2, 5]);

        let mut buf = Vec::new();
        run.project_row_into(1, &[2, 0], &mut buf);
        assert_eq!(buf, vec![6, 4]);
        run.row_into(0, &mut buf);
        assert_eq!(buf, vec![1, 2, 3]);

        // Reset to a narrower width keeps capacity but clears content.
        run.reset(1);
        assert!(run.is_empty());
        assert_eq!(run.width(), 1);
        run.extend_from_tuples(&[Tuple::unary(9), Tuple::unary(8)]);
        assert_eq!(run.col(0), &[9, 8]);
    }

    #[test]
    fn column_run_gather_and_emit() {
        let mut src = ColumnRun::new();
        src.reset(2);
        for i in 0..5u64 {
            src.push_row(&[i, 10 * i]);
        }
        let mut out = ColumnRun::new();
        out.reset(2);
        out.gather(&src, &[4, 0, 2]);
        assert_eq!(out.col(0), &[4, 0, 2]);
        assert_eq!(out.col(1), &[40, 0, 20]);

        let mut right = ColumnRun::new();
        right.reset(3);
        right.push_row(&[7, 8, 9]);
        right.push_row(&[17, 18, 19]);
        let mut joined = ColumnRun::new();
        joined.reset(2 + 1);
        joined.emit_join(&out, &right, &[2], &[(0, 1), (2, 0)]);
        assert_eq!(joined.col(0), &[4, 2]);
        assert_eq!(joined.col(1), &[40, 20]);
        assert_eq!(joined.col(2), &[19, 9]);

        joined.push_join_row(&out, 1, &[100, 200, 300], &[1]);
        assert_eq!(joined.rows(), 3);
        assert_eq!(joined.col(2), &[19, 9, 200]);
    }

    #[test]
    fn column_run_append_columns() {
        let mut run = ColumnRun::new();
        run.reset(2);
        run.push_row(&[1, 2]);
        run.append_columns(2, |j, col| {
            col.push(10 + j as u64);
            col.push(20 + j as u64);
        });
        assert_eq!(run.rows(), 3);
        assert_eq!(run.col(0), &[1, 10, 20]);
        assert_eq!(run.col(1), &[2, 11, 21]);
    }

    #[test]
    fn batch_row_hashing_matches_scalar() {
        // hash_rows_into must agree with hash_vals over the gathered row
        // for every row — including past the 8-wide chunk boundary and
        // for permuted / repeated projections.
        let mut run = ColumnRun::new();
        run.reset(3);
        for i in 0..37u64 {
            run.push_row(&[i, i.wrapping_mul(0x9e37_79b9), 1000 - i]);
        }
        let mut hashes = Vec::new();
        let mut key = Vec::new();
        for positions in [&[0usize][..], &[2, 0], &[1, 1, 2], &[]] {
            run.hash_rows_into(positions, &mut hashes);
            assert_eq!(hashes.len(), run.rows());
            for r in 0..run.rows() {
                run.project_row_into(r, positions, &mut key);
                assert_eq!(hashes[r], hash_vals(&key), "row {r} at {positions:?}");
            }
        }
    }

    #[test]
    fn batch_hashes_of_view_projections_are_hash_vals_of_their_rows() {
        // The identity a counted view's batch edit relies on: a chain
        // morsel hashed column by column onto a view's positions gives
        // `hash_vals` of exactly the row `project_rows_into` lays down —
        // for chain schemas in any variable order (so a view's positions,
        // taken in its ascending variable order, are not ascending) and
        // every view of arity 0 to 4.
        use cqap_relation::Schema;
        let mut non_ascending = 0;
        for order in [[2, 3, 1, 4], [4, 1, 3, 2], [1, 2, 3, 4], [3, 4, 2, 1]] {
            let schema = Schema::of(order);
            let mut run = ColumnRun::new();
            run.reset(schema.arity());
            for i in 0..21u64 {
                run.push_row(&[i, i.wrapping_mul(0x9e37_79b9), 1000 - i, i % 3]);
            }
            let (mut hashes, mut rows, mut key) = (Vec::new(), Vec::new(), Vec::new());
            for view in schema.varset().subsets() {
                let positions = schema.positions_of_set(view).unwrap();
                assert_eq!(positions.len(), view.len());
                non_ascending += usize::from(positions.windows(2).any(|w| w[0] > w[1]));
                run.hash_rows_into(&positions, &mut hashes);
                run.project_rows_into(&positions, &mut rows);
                assert_eq!(hashes.len(), run.rows());
                assert_eq!(rows.len(), run.rows() * positions.len());
                for r in 0..run.rows() {
                    run.project_row_into(r, &positions, &mut key);
                    let laid = &rows[r * key.len()..(r + 1) * key.len()];
                    assert_eq!(laid, &key[..], "row {r} of {view:?} over {order:?}");
                    assert_eq!(hashes[r], hash_vals(laid), "row {r} of {view:?} over {order:?}");
                }
            }
        }
        assert!(non_ascending > 0);
    }

    #[test]
    fn key_memo_collision_chains() {
        let mut memo: KeyMemo<u32> = KeyMemo::default();
        // Force two distinct keys onto one hash: the chain must keep them
        // apart via the slice check.
        let h = 42;
        memo.insert(h, &[1, 2], 10);
        memo.insert(h, &[3, 4], 20);
        assert_eq!(memo.get(h, &[1, 2]), Some(&10));
        assert_eq!(memo.get(h, &[3, 4]), Some(&20));
        assert_eq!(memo.get(h, &[5, 6]), None);
        *memo.get_mut(h, &[1, 2]).unwrap() = 11;
        assert_eq!(memo.get(h, &[1, 2]), Some(&11));
        memo.clear();
        assert_eq!(memo.get(h, &[1, 2]), None);
    }

    #[test]
    fn key_memo_set_semantics() {
        let mut memo: KeyMemo<()> = KeyMemo::default();
        let key = [7u64, 9];
        let h = hash_vals(&key);
        assert!(memo.insert_if_absent(h, &key));
        assert!(!memo.insert_if_absent(h, &key));
        assert!(memo.insert_if_absent(hash_vals(&[7, 10]), &[7, 10]));
    }
}
