//! The on-disk S-view format: sorted runs of `(key, tuple-block)` records
//! with a sparse in-memory fence index, compressed per segment.
//!
//! One file holds one materialized view. Tuples are grouped by their
//! projection onto the view's *link* variables (the key Online Yannakakis
//! probes by), the groups are sorted by key, and each group is written as
//! one record. Since v2 the body is compressed at segment granularity
//! while the header stays plain little-endian `u64`s, so the format still
//! needs no serialization dependency:
//!
//! ```text
//! header:   MAGIC  arity  var[0..arity]  link-varset  records  tuples   (LE u64)
//! segment:  up to FENCE_STRIDE records; fences point at segment starts
//!   record 0:    key[i]  as plain LEB128 varints (absolute = the fence key)
//!                count   as varint
//!                block   non-link columns only, column-major:
//!                        `count` varint values per column
//!   record 1..:  key[i]  as zigzag varint deltas against record 0's key[i]
//!                count + block as above
//! ```
//!
//! Three compression levers stack: within a segment, sorted keys become
//! tiny zigzag deltas against the segment head (which the fence already
//! holds resident); every stored word is LEB128 varint-packed instead of
//! a fixed 8 bytes; and the link columns of a block are not stored at all
//! — every tuple in a record projects to the record's key, so those
//! columns are reconstructed from the key at decode time. Decoding is
//! **strict**: truncated and overlong (non-canonical) varints, a bad
//! version byte, unsorted keys or trailing bytes all surface as `Err`
//! from [`StoredView::open`] — which is also the compaction validator, so
//! a torn rewrite can never replace a valid run.
//!
//! Writing a run (a spill, or the overlay side of a compaction) first puts
//! row positions in *run order* — link key, then the rest of the row — by
//! a stable LSD radix sort: one counting pass per byte that some row
//! varies in, column by column from the last, over a column gathered once
//! into a flat buffer (two passes per column of ids below 2¹⁶; a few words
//! per row of scratch, freed before encoding). Rows are distinct, so run
//! order is total and the file is the one any correct sort would write.
//!
//! At open time the file is scanned (and fully validated) once. The scan
//! keeps two pieces of resident state, neither of which is ever written
//! to disk (the run format, its size and `S` do not depend on them):
//!
//! * the *fence index*: every `FENCE_STRIDE`-th record's first key and
//!   byte offset, flat — one `Vec<Val>` of keys and one `Vec<u64>` of
//!   offsets, `(key arity + 1) × 8` bytes per fence, so ≈ 1.5 bytes per
//!   record at key arity 2;
//! * the *key filter*: a split-block Bloom filter over every record key
//!   (`KeyFilter`: 256-bit blocks, 8 bits set per key, ≈ 10 bits ≈
//!   1.25 bytes per record), ≈ 1.3 % false positives.
//!
//! A probe first asks the filter: a key it rules out — most keys an
//! access request asks for are absent — is answered "no record" with no
//! fence search and no I/O. Otherwise the probe binary-searches the
//! fences for the segment that could hold the key, performs **one
//! contiguous file read** of that segment (at most `FENCE_STRIDE`
//! records, a few hundred bytes), and walks the buffer until the key is
//! found or passed. Blocks decode straight into [`ColumnRun`] columns —
//! the stored columns are already column-major on disk and the link
//! columns splat from the key, so no intermediate row or `Tuple` ever
//! exists on the columnar path. Probes take `&self` and are safe from many
//! threads at once (positioned reads on Unix; a seek lock elsewhere),
//! which is what lets a disk-resident view sit behind the same `Sync`
//! serving surface as the in-memory indexes.
//!
//! Deltas never touch the run: view rows that enter or leave land in an
//! in-memory overlay of two [`KeyedRows`] (inserts by link key, tombstones
//! by row) that probes merge in — skipped, unhashed, while empty, and
//! whatever the key filter says of the run — until [`StoredView::compact`]
//! folds it in by one linear merge; the open that validates the new run
//! fills its filter.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use cqap_common::hash::hash_vals;
use cqap_common::{varint, CqapError, Result, Tuple, Val, VarSet};
use cqap_obs::{CounterId, MetricsSink, StageId, TraceStage};
use cqap_relation::{KeyedRows, Relation, Schema};
use cqap_yannakakis::ColumnRun;

thread_local! {
    /// Per-worker probe scratch: the segment read buffer plus the decode
    /// vectors (current key, segment-head key, block values, row
    /// assembly). Probes resize them in place, so a warm serving worker
    /// reads and decompresses cold-tier segments without allocating.
    static SEGMENT_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    /// Raw segment bytes, straight off the file.
    buf: Vec<u8>,
    /// The current record's decoded key.
    key: Vec<Val>,
    /// The segment head's key (delta base for records 1..).
    head: Vec<Val>,
    /// Decoded block values, column-major (stored columns only).
    block: Vec<Val>,
    /// One row being assembled for a tombstone check.
    row: Vec<Val>,
    /// Block rows that survive the overlay's tombstones (filled only
    /// while tombstones are pending).
    live: Vec<usize>,
}

/// `b"CQAPSVW2"` — the format tag checked at open. Version 1 (plain
/// little-endian `u64` records) is no longer readable; its magic is
/// rejected like any other.
const MAGIC: u64 = u64::from_le_bytes(*b"CQAPSVW2");

/// Records per fence segment: a probe reads at most this many records in
/// its one contiguous segment read, and key deltas never reach across a
/// segment boundary.
const FENCE_STRIDE: usize = 16;

fn io_err(path: &Path, action: &str, error: std::io::Error) -> CqapError {
    CqapError::Other(format!(
        "stored view {}: {action}: {error}",
        path.display()
    ))
}

fn corrupt(path: &Path, what: &str) -> CqapError {
    CqapError::Other(format!(
        "stored view {} is corrupt: {what}",
        path.display()
    ))
}

/// A positioned-read handle that can be shared across threads.
struct RandomAccess {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl RandomAccess {
    fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            RandomAccess { file }
        }
        #[cfg(not(unix))]
        {
            RandomAccess {
                file: std::sync::Mutex::new(file),
            }
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = self.file.lock().expect("file lock");
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }
}

/// Filter bits per stored record: with 8 bits set per key this keeps the
/// false-positive rate near 1.3 % (measured; the unit tests bound it by
/// 3 %).
const FILTER_BITS_PER_RECORD: usize = 10;

/// The odd multipliers that pick a key's bit in each word of its block
/// (the split-block Bloom filter's salts, as in Apache Parquet).
const FILTER_SALT: [u32; 8] = [
    0x47b6_137b, 0x4497_4d91, 0x8824_ad5b, 0xa2b7_289d,
    0x7054_95c7, 0x2df1_424b, 0x9efc_4947, 0x5c6b_fb31,
];

/// One filter block: eight 32-bit words, aligned so a lookup touches one
/// cache line.
#[derive(Clone, Copy, Default)]
#[repr(align(32))]
struct FilterBlock([u32; 8]);

/// The per-run key filter: a split-block Bloom filter (a blocked filter
/// after Putze, Sanders & Singler, "Cache-, Hash- and Space-Efficient
/// Bloom Filters", 2007) over the run's record keys. A key's hash picks
/// one 256-bit block and sets one bit in each of its eight words, so an
/// insert or a lookup is one cache line and eight shifts. It never
/// answers "absent" for a stored key; an absent key passes with
/// ≈ 1.3 % probability at [`FILTER_BITS_PER_RECORD`] bits per record.
struct KeyFilter {
    blocks: Vec<FilterBlock>,
}

impl KeyFilter {
    /// An empty filter sized for `records` keys.
    fn with_capacity(records: usize) -> Self {
        let blocks = (records * FILTER_BITS_PER_RECORD).div_ceil(256);
        KeyFilter {
            blocks: vec![FilterBlock::default(); blocks],
        }
    }

    /// The block of `hash` (its high half, scaled to the block count) and
    /// the bit each of the block's words must hold (from its low half).
    fn locate(&self, hash: u64) -> (usize, [u32; 8]) {
        let block = ((hash >> 32) * self.blocks.len() as u64) >> 32;
        let low = hash as u32;
        (block as usize, FILTER_SALT.map(|salt| 1 << (low.wrapping_mul(salt) >> 27)))
    }

    fn insert(&mut self, hash: u64) {
        let (block, bits) = self.locate(hash);
        let words = &mut self.blocks[block].0;
        for (word, bit) in words.iter_mut().zip(bits) {
            *word |= bit;
        }
    }

    /// `false` only if no key with this hash was inserted.
    fn may_contain(&self, hash: u64) -> bool {
        let (block, bits) = self.locate(hash);
        self.blocks
            .get(block)
            .is_some_and(|b| b.0.iter().zip(bits).all(|(&word, bit)| word & bit != 0))
    }

    fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<FilterBlock>()
    }
}

/// A record key's filter hash: the word-by-word Fx fold, finished by the
/// murmur3 mixer so that both halves depend on every key bit.
fn key_hash(key: &[Val]) -> u64 {
    let mut h = hash_vals(key);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Where a decoded column's values come from: link columns are implied by
/// the record key, the rest are stored on disk.
#[derive(Clone, Copy)]
enum ColSource {
    /// Column equals component `i` of the record's key.
    Key(usize),
    /// Column is stored column `c` of the on-disk block.
    Stored(usize),
}

/// Per-view column layout derived from the schema and link variables:
/// which schema positions form the key (in key order), which are stored
/// in blocks (ascending), and the per-column source map used at decode.
struct ColLayout {
    key_positions: Vec<usize>,
    stored_positions: Vec<usize>,
    sources: Vec<ColSource>,
}

impl ColLayout {
    fn new(schema: &Schema, link: VarSet) -> Result<Self> {
        let key_positions = schema.positions_of_set(link)?;
        let arity = schema.arity();
        let mut sources = vec![ColSource::Stored(0); arity];
        let mut is_key = vec![false; arity];
        for (i, &p) in key_positions.iter().enumerate() {
            sources[p] = ColSource::Key(i);
            is_key[p] = true;
        }
        let mut stored_positions = Vec::with_capacity(arity - key_positions.len());
        for (p, src) in sources.iter_mut().enumerate() {
            if !is_key[p] {
                *src = ColSource::Stored(stored_positions.len());
                stored_positions.push(p);
            }
        }
        Ok(ColLayout {
            key_positions,
            stored_positions,
            sources,
        })
    }

    fn stored_arity(&self) -> usize {
        self.stored_positions.len()
    }

    /// `row`'s link key, in key order.
    fn key_of<'r>(&'r self, row: &'r [Val]) -> impl Iterator<Item = Val> + 'r {
        self.key_positions.iter().map(move |&p| row[p])
    }

    /// `row`'s stored (non-link) columns: within a record they alone order
    /// the rows.
    fn rest_of<'r>(&'r self, row: &'r [Val]) -> impl Iterator<Item = Val> + 'r {
        self.stored_positions.iter().map(move |&p| row[p])
    }

    /// Assembles row `r` of a decoded `count`-row block into `row`
    /// (cleared first): link columns come from the record key, the rest
    /// from the column-major block.
    fn row_into(&self, key: &[Val], block: &[Val], count: usize, r: usize, row: &mut Vec<Val>) {
        row.clear();
        row.extend(self.sources.iter().map(|src| match *src {
            ColSource::Key(i) => key[i],
            ColSource::Stored(c) => block[c * count + r],
        }));
    }
}

/// The delta overlay of one stored view: the rows that entered since the
/// run was written (`added`, keyed by the link) and the base rows that
/// left (`deleted`, found by the whole row; no key index). A row edit nets
/// itself: a leave cancels an insert or adds a tombstone, an enter revokes
/// a tombstone or adds an insert. Fed the view's own moves, `added ∩ base
/// = ∅` and `deleted ⊆ base` hold, and `base − deleted + added` is the view.
struct Overlay {
    added: KeyedRows,
    deleted: KeyedRows,
}

impl Overlay {
    fn new(schema: &Schema, link: VarSet) -> Result<Self> {
        Ok(Overlay {
            added: KeyedRows::new(schema.clone(), link)?,
            deleted: KeyedRows::new(schema.clone(), VarSet::EMPTY)?,
        })
    }

    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.deleted.is_empty()
    }

    /// Buffered delta rows (inserts plus tombstones) — the compaction
    /// trigger's size measure.
    fn len(&self) -> usize {
        self.added.len() + self.deleted.len()
    }

    /// `row`, of the view's arity, entered (`entered`) or left the view.
    fn edit(&mut self, row: &[Val], entered: bool) {
        let (undo, record) = if entered {
            (&mut self.deleted, &mut self.added)
        } else {
            (&mut self.added, &mut self.deleted)
        };
        if !undo.remove(row) {
            record.insert(row).expect("a view row has the view's arity");
        }
    }
}

/// A disk-resident S-view: a compressed sorted run on disk plus the
/// in-memory key filter and fence index. Probing never scans the file — a
/// key the filter rules out costs no I/O at all, and a binary search over
/// the fences narrows any other key to one segment, which is fetched in a
/// single contiguous read and decoded out of per-thread scratch.
pub struct StoredView {
    path: PathBuf,
    file: RandomAccess,
    schema: Schema,
    link: VarSet,
    layout: ColLayout,
    /// Fence `i`'s key — the first key of segment `i`, which doubles as
    /// the segment's delta base — is `fence_keys[i * k..(i + 1) * k]`
    /// for key arity `k`.
    fence_keys: Vec<Val>,
    /// Fence `i`'s byte offset in the file.
    fence_offsets: Vec<u64>,
    filter: KeyFilter,
    num_tuples: usize,
    num_records: usize,
    file_bytes: u64,
    delete_on_drop: bool,
    overlay: Overlay,
    /// Observability seam: segment reads, on-disk vs decoded bytes,
    /// overlay-pending probes, compaction count and duration. Disabled
    /// (free) unless attached via [`StoredView::set_metrics_sink`].
    sink: MetricsSink,
}

/// Validates the freshly written run at `tmp` (magic, counts, every
/// varint, key order — the full [`StoredView::open`] check) before
/// renaming it over `base`, and returns the validated handle re-pointed
/// at `base` (the open file follows the rename), so the caller never
/// decodes the run a second time. A torn or truncated temp file is
/// rejected and — like a temp whose rename fails — removed, leaving the
/// base run untouched, so a crash mid-compaction can never replace a
/// valid run with garbage.
fn validate_and_swap(base: &Path, tmp: &Path) -> Result<StoredView> {
    let swapped = StoredView::open(tmp).and_then(|mut view| {
        std::fs::rename(tmp, base).map_err(|e| io_err(base, "swap compacted run", e))?;
        view.path = base.to_path_buf();
        Ok(view)
    });
    if swapped.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    swapped
}

/// The v2 encoder: records are pushed in strictly ascending key order and
/// come out as the segment-compressed body; [`RunWriter::finish`] puts the
/// header in front and writes the file. Shared by [`write_view`] /
/// [`write_run`] (which sort row positions first) and compaction (which
/// streams an already sorted merge), so all produce the same bytes for
/// the same content.
struct RunWriter<'a> {
    layout: &'a ColLayout,
    body: Vec<u8>,
    /// Key of the current segment's first record: the delta base.
    head: Vec<Val>,
    records: usize,
    tuples: usize,
}

impl<'a> RunWriter<'a> {
    fn new(layout: &'a ColLayout) -> Self {
        RunWriter {
            layout,
            body: Vec::new(),
            head: Vec::new(),
            records: 0,
            tuples: 0,
        }
    }

    /// Opens a record of `count` tuples under `key`.
    fn begin_record(&mut self, key: &[Val], count: usize) {
        if self.records % FENCE_STRIDE == 0 {
            // Segment head: absolute key, the delta base for the rest of
            // the segment (and the fence key the open scan retains).
            self.head.clear();
            self.head.extend_from_slice(key);
            for &v in key {
                varint::encode_u64(v, &mut self.body);
            }
        } else {
            for (&base, &v) in self.head.iter().zip(key) {
                varint::encode_delta(base, v, &mut self.body);
            }
        }
        varint::encode_u64(count as u64, &mut self.body);
        self.records += 1;
        self.tuples += count;
    }

    /// One record of `count` rows, `value(r, p)` being column `p` of its
    /// `r`-th row; the rows must be sorted ascending (files are
    /// deterministic: blocks are sorted too, by value order like the keys)
    /// and all project to `key`.
    fn push_record(&mut self, key: &[Val], count: usize, value: impl Fn(usize, usize) -> Val) {
        self.begin_record(key, count);
        // Column-major, non-link columns only: the link columns of every
        // row in this record equal the key and are not stored.
        for &p in &self.layout.stored_positions {
            for r in 0..count {
                varint::encode_u64(value(r, p), &mut self.body);
            }
        }
    }

    /// The rows `row(at)` for `at` in `order` (see [`run_order`]), one
    /// record per run of equal keys.
    fn push_rows<'r>(&mut self, order: &[u32], row: impl Fn(usize) -> &'r [Val]) {
        let layout = self.layout;
        let key_of = |at: u32| layout.key_of(row(at as usize));
        // Allocated by the first record: most calls in a merge push none.
        let mut key = Vec::new();
        for block in order.chunk_by(|&a, &b| key_of(a).eq(key_of(b))) {
            key.clear();
            key.extend(key_of(block[0]));
            self.push_record(&key, block.len(), |r, p| row(block[r] as usize)[p]);
        }
    }

    /// One record whose block is already encoded (copied out of a
    /// validated run): canonical varints re-encode to themselves, so the
    /// bytes are taken verbatim.
    fn push_encoded(&mut self, key: &[Val], count: usize, block: &[u8]) {
        self.begin_record(key, count);
        self.body.extend_from_slice(block);
    }

    /// Writes header and body to a new file at `path` (truncating any
    /// existing file). A file this call created is removed again if
    /// writing it fails, so a short write never leaves a torn run behind.
    fn finish(self, path: &Path, schema: &Schema, link: VarSet) -> Result<()> {
        let mut header = Vec::with_capacity((5 + schema.arity()) * 8);
        let mut emit = |v: u64| header.extend_from_slice(&v.to_le_bytes());
        emit(MAGIC);
        emit(schema.arity() as u64);
        for &v in schema.vars() {
            emit(v as u64);
        }
        emit(link.0);
        emit(self.records as u64);
        emit(self.tuples as u64);
        let mut file = File::create(path).map_err(|e| io_err(path, "create", e))?;
        let written = file
            .write_all(&header)
            .and_then(|()| file.write_all(&self.body))
            .map_err(|e| io_err(path, "write", e));
        if written.is_err() {
            let _ = std::fs::remove_file(path);
        }
        written
    }
}

/// The positions `0..len` of the rows `row(at)`, sorted by (link key,
/// row) — run order: lexicographic over the key columns, then the rest.
///
/// A stable LSD radix sort: the columns are sorted last to first, each
/// by its bytes low to high, one counting pass per byte. A byte no row
/// varies in (the column's OR and AND agree on it) gets no pass, so a
/// column of ids below 2¹⁶ takes two passes, a full-range `u64` at most
/// eight and a constant column none. Each column is gathered once, in
/// the current order, into a flat key buffer that moves through the
/// column's passes beside the positions, so a pass streams two arrays
/// instead of chasing rows. The scratch beside the result — two keys and
/// a position per row — is freed on return, before any encoding. Rows are
/// distinct and the columns cover the whole row, so run order is a strict
/// total order: the result is the one any correct sort gives, and a run
/// is byte for byte what a comparison sort wrote.
fn run_order<'r>(layout: &ColLayout, len: usize, row: impl Fn(usize) -> &'r [Val]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..len as u32).collect();
    let mut next_order = vec![0u32; len];
    let (mut keys, mut next_keys) = (vec![0 as Val; len], vec![0 as Val; len]);
    for &p in layout.key_positions.iter().chain(&layout.stored_positions).rev() {
        let (mut any, mut all) = (0, Val::MAX);
        for (key, &at) in keys.iter_mut().zip(&order) {
            *key = row(at as usize)[p];
            any |= *key;
            all &= *key;
        }
        let varying = any ^ all;
        for shift in (0..Val::BITS).step_by(8).filter(|&s| (varying >> s) & 0xff != 0) {
            let digit = |key: Val| (key >> shift) as usize & 0xff;
            let mut starts = [0usize; 256];
            for &key in &keys {
                starts[digit(key)] += 1;
            }
            let mut sum = 0;
            for start in &mut starts {
                (*start, sum) = (sum, sum + *start);
            }
            for (&key, &at) in keys.iter().zip(&order) {
                let slot = &mut starts[digit(key)];
                (next_keys[*slot], next_order[*slot]) = (key, at);
                *slot += 1;
            }
            std::mem::swap(&mut keys, &mut next_keys);
            std::mem::swap(&mut order, &mut next_order);
        }
    }
    order
}

/// Serializes the `len` distinct rows `row(0..len)` over `schema`, grouped
/// and sorted by their projection onto `link`, to a new v2 compressed file
/// at `path`. The rows stay where they are: only a vector of their
/// positions is radix-sorted ([`run_order`], whose key buffers are freed
/// before the encoder starts) and each run of equal keys streams into
/// the encoder as one record.
fn write_rows<'a>(
    path: &Path,
    schema: &Schema,
    link: VarSet,
    len: usize,
    row: impl Fn(usize) -> &'a [Val],
) -> Result<()> {
    let layout = ColLayout::new(schema, link)?;
    let order = run_order(&layout, len, &row);
    let mut writer = RunWriter::new(&layout);
    writer.push_rows(&order, row);
    writer.finish(path, schema, link)
}

/// Serializes `rel`, grouped and sorted by its projection onto `link`, to
/// a new v2 compressed file at `path` (truncating any existing file).
///
/// # Errors
/// Fails if `link` is not a subset of the relation's variables, or on I/O
/// errors.
pub fn write_view(path: &Path, rel: &Relation, link: VarSet) -> Result<()> {
    let tuples = rel.tuples();
    write_rows(path, rel.schema(), link, tuples.len(), |at| tuples[at].as_slice())
}

/// Serializes a resident view, grouped and sorted by its own link key, to
/// a new v2 compressed file at `path` (truncating any existing file) —
/// byte for byte what [`write_view`] writes for the same rows and link,
/// streamed straight from the flat row store.
///
/// # Errors
/// Fails on I/O errors.
pub fn write_run(path: &Path, run: &KeyedRows) -> Result<()> {
    write_rows(path, run.schema(), run.link(), run.len(), |at| run.row(at))
}

/// Strict varint reader over an in-memory segment (or body) buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or(&[])
    }

    /// Decodes one canonical varint; `None` on truncated or overlong
    /// input.
    fn read_varint(&mut self) -> Option<u64> {
        let (v, used) = varint::decode_u64(self.rest())?;
        self.pos += used;
        Some(v)
    }

    /// Decodes a record key into `out`: absolute varints at a segment
    /// head (`head == None`), zigzag deltas against the head key
    /// otherwise.
    fn read_key(&mut self, key_arity: usize, head: Option<&[Val]>, out: &mut Vec<Val>) -> bool {
        out.clear();
        match head {
            None => {
                for _ in 0..key_arity {
                    match self.read_varint() {
                        Some(v) => out.push(v),
                        None => return false,
                    }
                }
            }
            Some(base) => {
                for &b in &base[..key_arity] {
                    match self.read_varint() {
                        Some(raw) => out.push(b.wrapping_add(varint::unzigzag(raw) as u64)),
                        None => return false,
                    }
                }
            }
        }
        true
    }

    /// Decodes `n` block values into `out` (cleared first) through the
    /// 8-wide fast path of [`varint::decode_block`]; `false` on truncated
    /// or overlong input — and before any allocation if fewer than `n`
    /// bytes are left, since every varint takes at least one.
    fn read_block(&mut self, n: usize, out: &mut Vec<Val>) -> bool {
        out.clear();
        if n > self.rest().len() {
            return false;
        }
        match varint::decode_block(self.rest(), n, out) {
            Some(used) => {
                self.pos += used;
                true
            }
            None => false,
        }
    }

    /// Advances past `n` varints without decoding them (the values were
    /// validated at open; only truncation is re-checked).
    fn skip_varints(&mut self, n: usize) -> bool {
        for _ in 0..n {
            loop {
                match self.buf.get(self.pos) {
                    Some(b) => {
                        self.pos += 1;
                        if b & 0x80 == 0 {
                            break;
                        }
                    }
                    None => return false,
                }
            }
        }
        true
    }

    fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

fn read_u64_at(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let chunk = bytes.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(chunk.try_into().expect("8 bytes")))
}

impl StoredView {
    /// Opens a view file, validating the header and **every record** —
    /// canonical varints, non-empty blocks, strictly ascending keys, the
    /// tuple count, no trailing bytes — while building the fence index and
    /// filling the key filter in one sequential scan. Corruption of any
    /// kind (including a v1 or otherwise wrong version tag, truncated or
    /// overlong varints, counts the file is too short to hold) is an
    /// error, never a panic: every count read from the file is bounded by
    /// the bytes left before anything is sized from it.
    ///
    /// # Errors
    /// Fails on I/O errors or a malformed file.
    pub fn open(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| io_err(path, "open", e))?;
        let file_bytes = bytes.len() as u64;
        let mut at = 0usize;
        let mut next = |what: &str| -> Result<u64> {
            read_u64_at(&bytes, &mut at).ok_or_else(|| corrupt(path, what))
        };

        if next("truncated header")? != MAGIC {
            return Err(corrupt(path, "bad magic or unsupported format version"));
        }
        let arity = next("truncated header")? as usize;
        if arity > 64 {
            return Err(corrupt(path, "implausible arity"));
        }
        let mut vars = Vec::with_capacity(arity);
        for _ in 0..arity {
            vars.push(next("truncated header")? as usize);
        }
        let schema = Schema::new(vars).map_err(|_| corrupt(path, "invalid schema"))?;
        let link = VarSet(next("truncated header")?);
        if !link.is_subset(schema.varset()) {
            return Err(corrupt(path, "link variables outside the schema"));
        }
        let num_records = next("truncated header")? as usize;
        let num_tuples = next("truncated header")? as usize;
        let header_bytes = at;
        let layout =
            ColLayout::new(&schema, link).map_err(|_| corrupt(path, "invalid link layout"))?;
        let key_arity = layout.key_positions.len();
        let stored_arity = layout.stored_arity();
        // A record spends at least a byte per key value and one on its
        // count, so a longer record count cannot be true.
        let body = &bytes[header_bytes..];
        if num_records.checked_mul(key_arity + 1).is_none_or(|least| least > body.len()) {
            return Err(corrupt(path, "record count overruns the file"));
        }

        // Sequential validation scan: decode every key and block value
        // (strict canonical varints), check key order, remember every
        // FENCE_STRIDE-th record's first key and offset, and add every
        // key to the filter.
        let fences = num_records.div_ceil(FENCE_STRIDE);
        let mut fence_keys = Vec::with_capacity(fences * key_arity);
        let mut fence_offsets = Vec::with_capacity(fences);
        let mut filter = KeyFilter::with_capacity(num_records);
        let mut cursor = Cursor::new(body);
        let mut head: Vec<Val> = Vec::with_capacity(key_arity);
        let mut key: Vec<Val> = Vec::with_capacity(key_arity);
        let mut prev_key: Vec<Val> = Vec::new();
        let mut block: Vec<Val> = Vec::new();
        let mut seen_tuples = 0usize;
        for record in 0..num_records {
            let offset = header_bytes as u64 + cursor.pos as u64;
            let segment_head = record % FENCE_STRIDE == 0;
            let base = if segment_head { None } else { Some(head.as_slice()) };
            if !cursor.read_key(key_arity, base, &mut key) {
                return Err(corrupt(path, "truncated or overlong varint in key"));
            }
            if segment_head {
                head.clear();
                head.extend_from_slice(&key);
                fence_keys.extend_from_slice(&key);
                fence_offsets.push(offset);
            }
            if record > 0 && prev_key.as_slice() >= key.as_slice() {
                return Err(corrupt(path, "keys out of order"));
            }
            filter.insert(key_hash(&key));
            prev_key.clear();
            prev_key.extend_from_slice(&key);
            let count = cursor
                .read_varint()
                .ok_or_else(|| corrupt(path, "truncated or overlong varint in count"))?
                as usize;
            if count == 0 {
                return Err(corrupt(path, "empty record block"));
            }
            if count > num_tuples {
                return Err(corrupt(path, "block overruns tuple count"));
            }
            // A key-only record is its one row (rows are distinct); any
            // other block spends at least a byte per stored value.
            if stored_arity == 0 && count != 1 {
                return Err(corrupt(path, "key-only record holds more than one row"));
            }
            let values = count.checked_mul(stored_arity).unwrap_or(usize::MAX);
            if !cursor.read_block(values, &mut block) {
                return Err(corrupt(path, "truncated or overlong varint in block"));
            }
            seen_tuples += count;
        }
        if seen_tuples != num_tuples {
            return Err(corrupt(path, "tuple count mismatch"));
        }
        if !cursor.at_end() {
            return Err(corrupt(path, "trailing bytes"));
        }

        let file = File::open(path).map_err(|e| io_err(path, "reopen", e))?;
        let overlay = Overlay::new(&schema, link)?;
        Ok(StoredView {
            path: path.to_path_buf(),
            file: RandomAccess::new(file),
            schema,
            link,
            layout,
            fence_keys,
            fence_offsets,
            filter,
            num_tuples,
            num_records,
            file_bytes,
            delete_on_drop: false,
            overlay,
            sink: MetricsSink::disabled(),
        })
    }

    /// Attaches a metrics sink: probes then count segment reads, on-disk
    /// (compressed) and decoded (logical) bytes, overlay-pending probes,
    /// and compactions (count and duration).
    pub fn set_metrics_sink(&mut self, sink: MetricsSink) {
        self.sink = sink;
    }

    /// Marks the backing file for deletion when this view is dropped (used
    /// by owners that spilled the file themselves).
    pub fn delete_on_drop(&mut self) {
        self.delete_on_drop = true;
    }

    /// The schema of the stored tuples.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The link (probe-key) variables.
    pub fn link(&self) -> VarSet {
        self.link
    }

    /// Number of stored tuples: the base run net of tombstones, plus the
    /// overlay's inserts — exactly the maintained view size.
    pub fn len(&self) -> usize {
        self.num_tuples - self.overlay.deleted.len() + self.overlay.added.len()
    }

    /// Whether the view stores no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys in the base run (records).
    pub fn num_keys(&self) -> usize {
        self.num_records
    }

    /// Stored values — the same machine-independent space measure as
    /// [`cqap_relation::Relation::stored_values`], so disk-resident and
    /// in-memory views report comparable `S`. Overlay-aware: a maintained
    /// view reports the same `S` as a fresh rebuild. (The *physical*
    /// compressed footprint is [`StoredView::disk_bytes`].)
    pub fn stored_values(&self) -> usize {
        self.len() * self.schema.arity()
    }

    /// Delta tuples buffered in the overlay (inserts plus tombstones);
    /// zero once [`StoredView::compact`] has folded them into the run.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Size of the backing file in bytes — the *compressed* on-disk
    /// footprint of the run.
    pub fn disk_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Values held resident in memory: the fence keys plus any buffered
    /// overlay tuples (the per-view RAM cost of the cold tier, in the
    /// paper's unit; the key filter holds bits, not values).
    pub fn resident_values(&self) -> usize {
        self.fence_keys.len() + self.overlay.len() * self.schema.arity()
    }

    /// Heap bytes held resident, from container capacities, exact: the
    /// flat fence index (`(key arity + 1) × 8` bytes per fence, one fence
    /// per `FENCE_STRIDE` = 16 records), the key filter (32-byte blocks,
    /// ≈ 10 bits per record) and the overlay's two row stores
    /// ([`KeyedRows::heap_bytes`]). At key arity 2 the run's own share is
    /// ≈ 2.75 bytes per record.
    pub fn resident_bytes(&self) -> usize {
        (self.fence_keys.capacity() + self.fence_offsets.capacity()) * std::mem::size_of::<u64>()
            + self.filter.heap_bytes()
            + self.overlay.added.heap_bytes()
            + self.overlay.deleted.heap_bytes()
    }

    /// All stored tuples whose link projection equals `key`, as row
    /// tuples — an adapter over [`StoredView::probe_columns`] for tests
    /// and tools off the serving path.
    ///
    /// # Errors
    /// Fails on I/O errors or if the segment bytes are malformed.
    pub fn probe(&self, key: &Tuple) -> Result<Vec<Tuple>> {
        let mut run = ColumnRun::new();
        run.reset(self.schema.arity());
        self.probe_columns(key, &mut run)?;
        let mut row = Vec::with_capacity(run.width());
        Ok((0..run.rows())
            .map(|r| {
                run.row_into(r, &mut row);
                Tuple::from_slice(&row)
            })
            .collect())
    }

    /// Makes the key filter answer "maybe" for every key, as if the run
    /// had no filter: the mutation the count-contract test must catch.
    #[cfg(test)]
    pub(crate) fn saturate_filter(&mut self) {
        for block in &mut self.filter.blocks {
            block.0 = [u32::MAX; 8];
        }
    }

    /// The number of fences whose key is `<= key`.
    fn fences_at_or_below(&self, key: &[Val]) -> usize {
        let k = key.len();
        let (mut lo, mut hi) = (0, self.fence_offsets.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if &self.fence_keys[mid * k..(mid + 1) * k] <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The shared segment walk behind [`StoredView::probe_columns`] and
    /// [`StoredView::contains_key`]: the key filter, then fence search,
    /// one contiguous segment read into this worker thread's reused
    /// buffer, and a forward walk of the sorted records (decoding each
    /// delta key against the segment head) that stops as soon as the run
    /// passes `key`. `on_match(cursor, count, key_vals, scratch)` runs at
    /// most once, positioned at the matching record's block; `Ok(None)`
    /// means no record matched. A key of the link's arity is counted
    /// exactly once: as a filter negative, or as one segment read with
    /// its on-disk (compressed) bytes and the logical bytes the walked
    /// records decode to.
    fn find_record<R>(
        &self,
        key: &Tuple,
        on_match: impl FnOnce(&mut Cursor<'_>, usize, &[Val], &mut Scratch) -> Result<R>,
    ) -> Result<Option<R>> {
        if key.arity() != self.link.len() {
            return Ok(None);
        }
        if !self.filter.may_contain(key_hash(key.as_slice())) {
            self.sink.incr(CounterId::FilterNegatives);
            return Ok(None);
        }
        // The segment of the last fence whose first key is <= the target.
        // A run the filter passes a key for has a record, so a fence; a
        // (false-positive) key below the first one reads segment 0 and
        // stops at its first record.
        let idx = self.fences_at_or_below(key.as_slice()).max(1);
        let start = self.fence_offsets[idx - 1];
        let end = self.fence_offsets.get(idx).copied().unwrap_or(self.file_bytes);
        self.sink.incr(CounterId::SegmentReads);
        self.sink.add(CounterId::SegmentBytesRead, end - start);
        // Leaf trace event for the physical read: armed only when the
        // current thread serves a sampled trace, so unsampled probes skip
        // even the clock reads.
        let read_mark = self.sink.trace_mark();
        let key_arity = self.link.len();
        let arity = self.schema.arity();
        let stored_arity = self.layout.stored_arity();
        SEGMENT_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            // The buffer and key vectors move out of the scratch for the
            // duration of the walk so the closure can still receive the
            // remaining scratch (block/row/live) mutably; they move back in
            // before returning, so their capacity is kept either way.
            let mut buf = std::mem::take(&mut scratch.buf);
            let mut kv = std::mem::take(&mut scratch.key);
            let mut head = std::mem::take(&mut scratch.head);

            let len = (end - start) as usize;
            buf.resize(len, 0);
            let mut result: Result<Option<R>> = self
                .file
                .read_exact_at(&mut buf[..len], start)
                .map_err(|e| io_err(&self.path, "segment read", e))
                .map(|()| None);
            if result.is_ok() {
                self.sink
                    .trace_leaf(read_mark, TraceStage::SegmentRead, end - start);
                let mut cursor = Cursor::new(&buf[..len]);
                // Logical (uncompressed-equivalent) bytes represented by
                // the records this walk visits: the decoded half of the
                // compression-ratio pair.
                let mut logical = 0u64;
                let mut first = true;
                while !cursor.at_end() {
                    let base = if first { None } else { Some(head.as_slice()) };
                    if !cursor.read_key(key_arity, base, &mut kv) {
                        result = Err(corrupt(&self.path, "truncated key"));
                        break;
                    }
                    if first {
                        head.clear();
                        head.extend_from_slice(&kv);
                        first = false;
                    }
                    let count = match cursor.read_varint() {
                        Some(c) => c as usize,
                        None => {
                            result = Err(corrupt(&self.path, "truncated count"));
                            break;
                        }
                    };
                    if count == 0 || count > self.num_tuples {
                        result = Err(corrupt(&self.path, "block overruns segment"));
                        break;
                    }
                    match kv.as_slice().cmp(key.as_slice()) {
                        Ordering::Less => {
                            logical += ((key_arity + 1 + count * arity) * 8) as u64;
                            if !cursor.skip_varints(count * stored_arity) {
                                result = Err(corrupt(&self.path, "truncated block"));
                                break;
                            }
                        }
                        Ordering::Equal => {
                            logical += ((key_arity + 1 + count * arity) * 8) as u64;
                            result = on_match(&mut cursor, count, &kv, scratch).map(Some);
                            break;
                        }
                        Ordering::Greater => {
                            logical += ((key_arity + 1) * 8) as u64;
                            break;
                        }
                    }
                }
                self.sink.add(CounterId::SegmentBytesDecoded, logical);
            }
            scratch.buf = buf;
            scratch.key = kv;
            scratch.head = head;
            result
        })
    }

    /// Counts a probe that finds delta tuples pending in the overlay and
    /// arms its `OverlayProbe` trace leaf; free while the overlay is clean.
    fn overlay_mark(&self) -> Option<std::time::Instant> {
        if self.overlay.is_empty() {
            return None;
        }
        self.sink.incr(CounterId::OverlayPendingProbes);
        self.sink.trace_mark()
    }

    /// The one block decode of the cold tier, run with `cursor` at the
    /// block of the record [`StoredView::find_record`] matched: the
    /// `count`-row block decompresses (8-wide varint fast path, fully
    /// validated) into `scratch.block`, column-major, and — only while
    /// tombstones are pending — `scratch.live` receives the rows that
    /// survive them.
    fn decode_block(
        &self,
        cursor: &mut Cursor<'_>,
        count: usize,
        key_vals: &[Val],
        scratch: &mut Scratch,
    ) -> Result<()> {
        if !cursor.read_block(count * self.layout.stored_arity(), &mut scratch.block) {
            return Err(corrupt(&self.path, "truncated tuple"));
        }
        scratch.live.clear();
        let deleted = &self.overlay.deleted;
        if !deleted.is_empty() {
            for r in 0..count {
                self.layout
                    .row_into(key_vals, &scratch.block, count, r, &mut scratch.row);
                if !deleted.contains(&scratch.row) {
                    scratch.live.push(r);
                }
            }
        }
        Ok(())
    }

    /// Appends all stored tuples whose link projection equals `key` to the
    /// columns of `out` (which must be reset to the view's arity), merging
    /// the base run with the delta overlay. The matching record's block is
    /// decoded **column-directly**: stored columns are already
    /// column-major on disk, so each decompresses into scratch and
    /// bulk-copies into its output column, while link columns splat from
    /// the key — no `Tuple` boxing, no row assembly. Pending tombstones
    /// turn the bulk copy into a gather over the surviving rows, and the
    /// overlay's inserts under the key are pushed after. A clean overlay
    /// costs no lookup at all.
    /// A warm worker performs the whole probe without allocating: the
    /// segment lands in the thread's reused buffer and the block
    /// decompresses into reused scratch.
    ///
    /// # Errors
    /// Fails on I/O errors or if the segment bytes are malformed.
    pub fn probe_columns(&self, key: &Tuple, out: &mut ColumnRun) -> Result<()> {
        debug_assert_eq!(out.width(), self.schema.arity());
        let overlay_mark = self.overlay_mark();
        let sources = &self.layout.sources;
        self.find_record(key, |cursor, count, key_vals, scratch| {
            // The whole block is decoded (and validated) before any
            // append, so a malformed segment can never leave `out` with
            // half-appended, uneven columns.
            self.decode_block(cursor, count, key_vals, scratch)?;
            let (block, live) = (&scratch.block, &scratch.live);
            let tombstones = !self.overlay.deleted.is_empty();
            let rows = if tombstones { live.len() } else { count };
            out.append_columns(rows, |j, col| match sources[j] {
                ColSource::Key(i) => col.extend(std::iter::repeat(key_vals[i]).take(rows)),
                ColSource::Stored(c) if tombstones => {
                    col.extend(live.iter().map(|&r| block[c * count + r]));
                }
                ColSource::Stored(c) => col.extend_from_slice(&block[c * count..(c + 1) * count]),
            });
            Ok(())
        })?;
        if !self.overlay.added.is_empty() {
            self.overlay.added.for_each_match(key.as_slice(), |row| out.push_row(row));
        }
        self.sink
            .trace_leaf(overlay_mark, TraceStage::OverlayProbe, self.overlay.len() as u64);
        Ok(())
    }

    /// Whether any stored tuple matches `key` on the link variables — the
    /// key walk of [`StoredView::probe_columns`] without decoding any
    /// tuple block (a semijoin probe needs only existence), unless
    /// tombstones are pending, in which case the matching block is decoded
    /// to check that some tuple survives them.
    ///
    /// # Errors
    /// Fails on I/O errors or if the segment bytes are malformed.
    pub fn contains_key(&self, key: &Tuple) -> Result<bool> {
        let overlay_mark = self.overlay_mark();
        let added = &self.overlay.added;
        let found = if !added.is_empty() && added.contains_key(key.as_slice()) {
            true
        } else if self.overlay.deleted.is_empty() {
            self.find_record(key, |_, _, _, _| Ok(()))?.is_some()
        } else {
            self.find_record(key, |cursor, count, key_vals, scratch| {
                self.decode_block(cursor, count, key_vals, scratch)?;
                Ok(!scratch.live.is_empty())
            })?
            .unwrap_or(false)
        };
        self.sink
            .trace_leaf(overlay_mark, TraceStage::OverlayProbe, self.overlay.len() as u64);
        Ok(found)
    }

    /// Absorbs one view row that entered (`entered`) or left the view
    /// into the delta overlay; it never compacts.
    ///
    /// # Panics
    /// If `row`'s length is not the view's arity.
    pub fn edit_row(&mut self, row: &[Val], entered: bool) {
        self.overlay.edit(row, entered);
    }

    /// Compacts once `overlay × 4 > base + 64` (the slack keeps tiny views
    /// from rewriting their file on every batch).
    pub fn compact_if_due(&mut self) -> Result<()> {
        if self.overlay.len() * 4 > self.num_tuples + 64 {
            return self.compact();
        }
        Ok(())
    }

    /// Absorbs one net ΔS-view (`deletes` leave, then `inserts` enter;
    /// inserted tuples are absent from the view, deleted ones present) and
    /// compacts if the overlay is due.
    ///
    /// # Errors
    /// Fails on I/O errors from a triggered compaction.
    ///
    /// # Panics
    /// If a tuple's arity is not the view's.
    pub fn apply_delta(&mut self, inserts: &[Tuple], deletes: &[Tuple]) -> Result<()> {
        for t in deletes {
            self.overlay.edit(t.as_slice(), false);
        }
        for t in inserts {
            self.overlay.edit(t.as_slice(), true);
        }
        self.compact_if_due()
    }

    /// Folds the overlay into a fresh sorted run: base and overlay are
    /// merged in one streaming pass into a temp file next to the base run,
    /// which is fully re-validated by opening it and only then renamed
    /// over the base — a torn write can never replace a valid run. The
    /// validated handle becomes the view, so the new run is decoded
    /// exactly once. A clean overlay is a no-op.
    ///
    /// # Errors
    /// Fails on I/O errors; the base run stays valid, the overlay is
    /// retained and no temp file is left behind, so the view remains
    /// fully probe-able after a failure.
    pub fn compact(&mut self) -> Result<()> {
        if self.overlay.is_empty() {
            return Ok(());
        }
        // Background trace event (recorded even without a request trace),
        // so the tail report can flag requests whose window a compaction
        // overlapped. Payload: the overlay size being folded in.
        let pending = self.overlay.len() as u64;
        let compact_mark = self.sink.trace_mark_background();
        let timer = self.sink.start();
        let tmp = self.path.with_extension("tmp");
        self.write_merged(&tmp)?;
        let mut fresh = validate_and_swap(&self.path, &tmp)?;
        // The stale handle must not delete the just-swapped file when it
        // drops in the assignment below — and, like the drop flag, the
        // attached sink must survive the swap.
        fresh.delete_on_drop = std::mem::take(&mut self.delete_on_drop);
        fresh.sink = self.sink.clone();
        *self = fresh;
        self.sink.incr(CounterId::Compactions);
        self.sink.stop(timer, StageId::Compaction);
        self.sink
            .trace_leaf(compact_mark, TraceStage::Compaction, pending);
        Ok(())
    }

    /// Writes the maintained view content — base run minus tombstones plus
    /// the overlay's inserts — as a v2 run at `tmp`, byte for byte what
    /// [`write_view`] produces for that content, without materializing it:
    /// the overlay's rows are sorted once into run order as positions into
    /// their flat stores, and one sequential walk of the (key- and
    /// block-sorted) base run consumes them in step, straight into the
    /// encoder. A base record the overlay does not touch is not even
    /// decoded; its block bytes are copied.
    fn write_merged(&self, tmp: &Path) -> Result<()> {
        let bytes = std::fs::read(&self.path)
            .map_err(|e| io_err(&self.path, "read for compaction", e))?;
        let header = (5 + self.schema.arity()) * 8;
        let body = bytes
            .get(header..)
            .ok_or_else(|| corrupt(&self.path, "truncated header"))?;
        let layout = &self.layout;
        let (key_arity, stored_arity) = (layout.key_positions.len(), layout.stored_arity());
        let (added, deleted) = (&self.overlay.added, &self.overlay.deleted);
        let ins_order = run_order(layout, added.len(), |at| added.row(at));
        let dead_order = run_order(layout, deleted.len(), |at| deleted.row(at));
        let (mut ins, mut dead) = (&ins_order[..], &dead_order[..]);
        // How many leading positions of `order` have a key `cmp` to `key`.
        let leading = |rows: &KeyedRows, order: &[u32], key: &[Val], cmp| {
            let key_of = |at: &u32| layout.key_of(rows.row(*at as usize));
            order.iter().take_while(|at| key_of(at).cmp(key.iter().copied()) == cmp).count()
        };
        let ins_rest = |at: u32| layout.rest_of(added.row(at as usize));
        let dead_rest = |at: u32| layout.rest_of(deleted.row(at as usize));
        // `next` := the least key the overlay still touches, if any: the
        // records below it are copied without a look at the overlay.
        let least = |ins: &[u32], dead: &[u32], next: &mut Vec<Val>| {
            let fronts = ins.first().map(|&at| added.row(at as usize)).into_iter();
            let fronts = fronts.chain(dead.first().map(|&at| deleted.row(at as usize)));
            let row = fronts.min_by(|a, b| layout.key_of(a).cmp(layout.key_of(b)));
            next.clear();
            next.extend(row.into_iter().flat_map(|row| layout.key_of(row)));
            row.is_some()
        };
        let mut next = Vec::new();
        let mut pending = least(ins, dead, &mut next);

        let mut writer = RunWriter::new(layout);
        let mut cursor = Cursor::new(body);
        let (mut head, mut key, mut block) = (Vec::new(), Vec::new(), Vec::new());
        // A touched record's rows in order: `Ok(r)` is row `r` of the base
        // block, `Err(at)` the overlay insert at position `at`.
        let mut merged: Vec<Result<usize, u32>> = Vec::new();
        for record in 0..self.num_records {
            let segment_head = record % FENCE_STRIDE == 0;
            let base = if segment_head { None } else { Some(head.as_slice()) };
            if !cursor.read_key(key_arity, base, &mut key) {
                return Err(corrupt(&self.path, "truncated key"));
            }
            if segment_head {
                head.clear();
                head.extend_from_slice(&key);
            }
            let count = cursor
                .read_varint()
                .ok_or_else(|| corrupt(&self.path, "truncated count"))?
                as usize;
            if count > self.num_tuples {
                return Err(corrupt(&self.path, "block overruns tuple count"));
            }
            let (mut inserts, mut tombstones) = (&ins[..0], &dead[..0]);
            if pending && next <= key {
                // Overlay-only keys sorting before this record go out first.
                let (before, rest) = ins.split_at(leading(added, ins, &key, Ordering::Less));
                writer.push_rows(before, |at| added.row(at));
                (inserts, ins) = rest.split_at(leading(added, rest, &key, Ordering::Equal));
                dead = &dead[leading(deleted, dead, &key, Ordering::Less)..];
                (tombstones, dead) = dead.split_at(leading(deleted, dead, &key, Ordering::Equal));
                pending = least(ins, dead, &mut next);
            }
            if inserts.is_empty() && tombstones.is_empty() {
                let start = cursor.pos;
                if !cursor.skip_varints(count * stored_arity) {
                    return Err(corrupt(&self.path, "truncated tuple"));
                }
                writer.push_encoded(&key, count, &body[start..cursor.pos]);
                continue;
            }
            if !cursor.read_block(count * stored_arity, &mut block) {
                return Err(corrupt(&self.path, "truncated tuple"));
            }
            // Both sides ascend and are disjoint (`added ∩ base = ∅`), and
            // the key's tombstones are base rows in the same order.
            let block = &block;
            let base_rest = |r: usize| (0..stored_arity).map(move |c| block[c * count + r]);
            let mut inserts = inserts.iter().copied().peekable();
            let mut tombstones = tombstones.iter().copied().peekable();
            merged.clear();
            for r in 0..count {
                while let Some(at) = inserts.next_if(|&at| ins_rest(at).lt(base_rest(r))) {
                    merged.push(Err(at));
                }
                if tombstones.next_if(|&at| dead_rest(at).eq(base_rest(r))).is_none() {
                    merged.push(Ok(r));
                }
            }
            merged.extend(inserts.map(Err));
            if !merged.is_empty() {
                writer.push_record(&key, merged.len(), |r, p| match (merged[r], layout.sources[p]) {
                    (Ok(b), ColSource::Stored(c)) => block[c * count + b],
                    (Ok(_), ColSource::Key(i)) => key[i],
                    (Err(at), _) => added.row(at as usize)[p],
                });
            }
        }
        writer.push_rows(ins, |at| added.row(at));
        writer.finish(tmp, &self.schema, self.link)
    }
}

impl Drop for StoredView {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_common::vars;

    fn scratch(name: &str) -> PathBuf {
        let dir = crate::scratch_dir("format-test");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }

    #[test]
    fn roundtrip_probe_matches_hash_index() {
        let rel = Relation::binary(
            "R",
            0,
            1,
            (0..500u64).map(|i| (i % 37, i * 7 % 101)),
        );
        let link = vars![1];
        let path = scratch("roundtrip.sview");
        write_view(&path, &rel, link).unwrap();
        let view = StoredView::open(&path).unwrap();
        assert_eq!(view.len(), rel.len());
        assert_eq!(view.stored_values(), rel.stored_values());
        assert_eq!(view.schema(), rel.schema());
        assert!(view.resident_values() <= view.num_keys());

        let index = cqap_relation::HashIndex::build(&rel, link).unwrap();
        for key in 0..45u64 {
            let key = Tuple::unary(key);
            let mut expected: Vec<Tuple> = index.probe(&key).to_vec();
            expected.sort_unstable_by(|a, b| a.as_slice().cmp(b.as_slice()));
            assert_eq!(view.probe(&key).unwrap(), expected, "key {key:?}");
        }
        // Wrong-arity keys behave like missing keys, as in HashIndex.
        assert!(view.probe(&Tuple::pair(1, 2)).unwrap().is_empty());
        cleanup(&path);
    }

    #[test]
    fn compression_shrinks_the_file() {
        // 2000 tuples of two u64 columns = 32 KB logical (plus keys and
        // counts); small sorted values must compress far below that.
        let rel = Relation::binary("R", 0, 1, (0..2_000u64).map(|i| (i % 251, i)));
        let path = scratch("compressed.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let view = StoredView::open(&path).unwrap();
        let logical = (view.stored_values() * 8) as u64;
        assert!(
            view.disk_bytes() * 4 <= logical,
            "disk {} vs logical {} — expected >= 4x compression",
            view.disk_bytes(),
            logical
        );
        cleanup(&path);
    }

    #[test]
    fn extreme_values_round_trip() {
        // u64::MAX keys and values, zero, and every varint length class.
        let pairs: Vec<(u64, u64)> = vec![
            (0, 0),
            (0, u64::MAX),
            (1, 1 << 62),
            (0x7f, 0x80),
            (0x3fff, 0x4000),
            (u64::MAX - 1, 0),
            (u64::MAX, u64::MAX),
        ];
        let rel = Relation::binary("R", 0, 1, pairs.iter().copied());
        let path = scratch("extremes.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let view = StoredView::open(&path).unwrap();
        for &(k, v) in &pairs {
            let got = view.probe(&Tuple::unary(k)).unwrap();
            assert!(got.contains(&Tuple::pair(k, v)), "key {k} value {v}");
        }
        cleanup(&path);
    }

    #[test]
    fn empty_relation_and_empty_link() {
        let empty = Relation::new("E", Schema::of([0, 1]));
        let path = scratch("empty.sview");
        write_view(&path, &empty, vars![1]).unwrap();
        let view = StoredView::open(&path).unwrap();
        assert!(view.is_empty());
        assert!(view.probe(&Tuple::unary(3)).unwrap().is_empty());
        cleanup(&path);

        // Empty link: the whole view is one record under the empty key.
        let rel = Relation::binary("R", 0, 1, [(1, 2), (3, 4), (1, 5)]);
        let path = scratch("nolink.sview");
        write_view(&path, &rel, VarSet::EMPTY).unwrap();
        let view = StoredView::open(&path).unwrap();
        assert_eq!(view.num_keys(), 1);
        let all = view.probe(&Tuple::empty()).unwrap();
        assert_eq!(all.len(), 3);
        cleanup(&path);
    }

    #[test]
    fn full_link_stores_no_block_columns() {
        // Link covers both columns: records are key-only (count 1, empty
        // blocks) and tuples rebuild entirely from their keys.
        let rel = Relation::binary("R", 0, 1, (0..100u64).map(|i| (i, i + 7)));
        let path = scratch("fulllink.sview");
        write_view(&path, &rel, vars![1, 2]).unwrap();
        let view = StoredView::open(&path).unwrap();
        assert_eq!(view.num_keys(), 100);
        for i in 0..100u64 {
            let got = view.probe(&Tuple::pair(i, i + 7)).unwrap();
            assert_eq!(got, vec![Tuple::pair(i, i + 7)]);
        }
        cleanup(&path);
    }

    #[test]
    fn many_keys_cross_fence_segments() {
        // 400 distinct keys at stride 16 => 25 fences; probe every key plus
        // misses on both sides and between keys.
        let rel = Relation::binary("R", 0, 1, (0..400u64).map(|i| (3 * i + 1, i)));
        let path = scratch("fences.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let view = StoredView::open(&path).unwrap();
        assert_eq!(view.num_keys(), 400);
        assert!(view.resident_values() >= 25);
        for i in 0..400u64 {
            let hit = view.probe(&Tuple::unary(3 * i + 1)).unwrap();
            assert_eq!(hit, vec![Tuple::pair(3 * i + 1, i)]);
            assert!(view.probe(&Tuple::unary(3 * i)).unwrap().is_empty());
            // The decode-free semijoin check agrees with the full probe.
            assert!(view.contains_key(&Tuple::unary(3 * i + 1)).unwrap());
            assert!(!view.contains_key(&Tuple::unary(3 * i)).unwrap());
        }
        assert!(view.probe(&Tuple::unary(0)).unwrap().is_empty());
        assert!(view.probe(&Tuple::unary(9_999)).unwrap().is_empty());
        assert!(!view.contains_key(&Tuple::unary(0)).unwrap());
        assert!(!view.contains_key(&Tuple::unary(9_999)).unwrap());
        assert!(!view.contains_key(&Tuple::pair(1, 2)).unwrap(), "wrong arity");
        cleanup(&path);
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let rel = Relation::binary("R", 0, 1, [(1, 2), (3, 4)]);
        let path = scratch("corrupt.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(StoredView::open(&path).is_err(), "bad magic");

        // A v1-tagged file is an unsupported version, not a panic.
        let mut v1 = std::fs::read(&path).unwrap();
        v1[..8].copy_from_slice(b"CQAPSVW1");
        std::fs::write(&path, &v1).unwrap();
        assert!(StoredView::open(&path).is_err(), "v1 version byte");

        write_view(&path, &rel, vars![1]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(StoredView::open(&path).is_err(), "truncated file");
        cleanup(&path);
    }

    #[test]
    fn truncated_and_overlong_varints_are_rejected() {
        let rel = Relation::binary("R", 0, 1, (0..50u64).map(|i| (2 * i, i + 3)));
        let path = scratch("varint-corrupt.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let good = std::fs::read(&path).unwrap();
        let header = (5 + 2) * 8;

        // Overlong: the first body byte is the first key (0 => 0x00);
        // re-encode it as the two-byte overlong form 0x80 0x00.
        let mut overlong = good.clone();
        assert_eq!(overlong[header], 0x00);
        overlong[header] = 0x80;
        overlong.insert(header + 1, 0x00);
        std::fs::write(&path, &overlong).unwrap();
        let err = match StoredView::open(&path) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("overlong varint accepted"),
        };
        assert!(err.contains("overlong") || err.contains("corrupt"), "{err}");

        // Truncated varint: a dangling continuation byte at the end.
        let mut torn = good.clone();
        torn.push(0x80);
        std::fs::write(&path, &torn).unwrap();
        assert!(StoredView::open(&path).is_err(), "dangling continuation");

        // Unsorted keys: swap the first two records' key bytes (keys 0
        // and 2 are single-byte varints at fixed offsets: the head key
        // is absolute, the second is a zigzag delta; rewriting the head
        // to a larger value makes the sequence non-ascending).
        let mut unsorted = good.clone();
        assert_eq!(unsorted[header], 0x00);
        unsorted[header] = 0x63; // head key 99, still > next key 0 + delta
        std::fs::write(&path, &unsorted).unwrap();
        assert!(StoredView::open(&path).is_err(), "keys out of order");

        std::fs::write(&path, &good).unwrap();
        assert!(StoredView::open(&path).is_ok(), "pristine file reopens");
        cleanup(&path);
    }

    #[test]
    fn overlay_probes_merge_base_tombstones_and_inserts() {
        // Keyed on the first column (`vars![1]` is variable x0): seven
        // base keys with ~9 tuples each.
        let rel = Relation::binary("R", 0, 1, (0..60u64).map(|i| (i % 7, i)));
        let link = vars![1];
        let path = scratch("overlay.sview");
        write_view(&path, &rel, link).unwrap();
        let mut view = StoredView::open(&path).unwrap();
        view.delete_on_drop();

        // Delete two base tuples, insert two fresh ones (keys 3 and 9 —
        // 9 is a brand-new key), and exercise tombstone revocation.
        view.apply_delta(&[], &[Tuple::pair(0, 0), Tuple::pair(3, 3)]).unwrap();
        view.apply_delta(&[Tuple::pair(3, 100), Tuple::pair(9, 101)], &[]).unwrap();
        // Re-insert a tombstoned tuple: the tombstone is revoked, not doubled.
        view.apply_delta(&[Tuple::pair(0, 0)], &[]).unwrap();
        // Delete an overlay insert: cancels in place.
        view.apply_delta(&[Tuple::pair(9, 102)], &[]).unwrap();
        view.apply_delta(&[], &[Tuple::pair(9, 102)]).unwrap();

        assert_eq!(view.len(), 60 - 1 + 2);
        assert_eq!(view.stored_values(), view.len() * 2);
        let probe = |v: &StoredView, k: u64| {
            let mut out = v.probe(&Tuple::unary(k)).unwrap();
            out.sort_unstable_by(|a, b| a.as_slice().cmp(b.as_slice()));
            out
        };
        // Key 3 lost (3,3), gained (3,100); key 9 holds only the insert
        // that was not cancelled; key 0 got its tombstone revoked.
        assert!(!probe(&view, 3).contains(&Tuple::pair(3, 3)));
        assert!(probe(&view, 3).contains(&Tuple::pair(3, 100)));
        assert_eq!(probe(&view, 9), vec![Tuple::pair(9, 101)]);
        assert!(probe(&view, 0).contains(&Tuple::pair(0, 0)));
        assert!(view.contains_key(&Tuple::unary(9)).unwrap());

        // Compaction folds the overlay into the run without changing
        // content.
        let expected: Vec<Vec<Tuple>> = (0..10).map(|k| probe(&view, k)).collect();
        view.compact().unwrap();
        assert_eq!(view.overlay_len(), 0);
        assert_eq!(view.len(), 61);
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(&probe(&view, k as u64), want, "key {k}");
        }
        drop(view);
        assert!(!path.exists(), "delete_on_drop survives compaction");
        cleanup(&path);
    }

    #[test]
    fn a_row_that_leaves_and_returns_nets_to_nothing() {
        let rel = Relation::binary("R", 0, 1, (0..40u64).map(|i| (i % 5, i)));
        let path = scratch("netting.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let mut view = StoredView::open(&path).unwrap();
        view.delete_on_drop();
        // One overlay insert under an existing key, so a pending insert
        // can leave and return too.
        view.edit_row(&[2, 500], true);
        let seen = |v: &StoredView| {
            let keys = (0..7u64).map(Tuple::unary);
            let probes = keys.map(|key| {
                let mut rows = v.probe(&key).unwrap();
                rows.sort_unstable();
                (rows, v.contains_key(&key).unwrap())
            });
            (v.overlay_len(), v.len(), probes.collect::<Vec<_>>())
        };
        let before = seen(&view);
        assert_eq!(before.0, 1);
        for (row, first) in [
            ([3u64, 8], false), // a base row leaves, then returns
            ([2, 500], false),  // the overlay insert leaves, then returns
            ([6, 501], true),   // a fresh row enters, then leaves
        ] {
            view.edit_row(&row, first);
            view.edit_row(&row, !first);
            assert_eq!(seen(&view), before, "row {row:?}");
        }
        drop(view);
        cleanup(&path);
    }

    #[test]
    fn tombstoning_every_tuple_of_a_key_empties_it() {
        let rel = Relation::binary("R", 0, 1, [(5, 1), (5, 2), (6, 3)]);
        let path = scratch("tombstone-all.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let mut view = StoredView::open(&path).unwrap();
        view.apply_delta(&[], &[Tuple::pair(5, 1), Tuple::pair(5, 2)]).unwrap();
        assert!(view.probe(&Tuple::unary(5)).unwrap().is_empty());
        assert!(!view.contains_key(&Tuple::unary(5)).unwrap());
        assert!(view.contains_key(&Tuple::unary(6)).unwrap());
        cleanup(&path);
    }

    #[test]
    fn torn_compaction_temp_is_rejected_and_base_survives() {
        let rel = Relation::binary("R", 0, 1, (0..40u64).map(|i| (i, i + 1)));
        let path = scratch("swap.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let base_bytes = std::fs::read(&path).unwrap();

        // A truncated temp run (torn write): rejected, removed, base intact.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &base_bytes[..base_bytes.len() - 3]).unwrap();
        assert!(validate_and_swap(&path, &tmp).is_err());
        assert!(!tmp.exists(), "torn temp file is cleaned up");
        assert_eq!(std::fs::read(&path).unwrap(), base_bytes, "base untouched");

        // A corrupted header (bad magic): same rejection path.
        let mut garbled = base_bytes.clone();
        garbled[0] ^= 0xff;
        std::fs::write(&tmp, &garbled).unwrap();
        assert!(validate_and_swap(&path, &tmp).is_err());
        assert!(!tmp.exists());
        assert_eq!(std::fs::read(&path).unwrap(), base_bytes);

        // An overlong varint in the temp run's body: same rejection path.
        let mut overlong = base_bytes.clone();
        let header = (5 + 2) * 8;
        overlong[header] = 0x80;
        overlong.insert(header + 1, 0x00);
        std::fs::write(&tmp, &overlong).unwrap();
        assert!(validate_and_swap(&path, &tmp).is_err());
        assert!(!tmp.exists());
        assert_eq!(std::fs::read(&path).unwrap(), base_bytes);

        // A valid temp run swaps in.
        let bigger = Relation::binary("R", 0, 1, (0..41u64).map(|i| (i, i + 1)));
        write_view(&tmp, &bigger, vars![1]).unwrap();
        validate_and_swap(&path, &tmp).unwrap();
        assert_eq!(StoredView::open(&path).unwrap().len(), 41);
        cleanup(&path);
    }

    #[test]
    fn compaction_write_failure_keeps_base_and_overlay_serving() {
        let rel = Relation::binary("R", 0, 1, (0..30u64).map(|i| (i, i + 1)));
        let path = scratch("writefail.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let base_bytes = std::fs::read(&path).unwrap();
        let mut view = StoredView::open(&path).unwrap();
        view.apply_delta(&[Tuple::pair(700, 500)], &[Tuple::pair(3, 4)]).unwrap();
        assert!(view.overlay_len() > 0, "delta buffered in the overlay");

        // Fault injection on the write side: a directory squatting on the
        // temp path makes `write_view`'s `File::create` fail (EISDIR)
        // before a single byte of the new run exists.
        let tmp = path.with_extension("tmp");
        std::fs::create_dir(&tmp).unwrap();
        let err = view.compact().unwrap_err();
        assert!(err.to_string().contains("writefail"), "I/O error names the file: {err}");

        // The failed compaction changed nothing durable and lost nothing
        // volatile: base bytes are untouched, the overlay is retained, and
        // probes still see base minus tombstones plus inserts.
        assert_eq!(std::fs::read(&path).unwrap(), base_bytes, "base untouched");
        assert!(view.overlay_len() > 0, "overlay retained after failure");
        assert_eq!(view.probe(&Tuple::unary(700)).unwrap(), vec![Tuple::pair(700, 500)]);
        assert!(view.probe(&Tuple::unary(3)).unwrap().is_empty(), "tombstone holds");
        assert_eq!(view.probe(&Tuple::unary(10)).unwrap(), vec![Tuple::pair(10, 11)]);
        std::fs::remove_dir(&tmp).unwrap();

        // A fault *after* the temp file exists: the temp path resolves to
        // `/dev/full`, so `File::create` succeeds and the write of the
        // merged run fails with ENOSPC. The half-made temp must not
        // survive, and again nothing durable or volatile may change.
        #[cfg(unix)]
        if Path::new("/dev/full").exists() {
            std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
            let err = view.compact().unwrap_err();
            assert!(err.to_string().contains("writefail"), "I/O error names the file: {err}");
            assert!(
                tmp.symlink_metadata().is_err(),
                "no .tmp survives a failed compaction"
            );
            assert_eq!(std::fs::read(&path).unwrap(), base_bytes, "base untouched");
            assert!(view.overlay_len() > 0, "overlay retained after failure");
            assert_eq!(view.probe(&Tuple::unary(700)).unwrap(), vec![Tuple::pair(700, 500)]);
            assert!(view.probe(&Tuple::unary(3)).unwrap().is_empty(), "tombstone holds");
        }

        // Once the fault clears, the same view compacts successfully and
        // the merged run serves identically with an empty overlay.
        view.compact().unwrap();
        assert!(!tmp.exists(), "a successful compaction renames its temp away");
        assert_eq!(view.overlay_len(), 0);
        assert_eq!(view.len(), 30, "30 base - 1 tombstone + 1 insert");
        assert_eq!(view.probe(&Tuple::unary(700)).unwrap(), vec![Tuple::pair(700, 500)]);
        assert!(view.probe(&Tuple::unary(3)).unwrap().is_empty());
        cleanup(&path);
    }

    #[test]
    fn oversized_overlay_triggers_automatic_compaction() {
        let rel = Relation::binary("R", 0, 1, [(1, 2)]);
        let path = scratch("autocompact.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        let mut view = StoredView::open(&path).unwrap();
        view.delete_on_drop();
        // 64-tuple slack: small deltas stay buffered…
        let small: Vec<Tuple> = (0..10u64).map(|i| Tuple::pair(100 + i, i)).collect();
        view.apply_delta(&small, &[]).unwrap();
        assert_eq!(view.overlay_len(), 10);
        // …but crossing `overlay × 4 > base + 64` rewrites the run.
        let big: Vec<Tuple> = (0..40u64).map(|i| Tuple::pair(200 + i, i)).collect();
        view.apply_delta(&big, &[]).unwrap();
        assert_eq!(view.overlay_len(), 0, "compaction triggered");
        assert_eq!(view.len(), 51);
        cleanup(&path);
    }

    /// A valid two-column run keyed on its first column, with `patch`
    /// applied to its bytes: header words at 8-byte offsets (records at
    /// 40, tuples at 48), body from byte 56.
    fn crafted(name: &str, link: VarSet, patch: impl FnOnce(&mut Vec<u8>)) -> Result<StoredView> {
        let rel = Relation::binary("R", 0, 1, [(1, 2), (3, 4)]);
        let path = scratch(name);
        write_view(&path, &rel, link).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        patch(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let opened = StoredView::open(&path);
        cleanup(&path);
        opened
    }

    fn set_header(bytes: &mut [u8], at: usize, value: u64) {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn a_record_count_past_the_file_is_rejected_before_allocating() {
        let opened = crafted("records-2-40.sview", vars![1], |b| set_header(b, 40, 1 << 40));
        assert!(opened.is_err(), "2^40 records in a 6-byte body");
    }

    #[test]
    fn a_record_count_of_u64_max_is_rejected() {
        let opened = crafted("records-max.sview", vars![1], |b| set_header(b, 40, u64::MAX));
        assert!(opened.is_err(), "u64::MAX records");
    }

    #[test]
    fn a_block_count_past_the_file_is_rejected_before_allocating() {
        // Tuple total u64::MAX, and the first record (key 1 at byte 56,
        // count 1 at byte 57) claims 2^40 rows.
        let opened = crafted("block-2-40.sview", vars![1], |b| {
            set_header(b, 48, u64::MAX);
            assert_eq!((b[56], b[57]), (1, 1));
            let mut count = Vec::new();
            varint::encode_u64(1 << 40, &mut count);
            b.splice(57..58, count);
        });
        assert!(opened.is_err(), "a 2^40-row block in a 7-byte body");
    }

    #[test]
    fn a_key_only_record_of_many_rows_is_rejected() {
        // Full link: records store no block, so nothing on disk bounds a
        // count — but a key-only record is its one row. The tuple total
        // agrees with the counts, so only that rule can reject the file.
        let opened = crafted("key-only-count.sview", vars![1, 2], |b| {
            set_header(b, 48, (1 << 40) + 1);
            assert_eq!((b[56], b[57], b[58]), (1, 2, 1));
            let mut count = Vec::new();
            varint::encode_u64(1 << 40, &mut count);
            b.splice(58..59, count);
        });
        assert!(opened.is_err(), "2^40 copies of one key-only row");
    }

    #[test]
    fn the_key_filter_passes_under_three_percent_of_absent_keys() {
        // 20 000 stored arity-2 keys; 100 000 keys drawn from the same
        // ranges that the run does not hold.
        let stored = |i: u64| (i % 200, i / 200 * 3);
        let rel = Relation::binary("R", 0, 1, (0..20_000).map(stored));
        let path = scratch("filter-fpr.sview");
        write_view(&path, &rel, vars![1, 2]).unwrap();
        let view = StoredView::open(&path).unwrap();
        assert_eq!(view.num_keys(), 20_000);
        let absent = (0..100_000u64).map(|i| [i % 200, (i / 200) * 3 + 1 + i % 2]);
        let passed = absent.filter(|key| view.filter.may_contain(key_hash(key))).count();
        assert!(passed * 100 < 3 * 100_000, "{passed} of 100 000 absent keys passed");
        cleanup(&path);
    }

    /// Values of every varint length class and the extremes, or a dense
    /// small range (shared keys, multi-row records).
    fn draw(rng: &mut rand::rngs::StdRng, wide: bool) -> Val {
        use rand::Rng;
        const PALETTE: [Val; 8] = [0, 1, 0x7f, 0x80, 1 << 32, 1 << 63, u64::MAX - 1, u64::MAX];
        if wide {
            PALETTE[rng.random_range(0..PALETTE.len())]
        } else {
            rng.random_range(0..6)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The radix sort is run order: the positions it returns equal a
        /// comparison sort's by (key columns, then the rest). The codec
        /// tests compare runs written through `run_order` with each other,
        /// so this is the order's independent oracle. Values sit on both
        /// sides of every byte boundary, and some rows differ from another
        /// only in the top byte of one column.
        #[test]
        fn radix_run_order_is_the_comparison_order(
            seed in 0u64..1_000_000,
            arity in 0usize..6,
            link_bits in 0u64..32,
            rows in 0usize..3_001,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut palette = vec![0, Val::MAX];
            for byte in 1..8 {
                palette.extend([(1 << (8 * byte)) - 1, 1 << (8 * byte)]);
            }
            let mut seen = std::collections::HashSet::new();
            let mut table: Vec<Vec<Val>> = Vec::new();
            for _ in 0..rows {
                let mut row: Vec<Val> =
                    (0..arity).map(|_| palette[rng.random_range(0..palette.len())]).collect();
                if arity > 0 && !table.is_empty() && rng.random_range(0..4) == 0 {
                    row = table[rng.random_range(0..table.len())].clone();
                    let col = rng.random_range(0..arity);
                    row[col] = row[col] & !(0xff << 56) | rng.random_range(0..256u64) << 56;
                }
                if seen.insert(row.clone()) {
                    table.push(row);
                }
            }
            let link = VarSet(link_bits & ((1 << arity) - 1));
            let layout = ColLayout::new(&Schema::of(0..arity), link).unwrap();
            let columns: Vec<usize> =
                layout.key_positions.iter().chain(&layout.stored_positions).copied().collect();
            let mut expected: Vec<u32> = (0..table.len() as u32).collect();
            expected.sort_unstable_by(|&a, &b| {
                let (a, b) = (&table[a as usize], &table[b as usize]);
                columns.iter().map(|&p| a[p]).cmp(columns.iter().map(|&p| b[p]))
            });
            let got = run_order(&layout, table.len(), |at| table[at].as_slice());
            proptest::prop_assert_eq!(got, expected, "arity {}, link {:?}", arity, link);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The filter has no false negatives: every stored key passes it
        /// and is found by both probes, and a key only the overlay holds
        /// is found before and after compaction folds it into the run.
        #[test]
        fn the_key_filter_never_hides_a_stored_key(
            seed in 0u64..1_000_000,
            key_arity in 0usize..5,
            rows in 0usize..150,
        ) {
            use rand::SeedableRng;
            let wide = seed % 2 == 0;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let arity = key_arity + 1;
            let link = VarSet((1 << key_arity) - 1);
            let tuples: Vec<Tuple> = (0..rows)
                .map(|_| Tuple::from_slice(&(0..arity).map(|_| draw(&mut rng, wide)).collect::<Vec<_>>()))
                .collect();
            let rel = Relation::from_tuples("P", Schema::of(0..arity), tuples).unwrap();
            let path = scratch(&format!("filter-{seed}-{key_arity}-{rows}-{wide}.sview"));
            write_view(&path, &rel, link).unwrap();
            let mut view = StoredView::open(&path).unwrap();
            view.delete_on_drop();
            let found = |view: &StoredView, row: &[Val]| {
                let key = Tuple::from_slice(&row[..key_arity]);
                let mut run = ColumnRun::new();
                run.reset(arity);
                view.probe_columns(&key, &mut run).unwrap();
                let mut got = Vec::new();
                let hit = (0..run.rows()).any(|r| {
                    run.row_into(r, &mut got);
                    got == row
                });
                hit && view.contains_key(&key).unwrap()
            };
            for row in rel.tuples() {
                proptest::prop_assert!(view.filter.may_contain(key_hash(&row.as_slice()[..key_arity])));
                proptest::prop_assert!(found(&view, row.as_slice()), "stored row {:?}", row);
            }
            // A key the base run lacks, held by the overlay alone.
            let base_keys: std::collections::HashSet<&[Val]> =
                rel.tuples().iter().map(|t| &t.as_slice()[..key_arity]).collect();
            let fresh = (0..64)
                .map(|_| (0..arity).map(|_| draw(&mut rng, true) ^ 0x5a).collect::<Vec<Val>>())
                .find(|row| !base_keys.contains(&row[..key_arity]));
            if let Some(fresh) = fresh {
                view.edit_row(&fresh, true);
                proptest::prop_assert!(found(&view, &fresh), "overlay-only row {:?}", fresh);
                view.compact().unwrap();
                proptest::prop_assert!(view.filter.may_contain(key_hash(&fresh[..key_arity])));
                proptest::prop_assert!(found(&view, &fresh), "compacted row {:?}", fresh);
                for row in rel.tuples() {
                    proptest::prop_assert!(found(&view, row.as_slice()), "row {:?} after compaction", row);
                }
            }
            drop(view);
            cleanup(&path);
        }
    }

    #[test]
    fn delete_on_drop_removes_the_file() {
        let rel = Relation::binary("R", 0, 1, [(1, 2)]);
        let path = scratch("dropped.sview");
        write_view(&path, &rel, vars![1]).unwrap();
        {
            let mut view = StoredView::open(&path).unwrap();
            view.delete_on_drop();
        }
        assert!(!path.exists());
        cleanup(&path);
    }
}
