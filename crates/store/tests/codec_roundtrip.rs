//! Codec-level property test for the v2 compressed run format.
//!
//! The umbrella crate's equivalence matrix exercises the format through
//! whole spilled indexes; this file attacks the codec directly: random
//! relations of every arity (1 up to 7), every link subset (empty, full,
//! scattered), and value mixes that force every varint length class —
//! zero, `u64::MAX`, both sides of each 7-bit boundary — must round-trip
//! through `write_view` → [`StoredView::open`] (with `write_run`, the
//! spill from resident rows, producing the same bytes) and answer the
//! column-direct probe, its row adapter and the key-existence check
//! exactly like a [`cqap_relation::HashIndex`] over the same tuples —
//! first clean, then again under a random uncompacted delta overlay. Wide-value cases
//! make every key distinct, so single-tuple records and single-record
//! segments are covered, as are max-arity tuples where *all* columns are
//! link columns and the blocks store nothing at all.
//!
//! The second property pins the *writer* side of maintenance: a
//! compaction streams base run and overlay straight into the encoder, and
//! the file it leaves must be byte-for-byte what `write_view` produces for
//! the merged content — across empty, partial and full links, whole keys
//! tombstoned away, and overlay-only keys before, between and after the
//! base keys.

use cqap_common::{Tuple, Val, VarSet};
use cqap_relation::{HashIndex, KeyedRows, Relation, Schema};
use cqap_store::format::{write_run, write_view};
use cqap_store::{scratch_dir, StoredView};
use cqap_yannakakis::ColumnRun;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values spanning every LEB128 length class plus the extremes; the
/// `small` palette keeps keys dense (multi-tuple records, short deltas),
/// the `wide` palette makes collisions vanishingly rare (single-tuple
/// records) and deltas sign-alternating.
const WIDE_PALETTE: [Val; 10] = [
    0,
    1,
    0x7f,
    0x80,
    0x3fff,
    0x4000,
    1 << 32,
    (1 << 62) + 3,
    u64::MAX - 1,
    u64::MAX,
];

fn draw_val(rng: &mut StdRng, wide: bool) -> Val {
    if wide {
        WIDE_PALETTE[rng.random_range(0..WIDE_PALETTE.len())]
            .wrapping_add(rng.random_range(0u64..3))
    } else {
        rng.random_range(0u64..24)
    }
}

fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_unstable_by(|a, b| a.as_slice().cmp(b.as_slice()));
    tuples
}

/// `out`'s rows as sorted tuples (the column-direct probe appends in
/// block order; comparisons are order-insensitive).
fn rows_of(out: &ColumnRun) -> Vec<Tuple> {
    let mut buf = Vec::new();
    let tuples = (0..out.rows())
        .map(|r| {
            out.row_into(r, &mut buf);
            Tuple::from_slice(&buf)
        })
        .collect();
    sorted(tuples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any relation, any arity, any link subset: the compressed run
    /// answers column probes, their row adapter and key-existence checks
    /// exactly like a hash index over the same tuples — and keeps doing so
    /// with tombstones and inserts pending in the overlay.
    #[test]
    fn arbitrary_relations_round_trip(
        seed in 0u64..1_000_000,
        arity in 1usize..8,
        rows in 0usize..120,
        link_bits in 0u64..256,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0dec);
        // Wide values: almost-always-distinct keys, so every record holds
        // one tuple and short relations fit a single segment.
        let wide = seed % 3 == 0;
        let link = VarSet(link_bits & ((1u64 << arity) - 1));

        let mut buf = vec![0u64; arity];
        let tuples: Vec<Tuple> = (0..rows)
            .map(|_| {
                for v in &mut buf {
                    *v = draw_val(&mut rng, wide);
                }
                Tuple::from_slice(&buf)
            })
            .collect();
        let rel = Relation::from_tuples("P", Schema::of(0..arity), tuples).unwrap();

        let dir = scratch_dir("codec-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("case-{seed}-{arity}-{rows}-{link_bits}.sview"));
        write_view(&path, &rel, link).unwrap();
        // A spill streams the same rows from their resident form: the
        // file must not differ by a byte.
        let spilled = path.with_extension("spilled");
        write_run(&spilled, &KeyedRows::from_relation(&rel, link).unwrap()).unwrap();
        prop_assert!(
            std::fs::read(&spilled).unwrap() == std::fs::read(&path).unwrap(),
            "write_run differs from write_view ({} tuples, link {})", rel.len(), link
        );
        std::fs::remove_file(&spilled).unwrap();
        let mut view = StoredView::open(&path).unwrap();
        prop_assert_eq!(view.len(), rel.len());
        prop_assert_eq!(view.stored_values(), rel.stored_values());
        prop_assert_eq!(view.schema(), rel.schema());

        let index = HashIndex::build(&rel, link).unwrap();
        // Probe every present key plus fresh misses drawn from the same
        // distribution (and a guaranteed-absent extreme).
        let key_positions = rel.schema().positions_of_set(link).unwrap();
        let mut keys: Vec<Tuple> = rel
            .iter()
            .map(|t| t.project(&key_positions))
            .collect();
        let key_arity = link.len();
        let mut miss = vec![0u64; key_arity];
        for _ in 0..8 {
            for v in &mut miss {
                *v = draw_val(&mut rng, wide);
            }
            keys.push(Tuple::from_slice(&miss));
        }

        let mut cols = ColumnRun::new();
        for key in &keys {
            let expected = sorted(index.probe(key).to_vec());
            prop_assert_eq!(
                sorted(view.probe(key).unwrap()),
                expected.clone(),
                "row adapter diverged at key {:?}", key
            );
            cols.reset(arity);
            view.probe_columns(key, &mut cols).unwrap();
            prop_assert_eq!(
                rows_of(&cols),
                expected.clone(),
                "column probe diverged at key {:?}", key
            );
            prop_assert_eq!(
                view.contains_key(key).unwrap(),
                !expected.is_empty(),
                "contains_key diverged at key {:?}", key
            );
        }

        // The same run under an *uncompacted* overlay: the smallest key
        // tombstoned away entirely, a few scattered tombstones, inserts
        // under existing keys (an existing tuple with its non-link columns
        // redrawn) and under fresh ones. At most 16 delta tuples, which
        // stays below the compaction trigger at every base size.
        let mut blocks: std::collections::BTreeMap<Tuple, Vec<Tuple>> = Default::default();
        for t in rel.iter() {
            blocks.entry(t.project(&key_positions)).or_default().push(t.clone());
        }
        let mut deletes: Vec<Tuple> = blocks
            .values()
            .min_by_key(|block| block.len())
            .filter(|block| block.len() <= 6)
            .cloned()
            .unwrap_or_default();
        for t in rel.iter().filter(|_| rng.random_range(0u32..8) == 0).take(3) {
            if !deletes.contains(t) {
                deletes.push(t.clone());
            }
        }
        let mut inserts: Vec<Tuple> = Vec::new();
        for i in 0..7 {
            for v in &mut buf {
                *v = draw_val(&mut rng, wide);
            }
            if let Some(anchor) = rel.tuples().get(i).filter(|_| i % 2 == 0) {
                for &p in &key_positions {
                    buf[p] = anchor.get(p);
                }
            }
            let t = Tuple::from_slice(&buf);
            if !rel.contains(&t) && !inserts.contains(&t) {
                inserts.push(t);
            }
        }
        view.apply_delta(&inserts, &deletes).unwrap();
        prop_assert_eq!(
            view.overlay_len(),
            inserts.len() + deletes.len(),
            "the overlay must still be pending"
        );
        let post = Relation::from_tuples(
            "P",
            rel.schema().clone(),
            rel.iter().filter(|t| !deletes.contains(t)).chain(&inserts).cloned(),
        )
        .unwrap();
        prop_assert_eq!(view.len(), post.len());
        let post_index = HashIndex::build(&post, link).unwrap();
        keys.extend(inserts.iter().map(|t| t.project(&key_positions)));
        for key in &keys {
            let expected = sorted(post_index.probe(key).to_vec());
            cols.reset(arity);
            view.probe_columns(key, &mut cols).unwrap();
            prop_assert_eq!(
                rows_of(&cols),
                expected.clone(),
                "overlay-pending column probe diverged at key {:?}", key
            );
            prop_assert_eq!(
                view.contains_key(key).unwrap(),
                !expected.is_empty(),
                "overlay-pending contains_key diverged at key {:?}", key
            );
        }
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    /// Random overlays over random runs: after `compact` the run file
    /// equals a fresh `write_view` of the maintained content, byte for
    /// byte, and the reused handle serves it with a clean overlay.
    #[test]
    fn compaction_is_byte_identical_to_a_fresh_write(
        seed in 0u64..1_000_000,
        arity in 1usize..5,
        rows in 0usize..150,
        link_bits in 0u64..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0a9ac7);
        let wide = seed % 4 == 0;
        // Every link subset of the schema, the empty link (one record
        // holds the whole view) and the full link (key-only records).
        let link = VarSet(link_bits & ((1u64 << arity) - 1));
        // Base values sit in the middle of the small domain, so overlay
        // inserts (drawn from all of it) land on keys before the first
        // base key, after the last, between and on existing ones.
        let draw = |rng: &mut StdRng, base: bool| {
            let mut buf = vec![0u64; arity];
            for v in &mut buf {
                *v = match (wide, base) {
                    (true, _) => draw_val(rng, true),
                    (false, true) => rng.random_range(8u64..16),
                    (false, false) => rng.random_range(0u64..24),
                };
            }
            Tuple::from_slice(&buf)
        };
        let schema = Schema::of(0..arity);
        let key_positions = schema.positions_of_set(link).unwrap();
        let base: Vec<Tuple> = (0..rows).map(|_| draw(&mut rng, true)).collect();
        let rel = Relation::from_tuples("P", schema.clone(), base).unwrap();

        let dir = scratch_dir("compaction-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("case-{seed}-{arity}-{rows}-{link_bits}.sview"));
        write_view(&path, &rel, link).unwrap();
        let mut view = StoredView::open(&path).unwrap();
        let mut content: std::collections::BTreeSet<Tuple> = rel.iter().cloned().collect();

        // Three net deltas (the trigger may compact in between; the
        // final file must not depend on when).
        for _ in 0..3 {
            let mut deletes: Vec<Tuple> = content
                .iter()
                .filter(|_| rng.random_range(0u32..4) == 0)
                .cloned()
                .collect();
            // Tombstone one whole key: its record must vanish.
            if let Some(victim) = content.iter().nth(rng.random_range(0..content.len().max(1))) {
                let key = victim.project(&key_positions);
                let rest: Vec<Tuple> = content
                    .iter()
                    .filter(|t| t.project(&key_positions) == key && !deletes.contains(t))
                    .cloned()
                    .collect();
                deletes.extend(rest);
            }
            let mut inserts: Vec<Tuple> = Vec::new();
            for _ in 0..rng.random_range(0usize..40) {
                let t = draw(&mut rng, false);
                if !content.contains(&t) && !inserts.contains(&t) {
                    inserts.push(t);
                }
            }
            view.apply_delta(&inserts, &deletes).unwrap();
            for t in &deletes {
                content.remove(t);
            }
            content.extend(inserts);
        }
        view.compact().unwrap();
        prop_assert_eq!(view.overlay_len(), 0);
        prop_assert_eq!(view.len(), content.len());

        let merged = Relation::from_tuples("P", schema, content.iter().cloned()).unwrap();
        let expected_path = path.with_extension("expected");
        write_view(&expected_path, &merged, link).unwrap();
        prop_assert!(
            std::fs::read(&path).unwrap() == std::fs::read(&expected_path).unwrap(),
            "compacted run differs from write_view of the merged content \
             ({} tuples, link {})", merged.len(), link
        );
        // The handle compaction kept is the validated one: it probes the
        // new file without having been reopened.
        for t in content.iter().take(20) {
            let key = t.project(&key_positions);
            prop_assert!(view.probe(&key).unwrap().contains(t));
        }
        drop(view);
        prop_assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&expected_path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
