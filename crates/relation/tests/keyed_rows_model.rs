//! [`KeyedRows`] against a model, every shape.
//!
//! Random insert / delete / duplicate-insert / absent-delete streams over
//! arities 1 to 5 and **every** link subset — the empty link (one key
//! holds every row), the full link (the row table is the probe index) and
//! proper subsets (per-key chains), the last with hub keys whose degree
//! passes 64 so chain heads, middles and tails are all deleted and
//! `swap_remove`d into. After every step the structure must agree with a
//! `HashMap` of support counts, and a `Relation` + [`HashIndex::build`]
//! over the same rows, on `len`, `contains`, per-row counts, `contains_key`,
//! the probed rows of every key, and the row dump. A second stream edits
//! counts in groups, each applied once as one [`KeyedRows::edit_counts`]
//! batch and once row by row.

use std::collections::HashMap;

use cqap_common::{hash_vals, Tuple, Val, VarSet};
use cqap_relation::{CountEdit, HashIndex, KeyedRows, Relation, Schema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sorted(mut rows: Vec<Vec<Val>>) -> Vec<Vec<Val>> {
    rows.sort_unstable();
    rows
}

fn probed(rows: &KeyedRows, key: &[Val]) -> Vec<Vec<Val>> {
    let mut out = Vec::new();
    rows.for_each_match(key, |row| out.push(row.to_vec()));
    sorted(out)
}

/// Every observable of `rows` against the model.
fn check(rows: &KeyedRows, model: &HashMap<Tuple, u32>, counted: bool, extra_keys: &[Tuple]) {
    let schema = rows.schema().clone();
    let link = rows.link();
    let rel = Relation::from_tuples("model", schema.clone(), model.keys().cloned()).unwrap();
    let index = HashIndex::build(&rel, link).unwrap();
    assert_eq!(rows.len(), rel.len());
    assert_eq!(rows.is_empty(), rel.is_empty());
    assert_eq!(rows.stored_values(), rel.stored_values());
    // The row dump is the model relation, and re-loading it gives an equal
    // structure (for sets; a counted one differs by its counts).
    assert_eq!(rows.to_relation("dump"), rel);
    assert_eq!(
        sorted(rows.rows().map(<[Val]>::to_vec).collect()),
        sorted(rel.iter().map(Tuple::to_vec).collect())
    );
    if !counted {
        assert_eq!(&KeyedRows::from_relation(&rel, link).unwrap(), rows);
    }
    for (row, &count) in model {
        assert!(rows.contains(row.as_slice()));
        assert_eq!(rows.count(row.as_slice()), if counted { count } else { 1 });
    }
    let key_positions = schema.positions_of_set(link).unwrap();
    let keys = index
        .groups()
        .map(|(key, _)| key.clone())
        .chain(extra_keys.iter().map(|row| row.project(&key_positions)));
    for key in keys {
        let expected = sorted(index.probe(&key).iter().map(Tuple::to_vec).collect());
        assert_eq!(
            rows.contains_key(key.as_slice()),
            !expected.is_empty(),
            "key {key:?}"
        );
        assert_eq!(probed(rows, key.as_slice()), expected, "key {key:?}");
    }
    // A key of the wrong arity matches nothing, as in `HashIndex`.
    let long = vec![0; key_positions.len() + 1];
    assert!(!rows.contains_key(&long));
    assert!(probed(rows, &long).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edit_streams_track_the_model(
        seed in 0u64..1_000_000,
        arity in 1usize..6,
        link_bits in 0u64..32,
        steps in 40usize..420,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x006b_6579_6564);
        let schema = Schema::of(0..arity);
        let link = VarSet(link_bits & ((1u64 << arity) - 1));
        let key_positions = schema.positions_of_set(link).unwrap();
        let mut set = KeyedRows::new(schema.clone(), link).unwrap();
        let mut counts = KeyedRows::counted(schema.clone(), link).unwrap();
        let mut set_model: HashMap<Tuple, u32> = HashMap::new();
        let mut count_model: HashMap<Tuple, u32> = HashMap::new();
        // Three rows in four sit under one hub key (link columns pinned,
        // the rest drawn wide, so the hub's degree grows with the stream);
        // the others come from a domain small enough to repeat rows and
        // keys.
        let draw = |rng: &mut StdRng| {
            let hub = rng.random_range(0u32..4) > 0;
            let mut row: Vec<Val> = (0..arity)
                .map(|_| if hub { rng.random_range(0u64..1_000) } else { rng.random_range(0u64..3) })
                .collect();
            if hub {
                for &p in &key_positions {
                    row[p] = 7;
                }
            }
            Tuple::from_slice(&row)
        };
        let mut max_degree = 0;
        for step in 0..steps {
            // Mostly inserts for the first three fifths of the stream,
            // mostly deletes after.
            let deletes = if step * 5 < steps * 3 { 1 } else { 5 };
            let fresh = draw(&mut rng);
            let present = set_model
                .keys()
                .nth(rng.random_range(0..set_model.len().max(1)))
                .cloned();
            match (rng.random_range(0u32..8), present) {
                // Delete a present row (heads, middles and tails of the
                // hub's chain alike), or lower its count.
                (op, Some(row)) if op < deletes => {
                    prop_assert!(set.remove(row.as_slice()));
                    set_model.remove(&row);
                    let held = count_model[&row];
                    let by = rng.random_range(1..held + 1);
                    prop_assert_eq!(counts.sub(row.as_slice(), by), by == held);
                    if by == held {
                        count_model.remove(&row);
                    } else {
                        count_model.insert(row, held - by);
                    }
                }
                // Insert a present row again: the set ignores it, the
                // count rises.
                (5, Some(row)) => {
                    prop_assert!(!set.insert(row.as_slice()).unwrap());
                    let entered = counts.add(row.as_slice(), 2);
                    prop_assert_eq!(entered, !count_model.contains_key(&row));
                    *count_model.entry(row).or_insert(0) += 2;
                }
                // Delete a row that is (almost surely) absent.
                (6, _) => {
                    prop_assert_eq!(set.remove(fresh.as_slice()), set_model.remove(&fresh).is_some());
                }
                _ => {
                    prop_assert_eq!(
                        set.insert(fresh.as_slice()).unwrap(),
                        set_model.insert(fresh.clone(), 1).is_none()
                    );
                    let by = rng.random_range(1u32..4);
                    let entered = counts.add(fresh.as_slice(), by);
                    prop_assert_eq!(entered, !count_model.contains_key(&fresh));
                    *count_model.entry(fresh.clone()).or_insert(0) += by;
                }
            }
            check(&set, &set_model, false, std::slice::from_ref(&fresh));
            check(&counts, &count_model, true, std::slice::from_ref(&fresh));
            let hub_key = vec![7; key_positions.len()];
            max_degree = max_degree.max(probed(&set, &hub_key).len());
        }
        // A long stream over a proper link subset must have grown a hub.
        if steps >= 360 && !key_positions.is_empty() && key_positions.len() < arity {
            prop_assert!(max_degree >= 64, "hub degree only reached {max_degree}");
        }
        // Wrong-arity rows are refused, not stored.
        prop_assert!(set.insert(&vec![0; arity + 1]).is_err());
        // Draining gives every vector and table slot back.
        for row in set_model.keys() {
            prop_assert!(set.remove(row.as_slice()));
        }
        prop_assert!(set.is_empty());
        prop_assert!(set.heap_bytes() <= 2_048, "an emptied structure still holds {} bytes", set.heap_bytes());
    }
}

/// Fisher–Yates over the test's generator.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

/// A value whose one-value row hashes 1 above `v`'s, so the two rows
/// share their table bits (the hash's top half): one Fx step over zero is
/// a multiply by an odd constant, `hash_vals(&[1])`, so adding its inverse
/// to `v` adds 1 to the hash.
fn bits_partner(v: Val) -> Val {
    let seed = hash_vals(&[1]);
    let mut inverse = seed;
    for _ in 0..5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(seed.wrapping_mul(inverse)));
    }
    let partner = v.wrapping_add(inverse);
    assert_eq!(hash_vals(&[partner]), hash_vals(&[v]).wrapping_add(1));
    partner
}

/// Applies `group` to `batched` as one [`KeyedRows::edit_counts`] call and
/// to `single` one row at a time (`add` / `sub`), updates the count model,
/// and returns the rows that crossed zero — the same from both, in the
/// same order.
fn edit_both(
    batched: &mut KeyedRows,
    single: &mut KeyedRows,
    model: &mut HashMap<Tuple, u32>,
    group: &[Tuple],
    edit: CountEdit,
) -> Vec<Vec<Val>> {
    let rows: Vec<Val> = group.iter().flat_map(|t| t.as_slice().to_vec()).collect();
    let hashes: Vec<u64> = group.iter().map(|t| hash_vals(t.as_slice())).collect();
    let mut crossed = Vec::new();
    batched.edit_counts(&rows, &hashes, edit, |row| crossed.push(row.to_vec()));
    let mut one_by_one = Vec::new();
    for t in group {
        let row = t.as_slice();
        let moved = match edit {
            CountEdit::Add(n) => single.add(row, n),
            CountEdit::Sub(n) => single.sub(row, n),
        };
        if moved {
            one_by_one.push(row.to_vec());
        }
        let count = model.entry(t.clone()).or_insert(0);
        match edit {
            CountEdit::Add(n) => *count += n,
            CountEdit::Sub(n) => *count -= n,
        }
        if *count == 0 {
            model.remove(t);
        }
    }
    assert_eq!(crossed, one_by_one, "crossing rows, in order");
    crossed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random groups of count edits, as batches of several hundred rows
    /// (past the kernel's group size) and one row at a time, must leave
    /// equal structures — the same rows at the same positions, the same
    /// counts, the model's — and report the same crossings in the same
    /// order. The stream covers rows repeated inside a group, enters and
    /// leaves, a first group that grows the empty table through several
    /// resizes, leave groups whose first edit evicts the row at position 0
    /// (so the last row moves there) and whose last edit is that moved
    /// row — a position the warm pass saw goes stale within the group —
    /// and, at arity 1, distinct rows with the same table bits, whose home
    /// slot hints at the other row.
    #[test]
    fn a_batch_edit_equals_one_row_at_a_time(
        seed in 0u64..1_000_000,
        arity in 0usize..5,
        link_bits in 0u64..16,
        groups in 4usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0062_6174_6368);
        let schema = Schema::of(0..arity);
        let link = VarSet(link_bits & ((1u64 << arity) - 1));
        let mut batched = KeyedRows::counted(schema.clone(), link).unwrap();
        let mut single = KeyedRows::counted(schema, link).unwrap();
        let mut model: HashMap<Tuple, u32> = HashMap::new();
        let draw = |rng: &mut StdRng, wide: u64| {
            Tuple::from_slice(&(0..arity).map(|_| rng.random_range(0..wide)).collect::<Vec<_>>())
        };
        // Far more distinct rows than the empty table's 8 slots hold.
        let first: Vec<Tuple> = (0..300).map(|_| draw(&mut rng, 40)).collect();
        edit_both(&mut batched, &mut single, &mut model, &first, CountEdit::Add(1));
        let (mut enters, mut leaves) = (0, 0);
        for g in 0..groups {
            if g % 2 == 1 {
                // Adds: a narrow domain repeats rows inside the group (one
                // repeat is forced), a wide one brings new rows.
                let wide = if rng.random_range(0u32..2) == 0 { 3 } else { 60 };
                let len = rng.random_range(1usize..700);
                let mut group: Vec<Tuple> = (0..len).map(|_| draw(&mut rng, wide)).collect();
                group.push(group[0].clone());
                if arity == 1 {
                    group.push(Tuple::unary(bits_partner(group[0].as_slice()[0])));
                }
                let by = rng.random_range(1u32..4);
                enters += edit_both(&mut batched, &mut single, &mut model, &group, CountEdit::Add(by))
                    .len();
            } else if !batched.is_empty() {
                // Leaves: the row at position 0 loses every support, the
                // last row (which its eviction moves) comes at the end,
                // and in between a shuffled share of every other row's
                // supports. (With one row, that row is all of it.)
                let head = Tuple::from_slice(batched.row(0));
                let last = Tuple::from_slice(batched.row(batched.len() - 1));
                let mut middle = Vec::new();
                for (row, &count) in &model {
                    if *row != head && *row != last {
                        let take = rng.random_range(0..count + 1);
                        middle.extend(std::iter::repeat_n(row.clone(), take as usize));
                    }
                }
                shuffle(&mut rng, &mut middle);
                let mut group = vec![head.clone(); model[&head] as usize];
                if last != head {
                    group.extend(middle);
                    group.push(last);
                }
                leaves += edit_both(&mut batched, &mut single, &mut model, &group, CountEdit::Sub(1))
                    .len();
                prop_assert!(!batched.contains(head.as_slice()));
            }
            prop_assert_eq!(&batched, &single);
            prop_assert!(batched.rows().eq(single.rows()), "rows at the same positions");
            check(&batched, &model, true, &[]);
        }
        prop_assert!(enters > 0 || arity == 0);
        prop_assert!(leaves > 0);
    }
}

/// `π_vars(rel)` with support counts the way the index build fills it:
/// every tuple adds one support to its projection.
fn counted_projection(rel: &Relation, vars: VarSet) -> KeyedRows {
    let positions = rel.schema().positions_of_set(vars).unwrap();
    let mut out = KeyedRows::counted(Schema::of(vars.iter()), vars).unwrap();
    let mut row = Vec::new();
    for t in rel.iter() {
        t.project_into(&positions, &mut row);
        out.add(&row, 1);
    }
    out
}

#[test]
fn a_counted_projection_is_the_view_and_its_support() {
    // π_{x0,x2} of a ternary relation: (1, ·, 5) is supported twice.
    let rel = Relation::from_tuples(
        "J",
        Schema::of([0, 1, 2]),
        [
            Tuple::triple(1, 2, 5),
            Tuple::triple(1, 3, 5),
            Tuple::triple(4, 2, 6),
        ],
    )
    .unwrap();
    let vars = VarSet::from_iter([0, 2]);
    let counted = counted_projection(&rel, vars);
    assert_eq!(counted.schema(), &Schema::of([0, 2]));
    assert_eq!(counted.len(), 2);
    assert_eq!(counted.count(&[1, 5]), 2);
    assert_eq!(counted.count(&[4, 6]), 1);
    assert_eq!(counted.count(&[4, 5]), 0);
    assert_eq!(counted.to_relation("π"), rel.project_onto(vars).unwrap());
    // The Boolean view: one empty row supported by every tuple.
    let boolean = counted_projection(&rel, VarSet::EMPTY);
    assert_eq!((boolean.len(), boolean.count(&[])), (1, 3));
    assert!(boolean.contains_key(&[]));
    assert!(KeyedRows::counted(Schema::of([0, 2]), VarSet::from_iter([7])).is_err());
}

#[test]
fn keys_are_in_ascending_variable_order_whatever_the_column_order() {
    // Columns (x2, x0): the full link's key is (x0, x2), not the row, so
    // the structure must not mistake one for the other.
    let rel = Relation::from_tuples(
        "R",
        Schema::of([2, 0]),
        [Tuple::pair(20, 1), Tuple::pair(21, 1), Tuple::pair(1, 20)],
    )
    .unwrap();
    let link = VarSet::from_iter([0, 2]);
    let mut rows = KeyedRows::from_relation(&rel, link).unwrap();
    let index = HashIndex::build(&rel, link).unwrap();
    for key in [[1, 20], [20, 1], [1, 21], [21, 1]] {
        let expected = sorted(
            index
                .probe(&Tuple::from_slice(&key))
                .iter()
                .map(Tuple::to_vec)
                .collect(),
        );
        assert_eq!(probed(&rows, &key), expected, "key {key:?}");
        assert_eq!(rows.contains_key(&key), !expected.is_empty());
    }
    assert_eq!(probed(&rows, &[1, 20]), vec![vec![20, 1]]);
    assert!(rows.remove(&[20, 1]));
    assert!(!rows.contains_key(&[1, 20]));
    assert!(rows.contains_key(&[20, 1]));
}
