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
//! the probed rows of every key, and the row dump.

use std::collections::HashMap;

use cqap_common::{Tuple, Val, VarSet};
use cqap_relation::{HashIndex, KeyedRows, Relation, Schema};
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
