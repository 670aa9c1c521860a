//! A sorted run is only a cheaper way to the same tree: after every batch
//! the root of a map that took it as one [`AuthMap::apply_sorted`] equals
//! that of the same operations applied one at a time, that of a fresh map
//! upserted from the resulting contents in a shuffled order and that of an
//! [`AuthMapBuilder`] fed them in key order; and every digest a reader can
//! reach is valid (each live key proves against the root). Keys run from 7
//! to 24 bytes, and several share their first eight bytes, so runs cross
//! both the inline-key and the arena-tail paths.

use std::collections::BTreeMap;

use harmony_common::DetRng;
use harmony_crypto::{AuthMap, AuthMapBuilder};
use proptest::prelude::*;

/// Keys come from a small universe so overwrites, removes of present keys
/// and repeats inside one batch are common.
const UNIVERSE: u8 = 48;

#[derive(Clone, Debug)]
enum Op {
    Upsert(u8, u8),
    Remove(u8),
}

/// Key `id`: an 8-byte integer, a 7-byte name, that name's neighbour plus
/// a zero and 0 to 16 more bytes (the same head, so the tail or the length
/// decides), or a 12- to 24-byte key whose first eight bytes every such key
/// shares.
fn key(id: u8) -> Vec<u8> {
    match id % 4 {
        0 => u64::from(id).to_be_bytes().to_vec(),
        1 => format!("row-{id:03}").into_bytes(),
        2 => {
            let mut k = format!("row-{:03}\0", id - 1).into_bytes();
            k.resize(8 + usize::from(id % 17), b'x');
            k
        }
        _ => {
            let mut k = format!("long-key-{id:03}").into_bytes();
            k.resize(12 + usize::from(id % 13), 0xEE);
            k
        }
    }
}

fn value(v: u8) -> Vec<u8> {
    vec![v; usize::from(v % 5)]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..UNIVERSE, any::<u8>()).prop_map(|(k, v)| Op::Upsert(k, v)),
        (0..UNIVERSE, any::<u8>()).prop_map(|(k, v)| Op::Upsert(k, v)),
        (0..UNIVERSE).prop_map(Op::Remove),
    ]
}

/// A batch: random operations (possibly none; the same key may recur, so
/// last-wins and upsert-then-remove both occur), a write-then-remove of one
/// key, or a removal of every key of the universe, present or not.
fn batch() -> impl Strategy<Value = Vec<Op>> {
    prop_oneof![
        prop::collection::vec(op(), 0..40),
        prop::collection::vec(op(), 0..40),
        prop::collection::vec(op(), 0..6),
        (0..UNIVERSE, any::<u8>(), any::<u8>()).prop_map(|(k, a, b)| vec![
            Op::Upsert(k, a),
            Op::Upsert(k, b),
            Op::Remove(k)
        ]),
        Just((0..UNIVERSE).map(Op::Remove).collect::<Vec<Op>>()),
    ]
}

fn shuffled(model: &BTreeMap<Vec<u8>, Vec<u8>>, seed: u64) -> Vec<(&Vec<u8>, &Vec<u8>)> {
    let mut rows: Vec<_> = model.iter().collect();
    DetRng::new(seed).shuffle(&mut rows);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batch_equals_one_at_a_time_equals_fresh_build(
        batches in prop::collection::vec(batch(), 1..10),
        seed in any::<u64>(),
    ) {
        let mut batched = AuthMap::new();
        let mut single = AuthMap::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (n, ops) in batches.iter().enumerate() {
            // The batch as one sorted run: each key's last write wins.
            let mut run: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
            for op in ops {
                // Same answer about "was new" / "was present" on the
                // one-at-a-time map and the model.
                match op {
                    Op::Upsert(k, v) => {
                        let new = model.insert(key(*k), value(*v)).is_none();
                        prop_assert_eq!(single.upsert(&key(*k), &value(*v)), new);
                        run.insert(key(*k), Some(value(*v)));
                    }
                    Op::Remove(k) => {
                        let present = model.remove(&key(*k)).is_some();
                        prop_assert_eq!(single.remove(&key(*k)), present);
                        run.insert(key(*k), None);
                    }
                }
            }
            batched.apply_sorted(run.iter().map(|(k, v)| (k.as_slice(), v.as_deref())));

            let mut fresh = AuthMap::new();
            for (k, v) in shuffled(&model, seed ^ n as u64) {
                fresh.upsert(k, v);
            }
            let mut builder = AuthMapBuilder::new();
            for (k, v) in &model {
                builder.push(k, v);
            }
            let built = builder.finish();

            let root = batched.root();
            prop_assert_eq!(root, single.root(), "batch {} vs one at a time", n);
            prop_assert_eq!(root, fresh.root(), "batch {} vs fresh upserts", n);
            prop_assert_eq!(root, built.root(), "batch {} vs sorted build", n);
            prop_assert_eq!(built.len(), model.len());
            prop_assert_eq!(batched.len(), model.len());
            prop_assert_eq!(single.len(), model.len());
            prop_assert_eq!(batched.is_empty(), model.is_empty());
            for id in 0..UNIVERSE {
                let k = key(id);
                match (model.get(&k), batched.prove(&k)) {
                    (Some(v), Some(proof)) => {
                        prop_assert!(AuthMap::verify(&root, &k, v, &proof), "key {}", id);
                        prop_assert_eq!(Some(proof), fresh.prove(&k));
                    }
                    (None, None) => prop_assert!(!batched.contains(&k)),
                    (live, proof) => panic!(
                        "key {id}: model has it: {}, map proves it: {}",
                        live.is_some(),
                        proof.is_some()
                    ),
                }
            }
        }
    }
}
