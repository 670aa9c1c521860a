//! Batched mutation of the authenticated map is only a cheaper way to the
//! same tree: after every batch the root equals that of the same operations
//! applied one at a time and that of a fresh map built from the resulting
//! contents in a shuffled order, and every digest a reader can reach is
//! valid (each live key proves against the root).

use std::collections::BTreeMap;

use harmony_common::DetRng;
use harmony_crypto::AuthMap;
use proptest::prelude::*;

/// Keys come from a small universe so overwrites, removes of present keys
/// and repeats inside one batch are common.
const UNIVERSE: u8 = 48;

#[derive(Clone, Debug)]
enum Op {
    Upsert(u8, u8),
    Remove(u8),
}

fn key(id: u8) -> Vec<u8> {
    format!("row-{id:03}").into_bytes()
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
            let mut open = batched.batch();
            for op in ops {
                // Same answer about "was new" / "was present" on both maps
                // and the model, mid-batch included.
                match op {
                    Op::Upsert(k, v) => {
                        let new = model.insert(key(*k), value(*v)).is_none();
                        prop_assert_eq!(open.upsert(&key(*k), &value(*v)), new);
                        prop_assert_eq!(single.upsert(&key(*k), &value(*v)), new);
                    }
                    Op::Remove(k) => {
                        let present = model.remove(&key(*k)).is_some();
                        prop_assert_eq!(open.remove(&key(*k)), present);
                        prop_assert_eq!(single.remove(&key(*k)), present);
                    }
                }
            }
            open.finish();

            let mut fresh = AuthMap::new();
            let mut build = fresh.batch();
            for (k, v) in shuffled(&model, seed ^ n as u64) {
                build.upsert(k, v);
            }
            drop(build);

            let root = batched.root();
            prop_assert_eq!(root, single.root(), "batch {} vs one at a time", n);
            prop_assert_eq!(root, fresh.root(), "batch {} vs fresh build", n);
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
