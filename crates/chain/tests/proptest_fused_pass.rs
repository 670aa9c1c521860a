//! The one-read apply pass against the pass it replaced.
//!
//! Applying a block reads each written key once: that read is also the
//! before-image the snapshot store records, and the value written is the
//! after-image it hands the chain, which folds its state commitment
//! without reading a row. The invariant, for every engine (and Harmony
//! with coalescence off, whose later writers of a key go through
//! `overwrite_in_block`), after every block of random inserts, updates,
//! deletes and read-modify-writes on present and missing rows:
//!
//! * `writes_in(id)` is exactly the engine's post-state of the keys
//!   `keys_written_in(id)` names;
//! * `read_at(id − 1)` of each of those keys is its value before the block;
//! * the commitment folded by value equals the full-scan oracle.

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_chain::StateCommitment;
use harmony_common::ids::TableId;
use harmony_common::BlockId;
use harmony_core::executor::ExecBlock;
use harmony_core::{HarmonyConfig, SnapshotStore};
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_txn::{Contract, FnContract, Key, TxnCtx, UserAbort, Value};
use proptest::prelude::*;

/// Rows the blocks touch; genesis loads the even ones.
const KEYS: u64 = 24;

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u64),
    /// Insert or update, with a value of the given length.
    Put(u64, u8),
    Delete(u64),
    /// Read-modify-write of the row's first 8 bytes: a no-op when the row
    /// is missing (or shorter).
    Add(u64, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS).prop_map(Op::Read),
        (0..KEYS, 1u8..120).prop_map(|(k, len)| Op::Put(k, len)),
        (0..KEYS).prop_map(Op::Delete),
        (0..KEYS, -50i64..50).prop_map(|(k, d)| Op::Add(k, d)),
    ]
}

fn contract(t: TableId, ops: Vec<Op>) -> Arc<dyn Contract> {
    Arc::new(FnContract::new("mixed", move |ctx: &mut TxnCtx<'_>| {
        for op in &ops {
            match *op {
                Op::Read(k) => {
                    ctx.read(&Key::from_u64(t, k))
                        .map_err(|e| UserAbort(e.to_string()))?;
                }
                Op::Put(k, len) => ctx.put(Key::from_u64(t, k), vec![len; usize::from(len)]),
                Op::Delete(k) => ctx.delete(Key::from_u64(t, k)),
                Op::Add(k, d) => ctx.add_i64(Key::from_u64(t, k), 0, d),
            }
        }
        Ok(())
    }))
}

/// The engine's rows of `t`.
fn rows(engine: &StorageEngine, t: TableId) -> BTreeMap<Vec<u8>, Value> {
    engine
        .scan_collect(t, b"", None, usize::MAX)
        .unwrap()
        .into_iter()
        .map(|item| (item.key, Value::from(item.value)))
        .collect()
}

/// Run `blocks` on a fresh store under `kind`, checking the invariants of
/// the module docs after every block.
fn check(kind: EngineKind, blocks: &[Vec<Vec<Op>>]) {
    let name = kind.name();
    let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
    let t = engine.create_table("t").unwrap();
    for k in (0..KEYS).step_by(2) {
        engine.put(t, &k.to_be_bytes(), &k.to_le_bytes()).unwrap();
    }
    let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
    let dcc = EngineSpec::flat(kind, 2).build(Arc::clone(&store));
    let mut commitment = StateCommitment::build(&engine).unwrap();
    let mut prev = None;
    for (b, txns) in blocks.iter().enumerate() {
        let id = BlockId(b as u64 + 1);
        let before = rows(&engine, t);
        let txns = txns.iter().map(|ops| contract(t, ops.clone())).collect();
        prev = dcc
            .execute_block(&ExecBlock::new(id, txns), prev.as_ref())
            .unwrap()
            .summary;

        let writes = store.writes_in(id).unwrap();
        let keys: Vec<Key> = writes.iter().map(|(key, _)| key.clone()).collect();
        assert_eq!(keys, store.keys_written_in(id), "{name} block {id}");
        let after = rows(&engine, t);
        for (key, value) in &writes {
            let row = key.row().to_vec();
            assert_eq!(
                value.as_ref(),
                after.get(&row),
                "{name} block {id}: after-image"
            );
            assert_eq!(
                store.read_at(BlockId(id.0 - 1), key).unwrap().as_ref(),
                before.get(&row),
                "{name} block {id}: before-image"
            );
        }
        // Every row the block changed is in its write-set.
        for k in 0..KEYS {
            let row = k.to_be_bytes().to_vec();
            if before.get(&row) != after.get(&row) {
                assert!(
                    keys.contains(&Key::from_u64(t, k)),
                    "{name} block {id}: row {k}"
                );
            }
        }

        commitment.fold_writes(&engine, &writes).unwrap();
        assert_eq!(
            commitment.root(),
            StateCommitment::build(&engine).unwrap().root(),
            "{name} block {id}: folded root"
        );
    }
}

/// The five engines, plus Harmony applying every writer of a key on its
/// own (`overwrite_in_block` for all but the first).
fn engines() -> Vec<EngineKind> {
    let mut kinds = EngineKind::ALL.to_vec();
    kinds.push(EngineKind::Harmony(HarmonyConfig {
        update_coalescence: false,
        ..HarmonyConfig::FULL
    }));
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fused_pass_equals_the_pass_it_replaced(
        blocks in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(op(), 1..5), 1..10),
            1..6,
        )
    ) {
        for kind in engines() {
            check(kind, &blocks);
        }
    }
}
