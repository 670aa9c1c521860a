//! Workspace-level integration tests: the full stack (storage → DCC →
//! chain → workloads) exercised through the facade crate.

use std::sync::Arc;

use harmonybc::baselines::{DccEngine, EngineKind, EngineSpec, Rbc};
use harmonybc::chain::{ChainConfig, OeChain};
use harmonybc::common::{BlockId, DetRng};
use harmonybc::core::executor::ExecBlock;
use harmonybc::core::{BlockStats, HarmonyConfig, SnapshotStore};
use harmonybc::storage::{StorageConfig, StorageEngine};
use harmonybc::workloads::{
    Smallbank, SmallbankCodec, SmallbankConfig, Tpcc, TpccConfig, Workload, Ycsb, YcsbCodec,
    YcsbConfig,
};

#[test]
fn five_replicas_converge_on_ycsb() {
    // Five replicas with different worker counts and ablation configs that
    // do not change semantics... (worker counts only; the protocol config
    // must be identical for identical outcomes).
    let roots: Vec<_> = [1usize, 2, 4, 6, 8]
        .into_iter()
        .map(|workers| {
            let harmony = EngineKind::Harmony(HarmonyConfig::default());
            let mut chain =
                OeChain::open(ChainConfig::in_memory(), EngineSpec::flat(harmony, workers))
                    .unwrap();
            let mut w = Ycsb::new(YcsbConfig {
                keys: 500,
                theta: 0.9,
                ..YcsbConfig::default()
            });
            w.setup(chain.engine()).unwrap();
            let codec = YcsbCodec { table: w.table() };
            let mut rng = DetRng::new(12345);
            for _ in 0..10 {
                chain
                    .submit_block(w.next_block(&mut rng, 25), &codec)
                    .unwrap();
            }
            (chain.state_root().unwrap(), chain.last_hash())
        })
        .collect();
    for pair in roots.windows(2) {
        assert_eq!(pair[0], pair[1], "replica divergence");
    }
}

#[test]
fn smallbank_send_payments_conserve_money() {
    // SendPayment/Amalgamate only move money; Balance only reads. A pure
    // payment mix must leave the total balance invariant under Harmony,
    // whatever the contention.
    use harmonybc::txn::row::read_i64;
    use harmonybc::workloads::smallbank::{build_txn, Procedure, BALANCE_OFFSET, INITIAL_BALANCE};

    let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
    let mut bank = Smallbank::new(SmallbankConfig {
        accounts: 50,
        theta: 0.0,
        ..SmallbankConfig::default()
    });
    bank.setup(&engine).unwrap();
    let (checking, savings) = bank.tables();
    let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
    let exec = harmonybc::core::BlockExecutor::new(Arc::clone(&store), HarmonyConfig::default());
    let mut rng = DetRng::new(31);
    let mut prev = None;
    for b in 1..=15u64 {
        let txns = (0..20)
            .map(|_| {
                let a0 = rng.gen_range(50);
                let a1 = (a0 + 1 + rng.gen_range(49)) % 50;
                let amount = 1 + rng.gen_range(50) as i64;
                build_txn(checking, savings, Procedure::SendPayment, a0, a1, amount)
            })
            .collect();
        let result = exec
            .execute(&ExecBlock::new(BlockId(b), txns), prev.as_ref())
            .unwrap();
        prev = Some(result.summary);
    }
    let mut total = 0i64;
    for table in [checking, savings] {
        engine
            .scan(table, b"", None, |_, v| {
                total += read_i64(v, BALANCE_OFFSET).unwrap();
                true
            })
            .unwrap();
    }
    assert_eq!(total, 2 * 50 * INITIAL_BALANCE, "money must be conserved");
}

#[test]
fn tpcc_runs_on_rbc_and_harmony_with_same_inputs() {
    // Different DCC protocols may commit different subsets, but both must
    // stay serializable and make progress on the relational workload.
    let run = |use_rbc: bool| -> BlockStats {
        let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
        let mut tpcc = Tpcc::new(TpccConfig {
            warehouses: 1,
            scale: 0.01,
            ..TpccConfig::default()
        });
        tpcc.setup(&engine).unwrap();
        let store = Arc::new(SnapshotStore::new(engine));
        let dcc: Arc<dyn DccEngine> = if use_rbc {
            Arc::new(Rbc::new(Arc::clone(&store), 4))
        } else {
            Arc::new(harmonybc::baselines::HarmonyEngine::new(
                Arc::clone(&store),
                HarmonyConfig::default(),
            ))
        };
        let mut rng = DetRng::new(77);
        let mut totals = BlockStats::default();
        let mut prev = None;
        for b in 1..=6u64 {
            let block = ExecBlock::new(BlockId(b), tpcc.next_block(&mut rng, 15));
            let result = dcc.execute_block(&block, prev.as_ref()).unwrap();
            totals.absorb(&result.stats);
            prev = result.summary;
        }
        totals
    };
    let harmony = run(false);
    let rbc = run(true);
    assert!(harmony.committed > 0 && rbc.committed > 0);
    assert!(
        harmony.committed >= rbc.committed,
        "harmony={harmony} rbc={rbc}"
    );
}

#[test]
fn recovery_preserves_chain_across_smallbank_checkpoints() {
    let config = ChainConfig {
        checkpoint_every: 3,
        ..ChainConfig::in_memory()
    };
    let mut chain = OeChain::open(config, EngineSpec::default()).unwrap();
    let mut bank = Smallbank::new(SmallbankConfig {
        accounts: 100,
        theta: 0.8,
        ..SmallbankConfig::default()
    });
    bank.setup(chain.engine()).unwrap();
    let (checking, savings) = bank.tables();
    let codec = SmallbankCodec { checking, savings };
    let mut rng = DetRng::new(5);
    for _ in 0..8 {
        chain
            .submit_block(bank.next_block(&mut rng, 20), &codec)
            .unwrap();
    }
    let root = chain.state_root().unwrap();
    let tip = chain.last_hash();
    chain.crash_and_recover(&codec).unwrap();
    assert_eq!(chain.height(), BlockId(8));
    assert_eq!(chain.state_root().unwrap(), root);
    assert_eq!(chain.last_hash(), tip);
}

#[test]
fn prelude_exposes_entry_points() {
    use harmonybc::prelude::*;
    let chain = OeChain::open(ChainConfig::in_memory(), EngineSpec::default()).unwrap();
    assert_eq!(chain.height(), BlockId(0));
    let engine = StorageEngine::open(&StorageConfig::memory()).unwrap();
    let t = engine.create_table("x").unwrap();
    engine.put(t, b"k", b"v").unwrap();
    assert_eq!(engine.get(t, b"k").unwrap(), Some(b"v".to_vec()));
}
