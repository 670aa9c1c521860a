//! End-to-end chain properties: replica consistency, crash recovery by
//! logical replay, and tamper detection.

use std::sync::Arc;

use harmony_chain::{ChainBlock, ChainConfig, OeChain};
use harmony_common::{BlockId, DetRng, Error};
use harmony_core::HarmonyConfig;
use harmony_crypto::KeyPair;
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_txn::{Contract, ContractCodec};
use harmony_workloads::{
    Smallbank, SmallbankCodec, SmallbankConfig, Workload, Ycsb, YcsbCodec, YcsbConfig,
};

fn ycsb_chain(seed_tag: u64, harmony: HarmonyConfig) -> (OeChain, Ycsb, YcsbCodec, DetRng) {
    let config = ChainConfig {
        checkpoint_every: 5,
        ..ChainConfig::in_memory()
    };
    let spec = EngineSpec::flat(EngineKind::Harmony(harmony), harmony.workers);
    let chain = OeChain::open(config, spec).unwrap();
    let mut workload = Ycsb::new(YcsbConfig {
        keys: 400,
        theta: 0.8,
        ..YcsbConfig::default()
    });
    workload.setup(chain.engine()).unwrap();
    let codec = YcsbCodec {
        table: workload.table(),
    };
    (chain, workload, codec, DetRng::new(0xC0FFEE ^ seed_tag))
}

#[test]
fn replica_consistency_across_worker_counts() {
    // Two replicas with different parallelism degrees fed identical blocks
    // must converge to identical state roots and block hashes.
    let run = |workers: usize| {
        let (mut chain, workload, codec, mut rng) = ycsb_chain(
            1,
            HarmonyConfig {
                workers,
                ..HarmonyConfig::default()
            },
        );
        for _ in 0..12 {
            let txns = workload.next_block(&mut rng, 20);
            chain.submit_block(txns, &codec).unwrap();
        }
        (chain.state_root().unwrap(), chain.last_hash())
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.0, b.0, "state roots diverged");
    assert_eq!(a.1, b.1, "chain hashes diverged");
}

#[test]
fn oe_recovery_replays_to_identical_state() {
    let (mut crashing, workload, codec, mut rng) = ycsb_chain(2, HarmonyConfig::default());
    let (mut witness, _, codec_w, mut rng_w) = ycsb_chain(2, HarmonyConfig::default());
    // Same transaction stream to both replicas.
    for _ in 0..13 {
        let txns = workload.next_block(&mut rng, 15);
        let txns_w = workload.next_block(&mut rng_w, 15);
        crashing.submit_block(txns, &codec).unwrap();
        witness.submit_block(txns_w, &codec_w).unwrap();
    }
    assert_eq!(crashing.height(), BlockId(13));
    let pre_crash_root = crashing.state_root().unwrap();
    assert_eq!(pre_crash_root, witness.state_root().unwrap());

    // Crash after block 13 (last checkpoint at block 10) and recover by
    // deterministic replay.
    crashing.crash_and_recover(&codec).unwrap();
    assert_eq!(crashing.height(), BlockId(13));
    assert_eq!(
        crashing.state_root().unwrap(),
        pre_crash_root,
        "logical replay must reproduce the exact pre-crash state"
    );
    assert_eq!(crashing.last_hash(), witness.last_hash());

    // The chain keeps working after recovery and stays consistent.
    for _ in 0..3 {
        let txns = workload.next_block(&mut rng, 15);
        let txns_w = workload.next_block(&mut rng_w, 15);
        crashing.submit_block(txns, &codec).unwrap();
        witness.submit_block(txns_w, &codec_w).unwrap();
    }
    assert_eq!(
        crashing.state_root().unwrap(),
        witness.state_root().unwrap()
    );
}

#[test]
fn oe_recovery_without_any_checkpoint() {
    let config = ChainConfig {
        checkpoint_every: 1_000, // never reached
        ..ChainConfig::in_memory()
    };
    let mut chain = OeChain::open(config, EngineSpec::default()).unwrap();
    let mut workload = Ycsb::new(YcsbConfig {
        keys: 100,
        ..YcsbConfig::default()
    });
    workload.setup(chain.engine()).unwrap();
    let codec = YcsbCodec {
        table: workload.table(),
    };
    let mut rng = DetRng::new(3);
    for _ in 0..4 {
        chain
            .submit_block(workload.next_block(&mut rng, 10), &codec)
            .unwrap();
    }
    let root = chain.state_root().unwrap();
    chain.crash_and_recover(&codec).unwrap();
    // Without a checkpoint the initial load is gone, so there is no base
    // state to replay onto: recovery must honestly report total local
    // loss (height 0, empty catalog, no bogus replay) — the node is now
    // a state-sync bootstrap candidate.
    assert_eq!(chain.height(), BlockId(0), "no checkpoint ⇒ total loss");
    assert!(
        chain.engine().list_tables().is_empty(),
        "no tables must survive a checkpoint-less crash"
    );
    // A replica with the genesis state can still reproduce the chain:
    let mut fresh = OeChain::open(
        ChainConfig {
            checkpoint_every: 1_000,
            ..ChainConfig::in_memory()
        },
        EngineSpec::default(),
    )
    .unwrap();
    let mut w2 = Ycsb::new(YcsbConfig {
        keys: 100,
        ..YcsbConfig::default()
    });
    w2.setup(fresh.engine()).unwrap();
    let mut rng2 = DetRng::new(3);
    for _ in 0..4 {
        fresh
            .submit_block(w2.next_block(&mut rng2, 10), &codec)
            .unwrap();
    }
    assert_eq!(fresh.state_root().unwrap(), root);
}

#[test]
fn tampered_block_log_detected() {
    use harmony_txn::ContractCodec;
    let (mut chain, workload, codec, mut rng) = ycsb_chain(4, HarmonyConfig::default());
    for _ in 0..3 {
        chain
            .submit_block(workload.next_block(&mut rng, 5), &codec)
            .unwrap();
    }
    chain.verify_chain().unwrap();

    // Tamper: decode block 2 from the log, alter a transaction, re-encode
    // — verification must reject it because the Merkle root breaks.
    let blocks = chain.verify_chain().unwrap();
    let mut tampered = blocks[1].clone();
    tampered.txns[0] = codec
        .encode(harmony_workloads::ycsb::build_txn(workload.table(), vec![(0, 1, 999)]).as_ref());
    let prev = blocks[0].header.hash();
    let verifier =
        harmony_crypto::Verifier::new(b"harmonybc-cluster", harmony_crypto::CryptoCost::free());
    assert!(tampered.verify(&prev, &verifier).is_err());
}

#[test]
fn smallbank_conservation_across_recovery() {
    let config = ChainConfig {
        checkpoint_every: 4,
        ..ChainConfig::in_memory()
    };
    let mut chain = OeChain::open(config, EngineSpec::default()).unwrap();
    let mut workload = Smallbank::new(SmallbankConfig {
        accounts: 200,
        theta: 0.9,
        ..SmallbankConfig::default()
    });
    workload.setup(chain.engine()).unwrap();
    let (checking, savings) = workload.tables();
    let codec = SmallbankCodec { checking, savings };
    let mut rng = DetRng::new(5);
    for _ in 0..9 {
        chain
            .submit_block(workload.next_block(&mut rng, 25), &codec)
            .unwrap();
    }
    let root = chain.state_root().unwrap();
    chain.crash_and_recover(&codec).unwrap();
    assert_eq!(chain.state_root().unwrap(), root);
}

#[test]
fn aria_as_chain_engine() {
    let spec = EngineSpec::flat(EngineKind::Aria, 8);
    let mut chain = OeChain::open(ChainConfig::in_memory(), spec).unwrap();
    assert_eq!(chain.dcc().name(), "AriaBC");
    let mut workload = Ycsb::new(YcsbConfig {
        keys: 200,
        ..YcsbConfig::default()
    });
    workload.setup(chain.engine()).unwrap();
    let codec = YcsbCodec {
        table: workload.table(),
    };
    let mut rng = DetRng::new(7);
    let (_, res) = chain
        .submit_block(workload.next_block(&mut rng, 10), &codec)
        .unwrap();
    assert!(res.stats.committed > 0, "AriaBC runs on the same framework");
}

#[test]
fn chain_refuses_a_block_that_is_not_next() {
    // Engines hold no block id: the chain's id check is the one guard of
    // block order, for every engine. Blocks sealed by the chain's own
    // orderer on its own tip verify, so only the id can refuse them — and
    // it must do so before the block is logged or executed.
    for kind in EngineKind::ALL {
        let config = ChainConfig::in_memory();
        let orderer = KeyPair::derive(&config.provision, config.orderer_id, config.crypto);
        let mut chain = OeChain::open(config, EngineSpec::flat(kind, 2)).unwrap();
        let mut workload = Ycsb::new(YcsbConfig {
            keys: 200,
            ..YcsbConfig::default()
        });
        workload.setup(chain.engine()).unwrap();
        let codec = YcsbCodec {
            table: workload.table(),
        };
        let mut rng = DetRng::new(11);
        for _ in 0..3 {
            chain
                .submit_block(workload.next_block(&mut rng, 10), &codec)
                .unwrap();
        }
        let observe = |chain: &OeChain| {
            (
                chain.height(),
                chain.last_hash(),
                chain.state_root().unwrap(),
                chain.engine().block_log().read_all().unwrap().len(),
            )
        };
        let before = observe(&chain);
        let tip = chain.height();
        let txns: Vec<Arc<dyn Contract>> = workload.next_block(&mut rng, 10);
        let seal = |id: BlockId| {
            let encoded = txns.iter().map(|t| codec.encode(t.as_ref())).collect();
            ChainBlock::seal(id, before.1, encoded, &orderer)
        };
        for id in [BlockId(tip.0 + 2), tip] {
            let err = chain.apply_sealed_block(&seal(id), &codec).unwrap_err();
            assert!(
                matches!(err, Error::InvalidArgument(_)),
                "{}: block {id} on tip {tip}: {err}",
                kind.name()
            );
            assert_eq!(observe(&chain), before, "{}: block {id}", kind.name());
        }
        chain.apply_sealed_block(&seal(tip.next()), &codec).unwrap();
        assert_eq!(chain.height(), tip.next(), "{}", kind.name());
    }
}
