//! Incremental-commitment equivalence properties across all five engines.
//!
//! The invariant: the incrementally folded state commitment (the cached
//! [`OeChain::state_root`]) is **bit-identical** to the full-scan oracle
//! [`harmony_chain::state_root`] after every block, across crash
//! recovery at every block boundary, and after a checkpoint-manifest
//! install — for every engine kind and workload mix.

use std::sync::Arc;

use harmony_chain::{fold_table_roots, state_root, ChainConfig, OeChain, StateSnapshot};
use harmony_common::{BlockId, DetRng};
use harmony_crypto::AuthMap;
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_workloads::{Smallbank, SmallbankConfig, Workload, Ycsb, YcsbConfig};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Mix {
    Smallbank,
    Ycsb,
}

struct Fixture {
    chain: OeChain,
    codec: Arc<dyn harmony_txn::ContractCodec>,
    workload: Box<dyn Workload>,
}

fn fixture(kind: EngineKind, mix: Mix, checkpoint_every: u64) -> Fixture {
    let config = ChainConfig {
        checkpoint_every,
        ..ChainConfig::in_memory()
    };
    let chain = OeChain::open(config, EngineSpec::flat(kind, 2)).unwrap();
    let mut workload: Box<dyn Workload> = match mix {
        Mix::Smallbank => Box::new(Smallbank::new(SmallbankConfig {
            accounts: 100,
            theta: 0.7,
            ..SmallbankConfig::default()
        })),
        Mix::Ycsb => Box::new(Ycsb::new(YcsbConfig {
            keys: 120,
            theta: 0.8,
            ..YcsbConfig::default()
        })),
    };
    workload.setup(chain.engine()).unwrap();
    let mut f = Fixture {
        chain,
        codec: workload.codec(),
        workload,
    };
    f.chain.checkpoint().unwrap();
    f
}

/// Assert the cached incremental root equals the full-scan oracle.
fn assert_root_matches_oracle(chain: &OeChain, context: &str) {
    let incremental = chain.state_root().unwrap();
    let oracle = state_root(chain.engine()).unwrap();
    assert_eq!(
        incremental, oracle,
        "{context}: incremental commitment diverged from full-scan oracle"
    );
    assert!(
        chain.root_is_cached(),
        "{context}: root not cached after state_root()"
    );
}

#[test]
fn incremental_root_matches_oracle_after_every_block_all_engines() {
    for kind in EngineKind::ALL {
        for mix in [Mix::Smallbank, Mix::Ycsb] {
            let mut f = fixture(kind, mix, 3);
            let mut rng = DetRng::new(0x600D);
            for b in 1..=6u64 {
                let txns = f.workload.next_block(&mut rng, 12);
                f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
                assert_root_matches_oracle(
                    &f.chain,
                    &format!("{} ({mix:?}) block {b}", kind.name()),
                );
            }
        }
    }
}

#[test]
fn recovery_at_every_boundary_preserves_commitment_all_engines() {
    const BLOCKS: u64 = 6;
    for kind in EngineKind::ALL {
        for crash_at in 1..=BLOCKS {
            let mut f = fixture(kind, Mix::Smallbank, 2);
            let mut rng = DetRng::new(0xC4A5);
            for b in 1..=BLOCKS {
                let txns = f.workload.next_block(&mut rng, 10);
                f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
                if b == crash_at {
                    let before = f.chain.state_root().unwrap();
                    f.chain.crash_and_recover(f.codec.as_ref()).unwrap();
                    assert_eq!(f.chain.height(), BlockId(b), "recovery lost height");
                    assert_eq!(
                        f.chain.state_root().unwrap(),
                        before,
                        "{}: root changed across crash at block {b}",
                        kind.name()
                    );
                }
            }
            assert_root_matches_oracle(
                &f.chain,
                &format!("{} after crash at {crash_at}", kind.name()),
            );
        }
    }
}

#[test]
fn snapshot_install_rebuilds_matching_commitment() {
    // Peer runs 5 blocks and exports a manifest; a fresh joiner installs
    // it. The joiner's rebuilt commitment must equal both the oracle over
    // its own engine and the peer's incremental root — and stay equal
    // while both execute further identical blocks.
    let kind = EngineKind::Aria;
    let mut f = fixture(kind, Mix::Ycsb, 3);
    let mut rng = DetRng::new(0x1057);
    for _ in 0..5 {
        let txns = f.workload.next_block(&mut rng, 12);
        f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
    }
    let snap = f.chain.export_snapshot().unwrap();

    // Same engine kind as the peer: replicas replaying identical blocks
    // must run identical protocols to commit identical txn subsets.
    let mut joiner = OeChain::open(
        ChainConfig {
            checkpoint_every: 3,
            ..ChainConfig::in_memory()
        },
        EngineSpec::flat(kind, 2),
    )
    .unwrap();
    joiner
        .install_snapshot(&StateSnapshot::decode(&snap.encode()).unwrap())
        .unwrap();
    assert_root_matches_oracle(&joiner, "joiner after install");
    assert_eq!(
        joiner.state_root().unwrap(),
        f.chain.state_root().unwrap(),
        "install must reproduce the peer's commitment root"
    );

    for b in 0..4 {
        let txns = f.workload.next_block(&mut rng, 12);
        let (sealed, _) = f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
        joiner
            .apply_sealed_block(&sealed, f.codec.as_ref())
            .unwrap();
        assert_root_matches_oracle(&joiner, &format!("joiner post-install block {b}"));
        assert_eq!(joiner.state_root().unwrap(), f.chain.state_root().unwrap());
    }
}

#[test]
fn row_proofs_verify_against_committed_state_root() {
    let mut f = fixture(EngineKind::Rbc, Mix::Ycsb, 4);
    let mut rng = DetRng::new(0xF00F);
    for _ in 0..4 {
        let txns = f.workload.next_block(&mut rng, 10);
        f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
    }
    let root = f.chain.state_root().unwrap();
    let (name, table) = f.chain.engine().list_tables()[0].clone();
    let rows = f
        .chain
        .engine()
        .scan_collect(table, b"", None, usize::MAX)
        .unwrap();
    assert!(!rows.is_empty());
    for item in rows.iter().take(8) {
        let (proof, heads) = f
            .chain
            .prove_row(table, &item.key)
            .unwrap()
            .expect("present row must prove");
        // The proof checks against its table head, and the heads fold to
        // the chain's state root — the full light-client chain of custody.
        let head = heads
            .iter()
            .find(|(n, _)| n == &name)
            .expect("proved table missing from heads")
            .1;
        assert!(AuthMap::verify(&head, &item.key, &item.value, &proof));
        assert!(!AuthMap::verify(&head, &item.key, b"forged-value", &proof));
        assert_eq!(fold_table_roots(&heads), root);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized workloads, engines, checkpoint periods, and crash
    /// points: the incremental root always equals the full-scan oracle,
    /// including immediately after recovery.
    #[test]
    fn random_workloads_keep_incremental_root_equal_to_oracle(
        seed in 0u64..1_000,
        engine_idx in 0usize..5,
        mix_sel in 0u8..2,
        checkpoint_every in 1u64..5,
        crash_at in 1u64..7,
        block_size in 6usize..16,
    ) {
        let kind = EngineKind::ALL[engine_idx];
        let mix = if mix_sel == 0 { Mix::Smallbank } else { Mix::Ycsb };
        let mut f = fixture(kind, mix, checkpoint_every);
        let mut rng = DetRng::new(seed);
        for b in 1..=6u64 {
            let txns = f.workload.next_block(&mut rng, block_size);
            f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
            if b == crash_at {
                f.chain.crash_and_recover(f.codec.as_ref()).unwrap();
            }
            let incremental = f.chain.state_root().unwrap();
            let oracle = state_root(f.chain.engine()).unwrap();
            prop_assert_eq!(
                incremental,
                oracle,
                "{} ({:?}, p={}) diverged at block {} (crash at {})",
                kind.name(),
                mix,
                checkpoint_every,
                b,
                crash_at
            );
        }
    }
}
