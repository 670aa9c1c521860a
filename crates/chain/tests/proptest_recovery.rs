//! Crash-recovery properties across all five engines.
//!
//! The invariant: crashing an [`OeChain`] node at *any* block boundary —
//! checkpoint boundaries and mid-checkpoint-interval alike — and
//! recovering (checkpoint reload + deterministic replay on a rebuilt
//! engine) must reproduce the exact state root and chain hash of a
//! reference node that never crashed, for every engine kind — and every
//! site that rebuilds the engine rebuilds the one the chain was opened with,
//! and every site that restores a chain restores its Rule-3 summary.

use std::sync::Arc;

use harmony_chain::{ChainConfig, OeChain};
use harmony_common::error::AbortReason;
use harmony_common::{BlockId, DetRng, Error};
use harmony_core::executor::TxnOutcome;
use harmony_core::HarmonyConfig;
use harmony_crypto::Digest;
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_workloads::{ycsb, Smallbank, SmallbankConfig, Workload, Ycsb, YcsbCodec, YcsbConfig};
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

fn fixture(spec: EngineSpec, mix: Mix, checkpoint_every: u64) -> Fixture {
    let config = ChainConfig {
        checkpoint_every,
        ..ChainConfig::in_memory()
    };
    let chain = OeChain::open(config, spec).unwrap();
    let mut workload: Box<dyn Workload> = match mix {
        Mix::Smallbank => Box::new(Smallbank::new(SmallbankConfig {
            accounts: 120,
            theta: 0.7,
            ..SmallbankConfig::default()
        })),
        Mix::Ycsb => Box::new(Ycsb::new(YcsbConfig {
            keys: 150,
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
    // Genesis checkpoint: make the initial load durable, so a crash
    // before the first periodic checkpoint can still replay from block 1
    // (the discipline a production deployment would follow).
    f.chain.checkpoint().unwrap();
    f
}

/// Run `blocks` blocks, crashing (and recovering) after each block listed
/// in `crashes`. Returns (state root, last hash).
fn run(
    kind: EngineKind,
    mix: Mix,
    checkpoint_every: u64,
    seed: u64,
    blocks: u64,
    block_size: usize,
    crashes: &[u64],
) -> (Digest, Digest) {
    let mut f = fixture(EngineSpec::flat(kind, 2), mix, checkpoint_every);
    let mut rng = DetRng::new(seed);
    for b in 1..=blocks {
        let txns = f.workload.next_block(&mut rng, block_size);
        f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
        if crashes.contains(&b) {
            f.chain.crash_and_recover(f.codec.as_ref()).unwrap();
            assert_eq!(f.chain.height(), BlockId(b), "recovery lost height");
        }
    }
    (f.chain.state_root().unwrap(), f.chain.last_hash())
}

#[test]
fn crash_at_every_block_boundary_matches_reference_all_engines() {
    // checkpoint_every = 3 with 8 blocks: crash points cover checkpoint
    // boundaries (3, 6) and every mid-interval position.
    const BLOCKS: u64 = 8;
    for kind in EngineKind::ALL {
        let reference = run(kind, Mix::Smallbank, 3, 0xCAFE, BLOCKS, 15, &[]);
        for crash_at in 1..=BLOCKS {
            let crashed = run(kind, Mix::Smallbank, 3, 0xCAFE, BLOCKS, 15, &[crash_at]);
            assert_eq!(
                crashed,
                reference,
                "{}: crash after block {crash_at} diverged",
                kind.name()
            );
        }
    }
}

/// A recovered node restores the before-images of its sidecar's blocks,
/// not what those blocks left in their rows. Folding one of them must be a
/// typed error — never a fold that reads the unknown after-images as
/// deletes — while the blocks executed after recovery fold as usual.
#[test]
fn blocks_restored_from_the_sidecar_cannot_be_folded() {
    for kind in EngineKind::ALL {
        let mut f = fixture(EngineSpec::flat(kind, 2), Mix::Smallbank, 3);
        let mut rng = DetRng::new(0x51DE);
        for _ in 0..3 {
            let txns = f.workload.next_block(&mut rng, 12);
            f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
        }
        f.chain.crash_and_recover(f.codec.as_ref()).unwrap();
        let store = Arc::clone(f.chain.snapshots());
        let restored: Vec<BlockId> = (1..=3)
            .map(BlockId)
            .filter(|&b| !store.keys_written_in(b).is_empty())
            .collect();
        assert!(!restored.is_empty(), "{}: nothing restored", kind.name());
        for block in restored {
            assert!(
                matches!(store.writes_in(block), Err(Error::NotFound(_))),
                "{}: block {block} folded without its after-images",
                kind.name()
            );
        }
        let txns = f.workload.next_block(&mut rng, 12);
        f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
        assert_eq!(
            f.chain.state_root().unwrap(),
            harmony_chain::state_root(f.chain.engine()).unwrap(),
            "{}: the block after recovery",
            kind.name()
        );
    }
}

/// What identifies the engine a chain runs: the system, and the pipeline
/// depth that tells Harmony's flat profile (2) from its sharded one (1).
fn engine_identity(chain: &OeChain) -> (&'static str, usize) {
    (chain.dcc().name(), chain.dcc().pipeline_depth())
}

#[test]
fn every_rebuild_site_rebuilds_the_engine_the_chain_was_opened_with() {
    for kind in EngineKind::ALL {
        for spec in [EngineSpec::flat(kind, 2), EngineSpec::sharded(kind, 2)] {
            // Checkpointed crash: checkpoint reload + replay.
            let mut f = fixture(spec, Mix::Smallbank, 3);
            let opened_with = engine_identity(&f.chain);
            assert_eq!(opened_with.0, kind.name());
            let mut rng = DetRng::new(0xE61E);
            for _ in 0..4 {
                let txns = f.workload.next_block(&mut rng, 10);
                f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
            }
            let snapshot = f.chain.export_snapshot().unwrap();
            f.chain.crash_and_recover(f.codec.as_ref()).unwrap();
            assert_eq!(f.chain.height(), BlockId(4));
            assert_eq!(
                engine_identity(&f.chain),
                opened_with,
                "{spec:?} after crash_and_recover"
            );

            // Total loss: a node that never checkpointed resets to genesis.
            let config = ChainConfig {
                checkpoint_every: 1_000,
                ..ChainConfig::in_memory()
            };
            let mut lost = OeChain::open(config, spec).unwrap();
            f.workload.setup(lost.engine()).unwrap();
            let txns = f.workload.next_block(&mut rng, 10);
            lost.submit_block(txns, f.codec.as_ref()).unwrap();
            lost.crash_and_recover(f.codec.as_ref()).unwrap();
            assert_eq!(lost.height(), BlockId(0), "no checkpoint ⇒ total loss");
            assert_eq!(
                engine_identity(&lost),
                opened_with,
                "{spec:?} after total loss"
            );

            // Snapshot install, onto the node the total loss left empty.
            lost.install_snapshot(&snapshot).unwrap();
            assert_eq!(lost.height(), BlockId(4));
            assert_eq!(
                engine_identity(&lost),
                opened_with,
                "{spec:?} after install_snapshot"
            );
            // The rebuilt engines sit at the right block: both nodes take
            // the next one and agree on it.
            let txns = f.workload.next_block(&mut rng, 10);
            let (sealed, _) = f.chain.submit_block(txns, f.codec.as_ref()).unwrap();
            lost.apply_sealed_block(&sealed, f.codec.as_ref()).unwrap();
            assert_eq!(
                lost.state_root().unwrap(),
                f.chain.state_root().unwrap(),
                "{spec:?}: recovered and installed nodes diverged"
            );
        }
    }
}

/// Block `h + 1` aborts a transaction only because of block `h`: a write
/// skew across the two blocks, as in the core protocol tests. Under
/// inter-block parallelism block `h + 1` reads the state before block `h`,
/// and only block `h`'s Rule-3 summary says what it missed. The block must
/// be decided the same way, to the same state root, on the chain that ran
/// on, after `crash_and_recover` from the checkpoint at `h`, and on a
/// fresh chain that took the manifest at `h` through `catch_up`.
#[test]
fn the_rule3_summary_survives_every_rebuild_site() {
    const H: u64 = 3;
    let spec = EngineSpec::flat(EngineKind::Harmony(HarmonyConfig::default()), 2);
    let config = ChainConfig {
        checkpoint_every: H,
        ..ChainConfig::in_memory()
    };
    let mut workload = Ycsb::new(YcsbConfig {
        keys: 16,
        ..YcsbConfig::default()
    });
    let genesis = |workload: &mut Ycsb| {
        let chain = OeChain::open(config.clone(), spec).unwrap();
        workload.setup(chain.engine()).unwrap();
        chain
    };
    let mut ran_on = genesis(&mut workload);
    let mut crashed = genesis(&mut workload);
    let codec = YcsbCodec {
        table: workload.table(),
    };
    // `(key, 0, 0)` reads a key, `(key, 2, 1)` adds 1 to it.
    let txn = |ops: Vec<(u64, u8, i64)>| ycsb::build_txn(codec.table, ops);
    for b in 1..=H {
        let mut txns = vec![txn(vec![(8 + b, 2, 1)])];
        if b == H {
            txns.push(txn(vec![(0, 0, 0), (1, 2, 1)])); // reads 0, writes 1
        }
        let (sealed, _) = ran_on.submit_block(txns, &codec).unwrap();
        crashed.apply_sealed_block(&sealed, &codec).unwrap();
    }
    crashed.crash_and_recover(&codec).unwrap();
    let mut synced = OeChain::open(config.clone(), spec).unwrap();
    let manifest = ran_on.export_snapshot().unwrap();
    assert_eq!(synced.catch_up(Some(&manifest), &[], &codec).unwrap(), H);

    // Reads 1 (before block H wrote it) and writes 0 (which block H read).
    let skewed = vec![txn(vec![(1, 0, 0), (0, 2, 1)]), txn(vec![(12, 2, 1)])];
    let (sealed, expected) = ran_on.submit_block(skewed, &codec).unwrap();
    assert_eq!(
        expected.outcomes,
        [
            TxnOutcome::Aborted(AbortReason::BackwardDangerousStructure),
            TxnOutcome::Committed
        ],
        "block {} must abort the write skew across it and block {H}",
        H + 1
    );
    let root = ran_on.state_root().unwrap();
    for (site, mut chain) in [("crash_and_recover", crashed), ("catch_up", synced)] {
        assert_eq!(chain.height(), BlockId(H), "{site}");
        let result = chain.apply_sealed_block(&sealed, &codec).unwrap();
        assert_eq!(result.outcomes, expected.outcomes, "{site}: outcomes");
        assert_eq!(chain.state_root().unwrap(), root, "{site}: state root");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized crash schedules (including repeated crashes and
    /// checkpoint periods of 1..=5) reproduce the reference run for a
    /// randomly chosen engine and workload mix.
    #[test]
    fn random_crash_schedules_match_reference(
        seed in 0u64..1_000,
        engine_idx in 0usize..5,
        mix_sel in 0u8..2,
        checkpoint_every in 1u64..6,
        crash_a in 1u64..9,
        crash_b in 1u64..9,
    ) {
        let kind = EngineKind::ALL[engine_idx];
        let mix = if mix_sel == 0 { Mix::Smallbank } else { Mix::Ycsb };
        let mut crashes = vec![crash_a, crash_b];
        crashes.sort_unstable();
        crashes.dedup();
        let reference = run(kind, mix, checkpoint_every, seed, 8, 12, &[]);
        let crashed = run(kind, mix, checkpoint_every, seed, 8, 12, &crashes);
        prop_assert_eq!(
            crashed,
            reference,
            "{} ({:?}, p={}) diverged after crashes at {:?}",
            kind.name(),
            mix,
            checkpoint_every,
            crashes
        );
    }
}
