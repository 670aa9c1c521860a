//! Property tests for the sharded execution subsystem.
//!
//! The load-bearing property: for any seed / workload mix / engine, a
//! shard group with N shards commits exactly the same transactions and
//! reaches exactly the same logical state root as the 1-shard reference —
//! i.e. sharding redistributes work without changing a single decision.

use std::sync::Arc;

use harmony_chain::{ChainConfig, OeChain};
use harmony_consensus::net::LatencyModel;
use harmony_core::executor::TxnOutcome;
use harmony_core::HarmonyConfig;
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_shard::{Partitioning, ShardGroup, ShardRouter};
use harmony_workloads::{Smallbank, SmallbankConfig, Workload, Ycsb, YcsbConfig};
use proptest::prelude::*;

const PARTITIONS: u32 = 8;

#[derive(Clone, Copy, Debug)]
enum Mix {
    Smallbank,
    Ycsb,
}

fn workload(mix: Mix, seed_keys: u64, ratio: f64) -> Box<dyn Workload> {
    match mix {
        Mix::Smallbank => Box::new(Smallbank::new(SmallbankConfig {
            accounts: seed_keys,
            theta: 0.6,
            partitions: u64::from(PARTITIONS),
            multi_partition_ratio: ratio,
        })),
        Mix::Ycsb => Box::new(Ycsb::new(YcsbConfig {
            keys: seed_keys,
            ops_per_txn: 4,
            theta: 0.6,
            partitions: u64::from(PARTITIONS),
            multi_partition_ratio: ratio,
            ..YcsbConfig::default()
        })),
    }
}

struct StreamResult {
    outcomes: Vec<Vec<TxnOutcome>>,
    root: harmony_crypto::Digest,
    cross_txns: usize,
}

/// Run `blocks` blocks of `block_size` transactions from a deterministic
/// stream through a shard group, with abort-retry requeueing (so decision
/// differences would compound into stream differences and be caught).
fn run_stream(
    engine: EngineKind,
    shards: usize,
    mix: Mix,
    ratio: f64,
    seed: u64,
    blocks: usize,
    block_size: usize,
) -> StreamResult {
    let router = ShardRouter::new(Partitioning::Hash.build(PARTITIONS), shards);
    let spec = EngineSpec::sharded(engine, 2);
    let chains = (0..shards)
        .map(|_| OeChain::open(ChainConfig::in_memory(), spec).unwrap())
        .collect();
    let mut group = ShardGroup::new(router, chains, LatencyModel::lan_1g());
    let mut w = workload(mix, 200, ratio);
    group
        .setup_with(&[], |e| {
            w.setup(e)?;
            Ok(w.codec())
        })
        .unwrap();

    let mut rng = harmony_common::DetRng::new(seed);
    let mut retry: std::collections::VecDeque<Arc<dyn harmony_txn::Contract>> =
        std::collections::VecDeque::new();
    let mut outcomes = Vec::new();
    let mut cross_txns = 0;
    for _ in 0..blocks {
        let mut txns = Vec::with_capacity(block_size);
        while txns.len() < block_size {
            match retry.pop_front() {
                Some(t) => txns.push(t),
                None => txns.push(w.next_txn(&mut rng)),
            }
        }
        let result = group.execute_block(&txns).unwrap();
        for (i, o) in result.outcomes.iter().enumerate() {
            if let TxnOutcome::Aborted(reason) = o {
                if *reason != harmony_common::error::AbortReason::UserAbort {
                    retry.push_back(Arc::clone(&txns[i]));
                }
            }
        }
        cross_txns += result.cross_txns;
        // Every participating shard must agree on every cross decision
        // (fragments of survivors all commit; the group enforces it, and
        // fragment_outcomes lets us observe it).
        for g in 0..result.outcomes.len() {
            for (_, o) in result.fragment_outcomes(g) {
                assert!(o.is_committed(), "shard-divergent cross decision");
            }
        }
        outcomes.push(result.outcomes);
    }
    StreamResult {
        outcomes,
        root: group.logical_state_root().unwrap(),
        cross_txns,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N shards ≡ 1 shard, for every engine, across workload mixes and
    /// cross-partition ratios.
    #[test]
    fn sharded_root_matches_single_shard_reference(
        seed in 0u64..1_000_000,
        shards in 2usize..9,
        mix_pick in 0usize..2,
        ratio_pick in 0usize..3,
    ) {
        let mix = if mix_pick == 0 { Mix::Smallbank } else { Mix::Ycsb };
        let ratio = [0.0, 0.2, 0.5][ratio_pick];
        for engine in EngineKind::ALL {
            let reference = run_stream(engine, 1, mix, ratio, seed, 4, 10);
            let sharded = run_stream(engine, shards, mix, ratio, seed, 4, 10);
            prop_assert_eq!(
                &reference.outcomes,
                &sharded.outcomes,
                "decision divergence: engine={} shards={} mix={:?} ratio={} seed={}",
                engine.name(), shards, mix, ratio, seed
            );
            prop_assert_eq!(
                reference.root,
                sharded.root,
                "state divergence: engine={} shards={} mix={:?} ratio={} seed={}",
                engine.name(), shards, mix, ratio, seed
            );
            prop_assert_eq!(reference.cross_txns, sharded.cross_txns);
        }
    }

    /// Positive ratios actually exercise the cross-shard path, and the
    /// group stays deterministic run-to-run.
    #[test]
    fn cross_path_is_exercised_and_deterministic(seed in 0u64..1_000_000) {
        let run = || run_stream(EngineKind::Harmony(HarmonyConfig::default()), 4, Mix::Smallbank, 0.5, seed, 4, 10);
        let a = run();
        let b = run();
        prop_assert!(a.cross_txns > 0, "ratio 0.5 must produce cross txns");
        prop_assert_eq!(a.outcomes, b.outcomes);
        prop_assert_eq!(a.root, b.root);
    }
}
