//! Property tests for the sharded node runtime — the replicated extension
//! of `crates/shard/tests/proptest_shard.rs`'s invariant.
//!
//! For random crash schedules × shard counts {1, 2, 4} × all five
//! engines, under Kafka ordering (where replica behavior cannot feed back
//! into the sealed block stream):
//!
//! * a cluster where one replica crashes and rejoins via state-sync ends
//!   with `sharded_state_root`s bit-identical to a no-crash reference
//!   cluster run on the same seed, and
//! * the N-shard cluster's `logical_state_root` equals the 1-shard
//!   cluster's — sharding the replicated runtime redistributes work
//!   without changing a single commit decision.

use harmony_chain::ChainConfig;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEvent, FaultSchedule,
    MempoolConfig, OrderingMode, ReplicaConfig, ShardTopology,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};
use proptest::prelude::*;

const PARTITIONS: u32 = 16;

fn all_engines() -> [EngineKind; 5] {
    [
        EngineKind::Harmony(HarmonyConfig::default()),
        EngineKind::Aria,
        EngineKind::Rbc,
        EngineKind::Fabric,
        EngineKind::FastFabric,
    ]
}

fn run_cluster(
    engine: EngineKind,
    shards: usize,
    seed: u64,
    stagger: u64,
    crash: Option<FaultEvent>,
) -> ClusterReport {
    Cluster::new(ClusterConfig {
        replicas: 4,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::memory(),
                crypto: CryptoCost::free(),
                checkpoint_every: 3,
                ..ChainConfig::default()
            },
            engine,
            workers: 2,
            gossip_every: 5,
        },
        topology: Some(ShardTopology {
            shards,
            partitions: PARTITIONS,
            partitioning: None,
            checkpoint_stagger: stagger,
        }),
        workload: ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 300,
            theta: 0.6,
            partitions: u64::from(PARTITIONS),
            multi_partition_ratio: 0.25,
        }),
        ordering: OrderingMode::Kafka { brokers: 3 },
        faults: FaultSchedule::new(crash.into_iter().collect()),
        mempool: MempoolConfig::default(),
        open_loop: OpenLoopConfig {
            clients: 6,
            rate_tps: 30_000.0,
            hot_share: 0.0,
        },
        load_ns: 10_000_000,
        drain_ns: 600_000_000,
        block_txns: 20,
        batch_interval_ns: 500_000,
        window: 4,
        seed,
        ..ClusterConfig::default()
    })
    .run()
    .unwrap()
}

fn assert_internally_consistent(report: &ClusterReport, label: &str) {
    assert!(report.consistent, "{label}: replicas diverged");
    assert_eq!(report.divergence_alarms, 0, "{label}: alarms");
    assert!(report.metrics.stats.committed > 0, "{label}: no commits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Crash/rejoin never changes the committed state, and the logical
    /// database is shard-count-invariant, for every engine.
    #[test]
    fn crashed_cluster_matches_reference_and_one_shard_logical_root(
        seed in 0u64..1_000_000,
        shards_pick in 0usize..3,
        crash_replica in 0usize..4,
        crash_at_ms in 3u64..8,
        downtime_ms in 3u64..7,
        stagger_pick in 0usize..3,
    ) {
        let shards = [1, 2, 4][shards_pick];
        // 0: lockstep checkpoints; 2: mildly staggered; 1000: later
        // shards never checkpoint before the crash (manifest path).
        let stagger = [0, 2, 1_000][stagger_pick];
        let crash = FaultEvent::Crash {
            replica: crash_replica,
            at_ns: crash_at_ms * 1_000_000,
            recover_at_ns: (crash_at_ms + downtime_ms) * 1_000_000,
        };
        for engine in all_engines() {
            let label = format!(
                "{} shards={shards} stagger={stagger} seed={seed}",
                engine.name()
            );
            let reference = run_cluster(engine, shards, seed, stagger, None);
            assert_internally_consistent(&reference, &label);
            let crashed = run_cluster(engine, shards, seed, stagger, Some(crash));
            assert_internally_consistent(&crashed, &format!("{label} +crash"));
            prop_assert_eq!(
                crashed.replicas[0].root,
                reference.replicas[0].root,
                "recovered sharded_state_root diverged from the no-crash \
                 reference: {} (crash={:?})",
                label,
                crash
            );
            prop_assert_eq!(
                crashed.replicas[crash_replica].height,
                reference.replicas[crash_replica].height,
                "rejoined replica stopped short: {}",
                label
            );
            // N-shard ≡ 1-shard logical state.
            if shards > 1 {
                let one = run_cluster(engine, 1, seed, stagger, None);
                assert_internally_consistent(&one, &format!("{label} 1shard"));
                prop_assert_eq!(
                    reference.replicas[0].logical_root,
                    one.replicas[0].logical_root,
                    "logical root not shard-count-invariant: {}",
                    label
                );
            }
        }
    }
}
