//! Property tests for **elastic resharding**: live shard split/merge via
//! topology-change blocks, sealed into the ordered stream by the orderer
//! and applied by every replica at the same epoch boundary.
//!
//! The headline invariant (the ISSUE's acceptance bar): a cluster that
//! reshards **1 → 2 → 4 → 2 mid-workload** ends with the logical
//! database — folded root *and* per-table heads — bit-identical to a
//! fixed-count cluster fed the same seed, across all five engines,
//! **including a run where a replica crashes during the handover window**
//! and rejoins across the topology boundary via state-sync
//! (`reshape_for_sync`).
//!
//! Ordering is Kafka so replica behavior cannot feed back into the
//! sealed block stream, and sealing is count-driven (an effectively
//! infinite batch interval) so the workload sub-batches are identical
//! whether or not marker blocks interleave — the same eager-seal trick
//! the TCP runtime uses to match simulator roots.

use std::collections::BTreeMap;

use harmony_chain::ChainConfig;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEvent, FaultSchedule,
    MempoolConfig, OrderingMode, ReplicaConfig, ReshardAt, ReshardSchedule, ShardTopology,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};
use proptest::prelude::*;

const PARTITIONS: u32 = 16;

/// The elastic schedule under test: split 1→2, split 2→4, merge 4→2.
fn split_merge_schedule() -> ReshardSchedule {
    ReshardSchedule::new(vec![
        ReshardAt {
            height: 3,
            new_shards: 2,
        },
        ReshardAt {
            height: 6,
            new_shards: 4,
        },
        ReshardAt {
            height: 9,
            new_shards: 2,
        },
    ])
}

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
    reshards: ReshardSchedule,
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
            checkpoint_stagger: 0,
        }),
        workload: ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 300,
            theta: 0.6,
            partitions: u64::from(PARTITIONS),
            multi_partition_ratio: 0.25,
        }),
        ordering: OrderingMode::Kafka { brokers: 3 },
        faults: FaultSchedule::new(crash.into_iter().collect()),
        reshards,
        mempool: MempoolConfig::default(),
        open_loop: OpenLoopConfig {
            clients: 6,
            rate_tps: 30_000.0,
            hot_share: 0.0,
        },
        load_ns: 10_000_000,
        drain_ns: 600_000_000,
        block_txns: 20,
        // Count-driven sealing only: marker blocks reset the ripe clock,
        // so interval seals could shift workload batch boundaries between
        // the elastic and fixed-count runs and change per-block conflict
        // windows. Eager full 20-txn blocks are batched identically
        // either way (the same trick the TCP runtime uses to match
        // simulator roots).
        eager_seal: true,
        batch_interval_ns: 1 << 50,
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
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// 1→2→4→2 mid-workload ≡ fixed 2-shard run (logical root and
    /// per-table heads), for every engine — and a replica that crashes
    /// across the handover window rejoins to the bit-identical physical
    /// root of the no-crash elastic run.
    #[test]
    fn split_merge_matches_fixed_count_even_across_a_crash(
        seed in 0u64..1_000_000,
        crash_replica in 0usize..4,
        crash_at_ms in 2u64..7,
        downtime_ms in 2u64..6,
    ) {
        let crash = FaultEvent::Crash {
            replica: crash_replica,
            at_ns: crash_at_ms * 1_000_000,
            recover_at_ns: (crash_at_ms + downtime_ms) * 1_000_000,
        };
        for engine in all_engines() {
            let label = format!("{} seed={seed}", engine.name());

            let fixed = run_cluster(engine, 2, seed, ReshardSchedule::default(), None);
            assert_internally_consistent(&fixed, &format!("{label} fixed"));
            prop_assert_eq!(fixed.replicas[0].reshards, 0, "static run resharded: {}", &label);

            let elastic = run_cluster(engine, 1, seed, split_merge_schedule(), None);
            assert_internally_consistent(&elastic, &format!("{label} elastic"));
            for r in &elastic.replicas {
                prop_assert_eq!(r.reshards, 3, "replica {} missed a marker: {}", r.replica, &label);
                prop_assert_eq!(r.hosted_shards, 2, "replica {} wrong final layout: {}", r.replica, &label);
            }
            prop_assert_eq!(
                elastic.replicas[0].logical_root,
                fixed.replicas[0].logical_root,
                "elastic 1→2→4→2 logical root diverged from the fixed 2-shard run: {}",
                &label
            );
            prop_assert_eq!(
                &elastic.replicas[0].table_heads,
                &fixed.replicas[0].table_heads,
                "per-table heads diverged: {}",
                &label
            );

            let crashed = run_cluster(engine, 1, seed, split_merge_schedule(), Some(crash));
            assert_internally_consistent(&crashed, &format!("{label} elastic+crash"));
            prop_assert_eq!(crashed.replicas[crash_replica].recoveries, 1, "no recovery: {}", &label);
            for (c, e) in crashed.replicas.iter().zip(&elastic.replicas) {
                prop_assert_eq!(
                    c.root, e.root,
                    "crash during the reshard window changed the physical root \
                     of replica {}: {} (crash={:?})",
                    c.replica, &label, crash
                );
                prop_assert_eq!(c.height, e.height, "height short: {}", &label);
                prop_assert_eq!(c.hosted_shards, 2, "rejoined on a stale layout: {}", &label);
                prop_assert_eq!(c.reshards, 3, "rejoined replica missed an epoch: {}", &label);
            }
            prop_assert_eq!(
                &crashed.replicas[crash_replica].table_heads,
                &fixed.replicas[0].table_heads,
                "recovered replica's tables diverged: {}",
                &label
            );
        }
    }
}

/// Replica `replica`'s `harmony_shard_committed_txns_total` samples, by
/// shard index.
fn shard_committed(exposition: &str, replica: usize) -> BTreeMap<usize, u64> {
    let prefix = format!("harmony_shard_committed_txns_total{{replica=\"{replica}\",shard=\"");
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .map(|rest| {
            let (shard, value) = rest.split_once("\"} ").expect("sample line");
            (shard.parse().unwrap(), value.parse().unwrap())
        })
        .collect()
}

fn replica_committed(exposition: &str, replica: usize) -> u64 {
    let prefix = format!("harmony_replica_committed_txns_total{{replica=\"{replica}\"}} ");
    let line = exposition
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("replica {replica} has no committed sample"));
    line.parse().unwrap()
}

/// Shards that a reshard adds report into the cluster's registry like the
/// genesis ones. After 1→2→4→2, a replica that stayed up exposes a
/// committed counter for each of shards 0–3; replica 1, down from before
/// the first split until after the merge, rejoins through
/// `reshape_for_sync` onto 2 shards and exposes shards 0–1. On every
/// replica the shard counters cover the replica total (a cross-shard txn
/// commits on every participating shard, so their sum can exceed it,
/// never fall short).
#[test]
fn resharded_shards_report_into_the_cluster_registry() {
    let engine = EngineKind::Harmony(HarmonyConfig::default());
    let crash = FaultEvent::Crash {
        replica: 1,
        at_ns: 2_000_000,
        recover_at_ns: 6_000_000,
    };
    for crash in [None, Some(crash)] {
        let report = run_cluster(engine, 1, 0x5EED, split_merge_schedule(), crash);
        assert_internally_consistent(&report, &format!("1→2→4→2 crash={crash:?}"));
        let exp = &report.exposition;
        for r in &report.replicas {
            let reached = if r.recoveries > 0 { 2 } else { 4 };
            let per_shard = shard_committed(exp, r.replica);
            assert_eq!(
                per_shard.keys().copied().collect::<Vec<_>>(),
                (0..reached).collect::<Vec<_>>(),
                "replica {} (crash={crash:?}): a shard it hosted has no counter",
                r.replica
            );
            let committed = replica_committed(exp, r.replica);
            let sum: u64 = per_shard.values().sum();
            assert!(
                sum >= committed,
                "replica {} (crash={crash:?}): shard counters {sum} < replica total {committed}",
                r.replica
            );
        }
        if crash.is_some() {
            assert_eq!(report.replicas[1].recoveries, 1, "replica 1 never rejoined");
        }
    }
}

/// A same-count reshard (2→2) is a real epoch boundary — fresh shard
/// chains, a bumped epoch, an anchored physical fold — but the logical
/// database it carries across the handover is untouched.
#[test]
fn noop_reshard_same_count_preserves_logical_state() {
    let seed = 0xE1A5;
    let schedule = ReshardSchedule::new(vec![ReshardAt {
        height: 4,
        new_shards: 2,
    }]);
    let engine = EngineKind::Harmony(HarmonyConfig::default());
    let fixed = run_cluster(engine, 2, seed, ReshardSchedule::default(), None);
    let elastic = run_cluster(engine, 2, seed, schedule, None);
    assert_internally_consistent(&fixed, "fixed");
    assert_internally_consistent(&elastic, "2→2");
    assert_eq!(elastic.replicas[0].reshards, 1);
    assert_eq!(elastic.replicas[0].hosted_shards, 2);
    assert_eq!(
        elastic.replicas[0].logical_root,
        fixed.replicas[0].logical_root
    );
    assert_eq!(
        elastic.replicas[0].table_heads,
        fixed.replicas[0].table_heads
    );
    // The physical fold is content-based: same layout, same state, same
    // root — even though the elastic run's shard chains were rebuilt
    // from scratch at the epoch boundary.
    assert_eq!(elastic.replicas[0].root, fixed.replicas[0].root);
    // The marker block occupies one global height of its own.
    assert_eq!(elastic.replicas[0].height.0, fixed.replicas[0].height.0 + 1);
}

/// An empty schedule is the static topology: the config validates, no
/// marker is ever sealed, and the run is bit-identical to one that never
/// mentioned resharding at all.
#[test]
fn empty_schedule_is_the_static_topology() {
    let engine = EngineKind::Aria;
    let a = run_cluster(engine, 2, 7, ReshardSchedule::default(), None);
    let b = run_cluster(engine, 2, 7, ReshardSchedule::new(Vec::new()), None);
    assert_internally_consistent(&a, "default");
    assert_internally_consistent(&b, "empty");
    assert_eq!(a.replicas[0].root, b.replicas[0].root);
    assert_eq!(a.replicas[0].height, b.replicas[0].height);
    assert_eq!(a.sealed_blocks, b.sealed_blocks);
    assert_eq!(a.replicas[0].reshards, 0);
    assert_eq!(b.replicas[0].reshards, 0);
}
