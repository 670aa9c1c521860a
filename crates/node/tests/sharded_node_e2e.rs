//! End-to-end sharded replica-runtime scenarios: a 4-replica × 4-shard
//! cluster (Kafka and HotStuff ordering) must reach bit-identical
//! `sharded_state_root`s on every replica for all five engines —
//! including runs where one replica crashes mid-run and rejoins with a
//! **mixed** state-sync: staggered per-shard checkpoints mean at least
//! one shard takes the checkpoint-manifest path while another replays a
//! verified sub-block range.

use harmony_chain::ChainConfig;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEvent, FaultSchedule,
    MempoolConfig, OrderingMode, ReplicaConfig, ShardTopology,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig, YcsbConfig};

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

fn smallbank() -> ClusterWorkload {
    ClusterWorkload::Smallbank(SmallbankConfig {
        accounts: 400,
        theta: 0.6,
        partitions: u64::from(PARTITIONS),
        multi_partition_ratio: 0.2,
    })
}

fn ycsb() -> ClusterWorkload {
    ClusterWorkload::Ycsb(YcsbConfig {
        keys: 400,
        theta: 0.6,
        partitions: u64::from(PARTITIONS),
        multi_partition_ratio: 0.2,
        ..YcsbConfig::default()
    })
}

fn config(
    engine: EngineKind,
    workload: ClusterWorkload,
    ordering: OrderingMode,
    crash: Option<FaultEvent>,
    shards: usize,
) -> ClusterConfig {
    ClusterConfig {
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
        workload,
        ordering,
        faults: FaultSchedule::new(crash.into_iter().collect()),
        mempool: MempoolConfig {
            capacity: 2_048,
            ..MempoolConfig::default()
        },
        open_loop: OpenLoopConfig {
            clients: 8,
            rate_tps: 40_000.0,
            hot_share: 0.0,
        },
        load_ns: 15_000_000,
        drain_ns: 600_000_000,
        block_txns: 24,
        batch_interval_ns: 500_000,
        window: 4,
        seed: 0x5E2E,
        ..ClusterConfig::default()
    }
}

fn assert_healthy(report: &ClusterReport, label: &str) {
    assert!(
        report.consistent,
        "{label}: replicas diverged: {:#?}",
        report.replicas
    );
    assert_eq!(
        report.divergence_alarms, 0,
        "{label}: divergence alarms raised"
    );
    assert!(
        report.metrics.stats.committed > 0,
        "{label}: nothing committed"
    );
    assert!(report.sealed_blocks > 0, "{label}: nothing sealed");
    let h0 = report.replicas[0].height;
    assert!(h0.0 > 0, "{label}: replicas never advanced");
    for r in &report.replicas {
        assert_eq!(r.height, h0, "{label}: height mismatch");
        assert_eq!(
            r.root, report.replicas[0].root,
            "{label}: sharded root mismatch"
        );
        assert_eq!(
            r.root, r.oracle_root,
            "{label}: cached commitment root diverged from full-scan oracle"
        );
    }
}

#[test]
fn all_engines_identical_sharded_roots_kafka_smallbank() {
    for engine in all_engines() {
        let report = Cluster::new(config(
            engine,
            smallbank(),
            OrderingMode::Kafka { brokers: 3 },
            None,
            4,
        ))
        .run()
        .unwrap();
        assert_healthy(&report, &format!("{}×4shards kafka", engine.name()));
        assert!(
            report.metrics.system.contains("4shards"),
            "metrics label: {}",
            report.metrics.system
        );
    }
}

#[test]
fn all_engines_identical_sharded_roots_hotstuff_ycsb() {
    for engine in all_engines() {
        let report = Cluster::new(config(engine, ycsb(), OrderingMode::HotStuff, None, 4))
            .run()
            .unwrap();
        assert_healthy(&report, &format!("{}×4shards hotstuff", engine.name()));
    }
}

#[test]
fn crash_rejoin_mixes_manifest_and_range_paths_all_engines() {
    // Checkpoint stagger 1000: shard 0 checkpoints every 3 blocks, shards
    // 1–3 effectively never. Crashing after a few checkpoints therefore
    // strands shard 0 at the full replayed height (block-range catch-up)
    // while the rest lose everything (checkpoint-manifest install) — the
    // acceptance scenario: one rejoin exercising BOTH sync paths.
    for engine in all_engines() {
        let mut cfg = config(
            engine,
            smallbank(),
            OrderingMode::Kafka { brokers: 3 },
            Some(FaultEvent::Crash {
                replica: 2,
                at_ns: 7_000_000,
                recover_at_ns: 14_000_000,
            }),
            4,
        );
        cfg.topology = Some(ShardTopology {
            shards: 4,
            partitions: PARTITIONS,
            partitioning: None,
            checkpoint_stagger: 1_000,
        });
        let report = Cluster::new(cfg).run().unwrap();
        let label = format!("{}×4shards crash", engine.name());
        assert_healthy(&report, &label);
        let crashed = &report.replicas[2];
        assert_eq!(crashed.recoveries, 1, "{label}: no recovery ran");
        assert!(
            crashed.sync_blocks > 0,
            "{label}: rejoin must use state-sync catch-up"
        );
        assert!(
            crashed.sync_manifest_shards > 0,
            "{label}: at least one shard must take the manifest path: {crashed:?}"
        );
        assert!(
            crashed.sync_range_shards > 0,
            "{label}: at least one shard must take the range-replay path: {crashed:?}"
        );
    }
}

#[test]
fn crash_rejoin_under_hotstuff_ordering() {
    let mut cfg = config(
        EngineKind::Harmony(HarmonyConfig::default()),
        ycsb(),
        OrderingMode::HotStuff,
        Some(FaultEvent::Crash {
            replica: 3,
            at_ns: 7_000_000,
            recover_at_ns: 14_000_000,
        }),
        4,
    );
    cfg.topology = Some(ShardTopology {
        shards: 4,
        partitions: PARTITIONS,
        partitioning: None,
        checkpoint_stagger: 1_000,
    });
    let report = Cluster::new(cfg).run().unwrap();
    assert_healthy(&report, "hotstuff sharded crash");
    let crashed = &report.replicas[3];
    assert_eq!(crashed.recoveries, 1);
    assert!(crashed.sync_manifest_shards > 0 && crashed.sync_range_shards > 0);
}

#[test]
fn sharded_cluster_runs_are_deterministic() {
    let run = || {
        Cluster::new(config(
            EngineKind::Aria,
            smallbank(),
            OrderingMode::Kafka { brokers: 3 },
            Some(FaultEvent::Crash {
                replica: 0,
                at_ns: 7_000_000,
                recover_at_ns: 14_000_000,
            }),
            2,
        ))
        .run()
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.replicas[1].root, b.replicas[1].root);
    assert_eq!(a.metrics.stats.committed, b.metrics.stats.committed);
    assert_eq!(a.sealed_blocks, b.sealed_blocks);
    assert_eq!(a.submitted_txns, b.submitted_txns);
}

#[test]
fn logical_root_is_shard_count_invariant() {
    // The same ordered workload through 1-, 2-, and 4-shard topologies
    // commits the same logical database (physical folds differ).
    let run = |shards: usize| {
        Cluster::new(config(
            EngineKind::Rbc,
            smallbank(),
            OrderingMode::Kafka { brokers: 3 },
            None,
            shards,
        ))
        .run()
        .unwrap()
    };
    let one = run(1);
    let two = run(2);
    let four = run(4);
    assert_healthy(&one, "1 shard");
    assert_healthy(&two, "2 shards");
    assert_healthy(&four, "4 shards");
    assert_eq!(one.replicas[0].logical_root, two.replicas[0].logical_root);
    assert_eq!(one.replicas[0].logical_root, four.replicas[0].logical_root);
    assert_ne!(
        one.replicas[0].root, four.replicas[0].root,
        "physical fold commits to the shard layout"
    );
}

#[test]
fn tpcc_declared_footprints_route_single_shard() {
    // TPC-C under the recommended topology — entity-prefix partitioning
    // plus a replicated `item` table — must (a) actually classify a
    // healthy share of NewOrder/Payment single-partition (the declared-
    // footprint payoff the ROADMAP calls the headline TPC-C speedup),
    // and (b) keep the logical database shard-count-invariant with the
    // replicated table in play.
    use harmony_workloads::TpccConfig;
    let run = |shards: usize| {
        let mut cfg = config(
            EngineKind::Harmony(HarmonyConfig::default()),
            ClusterWorkload::Tpcc(TpccConfig {
                warehouses: 4,
                scale: 0.01,
                ..TpccConfig::default()
            }),
            OrderingMode::Kafka { brokers: 3 },
            None,
            shards,
        );
        // TPC-C transactions are heavier; a lighter offered load keeps
        // the smoke quick while still sealing plenty of blocks.
        cfg.open_loop = OpenLoopConfig {
            clients: 6,
            rate_tps: 20_000.0,
            hot_share: 0.0,
        };
        cfg.load_ns = 10_000_000;
        Cluster::new(cfg).run().unwrap()
    };
    let four = run(4);
    assert_healthy(&four, "tpcc 4 shards");
    let single = metric_value(
        &four.exposition,
        "harmony_xshard_single_txns_total{replica=\"0\"}",
    );
    let cross = metric_value(
        &four.exposition,
        "harmony_xshard_cross_txns_total{replica=\"0\"}",
    );
    assert!(
        single > 0,
        "declared footprints never routed single-shard (single={single} cross={cross})"
    );
    assert!(
        single > cross,
        "warehouse-local NewOrder/Payment dominate the mix, so single-shard \
         routing must dominate too (single={single} cross={cross})"
    );
    let one = run(1);
    assert_healthy(&one, "tpcc 1 shard");
    assert_eq!(
        one.replicas[0].logical_root, four.replicas[0].logical_root,
        "replicated item table must not break shard-count invariance"
    );
}

/// Value of the first exposition sample whose name+labels match exactly.
fn metric_value(exposition: &str, name_and_labels: &str) -> u64 {
    let line = exposition
        .lines()
        .find(|l| {
            l.strip_prefix(name_and_labels)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .unwrap_or_else(|| panic!("no sample `{name_and_labels}` in exposition"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}
