//! End-to-end replica-runtime scenarios: a 4-replica cluster (Kafka and
//! HotStuff ordering) running Smallbank/YCSB must reach bit-identical
//! state roots on every replica for all five engines — including runs
//! where one replica crashes mid-run and rejoins via state-sync (local
//! checkpoint recovery + manifest transfer or block-range replay).

use harmony_chain::ChainConfig;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEvent, FaultSchedule,
    MempoolConfig, OrderingMode, ReplicaConfig,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig, YcsbConfig};

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
        accounts: 500,
        theta: 0.6,
        ..SmallbankConfig::default()
    })
}

fn ycsb() -> ClusterWorkload {
    ClusterWorkload::Ycsb(YcsbConfig {
        keys: 500,
        theta: 0.6,
        ..YcsbConfig::default()
    })
}

fn config(
    engine: EngineKind,
    workload: ClusterWorkload,
    ordering: OrderingMode,
    crash: Option<FaultEvent>,
) -> ClusterConfig {
    ClusterConfig {
        replicas: 4,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::memory(),
                crypto: CryptoCost::free(),
                checkpoint_every: 5,
                ..ChainConfig::default()
            },
            engine,
            workers: 2,
            gossip_every: 5,
        },
        workload,
        ordering,
        faults: FaultSchedule::new(crash.into_iter().collect()),
        mempool: MempoolConfig {
            capacity: 2_048,
            ..MempoolConfig::default()
        },
        open_loop: OpenLoopConfig {
            clients: 8,
            rate_tps: 60_000.0,
            hot_share: 0.0,
        },
        load_ns: 20_000_000,
        drain_ns: 600_000_000,
        block_txns: 32,
        batch_interval_ns: 500_000,
        window: 4,
        seed: 0xE2E,
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
    assert!(
        report.metrics.throughput_tps > 0.0,
        "{label}: zero throughput"
    );
    let h0 = report.replicas[0].height;
    assert!(h0.0 > 0, "{label}: replicas never advanced");
    for r in &report.replicas {
        assert_eq!(r.height, h0, "{label}: height mismatch");
        assert_eq!(r.root, report.replicas[0].root, "{label}: root mismatch");
    }
}

#[test]
fn all_engines_identical_roots_kafka_smallbank() {
    for engine in all_engines() {
        let report = Cluster::new(config(
            engine,
            smallbank(),
            OrderingMode::Kafka { brokers: 3 },
            None,
        ))
        .run()
        .unwrap();
        assert_healthy(&report, engine.name());
        assert_eq!(report.mempool.rejected_duplicate, 0);
        assert_eq!(report.mempool.rejected_gap, 0);
    }
}

#[test]
fn all_engines_identical_roots_hotstuff_ycsb() {
    for engine in all_engines() {
        let report = Cluster::new(config(engine, ycsb(), OrderingMode::HotStuff, None))
            .run()
            .unwrap();
        assert_healthy(&report, engine.name());
    }
}

#[test]
fn crash_and_statesync_rejoin_all_engines() {
    // Crash replica 2 after its first checkpoint; it recovers locally and
    // catches the missed range up from a peer (block-range replay path).
    for engine in all_engines() {
        let report = Cluster::new(config(
            engine,
            smallbank(),
            OrderingMode::Kafka { brokers: 3 },
            Some(FaultEvent::Crash {
                replica: 2,
                at_ns: 8_000_000,
                recover_at_ns: 16_000_000,
            }),
        ))
        .run()
        .unwrap();
        assert_healthy(&report, &format!("{} + crash", engine.name()));
        let crashed = &report.replicas[2];
        assert_eq!(crashed.recoveries, 1, "{}: no recovery ran", engine.name());
        assert!(
            crashed.sync_blocks > 0,
            "{}: rejoin must use state-sync catch-up",
            engine.name()
        );
    }
}

#[test]
fn early_crash_rejoins_via_manifest_transfer() {
    // Crash before the first checkpoint but well after blocks were
    // applied: local recovery cannot replay (the genesis load died with
    // the cache), so it must land at height 0 with an empty catalog —
    // NOT "succeed" by replaying onto wiped state — and the peer must
    // ship the full checkpoint manifest (state snapshot), not a range.
    let mut cfg = config(
        EngineKind::Harmony(HarmonyConfig::default()),
        smallbank(),
        OrderingMode::Kafka { brokers: 3 },
        Some(FaultEvent::Crash {
            replica: 1,
            at_ns: 6_000_000,
            recover_at_ns: 14_000_000,
        }),
    );
    cfg.replica.chain.checkpoint_every = 1_000; // never checkpoints locally
    let report = Cluster::new(cfg).run().unwrap();
    assert_healthy(&report, "manifest rejoin");
    let crashed = &report.replicas[1];
    assert_eq!(crashed.recoveries, 1);
    assert!(crashed.sync_blocks > 0, "manifest install counts as sync");
}

#[test]
fn rejoin_fails_over_when_the_designated_sync_peer_is_down() {
    // Replica 2 crashes and rejoins while replica 3 — the first
    // candidate on its sync failover ring — is itself still down. The
    // first sync request gets no answer, the timeout fires, and the
    // retry fails over to the next candidate, which serves the catch-up.
    // The run must still converge on the no-fault reference roots.
    let engine = EngineKind::Harmony(HarmonyConfig::default());
    let mut cfg = config(
        engine,
        smallbank(),
        OrderingMode::Kafka { brokers: 3 },
        None,
    );
    cfg.faults = FaultSchedule::new(vec![
        harmony_node::FaultEvent::Crash {
            replica: 2,
            at_ns: 6_000_000,
            recover_at_ns: 14_000_000,
        },
        // Covers replica 2's whole recovery window, so every request it
        // sends to replica 3 dies silently.
        harmony_node::FaultEvent::Crash {
            replica: 3,
            at_ns: 5_000_000,
            recover_at_ns: 60_000_000,
        },
    ]);
    let reference = Cluster::new(config(
        engine,
        smallbank(),
        OrderingMode::Kafka { brokers: 3 },
        None,
    ))
    .run()
    .unwrap();
    let report = Cluster::new(cfg).run().unwrap();
    assert_healthy(&report, "failover rejoin");
    let rejoined = &report.replicas[2];
    assert_eq!(rejoined.recoveries, 1, "replica 2 must have recovered");
    assert!(
        rejoined.sync_retries >= 1,
        "the dead first candidate must cost at least one timeout/failover: {rejoined:?}"
    );
    assert!(
        rejoined.sync_blocks > 0,
        "failover peer must serve catch-up"
    );
    // Safety: a faulted run converges on exactly the no-fault state.
    assert_eq!(
        report.replicas[0].root, reference.replicas[0].root,
        "recovered cluster diverged from the no-fault reference"
    );
}

#[test]
fn crash_rejoin_under_hotstuff_ordering() {
    let report = Cluster::new(config(
        EngineKind::Harmony(HarmonyConfig::default()),
        ycsb(),
        OrderingMode::HotStuff,
        Some(FaultEvent::Crash {
            replica: 3,
            at_ns: 8_000_000,
            recover_at_ns: 16_000_000,
        }),
    ))
    .run()
    .unwrap();
    assert_healthy(&report, "hotstuff + crash");
    assert_eq!(report.replicas[3].recoveries, 1);
}

#[test]
fn cluster_runs_are_deterministic() {
    let run = || {
        Cluster::new(config(
            EngineKind::Aria,
            smallbank(),
            OrderingMode::Kafka { brokers: 3 },
            Some(FaultEvent::Crash {
                replica: 0,
                at_ns: 8_000_000,
                recover_at_ns: 16_000_000,
            }),
        ))
        .run()
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.replicas[1].root, b.replicas[1].root);
    assert_eq!(a.metrics.stats.committed, b.metrics.stats.committed);
    assert_eq!(a.metrics.wall_ns, b.metrics.wall_ns);
    assert_eq!(a.sealed_blocks, b.sealed_blocks);
    assert_eq!(a.submitted_txns, b.submitted_txns);
}

#[test]
fn tpcc_full_mix_on_the_node_runtime() {
    // TPC-C rides the same replicated path as Smallbank/YCSB: generated
    // contracts are serialized into sealed blocks, decoded through
    // TpccCodec on every replica, and all replicas reach identical
    // roots — including a crash/state-sync rejoin mid-run.
    use harmony_workloads::TpccConfig;
    let workload = || {
        ClusterWorkload::Tpcc(TpccConfig {
            warehouses: 2,
            scale: 0.01,
            ..TpccConfig::default()
        })
    };
    let mut cfg = config(
        EngineKind::Harmony(HarmonyConfig::default()),
        workload(),
        OrderingMode::Kafka { brokers: 3 },
        None,
    );
    // TPC-C transactions are heavier: a lighter offered load keeps the
    // smoke test quick while still sealing plenty of blocks.
    cfg.open_loop = OpenLoopConfig {
        clients: 6,
        rate_tps: 20_000.0,
        hot_share: 0.0,
    };
    cfg.load_ns = 10_000_000;
    let report = Cluster::new(cfg).run().unwrap();
    assert_healthy(&report, "tpcc");
    let mut crash_cfg = config(
        EngineKind::Rbc,
        workload(),
        OrderingMode::Kafka { brokers: 3 },
        Some(FaultEvent::Crash {
            replica: 1,
            at_ns: 5_000_000,
            recover_at_ns: 10_000_000,
        }),
    );
    crash_cfg.open_loop = OpenLoopConfig {
        clients: 6,
        rate_tps: 20_000.0,
        hot_share: 0.0,
    };
    crash_cfg.load_ns = 10_000_000;
    let report = Cluster::new(crash_cfg).run().unwrap();
    assert_healthy(&report, "tpcc + crash");
    assert_eq!(report.replicas[1].recoveries, 1);
    assert!(report.replicas[1].sync_blocks > 0);
}

#[test]
fn backpressure_engages_under_overload() {
    // A tiny mempool against a fire-hose arrival rate must reject by
    // backpressure while the cluster stays consistent.
    let mut cfg = config(
        EngineKind::Rbc,
        smallbank(),
        OrderingMode::Kafka { brokers: 3 },
        None,
    );
    cfg.mempool = MempoolConfig {
        capacity: 64,
        ..MempoolConfig::default()
    };
    cfg.open_loop = OpenLoopConfig {
        clients: 8,
        rate_tps: 500_000.0,
        hot_share: 0.0,
    };
    let report = Cluster::new(cfg).run().unwrap();
    assert_healthy(&report, "overload");
    assert!(
        report.mempool.rejected_backpressure > 0,
        "overload must hit admission control: {:?}",
        report.mempool
    );
}

#[test]
fn hotstuff_ordering_latency_exceeds_kafka() {
    // Three voting rounds cost more than one replication round trip.
    let kafka = Cluster::new(config(
        EngineKind::Rbc,
        ycsb(),
        OrderingMode::Kafka { brokers: 3 },
        None,
    ))
    .run()
    .unwrap();
    let hs = Cluster::new(config(
        EngineKind::Rbc,
        ycsb(),
        OrderingMode::HotStuff,
        None,
    ))
    .run()
    .unwrap();
    assert!(
        hs.order_latency_ms > kafka.order_latency_ms,
        "kafka={} hs={}",
        kafka.order_latency_ms,
        hs.order_latency_ms
    );
}
