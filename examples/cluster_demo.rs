//! Cluster demo: the full Order-Execute loop as a running system.
//!
//! Open-loop clients → mempool admission → Kafka-style ordering → four
//! replicas executing sealed blocks — with one replica crashing mid-run
//! and rejoining via state-sync — and every replica finishing on the
//! same bit-identical state root.
//!
//! ```sh
//! cargo run --example cluster_demo
//! ```

use harmonybc::baselines::EngineKind;
use harmonybc::chain::ChainConfig;
use harmonybc::crypto::CryptoCost;
use harmonybc::node::{
    Cluster, ClusterConfig, ClusterWorkload, FaultEvent, FaultSchedule, MempoolConfig,
    OrderingMode, ReplicaConfig,
};
use harmonybc::storage::StorageConfig;
use harmonybc::workloads::{OpenLoopConfig, SmallbankConfig};

fn main() {
    let config = ClusterConfig {
        replicas: 4,
        // Flat replicas; see `ShardTopology` + the sharded_node_e2e tests
        // for the N-replica × M-shard deployment.
        topology: None,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::memory(),
                crypto: CryptoCost::free(),
                checkpoint_every: 5,
                ..ChainConfig::default()
            },
            engine: EngineKind::Harmony(harmonybc::core::HarmonyConfig::default()),
            workers: 2,
            gossip_every: 5,
        },
        workload: ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 500,
            theta: 0.6,
            ..SmallbankConfig::default()
        }),
        ordering: OrderingMode::Kafka { brokers: 3 },
        // Replica 2 goes down 8 ms in and rejoins at 16 ms: it recovers
        // its local checkpoint, then catches the missed range up from a
        // peer via the state-sync protocol. One event of a
        // `FaultSchedule`; richer scenarios list more.
        faults: FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 2,
            at_ns: 8_000_000,
            recover_at_ns: 16_000_000,
        }]),
        mempool: MempoolConfig::default(),
        open_loop: OpenLoopConfig {
            clients: 8,
            rate_tps: 60_000.0,
            hot_share: 0.0,
        },
        load_ns: 25_000_000,
        drain_ns: 600_000_000,
        block_txns: 32,
        batch_interval_ns: 500_000,
        window: 4,
        latency: harmonybc::consensus::net::LatencyModel::lan_1g(),
        metrics_every_ns: 5_000_000,
        seed: 0xDE30,
        ..ClusterConfig::default()
    };

    let report = Cluster::new(config).run().expect("cluster run");

    println!("mempool:   {:?}", report.mempool);
    println!(
        "ordering:  {} blocks sealed from {} submissions",
        report.sealed_blocks, report.submitted_txns
    );
    println!(
        "runtime:   {:.0} tps end-to-end, {:.2} ms submit→commit latency",
        report.metrics.throughput_tps, report.metrics.latency_ms
    );
    for r in &report.replicas {
        println!(
            "replica {}: height {}, root {}…{}",
            r.replica,
            r.height,
            &r.root.to_hex()[..8],
            if r.recoveries > 0 {
                format!(
                    " (crashed, recovered, {} blocks via state-sync)",
                    r.sync_blocks
                )
            } else {
                String::new()
            }
        );
    }
    assert!(report.consistent, "replicas diverged!");
    assert_eq!(report.divergence_alarms, 0);
    assert_eq!(report.replicas[2].recoveries, 1);
    println!("all four replicas agree — bit-identical state roots ✔");
}
