//! CI metrics smoke: run a small 4-replica × 2-shard cluster and assert
//! the observability plane is live end to end — the Prometheus
//! exposition is non-empty and covers every subsystem's families, and
//! the virtual-time JSON timeline carries its schema tag and snapshots.
//!
//! Artifacts (uploaded by CI's metrics-smoke step, schema-checked by
//! `crates/bench/tests/bench_schema.rs`):
//!
//! * `EXPERIMENTS-results/metrics_timeline.json` — the per-run timeline
//!   (`harmonybc-timeline/v1`).
//! * `EXPERIMENTS-results/metrics_exposition.prom` — the final scrape.

use harmony_chain::ChainConfig;
use harmony_common::Result;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_metrics::TIMELINE_SCHEMA;
use harmony_node::{
    Cluster, ClusterConfig, ClusterWorkload, MempoolConfig, OrderingMode, ReplicaConfig,
    ShardTopology,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};

use crate::write_artifact;

const PARTITIONS: u32 = 16;
const GOSSIP_EVERY: u64 = 5;

/// Run the smoke. Its artifacts keep their fixed names, which the schema
/// test reads.
pub(crate) fn metrics_smoke(_name: &str) -> Result<()> {
    let report = Cluster::new(ClusterConfig {
        replicas: 4,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::memory(),
                crypto: CryptoCost::free(),
                checkpoint_every: 5,
                ..ChainConfig::default()
            },
            engine: EngineKind::Harmony(HarmonyConfig::default()),
            workers: 2,
            gossip_every: GOSSIP_EVERY,
        },
        topology: Some(ShardTopology {
            shards: 2,
            partitions: PARTITIONS,
            partitioning: None,
            checkpoint_stagger: 0,
        }),
        workload: ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 400,
            theta: 0.6,
            partitions: u64::from(PARTITIONS),
            multi_partition_ratio: 0.2,
        }),
        ordering: OrderingMode::Kafka { brokers: 3 },
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
        seed: 0x53CE,
        ..ClusterConfig::default()
    })
    .run()?;

    assert!(report.consistent, "replicas diverged");
    let exp = &report.exposition;
    assert!(!exp.is_empty(), "empty exposition");
    for family in [
        "harmony_mempool_depth",
        "harmony_mempool_admitted_total",
        "harmony_mempool_rejected_total",
        "harmony_replica_committed_txns_total",
        "harmony_replica_aborted_txns_total",
        "harmony_replica_commit_latency_ns_bucket",
        "harmony_replica_gossip_roots_total",
        "harmony_shard_committed_txns_total",
        "harmony_xshard_cross_txns_total",
        "harmony_statesync_transfer_bytes_total",
    ] {
        assert!(exp.contains(family), "exposition missing family {family}");
    }
    // A fault-free replica folds one root per gossip height it applied.
    for r in &report.replicas {
        let sample = format!(
            "harmony_replica_gossip_roots_total{{replica=\"{}\"}} ",
            r.replica
        );
        let folds = exp.lines().find_map(|l| l.strip_prefix(sample.as_str()));
        let heights = (r.height.0 / GOSSIP_EVERY).to_string();
        assert_eq!(folds, Some(heights.as_str()), "{sample}vs gossip heights");
    }
    assert!(
        report.timeline.contains(TIMELINE_SCHEMA),
        "timeline missing schema tag"
    );
    let snapshots = report.timeline.matches("\"t_ns\":").count();
    assert!(snapshots >= 2, "timeline too short: {snapshots} snapshots");

    for (file, text) in [
        ("metrics_timeline.json", report.timeline.as_str()),
        ("metrics_exposition.prom", exp.as_str()),
    ] {
        println!("wrote {}", write_artifact(file, text)?.display());
    }
    println!(
        "metrics smoke OK: {} exposition lines, {snapshots} timeline snapshots, \
         {} committed txns",
        exp.lines().count(),
        report.metrics.stats.committed
    );
    Ok(())
}
