//! Figure 24 (extension): **sharded node runtime** scaling — N replicas ×
//! M shards on the discrete-event network — next to Figure 22's
//! single-process shard-group scaling.
//!
//! For each engine and M ∈ {1, 2, 4}, a 4-replica cluster runs every
//! replica as a [`harmony_node::ShardedReplicaNode`] (ordered global
//! blocks → cross-shard planning → per-shard sub-block chains), and the
//! same (workload, M) point runs through `harmony_sim::run_experiment`
//! on a sharded run (the fig22 path). Both hosts execute through the same
//! `harmony_shard::ShardGroup` — per-shard chains that seal and log every
//! sub-block — so the two curves differ only in what the virtual-time
//! model charges: fig22 charges execution alone, the node runtime adds
//! ordering, delivery and root gossip. Both speedup curves are normalized
//! to their own M=1 baseline: absolute throughput differs, but the
//! *scaling shape* must match — sharding pays off identically whether
//! the group lives in one process or behind a replicated chain.
//!
//! Every point asserts bit-identical sharded state roots across the four
//! replicas. Output: the usual CSV plus
//! `EXPERIMENTS-results/fig24_sharded_node.json` (schema-checked by
//! `crates/bench/tests/bench_schema.rs`, uploaded by CI's bench-smoke
//! job).

use std::fmt::Write as _;

use harmony_chain::ChainConfig;
use harmony_common::Result;
use harmony_consensus::net::LatencyModel;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterWorkload, MempoolConfig, OrderingMode, ReplicaConfig,
    ShardTopology,
};
use harmony_sim::{EngineKind, RunConfig, ShardLayout};
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};

use crate::{all_systems, f2, measure, write_artifact, Table};

const REPLICAS: usize = 4;
const WORKERS: usize = 2;
const BLOCK_TXNS: usize = 24;
const PARTITIONS: u32 = 16;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const CROSS_RATIO: f64 = 0.05;

fn workload() -> ClusterWorkload {
    ClusterWorkload::Smallbank(SmallbankConfig {
        accounts: 2_000,
        theta: 0.4,
        partitions: u64::from(PARTITIONS),
        multi_partition_ratio: CROSS_RATIO,
    })
}

fn node_run(engine: EngineKind, shards: usize) -> Result<harmony_node::ClusterReport> {
    Cluster::new(ClusterConfig {
        replicas: REPLICAS,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::default(),
                crypto: CryptoCost::free(),
                checkpoint_every: 10,
                ..ChainConfig::default()
            },
            engine,
            workers: WORKERS,
            gossip_every: 10,
        },
        topology: Some(ShardTopology {
            shards,
            partitions: PARTITIONS,
            partitioning: None,
            checkpoint_stagger: 0,
        }),
        workload: workload(),
        ordering: OrderingMode::Kafka { brokers: 3 },
        latency: LatencyModel::lan_1g(),
        mempool: MempoolConfig {
            capacity: 4_096,
            ..MempoolConfig::default()
        },
        // Saturating offered load: the sharded DB layer must be the
        // bottleneck so scaling reflects execution, not arrivals.
        open_loop: OpenLoopConfig {
            clients: 16,
            rate_tps: 150_000.0,
            hot_share: 0.0,
        },
        load_ns: 30_000_000,
        drain_ns: 4_000_000_000,
        block_txns: BLOCK_TXNS,
        batch_interval_ns: 250_000,
        window: 8,
        faults: Default::default(),
        metrics_every_ns: 5_000_000,
        seed: 0xF124,
        ..ClusterConfig::default()
    })
    .run()
}

fn single_process_run(engine: EngineKind, shards: usize) -> Result<harmony_sim::RunMetrics> {
    measure(
        engine,
        &workload(),
        &RunConfig {
            blocks: 30,
            block_size: BLOCK_TXNS,
            workers: WORKERS,
            storage: StorageConfig::default(),
            seed: 0xF124,
            retry_aborts: true,
            shards: Some(ShardLayout {
                shards,
                partitions: PARTITIONS,
            }),
        },
    )
}

struct Point {
    system: String,
    shards: usize,
    node_tps: f64,
    node_speedup: f64,
    sp_tps: f64,
    sp_speedup: f64,
    shape_ratio: f64,
    consistent: bool,
}

/// Run the figure; `name` is the stem of its CSV and JSON artifacts.
pub(crate) fn fig24_sharded_node(name: &str) -> Result<()> {
    let mut table = Table::new(
        name,
        &[
            "system",
            "shards",
            "node_tps",
            "node_speedup",
            "fig22_tps",
            "fig22_speedup",
            "shape_ratio",
            "roots_identical",
        ],
    );
    let mut points: Vec<Point> = Vec::new();

    for kind in all_systems() {
        let mut node_base = 0.0f64;
        let mut sp_base = 0.0f64;
        for shards in SHARD_COUNTS {
            let report = node_run(kind, shards)?;
            assert!(
                report.consistent,
                "{}×{shards}: replicas diverged",
                kind.name()
            );
            let sp = single_process_run(kind, shards)?;
            if shards == 1 {
                node_base = report.metrics.throughput_tps;
                sp_base = sp.throughput_tps;
            }
            let node_speedup = report.metrics.throughput_tps / node_base.max(1.0);
            let sp_speedup = sp.throughput_tps / sp_base.max(1.0);
            points.push(Point {
                system: kind.name().to_string(),
                shards,
                node_tps: report.metrics.throughput_tps,
                node_speedup,
                sp_tps: sp.throughput_tps,
                sp_speedup,
                shape_ratio: node_speedup / sp_speedup.max(f64::EPSILON),
                consistent: report.consistent,
            });
            let p = points.last().unwrap();
            // The acceptance band: normalized to its own 1-shard
            // baseline, the replicated runtime scales like the
            // single-process group (observed shape ratios 0.93–1.00
            // across all five engines at M ∈ {2, 4}).
            assert!(
                (0.85..=1.15).contains(&p.shape_ratio),
                "{}×{shards}: node-runtime scaling shape drifted from \
                 fig22: node {:.2}x vs single-process {:.2}x",
                kind.name(),
                p.node_speedup,
                p.sp_speedup
            );
            table.row(vec![
                p.system.clone(),
                p.shards.to_string(),
                f2(p.node_tps),
                f2(p.node_speedup),
                f2(p.sp_tps),
                f2(p.sp_speedup),
                f2(p.shape_ratio),
                p.consistent.to_string(),
            ]);
        }
        // The headline shape: with ~5% cross-shard traffic, four shards
        // must deliver real scaling on the node runtime, like fig22's
        // single-process curve.
        let four = points.last().expect("4-shard point");
        assert!(
            four.node_speedup > 1.3,
            "{}: 4-shard node runtime failed to scale: {:.2}x",
            kind.name(),
            four.node_speedup
        );
    }
    table.emit()?;

    // JSON artifact for CI (schema: harmonybc-fig24/v1).
    let mut json = String::from("{\n  \"schema\": \"harmonybc-fig24/v1\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"system\": \"{}\", \"shards\": {}, \"node_tps\": {:.2}, \
             \"node_speedup\": {:.4}, \"fig22_tps\": {:.2}, \"fig22_speedup\": {:.4}, \
             \"shape_ratio\": {:.4}, \"roots_identical\": {}}}{}",
            p.system,
            p.shards,
            p.node_tps,
            p.node_speedup,
            p.sp_tps,
            p.sp_speedup,
            p.shape_ratio,
            p.consistent,
            if i + 1 == points.len() { "\n" } else { ",\n" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = write_artifact(&format!("{name}.json"), &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
