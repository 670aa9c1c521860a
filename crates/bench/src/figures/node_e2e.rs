//! Figure 23 (extension): the end-to-end **node runtime** versus the
//! analytic cluster composition.
//!
//! A 4-replica cluster — open-loop clients → mempool → ordering (Kafka
//! and HotStuff) → sealed-block delivery → per-replica execution — is
//! *run* on the discrete-event network, and its measured throughput and
//! latency are placed next to the `ClusterModel` composition of the same
//! (engine × workload) point. At saturation the two must agree: the DB
//! layer is the bottleneck in both, so the node runtime validates the
//! analytic model (and the analytic model cross-checks the runtime).
//!
//! A crash/catch-up column reruns each Kafka point with one replica
//! crashing mid-run and rejoining via state-sync, asserting bit-identical
//! final roots.
//!
//! Output: the usual CSV plus `EXPERIMENTS-results/fig23_node_e2e.json`
//! (uploaded by CI's bench-smoke job next to the perf trajectory).

use std::fmt::Write as _;

use harmony_chain::ChainConfig;
use harmony_common::Result;
use harmony_consensus::net::LatencyModel;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEvent, FaultSchedule,
    MempoolConfig, OrderingMode, ReplicaConfig,
};
use harmony_sim::{ClusterModel, EngineKind, RunConfig};
use harmony_storage::StorageConfig;
use harmony_workloads::OpenLoopConfig;

use super::paper::smallbank;
use crate::{all_systems, f2, measure, write_artifact, Table};

const REPLICAS: usize = 4;
const WORKERS: usize = 4;
const BLOCK_TXNS: usize = 32;

fn cluster_config(
    engine: EngineKind,
    workload: ClusterWorkload,
    ordering: OrderingMode,
    crash: Option<FaultEvent>,
) -> ClusterConfig {
    ClusterConfig {
        replicas: REPLICAS,
        topology: None,
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
        workload,
        ordering,
        faults: FaultSchedule::new(crash.into_iter().collect()),
        latency: LatencyModel::lan_1g(),
        mempool: MempoolConfig {
            capacity: 4_096,
            ..MempoolConfig::default()
        },
        // Saturating offered load: the DB layer, not arrivals, must be
        // the bottleneck, as in the analytic composition.
        open_loop: OpenLoopConfig {
            clients: 16,
            rate_tps: 120_000.0,
            hot_share: 0.0,
        },
        load_ns: 60_000_000,
        drain_ns: 4_000_000_000,
        block_txns: BLOCK_TXNS,
        batch_interval_ns: 250_000,
        window: 8,
        metrics_every_ns: 5_000_000,
        seed: 0xF123,
        ..ClusterConfig::default()
    }
}

struct Point {
    system: String,
    ordering: &'static str,
    node_tps: f64,
    analytic_tps: f64,
    ratio: f64,
    node_latency_ms: f64,
    analytic_latency_ms: f64,
    consistent: bool,
    crash_consistent: bool,
    crash_sync_blocks: u64,
}

/// Run the figure; `name` is the stem of its CSV and JSON artifacts.
pub(crate) fn fig23_node_e2e(name: &str) -> Result<()> {
    let mut table = Table::new(
        name,
        &[
            "system",
            "ordering",
            "node_tps",
            "analytic_tps",
            "ratio",
            "node_lat_ms",
            "analytic_lat_ms",
            "roots_identical",
            "crash_rejoin_ok",
        ],
    );
    let workload = smallbank(0.6);
    let mut points: Vec<Point> = Vec::new();

    for kind in all_systems() {
        let db = measure(
            kind,
            &workload,
            &RunConfig {
                blocks: 40,
                block_size: BLOCK_TXNS,
                workers: WORKERS,
                storage: StorageConfig::default(),
                seed: 0xF123,
                retry_aborts: true,
                shards: None,
            },
        )?;
        for (ordering, model) in [
            (
                OrderingMode::Kafka { brokers: 3 },
                ClusterModel::Kafka {
                    latency: LatencyModel::lan_1g(),
                },
            ),
            (
                OrderingMode::HotStuff,
                ClusterModel::HotStuff {
                    latency: LatencyModel::lan_1g(),
                },
            ),
        ] {
            let analytic = model.compose(&db, kind.architecture(), REPLICAS, BLOCK_TXNS as u64);
            let report =
                Cluster::new(cluster_config(kind, workload.clone(), ordering, None)).run()?;
            let ordering_name = match ordering {
                OrderingMode::Kafka { .. } => "kafka",
                OrderingMode::HotStuff => "hotstuff",
            };
            // Crash/catch-up variant (Kafka only — one per engine keeps
            // the figure fast).
            let crash: Option<ClusterReport> = match ordering {
                OrderingMode::Kafka { .. } => Some(
                    Cluster::new(cluster_config(
                        kind,
                        workload.clone(),
                        ordering,
                        Some(FaultEvent::Crash {
                            replica: 2,
                            at_ns: 20_000_000,
                            recover_at_ns: 40_000_000,
                        }),
                    ))
                    .run()?,
                ),
                OrderingMode::HotStuff => None,
            };
            let ratio = report.metrics.throughput_tps / analytic.throughput_tps.max(1.0);
            points.push(Point {
                system: kind.name().to_string(),
                ordering: ordering_name,
                node_tps: report.metrics.throughput_tps,
                analytic_tps: analytic.throughput_tps,
                ratio,
                node_latency_ms: report.metrics.latency_ms,
                analytic_latency_ms: analytic.latency_ms,
                consistent: report.consistent,
                crash_consistent: crash.as_ref().is_none_or(|c| c.consistent),
                crash_sync_blocks: crash.as_ref().map_or(0, |c| c.replicas[2].sync_blocks),
            });
            let p = points.last().unwrap();
            assert!(
                p.consistent,
                "{} {}: replicas diverged",
                p.system, p.ordering
            );
            assert!(
                p.crash_consistent,
                "{} {}: crash rejoin diverged",
                p.system, p.ordering
            );
            // The acceptance band: at saturation the node runtime and the
            // analytic composition measure the same DB-layer bottleneck
            // (observed ratios are 0.99–1.04 across all ten points).
            assert!(
                (0.9..=1.1).contains(&p.ratio),
                "{} {}: node runtime drifted from the analytic model: \
                 node={:.0} tps vs analytic={:.0} tps (ratio {:.3})",
                p.system,
                p.ordering,
                p.node_tps,
                p.analytic_tps,
                p.ratio
            );
            table.row(vec![
                p.system.clone(),
                p.ordering.to_string(),
                f2(p.node_tps),
                f2(p.analytic_tps),
                f2(p.ratio),
                f2(p.node_latency_ms),
                f2(p.analytic_latency_ms),
                p.consistent.to_string(),
                p.crash_consistent.to_string(),
            ]);
        }
    }
    table.emit()?;

    // JSON artifact for CI (schema: harmonybc-fig23/v1).
    let mut json = String::from("{\n  \"schema\": \"harmonybc-fig23/v1\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"system\": \"{}\", \"ordering\": \"{}\", \"node_tps\": {:.2}, \
             \"analytic_tps\": {:.2}, \"ratio\": {:.4}, \"node_latency_ms\": {:.3}, \
             \"analytic_latency_ms\": {:.3}, \"roots_identical\": {}, \
             \"crash_rejoin_ok\": {}, \"crash_sync_blocks\": {}}}{}",
            p.system,
            p.ordering,
            p.node_tps,
            p.analytic_tps,
            p.ratio,
            p.node_latency_ms,
            p.analytic_latency_ms,
            p.consistent,
            p.crash_consistent,
            p.crash_sync_blocks,
            if i + 1 == points.len() { "\n" } else { ",\n" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = write_artifact(&format!("{name}.json"), &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
