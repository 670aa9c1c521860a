//! The paper's evaluation (§5): Figures 1 and 7–22 and Table 3, over the
//! virtual-time model. The Smallbank/YCSB pairs (Figs. 7/8, 9/10, 11/12,
//! 15/16, 17/18) are one function each, taking the workload as a
//! function of the Zipfian skew.

use harmony_common::Result;
use harmony_consensus::net::LatencyModel;
use harmony_consensus::{HotStuffConfig, HotStuffSim, KafkaConfig, KafkaSim};
use harmony_core::HarmonyConfig;
use harmony_dcc_baselines::Architecture;
use harmony_node::ClusterWorkload;
use harmony_sim::{run_experiment, ClusterModel, EngineKind, RunConfig, ShardLayout};
use harmony_storage::{DiskProfile, StorageConfig, StorageCost};
use harmony_workloads::{SmallbankConfig, TpccConfig, YcsbConfig};

use crate::{
    all_systems, default_run, f2, false_aborts_in, measure, measure_tuned, pct, per_block_run,
    relational_systems, Table, BLOCK_SIZES,
};

/// A skewed workload as a function of its Zipfian theta.
pub(crate) type Skewed = fn(f64) -> ClusterWorkload;

/// Smallbank at the given skew.
pub(crate) fn smallbank(theta: f64) -> ClusterWorkload {
    ClusterWorkload::Smallbank(SmallbankConfig {
        theta,
        ..SmallbankConfig::default()
    })
}

/// YCSB at the given skew.
pub(crate) fn ycsb(theta: f64) -> ClusterWorkload {
    ClusterWorkload::Ycsb(YcsbConfig {
        theta,
        ..YcsbConfig::default()
    })
}

/// TPC-C with the given warehouse count, at the harness's 2 % scale.
fn tpcc(warehouses: u64) -> ClusterWorkload {
    ClusterWorkload::Tpcc(TpccConfig {
        warehouses,
        scale: 0.02,
        ..TpccConfig::default()
    })
}

/// Figure 1: the database layer is the bottleneck of disk-based private
/// blockchains — consensus (even 80-node WAN BFT) outruns disk DB layers.
pub(crate) fn fig01_gap(name: &str) -> Result<()> {
    let mut table = Table::new(name, &["layer", "system", "throughput_tps"]);
    let workload = smallbank(0.6);
    for kind in [EngineKind::Fabric, EngineKind::FastFabric, EngineKind::Rbc] {
        let (_, m) = measure_tuned(kind, &workload, &BLOCK_SIZES)?;
        table.row(vec![
            "disk DB".into(),
            m.system.into(),
            f2(m.throughput_tps),
        ]);
    }
    // Memory DB layer (Aria on a zero-latency engine).
    let mut config = default_run(75);
    config.storage = StorageConfig {
        disk_profile: DiskProfile::memory(),
        ..StorageConfig::default()
    };
    let m = measure(EngineKind::Aria, &workload, &config)?;
    table.row(vec![
        "memory DB".into(),
        "Aria".into(),
        f2(m.throughput_tps),
    ]);
    for (label, nodes, batch, latency) in [
        // Batch sizes tuned per network: small batches keep LAN latency
        // low; WAN rounds need large batches to stay throughput-bound.
        ("HotStuff 80-node LAN", 80, 512, LatencyModel::lan_5g()),
        (
            "HotStuff 80-node WAN",
            80,
            4_000,
            LatencyModel::wan_4_continents(),
        ),
    ] {
        let report = HotStuffSim::new(HotStuffConfig {
            nodes,
            block_txns: batch,
            latency,
            ..HotStuffConfig::default()
        })
        .run(6_000_000_000);
        table.row(vec![
            "consensus".into(),
            label.into(),
            f2(report.throughput_tps),
        ]);
    }
    table.emit()
}

/// Table 3: hit rate of the backward dangerous structure per workload.
pub(crate) fn table03_hitrate(name: &str) -> Result<()> {
    fn hit_rate(workload: &ClusterWorkload) -> Result<f64> {
        let harmony = EngineKind::Harmony(HarmonyConfig::default());
        let stats = measure(harmony, workload, &per_block_run())?.stats;
        let hits = stats.aborted_rule1 + stats.aborted_interblock;
        Ok(hits as f64 / (stats.txns - stats.user_aborted).max(1) as f64)
    }
    let mut t = Table::new(name, &["workload", "param", "hit_rate"]);
    for (label, make) in [("YCSB", ycsb as Skewed), ("Smallbank", smallbank)] {
        for theta in [0.0, 0.2, 0.4, 0.6, 0.8, 0.99] {
            t.row(vec![
                label.into(),
                format!("skew={theta}"),
                pct(hit_rate(&make(theta))?),
            ]);
        }
    }
    for w in [1u64, 20, 40] {
        t.row(vec![
            "TPC-C".into(),
            format!("warehouses={w}"),
            pct(hit_rate(&tpcc(w))?),
        ]);
    }
    t.emit()
}

/// Figures 7 and 8: overall throughput and latency (block size tuned to
/// optimal per system).
pub(crate) fn overall(name: &str, workload: Skewed) -> Result<()> {
    let mut t = Table::new(
        name,
        &[
            "system",
            "block_size",
            "throughput_tps",
            "latency_ms",
            "abort_rate",
        ],
    );
    for kind in all_systems() {
        let (size, m) = measure_tuned(kind, &workload(0.6), &BLOCK_SIZES)?;
        t.row(vec![
            m.system.into(),
            size.to_string(),
            f2(m.throughput_tps),
            f2(m.latency_ms),
            f2(m.abort_rate),
        ]);
    }
    t.emit()
}

/// Figures 9 and 10: impact of block size. Block size is also the degree
/// of concurrency for the concurrent systems (one worker per transaction).
pub(crate) fn block_size(name: &str, workload: Skewed) -> Result<()> {
    let mut t = Table::new(
        name,
        &["system", "block_size", "throughput_tps", "latency_ms"],
    );
    for kind in all_systems() {
        for size in BLOCK_SIZES {
            let m = measure(kind, &workload(0.6), &default_run(size))?;
            t.row(vec![
                m.system.into(),
                size.to_string(),
                f2(m.throughput_tps),
                f2(m.latency_ms),
            ]);
        }
    }
    t.emit()
}

/// Figures 11 and 12: impact of contention, sweeping the Zipfian skew.
pub(crate) fn contention(name: &str, workload: Skewed) -> Result<()> {
    let mut t = Table::new(name, &["system", "skew", "throughput_tps", "abort_rate"]);
    for kind in all_systems() {
        for theta in [0.0, 0.2, 0.4, 0.6, 0.8, 0.99] {
            let m = measure(kind, &workload(theta), &default_run(25))?;
            t.row(vec![
                m.system.into(),
                theta.to_string(),
                f2(m.throughput_tps),
                f2(m.abort_rate),
            ]);
        }
    }
    t.emit()
}

/// Figure 13: false abort rate (aborts that a full-graph oracle would have
/// committed). FastFabric# is excluded, as in the paper — its graph
/// traversal eliminates false aborts by construction.
pub(crate) fn fig13_false_aborts(name: &str) -> Result<()> {
    fn rate(kind: EngineKind, workload: &ClusterWorkload) -> Result<(f64, f64)> {
        let mut fa = 0u64;
        let mut aborts = 0u64;
        let mut txns = 0u64;
        let mut w = workload.instantiate();
        run_experiment(kind, w.as_mut(), &per_block_run(), |res| {
            let (f, a) = false_aborts_in(res);
            fa += f;
            aborts += a;
            txns += (res.stats.txns - res.stats.user_aborted) as u64;
        })?;
        Ok((
            fa as f64 / txns.max(1) as f64,
            aborts as f64 / txns.max(1) as f64,
        ))
    }
    let mut t = Table::new(
        name,
        &[
            "workload",
            "system",
            "skew",
            "false_abort_rate",
            "abort_rate",
        ],
    );
    let systems = [
        EngineKind::Harmony(HarmonyConfig::default()),
        EngineKind::Aria,
        EngineKind::Rbc,
        EngineKind::Fabric,
    ];
    for (wl_name, make) in [("YCSB", ycsb as Skewed), ("Smallbank", smallbank)] {
        for kind in systems {
            for theta in [0.0, 0.4, 0.8, 0.99] {
                let (f, a) = rate(kind, &make(theta))?;
                t.row(vec![
                    wl_name.into(),
                    kind.name().into(),
                    theta.to_string(),
                    pct(f),
                    pct(a),
                ]);
            }
        }
    }
    t.emit()
}

/// Figure 14: hotspot resiliency — 1% hot records, merged RMW UPDATE
/// statements, sweeping the per-statement hot probability.
pub(crate) fn fig14_hotspot(name: &str) -> Result<()> {
    let mut t = Table::new(
        name,
        &["system", "hot_prob", "throughput_tps", "abort_rate"],
    );
    for kind in relational_systems() {
        for hot in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let workload = ClusterWorkload::Ycsb(YcsbConfig::hotspot(hot));
            let m = measure(kind, &workload, &default_run(25))?;
            t.row(vec![
                m.system.into(),
                hot.to_string(),
                f2(m.throughput_tps),
                f2(m.abort_rate),
            ]);
        }
    }
    t.emit()
}

/// Figures 15 and 16: impact of the number of replicas. OE replicas work
/// independently (flat); SOV read-write-set fan-out degrades with the
/// replica count.
pub(crate) fn replicas(name: &str, workload: Skewed) -> Result<()> {
    let mut t = Table::new(
        name,
        &["system", "replicas", "throughput_tps", "latency_ms"],
    );
    // Sustained replication bandwidth of the cloud instances (burst 5 Gbps,
    // sustained ~1 Gbps on t3-class nodes).
    let model = ClusterModel::Kafka {
        latency: LatencyModel::lan_1g(),
    };
    for kind in all_systems() {
        let (size, db) = measure_tuned(kind, &workload(0.6), &BLOCK_SIZES)?;
        for replicas in [4usize, 20, 40, 60, 80] {
            let m = model.compose(&db, kind.architecture(), replicas, size as u64);
            t.row(vec![
                m.system.into(),
                replicas.to_string(),
                f2(m.throughput_tps),
                f2(m.latency_ms),
            ]);
        }
    }
    t.emit()
}

/// Figures 17 and 18: BFT (HotStuff) vs Kafka consensus. Nodes beyond 20
/// are geo-distributed over four continents, as in the paper's cloud
/// cluster.
pub(crate) fn bft(name: &str, workload: Skewed) -> Result<()> {
    let mut t = Table::new(
        name,
        &["consensus", "nodes", "throughput_tps", "latency_ms"],
    );
    let (size, db) = measure_tuned(
        EngineKind::Harmony(HarmonyConfig::default()),
        &workload(0.6),
        &BLOCK_SIZES,
    )?;
    for nodes in [4usize, 20, 40, 60, 80] {
        // ≤ 20 nodes: one region; beyond: the 4-continent WAN.
        let latency = if nodes <= 20 {
            LatencyModel::lan_5g()
        } else {
            LatencyModel::wan_4_continents()
        };
        for (label, model) in [
            (
                "HarmonyBC(BFT)",
                ClusterModel::HotStuff {
                    latency: latency.clone(),
                },
            ),
            (
                "HarmonyBC(Kafka)",
                ClusterModel::Kafka {
                    latency: latency.clone(),
                },
            ),
        ] {
            let m = model.compose(&db, Architecture::Oe, nodes, size as u64);
            t.row(vec![
                label.into(),
                nodes.to_string(),
                f2(m.throughput_tps),
                f2(m.latency_ms),
            ]);
        }
    }
    t.emit()
}

/// Figure 19: TPC-C, sweeping the warehouse count (contention ↘, database
/// size ↗). Fabric/FastFabric# excluded (not relational), as in the paper.
pub(crate) fn fig19_tpcc(name: &str) -> Result<()> {
    let mut t = Table::new(
        name,
        &[
            "system",
            "warehouses",
            "throughput_tps",
            "latency_ms",
            "abort_rate",
        ],
    );
    for kind in relational_systems() {
        for warehouses in [1u64, 20, 40, 60, 80] {
            let m = measure(kind, &tpcc(warehouses), &default_run(25))?;
            t.row(vec![
                m.system.into(),
                warehouses.to_string(),
                f2(m.throughput_tps),
                f2(m.latency_ms),
                f2(m.abort_rate),
            ]);
        }
    }
    t.emit()
}

/// Figure 20: ablation — raw-HarmonyBC, +update-reorder, +update-coalesce,
/// +inter-block, under low and high contention on all three workloads.
pub(crate) fn fig20_ablation(name: &str) -> Result<()> {
    let mut t = Table::new(
        name,
        &[
            "workload",
            "contention",
            "config",
            "throughput_tps",
            "abort_rate",
            "cpu_util",
        ],
    );
    let tiers: [(&str, HarmonyConfig); 4] = [
        ("raw", HarmonyConfig::raw()),
        ("+reorder", HarmonyConfig::with_reordering()),
        ("+coalesce", HarmonyConfig::with_coalescence()),
        ("+inter-block", HarmonyConfig::default()),
    ];
    let cases = [
        ("YCSB", "low", ycsb(0.0)),
        ("YCSB", "high", ycsb(0.99)),
        ("Smallbank", "low", smallbank(0.0)),
        ("Smallbank", "high", smallbank(0.99)),
        ("TPC-C", "low", tpcc(40)),
        ("TPC-C", "high", tpcc(1)),
    ];
    for (wl, contention, workload) in &cases {
        for (label, config) in tiers {
            let m = measure(EngineKind::Harmony(config), workload, &default_run(25))?;
            t.row(vec![
                (*wl).into(),
                (*contention).into(),
                label.into(),
                f2(m.throughput_tps),
                f2(m.abort_rate),
                f2(m.cpu_utilization),
            ]);
        }
    }
    t.emit()
}

/// Figure 21: is Harmony still useful without disk overheads? SSD vs
/// RAMDisk vs a pure memory engine, with the consensus ceiling shown.
pub(crate) fn fig21_storage_media(name: &str) -> Result<()> {
    let mut t = Table::new(name, &["workload", "medium", "system", "throughput_tps"]);
    let workloads = [
        ("YCSB", ycsb(0.6)),
        ("Smallbank", smallbank(0.6)),
        ("TPC-C", tpcc(20)),
    ];
    for (wl_name, workload) in &workloads {
        for (medium, profile, free_cpu) in [
            ("SSD", DiskProfile::ssd(), false),
            ("RAMDisk", DiskProfile::ramdisk(), false),
            // "Memory engine": no disk latency and no buffer-management
            // CPU (the Stonebraker costs (i) and (ii) both removed).
            ("memory-engine", DiskProfile::memory(), true),
        ] {
            for kind in [
                EngineKind::Aria,
                EngineKind::Harmony(HarmonyConfig::default()),
            ] {
                let mut config = default_run(25);
                config.storage = StorageConfig {
                    disk_profile: profile,
                    ..StorageConfig::default()
                };
                if free_cpu {
                    config.storage.cost = StorageCost {
                        buffer_hit_ns: 50,
                        buffer_miss_cpu_ns: 50,
                        node_search_ns: 100,
                        node_write_ns: 150,
                        scan_per_record_ns: 30,
                        statement_ns: 2_000,
                    };
                }
                let m = measure(kind, workload, &config)?;
                t.row(vec![
                    (*wl_name).into(),
                    medium.into(),
                    m.system.into(),
                    f2(m.throughput_tps),
                ]);
            }
        }
    }
    // The consensus ceiling the memory engine runs into.
    let consensus = KafkaSim::new(KafkaConfig {
        replicas: 4,
        block_txns: 4_000,
        ..KafkaConfig::default()
    })
    .run(4_000_000_000);
    t.row(vec![
        "-".into(),
        "-".into(),
        "consensus-ceiling".into(),
        f2(consensus.throughput_tps),
    ]);
    t.emit()
}

/// Logical partitions of Figure 22 — fixed across shard counts (must
/// cover the largest).
const PARTITIONS: u32 = 16;
/// Smallbank's `multi_partition_ratio` knob applies only to the
/// two-account procedures (Amalgamate 0.15 + SendPayment 0.15 of the
/// mix), so the per-procedure knob is the block-level target divided by
/// that share.
const TWO_ACCOUNT_SHARE: f64 = 0.30;

/// Figure 22 (extension): shard-scaling. Throughput vs shard count
/// (1/2/4/8/16) at 0%, 5% and 20% block-level cross-shard transaction
/// ratios, on partition-aware Smallbank.
///
/// Expected shape: a fully partitionable workload scales near-linearly
/// with the shard count (sub-blocks shrink, shards execute concurrently);
/// the cross-shard series pay the read-fragment exchange round plus the
/// unsharded re-simulation stage and degrade gracefully as the ratio
/// grows. Select a subset of engines with e.g.
/// `HARMONY_ENGINES=harmony,aria` to bound runtime.
pub(crate) fn fig22_shard_scaling(name: &str) -> Result<()> {
    let mut t = Table::new(
        name,
        &[
            "system",
            "shards",
            "cross_ratio",
            "throughput_tps",
            "latency_ms",
            "abort_rate",
        ],
    );
    for kind in all_systems() {
        for ratio in [0.0, 0.05, 0.20] {
            for shards in [1usize, 2, 4, 8, 16] {
                let workload = ClusterWorkload::Smallbank(SmallbankConfig {
                    partitions: u64::from(PARTITIONS),
                    multi_partition_ratio: (ratio / TWO_ACCOUNT_SHARE).min(1.0),
                    ..SmallbankConfig::default()
                });
                let config = RunConfig {
                    blocks: 8,
                    block_size: 480,
                    shards: Some(ShardLayout {
                        shards,
                        partitions: PARTITIONS,
                    }),
                    ..RunConfig::default()
                };
                let m = measure(kind, &workload, &config)?;
                t.row(vec![
                    format!("{}@{:.0}%", kind.name(), ratio * 100.0),
                    shards.to_string(),
                    pct(ratio),
                    f2(m.throughput_tps),
                    f2(m.latency_ms),
                    f2(m.abort_rate),
                ]);
            }
        }
    }
    t.emit()
}
