//! CI reshard smoke: elastic resharding end to end, in two legs.
//!
//! **Leg 1 — streaming split 1→2→4 vs fixed-count reference.** A
//! 4-replica Kafka cluster starts on one shard and splits twice
//! mid-workload via topology-change marker blocks (heights 3 and 6).
//! For every engine it must stay internally consistent and end with the
//! *logical* database — folded root and per-table heads — bit-identical
//! to a static 4-shard cluster fed the same seed.
//!
//! **Leg 2 — crash across the handover window.** The same elastic
//! schedule with a replica crashing mid-reshard and rejoining through
//! state-sync across the topology boundary: it must land on the
//! bit-identical physical roots of the no-crash elastic run, on the
//! final layout, at the final epoch.
//!
//! Artifact: `EXPERIMENTS-results/reshard_smoke.json`
//! (schema `harmonybc-reshard/v1`, checked by
//! `crates/bench/tests/bench_schema.rs` and uploaded by CI's
//! bench-smoke step).

use std::fmt::Write as _;

use harmony_chain::ChainConfig;
use harmony_common::Result;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEvent, FaultSchedule,
    MempoolConfig, OrderingMode, ReplicaConfig, ReshardAt, ReshardSchedule, ShardTopology,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};

use crate::write_artifact;

const PARTITIONS: u32 = 16;
const MS: u64 = 1_000_000;

/// 1→2→4: split at global heights 3 and 6.
fn split_schedule() -> ReshardSchedule {
    ReshardSchedule::new(vec![
        ReshardAt {
            height: 3,
            new_shards: 2,
        },
        ReshardAt {
            height: 6,
            new_shards: 4,
        },
    ])
}

fn run(
    engine: EngineKind,
    shards: usize,
    reshards: ReshardSchedule,
    crash: Option<FaultEvent>,
) -> Result<ClusterReport> {
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
            accounts: 400,
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
        load_ns: 12 * MS,
        drain_ns: 600 * MS,
        block_txns: 20,
        // Count-driven sealing: marker blocks must not shift workload
        // batch boundaries relative to the fixed-count reference.
        eager_seal: true,
        batch_interval_ns: 1 << 50,
        window: 4,
        seed: 0x2E5A,
        ..ClusterConfig::default()
    })
    .run()
}

struct Leg1Point {
    engine: &'static str,
    committed: usize,
    sealed_blocks: u64,
    logical_identical: bool,
    heads_identical: bool,
}

/// Run both legs; `name` is the stem of the JSON artifact.
pub(crate) fn reshard_smoke(name: &str) -> Result<()> {
    // Leg 1: streaming split vs fixed-count reference, every engine.
    let engines: [(&'static str, EngineKind); 5] = [
        ("harmony", EngineKind::Harmony(HarmonyConfig::default())),
        ("aria", EngineKind::Aria),
        ("rbc", EngineKind::Rbc),
        ("fabric", EngineKind::Fabric),
        ("fastfabric", EngineKind::FastFabric),
    ];
    let mut points = Vec::new();
    println!("engine      committed sealed logical_identical heads_identical");
    for (name, engine) in engines {
        let fixed = run(engine, 4, ReshardSchedule::default(), None)?;
        assert!(fixed.consistent, "{name}: fixed run diverged");
        let elastic = run(engine, 1, split_schedule(), None)?;
        assert!(elastic.consistent, "{name}: elastic run diverged");
        assert!(
            elastic.metrics.stats.committed > 0,
            "{name}: nothing committed"
        );
        for r in &elastic.replicas {
            assert_eq!(
                r.reshards, 2,
                "{name}: replica {} missed a marker",
                r.replica
            );
            assert_eq!(r.hosted_shards, 4, "{name}: wrong final layout");
        }
        let logical_identical = elastic.replicas[0].logical_root == fixed.replicas[0].logical_root;
        let heads_identical = elastic.replicas[0].table_heads == fixed.replicas[0].table_heads;
        assert!(
            logical_identical && heads_identical,
            "{name}: elastic 1→2→4 diverged from the fixed 4-shard reference"
        );
        println!(
            "{name:<11} {:>9} {:>6} {:>17} {:>15}",
            elastic.metrics.stats.committed,
            elastic.sealed_blocks,
            logical_identical,
            heads_identical,
        );
        points.push(Leg1Point {
            engine: name,
            committed: elastic.metrics.stats.committed,
            sealed_blocks: elastic.sealed_blocks,
            logical_identical,
            heads_identical,
        });
    }

    // Leg 2: a crash across the handover window must not change a bit.
    let engine = EngineKind::Harmony(HarmonyConfig::default());
    let elastic = run(engine, 1, split_schedule(), None)?;
    let crashed = run(
        engine,
        1,
        split_schedule(),
        Some(FaultEvent::Crash {
            replica: 2,
            at_ns: 4 * MS,
            recover_at_ns: 10 * MS,
        }),
    )?;
    assert!(crashed.consistent, "crash leg diverged");
    assert_eq!(crashed.replicas[2].recoveries, 1, "no recovery ran");
    let crash_roots_identical = crashed
        .replicas
        .iter()
        .zip(&elastic.replicas)
        .all(|(c, e)| c.root == e.root && c.height == e.height);
    assert!(
        crash_roots_identical,
        "crash during the reshard window changed the committed state"
    );
    assert_eq!(crashed.replicas[2].hosted_shards, 4, "stale layout");
    assert_eq!(crashed.replicas[2].reshards, 2, "stale epoch");
    println!(
        "\ncrash leg OK: roots identical, victim recovered onto 4 shards \
         at epoch 2 (sync_blocks {})",
        crashed.replicas[2].sync_blocks
    );

    // JSON artifact for CI (schema: harmonybc-reshard/v1).
    let mut json = String::from("{\n  \"schema\": \"harmonybc-reshard/v1\",\n");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"committed\": {}, \"sealed_blocks\": {}, \
             \"logical_identical\": {}, \"heads_identical\": {}}}{}",
            p.engine,
            p.committed,
            p.sealed_blocks,
            p.logical_identical,
            p.heads_identical,
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"crash\": {{\"roots_identical\": {}, \"recoveries\": {}, \
         \"sync_blocks\": {}, \"hosted_shards\": {}, \"epoch\": {}}}",
        crash_roots_identical,
        crashed.replicas[2].recoveries,
        crashed.replicas[2].sync_blocks,
        crashed.replicas[2].hosted_shards,
        crashed.replicas[2].reshards,
    );
    json.push_str("}\n");
    let path = write_artifact(&format!("{name}.json"), &json)?;
    println!("wrote {}", path.display());
    Ok(())
}
