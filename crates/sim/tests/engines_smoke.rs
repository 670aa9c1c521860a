//! Smoke test: every `EngineKind` end-to-end through `run_experiment` on a
//! tiny YCSB run — each of the five systems must load the workload,
//! execute blocks, and commit transactions — and a pin of what each
//! engine decides and costs in the flat and in the sharded profile.

use harmony_core::{BlockStats, HarmonyConfig};
use harmony_sim::{run_experiment, EngineKind, RunConfig, ShardLayout};
use harmony_storage::StorageConfig;
use harmony_workloads::{Smallbank, SmallbankConfig, Ycsb, YcsbConfig};

fn tiny_run() -> RunConfig {
    RunConfig {
        blocks: 3,
        block_size: 8,
        workers: 2,
        storage: StorageConfig::memory(),
        seed: 0xC0FFEE,
        retry_aborts: true,
        shards: None,
    }
}

fn tiny_ycsb() -> Ycsb {
    Ycsb::new(YcsbConfig {
        keys: 200,
        theta: 0.5,
        ..YcsbConfig::default()
    })
}

#[test]
fn every_engine_commits_on_tiny_ycsb() {
    for kind in EngineKind::ALL {
        let name = kind.name();
        let mut workload = tiny_ycsb();
        let metrics = run_experiment(kind, &mut workload, &tiny_run(), |_| {})
            .unwrap_or_else(|e| panic!("{name}: run_experiment failed: {e}"));
        assert!(
            metrics.stats.committed > 0,
            "{name}: expected committed transactions, got 0"
        );
        assert!(
            metrics.throughput_tps > 0.0,
            "{name}: expected nonzero throughput"
        );
    }
}

/// One pinned run: an engine in one profile, the counters it must
/// produce and the virtual time it must take.
struct Pin {
    kind: EngineKind,
    sharded: bool,
    stats: BlockStats,
    wall_ns: u64,
}

/// Recorded at the parent commit of the change that merged the engine
/// selectors (408a9a8), through the constructors that commit still had
/// apart: the flat rows on one chain, the sharded rows on a two-shard
/// group. A profile rule lost since — Fabric's endorser
/// lag left on under sharding (its row has no endorsement aborts),
/// Harmony's toggles dropped (the `raw()` rows, every ablation toggle off,
/// would equal the `FULL` ones) — fails here by name.
fn pins() -> [Pin; 12] {
    [
        Pin {
            kind: EngineKind::Fabric,
            sharded: false,
            stats: BlockStats {
                txns: 256,
                committed: 63,
                aborted_stale: 157,
                aborted_endorsement: 19,
                user_aborted: 17,
                sim_ns_total: 15_447_600,
                commit_ns_total: 14_175_500,
                ..BlockStats::default()
            },
            wall_ns: 25_344_500,
        },
        Pin {
            kind: EngineKind::FastFabric,
            sharded: false,
            stats: BlockStats {
                txns: 256,
                committed: 68,
                aborted_stale: 100,
                aborted_endorsement: 22,
                aborted_graph: 51,
                user_aborted: 15,
                sim_ns_total: 15_263_700,
                commit_ns_total: 14_421_600,
                ..BlockStats::default()
            },
            wall_ns: 25_452_780,
        },
        Pin {
            kind: EngineKind::Rbc,
            sharded: false,
            stats: BlockStats {
                txns: 256,
                committed: 93,
                aborted_ww: 135,
                user_aborted: 28,
                sim_ns_total: 20_719_400,
                commit_ns_total: 22_176_000,
                ..BlockStats::default()
            },
            wall_ns: 36_042_200,
        },
        Pin {
            kind: EngineKind::Aria,
            sharded: false,
            stats: BlockStats {
                txns: 256,
                committed: 82,
                aborted_ww: 144,
                user_aborted: 30,
                sim_ns_total: 20_842_000,
                commit_ns_total: 19_588_800,
                ..BlockStats::default()
            },
            wall_ns: 24_277_200,
        },
        Pin {
            kind: EngineKind::Harmony(HarmonyConfig::FULL),
            sharded: false,
            stats: BlockStats {
                txns: 256,
                committed: 67,
                aborted_rule1: 169,
                user_aborted: 20,
                sim_ns_total: 15_018_500,
                commit_ns_total: 13_490_400,
                ..BlockStats::default()
            },
            wall_ns: 16_177_500,
        },
        Pin {
            kind: EngineKind::Harmony(HarmonyConfig::raw()),
            sharded: false,
            stats: BlockStats {
                txns: 256,
                committed: 82,
                aborted_rule1: 98,
                aborted_ww: 46,
                user_aborted: 30,
                sim_ns_total: 20_842_000,
                commit_ns_total: 19_588_800,
                ..BlockStats::default()
            },
            wall_ns: 24_277_200,
        },
        Pin {
            kind: EngineKind::Fabric,
            sharded: true,
            stats: BlockStats {
                txns: 256,
                committed: 102,
                aborted_stale: 120,
                aborted_cross_shard: 7,
                user_aborted: 27,
                sim_ns_total: 26_175_100,
                commit_ns_total: 24_159_200,
                ..BlockStats::default()
            },
            wall_ns: 27_254_160,
        },
        Pin {
            kind: EngineKind::FastFabric,
            sharded: true,
            stats: BlockStats {
                txns: 256,
                committed: 109,
                aborted_graph: 116,
                aborted_cross_shard: 8,
                user_aborted: 23,
                sim_ns_total: 25_684_700,
                commit_ns_total: 25_332_000,
                ..BlockStats::default()
            },
            wall_ns: 27_306_748,
        },
        Pin {
            kind: EngineKind::Rbc,
            sharded: true,
            stats: BlockStats {
                txns: 256,
                committed: 91,
                aborted_ww: 130,
                aborted_cross_shard: 8,
                user_aborted: 27,
                sim_ns_total: 22_068_000,
                commit_ns_total: 22_915_200,
                ..BlockStats::default()
            },
            wall_ns: 24_844_700,
        },
        Pin {
            kind: EngineKind::Aria,
            sharded: true,
            stats: BlockStats {
                txns: 256,
                committed: 83,
                aborted_ww: 138,
                aborted_cross_shard: 8,
                user_aborted: 27,
                sim_ns_total: 22_068_000,
                commit_ns_total: 20_697_600,
                ..BlockStats::default()
            },
            wall_ns: 18_805_808,
        },
        Pin {
            kind: EngineKind::Harmony(HarmonyConfig::FULL),
            sharded: true,
            stats: BlockStats {
                txns: 256,
                committed: 105,
                aborted_rule1: 115,
                aborted_cross_shard: 5,
                user_aborted: 31,
                sim_ns_total: 25_316_900,
                commit_ns_total: 22_360_800,
                ..BlockStats::default()
            },
            wall_ns: 20_709_832,
        },
        Pin {
            kind: EngineKind::Harmony(HarmonyConfig::raw()),
            sharded: true,
            stats: BlockStats {
                txns: 256,
                committed: 83,
                aborted_rule1: 96,
                aborted_ww: 42,
                aborted_cross_shard: 8,
                user_aborted: 27,
                sim_ns_total: 22_068_000,
                commit_ns_total: 20_697_600,
                ..BlockStats::default()
            },
            wall_ns: 18_805_808,
        },
    ]
}

fn pin_run() -> RunConfig {
    RunConfig {
        blocks: 8,
        block_size: 32,
        workers: 2,
        storage: StorageConfig::default(),
        seed: 0xC0FFEE,
        retry_aborts: true,
        shards: None,
    }
}

fn pin_smallbank() -> Smallbank {
    Smallbank::new(SmallbankConfig {
        accounts: 100,
        theta: 0.6,
        partitions: 8,
        multi_partition_ratio: 0.5,
    })
}

#[test]
fn engine_decisions_and_costs_are_pinned_in_both_profiles() {
    for pin in pins() {
        let what = format!("{:?} sharded={}", pin.kind, pin.sharded);
        let mut workload = pin_smallbank();
        let config = RunConfig {
            shards: pin.sharded.then_some(ShardLayout {
                shards: 2,
                partitions: 8,
            }),
            ..pin_run()
        };
        let metrics = run_experiment(pin.kind, &mut workload, &config, |_| {})
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(metrics.stats, pin.stats, "{what}: counters");
        assert_eq!(metrics.wall_ns, pin.wall_ns, "{what}: virtual time");
    }
}
