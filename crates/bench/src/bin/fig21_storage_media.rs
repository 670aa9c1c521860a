//! Figure 21: is Harmony still useful without disk overheads? SSD vs
//! RAMDisk vs a pure memory engine, with the consensus ceiling shown.

use harmony_bench::{default_run, f2, measure, Table, WorkloadKind};
use harmony_consensus::{KafkaConfig, KafkaSim};
use harmony_core::HarmonyConfig;
use harmony_sim::EngineKind;
use harmony_storage::{DiskProfile, StorageConfig, StorageCost};

fn main() {
    let mut t = Table::new(
        "fig21_storage_media",
        &["workload", "medium", "system", "throughput_tps"],
    );
    #[allow(clippy::type_complexity)]
    let workloads: Vec<(&str, fn() -> WorkloadKind)> = vec![
        ("YCSB", || WorkloadKind::Ycsb { theta: 0.6 }),
        ("Smallbank", || WorkloadKind::Smallbank { theta: 0.6 }),
        ("TPC-C", || WorkloadKind::Tpcc { warehouses: 20 }),
    ];
    for (wl_name, make) in &workloads {
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
                let m = measure(kind, &make(), &config).unwrap();
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
    t.emit();
}
