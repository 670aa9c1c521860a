//! Figure 1: the database layer is the bottleneck of disk-based private
//! blockchains — consensus (even 80-node WAN BFT) outruns disk DB layers.

use harmony_bench::{f2, measure_tuned, Table, WorkloadKind, BLOCK_SIZES};
use harmony_consensus::net::LatencyModel;
use harmony_consensus::{HotStuffConfig, HotStuffSim};
use harmony_sim::EngineKind;

fn main() {
    let mut table = Table::new("fig01_gap", &["layer", "system", "throughput_tps"]);
    let workload = WorkloadKind::Smallbank { theta: 0.6 };
    for kind in [EngineKind::Fabric, EngineKind::FastFabric, EngineKind::Rbc] {
        let (_, m) = measure_tuned(kind, &workload, &BLOCK_SIZES).unwrap();
        table.row(vec![
            "disk DB".into(),
            m.system.into(),
            f2(m.throughput_tps),
        ]);
    }
    // Memory DB layer (Aria on a zero-latency engine).
    let mut config = harmony_bench::default_run(75);
    config.storage = harmony_storage::StorageConfig {
        disk_profile: harmony_storage::DiskProfile::memory(),
        ..harmony_storage::StorageConfig::default()
    };
    let m = harmony_bench::measure(EngineKind::Aria, &workload, &config).unwrap();
    table.row(vec![
        "memory DB".into(),
        "Aria".into(),
        f2(m.throughput_tps),
    ]);
    for (name, nodes, batch, latency) in [
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
            name.into(),
            f2(report.throughput_tps),
        ]);
    }
    table.emit();
}
