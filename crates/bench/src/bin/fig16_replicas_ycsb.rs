//! Figure 16: impact of the number of replicas (Ycsb). OE replicas
//! work independently (flat); SOV read-write-set fan-out degrades with the
//! replica count.

use harmony_bench::{all_systems, f2, measure_tuned, Table, WorkloadKind, BLOCK_SIZES};
use harmony_consensus::net::LatencyModel;
use harmony_sim::ClusterModel;

fn main() {
    let mut t = Table::new(
        "fig16_replicas_ycsb",
        &["system", "replicas", "throughput_tps", "latency_ms"],
    );
    // Sustained replication bandwidth of the cloud instances (burst 5 Gbps,
    // sustained ~1 Gbps on t3-class nodes).
    let model = ClusterModel::Kafka {
        latency: LatencyModel::lan_1g(),
    };
    let workload = WorkloadKind::Ycsb { theta: 0.6 };
    for kind in all_systems() {
        let (size, db) = measure_tuned(kind, &workload, &BLOCK_SIZES).unwrap();
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
    t.emit();
}
