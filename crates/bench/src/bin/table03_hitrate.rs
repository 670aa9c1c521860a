//! Table 3: hit rate of the backward dangerous structure per workload.

use harmony_bench::{measure, pct, per_block_run, Table, WorkloadKind};
use harmony_core::HarmonyConfig;
use harmony_sim::EngineKind;

fn hit_rate(workload: &WorkloadKind) -> f64 {
    let harmony = EngineKind::Harmony(HarmonyConfig::default());
    let stats = measure(harmony, workload, &per_block_run()).unwrap().stats;
    let hits = stats.aborted_rule1 + stats.aborted_interblock;
    hits as f64 / (stats.txns - stats.user_aborted).max(1) as f64
}

fn main() {
    let mut t = Table::new("table03_hitrate", &["workload", "param", "hit_rate"]);
    for theta in [0.0, 0.2, 0.4, 0.6, 0.8, 0.99] {
        t.row(vec![
            "YCSB".into(),
            format!("skew={theta}"),
            pct(hit_rate(&WorkloadKind::Ycsb { theta })),
        ]);
    }
    for theta in [0.0, 0.2, 0.4, 0.6, 0.8, 0.99] {
        t.row(vec![
            "Smallbank".into(),
            format!("skew={theta}"),
            pct(hit_rate(&WorkloadKind::Smallbank { theta })),
        ]);
    }
    for w in [1u64, 20, 40] {
        t.row(vec![
            "TPC-C".into(),
            format!("warehouses={w}"),
            pct(hit_rate(&WorkloadKind::Tpcc { warehouses: w })),
        ]);
    }
    t.emit();
}
