//! Figure 13: false abort rate (aborts that a full-graph oracle would have
//! committed). FastFabric# is excluded, as in the paper — its graph
//! traversal eliminates false aborts by construction.

use harmony_bench::{false_aborts_in, pct, per_block_run, Table, WorkloadKind};
use harmony_core::HarmonyConfig;
use harmony_sim::{run_experiment_inspected, EngineKind};

fn rate(kind: EngineKind, workload: &WorkloadKind) -> (f64, f64) {
    let mut fa = 0u64;
    let mut aborts = 0u64;
    let mut txns = 0u64;
    let mut w = workload.build();
    run_experiment_inspected(kind, w.as_mut(), &per_block_run(), |res| {
        let (f, a) = false_aborts_in(res);
        fa += f;
        aborts += a;
        txns += (res.stats.txns - res.stats.user_aborted) as u64;
    })
    .unwrap();
    (
        fa as f64 / txns.max(1) as f64,
        aborts as f64 / txns.max(1) as f64,
    )
}

fn main() {
    let mut t = Table::new(
        "fig13_false_aborts",
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
    #[allow(clippy::type_complexity)]
    let cases: [(&str, fn(f64) -> WorkloadKind); 2] = [
        ("YCSB", |theta| WorkloadKind::Ycsb { theta }),
        ("Smallbank", |theta| WorkloadKind::Smallbank { theta }),
    ];
    for (wl_name, make) in cases {
        for kind in systems {
            for theta in [0.0, 0.4, 0.8, 0.99] {
                let (f, a) = rate(kind, &make(theta));
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
    t.emit();
}
