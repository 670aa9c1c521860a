//! Figure 22 (extension): shard-scaling. Throughput vs shard count
//! (1/2/4/8/16) at 0%, 5% and 20% cross-shard transaction ratios, on
//! partition-aware Smallbank.
//!
//! Expected shape: a fully partitionable workload scales near-linearly
//! with the shard count (sub-blocks shrink, shards execute concurrently);
//! the cross-shard series pay the read-fragment exchange round plus the
//! unsharded re-simulation stage and degrade gracefully as the ratio
//! grows. Select a subset of engines with e.g.
//! `HARMONY_ENGINES=harmony,aria` to bound runtime.

use harmony_bench::{all_systems, f2, pct, Table};
use harmony_sim::{run_sharded_experiment, RunConfig, ShardRunConfig};
use harmony_workloads::{Smallbank, SmallbankConfig};

/// Logical partitions — fixed across shard counts (must cover the largest).
const PARTITIONS: u32 = 16;
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
/// Target *block-level* fraction of cross-shard transactions.
const CROSS_RATIOS: [f64; 3] = [0.0, 0.05, 0.20];
/// Smallbank's `multi_partition_ratio` knob applies only to the
/// two-account procedures (Amalgamate 0.15 + SendPayment 0.15 of the
/// mix), so the per-procedure knob is the block-level target divided by
/// that share.
const TWO_ACCOUNT_SHARE: f64 = 0.30;

fn main() {
    let mut t = Table::new(
        "fig22_shard_scaling",
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
        for &ratio in &CROSS_RATIOS {
            for &shards in &SHARD_COUNTS {
                let mut w = Smallbank::new(SmallbankConfig {
                    partitions: u64::from(PARTITIONS),
                    multi_partition_ratio: (ratio / TWO_ACCOUNT_SHARE).min(1.0),
                    ..SmallbankConfig::default()
                });
                let config = ShardRunConfig {
                    base: RunConfig {
                        blocks: 8,
                        block_size: 480,
                        ..RunConfig::default()
                    },
                    shards,
                    partitions: PARTITIONS,
                };
                let m = run_sharded_experiment(kind, &mut w, &config).unwrap();
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
    t.emit();
}
