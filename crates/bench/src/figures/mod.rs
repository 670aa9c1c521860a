//! Every figure, table and smoke of the harness, one function each,
//! listed once in [`FIGURES`]. A figure takes its registered name and
//! uses it as the stem of the artifacts it writes under
//! `EXPERIMENTS-results/`.

mod chaos_smoke;
mod metrics_smoke;
mod node_e2e;
mod paper;
mod reshard_smoke;
mod sharded_node;

use harmony_common::Result;

use paper::{smallbank, ycsb};

/// A figure: runs, prints its series and writes its artifacts.
pub type Figure = fn(&str) -> Result<()>;

/// How many leading entries of [`FIGURES`] make up the paper's
/// evaluation (§5), the set that `all` runs.
pub const PAPER_FIGURES: usize = 18;

/// Every registered figure by name: the paper's evaluation first, in
/// the order `all` runs it, then the node-runtime figures and the smokes.
pub const FIGURES: [(&str, Figure); 23] = [
    ("fig01_gap", paper::fig01_gap),
    ("table03_hitrate", paper::table03_hitrate),
    ("fig07_overall_smallbank", |n| paper::overall(n, smallbank)),
    ("fig08_overall_ycsb", |n| paper::overall(n, ycsb)),
    ("fig09_blocksize_smallbank", |n| {
        paper::block_size(n, smallbank)
    }),
    ("fig10_blocksize_ycsb", |n| paper::block_size(n, ycsb)),
    ("fig11_contention_smallbank", |n| {
        paper::contention(n, smallbank)
    }),
    ("fig12_contention_ycsb", |n| paper::contention(n, ycsb)),
    ("fig13_false_aborts", paper::fig13_false_aborts),
    ("fig14_hotspot", paper::fig14_hotspot),
    ("fig15_replicas_smallbank", |n| {
        paper::replicas(n, smallbank)
    }),
    ("fig16_replicas_ycsb", |n| paper::replicas(n, ycsb)),
    ("fig17_bft_smallbank", |n| paper::bft(n, smallbank)),
    ("fig18_bft_ycsb", |n| paper::bft(n, ycsb)),
    ("fig19_tpcc", paper::fig19_tpcc),
    ("fig20_ablation", paper::fig20_ablation),
    ("fig21_storage_media", paper::fig21_storage_media),
    ("fig22_shard_scaling", paper::fig22_shard_scaling),
    ("fig23_node_e2e", node_e2e::fig23_node_e2e),
    ("fig24_sharded_node", sharded_node::fig24_sharded_node),
    ("metrics_smoke", metrics_smoke::metrics_smoke),
    ("chaos_smoke", chaos_smoke::chaos_smoke),
    ("reshard_smoke", reshard_smoke::reshard_smoke),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_are_unique() {
        let mut names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len());
    }
}
