//! Sharded payments: partition-aware Smallbank across 4 shards with
//! deterministic cross-shard transfers — no two-phase commit, no votes.
//!
//! ```sh
//! cargo run --release --example sharded_payments
//! ```

use harmonybc::baselines::{EngineKind, EngineSpec};
use harmonybc::chain::{ChainConfig, OeChain};
use harmonybc::common::DetRng;
use harmonybc::consensus::net::LatencyModel;
use harmonybc::core::HarmonyConfig;
use harmonybc::shard::{Partitioning, ShardGroup, ShardRouter};
use harmonybc::workloads::{Smallbank, SmallbankConfig, Workload};

const SHARDS: usize = 4;
const PARTITIONS: u32 = 16;
const BLOCKS: u64 = 15;
const BLOCK_SIZE: usize = 60;

fn main() -> harmonybc::common::Result<()> {
    // 10% of two-account procedures (SendPayment, Amalgamate) pick their
    // counterparty in a foreign partition → cross-shard transactions.
    let mut bank = Smallbank::new(SmallbankConfig {
        accounts: 2_000,
        theta: 0.5,
        partitions: u64::from(PARTITIONS),
        multi_partition_ratio: 0.10,
    });

    let router = ShardRouter::new(Partitioning::Hash.build(PARTITIONS), SHARDS);
    // One hash-chained HarmonyBC chain per shard (sharded profile, 4 cores).
    let spec = EngineSpec::sharded(EngineKind::Harmony(HarmonyConfig::default()), 4);
    let chains = (0..SHARDS)
        .map(|_| OeChain::open(ChainConfig::in_memory(), spec))
        .collect::<harmonybc::common::Result<_>>()?;
    let mut group = ShardGroup::new(router, chains, LatencyModel::lan_1g());
    group.setup_with(&[], |engine| {
        bank.setup(engine)?;
        Ok(bank.codec())
    })?;

    println!(
        "Smallbank on {SHARDS} shards ({PARTITIONS} logical partitions), \
         {BLOCKS} blocks × {BLOCK_SIZE} txns, 10% cross-partition transfers:\n"
    );
    let mut rng = DetRng::new(2026);
    let (mut committed, mut cross, mut cross_committed) = (0usize, 0usize, 0usize);
    let mut shard_committed = [0usize; SHARDS];
    for _ in 0..BLOCKS {
        let result = group.execute_block(&bank.next_block(&mut rng, BLOCK_SIZE))?;
        committed += result.stats.committed;
        cross += result.cross_txns;
        cross_committed += result.cross_committed;
        for (s, r) in result.shard_results.iter().enumerate() {
            shard_committed[s] += r.stats.committed;
        }
    }
    println!(
        "committed {committed}/{} transactions; {cross} cross-shard, \
         {cross_committed} of them committed with zero coordination rounds\n",
        BLOCKS as usize * BLOCK_SIZE
    );

    let roots = group.state_roots()?;
    for (s, root) in roots.shard_roots.iter().enumerate() {
        println!(
            "shard {s}: {:>4} sub-block commits (incl. fragments), root {}",
            shard_committed[s],
            &root.to_hex()[..16]
        );
    }
    println!("\nglobal state root (Merkle fold): {}", roots.root.to_hex());
    println!(
        "logical state root (shard-count invariant): {}",
        group.logical_state_root()?.to_hex()
    );
    Ok(())
}
