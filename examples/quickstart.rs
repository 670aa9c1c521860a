//! Quickstart: build a HarmonyBC node, run a few blocks of a custom smart
//! contract, and inspect the results.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use harmonybc::baselines::EngineSpec;
use harmonybc::chain::{ChainConfig, OeChain};
use harmonybc::common::ids::TableId;
use harmonybc::txn::{Contract, FnContract, Key, TxnCtx};

/// A trivial codec for our counter contracts (the smart-contract registry
/// a replica would use to replay logged blocks).
struct CounterCodec {
    table: TableId,
}

impl harmonybc::txn::ContractCodec for CounterCodec {
    fn decode(&self, bytes: &[u8]) -> harmonybc::common::Result<Arc<dyn Contract>> {
        let (_, payload) = harmonybc::txn::split_encoded(bytes)?;
        let id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        Ok(increment(self.table, id))
    }
}

/// `UPDATE counters SET value = value + 1 WHERE id = ?` as a contract.
fn increment(table: TableId, id: u64) -> Arc<dyn Contract> {
    Arc::new(
        FnContract::new("inc", move |ctx: &mut TxnCtx<'_>| {
            // A single-statement read-modify-write: Harmony reorders and
            // coalesces these, so concurrent increments never abort.
            ctx.add_i64(Key::from_u64(table, id), 0, 1);
            Ok(())
        })
        .with_payload(id.to_le_bytes().to_vec()),
    )
}

fn main() -> harmonybc::common::Result<()> {
    // 1. A fresh in-memory HarmonyBC node (Harmony DCC, logical logging,
    //    checkpoints every 10 blocks).
    let mut chain = OeChain::open(ChainConfig::in_memory(), EngineSpec::default())?;

    // 2. Genesis state: one table with ten counters.
    let table = chain.engine().create_table("counters")?;
    for id in 0..10u64 {
        chain
            .engine()
            .put(table, &id.to_be_bytes(), &0i64.to_le_bytes())?;
    }
    let codec = CounterCodec { table };

    // 3. Submit three blocks of contended increments — every transaction
    //    in a block hits the same hot counter, and all of them commit.
    for round in 0..3u64 {
        let txns: Vec<Arc<dyn Contract>> = (0..20).map(|_| increment(table, round % 10)).collect();
        let (block, result) = chain.submit_block(txns, &codec)?;
        println!(
            "block {:>2} [{}]: {} committed / {} txns, aborts: {}",
            block.header.id,
            &block.header.hash().to_hex()[..12],
            result.stats.committed,
            result.stats.txns,
            result.stats.protocol_aborts(),
        );
    }

    // 4. Inspect the state: counter of round 0 took 20 increments, etc.
    for id in 0..3u64 {
        let v = chain.engine().get(table, &id.to_be_bytes())?.unwrap();
        println!(
            "counter {id} = {}",
            i64::from_le_bytes(v.as_slice().try_into().unwrap())
        );
    }

    // 5. The chain is tamper-evident and replayable.
    let blocks = chain.verify_chain()?;
    println!(
        "verified {} blocks; state root {}",
        blocks.len(),
        chain.state_root()?
    );
    Ok(())
}
