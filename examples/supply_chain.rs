//! Relational smart contracts: TPC-C order processing as a supply-chain
//! ledger — the workloads with data-dependent branches that static
//! analysis cannot handle and optimistic DCC executes natively.
//!
//! ```sh
//! cargo run --release --example supply_chain
//! ```

use std::sync::Arc;

use harmonybc::common::{BlockId, DetRng};
use harmonybc::core::executor::ExecBlock;
use harmonybc::core::{BlockExecutor, HarmonyConfig, SnapshotStore};
use harmonybc::storage::{StorageConfig, StorageEngine};
use harmonybc::txn::row::read_i64;
use harmonybc::workloads::tpcc::{dist, DISTRICTS};
use harmonybc::workloads::{Tpcc, TpccConfig, Workload};

fn main() -> harmonybc::common::Result<()> {
    let engine = Arc::new(StorageEngine::open(&StorageConfig::memory())?);
    let mut tpcc = Tpcc::new(TpccConfig {
        warehouses: 2,
        scale: 0.02,
        ..TpccConfig::default()
    });
    println!("loading 2 warehouses...");
    tpcc.setup(&engine)?;
    let tables = tpcc.tables();

    let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
    let executor = BlockExecutor::new(Arc::clone(&store), HarmonyConfig::default());

    // Each block is validated against the Rule-3 summary of the one before
    // it (inter-block parallelism): the caller keeps it, as a chain does.
    let mut rng = DetRng::new(7);
    let mut committed = 0usize;
    let mut attempts = 0usize;
    let mut prev = None;
    for b in 1..=15u64 {
        let block = ExecBlock::new(BlockId(b), tpcc.next_block(&mut rng, 20));
        let result = executor.execute(&block, prev.as_ref())?;
        committed += result.stats.committed;
        attempts += result.stats.txns;
        prev = Some(result.summary);
    }
    println!("{committed}/{attempts} transactions committed across 15 blocks");

    // Orders flowed: district next_o_id counters moved past their initial
    // value wherever NewOrders landed.
    let initial = tpcc.config().initial_orders() as i64;
    let mut total_new_orders = 0i64;
    for w in 0..2u64 {
        for d in 0..DISTRICTS {
            let mut key = w.to_be_bytes().to_vec();
            key.push(d as u8);
            let row = engine.get(tables.district, &key)?.expect("district row");
            total_new_orders += read_i64(&row, dist::NEXT_O_ID).unwrap() - initial;
        }
    }
    println!("{total_new_orders} new orders accepted (district counters advanced)");
    println!(
        "order lines on file: {}",
        engine.table_len(tables.order_line)?
    );
    Ok(())
}
