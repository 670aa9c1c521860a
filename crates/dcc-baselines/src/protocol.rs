//! The uniform protocol interface and the block path the five engines
//! share.
//!
//! Every engine runs a block the same way: simulate each transaction
//! against a snapshot through [`harmony_txn::simulate`] ([`simulate_block`]
//! for the order-execute baselines), decide which read-write sets commit,
//! apply them, and return a [`ProtocolBlockResult`] whose counters come
//! from [`BlockStats::tally`]. The engines differ only in the decision
//! rule and in how the committed sets are applied. None of them numbers
//! blocks: an engine executes the block it is handed, and the chain that
//! hosts it is the one guard that the block follows the last.

use harmony_common::{BlockId, Result};
use harmony_core::executor::{BlockSummary, ExecBlock, TxnOutcome};
use harmony_core::par::run_indexed;
use harmony_core::{BlockStats, SnapshotStore};
use harmony_txn::{simulate, Key, RwSet, Value};

/// Blockchain architecture (Table 1 of the paper). Drives the cluster
/// performance model: SOV ships read-write sets and needs client round
/// trips; OE ships only transaction commands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Architecture {
    /// Simulate-Order-Validate (Fabric family).
    Sov,
    /// Order-Execute (= deterministic databases' Sequence-Execute).
    Oe,
}

/// Result of pushing one block through a protocol.
#[derive(Debug)]
pub struct ProtocolBlockResult {
    /// The block.
    pub block: BlockId,
    /// Outcome per transaction (block order).
    pub outcomes: Vec<TxnOutcome>,
    /// Captured read-write sets (`None` for user aborts).
    pub rwsets: Vec<Option<RwSet>>,
    /// Counters.
    pub stats: BlockStats,
    /// Per-transaction simulation cost (parallelizable stage).
    pub sim_ns: Vec<u64>,
    /// Per-transaction validation+apply cost. Interpreted serially or in
    /// parallel according to [`DccEngine::commit_is_serial`].
    pub commit_ns: Vec<u64>,
    /// Centralized (unparallelizable) ordering-service work, e.g.
    /// FastFabric#'s dependency-graph traversal.
    pub orderer_ns: u64,
    /// Rule-3 digest for the next block (Harmony only; `None` elsewhere).
    /// A chain moves it into its own last summary, so a result an
    /// `OeChain` returns carries `None`.
    pub summary: Option<BlockSummary>,
}

impl ProtocolBlockResult {
    /// A baseline's result: the counters are tallied from `outcomes` and
    /// the per-transaction costs, and there is no Rule-3 summary.
    #[must_use]
    pub fn new(
        block: BlockId,
        outcomes: Vec<TxnOutcome>,
        rwsets: Vec<Option<RwSet>>,
        sim_ns: Vec<u64>,
        commit_ns: Vec<u64>,
        orderer_ns: u64,
    ) -> ProtocolBlockResult {
        ProtocolBlockResult {
            block,
            stats: BlockStats::tally(&outcomes, &sim_ns, &commit_ns),
            outcomes,
            rwsets,
            sim_ns,
            commit_ns,
            orderer_ns,
            summary: None,
        }
    }
}

/// A deterministic concurrency control engine executing whole blocks.
pub trait DccEngine: Send + Sync {
    /// Display name (matches the paper's system names).
    fn name(&self) -> &'static str;

    /// Whether the commit step processes transactions one-by-one.
    fn commit_is_serial(&self) -> bool;

    /// Pipeline depth for the scheduler: 1 = blocks strictly sequential,
    /// 2 = simulation of block `i+1` overlaps commit of block `i`.
    fn pipeline_depth(&self) -> usize {
        1
    }

    /// Execute `block`. The host feeds blocks in consecutive order; the
    /// engine does not check it.
    ///
    /// `prev` is the Rule-3 summary of the block before `block` (`None`
    /// before the first): no engine keeps one between blocks, so the host
    /// hands it over. Harmony validates against it under inter-block
    /// parallelism; the other engines' rules are per-block, and they
    /// ignore it.
    fn execute_block(
        &self,
        block: &ExecBlock,
        prev: Option<&BlockSummary>,
    ) -> Result<ProtocolBlockResult>;
}

/// Shared simulation step: run every transaction against `snapshot` in
/// parallel, returning captured rwsets (`None` = user abort) and per-txn
/// virtual costs.
pub fn simulate_block(
    store: &SnapshotStore,
    snapshot: BlockId,
    block: &ExecBlock,
    workers: usize,
) -> (Vec<Option<RwSet>>, Vec<u64>) {
    run_indexed(block.txns.len(), workers, |i| {
        simulate(block.txns[i].as_ref(), &store.view_at(snapshot))
    })
    .into_iter()
    .unzip()
}

/// Evaluate a transaction's write set into concrete values against
/// `snapshot` — what value-shipping protocols (Aria, RBC, Fabric) install
/// at commit. RMW commands on missing records are zero-row no-ops.
pub fn eval_writes(
    store: &SnapshotStore,
    snapshot: BlockId,
    rwset: &RwSet,
) -> Result<Vec<(Key, Option<Value>)>> {
    let mut out = Vec::with_capacity(rwset.updates.len());
    for (key, seq) in &rwset.updates {
        let mut cur = store.read_at(snapshot, key)?;
        for cmd in seq.commands() {
            match cmd.apply(cur.as_ref()) {
                Ok(v) => cur = v,
                Err(harmony_common::Error::InvalidArgument(_)) => {}
                Err(e) => return Err(e),
            }
        }
        out.push((key.clone(), cur));
    }
    Ok(out)
}

/// Install evaluated writes for one committed transaction, respecting the
/// one-undo-entry-per-(key, block) discipline via `written_this_block`. A
/// key's first write in the block is one read-modify-write that ignores
/// the value it finds ([`SnapshotStore::apply_write`]).
pub fn install_writes(
    store: &SnapshotStore,
    block: BlockId,
    tid: u64,
    writes: &[(Key, Option<Value>)],
    written_this_block: &mut std::collections::HashSet<Key>,
) -> Result<()> {
    for (key, value) in writes {
        if written_this_block.insert(key.clone()) {
            store.apply_write(block, tid, key, |_| Ok(value.clone()))?;
        } else {
            store.overwrite_in_block(tid, key, value.as_ref())?;
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use harmony_common::ids::TableId;
    use harmony_storage::{StorageConfig, StorageEngine};
    use harmony_txn::{Contract, FnContract, TxnCtx, UserAbort};
    use std::sync::Arc;

    /// Fresh store with `n` i64 records valued 100 in table "t".
    pub fn setup(n_keys: u64) -> (Arc<SnapshotStore>, TableId) {
        let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
        let t = engine.create_table("t").unwrap();
        for i in 0..n_keys {
            engine
                .put(t, &i.to_be_bytes(), &100i64.to_le_bytes())
                .unwrap();
        }
        (Arc::new(SnapshotStore::new(engine)), t)
    }

    pub fn key(t: TableId, i: u64) -> Key {
        Key::from_u64(t, i)
    }

    pub fn read_i64(store: &SnapshotStore, t: TableId, i: u64) -> Option<i64> {
        store
            .engine()
            .get(t, &i.to_be_bytes())
            .unwrap()
            .map(|v| i64::from_le_bytes(v.as_slice().try_into().unwrap()))
    }

    /// Reads `reads`, then `add(w, 1)` for each `w` in `writes`.
    pub fn read_add_txn(t: TableId, reads: Vec<u64>, writes: Vec<u64>) -> Arc<dyn Contract> {
        Arc::new(FnContract::new("read-add", move |ctx: &mut TxnCtx<'_>| {
            for &r in &reads {
                ctx.read(&key(t, r)).map_err(|e| UserAbort(e.to_string()))?;
            }
            for &w in &writes {
                ctx.add_i64(key(t, w), 0, 1);
            }
            Ok(())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use harmony_txn::UpdateCommand;

    #[test]
    fn simulate_block_captures_rwsets() {
        let (store, t) = setup(4);
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![0], vec![1]),
                read_add_txn(t, vec![2], vec![3]),
            ],
        );
        let (rwsets, costs) = simulate_block(&store, BlockId(0), &block, 2);
        assert_eq!(rwsets.len(), 2);
        assert!(rwsets.iter().all(Option::is_some));
        assert_eq!(costs.len(), 2);
        assert_eq!(rwsets[0].as_ref().unwrap().reads.len(), 1);
        assert_eq!(rwsets[0].as_ref().unwrap().updates.len(), 1);
    }

    #[test]
    fn eval_writes_resolves_rmw_against_snapshot() {
        let (store, t) = setup(1);
        let mut rw = RwSet::default();
        rw.record_update(
            key(t, 0),
            UpdateCommand::AddI64 {
                offset: 0,
                delta: 7,
            },
        );
        let writes = eval_writes(&store, BlockId(0), &rw).unwrap();
        assert_eq!(writes.len(), 1);
        let v = writes[0].1.as_ref().unwrap();
        assert_eq!(i64::from_le_bytes(v.as_ref().try_into().unwrap()), 107);
    }

    #[test]
    fn install_writes_once_per_key() {
        let (store, t) = setup(1);
        let mut seen = std::collections::HashSet::new();
        let v1 = Value::from(1i64.to_le_bytes().to_vec());
        let v2 = Value::from(2i64.to_le_bytes().to_vec());
        install_writes(&store, BlockId(1), 10, &[(key(t, 0), Some(v1))], &mut seen).unwrap();
        install_writes(&store, BlockId(1), 11, &[(key(t, 0), Some(v2))], &mut seen).unwrap();
        assert_eq!(read_i64(&store, t, 0), Some(2));
        // Snapshot 0 still sees the pre-block value through one undo entry.
        assert_eq!(
            store
                .read_at(BlockId(0), &key(t, 0))
                .unwrap()
                .map(|v| i64::from_le_bytes(v.as_ref().try_into().unwrap())),
            Some(100)
        );
    }
}
