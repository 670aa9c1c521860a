//! RBC — "Blockchain Meets Database" (Nathan et al., VLDB 2019): an
//! order-execute relational blockchain with *serial* deterministic commit
//! based on SSI dangerous structures.
//!
//! Per the paper's taxonomy: RBC obtains deterministic read-write sets from
//! block snapshots (like Aria) but validates transactions **one by one in
//! TID order** to uphold determinism. It aborts on (1) ww-dependencies
//! (first-updater-wins, inherited from snapshot isolation) and (2) SSI
//! pivots — a transaction with both an incoming and an outgoing
//! rw-dependency to already-committed transactions of the block. Fewer
//! false aborts than Fabric, but the serial commit step caps concurrency —
//! the reason RBC's optimal block size is small (Figure 9/10).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use harmony_common::error::AbortReason;
use harmony_common::{vtime, BlockId, Result, TxnId};
use harmony_core::executor::{BlockSummary, ExecBlock, TxnOutcome};
use harmony_core::SnapshotStore;
use harmony_txn::Key;

use crate::protocol::{
    eval_writes, install_writes, simulate_block, DccEngine, ProtocolBlockResult,
};

/// The RBC engine.
pub struct Rbc {
    store: Arc<SnapshotStore>,
    workers: usize,
}

impl Rbc {
    /// New engine over `store`.
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, workers: usize) -> Rbc {
        Rbc { store, workers }
    }
}

impl DccEngine for Rbc {
    fn name(&self) -> &'static str {
        "RBC"
    }

    fn commit_is_serial(&self) -> bool {
        true
    }

    fn execute_block(
        &self,
        block: &ExecBlock,
        _prev: Option<&BlockSummary>,
    ) -> Result<ProtocolBlockResult> {
        let snapshot = BlockId(block.id.0 - 1);
        let n = block.txns.len();
        let (rwsets, sim_ns) = simulate_block(&self.store, snapshot, block, self.workers);

        // Serial validation + apply, in TID order.
        let mut committed_writes: HashMap<Key, ()> = HashMap::new();
        let mut committed_reads: HashMap<Key, ()> = HashMap::new();
        let mut written_this_block: HashSet<Key> = HashSet::new();
        let mut outcomes = Vec::with_capacity(n);
        let mut commit_ns = vec![0u64; n];
        for i in 0..n {
            let Some(rwset) = &rwsets[i] else {
                outcomes.push(TxnOutcome::Aborted(AbortReason::UserAbort));
                continue;
            };
            let tid = TxnId::new(block.id, i as u32).0;
            let ((), ns) = vtime::scope(|| {
                // ww: first-updater-wins against committed predecessors.
                let ww = rwset.write_keys().any(|k| committed_writes.contains_key(k));
                // SSI pivot: out-edge (read something a committed txn
                // wrote) AND in-edge (wrote something a committed txn
                // read).
                let out_edge = rwset.read_keys().any(|k| committed_writes.contains_key(k))
                    || rwset
                        .scans
                        .iter()
                        .any(|p| committed_writes.keys().any(|k| p.covers(k)));
                let in_edge = rwset.write_keys().any(|k| committed_reads.contains_key(k));
                let outcome = if ww {
                    TxnOutcome::Aborted(AbortReason::WwConflict)
                } else if out_edge && in_edge {
                    TxnOutcome::Aborted(AbortReason::SsiDangerousStructure)
                } else {
                    TxnOutcome::Committed
                };
                outcomes.push(outcome);
            });
            commit_ns[i] += ns;
            if outcomes[i] != TxnOutcome::Committed {
                continue;
            }
            let (apply_res, ns) = vtime::scope(|| -> Result<()> {
                let writes = eval_writes(&self.store, snapshot, rwset)?;
                install_writes(&self.store, block.id, tid, &writes, &mut written_this_block)?;
                Ok(())
            });
            apply_res?;
            commit_ns[i] += ns;
            for k in rwset.write_keys() {
                committed_writes.insert(k.clone(), ());
            }
            for k in rwset.read_keys() {
                committed_reads.insert(k.clone(), ());
            }
        }

        self.store.gc(snapshot);
        Ok(ProtocolBlockResult::new(
            block.id, outcomes, rwsets, sim_ns, commit_ns, 0,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::testutil::*;

    fn engine() -> (Rbc, harmony_common::ids::TableId, Arc<SnapshotStore>) {
        let (store, t) = setup(16);
        (Rbc::new(Arc::clone(&store), 2), t, store)
    }

    #[test]
    fn disjoint_txns_commit() {
        let (rbc, t, store) = engine();
        let block = ExecBlock::new(
            BlockId(1),
            (0..4)
                .map(|i| read_add_txn(t, vec![i], vec![i + 8]))
                .collect(),
        );
        let res = rbc.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 4);
        assert_eq!(read_i64(&store, t, 10), Some(101));
    }

    #[test]
    fn ww_first_updater_wins() {
        let (rbc, t, store) = engine();
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![], vec![0]),
                read_add_txn(t, vec![], vec![0]),
                read_add_txn(t, vec![], vec![0]),
            ],
        );
        let res = rbc.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 1);
        assert_eq!(res.stats.aborted_ww, 2);
        assert_eq!(read_i64(&store, t, 0), Some(101));
    }

    #[test]
    fn single_stale_read_commits_unlike_fabric() {
        // T0 writes x; T1 reads x and writes elsewhere: only an out-edge —
        // RBC commits it (the "T2 → T1 serializable order" insight §2.2.2).
        let (rbc, t, _) = engine();
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![], vec![0]),
                read_add_txn(t, vec![0], vec![1]),
            ],
        );
        let res = rbc.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 2);
    }

    #[test]
    fn ssi_pivot_aborts() {
        // Write-skew: T0 reads y writes x; T1 reads x writes y. T1 has an
        // out-edge (read x, committed T0 wrote x) and an in-edge (writes y,
        // committed T0 read y) => pivot.
        let (rbc, t, _) = engine();
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![1], vec![0]),
                read_add_txn(t, vec![0], vec![1]),
            ],
        );
        let res = rbc.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 1);
        assert_eq!(res.stats.aborted_ssi, 1);
        assert_eq!(
            res.outcomes[1],
            TxnOutcome::Aborted(AbortReason::SsiDangerousStructure)
        );
    }

    #[test]
    fn commit_cost_is_recorded_serially() {
        // Use a cost-bearing storage config so apply work accrues vtime.
        let engine = {
            let config = harmony_storage::StorageConfig {
                cost: harmony_storage::StorageCost::default(),
                ..harmony_storage::StorageConfig::memory()
            };
            Arc::new(harmony_storage::StorageEngine::open(&config).unwrap())
        };
        let t = engine.create_table("t").unwrap();
        for i in 0..8u64 {
            engine
                .put(t, &i.to_be_bytes(), &100i64.to_le_bytes())
                .unwrap();
        }
        let store = Arc::new(SnapshotStore::new(engine));
        let rbc = Rbc::new(Arc::clone(&store), 2);
        let block = ExecBlock::new(
            BlockId(1),
            (0..6).map(|i| read_add_txn(t, vec![], vec![i])).collect(),
        );
        let res = rbc.execute_block(&block, None).unwrap();
        assert!(rbc.commit_is_serial());
        assert!(
            res.commit_ns.iter().filter(|&&c| c > 0).count() >= 6,
            "every committed txn's serial apply must be costed: {:?}",
            res.commit_ns
        );
    }
}
