//! AriaBC — Aria's ODCC (Lu et al., VLDB 2020) chainified as an
//! order-execute blockchain, the paper's strongest DCC baseline.
//!
//! Aria simulates every transaction against the block snapshot, reserves
//! reads and writes, and commits `T_j` unless:
//!
//! * `T_j` has a **waw**-dependency (an earlier transaction writes a key
//!   `T_j` writes) — always an abort (Figure 2 of the HarmonyBC paper), or
//! * `T_j` has both a **raw**-dependency (it read a key an earlier
//!   transaction writes) and a **war**-dependency (an earlier transaction
//!   read a key `T_j` writes). This is Aria's deterministic reordering
//!   optimization, always on: a raw-only transaction commits as if it
//!   ran before its writers.
//!
//! Surviving transactions have disjoint write sets, so the commit step is
//! fully parallel in the cost model — Aria's strength, bought with a high
//! abort rate under write contention, which is exactly the axis Harmony
//! improves on.

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

/// The Aria engine.
pub struct Aria {
    store: Arc<SnapshotStore>,
    workers: usize,
}

impl Aria {
    /// New engine over `store`, simulating on `workers` threads (the
    /// cost model also spreads the commit step over that many).
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, workers: usize) -> Aria {
        Aria { store, workers }
    }
}

impl DccEngine for Aria {
    fn name(&self) -> &'static str {
        "AriaBC"
    }

    fn commit_is_serial(&self) -> bool {
        false
    }

    fn execute_block(
        &self,
        block: &ExecBlock,
        _prev: Option<&BlockSummary>,
    ) -> Result<ProtocolBlockResult> {
        let snapshot = BlockId(block.id.0 - 1);
        let n = block.txns.len();
        let (rwsets, sim_ns) = simulate_block(&self.store, snapshot, block, self.workers);

        // Reservation phase: smallest reader/writer TID per key.
        let mut min_writer: HashMap<&Key, u64> = HashMap::new();
        let mut min_reader: HashMap<&Key, u64> = HashMap::new();
        for (i, rwset) in rwsets.iter().enumerate() {
            let Some(rwset) = rwset else { continue };
            let tid = TxnId::new(block.id, i as u32).0;
            for (key, _) in &rwset.updates {
                min_writer
                    .entry(key)
                    .and_modify(|t| *t = (*t).min(tid))
                    .or_insert(tid);
            }
            for r in &rwset.reads {
                min_reader
                    .entry(&r.key)
                    .and_modify(|t| *t = (*t).min(tid))
                    .or_insert(tid);
            }
        }

        // Commit decision per transaction (parallelizable; cheap).
        let mut outcomes = Vec::with_capacity(n);
        for (i, rwset) in rwsets.iter().enumerate() {
            let Some(rwset) = rwset else {
                outcomes.push(TxnOutcome::Aborted(AbortReason::UserAbort));
                continue;
            };
            let tid = TxnId::new(block.id, i as u32).0;
            let waw = rwset
                .write_keys()
                .any(|k| min_writer.get(k).copied().unwrap_or(u64::MAX) < tid);
            let raw = rwset
                .read_keys()
                .any(|k| min_writer.get(k).copied().unwrap_or(u64::MAX) < tid);
            let war = rwset
                .write_keys()
                .any(|k| min_reader.get(k).copied().unwrap_or(u64::MAX) < tid);
            let outcome = if waw {
                TxnOutcome::Aborted(AbortReason::WwConflict)
            } else if raw && war {
                TxnOutcome::Aborted(AbortReason::StaleRead)
            } else {
                TxnOutcome::Committed
            };
            outcomes.push(outcome);
        }

        // Committed write sets are disjoint by construction (any overlap
        // implies a waw on the larger TID). They are installed on this
        // thread in TID order, each in its own scope, so the pages and
        // every transaction's charge follow from the block.
        let mut commit_ns = vec![0u64; n];
        for (i, outcome) in outcomes.iter().enumerate() {
            if *outcome != TxnOutcome::Committed {
                continue;
            }
            let rwset = rwsets[i].as_ref().expect("committed implies rwset");
            let tid = TxnId::new(block.id, i as u32).0;
            let (res, ns) = vtime::scope(|| -> Result<()> {
                let writes = eval_writes(&self.store, snapshot, rwset)?;
                install_writes(&self.store, block.id, tid, &writes, &mut HashSet::new())
            });
            res?;
            commit_ns[i] = ns;
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

    fn engine() -> (Aria, harmony_common::ids::TableId, Arc<SnapshotStore>) {
        let (store, t) = setup(16);
        (Aria::new(Arc::clone(&store), 2), t, store)
    }

    #[test]
    fn disjoint_txns_commit() {
        let (aria, t, store) = engine();
        let block = ExecBlock::new(
            BlockId(1),
            (0..4)
                .map(|i| read_add_txn(t, vec![i], vec![i + 8]))
                .collect(),
        );
        let res = aria.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 4);
        assert_eq!(read_i64(&store, t, 8), Some(101));
    }

    #[test]
    fn ww_aborts_larger_tid() {
        // Two writers of one key: Aria aborts the larger TID — the
        // motivating difference from Harmony (Figure 2).
        let (aria, t, store) = engine();
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![], vec![0]),
                read_add_txn(t, vec![], vec![0]),
            ],
        );
        let res = aria.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 1);
        assert_eq!(res.stats.aborted_ww, 1);
        assert_eq!(res.outcomes[0], TxnOutcome::Committed);
        assert_eq!(read_i64(&store, t, 0), Some(101));
    }

    #[test]
    fn raw_only_commits_with_reordering() {
        // T0 writes x; T1 reads x (raw) but nothing reads T1's writes (no
        // war): the reordering optimization commits T1 "before" T0.
        let (aria, t, _) = engine();
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![], vec![0]),
                read_add_txn(t, vec![0], vec![1]),
            ],
        );
        let res = aria.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 2, "raw-only must commit");
    }

    #[test]
    fn raw_and_war_aborts_even_with_reordering() {
        // T0 writes x reads y... construct: T1 reads x (raw vs T0) and
        // writes y which T0 reads (war vs T0) => T1 aborts.
        let (aria, t, _) = engine();
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![1], vec![0]),
                read_add_txn(t, vec![0], vec![1]),
            ],
        );
        let res = aria.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 1);
        assert_eq!(res.outcomes[1], TxnOutcome::Aborted(AbortReason::StaleRead));
    }

    #[test]
    fn snapshot_semantics_across_blocks() {
        let (aria, t, store) = engine();
        // Block 1 adds 1 to key 0; block 2 adds 1 again: both read their
        // respective previous-block snapshots.
        for b in 1..=2u64 {
            let block = ExecBlock::new(BlockId(b), vec![read_add_txn(t, vec![], vec![0])]);
            aria.execute_block(&block, None).unwrap();
        }
        assert_eq!(read_i64(&store, t, 0), Some(102));
    }
}
