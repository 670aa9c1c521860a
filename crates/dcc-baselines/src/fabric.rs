//! Fabric — the Simulate-Order-Validate baseline (Hyperledger Fabric).
//!
//! The SOV workflow (§2.1.1 of the paper) is reproduced end-to-end at the
//! database layer:
//!
//! 1. **Simulate**: endorsers execute the transaction against their *local
//!    latest* state — which may lag the true latest state. The read-set
//!    records keys **and versions**.
//! 2. **Endorsement reconciliation**: the client compares the read-write
//!    sets returned by different endorsers; if they diverge (an endorser
//!    lagged across a block that rewrote a read key), no valid endorsement
//!    exists → [`AbortReason::EndorsementMismatch`]. This is why Fabric
//!    aborts transactions even at zero skew (Figure 12).
//! 3. **Order**: the ordering service batches transactions (ships full
//!    read-write sets — the SOV network cost modelled by `harmony-sim`).
//! 4. **Validate** (serial, TID order): abort on any stale read — a read
//!    whose version no longer matches the replica's current state
//!    ([`AbortReason::StaleRead`]; the single-rw-edge "dangerous
//!    structure" that makes Fabric's false-abort rate the highest).
//!
//! Endorser lag is sampled deterministically per (block, txn) from a seed,
//! so runs are reproducible.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use harmony_common::error::AbortReason;
use harmony_common::{vtime, BlockId, DetRng, Result, TxnId};
use harmony_core::executor::{BlockSummary, ExecBlock, TxnOutcome};
use harmony_core::par::run_indexed;
use harmony_core::SnapshotStore;
use harmony_txn::{simulate, Key, RwSet};

use crate::protocol::{eval_writes, install_writes, DccEngine, ProtocolBlockResult};

/// Fabric configuration.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Worker threads for the endorsement simulations.
    pub workers: usize,
    /// Probability that the second endorser lags behind the first (by
    /// 1 to [`MAX_LAG`] blocks).
    pub endorser_lag_prob: f64,
    /// Blocks elapsing between endorsement and validation (client →
    /// orderer → block formation round trips).
    pub validation_delay: u64,
}

/// Seed for the deterministic lag sampling.
const LAG_SEED: u64 = 0xFAB0_51C5;

/// Maximum endorser lag in blocks.
pub const MAX_LAG: u64 = 2;

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: 8,
            endorser_lag_prob: 0.15,
            validation_delay: 1,
        }
    }
}

/// One endorsed transaction: the chosen read-write set, the snapshot it
/// was computed against, and whether endorsers agreed.
pub(crate) struct Endorsement {
    pub rwset: Option<RwSet>,
    pub endorse_snapshot: BlockId,
    pub mismatch: bool,
    pub sim_ns: u64,
}

/// Run the endorsement phase for a block (shared with FastFabric#).
pub(crate) fn endorse_block(
    store: &SnapshotStore,
    block: &ExecBlock,
    config: &FabricConfig,
) -> Vec<Endorsement> {
    let latest = BlockId(block.id.0 - 1);
    run_indexed(block.txns.len(), config.workers, |i| {
        // Deterministic per-(block, txn) lag stream.
        let mut rng = DetRng::new(
            LAG_SEED
                .wrapping_add(block.id.0.wrapping_mul(0x9E37_79B9))
                .wrapping_add(i as u64),
        );
        let lag_primary = 0u64; // the endorser whose rwset the client picks
        let lag_secondary = if rng.gen_bool(config.endorser_lag_prob) {
            1 + rng.gen_range(MAX_LAG)
        } else {
            0
        };
        // Endorsement happened `validation_delay` blocks before this block
        // validates, so the endorser's "latest" state is older still.
        let base = latest.0.saturating_sub(config.validation_delay);
        let snap_primary = BlockId(base.saturating_sub(lag_primary));
        let snap_secondary = BlockId(base.saturating_sub(lag_secondary));

        let (rwset, sim_ns) = simulate(block.txns[i].as_ref(), &store.view_at(snap_primary));
        // Divergence check: would the secondary endorser have observed
        // different versions for any key the primary read?
        let mismatch = rwset.as_ref().is_some_and(|rw| {
            snap_primary != snap_secondary
                && rw.reads.iter().any(|r| {
                    store.version_at(snap_primary, &r.key)
                        != store.version_at(snap_secondary, &r.key)
                })
        });
        Endorsement {
            rwset,
            endorse_snapshot: snap_primary,
            mismatch,
            sim_ns,
        }
    })
}

/// The Fabric engine.
pub struct Fabric {
    store: Arc<SnapshotStore>,
    config: FabricConfig,
}

impl Fabric {
    /// New engine over `store`.
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, config: FabricConfig) -> Fabric {
        Fabric { store, config }
    }

    /// Oldest snapshot an SOV engine under `config` can still read once
    /// `block` has executed: endorsement ran `validation_delay` blocks
    /// back, on an endorser up to [`MAX_LAG`] blocks further behind.
    pub(crate) fn gc_horizon(config: &FabricConfig, block: BlockId) -> BlockId {
        BlockId(
            block
                .0
                .saturating_sub(2 + config.validation_delay + MAX_LAG),
        )
    }
}

impl DccEngine for Fabric {
    fn name(&self) -> &'static str {
        "Fabric"
    }

    fn commit_is_serial(&self) -> bool {
        true
    }

    fn execute_block(
        &self,
        block: &ExecBlock,
        _prev: Option<&BlockSummary>,
    ) -> Result<ProtocolBlockResult> {
        let n = block.txns.len();
        let latest = BlockId(block.id.0 - 1);
        let endorsements = endorse_block(&self.store, block, &self.config);

        // Serial validation in TID order against the replica's current
        // state (versions advance as in-block commits apply).
        let mut in_block_version: HashMap<Key, u64> = HashMap::new();
        let mut written_this_block: HashSet<Key> = HashSet::new();
        let mut outcomes = Vec::with_capacity(n);
        let mut commit_ns = vec![0u64; n];
        for (i, e) in endorsements.iter().enumerate() {
            let Some(rwset) = &e.rwset else {
                outcomes.push(TxnOutcome::Aborted(AbortReason::UserAbort));
                continue;
            };
            if e.mismatch {
                outcomes.push(TxnOutcome::Aborted(AbortReason::EndorsementMismatch));
                continue;
            }
            let tid = TxnId::new(block.id, i as u32).0;
            let (apply_res, ns) = vtime::scope(|| -> Result<TxnOutcome> {
                // MVCC check: every read version must still be current.
                let stale = rwset.reads.iter().any(|r| {
                    let current = in_block_version
                        .get(&r.key)
                        .copied()
                        .or_else(|| self.store.version_at(latest, &r.key));
                    current != r.version
                });
                if stale {
                    return Ok(TxnOutcome::Aborted(AbortReason::StaleRead));
                }
                let writes = eval_writes(&self.store, e.endorse_snapshot, rwset)?;
                install_writes(&self.store, block.id, tid, &writes, &mut written_this_block)?;
                for (key, _) in &writes {
                    in_block_version.insert(key.clone(), tid);
                }
                Ok(TxnOutcome::Committed)
            });
            let outcome = apply_res?;
            commit_ns[i] = ns;
            outcomes.push(outcome);
        }
        self.store.gc(Fabric::gc_horizon(&self.config, block.id));
        let (rwsets, sim_ns) = endorsements
            .into_iter()
            .map(|e| (e.rwset, e.sim_ns))
            .unzip();
        Ok(ProtocolBlockResult::new(
            block.id, outcomes, rwsets, sim_ns, commit_ns, 0,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::testutil::*;

    fn config_no_lag(workers: usize) -> FabricConfig {
        FabricConfig {
            workers,
            endorser_lag_prob: 0.0,
            validation_delay: 0,
        }
    }

    #[test]
    fn clean_block_commits_everything() {
        let (store, t) = setup(16);
        let fabric = Fabric::new(Arc::clone(&store), config_no_lag(2));
        let block = ExecBlock::new(
            BlockId(1),
            (0..4)
                .map(|i| read_add_txn(t, vec![i], vec![i + 8]))
                .collect(),
        );
        let res = fabric.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 4);
        assert_eq!(read_i64(&store, t, 9), Some(101));
    }

    #[test]
    fn single_stale_read_aborts_unlike_rbc() {
        // T0 writes x, T1 reads x: within one block T1's read version is
        // stale once T0 commits — Fabric aborts it (the over-conservative
        // rw dangerous structure of §2.2.2).
        let (store, t) = setup(4);
        let fabric = Fabric::new(Arc::clone(&store), config_no_lag(2));
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![], vec![0]),
                read_add_txn(t, vec![0], vec![1]),
            ],
        );
        let res = fabric.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 1);
        assert_eq!(res.stats.aborted_stale, 1);
        assert_eq!(res.outcomes[1], TxnOutcome::Aborted(AbortReason::StaleRead));
    }

    #[test]
    fn validation_delay_causes_interblock_staleness() {
        // With validation_delay = 1 the rwset is endorsed against block
        // b−2. If block b−1 wrote a read key, validation aborts.
        let (store, t) = setup(4);
        let config = FabricConfig {
            workers: 1,
            endorser_lag_prob: 0.0,
            validation_delay: 1,
        };
        let fabric = Fabric::new(Arc::clone(&store), config);
        // Block 1: write key 0 (endorsed at snapshot 0; no prior writes —
        // commits).
        let b1 = ExecBlock::new(BlockId(1), vec![read_add_txn(t, vec![], vec![0])]);
        assert_eq!(fabric.execute_block(&b1, None).unwrap().stats.committed, 1);
        // Block 2: reads key 0, endorsed against snapshot 0 (stale: block 1
        // updated it).
        let b2 = ExecBlock::new(BlockId(2), vec![read_add_txn(t, vec![0], vec![1])]);
        let res = fabric.execute_block(&b2, None).unwrap();
        assert_eq!(res.stats.aborted_stale, 1);
    }

    #[test]
    fn endorser_divergence_aborts_hot_readers() {
        // Force max lag probability: every secondary endorsement lags, so
        // reads of recently-written keys mismatch.
        let (store, t) = setup(4);
        let config = FabricConfig {
            workers: 1,
            endorser_lag_prob: 1.0,
            validation_delay: 0,
        };
        let fabric = Fabric::new(Arc::clone(&store), config);
        let b1 = ExecBlock::new(BlockId(1), vec![read_add_txn(t, vec![], vec![0])]);
        fabric.execute_block(&b1, None).unwrap();
        // Block 2 reads key 0: primary endorser sees block 1's write,
        // lagged secondary does not → divergent read-write sets.
        let b2 = ExecBlock::new(BlockId(2), vec![read_add_txn(t, vec![0], vec![1])]);
        let res = fabric.execute_block(&b2, None).unwrap();
        assert_eq!(res.stats.aborted_endorsement, 1);
        // A read of a never-written key cannot mismatch.
        let b3 = ExecBlock::new(BlockId(3), vec![read_add_txn(t, vec![3], vec![2])]);
        let res = fabric.execute_block(&b3, None).unwrap();
        assert_eq!(res.stats.committed, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (store, t) = setup(8);
            let config = FabricConfig {
                workers: 4,
                ..FabricConfig::default()
            };
            let fabric = Fabric::new(Arc::clone(&store), config);
            let mut committed = 0;
            for b in 1..=5u64 {
                let block = ExecBlock::new(
                    BlockId(b),
                    (0..10)
                        .map(|i| read_add_txn(t, vec![i % 8], vec![(i + 1) % 8]))
                        .collect(),
                );
                committed += fabric.execute_block(&block, None).unwrap().stats.committed;
            }
            (
                committed,
                (0..8).map(|i| read_i64(&store, t, i)).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }
}
