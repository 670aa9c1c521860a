//! The Harmony block executor: simulation step + commit step.
//!
//! `simulate` runs every transaction of a block in parallel against the
//! deterministic block snapshot, capturing read-write sets and firing the
//! rw-dependency events of Algorithm 1. `commit` folds in inter-block
//! dependencies (Rule 3), validates (Rule 1), and applies the surviving
//! update commands with Rule-2 reordering and coalescence.
//!
//! Determinism: validation depends only on `min_out`/`max_in` (commutative
//! accumulators), apply order is `(min_out, tid)`-sorted, and each key has
//! a deterministic owner — so the committed state is a pure function of
//! (snapshot, block contents, config), independent of thread count and
//! interleaving. The install is serial: the calling thread applies the
//! block's key plans one at a time, in key order, each inside its own
//! `vtime::scope` whose charge goes to the plan's owner. So the pages the
//! block leaves, and which transaction pays for a leaf split, a buffer
//! miss or an eviction, follow from the block too. Only the simulation
//! step runs on the worker team.
//!
//! # Inter-block parallelism (§3.4)
//!
//! Blocks run strictly one after another: [`BlockExecutor::execute`]
//! simulates a block, commits it and garbage-collects the undo entries no
//! later block can read, and only then is the next block handed over. The
//! commit steps therefore run in block order, which is what keeps Rule 3
//! deterministic.
//!
//! What inter-block parallelism changes is the snapshot. Block `i`
//! simulates against the state after block `i − 2`
//! ([`BlockExecutor::snapshot_for`]), which the snapshot store rebuilds
//! from the before-images block `i − 1` recorded, so its simulation could
//! have overlapped block `i − 1`'s commit. The virtual-time cost model in
//! `harmony-sim` charges exactly that overlap (`pipeline_total_ns` at
//! depth 2). Block `i`'s reads are then one block stale, and Rule 3
//! validates them against the [`BlockSummary`] of block `i − 1`.
//!
//! The executor keeps no summary between blocks. Its host hands each block
//! its predecessor's summary: `OeChain` holds the last one, records it in
//! the position of every checkpoint and sync manifest, and passes it to the next
//! block through `DccEngine::execute_block`.

use std::collections::HashMap;
use std::sync::Arc;

use harmony_common::error::AbortReason;
use harmony_common::{vtime, BlockId, Result, TxnId};
use harmony_txn::{simulate, Contract, Key, RangePredicate, RwSet};

use crate::config::HarmonyConfig;
use crate::meta::TxnMeta;
use crate::par::run_indexed_with;
use crate::reorder::{apply_key_plan, build_apply_plans};
use crate::reservation::{RegisterScratch, ReservationTable};
use crate::snapshot::SnapshotStore;
use crate::stats::BlockStats;

/// A block of transactions ready for execution.
pub struct ExecBlock {
    /// Block id (must be ≥ 1; `BlockId(0)` is the genesis state).
    pub id: BlockId,
    /// The transactions in consensus order.
    pub txns: Vec<Arc<dyn Contract>>,
}

impl ExecBlock {
    /// Build a block.
    ///
    /// # Panics
    /// Panics if `id` is the genesis block.
    #[must_use]
    pub fn new(id: BlockId, txns: Vec<Arc<dyn Contract>>) -> ExecBlock {
        assert!(id.0 >= 1, "block 0 is the genesis state");
        ExecBlock { id, txns }
    }
}

/// Outcome of one transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed; its effects are in the post-block state.
    Committed,
    /// Aborted for the given reason.
    Aborted(AbortReason),
}

impl TxnOutcome {
    /// Whether the transaction committed.
    #[must_use]
    pub fn is_committed(self) -> bool {
        self == TxnOutcome::Committed
    }
}

/// Per-transaction result.
#[derive(Clone, Debug)]
pub struct TxnResult {
    /// Global transaction id.
    pub tid: TxnId,
    /// Commit/abort outcome.
    pub outcome: TxnOutcome,
    /// Virtual nanoseconds of simulation work.
    pub sim_ns: u64,
    /// Virtual nanoseconds of commit work attributed to this transaction.
    pub commit_ns: u64,
}

/// Information the *next* block needs about a committed writer
/// (Rule 3 bookkeeping).
#[derive(Clone, Copy, Debug)]
pub struct WriterInfo {
    /// Smallest committed writer TID of the key in the block.
    pub min_tid: u64,
    /// Whether any committed writer of the key has an outgoing backward
    /// edge (`min_out < tid`) — arms Rule 3(ii) for later readers.
    pub backward_out: bool,
}

/// Digest of a committed block consumed by the next block's commit step.
#[derive(Clone, Debug, Default)]
pub struct BlockSummary {
    /// The committed block.
    pub block: BlockId,
    /// Keys written by committed transactions.
    pub committed_writes: HashMap<Key, WriterInfo>,
    /// Max committed reader TID per point-read key.
    pub committed_reads: HashMap<Key, u64>,
    /// Range predicates of committed transactions (reader TID, predicate).
    pub committed_read_preds: Vec<(u64, RangePredicate)>,
}

/// Result of executing one block.
#[derive(Debug)]
pub struct BlockResult {
    /// The block id.
    pub block: BlockId,
    /// Per-transaction results (block order).
    pub results: Vec<TxnResult>,
    /// Captured read-write sets (`None` for user-aborted transactions).
    pub rwsets: Vec<Option<RwSet>>,
    /// Counters.
    pub stats: BlockStats,
    /// Digest for the next block's inter-block validation.
    pub summary: BlockSummary,
}

/// Output of the simulation step, consumed by `commit`.
pub struct SimOutput {
    snapshot: BlockId,
    rwsets: Vec<Option<RwSet>>,
    metas: Vec<TxnMeta>,
    table: ReservationTable,
    sim_ns: Vec<u64>,
}

impl SimOutput {
    /// The snapshot the block simulated against.
    #[must_use]
    pub fn snapshot(&self) -> BlockId {
        self.snapshot
    }
}

/// Executes blocks with the Harmony DCC against a [`SnapshotStore`].
pub struct BlockExecutor {
    store: Arc<SnapshotStore>,
    config: HarmonyConfig,
}

impl BlockExecutor {
    /// Build an executor.
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, config: HarmonyConfig) -> BlockExecutor {
        BlockExecutor { store, config }
    }

    /// The snapshot store.
    #[must_use]
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> HarmonyConfig {
        self.config
    }

    /// Snapshot block a given block simulates against: `i − 1`, or `i − 2`
    /// under inter-block parallelism (§3.4).
    #[must_use]
    pub fn snapshot_for(&self, block: BlockId) -> BlockId {
        let depth = if self.config.inter_block_parallelism {
            2
        } else {
            1
        };
        BlockId(block.0.saturating_sub(depth))
    }

    /// Simulation step: execute every transaction against the block
    /// snapshot in parallel, capture read-write sets, and fire the
    /// rw-dependency events.
    pub fn simulate(&self, block: &ExecBlock) -> SimOutput {
        let snapshot = self.snapshot_for(block.id);
        let n = block.txns.len();
        let metas: Vec<TxnMeta> = (0..n)
            .map(|i| TxnMeta::new(TxnId::new(block.id, i as u32).0))
            .collect();
        let table = ReservationTable::new(n);

        // Each worker keeps one snapshot view and one reservation scratch
        // for its whole run — no per-transaction allocations for either.
        let sims = run_indexed_with(
            n,
            self.config.workers,
            || (self.store.view_at(snapshot), RegisterScratch::default()),
            |(view, scratch), i| {
                let sim = simulate(block.txns[i].as_ref(), &*view);
                if let Some(rwset) = &sim.0 {
                    table.register_with(i as u32, rwset, scratch);
                }
                sim
            },
        );
        let (rwsets, sim_ns) = sims.into_iter().unzip();
        table.fire_rw_events(&metas);
        SimOutput {
            snapshot,
            rwsets,
            metas,
            table,
            sim_ns,
        }
    }

    /// Commit step. `prev` is the summary of the immediately preceding
    /// block when it was *concurrent* with this block's simulation
    /// (inter-block parallelism); `None` otherwise.
    pub fn commit(
        &self,
        block: &ExecBlock,
        sim: SimOutput,
        prev: Option<&BlockSummary>,
    ) -> Result<BlockResult> {
        let n = block.txns.len();
        let SimOutput {
            rwsets,
            metas,
            table,
            sim_ns,
            ..
        } = sim;

        // ── Inter-block dependency events (Rule 3) ─────────────────────
        let mut inter_flag = vec![false; n];
        if let Some(prev) = prev {
            debug_assert_eq!(prev.block.next(), block.id, "pipeline order");
            for (i, rwset) in rwsets.iter().enumerate() {
                let Some(rwset) = rwset else { continue };
                // Outgoing inter edges: this txn read the before-image of a
                // committed writer in the previous block.
                for r in &rwset.reads {
                    if let Some(w) = prev.committed_writes.get(&r.key) {
                        metas[i].note_out_edge(w.min_tid);
                        if w.backward_out {
                            inter_flag[i] = true; // Rule 3(ii): abort T_k.
                        }
                    }
                }
                for pred in &rwset.scans {
                    for (key, w) in &prev.committed_writes {
                        if pred.covers(key) {
                            metas[i].note_out_edge(w.min_tid);
                            if w.backward_out {
                                inter_flag[i] = true;
                            }
                        }
                    }
                }
                // Incoming inter edges: a committed earlier-block reader
                // saw the before-image of this txn's write. Documented
                // deviation: such structures abort *this* (later) txn via
                // the ordinary Rule-1 condition, deterministically.
                for (key, _) in &rwset.updates {
                    if let Some(&reader) = prev.committed_reads.get(key) {
                        metas[i].note_in_edge(reader);
                    }
                    for (reader, pred) in &prev.committed_read_preds {
                        if pred.covers(key) {
                            metas[i].note_in_edge(*reader);
                        }
                    }
                }
            }
        }

        // ── Validation (Rule 1 / Rule 3, plus ww-aborts in raw mode) ───
        let min_writers = if self.config.update_reordering {
            HashMap::new()
        } else {
            table.min_writer_tids(&metas)
        };
        let mut outcomes: Vec<TxnOutcome> = Vec::with_capacity(n);
        for i in 0..n {
            let outcome = if rwsets[i].is_none() {
                TxnOutcome::Aborted(AbortReason::UserAbort)
            } else if metas[i].in_backward_dangerous_structure() {
                TxnOutcome::Aborted(AbortReason::BackwardDangerousStructure)
            } else if inter_flag[i] {
                TxnOutcome::Aborted(AbortReason::InterBlockDangerousStructure)
            } else if !self.config.update_reordering
                && rwsets[i].as_ref().is_some_and(|rw| {
                    rw.write_keys()
                        .any(|k| min_writers.get(k).copied().unwrap_or(u64::MAX) < metas[i].tid)
                })
            {
                TxnOutcome::Aborted(AbortReason::WwConflict)
            } else {
                TxnOutcome::Committed
            };
            outcomes.push(outcome);
        }
        let committed: Vec<bool> = outcomes.iter().map(|o| o.is_committed()).collect();

        // ── Apply (Rule 2 reordering + coalescence) ────────────────────
        let plans = build_apply_plans(
            &table,
            &metas,
            &rwsets,
            &committed,
            self.config.update_reordering,
        );
        // One plan at a time, in key order, on this thread: which
        // transaction pays for a split, a miss or an eviction, and the
        // pages the block leaves, follow from the block alone.
        let mut commit_ns = vec![0u64; n];
        let mut noop_total = 0u64;
        for plan in &plans {
            let (noops, ns) = vtime::scope(|| {
                apply_key_plan(&self.store, block.id, plan, self.config.update_coalescence)
            });
            noop_total += noops?;
            commit_ns[plan.owner as usize] += ns;
        }

        // ── Summary for the next block (Rule 3 bookkeeping) ────────────
        let mut summary = BlockSummary {
            block: block.id,
            ..BlockSummary::default()
        };
        for plan in &plans {
            let min_tid = plan
                .cmds
                .iter()
                .map(|(tid, _, _)| *tid)
                .min()
                .expect("plan non-empty");
            let backward_out = plan
                .cmds
                .iter()
                .any(|(_, idx, _)| metas[*idx as usize].has_backward_out());
            summary.committed_writes.insert(
                plan.key.clone(),
                WriterInfo {
                    min_tid,
                    backward_out,
                },
            );
        }
        for (i, rwset) in rwsets.iter().enumerate() {
            if !committed[i] {
                continue;
            }
            let Some(rwset) = rwset else { continue };
            let tid = metas[i].tid;
            for r in &rwset.reads {
                summary
                    .committed_reads
                    .entry(r.key.clone())
                    .and_modify(|t| *t = (*t).max(tid))
                    .or_insert(tid);
            }
            for pred in &rwset.scans {
                summary.committed_read_preds.push((tid, pred.clone()));
            }
        }

        // ── Stats & results ────────────────────────────────────────────
        let stats = BlockStats {
            apply_noop_commands: noop_total,
            ..BlockStats::tally(&outcomes, &sim_ns, &commit_ns)
        };
        let results = outcomes
            .iter()
            .enumerate()
            .map(|(i, outcome)| TxnResult {
                tid: TxnId::new(block.id, i as u32),
                outcome: *outcome,
                sim_ns: sim_ns[i],
                commit_ns: commit_ns[i],
            })
            .collect();
        Ok(BlockResult {
            block: block.id,
            results,
            rwsets,
            stats,
            summary,
        })
    }

    /// Execute `block`: simulate, commit, then drop the undo entries no
    /// later block can read. `prev` is the summary of the block before it
    /// (`None` before the first block). It is consulted only under
    /// inter-block parallelism: otherwise block `i` simulates against
    /// block `i − 1`'s state, so none of its reads is stale.
    pub fn execute(&self, block: &ExecBlock, prev: Option<&BlockSummary>) -> Result<BlockResult> {
        let prev = prev.filter(|_| self.config.inter_block_parallelism);
        let sim = self.simulate(block);
        let result = self.commit(block, sim, prev)?;
        // After committing block i, the oldest snapshot a later block can
        // still request is i − 1 (block i + 1 simulates against it under
        // inter-block parallelism), so undo entries for writers ≤ i − 1
        // are dead.
        self.store.gc(BlockId(block.id.0.saturating_sub(1)));
        Ok(result)
    }
}
