//! The inter-block pipeline (§3.4).
//!
//! Without inter-block parallelism, blocks run strictly one after another.
//! With it, block `i`'s *simulation* overlaps block `i−1`'s *commit* (the
//! commit steps still run in block order, which is what keeps Rule 3
//! deterministic). The overlap here is real — two thread teams — while the
//! virtual-time scheduler in `harmony-sim` models the same overlap for the
//! throughput figures.
//!
//! The pipeline does not number blocks: it executes the block it is
//! handed. Which block is next is the host's decision — `OeChain` refuses
//! one that does not follow its height — and
//! [`ChainPipeline::run_blocks`] only checks that its own slice is
//! consecutive.

use std::sync::Arc;

use harmony_common::{BlockId, Result};

use crate::config::HarmonyConfig;
use crate::executor::{BlockExecutor, BlockResult, BlockSummary, ExecBlock};
use crate::snapshot::SnapshotStore;
use crate::stats::BlockStats;

/// Aggregate report over a run of blocks.
#[derive(Debug, Default)]
pub struct PipelineReport {
    /// Per-block results in block order.
    pub blocks: Vec<BlockResult>,
    /// Aggregated counters.
    pub totals: BlockStats,
}

/// Drives consecutive blocks through a [`BlockExecutor`].
pub struct ChainPipeline {
    executor: BlockExecutor,
    prev_summary: Option<BlockSummary>,
}

impl ChainPipeline {
    /// New pipeline over the given store, before its first block.
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, config: HarmonyConfig) -> ChainPipeline {
        ChainPipeline::starting_at(store, config, None)
    }

    /// Resume a pipeline after a block (recovery). `prev_summary` must be
    /// the summary that block produced in the original execution, so
    /// Rule 3 replays identically.
    #[must_use]
    pub fn starting_at(
        store: Arc<SnapshotStore>,
        config: HarmonyConfig,
        prev_summary: Option<BlockSummary>,
    ) -> ChainPipeline {
        ChainPipeline {
            executor: BlockExecutor::new(store, config),
            prev_summary,
        }
    }

    /// Execute one block (no overlap with a previous call).
    pub fn execute_one(&mut self, block: &ExecBlock) -> Result<BlockResult> {
        let ibp = self.executor.config().inter_block_parallelism;
        let prev = if ibp {
            self.prev_summary.as_ref()
        } else {
            None
        };
        let result = self.executor.execute(block, prev)?;
        self.after_commit(&result);
        Ok(result)
    }

    fn after_commit(&mut self, result: &BlockResult) {
        // After committing block i, the oldest snapshot any in-flight block
        // can still request is i−1 (block i+1 simulates against i−1 under
        // IBP), so undo entries for writers ≤ i−1 are dead.
        self.executor
            .store()
            .gc(BlockId(result.block.0.saturating_sub(1)));
        self.prev_summary = Some(result.summary.clone());
    }

    /// Execute a batch of consecutive blocks. Under inter-block
    /// parallelism, block `i+1`'s simulation genuinely overlaps block
    /// `i`'s commit on separate threads.
    pub fn run_blocks(&mut self, blocks: &[ExecBlock]) -> Result<PipelineReport> {
        let mut report = PipelineReport::default();
        if blocks.is_empty() {
            return Ok(report);
        }
        let ibp = self.executor.config().inter_block_parallelism;
        if !ibp {
            for block in blocks {
                let result = self.execute_one(block)?;
                report.totals.absorb(&result.stats);
                report.blocks.push(result);
            }
            return Ok(report);
        }

        // Pipelined: sim(i+1) ∥ commit(i).
        for w in blocks.windows(2) {
            assert_eq!(w[0].id.next(), w[1].id, "blocks must be consecutive");
        }
        let mut sim = self.executor.simulate(&blocks[0]);
        for i in 0..blocks.len() {
            let commit_block = &blocks[i];
            let next = blocks.get(i + 1);
            let (commit_res, next_sim) = std::thread::scope(|scope| {
                let committer = scope.spawn(|| {
                    self.executor
                        .commit(commit_block, sim, self.prev_summary.as_ref())
                });
                let next_sim = next.map(|b| self.executor.simulate(b));
                (committer.join().expect("commit thread"), next_sim)
            });
            let result = commit_res?;
            self.after_commit(&result);
            report.totals.absorb(&result.stats);
            report.blocks.push(result);
            match next_sim {
                Some(s) => sim = s,
                None => break,
            }
        }
        Ok(report)
    }
}
