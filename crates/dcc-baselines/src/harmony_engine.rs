//! Adapter exposing Harmony through the uniform [`DccEngine`] interface,
//! so the benchmark harness can drive all five systems identically.

use std::sync::Arc;

use harmony_common::Result;
use harmony_core::executor::{BlockSummary, ExecBlock};
use harmony_core::{ChainPipeline, HarmonyConfig, SnapshotStore};
use parking_lot::Mutex;

use crate::protocol::{DccEngine, ProtocolBlockResult};

/// Harmony as a [`DccEngine`].
pub struct HarmonyEngine {
    pipeline: Mutex<ChainPipeline>,
    config: HarmonyConfig,
}

impl HarmonyEngine {
    /// New engine over `store`, before its first block.
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, config: HarmonyConfig) -> HarmonyEngine {
        HarmonyEngine::starting_at(store, config, None)
    }

    /// Resume after a block (recovery), seeding that block's summary for
    /// Rule 3 continuity.
    #[must_use]
    pub fn starting_at(
        store: Arc<SnapshotStore>,
        config: HarmonyConfig,
        prev_summary: Option<BlockSummary>,
    ) -> HarmonyEngine {
        HarmonyEngine {
            pipeline: Mutex::new(ChainPipeline::starting_at(store, config, prev_summary)),
            config,
        }
    }
}

impl DccEngine for HarmonyEngine {
    fn name(&self) -> &'static str {
        "HarmonyBC"
    }

    fn commit_is_serial(&self) -> bool {
        false
    }

    fn pipeline_depth(&self) -> usize {
        if self.config.inter_block_parallelism {
            2
        } else {
            1
        }
    }

    fn execute_block(&self, block: &ExecBlock) -> Result<ProtocolBlockResult> {
        let result = self.pipeline.lock().execute_one(block)?;
        let (outcomes, costs): (Vec<_>, Vec<(u64, u64)>) = result
            .results
            .iter()
            .map(|r| (r.outcome, (r.sim_ns, r.commit_ns)))
            .unzip();
        let (sim_ns, commit_ns) = costs.into_iter().unzip();
        Ok(ProtocolBlockResult {
            block: result.block,
            outcomes,
            rwsets: result.rwsets,
            stats: result.stats,
            sim_ns,
            commit_ns,
            orderer_ns: 0,
            summary: Some(result.summary),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::testutil::*;
    use harmony_common::BlockId;

    #[test]
    fn adapter_executes_blocks() {
        let (store, t) = setup(8);
        let engine = HarmonyEngine::new(Arc::clone(&store), HarmonyConfig::default());
        assert_eq!(engine.name(), "HarmonyBC");
        assert_eq!(engine.pipeline_depth(), 2);
        assert!(!engine.commit_is_serial());
        for b in 1..=3u64 {
            // Blind contended adds: no rw edges, so reordering must commit
            // every transaction across all three pipelined blocks.
            let block = ExecBlock::new(
                BlockId(b),
                (0..6)
                    .map(|i| read_add_txn(t, vec![], vec![i % 3]))
                    .collect(),
            );
            let res = engine.execute_block(&block).unwrap();
            assert_eq!(res.stats.txns, 6);
            assert_eq!(res.stats.committed, 6);
        }
        let total: i64 = (0..8).map(|i| read_i64(&store, t, i).unwrap() - 100).sum();
        assert_eq!(total, 18, "every add must be applied exactly once");
    }

    #[test]
    fn non_ibp_depth_is_one() {
        let (store, _) = setup(1);
        let engine = HarmonyEngine::new(store, HarmonyConfig::with_coalescence());
        assert_eq!(engine.pipeline_depth(), 1);
    }
}
