//! Adapter exposing Harmony through the uniform [`DccEngine`] interface,
//! so the benchmark harness can drive all five systems identically.
//!
//! The adapter is a [`BlockExecutor`] plus the conversion of its result.
//! It keeps nothing between blocks: the chain hands each block the Rule-3
//! summary of its predecessor, and the executor garbage-collects the
//! snapshot store after each commit.

use std::sync::Arc;

use harmony_common::Result;
use harmony_core::executor::{BlockSummary, ExecBlock};
use harmony_core::{BlockExecutor, HarmonyConfig, SnapshotStore};

use crate::protocol::{DccEngine, ProtocolBlockResult};

/// Harmony as a [`DccEngine`].
pub struct HarmonyEngine {
    executor: BlockExecutor,
}

impl HarmonyEngine {
    /// New engine over `store`.
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, config: HarmonyConfig) -> HarmonyEngine {
        HarmonyEngine {
            executor: BlockExecutor::new(store, config),
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
        if self.executor.config().inter_block_parallelism {
            2
        } else {
            1
        }
    }

    fn execute_block(
        &self,
        block: &ExecBlock,
        prev: Option<&BlockSummary>,
    ) -> Result<ProtocolBlockResult> {
        let result = self.executor.execute(block, prev)?;
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
        let mut prev = None;
        for b in 1..=3u64 {
            // Blind contended adds: no rw edges, so reordering must commit
            // every transaction across all three pipelined blocks.
            let block = ExecBlock::new(
                BlockId(b),
                (0..6)
                    .map(|i| read_add_txn(t, vec![], vec![i % 3]))
                    .collect(),
            );
            let res = engine.execute_block(&block, prev.as_ref()).unwrap();
            assert_eq!(res.stats.txns, 6);
            assert_eq!(res.stats.committed, 6);
            prev = res.summary;
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
