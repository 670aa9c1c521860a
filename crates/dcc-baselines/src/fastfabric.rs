//! FastFabric# — the strongest SOV baseline (Ruan et al., SIGMOD 2020):
//! Fabric plus *early validation* in the ordering service.
//!
//! The orderer receives endorsed read-write sets, builds the **full
//! dependency graph** over the block's transactions, and drops the minimal
//! transactions needed to break cycles — eliminating the false aborts of
//! dangerous-structure validation. The price (the paper's §5.1 profiling
//! shows ~75 % of runtime here) is an *unparallelizable* graph traversal:
//! every admitted transaction triggers a DFS over the accumulated graph,
//! and the cost is charged to the centralized `orderer_ns` budget. To
//! bound the graph, the orderer drops transactions once the edge count
//! reaches [`MAX_GRAPH_EDGES`] — the extra aborts FastFabric# shows at
//! zero skew (Figure 12).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use harmony_common::error::AbortReason;
use harmony_common::{vtime, BlockId, Result, TxnId};
use harmony_core::executor::{BlockSummary, ExecBlock, TxnOutcome};
use harmony_core::SnapshotStore;
use harmony_txn::Key;

use crate::fabric::{endorse_block, Fabric, FabricConfig};
use crate::protocol::{eval_writes, install_writes, DccEngine, ProtocolBlockResult};

/// Edge cap: once the graph holds this many edges the orderer drops
/// every further transaction outright.
pub const MAX_GRAPH_EDGES: usize = 4_096;

/// Virtual cost per node+edge visited during each cycle check.
const TRAVERSAL_NS_PER_EDGE: u64 = 120;

/// The FastFabric# engine. The dependency graph is per-block, so it keeps
/// no state across blocks.
pub struct FastFabric {
    store: Arc<SnapshotStore>,
    config: FabricConfig,
}

impl FastFabric {
    /// New engine over `store`, endorsing under the SOV parameters
    /// `config`.
    #[must_use]
    pub fn new(store: Arc<SnapshotStore>, config: FabricConfig) -> FastFabric {
        FastFabric { store, config }
    }
}

/// Dependency graph under construction in the orderer.
#[derive(Default)]
struct DepGraph {
    /// Adjacency: node → successors (edges follow must-precede order).
    succ: HashMap<u32, Vec<u32>>,
    edges: usize,
}

impl DepGraph {
    fn add_edge(&mut self, from: u32, to: u32) {
        self.succ.entry(from).or_default().push(to);
        self.edges += 1;
    }

    fn remove_edge(&mut self, from: u32, to: u32) {
        if let Some(next) = self.succ.get_mut(&from) {
            if let Some(pos) = next.iter().rposition(|&n| n == to) {
                next.swap_remove(pos);
                self.edges -= 1;
            }
        }
    }

    /// DFS from `start`'s successors looking for a path back to `start`.
    /// The graph was acyclic before `start`'s edges were added, so any new
    /// cycle must pass through `start`. Returns (cycle found, nodes
    /// visited) — the visit count feeds the traversal cost model.
    fn has_cycle_through(&self, start: u32) -> (bool, usize) {
        let mut visited = HashSet::new();
        let mut stack: Vec<u32> = self.succ.get(&start).cloned().unwrap_or_default();
        let mut steps = 0usize;
        while let Some(node) = stack.pop() {
            steps += 1;
            if node == start {
                return (true, steps);
            }
            if !visited.insert(node) {
                continue;
            }
            if let Some(next) = self.succ.get(&node) {
                stack.extend(next.iter().copied());
            }
        }
        (false, steps)
    }
}

impl DccEngine for FastFabric {
    fn name(&self) -> &'static str {
        "FastFabric#"
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

        // ── Orderer: early validation over the dependency graph ────────
        let mut orderer_ns = 0u64;
        let mut outcomes: Vec<TxnOutcome> = Vec::with_capacity(n);
        let mut graph = DepGraph::default();
        // Per key: readers/writers admitted so far.
        let mut readers: HashMap<&Key, Vec<u32>> = HashMap::new();
        let mut writers: HashMap<&Key, Vec<u32>> = HashMap::new();
        let mut admitted: Vec<u32> = Vec::new();
        for (i, e) in endorsements.iter().enumerate() {
            let Some(rwset) = &e.rwset else {
                outcomes.push(TxnOutcome::Aborted(AbortReason::UserAbort));
                continue;
            };
            if e.mismatch {
                outcomes.push(TxnOutcome::Aborted(AbortReason::EndorsementMismatch));
                continue;
            }
            // Inter-block staleness is unfixable by reordering within the
            // block: the endorsed write values were computed from state a
            // later block already overwrote.
            let stale = rwset
                .reads
                .iter()
                .any(|r| self.store.version_at(latest, &r.key) != r.version);
            if stale {
                outcomes.push(TxnOutcome::Aborted(AbortReason::StaleRead));
                continue;
            }
            if graph.edges >= MAX_GRAPH_EDGES {
                // Graph too large: drop to bound traversal cost.
                outcomes.push(TxnOutcome::Aborted(AbortReason::GraphCycle));
                continue;
            }
            let idx = i as u32;
            // Candidate edges against admitted transactions:
            //  * rw: admitted reader of k → this writer of k (reader first)
            //  * rw: this reader of k → admitted writer of k
            //  * ww: smaller TID → larger TID (block order).
            let mut new_edges: Vec<(u32, u32)> = Vec::new();
            for (key, _) in &rwset.updates {
                for &r in readers.get(key).into_iter().flatten() {
                    new_edges.push((r, idx));
                }
                for &w in writers.get(key).into_iter().flatten() {
                    new_edges.push((w.min(idx), w.max(idx)));
                }
            }
            for r in &rwset.reads {
                for &w in writers.get(&r.key).into_iter().flatten() {
                    new_edges.push((idx, w));
                }
            }
            // Tentatively add the candidate's edges, then DFS for a cycle
            // through it — the serial traversal cost the paper profiles.
            new_edges.retain(|(from, to)| from != to);
            new_edges.sort_unstable();
            new_edges.dedup();
            for &(from, to) in &new_edges {
                graph.add_edge(from, to);
            }
            let (cycle, steps) = graph.has_cycle_through(idx);
            orderer_ns += TRAVERSAL_NS_PER_EDGE * (steps as u64 + new_edges.len() as u64 + 1);
            if cycle {
                for &(from, to) in &new_edges {
                    graph.remove_edge(from, to);
                }
                outcomes.push(TxnOutcome::Aborted(AbortReason::GraphCycle));
                continue;
            }
            for (key, _) in &rwset.updates {
                writers.entry(key).or_default().push(idx);
            }
            for r in &rwset.reads {
                readers.entry(&r.key).or_default().push(idx);
            }
            admitted.push(idx);
            outcomes.push(TxnOutcome::Committed);
        }

        // ── Replica: apply admitted transactions serially ──────────────
        let mut written_this_block: HashSet<Key> = HashSet::new();
        let mut commit_ns = vec![0u64; n];
        for &idx in &admitted {
            let i = idx as usize;
            let e = &endorsements[i];
            let rwset = e.rwset.as_ref().expect("admitted implies rwset");
            let tid = TxnId::new(block.id, idx).0;
            let (res, ns) = vtime::scope(|| -> Result<()> {
                let writes = eval_writes(&self.store, e.endorse_snapshot, rwset)?;
                install_writes(&self.store, block.id, tid, &writes, &mut written_this_block)
            });
            res?;
            commit_ns[i] = ns;
        }

        self.store.gc(Fabric::gc_horizon(&self.config, block.id));
        let (rwsets, sim_ns) = endorsements
            .into_iter()
            .map(|e| (e.rwset, e.sim_ns))
            .unzip();
        Ok(ProtocolBlockResult::new(
            block.id, outcomes, rwsets, sim_ns, commit_ns, orderer_ns,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::testutil::*;

    fn config(workers: usize) -> FabricConfig {
        FabricConfig {
            workers,
            endorser_lag_prob: 0.0,
            validation_delay: 0,
        }
    }

    #[test]
    fn clean_block_commits() {
        let (store, t) = setup(16);
        let ff = FastFabric::new(Arc::clone(&store), config(2));
        let block = ExecBlock::new(
            BlockId(1),
            (0..4)
                .map(|i| read_add_txn(t, vec![i], vec![i + 8]))
                .collect(),
        );
        let res = ff.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 4);
    }

    #[test]
    fn single_rw_conflict_commits_unlike_fabric() {
        // T0 writes x, T1 reads x: a single rw edge is acyclic — the graph
        // admits both (Fabric would abort T1). Zero false aborts.
        let (store, t) = setup(4);
        let ff = FastFabric::new(Arc::clone(&store), config(1));
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![], vec![0]),
                read_add_txn(t, vec![0], vec![1]),
            ],
        );
        let res = ff.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 2);
        assert!(res.orderer_ns > 0, "graph traversal must be charged");
    }

    #[test]
    fn genuine_cycle_drops_one_txn() {
        // Write-skew cycle: T0 reads y writes x; T1 reads x writes y.
        let (store, t) = setup(4);
        let ff = FastFabric::new(Arc::clone(&store), config(1));
        let block = ExecBlock::new(
            BlockId(1),
            vec![
                read_add_txn(t, vec![1], vec![0]),
                read_add_txn(t, vec![0], vec![1]),
            ],
        );
        let res = ff.execute_block(&block, None).unwrap();
        assert_eq!(res.stats.committed, 1);
        assert_eq!(res.stats.aborted_graph, 1);
    }

    #[test]
    fn graph_cap_drops_excess_txns() {
        let (store, t) = setup(2);
        let ff = FastFabric::new(Arc::clone(&store), config(2));
        // Every txn writes the same key, so the k-th admitted txn adds k
        // ww edges: the first 92 admissions reach `MAX_GRAPH_EDGES`.
        let block = ExecBlock::new(
            BlockId(1),
            (0..120)
                .map(|_| read_add_txn(t, vec![0], vec![1]))
                .collect(),
        );
        let res = ff.execute_block(&block, None).unwrap();
        assert!(res.stats.aborted_graph > 0, "cap must drop transactions");
    }

    #[test]
    fn orderer_cost_grows_with_contention() {
        let cost_at = |contended: bool| {
            let (store, t) = setup(64);
            let ff = FastFabric::new(Arc::clone(&store), config(2));
            let txns: Vec<_> = (0..30u64)
                .map(|i| {
                    if contended {
                        read_add_txn(t, vec![0, 1], vec![2])
                    } else {
                        read_add_txn(t, vec![i], vec![i + 32])
                    }
                })
                .collect();
            let block = ExecBlock::new(BlockId(1), txns);
            ff.execute_block(&block, None).unwrap().orderer_ns
        };
        assert!(
            cost_at(true) > cost_at(false),
            "contention inflates the serial graph traversal"
        );
    }
}
