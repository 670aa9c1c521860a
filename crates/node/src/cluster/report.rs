//! What a cluster tells the outside: the end-of-run [`ClusterReport`] of
//! the simulator harness, and the point-in-time [`NodeStatus`] /
//! [`BlockSummary`] a real-transport control plane serves.

use harmony_common::BlockId;
use harmony_crypto::Digest;
use harmony_sim::RunMetrics;

use crate::mempool::MempoolStats;

/// Summary of one replica at the end of a run.
#[derive(Clone, Debug)]
pub struct ReplicaSummary {
    /// Replica index (0-based).
    pub replica: usize,
    /// Final chain height.
    pub height: BlockId,
    /// Final root: full-state on flat replicas, the sharded Merkle fold
    /// (`sharded_state_root`) on sharded ones.
    pub root: Digest,
    /// Shard-count-invariant logical database digest (equals `root` on
    /// flat replicas) — what cross-topology equivalence tests compare.
    pub logical_root: Digest,
    /// Full-scan audit recomputation of `root` (oracle path). Always equal
    /// to `root` — gossiping a cached root never drifts from the state.
    pub oracle_root: Digest,
    /// Blocks in its verified delivery log.
    pub delivered: usize,
    /// Divergence alarms it raised.
    pub alarms: u64,
    /// Crash recoveries it performed.
    pub recoveries: u64,
    /// Times it self-quarantined after a quorum of peers disputed its
    /// root, wiping and re-syncing from scratch.
    pub quarantines: u64,
    /// Sync attempts it retried after a timeout or serve refusal.
    pub sync_retries: u64,
    /// Blocks it obtained via state-sync.
    pub sync_blocks: u64,
    /// Hosted chains it re-bootstrapped via checkpoint-manifest install
    /// during state-sync (a flat replica hosts one chain, a sharded one a
    /// chain per shard).
    pub sync_manifest_shards: u64,
    /// Hosted chains it caught up via block-range replay during
    /// state-sync.
    pub sync_range_shards: u64,
    /// State-sync bytes received via the checkpoint-manifest path.
    pub sync_manifest_bytes: u64,
    /// State-sync bytes received via the block-range-replay path.
    /// `sync_manifest_bytes + sync_range_bytes` is the exact total
    /// transfer — the two paths partition it.
    pub sync_range_bytes: u64,
    /// Per-table digests of the logical database — the table-granular
    /// decomposition of `logical_root`. Shard-count-invariant, so
    /// resharding equivalence tests compare these lists and a divergence
    /// names the table that drifted.
    pub table_heads: Vec<(String, Digest)>,
    /// Topology-change (reshard) markers this replica applied.
    pub reshards: u64,
    /// Shard chains the replica hosts at the end of the run (1 on flat
    /// replicas; the last reshard marker's count on elastic runs).
    pub hosted_shards: usize,
}

/// End-of-run report.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Node-runtime metrics measured at a never-crashed observer replica.
    pub metrics: RunMetrics,
    /// Mean ordering+execution latency (seal → apply), ms.
    pub order_latency_ms: f64,
    /// Per-replica summaries.
    pub replicas: Vec<ReplicaSummary>,
    /// All replicas ended at the same height with identical roots and
    /// pairwise-consistent delivery logs.
    pub consistent: bool,
    /// Total divergence alarms across replicas (0 on honest runs).
    pub divergence_alarms: u64,
    /// Mempool admission counters.
    pub mempool: MempoolStats,
    /// Transactions sealed per tenant (one slot per configured tenant;
    /// a single slot when tenancy is off).
    pub tenant_sealed: Vec<u64>,
    /// Blocks the orderer sealed.
    pub sealed_blocks: u64,
    /// Transactions the client bank submitted (first attempts only).
    pub submitted_txns: u64,
    /// Client-side resubmissions after retryable rejects.
    pub client_retries: u64,
    /// Transactions abandoned after exhausting their retry budget.
    pub client_retry_drops: u64,
    /// Total self-quarantines across replicas.
    pub quarantines: u64,
    /// Prometheus text exposition of the final registry state.
    pub exposition: String,
    /// Per-run JSON metrics timeline (`harmonybc-timeline/v1`), snapshots
    /// taken in virtual time — byte-identical across same-seed runs.
    pub timeline: String,
}

/// A point-in-time health/progress snapshot of one node, served over the
/// real-transport control plane (`harmonyctl status`). Counters that a
/// role doesn't have are zero (e.g. `mempool_len` on a replica).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStatus {
    /// Role name: `client` / `orderer` / `follower` / `replica`.
    pub role: String,
    /// Replica availability: `up` / `down` / `syncing` (non-replica
    /// roles are always `up`).
    pub state: String,
    /// Chain height: highest sealed block on the orderer, highest
    /// applied block on a replica.
    pub height: u64,
    /// Replica report root (hex; sharded fold on sharded replicas).
    /// Empty on non-replica roles and on crashed replicas.
    pub root: String,
    /// Shard-count-invariant logical database digest (hex; empty where
    /// `root` is).
    pub logical_root: String,
    /// Transactions committed by this replica.
    pub committed_txns: u64,
    /// Blocks in the replica's verified delivery log.
    pub delivered: u64,
    /// Transactions queued in the orderer's mempool.
    pub mempool_len: u64,
    /// Blocks the orderer sealed.
    pub sealed_blocks: u64,
    /// Transactions the client bank submitted.
    pub submitted: u64,
    /// Crash recoveries this replica performed.
    pub recoveries: u64,
    /// Blocks this replica obtained via state-sync.
    pub sync_blocks: u64,
}

/// A sealed block described for the operator (`harmonyctl block`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSummary {
    /// Block id (height).
    pub id: u64,
    /// Transactions in the block.
    pub txns: u64,
    /// Header hash (hex).
    pub hash: String,
    /// Previous block's header hash (hex).
    pub prev_hash: String,
}
