//! The replica node behind the wrapper, flat or sharded.

use std::sync::Arc;

use harmony_chain::{ChainBlock, OeChain};
use harmony_common::{BlockId, Error, Result};
use harmony_crypto::Digest;
use harmony_metrics::Registry;
use harmony_storage::IoSnapshot;

use crate::cluster::config::ClusterConfig;
use crate::metrics::ReplicaMetrics;
use crate::replica::{Applied, DeliveryFront, ReplicaNode};
use crate::sharded::{ShardedReplicaConfig, ShardedReplicaNode};
use crate::statesync::{
    self, apply_sharded_sync, apply_sync, ShardedSyncApplied, ShardedSyncResponse,
};

/// A replica is either flat (one chain, Harmony's inter-block pipeline)
/// or sharded (M per-shard chains behind a cross-shard planner). The
/// first block of methods is where the two really differ — how a block is
/// applied, what root is reported, what a crash loses — and each is a
/// two-arm dispatch. Everything else is written once, over the shared
/// [`DeliveryFront`] or over "the chains this replica hosts".
pub(super) enum NodeKind {
    Flat(Box<ReplicaNode>),
    Sharded(Box<ShardedReplicaNode>),
}

impl NodeKind {
    /// Replica `r` of `cfg`: flat, or sharded when a topology is
    /// configured. Its metric handles go in `registry`.
    pub(super) fn new(cfg: &ClusterConfig, registry: &Arc<Registry>, r: usize) -> Result<NodeKind> {
        let Some(topology) = cfg.topology else {
            let mut n = ReplicaNode::new(&cfg.replica, |engine| cfg.workload.setup_node(engine))?;
            n.set_metrics(ReplicaMetrics::register(registry, r));
            return Ok(NodeKind::Flat(Box::new(n)));
        };
        let sharded_cfg = ShardedReplicaConfig {
            chain: cfg.replica.chain.clone(),
            engine: cfg.replica.engine,
            workers: cfg.replica.workers,
            shards: topology.shards,
            partitions: topology.partitions,
            partitioning: topology
                .partitioning
                .unwrap_or_else(|| cfg.workload.recommended_partitioning()),
            replicated_tables: cfg.workload.replicated_tables(),
            checkpoint_stagger: topology.checkpoint_stagger,
            latency: cfg.latency.clone(),
            gossip_every: cfg.replica.gossip_every,
        };
        let mut n =
            ShardedReplicaNode::new(&sharded_cfg, |engine| cfg.workload.setup_node(engine))?;
        n.set_metrics(registry, r);
        Ok(NodeKind::Sharded(Box::new(n)))
    }

    pub(super) fn deliver(&mut self, block: Arc<ChainBlock>) -> Result<Vec<Applied>> {
        match self {
            NodeKind::Flat(n) => n.deliver(block),
            NodeKind::Sharded(n) => n.deliver(block),
        }
    }

    pub(super) fn height(&self) -> BlockId {
        match self {
            NodeKind::Flat(n) => n.height(),
            NodeKind::Sharded(n) => n.height(),
        }
    }

    /// The root this replica's summary reports (and that consistency
    /// checks compare): the full-state root on flat replicas, the sharded
    /// Merkle fold on sharded ones.
    pub(super) fn report_root(&self) -> Result<Digest> {
        match self {
            NodeKind::Flat(n) => n.state_root(),
            NodeKind::Sharded(n) => n.sharded_root(),
        }
    }

    /// Full-scan audit recomputation of [`NodeKind::report_root`]: builds
    /// the commitment from the engines rather than reading the cached
    /// fold. Must always equal `report_root` — the e2e suites assert it.
    pub(super) fn oracle_root(&self) -> Result<Digest> {
        match self {
            NodeKind::Flat(n) => harmony_chain::state_root(n.chain().engine()),
            NodeKind::Sharded(n) => n.sharded_root_oracle(),
        }
    }

    /// Where this replica stands for a syncing peer: the hash of its
    /// latest global block (`None` while a sharded replica is unanchored
    /// after a crash — a flat chain keeps its own) and its topology
    /// epoch, the reshard markers applied so far (always 0 on a flat
    /// replica, which cannot apply one).
    pub(super) fn anchor(&self) -> (Option<Digest>, u64) {
        match self {
            NodeKind::Flat(n) => (Some(n.chain().last_hash()), 0),
            NodeKind::Sharded(n) => (n.global_hash(), n.epoch()),
        }
    }

    pub(super) fn crash(&mut self) {
        match self {
            NodeKind::Flat(n) => n.crash(),
            NodeKind::Sharded(n) => n.crash(),
        }
    }

    pub(super) fn recover_local(&mut self) -> Result<()> {
        match self {
            NodeKind::Flat(n) => n.recover_local(),
            NodeKind::Sharded(n) => n.recover_local(),
        }
    }

    /// Drop all local state back to genesis (pending deliveries kept)
    /// so the next state-sync re-bootstraps from a peer's manifest.
    pub(super) fn wipe_for_resync(&mut self) -> Result<()> {
        match self {
            NodeKind::Flat(n) => n.wipe_for_resync(),
            NodeKind::Sharded(n) => n.wipe_for_resync(),
        }
    }

    pub(super) fn apply_sync(
        &mut self,
        response: &ShardedSyncResponse,
    ) -> Result<ShardedSyncApplied> {
        match self {
            NodeKind::Flat(n) => apply_sync(n, response),
            NodeKind::Sharded(n) => apply_sharded_sync(n, response),
        }
    }

    pub(super) fn front(&self) -> &DeliveryFront {
        match self {
            NodeKind::Flat(n) => n.front(),
            NodeKind::Sharded(n) => n.front(),
        }
    }

    pub(super) fn front_mut(&mut self) -> &mut DeliveryFront {
        match self {
            NodeKind::Flat(n) => n.front_mut(),
            NodeKind::Sharded(n) => n.front_mut(),
        }
    }

    /// The chains this replica hosts, in shard order (one on a flat
    /// replica).
    pub(super) fn chains(&self) -> &[OeChain] {
        match self {
            NodeKind::Flat(n) => std::slice::from_ref(n.chain()),
            NodeKind::Sharded(n) => n.chains(),
        }
    }

    /// Shard-count-invariant digest of the logical database. A single
    /// hosted chain holds all of it, so its own (cached, incremental)
    /// root is already the answer; several shards' tables are merged.
    pub(super) fn logical_root(&self) -> Result<Digest> {
        match self.chains() {
            [only] => only.state_root(),
            chains => harmony_shard::logical_state_root(chains.iter().map(OeChain::engine)),
        }
    }

    /// Per-table digests of the logical database — the table-granular
    /// decomposition of [`NodeKind::logical_root`].
    pub(super) fn logical_table_heads(&self) -> Result<Vec<(String, Digest)>> {
        harmony_shard::logical_table_heads(self.chains().iter().map(OeChain::engine))
    }

    pub(super) fn io_snapshot(&self) -> IoSnapshot {
        let mut io = IoSnapshot::default();
        for chain in self.chains() {
            io.absorb(&chain.engine().io_snapshot());
        }
        io
    }

    /// Answer a peer's sync request from the hosted chains.
    pub(super) fn serve_sync(&self, from: &[BlockId]) -> Result<ShardedSyncResponse> {
        let (anchor, epoch) = self.anchor();
        let global_hash = anchor.ok_or_else(|| {
            Error::InvalidArgument("sync peer has no global anchor (still recovering?)".into())
        })?;
        statesync::serve(self.height(), global_hash, epoch, self.chains(), from)
    }
}
