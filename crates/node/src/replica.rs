//! A replica: the execution half of the Order-Execute loop.
//!
//! A [`ReplicaNode`] owns an [`OeChain`] (storage engine, snapshot store,
//! and any [`EngineKind`] DCC engine) and consumes **sealed
//! blocks** from an ordering service. Delivery is *ordered*, and the part
//! of it that does not care how a block executes lives in one type,
//! [`DeliveryFront`], shared with the sharded replica: blocks arriving
//! ahead of the next height are buffered and applied once the gap closes,
//! every applied block is appended to a verified [`DeliveryLog`]
//! (sequence + header hash), and the replica records its state root every
//! `gossip_every` blocks for divergence detection against peers' gossiped
//! roots.
//!
//! Execution cost is charged in virtual time by the one price of a block,
//! [`BlockCharge::chain_block`], which the experiment driver charges its
//! own chain's blocks with too: each block extends the chain's
//! pipeline-aware makespan, so a saturated replica's throughput matches
//! the analytic DB-layer model it replaces.
//!
//! A sync reply reaches the chain through [`OeChain::catch_up`], the
//! method every shard of a sharded replica uses too; the replica only
//! books the result — the delivery log, and a fresh pipeline after a
//! manifest ([`crate::statesync::apply_sync`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_chain::sync::StateSnapshot;
use harmony_chain::{ChainBlock, ChainConfig, OeChain};
use harmony_common::{BlockId, Result};
use harmony_consensus::net::DeliveryLog;
use harmony_core::BlockStats;
use harmony_crypto::Digest;
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_metrics::{Gauge, Registry};
use harmony_sim::BlockCharge;
use harmony_storage::StorageEngine;
use harmony_txn::ContractCodec;

use crate::metrics::ReplicaMetrics;

/// Replica configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Chain parameters (storage profile, checkpoint period, crypto).
    pub chain: ChainConfig,
    /// Which DCC engine executes blocks.
    pub engine: EngineKind,
    /// Worker cores for block execution.
    pub workers: usize,
    /// Compute + gossip the state root every this many blocks.
    pub gossip_every: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            chain: ChainConfig::in_memory(),
            engine: EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
            workers: 4,
            gossip_every: 5,
        }
    }
}

/// One block applied by [`ReplicaNode::deliver`].
#[derive(Clone, Debug)]
pub struct Applied {
    /// The applied block.
    pub block: BlockId,
    /// Transactions committed in it.
    pub committed: usize,
    /// Virtual nanoseconds of execution this block added to the replica's
    /// pipeline (what the event loop charges as CPU time).
    pub cost_ns: u64,
    /// State root computed at this height (gossip heights only).
    pub gossip_root: Option<Digest>,
}

/// Gossiped-root bookkeeping (the [`DeliveryFront`]'s, so shared by the
/// flat and sharded replicas): remembers this node's own roots per gossip
/// height, holds peer roots that arrive early, and counts disagreements.
///
/// Memory is bounded: advancing past a gossip height drops every peer
/// root buffered at or below it, the ahead-buffer holds at most
/// [`RootTracker::AHEAD_CAP`] future heights (farthest dropped first),
/// and own roots are kept for the trailing [`RootTracker::OWN_KEEP`]
/// gossip heights only. A long-running replica therefore holds O(1)
/// tracker state regardless of chain length or how far ahead peers rush.
#[derive(Default)]
pub struct RootTracker {
    own: BTreeMap<u64, Digest>,
    peers: BTreeMap<u64, Vec<Digest>>,
    /// Disagreeing comparisons per gossip height (pruned with `own`) —
    /// the evidence base for the self-quarantine quorum check.
    mismatched: BTreeMap<u64, u32>,
    /// Highest gossip height seen from any peer — evidence that the
    /// cluster is ahead of this node (drives the liveness watchdog).
    peer_frontier: u64,
    /// Highest height this node has gossiped at — anything at or below it
    /// has been compared (or missed for good) and is stale.
    passed: u64,
    alarms: u64,
    /// High-water mark of the own-root window (gauge, detached unless
    /// wired to a registry).
    own_hwm: Gauge,
    /// High-water mark of the buffered ahead-of-us peer heights.
    peer_hwm: Gauge,
}

impl RootTracker {
    /// Own roots retained, in trailing gossip heights.
    pub const OWN_KEEP: usize = 32;
    /// Future gossip heights buffered from peers.
    pub const AHEAD_CAP: usize = 64;

    /// Record this node's root at `height`, comparing against any peer
    /// roots that arrived before the node got there. Prunes everything
    /// the comparison point leaves behind.
    pub(crate) fn note_own(&mut self, height: u64, root: Digest) {
        if let Some(peers) = self.peers.remove(&height) {
            let disagreed = peers.iter().filter(|p| **p != root).count() as u64;
            if disagreed > 0 {
                self.alarms += disagreed;
                *self.mismatched.entry(height).or_insert(0) += disagreed as u32;
            }
        }
        // Buffered peer roots below the compared height can never be
        // compared anymore — drop them.
        self.peers = self.peers.split_off(&(height + 1));
        self.passed = self.passed.max(height);
        self.own.insert(height, root);
        while self.own.len() > Self::OWN_KEEP {
            let (h, _) = self.own.pop_first().expect("len checked");
            self.mismatched.remove(&h);
        }
        self.own_hwm.set_max(self.own.len() as i64);
    }

    /// Report buffer high-water marks through the given gauges.
    pub(crate) fn set_metrics(&mut self, own_hwm: Gauge, peer_hwm: Gauge) {
        self.own_hwm = own_hwm;
        self.peer_hwm = peer_hwm;
    }

    /// Record a peer's gossiped root at `height` — compared now if this
    /// node already has its own root there, parked until it does if it is
    /// ahead, dropped if the node has already gossiped past it.
    pub fn note_peer(&mut self, height: u64, root: Digest) {
        self.peer_frontier = self.peer_frontier.max(height);
        if let Some(own) = self.own.get(&height) {
            if *own != root {
                self.alarms += 1;
                *self.mismatched.entry(height).or_insert(0) += 1;
            }
            return;
        }
        if height <= self.passed {
            return; // stale: this node already gossiped past it
        }
        self.peers.entry(height).or_default().push(root);
        while self.peers.len() > Self::AHEAD_CAP {
            self.peers.pop_last(); // farthest-future height loses first
        }
        self.peer_hwm.set_max(self.peers.len() as i64);
    }

    /// Comparisons that disagreed so far.
    #[must_use]
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Highest gossip height seen from any peer — evidence the cluster
    /// is ahead of this node.
    #[must_use]
    pub fn peer_frontier(&self) -> u64 {
        self.peer_frontier
    }

    /// The lowest gossip height where at least `quorum` comparisons
    /// disagreed with this node's own root — the self-quarantine
    /// trigger: when a quorum of the cluster disputes our root, *we* are
    /// the diverged one.
    #[must_use]
    pub fn quarantine_signal(&self, quorum: u32) -> Option<u64> {
        self.mismatched
            .iter()
            .find(|(_, n)| **n >= quorum)
            .map(|(h, _)| *h)
    }

    /// Forget all comparison state ahead of a full re-sync: own roots,
    /// buffered peers, and mismatch evidence. Gossip at or below
    /// `passed` is stale afterwards. Cumulative `alarms` survive — they
    /// are the report's forensic record.
    pub(crate) fn reset_for_resync(&mut self, passed: u64) {
        self.own.clear();
        self.peers.clear();
        self.mismatched.clear();
        self.passed = self.passed.max(passed);
    }

    /// Buffered future gossip heights (bound checked by tests).
    #[cfg(test)]
    pub(crate) fn buffered_heights(&self) -> usize {
        self.peers.len()
    }

    /// Retained own gossip heights (bound checked by tests).
    #[cfg(test)]
    pub(crate) fn own_heights(&self) -> usize {
        self.own.len()
    }
}

/// The ordered-delivery front both replica kinds embed: everything about
/// consuming an ordered block stream that does not depend on *how* a
/// block is executed. It buffers blocks that arrive ahead of the tip and
/// hands them back in order, keeps the verified [`DeliveryLog`] and the
/// running [`BlockStats`] total, and owns root gossip — this node's roots
/// per gossip height, peers' roots, the disagreement count behind
/// self-quarantine, and the poison fault hook. [`ReplicaNode`] and
/// [`crate::ShardedReplicaNode`] each put one in front of their own
/// `apply` and expose it as `front()` / `front_mut()`.
pub struct DeliveryFront {
    pending: BTreeMap<u64, Arc<ChainBlock>>,
    delivery_log: DeliveryLog,
    stats: BlockStats,
    roots: RootTracker,
    gossip_every: u64,
    /// Fault-injection hook: corrupt the next gossiped (and self-tracked)
    /// root so the divergence/quarantine machinery fires without actually
    /// corrupting chain state.
    poison_next_gossip: bool,
    pub(crate) metrics: ReplicaMetrics,
}

impl DeliveryFront {
    pub(crate) fn new(gossip_every: u64) -> DeliveryFront {
        DeliveryFront {
            pending: BTreeMap::new(),
            delivery_log: DeliveryLog::default(),
            stats: BlockStats::default(),
            roots: RootTracker::default(),
            gossip_every: gossip_every.max(1),
            poison_next_gossip: false,
            metrics: ReplicaMetrics::register(&Registry::new(), 0),
        }
    }

    /// Report into the given metric handles (the default handles sit in a
    /// scratch registry). Also wires the root tracker's buffer gauges.
    pub(crate) fn set_metrics(&mut self, metrics: ReplicaMetrics) {
        self.roots
            .set_metrics(metrics.root_own_hwm.clone(), metrics.root_peer_hwm.clone());
        self.metrics = metrics;
    }

    /// Hold `block` until the tip reaches it; a block at or below `tip`
    /// (a duplicate, or one state-sync already covered) is dropped.
    pub(crate) fn buffer(&mut self, block: Arc<ChainBlock>, tip: u64) {
        let seq = block.header.id.0;
        if seq > tip {
            self.pending.entry(seq).or_insert(block);
        }
    }

    /// The buffered block that extends `tip`, if it has arrived. Blocks
    /// the tip has already passed are discarded on the way.
    pub(crate) fn next_after(&mut self, tip: u64) -> Option<Arc<ChainBlock>> {
        while let Some(entry) = self.pending.first_entry() {
            if *entry.key() > tip + 1 {
                break;
            }
            let block = entry.remove();
            if block.header.id.0 == tip + 1 {
                return Some(block);
            }
        }
        None
    }

    /// Book one applied block — delivery log, counters, and at a gossip
    /// height the root to gossip, computed by `root` — and describe it
    /// for the caller. `cost_ns` is the virtual time the block added.
    pub(crate) fn applied(
        &mut self,
        id: BlockId,
        hash: Digest,
        stats: &BlockStats,
        cost_ns: u64,
        root: impl FnOnce() -> Result<Digest>,
    ) -> Result<Applied> {
        self.delivery_log.observe(id.0, hash);
        self.stats.absorb(stats);
        self.metrics.txns.observe(stats);
        self.metrics.block_cost_ns.observe(cost_ns);
        let gossip_root = if id.0.is_multiple_of(self.gossip_every) {
            let mut root = root()?;
            if self.poison_next_gossip {
                // Corrupt the *observed* root (gossip + own tracking), not
                // the chain: peers will dispute it, and so will this node's
                // own tracker once their true roots arrive.
                root.0[0] ^= 0xFF;
                self.poison_next_gossip = false;
            }
            self.roots.note_own(id.0, root);
            self.metrics.gossip_roots.inc();
            Some(root)
        } else {
            None
        };
        Ok(Applied {
            block: id,
            committed: stats.committed,
            cost_ns,
            gossip_root,
        })
    }

    /// Log a block that state-sync replayed rather than `applied` booked.
    pub(crate) fn observe_synced(&mut self, block: &ChainBlock) {
        self.delivery_log
            .observe(block.header.id.0, block.header.hash());
    }

    /// Crash: the delivery buffer is in-memory state and is lost.
    pub(crate) fn crash(&mut self) {
        self.pending.clear();
    }

    /// The verified delivery log.
    #[must_use]
    pub fn delivery_log(&self) -> &DeliveryLog {
        &self.delivery_log
    }

    /// Aggregated execution counters.
    #[must_use]
    pub fn stats(&self) -> &BlockStats {
        &self.stats
    }

    /// Blocks buffered ahead of the next applicable height.
    #[must_use]
    pub fn pending_gap(&self) -> usize {
        self.pending.len()
    }

    /// Root-gossip evidence: disagreements, the peers' frontier, the
    /// self-quarantine signal.
    #[must_use]
    pub fn roots(&self) -> &RootTracker {
        &self.roots
    }

    /// Where a peer's gossiped root is noted ([`RootTracker::note_peer`]).
    /// Resetting the evidence ahead of a from-scratch re-sync keeps
    /// buffered deliveries: they apply once the peer's snapshot lands.
    pub fn roots_mut(&mut self) -> &mut RootTracker {
        &mut self.roots
    }

    /// Fault-injection hook: flip a byte in the next gossiped (and
    /// self-tracked) root. Chain state stays intact, so this exercises
    /// divergence detection and quarantine recovery end to end.
    pub fn poison_next_gossip(&mut self) {
        self.poison_next_gossip = true;
    }
}

/// A replica node: ordered delivery over an [`OeChain`].
pub struct ReplicaNode {
    chain: OeChain,
    codec: Arc<dyn ContractCodec>,
    front: DeliveryFront,
    charge: BlockCharge,
}

impl ReplicaNode {
    /// Build a replica: open the chain on `config.engine`, run `setup` to
    /// load genesis state, and obtain the contract codec used to decode
    /// delivered payloads.
    pub fn new(
        config: &ReplicaConfig,
        setup: impl FnOnce(&Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>>,
    ) -> Result<ReplicaNode> {
        let spec = EngineSpec::flat(config.engine, config.workers);
        let chain = OeChain::open(config.chain.clone(), spec)?;
        let codec = setup(chain.engine())?;
        Ok(ReplicaNode {
            chain,
            codec,
            front: DeliveryFront::new(config.gossip_every),
            charge: BlockCharge::default(),
        })
    }

    /// Report into the given metric handles (the default handles sit in a
    /// scratch registry).
    pub fn set_metrics(&mut self, metrics: ReplicaMetrics) {
        self.front.set_metrics(metrics);
    }

    /// The underlying chain.
    #[must_use]
    pub fn chain(&self) -> &OeChain {
        &self.chain
    }

    /// Current chain height.
    #[must_use]
    pub fn height(&self) -> BlockId {
        self.chain.height()
    }

    /// Full-state root at the current height.
    pub fn state_root(&self) -> Result<Digest> {
        self.chain.state_root()
    }

    /// The ordered-delivery front: delivery log, buffered gap, gossip.
    #[must_use]
    pub fn front(&self) -> &DeliveryFront {
        &self.front
    }

    /// Mutable front: peers' gossiped roots and the poison hook.
    pub fn front_mut(&mut self) -> &mut DeliveryFront {
        &mut self.front
    }

    /// Aggregated execution counters.
    #[must_use]
    pub fn stats(&self) -> &BlockStats {
        self.front.stats()
    }

    /// Receive one sealed block from the ordering service. Buffers it if
    /// it is ahead of the next height, then applies every consecutively
    /// available block. Returns the blocks applied by this call.
    pub fn deliver(&mut self, block: Arc<ChainBlock>) -> Result<Vec<Applied>> {
        self.front.buffer(block, self.height().0);
        self.drain_pending()
    }

    /// Apply every buffered block that now connects to the chain tip.
    pub fn drain_pending(&mut self) -> Result<Vec<Applied>> {
        let mut applied = Vec::new();
        while let Some(block) = self.front.next_after(self.height().0) {
            applied.push(self.apply(&block)?);
        }
        Ok(applied)
    }

    fn apply(&mut self, block: &ChainBlock) -> Result<Applied> {
        let result = self.chain.apply_sealed_block(block, self.codec.as_ref())?;
        let cost_ns = self.charge.chain_block(&self.chain, &result);

        let header = &block.header;
        self.front
            .applied(header.id, header.hash(), &result.stats, cost_ns, || {
                self.chain.state_root()
            })
    }

    /// Drop all local chain state ahead of a quarantine re-sync: reopen a
    /// fresh chain (height 0, empty tables) and clear comparison
    /// evidence, but keep buffered deliveries — they re-apply once the
    /// peer's snapshot lands. After this, a state-sync request advertises
    /// height 0, so the serving peer answers with a full manifest.
    pub fn wipe_for_resync(&mut self) -> Result<()> {
        self.chain.reopen()?;
        self.charge.reset();
        // Tip 0: the tracker keeps the gossip frontier it already passed.
        self.front.roots_mut().reset_for_resync(0);
        Ok(())
    }

    /// Crash: lose the delivery buffer and in-memory execution state (the
    /// chain's durable state is recovered separately).
    pub fn crash(&mut self) {
        self.front.crash();
        self.charge.reset();
    }

    /// Local recovery: reload the last checkpoint and deterministically
    /// replay this replica's own block log.
    pub fn recover_local(&mut self) -> Result<()> {
        let codec = Arc::clone(&self.codec);
        self.chain.crash_and_recover(codec.as_ref())
    }

    /// Bring the chain to a peer's part of a sync reply
    /// ([`OeChain::catch_up`]) and book what only a flat replica books: a
    /// manifest that landed restarts the pipeline charge, and the tail
    /// joins the delivery log. Returns the height gained; buffered
    /// deliveries are left for the caller to drain.
    pub(crate) fn catch_up(
        &mut self,
        manifest: Option<&StateSnapshot>,
        tail: &[ChainBlock],
    ) -> Result<u64> {
        let base = self.chain.base();
        let gained = self.chain.catch_up(manifest, tail, self.codec.as_ref())?;
        if self.chain.base() != base {
            self.charge.reset();
        }
        for block in tail.iter().filter(|b| b.header.id <= self.chain.height()) {
            self.front.observe_synced(block);
        }
        Ok(gained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statesync::{apply_sync, ShardedSyncResponse, SyncResponse};
    use crate::testkit::{feed, flat_replica, sealed_stream};

    /// The first `n` blocks of the shared stream, and the root an
    /// in-order replica reaches on them.
    fn stream_and_root(n: usize) -> (Vec<Arc<ChainBlock>>, Digest) {
        let blocks = sealed_stream(n, 8);
        let mut reference = flat_replica(EngineKind::Rbc, 4);
        feed(&mut reference, &blocks);
        (blocks, reference.state_root().unwrap())
    }

    #[test]
    fn out_of_order_delivery_is_buffered_and_applied_in_order() {
        let (blocks, reference_root) = stream_and_root(5);
        let mut r = flat_replica(EngineKind::Rbc, 4);
        // Deliver 2, 3 first: buffered, nothing applies.
        assert!(r.deliver(Arc::clone(&blocks[1])).unwrap().is_empty());
        assert!(r.deliver(Arc::clone(&blocks[2])).unwrap().is_empty());
        assert_eq!(r.front().pending_gap(), 2);
        // Block 1 closes the gap: all three apply, in order.
        let applied = r.deliver(Arc::clone(&blocks[0])).unwrap();
        assert_eq!(
            applied.iter().map(|a| a.block.0).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        feed(&mut r, &blocks[3..]);
        assert_eq!(r.height(), BlockId(5));
        assert_eq!(r.state_root().unwrap(), reference_root);
        assert!(r.front().delivery_log().is_gap_free());
        assert_eq!(r.front().delivery_log().len(), 5);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let blocks = sealed_stream(3, 8);
        let mut r = flat_replica(EngineKind::Rbc, 4);
        r.deliver(Arc::clone(&blocks[0])).unwrap();
        assert!(r.deliver(Arc::clone(&blocks[0])).unwrap().is_empty());
        assert_eq!(r.height(), BlockId(1));
        assert_eq!(r.front().delivery_log().mismatches(), 0);
    }

    #[test]
    fn gossip_roots_and_divergence_detection() {
        let blocks = sealed_stream(4, 8);
        let mut r = flat_replica(EngineKind::Rbc, 4);
        let mut gossiped = Vec::new();
        for b in &blocks {
            for a in r.deliver(Arc::clone(b)).unwrap() {
                if let Some(root) = a.gossip_root {
                    gossiped.push((a.block.0, root));
                }
            }
        }
        assert_eq!(
            gossiped.iter().map(|g| g.0).collect::<Vec<_>>(),
            [2, 4],
            "gossip_every=2"
        );
        // Agreeing peer roots raise no alarm; a diverging one does — in
        // both arrival orders (before and after the local root exists).
        r.front_mut().roots_mut().note_peer(2, gossiped[0].1);
        assert_eq!(r.front().roots().alarms(), 0);
        r.front_mut().roots_mut().note_peer(4, Digest([0xAB; 32]));
        assert_eq!(r.front().roots().alarms(), 1);
        let mut early = flat_replica(EngineKind::Rbc, 4);
        early
            .front_mut()
            .roots_mut()
            .note_peer(2, Digest([0xCD; 32]));
        feed(&mut early, &blocks[..2]);
        assert_eq!(early.front().roots().alarms(), 1);
    }

    #[test]
    fn root_tracker_memory_is_bounded() {
        let mut t = RootTracker::default();
        let root = Digest([1; 32]);
        // Peers rushing arbitrarily far ahead cannot grow the buffer past
        // the cap; the farthest heights are the ones shed.
        for h in 1..=10_000u64 {
            t.note_peer(h, root);
        }
        assert_eq!(t.buffered_heights(), RootTracker::AHEAD_CAP);
        // Advancing compares the matching height and drops everything at
        // or below it.
        t.note_own(5, root);
        assert_eq!(t.alarms(), 0);
        assert!(t.buffered_heights() < RootTracker::AHEAD_CAP);
        t.note_own(RootTracker::AHEAD_CAP as u64 + 10, root);
        assert_eq!(t.buffered_heights(), 0);
        // Own roots are a sliding window however long the chain runs.
        for h in 100..10_000u64 {
            t.note_own(h, root);
        }
        assert_eq!(t.own_heights(), RootTracker::OWN_KEEP);
        // Stale peer gossip (at/below the compared frontier) is dropped,
        // not buffered forever.
        t.note_peer(50, Digest([9; 32]));
        assert_eq!(t.buffered_heights(), 0);
        assert_eq!(t.alarms(), 0);
        // Comparisons still work at retained heights — in both orders.
        t.note_peer(9_999, Digest([9; 32]));
        assert_eq!(t.alarms(), 1);
        t.note_peer(10_005, Digest([9; 32]));
        t.note_own(10_005, root);
        assert_eq!(t.alarms(), 2);
    }

    #[test]
    fn root_tracker_reports_buffer_high_water_marks() {
        let mut t = RootTracker::default();
        let own_hwm = Gauge::detached();
        let peer_hwm = Gauge::detached();
        t.set_metrics(own_hwm.clone(), peer_hwm.clone());
        let root = Digest([1; 32]);
        // Peers rushing far ahead: the gauge records the peak, and the
        // peak never exceeds the cap the buffer enforces.
        for h in 1..=1_000u64 {
            t.note_peer(h, root);
        }
        assert_eq!(peer_hwm.get(), RootTracker::AHEAD_CAP as i64);
        // Draining the buffer does not lower a high-water mark.
        t.note_own(2_000, root);
        assert_eq!(t.buffered_heights(), 0);
        assert_eq!(peer_hwm.get(), RootTracker::AHEAD_CAP as i64);
        // Own-root window: the mark tracks the retained window size.
        for h in 2_001..2_200u64 {
            t.note_own(h, root);
        }
        assert_eq!(own_hwm.get(), RootTracker::OWN_KEEP as i64);
    }

    #[test]
    fn catch_up_closes_the_gap_under_buffered_tail() {
        let (blocks, reference_root) = stream_and_root(6);
        let mut r = flat_replica(EngineKind::Rbc, 4);
        // Replica saw only block 1, then went down; blocks 5–6 arrive
        // while it syncs.
        r.deliver(Arc::clone(&blocks[0])).unwrap();
        r.deliver(Arc::clone(&blocks[4])).unwrap();
        r.deliver(Arc::clone(&blocks[5])).unwrap();
        assert_eq!(r.height(), BlockId(1));
        // Peer serves blocks 2–4; the buffered tail drains automatically.
        let range = SyncResponse::Range(blocks[1..4].iter().map(|b| (**b).clone()).collect());
        let reply = ShardedSyncResponse {
            height: BlockId(4),
            global_hash: blocks[3].header.hash(),
            epoch: 0,
            parts: vec![range],
        };
        let applied = apply_sync(&mut r, &reply).unwrap();
        assert_eq!(applied.blocks, 5);
        assert_eq!(r.height(), BlockId(6));
        assert_eq!(r.state_root().unwrap(), reference_root);
        assert!(r.front().delivery_log().is_gap_free());
    }

    #[test]
    fn every_engine_reaches_the_same_root_as_its_sealer() {
        // Engines may disagree with each other on what commits, but each
        // must be self-consistent: two replicas of the same kind fed the
        // same blocks agree.
        for kind in [
            EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
            EngineKind::Aria,
            EngineKind::Rbc,
            EngineKind::Fabric,
            EngineKind::FastFabric,
        ] {
            let blocks = sealed_stream(4, 8);
            let run = |blocks: &[Arc<ChainBlock>]| {
                let mut r = flat_replica(kind, 4);
                feed(&mut r, blocks);
                r.state_root().unwrap()
            };
            assert_eq!(
                run(&blocks),
                run(&blocks),
                "{} replicas diverged",
                kind.name()
            );
        }
    }
}
