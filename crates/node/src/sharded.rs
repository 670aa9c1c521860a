//! The sharded replica: N-replica replication × M-shard execution in one
//! node — `harmony-node`'s ordered delivery and crash recovery wrapped
//! around `harmony-shard`'s executor.
//!
//! A [`ShardedReplicaNode`] holds one [`ShardGroup`] — M per-shard
//! [`OeChain`]s (any of the five engines in their sharded profile, which
//! each chain rebuilds on recovery) behind the cross-shard planner — and
//! the experiment driver holds another; both run a block through the same
//! [`ShardGroup::execute_block`]. What the replica adds is what only a
//! replica has. A globally ordered block is consumed in three steps:
//!
//! 1. verify its linkage/signature against the replica's **global** hash
//!    chain, and decode its payloads,
//! 2. hand the transactions to the group, which plans them, seals each
//!    shard's sub-block on that shard's chain and applies it — so every
//!    shard owns a verifiable hash-chained block log (height == global
//!    height) with its own checkpoints, each recording its position,
//! 3. charge the block's virtual time through
//!    [`BlockCharge::group_block`] — the price the experiment driver
//!    charges its own group's blocks — and, at gossip heights, fold the
//!    per-shard state roots into the [`harmony_chain::sharded_state_root`]
//!    gossiped for divergence detection.
//!
//! Because fragments serialize their captured update commands, a shard's
//! sub-block log replays **independently** of the other shards: crash
//! recovery and state-sync never re-run the cross-shard simulation.
//! That is what lets a rejoining replica bring one shard back via a
//! checkpoint-manifest install while another replays a verified block
//! range ([`crate::statesync::apply_sharded_sync`]): each shard's chain
//! takes its part through [`OeChain::catch_up`], the method a flat
//! replica's chain and a reshard handover use too. Topology epochs
//! (reshard markers, a peer's layout adopted by sync) re-host the group
//! on new chains.
//!
//! The replica's own position on the *global* chain (height + last block
//! hash) lives in memory; after a crash it is re-anchored by the first
//! state-sync response, and ordered delivery stays buffered until the
//! anchor is known.

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_chain::sync::{StateSnapshot, TableDump};
use harmony_chain::ChainPosition;
use harmony_chain::{sharded_state_root, state_root, ChainBlock, ChainConfig, OeChain};
use harmony_common::{BlockId, Error, Result};
use harmony_consensus::net::LatencyModel;
use harmony_core::BlockStats;
use harmony_crypto::{sha256, Digest, Verifier};
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_metrics::Registry;
use harmony_shard::{Partitioning, PlannerMetrics, ReshardMarker, ShardGroup, ShardRouter};
use harmony_sim::BlockCharge;
use harmony_storage::StorageEngine;
use harmony_txn::{ContractCodec, Key};

use crate::metrics::{shard_txn_counters, ReplicaMetrics, TxnCounters};
use crate::replica::{Applied, DeliveryFront};

/// Sharded replica configuration.
#[derive(Clone, Debug)]
pub struct ShardedReplicaConfig {
    /// Per-shard chain template (storage profile, checkpoint period,
    /// crypto, provisioning). Each shard clones it; see
    /// `checkpoint_stagger` for the one knob varied per shard.
    pub chain: ChainConfig,
    /// Which DCC engine executes sub-blocks (sharded profile).
    pub engine: EngineKind,
    /// Worker cores per shard.
    pub workers: usize,
    /// Number of physical shards hosted by this replica.
    pub shards: usize,
    /// Logical partition count (fixed across shard counts, so transaction
    /// classification — and hence every commit decision — is
    /// shard-count-invariant).
    pub partitions: u32,
    /// Partitioning function mapping key bytes to logical partitions.
    /// Must be identical on every replica of a chain. `Prefix` is the
    /// right choice for composite-key workloads (TPC-C): it co-locates
    /// every key of a warehouse, which is what makes declared
    /// NewOrder/Payment footprints single-shard.
    pub partitioning: Partitioning,
    /// Names of tables hosted in full on every shard (read-only
    /// dimension tables, e.g. TPC-C `item`): genesis pruning skips
    /// them, and their keys never force a transaction cross-shard.
    /// Names are resolved against the catalog the workload `setup`
    /// creates; an unknown name is a configuration error.
    pub replicated_tables: Vec<String>,
    /// Shard `s` checkpoints every `chain.checkpoint_every + s * stagger`
    /// blocks. A non-zero stagger spreads checkpoint I/O bursts across
    /// co-hosted shards — and means a crash can strand shards at
    /// *different* recovery points, which the per-shard state-sync
    /// protocol is built to handle (manifest for one shard, block-range
    /// replay for another).
    pub checkpoint_stagger: u64,
    /// Network model for the cross-shard read-fragment exchange.
    pub latency: LatencyModel,
    /// Compute + gossip the sharded state root every this many blocks.
    pub gossip_every: u64,
}

impl Default for ShardedReplicaConfig {
    fn default() -> Self {
        ShardedReplicaConfig {
            chain: ChainConfig::in_memory(),
            engine: EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
            workers: 4,
            shards: 2,
            partitions: 16,
            partitioning: Partitioning::Hash,
            replicated_tables: Vec::new(),
            checkpoint_stagger: 0,
            latency: LatencyModel::lan_1g(),
            gossip_every: 5,
        }
    }
}

impl ShardedReplicaConfig {
    /// `shards` fresh chains, in shard order, each running `engine` in the
    /// sharded profile on its staggered checkpoint period.
    fn open_shard_chains(&self, shards: usize) -> Result<Vec<OeChain>> {
        let open = |shard: usize| {
            let mut cfg = self.chain.clone();
            // checkpoint_every = 0 means "never checkpoint" on a flat
            // chain; preserve that rather than staggering it into "every
            // block".
            if cfg.checkpoint_every > 0 {
                cfg.checkpoint_every = cfg
                    .checkpoint_every
                    .saturating_add(shard as u64 * self.checkpoint_stagger);
            }
            OeChain::open(cfg, EngineSpec::sharded(self.engine, self.workers))
        };
        (0..shards).map(open).collect()
    }
}

/// The layouts a sharded replica can host: at least one logical
/// partition, at least one shard, and no more shards than partitions (a
/// shard past the last partition would own nothing). One rule for the
/// configured topology, every scheduled or delivered reshard target, and
/// a sync peer's layout.
pub(crate) fn check_layout(shards: usize, partitions: usize) -> Result<()> {
    let bad = |msg: String| Err(Error::InvalidArgument(msg));
    if partitions == 0 {
        return bad("a sharded layout needs ≥ 1 logical partition".into());
    }
    if shards == 0 {
        return bad("a sharded layout needs ≥ 1 shard".into());
    }
    if shards > partitions {
        return bad(format!(
            "{shards} shards exceed the {partitions} logical partitions"
        ));
    }
    Ok(())
}

/// A replica hosting M shards behind one ordered global block stream.
pub struct ShardedReplicaNode {
    /// What every shard chain opens from; the live shard count is the
    /// group's (`config.shards` is the genesis layout).
    config: ShardedReplicaConfig,
    group: ShardGroup,
    verifier: Verifier,
    height: BlockId,
    /// Topology epoch: 0 for the genesis layout, bumped by every applied
    /// reshard marker.
    epoch: u64,
    /// Hash of the latest global block — the value the next delivery's
    /// `prev_hash` must match — if known. Lost on crash (it is in-memory
    /// state), restored by the first state-sync response.
    anchor: Option<Digest>,
    front: DeliveryFront,
    charge: BlockCharge,
    /// Where the per-shard counters are registered, and as which replica
    /// (a scratch registry until [`Self::set_metrics`]), so that they
    /// follow every change of the shard count.
    registry: Arc<Registry>,
    replica: usize,
    shard_metrics: Vec<TxnCounters>,
}

impl ShardedReplicaNode {
    /// Build a sharded replica: open one chain per shard and load genesis
    /// through the group ([`ShardGroup::setup_with`]): `setup` runs on
    /// every shard's engine and returns the workload codec, and each
    /// shard is pruned down to the rows it owns.
    ///
    /// # Errors
    /// `InvalidArgument` for zero shards, zero partitions, more shards
    /// than partitions, or an unknown replicated table; whatever opening a
    /// chain or `setup` returns.
    pub fn new(
        config: &ShardedReplicaConfig,
        setup: impl FnMut(&Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>>,
    ) -> Result<ShardedReplicaNode> {
        check_layout(config.shards, config.partitions as usize)?;
        let router = ShardRouter::new(config.partitioning.build(config.partitions), config.shards);
        let chains = config.open_shard_chains(config.shards)?;
        let mut group = ShardGroup::new(router, chains, config.latency.clone());
        group.setup_with(&config.replicated_tables, setup)?;
        let mut node = ShardedReplicaNode {
            config: config.clone(),
            group,
            verifier: Verifier::new(&config.chain.provision, config.chain.crypto),
            height: BlockId(0),
            epoch: 0,
            anchor: Some(Digest::ZERO),
            front: DeliveryFront::new(config.gossip_every),
            charge: BlockCharge::default(),
            registry: Arc::new(Registry::new()),
            replica: 0,
            shard_metrics: Vec::new(),
        };
        node.report_layout();
        Ok(node)
    }

    /// Report into `registry` as replica `replica`: the replica-level
    /// counters and histograms, the planner's classification metrics, and
    /// one committed/aborted counter pair per hosted shard, re-registered
    /// whenever the shard count changes. The defaults sit in scratch
    /// registries.
    pub fn set_metrics(&mut self, registry: &Arc<Registry>, replica: usize) {
        self.front
            .set_metrics(ReplicaMetrics::register(registry, replica));
        let id = replica.to_string();
        self.group.set_metrics(PlannerMetrics::register(
            registry,
            &[("replica", id.as_str())],
        ));
        self.registry = Arc::clone(registry);
        self.replica = replica;
        self.report_layout();
    }

    /// Follow the current shard count: set the hosted-shards gauge and
    /// register one counter pair per hosted shard. Registering a
    /// `(replica, shard)` pair again returns the same cells, so a shard
    /// index that a merge dropped and a later split brings back keeps
    /// counting where it was.
    fn report_layout(&mut self) {
        self.front.metrics.hosted_shards.set(self.shards() as i64);
        self.shard_metrics = (0..self.shards())
            .map(|s| shard_txn_counters(&self.registry, self.replica, s))
            .collect();
    }

    /// Number of shards hosted.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.group.shards()
    }

    /// One shard's chain (inspection / sync serving).
    #[must_use]
    pub fn shard_chain(&self, shard: usize) -> &OeChain {
        self.group.chain(shard)
    }

    /// Every hosted shard chain, in shard order. Their heights are
    /// unequal only after a crash recovery that lost some shards'
    /// checkpoints (state-sync then evens them out).
    #[must_use]
    pub fn chains(&self) -> &[OeChain] {
        self.group.chains()
    }

    /// Global height (every shard chain sits at this height, except
    /// mid-recovery).
    #[must_use]
    pub fn height(&self) -> BlockId {
        self.height
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

    /// Per-shard state roots and their Merkle fold — what this replica
    /// gossips and what a sharded block header would carry
    /// ([`ShardGroup::state_roots`]).
    pub fn sharded_root(&self) -> Result<Digest> {
        Ok(self.group.state_roots()?.root)
    }

    /// Audit-oracle counterpart of [`Self::sharded_root`]: rebuilds every
    /// shard's root from a full scan. Must always equal the cached fold.
    pub fn sharded_root_oracle(&self) -> Result<Digest> {
        let shard_roots: Vec<Digest> = self
            .chains()
            .iter()
            .map(|c| state_root(c.engine()))
            .collect::<Result<_>>()?;
        Ok(sharded_state_root(&shard_roots))
    }

    /// Receive one globally ordered sealed block. Buffers it if it is
    /// ahead of the next height, then applies every consecutively
    /// available block. Returns the blocks applied by this call.
    pub fn deliver(&mut self, block: Arc<ChainBlock>) -> Result<Vec<Applied>> {
        self.front.buffer(block, self.height.0);
        self.drain_pending()
    }

    /// Apply every buffered block that now connects to the global tip.
    /// No-op while the global anchor is unknown (post-crash, pre-sync):
    /// linkage of a delivered block cannot be verified without it.
    pub fn drain_pending(&mut self) -> Result<Vec<Applied>> {
        let mut applied = Vec::new();
        if self.anchor.is_none() {
            return Ok(applied);
        }
        while let Some(block) = self.front.next_after(self.height.0) {
            applied.push(self.apply(&block)?);
        }
        Ok(applied)
    }

    fn apply(&mut self, block: &ChainBlock) -> Result<Applied> {
        let Some(prev) = &self.anchor else {
            return Err(Error::InvalidArgument(
                "cannot apply without a global anchor".into(),
            ));
        };
        block.verify(prev, &self.verifier)?;

        // A topology-change block carries a single reshard marker instead
        // of transactions; it must be recognized before contract decoding
        // (the marker is not a contract payload).
        if block.txns.len() == 1 {
            if let Some(marker) = ReshardMarker::decode(&block.txns[0]) {
                return self.apply_reshard(block, marker);
            }
        }

        let codec = self.group.codec();
        let txns: Result<Vec<_>> = block.txns.iter().map(|b| codec.decode(b)).collect();
        let result = self.group.execute_block(&txns?)?;
        for (counters, shard) in self.shard_metrics.iter().zip(&result.shard_results) {
            counters.observe(&shard.stats);
        }
        let cost_ns = self.charge.group_block(&self.group, &result);
        self.advance(block, &result.stats, cost_ns)
    }

    /// Move the global tip onto `block`, hand it to the front (which
    /// gossips the sharded root at gossip heights).
    fn advance(&mut self, block: &ChainBlock, stats: &BlockStats, cost_ns: u64) -> Result<Applied> {
        let id = block.header.id;
        let hash = block.header.hash();
        self.height = id;
        self.anchor = Some(hash);
        let group = &self.group;
        self.front
            .applied(id, hash, stats, cost_ns, || Ok(group.state_roots()?.root))
    }

    /// Apply a topology-change block: re-host the logical database on
    /// `marker.new_shards` shards, atomically, at this block's height.
    ///
    /// Because `apply` is strictly sequential in block order, every
    /// in-flight sub-block is already drained when the marker lands. The
    /// handover reuses the state-sync primitives end to end: each old
    /// shard exports its checkpoint manifest ([`OeChain::export_snapshot`]
    /// — the same manifest a sync `serve` ships), a split serves
    /// each new shard its partition slice of those manifests, a merge
    /// first re-verifies the folded sub-block logs (verified range
    /// replay, [`OeChain::verify_chain`]) and then folds their slices,
    /// and each new shard chain takes its slice through
    /// [`OeChain::catch_up`], as a syncing shard takes a peer's manifest.
    /// The router swap
    /// ([`ShardRouter::resharded`]) is the epoch boundary: partition→key
    /// classification is untouched, so every commit/abort decision stays
    /// shard-count-invariant and the logical state root is bit-identical
    /// to a fixed-count run.
    fn apply_reshard(&mut self, block: &ChainBlock, marker: ReshardMarker) -> Result<Applied> {
        let new_count = marker.new_shards as usize;
        check_layout(new_count, self.config.partitions as usize)?;
        let old_count = self.shards();
        if new_count < old_count {
            // Merge direction: the surviving shards absorb foreign rows,
            // so the logs being folded are re-verified first (hash
            // linkage + deterministic replay of each sub-block log).
            for chain in self.chains() {
                chain.verify_chain()?;
            }
        }
        let exports = self
            .chains()
            .iter()
            .map(OeChain::export_snapshot)
            .collect::<Result<Vec<_>>>()?;
        let new_router = self.group.router().resharded(new_count);
        // Catalog order is identical on every shard (creation order is
        // identical), so table ids resolve against shard 0.
        let catalog = self.group.chain(0).engine().list_tables();
        let (id, hash) = (block.header.id, block.header.hash());
        let codec = self.group.codec();
        let mut new_chains = self.config.open_shard_chains(new_count)?;
        for (s, chain) in new_chains.iter_mut().enumerate() {
            let anchor = reshard_shard_anchor(&hash, marker.epoch, marker.new_shards, s);
            let snapshot = slice_manifest(&exports, &catalog, &new_router, s, id, anchor);
            chain.catch_up(Some(&snapshot), &[], codec.as_ref())?;
        }
        self.group.rehost(new_router, new_chains);
        self.epoch = marker.epoch;
        self.report_layout();
        self.front.metrics.reshards.inc();

        // The handover is charged like a sync serve/install round over
        // every shard manifest that moved. A marker commits nothing.
        let cost_ns = RESHARD_HANDOVER_NS.saturating_mul((old_count + new_count) as u64);
        self.advance(block, &BlockStats::default(), cost_ns)
    }

    /// Current topology epoch (0 until the first reshard marker applies).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopt a sync peer's topology epoch. A replica that crashed across
    /// one or more reshard boundaries never replays those markers (the
    /// manifest path skips them), so the sync reply carries the
    /// authoritative epoch. Monotonic: a stale reply from a peer we
    /// raced past can never rewind the local epoch.
    pub fn adopt_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Adopt a serving peer's shard count ahead of applying its sync
    /// response — the requester sits on the far side of a reshard
    /// boundary (it crashed or partitioned across the epoch swap), so its
    /// local layout is obsolete. Every shard restarts as a fresh chain
    /// under a recounted router; the response's full manifests then
    /// rebuild them. ([`Self::wipe_for_resync`] is the same-count case.)
    pub fn reshape_for_sync(&mut self, new_count: usize) -> Result<()> {
        check_layout(new_count, self.config.partitions as usize)?;
        let passed = self.height.0;
        let router = self.group.router().resharded(new_count);
        self.group
            .rehost(router, self.config.open_shard_chains(new_count)?);
        self.report_layout();
        self.height = BlockId(0);
        self.anchor = None;
        self.front.roots_mut().reset_for_resync(passed);
        Ok(())
    }

    /// Drop all local shard state ahead of a quarantine re-sync: reopen
    /// every shard chain fresh (height 0, empty tables), drop the global
    /// anchor, and clear comparison evidence. Buffered deliveries are
    /// kept — they drain once `finish_sync` re-anchors the replica. After
    /// this, a state-sync request advertises height 0 for every shard,
    /// so the serving peer answers with full manifests.
    pub fn wipe_for_resync(&mut self) -> Result<()> {
        self.reshape_for_sync(self.shards())
    }

    /// Crash: lose the delivery buffer and the in-memory global position
    /// (shards' durable state is recovered separately).
    pub fn crash(&mut self) {
        self.front.crash();
        self.anchor = None;
    }

    /// Local recovery: every shard chain reloads its last checkpoint and
    /// deterministically replays its own sub-block log
    /// ([`ShardGroup::recover`]). A shard that never checkpointed honestly
    /// lands at height 0 with an empty catalog (ready for a manifest
    /// install); the others replay back to the height they had applied.
    /// The replica's global height drops to the laggiest shard; the global
    /// anchor stays unknown until state-sync re-establishes it.
    pub fn recover_local(&mut self) -> Result<()> {
        self.group.recover()?;
        self.height = self
            .chains()
            .iter()
            .map(OeChain::height)
            .min()
            .expect("at least one shard");
        self.anchor = None;
        Ok(())
    }

    /// The hosted group — where state-sync brings each shard's chain to
    /// its part of a reply ([`ShardGroup::catch_up`]).
    pub(crate) fn group_mut(&mut self) -> &mut ShardGroup {
        &mut self.group
    }

    /// Finish a state-sync round: every shard must have landed on one
    /// common height, at least the peer's served height. At exactly the
    /// served height, the replica re-anchors on the peer's global block
    /// hash; past it, the replica kept applying anchored deliveries while
    /// the response was in flight and its own (newer) anchor stands.
    /// Buffered deliveries beyond the tip drain immediately.
    pub fn finish_sync(&mut self, height: BlockId, global_hash: Digest) -> Result<Vec<Applied>> {
        let landed = self.group.height()?;
        if landed < height {
            return Err(Error::Corruption(format!(
                "sync landed at {landed}, short of the served height {height}"
            )));
        }
        if landed == height {
            self.anchor = Some(global_hash);
        } else if self.anchor.is_none() {
            return Err(Error::Corruption(format!(
                "shards at {landed} past the served height {height} with no anchor"
            )));
        }
        self.height = landed;
        self.drain_pending()
    }

    /// The global block hash this replica is anchored at, if known —
    /// served to syncing peers so they can re-anchor.
    #[must_use]
    pub fn global_hash(&self) -> Option<Digest> {
        self.anchor
    }
}

/// Virtual nanoseconds charged per shard manifest moved by a reshard
/// handover (export + slice + install, same order of magnitude as a sync
/// serve/replay round).
const RESHARD_HANDOVER_NS: u64 = 250_000;

/// Deterministic sub-chain continuation hash for new shard `shard` after
/// a reshard at the global block with hash `global`. Every replica
/// derives the same value, so the resharded sub-chains stay hash-chain
/// compatible across replicas (range sync keeps working past the epoch
/// boundary).
fn reshard_shard_anchor(global: &Digest, epoch: u64, new_shards: u32, shard: usize) -> Digest {
    let mut buf = Vec::with_capacity(4 + 32 + 8 + 4 + 8);
    buf.extend_from_slice(b"HRS@");
    buf.extend_from_slice(&global.0);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&new_shards.to_le_bytes());
    buf.extend_from_slice(&(shard as u64).to_le_bytes());
    sha256(&buf)
}

/// Slice the old shards' exported checkpoint manifests down to the
/// partition set new shard `shard` owns under `router` — the reshard
/// handover's per-shard manifest. Partitioned tables take the union of
/// every old shard's owned rows, re-merged in key order; tables the
/// router replicates are carried in full. The position's undo images are
/// sliced by the same ownership rule, so the installed shard recovers and
/// re-simulates exactly like a shard that always existed.
fn slice_manifest(
    exports: &[StateSnapshot],
    catalog: &[(String, harmony_common::ids::TableId)],
    router: &ShardRouter,
    shard: usize,
    height: BlockId,
    last_hash: Digest,
) -> StateSnapshot {
    // A replicated table is identical on every old shard: take shard 0's
    // copy, once.
    let keep = |old: usize, key: &Key| {
        if router.is_replicated(key.table()) {
            old == 0
        } else {
            router.shard_of_key(key) == shard
        }
    };
    let tables = catalog.iter().enumerate().map(|(ti, (name, table))| {
        let mut rows = Vec::new();
        for (old, export) in exports.iter().enumerate() {
            for (k, v) in &export.tables[ti].rows {
                if keep(old, &Key::new(*table, k.clone())) {
                    rows.push((k.clone(), v.clone()));
                }
            }
        }
        // Old shards hold disjoint partitions; a re-sort restores key order.
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        TableDump {
            name: name.clone(),
            rows,
        }
    });
    // Merge the undo images block by block.
    let mut undo: BTreeMap<u64, Vec<_>> = BTreeMap::new();
    for (old, export) in exports.iter().enumerate() {
        for (block, entries) in &export.position.undo {
            let own = undo.entry(block.0).or_default();
            own.extend(entries.iter().filter(|e| keep(old, &e.0)).cloned());
        }
    }
    StateSnapshot {
        position: ChainPosition {
            height,
            last_hash,
            undo: undo.into_iter().map(|(b, e)| (BlockId(b), e)).collect(),
            summary: None,
        },
        tables: tables.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{
        orderer_keypair, sealed_stream, sharded_config, sharded_replica, workload,
    };

    fn replica(engine: EngineKind, shards: usize) -> ShardedReplicaNode {
        sharded_replica(&sharded_config(engine, shards))
    }

    #[test]
    fn shards_advance_in_lockstep_and_roots_agree_across_replicas() {
        let blocks = sealed_stream(6, 10);
        let run = |shards: usize| {
            let mut r = replica(EngineKind::Rbc, shards);
            for b in &blocks {
                r.deliver(Arc::clone(b)).unwrap();
            }
            assert_eq!(r.height(), BlockId(6));
            assert!(r.chains().iter().all(|c| c.height() == BlockId(6)));
            assert!(r.front().delivery_log().is_gap_free());
            let logical = harmony_shard::logical_state_root(r.chains().iter().map(OeChain::engine));
            (r.sharded_root().unwrap(), logical.unwrap())
        };
        let (top_a, logical_a) = run(4);
        let (top_b, logical_b) = run(4);
        assert_eq!(top_a, top_b, "replicas diverged");
        assert_eq!(logical_a, logical_b);
        // Different shard counts change the physical fold but not the
        // logical database.
        let (top_one, logical_one) = run(1);
        assert_ne!(top_a, top_one, "physical fold commits to the layout");
        assert_eq!(logical_a, logical_one, "logical state is M-invariant");
    }

    /// One executor, two hosts: the replica verifies and decodes a sealed
    /// global stream before its group executes it; a bare group handed
    /// the decoded transactions must end on the same sub-block chains,
    /// state roots and counters — for every engine and shard count.
    #[test]
    fn replica_and_bare_group_execute_identically() {
        let blocks = sealed_stream(6, 12);
        for shards in [2, 4] {
            for engine in EngineKind::ALL {
                let config = sharded_config(engine, shards);
                let mut replica = sharded_replica(&config);
                let router = ShardRouter::new(config.partitioning.build(config.partitions), shards);
                let spec = EngineSpec::sharded(engine, config.workers);
                let chains = (0..shards)
                    .map(|_| OeChain::open(config.chain.clone(), spec).unwrap())
                    .collect();
                let mut group = ShardGroup::new(router, chains, config.latency.clone());
                group.setup_with(&[], |e| workload().setup_node(e)).unwrap();
                let (mut stats, mut cross) = (BlockStats::default(), 0);
                for block in &blocks {
                    replica.deliver(Arc::clone(block)).unwrap();
                    let txns: Vec<_> = block
                        .txns
                        .iter()
                        .map(|t| group.codec().decode(t).unwrap())
                        .collect();
                    let result = group.execute_block(&txns).unwrap();
                    stats.absorb(&result.stats);
                    cross += result.cross_txns;
                }
                let at = format!("{} on {shards} shards", engine.name());
                assert!(cross > 0, "{at}: the stream must cross shards");
                assert_eq!(replica.chains().len(), shards);
                for (s, (hosted, bare)) in replica.chains().iter().zip(group.chains()).enumerate() {
                    assert_eq!(hosted.height(), BlockId(6), "{at}, shard {s}");
                    assert_eq!(hosted.height(), bare.height(), "{at}, shard {s}");
                    assert_eq!(hosted.last_hash(), bare.last_hash(), "{at}, shard {s}");
                    assert_eq!(
                        hosted.state_root().unwrap(),
                        bare.state_root().unwrap(),
                        "{at}, shard {s}"
                    );
                }
                assert_eq!(replica.stats(), &stats, "{at}");
            }
        }
    }

    #[test]
    fn unhostable_layouts_are_typed_errors() {
        for (shards, partitions) in [(0, 8), (9, 8), (1, 0)] {
            let config = ShardedReplicaConfig {
                shards,
                partitions,
                ..sharded_config(EngineKind::Rbc, 1)
            };
            let built = ShardedReplicaNode::new(&config, |e| workload().setup_node(e));
            assert!(
                matches!(built, Err(Error::InvalidArgument(_))),
                "{shards} shards over {partitions} partitions"
            );
        }
    }

    #[test]
    fn out_of_order_delivery_buffers_and_drains() {
        let blocks = sealed_stream(4, 8);
        let mut r = replica(EngineKind::Rbc, 2);
        assert!(r.deliver(Arc::clone(&blocks[2])).unwrap().is_empty());
        assert!(r.deliver(Arc::clone(&blocks[1])).unwrap().is_empty());
        assert_eq!(r.front().pending_gap(), 2);
        let applied = r.deliver(Arc::clone(&blocks[0])).unwrap();
        assert_eq!(
            applied.iter().map(|a| a.block.0).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        r.deliver(Arc::clone(&blocks[3])).unwrap();
        assert_eq!(r.height(), BlockId(4));
    }

    #[test]
    fn crash_recovery_replays_to_identical_root() {
        let blocks = sealed_stream(7, 10);
        for engine in [
            EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
            EngineKind::Aria,
            EngineKind::Fabric,
        ] {
            let mut reference = replica(engine, 3);
            let mut crasher = replica(engine, 3);
            for b in &blocks {
                reference.deliver(Arc::clone(b)).unwrap();
                crasher.deliver(Arc::clone(b)).unwrap();
            }
            let root = reference.sharded_root().unwrap();
            crasher.crash();
            crasher.recover_local().unwrap();
            // Every shard checkpointed (period 3, height 7): full local
            // replay, no sync needed.
            assert_eq!(crasher.height(), BlockId(7));
            assert_eq!(crasher.sharded_root().unwrap(), root, "{}", engine.name());
            // Re-anchor and keep going.
            let anchor = blocks[6].header.hash();
            assert!(crasher.finish_sync(BlockId(7), anchor).unwrap().is_empty());
        }
    }

    #[test]
    fn staggered_checkpoints_strand_shards_at_different_heights() {
        let blocks = sealed_stream(5, 10);
        let mut cfg = sharded_config(EngineKind::Rbc, 2);
        cfg.chain.checkpoint_every = 2;
        cfg.checkpoint_stagger = 100; // shard 1 never checkpoints in 5 blocks
        let mut r = sharded_replica(&cfg);
        for b in &blocks {
            r.deliver(Arc::clone(b)).unwrap();
        }
        r.crash();
        r.recover_local().unwrap();
        let heights: Vec<BlockId> = r.chains().iter().map(OeChain::height).collect();
        assert_eq!(heights[0], BlockId(5), "checkpointed shard replays fully");
        assert_eq!(heights[1], BlockId(0), "uncheckpointed shard lost all");
        assert_eq!(r.height(), BlockId(0), "global position is the laggard");
        // Deliveries stay buffered without an anchor.
        assert!(r.deliver(Arc::clone(&blocks[0])).unwrap().is_empty());
    }

    #[test]
    fn poisoned_gossip_on_a_reshard_marker_height_is_disputed() {
        // Block 2 is a gossip height (gossip_every = 2) and a topology
        // change: the marker path must run the same gossip stanza as a
        // workload block — poison applied once, tracked, then disputed.
        let first = sealed_stream(1, 8).remove(0);
        let marker = ReshardMarker {
            new_shards: 4,
            epoch: 1,
        };
        let marker_block = Arc::new(ChainBlock::seal(
            BlockId(2),
            first.header.hash(),
            vec![marker.encode()],
            &orderer_keypair(),
        ));
        let mut r = replica(EngineKind::Rbc, 2);
        r.front_mut().poison_next_gossip();
        r.deliver(first).unwrap();
        let applied = r.deliver(marker_block).unwrap();
        assert_eq!((r.shards(), r.epoch(), applied.len()), (4, 1, 1));
        let lie = applied[0].gossip_root.expect("2 is a gossip height");
        let truth = r.sharded_root().unwrap();
        assert_eq!(
            lie.0[0],
            truth.0[0] ^ 0xFF,
            "the gossiped root is corrupted"
        );
        assert_eq!(lie.0[1..], truth.0[1..], "…in one byte; state is intact");
        // Two honest peers' roots land on the node's own tracker, which
        // holds the lie: a quorum disputes it.
        r.front_mut().roots_mut().note_peer(2, truth);
        assert_eq!(r.front().roots().quarantine_signal(2), None);
        r.front_mut().roots_mut().note_peer(2, truth);
        assert_eq!(r.front().roots().quarantine_signal(2), Some(2));
    }
}
