//! The shard group: the one executor of a planned block — M per-shard
//! [`OeChain`]s, each running its engine in the sharded profile, plus the
//! deterministic cross-shard commit protocol.
//!
//! Two hosts drive it and neither carries a copy of it: the experiment
//! driver (`harmony_sim::run_experiment` on a sharded run, fig22) feeds
//! it blocks straight from a workload, and `harmony-node`'s sharded
//! replica wraps one group with what only a replica has — the global
//! hash chain, ordered delivery, state-sync and live resharding. Fed the
//! same transactions, the two hosts seal the same sub-blocks and reach
//! the same per-shard state roots, because they run this code; and both
//! price a block's [`ShardBlockResult`] through one function,
//! `harmony_sim::BlockCharge::group_block`, so they charge the same
//! virtual time for it.
//!
//! # Block anatomy
//!
//! An ordered block enters the group and is split three ways
//! ([`crate::plan::plan_block`]):
//!
//! 1. **Multi-partition transactions** are executed once against a global
//!    snapshot view assembled from the owner shards' states after the
//!    previous block, capturing their read-write sets.
//! 2. A **pure reservation function** over the global order decides which
//!    multi-partition transactions commit ([`decide_cross`]): a transaction
//!    survives iff it conflicts with no earlier surviving one. Survivors
//!    are therefore mutually conflict-free.
//! 3. Each shard seals its sub-block on its own chain (logged before
//!    execution) and executes it through its own engine: first the
//!    **fragments** of surviving multi-partition transactions (one
//!    synthetic contract per logical partition, in global sub-order), then
//!    its single-partition transactions in global order.
//!
//! # Why no voting round
//!
//! Because execution is deterministic (ordered input block → unique output
//! state), every shard that holds the read fragments can re-derive every
//! other shard's reservation outcome locally: the commit/abort decision is
//! a pure function of the global order and the captured read-write sets,
//! both of which are identical on every shard after the (modeled) fragment
//! exchange. No prepare/commit votes are exchanged — the only network cost
//! is shipping read fragments, modeled through
//! [`harmony_consensus::net::LatencyModel`].
//!
//! # Why fragments cannot abort
//!
//! Surviving fragments are pairwise conflict-free and sub-ordered before
//! every local transaction, so in each engine they have no conflict with
//! any smaller-TID transaction. Every engine in the workspace aborts a
//! transaction only on a conflict involving an earlier transaction
//! (first-updater-wins, dangerous-structure pivots, Rule 1), so fragments
//! commit unconditionally — which is exactly what makes the cross-shard
//! decision atomic across shards. The group enforces this invariant and
//! fails loudly if an engine ever violates it.

use std::collections::HashSet;
use std::sync::Arc;

use harmony_chain::{fold_table_roots, sharded_state_root, ChainBlock, OeChain, StateSnapshot};
use harmony_common::error::AbortReason;
use harmony_common::{BlockId, Error, Result};
use harmony_consensus::net::LatencyModel;
use harmony_core::executor::TxnOutcome;
use harmony_core::par::run_indexed;
use harmony_core::{BlockStats, SnapshotStore};
use harmony_crypto::{AuthMap, Digest};
use harmony_dcc_baselines::ProtocolBlockResult;
use harmony_metrics::Registry;
use harmony_storage::StorageEngine;
use harmony_txn::{Contract, ContractCodec, Key, MultiCodec, RangePredicate, RwSet};

use crate::metrics::PlannerMetrics;
use crate::plan::{plan_block, FragmentCodec, Slot};
use crate::router::ShardRouter;

/// Result of pushing one block through the group.
#[derive(Debug)]
pub struct ShardBlockResult {
    /// Outcome per transaction, in the submitted global order.
    pub outcomes: Vec<TxnOutcome>,
    /// Raw per-shard engine results (sub-block order).
    pub shard_results: Vec<ProtocolBlockResult>,
    /// Per-shard mapping from sub-block position to global transaction.
    pub slots: Vec<Vec<Slot>>,
    /// Number of multi-partition transactions in the block.
    pub cross_txns: usize,
    /// Multi-partition transactions that committed.
    pub cross_committed: usize,
    /// Per-multi-partition-transaction simulation cost (global order of the
    /// multi-partition subset).
    pub cross_sim_ns: Vec<u64>,
    /// Modeled one-round read-fragment exchange latency.
    pub exchange_ns: u64,
    /// Global counters (fragments excluded; one entry per submitted txn).
    pub stats: BlockStats,
}

impl ShardBlockResult {
    /// Every shard's outcome for the fragments of the multi-partition
    /// transaction at `global` — by construction all `Committed`.
    #[must_use]
    pub fn fragment_outcomes(&self, global: usize) -> Vec<(usize, TxnOutcome)> {
        let mut out = Vec::new();
        for (shard, slots) in self.slots.iter().enumerate() {
            for (pos, slot) in slots.iter().enumerate() {
                if let Slot::Fragment { global: g, .. } = slot {
                    if *g == global {
                        out.push((shard, self.shard_results[shard].outcomes[pos]));
                    }
                }
            }
        }
        out
    }
}

/// Two-level state commitment of a shard group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedRoot {
    /// One state root per shard, in shard order.
    pub shard_roots: Vec<Digest>,
    /// Merkle fold of the shard roots (what a block header would carry).
    pub root: Digest,
}

/// M shard chains executing one ordered chain of blocks.
pub struct ShardGroup {
    router: ShardRouter,
    chains: Vec<OeChain>,
    /// Seals every sub-block and decodes every logged one: fragments plus
    /// the workload's contracts (see [`Self::setup_with`]).
    codec: Arc<dyn ContractCodec>,
    latency: LatencyModel,
    metrics: PlannerMetrics,
}

impl ShardGroup {
    /// Host `chains`, one per shard of `router`, in shard order. The
    /// caller opens them (each with `EngineSpec::sharded`, on whatever
    /// chain configuration it runs); their engine's worker count also
    /// sizes the multi-partition simulation and cold root builds.
    ///
    /// # Panics
    /// Panics unless there is exactly one chain per shard of `router`.
    #[must_use]
    pub fn new(router: ShardRouter, chains: Vec<OeChain>, latency: LatencyModel) -> ShardGroup {
        assert_eq!(router.shards(), chains.len(), "one chain per shard");
        ShardGroup {
            router,
            chains,
            codec: Arc::new(FragmentCodec),
            latency,
            metrics: PlannerMetrics::register(&Registry::new(), &[]),
        }
    }

    /// Report planner decisions into the given metric handles (the
    /// default handles count in a scratch registry).
    pub fn set_metrics(&mut self, metrics: PlannerMetrics) {
        self.metrics = metrics;
    }

    /// The router.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.chains.len()
    }

    /// One shard's chain.
    #[must_use]
    pub fn chain(&self, shard: usize) -> &OeChain {
        &self.chains[shard]
    }

    /// Every shard chain, in shard order.
    #[must_use]
    pub fn chains(&self) -> &[OeChain] {
        &self.chains
    }

    /// The codec sub-blocks are sealed and replayed with.
    #[must_use]
    pub fn codec(&self) -> &Arc<dyn ContractCodec> {
        &self.codec
    }

    /// The height every shard chain stands at: blocks executed.
    ///
    /// # Errors
    /// `Corruption` when the shards disagree (mid-recovery, before
    /// state-sync has evened them out).
    pub fn height(&self) -> Result<BlockId> {
        let height = self.chains[0].height();
        for (s, chain) in self.chains.iter().enumerate() {
            if chain.height() != height {
                return Err(Error::Corruption(format!(
                    "shard {s} at {} (shard 0 at {height})",
                    chain.height()
                )));
            }
        }
        Ok(height)
    }

    /// Load the initial database: run `load` on every shard's engine (table
    /// ids come out identical because creation order is identical), then
    /// prune each shard down to the rows it owns. After this, every shard
    /// holds exactly its partition of the database.
    ///
    /// Tables named in `replicated` stay whole on every shard (read-only
    /// dimension tables — see [`ShardRouter::with_replicated`]); the names
    /// are resolved against the catalog the first `load` creates. `load`
    /// returns the workload's codec, which joins [`FragmentCodec`] as the
    /// group's [`Self::codec`].
    ///
    /// Typical call: `group.setup_with(&[], |e| { w.setup(e)?; Ok(w.codec()) })`.
    pub fn setup_with(
        &mut self,
        replicated: &[String],
        mut load: impl FnMut(&Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>>,
    ) -> Result<()> {
        assert_eq!(
            self.chains[0].height(),
            BlockId(0),
            "setup precedes execution"
        );
        let mut workload = None;
        for (s, chain) in self.chains.iter().enumerate() {
            workload = Some(load(chain.engine())?);
            if s == 0 && !replicated.is_empty() {
                let catalog = chain.engine().list_tables();
                let ids = replicated.iter().map(|name| {
                    let found = catalog.iter().find(|(n, _)| n == name);
                    found.map(|(_, id)| *id).ok_or_else(|| {
                        Error::InvalidArgument(format!(
                            "replicated table {name:?} is not in the workload's catalog"
                        ))
                    })
                });
                self.router = self
                    .router
                    .clone()
                    .with_replicated(ids.collect::<Result<_>>()?);
            }
            prune_to_owned(chain.engine(), &self.router, s)?;
        }
        self.codec = Arc::new(MultiCodec::new(vec![
            Arc::new(FragmentCodec),
            workload.expect("at least one shard"),
        ]));
        Ok(())
    }

    /// Execute the next block of the global order: plan it through the
    /// cross-shard planner ([`crate::plan::plan_block`]), seal and apply
    /// each shard's sub-block on that shard's chain, and fold the outcomes
    /// back into global order.
    pub fn execute_block(&mut self, txns: &[Arc<dyn Contract>]) -> Result<ShardBlockResult> {
        let snapshot = self.height()?;
        let stores: Vec<Arc<SnapshotStore>> = self
            .chains
            .iter()
            .map(|c| Arc::clone(c.snapshots()))
            .collect();
        let workers = self.chains[0].spec().workers;
        let mut plan = plan_block(
            &self.router,
            &stores,
            snapshot,
            txns,
            workers,
            &self.latency,
        );
        self.metrics.observe(&plan);
        let mut shard_results = Vec::with_capacity(self.chains.len());
        for (s, chain) in self.chains.iter_mut().enumerate() {
            // One codec encode per contract into the shard's logical log;
            // the already-decoded contracts execute as they are.
            let sub = std::mem::take(&mut plan.shard_txns[s]);
            shard_results.push(chain.submit_block(sub, self.codec.as_ref())?.1);
        }
        let outcomes = plan.fold_outcomes(&shard_results)?;
        Ok(ShardBlockResult {
            stats: plan.accumulate_stats(&outcomes, &shard_results),
            cross_txns: plan.cross_idx.len(),
            cross_committed: plan.cross_committed(),
            outcomes,
            shard_results,
            slots: plan.slots,
            cross_sim_ns: plan.cross_sim_ns,
            exchange_ns: plan.exchange_ns,
        })
    }

    /// Move the group onto a new layout: `chains`, one per shard of
    /// `router`, replace the hosted ones — a reshard handover, or fresh
    /// chains ahead of a full re-sync. The codec stays.
    ///
    /// # Panics
    /// Panics unless there is exactly one chain per shard of `router`.
    pub fn rehost(&mut self, router: ShardRouter, chains: Vec<OeChain>) {
        assert_eq!(router.shards(), chains.len(), "one chain per shard");
        self.router = router;
        self.chains = chains;
    }

    /// Crash every shard chain and recover it: reload its last checkpoint
    /// and replay its own sub-block log. Fragments replay from their
    /// logged bytes, so no shard waits on another.
    pub fn recover(&mut self) -> Result<()> {
        for chain in &mut self.chains {
            chain.crash_and_recover(self.codec.as_ref())?;
        }
        Ok(())
    }

    /// Bring one shard's chain to its part of a sync reply — a manifest,
    /// if any, then a verified sub-block tail — through
    /// [`OeChain::catch_up`] with the group's codec. Returns the height
    /// the shard gained.
    pub fn catch_up(
        &mut self,
        shard: usize,
        manifest: Option<&StateSnapshot>,
        tail: &[ChainBlock],
    ) -> Result<u64> {
        self.chains[shard].catch_up(manifest, tail, self.codec.as_ref())
    }

    /// Per-shard state roots and their Merkle fold. The fold commits to
    /// the physical layout (leaf = shard), so it is what a sharded block
    /// header carries but is *not* comparable across shard counts — use
    /// [`Self::logical_state_root`] for that.
    /// O(M) over cached per-shard commitment roots on a warm group; when
    /// any shard still needs its one-time commitment build (first call, or
    /// after recovery), the builds run in parallel across shards.
    pub fn state_roots(&self) -> Result<ShardedRoot> {
        let chains = &self.chains;
        let shard_roots: Vec<Digest> = if chains.iter().all(OeChain::root_is_cached) {
            chains
                .iter()
                .map(OeChain::state_root)
                .collect::<Result<_>>()?
        } else {
            let workers = chains[0].spec().workers.max(1);
            run_indexed(chains.len(), workers, |s| chains[s].state_root())
                .into_iter()
                .collect::<Result<_>>()?
        };
        let root = sharded_state_root(&shard_roots);
        Ok(ShardedRoot { shard_roots, root })
    }

    /// Hash of the *logical* database — see [`logical_state_root`].
    pub fn logical_state_root(&self) -> Result<Digest> {
        logical_state_root(self.chains.iter().map(OeChain::engine))
    }
}

/// Delete every row `shard` does not own under `router` — the second
/// phase of [`ShardGroup::setup_with`] (after loading the full database
/// on every shard's engine).
///
/// Tables the router marks replicated keep their full contents on every
/// shard (read-only dimension tables — see
/// [`ShardRouter::with_replicated`]).
pub fn prune_to_owned(engine: &StorageEngine, router: &ShardRouter, shard: usize) -> Result<()> {
    for (_, table) in engine.list_tables() {
        if router.is_replicated(table) {
            continue;
        }
        let mut foreign: Vec<Vec<u8>> = Vec::new();
        engine.scan(table, b"", None, |k, _| {
            if router.shard_of_key(&Key::new(table, k.to_vec())) != shard {
                foreign.push(k.to_vec());
            }
            true
        })?;
        for row in foreign {
            engine.delete(table, &row)?;
        }
    }
    Ok(())
}

/// Hash of the *logical* database hosted by a set of shard engines — the
/// union of the disjoint shard partitions, merged per table in key order,
/// digested exactly like `harmony_chain::state_root`. Independent of how
/// many shards host the data: a 1-shard deployment and an N-shard one fed
/// the same blocks produce the same logical root (the equivalence property
/// tests pin this, for both the single-process group and the replicated
/// sharded node runtime).
pub fn logical_state_root<'a>(
    engines: impl IntoIterator<Item = &'a Arc<StorageEngine>>,
) -> Result<Digest> {
    Ok(fold_table_roots(&logical_table_heads(engines)?))
}

/// Rows of one shard's table folded into the merged map per sorted run.
const MERGE_RUN: usize = 4096;

/// Per-table digests of the logical database hosted by a set of shard
/// engines — the table-granular decomposition of [`logical_state_root`].
/// Shard-count-invariant for the same reason the folded root is; the
/// elastic-resharding equivalence tests compare these head lists so a
/// divergence names the table that drifted instead of one opaque root.
pub fn logical_table_heads<'a>(
    engines: impl IntoIterator<Item = &'a Arc<StorageEngine>>,
) -> Result<Vec<(String, Digest)>> {
    let engines: Vec<&Arc<StorageEngine>> = engines.into_iter().collect();
    assert!(!engines.is_empty(), "need at least one shard engine");
    let mut heads: Vec<(String, Digest)> = Vec::new();
    for (name, id) in engines[0].list_tables() {
        // The authenticated map is history independent, so upserting the
        // disjoint shard partitions in any order commits to exactly the
        // merged table — the same digest `harmony_chain::state_root` gives
        // a 1-shard deployment of the same logical database. Each shard's
        // scan is in key order, so it goes in as sorted runs of at most
        // `MERGE_RUN` rows: one descent per run, and no more than a run's
        // rows copied at a time.
        let mut merged = AuthMap::new();
        let mut run: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(MERGE_RUN);
        let fold = |merged: &mut AuthMap, run: &mut Vec<(Vec<u8>, Vec<u8>)>| {
            merged.apply_sorted(run.iter().map(|(k, v)| (k.as_slice(), Some(v.as_slice()))));
            run.clear();
        };
        for engine in &engines {
            engine.scan(id, b"", None, |k, v| {
                run.push((k.to_vec(), v.to_vec()));
                if run.len() == MERGE_RUN {
                    fold(&mut merged, &mut run);
                }
                true
            })?;
            fold(&mut merged, &mut run);
        }
        heads.push((name, merged.root()));
    }
    Ok(heads)
}

/// The deterministic cross-shard commit decision (a pure function).
///
/// Processes multi-partition transactions in global order; a transaction
/// survives iff it has **no conflict of any kind** (ww, wr, rw, including
/// range predicates) with an earlier survivor. Survivors are therefore
/// pairwise conflict-free — the property that lets every shard's engine
/// commit their fragments unconditionally, and every shard derive the same
/// decision vector with no voting round.
#[must_use]
pub fn decide_cross(rwsets: &[Option<RwSet>]) -> Vec<TxnOutcome> {
    let mut reserved_writes: HashSet<Key> = HashSet::new();
    let mut reserved_reads: HashSet<Key> = HashSet::new();
    let mut reserved_preds: Vec<RangePredicate> = Vec::new();
    let mut outcomes = Vec::with_capacity(rwsets.len());
    for rwset in rwsets {
        let Some(rwset) = rwset else {
            outcomes.push(TxnOutcome::Aborted(AbortReason::UserAbort));
            continue;
        };
        let write_conflict = rwset.write_keys().any(|k| {
            reserved_writes.contains(k)
                || reserved_reads.contains(k)
                || reserved_preds.iter().any(|p| p.covers(k))
        });
        let read_conflict = rwset.read_keys().any(|k| reserved_writes.contains(k))
            || rwset
                .scans
                .iter()
                .any(|p| reserved_writes.iter().any(|k| p.covers(k)));
        if write_conflict || read_conflict {
            outcomes.push(TxnOutcome::Aborted(AbortReason::CrossShardConflict));
            continue;
        }
        for k in rwset.write_keys() {
            reserved_writes.insert(k.clone());
        }
        for k in rwset.read_keys() {
            reserved_reads.insert(k.clone());
        }
        reserved_preds.extend(rwset.scans.iter().cloned());
        outcomes.push(TxnOutcome::Committed);
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioning;
    use harmony_chain::{state_root, ChainConfig};
    use harmony_common::ids::TableId;
    use harmony_core::HarmonyConfig;
    use harmony_dcc_baselines::{EngineKind, EngineSpec};
    use harmony_txn::{FnContract, TxnCtx, UpdateCommand, UserAbort};

    const TABLE: TableId = TableId(0);

    fn key(id: u64) -> Key {
        Key::from_u64(TABLE, id)
    }

    /// Group of `shards` shards over 8 logical partitions, Harmony engines
    /// (inter-block parallelism off — the sharded profile) on 2 workers,
    /// `replicated` tables whole on every shard, each engine filled by
    /// `load`.
    fn open_group(
        shards: usize,
        replicated: &[&str],
        mut load: impl FnMut(&StorageEngine) -> Result<()>,
    ) -> ShardGroup {
        let router = ShardRouter::new(Partitioning::Hash.build(8), shards);
        let spec = EngineSpec::sharded(EngineKind::Harmony(HarmonyConfig::default()), 2);
        let chains = (0..shards)
            .map(|_| OeChain::open(ChainConfig::in_memory(), spec).unwrap())
            .collect();
        let mut g = ShardGroup::new(router, chains, LatencyModel::lan_1g());
        let replicated: Vec<String> = replicated.iter().map(|n| n.to_string()).collect();
        // FnContracts have no codec of their own; any codec seals them.
        g.setup_with(&replicated, |engine| {
            load(engine)?;
            Ok(Arc::new(FragmentCodec))
        })
        .unwrap();
        g
    }

    /// [`open_group`] over one table of `keys` records valued 100.
    fn group(shards: usize, keys: u64) -> ShardGroup {
        open_group(shards, &[], |engine| {
            let t = engine.create_table("t")?;
            assert_eq!(t, TABLE);
            for i in 0..keys {
                engine.put(t, &i.to_be_bytes(), &100i64.to_le_bytes())?;
            }
            Ok(())
        })
    }

    /// `add(w, delta)` for each write key after reading each read key, with
    /// a declared footprint.
    fn add_txn(reads: Vec<u64>, writes: Vec<u64>, delta: i64) -> Arc<dyn Contract> {
        let footprint: Vec<Key> = reads.iter().chain(&writes).map(|&i| key(i)).collect();
        Arc::new(
            FnContract::new("add", move |ctx: &mut TxnCtx<'_>| {
                for &r in &reads {
                    ctx.read(&key(r)).map_err(|e| UserAbort(e.to_string()))?;
                }
                for &w in &writes {
                    ctx.add_i64(key(w), 0, delta);
                }
                Ok(())
            })
            .with_footprint(footprint),
        )
    }

    fn read_i64(g: &ShardGroup, id: u64) -> i64 {
        let k = key(id);
        let shard = g.router().shard_of_key(&k);
        let v = g
            .chain(shard)
            .engine()
            .get(TABLE, k.row())
            .unwrap()
            .unwrap();
        i64::from_le_bytes(v.as_slice().try_into().unwrap())
    }

    /// Two ids guaranteed to live in different partitions.
    fn cross_pair(g: &ShardGroup) -> (u64, u64) {
        let a = 0u64;
        let b = (1..200u64)
            .find(|&i| g.router().partition_of(&key(i)) != g.router().partition_of(&key(a)))
            .expect("hash spreads");
        (a, b)
    }

    const DIM: TableId = TableId(1);

    /// Group replicating dimension table [`DIM`] ("prices"): the fact
    /// table `t` is partitioned as usual, the dimension is hosted in full
    /// everywhere.
    fn group_with_dim(shards: usize, keys: u64, dim_rows: u64) -> ShardGroup {
        open_group(shards, &["prices"], |engine| {
            let t = engine.create_table("t")?;
            assert_eq!(t, TABLE);
            let dim = engine.create_table("prices")?;
            assert_eq!(dim, DIM);
            for i in 0..keys {
                engine.put(t, &i.to_be_bytes(), &100i64.to_le_bytes())?;
            }
            for i in 0..dim_rows {
                engine.put(dim, &i.to_be_bytes(), &(7i64 * i as i64).to_le_bytes())?;
            }
            Ok(())
        })
    }

    /// Read a dimension row, then add its value to a fact row — declares
    /// both keys, so routing sees one real partition plus a replicated
    /// read.
    fn dim_lookup_txn(dim_id: u64, write: u64) -> Arc<dyn Contract> {
        Arc::new(
            FnContract::new("dim-add", move |ctx: &mut TxnCtx<'_>| {
                let v = ctx
                    .read(&Key::from_u64(DIM, dim_id))
                    .map_err(|e| UserAbort(e.to_string()))?
                    .ok_or_else(|| UserAbort("missing dim row".into()))?;
                let delta = i64::from_le_bytes(v.as_ref().try_into().expect("8 bytes"));
                ctx.add_i64(key(write), 0, delta);
                Ok(())
            })
            .with_footprint(vec![Key::from_u64(DIM, dim_id), key(write)]),
        )
    }

    #[test]
    fn replicated_dimension_table_stays_whole_on_every_shard() {
        let g = group_with_dim(4, 64, 16);
        let mut fact_total = 0;
        for s in 0..4 {
            assert_eq!(
                g.chain(s).engine().table_len(DIM).unwrap(),
                16,
                "shard {s} must host the full dimension table"
            );
            fact_total += g.chain(s).engine().table_len(TABLE).unwrap();
        }
        assert_eq!(fact_total, 64, "fact table still partitioned exactly once");
    }

    #[test]
    fn replicated_reads_keep_txns_single_shard_and_logical_root_invariant() {
        let block =
            || -> Vec<Arc<dyn Contract>> { (0..16).map(|i| dim_lookup_txn(i % 16, i)).collect() };
        let mut one = group_with_dim(1, 64, 16);
        let mut four = group_with_dim(4, 64, 16);
        let r1 = one.execute_block(&block()).unwrap();
        let r4 = four.execute_block(&block()).unwrap();
        // Dimension reads are placement-invisible: no txn goes cross.
        assert_eq!(
            r4.cross_txns, 0,
            "replicated reads must not force cross-shard"
        );
        assert_eq!(r1.stats.committed, r4.stats.committed);
        assert_eq!(
            one.logical_state_root().unwrap(),
            four.logical_state_root().unwrap(),
            "replicated tables must not break shard-count invariance"
        );
    }

    #[test]
    fn setup_prunes_to_owned_rows() {
        let g = group(4, 64);
        let mut total = 0;
        for s in 0..4 {
            let len = g.chain(s).engine().table_len(TABLE).unwrap();
            assert!(len > 0, "shard {s} owns nothing");
            g.chain(s)
                .engine()
                .scan(TABLE, b"", None, |k, _| {
                    assert_eq!(g.router().shard_of_key(&Key::new(TABLE, k.to_vec())), s);
                    true
                })
                .unwrap();
            total += len;
        }
        assert_eq!(total, 64, "partitions cover the keyspace exactly once");
    }

    #[test]
    fn local_txns_run_on_their_shards() {
        let mut g = group(4, 64);
        let txns: Vec<Arc<dyn Contract>> = (0..8).map(|i| add_txn(vec![], vec![i], 1)).collect();
        let res = g.execute_block(&txns).unwrap();
        assert_eq!(res.cross_txns, 0);
        assert_eq!(res.stats.committed, 8);
        assert_eq!(res.exchange_ns, 0, "no cross txns, no exchange");
        for i in 0..8 {
            assert_eq!(read_i64(&g, i), 101);
        }
    }

    #[test]
    fn cross_shard_transfer_is_atomic() {
        let mut g = group(4, 64);
        let (a, b) = cross_pair(&g);
        // Transfer 30 from a to b: debits one shard, credits another.
        let transfer: Arc<dyn Contract> = Arc::new(
            FnContract::new("transfer", move |ctx: &mut TxnCtx<'_>| {
                ctx.add_i64(key(a), 0, -30);
                ctx.add_i64(key(b), 0, 30);
                Ok(())
            })
            .with_footprint(vec![key(a), key(b)]),
        );
        let res = g.execute_block(&[transfer]).unwrap();
        assert_eq!(res.cross_txns, 1);
        assert_eq!(res.cross_committed, 1);
        assert_eq!(res.outcomes[0], TxnOutcome::Committed);
        assert!(res.exchange_ns > 0, "fragment exchange must be costed");
        assert_eq!(read_i64(&g, a), 70);
        assert_eq!(read_i64(&g, b), 130);
        let frags = res.fragment_outcomes(0);
        assert_eq!(frags.len(), 2, "two shards participate");
        assert!(frags.iter().all(|(_, o)| o.is_committed()));
    }

    #[test]
    fn conflicting_cross_txns_lose_reservation_deterministically() {
        let mut g = group(4, 64);
        let (a, b) = cross_pair(&g);
        let t = |delta: i64| add_txn(vec![], vec![a, b], delta);
        let res = g.execute_block(&[t(1), t(2), t(4)]).unwrap();
        assert_eq!(res.outcomes[0], TxnOutcome::Committed);
        assert_eq!(
            res.outcomes[1],
            TxnOutcome::Aborted(AbortReason::CrossShardConflict)
        );
        assert_eq!(
            res.outcomes[2],
            TxnOutcome::Aborted(AbortReason::CrossShardConflict)
        );
        assert_eq!(read_i64(&g, a), 101, "only the first writer applied");
        assert_eq!(res.stats.aborted_cross_shard, 2);
    }

    #[test]
    fn cross_reads_see_previous_block_snapshot() {
        let mut g = group(2, 64);
        let (a, b) = cross_pair(&g);
        // Block 1: bump a.
        g.execute_block(&[add_txn(vec![], vec![a], 5)]).unwrap();
        // Block 2: a cross txn that copies a's value delta onto b must read
        // the state *after* block 1.
        let copier: Arc<dyn Contract> = Arc::new(
            FnContract::new("copier", move |ctx: &mut TxnCtx<'_>| {
                let v = ctx
                    .read(&key(a))
                    .map_err(|e| UserAbort(e.to_string()))?
                    .expect("present");
                let cur = i64::from_le_bytes(v.as_ref().try_into().expect("i64 row"));
                ctx.update(
                    key(b),
                    UpdateCommand::Put(bytes::Bytes::from(cur.to_le_bytes().to_vec())),
                );
                Ok(())
            })
            .with_footprint(vec![key(a), key(b)]),
        );
        let res = g.execute_block(&[copier]).unwrap();
        assert_eq!(res.outcomes[0], TxnOutcome::Committed);
        assert_eq!(read_i64(&g, b), 105);
    }

    #[test]
    fn undeclared_contract_routes_through_cross_path() {
        let mut g = group(4, 64);
        let opaque: Arc<dyn Contract> =
            Arc::new(FnContract::new("opaque", move |ctx: &mut TxnCtx<'_>| {
                ctx.add_i64(key(3), 0, 7);
                Ok(())
            }));
        let res = g.execute_block(&[opaque]).unwrap();
        assert_eq!(res.cross_txns, 1);
        assert_eq!(res.outcomes[0], TxnOutcome::Committed);
        assert_eq!(read_i64(&g, 3), 107);
    }

    #[test]
    fn logical_root_matches_chain_state_root_on_one_shard() {
        let mut g = group(1, 64);
        g.execute_block(&[add_txn(vec![], vec![0], 1)]).unwrap();
        assert_eq!(
            g.logical_state_root().unwrap(),
            state_root(g.chain(0).engine()).unwrap()
        );
    }

    #[test]
    fn state_roots_fold_and_diverge() {
        let mut g = group(4, 64);
        let before = g.state_roots().unwrap();
        assert_eq!(before.shard_roots.len(), 4);
        g.execute_block(&[add_txn(vec![], vec![0], 1)]).unwrap();
        let after = g.state_roots().unwrap();
        assert_ne!(before.root, after.root);
        // Only key 0's owner shard changed.
        let owner = g.router().shard_of_key(&key(0));
        for s in 0..4 {
            if s == owner {
                assert_ne!(before.shard_roots[s], after.shard_roots[s]);
            } else {
                assert_eq!(before.shard_roots[s], after.shard_roots[s]);
            }
        }
    }

    #[test]
    fn decide_cross_rules() {
        let rw = |reads: &[u64], writes: &[u64]| {
            let mut rw = RwSet::default();
            for &r in reads {
                rw.record_read(key(r), None);
            }
            for &w in writes {
                rw.record_update(key(w), UpdateCommand::Delete);
            }
            Some(rw)
        };
        // ww, rw (earlier reads / later writes), wr all lose; read-read ok.
        let outcomes = decide_cross(&[
            rw(&[0], &[1]), // survivor
            rw(&[], &[1]),  // ww vs #0's write -> abort
            rw(&[1], &[2]), // reads #0's write -> abort
            rw(&[], &[0]),  // writes #0's read -> abort
            rw(&[0], &[3]), // shares only the read of 0 -> survivor
            None,           // user abort
            rw(&[], &[2]),  // #2 aborted, its reservation never happened -> survivor
        ]);
        use TxnOutcome::{Aborted, Committed};
        assert_eq!(
            outcomes,
            vec![
                Committed,
                Aborted(AbortReason::CrossShardConflict),
                Aborted(AbortReason::CrossShardConflict),
                Aborted(AbortReason::CrossShardConflict),
                Committed,
                Aborted(AbortReason::UserAbort),
                Committed,
            ]
        );
    }

    #[test]
    fn decide_cross_respects_scan_predicates() {
        let mut scanner = RwSet::default();
        scanner.record_scan(RangePredicate {
            table: TABLE,
            start: bytes::Bytes::from(0u64.to_be_bytes().to_vec()),
            end: None,
        });
        scanner.record_update(key(1000), UpdateCommand::Delete);
        let mut writer = RwSet::default();
        writer.record_update(key(5), UpdateCommand::Delete);
        let outcomes = decide_cross(&[Some(scanner), Some(writer)]);
        assert_eq!(outcomes[0], TxnOutcome::Committed);
        assert_eq!(
            outcomes[1],
            TxnOutcome::Aborted(AbortReason::CrossShardConflict),
            "write into a reserved predicate range must lose"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut g = group(4, 64);
            let (a, b) = cross_pair(&g);
            let mut outcomes = Vec::new();
            for blk in 0..5 {
                let txns: Vec<Arc<dyn Contract>> = (0..6)
                    .map(|i| {
                        if i % 3 == 0 {
                            add_txn(vec![a], vec![b], blk + 1)
                        } else {
                            add_txn(vec![], vec![i * 7 % 64], 1)
                        }
                    })
                    .collect();
                outcomes.push(g.execute_block(&txns).unwrap().outcomes);
            }
            (outcomes, g.state_roots().unwrap())
        };
        assert_eq!(run(), run());
    }
}
