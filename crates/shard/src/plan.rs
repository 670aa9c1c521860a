//! The cross-shard planning stage of [`crate::ShardGroup`], the one
//! executor of a sharded block (every host — the experiment driver, the
//! replicated sharded node in `harmony-node` — runs blocks through a
//! group, never through this module directly). Planning is the
//! deterministic protocol itself:
//!
//! 1. classify each transaction (single- vs multi-partition),
//! 2. simulate multi-partition transactions once against a snapshot view
//!    assembled from the owner shards' stores,
//! 3. decide the mutually conflict-free survivor set
//!    ([`crate::decide_cross`], a pure function of the global order),
//! 4. split each survivor into per-partition [`FragmentContract`]s,
//!    sub-ordered ahead of every shard's local transactions.
//!
//! The output [`BlockPlan`] carries one sub-block per shard plus the slot
//! map needed to fold per-shard engine outcomes back into global order.
//!
//! Fragments are **fully serializable** (owned reads *and* the captured
//! update commands), so a sealed sub-block's logical log replays
//! bit-identically through [`FragmentCodec`] — the property that lets a
//! sharded replica crash-recover or state-sync each shard independently,
//! without re-running the cross-shard simulation against peer shards that
//! may themselves be recovering.

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_common::codec::{Reader, Writer};
use harmony_common::ids::TableId;
use harmony_common::{BlockId, Error, Result};
use harmony_consensus::net::LatencyModel;
use harmony_core::executor::TxnOutcome;
use harmony_core::par::run_indexed;
use harmony_core::{BlockStats, SnapshotStore};
use harmony_dcc_baselines::ProtocolBlockResult;
use harmony_txn::{
    simulate, split_encoded, CommandSeq, Contract, ContractCodec, Key, RwSet, SnapshotView, TxnCtx,
    UserAbort, Value,
};

use crate::group::decide_cross;
use crate::router::{Placement, ShardRouter};

/// What a sub-block slot maps back to in the global block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Fragment of the multi-partition transaction at this global index,
    /// for the given logical partition.
    Fragment {
        /// Global index in the submitted block.
        global: usize,
        /// Logical partition the fragment covers.
        partition: u32,
    },
    /// The single-partition transaction at this global index.
    Local {
        /// Global index in the submitted block.
        global: usize,
    },
}

/// The planned execution of one ordered block across M shards.
pub struct BlockPlan {
    /// Per-shard sub-blocks: surviving fragments first (global, partition
    /// sub-order), then the shard's single-partition transactions in
    /// global order. Hosts take these out to execute.
    pub shard_txns: Vec<Vec<Arc<dyn Contract>>>,
    /// Per-shard mapping from sub-block position to global transaction.
    pub slots: Vec<Vec<Slot>>,
    /// Global indices of the multi-partition transactions.
    pub cross_idx: Vec<usize>,
    /// Reservation decision per multi-partition transaction (parallel to
    /// `cross_idx`).
    pub decisions: Vec<TxnOutcome>,
    /// Per-multi-partition-transaction simulation cost.
    pub cross_sim_ns: Vec<u64>,
    /// Modeled one-round read-fragment exchange latency.
    pub exchange_ns: u64,
    /// Number of transactions in the planned block.
    pub txns: usize,
}

/// Plan one ordered block: classify, simulate the multi-partition subset
/// against the shards' state after block `snapshot`, reserve survivors,
/// and build per-shard sub-blocks. Pure with respect to the stores (reads
/// only), so every replica planning the same block over the same state
/// derives the identical plan.
pub fn plan_block(
    router: &ShardRouter,
    stores: &[Arc<SnapshotStore>],
    snapshot: BlockId,
    txns: &[Arc<dyn Contract>],
    workers: usize,
    latency: &LatencyModel,
) -> BlockPlan {
    let shards = stores.len();
    let n = txns.len();
    // A live reshard swaps the router and rebuilds the per-shard stores
    // together at the epoch boundary; a host mixing the new router with a
    // stale store set would route sub-blocks into the wrong layout (or
    // straight out of bounds). Fail loudly at the seam instead.
    assert_eq!(
        router.shards(),
        shards,
        "router layout must match the store set — topology handover swaps them atomically"
    );

    // ── 1. Route ───────────────────────────────────────────────────────
    let placements: Vec<Placement> = txns.iter().map(|t| router.classify(t.as_ref())).collect();
    let cross_idx: Vec<usize> = (0..n)
        .filter(|&i| placements[i] == Placement::MultiPartition)
        .collect();

    // ── 2. Simulate multi-partition transactions globally ──────────────
    // Models each shard re-executing the full transaction after the
    // read-fragment exchange: the assembled view reads every key from its
    // owner shard's snapshot after the previous block.
    let view = MultiStoreView {
        router,
        stores,
        snapshot,
    };
    let sims = run_indexed(cross_idx.len(), workers.max(1), |j| {
        simulate(txns[cross_idx[j]].as_ref(), &view)
    });
    let (cross_rwsets, cross_sim_ns): (Vec<Option<RwSet>>, Vec<u64>) = sims.into_iter().unzip();

    // ── 3. Decide: pure function of (global order, rwsets) ─────────────
    let decisions = decide_cross(&cross_rwsets);

    // ── 4. Exchange model (read fragments, one synchronous round) ──────
    let exchange_ns = exchange_ns(router, latency, shards, &cross_rwsets);

    // ── 5. Build per-shard sub-blocks ──────────────────────────────────
    let mut shard_txns: Vec<Vec<Arc<dyn Contract>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut slots: Vec<Vec<Slot>> = (0..shards).map(|_| Vec::new()).collect();
    // Fragments first, in (global order, partition) sub-order.
    for (j, &g) in cross_idx.iter().enumerate() {
        if decisions[j] != TxnOutcome::Committed {
            continue;
        }
        let rwset = cross_rwsets[j].as_ref().expect("committed implies rwset");
        for (partition, fragment) in split_fragments(router, rwset, g) {
            let shard = router.shard_of_partition(partition);
            shard_txns[shard].push(Arc::new(fragment));
            slots[shard].push(Slot::Fragment {
                global: g,
                partition,
            });
        }
    }
    // Then single-partition transactions, in global order.
    for (i, placement) in placements.iter().enumerate() {
        if let Placement::Single { shard, .. } = placement {
            shard_txns[*shard].push(Arc::clone(&txns[i]));
            slots[*shard].push(Slot::Local { global: i });
        }
    }
    BlockPlan {
        shard_txns,
        slots,
        cross_idx,
        decisions,
        cross_sim_ns,
        exchange_ns,
        txns: n,
    }
}

impl BlockPlan {
    /// Fold the per-shard engine results back into global order, checking
    /// the protocol's core invariant: no engine may abort a reservation
    /// survivor's fragment.
    pub fn fold_outcomes(&self, shard_results: &[ProtocolBlockResult]) -> Result<Vec<TxnOutcome>> {
        let mut outcomes: Vec<TxnOutcome> = vec![TxnOutcome::Committed; self.txns];
        for (j, &g) in self.cross_idx.iter().enumerate() {
            outcomes[g] = self.decisions[j];
        }
        for (shard, shard_slots) in self.slots.iter().enumerate() {
            for (pos, slot) in shard_slots.iter().enumerate() {
                match slot {
                    Slot::Local { global } => {
                        outcomes[*global] = shard_results[shard].outcomes[pos];
                    }
                    Slot::Fragment { global, partition } => {
                        let o = shard_results[shard].outcomes[pos];
                        if o != TxnOutcome::Committed {
                            return Err(Error::Corruption(format!(
                                "shard {shard} aborted fragment of txn {global} \
                                 (partition {partition}): {o:?} — engines must \
                                 never abort reservation survivors"
                            )));
                        }
                    }
                }
            }
        }
        Ok(outcomes)
    }

    /// Global counters for the planned block (fragments excluded; one
    /// entry per submitted transaction).
    #[must_use]
    pub fn accumulate_stats(
        &self,
        outcomes: &[TxnOutcome],
        shard_results: &[ProtocolBlockResult],
    ) -> BlockStats {
        let mut stats = BlockStats::tally(outcomes, &self.cross_sim_ns, &[]);
        for r in shard_results {
            stats.sim_ns_total += r.stats.sim_ns_total;
            stats.commit_ns_total += r.stats.commit_ns_total;
            stats.apply_noop_commands += r.stats.apply_noop_commands;
        }
        stats
    }

    /// Multi-partition transactions that won the reservation.
    #[must_use]
    pub fn cross_committed(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| **d == TxnOutcome::Committed)
            .count()
    }
}

/// One synchronous broadcast round: every shard ships its owned read
/// fragments of the block's multi-partition transactions to the other
/// shards; the round completes when the slowest sender finishes fanning
/// out. Fragment sizes are estimated from the read/write-set shapes.
fn exchange_ns(
    router: &ShardRouter,
    latency: &LatencyModel,
    shards: usize,
    cross_rwsets: &[Option<RwSet>],
) -> u64 {
    if shards <= 1 || cross_rwsets.iter().all(Option::is_none) {
        return 0;
    }
    let mut bytes_per_shard = vec![0u64; shards];
    for rwset in cross_rwsets.iter().flatten() {
        for r in &rwset.reads {
            // Key + observed value (row-sized) + version tag.
            bytes_per_shard[router.shard_of_key(&r.key)] += r.key.row().len() as u64 + 72;
        }
        for (key, seq) in &rwset.updates {
            // Keys + encoded commands travel with the write fragment.
            bytes_per_shard[router.shard_of_key(key)] +=
                key.row().len() as u64 + 24 * seq.len() as u64;
        }
    }
    (0..shards)
        .map(|s| {
            let fan_out = bytes_per_shard[s] * (shards as u64 - 1);
            latency.delay_ns(s, (s + 1) % shards, fan_out)
        })
        .max()
        .unwrap_or(0)
}

/// Split a surviving multi-partition transaction's read-write set into one
/// fragment per logical partition, ascending partition order.
fn split_fragments(
    router: &ShardRouter,
    rwset: &RwSet,
    global: usize,
) -> Vec<(u32, FragmentContract)> {
    let mut by_partition: BTreeMap<u32, FragmentContract> = BTreeMap::new();
    for r in &rwset.reads {
        by_partition
            .entry(router.partition_of(&r.key))
            .or_insert_with(|| FragmentContract::new(global))
            .reads
            .push(r.key.clone());
    }
    for (key, seq) in &rwset.updates {
        by_partition
            .entry(router.partition_of(key))
            .or_insert_with(|| FragmentContract::new(global))
            .updates
            .push((key.clone(), seq.clone()));
    }
    by_partition.into_iter().collect()
}

/// Contract name every cross-shard fragment carries.
pub const FRAGMENT_NAME: &str = "xshard-fragment";

/// A shard-local fragment of a multi-partition transaction: replays the
/// owned point reads (so local dependency tracking sees them) and re-issues
/// the owned update commands (which the engine evaluates against the same
/// snapshot the global simulation read — deterministic equality).
///
/// Scan predicates are *not* replayed: the cross-shard reservation already
/// serialized every surviving transaction against all predicate overlaps.
///
/// The payload encodes the complete fragment (global index, read keys, and
/// update command sequences), so a sealed sub-block commits to the
/// cross-shard writes in its Merkle root and a logged sub-block replays
/// them without re-deriving the plan.
pub struct FragmentContract {
    global: usize,
    reads: Vec<Key>,
    updates: Vec<(Key, CommandSeq)>,
}

impl FragmentContract {
    fn new(global: usize) -> FragmentContract {
        FragmentContract {
            global,
            reads: Vec::new(),
            updates: Vec::new(),
        }
    }

    /// Global index of the transaction this fragment belongs to.
    #[must_use]
    pub fn global(&self) -> usize {
        self.global
    }
}

impl Contract for FragmentContract {
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<(), UserAbort> {
        for key in &self.reads {
            ctx.read(key).map_err(|e| UserAbort(e.to_string()))?;
        }
        for (key, seq) in &self.updates {
            for cmd in seq.commands() {
                ctx.update(key.clone(), cmd.clone());
            }
        }
        Ok(())
    }

    fn name(&self) -> &str {
        FRAGMENT_NAME
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.put_u64(self.global as u64);
        w.put_u32(u32::try_from(self.reads.len()).expect("read count"));
        for key in &self.reads {
            key.encode_into(&mut w);
        }
        w.put_u32(u32::try_from(self.updates.len()).expect("update count"));
        for (key, seq) in &self.updates {
            key.encode_into(&mut w);
            seq.encode_into(&mut w);
        }
        w.finish()
    }
}

/// [`ContractCodec`] reconstructing [`FragmentContract`]s from sealed
/// sub-blocks — composed (via [`harmony_txn::MultiCodec`]) with a
/// workload's codec to form a sharded replica's full decoding registry.
pub struct FragmentCodec;

impl ContractCodec for FragmentCodec {
    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn Contract>> {
        let (name, payload) = split_encoded(bytes)?;
        if name != FRAGMENT_NAME {
            return Err(Error::Corruption(format!(
                "not a cross-shard fragment: {name}"
            )));
        }
        let mut r = Reader::new(payload);
        let global = r.get_u64()? as usize;
        // Counts come off the wire: grow by pushing (truncation errors on
        // the first short read) instead of pre-allocating a
        // corruption-controlled capacity.
        let n_reads = r.get_u32()? as usize;
        let mut reads = Vec::new();
        for _ in 0..n_reads {
            reads.push(Key::decode_from(&mut r)?);
        }
        let n_updates = r.get_u32()? as usize;
        let mut updates = Vec::new();
        for _ in 0..n_updates {
            let key = Key::decode_from(&mut r)?;
            let seq = CommandSeq::decode_from(&mut r)?;
            updates.push((key, seq));
        }
        Ok(Arc::new(FragmentContract {
            global,
            reads,
            updates,
        }))
    }
}

/// Snapshot view assembling the whole keyspace from the owner shards.
struct MultiStoreView<'a> {
    router: &'a ShardRouter,
    stores: &'a [Arc<SnapshotStore>],
    snapshot: BlockId,
}

impl SnapshotView for MultiStoreView<'_> {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        self.stores[self.router.shard_of_key(key)].read_at(self.snapshot, key)
    }

    fn scan(
        &self,
        table: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &Value) -> bool,
    ) -> Result<()> {
        // Shards hold disjoint row sets: merge their snapshot scans into
        // one ordered stream. The callback-based `scan_at` cannot be
        // suspended for a streaming k-way merge, so the whole range is
        // materialized before the caller's early-stop is honored — fine
        // for the conservative cross path (declared-footprint workloads
        // never scan), but a LIMIT-style scan over a huge table would pay
        // for the full range.
        let mut merged: BTreeMap<Vec<u8>, Value> = BTreeMap::new();
        for store in self.stores {
            store.scan_at(self.snapshot, table, start, end, &mut |k, v| {
                merged.insert(k.to_vec(), v.clone());
                true
            })?;
        }
        for (k, v) in &merged {
            if !f(k, v) {
                break;
            }
        }
        Ok(())
    }

    fn version_of(&self, key: &Key) -> Option<u64> {
        self.stores[self.router.shard_of_key(key)].version_at(self.snapshot, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_txn::UpdateCommand;

    #[test]
    fn fragment_payload_roundtrip() {
        let mut seq = CommandSeq::new();
        seq.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: -7,
        });
        seq.push(UpdateCommand::SetBytes {
            offset: 8,
            bytes: bytes::Bytes::from_static(b"zz"),
        });
        let frag = FragmentContract {
            global: 42,
            reads: vec![Key::from_u64(TableId(1), 9), Key::from_u64(TableId(2), 3)],
            updates: vec![(Key::from_u64(TableId(1), 9), seq.clone())],
        };
        let encoded = harmony_txn::encode_contract(&frag);
        let decoded = FragmentCodec.decode(&encoded).unwrap();
        assert_eq!(decoded.name(), FRAGMENT_NAME);
        assert_eq!(decoded.payload(), frag.payload());
        // Re-encoding the decoded fragment is byte-identical — sub-block
        // Merkle roots computed before and after a log replay agree.
        assert_eq!(harmony_txn::encode_contract(decoded.as_ref()), encoded);
    }

    #[test]
    fn fragment_codec_rejects_foreign_contracts() {
        let other = harmony_txn::FnContract::new("sb-deposit", |_: &mut TxnCtx<'_>| Ok(()));
        let encoded = harmony_txn::encode_contract(&other);
        assert!(FragmentCodec.decode(&encoded).is_err());
    }
}
