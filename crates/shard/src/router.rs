//! The shard router: placing transactions onto physical shards.
//!
//! The router composes a [`Partitioner`] (fixed logical partitions) with a
//! physical shard count. Logical partition `p` lives on shard
//! `p mod shards`, so re-deploying the same chain with a different shard
//! count never changes which *partition* a key belongs to — only where
//! that partition is hosted. Transaction classification (single- vs
//! multi-partition) therefore depends only on the partitioner, which keeps
//! every commit/abort decision shard-count-invariant.

use harmony_common::ids::TableId;
use harmony_txn::{Contract, Key};

use crate::partition::Partitioner;

/// Where a transaction executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// All declared keys fall into one logical partition: the transaction
    /// runs entirely inside that partition's shard, through its engine.
    Single {
        /// Hosting shard.
        shard: usize,
        /// The single logical partition touched.
        partition: u32,
    },
    /// The declared keys span several partitions — or the contract declared
    /// nothing (data-dependent accesses, scans) and must be routed
    /// conservatively. Runs through the deterministic cross-shard protocol.
    MultiPartition,
}

/// Maps logical partitions onto physical shards and classifies
/// transactions.
#[derive(Clone)]
pub struct ShardRouter {
    partitioner: Partitioner,
    shards: usize,
    /// Tables whose rows every shard keeps in full (read-only dimension
    /// tables, e.g. TPC-C `item`). Their keys are invisible to
    /// classification and exempt from genesis pruning.
    replicated: Vec<TableId>,
}

impl ShardRouter {
    /// Build a router hosting `partitioner`'s partitions on `shards`
    /// physical shards.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(partitioner: Partitioner, shards: usize) -> ShardRouter {
        assert!(shards > 0, "need at least one shard");
        ShardRouter {
            partitioner,
            shards,
            replicated: Vec::new(),
        }
    }

    /// Mark `tables` as **replicated**: every shard hosts their full
    /// contents (genesis pruning skips them), and their keys are ignored
    /// when classifying a transaction's declared footprint — a read of a
    /// replicated row is satisfiable on whichever shard the transaction
    /// runs.
    ///
    /// Replicated tables must be written only at genesis (`setup`): a
    /// post-genesis write would update one shard's copy and silently
    /// diverge the others. TPC-C's `item` price list is the canonical
    /// case.
    #[must_use]
    pub fn with_replicated(mut self, mut tables: Vec<TableId>) -> ShardRouter {
        tables.sort_unstable();
        tables.dedup();
        self.replicated = tables;
        self
    }

    /// Whether `table` is hosted in full on every shard.
    #[must_use]
    pub fn is_replicated(&self, table: TableId) -> bool {
        self.replicated.binary_search(&table).is_ok()
    }

    /// Number of physical shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of logical partitions.
    #[must_use]
    pub fn partitions(&self) -> u32 {
        self.partitioner.partitions()
    }

    /// Logical partition of `key`.
    #[must_use]
    pub fn partition_of(&self, key: &Key) -> u32 {
        self.partitioner.partition_of(key)
    }

    /// Hosting shard of logical partition `partition`.
    #[must_use]
    pub fn shard_of_partition(&self, partition: u32) -> usize {
        partition as usize % self.shards
    }

    /// The same logical database re-hosted on `new_shards` physical
    /// shards: identical partitioner, identical replicated set, new
    /// partition→shard placement. This is the atomic router swap a
    /// topology-change (reshard) block performs at its epoch boundary —
    /// classification is untouched, so every commit/abort decision made
    /// under the old epoch is also the decision the new epoch would have
    /// made.
    ///
    /// # Panics
    /// Panics if `new_shards == 0`.
    #[must_use]
    pub fn resharded(&self, new_shards: usize) -> ShardRouter {
        assert!(new_shards > 0, "need at least one shard");
        ShardRouter {
            partitioner: self.partitioner,
            shards: new_shards,
            replicated: self.replicated.clone(),
        }
    }

    /// Hosting shard of `key`.
    #[must_use]
    pub fn shard_of_key(&self, key: &Key) -> usize {
        self.shard_of_partition(self.partition_of(key))
    }

    /// Classify a transaction from its declared footprint. Keys in
    /// replicated tables are skipped: every shard can serve them, so
    /// they never force a transaction cross-shard.
    #[must_use]
    pub fn classify(&self, txn: &dyn Contract) -> Placement {
        let Some(keys) = txn.declared_keys() else {
            return Placement::MultiPartition;
        };
        let mut single: Option<u32> = None;
        for key in keys {
            if self.is_replicated(key.table()) {
                continue;
            }
            let p = self.partition_of(key);
            match single {
                None => single = Some(p),
                Some(q) if q == p => {}
                Some(_) => return Placement::MultiPartition,
            }
        }
        // A declared-empty footprint is trivially single-partition.
        let partition = single.unwrap_or(0);
        Placement::Single {
            shard: self.shard_of_partition(partition),
            partition,
        }
    }
}

/// Magic prefix identifying a reshard marker payload inside an ordered
/// block. Chosen to collide with no contract codec: every workload codec
/// tags its payloads with a short discriminant, none of which starts with
/// this four-byte sequence.
const RESHARD_MAGIC: &[u8; 4] = b"HRSH";

/// Marker encoding version (for forward compatibility of the ordered
/// stream itself, independent of the transport wire version).
const RESHARD_VERSION: u8 = 1;

/// The payload of a **topology-change block**: the orderer seals a block
/// whose single transaction is this marker, and every sharded replica —
/// on delivering it at the same height — drains its in-flight sub-blocks,
/// re-partitions its state onto `new_shards` shards, swaps its
/// [`ShardRouter`] via [`ShardRouter::resharded`], and resumes. Because
/// the marker rides the ordered, hash-chained stream, the reshard point
/// is replicated exactly like any transaction: all replicas switch at the
/// same height or not at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReshardMarker {
    /// Physical shard count after the epoch boundary.
    pub new_shards: u32,
    /// Monotonic topology epoch (0 = genesis layout; each sealed marker
    /// increments it).
    pub epoch: u64,
}

impl ReshardMarker {
    /// Exact encoded length: magic + version + new_shards + epoch.
    pub const ENCODED_LEN: usize = 4 + 1 + 4 + 8;

    /// Serialize for sealing into an ordered block.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN);
        out.extend_from_slice(RESHARD_MAGIC);
        out.push(RESHARD_VERSION);
        out.extend_from_slice(&self.new_shards.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out
    }

    /// Parse a block payload as a reshard marker. Returns `None` for
    /// anything that is not a well-formed marker (ordinary transaction
    /// payloads, short frames, unknown marker versions), so this doubles
    /// as the detection predicate replicas run before contract decoding.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<ReshardMarker> {
        if bytes.len() != Self::ENCODED_LEN || &bytes[..4] != RESHARD_MAGIC {
            return None;
        }
        if bytes[4] != RESHARD_VERSION {
            return None;
        }
        let new_shards = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes"));
        let epoch = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
        Some(ReshardMarker { new_shards, epoch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioning;
    use harmony_common::ids::TableId;
    use harmony_txn::{FnContract, TxnCtx};

    fn router(partitions: u32, shards: usize) -> ShardRouter {
        ShardRouter::new(Partitioning::Hash.build(partitions), shards)
    }

    fn txn_with_keys(
        keys: Vec<Key>,
    ) -> FnContract<impl Fn(&mut TxnCtx<'_>) -> Result<(), harmony_txn::UserAbort> + Send + Sync>
    {
        FnContract::new("t", |_: &mut TxnCtx<'_>| Ok(())).with_footprint(keys)
    }

    #[test]
    fn partition_to_shard_is_modular() {
        let r = router(8, 3);
        for p in 0..8 {
            assert_eq!(r.shard_of_partition(p), p as usize % 3);
        }
    }

    #[test]
    fn single_partition_footprint_routes_single() {
        let r = router(8, 4);
        let k = Key::from_u64(TableId(0), 42);
        let p = r.partition_of(&k);
        // Same row in two tables: still one partition (table-blind hash).
        let txn = txn_with_keys(vec![k.clone(), Key::from_u64(TableId(1), 42)]);
        assert_eq!(
            r.classify(&txn),
            Placement::Single {
                shard: r.shard_of_partition(p),
                partition: p
            }
        );
    }

    #[test]
    fn spanning_footprint_routes_multi() {
        let r = router(8, 4);
        // Find two u64 keys in different partitions.
        let a = Key::from_u64(TableId(0), 0);
        let b = (1..100u64)
            .map(|i| Key::from_u64(TableId(0), i))
            .find(|k| r.partition_of(k) != r.partition_of(&a))
            .expect("hash spreads");
        let txn = txn_with_keys(vec![a, b]);
        assert_eq!(r.classify(&txn), Placement::MultiPartition);
    }

    #[test]
    fn undeclared_footprint_is_conservative() {
        let r = router(4, 2);
        let txn = FnContract::new("opaque", |_: &mut TxnCtx<'_>| Ok(()));
        assert_eq!(r.classify(&txn), Placement::MultiPartition);
    }

    #[test]
    fn replicated_table_keys_never_force_cross_shard() {
        let r = router(8, 4).with_replicated(vec![TableId(7)]);
        let local = Key::from_u64(TableId(0), 42);
        let p = r.partition_of(&local);
        // A read of a replicated dimension row (any partition) plus one
        // partition's worth of real keys: still single-partition.
        let dim = (0..100u64)
            .map(|i| Key::from_u64(TableId(7), i))
            .find(|k| r.partition_of(k) != p)
            .expect("hash spreads");
        let txn = txn_with_keys(vec![local.clone(), dim]);
        assert_eq!(
            r.classify(&txn),
            Placement::Single {
                shard: r.shard_of_partition(p),
                partition: p
            }
        );
        assert!(r.is_replicated(TableId(7)));
        assert!(!r.is_replicated(TableId(0)));
    }

    #[test]
    fn replicated_only_footprint_runs_on_partition_zero() {
        // Degenerate but legal: a read-only txn touching nothing but
        // replicated tables can run anywhere; it pins to partition 0 so
        // every replica places it identically.
        let r = router(8, 4).with_replicated(vec![TableId(7)]);
        let txn = txn_with_keys(vec![Key::from_u64(TableId(7), 3)]);
        assert_eq!(
            r.classify(&txn),
            Placement::Single {
                shard: 0,
                partition: 0
            }
        );
    }

    #[test]
    fn one_shard_hosts_everything() {
        let r = router(16, 1);
        for id in 0..50 {
            assert_eq!(r.shard_of_key(&Key::from_u64(TableId(0), id)), 0);
        }
    }

    #[test]
    fn with_replicated_dedups_and_sorts() {
        let r = router(8, 2).with_replicated(vec![TableId(5), TableId(3), TableId(5), TableId(3)]);
        assert!(r.is_replicated(TableId(3)));
        assert!(r.is_replicated(TableId(5)));
        assert!(!r.is_replicated(TableId(4)));
        // Duplicates collapse: classification of a replicated-only txn is
        // unaffected by how often the operator listed the table.
        let txn = txn_with_keys(vec![Key::from_u64(TableId(5), 1)]);
        assert_eq!(
            r.classify(&txn),
            Placement::Single {
                shard: 0,
                partition: 0
            }
        );
    }

    #[test]
    fn with_replicated_empty_list_replicates_nothing() {
        let r = router(8, 2).with_replicated(Vec::new());
        for t in 0..8 {
            assert!(!r.is_replicated(TableId(t)));
        }
        // No table is exempt: a two-partition footprint is cross-shard.
        let a = Key::from_u64(TableId(0), 1);
        let b = (0..100u64)
            .map(|i| Key::from_u64(TableId(0), i))
            .find(|k| r.partition_of(k) != r.partition_of(&a))
            .expect("hash spreads");
        assert_eq!(
            r.classify(&txn_with_keys(vec![a, b])),
            Placement::MultiPartition
        );
    }

    #[test]
    fn resharded_preserves_partitions_and_replicated_set() {
        let r = router(16, 2).with_replicated(vec![TableId(9)]);
        let r4 = r.resharded(4);
        assert_eq!(r4.shards(), 4);
        assert_eq!(r4.partitions(), 16);
        assert!(r4.is_replicated(TableId(9)));
        // partition_of is epoch-invariant: the swap only moves hosting.
        for id in 0..64u64 {
            let k = Key::from_u64(TableId(0), id);
            assert_eq!(r.partition_of(&k), r4.partition_of(&k));
            assert_eq!(r4.shard_of_key(&k), r4.partition_of(&k) as usize % 4);
        }
        // Replicated keys stay invisible to classification after the swap.
        let txn = txn_with_keys(vec![Key::from_u64(TableId(9), 7)]);
        assert_eq!(
            r4.classify(&txn),
            Placement::Single {
                shard: 0,
                partition: 0
            }
        );
        // Merging back down restores the original placement function.
        let r2 = r4.resharded(2);
        for id in 0..64u64 {
            let k = Key::from_u64(TableId(0), id);
            assert_eq!(r2.shard_of_key(&k), r.shard_of_key(&k));
        }
    }

    #[test]
    fn reshard_marker_roundtrip_and_rejection() {
        let m = ReshardMarker {
            new_shards: 4,
            epoch: 3,
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), ReshardMarker::ENCODED_LEN);
        assert_eq!(ReshardMarker::decode(&bytes), Some(m));
        // Not markers: short frames, wrong magic, unknown version,
        // trailing garbage.
        assert_eq!(ReshardMarker::decode(b"HRSH"), None);
        assert_eq!(ReshardMarker::decode(&[]), None);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(ReshardMarker::decode(&wrong_magic), None);
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(ReshardMarker::decode(&wrong_version), None);
        let mut long = bytes;
        long.push(0);
        assert_eq!(ReshardMarker::decode(&long), None);
    }
}
