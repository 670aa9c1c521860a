//! Keyspace partitioners.
//!
//! A partitioner carves the keyspace into a fixed number of **logical
//! partitions**. Logical partitions are deliberately decoupled from
//! physical shards (see [`crate::router::ShardRouter`]): a transaction's
//! classification as single- or multi-partition depends only on the
//! partitioner, so the commit/abort decision of every transaction is
//! *independent of the shard count* — the property the N-shard vs 1-shard
//! state-root equivalence tests rely on.
//!
//! Partitioners hash/compare only the **row bytes** of a key, never the
//! table: an entity keyed identically across tables (e.g. a Smallbank
//! customer's `checking` and `savings` rows) co-locates on one partition.

use harmony_common::hash::fnv1a64;
use harmony_txn::Key;

/// Bytes of the row prefix [`Partitioning::Prefix`] hashes: one
/// big-endian `u64` entity id.
pub const ENTITY_PREFIX_BYTES: usize = 8;

/// Deployment knob selecting the partitioning function of a sharded
/// replica — a pure function of the key bytes, so it must be identical
/// on every replica of a chain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Partitioning {
    /// Stable FNV-1a over the whole row, modulo the partition count:
    /// best spread, right for single-segment keys (Smallbank, YCSB). The
    /// same function the partition-aware workload generators use, so
    /// their `multi_partition_ratio` knob translates exactly into
    /// cross-shard transactions.
    #[default]
    Hash,
    /// FNV-1a over only the first [`ENTITY_PREFIX_BYTES`] bytes of the
    /// row (the whole row when shorter), so every key sharing an 8-byte
    /// entity prefix lands on one partition.
    ///
    /// This is the partitioning for workloads whose composite keys embed
    /// a leading owning-entity id — TPC-C, where district/customer/stock/
    /// orders/order-line/history keys all start with the big-endian
    /// warehouse id. Under it, a contract whose whole footprint hangs off
    /// one warehouse is single-partition (which is what lets
    /// warehouse-local NewOrder/Payment run single-shard) even when some
    /// of its keys (the order id handed out by the district row at
    /// execution time) cannot be named in advance: any key that *will*
    /// share a declared key's prefix is guaranteed the same placement.
    ///
    /// For keys of exactly 8 bytes this is bit-identical to
    /// [`Partitioning::Hash`] — `Key::from_u64` workloads (Smallbank,
    /// YCSB) place identically under either, so switching a deployment's
    /// partitioning never moves their rows.
    Prefix,
}

impl Partitioning {
    /// The partitioner of this kind over `partitions` logical partitions.
    ///
    /// # Panics
    /// Panics if `partitions == 0`.
    #[must_use]
    pub fn build(self, partitions: u32) -> Partitioner {
        assert!(partitions > 0, "need at least one partition");
        Partitioner {
            by: self,
            partitions,
        }
    }
}

/// Assigns every key to one of a fixed number of logical partitions.
///
/// A pure function of the key bytes: every replica and every shard
/// derives the same placement with no coordination. Built by
/// [`Partitioning::build`].
#[derive(Clone, Copy, Debug)]
pub struct Partitioner {
    by: Partitioning,
    partitions: u32,
}

impl Partitioner {
    /// Number of logical partitions (≥ 1).
    #[must_use]
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// The partition owning `key`.
    #[must_use]
    pub fn partition_of(&self, key: &Key) -> u32 {
        let row = key.row();
        let hashed = match self.by {
            Partitioning::Hash => row,
            Partitioning::Prefix => &row[..row.len().min(ENTITY_PREFIX_BYTES)],
        };
        (fnv1a64(hashed) % u64::from(self.partitions)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_common::ids::TableId;

    fn key(id: u64) -> Key {
        Key::from_u64(TableId(0), id)
    }

    #[test]
    fn hash_partitioner_is_table_blind_and_stable() {
        let p = Partitioning::Hash.build(8);
        for id in 0..200u64 {
            let a = Key::from_u64(TableId(0), id);
            let b = Key::from_u64(TableId(5), id);
            assert_eq!(p.partition_of(&a), p.partition_of(&b), "co-location");
            assert!(p.partition_of(&a) < 8);
            assert_eq!(p.partition_of(&a), p.partition_of(&a));
        }
    }

    #[test]
    fn hash_partitioner_agrees_with_canonical_u64_partitioning() {
        // The partition-aware workload generators steer keys using
        // `harmony_common::hash::partition_of_u64`; the router places keys
        // with `Partitioning::Hash`. The two must agree or the workloads'
        // multi_partition_ratio knob stops meaning "cross-shard".
        let p = Partitioning::Hash.build(8);
        for id in 0..500u64 {
            assert_eq!(
                u64::from(p.partition_of(&key(id))),
                harmony_common::hash::partition_of_u64(id, 8),
                "divergence at id {id}"
            );
        }
    }

    #[test]
    fn hash_partitioner_spreads() {
        let p = Partitioning::Hash.build(4);
        let mut counts = [0u32; 4];
        for id in 0..1000u64 {
            counts[p.partition_of(&key(id)) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 150), "{counts:?}");
    }

    #[test]
    fn prefix_partitioner_matches_hash_on_u64_keys() {
        // Smallbank/YCSB keys are exactly 8 bytes, so a deployment may
        // switch Hash ↔ Prefix without moving any of their rows.
        let h = Partitioning::Hash.build(16);
        let p = Partitioning::Prefix.build(16);
        for id in 0..500u64 {
            assert_eq!(h.partition_of(&key(id)), p.partition_of(&key(id)));
        }
    }

    #[test]
    fn prefix_partitioner_colocates_composite_keys_with_their_entity() {
        // TPC-C-style composite keys: warehouse id, then district /
        // customer / order suffixes of various lengths.
        let p = Partitioning::Prefix.build(16);
        for w in 0..50u64 {
            let entity = p.partition_of(&key(w));
            for suffix_len in 1..16usize {
                let mut row = w.to_be_bytes().to_vec();
                row.extend(std::iter::repeat_n(0xAB, suffix_len));
                assert_eq!(
                    p.partition_of(&Key::new(TableId(3), row)),
                    entity,
                    "suffix of {suffix_len} bytes moved warehouse {w}"
                );
            }
        }
    }

    #[test]
    fn prefix_partitioner_hashes_short_rows_whole() {
        let p = Partitioning::Prefix.build(16);
        let short = Key::new(TableId(0), vec![1, 2, 3, 4]);
        assert!(p.partition_of(&short) < 16);
        // Stable: same 4-byte row, same partition, regardless of table.
        assert_eq!(
            p.partition_of(&short),
            p.partition_of(&Key::new(TableId(9), vec![1, 2, 3, 4]))
        );
    }

    #[test]
    fn partitioning_knob_builds_both_kinds() {
        let h = Partitioning::Hash.build(8);
        let p = Partitioning::Prefix.build(8);
        assert_eq!(h.partitions(), 8);
        assert_eq!(p.partitions(), 8);
        assert_eq!(Partitioning::default(), Partitioning::Hash);
    }
}
