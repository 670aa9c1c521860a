//! YCSB (Cooper et al., SoCC 2010), configured as in the paper's §5: 10 K
//! keys, 10 operations per transaction, each operation a SELECT or UPDATE
//! with equal probability, key choice Zipfian with skew `theta`.
//!
//! The hotspot variant (Figure 14) marks 1 % of the records hot; each
//! statement targets a hot record with probability `hot_prob` and is issued
//! as a *merged read-modify-write UPDATE* (`balance = balance + x`) — the
//! statement shape Harmony's update reordering and coalescence exploit.

use std::sync::Arc;

use harmony_common::ids::TableId;
use harmony_common::zipf::ScrambledZipfian;
use harmony_common::{DetRng, Result};
use harmony_storage::StorageEngine;
use harmony_txn::row::RowBuilder;
use harmony_txn::{Contract, FnContract, Key, TxnCtx, UserAbort};

use crate::workload::Workload;

/// Byte offset of the numeric field RMW updates target.
pub const FIELD_OFFSET: usize = 0;
/// Total row payload size (one i64 field + padding).
pub const ROW_LEN: usize = 96;

/// YCSB configuration.
#[derive(Clone, Debug)]
pub struct YcsbConfig {
    /// Number of records (paper: 10 000).
    pub keys: u64,
    /// Operations per transaction (paper: 10).
    pub ops_per_txn: usize,
    /// Probability an operation is a read (paper: 0.5).
    pub read_ratio: f64,
    /// Zipfian skew θ ∈ [0, 1).
    pub theta: f64,
    /// Hotspot mode: fraction of records that are hot (0 disables).
    pub hot_fraction: f64,
    /// Probability a statement targets a hot record (hotspot mode).
    pub hot_prob: f64,
    /// Partition-aware mode: number of logical keyspace partitions (`0`
    /// disables partition awareness and keeps the classic stream).
    pub partitions: u64,
    /// Probability a transaction is multi-partition (its operations span at
    /// least two partitions); otherwise every operation is steered into the
    /// first operation's partition. Ignored unless `partitions > 0`.
    pub multi_partition_ratio: f64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            keys: 10_000,
            ops_per_txn: 10,
            read_ratio: 0.5,
            theta: 0.6,
            hot_fraction: 0.0,
            hot_prob: 0.0,
            partitions: 0,
            multi_partition_ratio: 0.0,
        }
    }
}

/// Logical partition of a record id — the canonical hash partitioning
/// shared with the shard router.
#[must_use]
pub fn partition_of_key(key: u64, partitions: u64) -> u64 {
    harmony_common::hash::partition_of_u64(key, partitions)
}

use crate::workload::walk_u64 as walk_key;

impl YcsbConfig {
    /// The Figure 14 hotspot variant: 1 % hot records, every statement a
    /// merged read-modify-write UPDATE, hot with probability `hot_prob`.
    #[must_use]
    pub fn hotspot(hot_prob: f64) -> YcsbConfig {
        YcsbConfig {
            theta: 0.0,
            hot_fraction: 0.01,
            hot_prob,
            ..YcsbConfig::default()
        }
    }
}

/// The YCSB workload.
pub struct Ycsb {
    config: YcsbConfig,
    zipf: ScrambledZipfian,
    table: TableId,
}

impl Ycsb {
    /// Build with the given configuration.
    #[must_use]
    pub fn new(config: YcsbConfig) -> Ycsb {
        let zipf = ScrambledZipfian::new(config.keys, config.theta);
        Ycsb {
            config,
            zipf,
            table: TableId(0),
        }
    }

    /// The user table id (valid after `setup`).
    #[must_use]
    pub fn table(&self) -> TableId {
        self.table
    }

    pub(crate) fn make_row(seed: u64) -> bytes::Bytes {
        let mut b = RowBuilder::new();
        b.push_i64(1_000);
        b.push_pad(ROW_LEN - 8, (seed & 0x7F) as u8);
        b.finish()
    }

    fn pick_key(&self, rng: &mut DetRng) -> u64 {
        if self.config.hot_fraction > 0.0 {
            let hot_keys = ((self.config.keys as f64) * self.config.hot_fraction).max(1.0) as u64;
            if rng.gen_bool(self.config.hot_prob) {
                rng.gen_range(hot_keys)
            } else {
                hot_keys + rng.gen_range(self.config.keys - hot_keys)
            }
        } else {
            self.zipf.sample(rng)
        }
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &'static str {
        "YCSB"
    }

    fn create_tables(&mut self, engine: &StorageEngine) -> Result<()> {
        self.table = engine.create_table("usertable")?;
        Ok(())
    }

    fn setup(&mut self, engine: &StorageEngine) -> Result<()> {
        self.create_tables(engine)?;
        let table = self.table;
        for k in 0..self.config.keys {
            engine.put(table, &k.to_be_bytes(), &Self::make_row(k))?;
        }
        Ok(())
    }

    fn codec(&self) -> Arc<dyn harmony_txn::ContractCodec> {
        Arc::new(YcsbCodec { table: self.table })
    }

    fn next_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract> {
        let table = self.table;
        let hotspot_mode = self.config.hot_fraction > 0.0;
        // Pre-draw the operation plan so the contract is deterministic.
        let mut ops: Vec<(u64, u8, i64)> = (0..self.config.ops_per_txn)
            .map(|_| {
                let key = self.pick_key(rng);
                let kind = if hotspot_mode {
                    2 // merged RMW UPDATE
                } else if rng.gen_bool(self.config.read_ratio) {
                    0 // SELECT
                } else {
                    1 // blind UPDATE
                };
                (key, kind, rng.gen_range(100) as i64)
            })
            .collect();
        // A one-operation transaction can never span two partitions, so
        // partition steering only applies to plans with ≥ 2 operations.
        if self.config.partitions > 0 && ops.len() >= 2 {
            let parts = self.config.partitions;
            let keys = self.config.keys;
            let home = partition_of_key(ops[0].0, parts);
            if rng.gen_bool(self.config.multi_partition_ratio) {
                // Multi-partition: keep the natural key spread but guarantee
                // at least one operation lands outside the home partition.
                if ops
                    .iter()
                    .all(|(k, _, _)| partition_of_key(*k, parts) == home)
                {
                    let last = ops.last_mut().expect("non-empty plan");
                    last.0 = walk_key(keys, last.0, |c| partition_of_key(c, parts) != home);
                }
            } else {
                // Single-partition: steer every operation into the home
                // partition of the first drawn key.
                for op in &mut ops[1..] {
                    if partition_of_key(op.0, parts) != home {
                        op.0 = walk_key(keys, op.0, |c| partition_of_key(c, parts) == home);
                    }
                }
            }
        }
        build_txn(table, ops)
    }
}

/// Build the executable YCSB contract for a concrete operation plan.
/// `ops` entries are `(key, kind, value)` with kind 0 = SELECT, 1 = blind
/// UPDATE, 2 = merged read-modify-write UPDATE.
pub fn build_txn(table: TableId, ops: Vec<(u64, u8, i64)>) -> Arc<dyn Contract> {
    let payload = {
        let mut p = Vec::with_capacity(ops.len() * 17);
        for (k, kind, v) in &ops {
            p.extend_from_slice(&k.to_le_bytes());
            p.push(*kind);
            p.extend_from_slice(&v.to_le_bytes());
        }
        p
    };
    let footprint: Vec<Key> = ops
        .iter()
        .map(|(k, _, _)| Key::from_u64(table, *k))
        .collect();
    Arc::new(
        FnContract::new("ycsb", move |ctx: &mut TxnCtx<'_>| {
            for (k, kind, v) in &ops {
                let key = Key::from_u64(table, *k);
                match kind {
                    0 => {
                        ctx.read(&key).map_err(|e| UserAbort(e.to_string()))?;
                    }
                    1 => ctx.put(key, Ycsb::make_row(*v as u64)),
                    _ => ctx.add_i64(key, FIELD_OFFSET, *v),
                }
            }
            Ok(())
        })
        .with_payload(payload)
        .with_footprint(footprint),
    )
}

/// [`harmony_txn::ContractCodec`] for YCSB transactions — the smart-contract registry a
/// replica uses to re-execute logged blocks after recovery.
pub struct YcsbCodec {
    /// The user table.
    pub table: TableId,
}

impl harmony_txn::ContractCodec for YcsbCodec {
    fn decode(&self, bytes: &[u8]) -> harmony_common::Result<Arc<dyn Contract>> {
        let (name, payload) = harmony_txn::split_encoded(bytes)?;
        if name != "ycsb" {
            return Err(harmony_common::Error::InvalidArgument(format!(
                "YcsbCodec cannot decode contract {name}"
            )));
        }
        if payload.len() % 17 != 0 {
            return Err(harmony_common::Error::Corruption(
                "ycsb payload not a multiple of 17".into(),
            ));
        }
        let ops = payload
            .chunks(17)
            .map(|c| {
                (
                    u64::from_le_bytes(c[..8].try_into().expect("8 bytes")),
                    c[8],
                    i64::from_le_bytes(c[9..].try_into().expect("8 bytes")),
                )
            })
            .collect();
        Ok(build_txn(self.table, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_storage::StorageConfig;
    use harmony_txn::SnapshotView;

    struct EngineView<'a>(&'a StorageEngine);

    impl SnapshotView for EngineView<'_> {
        fn get(&self, key: &Key) -> Result<Option<harmony_txn::Value>> {
            Ok(self
                .0
                .get(key.table(), key.row())?
                .map(harmony_txn::Value::from))
        }
        fn scan(
            &self,
            table: TableId,
            start: &[u8],
            end: Option<&[u8]>,
            f: &mut dyn FnMut(&[u8], &harmony_txn::Value) -> bool,
        ) -> Result<()> {
            self.0.scan(table, start, end, |k, v| {
                f(k, &harmony_txn::Value::copy_from_slice(v))
            })
        }
    }

    fn setup_ycsb(config: YcsbConfig) -> (StorageEngine, Ycsb) {
        let engine = StorageEngine::open(&StorageConfig::memory()).unwrap();
        let mut w = Ycsb::new(config);
        w.setup(&engine).unwrap();
        (engine, w)
    }

    #[test]
    fn setup_loads_all_keys() {
        let (engine, w) = setup_ycsb(YcsbConfig {
            keys: 500,
            ..YcsbConfig::default()
        });
        assert_eq!(engine.table_len(w.table()).unwrap(), 500);
    }

    #[test]
    fn txn_touches_requested_ops() {
        let (engine, w) = setup_ycsb(YcsbConfig {
            keys: 100,
            ops_per_txn: 10,
            ..YcsbConfig::default()
        });
        let mut rng = DetRng::new(1);
        let txn = w.next_txn(&mut rng);
        let view = EngineView(&engine);
        let mut ctx = TxnCtx::new(&view);
        txn.execute(&mut ctx).unwrap();
        let rw = ctx.into_rwset();
        assert!(rw.reads.len() + rw.updates.len() >= 5, "ops recorded");
        assert!(rw.op_count() <= 20);
    }

    #[test]
    fn deterministic_stream() {
        let (_, w) = setup_ycsb(YcsbConfig {
            keys: 100,
            ..YcsbConfig::default()
        });
        let mut r1 = DetRng::new(9);
        let mut r2 = DetRng::new(9);
        for _ in 0..10 {
            assert_eq!(w.next_txn(&mut r1).payload(), w.next_txn(&mut r2).payload());
        }
    }

    #[test]
    fn skew_concentrates_accesses() {
        let hot_hits = |theta: f64| {
            let (_, w) = setup_ycsb(YcsbConfig {
                keys: 1000,
                theta,
                ..YcsbConfig::default()
            });
            let mut rng = DetRng::new(5);
            let mut key_counts = std::collections::HashMap::new();
            for _ in 0..200 {
                let txn = w.next_txn(&mut rng);
                // Decode keys from payload (8 bytes key + 1 + 8 each).
                for chunk in txn.payload().chunks(17) {
                    let k = u64::from_le_bytes(chunk[..8].try_into().unwrap());
                    *key_counts.entry(k).or_insert(0u32) += 1;
                }
            }
            *key_counts.values().max().unwrap()
        };
        assert!(hot_hits(0.99) > 3 * hot_hits(0.0));
    }

    #[test]
    fn hotspot_mode_is_all_rmw() {
        let (engine, w) = setup_ycsb(YcsbConfig {
            keys: 1000,
            ..YcsbConfig::hotspot(0.8)
        });
        let mut rng = DetRng::new(3);
        let txn = w.next_txn(&mut rng);
        let view = EngineView(&engine);
        let mut ctx = TxnCtx::new(&view);
        txn.execute(&mut ctx).unwrap();
        let rw = ctx.into_rwset();
        assert_eq!(rw.updates.len(), rw.updates.len());
        assert!(rw.updates.iter().all(|(_, seq)| seq.has_rmw()));
        // Merged statements: no separate read set entries.
        assert!(rw.reads.is_empty());
    }

    #[test]
    fn partition_mode_controls_spread() {
        let spans = |ratio: f64| {
            let (_, w) = setup_ycsb(YcsbConfig {
                keys: 1000,
                partitions: 4,
                multi_partition_ratio: ratio,
                ..YcsbConfig::default()
            });
            let mut rng = DetRng::new(7);
            let mut multi = 0;
            for _ in 0..100 {
                let txn = w.next_txn(&mut rng);
                let mut parts = std::collections::HashSet::new();
                for chunk in txn.payload().chunks(17) {
                    let k = u64::from_le_bytes(chunk[..8].try_into().unwrap());
                    parts.insert(partition_of_key(k, 4));
                }
                if parts.len() > 1 {
                    multi += 1;
                }
            }
            multi
        };
        assert_eq!(spans(0.0), 0, "ratio 0 must be fully single-partition");
        assert_eq!(spans(1.0), 100, "ratio 1 must be fully multi-partition");
        let mid = spans(0.3);
        assert!((15..=45).contains(&mid), "ratio 0.3 gave {mid}/100");
    }

    #[test]
    fn footprint_covers_executed_keys() {
        let (engine, w) = setup_ycsb(YcsbConfig {
            keys: 100,
            ..YcsbConfig::default()
        });
        let mut rng = DetRng::new(2);
        let txn = w.next_txn(&mut rng);
        let declared: std::collections::HashSet<Key> =
            txn.declared_keys().unwrap().iter().cloned().collect();
        let view = EngineView(&engine);
        let mut ctx = TxnCtx::new(&view);
        txn.execute(&mut ctx).unwrap();
        let rw = ctx.into_rwset();
        for k in rw.read_keys().chain(rw.write_keys()) {
            assert!(declared.contains(k), "undeclared key {k:?}");
        }
    }

    #[test]
    fn hotspot_prob_targets_hot_range() {
        let (_, w) = setup_ycsb(YcsbConfig {
            keys: 1000,
            ..YcsbConfig::hotspot(1.0)
        });
        let mut rng = DetRng::new(4);
        for _ in 0..20 {
            let txn = w.next_txn(&mut rng);
            for chunk in txn.payload().chunks(17) {
                let k = u64::from_le_bytes(chunk[..8].try_into().unwrap());
                assert!(k < 10, "hot_prob=1.0 must stay within the 1% hot set");
            }
        }
    }
}
