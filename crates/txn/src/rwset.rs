//! Read/write-set capture.
//!
//! Every ODCC in the taxonomy (Table 2c of the paper) first obtains a
//! deterministic read-write set by simulating the transaction against a
//! block snapshot. `RwSet` is that artifact: point reads (with the version
//! observed, for SOV stale-read validation), range predicates (so scans
//! participate in dependency detection — no phantoms), and the ordered
//! update commands.

use bytes::Bytes;
use harmony_common::ids::TableId;

use crate::key::Key;
use crate::update::{CommandSeq, UpdateCommand};

/// One point read and the version it observed (`None` = key absent).
///
/// Versions are the TID of the last writer, which is how Fabric-style
/// validation detects stale reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadRecord {
    /// What was read.
    pub key: Key,
    /// Version observed at simulation time.
    pub version: Option<u64>,
}

/// A range predicate registered by a scan: `[start, end)` in `table`
/// (`end = None` = unbounded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangePredicate {
    /// Table scanned.
    pub table: TableId,
    /// Inclusive start of the scanned range.
    pub start: Bytes,
    /// Exclusive end, or `None` for an unbounded scan.
    pub end: Option<Bytes>,
}

impl RangePredicate {
    /// Whether `key` falls inside the predicate.
    #[must_use]
    pub fn covers(&self, key: &Key) -> bool {
        if key.table() != self.table || *key.row() < self.start {
            return false;
        }
        match &self.end {
            Some(end) => key.row() < end,
            None => true,
        }
    }
}

/// The deterministic read-write set produced by one simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RwSet {
    /// Point reads in program order (deduplicated per key).
    pub reads: Vec<ReadRecord>,
    /// Range predicates registered by scans.
    pub scans: Vec<RangePredicate>,
    /// Update commands per key, folded into per-key sequences, in first-
    /// touch order.
    pub updates: Vec<(Key, CommandSeq)>,
}

impl RwSet {
    /// Record a point read (first observation per key wins).
    pub fn record_read(&mut self, key: Key, version: Option<u64>) {
        if !self.reads.iter().any(|r| r.key == key) {
            self.reads.push(ReadRecord { key, version });
        }
    }

    /// Record a scan predicate.
    pub fn record_scan(&mut self, pred: RangePredicate) {
        if !self.scans.contains(&pred) {
            self.scans.push(pred);
        }
    }

    /// Record an update command (folds into the key's sequence — corner
    /// case (2) of Algorithm 2: a transaction updating `x` twice keeps at
    /// most one command slot for `x`).
    pub fn record_update(&mut self, key: Key, cmd: UpdateCommand) {
        if let Some((_, seq)) = self.updates.iter_mut().find(|(k, _)| *k == key) {
            seq.push(cmd);
        } else {
            self.updates.push((key, CommandSeq::of(cmd)));
        }
    }

    /// The pending command sequence for `key`, if the transaction updated
    /// it (used for reads-own-writes).
    #[must_use]
    pub fn pending_for(&self, key: &Key) -> Option<&CommandSeq> {
        self.updates
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, seq)| seq)
    }

    /// Keys written by this transaction.
    pub fn write_keys(&self) -> impl Iterator<Item = &Key> {
        self.updates.iter().map(|(k, _)| k)
    }

    /// Keys read by this transaction (point reads only).
    pub fn read_keys(&self) -> impl Iterator<Item = &Key> {
        self.reads.iter().map(|r| &r.key)
    }

    /// Total number of operations captured (for cost accounting).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.reads.len() + self.scans.len() + self.updates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(table: u16, row: &str) -> Key {
        Key::new(TableId(table), row.as_bytes().to_vec())
    }

    #[test]
    fn reads_dedupe_first_version_wins() {
        let mut rw = RwSet::default();
        rw.record_read(key(0, "a"), Some(5));
        rw.record_read(key(0, "a"), Some(9));
        rw.record_read(key(0, "b"), None);
        assert_eq!(rw.reads.len(), 2);
        assert_eq!(rw.reads[0].version, Some(5));
    }

    #[test]
    fn updates_fold_per_key() {
        let mut rw = RwSet::default();
        rw.record_update(
            key(0, "x"),
            UpdateCommand::AddI64 {
                offset: 0,
                delta: 1,
            },
        );
        rw.record_update(
            key(0, "x"),
            UpdateCommand::AddI64 {
                offset: 0,
                delta: 2,
            },
        );
        rw.record_update(key(0, "y"), UpdateCommand::Delete);
        assert_eq!(rw.updates.len(), 2);
        assert_eq!(rw.pending_for(&key(0, "x")).unwrap().len(), 1);
        assert!(rw.pending_for(&key(0, "z")).is_none());
    }

    #[test]
    fn predicate_covers() {
        let pred = RangePredicate {
            table: TableId(1),
            start: Bytes::from_static(b"c"),
            end: Some(Bytes::from_static(b"m")),
        };
        assert!(pred.covers(&key(1, "d")));
        assert!(pred.covers(&key(1, "c")));
        assert!(!pred.covers(&key(1, "m")), "end is exclusive");
        assert!(!pred.covers(&key(1, "a")));
        assert!(!pred.covers(&key(2, "d")), "different table");
        let unbounded = RangePredicate {
            table: TableId(1),
            start: Bytes::from_static(b"c"),
            end: None,
        };
        assert!(unbounded.covers(&key(1, "zzz")));
    }

    #[test]
    fn scan_dedupe() {
        let mut rw = RwSet::default();
        let pred = RangePredicate {
            table: TableId(0),
            start: Bytes::from_static(b"a"),
            end: None,
        };
        rw.record_scan(pred.clone());
        rw.record_scan(pred);
        assert_eq!(rw.scans.len(), 1);
    }
}
