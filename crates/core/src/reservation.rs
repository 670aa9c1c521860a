//! Per-block reservation tables.
//!
//! During the simulation step every transaction registers its read-write
//! set here (the paper's `update_reservation` hash table, Algorithm 2,
//! generalized with reader tracking and range predicates). After the block
//! barrier, [`ReservationTable::fire_rw_events`] walks each key entry and
//! fires the `on_seeing_rw_dependency` events of Algorithm 1 into the
//! [`TxnMeta`] accumulators.
//!
//! Because every transaction in a block reads the same snapshot, *every*
//! (reader, writer) pair on one key is an rw-dependency: the reader saw the
//! before-image of the writer's write.
//!
//! Registration is the write-hot path (every simulated transaction calls
//! it once), so it is tuned accordingly: shard selection reuses the key's
//! cached FNV-1a digest ([`Key::hash64`]), the per-shard maps use the
//! pass-through [`BuildNoRehash`] hasher (row bytes are hashed exactly
//! once, at key construction), and [`ReservationTable::register_with`]
//! groups a transaction's read-write set by shard so each shard lock is
//! taken once per transaction instead of once per key.

use std::collections::HashMap;

use harmony_common::hash::BuildNoRehash;
use harmony_txn::{Key, RangePredicate, RwSet};
use parking_lot::Mutex;

use crate::meta::TxnMeta;

/// Most shards a table has: enough that a block's registering workers
/// seldom meet on one lock.
const MAX_SHARDS: usize = 32;

/// Transactions per shard, and keys per transaction, a table is sized
/// for: a Smallbank transaction touches two to four keys, a YCSB one up
/// to ten. A larger block grows the maps; a smaller one allocates less.
const TXNS_PER_SHARD: usize = 8;
const KEYS_PER_TXN: usize = 4;

/// Inline capacity of an [`IdxList`]. In a typical block almost every key
/// sees at most a couple of readers/writers, so the common case costs no
/// heap allocation at all.
const INLINE: usize = 3;

/// A `u32` list that stores its first [`INLINE`] elements inline and only
/// spills to a `Vec` beyond that. Registering a block allocates one list
/// pair per touched key; keeping the common case allocation-free is a
/// measurable win on the register hot path.
enum IdxList {
    Inline { len: u8, buf: [u32; INLINE] },
    Heap(Vec<u32>),
}

impl Default for IdxList {
    fn default() -> IdxList {
        IdxList::Inline {
            len: 0,
            buf: [0; INLINE],
        }
    }
}

impl IdxList {
    fn push(&mut self, v: u32) {
        match self {
            IdxList::Inline { len, buf } => {
                if usize::from(*len) < INLINE {
                    buf[usize::from(*len)] = v;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(INLINE * 2 + 2);
                    heap.extend_from_slice(&buf[..]);
                    heap.push(v);
                    *self = IdxList::Heap(heap);
                }
            }
            IdxList::Heap(vec) => vec.push(v),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            IdxList::Inline { len, buf } => &buf[..usize::from(*len)],
            IdxList::Heap(vec) => vec,
        }
    }
}

#[derive(Default)]
struct KeyEntry {
    readers: IdxList,
    writers: IdxList,
}

type KeyShard = HashMap<Key, KeyEntry, BuildNoRehash>;

/// Reusable per-worker scratch for [`ReservationTable::register_with`]:
/// holds the shard-grouped `(shard, op)` pairs of one transaction so the
/// grouping buffer is allocated once per worker, not once per transaction.
#[derive(Default)]
pub struct RegisterScratch {
    /// `(shard, op index)` — ops below the transaction's read count are
    /// reads, the rest writes. Sorted to group ops by shard.
    ops: Vec<(u32, u32)>,
}

/// Reservation table for one block.
pub struct ReservationTable {
    shards: Vec<Mutex<KeyShard>>,
    preds: Mutex<Vec<(u32, RangePredicate)>>,
}

impl ReservationTable {
    /// Empty table for a block of `txns` transactions: a shard per eight
    /// of them (at least one, at most 32), each map pre-sized for its share
    /// of the block's keys, so a typical block registers without
    /// rehash-and-move cycles and a small one does not pay for 32 maps.
    #[must_use]
    pub fn new(txns: usize) -> ReservationTable {
        let shards = txns.div_ceil(TXNS_PER_SHARD).clamp(1, MAX_SHARDS);
        let capacity = (txns * KEYS_PER_TXN).div_ceil(shards);
        ReservationTable {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(KeyShard::with_capacity_and_hasher(
                        capacity,
                        BuildNoRehash::default(),
                    ))
                })
                .collect(),
            preds: Mutex::new(Vec::new()),
        }
    }

    fn shard_index(&self, key: &Key) -> u32 {
        // Cached FNV-1a digest: stable across releases and never re-walks
        // the row bytes. The *high* half picks the shard — the in-shard
        // map indexes buckets with the low bits of the same digest, so
        // using the low bits here would cluster every key of a shard into
        // the same buckets.
        #[allow(clippy::cast_possible_truncation)]
        {
            ((key.hash64() >> 32) % self.shards.len() as u64) as u32
        }
    }

    /// Register the read-write set of the transaction at block index
    /// `idx`. Thread-safe; called concurrently as simulations finish.
    /// Convenience wrapper over [`Self::register_with`] with a throwaway
    /// scratch — workers that register many transactions should hold one
    /// [`RegisterScratch`] and reuse it.
    pub fn register(&self, idx: u32, rwset: &RwSet) {
        self.register_with(idx, rwset, &mut RegisterScratch::default());
    }

    /// Register a read-write set, grouping its keys by shard first so each
    /// shard lock is taken once per transaction rather than once per key.
    pub fn register_with(&self, idx: u32, rwset: &RwSet, scratch: &mut RegisterScratch) {
        let reads = u32::try_from(rwset.reads.len()).expect("rw-set fits u32");
        let ops = &mut scratch.ops;
        ops.clear();
        for (i, r) in rwset.reads.iter().enumerate() {
            ops.push((self.shard_index(&r.key), i as u32));
        }
        for (i, (key, _)) in rwset.updates.iter().enumerate() {
            ops.push((self.shard_index(key), reads + i as u32));
        }
        // Group by shard (ties keep op order: reads before writes).
        ops.sort_unstable();
        let mut at = 0;
        while at < ops.len() {
            let shard = ops[at].0;
            let mut guard = self.shards[shard as usize].lock();
            while at < ops.len() && ops[at].0 == shard {
                let op = ops[at].1;
                if op < reads {
                    let key = &rwset.reads[op as usize].key;
                    guard.entry(key.clone()).or_default().readers.push(idx);
                } else {
                    let key = &rwset.updates[(op - reads) as usize].0;
                    guard.entry(key.clone()).or_default().writers.push(idx);
                }
                at += 1;
            }
        }
        if !rwset.scans.is_empty() {
            let mut preds = self.preds.lock();
            for s in &rwset.scans {
                preds.push((idx, s.clone()));
            }
        }
    }

    /// Fire every intra-block rw-dependency event into the metas:
    /// for each key, each (reader `T_j`, writer `T_i`) pair yields
    /// `T_i ←rw T_j` — `T_j.note_out_edge(i)`, `T_i.note_in_edge(j)`.
    /// Predicate readers are treated as readers of every written key their
    /// range covers (phantom protection).
    pub fn fire_rw_events(&self, metas: &[TxnMeta]) {
        let preds = self.preds.lock();
        for shard in &self.shards {
            let shard = shard.lock();
            for (key, entry) in shard.iter() {
                for &w in entry.writers.as_slice() {
                    let w_tid = metas[w as usize].tid;
                    for &r in entry.readers.as_slice() {
                        if r == w {
                            continue;
                        }
                        let r_tid = metas[r as usize].tid;
                        metas[r as usize].note_out_edge(w_tid);
                        metas[w as usize].note_in_edge(r_tid);
                    }
                    for (r, pred) in preds.iter() {
                        if *r == w || !pred.covers(key) {
                            continue;
                        }
                        let r_tid = metas[*r as usize].tid;
                        metas[*r as usize].note_out_edge(w_tid);
                        metas[w as usize].note_in_edge(r_tid);
                    }
                }
            }
        }
    }

    /// Smallest writer TID per key (Aria-style ww validation used when
    /// update reordering is disabled): `T_j` has a ww-dependency iff some
    /// key it writes has `min_writer_tid < j`.
    #[must_use]
    pub fn min_writer_tids(&self, metas: &[TxnMeta]) -> HashMap<Key, u64> {
        let mut out = HashMap::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (key, entry) in shard.iter() {
                if let Some(min) = entry
                    .writers
                    .as_slice()
                    .iter()
                    .map(|&w| metas[w as usize].tid)
                    .min()
                {
                    out.insert(key.clone(), min);
                }
            }
        }
        out
    }

    /// Visit every written key and its writer indices.
    pub fn for_each_written_key(&self, mut f: impl FnMut(&Key, &[u32])) {
        for shard in &self.shards {
            let shard = shard.lock();
            for (key, entry) in shard.iter() {
                let writers = entry.writers.as_slice();
                if !writers.is_empty() {
                    f(key, writers);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use harmony_common::ids::TableId;
    use harmony_txn::UpdateCommand;

    fn key(s: &str) -> Key {
        Key::new(TableId(0), s.as_bytes().to_vec())
    }

    fn rw(reads: &[&str], writes: &[&str]) -> RwSet {
        let mut set = RwSet::default();
        for r in reads {
            set.record_read(key(r), None);
        }
        for w in writes {
            set.record_update(key(w), UpdateCommand::Put(Bytes::from_static(b"v")));
        }
        set
    }

    fn metas(tids: &[u64]) -> Vec<TxnMeta> {
        tids.iter().map(|&t| TxnMeta::new(t)).collect()
    }

    #[test]
    fn reader_writer_pair_fires_both_edges() {
        let table = ReservationTable::new(4);
        // T1 writes x; T2 reads x.
        table.register(0, &rw(&[], &["x"]));
        table.register(1, &rw(&["x"], &[]));
        let m = metas(&[1, 2]);
        table.fire_rw_events(&m);
        // Edge T1 ←rw T2: T2.min_out = 1, T1.max_in = 2.
        assert_eq!(m[1].min_out(), 1);
        assert_eq!(m[0].max_in(), 2);
    }

    #[test]
    fn figure_3a_two_txn_cycle_detected() {
        // T1 reads y writes x; T2 reads x writes y.
        let table = ReservationTable::new(4);
        table.register(0, &rw(&["y"], &["x"]));
        table.register(1, &rw(&["x"], &["y"]));
        let m = metas(&[1, 2]);
        table.fire_rw_events(&m);
        assert!(
            m[1].in_backward_dangerous_structure(),
            "T2 must be aborted (write-skew)"
        );
        assert!(
            !m[0].in_backward_dangerous_structure(),
            "T1 commits: min_out unchanged (its out-edge targets T2 > T1)"
        );
    }

    #[test]
    fn ww_only_conflict_fires_no_rw_events() {
        let table = ReservationTable::new(4);
        table.register(0, &rw(&[], &["x"]));
        table.register(1, &rw(&[], &["x"]));
        let m = metas(&[1, 2]);
        table.fire_rw_events(&m);
        assert!(!m[0].in_backward_dangerous_structure());
        assert!(!m[1].in_backward_dangerous_structure());
        // But ww map sees the conflict.
        let min_writers = table.min_writer_tids(&m);
        assert_eq!(min_writers[&key("x")], 1);
    }

    #[test]
    fn self_read_write_not_an_edge() {
        let table = ReservationTable::new(4);
        table.register(0, &rw(&["x"], &["x"]));
        let m = metas(&[1]);
        table.fire_rw_events(&m);
        assert_eq!(m[0].min_out(), 2, "no self-edge");
        assert_eq!(m[0].max_in(), crate::meta::NEG_INF);
    }

    #[test]
    fn predicate_read_covers_insert() {
        // T2 scans [a, m); T1 inserts "g" — a phantom. Edge T1 ←rw T2.
        let table = ReservationTable::new(4);
        table.register(0, &rw(&[], &["g"]));
        let mut scanner = RwSet::default();
        scanner.record_scan(RangePredicate {
            table: TableId(0),
            start: Bytes::from_static(b"a"),
            end: Some(Bytes::from_static(b"m")),
        });
        table.register(1, &scanner);
        let m = metas(&[1, 2]);
        table.fire_rw_events(&m);
        assert_eq!(m[1].min_out(), 1, "phantom registered as out-edge");
        assert_eq!(m[0].max_in(), 2);
    }

    #[test]
    fn predicate_outside_range_no_edge() {
        let table = ReservationTable::new(4);
        table.register(0, &rw(&[], &["z"]));
        let mut scanner = RwSet::default();
        scanner.record_scan(RangePredicate {
            table: TableId(0),
            start: Bytes::from_static(b"a"),
            end: Some(Bytes::from_static(b"m")),
        });
        table.register(1, &scanner);
        let m = metas(&[1, 2]);
        table.fire_rw_events(&m);
        assert_eq!(m[1].min_out(), 3, "no edge for out-of-range write");
    }

    #[test]
    fn multi_writer_multi_reader_hotspot() {
        // Writers T1..T3 and readers T4, T5 on one hot key.
        let table = ReservationTable::new(4);
        for i in 0..3 {
            table.register(i, &rw(&[], &["hot"]));
        }
        table.register(3, &rw(&["hot"], &[]));
        table.register(4, &rw(&["hot"], &[]));
        let m = metas(&[1, 2, 3, 4, 5]);
        table.fire_rw_events(&m);
        // Readers' min_out = smallest writer (1).
        assert_eq!(m[3].min_out(), 1);
        assert_eq!(m[4].min_out(), 1);
        // Writers' max_in = largest reader (5).
        for meta in m.iter().take(3) {
            assert_eq!(meta.max_in(), 5);
        }
        // No reader writes, so nobody is in a dangerous structure.
        for meta in &m {
            assert!(!meta.in_backward_dangerous_structure());
        }
    }

    #[test]
    fn idx_list_spills_past_inline_capacity() {
        let mut list = IdxList::default();
        let n = u32::try_from(INLINE).unwrap() + 5;
        for i in 0..n {
            list.push(i);
        }
        assert_eq!(list.as_slice(), (0..n).collect::<Vec<_>>().as_slice());
        assert!(matches!(list, IdxList::Heap(_)), "spilled to the heap");
    }

    #[test]
    fn hotspot_key_tracks_many_readers_and_writers() {
        // More readers/writers on one key than the inline capacity: the
        // spill path must keep every index.
        let table = ReservationTable::new(4);
        for i in 0..10 {
            table.register(i, &rw(&["hot"], &["hot"]));
        }
        let mut writer_count = 0;
        table.for_each_written_key(|_, ws| writer_count = ws.len());
        assert_eq!(writer_count, 10);
        let m = metas(&(1..=10).collect::<Vec<_>>());
        let min_writers = table.min_writer_tids(&m);
        assert_eq!(min_writers[&key("hot")], 1);
    }

    #[test]
    fn register_with_reused_scratch_matches_register() {
        let fresh = ReservationTable::new(4);
        let reused = ReservationTable::new(4);
        let mut scratch = RegisterScratch::default();
        let sets = [
            rw(&["a", "b"], &["x"]),
            rw(&["x"], &["a", "y"]),
            rw(&[], &["b", "x", "y"]),
        ];
        for (i, set) in sets.iter().enumerate() {
            fresh.register(i as u32, set);
            reused.register_with(i as u32, set, &mut scratch);
        }
        let m = metas(&[1, 2, 3]);
        let n = metas(&[1, 2, 3]);
        fresh.fire_rw_events(&m);
        reused.fire_rw_events(&n);
        for (a, b) in m.iter().zip(n.iter()) {
            assert_eq!(a.min_out(), b.min_out());
            assert_eq!(a.max_in(), b.max_in());
        }
        assert_eq!(fresh.min_writer_tids(&m), reused.min_writer_tids(&n));
    }

    #[test]
    fn for_each_written_key_visits_all() {
        let table = ReservationTable::new(4);
        table.register(0, &rw(&[], &["a", "b"]));
        table.register(1, &rw(&[], &["b"]));
        let mut seen: Vec<(String, usize)> = Vec::new();
        table.for_each_written_key(|k, ws| {
            seen.push((String::from_utf8_lossy(k.row()).into_owned(), ws.len()));
        });
        seen.sort();
        assert_eq!(seen, vec![("a".into(), 1), ("b".into(), 2)]);
    }
}
