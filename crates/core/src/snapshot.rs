//! Block-snapshot MVCC over the storage engine.
//!
//! Snapshot-based ODCCs (Aria, RBC, Harmony — Table 2c of the paper) need a
//! *deterministic block snapshot*: the state after a specific block, used
//! as the single source of truth by every replica. [`SnapshotStore`] layers
//! an undo-based multi-version overlay on the storage engine:
//!
//! * commits write the engine *in place* (paying the realistic buffer-pool
//!   / disk costs) while recording, per key and writer block, an undo node
//!   holding the key's before-image and the block's after-image;
//! * `read_at(s, key)` reconstructs the state after block `s` by returning
//!   the before-image of the oldest writer newer than `s`;
//! * `writes_in(b)` hands the chain layer block `b`'s write-set with its
//!   after-images, so folding the state commitment reads no row;
//! * once no in-flight block can request a snapshot older than `s`,
//!   [`SnapshotStore::gc`] drops the stale undo entries (pipeline depth is
//!   2, so the undo chain per key stays ≤ 2 entries).
//!
//! # One descent per written key
//!
//! [`SnapshotStore::apply_write`] hands the writer the key's current value
//! and records what the writer makes of it, in one read-modify-write of
//! the engine ([`StorageEngine::update_with`]): the value handed over is
//! the before-image, the value returned the after-image, and the row is
//! found once for both. Harmony's coalesced plans fold their commands over
//! that value; the baselines install values they evaluated earlier and
//! ignore it. The engine charges the virtual time of a read followed by a
//! write, so the cost model is that of the two calls it replaces.
//! [`SnapshotStore::overwrite_in_block`] replaces a block's after-image.
//!
//! # Hot-path layout
//!
//! The overlay sits on the per-transaction critical path, so its layout is
//! tuned for the access mix the executor produces:
//!
//! * **Zero re-hashing.** Shard selection uses the key's cached FNV-1a
//!   digest ([`Key::hash64`]) and the per-shard map uses the pass-through
//!   [`BuildNoRehash`] hasher, so a key's row bytes are hashed exactly once
//!   — at key construction — no matter how many probes follow. (FNV-1a is
//!   also stable across releases, unlike `std`'s `DefaultHasher`, which
//!   keeps hash-derived placement deterministic.)
//! * **One map, one arena.** Undo chains and writer (version) history for
//!   a key live in a single `KeyState` entry; undo nodes are allocated
//!   from a per-shard arena with a free list (chains stay ≤ pipeline
//!   depth, so slots recycle instead of churning the allocator), and
//!   `apply_write` clones the key only on first touch instead of once per
//!   chain.
//! * **Range-probed scans.** Each shard keeps a per-table ordered index of
//!   rows with live before-images; `scan_at` range-probes only the scanned
//!   interval instead of walking every undo chain in every shard, and a
//!   per-shard block→keys log gives `export_undo_for`, `writes_in` and
//!   `gc` the exact candidate set.
//! * **Lock-free empty checks.** Each shard maintains atomic counters of
//!   live undo entries and resident keys; `read_at`/`version_at` skip the
//!   shard lock entirely in the common no-overlay case, and `gc` skips
//!   shards with nothing to collect.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use harmony_common::hash::BuildNoRehash;
use harmony_common::ids::TableId;
use harmony_common::{BlockId, Error, Result};
use harmony_storage::StorageEngine;
use harmony_txn::{Key, SnapshotView, Value};
use parking_lot::RwLock;

const SHARDS: usize = 64;

/// Sentinel arena index: "no undo node".
const NIL: u32 = u32::MAX;

/// One (key, writer block) entry in a shard's undo arena. Chains are
/// threaded through `prev` (newest node first), so pushing a version is
/// O(1) and no per-key `Vec` is allocated.
#[derive(Debug)]
struct UndoNode {
    writer_block: BlockId,
    before: Option<Value>,
    /// What the block left in the key (`Some(None)`: deleted). `None` when
    /// unknown: a node restored by `import_undo_for` carries only the
    /// before-image.
    after: Option<Option<Value>>,
    /// Arena index of the next-older entry for the same key, or [`NIL`].
    prev: u32,
}

/// Per-key overlay state: the newest undo node plus the writer history.
/// Sharing one map entry across both chains is what lets `apply_write`
/// clone the key once (a cheap `Bytes` refcount bump) instead of twice.
#[derive(Debug)]
struct KeyState {
    /// Newest live undo node (arena index), or [`NIL`].
    undo_head: u32,
    /// Writer history, oldest→newest `(block, tid)` — versions for
    /// SOV-style stale-read validation at any retained snapshot.
    versions: Vec<(BlockId, u64)>,
}

impl Default for KeyState {
    fn default() -> KeyState {
        KeyState {
            undo_head: NIL,
            versions: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Shard {
    /// Overlay state per key, probed with the key's cached hash.
    map: HashMap<Key, KeyState, BuildNoRehash>,
    /// Undo node storage; freed slots are recycled via `free`.
    arena: Vec<UndoNode>,
    free: Vec<u32>,
    /// Per-table ordered index of rows with live before-images. `scan_at`
    /// range-probes this instead of walking the whole map; the stored
    /// `Key` shares the row's `Bytes` and carries the cached hash for the
    /// map probe.
    rows: HashMap<TableId, BTreeMap<Bytes, Key>>,
    /// Keys that recorded an undo entry per writer block — the exact
    /// candidate sets for `export_undo_for` and `gc`.
    by_block: BTreeMap<BlockId, Vec<Key>>,
}

struct ShardCell {
    shard: RwLock<Shard>,
    /// Live undo nodes in the shard. Read via one atomic load by the
    /// `read_at`/`scan_at` fast paths and the `gc` skip.
    undo_entries: AtomicUsize,
    /// Keys resident in the map (version history outlives undo entries).
    keys: AtomicUsize,
}

impl Default for ShardCell {
    fn default() -> ShardCell {
        ShardCell {
            shard: RwLock::new(Shard::default()),
            undo_entries: AtomicUsize::new(0),
            keys: AtomicUsize::new(0),
        }
    }
}

impl ShardCell {
    /// Record the undo node of `(key, block)` — the single insertion path
    /// shared by the writes and `import_undo_for`, so the atomic counters,
    /// row index and block log can never drift apart.
    fn insert_undo(
        &self,
        key: &Key,
        block: BlockId,
        tid: u64,
        before: Option<Value>,
        after: Option<Option<Value>>,
    ) {
        let mut guard = self.shard.write();
        if !guard.map.contains_key(key) {
            guard.map.insert(key.clone(), KeyState::default());
            self.keys.fetch_add(1, Ordering::Release);
        }
        let Shard {
            map,
            arena,
            free,
            rows,
            by_block,
        } = &mut *guard;
        let state = map.get_mut(key).expect("resident just above");
        debug_assert!(
            state.undo_head == NIL || arena[state.undo_head as usize].writer_block < block,
            "undo chains grow strictly newer (one entry per (key, block))"
        );
        let node = UndoNode {
            writer_block: block,
            before,
            after,
            prev: state.undo_head,
        };
        let first_live = state.undo_head == NIL;
        let idx = match free.pop() {
            Some(slot) => {
                arena[slot as usize] = node;
                slot
            }
            None => {
                arena.push(node);
                u32::try_from(arena.len() - 1).expect("arena fits u32")
            }
        };
        state.undo_head = idx;
        state.versions.push((block, tid));
        if first_live {
            rows.entry(key.table())
                .or_default()
                .insert(key.row().clone(), key.clone());
        }
        by_block.entry(block).or_default().push(key.clone());
        self.undo_entries.fetch_add(1, Ordering::Release);
    }
}

impl Shard {
    /// Walk `key`'s undo chain for the visible node at `snapshot`: the
    /// *oldest* writer newer than the snapshot holds the before-image.
    fn visible_undo(&self, state: &KeyState, snapshot: BlockId) -> Option<&UndoNode> {
        let mut visible = None;
        let mut idx = state.undo_head;
        while idx != NIL {
            let node = &self.arena[idx as usize];
            if node.writer_block <= snapshot {
                break;
            }
            visible = Some(node);
            idx = node.prev;
        }
        visible
    }

    /// `key`'s undo node for writer block `block`, if it has one.
    fn node_of(&self, key: &Key, block: BlockId) -> Option<&UndoNode> {
        let mut idx = self.map.get(key)?.undo_head;
        while idx != NIL {
            let node = &self.arena[idx as usize];
            if node.writer_block <= block {
                return (node.writer_block == block).then_some(node);
            }
            idx = node.prev;
        }
        None
    }
}

/// Multi-version snapshot overlay over a [`StorageEngine`].
pub struct SnapshotStore {
    engine: Arc<StorageEngine>,
    shards: Vec<ShardCell>,
}

impl SnapshotStore {
    /// Wrap an engine. The engine's current contents are defined to be the
    /// state after `BlockId(0)` (genesis / initial load).
    #[must_use]
    pub fn new(engine: Arc<StorageEngine>) -> SnapshotStore {
        SnapshotStore {
            engine,
            shards: (0..SHARDS).map(|_| ShardCell::default()).collect(),
        }
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    fn cell_for(&self, key: &Key) -> &ShardCell {
        // The cached FNV-1a digest replaces the per-access `DefaultHasher`
        // pass over the row bytes (and is stable across releases). Shard
        // selection uses the *high* half of the digest: the in-shard hash
        // map indexes buckets with the low bits of the same value, so
        // carving the shard out of the low bits would make every key in a
        // shard collide into the same bucket cluster.
        &self.shards[((key.hash64() >> 32) as usize) % SHARDS]
    }

    /// Apply one committed write on behalf of block `block` / writer `tid`:
    /// `f` maps the key's current value, its before-image, to what the
    /// block leaves in it (`None`: deleted). The engine makes it as one
    /// read-modify-write ([`StorageEngine::update_with`]), and the undo
    /// entry records both images before the row changes. Must be called at
    /// most once per (key, block) — Harmony's coalescence guarantees that.
    ///
    /// GC horizons must not move backwards across calls (the pipeline's
    /// are monotonic), see [`SnapshotStore::gc`].
    pub fn apply_write(
        &self,
        block: BlockId,
        tid: u64,
        key: &Key,
        f: impl FnOnce(Option<&Value>) -> Result<Option<Value>>,
    ) -> Result<()> {
        self.engine
            .update_with(key.table(), key.row(), |before: Option<&Value>| {
                let after = f(before)?;
                self.cell_for(key).insert_undo(
                    key,
                    block,
                    tid,
                    before.cloned(),
                    Some(after.clone()),
                );
                Ok(after)
            })?;
        Ok(())
    }

    fn write_engine(&self, key: &Key, value: Option<&Value>) -> Result<()> {
        match value {
            Some(v) => self.engine.put(key.table(), key.row(), v)?,
            None => {
                let _ = self.engine.delete(key.table(), key.row())?;
            }
        }
        Ok(())
    }

    /// Overwrite `key` again *within the block that already recorded its
    /// undo entry* (uncoalesced apply path: later writers of the same key
    /// re-write the record without adding undo entries). The entry's
    /// after-image becomes `value`.
    ///
    /// Contract: the caller must have issued `apply_write` for this key's
    /// block first. If no version entry exists the engine write still goes
    /// through but the version history is left untouched — snapshot
    /// readers then have no before-image to hide the write (pinned by the
    /// `overwrite_without_prior_version_is_engine_only` test).
    pub fn overwrite_in_block(&self, tid: u64, key: &Key, value: Option<&Value>) -> Result<()> {
        {
            let mut guard = self.cell_for(key).shard.write();
            let Shard { map, arena, .. } = &mut *guard;
            if let Some(state) = map.get_mut(key) {
                if let Some(last) = state.versions.last_mut() {
                    last.1 = tid;
                }
                if state.undo_head != NIL {
                    arena[state.undo_head as usize].after = Some(value.cloned());
                }
            }
        }
        self.write_engine(key, value)
    }

    /// Read `key` as of the state after block `snapshot`.
    pub fn read_at(&self, snapshot: BlockId, key: &Key) -> Result<Option<Value>> {
        let cell = self.cell_for(key);
        // Common case: the shard holds no before-images at all — serve the
        // engine value without taking the shard lock.
        if cell.undo_entries.load(Ordering::Acquire) != 0 {
            let shard = cell.shard.read();
            if let Some(state) = shard.map.get(key) {
                if let Some(node) = shard.visible_undo(state, snapshot) {
                    return Ok(node.before.clone());
                }
            }
        }
        self.engine.get_as(key.table(), key.row())
    }

    /// Ordered scan of `[start, end)` in `table` as of the state after
    /// block `snapshot`. Only rows of the scanned interval are probed for
    /// overrides (via each shard's per-table ordered row index).
    pub fn scan_at(
        &self,
        snapshot: BlockId,
        table: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &Value) -> bool,
    ) -> Result<()> {
        // Collect snapshot-visible overrides for keys with newer writers.
        let mut overrides: BTreeMap<Bytes, Option<Value>> = BTreeMap::new();
        let bounds: (Bound<&[u8]>, Bound<&[u8]>) = (
            Bound::Included(start),
            end.map_or(Bound::Unbounded, Bound::Excluded),
        );
        for cell in &self.shards {
            if cell.undo_entries.load(Ordering::Acquire) == 0 {
                continue;
            }
            let shard = cell.shard.read();
            let Some(index) = shard.rows.get(&table) else {
                continue;
            };
            for (row, key) in index.range::<[u8], _>(bounds) {
                let state = shard.map.get(key).expect("indexed rows are resident");
                if let Some(node) = shard.visible_undo(state, snapshot) {
                    overrides.insert(row.clone(), node.before.clone());
                }
            }
        }
        if overrides.is_empty() {
            return self
                .engine
                .scan(table, start, end, |k, v| f(k, &Value::copy_from_slice(v)));
        }
        // Merge engine rows with overrides (override wins; None hides).
        let mut merged: BTreeMap<Bytes, Value> = BTreeMap::new();
        self.engine.scan(table, start, end, |k, v| {
            merged.insert(Bytes::copy_from_slice(k), Value::copy_from_slice(v));
            true
        })?;
        for (row, before) in overrides {
            match before {
                Some(v) => {
                    merged.insert(row, v);
                }
                None => {
                    merged.remove(&row);
                }
            }
        }
        for (k, v) in &merged {
            if !f(k, v) {
                break;
            }
        }
        Ok(())
    }

    /// Last-writer TID of `key` (`None` before any overlay write).
    #[must_use]
    pub fn version_of(&self, key: &Key) -> Option<u64> {
        let cell = self.cell_for(key);
        if cell.keys.load(Ordering::Acquire) == 0 {
            return None;
        }
        cell.shard
            .read()
            .map
            .get(key)
            .and_then(|state| state.versions.last())
            .map(|(_, tid)| *tid)
    }

    /// Last-writer TID of `key` as of the state after block `snapshot`
    /// (`None` = written only by the initial load, or never).
    #[must_use]
    pub fn version_at(&self, snapshot: BlockId, key: &Key) -> Option<u64> {
        let cell = self.cell_for(key);
        if cell.keys.load(Ordering::Acquire) == 0 {
            return None;
        }
        cell.shard
            .read()
            .map
            .get(key)
            .and_then(|state| state.versions.iter().rev().find(|(b, _)| *b <= snapshot))
            .map(|(_, tid)| *tid)
    }

    /// Drop undo entries that no live snapshot can request: everything
    /// with `writer_block <= oldest_needed` (a snapshot at `s` needs
    /// before-images of writers `> s` only). Version history keeps the
    /// newest entry at-or-before the horizon as the base version.
    ///
    /// Shards holding no undo entries are skipped without taking their
    /// write lock; the number of shards actually swept is returned
    /// (diagnostics / tests). Horizons must be non-decreasing across calls
    /// — the per-shard block log this walks is pruned as it collects, so a
    /// later call with an older horizon would find nothing.
    pub fn gc(&self, oldest_needed: BlockId) -> usize {
        let mut swept = 0;
        for cell in &self.shards {
            // Fast path: nothing to collect in this shard.
            if cell.undo_entries.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut guard = cell.shard.write();
            let live = guard.by_block.split_off(&BlockId(oldest_needed.0 + 1));
            let stale = std::mem::replace(&mut guard.by_block, live);
            if stale.is_empty() {
                continue; // undo entries exist but all are newer than the horizon
            }
            swept += 1;
            let Shard {
                map,
                arena,
                free,
                rows,
                ..
            } = &mut *guard;
            let mut freed = 0usize;
            for key in stale.values().flatten() {
                let Some(state) = map.get_mut(key) else {
                    continue;
                };
                // Split the chain at the newest stale node. Stale nodes
                // form the old suffix because blocks only grow.
                let mut newest_live = None;
                let mut idx = state.undo_head;
                while idx != NIL && arena[idx as usize].writer_block > oldest_needed {
                    newest_live = Some(idx);
                    idx = arena[idx as usize].prev;
                }
                if idx == NIL {
                    continue; // already collected via another block's list
                }
                match newest_live {
                    Some(n) => arena[n as usize].prev = NIL,
                    None => state.undo_head = NIL,
                }
                while idx != NIL {
                    let node = &mut arena[idx as usize];
                    let prev = node.prev;
                    // Release the values now, not when the slot is reused.
                    node.before = None;
                    node.after = None;
                    free.push(idx);
                    freed += 1;
                    idx = prev;
                }
                if state.undo_head == NIL {
                    if let Some(index) = rows.get_mut(&key.table()) {
                        index.remove(key.row().as_ref() as &[u8]);
                    }
                }
                if let Some(base) = state
                    .versions
                    .iter()
                    .rposition(|(b, _)| *b <= oldest_needed)
                {
                    state.versions.drain(..base);
                }
            }
            cell.undo_entries.fetch_sub(freed, Ordering::Release);
        }
        swept
    }

    /// Number of keys with live undo entries (tests / diagnostics).
    #[must_use]
    pub fn undo_keys(&self) -> usize {
        self.shards
            .iter()
            .map(|cell| {
                cell.shard
                    .read()
                    .rows
                    .values()
                    .map(BTreeMap::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Export the before-images recorded by block `block` (checkpointing
    /// support: under inter-block parallelism, block `c + 1` simulates
    /// against snapshot `c − 1`, so recovery from a checkpoint at `c` must
    /// be able to reconstruct that older snapshot). Probes only the keys
    /// the block actually wrote (per-shard block log), not every chain.
    #[must_use]
    pub fn export_undo_for(&self, block: BlockId) -> Vec<(Key, Option<Value>)> {
        let mut out = Vec::new();
        self.for_each_write_in(block, |key, node| {
            out.push((key.clone(), node.before.clone()));
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Run `f` on every key block `block` wrote, with the key's undo node
    /// for the block. Probes only the keys of the block's per-shard logs.
    fn for_each_write_in(&self, block: BlockId, mut f: impl FnMut(&Key, &UndoNode)) {
        for cell in &self.shards {
            if cell.undo_entries.load(Ordering::Acquire) == 0 {
                continue;
            }
            let shard = cell.shard.read();
            let Some(keys) = shard.by_block.get(&block) else {
                continue;
            };
            for key in keys {
                if let Some(node) = shard.node_of(key, block) {
                    f(key, node);
                }
            }
        }
    }

    /// The write-set of block `block`: every key it wrote, sorted and
    /// deduplicated. This is what the chain layer folds into the incremental
    /// state commitment at apply time — the per-shard block logs record
    /// exactly one entry per (key, block), and the log for `block` survives
    /// until GC advances past it, so the fold must happen before the *next*
    /// block's GC runs (i.e. during apply of `block` itself).
    #[must_use]
    pub fn keys_written_in(&self, block: BlockId) -> Vec<Key> {
        let mut out = Vec::new();
        for cell in &self.shards {
            if cell.undo_entries.load(Ordering::Acquire) == 0 {
                continue;
            }
            let shard = cell.shard.read();
            if let Some(keys) = shard.by_block.get(&block) {
                out.extend(keys.iter().cloned());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The write-set of block `block` by value: every key it wrote with
    /// what the block left in it (`None`: deleted), sorted by key. The
    /// same keys as [`Self::keys_written_in`], with the same lifetime, and
    /// the values the engine holds for them right after the block — so
    /// the chain folds its commitment without reading a row.
    ///
    /// # Errors
    /// [`Error::NotFound`] when the block's undo nodes were restored by
    /// [`Self::import_undo_for`], which knows before-images only: its
    /// after-images are not known, and guessing would commit a wrong root.
    pub fn writes_in(&self, block: BlockId) -> Result<Vec<(Key, Option<Value>)>> {
        let mut out = Vec::new();
        let mut unknown = None;
        self.for_each_write_in(block, |key, node| match &node.after {
            Some(after) => out.push((key.clone(), after.clone())),
            None => unknown = Some(key.clone()),
        });
        if let Some(key) = unknown {
            return Err(Error::NotFound(format!(
                "after-image of {key:?} in block {block}: the block's undo entries were \
                 imported, with before-images only"
            )));
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out.dedup_by(|a, b| a.0 == b.0);
        Ok(out)
    }

    /// Re-install before-images exported by [`Self::export_undo_for`]
    /// (recovery path). Also restores the version history entry for the
    /// writing block. The block's after-images stay unknown, so
    /// [`Self::writes_in`] refuses the block.
    pub fn import_undo_for(&self, block: BlockId, entries: &[(Key, Option<Value>)], tid: u64) {
        for (key, before) in entries {
            self.cell_for(key)
                .insert_undo(key, block, tid, before.clone(), None);
        }
    }

    /// A [`SnapshotView`] of the state after `block`.
    #[must_use]
    pub fn view_at(&self, block: BlockId) -> SnapshotViewAt<'_> {
        SnapshotViewAt { store: self, block }
    }
}

/// [`SnapshotView`] adapter: reads the state after a fixed block.
pub struct SnapshotViewAt<'a> {
    store: &'a SnapshotStore,
    block: BlockId,
}

impl SnapshotView for SnapshotViewAt<'_> {
    fn get(&self, key: &Key) -> Result<Option<Value>> {
        self.store.read_at(self.block, key)
    }

    fn scan(
        &self,
        table: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &Value) -> bool,
    ) -> Result<()> {
        self.store.scan_at(self.block, table, start, end, f)
    }

    fn version_of(&self, key: &Key) -> Option<u64> {
        self.store.version_at(self.block, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_storage::StorageConfig;

    fn store() -> (SnapshotStore, TableId) {
        let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
        let t = engine.create_table("t").unwrap();
        (SnapshotStore::new(engine), t)
    }

    fn key(t: TableId, s: &str) -> Key {
        Key::new(t, s.as_bytes().to_vec())
    }

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    /// Write `value` into `key` in `block`, whatever the key held.
    fn write(s: &SnapshotStore, block: BlockId, tid: u64, key: &Key, value: Option<Value>) {
        s.apply_write(block, tid, key, |_| Ok(value)).unwrap();
    }

    #[test]
    fn snapshot_isolation_across_blocks() {
        let (s, t) = store();
        s.engine().put(t, b"x", b"v0").unwrap(); // genesis state
        write(&s, BlockId(1), 100, &key(t, "x"), Some(val("v1")));
        write(&s, BlockId(2), 200, &key(t, "x"), Some(val("v2")));
        assert_eq!(
            s.read_at(BlockId(0), &key(t, "x")).unwrap(),
            Some(val("v0"))
        );
        assert_eq!(
            s.read_at(BlockId(1), &key(t, "x")).unwrap(),
            Some(val("v1"))
        );
        assert_eq!(
            s.read_at(BlockId(2), &key(t, "x")).unwrap(),
            Some(val("v2"))
        );
        assert_eq!(
            s.read_at(BlockId(9), &key(t, "x")).unwrap(),
            Some(val("v2"))
        );
    }

    #[test]
    fn keys_written_in_exports_sorted_per_block_write_set() {
        let (s, t) = store();
        write(&s, BlockId(1), 1, &key(t, "b"), Some(val("b1")));
        write(&s, BlockId(1), 2, &key(t, "a"), Some(val("a1")));
        write(&s, BlockId(1), 3, &key(t, "c"), None); // delete counts
        write(&s, BlockId(2), 4, &key(t, "a"), Some(val("a2")));
        assert_eq!(
            s.keys_written_in(BlockId(1)),
            vec![key(t, "a"), key(t, "b"), key(t, "c")]
        );
        assert_eq!(s.keys_written_in(BlockId(2)), vec![key(t, "a")]);
        assert!(s.keys_written_in(BlockId(3)).is_empty());
        // GC past block 1 drops its log but keeps block 2's.
        s.gc(BlockId(1));
        assert!(s.keys_written_in(BlockId(1)).is_empty());
        assert_eq!(s.keys_written_in(BlockId(2)), vec![key(t, "a")]);
    }

    #[test]
    fn writes_in_hands_over_each_blocks_after_images() {
        let (s, t) = store();
        s.engine().put(t, b"a", b"a0").unwrap();
        write(&s, BlockId(1), 1, &key(t, "b"), Some(val("b1")));
        s.apply_write(BlockId(1), 2, &key(t, "a"), |before| {
            assert_eq!(
                before,
                Some(&val("a0")),
                "the row's value is handed to the write"
            );
            Ok(None)
        })
        .unwrap();
        write(&s, BlockId(1), 3, &key(t, "c"), Some(val("c1")));
        s.overwrite_in_block(4, &key(t, "c"), Some(&val("c1b")))
            .unwrap();
        write(&s, BlockId(2), 5, &key(t, "b"), None);
        assert_eq!(
            s.writes_in(BlockId(1)).unwrap(),
            vec![
                (key(t, "a"), None),
                (key(t, "b"), Some(val("b1"))),
                (key(t, "c"), Some(val("c1b"))),
            ]
        );
        assert_eq!(s.writes_in(BlockId(2)).unwrap(), vec![(key(t, "b"), None)]);
        assert!(s.writes_in(BlockId(3)).unwrap().is_empty());
        // The before-image handed in is what snapshot readers see.
        assert_eq!(
            s.read_at(BlockId(0), &key(t, "a")).unwrap(),
            Some(val("a0"))
        );
        assert_eq!(s.read_at(BlockId(1), &key(t, "a")).unwrap(), None);
        s.gc(BlockId(1));
        assert!(s.writes_in(BlockId(1)).unwrap().is_empty());
    }

    #[test]
    fn writes_in_refuses_an_imported_block() {
        let (s, t) = store();
        s.import_undo_for(BlockId(4), &[(key(t, "x"), Some(val("x3")))], 9);
        assert!(matches!(s.writes_in(BlockId(4)), Err(Error::NotFound(_))));
        // The keys are still known, and later blocks fold as usual.
        assert_eq!(s.keys_written_in(BlockId(4)), vec![key(t, "x")]);
        write(&s, BlockId(5), 10, &key(t, "x"), Some(val("x5")));
        assert_eq!(
            s.writes_in(BlockId(5)).unwrap(),
            vec![(key(t, "x"), Some(val("x5")))]
        );
    }

    #[test]
    fn snapshot_hides_insert_and_restores_delete() {
        let (s, t) = store();
        s.engine().put(t, b"old", b"o").unwrap();
        write(&s, BlockId(1), 1, &key(t, "new"), Some(val("n")));
        write(&s, BlockId(1), 2, &key(t, "old"), None);
        // At snapshot 0: "new" invisible, "old" still present.
        assert_eq!(s.read_at(BlockId(0), &key(t, "new")).unwrap(), None);
        assert_eq!(
            s.read_at(BlockId(0), &key(t, "old")).unwrap(),
            Some(val("o"))
        );
        // At snapshot 1: reversed.
        assert_eq!(
            s.read_at(BlockId(1), &key(t, "new")).unwrap(),
            Some(val("n"))
        );
        assert_eq!(s.read_at(BlockId(1), &key(t, "old")).unwrap(), None);
    }

    #[test]
    fn scan_at_sees_snapshot_consistent_rows() {
        let (s, t) = store();
        s.engine().put(t, b"a", b"a0").unwrap();
        s.engine().put(t, b"c", b"c0").unwrap();
        write(&s, BlockId(1), 1, &key(t, "b"), Some(val("b1"))); // insert
        write(&s, BlockId(1), 2, &key(t, "c"), None); // delete
        write(&s, BlockId(1), 3, &key(t, "a"), Some(val("a1"))); // update

        let collect = |snap: u64| {
            let mut rows = Vec::new();
            s.scan_at(BlockId(snap), t, b"", None, &mut |k, v| {
                rows.push((k.to_vec(), v.clone()));
                true
            })
            .unwrap();
            rows
        };
        let snap0 = collect(0);
        assert_eq!(
            snap0,
            vec![(b"a".to_vec(), val("a0")), (b"c".to_vec(), val("c0")),]
        );
        let snap1 = collect(1);
        assert_eq!(
            snap1,
            vec![(b"a".to_vec(), val("a1")), (b"b".to_vec(), val("b1")),]
        );
    }

    #[test]
    fn scan_at_range_probes_only_the_interval() {
        let (s, t) = store();
        for i in 0..100u64 {
            s.engine().put(t, &i.to_be_bytes(), b"base").unwrap();
        }
        for i in 0..100u64 {
            write(&s, BlockId(1), i, &Key::from_u64(t, i), Some(val("new")));
        }
        let mut rows = Vec::new();
        s.scan_at(
            BlockId(0),
            t,
            &40u64.to_be_bytes(),
            Some(&45u64.to_be_bytes()),
            &mut |k, v| {
                rows.push((k.to_vec(), v.clone()));
                true
            },
        )
        .unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|(_, v)| v == &val("base")));
    }

    #[test]
    fn versions_track_last_writer() {
        let (s, t) = store();
        assert_eq!(s.version_of(&key(t, "x")), None);
        write(&s, BlockId(1), 111, &key(t, "x"), Some(val("v")));
        assert_eq!(s.version_of(&key(t, "x")), Some(111));
        write(&s, BlockId(2), 222, &key(t, "x"), Some(val("w")));
        assert_eq!(s.version_of(&key(t, "x")), Some(222));
    }

    #[test]
    fn gc_drops_only_stale_entries() {
        let (s, t) = store();
        s.engine().put(t, b"x", b"v0").unwrap();
        write(&s, BlockId(1), 1, &key(t, "x"), Some(val("v1")));
        write(&s, BlockId(2), 2, &key(t, "x"), Some(val("v2")));
        assert_eq!(s.undo_keys(), 1);
        s.gc(BlockId(1));
        // Snapshot 1 must still be reconstructible.
        assert_eq!(
            s.read_at(BlockId(1), &key(t, "x")).unwrap(),
            Some(val("v1"))
        );
        s.gc(BlockId(2));
        assert_eq!(s.undo_keys(), 0);
        // Latest state still served from the engine.
        assert_eq!(
            s.read_at(BlockId(5), &key(t, "x")).unwrap(),
            Some(val("v2"))
        );
    }

    #[test]
    fn gc_fast_path_skips_clean_shards() {
        let (s, t) = store();
        // Nothing written: no shard is swept.
        assert_eq!(s.gc(BlockId(5)), 0);
        write(&s, BlockId(1), 1, &key(t, "a"), Some(val("v")));
        write(&s, BlockId(1), 2, &key(t, "b"), Some(val("v")));
        // Undo entries exist but are newer than the horizon: nothing swept.
        assert_eq!(s.gc(BlockId(0)), 0);
        assert_eq!(s.undo_keys(), 2);
        // Two keys land in at most two shards; only those are swept.
        let swept = s.gc(BlockId(1));
        assert!((1..=2).contains(&swept), "swept {swept} shards");
        assert_eq!(s.undo_keys(), 0);
        // Everything already collected: the whole pass is lock-free.
        assert_eq!(s.gc(BlockId(2)), 0);
    }

    #[test]
    fn arena_slots_are_recycled_across_gc_cycles() {
        let (s, t) = store();
        s.engine().put(t, b"x", b"v0").unwrap();
        // Steady-state pipeline: one write + one gc per block. The arena
        // must not grow with the number of blocks.
        for b in 1..=100u64 {
            write(&s, BlockId(b), b, &key(t, "x"), Some(val("v")));
            s.gc(BlockId(b.saturating_sub(1)));
        }
        let cell = s.cell_for(&key(t, "x"));
        let arena_len = cell.shard.read().arena.len();
        assert!(arena_len <= 2, "arena grew to {arena_len} slots");
    }

    #[test]
    fn overwrite_without_prior_version_is_engine_only() {
        // Contract pin: overwrite_in_block on a key with no prior version
        // entry writes the engine but records neither a version nor an
        // undo entry (callers must apply_write first; see the method docs).
        let (s, t) = store();
        s.overwrite_in_block(7, &key(t, "ghost"), Some(&val("g")))
            .unwrap();
        assert_eq!(s.engine().get(t, b"ghost").unwrap().unwrap(), b"g");
        assert_eq!(s.version_of(&key(t, "ghost")), None, "no version recorded");
        assert_eq!(s.undo_keys(), 0, "no undo entry recorded");
        // Snapshot readers consequently see the overwrite at any snapshot.
        assert_eq!(
            s.read_at(BlockId(0), &key(t, "ghost")).unwrap(),
            Some(val("g"))
        );
    }

    #[test]
    fn overwrite_after_apply_write_updates_last_writer() {
        let (s, t) = store();
        s.engine().put(t, b"x", b"v0").unwrap();
        write(&s, BlockId(1), 10, &key(t, "x"), Some(val("v1")));
        s.overwrite_in_block(11, &key(t, "x"), Some(&val("v1b")))
            .unwrap();
        assert_eq!(s.version_of(&key(t, "x")), Some(11));
        // The undo chain still restores the pre-block value.
        assert_eq!(
            s.read_at(BlockId(0), &key(t, "x")).unwrap(),
            Some(val("v0"))
        );
    }

    #[test]
    fn scan_at_consistent_under_concurrent_later_block_writes() {
        // Robustness pin: scans of an old snapshot racing the *next*
        // block's apply step must neither deadlock nor tear rows — every
        // returned value is one of the two committed states of its row,
        // and once the writer joins the scan is exact.
        let (s, t) = store();
        for i in 0..200u64 {
            s.engine().put(t, &i.to_be_bytes(), b"v1").unwrap();
        }
        let writer = |store: &SnapshotStore| {
            for i in 0..200u64 {
                write(store, BlockId(2), i, &Key::from_u64(t, i), Some(val("v2")));
            }
        };
        std::thread::scope(|scope| {
            let sref = &s;
            scope.spawn(move || writer(sref));
            for _ in 0..20 {
                let mut rows = 0usize;
                sref.scan_at(BlockId(1), t, b"", None, &mut |_, v| {
                    assert!(v == &val("v1") || v == &val("v2"), "torn row value {v:?}");
                    rows += 1;
                    true
                })
                .unwrap();
                assert_eq!(rows, 200, "rows must never disappear mid-apply");
            }
        });
        // Writer finished: snapshot 1 is exactly the pre-block state.
        let mut seen = 0usize;
        s.scan_at(BlockId(1), t, b"", None, &mut |_, v| {
            assert_eq!(v, &val("v1"));
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, 200);
        // And snapshot 2 is the post-block state.
        s.scan_at(BlockId(2), t, b"", None, &mut |_, v| {
            assert_eq!(v, &val("v2"));
            true
        })
        .unwrap();
    }

    #[test]
    fn export_import_roundtrip_restores_snapshots() {
        let (s, t) = store();
        s.engine().put(t, b"x", b"v0").unwrap();
        write(&s, BlockId(1), 1, &key(t, "x"), Some(val("v1")));
        write(&s, BlockId(2), 2, &key(t, "x"), Some(val("v2")));
        write(&s, BlockId(2), 3, &key(t, "y"), Some(val("y2")));
        let undo2 = s.export_undo_for(BlockId(2));
        assert_eq!(undo2.len(), 2, "block 2 wrote x and y");
        // Fresh store at the post-block-2 state.
        let (s2, t2) = store();
        assert_eq!(t, t2);
        s2.engine().put(t, b"x", b"v2").unwrap();
        s2.engine().put(t, b"y", b"y2").unwrap();
        s2.import_undo_for(BlockId(2), &undo2, 9);
        assert_eq!(
            s2.read_at(BlockId(1), &key(t, "x")).unwrap(),
            Some(val("v1"))
        );
        assert_eq!(s2.read_at(BlockId(1), &key(t, "y")).unwrap(), None);
        assert_eq!(s2.version_of(&key(t, "y")), Some(9));
    }

    #[test]
    fn view_adapter_implements_snapshot_view() {
        let (s, t) = store();
        s.engine().put(t, b"k", b"v").unwrap();
        write(&s, BlockId(3), 1, &key(t, "k"), Some(val("w")));
        let v0 = s.view_at(BlockId(0));
        assert_eq!(v0.get(&key(t, "k")).unwrap(), Some(val("v")));
        let v3 = s.view_at(BlockId(3));
        assert_eq!(v3.get(&key(t, "k")).unwrap(), Some(val("w")));
        assert_eq!(v3.version_of(&key(t, "k")), Some(1));
    }
}
