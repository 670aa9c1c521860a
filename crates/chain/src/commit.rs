//! Incrementally maintained authenticated state commitment.
//!
//! Every replica-consistency check in the system — root gossip, state-sync
//! verification, the N-shard ≡ 1-shard proptests — needs a digest of the
//! full database. Rescanning every table per check is O(n) and was the
//! single hottest non-execution path; instead the chain keeps one
//! [`AuthMap`] per table and folds each block's write-set into it at apply
//! time: the write-set comes sorted by `(table, row)`, so each table's run
//! goes to [`AuthMap::apply_sorted`] whole — one descent per touched
//! subtree, each touched tree node hashed once per block (the upper levels
//! a block's keys share are not rehashed per key) — and the root is O(1)
//! to read.
//!
//! The fold takes the write-set *by value* ([`StateCommitment::fold_writes`]):
//! the chain hands it the after-images its snapshot store kept from the
//! block's own writes, already sorted and deduplicated, so folding reads no
//! row of the database and sorts nothing.
//! [`StateCommitment::apply_writes`] is the same fold for callers holding
//! only keys: it sorts them and reads each key's post-state first.
//!
//! The commitment is **history independent** (the treap shape is a pure
//! function of the key set), so the same structure serves both paths:
//! [`StateCommitment::build`] from a full scan is the audit oracle, and the
//! incrementally folded instance a replica maintains must equal it bit for
//! bit. The scan yields each table in key order, so the build is O(n): an
//! [`AuthMapBuilder`] links and hashes each row once. Table names enter the
//! top-level fold length-prefixed — fixing the boundary ambiguity the old
//! flat digest had — and each table's root is an [`AuthMap`] root, so any
//! row has an O(log n) inclusion proof against its table root plus the
//! table head list ([`StateCommitment::table_heads`]) to reach the state
//! root: the proof surface for light-client queries.

use harmony_common::ids::TableId;
use harmony_common::Result;
use harmony_crypto::{AuthMap, AuthMapBuilder, Digest, MapProof, Sha256};
use harmony_storage::StorageEngine;
use harmony_txn::{Key, Value};

struct TableCommit {
    name: String,
    id: TableId,
    map: AuthMap,
}

/// Per-table authenticated maps plus a cached top-level root.
pub struct StateCommitment {
    /// Sorted by [`TableId`] — the catalog enumeration order, which is what
    /// the top-level fold commits to.
    tables: Vec<TableCommit>,
    root: Option<Digest>,
}

/// Fold `(name, root)` table heads into the state root. Names are
/// length-prefixed so adjacent name/digest boundaries are unambiguous.
pub fn fold_table_roots<N: AsRef<str>>(heads: &[(N, Digest)]) -> Digest {
    let mut h = Sha256::new();
    for (name, root) in heads {
        let name = name.as_ref().as_bytes();
        h.update(&u32::try_from(name.len()).unwrap_or(u32::MAX).to_le_bytes());
        h.update(name);
        h.update(&root.0);
    }
    h.finalize()
}

impl StateCommitment {
    /// Build the commitment from a full scan of every table — the audit
    /// oracle, and the bootstrap path the first time a chain needs a root.
    pub fn build(engine: &StorageEngine) -> Result<StateCommitment> {
        let mut c = StateCommitment {
            tables: Vec::new(),
            root: None,
        };
        c.refresh_catalog(engine);
        for table in &mut c.tables {
            let rows = usize::try_from(engine.table_len(table.id)?).unwrap_or(0);
            let mut builder = AuthMapBuilder::with_capacity(rows);
            engine.scan(table.id, b"", None, |k, v| {
                builder.push(k, v);
                true
            })?;
            table.map = builder.finish();
        }
        Ok(c)
    }

    /// Fold one block's write-set by value: upsert each `(key, Some(value))`
    /// and remove each `(key, None)`, one sorted run per touched table.
    /// Reads no row (only the catalog, for a table created since the last
    /// fold). `writes` sorted by key without repeats — what
    /// `SnapshotStore::writes_in` hands over — is folded as it is; any
    /// other order is sorted first, and a key listed twice ends at its
    /// later entry. O(Δ·log n).
    pub fn fold_writes(
        &mut self,
        engine: &StorageEngine,
        writes: &[(Key, Option<Value>)],
    ) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        self.root = None;
        let sorted;
        let writes = if writes.is_sorted_by(|a, b| a.0 < b.0) {
            writes
        } else {
            // Stable, so of two entries for a key the later one is kept.
            let mut by_key = writes.to_vec();
            by_key.sort_by(|a, b| a.0.cmp(&b.0));
            by_key.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
            sorted = by_key;
            &sorted
        };
        for run in writes.chunk_by(|a, b| a.0.table() == b.0.table()) {
            let table = run[0].0.table();
            let idx = match self.table_index(table) {
                Some(idx) => idx,
                None => {
                    // A table created since the last catalog refresh.
                    self.refresh_catalog(engine);
                    self.table_index(table).ok_or_else(|| {
                        harmony_common::Error::InvalidArgument(format!(
                            "write to unknown table {table:?}"
                        ))
                    })?
                }
            };
            self.tables[idx].map.apply_sorted(
                run.iter()
                    .map(|(key, value)| (&key.row()[..], value.as_deref())),
            );
        }
        Ok(())
    }

    /// Fold one block's write-set given by key: sort the keys, read each
    /// one's post-state from the engine, then [`Self::fold_writes`]. `keys`
    /// may come in any order and repeat. O(Δ·log n).
    pub fn apply_writes(&mut self, engine: &StorageEngine, keys: &[Key]) -> Result<()> {
        let mut keys = keys.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let writes = keys
            .into_iter()
            .map(|key| {
                let value = engine.get_as(key.table(), key.row())?;
                Ok((key, value))
            })
            .collect::<Result<Vec<_>>>()?;
        self.fold_writes(engine, &writes)
    }

    /// The state root. O(T) fold over cached per-table roots when dirty,
    /// O(1) otherwise.
    pub fn root(&mut self) -> Digest {
        if let Some(root) = self.root {
            return root;
        }
        let heads: Vec<(&str, Digest)> = self
            .tables
            .iter()
            .map(|t| (t.name.as_str(), t.map.root()))
            .collect();
        let root = fold_table_roots(&heads);
        self.root = Some(root);
        root
    }

    /// `(name, root)` per table in catalog order — what a light client needs
    /// to tie a table root to the state root via [`fold_table_roots`].
    #[must_use]
    pub fn table_heads(&self) -> Vec<(String, Digest)> {
        self.tables
            .iter()
            .map(|t| (t.name.clone(), t.map.root()))
            .collect()
    }

    /// Inclusion proof for a row against its table's root, or None if the
    /// table or row is absent. Verify with [`AuthMap::verify`] against the
    /// matching entry of [`StateCommitment::table_heads`].
    #[must_use]
    pub fn prove_row(&self, table: TableId, row: &[u8]) -> Option<MapProof> {
        let idx = self.table_index(table)?;
        self.tables[idx].map.prove(row)
    }

    /// Total number of committed rows across all tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.iter().map(|t| t.map.len()).sum()
    }

    /// True when no rows are committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn table_index(&self, id: TableId) -> Option<usize> {
        self.tables.binary_search_by_key(&id, |t| t.id).ok()
    }

    /// Register any catalog tables not yet tracked (empty maps); keeps
    /// `tables` sorted by id. Existing maps are untouched.
    fn refresh_catalog(&mut self, engine: &StorageEngine) {
        for (name, id) in engine.list_tables() {
            if self.table_index(id).is_none() {
                let at = self.tables.partition_point(|t| t.id < id);
                self.tables.insert(
                    at,
                    TableCommit {
                        name,
                        id,
                        map: AuthMap::new(),
                    },
                );
                self.root = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_storage::StorageConfig;

    fn engine() -> StorageEngine {
        StorageEngine::open(&StorageConfig::memory()).unwrap()
    }

    #[test]
    fn build_matches_incremental_folding() {
        let e = engine();
        let t = e.create_table("accounts").unwrap();
        let u = e.create_table("orders").unwrap();
        for i in 0..200u64 {
            e.put(t, format!("a{i}").as_bytes(), b"0").unwrap();
        }
        let mut inc = StateCommitment::build(&e).unwrap();

        // Mutate: updates, an insert, a delete, and a write to the other table.
        let mut keys = Vec::new();
        for i in (0..200u64).step_by(7) {
            let row = format!("a{i}").into_bytes();
            e.put(t, &row, b"1").unwrap();
            keys.push(Key::new(t, row));
        }
        e.put(t, b"a-new", b"x").unwrap();
        keys.push(Key::new(t, b"a-new".to_vec()));
        e.delete(t, b"a3").unwrap();
        keys.push(Key::new(t, b"a3".to_vec()));
        e.put(u, b"o1", b"y").unwrap();
        keys.push(Key::new(u, b"o1".to_vec()));
        inc.apply_writes(&e, &keys).unwrap();

        let mut oracle = StateCommitment::build(&e).unwrap();
        assert_eq!(inc.root(), oracle.root());
        assert_eq!(inc.len(), oracle.len());

        // Several more blocks on the same commitment: updates, inserts and
        // deletes interleaved over both tables, with `keys` neither sorted
        // nor grouped by table and with repeats — a row written twice, a
        // row inserted and then deleted, a delete of a row never present.
        for block in 1..=6u64 {
            let mut keys = Vec::new();
            let mut write = |table, row: String, value: Option<&[u8]>| {
                match value {
                    Some(value) => e.put(table, row.as_bytes(), value).unwrap(),
                    None => {
                        e.delete(table, row.as_bytes()).unwrap();
                    }
                }
                keys.push(Key::new(table, row.into_bytes()));
            };
            for i in (0..40u64).rev() {
                let n = (i * 37 + block * 11) % 230;
                let value = format!("b{block}-{i}");
                match i % 5 {
                    0 => write(u, format!("o{n}"), Some(value.as_bytes())),
                    1 => write(t, format!("a{n}"), None),
                    2 => write(u, format!("o{}", n + 1), None),
                    _ => write(t, format!("a{n}"), Some(value.as_bytes())),
                }
            }
            write(t, format!("twice-{block}"), Some(b"first"));
            write(u, format!("gone-{block}"), Some(b"short-lived"));
            write(t, format!("twice-{block}"), Some(b"second"));
            write(u, format!("gone-{block}"), None);
            write(t, "never-there".to_string(), None);
            assert!(!keys.is_sorted(), "the fold must not rely on sorted keys");
            inc.apply_writes(&e, &keys).unwrap();

            let mut oracle = StateCommitment::build(&e).unwrap();
            assert_eq!(inc.root(), oracle.root(), "block {block}");
            assert_eq!(inc.len(), oracle.len(), "block {block}");
            assert_eq!(inc.table_heads(), oracle.table_heads(), "block {block}");
        }
        // An empty write-set is a no-op.
        let before = inc.root();
        inc.apply_writes(&e, &[]).unwrap();
        assert_eq!(inc.root(), before);
    }

    #[test]
    fn fold_by_value_takes_the_values_given_and_later_entries_win() {
        let e = engine();
        let t = e.create_table("t").unwrap();
        e.put(t, b"a", b"0").unwrap();
        e.put(t, b"b", b"0").unwrap();
        let mut inc = StateCommitment::build(&e).unwrap();
        let key = |row: &str| Key::new(t, row.as_bytes().to_vec());
        let value = |v: &str| Some(Value::copy_from_slice(v.as_bytes()));
        // The engine has not been written yet: only the values given count.
        inc.fold_writes(
            &e,
            &[
                (key("a"), value("stale")),
                (key("c"), value("1")),
                (key("b"), None),
                (key("a"), value("2")),
            ],
        )
        .unwrap();
        e.put(t, b"a", b"2").unwrap();
        e.put(t, b"c", b"1").unwrap();
        e.delete(t, b"b").unwrap();
        let mut oracle = StateCommitment::build(&e).unwrap();
        assert_eq!(inc.root(), oracle.root());
        assert_eq!(inc.len(), 2);
    }

    #[test]
    fn apply_writes_registers_tables_created_after_build() {
        let e = engine();
        e.create_table("t0").unwrap();
        let mut inc = StateCommitment::build(&e).unwrap();
        let late = e.create_table("late").unwrap();
        e.put(late, b"k", b"v").unwrap();
        inc.apply_writes(&e, &[Key::new(late, b"k".to_vec())])
            .unwrap();
        let mut oracle = StateCommitment::build(&e).unwrap();
        assert_eq!(inc.root(), oracle.root());
    }

    #[test]
    fn table_names_are_length_prefixed_in_fold() {
        // ("ab" table containing row c=…) vs ("a" table containing row bc=…)
        // style boundary shifts must not collide at the top-level fold.
        let r = Digest([7; 32]);
        let a = fold_table_roots(&[("ab", r), ("c", r)]);
        let b = fold_table_roots(&[("a", r), ("bc", r)]);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_table_still_contributes_its_name() {
        let e = engine();
        e.create_table("empty").unwrap();
        let mut with = StateCommitment::build(&e).unwrap();
        let f = engine();
        let mut without = StateCommitment::build(&f).unwrap();
        assert_ne!(with.root(), without.root());
    }

    #[test]
    fn row_proofs_verify_against_table_heads() {
        let e = engine();
        let t = e.create_table("accounts").unwrap();
        for i in 0..64u64 {
            e.put(t, format!("a{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let mut c = StateCommitment::build(&e).unwrap();
        let root = c.root();
        let heads = c.table_heads();
        assert_eq!(fold_table_roots(&heads), root);
        let proof = c.prove_row(t, b"a17").unwrap();
        let table_root = heads
            .iter()
            .find(|(n, _)| n == "accounts")
            .map(|(_, r)| *r)
            .unwrap();
        assert!(AuthMap::verify(&table_root, b"a17", b"v17", &proof));
        assert!(!AuthMap::verify(&table_root, b"a17", b"v18", &proof));
        assert!(c.prove_row(t, b"absent").is_none());
    }
}
