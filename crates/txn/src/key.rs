//! Table-qualified row keys and values.

use std::fmt;
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use harmony_common::codec::{Reader, Writer};
use harmony_common::hash::{fnv1a64, fnv1a64_seeded};
use harmony_common::ids::TableId;
use harmony_common::Result;

/// A row value. `Bytes` keeps clones cheap: values flow through read sets,
/// update commands and undo records.
pub type Value = Bytes;

/// A table-qualified row key with a cached stable hash.
///
/// The 64-bit FNV-1a digest of `table ∥ row` is computed **once** at
/// construction and reused everywhere the key is hashed afterwards —
/// snapshot/reservation shard selection and (via a pass-through hasher
/// like [`harmony_common::hash::NoRehash`]) every hash-map probe on the
/// execution hot path. Because the digest is FNV-1a rather than `std`'s
/// release-unstable `DefaultHasher`, hash-derived placement is identical
/// across platforms and compiler versions — a correctness property for a
/// deterministic system, not just a perf knob.
///
/// Fields are private so the cached digest can never drift from the
/// `(table, row)` pair it was computed over; use [`Key::table`],
/// [`Key::row`] and [`Key::into_row`] to access them.
#[derive(Clone)]
pub struct Key {
    table: TableId,
    row: Bytes,
    hash: u64,
}

impl Key {
    /// Build a key (computes and caches the stable hash).
    pub fn new(table: TableId, row: impl Into<Bytes>) -> Key {
        let row = row.into();
        let hash = fnv1a64_seeded(fnv1a64(&table.0.to_be_bytes()), &row);
        Key { table, row, hash }
    }

    /// Convenience constructor from a `u64` row id (big-endian so byte
    /// order matches numeric order in the B+Tree). The 8 bytes are kept
    /// inline: building the key allocates nothing.
    #[must_use]
    pub fn from_u64(table: TableId, id: u64) -> Key {
        Key::new(table, id.to_be_bytes())
    }

    /// Table the row lives in.
    #[inline]
    #[must_use]
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Row key bytes within the table.
    #[inline]
    #[must_use]
    pub fn row(&self) -> &Bytes {
        &self.row
    }

    /// Consume the key, yielding its row bytes (no copy).
    #[inline]
    #[must_use]
    pub fn into_row(self) -> Bytes {
        self.row
    }

    /// The cached 64-bit FNV-1a digest of `table ∥ row`.
    #[inline]
    #[must_use]
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// Append the key's encoding: the table id, then the length-prefixed
    /// row bytes. Every persisted or transferred key uses it.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u16(self.table.0);
        w.put_bytes(&self.row);
    }

    /// Read a key written by [`Key::encode_into`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Key> {
        let table = TableId(r.get_u16()?);
        Ok(Key::new(table, r.get_bytes()?))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        // The cached digest is a pure function of (table, row): a mismatch
        // proves inequality without touching the row bytes.
        self.hash == other.hash && self.table == other.table && self.row == other.row
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        // Ordering ignores the cached hash: keys sort by (table, row) so
        // ordered containers and deterministic tie-breaks see byte order.
        (self.table, &self.row).cmp(&(other.table, &other.row))
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.table.0, HexOrText(&self.row))
    }
}

struct HexOrText<'a>(&'a [u8]);

impl fmt::Display for HexOrText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.iter().all(|b| b.is_ascii_graphic()) && !self.0.is_empty() {
            write!(f, "{}", String::from_utf8_lossy(self.0))
        } else {
            for b in self.0 {
                write!(f, "{b:02x}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_equality_and_hash() {
        use std::collections::HashSet;
        let a = Key::new(TableId(1), &b"alice"[..]);
        let b = Key::new(TableId(1), b"alice".to_vec());
        let c = Key::new(TableId(2), &b"alice"[..]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn from_u64_preserves_order() {
        let a = Key::from_u64(TableId(0), 5);
        let b = Key::from_u64(TableId(0), 300);
        assert!(a.row() < b.row(), "big-endian keys sort numerically");
        assert!(a < b, "key order follows row order within a table");
    }

    #[test]
    fn cached_hash_is_stable_fnv_of_table_and_row() {
        let k = Key::new(TableId(7), &b"acct-1"[..]);
        let expected = fnv1a64_seeded(fnv1a64(&7u16.to_be_bytes()), b"acct-1");
        assert_eq!(k.hash64(), expected);
        // Same digest regardless of how the row buffer was produced.
        assert_eq!(Key::new(TableId(7), b"acct-1".to_vec()).hash64(), expected);
    }

    #[test]
    fn hash_distinguishes_tables_with_same_row() {
        let a = Key::new(TableId(1), &b"row"[..]);
        let b = Key::new(TableId(2), &b"row"[..]);
        assert_ne!(a.hash64(), b.hash64());
    }

    #[test]
    fn std_hash_emits_cached_digest() {
        use harmony_common::hash::BuildNoRehash;
        use std::hash::BuildHasher;
        let k = Key::new(TableId(3), &b"k"[..]);
        let h = BuildNoRehash::default().hash_one(&k);
        assert_eq!(h, k.hash64(), "pass-through hasher sees the cached hash");
    }

    #[test]
    fn debug_renders_text_and_hex() {
        let text = Key::new(TableId(3), &b"acct-9"[..]);
        assert_eq!(format!("{text:?}"), "3:acct-9");
        let bin = Key::new(TableId(3), vec![0u8, 255u8]);
        assert_eq!(format!("{bin:?}"), "3:00ff");
    }
}
