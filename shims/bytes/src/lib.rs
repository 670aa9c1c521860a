//! Minimal, offline stand-in for the `bytes` crate.
//!
//! Implements the subset of the `bytes` 1.x API this workspace uses:
//! [`Bytes`] (a cheaply-clonable immutable byte buffer), [`BytesMut`]
//! (a growable builder that freezes into [`Bytes`]), and the [`Buf`] /
//! [`BufMut`] traits with the little-endian accessors the codec needs.
//!
//! `Bytes` is 24 bytes and holds its contents one of three ways:
//!
//! * **inline**, up to [`INLINE_CAP`] (22) bytes inside the value itself:
//!   building, cloning and dropping one allocates nothing — row keys and
//!   small row values, the bulk of what flows through read sets, write
//!   sets and snapshots;
//! * **shared**, in one `Arc<[u8]>` allocation (count and bytes together):
//!   clones are O(1) and the buffer is shared;
//! * **static**, borrowing a `&'static [u8]` (`from_static`, zero-copy).
//!
//! Building a longer buffer from a `Vec<u8>` (`From<Vec<u8>>`,
//! [`BytesMut::freeze`]) therefore copies it once into the shared
//! allocation; code that only needs the bytes back should keep its `Vec`.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The longest contents a [`Bytes`] keeps inline, without allocating.
pub const INLINE_CAP: usize = 22;

/// A cheaply clonable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// `data[..len]`; `len <= INLINE_CAP`.
    Inline {
        len: u8,
        data: [u8; INLINE_CAP],
    },
    Shared(Arc<[u8]>),
    Static(&'static [u8]),
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Wrap a static slice (zero-copy).
    #[must_use]
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(data),
        }
    }

    /// Copy a slice into a new buffer: inline up to [`INLINE_CAP`] bytes,
    /// else one allocation.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        let repr = if data.len() <= INLINE_CAP {
            let mut inline = [0; INLINE_CAP];
            inline[..data.len()].copy_from_slice(data);
            Repr::Inline {
                len: data.len() as u8,
                data: inline,
            }
        } else {
            Repr::Shared(Arc::from(data))
        };
        Bytes { repr }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, data } => &data[..usize::from(*len)],
            Repr::Shared(data) => data,
            Repr::Static(data) => data,
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Inline up to [`INLINE_CAP`] bytes, else one copy into a shared
    /// allocation.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with pre-reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freeze into an immutable, cheaply clonable buffer (a copy above
    /// [`INLINE_CAP`] bytes, see [`Bytes`]).
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::copy_from_slice(&self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Read access to a byte cursor (implemented for `&[u8]`).
pub trait Buf {
    /// Bytes not yet consumed.
    fn remaining(&self) -> usize;
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);
    /// Borrow the unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }
    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.chunk()[..2].try_into().expect("2 bytes"));
        self.advance(2);
        v
    }
    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().expect("4 bytes"));
        self.advance(4);
        v
    }
    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }
    /// Read a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        let v = i64::from_le_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
    fn chunk(&self) -> &[u8] {
        self
    }
}

/// Append access to a growable byte buffer (implemented for [`BytesMut`]
/// and `Vec<u8>`).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, v: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, v: &[u8]) {
        self.data.extend_from_slice(v);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_and_cheap_clone() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn bytesmut_freeze() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u8(7);
        m.put_u32_le(0xAABB_CCDD);
        let b = m.freeze();
        let mut r: &[u8] = &b;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xAABB_CCDD);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn buf_le_accessors() {
        let mut v = Vec::new();
        v.put_u16_le(513);
        v.put_u64_le(u64::MAX - 1);
        v.put_i64_le(-9);
        let mut r: &[u8] = &v;
        assert_eq!(r.get_u16_le(), 513);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_i64_le(), -9);
    }

    /// Every way of building a `Bytes`, at lengths on both sides of the
    /// inline limit.
    fn built_every_way(len: usize) -> [Bytes; 4] {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
        let leaked: &'static [u8] = Box::leak(data.clone().into_boxed_slice());
        let mut m = BytesMut::with_capacity(len);
        m.put_slice(&data);
        [
            Bytes::from_static(leaked),
            Bytes::copy_from_slice(&data),
            Bytes::from(data),
            m.freeze(),
        ]
    }

    #[test]
    fn every_representation_agrees_on_eq_ord_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashMap;
        let hash = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        let lens = [0, 1, INLINE_CAP, INLINE_CAP + 1, 64, 4_096];
        let mut map: HashMap<Bytes, usize> = HashMap::new();
        for &len in &lens {
            let all = built_every_way(len);
            for b in &all {
                assert_eq!(b.len(), len);
                assert_eq!(b, &all[0]);
                assert_eq!(b.cmp(&all[0]), std::cmp::Ordering::Equal);
                assert_eq!(hash(b), hash(&all[0]));
                assert_eq!(b.clone(), *b);
                assert_eq!(b.to_vec(), all[0].to_vec());
            }
            map.insert(all[1].clone(), len);
        }
        assert_eq!(map.len(), lens.len());
        for &len in &lens {
            for b in built_every_way(len) {
                let slice: &[u8] = &b;
                assert_eq!(map.get(slice), Some(&len), "length {len}");
            }
        }
        // Order is the slices' order, whatever each side's representation.
        for (i, &a) in lens.iter().enumerate() {
            for &b in &lens[i..] {
                for x in built_every_way(a) {
                    for y in built_every_way(b) {
                        assert_eq!(x.cmp(&y), x[..].cmp(&y[..]), "{a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn bytes_is_three_words() {
        assert_eq!(std::mem::size_of::<Bytes>(), 24);
        assert_eq!(std::mem::size_of::<Option<Bytes>>(), 24);
    }

    #[test]
    fn ordering_matches_slices() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::from_static(b"abd");
        assert!(a < b);
        assert_eq!(a, b"abc".to_vec());
    }
}
