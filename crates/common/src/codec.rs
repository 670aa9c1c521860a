//! Fixed-width, little-endian byte codec.
//!
//! All durable formats in the workspace (pages, WAL records, block logs,
//! checkpoint manifests) are hand-rolled with these helpers so the on-disk
//! layout is explicit, versioned and independent of any serialization
//! framework.

use bytes::{Buf, BufMut};

use crate::error::{Error, Result};

/// Writer over a growable buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New writer with a capacity hint.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append a `u16` (LE).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Append a `u32` (LE).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Append a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Append a length-prefixed byte slice (u32 length).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("slice longer than u32::MAX"));
        self.buf.put_slice(v);
    }

    /// Append raw bytes with no length prefix (fixed-width fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Current encoded length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes, in the buffer they were written to.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reader over a byte slice; every accessor checks bounds and returns
/// [`Error::Corruption`] on truncated input.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.remaining() < n {
            return Err(Error::Corruption(format!(
                "truncated input: need {n} bytes, have {}",
                self.buf.remaining()
            )));
        }
        Ok(())
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read a `u16` (LE).
    pub fn get_u16(&mut self) -> Result<u16> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Read a `u32` (LE).
    pub fn get_u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a `u64` (LE).
    pub fn get_u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read the `u32` element count of a sequence whose every element
    /// encodes to at least `min_item_bytes` bytes, refusing a count the
    /// rest of the input cannot hold. A count read from a frame or a file
    /// is untrusted: `Vec::with_capacity(u32::MAX)` aborts the process on
    /// allocation failure before any per-element bounds check runs, so
    /// decoders size their allocations by this, never by `get_u32`.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize> {
        debug_assert!(min_item_bytes > 0, "a zero-byte element bounds nothing");
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.buf.remaining() {
            return Err(Error::Corruption(format!(
                "count {n} needs at least {min_item_bytes} bytes per element, have {}",
                self.buf.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let out = self.buf[..len].to_vec();
        self.buf.advance(len);
        Ok(out)
    }

    /// Read `n` raw bytes (fixed-width field).
    pub fn get_raw(&mut self, n: usize) -> Result<Vec<u8>> {
        self.need(n)?;
        let out = self.buf[..n].to_vec();
        self.buf.advance(n);
        Ok(out)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw).map_err(|_| Error::Corruption("invalid utf-8".into()))
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

/// CRC-32 (Castagnoli polynomial, bit-reflected) used to checksum pages and
/// log records. Implemented from scratch to avoid a dependency; the table is
/// built at first use.
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0x82F6_3B78 // reflected CRC-32C polynomial
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::default();
        w.put_u8(7);
        w.put_u16(1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_bytes_and_str() {
        let mut w = Writer::with_capacity(64);
        w.put_bytes(b"hello");
        w.put_str("world \u{1F980}");
        w.put_raw(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "world \u{1F980}");
        assert_eq!(r.get_raw(3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn truncated_input_is_corruption() {
        let mut w = Writer::default();
        w.put_u64(1);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(r.get_u64(), Err(Error::Corruption(_))));
    }

    #[test]
    fn truncated_length_prefixed_is_corruption() {
        let mut w = Writer::default();
        w.put_bytes(&[9; 100]);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..10]);
        assert!(matches!(r.get_bytes(), Err(Error::Corruption(_))));
    }

    #[test]
    fn count_is_bounded_by_the_bytes_that_could_hold_it() {
        let mut w = Writer::default();
        w.put_u32(3);
        w.put_raw(&[0; 12]);
        let buf = w.finish();
        // Three 4-byte elements fit in 12 bytes exactly; three 5-byte ones do not.
        assert_eq!(Reader::new(&buf).get_count(4).unwrap(), 3);
        assert!(matches!(
            Reader::new(&buf).get_count(5),
            Err(Error::Corruption(_))
        ));
        // The count that aborts `Vec::with_capacity` is refused outright,
        // as is a count cut short.
        let lying = u32::MAX.to_le_bytes();
        assert!(matches!(
            Reader::new(&lying).get_count(1),
            Err(Error::Corruption(_))
        ));
        assert!(matches!(
            Reader::new(&lying[..3]).get_count(1),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn invalid_utf8_is_corruption() {
        let mut w = Writer::default();
        w.put_bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.get_str(), Err(Error::Corruption(_))));
    }

    #[test]
    fn crc32c_known_vector() {
        // RFC 3720 test vector: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // "123456789"
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32c_detects_flip() {
        let a = crc32c(b"harmony");
        let b = crc32c(b"harmonz");
        assert_ne!(a, b);
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = Writer::default();
        assert!(w.is_empty());
        w.put_u32(1);
        assert_eq!(w.len(), 4);
    }
}
