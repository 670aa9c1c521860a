//! Fixed-width row codec helpers.
//!
//! Workload schemas (Smallbank balances, TPC-C rows) are encoded as
//! fixed-offset little-endian fields so that `AddI64 { offset, .. }`-style
//! update commands can patch individual columns. `RowBuilder` returns the
//! offset of each appended field, which workloads store as schema
//! constants.

use bytes::Bytes;
use harmony_common::{Error, Result};

/// Read a little-endian `i64` field.
pub fn read_i64(v: &[u8], offset: usize) -> Result<i64> {
    field(v, offset).map(|b| i64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn field(v: &[u8], offset: usize) -> Result<&[u8]> {
    v.get(offset..offset + 8).ok_or_else(|| {
        Error::InvalidArgument(format!(
            "field at {offset} outside row of {} bytes",
            v.len()
        ))
    })
}

/// Builder for fixed-width rows. `push_*` methods return the field offset.
#[derive(Default, Clone, Debug)]
pub struct RowBuilder {
    buf: Vec<u8>,
}

impl RowBuilder {
    /// Empty builder.
    #[must_use]
    pub fn new() -> RowBuilder {
        RowBuilder::default()
    }

    /// Append an `i64`; returns its offset.
    pub fn push_i64(&mut self, v: i64) -> usize {
        let off = self.buf.len();
        self.buf.extend_from_slice(&v.to_le_bytes());
        off
    }

    /// Append fixed-width padding bytes (simulating wide columns); returns
    /// the offset.
    pub fn push_pad(&mut self, len: usize, fill: u8) -> usize {
        let off = self.buf.len();
        self.buf.resize(off + len, fill);
        off
    }

    /// Finish the row.
    #[must_use]
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Current length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_offsets_and_reads() {
        let mut b = RowBuilder::new();
        let o1 = b.push_i64(-5);
        let o2 = b.push_i64(2);
        let o3 = b.push_i64(77);
        let o4 = b.push_pad(10, 0xAA);
        assert_eq!((o1, o2, o3, o4), (0, 8, 16, 24));
        let row = b.finish();
        assert_eq!(row.len(), 34);
        assert_eq!(read_i64(&row, o1).unwrap(), -5);
        assert_eq!(read_i64(&row, o2).unwrap(), 2);
        assert_eq!(read_i64(&row, o3).unwrap(), 77);
        assert_eq!(row[o4], 0xAA);
    }

    #[test]
    fn out_of_range_read_errors() {
        let row = vec![0u8; 8];
        assert!(read_i64(&row, 0).is_ok());
        assert!(read_i64(&row, 1).is_err());
        assert!(read_i64(&row, 100).is_err());
    }
}
