//! Append-only logs.
//!
//! A storage engine keeps one, opaque to this module: the **block log**,
//! *logical logging* (the paper's Table 1) — just the input blocks, as
//! deterministic databases and HarmonyBC log them. Almost free at runtime
//! because determinism makes replay sufficient; every chain, the SOV
//! engines' included, recovers this way. It never carries write-sets:
//! physical logging is gone, and what replay needs besides the blocks (the
//! chain's position) rides in the checkpoint manifest
//! ([`crate::checkpoint`]).
//!
//! Records are framed onto a [`LogSink`]: `[len u32][crc32c u32][payload]`,
//! with torn-tail detection on recovery.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use harmony_common::codec::crc32c;
use harmony_common::vtime;
use harmony_common::{Error, Result};
use parking_lot::Mutex;

/// Abstract append-only record log.
pub trait LogSink: Send + Sync {
    /// Append one framed record; returns its sequence number.
    fn append(&self, payload: &[u8]) -> Result<u64>;
    /// Durability barrier.
    fn sync(&self) -> Result<()>;
    /// Read every intact record (stops cleanly at a torn tail).
    fn read_all(&self) -> Result<Vec<Vec<u8>>>;
    /// Number of records appended so far.
    fn record_count(&self) -> u64;
    /// Discard every record — a node bootstrapping from a transferred
    /// state snapshot drops its stale local history first.
    fn truncate(&self) -> Result<()>;
}

/// In-memory log with a modelled sync latency. The backing store survives
/// "crashes" (it plays the role of the device); only unsynced records are
/// discarded by [`MemLog::crash`].
pub struct MemLog {
    inner: Mutex<MemLogInner>,
    sync_ns: u64,
}

struct MemLogInner {
    durable: Vec<Vec<u8>>,
    pending: Vec<Vec<u8>>,
}

impl MemLog {
    /// New empty log charging `sync_ns` of virtual time per sync.
    #[must_use]
    pub fn new(sync_ns: u64) -> MemLog {
        MemLog {
            inner: Mutex::new(MemLogInner {
                durable: Vec::new(),
                pending: Vec::new(),
            }),
            sync_ns,
        }
    }

    /// Simulate a crash: every record not yet synced is lost.
    pub fn crash(&self) {
        self.inner.lock().pending.clear();
    }
}

impl LogSink for MemLog {
    fn append(&self, payload: &[u8]) -> Result<u64> {
        let mut inner = self.inner.lock();
        inner.pending.push(payload.to_vec());
        Ok((inner.durable.len() + inner.pending.len() - 1) as u64)
    }

    fn sync(&self) -> Result<()> {
        vtime::charge(self.sync_ns);
        let mut inner = self.inner.lock();
        let pending = std::mem::take(&mut inner.pending);
        inner.durable.extend(pending);
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<Vec<u8>>> {
        let inner = self.inner.lock();
        let mut out = inner.durable.clone();
        out.extend(inner.pending.iter().cloned());
        Ok(out)
    }

    fn record_count(&self) -> u64 {
        let inner = self.inner.lock();
        (inner.durable.len() + inner.pending.len()) as u64
    }

    fn truncate(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.durable.clear();
        inner.pending.clear();
        Ok(())
    }
}

/// File-backed log with CRC framing.
pub struct FileLog {
    file: Mutex<File>,
    count: Mutex<u64>,
}

impl FileLog {
    /// Open (or create) a log file; existing intact records are preserved.
    pub fn open(path: &Path) -> Result<FileLog> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let log = FileLog {
            file: Mutex::new(file),
            count: Mutex::new(0),
        };
        let existing = log.read_all()?;
        *log.count.lock() = existing.len() as u64;
        Ok(log)
    }
}

impl LogSink for FileLog {
    fn append(&self, payload: &[u8]) -> Result<u64> {
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(
            &u32::try_from(payload.len())
                .map_err(|_| Error::InvalidArgument("record too large".into()))?
                .to_le_bytes(),
        );
        framed.extend_from_slice(&crc32c(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        let mut file = self.file.lock();
        file.write_all(&framed)?;
        let mut count = self.count.lock();
        let seq = *count;
        *count += 1;
        Ok(seq)
    }

    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<Vec<u8>>> {
        let mut file = self.file.lock();
        use std::io::Seek;
        file.seek(std::io::SeekFrom::Start(0))?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        file.seek(std::io::SeekFrom::End(0))?;
        drop(file);
        let mut out = Vec::new();
        let mut off = 0usize;
        while off + 8 <= raw.len() {
            let len = u32::from_le_bytes(raw[off..off + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(raw[off + 4..off + 8].try_into().expect("4 bytes"));
            if off + 8 + len > raw.len() {
                break; // torn tail
            }
            let payload = &raw[off + 8..off + 8 + len];
            if crc32c(payload) != crc {
                break; // torn/corrupt tail: stop replay here
            }
            out.push(payload.to_vec());
            off += 8 + len;
        }
        Ok(out)
    }

    fn record_count(&self) -> u64 {
        *self.count.lock()
    }

    fn truncate(&self) -> Result<()> {
        let file = self.file.lock();
        file.set_len(0)?;
        file.sync_data()?;
        *self.count.lock() = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memlog_append_sync_read() {
        let log = MemLog::new(0);
        log.append(b"a").unwrap();
        log.append(b"b").unwrap();
        log.sync().unwrap();
        log.append(b"c").unwrap();
        assert_eq!(log.record_count(), 3);
        assert_eq!(
            log.read_all().unwrap(),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
    }

    #[test]
    fn memlog_crash_loses_unsynced() {
        let log = MemLog::new(0);
        log.append(b"durable").unwrap();
        log.sync().unwrap();
        log.append(b"lost").unwrap();
        log.crash();
        assert_eq!(log.read_all().unwrap(), vec![b"durable".to_vec()]);
    }

    #[test]
    fn truncate_discards_everything() {
        let log = MemLog::new(0);
        log.append(b"a").unwrap();
        log.sync().unwrap();
        log.append(b"b").unwrap();
        log.truncate().unwrap();
        assert_eq!(log.record_count(), 0);
        assert!(log.read_all().unwrap().is_empty());
        log.append(b"fresh").unwrap();
        assert_eq!(log.read_all().unwrap(), vec![b"fresh".to_vec()]);

        let path = temp_path("truncate.log");
        let _ = std::fs::remove_file(&path);
        let flog = FileLog::open(&path).unwrap();
        flog.append(b"stale").unwrap();
        flog.sync().unwrap();
        flog.truncate().unwrap();
        assert_eq!(flog.record_count(), 0);
        flog.append(b"fresh").unwrap();
        flog.sync().unwrap();
        assert_eq!(flog.read_all().unwrap(), vec![b"fresh".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn memlog_sync_charges_vtime() {
        let log = MemLog::new(5_000);
        vtime::take();
        log.sync().unwrap();
        assert_eq!(vtime::take(), 5_000);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("harmony-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn filelog_roundtrip_and_reopen() {
        let path = temp_path("basic.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"one").unwrap();
            log.append(b"two").unwrap();
            log.sync().unwrap();
        }
        {
            let log = FileLog::open(&path).unwrap();
            assert_eq!(log.record_count(), 2);
            assert_eq!(
                log.read_all().unwrap(),
                vec![b"one".to_vec(), b"two".to_vec()]
            );
            // Appending after reopen keeps the sequence.
            assert_eq!(log.append(b"three").unwrap(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn filelog_torn_tail_is_ignored() {
        let path = temp_path("torn.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"good").unwrap();
            log.sync().unwrap();
        }
        // Simulate a torn append: write garbage half-record at the end.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 0, 0, 0, 1, 2]).unwrap(); // len=9 but no payload
        }
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.read_all().unwrap(), vec![b"good".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn filelog_corrupt_crc_stops_replay() {
        let path = temp_path("crc.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"aaaa").unwrap();
            log.append(b"bbbb").unwrap();
            log.sync().unwrap();
        }
        // Flip one payload byte of the second record.
        {
            let mut raw = std::fs::read(&path).unwrap();
            let second_payload_start = 8 + 4 + 8;
            raw[second_payload_start] ^= 0xFF;
            std::fs::write(&path, raw).unwrap();
        }
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.read_all().unwrap(), vec![b"aaaa".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }
}
