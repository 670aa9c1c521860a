//! Disk backends.
//!
//! The paper's central premise is that enterprise blockchains are
//! *disk-oriented*: data lives on SSD, DRAM only caches. Figure 21 swaps the
//! SSD for a RAMDisk and then for a pure memory engine. We reproduce that
//! axis with a [`DiskProfile`] (latency constants) applied by [`SimDisk`],
//! plus a real file-backed implementation ([`FileDisk`]) for durability
//! tests.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use harmony_common::vtime;
use harmony_common::{Error, Result};
use parking_lot::RwLock;

use crate::page::{PageBuf, PageId, PAGE_SIZE};

/// Latency profile of a storage medium, in nanoseconds per 4 KiB page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskProfile {
    /// Page read latency.
    pub read_ns: u64,
    /// Page write latency.
    pub write_ns: u64,
    /// fsync / flush barrier latency.
    pub sync_ns: u64,
}

impl DiskProfile {
    /// Data-center NVMe SSD: ~90 µs read, ~30 µs write, ~400 µs fsync —
    /// matching the 800 GB SSDs in the paper's default cluster.
    #[must_use]
    pub fn ssd() -> DiskProfile {
        DiskProfile {
            read_ns: 90_000,
            write_ns: 30_000,
            sync_ns: 400_000,
        }
    }

    /// RAMDisk: memory-speed "device" still going through the block layer
    /// (~1.5 µs per page, cheap sync). Used by Figure 21's middle bars.
    #[must_use]
    pub fn ramdisk() -> DiskProfile {
        DiskProfile {
            read_ns: 1_500,
            write_ns: 1_500,
            sync_ns: 2_000,
        }
    }

    /// Free: no latency at all (pure in-memory experiments / unit tests).
    #[must_use]
    pub fn memory() -> DiskProfile {
        DiskProfile {
            read_ns: 0,
            write_ns: 0,
            sync_ns: 0,
        }
    }
}

/// Abstract page device.
///
/// Implementations must be thread-safe; concurrent reads/writes to distinct
/// pages may proceed in parallel.
pub trait DiskBackend: Send + Sync {
    /// Read page `id` into `out`.
    fn read_page(&self, id: PageId, out: &mut PageBuf) -> Result<()>;
    /// Write `data` to page `id` (allocating backing store as needed).
    fn write_page(&self, id: PageId, data: &PageBuf) -> Result<()>;
    /// Allocate a fresh page id.
    fn allocate(&self) -> PageId;
    /// Durability barrier.
    fn sync(&self) -> Result<()>;
    /// Number of pages ever allocated.
    fn page_count(&self) -> u64;
    /// Cumulative (reads, writes, syncs) issued to the device.
    fn io_counts(&self) -> (u64, u64, u64);
}

#[derive(Default)]
struct IoCounts {
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
}

/// Purely in-memory disk: a growable vector of pages. Zero latency; the
/// baseline device other backends wrap or emulate.
pub struct MemDisk {
    pages: RwLock<Vec<Option<PageBuf>>>,
    next: AtomicU64,
    counts: IoCounts,
}

impl MemDisk {
    /// Empty disk.
    #[must_use]
    pub fn new() -> MemDisk {
        MemDisk {
            pages: RwLock::new(Vec::new()),
            next: AtomicU64::new(0),
            counts: IoCounts::default(),
        }
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        MemDisk::new()
    }
}

impl DiskBackend for MemDisk {
    fn read_page(&self, id: PageId, out: &mut PageBuf) -> Result<()> {
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        let pages = self.pages.read();
        match pages.get(id.0 as usize).and_then(Option::as_ref) {
            Some(p) => {
                out.bytes_mut().copy_from_slice(p.bytes());
                Ok(())
            }
            None => Err(Error::NotFound(format!("page {id:?}"))),
        }
    }

    fn write_page(&self, id: PageId, data: &PageBuf) -> Result<()> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        let mut pages = self.pages.write();
        let idx = id.0 as usize;
        if pages.len() <= idx {
            pages.resize_with(idx + 1, || None);
        }
        match &mut pages[idx] {
            // A page written before is overwritten where it lies.
            Some(page) => page.bytes_mut().copy_from_slice(data.bytes()),
            empty => *empty = Some(data.clone()),
        }
        Ok(())
    }

    fn allocate(&self) -> PageId {
        PageId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    fn sync(&self) -> Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn io_counts(&self) -> (u64, u64, u64) {
        (
            self.counts.reads.load(Ordering::Relaxed),
            self.counts.writes.load(Ordering::Relaxed),
            self.counts.syncs.load(Ordering::Relaxed),
        )
    }
}

/// A latency-modelled disk: wraps any backend and charges the profile's
/// latency to the calling thread's virtual clock on every operation.
pub struct SimDisk<D: DiskBackend> {
    inner: D,
    profile: DiskProfile,
}

impl<D: DiskBackend> SimDisk<D> {
    /// Wrap an existing backend.
    pub fn wrap(inner: D, profile: DiskProfile) -> SimDisk<D> {
        SimDisk { inner, profile }
    }

    /// The latency profile in force.
    #[must_use]
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }
}

impl<D: DiskBackend> DiskBackend for SimDisk<D> {
    fn read_page(&self, id: PageId, out: &mut PageBuf) -> Result<()> {
        vtime::charge(self.profile.read_ns);
        self.inner.read_page(id, out)
    }

    fn write_page(&self, id: PageId, data: &PageBuf) -> Result<()> {
        vtime::charge(self.profile.write_ns);
        self.inner.write_page(id, data)
    }

    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }

    fn sync(&self) -> Result<()> {
        vtime::charge(self.profile.sync_ns);
        self.inner.sync()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn io_counts(&self) -> (u64, u64, u64) {
        self.inner.io_counts()
    }
}

/// Real file-backed disk; pages are stored at `id * PAGE_SIZE` offsets.
pub struct FileDisk {
    file: File,
    next: AtomicU64,
    counts: IoCounts,
}

impl FileDisk {
    /// Open (creating if absent) a page file at `path`. Existing content is
    /// preserved; the allocator resumes after the last full page.
    pub fn open(path: &Path) -> Result<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileDisk {
            file,
            next: AtomicU64::new(len / PAGE_SIZE as u64),
            counts: IoCounts::default(),
        })
    }
}

impl DiskBackend for FileDisk {
    fn read_page(&self, id: PageId, out: &mut PageBuf) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        // Also keeps the offset of an id read from a corrupt page from
        // overflowing.
        if id.0 >= self.page_count() {
            return Err(Error::NotFound(format!("page {id:?}")));
        }
        self.file
            .read_exact_at(out.bytes_mut().as_mut_slice(), id.0 * PAGE_SIZE as u64)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    Error::NotFound(format!("page {id:?}"))
                } else {
                    Error::Io(e)
                }
            })
    }

    fn write_page(&self, id: PageId, data: &PageBuf) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.file
            .write_all_at(data.bytes().as_slice(), id.0 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn allocate(&self) -> PageId {
        PageId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    fn sync(&self) -> Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.file.sync_data()?;
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn io_counts(&self) -> (u64, u64, u64) {
        (
            self.counts.reads.load(Ordering::Relaxed),
            self.counts.writes.load(Ordering::Relaxed),
            self.counts.syncs.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(byte: u8) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.bytes_mut()[0] = byte;
        p
    }

    #[test]
    fn memdisk_roundtrip() {
        let d = MemDisk::new();
        let id = d.allocate();
        d.write_page(id, &page_with(0x42)).unwrap();
        let mut out = PageBuf::zeroed();
        d.read_page(id, &mut out).unwrap();
        assert_eq!(out.bytes()[0], 0x42);
    }

    #[test]
    fn memdisk_missing_page_not_found() {
        let d = MemDisk::new();
        let mut out = PageBuf::zeroed();
        assert!(matches!(
            d.read_page(PageId(9), &mut out),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn memdisk_counts_io() {
        let d = MemDisk::new();
        let id = d.allocate();
        d.write_page(id, &page_with(1)).unwrap();
        let mut out = PageBuf::zeroed();
        d.read_page(id, &mut out).unwrap();
        d.sync().unwrap();
        assert_eq!(d.io_counts(), (1, 1, 1));
    }

    #[test]
    fn memdisk_overwrites_a_page_in_place() {
        let d = MemDisk::new();
        let id = d.allocate();
        d.write_page(id, &page_with(1)).unwrap();
        let held = d.pages.read()[0].as_ref().unwrap().bytes().as_ptr();
        d.write_page(id, &page_with(2)).unwrap();
        assert_eq!(
            d.pages.read()[0].as_ref().unwrap().bytes().as_ptr(),
            held,
            "the second write reuses the page"
        );
        let mut out = PageBuf::zeroed();
        d.read_page(id, &mut out).unwrap();
        assert_eq!(out.bytes()[0], 2);
        assert_eq!(d.io_counts(), (1, 2, 0), "an overwrite counts one write");
    }

    #[test]
    fn allocation_is_monotone() {
        let d = MemDisk::new();
        let a = d.allocate();
        let b = d.allocate();
        assert!(b.0 > a.0);
        assert_eq!(d.page_count(), 2);
    }

    #[test]
    fn simdisk_charges_latency() {
        let d = SimDisk::wrap(MemDisk::new(), DiskProfile::ssd());
        let id = d.allocate();
        vtime::take();
        d.write_page(id, &page_with(1)).unwrap();
        assert_eq!(vtime::take(), DiskProfile::ssd().write_ns);
        let mut out = PageBuf::zeroed();
        d.read_page(id, &mut out).unwrap();
        assert_eq!(vtime::take(), DiskProfile::ssd().read_ns);
        d.sync().unwrap();
        assert_eq!(vtime::take(), DiskProfile::ssd().sync_ns);
    }

    #[test]
    fn profiles_ordered() {
        assert!(DiskProfile::ssd().read_ns > DiskProfile::ramdisk().read_ns);
        assert!(DiskProfile::ramdisk().read_ns > DiskProfile::memory().read_ns);
    }

    #[test]
    fn filedisk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("harmony-fd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        {
            let d = FileDisk::open(&path).unwrap();
            let id = d.allocate();
            d.write_page(id, &page_with(0x77)).unwrap();
            d.sync().unwrap();
        }
        {
            let d = FileDisk::open(&path).unwrap();
            assert_eq!(d.page_count(), 1);
            let mut out = PageBuf::zeroed();
            d.read_page(PageId(0), &mut out).unwrap();
            assert_eq!(out.bytes()[0], 0x77);
            // Allocation resumes past existing pages.
            assert_eq!(d.allocate(), PageId(1));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn filedisk_missing_page_not_found() {
        let dir = std::env::temp_dir().join(format!("harmony-fd2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        let d = FileDisk::open(&path).unwrap();
        let mut out = PageBuf::zeroed();
        for id in [PageId(5), PageId(u64::MAX / 2), PageId::NULL] {
            assert!(matches!(d.read_page(id, &mut out), Err(Error::NotFound(_))));
        }
        let _ = std::fs::remove_file(&path);
    }
}
