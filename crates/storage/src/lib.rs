//! Disk-oriented storage engine — the substrate standing in for PostgreSQL
//! in the paper's database layer.
//!
//! Layered exactly like a classic disk database:
//!
//! * [`disk`] — pluggable disk backends: an in-memory disk, a latency-model
//!   disk (`SimDisk`, parameterized by a [`DiskProfile`] such as
//!   SSD/RAMDisk), and a real file-backed disk.
//! * [`page`] — 4 KiB pages, page ids, and the key heads a cached frame
//!   keeps beside its page for the B+Tree's searches.
//! * [`buffer`] — a buffer pool with LRU eviction, pinning and dirty
//!   tracking; every hit/miss charges calibrated virtual-time costs.
//! * [`btree`] — a B+Tree keyed by arbitrary byte strings, one per table,
//!   with leaf chaining for range scans. Nodes are self-describing slotted
//!   pages searched and updated in place in the buffer frame; a page that
//!   fails a bounds check is a typed corruption error.
//! * [`log`] — the append-only logical block log.
//! * [`checkpoint`] — double-slot checkpoint manifests for crash recovery,
//!   each carrying its caller's sidecar under the same CRC.
//! * [`engine`] — the [`StorageEngine`] facade: a catalog of tables, typed
//!   get/put/delete/scan, checkpoint/recover, and I/O counters.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod btree;
pub mod buffer;
pub mod checkpoint;
pub mod cost;
pub mod disk;
pub mod engine;
pub mod log;
pub mod page;

pub use buffer::{BufferPool, EvictionPolicy};
pub use cost::StorageCost;
pub use disk::{DiskBackend, DiskProfile, FileDisk, MemDisk, SimDisk};
pub use engine::{IoSnapshot, ScanItem, StorageConfig, StorageEngine, TableHandle};
pub use page::{PageBuf, PageId, PAGE_SIZE};
