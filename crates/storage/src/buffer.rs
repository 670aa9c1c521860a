//! Buffer pool: the DRAM cache in front of the disk backend.
//!
//! The paper's cost story for disk-oriented blockchains hinges on this
//! component — "disk-based databases would use all sorts of techniques
//! (e.g., DRAM buffer pools and group commit) to hide I/O latency" (§3).
//! The pool implements LRU eviction with pin counts (a frame whose guard is
//! still referenced is never evicted), dirty tracking with write-back, and
//! charges calibrated virtual-time costs for hits and misses so the
//! benchmark scheduler sees realistic hit/miss asymmetry.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use harmony_common::vtime;
use harmony_common::Result;
use parking_lot::{Mutex, RwLock};

use crate::cost::StorageCost;
use crate::disk::DiskBackend;
use crate::page::{PageBuf, PageId};

/// A cached page frame. The data lock serializes readers/writers of the
/// page content and of the key heads the B+Tree derives from it (see
/// [`crate::btree`]'s "Lookups"), which live and die with the frame: an
/// evicted page comes back without them. `dirty` is flipped by writers
/// and cleared by flushes; only the page bytes are ever written back.
pub struct Frame {
    /// Which page this frame caches.
    pub page_id: PageId,
    /// Page content, and its key heads.
    pub data: RwLock<PageBuf>,
    dirty: AtomicBool,
    last_used: AtomicU64,
}

impl Frame {
    /// Mark the frame dirty (caller mutated `data`).
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// Whether the frame holds unwritten changes.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }
}

/// Cumulative buffer pool statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups served from DRAM.
    pub hits: u64,
    /// Lookups that had to read the disk.
    pub misses: u64,
    /// Dirty pages written back due to eviction.
    pub evict_writebacks: u64,
    /// Dirty pages written back by explicit flushes.
    pub flush_writebacks: u64,
}

/// Hash of a [`PageId`]: one multiply. Page ids are dense integers handed
/// out by the disk's allocator, and an id read from a (possibly hostile)
/// page is only ever probed, never inserted unless the disk holds that
/// page — nobody outside the program chooses the keys, so SipHash's
/// collision resistance would be paid for on every fetch and buy nothing.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Buffers of evicted frames kept for the next misses, at most.
const SPARE_PAGES: usize = 4;

struct PoolInner {
    frames: HashMap<PageId, Arc<Frame>, BuildHasherDefault<PageIdHasher>>,
    tick: u64,
    /// Counted under the lock the hit path already holds.
    hits: u64,
    /// Page buffers of evicted frames: a miss reads into one of these
    /// instead of allocating and zeroing a page. The disk read overwrites
    /// every byte, and drops the key heads the buffer held.
    spare: Vec<PageBuf>,
}

/// What the pool may do with dirty pages under memory pressure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// "Steal": dirty victims are written back and evicted (classic ARIES
    /// setting, requires redo/undo logging for crash consistency).
    Steal,
    /// "No-steal": only clean frames are evicted; dirty pages reach disk
    /// exclusively through explicit flushes (checkpoints). This is what the
    /// deterministic-replay recovery of OE chains requires: after a crash
    /// the disk holds *exactly* the last checkpoint state.
    #[default]
    NoSteal,
}

/// An LRU buffer pool over a disk backend.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    disk: Arc<dyn DiskBackend>,
    capacity: usize,
    cost: StorageCost,
    policy: EvictionPolicy,
    misses: AtomicU64,
    evict_writebacks: AtomicU64,
    flush_writebacks: AtomicU64,
}

impl BufferPool {
    /// Create a pool caching at most `capacity` pages of `disk`, with the
    /// default [`EvictionPolicy::NoSteal`] policy.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(disk: Arc<dyn DiskBackend>, capacity: usize, cost: StorageCost) -> BufferPool {
        BufferPool::with_policy(disk, capacity, cost, EvictionPolicy::NoSteal)
    }

    /// Create a pool with an explicit eviction policy.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_policy(
        disk: Arc<dyn DiskBackend>,
        capacity: usize,
        cost: StorageCost,
        policy: EvictionPolicy,
    ) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            inner: Mutex::new(PoolInner {
                frames: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
                tick: 0,
                hits: 0,
                spare: Vec::with_capacity(SPARE_PAGES),
            }),
            disk,
            capacity,
            cost,
            policy,
            misses: AtomicU64::new(0),
            evict_writebacks: AtomicU64::new(0),
            flush_writebacks: AtomicU64::new(0),
        }
    }

    /// The underlying disk backend.
    #[must_use]
    pub fn disk(&self) -> &Arc<dyn DiskBackend> {
        &self.disk
    }

    /// Allocate a fresh page and return its zeroed frame (counted as a hit:
    /// no disk read is needed for a brand-new page).
    pub fn allocate(&self) -> Result<(PageId, Arc<Frame>)> {
        let id = self.disk.allocate();
        let frame = Arc::new(Frame {
            page_id: id,
            data: RwLock::new(PageBuf::zeroed()),
            dirty: AtomicBool::new(true),
            last_used: AtomicU64::new(0),
        });
        let mut inner = self.inner.lock();
        inner.tick += 1;
        frame.last_used.store(inner.tick, Ordering::Relaxed);
        self.evict_if_full(&mut inner)?;
        inner.frames.insert(id, Arc::clone(&frame));
        Ok((id, frame))
    }

    /// Fetch page `id`, reading it from disk on a miss. The returned frame
    /// is pinned for as long as the `Arc` lives.
    pub fn fetch(&self, id: PageId) -> Result<Arc<Frame>> {
        // Fast path: hit.
        let spare = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(f) = inner.frames.get(&id) {
                f.last_used.store(tick, Ordering::Relaxed);
                let f = Arc::clone(f);
                inner.hits += 1;
                vtime::charge(self.cost.buffer_hit_ns);
                return Ok(f);
            }
            inner.spare.pop()
        };
        // Miss: read outside the pool lock, then insert (another thread may
        // have raced us; prefer the existing frame in that case).
        self.misses.fetch_add(1, Ordering::Relaxed);
        vtime::charge(self.cost.buffer_miss_cpu_ns);
        let mut buf = spare.unwrap_or_default();
        self.disk.read_page(id, &mut buf)?;
        let frame = Arc::new(Frame {
            page_id: id,
            data: RwLock::new(buf),
            dirty: AtomicBool::new(false),
            last_used: AtomicU64::new(0),
        });
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(existing) = inner.frames.get(&id) {
            existing.last_used.store(tick, Ordering::Relaxed);
            return Ok(Arc::clone(existing));
        }
        frame.last_used.store(tick, Ordering::Relaxed);
        self.evict_if_full(&mut inner)?;
        inner.frames.insert(id, Arc::clone(&frame));
        Ok(frame)
    }

    /// Evict the least-recently-used unpinned frame if the pool is full,
    /// writing it back first when dirty. Called with the pool lock held.
    fn evict_if_full(&self, inner: &mut PoolInner) -> Result<()> {
        while inner.frames.len() >= self.capacity {
            let victim = inner
                .frames
                .values()
                // strong_count == 1 means only the pool references it.
                .filter(|f| Arc::strong_count(f) == 1)
                .filter(|f| self.policy == EvictionPolicy::Steal || !f.is_dirty())
                .min_by_key(|f| f.last_used.load(Ordering::Relaxed))
                .map(|f| f.page_id);
            let Some(victim) = victim else {
                // No eligible victim (all pinned, or all dirty under
                // no-steal); allow temporary overflow rather than failing.
                // The pool shrinks again after the next flush.
                return Ok(());
            };
            let frame = inner.frames.remove(&victim).expect("victim present");
            if frame.is_dirty() {
                self.evict_writebacks.fetch_add(1, Ordering::Relaxed);
                self.disk.write_page(victim, &frame.data.read())?;
                frame.dirty.store(false, Ordering::Release);
            }
            // Unpinned, and out of the map: nobody else can hold it.
            if inner.spare.len() < SPARE_PAGES {
                if let Ok(frame) = Arc::try_unwrap(frame) {
                    inner.spare.push(frame.data.into_inner());
                }
            }
        }
        Ok(())
    }

    /// Write back every dirty frame (checkpoint path). Frames stay cached.
    pub fn flush_all(&self) -> Result<()> {
        let frames: Vec<Arc<Frame>> = {
            let inner = self.inner.lock();
            inner.frames.values().cloned().collect()
        };
        for f in frames {
            if f.is_dirty() {
                self.flush_writebacks.fetch_add(1, Ordering::Relaxed);
                let data = f.data.read();
                self.disk.write_page(f.page_id, &data)?;
                f.dirty.store(false, Ordering::Release);
            }
        }
        self.disk.sync()?;
        Ok(())
    }

    /// Drop every cached frame (used by recovery tests to simulate a cold
    /// cache). Dirty frames are *discarded*, modelling a crash.
    pub fn clear_cache_discarding_dirty(&self) {
        let mut inner = self.inner.lock();
        inner.frames.clear();
    }

    /// Current number of cached frames.
    #[must_use]
    pub fn cached_frames(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Every cached frame (tests inspect what the frames hold).
    #[cfg(test)]
    pub(crate) fn frames(&self) -> Vec<Arc<Frame>> {
        self.inner.lock().frames.values().cloned().collect()
    }

    /// Snapshot of hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.lock().hits,
            misses: self.misses.load(Ordering::Relaxed),
            evict_writebacks: self.evict_writebacks.load(Ordering::Relaxed),
            flush_writebacks: self.flush_writebacks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new()), capacity, StorageCost::free())
    }

    #[test]
    fn allocate_and_fetch_hit() {
        let p = pool(4);
        let (id, f) = p.allocate().unwrap();
        f.data.write().bytes_mut()[0] = 0x11;
        f.mark_dirty();
        drop(f);
        let f2 = p.fetch(id).unwrap();
        assert_eq!(f2.data.read().bytes()[0], 0x11);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 0);
    }

    #[test]
    fn steal_eviction_writes_back_dirty() {
        let p = BufferPool::with_policy(
            Arc::new(MemDisk::new()),
            2,
            StorageCost::free(),
            EvictionPolicy::Steal,
        );
        let mut ids = Vec::new();
        for i in 0..4u8 {
            let (id, f) = p.allocate().unwrap();
            f.data.write().bytes_mut()[0] = i;
            f.mark_dirty();
            ids.push(id);
        }
        // Capacity 2 < 4 allocations => evictions happened with write-back.
        assert!(p.stats().evict_writebacks >= 2);
        // Evicted pages are still readable (from disk) with correct content.
        for (i, id) in ids.iter().enumerate() {
            let f = p.fetch(*id).unwrap();
            assert_eq!(f.data.read().bytes()[0], i as u8, "page {id:?}");
        }
    }

    #[test]
    fn no_steal_never_writes_dirty_on_eviction() {
        let p = pool(2); // default policy = NoSteal
        for i in 0..6u8 {
            let (_, f) = p.allocate().unwrap();
            f.data.write().bytes_mut()[0] = i;
            f.mark_dirty();
        }
        // Dirty frames may overflow the capacity but never hit the disk.
        assert_eq!(p.stats().evict_writebacks, 0);
        assert_eq!(p.disk().io_counts().1, 0, "no page writes before flush");
        assert!(p.cached_frames() >= 6);
        // After a flush the frames become clean and evictable again.
        p.flush_all().unwrap();
        let (_, f) = p.allocate().unwrap();
        f.mark_dirty();
        drop(f);
        assert!(p.cached_frames() <= 7);
    }

    #[test]
    fn pinned_frames_survive_eviction() {
        let p = pool(2);
        let (id0, f0) = p.allocate().unwrap();
        f0.data.write().bytes_mut()[0] = 0xAB;
        f0.mark_dirty();
        // Keep f0 pinned while allocating more than capacity.
        for _ in 0..5 {
            let (_, f) = p.allocate().unwrap();
            f.mark_dirty();
        }
        // f0 still valid and content intact.
        assert_eq!(f0.data.read().bytes()[0], 0xAB);
        let again = p.fetch(id0).unwrap();
        assert!(Arc::ptr_eq(&f0, &again), "pinned frame must not be evicted");
    }

    #[test]
    fn flush_all_clears_dirty() {
        let p = pool(8);
        let (id, f) = p.allocate().unwrap();
        f.data.write().bytes_mut()[0] = 9;
        f.mark_dirty();
        drop(f);
        p.flush_all().unwrap();
        let f = p.fetch(id).unwrap();
        assert!(!f.is_dirty());
        // Disk now holds the content even if the cache is dropped.
        drop(f);
        p.clear_cache_discarding_dirty();
        let f = p.fetch(id).unwrap();
        assert_eq!(f.data.read().bytes()[0], 9);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn crash_discards_unflushed_writes() {
        let p = pool(8);
        let (id, f) = p.allocate().unwrap();
        f.data.write().bytes_mut()[0] = 1;
        f.mark_dirty();
        drop(f);
        p.flush_all().unwrap();
        // Dirty again, then "crash".
        let f = p.fetch(id).unwrap();
        f.data.write().bytes_mut()[0] = 2;
        f.mark_dirty();
        drop(f);
        p.clear_cache_discarding_dirty();
        let f = p.fetch(id).unwrap();
        assert_eq!(f.data.read().bytes()[0], 1, "post-crash state = last flush");
    }

    #[test]
    fn hit_miss_costs_charged() {
        let disk = Arc::new(MemDisk::new());
        let cost = StorageCost::default();
        let p = BufferPool::new(disk, 2, cost);
        let (id, f) = p.allocate().unwrap();
        f.mark_dirty();
        drop(f);
        vtime::take();
        let _f = p.fetch(id).unwrap();
        assert_eq!(vtime::take(), cost.buffer_hit_ns);
    }

    #[test]
    fn concurrent_fetches_are_safe() {
        let p = Arc::new(pool(16));
        let (id, f) = p.allocate().unwrap();
        f.mark_dirty();
        drop(f);
        let mut handles = Vec::new();
        for t in 0..8 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let f = p.fetch(id).unwrap();
                    let mut g = f.data.write();
                    g.bytes_mut()[t] = g.bytes()[t].wrapping_add(1);
                    f.mark_dirty();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let f = p.fetch(id).unwrap();
        let g = f.data.read();
        for t in 0..8 {
            assert_eq!(g.bytes()[t], 200u8.wrapping_mul(1), "slot {t}");
        }
    }
}
