//! Disk-resident B+Tree over slotted pages that are read and written where
//! they lie in the buffer frame.
//!
//! One tree per table. Keys and values are arbitrary byte strings (bounded
//! so that any entry fits comfortably in a page); interior nodes hold
//! separators, leaves are chained for range scans — the access-path shape
//! whose index-lookup cost Harmony's update coalescence deduplicates
//! (Figure 5 of the paper).
//!
//! # Page layout
//!
//! Every node is one self-describing [`PAGE_SIZE`]-byte page. Integers are
//! little-endian.
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 1 | format: `2`; any other value (a zeroed page, a page written before this layout) is refused as unsupported |
//! | 1 | 1 | kind: `0` leaf, `1` interior |
//! | 2 | 2 | `n`, the number of slots |
//! | 4 | 2 | `low_water`, the offset of the lowest cell byte (`PAGE_SIZE` when there are no cells) |
//! | 6 | 2 | `dead`, bytes of the cell area that no slot refers to |
//! | 8 | 8 | leaf: page id of the next leaf (`PageId::NULL` at the end); interior: `child0`, the subtree of keys below the first separator |
//! | 16 | 2·`n` | slot array: the offset of each cell, in key order |
//! | 16 + 2·`n` | … | free space |
//! | `low_water` | … | cell area, growing down from the page end |
//!
//! A cell is `klen: u16 | vlen: u16 | key | value`, the same on both kinds
//! of node: an interior cell's value is the 8-byte id of the subtree
//! holding the keys `>=` its separator.
//!
//! Invariants of a well-formed page, which every operation keeps and the
//! tests check page by page:
//!
//! * slots are sorted by key, strictly ascending;
//! * every cell lies within `low_water..PAGE_SIZE` and no two overlap;
//! * `low_water >= 16 + 2·n`;
//! * `dead == PAGE_SIZE - low_water - Σ cell lengths`: every byte of the
//!   cell area is either in a live cell or counted dead.
//!
//! A lookup binary-searches keys borrowed from the frame under its read
//! guard and copies out only the value. An overwrite that does not grow
//! the value touches only the value bytes; an insert moves slot entries,
//! never cells; a page with enough free bytes that are not contiguous is
//! rebuilt once in place; a page without is split by bytes, not by count.
//! The bytes of a page are a pure function of the operations applied to
//! the tree, whatever the buffer pool evicted in between.
//!
//! A read-modify-write ([`BTree::update_with`]) descends once and searches
//! its leaf once: the value found and the value written meet under the
//! leaf's write guard, and only a write that must split, or a row that
//! goes away, walks the tree again. So the write path searches a leaf once
//! per written key, and a leaf a miss has just read is searched once by
//! its write instead of twice: a miss followed by a write no longer builds
//! the leaf's key-head array (see "Lookups"). The virtual time charged is
//! still that of a read followed by a write.
//!
//! Nothing read from a page is trusted: every header field, slot offset
//! and cell length is checked against the page before use, descents and
//! leaf-chain walks are bounded, and a page that fails a check is an
//! [`Error::Corruption`], never a panic or a hang.
//!
//! Concurrency: the tree itself is not latched; callers (the
//! [`crate::engine::StorageEngine`]) wrap each table in an `RwLock`.
//! Deletion removes entries without rebalancing (underfull pages are
//! tolerated), a standard simplification that preserves search correctness.
//!
//! # Lookups
//!
//! For 8-byte keys — every `u64` row id — a search reads no cell until
//! it has found its slot: each cached frame carries a `KeyHeads` array,
//! the big-endian `u64` of every key in slot order, and a probe is one
//! integer compare in a few cache lines instead of a checked cell read
//! and a `memcmp`. The slot found, a leaf reads its value and an interior
//! node its child pointer. The array is derived from the page, never the
//! other way round:
//!
//! * it is built from the page's checked cells on the page's second
//!   search since the frame was filled (a page read by a miss and evicted
//!   before it is searched again never builds one), and only when every
//!   key is 8 bytes; any other page, or a search for a key of any other
//!   length, reads cells as before;
//! * a value overwrite, growing, shrinking or rebuilt in place, keeps it
//!   (the keys and their order do not change); an insert shifts it in
//!   place, a delete shifts it back; a split rebuilds it for both halves;
//!   an insert of a key of another length leaves the page without one;
//! * a write that bypasses the tree ([`crate::page::PageBuf::bytes_mut`])
//!   drops it, and eviction drops it with the frame.
//!
//! It lives beside the page in the frame and is never written to disk,
//! so page bytes, split points, heights, the pool's counters and every
//! virtual-time charge are what they were without it: a search charges
//! one node search per level however it finds the slot. On a damaged page
//! it can do no worse than the checked search: a slot it names is read
//! with the same checks.

use std::cmp::Ordering;
use std::fmt;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::Arc;

use harmony_common::vtime;
use harmony_common::{Error, Result};

use crate::buffer::{BufferPool, Frame};
use crate::cost::StorageCost;
use crate::page::{KeyHeads, PageId, PAGE_SIZE};

/// Maximum combined key+value size accepted by the tree. Chosen so that a
/// page can always hold at least four entries, keeping splits productive.
pub const MAX_ENTRY_SIZE: usize = 900;

const FORMAT: u8 = 2;
const KIND_LEAF: u8 = 0;
const KIND_INTERIOR: u8 = 1;
const HEADER_LEN: usize = 16;
const SLOT_LEN: usize = 2;
const CELL_HEADER_LEN: usize = 4;

/// No well-formed tree is deeper: every interior node has at least two
/// children, and page ids are 64 bits.
const MAX_DEPTH: usize = 64;

type Page = [u8; PAGE_SIZE];

fn corrupt(what: impl fmt::Display) -> Error {
    Error::Corruption(format!("btree page: {what}"))
}

fn read_u16(page: &Page, at: usize) -> Result<usize> {
    match page.get(at..at + 2) {
        Some(b) => Ok(usize::from(u16::from_le_bytes([b[0], b[1]]))),
        None => Err(corrupt("offset past the page end")),
    }
}

/// `at` is a header field or a slot of a page whose header has been checked.
fn write_u16(page: &mut Page, at: usize, v: usize) {
    let v = u16::try_from(v).expect("page offsets and entry lengths fit 16 bits");
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn write_counts(page: &mut Page, n: usize, low: usize, dead: usize) {
    write_u16(page, 2, n);
    write_u16(page, 4, low);
    write_u16(page, 6, dead);
}

fn too_deep() -> Error {
    corrupt("descent deeper than any tree (pointer cycle)")
}

fn page_id(bytes: &[u8]) -> Result<PageId> {
    let id: [u8; 8] = bytes
        .try_into()
        .map_err(|_| corrupt("interior cell does not hold a page id"))?;
    Ok(PageId(u64::from_le_bytes(id)))
}

fn cell_len(key: &[u8], val: &[u8]) -> usize {
    CELL_HEADER_LEN + key.len() + val.len()
}

fn check_entry_size(key: &[u8], val: &[u8]) -> Result<()> {
    if key.len() + val.len() > MAX_ENTRY_SIZE {
        return Err(Error::InvalidArgument(format!(
            "entry of {} bytes exceeds MAX_ENTRY_SIZE={MAX_ENTRY_SIZE}",
            key.len() + val.len()
        )));
    }
    Ok(())
}

/// An 8-byte key as the `u64` whose order is the bytes' order.
fn key_head(key: &[u8]) -> Option<u64> {
    key.try_into().ok().map(u64::from_be_bytes)
}

/// Slot `i` now holds `key`, the slots from `i` on having moved up one.
fn head_inserted(heads: &mut KeyHeads, i: usize, key: &[u8]) {
    if let Some(built) = heads.built_mut() {
        match (built.as_mut(), key_head(key)) {
            (Some(array), Some(head)) => array.insert(i, head),
            // No array before, or a key that cannot have one: none after.
            _ => *built = None,
        }
    }
}

/// Slot `i` is gone, the slots after it having moved down one.
fn head_removed(heads: &mut KeyHeads, i: usize) {
    match heads.built_mut() {
        Some(Some(array)) => {
            array.remove(i);
        }
        // The key that kept the page from having an array may be the one
        // removed: derive it afresh.
        Some(None) => heads.clear(),
        None => {}
    }
}

/// The array a page that was just written whole calls for.
fn derived_heads(page: &Page) -> Option<Vec<u64>> {
    NodeRef::parse(page).ok()?.derive_heads()
}

/// Read-only view of one node page, borrowed from the buffer frame. The
/// header is checked once, here; slots and cells are checked as they are
/// read. A view of a cached frame also holds the frame's key heads.
#[derive(Clone, Copy)]
struct NodeRef<'a> {
    page: &'a Page,
    leaf: bool,
    n: usize,
    low: usize,
    dead: usize,
    heads: Option<&'a KeyHeads>,
}

impl<'a> NodeRef<'a> {
    fn parse(page: &'a Page) -> Result<NodeRef<'a>> {
        if page[0] != FORMAT {
            return Err(corrupt(format_args!(
                "unsupported format {} (this build reads format {FORMAT})",
                page[0]
            )));
        }
        let leaf = match page[1] {
            KIND_LEAF => true,
            KIND_INTERIOR => false,
            kind => return Err(corrupt(format_args!("unknown node kind {kind}"))),
        };
        let n = read_u16(page, 2)?;
        let low = read_u16(page, 4)?;
        let dead = read_u16(page, 6)?;
        if low > PAGE_SIZE || HEADER_LEN + SLOT_LEN * n > low || dead > PAGE_SIZE - low {
            return Err(corrupt("header fields disagree with the page size"));
        }
        Ok(NodeRef {
            page,
            leaf,
            n,
            low,
            dead,
            heads: None,
        })
    }

    /// The same view, searching through `heads`, the cache of this page.
    fn with_heads(self, heads: &'a KeyHeads) -> NodeRef<'a> {
        NodeRef {
            heads: Some(heads),
            ..self
        }
    }

    /// The heads of every key in slot order, or `None` when a key is not
    /// 8 bytes or a cell fails its checks (searches then read cells, and
    /// report the fault).
    fn derive_heads(&self) -> Option<Vec<u64>> {
        (0..self.n)
            .map(|i| self.cell(i).ok().and_then(|(key, _)| key_head(key)))
            .collect()
    }

    /// Next leaf (leaf) or `child0` (interior).
    fn ptr(&self) -> PageId {
        PageId(u64::from_le_bytes(
            self.page[8..16].try_into().expect("8 bytes"),
        ))
    }

    /// Contiguous free bytes between the slot array and the cell area.
    fn free(&self) -> usize {
        self.low - HEADER_LEN - SLOT_LEN * self.n
    }

    /// Offset of cell `i`, known to lie in the cell area.
    fn slot(&self, i: usize) -> Result<usize> {
        debug_assert!(i < self.n);
        let off = read_u16(self.page, HEADER_LEN + SLOT_LEN * i)?;
        if off < self.low {
            return Err(corrupt("slot points outside the cell area"));
        }
        Ok(off)
    }

    /// Key and value of cell `i`.
    fn cell(&self, i: usize) -> Result<(&'a [u8], &'a [u8])> {
        let off = self.slot(i)?;
        let klen = read_u16(self.page, off)?;
        let vlen = read_u16(self.page, off + 2)?;
        let start = off + CELL_HEADER_LEN;
        match self.page.get(start..start + klen + vlen) {
            Some(cell) => Ok(cell.split_at(klen)),
            None => Err(corrupt("cell overruns the page")),
        }
    }

    /// `Ok(i)` when slot `i` holds `key`, else `Err(i)` with the slot it
    /// would be inserted before. An 8-byte key is looked up in the key
    /// heads when the page has them; any other search reads cells.
    fn search(&self, key: &[u8]) -> Result<std::result::Result<usize, usize>> {
        if let (Some(head), Some(cache)) = (key_head(key), self.heads) {
            match cache.for_search(|| self.derive_heads()) {
                Some(heads) if heads.len() == self.n => return Ok(heads.binary_search(&head)),
                _ => {}
            }
        }
        let (mut lo, mut hi) = (0, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.cell(mid)?.0.cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(Ok(mid)),
            }
        }
        Ok(Err(lo))
    }

    /// The child subtree for `key`: the rightmost cell whose separator is
    /// `<= key`, or `child0` when `key` precedes every separator.
    fn child_for(&self, key: &[u8]) -> Result<PageId> {
        match self.search(key)? {
            Ok(i) => page_id(self.cell(i)?.1),
            Err(0) => Ok(self.ptr()),
            Err(i) => page_id(self.cell(i - 1)?.1),
        }
    }
}

/// Writes an empty node over `page` and appends cells to it in key order.
struct Builder<'a> {
    page: &'a mut Page,
    n: usize,
    low: usize,
}

impl<'a> Builder<'a> {
    fn new(page: &'a mut Page, leaf: bool, ptr: PageId) -> Builder<'a> {
        page.fill(0);
        page[0] = FORMAT;
        page[1] = if leaf { KIND_LEAF } else { KIND_INTERIOR };
        page[8..16].copy_from_slice(&ptr.0.to_le_bytes());
        write_counts(page, 0, PAGE_SIZE, 0);
        Builder {
            page,
            n: 0,
            low: PAGE_SIZE,
        }
    }

    fn push(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        let slot_at = HEADER_LEN + SLOT_LEN * self.n;
        let need = cell_len(key, val);
        if slot_at + SLOT_LEN + need > self.low {
            // The source page's `dead` count promised room its cells do
            // not leave.
            return Err(corrupt("cells do not fit the page they came from"));
        }
        self.low -= need;
        write_cell(self.page, self.low, key, val);
        write_u16(self.page, slot_at, self.low);
        self.n += 1;
        write_counts(self.page, self.n, self.low, 0);
        Ok(())
    }

    fn push_range(&mut self, cells: &Merged<'_>, range: std::ops::Range<usize>) -> Result<()> {
        for j in range {
            let (k, v) = cells.get(j)?;
            self.push(k, v)?;
        }
        Ok(())
    }
}

/// `at..at + cell_len(key, val)` is free space of a checked page.
fn write_cell(page: &mut Page, at: usize, key: &[u8], val: &[u8]) {
    write_u16(page, at, key.len());
    write_u16(page, at + 2, val.len());
    let start = at + CELL_HEADER_LEN;
    page[start..start + key.len()].copy_from_slice(key);
    page[start + key.len()..start + key.len() + val.len()].copy_from_slice(val);
}

/// A node's cells in key order as they stand once `(key, val)` has been put
/// at `pos` (`Ok`: in place of that slot, `Err`: before it).
struct Merged<'a> {
    src: NodeRef<'a>,
    pos: std::result::Result<usize, usize>,
    key: &'a [u8],
    val: &'a [u8],
}

impl<'a> Merged<'a> {
    fn len(&self) -> usize {
        self.src.n + usize::from(self.pos.is_err())
    }

    fn get(&self, j: usize) -> Result<(&'a [u8], &'a [u8])> {
        match self.pos {
            Ok(at) | Err(at) if j == at => Ok((self.key, self.val)),
            Err(at) if j > at => self.src.cell(j - 1),
            _ => self.src.cell(j),
        }
    }
}

/// Run `f` over `page` with a view of a copy of it taken first. If `f`
/// fails the copy is put back, so a page found corrupt half-way through a
/// rewrite is left as it was found.
fn rewrite<T>(page: &mut Page, f: impl FnOnce(&mut Page, NodeRef<'_>) -> Result<T>) -> Result<T> {
    let before = *page;
    let result = NodeRef::parse(&before).and_then(|src| f(page, src));
    if result.is_err() {
        *page = before;
    }
    result
}

/// What [`put_in_page`] did.
enum Placed {
    Done,
    /// Even rebuilt, the page cannot hold the entry.
    Full,
}

/// Put `(key, val)` at `pos` of `page` without leaving the page: in place
/// when the contiguous free space allows, else by rebuilding the page
/// without its dead bytes when that makes room.
fn put_in_page(
    page: &mut Page,
    pos: std::result::Result<usize, usize>,
    key: &[u8],
    val: &[u8],
) -> Result<Placed> {
    let node = NodeRef::parse(page)?;
    let (n, low, dead, free) = (node.n, node.low, node.dead, node.free());
    let need = cell_len(key, val);
    // What the entry takes from the free space, and the bytes a rebuild
    // would add to it.
    let (want, reclaimable) = match pos {
        Ok(i) => {
            let off = node.slot(i)?;
            let (old_key, old_val) = node.cell(i)?;
            let old = cell_len(old_key, old_val);
            if val.len() <= old_val.len() {
                // The common update: only value bytes (and, if it shrank,
                // two counters) change.
                let start = off + CELL_HEADER_LEN + old_key.len();
                let shrink = old_val.len() - val.len();
                page[start..start + val.len()].copy_from_slice(val);
                if shrink > 0 {
                    write_u16(page, off + 2, val.len());
                    write_counts(page, n, low, dead + shrink);
                }
                return Ok(Placed::Done);
            }
            if need <= free {
                write_cell(page, low - need, key, val);
                write_u16(page, HEADER_LEN + SLOT_LEN * i, low - need);
                write_counts(page, n, low - need, dead + old);
                return Ok(Placed::Done);
            }
            (need, dead + old)
        }
        Err(i) => {
            if need + SLOT_LEN <= free {
                write_cell(page, low - need, key, val);
                let at = HEADER_LEN + SLOT_LEN * i;
                page.copy_within(at..HEADER_LEN + SLOT_LEN * n, at + SLOT_LEN);
                write_u16(page, at, low - need);
                write_counts(page, n + 1, low - need, dead);
                return Ok(Placed::Done);
            }
            (need + SLOT_LEN, dead)
        }
    };
    if want > free + reclaimable {
        return Ok(Placed::Full);
    }
    rewrite(page, |page, src| {
        let merged = Merged { src, pos, key, val };
        Builder::new(page, src.leaf, src.ptr()).push_range(&merged, 0..merged.len())?;
        Ok(Placed::Done)
    })
}

/// Split an overfull node: `left` is rewritten to hold the lower part of
/// its cells with `(key, val)` put at `pos`, `right` (the fresh page
/// `right_id`) receives the upper part, and the separator the parent must
/// add for `right` is returned. The cut falls where the bytes, not the
/// counts, balance, so both halves fit whatever the entry sizes. A leaf
/// keeps the separator's cell as the first of `right`; an interior node
/// moves it up, its subtree becoming `right`'s `child0`.
fn split_page(
    left: &mut Page,
    right: &mut Page,
    right_id: PageId,
    pos: std::result::Result<usize, usize>,
    key: &[u8],
    val: &[u8],
) -> Result<Vec<u8>> {
    rewrite(left, |left, src| {
        let merged = Merged { src, pos, key, val };
        let m = merged.len();
        // Both halves keep at least one cell.
        let last_cut = if src.leaf {
            m.saturating_sub(1)
        } else {
            m.saturating_sub(2)
        };
        if last_cut == 0 {
            return Err(corrupt("page too full to insert into, too empty to split"));
        }
        let mut total = 0;
        for j in 0..m {
            let (k, v) = merged.get(j)?;
            total += SLOT_LEN + cell_len(k, v);
        }
        let (mut cut, mut below) = (0, 0);
        while cut < last_cut && 2 * below < total {
            let (k, v) = merged.get(cut)?;
            below += SLOT_LEN + cell_len(k, v);
            cut += 1;
        }
        let (separator, subtree) = merged.get(cut)?;
        let (left_ptr, right_ptr, right_from) = if src.leaf {
            (right_id, src.ptr(), cut)
        } else {
            (src.ptr(), page_id(subtree)?, cut + 1)
        };
        Builder::new(left, src.leaf, left_ptr).push_range(&merged, 0..cut)?;
        Builder::new(right, src.leaf, right_ptr).push_range(&merged, right_from..m)?;
        Ok(separator.to_vec())
    })
}

/// Remove slot `i`; its cell becomes dead bytes.
fn remove_from_page(page: &mut Page, i: usize) -> Result<()> {
    let node = NodeRef::parse(page)?;
    let (n, low, dead) = (node.n, node.low, node.dead);
    let (k, v) = node.cell(i)?;
    let freed = cell_len(k, v);
    let at = HEADER_LEN + SLOT_LEN * i;
    page.copy_within(at + SLOT_LEN..HEADER_LEN + SLOT_LEN * n, at);
    write_counts(page, n - 1, low, dead + freed);
    Ok(())
}

/// A node split: the parent must add `(separator, right page)`.
type Split = (Vec<u8>, PageId);

/// A B+Tree rooted at a page, performing all I/O through a buffer pool.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    cost: StorageCost,
    len: u64,
    /// Pages on a root-to-leaf path (every leaf is at the same depth). One
    /// for a new tree, one more per root split; a tree re-opened from a
    /// manifest starts at 0 (unknown) and takes the depth of its first
    /// descent, so opening reads no page. Atomic because lookups descend
    /// under a shared borrow; `Relaxed`, as it publishes no other data.
    height: AtomicUsize,
    /// Pages the last descent walked: `height`, except after a root split
    /// and before the next descent, when the path is one page longer than
    /// the walk that split it.
    walked: AtomicUsize,
}

impl BTree {
    /// Create an empty tree (allocates one leaf page).
    pub fn create(pool: Arc<BufferPool>, cost: StorageCost) -> Result<BTree> {
        let (root, frame) = pool.allocate()?;
        Builder::new(frame.data.write().bytes_mut(), true, PageId::NULL);
        frame.mark_dirty();
        Ok(BTree {
            pool,
            root,
            cost,
            len: 0,
            height: AtomicUsize::new(1),
            walked: AtomicUsize::new(1),
        })
    }

    /// Re-open a tree whose root page and length are known (from the
    /// catalog / checkpoint manifest).
    #[must_use]
    pub fn open(pool: Arc<BufferPool>, root: PageId, len: u64, cost: StorageCost) -> BTree {
        BTree {
            pool,
            root,
            cost,
            len,
            height: AtomicUsize::new(0),
            walked: AtomicUsize::new(0),
        }
    }

    /// Current root page (changes when the root splits).
    #[must_use]
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages a point lookup visits: the root, the interior levels and a
    /// leaf. 0 only on a tree re-opened from a manifest that no operation
    /// has descended yet.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height.load(atomic::Ordering::Relaxed)
    }

    /// Pages the last descent fetched: what reading its path again would
    /// fetch, even if the write at its end has since split the root. 0
    /// only before the first descent of a re-opened tree.
    #[must_use]
    pub fn walked(&self) -> usize {
        self.walked.load(atomic::Ordering::Relaxed)
    }

    /// Note that a descent found a leaf at `depth` (0 = the root). The
    /// stores are skipped when nothing changed, so concurrent readers do
    /// not write the shared line.
    fn found_leaf_at(&self, depth: usize) {
        for levels in [&self.height, &self.walked] {
            if levels.load(atomic::Ordering::Relaxed) != depth + 1 {
                levels.store(depth + 1, atomic::Ordering::Relaxed);
            }
        }
    }

    /// Fetch a node to search it. A pointer to a page the disk does not
    /// hold is a fault of the page it was read from.
    fn visit(&self, id: PageId) -> Result<Arc<Frame>> {
        let frame = self.pool.fetch(id).map_err(|e| match e {
            Error::NotFound(what) => corrupt(format_args!("dangling pointer to {what}")),
            e => e,
        })?;
        vtime::charge(self.cost.node_search_ns);
        Ok(frame)
    }

    /// Descend to the leaf that could contain `key` and run `at_leaf` on it
    /// under its frame's read guard.
    fn descend<T>(
        &self,
        key: &[u8],
        at_leaf: impl FnOnce(&Arc<Frame>, NodeRef<'_>) -> Result<T>,
    ) -> Result<T> {
        let mut id = self.root;
        for depth in 0..MAX_DEPTH {
            let frame = self.visit(id)?;
            let guard = frame.data.read();
            let node = NodeRef::parse(guard.bytes())?.with_heads(guard.heads());
            if node.leaf {
                self.found_leaf_at(depth);
                return at_leaf(&frame, node);
            }
            id = node.child_for(key)?;
        }
        Err(too_deep())
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_as(key)
    }

    /// Point lookup into any owner of bytes built from a slice (a `Vec`,
    /// a shared buffer): the value's one copy out of the page.
    pub fn get_as<V: for<'v> From<&'v [u8]>>(&self, key: &[u8]) -> Result<Option<V>> {
        self.descend(key, |_, leaf| {
            Ok(match leaf.search(key)? {
                Ok(i) => Some(V::from(leaf.cell(i)?.1)),
                Err(_) => None,
            })
        })
    }

    /// Insert or overwrite. Returns `true` if the key already existed.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        check_entry_size(key, value)?;
        let (replaced, split) = self.insert_rec(self.root, key, value, 0)?;
        if let Some((separator, right)) = split {
            // Grow a new root.
            let (new_root, frame) = self.pool.allocate()?;
            vtime::charge(self.cost.node_write_ns);
            let mut guard = frame.data.write();
            Builder::new(guard.bytes_mut(), false, self.root)
                .push(&separator, &right.0.to_le_bytes())?;
            frame.mark_dirty();
            self.root = new_root;
            *self.height.get_mut() += 1;
        }
        if !replaced {
            self.len += 1;
        }
        Ok(replaced)
    }

    /// Put the entry into the subtree under `id`. Returns whether the key
    /// already existed and, if the node `id` split, what its parent must add.
    fn insert_rec(
        &mut self,
        id: PageId,
        key: &[u8],
        value: &[u8],
        depth: usize,
    ) -> Result<(bool, Option<Split>)> {
        if depth == MAX_DEPTH {
            return Err(too_deep());
        }
        let frame = self.visit(id)?;
        let child = {
            let guard = frame.data.read();
            let node = NodeRef::parse(guard.bytes())?.with_heads(guard.heads());
            if node.leaf {
                None
            } else {
                Some(node.child_for(key)?)
            }
        };
        let Some(child) = child else {
            self.found_leaf_at(depth);
            return self.put_into(&frame, key, value);
        };
        // The path is not kept pinned while the subtree is written.
        drop(frame);
        let (replaced, split) = self.insert_rec(child, key, value, depth + 1)?;
        let Some((separator, right)) = split else {
            return Ok((replaced, None));
        };
        let frame = self.pool.fetch(id)?;
        let (_, split) = self.put_into(&frame, &separator, &right.0.to_le_bytes())?;
        Ok((replaced, split))
    }

    /// Put `(key, val)` into the node in `frame`, splitting it if it must.
    /// Returns whether the node held `key`, and the split if there was one.
    fn put_into(&mut self, frame: &Frame, key: &[u8], val: &[u8]) -> Result<(bool, Option<Split>)> {
        vtime::charge(self.cost.node_write_ns);
        let mut guard = frame.data.write();
        let (page, heads) = guard.bytes_and_heads_mut();
        let pos = NodeRef::parse(page)?.with_heads(heads).search(key)?;
        let replaced = pos.is_ok();
        if let Placed::Done = put_in_page(page, pos, key, val)? {
            // An overwrite keeps the keys, moved cells or not.
            if let Err(i) = pos {
                head_inserted(heads, i, key);
            }
            frame.mark_dirty();
            return Ok((replaced, None));
        }
        let (right, right_frame) = self.pool.allocate()?;
        vtime::charge(self.cost.node_write_ns);
        let mut right_guard = right_frame.data.write();
        let (right_page, right_heads) = right_guard.bytes_and_heads_mut();
        let separator = split_page(page, right_page, right, pos, key, val)?;
        // Both halves of a page that had an array get theirs.
        if heads.built().is_some() {
            heads.set(derived_heads(page));
            right_heads.set(derived_heads(right_page));
        }
        drop(right_guard);
        right_frame.mark_dirty();
        frame.mark_dirty();
        Ok((replaced, Some((separator, right))))
    }

    /// Read-modify-write `key` in one descent: `f` maps the current value
    /// (`None`: no row) to the new one (`None`: delete), which is written
    /// in place under the leaf's write guard. Returns the old and the new
    /// value. A value that does not fit its leaf, and a row that goes away,
    /// take [`BTree::put`] or [`BTree::delete`] instead.
    ///
    /// The virtual time is that of [`BTree::get_as`] followed by the write:
    /// the read's fetches and searches are made, and the write's all-hit
    /// walk down the same path is charged without being made (a buffer hit
    /// and a node search per level, then the node write). The pool's
    /// counters do not see that walk, and it would only re-touch the frames
    /// the read has just touched, in the same order, so the LRU order is
    /// the one the two calls leave. A fallback makes its own walk, so
    /// nothing is charged twice.
    pub fn update_with<V>(
        &mut self,
        key: &[u8],
        f: impl FnOnce(Option<&V>) -> Result<Option<V>>,
    ) -> Result<(Option<V>, Option<V>)>
    where
        V: for<'v> From<&'v [u8]> + AsRef<[u8]>,
    {
        let frame = self.descend(key, |frame, _| Ok(Arc::clone(frame)))?;
        let mut guard = frame.data.write();
        let (page, heads) = guard.bytes_and_heads_mut();
        let node = NodeRef::parse(page)?.with_heads(heads);
        let pos = node.search(key)?;
        let before = match pos {
            Ok(i) => Some(V::from(node.cell(i)?.1)),
            Err(_) => None,
        };
        let after = f(before.as_ref())?;
        let written = match &after {
            Some(value) => {
                check_entry_size(key, value.as_ref())?;
                matches!(put_in_page(page, pos, key, value.as_ref())?, Placed::Done)
            }
            None => false,
        };
        if written {
            if let Err(i) = pos {
                head_inserted(heads, i, key);
                self.len += 1;
            }
            frame.mark_dirty();
        }
        drop(guard);
        drop(frame);
        if written {
            let levels = self.walked() as u64;
            vtime::charge(
                levels * (self.cost.buffer_hit_ns + self.cost.node_search_ns)
                    + self.cost.node_write_ns,
            );
        } else if let Some(value) = &after {
            self.put(key, value.as_ref())?;
        } else {
            self.delete(key)?;
        }
        Ok((before, after))
    }

    /// Remove a key. Returns `true` if it existed. Pages are never merged.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let frame = self.descend(key, |frame, _| Ok(Arc::clone(frame)))?;
        let mut guard = frame.data.write();
        let (page, heads) = guard.bytes_and_heads_mut();
        let Ok(i) = NodeRef::parse(page)?.with_heads(heads).search(key)? else {
            return Ok(false);
        };
        vtime::charge(self.cost.node_write_ns);
        remove_from_page(page, i)?;
        head_removed(heads, i);
        frame.mark_dirty();
        // Saturating: a corrupt page can hold a key the catalog never counted.
        self.len = self.len.saturating_sub(1);
        Ok(true)
    }

    /// Range scan over `[start, end)` (whole tree if `end` is `None`),
    /// calling `f(key, value)` for each entry in order; stop early when `f`
    /// returns `false`.
    pub fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        let mut next = self.descend(start, |_, leaf| {
            let from = leaf.search(start)?.unwrap_or_else(|i| i);
            self.emit(leaf, from, end, &mut f)
        })?;
        // A chain longer than the disk has pages revisits one.
        let mut hops_left = self.pool.disk().page_count();
        while let Some(id) = next.filter(|id| !id.is_null()) {
            if hops_left == 0 {
                return Err(corrupt("leaf chain longer than the disk (pointer cycle)"));
            }
            hops_left -= 1;
            let frame = self.visit(id)?;
            let guard = frame.data.read();
            let leaf = NodeRef::parse(guard.bytes())?;
            if !leaf.leaf {
                return Err(corrupt("leaf chain points at an interior node"));
            }
            next = self.emit(leaf, 0, end, &mut f)?;
        }
        Ok(())
    }

    /// Hand the cells of `leaf` from slot `from` on to `f`. Returns the next
    /// leaf to continue with, or `None` when the scan is over.
    fn emit(
        &self,
        leaf: NodeRef<'_>,
        from: usize,
        end: Option<&[u8]>,
        f: &mut impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<Option<PageId>> {
        for i in from..leaf.n {
            let (k, v) = leaf.cell(i)?;
            if end.is_some_and(|end| k >= end) {
                return Ok(None);
            }
            vtime::charge(self.cost.scan_per_record_ns);
            if !f(k, v) {
                return Ok(None);
            }
        }
        Ok(Some(leaf.ptr()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::EvictionPolicy;
    use crate::disk::{DiskBackend, MemDisk};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemDisk::new()),
            1024,
            StorageCost::free(),
        ));
        BTree::create(pool, StorageCost::free()).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    fn page_of(t: &BTree, id: PageId) -> Page {
        *t.pool.fetch(id).unwrap().data.read().bytes()
    }

    fn patch(t: &BTree, id: PageId, f: impl FnOnce(&mut Page)) {
        let frame = t.pool.fetch(id).unwrap();
        f(frame.data.write().bytes_mut());
        frame.mark_dirty();
    }

    /// Check the module doc's invariants on every page under `id`, whose
    /// keys must lie in `lo..hi`. Returns the entries below it and appends
    /// `(leaf, its next pointer)` in key order.
    fn check_node(
        t: &BTree,
        id: PageId,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        leaves: &mut Vec<(PageId, PageId)>,
    ) -> u64 {
        let page = page_of(t, id);
        let node = NodeRef::parse(&page).unwrap();
        let mut extents = Vec::new();
        let mut prev: Option<&[u8]> = None;
        for i in 0..node.n {
            let (k, v) = node.cell(i).unwrap();
            assert!(prev.is_none_or(|p| p < k), "{id:?}: slots out of order");
            assert!(lo.is_none_or(|lo| k >= lo) && hi.is_none_or(|hi| k < hi));
            let off = node.slot(i).unwrap();
            extents.push((off, off + cell_len(k, v)));
            prev = Some(k);
        }
        extents.sort_unstable();
        assert!(
            extents.windows(2).all(|w| w[0].1 <= w[1].0),
            "{id:?}: cells overlap"
        );
        let live: usize = extents.iter().map(|(from, to)| to - from).sum();
        assert_eq!(node.dead, PAGE_SIZE - node.low - live, "{id:?}: dead bytes");
        if node.leaf {
            leaves.push((id, node.ptr()));
            return node.n as u64;
        }
        assert!(node.n >= 1, "{id:?}: interior node with one child");
        let mut entries = 0;
        for c in 0..=node.n {
            let (child, child_lo) = match c {
                0 => (node.ptr(), lo),
                c => {
                    let (k, v) = node.cell(c - 1).unwrap();
                    (page_id(v).unwrap(), Some(k))
                }
            };
            let child_hi = if c == node.n {
                hi
            } else {
                Some(node.cell(c).unwrap().0)
            };
            entries += check_node(t, child, child_lo, child_hi, leaves);
        }
        entries
    }

    /// Every page well-formed, separators bound their subtrees, the leaf
    /// chain runs through the leaves in key order, `len` counts the cells.
    fn check_tree(t: &BTree) {
        let mut leaves = Vec::new();
        assert_eq!(check_node(t, t.root, None, None, &mut leaves), t.len);
        for w in leaves.windows(2) {
            assert_eq!(w[0].1, w[1].0, "leaf chain skips a leaf");
        }
        assert!(leaves.last().unwrap().1.is_null());
    }

    #[test]
    fn put_get_single() {
        let mut t = tree();
        assert!(!t.put(b"a", b"1").unwrap());
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), None);
        assert_eq!(t.len(), 1);
    }

    /// Pages from the root down to the leftmost leaf, by walking them.
    fn walked_height(t: &BTree) -> usize {
        let mut id = t.root();
        for height in 1.. {
            let node = page_of(t, id);
            let node = NodeRef::parse(&node).unwrap();
            if node.leaf {
                return height;
            }
            id = node.ptr();
        }
        unreachable!()
    }

    #[test]
    fn height_follows_root_splits_and_is_learned_after_open() {
        let mut t = tree();
        assert_eq!(t.height(), 1);
        let mut i = 0;
        while t.height() < 3 {
            t.put(&key(i), &[7; 300]).unwrap();
            assert_eq!(t.height(), walked_height(&t), "after {i} puts");
            i += 1;
        }
        let reopened = BTree::open(Arc::clone(&t.pool), t.root(), t.len(), StorageCost::free());
        assert_eq!(reopened.height(), 0, "opening reads no page");
        reopened.get(&key(0)).unwrap();
        assert_eq!(reopened.height(), 3);
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut t = tree();
        t.put(b"k", b"v1").unwrap();
        assert!(t.put(b"k", b"v2").unwrap());
        assert_eq!(t.get(b"k").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_split_and_remain_searchable() {
        let mut t = tree();
        let n = 5_000u64;
        for i in 0..n {
            t.put(&key(i), format!("val-{i}").as_bytes()).unwrap();
        }
        assert_eq!(t.len(), n);
        for i in (0..n).step_by(97) {
            assert_eq!(
                t.get(&key(i)).unwrap(),
                Some(format!("val-{i}").into_bytes()),
                "key {i}"
            );
        }
        assert!(t.root() != PageId(0) || n < 10, "root must have split");
        check_tree(&t);
    }

    #[test]
    fn reverse_and_shuffled_insert_orders() {
        for mode in 0..2 {
            let mut t = tree();
            let mut order: Vec<u64> = (0..2_000).collect();
            if mode == 0 {
                order.reverse();
            } else {
                let mut rng = harmony_common::DetRng::new(5);
                rng.shuffle(&mut order);
            }
            for &i in &order {
                t.put(&key(i), &i.to_le_bytes()).unwrap();
            }
            for i in 0..2_000 {
                assert_eq!(t.get(&key(i)).unwrap(), Some(i.to_le_bytes().to_vec()));
            }
        }
    }

    #[test]
    fn delete_and_reinsert() {
        let mut t = tree();
        for i in 0..500 {
            t.put(&key(i), b"x").unwrap();
        }
        for i in (0..500).step_by(2) {
            assert!(t.delete(&key(i)).unwrap());
        }
        assert!(!t.delete(&key(0)).unwrap(), "double delete returns false");
        assert_eq!(t.len(), 250);
        for i in 0..500 {
            let expect = i % 2 == 1;
            assert_eq!(t.get(&key(i)).unwrap().is_some(), expect, "key {i}");
        }
        // Reinsert deleted keys.
        for i in (0..500).step_by(2) {
            t.put(&key(i), b"y").unwrap();
        }
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(&key(4)).unwrap(), Some(b"y".to_vec()));
        check_tree(&t);
    }

    #[test]
    fn scan_full_range_in_order() {
        let mut t = tree();
        for i in 0..1_000 {
            t.put(&key(i), &i.to_le_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        t.scan(b"", None, |k, _| {
            seen.push(k.to_vec());
            true
        })
        .unwrap();
        assert_eq!(seen.len(), 1_000);
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "scan must be ordered");
    }

    #[test]
    fn scan_subrange_and_early_stop() {
        let mut t = tree();
        for i in 0..100 {
            t.put(&key(i), b"v").unwrap();
        }
        let mut count = 0;
        t.scan(&key(10), Some(&key(20)), |_, _| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 10);
        let mut count = 0;
        t.scan(&key(0), None, |_, _| {
            count += 1;
            count < 5
        })
        .unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree();
        let big = vec![0u8; MAX_ENTRY_SIZE + 1];
        assert!(matches!(t.put(b"k", &big), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn tiny_buffer_pool_still_correct() {
        // Capacity 4 frames forces constant eviction during the build.
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemDisk::new()),
            4,
            StorageCost::free(),
        ));
        let mut t = BTree::create(pool, StorageCost::free()).unwrap();
        for i in 0..2_000u64 {
            t.put(&key(i), &i.to_le_bytes()).unwrap();
        }
        for i in (0..2_000).step_by(53) {
            assert_eq!(t.get(&key(i)).unwrap(), Some(i.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn reopen_from_root_pointer() {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemDisk::new()),
            256,
            StorageCost::free(),
        ));
        let (root, len) = {
            let mut t = BTree::create(Arc::clone(&pool), StorageCost::free()).unwrap();
            for i in 0..800u64 {
                t.put(&key(i), &i.to_le_bytes()).unwrap();
            }
            (t.root(), t.len())
        };
        let t = BTree::open(pool, root, len, StorageCost::free());
        assert_eq!(t.len(), 800);
        assert_eq!(
            t.get(&key(799)).unwrap(),
            Some(799u64.to_le_bytes().to_vec())
        );
    }

    #[test]
    fn model_check_against_btreemap() {
        let mut t = tree();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = harmony_common::DetRng::new(99);
        for step in 0..5_000 {
            let k = key(rng.gen_range(600));
            match rng.gen_range(10) {
                0..=5 => {
                    // Lengths from 2 to ~400 bytes: overwrites grow and
                    // shrink, pages fill with dead bytes, get rebuilt, split.
                    let v =
                        format!("v{step}").repeat(1 + rng.gen_range(80) as usize % (1 + step % 81));
                    let v = v.into_bytes();
                    let replaced = t.put(&k, &v).unwrap();
                    assert_eq!(replaced, model.insert(k, v).is_some());
                }
                6..=7 => {
                    let deleted = t.delete(&k).unwrap();
                    assert_eq!(deleted, model.remove(&k).is_some());
                }
                _ => {
                    assert_eq!(t.get(&k).unwrap(), model.get(&k).cloned());
                }
            }
        }
        assert_eq!(t.len(), model.len() as u64);
        // Final full comparison via scan.
        let mut scanned = Vec::new();
        t.scan(b"", None, |k, v| {
            scanned.push((k.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
        let expect: Vec<_> = model.into_iter().collect();
        assert_eq!(scanned, expect);
        check_tree(&t);
    }

    #[test]
    fn same_length_overwrite_touches_only_the_value() {
        let mut t = tree();
        for i in 0..20 {
            t.put(&key(i), b"before--").unwrap();
        }
        let before = page_of(&t, t.root());
        t.put(&key(7), b"after---").unwrap();
        let after = page_of(&t, t.root());
        let changed: Vec<usize> = (0..PAGE_SIZE).filter(|&i| before[i] != after[i]).collect();
        assert!(!changed.is_empty() && changed.len() <= 8);
        assert!(changed[changed.len() - 1] - changed[0] < 8, "{changed:?}");
        assert_eq!(&after[changed[0]..changed[0] + 5], b"after");
    }

    #[test]
    fn dead_bytes_are_reclaimed_before_a_page_splits() {
        let mut t = tree();
        // Each round moves every cell (a growing value cannot stay in
        // place), so without reclaiming dead bytes the page would split.
        for round in 1..=40usize {
            for i in 0..8 {
                t.put(&key(i), &vec![round as u8; 10 * round]).unwrap();
            }
            check_tree(&t);
        }
        assert_eq!(t.root(), PageId(0), "8 entries of 400 bytes fit one page");
        assert_eq!(t.pool.disk().page_count(), 1);
        // ... and shrinking in place accounts the tail as dead.
        for i in 0..8 {
            t.put(&key(i), b"small").unwrap();
        }
        check_tree(&t);
        assert_eq!(t.get(&key(3)).unwrap(), Some(b"small".to_vec()));
    }

    #[test]
    fn largest_entries_split_by_bytes() {
        // Five maximal entries cannot share a page; a split by count would
        // leave one half overfull when small entries pad the other.
        let mut t = tree();
        for i in 0..40 {
            t.put(&key(1_000 + i), b"s").unwrap();
        }
        let big = vec![0xEE; MAX_ENTRY_SIZE - key(0).len()];
        for i in 0..12 {
            t.put(&key(i), &big).unwrap();
            check_tree(&t);
        }
        for i in 0..12 {
            assert_eq!(t.get(&key(i)).unwrap().as_deref(), Some(big.as_slice()));
        }
        assert_eq!(t.len(), 52);
    }

    /// The same operations leave the same bytes on disk, whatever the pool
    /// evicted on the way: what page-shipping checkpoints will rely on.
    #[test]
    fn page_bytes_are_a_function_of_the_operations() {
        let build = |capacity, policy| {
            let disk = Arc::new(MemDisk::new());
            let pool = Arc::new(BufferPool::with_policy(
                Arc::clone(&disk) as Arc<dyn DiskBackend>,
                capacity,
                StorageCost::free(),
                policy,
            ));
            let mut t = BTree::create(Arc::clone(&pool), StorageCost::free()).unwrap();
            let mut rng = harmony_common::DetRng::new(7);
            for step in 0..6_000u64 {
                let k = key(rng.gen_range(500));
                if rng.gen_range(4) == 0 {
                    t.delete(&k).unwrap();
                } else {
                    let len = rng.gen_range(if step % 50 == 0 { 800 } else { 90 });
                    t.put(&k, &vec![step as u8; len as usize]).unwrap();
                }
            }
            check_tree(&t);
            pool.flush_all().unwrap();
            let pages: Vec<Page> = (0..disk.page_count())
                .map(|id| {
                    let mut buf = crate::page::PageBuf::zeroed();
                    disk.read_page(PageId(id), &mut buf).unwrap();
                    *buf.bytes()
                })
                .collect();
            (t.root(), pages)
        };
        let (root_a, pages_a) = build(1024, EvictionPolicy::NoSteal);
        let (root_b, pages_b) = build(4, EvictionPolicy::Steal);
        assert_eq!(root_a, root_b);
        assert!(pages_a.len() > 8, "the sequence must split pages");
        assert!(pages_a == pages_b, "page bytes differ");
    }

    fn corruption(r: Result<impl std::fmt::Debug>) -> String {
        match r {
            Err(Error::Corruption(what)) => what,
            other => panic!("expected a corruption error, got {other:?}"),
        }
    }

    #[test]
    fn other_formats_are_refused_not_misread() {
        let mut t = tree();
        t.put(b"k", b"v").unwrap();
        // A zeroed page, and the root leaf as the previous layout wrote it
        // (tag 0, count 1, next = NULL, then the entry).
        let mut old = [0u8; PAGE_SIZE];
        old[1] = 1;
        old[3..11].copy_from_slice(&u64::MAX.to_le_bytes());
        old[11..17].copy_from_slice(&[1, 0, 1, 0, b'k', b'v']);
        for page in [[0u8; PAGE_SIZE], old] {
            patch(&t, t.root(), |p| *p = page);
            assert!(corruption(t.get(b"k")).contains("unsupported format 0"));
            assert!(corruption(t.put(b"k", b"w")).contains("unsupported format 0"));
            assert!(corruption(t.delete(b"k")).contains("unsupported format 0"));
            assert!(corruption(t.scan(b"", None, |_, _| true)).contains("unsupported format 0"));
        }
    }

    #[test]
    fn pointer_cycles_end_in_an_error() {
        let mut t = tree();
        for i in 0..2_000 {
            t.put(&key(i), b"v").unwrap();
        }
        let root = t.root();
        assert!(!NodeRef::parse(&page_of(&t, root)).unwrap().leaf);
        // The leaf chain bites its tail: a full scan must stop.
        let first_leaf = t.descend(b"", |f, _| Ok(f.page_id)).unwrap();
        let last_leaf = t.descend(&key(9_999), |f, _| Ok(f.page_id)).unwrap();
        patch(&t, last_leaf, |p| {
            p[8..16].copy_from_slice(&first_leaf.0.to_le_bytes())
        });
        assert!(corruption(t.scan(b"", None, |_, _| true)).contains("leaf chain"));
        // The root's first child is the root: descents must stop.
        patch(&t, root, |p| {
            p[8..16].copy_from_slice(&root.0.to_le_bytes())
        });
        assert!(corruption(t.get(b"a")).contains("deeper"));
        assert!(corruption(t.put(b"a", b"v")).contains("deeper"));
        assert!(corruption(t.delete(b"a")).contains("deeper"));
        // A pointer off the disk is the page's fault, not a missing table.
        patch(&t, root, |p| {
            p[8..16].copy_from_slice(&(u64::MAX / 2).to_le_bytes())
        });
        assert!(corruption(t.get(b"a")).contains("dangling"));
    }

    #[test]
    fn torn_cells_are_errors() {
        let mut t = tree();
        for i in 0..10 {
            t.put(&key(i), b"value").unwrap();
        }
        let root = t.root();
        let good = page_of(&t, root);
        // A slot pointing into the slot array; a key length running off
        // the page; a header whose counts cannot both be true.
        let slot0 = HEADER_LEN;
        let cell0 = usize::from(u16::from_le_bytes([good[slot0], good[slot0 + 1]]));
        type Tear = fn(&mut Page, usize);
        let tears: [Tear; 3] = [
            |p, _| p[HEADER_LEN..HEADER_LEN + 2].copy_from_slice(&4u16.to_le_bytes()),
            |p, cell| p[cell..cell + 2].copy_from_slice(&u16::MAX.to_le_bytes()),
            |p, _| p[2..4].copy_from_slice(&3000u16.to_le_bytes()),
        ];
        for tear in tears {
            patch(&t, root, |p| {
                *p = good;
                tear(p, cell0);
            });
            corruption(t.get(&key(0)));
            corruption(t.put(&key(0), b"grown value"));
            corruption(t.delete(&key(0)));
            corruption(t.scan(b"", None, |_, _| true));
        }
        patch(&t, root, |p| *p = good);
        assert_eq!(t.get(&key(0)).unwrap(), Some(b"value".to_vec()));
    }

    /// Every cached frame's key heads, if held, are what its page bytes
    /// call for now.
    fn check_heads(pool: &BufferPool) -> usize {
        let mut arrays = 0;
        for frame in pool.frames() {
            let guard = frame.data.read();
            if let Some(built) = guard.heads().built() {
                let derived = derived_heads(guard.bytes());
                assert_eq!(
                    built,
                    derived.as_deref(),
                    "stale heads on {:?}",
                    frame.page_id
                );
                arrays += usize::from(built.is_some());
            }
        }
        arrays
    }

    #[test]
    fn heads_are_built_on_a_pages_second_search_and_kept_by_writes() {
        let mut t = tree();
        let root_heads = |t: &BTree| {
            let frame = t.pool.fetch(t.root()).unwrap();
            let guard = frame.data.read();
            guard
                .heads()
                .built()
                .map(|built| built.map(<[u64]>::to_vec))
        };
        assert_eq!(root_heads(&t), None);
        t.get(&4u64.to_be_bytes()).unwrap();
        assert_eq!(root_heads(&t), None, "first search");
        t.put(&4u64.to_be_bytes(), b"v").unwrap();
        assert_eq!(root_heads(&t), Some(Some(vec![4])), "second search");
        for i in 0..50u64 {
            t.put(&(i * 2).to_be_bytes(), b"v").unwrap();
        }
        // Inserted, overwritten (same length, longer, shorter), removed:
        // the array follows the keys without being rebuilt.
        t.put(&3u64.to_be_bytes(), b"w").unwrap();
        t.put(&4u64.to_be_bytes(), b"x").unwrap();
        t.put(&6u64.to_be_bytes(), &[1; 64]).unwrap();
        t.put(&8u64.to_be_bytes(), b"").unwrap();
        t.delete(&0u64.to_be_bytes()).unwrap();
        assert_eq!(check_heads(&t.pool), 1);
        let heads = root_heads(&t).unwrap().unwrap();
        assert_eq!(heads.len(), 50);
        assert_eq!(heads[..3], [2, 3, 4]);
        // A key of another length leaves the page without an array.
        t.put(b"odd", b"v").unwrap();
        assert_eq!(root_heads(&t), Some(None));
        assert_eq!(t.get(b"odd").unwrap(), Some(b"v".to_vec()));
        assert_eq!(t.get(&3u64.to_be_bytes()).unwrap(), Some(b"w".to_vec()));
        check_tree(&t);
    }

    #[test]
    fn a_buffer_reused_from_an_evicted_leaf_serves_the_page_read_into_it() {
        let pool = Arc::new(BufferPool::with_policy(
            Arc::new(MemDisk::new()),
            4,
            StorageCost::free(),
            EvictionPolicy::Steal,
        ));
        let mut t = BTree::create(Arc::clone(&pool), StorageCost::free()).unwrap();
        let value = |i: u64| vec![i as u8; 100];
        for i in 0..2_000u64 {
            t.put(&i.to_be_bytes(), &value(i)).unwrap();
        }
        let frame_of = |id: PageId| pool.frames().into_iter().find(|f| f.page_id == id);
        // Leaf A, searched twice since it was read: its frame has heads.
        let leaf_a = t
            .descend(&0u64.to_be_bytes(), |f, _| Ok(f.page_id))
            .unwrap();
        t.get(&0u64.to_be_bytes()).unwrap();
        t.get(&0u64.to_be_bytes()).unwrap();
        let held = {
            let frame = frame_of(leaf_a).unwrap();
            let guard = frame.data.read();
            assert!(matches!(guard.heads().built(), Some(Some(_))));
            guard.bytes().as_ptr()
        };
        // Read leaves far from A until a miss reads a page into its buffer.
        let reused = (100..2_000u64)
            .step_by(37)
            .find_map(|i| {
                t.get(&i.to_be_bytes()).unwrap();
                pool.frames()
                    .into_iter()
                    .find(|f| f.page_id != leaf_a && f.data.read().bytes().as_ptr() == held)
            })
            .expect("a miss reuses the evicted leaf's buffer");
        let leaf_b = reused.page_id;
        assert!(frame_of(leaf_a).is_none(), "A was evicted");
        assert_eq!(reused.data.read().heads().built(), None, "A's heads went");
        let keys: Vec<Vec<u8>> = {
            let guard = reused.data.read();
            let node = NodeRef::parse(guard.bytes()).unwrap();
            assert!(node.leaf);
            (0..node.n)
                .map(|i| node.cell(i).unwrap().0.to_vec())
                .collect()
        };
        drop(reused);
        // Twice over, so the second pass searches through B's own heads.
        for _ in 0..2 {
            for key in &keys {
                let i = u64::from_be_bytes(key.as_slice().try_into().unwrap());
                assert_eq!(t.get(key).unwrap(), Some(value(i)));
                assert_eq!(t.get(&(i + 2_000).to_be_bytes()).unwrap(), None);
                assert_eq!(frame_of(leaf_b).map(|f| f.page_id), Some(leaf_b));
            }
        }
        assert!(matches!(
            frame_of(leaf_b).unwrap().data.read().heads().built(),
            Some(Some(_))
        ));
        check_heads(&pool);
    }

    /// What the key-head property does to a tree.
    #[derive(Clone, Debug)]
    enum HeadOp {
        Get(u16),
        /// Put a value of this length.
        Put(u16, u16),
        /// Overwrite with the present value's length plus this (0: the
        /// same length).
        Resize(u16, i16),
        Delete(u16),
        Scan(u16, u16),
    }

    /// 8-byte keys, or (mixed) keys of 2, 7, 8 and 9 bytes whose heads
    /// collide: a 7-byte key's head is an 8-byte key's with a zero tail.
    fn head_key(k: u16, mixed: bool) -> Vec<u8> {
        let full = u64::from(k).to_be_bytes();
        match (mixed, k % 4) {
            (true, 0) => full[6..].to_vec(),
            (true, 1) => full[..7].to_vec(),
            (true, 2) => [&full[..], &[k as u8]].concat(),
            _ => full.to_vec(),
        }
    }

    fn head_op() -> impl Strategy<Value = HeadOp> {
        let key = || 0u16..300;
        prop_oneof![
            key().prop_map(HeadOp::Get),
            key().prop_map(HeadOp::Get),
            (key(), 0u16..500).prop_map(|(k, len)| HeadOp::Put(k, len)),
            (key(), 0u16..500).prop_map(|(k, len)| HeadOp::Put(k, len)),
            (key(), -40i16..41).prop_map(|(k, d)| HeadOp::Resize(k, d)),
            (key(), Just(0i16)).prop_map(|(k, d)| HeadOp::Resize(k, d)),
            key().prop_map(HeadOp::Delete),
            (key(), key()).prop_map(|(a, b)| HeadOp::Scan(a.min(b), a.max(b))),
        ]
    }

    /// Run `ops` on a tree and a `BTreeMap`; after every one the answers
    /// agree and no cached frame holds stale heads.
    fn heads_follow_the_keys(ops: &[HeadOp], mixed: bool, capacity: usize, policy: EvictionPolicy) {
        let pool = Arc::new(BufferPool::with_policy(
            Arc::new(MemDisk::new()),
            capacity,
            StorageCost::free(),
            policy,
        ));
        let mut t = BTree::create(Arc::clone(&pool), StorageCost::free()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            let fill = step as u8;
            match *op {
                HeadOp::Get(k) => {
                    let k = head_key(k, mixed);
                    assert_eq!(t.get(&k).unwrap(), model.get(&k).cloned());
                }
                HeadOp::Put(k, len) => {
                    let (k, v) = (head_key(k, mixed), vec![fill; usize::from(len)]);
                    assert_eq!(t.put(&k, &v).unwrap(), model.insert(k, v).is_some());
                }
                HeadOp::Resize(k, delta) => {
                    let k = head_key(k, mixed);
                    let old = model.get(&k).map_or(10, Vec::len);
                    let len = old.saturating_add_signed(isize::from(delta)).min(600);
                    let v = vec![fill; len];
                    assert_eq!(t.put(&k, &v).unwrap(), model.insert(k, v).is_some());
                }
                HeadOp::Delete(k) => {
                    let k = head_key(k, mixed);
                    assert_eq!(t.delete(&k).unwrap(), model.remove(&k).is_some());
                }
                HeadOp::Scan(a, b) => {
                    let (a, b) = (head_key(a, mixed), head_key(b, mixed));
                    let mut got = Vec::new();
                    t.scan(&a, Some(&b), |k, v| {
                        got.push((k.to_vec(), v.to_vec()));
                        true
                    })
                    .unwrap();
                    let expect: Vec<_> = if a < b {
                        model
                            .range(a..b)
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(got, expect);
                }
            }
            check_heads(&pool);
        }
        check_tree(&t);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Key heads never go stale: whatever mix of reads, overwrites
        /// (same length, growing, shrinking), inserts, deletes and scans,
        /// under eviction or not, every cached array equals the one its
        /// page bytes call for, and every answer equals the model's.
        #[test]
        fn key_heads_never_go_stale(ops in prop::collection::vec(head_op(), 1..400)) {
            for mixed in [false, true] {
                heads_follow_the_keys(&ops, mixed, 4, EvictionPolicy::Steal);
                heads_follow_the_keys(&ops, mixed, 1024, EvictionPolicy::NoSteal);
            }
        }
    }
}
