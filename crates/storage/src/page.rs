//! Pages and page identifiers.
//!
//! A [`PageBuf`] is the page's bytes and, beside them, a crate-private
//! `KeyHeads`: a lookup cache the B+Tree derives from those bytes (see
//! [`crate::btree`]'s "Lookups"). The cache never reaches the disk. Only
//! the B+Tree may write the bytes and keep the cache, editing it as it
//! edits the keys; the one public write path, [`PageBuf::bytes_mut`],
//! drops it, so it can only be as new as the bytes it was derived from.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Size of one page in bytes. 4 KiB matches common SSD sector granularity
/// and the paper's PostgreSQL substrate.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within a disk backend.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel meaning "no page" (used for leaf chain terminators).
    pub const NULL: PageId = PageId(u64::MAX);

    /// Whether this is the null sentinel.
    #[must_use]
    pub fn is_null(self) -> bool {
        self == PageId::NULL
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "P-")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

/// A heap-allocated page buffer.
pub struct PageBuf {
    data: Box<[u8; PAGE_SIZE]>,
    heads: KeyHeads,
}

impl PageBuf {
    /// A zeroed page.
    #[must_use]
    pub fn zeroed() -> PageBuf {
        PageBuf {
            data: vec![0u8; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("exact size"),
            heads: KeyHeads::default(),
        }
    }

    /// Read view.
    #[must_use]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Write view. Drops the key-head cache: whatever is written, no
    /// array derived from the old bytes survives it.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.heads.clear();
        &mut self.data
    }

    /// The key-head cache, for a search under a shared borrow.
    #[must_use]
    pub(crate) fn heads(&self) -> &KeyHeads {
        &self.heads
    }

    /// Write view that keeps the key-head cache: the caller changes the
    /// array exactly as it changes the keys (the B+Tree's writes).
    pub(crate) fn bytes_and_heads_mut(&mut self) -> (&mut [u8; PAGE_SIZE], &mut KeyHeads) {
        (&mut self.data, &mut self.heads)
    }
}

impl Clone for PageBuf {
    fn clone(&self) -> Self {
        PageBuf {
            data: self.data.clone(),
            heads: KeyHeads::default(),
        }
    }
}

/// The 8-byte big-endian heads of a node page's keys, in slot order, kept
/// beside the page in its frame so a search compares `u64`s instead of
/// reading cells. What a head means, and how the array is derived and
/// kept up to date, is the B+Tree's business; this type holds the array
/// and its life cycle:
///
/// * a page starts without one (fresh from the disk or just allocated);
/// * its first search only notes that it was searched, and the second
///   builds the array — so a page read by a miss and evicted before it
///   is searched again never pays for one (on a pool far smaller than
///   the tree, close to half the pages a miss loads are evicted after a
///   single search, and building on the first search cost such a
///   workload about a tenth of its throughput on a 2-vCPU host);
/// * a writer holding the page exclusively edits the array in place
///   ([`KeyHeads::built_mut`]) or drops it ([`KeyHeads::clear`]).
///
/// The built value is `None` for a page whose keys have no array (a key
/// that is not 8 bytes, or a cell that fails its checks); searches of
/// such a page read cells.
#[derive(Default)]
pub(crate) struct KeyHeads {
    searched: AtomicBool,
    built: OnceLock<Option<Vec<u64>>>,
}

impl KeyHeads {
    /// The array for a search: built already, built now by `derive` on
    /// the page's second search since it was dropped, or `None`.
    pub(crate) fn for_search(&self, derive: impl FnOnce() -> Option<Vec<u64>>) -> Option<&[u64]> {
        if let Some(built) = self.built.get() {
            return built.as_deref();
        }
        if !self.searched.load(Ordering::Relaxed) {
            self.searched.store(true, Ordering::Relaxed);
            return None;
        }
        self.built.get_or_init(derive).as_deref()
    }

    /// The built value, to edit in place; `None` when nothing is built.
    pub(crate) fn built_mut(&mut self) -> Option<&mut Option<Vec<u64>>> {
        self.built.get_mut()
    }

    /// What is held: nothing, the finding that the page has no array
    /// (`Some(None)`), or the array.
    #[must_use]
    pub(crate) fn built(&self) -> Option<Option<&[u64]>> {
        self.built.get().map(Option::as_deref)
    }

    /// Replace what is held with `built`, the page's rewritten keys.
    pub(crate) fn set(&mut self, built: Option<Vec<u64>>) {
        self.built = OnceLock::from(built);
    }

    /// Drop the array: the next search but one builds it again.
    pub(crate) fn clear(&mut self) {
        self.built.take();
        *self.searched.get_mut() = false;
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        PageBuf::zeroed()
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageBuf[{PAGE_SIZE}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero() {
        let p = PageBuf::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn heads_are_built_on_the_second_search_and_dropped_by_a_raw_write() {
        let mut p = PageBuf::zeroed();
        let derive = || Some(vec![1, 2, 3]);
        assert_eq!(p.heads().for_search(derive), None, "first search");
        assert_eq!(p.heads().for_search(derive), Some(&[1, 2, 3][..]));
        assert_eq!(
            p.heads().for_search(|| unreachable!()),
            Some(&[1, 2, 3][..])
        );
        if let Some(Some(heads)) = p.bytes_and_heads_mut().1.built_mut() {
            heads.push(4);
        }
        assert_eq!(
            p.heads().for_search(|| unreachable!()),
            Some(&[1, 2, 3, 4][..])
        );
        p.bytes_mut()[0] = 1;
        assert_eq!(p.heads().built(), None);
        assert_eq!(p.heads().for_search(derive), None, "first search again");
        assert!(
            p.clone().heads().for_search(derive).is_none(),
            "a copy starts cold"
        );
    }

    #[test]
    fn null_page_id() {
        assert!(PageId::NULL.is_null());
        assert!(!PageId(0).is_null());
        assert_eq!(format!("{:?}", PageId(3)), "P3");
        assert_eq!(format!("{:?}", PageId::NULL), "P-");
    }
}
