//! Authenticated key/value map with incremental O(log n) root updates.
//!
//! [`MerkleTree`](crate::MerkleTree) commits to a *fixed* leaf sequence and
//! must be rebuilt from scratch on any change — fine for the transactions of
//! one block, hopeless for a database table that mutates every block. This
//! module provides the maintained counterpart: a Merkle-ized **treap** whose
//! shape is a pure function of the key set (priorities are derived from key
//! hashes, ties broken by key bytes), so the same key/value set always hashes
//! to the same root no matter the insertion or deletion order. Each upsert or
//! remove touches only the expected O(log n) spine from the affected leaf to
//! the root, and any key's presence can be proven with an O(log n) inclusion
//! proof.
//!
//! History independence is what lets the chain layer use one structure for
//! both paths: the incrementally folded commitment a replica maintains block
//! by block, and the full-scan oracle it is audited against, are the same
//! tree bit for bit.
//!
//! # Rows
//!
//! A row is one 96-byte node in the map's arena: two `u32` child links, the
//! key's first eight bytes as a big-endian integer (its *head*), the
//! priority, the leaf and subtree digests, the key length and, for a key
//! longer than eight bytes, where the rest of it (its *tail*) starts in a
//! per-map byte arena. A descent compares heads first: one integer
//! comparison decides a step unless two keys share their first eight
//! bytes. Keys of up to eight bytes (Smallbank's and YCSB's) need no
//! allocation at all; a removed row's node slot and tail span are reused
//! by later inserts.
//!
//! # One pass per write-set
//!
//! Every mutation goes through [`AuthMap::apply_sorted`] ([`AuthMap::upsert`]
//! and [`AuthMap::remove`] are runs of one). A run is sorted by key, so one
//! recursive descent splits it at each node it visits: the keys below go
//! left, the keys above go right, and a key equal to the node's updates its
//! leaf digest or removes it. A run that reaches an empty subtree is built
//! there in O(k) as a Cartesian tree. On the way back up each node is
//! re-linked and hashed once, after its children: when no child outranks it
//! (the common case) that is one node digest, and an insert or remove that
//! does reshape the treap joins the two subtrees and the node along their
//! inner spines, rehashing only what it re-links.
//!
//! [`AuthMapBuilder`] builds a whole map from rows in key order the same
//! way: the right spine on a stack, each node hashed once when it leaves
//! it, O(n) in all.
//!
//! Cost: one leaf hash per written key, one key hash per node *allocated*
//! (its priority; an overwrite needs none), and one node hash per touched
//! node per run — the upper levels, shared by every key of a block's
//! write-set, are hashed once a block instead of once a key. Every digest
//! is a one-shot `sha256_concat` (a node is 97 bytes: one compression
//! call over two blocks).

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::sha256::{sha256, sha256_concat, Digest};

/// Domain-separation prefixes, disjoint from the transaction Merkle tree's
/// `0x00`/`0x01` so a map node can never be replayed as a tx-tree node.
const MAP_LEAF_TAG: u8 = 0x02;
const MAP_NODE_TAG: u8 = 0x03;

/// Sentinel "no child" arena index.
const NIL: u32 = u32::MAX;

/// Key bytes a node holds inline, as its head.
const HEAD: usize = 8;

fn len_le(bytes: &[u8]) -> [u8; 4] {
    u32::try_from(bytes.len()).unwrap_or(u32::MAX).to_le_bytes()
}

/// Digest of a key/value pair: `H(0x02 ‖ len(k) ‖ k ‖ len(v) ‖ v)` with
/// little-endian `u32` length prefixes (no boundary ambiguity).
#[must_use]
pub fn leaf_digest(key: &[u8], value: &[u8]) -> Digest {
    sha256_concat(&[&[MAP_LEAF_TAG], &len_le(key), key, &len_le(value), value])
}

/// Digest of an interior node: `H(0x03 ‖ left ‖ leaf ‖ right)` where absent
/// children contribute [`Digest::ZERO`]. Every node carries a live pair, so
/// the node digest binds its own leaf *and* both subtrees.
#[must_use]
pub fn node_digest(left: &Digest, leaf: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[&[MAP_NODE_TAG], &left.0, &leaf.0, &right.0])
}

/// The conventional root of an empty map (same convention as the empty
/// transaction tree): `sha256("")`.
#[must_use]
pub fn empty_root() -> Digest {
    sha256(b"")
}

/// A key's first eight bytes, zero-padded, as a big-endian integer. Heads
/// order like the keys whenever they differ: a shorter key that pads with
/// zeros is a prefix of the other.
fn head_of(key: &[u8]) -> u64 {
    let mut bytes = [0u8; HEAD];
    let n = key.len().min(HEAD);
    bytes[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(bytes)
}

/// A key as a descent compares it: (head, bytes past the head, length).
type KeyParts<'a> = (u64, &'a [u8], usize);

/// Byte order of two keys. Equal heads leave the tails to decide, and
/// equal tails the lengths (two keys of up to eight bytes whose padded
/// heads agree).
fn key_order(a: KeyParts<'_>, b: KeyParts<'_>) -> Ordering {
    a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)).then(a.2.cmp(&b.2))
}

/// One row of the map: 96 bytes, the key included (see the module doc).
struct Node {
    left: u32,
    right: u32,
    head: u64,
    prio: u64,
    leaf: Digest,
    /// Subtree digest: `node_digest(left's, leaf, right's)`.
    digest: Digest,
    /// Key length in bytes.
    len: u32,
    /// Offset of the key's bytes past the head in [`AuthMap::tails`];
    /// unused for keys of up to eight bytes.
    tail: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 96);

/// One write of a sorted run: the key with its head, and the new leaf
/// digest (`None` removes the key).
struct Write<'a> {
    key: &'a [u8],
    head: u64,
    leaf: Option<Digest>,
}

impl<'a> Write<'a> {
    fn new(key: &'a [u8], value: Option<&[u8]>) -> Write<'a> {
        Write {
            key,
            head: head_of(key),
            leaf: value.map(|value| leaf_digest(key, value)),
        }
    }

    fn parts(&self) -> KeyParts<'a> {
        (
            self.head,
            self.key.get(HEAD..).unwrap_or(&[]),
            self.key.len(),
        )
    }
}

/// One step of an inclusion proof, bottom-up from the proven node's parent:
/// the parent's own leaf digest, its *other* subtree digest, and which side
/// the running hash entered from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapProofStep {
    /// True if the running hash is the parent's left subtree.
    pub from_left: bool,
    /// The parent's own key/value leaf digest.
    pub ancestor_leaf: Digest,
    /// The parent's other subtree digest (`Digest::ZERO` if absent).
    pub sibling: Digest,
}

/// Inclusion proof for one key/value pair: the proven node's two subtree
/// digests plus the spine up to the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapProof {
    /// Left subtree digest of the proven node (`Digest::ZERO` if absent).
    pub left: Digest,
    /// Right subtree digest of the proven node (`Digest::ZERO` if absent).
    pub right: Digest,
    /// Ancestor steps, deepest first.
    pub steps: Vec<MapProofStep>,
}

/// Deterministic authenticated map: treap over key bytes with hash-derived
/// priorities, arena-allocated nodes, maintained subtree digests.
pub struct AuthMap {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Bytes past the head of every key longer than eight bytes.
    tails: Vec<u8>,
    /// Freed tail spans, by length, for the next tail of that length.
    free_tails: BTreeMap<u32, Vec<u32>>,
    root: u32,
    len: usize,
}

/// Builds an [`AuthMap`] from rows pushed in strictly increasing key order,
/// in O(n): the treap's right spine waits on a stack, and each node is
/// linked and hashed once, when a hotter key (or [`finish`]) pops it and
/// its subtree can no longer change. By history independence the map is
/// the one the same rows upserted in any order give.
///
/// [`finish`]: AuthMapBuilder::finish
pub struct AuthMapBuilder {
    map: AuthMap,
    spine: Vec<u32>,
}

impl Default for AuthMapBuilder {
    fn default() -> AuthMapBuilder {
        AuthMapBuilder::new()
    }
}

impl AuthMapBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> AuthMapBuilder {
        AuthMapBuilder::with_capacity(0)
    }

    /// An empty builder with room for `rows` rows: a map built from a
    /// table of known size allocates its nodes once, with no slack.
    #[must_use]
    pub fn with_capacity(rows: usize) -> AuthMapBuilder {
        let mut map = AuthMap::new();
        map.nodes.reserve_exact(rows);
        AuthMapBuilder {
            map,
            spine: Vec::new(),
        }
    }

    /// Add the next row.
    ///
    /// # Panics
    ///
    /// If `key` does not come after the previous row's key.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        let write = Write::new(key, Some(value));
        if let Some(&last) = self.spine.last() {
            assert!(
                self.map.order(&write, last) == Ordering::Greater,
                "AuthMapBuilder: rows must come in strictly increasing key order"
            );
        }
        self.map.push_spine(&mut self.spine, &write);
    }

    /// The finished map.
    #[must_use]
    pub fn finish(mut self) -> AuthMap {
        self.map.root = self.map.pop_spine(&mut self.spine, 0);
        self.map
    }
}

impl Default for AuthMap {
    fn default() -> AuthMap {
        AuthMap::new()
    }
}

impl AuthMap {
    /// Empty map.
    #[must_use]
    pub fn new() -> AuthMap {
        AuthMap {
            nodes: Vec::new(),
            free: Vec::new(),
            tails: Vec::new(),
            free_tails: BTreeMap::new(),
            root: NIL,
            len: 0,
        }
    }

    /// Number of live key/value pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pairs are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root commitment over the full contents. O(1): every digest is valid
    /// between calls.
    #[must_use]
    pub fn root(&self) -> Digest {
        if self.root == NIL {
            empty_root()
        } else {
            self.nodes[self.root as usize].digest
        }
    }

    /// Apply a run of writes sorted by key: `Some(value)` upserts, `None`
    /// removes (an absent key is left alone). One descent for the whole
    /// run, each touched node hashed once (see the module doc).
    ///
    /// # Panics
    ///
    /// If the keys do not strictly increase.
    pub fn apply_sorted<'a>(
        &mut self,
        run: impl IntoIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
    ) {
        let writes: Vec<Write<'a>> = run
            .into_iter()
            .map(|(key, value)| Write::new(key, value))
            .collect();
        self.apply(&writes);
    }

    /// Insert or update a pair; returns true if the key was new. A run of
    /// one: touches the expected O(log n) spine only.
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) -> bool {
        let before = self.len;
        self.apply(&[Write::new(key, Some(value))]);
        self.len > before
    }

    /// Remove a key; returns true if it was present. A run of one.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let before = self.len;
        self.apply(&[Write::new(key, None)]);
        self.len < before
    }

    /// True if `key` is present.
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        let probe = Write::new(key, None);
        let mut at = self.root;
        while at != NIL {
            let node = &self.nodes[at as usize];
            at = match self.order(&probe, at) {
                Ordering::Equal => return true,
                Ordering::Less => node.left,
                Ordering::Greater => node.right,
            };
        }
        false
    }

    /// Inclusion proof for `key`, or None if absent.
    #[must_use]
    pub fn prove(&self, key: &[u8]) -> Option<MapProof> {
        let probe = Write::new(key, None);
        // Path of (node, went_left) from root to the target.
        let mut path: Vec<(u32, bool)> = Vec::new();
        let mut at = self.root;
        let target = loop {
            if at == NIL {
                return None;
            }
            let node = &self.nodes[at as usize];
            match self.order(&probe, at) {
                Ordering::Equal => break at,
                Ordering::Less => {
                    path.push((at, true));
                    at = node.left;
                }
                Ordering::Greater => {
                    path.push((at, false));
                    at = node.right;
                }
            }
        };
        let tnode = &self.nodes[target as usize];
        let steps = path
            .iter()
            .rev()
            .map(|&(idx, went_left)| {
                let node = &self.nodes[idx as usize];
                let sibling = if went_left {
                    self.subtree(node.right)
                } else {
                    self.subtree(node.left)
                };
                MapProofStep {
                    from_left: went_left,
                    ancestor_leaf: node.leaf,
                    sibling,
                }
            })
            .collect();
        Some(MapProof {
            left: self.subtree(tnode.left),
            right: self.subtree(tnode.right),
            steps,
        })
    }

    /// Verify an inclusion proof for `(key, value)` against `root`.
    #[must_use]
    pub fn verify(root: &Digest, key: &[u8], value: &[u8], proof: &MapProof) -> bool {
        let mut acc = node_digest(&proof.left, &leaf_digest(key, value), &proof.right);
        for step in &proof.steps {
            acc = if step.from_left {
                node_digest(&acc, &step.ancestor_leaf, &step.sibling)
            } else {
                node_digest(&step.sibling, &step.ancestor_leaf, &acc)
            };
        }
        acc == *root
    }

    /// Priority of a key: the first eight bytes of `sha256(key)`. Collisions
    /// fall back to byte-wise key order (see [`AuthMap::hotter`]), keeping the
    /// shape a pure function of the key set.
    fn priority(key: &[u8]) -> u64 {
        let d = sha256(key);
        u64::from_le_bytes(d.0[..8].try_into().expect("8 bytes"))
    }

    /// Node `idx`'s key as [`key_order`] compares it; its bytes past the
    /// head are in the tail arena.
    fn key_parts(&self, idx: u32) -> KeyParts<'_> {
        let node = &self.nodes[idx as usize];
        let (at, len) = (node.tail as usize, node.len as usize);
        (
            node.head,
            &self.tails[at..at + len.saturating_sub(HEAD)],
            len,
        )
    }

    /// Byte order of a written key against node `idx`'s key.
    fn order(&self, write: &Write<'_>, idx: u32) -> Ordering {
        key_order(write.parts(), self.key_parts(idx))
    }

    /// Strict heap order: does `a` belong above `b`? Lexicographic on
    /// (priority, key); keys are unique so this is a total order.
    fn hotter(&self, a: u32, b: u32) -> bool {
        let (pa, pb) = (self.nodes[a as usize].prio, self.nodes[b as usize].prio);
        pa > pb || (pa == pb && key_order(self.key_parts(a), self.key_parts(b)).is_gt())
    }

    fn subtree(&self, idx: u32) -> Digest {
        if idx == NIL {
            Digest::ZERO
        } else {
            self.nodes[idx as usize].digest
        }
    }

    /// Recompute node `idx`'s digest from its children's.
    fn rehash(&mut self, idx: u32) {
        let node = &self.nodes[idx as usize];
        let digest = node_digest(
            &self.subtree(node.left),
            &node.leaf,
            &self.subtree(node.right),
        );
        self.nodes[idx as usize].digest = digest;
    }

    /// Apply sorted writes from the root, checking the order first.
    fn apply(&mut self, writes: &[Write<'_>]) {
        assert!(
            writes.windows(2).all(|w| w[0].key < w[1].key),
            "AuthMap::apply_sorted: keys must strictly increase"
        );
        self.root = self.apply_at(self.root, writes);
    }

    /// Apply `writes` (sorted, all inside this subtree's key range) to the
    /// subtree at `at`; returns its new root, every digest under it valid.
    fn apply_at(&mut self, at: u32, writes: &[Write<'_>]) -> u32 {
        if writes.is_empty() {
            return at;
        }
        if at == NIL {
            let mut spine = Vec::new();
            for write in writes.iter().filter(|w| w.leaf.is_some()) {
                self.push_spine(&mut spine, write);
            }
            return self.pop_spine(&mut spine, 0);
        }
        let lo = writes.partition_point(|w| self.order(w, at) == Ordering::Less);
        let hi = lo
            + usize::from(
                writes
                    .get(lo)
                    .is_some_and(|w| self.order(w, at) == Ordering::Equal),
            );
        let (left, right) = {
            let node = &self.nodes[at as usize];
            (node.left, node.right)
        };
        let left = self.apply_at(left, &writes[..lo]);
        let right = self.apply_at(right, &writes[hi..]);
        let mid = match writes[lo..hi] {
            [Write { leaf: None, .. }] => {
                self.release(at);
                NIL
            }
            [Write {
                leaf: Some(leaf), ..
            }] => {
                self.nodes[at as usize].leaf = leaf;
                at
            }
            _ => at,
        };
        self.join(left, mid, right)
    }

    /// The treap of `l`'s keys, then node `mid`'s (if not NIL), then
    /// `r`'s: the hottest of the three roots goes on top, and the two
    /// inner spines are joined below it. Each node whose children are set
    /// is hashed after them; when `mid` outranks both subtrees (an update,
    /// or a pass-through) that is `mid` alone.
    fn join(&mut self, l: u32, mid: u32, r: u32) -> u32 {
        let mut top = mid;
        for side in [l, r] {
            if side != NIL && (top == NIL || self.hotter(side, top)) {
                top = side;
            }
        }
        if top == NIL {
            return NIL;
        }
        if top == mid {
            let node = &mut self.nodes[mid as usize];
            (node.left, node.right) = (l, r);
        } else if top == l {
            let inner = self.nodes[l as usize].right;
            let joined = self.join(inner, mid, r);
            self.nodes[l as usize].right = joined;
        } else {
            let inner = self.nodes[r as usize].left;
            let joined = self.join(l, mid, inner);
            self.nodes[r as usize].left = joined;
        }
        self.rehash(top);
        top
    }

    /// Allocate a node for `write` (an upsert) and push it on `spine`, the
    /// right spine of a treap being built in key order: nodes the new one
    /// outranks leave the spine, linked and hashed, as its left subtree.
    fn push_spine(&mut self, spine: &mut Vec<u32>, write: &Write<'_>) {
        let idx = self.alloc(write);
        let below = spine
            .iter()
            .rposition(|&s| self.hotter(s, idx))
            .map_or(0, |p| p + 1);
        let left = self.pop_spine(spine, below);
        self.nodes[idx as usize].left = left;
        spine.push(idx);
    }

    /// Pop `spine` down to length `keep`, deepest first, linking each node
    /// to the one popped before it as its right child and hashing it;
    /// returns the last node popped (NIL if none).
    fn pop_spine(&mut self, spine: &mut Vec<u32>, keep: usize) -> u32 {
        let mut below = NIL;
        while spine.len() > keep {
            let idx = spine.pop().expect("longer than keep");
            self.nodes[idx as usize].right = below;
            self.rehash(idx);
            below = idx;
        }
        below
    }

    /// A fresh node for `write` (an upsert), children NIL, digest unset.
    /// The only place a priority is computed.
    fn alloc(&mut self, write: &Write<'_>) -> u32 {
        let len = u32::try_from(write.key.len()).expect("key < 4 GiB");
        let tail = self.store_tail(write.key.get(HEAD..).unwrap_or(&[]));
        let node = Node {
            left: NIL,
            right: NIL,
            head: write.head,
            prio: Self::priority(write.key),
            leaf: write.leaf.expect("an upsert"),
            digest: Digest::ZERO,
            len,
            tail,
        };
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("arena < 4G nodes");
            self.nodes.push(node);
            idx
        }
    }

    /// Put a key's tail in the arena, in a freed span of its length if
    /// there is one; returns its offset (0 for an empty tail).
    fn store_tail(&mut self, tail: &[u8]) -> u32 {
        if tail.is_empty() {
            return 0;
        }
        let len = u32::try_from(tail.len()).expect("key < 4 GiB");
        if let Some(at) = self.free_tails.get_mut(&len).and_then(Vec::pop) {
            self.tails[at as usize..][..tail.len()].copy_from_slice(tail);
            return at;
        }
        let at = u32::try_from(self.tails.len()).expect("tail arena < 4 GiB");
        self.tails.extend_from_slice(tail);
        at
    }

    /// Free node `idx` (already unlinked) and its tail span.
    fn release(&mut self, idx: u32) {
        let node = &self.nodes[idx as usize];
        if let Some(len) = node.len.checked_sub(HEAD as u32).filter(|&l| l > 0) {
            self.free_tails.entry(len).or_default().push(node.tail);
        }
        self.free.push(idx);
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("key-{:06}", i * 7919 % 1_000_000).into_bytes(),
                    format!("val-{i}").into_bytes(),
                )
            })
            .collect()
    }

    fn build(pairs: &[(Vec<u8>, Vec<u8>)]) -> AuthMap {
        let mut m = AuthMap::new();
        for (k, v) in pairs {
            m.upsert(k, v);
        }
        m
    }

    #[test]
    fn empty_map_has_conventional_root() {
        assert_eq!(AuthMap::new().root(), sha256(b""));
        assert!(AuthMap::new().is_empty());
    }

    #[test]
    fn root_is_history_independent() {
        let ps = pairs(257);
        let forward = build(&ps);
        let mut rev = ps.clone();
        rev.reverse();
        let backward = build(&rev);
        // Interleave inserts with deletions of keys that end up absent.
        let mut churn = AuthMap::new();
        for (i, (k, v)) in ps.iter().enumerate() {
            churn.upsert(k, b"stale");
            if i % 3 == 0 {
                churn.upsert(format!("ghost-{i}").as_bytes(), b"x");
            }
            churn.upsert(k, v);
        }
        for i in 0..ps.len() {
            if i % 3 == 0 {
                assert!(churn.remove(format!("ghost-{i}").as_bytes()));
            }
        }
        assert_eq!(forward.root(), backward.root());
        assert_eq!(forward.root(), churn.root());
        assert_eq!(forward.len(), 257);
        assert_eq!(churn.len(), 257);
    }

    #[test]
    fn upsert_changes_root_and_is_value_sensitive() {
        let mut m = build(&pairs(64));
        let before = m.root();
        assert!(!m.upsert(b"key-000000", b"other"));
        assert_ne!(m.root(), before);
        assert!(!m.upsert(b"key-000000", b"val-0"));
        // key-0*7919%1e6 == 0 maps to val-0.
        assert_eq!(m.root(), before);
    }

    #[test]
    fn remove_restores_prior_root() {
        let ps = pairs(100);
        let mut m = build(&ps);
        let before = m.root();
        assert!(m.upsert(b"zzz-extra", b"v"));
        assert_ne!(m.root(), before);
        assert!(m.remove(b"zzz-extra"));
        assert_eq!(m.root(), before);
        assert!(!m.remove(b"zzz-extra"));
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn drain_to_empty_restores_empty_root() {
        let ps = pairs(33);
        let mut m = build(&ps);
        for (k, _) in &ps {
            assert!(m.remove(k));
        }
        assert_eq!(m.root(), empty_root());
        assert!(m.is_empty());
    }

    #[test]
    fn proofs_verify_and_bind_key_value() {
        let ps = pairs(129);
        let m = build(&ps);
        let root = m.root();
        for (k, v) in &ps {
            let proof = m.prove(k).expect("present");
            assert!(AuthMap::verify(&root, k, v, &proof));
            assert!(!AuthMap::verify(&root, k, b"forged", &proof));
            assert!(!AuthMap::verify(&root, b"other-key", v, &proof));
        }
        assert!(m.prove(b"absent").is_none());
    }

    #[test]
    fn tampered_proof_fails() {
        let ps = pairs(64);
        let m = build(&ps);
        let (k, v) = &ps[17];
        let mut proof = m.prove(k).unwrap();
        if let Some(step) = proof.steps.first_mut() {
            step.sibling.0[0] ^= 1;
        } else {
            proof.left.0[0] ^= 1;
        }
        assert!(!AuthMap::verify(&m.root(), k, v, &proof));
    }

    #[test]
    fn leaf_encoding_is_boundary_unambiguous() {
        let mut a = AuthMap::new();
        a.upsert(b"ab", b"c");
        let mut b = AuthMap::new();
        b.upsert(b"a", b"bc");
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn disjoint_from_tx_merkle_domain() {
        // A single-entry map must not collide with a single-leaf tx tree over
        // the same bytes.
        let mut m = AuthMap::new();
        m.upsert(b"payload", b"");
        let t = crate::MerkleTree::build(&[b"payload".as_slice()]);
        assert_ne!(m.root(), t.root());
    }

    #[test]
    fn long_keys_order_by_bytes_and_reuse_their_tail_spans() {
        // Keys sharing their eight-byte head, one a prefix of another, and
        // short keys padding to the same head: byte order throughout.
        let keys: Vec<Vec<u8>> = vec![
            b"abcdefgh".to_vec(),
            b"abcdefgh\0".to_vec(),
            b"abcdefghij".to_vec(),
            b"abcdefghijklmnopqrstuvwx".to_vec(),
            b"abc".to_vec(),
            b"abc\0".to_vec(),
            b"abc\0\0\0\0\0\0".to_vec(),
            Vec::new(),
        ];
        let mut sorted = keys.clone();
        sorted.sort();
        let mut m = AuthMap::new();
        m.apply_sorted(sorted.iter().map(|k| (k.as_slice(), Some(k.as_slice()))));
        let mut one_by_one = AuthMap::new();
        for k in &keys {
            assert!(one_by_one.upsert(k, k));
        }
        assert_eq!(m.root(), one_by_one.root());
        for k in &keys {
            assert!(m.contains(k));
            let proof = m.prove(k).expect("present");
            assert!(AuthMap::verify(&m.root(), k, k, &proof));
        }
        assert!(!m.contains(b"abcdefghi"));
        // Replacing long keys by others of the same length reuses spans.
        let arena = m.tails.len();
        for round in 0..20u8 {
            let long = [b"0123456789-", &[round][..]].concat();
            m.upsert(&long, b"v");
            assert!(m.remove(&long));
        }
        assert_eq!(m.tails.len(), arena + 4, "one 4-byte span, reused");
        assert_eq!(m.root(), one_by_one.root());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn builder_refuses_rows_out_of_order() {
        let mut builder = AuthMapBuilder::new();
        builder.push(b"b", b"");
        builder.push(b"a", b"");
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn sorted_run_refuses_a_repeated_key() {
        let mut m = AuthMap::new();
        m.apply_sorted([(&b"a"[..], Some(&b"1"[..])), (&b"a"[..], None)]);
    }

    #[test]
    fn arena_recycles_freed_slots() {
        let mut m = AuthMap::new();
        for round in 0..3 {
            for i in 0..50u32 {
                m.upsert(format!("k{i}").as_bytes(), format!("r{round}").as_bytes());
            }
            for i in 0..50u32 {
                m.remove(format!("k{i}").as_bytes());
            }
        }
        assert!(m.is_empty());
        assert!(m.nodes.len() <= 50, "arena grew: {}", m.nodes.len());
    }
}
