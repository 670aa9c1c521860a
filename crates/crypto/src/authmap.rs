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
//! # Batches and the stale mark
//!
//! Every mutation goes through an [`AuthMapBatch`] ([`AuthMap::upsert`] and
//! [`AuthMap::remove`] are batches of one). Inside a batch a mutation
//! changes structure and leaf digests at once but hashes no interior node:
//! it only *marks* as stale each node whose subtree digest is now out of
//! date — the descent path, both ends of a rotation, every node a merge
//! re-links. Closing the batch (drop, or [`AuthMapBatch::finish`]) runs one
//! children-first pass from the root that recomputes each marked node.
//!
//! * **A marked node's ancestors are all marked** — marks are set while the
//!   recursion unwinds towards the root, so the closing pass finds every
//!   marked node by descending through marked nodes only, and an unmarked
//!   node heads a subtree with no mark in it.
//! * **No mark survives a batch** — the batch mutably borrows the map, so
//!   nothing can read a digest before the closing pass has run: between
//!   calls on the map every digest is valid, exactly as when each mutation
//!   rehashed its own spine.
//!
//! Cost: one leaf hash per mutation, one key hash per node *allocated* (its
//! priority; an overwrite needs none), and one node hash per touched node
//! **per batch** — the upper levels, shared by every key of a block's
//! write-set, are hashed once a block instead of once a key, and filling an
//! empty map with n rows costs O(n) hashes, not O(n log n).

use crate::sha256::{sha256, Digest, Sha256};

/// Domain-separation prefixes, disjoint from the transaction Merkle tree's
/// `0x00`/`0x01` so a map node can never be replayed as a tx-tree node.
const MAP_LEAF_TAG: u8 = 0x02;
const MAP_NODE_TAG: u8 = 0x03;

/// Sentinel "no child" arena index.
const NIL: u32 = u32::MAX;

/// Digest of a key/value pair: `H(0x02 ‖ len(k) ‖ k ‖ len(v) ‖ v)` with
/// little-endian `u32` length prefixes (no boundary ambiguity).
#[must_use]
pub fn leaf_digest(key: &[u8], value: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[MAP_LEAF_TAG]);
    h.update(&u32::try_from(key.len()).unwrap_or(u32::MAX).to_le_bytes());
    h.update(key);
    h.update(&u32::try_from(value.len()).unwrap_or(u32::MAX).to_le_bytes());
    h.update(value);
    h.finalize()
}

/// Digest of an interior node: `H(0x03 ‖ left ‖ leaf ‖ right)` where absent
/// children contribute [`Digest::ZERO`]. Every node carries a live pair, so
/// the node digest binds its own leaf *and* both subtrees.
#[must_use]
pub fn node_digest(left: &Digest, leaf: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[MAP_NODE_TAG]);
    h.update(&left.0);
    h.update(&leaf.0);
    h.update(&right.0);
    h.finalize()
}

/// The conventional root of an empty map (same convention as the empty
/// transaction tree): `sha256("")`.
#[must_use]
pub fn empty_root() -> Digest {
    sha256(b"")
}

struct Node {
    key: Box<[u8]>,
    prio: u64,
    leaf: Digest,
    /// Subtree digest; out of date while `stale`.
    digest: Digest,
    left: u32,
    right: u32,
    /// Set inside a batch when this subtree changed; see the module doc.
    stale: bool,
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
    root: u32,
    len: usize,
}

/// A run of mutations whose interior digests are recomputed once, when the
/// batch is dropped (or [`finish`](AuthMapBatch::finish)ed). It holds the
/// map's only mutable borrow, so no reader can observe a stale digest.
pub struct AuthMapBatch<'a> {
    map: &'a mut AuthMap,
}

impl AuthMapBatch<'_> {
    /// Insert or update a pair; returns true if the key was new. A key
    /// written twice in one batch keeps its last value.
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) -> bool {
        let map = &mut *self.map;
        let mut inserted = false;
        map.root = map.upsert_at(map.root, key, leaf_digest(key, value), &mut inserted);
        map.len += usize::from(inserted);
        inserted
    }

    /// Remove a key; returns true if it was present.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let map = &mut *self.map;
        let mut removed = false;
        map.root = map.remove_at(map.root, key, &mut removed);
        map.len -= usize::from(removed);
        removed
    }

    /// Close the batch: rehash every node it marked. Dropping it does the
    /// same; this spells the point out at a call site.
    pub fn finish(self) {}
}

impl Drop for AuthMapBatch<'_> {
    fn drop(&mut self) {
        self.map.rehash(self.map.root);
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
    /// whenever no batch is open.
    #[must_use]
    pub fn root(&self) -> Digest {
        if self.root == NIL {
            empty_root()
        } else {
            self.nodes[self.root as usize].digest
        }
    }

    /// Open a batch of mutations: hashes each touched interior node once,
    /// when the batch closes, however many of its keys pass through it.
    pub fn batch(&mut self) -> AuthMapBatch<'_> {
        AuthMapBatch { map: self }
    }

    /// Insert or update a pair; returns true if the key was new. A batch of
    /// one: touches the expected O(log n) spine only.
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) -> bool {
        self.batch().upsert(key, value)
    }

    /// Remove a key; returns true if it was present. A batch of one.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        self.batch().remove(key)
    }

    /// True if `key` is present.
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        let mut at = self.root;
        while at != NIL {
            let node = &self.nodes[at as usize];
            at = match key.cmp(&node.key) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => node.left,
                std::cmp::Ordering::Greater => node.right,
            };
        }
        false
    }

    /// Inclusion proof for `key`, or None if absent.
    #[must_use]
    pub fn prove(&self, key: &[u8]) -> Option<MapProof> {
        // Path of (node, went_left) from root to the target.
        let mut path: Vec<(u32, bool)> = Vec::new();
        let mut at = self.root;
        let target = loop {
            if at == NIL {
                return None;
            }
            let node = &self.nodes[at as usize];
            match key.cmp(&node.key) {
                std::cmp::Ordering::Equal => break at,
                std::cmp::Ordering::Less => {
                    path.push((at, true));
                    at = node.left;
                }
                std::cmp::Ordering::Greater => {
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

    /// Strict heap order: does `a` belong above `b`? Lexicographic on
    /// (priority, key); keys are unique so this is a total order.
    fn hotter(&self, a: u32, b: u32) -> bool {
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        na.prio > nb.prio || (na.prio == nb.prio && na.key > nb.key)
    }

    fn subtree(&self, idx: u32) -> Digest {
        if idx == NIL {
            Digest::ZERO
        } else {
            self.nodes[idx as usize].digest
        }
    }

    /// The batch-closing pass: recompute the digest of every stale node
    /// under `at`, children first, and clear its mark. Stops at unmarked
    /// nodes — nothing below one is marked.
    fn rehash(&mut self, at: u32) {
        if at == NIL || !self.nodes[at as usize].stale {
            return;
        }
        let (left, right) = {
            let node = &self.nodes[at as usize];
            (node.left, node.right)
        };
        self.rehash(left);
        self.rehash(right);
        let digest = node_digest(
            &self.subtree(left),
            &self.nodes[at as usize].leaf,
            &self.subtree(right),
        );
        let node = &mut self.nodes[at as usize];
        node.digest = digest;
        node.stale = false;
    }

    fn mark(&mut self, idx: u32) {
        self.nodes[idx as usize].stale = true;
    }

    /// A fresh, marked leaf node. The only place a priority is computed.
    fn alloc(&mut self, key: &[u8], leaf: Digest) -> u32 {
        let node = Node {
            key: key.into(),
            prio: Self::priority(key),
            leaf,
            digest: Digest::ZERO,
            left: NIL,
            right: NIL,
            stale: true,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("arena < 4G nodes");
            self.nodes.push(node);
            idx
        }
    }

    fn upsert_at(&mut self, at: u32, key: &[u8], leaf: Digest, inserted: &mut bool) -> u32 {
        if at == NIL {
            *inserted = true;
            return self.alloc(key, leaf);
        }
        match key.cmp(&self.nodes[at as usize].key) {
            std::cmp::Ordering::Equal => {
                self.nodes[at as usize].leaf = leaf;
            }
            std::cmp::Ordering::Less => {
                let left = self.nodes[at as usize].left;
                let child = self.upsert_at(left, key, leaf, inserted);
                self.nodes[at as usize].left = child;
                if self.hotter(child, at) {
                    return self.rotate_right(at);
                }
            }
            std::cmp::Ordering::Greater => {
                let right = self.nodes[at as usize].right;
                let child = self.upsert_at(right, key, leaf, inserted);
                self.nodes[at as usize].right = child;
                if self.hotter(child, at) {
                    return self.rotate_left(at);
                }
            }
        }
        self.mark(at);
        at
    }

    fn remove_at(&mut self, at: u32, key: &[u8], removed: &mut bool) -> u32 {
        if at == NIL {
            return NIL;
        }
        match key.cmp(&self.nodes[at as usize].key) {
            std::cmp::Ordering::Less => {
                let left = self.nodes[at as usize].left;
                let child = self.remove_at(left, key, removed);
                self.nodes[at as usize].left = child;
            }
            std::cmp::Ordering::Greater => {
                let right = self.nodes[at as usize].right;
                let child = self.remove_at(right, key, removed);
                self.nodes[at as usize].right = child;
            }
            std::cmp::Ordering::Equal => {
                *removed = true;
                let (left, right) = {
                    let node = &self.nodes[at as usize];
                    (node.left, node.right)
                };
                self.free.push(at);
                return self.merge(left, right);
            }
        }
        // An absent key changed nothing below.
        if *removed {
            self.mark(at);
        }
        at
    }

    /// Merge two treaps where every key in `a` precedes every key in `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.hotter(a, b) {
            let right = self.nodes[a as usize].right;
            let merged = self.merge(right, b);
            self.nodes[a as usize].right = merged;
            self.mark(a);
            a
        } else {
            let left = self.nodes[b as usize].left;
            let merged = self.merge(a, left);
            self.nodes[b as usize].left = merged;
            self.mark(b);
            b
        }
    }

    /// Rotate `at`'s left child up; returns the new subtree root. Marks
    /// both touched nodes.
    fn rotate_right(&mut self, at: u32) -> u32 {
        let x = self.nodes[at as usize].left;
        self.nodes[at as usize].left = self.nodes[x as usize].right;
        self.nodes[x as usize].right = at;
        self.mark(at);
        self.mark(x);
        x
    }

    /// Rotate `at`'s right child up; returns the new subtree root.
    fn rotate_left(&mut self, at: u32) -> u32 {
        let x = self.nodes[at as usize].right;
        self.nodes[at as usize].right = self.nodes[x as usize].left;
        self.nodes[x as usize].left = at;
        self.mark(at);
        self.mark(x);
        x
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
