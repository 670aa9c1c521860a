//! Binary Merkle tree over transaction payloads.
//!
//! Each block header carries the Merkle root of its transactions; the tree
//! also supports inclusion proofs so a light client can verify that a
//! transaction belongs to a block without the full payload.

use crate::sha256::{sha256, sha256_concat, Digest};

/// Domain-separation prefixes (prevents a leaf being reinterpreted as an
/// interior node — the classic CVE-2012-2459 style ambiguity).
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

fn hash_leaf(data: &[u8]) -> Digest {
    sha256_concat(&[&[LEAF_TAG], data])
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[&[NODE_TAG], &left.0, &right.0])
}

/// The root [`MerkleTree::build`] would give `leaves`, without keeping
/// its levels: each level overwrites the front of the one below it in a
/// single buffer. What sealing and verifying a block need; only a proof
/// needs the whole tree.
#[must_use]
pub fn merkle_root<T: AsRef<[u8]>>(leaves: &[T]) -> Digest {
    if leaves.is_empty() {
        return sha256(b"");
    }
    let mut level: Vec<Digest> = leaves.iter().map(|l| hash_leaf(l.as_ref())).collect();
    while level.len() > 1 {
        let parents = level.len().div_ceil(2);
        for i in 0..parents {
            level[i] = parent(&level, i);
        }
        level.truncate(parents);
    }
    level[0]
}

/// Node `i` of the level above `level`: the hash of children `2i` and
/// `2i + 1`, an odd last node paired with itself (Bitcoin-style
/// duplication).
fn parent(level: &[Digest], i: usize) -> Digest {
    let left = &level[2 * i];
    hash_node(left, level.get(2 * i + 1).unwrap_or(left))
}

/// A fully materialized Merkle tree (levels bottom-up; level 0 = leaves).
#[derive(Clone, Debug)]
pub struct MerkleTree {
    levels: Vec<Vec<Digest>>,
}

/// One step of an inclusion proof: the sibling digest and whether the
/// sibling sits to the left of the running hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofStep {
    /// Sibling digest.
    pub sibling: Digest,
    /// True if the sibling is the left child.
    pub sibling_is_left: bool,
}

impl MerkleTree {
    /// Build a tree over the given leaf payloads. An empty input yields the
    /// conventional "empty root" `sha256("")`.
    #[must_use]
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> MerkleTree {
        if leaves.is_empty() {
            return MerkleTree {
                levels: vec![vec![sha256(b"")]],
            };
        }
        let mut levels: Vec<Vec<Digest>> =
            vec![leaves.iter().map(|l| hash_leaf(l.as_ref())).collect()];
        loop {
            let cur = levels.last().expect("at least the leaf level");
            if cur.len() == 1 {
                break;
            }
            let next = (0..cur.len().div_ceil(2)).map(|i| parent(cur, i)).collect();
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root digest.
    #[must_use]
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty levels")[0]
    }

    /// Produce an inclusion proof for the leaf at `index`.
    #[must_use]
    pub fn prove(&self, index: usize) -> Option<Vec<ProofStep>> {
        if index >= self.levels[0].len() {
            return None;
        }
        let mut proof = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = if sibling_idx < level.len() {
                level[sibling_idx]
            } else {
                level[idx] // odd node duplicated
            };
            proof.push(ProofStep {
                sibling,
                sibling_is_left: sibling_idx < idx,
            });
            idx /= 2;
        }
        Some(proof)
    }

    /// Verify an inclusion proof for `payload` against `root`.
    #[must_use]
    pub fn verify(root: &Digest, payload: &[u8], proof: &[ProofStep]) -> bool {
        let mut acc = hash_leaf(payload);
        for step in proof {
            acc = if step.sibling_is_left {
                hash_node(&step.sibling, &acc)
            } else {
                hash_node(&acc, &step.sibling)
            };
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("txn-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_conventional_root() {
        let t = MerkleTree::build::<&[u8]>(&[]);
        assert_eq!(t.root(), sha256(b""));
    }

    #[test]
    fn single_leaf_root_is_tagged_leaf_hash() {
        let t = MerkleTree::build(&[b"only".as_slice()]);
        assert_eq!(t.root(), hash_leaf(b"only"));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let ps = payloads(n);
            let t = MerkleTree::build(&ps);
            for (i, p) in ps.iter().enumerate() {
                let proof = t.prove(i).expect("in range");
                assert!(
                    MerkleTree::verify(&t.root(), p, &proof),
                    "n={n} leaf {i} failed"
                );
            }
        }
    }

    #[test]
    fn root_alone_equals_built_root() {
        for n in 0..=33 {
            let ps = payloads(n);
            assert_eq!(merkle_root(&ps), MerkleTree::build(&ps).root(), "n={n}");
        }
    }

    #[test]
    fn wrong_payload_fails() {
        let ps = payloads(8);
        let t = MerkleTree::build(&ps);
        let proof = t.prove(3).unwrap();
        assert!(!MerkleTree::verify(&t.root(), b"txn-4", &proof));
    }

    #[test]
    fn tampered_proof_fails() {
        let ps = payloads(8);
        let t = MerkleTree::build(&ps);
        let mut proof = t.prove(2).unwrap();
        proof[0].sibling.0[0] ^= 1;
        assert!(!MerkleTree::verify(&t.root(), &ps[2], &proof));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let t = MerkleTree::build(&payloads(4));
        assert!(t.prove(4).is_none());
    }

    #[test]
    fn order_sensitivity() {
        let a = MerkleTree::build(&payloads(4)).root();
        let mut rev = payloads(4);
        rev.reverse();
        let b = MerkleTree::build(&rev).root();
        assert_ne!(a, b);
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A tree whose single leaf equals an interior-node encoding must not
        // collide with the two-leaf tree that produced that encoding.
        let two = MerkleTree::build(&payloads(2));
        let l0 = hash_leaf(b"txn-0");
        let l1 = hash_leaf(b"txn-1");
        let mut fake = Vec::new();
        fake.extend_from_slice(&l0.0);
        fake.extend_from_slice(&l1.0);
        let one = MerkleTree::build(&[fake]);
        assert_ne!(two.root(), one.root());
    }
}
