//! Property-based tests: the B+Tree against a `BTreeMap` model under
//! arbitrary operation sequences, the B+Tree over arbitrary and damaged
//! pages, and codec/checkpoint roundtrips under arbitrary inputs.

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_storage::btree::{BTree, MAX_ENTRY_SIZE};
use harmony_storage::checkpoint::{Manifest, TableMeta};
use harmony_storage::{BufferPool, EvictionPolicy, MemDisk, PageId, StorageCost, PAGE_SIZE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Get(u16),
    Scan(u16, u16),
    /// Delete every second key present: a delete-heavy phase, which the
    /// puts that follow refill.
    Purge,
    /// Checkpoint, lose the cache, reopen from the recorded root.
    Restart,
}

/// Mostly a small key space, so that overwrites and deletes hit.
fn key_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..64, 0u16..64, 0u16..64, any::<u16>()]
}

/// Short values, values long enough that a handful fills a page (growing
/// and shrinking overwrites leave dead bytes, force rebuilds and splits),
/// and the largest entry a 2-byte key allows.
fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64),
        prop::collection::vec(any::<u8>(), 0..64),
        prop::collection::vec(any::<u8>(), 64..600),
        prop::collection::vec(any::<u8>(), MAX_ENTRY_SIZE - 2..MAX_ENTRY_SIZE - 1),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let put = || (key_strategy(), value_strategy()).prop_map(|(k, v)| Op::Put(k, v));
    prop_oneof![
        put(),
        put(),
        put(),
        put(),
        key_strategy().prop_map(Op::Delete),
        key_strategy().prop_map(Op::Delete),
        key_strategy().prop_map(Op::Get),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Scan(a.min(b), a.max(b))),
        (0u16..30).prop_map(|roll| if roll == 0 { Op::Purge } else { Op::Get(roll) }),
        (0u16..20).prop_map(|roll| if roll == 0 {
            Op::Restart
        } else {
            Op::Get(roll)
        }),
    ]
}

fn fresh_pool(capacity: usize, policy: EvictionPolicy) -> Arc<BufferPool> {
    Arc::new(BufferPool::with_policy(
        Arc::new(MemDisk::new()),
        capacity,
        StorageCost::free(),
        policy,
    ))
}

fn scan_all(tree: &BTree) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut got = Vec::new();
    tree.scan(b"", None, |k, v| {
        got.push((k.to_vec(), v.to_vec()));
        true
    })
    .unwrap();
    got
}

/// Run `ops` against a tree over a pool of `capacity` frames and against
/// the standard library's ordered map; every answer must agree.
fn check_against_model(capacity: usize, policy: EvictionPolicy, ops: &[Op]) {
    let pool = fresh_pool(capacity, policy);
    let mut tree = BTree::create(Arc::clone(&pool), StorageCost::free()).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in ops.iter().cloned().chain([Op::Restart]) {
        match op {
            Op::Put(k, v) => {
                let key = k.to_be_bytes().to_vec();
                let replaced = tree.put(&key, &v).unwrap();
                assert_eq!(replaced, model.insert(key, v).is_some());
            }
            Op::Delete(k) => {
                let key = k.to_be_bytes().to_vec();
                assert_eq!(tree.delete(&key).unwrap(), model.remove(&key).is_some());
            }
            Op::Get(k) => {
                let key = k.to_be_bytes().to_vec();
                assert_eq!(tree.get(&key).unwrap(), model.get(&key).cloned());
            }
            Op::Scan(a, b) => {
                let (start, end) = (a.to_be_bytes().to_vec(), b.to_be_bytes().to_vec());
                let mut got = Vec::new();
                tree.scan(&start, Some(&end), |k, _| {
                    got.push(k.to_vec());
                    true
                })
                .unwrap();
                let expect: Vec<Vec<u8>> =
                    model.range(start..end).map(|(k, _)| k.clone()).collect();
                assert_eq!(got, expect);
            }
            Op::Purge => {
                let doomed: Vec<Vec<u8>> = model.keys().step_by(2).cloned().collect();
                for key in doomed {
                    assert!(tree.delete(&key).unwrap());
                    model.remove(&key);
                }
            }
            Op::Restart => {
                pool.flush_all().unwrap();
                pool.clear_cache_discarding_dirty();
                tree = BTree::open(
                    Arc::clone(&pool),
                    tree.root(),
                    tree.len(),
                    StorageCost::free(),
                );
                let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                assert_eq!(scan_all(&tree), expect);
            }
        }
        assert_eq!(tree.len(), model.len() as u64);
    }
}

/// Every operation on a tree that may hold hostile pages ends, in `Ok` or
/// in a corruption error: no panic, no hang, no other error.
fn exercise_hostile(tree: &mut BTree, probes: &[u16]) {
    fn settled<T>(r: harmony_common::Result<T>) {
        assert!(
            matches!(r, Ok(_) | Err(harmony_common::Error::Corruption(_))),
            "{:?}",
            r.err()
        );
    }
    let big = vec![0xA5u8; 700];
    for probe in probes {
        let key = probe.to_be_bytes();
        settled(tree.get(&key));
        settled(tree.put(&key, b"small"));
        settled(tree.put(&key, &big));
        settled(tree.get(&key));
        settled(tree.delete(&key));
    }
    settled(tree.scan(b"", None, |_, _| true));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of puts/deletes/gets/scans behaves exactly like the
    /// standard library's ordered map, across checkpoints and restarts.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        check_against_model(256, EvictionPolicy::NoSteal, &ops);
    }

    /// A tiny buffer pool (constant eviction pressure) never changes
    /// results — only performance — whether or not it may write dirty
    /// victims back.
    #[test]
    fn btree_correct_under_eviction_pressure(
        ops in prop::collection::vec(op_strategy(), 1..150)
    ) {
        check_against_model(4, EvictionPolicy::NoSteal, &ops);
        check_against_model(4, EvictionPolicy::Steal, &ops);
    }

    /// A tree rooted at a page of arbitrary bytes: raw, with a valid format
    /// and kind, or with a whole plausible header in front of the noise.
    #[test]
    fn arbitrary_root_page_never_panics_or_hangs(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
        dress in 0u8..3,
        probes in prop::collection::vec(any::<u16>(), 1..6),
        len in 0u64..4,
    ) {
        let pool = fresh_pool(64, EvictionPolicy::NoSteal);
        // A well-formed neighbour for stray pointers to land on.
        let mut neighbour = BTree::create(Arc::clone(&pool), StorageCost::free()).unwrap();
        neighbour.put(b"n", b"v").unwrap();
        let (root, frame) = pool.allocate().unwrap();
        {
            let mut guard = frame.data.write();
            let page = guard.bytes_mut();
            page.copy_from_slice(&noise);
            if dress >= 1 {
                page[0] = 2;
                page[1] &= 1;
            }
            if dress == 2 {
                let n = usize::from(page[2] % 64);
                let low = 16 + 2 * n + usize::from(u16::from_le_bytes([page[4], page[5]])) % (PAGE_SIZE - 16 - 2 * n + 1);
                let dead = usize::from(u16::from_le_bytes([page[6], page[7]])) % (PAGE_SIZE - low + 1);
                page[2..4].copy_from_slice(&(n as u16).to_le_bytes());
                page[4..6].copy_from_slice(&(low as u16).to_le_bytes());
                page[6..8].copy_from_slice(&(dead as u16).to_le_bytes());
                // Slots that point into the cell area, at cells with short
                // keys and values: unsorted, overlapping, some off the end.
                for i in 0..n {
                    let at = 16 + 2 * i;
                    let off = low + usize::from(u16::from_le_bytes([page[at], page[at + 1]])) % (PAGE_SIZE - low + 1);
                    page[at..at + 2].copy_from_slice(&(off as u16).to_le_bytes());
                    if off + 4 <= PAGE_SIZE {
                        let (klen, vlen) = (page[off] % 8, page[off + 2] % 48);
                        page[off..off + 4].copy_from_slice(&[klen, 0, vlen, 0]);
                    }
                }
            }
        }
        drop(frame);
        let mut tree = BTree::open(Arc::clone(&pool), root, len, StorageCost::free());
        exercise_hostile(&mut tree, &probes);
    }

    /// A well-formed tree of three levels with bits flipped in one page
    /// (the root, the first interior page under it, or any page), or with
    /// that page's next-leaf / `child0` pointer redirected.
    #[test]
    fn damaged_tree_never_panics_or_hangs(
        which in 0u8..4,
        anywhere in any::<prop::sample::Index>(),
        flips in prop::collection::vec((0usize..PAGE_SIZE, 0u8..8), 0..9),
        redirect in prop::option::of(any::<u64>()),
        probes in prop::collection::vec(0u16..3000, 1..6),
    ) {
        let pool = fresh_pool(16, EvictionPolicy::Steal);
        let mut tree = BTree::create(Arc::clone(&pool), StorageCost::free()).unwrap();
        for i in 0..2_500u16 {
            tree.put(&i.to_be_bytes(), &[i as u8; 300]).unwrap();
        }
        let pages = pool.disk().page_count();
        let child0 = |id: PageId| {
            let frame = pool.fetch(id).unwrap();
            let guard = frame.data.read();
            PageId(u64::from_le_bytes(guard.bytes()[8..16].try_into().unwrap()))
        };
        let victim = match which {
            0 => tree.root(),
            1 => child0(tree.root()),
            _ => PageId(anywhere.index(pages as usize) as u64),
        };
        let mut probes = probes;
        let frame = pool.fetch(victim).unwrap();
        {
            let mut guard = frame.data.write();
            let page = guard.bytes_mut();
            // Probe a key that lives in or under the victim: its first cell's.
            let cell = usize::from(u16::from_le_bytes([page[16], page[17]]));
            probes.push(u16::from_be_bytes([page[cell + 4], page[cell + 5]]));
            for (byte, bit) in &flips {
                page[*byte] ^= 1 << bit;
            }
            if let Some(target) = redirect {
                // Half the time onto a page that exists (cycles, leaves
                // under leaves), half the time anywhere.
                let target = if target % 2 == 0 { target % pages } else { target };
                page[8..16].copy_from_slice(&target.to_le_bytes());
            }
        }
        frame.mark_dirty();
        drop(frame);
        exercise_hostile(&mut tree, &probes);
    }

    /// Checkpoint manifests, their sidecar included, survive encode/decode,
    /// and any single-byte corruption is detected.
    #[test]
    fn manifest_roundtrip_and_corruption(
        epoch in any::<u64>(),
        block in any::<u64>(),
        tables in prop::collection::vec((any::<u16>(), "[a-z]{1,12}", any::<u64>(), any::<u64>()), 0..8),
        sidecar in prop::collection::vec(any::<u8>(), 0..64),
        flip in any::<prop::sample::Index>()
    ) {
        let m = Manifest {
            epoch,
            block: harmony_common::BlockId(block),
            tables: tables
                .into_iter()
                .map(|(id, name, root, len)| TableMeta {
                    id: harmony_common::ids::TableId(id),
                    name,
                    root: PageId(root),
                    len,
                })
                .collect(),
            sidecar,
        };
        let enc = m.encode();
        prop_assert_eq!(Manifest::decode(&enc).unwrap(), m);
        let mut bad = enc.clone();
        let pos = flip.index(bad.len());
        bad[pos] ^= 0x5A;
        // Either rejected, or (vanishingly unlikely) decodes to something
        // different — never silently equal with a flipped byte.
        if let Ok(decoded) = Manifest::decode(&bad) {
            prop_assert_ne!(decoded.encode(), enc);
        }
    }
}
