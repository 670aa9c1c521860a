//! Absolute digests, pinned in hex.
//!
//! The other map and tree tests compare a structure with itself: a batch
//! with single operations, an incremental root with a full rebuild. Those
//! would all still pass if a digest's byte layout changed. These goldens
//! fix the layouts themselves — the leaf and node encodings, the
//! priorities that decide the treap's shape, the Merkle tags and the
//! odd-node rule — so a faster hashing path must reproduce every root bit
//! for bit.

use harmony_crypto::{AuthMap, MerkleTree};

fn hex(map: &AuthMap) -> String {
    map.root().to_hex()
}

/// Keys of 0, 8, 12 and 24 bytes, a few with empty values.
fn mixed_rows() -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rows = vec![(Vec::new(), b"empty key".to_vec())];
    for i in 0..40u64 {
        rows.push((i.to_be_bytes().to_vec(), vec![i as u8; (i % 7) as usize]));
        let mut twelve = (i * 31).to_be_bytes().to_vec();
        twelve.extend_from_slice(&(i as u32).to_le_bytes());
        rows.push((twelve, format!("twelve-{i}").into_bytes()));
        let mut long = b"order-line-".to_vec();
        long.extend_from_slice(&(i * 977).to_be_bytes());
        long.extend_from_slice(&[0xEE; 5]);
        assert_eq!(long.len(), 24);
        rows.push((
            long,
            if i % 3 == 0 {
                Vec::new()
            } else {
                vec![0xC0; 48]
            },
        ));
    }
    rows
}

fn map_of(rows: &[(Vec<u8>, Vec<u8>)]) -> AuthMap {
    let mut map = AuthMap::new();
    for (k, v) in rows {
        map.upsert(k, v);
    }
    map
}

#[test]
fn authmap_roots_are_pinned() {
    assert_eq!(
        hex(&AuthMap::new()),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );

    let mut one = AuthMap::new();
    one.upsert(b"acct-7", b"balance=100");
    assert_eq!(
        hex(&one),
        "dbc6791f8a436f5a54c29f1ea72e48fd47a2457ec8a7aca62b60371fbb1d7dfa"
    );

    let mut thousand = AuthMap::new();
    for i in 0..1_000u64 {
        thousand.upsert(&(i * 7_919 % 1_000).to_be_bytes(), &i.to_le_bytes());
    }
    assert_eq!(thousand.len(), 1_000);
    assert_eq!(
        hex(&thousand),
        "0ef08c5de15cef29724c9ec532f6d10f892d1a499f92499ef7e522263459b19c"
    );

    let rows = mixed_rows();
    let mut mixed = map_of(&rows);
    assert_eq!(mixed.len(), rows.len());
    assert_eq!(
        hex(&mixed),
        "9e3effb50e5aa550ad4d3f28c364dcaf534779229d2039f858e104c55597d940"
    );

    // One block's write-set: updates of every key length, inserts of new
    // short and long keys, removes (one of an absent key).
    for (k, _) in rows.iter().step_by(5) {
        mixed.upsert(k, b"updated");
    }
    for i in 100..110u64 {
        mixed.upsert(&i.to_be_bytes(), b"");
        mixed.upsert(format!("inserted-long-key-{i:06}").as_bytes(), b"new");
    }
    for (k, _) in rows.iter().skip(2).step_by(9) {
        assert!(mixed.remove(k));
    }
    assert!(!mixed.remove(b"never present"));
    assert_eq!(
        hex(&mixed),
        "ffa93ce300459cb0d09f6454ce94a707851d73df3e1d0fd7ba094d155736685f"
    );
}

#[test]
fn merkle_roots_are_pinned() {
    let leaves = |n: usize| -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("txn-{i}-{}", "x".repeat(i % 70)).into_bytes())
            .collect()
    };
    let expected = [
        (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            1,
            "907d7be2552a166c193be955987f511d449ceee390a12a1ce9824e9f7deacd8a",
        ),
        (
            2,
            "c829b12abdebd359e99cd4cc2221cb4790e35b4665bade0dceac0e37939ad1e1",
        ),
        (
            3,
            "aee7c667b908058a86dba15cf7752add9ae3ca5790046fcb768dcf29c7dd94d3",
        ),
        (
            100,
            "e6122f5ca23a6abbc78a813b53cc433d06eb5b7745cfd6581a2f4937f603099e",
        ),
    ];
    for (n, hex) in expected {
        assert_eq!(
            MerkleTree::build(&leaves(n)).root().to_hex(),
            hex,
            "{n} leaves"
        );
    }
}
