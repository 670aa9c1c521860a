//! The lookup path is pinned, not only checked for answers: a fixed
//! operation sequence over a four-frame stealing pool (every search a
//! likely miss) and over a pool that holds the whole tree (every search a
//! hit, through key heads) must charge the same virtual time, count the
//! same pool hits, misses and write-backs, and leave the same page bytes
//! as the values below, captured before B+Tree searches learned to use
//! key heads. A search that fetched, charged or wrote differently would
//! move one of them.

use std::sync::Arc;

use harmony_common::hash::fnv1a64_seeded;
use harmony_common::{vtime, DetRng};
use harmony_storage::btree::BTree;
use harmony_storage::buffer::PoolStats;
use harmony_storage::{
    BufferPool, DiskBackend, DiskProfile, EvictionPolicy, MemDisk, PageBuf, PageId, SimDisk,
    StorageCost,
};

/// Keys of 8 bytes, and now and then of 2, 7 or 9 bytes whose heads
/// collide with the 8-byte ones.
fn key(i: u64, mixed: bool) -> Vec<u8> {
    let full = (i * 7_919 % 100_003).to_be_bytes();
    match (mixed, i % 4) {
        (true, 0) => full[6..].to_vec(),
        (true, 1) => full[..7].to_vec(),
        (true, 2) => [&full[..], &[0]].concat(),
        _ => full.to_vec(),
    }
}

struct Outcome {
    vtime_ns: u64,
    stats: PoolStats,
    heights: Vec<usize>,
    answers: u64,
    pages: u64,
    root: PageId,
    len: u64,
}

fn run(capacity: usize, policy: EvictionPolicy) -> Outcome {
    let cost = StorageCost::default();
    let disk = Arc::new(SimDisk::wrap(MemDisk::new(), DiskProfile::ssd()));
    let pool = Arc::new(BufferPool::with_policy(
        Arc::clone(&disk) as Arc<dyn DiskBackend>,
        capacity,
        cost,
        policy,
    ));
    vtime::take();
    let mut tree = BTree::create(Arc::clone(&pool), cost).unwrap();
    let mut rng = DetRng::new(33);
    let mut heights = vec![tree.height()];
    let mut answers = 0u64;
    let mut note = |answer: Option<Vec<u8>>| {
        answers = fnv1a64_seeded(answers, answer.as_deref().unwrap_or(b"<none>"));
    };
    // Grow to three levels: 8-byte keys with values of 100–400 bytes, a
    // hit and a miss read after every put.
    let mut inserted = 0u64;
    while tree.height() < 3 || inserted < 4_000 {
        let len = 100 + rng.gen_range(300) as usize;
        tree.put(&key(inserted, false), &vec![inserted as u8; len])
            .unwrap();
        inserted += 1;
        note(tree.get(&key(rng.gen_range(inserted), false)).unwrap());
        note(tree.get(&key(inserted + 1_000_000, false)).unwrap());
        if heights.last() != Some(&tree.height()) {
            heights.push(tree.height());
        }
    }
    // Then churn: same-length, growing and shrinking overwrites, deletes,
    // reads and short scans, over 8-byte and mixed-length keys.
    for step in 0..3_000u64 {
        let i = rng.gen_range(inserted + 200);
        let k = key(i, step % 5 == 0);
        match rng.gen_range(8) {
            0 => {
                let old = tree.get(&k).unwrap().map_or(50, |v| v.len());
                tree.put(&k, &vec![step as u8; old]).unwrap();
            }
            1 => {
                tree.put(&k, &vec![step as u8; 300 + rng.gen_range(500) as usize])
                    .unwrap();
            }
            2 => {
                tree.put(&k, &vec![step as u8; rng.gen_range(40) as usize])
                    .unwrap();
            }
            3 => note(tree.delete(&k).unwrap().then(Vec::new)),
            4 => {
                let mut seen = 0;
                tree.scan(&k, None, |k, v| {
                    note(Some([k, v].concat()));
                    seen += 1;
                    seen < 20
                })
                .unwrap();
            }
            _ => note(tree.get(&k).unwrap()),
        }
        if heights.last() != Some(&tree.height()) {
            heights.push(tree.height());
        }
    }
    pool.flush_all().unwrap();
    let vtime_ns = vtime::take();
    let mut pages = 0u64;
    for id in 0..disk.page_count() {
        let mut buf = PageBuf::zeroed();
        disk.read_page(PageId(id), &mut buf).unwrap();
        pages = fnv1a64_seeded(pages, buf.bytes());
    }
    Outcome {
        vtime_ns,
        stats: pool.stats(),
        heights,
        answers,
        pages,
        root: tree.root(),
        len: tree.len(),
    }
}

#[test]
fn lookups_charge_fetch_and_write_as_pinned() {
    // Both pools see the same answers and leave the same pages; only
    // what reaching them costs differs.
    let pinned = [
        (
            4,
            EvictionPolicy::Steal,
            2_176_657_950,
            PoolStats {
                hits: 19_985,
                misses: 21_520,
                evict_writebacks: 5_974,
                flush_writebacks: 0,
            },
        ),
        (
            1024,
            EvictionPolicy::NoSteal,
            46_667_950,
            PoolStats {
                hits: 41_505,
                misses: 0,
                evict_writebacks: 0,
                flush_writebacks: 431,
            },
        ),
    ];
    for (capacity, policy, vtime_ns, stats) in pinned {
        let out = run(capacity, policy);
        let what = format!("{capacity} frames, {policy:?}");
        assert_eq!(out.heights, [1, 2, 3], "{what}: the root splits twice");
        assert_eq!(out.vtime_ns, vtime_ns, "{what}: virtual time");
        assert_eq!(out.stats, stats, "{what}: pool counters");
        assert_eq!(out.answers, 0x519a_6c33_b1b9_bdf9, "{what}: answers");
        assert_eq!(out.pages, 0x1447_21bc_4ee5_ec6a, "{what}: page bytes");
        assert_eq!((out.root, out.len), (PageId(189), 3_950), "{what}");
    }
}
