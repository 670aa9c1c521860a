//! Criterion micro-benchmarks over the core primitives: Harmony block
//! execution vs Aria, B+Tree access paths, and the crypto substrate.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use harmony_core::executor::ExecBlock;
use harmony_core::{HarmonyConfig, SnapshotStore};
use harmony_dcc_baselines::{Aria, AriaConfig, DccEngine, HarmonyEngine};
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_workloads::{Workload, Ycsb, YcsbConfig};
use std::sync::Arc;

fn bench_block_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_execution");
    group.sample_size(20);
    for (name, harmony) in [("harmony", true), ("aria", false)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
                    let mut w = Ycsb::new(YcsbConfig {
                        keys: 2_000,
                        theta: 0.6,
                        ..YcsbConfig::default()
                    });
                    w.setup(&engine).unwrap();
                    let store = Arc::new(SnapshotStore::new(engine));
                    let dcc: Arc<dyn DccEngine> = if harmony {
                        Arc::new(HarmonyEngine::new(
                            Arc::clone(&store),
                            HarmonyConfig {
                                workers: 4,
                                ..HarmonyConfig::default()
                            },
                        ))
                    } else {
                        Arc::new(Aria::new(
                            Arc::clone(&store),
                            AriaConfig {
                                workers: 4,
                                reordering: true,
                            },
                        ))
                    };
                    let mut rng = harmony_common::DetRng::new(7);
                    let txns = w.next_block(&mut rng, 50);
                    (dcc, txns)
                },
                |(dcc, txns)| {
                    let block = ExecBlock::new(harmony_common::BlockId(1), txns);
                    dcc.execute_block(&block, None).unwrap()
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// A tree of `keys` 8-byte keys with 48-byte rows (the Smallbank row
/// shape), every page resident: what a point read or an update costs per
/// call, without a cluster run.
fn loaded_tree(keys: u64) -> harmony_storage::btree::BTree {
    use harmony_storage::{BufferPool, StorageCost};
    let pool = Arc::new(BufferPool::new(
        Arc::new(harmony_storage::MemDisk::new()),
        16_384,
        StorageCost::free(),
    ));
    let mut tree = harmony_storage::btree::BTree::create(pool, StorageCost::free()).unwrap();
    for i in 0..keys {
        tree.put(&i.to_be_bytes(), &[i as u8; 48]).unwrap();
    }
    tree
}

fn bench_btree(c: &mut Criterion) {
    // A timed iteration of the per-call benches is 1 000 calls (the
    // harness takes only ten samples): `ns/iter` / 1 000 is ns per call.
    const CALLS: u64 = 1_000;
    let mut group = c.benchmark_group("btree");
    for (name, keys) in [
        ("get_hit_x1000/10k", 10_000u64),
        ("get_hit_x1000/100k", 100_000),
    ] {
        group.bench_function(name, |b| {
            let tree = loaded_tree(keys);
            let mut i = 0u64;
            b.iter(|| {
                for _ in 0..CALLS {
                    i = (i + 997) % keys;
                    black_box(tree.get(&i.to_be_bytes()).unwrap());
                }
            });
        });
    }
    // The Smallbank/YCSB update: only the value bytes change.
    group.bench_function("put_same_len_x1000", |b| {
        let mut tree = loaded_tree(10_000);
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..CALLS {
                i += 997;
                tree.put(&(i % 10_000).to_be_bytes(), &[i as u8; 48])
                    .unwrap();
            }
        });
    });
    // Every put finds a shorter value (one byte longer each pass over the
    // keys, back to 49 after 32): the cell moves, dead bytes pile up, pages
    // are rebuilt and now and then split.
    group.bench_function("put_grow_x1000", |b| {
        let mut tree = loaded_tree(10_000);
        let row = [0xABu8; 49 + 32];
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..CALLS {
                i += 997;
                let len = 49 + (i / 997 / 10_000) % 32;
                tree.put(&(i % 10_000).to_be_bytes(), &row[..len as usize])
                    .unwrap();
            }
        });
    });
    group.bench_function("insert", |b| {
        b.iter_batched(
            || loaded_tree(0),
            |mut tree| {
                for i in 0..1_000u64 {
                    tree.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
                }
                tree
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data = vec![0xABu8; 4096];
    group.bench_function("sha256_4k", |b| {
        b.iter(|| harmony_crypto::sha256(&data));
    });
    let leaves: Vec<Vec<u8>> = (0..100).map(|i| format!("txn-{i}").into_bytes()).collect();
    group.bench_function("merkle_100", |b| {
        b.iter(|| harmony_crypto::MerkleTree::build(&leaves).root());
    });
    group.finish();
}

criterion_group!(benches, bench_block_execution, bench_btree, bench_crypto);
criterion_main!(benches);
