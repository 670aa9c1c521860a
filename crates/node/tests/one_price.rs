//! One price, two hosts: the blocks an experiment driver executes cost a
//! replica exactly what they cost the driver. The driver runs with
//! retries off, so each of its blocks is the workload's next
//! transactions; sealed the way the ordering service seals them and
//! delivered to a replica on the same engine, workers and storage, they
//! must add up to the driver's `wall_ns` and to its counters — for every
//! engine, on a flat replica and on a sharded one with M = 2.

use std::sync::Arc;

use harmony_chain::{ChainBlock, ChainConfig};
use harmony_common::{BlockId, DetRng};
use harmony_crypto::{Digest, KeyPair};
use harmony_node::{Applied, ReplicaConfig, ReplicaNode, ShardedReplicaConfig, ShardedReplicaNode};
use harmony_sim::{run_experiment, EngineKind, RunConfig, RunMetrics, ShardLayout};
use harmony_storage::StorageConfig;
use harmony_workloads::{Smallbank, SmallbankConfig, Workload};

/// Smallbank over 8 partitions with cross-partition traffic.
fn bank() -> Smallbank {
    Smallbank::new(SmallbankConfig {
        accounts: 300,
        theta: 0.7,
        partitions: 8,
        multi_partition_ratio: 0.3,
    })
}

/// 6 blocks of 16 on 4 workers, a non-zero log sync, no retries.
fn run() -> RunConfig {
    RunConfig {
        blocks: 6,
        block_size: 16,
        workers: 4,
        storage: StorageConfig {
            disk_profile: harmony_storage::DiskProfile {
                sync_ns: 9_000,
                ..harmony_storage::DiskProfile::ssd()
            },
            ..StorageConfig::default()
        },
        seed: 0x0C05,
        retry_aborts: false,
        shards: None,
    }
}

/// The driver's host-chain configuration: the run's storage, no
/// checkpoints.
fn chain(run: &RunConfig) -> ChainConfig {
    ChainConfig {
        storage: run.storage.clone(),
        checkpoint_every: 0,
        ..ChainConfig::default()
    }
}

/// Feed `deliver` the driver's blocks for `run`, sealed and hash-chained
/// by the orderer of [`chain`]; returns the virtual ns charged.
/// `workload` must be set up (its codec encodes the payloads).
fn deliver_run(
    workload: &dyn Workload,
    run: &RunConfig,
    mut deliver: impl FnMut(Arc<ChainBlock>) -> Vec<Applied>,
) -> u64 {
    let chain = chain(run);
    let keypair = KeyPair::derive(&chain.provision, chain.orderer_id, chain.crypto);
    let codec = workload.codec();
    let mut rng = DetRng::new(run.seed);
    let (mut prev, mut cost_ns) = (Digest::ZERO, 0);
    for id in 1..=run.blocks as u64 {
        let txns = workload.next_block(&mut rng, run.block_size);
        let encoded = txns.iter().map(|t| codec.encode(t.as_ref())).collect();
        let sealed = ChainBlock::seal(BlockId(id), prev, encoded, &keypair);
        prev = sealed.header.hash();
        let applied = deliver(Arc::new(sealed));
        assert_eq!(applied.len(), 1, "block {id} applies on delivery");
        cost_ns += applied[0].cost_ns;
    }
    cost_ns
}

fn assert_same_price(host: &str, engine: EngineKind, cost_ns: u64, metrics: &RunMetrics) {
    assert_eq!(cost_ns, metrics.wall_ns, "{host}, {}", engine.name());
    assert!(metrics.stats.committed > 0, "{host}, {}", engine.name());
}

#[test]
fn a_flat_replica_charges_what_the_driver_charges() {
    let run = run();
    for engine in EngineKind::ALL {
        let metrics = run_experiment(engine, &mut bank(), &run, |_| {}).unwrap();
        let config = ReplicaConfig {
            chain: chain(&run),
            engine,
            workers: run.workers,
            gossip_every: 5,
        };
        let mut w = bank();
        let mut replica = ReplicaNode::new(&config, |e| {
            w.setup(e)?;
            Ok(w.codec())
        })
        .unwrap();
        let cost_ns = deliver_run(&w, &run, |b| replica.deliver(b).unwrap());
        assert_same_price("flat", engine, cost_ns, &metrics);
        assert_eq!(replica.stats(), &metrics.stats, "flat, {}", engine.name());
    }
}

#[test]
fn a_sharded_replica_charges_what_the_driver_charges() {
    let layout = ShardLayout {
        shards: 2,
        partitions: 8,
    };
    let run = RunConfig {
        shards: Some(layout),
        ..run()
    };
    for engine in EngineKind::ALL {
        let metrics = run_experiment(engine, &mut bank(), &run, |_| {}).unwrap();
        let config = ShardedReplicaConfig {
            chain: chain(&run),
            engine,
            workers: run.workers,
            shards: layout.shards,
            partitions: layout.partitions,
            ..ShardedReplicaConfig::default()
        };
        let mut w = bank();
        let mut replica = ShardedReplicaNode::new(&config, |e| {
            w.setup(e)?;
            Ok(w.codec())
        })
        .unwrap();
        let cost_ns = deliver_run(&w, &run, |b| replica.deliver(b).unwrap());
        assert_same_price("sharded", engine, cost_ns, &metrics);
        assert_eq!(
            replica.stats(),
            &metrics.stats,
            "sharded, {}",
            engine.name()
        );
    }
}
