//! Fixtures shared by this crate's unit tests: one small Smallbank
//! deployment, flat or sharded, and the sealed block stream the ordering
//! service would feed it.

use std::sync::Arc;

use harmony_chain::{ChainBlock, ChainConfig};
use harmony_common::{BlockId, DetRng};
use harmony_consensus::net::LatencyModel;
use harmony_crypto::{Digest, KeyPair};
use harmony_shard::Partitioning;
use harmony_sim::EngineKind;
use harmony_txn::encode_contract;
use harmony_workloads::SmallbankConfig;

use crate::{
    ClusterWorkload, ReplicaConfig, ReplicaNode, ShardedReplicaConfig, ShardedReplicaNode,
};

/// The deployment's workload: 120 accounts over 8 logical partitions, 40%
/// of transactions touching two of them.
pub(crate) fn workload() -> ClusterWorkload {
    ClusterWorkload::Smallbank(SmallbankConfig {
        accounts: 120,
        theta: 0.5,
        partitions: 8,
        multi_partition_ratio: 0.4,
    })
}

/// The orderer's key pair under [`ChainConfig::in_memory`] provisioning.
pub(crate) fn orderer_keypair() -> KeyPair {
    let chain = ChainConfig::in_memory();
    KeyPair::derive(&chain.provision, chain.orderer_id, chain.crypto)
}

/// `n` blocks of `block_txns` transactions, sealed and hash-chained from
/// genesis the way the orderer does it. Always the same stream, so two
/// calls agree on their common prefix.
pub(crate) fn sealed_stream(n: usize, block_txns: usize) -> Vec<Arc<ChainBlock>> {
    let keypair = orderer_keypair();
    let generator = workload().generator().unwrap();
    let mut rng = DetRng::new(0x5A);
    let mut prev = Digest::ZERO;
    (1..=n as u64)
        .map(|id| {
            let txns = generator.next_block(&mut rng, block_txns);
            let encoded = txns.iter().map(|t| encode_contract(t.as_ref())).collect();
            let sealed = ChainBlock::seal(BlockId(id), prev, encoded, &keypair);
            prev = sealed.header.hash();
            Arc::new(sealed)
        })
        .collect()
}

/// A flat replica at genesis, gossiping every 2 blocks.
pub(crate) fn flat_replica(engine: EngineKind, checkpoint_every: u64) -> ReplicaNode {
    let config = ReplicaConfig {
        chain: ChainConfig {
            checkpoint_every,
            ..ChainConfig::in_memory()
        },
        engine,
        workers: 2,
        gossip_every: 2,
    };
    ReplicaNode::new(&config, |eng| workload().setup_node(eng)).unwrap()
}

pub(crate) fn sharded_config(engine: EngineKind, shards: usize) -> ShardedReplicaConfig {
    ShardedReplicaConfig {
        chain: ChainConfig {
            checkpoint_every: 3,
            ..ChainConfig::in_memory()
        },
        engine,
        workers: 2,
        shards,
        partitions: 8,
        partitioning: Partitioning::default(),
        replicated_tables: Vec::new(),
        checkpoint_stagger: 0,
        latency: LatencyModel::lan_1g(),
        gossip_every: 2,
    }
}

/// A sharded replica at genesis built from `config`.
pub(crate) fn sharded_replica(config: &ShardedReplicaConfig) -> ShardedReplicaNode {
    ShardedReplicaNode::new(config, |eng| workload().setup_node(eng)).unwrap()
}

/// Deliver `blocks` in order.
pub(crate) fn feed(replica: &mut ReplicaNode, blocks: &[Arc<ChainBlock>]) {
    for b in blocks {
        replica.deliver(Arc::clone(b)).unwrap();
    }
}
