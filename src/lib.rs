//! # HarmonyBC
//!
//! A reproduction of *"When Private Blockchain Meets Deterministic
//! Database"* (SIGMOD 2023): the **Harmony** deterministic concurrency
//! control protocol and the **HarmonyBC** private blockchain built on it,
//! together with every substrate the paper depends on — a disk-oriented
//! storage engine, baseline DCC protocols (Aria, RBC, Fabric, FastFabric#),
//! a consensus layer (chained HotStuff and a Kafka-like sequencer), and the
//! Smallbank / YCSB / TPC-C workloads used in the evaluation.
//!
//! This facade crate re-exports the public API of every workspace crate so
//! downstream users depend on a single crate:
//!
//! ```
//! use harmonybc::prelude::*;
//!
//! // Build a tiny in-memory chain; the second argument names the DCC
//! // engine (the default is HarmonyBC as the paper runs it).
//! let chain = OeChain::open(ChainConfig::in_memory(), EngineSpec::default()).unwrap();
//! assert_eq!(chain.height(), BlockId(0));
//! ```

pub use harmony_chain as chain;
pub use harmony_common as common;
pub use harmony_consensus as consensus;
pub use harmony_core as core;
pub use harmony_crypto as crypto;
pub use harmony_dcc_baselines as baselines;
pub use harmony_metrics as metrics;
pub use harmony_node as node;
pub use harmony_shard as shard;
pub use harmony_sim as sim;
pub use harmony_storage as storage;
pub use harmony_transport as transport;
pub use harmony_txn as txn;
pub use harmony_workloads as workloads;

/// Convenience re-exports covering the common entry points.
pub mod prelude {
    pub use harmony_chain::{ChainConfig, OeChain};
    pub use harmony_common::{BlockId, TableId, TxnId};
    pub use harmony_core::{BlockExecutor, HarmonyConfig, SnapshotStore};
    pub use harmony_dcc_baselines::{DccEngine, EngineKind, EngineSpec, HarmonyEngine};
    pub use harmony_metrics::{Registry, Timeline};
    pub use harmony_node::{Cluster, ClusterConfig, ClusterWorkload, Mempool, ReplicaNode};
    pub use harmony_shard::{Partitioner, Partitioning, ShardGroup, ShardRouter};
    pub use harmony_storage::{DiskProfile, StorageConfig, StorageEngine};
    pub use harmony_txn::{Contract, ContractCodec, Key, TxnCtx, UpdateCommand, Value};
    pub use harmony_workloads::{Smallbank, Tpcc, Workload, Ycsb};
}
