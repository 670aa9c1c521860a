//! End-to-end replica runtime — where the ordering service and the
//! deterministic database finally meet.
//!
//! The paper's thesis is that an Order-Execute private blockchain is
//! "consensus delivers an ordered block; deterministic execution does the
//! rest." This crate closes that loop as a running system:
//!
//! * [`mempool`] — the client-facing frontend: sessions, per-session
//!   nonces, duplicate/gap rejection, bounded-queue backpressure, and
//!   deterministic FIFO batching.
//! * [`replica`] — [`ReplicaNode`]: an [`harmony_chain::OeChain`]
//!   (storage + snapshots + any of the five DCC engines) consuming sealed
//!   blocks with pipeline-aware virtual-time cost accounting — and
//!   [`DeliveryFront`], the ordered-delivery front it shares with the
//!   sharded replica: gap buffering, a verified delivery log, and
//!   state-root gossip for divergence detection.
//! * [`sharded`] — [`ShardedReplicaNode`]: M per-shard chains behind the
//!   same front, a globally ordered block planned across them with
//!   `harmony-shard`'s deterministic cross-shard commit.
//! * [`statesync`] — how a lagging replica catches up: one request/reply
//!   shape for both replica kinds (a height per hosted chain out; an
//!   anchor plus a checkpoint manifest or verified block range per chain
//!   back), with a timeout/retry/backoff policy ([`RetryPolicy`]) for
//!   peers that never answer.
//! * [`fault`] — the chaos plane: a typed [`FaultSchedule`] of crash
//!   cycles, partitions, link drop/duplication/delay windows, sync
//!   refusals, and root poisoning, lowered onto the deterministic net.
//! * [`cluster`] — [`Cluster`]: N replicas + orderer (+ brokers) + an
//!   open-loop client bank on the deterministic discrete-event network,
//!   one module per role, with fault schedules, watchdog-driven recovery,
//!   divergence quarantine, and client resubmission, producing
//!   node-runtime [`harmony_sim::RunMetrics`] instead of the analytic
//!   composition.
//!
//! The two replica kinds differ in how a block is applied — the paper's
//! inter-block parallelism on one chain, or the sharded profile over M —
//! and in nothing else; [`cluster`]'s module docs say why that fork
//! stays and what exists once.
//!
//! The invariant every scenario must uphold: replicas fed the same
//! ordered blocks reach **bit-identical state roots**, whatever the
//! engine, worker count, crash points, or sync path.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cluster;
pub mod fault;
pub mod mempool;
pub mod metrics;
pub mod replica;
pub mod sharded;
pub mod statesync;

pub use cluster::{
    build_node, load_ns_for_txns, submission_trace, BlockSummary, Cluster, ClusterConfig,
    ClusterLayout, ClusterNode, ClusterReport, ClusterWorkload, Msg, NodeStatus, OrderingMode,
    ReplicaSummary, ShardTopology, Submission, TIMER_CRASH, TIMER_RECOVER,
};
pub use fault::{
    FaultEffect, FaultEvent, FaultSchedule, FaultScope, LinkFault, ReshardAt, ReshardSchedule,
};
pub use mempool::{AdmitError, Mempool, MempoolConfig, MempoolMetrics, MempoolStats, PendingTxn};
pub use metrics::{shard_txn_counters, ReplicaMetrics, TxnCounters};
pub use replica::{Applied, DeliveryFront, ReplicaConfig, ReplicaNode};
pub use sharded::{ShardedReplicaConfig, ShardedReplicaNode};
pub use statesync::{
    apply_sharded_sync, apply_sync, RetryPolicy, ShardedSyncApplied, ShardedSyncResponse,
    SyncResponse,
};

#[cfg(test)]
mod testkit;
