//! **harmony-shard** — sharded multi-partition execution with
//! deterministic, coordination-free cross-shard commit.
//!
//! The Harmony protocol makes a single replica group execute an ordered
//! block deterministically: the committed post-state is a pure function of
//! (previous state, ordered block). This crate scales that property out by
//! hash-partitioning the keyspace ([`Partitioner`]) across
//! independent execution shards. A [`ShardGroup`] hosts one
//! `harmony_chain::OeChain` per shard — any of the five systems, in the
//! sharded profile that [`harmony_dcc_baselines::engines`] defines and
//! justifies — and is the one executor of a planned block: the experiment
//! driver and `harmony-node`'s sharded replica both run their blocks
//! through it.
//!
//! # Why determinism makes cross-shard commit coordination-free
//!
//! Classic sharded databases need two-phase commit because each shard's
//! commit decision depends on private, nondeterministic state (lock
//! queues, aborts-in-progress), so the decision must be *communicated*.
//! Under the order-execute architecture the inputs to every decision are
//! globally replicated by consensus: all shards see the same ordered block
//! and, after exchanging read fragments, the same captured read-write
//! sets. The commit/abort decision for multi-partition transactions
//! ([`decide_cross`]) is a pure function of exactly those inputs, so every
//! shard evaluates it locally and arrives at the same answer — a voting
//! round would transmit information the peers can already derive. The only
//! cross-shard traffic is the read-fragment exchange itself, which the
//! group models for latency/bandwidth through
//! [`harmony_consensus::net::LatencyModel`] (the same model the cluster
//! composition uses).
//!
//! Two structural choices keep the decision shard-count-invariant (the
//! N-shard state root equals the 1-shard root for the same input stream):
//!
//! * **Logical partitions ≠ physical shards.** Transactions are classified
//!   against a fixed partition count; shards merely host partitions
//!   ([`ShardRouter`]). Moving from 1 to N shards redistributes work but
//!   never reclassifies a transaction.
//! * **Fragments first, conflict-free.** Surviving multi-partition
//!   transactions are split into per-partition fragments sub-ordered ahead
//!   of each shard's local transactions. Survivors are pairwise
//!   conflict-free by construction, so no engine can abort a fragment, and
//!   local conflict components (and hence engine decisions) are identical
//!   for every shard count.
//!
//! Tamper evidence survives sharding: each shard's state root is folded
//! into a top-level root via `harmony_chain::sharded_state_root`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod group;
pub mod metrics;
pub mod partition;
pub mod plan;
pub mod router;

pub use group::{
    decide_cross, logical_state_root, logical_table_heads, prune_to_owned, ShardBlockResult,
    ShardGroup, ShardedRoot,
};
pub use metrics::PlannerMetrics;
pub use partition::{Partitioner, Partitioning, ENTITY_PREFIX_BYTES};
pub use plan::{plan_block, BlockPlan, FragmentCodec, FragmentContract, Slot, FRAGMENT_NAME};
pub use router::{Placement, ReshardMarker, ShardRouter};
