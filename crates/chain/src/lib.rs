//! HarmonyBC — the private blockchain assembled from the substrates (§4 of
//! the paper).
//!
//! * [`block`] — hash-chained blocks: headers with previous-hash and a
//!   Merkle root over transaction payloads, sealed/signed by the ordering
//!   service, verified by replicas (tamper evidence).
//! * [`oe`] — [`OeChain`]: the Order-Execute chain. Blocks are logically
//!   logged *before* execution, executed by the engine named at
//!   [`OeChain::open`] (a [`harmony_dcc_baselines::EngineSpec`]: Harmony
//!   gives HarmonyBC, Aria gives AriaBC, etc.), checkpointed every `p`
//!   blocks, and recoverable by deterministic replay onto that same
//!   engine. Every engine runs on it, the SOV family included: the chain
//!   logs input blocks only.
//! * [`position`] — [`ChainPosition`], where a chain stands besides its
//!   tables (hash, trailing undo images, Rule-3 summary), with the one
//!   codec that checkpoints and sync manifests share.
//! * [`sync`] — [`sync::StateSnapshot`], the transferable checkpoint
//!   manifest, and [`OeChain::catch_up`], the one way a chain takes a
//!   peer's part of a sync reply (manifest install, then block-range
//!   replay) — for a flat replica, every shard and a reshard handover.
//!
//! Replica consistency is checked with [`oe::state_root`]: equal inputs ⇒
//! equal roots on every replica, whatever the thread counts.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod block;
pub mod commit;
pub mod oe;
pub mod position;
pub mod sync;

pub use block::{BlockHeader, ChainBlock};
pub use commit::{fold_table_roots, StateCommitment};
pub use oe::{sharded_state_root, state_root, ChainConfig, OeChain, RowProof};
pub use position::{BlockUndo, ChainPosition};
pub use sync::{StateSnapshot, TableDump};
