//! **Harmony** — the paper's deterministic concurrency control protocol.
//!
//! Harmony is an optimistic DCC: a block of transactions is *simulated*
//! against a deterministic block snapshot (read-write sets + update
//! commands captured), then *committed* with:
//!
//! 1. **Abort-minimizing validation** (Rule 1 / Algorithm 1): abort `T_j`
//!    only if it sits in a *backward dangerous structure*
//!    `T_i ←rw T_j ←rw T_k` with `i < j`, `i ≤ k` — tracked in O(e) with
//!    two per-transaction scalars `min_out` / `max_in` ([`meta`]).
//! 2. **Update reordering** (Rule 2): ww/wr conflicts never abort; update
//!    commands on one record are applied in ascending `(min_out, tid)`
//!    order, provably consistent with a topological order of the
//!    rw-subgraph ([`reorder`]).
//! 3. **Update coalescence**: all commands on one record collapse into one
//!    read-modify-write — one index lookup, one page write ([`reorder`]).
//! 4. **Inter-block parallelism** (Rule 3): block `i` simulates against the
//!    snapshot of block `i−2` while block `i−1` commits; an enhanced abort
//!    policy keeps the outcome deterministic under network asynchrony
//!    ([`executor`]).
//!
//! The protocol toggles (`update_reordering`, `update_coalescence`,
//! `inter_block_parallelism`) reproduce the paper's ablation (Figure 20).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod config;
pub mod executor;
pub mod meta;
pub mod par;
pub mod reorder;
pub mod reservation;
pub mod snapshot;
pub mod stats;

pub use config::HarmonyConfig;
pub use executor::{BlockExecutor, ExecBlock, TxnOutcome, TxnResult};
pub use snapshot::{SnapshotStore, SnapshotViewAt};
pub use stats::BlockStats;
