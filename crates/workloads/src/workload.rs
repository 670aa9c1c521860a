//! The uniform workload interface.

use std::sync::Arc;

use harmony_common::{DetRng, Result};
use harmony_storage::StorageEngine;
use harmony_txn::{Contract, ContractCodec};

/// A transactional benchmark workload.
///
/// Implementations are deterministic: given the same RNG seed and engine
/// state, `setup` loads identical data and `next_txn` yields identical
/// transaction streams — the property replica-consistency tests rely on.
pub trait Workload: Send + Sync {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Create the workload's tables, empty, and record their ids. Table
    /// ids follow from creation order alone, so this is all a contract codec
    /// needs from an engine.
    fn create_tables(&mut self, engine: &StorageEngine) -> Result<()>;

    /// Create tables and load the initial database. Must be called once
    /// before generating transactions; records the table ids internally.
    fn setup(&mut self, engine: &StorageEngine) -> Result<()>;

    /// The codec that decodes this workload's contracts, over the table ids
    /// recorded by `create_tables` / `setup`.
    fn codec(&self) -> Arc<dyn ContractCodec>;

    /// Generate the next transaction using the caller's RNG.
    fn next_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract>;

    /// Generate a whole block's worth of transactions.
    fn next_block(&self, rng: &mut DetRng, size: usize) -> Vec<Arc<dyn Contract>> {
        (0..size).map(|_| self.next_txn(rng)).collect()
    }
}

/// Deterministically walk forward from `from` (exclusive, wrapping modulo
/// `space`) to the first id satisfying `pred`; falls back to `from` if
/// none does. Shared by the partition-aware workload variants to steer
/// ids into (or out of) a target partition without extra RNG draws.
pub(crate) fn walk_u64(space: u64, from: u64, mut pred: impl FnMut(u64) -> bool) -> u64 {
    for step in 1..space {
        let cand = (from + step) % space;
        if pred(cand) {
            return cand;
        }
    }
    from
}
