//! Planner observability: what the cross-shard planner decided, per
//! block.
//!
//! The handles live in the shard crate because the planner reports from
//! inside [`ShardGroup`](crate::ShardGroup), whichever host drives it; the
//! host picks the static label set (e.g. `replica="2"`) at registration.

use harmony_common::error::AbortReason;
use harmony_core::executor::TxnOutcome;
use harmony_metrics::{Counter, Histogram, Registry};

use crate::plan::BlockPlan;

/// Survivor-set-size histogram bounds: powers of two up to a full
/// 64-transaction cross-shard block.
pub const SURVIVOR_SET_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Metric handles for the deterministic cross-shard planner.
#[derive(Clone)]
pub struct PlannerMetrics {
    /// `harmony_xshard_cross_txns_total` — transactions classified
    /// multi-partition.
    pub cross_txns: Counter,
    /// `harmony_xshard_single_txns_total` — transactions classified
    /// single-partition.
    pub single_txns: Counter,
    /// `harmony_xshard_survivors_total` — multi-partition transactions
    /// that won their reservations and were fragmented for execution.
    pub survivors: Counter,
    /// `harmony_xshard_reservation_conflicts_total` — multi-partition
    /// transactions deterministically aborted by a reservation loss.
    pub reservation_conflicts: Counter,
    /// `harmony_xshard_survivor_set_size` — per-block survivor-set size
    /// over blocks that carried at least one multi-partition transaction.
    pub survivor_set_size: Histogram,
}

impl PlannerMetrics {
    /// Register the planner metric families in `registry` under the
    /// given static labels.
    #[must_use]
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> PlannerMetrics {
        PlannerMetrics {
            cross_txns: registry.counter_with(
                "harmony_xshard_cross_txns_total",
                "Transactions classified as multi-partition by the planner.",
                labels,
            ),
            single_txns: registry.counter_with(
                "harmony_xshard_single_txns_total",
                "Transactions classified as single-partition by the planner.",
                labels,
            ),
            survivors: registry.counter_with(
                "harmony_xshard_survivors_total",
                "Multi-partition transactions that won their reservations.",
                labels,
            ),
            reservation_conflicts: registry.counter_with(
                "harmony_xshard_reservation_conflicts_total",
                "Multi-partition transactions aborted by a deterministic reservation loss.",
                labels,
            ),
            survivor_set_size: registry.histogram_with(
                "harmony_xshard_survivor_set_size",
                "Per-block survivor-set size over blocks with cross-shard work.",
                &SURVIVOR_SET_BOUNDS,
                labels,
            ),
        }
    }

    /// Record one planned block.
    pub fn observe(&self, plan: &BlockPlan) {
        let cross = plan.cross_idx.len();
        self.cross_txns.add(cross as u64);
        self.single_txns.add((plan.txns - cross) as u64);
        if cross > 0 {
            let survivors = plan.cross_committed();
            let conflicts = plan
                .decisions
                .iter()
                .filter(|d| **d == TxnOutcome::Aborted(AbortReason::CrossShardConflict))
                .count();
            self.survivors.add(survivors as u64);
            self.reservation_conflicts.add(conflicts as u64);
            self.survivor_set_size.observe(survivors as u64);
        }
    }
}
