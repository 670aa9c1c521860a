//! Per-block execution statistics.

use std::fmt;

use harmony_common::error::AbortReason;

use crate::executor::TxnOutcome;

/// Counters produced by executing one block (or aggregated over many).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Transactions in the block.
    pub txns: usize,
    /// Committed transactions.
    pub committed: usize,
    /// Aborts by Rule 1 (intra-block backward dangerous structure).
    pub aborted_rule1: usize,
    /// Aborts by Rule 3(ii) (inter-block dangerous structure).
    pub aborted_interblock: usize,
    /// Aborts by ww-dependency (Aria/RBC first-committer-wins; Harmony
    /// only when update reordering is disabled).
    pub aborted_ww: usize,
    /// Stale-read aborts (Fabric MVCC validation, Aria raw-dependency).
    pub aborted_stale: usize,
    /// SSI dangerous-structure aborts (RBC).
    pub aborted_ssi: usize,
    /// Endorsement mismatch aborts (SOV architectures).
    pub aborted_endorsement: usize,
    /// Dependency-graph cycle / graph-cap drops (FastFabric#).
    pub aborted_graph: usize,
    /// Deterministic cross-shard reservation losses (sharded execution).
    pub aborted_cross_shard: usize,
    /// Deterministic business aborts (contract logic).
    pub user_aborted: usize,
    /// RMW commands skipped because their record was missing at apply time
    /// (zero-row UPDATE semantics).
    pub apply_noop_commands: u64,
    /// Total virtual nanoseconds spent in the simulation step.
    pub sim_ns_total: u64,
    /// Total virtual nanoseconds spent in the commit step.
    pub commit_ns_total: u64,
}

impl BlockStats {
    /// Protocol-induced aborts (excludes user aborts).
    #[must_use]
    pub fn protocol_aborts(&self) -> usize {
        self.aborted_rule1
            + self.aborted_interblock
            + self.aborted_ww
            + self.aborted_stale
            + self.aborted_ssi
            + self.aborted_endorsement
            + self.aborted_graph
            + self.aborted_cross_shard
    }

    /// Abort rate over protocol-eligible transactions
    /// (`protocol aborts / (txns - user aborts)`), the metric the paper's
    /// abort-rate plots use.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let eligible = self.txns.saturating_sub(self.user_aborted);
        if eligible == 0 {
            0.0
        } else {
            self.protocol_aborts() as f64 / eligible as f64
        }
    }

    /// Static metric labels for every abort cause, in the order
    /// [`Self::abort_counts`] reports them — the full label set of the
    /// `..._aborted_txns_total{reason=...}` families.
    pub const ABORT_REASONS: [&'static str; 9] = [
        "rule1",
        "interblock",
        "ww",
        "stale",
        "ssi",
        "endorsement",
        "graph",
        "cross_shard",
        "user",
    ];

    /// Every abort counter paired with its static metric label (order of
    /// [`Self::ABORT_REASONS`]). Deriving labels here keeps the
    /// per-field counters and any labeled metric view in permanent
    /// agreement.
    #[must_use]
    pub fn abort_counts(&self) -> [(&'static str, usize); 9] {
        [
            (Self::ABORT_REASONS[0], self.aborted_rule1),
            (Self::ABORT_REASONS[1], self.aborted_interblock),
            (Self::ABORT_REASONS[2], self.aborted_ww),
            (Self::ABORT_REASONS[3], self.aborted_stale),
            (Self::ABORT_REASONS[4], self.aborted_ssi),
            (Self::ABORT_REASONS[5], self.aborted_endorsement),
            (Self::ABORT_REASONS[6], self.aborted_graph),
            (Self::ABORT_REASONS[7], self.aborted_cross_shard),
            (Self::ABORT_REASONS[8], self.user_aborted),
        ]
    }

    /// The counters of one executed block: its size, each outcome counted
    /// by cause, and the two virtual-time totals. Every engine and the
    /// sharded planner assemble their stats here.
    #[must_use]
    pub fn tally(outcomes: &[TxnOutcome], sim_ns: &[u64], commit_ns: &[u64]) -> BlockStats {
        let mut stats = BlockStats {
            txns: outcomes.len(),
            sim_ns_total: sim_ns.iter().sum(),
            commit_ns_total: commit_ns.iter().sum(),
            ..BlockStats::default()
        };
        for o in outcomes {
            stats.count(*o);
        }
        stats
    }

    /// Count one transaction's outcome in the counter of its cause (`txns`
    /// is the block's size and is not touched). The one mapping from
    /// outcome to counter, exhaustive over [`AbortReason`]: a new reason
    /// cannot be forgotten by one engine.
    fn count(&mut self, outcome: TxnOutcome) {
        let counter = match outcome {
            TxnOutcome::Committed => &mut self.committed,
            TxnOutcome::Aborted(reason) => match reason {
                AbortReason::BackwardDangerousStructure => &mut self.aborted_rule1,
                AbortReason::InterBlockDangerousStructure => &mut self.aborted_interblock,
                AbortReason::WwConflict => &mut self.aborted_ww,
                AbortReason::StaleRead => &mut self.aborted_stale,
                AbortReason::SsiDangerousStructure => &mut self.aborted_ssi,
                AbortReason::EndorsementMismatch => &mut self.aborted_endorsement,
                AbortReason::GraphCycle => &mut self.aborted_graph,
                AbortReason::CrossShardConflict => &mut self.aborted_cross_shard,
                AbortReason::UserAbort => &mut self.user_aborted,
            },
        };
        *counter += 1;
    }

    /// Accumulate another block's counters.
    pub fn absorb(&mut self, other: &BlockStats) {
        self.txns += other.txns;
        self.committed += other.committed;
        self.aborted_rule1 += other.aborted_rule1;
        self.aborted_interblock += other.aborted_interblock;
        self.aborted_ww += other.aborted_ww;
        self.aborted_stale += other.aborted_stale;
        self.aborted_ssi += other.aborted_ssi;
        self.aborted_endorsement += other.aborted_endorsement;
        self.aborted_graph += other.aborted_graph;
        self.aborted_cross_shard += other.aborted_cross_shard;
        self.user_aborted += other.user_aborted;
        self.apply_noop_commands += other.apply_noop_commands;
        self.sim_ns_total += other.sim_ns_total;
        self.commit_ns_total += other.commit_ns_total;
    }
}

impl fmt::Display for BlockStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txns={} committed={} rule1={} inter={} ww={} user={} abort_rate={:.3}",
            self.txns,
            self.committed,
            self.aborted_rule1,
            self.aborted_interblock,
            self.aborted_ww,
            self.user_aborted,
            self.abort_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_rate_excludes_user_aborts() {
        let s = BlockStats {
            txns: 10,
            committed: 6,
            aborted_rule1: 2,
            user_aborted: 2,
            ..BlockStats::default()
        };
        assert_eq!(s.protocol_aborts(), 2);
        assert!((s.abort_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_block_zero_rate() {
        assert_eq!(BlockStats::default().abort_rate(), 0.0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = BlockStats {
            txns: 5,
            committed: 5,
            sim_ns_total: 100,
            ..BlockStats::default()
        };
        let b = BlockStats {
            txns: 3,
            committed: 1,
            aborted_ww: 2,
            commit_ns_total: 50,
            ..BlockStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.txns, 8);
        assert_eq!(a.committed, 6);
        assert_eq!(a.aborted_ww, 2);
        assert_eq!(a.sim_ns_total, 100);
        assert_eq!(a.commit_ns_total, 50);
    }

    #[test]
    fn count_covers_every_cause_once() {
        use AbortReason::*;
        let reasons = [
            BackwardDangerousStructure,
            InterBlockDangerousStructure,
            WwConflict,
            StaleRead,
            SsiDangerousStructure,
            EndorsementMismatch,
            GraphCycle,
            CrossShardConflict,
            UserAbort,
        ];
        // Reasons are listed in `ABORT_REASONS` order: the i-th bumps the
        // i-th counter and nothing else.
        for (i, reason) in reasons.into_iter().enumerate() {
            let mut s = BlockStats::default();
            s.count(TxnOutcome::Aborted(reason));
            let mut expected = [0usize; 9];
            expected[i] = 1;
            assert_eq!(s.abort_counts().map(|(_, n)| n), expected, "{reason:?}");
            assert_eq!(s.committed, 0);
        }
        let mut s = BlockStats::default();
        s.count(TxnOutcome::Committed);
        assert_eq!(
            s,
            BlockStats {
                committed: 1,
                ..BlockStats::default()
            }
        );
    }

    #[test]
    fn display_renders() {
        let s = BlockStats {
            txns: 4,
            committed: 4,
            ..BlockStats::default()
        };
        assert!(s.to_string().contains("txns=4"));
    }
}
