//! Replica-side metric handle bundles.
//!
//! One [`ReplicaMetrics`] per replica (committed/aborted transaction
//! counters with abort-reason labels, block-cost histogram, and the
//! delivery front's root-tracker buffer high-water marks), plus one
//! [`TxnCounters`] per hosted shard on a sharded replica. A node built
//! without an observability plane registers them in a scratch
//! [`Registry`], so it pays the same single relaxed atomic per event and
//! nothing else.

use harmony_core::BlockStats;
use harmony_metrics::{doubling_buckets, Counter, Gauge, Histogram, Registry};

/// Committed/aborted transaction counters over one label scope (a
/// replica, or one shard of a replica), with abort-reason labels derived
/// from [`BlockStats::ABORT_REASONS`].
#[derive(Clone)]
pub struct TxnCounters {
    /// `..._committed_txns_total`.
    pub committed: Counter,
    /// `..._aborted_txns_total{reason=...}`, indexed like
    /// [`BlockStats::ABORT_REASONS`].
    pub aborted: [Counter; 9],
}

impl TxnCounters {
    /// Register a committed/aborted counter pair under `base_labels`,
    /// with one aborted child per abort reason.
    #[must_use]
    pub fn register(
        registry: &Registry,
        committed_name: &str,
        committed_help: &str,
        aborted_name: &str,
        aborted_help: &str,
        base_labels: &[(&str, &str)],
    ) -> TxnCounters {
        let committed = registry.counter_with(committed_name, committed_help, base_labels);
        let aborted = BlockStats::ABORT_REASONS.map(|reason| {
            let mut labels = base_labels.to_vec();
            labels.push(("reason", reason));
            registry.counter_with(aborted_name, aborted_help, &labels)
        });
        TxnCounters { committed, aborted }
    }

    /// Accumulate one block's statistics.
    pub fn observe(&self, stats: &BlockStats) {
        self.committed.add(stats.committed as u64);
        for ((_, n), counter) in stats.abort_counts().iter().zip(&self.aborted) {
            counter.add(*n as u64);
        }
    }
}

/// Metric handles carried by a (flat or sharded) replica node.
#[derive(Clone)]
pub struct ReplicaMetrics {
    /// `harmony_replica_committed_txns_total{replica}` /
    /// `harmony_replica_aborted_txns_total{replica,reason}`.
    pub txns: TxnCounters,
    /// `harmony_replica_block_cost_ns{replica}` — virtual execution cost
    /// charged per applied block.
    pub block_cost_ns: Histogram,
    /// `harmony_replica_gossip_roots_total{replica}` — state roots this
    /// replica folded and gossiped (one per gossip height it applied).
    pub gossip_roots: Counter,
    /// `harmony_replica_root_own_buffer_hwm{replica}` — high-water mark
    /// of the root tracker's own-root window.
    pub root_own_hwm: Gauge,
    /// `harmony_replica_root_peer_buffer_hwm{replica}` — high-water mark
    /// of the root tracker's ahead-of-us peer buffer.
    pub root_peer_hwm: Gauge,
    /// `harmony_replica_reshards_total{replica}` — topology-change
    /// (reshard) blocks applied by this replica.
    pub reshards: Counter,
    /// `harmony_replica_hosted_shards{replica}` — shard count currently
    /// hosted (changes at reshard epoch boundaries; 0 on flat replicas).
    pub hosted_shards: Gauge,
}

impl ReplicaMetrics {
    /// Register the per-replica families for replica `replica`.
    #[must_use]
    pub fn register(registry: &Registry, replica: usize) -> ReplicaMetrics {
        let id = replica.to_string();
        let labels: [(&str, &str); 1] = [("replica", id.as_str())];
        ReplicaMetrics {
            txns: TxnCounters::register(
                registry,
                "harmony_replica_committed_txns_total",
                "Transactions committed by this replica.",
                "harmony_replica_aborted_txns_total",
                "Transactions aborted by this replica, by reason.",
                &labels,
            ),
            block_cost_ns: registry.histogram_with(
                "harmony_replica_block_cost_ns",
                "Virtual execution cost charged per applied block (ns).",
                &doubling_buckets(10_000, 16),
                &labels,
            ),
            gossip_roots: registry.counter_with(
                "harmony_replica_gossip_roots_total",
                "State roots folded and gossiped by this replica (one per gossip height).",
                &labels,
            ),
            root_own_hwm: registry.gauge_with(
                "harmony_replica_root_own_buffer_hwm",
                "High-water mark of the root tracker's own-root window.",
                &labels,
            ),
            root_peer_hwm: registry.gauge_with(
                "harmony_replica_root_peer_buffer_hwm",
                "High-water mark of the root tracker's buffered peer-root heights.",
                &labels,
            ),
            reshards: registry.counter_with(
                "harmony_replica_reshards_total",
                "Topology-change (reshard) blocks applied by this replica.",
                &labels,
            ),
            hosted_shards: registry.gauge_with(
                "harmony_replica_hosted_shards",
                "Shard count currently hosted by this replica.",
                &labels,
            ),
        }
    }
}

/// Register the per-shard committed/aborted counter pair for shard
/// `shard` of replica `replica`.
#[must_use]
pub fn shard_txn_counters(registry: &Registry, replica: usize, shard: usize) -> TxnCounters {
    let r = replica.to_string();
    let s = shard.to_string();
    TxnCounters::register(
        registry,
        "harmony_shard_committed_txns_total",
        "Transactions committed per hosted shard.",
        "harmony_shard_aborted_txns_total",
        "Transactions aborted per hosted shard, by reason.",
        &[("replica", r.as_str()), ("shard", s.as_str())],
    )
}
