//! Cluster-side metric handles of one replica.

use harmony_metrics::{doubling_buckets, Counter, Histogram, Registry};

/// Cluster-level per-replica metric handles: commit/order latency
/// histograms (virtual ns) and state-sync path counters. Registered per
/// replica by [`super::ReplicaWrap::new`]; the underlying cells live in the shared
/// registry, so the timeline and exposition see them automatically.
pub(super) struct WrapMetrics {
    /// End-to-end latency (client submit → apply), weighted by committed
    /// txns per block.
    pub(super) commit_latency_ns: Histogram,
    /// Ordering latency (block seal → apply), same weighting.
    pub(super) order_latency_ns: Histogram,
    /// Sync parts served via checkpoint manifest vs block-range replay:
    /// `[manifest, range]`.
    pub(super) sync_requests: [Counter; 2],
    /// Sync bytes received, split the same way: `[manifest, range]`.
    pub(super) sync_bytes: [Counter; 2],
    /// Sync attempts that timed out or were refused and were retried
    /// (or failed over to another peer).
    pub(super) sync_retries: Counter,
    /// Explicit serve refusals received while syncing.
    pub(super) sync_refusals: Counter,
    /// Times this replica self-quarantined after a quorum of peers
    /// disputed its root.
    pub(super) quarantine_enters: Counter,
    /// Quarantines resolved by a completed from-scratch re-sync.
    pub(super) quarantine_exits: Counter,
    /// Node-local operations (delivery, sync serve/apply, recovery,
    /// wipe) that failed and were handled gracefully — dropped, refused,
    /// or healed via the sync path — where the pre-sweep harness would
    /// have panicked the whole process.
    pub(super) node_errors: Counter,
}

impl WrapMetrics {
    pub(super) fn register(registry: &Registry, replica: usize) -> WrapMetrics {
        let id = replica.to_string();
        let base = [("replica", id.as_str())];
        let by_path = |name: &str, help: &str| {
            ["manifest", "range"].map(|path| {
                registry.counter_with(name, help, &[("replica", id.as_str()), ("path", path)])
            })
        };
        WrapMetrics {
            commit_latency_ns: registry.histogram_with(
                "harmony_replica_commit_latency_ns",
                "End-to-end commit latency (client submit to apply), virtual ns.",
                &doubling_buckets(250_000, 15),
                &base,
            ),
            order_latency_ns: registry.histogram_with(
                "harmony_replica_order_latency_ns",
                "Ordering latency (block seal to apply), virtual ns.",
                &doubling_buckets(250_000, 15),
                &base,
            ),
            sync_requests: by_path(
                "harmony_statesync_requests_total",
                "State-sync parts applied, by transfer path.",
            ),
            sync_bytes: by_path(
                "harmony_statesync_transfer_bytes_total",
                "State-sync bytes received, by transfer path.",
            ),
            sync_retries: registry.counter_with(
                "harmony_statesync_retries_total",
                "Sync attempts retried after a timeout or refusal.",
                &base,
            ),
            sync_refusals: registry.counter_with(
                "harmony_statesync_refusals_total",
                "Explicit serve refusals received while syncing.",
                &base,
            ),
            quarantine_enters: registry.counter_with(
                "harmony_replica_quarantine_enters_total",
                "Self-quarantines after a root-divergence quorum.",
                &base,
            ),
            quarantine_exits: registry.counter_with(
                "harmony_replica_quarantine_exits_total",
                "Quarantines resolved by a completed re-sync.",
                &base,
            ),
            node_errors: registry.counter_with(
                "harmony_replica_node_errors_total",
                "Node-local operations that failed and were handled gracefully.",
                &base,
            ),
        }
    }
}
