//! End-to-end observability-plane scenarios: a 4-replica × 4-shard
//! cluster must produce a Prometheus exposition covering the whole
//! metric catalog (mempool, per-shard txn outcomes, latency histograms,
//! planner, state-sync paths) and a schema-versioned JSON timeline that
//! is **byte-identical** across two same-seed runs — the determinism
//! contract that makes metrics diffable in CI.

use harmony_chain::ChainConfig;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_metrics::TIMELINE_SCHEMA;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEvent, FaultSchedule,
    MempoolConfig, OrderingMode, ReplicaConfig, ShardTopology,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};

const PARTITIONS: u32 = 16;
const LOAD_NS: u64 = 15_000_000;
const DRAIN_NS: u64 = 600_000_000;
const GOSSIP_EVERY: u64 = 5;

fn smallbank() -> ClusterWorkload {
    ClusterWorkload::Smallbank(SmallbankConfig {
        accounts: 400,
        theta: 0.6,
        partitions: u64::from(PARTITIONS),
        multi_partition_ratio: 0.2,
    })
}

fn config(crash: Option<FaultEvent>, stagger: u64) -> ClusterConfig {
    ClusterConfig {
        replicas: 4,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::memory(),
                crypto: CryptoCost::free(),
                checkpoint_every: 3,
                ..ChainConfig::default()
            },
            engine: EngineKind::Harmony(HarmonyConfig::default()),
            workers: 2,
            gossip_every: GOSSIP_EVERY,
        },
        topology: Some(ShardTopology {
            shards: 4,
            partitions: PARTITIONS,
            partitioning: None,
            checkpoint_stagger: stagger,
        }),
        workload: smallbank(),
        ordering: OrderingMode::Kafka { brokers: 3 },
        faults: FaultSchedule::new(crash.into_iter().collect()),
        mempool: MempoolConfig {
            capacity: 2_048,
            ..MempoolConfig::default()
        },
        open_loop: OpenLoopConfig {
            clients: 8,
            rate_tps: 40_000.0,
            hot_share: 0.0,
        },
        load_ns: LOAD_NS,
        drain_ns: DRAIN_NS,
        block_txns: 24,
        batch_interval_ns: 500_000,
        window: 4,
        seed: 0x0B5E,
        ..ClusterConfig::default()
    }
}

/// Extract the value of the exposition line that starts with
/// `name_and_labels ` (exact sample-name + label-set match).
fn metric_value(exposition: &str, name_and_labels: &str) -> u64 {
    let line = exposition
        .lines()
        .find(|l| {
            l.strip_prefix(name_and_labels)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .unwrap_or_else(|| panic!("no sample `{name_and_labels}` in exposition"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

#[test]
fn same_seed_runs_produce_byte_identical_timelines() {
    let run = || Cluster::new(config(None, 0)).run().unwrap();
    let a = run();
    let b = run();
    assert_eq!(
        a.timeline, b.timeline,
        "same-seed timelines must be byte-identical"
    );
    assert_eq!(
        a.exposition, b.exposition,
        "same-seed expositions must be byte-identical"
    );
    // Schema and virtual-time shape.
    assert!(a
        .timeline
        .contains(&format!("\"schema\": \"{TIMELINE_SCHEMA}\"")));
    assert!(a.timeline.contains("\"interval_ns\": 5000000"));
    let snapshots = a.timeline.matches("\"t_ns\":").count();
    assert!(
        snapshots >= 3,
        "expected periodic snapshots plus the final one, got {snapshots}"
    );
    // The final snapshot lands exactly on the run deadline.
    assert!(
        a.timeline
            .contains(&format!("\"t_ns\": {}", LOAD_NS + DRAIN_NS)),
        "final snapshot must be stamped at the virtual deadline"
    );
    assert!(a.timeline.ends_with('\n'));
}

#[test]
fn exposition_covers_the_metric_catalog_and_agrees_with_the_report() {
    let report: ClusterReport = Cluster::new(config(None, 0)).run().unwrap();
    let exp = &report.exposition;

    // Mempool plane, and its agreement with the MempoolStats view
    // (satellite: MempoolStats is a projection of the same registry
    // cells, so the two can never drift apart).
    assert!(exp.contains("# TYPE harmony_mempool_depth gauge"));
    assert!(exp.contains("# TYPE harmony_mempool_admitted_total counter"));
    assert!(exp.contains("harmony_mempool_rejected_total{cause=\"backpressure\"}"));
    assert!(exp.contains("harmony_mempool_rejected_total{cause=\"duplicate\"}"));
    assert!(exp.contains("harmony_mempool_rejected_total{cause=\"nonce_gap\"}"));
    assert!(exp.contains("harmony_mempool_rejected_total{cause=\"tenant_quota\"}"));
    assert_eq!(
        metric_value(exp, "harmony_mempool_admitted_total"),
        report.mempool.admitted,
        "exposition and MempoolStats must agree"
    );

    // Replica plane: txn outcomes (with abort reasons), latency
    // histograms, gossiped-root counters, root-tracker buffer gauges.
    for r in 0..4 {
        assert!(exp.contains(&format!(
            "harmony_replica_committed_txns_total{{replica=\"{r}\"}}"
        )));
        assert!(exp.contains(&format!(
            "harmony_replica_commit_latency_ns_bucket{{replica=\"{r}\",le=\"+Inf\"}}"
        )));
        assert!(exp.contains(&format!(
            "harmony_replica_order_latency_ns_count{{replica=\"{r}\"}}"
        )));
    }
    assert!(exp.contains("harmony_replica_aborted_txns_total{replica=\"0\",reason=\"ww\"}"));
    assert!(exp.contains("# TYPE harmony_replica_block_cost_ns histogram"));
    // A crash-free replica folds one root per gossip height it applied.
    for r in &report.replicas {
        assert_eq!(
            metric_value(
                exp,
                &format!(
                    "harmony_replica_gossip_roots_total{{replica=\"{}\"}}",
                    r.replica
                )
            ),
            r.height.0 / GOSSIP_EVERY,
            "replica {}",
            r.replica
        );
    }
    assert!(exp.contains("harmony_replica_root_own_buffer_hwm{replica=\"0\"}"));
    assert!(exp.contains("harmony_replica_root_peer_buffer_hwm{replica=\"0\"}"));

    // Per-shard txn counters and the cross-shard planner plane.
    for s in 0..4 {
        assert!(exp.contains(&format!(
            "harmony_shard_committed_txns_total{{replica=\"0\",shard=\"{s}\"}}"
        )));
    }
    assert!(exp.contains("harmony_xshard_cross_txns_total{replica=\"0\"}"));
    assert!(exp.contains("harmony_xshard_single_txns_total{replica=\"0\"}"));
    assert!(exp.contains("harmony_xshard_survivor_set_size_bucket{replica=\"0\",le=\"+Inf\"}"));

    // State-sync counters exist (zero on a crash-free run) for both paths.
    assert!(exp.contains("harmony_statesync_requests_total{replica=\"0\",path=\"manifest\"}"));
    assert!(exp.contains("harmony_statesync_transfer_bytes_total{replica=\"0\",path=\"range\"}"));
    // Chaos-plane families are registered (and zero) even on fault-free
    // runs, so dashboards have a stable schema.
    assert!(exp.contains("harmony_statesync_retries_total{replica=\"0\"}"));
    assert!(exp.contains("harmony_statesync_refusals_total{replica=\"0\"}"));
    assert!(exp.contains("harmony_replica_quarantine_enters_total{replica=\"0\"}"));
    assert!(exp.contains("harmony_replica_quarantine_exits_total{replica=\"0\"}"));

    // Every committed txn the observer saw is in the per-replica counter.
    let committed = metric_value(exp, "harmony_replica_committed_txns_total{replica=\"0\"}");
    assert_eq!(committed, report.metrics.stats.committed as u64);
    // Per-shard counters cover the replica total. A cross-shard txn
    // commits on every participating shard, so the sum can only exceed
    // the block-level count (never undercount).
    let shard_sum: u64 = (0..4)
        .map(|s| {
            let v = metric_value(
                exp,
                &format!("harmony_shard_committed_txns_total{{replica=\"0\",shard=\"{s}\"}}"),
            );
            assert!(v > 0, "shard {s} committed nothing");
            v
        })
        .sum();
    assert!(
        shard_sum >= committed,
        "shard counters must cover the total: {shard_sum} < {committed}"
    );

    // Latency histogram invariants: count equals committed weight.
    let lat_count = metric_value(
        exp,
        "harmony_replica_commit_latency_ns_count{replica=\"0\"}",
    );
    assert_eq!(lat_count, committed);
}

#[test]
fn crash_rejoin_splits_sync_bytes_by_path() {
    // Staggered checkpoints force one rejoin to mix both sync paths
    // (manifest install for the shards without a checkpoint, range replay
    // for the rest), so both byte counters must move — and partition the
    // transfer exactly.
    let report = Cluster::new(config(
        Some(FaultEvent::Crash {
            replica: 2,
            at_ns: 7_000_000,
            recover_at_ns: 14_000_000,
        }),
        1_000,
    ))
    .run()
    .unwrap();
    assert!(report.consistent, "replicas diverged");
    let crashed = &report.replicas[2];
    assert!(crashed.sync_manifest_shards > 0 && crashed.sync_range_shards > 0);
    assert!(
        crashed.sync_manifest_bytes > 0,
        "manifest path moved shards but no bytes: {crashed:?}"
    );
    assert!(
        crashed.sync_range_bytes > 0,
        "range path moved shards but no bytes: {crashed:?}"
    );
    // The summary is read straight off the registry counters, and the
    // exposition renders the same cells.
    let exp = &report.exposition;
    assert_eq!(
        metric_value(
            exp,
            "harmony_statesync_transfer_bytes_total{replica=\"2\",path=\"manifest\"}"
        ),
        crashed.sync_manifest_bytes
    );
    assert_eq!(
        metric_value(
            exp,
            "harmony_statesync_transfer_bytes_total{replica=\"2\",path=\"range\"}"
        ),
        crashed.sync_range_bytes
    );
    assert_eq!(
        metric_value(
            exp,
            "harmony_statesync_requests_total{replica=\"2\",path=\"manifest\"}"
        ),
        crashed.sync_manifest_shards
    );
    // Stable replicas never synced: their counters stayed zero.
    assert_eq!(report.replicas[0].sync_manifest_bytes, 0);
    assert_eq!(report.replicas[0].sync_range_bytes, 0);
}

#[test]
fn flat_cluster_exposes_replica_metrics_without_shard_families() {
    let mut cfg = config(None, 0);
    cfg.topology = None;
    let report = Cluster::new(cfg).run().unwrap();
    let exp = &report.exposition;
    assert!(exp.contains("harmony_replica_committed_txns_total{replica=\"0\"}"));
    assert!(exp.contains("harmony_mempool_admitted_total"));
    assert!(
        !exp.contains("harmony_shard_committed_txns_total"),
        "flat runs must not register per-shard families"
    );
    assert!(
        !exp.contains("harmony_xshard_"),
        "flat runs have no cross-shard planner"
    );
    let committed = metric_value(exp, "harmony_replica_committed_txns_total{replica=\"0\"}");
    assert_eq!(committed, report.metrics.stats.committed as u64);
}
