//! CI chaos smoke: the fault-injection plane and the overload path, end
//! to end, in two legs.
//!
//! **Leg 1 — convergence under chaos.** A fixed multi-fault schedule
//! (crash/rejoin cycle, partition window, lossy link, sync-serve
//! refusals, one poisoned root gossip) runs against a 4-replica Kafka
//! cluster and must land on the *same final roots* as a no-fault run of
//! the same seed, with the never-faulted observer committing throughout
//! and the poisoned replica self-quarantining and re-syncing.
//!
//! **Leg 2 — graceful degradation under overload (figure 25).** An
//! offered-load sweep pushes a 4-tenant cluster far past saturation with
//! a hot tenant, per-tenant admission quotas, and client retry/backoff
//! enabled. Goodput must not collapse past the knee, and the quota must
//! keep every well-behaved tenant within 10% of its fair share of
//! sealed transactions.
//!
//! Artifact: `EXPERIMENTS-results/fig25_overload.json`
//! (schema `harmonybc-fig25/v1`, checked by
//! `crates/bench/tests/bench_schema.rs` and uploaded by CI's
//! chaos-smoke step).

use std::fmt::Write as _;

use harmony_chain::ChainConfig;
use harmony_common::Result;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEffect, FaultEvent, FaultSchedule,
    FaultScope, LinkFault, MempoolConfig, OrderingMode, ReplicaConfig, RetryPolicy,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};

use crate::{f2, write_artifact};

const PARTITIONS: u32 = 16;
const TENANTS: usize = 4;
const MS: u64 = 1_000_000;

fn base_config() -> ClusterConfig {
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
            gossip_every: 2,
        },
        topology: None,
        workload: ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 400,
            theta: 0.6,
            partitions: u64::from(PARTITIONS),
            multi_partition_ratio: 0.2,
        }),
        ordering: OrderingMode::Kafka { brokers: 3 },
        mempool: MempoolConfig {
            capacity: 1_024,
            ..MempoolConfig::default()
        },
        open_loop: OpenLoopConfig {
            clients: 8,
            rate_tps: 30_000.0,
            hot_share: 0.0,
        },
        load_ns: 20_000_000,
        drain_ns: 600_000_000,
        block_txns: 24,
        batch_interval_ns: 500_000,
        window: 4,
        seed: 0xC4A05,
        ..ClusterConfig::default()
    }
}

/// Leg 1: the fixed chaos schedule must converge on the no-fault roots.
fn chaos_leg() -> Result<(ClusterReport, bool)> {
    let reference = Cluster::new(base_config()).run()?;
    assert!(reference.consistent, "reference run diverged");

    let mut cfg = base_config();
    cfg.faults = FaultSchedule::new(vec![
        FaultEvent::Crash {
            replica: 2,
            at_ns: 4 * MS,
            recover_at_ns: 10 * MS,
        },
        // Replica 1 partitioned.
        FaultEvent::Link(LinkFault {
            from_ns: 3 * MS,
            until_ns: 6 * MS,
            scope: FaultScope::Node(1),
            effect: FaultEffect::Drop { per_mille: 1000 },
        }),
        // A lossy link 0 → 3.
        FaultEvent::Link(LinkFault {
            from_ns: 2 * MS,
            until_ns: 7 * MS,
            scope: FaultScope::Directed { from: 0, to: 3 },
            effect: FaultEffect::Drop { per_mille: 600 },
        }),
        // Replica 0 refuses to serve sync while the poisoned replica
        // re-syncs, so the quarantine recovery has to fail over.
        FaultEvent::SyncRefusal {
            replica: 0,
            from_ns: 9 * MS,
            until_ns: 30 * MS,
        },
        // Poisoned once every replica is healthy again: a quorum of
        // peers must dispute the root for self-quarantine to trigger.
        FaultEvent::PoisonRoot {
            replica: 3,
            at_ns: 12 * MS,
        },
    ]);
    let chaos = Cluster::new(cfg).run()?;

    assert!(
        chaos.metrics.stats.committed > 0,
        "observer starved under chaos"
    );
    assert!(chaos.consistent, "chaos run diverged");
    for (c, r) in chaos.replicas.iter().zip(&reference.replicas) {
        assert_eq!(
            c.root, r.root,
            "replica {} root diverged from the no-fault reference",
            c.replica
        );
    }
    assert_eq!(chaos.replicas[2].recoveries, 1, "crash cycle did not run");
    assert!(
        chaos.replicas[3].quarantines >= 1,
        "poisoned replica never self-quarantined"
    );
    assert!(
        chaos.divergence_alarms > 0,
        "poisoned gossip raised no alarms"
    );
    let roots_identical = chaos
        .replicas
        .iter()
        .zip(&reference.replicas)
        .all(|(c, r)| c.root == r.root);
    Ok((chaos, roots_identical))
}

struct OverloadPoint {
    offered_tps: f64,
    report: ClusterReport,
}

/// Leg 2: offered-load sweep past saturation with a hot tenant, quotas,
/// and client retry enabled.
fn overload_sweep() -> Result<Vec<OverloadPoint>> {
    let mut points = Vec::new();
    for offered in [20_000.0, 40_000.0, 80_000.0, 160_000.0, 320_000.0] {
        let mut cfg = base_config();
        cfg.mempool = MempoolConfig {
            capacity: 1_024,
            tenants: TENANTS,
            tenant_quota: Some(1_024 / TENANTS),
        };
        // 12 cold clients — three per tenant by `client % tenants` — plus
        // the hot client 0, which concentrates 40% of all arrivals on
        // tenant 0.
        cfg.open_loop = OpenLoopConfig {
            clients: 13,
            rate_tps: offered,
            hot_share: 0.4,
        };
        // Client-side retry with a tight budget: resubmissions resolve
        // within a few ms of the load window, so throughput (committed
        // over the last-commit instant) measures sealing capacity, not
        // a straggler's backoff tail.
        cfg.client_retry = Some(RetryPolicy {
            base_timeout_ns: 500_000,
            max_backoff_ns: 2_000_000,
            max_retries: 3,
        });
        let report = Cluster::new(cfg).run()?;
        assert!(report.consistent, "overload run diverged at {offered} tps");
        points.push(OverloadPoint {
            offered_tps: offered,
            report,
        });
    }

    // Graceful degradation: the deepest-overload point keeps at least
    // 70% of the peak goodput instead of collapsing.
    let peak = points
        .iter()
        .map(|p| p.report.metrics.throughput_tps)
        .fold(0.0, f64::max);
    let deepest = points.last().unwrap();
    assert!(
        deepest.report.metrics.throughput_tps >= 0.7 * peak,
        "goodput collapsed past saturation: {:.0} tps vs peak {:.0} tps",
        deepest.report.metrics.throughput_tps,
        peak
    );
    // The overload machinery actually engaged.
    assert!(
        deepest.report.mempool.rejected_tenant_quota > 0,
        "hot tenant never hit its quota"
    );
    assert!(
        deepest.report.client_retries > 0,
        "clients never retried a reject"
    );
    // Quota isolation: each well-behaved tenant (1..3 — tenant 0 holds
    // the hot client) seals within 10% of the well-behaved mean.
    let cold: Vec<u64> = deepest.report.tenant_sealed[1..].to_vec();
    let mean = cold.iter().sum::<u64>() as f64 / cold.len() as f64;
    for (i, &sealed) in cold.iter().enumerate() {
        let dev = (sealed as f64 - mean).abs() / mean;
        assert!(
            dev <= 0.10,
            "tenant {} sealed {sealed} txns, {:.1}% off the fair share {mean:.0}",
            i + 1,
            dev * 100.0
        );
    }
    Ok(points)
}

/// Run both legs. The artifact keeps its figure name,
/// `fig25_overload.json`, which the schema test reads.
pub(crate) fn chaos_smoke(_name: &str) -> Result<()> {
    let (chaos, roots_identical) = chaos_leg()?;
    println!(
        "chaos leg OK: roots identical, observer committed {}, \
         recoveries {}, quarantines {}, sync retries {}, alarms {}",
        chaos.metrics.stats.committed,
        chaos.replicas.iter().map(|r| r.recoveries).sum::<u64>(),
        chaos.quarantines,
        chaos.replicas.iter().map(|r| r.sync_retries).sum::<u64>(),
        chaos.divergence_alarms,
    );

    let points = overload_sweep()?;
    println!("\noffered_tps goodput_tps latency_ms quota_rejects retries tenant_sealed");
    for p in &points {
        println!(
            "{:>11} {:>11} {:>10} {:>13} {:>7} {:?}",
            f2(p.offered_tps),
            f2(p.report.metrics.throughput_tps),
            f2(p.report.metrics.latency_ms),
            p.report.mempool.rejected_tenant_quota,
            p.report.client_retries,
            p.report.tenant_sealed,
        );
    }

    // JSON artifact for CI (schema: harmonybc-fig25/v1).
    let mut json = String::from("{\n  \"schema\": \"harmonybc-fig25/v1\",\n");
    let _ = writeln!(
        json,
        "  \"chaos\": {{\"roots_identical\": {}, \"observer_committed\": {}, \
         \"recoveries\": {}, \"quarantines\": {}, \"sync_retries\": {}, \
         \"divergence_alarms\": {}}},",
        roots_identical,
        chaos.metrics.stats.committed,
        chaos.replicas.iter().map(|r| r.recoveries).sum::<u64>(),
        chaos.quarantines,
        chaos.replicas.iter().map(|r| r.sync_retries).sum::<u64>(),
        chaos.divergence_alarms,
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let tenants = p
            .report
            .tenant_sealed
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"offered_tps\": {:.2}, \"goodput_tps\": {:.2}, \"latency_ms\": {:.3}, \
             \"admitted\": {}, \"rejected_backpressure\": {}, \"rejected_quota\": {}, \
             \"client_retries\": {}, \"retry_drops\": {}, \"tenant_sealed\": [{}]}}{}",
            p.offered_tps,
            p.report.metrics.throughput_tps,
            p.report.metrics.latency_ms,
            p.report.mempool.admitted,
            p.report.mempool.rejected_backpressure,
            p.report.mempool.rejected_tenant_quota,
            p.report.client_retries,
            p.report.client_retry_drops,
            tenants,
            if i + 1 == points.len() { "\n" } else { ",\n" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = write_artifact("fig25_overload.json", &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
