//! Chaos property tests: random multi-fault schedules against the full
//! cluster, flat and sharded, across engines.
//!
//! Fault scopes are restricted to replica-side behavior (crash cycles,
//! link faults of every scope × effect pair — partitions and lossy
//! hosts, node-wide and one-way drop/duplication/delay windows —
//! sync-serve refusals, root poisoning) under **Kafka** ordering, where
//! replicas never feed back into sealing. The sealed block stream of a
//! faulted run is therefore identical to the no-fault run on the same
//! seed, and two properties must hold however nasty the schedule:
//!
//! * **Safety** — after recovery, every replica's final root is
//!   bit-identical to the no-fault reference run's.
//! * **Liveness** — the never-faulted observer (replica 0) keeps
//!   committing throughout.
//!
//! A third check pins **determinism**: the same chaos config run twice
//! produces byte-identical metric timelines.

use harmony_chain::ChainConfig;
use harmony_core::HarmonyConfig;
use harmony_crypto::CryptoCost;
use harmony_node::{
    Cluster, ClusterConfig, ClusterReport, ClusterWorkload, FaultEffect, FaultEvent, FaultSchedule,
    FaultScope, LinkFault, MempoolConfig, OrderingMode, ReplicaConfig, ShardTopology,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};
use proptest::prelude::*;

const PARTITIONS: u32 = 16;
const LOAD_NS: u64 = 10_000_000;
const MS: u64 = 1_000_000;

fn engines() -> [EngineKind; 3] {
    [
        EngineKind::Harmony(HarmonyConfig::default()),
        EngineKind::Aria,
        EngineKind::Fabric,
    ]
}

fn run_cluster(
    engine: EngineKind,
    sharded: bool,
    seed: u64,
    faults: FaultSchedule,
) -> ClusterReport {
    Cluster::new(ClusterConfig {
        replicas: 4,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::memory(),
                crypto: CryptoCost::free(),
                checkpoint_every: 3,
                ..ChainConfig::default()
            },
            engine,
            workers: 2,
            gossip_every: 2,
        },
        topology: sharded.then_some(ShardTopology {
            shards: 2,
            partitions: PARTITIONS,
            partitioning: None,
            checkpoint_stagger: 2,
        }),
        workload: ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 300,
            theta: 0.6,
            partitions: u64::from(PARTITIONS),
            multi_partition_ratio: 0.25,
        }),
        ordering: OrderingMode::Kafka { brokers: 3 },
        faults,
        mempool: MempoolConfig::default(),
        open_loop: OpenLoopConfig {
            clients: 6,
            rate_tps: 30_000.0,
            hot_share: 0.0,
        },
        load_ns: LOAD_NS,
        drain_ns: 600_000_000,
        block_txns: 20,
        batch_interval_ns: 500_000,
        window: 4,
        seed,
        ..ClusterConfig::default()
    })
    .run()
    .unwrap()
}

fn link(at_ms: u64, dur_ms: u64, scope: FaultScope, effect: FaultEffect) -> FaultEvent {
    FaultEvent::Link(LinkFault {
        from_ns: at_ms * MS,
        until_ns: (at_ms + dur_ms) * MS,
        scope,
        effect,
    })
}

/// The directed link from replica `a` to the replica `d` places after
/// it (`d` in 1..4), so never a self-link.
fn directed(a: usize, d: usize) -> FaultScope {
    FaultScope::Directed {
        from: a,
        to: (a + d) % 4,
    }
}

/// One random fault schedule, valid for 4 replicas by construction:
/// replica 0 is kept health-fault-free (the observer every liveness
/// assertion leans on), so crashes, poisoning and node-scope drops
/// (a full partition or a lossy host) land on replicas 1–3; the two
/// optional crash cycles land on distinct replicas (so they cannot
/// overlap), and links are never self-links. Every other scope × effect
/// pair — a node-scope duplicate or delay, and a directed drop,
/// duplicate or delay — may touch any replica, the observer included.
fn schedule_strategy() -> impl Strategy<Value = FaultSchedule> {
    let crash_a = prop::option::of((1usize..3, 2u64..8, 2u64..6));
    let crash_b = prop::option::of((2u64..8, 2u64..6));
    let partition = prop::option::of((1usize..4, 2u64..8, 2u64..5));
    let lossy_node = prop::option::of((1usize..4, 1u64..8, 1u64..5, 200u16..1001));
    let drops = prop::option::of((0usize..4, 1usize..4, 1u64..8, 1u64..5, 200u16..1001));
    let dup = prop::option::of((
        0usize..4,
        1usize..4,
        1u64..8,
        1u64..5,
        200u16..1001,
        50u64..500,
    ));
    let node_dup = prop::option::of((0usize..4, 1u64..8, 1u64..5, 200u16..1001, 50u64..500));
    let delay = prop::option::of((0usize..4, 1u64..8, 1u64..5, 100u64..2_000));
    let link_delay = prop::option::of((0usize..4, 1usize..4, 1u64..8, 1u64..5, 100u64..2_000));
    let refusal = prop::option::of((0usize..4, 1u64..8, 2u64..20));
    let poison = prop::option::of((1usize..4, 3u64..8));

    (
        (crash_a, crash_b, partition, lossy_node),
        (drops, dup, node_dup, delay, link_delay),
        (refusal, poison),
    )
        .prop_map(
            |(
                (crash_a, crash_b, partition, lossy_node),
                (drops, dup, node_dup, delay, link_delay),
                (refusal, poison),
            )| {
                let mut events = Vec::new();
                if let Some((r, at_ms, down_ms)) = crash_a {
                    events.push(FaultEvent::Crash {
                        replica: r,
                        at_ns: at_ms * MS,
                        recover_at_ns: (at_ms + down_ms) * MS,
                    });
                }
                if let Some((at_ms, down_ms)) = crash_b {
                    events.push(FaultEvent::Crash {
                        replica: 3,
                        at_ns: at_ms * MS,
                        recover_at_ns: (at_ms + down_ms) * MS,
                    });
                }
                if let Some((r, at_ms, dur_ms)) = partition {
                    let effect = FaultEffect::Drop { per_mille: 1000 };
                    events.push(link(at_ms, dur_ms, FaultScope::Node(r), effect));
                }
                if let Some((r, at_ms, dur_ms, per_mille)) = lossy_node {
                    let effect = FaultEffect::Drop { per_mille };
                    events.push(link(at_ms, dur_ms, FaultScope::Node(r), effect));
                }
                if let Some((a, d, at_ms, dur_ms, per_mille)) = drops {
                    let effect = FaultEffect::Drop { per_mille };
                    events.push(link(at_ms, dur_ms, directed(a, d), effect));
                }
                if let Some((a, d, at_ms, dur_ms, per_mille, echo_us)) = dup {
                    let effect = FaultEffect::Duplicate {
                        per_mille,
                        echo_delay_ns: echo_us * 1_000,
                    };
                    events.push(link(at_ms, dur_ms, directed(a, d), effect));
                }
                if let Some((r, at_ms, dur_ms, per_mille, echo_us)) = node_dup {
                    let effect = FaultEffect::Duplicate {
                        per_mille,
                        echo_delay_ns: echo_us * 1_000,
                    };
                    events.push(link(at_ms, dur_ms, FaultScope::Node(r), effect));
                }
                if let Some((r, at_ms, dur_ms, extra_us)) = delay {
                    let effect = FaultEffect::Delay {
                        extra_ns: extra_us * 1_000,
                    };
                    events.push(link(at_ms, dur_ms, FaultScope::Node(r), effect));
                }
                if let Some((a, d, at_ms, dur_ms, extra_us)) = link_delay {
                    let effect = FaultEffect::Delay {
                        extra_ns: extra_us * 1_000,
                    };
                    events.push(link(at_ms, dur_ms, directed(a, d), effect));
                }
                if let Some((r, at_ms, dur_ms)) = refusal {
                    events.push(FaultEvent::SyncRefusal {
                        replica: r,
                        from_ns: at_ms * MS,
                        until_ns: (at_ms + dur_ms) * MS,
                    });
                }
                if let Some((r, at_ms)) = poison {
                    events.push(FaultEvent::PoisonRoot {
                        replica: r,
                        at_ns: at_ms * MS,
                    });
                }
                FaultSchedule::new(events)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random fault schedules never change the committed state, and the
    /// observer keeps committing, on flat and sharded topologies across
    /// engines.
    #[test]
    fn chaos_runs_converge_on_the_no_fault_reference(
        seed in 0u64..1_000_000,
        schedule in schedule_strategy(),
    ) {
        prop_assert!(schedule.validate(4).is_ok(), "generator made an invalid schedule");
        let poisoned = !schedule.poison_events().is_empty();
        for engine in engines() {
            for sharded in [false, true] {
                let label = format!(
                    "{} sharded={sharded} seed={seed} faults={:?}",
                    engine.name(),
                    schedule.events
                );
                let reference = run_cluster(engine, sharded, seed, FaultSchedule::default());
                prop_assert!(reference.consistent, "reference diverged: {}", label);
                let chaos = run_cluster(engine, sharded, seed, schedule.clone());
                // Liveness: the never-faulted observer kept committing.
                prop_assert!(
                    chaos.metrics.stats.committed > 0,
                    "observer starved: {}",
                    label
                );
                // Safety: full convergence on the no-fault state.
                prop_assert!(chaos.consistent, "chaos run diverged: {}", label);
                for (c, r) in chaos.replicas.iter().zip(&reference.replicas) {
                    prop_assert_eq!(
                        c.root, r.root,
                        "replica {} root diverged from reference: {}",
                        c.replica, &label
                    );
                    prop_assert_eq!(
                        c.height, r.height,
                        "replica {} stopped short: {}",
                        c.replica, &label
                    );
                }
                // Alarms only ever come from injected root poisoning.
                if !poisoned {
                    prop_assert_eq!(chaos.divergence_alarms, 0, "spurious alarms: {}", &label);
                }
            }
        }
    }

    /// The same chaos schedule run twice is byte-identical — fault
    /// injection lives inside the deterministic simulation.
    #[test]
    fn chaos_runs_are_deterministic(
        seed in 0u64..1_000_000,
        schedule in schedule_strategy(),
    ) {
        let engine = EngineKind::Harmony(HarmonyConfig::default());
        let a = run_cluster(engine, false, seed, schedule.clone());
        let b = run_cluster(engine, false, seed, schedule);
        prop_assert_eq!(a.timeline, b.timeline, "timelines diverged across reruns");
        prop_assert_eq!(a.exposition, b.exposition, "expositions diverged across reruns");
    }
}
