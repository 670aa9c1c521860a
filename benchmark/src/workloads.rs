//! The four workloads: cluster shape, fixed load constants, and the
//! properties each one asserts about its own inputs.
//!
//! Each stresses a different layer, and for each optimisation one of
//! them bypasses its mechanism (see `README.md` for the table).

use harmony_chain::ChainConfig;
use harmony_node::{
    load_ns_for_txns, ClusterConfig, ClusterWorkload, MempoolConfig, OrderingMode, ReplicaConfig,
    RetryPolicy, ShardTopology,
};
use harmony_storage::{EvictionPolicy, StorageConfig};
use harmony_workloads::{OpenLoopConfig, SmallbankConfig, YcsbConfig};

/// Episodes per run; a timed metric's value is the best of them.
pub const EPISODES: usize = 5;
/// Share of a run's measured seconds spent in the saturation phase.
const SAT_SHARE: f64 = 0.5;
/// Blocks submitted after the crash in the fault leg.
pub const FAULT_BLOCKS: usize = 20;
/// Logical partitions of the sharded workload.
const PARTITIONS: u32 = 16;

/// One benchmark workload.
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    workload: ClusterWorkload,
    pub replicas: usize,
    /// Shards per replica; 0 keeps flat replicas.
    pub shards: usize,
    pub hotstuff: bool,
    pub block_txns: usize,
    workers: usize,
    /// Buffer-pool pages per engine.
    pub buffer_pages: usize,
    eviction: EvictionPolicy,
    /// Open-loop arrival rate of the paced phase, txn/s: about half the
    /// saturation throughput measured on the reference host when the
    /// benchmark was written. A constant, never derived at run time, so
    /// the paced load is the same before and after any change.
    pub paced_tps: f64,
    /// Transactions the cluster orders per second at saturation on the
    /// reference host, less a margin; sizes the saturation phase's block
    /// count (about 1.4 s an episode on every workload) and nothing else.
    sat_tps_nominal: f64,
    /// Pause between observer polls in the saturation phase.
    pub sat_poll_us: u64,
    /// Pause between observer polls in the paced phase.
    pub paced_poll_us: u64,
    /// The paced-phase observer follows every this-many-th block, so that
    /// polling a replica that applies hundreds of blocks a second stays
    /// under a hundredth of a core.
    pub watch_every: usize,
    /// Whether the last episode ends with the crash/rejoin leg.
    pub fault_leg: bool,
    /// Whether no transaction writes: nothing can abort, nothing folds.
    pub read_only: bool,
}

/// Fixed transaction counts of one episode, in blocks.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub episodes: usize,
    pub sat_blocks: usize,
    pub paced_blocks: usize,
    pub fault_blocks: usize,
}

impl Sizes {
    /// Blocks of one episode's stream: warm-up, both phases, fault leg.
    pub fn total_blocks(&self) -> usize {
        1 + self.sat_blocks + self.paced_blocks + self.fault_blocks
    }
}

impl Spec {
    /// Work per episode for a run that measures `seconds` in total. Work
    /// is a transaction count fixed by the argument alone, so the block
    /// stream is a pure function of `(seed, seconds)`.
    pub fn sizes(&self, seconds: u64, quick: bool) -> Sizes {
        let episodes = if quick { 1 } else { EPISODES };
        let per_episode = seconds as f64 / episodes as f64;
        let blocks = |tps: f64, share: f64| {
            ((tps * per_episode * share / self.block_txns as f64).round() as usize).max(4)
        };
        Sizes {
            episodes,
            sat_blocks: blocks(self.sat_tps_nominal, SAT_SHARE),
            paced_blocks: blocks(self.paced_tps, 1.0 - SAT_SHARE),
            fault_blocks: if self.fault_leg { FAULT_BLOCKS } else { 0 },
        }
    }

    /// The configuration every node of the cluster (and the twin) runs.
    /// Sealing is count-driven and there is one client session, so the
    /// block stream does not depend on arrival timing.
    pub fn cluster_config(&self, seed: u64, total_txns: usize) -> ClusterConfig {
        let open_loop = OpenLoopConfig {
            clients: 1,
            rate_tps: self.paced_tps,
            hot_share: 0.0,
        };
        ClusterConfig {
            replicas: self.replicas,
            replica: ReplicaConfig {
                chain: ChainConfig {
                    storage: StorageConfig {
                        buffer_pages: self.buffer_pages,
                        eviction: self.eviction,
                        ..StorageConfig::memory()
                    },
                    ..ChainConfig::in_memory()
                },
                workers: self.workers,
                ..ReplicaConfig::default()
            },
            topology: (self.shards > 0).then_some(ShardTopology {
                shards: self.shards,
                partitions: PARTITIONS,
                partitioning: None,
                checkpoint_stagger: 0,
            }),
            workload: self.workload.clone(),
            ordering: if self.hotstuff {
                OrderingMode::HotStuff
            } else {
                OrderingMode::Kafka { brokers: 1 }
            },
            mempool: MempoolConfig {
                capacity: total_txns.max(MempoolConfig::default().capacity),
                ..MempoolConfig::default()
            },
            open_loop,
            load_ns: load_ns_for_txns(open_loop, seed, total_txns),
            block_txns: self.block_txns,
            // Count-driven sealing: the batch tick never fires in a run.
            batch_interval_ns: 1 << 50,
            eager_seal: true,
            // Writers retry a refused connect after this back-off; the
            // default 4–64 ms would put start-order luck into `setup_s`.
            sync_retry: RetryPolicy {
                base_timeout_ns: 500_000,
                max_backoff_ns: 2_000_000,
                ..RetryPolicy::default()
            },
            // One wall-clock timeline snapshot a second, not 200.
            metrics_every_ns: 1_000_000_000,
            seed,
            ..ClusterConfig::default()
        }
    }
}

/// The four workloads, in reporting order.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "smallbank-cached",
            why: "Smallbank paper defaults, state fits pool and overlay: executor, root fold and crypto do the work",
            workload: ClusterWorkload::Smallbank(SmallbankConfig::default()),
            replicas: 2,
            shards: 0,
            hotstuff: false,
            block_txns: 100,
            workers: 2,
            buffer_pages: StorageConfig::memory().buffer_pages,
            eviction: EvictionPolicy::NoSteal,
            paced_tps: 3_600.0,
            sat_tps_nominal: 7_200.0,
            sat_poll_us: 2_000,
            paced_poll_us: 500,
            watch_every: 1,
            fault_leg: false,
            read_only: false,
        },
        Spec {
            name: "smallbank-outofpool",
            why: "same mix, uniform keys, state 74x an 8-page Steal pool: misses, eviction and dirty write-back beside reads",
            workload: ClusterWorkload::Smallbank(SmallbankConfig {
                theta: 0.0,
                ..SmallbankConfig::default()
            }),
            replicas: 2,
            shards: 0,
            hotstuff: false,
            block_txns: 100,
            workers: 2,
            buffer_pages: 8,
            eviction: EvictionPolicy::Steal,
            paced_tps: 3_300.0,
            sat_tps_nominal: 6_600.0,
            sat_poll_us: 2_000,
            paced_poll_us: 500,
            watch_every: 1,
            fault_leg: false,
            read_only: false,
        },
        Spec {
            name: "ycsb-skew-sharded",
            why: "YCSB theta 0.9, 2 shards over 16 partitions, 20% multi-partition: planner, cross-shard decision, many aborts",
            workload: ClusterWorkload::Ycsb(YcsbConfig {
                theta: 0.9,
                partitions: u64::from(PARTITIONS),
                multi_partition_ratio: 0.2,
                ..YcsbConfig::default()
            }),
            replicas: 2,
            shards: 2,
            hotstuff: false,
            block_txns: 100,
            // A replica runs on one core (see `cluster::Nodes::start`). With 2
            // workers the planner's and both shards' stages each spawn a pair
            // of threads onto it: 10 % less throughput and one episode in
            // eight 15–25 % below the rest.
            workers: 1,
            buffer_pages: StorageConfig::memory().buffer_pages,
            eviction: EvictionPolicy::NoSteal,
            paced_tps: 1_100.0,
            sat_tps_nominal: 3_700.0,
            sat_poll_us: 40_000,
            paced_poll_us: 3_000,
            watch_every: 1,
            fault_leg: true,
            read_only: false,
        },
        Spec {
            name: "bft-tinytxn",
            why: "one read-only op per txn, HotStuff R=4, 10-txn blocks: votes, frames, seal/verify and hand-offs, no execution",
            workload: ClusterWorkload::Ycsb(YcsbConfig {
                ops_per_txn: 1,
                read_ratio: 1.0,
                ..YcsbConfig::default()
            }),
            replicas: 4,
            shards: 0,
            hotstuff: true,
            block_txns: 10,
            workers: 1,
            buffer_pages: StorageConfig::memory().buffer_pages,
            eviction: EvictionPolicy::NoSteal,
            paced_tps: 6_000.0,
            sat_tps_nominal: 13_000.0,
            sat_poll_us: 2_000,
            paced_poll_us: 100,
            watch_every: 4,
            fault_leg: false,
            read_only: true,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}
