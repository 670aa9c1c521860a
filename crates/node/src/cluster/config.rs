//! What a cluster run is told: the workload, the ordering style, the
//! replica topology, and every scenario knob — checked by
//! [`ClusterConfig::validate`] before anything is built.

use std::sync::Arc;

use harmony_common::{Error, Result};
use harmony_consensus::net::LatencyModel;
use harmony_shard::Partitioning;
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_txn::ContractCodec;
use harmony_workloads::{
    OpenLoopConfig, Smallbank, SmallbankConfig, Tpcc, TpccConfig, Workload, Ycsb, YcsbConfig,
};

use crate::fault::{FaultSchedule, ReshardSchedule};
use crate::mempool::MempoolConfig;
use crate::replica::ReplicaConfig;
use crate::sharded::check_layout;
use crate::statesync::RetryPolicy;

/// Workload selector for a cluster run (workload + its contract codec).
#[derive(Clone, Debug)]
pub enum ClusterWorkload {
    /// Smallbank with the given configuration.
    Smallbank(SmallbankConfig),
    /// YCSB with the given configuration.
    Ycsb(YcsbConfig),
    /// TPC-C full mix with the given configuration.
    Tpcc(TpccConfig),
}

impl ClusterWorkload {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ClusterWorkload::Smallbank(_) => "Smallbank",
            ClusterWorkload::Ycsb(_) => "YCSB",
            ClusterWorkload::Tpcc(_) => "TPC-C",
        }
    }

    /// A fresh instance of the workload (no table ids recorded yet) — the
    /// one place any workload is constructed.
    #[must_use]
    pub fn instantiate(&self) -> Box<dyn Workload> {
        match self {
            ClusterWorkload::Smallbank(c) => Box::new(Smallbank::new(c.clone())),
            ClusterWorkload::Ycsb(c) => Box::new(Ycsb::new(c.clone())),
            ClusterWorkload::Tpcc(c) => Box::new(Tpcc::new(c.clone())),
        }
    }

    /// The workload with its tables created, empty, on a scratch engine:
    /// table ids follow from the order tables are created in, so these are
    /// the ids every node's genesis load gives.
    fn with_table_ids(&self) -> Result<Box<dyn Workload>> {
        let mut workload = self.instantiate();
        workload.create_tables(&StorageEngine::open(&StorageConfig::memory())?)?;
        Ok(workload)
    }

    /// Load genesis state into a replica's engine and return the codec
    /// that decodes this workload's contracts.
    pub fn setup_node(&self, engine: &Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>> {
        let mut workload = self.instantiate();
        workload.setup(engine)?;
        Ok(workload.codec())
    }

    /// The workload's contract codec alone, without loading a row. Every
    /// process of a real-transport cluster decodes frames with it — the
    /// orderer without hosting a replica at all.
    pub fn codec(&self) -> Result<Arc<dyn ContractCodec>> {
        Ok(self.with_table_ids()?.codec())
    }

    /// Tables a sharded deployment should replicate in full on every
    /// shard: read-only dimension tables, never written after genesis.
    /// TPC-C's `item` price list is the canonical case — replicating it
    /// keeps NewOrder's price lookups shard-local, so a warehouse-local
    /// order needs no cross-shard round at all.
    #[must_use]
    pub fn replicated_tables(&self) -> Vec<String> {
        match self {
            ClusterWorkload::Tpcc(_) => vec!["item".to_string()],
            ClusterWorkload::Smallbank(_) | ClusterWorkload::Ycsb(_) => Vec::new(),
        }
    }

    /// The partitioning function a sharded deployment of this workload
    /// should run: entity-prefix for TPC-C (composite keys share their
    /// warehouse's leading 8 bytes, making declared NewOrder/Payment
    /// footprints single-shard), whole-row hash for the 8-byte-key
    /// workloads — where the two are bit-identical anyway.
    #[must_use]
    pub fn recommended_partitioning(&self) -> Partitioning {
        match self {
            ClusterWorkload::Tpcc(_) => Partitioning::Prefix,
            ClusterWorkload::Smallbank(_) | ClusterWorkload::Ycsb(_) => Partitioning::Hash,
        }
    }

    /// A transaction generator for the client bank. Generating reads only
    /// the table ids, so no genesis is loaded.
    pub fn generator(&self) -> Result<Box<dyn Workload>> {
        self.with_table_ids()
    }
}

/// How the ordering service reaches agreement before delivering.
#[derive(Clone, Copy, Debug)]
pub enum OrderingMode {
    /// Crash-fault-tolerant leader + follower brokers, majority ack.
    Kafka {
        /// Replication factor (leader + followers).
        brokers: usize,
    },
    /// BFT: the replicas themselves vote in three chained rounds.
    HotStuff,
}

/// Sharded-execution topology of every replica: M shards over a fixed
/// logical partition count. `None` in [`ClusterConfig::topology`] keeps
/// the flat single-engine replica.
#[derive(Clone, Copy, Debug)]
pub struct ShardTopology {
    /// Physical shards hosted by every replica.
    pub shards: usize,
    /// Logical partitions (fixed across shard counts, so every commit
    /// decision is shard-count-invariant). Should match the workload's
    /// `partitions` knob.
    pub partitions: u32,
    /// Partitioning-function override. `None` (the default) uses
    /// [`ClusterWorkload::recommended_partitioning`] — entity-prefix
    /// for TPC-C, whole-row hash otherwise. Must be identical on every
    /// replica of a chain.
    pub partitioning: Option<Partitioning>,
    /// Per-shard checkpoint-period stagger (see
    /// [`crate::ShardedReplicaConfig::checkpoint_stagger`]).
    pub checkpoint_stagger: u64,
}

impl Default for ShardTopology {
    fn default() -> Self {
        ShardTopology {
            shards: 4,
            partitions: 16,
            partitioning: None,
            checkpoint_stagger: 0,
        }
    }
}

/// Cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replicas.
    pub replicas: usize,
    /// Per-replica configuration (engine, workers, chain, gossip).
    pub replica: ReplicaConfig,
    /// Sharded execution topology: `Some` makes every replica a
    /// [`crate::ShardedReplicaNode`] with M shards (N×M deployment), `None`
    /// keeps flat replicas.
    pub topology: Option<ShardTopology>,
    /// The workload and its codec.
    pub workload: ClusterWorkload,
    /// Ordering service style.
    pub ordering: OrderingMode,
    /// Network model.
    pub latency: LatencyModel,
    /// Mempool admission bounds.
    pub mempool: MempoolConfig,
    /// Open-loop client arrival process.
    pub open_loop: OpenLoopConfig,
    /// Arrivals stop after this much virtual time.
    pub load_ns: u64,
    /// Extra virtual time to drain the pipeline.
    pub drain_ns: u64,
    /// Transactions per sealed block (batch ceiling).
    pub block_txns: usize,
    /// Batching tick interval.
    pub batch_interval_ns: u64,
    /// Seal a full block the moment the mempool reaches `block_txns`
    /// instead of waiting for the next batch tick. Off by default — the
    /// default discipline's event schedule stays bit-identical to every
    /// pinned run. Combined with a batch interval longer than the run,
    /// sealing becomes purely count-driven: the block stream is a pure
    /// function of the admitted submission sequence, independent of
    /// arrival pacing — which is how a wall-clock TCP cluster and the
    /// virtual-time simulator are proven to commit identical state roots.
    pub eager_seal: bool,
    /// Max unacknowledged blocks in the ordering pipeline.
    pub window: usize,
    /// Fault-injection schedule. Empty = healthy run: none of the chaos
    /// machinery (watchdog timers, sync timeouts, net-fault table) is
    /// armed, so the event schedule is bit-identical to a build without
    /// the chaos plane.
    pub faults: FaultSchedule,
    /// Scheduled topology changes (live shard split/merge). Empty =
    /// static topology: the orderer never consults the queue and the
    /// sealed stream is bit-identical to a build without elastic
    /// resharding. Requires a sharded `topology`.
    pub reshards: ReshardSchedule,
    /// State-sync timeout/retry/backoff/failover policy (active on
    /// fault runs only).
    pub sync_retry: RetryPolicy,
    /// Client resubmission policy for retryable admission rejects
    /// (backpressure, tenant quota, nonce gap). `None` disables
    /// resubmission — rejected transactions are simply lost, the
    /// pre-chaos behavior.
    pub client_retry: Option<RetryPolicy>,
    /// Metric-timeline snapshot interval (virtual ns). Snapshots are
    /// taken in virtual time, so same-seed runs produce byte-identical
    /// timelines.
    pub metrics_every_ns: u64,
    /// Simulation seed (network jitter + client stream).
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 4,
            replica: ReplicaConfig::default(),
            topology: None,
            workload: ClusterWorkload::Smallbank(SmallbankConfig {
                accounts: 1_000,
                theta: 0.6,
                ..SmallbankConfig::default()
            }),
            ordering: OrderingMode::Kafka { brokers: 3 },
            latency: LatencyModel::lan_1g(),
            mempool: MempoolConfig::default(),
            open_loop: OpenLoopConfig::default(),
            load_ns: 40_000_000,
            drain_ns: 400_000_000,
            block_txns: 32,
            batch_interval_ns: 500_000,
            eager_seal: false,
            window: 4,
            faults: FaultSchedule::default(),
            reshards: ReshardSchedule::default(),
            sync_retry: RetryPolicy::default(),
            client_retry: None,
            metrics_every_ns: 5_000_000,
            seed: 0xC10C,
        }
    }
}

impl ClusterConfig {
    /// Check the configuration before running: sane shape parameters (≥ 1
    /// replica, ≥ 1 worker per replica, …), a shard topology a replica can host (≥ 1 shard, ≥ 1 partition, no
    /// more shards than partitions — the rule every reshard target
    /// meets too), and a well-formed fault schedule (indices in range,
    /// windows ordered, non-overlapping crash cycles, an observer left
    /// standing).
    /// [`super::Cluster::run`] calls this; harnesses building schedules
    /// programmatically can call it early for a better error site.
    pub fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(Error::InvalidArgument("cluster needs ≥ 1 replica".into()));
        }
        if self.replica.workers == 0 {
            return Err(Error::InvalidArgument("a replica needs ≥ 1 worker".into()));
        }
        if let Some(topology) = self.topology {
            check_layout(topology.shards, topology.partitions as usize)?;
        }
        if !self.reshards.is_empty() {
            let Some(topology) = self.topology else {
                return Err(Error::InvalidArgument(
                    "reshard schedule requires a sharded topology".into(),
                ));
            };
            self.reshards.validate(topology.partitions as usize)?;
        }
        self.faults.validate(self.replicas)
    }

    /// Human-readable system label (engine × replicas × shards ×
    /// ordering) used by reports and metric timelines.
    pub(super) fn system_label(&self) -> String {
        format!(
            "{}·node×{}{}{}",
            self.replica.engine.name(),
            self.replicas,
            match self.topology {
                Some(t) => format!("×{}shards", t.shards),
                None => String::new(),
            },
            match self.ordering {
                OrderingMode::Kafka { .. } => "·kafka",
                OrderingMode::HotStuff => "·hotstuff",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sharded cluster with `shards` shards over `partitions` logical
    /// partitions.
    fn sharded(shards: usize, partitions: u32) -> ClusterConfig {
        ClusterConfig {
            topology: Some(ShardTopology {
                shards,
                partitions,
                ..ShardTopology::default()
            }),
            ..ClusterConfig::default()
        }
    }

    fn refused(cfg: &ClusterConfig) -> bool {
        matches!(cfg.validate(), Err(Error::InvalidArgument(_)))
    }

    #[test]
    fn hostable_topologies_pass() {
        sharded(1, 1).validate().unwrap();
        sharded(16, 16).validate().unwrap();
        ClusterConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_workers_are_refused() {
        let mut cfg = ClusterConfig::default();
        cfg.replica.workers = 0;
        assert!(refused(&cfg));
    }

    #[test]
    fn zero_shards_are_refused() {
        assert!(refused(&sharded(0, 16)));
    }

    #[test]
    fn zero_partitions_are_refused() {
        assert!(refused(&sharded(1, 0)));
    }

    #[test]
    fn more_shards_than_partitions_are_refused() {
        assert!(refused(&sharded(17, 16)));
    }
}
