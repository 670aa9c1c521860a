//! The cluster harness: a full Order-Execute deployment on the
//! deterministic discrete-event network.
//!
//! Node layout: one open-loop **client bank** (Poisson arrivals over N
//! sessions, per-session nonces), one **ordering service** (mempool
//! admission → deterministic batching → sealing → replication/voting →
//! delivery), optional Kafka follower brokers, and R **replicas**
//! applying sealed blocks in order — flat ([`crate::ReplicaNode`]) or,
//! when a [`ShardTopology`] is configured, a [`crate::ShardedReplicaNode`]
//! hosting M shards behind the same stream (an N×M deployment).
//!
//! # Module map — one file per role
//!
//! * [`config`] — what a run is told: [`ClusterConfig`] and `validate`.
//! * [`msg`] — what crosses a link: [`Msg`]; the timer ids.
//! * [`client`] — the client bank, and the replay of its submission
//!   stream for real-transport drivers ([`submission_trace`]).
//! * [`orderer`] — the ordering service and the follower broker.
//! * [`replica`] — [`ReplicaWrap`]: the replica node inside the
//!   up/down/syncing machine that keeps it caught up.
//! * [`report`] — what a run tells back: [`ClusterReport`], [`NodeStatus`].
//! * this file — [`ClusterLayout`]; [`ClusterNode`], whose handlers only
//!   dispatch to the role owning the logic; [`build_node`]; [`Cluster`].
//!
//! # Flat and sharded: what differs, what does not
//!
//! The driver does not know one replica kind from the other. Both embed
//! one ordered-delivery front ([`crate::DeliveryFront`]), both speak one
//! state-sync shape (see [`crate::statesync`]; a flat replica is the
//! one-chain case), and whatever follows from "the chains this replica
//! hosts" is written once. What stays apart is how a block is *applied*:
//! the flat replica runs the engine with the paper's inter-block
//! parallelism on one chain; the sharded one plans the block across
//! shards, seals a sub-block per shard and runs the engines' sharded
//! profile, which has no inter-block pipeline. Making flat "the 1-shard
//! case" would switch that feature off or move the same fork inside one
//! type, so the two `apply` cores — and with them the reported root, what
//! a crash loses and how a sync reply is installed — are the only places
//! the replica wrapper still dispatches on the kind.
//!
//! # Scenario hooks
//!
//! A [`crate::FaultSchedule`] (see [`crate::fault`]) injects typed faults
//! mid-run — crash/rejoin cycles, link faults (partitions, drops,
//! duplicates and delays, each a [`crate::LinkFault`] lowered onto the
//! deterministic net model), sync-serve refusals, and root poisoning.
//! Recovery is policy-driven: state-sync requests carry an epoch and time out
//! ([`crate::RetryPolicy`] — bounded retries, exponential backoff with
//! deterministic jitter, failover around a candidate ring), a liveness
//! watchdog (`WATCHDOG_NS`) re-arms catch-up on replicas that went quiet,
//! and a replica whose gossiped root a quorum (`QUARANTINE_QUORUM`) of
//! peers dispute self-quarantines, wipes, and re-syncs from scratch; both
//! are constants. On the client side, retryable admission rejects
//! (backpressure, tenant quota, nonce gaps) can be resubmitted with the
//! same backoff discipline, closing the overload loop end-to-end. All of
//! it is armed only when faults (or client retry) are configured — no-fault
//! runs schedule the exact same events as before the chaos plane existed.
//!
//! [`Cluster::run`] returns a [`ClusterReport`] whose `metrics` is a real
//! [`harmony_sim::RunMetrics`] measured from the replica runtime — the
//! same shape the analytic `ClusterModel` composition produces, now
//! driven end-to-end.

use std::sync::Arc;

use harmony_common::{Error, Result};
use harmony_consensus::net::{EventLoop, NetFaults, SimNode, Transport};
use harmony_metrics::Registry;

pub mod client;
pub mod config;
pub mod msg;
pub mod orderer;
pub mod replica;
pub mod report;

pub use client::{load_ns_for_txns, submission_trace, ClientBank, Submission};
pub use config::{ClusterConfig, ClusterWorkload, OrderingMode, ShardTopology};
pub use msg::{Msg, TIMER_CRASH, TIMER_RECOVER};
pub use orderer::Orderer;
pub use replica::ReplicaWrap;
pub use report::{BlockSummary, ClusterReport, NodeStatus, ReplicaSummary};

use msg::{TIMER_CLIENT, TIMER_METRICS, TIMER_POISON, TIMER_WATCHDOG};

/// Liveness-watchdog period (virtual ns); armed on fault runs only.
const WATCHDOG_NS: u64 = 5_000_000;

/// The deterministic node-index layout of a cluster deployment, shared
/// by the simulator harness and the real-transport runtime: index 0 is
/// the client bank, 1 the ordering service, then the Kafka follower
/// brokers (none under HotStuff), then the replicas.
#[derive(Clone, Copy, Debug)]
pub struct ClusterLayout {
    /// Kafka follower broker count (0 under HotStuff).
    pub followers: usize,
    /// Replica count.
    pub replicas: usize,
}

impl ClusterLayout {
    /// The layout implied by a configuration.
    #[must_use]
    pub fn of(cfg: &ClusterConfig) -> ClusterLayout {
        ClusterLayout {
            followers: match cfg.ordering {
                OrderingMode::Kafka { brokers } => brokers.saturating_sub(1),
                OrderingMode::HotStuff => 0,
            },
            replicas: cfg.replicas,
        }
    }

    /// Node index of the client bank.
    #[must_use]
    pub const fn client(self) -> usize {
        0
    }

    /// Node index of the ordering service.
    #[must_use]
    pub const fn orderer(self) -> usize {
        1
    }

    /// Node index of the first replica.
    #[must_use]
    pub const fn replica_base(self) -> usize {
        2 + self.followers
    }

    /// Node index of replica `r` (0-based among replicas).
    #[must_use]
    pub const fn replica(self, r: usize) -> usize {
        self.replica_base() + r
    }

    /// Total node count (client + orderer + followers + replicas).
    #[must_use]
    pub const fn total(self) -> usize {
        self.replica_base() + self.replicas
    }

    /// Role name of the node at `index`.
    #[must_use]
    pub fn role(self, index: usize) -> &'static str {
        if index == self.client() {
            "client"
        } else if index == self.orderer() {
            "orderer"
        } else if index < self.replica_base() {
            "follower"
        } else {
            "replica"
        }
    }
}

/// One node of the cluster, in any role. [`Cluster::run`] hosts the whole
/// vector on the deterministic simulator; a real-transport runtime hosts
/// exactly one per OS process — built by [`build_node`] with the same
/// configuration, running the identical [`SimNode`] handlers.
pub enum ClusterNode {
    /// The open-loop client bank (index 0; replaced by an external
    /// driver on a real-network cluster).
    Client(Box<ClientBank>),
    /// The ordering service (index 1).
    Orderer(Box<Orderer>),
    /// A Kafka follower broker (pure ack logic, no state).
    Follower,
    /// A replica, flat or sharded.
    Replica(Box<ReplicaWrap>),
}

impl SimNode<Msg> for ClusterNode {
    fn on_message(&mut self, from: usize, msg: Msg, ctx: &mut dyn Transport<Msg>) {
        match self {
            ClusterNode::Client(c) => c.on_message(msg, ctx),
            ClusterNode::Orderer(o) => o.on_message(from, msg, ctx),
            ClusterNode::Follower => orderer::follower_on_message(from, msg, ctx),
            ClusterNode::Replica(r) => r.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut dyn Transport<Msg>) {
        match self {
            ClusterNode::Client(c) => c.on_timer(id, ctx),
            ClusterNode::Orderer(o) => o.on_timer(id, ctx),
            ClusterNode::Follower => {}
            ClusterNode::Replica(r) => r.on_timer(id, ctx),
        }
    }
}

impl ClusterNode {
    /// Role name of this node.
    #[must_use]
    pub fn role(&self) -> &'static str {
        match self {
            ClusterNode::Client(_) => "client",
            ClusterNode::Orderer(_) => "orderer",
            ClusterNode::Follower => "follower",
            ClusterNode::Replica(_) => "replica",
        }
    }

    /// An operator's request to change the cluster's shard count. The
    /// orderer queues a topology-change marker at the next sealable
    /// height (and drops a count out of range, or any count on a flat
    /// cluster); every other role refuses it. Returns whether this node
    /// is the orderer.
    pub fn reshard(&mut self, new_shards: u32, ctx: &mut dyn Transport<Msg>) -> bool {
        match self {
            ClusterNode::Orderer(o) => {
                o.schedule_reshard(new_shards, ctx);
                true
            }
            _ => false,
        }
    }

    /// A point-in-time status snapshot (the control plane serves this).
    /// `&mut`: a replica remembers the logical root it computes for the
    /// snapshot until its hosted state next changes.
    #[must_use]
    pub fn status(&mut self) -> NodeStatus {
        let mut s = NodeStatus {
            role: self.role().to_string(),
            state: "up".to_string(),
            ..NodeStatus::default()
        };
        match self {
            ClusterNode::Client(c) => s.submitted = c.submitted,
            ClusterNode::Orderer(o) => o.fill_status(&mut s),
            ClusterNode::Follower => {}
            ClusterNode::Replica(r) => r.fill_status(&mut s),
        }
        s
    }

    /// Describe one sealed block held by this replica: block id `seq` of
    /// hosted chain `shard` (a flat replica hosts chain 0 only). `None`
    /// when this node hosts no such block — non-replica roles, a crashed
    /// replica, an out-of-range shard, or a height not (or no longer)
    /// in the chain.
    #[must_use]
    pub fn block_summary(&self, shard: usize, seq: u64) -> Option<BlockSummary> {
        match self {
            ClusterNode::Replica(r) => r.block_summary(shard, seq),
            _ => None,
        }
    }
}

/// Build the cluster node living at `index` in the layout of `cfg`,
/// registering its metric handles in `registry`.
///
/// [`Cluster::run`] builds the whole vector through this (one shared
/// registry, simulator transport); each process of a real-transport
/// cluster calls it once with a per-process registry and drives the node
/// over sockets — the identical state machine either way. Construction
/// is deterministic: the same configuration and index produce the same
/// node on any host, which is what makes TCP-vs-simulator state-root
/// equivalence checkable at all.
pub fn build_node(
    cfg: &ClusterConfig,
    registry: &Arc<Registry>,
    index: usize,
) -> Result<ClusterNode> {
    let layout = ClusterLayout::of(cfg);
    Ok(if index == layout.client() {
        ClusterNode::Client(Box::new(ClientBank::new(cfg, registry, layout.orderer())?))
    } else if index == layout.orderer() {
        ClusterNode::Orderer(Box::new(Orderer::new(cfg, registry)))
    } else if index < layout.replica_base() {
        ClusterNode::Follower
    } else if index < layout.total() {
        let r = index - layout.replica_base();
        ClusterNode::Replica(Box::new(ReplicaWrap::new(cfg, registry, r)?))
    } else {
        return Err(Error::InvalidArgument(format!(
            "node index {index} out of range for a {}-node cluster",
            layout.total()
        )));
    })
}

/// The runnable cluster.
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// Build a cluster from its configuration.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster { config }
    }

    /// Run the scenario to quiescence and report.
    pub fn run(&self) -> Result<ClusterReport> {
        let cfg = &self.config;
        cfg.validate()?;
        let layout = ClusterLayout::of(cfg);
        let replica_idx: Vec<usize> = (0..cfg.replicas).map(|r| layout.replica(r)).collect();
        // The observer (run metrics, liveness reference) is never
        // health-faulted; validate() guarantees one exists.
        let observer = cfg
            .faults
            .healthy_replica(cfg.replicas)
            .expect("validated schedule leaves an observer");
        // One registry for the whole cluster; every node holds interned
        // handles into it, the orderer snapshots it on the metrics timer.
        let registry = Arc::new(Registry::new());
        let deadline_ns = cfg.load_ns + cfg.drain_ns;

        // Every node comes from the same factory a real-transport
        // process uses — index order keeps registry interning (and so
        // the pinned timelines) identical to the pre-factory harness.
        let mut nodes: Vec<ClusterNode> = Vec::with_capacity(layout.total());
        for index in 0..layout.total() {
            nodes.push(build_node(cfg, &registry, index)?);
        }

        let mut el = EventLoop::new(nodes, cfg.latency.clone(), cfg.seed);
        let first_at = client_of(&el, layout).first_arrival_ns();
        el.seed_timer(layout.client(), first_at, TIMER_CLIENT);
        el.seed_timer(layout.orderer(), cfg.metrics_every_ns.max(1), TIMER_METRICS);
        // Chaos machinery (watchdog, sync timeouts, net faults) is armed
        // only when faults are scheduled.
        if !cfg.faults.is_empty() {
            // Lower the link-visible faults onto the net model, with
            // injection counters in the shared registry.
            let mut table = NetFaults::new(cfg.faults.link_faults(|r| replica_idx[r]));
            let kind = |k: &str| {
                registry.counter_with(
                    "harmony_net_faults_injected_total",
                    "Messages perturbed by the injected link faults.",
                    &[("kind", k)],
                )
            };
            table.set_counters(kind("dropped"), kind("duplicated"), kind("delayed"));
            el.set_faults(table);
            for (r, at_ns, recover_at_ns) in cfg.faults.crash_cycles() {
                el.seed_timer(replica_idx[r], at_ns, TIMER_CRASH);
                el.seed_timer(replica_idx[r], recover_at_ns, TIMER_RECOVER);
            }
            for (r, at_ns) in cfg.faults.poison_events() {
                el.seed_timer(replica_idx[r], at_ns, TIMER_POISON);
            }
            // Liveness watchdog on every replica, staggered so the herd
            // doesn't fire on one instant.
            for (r, &idx) in replica_idx.iter().enumerate() {
                let at = WATCHDOG_NS + (r as u64 + 1) * 1_000;
                el.seed_timer(idx, at, TIMER_WATCHDOG);
            }
        }
        el.run_until(deadline_ns);

        // ── Collect ──
        let ClusterNode::Orderer(o) = el.node_mut(layout.orderer()) else {
            unreachable!("orderer index");
        };
        let timeline = o.close_timeline(deadline_ns);
        let wraps: Vec<&ReplicaWrap> = replica_idx
            .iter()
            .map(|&idx| match el.node(idx) {
                ClusterNode::Replica(w) => &**w,
                _ => unreachable!("replica index"),
            })
            .collect();
        let replicas = wraps
            .iter()
            .enumerate()
            .map(|(r, w)| w.summary(r))
            .collect::<Result<Vec<_>>>()?;
        let consistent = replicas
            .windows(2)
            .all(|p| p[0].height == p[1].height && p[0].root == p[1].root)
            && wraps.iter().enumerate().all(|(i, a)| {
                wraps[i + 1..].iter().all(|b| {
                    a.front()
                        .delivery_log()
                        .agrees_with(b.front().delivery_log())
                })
            });
        let (metrics, order_latency_ms) =
            wraps[observer].run_metrics(cfg.system_label(), cfg.replica.workers);

        let ClusterNode::Orderer(o) = el.node(layout.orderer()) else {
            unreachable!("orderer index");
        };
        let client = client_of(&el, layout);
        Ok(ClusterReport {
            metrics,
            order_latency_ms,
            consistent,
            divergence_alarms: replicas.iter().map(|r| r.alarms).sum(),
            mempool: o.mempool.stats(),
            tenant_sealed: o.mempool.tenant_sealed(),
            sealed_blocks: o.sealed_blocks,
            submitted_txns: client.submitted,
            client_retries: client.retries.get(),
            client_retry_drops: client.retry_drops.get(),
            quarantines: replicas.iter().map(|r| r.quarantines).sum(),
            replicas,
            exposition: registry.render_prometheus(),
            timeline,
        })
    }
}

fn client_of(el: &EventLoop<Msg, ClusterNode>, layout: ClusterLayout) -> &ClientBank {
    match el.node(layout.client()) {
        ClusterNode::Client(c) => c,
        _ => unreachable!("client index"),
    }
}
