//! The replica role: a flat or sharded replica node (`kind::NodeKind`)
//! inside the cluster-side state machine that keeps it caught up
//! ([`ReplicaWrap`]) — up/down/syncing, state-sync request, retry,
//! failover and serving, self-quarantine, and latency measurement.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use harmony_chain::{ChainBlock, OeChain};
use harmony_common::{BlockId, Result};
use harmony_consensus::net::Transport;
use harmony_crypto::Digest;
use harmony_metrics::Registry;
use harmony_sim::RunMetrics;

use self::kind::NodeKind;
use self::metrics::WrapMetrics;
use super::config::ClusterConfig;
use super::msg::{Msg, TIMER_CRASH, TIMER_POISON, TIMER_RECOVER, TIMER_SYNC_BASE, TIMER_WATCHDOG};
use super::report::{BlockSummary, NodeStatus, ReplicaSummary};
use super::ClusterLayout;
use crate::replica::{Applied, DeliveryFront};
use crate::statesync::{RetryPolicy, ShardedSyncResponse};

mod kind;
mod metrics;

/// CPU cost of serving one block in a sync response.
const SYNC_SERVE_NS_PER_BLOCK: u64 = 10_000;
/// CPU cost of replaying one block during catch-up.
const SYNC_REPLAY_NS_PER_BLOCK: u64 = 300_000;
/// CPU cost of local checkpoint recovery.
const RECOVERY_NS: u64 = 1_000_000;
/// CPU cost of one state-root fold (computing and gossiping the
/// authenticated root at a gossip height).
const ROOT_FOLD_NS: u64 = 100_000;
/// Peers that must dispute this replica's root at one gossip height
/// before it self-quarantines and re-syncs from scratch.
const QUARANTINE_QUORUM: u32 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    Up,
    Down,
    Syncing,
}

/// One replica node (flat or sharded) plus its cluster-side state
/// machine: up/down/syncing, sync retry/failover/quarantine bookkeeping,
/// and latency measurement. Public so a real-transport runtime can host
/// one as an OS process; internals stay private.
pub struct ReplicaWrap {
    node: NodeKind,
    /// [`NodeKind::logical_root`] of the hosted state as it stands, for
    /// [`ReplicaWrap::fill_status`]: on a sharded replica every
    /// computation merges all shards' tables. Dropped by
    /// [`ReplicaWrap::node_mut`], the way to anything that changes
    /// hosted state.
    logical_root: Option<Digest>,
    state: ReplicaState,
    metrics: WrapMetrics,
    /// Ordering and submit times of each delivered block above the tip,
    /// read when the block is applied. A block at or below the tip never
    /// is, so it has no entry: a duplicate delivery adds none, and a sync
    /// reply drops those it carried the replica past.
    meta: HashMap<u64, (u64, u64)>,
    peers: Vec<usize>,
    window: usize,
    /// Whether a fault schedule is active: arms sync timeouts, the
    /// watchdog re-arm, and quarantine checks. Off on healthy runs so
    /// their event schedule is untouched.
    chaos: bool,
    /// Sync timeout/retry/backoff policy.
    retry: RetryPolicy,
    retry_seed: u64,
    /// Candidate peers to sync from (node ids), tried round-robin on
    /// timeout/refusal.
    sync_candidates: Vec<usize>,
    sync_pos: usize,
    /// Current sync attempt epoch: stale replies and timers carry an
    /// older epoch and are discarded.
    sync_epoch: u64,
    sync_attempt: u32,
    /// Windows during which this replica refuses to serve sync
    /// ([`crate::FaultEvent::SyncRefusal`]).
    refusals: Vec<(u64, u64)>,
    /// Ignore gossip lag below this margin (one gossip period) so the
    /// watchdog doesn't chase roots that are merely in flight.
    frontier_slack: u64,
    in_quarantine: bool,
    // Measurement.
    committed_weighted_e2e_ns: f64,
    committed_weighted_order_ns: f64,
    committed_txns: u64,
    last_apply_ns: u64,
    recoveries: u64,
    sync_blocks: u64,
}

impl ReplicaWrap {
    /// Replica `r` of `cfg` (flat, or sharded when a topology is
    /// configured), its metric handles in `registry`.
    pub(super) fn new(
        cfg: &ClusterConfig,
        registry: &Arc<Registry>,
        r: usize,
    ) -> Result<ReplicaWrap> {
        let layout = ClusterLayout::of(cfg);
        let peers: Vec<usize> = (0..cfg.replicas)
            .filter(|&p| p != r)
            .map(|p| layout.replica(p))
            .collect();
        // Sync candidates: the other replicas, as a ring starting at the
        // next index. Timeouts and refusals rotate through it, so a down or
        // overloaded peer just costs one failover hop.
        let sync_candidates: Vec<usize> = (1..cfg.replicas)
            .map(|d| layout.replica((r + d) % cfg.replicas))
            .collect();
        Ok(ReplicaWrap {
            node: NodeKind::new(cfg, registry, r)?,
            logical_root: None,
            state: ReplicaState::Up,
            metrics: WrapMetrics::register(registry, r),
            meta: HashMap::new(),
            peers,
            window: cfg.window.max(1),
            chaos: !cfg.faults.is_empty(),
            retry: cfg.sync_retry,
            retry_seed: cfg.seed ^ 0x5E7B_ACC0 ^ (r as u64) << 40,
            sync_candidates,
            sync_pos: 0,
            sync_epoch: 0,
            sync_attempt: 0,
            refusals: cfg.faults.refusal_windows(r),
            frontier_slack: cfg.replica.gossip_every.max(1),
            in_quarantine: false,
            committed_weighted_e2e_ns: 0.0,
            committed_weighted_order_ns: 0.0,
            committed_txns: 0,
            last_apply_ns: 0,
            recoveries: 0,
            sync_blocks: 0,
        })
    }

    /// The node, for an operation that may change the state it hosts
    /// (blocks applied, sync applied, wipe, recovery — a reshard is a
    /// block): the cached logical root no longer describes it.
    fn node_mut(&mut self) -> &mut NodeKind {
        self.logical_root = None;
        &mut self.node
    }

    pub(super) fn on_message(&mut self, from: usize, msg: Msg, ctx: &mut dyn Transport<Msg>) {
        if self.state == ReplicaState::Down {
            return; // a crashed replica hears nothing
        }
        match msg {
            Msg::Prepare { seq, round } => {
                // Verify the proposal, sign a vote share.
                ctx.charge_cpu(10_000);
                ctx.send(from, Msg::Vote { seq, round }, 128);
            }
            Msg::Deliver {
                block,
                born_ns,
                mean_submit_ns,
            } => self.on_deliver(block, born_ns, mean_submit_ns, ctx),
            Msg::RootGossip { height, root } => {
                self.node.front_mut().roots_mut().note_peer(height, root);
                // Divergence is actionable, not just an alarm: once a
                // quorum of peers disputes our root, wipe and re-sync.
                if self.chaos && self.state == ReplicaState::Up && self.disputed() {
                    self.enter_quarantine(ctx);
                }
            }
            Msg::SyncRequest {
                from: heights,
                epoch,
            } => self.on_sync_request(from, &heights, epoch, ctx),
            Msg::SyncRefused { epoch }
                if self.state == ReplicaState::Syncing && epoch == self.sync_epoch =>
            {
                self.metrics.sync_refusals.inc();
                self.sync_setback(ctx);
            }
            // Stale replies (a slow peer answering an attempt we already
            // failed over from) are discarded by epoch.
            Msg::SyncReply { response, epoch }
                if self.state == ReplicaState::Syncing && epoch == self.sync_epoch =>
            {
                self.on_sync_reply(&response, ctx);
            }
            _ => {}
        }
    }

    pub(super) fn on_timer(&mut self, id: u64, ctx: &mut dyn Transport<Msg>) {
        match id {
            TIMER_CRASH => {
                self.node_mut().crash();
                self.state = ReplicaState::Down;
            }
            TIMER_RECOVER => {
                ctx.charge_cpu(RECOVERY_NS);
                if self.node_mut().recover_local().is_err() {
                    // A corrupt checkpoint/log cannot block rejoin: wipe
                    // and let the from-scratch sync rebuild everything.
                    self.metrics.node_errors.inc();
                    if self.node.wipe_for_resync().is_err() {
                        self.metrics.node_errors.inc();
                    }
                }
                self.recoveries += 1;
                self.request_sync(ctx);
            }
            TIMER_POISON if self.state == ReplicaState::Up => {
                self.node.front_mut().poison_next_gossip();
            }
            TIMER_WATCHDOG => {
                // Liveness backstop on fault runs: a replica that is
                // nominally Up but lost deliveries (partition, drops, a
                // sync round that exhausted its retries) re-arms
                // catch-up; a quorum-disputed root triggers quarantine.
                if self.state == ReplicaState::Up {
                    let front = self.node.front();
                    if self.disputed() {
                        self.enter_quarantine(ctx);
                    } else if front.pending_gap() > 0
                        || front.roots().peer_frontier()
                            > self.node.height().0 + self.frontier_slack
                    {
                        self.request_sync(ctx);
                    }
                }
                ctx.set_timer(super::WATCHDOG_NS, TIMER_WATCHDOG);
            }
            // Sync request timeout — only meaningful if we are still
            // waiting on exactly this epoch.
            id if id >= TIMER_SYNC_BASE
                && self.state == ReplicaState::Syncing
                && id == TIMER_SYNC_BASE + self.sync_epoch =>
            {
                self.sync_setback(ctx);
            }
            _ => {}
        }
    }

    fn on_deliver(
        &mut self,
        block: Arc<ChainBlock>,
        born_ns: u64,
        mean_submit_ns: u64,
        ctx: &mut dyn Transport<Msg>,
    ) {
        if block.header.id > self.node.height() {
            self.meta
                .insert(block.header.id.0, (born_ns, mean_submit_ns));
        }
        let applied = match self.node_mut().deliver(block) {
            Ok(applied) => applied,
            Err(_) => {
                // A block that fails to apply (malformed, hostile, or
                // landing on diverged local state) must not take the
                // replica process down: drop it and heal any gap via sync.
                self.metrics.node_errors.inc();
                if self.state == ReplicaState::Up {
                    self.request_sync(ctx);
                }
                return;
            }
        };
        self.on_applied(&applied, ctx);
        // A persistent gap (beyond ordinary jitter reordering) means
        // deliveries were missed: self-heal via sync.
        if self.state == ReplicaState::Up && self.node.front().pending_gap() > 2 * self.window {
            self.request_sync(ctx);
        }
    }

    fn on_applied(&mut self, applied: &[Applied], ctx: &mut dyn Transport<Msg>) {
        for a in applied {
            ctx.charge_cpu(a.cost_ns);
            self.last_apply_ns = self.last_apply_ns.max(ctx.now());
            if let Some((born, submit)) = self.meta.remove(&a.block.0) {
                let c = a.committed as f64;
                let e2e = ctx.now().saturating_sub(submit);
                let order = ctx.now().saturating_sub(born);
                self.committed_weighted_e2e_ns += c * e2e as f64;
                self.committed_weighted_order_ns += c * order as f64;
                self.metrics
                    .commit_latency_ns
                    .observe_n(e2e, a.committed as u64);
                self.metrics
                    .order_latency_ns
                    .observe_n(order, a.committed as u64);
            }
            self.committed_txns += a.committed as u64;
            if let Some(root) = a.gossip_root {
                ctx.charge_cpu(ROOT_FOLD_NS); // root computation
                for &p in &self.peers {
                    ctx.send(
                        p,
                        Msg::RootGossip {
                            height: a.block.0,
                            root,
                        },
                        40,
                    );
                }
            }
        }
    }

    /// Serve a peer's sync request — or refuse it explicitly, so the
    /// requester fails over without waiting out a timeout: a syncing
    /// peer, or one inside a refusal-fault window, sheds serve work, and
    /// a request this replica cannot answer is refused, not asserted on.
    fn on_sync_request(
        &mut self,
        from: usize,
        heights: &[BlockId],
        epoch: u64,
        ctx: &mut dyn Transport<Msg>,
    ) {
        let refusing = self.state != ReplicaState::Up
            || self
                .refusals
                .iter()
                .any(|&(a, b)| ctx.now() >= a && ctx.now() < b);
        let served = if refusing {
            None
        } else {
            let served = self.node.serve_sync(heights);
            served.inspect_err(|_| self.metrics.node_errors.inc()).ok()
        };
        let Some(response) = served else {
            ctx.send(from, Msg::SyncRefused { epoch }, 32);
            return;
        };
        ctx.charge_cpu(SYNC_SERVE_NS_PER_BLOCK * response.block_count() as u64);
        let bytes = response.transfer_bytes();
        ctx.send(
            from,
            Msg::SyncReply {
                response: Arc::new(response),
                epoch,
            },
            bytes,
        );
    }

    fn on_sync_reply(&mut self, response: &ShardedSyncResponse, ctx: &mut dyn Transport<Msg>) {
        let applied = match self.node_mut().apply_sync(response) {
            Ok(applied) => applied,
            Err(_) => {
                // A corrupt or inapplicable reply (wrong part count for
                // this replica included) is a failed attempt: fail over
                // to the next candidate peer.
                self.metrics.node_errors.inc();
                self.sync_setback(ctx);
                return;
            }
        };
        self.metrics.sync_requests[0].add(applied.manifest_shards);
        self.metrics.sync_requests[1].add(applied.range_shards);
        let (manifest_bytes, range_bytes) = response.byte_split();
        self.metrics.sync_bytes[0].add(manifest_bytes);
        self.metrics.sync_bytes[1].add(range_bytes);
        ctx.charge_cpu(SYNC_REPLAY_NS_PER_BLOCK * applied.blocks);
        self.sync_blocks += applied.blocks;
        let height = self.node.height().0;
        self.meta.retain(|&id, _| id > height);
        self.last_apply_ns = self.last_apply_ns.max(ctx.now());
        if self.node.front().pending_gap() == 0 {
            self.sync_complete();
        } else {
            // Still gapped (peer advanced meanwhile): go again.
            self.request_sync(ctx);
        }
    }

    /// Begin (or restart) a catch-up round: fresh attempt budget, next
    /// request to the current candidate.
    fn request_sync(&mut self, ctx: &mut dyn Transport<Msg>) {
        self.state = ReplicaState::Syncing;
        self.sync_attempt = 0;
        self.send_sync_request(ctx);
    }

    fn send_sync_request(&mut self, ctx: &mut dyn Transport<Msg>) {
        if self.sync_candidates.is_empty() {
            // Single-replica cluster: nobody to sync from.
            self.state = ReplicaState::Up;
            return;
        }
        self.sync_epoch += 1;
        let peer = self.sync_candidates[self.sync_pos % self.sync_candidates.len()];
        ctx.send(
            peer,
            Msg::SyncRequest {
                from: self.node.chains().iter().map(OeChain::height).collect(),
                epoch: self.sync_epoch,
            },
            64,
        );
        if self.chaos {
            // The timeout doubles as the backoff: attempt k waits the
            // k-th backoff step before declaring the peer unresponsive.
            let wait = self
                .retry
                .backoff_ns(self.sync_attempt, self.retry_seed, self.sync_epoch);
            ctx.set_timer(wait, TIMER_SYNC_BASE + self.sync_epoch);
        }
    }

    /// The current sync attempt failed (timeout or explicit refusal):
    /// fail over to the next candidate, or park back Up once the retry
    /// budget is spent (the watchdog re-arms catch-up later).
    fn sync_setback(&mut self, ctx: &mut dyn Transport<Msg>) {
        self.metrics.sync_retries.inc();
        self.sync_attempt += 1;
        if self.sync_attempt > self.retry.max_retries {
            self.state = ReplicaState::Up;
        } else {
            self.sync_pos += 1;
            self.send_sync_request(ctx);
        }
    }

    /// Whether a quorum of peers disputes this replica's root at some
    /// gossip height.
    fn disputed(&self) -> bool {
        let roots = self.node.front().roots();
        roots.quarantine_signal(QUARANTINE_QUORUM).is_some()
    }

    /// A quorum of peers disputes our root: wipe back to genesis and
    /// re-bootstrap from a peer's checkpoint manifest.
    fn enter_quarantine(&mut self, ctx: &mut dyn Transport<Msg>) {
        self.in_quarantine = true;
        self.metrics.quarantine_enters.inc();
        if self.node_mut().wipe_for_resync().is_err() {
            // Wipe failure leaves the old state in place; the
            // from-scratch re-sync below still heals it forward.
            self.metrics.node_errors.inc();
        }
        self.request_sync(ctx);
    }

    /// Catch-up finished with no remaining gap.
    fn sync_complete(&mut self) {
        self.state = ReplicaState::Up;
        if self.in_quarantine {
            self.in_quarantine = false;
            self.metrics.quarantine_exits.inc();
        }
    }

    /// This node's share of a [`NodeStatus`]. Roots are left empty while
    /// the replica is down.
    pub(super) fn fill_status(&mut self, s: &mut NodeStatus) {
        s.state = match self.state {
            ReplicaState::Up => "up",
            ReplicaState::Down => "down",
            ReplicaState::Syncing => "syncing",
        }
        .to_string();
        s.height = self.node.height().0;
        s.committed_txns = self.committed_txns;
        s.delivered = self.node.front().delivery_log().len() as u64;
        s.recoveries = self.recoveries;
        s.sync_blocks = self.sync_blocks;
        if self.state == ReplicaState::Down {
            return;
        }
        if let Ok(root) = self.node.report_root() {
            s.root = root.to_hex();
        }
        if self.logical_root.is_none() {
            self.logical_root = self.node.logical_root().ok();
        }
        if let Some(root) = self.logical_root {
            s.logical_root = root.to_hex();
        }
    }

    /// Describe block `seq` of hosted chain `shard` (see
    /// [`super::ClusterNode::block_summary`]).
    pub(super) fn block_summary(&self, shard: usize, seq: u64) -> Option<BlockSummary> {
        if self.state == ReplicaState::Down {
            return None;
        }
        let block = self
            .node
            .chains()
            .get(shard)?
            .blocks_after(BlockId(seq.saturating_sub(1)))
            .ok()?
            .into_iter()
            .find(|b| b.header.id.0 == seq)?;
        Some(BlockSummary {
            id: seq,
            txns: block.txns.len() as u64,
            hash: block.header.hash().to_hex(),
            prev_hash: block.header.prev_hash.to_hex(),
        })
    }

    /// The ordered-delivery front (delivery log and divergence alarms
    /// for the report's consistency check).
    pub(super) fn front(&self) -> &DeliveryFront {
        self.node.front()
    }

    /// End-of-run summary of this replica, reported as replica `replica`.
    pub(super) fn summary(&self, replica: usize) -> Result<ReplicaSummary> {
        let node = &self.node;
        Ok(ReplicaSummary {
            replica,
            height: node.height(),
            root: node.report_root()?,
            logical_root: node.logical_root()?,
            oracle_root: node.oracle_root()?,
            delivered: node.front().delivery_log().len(),
            alarms: node.front().roots().alarms(),
            recoveries: self.recoveries,
            quarantines: self.metrics.quarantine_enters.get(),
            sync_retries: self.metrics.sync_retries.get(),
            sync_blocks: self.sync_blocks,
            sync_manifest_shards: self.metrics.sync_requests[0].get(),
            sync_range_shards: self.metrics.sync_requests[1].get(),
            sync_manifest_bytes: self.metrics.sync_bytes[0].get(),
            sync_range_bytes: self.metrics.sync_bytes[1].get(),
            table_heads: node.logical_table_heads()?,
            reshards: node.anchor().1,
            hosted_shards: node.chains().len(),
        })
    }

    /// Node-runtime metrics as measured at this replica (the run's
    /// observer), plus its mean ordering latency in ms.
    pub(super) fn run_metrics(&self, system: String, workers: usize) -> (RunMetrics, f64) {
        let stats = *self.node.front().stats();
        let wall_ns = self.last_apply_ns.max(1);
        let committed = self.committed_txns;
        let mean_ms = |weighted_ns: f64| {
            if committed == 0 {
                0.0
            } else {
                weighted_ns / committed as f64 / 1e6
            }
        };
        let io = self.node.io_snapshot();
        let pool_accesses = io.pool.hits + io.pool.misses;
        let metrics = RunMetrics {
            system: Cow::Owned(system),
            throughput_tps: committed as f64 / (wall_ns as f64 / 1e9),
            latency_ms: mean_ms(self.committed_weighted_e2e_ns),
            abort_rate: stats.abort_rate(),
            cpu_utilization: (stats.sim_ns_total + stats.commit_ns_total) as f64
                / (workers as f64 * wall_ns as f64),
            stats,
            disk_reads: io.disk_reads,
            disk_writes: io.disk_writes,
            buffer_hit_rate: if pool_accesses == 0 {
                0.0
            } else {
                io.pool.hits as f64 / pool_accesses as f64
            },
            wall_ns,
        };
        (metrics, mean_ms(self.committed_weighted_order_ns))
    }
}

#[cfg(test)]
mod tests {
    use harmony_chain::ChainConfig;

    use super::*;
    use crate::testkit::{sealed_stream, workload};
    use crate::ReplicaConfig;

    /// A transport at time 0 that drops what it is given.
    struct Quiet;

    impl Transport<Msg> for Quiet {
        fn now(&self) -> u64 {
            0
        }
        fn me(&self) -> usize {
            0
        }
        fn send(&mut self, _to: usize, _msg: Msg, _bytes: u64) {}
        fn set_timer(&mut self, _delay_ns: u64, _id: u64) {}
        fn charge_cpu(&mut self, _ns: u64) {}
    }

    #[test]
    fn no_latency_entry_stays_at_or_below_the_height() {
        let cfg = ClusterConfig {
            replicas: 2,
            workload: workload(),
            replica: ReplicaConfig {
                chain: ChainConfig::in_memory(),
                ..ReplicaConfig::default()
            },
            ..ClusterConfig::default()
        };
        let wrap = |r| ReplicaWrap::new(&cfg, &Arc::new(Registry::new()), r).unwrap();
        let (mut peer, mut w) = (wrap(0), wrap(1));
        let blocks = sealed_stream(4, 8);
        for b in &blocks {
            peer.on_deliver(Arc::clone(b), 0, 0, &mut Quiet);
        }
        // Block 1 twice: the second delivery applies nothing.
        w.on_deliver(Arc::clone(&blocks[0]), 0, 0, &mut Quiet);
        w.on_deliver(Arc::clone(&blocks[0]), 0, 0, &mut Quiet);
        assert_eq!(w.node.height(), BlockId(1));
        assert!(w.meta.is_empty(), "{:?}", w.meta);
        // Block 3 waits behind the gap at 2, until a sync reply carries
        // the replica past it.
        w.on_deliver(Arc::clone(&blocks[2]), 0, 0, &mut Quiet);
        assert!(w.meta.contains_key(&3));
        let from: Vec<BlockId> = w.node.chains().iter().map(OeChain::height).collect();
        let response = peer.node.serve_sync(&from).unwrap();
        w.on_sync_reply(&response, &mut Quiet);
        assert_eq!(w.node.height(), BlockId(4));
        assert!(w.meta.is_empty(), "{:?}", w.meta);
    }

    #[test]
    fn two_status_calls_with_nothing_applied_between_do_one_merge() {
        let mut w =
            ReplicaWrap::new(&ClusterConfig::default(), &Arc::new(Registry::new()), 0).unwrap();
        let mut s = NodeStatus::default();
        w.fill_status(&mut s);
        assert_eq!(
            w.logical_root.map(|r| r.to_hex()),
            Some(s.logical_root.clone())
        );
        // Whatever the cache holds is what the next call serves — nothing
        // is recomputed — until something reaches for the node to change it.
        let (computed, sentinel) = (s.logical_root.clone(), Digest([0xEE; 32]));
        w.logical_root = Some(sentinel);
        w.fill_status(&mut s);
        assert_eq!(s.logical_root, sentinel.to_hex());
        w.node_mut();
        w.fill_status(&mut s);
        assert_eq!(s.logical_root, computed);
    }
}
