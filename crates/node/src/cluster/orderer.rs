//! The ordering role: the ordering service ([`Orderer`]) and the Kafka
//! follower broker that acknowledges its replication traffic.

use std::collections::HashMap;
use std::sync::Arc;

use harmony_chain::ChainBlock;
use harmony_common::BlockId;
use harmony_consensus::net::Transport;
use harmony_crypto::{CryptoCost, Digest, KeyPair};
use harmony_metrics::{Registry, Timeline};
use harmony_shard::ReshardMarker;
use harmony_txn::encode_contract;

use super::config::{ClusterConfig, OrderingMode};
use super::msg::{Msg, TIMER_BATCH, TIMER_METRICS};
use super::report::NodeStatus;
use super::ClusterLayout;
use crate::mempool::{Mempool, MempoolMetrics};

/// Per-admission CPU cost at the orderer (signature + nonce check).
const ADMIT_NS: u64 = 1_000;
/// Per-byte CPU cost of putting a block on the wire.
const TX_NS_PER_BYTE: u64 = 1;

struct InFlight {
    block: Arc<ChainBlock>,
    /// Wire size of the sealed block (computed once at seal time).
    bytes: u64,
    born_ns: u64,
    mean_submit_ns: u64,
    acks: usize,
    round: u8,
}

/// The observability plane of one run: the shared metric registry every
/// node's handles point into, plus the virtual-time snapshot timeline.
/// Owned by the orderer (the one node guaranteed alive for the whole
/// run), ticked by [`TIMER_METRICS`].
struct MetricsHub {
    registry: Arc<Registry>,
    timeline: Timeline,
    every_ns: u64,
    /// Last virtual instant a snapshot may be scheduled at (run end).
    deadline_ns: u64,
}

impl MetricsHub {
    fn tick(&mut self, ctx: &mut dyn Transport<Msg>) {
        self.timeline.record(ctx.now(), &self.registry);
        if ctx.now() + self.every_ns <= self.deadline_ns {
            ctx.set_timer(self.every_ns, TIMER_METRICS);
        }
    }
}

/// The ordering service node: mempool admission, deterministic batching,
/// sealing, replication/voting, delivery. Public so a real-transport
/// runtime can host one as an OS process; its internals stay private.
pub struct Orderer {
    pub(super) mempool: Mempool,
    hub: MetricsHub,
    keypair: KeyPair,
    crypto: CryptoCost,
    next_id: u64,
    prev_hash: Digest,
    in_flight: HashMap<u64, InFlight>,
    mode: OrderingMode,
    followers: Vec<usize>,
    replicas: Vec<usize>,
    block_txns: usize,
    window: usize,
    batch_interval_ns: u64,
    /// Seal full blocks immediately on admission (see
    /// [`ClusterConfig::eager_seal`]).
    eager_seal: bool,
    timer_armed: bool,
    last_seal_ns: u64,
    pub(super) sealed_blocks: u64,
    /// Bounce retryable admission rejects back to the client bank.
    client_retry: bool,
    /// Pending topology changes as `(height, new_shards)`, ascending by
    /// height; the front entry seals as a marker block the moment the
    /// stream reaches (or has passed) its height.
    reshard_queue: Vec<(u64, u32)>,
    /// Topology-change epochs sealed so far (stamped into each marker).
    reshard_epoch: u64,
    /// Shard-count ceiling for operator-driven reshards: the logical
    /// partition count on sharded clusters, 0 on flat ones (where any
    /// reshard request is refused).
    reshard_max: u32,
}

impl Orderer {
    /// The ordering service of `cfg`, its metric handles in `registry`.
    pub(super) fn new(cfg: &ClusterConfig, registry: &Arc<Registry>) -> Orderer {
        let layout = ClusterLayout::of(cfg);
        let chain_cfg = &cfg.replica.chain;
        let metrics_every_ns = cfg.metrics_every_ns.max(1);
        Orderer {
            mempool: Mempool::with_metrics(
                cfg.mempool,
                MempoolMetrics::register(registry, cfg.mempool.tenants),
            ),
            hub: MetricsHub {
                registry: Arc::clone(registry),
                timeline: Timeline::new(&cfg.system_label(), cfg.seed, metrics_every_ns),
                every_ns: metrics_every_ns,
                deadline_ns: cfg.load_ns + cfg.drain_ns,
            },
            keypair: KeyPair::derive(&chain_cfg.provision, chain_cfg.orderer_id, chain_cfg.crypto),
            crypto: chain_cfg.crypto,
            next_id: 1,
            prev_hash: Digest::ZERO,
            in_flight: HashMap::new(),
            mode: cfg.ordering,
            followers: (0..layout.followers).map(|f| 2 + f).collect(),
            replicas: (0..cfg.replicas).map(|r| layout.replica(r)).collect(),
            block_txns: cfg.block_txns.max(1),
            window: cfg.window.max(1),
            batch_interval_ns: cfg.batch_interval_ns.max(1),
            eager_seal: cfg.eager_seal,
            timer_armed: false,
            last_seal_ns: 0,
            sealed_blocks: 0,
            client_retry: cfg.client_retry.is_some(),
            reshard_queue: cfg
                .reshards
                .events
                .iter()
                .map(|e| (e.height, e.new_shards))
                .collect(),
            reshard_epoch: 0,
            reshard_max: cfg.topology.map_or(0, |t| t.partitions),
        }
    }

    pub(super) fn on_message(&mut self, from: usize, msg: Msg, ctx: &mut dyn Transport<Msg>) {
        match msg {
            Msg::Submit {
                client,
                nonce,
                submitted_ns,
                contract,
            } => {
                ctx.charge_cpu(ADMIT_NS);
                let bounce = self.client_retry.then(|| Arc::clone(&contract));
                match self.mempool.submit(client, nonce, submitted_ns, contract) {
                    Err(e) if e.is_retryable() => {
                        if let Some(contract) = bounce {
                            ctx.send(
                                from,
                                Msg::Reject {
                                    client,
                                    nonce,
                                    submitted_ns,
                                    contract,
                                },
                                64,
                            );
                        }
                    }
                    _ => {}
                }
                if self.eager_seal && self.mempool.len() >= self.block_txns {
                    self.launch_batches(ctx);
                }
                if !self.timer_armed {
                    ctx.set_timer(self.batch_interval_ns, TIMER_BATCH);
                    self.timer_armed = true;
                }
            }
            Msg::Ack { seq } => self.on_ack(seq, None, ctx),
            Msg::Vote { seq, round } => {
                ctx.charge_cpu(self.crypto.verify_ns / 16);
                self.on_ack(seq, Some(round), ctx);
            }
            _ => {}
        }
    }

    pub(super) fn on_timer(&mut self, id: u64, ctx: &mut dyn Transport<Msg>) {
        match id {
            TIMER_BATCH => {
                self.timer_armed = false;
                self.launch_batches(ctx);
            }
            TIMER_METRICS => self.hub.tick(ctx),
            _ => {}
        }
    }

    /// Count one acknowledgement of block `seq` — a broker ack, or a vote
    /// that must belong to the block's current `round` — and move the
    /// block on when it completes the quorum.
    fn on_ack(&mut self, seq: u64, round: Option<u8>, ctx: &mut dyn Transport<Msg>) {
        let quorum = self.quorum();
        if let Some(entry) = self.in_flight.get_mut(&seq) {
            if round.is_none_or(|r| r == entry.round) {
                entry.acks += 1;
                if entry.acks == quorum {
                    self.on_quorum(seq, ctx);
                }
            }
        }
    }

    /// This node's share of a [`NodeStatus`].
    pub(super) fn fill_status(&self, s: &mut NodeStatus) {
        s.height = self.next_id.saturating_sub(1);
        s.mempool_len = self.mempool.len() as u64;
        s.sealed_blocks = self.sealed_blocks;
    }

    /// Take the final timeline snapshot at `at_ns` (a repeat of the last
    /// timer's instant is deduplicated) and render the timeline.
    pub(super) fn close_timeline(&mut self, at_ns: u64) -> String {
        self.hub.timeline.record(at_ns, &self.hub.registry);
        self.hub.timeline.to_json()
    }

    fn quorum(&self) -> usize {
        match self.mode {
            // Leader's own log append counts; majority of brokers.
            OrderingMode::Kafka { brokers } => brokers / 2 + 1,
            // 2/3 of the replica voters (rounded up), leader implicit.
            OrderingMode::HotStuff => (self.replicas.len() * 2).div_ceil(3).max(1),
        }
    }

    fn launch_batches(&mut self, ctx: &mut dyn Transport<Msg>) {
        loop {
            if self.in_flight.len() >= self.window {
                break;
            }
            // A scheduled topology change owns its block id: seal the
            // marker the moment the stream reaches it, ahead of any
            // workload batch.
            if self.seal_due_reshard(ctx) {
                continue;
            }
            if self.mempool.is_empty() {
                break;
            }
            // Batching discipline: seal a full block, or a partial one
            // only after a full batch interval has passed since the last
            // seal — otherwise a fast ack loop would seal slivers.
            let full = self.mempool.len() >= self.block_txns;
            let ripe = ctx.now().saturating_sub(self.last_seal_ns) >= self.batch_interval_ns;
            if !full && !ripe {
                break;
            }
            let batch = self.mempool.next_batch(self.block_txns);
            let mean_submit_ns =
                batch.iter().map(|t| t.submitted_ns).sum::<u64>() / batch.len() as u64;
            let encoded: Vec<Vec<u8>> = batch
                .iter()
                .map(|t| encode_contract(t.contract.as_ref()))
                .collect();
            self.seal_block(encoded, mean_submit_ns, ctx);
        }
        if !self.mempool.is_empty() && !self.timer_armed {
            ctx.set_timer(self.batch_interval_ns, TIMER_BATCH);
            self.timer_armed = true;
        }
    }

    /// Seal one block over the given payloads and push it into the
    /// replication/voting pipeline — the single seal path shared by
    /// workload batches and topology-change markers, so markers flow
    /// through the identical in-flight/commit machinery on the
    /// simulator and a real transport.
    fn seal_block(
        &mut self,
        encoded: Vec<Vec<u8>>,
        mean_submit_ns: u64,
        ctx: &mut dyn Transport<Msg>,
    ) {
        self.last_seal_ns = ctx.now();
        let sealed = Arc::new(ChainBlock::seal(
            BlockId(self.next_id),
            self.prev_hash,
            encoded,
            &self.keypair,
        ));
        ctx.charge_cpu(self.crypto.hash_ns + self.crypto.sign_ns);
        self.next_id += 1;
        self.prev_hash = sealed.header.hash();
        self.sealed_blocks += 1;
        let seq = sealed.header.id.0;
        let bytes = sealed.encoded_len() as u64;
        self.in_flight.insert(
            seq,
            InFlight {
                block: sealed,
                bytes,
                born_ns: ctx.now(),
                mean_submit_ns,
                acks: 1,
                round: 0,
            },
        );
        match self.mode {
            OrderingMode::Kafka { .. } => {
                if self.followers.is_empty() {
                    self.commit(seq, ctx);
                } else {
                    for &f in &self.followers.clone() {
                        ctx.charge_cpu(bytes * TX_NS_PER_BYTE);
                        ctx.send(f, Msg::Replicate { seq }, bytes);
                    }
                }
            }
            OrderingMode::HotStuff => {
                ctx.charge_cpu(self.crypto.sign_ns);
                for &r in &self.replicas.clone() {
                    ctx.charge_cpu(bytes * TX_NS_PER_BYTE);
                    ctx.send(r, Msg::Prepare { seq, round: 0 }, bytes);
                }
            }
        }
    }

    /// Seal the front of the reshard queue as a marker block if the
    /// stream has reached its height. Returns whether a marker sealed.
    fn seal_due_reshard(&mut self, ctx: &mut dyn Transport<Msg>) -> bool {
        match self.reshard_queue.first() {
            Some(&(height, _)) if height <= self.next_id => {}
            _ => return false,
        }
        let (_, new_shards) = self.reshard_queue.remove(0);
        self.reshard_epoch += 1;
        let marker = ReshardMarker {
            new_shards,
            epoch: self.reshard_epoch,
        };
        // A marker carries no client transactions: its "mean submit
        // time" is its seal time, and it commits zero txns, so latency
        // accounting never sees it.
        self.seal_block(vec![marker.encode()], ctx.now(), ctx);
        true
    }

    /// Operator-driven topology change ([`super::ClusterNode::reshard`]):
    /// queue a marker at the next sealable height after anything already
    /// scheduled, then try to seal immediately. Refused (silently
    /// dropped) on flat clusters and for out-of-range shard counts.
    pub(super) fn schedule_reshard(&mut self, new_shards: u32, ctx: &mut dyn Transport<Msg>) {
        if new_shards == 0 || new_shards > self.reshard_max {
            return;
        }
        let after = self.reshard_queue.last().map_or(0, |&(h, _)| h);
        let height = self.next_id.max(after + 1);
        self.reshard_queue.push((height, new_shards));
        self.launch_batches(ctx);
    }

    fn on_quorum(&mut self, seq: u64, ctx: &mut dyn Transport<Msg>) {
        match self.mode {
            OrderingMode::Kafka { .. } => self.commit(seq, ctx),
            OrderingMode::HotStuff => {
                let Some(entry) = self.in_flight.get_mut(&seq) else {
                    return;
                };
                if entry.round < 2 {
                    entry.round += 1;
                    entry.acks = 0;
                    let round = entry.round;
                    ctx.charge_cpu(self.crypto.sign_ns);
                    for &r in &self.replicas.clone() {
                        ctx.send(r, Msg::Prepare { seq, round }, 256);
                    }
                } else {
                    self.commit(seq, ctx);
                }
            }
        }
    }

    fn commit(&mut self, seq: u64, ctx: &mut dyn Transport<Msg>) {
        let Some(entry) = self.in_flight.remove(&seq) else {
            return;
        };
        let bytes = entry.bytes;
        for &r in &self.replicas {
            ctx.charge_cpu(bytes * TX_NS_PER_BYTE);
            ctx.send(
                r,
                Msg::Deliver {
                    block: Arc::clone(&entry.block),
                    born_ns: entry.born_ns,
                    mean_submit_ns: entry.mean_submit_ns,
                },
                bytes,
            );
        }
        // A freed window slot can immediately seal the next batch.
        self.launch_batches(ctx);
    }
}

/// A Kafka follower broker: append the replicated block to the local
/// broker log and acknowledge it. Stateless, so it is a function.
pub(super) fn follower_on_message(from: usize, msg: Msg, ctx: &mut dyn Transport<Msg>) {
    if let Msg::Replicate { seq } = msg {
        ctx.charge_cpu(50_000);
        ctx.send(from, Msg::Ack { seq }, 64);
    }
}

#[cfg(test)]
mod tests {
    use harmony_chain::ChainBlock;
    use harmony_common::BlockId;
    use harmony_crypto::{CryptoCost, Digest, KeyPair};
    use harmony_shard::ReshardMarker;

    /// The size a sealed block is charged at is the size of its encoding.
    #[test]
    fn a_blocks_encoded_len_is_the_length_of_its_encoding() {
        let key = KeyPair::derive(b"orderer-secret", 1, CryptoCost::free());
        let marker = ReshardMarker {
            new_shards: 4,
            epoch: 1,
        };
        let txns: Vec<Vec<u8>> = (0..100).map(|i| vec![i as u8; 7 + 3 * i]).collect();
        for payload in [vec![], vec![marker.encode()], txns] {
            let block = ChainBlock::seal(BlockId(1), Digest::ZERO, payload, &key);
            assert_eq!(block.encoded_len(), block.encode().len());
        }
    }
}
