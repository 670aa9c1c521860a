//! Kafka-style crash-fault-tolerant ordering service — HarmonyBC's default
//! consensus layer (§4), mirroring Fabric's Kafka orderer.
//!
//! A leader broker batches transactions, replicates each batch to its
//! followers, commits on majority ack, and delivers the sealed block to
//! every chain replica. Three brokers, and a pipelining window of four
//! batches in flight.

use std::collections::HashMap;

use harmony_crypto::Digest;

use crate::net::{ConsensusReport, DeliveryLog, EventLoop, LatencyModel, SimNode, Transport};

/// Replication factor (leader + followers).
const BROKERS: usize = 3;

/// Max batches in flight (pipelining window).
const WINDOW: usize = 4;

/// Kafka orderer configuration.
#[derive(Clone, Debug)]
pub struct KafkaConfig {
    /// Chain replicas receiving sealed blocks.
    pub replicas: usize,
    /// Transactions per block.
    pub block_txns: u64,
    /// Serialized transaction size in bytes.
    pub txn_bytes: u64,
    /// Per-byte NIC serialization cost charged to the sender (ns/B).
    pub tx_ns_per_byte: u64,
    /// Network model.
    pub latency: LatencyModel,
}

impl Default for KafkaConfig {
    fn default() -> Self {
        KafkaConfig {
            replicas: 4,
            block_txns: 250,
            txn_bytes: 128,
            tx_ns_per_byte: 1,
            latency: LatencyModel::lan_1g(),
        }
    }
}

impl KafkaConfig {
    fn block_bytes(&self) -> u64 {
        self.block_txns * self.txn_bytes + 128
    }
}

/// Messages in the ordering cluster.
#[derive(Clone, Debug)]
pub enum KMsg {
    /// Leader → follower: replicate batch `seq`.
    Replicate {
        /// Batch sequence number.
        seq: u64,
        /// Batch creation time.
        born_at: u64,
    },
    /// Follower → leader ack.
    Ack {
        /// Batch sequence number.
        seq: u64,
        /// Batch creation time.
        born_at: u64,
    },
    /// Leader → chain replica: sealed block (sequence + content digest).
    Deliver {
        /// Batch sequence number.
        seq: u64,
        /// Digest of the sealed block's contents.
        digest: Digest,
    },
}

/// Broker / replica node. Node 0 is the leader; nodes `1..BROKERS` are
/// follower brokers; the rest are chain replicas.
pub struct KNode {
    id: usize,
    config: KafkaConfig,
    acks: HashMap<u64, usize>,
    next_seq: u64,
    in_flight: usize,
    /// Committed batches at the leader: (seq, latency ns).
    pub committed: Vec<(u64, u64)>,
    /// Verified delivery log of this chain replica: every sealed block it
    /// received, in order, with its content digest. Replicas fed the same
    /// ordering must hold identical logs.
    pub delivery_log: DeliveryLog,
}

/// Content digest of the leader's synthetic batch `seq` — what the sealed
/// block's hash would be. Replicas recompute it to verify deliveries.
#[must_use]
pub fn batch_digest(seq: u64) -> Digest {
    let mut bytes = *b"kafka-batch-\0\0\0\0\0\0\0\0";
    bytes[12..20].copy_from_slice(&seq.to_le_bytes());
    harmony_crypto::sha256(&bytes)
}

impl KNode {
    fn new(id: usize, config: KafkaConfig) -> KNode {
        KNode {
            id,
            config,
            acks: HashMap::new(),
            next_seq: 0,
            in_flight: 0,
            committed: Vec::new(),
            delivery_log: DeliveryLog::default(),
        }
    }

    fn launch_batch(&mut self, ctx: &mut dyn Transport<KMsg>) {
        let bytes = self.config.block_bytes();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight += 1;
        self.acks.insert(seq, 1); // the leader's own log append
        for follower in 1..BROKERS {
            ctx.charge_cpu(bytes * self.config.tx_ns_per_byte);
            ctx.send(
                follower,
                KMsg::Replicate {
                    seq,
                    born_at: ctx.now(),
                },
                bytes,
            );
        }
    }
}

impl SimNode<KMsg> for KNode {
    fn on_message(&mut self, _from: usize, msg: KMsg, ctx: &mut dyn Transport<KMsg>) {
        match msg {
            KMsg::Replicate { seq, born_at } => {
                // Follower appends to its log (disk write cost folded into
                // CPU) and acks.
                ctx.charge_cpu(50_000);
                ctx.send(0, KMsg::Ack { seq, born_at }, 64);
            }
            KMsg::Ack { seq, born_at } => {
                let acks = self.acks.entry(seq).or_insert(0);
                *acks += 1;
                // Committed on a majority of the brokers.
                if *acks == BROKERS / 2 + 1 {
                    self.committed
                        .push((seq, ctx.now().saturating_sub(born_at)));
                    // Deliver the sealed block to every chain replica.
                    let bytes = self.config.block_bytes();
                    let digest = batch_digest(seq);
                    for r in 0..self.config.replicas {
                        let node = BROKERS + r;
                        ctx.charge_cpu(bytes * self.config.tx_ns_per_byte);
                        ctx.send(node, KMsg::Deliver { seq, digest }, bytes);
                    }
                    self.in_flight -= 1;
                    while self.in_flight < WINDOW {
                        self.launch_batch(ctx);
                    }
                }
            }
            KMsg::Deliver { seq, digest } => {
                // Verify the delivered block against the recomputable
                // content digest before admitting it to the log.
                debug_assert_eq!(digest, batch_digest(seq), "tampered delivery");
                self.delivery_log.observe(seq, digest);
            }
        }
    }

    fn on_timer(&mut self, _id: u64, ctx: &mut dyn Transport<KMsg>) {
        if self.id == 0 && self.next_seq == 0 {
            while self.in_flight < WINDOW {
                self.launch_batch(ctx);
            }
        }
    }
}

/// Harness running a saturated Kafka ordering cluster.
pub struct KafkaSim {
    config: KafkaConfig,
}

impl KafkaSim {
    /// Build the harness.
    #[must_use]
    pub fn new(config: KafkaConfig) -> KafkaSim {
        KafkaSim { config }
    }

    /// Run for `duration_ns` of simulated time.
    #[must_use]
    pub fn run(&self, duration_ns: u64) -> ConsensusReport {
        let total = BROKERS + self.config.replicas;
        let nodes: Vec<KNode> = (0..total)
            .map(|i| KNode::new(i, self.config.clone()))
            .collect();
        let mut el = EventLoop::new(nodes, self.config.latency.clone(), 0xCAFE);
        el.seed_timer(0, 0, 0);
        el.run_until(duration_ns);
        let committed = &el.node(0).committed;
        let blocks = committed.len() as u64;
        let mean_latency_ns = if committed.is_empty() {
            0.0
        } else {
            committed.iter().map(|(_, l)| *l as f64).sum::<f64>() / committed.len() as f64
        };
        ConsensusReport {
            throughput_tps: blocks as f64 * self.config.block_txns as f64
                / (duration_ns as f64 / 1e9),
            latency_ms: mean_latency_ns / 1e6,
            committed_blocks: blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(replicas: usize, latency: LatencyModel) -> ConsensusReport {
        KafkaSim::new(KafkaConfig {
            replicas,
            latency,
            ..KafkaConfig::default()
        })
        .run(3_000_000_000)
    }

    #[test]
    fn makes_progress_and_saturates() {
        let report = run(4, LatencyModel::lan_1g());
        assert!(report.committed_blocks > 500, "{report:?}");
        assert!(report.throughput_tps > 50_000.0, "{report:?}");
    }

    #[test]
    fn kafka_latency_below_hotstuff() {
        use crate::hotstuff::{HotStuffConfig, HotStuffSim};
        let kafka = run(4, LatencyModel::lan_1g());
        let hs = HotStuffSim::new(HotStuffConfig {
            nodes: 4,
            ..HotStuffConfig::default()
        })
        .run(3_000_000_000);
        assert!(
            kafka.latency_ms < hs.latency_ms,
            "CFT ordering needs fewer round trips: kafka={kafka:?} hs={hs:?}"
        );
    }

    #[test]
    fn fanout_to_more_replicas_reduces_throughput() {
        let small = run(4, LatencyModel::lan_1g());
        let big = run(80, LatencyModel::lan_1g());
        assert!(
            big.throughput_tps < small.throughput_tps,
            "delivery fan-out costs leader bandwidth: small={small:?} big={big:?}"
        );
        // But it stays far above the disk DB layer (~3–12 K tps).
        assert!(big.throughput_tps > 20_000.0, "{big:?}");
    }

    #[test]
    fn replicas_observe_identical_delivery_sequences() {
        let config = KafkaConfig {
            replicas: 3,
            ..KafkaConfig::default()
        };
        let total = BROKERS + config.replicas;
        let nodes: Vec<KNode> = (0..total).map(|i| KNode::new(i, config.clone())).collect();
        let mut el = EventLoop::new(nodes, LatencyModel::lan_1g(), 1);
        el.seed_timer(0, 0, 0);
        el.run_until(1_000_000_000);
        let reference = &el.node(BROKERS).delivery_log;
        assert!(reference.len() > 100, "{}", reference.len());
        for r in 0..3 {
            let log = &el.node(BROKERS + r).delivery_log;
            assert!(log.is_gap_free(), "replica {r} has delivery gaps");
            assert_eq!(log.mismatches(), 0);
            // Identical sequences, modulo the last delivery that may still
            // be in flight to some replicas at the simulation cutoff.
            assert!(
                log.agrees_with(reference)
                    && (log.len() as i64 - reference.len() as i64).abs() <= 1,
                "replica {r} diverged: {} vs {} entries",
                log.len(),
                reference.len()
            );
            assert_eq!(log.digest_at(0), Some(batch_digest(0)));
        }
    }

    #[test]
    fn deterministic() {
        let a = run(8, LatencyModel::lan_5g());
        let b = run(8, LatencyModel::lan_5g());
        assert_eq!(a.committed_blocks, b.committed_blocks);
    }
}
