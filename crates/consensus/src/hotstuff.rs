//! Chained (pipelined) HotStuff — the BFT consensus option of HarmonyBC
//! (Yin et al., PODC 2019).
//!
//! One proposal per view, rotating leaders, votes carried to the *next*
//! leader, quorum certificates, and the 3-chain commit rule. Crypto costs
//! (vote signing, share verification) consume node CPU in the event loop,
//! which is what bounds throughput at large `n` — the paper's explanation
//! for the small BFT throughput dip in Figures 17/18. Every node is
//! honest and always busy, so no run needs a pacemaker or view change
//! (the node crate's cluster orderer is a separate HotStuff).

use std::collections::HashMap;

use harmony_crypto::{CryptoCost, Digest};

use crate::net::{ConsensusReport, DeliveryLog, EventLoop, LatencyModel, SimNode, Transport};

/// HotStuff configuration.
#[derive(Clone, Debug)]
pub struct HotStuffConfig {
    /// Number of consensus nodes (`n = 3f + 1` tolerates `f` faults).
    pub nodes: usize,
    /// Transactions per block.
    pub block_txns: u64,
    /// Serialized transaction size in bytes.
    pub txn_bytes: u64,
    /// Per-byte NIC serialization cost charged to the sender (ns/B).
    pub tx_ns_per_byte: u64,
    /// Network model.
    pub latency: LatencyModel,
}

impl Default for HotStuffConfig {
    fn default() -> Self {
        HotStuffConfig {
            nodes: 4,
            block_txns: 250,
            txn_bytes: 128,
            tx_ns_per_byte: 1,
            latency: LatencyModel::lan_1g(),
        }
    }
}

impl HotStuffConfig {
    fn quorum(&self) -> usize {
        let f = (self.nodes - 1) / 3;
        self.nodes - f
    }
    fn leader_of(&self, view: u64) -> usize {
        (view % self.nodes as u64) as usize
    }
    fn block_bytes(&self) -> u64 {
        self.block_txns * self.txn_bytes + 256
    }
}

/// Messages exchanged by HotStuff nodes.
#[derive(Clone, Debug)]
pub enum HsMsg {
    /// Leader's proposal for `view`, justified by a QC for `justify`.
    Proposal {
        /// Proposed view.
        view: u64,
        /// View the embedded QC certifies.
        justify: u64,
        /// Proposal creation time (for latency measurement).
        born_at: u64,
    },
    /// A vote on `view`, sent to the *next* leader.
    Vote {
        /// Voted view.
        view: u64,
    },
}

/// A HotStuff node.
pub struct HsNode {
    id: usize,
    config: HotStuffConfig,
    crypto: CryptoCost,
    view: u64,
    votes: HashMap<u64, usize>,
    proposal_born: HashMap<u64, u64>,
    /// Committed blocks: (view, commit latency ns). Recorded only at the
    /// node that formed the committing QC (for latency measurement).
    pub committed: Vec<(u64, u64)>,
    /// Verified delivery log of this node: every view it learned committed
    /// (via its own QC or a successor proposal's justify), with the
    /// block's content digest. Honest nodes' logs must agree pairwise.
    pub delivery_log: DeliveryLog,
}

/// Content digest of the synthetic block proposed in `view`.
#[must_use]
pub fn view_digest(view: u64) -> Digest {
    let mut bytes = *b"hotstuff-blk\0\0\0\0\0\0\0\0";
    bytes[12..20].copy_from_slice(&view.to_le_bytes());
    harmony_crypto::sha256(&bytes)
}

impl HsNode {
    fn new(id: usize, config: HotStuffConfig) -> HsNode {
        HsNode {
            id,
            config,
            crypto: CryptoCost::default(),
            view: 0,
            votes: HashMap::new(),
            proposal_born: HashMap::new(),
            committed: Vec::new(),
            delivery_log: DeliveryLog::default(),
        }
    }

    fn propose(&mut self, view: u64, ctx: &mut dyn Transport<HsMsg>) {
        let bytes = self.config.block_bytes();
        self.proposal_born.insert(view, ctx.now());
        // Leader signs the proposal and serializes it to every replica.
        ctx.charge_cpu(self.crypto.sign_ns + self.crypto.hash_ns);
        for peer in 0..self.config.nodes {
            ctx.charge_cpu(bytes * self.config.tx_ns_per_byte);
            if peer != self.id {
                ctx.send(
                    peer,
                    HsMsg::Proposal {
                        view,
                        justify: view.saturating_sub(1),
                        born_at: ctx.now(),
                    },
                    bytes,
                );
            }
        }
        // Leader votes for its own proposal.
        let next_leader = self.config.leader_of(view + 1);
        if next_leader == self.id {
            self.on_vote(view, ctx);
        } else {
            ctx.send(next_leader, HsMsg::Vote { view }, 128);
        }
    }

    fn on_vote(&mut self, view: u64, ctx: &mut dyn Transport<HsMsg>) {
        // Verify the vote share (threshold-signature share verification).
        ctx.charge_cpu(self.crypto.verify_ns / 16);
        let votes = self.votes.entry(view).or_insert(0);
        *votes += 1;
        if *votes == self.config.quorum() {
            // QC formed for `view`; 3-chain commits view − 2.
            if view >= 2 {
                let committed_view = view - 2;
                let latency = ctx.now().saturating_sub(
                    self.proposal_born
                        .remove(&committed_view)
                        .unwrap_or(ctx.now()),
                );
                self.committed.push((committed_view, latency));
                self.delivery_log
                    .observe(committed_view, view_digest(committed_view));
            }
            // Pipelined: immediately lead the next view.
            let next = view + 1;
            if self.config.leader_of(next) == self.id {
                self.view = next;
                self.propose(next, ctx);
            }
        }
    }
}

impl SimNode<HsMsg> for HsNode {
    fn on_message(&mut self, _from: usize, msg: HsMsg, ctx: &mut dyn Transport<HsMsg>) {
        match msg {
            HsMsg::Proposal {
                view,
                justify,
                born_at,
            } => {
                if view < self.view {
                    return;
                }
                // The embedded QC certifies `justify`; under the 3-chain
                // rule that commits `justify − 2` at this replica — the
                // delivery every node records, leader or not.
                if justify >= 2 {
                    self.delivery_log
                        .observe(justify - 2, view_digest(justify - 2));
                }
                self.view = view;
                self.proposal_born.entry(view).or_insert(born_at);
                // Verify the proposal's QC + sign a vote.
                ctx.charge_cpu(self.crypto.verify_ns + self.crypto.sign_ns);
                let next_leader = self.config.leader_of(view + 1);
                if next_leader == self.id {
                    self.on_vote(view, ctx);
                } else {
                    ctx.send(next_leader, HsMsg::Vote { view }, 128);
                }
            }
            HsMsg::Vote { view } => self.on_vote(view, ctx),
        }
    }

    /// The one timer, seeded at the leader of view 1, bootstraps the
    /// chain.
    fn on_timer(&mut self, _id: u64, ctx: &mut dyn Transport<HsMsg>) {
        self.view = 1;
        self.propose(1, ctx);
    }
}

/// Harness running a HotStuff cluster to saturation.
pub struct HotStuffSim {
    config: HotStuffConfig,
}

impl HotStuffSim {
    /// Build the harness.
    #[must_use]
    pub fn new(config: HotStuffConfig) -> HotStuffSim {
        HotStuffSim { config }
    }

    /// Run for `duration_ns` of simulated time and report consensus
    /// throughput/latency.
    #[must_use]
    pub fn run(&self, duration_ns: u64) -> ConsensusReport {
        let nodes: Vec<HsNode> = (0..self.config.nodes)
            .map(|i| HsNode::new(i, self.config.clone()))
            .collect();
        let mut el = EventLoop::new(nodes, self.config.latency.clone(), 0xB0B);
        el.seed_timer(self.config.leader_of(1), 0, 0);
        el.run_until(duration_ns);
        // Each commit is recorded exactly once, at the leader that formed
        // the committing QC — aggregate across nodes.
        let committed: Vec<(u64, u64)> = (0..self.config.nodes)
            .flat_map(|i| el.node(i).committed.iter().copied())
            .collect();
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

    fn quick(nodes: usize, latency: LatencyModel) -> ConsensusReport {
        let config = HotStuffConfig {
            nodes,
            latency,
            ..HotStuffConfig::default()
        };
        HotStuffSim::new(config).run(3_000_000_000)
    }

    #[test]
    fn four_nodes_make_progress_in_lan() {
        let report = quick(4, LatencyModel::lan_1g());
        assert!(report.committed_blocks > 100, "{report:?}");
        assert!(report.throughput_tps > 10_000.0, "{report:?}");
        assert!(report.latency_ms > 0.0);
    }

    #[test]
    fn wan_latency_much_higher_than_lan() {
        let lan = quick(8, LatencyModel::lan_5g());
        let wan = quick(8, LatencyModel::wan_4_continents());
        assert!(
            wan.latency_ms > 10.0 * lan.latency_ms,
            "lan={lan:?} wan={wan:?}"
        );
        assert!(wan.committed_blocks > 0);
    }

    #[test]
    fn consensus_outruns_disk_db_layer() {
        // The Figure 1 claim: even 80-node HotStuff beats the ~3–12 K tps
        // disk database layers by a wide margin.
        let report = quick(16, LatencyModel::lan_5g());
        assert!(
            report.throughput_tps > 30_000.0,
            "consensus must not be the bottleneck: {report:?}"
        );
    }

    #[test]
    fn honest_nodes_agree_on_delivery_logs() {
        let config = HotStuffConfig {
            nodes: 4,
            ..HotStuffConfig::default()
        };
        let nodes: Vec<HsNode> = (0..config.nodes)
            .map(|i| HsNode::new(i, config.clone()))
            .collect();
        let mut el = EventLoop::new(nodes, LatencyModel::lan_1g(), 0xB0B);
        el.seed_timer(config.leader_of(1), 0, 0);
        el.run_until(3_000_000_000);
        let reference = &el.node(0).delivery_log;
        assert!(reference.len() > 100, "{}", reference.len());
        for i in 0..config.nodes {
            let log = &el.node(i).delivery_log;
            assert_eq!(log.mismatches(), 0);
            assert!(
                log.agrees_with(reference),
                "node {i}'s committed sequence diverged"
            );
            // Nodes may trail by the views still in flight at cutoff, but
            // never by more than the 3-chain pipeline depth.
            assert!(
                (log.len() as i64 - reference.len() as i64).abs() <= 3,
                "node {i}: {} vs {} commits",
                log.len(),
                reference.len()
            );
            assert_eq!(log.digest_at(1), Some(view_digest(1)));
        }
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(7, LatencyModel::lan_1g());
        let b = quick(7, LatencyModel::lan_1g());
        assert_eq!(a.committed_blocks, b.committed_blocks);
        assert!((a.latency_ms - b.latency_ms).abs() < f64::EPSILON);
    }
}
