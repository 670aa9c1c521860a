//! Cluster-level composition: DB layer × consensus layer.
//!
//! The paper's replica-count and geo-distribution figures (15–18) measure
//! how the *end-to-end* system scales: OE chains ship small transaction
//! commands and their replicas work independently (flat scaling), while
//! SOV chains ship full read-write sets whose fan-out eats the ordering
//! service's bandwidth (degrading scaling). Consensus throughput/latency
//! envelopes come from the real HotStuff/Kafka simulations.

use std::borrow::Cow;

use harmony_consensus::net::LatencyModel;
use harmony_consensus::{ConsensusReport, HotStuffConfig, HotStuffSim, KafkaConfig, KafkaSim};
use harmony_dcc_baselines::Architecture;

use crate::driver::RunMetrics;

/// End-to-end metrics for one (system, cluster) point.
#[derive(Clone, Debug)]
pub struct ClusterMetrics {
    /// System name. Borrowed for the plain engines; owned for composed
    /// configurations (e.g. `"HarmonyBC×8shards"`) labelling their own
    /// series.
    pub system: Cow<'static, str>,
    /// Number of replicas.
    pub replicas: usize,
    /// End-to-end committed throughput (min of DB layer and ordering).
    pub throughput_tps: f64,
    /// End-to-end latency: ordering + database processing (ms).
    pub latency_ms: f64,
    /// The consensus layer's own envelope.
    pub consensus: ConsensusReport,
}

/// Consensus options for the cluster model.
#[derive(Clone, Debug)]
pub enum ClusterModel {
    /// Kafka-style CFT ordering service.
    Kafka {
        /// Network model.
        latency: LatencyModel,
    },
    /// Chained HotStuff BFT (consensus nodes = replicas).
    HotStuff {
        /// Network model.
        latency: LatencyModel,
    },
}

impl ClusterModel {
    /// Compose a DB-layer measurement with the ordering layer for a
    /// cluster of `replicas` nodes.
    ///
    /// `txn_bytes` is what the ordering service ships per transaction:
    /// ~128 B commands for OE; the full read-write set (~1.3 KiB for
    /// 10-operation transactions) for SOV.
    #[must_use]
    pub fn compose(
        &self,
        db: &RunMetrics,
        arch: Architecture,
        replicas: usize,
        block_txns: u64,
    ) -> ClusterMetrics {
        let txn_bytes = per_txn_bytes(arch);
        // The ordering service batches independently of the execution
        // block size (many DB blocks per consensus instance), so its
        // batches are large; WAN rounds would otherwise starve it.
        let consensus_batch = block_txns.max(4_000);
        // 6 s of simulated consensus time.
        let duration = 6_000_000_000;
        // The sender-side serialization cost tracks the network model's
        // per-byte bandwidth term (the ordering node's NIC is the shared
        // resource the fan-out saturates).
        let tx_ns_per_byte = ns_per_byte_of(self).max(1);
        let consensus = match self {
            ClusterModel::Kafka { latency } => KafkaSim::new(KafkaConfig {
                replicas,
                block_txns: consensus_batch,
                txn_bytes,
                tx_ns_per_byte,
                latency: latency.clone(),
            })
            .run(duration),
            ClusterModel::HotStuff { latency } => HotStuffSim::new(HotStuffConfig {
                nodes: replicas.max(4),
                block_txns: consensus_batch,
                txn_bytes,
                tx_ns_per_byte,
                latency: latency.clone(),
            })
            .run(duration),
        };
        // SOV pays an extra client round trip (simulate → client → order).
        let client_trips_ms = match arch {
            Architecture::Sov => 2.0 * first_hop_ms(self),
            Architecture::Oe => 0.0,
        };
        let throughput_tps = db.throughput_tps.min(consensus.throughput_tps);
        ClusterMetrics {
            system: db.system.clone(),
            replicas,
            throughput_tps,
            latency_ms: db.latency_ms + consensus.latency_ms + client_trips_ms,
            consensus,
        }
    }
}

/// Bytes the ordering service ships per transaction for each architecture.
///
/// OE ships the bare transaction command; SOV ships the full endorsed
/// read-write set — keys, versions, written values and the endorsers'
/// certificates/signatures (~6 KiB for a 10-operation transaction with two
/// endorsements, in line with Fabric proposal-response sizes).
#[must_use]
pub fn per_txn_bytes(arch: Architecture) -> u64 {
    match arch {
        Architecture::Oe => 128,
        Architecture::Sov => 6_144,
    }
}

fn ns_per_byte_of(model: &ClusterModel) -> u64 {
    let latency = match model {
        ClusterModel::Kafka { latency } | ClusterModel::HotStuff { latency } => latency,
    };
    match latency {
        harmony_consensus::net::LatencyModel::Lan { ns_per_byte, .. }
        | harmony_consensus::net::LatencyModel::Wan { ns_per_byte, .. } => *ns_per_byte,
    }
}

fn first_hop_ms(model: &ClusterModel) -> f64 {
    let latency = match model {
        ClusterModel::Kafka { latency } | ClusterModel::HotStuff { latency } => latency,
    };
    latency.delay_ns(0, 1, 1_000) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::BlockStats;

    fn db(tps: f64, latency_ms: f64) -> RunMetrics {
        RunMetrics {
            system: Cow::Borrowed("HarmonyBC"),
            throughput_tps: tps,
            latency_ms,
            stats: BlockStats::default(),
            ..RunMetrics::default()
        }
    }

    #[test]
    fn db_layer_is_the_bottleneck() {
        // Figure 1's claim: consensus throughput >> DB throughput, so the
        // end-to-end rate equals the DB rate.
        let model = ClusterModel::Kafka {
            latency: LatencyModel::lan_1g(),
        };
        let m = model.compose(&db(8_000.0, 20.0), Architecture::Oe, 4, 250);
        assert!(m.consensus.throughput_tps > 20_000.0, "{m:?}");
        assert!((m.throughput_tps - 8_000.0).abs() < 1.0);
    }

    #[test]
    fn sov_fanout_degrades_with_replicas() {
        // The Figure 15/16 shape: with a realistic DB-layer rate, OE
        // end-to-end throughput is flat in the replica count (small
        // command messages never become the bottleneck), while SOV's
        // read-write-set fan-out drops below the DB rate at large N.
        let model = ClusterModel::Kafka {
            latency: LatencyModel::lan_5g(),
        };
        let db_layer = db(7_000.0, 10.0);
        let oe_few = model.compose(&db_layer, Architecture::Oe, 4, 100);
        let oe_many = model.compose(&db_layer, Architecture::Oe, 80, 100);
        assert!(
            (oe_many.throughput_tps - oe_few.throughput_tps).abs() < 200.0,
            "OE must stay flat: few={oe_few:?} many={oe_many:?}"
        );
        let sov_few = model.compose(&db_layer, Architecture::Sov, 4, 100);
        let sov_many = model.compose(&db_layer, Architecture::Sov, 80, 100);
        assert!(
            sov_many.throughput_tps < sov_few.throughput_tps * 0.7,
            "SOV must degrade: few={sov_few:?} many={sov_many:?}"
        );
    }

    #[test]
    fn hotstuff_wan_latency_grows() {
        let lan = ClusterModel::HotStuff {
            latency: LatencyModel::lan_5g(),
        };
        let wan = ClusterModel::HotStuff {
            latency: LatencyModel::wan_4_continents(),
        };
        let m_lan = lan.compose(&db(8_000.0, 20.0), Architecture::Oe, 8, 250);
        let m_wan = wan.compose(&db(8_000.0, 20.0), Architecture::Oe, 8, 250);
        assert!(
            m_wan.latency_ms > 2.0 * m_lan.latency_ms,
            "lan={m_lan:?} wan={m_wan:?}"
        );
        // Throughput stays DB-bound even on the WAN (the Figure 17 claim).
        assert!((m_wan.throughput_tps - 8_000.0).abs() < 500.0, "{m_wan:?}");
    }

    #[test]
    fn sov_pays_client_round_trips() {
        let model = ClusterModel::Kafka {
            latency: LatencyModel::lan_1g(),
        };
        let sov = model.compose(&db(5_000.0, 10.0), Architecture::Sov, 4, 100);
        let oe = model.compose(&db(5_000.0, 10.0), Architecture::Oe, 4, 100);
        assert!(sov.latency_ms > oe.latency_ms);
    }
}
