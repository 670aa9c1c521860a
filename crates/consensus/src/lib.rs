//! Consensus layer: the ordering services HarmonyBC plugs in (§4 of the
//! paper) and the machinery to measure their throughput/latency envelopes
//! (Figures 1, 17, 18).
//!
//! * [`net`] — a deterministic discrete-event network simulator with
//!   per-link latency models (LAN, 4-continent WAN) and per-node CPU
//!   accounting (crypto costs consume node time).
//! * [`hotstuff`] — chained (pipelined) HotStuff BFT: rotating leaders,
//!   quorum certificates and the 3-chain commit rule, run to saturation
//!   with every node honest.
//! * [`kafka`] — a crash-fault-tolerant leader-based ordering service in
//!   the style of Fabric's Kafka orderer: batch, replicate to followers,
//!   ack on majority, deliver.

pub mod hotstuff;
pub mod kafka;
pub mod net;

pub use hotstuff::{HotStuffConfig, HotStuffSim};
pub use kafka::{KafkaConfig, KafkaSim};
pub use net::{ConsensusReport, LatencyModel, Region};
