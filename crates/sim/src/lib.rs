//! Virtual-time performance model.
//!
//! Protocols execute *for real* (real aborts, real buffer-pool state, real
//! dependency structures); only elapsed time is virtual: every costed
//! operation reports nanoseconds (`harmony_common::vtime`), and this crate
//! turns per-transaction costs into block makespans and end-to-end
//! throughput/latency:
//!
//! * [`sched`] — deterministic list-scheduling of simulation/commit tasks
//!   onto `W` worker cores, serial-commit stages, centralized orderer
//!   stages, the 2-deep pipeline overlap of inter-block parallelism, and
//!   [`BlockCharge`], the one price of an executed block.
//! * [`driver`] — one call, [`run_experiment`], runs (engine × workload)
//!   for N blocks on a chain or a shard group with abort-retry requeueing
//!   and produces the paper's metrics (throughput, latency, abort rate,
//!   CPU utilization, I/O counters).
//! * [`cluster`] — composes DB-layer metrics with the consensus layer's
//!   throughput/latency envelopes for the replica-count and BFT figures.

pub mod cluster;
pub mod driver;
pub mod sched;

pub use cluster::{ClusterMetrics, ClusterModel};
pub use driver::{run_experiment, RunConfig, RunMetrics, ShardLayout};
/// The engine selector lives with the engines; re-exported because every
/// experiment names its system through this crate.
pub use harmony_dcc_baselines::EngineKind;
pub use sched::{makespan, pipeline_total_ns, schedule_block, BlockCharge, BlockSchedule};
