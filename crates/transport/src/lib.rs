//! Real-network transport for the HarmonyBC cluster.
//!
//! Everything below the consensus/replica logic that the deterministic
//! simulator abstracts away, made real:
//!
//! * [`wire`] — a self-describing, length-prefixed binary codec for
//!   the cluster message enum and the operator control plane, built on
//!   the workspace's existing contract/block/snapshot serialization.
//! * [`tcp`] — [`tcp::NodeRuntime`]: one OS process hosting one
//!   cluster node (client bank, orderer, follower, or replica) behind
//!   the consensus [`harmony_consensus::net::Transport`] seam. The node
//!   sits behind one lock; the thread that read a burst of frames runs
//!   their handlers and writes what they sent, one non-blocking `write`
//!   per peer. A timer thread fires wall-clock timers, per-peer
//!   connectors (re)connect, and control requests are answered by the
//!   reader of the connection they came in on.
//! * [`http`] — a tiny per-node observability endpoint (`/metrics` in
//!   Prometheus text format, `/timeline` JSON, `/healthz`), served by
//!   the runtime's own accept loop: its listener, connections and
//!   threads are the runtime's, registered, closed and joined like the
//!   cluster port's.
//! * [`ctl`] — the operator clients `harmonyctl` drives:
//!   [`ctl::CtlClient`] (status, block inspection, crash/recover,
//!   metrics, shutdown) and [`ctl::SubmitClient`] (stream workload
//!   transactions to the orderer from the cluster's client slot).
//!
//! The load-bearing property: a process cluster runs the *identical*
//! node code path the simulator runs, so for a deterministic workload
//! (single client session, count-driven sealing) the committed state
//! roots over real sockets must equal the simulator's bit-for-bit.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ctl;
pub mod http;
pub mod tcp;
pub mod wire;

pub use ctl::{CtlClient, SubmitClient};
pub use http::http_get;
pub use tcp::{NodeRuntime, NodeRuntimeConfig, PEER_BACKLOG_BYTES};
pub use wire::{
    decode_ctl, encode_ctl, frame_tag, is_ctl_tag, CtlMsg, FrameBuf, WireCodec, MAX_FRAME_BYTES,
    READ_BUF_BYTES, WIRE_VERSION,
};
