//! Baseline DCC protocols the paper evaluates HarmonyBC against.
//!
//! Every protocol implements [`DccEngine`] over the same snapshot store and
//! block format as Harmony, and all five share one block path
//! ([`protocol`]): each transaction is simulated against a snapshot by
//! [`harmony_txn::simulate`], a protocol-specific rule decides which
//! read-write sets commit and how they are applied, and the counters are
//! tallied once by [`harmony_core::BlockStats::tally`]. No engine numbers
//! blocks: the chain hosting it refuses a block that is not next.
//!
//! * [`aria`] — **AriaBC**: Aria's reservation-based ODCC with its
//!   deterministic-reordering optimization always on (abort on a
//!   ww-dependency, or on a raw- and a war-dependency together). Parallel
//!   commit.
//! * [`rbc`] — **RBC**: order-execute with serial SSI-style validation
//!   (first-updater-wins + dangerous-structure pivots), serial commit.
//! * [`fabric`] — **Fabric**: simulate-order-validate with endorsement
//!   divergence (a second endorser lagging up to [`fabric::MAX_LAG`]
//!   blocks) and MVCC stale-read validation, serial commit.
//! * [`fastfabric`] — **FastFabric#**: SOV plus an orderer-side dependency
//!   graph that eliminates false aborts at the cost of an unparallelizable
//!   graph traversal (and drops transactions once the graph holds
//!   [`fastfabric::MAX_GRAPH_EDGES`] edges).
//! * [`harmony_engine`] — adapter exposing Harmony itself through the same
//!   [`DccEngine`] interface.
//!
//! [`engines`] names the five and builds them: one selector
//! ([`EngineKind`]), one constructor ([`EngineSpec::build`]) for the
//! flat and the sharded profile. What no figure varies is a constant.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aria;
pub mod engines;
pub mod fabric;
pub mod fastfabric;
pub mod harmony_engine;
pub mod protocol;
pub mod rbc;

pub use aria::Aria;
pub use engines::{EngineKind, EngineSpec};
pub use fabric::{Fabric, FabricConfig};
pub use fastfabric::FastFabric;
pub use harmony_engine::HarmonyEngine;
pub use protocol::{Architecture, DccEngine, ProtocolBlockResult};
pub use rbc::Rbc;
