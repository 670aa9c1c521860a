//! Common substrate shared by every HarmonyBC crate.
//!
//! This crate deliberately has no dependency on the rest of the workspace and
//! provides:
//!
//! * strongly-typed identifiers with the paper's global TID ordering
//!   ([`ids`]),
//! * a versioned fixed-width byte codec used by every durable format
//!   ([`codec`]),
//! * a deterministic, seedable random number generator and the Zipfian /
//!   workload distributions built on it ([`rng`], [`zipf`]),
//! * thread-local virtual-time cost accounting used by the benchmark
//!   scheduler ([`vtime`]).

pub mod codec;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod vtime;
pub mod zipf;

pub use error::{Error, Result};
pub use ids::{BlockId, TableId, TxnId, TXNS_PER_BLOCK_MAX};
pub use rng::DetRng;
pub use zipf::Zipfian;
