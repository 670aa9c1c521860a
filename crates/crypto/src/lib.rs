//! Cryptographic substrate for HarmonyBC.
//!
//! Private blockchains need tamper-evidence (hash-chained blocks, Merkle
//! roots over transactions) and authentication (signatures on endorsements
//! and votes). We implement SHA-256 and HMAC-SHA-256 from scratch — the
//! workspace allows no external crypto crate — and model asymmetric
//! signatures as keyed MACs plus a calibrated CPU-cost constant, which is
//! exactly how crypto enters the paper's evaluation (a per-transaction CPU
//! term; see [`CryptoCost`]).
//!
//! Two things here are about *wall-clock* speed and change no digest:
//!
//! * [`sha256()`] compresses with the CPU's SHA extensions where
//!   `is_x86_feature_detected!` finds them and with the portable scalar
//!   rounds everywhere else; the choice is made from the CPU alone, and
//!   every block hash, Merkle root, MAC, vote digest and state root inherits
//!   it. The one `unsafe` block of the workspace lives there, behind that
//!   check (its soundness argument is in the [`mod@sha256`] module doc).
//! * Every digest of a map row, a Merkle node or a short message is one
//!   compression call over a stack buffer, and
//!   [`AuthMap`] folds a sorted write-set in one descent
//!   ([`AuthMap::apply_sorted`]) that hashes each touched row once, in
//!   96 bytes a row.
//!
//! [`CryptoCost`] is the *virtual* cost of crypto in the paper's evaluation
//! (a 2016 Xeon) and is deliberately independent of both.

pub mod authmap;
pub mod cost;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod signer;

pub use authmap::{AuthMap, AuthMapBuilder, MapProof, MapProofStep};
pub use cost::CryptoCost;
pub use hmac::hmac_sha256;
pub use merkle::{merkle_root, MerkleTree};
pub use sha256::{sha256, Digest, Sha256};
pub use signer::{KeyPair, Signature, Verifier};
