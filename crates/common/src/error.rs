//! Workspace-wide error type.
//!
//! Every crate returns [`Result`] for fallible operations; variants are
//! grouped by subsystem so call sites can match on the failure class without
//! depending on the originating crate.

use std::fmt;
use std::io;

/// Errors surfaced by the HarmonyBC stack.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure (file-backed disk, log files).
    Io(io::Error),
    /// A durable structure failed integrity verification (checksum, magic,
    /// hash-chain mismatch, …). Carries a human-readable description.
    Corruption(String),
    /// The requested entity does not exist (table, key, block, page).
    NotFound(String),
    /// Caller misuse that is recoverable (e.g. value too large for a page).
    InvalidArgument(String),
    /// A transaction was aborted by the concurrency-control protocol.
    TxnAborted {
        /// Why the protocol aborted it.
        reason: AbortReason,
    },
    /// The storage engine ran out of a bounded resource (buffer frames with
    /// everything pinned, log space, …).
    ResourceExhausted(String),
    /// Consensus-layer failure (no quorum, view-change storm, …).
    Consensus(String),
}

/// Why a concurrency-control protocol aborted a transaction.
///
/// The distinction matters for the paper's false-abort accounting
/// (Figure 13): each protocol aborts on a different dangerous structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Harmony Rule 1: the transaction sits in a backward dangerous
    /// structure of the intra-block rw-subgraph.
    BackwardDangerousStructure,
    /// Harmony Rule 3(ii): an inter-block generalized backward dangerous
    /// structure, resolved against the transaction in the later block.
    InterBlockDangerousStructure,
    /// Aria / RBC first-committer-wins: a ww-dependency on a smaller TID.
    WwConflict,
    /// Aria / Fabric: read an item overwritten by a smaller-TID
    /// transaction (stale read / raw-dependency; Aria aborts it only
    /// with a war-dependency too).
    StaleRead,
    /// RBC / SSI dangerous structure (pivot with in- and out-conflict).
    SsiDangerousStructure,
    /// Fabric SOV: endorsers returned divergent read-write sets and the
    /// client could not assemble a valid endorsement.
    EndorsementMismatch,
    /// FastFabric#: transaction was dropped by the orderer to bound the
    /// dependency graph, or removed to break a genuine cycle.
    GraphCycle,
    /// Sharded execution: a multi-partition transaction lost the
    /// deterministic cross-shard reservation to an earlier conflicting
    /// multi-partition transaction in the same block.
    CrossShardConflict,
    /// The transaction's own logic aborted (e.g. insufficient balance).
    UserAbort,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::BackwardDangerousStructure => "backward dangerous structure",
            AbortReason::InterBlockDangerousStructure => "inter-block dangerous structure",
            AbortReason::WwConflict => "ww-conflict",
            AbortReason::StaleRead => "stale read",
            AbortReason::SsiDangerousStructure => "SSI dangerous structure",
            AbortReason::EndorsementMismatch => "endorsement mismatch",
            AbortReason::GraphCycle => "dependency-graph cycle",
            AbortReason::CrossShardConflict => "cross-shard conflict",
            AbortReason::UserAbort => "user abort",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Corruption(m) => write!(f, "corruption: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            Error::TxnAborted { reason } => write!(f, "transaction aborted: {reason}"),
            Error::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            Error::Consensus(m) => write!(f, "consensus: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenience alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<Error> = vec![
            Error::Io(io::Error::other("boom")),
            Error::Corruption("bad page".into()),
            Error::NotFound("table 9".into()),
            Error::InvalidArgument("oversized".into()),
            Error::TxnAborted {
                reason: AbortReason::WwConflict,
            },
            Error::ResourceExhausted("buffer pool".into()),
            Error::Consensus("no quorum".into()),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_converts() {
        fn f() -> Result<()> {
            Err(io::Error::new(io::ErrorKind::NotFound, "x"))?;
            Ok(())
        }
        assert!(matches!(f(), Err(Error::Io(_))));
    }

    #[test]
    fn abort_reasons_distinct_display() {
        use AbortReason::*;
        let all = [
            BackwardDangerousStructure,
            InterBlockDangerousStructure,
            WwConflict,
            StaleRead,
            SsiDangerousStructure,
            EndorsementMismatch,
            GraphCycle,
            CrossShardConflict,
            UserAbort,
        ];
        let mut seen = std::collections::HashSet::new();
        for r in all {
            assert!(seen.insert(r.to_string()), "duplicate display for {r:?}");
        }
    }
}
