//! Everything that crosses a link between cluster nodes — [`Msg`] — and
//! the timer ids a node sets on itself.

use std::sync::Arc;

use harmony_chain::ChainBlock;
use harmony_common::BlockId;
use harmony_crypto::Digest;
use harmony_txn::Contract;

use crate::statesync::ShardedSyncResponse;

/// The cluster's message enum — everything that crosses a link between
/// cluster nodes, on the simulator *or* on a real transport.
///
/// `harmony-transport` gives every variant a length-prefixed binary wire
/// form (version byte + per-variant tag), which is why the enum and its
/// payload types are public: the wire codec lives outside this crate but
/// must name them.
#[derive(Clone)]
pub enum Msg {
    /// Client → orderer: one transaction submission.
    Submit {
        /// Submitting client session.
        client: u64,
        /// The client's session nonce.
        nonce: u64,
        /// Submission timestamp (latency accounting).
        submitted_ns: u64,
        /// The contract itself (travels encoded on a real wire).
        contract: Arc<dyn Contract>,
    },
    /// Leader → follower broker (Kafka replication).
    Replicate {
        /// Block sequence being replicated.
        seq: u64,
    },
    /// Follower → leader.
    Ack {
        /// Acknowledged block sequence.
        seq: u64,
    },
    /// Leader → replica voter (HotStuff round `round` of 3).
    Prepare {
        /// Block sequence under vote.
        seq: u64,
        /// Voting round (0..3).
        round: u8,
    },
    /// Voter → leader.
    Vote {
        /// Block sequence voted on.
        seq: u64,
        /// Voting round the vote belongs to.
        round: u8,
    },
    /// Orderer → replica: the sealed block.
    Deliver {
        /// The sealed, signed block.
        block: Arc<ChainBlock>,
        /// Seal time (ordering-latency accounting).
        born_ns: u64,
        /// Mean submission timestamp of the batch (e2e latency).
        mean_submit_ns: u64,
    },
    /// Replica → replica: state root at a gossip height.
    RootGossip {
        /// Gossip height (block id).
        height: u64,
        /// The gossiped state root.
        root: Digest,
    },
    /// Lagging replica → peer. `epoch` tags the requester's sync attempt
    /// so stale replies (late after a timeout-driven failover) are
    /// discarded.
    SyncRequest {
        /// The requester's height on each chain it hosts, in shard order
        /// (a flat replica hosts one).
        from: Vec<BlockId>,
        /// The requester's sync-attempt epoch.
        epoch: u64,
    },
    /// Peer → lagging replica.
    SyncReply {
        /// The served anchor plus one manifest-or-range part per chain.
        response: Arc<ShardedSyncResponse>,
        /// Echo of the request's epoch.
        epoch: u64,
    },
    /// Peer → lagging replica: explicit serve refusal (the peer is
    /// itself syncing, or shedding serve work under a refusal-fault
    /// window). The requester fails over immediately instead of waiting
    /// out its timeout.
    SyncRefused {
        /// Echo of the request's epoch.
        epoch: u64,
    },
    /// Orderer → client bank: a retryable admission reject (cause in
    /// [`crate::mempool::AdmitError::cause_label`] terms). Carries the
    /// contract so the client can resubmit after backoff with its
    /// original submission timestamp.
    Reject {
        /// Rejected client session.
        client: u64,
        /// Rejected nonce.
        nonce: u64,
        /// Original submission timestamp.
        submitted_ns: u64,
        /// The contract, returned for resubmission.
        contract: Arc<dyn Contract>,
    },
}

pub(super) const TIMER_CLIENT: u64 = 1;
pub(super) const TIMER_BATCH: u64 = 2;
/// Timer id that crashes a replica when fired (fault schedules seed it;
/// a real-transport control plane injects it for operator-driven crash).
pub const TIMER_CRASH: u64 = 3;
/// Timer id that recovers a crashed replica: local checkpoint recovery,
/// then state-sync catch-up from a peer.
pub const TIMER_RECOVER: u64 = 4;
/// Periodic metrics-timeline snapshot (fires on the orderer, which owns
/// the shared registry).
pub(super) const TIMER_METRICS: u64 = 5;
/// Per-replica liveness watchdog (armed on fault runs only).
pub(super) const TIMER_WATCHDOG: u64 = 6;
/// Root-poison injection point ([`crate::FaultEvent::PoisonRoot`]).
pub(super) const TIMER_POISON: u64 = 7;
/// Client-bank resubmission wakeup.
pub(super) const TIMER_RETRY: u64 = 8;
/// State-sync request timeout; the sync epoch is added so a late timer
/// from a superseded attempt can be told apart from the live one.
pub(super) const TIMER_SYNC_BASE: u64 = 1 << 32;
