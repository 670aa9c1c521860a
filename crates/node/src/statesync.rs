//! The state-sync protocol: how a lagging replica catches up from a peer.
//!
//! **One shape for every replica.** A request carries the requester's
//! height on each chain it hosts, in shard order — a flat replica hosts
//! one chain and sends one height. The reply ([`ShardedSyncResponse`]) is
//! the peer's position on the global chain (height, global block hash,
//! topology epoch) plus one part per chain the peer hosts, and one
//! function, [`serve`], produces it for both replica kinds. Installing a
//! part is one method too: every chain, flat or shard, takes its part
//! through [`OeChain::catch_up`], which owns the install rules. Only what
//! surrounds it differs: a flat replica takes exactly one part
//! ([`apply_sync`]); a sharded one takes a part per shard, reshapes on a
//! part-count mismatch, adopts the peer's epoch and re-anchors its
//! in-memory global position ([`apply_sharded_sync`]). Both then drain
//! their buffered deliveries.
//!
//! Each part takes one of two paths, chosen per chain by the serving
//! peer:
//!
//! 1. **Checkpoint manifest transfer** — when the requester is so far
//!    behind that block-range replay is impossible (it predates the
//!    peer's own local history) or uneconomical (the gap exceeds
//!    `SNAPSHOT_THRESHOLD` = 64 blocks), the peer ships a
//!    [`StateSnapshot`] of the chain's state at its current height.
//! 2. **Block-range replay** — otherwise the peer serves its verified
//!    block log after the requester's height and the requester replays it
//!    deterministically.
//!
//! Chains are judged independently, so after a crash one shard can take
//! the manifest path (its checkpoint never landed) while a sibling
//! replays a verified sub-block range. A request whose height count does
//! not match the peer's chain count — a requester on the far side of a
//! reshard, a misconfigured or hostile one — has every chain served from
//! scratch; a reply whose part count a requester cannot install is a
//! typed error, and the requester fails over.
//!
//! All responses carry real serialized sizes so the discrete-event
//! network charges honest transfer time.

use harmony_chain::sync::StateSnapshot;
use harmony_chain::{ChainBlock, OeChain};
use harmony_common::rng::mix64;
use harmony_common::{BlockId, Error, Result};
use harmony_crypto::Digest;

use crate::replica::ReplicaNode;
use crate::sharded::ShardedReplicaNode;

/// Gaps larger than this many blocks are served as a snapshot rather
/// than a replay range.
const SNAPSHOT_THRESHOLD: u64 = 64;

/// Requester-side failure policy: how long to wait for a sync reply, how
/// the wait grows across attempts, and when to stop trying one cycle.
///
/// A request that times out (serving peer down, request or reply dropped
/// by the network) or is refused (peer alive but not serviceable) is
/// retried against the *next* candidate peer with an exponentially grown,
/// jittered wait — classic timeout/backoff/failover, but every quantity
/// is a pure function of (seed, replica, attempt) so the schedule is
/// bit-reproducible.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Wait for the first attempt's reply before retrying, in virtual ns.
    pub base_timeout_ns: u64,
    /// Upper bound on the exponentially grown wait.
    pub max_backoff_ns: u64,
    /// Attempts per sync cycle before the requester gives up and waits
    /// for the liveness watchdog to start a fresh cycle.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout_ns: 4_000_000, // 4 ms — a LAN round-trip plus serve time
            max_backoff_ns: 64_000_000, // cap the exponential at 64 ms
            max_retries: 8,
        }
    }
}

impl RetryPolicy {
    /// The wait before declaring attempt `attempt` (0-based) failed:
    /// `base · 2^attempt`, capped at `max_backoff_ns`, plus a
    /// deterministic jitter of up to 25% (decorrelates retry storms
    /// across replicas without a shared RNG). Pure in every argument —
    /// same `(policy, attempt, seed, salt)` always yields the same wait,
    /// which is what keeps faulted runs bit-reproducible.
    #[must_use]
    pub fn backoff_ns(&self, attempt: u32, seed: u64, salt: u64) -> u64 {
        let exp = attempt.min(20); // 2^20 · base already dwarfs any cap
        let grown = self
            .base_timeout_ns
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ns.max(self.base_timeout_ns));
        // splitmix64 mixing, like the net layer's jitter.
        let x = mix64(
            seed ^ 0xA076_1D64_78BD_642F
                ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        grown + x % (grown / 4).max(1)
    }
}

/// One chain's part of a sync reply.
#[derive(Clone, Debug)]
pub enum SyncResponse {
    /// Replay these verified blocks (all with id > the requested height).
    Range(Vec<ChainBlock>),
    /// Install this manifest, then replay the (possibly empty) tail.
    Snapshot(Box<StateSnapshot>, Vec<ChainBlock>),
}

/// Modeled size of the reply's anchor header, and of each part's.
const HEADER_BYTES: u64 = 64;

/// Serve one chain: decide manifest vs range by the gap and the chain's
/// own local history.
fn serve_chain(chain: &OeChain, from: BlockId) -> Result<SyncResponse> {
    let (base, _) = chain.base();
    let gap = chain.height().0.saturating_sub(from.0);
    if from.0 == 0 || from < base || gap > SNAPSHOT_THRESHOLD {
        // A height-0 requester may have lost its genesis state entirely
        // (crash before the first checkpoint), the requester may predate
        // this peer's local history, or the gap is too wide: ship the
        // full manifest. No tail blocks are needed — the snapshot is at
        // the peer's current height.
        let snapshot = chain.export_snapshot()?;
        Ok(SyncResponse::Snapshot(Box::new(snapshot), Vec::new()))
    } else {
        Ok(SyncResponse::Range(chain.blocks_after(from)?))
    }
}

/// A peer's answer to a sync request: one independently decided
/// manifest-or-range part per chain it hosts, all ending at the peer's
/// common height, plus the global-chain anchor a sharded requester lost
/// in the crash. (The name predates flat replicas sharing the shape: a
/// flat peer's reply is the one-part case.)
#[derive(Clone, Debug)]
pub struct ShardedSyncResponse {
    /// The peer's global height every part catches the requester up to.
    pub height: BlockId,
    /// Hash of the global block at `height` (the requester's new anchor).
    pub global_hash: Digest,
    /// The peer's topology epoch at `height`. A requester that crashed
    /// across one or more reshard boundaries misses those markers
    /// entirely (the manifest path never replays them), so the reply
    /// carries the authoritative epoch and the requester adopts it —
    /// monotonically, in case it raced past a stale reply. Always 0 from
    /// a flat peer.
    pub epoch: u64,
    /// One part per chain, in shard order.
    pub parts: Vec<SyncResponse>,
}

impl ShardedSyncResponse {
    /// Modeled `(manifest, range)` bytes of the reply, from one
    /// serialization pass over it. Manifest bytes are every shipped
    /// [`StateSnapshot`] plus its part header; range bytes are every
    /// shipped block, the headers of range parts, and the anchor header.
    /// The two are summed up separately, never subtracted, so whatever a
    /// peer ships — hollow manifests, empty ranges — they partition
    /// [`Self::transfer_bytes`] exactly and cannot underflow.
    #[must_use]
    pub fn byte_split(&self) -> (u64, u64) {
        let (mut manifest, mut range) = (0, HEADER_BYTES);
        for part in &self.parts {
            let blocks = match part {
                SyncResponse::Range(blocks) => {
                    range += HEADER_BYTES;
                    blocks
                }
                SyncResponse::Snapshot(snapshot, blocks) => {
                    manifest += snapshot.encode().len() as u64 + HEADER_BYTES;
                    blocks
                }
            };
            range += blocks.iter().map(|b| b.encoded_len() as u64).sum::<u64>();
        }
        (manifest, range)
    }

    /// Modeled transfer size in bytes.
    #[must_use]
    pub fn transfer_bytes(&self) -> u64 {
        let (manifest, range) = self.byte_split();
        manifest + range
    }

    /// Number of blocks shipped across all parts.
    #[must_use]
    pub fn block_count(&self) -> usize {
        let blocks = |part: &SyncResponse| match part {
            SyncResponse::Range(blocks) | SyncResponse::Snapshot(_, blocks) => blocks.len(),
        };
        self.parts.iter().map(blocks).sum()
    }
}

/// Serve a sync request from a replica standing at `height` /
/// `global_hash` / topology `epoch` and hosting `chains`: judge every
/// chain independently against the requester's heights `from`. The
/// caller must be fully caught up itself (anchored, chains level) — the
/// cluster only routes sync requests to stable replicas.
pub fn serve(
    height: BlockId,
    global_hash: Digest,
    epoch: u64,
    chains: &[OeChain],
    from: &[BlockId],
) -> Result<ShardedSyncResponse> {
    // A height-count mismatch means the requester sits on the far side of
    // a topology-change (reshard) boundary — or is misconfigured, or
    // hostile: its heights are meaningless under this peer's layout, so
    // every chain is served from scratch (full manifest). The reply's
    // part count tells the requester the layout it must reshape into.
    let crossed_epoch = from.len() != chains.len();
    let parts = chains
        .iter()
        .enumerate()
        .map(|(s, chain)| {
            let at = if crossed_epoch { BlockId(0) } else { from[s] };
            serve_chain(chain, at)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ShardedSyncResponse {
        height,
        global_hash,
        epoch,
        parts,
    })
}

impl SyncResponse {
    /// The part as [`OeChain::catch_up`] takes it: the manifest, if any,
    /// and the tail.
    fn split(&self) -> (Option<&StateSnapshot>, &[ChainBlock]) {
        match self {
            SyncResponse::Range(tail) => (None, tail),
            SyncResponse::Snapshot(manifest, tail) => (Some(manifest), tail),
        }
    }
}

/// What applying a sync reply did at the requester.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedSyncApplied {
    /// Height gained, summed over the chains (a manifest counts as its
    /// height jump), plus the buffered deliveries that drained after.
    pub blocks: u64,
    /// Chains served a checkpoint manifest.
    pub manifest_shards: u64,
    /// Chains served a block range.
    pub range_shards: u64,
}

impl ShardedSyncApplied {
    /// Book one chain that took `part` and gained `blocks`.
    fn add(&mut self, part: &SyncResponse, blocks: u64) {
        self.blocks += blocks;
        match part {
            SyncResponse::Range(_) => self.range_shards += 1,
            SyncResponse::Snapshot(..) => self.manifest_shards += 1,
        }
    }
}

/// Apply a sync reply at a flat replica: its one part goes into the
/// replica's chain (which carries its own anchor, so the reply's is not
/// needed), then buffered deliveries drain. A reply with any other part
/// count came from a peer that is not a flat replica and cannot be
/// installed.
pub fn apply_sync(
    replica: &mut ReplicaNode,
    response: &ShardedSyncResponse,
) -> Result<ShardedSyncApplied> {
    let [part] = response.parts.as_slice() else {
        return Err(Error::InvalidArgument(format!(
            "a flat replica cannot install a sync reply of {} parts",
            response.parts.len()
        )));
    };
    let (manifest, tail) = part.split();
    let mut applied = ShardedSyncApplied::default();
    applied.add(part, replica.catch_up(manifest, tail)?);
    applied.blocks += replica.drain_pending()?.len() as u64;
    Ok(applied)
}

/// Apply a sync reply at a sharded replica: every shard's chain takes its
/// part, then the replica's global position is re-anchored at the peer's
/// height and buffered deliveries drain. Returns what happened per path
/// (the crash-rejoin tests assert both paths were actually exercised).
pub fn apply_sharded_sync(
    replica: &mut ShardedReplicaNode,
    response: &ShardedSyncResponse,
) -> Result<ShardedSyncApplied> {
    if response.parts.len() != replica.shards() {
        // The serving peer is on the other side of a reshard boundary:
        // adopt its layout (fresh chains, recounted router) and take the
        // full-manifest parts it served. A reply that claims a different
        // count but still ships ranges is malformed and fails below with
        // a typed error — never a panic.
        if response.parts.is_empty() {
            return Err(Error::InvalidArgument(
                "sharded sync response with zero parts".into(),
            ));
        }
        replica.reshape_for_sync(response.parts.len())?;
    }
    let mut applied = ShardedSyncApplied::default();
    for (s, part) in response.parts.iter().enumerate() {
        let (manifest, tail) = part.split();
        applied.add(part, replica.group_mut().catch_up(s, manifest, tail)?);
    }
    replica.adopt_epoch(response.epoch);
    let drained = replica.finish_sync(response.height, response.global_hash)?;
    applied.blocks += drained.len() as u64;
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_sim::EngineKind;
    use std::sync::Arc;

    use crate::testkit::{feed, flat_replica, sealed_stream, sharded_config, sharded_replica};

    /// A Harmony replica that applied the first `blocks` of the shared
    /// stream, checkpointing every 5.
    fn replica_at(blocks: usize) -> ReplicaNode {
        let mut r = flat_replica(EngineKind::Harmony(Default::default()), 5);
        feed(&mut r, &sealed_stream(blocks, 10));
        r
    }

    #[test]
    fn backoff_schedule_is_deterministic() {
        let p = RetryPolicy::default();
        for attempt in 0..12 {
            for salt in [0u64, 3, 7] {
                assert_eq!(
                    p.backoff_ns(attempt, 0xDEAD, salt),
                    p.backoff_ns(attempt, 0xDEAD, salt),
                    "same inputs must yield the same wait"
                );
            }
        }
        // Different seeds / salts decorrelate the jitter.
        assert_ne!(
            p.backoff_ns(1, 0xDEAD, 2),
            p.backoff_ns(1, 0xBEEF, 2),
            "seed must perturb the jitter"
        );
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy {
            base_timeout_ns: 1_000_000,
            max_backoff_ns: 8_000_000,
            max_retries: 8,
        };
        let wait = |a| p.backoff_ns(a, 42, 0);
        // Jitter is < 25%, so consecutive doublings still strictly grow.
        assert!(wait(1) > wait(0), "attempt 1 waits longer than attempt 0");
        assert!(wait(2) > wait(1));
        // Bounds: base·2^a ≤ wait < 1.25 · base·2^a (pre-cap)…
        assert!(wait(0) >= 1_000_000 && wait(0) < 1_250_000);
        assert!(wait(2) >= 4_000_000 && wait(2) < 5_000_000);
        // …and the growth saturates at the cap (+ jitter).
        for a in [3, 10, 31] {
            assert!(wait(a) >= 8_000_000 && wait(a) < 10_000_000, "capped");
        }
        // Overflow safety at absurd attempt counts.
        let _ = p.backoff_ns(u32::MAX, 42, 0);
    }

    /// Serve `from` the way a flat replica's wrapper does: one chain, the
    /// chain's own tip as the anchor, topology epoch 0.
    fn serve_flat(peer: &ReplicaNode, from: &[BlockId]) -> ShardedSyncResponse {
        serve(
            peer.height(),
            peer.chain().last_hash(),
            0,
            std::slice::from_ref(peer.chain()),
            from,
        )
        .unwrap()
    }

    #[test]
    fn small_gap_served_as_range_large_gap_as_snapshot() {
        let peer = replica_at(12);
        let near = serve_flat(&peer, &[BlockId(8)]);
        assert_eq!(near.height, BlockId(12));
        assert_eq!(near.global_hash, peer.chain().last_hash());
        assert_eq!(near.epoch, 0);
        assert!(matches!(
            near.parts.as_slice(),
            [SyncResponse::Range(b)] if b.len() == 4
        ));
        let far = serve_flat(&peer, &[BlockId(0)]);
        assert!(matches!(far.parts.as_slice(), [SyncResponse::Snapshot(..)]));
        assert!(far.transfer_bytes() > 0);
    }

    #[test]
    fn transfer_bytes_split_exactly_by_path() {
        let peer = replica_at(12);
        // Range path: all bytes are range bytes.
        let range = serve_flat(&peer, &[BlockId(8)]);
        let (manifest_bytes, range_bytes) = range.byte_split();
        assert_eq!(manifest_bytes, 0);
        assert_eq!(range_bytes, range.transfer_bytes());
        assert!(range_bytes > 2 * HEADER_BYTES, "blocks plus both headers");
        // Manifest path: the manifest dominates, and the two shares
        // partition the total exactly.
        let snap = serve_flat(&peer, &[BlockId(0)]);
        let (manifest_bytes, range_bytes) = snap.byte_split();
        assert!(manifest_bytes > range_bytes);
        assert_eq!(range_bytes, HEADER_BYTES, "only the anchor header");
        assert_eq!(manifest_bytes + range_bytes, snap.transfer_bytes());
    }

    #[test]
    fn range_bytes_saturates_on_corrupted_reply() {
        // A corrupted (or future-version) reply can degenerate to parts
        // that are all manifest, or all nothing: the range share must
        // never underflow — and the exact-partition invariant
        // `manifest + range == transfer_bytes` must hold on every reply a
        // node can decode, well-formed or not.
        let hollow = StateSnapshot {
            position: harmony_chain::ChainPosition::default(),
            tables: Vec::new(),
        };
        let reply = |parts| ShardedSyncResponse {
            height: BlockId(7),
            global_hash: Digest::ZERO,
            epoch: 0,
            parts,
        };
        let all_manifest = reply(vec![SyncResponse::Snapshot(
            Box::new(hollow.clone()),
            Vec::new(),
        )]);
        let (manifest_bytes, range_bytes) = all_manifest.byte_split();
        assert_eq!(range_bytes, HEADER_BYTES, "nothing but the anchor header");
        assert_eq!(manifest_bytes + range_bytes, all_manifest.transfer_bytes());
        // A part mix a hostile peer could ship (hollow manifests and an
        // empty range), and no parts at all.
        let mixed = reply(vec![
            SyncResponse::Snapshot(Box::new(hollow), Vec::new()),
            SyncResponse::Range(Vec::new()),
        ]);
        let (manifest_bytes, range_bytes) = mixed.byte_split();
        assert_eq!(manifest_bytes + range_bytes, mixed.transfer_bytes());
        assert_eq!(range_bytes, 2 * HEADER_BYTES, "anchor + range-part header");
        assert_eq!(reply(Vec::new()).byte_split(), (0, HEADER_BYTES));
    }

    #[test]
    fn wrong_part_or_height_count_is_a_typed_error_or_a_from_scratch_manifest() {
        let peer = replica_at(12);
        // A 2-height request to a flat server (a sharded or hostile
        // requester): its heights mean nothing here, so the one chain is
        // served from scratch — even though both heights are in range.
        let reply = serve_flat(&peer, &[BlockId(10), BlockId(11)]);
        assert!(matches!(
            reply.parts.as_slice(),
            [SyncResponse::Snapshot(..)]
        ));
        assert!(matches!(
            serve_flat(&peer, &[]).parts.as_slice(),
            [SyncResponse::Snapshot(..)]
        ));
        // A 2-part (or 0-part) reply to a flat requester: refused with a
        // typed error before anything is installed.
        let mut joiner = replica_at(3);
        let root = joiner.state_root().unwrap();
        let part = || SyncResponse::Range(Vec::new());
        for parts in [vec![part(), part()], Vec::new()] {
            let two = ShardedSyncResponse {
                parts,
                ..reply.clone()
            };
            assert!(matches!(
                apply_sync(&mut joiner, &two),
                Err(Error::InvalidArgument(_))
            ));
        }
        assert_eq!(joiner.height(), BlockId(3));
        assert_eq!(joiner.state_root().unwrap(), root);
    }

    #[test]
    fn snapshot_sync_bootstraps_a_fresh_replica() {
        let blocks = sealed_stream(11, 10);
        let mut peer = replica_at(10);
        let resp = serve_flat(&peer, &[BlockId(0)]);
        // install_snapshot requires an empty database: the joiner holds
        // no genesis data (state comes entirely from the peer).
        let mut joiner_fresh = flat_replica(EngineKind::Harmony(Default::default()), 5);
        joiner_fresh.wipe_for_resync().unwrap();
        let applied = apply_sync(&mut joiner_fresh, &resp).unwrap();
        assert_eq!(
            applied,
            ShardedSyncApplied {
                blocks: 10,
                manifest_shards: 1,
                range_shards: 0
            }
        );
        assert_eq!(joiner_fresh.height(), peer.height());
        assert_eq!(
            joiner_fresh.state_root().unwrap(),
            peer.state_root().unwrap()
        );
        // And it keeps up with subsequent sealed blocks.
        peer.deliver(Arc::clone(&blocks[10])).unwrap();
        joiner_fresh.deliver(Arc::clone(&blocks[10])).unwrap();
        assert_eq!(
            joiner_fresh.state_root().unwrap(),
            peer.state_root().unwrap()
        );
    }

    #[test]
    fn a_manifest_no_newer_than_the_replica_changes_nothing() {
        let blocks = sealed_stream(8, 10);
        let reply = serve_flat(&replica_at(4), &[BlockId(0)]);
        assert!(matches!(
            reply.parts.as_slice(),
            [SyncResponse::Snapshot(..)]
        ));
        for at in [4, 6] {
            // Deliveries carried the replica to (or past) the manifest
            // while the reply was in flight; block 8 waits in the buffer.
            let mut r = replica_at(at);
            r.deliver(Arc::clone(&blocks[7])).unwrap();
            let root = r.state_root().unwrap();
            let applied = apply_sync(&mut r, &reply).unwrap();
            assert_eq!(
                applied,
                ShardedSyncApplied {
                    blocks: 0,
                    manifest_shards: 1,
                    range_shards: 0
                }
            );
            assert_eq!(r.height(), BlockId(at as u64), "at {at}");
            assert_eq!(r.state_root().unwrap(), root, "at {at}");
            assert_eq!(r.front().pending_gap(), 1, "at {at}");
        }
    }

    #[test]
    fn a_manifest_with_a_tail_counts_each_gained_block_once() {
        let blocks = sealed_stream(7, 10);
        let config = sharded_config(EngineKind::Rbc, 2);
        let mut peer = sharded_replica(&config);
        for b in &blocks[..4] {
            peer.deliver(Arc::clone(b)).unwrap();
        }
        let manifests: Vec<_> = (peer.chains().iter())
            .map(|c| c.export_snapshot().unwrap())
            .collect();
        for b in &blocks[4..] {
            peer.deliver(Arc::clone(b)).unwrap();
        }
        // Each shard is served its manifest at 4 and the sub-blocks 5–7.
        let parts = (peer.chains().iter().zip(manifests))
            .map(|(chain, manifest)| {
                let tail = chain.blocks_after(BlockId(4)).unwrap();
                SyncResponse::Snapshot(Box::new(manifest), tail)
            })
            .collect();
        let reply = ShardedSyncResponse {
            height: peer.height(),
            global_hash: peer.global_hash().unwrap(),
            epoch: 0,
            parts,
        };
        // A requester one block in: not fresh, so each shard reopens.
        let mut joiner = sharded_replica(&config);
        joiner.deliver(Arc::clone(&blocks[0])).unwrap();
        assert!(joiner.chains().iter().all(|c| c.height() == BlockId(1)));
        let applied = apply_sharded_sync(&mut joiner, &reply).unwrap();
        let gained: u64 = joiner.chains().iter().map(|c| c.height().0 - 1).sum();
        assert_eq!(gained, 2 * 6);
        assert_eq!(
            applied,
            ShardedSyncApplied {
                blocks: gained,
                manifest_shards: 2,
                range_shards: 0
            }
        );
        assert_eq!(joiner.height(), BlockId(7));
        assert_eq!(joiner.sharded_root().unwrap(), peer.sharded_root().unwrap());
    }
}
