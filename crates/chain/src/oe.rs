//! The Order-Execute chain — HarmonyBC when driven by the Harmony engine.
//!
//! Flow per block (§4 of the paper):
//!
//! 1. Seal the block (hash-chain + Merkle root + orderer MAC).
//! 2. **Logical logging**: persist the sealed input block *before*
//!    execution — determinism makes replay sufficient for recovery.
//! 3. Execute through the [`DccEngine`] the chain was opened with.
//! 4. Every `p` blocks: checkpoint (flush dirty pages, write the manifest,
//!    and persist the *recovery sidecar*: the last block's undo images and
//!    Rule-3 summary, so replay under inter-block parallelism reproduces
//!    the original snapshots and aborts bit-for-bit).
//!
//! Recovery loads the newest checkpoint, verifies the hash chain of the
//! persisted blocks, and re-executes everything after the checkpoint.
//!
//! The chain is the one guard of block order. Engines hold no block id and
//! execute the block they are handed; the chain refuses a delivered block
//! that does not follow its height (`InvalidArgument`, before anything is
//! logged), and [`OeChain::verify_chain`] refuses a gap in the replayed
//! log (`Corruption`). Apply and replay then share one step, so the
//! engine is called from one place.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use harmony_common::codec::{Reader, Writer};
use harmony_common::{BlockId, Error, Result};
use harmony_core::executor::{BlockSummary, ExecBlock, WriterInfo};
use harmony_core::SnapshotStore;
use harmony_crypto::{CryptoCost, Digest, KeyPair, MapProof, MerkleTree, Verifier};
use harmony_dcc_baselines::{DccEngine, EngineSpec, ProtocolBlockResult};
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_txn::{Contract, ContractCodec, Key, RangePredicate, Value};

use crate::block::ChainBlock;
use crate::commit::StateCommitment;

/// Chain configuration. Which engine executes the blocks is not part of
/// it: that is the second argument of [`OeChain::open`].
#[derive(Clone, Debug)]
pub struct ChainConfig {
    /// Storage engine configuration.
    pub storage: StorageConfig,
    /// Checkpoint period `p` in blocks (paper example: 10).
    pub checkpoint_every: u64,
    /// Cluster provisioning secret (node authentication).
    pub provision: Vec<u8>,
    /// This orderer's identity.
    pub orderer_id: u64,
    /// Crypto cost model.
    pub crypto: CryptoCost,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            storage: StorageConfig::default(),
            checkpoint_every: 10,
            provision: b"harmonybc-cluster".to_vec(),
            orderer_id: 0,
            crypto: CryptoCost::default(),
        }
    }
}

impl ChainConfig {
    /// All-in-memory, zero-latency configuration for tests/examples.
    #[must_use]
    pub fn in_memory() -> ChainConfig {
        ChainConfig {
            storage: StorageConfig::memory(),
            crypto: CryptoCost::free(),
            ..ChainConfig::default()
        }
    }
}

/// Hash of the full database state — replicas fed the same blocks must
/// produce identical roots (replica consistency).
///
/// This is the **audit oracle**: it rebuilds the authenticated commitment
/// from a full scan of every table (names length-prefixed in the top-level
/// fold, rows committed through per-table [`harmony_crypto::AuthMap`]s).
/// A live [`OeChain`] never pays this scan on the hot path — its
/// [`OeChain::state_root`] returns the incrementally maintained root, which
/// history independence guarantees equals this oracle bit for bit.
pub fn state_root(engine: &StorageEngine) -> Result<Digest> {
    Ok(StateCommitment::build(engine)?.root())
}

/// Fold per-shard state roots into one tamper-evident top-level root.
///
/// Under sharded execution each shard maintains its own partition of the
/// database, so the replica-consistency digest becomes two-level: a state
/// root per shard (ordered by shard index), folded through a Merkle tree.
/// Any single-shard divergence changes the top root, and a light client can
/// still check one shard's state against the chain with a `log₂(shards)`
/// inclusion proof.
#[must_use]
pub fn sharded_state_root(shard_roots: &[Digest]) -> Digest {
    let leaves: Vec<[u8; 32]> = shard_roots.iter().map(|d| d.0).collect();
    MerkleTree::build(&leaves).root()
}

/// A row inclusion proof plus the `(table name, table root)` heads that
/// fold to the state root — what [`OeChain::prove_row`] hands a light
/// client.
pub type RowProof = (MapProof, Vec<(String, Digest)>);

/// An Order-Execute private blockchain node.
///
/// Its last summary ([`OeChain::last_summary`]) is the one holder of the
/// Rule-3 summary: recorded in every checkpoint sidecar and sync manifest,
/// and handed to the engine with every block, so no engine keeps a copy.
pub struct OeChain {
    config: ChainConfig,
    engine: Arc<StorageEngine>,
    snapshots: Arc<SnapshotStore>,
    dcc: Arc<dyn DccEngine>,
    /// What `dcc` was built from, and is rebuilt from after a crash (the
    /// checkpointed and the total-loss kind alike).
    spec: EngineSpec,
    keypair: KeyPair,
    verifier: Verifier,
    height: BlockId,
    last_hash: Digest,
    last_summary: Option<BlockSummary>,
    /// Incrementally maintained authenticated state commitment. `None`
    /// until the first root is needed (genesis workload loading writes to
    /// the engine directly, so an eager build at open would go stale);
    /// once built, every applied block folds its write-set in and
    /// [`OeChain::state_root`] is O(1).
    commitment: Mutex<Option<StateCommitment>>,
    /// Earliest state this node holds locally: `(height, hash)` of the
    /// block its history starts after. `(0, ZERO)` for a genesis-born
    /// node; the snapshot point for a node bootstrapped via state-sync
    /// (its block log only holds blocks *after* the base).
    base: (BlockId, Digest),
}

impl OeChain {
    /// Open a node that executes blocks with `spec`'s engine — HarmonyBC,
    /// or AriaBC, RBC and the SOV engines on the same chain framework, as
    /// the paper does. The chain keeps `spec` and rebuilds the engine from
    /// it when a crash replaces the snapshot store the engine reads, so it
    /// always recovers onto the engine it ran. For recovery with
    /// re-execution use [`OeChain::crash_and_recover`].
    pub fn open(config: ChainConfig, spec: EngineSpec) -> Result<OeChain> {
        let engine = Arc::new(StorageEngine::open(&config.storage)?);
        let snapshots = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
        let dcc = spec.build(Arc::clone(&snapshots));
        let keypair = KeyPair::derive(&config.provision, config.orderer_id, config.crypto);
        let verifier = Verifier::new(&config.provision, config.crypto);
        Ok(OeChain {
            config,
            engine,
            snapshots,
            dcc,
            spec,
            keypair,
            verifier,
            height: BlockId(0),
            last_hash: Digest::ZERO,
            last_summary: None,
            commitment: Mutex::new(None),
            base: (BlockId(0), Digest::ZERO),
        })
    }

    /// Drop all local state: the chain starts over fresh (height 0, empty
    /// catalog), opened from its own configuration and engine spec, so it
    /// keeps its checkpoint period and engine.
    pub fn reopen(&mut self) -> Result<()> {
        *self = OeChain::open(self.config.clone(), self.spec)?;
        Ok(())
    }

    /// The storage engine (for workload setup / inspection).
    #[must_use]
    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    /// The snapshot store.
    #[must_use]
    pub fn snapshots(&self) -> &Arc<SnapshotStore> {
        &self.snapshots
    }

    /// The active DCC engine.
    #[must_use]
    pub fn dcc(&self) -> &Arc<dyn DccEngine> {
        &self.dcc
    }

    /// What the active engine was built from.
    #[must_use]
    pub fn spec(&self) -> EngineSpec {
        self.spec
    }

    /// Current chain height.
    #[must_use]
    pub fn height(&self) -> BlockId {
        self.height
    }

    /// Hash of the latest block.
    #[must_use]
    pub fn last_hash(&self) -> Digest {
        self.last_hash
    }

    /// `(height, hash)` of the block this node's local history starts
    /// after — non-zero on a replica bootstrapped by state-sync.
    #[must_use]
    pub fn base(&self) -> (BlockId, Digest) {
        self.base
    }

    /// The Rule-3 summary of the last executed block (Harmony only) —
    /// what the next block is validated against.
    #[must_use]
    pub fn last_summary(&self) -> Option<&BlockSummary> {
        self.last_summary.as_ref()
    }

    /// The chain's active configuration.
    #[must_use]
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Seal the next block of transactions — what the ordering service
    /// does before delivery. Does not execute.
    #[must_use]
    pub fn seal_block(&self, txns: &[Arc<dyn Contract>], codec: &dyn ContractCodec) -> ChainBlock {
        let encoded: Vec<Vec<u8>> = txns.iter().map(|t| codec.encode(t.as_ref())).collect();
        ChainBlock::seal(self.height.next(), self.last_hash, encoded, &self.keypair)
    }

    /// Submit the next block of transactions: seal, log, execute — the
    /// single-node path where orderer and replica are the same process.
    pub fn submit_block(
        &mut self,
        txns: Vec<Arc<dyn Contract>>,
        codec: &dyn ContractCodec,
    ) -> Result<(ChainBlock, ProtocolBlockResult)> {
        let sealed = self.seal_block(&txns, codec);
        let result = self.apply_block_inner(&sealed, txns)?;
        Ok((sealed, result))
    }

    /// Consume a sealed block delivered by an ordering service: verify its
    /// linkage and signature, log it, decode the payloads through `codec`,
    /// and execute — the replica-side half of the Order-Execute loop.
    pub fn apply_sealed_block(
        &mut self,
        sealed: &ChainBlock,
        codec: &dyn ContractCodec,
    ) -> Result<ProtocolBlockResult> {
        let txns: Result<Vec<Arc<dyn Contract>>> =
            sealed.txns.iter().map(|b| codec.decode(b)).collect();
        self.apply_block_inner(sealed, txns?)
    }

    /// Shared seal-consumption path: refuse a block that is not next,
    /// verify, log before execution, execute and advance, checkpoint on
    /// period. The id check is the one guard of block order: engines
    /// execute whatever block they are handed.
    fn apply_block_inner(
        &mut self,
        sealed: &ChainBlock,
        txns: Vec<Arc<dyn Contract>>,
    ) -> Result<ProtocolBlockResult> {
        let id = sealed.header.id;
        if id != self.height.next() {
            return Err(Error::InvalidArgument(format!(
                "block {id} delivered out of order (expected {})",
                self.height.next()
            )));
        }
        sealed.verify(&self.last_hash, &self.verifier)?;
        // Logical logging: persist the input block before execution.
        self.engine.block_log().append(&sealed.encode())?;
        self.engine.block_log().sync()?;

        let result = self.execute_and_advance(sealed, txns)?;
        if id.0.is_multiple_of(self.config.checkpoint_every) {
            self.checkpoint()?;
        }
        Ok(result)
    }

    /// Execute a verified block on the engine against the last block's
    /// summary, fold its writes into the commitment and advance height,
    /// hash and summary past it — the step apply and recovery's replay
    /// share, and the one place the chain calls its engine. The block's
    /// summary moves out of the result into `last_summary`.
    fn execute_and_advance(
        &mut self,
        block: &ChainBlock,
        txns: Vec<Arc<dyn Contract>>,
    ) -> Result<ProtocolBlockResult> {
        let id = block.header.id;
        let mut result = self
            .dcc
            .execute_block(&ExecBlock { id, txns }, self.last_summary.as_ref())?;
        self.fold_commitment(id)?;
        self.height = id;
        self.last_hash = block.header.hash();
        self.last_summary = result.summary.take();
        Ok(result)
    }

    /// Fold block `id`'s write-set, with the after-images the snapshot
    /// store kept, into the commitment (if one is built): no row is read.
    /// Must run during apply of `id` itself: the per-shard block logs that
    /// record the write-set are GC'd once the *next* block executes.
    fn fold_commitment(&self, id: BlockId) -> Result<()> {
        let mut guard = self.commitment.lock().expect("commitment lock");
        if let Some(c) = guard.as_mut() {
            c.fold_writes(&self.engine, &self.snapshots.writes_in(id)?)?;
        }
        Ok(())
    }

    /// Replay a verified range of sealed blocks in order — the replay
    /// half of [`OeChain::catch_up`]. Blocks at or below the current
    /// height are skipped (idempotent), so a peer's full suffix can be
    /// handed over as-is. Returns the number of blocks actually applied.
    pub fn replay_range(
        &mut self,
        blocks: &[ChainBlock],
        codec: &dyn ContractCodec,
    ) -> Result<usize> {
        let mut applied = 0;
        for block in blocks {
            if block.header.id <= self.height {
                continue;
            }
            self.apply_sealed_block(block, codec)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Force a checkpoint now. Also the point where the commitment is
    /// first materialized: a checkpointed chain always records its state
    /// root in the sidecar, so recovery can verify the rebuilt state.
    pub fn checkpoint(&mut self) -> Result<()> {
        let root = self.state_root()?;
        self.engine.checkpoint(self.height)?;
        // Recovery sidecar: chain position + the trailing blocks' undo
        // images / version history + Rule-3 summary + state root.
        let undo = export_recent_undo(&self.snapshots, self.height);
        let sidecar = encode_sidecar(
            self.height,
            &self.last_hash,
            &undo,
            self.last_summary.as_ref(),
            Some(&root),
        );
        self.engine.wal().append(&sidecar)?;
        self.engine.wal().sync()?;
        Ok(())
    }

    /// Hash of the full database state — the cached root of the
    /// incrementally maintained commitment. O(1) on a warm chain; the
    /// first call (or the first after recovery reset) pays one full scan
    /// to build the per-table maps. Bit-identical to the full-scan oracle
    /// [`state_root`].
    pub fn state_root(&self) -> Result<Digest> {
        let mut guard = self.commitment.lock().expect("commitment lock");
        if guard.is_none() {
            *guard = Some(StateCommitment::build(&self.engine)?);
        }
        Ok(guard.as_mut().expect("just built").root())
    }

    /// True when the commitment is already materialized, i.e. the next
    /// [`OeChain::state_root`] is O(1). Callers folding many shards use
    /// this to decide whether building is worth parallelizing.
    #[must_use]
    pub fn root_is_cached(&self) -> bool {
        self.commitment.lock().expect("commitment lock").is_some()
    }

    /// Inclusion proof for one row against the current commitment, plus
    /// the `(table name, table root)` heads tying it to the state root —
    /// the light-client query surface. Returns `None` if the row is
    /// absent.
    pub fn prove_row(
        &self,
        table: harmony_common::ids::TableId,
        row: &[u8],
    ) -> Result<Option<RowProof>> {
        self.state_root()?; // ensure the commitment is built
        let guard = self.commitment.lock().expect("commitment lock");
        let c = guard.as_ref().expect("built above");
        Ok(c.prove_row(table, row).map(|p| (p, c.table_heads())))
    }

    /// Verify the persisted chain: decode every logged block and walk the
    /// hash chain from this node's base, checking Merkle roots and orderer
    /// signatures.
    pub fn verify_chain(&self) -> Result<Vec<ChainBlock>> {
        let records = self.engine.block_log().read_all()?;
        let mut prev = self.base.1;
        let mut next_id = self.base.0.next();
        let mut blocks = Vec::with_capacity(records.len());
        for rec in &records {
            let block = ChainBlock::decode(rec)?;
            if block.header.id != next_id {
                return Err(Error::Corruption(format!(
                    "block log gap: found {} expected {next_id}",
                    block.header.id
                )));
            }
            block.verify(&prev, &self.verifier)?;
            prev = block.header.hash();
            next_id = next_id.next();
            blocks.push(block);
        }
        Ok(blocks)
    }

    /// Verified blocks strictly after `from` — what a replica serves to a
    /// lagging peer replaying a range.
    pub fn blocks_after(&self, from: BlockId) -> Result<Vec<ChainBlock>> {
        let mut blocks = self.verify_chain()?;
        blocks.retain(|b| b.header.id > from);
        Ok(blocks)
    }

    /// Crash this node (drop caches and unsynced state) and recover:
    /// reload the checkpoint, then deterministically re-execute every
    /// logged block after it. The DCC engine is rebuilt over the new
    /// snapshot store from the spec the chain was opened with, so
    /// AriaBC/RBC/Fabric chains recover onto their own engine kind; the
    /// Rule-3 summary comes back from the checkpoint's sidecar.
    ///
    /// A node that never checkpointed has lost its entire database (the
    /// genesis load included), so there is no base state to replay onto:
    /// recovery honestly lands back at this node's base height with an
    /// empty catalog, ready for a state-sync bootstrap — it must NOT
    /// replay logged blocks onto the wiped state and claim success.
    pub fn crash_and_recover(&mut self, codec: &dyn ContractCodec) -> Result<()> {
        self.engine.crash_and_recover()?;
        let checkpoint = self.engine.last_checkpoint();

        // Rebuild the snapshot overlay, and the engine that reads it; the
        // overlay and the Rule-3 summary then come from the sidecar.
        self.snapshots = Arc::new(SnapshotStore::new(Arc::clone(&self.engine)));
        self.dcc = self.spec.build(Arc::clone(&self.snapshots));
        self.last_summary = None;
        *self.commitment.lock().expect("commitment lock") = None;
        let Some(checkpoint) = checkpoint else {
            // Total loss: no manifest survived the crash, so the catalog
            // (genesis load included) is gone. Drop the stale block log —
            // its blocks are unreplayable without base state — and reset
            // to an empty genesis, ready for a state-sync bootstrap.
            self.engine.block_log().truncate()?;
            self.base = (BlockId(0), Digest::ZERO);
            self.height = BlockId(0);
            self.last_hash = Digest::ZERO;
            return Ok(());
        };
        let mut checkpoint_hash = None;
        let mut checkpoint_root = None;
        if checkpoint.0 > 0 {
            let sidecars = self.engine.wal().read_all()?;
            let latest = sidecars.iter().rev().find_map(|s| {
                decode_sidecar(s)
                    .ok()
                    .filter(|(b, _, _, _, _)| *b == checkpoint)
            });
            if let Some((_, hash, undo, summary, root)) = latest {
                import_recent_undo(&self.snapshots, &undo);
                self.last_summary = summary;
                checkpoint_hash = Some(hash);
                checkpoint_root = root;
            }
        }

        // Rebuild the state commitment over the recovered checkpoint state
        // and verify it against the root the sidecar recorded: a mismatch
        // means the recovered pages do not hold the state the checkpoint
        // committed to.
        let mut commitment = StateCommitment::build(&self.engine)?;
        if let Some(expected) = checkpoint_root {
            let rebuilt = commitment.root();
            if rebuilt != expected {
                return Err(Error::Corruption(format!(
                    "recovered state root {} != checkpointed {}",
                    rebuilt.to_hex(),
                    expected.to_hex()
                )));
            }
        }
        *self.commitment.lock().expect("commitment lock") = Some(commitment);

        // Verify and replay the logged blocks after the checkpoint.
        let blocks = self.verify_chain()?;
        self.height = checkpoint;
        self.last_hash = checkpoint_hash.unwrap_or_else(|| {
            blocks
                .iter()
                .rfind(|b| b.header.id <= checkpoint)
                .map_or(self.base.1, |b| b.header.hash())
        });
        for block in blocks.iter().filter(|b| b.header.id > checkpoint) {
            let txns: Result<Vec<Arc<dyn Contract>>> =
                block.txns.iter().map(|b| codec.decode(b)).collect();
            self.execute_and_advance(block, txns?)?;
        }
        Ok(())
    }

    /// Install a state snapshot exported by a peer at some height — the
    /// manifest half of [`OeChain::catch_up`]. Only valid on a fresh node:
    /// height 0 *and* an empty catalog (installing over pre-loaded
    /// genesis rows would silently merge, keeping local rows the peer
    /// deleted). Afterwards the node continues from `snapshot.height` and
    /// its local history starts there.
    pub fn install_snapshot(&mut self, snapshot: &crate::sync::StateSnapshot) -> Result<()> {
        if self.height != BlockId(0) {
            return Err(Error::InvalidArgument(format!(
                "snapshot install requires a fresh node (height {})",
                self.height
            )));
        }
        if !self.engine.list_tables().is_empty() {
            return Err(Error::InvalidArgument(
                "snapshot install requires an empty database (local tables exist)".into(),
            ));
        }
        // Drop any stale local history (a crashed, checkpoint-less node
        // may hold logged blocks it can no longer replay): after install,
        // this node's chain starts at the snapshot point.
        self.engine.block_log().truncate()?;
        for table in &snapshot.tables {
            let id = self.engine.create_table(&table.name)?;
            for (key, value) in &table.rows {
                self.engine.put(id, key, value)?;
            }
        }
        self.height = snapshot.height;
        self.last_hash = snapshot.last_hash;
        self.base = (snapshot.height, snapshot.last_hash);
        self.last_summary = snapshot.summary.clone();
        // The trailing checkpoint() rebuilds the commitment over the
        // installed tables (and records its root in the sidecar).
        *self.commitment.lock().expect("commitment lock") = None;
        import_recent_undo(&self.snapshots, &snapshot.undo);
        // Persist: the install point becomes this node's first checkpoint,
        // so a later crash recovers from here rather than from genesis.
        self.checkpoint()
    }

    /// Export this node's full state at its current height for a lagging
    /// peer — the manifest the state-sync protocol transfers.
    pub fn export_snapshot(&self) -> Result<crate::sync::StateSnapshot> {
        crate::sync::StateSnapshot::export(self)
    }
}

// ── Recovery sidecar ─────────────────────────────────────────────────────
// (key / undo / summary encoders shared with crate::sync's state snapshot)

/// Before-images (and implied version-history entries) of one block.
pub type BlockUndo = (BlockId, Vec<(Key, Option<Value>)>);

/// How many trailing blocks' before-images (and version-history entries)
/// the recovery sidecar and a state-sync manifest capture. Must cover the
/// engine's farthest-back snapshot read: 2 suffices for Harmony's
/// inter-block parallelism; the SOV engines endorse against snapshots up
/// to `validation_delay` +
/// [`MAX_LAG`](harmony_dcc_baselines::fabric::MAX_LAG) blocks old, so 4
/// covers their default profile (1 + 2) too.
const SIDECAR_DEPTH: u64 = 4;

/// Export the undo images of the trailing [`SIDECAR_DEPTH`] blocks ending
/// at `height`, oldest first — what recovery needs to reconstruct the
/// snapshots and version comparisons engines read several blocks back.
pub(crate) fn export_recent_undo(snapshots: &SnapshotStore, height: BlockId) -> Vec<BlockUndo> {
    let lo = height.0.saturating_sub(SIDECAR_DEPTH - 1).max(1);
    (lo..=height.0)
        .map(|b| (BlockId(b), snapshots.export_undo_for(BlockId(b))))
        .collect()
}

/// Re-install exported undo images, oldest block first (undo chains and
/// version lists grow strictly newer). Per-block synthetic writer TIDs
/// preserve the version-equality structure the SOV staleness checks
/// compare (same block ⇔ same version).
pub(crate) fn import_recent_undo(snapshots: &SnapshotStore, undo: &[BlockUndo]) {
    for (block, entries) in undo {
        let tid = harmony_common::TxnId::new(*block, 0).0;
        snapshots.import_undo_for(*block, entries, tid);
    }
}

pub(crate) fn put_key(w: &mut Writer, key: &Key) {
    w.put_u16(key.table().0);
    w.put_bytes(key.row());
}

pub(crate) fn get_key(r: &mut Reader<'_>) -> Result<Key> {
    let table = harmony_common::ids::TableId(r.get_u16()?);
    let row = r.get_bytes()?;
    Ok(Key::new(table, row))
}

pub(crate) fn put_undo(w: &mut Writer, undo: &[(Key, Option<Value>)]) {
    w.put_u32(u32::try_from(undo.len()).expect("undo count"));
    for (key, before) in undo {
        put_key(w, key);
        match before {
            Some(v) => {
                w.put_u8(1);
                w.put_bytes(v);
            }
            None => w.put_u8(0),
        }
    }
}

pub(crate) fn get_undo(r: &mut Reader<'_>) -> Result<Vec<(Key, Option<Value>)>> {
    let n = r.get_count(7)?; // table id + row length + before-image tag
    let mut undo = Vec::with_capacity(n);
    for _ in 0..n {
        let key = get_key(r)?;
        let before = match r.get_u8()? {
            0 => None,
            1 => Some(Value::from(r.get_bytes()?)),
            t => return Err(Error::Corruption(format!("bad undo tag {t}"))),
        };
        undo.push((key, before));
    }
    Ok(undo)
}

pub(crate) fn put_summary(w: &mut Writer, summary: Option<&BlockSummary>) {
    match summary {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_u64(s.block.0);
            w.put_u32(u32::try_from(s.committed_writes.len()).expect("writes"));
            let mut writes: Vec<_> = s.committed_writes.iter().collect();
            writes.sort_by(|a, b| a.0.cmp(b.0));
            for (key, info) in writes {
                put_key(w, key);
                w.put_u64(info.min_tid);
                w.put_u8(u8::from(info.backward_out));
            }
            w.put_u32(u32::try_from(s.committed_reads.len()).expect("reads"));
            let mut reads: Vec<_> = s.committed_reads.iter().collect();
            reads.sort_by(|a, b| a.0.cmp(b.0));
            for (key, tid) in reads {
                put_key(w, key);
                w.put_u64(*tid);
            }
            w.put_u32(u32::try_from(s.committed_read_preds.len()).expect("preds"));
            for (tid, pred) in &s.committed_read_preds {
                w.put_u64(*tid);
                w.put_u16(pred.table.0);
                w.put_bytes(&pred.start);
                match &pred.end {
                    Some(e) => {
                        w.put_u8(1);
                        w.put_bytes(e);
                    }
                    None => w.put_u8(0),
                }
            }
        }
    }
}

pub(crate) fn get_summary(r: &mut Reader<'_>) -> Result<Option<BlockSummary>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => {
            let sblock = BlockId(r.get_u64()?);
            let mut committed_writes = HashMap::new();
            for _ in 0..r.get_u32()? {
                let key = get_key(r)?;
                let min_tid = r.get_u64()?;
                let backward_out = r.get_u8()? == 1;
                committed_writes.insert(
                    key,
                    WriterInfo {
                        min_tid,
                        backward_out,
                    },
                );
            }
            let mut committed_reads = HashMap::new();
            for _ in 0..r.get_u32()? {
                let key = get_key(r)?;
                committed_reads.insert(key, r.get_u64()?);
            }
            let mut committed_read_preds = Vec::new();
            for _ in 0..r.get_u32()? {
                let tid = r.get_u64()?;
                let table = harmony_common::ids::TableId(r.get_u16()?);
                let start = bytes::Bytes::from(r.get_bytes()?);
                let end = match r.get_u8()? {
                    0 => None,
                    1 => Some(bytes::Bytes::from(r.get_bytes()?)),
                    t => return Err(Error::Corruption(format!("bad pred tag {t}"))),
                };
                committed_read_preds.push((tid, RangePredicate { table, start, end }));
            }
            Ok(Some(BlockSummary {
                block: sblock,
                committed_writes,
                committed_reads,
                committed_read_preds,
            }))
        }
        t => Err(Error::Corruption(format!("bad summary tag {t}"))),
    }
}

pub(crate) fn put_block_undo(w: &mut Writer, undo: &[BlockUndo]) {
    w.put_u32(u32::try_from(undo.len()).expect("block count"));
    for (block, entries) in undo {
        w.put_u64(block.0);
        put_undo(w, entries);
    }
}

pub(crate) fn get_block_undo(r: &mut Reader<'_>) -> Result<Vec<BlockUndo>> {
    let n = r.get_count(12)?; // block id + undo count
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let block = BlockId(r.get_u64()?);
        out.push((block, get_undo(r)?));
    }
    Ok(out)
}

fn encode_sidecar(
    block: BlockId,
    last_hash: &Digest,
    undo: &[BlockUndo],
    summary: Option<&BlockSummary>,
    state_root: Option<&Digest>,
) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    w.put_u64(block.0);
    w.put_raw(&last_hash.0);
    put_block_undo(&mut w, undo);
    put_summary(&mut w, summary);
    match state_root {
        Some(root) => {
            w.put_u8(1);
            w.put_raw(&root.0);
        }
        None => w.put_u8(0),
    }
    w.finish()
}

type Sidecar = (
    BlockId,
    Digest,
    Vec<BlockUndo>,
    Option<BlockSummary>,
    Option<Digest>,
);

fn decode_sidecar(bytes: &[u8]) -> Result<Sidecar> {
    let mut r = Reader::new(bytes);
    let block = BlockId(r.get_u64()?);
    let last_hash = Digest(r.get_raw(32)?.try_into().expect("32 bytes"));
    let undo = get_block_undo(&mut r)?;
    let summary = get_summary(&mut r)?;
    let state_root = match r.get_u8()? {
        0 => None,
        1 => Some(Digest(r.get_raw(32)?.try_into().expect("32 bytes"))),
        t => return Err(Error::Corruption(format!("bad root tag {t}"))),
    };
    Ok((block, last_hash, undo, summary, state_root))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_roundtrip() {
        let key = Key::from_u64(harmony_common::ids::TableId(2), 9);
        let undo: Vec<(Key, Option<Value>)> = vec![
            (key.clone(), Some(Value::from_static(b"before"))),
            (Key::from_u64(harmony_common::ids::TableId(2), 10), None),
        ];
        let mut summary = BlockSummary {
            block: BlockId(7),
            ..BlockSummary::default()
        };
        summary.committed_writes.insert(
            key.clone(),
            WriterInfo {
                min_tid: 123,
                backward_out: true,
            },
        );
        summary.committed_reads.insert(key, 456);
        summary.committed_read_preds.push((
            789,
            RangePredicate {
                table: harmony_common::ids::TableId(3),
                start: bytes::Bytes::from_static(b"a"),
                end: Some(bytes::Bytes::from_static(b"z")),
            },
        ));
        let hash = Digest([9; 32]);
        let root = Digest([5; 32]);
        let undo = vec![(BlockId(6), Vec::new()), (BlockId(7), undo)];
        let enc = encode_sidecar(BlockId(7), &hash, &undo, Some(&summary), Some(&root));
        let (block, hash2, undo2, summary2, root2) = decode_sidecar(&enc).unwrap();
        assert_eq!(block, BlockId(7));
        assert_eq!(hash2, hash);
        assert_eq!(undo2, undo);
        assert_eq!(root2, Some(root));
        let s2 = summary2.unwrap();
        assert_eq!(s2.block, BlockId(7));
        assert_eq!(s2.committed_writes.len(), 1);
        assert_eq!(s2.committed_reads.len(), 1);
        assert_eq!(s2.committed_read_preds.len(), 1);
        assert!(s2.committed_writes.values().next().unwrap().backward_out);
    }

    #[test]
    fn sharded_root_detects_single_shard_divergence() {
        let roots = [Digest([1; 32]), Digest([2; 32]), Digest([3; 32])];
        let top = sharded_state_root(&roots);
        assert_eq!(top, sharded_state_root(&roots), "deterministic");
        let mut tampered = roots;
        tampered[1].0[0] ^= 1;
        assert_ne!(top, sharded_state_root(&tampered));
        // Order-sensitive: shard index is part of the commitment.
        let swapped = [roots[1], roots[0], roots[2]];
        assert_ne!(top, sharded_state_root(&swapped));
    }

    #[test]
    fn sidecar_without_summary() {
        let enc = encode_sidecar(BlockId(3), &Digest::ZERO, &[], None, None);
        let (block, hash, undo, summary, root) = decode_sidecar(&enc).unwrap();
        assert_eq!(block, BlockId(3));
        assert_eq!(hash, Digest::ZERO);
        assert!(undo.is_empty());
        assert!(summary.is_none());
        assert!(root.is_none());
    }
}
