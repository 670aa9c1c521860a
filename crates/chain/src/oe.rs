//! The Order-Execute chain — HarmonyBC when driven by the Harmony engine.
//!
//! Flow per block (§4 of the paper):
//!
//! 1. Seal the block (hash-chain + Merkle root + orderer MAC).
//! 2. **Logical logging**: persist the sealed input block *before*
//!    execution — determinism makes replay sufficient for recovery.
//! 3. Execute through the [`DccEngine`] the chain was opened with.
//! 4. Every `p` blocks: checkpoint — flush dirty pages and write one
//!    manifest that also carries the chain's [`ChainPosition`] (hash, the
//!    trailing blocks' undo images and the Rule-3 summary, so replay under
//!    inter-block parallelism reproduces the original snapshots and aborts
//!    bit-for-bit) and the state root.
//!
//! Recovery loads the newest checkpoint, restores its position, checks the
//! rebuilt state against its root, verifies the hash chain of the
//! persisted blocks, and re-executes everything after the checkpoint.
//!
//! The chain is the one guard of block order. Engines hold no block id and
//! execute the block they are handed; the chain refuses a delivered block
//! that does not follow its height (`InvalidArgument`, before anything is
//! logged), and [`OeChain::verify_chain`] refuses a gap in the replayed
//! log (`Corruption`). Apply and replay then share one step, so the
//! engine is called from one place.

use std::sync::{Arc, Mutex};

use harmony_common::codec::{Reader, Writer};
use harmony_common::{BlockId, Error, Result, TxnId};
use harmony_core::executor::{BlockSummary, ExecBlock};
use harmony_core::SnapshotStore;
use harmony_crypto::{merkle_root, CryptoCost, Digest, KeyPair, MapProof, Verifier};
use harmony_dcc_baselines::{DccEngine, EngineSpec, ProtocolBlockResult};
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_txn::{Contract, ContractCodec};

use crate::block::ChainBlock;
use crate::commit::StateCommitment;
use crate::position::{ChainPosition, UNDO_DEPTH};
use crate::sync::{StateSnapshot, TableDump};

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
    merkle_root(&leaves)
}

/// A row inclusion proof plus the `(table name, table root)` heads that
/// fold to the state root — what [`OeChain::prove_row`] hands a light
/// client.
pub type RowProof = (MapProof, Vec<(String, Digest)>);

/// Who sealed a block the chain applies: a block from the ordering service
/// is verified; one [`OeChain::submit_block`] sealed itself a moment ago
/// only pays the verifier's price.
#[derive(Clone, Copy)]
enum Sealer {
    Orderer,
    Me,
}

/// An Order-Execute private blockchain node.
///
/// Its last summary ([`OeChain::last_summary`]) is the one holder of the
/// Rule-3 summary: recorded in its [`ChainPosition`] at every checkpoint
/// and sync manifest, and handed to the engine with every block, so no
/// engine keeps a copy.
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
    /// The block is not verified again: its transaction root and MAC are
    /// the ones sealing just computed. The verifier's price is still
    /// charged, so virtual time is what a verified block costs.
    pub fn submit_block(
        &mut self,
        txns: Vec<Arc<dyn Contract>>,
        codec: &dyn ContractCodec,
    ) -> Result<(ChainBlock, ProtocolBlockResult)> {
        let sealed = self.seal_block(&txns, codec);
        let result = self.apply_block_inner(&sealed, txns, Sealer::Me)?;
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
        self.apply_block_inner(sealed, txns?, Sealer::Orderer)
    }

    /// Shared seal-consumption path: refuse a block that is not next,
    /// verify, log before execution, execute and advance, checkpoint on
    /// period. The id check is the one guard of block order: engines
    /// execute whatever block they are handed.
    fn apply_block_inner(
        &mut self,
        sealed: &ChainBlock,
        txns: Vec<Arc<dyn Contract>>,
        sealer: Sealer,
    ) -> Result<ProtocolBlockResult> {
        let id = sealed.header.id;
        if id != self.height.next() {
            return Err(Error::InvalidArgument(format!(
                "block {id} delivered out of order (expected {})",
                self.height.next()
            )));
        }
        match sealer {
            Sealer::Orderer => sealed.verify(&self.last_hash, &self.verifier)?,
            Sealer::Me => self.verifier.charge_verify(),
        }
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

    /// Force a checkpoint now: one manifest holding the pages' catalog,
    /// the chain's position and its state root, so recovery can verify
    /// the rebuilt state. Also the point where the commitment is first
    /// materialized.
    pub fn checkpoint(&mut self) -> Result<()> {
        let root = self.state_root()?;
        let sidecar = checkpoint_sidecar(&self.position(), &root);
        self.engine.checkpoint_with(self.height, sidecar)
    }

    /// Where this chain stands: its height and hash, the undo images of
    /// the trailing [`UNDO_DEPTH`](crate::position) blocks (what engines
    /// read several blocks back) and its Rule-3 summary.
    fn position(&self) -> ChainPosition {
        let lo = self.height.0.saturating_sub(UNDO_DEPTH - 1).max(1);
        ChainPosition {
            height: self.height,
            last_hash: self.last_hash,
            undo: (lo..=self.height.0)
                .map(|b| (BlockId(b), self.snapshots.export_undo_for(BlockId(b))))
                .collect(),
            summary: self.last_summary.clone(),
        }
    }

    /// Continue from `position`, for recovery and a snapshot install
    /// alike. Undo images go back oldest block first, under per-block
    /// synthetic writer TIDs: the SOV staleness checks compare versions
    /// (same block ⇔ same version).
    fn resume_at(&mut self, position: &ChainPosition) {
        for (block, entries) in &position.undo {
            self.snapshots
                .import_undo_for(*block, entries, TxnId::new(*block, 0).0);
        }
        self.height = position.height;
        self.last_hash = position.last_hash;
        self.last_summary = position.summary.clone();
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
    /// reload the checkpoint, restore the position it recorded, check the
    /// reloaded state against its root, then deterministically re-execute
    /// every logged block after it. The DCC engine is rebuilt over the new
    /// snapshot store from the spec the chain was opened with, so
    /// AriaBC/RBC/Fabric chains recover onto their own engine kind.
    ///
    /// A checkpoint above height 0 that records no position (a manifest
    /// written past the chain) is [`Error::Corruption`]: replaying without
    /// its hash, undo images and summary would land on a wrong root.
    ///
    /// A node that never checkpointed has lost its entire database (the
    /// genesis load included), so there is no base state to replay onto:
    /// recovery honestly lands back at this node's base height with an
    /// empty catalog, ready for a state-sync bootstrap — it must NOT
    /// replay logged blocks onto the wiped state and claim success.
    pub fn crash_and_recover(&mut self, codec: &dyn ContractCodec) -> Result<()> {
        self.engine.crash_and_recover()?;
        // Rebuild the snapshot overlay, and the engine that reads it; the
        // overlay and the Rule-3 summary then come from the position.
        self.snapshots = Arc::new(SnapshotStore::new(Arc::clone(&self.engine)));
        self.dcc = self.spec.build(Arc::clone(&self.snapshots));
        *self.commitment.lock().expect("commitment lock") = None;
        let Some((checkpoint, sidecar)) = self.engine.last_checkpoint() else {
            // Total loss: no manifest survived the crash, so the catalog
            // (genesis load included) is gone. Drop the stale block log —
            // its blocks are unreplayable without base state — and reset
            // to an empty genesis, ready for a state-sync bootstrap.
            self.engine.block_log().truncate()?;
            self.base = (BlockId(0), Digest::ZERO);
            self.resume_at(&ChainPosition::default());
            return Ok(());
        };
        let (position, root) = match read_checkpoint_sidecar(&sidecar)? {
            Some((position, root)) => (position, Some(root)),
            None if checkpoint.0 == 0 => (ChainPosition::default(), None),
            None => {
                return Err(Error::Corruption(format!(
                    "checkpoint at {checkpoint} records no chain position"
                )))
            }
        };
        self.resume_at(&position);

        // Rebuild the state commitment over the recovered checkpoint state
        // and verify it against the root the checkpoint recorded: a
        // mismatch means the recovered pages do not hold the state the
        // checkpoint committed to.
        let mut commitment = StateCommitment::build(&self.engine)?;
        let rebuilt = commitment.root();
        if let Some(expected) = root.filter(|&r| r != rebuilt) {
            return Err(Error::Corruption(format!(
                "recovered state root {} != checkpointed {}",
                rebuilt.to_hex(),
                expected.to_hex()
            )));
        }
        *self.commitment.lock().expect("commitment lock") = Some(commitment);

        // Verify and replay the logged blocks after the checkpoint.
        for block in self
            .verify_chain()?
            .iter()
            .filter(|b| b.header.id > checkpoint)
        {
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
    /// deleted). Afterwards the node continues from the snapshot's
    /// position and its local history starts there.
    pub fn install_snapshot(&mut self, snapshot: &StateSnapshot) -> Result<()> {
        if !self.is_fresh() {
            return Err(Error::InvalidArgument(format!(
                "snapshot install requires a fresh node (height {}, {} tables)",
                self.height,
                self.engine.list_tables().len()
            )));
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
        let position = &snapshot.position;
        self.base = (position.height, position.last_hash);
        self.resume_at(position);
        // The trailing checkpoint() rebuilds the commitment over the
        // installed tables (and records its root with the position).
        *self.commitment.lock().expect("commitment lock") = None;
        // Persist: the install point becomes this node's first checkpoint,
        // so a later crash recovers from here rather than from genesis.
        self.checkpoint()
    }

    /// Height 0 and an empty catalog: a snapshot may be installed here.
    pub(crate) fn is_fresh(&self) -> bool {
        self.height == BlockId(0) && self.engine.list_tables().is_empty()
    }

    /// Export this node's full state at its current height for a lagging
    /// peer — the manifest the state-sync protocol transfers.
    pub fn export_snapshot(&self) -> Result<StateSnapshot> {
        let mut tables = Vec::new();
        for (name, id) in self.engine.list_tables() {
            let mut rows = Vec::new();
            self.engine.scan(id, b"", None, |k, v| {
                rows.push((k.to_vec(), v.to_vec()));
                true
            })?;
            tables.push(TableDump { name, rows });
        }
        Ok(StateSnapshot {
            position: self.position(),
            tables,
        })
    }
}

/// The sidecar a checkpoint writes into its manifest: the chain's position,
/// then the state root it commits to.
fn checkpoint_sidecar(position: &ChainPosition, root: &Digest) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    position.encode_into(&mut w);
    w.put_raw(&root.0);
    w.finish()
}

/// Read a checkpoint's sidecar; `None` when the manifest carries none.
fn read_checkpoint_sidecar(bytes: &[u8]) -> Result<Option<(ChainPosition, Digest)>> {
    if bytes.is_empty() {
        return Ok(None);
    }
    let mut r = Reader::new(bytes);
    let position = ChainPosition::decode_from(&mut r)?;
    let root = Digest(r.get_raw(32)?.try_into().expect("32 bytes"));
    Ok(Some((position, root)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_common::ids::TableId;
    use harmony_common::DetRng;
    use harmony_core::executor::WriterInfo;
    use harmony_txn::{Key, RangePredicate, Value};
    use harmony_workloads::{Smallbank, SmallbankConfig, Workload};

    #[test]
    fn sidecar_roundtrip() {
        let key = Key::from_u64(TableId(2), 9);
        let undo: Vec<(Key, Option<Value>)> = vec![
            (key.clone(), Some(Value::from_static(b"before"))),
            (Key::from_u64(TableId(2), 10), None),
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
                table: TableId(3),
                start: bytes::Bytes::from_static(b"a"),
                end: Some(bytes::Bytes::from_static(b"z")),
            },
        ));
        let position = ChainPosition {
            height: BlockId(7),
            last_hash: Digest([9; 32]),
            undo: vec![(BlockId(6), Vec::new()), (BlockId(7), undo)],
            summary: Some(summary),
        };
        let root = Digest([5; 32]);
        let enc = checkpoint_sidecar(&position, &root);
        let (decoded, root2) = read_checkpoint_sidecar(&enc).unwrap().unwrap();
        assert_eq!(decoded.height, BlockId(7));
        assert_eq!(decoded.last_hash, position.last_hash);
        assert_eq!(decoded.undo, position.undo);
        assert_eq!(root2, root);
        let s2 = decoded.summary.unwrap();
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
        let position = ChainPosition {
            height: BlockId(3),
            ..ChainPosition::default()
        };
        let enc = checkpoint_sidecar(&position, &Digest::ZERO);
        let (decoded, root) = read_checkpoint_sidecar(&enc).unwrap().unwrap();
        assert_eq!(decoded.height, BlockId(3));
        assert_eq!(decoded.last_hash, Digest::ZERO);
        assert!(decoded.undo.is_empty());
        assert!(decoded.summary.is_none());
        assert_eq!(root, Digest::ZERO);
        assert!(read_checkpoint_sidecar(&[]).unwrap().is_none());
        // A cut sidecar is an error, never a shorter position.
        assert!(matches!(
            read_checkpoint_sidecar(&enc[..enc.len() - 1]),
            Err(Error::Corruption(_))
        ));
    }

    /// `submit_block` skips re-verifying the block it sealed, yet charges
    /// what sealing and then verifying it as a delivered block charges, and
    /// ends on the same chain.
    #[test]
    fn a_submitted_block_costs_what_a_delivered_one_does() {
        let config = ChainConfig {
            crypto: CryptoCost::default(),
            ..ChainConfig::in_memory()
        };
        let open = || {
            let chain = OeChain::open(config.clone(), EngineSpec::default()).unwrap();
            let mut workload = Smallbank::new(SmallbankConfig {
                accounts: 200,
                ..SmallbankConfig::default()
            });
            workload.setup(chain.engine()).unwrap();
            (chain, workload)
        };
        let (mut submitted, workload) = open();
        let (mut delivered, _) = open();
        let codec = workload.codec();
        let mut rng = DetRng::new(0x5EA1);
        for _ in 0..4 {
            let txns = workload.next_block(&mut rng, 20);
            let ((sealed, _), submit_ns) = harmony_common::vtime::scope(|| {
                submitted
                    .submit_block(txns.clone(), codec.as_ref())
                    .unwrap()
            });
            let (_, deliver_ns) = harmony_common::vtime::scope(|| {
                let resealed = delivered.seal_block(&txns, codec.as_ref());
                assert_eq!(resealed, sealed);
                delivered
                    .apply_sealed_block(&sealed, codec.as_ref())
                    .unwrap()
            });
            assert_eq!(submit_ns, deliver_ns);
            assert!(submit_ns >= CryptoCost::default().verify_ns);
        }
        assert_eq!(
            submitted.state_root().unwrap(),
            delivered.state_root().unwrap()
        );
    }

    /// A storage checkpoint written past the chain records no position.
    /// Recovering from it used to replay onto the manifest's pages with a
    /// hash taken from the block log and no undo images or summary, and
    /// return `Ok` on a root the chain never had.
    #[test]
    fn a_checkpoint_without_a_position_is_corruption() {
        let config = ChainConfig {
            checkpoint_every: 1_000,
            ..ChainConfig::in_memory()
        };
        let mut chain = OeChain::open(config, EngineSpec::default()).unwrap();
        let mut workload = Smallbank::new(SmallbankConfig {
            accounts: 200,
            ..SmallbankConfig::default()
        });
        workload.setup(chain.engine()).unwrap();
        let codec = workload.codec();
        chain.checkpoint().unwrap();
        let mut rng = DetRng::new(0xC4EC);
        for block in 1..=12 {
            let txns = workload.next_block(&mut rng, 20);
            chain.submit_block(txns, codec.as_ref()).unwrap();
            if block == 6 {
                chain.engine().checkpoint(chain.height()).unwrap();
            }
        }
        let err = chain.crash_and_recover(codec.as_ref()).unwrap_err();
        assert!(
            matches!(&err, Error::Corruption(m) if m.contains("no chain position")),
            "{err}"
        );
    }
}
