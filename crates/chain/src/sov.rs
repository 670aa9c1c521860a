//! The Simulate-Order-Validate chain (Fabric family) with **physical
//! logging**: after each block commits, the write-sets of the committed
//! transactions are persisted to the WAL, and recovery replays values —
//! no re-execution, but every committed byte hits the log (the runtime
//! overhead Table 1 contrasts with logical logging).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use harmony_common::{BlockId, Result};
use harmony_core::executor::ExecBlock;
use harmony_core::SnapshotStore;
use harmony_crypto::{CryptoCost, Digest, KeyPair, Verifier};
use harmony_dcc_baselines::{DccEngine, Fabric, FabricConfig, ProtocolBlockResult};
use harmony_storage::log::{WalRecord, WalWrite};
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_txn::{Contract, ContractCodec, Value};

use crate::block::ChainBlock;
use crate::commit::StateCommitment;

/// A Simulate-Order-Validate blockchain node (Fabric-style).
pub struct SovChain {
    engine: Arc<StorageEngine>,
    snapshots: Arc<SnapshotStore>,
    dcc: Arc<dyn DccEngine>,
    /// What `dcc` was built with, and is rebuilt with after a crash.
    fabric: FabricConfig,
    keypair: KeyPair,
    verifier: Verifier,
    height: BlockId,
    last_hash: Digest,
    checkpoint_every: u64,
    /// Incrementally maintained state commitment, folded from the same
    /// committed write-sets the WAL records. Lazily built on first root.
    commitment: Mutex<Option<StateCommitment>>,
}

impl SovChain {
    /// Fresh in-memory Fabric-style node.
    pub fn in_memory(fabric: FabricConfig, checkpoint_every: u64) -> Result<SovChain> {
        let engine = Arc::new(StorageEngine::open(&StorageConfig::memory())?);
        let snapshots = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
        let dcc: Arc<dyn DccEngine> = Arc::new(Fabric::new(Arc::clone(&snapshots), fabric));
        Ok(SovChain {
            engine,
            snapshots,
            dcc,
            fabric,
            keypair: KeyPair::derive(b"sov-cluster", 0, CryptoCost::free()),
            verifier: Verifier::new(b"sov-cluster", CryptoCost::free()),
            height: BlockId(0),
            last_hash: Digest::ZERO,
            checkpoint_every,
            commitment: Mutex::new(None),
        })
    }

    /// The storage engine.
    #[must_use]
    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    /// The snapshot store.
    #[must_use]
    pub fn snapshots(&self) -> &Arc<SnapshotStore> {
        &self.snapshots
    }

    /// Current height.
    #[must_use]
    pub fn height(&self) -> BlockId {
        self.height
    }

    /// Submit a block: seal, execute (endorse/order/validate), then
    /// physically log the committed write-sets.
    pub fn submit_block(
        &mut self,
        txns: Vec<Arc<dyn Contract>>,
        codec: &dyn ContractCodec,
    ) -> Result<(ChainBlock, ProtocolBlockResult)> {
        let id = self.height.next();
        let encoded: Vec<Vec<u8>> = txns.iter().map(|t| codec.encode(t.as_ref())).collect();
        let sealed = ChainBlock::seal(id, self.last_hash, encoded, &self.keypair);
        self.engine.block_log().append(&sealed.encode())?;

        let result = self.dcc.execute_block(&ExecBlock { id, txns })?;

        // Physical logging: committed write-sets, values read back from
        // the freshly committed state.
        let mut writes = Vec::new();
        let mut folded = Vec::new();
        let mut seen = HashSet::new();
        for (i, rwset) in result.rwsets.iter().enumerate() {
            if !result.outcomes[i].is_committed() {
                continue;
            }
            let Some(rwset) = rwset else { continue };
            for key in rwset.write_keys() {
                if seen.insert(key.clone()) {
                    let value = self.engine.get(key.table(), key.row())?;
                    folded.push((key.clone(), value.clone().map(Value::from)));
                    writes.push(WalWrite {
                        table: key.table(),
                        key: key.row().to_vec(),
                        value,
                    });
                }
            }
        }
        self.engine
            .wal()
            .append(&WalRecord { block: id, writes }.encode())?;
        self.engine.wal().sync()?;

        // Fold the same committed write-set, by the values just read, into
        // the state commitment.
        if let Some(c) = self.commitment.lock().expect("commitment lock").as_mut() {
            c.fold_writes(&self.engine, &folded)?;
        }

        self.height = id;
        self.last_hash = sealed.header.hash();
        if id.0.is_multiple_of(self.checkpoint_every) {
            self.engine.checkpoint(id)?;
        }
        Ok((sealed, result))
    }

    /// Hash of the full database state — the cached commitment root,
    /// O(1) on a warm chain and bit-identical to the full-scan oracle
    /// [`crate::oe::state_root`].
    pub fn state_root(&self) -> Result<Digest> {
        let mut guard = self.commitment.lock().expect("commitment lock");
        if guard.is_none() {
            *guard = Some(StateCommitment::build(&self.engine)?);
        }
        Ok(guard.as_mut().expect("just built").root())
    }

    /// Verify the persisted hash chain.
    pub fn verify_chain(&self) -> Result<Vec<ChainBlock>> {
        let records = self.engine.block_log().read_all()?;
        let mut prev = Digest::ZERO;
        let mut blocks = Vec::with_capacity(records.len());
        for rec in &records {
            let block = ChainBlock::decode(rec)?;
            block.verify(&prev, &self.verifier)?;
            prev = block.header.hash();
            blocks.push(block);
        }
        Ok(blocks)
    }

    /// Crash and recover by *value replay*: reload the checkpoint, then
    /// apply the WAL's committed write-sets for every newer block. No
    /// re-execution — physical logging's recovery discipline.
    pub fn crash_and_recover(&mut self) -> Result<()> {
        self.engine.crash_and_recover()?;
        let checkpoint = self.engine.last_checkpoint().unwrap_or(BlockId(0));
        self.snapshots = Arc::new(SnapshotStore::new(Arc::clone(&self.engine)));
        *self.commitment.lock().expect("commitment lock") = None;
        let mut height = checkpoint;
        for rec in self.engine.wal().read_all()? {
            let rec = WalRecord::decode(&rec)?;
            if rec.block <= checkpoint {
                continue;
            }
            for w in &rec.writes {
                match &w.value {
                    Some(v) => self.engine.put(w.table, &w.key, v)?,
                    None => {
                        let _ = self.engine.delete(w.table, &w.key)?;
                    }
                }
            }
            height = height.max(rec.block);
        }
        self.height = height;
        // Re-position the DCC engine and recompute the chain tip.
        let blocks = self.verify_chain()?;
        self.last_hash = blocks
            .iter()
            .rfind(|b| b.header.id <= height)
            .map_or(Digest::ZERO, |b| b.header.hash());
        self.dcc = Arc::new(Fabric::starting_at(
            Arc::clone(&self.snapshots),
            self.fabric,
            height.next(),
        ));
        Ok(())
    }
}
