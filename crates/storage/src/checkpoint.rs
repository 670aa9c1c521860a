//! Checkpoint manifests.
//!
//! HarmonyBC checkpoints every `p` blocks: flush dirty pages, then persist a
//! manifest recording the checkpointed block id, each table's B+Tree root
//! and the caller's *sidecar*: opaque bytes (a chain stores its position
//! there) that one CRC covers with the rest, so a checkpoint is one record.
//! Manifests are written to *alternating slots* so that a crash during
//! checkpointing still leaves the previous manifest intact (the paper relies
//! on PostgreSQL's multi-versioned storage for the same guarantee).

use std::fs::{self, File};
use std::io::Write;
use std::path::PathBuf;

use harmony_common::codec::{crc32c, Reader, Writer};
use harmony_common::ids::TableId;
use harmony_common::{BlockId, Error, Result};
use parking_lot::Mutex;

use crate::page::PageId;

const MANIFEST_MAGIC: u32 = 0x4843_4B50; // "HCKP"

/// Catalog entry for one table inside a manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableMeta {
    /// Table id (stable across restarts).
    pub id: TableId,
    /// Human-readable table name.
    pub name: String,
    /// Root page of the table's B+Tree at checkpoint time.
    pub root: PageId,
    /// Number of live entries at checkpoint time.
    pub len: u64,
}

/// A checkpoint manifest: everything needed to reopen the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonically increasing manifest epoch (picks the newer slot).
    pub epoch: u64,
    /// Last block whose effects are fully contained in the flushed pages.
    pub block: BlockId,
    /// Table catalog.
    pub tables: Vec<TableMeta>,
    /// What the caller recorded with the checkpoint; empty when nothing.
    pub sidecar: Vec<u8>,
}

impl Manifest {
    /// Serialize with magic + CRC trailer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.tables.len() * 48 + self.sidecar.len());
        w.put_u32(MANIFEST_MAGIC);
        w.put_u64(self.epoch);
        w.put_u64(self.block.0);
        w.put_u32(u32::try_from(self.tables.len()).expect("table count"));
        for t in &self.tables {
            w.put_u16(t.id.0);
            w.put_str(&t.name);
            w.put_u64(t.root.0);
            w.put_u64(t.len);
        }
        w.put_bytes(&self.sidecar);
        let mut out = w.finish();
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and verify a manifest blob.
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        if bytes.len() < 4 {
            return Err(Error::Corruption("manifest too short".into()));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32c(body) != crc {
            return Err(Error::Corruption("manifest CRC mismatch".into()));
        }
        let mut r = Reader::new(body);
        if r.get_u32()? != MANIFEST_MAGIC {
            return Err(Error::Corruption("bad manifest magic".into()));
        }
        let epoch = r.get_u64()?;
        let block = BlockId(r.get_u64()?);
        let n = r.get_count(22)?; // table id + name length + root page + row count
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            let id = TableId(r.get_u16()?);
            let name = r.get_str()?;
            let root = PageId(r.get_u64()?);
            let len = r.get_u64()?;
            tables.push(TableMeta {
                id,
                name,
                root,
                len,
            });
        }
        Ok(Manifest {
            epoch,
            block,
            tables,
            sidecar: r.get_bytes()?,
        })
    }
}

/// Double-slot manifest storage. A store reads and replaces whole slots;
/// which slot a manifest goes to, and which one is read back, is decided
/// here, the same for every store.
pub trait ManifestStore: Send + Sync {
    /// The bytes in slot `i` (0 or 1), if it holds any.
    fn read_slot(&self, i: usize) -> Option<Vec<u8>>;
    /// Replace slot `i` with `bytes`, whole or not at all.
    fn write_slot(&self, i: usize, bytes: &[u8]) -> Result<()>;

    /// Persist `m` to the slot *not* holding the current latest manifest.
    fn write(&self, m: &Manifest) -> Result<()> {
        self.write_slot(pick_write_slot(&intact_slots(self)), &m.encode())
    }

    /// Load the manifest with the highest epoch among intact slots.
    fn read_latest(&self) -> Result<Option<Manifest>> {
        Ok(latest_of(intact_slots(self)))
    }
}

/// In-memory double-slot store (the "device" survives crash simulations).
#[derive(Default)]
pub struct MemManifestStore {
    slots: Mutex<[Option<Vec<u8>>; 2]>,
}

impl MemManifestStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> MemManifestStore {
        MemManifestStore::default()
    }

    /// Corrupt slot `i` (tests).
    pub fn corrupt_slot(&self, i: usize) {
        let mut slots = self.slots.lock();
        if let Some(blob) = slots[i].as_mut() {
            if let Some(b) = blob.first_mut() {
                *b ^= 0xFF;
            }
        }
    }
}

impl ManifestStore for MemManifestStore {
    fn read_slot(&self, i: usize) -> Option<Vec<u8>> {
        self.slots.lock()[i].clone()
    }

    fn write_slot(&self, i: usize, bytes: &[u8]) -> Result<()> {
        self.slots.lock()[i] = Some(bytes.to_vec());
        Ok(())
    }
}

/// File-backed double-slot store: `manifest.0` / `manifest.1`.
pub struct FileManifestStore {
    dir: PathBuf,
    paths: [PathBuf; 2],
}

impl FileManifestStore {
    /// Store under `dir`.
    #[must_use]
    pub fn new(dir: &std::path::Path) -> FileManifestStore {
        FileManifestStore {
            dir: dir.to_path_buf(),
            paths: [dir.join("manifest.0"), dir.join("manifest.1")],
        }
    }
}

impl ManifestStore for FileManifestStore {
    fn read_slot(&self, i: usize) -> Option<Vec<u8>> {
        fs::read(&self.paths[i]).ok()
    }

    /// The slot is whole or absent after a power cut: the temp file's
    /// bytes are durable before the rename, the rename before return.
    fn write_slot(&self, i: usize, bytes: &[u8]) -> Result<()> {
        let tmp = self.paths[i].with_extension("tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, &self.paths[i])?;
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

/// The manifest of each slot, `None` where a slot is empty or torn.
fn intact_slots<S: ManifestStore + ?Sized>(store: &S) -> [Option<Manifest>; 2] {
    [0, 1].map(|i| store.read_slot(i).and_then(|b| Manifest::decode(&b).ok()))
}

/// Write over the slot with the older (or missing) manifest.
fn pick_write_slot(slots: &[Option<Manifest>; 2]) -> usize {
    match slots {
        [None, _] => 0,
        [_, None] => 1,
        [Some(a), Some(b)] => usize::from(a.epoch >= b.epoch),
    }
}

/// The newer of the two manifests (slot 0 on a tie).
fn latest_of(slots: [Option<Manifest>; 2]) -> Option<Manifest> {
    match slots {
        [Some(a), Some(b)] if b.epoch > a.epoch => Some(b),
        [a, b] => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(epoch: u64, block: u64) -> Manifest {
        Manifest {
            epoch,
            block: BlockId(block),
            tables: vec![TableMeta {
                id: TableId(3),
                name: "accounts".into(),
                root: PageId(17),
                len: 10_000,
            }],
            sidecar: format!("position at {block}").into_bytes(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = manifest(5, 40);
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn corrupt_blob_rejected() {
        let mut blob = manifest(1, 2).encode();
        blob[6] ^= 0x01;
        assert!(matches!(Manifest::decode(&blob), Err(Error::Corruption(_))));
    }

    #[test]
    fn lying_table_count_is_refused_before_allocating() {
        // A blob whose CRC is right (a torn write that happens to
        // checksum, or a hostile file) but whose table count lies.
        let empty = Manifest {
            tables: Vec::new(),
            sidecar: Vec::new(),
            ..manifest(1, 0)
        };
        let mut body = empty.encode();
        // Drop the CRC, the empty sidecar's length and the zero count.
        body.truncate(body.len() - 12);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32c(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let err = Manifest::decode(&body).unwrap_err();
        assert!(
            matches!(&err, Error::Corruption(m) if m.contains("count")),
            "{err}"
        );
    }

    #[test]
    fn mem_store_alternates_slots_and_survives_torn_write() {
        let s = MemManifestStore::new();
        assert!(s.read_latest().unwrap().is_none());
        s.write(&manifest(1, 10)).unwrap();
        s.write(&manifest(2, 20)).unwrap();
        assert_eq!(s.read_latest().unwrap().unwrap().epoch, 2);
        // Corrupting the newest slot falls back to the previous checkpoint.
        // Epoch 2 went to the slot not holding epoch 1.
        s.write(&manifest(3, 30)).unwrap(); // overwrote slot of epoch 1
        s.corrupt_slot(if pick_write_slot(&[None, None]) == 0 {
            1
        } else {
            0
        });
        // Regardless of which physical slot epoch 3 landed in, at least one
        // intact manifest must remain readable.
        let latest = s.read_latest().unwrap().unwrap();
        assert!(latest.epoch == 3 || latest.epoch == 2);
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("harmony-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(dir.join("manifest.0"));
        let _ = std::fs::remove_file(dir.join("manifest.1"));
        let s = FileManifestStore::new(&dir);
        assert!(s.read_latest().unwrap().is_none());
        s.write(&manifest(1, 100)).unwrap();
        s.write(&manifest(2, 200)).unwrap();
        s.write(&manifest(3, 300)).unwrap();
        let latest = s.read_latest().unwrap().unwrap();
        assert_eq!(latest.epoch, 3);
        assert_eq!(latest.block, BlockId(300));
        // Both slots exist: epoch 2 and epoch 3.
        let s2 = FileManifestStore::new(&dir);
        assert_eq!(s2.read_latest().unwrap().unwrap().epoch, 3);
    }

    #[test]
    fn pick_slot_logic() {
        assert_eq!(pick_write_slot(&[None, None]), 0);
        assert_eq!(pick_write_slot(&[Some(manifest(1, 0)), None]), 1);
        assert_eq!(
            pick_write_slot(&[Some(manifest(5, 0)), Some(manifest(4, 0))]),
            1,
            "overwrite the older slot"
        );
        assert_eq!(
            pick_write_slot(&[Some(manifest(4, 0)), Some(manifest(5, 0))]),
            0
        );
    }
}
