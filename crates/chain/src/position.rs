//! [`ChainPosition`]: what a chain needs besides its tables to continue
//! from a height, with the one codec that a checkpoint (in the storage
//! manifest, beside the state root) and a sync manifest (ahead of the
//! tables) share. One `OeChain` method restores it, for both.

use std::collections::HashMap;

use bytes::Bytes;
use harmony_common::codec::{Reader, Writer};
use harmony_common::ids::TableId;
use harmony_common::{BlockId, Error, Result};
use harmony_core::executor::{BlockSummary, WriterInfo};
use harmony_crypto::Digest;
use harmony_txn::{Key, RangePredicate, Value};

/// Before-images (and implied version-history entries) of one block.
pub type BlockUndo = (BlockId, Vec<(Key, Option<Value>)>);

/// How many trailing blocks' before-images (and version-history entries) a
/// position captures. Must cover the engine's farthest-back snapshot read:
/// 2 suffices for Harmony's inter-block parallelism; the SOV engines
/// endorse against snapshots up to `validation_delay` +
/// [`MAX_LAG`](harmony_dcc_baselines::fabric::MAX_LAG) blocks old, so 4
/// covers their default profile (1 + 2) too.
pub(crate) const UNDO_DEPTH: u64 = 4;

/// Where a chain stands after executing block `height`.
#[derive(Clone, Debug, Default)]
pub struct ChainPosition {
    /// Height of the last executed block.
    pub height: BlockId,
    /// Hash of the block at `height` (hash-chain continuation point).
    pub last_hash: Digest,
    /// Undo images of the trailing blocks, oldest first (snapshot-overlay
    /// and version-history reseed).
    pub undo: Vec<BlockUndo>,
    /// Rule-3 summary of the block at `height` (Harmony continuity).
    pub summary: Option<BlockSummary>,
}

impl ChainPosition {
    /// Append the position: height, last hash, undo images, summary.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.height.0);
        w.put_raw(&self.last_hash.0);
        w.put_u32(u32::try_from(self.undo.len()).expect("block count"));
        for (block, entries) in &self.undo {
            w.put_u64(block.0);
            put_undo(w, entries);
        }
        put_summary(w, self.summary.as_ref());
    }

    /// Read a position written by [`ChainPosition::encode_into`].
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<ChainPosition> {
        let height = BlockId(r.get_u64()?);
        let last_hash = Digest(r.get_raw(32)?.try_into().expect("32 bytes"));
        let n = r.get_count(12)?; // block id + undo count
        let mut undo = Vec::with_capacity(n);
        for _ in 0..n {
            let block = BlockId(r.get_u64()?);
            undo.push((block, get_undo(r)?));
        }
        Ok(ChainPosition {
            height,
            last_hash,
            undo,
            summary: get_summary(r)?,
        })
    }
}

fn put_undo(w: &mut Writer, undo: &[(Key, Option<Value>)]) {
    w.put_u32(u32::try_from(undo.len()).expect("undo count"));
    for (key, before) in undo {
        key.encode_into(w);
        put_opt_bytes(w, before.as_deref());
    }
}

fn get_undo(r: &mut Reader<'_>) -> Result<Vec<(Key, Option<Value>)>> {
    let n = r.get_count(7)?; // table id + row length + before-image tag
    let mut undo = Vec::with_capacity(n);
    for _ in 0..n {
        let key = Key::decode_from(r)?;
        undo.push((key, get_opt_bytes(r, "undo")?.map(Value::from)));
    }
    Ok(undo)
}

fn put_summary(w: &mut Writer, summary: Option<&BlockSummary>) {
    let Some(s) = summary else {
        w.put_u8(0);
        return;
    };
    w.put_u8(1);
    w.put_u64(s.block.0);
    w.put_u32(u32::try_from(s.committed_writes.len()).expect("writes"));
    let mut writes: Vec<_> = s.committed_writes.iter().collect();
    writes.sort_by(|a, b| a.0.cmp(b.0));
    for (key, info) in writes {
        key.encode_into(w);
        w.put_u64(info.min_tid);
        w.put_u8(u8::from(info.backward_out));
    }
    w.put_u32(u32::try_from(s.committed_reads.len()).expect("reads"));
    let mut reads: Vec<_> = s.committed_reads.iter().collect();
    reads.sort_by(|a, b| a.0.cmp(b.0));
    for (key, tid) in reads {
        key.encode_into(w);
        w.put_u64(*tid);
    }
    w.put_u32(u32::try_from(s.committed_read_preds.len()).expect("preds"));
    for (tid, pred) in &s.committed_read_preds {
        w.put_u64(*tid);
        w.put_u16(pred.table.0);
        w.put_bytes(&pred.start);
        put_opt_bytes(w, pred.end.as_deref());
    }
}

fn get_summary(r: &mut Reader<'_>) -> Result<Option<BlockSummary>> {
    match r.get_u8()? {
        0 => return Ok(None),
        1 => {}
        t => return Err(Error::Corruption(format!("bad summary tag {t}"))),
    }
    let block = BlockId(r.get_u64()?);
    let mut committed_writes = HashMap::new();
    for _ in 0..r.get_u32()? {
        let key = Key::decode_from(r)?;
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
        let key = Key::decode_from(r)?;
        committed_reads.insert(key, r.get_u64()?);
    }
    let mut committed_read_preds = Vec::new();
    for _ in 0..r.get_u32()? {
        let tid = r.get_u64()?;
        let table = TableId(r.get_u16()?);
        let start = Bytes::from(r.get_bytes()?);
        let end = get_opt_bytes(r, "pred")?.map(Bytes::from);
        committed_read_preds.push((tid, RangePredicate { table, start, end }));
    }
    Ok(Some(BlockSummary {
        block,
        committed_writes,
        committed_reads,
        committed_read_preds,
    }))
}

/// An optional byte string: a presence tag, then the bytes.
fn put_opt_bytes(w: &mut Writer, bytes: Option<&[u8]>) {
    w.put_u8(u8::from(bytes.is_some()));
    if let Some(bytes) = bytes {
        w.put_bytes(bytes);
    }
}

fn get_opt_bytes(r: &mut Reader<'_>, what: &str) -> Result<Option<Vec<u8>>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_bytes()?)),
        t => Err(Error::Corruption(format!("bad {what} tag {t}"))),
    }
}
