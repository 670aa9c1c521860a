//! Length-prefixed binary wire codec for the cluster's message enum.
//!
//! A frame on the wire is `[u32 LE body length][body]`, where the body
//! is `[version u8][tag u8][payload]`. The version byte makes frames
//! self-describing (a node refuses frames from an incompatible build
//! instead of misparsing them); the tag selects the [`Msg`] variant —
//! or, in the `0x80..` range, a control-plane message ([`CtlMsg`]).
//!
//! **One version decodes.** Every node of a cluster is built from the
//! same workspace and started together, so no peer can send an older
//! frame; a decode path for one would be code nothing exercises on
//! input nothing produces. A frame stamped with any version but
//! [`WIRE_VERSION`] is [`Error::Corruption`]. Likewise the state-sync
//! frames have **one shape** for flat and sharded replicas (a height per
//! hosted chain; an anchor plus a part per chain), with no kind byte to
//! mismatch.
//!
//! Payloads reuse the workspace's existing serialization: contracts
//! travel as [`encode_contract`] bytes (decoded by the workload's
//! [`ContractCodec`], so cross-shard fragments and every workload's
//! transactions survive the trip), blocks as [`ChainBlock::encode`],
//! snapshots as [`StateSnapshot::encode`], scalars through the
//! bounds-checked [`Reader`]/[`Writer`] pair. Decoding never panics:
//! truncated or garbage input surfaces as [`Error::Corruption`].

use std::io::{self, Read};
use std::sync::Arc;

use harmony_chain::{ChainBlock, StateSnapshot};
use harmony_common::codec::{Reader, Writer};
use harmony_common::{BlockId, Error, Result};
use harmony_crypto::Digest;
use harmony_node::cluster::Msg;
use harmony_node::{BlockSummary, NodeStatus, ShardedSyncResponse, SyncResponse};
use harmony_txn::{encode_contract, ContractCodec};

/// Wire-format version carried in every frame body, and the only one
/// decoded. Version 2 added the topology-change (reshard) tags; version 3
/// gave the state-sync frames one shape for both replica kinds; version 4
/// puts a sync manifest's chain position ahead of its tables; version 5
/// leaves a reshard to the control plane (message tag 11 is gone).
pub const WIRE_VERSION: u8 = 5;

/// Upper bound on a frame body; a longer length prefix is refused. Below
/// it the prefix still sizes nothing by itself: see [`FrameBuf`], which
/// reserves as the body's bytes arrive.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

// Msg variant tags (0x00..0x7F).
const TAG_SUBMIT: u8 = 0;
const TAG_REPLICATE: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_PREPARE: u8 = 3;
const TAG_VOTE: u8 = 4;
const TAG_DELIVER: u8 = 5;
const TAG_ROOT_GOSSIP: u8 = 6;
const TAG_SYNC_REQUEST: u8 = 7;
const TAG_SYNC_REPLY: u8 = 8;
const TAG_SYNC_REFUSED: u8 = 9;
const TAG_REJECT: u8 = 10;

// Control-plane tags (0x80..).
const TAG_CTL_STATUS_REQ: u8 = 0x80;
const TAG_CTL_STATUS_REPLY: u8 = 0x81;
const TAG_CTL_BLOCK_REQ: u8 = 0x82;
const TAG_CTL_BLOCK_REPLY: u8 = 0x83;
const TAG_CTL_CRASH: u8 = 0x84;
const TAG_CTL_OK: u8 = 0x85;
const TAG_CTL_RECOVER: u8 = 0x86;
const TAG_CTL_RESHARD: u8 = 0x87;
const TAG_CTL_METRICS_REQ: u8 = 0x88;
const TAG_CTL_TEXT: u8 = 0x89;
const TAG_CTL_SHUTDOWN: u8 = 0x8A;
const TAG_CTL_ERR: u8 = 0x8B;
/// Peer handshake: the first frame of a node-to-node connection names
/// the sender's index in the cluster layout.
const TAG_HELLO: u8 = 0xFE;

/// The tag byte of a decoded frame body, if the body is well-formed
/// enough to carry one (used to route an inbound frame to the peer or
/// control plane before full decoding).
#[must_use]
pub fn frame_tag(body: &[u8]) -> Option<u8> {
    (body.len() >= 2 && body[0] == WIRE_VERSION).then(|| body[1])
}

/// Whether a frame tag belongs to the control plane (including the
/// handshake) rather than the cluster message enum.
#[must_use]
pub fn is_ctl_tag(tag: u8) -> bool {
    tag >= 0x80
}

fn corrupt(what: &str) -> Error {
    Error::Corruption(format!("wire: {what}"))
}

/// A frame under construction: room for the length prefix, then the
/// body's version and tag. [`frame`] fills the prefix in.
fn body_writer(tag: u8, cap: usize) -> Writer {
    let mut w = Writer::with_capacity(4 + 2 + cap);
    w.put_u32(0);
    w.put_u8(WIRE_VERSION);
    w.put_u8(tag);
    w
}

/// Patch the u32 LE body length into the prefix [`body_writer`] reserved.
fn frame(w: Writer) -> Vec<u8> {
    let mut out = w.finish();
    let len = u32::try_from(out.len() - 4).expect("frame length");
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Open a frame body: check the version byte and return `(tag, reader)`.
fn open_body(body: &[u8]) -> Result<(u8, Reader<'_>)> {
    let mut r = Reader::new(body);
    let version = r.get_u8().map_err(|_| corrupt("empty frame"))?;
    if version != WIRE_VERSION {
        return Err(corrupt(&format!("unknown wire version {version}")));
    }
    let tag = r.get_u8().map_err(|_| corrupt("missing tag"))?;
    Ok((tag, r))
}

fn put_digest(w: &mut Writer, d: &Digest) {
    w.put_raw(&d.0);
}

fn get_digest(r: &mut Reader<'_>) -> Result<Digest> {
    let raw = r.get_raw(32)?;
    let mut d = [0u8; 32];
    d.copy_from_slice(&raw);
    Ok(Digest(d))
}

fn put_blocks(w: &mut Writer, blocks: &[ChainBlock]) {
    w.put_u32(u32::try_from(blocks.len()).expect("block count"));
    for b in blocks {
        w.put_bytes(&b.encode());
    }
}

fn get_blocks(r: &mut Reader<'_>) -> Result<Vec<ChainBlock>> {
    // `get_count`, not `get_u32`: the count is untrusted input, and a
    // lying one must be refused before it sizes an allocation.
    let n = r.get_count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ChainBlock::decode(&r.get_bytes()?)?);
    }
    Ok(out)
}

fn put_sync_response(w: &mut Writer, resp: &SyncResponse) {
    match resp {
        SyncResponse::Range(blocks) => {
            w.put_u8(0);
            put_blocks(w, blocks);
        }
        SyncResponse::Snapshot(snap, tail) => {
            w.put_u8(1);
            w.put_bytes(&snap.encode());
            put_blocks(w, tail);
        }
    }
}

fn get_sync_response(r: &mut Reader<'_>) -> Result<SyncResponse> {
    match r.get_u8()? {
        0 => Ok(SyncResponse::Range(get_blocks(r)?)),
        1 => {
            let snap = StateSnapshot::decode(&r.get_bytes()?)?;
            Ok(SyncResponse::Snapshot(Box::new(snap), get_blocks(r)?))
        }
        t => Err(corrupt(&format!("unknown sync-response kind {t}"))),
    }
}

/// Encoder/decoder for [`Msg`] frames. Holds the workload's contract
/// codec so `Submit`/`Reject` payloads come back executable.
pub struct WireCodec {
    codec: Arc<dyn ContractCodec>,
}

impl WireCodec {
    /// A codec for one workload's contracts (see
    /// [`harmony_node::ClusterWorkload::codec`]).
    #[must_use]
    pub fn new(codec: Arc<dyn ContractCodec>) -> WireCodec {
        WireCodec { codec }
    }

    /// Encode a message as a complete frame (length prefix included).
    #[must_use]
    pub fn encode_msg(&self, msg: &Msg) -> Vec<u8> {
        let w = match msg {
            Msg::Submit {
                client,
                nonce,
                submitted_ns,
                contract,
            } => {
                let bytes = encode_contract(contract.as_ref());
                let mut w = body_writer(TAG_SUBMIT, 28 + bytes.len());
                w.put_u64(*client);
                w.put_u64(*nonce);
                w.put_u64(*submitted_ns);
                w.put_bytes(&bytes);
                w
            }
            Msg::Replicate { seq } => {
                let mut w = body_writer(TAG_REPLICATE, 8);
                w.put_u64(*seq);
                w
            }
            Msg::Ack { seq } => {
                let mut w = body_writer(TAG_ACK, 8);
                w.put_u64(*seq);
                w
            }
            Msg::Prepare { seq, round } => {
                let mut w = body_writer(TAG_PREPARE, 9);
                w.put_u64(*seq);
                w.put_u8(*round);
                w
            }
            Msg::Vote { seq, round } => {
                let mut w = body_writer(TAG_VOTE, 9);
                w.put_u64(*seq);
                w.put_u8(*round);
                w
            }
            Msg::Deliver {
                block,
                born_ns,
                mean_submit_ns,
            } => {
                let bytes = block.encode();
                let mut w = body_writer(TAG_DELIVER, 20 + bytes.len());
                w.put_u64(*born_ns);
                w.put_u64(*mean_submit_ns);
                w.put_bytes(&bytes);
                w
            }
            Msg::RootGossip { height, root } => {
                let mut w = body_writer(TAG_ROOT_GOSSIP, 40);
                w.put_u64(*height);
                put_digest(&mut w, root);
                w
            }
            Msg::SyncRequest { from, epoch } => {
                let mut w = body_writer(TAG_SYNC_REQUEST, 12 + 8 * from.len());
                w.put_u64(*epoch);
                w.put_u32(u32::try_from(from.len()).expect("chain count"));
                for h in from {
                    w.put_u64(h.0);
                }
                w
            }
            Msg::SyncReply { response, epoch } => {
                let mut w = body_writer(TAG_SYNC_REPLY, 256);
                w.put_u64(*epoch);
                w.put_u64(response.height.0);
                put_digest(&mut w, &response.global_hash);
                w.put_u64(response.epoch);
                w.put_u32(u32::try_from(response.parts.len()).expect("part count"));
                for part in &response.parts {
                    put_sync_response(&mut w, part);
                }
                w
            }
            Msg::SyncRefused { epoch } => {
                let mut w = body_writer(TAG_SYNC_REFUSED, 8);
                w.put_u64(*epoch);
                w
            }
            Msg::Reject {
                client,
                nonce,
                submitted_ns,
                contract,
            } => {
                let bytes = encode_contract(contract.as_ref());
                let mut w = body_writer(TAG_REJECT, 28 + bytes.len());
                w.put_u64(*client);
                w.put_u64(*nonce);
                w.put_u64(*submitted_ns);
                w.put_bytes(&bytes);
                w
            }
        };
        frame(w)
    }

    /// Decode a frame body (length prefix already stripped).
    ///
    /// # Errors
    /// [`Error::Corruption`] on truncation, an unknown version or tag,
    /// or a payload the inner codecs reject — never a panic.
    pub fn decode_msg(&self, body: &[u8]) -> Result<Msg> {
        let (tag, mut r) = open_body(body)?;
        let msg = match tag {
            TAG_SUBMIT | TAG_REJECT => {
                let client = r.get_u64()?;
                let nonce = r.get_u64()?;
                let submitted_ns = r.get_u64()?;
                let contract = self.codec.decode(&r.get_bytes()?)?;
                if tag == TAG_SUBMIT {
                    Msg::Submit {
                        client,
                        nonce,
                        submitted_ns,
                        contract,
                    }
                } else {
                    Msg::Reject {
                        client,
                        nonce,
                        submitted_ns,
                        contract,
                    }
                }
            }
            TAG_REPLICATE => Msg::Replicate { seq: r.get_u64()? },
            TAG_ACK => Msg::Ack { seq: r.get_u64()? },
            TAG_PREPARE => Msg::Prepare {
                seq: r.get_u64()?,
                round: r.get_u8()?,
            },
            TAG_VOTE => Msg::Vote {
                seq: r.get_u64()?,
                round: r.get_u8()?,
            },
            TAG_DELIVER => {
                let born_ns = r.get_u64()?;
                let mean_submit_ns = r.get_u64()?;
                let block = ChainBlock::decode(&r.get_bytes()?)?;
                Msg::Deliver {
                    block: Arc::new(block),
                    born_ns,
                    mean_submit_ns,
                }
            }
            TAG_ROOT_GOSSIP => Msg::RootGossip {
                height: r.get_u64()?,
                root: get_digest(&mut r)?,
            },
            TAG_SYNC_REQUEST => {
                let epoch = r.get_u64()?;
                let n = r.get_count(8)?;
                let mut from = Vec::with_capacity(n);
                for _ in 0..n {
                    from.push(BlockId(r.get_u64()?));
                }
                Msg::SyncRequest { from, epoch }
            }
            TAG_SYNC_REPLY => {
                let epoch = r.get_u64()?;
                let height = BlockId(r.get_u64()?);
                let global_hash = get_digest(&mut r)?;
                let topology_epoch = r.get_u64()?;
                // A part is at least its kind byte and a block count.
                let n = r.get_count(5)?;
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(get_sync_response(&mut r)?);
                }
                Msg::SyncReply {
                    response: Arc::new(ShardedSyncResponse {
                        height,
                        global_hash,
                        epoch: topology_epoch,
                        parts,
                    }),
                    epoch,
                }
            }
            TAG_SYNC_REFUSED => Msg::SyncRefused {
                epoch: r.get_u64()?,
            },
            t => return Err(corrupt(&format!("unknown message tag {t:#x}"))),
        };
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes after message"));
        }
        Ok(msg)
    }
}

// ── Control plane ───────────────────────────────────────────────────────

/// Control-plane messages: the operator CLI's request/reply protocol,
/// plus the peer handshake. Codec-free — no contracts travel here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtlMsg {
    /// First frame of a node-to-node connection: the sender's index.
    Hello {
        /// Sender's index in the cluster layout.
        index: u32,
    },
    /// Ask a node for its status snapshot.
    StatusReq,
    /// The status snapshot.
    StatusReply(NodeStatus),
    /// Ask a replica to describe one sealed block.
    BlockReq {
        /// Shard whose chain to inspect (a flat replica hosts chain 0).
        shard: u32,
        /// Block id (height).
        seq: u64,
    },
    /// The block description (`None`: no such block on this node).
    BlockReply(Option<BlockSummary>),
    /// Crash the hosted replica (operator-driven fault injection).
    Crash,
    /// Recover the hosted replica: local checkpoint recovery, then
    /// state-sync catch-up over the real sockets.
    Recover,
    /// Ask the orderer to change the cluster's shard count: it seals a
    /// topology-change marker at the next sealable height and every
    /// replica splits/merges its shards at that epoch boundary.
    Reshard {
        /// Requested shard count.
        new_shards: u32,
    },
    /// Ask for the node's Prometheus exposition.
    MetricsReq,
    /// A text payload (exposition, timeline).
    Text(String),
    /// Ask the node's runtime to stop.
    Shutdown,
    /// Generic acknowledgement.
    Ok,
    /// The request failed; human-readable reason.
    Err(String),
}

/// Encode a control message as a complete frame (length prefix included).
#[must_use]
pub fn encode_ctl(msg: &CtlMsg) -> Vec<u8> {
    let w = match msg {
        CtlMsg::Hello { index } => {
            let mut w = body_writer(TAG_HELLO, 4);
            w.put_u32(*index);
            w
        }
        CtlMsg::StatusReq => body_writer(TAG_CTL_STATUS_REQ, 0),
        CtlMsg::StatusReply(s) => {
            let mut w = body_writer(TAG_CTL_STATUS_REPLY, 128);
            w.put_str(&s.role);
            w.put_str(&s.state);
            w.put_u64(s.height);
            w.put_str(&s.root);
            w.put_str(&s.logical_root);
            w.put_u64(s.committed_txns);
            w.put_u64(s.delivered);
            w.put_u64(s.mempool_len);
            w.put_u64(s.sealed_blocks);
            w.put_u64(s.submitted);
            w.put_u64(s.recoveries);
            w.put_u64(s.sync_blocks);
            w
        }
        CtlMsg::BlockReq { shard, seq } => {
            let mut w = body_writer(TAG_CTL_BLOCK_REQ, 12);
            w.put_u32(*shard);
            w.put_u64(*seq);
            w
        }
        CtlMsg::BlockReply(summary) => {
            let mut w = body_writer(TAG_CTL_BLOCK_REPLY, 160);
            match summary {
                None => w.put_u8(0),
                Some(b) => {
                    w.put_u8(1);
                    w.put_u64(b.id);
                    w.put_u64(b.txns);
                    w.put_str(&b.hash);
                    w.put_str(&b.prev_hash);
                }
            }
            w
        }
        CtlMsg::Crash => body_writer(TAG_CTL_CRASH, 0),
        CtlMsg::Recover => body_writer(TAG_CTL_RECOVER, 0),
        CtlMsg::Reshard { new_shards } => {
            let mut w = body_writer(TAG_CTL_RESHARD, 4);
            w.put_u32(*new_shards);
            w
        }
        CtlMsg::MetricsReq => body_writer(TAG_CTL_METRICS_REQ, 0),
        CtlMsg::Text(text) => {
            let mut w = body_writer(TAG_CTL_TEXT, text.len() + 4);
            w.put_str(text);
            w
        }
        CtlMsg::Shutdown => body_writer(TAG_CTL_SHUTDOWN, 0),
        CtlMsg::Ok => body_writer(TAG_CTL_OK, 0),
        CtlMsg::Err(reason) => {
            let mut w = body_writer(TAG_CTL_ERR, reason.len() + 4);
            w.put_str(reason);
            w
        }
    };
    frame(w)
}

/// Decode a control frame body (length prefix already stripped).
///
/// # Errors
/// [`Error::Corruption`] on truncation or an unknown version/tag.
pub fn decode_ctl(body: &[u8]) -> Result<CtlMsg> {
    let (tag, mut r) = open_body(body)?;
    let msg = match tag {
        TAG_HELLO => CtlMsg::Hello {
            index: r.get_u32()?,
        },
        TAG_CTL_STATUS_REQ => CtlMsg::StatusReq,
        TAG_CTL_STATUS_REPLY => CtlMsg::StatusReply(NodeStatus {
            role: r.get_str()?,
            state: r.get_str()?,
            height: r.get_u64()?,
            root: r.get_str()?,
            logical_root: r.get_str()?,
            committed_txns: r.get_u64()?,
            delivered: r.get_u64()?,
            mempool_len: r.get_u64()?,
            sealed_blocks: r.get_u64()?,
            submitted: r.get_u64()?,
            recoveries: r.get_u64()?,
            sync_blocks: r.get_u64()?,
        }),
        TAG_CTL_BLOCK_REQ => CtlMsg::BlockReq {
            shard: r.get_u32()?,
            seq: r.get_u64()?,
        },
        TAG_CTL_BLOCK_REPLY => CtlMsg::BlockReply(match r.get_u8()? {
            0 => None,
            1 => Some(BlockSummary {
                id: r.get_u64()?,
                txns: r.get_u64()?,
                hash: r.get_str()?,
                prev_hash: r.get_str()?,
            }),
            t => return Err(corrupt(&format!("unknown option marker {t}"))),
        }),
        TAG_CTL_CRASH => CtlMsg::Crash,
        TAG_CTL_RECOVER => CtlMsg::Recover,
        TAG_CTL_RESHARD => CtlMsg::Reshard {
            new_shards: r.get_u32()?,
        },
        TAG_CTL_METRICS_REQ => CtlMsg::MetricsReq,
        TAG_CTL_TEXT => CtlMsg::Text(r.get_str()?),
        TAG_CTL_SHUTDOWN => CtlMsg::Shutdown,
        TAG_CTL_OK => CtlMsg::Ok,
        TAG_CTL_ERR => CtlMsg::Err(r.get_str()?),
        t => return Err(corrupt(&format!("unknown control tag {t:#x}"))),
    };
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after control message"));
    }
    Ok(msg)
}

// ── Frame I/O ───────────────────────────────────────────────────────────

/// Bytes a [`FrameBuf`] starts with and shrinks back to once drained:
/// the most any connection reserves before a body byte has arrived. One
/// `read` of this size takes in a whole burst of consensus frames (a
/// HotStuff round is under 100 bytes, a 100-transaction `Deliver` about
/// 6 KiB) with room to spare, and a multi-megabyte sync reply needs few
/// reads once the buffer has doubled a few times.
pub const READ_BUF_BYTES: usize = 64 << 10;

/// The inbound half of a connection: one reused buffer that a single
/// `read` fills with whatever the socket holds, and that hands back every
/// *whole* frame in it without copying.
///
/// The length prefix is untrusted (it arrives before the `Hello` gate),
/// so it never sizes an allocation by itself: the buffer doubles only
/// when it is full of one unfinished frame, which keeps its capacity
/// within twice the bytes the peer has really sent.
pub struct FrameBuf {
    /// Readable region: `buf.len()` is the capacity in use.
    buf: Vec<u8>,
    /// Undelivered bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl Default for FrameBuf {
    fn default() -> FrameBuf {
        FrameBuf::new()
    }
}

impl FrameBuf {
    /// An empty buffer of [`READ_BUF_BYTES`].
    #[must_use]
    pub fn new() -> FrameBuf {
        FrameBuf {
            buf: vec![0; READ_BUF_BYTES],
            start: 0,
            end: 0,
        }
    }

    /// Bytes currently reserved for this connection.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Length prefix of the frame at the front, once its 4 bytes are in.
    fn front_len(&self) -> Option<usize> {
        let prefix = self.buf[self.start..self.end].first_chunk::<4>()?;
        Some(u32::from_le_bytes(*prefix) as usize)
    }

    /// Bring in what the stream holds with **one** `read`; returns the
    /// bytes read (0: the peer closed). Call [`FrameBuf::next_frame`]
    /// until it yields `None` before filling again.
    ///
    /// # Errors
    /// I/O errors pass through (`Interrupted` is retried).
    pub fn fill(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        // What is left is the head of one unfinished frame: move it to
        // the front so the free space is in one piece.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == 0 && self.buf.len() > READ_BUF_BYTES {
            // A large frame has gone through; give its memory back.
            self.buf.truncate(READ_BUF_BYTES);
            self.buf.shrink_to_fit();
        } else if self.end == self.buf.len() {
            // Full of one frame that is still arriving: double, but never
            // beyond what that frame needs.
            let need = 4 + self.front_len().unwrap_or(0);
            let grown = (self.buf.len() * 2).min(need).max(self.buf.len() + 1);
            self.buf.resize(grown, 0);
        }
        loop {
            match stream.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The body of the next whole frame, or `None` when only part of one
    /// (or nothing) is buffered.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] for a length prefix beyond
    /// [`MAX_FRAME_BYTES`]; the stream cannot be resynchronised after it.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let Some(len) = self.front_len() else {
            return Ok(None);
        };
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds cap"),
            ));
        }
        let body = self.start + 4;
        if self.end - body < len {
            return Ok(None);
        }
        self.start = body + len;
        Ok(Some(&self.buf[body..body + len]))
    }
}
