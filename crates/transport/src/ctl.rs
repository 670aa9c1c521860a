//! Operator control-plane clients.
//!
//! [`CtlClient`] speaks the request/reply control frames (status, block
//! inspection, crash/recover injection, metrics scrape, shutdown) over
//! a node's cluster port. [`SubmitClient`] occupies the cluster's
//! client slot (index 0) and streams transactions to the orderer —
//! the wire-level twin of the simulator's in-process client bank.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use harmony_common::{Error, Result};
use harmony_node::cluster::Msg;
use harmony_node::{BlockSummary, NodeStatus, Submission};
use harmony_txn::ContractCodec;

use crate::wire::{decode_ctl, encode_ctl, CtlMsg, FrameBuf, WireCodec};

/// Request/reply client for a node's control plane.
pub struct CtlClient {
    stream: TcpStream,
    /// Every reply is read through this one buffer.
    frames: FrameBuf,
}

impl CtlClient {
    /// Connect to a node's cluster listen address.
    ///
    /// # Errors
    /// Socket connect/configure failures.
    pub fn connect(addr: SocketAddr) -> Result<CtlClient> {
        let stream = TcpStream::connect(addr).map_err(Error::Io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(Error::Io)?;
        stream.set_nodelay(true).map_err(Error::Io)?;
        let frames = FrameBuf::new();
        Ok(CtlClient { stream, frames })
    }

    /// Send one control request and block for its reply.
    ///
    /// # Errors
    /// Socket errors, a closed connection, an undecodable reply, or an
    /// explicit `Err` reply from the node.
    pub fn request(&mut self, msg: &CtlMsg) -> Result<CtlMsg> {
        self.stream.write_all(&encode_ctl(msg)).map_err(Error::Io)?;
        loop {
            if let Some(body) = self.frames.next_frame().map_err(Error::Io)? {
                return match decode_ctl(body)? {
                    CtlMsg::Err(e) => Err(Error::InvalidArgument(e)),
                    reply => Ok(reply),
                };
            }
            if self.frames.fill(&mut self.stream).map_err(Error::Io)? == 0 {
                let closed = "connection closed before control reply";
                return Err(Error::Corruption(closed.into()));
            }
        }
    }

    /// Send a request whose one good reply is `Ok`.
    fn request_ok(&mut self, msg: &CtlMsg) -> Result<()> {
        match self.request(msg)? {
            CtlMsg::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Fetch the node's [`NodeStatus`].
    ///
    /// # Errors
    /// Transport errors or an unexpected reply kind.
    pub fn status(&mut self) -> Result<NodeStatus> {
        match self.request(&CtlMsg::StatusReq)? {
            CtlMsg::StatusReply(status) => Ok(status),
            other => Err(unexpected("StatusReply", &other)),
        }
    }

    /// Fetch a committed block summary from a replica (shard 0 on flat
    /// clusters).
    ///
    /// # Errors
    /// Transport errors or an unexpected reply kind.
    pub fn block(&mut self, shard: u32, seq: u64) -> Result<Option<BlockSummary>> {
        match self.request(&CtlMsg::BlockReq { shard, seq })? {
            CtlMsg::BlockReply(summary) => Ok(summary),
            other => Err(unexpected("BlockReply", &other)),
        }
    }

    /// Inject a crash (node drops in-memory state, stops participating).
    ///
    /// # Errors
    /// Transport errors or an unexpected reply kind.
    pub fn crash(&mut self) -> Result<()> {
        self.request_ok(&CtlMsg::Crash)
    }

    /// Bring a crashed node back; it rejoins via real-socket state sync.
    ///
    /// # Errors
    /// Transport errors or an unexpected reply kind.
    pub fn recover(&mut self) -> Result<()> {
        self.request_ok(&CtlMsg::Recover)
    }

    /// Ask the orderer to change the cluster's shard count: it seals a
    /// topology-change marker block at the next sealable height and
    /// every replica splits/merges its shards at that epoch boundary.
    /// Must target the orderer's control port; out-of-range counts
    /// (zero, above the partition count, or any count on a flat
    /// cluster) are dropped by the orderer.
    ///
    /// # Errors
    /// Transport errors, an `Err` reply (non-orderer target), or an
    /// unexpected reply kind.
    pub fn reshard(&mut self, new_shards: u32) -> Result<()> {
        self.request_ok(&CtlMsg::Reshard { new_shards })
    }

    /// Scrape the node's live metrics in Prometheus text format over
    /// the control port (the HTTP endpoint serves the same text).
    ///
    /// # Errors
    /// Transport errors or an unexpected reply kind.
    pub fn metrics(&mut self) -> Result<String> {
        match self.request(&CtlMsg::MetricsReq)? {
            CtlMsg::Text(text) => Ok(text),
            other => Err(unexpected("Text", &other)),
        }
    }

    /// Ask the node's runtime to stop.
    ///
    /// # Errors
    /// Transport errors or an unexpected reply kind.
    pub fn shutdown(&mut self) -> Result<()> {
        self.request_ok(&CtlMsg::Shutdown)
    }
}

fn unexpected(wanted: &str, got: &CtlMsg) -> Error {
    Error::Corruption(format!("expected {wanted} control reply, got {got:?}"))
}

/// Transaction driver occupying the cluster's client slot.
pub struct SubmitClient {
    stream: TcpStream,
    codec: WireCodec,
}

impl SubmitClient {
    /// Connect to the orderer and introduce ourselves as the client
    /// slot (index 0), so admission rejects can be routed back over
    /// this connection.
    ///
    /// # Errors
    /// Socket connect/configure/handshake failures.
    pub fn connect(orderer: SocketAddr, codec: Arc<dyn ContractCodec>) -> Result<SubmitClient> {
        let mut stream = TcpStream::connect(orderer).map_err(Error::Io)?;
        stream.set_nodelay(true).map_err(Error::Io)?;
        // The client slot is index 0 in every ClusterLayout.
        stream
            .write_all(&encode_ctl(&CtlMsg::Hello { index: 0 }))
            .map_err(Error::Io)?;
        Ok(SubmitClient {
            stream,
            codec: WireCodec::new(codec),
        })
    }

    /// Stream one transaction submission to the orderer.
    ///
    /// # Errors
    /// Socket write failures.
    pub fn submit(&mut self, s: &Submission) -> Result<()> {
        let frame = self.codec.encode_msg(&Msg::Submit {
            client: s.client,
            nonce: s.nonce,
            submitted_ns: s.at_ns,
            contract: Arc::clone(&s.contract),
        });
        self.stream.write_all(&frame).map_err(Error::Io)
    }

    /// Flush buffered submissions to the socket.
    ///
    /// # Errors
    /// Socket flush failures.
    pub fn flush(&mut self) -> Result<()> {
        self.stream.flush().map_err(Error::Io)
    }
}
