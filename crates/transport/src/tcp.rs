//! The socket/thread node runtime: one OS process hosting one
//! [`ClusterNode`] behind the [`Transport`] seam.
//!
//! A frame crosses **one** thread on its way in and none on its way out:
//! the thread that read it runs the handler, and whatever the handler
//! sends leaves in one `write` per peer before that thread reads again.
//!
//! # Layout of a running process
//!
//! * **The node lock** — the [`ClusterNode`], its wall-clock timer heap
//!   and every outbound buffer sit behind one mutex. Whoever holds it runs
//!   the *identical* `on_message`/`on_timer` handlers the deterministic
//!   simulator drives; nothing else ever touches the node.
//! * **Two listeners, one accept loop** — the cluster port and, when one
//!   is configured, the HTTP port ([`crate::http`]) each have a listener
//!   thread running the same loop: it registers every connection it
//!   accepts in one table, so shutdown can close it, and starts one
//!   reader thread for it. It joins its readers, too: the finished ones
//!   at each accept, all that are left when it stops. An HTTP reader
//!   answers one request from the registry's atomics and the timeline,
//!   never the node lock, and closes.
//! * **One reader thread per cluster connection** — a reader
//!   owns one reused buffer ([`FrameBuf`]): one `read` brings in whatever
//!   the socket holds, every whole frame in it is decoded on the reader
//!   (outside the lock; a partial tail just stays buffered), then the
//!   reader takes the lock once and runs the handlers for the whole
//!   batch. A peer connection introduces itself with a `Hello{index}`
//!   frame; frames from one that never did are counted and dropped.
//!   Control connections skip the handshake and speak request/reply: the
//!   reply is computed by the connection's own reader under the same
//!   lock — so a `StatusReq` still queues behind a block in progress —
//!   and written after the lock is released, so an operator that stops
//!   reading stalls only its own reader.
//! * **Who writes** — [`Transport::send`] only appends the encoded frame
//!   to the destination's buffer. When the batch's handlers have returned,
//!   the thread still holding the lock hands each non-empty buffer to its
//!   socket with one `write`. Outbound sockets are connected by this
//!   process and used for nothing but writing (replies come back on the
//!   peer's own connection to our listener), so they can be
//!   **non-blocking**: a `write` takes what the kernel has room for and
//!   returns, and a thread running handlers never waits on a configured
//!   peer.
//! * **The backlog** — what the socket would not take stays at the front
//!   of the peer's buffer and is retried on a short tick (`BACKLOG_TICK`) by the
//!   timer thread. It is bounded by [`PEER_BACKLOG_BYTES`]; beyond it frames are
//!   dropped and counted, one by one. The bound is in bytes because frames
//!   range from a 15-byte vote to a multi-megabyte sync reply: a frame
//!   count bounds neither the memory a stalled peer can pin nor the time
//!   its backlog takes to drain.
//! * **One connector thread per configured peer** — owns connect →
//!   `Hello` → install, with [`RetryPolicy`] exponential backoff, so
//!   process start order doesn't matter and a restarted peer is reached
//!   again. It sleeps until told the connection broke; the unsent bytes
//!   are then cut back to the last frame boundary, so the new connection
//!   starts with the interrupted frame, whole.
//! * **Timer thread** — what is left of an event loop: fires due timers
//!   under the lock, retries backlogs, takes the wall-clock metric
//!   timeline snapshots, and runs the shutdown sequence: it closes every
//!   registered connection, wakes both listeners and joins them and the
//!   connectors, and the listeners join their readers. It sleeps until
//!   its next deadline and is woken only when a handler arms an earlier
//!   one or the node is asked to stop.
//!
//! Peers without a configured address (the client slot, where
//! `harmonyctl` lives) are reached over whatever inbound connection last
//! introduced itself with that index — which is how admission rejects
//! find their way back to an external driver. Such a socket is shared
//! with its reader (one file description), so it **cannot** be
//! non-blocking; instead it has a short write timeout
//! (`DYNAMIC_WRITE_TIMEOUT`), the one bounded wait a handler thread can
//! meet. A client that lets it expire loses the link: its frames are
//! counted as dropped and our write side is closed, while its
//! submissions keep being read.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use harmony_common::{Error, Result};
use harmony_consensus::net::{SimNode, Transport};
use harmony_metrics::{Counter, Registry, Timeline};
use harmony_node::cluster::Msg;
use harmony_node::{build_node, ClusterConfig, ClusterLayout, ClusterNode, RetryPolicy};

use crate::http;
use crate::wire::{decode_ctl, encode_ctl, frame_tag, is_ctl_tag, CtlMsg, FrameBuf, WireCodec};

/// Most unsent bytes kept for one configured peer. The orderer's window
/// and the replicas' sync policy keep a healthy peer far below it (a
/// 100-transaction `Deliver` is about 6 KiB, so this is some 700 blocks);
/// a peer further behind than this is recovering by state sync anyway,
/// and holding more for it only delays the moment it finds out.
pub const PEER_BACKLOG_BYTES: usize = 4 << 20;

/// How often the timer thread offers a backlog to its socket again. A
/// loopback or LAN peer that fell behind drains its receive buffer within
/// a fraction of this; shorter would only spin on a peer that is stuck.
const BACKLOG_TICK: Duration = Duration::from_millis(1);

/// Longest a handler thread waits for a dynamic (client-slot) link to
/// take a batch. The kernel buffers absorb hundreds of kilobytes before a
/// write blocks at all, so only a client that has stopped reading gets
/// here, and every replica's block stream waits while it does.
const DYNAMIC_WRITE_TIMEOUT: Duration = Duration::from_millis(50);

/// Longest one connection attempt may take. A peer on a host that is down
/// answers nothing at all, and a connector inside `connect` cannot hear a
/// stop request; a live peer answers within a round trip.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause after a failed `accept` (descriptor exhaustion), so the listener
/// does not spin while readers are still closing theirs.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// A handler panic leaves the node in no known state: every thread that
/// then asks for the lock ends with it, and `join` returns.
const POISONED: &str = "a handler panicked holding the node lock";

/// Configuration of one OS-process node.
#[derive(Clone, Debug)]
pub struct NodeRuntimeConfig {
    /// The cluster configuration — the *same* value every process (and
    /// any simulator reference run) must use.
    pub cluster: ClusterConfig,
    /// This process's node index in the [`ClusterLayout`].
    pub index: usize,
    /// Listen address per node index (`None` for slots without a
    /// listener, e.g. the client slot an external driver occupies).
    /// Must hold `Some` at `index`.
    pub peers: Vec<Option<SocketAddr>>,
    /// Address for the HTTP observability endpoint (`/metrics`,
    /// `/timeline`, `/healthz`); `None` disables it.
    pub http: Option<SocketAddr>,
}

/// Offset of the last frame boundary at or before `upto` in a buffer of
/// whole `[u32 LE length][body]` frames that starts at a boundary.
fn frame_boundary(frames: &[u8], upto: usize) -> usize {
    let mut at = 0;
    while let Some(prefix) = frames[at..].first_chunk::<4>() {
        let next = at + 4 + u32::from_le_bytes(*prefix) as usize;
        if next > upto {
            break;
        }
        at = next;
    }
    at
}

/// Write all of `buf` or give up once `limit` has passed. The stream's
/// own send timeout (set to the same `limit`) bounds each `write`; this
/// bounds their sum, so a reader that drips cannot hold the caller.
fn write_all_within(mut stream: &TcpStream, mut buf: &[u8], limit: Duration) -> io::Result<()> {
    let started = Instant::now();
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if !buf.is_empty() && started.elapsed() >= limit {
            return Err(io::ErrorKind::TimedOut.into());
        }
    }
    Ok(())
}

/// The outbound side of one configured peer.
#[derive(Default)]
struct PeerLink {
    /// Connected, non-blocking, write-only; `None` while the connector is
    /// (re)connecting.
    stream: Option<TcpStream>,
    /// Whole frames the socket has not fully taken. Starts at a frame
    /// boundary.
    out: Vec<u8>,
    /// Bytes at the front of `out` the current connection already took.
    head: usize,
}

impl PeerLink {
    fn unsent(&self) -> usize {
        self.out.len() - self.head
    }

    /// Offer the unsent bytes to the socket with one `write`. Returns
    /// `false` when the connection turned out broken: the link is then
    /// cut back to a frame boundary and waits for its connector.
    fn flush(&mut self) -> bool {
        let Some(stream) = &mut self.stream else {
            return true;
        };
        match stream.write(&self.out[self.head..]) {
            Ok(0) => {}
            Ok(n) => {
                self.head += n;
                if self.head == self.out.len() {
                    self.out.clear();
                    self.head = 0;
                } else if self.head > self.out.len() / 2 {
                    self.cut_to_boundary();
                }
                return true;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return true;
            }
            Err(_) => {}
        }
        // The peer may have seen part of a frame: the next connection
        // starts over with that frame, whole.
        self.stream = None;
        self.cut_to_boundary();
        self.head = 0;
        false
    }

    /// Forget the frames the socket took whole.
    fn cut_to_boundary(&mut self) {
        let boundary = frame_boundary(&self.out, self.head);
        self.out.drain(..boundary);
        self.head -= boundary;
    }
}

/// A peer without an address of its own, reached over the inbound
/// connection `conn` that introduced itself with its index.
struct DynamicLink {
    conn: u64,
    stream: Arc<TcpStream>,
    out: Vec<u8>,
    frames: u64,
}

/// Every way out of this node. Lives behind the node lock.
struct Links {
    /// By node index; `None` where no address is configured (and at our
    /// own index).
    peers: Vec<Option<PeerLink>>,
    dynamic: HashMap<usize, DynamicLink>,
    dropped: Counter,
}

/// What [`Links::flush`] left behind.
#[derive(Default)]
struct Flushed {
    /// A connected peer still holds a backlog.
    backlog: bool,
    /// A connection broke; its connector must be woken.
    broke: bool,
}

impl Links {
    fn send(&mut self, to: usize, frame: &[u8]) {
        if let Some(Some(link)) = self.peers.get_mut(to) {
            // An empty buffer takes any frame, so one larger than the
            // bound still travels.
            if link.unsent() > 0 && link.unsent() + frame.len() > PEER_BACKLOG_BYTES {
                self.dropped.inc();
            } else {
                link.out.extend_from_slice(frame);
            }
        } else if let Some(link) = self.dynamic.get_mut(&to) {
            link.out.extend_from_slice(frame);
            link.frames += 1;
        } else {
            self.dropped.inc();
        }
    }

    /// Hand every non-empty buffer to its socket: one `write` each.
    fn flush(&mut self) -> Flushed {
        let mut flushed = Flushed::default();
        for link in self.peers.iter_mut().flatten() {
            if link.unsent() > 0 {
                flushed.broke |= !link.flush();
                flushed.backlog |= link.unsent() > 0 && link.stream.is_some();
            }
        }
        let dropped = &self.dropped;
        self.dynamic.retain(|_, link| {
            if link.out.is_empty() {
                return true;
            }
            let sent = write_all_within(&link.stream, &link.out, DYNAMIC_WRITE_TIMEOUT);
            if sent.is_err() {
                // Part of a frame may be out: end the stream our way, so
                // the client meets an EOF and not a frame that never ends.
                dropped.add(link.frames);
                let _ = link.stream.shutdown(Shutdown::Write);
            }
            link.out.clear();
            link.frames = 0;
            sent.is_ok()
        });
        flushed
    }
}

/// Transport metric handles (interned once).
struct NetMetrics {
    frames_in: Counter,
    bytes_in: Counter,
    frames_out: Counter,
    bytes_out: Counter,
    reconnects: Counter,
    decode_errors: Counter,
}

impl NetMetrics {
    fn register(registry: &Registry) -> NetMetrics {
        NetMetrics {
            frames_in: registry.counter_with(
                "harmony_transport_frames_total",
                "Wire frames moved, by direction.",
                &[("dir", "in")],
            ),
            bytes_in: registry.counter_with(
                "harmony_transport_bytes_total",
                "Wire bytes moved, by direction.",
                &[("dir", "in")],
            ),
            frames_out: registry.counter_with(
                "harmony_transport_frames_total",
                "Wire frames moved, by direction.",
                &[("dir", "out")],
            ),
            bytes_out: registry.counter_with(
                "harmony_transport_bytes_total",
                "Wire bytes moved, by direction.",
                &[("dir", "out")],
            ),
            reconnects: registry.counter(
                "harmony_transport_reconnects_total",
                "Outbound peer connections (re)established.",
            ),
            decode_errors: registry.counter(
                "harmony_transport_decode_errors_total",
                "Inbound frames rejected by the wire codec.",
            ),
        }
    }
}

/// The wall-clock [`Transport`] impl handed to the node's handlers.
struct TcpCtx<'a> {
    rt: &'a Runtime,
    now_ns: u64,
    links: &'a mut Links,
    timers: &'a mut BinaryHeap<Reverse<(u64, u64)>>,
}

impl Transport<Msg> for TcpCtx<'_> {
    fn now(&self) -> u64 {
        self.now_ns
    }

    fn me(&self) -> usize {
        self.rt.me
    }

    fn send(&mut self, to: usize, msg: Msg, _bytes: u64) {
        let frame = self.rt.codec.encode_msg(&msg);
        self.rt.metrics.frames_out.inc();
        self.rt.metrics.bytes_out.add(frame.len() as u64);
        self.links.send(to, &frame);
    }

    fn set_timer(&mut self, delay_ns: u64, id: u64) {
        self.timers
            .push(Reverse((self.now_ns.saturating_add(delay_ns), id)));
    }

    fn charge_cpu(&mut self, _ns: u64) {
        // Real CPU time is spent for real here.
    }
}

/// Everything a handler may touch, behind the node lock.
struct Core {
    node: ClusterNode,
    /// Armed timers as `(due_ns, id)`.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    links: Links,
    /// The deadline the timer thread is asleep until (0 while it is
    /// awake): whoever creates an earlier one wakes it.
    asleep_until_ns: u64,
    /// Asked to stop; the timer thread runs the shutdown sequence.
    stopping: bool,
}

impl Core {
    fn drive<R>(
        &mut self,
        rt: &Runtime,
        f: impl FnOnce(&mut ClusterNode, &mut TcpCtx<'_>) -> R,
    ) -> R {
        let mut ctx = TcpCtx {
            rt,
            now_ns: rt.now_ns(),
            links: &mut self.links,
            timers: &mut self.timers,
        };
        f(&mut self.node, &mut ctx)
    }

    /// Answer one control request. `true` with the reply asks the caller
    /// to stop the node once the reply is on its way.
    fn control(&mut self, rt: &Runtime, request: Result<CtlMsg>) -> (CtlMsg, bool) {
        let reply = match request {
            Ok(CtlMsg::StatusReq) => CtlMsg::StatusReply(self.node.status()),
            Ok(CtlMsg::BlockReq { shard, seq }) => {
                CtlMsg::BlockReply(self.node.block_summary(shard as usize, seq))
            }
            Ok(CtlMsg::Crash) => {
                self.drive(rt, |n, ctx| n.on_timer(harmony_node::TIMER_CRASH, ctx));
                CtlMsg::Ok
            }
            Ok(CtlMsg::Recover) => {
                self.drive(rt, |n, ctx| n.on_timer(harmony_node::TIMER_RECOVER, ctx));
                CtlMsg::Ok
            }
            Ok(CtlMsg::Reshard { new_shards }) => {
                if self.drive(rt, |n, ctx| n.reshard(new_shards, ctx)) {
                    CtlMsg::Ok
                } else {
                    CtlMsg::Err("reshard must target the orderer".into())
                }
            }
            Ok(CtlMsg::MetricsReq) => CtlMsg::Text(rt.registry.render_prometheus()),
            Ok(CtlMsg::Shutdown) => return (CtlMsg::Ok, true),
            Ok(other) => CtlMsg::Err(format!("unexpected control request: {other:?}")),
            Err(e) => CtlMsg::Err(format!("bad control frame: {e}")),
        };
        (reply, false)
    }
}

/// One decoded inbound frame, waiting for the node lock.
enum Inbound {
    /// A cluster message from peer `from`.
    Peer { from: usize, msg: Msg },
    /// A control request; the reply goes back down the same connection.
    Ctl(Result<CtlMsg>),
    /// `Hello` from a peer without an address: reach it over this
    /// connection from now on.
    Link { index: usize },
}

/// Accepted connections of both listeners, kept so shutdown can unblock
/// their readers.
#[derive(Default)]
struct Conns {
    /// Set by shutdown: the listeners stop, and nothing registers after it.
    closed: bool,
    open: HashMap<u64, Arc<TcpStream>>,
    /// The id of the last connection registered.
    next: u64,
}

/// State shared across the runtime's threads.
struct Runtime {
    me: usize,
    epoch: Instant,
    core: Mutex<Core>,
    /// Wakes the timer thread (paired with `core`).
    timer_wake: Condvar,
    /// Wakes the connectors (paired with `core`).
    connector_wake: Condvar,
    codec: WireCodec,
    metrics: NetMetrics,
    registry: Arc<Registry>,
    /// Wall-clock metric snapshots: the timer thread records them, the
    /// HTTP endpoint serves them.
    timeline: parking_lot::Mutex<Timeline>,
    /// Node indices reached over a connector (an address, and not ours).
    configured: Vec<bool>,
    conns: parking_lot::Mutex<Conns>,
    /// The connectors and listeners, joined by shutdown.
    threads: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    listen_addr: SocketAddr,
    /// The HTTP endpoint's bound address, if one was configured.
    http_addr: Option<SocketAddr>,
}

impl Runtime {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect(POISONED)
    }

    /// End a batch of handler calls: push out what they sent, and wake
    /// whoever now has something to do sooner than it thought. Returns the
    /// next instant the timer thread is needed: the earliest armed timer,
    /// or a backlog's next tick.
    fn finish(&self, core: &mut Core) -> u64 {
        let flushed = core.links.flush();
        if flushed.broke {
            self.connector_wake.notify_all();
        }
        let mut next = core
            .timers
            .peek()
            .map_or(u64::MAX, |&Reverse((due, _))| due);
        if flushed.backlog {
            next = next.min(self.now_ns() + BACKLOG_TICK.as_nanos() as u64);
        }
        if next < core.asleep_until_ns {
            // One wake-up is enough until the timer thread sleeps again.
            core.asleep_until_ns = 0;
            self.timer_wake.notify_one();
        }
        next
    }

    /// Run the handlers for one reader's batch under one hold of the
    /// lock; control replies are appended to `replies`. Returns whether a
    /// control request asked the node to stop.
    fn handle(
        &self,
        conn: u64,
        stream: &Arc<TcpStream>,
        batch: &mut Vec<Inbound>,
        replies: &mut Vec<u8>,
    ) -> bool {
        let mut stop = false;
        let mut core = self.lock();
        for inbound in batch.drain(..) {
            match inbound {
                Inbound::Peer { from, msg } => {
                    core.drive(self, |n, ctx| n.on_message(from, msg, ctx));
                }
                Inbound::Ctl(request) => {
                    let (reply, asked_to_stop) = core.control(self, request);
                    replies.extend_from_slice(&encode_ctl(&reply));
                    stop |= asked_to_stop;
                }
                Inbound::Link { index } => {
                    // Without its timeout the link could hold a handler.
                    if stream
                        .set_write_timeout(Some(DYNAMIC_WRITE_TIMEOUT))
                        .is_ok()
                    {
                        let link = DynamicLink {
                            conn,
                            stream: Arc::clone(stream),
                            out: Vec::new(),
                            frames: 0,
                        };
                        core.links.dynamic.insert(index, link);
                    }
                }
            }
        }
        self.finish(&mut core);
        stop
    }

    /// Ask the node to stop (a control-plane `Shutdown`, or
    /// [`NodeRuntime::stop`]).
    fn request_stop(&self) {
        self.lock().stopping = true;
        self.timer_wake.notify_one();
    }

    /// Start one of the threads the shutdown sequence joins: a connector
    /// or a listener.
    fn spawn(
        self: &Arc<Runtime>,
        name: String,
        body: impl FnOnce(&Arc<Runtime>) + Send + 'static,
    ) -> io::Result<()> {
        let rt = Arc::clone(self);
        let thread = thread::Builder::new().name(name).spawn(move || body(&rt))?;
        self.threads.lock().push(thread);
        Ok(())
    }

    /// Flip the flag, unblock every thread, and wait for them.
    fn shut_down(&self) {
        self.lock().stopping = true;
        self.connector_wake.notify_all();
        {
            let mut conns = self.conns.lock();
            conns.closed = true;
            for stream in conns.open.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // One last self-connect pops each listener out of accept().
        for addr in std::iter::once(self.listen_addr).chain(self.http_addr) {
            let _ = TcpStream::connect(addr);
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// A running OS-process node. Dropping the handle does **not** stop the
/// runtime; use [`NodeRuntime::stop`] or a control-plane `Shutdown`.
pub struct NodeRuntime {
    timer: JoinHandle<()>,
    rt: Arc<Runtime>,
}

impl NodeRuntime {
    /// Bind the listeners (the cluster port, and the HTTP port if one is
    /// configured), spawn the runtime's threads, and start the node at
    /// `cfg.index` built by the same [`build_node`] factory the
    /// simulator uses. Every thread that will run a handler descends from
    /// the calling thread (and so inherits its CPU affinity).
    ///
    /// # Errors
    /// Configuration errors (bad index, missing listen address), node
    /// construction failures, socket bind and thread spawn errors.
    pub fn start(cfg: NodeRuntimeConfig) -> Result<NodeRuntime> {
        let layout = ClusterLayout::of(&cfg.cluster);
        if cfg.index >= layout.total() || cfg.peers.len() != layout.total() {
            return Err(Error::InvalidArgument(format!(
                "runtime index {} / peer table {} vs layout of {} nodes",
                cfg.index,
                cfg.peers.len(),
                layout.total()
            )));
        }
        let listen = cfg.peers[cfg.index]
            .ok_or_else(|| Error::InvalidArgument("no listen address for this node".into()))?;
        let registry = Arc::new(Registry::new());
        let node = build_node(&cfg.cluster, &registry, cfg.index)?;
        let codec = WireCodec::new(cfg.cluster.workload.codec()?);
        let metrics = NetMetrics::register(&registry);
        let (retry, seed) = (cfg.cluster.sync_retry, cfg.cluster.seed);
        let listener = bind_with_retry(listen, retry, seed)?;
        let http_listener = cfg.http.map(|addr| bind_with_retry(addr, retry, seed));
        let http_listener = http_listener.transpose()?;
        let bound = |listener: &TcpListener| listener.local_addr().map_err(Error::Io);
        let listen_addr = bound(&listener)?;
        let http_addr = http_listener.as_ref().map(bound).transpose()?;

        let configured: Vec<bool> = cfg
            .peers
            .iter()
            .enumerate()
            .map(|(to, addr)| addr.is_some() && to != cfg.index)
            .collect();
        let every_ns = cfg.cluster.metrics_every_ns.max(1);
        let rt = Arc::new(Runtime {
            me: cfg.index,
            epoch: Instant::now(),
            core: Mutex::new(Core {
                node,
                timers: BinaryHeap::new(),
                links: Links {
                    peers: configured
                        .iter()
                        .map(|&c| c.then(PeerLink::default))
                        .collect(),
                    dynamic: HashMap::new(),
                    dropped: registry.counter(
                        "harmony_transport_dropped_frames_total",
                        "Outbound frames dropped by backlog backpressure or dead peers.",
                    ),
                },
                asleep_until_ns: 0,
                stopping: false,
            }),
            timer_wake: Condvar::new(),
            connector_wake: Condvar::new(),
            codec,
            metrics,
            timeline: parking_lot::Mutex::new(Timeline::new(
                &format!("tcp·node{}", cfg.index),
                seed,
                every_ns,
            )),
            registry,
            configured,
            conns: parking_lot::Mutex::new(Conns::default()),
            threads: parking_lot::Mutex::new(Vec::new()),
            listen_addr,
            http_addr,
        });

        // Connectors and listeners first, each kept for the shutdown
        // sequence; then the timer thread, which runs it.
        let spawn_all = || -> io::Result<JoinHandle<()>> {
            for (to, addr) in cfg.peers.iter().enumerate() {
                if let (Some(addr), true) = (*addr, rt.configured[to]) {
                    let name = format!("harmony-conn-{}-{to}", cfg.index);
                    rt.spawn(name, move |rt| run_connector(rt, to, addr, retry, seed))?;
                }
            }
            rt.spawn("harmony-listener".into(), move |rt| {
                run_listener(rt, &listener, "harmony-reader", run_reader);
            })?;
            if let Some(listener) = http_listener {
                rt.spawn("harmony-http".into(), move |rt| {
                    run_listener(rt, &listener, "harmony-http-rd", |rt, _, stream| {
                        http::serve(stream, &rt.registry, &rt.timeline);
                    });
                })?;
            }
            let timer_rt = Arc::clone(&rt);
            thread::Builder::new()
                .name(format!("harmony-node-{}", cfg.index))
                .spawn(move || run_timers(&timer_rt, every_ns))
        };
        match spawn_all() {
            Ok(timer) => Ok(NodeRuntime { timer, rt }),
            Err(e) => {
                rt.shut_down();
                Err(Error::Io(e))
            }
        }
    }

    /// The bound listen address (useful with port-0 configs).
    #[must_use]
    pub fn listen_addr(&self) -> SocketAddr {
        self.rt.listen_addr
    }

    /// The bound HTTP endpoint address, if one was configured.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.rt.http_addr
    }

    /// Ask the runtime to exit (same as a control-plane `Shutdown`).
    pub fn stop(&self) {
        self.rt.request_stop();
    }

    /// Block until the runtime has stopped (control-plane `Shutdown` or
    /// [`NodeRuntime::stop`]) and every thread it started has exited.
    pub fn join(self) {
        let _ = self.timer.join();
    }
}

/// Bind one of the node's listeners, retrying with the cluster's
/// deterministic backoff policy while the address is still in use.
///
/// `harmonyctl spawn` allocates ports by bind-and-release, so the
/// spawned process can race the allocator's socket still closing (or a
/// predecessor process still unwinding) — the classic bind TOCTOU. A
/// bounded retry with the same jittered backoff the connector threads use
/// closes that window without hanging forever on a genuinely taken
/// port; any error other than `AddrInUse` still fails immediately.
fn bind_with_retry(addr: SocketAddr, retry: RetryPolicy, seed: u64) -> Result<TcpListener> {
    let mut attempt: u32 = 0;
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempt < retry.max_retries => {
                thread::sleep(Duration::from_nanos(retry.backoff_ns(
                    attempt,
                    seed,
                    u64::from(addr.port()),
                )));
                attempt += 1;
            }
            Err(e) => return Err(Error::Io(e)),
        }
    }
}

/// The timer thread: fire due timers, retry backlogs, snapshot the
/// timeline; on the way out, stop everything else.
fn run_timers(rt: &Runtime, snapshot_every_ns: u64) {
    let mut next_snapshot = snapshot_every_ns;
    loop {
        let mut core = rt.lock();
        loop {
            match core.timers.peek() {
                Some(&Reverse((due, id))) if due <= rt.now_ns() => {
                    core.timers.pop();
                    core.drive(rt, |n, ctx| n.on_timer(id, ctx));
                }
                _ => break,
            }
        }
        let next = rt.finish(&mut core);
        if core.stopping {
            break;
        }
        let now = rt.now_ns();
        if now >= next_snapshot {
            // Off the lock: a snapshot reads atomics, not the node.
            drop(core);
            rt.timeline.lock().record(now, &rt.registry);
            while next_snapshot <= now {
                next_snapshot += snapshot_every_ns;
            }
            continue;
        }
        let deadline = next.min(next_snapshot);
        core.asleep_until_ns = deadline;
        let wait = Duration::from_nanos(deadline.saturating_sub(now).max(1));
        let (mut core, _) = rt.timer_wake.wait_timeout(core, wait).expect(POISONED);
        core.asleep_until_ns = 0;
    }
    rt.shut_down();
}

/// Connect to `addr` and introduce ourselves; the stream comes back
/// non-blocking, ready to install.
fn connect_and_greet(addr: SocketAddr, me: usize, reconnects: &Counter) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    reconnects.inc();
    let _ = stream.set_nodelay(true);
    stream.write_all(&encode_ctl(&CtlMsg::Hello {
        index: u32::try_from(me).unwrap_or(u32::MAX),
    }))?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// One configured peer's connector: connect → `Hello` → install, then
/// sleep until the link reports the connection broken.
fn run_connector(rt: &Runtime, to: usize, addr: SocketAddr, retry: RetryPolicy, seed: u64) {
    let connected = |core: &Core| {
        core.links.peers[to]
            .as_ref()
            .is_some_and(|link| link.stream.is_some())
    };
    let mut attempt: u32 = 0;
    loop {
        let core = rt
            .connector_wake
            .wait_while(rt.lock(), |core| !core.stopping && connected(core))
            .expect(POISONED);
        if core.stopping {
            return;
        }
        drop(core);
        match connect_and_greet(addr, rt.me, &rt.metrics.reconnects) {
            Ok(stream) => {
                attempt = 0;
                let mut core = rt.lock();
                if let Some(link) = &mut core.links.peers[to] {
                    link.stream = Some(stream);
                }
                rt.finish(&mut core);
            }
            Err(_) => {
                // Exponential backoff with deterministic jitter — the
                // state-sync retry policy, reused on real sockets; a stop
                // request cuts the wait short.
                let wait = retry.backoff_ns(attempt.min(retry.max_retries), seed, to as u64);
                attempt = attempt.saturating_add(1);
                let _ = rt
                    .connector_wake
                    .wait_timeout_while(rt.lock(), Duration::from_nanos(wait), |core| {
                        !core.stopping
                    })
                    .expect(POISONED);
            }
        }
    }
}

/// One listener's accept loop, the same for both ports: register each
/// connection, run `serve` on it on a reader thread of its own (named
/// `name`), and join every reader, as it is found finished and when the
/// loop ends.
fn run_listener(
    rt: &Arc<Runtime>,
    listener: &TcpListener,
    name: &str,
    serve: fn(&Runtime, u64, &Arc<TcpStream>),
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        let mut conns = rt.conns.lock();
        if conns.closed {
            break;
        }
        let Ok((stream, _)) = accepted else {
            drop(conns);
            thread::sleep(ACCEPT_RETRY);
            continue;
        };
        let _ = stream.set_nodelay(true);
        let stream = Arc::new(stream);
        conns.next += 1;
        let conn = conns.next;
        conns.open.insert(conn, Arc::clone(&stream));
        drop(conns);
        for finished in readers.extract_if(.., |reader| reader.is_finished()) {
            let _ = finished.join();
        }
        let reader_rt = Arc::clone(rt);
        let spawned = thread::Builder::new().name(name.into()).spawn(move || {
            serve(&reader_rt, conn, &stream);
            // Drop the table's handle; this thread's, the last, closes
            // the descriptor.
            reader_rt.conns.lock().open.remove(&conn);
        });
        match spawned {
            Ok(spawned) => readers.push(spawned),
            Err(_) => {
                rt.conns.lock().open.remove(&conn);
            }
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// One inbound connection: read a burst, decode every whole frame in it,
/// run the handlers for the batch, write the control replies, repeat.
fn run_reader(rt: &Runtime, conn: u64, stream: &Arc<TcpStream>) {
    let mut frames = FrameBuf::new();
    let mut batch: Vec<Inbound> = Vec::new();
    let mut replies: Vec<u8> = Vec::new();
    let mut from: Option<usize> = None;
    let mut resynchronisable = true;
    while resynchronisable && matches!(frames.fill(&mut &**stream), Ok(n) if n > 0) {
        loop {
            match frames.next_frame() {
                Ok(Some(body)) => {
                    rt.metrics.frames_in.inc();
                    rt.metrics.bytes_in.add(body.len() as u64 + 4);
                    match decode_inbound(rt, body, &mut from) {
                        Ok(inbound) => batch.extend(inbound),
                        Err(()) => rt.metrics.decode_errors.inc(),
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // A length beyond the cap: nothing after it can be
                    // trusted to be a frame boundary.
                    rt.metrics.decode_errors.inc();
                    resynchronisable = false;
                    break;
                }
            }
        }
        if batch.is_empty() {
            continue;
        }
        let stop = rt.handle(conn, stream, &mut batch, &mut replies);
        if !replies.is_empty() {
            // Off the lock; a failed write shows as EOF on the next read.
            let _ = (&**stream).write_all(&replies);
            replies.clear();
        }
        if stop {
            rt.request_stop();
        }
    }
    // Drop the node's handle on the descriptor; the accept loop drops the rest.
    rt.lock().links.dynamic.retain(|_, link| link.conn != conn);
}

/// Decode one frame body on the reader. `Ok(None)`: a `Hello` that needs
/// nothing from the node. `Err`: malformed, or a cluster message from a
/// connection that never said `Hello`.
fn decode_inbound(
    rt: &Runtime,
    body: &[u8],
    from: &mut Option<usize>,
) -> std::result::Result<Option<Inbound>, ()> {
    let tag = frame_tag(body).ok_or(())?;
    if !is_ctl_tag(tag) {
        let from = from.ok_or(())?;
        let msg = rt.codec.decode_msg(body).map_err(drop)?;
        return Ok(Some(Inbound::Peer { from, msg }));
    }
    Ok(match decode_ctl(body) {
        Ok(CtlMsg::Hello { index }) => {
            let index = index as usize;
            *from = Some(index);
            // Peers without a configured address become reachable over
            // this connection (e.g. replies to the external client
            // driver).
            let configured = rt.configured.get(index).copied().unwrap_or(false);
            (!configured).then_some(Inbound::Link { index })
        }
        request => Some(Inbound::Ctl(request)),
    })
}
