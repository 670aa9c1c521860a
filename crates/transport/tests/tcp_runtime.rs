//! The TCP runtime against real sockets on loopback: real `NodeRuntime`s
//! on one side, this file's raw sockets (playing a peer, a client or an
//! operator) on the other.
//!
//! What is pinned here is the transport's own contract, whatever the
//! cluster above it does: frames arrive as the sequence that was sent
//! however the byte stream was cut; a peer that stops reading costs a
//! bounded backlog and then counted drops, never a stalled handler; a
//! restarted peer is reached again from a frame boundary; nothing an
//! unauthenticated length prefix says sizes an allocation; connections
//! and threads are given back.
//!
//! Descriptor and thread counts are per process, so the tests of this
//! file take turns ([`serial`]) under whatever harness runs them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use harmony_chain::ChainConfig;
use harmony_crypto::CryptoCost;
use harmony_node::cluster::Msg;
use harmony_node::{
    submission_trace, ClusterConfig, ClusterLayout, ClusterWorkload, MempoolConfig, OrderingMode,
    ReplicaConfig, RetryPolicy, ShardTopology, Submission,
};
use harmony_sim::EngineKind;
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_transport::{
    decode_ctl, encode_ctl, CtlClient, CtlMsg, FrameBuf, NodeRuntime, NodeRuntimeConfig,
    SubmitClient, WireCodec, MAX_FRAME_BYTES, PEER_BACKLOG_BYTES, READ_BUF_BYTES, WIRE_VERSION,
};
use harmony_workloads::{
    OpenLoopConfig, Smallbank, SmallbankConfig, Tpcc, TpccConfig, Workload, Ycsb, YcsbConfig,
};
use proptest::prelude::*;

/// One test of this file at a time.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// No single wait in this file is allowed to take longer.
const PATIENCE: Duration = Duration::from_secs(20);

// ── Fixtures ────────────────────────────────────────────────────────────

/// A cluster whose sealing is count-driven (`block_txns` per block, the
/// batch tick never fires), with one replica slot.
fn cluster(workload: ClusterWorkload, brokers: usize, block_txns: usize) -> ClusterConfig {
    ClusterConfig {
        replicas: 1,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::memory(),
                crypto: CryptoCost::free(),
                ..ChainConfig::default()
            },
            engine: EngineKind::Rbc,
            workers: 1,
            gossip_every: 4,
        },
        topology: None,
        workload,
        ordering: OrderingMode::Kafka { brokers },
        mempool: MempoolConfig {
            capacity: 1 << 20,
            ..MempoolConfig::default()
        },
        open_loop: OpenLoopConfig {
            clients: 1,
            rate_tps: 100_000.0,
            hot_share: 0.0,
        },
        block_txns,
        batch_interval_ns: 1 << 50,
        eager_seal: true,
        // Quick reconnects: the restart test waits for one.
        sync_retry: RetryPolicy {
            base_timeout_ns: 1_000_000,
            max_backoff_ns: 8_000_000,
            max_retries: 8,
        },
        seed: 0x7C9,
        ..ClusterConfig::default()
    }
}

fn small_ycsb() -> ClusterWorkload {
    ClusterWorkload::Ycsb(YcsbConfig {
        keys: 100,
        ops_per_txn: 1,
        ..YcsbConfig::default()
    })
}

/// Wide transactions: a 10-transaction `Deliver` is about 11 KiB, so a
/// few hundred fill any kernel buffer and the backlog behind it.
fn wide_ycsb() -> ClusterWorkload {
    ClusterWorkload::Ycsb(YcsbConfig {
        keys: 100,
        ops_per_txn: 64,
        read_ratio: 0.0,
        ..YcsbConfig::default()
    })
}

/// A runtime that is stopped and joined when the test ends, pass or fail.
struct Node(Option<NodeRuntime>);

impl Node {
    fn start(cluster: &ClusterConfig, index: usize, peers: Vec<Option<SocketAddr>>) -> Node {
        Node::start_serving(cluster, index, peers, None)
    }

    /// An orderer (alone in its peer table) with an HTTP endpoint.
    fn orderer_with_http(cluster: &ClusterConfig) -> Node {
        let layout = ClusterLayout::of(cluster);
        let mut peers = vec![None; layout.total()];
        peers[layout.orderer()] = any_port();
        Node::start_serving(cluster, layout.orderer(), peers, any_port())
    }

    fn start_serving(
        cluster: &ClusterConfig,
        index: usize,
        peers: Vec<Option<SocketAddr>>,
        http: Option<SocketAddr>,
    ) -> Node {
        Node(Some(
            NodeRuntime::start(NodeRuntimeConfig {
                cluster: cluster.clone(),
                index,
                peers,
                http,
            })
            .expect("start runtime"),
        ))
    }

    fn runtime(&self) -> &NodeRuntime {
        self.0.as_ref().expect("running")
    }

    fn addr(&self) -> SocketAddr {
        self.runtime().listen_addr()
    }

    fn http(&self) -> SocketAddr {
        self.runtime().http_addr().expect("an HTTP endpoint")
    }

    fn stop_and_join(mut self) {
        let runtime = self.0.take().expect("running");
        runtime.stop();
        runtime.join();
    }

    fn ctl(&self) -> CtlClient {
        CtlClient::connect(self.addr()).expect("control connection")
    }

    /// The series of the node's exposition that start with `series` (a
    /// metric name, with or without its labels), summed.
    fn counter(&self, series: &str) -> u64 {
        let text = self.ctl().metrics().expect("metrics");
        text.lines()
            .filter(|l| l.starts_with(series))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum::<f64>() as u64
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(runtime) = self.0.take() {
            runtime.stop();
            runtime.join();
        }
    }
}

fn loopback() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind loopback")
}

fn any_port() -> Option<SocketAddr> {
    Some("127.0.0.1:0".parse().expect("addr"))
}

/// The read side of a raw socket: every frame on it comes through one
/// [`FrameBuf`], as on the runtime's own readers.
struct Frames {
    stream: TcpStream,
    buf: FrameBuf,
}

impl Frames {
    fn new(stream: TcpStream) -> Frames {
        Frames {
            stream,
            buf: FrameBuf::new(),
        }
    }

    /// Decode the next frame's body; the stream may not end before it.
    fn next<T>(&mut self, decode: impl FnOnce(&[u8]) -> T) -> T {
        loop {
            if let Some(body) = self.buf.next_frame().expect("a legal prefix") {
                return decode(body);
            }
            let read = self.buf.fill(&mut self.stream).expect("read");
            assert!(read > 0, "a frame, not end of stream");
        }
    }
}

/// Accept one connection, or fail the test after [`PATIENCE`].
fn accept(listener: &TcpListener) -> Frames {
    listener.set_nonblocking(true).expect("nonblocking");
    let started = Instant::now();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).expect("blocking");
                stream
                    .set_read_timeout(Some(PATIENCE))
                    .expect("read timeout");
                return Frames::new(stream);
            }
            Err(_) if started.elapsed() < PATIENCE => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("no connection within {PATIENCE:?}: {e}"),
        }
    }
}

/// Read the `Hello` a connector opens with; returns the sender's index.
fn expect_hello(stream: &mut Frames) -> u32 {
    match stream.next(decode_ctl).expect("decode hello") {
        CtlMsg::Hello { index } => index,
        other => panic!("expected Hello, got {other:?}"),
    }
}

fn next_msg(stream: &mut Frames, codec: &WireCodec) -> Msg {
    stream
        .next(|body| codec.decode_msg(body))
        .expect("frames must start at a boundary")
}

fn next_deliver_id(stream: &mut Frames, codec: &WireCodec) -> u64 {
    match next_msg(stream, codec) {
        Msg::Deliver { block, .. } => block.header.id.0,
        _ => panic!("expected Deliver"),
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < PATIENCE, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// Threads of this process the runtime named.
fn runtime_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("harmony-"))
        .collect()
}

/// An orderer runtime (Kafka, one broker: it delivers what it seals at
/// once) whose single replica is this test's `replica` listener, plus the
/// client connection feeding it.
struct OrdererRig {
    cfg: ClusterConfig,
    codec: WireCodec,
    orderer: Node,
    client: SubmitClient,
    trace: std::vec::IntoIter<Submission>,
}

impl OrdererRig {
    fn start(cfg: ClusterConfig, replica: SocketAddr, txns: usize) -> OrdererRig {
        let layout = ClusterLayout::of(&cfg);
        let mut peers = vec![None; layout.total()];
        peers[layout.orderer()] = any_port();
        peers[layout.replica(0)] = Some(replica);
        let orderer = Node::start(&cfg, layout.orderer(), peers);
        let codec = cfg.workload.codec().expect("codec");
        let client = SubmitClient::connect(orderer.addr(), Arc::clone(&codec)).expect("client");
        let trace = submission_trace(&cfg, txns).expect("trace").into_iter();
        OrdererRig {
            cfg,
            codec: WireCodec::new(codec),
            orderer,
            client,
            trace,
        }
    }

    /// Submit the next `blocks` blocks' worth of the trace.
    fn submit_blocks(&mut self, blocks: usize) {
        for _ in 0..blocks * self.cfg.block_txns {
            let s = self.trace.next().expect("trace long enough");
            self.client.submit(&s).expect("submit");
        }
    }

    fn sealed(&self) -> u64 {
        self.orderer.ctl().status().expect("status").sealed_blocks
    }

    fn dropped(&self) -> u64 {
        self.orderer
            .counter("harmony_transport_dropped_frames_total")
    }

    /// Submit blocks, `step` at a time, until the orderer drops a frame:
    /// its replica has stopped reading, the kernel's buffers are full and
    /// so is the backlog behind them. Returns the blocks submitted, all
    /// sealed; `each_step` runs after every step's submissions.
    fn flood_until_a_drop(&mut self, step: usize, mut each_step: impl FnMut(&OrdererRig)) -> u64 {
        let mut submitted = self.sealed();
        while self.dropped() == 0 {
            assert!(submitted < 5_000, "no drop after {submitted} blocks");
            self.submit_blocks(step);
            submitted += step as u64;
            each_step(self);
            wait_until("the blocks to seal", || self.sealed() == submitted);
        }
        submitted
    }
}

// ── (a) however the stream is cut, the same messages arrive ─────────────

/// A follower runtime echoing `Replicate{seq}` as `Ack{seq}` to the
/// orderer slot, which is this test: `inbound` carries what we send,
/// `acks` what comes back.
struct EchoRig {
    _follower: Node,
    codec: WireCodec,
    inbound: TcpStream,
    acks: Frames,
}

impl EchoRig {
    fn start() -> EchoRig {
        let cfg = cluster(small_ycsb(), 2, 10);
        let layout = ClusterLayout::of(&cfg);
        let follower_index = layout.orderer() + 1;
        let orderer_slot = loopback();
        let mut peers = vec![None; layout.total()];
        peers[layout.orderer()] = Some(orderer_slot.local_addr().expect("addr"));
        peers[follower_index] = any_port();
        let follower = Node::start(&cfg, follower_index, peers);
        let mut acks = accept(&orderer_slot);
        assert_eq!(expect_hello(&mut acks) as usize, follower_index);
        let mut inbound = TcpStream::connect(follower.addr()).expect("connect");
        inbound.set_nodelay(true).expect("nodelay");
        inbound
            .set_read_timeout(Some(PATIENCE))
            .expect("read timeout");
        let hello = encode_ctl(&CtlMsg::Hello {
            index: layout.orderer() as u32,
        });
        inbound.write_all(&hello).expect("hello");
        EchoRig {
            _follower: follower,
            codec: WireCodec::new(cfg.workload.codec().expect("codec")),
            inbound,
            acks,
        }
    }

    fn replicate(&self, seq: u64) -> Vec<u8> {
        self.codec.encode_msg(&Msg::Replicate { seq })
    }

    fn expect_ack(&mut self, seq: u64) {
        match next_msg(&mut self.acks, &self.codec) {
            Msg::Ack { seq: got } => assert_eq!(got, seq, "acks out of order"),
            _ => panic!("expected Ack"),
        }
    }
}

/// A control frame larger than the read buffer; the runtime answers it
/// (with an error: it is not a request) on the connection it came in on.
fn oversized_text() -> Vec<u8> {
    encode_ctl(&CtlMsg::Text("x".repeat(3 * READ_BUF_BYTES)))
}

#[test]
fn a_stream_cut_at_every_byte_hands_over_each_whole_frame_at_once() {
    let _turn = serial();
    let mut rig = EchoRig::start();
    let mut seq = 0;
    let frame_len = rig.replicate(0).len();
    for cut in 0..=3 * frame_len {
        let stream: Vec<u8> = (1..=3).flat_map(|i| rig.replicate(seq + i)).collect();
        rig.inbound.write_all(&stream[..cut]).expect("head");
        // The frames that are whole so far must come back *before* the
        // rest is sent: the runtime may not sit on them waiting for the
        // tail of the one that was cut.
        let whole = cut / frame_len;
        for i in 1..=whole {
            rig.expect_ack(seq + i as u64);
        }
        rig.inbound.write_all(&stream[cut..]).expect("tail");
        for i in whole + 1..=3 {
            rig.expect_ack(seq + i as u64);
        }
        seq += 3;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any chunking of a stream of small frames with one frame larger
    /// than the read buffer among them — many frames in one write, one
    /// frame over many — yields every message once, in order.
    #[test]
    fn any_chunking_yields_the_same_message_sequence(
        frames in 1usize..60,
        big_at in prop::option::of(0usize..60),
        chunks in prop::collection::vec(1usize..40_000, 1..40),
    ) {
        let _turn = serial();
        let mut rig = EchoRig::start();
        let mut stream = Vec::new();
        for seq in 0..frames {
            if big_at == Some(seq) {
                stream.extend(oversized_text());
            }
            stream.extend(rig.replicate(seq as u64));
        }
        // Written from a second thread: the echo comes back while the
        // stream is still going out, and neither side may wait on the other.
        let mut out = rig.inbound.try_clone().expect("clone");
        let writer = std::thread::spawn(move || {
            let mut rest = &stream[..];
            for chunk in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (now, later) = rest.split_at((*chunk).min(rest.len()));
                out.write_all(now).expect("chunk");
                rest = later;
            }
        });
        for seq in 0..frames {
            rig.expect_ack(seq as u64);
        }
        writer.join().expect("writer");
        if big_at.is_some_and(|at| at < frames) {
            let mut replies = Frames::new(rig.inbound.try_clone().expect("clone"));
            prop_assert!(matches!(replies.next(decode_ctl), Ok(CtlMsg::Err(_))));
        }
    }
}

// ── (b) per-sender FIFO across two runtimes ─────────────────────────────

#[test]
fn a_burst_through_two_runtimes_stays_in_order() {
    let _turn = serial();
    // Orderer → follower (`Replicate`) → orderer (`Ack`) → replica
    // (`Deliver`, sent in the order acks arrive): any link that reordered
    // would show as block ids out of order at the replica slot.
    let cfg = cluster(small_ycsb(), 2, 10);
    let layout = ClusterLayout::of(&cfg);
    let follower_index = layout.orderer() + 1;
    let replica_slot = loopback();
    let orderer_port = loopback();
    let mut peers = vec![None; layout.total()];
    peers[layout.orderer()] = Some(orderer_port.local_addr().expect("addr"));
    peers[follower_index] = any_port();
    let follower = Node::start(&cfg, follower_index, peers.clone());
    peers[follower_index] = Some(follower.addr());
    peers[layout.replica(0)] = Some(replica_slot.local_addr().expect("addr"));
    drop(orderer_port);
    let orderer = Node::start(&cfg, layout.orderer(), peers);

    let codec = cfg.workload.codec().expect("codec");
    let wire = WireCodec::new(Arc::clone(&codec));
    let mut delivered = accept(&replica_slot);
    assert_eq!(expect_hello(&mut delivered) as usize, layout.orderer());
    let blocks = 300;
    let trace = submission_trace(&cfg, blocks * cfg.block_txns).expect("trace");
    let mut client = SubmitClient::connect(orderer.addr(), codec).expect("client");
    for s in &trace {
        client.submit(s).expect("submit");
    }
    for id in 1..=blocks as u64 {
        assert_eq!(next_deliver_id(&mut delivered, &wire), id);
    }
    assert_eq!(orderer.counter("harmony_transport_dropped_frames_total"), 0);
    assert_eq!(follower.counter("harmony_transport_decode_errors_total"), 0);
}

// ── (c) a peer that never reads ─────────────────────────────────────────

#[test]
fn a_stalled_peer_costs_a_bounded_backlog_then_counted_drops() {
    let _turn = serial();
    let replica_slot = loopback();
    let cfg = cluster(wide_ycsb(), 1, 10);
    let mut rig = OrdererRig::start(cfg, replica_slot.local_addr().expect("addr"), 60_000);
    // Accepted, greeted, and never read again.
    let mut stalled = accept(&replica_slot);
    expect_hello(&mut stalled);

    // The node keeps answering, and sealing, while one of its peers takes
    // nothing.
    let mut slowest_status = Duration::ZERO;
    let submitted = rig.flood_until_a_drop(50, |rig| {
        let asked = Instant::now();
        rig.sealed();
        slowest_status = slowest_status.max(asked.elapsed());
    });
    assert!(
        slowest_status < Duration::from_secs(2),
        "status took {slowest_status:?} beside a stalled peer"
    );

    // Every frame here is a `Deliver` of one size, so the counters give
    // the bytes that were taken in: backlog plus whatever the kernel's
    // two socket buffers hold (a few MiB at most on loopback).
    let out = |what: &str| {
        rig.orderer
            .counter(&format!("harmony_transport_{what}_total{{dir=\"out\"}}"))
    };
    let (frames, bytes, lost) = (out("frames"), out("bytes"), rig.dropped());
    assert_eq!(frames, submitted);
    assert_eq!(bytes % frames, 0, "Deliver frames of one size");
    let frame = bytes / frames;
    let taken = (frames - lost) * frame;
    assert!(
        taken + frame >= PEER_BACKLOG_BYTES as u64,
        "dropped with only {taken} bytes taken"
    );
    assert!(
        taken <= (PEER_BACKLOG_BYTES as u64) + (16 << 20),
        "{taken} bytes taken: the backlog is not bounded"
    );

    // From here on the backlog is full: one drop per frame.
    rig.submit_blocks(100);
    wait_until("the extra blocks to seal", || {
        rig.sealed() == submitted + 100
    });
    // The orderer counts a block sealed before it sends (and drops) the
    // block's frame: wait for the drop count, then check it is exact.
    wait_until("the extra drops to be counted", || {
        rig.dropped() >= lost + 100
    });
    assert_eq!(rig.dropped(), lost + 100);
}

// ── (d) a peer restarted mid-stream ─────────────────────────────────────

#[test]
fn a_restarted_peer_is_reached_again_from_a_frame_boundary() {
    let _turn = serial();
    let replica_slot = loopback();
    let replica_addr = replica_slot.local_addr().expect("addr");
    let mut rig = OrdererRig::start(cluster(wide_ycsb(), 1, 10), replica_addr, 20_000);
    let mut first = accept(&replica_slot);
    expect_hello(&mut first);
    rig.submit_blocks(20);
    for id in 1..=20 {
        assert_eq!(next_deliver_id(&mut first, &rig.codec), id);
    }

    // The peer stops reading until the backlog behind the kernel's
    // buffers is full — so the last write ended somewhere inside a frame —
    // and then goes away…
    let submitted = rig.flood_until_a_drop(100, |_| {});
    drop(first);
    drop(replica_slot);
    // …and comes back on the same address.
    let replica_slot = TcpListener::bind(replica_addr).expect("rebind");
    rig.submit_blocks(1);
    let mut second = accept(&replica_slot);
    expect_hello(&mut second);

    // Whatever was lost in between, what arrives now decodes frame by
    // frame (so it started at a boundary) and in order: first the backlog…
    let mut last = 20;
    let mut read_up_to = |until: u64, codec: &WireCodec| {
        while last < until {
            let id = next_deliver_id(&mut second, codec);
            assert!(id > last, "block {id} after {last}");
            last = id;
        }
    };
    read_up_to(submitted / 2, &rig.codec);
    // …then, with room in it again, what is sent from now on.
    rig.submit_blocks(20);
    read_up_to(submitted + 21, &rig.codec);
    assert_eq!(rig.orderer.counter("harmony_transport_reconnects_total"), 2);
}

// ── (e) a lying length prefix ───────────────────────────────────────────

#[test]
fn a_length_prefix_reserves_nothing_by_itself() {
    let _turn = serial();
    // The splitter: the largest legal prefix and a little body.
    let mut lying = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    lying.extend([7u8; 1_000]);
    let mut frames = FrameBuf::new();
    let mut source = &lying[..];
    while frames.fill(&mut source).expect("fill") > 0 {
        assert!(frames.next_frame().expect("legal prefix").is_none());
    }
    assert_eq!(frames.capacity(), READ_BUF_BYTES);
    // A body that does arrive is paid for as it arrives, at most twice over.
    let mut honest = (1u32 << 20).to_le_bytes().to_vec();
    honest.extend(vec![7u8; 300_000]);
    let mut frames = FrameBuf::new();
    let mut source = &honest[..];
    while frames.fill(&mut source).expect("fill") > 0 {
        assert!(frames.next_frame().expect("legal prefix").is_none());
    }
    assert!(
        frames.capacity() <= 2 * honest.len(),
        "{}",
        frames.capacity()
    );
    // Beyond the cap the prefix is refused outright.
    let mut source = &u32::MAX.to_le_bytes()[..];
    let mut frames = FrameBuf::new();
    frames.fill(&mut source).expect("fill");
    assert!(frames.next_frame().is_err());

    // The runtime, on a connection that never said Hello: the legal lie
    // just waits for its body; the illegal one is counted and hung up on.
    let cfg = cluster(small_ycsb(), 1, 10);
    let layout = ClusterLayout::of(&cfg);
    let mut peers = vec![None; layout.total()];
    peers[layout.orderer()] = any_port();
    let node = Node::start(&cfg, layout.orderer(), peers);
    let mut waiting = TcpStream::connect(node.addr()).expect("connect");
    waiting.write_all(&lying).expect("write");
    let mut refused = TcpStream::connect(node.addr()).expect("connect");
    refused
        .set_read_timeout(Some(PATIENCE))
        .expect("read timeout");
    refused.write_all(&u32::MAX.to_le_bytes()).expect("write");
    assert_eq!(
        refused.read(&mut [0u8; 8]).expect("closed, not timed out"),
        0
    );
    assert_eq!(node.counter("harmony_transport_decode_errors_total"), 1);
    assert_eq!(node.ctl().status().expect("status").role, "orderer");
}

// ── (f) connections are given back ──────────────────────────────────────

#[test]
fn control_connections_do_not_leak_descriptors() {
    let _turn = serial();
    let cfg = cluster(small_ycsb(), 1, 10);
    let layout = ClusterLayout::of(&cfg);
    let mut peers = vec![None; layout.total()];
    peers[layout.orderer()] = any_port();
    let node = Node::start(&cfg, layout.orderer(), peers);
    node.ctl().status().expect("warm-up");
    let before = open_fds();
    for _ in 0..2_000 {
        assert_eq!(node.ctl().status().expect("status").role, "orderer");
    }
    // A reader closes its socket a moment after its client hangs up.
    wait_until("readers to close their sockets", || {
        open_fds() <= before + 2
    });
    // Every reader that served one of them is joined.
    node.stop_and_join();
    assert_eq!(runtime_threads(), Vec::<String>::new());
}

// ── (g) stop with a backlog outstanding ─────────────────────────────────

#[test]
fn stop_and_join_return_with_a_backlog_and_leave_no_thread() {
    let _turn = serial();
    assert_eq!(runtime_threads(), Vec::<String>::new());
    let replica_slot = loopback();
    let cfg = cluster(wide_ycsb(), 1, 10);
    let mut rig = OrdererRig::start(cfg, replica_slot.local_addr().expect("addr"), 60_000);
    let mut stalled = accept(&replica_slot);
    expect_hello(&mut stalled);
    rig.flood_until_a_drop(100, |_| {});
    // An idle control connection is open too: its reader must be let go.
    let _idle = rig.orderer.ctl();

    let runtime = rig.orderer.0.take().expect("running");
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        runtime.stop();
        runtime.join();
        let _ = done.send(());
    });
    joined
        .recv_timeout(PATIENCE)
        .expect("stop + join must return with a backlog outstanding");
    assert_eq!(runtime_threads(), Vec::<String>::new());
}

// ── (h) the codec needs no genesis ──────────────────────────────────────

#[test]
fn codec_has_the_table_ids_of_a_loaded_node_and_loads_nothing() {
    let workloads = [
        ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 50,
            ..SmallbankConfig::default()
        }),
        ClusterWorkload::Ycsb(YcsbConfig {
            keys: 50,
            ..YcsbConfig::default()
        }),
        ClusterWorkload::Tpcc(TpccConfig::default()),
    ];
    for workload in workloads {
        let cfg = ClusterConfig {
            workload,
            ..ClusterConfig::default()
        };
        // The same contract bytes through both codecs name the same keys,
        // table ids included.
        let loaded = Arc::new(StorageEngine::open(&StorageConfig::memory()).expect("engine"));
        let of_node = cfg.workload.setup_node(&loaded).expect("setup_node");
        let of_codec = cfg.workload.codec().expect("codec");
        let mut declared = 0;
        for s in submission_trace(&cfg, 200).expect("trace") {
            let bytes = harmony_txn::encode_contract(s.contract.as_ref());
            let (a, b) = (of_node.decode(&bytes), of_codec.decode(&bytes));
            let (a, b) = (a.expect("node codec"), b.expect("bare codec"));
            assert_eq!(
                a.declared_keys(),
                b.declared_keys(),
                "{}",
                cfg.workload.name()
            );
            declared += usize::from(a.declared_keys().is_some());
        }
        assert!(
            declared > 0,
            "{}: no footprint to compare",
            cfg.workload.name()
        );

        // What `codec()` prepares its scratch engine with: the loaded
        // node's tables under the same ids, and not one row.
        let scratch = StorageEngine::open(&StorageConfig::memory()).expect("engine");
        let mut bare: Box<dyn Workload> = match &cfg.workload {
            ClusterWorkload::Smallbank(c) => Box::new(Smallbank::new(c.clone())),
            ClusterWorkload::Ycsb(c) => Box::new(Ycsb::new(c.clone())),
            ClusterWorkload::Tpcc(c) => Box::new(Tpcc::new(c.clone())),
        };
        bare.create_tables(&scratch).expect("create tables");
        let sorted = |engine: &StorageEngine| {
            let mut tables = engine.list_tables();
            tables.sort();
            tables
        };
        assert_eq!(sorted(&scratch), sorted(&loaded));
        for (name, id) in scratch.list_tables() {
            assert_eq!(scratch.table_len(id).expect("len"), 0, "{name} has rows");
        }
    }
}

// ── (i) a client that never reads its rejects ───────────────────────────

#[test]
fn a_client_that_never_reads_its_rejects_does_not_hold_up_sealing() {
    let _turn = serial();
    let replica_slot = loopback();
    let cfg = ClusterConfig {
        client_retry: Some(RetryPolicy::default()),
        ..cluster(wide_ycsb(), 1, 10)
    };
    let mut rig = OrdererRig::start(cfg, replica_slot.local_addr().expect("addr"), 40_000);
    let mut delivered = accept(&replica_slot);
    expect_hello(&mut delivered);

    // Session 1 submits in order and fills blocks; session 2 only ever
    // sends nonces far beyond its window, so each comes back as a
    // `Reject` carrying the contract — which this client never reads.
    let mut blocks: u64 = 0;
    let mut gap_nonce: u64 = 1 << 40;
    while rig.dropped() == 0 {
        assert!(blocks < 3_000, "the link was never dropped");
        for _ in 0..rig.cfg.block_txns {
            let s = rig.trace.next().expect("trace long enough");
            for _ in 0..4 {
                gap_nonce += 1;
                let rejected = Submission {
                    client: s.client + 1,
                    nonce: gap_nonce,
                    at_ns: s.at_ns,
                    contract: Arc::clone(&s.contract),
                };
                rig.client.submit(&rejected).expect("submit");
            }
            rig.client.submit(&s).expect("submit");
        }
        blocks += 1;
        // Each block arrives while the rejects pile up unread: at worst
        // one write timeout late, never stuck behind the client.
        assert_eq!(next_deliver_id(&mut delivered, &rig.codec), blocks);
    }
    // The link is gone; the submissions still flow.
    rig.submit_blocks(20);
    for id in blocks + 1..=blocks + 20 {
        assert_eq!(next_deliver_id(&mut delivered, &rig.codec), id);
    }
}

// ── (j) the HTTP endpoint stops with the runtime ────────────────────────

#[test]
fn stop_and_join_end_the_http_endpoint_and_give_its_port_back() {
    let _turn = serial();
    assert_eq!(runtime_threads(), Vec::<String>::new());
    let cfg = cluster(small_ycsb(), 1, 10);
    let layout = ClusterLayout::of(&cfg);
    let mut peers = vec![None; layout.total()];
    peers[layout.orderer()] = any_port();
    let runtime = NodeRuntime::start(NodeRuntimeConfig {
        cluster: cfg,
        index: layout.orderer(),
        peers,
        http: any_port(),
    })
    .expect("start runtime");
    let http = runtime.http_addr().expect("an HTTP endpoint");
    runtime.stop();
    runtime.join();
    assert_eq!(runtime_threads(), Vec::<String>::new());
    TcpListener::bind(http).expect("the HTTP port binds again");
}

#[test]
fn stop_and_join_close_an_idle_http_connection() {
    let _turn = serial();
    assert_eq!(runtime_threads(), Vec::<String>::new());
    let node = Node::orderer_with_http(&cluster(small_ycsb(), 1, 10));
    let http = node.http();
    let started = runtime_threads().len();
    // Connected, and never a byte sent: a thread of the runtime serves it.
    let _idle = TcpStream::connect(http).expect("connect");
    wait_until("the idle connection to be served", || {
        runtime_threads().len() > started
    });
    node.stop_and_join();
    assert_eq!(runtime_threads(), Vec::<String>::new());
    TcpListener::bind(http).expect("the HTTP port binds again");
}

// ── (k) what the HTTP endpoint answers ──────────────────────────────────

/// Send `request` to the endpoint and read until it hangs up.
fn http_exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(PATIENCE))
        .expect("read timeout");
    // The endpoint may hang up before taking all of a request it refuses:
    // only its answer counts.
    let _ = stream.write_all(request);
    let mut answer = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => answer.extend_from_slice(&chunk[..n]),
            // Closed with part of our request unread.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("no answer: {e}"),
        }
    }
    String::from_utf8(answer).expect("utf-8")
}

#[test]
fn http_answers_keep_their_bytes() {
    let _turn = serial();
    let node = Node::orderer_with_http(&cluster(small_ycsb(), 1, 10));
    let text = |status: &str, body: &str| {
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    let get = |path: &str| format!("GET {path} HTTP/1.0\r\nHost: harmony\r\n\r\n");
    assert_eq!(
        http_exchange(node.http(), get("/healthz").as_bytes()),
        text("200 OK", "ok\n")
    );
    assert_eq!(
        http_exchange(node.http(), get("/nowhere").as_bytes()),
        text("404 Not Found", "not found\n")
    );
    assert_eq!(
        http_exchange(node.http(), b"POST /metrics HTTP/1.0\r\n\r\n"),
        text("405 Method Not Allowed", "method not allowed\n")
    );
    let metrics = http_exchange(node.http(), get("/metrics").as_bytes());
    assert!(
        metrics.starts_with(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        ),
        "{metrics}"
    );
    assert!(metrics.contains("\nharmony_transport_frames_total{dir=\"in\"} "));
    let timeline = http_exchange(node.http(), get("/timeline").as_bytes());
    assert!(
        timeline
            .starts_with("HTTP/1.0 200 OK\r\nContent-Type: application/json; charset=utf-8\r\n"),
        "{timeline}"
    );
    assert!(timeline.contains("\r\n\r\n{"), "{timeline}");
}

#[test]
fn an_http_head_without_an_end_is_refused() {
    let _turn = serial();
    let node = Node::orderer_with_http(&cluster(small_ycsb(), 1, 10));
    let answer = http_exchange(node.http(), &[b'x'; 64 << 10]);
    assert!(answer.starts_with("HTTP/1.0 431 "), "{answer:?}");
    // The endpoint still answers the next client.
    let healthz = http_exchange(node.http(), b"GET /healthz HTTP/1.0\r\n\r\n");
    assert!(healthz.ends_with("\r\n\r\nok\n"), "{healthz}");
}

// ── (l) a reshard is an operator request ────────────────────────────────

/// A sharded cluster: every replica hosts 2 shards of 4 partitions.
fn sharded_cluster() -> ClusterConfig {
    ClusterConfig {
        topology: Some(ShardTopology {
            shards: 2,
            partitions: 4,
            ..ShardTopology::default()
        }),
        ..cluster(
            ClusterWorkload::Ycsb(YcsbConfig {
                keys: 100,
                ops_per_txn: 1,
                partitions: 4,
                ..YcsbConfig::default()
            }),
            1,
            10,
        )
    }
}

#[test]
fn a_reshard_frame_from_a_peer_is_a_decode_error() {
    let _turn = serial();
    let cfg = sharded_cluster();
    let layout = ClusterLayout::of(&cfg);
    let mut peers = vec![None; layout.total()];
    peers[layout.orderer()] = any_port();
    let orderer = Node::start(&cfg, layout.orderer(), peers);
    let mut peer = TcpStream::connect(orderer.addr()).expect("connect");
    let hello = encode_ctl(&CtlMsg::Hello {
        index: layout.replica(0) as u32,
    });
    peer.write_all(&hello).expect("hello");
    // What a reshard message was on the wire: tag 11, a u32 shard count.
    let mut reshard = 6u32.to_le_bytes().to_vec();
    reshard.extend([WIRE_VERSION, 11]);
    reshard.extend(4u32.to_le_bytes());
    peer.write_all(&reshard).expect("tag-11 frame");
    wait_until("the frame to be refused", || {
        orderer.counter("harmony_transport_decode_errors_total") == 1
    });
    assert_eq!(orderer.ctl().status().expect("status").sealed_blocks, 0);
}

#[test]
fn an_operator_reshard_reaches_the_replicas() {
    let _turn = serial();
    let cfg = sharded_cluster();
    let layout = ClusterLayout::of(&cfg);
    let mut peers = vec![None; layout.total()];
    peers[layout.replica(0)] = any_port();
    let replica = Node::start(&cfg, layout.replica(0), peers.clone());
    peers[layout.replica(0)] = Some(replica.addr());
    peers[layout.orderer()] = any_port();
    let orderer = Node::start(&cfg, layout.orderer(), peers);
    let hosted = || replica.counter("harmony_replica_hosted_shards");
    assert_eq!(hosted(), 2);

    assert!(replica.ctl().reshard(4).is_err(), "a replica refuses it");
    orderer.ctl().reshard(4).expect("the orderer takes it");
    wait_until("the replica to host 4 shards", || hosted() == 4);
    assert_eq!(orderer.ctl().status().expect("status").sealed_blocks, 1);
}
