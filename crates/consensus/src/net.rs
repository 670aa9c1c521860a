//! Deterministic discrete-event network simulation.
//!
//! Nodes exchange messages through a latency model (base one-way latency +
//! serialization time per byte + deterministic jitter); each node is a
//! single-core state machine whose handlers report CPU cost, so crypto
//! work throttles throughput exactly like the paper's observation that
//! HotStuff's crypto overhead caps its rate.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use harmony_common::rng::mix64;
use harmony_crypto::Digest;
use harmony_metrics::Counter;

/// Verified per-replica record of delivered blocks: sequence number →
/// content digest, with duplicate-divergence tracking. Replicas fed the
/// same ordering service must end up with identical logs — the assertion
/// the consensus tests and the node runtime's divergence detection share.
#[derive(Clone, Debug, Default)]
pub struct DeliveryLog {
    entries: BTreeMap<u64, Digest>,
    mismatches: u64,
}

impl DeliveryLog {
    /// Record a delivery. A repeat of an already-logged sequence with a
    /// *different* digest is counted as a mismatch (equivocation evidence);
    /// identical repeats are idempotent.
    pub fn observe(&mut self, seq: u64, digest: Digest) {
        match self.entries.get(&seq) {
            Some(prev) if *prev != digest => self.mismatches += 1,
            Some(_) => {}
            None => {
                self.entries.insert(seq, digest);
            }
        }
    }

    /// Number of distinct sequences delivered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been delivered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Digest logged for `seq`, if delivered.
    #[must_use]
    pub fn digest_at(&self, seq: u64) -> Option<Digest> {
        self.entries.get(&seq).copied()
    }

    /// Conflicting re-deliveries observed (must be 0 for honest orderers).
    #[must_use]
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Whether the logged sequences form one contiguous range (no gaps).
    #[must_use]
    pub fn is_gap_free(&self) -> bool {
        match (self.entries.keys().next(), self.entries.keys().last()) {
            (Some(first), Some(last)) => last - first + 1 == self.entries.len() as u64,
            _ => true,
        }
    }

    /// Whether every sequence both logs contain carries the same digest —
    /// the pairwise replica-consistency check.
    #[must_use]
    pub fn agrees_with(&self, other: &DeliveryLog) -> bool {
        self.entries
            .iter()
            .all(|(seq, d)| other.entries.get(seq).is_none_or(|o| o == d))
    }

    /// The log's `(seq, digest)` entries in sequence order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, Digest)> + '_ {
        self.entries.iter().map(|(s, d)| (*s, *d))
    }
}

/// Placement region of a node (the paper's 4-continent WAN).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// us-east-2.
    Ohio,
    /// ap-south-1.
    Mumbai,
    /// ap-southeast-2.
    Sydney,
    /// eu-north-1.
    Stockholm,
}

/// Approximate one-way latencies between regions, in nanoseconds.
fn region_latency_ns(a: Region, b: Region) -> u64 {
    use Region::*;
    let ms = |x: u64| x * 1_000_000;
    match (a, b) {
        (x, y) if x == y => ms(1),
        (Ohio, Mumbai) | (Mumbai, Ohio) => ms(100),
        (Ohio, Sydney) | (Sydney, Ohio) => ms(90),
        (Ohio, Stockholm) | (Stockholm, Ohio) => ms(50),
        (Mumbai, Sydney) | (Sydney, Mumbai) => ms(110),
        (Mumbai, Stockholm) | (Stockholm, Mumbai) => ms(70),
        _ => ms(140), // Sydney ↔ Stockholm
    }
}

/// A link latency model.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Uniform LAN: fixed one-way latency + bandwidth term.
    Lan {
        /// One-way latency in ns.
        latency_ns: u64,
        /// Serialization cost per byte in ns (1 Gbps ≈ 8 ns/B).
        ns_per_byte: u64,
    },
    /// Geo-distributed: nodes assigned round-robin to the given regions.
    Wan {
        /// Region assignment per node index (cycled).
        regions: Vec<Region>,
        /// Serialization cost per byte in ns.
        ns_per_byte: u64,
    },
}

impl LatencyModel {
    /// The paper's default-cluster LAN (1 Gbps Ethernet, ~0.25 ms).
    #[must_use]
    pub fn lan_1g() -> LatencyModel {
        LatencyModel::Lan {
            latency_ns: 250_000,
            ns_per_byte: 8,
        }
    }

    /// The cloud cluster LAN (5 Gbps, ~0.1 ms).
    #[must_use]
    pub fn lan_5g() -> LatencyModel {
        LatencyModel::Lan {
            latency_ns: 100_000,
            ns_per_byte: 2,
        }
    }

    /// The paper's 4-continent WAN.
    #[must_use]
    pub fn wan_4_continents() -> LatencyModel {
        LatencyModel::Wan {
            regions: vec![
                Region::Ohio,
                Region::Mumbai,
                Region::Sydney,
                Region::Stockholm,
            ],
            ns_per_byte: 2,
        }
    }

    /// One-way delay for a `bytes`-sized message from node `a` to `b`.
    #[must_use]
    pub fn delay_ns(&self, a: usize, b: usize, bytes: u64) -> u64 {
        match self {
            LatencyModel::Lan {
                latency_ns,
                ns_per_byte,
            } => latency_ns + bytes * ns_per_byte,
            LatencyModel::Wan {
                regions,
                ns_per_byte,
            } => {
                let ra = regions[a % regions.len()];
                let rb = regions[b % regions.len()];
                region_latency_ns(ra, rb) + bytes * ns_per_byte
            }
        }
    }
}

/// An event scheduled for a node.
#[derive(Debug)]
struct Pending<M> {
    at: u64,
    seq: u64, // tie-breaker for determinism
    to: usize,
    kind: EventKind<M>,
}

#[derive(Debug)]
enum EventKind<M> {
    Message { from: usize, msg: M },
    Timer { id: u64 },
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Network jitter as a pure function of (seed, sender, sender's send
/// index) — splitmix64-style mixing. Keeping jitter *per-sender* rather
/// than drawing from one shared stream isolates faults: a crashed or
/// syncing node sending more (or fewer) messages cannot perturb the
/// delivery times of unrelated links, so a crash/rejoin scenario leaves
/// the rest of the cluster's schedule — and hence the sealed block
/// stream — bit-identical to a no-crash run. The determinism test
/// battery pins exactly that equivalence.
fn link_jitter_ns(seed: u64, sender: usize, count: u64) -> u64 {
    let x = seed
        ^ (sender as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ count.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    mix64(x) % 50_000 // ≤50 µs
}

/// Per-mille fate roll for fault injection: a pure function of (seed,
/// sender, the sender's send index, and the fault's position in the
/// table). Like [`link_jitter_ns`], the roll depends only on *per-sender*
/// state, so whether one link's fault fires can never perturb the fate or
/// timing of traffic between unrelated nodes — and a run whose fault
/// table is empty is bit-identical to a run on a fault-free network.
fn fault_roll(seed: u64, sender: usize, count: u64, fault_idx: u64) -> u64 {
    let x = seed
        ^ 0xC2B2_AE3D_27D4_EB4F
        ^ (sender as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ count.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ fault_idx.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    mix64(x) % 1000
}

/// What a matching [`LinkFault`] does to a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEffect {
    /// Drop the message with probability `per_mille`/1000 (1000 = always).
    Drop {
        /// Drop probability in per-mille (0..=1000).
        per_mille: u16,
    },
    /// Deliver the message *and*, with probability `per_mille`/1000, a
    /// duplicate copy `echo_delay_ns` later — the classic at-least-once
    /// network that exercises idempotent delivery paths.
    Duplicate {
        /// Duplication probability in per-mille (0..=1000).
        per_mille: u16,
        /// Extra delay of the duplicate copy relative to the original.
        echo_delay_ns: u64,
    },
    /// Add `extra_ns` of one-way delay (a congestion spike).
    Delay {
        /// Extra one-way delay in nanoseconds.
        extra_ns: u64,
    },
}

/// Which traffic a [`LinkFault`] applies to.
///
/// The indices are event-loop node ids once the fault is in a
/// [`NetFaults`] table. A cluster's fault schedule names *replica*
/// indices instead, and lowers each scope through [`FaultScope::map`]
/// when it builds the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultScope {
    /// Every message sent *or* received by this node (a partitioned /
    /// flaky host).
    Node(usize),
    /// Only messages flowing `from → to` (one direction of one link).
    Directed {
        /// Sending node index.
        from: usize,
        /// Receiving node index.
        to: usize,
    },
}

impl FaultScope {
    /// The same scope with every index passed through `f`.
    #[must_use]
    pub fn map(self, f: impl Fn(usize) -> usize) -> FaultScope {
        match self {
            FaultScope::Node(n) => FaultScope::Node(f(n)),
            FaultScope::Directed { from, to } => FaultScope::Directed {
                from: f(from),
                to: f(to),
            },
        }
    }

    fn matches(self, from: usize, to: usize) -> bool {
        match self {
            FaultScope::Node(n) => from == n || to == n,
            FaultScope::Directed { from: f, to: t } => from == f && to == t,
        }
    }
}

/// One scheduled network fault: an effect applied to matching traffic
/// during `[from_ns, until_ns)` of virtual time.
///
/// Every link fault a cluster can be given is one of these: a scope
/// (one node's traffic or one direction of one link) times an effect
/// (drop, duplicate or delay) times a window. A partition is a
/// node-scope drop at 1000‰, a delay spike a node-scope delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFault {
    /// Window start (inclusive), virtual ns.
    pub from_ns: u64,
    /// Window end (exclusive), virtual ns.
    pub until_ns: u64,
    /// Traffic the fault applies to.
    pub scope: FaultScope,
    /// What happens to matching messages.
    pub effect: FaultEffect,
}

impl LinkFault {
    fn active(&self, now: u64, from: usize, to: usize) -> bool {
        now >= self.from_ns && now < self.until_ns && self.scope.matches(from, to)
    }
}

/// The fault table an [`EventLoop`] consults on every send, plus live
/// counters of what it injected. An empty table (the default) leaves the
/// network bit-identical to the pre-fault-plane model; the counters are
/// detached unless a harness wires registered ones in via
/// [`NetFaults::set_counters`].
#[derive(Clone, Debug, Default)]
pub struct NetFaults {
    faults: Vec<LinkFault>,
    /// Messages dropped by `Drop` faults.
    pub dropped: Counter,
    /// Duplicate copies injected by `Duplicate` faults.
    pub duplicated: Counter,
    /// Messages delayed by `Delay` faults.
    pub delayed: Counter,
}

impl NetFaults {
    /// A fault table over the given fault list (detached counters).
    #[must_use]
    pub fn new(faults: Vec<LinkFault>) -> NetFaults {
        NetFaults {
            faults,
            ..NetFaults::default()
        }
    }

    /// Whether the table has no faults (the fast path: zero per-send cost).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Replace the injection counters with registered handles so fault
    /// activity shows up in an exposition / timeline.
    pub fn set_counters(&mut self, dropped: Counter, duplicated: Counter, delayed: Counter) {
        self.dropped = dropped;
        self.duplicated = duplicated;
        self.delayed = delayed;
    }

    /// Decide the fate of one message: `None` to drop it, otherwise the
    /// (possibly delayed) arrival time plus an optional duplicate-copy
    /// arrival time. Pure in (seed, sender, send index) — see
    /// [`fault_roll`].
    fn fate(
        &self,
        now: u64,
        from: usize,
        to: usize,
        at: u64,
        seed: u64,
        send_count: u64,
    ) -> Option<(u64, Option<u64>)> {
        let mut arrive = at;
        let mut echo = None;
        for (idx, f) in self.faults.iter().enumerate() {
            if !f.active(now, from, to) {
                continue;
            }
            match f.effect {
                FaultEffect::Drop { per_mille } => {
                    if fault_roll(seed, from, send_count, idx as u64) < u64::from(per_mille) {
                        self.dropped.inc();
                        return None;
                    }
                }
                FaultEffect::Duplicate {
                    per_mille,
                    echo_delay_ns,
                } => {
                    if fault_roll(seed, from, send_count, idx as u64) < u64::from(per_mille) {
                        self.duplicated.inc();
                        echo = Some(arrive + echo_delay_ns);
                    }
                }
                FaultEffect::Delay { extra_ns } => {
                    self.delayed.inc();
                    arrive += extra_ns;
                }
            }
        }
        // A Delay fault also shifts any duplicate rolled before it; keep
        // the echo no earlier than the original.
        Some((arrive, echo.map(|e| e.max(arrive))))
    }
}

/// Handle the event loop hands to node logic for sending/scheduling.
pub struct NetCtx<'a, M> {
    now: u64,
    node: usize,
    latency: &'a LatencyModel,
    faults: &'a NetFaults,
    out: Vec<(u64, usize, EventKind<M>)>,
    jitter_seed: u64,
    send_count: &'a mut u64,
    /// CPU nanoseconds the handler consumed (extends the node's busy time).
    cpu_ns: u64,
}

/// The transport seam: everything node logic may ask of the network.
///
/// Two implementations exist: [`NetCtx`] — the deterministic
/// discrete-event simulator, where "time" is virtual nanoseconds and a
/// send is a scheduled future event — and `harmony-transport`'s TCP
/// context, where "time" is the wall clock and a send is a frame on a
/// per-peer socket queue. Node logic ([`SimNode`] implementations) is
/// written once against this trait and runs unchanged on either, which is
/// what lets a cluster of OS processes execute the *identical*
/// replica/ordering/state-sync code path the simulator pins
/// bit-reproducibly.
pub trait Transport<M> {
    /// Current time in nanoseconds (virtual in the simulator, wall-clock
    /// since the process epoch on a real transport).
    fn now(&self) -> u64;
    /// This node's index in the cluster layout.
    fn me(&self) -> usize;
    /// Send `msg` of modeled size `bytes` to node `to`.
    fn send(&mut self, to: usize, msg: M, bytes: u64);
    /// Schedule a timer on this node after `delay_ns`.
    fn set_timer(&mut self, delay_ns: u64, id: u64);
    /// Charge CPU time to this node (serializes its event processing in
    /// the simulator; a no-op hint on a real transport, where CPU time
    /// spends itself).
    fn charge_cpu(&mut self, ns: u64);
}

impl<M: Clone> Transport<M> for NetCtx<'_, M> {
    fn now(&self) -> u64 {
        self.now
    }

    fn me(&self) -> usize {
        self.node
    }

    /// The send *always* advances this sender's send counter — even when
    /// an active [`NetFaults`] entry swallows the message — so the jitter
    /// stream of every other message stays exactly where it would be on a
    /// healthy network.
    fn send(&mut self, to: usize, msg: M, bytes: u64) {
        *self.send_count += 1;
        let jitter = link_jitter_ns(self.jitter_seed, self.node, *self.send_count);
        let at = self.now + self.latency.delay_ns(self.node, to, bytes) + jitter;
        let (at, echo) = if self.faults.is_empty() {
            (at, None)
        } else {
            match self.faults.fate(
                self.now,
                self.node,
                to,
                at,
                self.jitter_seed,
                *self.send_count,
            ) {
                None => return, // dropped on the wire
                Some(fate) => fate,
            }
        };
        if let Some(echo_at) = echo {
            self.out.push((
                echo_at,
                to,
                EventKind::Message {
                    from: self.node,
                    msg: msg.clone(),
                },
            ));
        }
        self.out.push((
            at,
            to,
            EventKind::Message {
                from: self.node,
                msg,
            },
        ));
    }

    fn set_timer(&mut self, delay_ns: u64, id: u64) {
        self.out
            .push((self.now + delay_ns, self.node, EventKind::Timer { id }));
    }

    fn charge_cpu(&mut self, ns: u64) {
        self.cpu_ns += ns;
    }
}

/// Node behaviour in the simulation (and, via the [`Transport`] seam, on
/// a real network transport).
pub trait SimNode<M> {
    /// Handle a message.
    fn on_message(&mut self, from: usize, msg: M, ctx: &mut dyn Transport<M>);
    /// Handle a timer.
    fn on_timer(&mut self, id: u64, ctx: &mut dyn Transport<M>);
}

/// The event loop.
pub struct EventLoop<M, N: SimNode<M>> {
    nodes: Vec<N>,
    busy_until: Vec<u64>,
    queue: BinaryHeap<Reverse<Pending<M>>>,
    latency: LatencyModel,
    faults: NetFaults,
    now: u64,
    seq: u64,
    jitter_seed: u64,
    send_counts: Vec<u64>,
}

impl<M: Clone, N: SimNode<M>> EventLoop<M, N> {
    /// Build an event loop over `nodes`.
    #[must_use]
    pub fn new(nodes: Vec<N>, latency: LatencyModel, seed: u64) -> EventLoop<M, N> {
        let n = nodes.len();
        EventLoop {
            nodes,
            busy_until: vec![0; n],
            queue: BinaryHeap::new(),
            latency,
            faults: NetFaults::default(),
            now: 0,
            seq: 0,
            jitter_seed: seed,
            send_counts: vec![0; n],
        }
    }

    /// Install a fault table. The default (empty) table leaves every
    /// schedule bit-identical to the pre-fault network model.
    pub fn set_faults(&mut self, faults: NetFaults) {
        self.faults = faults;
    }

    /// The installed fault table (and its injection counters).
    #[must_use]
    pub fn faults(&self) -> &NetFaults {
        &self.faults
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Immutable access to a node.
    #[must_use]
    pub fn node(&self, i: usize) -> &N {
        &self.nodes[i]
    }

    /// Mutable access to a node — for harnesses that inject faults or
    /// drain results between simulation phases.
    #[must_use]
    pub fn node_mut(&mut self, i: usize) -> &mut N {
        &mut self.nodes[i]
    }

    /// Number of nodes in the loop.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the loop has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inject an initial timer for node `to` at absolute time `at`.
    pub fn seed_timer(&mut self, to: usize, at: u64, id: u64) {
        self.seq += 1;
        self.queue.push(Reverse(Pending {
            at,
            seq: self.seq,
            to,
            kind: EventKind::Timer { id },
        }));
    }

    /// Run until simulated time `until` (or queue exhaustion). Returns the
    /// number of events processed.
    pub fn run_until(&mut self, until: u64) -> u64 {
        let mut processed = 0;
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at > until {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            // A node processes events no earlier than its busy horizon.
            let start = ev.at.max(self.busy_until[ev.to]);
            self.now = self.now.max(start);
            let mut ctx = NetCtx {
                now: start,
                node: ev.to,
                latency: &self.latency,
                faults: &self.faults,
                out: Vec::new(),
                jitter_seed: self.jitter_seed,
                send_count: &mut self.send_counts[ev.to],
                cpu_ns: 0,
            };
            match ev.kind {
                EventKind::Message { from, msg } => {
                    self.nodes[ev.to].on_message(from, msg, &mut ctx);
                }
                EventKind::Timer { id } => self.nodes[ev.to].on_timer(id, &mut ctx),
            }
            self.busy_until[ev.to] = start + ctx.cpu_ns;
            let out = std::mem::take(&mut ctx.out);
            for (at, to, kind) in out {
                self.seq += 1;
                self.queue.push(Reverse(Pending {
                    at,
                    seq: self.seq,
                    to,
                    kind,
                }));
            }
            processed += 1;
        }
        self.now = self.now.max(until);
        processed
    }
}

/// Throughput / latency measurements of a consensus run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsensusReport {
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Mean commit latency in milliseconds.
    pub latency_ms: f64,
    /// Blocks committed during the run.
    pub committed_blocks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        received: Vec<(usize, u32)>,
    }

    impl SimNode<u32> for Echo {
        fn on_message(&mut self, from: usize, msg: u32, ctx: &mut dyn Transport<u32>) {
            self.received.push((from, msg));
            ctx.charge_cpu(1_000);
            if msg < 3 {
                ctx.send(from, msg + 1, 64);
            }
        }
        fn on_timer(&mut self, _id: u64, ctx: &mut dyn Transport<u32>) {
            ctx.send(1, 0, 64);
        }
    }

    fn two_node_loop() -> EventLoop<u32, Echo> {
        let nodes = vec![Echo { received: vec![] }, Echo { received: vec![] }];
        EventLoop::new(nodes, LatencyModel::lan_1g(), 42)
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut el = two_node_loop();
        el.seed_timer(0, 0, 1);
        el.run_until(1_000_000_000);
        // 0 →(0)→ 1 →(1)→ 0 →(2)→ 1 →(3)→ 0: node1 got msgs 0, 2.
        assert_eq!(
            el.node(1).received.iter().map(|r| r.1).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(
            el.node(0).received.iter().map(|r| r.1).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut el = two_node_loop();
            el.seed_timer(0, 0, 1);
            el.run_until(500_000_000);
            (el.now(), el.node(0).received.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wan_slower_than_lan() {
        let lan = LatencyModel::lan_5g();
        let wan = LatencyModel::wan_4_continents();
        // Node 0 (Ohio) to node 1 (Mumbai) in WAN vs any LAN pair.
        assert!(wan.delay_ns(0, 1, 100) > 50 * lan.delay_ns(0, 1, 100));
        // Same-region WAN nodes are fast.
        assert!(wan.delay_ns(0, 4, 100) < 2_200_000);
    }

    #[test]
    fn bandwidth_term_scales_with_size() {
        let m = LatencyModel::lan_1g();
        assert!(m.delay_ns(0, 1, 1_000_000) > m.delay_ns(0, 1, 100) + 7_000_000);
    }

    #[test]
    fn empty_fault_table_is_bit_identical_to_no_table() {
        let run = |install: bool| {
            let mut el = two_node_loop();
            if install {
                el.set_faults(NetFaults::default());
            }
            el.seed_timer(0, 0, 1);
            el.run_until(500_000_000);
            (
                el.now(),
                el.node(0).received.clone(),
                el.node(1).received.clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn total_drop_window_blocks_the_link() {
        let mut el = two_node_loop();
        el.set_faults(NetFaults::new(vec![LinkFault {
            from_ns: 0,
            until_ns: u64::MAX,
            scope: FaultScope::Directed { from: 0, to: 1 },
            effect: FaultEffect::Drop { per_mille: 1000 },
        }]));
        el.seed_timer(0, 0, 1);
        el.run_until(1_000_000_000);
        assert!(
            el.node(1).received.is_empty(),
            "0→1 traffic must be dropped"
        );
        assert_eq!(el.faults().dropped.get(), 1);
    }

    #[test]
    fn drop_window_boundaries_are_honored() {
        // The ping fires at t=0; a window that opens later must not touch it.
        let mut el = two_node_loop();
        el.set_faults(NetFaults::new(vec![LinkFault {
            from_ns: 400_000_000,
            until_ns: 500_000_000,
            scope: FaultScope::Node(0),
            effect: FaultEffect::Drop { per_mille: 1000 },
        }]));
        el.seed_timer(0, 0, 1);
        el.run_until(1_000_000_000);
        assert_eq!(el.node(1).received.len(), 2, "window inactive at send time");
        assert_eq!(el.faults().dropped.get(), 0);
    }

    #[test]
    fn duplicate_fault_injects_an_echo_copy() {
        let mut el = two_node_loop();
        el.set_faults(NetFaults::new(vec![LinkFault {
            from_ns: 0,
            until_ns: u64::MAX,
            scope: FaultScope::Directed { from: 0, to: 1 },
            effect: FaultEffect::Duplicate {
                per_mille: 1000,
                echo_delay_ns: 1_000_000,
            },
        }]));
        el.seed_timer(0, 0, 1);
        el.run_until(1_000_000_000);
        // Ping-pong: node 1 normally sees msgs [0, 2]; each 0→1 send now
        // arrives twice, and each duplicate re-triggers the reply chain.
        let ones = el.node(1).received.iter().filter(|r| r.1 == 0).count();
        assert!(ones >= 2, "echo copy of msg 0 must arrive");
        assert!(el.faults().duplicated.get() >= 1);
    }

    #[test]
    fn delay_spike_defers_delivery_without_loss() {
        let base = {
            let mut el = two_node_loop();
            el.seed_timer(0, 0, 1);
            el.run_until(1_000_000_000);
            el.node(1).received.clone()
        };
        let mut el = two_node_loop();
        el.set_faults(NetFaults::new(vec![LinkFault {
            from_ns: 0,
            until_ns: u64::MAX,
            scope: FaultScope::Node(1),
            effect: FaultEffect::Delay {
                extra_ns: 7_000_000,
            },
        }]));
        el.seed_timer(0, 0, 1);
        el.run_until(1_000_000_000);
        assert_eq!(el.node(1).received, base, "delay must not lose or reorder");
        assert!(
            el.faults().delayed.get() >= 2,
            "both directions touch node 1"
        );
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let mut el = two_node_loop();
            el.set_faults(NetFaults::new(vec![LinkFault {
                from_ns: 0,
                until_ns: u64::MAX,
                scope: FaultScope::Directed { from: 0, to: 1 },
                effect: FaultEffect::Drop { per_mille: 500 },
            }]));
            el.seed_timer(0, 0, 1);
            el.run_until(500_000_000);
            (
                el.node(0).received.clone(),
                el.node(1).received.clone(),
                el.faults().dropped.get(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_fate_is_per_sender_pure() {
        // A fault scoped to an unrelated link must not perturb this link's
        // delivery schedule: same receptions, because jitter and fate are
        // pure functions of (seed, sender, send index).
        struct Stamp {
            got: Vec<(u64, u32)>,
        }
        impl SimNode<u32> for Stamp {
            fn on_message(&mut self, _f: usize, m: u32, ctx: &mut dyn Transport<u32>) {
                self.got.push((ctx.now(), m));
                if m < 5 {
                    ctx.send(1, m + 1, 64);
                }
            }
            fn on_timer(&mut self, _id: u64, ctx: &mut dyn Transport<u32>) {
                ctx.send(1, 0, 64);
            }
        }
        let run = |faults: Option<NetFaults>| {
            let nodes = vec![
                Stamp { got: vec![] },
                Stamp { got: vec![] },
                Stamp { got: vec![] },
            ];
            let mut el = EventLoop::new(nodes, LatencyModel::lan_1g(), 99);
            if let Some(f) = faults {
                el.set_faults(f);
            }
            el.seed_timer(0, 0, 1);
            el.run_until(1_000_000_000);
            el.node(1).got.clone()
        };
        let clean = run(None);
        let faulted = run(Some(NetFaults::new(vec![LinkFault {
            from_ns: 0,
            until_ns: u64::MAX,
            scope: FaultScope::Directed { from: 2, to: 0 },
            effect: FaultEffect::Drop { per_mille: 1000 },
        }])));
        assert_eq!(clean, faulted, "unrelated fault must not move deliveries");
    }

    #[test]
    fn cpu_cost_serializes_node() {
        // Two messages arriving at t=x are processed back-to-back, the
        // second delayed by the first's CPU cost.
        struct Busy {
            starts: Vec<u64>,
        }
        impl SimNode<()> for Busy {
            fn on_message(&mut self, _f: usize, _m: (), ctx: &mut dyn Transport<()>) {
                self.starts.push(ctx.now());
                ctx.charge_cpu(5_000_000);
            }
            fn on_timer(&mut self, _id: u64, ctx: &mut dyn Transport<()>) {
                ctx.send(1, (), 10);
                ctx.send(1, (), 10);
            }
        }
        let mut el = EventLoop::new(
            vec![Busy { starts: vec![] }, Busy { starts: vec![] }],
            LatencyModel::Lan {
                latency_ns: 1_000,
                ns_per_byte: 0,
            },
            7,
        );
        el.seed_timer(0, 0, 0);
        el.run_until(100_000_000);
        let starts = &el.node(1).starts;
        assert_eq!(starts.len(), 2);
        assert!(
            starts[1] >= starts[0] + 5_000_000,
            "second event must wait out the CPU busy time: {starts:?}"
        );
    }
}
