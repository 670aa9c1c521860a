//! One episode on the real loopback-TCP cluster: every node is a
//! `NodeRuntime` inside this process, one generator thread feeds the
//! orderer over one TCP connection, and the calling thread observes.
//!
//! `setup → saturation phase → paced phase → checks → (fault leg) →
//! teardown`. Work is fixed by transaction count; every completion is
//! defined on *all* replicas, because under HotStuff the orderer runs on
//! the fastest quorum and a replica read alone may be the laggard.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use harmony_node::{ClusterConfig, ClusterLayout, NodeStatus, Submission};
use harmony_transport::{http_get, CtlClient, NodeRuntime, NodeRuntimeConfig, SubmitClient};
use harmony_txn::ContractCodec;

use crate::procfs;
use crate::prom::{scan_value, Exposition};
use crate::stats::percentile;
use crate::workloads::{Sizes, Spec};
use crate::Res;

/// Blocks the saturation generator may run ahead of the slowest replica.
pub const SAT_WINDOW_BLOCKS: u64 = 32;
/// A transaction not applied this long after its due instant has failed.
const LOST_AFTER: Duration = Duration::from_secs(5);
/// Ceiling on any single wait for the cluster to make progress.
const STALL_AFTER: Duration = Duration::from_secs(30);

/// How the observer reads a replica's applied height without entering
/// its hot path more than it must.
enum Probe {
    /// Control-port `StatusReq`, answered by the replica's event loop:
    /// cheap on a flat replica, and queued behind a block in progress,
    /// so the reply arrives right after the block is applied.
    Status(CtlClient),
    /// HTTP `/metrics`, rendered on the node's own HTTP thread. Sharded
    /// replicas recompute the logical root (a merge of every shard) on
    /// each `StatusReq`, so inside a phase they are read this way.
    Metrics { addr: SocketAddr, series: String },
}

impl Probe {
    /// Blocks the replica has applied since genesis.
    fn applied_blocks(&mut self) -> Res<u64> {
        match self {
            Probe::Status(ctl) => Ok(ctl.status()?.height),
            Probe::Metrics { addr, series } => {
                let text = http_get(*addr, "/metrics")?;
                Ok(scan_value(&text, series).unwrap_or(0.0) as u64)
            }
        }
    }
}

/// State shared between the generator thread and the observer.
struct Shared {
    /// Saturation phase: the generator may send blocks below this index.
    allowed_blocks: AtomicU64,
    /// Transactions of the current phase handed to the socket so far.
    sent_txns: AtomicU64,
    /// Per block of the phase: ns since the episode epoch at which its
    /// last transaction was sent (the orderer seals it on admission).
    block_sent_ns: Vec<AtomicU64>,
    /// Set by the observer to end a generator that can no longer succeed.
    abort: AtomicBool,
}

impl Shared {
    fn new(blocks: usize, allowed: u64) -> Shared {
        Shared {
            allowed_blocks: AtomicU64::new(allowed),
            sent_txns: AtomicU64::new(0),
            block_sent_ns: (0..blocks).map(|_| AtomicU64::new(0)).collect(),
            abort: AtomicBool::new(false),
        }
    }
}

/// What the open-loop generator reports about itself.
#[derive(Default, Clone, Copy)]
struct GeneratorReport {
    max_late_ns: u64,
    late_over_1ms: u64,
    cpu_s: f64,
}

/// Due instants (ns since the episode epoch) of an open-loop phase that
/// starts at `start_ns`: the trace's own Poisson arrival gaps, counted
/// from the arrival that preceded the phase.
pub fn due_schedule(at_ns: &[u64], prev_at_ns: u64, start_ns: u64) -> Vec<u64> {
    at_ns
        .iter()
        .map(|at| start_ns + at.saturating_sub(prev_at_ns))
        .collect()
}

/// Whether the paced-phase observer follows block `b` of `blocks`: every
/// `watch`-th one, counted back from the last, which is always followed.
fn is_watched(b: usize, blocks: usize, watch: usize) -> bool {
    (blocks - 1 - b).is_multiple_of(watch)
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Closed loop: send the phase's blocks as fast as the window allows.
fn generate_sat(
    client: &mut SubmitClient,
    txns: &[Submission],
    block_txns: usize,
    shared: &Shared,
) -> Res<()> {
    for (b, block) in txns.chunks(block_txns).enumerate() {
        while shared.allowed_blocks.load(Ordering::Acquire) <= b as u64 {
            if shared.abort.load(Ordering::Relaxed) {
                return Err("saturation generator aborted".into());
            }
            thread::sleep(Duration::from_micros(50));
        }
        for s in block {
            client.submit(s)?;
        }
    }
    Ok(())
}

/// Open loop: send each transaction at its due instant whatever the
/// cluster's progress, and record how late the send really was.
fn generate_paced(
    client: &mut SubmitClient,
    txns: &[Submission],
    due_ns: &[u64],
    block_txns: usize,
    epoch: Instant,
    shared: &Shared,
) -> Res<GeneratorReport> {
    let cpu0 = procfs::thread_cpu_s();
    let mut report = GeneratorReport::default();
    for (i, s) in txns.iter().enumerate() {
        let now = ns_since(epoch);
        if due_ns[i] > now {
            thread::sleep(Duration::from_nanos(due_ns[i] - now));
        }
        if shared.abort.load(Ordering::Relaxed) {
            return Err("paced generator aborted".into());
        }
        let late = ns_since(epoch).saturating_sub(due_ns[i]);
        report.max_late_ns = report.max_late_ns.max(late);
        report.late_over_1ms += u64::from(late > 1_000_000);
        client.submit(s)?;
        if (i + 1) % block_txns == 0 {
            shared.block_sent_ns[i / block_txns].store(ns_since(epoch), Ordering::Relaxed);
        }
        shared.sent_txns.store((i + 1) as u64, Ordering::Release);
    }
    report.cpu_s = procfs::thread_cpu_s() - cpu0;
    Ok(report)
}

/// Saturation phase result.
#[derive(Debug, Clone, Default)]
pub struct SatPhase {
    /// First submit → every replica had applied the phase's last block.
    pub wall_s: f64,
    pub committed: u64,
    pub ordered: u64,
    /// Largest height gap between the fastest and slowest replica seen.
    pub replica_lag_blocks_max: u64,
    /// Observer polls made, over all replicas.
    pub polls: u64,
}

/// Paced phase result.
#[derive(Debug, Clone, Default)]
pub struct PacedPhase {
    pub wall_s: f64,
    /// Process CPU seconds from the first due instant until every
    /// replica had applied the last block.
    pub cpu_s: f64,
    pub committed: u64,
    pub ordered: u64,
    /// Due instant → observer saw replica 0 apply the block, per txn.
    pub latency_ms: Vec<f64>,
    /// Last txn of a block sent → observer saw replica 0 apply it.
    pub seal_to_commit_ms: Vec<f64>,
    /// Transactions not applied within the loss limit.
    pub lost: u64,
    /// Fully sent blocks replica 0 had not applied when the last
    /// transaction went out, the one just completed not counted.
    pub end_backlog_blocks: u64,
    pub polls: u64,
    pub max_late_ms: f64,
    pub late_over_1ms: u64,
    pub generator_cpu_s: f64,
}

impl PacedPhase {
    /// The `p`-th percentile of the phase's latencies, if any was taken.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        (!self.latency_ms.is_empty()).then(|| percentile(&self.latency_ms, p))
    }
}

/// Crash/rejoin leg result.
#[derive(Debug, Clone, Default)]
pub struct FaultLeg {
    pub rejoin_ms: f64,
    pub manifest_bytes: f64,
    pub range_bytes: f64,
    pub sync_blocks: u64,
    pub roots_match: bool,
    pub lost: u64,
}

/// Counters scraped from every node's registry when the measured phases
/// are over (summed over nodes unless noted).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub frames_out: f64,
    pub bytes_out: f64,
    pub dropped_frames: f64,
    pub decode_errors: f64,
    pub reconnects: f64,
    pub reconnects_at_setup: f64,
    pub mempool_rejected: f64,
    pub node_errors: f64,
    /// Replica 0: committed, and aborted by reason.
    pub committed: f64,
    pub aborted_rule1: f64,
    pub aborted_interblock: f64,
    pub aborted_cross_shard: f64,
    pub aborted_user: f64,
    pub aborted_other: f64,
    /// Replica 0 planner: multi-partition txns, single-partition txns,
    /// reservation survivors.
    pub cross_txns: f64,
    pub single_txns: f64,
    pub cross_survivors: f64,
}

impl Counters {
    /// Transactions replica 0 aborted, whatever the reason.
    pub fn aborted(&self) -> f64 {
        self.aborted_rule1
            + self.aborted_interblock
            + self.aborted_cross_shard
            + self.aborted_user
            + self.aborted_other
    }

    /// Share of planned transactions that spanned partitions (0 on a
    /// flat replica, which plans nothing).
    pub fn cross_txn_share(&self) -> f64 {
        let planned = self.cross_txns + self.single_txns;
        if planned > 0.0 {
            self.cross_txns / planned
        } else {
            0.0
        }
    }
}

/// Everything one episode measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    pub setup_s: f64,
    pub sat: SatPhase,
    pub paced: PacedPhase,
    pub fault: Option<FaultLeg>,
    pub counters: Counters,
    /// Replica statuses once the measured phases are over.
    pub statuses: Vec<NodeStatus>,
    /// Orderer status at the same instant.
    pub orderer: NodeStatus,
    /// Replica 0's root when the whole stream (fault leg included) is in.
    pub final_root: String,
    pub final_height: u64,
    pub attempted: u64,
    /// Blocks in the stream up to the end of the paced phase.
    pub measured_blocks: u64,
    /// CPU the nodes spend answering one observer poll, in µs, measured on
    /// the idle cluster after the phases (episodes asked to measure it).
    pub poll_cost_us: Option<f64>,
}

/// The running nodes of one episode.
struct Nodes {
    runtimes: Vec<NodeRuntime>,
    addrs: Vec<Option<SocketAddr>>,
    https: Vec<Option<SocketAddr>>,
    layout: ClusterLayout,
}

impl Nodes {
    /// Draw loopback ports, then start every node in parallel so genesis
    /// loads use both cores and no node waits on another's start. Replica
    /// `r` starts from a thread pinned to the `r`-th allowed CPU (modulo
    /// their number) and all its threads inherit that: a replica has a
    /// core of its own, as it would have a machine of its own, and the
    /// scheduler's placement is the same in every episode. The orderer,
    /// the generator and the observer run wherever there is room.
    fn start(cfg: &ClusterConfig, http_on_replicas: bool) -> Res<Nodes> {
        let layout = ClusterLayout::of(cfg);
        // Hold every listener until all ports are drawn so the OS cannot
        // hand one out twice; the runtime re-binds with bounded retry.
        let mut held = Vec::new();
        let mut addrs = vec![None];
        let mut https = vec![None];
        for index in 1..layout.total() {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(Some(l.local_addr()?));
            held.push(l);
            if http_on_replicas && index >= layout.replica_base() {
                let h = TcpListener::bind("127.0.0.1:0")?;
                https.push(Some(h.local_addr()?));
                held.push(h);
            } else {
                https.push(None);
            }
        }
        drop(held);
        let cpus = procfs::allowed_cpus();
        let started: Vec<harmony_common::Result<NodeRuntime>> = thread::scope(|scope| {
            let handles: Vec<_> = (1..layout.total())
                .map(|index| {
                    let node_cfg = NodeRuntimeConfig {
                        cluster: cfg.clone(),
                        index,
                        peers: addrs.clone(),
                        http: https[index],
                    };
                    let cpus = &cpus;
                    scope.spawn(move || {
                        if let Some(r) = index.checked_sub(layout.replica_base()) {
                            if !cpus.is_empty() {
                                procfs::pin_to_cpu(cpus[r % cpus.len()]);
                            }
                        }
                        NodeRuntime::start(node_cfg)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node start thread panicked"))
                .collect()
        });
        let mut runtimes = Vec::new();
        let mut first_err = None;
        for r in started {
            match r {
                Ok(rt) => runtimes.push(rt),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        let nodes = Nodes {
            runtimes,
            addrs,
            https,
            layout,
        };
        match first_err {
            Some(e) => {
                nodes.stop();
                Err(e.into())
            }
            None => Ok(nodes),
        }
    }

    fn addr(&self, index: usize) -> SocketAddr {
        self.addrs[index].expect("every non-client node listens")
    }

    fn ctl(&self, index: usize) -> Res<CtlClient> {
        Ok(CtlClient::connect(self.addr(index))?)
    }

    /// Every node's registry (index − 1: the client slot has none).
    fn scrape(&self) -> Res<Vec<Exposition>> {
        (1..self.layout.total())
            .map(|i| Ok(Exposition::parse(&self.ctl(i)?.metrics()?)))
            .collect()
    }

    /// Stop every runtime and wait for its event loop to end.
    fn stop(self) {
        for rt in &self.runtimes {
            rt.stop();
        }
        // The HTTP accept loop only notices shutdown on its next
        // connection; give it one so the thread and socket are released.
        for addr in self.https.iter().flatten() {
            let _ = TcpStream::connect(addr);
        }
        for rt in self.runtimes {
            rt.join();
        }
    }
}

/// Poll `probe` until it reports at least `target` applied blocks.
fn wait_for_height(probe: &mut Probe, target: u64, pause: Duration) -> Res<()> {
    let deadline = Instant::now() + STALL_AFTER;
    while probe.applied_blocks()? < target {
        if Instant::now() > deadline {
            return Err(format!("replica stalled below block {target}").into());
        }
        thread::sleep(pause);
    }
    Ok(())
}

/// What one observer poll costs the nodes, in CPU µs: poll the idle
/// cluster back to back for a fixed time and charge the process's CPU,
/// less this thread's own, to the polls made. Reader thread, event loop
/// (or HTTP thread and registry render) and reply write are all in it.
fn poll_cost_us(probe: &mut Probe) -> Res<f64> {
    const BURST: Duration = Duration::from_millis(800);
    let (process0, own0) = (procfs::process_cpu_s(), procfs::thread_cpu_s());
    let polling = Instant::now();
    let mut polls = 0u64;
    while polling.elapsed() < BURST {
        probe.applied_blocks()?;
        polls += 1;
    }
    let nodes_cpu_s = (procfs::process_cpu_s() - process0) - (procfs::thread_cpu_s() - own0);
    Ok(nodes_cpu_s.max(0.0) * 1e6 / polls as f64)
}

/// Sum one counter over several nodes' expositions.
fn total(expositions: &[Exposition], name: &str, labels: &[(&str, &str)]) -> f64 {
    expositions.iter().map(|e| e.sum(name, labels)).sum()
}

/// Run one episode of `spec` over `trace` (the whole stream: warm-up
/// block, saturation blocks, paced blocks, fault-leg blocks).
pub fn run_episode(
    spec: &Spec,
    cfg: &ClusterConfig,
    codec: &Arc<dyn ContractCodec>,
    trace: &[Submission],
    sizes: Sizes,
    measure_poll_cost: bool,
) -> Res<Episode> {
    let epoch = Instant::now();
    let nodes = Nodes::start(cfg, spec.shards > 0)?;
    let outcome = drive(spec, codec, trace, sizes, &nodes, epoch, measure_poll_cost);
    nodes.stop();
    outcome
}

fn drive(
    spec: &Spec,
    codec: &Arc<dyn ContractCodec>,
    trace: &[Submission],
    sizes: Sizes,
    nodes: &Nodes,
    epoch: Instant,
    measure_poll_cost: bool,
) -> Res<Episode> {
    let layout = nodes.layout;
    let bt = spec.block_txns;
    let mut episode = Episode::default();

    // ── Setup: connect, then one warm-up block on every replica ────────
    let mut client = SubmitClient::connect(nodes.addr(layout.orderer()), Arc::clone(codec))?;
    let mut ctls: Vec<CtlClient> = (0..layout.replicas)
        .map(|r| nodes.ctl(layout.replica(r)))
        .collect::<Res<_>>()?;
    let mut probes: Vec<Probe> = (0..layout.replicas)
        .map(|r| {
            Ok(match nodes.https[layout.replica(r)] {
                Some(addr) => Probe::Metrics {
                    addr,
                    series: format!("harmony_replica_block_cost_ns_count{{replica=\"{r}\"}}"),
                },
                None => Probe::Status(nodes.ctl(layout.replica(r))?),
            })
        })
        .collect::<Res<_>>()?;
    let (warm, rest) = trace.split_at(bt);
    for s in warm {
        client.submit(s)?;
    }
    for probe in &mut probes {
        wait_for_height(probe, 1, Duration::from_micros(200))?;
    }
    // The first status builds each chain's state commitment (a full scan);
    // asking here keeps that one-off out of the measured phases.
    for ctl in &mut ctls[1..] {
        ctl.status()?;
    }
    let after_warm = ctls[0].status()?.committed_txns;
    episode.setup_s = epoch.elapsed().as_secs_f64();
    let reconnects_at_setup = total(&nodes.scrape()?, "harmony_transport_reconnects_total", &[]);

    // ── Saturation phase: closed loop, window on the slowest replica ───
    let (sat_txns, rest) = rest.split_at(sizes.sat_blocks * bt);
    let sat = run_sat(spec, &mut client, &mut probes, sat_txns)?;
    let after_sat = ctls[0].status()?.committed_txns;
    episode.sat = SatPhase {
        committed: after_sat - after_warm,
        ordered: sat_txns.len() as u64,
        ..sat
    };

    // ── Paced phase: open loop at the workload's fixed rate ────────────
    let (paced_txns, fault_txns) = rest.split_at(sizes.paced_blocks * bt);
    let paced_base = 1 + sizes.sat_blocks as u64;
    let paced = run_paced(
        spec,
        &mut client,
        &mut probes,
        paced_txns,
        sat_txns.last().map_or(0, |s| s.at_ns),
        paced_base,
        epoch,
    )?;
    let after_paced = ctls[0].status()?.committed_txns;
    episode.paced = PacedPhase {
        committed: after_paced - after_sat,
        ordered: paced_txns.len() as u64,
        ..paced
    };
    episode.measured_blocks = paced_base + sizes.paced_blocks as u64;
    episode.attempted = (trace.len() - fault_txns.len()) as u64;

    // ── End-of-phase snapshot for the checks ───────────────────────────
    for ctl in &mut ctls {
        episode.statuses.push(ctl.status()?);
    }
    episode.orderer = nodes.ctl(layout.orderer())?.status()?;
    episode.counters = counters(&nodes.scrape()?, layout, reconnects_at_setup);
    if measure_poll_cost {
        episode.poll_cost_us = Some(poll_cost_us(&mut probes[0])?);
    }

    // ── Fault leg: crash replica 1, keep the schedule, recover ─────────
    if !fault_txns.is_empty() {
        episode.fault = Some(run_fault_leg(
            spec,
            &mut client,
            &mut ctls,
            &mut probes[..1],
            fault_txns,
            paced_txns.last().map_or(0, |s| s.at_ns),
            episode.measured_blocks,
            epoch,
        )?);
        episode.attempted += fault_txns.len() as u64;
    }
    let last = ctls[0].status()?;
    episode.final_root = last.root;
    episode.final_height = last.height;
    Ok(episode)
}

/// The closed-loop phase: the generator on its own thread keeps at most
/// [`SAT_WINDOW_BLOCKS`] blocks ahead of the *slowest* replica; the phase
/// is over when *every* replica has applied its last block. Returns the
/// wall time and the widest replica gap (counts are filled in by the
/// caller).
fn run_sat(
    spec: &Spec,
    client: &mut SubmitClient,
    probes: &mut [Probe],
    txns: &[Submission],
) -> Res<SatPhase> {
    let bt = spec.block_txns;
    let blocks = (txns.len() / bt) as u64;
    let shared = Shared::new(0, SAT_WINDOW_BLOCKS);
    let start = Instant::now();
    let (generated, observed) = thread::scope(|scope| {
        let generator = scope.spawn(|| generate_sat(client, txns, bt, &shared));
        let observed = (|| -> Res<SatPhase> {
            let (mut lag_max, mut polls) = (0, 0);
            loop {
                // One warm-up block precedes the phase.
                let mut heights = Vec::with_capacity(probes.len());
                for probe in probes.iter_mut() {
                    heights.push(probe.applied_blocks()?.saturating_sub(1));
                    polls += 1;
                }
                let low = heights.iter().copied().min().unwrap_or(0);
                let high = heights.iter().copied().max().unwrap_or(0);
                if low >= blocks {
                    return Ok(SatPhase {
                        wall_s: start.elapsed().as_secs_f64(),
                        replica_lag_blocks_max: lag_max,
                        polls,
                        ..SatPhase::default()
                    });
                }
                lag_max = lag_max.max(high - low);
                shared
                    .allowed_blocks
                    .store(low + SAT_WINDOW_BLOCKS, Ordering::Release);
                if start.elapsed() > STALL_AFTER * 4 {
                    return Err("saturation phase stalled".into());
                }
                // Close to the end the wall clock is what is measured:
                // poll finely so the last block is seen promptly.
                let pause_us = if blocks - low <= 2 {
                    spec.paced_poll_us
                } else {
                    spec.sat_poll_us
                };
                thread::sleep(Duration::from_micros(pause_us));
            }
        })();
        if observed.is_err() {
            shared.abort.store(true, Ordering::Relaxed);
        }
        (generator.join().expect("generator panicked"), observed)
    });
    generated?;
    observed
}

/// The open-loop phase shared by the paced phase and the fault leg:
/// generator on its own thread, this thread watching the blocks
/// `probes[0]` applies, then every probed replica brought to the last one.
fn run_paced(
    spec: &Spec,
    client: &mut SubmitClient,
    probes: &mut [Probe],
    txns: &[Submission],
    prev_at_ns: u64,
    base_blocks: u64,
    epoch: Instant,
) -> Res<PacedPhase> {
    let bt = spec.block_txns;
    let blocks = txns.len() / bt;
    let shared = Shared::new(blocks, 0);
    let cpu0 = procfs::process_cpu_s();
    // The first transaction is due one arrival gap from now.
    let start_ns = ns_since(epoch);
    let at_ns: Vec<u64> = txns.iter().map(|s| s.at_ns).collect();
    let due_ns = due_schedule(&at_ns, prev_at_ns, start_ns);
    let last_due = *due_ns
        .last()
        .ok_or("an open-loop phase needs transactions")?;
    let pause = Duration::from_micros(spec.paced_poll_us);
    // The observer follows every `watch`-th block, the last one included:
    // blocks apply in order, so a watched block seen in time vouches for
    // the ones before it, and the polls stay within their budget.
    let watch = spec.watch_every.max(1);
    // Per block: ns since the epoch at which the observer saw it applied
    // (0: not watched, or never seen).
    let mut seen_ns = vec![0u64; blocks];

    let (generated, observed) = thread::scope(|scope| {
        let generator = scope.spawn(|| generate_paced(client, txns, &due_ns, bt, epoch, &shared));
        let observed = (|| -> Res<(u64, u64)> {
            // The next watched block not yet seen applied.
            let mut next = (blocks - 1) % watch;
            let mut polls = 0u64;
            let mut end_backlog = None;
            // Shortest sent → seen-applied time of the phase so far.
            let mut fastest_ns = u64::MAX;
            while next < blocks {
                let sent = shared.sent_txns.load(Ordering::Acquire) as usize;
                let all_sent = sent == txns.len() && end_backlog.is_none();
                // Nothing is outstanding until a whole block has gone out.
                if sent / bt > next || all_sent {
                    // No block has been done sooner than the fastest one,
                    // so polls before most of that time has passed would
                    // only cost the replica: hold the first one back.
                    let earliest = shared.block_sent_ns[next].load(Ordering::Relaxed)
                        + fastest_ns.min(LOST_AFTER.as_nanos() as u64) / 4 * 3;
                    let now = ns_since(epoch);
                    if fastest_ns != u64::MAX && !all_sent && earliest > now {
                        thread::sleep(Duration::from_nanos(earliest - now));
                    }
                    let applied = probes[0].applied_blocks()?.saturating_sub(base_blocks);
                    polls += 1;
                    let now = ns_since(epoch);
                    let applied = (applied as usize).min(blocks);
                    if all_sent {
                        // The block just completed does not count.
                        end_backlog = Some((blocks - 1).saturating_sub(applied) as u64);
                    }
                    while next < applied {
                        seen_ns[next] = now;
                        let sent_ns = shared.block_sent_ns[next].load(Ordering::Relaxed);
                        fastest_ns = fastest_ns.min(now.saturating_sub(sent_ns));
                        next += watch;
                    }
                }
                if ns_since(epoch) > last_due + LOST_AFTER.as_nanos() as u64 {
                    break;
                }
                if next < blocks {
                    thread::sleep(pause);
                }
            }
            Ok((end_backlog.unwrap_or(0), polls))
        })();
        if observed.is_err() {
            shared.abort.store(true, Ordering::Relaxed);
        }
        (generator.join().expect("generator panicked"), observed)
    });
    let (end_backlog_blocks, polls) = observed?;
    let gen = generated?;
    let wall_s = (ns_since(epoch) - start_ns) as f64 / 1e9;
    // CPU is charged until the slowest replica is done, so the same work
    // is counted whichever replica the observer happened to watch.
    for probe in probes.iter_mut() {
        wait_for_height(probe, base_blocks + blocks as u64, pause)?;
    }
    let cpu_s = procfs::process_cpu_s() - cpu0;

    let mut phase = PacedPhase {
        wall_s,
        cpu_s,
        end_backlog_blocks,
        polls,
        max_late_ms: gen.max_late_ns as f64 / 1e6,
        late_over_1ms: gen.late_over_1ms,
        generator_cpu_s: gen.cpu_s,
        ..PacedPhase::default()
    };
    for (b, &seen) in seen_ns.iter().enumerate() {
        if !is_watched(b, blocks, watch) {
            continue;
        }
        if seen == 0 {
            // Neither this block nor the unwatched ones before it.
            phase.lost += (bt * watch.min(b + 1)) as u64;
            continue;
        }
        let sent = shared.block_sent_ns[b].load(Ordering::Relaxed);
        phase
            .seal_to_commit_ms
            .push(seen.saturating_sub(sent) as f64 / 1e6);
        for due in &due_ns[b * bt..(b + 1) * bt] {
            let latency_ns = seen.saturating_sub(*due);
            if latency_ns > LOST_AFTER.as_nanos() as u64 {
                phase.lost += 1;
            } else {
                phase.latency_ms.push(latency_ns as f64 / 1e6);
            }
        }
    }
    Ok(phase)
}

/// Crash replica 1, keep submitting on the due-time schedule while it is
/// down, recover it, and time its way back to the cluster's height.
#[allow(clippy::too_many_arguments)]
fn run_fault_leg(
    spec: &Spec,
    client: &mut SubmitClient,
    ctls: &mut [CtlClient],
    survivor: &mut [Probe],
    txns: &[Submission],
    prev_at_ns: u64,
    base_blocks: u64,
    epoch: Instant,
) -> Res<FaultLeg> {
    let victim = 1;
    ctls[victim].crash()?;
    let phase = run_paced(spec, client, survivor, txns, prev_at_ns, base_blocks, epoch)?;
    let target = base_blocks + (txns.len() / spec.block_txns) as u64;
    let recovering = Instant::now();
    ctls[victim].recover()?;
    let status = loop {
        let s = ctls[victim].status()?;
        if s.height >= target && s.state == "up" {
            break s;
        }
        if recovering.elapsed() > STALL_AFTER {
            return Err(format!("replica {victim} did not rejoin (at {})", s.height).into());
        }
        thread::sleep(Duration::from_micros(500));
    };
    let rejoin_ms = recovering.elapsed().as_secs_f64() * 1e3;
    let reference = ctls[0].status()?;
    let metrics = Exposition::parse(&ctls[victim].metrics()?);
    let bytes = |path| metrics.sum("harmony_statesync_transfer_bytes_total", &[("path", path)]);
    Ok(FaultLeg {
        rejoin_ms,
        manifest_bytes: bytes("manifest"),
        range_bytes: bytes("range"),
        sync_blocks: status.sync_blocks,
        roots_match: status.root == reference.root
            && status.logical_root == reference.logical_root
            && status.height == reference.height,
        lost: phase.lost,
    })
}

fn counters(
    expositions: &[Exposition],
    layout: ClusterLayout,
    reconnects_at_setup: f64,
) -> Counters {
    let r0 = &expositions[layout.replica(0) - 1];
    let aborted = |reason| {
        r0.sum(
            "harmony_replica_aborted_txns_total",
            &[("replica", "0"), ("reason", reason)],
        )
    };
    let aborted_all = r0.sum("harmony_replica_aborted_txns_total", &[("replica", "0")]);
    let named = ["rule1", "interblock", "cross_shard", "user"].map(aborted);
    Counters {
        frames_out: total(
            expositions,
            "harmony_transport_frames_total",
            &[("dir", "out")],
        ),
        bytes_out: total(
            expositions,
            "harmony_transport_bytes_total",
            &[("dir", "out")],
        ),
        dropped_frames: total(expositions, "harmony_transport_dropped_frames_total", &[]),
        decode_errors: total(expositions, "harmony_transport_decode_errors_total", &[]),
        reconnects: total(expositions, "harmony_transport_reconnects_total", &[]),
        reconnects_at_setup,
        mempool_rejected: total(expositions, "harmony_mempool_rejected_total", &[]),
        node_errors: total(expositions, "harmony_replica_node_errors_total", &[]),
        committed: r0.sum("harmony_replica_committed_txns_total", &[("replica", "0")]),
        aborted_rule1: named[0],
        aborted_interblock: named[1],
        aborted_cross_shard: named[2],
        aborted_user: named[3],
        aborted_other: aborted_all - named.iter().sum::<f64>(),
        cross_txns: r0.sum("harmony_xshard_cross_txns_total", &[]),
        single_txns: r0.sum("harmony_xshard_single_txns_total", &[]),
        cross_survivors: r0.sum("harmony_xshard_survivors_total", &[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_schedule_keeps_the_trace_gaps() {
        // Arrivals at 100, 250, 251 ns after one at 40: gaps 60, 150, 1.
        let due = due_schedule(&[100, 250, 251], 40, 1_000);
        assert_eq!(due, [1_060, 1_210, 1_211]);
        // The schedule is a pure function of the trace and the start.
        assert_eq!(due_schedule(&[100, 250, 251], 40, 1_000), due);
        // A phase that starts the trace counts from zero.
        assert_eq!(due_schedule(&[7, 9], 0, 50), [57, 59]);
        assert!(due_schedule(&[], 0, 5).is_empty());
    }

    #[test]
    fn the_last_block_is_always_watched() {
        let watched = |blocks, watch| -> Vec<usize> {
            (0..blocks)
                .filter(|b| is_watched(*b, blocks, watch))
                .collect()
        };
        assert_eq!(watched(10, 4), [1, 5, 9]);
        assert_eq!(watched(3, 1), [0, 1, 2]);
        assert_eq!(watched(2, 5), [1]);
        // The observer starts at the first watched block.
        assert_eq!((10 - 1) % 4, 1);
    }
}
