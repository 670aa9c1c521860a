//! `harmonyctl` — operate a HarmonyBC process cluster from the shell.
//!
//! ```text
//! harmonyctl spawn   --dir /tmp/hbc [--replicas 3] [--shards 4] [--hotstuff] ...
//! harmonyctl node    --dir /tmp/hbc --index 2        # run one node (spawn does this for you)
//! harmonyctl submit  --dir /tmp/hbc                  # stream the deterministic workload trace
//! harmonyctl status  --dir /tmp/hbc [--node 2]       # heights, roots, counters
//! harmonyctl block   --dir /tmp/hbc --node 2 --seq 3 # inspect a committed block
//! harmonyctl crash   --dir /tmp/hbc --node 3         # fault injection
//! harmonyctl recover --dir /tmp/hbc --node 3         # rejoin via real-socket state sync
//! harmonyctl reshard --dir /tmp/hbc --shards 4       # live shard split/merge at the next block
//! harmonyctl metrics --dir /tmp/hbc --node 2         # live Prometheus scrape over HTTP
//! harmonyctl simroot --dir /tmp/hbc                  # simulator reference root for this spec
//! harmonyctl stop    --dir /tmp/hbc                  # shut every process down
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use harmony_common::{Error, Result};
use harmony_node::submission_trace;
use harmony_transport::{http_get, CtlClient, NodeRuntime, SubmitClient};
use harmonyctl::{ClusterSpec, NetOptions, WorkloadKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("harmonyctl: {e}");
            std::process::exit(1);
        }
    }
}

const USAGE: &str = "usage: harmonyctl <spawn|node|submit|status|block|crash|recover|reshard|metrics|timeline|simroot|stop> --dir DIR [options]";

fn run(args: &[String]) -> Result<()> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(Error::InvalidArgument(USAGE.into()));
    };
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "spawn" => spawn(&flags),
        "node" => node(&flags),
        "submit" => submit(&flags),
        "status" => status(&flags),
        "block" => block(&flags),
        "crash" => toggle(&flags, true),
        "recover" => toggle(&flags, false),
        "reshard" => reshard(&flags),
        "metrics" => scrape(&flags, "/metrics"),
        "timeline" => scrape(&flags, "/timeline"),
        "simroot" => simroot(&flags),
        "stop" => stop(&flags),
        other => Err(Error::InvalidArgument(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    }
}

/// Hand-rolled `--flag value` / `--flag` parser (offline build: no clap).
struct Flags {
    values: HashMap<String, String>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["hotstuff"];

impl Flags {
    fn parse(args: &[String]) -> Result<Flags> {
        let mut values = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(Error::InvalidArgument(format!(
                    "unexpected argument {arg:?}\n{USAGE}"
                )));
            };
            if BOOL_FLAGS.contains(&name) {
                values.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| {
                Error::InvalidArgument(format!("--{name} needs a value\n{USAGE}"))
            })?;
            values.insert(name.to_string(), value.clone());
        }
        Ok(Flags { values })
    }

    fn dir(&self) -> Result<PathBuf> {
        self.values
            .get("dir")
            .map(PathBuf::from)
            .ok_or_else(|| Error::InvalidArgument(format!("--dir is required\n{USAGE}")))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>> {
        match self.values.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| Error::InvalidArgument(format!("bad value for --{name}: {raw:?}"))),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T> {
        self.get(name)?
            .ok_or_else(|| Error::InvalidArgument(format!("--{name} is required")))
    }

    fn net_options(&self) -> Result<NetOptions> {
        let mut opts = NetOptions::default();
        if let Some(w) = self.values.get("workload") {
            opts.workload = WorkloadKind::parse(w)?;
        }
        if let Some(v) = self.get("replicas")? {
            opts.replicas = v;
        }
        if let Some(v) = self.get("shards")? {
            opts.shards = v;
        }
        if self.values.contains_key("hotstuff") {
            opts.hotstuff = true;
        }
        if let Some(v) = self.get("brokers")? {
            opts.brokers = v;
        }
        if let Some(v) = self.get("block-txns")? {
            opts.block_txns = v;
        }
        if let Some(v) = self.get("txns")? {
            opts.txns = v;
        }
        if let Some(v) = self.get("rate")? {
            opts.rate_tps = v;
        }
        if let Some(v) = self.get("seed")? {
            opts.seed = v;
        }
        Ok(opts)
    }
}

/// How long `spawn` waits for its nodes to answer a status request.
const SPAWN_READY_TIMEOUT: Duration = Duration::from_secs(10);

/// Allocate ports, write the spec, launch one OS process per non-client
/// node (re-invoking this same binary's `node` subcommand), and return
/// once every one answers a status request, so a `submit` right after
/// finds the orderer listening.
fn spawn(flags: &Flags) -> Result<()> {
    let dir = flags.dir()?;
    let spec = ClusterSpec::allocate(flags.net_options()?)?;
    spec.save(&dir)?;
    let layout = spec.layout()?;
    let binary = match flags.values.get("binary") {
        Some(path) => PathBuf::from(path),
        None => std::env::current_exe().map_err(Error::Io)?,
    };
    let mut children = Vec::new();
    for index in 1..layout.total() {
        let log_path = dir.join(format!("node-{index}.log"));
        let log = std::fs::File::create(&log_path).map_err(Error::Io)?;
        let child = Command::new(&binary)
            .arg("node")
            .arg("--dir")
            .arg(&dir)
            .arg("--index")
            .arg(index.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(Error::Io)?;
        println!(
            "node {index} ({role}) pid {pid} addr {addr} http {http}",
            role = layout.role(index),
            pid = child.id(),
            addr = spec.node_addr(index)?,
            http = spec.http_addr(index)?,
        );
        children.push((index, child, log_path));
    }
    await_listening(&spec, children)?;
    println!("spec {}", ClusterSpec::path(&dir).display());
    Ok(())
}

/// Poll each spawned node with a status request until every one has
/// answered, exited, or run out [`SPAWN_READY_TIMEOUT`]. If any failed,
/// kill and reap every node still running and name each failed node, in
/// index order, with its log.
fn await_listening(spec: &ClusterSpec, mut children: Vec<(usize, Child, PathBuf)>) -> Result<()> {
    let started = Instant::now();
    // Per node: `None` until it answers (`Ok`) or fails (`Err(why)`).
    let mut outcome: Vec<Option<std::result::Result<(), String>>> = vec![None; children.len()];
    loop {
        for ((index, child, _), slot) in children.iter_mut().zip(&mut outcome) {
            if slot.is_some() {
                continue;
            }
            if let Some(exit) = child.try_wait().map_err(Error::Io)? {
                *slot = Some(Err(format!("exited ({exit}) before it listened")));
            } else if spec
                .node_addr(*index)
                .and_then(CtlClient::connect)
                .and_then(|mut c| c.status())
                .is_ok()
            {
                *slot = Some(Ok(()));
            } else if started.elapsed() >= SPAWN_READY_TIMEOUT {
                *slot = Some(Err(format!(
                    "did not answer within {SPAWN_READY_TIMEOUT:?}"
                )));
            }
        }
        if outcome.iter().all(Option::is_some) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let failures: Vec<String> = children
        .iter()
        .zip(&outcome)
        .filter_map(|((index, _, log), slot)| {
            let why = slot.as_ref()?.as_ref().err()?;
            Some(format!("node {index} {why}; see {}", log.display()))
        })
        .collect();
    if failures.is_empty() {
        return Ok(());
    }
    for (_, child, _) in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    Err(Error::Io(std::io::Error::other(failures.join("\n"))))
}

/// Run one node process in the foreground until a control-plane
/// `Shutdown` arrives.
fn node(flags: &Flags) -> Result<()> {
    let dir = flags.dir()?;
    let index: usize = flags.require("index")?;
    let spec = ClusterSpec::load(&dir)?;
    let runtime = NodeRuntime::start(spec.node_runtime_config(index)?)?;
    runtime.join();
    Ok(())
}

/// Stream the spec's deterministic submission trace to the orderer.
fn submit(flags: &Flags) -> Result<()> {
    let dir = flags.dir()?;
    let spec = ClusterSpec::load(&dir)?;
    let cfg = spec.opts.cluster_config()?;
    let count: usize = flags.get("count")?.unwrap_or(spec.opts.txns);
    let trace = submission_trace(&cfg, count)?;
    let mut client = SubmitClient::connect(spec.orderer_addr()?, cfg.workload.codec()?)?;
    for submission in &trace {
        client.submit(submission)?;
    }
    client.flush()?;
    println!("submitted {} txns to {}", trace.len(), spec.orderer_addr()?);
    Ok(())
}

fn status_line(spec: &ClusterSpec, index: usize) -> Result<String> {
    let status = CtlClient::connect(spec.node_addr(index)?)?.status()?;
    let mut line = format!(
        "node {index} role={role} state={state} height={height}",
        role = status.role,
        state = status.state,
        height = status.height,
    );
    if !status.root.is_empty() {
        line.push_str(&format!(" root={}", status.root));
    }
    if !status.logical_root.is_empty() {
        line.push_str(&format!(" logical={}", status.logical_root));
    }
    line.push_str(&format!(
        " committed={} delivered={} mempool={} sealed={} recoveries={} sync_blocks={}",
        status.committed_txns,
        status.delivered,
        status.mempool_len,
        status.sealed_blocks,
        status.recoveries,
        status.sync_blocks,
    ));
    Ok(line)
}

fn status(flags: &Flags) -> Result<()> {
    let spec = ClusterSpec::load(&flags.dir()?)?;
    match flags.get::<usize>("node")? {
        Some(index) => println!("{}", status_line(&spec, index)?),
        None => {
            let layout = spec.layout()?;
            for index in 1..layout.total() {
                match status_line(&spec, index) {
                    Ok(line) => println!("{line}"),
                    Err(e) => println!("node {index} unreachable: {e}"),
                }
            }
        }
    }
    Ok(())
}

fn block(flags: &Flags) -> Result<()> {
    let spec = ClusterSpec::load(&flags.dir()?)?;
    let index: usize = flags.require("node")?;
    let seq: u64 = flags.require("seq")?;
    let shard: u32 = flags.get("shard")?.unwrap_or(0);
    let mut client = CtlClient::connect(spec.node_addr(index)?)?;
    match client.block(shard, seq)? {
        Some(b) => println!(
            "block {id} txns={txns} hash={hash} prev={prev}",
            id = b.id,
            txns = b.txns,
            hash = b.hash,
            prev = b.prev_hash,
        ),
        None => println!("block {seq} not found on node {index} shard {shard}"),
    }
    Ok(())
}

fn toggle(flags: &Flags, crash: bool) -> Result<()> {
    let spec = ClusterSpec::load(&flags.dir()?)?;
    let index: usize = flags.require("node")?;
    let mut client = CtlClient::connect(spec.node_addr(index)?)?;
    if crash {
        client.crash()?;
        println!("node {index} crashed");
    } else {
        client.recover()?;
        println!("node {index} recovering");
    }
    Ok(())
}

/// Ask the orderer to change the cluster's shard count: it seals a
/// topology-change marker block and every replica splits/merges its
/// shards at that epoch boundary, mid-workload, without restarting.
fn reshard(flags: &Flags) -> Result<()> {
    let spec = ClusterSpec::load(&flags.dir()?)?;
    let new_shards: u32 = flags.require("shards")?;
    if spec.opts.shards == 0 {
        return Err(Error::InvalidArgument(
            "this cluster runs flat replicas; reshard needs a sharded spec (--shards > 0 at spawn)"
                .into(),
        ));
    }
    let mut client = CtlClient::connect(spec.orderer_addr()?)?;
    client.reshard(new_shards)?;
    println!("reshard to {new_shards} shards scheduled at the orderer");
    Ok(())
}

/// Scrape a node's HTTP observability endpoint.
fn scrape(flags: &Flags, path: &str) -> Result<()> {
    let spec = ClusterSpec::load(&flags.dir()?)?;
    let index: usize = flags.require("node")?;
    print!("{}", http_get(spec.http_addr(index)?, path)?);
    Ok(())
}

/// Run the deterministic simulator on this spec's exact configuration
/// and print the reference height and roots a healthy process cluster
/// must converge to.
fn simroot(flags: &Flags) -> Result<()> {
    let spec = ClusterSpec::load(&flags.dir()?)?;
    let reference = harmonyctl::sim_reference(&spec.opts)?;
    println!(
        "height={} root={} logical={}",
        reference.height, reference.root, reference.logical_root
    );
    Ok(())
}

fn stop(flags: &Flags) -> Result<()> {
    let dir = flags.dir()?;
    let spec = ClusterSpec::load(&dir)?;
    let layout = spec.layout()?;
    for index in (1..layout.total()).rev() {
        match CtlClient::connect(spec.node_addr(index)?).and_then(|mut c| c.shutdown()) {
            Ok(()) => println!("node {index} stopped"),
            Err(e) => println!("node {index}: {e}"),
        }
    }
    Ok(())
}
