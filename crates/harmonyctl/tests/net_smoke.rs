//! net_smoke: a real multi-process loopback cluster must commit the
//! exact state root the deterministic simulator computes for the same
//! workload and seed — flat and sharded, Kafka and HotStuff — while the
//! operator CLI drives submission, inspection, fault injection, and
//! live metrics scrapes.

use std::net::TcpStream;
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use harmony_transport::{http_get, CtlClient};
use harmonyctl::{sim_reference, ClusterSpec, NetOptions};

const BIN: &str = env!("CARGO_BIN_EXE_harmonyctl");

/// Best-effort process cleanup if an assertion fails mid-run.
struct StopGuard(PathBuf);

impl Drop for StopGuard {
    fn drop(&mut self) {
        let _ = Command::new(BIN)
            .args(["stop", "--dir"])
            .arg(&self.0)
            .output();
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ctl(args: &[&str], dir: &Path) -> String {
    let output = Command::new(BIN)
        .args([args[0], "--dir"])
        .arg(dir)
        .args(&args[1..])
        .output()
        .expect("run harmonyctl");
    assert!(
        output.status.success(),
        "harmonyctl {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf8 output")
}

fn opts_flags(opts: &NetOptions) -> Vec<String> {
    let mut flags = vec![
        "--workload".into(),
        opts.workload.name().into(),
        "--replicas".into(),
        opts.replicas.to_string(),
        "--shards".into(),
        opts.shards.to_string(),
        "--brokers".into(),
        opts.brokers.to_string(),
        "--block-txns".into(),
        opts.block_txns.to_string(),
        "--txns".into(),
        opts.txns.to_string(),
        "--seed".into(),
        opts.seed.to_string(),
    ];
    if opts.hotstuff {
        flags.push("--hotstuff".into());
    }
    flags
}

/// Poll every replica until it is `up` at `height` and all roots agree;
/// return `(root, logical_root)`.
fn await_convergence(spec: &ClusterSpec, height: u64, deadline: Duration) -> (String, String) {
    let layout = spec.layout().expect("layout");
    let replica_base = layout.replica_base();
    let started = Instant::now();
    loop {
        let mut roots = Vec::new();
        for index in replica_base..layout.total() {
            let status = CtlClient::connect(spec.node_addr(index).expect("addr"))
                .and_then(|mut c| c.status());
            match status {
                Ok(s) if s.state == "up" && s.height == height && !s.root.is_empty() => {
                    roots.push((s.root, s.logical_root));
                }
                _ => break,
            }
        }
        if roots.len() == layout.replicas && roots.iter().all(|r| *r == roots[0]) {
            return roots.remove(0);
        }
        assert!(
            started.elapsed() < deadline,
            "cluster did not converge to height {height} within {deadline:?}: {roots:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn smoke(name: &str, opts: NetOptions, exercise_faults: bool) {
    let dir = std::env::temp_dir().join(format!("hbc-net-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let guard = StopGuard(dir.clone());

    let spawn_flags: Vec<&str> = opts_flags(&opts)
        .leak()
        .iter()
        .map(String::as_str)
        .collect();
    let mut spawn_args = vec!["spawn"];
    spawn_args.extend(spawn_flags);
    ctl(&spawn_args, &dir);
    let spec = ClusterSpec::load(&dir).expect("load spec");
    assert_eq!(spec.opts, opts, "spawn must persist the exact options");

    // Drive the deterministic trace through the real orderer socket.
    ctl(&["submit"], &dir);
    let height = opts.expected_height();
    let (root, logical) = await_convergence(&spec, height, Duration::from_secs(60));

    // The acceptance bar: real sockets == deterministic simulator.
    let reference = sim_reference(&opts).expect("sim reference");
    assert_eq!(reference.height, height, "{name}: sim height");
    assert_eq!(
        reference.root, root,
        "{name}: state root over TCP != simulator"
    );
    assert_eq!(
        reference.logical_root, logical,
        "{name}: logical root over TCP != simulator"
    );

    // Block inspection: the committed chain is visible via the CLI.
    let layout = spec.layout().expect("layout");
    let block_out = ctl(&["block", "--node", "2", "--seq", "1"], &dir);
    // Node 2 is a replica only when there are no followers. On sharded
    // replicas the summary covers shard 0's sub-block, so only its hash
    // presence is portable across topologies.
    if layout.replica_base() == 2 {
        assert!(block_out.contains("hash="), "block output: {block_out}");
        if opts.shards == 0 {
            assert!(
                block_out.contains(&format!("txns={}", opts.block_txns)),
                "block output: {block_out}"
            );
        }
    }

    // Every process serves live Prometheus metrics over HTTP.
    for index in 1..layout.total() {
        let text = http_get(spec.http_addr(index).expect("http addr"), "/metrics")
            .expect("metrics scrape");
        assert!(
            text.contains("harmony_transport_frames_total"),
            "node {index} metrics missing transport counters"
        );
        let timeline = http_get(spec.http_addr(index).expect("http addr"), "/timeline")
            .expect("timeline scrape");
        assert!(
            timeline.contains("harmonybc-timeline"),
            "node {index} timeline missing schema marker"
        );
    }

    if exercise_faults {
        // Crash the last replica, then rejoin: it must recover through
        // real-socket state sync and land back on the cluster root.
        let victim = (layout.total() - 1).to_string();
        ctl(&["crash", "--node", &victim], &dir);
        ctl(&["recover", "--node", &victim], &dir);
        let started = Instant::now();
        loop {
            let status = CtlClient::connect(spec.node_addr(layout.total() - 1).expect("addr"))
                .and_then(|mut c| c.status())
                .expect("victim status");
            if status.state == "up" && status.height == height && status.root == root {
                assert!(status.recoveries >= 1, "recovery counter");
                assert!(status.sync_blocks >= 1, "state-sync served over sockets");
                break;
            }
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "crashed replica never rejoined: {status:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // Graceful stop: every listener goes away.
    ctl(&["stop"], &dir);
    let started = Instant::now();
    for index in 1..layout.total() {
        let addr = spec.node_addr(index).expect("addr");
        while TcpStream::connect(addr).is_ok() {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "node {index} still listening after stop"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    drop(guard);
}

#[test]
fn net_smoke_flat_kafka() {
    smoke(
        "flat-kafka",
        NetOptions {
            seed: 0x5EED_0001,
            ..NetOptions::default()
        },
        true,
    );
}

#[test]
fn net_smoke_sharded_hotstuff() {
    smoke(
        "sharded-hotstuff",
        NetOptions {
            shards: 4,
            hotstuff: true,
            seed: 0x5EED_0002,
            ..NetOptions::default()
        },
        true,
    );
}

#[test]
fn net_smoke_kafka_followers_ycsb() {
    smoke(
        "kafka3-ycsb",
        NetOptions {
            workload: harmonyctl::WorkloadKind::Ycsb,
            brokers: 3,
            seed: 0x5EED_0003,
            ..NetOptions::default()
        },
        false,
    );
}

#[test]
fn spawn_fails_when_a_node_exits_before_listening() {
    let dir = std::env::temp_dir().join(format!("hbc-net-smoke-{}-dead", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(BIN)
        .args(["spawn", "--dir"])
        .arg(&dir)
        .args(["--binary", "/bin/false"])
        .output()
        .expect("run harmonyctl");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "spawn must fail when its nodes never listen"
    );
    assert!(
        stderr.contains("node 1 exited") && stderr.contains("node-1.log"),
        "the error names the node and its log: {stderr}"
    );
}

#[test]
fn spawn_kills_every_node_when_one_fails_at_start_up() {
    let dir = std::env::temp_dir().join(format!("hbc-net-smoke-{}-half", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // Node 1 fails at start-up; every other node is a real one.
    let script = dir.join("node.sh");
    std::fs::write(
        &script,
        format!("#!/bin/sh\n[ \"$5\" = 1 ] && exit 1\nexec '{BIN}' \"$@\"\n"),
    )
    .expect("write script");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    let output = Command::new(BIN)
        .args(["spawn", "--dir"])
        .arg(&dir)
        .arg("--binary")
        .arg(&script)
        .output()
        .expect("run harmonyctl");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let pids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().skip_while(|w| *w != "pid").nth(1))
        .collect();
    let survivors: Vec<&str> = pids
        .iter()
        .copied()
        .filter(|pid| Path::new("/proc").join(pid).exists())
        .collect();
    for pid in &survivors {
        let _ = Command::new("kill").args(["-9", pid]).status();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "spawn must fail: {stdout}");
    assert!(
        stderr.contains("node 1 exited") && stderr.contains("node-1.log"),
        "the error names node 1 and its log: {stderr}"
    );
    assert!(pids.len() >= 3, "spawn printed every node's pid: {stdout}");
    assert!(
        survivors.is_empty(),
        "spawn left nodes {survivors:?} of {pids:?} running"
    );
}
