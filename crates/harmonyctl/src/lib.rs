//! Library half of the `harmonyctl` operator CLI.
//!
//! The one rule everything here serves: a process cluster and a
//! simulator reference must run the **same** [`ClusterConfig`], derived
//! from the same [`NetOptions`], so their committed state roots are
//! comparable bit-for-bit. The CLI therefore never hand-assembles a
//! config — both `spawn`/`node` (TCP) and `simroot` (reference) go
//! through [`NetOptions::cluster_config`], and the options travel with
//! the cluster in a `cluster.spec` file every subcommand reloads.

use std::fmt::Write as _;
use std::fs;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};

use harmony_common::{Error, Result};
use harmony_node::{
    load_ns_for_txns, Cluster, ClusterConfig, ClusterLayout, ClusterWorkload, MempoolConfig,
    OrderingMode, ShardTopology,
};
use harmony_transport::NodeRuntimeConfig;
use harmony_workloads::{OpenLoopConfig, SmallbankConfig, TpccConfig, YcsbConfig};

/// Workload selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Smallbank (paper §6 default).
    Smallbank,
    /// YCSB.
    Ycsb,
    /// TPC-C full mix.
    Tpcc,
}

impl WorkloadKind {
    /// Parse a CLI/spec token.
    ///
    /// # Errors
    /// Unknown workload names.
    pub fn parse(s: &str) -> Result<WorkloadKind> {
        match s {
            "smallbank" => Ok(WorkloadKind::Smallbank),
            "ycsb" => Ok(WorkloadKind::Ycsb),
            "tpcc" => Ok(WorkloadKind::Tpcc),
            other => Err(Error::InvalidArgument(format!(
                "unknown workload {other:?} (expected smallbank|ycsb|tpcc)"
            ))),
        }
    }

    /// The CLI/spec token for this workload.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Smallbank => "smallbank",
            WorkloadKind::Ycsb => "ycsb",
            WorkloadKind::Tpcc => "tpcc",
        }
    }
}

/// Options describing one network cluster — everything needed to derive
/// the shared [`ClusterConfig`] deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct NetOptions {
    /// Workload (and genesis) every replica loads.
    pub workload: WorkloadKind,
    /// Number of replicas.
    pub replicas: usize,
    /// Shards per replica; `0` keeps flat replicas.
    pub shards: usize,
    /// `true` = HotStuff BFT rounds; `false` = Kafka-style CFT.
    pub hotstuff: bool,
    /// Kafka replication factor (ignored under HotStuff). `1` means a
    /// lone leader — no follower processes.
    pub brokers: usize,
    /// Transactions per sealed block.
    pub block_txns: usize,
    /// Total transactions the run submits; must be a multiple of
    /// `block_txns` so count-driven sealing leaves no partial tail.
    pub txns: usize,
    /// Offered load of the submission trace (shapes `submitted_ns`
    /// stamps; real submission is as-fast-as-possible).
    pub rate_tps: f64,
    /// Deterministic seed shared by trace, genesis, and reference run.
    pub seed: u64,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            workload: WorkloadKind::Smallbank,
            replicas: 3,
            shards: 0,
            hotstuff: false,
            brokers: 1,
            block_txns: 8,
            txns: 64,
            rate_tps: 20_000.0,
            seed: 0xBC_2026,
        }
    }
}

impl NetOptions {
    /// Derive the cluster configuration both the TCP processes and the
    /// simulator reference run.
    ///
    /// The network discipline: one client session (admission order =
    /// nonce order), count-driven sealing (`eager_seal` + a batch
    /// interval that never fires), and a mempool that holds the whole
    /// run — making the block stream a pure function of the submission
    /// trace, independent of arrival pacing or wall-clock jitter.
    ///
    /// # Errors
    /// Shape violations (`txns` not a positive multiple of
    /// `block_txns`, zero replicas/brokers).
    pub fn cluster_config(&self) -> Result<ClusterConfig> {
        if self.txns == 0 || self.block_txns == 0 || !self.txns.is_multiple_of(self.block_txns) {
            return Err(Error::InvalidArgument(format!(
                "txns ({}) must be a positive multiple of block_txns ({})",
                self.txns, self.block_txns
            )));
        }
        if !self.hotstuff && self.brokers == 0 {
            return Err(Error::InvalidArgument("kafka needs ≥ 1 broker".into()));
        }
        let partitions: u32 = 16;
        let open_loop = OpenLoopConfig {
            clients: 1,
            rate_tps: self.rate_tps,
            hot_share: 0.0,
        };
        let workload = match self.workload {
            WorkloadKind::Smallbank => ClusterWorkload::Smallbank(SmallbankConfig {
                accounts: 1_000,
                theta: 0.6,
                partitions: if self.shards > 0 {
                    u64::from(partitions)
                } else {
                    0
                },
                ..SmallbankConfig::default()
            }),
            WorkloadKind::Ycsb => ClusterWorkload::Ycsb(YcsbConfig {
                keys: 2_000,
                partitions: if self.shards > 0 {
                    u64::from(partitions)
                } else {
                    0
                },
                ..YcsbConfig::default()
            }),
            WorkloadKind::Tpcc => ClusterWorkload::Tpcc(TpccConfig::default()),
        };
        let cfg = ClusterConfig {
            replicas: self.replicas,
            topology: (self.shards > 0).then_some(ShardTopology {
                shards: self.shards,
                partitions,
                partitioning: None,
                checkpoint_stagger: 0,
            }),
            workload,
            ordering: if self.hotstuff {
                OrderingMode::HotStuff
            } else {
                OrderingMode::Kafka {
                    brokers: self.brokers,
                }
            },
            mempool: MempoolConfig {
                capacity: self.txns.max(MempoolConfig::default().capacity),
                ..MempoolConfig::default()
            },
            open_loop,
            load_ns: load_ns_for_txns(open_loop, self.seed, self.txns),
            drain_ns: 2_000_000_000,
            block_txns: self.block_txns,
            // Count-driven sealing: the tick never fires inside a run.
            batch_interval_ns: 1 << 50,
            eager_seal: true,
            seed: self.seed,
            ..ClusterConfig::default()
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Expected final chain height of the run: one block per
    /// `block_txns` admitted transactions.
    #[must_use]
    pub fn expected_height(&self) -> u64 {
        (self.txns / self.block_txns) as u64
    }

    fn render(&self, out: &mut String) {
        let _ = writeln!(out, "workload={}", self.workload.name());
        let _ = writeln!(out, "replicas={}", self.replicas);
        let _ = writeln!(out, "shards={}", self.shards);
        let _ = writeln!(
            out,
            "ordering={}",
            if self.hotstuff { "hotstuff" } else { "kafka" }
        );
        let _ = writeln!(out, "brokers={}", self.brokers);
        let _ = writeln!(out, "block_txns={}", self.block_txns);
        let _ = writeln!(out, "txns={}", self.txns);
        let _ = writeln!(out, "rate_tps={}", self.rate_tps);
        let _ = writeln!(out, "seed={}", self.seed);
    }
}

/// A spawned cluster on disk: the shared options plus where every node
/// listens. Index 0 (the client slot) never has an address — external
/// drivers occupy it over dynamic connections.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// The options every process derives its [`ClusterConfig`] from.
    pub opts: NetOptions,
    /// Cluster listen address per node index (`None` for the client
    /// slot).
    pub addrs: Vec<Option<SocketAddr>>,
    /// HTTP observability address per node index.
    pub https: Vec<Option<SocketAddr>>,
}

impl ClusterSpec {
    /// File name of the spec inside a cluster directory.
    pub const FILE: &'static str = "cluster.spec";

    /// Allocate loopback addresses for every non-client node and build
    /// the spec.
    ///
    /// # Errors
    /// Config shape violations or ephemeral-port allocation failures.
    pub fn allocate(opts: NetOptions) -> Result<ClusterSpec> {
        let cfg = opts.cluster_config()?;
        let layout = ClusterLayout::of(&cfg);
        // Hold all listeners until every port is drawn so the OS can't
        // hand the same ephemeral port out twice. Releasing them before
        // the node processes bind leaves an unavoidable handoff window
        // (the spec is a file, not a transferable socket); the node
        // runtime closes it by binding with bounded retry, so a port
        // still in TIME_WAIT or briefly squatted doesn't kill a spawn.
        let mut held = Vec::new();
        let mut addrs = vec![None];
        let mut https = vec![None];
        for _ in 1..layout.total() {
            let cluster = TcpListener::bind("127.0.0.1:0").map_err(Error::Io)?;
            let http = TcpListener::bind("127.0.0.1:0").map_err(Error::Io)?;
            addrs.push(Some(cluster.local_addr().map_err(Error::Io)?));
            https.push(Some(http.local_addr().map_err(Error::Io)?));
            held.push((cluster, http));
        }
        drop(held);
        Ok(ClusterSpec { opts, addrs, https })
    }

    /// Serialize to the `key=value` spec format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.opts.render(&mut out);
        for (i, addr) in self.addrs.iter().enumerate() {
            if let Some(addr) = addr {
                let _ = writeln!(out, "addr.{i}={addr}");
            }
        }
        for (i, addr) in self.https.iter().enumerate() {
            if let Some(addr) = addr {
                let _ = writeln!(out, "http.{i}={addr}");
            }
        }
        out
    }

    /// Parse the `key=value` spec format.
    ///
    /// # Errors
    /// Unknown keys, malformed values, or an inconsistent node count.
    pub fn parse(text: &str) -> Result<ClusterSpec> {
        let mut opts = NetOptions::default();
        let mut addr_slots: Vec<(usize, SocketAddr)> = Vec::new();
        let mut http_slots: Vec<(usize, SocketAddr)> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| Error::InvalidArgument(format!("spec line without '=': {line}")))?;
            let bad = |what: &str| {
                Error::InvalidArgument(format!("bad spec value for {what}: {value:?}"))
            };
            match key {
                "workload" => opts.workload = WorkloadKind::parse(value)?,
                "replicas" => opts.replicas = value.parse().map_err(|_| bad(key))?,
                "shards" => opts.shards = value.parse().map_err(|_| bad(key))?,
                "ordering" => {
                    opts.hotstuff = match value {
                        "hotstuff" => true,
                        "kafka" => false,
                        _ => return Err(bad(key)),
                    }
                }
                "brokers" => opts.brokers = value.parse().map_err(|_| bad(key))?,
                "block_txns" => opts.block_txns = value.parse().map_err(|_| bad(key))?,
                "txns" => opts.txns = value.parse().map_err(|_| bad(key))?,
                "rate_tps" => opts.rate_tps = value.parse().map_err(|_| bad(key))?,
                "seed" => opts.seed = value.parse().map_err(|_| bad(key))?,
                _ if key.starts_with("addr.") => {
                    let i: usize = key["addr.".len()..].parse().map_err(|_| bad(key))?;
                    addr_slots.push((i, value.parse().map_err(|_| bad(key))?));
                }
                _ if key.starts_with("http.") => {
                    let i: usize = key["http.".len()..].parse().map_err(|_| bad(key))?;
                    http_slots.push((i, value.parse().map_err(|_| bad(key))?));
                }
                _ => {
                    return Err(Error::InvalidArgument(format!("unknown spec key {key:?}")));
                }
            }
        }
        let layout = ClusterLayout::of(&opts.cluster_config()?);
        let mut addrs = vec![None; layout.total()];
        let mut https = vec![None; layout.total()];
        for (i, addr) in addr_slots {
            *addrs.get_mut(i).ok_or_else(|| {
                Error::InvalidArgument(format!("addr.{i} out of range for this layout"))
            })? = Some(addr);
        }
        for (i, addr) in http_slots {
            *https.get_mut(i).ok_or_else(|| {
                Error::InvalidArgument(format!("http.{i} out of range for this layout"))
            })? = Some(addr);
        }
        Ok(ClusterSpec { opts, addrs, https })
    }

    /// Path of the spec file inside `dir`.
    #[must_use]
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(ClusterSpec::FILE)
    }

    /// Load the spec from `dir`.
    ///
    /// # Errors
    /// I/O failures or parse errors.
    pub fn load(dir: &Path) -> Result<ClusterSpec> {
        let text = fs::read_to_string(ClusterSpec::path(dir)).map_err(Error::Io)?;
        ClusterSpec::parse(&text)
    }

    /// Write the spec into `dir` (creating it).
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, dir: &Path) -> Result<()> {
        fs::create_dir_all(dir).map_err(Error::Io)?;
        fs::write(ClusterSpec::path(dir), self.render()).map_err(Error::Io)
    }

    /// The cluster layout these options produce.
    ///
    /// # Errors
    /// Config shape violations.
    pub fn layout(&self) -> Result<ClusterLayout> {
        Ok(ClusterLayout::of(&self.opts.cluster_config()?))
    }

    /// The orderer's cluster listen address.
    ///
    /// # Errors
    /// A spec without an orderer address.
    pub fn orderer_addr(&self) -> Result<SocketAddr> {
        self.addrs
            .get(1)
            .copied()
            .flatten()
            .ok_or_else(|| Error::InvalidArgument("spec has no orderer address".into()))
    }

    /// The cluster listen address of node `index`.
    ///
    /// # Errors
    /// An index outside the layout or a slot without an address.
    pub fn node_addr(&self, index: usize) -> Result<SocketAddr> {
        self.addrs
            .get(index)
            .copied()
            .flatten()
            .ok_or_else(|| Error::InvalidArgument(format!("node {index} has no address")))
    }

    /// The HTTP observability address of node `index`.
    ///
    /// # Errors
    /// An index outside the layout or a slot without an endpoint.
    pub fn http_addr(&self, index: usize) -> Result<SocketAddr> {
        self.https
            .get(index)
            .copied()
            .flatten()
            .ok_or_else(|| Error::InvalidArgument(format!("node {index} has no http endpoint")))
    }

    /// Build the runtime configuration for the process hosting `index`.
    ///
    /// # Errors
    /// Config shape violations or an index without a listen address.
    pub fn node_runtime_config(&self, index: usize) -> Result<NodeRuntimeConfig> {
        Ok(NodeRuntimeConfig {
            cluster: self.opts.cluster_config()?,
            index,
            peers: self.addrs.clone(),
            http: self.https.get(index).copied().flatten(),
        })
    }
}

/// Outcome of a simulator reference run, for comparing against a live
/// process cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReferenceRun {
    /// Final chain height every replica reached.
    pub height: u64,
    /// Final state root (hex).
    pub root: String,
    /// Shard-count-invariant logical root (hex).
    pub logical_root: String,
}

/// Run the deterministic simulator on the options' cluster config and
/// report the converged height and roots.
///
/// # Errors
/// Config violations, simulation failures, or a run where replicas did
/// not converge.
pub fn sim_reference(opts: &NetOptions) -> Result<ReferenceRun> {
    let report = Cluster::new(opts.cluster_config()?).run()?;
    if !report.consistent {
        return Err(Error::Consensus(
            "reference replicas did not converge".into(),
        ));
    }
    let first = report
        .replicas
        .first()
        .ok_or_else(|| Error::InvalidArgument("reference run has no replicas".into()))?;
    Ok(ReferenceRun {
        height: first.height.0,
        root: first.root.to_hex(),
        logical_root: first.logical_root.to_hex(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `spawn --shards N` goes through the same layout rule as
    /// `reshard --shards N`: at most one shard per logical partition.
    #[test]
    fn spawn_refuses_more_shards_than_partitions() {
        let opts = |shards| NetOptions {
            shards,
            ..NetOptions::default()
        };
        opts(16).cluster_config().unwrap();
        assert!(matches!(
            ClusterSpec::allocate(opts(17)),
            Err(Error::InvalidArgument(_))
        ));
    }
}
