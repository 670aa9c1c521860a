//! Regression for the spawn-time port TOCTOU: `harmonyctl spawn`
//! allocates ports by binding ephemeral listeners, releasing them, and
//! handing the addresses to child processes through the spec file —
//! so another process can steal a port inside that window, and a node
//! that loses the race used to fail its one `bind` and die. The node
//! runtime now retries `AddrInUse` with the cluster's deterministic
//! backoff policy: a transient holder delays startup, a permanent one
//! yields a typed error (never a hang or a panic).

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use harmony_chain::ChainConfig;
use harmony_crypto::CryptoCost;
use harmony_node::{
    ClusterConfig, ClusterWorkload, MempoolConfig, OrderingMode, ReplicaConfig, RetryPolicy,
};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_transport::{CtlClient, NodeRuntime, NodeRuntimeConfig};
use harmony_workloads::{OpenLoopConfig, SmallbankConfig};

/// Minimal flat single-replica cluster; layout = client 0, orderer 1
/// (which doubles as the single Kafka broker), replica 2.
fn cluster() -> ClusterConfig {
    ClusterConfig {
        replicas: 1,
        replica: ReplicaConfig {
            chain: ChainConfig {
                storage: StorageConfig::memory(),
                crypto: CryptoCost::free(),
                ..ChainConfig::default()
            },
            engine: EngineKind::Rbc,
            workers: 2,
            gossip_every: 4,
        },
        topology: None,
        workload: ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 100,
            ..SmallbankConfig::default()
        }),
        ordering: OrderingMode::Kafka { brokers: 1 },
        mempool: MempoolConfig::default(),
        open_loop: OpenLoopConfig {
            clients: 1,
            rate_tps: 1_000.0,
            hot_share: 0.0,
        },
        load_ns: 1_000_000,
        drain_ns: 10_000_000,
        block_txns: 10,
        batch_interval_ns: 500_000,
        window: 4,
        seed: 0xB19D,
        ..ClusterConfig::default()
    }
}

fn config_for(addr: SocketAddr) -> NodeRuntimeConfig {
    // Replica slot (index 2) is the only listener this test starts.
    NodeRuntimeConfig {
        cluster: cluster(),
        index: 2,
        peers: vec![None, None, Some(addr)],
        http: None,
    }
}

#[test]
fn node_comes_up_after_a_transient_port_holder_releases() {
    // Occupy a kernel-assigned port, hand the node that exact address,
    // and release the holder only after the node has started retrying.
    let holder = TcpListener::bind("127.0.0.1:0").expect("bind holder");
    let addr = holder.local_addr().expect("holder addr");
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        drop(holder);
    });
    // Default backoff: 4ms·2^n, ≈316ms of cumulative retry budget —
    // comfortably beyond the 100ms hold.
    let runtime = NodeRuntime::start(config_for(addr)).expect("bind retry must win the race");
    release.join().expect("release thread");
    CtlClient::connect(addr)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    runtime.join();
}

#[test]
fn node_comes_up_after_a_transient_http_port_holder_releases() {
    // The HTTP port is handed out by the same bind-and-release, so it
    // meets the same race and takes the same retry.
    let holder = TcpListener::bind("127.0.0.1:0").expect("bind holder");
    let http = holder.local_addr().expect("holder addr");
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        drop(holder);
    });
    let cfg = NodeRuntimeConfig {
        http: Some(http),
        ..config_for("127.0.0.1:0".parse().expect("addr"))
    };
    let runtime = NodeRuntime::start(cfg).expect("bind retry must win the race");
    release.join().expect("release thread");
    assert_eq!(runtime.http_addr(), Some(http));
    runtime.stop();
    runtime.join();
}

#[test]
fn permanently_stolen_port_fails_with_typed_error() {
    let holder = TcpListener::bind("127.0.0.1:0").expect("bind holder");
    let addr = holder.local_addr().expect("holder addr");
    let mut cfg = config_for(addr);
    // Tight budget so the failure is fast: 2 retries ≈ a few ms.
    cfg.cluster.sync_retry = RetryPolicy {
        base_timeout_ns: 1_000_000,
        max_backoff_ns: 2_000_000,
        max_retries: 2,
    };
    let started = std::time::Instant::now();
    assert!(
        NodeRuntime::start(cfg).is_err(),
        "a permanently occupied port must be a startup error"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "bind retry must give up, not spin"
    );
    drop(holder);
}
