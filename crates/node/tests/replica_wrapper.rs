//! One replica node of a cluster driven by hand — messages and timers
//! in, sends out through a recording transport — for what a whole-cluster
//! run cannot aim at: sync traffic of the wrong shape (a hostile or
//! misconfigured peer on a real socket), and the `status()` cache.
//!
//! Everything goes through what a real-transport runtime uses:
//! [`build_node`], the [`SimNode`] handlers, `status()`, the registry.

use std::sync::Arc;

use harmony_chain::{ChainBlock, ChainConfig};
use harmony_common::BlockId;
use harmony_consensus::net::{SimNode, Transport};
use harmony_crypto::{Digest, KeyPair};
use harmony_metrics::Registry;
use harmony_node::cluster::Msg;
use harmony_node::{
    build_node, submission_trace, ClusterConfig, ClusterLayout, ClusterNode, ClusterWorkload,
    FaultEvent, FaultSchedule, NodeStatus, ReplicaConfig, ShardTopology, ShardedSyncResponse,
    SyncResponse, TIMER_CRASH, TIMER_RECOVER,
};
use harmony_shard::ReshardMarker;
use harmony_txn::encode_contract;
use harmony_workloads::SmallbankConfig;

#[derive(Default)]
struct Recorder {
    sent: Vec<(usize, Msg)>,
}

impl Transport<Msg> for Recorder {
    fn now(&self) -> u64 {
        0
    }
    fn me(&self) -> usize {
        0
    }
    fn send(&mut self, to: usize, msg: Msg, _bytes: u64) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _delay_ns: u64, _id: u64) {}
    fn charge_cpu(&mut self, _ns: u64) {}
}

#[derive(Clone)]
enum Input {
    Msg(usize, Msg),
    Timer(u64),
}

/// Replica `r` of a cluster, with every input it was ever given — so a
/// twin can be rebuilt from scratch and brought to the same state.
struct Driven<'a> {
    cfg: &'a ClusterConfig,
    r: usize,
    registry: Arc<Registry>,
    node: ClusterNode,
    inputs: Vec<Input>,
}

impl<'a> Driven<'a> {
    fn new(cfg: &'a ClusterConfig, r: usize) -> Driven<'a> {
        let registry = Arc::new(Registry::new());
        let node = build_node(cfg, &registry, ClusterLayout::of(cfg).replica(r)).unwrap();
        Driven {
            cfg,
            r,
            registry,
            node,
            inputs: Vec::new(),
        }
    }

    /// Hand the node one input; returns what it sent in response.
    fn feed(&mut self, input: Input) -> Vec<(usize, Msg)> {
        let mut net = Recorder::default();
        match input.clone() {
            Input::Msg(from, msg) => self.node.on_message(from, msg, &mut net),
            Input::Timer(id) => self.node.on_timer(id, &mut net),
        }
        self.inputs.push(input);
        net.sent
    }

    /// Like [`Driven::feed`], for an input answered by exactly one send.
    fn feed_for_one(&mut self, input: Input) -> (usize, Msg) {
        let mut sent = self.feed(input);
        assert_eq!(sent.len(), 1, "expected exactly one send");
        sent.remove(0)
    }

    fn counter(&self, name: &str) -> u64 {
        let replica = self.r.to_string();
        self.registry
            .counter_with(name, "", &[("replica", replica.as_str())])
            .get()
    }

    /// `status()` of this node — which may come from its cache — checked
    /// against the first-ever `status()` of a twin given the same inputs.
    fn status_checked_against_an_unasked_twin(&mut self, after: &str) -> NodeStatus {
        let mut twin = Driven::new(self.cfg, self.r);
        for input in &self.inputs {
            twin.feed(input.clone());
        }
        let status = self.node.status();
        assert_eq!(status, twin.node.status(), "stale status after {after}");
        assert_eq!(status, self.node.status(), "status not repeatable");
        status
    }
}

fn config(topology: Option<ShardTopology>, faults: Vec<FaultEvent>) -> ClusterConfig {
    ClusterConfig {
        replicas: 3,
        replica: ReplicaConfig {
            chain: ChainConfig {
                checkpoint_every: 3,
                ..ChainConfig::in_memory()
            },
            workers: 2,
            gossip_every: 2,
            ..ReplicaConfig::default()
        },
        topology,
        workload: ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 120,
            partitions: 8,
            multi_partition_ratio: 0.4,
            ..SmallbankConfig::default()
        }),
        faults: FaultSchedule::new(faults),
        ..ClusterConfig::default()
    }
}

/// Seals blocks the way the orderer of `cfg` would.
struct Sealer {
    keypair: KeyPair,
    next_id: u64,
    prev_hash: Digest,
    payloads: std::vec::IntoIter<Vec<u8>>,
    orderer: usize,
}

impl Sealer {
    fn new(cfg: &ClusterConfig) -> Sealer {
        let chain = &cfg.replica.chain;
        let payloads: Vec<Vec<u8>> = submission_trace(cfg, 64)
            .unwrap()
            .iter()
            .map(|s| encode_contract(s.contract.as_ref()))
            .collect();
        Sealer {
            keypair: KeyPair::derive(&chain.provision, chain.orderer_id, chain.crypto),
            next_id: 1,
            prev_hash: Digest::ZERO,
            payloads: payloads.into_iter(),
            orderer: ClusterLayout::of(cfg).orderer(),
        }
    }

    fn seal(&mut self, txns: Vec<Vec<u8>>) -> Input {
        let block = ChainBlock::seal(BlockId(self.next_id), self.prev_hash, txns, &self.keypair);
        self.next_id += 1;
        self.prev_hash = block.header.hash();
        let deliver = Msg::Deliver {
            block: Arc::new(block),
            born_ns: 0,
            mean_submit_ns: 0,
        };
        Input::Msg(self.orderer, deliver)
    }

    fn workload_block(&mut self) -> Input {
        let txns = self.payloads.by_ref().take(8).collect();
        self.seal(txns)
    }

    fn reshard_block(&mut self, new_shards: u32, epoch: u64) -> Input {
        self.seal(vec![ReshardMarker { new_shards, epoch }.encode()])
    }
}

#[test]
fn wrong_shaped_sync_traffic_is_a_counted_error_and_a_failover_never_a_panic() {
    const NODE_ERRORS: &str = "harmony_replica_node_errors_total";
    let cfg = config(None, Vec::new());
    let layout = ClusterLayout::of(&cfg);
    let mut sealer = Sealer::new(&cfg);
    let (mut server, mut requester) = (Driven::new(&cfg, 1), Driven::new(&cfg, 0));
    for _ in 0..4 {
        let block = sealer.workload_block();
        server.feed(block.clone());
        requester.feed(block);
    }

    // A flat requester asks its first ring candidate with one height.
    requester.feed(Input::Timer(TIMER_CRASH));
    let (to, request) = requester.feed_for_one(Input::Timer(TIMER_RECOVER));
    assert_eq!(to, layout.replica(1));
    let Msg::SyncRequest { from, epoch } = request else {
        panic!("recovery must request sync");
    };
    assert_eq!(from.len(), 1, "a flat replica hosts one chain");

    // A 2-part reply (a sharded or hostile peer) cannot be installed:
    // counted, and the next candidate is asked under a fresh epoch.
    let part = || SyncResponse::Range(Vec::new());
    let two_parts = Msg::SyncReply {
        response: Arc::new(ShardedSyncResponse {
            height: BlockId(4),
            global_hash: Digest::ZERO,
            epoch: 0,
            parts: vec![part(), part()],
        }),
        epoch,
    };
    let (to, retry) = requester.feed_for_one(Input::Msg(to, two_parts));
    assert_eq!(requester.counter(NODE_ERRORS), 1);
    assert_eq!(requester.counter("harmony_statesync_retries_total"), 1);
    assert_eq!(to, layout.replica(2), "failover to the next candidate");
    let Msg::SyncRequest { epoch: retried, .. } = retry else {
        panic!("failover must re-request");
    };
    assert_eq!(retried, epoch + 1);

    // A 2-height request to a flat server is not an error: its one chain
    // is served from scratch, and the requester can install that.
    let two_heights = Msg::SyncRequest {
        from: vec![BlockId(3), BlockId(4)],
        epoch: retried,
    };
    let (to, reply) = server.feed_for_one(Input::Msg(layout.replica(0), two_heights));
    assert_eq!(server.counter(NODE_ERRORS), 0);
    assert_eq!(to, layout.replica(0));
    let Msg::SyncReply { response, .. } = &reply else {
        panic!("a flat server answers a mis-sized request");
    };
    assert!(matches!(
        response.parts.as_slice(),
        [SyncResponse::Snapshot(..)]
    ));
    requester.feed(Input::Msg(layout.replica(2), reply));
    assert_eq!(requester.counter(NODE_ERRORS), 1, "no new error");
    let status = requester.node.status();
    assert_eq!(status.state, "up");
    assert_eq!(status.root, server.node.status().root);
}

#[test]
fn status_is_never_stale_after_apply_reshard_recover_sync_or_wipe() {
    let two_shards = ShardTopology {
        shards: 2,
        partitions: 8,
        ..ShardTopology::default()
    };
    // Any fault arms the quarantine check; this one never fires.
    let armed = vec![FaultEvent::PoisonRoot {
        replica: 2,
        at_ns: u64::MAX,
    }];
    for topology in [None, Some(two_shards)] {
        let cfg = config(topology, armed.clone());
        let layout = ClusterLayout::of(&cfg);
        let mut sealer = Sealer::new(&cfg);
        let (mut ahead, mut behind) = (Driven::new(&cfg, 1), Driven::new(&cfg, 0));
        let genesis = ahead.status_checked_against_an_unasked_twin("build");

        // Blocks applied. `behind` sees only the first.
        let first = sealer.workload_block();
        behind.feed(first.clone());
        ahead.feed(first);
        for _ in 0..3 {
            ahead.feed(sealer.workload_block());
        }
        let mut status = ahead.status_checked_against_an_unasked_twin("apply");
        assert_eq!(status.height, 4);
        assert_ne!(status.logical_root, genesis.logical_root);

        // Reshard: the logical database is the same, its hosting is not.
        if topology.is_some() {
            ahead.feed(sealer.reshard_block(4, 1));
            let resharded = ahead.status_checked_against_an_unasked_twin("reshard");
            assert_eq!(resharded.logical_root, status.logical_root);
            assert_ne!(resharded.root, status.root);
            ahead.feed(sealer.workload_block());
            status = ahead.status_checked_against_an_unasked_twin("apply after reshard");
        }

        // Recovery, then sync applied (across the reshard, if any).
        behind.status_checked_against_an_unasked_twin("apply");
        behind.feed(Input::Timer(TIMER_CRASH));
        assert_eq!(behind.node.status().logical_root, "", "down: no root");
        let (to, request) = behind.feed_for_one(Input::Timer(TIMER_RECOVER));
        behind.status_checked_against_an_unasked_twin("recover");
        let (_, reply) = ahead.feed_for_one(Input::Msg(layout.replica(0), request));
        behind.feed(Input::Msg(to, reply));
        let synced = behind.status_checked_against_an_unasked_twin("sync");
        assert_eq!(synced.state, "up");
        assert_eq!(synced.logical_root, status.logical_root);

        // Wipe: two more blocks take the replica to a gossip height, two
        // peers dispute the root it gossiped there, and it quarantines
        // itself back to genesis.
        behind.feed(sealer.workload_block());
        behind.feed(sealer.workload_block());
        let lie = Msg::RootGossip {
            height: synced.height + 2,
            root: Digest([0xAB; 32]),
        };
        assert!(behind
            .feed(Input::Msg(layout.replica(1), lie.clone()))
            .is_empty());
        let (to, request) = behind.feed_for_one(Input::Msg(layout.replica(2), lie));
        assert!(matches!(request, Msg::SyncRequest { .. }));
        assert_eq!(to, layout.replica(1));
        let wiped = behind.status_checked_against_an_unasked_twin("wipe");
        assert_eq!((wiped.state.as_str(), wiped.height), ("syncing", 0));
        assert_ne!(wiped.logical_root, synced.logical_root);
    }
}
