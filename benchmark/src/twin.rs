//! The single-threaded twin: the stream the cluster ordered, replayed
//! through the layers' public functions with a span around each call.
//!
//! Orderer side: `Mempool::submit → next_batch → encode → ChainBlock::seal
//! → WireCodec::encode_msg`. Replica side: `decode_msg`, then (a) the
//! whole `ReplicaNode::deliver` / `ShardedReplicaNode::deliver`, and (b)
//! the same block taken apart: verify, contract decode, `plan_block` when
//! sharded, block-log append, `BlockExecutor::simulate` / `commit`,
//! `keys_written_in` + `StateCommitment::apply_writes`, root, checkpoint,
//! and the replica's virtual-time accounting (`schedule_block`,
//! `pipeline_total_ns`).
//! Both must end on the cluster's state root, which is what makes (b)'s
//! per-layer times an account of (a)'s total.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use harmony_chain::{sharded_state_root, ChainBlock, StateCommitment};
use harmony_common::BlockId;
use harmony_core::executor::{BlockResult, BlockSummary, ExecBlock};
use harmony_core::{BlockExecutor, BlockStats, HarmonyConfig, SnapshotStore};
use harmony_crypto::{sha256, AuthMap, Digest, KeyPair, Verifier};
use harmony_dcc_baselines::ProtocolBlockResult;
use harmony_metrics::Registry;
use harmony_node::{
    ClusterConfig, Mempool, Msg, ReplicaMetrics, ReplicaNode, ShardedReplicaConfig,
    ShardedReplicaNode, Submission,
};
use harmony_shard::{
    decide_cross, plan_block, prune_to_owned, BlockPlan, FragmentCodec, ShardRouter,
};
use harmony_sim::{pipeline_total_ns, schedule_block, BlockSchedule, EngineKind};
use harmony_storage::{IoSnapshot, StorageEngine};
use harmony_transport::WireCodec;
use harmony_txn::{Contract, ContractCodec, MultiCodec, TxnCtx};

use crate::procfs;
use crate::trace::Recorder;
use crate::Res;

/// The ordered stream plus what producing it cost.
pub struct Ordered {
    pub blocks: Vec<Arc<ChainBlock>>,
    pub rec: Recorder,
    pub txns: u64,
    pub mempool_rejected: u64,
    pub contract_bytes: u64,
    pub deliver_frame_bytes: u64,
}

/// Orderer-side twin: admit, batch, seal and frame the trace exactly as
/// the cluster's orderer does, then decode each frame as a replica would.
pub fn order(cfg: &ClusterConfig, trace: &[Submission]) -> Res<Ordered> {
    let chain = &cfg.replica.chain;
    let keypair = KeyPair::derive(&chain.provision, chain.orderer_id, chain.crypto);
    let codec = cfg.workload.codec()?;
    let wire = WireCodec::new(Arc::clone(&codec));
    let mut mempool = Mempool::new(cfg.mempool);
    let mut out = Ordered {
        blocks: Vec::new(),
        rec: Recorder::new(false),
        txns: trace.len() as u64,
        mempool_rejected: 0,
        contract_bytes: 0,
        deliver_frame_bytes: 0,
    };
    let rec = &mut out.rec;
    let mut prev_hash = Digest::ZERO;
    for (b, batch) in trace.chunks(cfg.block_txns).enumerate() {
        let id = b as u64 + 1;
        // The client's Submit frames, encoded and decoded as on the wire.
        let frames = rec.span("wire.submit_encode", id, |_| {
            batch
                .iter()
                .map(|s| {
                    wire.encode_msg(&Msg::Submit {
                        client: s.client,
                        nonce: s.nonce,
                        submitted_ns: s.at_ns,
                        contract: Arc::clone(&s.contract),
                    })
                })
                .collect::<Vec<_>>()
        });
        let submits = rec.span("wire.submit_decode", id, |_| {
            frames
                .iter()
                .map(|f| wire.decode_msg(&f[4..]))
                .collect::<harmony_common::Result<Vec<_>>>()
        })?;
        let rejected = rec.span("mempool.submit", id, |_| {
            let mut rejected = 0;
            for msg in submits {
                if let Msg::Submit {
                    client,
                    nonce,
                    submitted_ns,
                    contract,
                } = msg
                {
                    rejected += u64::from(
                        mempool
                            .submit(client, nonce, submitted_ns, contract)
                            .is_err(),
                    );
                }
            }
            rejected
        });
        out.mempool_rejected += rejected;
        let pending = rec.span("mempool.next_batch", id, |_| {
            mempool.next_batch(cfg.block_txns)
        });
        let encoded = rec.span("txn.encode", id, |_| {
            pending
                .iter()
                .map(|t| harmony_txn::encode_contract(t.contract.as_ref()))
                .collect::<Vec<_>>()
        });
        out.contract_bytes += encoded.iter().map(|e| e.len() as u64).sum::<u64>();
        // Decoding is a replica-side cost; timed here on the same bytes.
        rec.span("txn.decode", id, |_| {
            for e in &encoded {
                black_box(codec.decode(e).is_ok());
            }
        });
        rec.span("merkle.build", id, |_| {
            black_box(harmony_crypto::MerkleTree::build(&encoded).root());
        });
        let sealed = rec.span("block.seal", id, |_| {
            Arc::new(ChainBlock::seal(BlockId(id), prev_hash, encoded, &keypair))
        });
        prev_hash = sealed.header.hash();
        let frame = rec.span("wire.deliver_encode", id, |_| {
            wire.encode_msg(&Msg::Deliver {
                block: sealed,
                born_ns: 0,
                mean_submit_ns: 0,
            })
        });
        out.deliver_frame_bytes += frame.len() as u64;
        let msg = rec.span("wire.deliver_decode", id, |_| wire.decode_msg(&frame[4..]))?;
        let Msg::Deliver { block, .. } = msg else {
            return Err("deliver frame decoded to another message".into());
        };
        out.blocks.push(block);
    }
    Ok(out)
}

/// The Harmony toggles the configured engine runs with.
fn harmony_config(cfg: &ClusterConfig) -> Res<HarmonyConfig> {
    match cfg.replica.engine {
        EngineKind::Harmony(h) => Ok(HarmonyConfig {
            workers: cfg.replica.workers,
            ..h
        }),
        other => Err(format!("the twin replays Harmony, not {}", other.name()).into()),
    }
}

// ── (a) Whole deliver ──────────────────────────────────────────────────

enum Node {
    Flat(Box<ReplicaNode>),
    Sharded(Box<ShardedReplicaNode>),
}

impl Node {
    fn root(&self) -> Res<Digest> {
        Ok(match self {
            Node::Flat(n) => n.state_root()?,
            Node::Sharded(n) => n.sharded_root()?,
        })
    }

    fn engines(&self) -> Vec<&Arc<StorageEngine>> {
        match self {
            Node::Flat(n) => vec![n.chain().engine()],
            Node::Sharded(n) => (0..n.shards()).map(|s| n.shard_chain(s).engine()).collect(),
        }
    }
}

/// What the whole-deliver replay measured.
pub struct Whole {
    pub root: String,
    pub rec: Recorder,
    pub genesis_load_ms: f64,
    pub build_ms: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub stats: BlockStats,
    pub io: IoSnapshot,
    /// Pages ever allocated over the engines, and the pools' capacity.
    pub state_pages: u64,
    pub pool_pages: u64,
    pub get_us: f64,
    pub put_us: f64,
}

/// Replay through the node types the cluster itself hosts. The stream is
/// fed a stretch at a time so that this replay and the decomposed ones
/// take turns and meet the same host conditions (`layers::per_layer`).
pub struct WholeReplay {
    node: Node,
    rec: Recorder,
    genesis_load_ms: f64,
    /// Pool and disk counters are reported for the ordered stream alone:
    /// the sequential genesis load would dilute them with easy hits.
    io_at_genesis: IoSnapshot,
    build_ms: f64,
    wall_s: f64,
    cpu_s: f64,
}

impl WholeReplay {
    pub fn open(cfg: &ClusterConfig) -> Res<WholeReplay> {
        let loading = Instant::now();
        let node = match cfg.topology {
            None => Node::Flat(Box::new(ReplicaNode::new(&cfg.replica, |e| {
                cfg.workload.setup_node(e)
            })?)),
            Some(t) => Node::Sharded(Box::new(ShardedReplicaNode::new(
                &ShardedReplicaConfig {
                    chain: cfg.replica.chain.clone(),
                    engine: cfg.replica.engine,
                    workers: cfg.replica.workers,
                    shards: t.shards,
                    partitions: t.partitions,
                    partitioning: t
                        .partitioning
                        .unwrap_or_else(|| cfg.workload.recommended_partitioning()),
                    replicated_tables: cfg.workload.replicated_tables(),
                    checkpoint_stagger: t.checkpoint_stagger,
                    latency: cfg.latency.clone(),
                    gossip_every: cfg.replica.gossip_every,
                },
                |e| cfg.workload.setup_node(e),
            )?)),
        };
        let genesis_load_ms = loading.elapsed().as_secs_f64() * 1e3;
        let mut io_at_genesis = IoSnapshot::default();
        for engine in node.engines() {
            io_at_genesis.absorb(&engine.io_snapshot());
        }
        Ok(WholeReplay {
            node,
            rec: Recorder::new(false),
            genesis_load_ms,
            io_at_genesis,
            build_ms: 0.0,
            wall_s: 0.0,
            cpu_s: 0.0,
        })
    }

    /// Deliver the next stretch of the stream.
    pub fn run(&mut self, blocks: &[Arc<ChainBlock>]) -> Res<()> {
        let cpu0 = procfs::process_cpu_s();
        let replaying = Instant::now();
        for block in blocks {
            let id = block.header.id.0;
            let node = &mut self.node;
            let span = match node {
                Node::Flat(_) => "node.replica.deliver",
                Node::Sharded(_) => "node.sharded.deliver",
            };
            self.rec.span(span, id, |_| match node {
                Node::Flat(n) => n.deliver(Arc::clone(block)).map(drop),
                Node::Sharded(n) => n.deliver(Arc::clone(block)).map(drop),
            })?;
            if id == 1 {
                // The cluster's setup asks for the root after the warm-up
                // block; that first call builds the state commitment.
                let building = Instant::now();
                self.node.root()?;
                self.build_ms = building.elapsed().as_secs_f64() * 1e3;
            }
        }
        self.wall_s += replaying.elapsed().as_secs_f64();
        self.cpu_s += procfs::process_cpu_s() - cpu0;
        Ok(())
    }

    pub fn finish(self, cfg: &ClusterConfig) -> Res<Whole> {
        let node = self.node;
        let root = node.root()?.to_hex();
        let stats = match &node {
            Node::Flat(n) => *n.stats(),
            Node::Sharded(n) => *n.stats(),
        };
        let mut io = IoSnapshot::default();
        let (mut state_pages, mut pool_pages) = (0, 0);
        for engine in node.engines() {
            io.absorb(&engine.io_snapshot());
            state_pages += engine.pool().disk().page_count();
            pool_pages += cfg.replica.chain.storage.buffer_pages as u64;
        }
        let io = io.delta_since(&self.io_at_genesis);
        // Last: the probe re-puts rows, which dirties pages.
        let (get_us, put_us) = probe_engine(node.engines()[0])?;
        Ok(Whole {
            root,
            rec: self.rec,
            genesis_load_ms: self.genesis_load_ms,
            build_ms: self.build_ms,
            wall_s: self.wall_s,
            cpu_s: self.cpu_s,
            stats,
            io,
            state_pages,
            pool_pages,
            get_us,
            put_us,
        })
    }
}

/// Mean point-read and same-value re-put time on the first table of a
/// replayed engine, over keys spread across the table.
fn probe_engine(engine: &StorageEngine) -> Res<(f64, f64)> {
    const PROBES: u64 = 2_000;
    let (_, table) = engine
        .list_tables()
        .into_iter()
        .next()
        .ok_or("replayed engine has no table")?;
    let rows = engine.table_len(table)?.max(1);
    let keys: Vec<[u8; 8]> = (0..PROBES)
        .map(|i| (i * 7_919 % rows).to_be_bytes())
        .collect();
    let reading = Instant::now();
    let mut values = Vec::with_capacity(keys.len());
    for k in &keys {
        values.push(engine.get(table, k)?);
    }
    let get_us = reading.elapsed().as_secs_f64() * 1e6 / PROBES as f64;
    let writing = Instant::now();
    let mut puts = 0u64;
    for (k, v) in keys.iter().zip(&values) {
        if let Some(v) = v {
            engine.put(table, k, v)?;
            puts += 1;
        }
    }
    let put_us = writing.elapsed().as_secs_f64() * 1e6 / puts.max(1) as f64;
    Ok((get_us, put_us))
}

// ── (b) Deliver taken apart ────────────────────────────────────────────

/// One engine with everything `OeChain::apply_block_inner` keeps around
/// it: the flat replica is one lane, a sharded replica one per shard.
struct Lane {
    engine: Arc<StorageEngine>,
    store: Arc<SnapshotStore>,
    executor: BlockExecutor,
    verifier: Verifier,
    commitment: Option<StateCommitment>,
    prev_hash: Digest,
    prev_summary: Option<BlockSummary>,
    checkpoint_every: u64,
    keys_folded: u64,
}

impl Lane {
    fn open(cfg: &ClusterConfig, harmony: HarmonyConfig) -> Res<(Lane, Arc<dyn ContractCodec>)> {
        let chain = &cfg.replica.chain;
        let engine = Arc::new(StorageEngine::open(&chain.storage)?);
        let codec = cfg.workload.setup_node(&engine)?;
        let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
        Ok((
            Lane {
                executor: BlockExecutor::new(Arc::clone(&store), harmony),
                engine,
                store,
                verifier: Verifier::new(&chain.provision, chain.crypto),
                commitment: None,
                prev_hash: Digest::ZERO,
                prev_summary: None,
                checkpoint_every: chain.checkpoint_every,
                keys_folded: 0,
            },
            codec,
        ))
    }

    /// The commitment, built by a full scan the first time it is needed.
    fn commitment(&mut self, rec: &mut Recorder, id: u64) -> Res<&mut StateCommitment> {
        if self.commitment.is_none() {
            let built = rec.span("chain.commit.build", id, |_| {
                StateCommitment::build(&self.engine)
            })?;
            self.commitment = Some(built);
        }
        Ok(self.commitment.as_mut().expect("just built"))
    }

    fn root(&mut self, rec: &mut Recorder, id: u64) -> Res<Digest> {
        let commitment = self.commitment(rec, id)?;
        Ok(rec.span("chain.commit.root", id, |_| commitment.root()))
    }

    /// Verify, log, execute, fold and checkpoint one sealed block whose
    /// contracts are already decoded.
    fn apply(
        &mut self,
        rec: &mut Recorder,
        sealed: &ChainBlock,
        txns: Vec<Arc<dyn Contract>>,
    ) -> Res<BlockResult> {
        let id = sealed.header.id;
        rec.span("chain.block.verify", id.0, |_| {
            sealed.verify(&self.prev_hash, &self.verifier)
        })?;
        rec.span("storage.log.append", id.0, |_| {
            let log = self.engine.block_log();
            log.append(&sealed.encode())?;
            log.sync()
        })?;
        let block = ExecBlock { id, txns };
        let sim = rec.span("core.executor.simulate", id.0, |_| {
            self.executor.simulate(&block)
        });
        let inter_block = self.executor.config().inter_block_parallelism;
        let prev = self.prev_summary.take().filter(|_| inter_block);
        let result = rec.span("core.executor.commit", id.0, |_| {
            self.executor.commit(&block, sim, prev.as_ref())
        })?;
        rec.span("core.snapshot.gc", id.0, |_| {
            self.store.gc(BlockId(id.0.saturating_sub(1)));
        });
        if let Some(commitment) = self.commitment.as_mut() {
            let keys = rec.span("chain.commit.fold", id.0, |_| {
                let keys = self.store.keys_written_in(id);
                commitment
                    .apply_writes(&self.engine, &keys)
                    .map(|()| keys.len())
            })?;
            self.keys_folded += keys as u64;
        }
        self.prev_hash = sealed.header.hash();
        self.prev_summary = Some(result.summary.clone());
        if self.checkpoint_every > 0 && id.0.is_multiple_of(self.checkpoint_every) {
            self.root(rec, id.0)?;
            // The chain also appends a recovery sidecar to the WAL here;
            // its encoder is private, so that cost stays in (a) − (b).
            rec.span("storage.checkpoint", id.0, |_| self.engine.checkpoint(id))?;
        }
        Ok(result)
    }
}

/// What the decomposed replay measured.
pub struct Apart {
    pub root: String,
    pub rec: Recorder,
    pub wall_s: f64,
    pub keys_folded: u64,
    /// `decide_cross` re-run on each block's multi-partition read-write
    /// sets agreed with the planner's decisions.
    pub decisions_agree: bool,
}

/// What a sharded replica keeps beside its shards' lanes.
struct Sharding {
    router: ShardRouter,
    /// Sub-blocks are sealed by the replica itself, with the chain's key.
    keypair: KeyPair,
    verifier: Verifier,
    prev_hash: Digest,
    /// Kept for timing `decide_cross` alone once the replay is over.
    planned: Vec<Planned>,
}

/// One block's plan (the planner's cross-shard decisions in it) and the
/// contracts it was made from.
struct Planned {
    id: u64,
    plan: BlockPlan,
    txns: Vec<Arc<dyn Contract>>,
}

/// Replay with each layer called on its own, fed a stretch at a time like
/// [`WholeReplay`]. `keep_spans` turns the span list on; totals are kept
/// either way.
pub struct ApartReplay<'a> {
    cfg: &'a ClusterConfig,
    harmony: HarmonyConfig,
    /// One lane for a flat replica, one per shard for a sharded one.
    lanes: Vec<Lane>,
    codec: Arc<dyn ContractCodec>,
    sharding: Option<Sharding>,
    /// `ReplicaNode::apply` keeps every block's schedule and recomputes
    /// the pipeline makespan over all of them after each block.
    schedules: Vec<BlockSchedule>,
    rec: Recorder,
    wall_s: f64,
}

impl<'a> ApartReplay<'a> {
    pub fn open(cfg: &'a ClusterConfig, keep_spans: bool) -> Res<ApartReplay<'a>> {
        let chain = &cfg.replica.chain;
        let mut harmony = harmony_config(cfg)?;
        let (lanes, codec, sharding) = match cfg.topology {
            None => {
                let (lane, codec) = Lane::open(cfg, harmony)?;
                (vec![lane], codec, None)
            }
            Some(topology) => {
                harmony.inter_block_parallelism = false;
                let partitioning = topology
                    .partitioning
                    .unwrap_or_else(|| cfg.workload.recommended_partitioning());
                let router =
                    ShardRouter::new(partitioning.build(topology.partitions), topology.shards);
                let mut lanes = Vec::new();
                let mut workload_codec = None;
                for s in 0..topology.shards {
                    let (lane, codec) = Lane::open(cfg, harmony)?;
                    prune_to_owned(&lane.engine, &router, s)?;
                    workload_codec = Some(codec);
                    lanes.push(lane);
                }
                let codec: Arc<dyn ContractCodec> = Arc::new(MultiCodec::new(vec![
                    Arc::new(FragmentCodec),
                    workload_codec.ok_or("no shards")?,
                ]));
                let sharding = Sharding {
                    router,
                    keypair: KeyPair::derive(&chain.provision, chain.orderer_id, chain.crypto),
                    verifier: Verifier::new(&chain.provision, chain.crypto),
                    prev_hash: Digest::ZERO,
                    planned: Vec::new(),
                };
                (lanes, codec, Some(sharding))
            }
        };
        Ok(ApartReplay {
            cfg,
            harmony,
            lanes,
            codec,
            sharding,
            schedules: Vec::new(),
            rec: Recorder::new(keep_spans),
            wall_s: 0.0,
        })
    }

    /// Apply the next stretch of the stream.
    pub fn run(&mut self, blocks: &[Arc<ChainBlock>]) -> Res<()> {
        let replaying = Instant::now();
        for sealed in blocks {
            if self.sharding.is_some() {
                self.deliver_sharded(sealed)?;
            } else {
                self.deliver_flat(sealed)?;
            }
            if sealed.header.id.0 == 1 {
                // As the cluster's setup does: the first root builds the
                // state commitment, outside any deliver.
                sharded_root(&mut self.lanes, &mut self.rec, 1)?;
            }
        }
        self.wall_s += replaying.elapsed().as_secs_f64();
        Ok(())
    }

    fn deliver_flat(&mut self, sealed: &ChainBlock) -> Res<()> {
        let id = sealed.header.id.0;
        let gossip_every = self.cfg.replica.gossip_every.max(1);
        let harmony = self.harmony;
        let depth = if harmony.inter_block_parallelism {
            2
        } else {
            1
        };
        let (lane, codec, schedules) = (&mut self.lanes[0], &self.codec, &mut self.schedules);
        self.rec.span("node.replica.deliver", id, |rec| {
            let txns = rec.span("txn.codec.decode", id, |_| {
                sealed
                    .txns
                    .iter()
                    .map(|b| codec.decode(b))
                    .collect::<harmony_common::Result<Vec<_>>>()
            })?;
            let result = lane.apply(rec, sealed, txns)?;
            rec.span("node.replica.account", id, |_| {
                let result = protocol_result(result);
                schedules.push(schedule_block(&result, harmony.workers, false));
                black_box(pipeline_total_ns(schedules, depth, harmony.workers));
            });
            if id.is_multiple_of(gossip_every) {
                lane.root(rec, id)?;
            }
            Ok(())
        })
    }

    fn deliver_sharded(&mut self, sealed: &ChainBlock) -> Res<()> {
        let id = sealed.header.id.0;
        let cfg = self.cfg;
        let gossip_every = cfg.replica.gossip_every.max(1);
        let workers = self.harmony.workers;
        let (lanes, codec) = (&mut self.lanes, &self.codec);
        let sharding = self.sharding.as_mut().ok_or("not a sharded replay")?;
        let (plan, txns) = self.rec.span("node.sharded.deliver", id, |rec| {
            rec.span("chain.block.verify", id, |_| {
                sealed.verify(&sharding.prev_hash, &sharding.verifier)
            })?;
            let txns = rec.span("txn.codec.decode", id, |_| {
                sealed
                    .txns
                    .iter()
                    .map(|b| codec.decode(b))
                    .collect::<harmony_common::Result<Vec<_>>>()
            })?;
            let stores: Vec<_> = lanes.iter().map(|l| Arc::clone(&l.store)).collect();
            let mut plan = rec.span("shard.plan", id, |_| {
                plan_block(
                    &sharding.router,
                    &stores,
                    BlockId(id - 1),
                    &txns,
                    cfg.replica.workers,
                    &cfg.latency,
                )
            });
            let mut results = Vec::with_capacity(lanes.len());
            for (s, lane) in lanes.iter_mut().enumerate() {
                let sub = std::mem::take(&mut plan.shard_txns[s]);
                let sub_block = rec.span("chain.block.seal", id, |_| {
                    let encoded = sub.iter().map(|t| codec.encode(t.as_ref())).collect();
                    ChainBlock::seal(BlockId(id), lane.prev_hash, encoded, &sharding.keypair)
                });
                let r = lane.apply(rec, &sub_block, sub)?;
                results.push(rec.span("node.replica.account", id, |_| {
                    let r = protocol_result(r);
                    black_box(schedule_block(&r, workers, false).total_ns());
                    r
                }));
            }
            rec.span("shard.fold_outcomes", id, |_| plan.fold_outcomes(&results))?;
            if id.is_multiple_of(gossip_every) {
                sharded_root(lanes, rec, id)?;
            }
            Ok::<_, Box<dyn std::error::Error + Send + Sync>>((plan, txns))
        })?;
        sharding.prev_hash = sealed.header.hash();
        sharding.planned.push(Planned { id, plan, txns });
        Ok(())
    }

    pub fn finish(mut self) -> Res<Apart> {
        let root = sharded_root(&mut self.lanes, &mut self.rec, 0)?.to_hex();
        let mut decisions_agree = true;
        if let Some(sharding) = self.sharding {
            // Time `decide_cross` alone on the planner's inputs. YCSB key
            // sets do not depend on the values read, so a copy of genesis
            // yields each block's own multi-partition read-write sets.
            let genesis = Arc::new(StorageEngine::open(&self.cfg.replica.chain.storage)?);
            self.cfg.workload.setup_node(&genesis)?;
            let genesis = SnapshotStore::new(genesis);
            let view = genesis.view_at(BlockId(0));
            for Planned { id, plan, txns } in sharding.planned {
                let rwsets: Vec<_> = plan
                    .cross_idx
                    .iter()
                    .map(|&g| {
                        let mut ctx = TxnCtx::new(&view);
                        txns[g].execute(&mut ctx).ok().map(|()| ctx.into_rwset())
                    })
                    .collect();
                let decisions = self
                    .rec
                    .span("shard.decide_cross", id, |_| decide_cross(&rwsets));
                decisions_agree &= decisions == plan.decisions;
            }
        }
        Ok(Apart {
            root,
            rec: self.rec,
            wall_s: self.wall_s,
            keys_folded: self.lanes.iter().map(|l| l.keys_folded).sum(),
            decisions_agree,
        })
    }
}

/// The replica's root over its lanes: the lane's own for a flat replica.
fn sharded_root(lanes: &mut [Lane], rec: &mut Recorder, id: u64) -> Res<Digest> {
    if let [lane] = lanes {
        return lane.root(rec, id);
    }
    let roots = lanes
        .iter_mut()
        .map(|l| l.root(rec, id))
        .collect::<Res<Vec<_>>>()?;
    Ok(rec.span("chain.commit.root", id, |_| sharded_state_root(&roots)))
}

/// The executor's result in the shape `BlockPlan::fold_outcomes` reads.
fn protocol_result(r: BlockResult) -> ProtocolBlockResult {
    ProtocolBlockResult {
        block: r.block,
        outcomes: r.results.iter().map(|t| t.outcome).collect(),
        sim_ns: r.results.iter().map(|t| t.sim_ns).collect(),
        commit_ns: r.results.iter().map(|t| t.commit_ns).collect(),
        rwsets: r.rwsets,
        stats: r.stats,
        orderer_ns: 0,
        summary: Some(r.summary),
    }
}

// ── Small fixed-size probes of single functions ────────────────────────

/// Times of single layer functions that no block replay isolates.
pub struct Micro {
    pub sha256_ns_per_byte: f64,
    pub sign_verify_us: f64,
    pub authmap_upsert_us: f64,
    pub metrics_render_us: f64,
    pub counter_inc_ns: f64,
}

pub fn micro(cfg: &ClusterConfig) -> Micro {
    let chain = &cfg.replica.chain;
    let buf = vec![0xA5u8; 64 << 10];
    let hashing = Instant::now();
    for _ in 0..64 {
        black_box(sha256(black_box(&buf)));
    }
    let sha256_ns_per_byte = hashing.elapsed().as_nanos() as f64 / (64 * buf.len()) as f64;

    let keypair = KeyPair::derive(&chain.provision, chain.orderer_id, chain.crypto);
    let verifier = Verifier::new(&chain.provision, chain.crypto);
    let message = [7u8; 72];
    let signing = Instant::now();
    for _ in 0..2_000 {
        let sig = keypair.sign(black_box(&message));
        black_box(verifier.verify(&message, &sig));
    }
    let sign_verify_us = signing.elapsed().as_secs_f64() * 1e6 / 2_000.0;

    let mut map = AuthMap::new();
    for k in 0..10_000u64 {
        map.upsert(&k.to_be_bytes(), &[1u8; 16]);
    }
    let upserting = Instant::now();
    for k in 0..10_000u64 {
        map.upsert(&(k * 7_919 % 10_000).to_be_bytes(), &[2u8; 16]);
    }
    let authmap_upsert_us = upserting.elapsed().as_secs_f64() * 1e6 / 10_000.0;
    black_box(map.root());

    // A registry the size of one replica's.
    let registry = Registry::new();
    let handles = ReplicaMetrics::register(&registry, 0);
    let rendering = Instant::now();
    for _ in 0..200 {
        black_box(registry.render_prometheus());
    }
    let metrics_render_us = rendering.elapsed().as_secs_f64() * 1e6 / 200.0;
    let counting = Instant::now();
    for _ in 0..1_000_000 {
        handles.txns.committed.inc();
    }
    let counter_inc_ns = counting.elapsed().as_nanos() as f64 / 1e6;
    black_box(handles.txns.committed.get());

    Micro {
        sha256_ns_per_byte,
        sign_verify_us,
        authmap_upsert_us,
        metrics_render_us,
        counter_inc_ns,
    }
}
