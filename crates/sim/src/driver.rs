//! Experiment driver: run (engine × workload) for N blocks with
//! abort-retry and produce the paper's metrics.
//!
//! [`run_experiment`] hosts one [`OeChain`] (the engine's flat profile)
//! or, given a [`ShardLayout`], a [`ShardGroup`]; both run one loop, and
//! [`BlockCharge`] prices each block as a replica does. The chains never
//! checkpoint, and their log syncs and seal/verify costs fall outside
//! every `vtime::scope`: the charge is the only cost.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use harmony_chain::{ChainConfig, OeChain};
use harmony_common::error::AbortReason;
use harmony_common::{DetRng, Error, Result};
use harmony_consensus::net::LatencyModel;
use harmony_core::executor::TxnOutcome;
use harmony_core::BlockStats;
use harmony_dcc_baselines::{EngineKind, EngineSpec, ProtocolBlockResult};
use harmony_shard::{Partitioning, ShardGroup, ShardRouter};
use harmony_storage::{IoSnapshot, StorageConfig};
use harmony_txn::{Contract, ContractCodec};
use harmony_workloads::Workload;

use crate::sched::BlockCharge;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of blocks to execute.
    pub blocks: usize,
    /// Transactions per block (also the concurrency degree, §5.2); on a
    /// sharded run the *global* block size, split across shards by the
    /// router.
    pub block_size: usize,
    /// Worker cores per replica; on a sharded run per shard — shards add
    /// hardware, like replicas do.
    pub workers: usize,
    /// Storage configuration (disk profile = the Figure 21 axis).
    pub storage: StorageConfig,
    /// Workload seed.
    pub seed: u64,
    /// Requeue protocol-aborted transactions into the next block.
    pub retry_aborts: bool,
    /// Shard the run (the Figure 22 axes); `None` runs the engine's flat
    /// profile on one chain.
    pub shards: Option<ShardLayout>,
}

/// The shard layout of a sharded run.
#[derive(Clone, Copy, Debug)]
pub struct ShardLayout {
    /// Physical shard count.
    pub shards: usize,
    /// Logical partition count (fixed across shard counts so transaction
    /// classification never changes; must be ≥ the largest shard count
    /// under comparison).
    pub partitions: u32,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            blocks: 40,
            block_size: 25,
            workers: 8,
            storage: StorageConfig::default(),
            seed: 0x5EED,
            retry_aborts: true,
            shards: None,
        }
    }
}

/// Metrics of one run — the quantities the paper's figures plot.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// System name. Borrowed for the plain engines; owned for composed
    /// configurations that label their own series (e.g.
    /// `"HarmonyBC×8shards"`).
    pub system: Cow<'static, str>,
    /// Committed transactions per second of virtual time.
    pub throughput_tps: f64,
    /// Mean end-to-end latency of committed transactions (ms): time from
    /// the transaction's first block to its committing block's completion.
    pub latency_ms: f64,
    /// Protocol abort rate (aborts / attempts, excluding user aborts).
    pub abort_rate: f64,
    /// CPU utilization: total work / (workers × wall time).
    pub cpu_utilization: f64,
    /// Aggregated protocol counters.
    pub stats: BlockStats,
    /// Disk reads issued during the run.
    pub disk_reads: u64,
    /// Disk writes issued during the run.
    pub disk_writes: u64,
    /// Buffer pool hit rate.
    pub buffer_hit_rate: f64,
    /// Virtual wall time of the run (ns).
    pub wall_ns: u64,
}

/// What a driver executes its blocks on.
enum Host {
    /// One chain, the engine in its flat profile.
    Chain(Box<OeChain>, Arc<dyn ContractCodec>),
    /// Per-shard chains behind the cross-shard planner.
    Group(ShardGroup),
}

impl Host {
    /// The chains the host runs, in shard order.
    fn chains(&self) -> &[OeChain] {
        match self {
            Host::Chain(chain, _) => std::slice::from_ref(&**chain),
            Host::Group(group) => group.chains(),
        }
    }

    /// Execute and price one block; `inspect` sees each chain's result.
    fn execute(
        &mut self,
        txns: &[Arc<dyn Contract>],
        charge: &mut BlockCharge,
        inspect: &mut dyn FnMut(&ProtocolBlockResult),
    ) -> Result<(Vec<TxnOutcome>, BlockStats)> {
        match self {
            Host::Chain(chain, codec) => {
                let (_, result) = chain.submit_block(txns.to_vec(), codec.as_ref())?;
                charge.chain_block(chain, &result);
                inspect(&result);
                Ok((result.outcomes, result.stats))
            }
            Host::Group(group) => {
                let result = group.execute_block(txns)?;
                charge.group_block(group, &result);
                result.shard_results.iter().for_each(inspect);
                Ok((result.outcomes, result.stats))
            }
        }
    }
}

/// The one driver loop: `config.blocks` blocks of `config.block_size`
/// transactions on `host`, aborts requeued, and the run's metrics.
fn drive(
    mut host: Host,
    workload: &mut dyn Workload,
    config: &RunConfig,
    system: Cow<'static, str>,
    inspect: &mut dyn FnMut(&ProtocolBlockResult),
) -> Result<RunMetrics> {
    let chains = host.chains().iter();
    let io_before: Vec<_> = chains.map(|c| c.engine().io_snapshot()).collect();
    let mut rng = DetRng::new(config.seed);
    let mut totals = BlockStats::default();
    let mut charge = BlockCharge::default();
    // Requeued aborts and committed (first, committing) block spans.
    let mut retry: VecDeque<(Arc<dyn Contract>, usize)> = VecDeque::new();
    let mut committed_block_spans: Vec<(usize, usize)> = Vec::new();
    for b in 0..config.blocks {
        // The retry queue first, then fresh transactions.
        let (mut txns, mut born) = (Vec::new(), Vec::new());
        while txns.len() < config.block_size {
            let (txn, b0) = retry
                .pop_front()
                .unwrap_or_else(|| (workload.next_txn(&mut rng), b));
            txns.push(txn);
            born.push(b0);
        }
        let (outcomes, stats) = host.execute(&txns, &mut charge, inspect)?;
        for ((outcome, txn), b0) in outcomes.iter().zip(txns).zip(born) {
            match outcome {
                TxnOutcome::Committed => committed_block_spans.push((b0, b)),
                TxnOutcome::Aborted(reason)
                    if config.retry_aborts && *reason != AbortReason::UserAbort =>
                {
                    retry.push_back((txn, b0));
                }
                TxnOutcome::Aborted(_) => {}
            }
        }
        totals.absorb(&stats);
    }

    let wall_ns = charge.wall_ns().max(1);
    let mut io = IoSnapshot::default();
    for (chain, before) in host.chains().iter().zip(&io_before) {
        io.absorb(&chain.engine().io_snapshot().delta_since(before));
    }
    let mean_block_ns = wall_ns as f64 / config.blocks as f64;
    // Mean end-to-end latency: blocks in flight per committed txn.
    let spans = committed_block_spans
        .iter()
        .map(|(b0, b1)| (b1 - b0 + 1) as f64);
    let mean_span = spans.sum::<f64>() / committed_block_spans.len().max(1) as f64;
    let lookups = io.pool.hits + io.pool.misses;
    let cores = host.chains().len() * config.workers;
    Ok(RunMetrics {
        system,
        throughput_tps: totals.committed as f64 / (wall_ns as f64 / 1e9),
        latency_ms: mean_span * mean_block_ns / 1e6,
        abort_rate: totals.abort_rate(),
        cpu_utilization: charge.work_ns() as f64 / (cores as f64 * wall_ns as f64),
        stats: totals,
        disk_reads: io.disk_reads,
        disk_writes: io.disk_writes,
        buffer_hit_rate: io.pool.hits as f64 / lookups.max(1) as f64,
        wall_ns,
    })
}

/// Run one experiment: load the workload, execute `config.blocks` blocks
/// of `config.block_size` transactions, requeue aborts, and aggregate
/// metrics. Without a [`RunConfig::shards`] layout one chain hosts the
/// engine's flat profile; with one the workload's global transaction
/// stream is routed across per-shard chains: single-shard sub-blocks run in
/// parallel across shards, multi-partition transactions pay the modeled
/// fragment-exchange round, over a 1 Gb LAN, plus a re-simulation stage.
/// Every executed chain block's engine result — outcomes and read-write
/// sets — is handed to `inspect` (Figure 13's false-abort oracle reads
/// them).
pub fn run_experiment(
    kind: EngineKind,
    workload: &mut dyn Workload,
    config: &RunConfig,
    mut inspect: impl FnMut(&ProtocolBlockResult),
) -> Result<RunMetrics> {
    if config.workers == 0 {
        return Err(Error::InvalidArgument("a run needs ≥ 1 worker".into()));
    }
    // Every host chain opens with the run's storage and never checkpoints.
    let chain = ChainConfig {
        storage: config.storage.clone(),
        checkpoint_every: 0,
        ..ChainConfig::default()
    };
    let (host, system) = match config.shards {
        None => {
            let chain = OeChain::open(chain, EngineSpec::flat(kind, config.workers))?;
            workload.setup(chain.engine())?;
            let host = Host::Chain(Box::new(chain), workload.codec());
            (host, kind.name().into())
        }
        Some(ShardLayout { shards, partitions }) => {
            let router = ShardRouter::new(Partitioning::Hash.build(partitions), shards);
            let spec = EngineSpec::sharded(kind, config.workers);
            let chains = (0..shards)
                .map(|_| OeChain::open(chain.clone(), spec))
                .collect::<Result<_>>()?;
            let mut group = ShardGroup::new(router, chains, LatencyModel::lan_1g());
            group.setup_with(&[], |engine| {
                workload.setup(engine)?;
                Ok(workload.codec())
            })?;
            let system = format!("{}×{shards}shards", kind.name());
            (Host::Group(group), system.into())
        }
    };
    drive(host, workload, config, system, &mut inspect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::HarmonyConfig;
    use harmony_workloads::{Smallbank, SmallbankConfig, Ycsb, YcsbConfig};

    fn quick_config() -> RunConfig {
        RunConfig {
            blocks: 12,
            block_size: 20,
            workers: 4,
            storage: StorageConfig::default(),
            seed: 1,
            retry_aborts: true,
            shards: None,
        }
    }

    fn small_ycsb(theta: f64) -> Ycsb {
        Ycsb::new(YcsbConfig {
            keys: 1_000,
            theta,
            ..YcsbConfig::default()
        })
    }

    #[test]
    fn harmony_run_produces_metrics() {
        let mut w = small_ycsb(0.6);
        let m = run_experiment(
            EngineKind::Harmony(HarmonyConfig::default()),
            &mut w,
            &quick_config(),
            |_| {},
        )
        .unwrap();
        assert!(m.throughput_tps > 0.0, "{m:?}");
        assert!(m.latency_ms > 0.0);
        assert!(m.stats.committed > 0);
        assert!(m.buffer_hit_rate > 0.0);
        assert!(m.cpu_utilization > 0.0 && m.cpu_utilization <= 1.0);
    }

    #[test]
    fn all_engines_run_ycsb() {
        for kind in EngineKind::ALL {
            let mut w = small_ycsb(0.6);
            let m = run_experiment(kind, &mut w, &quick_config(), |_| {}).unwrap();
            assert!(
                m.stats.committed > 0,
                "{} committed nothing: {:?}",
                kind.name(),
                m.stats
            );
        }
    }

    #[test]
    fn harmony_beats_aria_on_hotspots() {
        // The Figure 14 claim: with 1% hot records and merged
        // read-modify-write UPDATE statements, Harmony commits everything
        // (ww-dependencies are reordered and coalesced, no rw edges arise)
        // while Aria aborts every waw-conflicting updater.
        let config = quick_config();
        let mut w1 = Ycsb::new(YcsbConfig {
            keys: 1_000,
            ..YcsbConfig::hotspot(0.8)
        });
        let harmony = run_experiment(
            EngineKind::Harmony(HarmonyConfig::default()),
            &mut w1,
            &config,
            |_| {},
        )
        .unwrap();
        let mut w2 = Ycsb::new(YcsbConfig {
            keys: 1_000,
            ..YcsbConfig::hotspot(0.8)
        });
        let aria = run_experiment(EngineKind::Aria, &mut w2, &config, |_| {}).unwrap();
        assert!(
            harmony.abort_rate < 0.05,
            "Harmony must be hotspot-resilient: {:?}",
            harmony.abort_rate
        );
        assert!(
            aria.abort_rate > 2.0 * harmony.abort_rate + 0.1,
            "harmony={:?} aria={:?}",
            harmony.abort_rate,
            aria.abort_rate
        );
        assert!(
            harmony.throughput_tps > aria.throughput_tps,
            "harmony={} aria={}",
            harmony.throughput_tps,
            aria.throughput_tps
        );
    }

    #[test]
    fn zero_workers_are_refused_not_a_panic() {
        let idle = RunConfig {
            workers: 0,
            ..quick_config()
        };
        let harmony = EngineKind::Harmony(HarmonyConfig::default());
        let refused = |r: Result<RunMetrics>| matches!(r, Err(Error::InvalidArgument(_)));
        assert!(refused(run_experiment(
            harmony,
            &mut small_ycsb(0.6),
            &idle,
            |_| {}
        )));
        let sharded = RunConfig {
            workers: 0,
            ..sharded_config(2, 4, 20)
        };
        assert!(refused(run_experiment(
            harmony,
            &mut small_ycsb(0.6),
            &sharded,
            |_| {}
        )));
    }

    #[test]
    fn retry_requeues_aborted_txns() {
        let mut w = Smallbank::new(SmallbankConfig {
            accounts: 100,
            theta: 0.95,
            ..SmallbankConfig::default()
        });
        let m = run_experiment(EngineKind::Aria, &mut w, &quick_config(), |_| {}).unwrap();
        // With retries, attempts exceed blocks × size.
        assert!(m.stats.txns >= 12 * 20);
    }

    fn sharded_config(shards: usize, blocks: usize, block_size: usize) -> RunConfig {
        RunConfig {
            blocks,
            block_size,
            workers: 4,
            shards: Some(ShardLayout {
                shards,
                partitions: 16,
            }),
            ..RunConfig::default()
        }
    }

    fn partitioned_smallbank(ratio: f64) -> Smallbank {
        Smallbank::new(SmallbankConfig {
            accounts: 2_000,
            theta: 0.4,
            partitions: 16,
            multi_partition_ratio: ratio,
        })
    }

    #[test]
    fn sharded_run_produces_labelled_metrics() {
        let mut w = partitioned_smallbank(0.1);
        let m = run_experiment(
            EngineKind::Harmony(HarmonyConfig::default()),
            &mut w,
            &sharded_config(8, 8, 40),
            |_| {},
        )
        .unwrap();
        assert_eq!(m.system, "HarmonyBC×8shards");
        assert!(m.throughput_tps > 0.0, "{m:?}");
        assert!(m.stats.committed > 0);
        assert!(m.cpu_utilization > 0.0 && m.cpu_utilization <= 1.0, "{m:?}");
    }

    #[test]
    fn sharding_scales_partitionable_load() {
        // A fully single-partition workload must gain throughput from
        // sharding (the Figure 22 headline shape).
        let run = |shards| {
            let mut w = partitioned_smallbank(0.0);
            run_experiment(
                EngineKind::Harmony(HarmonyConfig::default()),
                &mut w,
                &sharded_config(shards, 10, 64),
                |_| {},
            )
            .unwrap()
            .throughput_tps
        };
        let one = run(1);
        let eight = run(8);
        assert!(
            eight > 2.5 * one,
            "8 shards must outscale 1: one={one} eight={eight}"
        );
    }

    #[test]
    fn cross_shard_ratio_degrades_gracefully() {
        let run = |ratio| {
            let mut w = partitioned_smallbank(ratio);
            run_experiment(
                EngineKind::Harmony(HarmonyConfig::default()),
                &mut w,
                &sharded_config(4, 8, 40),
                |_| {},
            )
            .unwrap()
            .throughput_tps
        };
        let clean = run(0.0);
        let dirty = run(0.2);
        assert!(
            dirty < clean,
            "cross-shard traffic must cost something: clean={clean} dirty={dirty}"
        );
        assert!(
            dirty > clean * 0.2,
            "20% cross-shard must degrade gracefully, not collapse: \
             clean={clean} dirty={dirty}"
        );
    }

    #[test]
    fn deterministic_metrics() {
        let run = || {
            let mut w = small_ycsb(0.8);
            run_experiment(
                EngineKind::Harmony(HarmonyConfig::default()),
                &mut w,
                &quick_config(),
                |_| {},
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.wall_ns, b.wall_ns);
    }
}
