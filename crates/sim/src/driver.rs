//! Experiment driver: run (engine × workload) for N blocks with
//! abort-retry and produce the paper's metrics.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use harmony_chain::{ChainConfig, OeChain};
use harmony_common::{BlockId, DetRng, Error, Result};
use harmony_consensus::net::LatencyModel;
use harmony_core::executor::{ExecBlock, TxnOutcome};
use harmony_core::{BlockStats, SnapshotStore};
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_shard::{HashPartitioner, ShardGroup, ShardRouter};
use harmony_storage::{StorageConfig, StorageEngine};
use harmony_txn::Contract;
use harmony_workloads::Workload;

use crate::sched::{pipeline_total_ns, schedule_logged_block, sharded_block_ns};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of blocks to execute.
    pub blocks: usize,
    /// Transactions per block (also the concurrency degree, §5.2).
    pub block_size: usize,
    /// Worker cores per replica.
    pub workers: usize,
    /// Storage configuration (disk profile = the Figure 21 axis).
    pub storage: StorageConfig,
    /// Workload seed.
    pub seed: u64,
    /// Requeue protocol-aborted transactions into the next block.
    pub retry_aborts: bool,
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

/// Retry queue entry: (contract, block index it first entered).
type RetryQueue = VecDeque<(Arc<dyn Contract>, usize)>;

/// Fill the next block: drain the retry queue first, then top up with
/// fresh transactions from the workload. Returns the transactions and the
/// block index each first entered (latency bookkeeping).
fn fill_block(
    retry: &mut RetryQueue,
    workload: &mut dyn Workload,
    rng: &mut DetRng,
    block_size: usize,
    block: usize,
) -> (Vec<Arc<dyn Contract>>, Vec<usize>) {
    let mut txns: Vec<Arc<dyn Contract>> = Vec::with_capacity(block_size);
    let mut born: Vec<usize> = Vec::with_capacity(block_size);
    while txns.len() < block_size {
        if let Some((t, b0)) = retry.pop_front() {
            txns.push(t);
            born.push(b0);
        } else {
            txns.push(workload.next_txn(rng));
            born.push(block);
        }
    }
    (txns, born)
}

/// Record commit spans and requeue retryable (non-user) aborts.
fn track_outcomes(
    outcomes: &[TxnOutcome],
    txns: &[Arc<dyn Contract>],
    born: &[usize],
    block: usize,
    retry_aborts: bool,
    retry: &mut RetryQueue,
    committed_block_spans: &mut Vec<(usize, usize)>,
) {
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            TxnOutcome::Committed => committed_block_spans.push((born[i], block)),
            TxnOutcome::Aborted(reason)
                if retry_aborts && *reason != harmony_common::error::AbortReason::UserAbort =>
            {
                retry.push_back((Arc::clone(&txns[i]), born[i]));
            }
            TxnOutcome::Aborted(_) => {}
        }
    }
}

/// Mean end-to-end latency (ms) from the blocks-in-flight spans of
/// committed transactions and the mean per-block wall time.
fn mean_latency_ms(committed_block_spans: &[(usize, usize)], mean_block_ns: f64) -> f64 {
    if committed_block_spans.is_empty() {
        return 0.0;
    }
    let mean_span: f64 = committed_block_spans
        .iter()
        .map(|(b0, b1)| (b1 - b0 + 1) as f64)
        .sum::<f64>()
        / committed_block_spans.len() as f64;
    mean_span * mean_block_ns / 1e6
}

/// Buffer pool hit rate of an I/O delta (0 when no lookups happened).
fn hit_rate(io: &harmony_storage::IoSnapshot) -> f64 {
    let total = io.pool.hits + io.pool.misses;
    if total == 0 {
        0.0
    } else {
        io.pool.hits as f64 / total as f64
    }
}

/// Refuse a configuration the run cannot schedule: no worker cores.
fn check_workers(config: &RunConfig) -> Result<()> {
    if config.workers == 0 {
        return Err(Error::InvalidArgument("a run needs ≥ 1 worker".into()));
    }
    Ok(())
}

/// Run one experiment: load the workload, execute `blocks` blocks of
/// `block_size` transactions, requeue aborts, and aggregate metrics.
pub fn run_experiment(
    kind: EngineKind,
    workload: &mut dyn Workload,
    config: &RunConfig,
) -> Result<RunMetrics> {
    check_workers(config)?;
    let engine = Arc::new(StorageEngine::open(&config.storage)?);
    workload.setup(&engine)?;
    let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
    let dcc = EngineSpec::flat(kind, config.workers).build(Arc::clone(&store));
    let io_before = engine.io_snapshot();

    let mut rng = DetRng::new(config.seed);
    let mut totals = BlockStats::default();
    let mut schedules = Vec::with_capacity(config.blocks);
    let mut retry: RetryQueue = VecDeque::new();
    // Latency bookkeeping: blocks-in-flight per committed txn.
    let mut committed_block_spans: Vec<(usize, usize)> = Vec::new();

    for b in 0..config.blocks {
        let (txns, born) = fill_block(&mut retry, workload, &mut rng, config.block_size, b);
        let block = ExecBlock::new(BlockId(b as u64 + 1), txns);
        let result = dcc.execute_block(&block)?;
        track_outcomes(
            &result.outcomes,
            &block.txns,
            &born,
            b,
            config.retry_aborts,
            &mut retry,
            &mut committed_block_spans,
        );
        totals.absorb(&result.stats);
        schedules.push(schedule_logged_block(
            &result,
            config.workers,
            dcc.commit_is_serial(),
            config.storage.log_sync_ns,
        ));
    }

    let wall_ns = pipeline_total_ns(&schedules, dcc.pipeline_depth(), config.workers).max(1);
    let io = engine.io_snapshot().delta_since(&io_before);
    let mean_block_ns = wall_ns as f64 / config.blocks as f64;
    let latency_ms = mean_latency_ms(&committed_block_spans, mean_block_ns);
    let work_ns: u64 = schedules.iter().map(|s| s.work_ns).sum();
    Ok(RunMetrics {
        system: Cow::Borrowed(kind.name()),
        throughput_tps: totals.committed as f64 / (wall_ns as f64 / 1e9),
        latency_ms,
        abort_rate: totals.abort_rate(),
        cpu_utilization: work_ns as f64 / (config.workers as f64 * wall_ns as f64),
        stats: totals,
        disk_reads: io.disk_reads,
        disk_writes: io.disk_writes,
        buffer_hit_rate: hit_rate(&io),
        wall_ns,
    })
}

// ── Sharded run path ─────────────────────────────────────────────────────

/// Parameters of a sharded experiment (the Figure 22 axes).
#[derive(Clone, Debug)]
pub struct ShardRunConfig {
    /// Per-shard parameters: `block_size` is the *global* block size
    /// (split across shards by the router); `workers` are per shard —
    /// shards add hardware, like replicas do.
    pub base: RunConfig,
    /// Physical shard count.
    pub shards: usize,
    /// Logical partition count (fixed across shard counts so transaction
    /// classification never changes; must be ≥ the largest shard count
    /// under comparison).
    pub partitions: u32,
    /// Network model for the cross-shard read-fragment exchange.
    pub latency: LatencyModel,
}

impl Default for ShardRunConfig {
    fn default() -> Self {
        ShardRunConfig {
            base: RunConfig::default(),
            shards: 4,
            partitions: 64,
            latency: LatencyModel::lan_1g(),
        }
    }
}

/// Run one sharded experiment: the workload's global transaction stream is
/// routed across `shards` engine instances; single-shard sub-blocks run in
/// parallel across shards, multi-partition transactions pay the modeled
/// fragment-exchange round plus a re-simulation stage.
pub fn run_sharded_experiment(
    kind: EngineKind,
    workload: &mut dyn Workload,
    config: &ShardRunConfig,
) -> Result<RunMetrics> {
    check_workers(&config.base)?;
    let router = ShardRouter::new(
        Arc::new(HashPartitioner::new(config.partitions)),
        config.shards,
    );
    // The shard chains never checkpoint, and their block-log syncs and
    // seal/verify costs fall outside every `vtime::scope`: the charge
    // below is execution alone, as the figure defines it.
    let chain = ChainConfig {
        storage: config.base.storage.clone(),
        checkpoint_every: 0,
        ..ChainConfig::default()
    };
    let spec = EngineSpec::sharded(kind, config.base.workers);
    let chains = (0..config.shards)
        .map(|_| OeChain::open(chain.clone(), spec))
        .collect::<Result<_>>()?;
    let mut group = ShardGroup::new(router, chains, config.latency.clone());
    group.setup_with(&[], |engine| {
        workload.setup(engine)?;
        Ok(workload.codec())
    })?;
    let commit_serial = group.chain(0).dcc().commit_is_serial();
    let io_before: Vec<_> = group
        .chains()
        .iter()
        .map(|c| c.engine().io_snapshot())
        .collect();

    let mut rng = DetRng::new(config.base.seed);
    let mut totals = BlockStats::default();
    let mut retry: RetryQueue = VecDeque::new();
    let mut committed_block_spans: Vec<(usize, usize)> = Vec::new();
    let mut wall_ns = 0u64;
    let mut work_ns = 0u64;
    for b in 0..config.base.blocks {
        let (txns, born) = fill_block(&mut retry, workload, &mut rng, config.base.block_size, b);
        let result = group.execute_block(&txns)?;
        track_outcomes(
            &result.outcomes,
            &txns,
            &born,
            b,
            config.base.retry_aborts,
            &mut retry,
            &mut committed_block_spans,
        );
        totals.absorb(&result.stats);

        wall_ns += sharded_block_ns(
            &result,
            config.base.workers,
            commit_serial,
            config.base.storage.log_sync_ns,
        );
        work_ns += result.stats.sim_ns_total
            + result.stats.commit_ns_total
            + config.base.storage.log_sync_ns * group.shards() as u64;
    }
    let wall_ns = wall_ns.max(1);

    let mut io = harmony_storage::IoSnapshot::default();
    for (chain, before) in group.chains().iter().zip(&io_before) {
        io.absorb(&chain.engine().io_snapshot().delta_since(before));
    }
    let mean_block_ns = wall_ns as f64 / config.base.blocks as f64;
    let latency_ms = mean_latency_ms(&committed_block_spans, mean_block_ns);
    Ok(RunMetrics {
        system: Cow::Owned(format!("{}×{}shards", kind.name(), config.shards)),
        throughput_tps: totals.committed as f64 / (wall_ns as f64 / 1e9),
        latency_ms,
        abort_rate: totals.abort_rate(),
        cpu_utilization: work_ns as f64
            / (config.shards as f64 * config.base.workers as f64 * wall_ns as f64),
        stats: totals,
        disk_reads: io.disk_reads,
        disk_writes: io.disk_writes,
        buffer_hit_rate: hit_rate(&io),
        wall_ns,
    })
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
            let m = run_experiment(kind, &mut w, &quick_config()).unwrap();
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
        )
        .unwrap();
        let mut w2 = Ycsb::new(YcsbConfig {
            keys: 1_000,
            ..YcsbConfig::hotspot(0.8)
        });
        let aria = run_experiment(EngineKind::Aria, &mut w2, &config).unwrap();
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
            &idle
        )));
        let sharded = ShardRunConfig {
            base: idle,
            ..sharded_config(2, 4, 20)
        };
        assert!(refused(run_sharded_experiment(
            harmony,
            &mut small_ycsb(0.6),
            &sharded
        )));
    }

    #[test]
    fn retry_requeues_aborted_txns() {
        let mut w = Smallbank::new(SmallbankConfig {
            accounts: 100,
            theta: 0.95,
            ..SmallbankConfig::default()
        });
        let m = run_experiment(EngineKind::Aria, &mut w, &quick_config()).unwrap();
        // With retries, attempts exceed blocks × size.
        assert!(m.stats.txns >= 12 * 20);
    }

    fn sharded_config(shards: usize, blocks: usize, block_size: usize) -> ShardRunConfig {
        ShardRunConfig {
            base: RunConfig {
                blocks,
                block_size,
                workers: 4,
                ..RunConfig::default()
            },
            shards,
            partitions: 16,
            ..ShardRunConfig::default()
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
        let m = run_sharded_experiment(
            EngineKind::Harmony(HarmonyConfig::default()),
            &mut w,
            &sharded_config(8, 8, 40),
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
            run_sharded_experiment(
                EngineKind::Harmony(HarmonyConfig::default()),
                &mut w,
                &sharded_config(shards, 10, 64),
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
            run_sharded_experiment(
                EngineKind::Harmony(HarmonyConfig::default()),
                &mut w,
                &sharded_config(4, 8, 40),
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
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.wall_ns, b.wall_ns);
    }
}
