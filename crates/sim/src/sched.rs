//! Deterministic task scheduling on virtual worker cores, and
//! [`BlockCharge`]: the one price of an executed block, which the
//! experiment drivers and both replica kinds charge.

use harmony_chain::OeChain;
use harmony_dcc_baselines::ProtocolBlockResult;
use harmony_shard::{ShardBlockResult, ShardGroup};

/// Virtual-time profile of one executed block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockSchedule {
    /// Makespan of the parallel simulation step on `W` cores.
    pub sim_ns: u64,
    /// Makespan of the commit step (serial sum or parallel makespan).
    pub commit_ns: u64,
    /// Centralized ordering-service work (FastFabric# graph traversal).
    pub orderer_ns: u64,
    /// Total CPU-work in the block (for utilization accounting).
    pub work_ns: u64,
    /// CPU-work of the pre-commit stage (orderer + simulation).
    pub pre_work_ns: u64,
    /// CPU-work of the commit stage.
    pub commit_work_ns: u64,
}

impl BlockSchedule {
    /// Non-pipelined wall time of the block.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.orderer_ns + self.sim_ns + self.commit_ns
    }
}

/// Greedy list-scheduling makespan: tasks assigned in index order to the
/// least-loaded of `workers` cores. Deterministic; within 2× of optimal
/// (Graham's bound), which is plenty for shape-level reproduction.
///
/// # Panics
/// If `workers` is 0; `run_experiment` refuses such a configuration,
/// flat or sharded, before running a block.
#[must_use]
pub fn makespan(tasks: &[u64], workers: usize) -> u64 {
    assert!(workers > 0);
    let mut load = vec![0u64; workers];
    for &t in tasks {
        let min = load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .expect("workers > 0");
        load[min] += t;
    }
    load.into_iter().max().unwrap_or(0)
}

/// Schedule one block's costs onto `workers` cores.
#[must_use]
pub fn schedule_block(
    result: &ProtocolBlockResult,
    workers: usize,
    commit_serial: bool,
) -> BlockSchedule {
    let sim_ns = makespan(&result.sim_ns, workers);
    let commit_ns = if commit_serial {
        result.commit_ns.iter().sum()
    } else {
        makespan(&result.commit_ns, workers)
    };
    let sim_work: u64 = result.sim_ns.iter().sum();
    let commit_work: u64 = result.commit_ns.iter().sum();
    BlockSchedule {
        sim_ns,
        commit_ns,
        orderer_ns: result.orderer_ns,
        work_ns: sim_work + commit_work + result.orderer_ns,
        pre_work_ns: sim_work + result.orderer_ns,
        commit_work_ns: commit_work,
    }
}

/// [`schedule_block`] of a block `chain` executed, on the chain's workers
/// and commit discipline, plus its group commit: one block-log write +
/// sync, serial after the commit step.
fn logged_schedule(chain: &OeChain, result: &ProtocolBlockResult) -> BlockSchedule {
    let serial = chain.dcc().commit_is_serial();
    let mut sched = schedule_block(result, chain.spec().workers, serial);
    let log_sync_ns = chain.config().storage.disk_profile.sync_ns;
    sched.commit_ns += log_sync_ns;
    sched.commit_work_ns += log_sync_ns;
    sched.work_ns += log_sync_ns;
    sched
}

/// Total wall time of a sequence of blocks.
///
/// * `depth = 1`: strictly sequential — `Σ (orderer + sim + commit)`.
/// * `depth = 2` (inter-block parallelism): block `i+1`'s pre-commit stage
///   (orderer + simulation) overlaps block `i`'s commit on the *same* `W`
///   worker cores, so each overlapped step takes
///   `max(Bᵢ, Aᵢ₊₁, (work(Bᵢ) + work(Aᵢ₊₁)) / W)` — the capacity term
///   keeps utilization physical while still hiding stragglers.
#[must_use]
pub fn pipeline_total_ns(blocks: &[BlockSchedule], depth: usize, workers: usize) -> u64 {
    if blocks.is_empty() {
        return 0;
    }
    match depth {
        0 | 1 => blocks.iter().map(BlockSchedule::total_ns).sum(),
        _ => {
            let a = |b: &BlockSchedule| b.orderer_ns + b.sim_ns;
            let mut total = a(&blocks[0]);
            for w in blocks.windows(2) {
                let capacity = (w[0].commit_work_ns + w[1].pre_work_ns).div_ceil(workers as u64);
                total += w[0].commit_ns.max(a(&w[1])).max(capacity);
            }
            total += blocks.last().expect("non-empty").commit_ns;
            total
        }
    }
}

/// The virtual-time price of each block a host executes, and the totals.
///
/// A chain's block ([`Self::chain_block`]) is its logged schedule
/// appended to the chain's inter-block pipeline: it costs how much it
/// extends the pipeline-aware makespan ([`pipeline_total_ns`]) of the
/// blocks since the last [`Self::reset`], so the charges add up to that
/// makespan exactly. A shard group's block ([`Self::group_block`]) costs
/// its cross stage — the fragment exchange, then the multi-partition
/// re-simulation, in lockstep on all shards — plus the slowest shard's
/// logged schedule; sharded-profile engines have pipeline depth 1, so
/// group blocks are charged back to back.
#[derive(Debug, Default)]
pub struct BlockCharge {
    /// The previous chain block: the makespan couples a block only to it.
    last: Option<BlockSchedule>,
    wall_ns: u64,
    work_ns: u64,
}

impl BlockCharge {
    /// Charge the block `chain` just executed; returns its virtual ns.
    pub fn chain_block(&mut self, chain: &OeChain, result: &ProtocolBlockResult) -> u64 {
        let sched = logged_schedule(chain, result);
        self.extend(sched, chain.dcc().pipeline_depth(), chain.spec().workers)
    }

    /// Append `sched` to the pipeline: the charge is `pipeline_total_ns`
    /// of the blocks so far minus that of the blocks before this one.
    fn extend(&mut self, sched: BlockSchedule, depth: usize, workers: usize) -> u64 {
        let cost_ns = match self.last.replace(sched) {
            None => pipeline_total_ns(&[sched], depth, workers),
            Some(prev) => {
                pipeline_total_ns(&[prev, sched], depth, workers)
                    - pipeline_total_ns(&[prev], depth, workers)
            }
        };
        self.add(cost_ns, sched.work_ns)
    }

    /// Charge the block `group` just executed; returns its virtual ns.
    pub fn group_block(&mut self, group: &ShardGroup, result: &ShardBlockResult) -> u64 {
        let chains = group.chains();
        let slowest = (chains.iter().zip(&result.shard_results))
            .map(|(chain, r)| logged_schedule(chain, r).total_ns())
            .max()
            .unwrap_or(0);
        let cross_ns =
            result.exchange_ns + makespan(&result.cross_sim_ns, chains[0].spec().workers);
        let log_sync_ns: u64 = (chains.iter())
            .map(|c| c.config().storage.disk_profile.sync_ns)
            .sum();
        let work_ns = result.stats.sim_ns_total + result.stats.commit_ns_total + log_sync_ns;
        self.add(cross_ns + slowest, work_ns)
    }

    fn add(&mut self, cost_ns: u64, work_ns: u64) -> u64 {
        self.wall_ns += cost_ns;
        self.work_ns += work_ns;
        cost_ns
    }

    /// Forget the pipeline: the next chain block starts a fresh one.
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Virtual wall time of every block charged so far.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// CPU-work of every block charged so far (utilization accounting).
    #[must_use]
    pub fn work_ns(&self) -> u64 {
        self.work_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_balances() {
        assert_eq!(makespan(&[10, 10, 10, 10], 2), 20);
        assert_eq!(makespan(&[40, 10, 10, 10], 2), 40);
        assert_eq!(makespan(&[5; 8], 8), 5);
        assert_eq!(makespan(&[], 4), 0);
    }

    #[test]
    fn makespan_single_worker_is_sum() {
        assert_eq!(makespan(&[3, 4, 5], 1), 12);
    }

    fn sched(sim: u64, commit: u64, orderer: u64) -> BlockSchedule {
        BlockSchedule {
            sim_ns: sim,
            commit_ns: commit,
            orderer_ns: orderer,
            work_ns: sim + commit + orderer,
            pre_work_ns: sim + orderer,
            commit_work_ns: commit,
        }
    }

    #[test]
    fn sequential_pipeline_is_sum() {
        let blocks = vec![sched(10, 5, 0), sched(10, 5, 0)];
        assert_eq!(pipeline_total_ns(&blocks, 1, 8), 30);
    }

    #[test]
    fn depth2_overlaps_sim_with_commit() {
        // A=10, B=5 each: total = 10 + max(5,10) + 5 = 25 < 30.
        let blocks = vec![sched(10, 5, 0), sched(10, 5, 0)];
        assert_eq!(pipeline_total_ns(&blocks, 2, 8), 25);
    }

    #[test]
    fn depth2_straggler_hidden() {
        // Block 1 has a straggler-heavy commit (20); block 2's sim (15)
        // hides inside it.
        let blocks = vec![sched(10, 20, 0), sched(15, 5, 0)];
        // Sequential: 10+20+15+5 = 50. Pipelined: 10 + max(20,15) + 5 = 35.
        assert_eq!(pipeline_total_ns(&blocks, 1, 8), 50);
        assert_eq!(pipeline_total_ns(&blocks, 2, 8), 35);
    }

    #[test]
    fn orderer_stage_counts_in_prestage() {
        let blocks = vec![sched(10, 5, 7), sched(10, 5, 7)];
        assert_eq!(pipeline_total_ns(&blocks, 1, 8), 44);
        assert_eq!(pipeline_total_ns(&blocks, 2, 8), 17 + 17 + 5);
    }

    #[test]
    fn depth2_capacity_bounds_overlap() {
        // One worker: the overlap cannot exceed physical capacity —
        // utilization stays ≤ 1.
        let blocks = vec![sched(10, 10, 0), sched(10, 10, 0)];
        let wall = pipeline_total_ns(&blocks, 2, 1);
        let work: u64 = blocks.iter().map(|b| b.work_ns).sum();
        assert!(wall >= work, "wall {wall} < work {work}");
    }

    #[test]
    fn pipeline_charge_is_the_difference_of_successive_prefix_totals() {
        let mut rng = harmony_common::DetRng::new(17);
        let mut random_schedule = || {
            let mut ns = || rng.next_u64() % 50_000;
            let (sim_ns, commit_ns, orderer_ns) = (ns(), ns(), ns());
            // CPU-work is at least the makespan and can be several cores' worth.
            let (pre_work_ns, commit_work_ns) = (orderer_ns + sim_ns + ns(), commit_ns + ns());
            BlockSchedule {
                sim_ns,
                commit_ns,
                orderer_ns,
                work_ns: pre_work_ns + commit_work_ns,
                pre_work_ns,
                commit_work_ns,
            }
        };
        for depth in [1, 2] {
            for workers in [1, 2, 8] {
                let mut charge = BlockCharge::default();
                // Three pipelines back to back, as after a replica's
                // `wipe_for_resync`, `crash` and a manifest landing.
                for run in [40, 1, 25] {
                    let mut applied: Vec<BlockSchedule> = Vec::new();
                    for _ in 0..run {
                        let before = pipeline_total_ns(&applied, depth, workers);
                        applied.push(random_schedule());
                        let after = pipeline_total_ns(&applied, depth, workers);
                        let sched = *applied.last().unwrap();
                        assert_eq!(
                            charge.extend(sched, depth, workers),
                            after - before,
                            "depth {depth}, {workers} workers, block {}",
                            applied.len()
                        );
                    }
                    charge.reset();
                }
            }
        }
    }

    /// The group case: a group's block is its cross stage in front of the
    /// slowest shard, each shard priced as a chain block on a fresh
    /// pipeline (the sharded profile has depth 1, so that is all of it),
    /// and the charges are the differences of the running total.
    #[test]
    fn group_charge_is_the_cross_stage_before_the_slowest_chain_charge() {
        use harmony_chain::ChainConfig;
        use harmony_common::DetRng;
        use harmony_consensus::net::LatencyModel;
        use harmony_dcc_baselines::{EngineKind, EngineSpec};
        use harmony_shard::{Partitioning, ShardRouter};
        use harmony_storage::{DiskProfile, StorageConfig};
        use harmony_workloads::{Smallbank, SmallbankConfig, Workload};

        let workers = 2;
        let config = ChainConfig {
            storage: StorageConfig {
                disk_profile: DiskProfile {
                    sync_ns: 7_000,
                    ..DiskProfile::memory()
                },
                ..StorageConfig::memory()
            },
            checkpoint_every: 0,
            ..ChainConfig::in_memory()
        };
        for kind in EngineKind::ALL {
            let spec = EngineSpec::sharded(kind, workers);
            let chains = (0..2)
                .map(|_| OeChain::open(config.clone(), spec).unwrap())
                .collect();
            let router = ShardRouter::new(Partitioning::Hash.build(8), 2);
            let mut group = ShardGroup::new(router, chains, LatencyModel::lan_1g());
            let mut w = Smallbank::new(SmallbankConfig {
                accounts: 200,
                theta: 0.5,
                partitions: 8,
                multi_partition_ratio: 0.3,
            });
            group
                .setup_with(&[], |e| {
                    w.setup(e)?;
                    Ok(w.codec())
                })
                .unwrap();
            let mut rng = DetRng::new(3);
            let (mut charge, mut cross) = (BlockCharge::default(), 0);
            for _ in 0..6 {
                let result = group.execute_block(&w.next_block(&mut rng, 16)).unwrap();
                cross += result.cross_txns;
                let before = charge.wall_ns();
                let cost = charge.group_block(&group, &result);
                assert_eq!(charge.wall_ns() - before, cost, "{}", kind.name());
                let slowest = (group.chains().iter().zip(&result.shard_results))
                    .map(|(chain, r)| {
                        assert!(chain.dcc().pipeline_depth() <= 1, "{}", kind.name());
                        BlockCharge::default().chain_block(chain, r)
                    })
                    .max()
                    .unwrap();
                let cross_ns = result.exchange_ns + makespan(&result.cross_sim_ns, workers);
                assert_eq!(cost, cross_ns + slowest, "{}", kind.name());
            }
            assert!(cross > 0, "{}: the stream must cross shards", kind.name());
        }
    }
}
