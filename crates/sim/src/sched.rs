//! Deterministic task scheduling on virtual worker cores.

use harmony_dcc_baselines::ProtocolBlockResult;
use harmony_shard::ShardBlockResult;

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
/// If `workers` is 0; `run_experiment` and `run_sharded_experiment` refuse
/// such a configuration before running a block.
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

/// [`schedule_block`] plus the block's group commit: one block-log write +
/// sync per block, serial after the commit step. What a flat replica and the experiment
/// driver feed to [`pipeline_total_ns`].
#[must_use]
pub fn schedule_logged_block(
    result: &ProtocolBlockResult,
    workers: usize,
    commit_serial: bool,
    log_sync_ns: u64,
) -> BlockSchedule {
    let mut sched = schedule_block(result, workers, commit_serial);
    sched.commit_ns += log_sync_ns;
    sched.commit_work_ns += log_sync_ns;
    sched.work_ns += log_sync_ns;
    sched
}

/// Wall time of one block on a sharded replica. The cross stage runs in
/// lockstep on all shards: the read-fragment exchange, then the
/// deterministic re-simulation of the multi-partition transactions. Then
/// every shard executes its sub-block concurrently and pays its own
/// group-commit log sync, so the block costs the slowest shard. The
/// sharded profile has no inter-block pipeline: blocks are charged
/// back-to-back.
#[must_use]
pub fn sharded_block_ns(
    block: &ShardBlockResult,
    workers: usize,
    commit_serial: bool,
    log_sync_ns: u64,
) -> u64 {
    let shard_stage = block
        .shard_results
        .iter()
        .map(|r| schedule_block(r, workers, commit_serial).total_ns() + log_sync_ns)
        .max()
        .unwrap_or(0);
    block.exchange_ns + makespan(&block.cross_sim_ns, workers) + shard_stage
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
}
