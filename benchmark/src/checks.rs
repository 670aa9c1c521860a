//! Correctness checks (`[ok]`/`[fail]`, folded into the exit code) and
//! expected shares (`[note]`, reported only).
//!
//! An *input property* depends on configuration and seed alone; it is
//! asserted, so a workload cannot silently turn into a copy of another.
//! An *expected share* depends on how fast the layers are; it never
//! fails the run, so an optimisation cannot break the benchmark it is
//! measured by.

use std::collections::BTreeMap;

use crate::cluster::Episode;
use crate::stats::median;
use crate::workloads::Spec;

/// Fully sent blocks a paced phase may leave unapplied at its last send
/// (the median over the episodes) before the run counts as overloaded.
const MAX_END_BACKLOG_BLOCKS: f64 = 1.0;

/// Check results and notes, printed as they are made.
#[derive(Default)]
pub struct Verdict {
    pub failed_checks: u32,
}

impl Verdict {
    /// A correctness check: folds into the exit code.
    pub fn check(&mut self, ok: bool, what: &str) {
        println!("[{}] {what}", if ok { "ok" } else { "fail" });
        self.failed_checks += u32::from(!ok);
    }

    /// An expected share: reported, never fails the run.
    pub fn note(&self, holds: bool, what: &str) {
        let verdict = if holds { "holds" } else { "DOES NOT HOLD" };
        println!("[note] {what}: {verdict}");
    }
}

/// What every episode of every workload must satisfy, plus the input
/// properties that the live cluster's own counters can show.
pub fn check_episodes(spec: &Spec, episodes: &[Episode], commit_share: &[f64], v: &mut Verdict) {
    let all = |f: &dyn Fn(&Episode) -> bool| episodes.iter().all(f);
    v.check(
        all(&|e| {
            e.statuses
                .iter()
                .all(|s| s.height == e.measured_blocks && s.state == "up")
        }),
        "every replica at the expected height",
    );
    v.check(
        all(&|e| {
            let first = &e.statuses[0];
            !first.root.is_empty()
                && e.statuses.iter().all(|s| {
                    s.root == first.root
                        && s.logical_root == first.logical_root
                        && s.committed_txns == first.committed_txns
                })
        }),
        "identical root, logical root and committed count on every replica",
    );
    v.check(
        all(&|e| {
            let c = &e.counters;
            c.committed + c.aborted() == (e.measured_blocks as usize * spec.block_txns) as f64
                && c.committed == e.statuses[0].committed_txns as f64
        }),
        "committed + aborted = ordered at replica 0",
    );
    v.check(
        all(&|e| e.orderer.sealed_blocks == e.measured_blocks && e.orderer.mempool_len == 0),
        "orderer sealed every block and its mempool is empty",
    );
    v.check(
        all(&|e| {
            let c = &e.counters;
            c.dropped_frames == 0.0 && c.decode_errors == 0.0 && c.node_errors == 0.0
        }),
        "no dropped frame, decode error or node error",
    );
    v.check(
        all(&|e| e.counters.mempool_rejected == 0.0),
        "no mempool reject",
    );
    v.check(
        all(&|e| e.counters.reconnects == e.counters.reconnects_at_setup),
        "no reconnect after setup",
    );
    let backlogs: Vec<f64> = episodes
        .iter()
        .map(|e| e.paced.end_backlog_blocks as f64)
        .collect();
    v.check(
        median(&backlogs) <= MAX_END_BACKLOG_BLOCKS,
        &format!("paced phases end without a growing backlog (blocks left: {backlogs:?})"),
    );
    v.check(
        commit_share.iter().all(|c| *c == commit_share[0])
            && all(&|e| e.statuses[0].root == episodes[0].statuses[0].root),
        "commit_share and state root identical across the episodes",
    );
    if let Some(fault) = episodes.last().and_then(|e| e.fault.as_ref()) {
        v.check(
            fault.roots_match && fault.sync_blocks > 0,
            &format!(
                "crashed replica rejoined in {:.1} ms over {} synced blocks, on replica 0's root",
                fault.rejoin_ms, fault.sync_blocks
            ),
        );
    }

    // Input properties the replicas' own counters show.
    if spec.shards > 0 {
        v.check(
            all(&|e| (0.18..=0.24).contains(&e.counters.cross_txn_share())),
            "input: shard.cross_txn_share within 0.18–0.24",
        );
    } else {
        v.check(
            all(&|e| e.counters.cross_txns + e.counters.single_txns == 0.0),
            "input: no transaction went through the shard planner",
        );
    }
    if spec.read_only {
        v.check(
            all(&|e| e.counters.aborted() == 0.0),
            "input: core.abort_rate = 0",
        );
    }
}

/// Input properties and expected shares that need the twin's numbers.
pub fn check_layers(spec: &Spec, m: &BTreeMap<&'static str, f64>, v: &mut Verdict) {
    let get = |name: &str| m[name];
    match spec.name {
        "smallbank-cached" => {
            v.check(
                get("storage.pool.hit_rate") == 1.0,
                "input: storage.pool.hit_rate = 1",
            );
            v.check(
                get("storage.disk_reads_per_txn") == 0.0,
                "input: storage.disk_reads_per_txn = 0",
            );
            v.note(get("replay.exec_share") >= 0.8, "replay.exec_share ≥ 0.8");
        }
        "smallbank-outofpool" => {
            v.check(
                get("storage.state_to_pool_ratio") >= 20.0,
                "input: storage.state_to_pool_ratio ≥ 20",
            );
            v.note(
                get("storage.pool.hit_rate") <= 0.8,
                "storage.pool.hit_rate ≤ 0.8",
            );
            v.note(
                get("storage.disk_reads_per_txn") >= 3.0,
                "storage.disk_reads_per_txn ≥ 3",
            );
        }
        "ycsb-skew-sharded" => {
            v.note(get("core.abort_rate") >= 0.2, "core.abort_rate ≥ 0.2");
        }
        "bft-tinytxn" => {
            v.note(get("replay.exec_share") <= 0.4, "replay.exec_share ≤ 0.4");
            v.note(
                get("transport.tcp.frames_out_per_block") >= 20.0,
                "transport.tcp.frames_out_per_block ≥ 20",
            );
        }
        _ => {}
    }
    if spec.read_only {
        v.check(
            get("chain.commit.keys_per_block") == 0.0,
            "input: chain.commit.keys_per_block = 0",
        );
    }
    if spec.shards == 0 {
        v.check(
            [
                "shard.plan_us_per_block",
                "shard.decide_cross_us_per_block",
                "shard.cross_txn_share",
                "node.sharded.deliver_us_per_block",
            ]
            .iter()
            .all(|n| get(n) == 0.0),
            "input: shard metrics read 0 on a flat workload",
        );
    }
    let deliver = get("node.replica.deliver_us_per_block");
    let remainder = get("node.replica.self_us_per_block").abs() / deliver;
    v.note(
        remainder <= 0.05,
        &format!(
            "unexplained remainder of deliver is {:.1} % (≤ 5 %)",
            remainder * 100.0
        ),
    );
    v.note(
        get("observer.poll_cost_share") <= 0.01,
        "observer.poll_cost_share ≤ 0.01",
    );
    v.note(
        get("generator.late_share_1ms") <= 0.01,
        "generator.late_share_1ms ≤ 0.01",
    );
    v.note(
        get("paced.end_backlog_blocks") <= 1.0,
        "paced.end_backlog_blocks ≤ 1",
    );
}
