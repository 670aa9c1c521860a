//! The per-layer metrics of a traced run: the twin's replays, the live
//! cluster's counters, and the harness's account of itself.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::checks::{check_layers, Verdict};
use crate::run::Live;
use crate::stats::{median, percentile, relative_range};
use crate::trace::Recorder;
use crate::{twin, Res};

/// Spans of the decomposed replay whose cost follows what the block's
/// transactions do: decode them, plan them across shards, simulate and
/// commit them, fold the keys they wrote into the state commitment.
/// Their share of deliver is `replay.exec_share`.
const PER_TXN_SPANS: [&str; 5] = [
    "txn.codec.decode",
    "shard.plan",
    "core.executor.simulate",
    "core.executor.commit",
    "chain.commit.fold",
];

/// Spans that cost the same whatever a block holds: what a smaller block
/// pays more of per transaction. Their share is `replay.per_block_share`.
const PER_BLOCK_SPANS: [&str; 8] = [
    "chain.block.verify",
    "chain.block.seal",
    "storage.log.append",
    "storage.checkpoint",
    "chain.commit.root",
    "core.snapshot.gc",
    "shard.fold_outcomes",
    "node.replica.account",
];

/// Turns each of the twin's replays takes over the ordered stream.
const REPLAY_TURNS: usize = 64;

#[allow(clippy::too_many_lines)]
pub fn per_layer(
    live: &Live<'_>,
    out_dir: &Path,
    v: &mut Verdict,
) -> Res<BTreeMap<&'static str, f64>> {
    let (spec, cfg, episodes) = (live.spec, live.cfg, live.episodes);
    let last = episodes.last().ok_or("a run has at least one episode")?;
    let ordered = twin::order(cfg, live.trace)?;
    let blocks = ordered.blocks.len() as u64;
    let txns = ordered.txns;
    // The three replays take turns over stretches of the stream, so
    // that a slow minute of the host slows all of them alike and their
    // differences (the unexplained remainder, the tracing overhead) are
    // differences of the code.
    let mut whole = twin::WholeReplay::open(cfg)?;
    let mut apart = twin::ApartReplay::open(cfg, false)?;
    let mut traced = twin::ApartReplay::open(cfg, true)?;
    for stretch in ordered
        .blocks
        .chunks(ordered.blocks.len().div_ceil(REPLAY_TURNS))
    {
        whole.run(stretch)?;
        apart.run(stretch)?;
        traced.run(stretch)?;
    }
    let (whole, apart, traced) = (whole.finish(cfg)?, apart.finish()?, traced.finish()?);
    let micro = twin::micro(cfg);

    fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("trace-{}.json", spec.name));
    fs::write(&path, traced.rec.to_json(spec.name))?;
    println!(
        "# {} spans written to {}",
        traced.rec.spans().len(),
        path.display()
    );

    v.check(
        last.final_height == blocks,
        "the twin ordered as many blocks as the cluster applied",
    );
    v.check(
        whole.root == last.final_root,
        "whole-deliver twin ends on the cluster's root",
    );
    v.check(
        apart.root == last.final_root && traced.root == last.final_root,
        "decomposed twin ends on the cluster's root, traced and untraced",
    );
    if spec.shards > 0 {
        v.check(
            apart.decisions_agree,
            "decide_cross alone reproduces the planner's decisions",
        );
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let per_block = |rec: &Recorder, name: &str| rec.us_per(name, blocks);
    let ns_per_txn = |rec: &Recorder, name: &str| rec.us_per(name, txns) * 1e3;
    let o = &ordered.rec;
    let a = &apart.rec;

    // Executor and aborts.
    let s = whole.stats;
    let share = |n: usize| n as f64 / s.txns.max(1) as f64;
    let commit_us = a.us_per("core.executor.commit", txns);
    let simulate_us = a.us_per("core.executor.simulate", txns);
    m.insert("core.executor.commit_us_per_txn", commit_us);
    m.insert("core.executor.simulate_us_per_txn", simulate_us);
    m.insert("core.abort_rate", s.abort_rate());
    m.insert("core.abort_share.rule1", share(s.aborted_rule1));
    m.insert("core.abort_share.interblock", share(s.aborted_interblock));
    m.insert("core.abort_share.cross_shard", share(s.aborted_cross_shard));
    m.insert("core.abort_share.user", share(s.user_aborted));

    // Commitment, block handling, crypto.
    m.insert(
        "chain.commit.fold_us_per_block",
        per_block(a, "chain.commit.fold"),
    );
    m.insert(
        "chain.commit.keys_per_block",
        apart.keys_folded as f64 / blocks as f64,
    );
    m.insert("chain.commit.build_ms", whole.build_ms);
    m.insert("chain.block.seal_us_per_block", per_block(o, "block.seal"));
    m.insert(
        "chain.block.verify_us_per_block",
        per_block(a, "chain.block.verify"),
    );
    m.insert("crypto.authmap.upsert_us", micro.authmap_upsert_us);
    m.insert(
        "crypto.merkle.build_us_per_block",
        per_block(o, "merkle.build"),
    );
    m.insert("crypto.sign_verify_us", micro.sign_verify_us);
    m.insert("crypto.sha256_ns_per_byte", micro.sha256_ns_per_byte);

    // Storage, counted over the ordered stream.
    let pool = whole.io.pool;
    let lookups = (pool.hits + pool.misses).max(1) as f64;
    let ktxns = txns as f64 / 1e3;
    m.insert("storage.engine.get_us", whole.get_us);
    m.insert("storage.engine.put_us", whole.put_us);
    m.insert("storage.pool.hit_rate", pool.hits as f64 / lookups);
    m.insert(
        "storage.disk_reads_per_txn",
        whole.io.disk_reads as f64 / txns as f64,
    );
    m.insert(
        "storage.pool.evict_writebacks_per_ktxn",
        pool.evict_writebacks as f64 / ktxns,
    );
    m.insert(
        "storage.pool.flush_writebacks_per_ktxn",
        pool.flush_writebacks as f64 / ktxns,
    );
    m.insert(
        "storage.state_to_pool_ratio",
        whole.state_pages as f64 / whole.pool_pages as f64,
    );
    m.insert("storage.genesis_load_ms", whole.genesis_load_ms);
    m.insert(
        "storage.log.append_us_per_block",
        per_block(a, "storage.log.append"),
    );
    let checkpoints = a.total("storage.checkpoint");
    m.insert(
        "storage.checkpoint_ms",
        checkpoints.ns as f64 / 1e6 / checkpoints.count.max(1) as f64,
    );
    m.insert("storage.checkpoint_count", checkpoints.count as f64);

    // Sharding: planner counters from the live cluster, times from (b).
    let c = &last.counters;
    m.insert("shard.plan_us_per_block", per_block(a, "shard.plan"));
    m.insert(
        "shard.decide_cross_us_per_block",
        per_block(a, "shard.decide_cross"),
    );
    m.insert("shard.cross_txn_share", c.cross_txn_share());
    m.insert(
        "shard.cross_survivor_share",
        if c.cross_txns > 0.0 {
            c.cross_survivors / c.cross_txns
        } else {
            0.0
        },
    );
    m.insert(
        "node.sharded.deliver_us_per_block",
        per_block(&whole.rec, "node.sharded.deliver"),
    );

    // Transport: counters of the measured phases, the twin's wire times.
    let measured_txns = (last.measured_blocks as usize * spec.block_txns) as f64;
    let cluster_cpu_us_per_txn =
        median(&live.per_episode(|e| e.paced.cpu_s * 1e6 / e.paced.ordered as f64));
    let replay_cpu_us_per_txn = whole.cpu_s * 1e6 / txns as f64;
    m.insert(
        "transport.tcp.frames_out_per_block",
        c.frames_out / last.measured_blocks as f64,
    );
    m.insert(
        "transport.tcp.bytes_out_per_txn",
        c.bytes_out / measured_txns,
    );
    m.insert(
        "transport.tcp.overhead_us_per_txn",
        cluster_cpu_us_per_txn - spec.replicas as f64 * replay_cpu_us_per_txn,
    );
    m.insert("transport.tcp.dropped_frames", c.dropped_frames);
    m.insert("transport.tcp.decode_errors", c.decode_errors);
    m.insert("transport.tcp.reconnects", c.reconnects);
    m.insert(
        "transport.wire.deliver_encode_us_per_block",
        per_block(o, "wire.deliver_encode"),
    );
    m.insert(
        "transport.wire.deliver_decode_us_per_block",
        per_block(o, "wire.deliver_decode"),
    );
    m.insert(
        "transport.wire.deliver_bytes_per_block",
        ordered.deliver_frame_bytes as f64 / blocks as f64,
    );
    m.insert(
        "transport.wire.submit_encode_ns_per_txn",
        ns_per_txn(o, "wire.submit_encode"),
    );
    m.insert(
        "transport.wire.submit_decode_ns_per_txn",
        ns_per_txn(o, "wire.submit_decode"),
    );

    // Orderer front end, codec, generation.
    m.insert(
        "node.mempool.admit_ns_per_txn",
        ns_per_txn(o, "mempool.submit"),
    );
    m.insert(
        "node.mempool.batch_us_per_block",
        per_block(o, "mempool.next_batch"),
    );
    m.insert(
        "node.mempool.rejected",
        ordered.mempool_rejected as f64 + c.mempool_rejected,
    );
    m.insert("txn.codec.encode_ns_per_txn", ns_per_txn(o, "txn.encode"));
    m.insert("txn.codec.decode_ns_per_txn", ns_per_txn(o, "txn.decode"));
    m.insert(
        "txn.codec.bytes_per_txn",
        ordered.contract_bytes as f64 / txns as f64,
    );
    m.insert("workloads.gen_us_per_txn", live.gen_us_per_txn);

    // The replica as a whole: (a) against the sum of (b)'s parts.
    let deliver_span = if spec.shards > 0 {
        "node.sharded.deliver"
    } else {
        "node.replica.deliver"
    };
    let whole_us = per_block(&whole.rec, deliver_span);
    let apart_us = per_block(a, deliver_span);
    let parts_us = a.total(deliver_span).child_ns as f64 / 1e3 / blocks as f64;
    let exec_us: f64 = PER_TXN_SPANS.iter().map(|n| per_block(a, n)).sum();
    let per_block_us: f64 = PER_BLOCK_SPANS.iter().map(|n| per_block(a, n)).sum();
    m.insert("node.replica.deliver_us_per_block", whole_us);
    m.insert("node.replica.self_us_per_block", whole_us - parts_us);
    m.insert("replay.cpu_us_per_txn", replay_cpu_us_per_txn);
    m.insert("replay.tps_single_thread", txns as f64 / whole.wall_s);
    m.insert("replay.exec_share", exec_us / apart_us);
    m.insert("replay.per_block_share", per_block_us / apart_us);
    m.insert("replay.total_s_untraced", apart.wall_s);
    m.insert(
        "replay.trace_overhead_share",
        (traced.wall_s - apart.wall_s) / apart.wall_s,
    );
    m.insert("metrics.render_us", micro.metrics_render_us);
    m.insert("metrics.counter_inc_ns", micro.counter_inc_ns);

    // State sync.
    let fault = last.fault.clone().unwrap_or_default();
    m.insert("node.statesync.rejoin_ms", fault.rejoin_ms);
    m.insert("node.statesync.manifest_bytes", fault.manifest_bytes);
    m.insert("node.statesync.range_bytes", fault.range_bytes);
    m.insert("node.statesync.sync_blocks", fault.sync_blocks as f64);

    // Harness health.
    let sum = |f: &dyn Fn(&crate::cluster::Episode) -> f64| episodes.iter().map(f).sum::<f64>();
    let paced_txns = sum(&|e| e.paced.ordered as f64);
    let paced_wall = sum(&|e| e.paced.wall_s);
    let paced_polls = sum(&|e| e.paced.polls as f64);
    let polls = paced_polls + sum(&|e| e.sat.polls as f64);
    let phases_wall = paced_wall + sum(&|e| e.sat.wall_s);
    let poll_cost_us = last
        .poll_cost_us
        .ok_or("a traced run's last episode measures the cost of a poll")?;
    let pooled = |f: &dyn Fn(&crate::cluster::Episode) -> &Vec<f64>| -> Vec<f64> {
        episodes.iter().flat_map(|e| f(e).iter().copied()).collect()
    };
    let latency_ms = pooled(&|e| &e.paced.latency_ms);
    m.insert(
        "generator.max_late_ms",
        episodes
            .iter()
            .map(|e| e.paced.max_late_ms)
            .fold(0.0, f64::max),
    );
    m.insert(
        "generator.late_share_1ms",
        sum(&|e| e.paced.late_over_1ms as f64) / paced_txns,
    );
    m.insert(
        "generator.cpu_share",
        sum(&|e| e.paced.generator_cpu_s) / paced_wall,
    );
    m.insert(
        "observer.poll_period_ms",
        paced_wall * 1e3 / paced_polls.max(1.0),
    );
    println!("# one observer poll costs the nodes {poll_cost_us:.1} us of CPU ({polls} polls)");
    m.insert(
        "observer.poll_cost_share",
        polls * poll_cost_us / 1e6 / phases_wall,
    );
    m.insert("observer.latency_samples", latency_ms.len() as f64);
    m.insert(
        "observer.commit_latency_p99_ms",
        percentile(&latency_ms, 99.0),
    );
    m.insert(
        "observer.seal_to_commit_p50_ms",
        median(&pooled(&|e| &e.paced.seal_to_commit_ms)),
    );
    m.insert(
        "observer.failed_share",
        live.failed as f64 / live.attempted as f64,
    );
    m.insert(
        "sat.replica_lag_blocks_max",
        episodes
            .iter()
            .map(|e| e.sat.replica_lag_blocks_max)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert(
        "paced.end_backlog_blocks",
        median(&live.per_episode(|e| e.paced.end_backlog_blocks as f64)),
    );
    m.insert("episodes.tps_spread", relative_range(&live.sat_tps()));
    m.insert(
        "episodes.setup_spread",
        relative_range(&live.per_episode(|e| e.setup_s)),
    );

    check_layers(spec, &m, v);
    Ok(m)
}
