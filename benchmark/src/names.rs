//! Every metric the benchmark emits: name, unit, which way is better.
//!
//! The emitter walks these tables, so a value that is not listed cannot
//! be printed and a listed one that was not measured is an error; a unit
//! test holds the tables equal to `BENCHMARK.json`.

/// `(name, unit, better, bound)`: what a user of the cluster sees. The
/// same seven on every workload; `bound` is the share of the parent's
/// median a metric may worsen by before a change counts as a regression.
///
/// The timed metrics carry the widest bound the contract allows. On a
/// quiet host their run-to-run spread is 1–8 % (NOISE.md), a third of the
/// bound or less; but other tenants slow this 2-vCPU host by up to a
/// quarter for minutes at a time, which no statistic inside a 25-second
/// run can remove, and a tighter bound would reject changes for the
/// host's weather. `commit_share` repeats exactly for one seed; its bound
/// covers the spread *across* seeds, which is how the acceptance runs are
/// made.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("committed_tps", "txn/s", "higher", 0.25),
    ("commit_latency_p50_ms", "ms", "lower", 0.25),
    ("commit_latency_p95_ms", "ms", "lower", 0.25),
    ("commit_share", "share", "higher", 0.05),
    ("cpu_s_per_ktxn", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: single layers, timed from the benchmark's own
/// files around public functions or read from the live cluster.
pub const PER_LAYER: [(&str, &str, &str); 77] = [
    // Executor.
    ("core.executor.commit_us_per_txn", "us", "lower"),
    ("core.executor.simulate_us_per_txn", "us", "lower"),
    ("core.abort_rate", "share", "lower"),
    ("core.abort_share.rule1", "share", "lower"),
    ("core.abort_share.interblock", "share", "lower"),
    ("core.abort_share.cross_shard", "share", "lower"),
    ("core.abort_share.user", "share", "lower"),
    // State commitment and block handling.
    ("chain.commit.fold_us_per_block", "us", "lower"),
    ("chain.commit.keys_per_block", "count", "lower"),
    ("chain.commit.build_ms", "ms", "lower"),
    ("chain.block.seal_us_per_block", "us", "lower"),
    ("chain.block.verify_us_per_block", "us", "lower"),
    // Crypto.
    ("crypto.authmap.upsert_us", "us", "lower"),
    ("crypto.merkle.build_us_per_block", "us", "lower"),
    ("crypto.sign_verify_us", "us", "lower"),
    ("crypto.sha256_ns_per_byte", "ns", "lower"),
    // Storage.
    ("storage.engine.get_us", "us", "lower"),
    ("storage.engine.put_us", "us", "lower"),
    ("storage.pool.hit_rate", "share", "higher"),
    ("storage.disk_reads_per_txn", "count", "lower"),
    ("storage.pool.evict_writebacks_per_ktxn", "count", "lower"),
    ("storage.pool.flush_writebacks_per_ktxn", "count", "lower"),
    ("storage.state_to_pool_ratio", "ratio", "lower"),
    ("storage.genesis_load_ms", "ms", "lower"),
    ("storage.log.append_us_per_block", "us", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.checkpoint_count", "count", "lower"),
    // Sharding.
    ("shard.plan_us_per_block", "us", "lower"),
    ("shard.decide_cross_us_per_block", "us", "lower"),
    ("shard.cross_txn_share", "share", "lower"),
    ("shard.cross_survivor_share", "share", "higher"),
    ("node.sharded.deliver_us_per_block", "us", "lower"),
    // Transport and wire.
    ("transport.tcp.frames_out_per_block", "count", "lower"),
    ("transport.tcp.bytes_out_per_txn", "bytes", "lower"),
    ("transport.tcp.overhead_us_per_txn", "us", "lower"),
    ("transport.tcp.dropped_frames", "count", "lower"),
    ("transport.tcp.decode_errors", "count", "lower"),
    ("transport.tcp.reconnects", "count", "lower"),
    ("transport.wire.deliver_encode_us_per_block", "us", "lower"),
    ("transport.wire.deliver_decode_us_per_block", "us", "lower"),
    ("transport.wire.deliver_bytes_per_block", "bytes", "lower"),
    ("transport.wire.submit_encode_ns_per_txn", "ns", "lower"),
    ("transport.wire.submit_decode_ns_per_txn", "ns", "lower"),
    // Orderer front end, codec, generation: recorded so nobody tunes
    // them on a hunch.
    ("node.mempool.admit_ns_per_txn", "ns", "lower"),
    ("node.mempool.batch_us_per_block", "us", "lower"),
    ("node.mempool.rejected", "count", "lower"),
    ("txn.codec.encode_ns_per_txn", "ns", "lower"),
    ("txn.codec.decode_ns_per_txn", "ns", "lower"),
    ("txn.codec.bytes_per_txn", "bytes", "lower"),
    ("workloads.gen_us_per_txn", "us", "lower"),
    // Replica as a whole and the single-node baseline.
    ("node.replica.deliver_us_per_block", "us", "lower"),
    ("node.replica.self_us_per_block", "us", "lower"),
    ("replay.cpu_us_per_txn", "us", "lower"),
    ("replay.tps_single_thread", "txn/s", "higher"),
    ("replay.exec_share", "share", "lower"),
    ("replay.per_block_share", "share", "lower"),
    ("replay.total_s_untraced", "s", "lower"),
    ("replay.trace_overhead_share", "share", "lower"),
    // Observability plane.
    ("metrics.render_us", "us", "lower"),
    ("metrics.counter_inc_ns", "ns", "lower"),
    // State sync (fault leg; zero where it does not run).
    ("node.statesync.rejoin_ms", "ms", "lower"),
    ("node.statesync.manifest_bytes", "bytes", "lower"),
    ("node.statesync.range_bytes", "bytes", "lower"),
    ("node.statesync.sync_blocks", "count", "lower"),
    // Harness health: validity of the run, not the program.
    ("generator.max_late_ms", "ms", "lower"),
    ("generator.late_share_1ms", "share", "lower"),
    ("generator.cpu_share", "share", "lower"),
    ("observer.poll_period_ms", "ms", "lower"),
    ("observer.poll_cost_share", "share", "lower"),
    ("observer.latency_samples", "count", "higher"),
    ("observer.commit_latency_p99_ms", "ms", "lower"),
    ("observer.seal_to_commit_p50_ms", "ms", "lower"),
    ("observer.failed_share", "share", "lower"),
    ("sat.replica_lag_blocks_max", "count", "lower"),
    ("paced.end_backlog_blocks", "count", "lower"),
    ("episodes.tps_spread", "share", "lower"),
    ("episodes.setup_spread", "share", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn contract() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json is valid JSON")
    }

    fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn emitted_metrics_equal_the_contract_units_included() {
        let doc = contract();
        let listed: Vec<_> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end")
            .iter()
            .map(|e| {
                (
                    text(e, "name"),
                    text(e, "unit"),
                    text(e, "better"),
                    e.get("bound").and_then(Value::as_f64).expect("bound"),
                )
            })
            .collect();
        assert_eq!(listed, END_TO_END);
        let listed: Vec<_> = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer")
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect();
        assert_eq!(listed, PER_LAYER);
    }

    #[test]
    fn workloads_and_run_length_equal_the_contract() {
        let doc = contract();
        let listed: Vec<_> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| (text(w, "name").to_string(), text(w, "why").to_string()))
            .collect();
        let ours: Vec<_> = crate::workloads::all()
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
        let paths = doc.get("paths").and_then(Value::as_array).expect("paths");
        assert_eq!(paths, [Value::String("benchmark".into())]);
    }

    #[test]
    fn contract_limits_hold() {
        let valid = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.0)
            .chain(PER_LAYER.iter().map(|e| e.0))
            .collect();
        assert!(names.iter().all(|n| valid(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|e| e.3 > 0.0 && e.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| (e.0, e.1, e.2) == ("setup_s", "s", "lower")));
        for spec in crate::workloads::all() {
            assert!(valid(spec.name) && spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }
}
