#!/usr/bin/env bash
# The "… in one place" rules: each names a pattern that non-test code may
# use only under the paths the rule exempts. A file's non-test code is every
# line above its first unindented `#[cfg(test)]` (an indented one, on a
# test-only method, must not hide the rest of the file).
#
# Usage: ci/one_place.sh [ROOT]
# Checks the tree at ROOT (default: the current directory). Prints one line
# per rule, `ok <rule>` or `FAIL <rule>: <why>; found in: <files>`, and exits
# 1 if any rule fails.
set -uo pipefail
cd "${1:-.}" || exit 2

failed=0

# rule NAME PATTERN IGNORED SCANNED EXEMPT MESSAGE
#   PATTERN  extended regex a non-test line must not match;
#   IGNORED  extended regex of lines that never count (empty: none);
#   SCANNED  directories searched (globs, space-separated);
#   EXEMPT   paths the rule allows the pattern in (globs, space-separated).
rule() {
    local name=$1 pat=$2 ignored=$3 scanned=$4 exempt=$5 message=$6
    local bad=() f e lines
    # shellcheck disable=SC2086 # SCANNED is a list of globs.
    for f in $(grep -rlE -- "$pat" $scanned); do
        for e in $exempt; do
            # shellcheck disable=SC2053 # EXEMPT entries are globs.
            [[ $f == $e ]] && continue 2
        done
        lines=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -E -- "$pat")
        [[ -n $ignored ]] && lines=$(grep -vE -- "$ignored" <<<"$lines")
        [[ -n $lines ]] && bad+=("$f")
    done
    if ((${#bad[@]})); then
        echo "FAIL $name: $message; found in: ${bad[*]}"
        failed=1
    else
        echo "ok   $name"
    fi
}

# One selector (`EngineKind`), one constructor (`EngineSpec::build` in
# crates/dcc-baselines/src/engines.rs). Outside the crate that owns the five
# engines, non-test code names an engine and never builds one.
rule 'engines are built in one place' \
    '(Aria|Rbc|Fabric|FastFabric|HarmonyEngine)::(new|starting_at)\(' '' \
    'crates/*/src src' 'crates/dcc-baselines/src/*' \
    'engines may be constructed only in crates/dcc-baselines/src'

# One executor of a planned block: `ShardGroup::execute_block` in
# crates/shard/src/group.rs. The experiment driver and the sharded replica
# both run blocks through a group, so no other non-test code calls the
# planner (its definition in plan.rs is not a call).
rule 'plan_block is called in one place' \
    'plan_block\(' 'fn plan_block\(' \
    'crates/*/src src' 'crates/shard/src/group.rs' \
    'plan_block may be called only in crates/shard/src/group.rs'

# One way a chain takes a peer's sync part: `OeChain::catch_up` in
# crates/chain/src/sync.rs installs the manifest and replays the tail for
# the flat replica, every shard and the reshard handover. No other non-test
# code calls the two halves itself.
rule 'a chain catches up in one place' \
    '(replay_range|install_snapshot)\(' '' \
    'crates/*/src src' 'crates/chain/src/*' \
    'replay_range( / install_snapshot( may be called only in crates/chain/src (use OeChain::catch_up)'

# An engine runs inside a chain: `OeChain` builds its engine from the
# `EngineSpec` it was opened with (and rebuilds it on recovery). The
# experiment drivers, the replicas and the examples open chains; no other
# non-test code builds an engine from a spec.
rule 'an engine runs inside a chain' \
    '(EngineSpec::[a-z_]+\([^)]*\)|spec(\(\))?)\.build(_at)?\(' '' \
    'crates/*/src src examples' 'crates/chain/src/* crates/dcc-baselines/src/*' \
    'EngineSpec::build( may be called only in crates/chain/src and crates/dcc-baselines/src (open an OeChain)'

# A block is charged in one place: `BlockCharge` in crates/sim/src/sched.rs
# prices every block the drivers and both replica kinds execute. No other
# non-test code schedules a block.
rule 'a block is charged in one place' \
    '(schedule_block|schedule_logged_block|pipeline_total_ns|sharded_block_ns)\(' '' \
    'crates/*/src src examples' 'crates/sim/src/*' \
    'blocks may be scheduled only in crates/sim/src (charge through BlockCharge)'

# A transaction is simulated in one place: `harmony_txn::simulate` opens the
# virtual-time scope, builds the transaction context and executes. The
# executor, the order-execute baselines, Fabric's endorsers and the
# cross-shard planner all call it, so no other non-test code builds a
# `TxnCtx`.
rule 'a transaction is simulated in one place' \
    'TxnCtx::new\(' '' \
    'crates/*/src src examples' 'crates/txn/src/*' \
    'TxnCtx::new( may be called only in crates/txn/src (simulate through harmony_txn::simulate)'

# The Rule-3 summary has one holder: `OeChain`'s `last_summary`, recorded in
# the chain position of every checkpoint and sync manifest and handed to
# each block through `DccEngine::execute_block`. No engine keeps a copy, so no non-test
# code names the pipeline that held one, its field, or the constructors
# that seeded it.
rule 'the Rule-3 summary has one holder' \
    'ChainPipeline|prev_summary|starting_at\(' '' \
    'crates/*/src src examples' '' \
    'the Rule-3 summary is held by OeChain alone (no ChainPipeline, prev_summary or starting_at)'

# A chain position is encoded in one place: `ChainPosition`'s codec in
# crates/chain/src/position.rs. A checkpoint records the position in the
# storage manifest and a sync manifest carries it, so no other non-test code
# calls the summary or undo encoders, and no code names the WAL that
# checkpoint sidecars used to be appended to.
rule 'a chain position is encoded in one place' \
    '(put|get)_(summary|undo|block_undo)\(|\.wal\(\)' '' \
    'crates/*/src src examples' 'crates/chain/src/position.rs' \
    'summaries and undo images are encoded only by ChainPosition (crates/chain/src/position.rs), and no code calls a WAL accessor'

# A map node is hashed in one place: `harmony_crypto::AuthMap` computes the
# leaf and node digests of the state map, in crates/crypto/src. Other code
# folds rows through the map (`apply_sorted`, `AuthMapBuilder`) and checks
# a row with `AuthMap::verify`, so no other non-test code lays out a map
# digest itself.
rule 'a map node is hashed in one place' \
    '(node_digest|leaf_digest)\(' '' \
    'crates/*/src src examples' 'crates/crypto/src/*' \
    'node_digest( / leaf_digest( may be called only in crates/crypto/src (fold rows through AuthMap)'

# A fault schedule reaches the network in one place: `Cluster::run` in
# crates/node/src/cluster/mod.rs lowers the schedule's link faults
# (`FaultSchedule::link_faults`) into the event loop's fault table. No
# other non-test code builds a `NetFaults`, so a link fault has one
# vocabulary (`LinkFault`) and one route onto the wire.
rule 'a fault schedule reaches the network in one place' \
    'NetFaults::(new|default)\(' '' \
    'crates/*/src src examples' 'crates/consensus/src/* crates/node/src/cluster/mod.rs' \
    'NetFaults may be built only in crates/consensus/src and crates/node/src/cluster/mod.rs (schedule a FaultEvent::Link)'

# A workload is built in one place: `ClusterWorkload::instantiate` in
# crates/node/src/cluster/config.rs. The cluster, the node runtime and
# every figure of the harness name a workload by its `ClusterWorkload`
# and turn it into a generator there, so no other non-test code outside
# the workloads crate constructs a Smallbank, YCSB or TPC-C generator.
rule 'workloads are built in one place' \
    '(Smallbank|Ycsb|Tpcc)::new\(' '' \
    'crates/*/src src' 'crates/node/src/cluster/config.rs crates/workloads/src/*' \
    'workloads may be constructed only in crates/node/src/cluster/config.rs (name one by ClusterWorkload and instantiate it)'

# The runtime spawns its threads in one place: `NodeRuntime` in
# crates/transport/src/tcp.rs starts the timer thread, the connectors, both
# listeners and every connection's reader, and its shutdown joins each of
# them. No other non-test code of the transport starts a thread, so none
# can outlive `NodeRuntime::join`.
rule 'the runtime spawns its threads in one place' \
    'thread::(spawn|Builder)' '' \
    'crates/transport/src' 'crates/transport/src/tcp.rs' \
    'threads of the transport may be started only in crates/transport/src/tcp.rs (where shutdown joins them)'

exit "$failed"
