//! Update reordering (Rule 2) and update coalescence — Algorithm 2.
//!
//! After validation, the update commands of *committed* transactions are
//! grouped per key, sorted by ascending `(min_out, tid)` (Rule 2 — provably
//! a topological order of the rw-subgraph once Rule 1 eliminated all
//! backward dangerous structures, Theorem 2), and folded into one
//! *coalesced* read-modify-write per key. Exactly one transaction — the
//! plan's deterministic owner — pays for each key's plan; the paper uses
//! first-comer claiming under a critical section, we assign the owner
//! deterministically (the first committed writer in apply order), which
//! makes cost attribution reproducible.
//!
//! A coalesced plan finds its key once: one read-modify-write of the row
//! hands the folded commands their input, which is also the before-image
//! the snapshot store records, and writes the after-image the chain folds
//! into its state commitment. The virtual time of the second read and of
//! the write's own descent is still charged, so every figure keeps its
//! cost model.

use harmony_common::{BlockId, Error, Result};
use harmony_txn::{CommandSeq, Key, RwSet, Value};

use crate::meta::TxnMeta;
use crate::reservation::ReservationTable;
use crate::snapshot::SnapshotStore;

/// The apply plan for one key: every committed writer's command sequence in
/// serialization order, plus the owner that executes the plan.
#[derive(Debug, Clone)]
pub struct KeyPlan {
    /// The record all commands target.
    pub key: Key,
    /// `(tid, block-index, commands)` in apply order.
    pub cmds: Vec<(u64, u32, CommandSeq)>,
    /// Block index of the transaction that applies this plan.
    pub owner: u32,
}

/// Build apply plans for a block.
///
/// * `committed[idx]` — validation outcome per transaction.
/// * `reordering = true` — sort each key's updaters by `(min_out, tid)`
///   (Rule 2); `false` — sort by TID (only meaningful when ww-aborts
///   already guaranteed one committed writer per key).
pub fn build_apply_plans(
    table: &ReservationTable,
    metas: &[TxnMeta],
    rwsets: &[Option<RwSet>],
    committed: &[bool],
    reordering: bool,
) -> Vec<KeyPlan> {
    let mut plans = Vec::new();
    table.for_each_written_key(|key, writers| {
        let mut cmds: Vec<(u64, u64, u32, CommandSeq)> = writers
            .iter()
            .filter(|&&w| committed[w as usize])
            .filter_map(|&w| {
                let meta = &metas[w as usize];
                let seq = rwsets[w as usize]
                    .as_ref()
                    .and_then(|rw| rw.pending_for(key))
                    .cloned()?;
                Some((meta.min_out(), meta.tid, w, seq))
            })
            .collect();
        if cmds.is_empty() {
            return;
        }
        if reordering {
            // Rule 2: ascending min_out, ties broken by TID.
            cmds.sort_by_key(|a| (a.0, a.1));
        } else {
            cmds.sort_by_key(|c| c.1);
        }
        let owner = cmds[0].2;
        plans.push(KeyPlan {
            key: key.clone(),
            cmds: cmds
                .into_iter()
                .map(|(_, tid, idx, seq)| (tid, idx, seq))
                .collect(),
            owner,
        });
    });
    // Key order: the order the commit step installs the plans in.
    plans.sort_by(|a, b| a.key.cmp(&b.key));
    plans
}

/// Apply one key's plan to the store.
///
/// With `coalesce = true` the whole plan costs one read and one write
/// (Figure 5b); with `coalesce = false` every writer's commands pay their
/// own lookup and page write (Figure 5a). The plan's first write is one
/// read-modify-write of the row ([`SnapshotStore::apply_write`]): the
/// commands fold over the value it finds, which is also the before-image
/// the store records, so no key is read twice. The virtual time of the
/// second read the model has always counted is charged instead
/// ([`harmony_storage::StorageEngine::charge_reread`]).
///
/// Read-modify-write commands hitting a missing record are *no-ops* (SQL
/// `UPDATE` matching zero rows); the number of skipped commands is
/// returned.
pub fn apply_key_plan(
    store: &SnapshotStore,
    block: BlockId,
    plan: &KeyPlan,
    coalesce: bool,
) -> Result<u64> {
    let mut noops = 0u64;
    let (table, row) = (plan.key.table(), plan.key.row());
    // Coalesced: one group of every writer. Otherwise one group each, in
    // plan order, each paying its own round trip.
    let group = if coalesce { plan.cmds.len() } else { 1 };
    for (i, cmds) in plan.cmds.chunks(group).enumerate() {
        let tid = cmds.last().expect("plan never empty").0;
        if i == 0 {
            store.apply_write(block, tid, &plan.key, |before| {
                let mut cur = before.cloned();
                run_commands(&mut cur, cmds, &mut noops)?;
                Ok(cur)
            })?;
            store.engine().charge_reread(table)?;
        } else {
            let mut cur = store.engine().get_as(table, row)?;
            run_commands(&mut cur, cmds, &mut noops)?;
            store.overwrite_in_block(tid, &plan.key, cur.as_ref())?;
        }
    }
    Ok(noops)
}

/// Fold `cmds`' commands over `cur`, counting those that match no row.
fn run_commands(
    cur: &mut Option<Value>,
    cmds: &[(u64, u32, CommandSeq)],
    noops: &mut u64,
) -> Result<()> {
    for cmd in cmds.iter().flat_map(|(_, _, seq)| seq.commands()) {
        match cmd.apply(cur.as_ref()) {
            Ok(v) => *cur = v,
            Err(Error::InvalidArgument(_)) => *noops += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use harmony_common::ids::TableId;
    use harmony_common::{vtime, TxnId};
    use harmony_storage::{StorageConfig, StorageCost, StorageEngine};
    use harmony_txn::UpdateCommand;
    use std::sync::Arc;

    fn setup() -> (Arc<SnapshotStore>, TableId) {
        let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
        let t = engine.create_table("t").unwrap();
        (Arc::new(SnapshotStore::new(engine)), t)
    }

    fn f64v(x: f64) -> Bytes {
        Bytes::from(x.to_le_bytes().to_vec())
    }

    fn as_f64(v: &[u8]) -> f64 {
        f64::from_le_bytes(v.try_into().unwrap())
    }

    fn tid(block: u64, idx: u32) -> u64 {
        TxnId::new(BlockId(block), idx).0
    }

    /// Reproduce the paper's §3.3.1 example: T1 = add(x,10), T2 = mul(x,3),
    /// rw-subgraph says T2 must precede T1 (T1 ←rw T2 ... realised by
    /// min_out(T2) < min_out(T1)). Expected result: mul first, add second
    /// ⇒ x = 10*3 + 10 = 40.
    #[test]
    fn paper_example_reorders_mul_before_add() {
        let (store, t) = setup();
        store.engine().put(t, b"x", &10f64.to_le_bytes()).unwrap();
        let key = Key::new(t, &b"x"[..]);

        let table = ReservationTable::new(2);
        let t1 = tid(1, 0);
        let t2 = tid(1, 1);
        let metas = vec![TxnMeta::new(t1), TxnMeta::new(t2)];
        // T1 ←rw T2 (T2 read x's before-image of T1's write).
        metas[1].note_out_edge(t1);

        let mut rw1 = RwSet::default();
        rw1.record_update(
            key.clone(),
            UpdateCommand::AddF64 {
                offset: 0,
                delta: 10.0,
            },
        );
        let mut rw2 = RwSet::default();
        rw2.record_read(key.clone(), None);
        rw2.record_update(
            key.clone(),
            UpdateCommand::MulF64 {
                offset: 0,
                factor: 3.0,
            },
        );
        table.register(0, &rw1);
        table.register(1, &rw2);

        let rwsets = vec![Some(rw1), Some(rw2)];
        let plans = build_apply_plans(&table, &metas, &rwsets, &[true, true], true);
        assert_eq!(plans.len(), 1);
        // min_out(T2) = t1 < min_out(T1) = t1+1 ⇒ T2 first.
        assert_eq!(plans[0].cmds[0].0, t2);
        assert_eq!(plans[0].cmds[1].0, t1);

        apply_key_plan(&store, BlockId(1), &plans[0], true).unwrap();
        let v = store.engine().get(t, b"x").unwrap().unwrap();
        assert_eq!(as_f64(&v), 40.0);
    }

    #[test]
    fn without_reordering_tid_order_applies() {
        let (store, t) = setup();
        store.engine().put(t, b"x", &10f64.to_le_bytes()).unwrap();
        let key = Key::new(t, &b"x"[..]);
        let table = ReservationTable::new(2);
        let metas = vec![TxnMeta::new(tid(1, 0)), TxnMeta::new(tid(1, 1))];
        metas[1].note_out_edge(tid(1, 0));
        let mut rw1 = RwSet::default();
        rw1.record_update(
            key.clone(),
            UpdateCommand::AddF64 {
                offset: 0,
                delta: 10.0,
            },
        );
        let mut rw2 = RwSet::default();
        rw2.record_update(
            key.clone(),
            UpdateCommand::MulF64 {
                offset: 0,
                factor: 3.0,
            },
        );
        table.register(0, &rw1);
        table.register(1, &rw2);
        let rwsets = vec![Some(rw1), Some(rw2)];
        let plans = build_apply_plans(&table, &metas, &rwsets, &[true, true], false);
        // TID order: add first, mul second ⇒ (10+10)*3 = 60.
        apply_key_plan(&store, BlockId(1), &plans[0], true).unwrap();
        let v = store.engine().get(t, b"x").unwrap().unwrap();
        assert_eq!(as_f64(&v), 60.0);
    }

    #[test]
    fn aborted_writers_filtered_out() {
        let (store, t) = setup();
        store.engine().put(t, b"x", &f64v(1.0)).unwrap();
        let key = Key::new(t, &b"x"[..]);
        let table = ReservationTable::new(2);
        let metas = vec![TxnMeta::new(tid(1, 0)), TxnMeta::new(tid(1, 1))];
        let mut rw1 = RwSet::default();
        rw1.record_update(
            key.clone(),
            UpdateCommand::AddF64 {
                offset: 0,
                delta: 100.0,
            },
        );
        let mut rw2 = RwSet::default();
        rw2.record_update(
            key.clone(),
            UpdateCommand::AddF64 {
                offset: 0,
                delta: 1.0,
            },
        );
        table.register(0, &rw1);
        table.register(1, &rw2);
        let rwsets = vec![Some(rw1), Some(rw2)];
        // T1 aborted.
        let plans = build_apply_plans(&table, &metas, &rwsets, &[false, true], true);
        assert_eq!(plans[0].cmds.len(), 1);
        apply_key_plan(&store, BlockId(1), &plans[0], true).unwrap();
        let v = store.engine().get(t, b"x").unwrap().unwrap();
        assert_eq!(as_f64(&v), 2.0, "only T2's +1 applied");
    }

    #[test]
    fn all_writers_aborted_no_plan() {
        let (_store, t) = setup();
        let key = Key::new(t, &b"x"[..]);
        let table = ReservationTable::new(2);
        let metas = vec![TxnMeta::new(tid(1, 0))];
        let mut rw = RwSet::default();
        rw.record_update(key, UpdateCommand::Delete);
        table.register(0, &rw);
        let plans = build_apply_plans(&table, &metas, &[Some(rw)], &[false], true);
        assert!(plans.is_empty());
    }

    #[test]
    fn coalesced_and_uncoalesced_same_result_different_io() {
        for coalesce in [true, false] {
            let (store, t) = setup();
            store.engine().put(t, b"hot", &f64v(5.0)).unwrap();
            let key = Key::new(t, &b"hot"[..]);
            let table = ReservationTable::new(2);
            let n = 8u32;
            let metas: Vec<TxnMeta> = (0..n).map(|i| TxnMeta::new(tid(1, i))).collect();
            let mut rwsets = Vec::new();
            for i in 0..n {
                let mut rw = RwSet::default();
                rw.record_update(
                    key.clone(),
                    UpdateCommand::AddF64 {
                        offset: 0,
                        delta: 1.0,
                    },
                );
                table.register(i, &rw);
                rwsets.push(Some(rw));
            }
            let committed = vec![true; n as usize];
            let plans = build_apply_plans(&table, &metas, &rwsets, &committed, true);
            let io_before = store.engine().io_snapshot();
            apply_key_plan(&store, BlockId(1), &plans[0], coalesce).unwrap();
            let io_after = store.engine().io_snapshot().delta_since(&io_before);
            let v = store.engine().get(t, b"hot").unwrap().unwrap();
            assert_eq!(as_f64(&v), 13.0, "coalesce={coalesce}");
            if coalesce {
                assert!(
                    io_after.pool.hits <= 6,
                    "coalesced plan should touch few pages, saw {}",
                    io_after.pool.hits
                );
            }
        }
    }

    /// What `apply_key_plan` did before it kept its own read: read the key,
    /// run the commands, then read it again for the before-image and write
    /// it (an `apply_write` that ignores the value it finds charges that
    /// read and that write).
    fn apply_rereading(store: &SnapshotStore, block: BlockId, plan: &KeyPlan, coalesce: bool) {
        let read = || {
            store
                .engine()
                .get(plan.key.table(), plan.key.row())
                .unwrap()
                .map(Value::from)
        };
        let run = |cur: &mut Option<Value>, seq: &CommandSeq| {
            for cmd in seq.commands() {
                if let Ok(v) = cmd.apply(cur.as_ref()) {
                    *cur = v;
                }
            }
        };
        if coalesce {
            let mut cur = read();
            for (_, _, seq) in &plan.cmds {
                run(&mut cur, seq);
            }
            let last_tid = plan.cmds.last().unwrap().0;
            store
                .apply_write(block, last_tid, &plan.key, |_| Ok(cur))
                .unwrap();
        } else {
            for (i, (tid, _, seq)) in plan.cmds.iter().enumerate() {
                let mut cur = read();
                run(&mut cur, seq);
                if i == 0 {
                    store
                        .apply_write(block, *tid, &plan.key, |_| Ok(cur))
                        .unwrap();
                } else {
                    store
                        .overwrite_in_block(*tid, &plan.key, cur.as_ref())
                        .unwrap();
                }
            }
        }
    }

    /// A store under the default cost model holding `rows` rows, at the
    /// even keys `0, 2, 4, …`, of 100 bytes each.
    fn costed(rows: u64) -> (Arc<SnapshotStore>, TableId) {
        let config = StorageConfig {
            cost: StorageCost::default(),
            ..StorageConfig::memory()
        };
        let engine = Arc::new(StorageEngine::open(&config).unwrap());
        let t = engine.create_table("t").unwrap();
        for i in 0..rows {
            engine.put(t, &(2 * i).to_be_bytes(), &[1; 100]).unwrap();
        }
        (Arc::new(SnapshotStore::new(engine)), t)
    }

    /// Levels of `t`'s tree, from the charge of a re-read.
    fn height(store: &SnapshotStore, t: TableId) -> u64 {
        let cost = StorageCost::default();
        let ((), ns) = vtime::scope(|| store.engine().charge_reread(t).unwrap());
        (ns - cost.statement_ns) / (cost.buffer_hit_ns + cost.node_search_ns)
    }

    /// Two writers per key over keys `0..48`: inserts, updates, deletes and
    /// read-modify-writes, on rows that exist (even keys) and rows that do
    /// not (odd keys, and even keys past the loaded ones).
    fn mixed_plans(t: TableId) -> Vec<KeyPlan> {
        (0..48u64)
            .map(|k| {
                let first = match k % 3 {
                    0 => UpdateCommand::Put(Value::from(vec![k as u8; 200])),
                    1 => UpdateCommand::AddI64 {
                        offset: 0,
                        delta: 5,
                    },
                    _ => UpdateCommand::Delete,
                };
                let second = match k % 2 {
                    0 => UpdateCommand::AddI64 {
                        offset: 8,
                        delta: -1,
                    },
                    _ => UpdateCommand::Put(Value::from(vec![3; 40])),
                };
                KeyPlan {
                    key: Key::from_u64(t, k),
                    cmds: vec![
                        (tid(1, 0), 0, CommandSeq::of(first)),
                        (tid(1, 1), 1, CommandSeq::of(second)),
                    ],
                    owner: 0,
                }
            })
            .collect()
    }

    #[test]
    fn kept_read_is_charged_exactly_as_the_second_read_was() {
        // Trees of height 1, 2 and 3, and (30 rows) a full root leaf that
        // the block's inserts split.
        let mut split_in_block = false;
        for (rows, levels) in [(10, 1), (30, 1), (300, 2), (12_000, 3)] {
            for coalesce in [true, false] {
                let (kept, t) = costed(rows);
                let (reread, _) = costed(rows);
                assert_eq!(height(&kept, t), levels, "{rows} rows");
                for plan in mixed_plans(t) {
                    let (res, kept_ns) =
                        vtime::scope(|| apply_key_plan(&kept, BlockId(1), &plan, coalesce));
                    res.unwrap();
                    let ((), reread_ns) =
                        vtime::scope(|| apply_rereading(&reread, BlockId(1), &plan, coalesce));
                    assert_eq!(
                        kept_ns, reread_ns,
                        "{rows} rows, coalesce={coalesce}, key {:?}",
                        plan.key
                    );
                }
                let rows_of = |store: &SnapshotStore| {
                    store
                        .engine()
                        .scan_collect(t, b"", None, usize::MAX)
                        .unwrap()
                };
                assert_eq!(rows_of(&kept), rows_of(&reread));
                assert_eq!(
                    kept.writes_in(BlockId(1)).unwrap(),
                    reread.writes_in(BlockId(1)).unwrap()
                );
                split_in_block |= height(&kept, t) > levels;
            }
        }
        assert!(split_in_block, "no block split its root");
    }

    #[test]
    fn rmw_on_missing_record_is_noop() {
        let (store, t) = setup();
        let key = Key::new(t, &b"ghost"[..]);
        let table = ReservationTable::new(2);
        let metas = vec![TxnMeta::new(tid(1, 0))];
        let mut rw = RwSet::default();
        rw.record_update(
            key.clone(),
            UpdateCommand::AddI64 {
                offset: 0,
                delta: 5,
            },
        );
        table.register(0, &rw);
        let plans = build_apply_plans(&table, &metas, &[Some(rw)], &[true], true);
        let noops = apply_key_plan(&store, BlockId(1), &plans[0], true).unwrap();
        assert_eq!(noops, 1);
        assert_eq!(store.engine().get(t, b"ghost").unwrap(), None);
    }

    #[test]
    fn delete_then_rmw_in_plan_order() {
        // T1 deletes x, T2 adds to x; in TID order the add becomes a no-op
        // (zero-row UPDATE), matching serial execution T1; T2.
        let (store, t) = setup();
        store.engine().put(t, b"x", &f64v(9.0)).unwrap();
        let key = Key::new(t, &b"x"[..]);
        let table = ReservationTable::new(2);
        let metas = vec![TxnMeta::new(tid(1, 0)), TxnMeta::new(tid(1, 1))];
        let mut rw1 = RwSet::default();
        rw1.record_update(key.clone(), UpdateCommand::Delete);
        let mut rw2 = RwSet::default();
        rw2.record_update(
            key.clone(),
            UpdateCommand::AddF64 {
                offset: 0,
                delta: 1.0,
            },
        );
        table.register(0, &rw1);
        table.register(1, &rw2);
        let plans = build_apply_plans(&table, &metas, &[Some(rw1), Some(rw2)], &[true, true], true);
        let noops = apply_key_plan(&store, BlockId(1), &plans[0], true).unwrap();
        assert_eq!(noops, 1);
        assert_eq!(store.engine().get(t, b"x").unwrap(), None);
    }
}
