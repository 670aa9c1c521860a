//! Smallbank (Alomari et al., ICDE 2008) — the banking workload used by
//! most blockchain evaluations, including the paper's (§5: 10 K accounts,
//! standard mix).
//!
//! Six procedures over two tables (`checking`, `savings`), several with
//! data-dependent branches and business aborts — the transaction shape
//! that defeats static analysis and motivates optimistic DCC.

use std::sync::Arc;

use harmony_common::ids::TableId;
use harmony_common::zipf::ScrambledZipfian;
use harmony_common::{DetRng, Result};
use harmony_storage::StorageEngine;
use harmony_txn::row::{read_i64, RowBuilder};
use harmony_txn::{Contract, FnContract, Key, TxnCtx, UserAbort};

use crate::workload::Workload;

/// Offset of the balance field in account rows.
pub const BALANCE_OFFSET: usize = 0;
const ROW_PAD: usize = 40; // name-ish columns

/// Initial balance loaded into every account.
pub const INITIAL_BALANCE: i64 = 10_000;

/// Smallbank configuration.
#[derive(Clone, Debug)]
pub struct SmallbankConfig {
    /// Number of accounts (paper: 10 000).
    pub accounts: u64,
    /// Zipfian skew for account selection (the paper's contention axis).
    pub theta: f64,
    /// Partition-aware mode: the number of logical keyspace partitions the
    /// shard router will use (`0` disables partition awareness and keeps
    /// the classic transaction stream bit-for-bit).
    pub partitions: u64,
    /// Probability that a two-account procedure (SendPayment, Amalgamate)
    /// picks its counterparty in a *different* partition — the cross-shard
    /// ratio axis of the shard-scaling experiment. Ignored unless
    /// `partitions > 0`.
    pub multi_partition_ratio: f64,
}

impl Default for SmallbankConfig {
    fn default() -> Self {
        SmallbankConfig {
            accounts: 10_000,
            theta: 0.6,
            partitions: 0,
            multi_partition_ratio: 0.0,
        }
    }
}

/// Logical partition of an account id — the canonical hash partitioning
/// shared with the shard router.
#[must_use]
pub fn partition_of_account(account: u64, partitions: u64) -> u64 {
    harmony_common::hash::partition_of_u64(account, partitions)
}

use crate::workload::walk_u64 as walk_account;

/// Transaction mix (standard Smallbank distribution).
const MIX: [(Procedure, f64); 6] = [
    (Procedure::Balance, 0.15),
    (Procedure::DepositChecking, 0.15),
    (Procedure::TransactSavings, 0.15),
    (Procedure::Amalgamate, 0.15),
    (Procedure::WriteCheck, 0.25),
    (Procedure::SendPayment, 0.15),
];

/// Smallbank procedure selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Procedure {
    /// Read both balances of one customer.
    Balance,
    /// Add to a customer's checking balance.
    DepositChecking,
    /// Add to a customer's savings balance (aborts if it would go negative).
    TransactSavings,
    /// Move a customer's full savings into checking.
    Amalgamate,
    /// Cash a check against combined balances (penalty on overdraft).
    WriteCheck,
    /// Transfer checking funds between two customers.
    SendPayment,
}

/// The Smallbank workload.
pub struct Smallbank {
    config: SmallbankConfig,
    zipf: ScrambledZipfian,
    checking: TableId,
    savings: TableId,
}

impl Smallbank {
    /// Build with the given configuration.
    #[must_use]
    pub fn new(config: SmallbankConfig) -> Smallbank {
        let zipf = ScrambledZipfian::new(config.accounts, config.theta);
        Smallbank {
            config,
            zipf,
            checking: TableId(0),
            savings: TableId(0),
        }
    }

    /// `(checking, savings)` table ids (valid after `setup`).
    #[must_use]
    pub fn tables(&self) -> (TableId, TableId) {
        (self.checking, self.savings)
    }

    fn account_row(balance: i64) -> bytes::Bytes {
        let mut b = RowBuilder::new();
        b.push_i64(balance);
        b.push_pad(ROW_PAD, 0x20);
        b.finish()
    }

    fn pick_account(&self, rng: &mut DetRng) -> u64 {
        self.zipf.sample(rng)
    }
}

fn balance_of(v: &harmony_txn::Value) -> i64 {
    read_i64(v, BALANCE_OFFSET).unwrap_or(0)
}

impl Workload for Smallbank {
    fn name(&self) -> &'static str {
        "Smallbank"
    }

    fn create_tables(&mut self, engine: &StorageEngine) -> Result<()> {
        self.checking = engine.create_table("checking")?;
        self.savings = engine.create_table("savings")?;
        Ok(())
    }

    fn setup(&mut self, engine: &StorageEngine) -> Result<()> {
        self.create_tables(engine)?;
        let row = Self::account_row(INITIAL_BALANCE);
        for a in 0..self.config.accounts {
            engine.put(self.checking, &a.to_be_bytes(), &row)?;
            engine.put(self.savings, &a.to_be_bytes(), &row)?;
        }
        Ok(())
    }

    fn codec(&self) -> Arc<dyn harmony_txn::ContractCodec> {
        Arc::new(SmallbankCodec {
            checking: self.checking,
            savings: self.savings,
        })
    }

    fn next_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract> {
        let weights: Vec<f64> = MIX.iter().map(|(_, w)| *w).collect();
        let proc = MIX[rng.weighted_index(&weights)].0;
        let a0 = self.pick_account(rng);
        let mut a1 = self.pick_account(rng);
        if a1 == a0 {
            a1 = (a1 + 1) % self.config.accounts;
        }
        // Partition-aware counterparty choice: steer `a1` into (or out of)
        // `a0`'s partition with the configured cross-partition probability.
        // Only the two-account procedures consult `a1`, so only they draw.
        let two_account = matches!(proc, Procedure::Amalgamate | Procedure::SendPayment);
        if self.config.partitions > 0 && two_account {
            let parts = self.config.partitions;
            let accounts = self.config.accounts;
            let home = partition_of_account(a0, parts);
            if rng.gen_bool(self.config.multi_partition_ratio) {
                if partition_of_account(a1, parts) == home {
                    a1 = walk_account(accounts, a1, |c| partition_of_account(c, parts) != home);
                }
            } else if partition_of_account(a1, parts) != home {
                a1 = walk_account(accounts, a1, |c| {
                    c != a0 && partition_of_account(c, parts) == home
                });
            }
        }
        let amount = 1 + rng.gen_range(100) as i64;
        build_txn(self.checking, self.savings, proc, a0, a1, amount)
    }
}

/// Build the executable contract for concrete Smallbank parameters.
pub fn build_txn(
    checking: TableId,
    savings: TableId,
    proc: Procedure,
    a0: u64,
    a1: u64,
    amount: i64,
) -> Arc<dyn Contract> {
    {
        let payload = {
            let mut p = vec![proc as u8];
            p.extend_from_slice(&a0.to_le_bytes());
            p.extend_from_slice(&a1.to_le_bytes());
            p.extend_from_slice(&amount.to_le_bytes());
            p
        };
        let name = match proc {
            Procedure::Balance => "sb-balance",
            Procedure::DepositChecking => "sb-deposit",
            Procedure::TransactSavings => "sb-transact",
            Procedure::Amalgamate => "sb-amalgamate",
            Procedure::WriteCheck => "sb-writecheck",
            Procedure::SendPayment => "sb-sendpayment",
        };
        // Complete point-key footprint per procedure (enables single-shard
        // routing; every access below stays within these keys).
        let footprint: Vec<Key> = {
            let ck = |a: u64| Key::from_u64(checking, a);
            let sv = |a: u64| Key::from_u64(savings, a);
            match proc {
                Procedure::Balance | Procedure::WriteCheck => vec![ck(a0), sv(a0)],
                Procedure::DepositChecking => vec![ck(a0)],
                Procedure::TransactSavings => vec![sv(a0)],
                Procedure::Amalgamate => vec![sv(a0), ck(a0), ck(a1)],
                Procedure::SendPayment => vec![ck(a0), ck(a1)],
            }
        };
        Arc::new(
            FnContract::new(name, move |ctx: &mut TxnCtx<'_>| {
                let ck = |a: u64| Key::from_u64(checking, a);
                let sv = |a: u64| Key::from_u64(savings, a);
                let read_bal = |ctx: &mut TxnCtx<'_>, key: &Key| -> Result<i64, UserAbort> {
                    Ok(ctx
                        .read(key)
                        .map_err(|e| UserAbort(e.to_string()))?
                        .as_ref()
                        .map(balance_of)
                        .unwrap_or(0))
                };
                match proc {
                    Procedure::Balance => {
                        let _ = read_bal(ctx, &ck(a0))? + read_bal(ctx, &sv(a0))?;
                    }
                    Procedure::DepositChecking => {
                        // Single UPDATE statement: pure RMW command — the
                        // coalescible shape.
                        ctx.add_i64(ck(a0), BALANCE_OFFSET, amount);
                    }
                    Procedure::TransactSavings => {
                        let bal = read_bal(ctx, &sv(a0))?;
                        if bal - amount < 0 {
                            return Err(UserAbort("insufficient savings".into()));
                        }
                        ctx.add_i64(sv(a0), BALANCE_OFFSET, -amount);
                    }
                    Procedure::Amalgamate => {
                        let s = read_bal(ctx, &sv(a0))?;
                        let c = read_bal(ctx, &ck(a0))?;
                        ctx.add_i64(sv(a0), BALANCE_OFFSET, -s);
                        ctx.add_i64(ck(a0), BALANCE_OFFSET, -c);
                        ctx.add_i64(ck(a1), BALANCE_OFFSET, s + c);
                    }
                    Procedure::WriteCheck => {
                        let total = read_bal(ctx, &sv(a0))? + read_bal(ctx, &ck(a0))?;
                        let fee = if total < amount { 1 } else { 0 };
                        ctx.add_i64(ck(a0), BALANCE_OFFSET, -(amount + fee));
                    }
                    Procedure::SendPayment => {
                        let c = read_bal(ctx, &ck(a0))?;
                        if c < amount {
                            return Err(UserAbort("insufficient checking".into()));
                        }
                        ctx.add_i64(ck(a0), BALANCE_OFFSET, -amount);
                        ctx.add_i64(ck(a1), BALANCE_OFFSET, amount);
                    }
                }
                Ok(())
            })
            .with_payload(payload)
            .with_footprint(footprint),
        )
    }
}

/// [`harmony_txn::ContractCodec`] for Smallbank procedures.
pub struct SmallbankCodec {
    /// Checking table.
    pub checking: TableId,
    /// Savings table.
    pub savings: TableId,
}

impl harmony_txn::ContractCodec for SmallbankCodec {
    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn Contract>> {
        let (name, payload) = harmony_txn::split_encoded(bytes)?;
        if !name.starts_with("sb-") || payload.len() != 25 {
            return Err(harmony_common::Error::Corruption(format!(
                "not a smallbank contract: {name} ({} bytes)",
                payload.len()
            )));
        }
        let proc = match payload[0] {
            0 => Procedure::Balance,
            1 => Procedure::DepositChecking,
            2 => Procedure::TransactSavings,
            3 => Procedure::Amalgamate,
            4 => Procedure::WriteCheck,
            5 => Procedure::SendPayment,
            t => {
                return Err(harmony_common::Error::Corruption(format!(
                    "bad smallbank procedure tag {t}"
                )))
            }
        };
        let a0 = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
        let a1 = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
        let amount = i64::from_le_bytes(payload[17..25].try_into().expect("8 bytes"));
        Ok(build_txn(self.checking, self.savings, proc, a0, a1, amount))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_storage::StorageConfig;

    fn setup_sb(accounts: u64, theta: f64) -> (StorageEngine, Smallbank) {
        let engine = StorageEngine::open(&StorageConfig::memory()).unwrap();
        let mut w = Smallbank::new(SmallbankConfig {
            accounts,
            theta,
            ..SmallbankConfig::default()
        });
        w.setup(&engine).unwrap();
        (engine, w)
    }

    #[test]
    fn setup_loads_both_tables() {
        let (engine, w) = setup_sb(100, 0.0);
        let (ck, sv) = w.tables();
        assert_eq!(engine.table_len(ck).unwrap(), 100);
        assert_eq!(engine.table_len(sv).unwrap(), 100);
        let row = engine.get(ck, &0u64.to_be_bytes()).unwrap().unwrap();
        assert_eq!(read_i64(&row, BALANCE_OFFSET).unwrap(), INITIAL_BALANCE);
    }

    #[test]
    fn mix_covers_all_procedures() {
        let (_, w) = setup_sb(1000, 0.0);
        let mut rng = DetRng::new(2);
        let mut names = std::collections::HashSet::new();
        for _ in 0..500 {
            names.insert(w.next_txn(&mut rng).name().to_string());
        }
        assert_eq!(names.len(), 6, "all six procedures generated: {names:?}");
    }

    #[test]
    fn deterministic_stream() {
        let (_, w) = setup_sb(100, 0.5);
        let mut a = DetRng::new(11);
        let mut b = DetRng::new(11);
        for _ in 0..50 {
            assert_eq!(w.next_txn(&mut a).payload(), w.next_txn(&mut b).payload());
        }
    }

    #[test]
    fn partition_mode_steers_counterparties() {
        let cross_counts = |ratio: f64| {
            let (_, w) = setup_sb(1000, 0.0);
            let mut w = w;
            w.config.partitions = 8;
            w.config.multi_partition_ratio = ratio;
            let mut rng = DetRng::new(13);
            let (mut two_account, mut cross) = (0u32, 0u32);
            for _ in 0..400 {
                let txn = w.next_txn(&mut rng);
                if !matches!(txn.name(), "sb-amalgamate" | "sb-sendpayment") {
                    continue;
                }
                two_account += 1;
                let p = txn.payload();
                let a0 = u64::from_le_bytes(p[1..9].try_into().unwrap());
                let a1 = u64::from_le_bytes(p[9..17].try_into().unwrap());
                if partition_of_account(a0, 8) != partition_of_account(a1, 8) {
                    cross += 1;
                }
            }
            (two_account, cross)
        };
        let (n0, c0) = cross_counts(0.0);
        assert!(n0 > 50);
        assert_eq!(c0, 0, "ratio 0 must keep counterparties co-partitioned");
        let (n1, c1) = cross_counts(1.0);
        assert_eq!(c1, n1, "ratio 1 must always cross partitions");
    }

    #[test]
    fn footprint_matches_procedure() {
        let ck = TableId(1);
        let sv = TableId(2);
        let t = build_txn(ck, sv, Procedure::SendPayment, 3, 9, 10);
        assert_eq!(
            t.declared_keys().unwrap(),
            &[Key::from_u64(ck, 3), Key::from_u64(ck, 9)]
        );
        let t = build_txn(ck, sv, Procedure::Balance, 4, 0, 0);
        assert_eq!(
            t.declared_keys().unwrap(),
            &[Key::from_u64(ck, 4), Key::from_u64(sv, 4)]
        );
    }

    /// Money conservation: running the whole mix through Harmony must keep
    /// the total balance constant, modulo WriteCheck penalties which only
    /// ever *reduce* by writing checks (amount leaves the system).
    #[test]
    fn money_flows_are_consistent_under_harmony() {
        use harmony_core::executor::{BlockResult, ExecBlock};
        use harmony_core::{BlockExecutor, HarmonyConfig, SnapshotStore};
        use std::sync::Arc as SArc;

        let engine = SArc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
        let mut w = Smallbank::new(SmallbankConfig {
            accounts: 50,
            theta: 0.9,
            ..SmallbankConfig::default()
        });
        w.setup(&engine).unwrap();
        let (ck, sv) = w.tables();
        let store = SArc::new(SnapshotStore::new(SArc::clone(&engine)));
        let exec = BlockExecutor::new(SArc::clone(&store), HarmonyConfig::default());
        let mut rng = DetRng::new(3);
        // Only SendPayment/Amalgamate/Balance conserve money; generate the
        // full mix but track WriteCheck/Deposit/Transact deltas from the
        // committed transactions' payloads.
        let mut blocks = Vec::new();
        for b in 1..=10u64 {
            blocks.push(ExecBlock::new(
                harmony_common::BlockId(b),
                w.next_block(&mut rng, 20),
            ));
        }
        // Each block is handed the Rule-3 summary of the one before.
        let mut results: Vec<BlockResult> = Vec::new();
        for block in &blocks {
            let result = exec
                .execute(block, results.last().map(|r| &r.summary))
                .unwrap();
            results.push(result);
        }

        // Compute expected delta from committed, non-conserving procedures.
        let mut expected_delta: i64 = 0;
        for (bi, block) in blocks.iter().enumerate() {
            for (ti, txn) in block.txns.iter().enumerate() {
                let committed = results[bi].results[ti].outcome.is_committed();
                if !committed {
                    continue;
                }
                let p = txn.payload();
                let amount = i64::from_le_bytes(p[17..25].try_into().unwrap());
                match txn.name() {
                    "sb-deposit" => expected_delta += amount,
                    "sb-transact" => expected_delta -= amount,
                    "sb-writecheck" => {
                        // Fee depends on balance at execution; bound check
                        // below instead of exact accounting.
                        expected_delta -= amount;
                    }
                    _ => {}
                }
            }
        }
        let mut total: i64 = 0;
        for table in [ck, sv] {
            engine
                .scan(table, b"", None, |_, v| {
                    total += read_i64(v, BALANCE_OFFSET).unwrap();
                    true
                })
                .unwrap();
        }
        let initial = 2 * 50 * INITIAL_BALANCE;
        let drift = total - (initial + expected_delta);
        // Only writecheck fees (1 per txn) may remain unaccounted.
        assert!(
            (0..=60).contains(&(-drift)) || drift == 0,
            "total={total} expected≈{} drift={drift}",
            initial + expected_delta
        );
    }
}
