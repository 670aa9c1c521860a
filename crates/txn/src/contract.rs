//! Smart contracts (stored procedures).
//!
//! A contract is arbitrary Rust logic executed against a [`TxnCtx`] — it
//! may branch on query results, loop, scan, and abort. This is precisely
//! the class of workloads where pessimistic DCC's static analysis fails
//! (§2.2.1 of the paper) and where ODCC protocols like Harmony shine: the
//! read-write set is discovered *by running the contract*, never declared.
//!
//! Orthogonally, a contract *may* declare the superset of point keys it can
//! touch ([`Contract::declared_keys`]). Declaration is never required for
//! correctness — it only lets the shard router place a transaction on a
//! single shard instead of the conservative multi-partition path.

use harmony_common::vtime;

use crate::ctx::{SnapshotView, TxnCtx};
use crate::key::Key;
use crate::rwset::RwSet;

/// A transaction aborted by its own logic (business rule), e.g.
/// "insufficient balance". Distinct from protocol-induced aborts: user
/// aborts are deterministic and final (no retry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserAbort(pub String);

impl std::fmt::Display for UserAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user abort: {}", self.0)
    }
}

impl std::error::Error for UserAbort {}

/// A smart contract / stored procedure.
pub trait Contract: Send + Sync {
    /// Execute against the given context. Reads/writes are captured by the
    /// context; returning `Err` is a deterministic business abort.
    ///
    /// # Errors
    /// Returns [`UserAbort`] when the contract's own logic rejects the
    /// transaction.
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<(), UserAbort>;

    /// Human-readable name (for logging and stats).
    fn name(&self) -> &str {
        "contract"
    }

    /// Serialized form included in block payloads (hashed into the Merkle
    /// root). Defaults to the name; workloads encode their parameters.
    fn payload(&self) -> Vec<u8> {
        self.name().as_bytes().to_vec()
    }

    /// The complete set of point keys this transaction may touch, if the
    /// submitter can declare it a priori (Calvin-style). Used by the shard
    /// router to place transactions without a reconnaissance run: a
    /// declared footprint confined to one partition makes the transaction
    /// single-shard; `None` (the general contract case — data-dependent
    /// accesses, scans) is routed conservatively as multi-partition.
    fn declared_keys(&self) -> Option<&[Key]> {
        None
    }
}

/// Simulate `txn` against `view` — the one simulation step every engine
/// runs. It executes inside one virtual-time scope and returns the
/// captured read-write set (`None` for a user abort) and the scope's
/// virtual nanoseconds.
pub fn simulate(txn: &dyn Contract, view: &dyn SnapshotView) -> (Option<RwSet>, u64) {
    vtime::scope(|| {
        let mut ctx = TxnCtx::new(view);
        txn.execute(&mut ctx).ok().map(|()| ctx.into_rwset())
    })
}

/// Adapter turning a closure into a [`Contract`].
pub struct FnContract<F> {
    name: String,
    payload: Vec<u8>,
    footprint: Option<Vec<Key>>,
    f: F,
}

impl<F> FnContract<F>
where
    F: Fn(&mut TxnCtx<'_>) -> Result<(), UserAbort> + Send + Sync,
{
    /// Wrap a closure.
    pub fn new(name: impl Into<String>, f: F) -> FnContract<F> {
        let name = name.into();
        FnContract {
            payload: name.as_bytes().to_vec(),
            name,
            footprint: None,
            f,
        }
    }

    /// Attach a payload (identifies the transaction in block hashes).
    #[must_use]
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Declare the complete point-key footprint (enables single-shard
    /// routing; see [`Contract::declared_keys`]).
    #[must_use]
    pub fn with_footprint(mut self, keys: Vec<Key>) -> Self {
        self.footprint = Some(keys);
        self
    }
}

impl<F> Contract for FnContract<F>
where
    F: Fn(&mut TxnCtx<'_>) -> Result<(), UserAbort> + Send + Sync,
{
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<(), UserAbort> {
        (self.f)(ctx)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn payload(&self) -> Vec<u8> {
        self.payload.clone()
    }

    fn declared_keys(&self) -> Option<&[Key]> {
        self.footprint.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Value;
    use harmony_common::ids::TableId;
    use harmony_common::Result;

    struct EmptyView;

    impl SnapshotView for EmptyView {
        fn get(&self, _key: &Key) -> Result<Option<Value>> {
            Ok(None)
        }
        fn scan(
            &self,
            _table: TableId,
            _start: &[u8],
            _end: Option<&[u8]>,
            _f: &mut dyn FnMut(&[u8], &Value) -> bool,
        ) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn fn_contract_executes_and_captures() {
        let c = FnContract::new("touch", |ctx: &mut TxnCtx<'_>| {
            ctx.put(Key::from_u64(TableId(0), 1), vec![1u8]);
            Ok(())
        });
        let mut ctx = TxnCtx::new(&EmptyView);
        c.execute(&mut ctx).unwrap();
        assert_eq!(ctx.rwset().updates.len(), 1);
        assert_eq!(c.name(), "touch");
        assert_eq!(c.payload(), b"touch");
    }

    #[test]
    fn fn_contract_branches_on_read() {
        // Data-dependent branching: the write set depends on what was read
        // — exactly what static analysis cannot pre-compute.
        let c = FnContract::new("branchy", |ctx: &mut TxnCtx<'_>| {
            let key = Key::from_u64(TableId(0), 7);
            match ctx.read(&key).map_err(|e| UserAbort(e.to_string()))? {
                Some(_) => ctx.put(Key::from_u64(TableId(0), 8), vec![1]),
                None => ctx.put(Key::from_u64(TableId(0), 9), vec![2]),
            }
            Ok(())
        });
        let mut ctx = TxnCtx::new(&EmptyView);
        c.execute(&mut ctx).unwrap();
        let rw = ctx.into_rwset();
        assert_eq!(rw.updates[0].0, Key::from_u64(TableId(0), 9));
    }

    #[test]
    fn user_abort_from_contract() {
        let c = FnContract::new("abort", |ctx: &mut TxnCtx<'_>| ctx.user_abort("no funds"));
        let mut ctx = TxnCtx::new(&EmptyView);
        assert_eq!(c.execute(&mut ctx).unwrap_err().0, "no funds");
    }

    #[test]
    fn builder_options() {
        let c = FnContract::new("x", |_: &mut TxnCtx<'_>| Ok(())).with_payload(vec![9, 9]);
        assert_eq!(c.payload(), vec![9, 9]);
        assert!(c.declared_keys().is_none(), "footprint is opt-in");
    }

    #[test]
    fn simulate_charges_think_time_in_its_own_scope() {
        let ok = FnContract::new("ok", |ctx: &mut TxnCtx<'_>| {
            vtime::charge(500);
            ctx.put(Key::from_u64(TableId(0), 1), vec![1u8]);
            Ok(())
        });
        let abort = FnContract::new("no", |ctx: &mut TxnCtx<'_>| {
            vtime::charge(70);
            ctx.user_abort("no funds")
        });
        let _ = vtime::take();
        vtime::charge(9);
        let (rwset, ns) = simulate(&ok, &EmptyView);
        assert_eq!((rwset.map(|rw| rw.updates.len()), ns), (Some(1), 500));
        assert_eq!(simulate(&abort, &EmptyView), (None, 70));
        assert_eq!(vtime::take(), 9, "the caller's accumulator is untouched");
    }

    #[test]
    fn footprint_is_declared() {
        let keys = vec![Key::from_u64(TableId(0), 1), Key::from_u64(TableId(1), 2)];
        let c = FnContract::new("x", |_: &mut TxnCtx<'_>| Ok(())).with_footprint(keys.clone());
        assert_eq!(c.declared_keys(), Some(keys.as_slice()));
    }
}
