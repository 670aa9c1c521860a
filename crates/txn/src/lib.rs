//! Transaction substrate: the vocabulary shared by every concurrency
//! control protocol in the workspace.
//!
//! * [`key`] — table-qualified row keys and values.
//! * [`update`] — *update commands* (`put`, `delete`, `add`, `mul`, …): the
//!   command-level write representation Harmony keeps in write-sets instead
//!   of evaluated values (§3.3 of the paper), with the coalescence algebra.
//! * [`rwset`] — read/write-set capture, including range predicates so
//!   phantom-producing scans participate in dependency tracking.
//! * [`ctx`] — [`TxnCtx`], the execution context handed to smart contracts:
//!   reads-own-writes, predicate reads, user aborts.
//! * [`contract`] — the [`Contract`] trait: stored procedures with
//!   data-dependent branches (the workloads that defeat static analysis),
//!   and [`simulate`], the one step every engine runs a transaction
//!   through.
//! * [`row`] — fixed-width row codec helpers used by the workloads.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod codec;
pub mod contract;
pub mod ctx;
pub mod key;
pub mod row;
pub mod rwset;
pub mod update;

pub use codec::{encode_contract, split_encoded, ContractCodec, MultiCodec};
pub use contract::{simulate, Contract, FnContract, UserAbort};
pub use ctx::{SnapshotView, TxnCtx};
pub use key::{Key, Value};
pub use rwset::{RangePredicate, ReadRecord, RwSet};
pub use update::{CommandSeq, UpdateCommand};
