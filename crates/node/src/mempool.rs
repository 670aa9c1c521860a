//! The mempool frontend of a replica cluster's ordering service.
//!
//! Client sessions submit transactions tagged with a per-session nonce;
//! the mempool performs **admission control** before anything reaches
//! consensus:
//!
//! * **backpressure** — a bounded queue; submissions beyond capacity are
//!   rejected so an open-loop overload cannot grow state without bound,
//! * **duplicate rejection** — a nonce at or below the session's
//!   watermark (or already held) is a replay and is dropped,
//! * **reorder hold-back** — the network may reorder two submissions
//!   from the same session, so a nonce slightly ahead of the watermark
//!   is *held* and admitted once the gap closes; only nonces beyond the
//!   per-session reorder window are refused outright.
//!
//! Admission to the batch queue is strictly in nonce order per session,
//! and batching is FIFO in admission order — so every honest orderer
//! draining the same submission stream seals identical blocks.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use harmony_metrics::{Counter, Gauge, Registry};
use harmony_txn::Contract;

/// Per-session hold-back window for out-of-order nonces: a nonce up to
/// this far past the session's watermark is held, one further is a
/// [`AdmitError::NonceGap`].
const REORDER_WINDOW: usize = 64;

/// Mempool configuration.
#[derive(Clone, Copy, Debug)]
pub struct MempoolConfig {
    /// Maximum queued transactions before backpressure rejects.
    pub capacity: usize,
    /// Number of admission tenants. Client sessions map to tenants by
    /// `client % tenants`; 1 (the default) disables multi-tenancy.
    pub tenants: usize,
    /// Per-tenant cap on *queued* transactions. `None` (the default)
    /// means tenants share the queue freely; `Some(q)` rejects a
    /// tenant's submissions once it has `q` transactions queued, so one
    /// hot tenant cannot starve the rest of the capacity. Held-back
    /// out-of-order transactions do not count against the quota until
    /// they drain into the queue (the drain, like the capacity drain,
    /// never strands a held transaction).
    pub tenant_quota: Option<usize>,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            capacity: 4_096,
            tenants: 1,
            tenant_quota: None,
        }
    }
}

/// Why a submission was refused admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is full; the client must back off and resubmit.
    Backpressure,
    /// The (client, nonce) pair was already admitted or held — a replay.
    Duplicate {
        /// Submitting session.
        client: u64,
        /// The replayed nonce.
        nonce: u64,
    },
    /// The nonce is beyond the session's reorder window.
    NonceGap {
        /// Submitting session.
        client: u64,
        /// Next admissible nonce.
        expected: u64,
        /// The too-far-ahead nonce received.
        got: u64,
    },
    /// The client's tenant is at its admission quota; the client must
    /// back off and resubmit (the nonce is not consumed).
    TenantQuota {
        /// Submitting session.
        client: u64,
        /// The tenant (`client % tenants`) that is over quota.
        tenant: u64,
    },
}

impl AdmitError {
    /// Every rejection cause label, in declaration order — the full
    /// label set of `harmony_mempool_rejected_total{cause=...}`.
    pub const CAUSES: [&'static str; 4] =
        ["backpressure", "duplicate", "nonce_gap", "tenant_quota"];

    /// The static metric label for this rejection cause. Rejection
    /// accounting is derived from this single mapping, so the
    /// [`MempoolStats`] view and the registry counters can never
    /// disagree.
    #[must_use]
    pub fn cause_label(&self) -> &'static str {
        match self {
            AdmitError::Backpressure => Self::CAUSES[0],
            AdmitError::Duplicate { .. } => Self::CAUSES[1],
            AdmitError::NonceGap { .. } => Self::CAUSES[2],
            AdmitError::TenantQuota { .. } => Self::CAUSES[3],
        }
    }

    /// Whether the submission may be retried later with the same nonce:
    /// true for load-induced rejections (the nonce was not consumed),
    /// false for replays. This is the client-side resubmission filter.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        !matches!(self, AdmitError::Duplicate { .. })
    }
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Backpressure => write!(f, "mempool full (backpressure)"),
            AdmitError::Duplicate { client, nonce } => {
                write!(f, "duplicate nonce {nonce} from client {client}")
            }
            AdmitError::NonceGap {
                client,
                expected,
                got,
            } => write!(
                f,
                "nonce {got} from client {client} exceeds the reorder window (expected {expected})"
            ),
            AdmitError::TenantQuota { client, tenant } => {
                write!(f, "tenant {tenant} at admission quota (client {client})")
            }
        }
    }
}

/// One admitted transaction awaiting ordering.
#[derive(Clone)]
pub struct PendingTxn {
    /// Submitting client session.
    pub client: u64,
    /// The session nonce.
    pub nonce: u64,
    /// Submission time (virtual ns) — end-to-end latency anchor.
    pub submitted_ns: u64,
    /// The executable contract.
    pub contract: Arc<dyn Contract>,
}

/// Admission counters (exposed in the cluster report).
///
/// This is a point-in-time *view* read out of [`MempoolMetrics`] — the
/// registry counters are the single source of truth, so the stats and
/// any Prometheus scrape always agree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions admitted to the queue.
    pub admitted: u64,
    /// Submissions held out-of-order, then admitted when the gap closed.
    pub reordered: u64,
    /// Rejections due to a full queue.
    pub rejected_backpressure: u64,
    /// Rejections due to replayed nonces.
    pub rejected_duplicate: u64,
    /// Rejections due to nonces beyond the reorder window.
    pub rejected_gap: u64,
    /// Rejections due to a tenant exceeding its admission quota.
    pub rejected_tenant_quota: u64,
}

/// The mempool's metric handles: queue depth gauge, admit/reorder
/// counters, and one rejection counter per [`AdmitError`] cause.
#[derive(Clone)]
pub struct MempoolMetrics {
    /// `harmony_mempool_depth` — currently queued transactions.
    pub depth: Gauge,
    /// `harmony_mempool_admitted_total`.
    pub admitted: Counter,
    /// `harmony_mempool_reordered_total` — held out-of-order, admitted
    /// later when the gap closed.
    pub reordered: Counter,
    /// `harmony_mempool_rejected_total{cause=...}`, indexed like
    /// [`AdmitError::CAUSES`].
    pub rejected: [Counter; 4],
    /// `harmony_mempool_tenant_sealed_total{tenant=...}` — transactions
    /// drained into blocks, per tenant (the admission-plane goodput the
    /// overload figure plots). With multi-tenancy off, the one tenant's
    /// counter is kept off the registry.
    pub tenant_sealed: Vec<Counter>,
}

impl MempoolMetrics {
    /// Register the mempool metric family in `registry`, with one sealed
    /// counter per tenant; `tenants` > 1 registers those too.
    #[must_use]
    pub fn register(registry: &Registry, tenants: usize) -> MempoolMetrics {
        let scratch = Registry::new();
        let sealed_in = if tenants > 1 { registry } else { &scratch };
        MempoolMetrics {
            depth: registry.gauge(
                "harmony_mempool_depth",
                "Transactions currently queued for batching (held-back out-of-order ones excluded).",
            ),
            admitted: registry.counter(
                "harmony_mempool_admitted_total",
                "Transactions admitted to the batch queue.",
            ),
            reordered: registry.counter(
                "harmony_mempool_reordered_total",
                "Out-of-order submissions held back, then admitted once the nonce gap closed.",
            ),
            rejected: AdmitError::CAUSES.map(|cause| {
                registry.counter_with(
                    "harmony_mempool_rejected_total",
                    "Submissions refused admission, by cause.",
                    &[("cause", cause)],
                )
            }),
            tenant_sealed: (0..tenants.max(1))
                .map(|t| {
                    sealed_in.counter_with(
                        "harmony_mempool_tenant_sealed_total",
                        "Transactions sealed into blocks, per admission tenant.",
                        &[("tenant", &t.to_string())],
                    )
                })
                .collect(),
        }
    }

    fn rejected_for(&self, err: &AdmitError) -> &Counter {
        let idx = AdmitError::CAUSES
            .iter()
            .position(|c| *c == err.cause_label())
            .expect("every cause is in CAUSES");
        &self.rejected[idx]
    }
}

#[derive(Default)]
struct Session {
    next_nonce: u64,
    held: BTreeMap<u64, PendingTxn>,
}

/// Bounded, nonce-checked, FIFO transaction queue.
pub struct Mempool {
    config: MempoolConfig,
    queue: VecDeque<PendingTxn>,
    sessions: HashMap<u64, Session>,
    /// Queued (not held) transactions per tenant — the quota ledger.
    tenant_queued: Vec<usize>,
    metrics: MempoolMetrics,
}

impl Mempool {
    /// Build an empty mempool whose metrics go to a scratch registry.
    #[must_use]
    pub fn new(config: MempoolConfig) -> Mempool {
        let metrics = MempoolMetrics::register(&Registry::new(), config.tenants);
        Mempool::with_metrics(config, metrics)
    }

    /// Build an empty mempool reporting into the given metric handles,
    /// registered for `config.tenants`.
    #[must_use]
    pub fn with_metrics(config: MempoolConfig, metrics: MempoolMetrics) -> Mempool {
        let tenants = config.tenants.max(1);
        Mempool {
            config,
            queue: VecDeque::new(),
            sessions: HashMap::new(),
            tenant_queued: vec![0; tenants],
            metrics,
        }
    }

    /// The tenant a client session maps to.
    #[must_use]
    pub fn tenant_of(&self, client: u64) -> u64 {
        client % self.config.tenants.max(1) as u64
    }

    /// Admit (or reject) one submission.
    pub fn submit(
        &mut self,
        client: u64,
        nonce: u64,
        submitted_ns: u64,
        contract: Arc<dyn Contract>,
    ) -> Result<(), AdmitError> {
        let tenant = self.tenant_of(client);
        let session = self.sessions.entry(client).or_default();
        if nonce < session.next_nonce || session.held.contains_key(&nonce) {
            return Err(self.reject(AdmitError::Duplicate { client, nonce }));
        }
        // Tenant quota outranks global backpressure: a tenant over its
        // share gets the tenant-specific (actionable) cause even when the
        // queue is also full. Like backpressure, the rejection never
        // consumes the nonce.
        if let Some(quota) = self.config.tenant_quota {
            if self.tenant_queued[tenant as usize] >= quota {
                return Err(self.reject(AdmitError::TenantQuota { client, tenant }));
            }
        }
        if self.queue.len() >= self.config.capacity {
            return Err(self.reject(AdmitError::Backpressure));
        }
        let session = self.sessions.entry(client).or_default();
        let txn = PendingTxn {
            client,
            nonce,
            submitted_ns,
            contract,
        };
        if nonce > session.next_nonce {
            // Out of order (network reordering): hold within the window.
            if session.held.len() >= REORDER_WINDOW
                || nonce - session.next_nonce > REORDER_WINDOW as u64
            {
                let expected = session.next_nonce;
                return Err(self.reject(AdmitError::NonceGap {
                    client,
                    expected,
                    got: nonce,
                }));
            }
            session.held.insert(nonce, txn);
            self.metrics.reordered.inc();
            return Ok(());
        }
        // In order: enqueue, then drain ALL held successors. The drain
        // ignores the capacity bound on purpose: stopping mid-drain would
        // strand the remaining held transactions forever (nothing
        // re-triggers the drain, and a resubmission of a held nonce is a
        // duplicate). Held transactions were admitted under capacity, so
        // the queue can overshoot by at most `REORDER_WINDOW`.
        session.next_nonce = nonce + 1;
        self.queue.push_back(txn);
        self.tenant_queued[tenant as usize] += 1;
        self.metrics.admitted.inc();
        while let Some(held) = session.held.remove(&session.next_nonce) {
            session.next_nonce += 1;
            self.queue.push_back(held);
            // The drain, like the capacity drain above, ignores the
            // tenant quota: stopping would strand the held transactions.
            // All drained txns belong to this session, hence this tenant.
            self.tenant_queued[tenant as usize] += 1;
            self.metrics.admitted.inc();
        }
        self.metrics.depth.set(self.queue.len() as i64);
        Ok(())
    }

    /// Count a rejection against its cause counter and hand the error
    /// back — the single choke point all reject paths flow through.
    fn reject(&self, err: AdmitError) -> AdmitError {
        self.metrics.rejected_for(&err).inc();
        err
    }

    /// Drain up to `max` transactions in admission (FIFO) order — the
    /// deterministic batch the orderer seals into the next block.
    pub fn next_batch(&mut self, max: usize) -> Vec<PendingTxn> {
        let n = max.min(self.queue.len());
        let batch: Vec<PendingTxn> = self.queue.drain(..n).collect();
        for t in &batch {
            let tenant = self.tenant_of(t.client) as usize;
            self.tenant_queued[tenant] = self.tenant_queued[tenant].saturating_sub(1);
            self.metrics.tenant_sealed[tenant].inc();
        }
        self.metrics.depth.set(self.queue.len() as i64);
        batch
    }

    /// Transactions sealed into blocks so far, per tenant.
    #[must_use]
    pub fn tenant_sealed(&self) -> Vec<u64> {
        self.metrics
            .tenant_sealed
            .iter()
            .map(harmony_metrics::Counter::get)
            .collect()
    }

    /// Queued transactions (excluding held-back out-of-order ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether the queue is at capacity (submissions will be rejected).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.config.capacity
    }

    /// Admission counters so far, read out of the metric cells.
    #[must_use]
    pub fn stats(&self) -> MempoolStats {
        let m = &self.metrics;
        MempoolStats {
            admitted: m.admitted.get(),
            reordered: m.reordered.get(),
            rejected_backpressure: m.rejected[0].get(),
            rejected_duplicate: m.rejected[1].get(),
            rejected_gap: m.rejected[2].get(),
            rejected_tenant_quota: m.rejected[3].get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_txn::{FnContract, TxnCtx};

    fn nop() -> Arc<dyn Contract> {
        Arc::new(FnContract::new("nop", |_: &mut TxnCtx<'_>| Ok(())))
    }

    fn pool(capacity: usize) -> Mempool {
        Mempool::new(MempoolConfig {
            capacity,
            ..MempoolConfig::default()
        })
    }

    #[test]
    fn fifo_admission_and_batching() {
        let mut m = pool(10);
        for n in 0..5 {
            m.submit(1, n, n * 10, nop()).unwrap();
        }
        assert_eq!(m.len(), 5);
        let batch = m.next_batch(3);
        assert_eq!(batch.iter().map(|t| t.nonce).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(m.next_batch(10).len(), 2);
        assert!(m.is_empty());
    }

    #[test]
    fn reordered_submissions_are_held_then_admitted_in_order() {
        // Nonces 2 and 1 arrive before 0 (network reordering): they are
        // held, then the whole run drains in nonce order once 0 lands.
        let mut m = pool(10);
        m.submit(5, 2, 0, nop()).unwrap();
        m.submit(5, 1, 0, nop()).unwrap();
        assert!(m.is_empty(), "held txns are not yet batchable");
        m.submit(5, 0, 0, nop()).unwrap();
        let batch = m.next_batch(10);
        assert_eq!(batch.iter().map(|t| t.nonce).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(m.stats().reordered, 2);
        assert_eq!(m.stats().admitted, 3);
    }

    #[test]
    fn duplicate_and_window_rejection() {
        let mut m = pool(10);
        m.submit(7, 0, 0, nop()).unwrap();
        m.submit(7, 1, 0, nop()).unwrap();
        assert_eq!(
            m.submit(7, 1, 0, nop()),
            Err(AdmitError::Duplicate {
                client: 7,
                nonce: 1
            })
        );
        // A held nonce is also a duplicate when replayed.
        m.submit(7, 3, 0, nop()).unwrap();
        assert_eq!(
            m.submit(7, 3, 0, nop()),
            Err(AdmitError::Duplicate {
                client: 7,
                nonce: 3
            })
        );
        // Beyond the reorder window: rejected.
        let past = 2 + REORDER_WINDOW as u64 + 1;
        assert_eq!(
            m.submit(7, past, 0, nop()),
            Err(AdmitError::NonceGap {
                client: 7,
                expected: 2,
                got: past
            })
        );
        // Independent sessions do not interfere.
        m.submit(8, 0, 0, nop()).unwrap();
        assert_eq!(m.stats().rejected_duplicate, 2);
        assert_eq!(m.stats().rejected_gap, 1);
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let mut m = pool(2);
        m.submit(1, 0, 0, nop()).unwrap();
        m.submit(1, 1, 0, nop()).unwrap();
        assert!(m.is_full());
        assert_eq!(m.submit(1, 2, 0, nop()), Err(AdmitError::Backpressure));
        // The rejected nonce was not consumed: after draining, the client
        // can resubmit the same nonce successfully.
        m.next_batch(2);
        m.submit(1, 2, 0, nop()).unwrap();
        assert_eq!(m.stats().rejected_backpressure, 1);
    }

    #[test]
    fn held_drain_completes_past_capacity() {
        // Regression: nonces 0, 2 (held), 1 against capacity 2. The drain
        // triggered by nonce 1 must admit held nonce 2 even though the
        // queue is at capacity — otherwise it is stranded forever (a
        // resubmit would be a duplicate and nothing re-runs the drain).
        let mut m = pool(2);
        m.submit(1, 0, 0, nop()).unwrap();
        m.submit(1, 2, 0, nop()).unwrap(); // held
        m.submit(1, 1, 0, nop()).unwrap(); // fills queue, drains the hold
        let batch = m.next_batch(10);
        assert_eq!(batch.iter().map(|t| t.nonce).collect::<Vec<_>>(), [0, 1, 2]);
        // The session keeps working afterwards.
        m.submit(1, 3, 0, nop()).unwrap();
        assert_eq!(m.next_batch(10).len(), 1);
    }

    #[test]
    fn nonce_exactly_at_window_edge_is_held_one_past_is_dropped() {
        // Watermark 0: nonce W sits exactly at the edge (gap == window)
        // and must be HELD; nonce W + 1 is one past and must take the
        // window-overflow drop path.
        let w = REORDER_WINDOW as u64;
        let mut m = pool(2 * REORDER_WINDOW);
        m.submit(1, w, 0, nop()).unwrap();
        assert_eq!(m.stats().reordered, 1);
        assert_eq!(m.stats().rejected_gap, 0);
        assert_eq!(
            m.submit(1, w + 1, 0, nop()),
            Err(AdmitError::NonceGap {
                client: 1,
                expected: 0,
                got: w + 1
            })
        );
        assert_eq!(m.stats().rejected_gap, 1);
        // The edge nonce is not lost: filling the run drains through it.
        for n in 0..w {
            m.submit(1, n, 0, nop()).unwrap();
        }
        let batch = m.next_batch(2 * REORDER_WINDOW);
        assert_eq!(
            batch.iter().map(|t| t.nonce).collect::<Vec<_>>(),
            (0..=w).collect::<Vec<_>>()
        );
        // After the watermark advanced past the drop, the session
        // continues: W + 1 is now in-order.
        m.submit(1, w + 1, 0, nop()).unwrap();
        assert_eq!(m.next_batch(10).len(), 1);
    }

    #[test]
    fn full_hold_back_window_admits_only_the_in_order_nonce() {
        // Every hold slot occupied (nonces 1..=W held): every in-window
        // nonce is now either a duplicate or the in-order nonce 0 — the
        // hold-back buffer can never exceed the window.
        let w = REORDER_WINDOW as u64;
        let mut m = pool(10);
        for n in 1..=w {
            m.submit(9, n, 0, nop()).unwrap();
        }
        assert!(m.is_empty(), "all held, none batchable");
        assert!(matches!(
            m.submit(9, 3, 0, nop()),
            Err(AdmitError::Duplicate { .. })
        ));
        assert!(matches!(
            m.submit(9, w + 1, 0, nop()),
            Err(AdmitError::NonceGap { .. })
        ));
        m.submit(9, 0, 0, nop()).unwrap();
        assert_eq!(
            m.len(),
            REORDER_WINDOW + 1,
            "nonce 0 drains the whole window"
        );
    }

    #[test]
    fn duplicate_straddling_a_batch_seal() {
        // A nonce replayed *after* its original was sealed into a block
        // must still be rejected (the watermark outlives the queue), and
        // a held nonce replayed across a seal is likewise a duplicate.
        let mut m = pool(10);
        m.submit(2, 0, 0, nop()).unwrap();
        m.submit(2, 1, 0, nop()).unwrap();
        m.submit(2, 3, 0, nop()).unwrap(); // held (2 missing)
        let sealed = m.next_batch(10);
        assert_eq!(sealed.iter().map(|t| t.nonce).collect::<Vec<_>>(), [0, 1]);
        // Replays straddling the seal: one drained, one still held.
        assert_eq!(
            m.submit(2, 1, 0, nop()),
            Err(AdmitError::Duplicate {
                client: 2,
                nonce: 1
            })
        );
        assert_eq!(
            m.submit(2, 3, 0, nop()),
            Err(AdmitError::Duplicate {
                client: 2,
                nonce: 3
            })
        );
        // The straddled hold still drains once the gap closes.
        m.submit(2, 2, 0, nop()).unwrap();
        let batch = m.next_batch(10);
        assert_eq!(batch.iter().map(|t| t.nonce).collect::<Vec<_>>(), [2, 3]);
    }

    #[test]
    fn backpressure_rejects_held_submissions_without_consuming_them() {
        // A full queue rejects out-of-order submissions too (holding them
        // would let an attacker grow per-session state unboundedly), and
        // the rejection must not consume the nonce: once the queue
        // drains, the same nonce is admissible again.
        let mut m = pool(2);
        m.submit(1, 0, 0, nop()).unwrap();
        m.submit(2, 0, 0, nop()).unwrap();
        assert!(m.is_full());
        assert_eq!(m.submit(3, 1, 0, nop()), Err(AdmitError::Backpressure));
        m.next_batch(10);
        m.submit(3, 1, 0, nop()).unwrap(); // held now
        m.submit(3, 0, 0, nop()).unwrap();
        assert_eq!(
            m.next_batch(10).iter().map(|t| t.nonce).collect::<Vec<_>>(),
            [0, 1]
        );
        // Duplicate detection outranks backpressure: a replay against a
        // full queue reports Duplicate (and burns no capacity either way).
        let mut m = pool(1);
        m.submit(7, 0, 0, nop()).unwrap();
        assert!(m.is_full());
        assert_eq!(
            m.submit(7, 0, 0, nop()),
            Err(AdmitError::Duplicate {
                client: 7,
                nonce: 0
            })
        );
        assert_eq!(m.stats().rejected_duplicate, 1);
        assert_eq!(m.stats().rejected_backpressure, 0);
    }

    fn tenant_pool(capacity: usize, tenants: usize, quota: usize) -> Mempool {
        Mempool::new(MempoolConfig {
            capacity,
            tenants,
            tenant_quota: Some(quota),
        })
    }

    #[test]
    fn tenant_quota_rejects_without_consuming_the_nonce() {
        // Mirror of `backpressure_bounds_the_queue`: a quota-rejected
        // nonce must remain admissible after the tenant drains.
        let mut m = tenant_pool(10, 2, 1);
        m.submit(2, 0, 0, nop()).unwrap(); // tenant 0 at quota
        assert_eq!(
            m.submit(4, 0, 0, nop()),
            Err(AdmitError::TenantQuota {
                client: 4,
                tenant: 0
            })
        );
        // The other tenant is unaffected by tenant 0's saturation.
        m.submit(3, 0, 0, nop()).unwrap();
        // Draining frees the quota; the same (client, nonce) is admitted.
        m.next_batch(10);
        m.submit(4, 0, 0, nop()).unwrap();
        assert_eq!(m.stats().rejected_tenant_quota, 1);
        assert_eq!(m.stats().rejected_backpressure, 0);
    }

    #[test]
    fn tenant_quota_isolates_a_hot_tenant() {
        // Tenant 1 (odd clients) floods; tenant 0 must still get its
        // share even though the hot tenant alone could fill capacity.
        let mut m = tenant_pool(8, 2, 4);
        for n in 0..20 {
            let _ = m.submit(1, n, 0, nop());
        }
        assert_eq!(m.len(), 4, "hot tenant capped at its quota");
        for n in 0..4 {
            m.submit(0, n, 0, nop()).unwrap();
        }
        let sealed = m.tenant_sealed();
        assert_eq!(sealed, vec![0, 0], "nothing sealed yet");
        m.next_batch(100);
        assert_eq!(m.tenant_sealed(), vec![4, 4], "fair share per tenant");
        assert!(m.stats().rejected_tenant_quota > 0);
    }

    #[test]
    fn duplicate_outranks_tenant_quota() {
        let mut m = tenant_pool(10, 2, 1);
        m.submit(2, 0, 0, nop()).unwrap();
        assert!(matches!(
            m.submit(2, 0, 0, nop()),
            Err(AdmitError::Duplicate { .. })
        ));
        assert_eq!(m.stats().rejected_tenant_quota, 0);
    }

    #[test]
    fn held_drain_ignores_tenant_quota() {
        // Quota 1: nonce 1 held, nonce 0 lands → the drain pushes the
        // tenant to 2 queued (quota overshoot, like the capacity drain)
        // rather than stranding the held transaction.
        let mut m = tenant_pool(10, 2, 1);
        m.submit(2, 1, 0, nop()).unwrap(); // held (out of order)
        m.submit(2, 0, 0, nop()).unwrap();
        assert_eq!(m.len(), 2);
        let batch = m.next_batch(10);
        assert_eq!(batch.iter().map(|t| t.nonce).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn retryable_causes_exclude_replays() {
        assert!(AdmitError::Backpressure.is_retryable());
        assert!(AdmitError::TenantQuota {
            client: 0,
            tenant: 0
        }
        .is_retryable());
        assert!(AdmitError::NonceGap {
            client: 0,
            expected: 0,
            got: 9
        }
        .is_retryable());
        assert!(!AdmitError::Duplicate {
            client: 0,
            nonce: 0
        }
        .is_retryable());
    }

    #[test]
    fn nonces_survive_batching() {
        // The watermark lives with the session, not the queue: a drained
        // nonce can never be replayed.
        let mut m = pool(10);
        m.submit(3, 0, 0, nop()).unwrap();
        m.next_batch(1);
        assert!(matches!(
            m.submit(3, 0, 0, nop()),
            Err(AdmitError::Duplicate { .. })
        ));
    }
}
