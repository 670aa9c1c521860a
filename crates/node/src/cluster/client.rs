//! The client role: the open-loop client bank, and the deterministic
//! replay of its submission stream that a real-transport driver sends in
//! its place.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use harmony_common::{DetRng, Result};
use harmony_consensus::net::Transport;
use harmony_metrics::{Counter, Registry};
use harmony_txn::{encode_contract, Contract};
use harmony_workloads::{OpenLoopClients, OpenLoopConfig, Workload};

use super::config::ClusterConfig;
use super::msg::{Msg, TIMER_CLIENT, TIMER_RETRY};
use crate::statesync::RetryPolicy;

/// The open-loop client bank: Poisson arrivals over N sessions with
/// per-session nonces, plus reject-resubmission with backoff. Public so
/// [`super::ClusterNode`] can be public; internals stay private (a real-network
/// cluster replaces this node with an external driver submitting
/// [`Msg::Submit`] frames).
pub struct ClientBank {
    stream: OpenLoopClients,
    generator: Box<dyn Workload>,
    rng: DetRng,
    pending: Option<harmony_workloads::Arrival>,
    load_ns: u64,
    orderer: usize,
    /// Transactions submitted so far (first attempts only).
    pub(super) submitted: u64,
    /// Resubmission policy (`None` = rejects are final).
    retry: Option<RetryPolicy>,
    retry_seed: u64,
    /// Attempts already burned per (client, nonce) session slot.
    attempts: HashMap<(u64, u64), u32>,
    /// Resubmissions waiting out their backoff, keyed by due time.
    retry_heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    retry_pending: HashMap<(u64, u64), (u64, Arc<dyn Contract>)>,
    /// Resubmissions after retryable rejects.
    pub(super) retries: Counter,
    /// Transactions abandoned after exhausting their retry budget.
    pub(super) retry_drops: Counter,
}

impl ClientBank {
    /// The client bank of `cfg`, submitting to node `orderer`; its first
    /// arrival is drawn but not yet scheduled (see
    /// [`ClientBank::first_arrival_ns`]).
    pub(super) fn new(cfg: &ClusterConfig, registry: &Registry, orderer: usize) -> Result<Self> {
        let (mut stream, rng) = submission_streams(cfg.open_loop, cfg.seed);
        let first = stream.next_arrival();
        let (retries, retry_drops) = if cfg.client_retry.is_some() {
            (
                registry.counter(
                    "harmony_client_retries_total",
                    "Client resubmissions after retryable admission rejects.",
                ),
                registry.counter(
                    "harmony_client_retry_drops_total",
                    "Transactions abandoned after exhausting the retry budget.",
                ),
            )
        } else {
            (Counter::detached(), Counter::detached())
        };
        Ok(ClientBank {
            stream,
            generator: cfg.workload.generator()?,
            rng,
            pending: Some(first),
            load_ns: cfg.load_ns,
            orderer,
            submitted: 0,
            retry: cfg.client_retry,
            retry_seed: cfg.seed ^ 0xBACC_0FF5,
            attempts: HashMap::new(),
            retry_heap: BinaryHeap::new(),
            retry_pending: HashMap::new(),
            retries,
            retry_drops,
        })
    }

    pub(super) fn on_message(&mut self, msg: Msg, ctx: &mut dyn Transport<Msg>) {
        if let Msg::Reject {
            client,
            nonce,
            submitted_ns,
            contract,
        } = msg
        {
            self.on_reject(client, nonce, submitted_ns, contract, ctx);
        }
    }

    pub(super) fn on_timer(&mut self, id: u64, ctx: &mut dyn Transport<Msg>) {
        match id {
            TIMER_CLIENT => self.fire(ctx),
            TIMER_RETRY => self.fire_retries(ctx),
            _ => {}
        }
    }

    /// When the harness must fire the first [`TIMER_CLIENT`].
    pub(super) fn first_arrival_ns(&self) -> u64 {
        self.pending.as_ref().map_or(0, |a| a.at_ns)
    }

    fn fire(&mut self, ctx: &mut dyn Transport<Msg>) {
        let Some(arrival) = self.pending.take() else {
            return;
        };
        let contract = self.generator.next_txn(&mut self.rng);
        let bytes = encode_contract(contract.as_ref()).len() as u64 + 24;
        ctx.charge_cpu(500);
        ctx.send(
            self.orderer,
            Msg::Submit {
                client: arrival.client,
                nonce: arrival.nonce,
                submitted_ns: ctx.now(),
                contract,
            },
            bytes,
        );
        self.submitted += 1;
        let next = self.stream.next_arrival();
        if next.at_ns <= self.load_ns {
            ctx.set_timer(next.at_ns.saturating_sub(ctx.now()), TIMER_CLIENT);
            self.pending = Some(next);
        }
    }

    /// A retryable admission reject bounced back: schedule a
    /// resubmission after exponential backoff (deterministic jitter, the
    /// original submission timestamp preserved so latency accounting
    /// keeps charging the queueing delay), or drop the transaction once
    /// its retry budget is spent.
    fn on_reject(
        &mut self,
        client: u64,
        nonce: u64,
        submitted_ns: u64,
        contract: Arc<dyn Contract>,
        ctx: &mut dyn Transport<Msg>,
    ) {
        let Some(policy) = self.retry else {
            return;
        };
        let attempt = self.attempts.entry((client, nonce)).or_insert(0);
        *attempt += 1;
        if *attempt > policy.max_retries {
            self.attempts.remove(&(client, nonce));
            self.retry_drops.inc();
            return;
        }
        let salt = client.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ nonce;
        let wait = policy.backoff_ns(*attempt - 1, self.retry_seed, salt);
        self.retry_heap
            .push(Reverse((ctx.now() + wait, client, nonce)));
        self.retry_pending
            .insert((client, nonce), (submitted_ns, contract));
        ctx.set_timer(wait, TIMER_RETRY);
    }

    /// Resubmit every transaction whose backoff has elapsed.
    fn fire_retries(&mut self, ctx: &mut dyn Transport<Msg>) {
        while let Some(&Reverse((due, client, nonce))) = self.retry_heap.peek() {
            if due > ctx.now() {
                break;
            }
            self.retry_heap.pop();
            let Some((submitted_ns, contract)) = self.retry_pending.remove(&(client, nonce)) else {
                continue;
            };
            let bytes = encode_contract(contract.as_ref()).len() as u64 + 24;
            ctx.charge_cpu(500);
            ctx.send(
                self.orderer,
                Msg::Submit {
                    client,
                    nonce,
                    submitted_ns,
                    contract,
                },
                bytes,
            );
            self.retries.inc();
        }
    }
}

/// The arrivals and contract draws of the client bank for `seed`: the
/// bank, its replay and the load sizing all start here.
fn submission_streams(open_loop: OpenLoopConfig, seed: u64) -> (OpenLoopClients, DetRng) {
    (
        OpenLoopClients::new(open_loop, seed ^ 0xA11),
        DetRng::new(seed ^ 0x7C5),
    )
}

/// One entry of the client bank's deterministic submission stream.
pub struct Submission {
    /// Submitting client session.
    pub client: u64,
    /// The session's nonce for this submission.
    pub nonce: u64,
    /// Arrival instant on the simulator's virtual clock.
    pub at_ns: u64,
    /// The generated contract.
    pub contract: Arc<dyn Contract>,
}

/// Replay the client bank's deterministic generation outside the
/// simulator: the first `n` submissions (arrival order, contracts drawn
/// exactly as [`ClientBank`] draws them). A real-transport driver
/// (`harmonyctl submit`) sends precisely this stream, which is what lets
/// a TCP run be compared root-for-root against a simulator run of the
/// same configuration.
pub fn submission_trace(cfg: &ClusterConfig, n: usize) -> Result<Vec<Submission>> {
    let (mut stream, mut rng) = submission_streams(cfg.open_loop, cfg.seed);
    let generator = cfg.workload.generator()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let arrival = stream.next_arrival();
        let contract = generator.next_txn(&mut rng);
        out.push(Submission {
            client: arrival.client,
            nonce: arrival.nonce,
            at_ns: arrival.at_ns,
            contract,
        });
    }
    Ok(out)
}

/// The virtual instant of the `n`-th arrival of the configured open-loop
/// stream (1-based) — the `load_ns` that makes a simulator run submit
/// exactly `n` transactions. Arrival times are strictly increasing, so a
/// run with this `load_ns` fires arrivals 1..=n and no more.
#[must_use]
pub fn load_ns_for_txns(open_loop: OpenLoopConfig, seed: u64, n: usize) -> u64 {
    let (mut stream, _) = submission_streams(open_loop, seed);
    let mut at = 0;
    for _ in 0..n {
        at = stream.next_arrival().at_ns;
    }
    at
}
