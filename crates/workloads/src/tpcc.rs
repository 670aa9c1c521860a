//! TPC-C — the relational benchmark of the paper's §5.6 (Figure 19).
//!
//! Full nine-table schema and all five transaction profiles (NewOrder 45 %,
//! Payment 43 %, OrderStatus 4 %, Delivery 4 %, StockLevel 4 %). The
//! `warehouses` knob is the paper's contention axis: one warehouse makes
//! the district `next_o_id` counter a fierce hotspot (Table 3 reports a
//! 47.9 % backward-dangerous-structure hit rate there), while more
//! warehouses grow the database past the buffer pool.
//!
//! Scaled-down sizing: `scale` multiplies the per-warehouse table
//! cardinalities (spec: 3 000 customers/district, 100 000 stock rows) so
//! laptop runs stay tractable; access *patterns* are unchanged.
//! Simplifications (documented in DESIGN.md): customers are selected by id
//! (no last-name secondary index), and History rows get a random unique
//! suffix instead of a timestamp.

use std::sync::Arc;

use harmony_common::ids::TableId;
use harmony_common::{DetRng, Result};
use harmony_storage::StorageEngine;
use harmony_txn::row::{read_i64, RowBuilder};
use harmony_txn::{Contract, FnContract, Key, TxnCtx, UpdateCommand, UserAbort};

use crate::workload::Workload;

/// Districts per warehouse (spec value).
pub const DISTRICTS: u64 = 10;

/// Probability an order line supplies from a remote warehouse (spec value).
const REMOTE_SUPPLY_PROB: f64 = 0.01;

/// TPC-C configuration.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Cardinality scale factor vs. the spec (1.0 = full size).
    pub scale: f64,
    /// Probability a NewOrder carries an invalid item (1 % rollback rule).
    pub invalid_item_prob: f64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 1,
            scale: 0.05,
            invalid_item_prob: 0.01,
        }
    }
}

impl TpccConfig {
    /// Customers per district after scaling.
    #[must_use]
    pub fn customers_per_district(&self) -> u64 {
        ((3_000.0 * self.scale) as u64).max(10)
    }

    /// Stock rows (and catalog items) after scaling.
    #[must_use]
    pub fn items(&self) -> u64 {
        ((100_000.0 * self.scale) as u64).max(100)
    }

    /// Orders preloaded per district.
    #[must_use]
    pub fn initial_orders(&self) -> u64 {
        self.customers_per_district()
    }
}

/// Table handles (valid after `setup`).
#[derive(Clone, Copy, Debug, Default)]
pub struct TpccTables {
    /// WAREHOUSE.
    pub warehouse: TableId,
    /// DISTRICT.
    pub district: TableId,
    /// CUSTOMER.
    pub customer: TableId,
    /// STOCK.
    pub stock: TableId,
    /// ITEM.
    pub item: TableId,
    /// ORDERS.
    pub orders: TableId,
    /// NEW-ORDER.
    pub new_order: TableId,
    /// ORDER-LINE.
    pub order_line: TableId,
    /// HISTORY.
    pub history: TableId,
}

// ── Row schemas (fixed offsets) ─────────────────────────────────────────
/// warehouse: ytd(0), tax(8).
pub mod wh {
    /// Year-to-date balance.
    pub const YTD: usize = 0;
    /// Tax rate ×10⁴.
    pub const TAX: usize = 8;
}
/// district: next_o_id(0), ytd(8), tax(16).
pub mod dist {
    /// Next order id — the TPC-C hotspot.
    pub const NEXT_O_ID: usize = 0;
    /// Year-to-date balance.
    pub const YTD: usize = 8;
    /// Tax rate ×10⁴.
    pub const TAX: usize = 16;
}
/// customer: balance(0), ytd_payment(8), payment_cnt(16), delivery_cnt(24).
pub mod cust {
    /// Balance.
    pub const BALANCE: usize = 0;
    /// Sum of payments.
    pub const YTD_PAYMENT: usize = 8;
    /// Payment count.
    pub const PAYMENT_CNT: usize = 16;
    /// Delivery count.
    pub const DELIVERY_CNT: usize = 24;
}
/// stock: quantity(0), ytd(8), order_cnt(16), remote_cnt(24).
pub mod stk {
    /// Quantity on hand.
    pub const QUANTITY: usize = 0;
    /// Year-to-date units.
    pub const YTD: usize = 8;
    /// Orders served.
    pub const ORDER_CNT: usize = 16;
    /// Remote orders served.
    pub const REMOTE_CNT: usize = 24;
}
/// orders: c_id(0), entry_d(8), carrier_id(16), ol_cnt(24).
pub mod ord {
    /// Customer id.
    pub const C_ID: usize = 0;
    /// Entry date surrogate.
    pub const ENTRY_D: usize = 8;
    /// Carrier id (0 = undelivered).
    pub const CARRIER_ID: usize = 16;
    /// Order line count.
    pub const OL_CNT: usize = 24;
}
/// order_line: i_id(0), qty(8), amount(16), supply_w(24).
pub mod ol {
    /// Item id.
    pub const I_ID: usize = 0;
    /// Quantity.
    pub const QTY: usize = 8;
    /// Amount ×10².
    pub const AMOUNT: usize = 16;
    /// Supplying warehouse.
    pub const SUPPLY_W: usize = 24;
}

// ── Composite key encoders (big-endian so ranges scan in order) ─────────
fn k_wh(w: u64) -> Vec<u8> {
    w.to_be_bytes().to_vec()
}
fn k_dist(w: u64, d: u64) -> Vec<u8> {
    let mut k = w.to_be_bytes().to_vec();
    k.push(d as u8);
    k
}
fn k_cust(w: u64, d: u64, c: u64) -> Vec<u8> {
    let mut k = k_dist(w, d);
    k.extend_from_slice(&(c as u32).to_be_bytes());
    k
}
fn k_stock(w: u64, i: u64) -> Vec<u8> {
    let mut k = w.to_be_bytes().to_vec();
    k.extend_from_slice(&(i as u32).to_be_bytes());
    k
}
fn k_item(i: u64) -> Vec<u8> {
    (i as u32).to_be_bytes().to_vec()
}
fn k_order(w: u64, d: u64, o: u64) -> Vec<u8> {
    let mut k = k_dist(w, d);
    k.extend_from_slice(&(o as u32).to_be_bytes());
    k
}
fn k_order_line(w: u64, d: u64, o: u64, l: u64) -> Vec<u8> {
    let mut k = k_order(w, d, o);
    k.push(l as u8);
    k
}
fn k_history(w: u64, d: u64, c: u64, uniq: u64) -> Vec<u8> {
    let mut k = k_cust(w, d, c);
    k.extend_from_slice(&uniq.to_be_bytes());
    k
}

fn row4(a: i64, b: i64, c: i64, d: i64, pad: usize) -> bytes::Bytes {
    let mut r = RowBuilder::new();
    r.push_i64(a);
    r.push_i64(b);
    r.push_i64(c);
    r.push_i64(d);
    r.push_pad(pad, 0x20);
    r.finish()
}

/// The TPC-C workload.
pub struct Tpcc {
    config: TpccConfig,
    tables: TpccTables,
}

impl Tpcc {
    /// Build with the given configuration.
    #[must_use]
    pub fn new(config: TpccConfig) -> Tpcc {
        Tpcc {
            config,
            tables: TpccTables::default(),
        }
    }

    /// Table handles (valid after `setup`).
    #[must_use]
    pub fn tables(&self) -> TpccTables {
        self.tables
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    fn new_order_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract> {
        let cfg = &self.config;
        let w = rng.gen_range(cfg.warehouses);
        let d = rng.gen_range(DISTRICTS);
        let c = rng.gen_range(cfg.customers_per_district());
        let n_lines = 5 + rng.gen_range(11);
        let invalid = rng.gen_bool(cfg.invalid_item_prob);
        let lines: Vec<(u64, u64, u64)> = (0..n_lines)
            .map(|l| {
                let item = if invalid && l == n_lines - 1 {
                    u64::MAX // unused item id => rollback
                } else {
                    rng.gen_range(cfg.items())
                };
                let supply_w = if cfg.warehouses > 1 && rng.gen_bool(REMOTE_SUPPLY_PROB) {
                    rng.gen_range(cfg.warehouses)
                } else {
                    w
                };
                (item, supply_w, 1 + rng.gen_range(10))
            })
            .collect();
        build_new_order(self.tables, w, d, c, lines)
    }

    fn payment_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract> {
        let cfg = &self.config;
        let w = rng.gen_range(cfg.warehouses);
        let d = rng.gen_range(DISTRICTS);
        // 15%: customer pays through a remote warehouse/district.
        let (cw, cd) = if cfg.warehouses > 1 && rng.gen_bool(0.15) {
            (rng.gen_range(cfg.warehouses), rng.gen_range(DISTRICTS))
        } else {
            (w, d)
        };
        let c = rng.gen_range(cfg.customers_per_district());
        let amount = 100 + rng.gen_range(500_000) as i64;
        let uniq = rng.next_u64();
        build_payment(self.tables, w, d, cw, cd, c, amount, uniq)
    }

    fn order_status_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract> {
        let cfg = &self.config;
        let w = rng.gen_range(cfg.warehouses);
        let d = rng.gen_range(DISTRICTS);
        let c = rng.gen_range(cfg.customers_per_district());
        build_order_status(self.tables, w, d, c)
    }

    fn delivery_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract> {
        let w = rng.gen_range(self.config.warehouses);
        let carrier = 1 + rng.gen_range(10) as i64;
        build_delivery(self.tables, w, carrier)
    }

    fn stock_level_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract> {
        let w = rng.gen_range(self.config.warehouses);
        let d = rng.gen_range(DISTRICTS);
        let threshold = 10 + rng.gen_range(11) as i64;
        build_stock_level(self.tables, w, d, threshold)
    }
}

// ── Parameter-explicit contract builders (+ payloads) ───────────────────
// Every procedure is a pure function of (tables, sampled parameters), and
// its payload encodes exactly those parameters — so the node runtime's
// logical block log can reconstruct an executable contract through
// [`TpccCodec`] for replicated delivery, crash replay, and state-sync.

fn payload_u64s(vals: &[u64]) -> Vec<u8> {
    let mut p = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        p.extend_from_slice(&v.to_le_bytes());
    }
    p
}

fn read_u64s<const N: usize>(payload: &[u8]) -> Result<[u64; N]> {
    if payload.len() < N * 8 {
        return Err(harmony_common::Error::Corruption(format!(
            "tpcc payload too short: {} < {}",
            payload.len(),
            N * 8
        )));
    }
    let mut out = [0u64; N];
    for (i, v) in out.iter_mut().enumerate() {
        *v = u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
    }
    Ok(out)
}

/// NewOrder for explicit parameters; `lines` is `(item, supply_w, qty)`.
///
/// Declares its footprint, so a sharded router can place it without a
/// reconnaissance run. The declaration is *prefix-complete*: the order
/// id is handed out by the district row at execution time, so the
/// orders/new-order/order-line keys cannot be named in advance — but
/// every one of them starts with the home warehouse's 8 bytes, and the
/// declared set carries an order-id-zero guard key per order table with
/// that same prefix. Under `harmony_shard::Partitioning::Prefix` (the
/// recommended TPC-C partitioning) the guards pin exactly the partitions
/// the real keys will land on, so an all-local order runs single-shard;
/// under whole-row hashing the guards scatter and the order keeps
/// today's conservative cross-shard route. Item reads ride along in the
/// declaration and are discounted by routers that replicate the
/// read-only `item` table on every shard.
#[must_use]
pub fn build_new_order(
    t: TpccTables,
    w: u64,
    d: u64,
    c: u64,
    lines: Vec<(u64, u64, u64)>,
) -> Arc<dyn Contract> {
    let mut payload = payload_u64s(&[w, d, c, lines.len() as u64]);
    for (item, supply_w, qty) in &lines {
        payload.extend_from_slice(&payload_u64s(&[*item, *supply_w, *qty]));
    }
    let mut footprint = vec![
        Key::new(t.warehouse, k_wh(w)),
        Key::new(t.district, k_dist(w, d)),
        // Order-id-zero guard keys: stand-ins for the execution-time
        // o_id rows, sharing their warehouse prefix.
        Key::new(t.orders, k_order(w, d, 0)),
        Key::new(t.new_order, k_order(w, d, 0)),
        Key::new(t.order_line, k_order_line(w, d, 0, 0)),
    ];
    for (item, supply_w, _) in &lines {
        footprint.push(Key::new(t.item, k_item(*item)));
        footprint.push(Key::new(t.stock, k_stock(*supply_w, *item)));
    }
    Arc::new(
        FnContract::new("tpcc-neworder", move |ctx: &mut TxnCtx<'_>| {
            let err = |e: harmony_common::Error| UserAbort(e.to_string());
            // Warehouse + district taxes; district hands out the order id.
            let wrow = ctx
                .read(&Key::new(t.warehouse, k_wh(w)))
                .map_err(err)?
                .ok_or_else(|| UserAbort("missing warehouse".into()))?;
            let _w_tax = read_i64(&wrow, wh::TAX).map_err(err)?;
            let drow = ctx
                .read(&Key::new(t.district, k_dist(w, d)))
                .map_err(err)?
                .ok_or_else(|| UserAbort("missing district".into()))?;
            let o_id = read_i64(&drow, dist::NEXT_O_ID).map_err(err)? as u64;
            let _d_tax = read_i64(&drow, dist::TAX).map_err(err)?;
            ctx.add_i64(Key::new(t.district, k_dist(w, d)), dist::NEXT_O_ID, 1);

            let mut total = 0i64;
            for (l, (item, supply_w, qty)) in lines.iter().enumerate() {
                // 1% rule: invalid item rolls the whole order back.
                let Some(irow) = ctx.read(&Key::new(t.item, k_item(*item))).map_err(err)? else {
                    return Err(UserAbort("invalid item".into()));
                };
                let price = read_i64(&irow, 0).map_err(err)?;
                let srow = ctx
                    .read(&Key::new(t.stock, k_stock(*supply_w, *item)))
                    .map_err(err)?
                    .ok_or_else(|| UserAbort("missing stock".into()))?;
                let quantity = read_i64(&srow, stk::QUANTITY).map_err(err)?;
                let delta = if quantity - (*qty as i64) >= 10 {
                    -(*qty as i64)
                } else {
                    91 - (*qty as i64)
                };
                let skey = Key::new(t.stock, k_stock(*supply_w, *item));
                ctx.add_i64(skey.clone(), stk::QUANTITY, delta);
                ctx.add_i64(skey.clone(), stk::YTD, *qty as i64);
                ctx.add_i64(skey.clone(), stk::ORDER_CNT, 1);
                if *supply_w != w {
                    ctx.add_i64(skey, stk::REMOTE_CNT, 1);
                }
                let amount = price * (*qty as i64);
                total += amount;
                ctx.put(
                    Key::new(t.order_line, k_order_line(w, d, o_id, l as u64)),
                    row4(*item as i64, *qty as i64, amount, *supply_w as i64, 8),
                );
            }
            let _ = total;
            ctx.put(
                Key::new(t.orders, k_order(w, d, o_id)),
                row4(c as i64, o_id as i64, 0, lines.len() as i64, 8),
            );
            ctx.put(
                Key::new(t.new_order, k_order(w, d, o_id)),
                bytes::Bytes::from_static(&[1]),
            );
            Ok(())
        })
        .with_payload(payload)
        .with_footprint(footprint),
    )
}

/// Payment for explicit parameters.
///
/// Declares its complete point-key footprint — all four rows it touches
/// are pure functions of the sampled parameters. The 85% of payments
/// whose customer lives in the home warehouse are single-partition
/// under a prefix partitioner; remote payments legitimately span two
/// warehouses and stay on the cross-shard path.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn build_payment(
    t: TpccTables,
    w: u64,
    d: u64,
    cw: u64,
    cd: u64,
    c: u64,
    amount: i64,
    uniq: u64,
) -> Arc<dyn Contract> {
    let payload = payload_u64s(&[w, d, cw, cd, c, amount as u64, uniq]);
    let footprint = vec![
        Key::new(t.warehouse, k_wh(w)),
        Key::new(t.district, k_dist(w, d)),
        Key::new(t.customer, k_cust(cw, cd, c)),
        Key::new(t.history, k_history(cw, cd, c, uniq)),
    ];
    Arc::new(
        FnContract::new("tpcc-payment", move |ctx: &mut TxnCtx<'_>| {
            let err = |e: harmony_common::Error| UserAbort(e.to_string());
            // Single-statement RMWs (the paper's recommended contract
            // style): warehouse/district YTD never need reading first.
            ctx.add_i64(Key::new(t.warehouse, k_wh(w)), wh::YTD, amount);
            ctx.add_i64(Key::new(t.district, k_dist(w, d)), dist::YTD, amount);
            let ckey = Key::new(t.customer, k_cust(cw, cd, c));
            let crow = ctx
                .read(&ckey)
                .map_err(err)?
                .ok_or_else(|| UserAbort("missing customer".into()))?;
            let _balance = read_i64(&crow, cust::BALANCE).map_err(err)?;
            ctx.add_i64(ckey.clone(), cust::BALANCE, -amount);
            ctx.add_i64(ckey.clone(), cust::YTD_PAYMENT, amount);
            ctx.add_i64(ckey, cust::PAYMENT_CNT, 1);
            ctx.put(
                Key::new(t.history, k_history(cw, cd, c, uniq)),
                row4(amount, w as i64, d as i64, 0, 0),
            );
            Ok(())
        })
        .with_payload(payload)
        .with_footprint(footprint),
    )
}

/// OrderStatus for explicit parameters.
#[must_use]
pub fn build_order_status(t: TpccTables, w: u64, d: u64, c: u64) -> Arc<dyn Contract> {
    let payload = payload_u64s(&[w, d, c]);
    Arc::new(
        FnContract::new("tpcc-orderstatus", move |ctx: &mut TxnCtx<'_>| {
            let err = |e: harmony_common::Error| UserAbort(e.to_string());
            let _ = ctx
                .read(&Key::new(t.customer, k_cust(w, d, c)))
                .map_err(err)?;
            // Most recent order of the customer: scan the district's
            // orders from the end (bounded window).
            let rows = ctx
                .scan(t.orders, &k_dist(w, d), Some(&k_dist(w, d + 1)), 10_000)
                .map_err(err)?;
            let last = rows
                .iter()
                .rev()
                .find(|(_, v)| read_i64(v, ord::C_ID).unwrap_or(-1) == c as i64);
            if let Some((okey, orow)) = last {
                let o_id = u64::from(u32::from_be_bytes(
                    okey[okey.len() - 4..].try_into().expect("4 bytes"),
                ));
                let n = read_i64(orow, ord::OL_CNT).map_err(err)? as u64;
                let _lines = ctx
                    .scan(
                        t.order_line,
                        &k_order_line(w, d, o_id, 0),
                        Some(&k_order_line(w, d, o_id, n + 1)),
                        32,
                    )
                    .map_err(err)?;
            }
            Ok(())
        })
        .with_payload(payload),
    )
}

/// Delivery for explicit parameters.
#[must_use]
pub fn build_delivery(t: TpccTables, w: u64, carrier: i64) -> Arc<dyn Contract> {
    let payload = payload_u64s(&[w, carrier as u64]);
    Arc::new(
        FnContract::new("tpcc-delivery", move |ctx: &mut TxnCtx<'_>| {
            let err = |e: harmony_common::Error| UserAbort(e.to_string());
            for d in 0..DISTRICTS {
                // Oldest undelivered order in the district.
                let oldest = ctx
                    .scan(t.new_order, &k_dist(w, d), Some(&k_dist(w, d + 1)), 1)
                    .map_err(err)?;
                let Some((no_key, _)) = oldest.first() else {
                    continue;
                };
                let o_id = u64::from(u32::from_be_bytes(
                    no_key[no_key.len() - 4..].try_into().expect("4 bytes"),
                ));
                ctx.delete(Key::new(t.new_order, k_order(w, d, o_id)));
                let okey = Key::new(t.orders, k_order(w, d, o_id));
                let Some(orow) = ctx.read(&okey).map_err(err)? else {
                    continue;
                };
                let c = read_i64(&orow, ord::C_ID).map_err(err)? as u64;
                let n = read_i64(&orow, ord::OL_CNT).map_err(err)? as u64;
                ctx.update(
                    okey,
                    UpdateCommand::SetBytes {
                        offset: ord::CARRIER_ID,
                        bytes: bytes::Bytes::from(carrier.to_le_bytes().to_vec()),
                    },
                );
                let lines = ctx
                    .scan(
                        t.order_line,
                        &k_order_line(w, d, o_id, 0),
                        Some(&k_order_line(w, d, o_id, n + 1)),
                        32,
                    )
                    .map_err(err)?;
                let total: i64 = lines
                    .iter()
                    .map(|(_, v)| read_i64(v, ol::AMOUNT).unwrap_or(0))
                    .sum();
                let ckey = Key::new(t.customer, k_cust(w, d, c));
                ctx.add_i64(ckey.clone(), cust::BALANCE, total);
                ctx.add_i64(ckey, cust::DELIVERY_CNT, 1);
            }
            Ok(())
        })
        .with_payload(payload),
    )
}

/// StockLevel for explicit parameters.
#[must_use]
pub fn build_stock_level(t: TpccTables, w: u64, d: u64, threshold: i64) -> Arc<dyn Contract> {
    let payload = payload_u64s(&[w, d, threshold as u64]);
    Arc::new(
        FnContract::new("tpcc-stocklevel", move |ctx: &mut TxnCtx<'_>| {
            let err = |e: harmony_common::Error| UserAbort(e.to_string());
            let drow = ctx
                .read(&Key::new(t.district, k_dist(w, d)))
                .map_err(err)?
                .ok_or_else(|| UserAbort("missing district".into()))?;
            let next_o = read_i64(&drow, dist::NEXT_O_ID).map_err(err)? as u64;
            let from = next_o.saturating_sub(20);
            let lines = ctx
                .scan(
                    t.order_line,
                    &k_order_line(w, d, from, 0),
                    Some(&k_order_line(w, d, next_o, 0)),
                    512,
                )
                .map_err(err)?;
            let mut low = 0u32;
            let mut seen = std::collections::HashSet::new();
            for (_, v) in &lines {
                let item = read_i64(v, ol::I_ID).map_err(err)? as u64;
                if !seen.insert(item) {
                    continue;
                }
                if let Some(srow) = ctx
                    .read(&Key::new(t.stock, k_stock(w, item)))
                    .map_err(err)?
                {
                    if read_i64(&srow, stk::QUANTITY).map_err(err)? < threshold {
                        low += 1;
                    }
                }
            }
            let _ = low;
            Ok(())
        })
        .with_payload(payload),
    )
}

/// [`harmony_txn::ContractCodec`] for the five TPC-C procedures — the
/// smart-contract registry a replica needs to replay TPC-C blocks from
/// the logical log (and what wires TPC-C into the cluster runtime).
pub struct TpccCodec {
    /// Table handles (from `Tpcc::tables` after setup).
    pub tables: TpccTables,
}

impl harmony_txn::ContractCodec for TpccCodec {
    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn Contract>> {
        let (name, payload) = harmony_txn::split_encoded(bytes)?;
        let t = self.tables;
        match name {
            "tpcc-neworder" => {
                let [w, d, c, n_lines] = read_u64s::<4>(payload)?;
                let body = &payload[32..];
                if n_lines.checked_mul(24) != Some(body.len() as u64) {
                    return Err(harmony_common::Error::Corruption(format!(
                        "neworder lines truncated: {} bytes for {n_lines} lines",
                        body.len()
                    )));
                }
                let lines: Vec<(u64, u64, u64)> = (0..n_lines as usize)
                    .map(|l| {
                        let [item, supply_w, qty] =
                            read_u64s::<3>(&body[l * 24..]).expect("length checked");
                        (item, supply_w, qty)
                    })
                    .collect();
                Ok(build_new_order(t, w, d, c, lines))
            }
            "tpcc-payment" => {
                let [w, d, cw, cd, c, amount, uniq] = read_u64s::<7>(payload)?;
                Ok(build_payment(t, w, d, cw, cd, c, amount as i64, uniq))
            }
            "tpcc-orderstatus" => {
                let [w, d, c] = read_u64s::<3>(payload)?;
                Ok(build_order_status(t, w, d, c))
            }
            "tpcc-delivery" => {
                let [w, carrier] = read_u64s::<2>(payload)?;
                Ok(build_delivery(t, w, carrier as i64))
            }
            "tpcc-stocklevel" => {
                let [w, d, threshold] = read_u64s::<3>(payload)?;
                Ok(build_stock_level(t, w, d, threshold as i64))
            }
            other => Err(harmony_common::Error::Corruption(format!(
                "not a tpcc contract: {other}"
            ))),
        }
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &'static str {
        "TPC-C"
    }

    fn create_tables(&mut self, engine: &StorageEngine) -> Result<()> {
        self.tables = TpccTables {
            warehouse: engine.create_table("warehouse")?,
            district: engine.create_table("district")?,
            customer: engine.create_table("customer")?,
            stock: engine.create_table("stock")?,
            item: engine.create_table("item")?,
            orders: engine.create_table("orders")?,
            new_order: engine.create_table("new_order")?,
            order_line: engine.create_table("order_line")?,
            history: engine.create_table("history")?,
        };
        Ok(())
    }

    fn setup(&mut self, engine: &StorageEngine) -> Result<()> {
        self.create_tables(engine)?;
        let t = self.tables;
        let cfg = &self.config;
        let mut load_rng = DetRng::new(0x7BCC_1234);
        for i in 0..cfg.items() {
            // price in cents, 100..10000
            let price = 100 + load_rng.gen_range(9_900) as i64;
            engine.put(t.item, &k_item(i), &row4(price, 0, 0, 0, 8))?;
        }
        for w in 0..cfg.warehouses {
            let tax = load_rng.gen_range(2_000) as i64;
            engine.put(t.warehouse, &k_wh(w), &row4(0, tax, 0, 0, 16))?;
            for i in 0..cfg.items() {
                let qty = 10 + load_rng.gen_range(91) as i64;
                engine.put(t.stock, &k_stock(w, i), &row4(qty, 0, 0, 0, 16))?;
            }
            for d in 0..DISTRICTS {
                let n_orders = cfg.initial_orders();
                engine.put(
                    t.district,
                    &k_dist(w, d),
                    &row4(n_orders as i64, 0, load_rng.gen_range(2_000) as i64, 0, 16),
                )?;
                for c in 0..cfg.customers_per_district() {
                    engine.put(t.customer, &k_cust(w, d, c), &row4(-1_000, 1_000, 1, 0, 32))?;
                }
                // Preloaded orders: one per customer, newest 30% undelivered.
                for o in 0..n_orders {
                    let c = o % cfg.customers_per_district();
                    let n_lines = 5 + load_rng.gen_range(11);
                    let delivered = o < n_orders * 7 / 10;
                    engine.put(
                        t.orders,
                        &k_order(w, d, o),
                        &row4(
                            c as i64,
                            o as i64,
                            if delivered { 1 } else { 0 },
                            n_lines as i64,
                            8,
                        ),
                    )?;
                    if !delivered {
                        engine.put(t.new_order, &k_order(w, d, o), &[1])?;
                    }
                    for l in 0..n_lines {
                        let item = load_rng.gen_range(cfg.items());
                        engine.put(
                            t.order_line,
                            &k_order_line(w, d, o, l),
                            &row4(item as i64, 5, 500, w as i64, 8),
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    fn codec(&self) -> Arc<dyn harmony_txn::ContractCodec> {
        Arc::new(TpccCodec {
            tables: self.tables,
        })
    }

    fn next_txn(&self, rng: &mut DetRng) -> Arc<dyn Contract> {
        // Standard mix: 45/43/4/4/4.
        match rng.weighted_index(&[45.0, 43.0, 4.0, 4.0, 4.0]) {
            0 => self.new_order_txn(rng),
            1 => self.payment_txn(rng),
            2 => self.order_status_txn(rng),
            3 => self.delivery_txn(rng),
            _ => self.stock_level_txn(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::executor::ExecBlock;
    use harmony_core::{BlockExecutor, HarmonyConfig, SnapshotStore};
    use harmony_storage::StorageConfig;

    fn tiny_config() -> TpccConfig {
        TpccConfig {
            warehouses: 2,
            scale: 0.01,
            ..TpccConfig::default()
        }
    }

    fn setup_tpcc(config: TpccConfig) -> (Arc<StorageEngine>, Tpcc) {
        let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
        let mut w = Tpcc::new(config);
        w.setup(&engine).unwrap();
        (engine, w)
    }

    #[test]
    fn setup_populates_all_tables() {
        let (engine, w) = setup_tpcc(tiny_config());
        let t = w.tables();
        let cfg = w.config();
        assert_eq!(engine.table_len(t.warehouse).unwrap(), 2);
        assert_eq!(engine.table_len(t.district).unwrap(), 2 * DISTRICTS);
        assert_eq!(
            engine.table_len(t.customer).unwrap(),
            2 * DISTRICTS * cfg.customers_per_district()
        );
        assert_eq!(engine.table_len(t.stock).unwrap(), 2 * cfg.items());
        assert_eq!(engine.table_len(t.item).unwrap(), cfg.items());
        assert!(engine.table_len(t.orders).unwrap() > 0);
        assert!(engine.table_len(t.new_order).unwrap() > 0);
        assert!(engine.table_len(t.order_line).unwrap() > 0);
    }

    #[test]
    fn full_mix_runs_under_harmony() {
        let (engine, w) = setup_tpcc(tiny_config());
        let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
        let exec = BlockExecutor::new(Arc::clone(&store), HarmonyConfig::default());
        let mut rng = DetRng::new(7);
        let mut totals = harmony_core::BlockStats::default();
        let mut names = std::collections::HashSet::new();
        let mut prev = None;
        for b in 1..=8u64 {
            let txns = w.next_block(&mut rng, 15);
            for t in &txns {
                names.insert(t.name().to_string());
            }
            let block = ExecBlock::new(harmony_common::BlockId(b), txns);
            let res = exec.execute(&block, prev.as_ref()).unwrap();
            totals.absorb(&res.stats);
            prev = Some(res.summary);
        }
        assert_eq!(totals.txns, 120);
        assert!(
            totals.committed > 60,
            "most TPC-C txns must commit: {totals}"
        );
        assert!(names.len() >= 4, "mix variety: {names:?}");
    }

    #[test]
    fn new_order_increments_district_counter() {
        let (engine, w) = setup_tpcc(TpccConfig {
            warehouses: 1,
            scale: 0.01,
            invalid_item_prob: 0.0,
        });
        let t = w.tables();
        let before = {
            let row = engine.get(t.district, &k_dist(0, 0)).unwrap().unwrap();
            read_i64(&row, dist::NEXT_O_ID).unwrap()
        };
        let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
        let exec = BlockExecutor::new(Arc::clone(&store), HarmonyConfig::default());
        // Run enough NewOrders that district (0,0) is hit.
        let mut rng = DetRng::new(1);
        let mut committed_neworders = 0usize;
        let mut prev = None;
        for b in 1..=6u64 {
            let txns: Vec<_> = (0..10).map(|_| w.new_order_txn(&mut rng)).collect();
            let block = ExecBlock::new(harmony_common::BlockId(b), txns);
            let res = exec.execute(&block, prev.as_ref()).unwrap();
            committed_neworders += res.stats.committed;
            prev = Some(res.summary);
        }
        let after = {
            let row = engine.get(t.district, &k_dist(0, 0)).unwrap().unwrap();
            read_i64(&row, dist::NEXT_O_ID).unwrap()
        };
        assert!(committed_neworders > 0);
        // The counter moved (this district serves ~1/10 of the orders).
        assert!(after >= before, "next_o_id never decreases");
    }

    /// The commit step is a function of the block: NewOrder blocks whose
    /// inserts split leaves, committed by one worker and by four on fresh
    /// stores under the default cost model, charge every transaction alike
    /// and leave the same page bytes. The pool holds the whole state, so
    /// the simulation step's reads, made on the worker team, hit.
    #[test]
    fn a_new_order_block_commits_alike_on_any_worker_count() {
        let commit = |workers: usize| {
            let engine = Arc::new(
                StorageEngine::open(&StorageConfig {
                    cost: harmony_storage::StorageCost::default(),
                    ..StorageConfig::default()
                })
                .unwrap(),
            );
            let mut w = Tpcc::new(TpccConfig {
                warehouses: 4,
                scale: 0.01,
                invalid_item_prob: 0.0,
            });
            w.setup(&engine).unwrap();
            let pages_loaded = engine.pool().disk().page_count();
            let store = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
            let config = HarmonyConfig {
                workers,
                ..HarmonyConfig::default()
            };
            let exec = BlockExecutor::new(store, config);
            let mut rng = DetRng::new(11);
            let (mut charges, mut committed, mut prev) = (Vec::new(), 0, None);
            for b in 1..=6u64 {
                let txns: Vec<_> = (0..60).map(|_| w.new_order_txn(&mut rng)).collect();
                let block = ExecBlock::new(harmony_common::BlockId(b), txns);
                let res = exec.execute(&block, prev.as_ref()).unwrap();
                charges.extend(res.results.iter().map(|r| r.commit_ns));
                committed += res.stats.committed;
                prev = Some(res.summary);
            }
            assert!(
                engine.pool().disk().page_count() > pages_loaded,
                "the blocks' inserts must split leaves"
            );
            engine.pool().flush_all().unwrap();
            let disk = engine.pool().disk();
            let pages: Vec<Vec<u8>> = (0..disk.page_count())
                .map(|id| {
                    let mut buf = harmony_storage::PageBuf::zeroed();
                    disk.read_page(harmony_storage::PageId(id), &mut buf)
                        .unwrap();
                    buf.bytes().to_vec()
                })
                .collect();
            (committed, charges, pages)
        };
        let (one, four) = (commit(1), commit(4));
        assert!(one.0 > 60, "too few NewOrders commit: {}", one.0);
        assert_eq!(one.1, four.1, "per-transaction commit charges");
        assert!(one.2 == four.2, "page bytes differ");
    }

    #[test]
    fn single_warehouse_is_contended() {
        // W=1: concurrent NewOrders on one district conflict via the
        // next_o_id read-modify-write — Table 3's 47.9% hit rate driver.
        let (engine, w) = setup_tpcc(TpccConfig {
            warehouses: 1,
            scale: 0.01,
            invalid_item_prob: 0.0,
        });
        let store = Arc::new(SnapshotStore::new(engine));
        let exec = BlockExecutor::new(Arc::clone(&store), HarmonyConfig::default());
        let mut rng = DetRng::new(3);
        let mut totals = harmony_core::BlockStats::default();
        let mut prev = None;
        for b in 1..=5u64 {
            let txns: Vec<_> = (0..30).map(|_| w.new_order_txn(&mut rng)).collect();
            let block = ExecBlock::new(harmony_common::BlockId(b), txns);
            let res = exec.execute(&block, prev.as_ref()).unwrap();
            totals.absorb(&res.stats);
            prev = Some(res.summary);
        }
        assert!(
            totals.protocol_aborts() > 10,
            "1-warehouse NewOrder storm must conflict: {totals}"
        );
    }

    #[test]
    fn codec_roundtrip_re_executes_identically() {
        // Encoding a generated contract and decoding it back must yield a
        // contract with the same name and payload (the payload is the
        // complete parameter set), and the decoded contract must produce
        // the same writes when run against identical state.
        let (engine_a, w) = setup_tpcc(tiny_config());
        let (engine_b, w2) = setup_tpcc(tiny_config());
        assert_eq!(w.tables().orders, w2.tables().orders);
        let codec = TpccCodec { tables: w.tables() };
        let mut rng = DetRng::new(17);
        let mut seen = std::collections::HashSet::new();
        // One executed roundtrip: original and decoded contracts must make
        // the same decisions against identical databases.
        let orig = w.next_txn(&mut rng);
        seen.insert(orig.name().to_string());
        let bytes = harmony_txn::ContractCodec::encode(&codec, orig.as_ref());
        let decoded = harmony_txn::ContractCodec::decode(&codec, &bytes).unwrap();
        assert_eq!(decoded.name(), orig.name());
        assert_eq!(decoded.payload(), orig.payload());
        let store_a = Arc::new(SnapshotStore::new(Arc::clone(&engine_a)));
        let store_b = Arc::new(SnapshotStore::new(Arc::clone(&engine_b)));
        let ea = BlockExecutor::new(store_a, HarmonyConfig::default());
        let eb = BlockExecutor::new(store_b, HarmonyConfig::default());
        let ra = ea
            .execute(
                &ExecBlock::new(harmony_common::BlockId(1), vec![orig]),
                None,
            )
            .unwrap();
        let rb = eb
            .execute(
                &ExecBlock::new(harmony_common::BlockId(1), vec![decoded]),
                None,
            )
            .unwrap();
        assert_eq!(
            ra.results.iter().map(|r| r.outcome).collect::<Vec<_>>(),
            rb.results.iter().map(|r| r.outcome).collect::<Vec<_>>(),
        );
        // Cover all five procedures through the codec without executing.
        let mut rng = DetRng::new(99);
        for _ in 0..200 {
            let orig = w.next_txn(&mut rng);
            let bytes = harmony_txn::ContractCodec::encode(&codec, orig.as_ref());
            let decoded = harmony_txn::ContractCodec::decode(&codec, &bytes).unwrap();
            assert_eq!(decoded.payload(), orig.payload());
            seen.insert(orig.name().to_string());
        }
        assert_eq!(seen.len(), 5, "all procedures covered: {seen:?}");
        // Foreign contracts are rejected.
        let foreign = harmony_txn::encode_contract(&harmony_txn::FnContract::new(
            "sb-deposit",
            |_: &mut TxnCtx<'_>| Ok(()),
        ));
        assert!(harmony_txn::ContractCodec::decode(&codec, &foreign).is_err());
    }

    #[test]
    fn deterministic_generation() {
        let (_, w) = setup_tpcc(tiny_config());
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        for _ in 0..30 {
            assert_eq!(w.next_txn(&mut a).name(), w.next_txn(&mut b).name());
        }
    }

    struct EngineView<'a>(&'a StorageEngine);

    impl harmony_txn::SnapshotView for EngineView<'_> {
        fn get(&self, key: &Key) -> Result<Option<harmony_txn::Value>> {
            Ok(self
                .0
                .get(key.table(), key.row())?
                .map(harmony_txn::Value::from))
        }
        fn scan(
            &self,
            table: TableId,
            start: &[u8],
            end: Option<&[u8]>,
            f: &mut dyn FnMut(&[u8], &harmony_txn::Value) -> bool,
        ) -> Result<()> {
            self.0.scan(table, start, end, |k, v| {
                f(k, &harmony_txn::Value::copy_from_slice(v))
            })
        }
    }

    /// The routing soundness property behind single-shard TPC-C: every
    /// key a declared contract actually touches is either declared
    /// outright, shares its leading 8 row bytes (the warehouse id) with
    /// a declared key of any table — so a prefix partitioner places it
    /// identically — or lives in the replicated `item` table.
    #[test]
    fn declared_footprints_are_prefix_complete() {
        let (engine, w) = setup_tpcc(tiny_config());
        let t = w.tables();
        let view = EngineView(&engine);
        let prefix = |k: &Key| -> Vec<u8> {
            let row = k.row();
            row[..row.len().min(8)].to_vec()
        };
        let mut rng = DetRng::new(0xF00D);
        let mut checked = std::collections::HashSet::new();
        for _ in 0..300 {
            let txn = w.next_txn(&mut rng);
            let Some(declared) = txn.declared_keys() else {
                // Scan-heavy procedures stay undeclared (conservative
                // cross-shard routing).
                assert!(
                    ["tpcc-orderstatus", "tpcc-delivery", "tpcc-stocklevel"].contains(&txn.name()),
                    "{} must declare a footprint",
                    txn.name()
                );
                continue;
            };
            let declared_prefixes: std::collections::HashSet<Vec<u8>> =
                declared.iter().map(prefix).collect();
            let declared: Vec<Key> = declared.to_vec();
            let mut ctx = TxnCtx::new(&view);
            // Executed on genesis state; user aborts (invalid item)
            // still leave a partial rwset worth checking.
            let _ = txn.execute(&mut ctx);
            let rwset = ctx.into_rwset();
            let touched: Vec<Key> = rwset
                .reads
                .iter()
                .map(|r| r.key.clone())
                .chain(rwset.updates.iter().map(|(k, _)| k.clone()))
                .collect();
            assert!(!touched.is_empty(), "{} touched nothing", txn.name());
            for key in touched {
                let covered = declared.contains(&key)
                    || key.table() == t.item
                    || declared_prefixes.contains(&prefix(&key));
                assert!(
                    covered,
                    "{}: touched key {key:?} not covered by the declared footprint",
                    txn.name()
                );
            }
            checked.insert(txn.name().to_string());
        }
        assert!(
            checked.contains("tpcc-neworder") && checked.contains("tpcc-payment"),
            "both declared procedures must be exercised: {checked:?}"
        );
    }
}
