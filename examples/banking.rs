//! Banking scenario: the Smallbank workload on HarmonyBC vs AriaBC under a
//! hot-account storm — the paper's core claim in miniature.
//!
//! ```sh
//! cargo run --release --example banking
//! ```

use harmonybc::baselines::{EngineKind, EngineSpec};
use harmonybc::chain::{ChainConfig, OeChain};
use harmonybc::common::DetRng;
use harmonybc::core::{BlockStats, HarmonyConfig};
use harmonybc::workloads::smallbank::{build_txn, Procedure};
use harmonybc::workloads::{Smallbank, SmallbankConfig, Workload};

fn run(kind: EngineKind) -> harmonybc::common::Result<BlockStats> {
    let mut chain = OeChain::open(ChainConfig::in_memory(), EngineSpec::flat(kind, 8))?;
    let mut bank = Smallbank::new(SmallbankConfig {
        accounts: 1_000,
        theta: 0.0,
        ..SmallbankConfig::default()
    });
    bank.setup(chain.engine())?;
    let (checking, savings) = bank.tables();
    let codec = bank.codec();

    // A payday storm: everyone deposits into a handful of hot merchant
    // accounts — single-statement read-modify-write UPDATEs, the shape
    // Harmony reorders and coalesces while Aria aborts on ww-conflicts.
    let mut rng = DetRng::new(2024);
    let mut totals = BlockStats::default();
    for _ in 0..20 {
        let txns = (0..30)
            .map(|_| {
                let hot = rng.gen_range(5); // 5 hot merchant accounts
                let amount = 1 + rng.gen_range(100) as i64;
                build_txn(
                    checking,
                    savings,
                    Procedure::DepositChecking,
                    hot,
                    0,
                    amount,
                )
            })
            .collect();
        let (_, result) = chain.submit_block(txns, codec.as_ref())?;
        totals.absorb(&result.stats);
    }
    println!(
        "{:>10}: {} committed, {} protocol aborts, abort rate {:.1}%",
        kind.name(),
        totals.committed,
        totals.protocol_aborts(),
        totals.abort_rate() * 100.0
    );
    Ok(totals)
}

fn main() -> harmonybc::common::Result<()> {
    println!("Smallbank deposit storm: 5 hot merchant accounts, 20 blocks × 30 txns:\n");
    let harmony = run(EngineKind::Harmony(HarmonyConfig::default()))?;
    let aria = run(EngineKind::Aria)?;
    println!(
        "\nHarmony committed {:.2}× the transactions per attempt \
         (update reordering turns Aria's ww-aborts into commits).",
        (harmony.committed as f64 / harmony.txns as f64)
            / (aria.committed as f64 / aria.txns as f64)
    );
    Ok(())
}
