//! Tamper evidence: hash-chained blocks with Merkle roots make any
//! modification of history detectable by back-tracing hashes (§4 of the
//! paper: a tamper-proof input implies a tamper-proof final state under
//! deterministic execution).
//!
//! ```sh
//! cargo run --example tamper_audit
//! ```

use harmonybc::baselines::EngineSpec;
use harmonybc::chain::{ChainConfig, OeChain};
use harmonybc::common::DetRng;
use harmonybc::crypto::{CryptoCost, Verifier};
use harmonybc::workloads::{Workload, Ycsb, YcsbCodec, YcsbConfig};

fn main() -> harmonybc::common::Result<()> {
    let mut chain = OeChain::open(ChainConfig::in_memory(), EngineSpec::default())?;
    let mut workload = Ycsb::new(YcsbConfig {
        keys: 200,
        ..YcsbConfig::default()
    });
    workload.setup(chain.engine())?;
    let codec = YcsbCodec {
        table: workload.table(),
    };

    let mut rng = DetRng::new(99);
    for _ in 0..5 {
        chain.submit_block(workload.next_block(&mut rng, 10), &codec)?;
    }

    // An auditor replays the persisted chain and checks every link.
    let blocks = chain.verify_chain()?;
    println!(
        "audit: {} blocks verified, tip = {}",
        blocks.len(),
        chain.last_hash()
    );

    // An attacker rewrites one transaction inside block 3...
    let mut forged = blocks[2].clone();
    forged.txns[0] = b"\x04\x00ycsbforged-payload".to_vec();
    let verifier = Verifier::new(b"harmonybc-cluster", CryptoCost::free());
    let prev = blocks[1].header.hash();
    match forged.verify(&prev, &verifier) {
        Err(e) => println!("tamper detected: {e}"),
        Ok(()) => unreachable!("forgery must not verify"),
    }

    // ...and even a fully re-sealed forgery breaks the chain linkage:
    // block 4 still points at the original block 3's hash.
    let next_prev_expected = blocks[3].header.prev_hash;
    assert_eq!(next_prev_expected, blocks[2].header.hash());
    println!(
        "block 4 pins block 3 to {} — history is immutable without rewriting every later block",
        &blocks[2].header.hash().to_hex()[..16]
    );
    Ok(())
}
