//! Absolute state roots of two chains, pinned in hex.
//!
//! Every other commitment test compares the chain's root with another
//! computation of the same root (the full-scan oracle, a recovered or
//! synced peer). These fix the value itself: twenty blocks of a fixed seed
//! on a Smallbank and on a TPC-C chain, whose roots cover 8-byte and
//! 12- to 24-byte keys, inserts and deletes.

use harmony_chain::{ChainConfig, OeChain};
use harmony_common::DetRng;
use harmony_core::HarmonyConfig;
use harmony_dcc_baselines::{EngineKind, EngineSpec};
use harmony_workloads::{Smallbank, SmallbankConfig, Tpcc, TpccConfig, Workload};

fn root_after_20_blocks(mut workload: Box<dyn Workload>, seed: u64) -> String {
    let spec = EngineSpec::flat(EngineKind::Harmony(HarmonyConfig::default()), 2);
    let mut chain = OeChain::open(ChainConfig::in_memory(), spec).unwrap();
    workload.setup(chain.engine()).unwrap();
    let codec = workload.codec();
    let mut rng = DetRng::new(seed);
    for _ in 0..20 {
        let txns = workload.next_block(&mut rng, 40);
        chain.submit_block(txns, codec.as_ref()).unwrap();
    }
    chain.state_root().unwrap().to_hex()
}

#[test]
fn smallbank_chain_root_is_pinned() {
    let workload = Smallbank::new(SmallbankConfig {
        accounts: 2_000,
        ..SmallbankConfig::default()
    });
    assert_eq!(
        root_after_20_blocks(Box::new(workload), 0x5B),
        "2051cf247347406a1b6ebeb53ceab7efe513a8f6d7fea0e9d014fd52263b1ddb"
    );
}

#[test]
fn tpcc_chain_root_is_pinned() {
    let workload = Tpcc::new(TpccConfig::default());
    assert_eq!(
        root_after_20_blocks(Box::new(workload), 0x7C),
        "b7db4341e872c7a4e171e96d03e78ae46affa983dd7be59db8ad64deac07672f"
    );
}
