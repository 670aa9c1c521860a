//! State-sync: the checkpoint manifest a replica transfers to bootstrap a
//! lagging (or freshly joined) peer without replaying from genesis, and
//! the rules by which a chain takes a peer's part of a sync reply.
//!
//! A [`StateSnapshot`] captures everything a node needs to continue the
//! chain from height `h`:
//!
//! * the chain's [`ChainPosition`] at `h` — the hash of block `h` (so the
//!   hash chain continues verifiably), the trailing blocks' undo images and
//!   the Rule-3 summary. It is the position a checkpoint records, in the
//!   same encoding, so Harmony's inter-block validation replays
//!   bit-identically on the synced node;
//! * the full table contents at `h`.
//!
//! A part of a sync reply is an optional manifest plus a tail of verified
//! blocks, and [`OeChain::catch_up`] is the one place a chain takes it —
//! a flat replica's chain, every shard of a sharded one, and each new
//! shard of a reshard handover:
//!
//! 1. a manifest no newer than the chain is skipped (the chain's own
//!    verified state is at least as new); a fresh chain takes any;
//! 2. a chain that is not fresh is reopened from its own configuration
//!    and engine spec ([`OeChain::reopen`]) before the install — the
//!    manifest is the complete truth, and merging it over local rows
//!    would keep rows the peer has since deleted;
//! 3. the manifest is installed ([`OeChain::install_snapshot`]) and the
//!    tail replayed ([`OeChain::replay_range`], which skips blocks at or
//!    below the height);
//! 4. the height gained, measured from before the call, is returned.

use harmony_common::codec::{Reader, Writer};
use harmony_common::Result;
use harmony_txn::ContractCodec;

use crate::block::ChainBlock;
use crate::oe::OeChain;
use crate::position::ChainPosition;

/// One table's full contents at the snapshot height.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableDump {
    /// Table name (ids are reassigned in creation order on install).
    pub name: String,
    /// All rows, in key order.
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
}

/// A transferable checkpoint manifest: the chain position plus the full
/// database state at that position.
#[derive(Clone, Debug)]
pub struct StateSnapshot {
    /// Where the chain stood when the snapshot was taken.
    pub position: ChainPosition,
    /// Every table's contents, in catalog order.
    pub tables: Vec<TableDump>,
}

impl StateSnapshot {
    /// Serialize for transfer: the position, then the tables.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(1024);
        self.position.encode_into(&mut w);
        w.put_u32(u32::try_from(self.tables.len()).expect("table count"));
        for t in &self.tables {
            w.put_str(&t.name);
            w.put_u32(u32::try_from(t.rows.len()).expect("row count"));
            for (k, v) in &t.rows {
                w.put_bytes(k);
                w.put_bytes(v);
            }
        }
        w.finish()
    }

    /// Deserialize a transferred manifest.
    pub fn decode(bytes: &[u8]) -> Result<StateSnapshot> {
        let mut r = Reader::new(bytes);
        let position = ChainPosition::decode_from(&mut r)?;
        let n_tables = r.get_count(8)?; // name length + row count
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = r.get_str()?;
            let n_rows = r.get_count(8)?; // key length + value length
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                rows.push((r.get_bytes()?, r.get_bytes()?));
            }
            tables.push(TableDump { name, rows });
        }
        Ok(StateSnapshot { position, tables })
    }
}

impl OeChain {
    /// Bring this chain to a peer's part of a sync reply: install
    /// `manifest` if it is newer than the chain (reopening a chain that is
    /// not fresh first), then replay `tail` through `codec` — the rules in
    /// the [module docs](self). Returns the height gained, measured from
    /// before the call.
    pub fn catch_up(
        &mut self,
        manifest: Option<&StateSnapshot>,
        tail: &[ChainBlock],
        codec: &dyn ContractCodec,
    ) -> Result<u64> {
        let before = self.height();
        if let Some(manifest) = manifest {
            let fresh = self.is_fresh();
            if fresh || manifest.position.height > before {
                if !fresh {
                    self.reopen()?;
                }
                self.install_snapshot(manifest)?;
            }
        }
        self.replay_range(tail, codec)?;
        Ok(self.height().0 - before.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChainConfig;
    use harmony_common::BlockId;
    use harmony_common::DetRng;
    use harmony_dcc_baselines::EngineSpec;
    use harmony_workloads::{Workload, Ycsb, YcsbCodec, YcsbConfig};

    fn running_chain(blocks: usize) -> (OeChain, YcsbCodec, Ycsb, DetRng) {
        let mut chain = OeChain::open(
            ChainConfig {
                checkpoint_every: 4,
                ..ChainConfig::in_memory()
            },
            EngineSpec::default(),
        )
        .unwrap();
        let mut w = Ycsb::new(YcsbConfig {
            keys: 200,
            theta: 0.7,
            ..YcsbConfig::default()
        });
        w.setup(chain.engine()).unwrap();
        let codec = YcsbCodec { table: w.table() };
        let mut rng = DetRng::new(0x51AC);
        for _ in 0..blocks {
            let txns = w.next_block(&mut rng, 12);
            chain.submit_block(txns, &codec).unwrap();
        }
        (chain, codec, w, rng)
    }

    #[test]
    fn snapshot_roundtrip_preserves_content() {
        let (chain, _, _, _) = running_chain(6);
        let snap = chain.export_snapshot().unwrap();
        let decoded = StateSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded.position.height, snap.position.height);
        assert_eq!(decoded.position.last_hash, snap.position.last_hash);
        assert_eq!(decoded.tables, snap.tables);
        assert_eq!(decoded.position.undo, snap.position.undo);
        assert_eq!(decoded.encode(), snap.encode());
    }

    #[test]
    fn lying_counts_are_refused_before_allocating() {
        use harmony_common::codec::Writer;
        // One frame per count field of the manifest format (undo blocks,
        // undo entries, tables, rows), each cut off right after a count of
        // `u32::MAX`: the reader must refuse the count itself.
        let head = |w: &mut Writer| {
            w.put_u64(7);
            w.put_raw(&[0; 32]);
        };
        let fields: [&dyn Fn(&mut Writer); 4] = [
            &|_| {},
            &|w| {
                w.put_u32(1);
                w.put_u64(6);
            },
            &|w| {
                w.put_u32(0);
                w.put_u8(0);
            },
            &|w| {
                w.put_u32(0);
                w.put_u8(0);
                w.put_u32(1);
                w.put_bytes(b"t");
            },
        ];
        for (i, before_count) in fields.iter().enumerate() {
            let mut w = Writer::default();
            head(&mut w);
            before_count(&mut w);
            w.put_u32(u32::MAX);
            let err = StateSnapshot::decode(&w.finish()).unwrap_err();
            assert!(
                matches!(&err, harmony_common::Error::Corruption(m) if m.contains("count")),
                "count field {i}: {err}"
            );
        }
    }

    #[test]
    fn install_then_replay_matches_peer() {
        // Peer runs 6 blocks, exports at 6; a fresh node installs the
        // manifest, then both execute 4 more identical blocks and agree.
        let (mut peer, codec, w, mut rng) = running_chain(6);
        let snap = peer.export_snapshot().unwrap();

        let mut joiner = OeChain::open(
            ChainConfig {
                checkpoint_every: 4,
                ..ChainConfig::in_memory()
            },
            EngineSpec::default(),
        )
        .unwrap();
        joiner
            .install_snapshot(&StateSnapshot::decode(&snap.encode()).unwrap())
            .unwrap();
        assert_eq!(joiner.height(), peer.height());
        assert_eq!(joiner.last_hash(), peer.last_hash());
        assert_eq!(
            joiner.state_root().unwrap(),
            peer.state_root().unwrap(),
            "manifest install must reproduce the peer's exact state"
        );

        for _ in 0..4 {
            let txns = w.next_block(&mut rng, 12);
            let (sealed, _) = peer.submit_block(txns, &codec).unwrap();
            joiner.apply_sealed_block(&sealed, &codec).unwrap();
        }
        assert_eq!(joiner.state_root().unwrap(), peer.state_root().unwrap());
        assert_eq!(joiner.last_hash(), peer.last_hash());

        // The joiner's base-aware chain verification still works (its log
        // starts at the snapshot height) — and it can crash-recover.
        joiner.verify_chain().unwrap();
        let root = joiner.state_root().unwrap();
        joiner.crash_and_recover(&codec).unwrap();
        assert_eq!(joiner.state_root().unwrap(), root);
    }

    #[test]
    fn install_rejected_on_non_fresh_node() {
        let (chain, _, _, _) = running_chain(2);
        let snap = chain.export_snapshot().unwrap();
        let (mut busy, _, _, _) = running_chain(1);
        assert!(busy.install_snapshot(&snap).is_err());
    }

    #[test]
    fn replay_range_catches_up_from_blocks_after() {
        // A replica that stops at height 3 catches up to 8 purely from a
        // peer's verified block range (no manifest needed).
        let (mut peer, codec, w, mut rng) = running_chain(3);
        let mut lagger = OeChain::open(
            ChainConfig {
                checkpoint_every: 4,
                ..ChainConfig::in_memory()
            },
            EngineSpec::default(),
        )
        .unwrap();
        let mut w2 = Ycsb::new(YcsbConfig {
            keys: 200,
            theta: 0.7,
            ..YcsbConfig::default()
        });
        w2.setup(lagger.engine()).unwrap();
        // Replay the peer's first 3 blocks, then fall behind.
        lagger
            .replay_range(&peer.blocks_after(BlockId(0)).unwrap(), &codec)
            .unwrap();
        assert_eq!(lagger.height(), BlockId(3));
        for _ in 0..5 {
            let txns = w.next_block(&mut rng, 12);
            peer.submit_block(txns, &codec).unwrap();
        }
        let applied = lagger
            .replay_range(&peer.blocks_after(lagger.height()).unwrap(), &codec)
            .unwrap();
        assert_eq!(applied, 5);
        assert_eq!(lagger.state_root().unwrap(), peer.state_root().unwrap());
        // Idempotent: handing the full suffix again applies nothing.
        assert_eq!(
            lagger
                .replay_range(&peer.blocks_after(BlockId(0)).unwrap(), &codec)
                .unwrap(),
            0
        );
    }

    /// A chain holding `running_chain`'s genesis and nothing else, on
    /// `checkpoint_every` and `spec`.
    fn genesis_chain(checkpoint_every: u64, spec: EngineSpec) -> OeChain {
        let config = ChainConfig {
            checkpoint_every,
            ..ChainConfig::in_memory()
        };
        let chain = OeChain::open(config, spec).unwrap();
        Ycsb::new(YcsbConfig {
            keys: 200,
            theta: 0.7,
            ..YcsbConfig::default()
        })
        .setup(chain.engine())
        .unwrap();
        chain
    }

    #[test]
    fn catch_up_on_a_range_skips_blocks_at_or_below_the_height() {
        let (peer, codec, _, _) = running_chain(8);
        let blocks = peer.blocks_after(BlockId(0)).unwrap();
        let mut lagger = genesis_chain(4, EngineSpec::default());
        assert_eq!(lagger.catch_up(None, &blocks[..3], &codec).unwrap(), 3);
        // The full suffix: blocks 1–3 are skipped, 4–8 replay.
        assert_eq!(lagger.catch_up(None, &blocks, &codec).unwrap(), 5);
        assert_eq!(lagger.height(), BlockId(8));
        assert_eq!(lagger.state_root().unwrap(), peer.state_root().unwrap());
        assert_eq!(lagger.catch_up(None, &blocks, &codec).unwrap(), 0);
    }

    #[test]
    fn catch_up_reopens_a_chain_that_is_not_fresh_before_installing() {
        let (mut peer, codec, w, mut rng) = running_chain(6);
        let snap = peer.export_snapshot().unwrap();
        for _ in 0..3 {
            peer.submit_block(w.next_block(&mut rng, 12), &codec)
                .unwrap();
        }
        let blocks = peer.blocks_after(BlockId(0)).unwrap();
        // Two blocks in, with a table the peer never had, on a checkpoint
        // period and worker count of its own.
        let spec = EngineSpec {
            workers: 2,
            ..EngineSpec::default()
        };
        let mut chain = genesis_chain(3, spec);
        chain.engine().create_table("local-only").unwrap();
        chain.catch_up(None, &blocks[..2], &codec).unwrap();

        let gained = chain.catch_up(Some(&snap), &blocks[6..], &codec).unwrap();
        assert_eq!(gained, 9 - 2, "the height gained since before the call");
        assert_eq!(chain.height(), BlockId(9));
        assert_eq!(
            chain.base(),
            (snap.position.height, snap.position.last_hash)
        );
        assert_eq!(chain.state_root().unwrap(), peer.state_root().unwrap());
        let tables = chain.engine().list_tables();
        assert!(
            tables.iter().all(|(name, _)| name != "local-only"),
            "the manifest replaced the local state instead of merging into it"
        );
        assert_eq!(chain.config().checkpoint_every, 3);
        assert_eq!(chain.spec(), spec);
    }

    #[test]
    fn catch_up_skips_a_manifest_no_newer_than_the_chain() {
        let (peer, codec, _, _) = running_chain(4);
        let snap = peer.export_snapshot().unwrap();
        for blocks in [4, 6] {
            let (mut chain, _, _, _) = running_chain(blocks);
            let (root, base) = (chain.state_root().unwrap(), chain.base());
            assert_eq!(chain.catch_up(Some(&snap), &[], &codec).unwrap(), 0);
            assert_eq!(chain.height(), BlockId(blocks as u64));
            assert_eq!(chain.state_root().unwrap(), root);
            assert_eq!(chain.base(), base, "at {blocks}: nothing installed");
        }
        // A fresh chain takes any manifest.
        let mut fresh = OeChain::open(ChainConfig::in_memory(), EngineSpec::default()).unwrap();
        assert_eq!(fresh.catch_up(Some(&snap), &[], &codec).unwrap(), 4);
        assert_eq!(fresh.state_root().unwrap(), peer.state_root().unwrap());
    }
}
