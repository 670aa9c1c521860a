//! Wire-codec contract: every cluster message and control message
//! round-trips bit-identically through the codec, and no untrusted
//! input — truncation, bit flips, garbage — can make decoding panic.
//!
//! Message equality is checked as `encode(decode(encode(m))) ==
//! encode(m)`: contracts are trait objects without `PartialEq`, but a
//! bit-identical re-encoding is exactly the property the transport
//! needs (the bytes a replica hashes are the bytes the orderer sealed).

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

use harmony_chain::{ChainBlock, ChainPosition, StateSnapshot, TableDump};
use harmony_common::BlockId;
use harmony_crypto::{CryptoCost, Digest, KeyPair};
use harmony_node::cluster::Msg;
use harmony_node::{
    submission_trace, ClusterConfig, ClusterWorkload, ShardedSyncResponse, SyncResponse,
};
use harmony_transport::wire::{
    decode_ctl, encode_ctl, frame_tag, CtlMsg, FrameBuf, WireCodec, MAX_FRAME_BYTES, WIRE_VERSION,
};
use harmony_transport::CtlClient;
use harmony_workloads::{SmallbankConfig, TpccConfig, YcsbConfig};
use proptest::prelude::*;

/// A workload fixture: the codec plus a pool of real generated
/// contracts to embed in Submit/Reject messages.
struct Fixture {
    codec: WireCodec,
    submissions: Vec<harmony_node::Submission>,
}

fn fixture(workload: ClusterWorkload) -> Fixture {
    let cfg = ClusterConfig {
        workload,
        ..ClusterConfig::default()
    };
    let submissions = submission_trace(&cfg, 24).expect("trace");
    Fixture {
        codec: WireCodec::new(cfg.workload.codec().expect("codec")),
        submissions,
    }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        fixture(ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 200,
            ..SmallbankConfig::default()
        })),
        fixture(ClusterWorkload::Ycsb(YcsbConfig {
            keys: 500,
            ..YcsbConfig::default()
        })),
        fixture(ClusterWorkload::Tpcc(TpccConfig::default())),
    ]
}

fn digest(seed: u8) -> Digest {
    Digest([seed; 32])
}

fn block(id: u64, txns: Vec<Vec<u8>>, sealer_seed: u64) -> ChainBlock {
    let sealer = KeyPair::derive(b"wire-roundtrip", sealer_seed, CryptoCost::default());
    ChainBlock::seal(BlockId(id), digest(id as u8), txns, &sealer)
}

fn snapshot(height: u64, tables: usize) -> StateSnapshot {
    StateSnapshot {
        position: ChainPosition {
            height: BlockId(height),
            last_hash: digest(0xA5),
            ..ChainPosition::default()
        },
        tables: (0..tables)
            .map(|t| TableDump {
                name: format!("table-{t}"),
                rows: (0..3u8)
                    .map(|r| (vec![t as u8, r], vec![r; (t % 5) + 1]))
                    .collect(),
            })
            .collect(),
    }
}

fn sync_reply(epoch: u64, parts: Vec<SyncResponse>) -> Msg {
    Msg::SyncReply {
        response: Arc::new(ShardedSyncResponse {
            height: BlockId(6),
            global_hash: digest(0x66),
            epoch: 2,
            parts,
        }),
        epoch,
    }
}

/// Every Msg variant, exercised across all three workload codecs.
#[test]
fn every_msg_variant_roundtrips_bit_identically() {
    for fx in fixtures() {
        let contract_msgs = fx.submissions.iter().enumerate().flat_map(|(i, s)| {
            [
                Msg::Submit {
                    client: s.client,
                    nonce: s.nonce,
                    submitted_ns: s.at_ns,
                    contract: Arc::clone(&s.contract),
                },
                Msg::Reject {
                    client: s.client,
                    nonce: i as u64,
                    submitted_ns: s.at_ns ^ 0xFF,
                    contract: Arc::clone(&s.contract),
                },
            ]
        });
        let txns: Vec<Vec<u8>> = fx
            .submissions
            .iter()
            .take(4)
            .map(|s| harmony_txn::encode_contract(s.contract.as_ref()))
            .collect();
        let structural = vec![
            Msg::Replicate { seq: 7 },
            Msg::Ack { seq: u64::MAX },
            Msg::Prepare { seq: 3, round: 2 },
            Msg::Vote { seq: 0, round: 255 },
            Msg::Deliver {
                block: Arc::new(block(5, txns.clone(), 11)),
                born_ns: 123,
                mean_submit_ns: 456,
            },
            Msg::Deliver {
                block: Arc::new(block(1, Vec::new(), 12)),
                born_ns: 0,
                mean_submit_ns: u64::MAX,
            },
            Msg::RootGossip {
                height: 42,
                root: digest(0x42),
            },
            // One sync shape: a request carries a height per hosted chain
            // (1 from a flat replica, M from a sharded one, and a decoder
            // must survive 0), a reply an anchor plus a part per chain.
            Msg::SyncRequest {
                from: vec![BlockId(9)],
                epoch: 1,
            },
            Msg::SyncRequest {
                from: vec![BlockId(1), BlockId(0), BlockId(u64::MAX)],
                epoch: 2,
            },
            Msg::SyncRequest {
                from: Vec::new(),
                epoch: 3,
            },
            sync_reply(
                3,
                vec![SyncResponse::Range(vec![
                    block(2, txns.clone(), 13),
                    block(3, Vec::new(), 13),
                ])],
            ),
            sync_reply(
                4,
                vec![SyncResponse::Snapshot(
                    Box::new(snapshot(4, 3)),
                    vec![block(5, txns.clone(), 14)],
                )],
            ),
            sync_reply(
                5,
                vec![
                    SyncResponse::Range(vec![block(6, txns.clone(), 15)]),
                    SyncResponse::Snapshot(Box::new(snapshot(6, 0)), Vec::new()),
                    SyncResponse::Range(Vec::new()),
                ],
            ),
            sync_reply(6, Vec::new()),
            Msg::SyncRefused { epoch: u64::MAX },
        ];
        for msg in contract_msgs.chain(structural) {
            let frame = fx.codec.encode_msg(&msg);
            // The frame is length-prefixed; decode_msg takes the body.
            let body = &frame[4..];
            let decoded = fx.codec.decode_msg(body).expect("decode valid frame");
            let reframed = fx.codec.encode_msg(&decoded);
            assert_eq!(frame, reframed, "re-encoding drifted for {body:?}");
        }
    }
}

/// Every control message round-trips by direct equality.
#[test]
fn every_ctl_msg_roundtrips() {
    let msgs = vec![
        CtlMsg::Hello { index: 0 },
        CtlMsg::Hello { index: u32::MAX },
        CtlMsg::StatusReq,
        CtlMsg::StatusReply(harmony_node::NodeStatus {
            role: "replica".into(),
            state: "up".into(),
            height: 12,
            root: "ab".repeat(32),
            logical_root: "cd".repeat(32),
            committed_txns: 1,
            delivered: 2,
            mempool_len: 3,
            sealed_blocks: 4,
            submitted: 5,
            recoveries: 6,
            sync_blocks: 7,
        }),
        CtlMsg::BlockReq { shard: 3, seq: 9 },
        CtlMsg::BlockReply(None),
        CtlMsg::BlockReply(Some(harmony_node::BlockSummary {
            id: 9,
            txns: 8,
            hash: "ef".repeat(32),
            prev_hash: "01".repeat(32),
        })),
        CtlMsg::Crash,
        CtlMsg::Recover,
        CtlMsg::Reshard { new_shards: 2 },
        CtlMsg::MetricsReq,
        CtlMsg::Text("# HELP harmony…\n".into()),
        CtlMsg::Shutdown,
        CtlMsg::Ok,
        CtlMsg::Err("boom".into()),
    ];
    for msg in msgs {
        let frame = encode_ctl(&msg);
        let decoded = decode_ctl(&frame[4..]).expect("decode valid ctl frame");
        assert_eq!(msg, decoded);
        assert_eq!(frame, encode_ctl(&decoded));
    }
}

/// Truncating a valid frame at any interior point must fail cleanly.
#[test]
fn truncated_frames_are_rejected_without_panic() {
    let fx = &fixtures()[0];
    let msg = Msg::Deliver {
        block: Arc::new(block(
            3,
            fx.submissions
                .iter()
                .take(3)
                .map(|s| harmony_txn::encode_contract(s.contract.as_ref()))
                .collect(),
            9,
        )),
        born_ns: 1,
        mean_submit_ns: 2,
    };
    let frame = fx.codec.encode_msg(&msg);
    let body = &frame[4..];
    for cut in 0..body.len() {
        assert!(
            fx.codec.decode_msg(&body[..cut]).is_err(),
            "truncation at {cut} of {} decoded successfully",
            body.len()
        );
    }
    let ctl = encode_ctl(&CtlMsg::StatusReply(harmony_node::NodeStatus::default()));
    for cut in 0..ctl.len() - 4 {
        assert!(decode_ctl(&ctl[4..4 + cut]).is_err());
    }
}

/// Every inbound stream is read through a [`FrameBuf`]: a length prefix
/// beyond the cap is refused before anything is reserved for it, an EOF
/// inside a frame is a closed connection to a control client, and a
/// clean EOF is a `fill` that reads nothing.
#[test]
fn oversized_length_prefix_is_refused() {
    let huge = u32::try_from(MAX_FRAME_BYTES).expect("fits") + 1;
    let mut frames = FrameBuf::new();
    let mut stream: &[u8] = &huge.to_le_bytes();
    assert_eq!(frames.fill(&mut stream).expect("fill"), 4);
    assert!(frames.next_frame().is_err());

    // A reply whose prefix promises more bytes than ever come.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let node = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut request = vec![0u8; encode_ctl(&CtlMsg::StatusReq).len()];
        stream.read_exact(&mut request).expect("request");
        stream.write_all(&[8, 0, 0, 0, 1, 2]).expect("a cut reply");
    });
    let mut client = CtlClient::connect(addr).expect("connect");
    let err = client.status().expect_err("a cut reply");
    assert!(
        matches!(&err, harmony_common::Error::Corruption(m) if m == "connection closed before control reply"),
        "{err}"
    );
    node.join().expect("node");

    // Clean EOF at a frame boundary: nothing read, no frame.
    let mut empty: &[u8] = &[];
    let mut frames = FrameBuf::new();
    assert_eq!(frames.fill(&mut empty).expect("fill"), 0);
    assert!(frames.next_frame().expect("no prefix").is_none());
}

/// Exactly one wire version decodes. Every node of a cluster is the
/// same build, so a frame stamped with an older (or newer) version is not
/// a peer to interoperate with but corruption — on every tag, old or new,
/// peer plane and control plane alike.
#[test]
fn a_frame_of_any_other_version_is_corruption() {
    let fx = &fixtures()[0];
    let msgs = [
        Msg::Ack { seq: 9 },
        Msg::SyncRequest {
            from: vec![BlockId(3), BlockId(4)],
            epoch: 8,
        },
        sync_reply(5, vec![SyncResponse::Range(Vec::new())]),
    ];
    let ctls = [CtlMsg::StatusReq, CtlMsg::Reshard { new_shards: 2 }];
    for version in (0..WIRE_VERSION).chain([WIRE_VERSION + 1, u8::MAX]) {
        for msg in &msgs {
            let mut body = fx.codec.encode_msg(msg)[4..].to_vec();
            assert_eq!(body[0], WIRE_VERSION);
            assert!(fx.codec.decode_msg(&body).is_ok());
            body[0] = version;
            let err = fx.codec.decode_msg(&body).err().expect("decoded");
            assert!(
                matches!(&err, harmony_common::Error::Corruption(m) if m.contains("wire version")),
                "version {version}: {err}"
            );
            assert_eq!(frame_tag(&body), None, "version {version} routed");
        }
        for ctl in &ctls {
            let mut body = encode_ctl(ctl)[4..].to_vec();
            assert!(decode_ctl(&body).is_ok());
            body[0] = version;
            assert!(matches!(
                decode_ctl(&body),
                Err(harmony_common::Error::Corruption(_))
            ));
        }
    }
}

/// A count field that promises more than the frame holds is refused
/// where it is read — `Reader::get_count` — before it sizes anything:
/// the sync frames' own counts, and the counts inside the blocks and
/// manifests they carry.
#[test]
fn lying_counts_in_sync_frames_are_corruption() {
    let fx = &fixtures()[0];
    let lie = u32::MAX.to_le_bytes();
    let refused = |body: &[u8], what: &str| {
        let err = fx.codec.decode_msg(body).err().expect(what);
        assert!(
            matches!(&err, harmony_common::Error::Corruption(m) if m.contains("count")),
            "{what}: {err}"
        );
    };
    // Request: version, tag, sync epoch u64, then the height count.
    let request = fx.codec.encode_msg(&Msg::SyncRequest {
        from: vec![BlockId(3)],
        epoch: 8,
    });
    let mut body = request[4..].to_vec();
    body[10..14].copy_from_slice(&lie);
    refused(&body, "height count");
    // Reply: version, tag, sync epoch, height, 32-byte hash, topology
    // epoch, then the part count; the first part's kind byte and block
    // count follow.
    const PARTS_AT: usize = 2 + 8 + 8 + 32 + 8;
    let reply = fx
        .codec
        .encode_msg(&sync_reply(5, vec![SyncResponse::Range(Vec::new())]));
    let mut body = reply[4..].to_vec();
    body[PARTS_AT..PARTS_AT + 4].copy_from_slice(&lie);
    refused(&body, "part count");
    let mut body = reply[4..].to_vec();
    body[PARTS_AT + 5..PARTS_AT + 9].copy_from_slice(&lie);
    refused(&body, "block count");
    // A delivered block whose transaction count lies: version, tag, two
    // u64 timestamps, the block's length prefix, its 120-byte header.
    let deliver = fx.codec.encode_msg(&Msg::Deliver {
        block: Arc::new(block(1, Vec::new(), 12)),
        born_ns: 0,
        mean_submit_ns: 0,
    });
    let mut body = deliver[4..].to_vec();
    const TXNS_AT: usize = 2 + 8 + 8 + 4 + 120;
    body[TXNS_AT..TXNS_AT + 4].copy_from_slice(&lie);
    refused(&body, "transaction count");
}

proptest! {
    /// Arbitrary bytes never panic any decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let fx = fixture(ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 100,
            ..SmallbankConfig::default()
        }));
        let _ = fx.codec.decode_msg(&bytes);
        let _ = decode_ctl(&bytes);
        let _ = frame_tag(&bytes);
    }

    /// Flipping any single byte of a valid structural frame either
    /// still decodes (payload bytes the codec doesn't constrain) or
    /// fails cleanly — never panics.
    #[test]
    fn bit_flips_never_panic(pos in 0usize..64, flip in 1u16..256) {
        let fx = fixture(ClusterWorkload::Smallbank(SmallbankConfig {
            accounts: 100,
            ..SmallbankConfig::default()
        }));
        let msg = Msg::SyncRequest {
            from: vec![BlockId(3), BlockId(4)],
            epoch: 8,
        };
        let frame = fx.codec.encode_msg(&msg);
        let mut body = frame[4..].to_vec();
        let pos = pos % body.len();
        body[pos] ^= u8::try_from(flip).expect("flip < 256");
        let _ = fx.codec.decode_msg(&body);
    }
}
