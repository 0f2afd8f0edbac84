//! Adversarial-decode tests: the codec facing a malicious or broken
//! peer. Truncations, flipped length prefixes, over-cap lengths, and
//! random garble must all come back as decode errors — never a panic,
//! never an attacker-sized allocation. Deterministically seeded, so a
//! failure reproduces.

use sbs_bulk::{BulkDigest, BulkRef, SharedBytes};
use sbs_core::{RegId, RegMsg, SeqVal};
use sbs_net::{read_frame, DecodeError, WireCodec, MAX_FRAME};
use sbs_sim::DetRng;
use sbs_stamps::{RingSeq, PAPER_MODULUS};
use sbs_store::{ShardMap, StoreMsg, StorePayload, StoreVal, StoreWire};
use std::io;
use std::sync::Arc;

fn codec() -> WireCodec {
    WireCodec::new(PAPER_MODULUS)
}

fn payload(wsn: u128) -> StorePayload<u64> {
    let mut map = ShardMap::new();
    map.insert("key0", 7);
    map.insert("key1", 11);
    SeqVal::new(
        RingSeq::new(wsn, PAPER_MODULUS),
        StoreVal::Inline(Arc::new(map)),
    )
}

/// A representative frame of every kind, to truncate and garble.
fn corpus() -> Vec<Vec<u8>> {
    let c = codec();
    let msgs: Vec<StoreWire<u64>> = vec![
        StoreMsg::Batch(vec![
            RegMsg::Write {
                reg: RegId(2),
                tag: 31,
                val: payload(5),
            },
            RegMsg::SsAck { tag: 31 },
            RegMsg::AckRead {
                reg: RegId(2),
                last: payload(6),
                helping: Some(payload(4)),
            },
        ]),
        StoreMsg::BulkGet {
            shard: 1,
            digest: BulkDigest([1, 2, 3, 4]),
            tag: 9,
        },
        StoreMsg::FragGetAck {
            shard: 1,
            root: BulkDigest([1, 2, 3, 4]),
            tag: 9,
            frag: None,
        },
        StoreMsg::FragPutAck {
            shard: 1,
            root: BulkDigest([5, 6, 7, 8]),
            index: 2,
        },
        StoreMsg::FragPut {
            shard: 1,
            root: BulkDigest([5, 6, 7, 8]),
            index: 2,
            total: 9,
            bytes: SharedBytes::from(&b"frag"[..]),
            proof: vec![BulkDigest([9, 9, 9, 9]); 3],
        },
        StoreMsg::FragGetAck {
            shard: 1,
            root: BulkDigest([5, 6, 7, 8]),
            tag: 9,
            frag: Some((
                2,
                SharedBytes::from(&b"frag"[..]),
                vec![BulkDigest([9, 9, 9, 9]); 3],
            )),
        },
        StoreMsg::Batch(vec![RegMsg::Write {
            reg: RegId(0),
            tag: 1,
            val: SeqVal::new(
                RingSeq::new(1, PAPER_MODULUS),
                StoreVal::Ref(BulkRef {
                    digest: BulkDigest([1, 1, 1, 1]),
                    len: 4096,
                }),
            ),
        }]),
        StoreMsg::RepairRequest {
            shard: 1,
            digest: BulkDigest([1, 2, 3, 4]),
        },
        StoreMsg::RepairReply {
            shard: 1,
            digest: BulkDigest([1, 2, 3, 4]),
            frag: None,
        },
        StoreMsg::RepairReply {
            shard: 1,
            digest: BulkDigest([5, 6, 7, 8]),
            frag: Some((
                2,
                SharedBytes::from(&b"frag"[..]),
                vec![BulkDigest([9, 9, 9, 9]); 3],
            )),
        },
        StoreMsg::DigestSummary {
            entries: vec![(0, BulkDigest([1, 2, 3, 4])), (5, BulkDigest([5, 6, 7, 8]))],
        },
    ];
    msgs.iter().map(|m| c.encode(m)).collect()
}

#[test]
fn every_truncation_is_refused_without_panicking() {
    let c = codec();
    for frame in corpus() {
        // Cut the frame at every possible point; none may decode, since
        // every layout is end-delimited and the prefix announces the
        // full payload.
        for cut in 0..frame.len() {
            let err = c
                .decode_frame::<u64>(&frame[..cut])
                .expect_err("truncated frame must not decode");
            assert!(
                matches!(err, DecodeError::Truncated),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }
}

#[test]
fn flipped_length_prefixes_are_refused() {
    let c = codec();
    for frame in corpus() {
        for bit in 0..32 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            // A changed prefix either announces more bytes than follow
            // (Truncated), crosses the cap (Oversized), or shortens the
            // payload so the body no longer parses cleanly. Decoding a
            // *shorter* valid payload can succeed — but then the frame
            // consumption must reflect the shorter length, never the
            // original, and the inner body must still be self-consistent.
            match c.decode_frame::<u64>(&bad) {
                Err(_) => {}
                Ok((msg, consumed)) => {
                    assert!(consumed < frame.len());
                    let reenc = c.encode(&msg);
                    assert_eq!(reenc.len(), consumed, "consumed must match re-encode");
                }
            }
        }
    }
}

#[test]
fn over_cap_lengths_are_refused_before_allocation() {
    let c = codec();
    // Announce payloads from just over the cap up to u32::MAX; decode
    // must refuse from the prefix alone (4 trailing bytes exist, so an
    // implementation that tried to allocate/read would fail differently).
    for len in [
        (MAX_FRAME + 1) as u32,
        (MAX_FRAME * 2) as u32,
        u32::MAX / 2,
        u32::MAX,
    ] {
        let mut frame = len.to_le_bytes().to_vec();
        frame.extend_from_slice(&[0u8; 4]);
        let err = c
            .decode_frame::<u64>(&frame)
            .expect_err("over-cap length must be refused");
        assert!(
            matches!(err, DecodeError::Oversized { len: l } if l == u64::from(len)),
            "unexpected error {err:?}"
        );
        // The streaming reader refuses identically, as io::InvalidData.
        let mut stream: &[u8] = &frame;
        let io_err = read_frame(&mut stream).expect_err("reader must refuse");
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }
}

#[test]
fn random_garble_never_panics() {
    let c = codec();
    let mut rng = DetRng::derive(0xBADBAD, 0);
    // Pure noise frames with plausible prefixes.
    for _ in 0..2000 {
        let len = rng.range_inclusive(0, 96) as usize;
        let mut frame = (len as u32).to_le_bytes().to_vec();
        for _ in 0..len {
            frame.push(rng.next_u32() as u8);
        }
        if let Ok((msg, consumed)) = c.decode_frame::<u64>(&frame) {
            // Garble that happens to parse must at least be canonical:
            // re-encoding reproduces exactly the consumed bytes.
            assert_eq!(c.encode(&msg), frame[..consumed].to_vec());
        }
    }
}

#[test]
fn bit_flips_in_valid_bodies_never_panic() {
    let c = codec();
    let mut rng = DetRng::derive(0xBADBAD, 1);
    for frame in corpus() {
        for _ in 0..300 {
            let mut bad = frame.clone();
            let bit = rng.range_inclusive(32, (frame.len() as u64) * 8 - 1) as usize;
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok((msg, consumed)) = c.decode_frame::<u64>(&bad) {
                assert_eq!(consumed, bad.len());
                assert_eq!(c.encode(&msg), bad, "accepted frames must be canonical");
            }
        }
    }
}

#[test]
fn wrong_version_is_refused() {
    let c = codec();
    let msg: StoreWire<u64> = StoreMsg::Batch(Vec::new());
    let mut frame = c.encode(&msg);
    frame[4] = 7; // version byte
    assert!(matches!(
        c.decode_frame::<u64>(&frame),
        Err(DecodeError::BadVersion(7))
    ));
}

#[test]
fn unknown_kind_is_refused() {
    let c = codec();
    let msg: StoreWire<u64> = StoreMsg::Batch(Vec::new());
    let mut frame = c.encode(&msg);
    frame[5] = 0xEE; // kind byte
    assert!(matches!(
        c.decode_frame::<u64>(&frame),
        Err(DecodeError::BadKind(0xEE))
    ));
}

/// The retired whole-blob kinds (1 `BULK_PUT`, 2 `BULK_PUT_ACK`, 4
/// `BULK_GET_ACK`) are unknown to the codec: a frame carrying one —
/// empty, in its old body layout, or noise — is a `BadKind` error, never
/// a panic and never a decode as some other message.
#[test]
fn retired_whole_blob_kinds_are_refused() {
    let c = codec();
    let mut rng = DetRng::derive(0xBADBAD, 2);
    // Old body layouts: shard (4) + digest (32), then a length-prefixed
    // blob (kind 1), nothing (kind 2), or a tag and an option flag
    // with the blob running to the frame end (kind 4).
    let head: Vec<u8> = [1u32.to_le_bytes().to_vec(), vec![0xAB; 32]].concat();
    let blob = b"0123456789abcdef";
    let old_bodies: [(u8, Vec<u8>); 3] = [
        (
            1,
            [&head[..], &(blob.len() as u64).to_le_bytes(), blob].concat(),
        ),
        (2, head.clone()),
        (4, [&head[..], &9u64.to_le_bytes(), &[1], blob].concat()),
    ];
    for (kind, old) in old_bodies {
        let mut bodies = vec![Vec::new(), old];
        bodies.extend((0..50).map(|_| {
            let len = rng.range_inclusive(0, 96) as usize;
            (0..len).map(|_| rng.next_u32() as u8).collect::<Vec<u8>>()
        }));
        for body in bodies {
            let mut frame = ((2 + body.len()) as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&[sbs_net::WIRE_VERSION, kind]);
            frame.extend_from_slice(&body);
            assert!(
                matches!(c.decode_frame::<u64>(&frame), Err(DecodeError::BadKind(k)) if k == kind),
                "retired kind {kind} must be refused"
            );
        }
    }
}

#[test]
fn trailing_bytes_inside_the_payload_are_refused() {
    let c = codec();
    let msg: StoreWire<u64> = StoreMsg::FragPutAck {
        shard: 0,
        root: BulkDigest([1, 2, 3, 4]),
        index: 1,
    };
    let mut frame = c.encode(&msg);
    // Grow the announced payload by one junk byte: a fixed-size body
    // with leftovers is non-canonical.
    frame.push(0);
    let len = (frame.len() - 4) as u32;
    frame[0..4].copy_from_slice(&len.to_le_bytes());
    assert!(c.decode_frame::<u64>(&frame).is_err());
}
