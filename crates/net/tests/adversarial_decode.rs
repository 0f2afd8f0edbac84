//! Adversarial-decode tests: the codec facing a malicious or broken
//! peer. Truncations, flipped length prefixes, over-cap lengths, and
//! random garble must all come back as decode errors — never a panic,
//! never an attacker-sized allocation. So must every redundant form of a
//! valid message: each message has one encoding. Deterministically
//! seeded, so a failure reproduces.

use sbs_bulk::{BulkDigest, BulkRef, SharedBytes};
use sbs_core::{ReadKind, RegId, RegMsg, SeqVal};
use sbs_net::{read_frame, DecodeError, WireCodec, MAX_FRAME};
use sbs_sim::{DetRng, ProcessId};
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
        StoreMsg::Batch(vec![
            RegMsg::Read {
                reg: RegId(1),
                tag: 40,
                kind: ReadKind::Probe,
            },
            RegMsg::AckWrite {
                reg: RegId(1),
                helping: vec![
                    (ProcessId(3), Some(payload(4))),
                    (ProcessId(4), None),
                    (ProcessId(5), Some(payload(4))),
                ],
            },
            RegMsg::AckRead {
                reg: RegId(1),
                last: payload(6),
                helping: Some(payload(6)),
            },
            RegMsg::AckProbe {
                reg: RegId(1),
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

// Register-message kind bytes, as the codec lays them out.
const REG_READ: u8 = 2;
const REG_ACK_WRITE: u8 = 4;
const REG_ACK_READ: u8 = 5;
const REG_ACK_PROBE: u8 = 6;

/// A batch frame around a hand-built body.
fn batch_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = ((2 + body.len()) as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&[sbs_net::WIRE_VERSION, 0]);
    frame.extend_from_slice(body);
    frame
}

/// A register-message header: kind, reg, tag, 24-bit count.
fn reg_header(kind: u8, reg: u32, tag: u64, count: u32) -> Vec<u8> {
    let mut h = vec![kind];
    h.extend_from_slice(&reg.to_le_bytes());
    h.extend_from_slice(&tag.to_le_bytes());
    h.extend_from_slice(&count.to_le_bytes()[..3]);
    h
}

/// A payload's encoding, cut from an encoded `WRITE`.
fn value_bytes(p: &StorePayload<u64>) -> Vec<u8> {
    let msg: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::Write {
        reg: RegId(0),
        tag: 0,
        val: p.clone(),
    }]);
    codec().encode(&msg)[6 + 16..].to_vec()
}

/// An `ACK_WRITE` body: `(reader, flag, tail)` per entry.
fn ack_write_body(entries: &[(u32, u8, Vec<u8>)]) -> Vec<u8> {
    let mut body = reg_header(REG_ACK_WRITE, 1, 0, entries.len() as u32);
    for (pid, flag, tail) in entries {
        body.extend_from_slice(&pid.to_le_bytes());
        body.push(*flag);
        body.extend_from_slice(tail);
    }
    body
}

fn index(i: u32) -> Vec<u8> {
    i.to_le_bytes()[..3].to_vec()
}

fn refused(frame: &[u8], why: &'static str) {
    match codec().decode_frame::<u64>(frame) {
        Err(DecodeError::Malformed(w)) if w == why => {}
        other => panic!("expected Malformed({why:?}), got {other:?}"),
    }
}

/// The hand-built layouts below are the encoder's: the canonical forms
/// decode, and the encoder reproduces them byte for byte.
#[test]
fn hand_built_canonical_forms_match_the_encoder() {
    let (a, b) = (value_bytes(&payload(4)), value_bytes(&payload(6)));
    let ack_write = batch_frame(&ack_write_body(&[
        (3, 1, a.clone()),
        (4, 0, vec![]),
        (5, 2, index(0)),
        (6, 1, b.clone()),
        (7, 2, index(3)),
    ]));
    // An ACK_READ sends its helping value in full even when it equals
    // `last`.
    let mut ack_read = reg_header(REG_ACK_READ, 1, 0, 0);
    ack_read.extend_from_slice(&b);
    ack_read.push(1);
    ack_read.extend_from_slice(&b);
    let mut probe = reg_header(REG_ACK_PROBE, 1, 0, 0);
    probe.push(1);
    probe.extend_from_slice(&a);
    for frame in [ack_write, batch_frame(&ack_read), batch_frame(&probe)] {
        let (msg, consumed) = codec().decode_frame::<u64>(&frame).expect("canonical");
        assert_eq!(consumed, frame.len());
        assert_eq!(codec().encode(&msg), frame);
    }
}

#[test]
fn a_full_copy_where_a_repeat_is_required_is_refused() {
    let a = value_bytes(&payload(4));
    // ACK_WRITE: the second entry must refer back to the first.
    refused(
        &batch_frame(&ack_write_body(&[(3, 1, a.clone()), (4, 1, a.clone())])),
        "repeated helping value",
    );
    refused(
        &batch_frame(&ack_write_body(&[
            (3, 1, a.clone()),
            (4, 1, value_bytes(&payload(6))),
            (5, 1, a.clone()),
        ])),
        "repeated helping value",
    );
}

#[test]
fn back_references_out_of_range_are_refused() {
    let a = value_bytes(&payload(4));
    for entries in [
        // To itself, forward, and far past the end.
        vec![(3, 1, a.clone()), (4, 2, index(1))],
        vec![(3, 2, index(1)), (4, 1, a.clone())],
        vec![(3, 1, a.clone()), (4, 2, index(0xFF_FFFF))],
        // To a ⊥ entry, and to another back-reference.
        vec![(3, 0, vec![]), (4, 2, index(0))],
        vec![(3, 1, a.clone()), (4, 2, index(0)), (5, 2, index(1))],
    ] {
        refused(
            &batch_frame(&ack_write_body(&entries)),
            "helping back-reference",
        );
    }
}

#[test]
fn flag_values_of_three_or_more_are_refused() {
    let a = value_bytes(&payload(4));
    for flag in [3u8, 4, 0x7F, 0xFF] {
        let mut read = reg_header(REG_READ, 1, 9, 0);
        read.push(flag);
        refused(&batch_frame(&read), "read kind");
        refused(
            &batch_frame(&ack_write_body(&[(3, flag, a.clone())])),
            "option flag",
        );
    }
    // Back-references are for ACK_WRITE entries only: an ACK_READ and a
    // probe ack carry one helping value, so their flag stops at 1.
    for flag in [2u8, 3, 0xFF] {
        let mut ack_read = reg_header(REG_ACK_READ, 1, 0, 0);
        ack_read.extend_from_slice(&a);
        ack_read.push(flag);
        ack_read.extend_from_slice(&index(0));
        refused(&batch_frame(&ack_read), "option flag");
        let mut probe = reg_header(REG_ACK_PROBE, 1, 0, 0);
        probe.push(flag);
        probe.extend_from_slice(&a);
        refused(&batch_frame(&probe), "option flag");
    }
}

#[test]
fn trailing_bytes_after_a_probe_ack_are_refused() {
    let msg: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::AckProbe {
        reg: RegId(1),
        helping: Some(payload(4)),
    }]);
    let frame = codec().encode(&msg);
    for extra in 1..=24usize {
        let mut bad = frame.clone();
        bad.extend((0..extra).map(|i| i as u8));
        let len = (bad.len() - 4) as u32;
        bad[0..4].copy_from_slice(&len.to_le_bytes());
        assert!(
            codec().decode_frame::<u64>(&bad).is_err(),
            "{extra} trailing bytes must be refused"
        );
    }
    // Reserved header fields of a probe ack are zero.
    let mut tagged = reg_header(REG_ACK_PROBE, 1, 5, 0);
    tagged.push(0);
    refused(&batch_frame(&tagged), "ack-probe tag");
    let mut counted = reg_header(REG_ACK_PROBE, 1, 0, 2);
    counted.push(0);
    refused(&batch_frame(&counted), "ack-probe aux");
}

/// A back-reference costs 8 bytes on the wire, so decoding one must not
/// copy the value it names: every repeat shares the first copy's
/// storage, whatever the payload variant.
#[test]
fn back_references_share_storage_instead_of_copying() {
    let routing = SeqVal::new(
        RingSeq::new(3, PAPER_MODULUS),
        StoreVal::Routing(Arc::new(sbs_store::RoutingEpoch {
            epoch: 9,
            owners: vec![7; 4096],
        })),
    );
    for value in [payload(4), routing] {
        let entries = 10_000u32;
        let msg: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::AckWrite {
            reg: RegId(1),
            helping: (0..entries)
                .map(|r| (ProcessId(r), Some(value.clone())))
                .collect(),
        }]);
        let frame = codec().encode(&msg);
        // One full copy; every other entry is an 8-byte back-reference.
        let value_len = value_bytes(&value).len();
        assert_eq!(
            frame.len(),
            6 + 16 + 5 + value_len + 8 * (entries as usize - 1)
        );
        let Ok((StoreMsg::Batch(batch), _)) = codec().decode_frame::<u64>(&frame) else {
            panic!("canonical ack must decode");
        };
        let RegMsg::AckWrite { helping, .. } = &batch[0] else {
            panic!("kind preserved");
        };
        let first = helping[0].1.as_ref().expect("a value");
        for (_, h) in helping {
            let h = h.as_ref().expect("a value");
            let shared = match (&first.val, &h.val) {
                (StoreVal::Inline(a), StoreVal::Inline(b)) => Arc::ptr_eq(a, b),
                (StoreVal::Routing(a), StoreVal::Routing(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            assert!(shared, "a repeat must share the first copy");
        }
    }
}
