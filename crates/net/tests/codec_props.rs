//! Seeded round-trip property tests for the canonical wire codec: every
//! [`StoreMsg`] variant, with both `Inline` and `Ref` payloads, across
//! hundreds of deterministically random shapes. Each case asserts the
//! two codec invariants: the encoded body is exactly
//! [`Message::wire_bytes`] long, and decode-then-re-encode reproduces
//! the bytes (the substitute for `PartialEq`, which the message types
//! deliberately do not implement). Acknowledgements draw their helping
//! values from a small pool, so `ACK_WRITE` back-references and
//! `ACK_READ`s whose helping value equals `last` are common.

use sbs_bulk::{BulkDigest, BulkRef, SharedBytes};
use sbs_core::{Payload, ReadKind, RegId, RegMsg, SeqVal};
use sbs_net::WireCodec;
use sbs_sim::{DetRng, Message, ProcessId};
use sbs_stamps::{RingSeq, PAPER_MODULUS};
use sbs_store::{ShardMap, StoreMsg, StorePayload, StoreVal, StoreWire};
use std::sync::Arc;

const CASES: u64 = 200;

fn codec() -> WireCodec {
    WireCodec::new(PAPER_MODULUS)
}

fn digest(rng: &mut DetRng) -> BulkDigest {
    BulkDigest([
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
    ])
}

fn bytes(rng: &mut DetRng, max: u64) -> SharedBytes {
    let len = rng.range_inclusive(0, max) as usize;
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

fn payload(rng: &mut DetRng) -> StorePayload<u64> {
    let wsn = rng.next_u64() as u128 % PAPER_MODULUS;
    let val = if rng.chance(0.5) {
        let mut map = ShardMap::new();
        for i in 0..rng.range_inclusive(0, 5) {
            map.insert(&format!("key{i}"), rng.next_u64());
        }
        StoreVal::Inline(Arc::new(map))
    } else {
        StoreVal::Ref(BulkRef {
            digest: digest(rng),
            len: rng.next_u64() >> 20,
        })
    };
    SeqVal::new(RingSeq::new(wsn, PAPER_MODULUS), val)
}

/// A helping value from `pool` (or ⊥), so that repeats happen.
fn pooled(rng: &mut DetRng, pool: &[StorePayload<u64>]) -> Option<StorePayload<u64>> {
    let i = rng.range_inclusive(0, pool.len() as u64) as usize;
    pool.get(i).cloned()
}

fn reg_msg(rng: &mut DetRng) -> RegMsg<StorePayload<u64>> {
    let pool: Vec<_> = (0..rng.range_inclusive(1, 3))
        .map(|_| payload(rng))
        .collect();
    match rng.range_inclusive(0, 6) {
        0 => RegMsg::Write {
            reg: RegId(rng.next_u32() % 64),
            tag: rng.next_u64(),
            val: payload(rng),
        },
        1 => RegMsg::NewHelpVal {
            reg: RegId(rng.next_u32() % 64),
            tag: rng.next_u64(),
            val: payload(rng),
            readers: (0..rng.range_inclusive(0, 6))
                .map(|_| ProcessId(rng.next_u32() % 32))
                .collect(),
        },
        2 => RegMsg::Read {
            reg: RegId(rng.next_u32() % 64),
            tag: rng.next_u64(),
            kind: match rng.range_inclusive(0, 2) {
                0 => ReadKind::Again,
                1 => ReadKind::New,
                _ => ReadKind::Probe,
            },
        },
        3 => RegMsg::SsAck {
            tag: rng.next_u64(),
        },
        4 => RegMsg::AckWrite {
            reg: RegId(rng.next_u32() % 64),
            helping: (0..rng.range_inclusive(0, 6))
                .map(|_| (ProcessId(rng.next_u32() % 32), pooled(rng, &pool)))
                .collect(),
        },
        5 => RegMsg::AckRead {
            reg: RegId(rng.next_u32() % 64),
            last: pool[0].clone(),
            helping: pooled(rng, &pool),
        },
        _ => RegMsg::AckProbe {
            reg: RegId(rng.next_u32() % 64),
            helping: pooled(rng, &pool),
        },
    }
}

/// Encode/decode/re-encode `msg`, asserting both codec invariants.
fn round_trip(msg: &StoreWire<u64>) {
    let c = codec();
    let frame = c.encode(msg);
    assert_eq!(
        frame.len() as u64,
        6 + msg.wire_bytes(),
        "encoded body must be exactly wire_bytes for {}",
        msg.label()
    );
    let (decoded, consumed) = c
        .decode_frame::<u64>(&frame)
        .unwrap_or_else(|e| panic!("{} failed to decode: {e}", msg.label()));
    assert_eq!(consumed, frame.len(), "decode must consume the full frame");
    assert_eq!(
        c.encode(&decoded),
        frame,
        "re-encode must reproduce the bytes for {}",
        msg.label()
    );
}

#[test]
fn register_batches_round_trip() {
    let mut rng = DetRng::derive(0xC0DEC, 1);
    for _ in 0..CASES {
        let batch: Vec<_> = (0..rng.range_inclusive(1, 8))
            .map(|_| reg_msg(&mut rng))
            .collect();
        round_trip(&StoreMsg::Batch(batch));
    }
}

fn map_payload(wsn: u128, entries: &[(&str, u64)]) -> StorePayload<u64> {
    let mut map = ShardMap::new();
    for (k, v) in entries {
        map.insert(k, *v);
    }
    SeqVal::new(
        RingSeq::new(wsn, PAPER_MODULUS),
        StoreVal::Inline(Arc::new(map)),
    )
}

/// Round-trips a one-message batch and returns the decoded message.
fn decoded(msg: RegMsg<StorePayload<u64>>) -> RegMsg<StorePayload<u64>> {
    let wire: StoreWire<u64> = StoreMsg::Batch(vec![msg]);
    round_trip(&wire);
    let frame = codec().encode(&wire);
    match codec().decode_frame::<u64>(&frame) {
        Ok((StoreMsg::Batch(mut b), _)) if b.len() == 1 => b.pop().expect("one entry"),
        other => panic!("expected a one-entry batch, got {other:?}"),
    }
}

#[test]
fn probe_read_round_trips_with_its_kind() {
    for kind in [ReadKind::Again, ReadKind::New, ReadKind::Probe] {
        let back = decoded(RegMsg::Read {
            reg: RegId(2),
            tag: 9,
            kind,
        });
        assert!(matches!(back, RegMsg::Read { kind: k, tag: 9, .. } if k == kind));
    }
}

#[test]
fn probe_ack_round_trips_without_last() {
    let help = map_payload(4, &[("a", 1), ("b", 2)]);
    let msg = RegMsg::AckProbe {
        reg: RegId(1),
        helping: Some(help.clone()),
    };
    assert_eq!(msg.wire_size(), 16 + 1 + help.wire_size());
    let back = decoded(msg);
    assert!(matches!(back, RegMsg::AckProbe { helping: Some(h), .. } if h == help));
    let back = decoded(RegMsg::AckProbe {
        reg: RegId(1),
        helping: None,
    });
    assert!(matches!(back, RegMsg::AckProbe { helping: None, .. }));
}

#[test]
fn back_referenced_ack_write_round_trips_sharing_one_copy() {
    let a = map_payload(7, &[("k1", 10), ("k2", 20), ("k3", 30)]);
    // An equal value in separate storage: equality, not identity, decides.
    let a2 = map_payload(7, &[("k1", 10), ("k2", 20), ("k3", 30)]);
    let b = map_payload(8, &[("k1", 11)]);
    let helping = vec![
        (ProcessId(4), Some(a.clone())),
        (ProcessId(5), None),
        (ProcessId(6), Some(a2)),
        (ProcessId(7), Some(b.clone())),
        (ProcessId(8), Some(a.clone())),
    ];
    let msg = RegMsg::AckWrite {
        reg: RegId(3),
        helping,
    };
    // a and b in full once each; two 3-byte back-references.
    assert_eq!(
        msg.wire_size(),
        16 + 5 * 5 + a.wire_size() + b.wire_size() + 2 * 3
    );
    let RegMsg::AckWrite { helping, .. } = decoded(msg) else {
        panic!("kind preserved");
    };
    let vals: Vec<_> = helping.iter().map(|(_, h)| h.clone()).collect();
    assert_eq!(
        vals,
        vec![Some(a.clone()), None, Some(a.clone()), Some(b), Some(a)]
    );
    let inline = |i: usize| match &helping[i].1 {
        Some(SeqVal {
            val: StoreVal::Inline(m),
            ..
        }) => m.clone(),
        other => panic!("entry {i} is not inline: {other:?}"),
    };
    assert!(
        Arc::ptr_eq(&inline(0), &inline(2)),
        "back-references share one copy"
    );
    assert!(Arc::ptr_eq(&inline(0), &inline(4)));
}

#[test]
fn fetch_requests_round_trip() {
    let mut rng = DetRng::derive(0xC0DEC, 2);
    for _ in 0..CASES {
        round_trip(&StoreMsg::BulkGet {
            shard: rng.next_u32() % 16,
            digest: digest(&mut rng),
            tag: rng.next_u64(),
        });
    }
}

#[test]
fn fragment_plane_round_trips() {
    let mut rng = DetRng::derive(0xC0DEC, 3);
    for _ in 0..CASES {
        let proof_len = rng.range_inclusive(0, 5);
        round_trip(&StoreMsg::FragPut {
            shard: rng.next_u32() % 16,
            root: digest(&mut rng),
            index: rng.next_u32() % 9,
            total: 9,
            bytes: bytes(&mut rng, 256),
            proof: (0..proof_len).map(|_| digest(&mut rng)).collect(),
        });
        round_trip(&StoreMsg::FragPutAck {
            shard: rng.next_u32() % 16,
            root: digest(&mut rng),
            index: rng.next_u32() % 9,
        });
        let answered = rng.chance(0.5);
        round_trip(&StoreMsg::FragGetAck {
            shard: rng.next_u32() % 16,
            root: digest(&mut rng),
            tag: rng.next_u64(),
            frag: answered.then(|| {
                (
                    rng.next_u32() % 9,
                    bytes(&mut rng, 256),
                    (0..rng.range_inclusive(0, 5))
                        .map(|_| digest(&mut rng))
                        .collect(),
                )
            }),
        });
    }
}

#[test]
fn repair_plane_round_trips() {
    let mut rng = DetRng::derive(0xC0DEC, 4);
    for _ in 0..CASES {
        round_trip(&StoreMsg::RepairRequest {
            shard: rng.next_u32() % 16,
            digest: digest(&mut rng),
        });
        let held = rng.chance(0.5);
        round_trip(&StoreMsg::RepairReply {
            shard: rng.next_u32() % 16,
            digest: digest(&mut rng),
            frag: held.then(|| {
                (
                    rng.next_u32() % 9,
                    bytes(&mut rng, 256),
                    (0..rng.range_inclusive(0, 5))
                        .map(|_| digest(&mut rng))
                        .collect(),
                )
            }),
        });
        round_trip(&StoreMsg::DigestSummary {
            entries: (0..rng.range_inclusive(0, 40))
                .map(|_| (rng.next_u32() % 16, digest(&mut rng)))
                .collect(),
        });
    }
}

#[test]
fn zero_length_bodies_round_trip() {
    // The degenerate shapes: empty batch, empty fragment with an empty
    // proof, served empty fragments, unanswered gets.
    round_trip(&StoreMsg::Batch(Vec::new()));
    round_trip(&StoreMsg::FragPut {
        shard: 0,
        root: BulkDigest([0; 4]),
        index: 0,
        total: 1,
        bytes: SharedBytes::from(&[][..]),
        proof: Vec::new(),
    });
    round_trip(&StoreMsg::FragGetAck {
        shard: 0,
        root: BulkDigest([0; 4]),
        tag: 0,
        frag: None,
    });
    round_trip(&StoreMsg::FragGetAck {
        shard: 0,
        root: BulkDigest([0; 4]),
        tag: 0,
        frag: Some((0, SharedBytes::from(&[][..]), Vec::new())),
    });
    round_trip(&StoreMsg::RepairReply {
        shard: 0,
        digest: BulkDigest([0; 4]),
        frag: None,
    });
    round_trip(&StoreMsg::DigestSummary {
        entries: Vec::new(),
    });
}
