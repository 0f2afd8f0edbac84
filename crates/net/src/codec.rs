//! The canonical [`StoreMsg`] wire codec: length-prefixed frames, a
//! versioned header, and exact byte accounting.
//!
//! Inside the simulator messages travel as Rust values and
//! [`Message::wire_bytes`](sbs_sim::Message::wire_bytes) is an
//! *estimate* used for byte metering. On a real socket the estimate
//! becomes a contract: every variant here encodes to **exactly**
//! `wire_bytes()` body bytes, so the byte traffic a socket deployment
//! puts on the wire is the byte traffic the sim benches have been
//! reporting all along (modulo the fixed 6-byte frame header, which is
//! transport overhead and deliberately not counted).
//!
//! The decoder treats the peer as Byzantine, because on a real wire it
//! may be:
//!
//! - the frame length is checked against [`MAX_FRAME`] **before** any
//!   allocation, so a malicious length prefix cannot force unbounded
//!   memory;
//! - every field with an illegal encoding (a wsn outside the ring, an
//!   unknown flag value, an unsorted shard map, a non-zero reserved
//!   header field) is a [`DecodeError`], never a panic;
//! - every message has exactly one encoding, so a decoded frame
//!   re-encodes to the same bytes: a redundant form (an `ACK_WRITE`
//!   helping value sent in full where an earlier entry carries it) is
//!   refused;
//! - counted substructures (batch entries, helping pairs, Merkle
//!   proofs) are decoded against the bytes actually present — counts
//!   never pre-size an allocation.
//!
//! ## Frame layout
//!
//! ```text
//! frame   := len:u32le payload            (len = payload length ≤ MAX_FRAME)
//! payload := version:u8 kind:u8 body      (body length == msg.wire_bytes())
//! ```
//!
//! The version byte ([`WIRE_VERSION`], now 3) covers the meaning of the
//! bytes as well as their layout: digests and Merkle roots on the wire
//! are `sbs_bulk` content addresses, so a change of the digest
//! construction bumps it even when no field moves.
//!
//! All integers are little-endian, matching `sbs_bulk`'s [`BulkCodec`].
//! Variable-length tails (bulk bytes, Merkle proofs, batch contents)
//! are delimited by the frame end rather than redundant inner lengths —
//! which is exactly how `wire_bytes` accounts them.
//!
//! ## Register messages
//!
//! A batch is a run of register messages, each a 16-byte header
//! (`kind:u8 reg:u32 tag:u64 count:u24`) and a body:
//!
//! ```text
//! WRITE         value
//! NEW_HELP_VAL  value reader:u32 × count
//! READ          kind:u8                  (0 again, 1 new, 2 probe)
//! SS_ACK        —
//! ACK_WRITE     (reader:u32 helping) × count
//! ACK_READ      last:value option
//! ACK_PROBE     option                   (answers a probe READ)
//! option       := 0 (⊥) | 1 value
//! helping      := option | 2 entry:u24
//! ```
//!
//! Flag 2 is an `ACK_WRITE` back-reference ([`HelpingForm::Repeat`]):
//! the index names the earlier entry carrying the value in full. The
//! encoder always uses it for a repeat and the decoder refuses a full
//! copy of a value an earlier entry holds, so each distinct value
//! crosses the wire once per `ACK_WRITE` and decoded repeats share the
//! first copy's storage.

use sbs_bulk::{get_u32, get_u64, put_u32, put_u64, BulkCodec, BulkDigest, BulkRef, SharedBytes};
use sbs_core::{ack_write_forms, HelpingForm, Payload, ReadKind, RegId, RegMsg, SeqVal};
use sbs_stamps::RingSeq;
use sbs_store::{RoutingEpoch, ShardMap, StoreMsg, StorePayload, StoreVal, StoreWire};
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// The codec version byte every payload starts with. Version 2 added the
/// probe `READ`, `ACK_PROBE` and repeated helping values. Version 3 keeps
/// the frame layout but changes what a content address means (the bulk
/// plane's digest construction), so a version-2 peer is refused up front
/// instead of failing every fragment verification.
pub const WIRE_VERSION: u8 = 3;

/// Hard cap on a frame's payload length: 16 MiB. A peer announcing more
/// is rejected before any allocation happens. Generous relative to real
/// traffic — the largest legitimate frames are bulk-plane shard maps,
/// which the benches keep in the kilobytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a frame or payload failed to decode. Every malformed input maps
/// here — the decoder has no panicking paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the encoding did.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The announced payload length.
        len: u64,
    },
    /// Unknown codec version byte.
    BadVersion(u8),
    /// Unknown message kind byte.
    BadKind(u8),
    /// A field holds an illegal encoding (out-of-ring wsn, unknown flag
    /// value, unsorted map, non-zero reserved field, a full copy of a
    /// value the message already carries, …).
    Malformed(&'static str),
    /// The payload decoded but bytes were left over.
    Trailing,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::Oversized { len } => {
                write!(f, "announced payload of {len} bytes exceeds MAX_FRAME")
            }
            DecodeError::BadVersion(v) => write!(f, "unknown codec version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k}"),
            DecodeError::Malformed(what) => write!(f, "malformed field: {what}"),
            DecodeError::Trailing => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

// Message kind bytes (payload byte 1). Kinds 1, 2 and 4 carried the
// retired whole-blob messages; they decode as `BadKind` and are not
// reused.
const KIND_BATCH: u8 = 0;
const KIND_BULK_GET: u8 = 3;
const KIND_FRAG_PUT: u8 = 5;
const KIND_FRAG_PUT_ACK: u8 = 6;
const KIND_FRAG_GET_ACK: u8 = 7;
const KIND_REPAIR_REQ: u8 = 8;
const KIND_REPAIR_REPLY: u8 = 9;
const KIND_DIGEST_SUMMARY: u8 = 10;

// Register-message kind bytes (first byte of each batch entry header).
const REG_WRITE: u8 = 0;
const REG_NEW_HELP_VAL: u8 = 1;
const REG_READ: u8 = 2;
const REG_SS_ACK: u8 = 3;
const REG_ACK_WRITE: u8 = 4;
const REG_ACK_READ: u8 = 5;
const REG_ACK_PROBE: u8 = 6;

/// The [`StoreWire`] codec for one deployment.
///
/// Carries the deployment's write-sequence-number ring modulus so
/// decoded sequence numbers can be validated against the ring **before**
/// a [`RingSeq`] is constructed (whose constructor asserts) — a peer
/// sending an out-of-ring wsn gets a [`DecodeError`], not a panic.
#[derive(Clone, Copy, Debug)]
pub struct WireCodec {
    wsn_modulus: u128,
}

impl WireCodec {
    /// A codec for a deployment using the given wsn ring modulus (the
    /// builder's `wsn_modulus`, [`sbs_stamps::PAPER_MODULUS`] by
    /// default).
    ///
    /// # Panics
    ///
    /// Panics if the modulus itself is not a valid ring modulus (at
    /// least 3, odd) — that is a local configuration error, not wire
    /// input.
    pub fn new(wsn_modulus: u128) -> Self {
        // Validate once here so decode can construct RingSeq values
        // without ever tripping its assertions on the modulus.
        let _ = RingSeq::zero(wsn_modulus);
        WireCodec { wsn_modulus }
    }

    /// Encodes `msg` as one complete frame (length prefix included).
    ///
    /// # Panics
    ///
    /// Panics if the message exceeds [`MAX_FRAME`] — a locally produced
    /// message that large is a deployment configuration error (the cap
    /// exists to bound what *peers* can make us allocate).
    pub fn encode<V: Payload + BulkCodec>(&self, msg: &StoreWire<V>) -> Vec<u8> {
        let mut frame = vec![0u8; 4];
        frame.push(WIRE_VERSION);
        frame.push(kind_of(msg));
        put_body(&mut frame, msg);
        let payload_len = frame.len() - 4;
        assert!(
            payload_len <= MAX_FRAME,
            "outbound frame of {payload_len} bytes exceeds MAX_FRAME"
        );
        frame[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        debug_assert_eq!(
            payload_len as u64 - 2,
            sbs_sim::Message::wire_bytes(msg),
            "codec body length must equal wire_bytes"
        );
        frame
    }

    /// Decodes one payload (version byte onward — no length prefix).
    pub fn decode_payload<V: Payload + BulkCodec>(
        &self,
        payload: &[u8],
    ) -> Result<StoreWire<V>, DecodeError> {
        let mut buf = payload;
        let version = take_u8(&mut buf)?;
        if version != WIRE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let kind = take_u8(&mut buf)?;
        let msg = self.get_body(kind, &mut buf)?;
        if !buf.is_empty() {
            return Err(DecodeError::Trailing);
        }
        Ok(msg)
    }

    /// Decodes one complete frame from the front of `buf`, returning the
    /// message and the total bytes consumed (prefix included). For
    /// streaming sockets use [`read_frame`] + [`WireCodec::decode_payload`]
    /// instead.
    pub fn decode_frame<V: Payload + BulkCodec>(
        &self,
        buf: &[u8],
    ) -> Result<(StoreWire<V>, usize), DecodeError> {
        let Some((prefix, rest)) = buf.split_first_chunk::<4>() else {
            return Err(DecodeError::Truncated);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(DecodeError::Oversized { len: len as u64 });
        }
        if rest.len() < len {
            return Err(DecodeError::Truncated);
        }
        let msg = self.decode_payload(&rest[..len])?;
        Ok((msg, 4 + len))
    }

    fn get_body<V: Payload + BulkCodec>(
        &self,
        kind: u8,
        buf: &mut &[u8],
    ) -> Result<StoreWire<V>, DecodeError> {
        match kind {
            KIND_BATCH => {
                let mut batch = Vec::new();
                while !buf.is_empty() {
                    batch.push(self.get_reg(buf)?);
                }
                Ok(StoreMsg::Batch(batch))
            }
            KIND_BULK_GET => {
                let shard = take_u32(buf)?;
                let digest = get_digest(buf)?;
                let tag = take_u64(buf)?;
                Ok(StoreMsg::BulkGet { shard, digest, tag })
            }
            KIND_FRAG_PUT => {
                let shard = take_u32(buf)?;
                let root = get_digest(buf)?;
                let index = take_u32(buf)?;
                let total = take_u32(buf)?;
                let len = take_u64(buf)?;
                if (buf.len() as u64) < len {
                    return Err(DecodeError::Truncated);
                }
                let (frag, proof_bytes) = buf.split_at(len as usize);
                let bytes: SharedBytes = Arc::from(frag);
                if !(proof_bytes.len() as u64).is_multiple_of(BulkDigest::WIRE_SIZE) {
                    return Err(DecodeError::Malformed("merkle proof length"));
                }
                *buf = proof_bytes;
                let mut proof = Vec::new();
                while !buf.is_empty() {
                    proof.push(get_digest(buf)?);
                }
                Ok(StoreMsg::FragPut {
                    shard,
                    root,
                    index,
                    total,
                    bytes,
                    proof,
                })
            }
            KIND_FRAG_PUT_ACK => {
                let shard = take_u32(buf)?;
                let root = get_digest(buf)?;
                let index = take_u32(buf)?;
                Ok(StoreMsg::FragPutAck { shard, root, index })
            }
            KIND_FRAG_GET_ACK => {
                let shard = take_u32(buf)?;
                let root = get_digest(buf)?;
                let tag = take_u64(buf)?;
                let frag = get_frag(buf)?;
                Ok(StoreMsg::FragGetAck {
                    shard,
                    root,
                    tag,
                    frag,
                })
            }
            KIND_REPAIR_REQ => {
                let shard = take_u32(buf)?;
                let digest = get_digest(buf)?;
                Ok(StoreMsg::RepairRequest { shard, digest })
            }
            KIND_REPAIR_REPLY => {
                let shard = take_u32(buf)?;
                let digest = get_digest(buf)?;
                let frag = get_frag(buf)?;
                Ok(StoreMsg::RepairReply {
                    shard,
                    digest,
                    frag,
                })
            }
            KIND_DIGEST_SUMMARY => {
                let count = take_u32(buf)?;
                let mut entries = Vec::new();
                for _ in 0..count {
                    let shard = take_u32(buf)?;
                    let digest = get_digest(buf)?;
                    entries.push((shard, digest));
                }
                Ok(StoreMsg::DigestSummary { entries })
            }
            other => Err(DecodeError::BadKind(other)),
        }
    }

    fn get_reg<V: Payload + BulkCodec>(
        &self,
        buf: &mut &[u8],
    ) -> Result<RegMsg<StorePayload<V>>, DecodeError> {
        let kind = take_u8(buf)?;
        let reg = take_u32(buf)?;
        let tag = take_u64(buf)?;
        let aux = take_u24(buf)?;
        // Reserved header fields must be zero — one canonical encoding
        // per message, so content addressing and byte accounting cannot
        // be gamed by redundant representations.
        let reserved_zero = |v: u64, what| {
            if v == 0 {
                Ok(())
            } else {
                Err(DecodeError::Malformed(what))
            }
        };
        match kind {
            REG_WRITE => {
                reserved_zero(aux as u64, "write aux")?;
                let val = self.get_payload(buf)?;
                Ok(RegMsg::Write {
                    reg: RegId(reg),
                    tag,
                    val,
                })
            }
            REG_NEW_HELP_VAL => {
                let val = self.get_payload(buf)?;
                let mut readers = Vec::new();
                for _ in 0..aux {
                    readers.push(sbs_sim::ProcessId(take_u32(buf)?));
                }
                Ok(RegMsg::NewHelpVal {
                    reg: RegId(reg),
                    tag,
                    val,
                    readers,
                })
            }
            REG_READ => {
                reserved_zero(aux as u64, "read aux")?;
                let kind = match take_u8(buf)? {
                    0 => ReadKind::Again,
                    1 => ReadKind::New,
                    2 => ReadKind::Probe,
                    _ => return Err(DecodeError::Malformed("read kind")),
                };
                Ok(RegMsg::Read {
                    reg: RegId(reg),
                    tag,
                    kind,
                })
            }
            REG_SS_ACK => {
                reserved_zero(reg as u64, "ss-ack reg")?;
                reserved_zero(aux as u64, "ss-ack aux")?;
                Ok(RegMsg::SsAck { tag })
            }
            REG_ACK_WRITE => {
                reserved_zero(tag, "ack-write tag")?;
                let mut helping: Vec<(sbs_sim::ProcessId, Option<StorePayload<V>>)> = Vec::new();
                // The values sent in full so far, and which entries sent
                // them: hashing keeps the duplicate check linear in the
                // frame's bytes whatever a peer sends.
                let mut full = HashSet::new();
                let mut is_full = Vec::new();
                for _ in 0..aux {
                    let pid = sbs_sim::ProcessId(take_u32(buf)?);
                    let (val, sent_full) = match take_u8(buf)? {
                        0 => (None, false),
                        1 => {
                            let v = self.get_payload(buf)?;
                            if !full.insert(v.clone()) {
                                return Err(DecodeError::Malformed("repeated helping value"));
                            }
                            (Some(v), true)
                        }
                        2 => {
                            let j = take_u24(buf)? as usize;
                            match helping.get(j) {
                                Some((_, Some(v))) if is_full[j] => (Some(v.clone()), false),
                                _ => return Err(DecodeError::Malformed("helping back-reference")),
                            }
                        }
                        _ => return Err(DecodeError::Malformed("option flag")),
                    };
                    is_full.push(sent_full);
                    helping.push((pid, val));
                }
                Ok(RegMsg::AckWrite {
                    reg: RegId(reg),
                    helping,
                })
            }
            REG_ACK_READ => {
                reserved_zero(tag, "ack-read tag")?;
                reserved_zero(aux as u64, "ack-read aux")?;
                let last = self.get_payload(buf)?;
                let helping = self.get_option(buf)?;
                Ok(RegMsg::AckRead {
                    reg: RegId(reg),
                    last,
                    helping,
                })
            }
            REG_ACK_PROBE => {
                reserved_zero(tag, "ack-probe tag")?;
                reserved_zero(aux as u64, "ack-probe aux")?;
                let helping = self.get_option(buf)?;
                Ok(RegMsg::AckProbe {
                    reg: RegId(reg),
                    helping,
                })
            }
            other => Err(DecodeError::BadKind(other)),
        }
    }

    /// A lone helping value: flag 0 (⊥) or 1 and the value.
    fn get_option<V: Payload + BulkCodec>(
        &self,
        buf: &mut &[u8],
    ) -> Result<Option<StorePayload<V>>, DecodeError> {
        match take_u8(buf)? {
            0 => Ok(None),
            1 => Ok(Some(self.get_payload(buf)?)),
            _ => Err(DecodeError::Malformed("option flag")),
        }
    }

    fn get_payload<V: Payload + BulkCodec>(
        &self,
        buf: &mut &[u8],
    ) -> Result<StorePayload<V>, DecodeError> {
        let wsn = take_u128(buf)?;
        if wsn >= self.wsn_modulus {
            return Err(DecodeError::Malformed("wsn outside the ring"));
        }
        let val = match take_u8(buf)? {
            0 => {
                let map =
                    ShardMap::<V>::decode_from(buf).ok_or(DecodeError::Malformed("shard map"))?;
                StoreVal::Inline(Arc::new(map))
            }
            1 => {
                let digest = get_digest(buf)?;
                let len = take_u64(buf)?;
                StoreVal::Ref(BulkRef { digest, len })
            }
            2 => {
                let epoch = take_u64(buf)?;
                let count = take_u32(buf)? as usize;
                // The count is validated against the bytes actually
                // present before any allocation (4 bytes per owner).
                if buf.len() < count * 4 {
                    return Err(DecodeError::Malformed("routing owner count"));
                }
                let mut owners = Vec::with_capacity(count);
                for _ in 0..count {
                    owners.push(take_u32(buf)?);
                }
                StoreVal::Routing(Arc::new(RoutingEpoch { epoch, owners }))
            }
            _ => return Err(DecodeError::Malformed("store-val variant")),
        };
        Ok(SeqVal::new(RingSeq::new(wsn, self.wsn_modulus), val))
    }
}

fn kind_of<P>(msg: &StoreMsg<P>) -> u8 {
    match msg {
        StoreMsg::Batch(_) => KIND_BATCH,
        StoreMsg::BulkGet { .. } => KIND_BULK_GET,
        StoreMsg::FragPut { .. } => KIND_FRAG_PUT,
        StoreMsg::FragPutAck { .. } => KIND_FRAG_PUT_ACK,
        StoreMsg::FragGetAck { .. } => KIND_FRAG_GET_ACK,
        StoreMsg::RepairRequest { .. } => KIND_REPAIR_REQ,
        StoreMsg::RepairReply { .. } => KIND_REPAIR_REPLY,
        StoreMsg::DigestSummary { .. } => KIND_DIGEST_SUMMARY,
    }
}

fn put_body<V: Payload + BulkCodec>(out: &mut Vec<u8>, msg: &StoreWire<V>) {
    match msg {
        StoreMsg::Batch(batch) => {
            for m in batch {
                put_reg(out, m);
            }
        }
        StoreMsg::BulkGet { shard, digest, tag } => {
            put_u32(out, *shard);
            put_digest(out, digest);
            put_u64(out, *tag);
        }
        StoreMsg::FragPut {
            shard,
            root,
            index,
            total,
            bytes,
            proof,
        } => {
            put_u32(out, *shard);
            put_digest(out, root);
            put_u32(out, *index);
            put_u32(out, *total);
            put_u64(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
            for d in proof {
                put_digest(out, d);
            }
        }
        StoreMsg::FragPutAck { shard, root, index } => {
            put_u32(out, *shard);
            put_digest(out, root);
            put_u32(out, *index);
        }
        StoreMsg::FragGetAck {
            shard,
            root,
            tag,
            frag,
        } => {
            put_u32(out, *shard);
            put_digest(out, root);
            put_u64(out, *tag);
            put_frag(out, frag);
        }
        StoreMsg::RepairRequest { shard, digest } => {
            put_u32(out, *shard);
            put_digest(out, digest);
        }
        StoreMsg::RepairReply {
            shard,
            digest,
            frag,
        } => {
            put_u32(out, *shard);
            put_digest(out, digest);
            put_frag(out, frag);
        }
        StoreMsg::DigestSummary { entries } => {
            put_u32(out, entries.len() as u32);
            for (shard, digest) in entries {
                put_u32(out, *shard);
                put_digest(out, digest);
            }
        }
    }
}

fn put_reg<V: Payload + BulkCodec>(out: &mut Vec<u8>, msg: &RegMsg<StorePayload<V>>) {
    let (kind, reg, tag, aux) = match msg {
        RegMsg::Write { reg, tag, .. } => (REG_WRITE, reg.0, *tag, 0),
        RegMsg::NewHelpVal {
            reg, tag, readers, ..
        } => (REG_NEW_HELP_VAL, reg.0, *tag, readers.len()),
        RegMsg::Read { reg, tag, .. } => (REG_READ, reg.0, *tag, 0),
        RegMsg::SsAck { tag } => (REG_SS_ACK, 0, *tag, 0),
        RegMsg::AckWrite { reg, helping } => (REG_ACK_WRITE, reg.0, 0, helping.len()),
        RegMsg::AckRead { reg, .. } => (REG_ACK_READ, reg.0, 0, 0),
        RegMsg::AckProbe { reg, .. } => (REG_ACK_PROBE, reg.0, 0, 0),
    };
    out.push(kind);
    put_u32(out, reg);
    put_u64(out, tag);
    put_u24(out, aux);
    match msg {
        RegMsg::Write { val, .. } => put_payload(out, val),
        RegMsg::NewHelpVal { val, readers, .. } => {
            put_payload(out, val);
            for r in readers {
                put_u32(out, r.0);
            }
        }
        RegMsg::Read { kind, .. } => out.push(*kind as u8),
        RegMsg::SsAck { .. } => {}
        RegMsg::AckWrite { helping, .. } => {
            for ((pid, _), form) in helping.iter().zip(ack_write_forms(helping)) {
                put_u32(out, pid.0);
                put_helping(out, form);
            }
        }
        RegMsg::AckRead { last, helping, .. } => {
            put_payload(out, last);
            put_helping(out, HelpingForm::of(helping));
        }
        RegMsg::AckProbe { helping, .. } => put_helping(out, HelpingForm::of(helping)),
    }
}

/// A helping value's flag byte and what follows it.
fn put_helping<V: Payload + BulkCodec>(out: &mut Vec<u8>, form: HelpingForm<'_, StorePayload<V>>) {
    match form {
        HelpingForm::Bottom => out.push(0),
        HelpingForm::Full(v) => {
            out.push(1);
            put_payload(out, v);
        }
        HelpingForm::Repeat(entry) => {
            out.push(2);
            put_u24(out, entry);
        }
    }
}

fn put_payload<V: Payload + BulkCodec>(out: &mut Vec<u8>, p: &StorePayload<V>) {
    put_u128(out, p.wsn.value());
    match &p.val {
        StoreVal::Inline(map) => {
            out.push(0);
            map.encode_into(out);
        }
        StoreVal::Ref(r) => {
            out.push(1);
            put_digest(out, &r.digest);
            put_u64(out, r.len);
        }
        StoreVal::Routing(e) => {
            // tag(1) + epoch(8) + count(4) + 4 bytes per owner — exactly
            // `RoutingEpoch::encoded_len`, so `wire_bytes` accounting
            // holds for epoch-commit frames too.
            out.push(2);
            put_u64(out, e.epoch);
            put_u32(out, e.owners.len() as u32);
            for &w in &e.owners {
                put_u32(out, w);
            }
        }
    }
}

/// A served fragment: `(index, bytes, Merkle proof)`.
type Frag = (u32, SharedBytes, Vec<BulkDigest>);

/// The fragment option that ends both fragment replies. Merkle paths are
/// ≤ ⌈log2(replicas)⌉ long (≤ 8 for any real fleet), so the path length
/// rides in the option flag (`1 + proof length`; 0 is `None`) and the
/// fragment runs to the frame end minus the proof's fixed-size tail —
/// neither needs its own length field.
fn put_frag(out: &mut Vec<u8>, frag: &Option<Frag>) {
    match frag {
        None => out.push(0),
        Some((index, bytes, proof)) => {
            assert!(proof.len() <= 254, "merkle proof too long for the wire");
            out.push(1 + proof.len() as u8);
            put_u32(out, *index);
            out.extend_from_slice(bytes);
            for d in proof {
                put_digest(out, d);
            }
        }
    }
}

/// Decodes [`put_frag`]'s layout; it consumes the rest of the frame.
fn get_frag(buf: &mut &[u8]) -> Result<Option<Frag>, DecodeError> {
    let flag = take_u8(buf)?;
    if flag == 0 {
        return Ok(None);
    }
    let proof_len = (flag - 1) as usize;
    let index = take_u32(buf)?;
    let proof_bytes = proof_len as u64 * BulkDigest::WIRE_SIZE;
    let Some(frag_len) = (buf.len() as u64).checked_sub(proof_bytes) else {
        return Err(DecodeError::Truncated);
    };
    let (frag, tail) = buf.split_at(frag_len as usize);
    let bytes: SharedBytes = Arc::from(frag);
    *buf = tail;
    let mut proof = Vec::new();
    for _ in 0..proof_len {
        proof.push(get_digest(buf)?);
    }
    Ok(Some((index, bytes, proof)))
}

fn put_digest(out: &mut Vec<u8>, d: &BulkDigest) {
    for word in d.0 {
        put_u64(out, word);
    }
}

fn get_digest(buf: &mut &[u8]) -> Result<BulkDigest, DecodeError> {
    let mut words = [0u64; 4];
    for w in &mut words {
        *w = take_u64(buf)?;
    }
    Ok(BulkDigest(words))
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The 16-byte register-message header packs its count field (reader or
/// helping-pair count) into 3 bytes — 16 M entries, far beyond any
/// fleet.
fn put_u24(out: &mut Vec<u8>, v: usize) {
    assert!(
        v < (1 << 24),
        "count field overflows the 24-bit header slot"
    );
    out.extend_from_slice(&(v as u32).to_le_bytes()[..3]);
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&b, rest) = buf.split_first().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(b)
}

fn take_u24(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    let (head, rest) = buf.split_first_chunk::<3>().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(u32::from_le_bytes([head[0], head[1], head[2], 0]))
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    get_u32(buf).ok_or(DecodeError::Truncated)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    get_u64(buf).ok_or(DecodeError::Truncated)
}

fn take_u128(buf: &mut &[u8]) -> Result<u128, DecodeError> {
    let (head, rest) = buf
        .split_first_chunk::<16>()
        .ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(u128::from_le_bytes(*head))
}

/// Reads one frame's payload from a blocking stream.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary (the
/// peer closed). An oversized length prefix fails with
/// [`io::ErrorKind::InvalidData`] **before** any allocation; end-of-stream
/// mid-frame fails with [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    // A clean EOF before the first prefix byte is a normal close; EOF
    // anywhere later is a torn frame.
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid frame prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            DecodeError::Oversized { len: len as u64 },
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one already-encoded frame (from [`WireCodec::encode`]) to a
/// blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_sim::Message;

    fn codec() -> WireCodec {
        WireCodec::new(sbs_stamps::PAPER_MODULUS)
    }

    fn payload(wsn: u128, entries: &[(&str, u64)]) -> StorePayload<u64> {
        let mut map = ShardMap::new();
        for (k, v) in entries {
            map.insert(k, *v);
        }
        SeqVal::new(
            RingSeq::new(wsn, sbs_stamps::PAPER_MODULUS),
            StoreVal::Inline(Arc::new(map)),
        )
    }

    fn round_trip(msg: &StoreWire<u64>) -> StoreWire<u64> {
        let c = codec();
        let frame = c.encode(msg);
        assert_eq!(
            frame.len() as u64 - 6,
            msg.wire_bytes(),
            "body bytes must equal wire_bytes for {msg:?}"
        );
        let (decoded, consumed) = c.decode_frame::<u64>(&frame).expect("round trip");
        assert_eq!(consumed, frame.len());
        decoded
    }

    #[test]
    fn batch_round_trips_and_matches_wire_bytes() {
        let msg: StoreWire<u64> = StoreMsg::Batch(vec![
            RegMsg::Write {
                reg: RegId(3),
                tag: 77,
                val: payload(5, &[("key1", 10), ("key2", 20)]),
            },
            RegMsg::SsAck { tag: 78 },
        ]);
        let back = round_trip(&msg);
        // StoreMsg lacks PartialEq; re-encoding must reproduce the bytes.
        assert_eq!(codec().encode(&msg), codec().encode(&back));
    }

    #[test]
    fn empty_batch_is_the_empty_body() {
        let msg: StoreWire<u64> = StoreMsg::Batch(Vec::new());
        assert_eq!(msg.wire_bytes(), 0);
        let back = round_trip(&msg);
        assert!(matches!(back, StoreMsg::Batch(b) if b.is_empty()));
    }

    #[test]
    fn out_of_ring_wsn_is_refused() {
        let c = WireCodec::new(257);
        let msg: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::SsAck { tag: 1 }]);
        let frame = c.encode(&msg);
        // Same frame decoded fine under the matching modulus…
        assert!(c.decode_frame::<u64>(&frame).is_ok());
        // …but a write stamped inside a larger ring is out of range here.
        let big = WireCodec::new(sbs_stamps::PAPER_MODULUS);
        let stamped: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::Write {
            reg: RegId(0),
            tag: 1,
            val: payload(1_000_000, &[]),
        }]);
        let frame = big.encode(&stamped);
        assert!(matches!(
            c.decode_frame::<u64>(&frame),
            Err(DecodeError::Malformed("wsn outside the ring"))
        ));
    }

    #[test]
    fn routing_epoch_round_trips_and_matches_wire_bytes() {
        let msg: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::Write {
            reg: RegId(8),
            tag: 41,
            val: SeqVal::new(
                RingSeq::new(6, sbs_stamps::PAPER_MODULUS),
                StoreVal::Routing(Arc::new(RoutingEpoch {
                    epoch: 2,
                    owners: vec![1, 0, 3, 2, 1, 0, 3, 2],
                })),
            ),
        }]);
        let back = round_trip(&msg);
        assert_eq!(codec().encode(&msg), codec().encode(&back));
        let StoreMsg::Batch(batch) = back else {
            panic!("kind preserved")
        };
        let RegMsg::Write { val, .. } = &batch[0] else {
            panic!("write preserved")
        };
        assert!(matches!(
            &val.val,
            StoreVal::Routing(e) if e.epoch == 2 && e.owners == vec![1, 0, 3, 2, 1, 0, 3, 2]
        ));
    }

    #[test]
    fn routing_owner_count_is_validated_before_allocation() {
        let c = codec();
        // A hand-built write whose routing value announces far more
        // owners than the frame carries.
        let mut frame = vec![0u8; 4];
        frame.push(WIRE_VERSION);
        frame.push(KIND_BATCH);
        frame.push(REG_WRITE);
        put_u32(&mut frame, 8); // reg
        put_u64(&mut frame, 1); // tag
        put_u24(&mut frame, 0); // aux
        put_u128(&mut frame, 3); // wsn
        frame.push(2); // StoreVal::Routing
        put_u64(&mut frame, 1); // epoch
        put_u32(&mut frame, u32::MAX); // owner count >> frame length
        put_u32(&mut frame, 0); // a single actual owner
        let len = (frame.len() - 4) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            c.decode_frame::<u64>(&frame),
            Err(DecodeError::Malformed("routing owner count"))
        ));
    }

    #[test]
    fn noncanonical_reserved_fields_are_refused() {
        let c = codec();
        // An SsAck with a non-zero reg field: build the body by hand.
        let mut frame = vec![0u8; 4];
        frame.push(WIRE_VERSION);
        frame.push(KIND_BATCH);
        frame.push(REG_SS_ACK);
        put_u32(&mut frame, 9); // reserved reg — must be zero
        put_u64(&mut frame, 1);
        put_u24(&mut frame, 0);
        let len = (frame.len() - 4) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            c.decode_frame::<u64>(&frame),
            Err(DecodeError::Malformed("ss-ack reg"))
        ));
    }

    #[test]
    fn read_frame_rejects_oversized_before_allocating() {
        let mut stream: &[u8] = &[(u32::MAX).to_le_bytes(), [0u8; 4]].concat();
        let err = read_frame(&mut stream).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_frame_clean_eof_is_none() {
        let mut stream: &[u8] = &[];
        assert!(read_frame(&mut stream).expect("clean eof").is_none());
        let mut torn: &[u8] = &[3, 0];
        assert_eq!(
            read_frame(&mut torn).expect_err("torn").kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
