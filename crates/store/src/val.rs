//! The register-visible shard value: the whole map inline (full
//! replication) or a fixed-size content-addressed reference to it (bulk
//! mode), plus a synthetic sized value for payload-size sweeps.

use crate::map::ShardMap;
use crate::router::RoutingEpoch;
use sbs_bulk::{get_u32, get_u64, put_u32, put_u64, BulkCodec, BulkRef};
use sbs_core::Payload;
use sbs_sim::DetRng;
use std::fmt;
use std::sync::Arc;

/// What a shard's metadata register stores.
///
/// Under **full replication** every write carries the whole
/// [`ShardMap`] inline, so payload traffic scales with the fleet size
/// `n`. Under the **bulk plane** the register carries only a
/// [`BulkRef`] — `(digest, len)`, 40 bytes regardless of payload — and
/// the map's bytes live on the shard's `2t + 1` data replicas. Both
/// variants flow through the *unmodified* register state machines: to
/// the protocol this is just an opaque, comparable payload.
///
/// The inline map is held behind an [`Arc`]: the writer snapshots its
/// authoritative map **once** per publish, and every hop that used to
/// deep-clone it — the per-server broadcast fan-out, retransmissions,
/// server `last_val`/helping copies, duplicate deliveries — now shares
/// that one allocation. Comparison, ordering, and hashing go through the
/// pointee, so quorum predicates count identical *values* exactly as
/// before; Byzantine/transient mutation paths copy-on-write via
/// [`Arc::make_mut`], so garbling one in-flight copy can never reach the
/// writer's (or another message's) snapshot.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StoreVal<V> {
    /// The shard map, replicated in full through the metadata quorum —
    /// one shared allocation per published snapshot.
    Inline(Arc<ShardMap<V>>),
    /// A content-addressed reference; the bytes live on the data
    /// replicas. The digest is the Merkle **commitment root** of the
    /// fragment set (whole copies included, as the `k = 1` dispersal) —
    /// a fixed-size stand-in the fetch path re-verifies end to end.
    Ref(BulkRef),
    /// A committed routing epoch. Only the dedicated routing register
    /// (`RegId(shards)`) ever holds this variant: a reshard coordinator
    /// writes it to flip the shard→writer assignment through the same
    /// metadata quorum that stores every shard's value, so the epoch flip
    /// inherits the register's atomicity and stabilization guarantees
    /// with no new trust assumptions. Shared like `Inline`, so every copy
    /// of a value — a decoded back-reference included — is one pointer.
    Routing(Arc<RoutingEpoch>),
}

impl<V: Payload> StoreVal<V> {
    /// The empty inline map — every shard's initial register value in
    /// *both* modes, so reading a never-written shard needs no bulk
    /// fetch.
    pub fn empty() -> Self {
        StoreVal::Inline(Arc::new(ShardMap::new()))
    }
}

impl<V: fmt::Debug> fmt::Debug for StoreVal<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreVal::Inline(m) => write!(f, "Inline({m:?})"),
            StoreVal::Ref(r) => write!(f, "Ref({r:?})"),
            StoreVal::Routing(e) => write!(f, "Routing(e{} {:?})", e.epoch, e.owners),
        }
    }
}

impl<V: Payload> Payload for StoreVal<V> {
    /// Transient fault: contents scramble, and occasionally the *variant*
    /// flips — a corrupted or fabricated register cell may claim to be a
    /// reference to bytes that exist nowhere (the fetch path must survive
    /// that), or collapse to an inline map. Scrambling an inline map is
    /// copy-on-write: the corrupted copy detaches from the shared
    /// snapshot instead of mutating it under every other holder.
    fn scramble(&mut self, rng: &mut DetRng) {
        if rng.chance(0.25) {
            *self = match self {
                StoreVal::Inline(_) => {
                    let mut r = BulkRef::to_bytes(&[]);
                    r.scramble(rng);
                    StoreVal::Ref(r)
                }
                StoreVal::Ref(_) | StoreVal::Routing(_) => {
                    StoreVal::Inline(Arc::new(ShardMap::new()))
                }
            };
            return;
        }
        match self {
            StoreVal::Inline(m) => Arc::make_mut(m).scramble(rng),
            StoreVal::Ref(r) => r.scramble(rng),
            StoreVal::Routing(e) => {
                // A garbled routing cell: the epoch counter and ownership
                // vector lose all meaning, but stay structurally valid.
                let e = Arc::make_mut(e);
                e.epoch = rng.next_u64();
                for w in &mut e.owners {
                    *w = (rng.next_u64() & 0xFFFF_FFFF) as u32;
                }
            }
        }
    }

    fn wire_size(&self) -> u64 {
        1 + match self {
            StoreVal::Inline(m) => m.wire_size(),
            StoreVal::Ref(r) => Payload::wire_size(r),
            StoreVal::Routing(e) => e.encoded_len() as u64,
        }
    }
}

/// A value of tunable serialized size: a unique id plus `len` bytes of
/// deterministic filler, **materialized only when encoded**. Workload
/// sweeps use it to measure byte traffic as a function of payload size
/// without cloning kilobytes through every map snapshot; the checkers
/// only need the id for uniqueness.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SizedVal {
    /// Globally unique id (the checkers' unique-write-value requirement).
    pub id: u64,
    /// Filler bytes appended by the codec.
    pub len: u32,
}

impl SizedVal {
    /// A value of `len` filler bytes identified by `id`.
    pub fn new(id: u64, len: u32) -> Self {
        SizedVal { id, len }
    }

    fn filler_byte(&self, i: u32) -> u8 {
        (self
            .id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64)) as u8
    }
}

impl fmt::Debug for SizedVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}+{}B", self.id, self.len)
    }
}

impl Payload for SizedVal {
    /// Corruption scrambles the identity; the size class is structural.
    fn scramble(&mut self, rng: &mut DetRng) {
        self.id = rng.next_u64();
    }

    fn wire_size(&self) -> u64 {
        12 + self.len as u64
    }
}

impl BulkCodec for SizedVal {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        put_u32(out, self.len);
        out.extend((0..self.len).map(|i| self.filler_byte(i)));
    }

    fn decode_from(buf: &mut &[u8]) -> Option<Self> {
        let id = get_u64(buf)?;
        let len = get_u32(buf)?;
        if buf.len() < len as usize {
            return None;
        }
        let v = SizedVal { id, len };
        let (filler, rest) = buf.split_at(len as usize);
        // The filler is derived from the id; mismatches mean garbling.
        if filler
            .iter()
            .enumerate()
            .any(|(i, &b)| b != v.filler_byte(i as u32))
        {
            return None;
        }
        *buf = rest;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_val_wire_sizes() {
        let mut m: ShardMap<u64> = ShardMap::new();
        m.insert("k", 5);
        let inline: StoreVal<u64> = StoreVal::Inline(Arc::new(m));
        let r: StoreVal<u64> = StoreVal::Ref(BulkRef::to_bytes(b"bytes"));
        assert!(inline.wire_size() > 1);
        assert_eq!(r.wire_size(), 41);
        assert_eq!(StoreVal::<u64>::empty().wire_size(), 5);
        let routing: StoreVal<u64> = StoreVal::Routing(Arc::new(RoutingEpoch {
            epoch: 3,
            owners: vec![0, 1, 2, 3, 0, 1, 2, 3],
        }));
        // tag(1) + epoch(8) + count(4) + 4 bytes per owner.
        assert_eq!(routing.wire_size(), 1 + 8 + 4 + 32);
    }

    #[test]
    fn scramble_is_copy_on_write_for_shared_snapshots() {
        let mut m: ShardMap<u64> = ShardMap::new();
        m.insert("k", 1);
        let shared = Arc::new(m);
        let mut rng = DetRng::from_seed(5);
        // Garble many in-flight copies of the same snapshot; the shared
        // allocation (the writer's published value, every other message)
        // must never observe the mutation.
        for _ in 0..32 {
            let mut v: StoreVal<u64> = StoreVal::Inline(shared.clone());
            v.scramble(&mut rng);
        }
        assert_eq!(shared.get("k"), Some(&1), "shared snapshot mutated");
    }

    #[test]
    fn store_val_scramble_flips_variants_eventually() {
        let mut rng = DetRng::from_seed(11);
        let mut v: StoreVal<u64> = StoreVal::empty();
        let mut saw_ref = false;
        for _ in 0..64 {
            v.scramble(&mut rng);
            saw_ref |= matches!(v, StoreVal::Ref(_));
        }
        assert!(saw_ref, "scramble must eventually fabricate a Ref");
    }

    #[test]
    fn sized_val_round_trips_and_detects_garbling() {
        let v = SizedVal::new(7, 100);
        let bytes = v.encode_to_vec();
        assert_eq!(bytes.len() as u64, Payload::wire_size(&v));
        assert_eq!(SizedVal::decode_all(&bytes), Some(v));
        let mut garbled = bytes.clone();
        garbled[20] ^= 0x40;
        assert_eq!(SizedVal::decode_all(&garbled), None);
        assert_eq!(SizedVal::decode_all(&bytes[..50]), None);
        assert_eq!(format!("{v:?}"), "v7+100B");
    }

    #[test]
    fn sized_vals_are_unique_by_id() {
        let a = SizedVal::new(1, 64);
        let b = SizedVal::new(2, 64);
        assert_ne!(a, b);
        assert_ne!(a.encode_to_vec(), b.encode_to_vec());
    }
}
