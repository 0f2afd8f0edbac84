//! The content address: a 256-bit word-at-a-time digest and the
//! fixed-size reference the metadata plane carries in place of the
//! payload.
//!
//! # Construction
//!
//! Four 64-bit lanes absorb the input in 32-byte **stripes**: each lane
//! takes one little-endian 8-byte word per stripe through an xxh64-style
//! round, `acc = rotl(acc + w·P2, 31)·P1`. The four lanes are independent
//! dependency chains, so a stripe costs about one round's latency, not
//! four. A short tail is zero-padded to a full stripe; the input length is
//! folded into finalization, so the padding cannot make a string collide
//! with its zero-extended self. Finalization first merges all four lanes
//! (and the length) into one word, then feeds that word into every output
//! lane before a per-lane avalanche, so every output lane depends on
//! every input byte. The lane index enters there too, so the four output
//! lanes are unrelated even for inputs that leave the lanes symmetric.
//!
//! Domains are separated by *initial lane state*: each lane starts from a
//! fixed basis tweaked per lane ([`LANE_TWEAK`]) and, for interior Merkle
//! nodes, by [`NODE_DOMAIN`].
//!
//! # Adversary model
//!
//! The digest is **not** a cryptographic hash: an
//! adversary who can *search* for collisions offline could defeat it. The
//! adversaries in this workspace cannot — they are state machines that
//! garble, replay, or fabricate bytes (`ByzStrategy`, link garbage,
//! transient scrambling), never collision miners — and the workspace is
//! offline-only by policy, so an in-repo dependency-free hash is the
//! deliberate trade. Swapping in a real 256-bit cryptographic hash is a
//! one-function change ([`digest_of`]).

use sbs_core::Payload;
use sbs_sim::DetRng;
use std::fmt;

/// The lane basis every domain starts from, before the per-lane and
/// per-domain tweaks.
const BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Per-lane tweaks of the basis, so the four lanes start from unrelated
/// states (odd constants from the golden-ratio / xorshift literature).
const LANE_TWEAK: [u64; 4] = [
    0,
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
];

/// Initial-state tweak separating interior Merkle-node hashing from
/// content addressing. Domain separation by *initial lane state* (not by
/// an input prefix or tag byte, which an adversary could simply include
/// in a payload): a node digest is computed from lane states no byte
/// string fed to [`digest_of`] starts from, so within the no-offline-
/// search adversary model above, a known node preimage cannot be
/// replayed as a leaf that collides with the node's digest.
const NODE_DOMAIN: u64 = 0x4E4F_4445_5F68_6173; // "NODE_has"

/// The xxh64 primes: odd, so multiplying by one is a bijection on `u64`.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes absorbed per step: one 8-byte word per lane.
const STRIPE: usize = 32;

/// A 256-bit content address over a byte string.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BulkDigest(pub [u64; 4]);

impl BulkDigest {
    /// Serialized size of a digest on the wire, in bytes.
    pub const WIRE_SIZE: u64 = 32;
}

impl fmt::Debug for BulkDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Eight leading hex digits identify a digest in test output without
        // drowning it.
        write!(f, "#{:08x}…", (self.0[0] >> 32) as u32)
    }
}

/// Computes the content address of `bytes`: one pass of four
/// word-at-a-time lanes over 32-byte stripes, finalized with the input
/// length and the lane index (see the module docs for the construction).
pub fn digest_of(bytes: &[u8]) -> BulkDigest {
    digest_in_domain(0, bytes)
}

/// The digest of an interior Merkle-node preimage — same construction as
/// [`digest_of`] but started from [`NODE_DOMAIN`]-tweaked lane states, so
/// node digests and leaf digests live in disjoint domains: no fragment a
/// writer can store hashes to an interior node or a multi-leaf root.
pub(crate) fn digest_of_node_preimage(bytes: &[u8]) -> BulkDigest {
    digest_in_domain(NODE_DOMAIN, bytes)
}

/// One lane step: absorb the word `w` into `acc`.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Absorbs one stripe: word `i` (little-endian) goes to lane `i`.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], stripe: &[u8; STRIPE]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        let word: [u8; 8] = stripe[8 * i..8 * i + 8].try_into().expect("8-byte word");
        *lane = round(*lane, u64::from_le_bytes(word));
    }
}

/// The xxh64 final mix: every input bit reaches every output bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

fn digest_in_domain(domain: u64, bytes: &[u8]) -> BulkDigest {
    let mut lanes: [u64; 4] =
        std::array::from_fn(|i| BASIS ^ LANE_TWEAK[i] ^ domain.rotate_left(16 * i as u32));
    let mut stripes = bytes.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        absorb(&mut lanes, stripe.try_into().expect("exact stripe"));
    }
    let tail = stripes.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; STRIPE];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &padded);
    }
    // Merge every lane and the length into one word, then spread it into
    // each output lane with that lane's own state and index.
    let len = bytes.len() as u64;
    let merged = lanes.iter().fold(len.wrapping_mul(P5), |acc, &lane| {
        (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
    });
    BulkDigest(std::array::from_fn(|i| {
        avalanche(round(merged, lanes[i]) ^ (i as u64 + 1).wrapping_mul(P3))
    }))
}

/// The fixed-size stand-in for a bulk payload: its content address and
/// byte length. This is what travels through the metadata quorum instead
/// of the value, so metadata messages stay O(1) regardless of payload
/// size.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BulkRef {
    /// Content address of the serialized payload.
    pub digest: BulkDigest,
    /// Length of the serialized payload in bytes (checked on fetch before
    /// the digest, so oversized garbage is rejected without hashing it).
    pub len: u64,
}

impl BulkRef {
    /// Serialized size of a reference on the wire, in bytes.
    pub const WIRE_SIZE: u64 = BulkDigest::WIRE_SIZE + 8;

    /// The reference pinning `bytes`.
    pub fn to_bytes(bytes: &[u8]) -> Self {
        BulkRef {
            digest: digest_of(bytes),
            len: bytes.len() as u64,
        }
    }
}

impl fmt::Debug for BulkRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}[{}B]", self.digest, self.len)
    }
}

impl Payload for BulkRef {
    /// Transient fault: the reference becomes an arbitrary (digest, len)
    /// pair — almost surely pinning nothing, which the fetch path must
    /// survive by re-reading the metadata register.
    fn scramble(&mut self, rng: &mut DetRng) {
        for lane in &mut self.digest.0 {
            *lane = rng.next_u64();
        }
        self.len = rng.next_u64() % (1 << 20);
    }

    fn wire_size(&self) -> u64 {
        BulkRef::WIRE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_frozen() {
        assert_eq!(digest_of(b"abc"), digest_of(b"abc"));
        // Frozen snapshot: changing the hash silently re-addresses every
        // stored fragment — make that a loud, reviewed change.
        let d = digest_of(b"stabilizing-storage");
        assert_eq!(
            d.0,
            [
                0x980cf58727a4eb28,
                0xbeb0d9c26202d821,
                0xc867d49e96555b97,
                0xe8b4056e0fbcd256,
            ],
            "digest_of changed: got {:#018x?}",
            d.0
        );
    }

    #[test]
    fn node_domain_is_disjoint_from_content_addressing() {
        // The same bytes hash differently as a node preimage and as
        // payload — in every lane, so truncated comparisons separate too.
        for bytes in [&b""[..], b"x", b"sixty-five bytes of whatever"] {
            let content = digest_of(bytes);
            let node = digest_of_node_preimage(bytes);
            for lane in 0..4 {
                assert_ne!(content.0[lane], node.0[lane], "lane {lane}");
            }
        }
    }

    #[test]
    fn lanes_are_unrelated() {
        let d = digest_of(b"hello");
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(d.0[i], d.0[j]);
            }
        }
    }

    #[test]
    fn length_extension_and_prefixes_differ() {
        assert_ne!(digest_of(b""), digest_of(b"\0"));
        assert_ne!(digest_of(b"ab"), digest_of(b"abc"));
        assert_ne!(digest_of(b"a\0"), digest_of(b"a"));
    }

    #[test]
    fn seeded_mutations_never_collide() {
        // Property-style seeded loop: for random payloads, any byte
        // mutation, truncation, or extension changes the digest — the
        // check a Byzantine data replica's garbage must fail.
        let mut rng = DetRng::from_seed(0xB0_1D);
        for _ in 0..300 {
            let len = 1 + (rng.next_u64() % 512) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let d = digest_of(&bytes);
            assert_eq!(digest_of(&bytes), d, "the digest is a pure function");

            // Flip one byte (guaranteed-nonzero mask).
            let mut flipped = bytes.clone();
            let i = (rng.next_u64() as usize) % len;
            flipped[i] ^= 1 + (rng.next_u64() % 255) as u8;
            assert_ne!(digest_of(&flipped), d, "byte flip at {i} digest-passed");

            // Truncate and extend.
            assert_ne!(digest_of(&bytes[..len - 1]), d);
            let mut extended = bytes.clone();
            extended.push(rng.next_u64() as u8);
            assert_ne!(digest_of(&extended), d);
        }
    }

    /// Every tail length across two stripe boundaries — including the
    /// zero-padded ones, whose padded stripes are identical to those of
    /// their zero-extensions — gives a distinct digest: the length folded
    /// into finalization separates them.
    #[test]
    fn every_tail_length_digests_distinctly() {
        let mut rng = DetRng::from_seed(0x7A11);
        let random: Vec<u8> = (0..96).map(|_| rng.next_u64() as u8).collect();
        for bytes in [vec![0u8; 96], random] {
            let mut seen = std::collections::BTreeSet::new();
            for len in 0..=96 {
                assert!(seen.insert(digest_of(&bytes[..len])), "len {len} collided");
            }
        }
    }

    /// Every output lane depends on every input byte: flipping any single
    /// bit of a 1 KiB buffer changes all four lanes, not just the lane
    /// that absorbed the flipped word.
    #[test]
    fn every_bit_flip_changes_every_lane() {
        let mut rng = DetRng::from_seed(0xF11F);
        let mut bytes: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
        let d = digest_of(&bytes);
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            let flipped = digest_of(&bytes);
            bytes[bit / 8] ^= 1 << (bit % 8);
            for lane in 0..4 {
                assert_ne!(flipped.0[lane], d.0[lane], "bit {bit}, lane {lane}");
            }
        }
    }

    /// Domain disjointness at the size that matters: `node_hash`
    /// preimages are 65 bytes (a tag and two digests), i.e. two full
    /// stripes and a one-byte tail.
    #[test]
    fn node_domain_is_disjoint_at_node_preimage_size() {
        let mut rng = DetRng::from_seed(0x65);
        for _ in 0..200 {
            let bytes: Vec<u8> = (0..65).map(|_| rng.next_u64() as u8).collect();
            let content = digest_of(&bytes);
            let node = digest_of_node_preimage(&bytes);
            for lane in 0..4 {
                assert_ne!(content.0[lane], node.0[lane], "lane {lane}");
            }
        }
    }

    #[test]
    fn scrambled_ref_pins_nothing_it_pinned_before() {
        let mut rng = DetRng::from_seed(7);
        let bytes = b"payload".to_vec();
        let mut r = BulkRef::to_bytes(&bytes);
        r.scramble(&mut rng);
        assert_ne!(r, BulkRef::to_bytes(&bytes));
        assert_eq!(Payload::wire_size(&r), 40);
    }
}
