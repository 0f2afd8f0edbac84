//! The content address: a 256-bit wide FNV-1a digest and the fixed-size
//! reference the metadata plane carries in place of the payload.
//!
//! # Adversary model
//!
//! The digest is four 64-bit FNV-1a lanes run in one pass, each lane
//! absorbing the input bytes at a different shift and finalized with the
//! length and the lane index. It is **not** a cryptographic hash: an
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

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Per-lane tweaks of the FNV offset basis, so the four lanes start from
/// unrelated states (odd constants from the golden-ratio / xorshift
/// literature).
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

/// Computes the content address of `bytes`: one pass, four FNV-1a lanes,
/// lane `i` absorbing each byte shifted left by `8·i` bits, finalized with
/// the input length and the lane index (so prefixes of each other and
/// lane-swapped inputs hash differently).
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

fn digest_in_domain(domain: u64, bytes: &[u8]) -> BulkDigest {
    let mut lanes = [
        FNV_OFFSET ^ LANE_TWEAK[0] ^ domain,
        FNV_OFFSET ^ LANE_TWEAK[1] ^ domain.rotate_left(16),
        FNV_OFFSET ^ LANE_TWEAK[2] ^ domain.rotate_left(32),
        FNV_OFFSET ^ LANE_TWEAK[3] ^ domain.rotate_left(48),
    ];
    for &b in bytes {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ ((b as u64) << (8 * i))).wrapping_mul(FNV_PRIME);
        }
    }
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = (*lane ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
        *lane = (*lane ^ (i as u64 + 1)).wrapping_mul(FNV_PRIME);
    }
    BulkDigest(lanes)
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
                0x87b4251059c16f59,
                0xa042e3a4bf1a3fe1,
                0x9e4d82a67e63becc,
                0x4f936e79011c5033,
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
