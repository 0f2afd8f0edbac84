//! Systematic `k`-of-`m` erasure coding and the Merkle-style fragment
//! commitment — the AVID / PoWerStore dispersal primitives.
//!
//! Dispersal splits a payload into `m` **fragments** of `⌈len/k⌉` bytes
//! each such that *any* `k` of them reconstruct the payload — cutting
//! per-replica bytes by ~`k`× against whole copies while keeping the same
//! `m = 2t + 1` replica window. The code is **systematic**: fragments
//! `0..k` are the payload's `k` stripes verbatim, fragments `k..m` are
//! parity. Whole-copy replication is the `k = 1` case: the polynomial is
//! a constant, so every fragment is the payload itself.
//!
//! # The code
//!
//! Byte-wise Reed–Solomon over GF(2⁸) in Lagrange form: for every byte
//! position `p` there is a (conceptual) polynomial `f_p` of degree `< k`
//! with `f_p(i) = stripe_i[p]` for `i < k`; parity fragment `r ∈ k..m` is
//! the evaluation `f_p(r)`. Any `k` fragments are `k` evaluations at
//! distinct field points and determine `f_p` uniquely, so reconstruction
//! is Lagrange interpolation back to the stripe points. Everything is
//! deterministic, offline, and dependency-free (log/exp tables over the
//! standard `0x11d` polynomial); `m ≤ 256` because fragment indices are
//! field points.
//!
//! The bulk loops multiply a whole stripe by one Lagrange coefficient at
//! a time, so they read that coefficient's row of a 64 KiB
//! multiplication table ([`gf_row`]): one lookup per byte, instead of two
//! log lookups, a zero test and an exp lookup.
//!
//! # The commitment
//!
//! Content addressing a dispersal cannot hash the payload each replica
//! stores — no replica holds it. Instead the writer commits to the
//! *fragment set*: a Merkle tree over the `m` fragment digests whose root
//! becomes the [`BulkRef`](crate::BulkRef) digest carried through the
//! metadata quorum. Each `FRAG_PUT` carries the fragment plus its Merkle
//! path ([`merkle_proof`]), so a replica verifies **its own fragment**
//! against the root before storing ([`verify_fragment`]) — fabricated
//! fragments are unstorable — and a reader
//! verifies every served fragment the same way before feeding it to
//! [`reconstruct`]. A Byzantine replica garbling the fragment it serves
//! is therefore detected fragment-by-fragment; the reader just keeps
//! collecting until `k` *verified* fragments arrive. Interior nodes are
//! hashed in a digest domain of their own (see [`node_hash`]), so a
//! node preimage — which proofs make public — can never be replayed as
//! a leaf under the root.
//!
//! Note the writer-consistency caveat inherited from the adversary model:
//! the commitment proves each fragment belongs to the committed set, not
//! that the set encodes any particular payload. A corrupted writer could
//! commit to an inconsistent fragment set; readers survive because the
//! reconstruction must still decode into a well-formed value (the store
//! layer re-decodes and falls back to a metadata re-read otherwise) —
//! the same defense it uses against fabricated references.

use crate::digest::{digest_of, digest_of_node_preimage, BulkDigest};
use crate::store::SharedBytes;
use std::sync::OnceLock;

/// GF(2⁸) modulus: the standard Reed–Solomon polynomial `x⁸+x⁴+x³+x²+1`.
const GF_POLY: u16 = 0x11d;

/// `(exp, log)` tables for GF(2⁸) under generator 2. `exp` is doubled so
/// products of logs index without a modular reduction.
fn gf_tables() -> &'static ([u8; 512], [u8; 256]) {
    static TABLES: OnceLock<([u8; 512], [u8; 256])> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= GF_POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        (exp, log)
    })
}

/// GF(2⁸) product.
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (exp, log) = gf_tables();
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

/// Row `c` of the GF(2⁸) multiplication table: `gf_row(c)[b] == gf_mul(c, b)`.
/// The whole table is 64 KiB, built once; a coding loop touches only the
/// 256-byte rows of its `k` coefficients.
fn gf_row(c: u8) -> &'static [u8; 256] {
    static TABLE: OnceLock<Box<[[u8; 256]; 256]>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = Box::new([[0u8; 256]; 256]);
        for (a, row) in t.iter_mut().enumerate() {
            for (b, cell) in row.iter_mut().enumerate() {
                *cell = gf_mul(a as u8, b as u8);
            }
        }
        t
    });
    &table[c as usize]
}

/// `out[p] = Σ_j coeffs[j] · srcs[j][p]` over GF(2⁸) — the one kernel
/// behind parity encoding and stripe reconstruction. Each product is one
/// lookup in its coefficient's [`gf_row`]. Sources are taken two at a
/// time, so each output byte is loaded and stored once per pair of
/// products rather than once per product, and the first pass writes
/// `out` instead of accumulating into it.
fn combine(out: &mut [u8], coeffs: &[u8], srcs: &[&[u8]]) {
    debug_assert!(srcs.iter().all(|s| s.len() == out.len()));
    let terms: Vec<(&[u8; 256], &[u8])> = coeffs
        .iter()
        .map(|&c| gf_row(c))
        .zip(srcs.iter().copied())
        .collect();
    for (pass, pair) in terms.chunks(2).enumerate() {
        let first = pass == 0;
        match *pair {
            [(r0, s0), (r1, s1)] => emit(
                out,
                first,
                s0.iter()
                    .zip(s1)
                    .map(|(&a, &b)| r0[usize::from(a)] ^ r1[usize::from(b)]),
            ),
            [(r0, s0)] => emit(out, first, s0.iter().map(|&a| r0[usize::from(a)])),
            _ => unreachable!("chunks(2)"),
        }
    }
}

/// Writes (`first`) or accumulates `products` into `out`.
#[inline(always)]
fn emit(out: &mut [u8], first: bool, products: impl Iterator<Item = u8>) {
    if first {
        for (o, p) in out.iter_mut().zip(products) {
            *o = p;
        }
    } else {
        for (o, p) in out.iter_mut().zip(products) {
            *o ^= p;
        }
    }
}

/// GF(2⁸) multiplicative inverse. `a` must be non-zero (the coding paths
/// only ever invert differences of distinct field points).
fn gf_inv(a: u8) -> u8 {
    debug_assert!(a != 0, "zero has no inverse");
    let (exp, log) = gf_tables();
    exp[255 - log[a as usize] as usize]
}

/// The Lagrange basis coefficient `L_j(y)` for interpolation point `y`
/// over the support points `xs`, with `j` indexing into `xs`. Addition
/// and subtraction in GF(2⁸) are both XOR.
fn lagrange_coeff(xs: &[u8], j: usize, y: u8) -> u8 {
    let mut c = 1u8;
    for (l, &xl) in xs.iter().enumerate() {
        if l == j {
            continue;
        }
        c = gf_mul(c, gf_mul(y ^ xl, gf_inv(xs[j] ^ xl)));
    }
    c
}

/// The fragment length of a `k`-stripe dispersal of a `len`-byte
/// payload: `⌈len/k⌉` (the last stripe is zero-padded). Readers use it
/// to reject wrong-sized served fragments before hashing them.
pub fn fragment_len(len: u64, k: usize) -> u64 {
    assert!(k >= 1, "need at least one stripe");
    len.div_ceil(k as u64)
}

/// Encodes `bytes` into `m` fragments of which any `k` reconstruct it:
/// fragments `0..k` are the zero-padded stripes of `bytes` (systematic),
/// fragments `k..m` are Reed–Solomon parity.
///
/// # Panics
///
/// Panics unless `1 ≤ k ≤ m ≤ 256` (fragment indices are GF(2⁸)
/// points).
pub fn encode_fragments(bytes: &[u8], k: usize, m: usize) -> Vec<SharedBytes> {
    assert!(
        1 <= k && k <= m && m <= 256,
        "coding shape k={k} of m={m} out of range"
    );
    if k == 1 {
        // Replication: the degree-0 polynomial is the payload itself, so
        // every fragment is the same bytes — share one allocation.
        return vec![SharedBytes::from(bytes); m];
    }
    let flen = fragment_len(bytes.len() as u64, k) as usize;
    // Stripes wholly inside the payload share its bytes; only the ones
    // running past its end are zero-padded copies.
    let full = bytes.len().checked_div(flen).unwrap_or(k);
    let mut padded = bytes[full * flen..].to_vec();
    padded.resize((k - full) * flen, 0);
    let stripes: Vec<&[u8]> = (0..k)
        .map(|i| match i.checked_sub(full) {
            None => &bytes[i * flen..(i + 1) * flen],
            Some(p) => &padded[p * flen..(p + 1) * flen],
        })
        .collect();
    let mut frags: Vec<SharedBytes> = Vec::with_capacity(m);
    frags.extend(stripes.iter().map(|&s| SharedBytes::from(s)));
    let xs: Vec<u8> = (0..k as u16).map(|i| i as u8).collect();
    for r in k..m {
        let coeffs: Vec<u8> = (0..k).map(|j| lagrange_coeff(&xs, j, r as u8)).collect();
        let mut parity = vec![0u8; flen];
        combine(&mut parity, &coeffs, &stripes);
        frags.push(parity.into());
    }
    frags
}

/// Reconstructs the original `len`-byte payload from at least `k`
/// distinct fragments of a `k`-of-`m` dispersal, given as
/// `(index, bytes)` pairs. Returns `None` when fewer than `k` distinct
/// indices are present, an index is out of field range, or fragment
/// lengths are inconsistent with `⌈len/k⌉` — the caller's cue that this
/// reply set cannot resolve the reference.
pub fn reconstruct(k: usize, len: u64, frags: &[(u32, SharedBytes)]) -> Option<Vec<u8>> {
    assert!(k >= 1, "need at least one stripe");
    let flen = fragment_len(len, k) as usize;
    // First k distinct, well-formed fragments win.
    let mut have: Vec<(u8, &SharedBytes)> = Vec::with_capacity(k);
    for (idx, bytes) in frags {
        if *idx > 255 || bytes.len() != flen || have.iter().any(|(x, _)| *x == *idx as u8) {
            continue;
        }
        have.push((*idx as u8, bytes));
        if have.len() == k {
            break;
        }
    }
    if have.len() < k {
        return None;
    }
    let xs: Vec<u8> = have.iter().map(|(x, _)| *x).collect();
    let srcs: Vec<&[u8]> = have.iter().map(|(_, f)| &f[..]).collect();
    let mut out = Vec::with_capacity(flen * k);
    for target in 0..k as u16 {
        let y = target as u8;
        if let Some(j) = xs.iter().position(|&x| x == y) {
            out.extend_from_slice(srcs[j]); // systematic stripe present
            continue;
        }
        let coeffs: Vec<u8> = (0..k).map(|j| lagrange_coeff(&xs, j, y)).collect();
        let at = out.len();
        out.resize(at + flen, 0);
        combine(&mut out[at..], &coeffs, &srcs);
    }
    out.truncate(len as usize);
    Some(out)
}

/// Preimage tag for internal Merkle nodes, so a 64-byte fragment can
/// never double as a node preimage.
const NODE_TAG: u8 = 0x4D;

/// Hashes two child digests into their parent node. Node hashing lives
/// in its own digest domain (`digest_of_node_preimage`), disjoint from
/// leaf hashing: the 65-byte preimage of a node is *public* (any
/// fragment proof exposes the top node's children), so if nodes were
/// hashed with plain [`digest_of`], that preimage would verify as a
/// one-fragment dispersal under the root and could shadow the real
/// dispersal with undecodable bytes. The input-side `NODE_TAG`
/// additionally separates nodes from *leaves within the node domain*.
fn node_hash(l: &BulkDigest, r: &BulkDigest) -> BulkDigest {
    let mut buf = [0u8; 65];
    buf[0] = NODE_TAG;
    for (i, lane) in l.0.iter().enumerate() {
        buf[1 + 8 * i..9 + 8 * i].copy_from_slice(&lane.to_le_bytes());
    }
    for (i, lane) in r.0.iter().enumerate() {
        buf[33 + 8 * i..41 + 8 * i].copy_from_slice(&lane.to_le_bytes());
    }
    digest_of_node_preimage(&buf)
}

/// The leaf digests of a fragment set: one content address per fragment,
/// in index order.
pub fn fragment_leaves(frags: &[SharedBytes]) -> Vec<BulkDigest> {
    frags.iter().map(|f| digest_of(f)).collect()
}

/// Folds one tree level: pairs hash together, an odd trailing node is
/// promoted unchanged.
fn fold_level(level: &[BulkDigest]) -> Vec<BulkDigest> {
    let mut next = Vec::with_capacity(level.len().div_ceil(2));
    for pair in level.chunks(2) {
        next.push(match pair {
            [l, r] => node_hash(l, r),
            [promoted] => *promoted,
            _ => unreachable!("chunks(2)"),
        });
    }
    next
}

/// The Merkle root committing to `leaves` (pairwise hashing, odd nodes
/// promoted). This root is what the metadata plane carries as the
/// dispersal's [`BulkRef`](crate::BulkRef) digest.
///
/// # Panics
///
/// Panics on an empty leaf set.
pub fn merkle_root(leaves: &[BulkDigest]) -> BulkDigest {
    assert!(!leaves.is_empty(), "commitment over zero fragments");
    let mut level = leaves.to_vec();
    while level.len() > 1 {
        level = fold_level(&level);
    }
    level[0]
}

/// The Merkle path authenticating leaf `index` against
/// [`merkle_root`]`(leaves)`: the sibling digest at each level, bottom
/// up (levels where the node is promoted contribute nothing).
///
/// # Panics
///
/// Panics when `index` is out of range.
pub fn merkle_proof(leaves: &[BulkDigest], index: usize) -> Vec<BulkDigest> {
    assert!(index < leaves.len(), "proof index out of range");
    let mut path = Vec::new();
    let mut level = leaves.to_vec();
    let mut i = index;
    while level.len() > 1 {
        let sib = i ^ 1;
        if sib < level.len() {
            path.push(level[sib]);
        }
        level = fold_level(&level);
        i /= 2;
    }
    path
}

/// The full Merkle tree over a fragment set, built **once** per
/// dispersal. [`merkle_proof`] rebuilds every level for every index —
/// O(m²) node hashes across an `m`-fragment publish — whereas building
/// the tree once costs O(m) hashes and each [`MerkleTree::proof`] is
/// then a pure slice walk. The root and per-index paths are identical
/// to [`merkle_root`] / [`merkle_proof`] (equality-tested below).
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf level; the last level is `[root]`.
    levels: Vec<Vec<BulkDigest>>,
}

impl MerkleTree {
    /// Builds the tree bottom-up (pairwise hashing, odd nodes promoted).
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf set.
    pub fn build(leaves: &[BulkDigest]) -> Self {
        assert!(!leaves.is_empty(), "commitment over zero fragments");
        let mut levels = vec![leaves.to_vec()];
        while levels.last().expect("non-empty").len() > 1 {
            levels.push(fold_level(levels.last().expect("non-empty")));
        }
        MerkleTree { levels }
    }

    /// Number of committed leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The committed root — equal to [`merkle_root`] over the same
    /// leaves.
    pub fn root(&self) -> BulkDigest {
        self.levels.last().expect("non-empty")[0]
    }

    /// The Merkle path authenticating leaf `index` — equal to
    /// [`merkle_proof`] over the same leaves, without re-folding the
    /// tree.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn proof(&self, index: usize) -> Vec<BulkDigest> {
        assert!(index < self.leaf_count(), "proof index out of range");
        let mut path = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sib = i ^ 1;
            if sib < level.len() {
                path.push(level[sib]);
            }
            i /= 2;
        }
        path
    }
}

/// Verifies that `bytes` is fragment `index` of the `leaf_count`-fragment
/// set committed to by `root`, by replaying the Merkle path. The tree
/// shape is derived from `(leaf_count, index)`, so the path length is
/// forced — a proof for a different index (or a padded/truncated one)
/// cannot verify.
pub fn verify_fragment(
    root: BulkDigest,
    leaf_count: usize,
    index: usize,
    bytes: &[u8],
    proof: &[BulkDigest],
) -> bool {
    if index >= leaf_count || leaf_count == 0 {
        return false;
    }
    let mut cur = digest_of(bytes);
    let mut i = index;
    let mut size = leaf_count;
    let mut path = proof.iter();
    while size > 1 {
        if i == size - 1 && size % 2 == 1 {
            // Promoted odd node: nothing to combine at this level.
        } else {
            let Some(sib) = path.next() else {
                return false;
            };
            cur = if i.is_multiple_of(2) {
                node_hash(&cur, sib)
            } else {
                node_hash(sib, &cur)
            };
        }
        i /= 2;
        size = size.div_ceil(2);
    }
    path.next().is_none() && cur == root
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_sim::DetRng;

    fn payload(rng: &mut DetRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn gf_field_laws_hold() {
        let mut rng = DetRng::from_seed(0x6F);
        for _ in 0..500 {
            let a = rng.next_u64() as u8;
            let b = rng.next_u64() as u8;
            let c = rng.next_u64() as u8;
            assert_eq!(gf_mul(a, b), gf_mul(b, a));
            assert_eq!(gf_mul(a, gf_mul(b, c)), gf_mul(gf_mul(a, b), c));
            assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
            if a != 0 {
                assert_eq!(gf_mul(a, gf_inv(a)), 1);
            }
        }
    }

    #[test]
    fn gf_rows_are_the_multiplication_table() {
        for c in 0..=255u8 {
            let row = gf_row(c);
            for b in 0..=255u8 {
                assert_eq!(row[usize::from(b)], gf_mul(c, b), "{c} · {b}");
            }
        }
    }

    /// The per-byte scalar code the table-driven kernel replaced: the
    /// reference the fast paths must match byte for byte.
    fn scalar_encode(bytes: &[u8], k: usize, m: usize) -> Vec<Vec<u8>> {
        let flen = fragment_len(bytes.len() as u64, k) as usize;
        let stripes: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                let at = (i * flen).min(bytes.len());
                let mut s = bytes[at..((i + 1) * flen).min(bytes.len())].to_vec();
                s.resize(flen, 0);
                s
            })
            .collect();
        let xs: Vec<u8> = (0..k as u8).collect();
        let mut frags = stripes.clone();
        for r in k..m {
            let mut parity = vec![0u8; flen];
            for (j, s) in stripes.iter().enumerate() {
                let c = lagrange_coeff(&xs, j, r as u8);
                for (p, &b) in s.iter().enumerate() {
                    parity[p] ^= gf_mul(c, b);
                }
            }
            frags.push(parity);
        }
        frags
    }

    fn scalar_reconstruct(k: usize, len: usize, have: &[(u8, &[u8])]) -> Vec<u8> {
        let flen = fragment_len(len as u64, k) as usize;
        let xs: Vec<u8> = have.iter().map(|(x, _)| *x).collect();
        let mut out = Vec::new();
        for y in 0..k as u8 {
            let mut stripe = vec![0u8; flen];
            for (j, (_, frag)) in have.iter().enumerate() {
                let c = lagrange_coeff(&xs, j, y);
                for (p, &b) in frag.iter().enumerate() {
                    stripe[p] ^= gf_mul(c, b);
                }
            }
            out.extend_from_slice(&stripe);
        }
        out.truncate(len);
        out
    }

    /// The table-driven kernels are byte-identical to the scalar
    /// reference: every fragment of every shape with `k ≤ 4`, `m ≤ 9`,
    /// and every reconstruction from every `k`-subset, in subset order
    /// and reversed (the Lagrange support order must not matter).
    #[test]
    fn kernels_match_the_scalar_reference() {
        let mut rng = DetRng::from_seed(0x5CA1);
        for k in 1usize..=4 {
            for m in k..=9 {
                // Zero-padded stripes, an exact multiple of k, and a
                // random length.
                let random = 1 + (rng.next_u64() % 300) as usize;
                for len in [1, 7 * k, random] {
                    let bytes = payload(&mut rng, len);
                    let frags = encode_fragments(&bytes, k, m);
                    let reference = scalar_encode(&bytes, k, m);
                    for (i, (f, r)) in frags.iter().zip(&reference).enumerate() {
                        assert_eq!(f.as_ref(), &r[..], "k={k} m={m} len={len} fragment {i}");
                    }
                    for mask in 0u32..(1 << m) {
                        if mask.count_ones() as usize != k {
                            continue;
                        }
                        let mut subset: Vec<(u32, SharedBytes)> = (0..m as u32)
                            .filter(|i| mask & (1 << i) != 0)
                            .map(|i| (i, frags[i as usize].clone()))
                            .collect();
                        for _ in 0..2 {
                            let have: Vec<(u8, &[u8])> =
                                subset.iter().map(|(i, f)| (*i as u8, &f[..])).collect();
                            let fast = reconstruct(k, len as u64, &subset).expect("k fragments");
                            assert_eq!(fast, scalar_reconstruct(k, len, &have), "mask={mask:b}");
                            assert_eq!(fast, bytes, "k={k} m={m} len={len} mask={mask:b}");
                            subset.reverse();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn systematic_prefix_is_the_payload_stripes() {
        let bytes: Vec<u8> = (0..100).collect();
        let frags = encode_fragments(&bytes, 2, 3);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].as_ref(), &bytes[..50]);
        assert_eq!(frags[1].as_ref(), &bytes[50..]);
        assert_eq!(frags[2].len(), 50, "parity has stripe length");
    }

    /// Whole-copy replication is the `k = 1` dispersal: every fragment is
    /// the payload, and all of them share one allocation.
    #[test]
    fn k1_fragments_are_shared_whole_copies() {
        let bytes: Vec<u8> = (0..100).collect();
        let frags = encode_fragments(&bytes, 1, 3);
        assert!(frags.iter().all(|f| f.as_ref() == &bytes[..]));
        assert!(frags.iter().all(|f| std::sync::Arc::ptr_eq(f, &frags[0])));
    }

    #[test]
    fn every_k_subset_reconstructs() {
        let mut rng = DetRng::from_seed(0xC0DE);
        for (k, m) in [(1usize, 3usize), (2, 3), (2, 5), (3, 5), (4, 7)] {
            for len in [1usize, 7, 64, 257] {
                let bytes = payload(&mut rng, len);
                let frags = encode_fragments(&bytes, k, m);
                assert!(frags
                    .iter()
                    .all(|f| f.len() == fragment_len(len as u64, k) as usize));
                // Every k-subset (via bitmask sweep; m ≤ 7 here).
                for mask in 0u32..(1 << m) {
                    if mask.count_ones() as usize != k {
                        continue;
                    }
                    let subset: Vec<(u32, SharedBytes)> = (0..m as u32)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| (i, frags[i as usize].clone()))
                        .collect();
                    assert_eq!(
                        reconstruct(k, len as u64, &subset).as_deref(),
                        Some(&bytes[..]),
                        "k={k} m={m} len={len} mask={mask:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn reconstruct_rejects_malformed_reply_sets() {
        let bytes = b"twelve bytes".to_vec();
        let frags = encode_fragments(&bytes, 2, 3);
        // Too few distinct indices.
        assert_eq!(
            reconstruct(2, 12, &[(0, frags[0].clone()), (0, frags[0].clone())]),
            None
        );
        // Wrong fragment length.
        assert_eq!(
            reconstruct(
                2,
                12,
                &[(0, frags[0].clone()), (1, b"short".to_vec().into())]
            ),
            None
        );
        // Out-of-field index is skipped, leaving too few.
        assert_eq!(
            reconstruct(2, 12, &[(0, frags[0].clone()), (700, frags[1].clone())]),
            None
        );
    }

    #[test]
    fn commitment_verifies_own_fragments_and_rejects_everything_else() {
        let mut rng = DetRng::from_seed(0xAB);
        for m in 1usize..=9 {
            let frags: Vec<SharedBytes> = (0..m)
                .map(|_| SharedBytes::from(&payload(&mut rng, 33)[..]))
                .collect();
            let leaves = fragment_leaves(&frags);
            let root = merkle_root(&leaves);
            for (i, f) in frags.iter().enumerate() {
                let proof = merkle_proof(&leaves, i);
                assert!(verify_fragment(root, m, i, f, &proof), "m={m} i={i}");
                // Garbled bytes fail.
                let mut g = f.to_vec();
                g[0] ^= 1;
                assert!(!verify_fragment(root, m, i, &g, &proof));
                // Wrong claimed index fails (the path binds the index).
                assert!(!verify_fragment(root, m, (i + 1) % m.max(2), f, &proof) || m == 1);
                // Truncated and padded proofs fail.
                if !proof.is_empty() {
                    assert!(!verify_fragment(root, m, i, f, &proof[..proof.len() - 1]));
                }
                let mut padded = proof.clone();
                padded.push(root);
                assert!(!verify_fragment(root, m, i, f, &padded));
                // Out-of-range index fails.
                assert!(!verify_fragment(root, m, m, f, &proof));
            }
        }
    }

    /// Regression: the top node's 65-byte preimage is public — any
    /// fragment proof exposes (or lets a reader derive) the root's two
    /// children — so it must NOT content-address to the root. If
    /// `node_hash` used plain `digest_of`, a writer could store the
    /// preimage as a verified one-fragment dispersal under the root,
    /// permanently shadowing the real dispersal with undecodable bytes.
    #[test]
    fn interior_node_preimages_are_not_content_addressable() {
        use crate::store::{FragmentStore, PutOutcome, StoredFragment};
        let mut rng = DetRng::from_seed(0x5EED);
        for m in 2usize..=9 {
            let frags: Vec<SharedBytes> = (0..m)
                .map(|_| SharedBytes::from(&payload(&mut rng, 48)[..]))
                .collect();
            let leaves = fragment_leaves(&frags);
            let root = merkle_root(&leaves);
            // Fold down to the root's two children and rebuild the exact
            // preimage `node_hash` consumes.
            let mut level = leaves.clone();
            while level.len() > 2 {
                level = fold_level(&level);
            }
            let (l, r) = (level[0], level[1]);
            assert_eq!(node_hash(&l, &r), root, "m={m}: fold sanity");
            let mut preimage = vec![NODE_TAG];
            for lane in l.0.iter().chain(r.0.iter()) {
                preimage.extend_from_slice(&lane.to_le_bytes());
            }
            assert_ne!(
                digest_of(&preimage),
                root,
                "m={m}: a node preimage must never digest to the root"
            );
            // …and so the verified store refuses it under the root as a
            // one-fragment dispersal.
            let mut s = FragmentStore::new();
            let forged = StoredFragment {
                index: 0,
                total: 1,
                bytes: preimage.into(),
                proof: Vec::new(),
            };
            assert_eq!(
                s.put(0, root, forged),
                PutOutcome::DigestMismatch,
                "m={m}: the shadowing fragment must be unstorable"
            );
        }
    }

    /// The amortized tree must agree with the per-index functions on
    /// every index for every shape that exercises the odd-promotion
    /// corner (non-powers of two included).
    #[test]
    fn merkle_tree_matches_per_index_root_and_proofs() {
        let mut rng = DetRng::from_seed(0x7E11);
        for m in 1usize..=17 {
            let frags: Vec<SharedBytes> = (0..m)
                .map(|_| SharedBytes::from(&payload(&mut rng, 21)[..]))
                .collect();
            let leaves = fragment_leaves(&frags);
            let tree = MerkleTree::build(&leaves);
            assert_eq!(tree.leaf_count(), m);
            assert_eq!(tree.root(), merkle_root(&leaves), "m={m}");
            for (i, frag) in frags.iter().enumerate() {
                assert_eq!(tree.proof(i), merkle_proof(&leaves, i), "m={m} i={i}");
                assert!(verify_fragment(tree.root(), m, i, frag, &tree.proof(i)));
            }
        }
    }

    #[test]
    fn root_depends_on_every_fragment_and_their_order() {
        let frags: Vec<SharedBytes> = (0u8..5).map(|i| SharedBytes::from(&[i; 16][..])).collect();
        let leaves = fragment_leaves(&frags);
        let root = merkle_root(&leaves);
        let mut swapped = leaves.clone();
        swapped.swap(0, 4);
        assert_ne!(merkle_root(&swapped), root);
        let mut mutated = leaves.clone();
        mutated[2] = digest_of(b"other");
        assert_ne!(merkle_root(&mutated), root);
    }
}
