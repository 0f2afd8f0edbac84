//! Layer costs measured by replaying captured work through each crate's
//! public functions: `sbs-bulk` coding and digests, and the `sbs-net`
//! codec.

use crate::stats::median;
use sbs_bulk::{
    digest_of, encode_fragments, fragment_leaves, reconstruct, verify_fragment, MerkleTree,
    SharedBytes,
};
use sbs_net::WireCodec;
use sbs_sim::DetRng;
use sbs_store::StoreWire;
use std::hint::black_box;
use std::time::Instant;

/// Median per-call cost of the coded data plane's primitives.
#[derive(Debug, Default)]
pub struct BulkCosts {
    /// Snapshot bytes the replay used (median captured size).
    pub snapshot_bytes: usize,
    /// `digest_of` throughput, GB/s.
    pub digest_gb_per_s: f64,
    /// `encode_fragments`, microseconds.
    pub encode_us: f64,
    /// `MerkleTree::build` over the fragment leaves, microseconds.
    pub merkle_build_us: f64,
    /// `verify_fragment` of one fragment, microseconds.
    pub verify_fragment_us: f64,
    /// `reconstruct` from parity fragments, microseconds.
    pub reconstruct_us: f64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Replays snapshots of the captured `sizes` through a `k`-of-`m`
/// dispersal: digest, encode, commit, verify every fragment, and
/// reconstruct from the last `k` fragments (so decoding is not the
/// systematic shortcut). Returns `None` if a replayed fragment fails to
/// verify or a reconstruction differs from its input.
pub fn bulk(sizes: &[usize], k: usize, m: usize, seed: u64) -> Option<BulkCosts> {
    let mut sizes = sizes.to_vec();
    sizes.sort_unstable();
    // Up to 32 sizes spread over the captured distribution, 5 passes each.
    let picks: Vec<usize> = (0..sizes.len().min(32))
        .map(|i| sizes[i * sizes.len() / sizes.len().min(32)])
        .collect();
    let mut rng = DetRng::derive(seed, 7);
    let (mut dg, mut enc, mut mk, mut ver, mut rec) = (vec![], vec![], vec![], vec![], vec![]);
    for &len in &picks {
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        for _ in 0..5 {
            let t = Instant::now();
            black_box(digest_of(black_box(&bytes)));
            dg.push(len as f64 / t.elapsed().as_nanos().max(1) as f64);
            let t = Instant::now();
            let frags = encode_fragments(black_box(&bytes), k, m);
            enc.push(us(t));
            let t = Instant::now();
            let tree = MerkleTree::build(&fragment_leaves(&frags));
            mk.push(us(t));
            for (i, f) in frags.iter().enumerate() {
                let proof = tree.proof(i);
                let t = Instant::now();
                let ok = verify_fragment(tree.root(), m, i, f, &proof);
                ver.push(us(t));
                if !ok {
                    return None;
                }
            }
            let tail: Vec<(u32, SharedBytes)> = frags
                .iter()
                .enumerate()
                .skip(m - k)
                .map(|(i, f)| (i as u32, f.clone()))
                .collect();
            let t = Instant::now();
            let back = reconstruct(k, len as u64, &tail);
            rec.push(us(t));
            if back.as_deref() != Some(&bytes[..]) {
                return None;
            }
        }
    }
    Some(BulkCosts {
        snapshot_bytes: sizes[sizes.len() / 2],
        digest_gb_per_s: median(&dg),
        encode_us: median(&enc),
        merkle_build_us: median(&mk),
        verify_fragment_us: median(&ver),
        reconstruct_us: median(&rec),
    })
}

/// Mean per-frame cost of the socket codec.
#[derive(Debug, Default)]
pub struct CodecCosts {
    /// `WireCodec::encode`, nanoseconds per frame.
    pub encode_ns: f64,
    /// `WireCodec::decode_payload`, nanoseconds per frame.
    pub decode_ns: f64,
    /// Mean frame size, bytes (length prefix included).
    pub bytes_per_frame: f64,
    /// Replayed frames the codec refused or decoded to another kind.
    pub rejects: u64,
}

/// Replays `msgs` through the deployment's codec (`wsn_modulus`):
/// encode every message, then decode every frame, three passes each.
pub fn codec(msgs: &[StoreWire<u64>], wsn_modulus: u128) -> CodecCosts {
    use sbs_sim::Message;
    if msgs.is_empty() {
        return CodecCosts::default();
    }
    let codec = WireCodec::new(wsn_modulus);
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut out = CodecCosts::default();
    for pass in 0..3 {
        let t = Instant::now();
        let frames: Vec<Vec<u8>> = msgs.iter().map(|m| codec.encode(black_box(m))).collect();
        enc.push(t.elapsed().as_nanos() as f64 / msgs.len() as f64);
        let t = Instant::now();
        let decoded: Vec<_> = frames
            .iter()
            .map(|f| codec.decode_payload::<u64>(black_box(&f[4..])))
            .collect();
        dec.push(t.elapsed().as_nanos() as f64 / msgs.len() as f64);
        if pass == 0 {
            out.rejects = decoded
                .iter()
                .zip(msgs)
                .filter(|(d, m)| d.as_ref().map_or(true, |d| d.label() != m.label()))
                .count() as u64;
            out.bytes_per_frame =
                frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
        }
    }
    out.encode_ns = median(&enc);
    out.decode_ns = median(&dec);
    out
}
