//! Layer bench for the Reed–Solomon/Merkle layer: the host cost of the
//! coded data plane's kernels, measured directly on `sbs-bulk`'s public
//! functions.
//!
//! - `digest_of` throughput at 64 B, 1 KiB, 16 KiB and 1 MiB;
//! - `encode_fragments` and `reconstruct` of a 33 KiB payload (the size
//!   of a coded shard-map snapshot) at `(k, m) = (2, 3)` and `(4, 9)`,
//!   reconstructing once from the systematic fragments and once from the
//!   last `k` fragments, which needs parity;
//! - `MerkleTree::build` over the fragment leaves (leaf digests
//!   included) and `verify_fragment` of one parity fragment, same shapes.
//!
//! Rows go to `BENCH_layers.json` at the repo root. These are host
//! numbers, so `trajcheck` gates them with a generous floor (the
//! `bulk-kernels` gate) that only catches collapses.
//!
//! ```sh
//! cargo bench -p sbs-bench --bench bulk_kernels            # full
//! cargo bench -p sbs-bench --bench bulk_kernels -- --smoke # CI
//! ```

use sbs_bench::micro::{bench, section};
use sbs_bench::trajectory::{BenchTrajectory, JsonVal};
use sbs_bulk::{
    digest_of, encode_fragments, fragment_leaves, reconstruct, verify_fragment, MerkleTree,
    SharedBytes,
};
use sbs_sim::DetRng;
use std::hint::black_box;

/// A coded shard-map snapshot's size on the benchmark workloads.
const SNAPSHOT_BYTES: usize = 33 * 1024;

const SHAPES: [(usize, usize); 2] = [(2, 3), (4, 9)];

fn payload(rng: &mut DetRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn record(traj: &mut BenchTrajectory, kernel: &str, case: String, bytes: usize, ns: f64) {
    traj.row(vec![
        ("kernel", JsonVal::from(kernel)),
        ("case", case.into()),
        ("bytes", bytes.into()),
        ("ns_per_iter", ns.into()),
        ("us", (ns / 1e3).into()),
        ("gb_per_s", (bytes as f64 / ns).into()),
    ]);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut traj = BenchTrajectory::new("bulk_kernels", smoke);
    let mut rng = DetRng::from_seed(0xB01C);

    section("digest_of");
    for len in [64usize, 1024, 16 * 1024, 1024 * 1024] {
        let bytes = payload(&mut rng, len);
        let ns = bench(&format!("digest_of/{len}B"), || {
            digest_of(black_box(&bytes))
        });
        println!("{:<44} {:>12.2} GB/s", "", len as f64 / ns);
        record(&mut traj, "digest_of", format!("{len}B"), len, ns);
    }

    let bytes = payload(&mut rng, SNAPSHOT_BYTES);
    for (k, m) in SHAPES {
        let shape = format!("{SNAPSHOT_BYTES}B/k={k},m={m}");
        section(&shape);
        let frags = encode_fragments(&bytes, k, m);
        let flen = frags[0].len();

        let ns = bench(&format!("encode_fragments/{shape}"), || {
            encode_fragments(black_box(&bytes), k, m)
        });
        record(
            &mut traj,
            "encode_fragments",
            shape.clone(),
            bytes.len(),
            ns,
        );

        let indexed: Vec<(u32, SharedBytes)> = frags
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u32, f.clone()))
            .collect();
        for (set, subset) in [("systematic", &indexed[..k]), ("parity", &indexed[m - k..])] {
            assert_eq!(
                reconstruct(k, bytes.len() as u64, subset).as_deref(),
                Some(&bytes[..]),
                "{shape}: the {set} set must reconstruct"
            );
            let ns = bench(&format!("reconstruct/{shape}/{set}"), || {
                reconstruct(k, bytes.len() as u64, black_box(subset))
            });
            record(
                &mut traj,
                "reconstruct",
                format!("{shape}/{set}"),
                bytes.len(),
                ns,
            );
        }

        let ns = bench(&format!("merkle_build/{shape}"), || {
            MerkleTree::build(&fragment_leaves(black_box(&frags)))
        });
        record(&mut traj, "merkle_build", shape.clone(), flen * m, ns);

        let tree = MerkleTree::build(&fragment_leaves(&frags));
        let last = m - 1;
        let proof = tree.proof(last);
        assert!(verify_fragment(tree.root(), m, last, &frags[last], &proof));
        let ns = bench(&format!("verify_fragment/{shape}"), || {
            verify_fragment(tree.root(), m, last, black_box(&frags[last]), &proof)
        });
        record(&mut traj, "verify_fragment", shape, flen, ns);
    }

    if let Some(path) = traj.write_at_repo_root("layers") {
        println!("\ntrajectory: {}", path.display());
    }
}
