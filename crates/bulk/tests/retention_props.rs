//! Property-style retention checks for the aliasing-prone corner of the
//! fragment store: identical payloads put across *different* shards
//! share one commitment root, so retention bookkeeping (holders,
//! recency, eviction, byte accounting) must stay consistent under
//! arbitrary interleavings of puts and evictions.

use sbs_bulk::{digest_of, BulkDigest, FragmentStore, PutOutcome, SharedBytes, StoredFragment};
use sbs_sim::DetRng;
use std::collections::BTreeMap;

/// A small pool of distinct payloads; a tiny pool relative to the churn
/// guarantees both digest aliasing across shards and plenty of
/// evictions at every retention bound.
fn pool() -> (Vec<SharedBytes>, Vec<BulkDigest>) {
    let payloads: Vec<SharedBytes> = (0u8..8)
        .map(|i| SharedBytes::from(vec![i ^ 0x5A; 40 + 20 * i as usize]))
        .collect();
    let digests = payloads.iter().map(|b| digest_of(b)).collect();
    (payloads, digests)
}

/// Seeded loop over retention bounds 1..=3, on whole-copy (`k = m = 1`)
/// dispersals whose root is the payload digest: whatever the
/// interleaving, (1) every shard's most recently put root stays
/// resolvable — the cross-shard aliasing bug dropped exactly this when
/// another shard evicted its hold on the shared root; (2) `bytes_stored`
/// equals the sum over *held* pool payloads, each counted once — so it
/// can neither underflow nor double-count an aliased entry; (3) the
/// distinct-root count respects the global `shards × K` budget.
#[test]
fn aliased_puts_across_shards_never_underflow_or_drop_live_digests() {
    let (payloads, digests) = pool();
    for retain in 1usize..=3 {
        for seed in 0..6u64 {
            let mut rng = DetRng::from_seed(0x000A_11A5 + ((retain as u64) << 8) + seed);
            let mut store = FragmentStore::with_retention(retain);
            let mut last_put: BTreeMap<u32, usize> = BTreeMap::new();
            for step in 0..500 {
                let shard = (rng.next_u64() % 4) as u32;
                let idx = (rng.next_u64() % payloads.len() as u64) as usize;
                let whole = StoredFragment {
                    index: 0,
                    total: 1,
                    bytes: payloads[idx].clone(),
                    proof: Vec::new(),
                };
                let out = store.put(shard, digests[idx], whole);
                assert!(out.held(), "verified puts always hold");
                last_put.insert(shard, idx);

                // (1) Most recent digest per shard is resolvable.
                for (sh, &i) in &last_put {
                    assert_eq!(
                        store.get(&digests[i]).map(|f| f.bytes.as_ref()),
                        Some(payloads[i].as_ref()),
                        "retain={retain} seed={seed} step={step}: shard {sh}'s most \
                         recent digest must stay resolvable"
                    );
                }

                // (2) Exact byte accounting: each held pool payload once.
                let expect: u64 = payloads
                    .iter()
                    .zip(&digests)
                    .filter(|(_, d)| store.holds(d))
                    .map(|(b, _)| b.len() as u64)
                    .sum();
                assert_eq!(
                    store.bytes_stored(),
                    expect,
                    "retain={retain} seed={seed} step={step}: bytes_stored must equal \
                     the held set exactly (no underflow, no double counting)"
                );

                // (3) The global budget: at most K distinct digests per
                // shard that ever put.
                assert!(store.fragment_count() <= 4 * retain);
            }
        }
    }
}

/// The aliasing surface on the fragment store: two shards dispersing
/// identical payloads share a commitment root, but overlapping windows
/// put a replica at a different position (= index) per shard — so each
/// shard holds its *own* `(root, index)` entry, one shard's eviction
/// never drops another's fragment, and per shard a root still pins
/// exactly one index.
#[test]
fn fragment_store_retains_per_shard_entries_of_an_aliased_root() {
    use sbs_bulk::{encode_fragments, fragment_leaves, merkle_proof, merkle_root, StoredFragment};
    let bytes = vec![7u8; 100];
    let frags = encode_fragments(&bytes, 2, 3);
    let leaves = fragment_leaves(&frags);
    let root = merkle_root(&leaves);
    let frag = |i: usize| StoredFragment {
        index: i as u32,
        total: 3,
        bytes: frags[i].clone(),
        proof: merkle_proof(&leaves, i),
    };

    let mut store = FragmentStore::with_retention(1);
    // Shard 0 sits at window position 1 for this root, shard 2 at
    // position 0 — the cross-shard aliasing case. Both store.
    assert_eq!(store.put(0, root, frag(1)), PutOutcome::Stored);
    assert_eq!(store.put(2, root, frag(0)), PutOutcome::Stored);
    assert_eq!(store.bytes_stored(), 100, "one 50-byte fragment per shard");
    // Same-shard re-puts: idempotent on the held index, refused on a
    // conflicting one (the push quorum counts on index-faithful acks).
    assert_eq!(store.put(0, root, frag(1)), PutOutcome::AlreadyHeld);
    assert_eq!(store.put(0, root, frag(0)), PutOutcome::DigestMismatch);
    assert_eq!(store.get_for(0, &root).expect("held").index, 1);
    assert_eq!(store.get_for(2, &root).expect("held").index, 0);

    // A *fabricated* fragment (wrong bytes for the proof) is unstorable.
    let forged = StoredFragment {
        index: 0,
        total: 3,
        bytes: vec![0xFF; 50].into(),
        proof: merkle_proof(&leaves, 0),
    };
    assert_eq!(store.put(0, root, forged), PutOutcome::DigestMismatch);

    // Shard 0 churns past its K=1 bound with a different dispersal: only
    // shard 0's entry drops; shard 2 still resolves the root.
    let other = vec![9u8; 80];
    let ofrags = encode_fragments(&other, 2, 3);
    let oleaves = fragment_leaves(&ofrags);
    let oroot = merkle_root(&oleaves);
    let out = store.put(
        0,
        oroot,
        StoredFragment {
            index: 0,
            total: 3,
            bytes: ofrags[0].clone(),
            proof: merkle_proof(&oleaves, 0),
        },
    );
    assert_eq!(out, PutOutcome::Stored);
    assert!(
        store.holds(&root),
        "shard 2 still references the aliased root"
    );
    assert_eq!(store.get_for(2, &root).expect("held").bytes, frags[0]);
    assert_eq!(store.bytes_stored(), 50 + 40);
    assert_eq!(store.fragment_count(), 2);
}
