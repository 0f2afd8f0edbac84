//! The per-replica fragment store: commitment-keyed payloads, verified
//! on the way in.
//!
//! A correct data replica replays the fragment's Merkle path against the
//! announced commitment root before storing, so fabricated fragments
//! (link garbage, Byzantine writers announcing a root their bytes do not
//! belong to) are *unstorable* — the store can only ever hold fragments
//! that provably belong to their root. Storage is idempotent: re-putting
//! a held fragment is a no-op acknowledgement, which also makes duplicate
//! `FRAG_PUT` deliveries and republished identical maps harmless.
//! Whole-copy replication is the `k = 1` dispersal, whose every fragment
//! is the whole payload, so one store serves both shapes.
//!
//! Fragments are held as [`SharedBytes`] (`Arc<[u8]>`): storing and
//! serving one shares the sender's allocation instead of copying it, so a
//! fetch reply costs a reference-count bump regardless of payload size.
//!
//! # Retention (digest GC)
//!
//! By default every verified fragment is kept forever — overwrites of a
//! shard map orphan the old snapshot's fragment, and
//! [`FragmentStore::bytes_stored`] only grows.
//! [`FragmentStore::with_retention`] bounds that: only the last `K`
//! *distinct* roots per shard are retained, oldest-first eviction.
//! `K ≥ 2` keeps the previous snapshot alive, so a concurrent reader that
//! read the metadata register just before an overwrite still resolves its
//! reference; readers chasing older (or evicted) references fall back to
//! re-reading the metadata register, which names a live root again.
//! Re-putting a held fragment refreshes its recency instead of double
//! counting it.
//!
//! ## Cross-shard aliasing
//!
//! Commitment roots are *global*: two shards whose maps are
//! byte-identical share one root, so one physical fragment can be live
//! for several shards at once. Retention therefore tracks **holders** —
//! the set of shards currently retaining an entry — and a shard's
//! eviction only drops that shard's hold; the bytes (and the
//! `bytes_stored` accounting) go away only when the *last* holder lets
//! go. Recency refreshes on re-put likewise apply to the shards that
//! actually hold the entry, looked up in the store — never to whatever
//! shard tag the wire message claims, which a Byzantine writer controls.
//!
//! Overlapping shard windows put a replica at a *different window
//! position* (= fragment index) per shard, so entries are keyed by
//! `(root, index)` — each shard holds its own index of an aliased root —
//! instead of sharing one entry per root (which would refuse the second
//! shard's fragment and wedge its push short of the `k + t` quorum).
//! Congruent shards with *identical* windows land on the same index and
//! dedup through the holder set.
//!
//! The store itself admits any shard tag (it has no view of the
//! deployment); bounding *which* shards may hold at all — so a forger
//! cannot grow per-shard retention state with invented shard ids — is
//! the embedding server's job (`sbs-store`'s window guard refuses puts
//! for shards the replica does not serve).

use crate::digest::BulkDigest;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Reference-counted immutable payload bytes, shared zero-copy between
/// wire messages, replica storage, and retransmission buffers.
pub type SharedBytes = Arc<[u8]>;

/// What [`FragmentStore::put`] did with an incoming fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// Verified and stored.
    Stored,
    /// Already held (commitment keying makes this equality, not
    /// overwrite).
    AlreadyHeld,
    /// The fragment does not verify against the announced commitment
    /// root (or conflicts with the index this shard already holds) —
    /// refused.
    DigestMismatch,
}

impl PutOutcome {
    /// True if the replica now holds the fragment (either outcome that
    /// warrants an acknowledgement).
    pub fn held(self) -> bool {
        !matches!(self, PutOutcome::DigestMismatch)
    }
}

/// One keyed entry with its holder set and byte accounting.
#[derive(Clone, Debug)]
struct Held<E> {
    /// The shards currently retaining this key. Non-empty by invariant:
    /// the last eviction removes the entry.
    holders: BTreeSet<u32>,
    /// Payload bytes accounted for this entry.
    len: u64,
    entry: E,
}

/// One shard's recency order: keys indexed by a store-wide monotonic
/// sequence number, so a refresh (`touch`) is two `O(log n)` map moves
/// instead of a linear queue scan — republish-heavy workloads re-put held
/// digests on the hot path.
#[derive(Clone, Debug)]
struct ShardRecency<K: Ord + Copy> {
    /// Keys by insertion/refresh sequence, oldest first.
    by_seq: BTreeMap<u64, K>,
    /// Each key's current sequence (exactly the inverse of `by_seq`).
    seq_of: BTreeMap<K, u64>,
}

impl<K: Ord + Copy> Default for ShardRecency<K> {
    fn default() -> Self {
        ShardRecency {
            by_seq: BTreeMap::new(),
            seq_of: BTreeMap::new(),
        }
    }
}

/// The retention core behind [`FragmentStore`]: keyed entries with
/// per-key **holder** sets and per-shard recency orders.
///
/// Invariants:
/// - key `x` appears in shard `s`'s recency order iff `s` is one of its
///   holders (recency and holder sets never drift);
/// - `by_holder` lists exactly the `(holder, key)` pairs of the holder
///   sets, sorted, so a bounded slice of the holdings is a positional
///   read instead of a rebuild;
/// - `bytes_stored` is the sum of `len` over live entries — incremented
///   once when an entry is first stored, decremented once when its last
///   holder evicts it (never per holder, so aliasing cannot underflow it).
#[derive(Clone, Debug)]
struct RetainedStore<K: Ord + Copy, E> {
    entries: BTreeMap<K, Held<E>>,
    /// Every `(holder, key)` pair, sorted (the holdings index).
    by_holder: Vec<(u32, K)>,
    bytes_stored: u64,
    /// Distinct keys retained per shard (`None` = unbounded).
    retain: Option<usize>,
    /// Per-shard key recency. Only maintained when a retention bound is
    /// set.
    recency: BTreeMap<u32, ShardRecency<K>>,
    /// Store-wide recency sequence (monotonic; gaps are fine).
    next_seq: u64,
}

impl<K: Ord + Copy, E> Default for RetainedStore<K, E> {
    fn default() -> Self {
        RetainedStore::with_retention(None)
    }
}

impl<K: Ord + Copy, E> RetainedStore<K, E> {
    fn with_retention(retain: Option<usize>) -> Self {
        if let Some(k) = retain {
            assert!(k >= 1, "retention bound must be at least 1");
        }
        RetainedStore {
            entries: BTreeMap::new(),
            by_holder: Vec::new(),
            bytes_stored: 0,
            retain,
            recency: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Records a verified put of `key` tagged with `shard`. The caller
    /// has already verified the content; `make` builds the entry only
    /// when the key is new. Returns `Stored` or `AlreadyHeld`.
    fn insert_verified(
        &mut self,
        shard: u32,
        key: K,
        len: u64,
        make: impl FnOnce() -> E,
    ) -> PutOutcome {
        if let Some(held) = self.entries.get_mut(&key) {
            let new_holder = held.holders.insert(shard);
            if new_holder {
                self.index_insert(shard, key);
                // A second shard aliasing onto the same bytes: it gets
                // its own retention slot (and its own recency entry), so
                // another shard's later eviction can no longer drop this
                // shard's only copy.
                self.enqueue(shard, key);
            }
            // Recency refresh goes to the shards that actually hold the
            // key — looked up here, never trusted from the wire tag: a
            // Byzantine writer re-putting a held digest under a foreign
            // shard tag must not be able to starve the true holder's
            // refresh (pre-fix, the actively republished snapshot became
            // the next eviction victim). Without a retention bound there
            // is no recency to maintain, so duplicate puts stay
            // allocation-free on that (default) hot path.
            if self.retain.is_some() {
                let holders: Vec<u32> = self.entries[&key].holders.iter().copied().collect();
                for h in holders {
                    self.touch(h, key);
                }
                self.evict_overflow(shard);
            }
            return PutOutcome::AlreadyHeld;
        }
        self.bytes_stored += len;
        self.entries.insert(
            key,
            Held {
                holders: BTreeSet::from([shard]),
                len,
                entry: make(),
            },
        );
        self.index_insert(shard, key);
        self.enqueue(shard, key);
        self.evict_overflow(shard);
        PutOutcome::Stored
    }

    fn index_insert(&mut self, shard: u32, key: K) {
        if let Err(at) = self.by_holder.binary_search(&(shard, key)) {
            self.by_holder.insert(at, (shard, key));
        }
    }

    /// Appends `key` as `shard`'s most recent (retention mode only).
    fn enqueue(&mut self, shard: u32, key: K) {
        if self.retain.is_none() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let rec = self.recency.entry(shard).or_default();
        debug_assert!(!rec.seq_of.contains_key(&key), "double enqueue");
        rec.by_seq.insert(seq, key);
        rec.seq_of.insert(key, seq);
    }

    /// Moves `key` to the most-recent end of `shard`'s order, if listed.
    fn touch(&mut self, shard: u32, key: K) {
        if self.retain.is_none() {
            return;
        }
        let seq = self.next_seq;
        let Some(rec) = self.recency.get_mut(&shard) else {
            return;
        };
        let Some(old) = rec.seq_of.get(&key).copied() else {
            return;
        };
        rec.by_seq.remove(&old);
        rec.by_seq.insert(seq, key);
        rec.seq_of.insert(key, seq);
        self.next_seq += 1;
    }

    /// Evicts `shard`'s oldest keys while it retains more than the
    /// bound. Eviction drops only *this shard's hold*; the entry (and its
    /// byte accounting) goes away with the last holder.
    fn evict_overflow(&mut self, shard: u32) {
        let Some(k) = self.retain else {
            return;
        };
        let Some(rec) = self.recency.get_mut(&shard) else {
            return;
        };
        while rec.by_seq.len() > k {
            let (_, evicted) = rec.by_seq.pop_first().expect("len > k >= 1");
            rec.seq_of.remove(&evicted);
            let Some(held) = self.entries.get_mut(&evicted) else {
                debug_assert!(false, "recency listed a key the store does not hold");
                continue;
            };
            held.holders.remove(&shard);
            if held.holders.is_empty() {
                let held = self.entries.remove(&evicted).expect("present above");
                self.bytes_stored -= held.len;
            }
            unindex(&mut self.by_holder, shard, evicted);
        }
    }

    /// Discards every entry (and its recency/byte accounting) while
    /// preserving the retention configuration — a transient data fault,
    /// not a reconfiguration. The recency sequence keeps advancing so
    /// post-wipe inserts order strictly after pre-wipe history.
    fn wipe(&mut self) {
        self.entries.clear();
        self.by_holder.clear();
        self.recency.clear();
        self.bytes_stored = 0;
    }

    /// Drops `key` for every holder (recency included). Used by the
    /// self-healing serve path when a held entry fails its integrity
    /// re-check: the corrupt bytes must go before a repaired copy can be
    /// re-inserted through the verifying `put`.
    fn remove_key(&mut self, key: &K) -> bool {
        let Some(held) = self.entries.remove(key) else {
            return false;
        };
        self.bytes_stored -= held.len;
        for shard in held.holders {
            unindex(&mut self.by_holder, shard, *key);
            if let Some(rec) = self.recency.get_mut(&shard) {
                if let Some(seq) = rec.seq_of.remove(key) {
                    rec.by_seq.remove(&seq);
                }
            }
        }
        true
    }

    fn shards_held(&self) -> BTreeSet<u32> {
        self.entries
            .values()
            .flat_map(|h| h.holders.iter().copied())
            .collect()
    }
}

/// Drops `(shard, key)` from a sorted holdings index, if listed.
fn unindex<K: Ord>(by_holder: &mut Vec<(u32, K)>, shard: u32, key: K) {
    if let Ok(at) = by_holder.binary_search(&(shard, key)) {
        by_holder.remove(at);
    }
}

/// One verified erasure-coded fragment as stored on a replica: the
/// fragment bytes plus everything needed to re-serve it verifiably — its
/// index in the `m`-fragment dispersal and the Merkle path binding it to
/// the commitment root (see [`crate::verify_fragment`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredFragment {
    /// This fragment's index in `0..total`.
    pub index: u32,
    /// Total number of fragments in the dispersal (`m`).
    pub total: u32,
    /// The fragment bytes.
    pub bytes: SharedBytes,
    /// The Merkle path from this fragment's leaf digest to the root.
    pub proof: Vec<BulkDigest>,
}

/// One replica's erasure-coded fragment storage, keyed by
/// `(commitment root, fragment index)` with per-entry holder sets.
/// Verification happens on the way in — [`FragmentStore::put`] replays
/// the Merkle path — so the store only ever holds fragments that
/// provably belong to their announced root; see the module docs for
/// retention (holders, recency, eviction, byte accounting).
///
/// Keying by `(root, index)` — not by root alone — is what keeps writes
/// live across *shard windows that overlap*: a replica serving two shards
/// sits at a different window position in each, so when both shards
/// disperse byte-identical payloads (one root — the cross-shard aliasing
/// case), it legitimately holds a **different fragment index per shard**.
/// Congruent shards (`shard ≡ shard' mod n`, identical windows) land on
/// the *same* index instead and dedup through the holder set. Per shard,
/// though, a root still maps to exactly
/// one index: a re-put of a held index is acknowledged without storing
/// (idempotence), while a **different** index for a
/// shard that already holds one is refused — acknowledging it would
/// certify holding a fragment this replica does not have at that window
/// position, which is exactly what the `k + t` push quorum counts on (a
/// Byzantine peer pre-seeding correct replicas with *its* fragment must
/// not be able to poison their acks).
#[derive(Clone, Debug, Default)]
pub struct FragmentStore {
    inner: RetainedStore<(BulkDigest, u32), StoredFragment>,
}

impl FragmentStore {
    /// An empty store that retains every verified fragment forever.
    pub fn new() -> Self {
        FragmentStore::default()
    }

    /// An empty store that retains only the last `retain` distinct roots
    /// per shard, evicting oldest-first.
    ///
    /// # Panics
    ///
    /// Panics on `retain == 0`.
    pub fn with_retention(retain: usize) -> Self {
        FragmentStore {
            inner: RetainedStore::with_retention(Some(retain)),
        }
    }

    /// Verifies `frag` against the commitment `root` (Merkle path replay)
    /// and stores it under `(root, frag.index)`, tagged with the owning
    /// `shard`. See the type docs for the keying and the same-shard
    /// index-conflict refusal.
    pub fn put(&mut self, shard: u32, root: BulkDigest, frag: StoredFragment) -> PutOutcome {
        // Empty fragments are refused outright: an honest dispersal's
        // fragments are never zero-length (the payload is at
        // least its length prefix), and a Byzantine writer *can* commit
        // an empty leaf — which would otherwise be stored verified and
        // trip up serving paths that index into the bytes.
        if frag.bytes.is_empty()
            || !crate::verify_fragment(
                root,
                frag.total as usize,
                frag.index as usize,
                &frag.bytes,
                &frag.proof,
            )
        {
            return PutOutcome::DigestMismatch;
        }
        // Same-shard index conflict: this shard already holds a
        // *different* index of the root (at most a handful of indices per
        // root exist, so the scan is tiny).
        if self
            .entries_of(&root)
            .any(|((_, idx), h)| *idx != frag.index && h.holders.contains(&shard))
        {
            return PutOutcome::DigestMismatch;
        }
        let len = frag.bytes.len() as u64;
        self.inner
            .insert_verified(shard, (root, frag.index), len, || frag)
    }

    /// The entries holding fragments of `root`, across all indices.
    fn entries_of(
        &self,
        root: &BulkDigest,
    ) -> impl Iterator<Item = (&(BulkDigest, u32), &Held<StoredFragment>)> {
        self.inner
            .entries
            .range((*root, u32::MIN)..=(*root, u32::MAX))
    }

    /// Some fragment stored under `root`, if any index is held.
    pub fn get(&self, root: &BulkDigest) -> Option<&StoredFragment> {
        self.entries_of(root).next().map(|(_, h)| &h.entry)
    }

    /// The fragment stored under `root` for `shard` (the index that
    /// shard's window position dispersed here) — falling back to any
    /// held index of that root (still commitment-verified, so still
    /// useful to a reconstructing reader).
    pub fn get_for(&self, shard: u32, root: &BulkDigest) -> Option<&StoredFragment> {
        self.entries_of(root)
            .find(|(_, h)| h.holders.contains(&shard))
            .map(|(_, h)| &h.entry)
            .or_else(|| self.get(root))
    }

    /// True if a fragment of `root` is held for any shard.
    pub fn holds(&self, root: &BulkDigest) -> bool {
        self.entries_of(root).next().is_some()
    }

    /// Number of fragment entries held (one per `(root, index)`).
    pub fn fragment_count(&self) -> usize {
        self.inner.entries.len()
    }

    /// Total fragment payload bytes currently held (proof bytes are not
    /// counted — they are commitment metadata, not payload).
    pub fn bytes_stored(&self) -> u64 {
        self.inner.bytes_stored
    }

    /// The shards this replica holds at least one fragment for.
    pub fn shards_held(&self) -> BTreeSet<u32> {
        self.inner.shards_held()
    }

    /// Discards every fragment (transient data fault), preserving the
    /// retention configuration.
    pub fn wipe(&mut self) {
        self.inner.wipe();
    }

    /// Drops every index of `root`, for every holder. Returns whether
    /// anything was held.
    pub fn remove(&mut self, root: &BulkDigest) -> bool {
        let keys: Vec<(BulkDigest, u32)> = self.entries_of(root).map(|(k, _)| *k).collect();
        let mut removed = false;
        for k in keys {
            removed |= self.inner.remove_key(&k);
        }
        removed
    }

    /// Every `(holder shard, commitment root)` pair this replica
    /// retains, sorted — the raw material for anti-entropy digest
    /// summaries. Each pair appears once: a shard holds at most one
    /// index of a root (see [`FragmentStore::put`]).
    pub fn holdings(&self) -> Vec<(u32, BulkDigest)> {
        (0..self.holdings_len()).map(|i| self.holding(i)).collect()
    }

    /// Number of `(holder shard, commitment root)` pairs retained.
    pub fn holdings_len(&self) -> usize {
        self.inner.by_holder.len()
    }

    /// The `i`-th pair of [`FragmentStore::holdings`], read from the
    /// maintained index without materializing the list — the
    /// anti-entropy tick takes a bounded rotating slice by position.
    ///
    /// # Panics
    ///
    /// Panics when `i >= holdings_len()`.
    pub fn holding(&self, i: usize) -> (u32, BulkDigest) {
        let (shard, (root, _)) = self.inner.by_holder[i];
        (shard, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest_of;
    use sbs_sim::DetRng;

    /// A one-fragment dispersal (`k = m = 1`) of `len` bytes of `label`:
    /// its root is the payload's content address, its proof is empty.
    fn whole(label: u8, len: usize) -> (BulkDigest, StoredFragment) {
        let bytes: SharedBytes = vec![label; len].into();
        (digest_of(&bytes), single(bytes))
    }

    fn single(bytes: SharedBytes) -> StoredFragment {
        StoredFragment {
            index: 0,
            total: 1,
            bytes,
            proof: Vec::new(),
        }
    }

    #[test]
    fn put_verifies_and_is_idempotent() {
        let mut s = FragmentStore::new();
        let bytes: SharedBytes = b"shard map bytes".to_vec().into();
        let d = digest_of(&bytes);
        assert_eq!(s.put(3, d, single(bytes.clone())), PutOutcome::Stored);
        assert_eq!(s.put(3, d, single(bytes.clone())), PutOutcome::AlreadyHeld);
        assert!(PutOutcome::AlreadyHeld.held());
        assert_eq!(s.get(&d).map(|f| f.bytes.as_ref()), Some(bytes.as_ref()));
        assert!(s.holds(&d));
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.bytes_stored(), bytes.len() as u64);
        assert_eq!(s.shards_held().into_iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn fabricated_fragments_are_unstorable() {
        let mut s = FragmentStore::new();
        let d = digest_of(b"the real bytes");
        let out = s.put(0, d, single(b"not those bytes".to_vec().into()));
        assert_eq!(out, PutOutcome::DigestMismatch);
        assert!(!out.held());
        assert_eq!(s.fragment_count(), 0);
        assert!(s.get(&d).is_none());
        // Empty payloads are refused even when they verify.
        let empty: SharedBytes = Vec::new().into();
        let out = s.put(0, digest_of(&empty), single(empty));
        assert_eq!(out, PutOutcome::DigestMismatch);
    }

    #[test]
    fn serving_shares_the_allocation() {
        let mut s = FragmentStore::new();
        let (d, f) = whole(7, 64);
        let bytes = f.bytes.clone();
        s.put(0, d, f);
        let served = &s.get_for(0, &d).expect("held").bytes;
        assert!(Arc::ptr_eq(served, &bytes), "serving must not copy");
    }

    #[test]
    fn retention_evicts_oldest_and_bytes_plateau() {
        let mut s = FragmentStore::with_retention(2);
        let (d1, f1) = whole(1, 100);
        let (d2, f2) = whole(2, 100);
        let (d3, f3) = whole(3, 100);
        s.put(0, d1, f1);
        s.put(0, d2, f2);
        assert_eq!(s.bytes_stored(), 200);
        // The previous root survives an overwrite (K = 2)…
        s.put(0, d3, f3);
        assert!(!s.holds(&d1), "oldest root must be evicted");
        assert!(s.holds(&d2), "the previous snapshot stays resolvable");
        assert!(s.holds(&d3));
        // …and total bytes plateau at K fragments per shard under churn.
        for i in 4..40u8 {
            let (d, f) = whole(i, 100);
            s.put(0, d, f);
            assert_eq!(s.bytes_stored(), 200, "bytes must plateau at K entries");
            assert_eq!(s.fragment_count(), 2);
        }
    }

    #[test]
    fn retention_is_per_shard() {
        let mut s = FragmentStore::with_retention(1);
        let (d1, f1) = whole(1, 10);
        let (d2, f2) = whole(2, 10);
        s.put(0, d1, f1);
        s.put(1, d2, f2);
        assert!(s.holds(&d1) && s.holds(&d2), "bounds apply per shard");
        let (d3, f3) = whole(3, 10);
        s.put(0, d3, f3);
        assert!(!s.holds(&d1) && s.holds(&d2) && s.holds(&d3));
    }

    #[test]
    fn reput_refreshes_recency_instead_of_double_counting() {
        let mut s = FragmentStore::with_retention(2);
        let (d1, f1) = whole(1, 10);
        let (d2, f2) = whole(2, 10);
        s.put(0, d1, f1.clone());
        s.put(0, d2, f2);
        // Re-put of d1: now d2 is the oldest.
        assert_eq!(s.put(0, d1, f1), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 20, "re-put must not double count");
        let (d3, f3) = whole(3, 10);
        s.put(0, d3, f3);
        assert!(s.holds(&d1), "refreshed root must survive");
        assert!(!s.holds(&d2), "stale root is the eviction victim");
    }

    /// Regression (cross-shard aliasing): two shards storing
    /// byte-identical maps share one root; one shard's eviction must
    /// drop only its own hold, never the bytes the other shard still
    /// references — and the byte accounting must move exactly once, on
    /// the last drop.
    #[test]
    fn aliased_root_survives_one_shards_eviction() {
        let mut s = FragmentStore::with_retention(1);
        let (d, f) = whole(9, 100);
        assert_eq!(s.put(0, d, f.clone()), PutOutcome::Stored);
        assert_eq!(s.put(1, d, f.clone()), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 100, "one physical fragment, two holders");
        assert_eq!(s.shards_held(), BTreeSet::from([0, 1]));

        // Shard 0 churns past its K=1 bound: only shard 0's hold drops.
        let (d2, f2) = whole(10, 100);
        s.put(0, d2, f2);
        assert!(
            s.holds(&d),
            "shard 1 still references the aliased root — eviction by \
             shard 0 must not drop it"
        );
        assert_eq!(s.get(&d), Some(&f));
        assert_eq!(s.bytes_stored(), 200);
        assert_eq!(s.shards_held(), BTreeSet::from([0, 1]));

        // Shard 1 churns too: now the last holder is gone and the bytes
        // (and their accounting) go with it — exactly once.
        let (d3, f3) = whole(11, 100);
        s.put(1, d3, f3);
        assert!(!s.holds(&d), "last holder evicted: the fragment must drop");
        assert_eq!(s.bytes_stored(), 200, "d2 + d3 remain, no underflow");
        assert_eq!(s.fragment_count(), 2);
    }

    /// Regression (wire-tag trust in `touch`): a re-put of a held root
    /// tagged with a *foreign* shard — which a Byzantine writer can send
    /// at will — must still refresh the recency of the shard(s) that
    /// actually hold it, so an actively republished snapshot is never the
    /// next eviction victim.
    #[test]
    fn reput_with_foreign_shard_tag_still_refreshes_stored_shard() {
        let mut s = FragmentStore::with_retention(2);
        let (d1, f1) = whole(1, 10);
        let (d2, f2) = whole(2, 10);
        s.put(0, d1, f1.clone());
        s.put(0, d2, f2);
        // The republish arrives under a bogus shard tag (7). The stored
        // shard (0) must be looked up for the refresh regardless.
        assert_eq!(s.put(7, d1, f1), PutOutcome::AlreadyHeld);
        let (d3, f3) = whole(3, 10);
        s.put(0, d3, f3);
        assert!(
            s.holds(&d1),
            "the actively republished root must survive shard 0's eviction"
        );
        assert!(!s.holds(&d2), "d2 was shard 0's oldest after the refresh");
    }

    #[test]
    #[should_panic(expected = "retention bound must be at least 1")]
    fn zero_retention_is_refused() {
        let _ = FragmentStore::with_retention(0);
    }

    /// Wipe is a transient fault, not a reconfiguration: everything
    /// drops, the retention bound survives, and post-wipe puts behave
    /// exactly like puts into a fresh store with the same bound.
    #[test]
    fn wipe_clears_state_but_keeps_retention() {
        let mut s = FragmentStore::with_retention(2);
        let (d1, f1) = whole(1, 10);
        let (d2, f2) = whole(2, 10);
        s.put(0, d1, f1.clone());
        s.put(1, d2, f2);
        s.wipe();
        assert_eq!(s.fragment_count(), 0);
        assert_eq!(s.bytes_stored(), 0);
        assert!(!s.holds(&d1) && !s.holds(&d2));
        assert!(s.holdings().is_empty());
        // Re-puts verify and evict against the preserved bound.
        assert_eq!(s.put(0, d1, f1), PutOutcome::Stored);
        for i in 10..14u8 {
            let (d, f) = whole(i, 10);
            s.put(0, d, f);
            assert!(s.fragment_count() <= 2);
        }
    }

    /// `remove` drops an entry for every holder — recency included, so a
    /// later eviction sweep cannot trip over a dangling recency key.
    #[test]
    fn remove_drops_all_holders_and_their_recency() {
        let mut s = FragmentStore::with_retention(1);
        let (d, f) = whole(5, 30);
        s.put(0, d, f.clone());
        s.put(1, d, f);
        assert_eq!(s.holdings(), vec![(0, d), (1, d)]);
        assert!(s.remove(&d));
        assert!(!s.remove(&d), "second remove finds nothing");
        assert_eq!(s.bytes_stored(), 0);
        assert!(s.holdings().is_empty());
        // Both shards churn on fresh roots without tripping recency
        // debris from the removed key.
        for i in 20..24u8 {
            let (di, fi) = whole(i, 10);
            s.put(u32::from(i % 2), di, fi);
        }
        assert_eq!(s.fragment_count(), 2);
    }

    /// The holdings a tick would have rebuilt from scratch: every
    /// `(holder, root)` pair of the live entries, deduplicated and sorted.
    fn rebuilt_holdings(s: &FragmentStore) -> Vec<(u32, BulkDigest)> {
        let mut set: BTreeSet<(u32, BulkDigest)> = BTreeSet::new();
        for ((root, _), held) in &s.inner.entries {
            for &shard in &held.holders {
                set.insert((shard, *root));
            }
        }
        set.into_iter().collect()
    }

    /// The maintained holdings index equals the rebuilt set after every
    /// step of random put / evict / remove / wipe sequences, with and
    /// without retention — including coded roots held at different
    /// indices by different shards, and re-puts under foreign shard tags.
    #[test]
    fn holdings_index_matches_the_rebuilt_set() {
        use crate::{encode_fragments, fragment_leaves, MerkleTree};
        let coded: Vec<(BulkDigest, Vec<StoredFragment>)> = (0u8..4)
            .map(|label| {
                let frags = encode_fragments(&[label; 60], 2, 3);
                let tree = MerkleTree::build(&fragment_leaves(&frags));
                let stored = (0..3)
                    .map(|i| StoredFragment {
                        index: i as u32,
                        total: 3,
                        bytes: frags[i].clone(),
                        proof: tree.proof(i),
                    })
                    .collect();
                (tree.root(), stored)
            })
            .collect();
        for retain in [None, Some(1), Some(2), Some(3)] {
            for seed in 0..4u64 {
                let mut rng = DetRng::from_seed(0x4011 + seed);
                let mut s = retain.map_or_else(FragmentStore::new, FragmentStore::with_retention);
                for step in 0..600 {
                    let shard = (rng.next_u64() % 5) as u32;
                    match rng.next_u64() % 100 {
                        0..=44 => {
                            let (d, f) = whole((rng.next_u64() % 12) as u8, 20);
                            s.put(shard, d, f);
                        }
                        45..=89 => {
                            let (root, frags) = &coded[(rng.next_u64() % 4) as usize];
                            let f = frags[(rng.next_u64() % 3) as usize].clone();
                            s.put(shard, *root, f);
                        }
                        90..=97 => {
                            let (d, _) = whole((rng.next_u64() % 12) as u8, 20);
                            s.remove(&d);
                        }
                        _ => s.wipe(),
                    }
                    assert_eq!(
                        s.holdings(),
                        rebuilt_holdings(&s),
                        "retain={retain:?} seed={seed} step={step}"
                    );
                }
            }
        }
    }

    /// Regression (REVIEW of ISSUE 5, write liveness): a replica shared
    /// by two overlapping shard windows sits at a different window
    /// position in each, so byte-identical cross-shard dispersals (one
    /// root) require it to hold a *different fragment index per shard*.
    /// Pre-fix the store held one fragment per root and refused — without
    /// ack — the second shard's index, wedging that shard's push short of
    /// its `k + t` quorum forever. Same-shard index conflicts must still
    /// be refused.
    #[test]
    fn aliased_root_stores_one_index_per_shard() {
        use crate::{encode_fragments, fragment_leaves, merkle_proof, merkle_root};
        let bytes = vec![3u8; 90];
        let frags = encode_fragments(&bytes, 2, 3);
        let leaves = fragment_leaves(&frags);
        let root = merkle_root(&leaves);
        let frag = |i: usize| StoredFragment {
            index: i as u32,
            total: 3,
            bytes: frags[i].clone(),
            proof: merkle_proof(&leaves, i),
        };

        let mut s = FragmentStore::new();
        // Shard 0's window puts this replica at position 2, shard 1's at
        // position 0 — both must store and be acknowledgeable.
        assert_eq!(s.put(0, root, frag(2)), PutOutcome::Stored);
        assert_eq!(
            s.put(1, root, frag(0)),
            PutOutcome::Stored,
            "a different shard's index of the same root must store"
        );
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.bytes_stored(), 90, "two 45-byte fragments");

        // Per shard the index is pinned: idempotent same-index re-put,
        // refused different-index re-put.
        assert_eq!(s.put(0, root, frag(2)), PutOutcome::AlreadyHeld);
        assert_eq!(s.put(0, root, frag(1)), PutOutcome::DigestMismatch);

        // A congruent shard (identical window → same position, same
        // index) dedups through the holder set instead of
        // double-storing the identical bytes.
        assert_eq!(s.put(4, root, frag(2)), PutOutcome::AlreadyHeld);
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.bytes_stored(), 90, "identical fragment stored once");
        assert_eq!(s.get_for(4, &root).expect("held").index, 2);

        // Serving picks the shard's own fragment, falling back to any
        // held one for a shard that stored nothing.
        assert_eq!(s.get_for(0, &root).expect("held").index, 2);
        assert_eq!(s.get_for(1, &root).expect("held").index, 0);
        assert!(s.get_for(9, &root).is_some(), "fallback to any fragment");
        assert!(s.holds(&root));
        assert_eq!(s.shards_held(), BTreeSet::from([0, 1, 4]));
    }
}
