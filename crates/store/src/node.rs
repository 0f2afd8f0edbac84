//! The multiplexing store nodes: existing register state machines wrapped
//! behind the batched [`StoreMsg`] envelope, plus the content-addressed
//! **bulk data plane**.
//!
//! Neither wrapper reimplements any register-protocol logic. The embedded
//! machines — [`ServerCore`]-based servers, the client-side
//! [`ReadEngine`] / [`WriteEngine`] — run unmodified inside a sub-context
//! ([`Context::with_effects`]) speaking their native [`RegMsg`] wire
//! type; the wrapper then re-emits their effects with all messages to one
//! destination coalesced into a single [`StoreMsg::Batch`] (via the
//! indexed, reusable [`DestBatcher`]). Timer ids are allocated from the
//! shared counter, so forwarding them preserves identity and the
//! engines' stale-timer filtering keeps working.
//!
//! # Time-window batching
//!
//! With [`StoreClientNode::batch_window`] set, a client that is fully
//! idle does not launch an arriving operation immediately: it stages the
//! operation and arms a Nagle-style flush timer. Operations arriving
//! within the window — in *later handler executions* — join the staged
//! queue, and at the flush deadline the pump launches them together,
//! gathering every queued same-kind operation on the launching shard
//! into **one** register round: queued puts fold into a single map
//! publish, group-commit style (each still completes individually, and
//! per-key write order stays exactly invocation order), queued gets on
//! the shard share a single metadata read (each projects its own key
//! from the same snapshot). Their wire messages therefore travel as one
//! `StoreMsg::Batch` per destination per window instead of one round per
//! operation. A gathered op may complete ahead of queued neighbors on
//! *other* shards or of the other kind; it still overlaps them (all are
//! invoked, none completed), so the reordering stays within the
//! latitude the register contract grants concurrent operations — the
//! differential tests pin this. No operation is ever held past its
//! flush deadline, and an operation that finds the client busy waits
//! exactly as before (its run launches the moment the pump goes idle —
//! no extra hold). A window of zero (the default) reproduces the
//! previous one-round-per-operation behavior bit for bit.
//!
//! Delaying an idle client's *own* launch never interacts with the
//! per-round timeout discipline (the round timer starts when the round is
//! actually broadcast), so the knob is safe in both communication modes.
//!
//! # The bulk data plane (AVID-style dispersal)
//!
//! Under [`DataPlane::Coded`] the register machines never see a shard
//! map. A `put` first disperses the serialized map over the shard's
//! `m = 2t + 1` data replicas: each replica gets **one** `k`-of-`m`
//! fragment (~`1/k` of the payload). The writer commits to the fragment
//! set with a Merkle tree whose root becomes the [`BulkRef`] digest; each
//! `FRAG_PUT` carries the fragment's Merkle path, so a correct replica
//! verifies *its own fragment* against the root before storing and
//! acknowledging. The push waits for `k + t` acknowledgements —
//! guaranteeing `k` **correct** replicas hold verified fragments —
//! before writing the fixed-size reference through the metadata quorum.
//! Whole-copy replication ([`StoreBuilder::bulk`](crate::StoreBuilder))
//! is `k = 1`: every fragment is the whole map and the push quorum is
//! `t + 1`.
//!
//! A `get` runs the unchanged metadata read, then asks the data replicas
//! (`BULK_GET`) and reconstructs from any `k` replies whose fragments
//! re-verify against the root. A Byzantine replica garbling the fragment
//! (or proof) it serves is detected fragment-by-fragment and simply
//! counts as a bad reply; the client falls back to a retransmission
//! round, and ultimately to a metadata re-read, if a round cannot reach
//! `k` verified fragments — the latter also recovers from fabricated
//! references that transient corruption may have planted in a register.
//!
//! # Live resharding (dual-commit shard handoff)
//!
//! A shard migrates between writers through a three-role protocol driven
//! by the harness and committed through the registers themselves (see the
//! `router` module docs for the epoch model):
//!
//! 1. **Old owner** — [`StoreClientNode::retire_shard`] marks the shard
//!    *retiring*: already-queued puts still publish (the dual-commit
//!    window — readers keep accepting its stamps, since stamps carry no
//!    writer identity), and once the last queued put on the shard has
//!    drained the owner drops the shard and emits
//!    [`StoreOut::ShardRetired`]. From then on a put routed here panics —
//!    the "refuses further puts" half of the contract.
//! 2. **Coordinator** — [`StoreClientNode::commit_epoch`] runs a
//!    read-then-write of the dedicated routing register (`RegId(shards)`):
//!    resync a fresh [`WsnStamp`] onto the quorum-agreed stamp (the
//!    rotating-writer read-before-write rule) and write the new
//!    [`RoutingEpoch`]. Completion emits [`StoreOut::EpochCommitted`] —
//!    the flip is now observable through the quorum.
//! 3. **New owner** — [`StoreClientNode::grant_shard`] starts *staging*
//!    puts routed here mid-handoff; [`StoreClientNode::acquire_shard`]
//!    (issued after the retire **and** the committed flip) quorum-reads
//!    the shard, adopts the old owner's last committed map, resyncs the
//!    stamper onto its stamp, republishes, emits
//!    [`StoreOut::ShardAcquired`], and flushes the staged puts. Because
//!    the adoption read starts only after the old owner's final publish
//!    completed, the new owner's first stamp is its clockwise successor —
//!    the register sequence continues as if the writer never changed,
//!    which is exactly why a resharded run's per-key write histories are
//!    equivalent to a static run's.
//!
//! [`ServerCore`]: sbs_core::ServerCore

use crate::batcher::DestBatcher;
use crate::map::ShardMap;
use crate::msg::{StoreMsg, StoreOut};
use crate::router::{KeyRouter, RoutingEpoch};
use crate::val::StoreVal;
use sbs_bulk::{
    coded_push_quorum, data_replica_slots, encode_fragments, fragment_leaves, fragment_len,
    reconstruct, verify_fragment, BulkCodec, BulkDigest, BulkRef, FragmentStore, MerkleTree,
    SharedBytes, StoredFragment,
};
use sbs_core::{
    AtomicPolicy, ClientLink, Payload, ReadEngine, ReadPolicy, ReadProgress, RegId, RegMsg,
    RegisterConfig, SeqVal, WriteEngine, WriteStamper, WsnStamp,
};
use sbs_sim::{Context, DetRng, Effects, Node, OpId, ProcessId, SimDuration, TimerId, TraceEvent};
use sbs_stamps::RingSeq;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::Arc;

/// The wire payload of every store shard: a sequence-stamped
/// [`StoreVal`] (the practically-atomic SWMR register of Figure 3 /
/// §5.1, with the map — or its content-addressed reference — as the
/// stored value).
pub type StorePayload<V> = SeqVal<StoreVal<V>>;

/// The store's simulation-wide message type.
pub type StoreWire<V> = StoreMsg<StorePayload<V>>;

type StoreCtx<'a, V> = Context<'a, StoreWire<V>, StoreOut<V>>;

/// Where shard payload bytes live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataPlane {
    /// Every write carries the whole map to all `n` servers through the
    /// register protocol (the paper's original scheme; compatibility
    /// default).
    Full,
    /// Retired: whole copies are `Coded { k: 1, .. }`. The field is
    /// uninhabited, so no value of this variant exists; the name remains
    /// only so code that lists it in a `match` (the `perfbench` package
    /// does) keeps compiling.
    #[doc(hidden)]
    Bulk {
        /// Uninhabited.
        retired: Infallible,
    },
    /// Erasure-coded dispersal (AVID-style): each of the `replicas`
    /// window servers holds **one** `k`-of-`replicas` fragment
    /// (~`1/k` of the payload) verified against a Merkle commitment
    /// whose root is the register-visible digest; the metadata quorum
    /// carries only `(root, len)`. Any `k` verified fragments
    /// reconstruct; pushes wait for `k + t` acknowledgements. `k = 1` is
    /// whole-copy replication: every fragment is the whole payload.
    ///
    /// Liveness trade vs whole copies: on the minimal `m = 2t + 1`
    /// window with `k > 1`, the push quorum `k + t` exceeds the `t + 1`
    /// honest replicas — writes then need acknowledgements from
    /// *responsive* Byzantine replicas too. The workspace's adversaries
    /// store-and-ack honestly (their lies are in what they *serve*), so
    /// puts stay live here; a deployment that must also ride out
    /// **fail-silent** data replicas should overprovision the window to
    /// `m ≥ k + 2t` (e.g. `data_replicas(3t + 1)` before
    /// `bulk_coded(t + 1)` — the classical AVID shape), at which point
    /// `k + t` acks arrive from honest replicas alone.
    Coded {
        /// Data replicas (= fragments) per shard — `2t + 1` for
        /// Byzantine tolerance.
        replicas: usize,
        /// Fragments needed to reconstruct; `k + t ≤ replicas` so
        /// reads stay live with `t` Byzantine replicas.
        k: usize,
    },
}

impl DataPlane {
    /// The dispersal shape `(k, m)`, or `None` under full replication.
    pub(crate) fn coding(self) -> Option<(usize, usize)> {
        match self {
            DataPlane::Full => None,
            DataPlane::Coded { replicas, k } => Some((k, replicas)),
        }
    }
}

/// Consecutive fetch retransmission rounds before the client falls back
/// to re-reading the metadata register (which recovers from fabricated
/// references and from metadata that has since moved on).
const FETCH_ROUNDS_PER_READ: u32 = 2;

/// A server slot of the store fleet: any [`RegMsg`]-speaking server node
/// (correct [`ServerNode`](sbs_core::ServerNode) or a
/// [`ByzServerNode`](sbs_core::ByzServerNode) adversary), unwrapping
/// incoming batches and re-batching its replies — plus this server's slice
/// of the bulk data plane (a verified [`FragmentStore`]).
pub struct StoreServerNode<P, Inner> {
    inner: Inner,
    frags: FragmentStore,
    guard: Option<BulkGuard>,
    healer: Option<Healer>,
    byz_bulk: bool,
    batcher: DestBatcher<P>,
    _p: PhantomData<fn() -> P>,
}

/// Deployment-derived admission control for a server's slice of the
/// bulk plane. Everything in a `FRAG_PUT` besides the payload — the
/// shard tag, the fragment `total`, the fragment `index` — arrives from
/// the wire, where a Byzantine writer controls it freely; this guard
/// pins each field to what the *deployment* says it must be for this
/// server, so wire lies are refused instead of trusted:
///
/// - the shard must exist (`shard < shards`) and this server must be in
///   its replica window — otherwise a forger could grow per-shard
///   retention state (holder sets, recency queues) without bound;
/// - a fragment's `total` must be the deployment's `m` — otherwise a
///   forged shape (a `total = 1` "dispersal" of any digest-passing
///   bytes, say) would be checked against a different tree than the
///   one the writer committed to;
/// - a fragment's `index` must be this server's own window position for
///   the shard (the AVID rule: replica `i` stores fragment `i`) — so a
///   `FRAG_PUT_ACK` certifies the exact fragment the push quorum needs,
///   and pre-seeding a correct replica with some *other* replica's
///   fragment cannot fake `k` distinct verified fragments.
#[derive(Clone, Copy, Debug)]
struct BulkGuard {
    /// This server's slot in the fleet (index into the server list).
    slot: usize,
    /// Fleet size.
    n: usize,
    /// Shards deployed (the router's shard count).
    shards: u32,
    /// Data replicas per shard window (0 under full replication — every
    /// bulk-plane push is then a forgery by definition).
    replicas: usize,
}

impl BulkGuard {
    /// This server's position inside `shard`'s replica window, if the
    /// shard exists and the window covers this server.
    fn window_position(&self, shard: u32) -> Option<usize> {
        if shard >= self.shards {
            return None;
        }
        let pos = (self.slot + self.n - shard as usize % self.n) % self.n;
        (pos < self.replicas).then_some(pos)
    }
}

/// Entries gossiped per anti-entropy round: a rotation cursor walks the
/// replica's own holdings, so every digest is eventually announced
/// without any single summary growing with store size.
const ANTI_ENTROPY_BATCH: usize = 32;

/// Self-healing state for one data replica, installed by
/// [`StoreServerNode::self_healing`]. Holds the fleet map the repair
/// fan-out needs, the in-flight pull jobs, and the anti-entropy gossip
/// cursors. Absent by default: a node without it sends no repair-plane
/// messages and arms no timers, keeping fault-free runs bit-identical.
struct Healer {
    /// Fleet server process ids in slot order (parallel to the guard's
    /// slot arithmetic, so window slots map to addressable peers).
    servers: Vec<ProcessId>,
    /// Fragments needed to reconstruct a dispersal (1 for whole copies).
    k: usize,
    /// Anti-entropy gossip period.
    period: SimDuration,
    /// The armed anti-entropy timer, re-armed every tick.
    timer: Option<TimerId>,
    /// In-flight repair pulls by `(shard, digest)`. Deduplicates
    /// triggers: a digest re-requested while its pull is outstanding
    /// joins the existing job instead of fanning again.
    pending: BTreeMap<(u32, BulkDigest), RepairJob>,
    /// Entries observed missing (a reader's miss, a peer's summary)
    /// but not yet pulled, with an `armed` flag. The sweep in
    /// `on_anti_entropy_tick` arms fresh suspects and opens pulls only
    /// for armed ones still missing — at least one full period of
    /// grace, longer than every link-delay bound, so a copy that was
    /// merely in flight (a writer committing on a sub-window push
    /// quorum, gossip outrunning the push) lands and clears itself
    /// instead of billing repair rounds to a fault-free run.
    suspects: BTreeMap<(u32, BulkDigest), bool>,
    /// Round-robin cursor over peers for digest summaries.
    peer_cursor: usize,
    /// Rotation cursor over own holdings for bounded summaries.
    holdings_cursor: usize,
}

/// One in-flight repair pull: the verified evidence collected so far.
#[derive(Default)]
struct RepairJob {
    /// Commitment-verified fragments by index (coded plane).
    frags: BTreeMap<u32, SharedBytes>,
    /// Peers whose reply could not help (miss, bad digest, bad proof).
    /// When every window peer is here the reference is fabricated or
    /// gone fleet-wide and the job is dropped — the bound that stops a
    /// forged `BULK_GET` root from leaving a pull open forever.
    noes: BTreeSet<ProcessId>,
}

/// The one Byzantine serve-garbling: start from whatever the replica
/// holds (fabricating `0xAB` filler on a miss, so the adversary never
/// *looks* like a miss) and flip one byte to a guaranteed-different
/// value, copy-on-write — the stored entry stays intact. Draw order
/// (position, then xor mask) is pinned: the fetch, miss, and repair
/// serve paths all share this helper, so their RNG streams stay
/// bit-identical to the pre-refactor copies.
fn garble_served(bytes: Option<&[u8]>, rng: &mut DetRng) -> SharedBytes {
    let mut g: Vec<u8> = bytes.map_or_else(|| vec![0xAB; 16], |b| b.to_vec());
    let i = (rng.next_u64() as usize) % g.len();
    g[i] ^= 1 + (rng.next_u64() % 255) as u8;
    g.into()
}

impl<P: Payload, Inner> StoreServerNode<P, Inner> {
    /// Wraps `inner`. Without [`StoreServerNode::bulk_guard`] the bulk
    /// plane accepts any verified payload (the permissive raw-node
    /// behavior unit tests rely on); deployments built through
    /// [`StoreBuilder`](crate::StoreBuilder) always install the guard.
    pub fn new(inner: Inner) -> Self {
        StoreServerNode {
            inner,
            frags: FragmentStore::new(),
            guard: None,
            healer: None,
            byz_bulk: false,
            batcher: DestBatcher::new(),
            _p: PhantomData,
        }
    }

    /// Installs the deployment-derived bulk admission guard: this
    /// server is fleet slot `slot` of `n`, and the store deploys
    /// `shards` shards with `replicas` data replicas per window (0 under
    /// full replication). Wire-supplied shard tags, fragment totals, and
    /// fragment indices are then checked against the deployment — a
    /// `FRAG_PUT` must carry exactly this replica's window position and
    /// the deployment's fragment count — instead of trusted.
    pub fn bulk_guard(mut self, slot: usize, n: usize, shards: u32, replicas: usize) -> Self {
        self.guard = Some(BulkGuard {
            slot,
            n,
            shards,
            replicas,
        });
        self
    }

    /// Bounds this server's fragment store to the last `retain`
    /// distinct roots per shard (see [`FragmentStore::with_retention`]);
    /// `None` keeps the unbounded default.
    pub fn bulk_retention(mut self, retain: Option<usize>) -> Self {
        if let Some(k) = retain {
            self.frags = FragmentStore::with_retention(k);
        }
        self
    }

    /// Installs the **self-healing plane**: this replica pulls missing
    /// or corrupt entries from its window peers (`REPAIR_REQ`), answers
    /// peers' pulls, re-checks integrity of everything it serves, and
    /// gossips bounded digest summaries every `period` (anti-entropy).
    /// `servers` is the whole fleet in slot order (parallel to the
    /// guard's slot arithmetic); `k` is the plane's reconstruction
    /// threshold (1 for whole copies). Off by default — without
    /// this call the node emits no repair-plane messages, arms no
    /// timers, and draws no extra randomness, so fault-free runs stay
    /// bit-identical to builds that predate self-healing.
    pub fn self_healing(mut self, servers: Vec<ProcessId>, k: usize, period: SimDuration) -> Self {
        self.healer = Some(Healer {
            servers,
            k: k.max(1),
            period,
            timer: None,
            pending: BTreeMap::new(),
            suspects: BTreeMap::new(),
            peer_cursor: 0,
            holdings_cursor: 0,
        });
        self
    }

    /// Wipes this server's fragment store — the data-wipe fault a
    /// self-healing deployment must recover from. Metadata (register)
    /// state is untouched; retention bounds survive the wipe.
    pub fn wipe_data_stores(&mut self) {
        self.frags.wipe();
    }

    /// The *other* servers of `shard`'s replica window, in slot order —
    /// the repair pull targets. Empty when self-healing is off, the
    /// guard is missing, or this server is outside the window.
    fn window_peers(&self, shard: u32) -> Vec<ProcessId> {
        let (Some(g), Some(h)) = (&self.guard, &self.healer) else {
            return Vec::new();
        };
        if g.n == 0 || g.window_position(shard).is_none() {
            return Vec::new();
        }
        let base = shard as usize % g.n;
        (0..g.replicas.min(g.n))
            .map(|off| (base + off) % g.n)
            .filter(|&slot| slot != g.slot)
            .filter_map(|slot| h.servers.get(slot).copied())
            .collect()
    }

    /// Marks `(shard, digest)` as a repair suspect. The pull opens at
    /// the second anti-entropy tick from now, and only if the entry is
    /// still missing then — a miss is not yet evidence of loss, because
    /// the observer may simply be ahead of this replica's copy: writers
    /// commit on a sub-window push quorum (a reader's `BULK_GET` can
    /// beat the last push), and gossip can outrun a push entirely.
    /// Corruption detected on serve skips this and repairs immediately
    /// ([`Self::start_repair`]): a failed commitment re-check is proof of
    /// damage, not a race.
    fn suspect_missing(&mut self, shard: u32, digest: BulkDigest) {
        if self.window_peers(shard).is_empty() {
            return;
        }
        let Some(h) = &mut self.healer else { return };
        if h.pending.contains_key(&(shard, digest)) {
            return;
        }
        h.suspects.entry((shard, digest)).or_insert(false);
    }

    /// Opens a repair pull for `(shard, digest)`: notes the slow-path
    /// round, traces it, and fans a `REPAIR_REQ` to every window peer.
    /// A digest already being pulled joins the existing job instead.
    fn start_repair<O>(
        &mut self,
        shard: u32,
        digest: BulkDigest,
        ctx: &mut Context<'_, StoreMsg<P>, O>,
    ) {
        let peers = self.window_peers(shard);
        if peers.is_empty() {
            return;
        }
        let Some(h) = &mut self.healer else { return };
        if h.pending.contains_key(&(shard, digest)) {
            return;
        }
        h.pending.insert((shard, digest), RepairJob::default());
        ctx.note_repair_round();
        ctx.trace(TraceEvent::Phase {
            shard,
            phase: "RepairStart",
        });
        for p in peers {
            ctx.send(p, StoreMsg::RepairRequest { shard, digest });
        }
    }

    /// Folds one peer's `REPAIR_REPLY` into the matching pull job,
    /// finishing the repair once the evidence suffices. Everything is
    /// re-verified against `digest` before storing — a Byzantine peer
    /// can garble any field of the reply.
    fn on_repair_reply<O>(
        &mut self,
        from: ProcessId,
        shard: u32,
        digest: BulkDigest,
        frag: Option<(u32, SharedBytes, Vec<BulkDigest>)>,
        ctx: &mut Context<'_, StoreMsg<P>, O>,
    ) {
        let quorum = self.window_peers(shard).len();
        let Some(g) = self.guard else { return };
        let Some(h) = &mut self.healer else { return };
        let Some(job) = h.pending.get_mut(&(shard, digest)) else {
            return;
        };
        // Collect commitment-verified fragments until any `k` distinct
        // indices are present.
        let m = g.replicas;
        match frag {
            Some((index, b, proof))
                if (index as usize) < m
                    && verify_fragment(digest, m, index as usize, &b, &proof) =>
            {
                job.frags.insert(index, b);
            }
            _ => {
                job.noes.insert(from);
                if job.noes.len() >= quorum {
                    h.pending.remove(&(shard, digest));
                }
                return;
            }
        }
        let k = h.k;
        if job.frags.len() < k {
            return;
        }
        let pairs: Vec<(u32, SharedBytes)> =
            job.frags.iter().map(|(i, b)| (*i, b.clone())).collect();
        h.pending.remove(&(shard, digest));
        // `k` verified fragments determine the codeword. The replica
        // does not know the payload's true length (that is metadata),
        // so it reconstructs the zero-padded `k·⌈len/k⌉` payload —
        // `fragment_len` of the padded length is the fragment length
        // again, so re-encoding reproduces the exact committed fragment
        // set. The re-derived root must equal `digest`: a mismatch
        // means the writer committed a non-codeword dispersal (or a
        // peer slipped an aliased fragment set past the index bound) —
        // refuse the repair rather than store an unservable fragment.
        let flen = pairs[0].1.len() as u64;
        let Some(padded) = reconstruct(k, flen * k as u64, &pairs) else {
            return;
        };
        let frags = encode_fragments(&padded, k, m);
        let tree = MerkleTree::build(&fragment_leaves(&frags));
        if tree.root() != digest {
            return;
        }
        // Re-derive *this replica's own* window-position fragment — the
        // AVID rule the put-path guard enforces holds for repaired
        // fragments too.
        let Some(pos) = g.window_position(shard) else {
            return;
        };
        let stored = StoredFragment {
            index: pos as u32,
            total: m as u32,
            bytes: frags[pos].clone(),
            proof: tree.proof(pos),
        };
        self.frags.put(shard, digest, stored);
        ctx.trace(TraceEvent::Phase {
            shard,
            phase: "RepairDone",
        });
    }

    /// One anti-entropy round: sweep the suspect set (arm fresh
    /// suspects, open pulls for armed ones still missing), gossip a
    /// bounded, rotating slice of this server's holdings to the next
    /// peer round-robin, re-fan any still-pending repair pulls
    /// (forgetting previous misses, so a peer that was itself mid-wipe
    /// gets asked again), and re-arm the period timer.
    fn on_anti_entropy_tick<O>(&mut self, ctx: &mut Context<'_, StoreMsg<P>, O>) {
        let g = self.guard;
        let frags = &self.frags;
        let Some(h) = &mut self.healer else { return };
        h.timer = Some(ctx.set_timer(h.period));
        // Two-phase suspect sweep. A suspect that resolved itself (the
        // in-flight copy landed) is dropped; a fresh one is armed and
        // gets one full period of grace — longer than any link-delay
        // bound; an armed one still missing is genuinely lost and
        // ripens into a pull below.
        let mut ripe: Vec<(u32, BulkDigest)> = Vec::new();
        h.suspects.retain(|&(shard, digest), armed| {
            if frags.get_for(shard, &digest).is_some() {
                return false;
            }
            if *armed {
                ripe.push((shard, digest));
                false
            } else {
                *armed = true;
                true
            }
        });
        let held = frags.holdings_len();
        let entries: Vec<(u32, BulkDigest)> = if held == 0 {
            Vec::new()
        } else {
            let start = h.holdings_cursor % held;
            let take = ANTI_ENTROPY_BATCH.min(held);
            h.holdings_cursor = (start + take) % held;
            (0..take)
                .map(|i| frags.holding((start + i) % held))
                .collect()
        };
        let peer = match g {
            Some(g) if h.servers.len() > 1 => {
                let others: Vec<ProcessId> = (0..h.servers.len())
                    .filter(|&slot| slot != g.slot)
                    .map(|slot| h.servers[slot])
                    .collect();
                let p = others[h.peer_cursor % others.len()];
                h.peer_cursor = h.peer_cursor.wrapping_add(1);
                Some(p)
            }
            _ => None,
        };
        let refan: Vec<(u32, BulkDigest)> = h
            .pending
            .iter_mut()
            .map(|(key, job)| {
                job.noes.clear();
                *key
            })
            .collect();
        if let Some(p) = peer {
            if !entries.is_empty() {
                ctx.send(p, StoreMsg::DigestSummary { entries });
            }
        }
        for (shard, digest) in refan {
            ctx.note_repair_round();
            for p in self.window_peers(shard) {
                ctx.send(p, StoreMsg::RepairRequest { shard, digest });
            }
        }
        for (shard, digest) in ripe {
            self.start_repair(shard, digest, ctx);
        }
    }

    /// Makes this server's **data plane** Byzantine too: it stores
    /// fragments like a correct replica (so its storage footprint —
    /// and its put acknowledgements — are indistinguishable) but garbles
    /// every byte string it serves — exactly the attack the client-side
    /// commitment check must catch. Note the adversary stays
    /// *responsive*: it acks puts honestly, which is what keeps coded
    /// pushes (`k + t` acks on a `2t + 1` window) live in simulation;
    /// see [`DataPlane::Coded`] for the fail-silent caveat.
    pub fn byzantine_bulk(mut self) -> Self {
        self.byz_bulk = true;
        self
    }

    /// The wrapped node (for assertions in tests).
    pub fn inner(&self) -> &Inner {
        &self.inner
    }

    /// This server's fragment store (for placement and
    /// storage-footprint assertions).
    pub fn frag_store(&self) -> &FragmentStore {
        &self.frags
    }

    /// The Byzantine stand-in for a miss: a fabricated fragment at this
    /// server's own window position for `shard` (0 when unguarded or
    /// outside the window), so the adversary never *looks* like a miss.
    fn fabricated_fragment(
        &self,
        shard: u32,
        rng: &mut DetRng,
    ) -> Option<(u32, SharedBytes, Vec<BulkDigest>)> {
        let pos = self
            .guard
            .and_then(|g| g.window_position(shard))
            .unwrap_or(0);
        Some((pos as u32, garble_served(None, rng), Vec::new()))
    }
}

impl<P: Payload, Inner: std::fmt::Debug> std::fmt::Debug for StoreServerNode<P, Inner> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServerNode")
            .field("inner", &self.inner)
            .field("fragments", &self.frags.fragment_count())
            .field("byz_bulk", &self.byz_bulk)
            .finish()
    }
}

impl<P, Inner> Node for StoreServerNode<P, Inner>
where
    P: Payload,
    Inner: Node<Msg = RegMsg<P>>,
{
    type Msg = StoreMsg<P>;
    type Out = Inner::Out;

    fn on_start(&mut self, ctx: &mut Context<'_, StoreMsg<P>, Inner::Out>) {
        if let Some(h) = &mut self.healer {
            h.timer = Some(ctx.set_timer(h.period));
        }
        let mut eff: Effects<RegMsg<P>, Inner::Out> = Effects::new();
        let inner = &mut self.inner;
        ctx.with_effects(&mut eff, |sub| inner.on_start(sub));
        for o in self.batcher.forward_batched(eff, ctx) {
            ctx.output(o);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: StoreMsg<P>,
        ctx: &mut Context<'_, StoreMsg<P>, Inner::Out>,
    ) {
        match msg {
            StoreMsg::Batch(batch) => {
                let mut eff: Effects<RegMsg<P>, Inner::Out> = Effects::new();
                let inner = &mut self.inner;
                ctx.with_effects(&mut eff, |sub| {
                    for m in batch {
                        inner.on_message(from, m, sub);
                    }
                });
                for o in self.batcher.forward_batched(eff, ctx) {
                    ctx.output(o);
                }
            }
            StoreMsg::FragPut {
                shard,
                root,
                index,
                total,
                bytes,
                proof,
            } => {
                // Admission: the shard tag, `total` and `index` are wire
                // data. Only store under shards this server actually
                // serves (a guarded full-replication server serves none),
                // so a forger cannot grow per-shard retention state
                // without bound; pin the dispersal shape to the
                // deployment's and the index to *this replica's* window
                // position (the AVID rule), so an acknowledgement always
                // certifies the one fragment the push quorum counts on
                // this replica holding.
                if let Some(g) = &self.guard {
                    if total as usize != g.replicas
                        || g.window_position(shard) != Some(index as usize)
                    {
                        ctx.note_guard_refusal();
                        ctx.trace(TraceEvent::GuardRefusal {
                            shard,
                            what: "frag-put-shape",
                        });
                        return;
                    }
                }
                // Verify-before-store: the Merkle path is replayed
                // against the announced root, so a fragment that does not
                // belong to the committed set (link garbage, a lying
                // writer) is refused silently and never acknowledged.
                // Storing shares the wire message's allocation.
                let frag = StoredFragment {
                    index,
                    total,
                    bytes,
                    proof,
                };
                if self.frags.put(shard, root, frag).held() {
                    ctx.send(from, StoreMsg::FragPutAck { shard, root, index });
                }
            }
            StoreMsg::BulkGet { shard, digest, tag } => {
                // Serve the fragment stored for this shard's window
                // position (overlapping windows can hold several indices
                // of an aliased root; any verified one helps a reader).
                // With the healer installed, the Merkle path is replayed
                // on the way out — a fragment that stopped verifying is
                // dropped and repaired instead of served.
                let served = self.frags.get_for(shard, &digest).map(|f| {
                    let intact = self.healer.is_none()
                        || self.byz_bulk
                        || verify_fragment(
                            digest,
                            f.total as usize,
                            f.index as usize,
                            &f.bytes,
                            &f.proof,
                        );
                    (intact, f.index, f.bytes.clone(), f.proof.clone())
                });
                if let Some((intact, index, bytes, proof)) = served {
                    if intact {
                        // Garbling is copy-on-write: the stored fragment
                        // stays intact, the client-side commitment check
                        // must catch the served copy. Stored fragments
                        // are never empty — a shard map encodes to at
                        // least its length prefix.
                        let bytes = if self.byz_bulk {
                            garble_served(Some(&bytes), ctx.rng())
                        } else {
                            bytes
                        };
                        ctx.send(
                            from,
                            StoreMsg::FragGetAck {
                                shard,
                                root: digest,
                                tag,
                                frag: Some((index, bytes, proof)),
                            },
                        );
                        return;
                    }
                    self.frags.remove(&digest);
                    self.start_repair(shard, digest, ctx);
                }
                // Held nowhere: a healing replica that should serve
                // this shard suspects the entry and pulls it from its
                // window peers if it is still missing after the grace
                // sweep — the reactive trigger that mends a wiped store
                // once a reader notices. (Corrupt-on-serve entries were
                // already repaired unconditionally above.)
                if !self.byz_bulk {
                    self.suspect_missing(shard, digest);
                }
                // An honest replica answers the miss; a Byzantine one
                // fabricates a fragment instead — which the client-side
                // commitment check must catch.
                let frag = if self.byz_bulk {
                    self.fabricated_fragment(shard, ctx.rng())
                } else {
                    None
                };
                ctx.send(
                    from,
                    StoreMsg::FragGetAck {
                        shard,
                        root: digest,
                        tag,
                        frag,
                    },
                );
            }
            StoreMsg::RepairRequest { shard, digest } => {
                // Peer pull of the self-healing plane. Only a healing
                // deployment answers (fault-free builds never see the
                // message), and only for shards this server's window
                // actually covers.
                if self.healer.is_none() {
                    return;
                }
                if let Some(g) = &self.guard {
                    if g.window_position(shard).is_none() {
                        ctx.note_guard_refusal();
                        ctx.trace(TraceEvent::GuardRefusal {
                            shard,
                            what: "repair-unserved",
                        });
                        return;
                    }
                }
                if let Some(f) = self.frags.get_for(shard, &digest) {
                    let (index, proof) = (f.index, f.proof.clone());
                    let bytes = if self.byz_bulk {
                        garble_served(Some(&f.bytes), ctx.rng())
                    } else {
                        f.bytes.clone()
                    };
                    ctx.send(
                        from,
                        StoreMsg::RepairReply {
                            shard,
                            digest,
                            frag: Some((index, bytes, proof)),
                        },
                    );
                    return;
                }
                let frag = if self.byz_bulk {
                    self.fabricated_fragment(shard, ctx.rng())
                } else {
                    None
                };
                ctx.send(
                    from,
                    StoreMsg::RepairReply {
                        shard,
                        digest,
                        frag,
                    },
                );
            }
            StoreMsg::RepairReply {
                shard,
                digest,
                frag,
            } => self.on_repair_reply(from, shard, digest, frag, ctx),
            StoreMsg::DigestSummary { entries } => {
                // Anti-entropy pull, deferred: whatever a peer retains
                // for a window this server covers but cannot serve
                // itself becomes a repair suspect — the sweep on the
                // next ticks pulls it only if it stays missing, so
                // gossip that merely outran a still-in-flight push
                // never opens a pull.
                if self.healer.is_none() {
                    return;
                }
                let Some(g) = self.guard else { return };
                for (shard, digest) in entries {
                    if g.window_position(shard).is_some()
                        && self.frags.get_for(shard, &digest).is_none()
                    {
                        self.suspect_missing(shard, digest);
                    }
                }
            }
            // Client-bound replies arriving at a server are garbage.
            StoreMsg::FragPutAck { .. } | StoreMsg::FragGetAck { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, StoreMsg<P>, Inner::Out>) {
        // The anti-entropy timer belongs to the wrapper, not the inner
        // register machine — intercept it before forwarding.
        if self.healer.as_ref().is_some_and(|h| h.timer == Some(timer)) {
            self.on_anti_entropy_tick(ctx);
            return;
        }
        let mut eff: Effects<RegMsg<P>, Inner::Out> = Effects::new();
        let inner = &mut self.inner;
        ctx.with_effects(&mut eff, |sub| inner.on_timer(timer, sub));
        for o in self.batcher.forward_batched(eff, ctx) {
            ctx.output(o);
        }
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.inner.on_corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One store operation, as queued at a client.
#[derive(Clone, Debug)]
enum StoreOp<V> {
    Put { key: String, val: V },
    Get { key: String },
}

/// Writer-side state for one owned shard: the bounded sequence stamper and
/// the authoritative local copy of the shard map.
#[derive(Debug)]
struct OwnedShard<V> {
    stamper: WsnStamp,
    map: ShardMap<V>,
}

/// Why a metadata read (and possibly a bulk fetch) is running.
#[derive(Debug)]
enum ReadGoal {
    /// One or more client `get`s on the same shard: project each key out
    /// of the one resolved map (multiple entries only when the batch
    /// window coalesced a run of queued gets).
    Get { ops: Vec<(OpId, String)> },
    /// Writer-map recovery after transient corruption: adopt the resolved
    /// map as the authoritative copy, then republish it.
    Recover,
    /// Shard-handoff adoption (new owner): adopt the resolved map *and*
    /// become the shard's writer — resync the stamper onto the resolved
    /// stamp, republish, then flush the puts staged during the handoff.
    Acquire,
    /// The routing-register read preceding an epoch-flip write: only the
    /// agreed stamp matters (the value is superseded by the write).
    CommitEpoch { epoch: u64, owners: Vec<u32> },
}

/// What the in-flight metadata write completes (consumed by the pump when
/// the write engine reports done). Exactly one write is in flight per
/// client, so a single field — set when the write starts — suffices.
#[derive(Debug)]
enum WriteIntent {
    /// Completing the client puts listed in `Phase::Writing`'s `ops`.
    Ops,
    /// Recovery republish after transient corruption.
    Recovery,
    /// The new owner's adopting republish of a migrating shard.
    Acquire { shard: u32 },
    /// The routing-register write committing an epoch flip.
    EpochCommit { epoch: u64 },
}

/// A queued reshard control job, run by the pump ahead of client
/// operations (so a busy closed-loop client cannot starve a handoff, and
/// a handoff never deadlocks behind puts staged on the very shard being
/// acquired).
#[derive(Debug)]
enum ControlJob {
    /// Commit `RoutingEpoch { epoch, owners }` through the routing
    /// register.
    CommitEpoch { epoch: u64, owners: Vec<u32> },
    /// Adopt a granted shard: quorum-read, resync, republish.
    AcquireShard { shard: u32 },
}

/// A store client: sequential `put`/`get` operations against any number of
/// shards, multiplexed over one [`ClientLink`] to the shared fleet.
///
/// Each shard this client **owns** (per the [`KeyRouter`] writer
/// assignment) gets a [`WsnStamp`] and the authoritative local map; each
/// shard it can read gets its own [`AtomicPolicy`] (`pwsn`/`pv`
/// inversion-prevention state is per register). Operations run one at a
/// time per client — exactly the paper's sequential-client model; store
/// concurrency comes from deploying many clients.
pub struct StoreClientNode<V: Payload + BulkCodec> {
    cfg: RegisterConfig,
    router: KeyRouter,
    plane: DataPlane,
    link: ClientLink,
    servers: Vec<ProcessId>,
    /// All store clients (the reader set every shard write must help).
    clients: Vec<ProcessId>,
    policies: Vec<AtomicPolicy<StoreVal<V>>>,
    owned: BTreeMap<u32, OwnedShard<V>>,
    read_engine: ReadEngine<StorePayload<V>>,
    write_engine: WriteEngine<StorePayload<V>>,
    phase: Phase<V>,
    pending: VecDeque<(OpId, StoreOp<V>)>,
    /// Owned shards whose authoritative map must be re-read and
    /// republished before the next put (queued by `on_corrupt`).
    need_recover: VecDeque<u32>,
    recoveries: u64,
    next_bulk_tag: u64,
    /// Owned shards in the retiring half of a dual-commit handoff:
    /// already-queued puts still publish; once drained the shard is
    /// dropped and `ShardRetired` emitted.
    retiring: BTreeSet<u32>,
    /// Shards granted to this client mid-handoff, with the puts staged
    /// until the acquisition republish completes. Presence of the key is
    /// the "acquiring" state itself.
    staged: BTreeMap<u32, VecDeque<(OpId, StoreOp<V>)>>,
    /// Queued reshard control jobs (epoch commits, shard acquisitions),
    /// run by the pump ahead of client operations.
    control: VecDeque<ControlJob>,
    /// What the in-flight metadata write completes.
    write_intent: WriteIntent,
    /// The Nagle window: how long an op arriving at a fully idle client
    /// is held so later arrivals can share its round. Zero = launch
    /// immediately (the pre-window behavior).
    window: SimDuration,
    /// Adaptive Nagle mode: an op that finds the client fully idle with
    /// nothing held (the queue just drained) launches immediately instead
    /// of paying the window's hold — batches still form behind in-flight
    /// rounds. Off by default (the fixed-window behavior).
    adaptive: bool,
    /// The armed flush deadline, if operations are currently held.
    flush_timer: Option<TimerId>,
    /// Reusable per-destination staging for outgoing register messages.
    batcher: DestBatcher<StorePayload<V>>,
    /// **Soundness-mutation hook, tests only.** When set, resolved reads
    /// are served from the *previous* resolved snapshot of the shard
    /// (one snapshot behind), deliberately breaking the reader recency
    /// rule. Exists so the monitor-soundness test can prove the online
    /// checker actually fires — never set it in real deployments.
    #[doc(hidden)]
    pub weaken_recency: bool,
    /// The one-behind snapshot cache `weaken_recency` serves from.
    stale_snapshots: BTreeMap<u32, Arc<ShardMap<V>>>,
}

/// The client's operation phase.
#[derive(Debug)]
enum Phase<V: Payload> {
    Idle,
    /// The metadata register read on `shard`: sanity probe (N2–N7), then
    /// the read loop.
    Reading {
        goal: ReadGoal,
        shard: u32,
    },
    /// Resolving a [`BulkRef`] against the shard's data replicas.
    Fetching {
        goal: ReadGoal,
        shard: u32,
        /// The metadata stamp the reference arrived under (recovery
        /// resyncs the owner's stamper from it).
        wsn: RingSeq,
        bref: BulkRef,
        /// Current round tag (stale replies are dropped by tag).
        tag: u64,
        /// Window replicas that answered this round with garbage or a
        /// miss. A *set of senders* — never a reply count — so a
        /// Byzantine replica spamming bad replies contributes exactly
        /// one entry and cannot fabricate a dead round by itself;
        /// replies from outside the shard's window are ignored
        /// entirely.
        bad: BTreeSet<ProcessId>,
        /// Set when this reference can never resolve (k verified
        /// fragments reconstructing to garbage, or the round budget
        /// exhausted): the pump falls back to a metadata re-read.
        dead: bool,
        /// Retransmission rounds run for this reference.
        rounds: u32,
        /// The round's retransmission timer.
        timer: TimerId,
        /// Commitment-verified fragments by index. Carried *across*
        /// retransmission rounds: a verified fragment stays verified
        /// whatever round it arrived in.
        frags: BTreeMap<u32, SharedBytes>,
        /// Set by a `k`-fragment reconstruction; consumed by the pump.
        resolved: Option<ShardMap<V>>,
    },
    /// Bulk plane: one fragment pushed to each data replica; waiting for
    /// the `k + t` verified-store acknowledgements before the metadata
    /// write.
    PushingBulk {
        ops: Vec<OpId>,
        shard: u32,
        digest: BulkDigest,
        /// The per-replica push messages (replica `i` gets fragment
        /// `i`), index-aligned with the shard's replica window, kept for
        /// ack-wait retransmissions — payload bytes inside are shared, so
        /// a re-push clones reference counts.
        pushes: Vec<StoreWire<V>>,
        payload: StorePayload<V>,
        acks: BTreeSet<ProcessId>,
        /// The ack-wait's round timer: the derived timeout in synchronous
        /// mode, the retransmission period in asynchronous mode. On
        /// expiry the push is re-broadcast to the replicas still missing.
        timer: TimerId,
    },
    /// The metadata write (of the map or of its reference), completing
    /// `ops` (multiple when the batch window folded a run of queued puts
    /// into this publish). Empty `ops` is a recovery republish.
    Writing {
        ops: Vec<OpId>,
    },
}

impl<V: Payload + BulkCodec> std::fmt::Debug for StoreClientNode<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClientNode")
            .field("owned", &self.owned.keys().collect::<Vec<_>>())
            .field("plane", &self.plane)
            .field("phase", &self.phase)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<V: Payload + BulkCodec> StoreClientNode<V> {
    /// Creates a client over `servers`, owning `owned_shards` (empty for a
    /// read-only client). `clients` is the full client set of the store —
    /// the helping mechanism of every owned shard serves all of them.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: RegisterConfig,
        router: KeyRouter,
        servers: Vec<ProcessId>,
        clients: Vec<ProcessId>,
        owned_shards: &[u32],
        wsn_modulus: u128,
        plane: DataPlane,
    ) -> Self {
        if let Some((k, replicas)) = plane.coding() {
            assert!(
                (1..=servers.len()).contains(&replicas),
                "bulk replication factor {replicas} out of range for {} servers",
                servers.len()
            );
            assert!(
                k >= 1 && k + cfg.t <= replicas,
                "coded reconstruction threshold k={k} out of range: k + t must fit within \
                 m={replicas} fragments"
            );
        }
        let owned = owned_shards
            .iter()
            .map(|&s| {
                assert!(s < router.shards(), "shard {s} out of range");
                (
                    s,
                    OwnedShard {
                        stamper: WsnStamp::new(RingSeq::zero(wsn_modulus)),
                        map: ShardMap::new(),
                    },
                )
            })
            .collect();
        StoreClientNode {
            cfg,
            router,
            plane,
            link: ClientLink::new(servers.clone(), cfg.t),
            servers,
            clients,
            // One policy per shard **plus one** for the dedicated routing
            // register at `RegId(shards)` (the epoch-flip commit path).
            policies: (0..=router.shards()).map(|_| AtomicPolicy::new()).collect(),
            owned,
            read_engine: ReadEngine::new(RegId(0), cfg),
            write_engine: WriteEngine::new(RegId(0), cfg, Vec::new()),
            phase: Phase::Idle,
            pending: VecDeque::new(),
            need_recover: VecDeque::new(),
            recoveries: 0,
            next_bulk_tag: 0,
            retiring: BTreeSet::new(),
            staged: BTreeMap::new(),
            control: VecDeque::new(),
            write_intent: WriteIntent::Ops,
            window: SimDuration::ZERO,
            adaptive: false,
            flush_timer: None,
            batcher: DestBatcher::new(),
            weaken_recency: false,
            stale_snapshots: BTreeMap::new(),
        }
    }

    /// Sets the Nagle batch window (see the module docs): operations
    /// arriving at a fully idle client are held up to `window` so later
    /// arrivals can fold into the same register round. Zero (the
    /// default) launches every operation immediately.
    pub fn batch_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Switches the Nagle window to **adaptive** mode: an operation that
    /// finds the client fully idle with nothing held — i.e. the queue has
    /// just drained — closes the window early and launches immediately,
    /// killing the idle-latency cost of the hold. Operations arriving
    /// while a round is in flight still coalesce exactly as before, so
    /// batching under backlog is preserved and per-key write order is
    /// unchanged (launching *earlier* only shrinks the latitude the
    /// register contract already grants). Off by default: without this
    /// call the fixed-window hold semantics are bit-identical to before.
    pub fn adaptive_batch(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Invokes `put(key, val)`; completion arrives as
    /// [`StoreOut::PutDone`].
    ///
    /// Mid-handoff, a put on a shard this client has been granted (but
    /// not yet acquired) is **staged** and launches after the acquisition
    /// republish, preserving issue order.
    ///
    /// # Panics
    ///
    /// Panics if this client neither owns nor is acquiring the key's
    /// shard (the router must direct every put to the shard's writer).
    pub fn invoke_put(&mut self, op: OpId, key: String, val: V, ctx: &mut StoreCtx<'_, V>) {
        let shard = self.router.shard_of(&key);
        if !self.owned.contains_key(&shard) {
            if let Some(q) = self.staged.get_mut(&shard) {
                ctx.trace(TraceEvent::OpStart {
                    op: op.0,
                    kind: "put",
                });
                q.push_back((op, StoreOp::Put { key, val }));
                return;
            }
            panic!("put({key}) routed to a client that does not own shard {shard}");
        }
        ctx.trace(TraceEvent::OpStart {
            op: op.0,
            kind: "put",
        });
        self.pending.push_back((op, StoreOp::Put { key, val }));
        self.hold_or_step(ctx);
    }

    /// Old-owner half of a dual-commit handoff: marks `shard` retiring.
    /// Already-queued puts on it still publish; once the last has drained
    /// the shard is dropped, [`StoreOut::ShardRetired`] is emitted, and
    /// any further put routed here panics.
    ///
    /// # Panics
    ///
    /// Panics if this client does not own `shard`.
    pub fn retire_shard(&mut self, shard: u32, ctx: &mut StoreCtx<'_, V>) {
        assert!(
            self.owned.contains_key(&shard),
            "retire of shard {shard} this client does not own"
        );
        self.retiring.insert(shard);
        self.step(ctx);
    }

    /// New-owner half of a dual-commit handoff, phase 1: start staging
    /// puts routed here for `shard` until [`Self::acquire_shard`]
    /// completes the adoption.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range or already owned here.
    pub fn grant_shard(&mut self, shard: u32) {
        assert!(shard < self.router.shards(), "shard {shard} out of range");
        assert!(
            !self.owned.contains_key(&shard),
            "grant of shard {shard} to a client that already owns it"
        );
        self.staged.entry(shard).or_default();
    }

    /// New-owner half of a dual-commit handoff, phase 2 (issued once the
    /// old owner retired **and** the epoch flip committed): quorum-read
    /// `shard`, adopt the last committed map, resync the stamper onto its
    /// stamp, republish, emit [`StoreOut::ShardAcquired`], and flush the
    /// staged puts. Queued as a control job — it runs ahead of client
    /// operations at the next idle pump.
    ///
    /// # Panics
    ///
    /// Panics if the shard was never granted here.
    pub fn acquire_shard(&mut self, shard: u32, ctx: &mut StoreCtx<'_, V>) {
        assert!(
            self.staged.contains_key(&shard),
            "acquire of shard {shard} that was never granted"
        );
        self.control.push_back(ControlJob::AcquireShard { shard });
        self.step(ctx);
    }

    /// Coordinator role of a reshard: commit `RoutingEpoch { epoch,
    /// owners }` through the dedicated routing register (`RegId(shards)`)
    /// — a quorum read to resync a fresh stamper (the rotating-writer
    /// read-before-write rule), then the flip write. Completion emits
    /// [`StoreOut::EpochCommitted`]. Queued as a control job.
    pub fn commit_epoch(&mut self, epoch: u64, owners: Vec<u32>, ctx: &mut StoreCtx<'_, V>) {
        self.control
            .push_back(ControlJob::CommitEpoch { epoch, owners });
        self.step(ctx);
    }

    /// True while `shard` is granted but not yet acquired (puts stage).
    pub fn is_acquiring(&self, shard: u32) -> bool {
        self.staged.contains_key(&shard)
    }

    /// Invokes `get(key)`; completion arrives as [`StoreOut::GetDone`].
    pub fn invoke_get(&mut self, op: OpId, key: String, ctx: &mut StoreCtx<'_, V>) {
        ctx.trace(TraceEvent::OpStart {
            op: op.0,
            kind: "get",
        });
        self.pending.push_back((op, StoreOp::Get { key }));
        self.hold_or_step(ctx);
    }

    /// The Nagle gate for a just-queued operation: with a window set and
    /// the client fully idle, hold it behind the flush timer (arming one
    /// if this is the first held op) instead of launching; in every other
    /// situation — window off, client busy, or a recovery owed — behave
    /// exactly as before and pump immediately.
    fn hold_or_step(&mut self, ctx: &mut StoreCtx<'_, V>) {
        if self.window > SimDuration::ZERO
            && matches!(self.phase, Phase::Idle)
            && self.need_recover.is_empty()
        {
            // Adaptive mode: the queue just drained — this op found the
            // client fully idle with nothing held — so close the window
            // early and launch now. Later arrivals coalesce behind the
            // in-flight round as usual.
            if self.adaptive && self.flush_timer.is_none() && self.pending.len() <= 1 {
                self.step(ctx);
                return;
            }
            if self.flush_timer.is_none() {
                self.flush_timer = Some(ctx.set_timer(self.window));
            }
            return;
        }
        self.step(ctx);
    }

    /// Operations queued or in flight at this client (including puts
    /// staged behind an in-progress shard acquisition).
    pub fn backlog(&self) -> usize {
        self.pending.len()
            + self.staged.values().map(VecDeque::len).sum::<usize>()
            + usize::from(!matches!(self.phase, Phase::Idle))
    }

    /// The shards this client writes.
    pub fn owned_shards(&self) -> Vec<u32> {
        self.owned.keys().copied().collect()
    }

    /// The data plane this client writes/reads through.
    pub fn plane(&self) -> DataPlane {
        self.plane
    }

    /// Writer-map recoveries completed (re-read + republish after
    /// transient corruption).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Diagnostic snapshot of an in-flight bulk/coded fetch:
    /// `(shard, digest or root, current round tag, distinct window
    /// replicas that answered badly this round)`, or `None` when no
    /// fetch is running. Intended for tests pinning round-tag semantics
    /// (a stale-tagged reply must leave the tag and the bad tally
    /// untouched) and for debugging wedged fetches.
    pub fn fetch_probe(&self) -> Option<(u32, BulkDigest, u64, usize)> {
        match &self.phase {
            Phase::Fetching {
                shard,
                bref,
                tag,
                bad,
                ..
            } => Some((*shard, bref.digest, *tag, bad.len())),
            _ => None,
        }
    }

    /// The data replicas holding `shard`'s payload bytes (empty under
    /// full replication).
    fn data_replicas(&self, shard: u32) -> Vec<ProcessId> {
        Self::replicas_for(self.plane, &self.servers, shard)
    }

    /// [`StoreClientNode::data_replicas`] over explicit fields, callable
    /// while `self.phase` is mutably borrowed.
    fn replicas_for(plane: DataPlane, servers: &[ProcessId], shard: u32) -> Vec<ProcessId> {
        let Some((_, replicas)) = plane.coding() else {
            return Vec::new();
        };
        data_replica_slots(shard, servers.len(), replicas)
            .into_iter()
            .map(|i| servers[i])
            .collect()
    }

    /// One bulk-plane round's timer span: the timeout derived from the
    /// link bound in synchronous mode (the same "wait … or time-out"
    /// discipline the register rounds follow, Fig. 5), the retransmission
    /// period in asynchronous mode.
    fn round_timer(&self) -> sbs_sim::SimDuration {
        self.cfg.timeout().unwrap_or(self.cfg.retry_after)
    }

    /// Number of data replicas per shard (0 under full replication) —
    /// allocation-free, for the per-message pump paths.
    fn replica_count(&self) -> usize {
        self.plane.coding().map_or(0, |(_, m)| m)
    }

    /// Verified-store acknowledgements a push must collect before the
    /// metadata write: `k + t` (`t + 1` for whole copies), which the
    /// constructor checked fits the window.
    fn push_needed(&self) -> usize {
        self.plane
            .coding()
            .map_or(0, |(k, _)| coded_push_quorum(self.cfg.t, k))
    }

    /// The reconstruction threshold: `k` verified fragments (1 under
    /// full replication, where nothing is fetched). Also the right constant
    /// for the dead-round test: a replica whose fragment is already
    /// held can only re-serve it (redundant), so with `f` fragments in
    /// hand the helpful outstanding replies number at most
    /// `m − bad − f`, and the round is dead exactly when
    /// `m − bad − f < k − f` ⇔ `bad > m − k` — independent of `f`.
    fn resolve_threshold(&self) -> usize {
        self.plane.coding().map_or(1, |(k, _)| k)
    }

    /// True iff `pid` serves `shard`'s bulk window — membership by window
    /// arithmetic, allocation-free (runs on every bulk acknowledgement).
    fn is_data_replica(
        plane: DataPlane,
        servers: &[ProcessId],
        shard: u32,
        pid: ProcessId,
    ) -> bool {
        let Some((_, replicas)) = plane.coding() else {
            return false;
        };
        let n = servers.len();
        let Some(idx) = servers.iter().position(|&s| s == pid) else {
            return false;
        };
        let start = shard as usize % n;
        (idx + n - start) % n < replicas
    }

    /// The server at `shard`'s window position `index` (= the replica a
    /// coded push assigns fragment `index`), if the index is within the
    /// window — the ack-attribution counterpart of
    /// [`Self::is_data_replica`], same arithmetic as
    /// [`data_replica_slots`], allocation-free (runs on every coded
    /// acknowledgement).
    fn window_replica_at(
        plane: DataPlane,
        servers: &[ProcessId],
        shard: u32,
        index: u32,
    ) -> Option<ProcessId> {
        let (_, replicas) = plane.coding()?;
        let n = servers.len();
        ((index as usize) < replicas).then(|| servers[(shard as usize % n + index as usize) % n])
    }

    /// Runs the engine pump inside a sub-context, then re-emits batched
    /// sends, forwarded timers, bulk-plane sends, and operation
    /// completions.
    fn step(&mut self, ctx: &mut StoreCtx<'_, V>) {
        let mut eff: Effects<RegMsg<StorePayload<V>>, ()> = Effects::new();
        let mut outs: Vec<StoreOut<V>> = Vec::new();
        let mut bulk_sends: Vec<(ProcessId, StoreWire<V>)> = Vec::new();
        {
            let this = &mut *self;
            ctx.with_effects(&mut eff, |sub| this.pump(sub, &mut outs, &mut bulk_sends));
        }
        let _ = self.batcher.forward_batched(eff, ctx);
        for (to, m) in bulk_sends {
            ctx.send(to, m);
        }
        for o in outs {
            ctx.output(o);
        }
    }

    /// Starts the metadata read of `shard` for `goal`.
    fn start_read(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
    ) {
        if matches!(
            goal,
            ReadGoal::Recover | ReadGoal::Acquire | ReadGoal::CommitEpoch { .. }
        ) {
            // The recovery read must learn the *servers'* agreed state; the
            // owner's own inversion-prevention pair was just scrambled, and
            // trusting it could "prevent" the genuine quorum value in favor
            // of corrupted local memory. Start from a clean policy (the
            // sanity probe then re-anchors it on the servers). Adoption
            // and epoch-commit reads start clean for the same reason:
            // whatever the quorum agrees on *is* the state to continue
            // from, and stale local prevention state must not outvote it.
            self.policies[shard as usize] = AtomicPolicy::new();
        }
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "MetadataRead",
        });
        self.read_engine = ReadEngine::new(RegId(shard), self.cfg);
        // Figure 3 read: sanity probe first (N2–N7), then the read loop.
        self.read_engine.start_sanity(&mut self.link, sub);
        self.phase = Phase::Reading { goal, shard };
    }

    /// Publishes the authoritative map of `shard`: under full replication
    /// one metadata write of the inline map; under the bulk plane a
    /// `FRAG_PUT` fan-out to the data replicas first, the reference write
    /// gated on `k + t` verified acknowledgements. The publish completes
    /// every op in `ops` (several when the batch window folded a run of
    /// puts); empty `ops` is a recovery republish.
    fn start_publish(
        &mut self,
        shard: u32,
        ops: Vec<OpId>,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        let replicas = self.data_replicas(shard);
        let owned = self.owned.get_mut(&shard).expect("publish on owned shard");
        match self.plane.coding() {
            None => {
                sub.trace(TraceEvent::Phase {
                    shard,
                    phase: "MetadataWrite",
                });
                // One deep snapshot per publish; every send, helping
                // refresh, and retransmission shares it through the Arc.
                let payload = WriteStamper::<StoreVal<V>, StorePayload<V>>::stamp(
                    &mut owned.stamper,
                    StoreVal::Inline(Arc::new(owned.map.clone())),
                );
                self.write_engine = WriteEngine::new(RegId(shard), self.cfg, self.clients.clone());
                self.write_engine.start(payload, &mut self.link, sub);
                self.phase = Phase::Writing { ops };
            }
            Some((k, m)) => {
                sub.trace(TraceEvent::Phase {
                    shard,
                    phase: "PushingBulk",
                });
                // AVID-style dispersal: k-of-m fragments, committed to by
                // the Merkle root the metadata register will carry. Each
                // replica gets its own fragment plus the path proving it
                // belongs to the root.
                let bytes = owned.map.encode_to_vec();
                let frags = encode_fragments(&bytes, k, m);
                let leaves = fragment_leaves(&frags);
                // One tree per publish: per-fragment paths are then slice
                // walks instead of O(m) re-folds each (O(m²) per publish
                // pre-fix).
                let tree = MerkleTree::build(&leaves);
                let root = tree.root();
                let bref = BulkRef {
                    digest: root,
                    len: bytes.len() as u64,
                };
                let payload = WriteStamper::<StoreVal<V>, StorePayload<V>>::stamp(
                    &mut owned.stamper,
                    StoreVal::Ref(bref),
                );
                let pushes: Vec<StoreWire<V>> = frags
                    .into_iter()
                    .enumerate()
                    .map(|(i, frag)| StoreMsg::FragPut {
                        shard,
                        root,
                        index: i as u32,
                        total: m as u32,
                        bytes: frag,
                        proof: tree.proof(i),
                    })
                    .collect();
                for (&r, msg) in replicas.iter().zip(&pushes) {
                    bulk_sends.push((r, msg.clone()));
                }
                let timer = sub.set_timer(self.round_timer());
                self.phase = Phase::PushingBulk {
                    ops,
                    shard,
                    digest: root,
                    pushes,
                    payload,
                    acks: BTreeSet::new(),
                    timer,
                };
            }
        }
    }

    /// Starts a bulk fetch round for `bref` on `shard`.
    #[allow(clippy::too_many_arguments)]
    fn start_fetch(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        wsn: RingSeq,
        bref: BulkRef,
        rounds: u32,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "FetchRound",
        });
        let tag = self.next_bulk_tag;
        self.next_bulk_tag += 1;
        for r in self.data_replicas(shard) {
            bulk_sends.push((
                r,
                StoreMsg::BulkGet {
                    shard,
                    digest: bref.digest,
                    tag,
                },
            ));
        }
        let timer = sub.set_timer(self.round_timer());
        self.phase = Phase::Fetching {
            goal,
            shard,
            wsn,
            bref,
            tag,
            bad: BTreeSet::new(),
            dead: false,
            rounds,
            timer,
            frags: BTreeMap::new(),
            resolved: None,
        };
    }

    /// Completes `goal` with the resolved map of `shard` (read under
    /// metadata stamp `wsn`). For `get`s this emits one completion per
    /// coalesced op, all projected from the same snapshot; for a
    /// recovery it adopts the map and starts the republish (so the
    /// caller's pump loop continues).
    #[allow(clippy::too_many_arguments)]
    fn finish_resolve(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        wsn: RingSeq,
        map: Arc<ShardMap<V>>,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        outs: &mut Vec<StoreOut<V>>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        match goal {
            ReadGoal::Get { ops } => {
                // Soundness-mutation hook (tests only): serve this round
                // from the shard's previous resolved snapshot, breaking
                // recency on purpose so the monitor test can prove the
                // online checker is not vacuously green.
                let serve = if self.weaken_recency {
                    let prev = self.stale_snapshots.insert(shard, map.clone());
                    prev.unwrap_or(map)
                } else {
                    map
                };
                for (op, key) in ops {
                    let value = serve.get(&key).cloned();
                    sub.trace(TraceEvent::OpComplete {
                        op: op.0,
                        kind: "get",
                    });
                    outs.push(StoreOut::GetDone { op, value });
                }
                // phase stays Idle; the pump keeps draining the queue.
            }
            ReadGoal::Recover => {
                // Adopt the register's (last published) map as the
                // authoritative copy — and **resync the sequence stamper**
                // onto the stamp the quorum agreed on, the MWMR
                // read-before-write refresh rule generalized to recovery.
                // Republishing under the scrambled counter instead would
                // stamp values clockwise-*behind* the helping pairs still
                // installed at the servers, and every reader's
                // inversion-prevention state would pin the pre-corruption
                // value essentially forever.
                let owned = self.owned.get_mut(&shard).expect("recovering owned shard");
                owned.map = Arc::unwrap_or_clone(map);
                owned.stamper = WsnStamp::new(wsn);
                self.write_intent = WriteIntent::Recovery;
                self.start_publish(shard, Vec::new(), sub, bulk_sends);
            }
            ReadGoal::Acquire => {
                // Dual-commit adoption: the quorum-read snapshot is the
                // old owner's last committed map (its final publish
                // completed before it emitted `ShardRetired`, and the
                // acquisition was gated on that), so adopting the map and
                // resyncing onto its stamp continues the register
                // sequence exactly where the old owner left it — the new
                // owner's first stamp is the clockwise successor, as if
                // the writer never changed.
                sub.trace(TraceEvent::Phase {
                    shard,
                    phase: "ShardAdopt",
                });
                self.owned.insert(
                    shard,
                    OwnedShard {
                        stamper: WsnStamp::new(wsn),
                        map: Arc::unwrap_or_clone(map),
                    },
                );
                self.write_intent = WriteIntent::Acquire { shard };
                self.start_publish(shard, Vec::new(), sub, bulk_sends);
            }
            ReadGoal::CommitEpoch { .. } => {
                unreachable!("epoch commits are intercepted before value resolution")
            }
        }
    }

    /// Pulls **every** queued get on `shard` out of the queue into `ops`,
    /// in queue order; all other queued ops keep their relative order.
    /// The gathered gets share one read round and all project the same
    /// snapshot. Safe even past interleaved puts on the shard: a gathered
    /// get overlaps those puts (everything in the queue is invoked,
    /// nothing completed), so returning the pre-put value linearizes the
    /// get before them — timing-level latitude the register contract
    /// already grants concurrent readers.
    fn absorb_get_run(&mut self, shard: u32, ops: &mut Vec<(OpId, String)>) {
        let mut rest = VecDeque::with_capacity(self.pending.len());
        for (op, kind) in self.pending.drain(..) {
            match kind {
                StoreOp::Get { key } if self.router.shard_of(&key) == shard => {
                    ops.push((op, key));
                }
                other => rest.push_back((op, other)),
            }
        }
        self.pending = rest;
    }

    /// Pulls every queued put on `shard` out of the queue (group commit),
    /// folding each into the authoritative map **in queue order** — so
    /// per-key write order, the invariant the differential checker pins,
    /// is exactly the invocation order — and collecting its op for the
    /// one shared publish. A get left behind in the queue overlaps these
    /// puts, so whichever snapshot it later reads is a legal concurrent
    /// outcome.
    fn absorb_put_run(&mut self, shard: u32, ops: &mut Vec<OpId>) {
        let mut rest = VecDeque::with_capacity(self.pending.len());
        for (op, kind) in self.pending.drain(..) {
            match kind {
                StoreOp::Put { key, val } if self.router.shard_of(&key) == shard => {
                    let owned = self.owned.get_mut(&shard).expect("checked at invoke_put");
                    owned.map.insert(&key, val);
                    ops.push(op);
                }
                other => rest.push_back((op, other)),
            }
        }
        self.pending = rest;
    }

    fn pump(
        &mut self,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        outs: &mut Vec<StoreOut<V>>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        loop {
            match std::mem::replace(&mut self.phase, Phase::Idle) {
                Phase::Idle => {
                    // Writer-map recovery runs ahead of queued operations:
                    // a corrupted owner must not accept its next put on a
                    // scrambled authoritative map.
                    if let Some(shard) = self.need_recover.pop_front() {
                        self.start_read(ReadGoal::Recover, shard, sub);
                        continue;
                    }
                    // Retiring sweep: a retiring shard whose queued puts
                    // have all drained (and that owes no recovery) is
                    // dropped here — at Idle nothing is in flight, so its
                    // last publish has completed through the quorum.
                    if !self.retiring.is_empty() {
                        let done: Vec<u32> = self
                            .retiring
                            .iter()
                            .copied()
                            .filter(|&s| {
                                !self.need_recover.contains(&s)
                                    && !self.pending.iter().any(|(_, op)| match op {
                                        StoreOp::Put { key, .. } => self.router.shard_of(key) == s,
                                        StoreOp::Get { .. } => false,
                                    })
                            })
                            .collect();
                        for shard in done {
                            self.retiring.remove(&shard);
                            self.owned.remove(&shard);
                            sub.trace(TraceEvent::Phase {
                                shard,
                                phase: "ShardRetired",
                            });
                            outs.push(StoreOut::ShardRetired { shard });
                        }
                    }
                    // Reshard control jobs run ahead of client operations
                    // (and of the flush gate): a busy closed-loop client
                    // must not starve a handoff, and an acquisition must
                    // not wait behind puts staged on the very shard it
                    // unblocks.
                    if let Some(job) = self.control.pop_front() {
                        match job {
                            ControlJob::CommitEpoch { epoch, owners } => {
                                let routing_shard = self.router.shards();
                                self.start_read(
                                    ReadGoal::CommitEpoch { epoch, owners },
                                    routing_shard,
                                    sub,
                                );
                            }
                            ControlJob::AcquireShard { shard } => {
                                self.start_read(ReadGoal::Acquire, shard, sub);
                            }
                        }
                        continue;
                    }
                    // Ops staged behind an armed flush timer stay held;
                    // the timer's firing clears it and re-enters here.
                    if self.flush_timer.is_some() {
                        return;
                    }
                    let Some((op, kind)) = self.pending.pop_front() else {
                        return;
                    };
                    match kind {
                        StoreOp::Get { key } => {
                            let shard = self.router.shard_of(&key);
                            let mut ops = vec![(op, key)];
                            if self.window > SimDuration::ZERO {
                                self.absorb_get_run(shard, &mut ops);
                            }
                            self.start_read(ReadGoal::Get { ops }, shard, sub);
                        }
                        StoreOp::Put { key, val } => {
                            let shard = self.router.shard_of(&key);
                            let owned = self.owned.get_mut(&shard).expect("checked at invoke_put");
                            owned.map.insert(&key, val);
                            let mut ops = vec![op];
                            if self.window > SimDuration::ZERO {
                                self.absorb_put_run(shard, &mut ops);
                            }
                            self.write_intent = WriteIntent::Ops;
                            self.start_publish(shard, ops, sub, bulk_sends);
                        }
                    }
                }
                Phase::Reading { goal, shard } => {
                    match self.read_engine.poll(&mut self.link, sub) {
                        Some(ReadProgress::SanityDone(agreed)) => {
                            self.policies[shard as usize].on_sanity(agreed.as_ref());
                            self.read_engine.start_read(&mut self.link, sub);
                            self.phase = Phase::Reading { goal, shard };
                        }
                        Some(ReadProgress::Done(source, p)) => {
                            let stamped = self.policies[shard as usize].transform(source, p);
                            let wsn = stamped.wsn;
                            // An epoch commit needs only the agreed stamp:
                            // resync a fresh stamper onto it and write the
                            // flip, whatever value the routing register
                            // held before.
                            let goal = match goal {
                                ReadGoal::CommitEpoch { epoch, owners } => {
                                    sub.trace(TraceEvent::Phase {
                                        shard,
                                        phase: "EpochCommit",
                                    });
                                    let mut stamper = WsnStamp::new(wsn);
                                    let payload =
                                        WriteStamper::<StoreVal<V>, StorePayload<V>>::stamp(
                                            &mut stamper,
                                            StoreVal::Routing(Arc::new(RoutingEpoch {
                                                epoch,
                                                owners,
                                            })),
                                        );
                                    self.write_engine = WriteEngine::new(
                                        RegId(shard),
                                        self.cfg,
                                        self.clients.clone(),
                                    );
                                    self.write_engine.start(payload, &mut self.link, sub);
                                    self.write_intent = WriteIntent::EpochCommit { epoch };
                                    self.phase = Phase::Writing { ops: Vec::new() };
                                    continue;
                                }
                                g => g,
                            };
                            match stamped.val {
                                StoreVal::Inline(map) => {
                                    self.finish_resolve(
                                        goal, shard, wsn, map, sub, outs, bulk_sends,
                                    );
                                }
                                StoreVal::Ref(bref) => {
                                    if self.data_replicas(shard).is_empty() {
                                        // Full replication should never see
                                        // a reference; if stabilizing
                                        // garbage won a quorum anyway,
                                        // re-read until real metadata does.
                                        sub.note_metadata_reread();
                                        self.start_read(goal, shard, sub);
                                    } else {
                                        self.start_fetch(
                                            goal, shard, wsn, bref, 0, sub, bulk_sends,
                                        );
                                        return;
                                    }
                                }
                                StoreVal::Routing(_) => {
                                    // Only the routing register holds this
                                    // variant; on a data shard it is
                                    // stabilizing garbage that won a
                                    // quorum — re-read until real metadata
                                    // does (same fallback as a Ref under
                                    // full replication).
                                    sub.note_metadata_reread();
                                    self.start_read(goal, shard, sub);
                                }
                            }
                        }
                        None => {
                            self.phase = Phase::Reading { goal, shard };
                            return;
                        }
                    }
                }
                Phase::Fetching {
                    goal,
                    shard,
                    wsn,
                    bref,
                    tag,
                    bad,
                    dead,
                    rounds,
                    timer,
                    frags,
                    resolved,
                } => {
                    if let Some(map) = resolved {
                        sub.cancel_timer(timer);
                        self.finish_resolve(goal, shard, wsn, Arc::new(map), sub, outs, bulk_sends);
                        continue;
                    }
                    // Dead round: so many distinct window replicas
                    // answered garbage or a miss that the replies still
                    // outstanding cannot reach the k verified fragments
                    // (see `resolve_threshold` for why held fragments do
                    // not relax this). The reference may be stale
                    // (overwritten metadata) or fabricated — fall back
                    // to the metadata register.
                    let needed = self.resolve_threshold();
                    if dead || bad.len() >= self.replica_count().saturating_sub(needed - 1) {
                        sub.note_dead_fetch_round();
                        sub.note_metadata_reread();
                        sub.cancel_timer(timer);
                        self.start_read(goal, shard, sub);
                        continue;
                    }
                    self.phase = Phase::Fetching {
                        goal,
                        shard,
                        wsn,
                        bref,
                        tag,
                        bad,
                        dead,
                        rounds,
                        timer,
                        frags,
                        resolved,
                    };
                    return;
                }
                Phase::PushingBulk {
                    ops,
                    shard,
                    digest,
                    pushes,
                    payload,
                    acks,
                    timer,
                } => {
                    if acks.len() >= self.push_needed() {
                        // k+t verified stores ⇒ ≥k correct replicas hold
                        // verified fragments: the reference may become
                        // visible.
                        sub.trace(TraceEvent::Phase {
                            shard,
                            phase: "MetadataWrite",
                        });
                        sub.cancel_timer(timer);
                        self.write_engine =
                            WriteEngine::new(RegId(shard), self.cfg, self.clients.clone());
                        self.write_engine.start(payload, &mut self.link, sub);
                        self.phase = Phase::Writing { ops };
                    } else {
                        self.phase = Phase::PushingBulk {
                            ops,
                            shard,
                            digest,
                            pushes,
                            payload,
                            acks,
                            timer,
                        };
                        return;
                    }
                }
                Phase::Writing { ops } => {
                    if self.write_engine.poll(&mut self.link, sub) {
                        match std::mem::replace(&mut self.write_intent, WriteIntent::Ops) {
                            WriteIntent::Ops => {}
                            WriteIntent::Recovery => self.recoveries += 1,
                            WriteIntent::Acquire { shard } => {
                                // Adoption republish committed: ownership
                                // is live. Flush the staged puts into the
                                // queue (in issue order — their per-key
                                // order continues the old owner's, since
                                // the adoption read saw its last commit).
                                sub.trace(TraceEvent::Phase {
                                    shard,
                                    phase: "ShardAcquired",
                                });
                                outs.push(StoreOut::ShardAcquired { shard });
                                if let Some(q) = self.staged.remove(&shard) {
                                    self.pending.extend(q);
                                }
                            }
                            WriteIntent::EpochCommit { epoch } => {
                                outs.push(StoreOut::EpochCommitted { epoch });
                            }
                        }
                        for op in ops {
                            sub.trace(TraceEvent::OpComplete {
                                op: op.0,
                                kind: "put",
                            });
                            outs.push(StoreOut::PutDone { op });
                        }
                        // phase stays Idle; keep pumping the queue.
                    } else {
                        self.phase = Phase::Writing { ops };
                        return;
                    }
                }
            }
        }
    }

    /// Validates one fragment reply against the in-flight fetch: the
    /// fragment must be the right length, carry an in-range index, and
    /// re-verify against the commitment root. The `k`-th distinct
    /// verified fragment triggers reconstruction; misses and replies that
    /// fail any check mark the *sender* bad (the fallback path), and
    /// re-served fragments for an index already verified are simply
    /// redundant. Only replies from the shard's window replicas are
    /// processed at all — the bad tally is a set of senders, so no single
    /// Byzantine replica (or tag-guessing outsider) can fabricate a dead
    /// round by spamming replies.
    fn on_frag_get_ack(
        &mut self,
        from: ProcessId,
        shard: u32,
        root: BulkDigest,
        tag: u64,
        frag: Option<(u32, SharedBytes, Vec<BulkDigest>)>,
        ctx: &mut StoreCtx<'_, V>,
    ) {
        let Some((k, m)) = self.plane.coding() else {
            return; // full-replication clients never ask for fragments
        };
        if !Self::is_data_replica(self.plane, &self.servers, shard, from) {
            return;
        }
        let Phase::Fetching {
            shard: s,
            bref,
            tag: t,
            bad,
            dead,
            frags,
            resolved,
            ..
        } = &mut self.phase
        else {
            return;
        };
        if tag != *t || shard != *s || root != bref.digest || resolved.is_some() {
            return; // stale round, wrong dispersal, or already resolved
        }
        let verified = frag.filter(|(index, bytes, proof)| {
            (*index as usize) < m
                && bytes.len() as u64 == fragment_len(bref.len, k)
                && verify_fragment(bref.digest, m, *index as usize, bytes, proof)
        });
        let Some((index, bytes, _)) = verified else {
            bad.insert(from);
            return;
        };
        if frags.contains_key(&index) {
            return; // redundant re-serve of a fragment we already hold
        }
        frags.insert(index, bytes);
        if frags.len() < k {
            return;
        }
        let pairs: Vec<(u32, SharedBytes)> = frags.iter().map(|(i, b)| (*i, b.clone())).collect();
        match reconstruct(k, bref.len, &pairs).and_then(|b| ShardMap::<V>::decode_all(&b)) {
            Some(map) => *resolved = Some(map),
            // k commitment-verified fragments that reconstruct into an
            // undecodable payload mean the *writer* committed to an
            // inconsistent or garbage dispersal (a corrupted client, or
            // a fabricated reference that somehow verified) — no further
            // fragments can fix that, so give this reference up and let
            // the pump fall back to the metadata register.
            None => {
                ctx.note_reconstruction_fallback();
                *dead = true;
            }
        }
    }
}

impl<V: Payload + BulkCodec> Node for StoreClientNode<V> {
    type Msg = StoreWire<V>;
    type Out = StoreOut<V>;

    fn on_message(&mut self, from: ProcessId, msg: StoreWire<V>, ctx: &mut StoreCtx<'_, V>) {
        match msg {
            StoreMsg::Batch(batch) => {
                for m in batch {
                    match m {
                        RegMsg::SsAck { tag } => {
                            self.link.on_ss_ack(from, tag);
                        }
                        RegMsg::AckRead { reg, last, helping } => {
                            let anchored = self.link.anchored_tag(from);
                            self.read_engine
                                .on_ack_read(from, reg, last, helping, anchored);
                        }
                        RegMsg::AckProbe { reg, helping } => {
                            let anchored = self.link.anchored_tag(from);
                            self.read_engine.on_ack_probe(from, reg, helping, anchored);
                        }
                        RegMsg::AckWrite { reg, helping } => {
                            let anchored = self.link.anchored_tag(from);
                            self.write_engine.on_ack_write(from, reg, helping, anchored);
                        }
                        // Requests are server-bound; receiving one is garbage.
                        RegMsg::Write { .. } | RegMsg::NewHelpVal { .. } | RegMsg::Read { .. } => {}
                    }
                }
            }
            StoreMsg::FragPutAck { shard, root, index } => {
                let mut have = None;
                if let Phase::PushingBulk {
                    shard: s,
                    digest: d,
                    acks,
                    ..
                } = &mut self.phase
                {
                    // Only the replica we assigned this exact fragment
                    // index may count it toward the push quorum — the
                    // index is the replica's position in the shard's
                    // window, so a Byzantine replica acknowledging a
                    // fragment it was never given is rejected here.
                    let expected = Self::window_replica_at(self.plane, &self.servers, shard, index);
                    if *s == shard && *d == root && expected == Some(from) && acks.insert(from) {
                        have = Some(acks.len() as u32);
                    }
                }
                if let Some(have) = have {
                    if ctx.tracing() {
                        ctx.trace(TraceEvent::QuorumAck {
                            shard,
                            have,
                            need: self.push_needed() as u32,
                        });
                    }
                }
            }
            StoreMsg::FragGetAck {
                shard,
                root,
                tag,
                frag,
            } => self.on_frag_get_ack(from, shard, root, tag, frag, ctx),
            // Server-bound bulk requests — and the server-to-server
            // repair plane — arriving at a client are garbage.
            StoreMsg::BulkGet { .. }
            | StoreMsg::FragPut { .. }
            | StoreMsg::RepairRequest { .. }
            | StoreMsg::RepairReply { .. }
            | StoreMsg::DigestSummary { .. } => {}
        }
        self.step(ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut StoreCtx<'_, V>) {
        if self.flush_timer == Some(id) {
            // The Nagle window expired: release the held ops. The pump
            // absorbs everything that accumulated behind the timer into
            // coalesced rounds — no op is held past this deadline.
            self.flush_timer = None;
            self.step(ctx);
            return;
        }
        let round_timer = self.round_timer();
        if let Phase::Fetching {
            shard,
            bref,
            tag,
            bad,
            dead,
            rounds,
            timer,
            resolved,
            ..
        } = &mut self.phase
        {
            if *timer == id && resolved.is_none() {
                if *rounds + 1 >= FETCH_ROUNDS_PER_READ {
                    // Give up on this reference: force the dead-round
                    // path so the pump re-reads the metadata register.
                    *dead = true;
                } else {
                    // Retransmission round: fresh tag, reset tally.
                    *rounds += 1;
                    bad.clear();
                    *tag = self.next_bulk_tag;
                    self.next_bulk_tag += 1;
                    let (shard, digest, tag, round) = (*shard, bref.digest, *tag, *rounds);
                    ctx.note_retransmit();
                    ctx.trace(TraceEvent::Retransmit { shard, round });
                    for r in Self::replicas_for(self.plane, &self.servers, shard) {
                        ctx.send(r, StoreMsg::BulkGet { shard, digest, tag });
                    }
                    *timer = ctx.set_timer(round_timer);
                }
                self.step(ctx);
                return;
            }
        }
        if let Phase::PushingBulk {
            shard,
            pushes,
            acks,
            timer,
            ..
        } = &mut self.phase
        {
            if *timer == id {
                // Ack-wait round expired short of the push quorum:
                // re-push to the replicas still missing — each gets its
                // own prepared message (its assigned fragment) again. In
                // synchronous mode this is
                // the Fig. 5 "wait … or time-out" rule applied to the
                // data plane; in asynchronous mode it is the usual
                // retransmission that keeps the push live across
                // transient loss of in-flight state.
                let shard = *shard;
                let resend: Vec<(ProcessId, StoreWire<V>)> =
                    Self::replicas_for(self.plane, &self.servers, shard)
                        .into_iter()
                        .zip(pushes.iter())
                        .filter(|(r, _)| !acks.contains(r))
                        .map(|(r, m)| (r, m.clone()))
                        .collect();
                if !resend.is_empty() {
                    ctx.note_retransmit();
                    ctx.trace(TraceEvent::Phase {
                        shard,
                        phase: "BulkRepush",
                    });
                }
                for (r, m) in resend {
                    ctx.send(r, m);
                }
                *timer = ctx.set_timer(round_timer);
                self.step(ctx);
                return;
            }
        }
        self.read_engine.on_timer(id);
        self.write_engine.on_timer(id);
        self.step(ctx);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        // Scramble the recoverable protocol state: broadcast anchors,
        // in-flight acknowledgements, sequence stampers, the
        // inversion-prevention pairs — and the owner's authoritative shard
        // maps. The maps are repaired by the recovery rule: before the
        // next put on an owned shard, the owner re-reads its own register
        // and republishes (queued here, executed by the pump).
        self.link.corrupt(rng);
        self.read_engine.corrupt(rng);
        self.write_engine.corrupt(rng);
        for o in self.owned.values_mut() {
            WriteStamper::<StoreVal<V>, StorePayload<V>>::corrupt(&mut o.stamper, rng);
            o.map.scramble(rng);
        }
        for p in &mut self.policies {
            ReadPolicy::<StorePayload<V>>::corrupt(p, rng);
        }
        self.need_recover = self.owned.keys().copied().collect();
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_bulk::digest_of;
    use sbs_sim::SimTime;

    /// Self-healing regression: a repair pull re-derives the dispersal
    /// and refuses fragment sets whose re-encoded commitment root does
    /// not match the pulled digest — Byzantine peers can serve
    /// path-verified fragments of a *non-codeword* commitment (the
    /// writer-side lie AVID's verifiability exists to catch), and the
    /// repairer must not store an unservable fragment from them. An
    /// honest dispersal pulled the same way repairs into this replica's
    /// own window-position fragment.
    #[test]
    fn repair_refuses_commitment_mismatched_fragments() {
        use sbs_core::ServerNode;
        type P = u64;
        // Coded window: n = 9, shards = 4, replicas = 3, k = 2; this
        // server is slot 1 — window position 1 for shard 0.
        let servers: Vec<ProcessId> = (0..9).map(ProcessId).collect();
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0))
                .bulk_guard(1, 9, 4, 3)
                .self_healing(servers, 2, SimDuration::millis(1));
        enum Ev {
            Start,
            Msg(u32, StoreMsg<u64>),
            /// Fire the armed anti-entropy timer — suspects need two
            /// ticks (arm, then pull) before the repair fans out.
            Tick,
        }
        let mut rng = DetRng::from_seed(3);
        let mut nt = 0u64;
        let mut drive = |node: &mut StoreServerNode<P, ServerNode<P, ()>>, ev: Ev| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(SimTime::ZERO, ProcessId(1), &mut rng, &mut nt, &mut eff);
            match ev {
                Ev::Start => node.on_start(&mut ctx),
                Ev::Msg(from, msg) => node.on_message(ProcessId(from), msg, &mut ctx),
                Ev::Tick => {
                    let t = node.healer.as_ref().unwrap().timer.unwrap();
                    node.on_timer(t, &mut ctx);
                }
            }
            eff
        };
        drive(&mut node, Ev::Start);

        let (k, m) = (2usize, 3usize);
        let payload = vec![7u8; 64];
        let frags = encode_fragments(&payload, k, m);

        // The poisoned dispersal: the parity fragment is garbled
        // *before* committing, so the Merkle root covers a fragment set
        // that is not a codeword — yet fragments 0 and 1 still verify
        // against it with honest paths.
        let mut garbled = frags[2].to_vec();
        garbled[0] ^= 0x5A;
        let poisoned = vec![frags[0].clone(), frags[1].clone(), garbled.into()];
        let bad_tree = MerkleTree::build(&fragment_leaves(&poisoned));
        let bad_root = bad_tree.root();

        // The summary marks the missing root as a suspect; the pull
        // opens only after the two-tick grace sweep, fanning requests
        // to both window peers.
        let eff = drive(
            &mut node,
            Ev::Msg(
                0,
                StoreMsg::DigestSummary {
                    entries: vec![(0, bad_root)],
                },
            ),
        );
        assert!(
            eff.sends().is_empty(),
            "a summary alone must not open a pull (in-flight grace)"
        );
        let eff = drive(&mut node, Ev::Tick); // arms the suspect
        assert_eq!(eff.slow_paths().repair_rounds, 0);
        let eff = drive(&mut node, Ev::Tick); // still missing: pull
        assert_eq!(eff.sends().len(), 2, "repair fans to the window peers");
        assert_eq!(eff.slow_paths().repair_rounds, 1);
        for (i, from) in [(0u32, 0u32), (1, 2)] {
            drive(
                &mut node,
                Ev::Msg(
                    from,
                    StoreMsg::RepairReply {
                        shard: 0,
                        digest: bad_root,
                        frag: Some((i, poisoned[i as usize].clone(), bad_tree.proof(i as usize))),
                    },
                ),
            );
        }
        assert!(
            !node.frag_store().holds(&bad_root),
            "a commitment-mismatched dispersal must be refused"
        );

        // The honest dispersal, pulled identically, repairs into this
        // replica's own window-position fragment (index 1 for shard 0).
        let tree = MerkleTree::build(&fragment_leaves(&frags));
        let root = tree.root();
        drive(
            &mut node,
            Ev::Msg(
                0,
                StoreMsg::DigestSummary {
                    entries: vec![(0, root)],
                },
            ),
        );
        drive(&mut node, Ev::Tick);
        drive(&mut node, Ev::Tick);
        for (i, from) in [(0u32, 0u32), (1, 2)] {
            drive(
                &mut node,
                Ev::Msg(
                    from,
                    StoreMsg::RepairReply {
                        shard: 0,
                        digest: root,
                        frag: Some((i, frags[i as usize].clone(), tree.proof(i as usize))),
                    },
                ),
            );
        }
        let stored = node
            .frag_store()
            .get_for(0, &root)
            .expect("the honest dispersal must repair");
        assert_eq!(stored.index, 1, "repair re-derives the *own-slot* fragment");
        assert_eq!(stored.bytes.as_ref(), frags[1].as_ref());
        assert!(verify_fragment(
            root,
            m,
            stored.index as usize,
            &stored.bytes,
            &stored.proof
        ));
    }

    #[test]
    #[should_panic(expected = "does not own shard")]
    fn put_on_non_owner_panics() {
        let cfg = RegisterConfig::asynchronous(9, 1);
        let router = KeyRouter::new(4, 2);
        let servers: Vec<ProcessId> = (2..11).map(ProcessId).collect();
        let clients = vec![ProcessId(0), ProcessId(1)];
        // Find a key owned by writer 1, then invoke its put on writer 0.
        let key = (0..64)
            .map(|i| format!("key{i}"))
            .find(|k| router.writer_of(k) == 1)
            .unwrap();
        let mut node: StoreClientNode<u64> = StoreClientNode::new(
            cfg,
            router,
            servers,
            clients,
            &router.shards_of_writer(0),
            257,
            DataPlane::Full,
        );
        let mut rng = DetRng::from_seed(1);
        let mut nt = 0u64;
        let mut eff: Effects<StoreWire<u64>, StoreOut<u64>> = Effects::new();
        let mut ctx = Context::new(SimTime::ZERO, ProcessId(0), &mut rng, &mut nt, &mut eff);
        node.invoke_put(OpId(0), key, 5, &mut ctx);
    }

    /// A whole-copy (`k = 1`) fragment push on an unguarded server:
    /// fabricated bytes are refused, the genuine copy is stored and
    /// acknowledged, and a fetch serves it back verbatim.
    #[test]
    fn bulk_server_refuses_fabricated_blobs_and_serves_held_ones() {
        use sbs_core::ServerNode;
        type P = u64;
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0));
        let mut rng = DetRng::from_seed(2);
        let mut nt = 0u64;
        let client = ProcessId(0);

        let bytes: SharedBytes = b"real blob".to_vec().into();
        let frags = encode_fragments(&bytes, 1, 3);
        let tree = MerkleTree::build(&fragment_leaves(&frags));
        let root = tree.root();
        let put = |bytes: SharedBytes| StoreMsg::FragPut {
            shard: 1,
            root,
            index: 0,
            total: 3,
            bytes,
            proof: tree.proof(0),
        };
        let run = |node: &mut StoreServerNode<P, ServerNode<P, ()>>,
                   rng: &mut DetRng,
                   nt: &mut u64,
                   msg: StoreMsg<P>| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(SimTime::ZERO, ProcessId(9), rng, nt, &mut eff);
            node.on_message(client, msg, &mut ctx);
            eff
        };

        // A fabricated copy (bytes not matching the root) is refused: no
        // ack, nothing stored.
        let eff = run(&mut node, &mut rng, &mut nt, put(b"forged".to_vec().into()));
        assert!(eff.sends().is_empty(), "forged copy must not be acked");
        assert_eq!(node.frag_store().fragment_count(), 0);

        // The genuine copy stores and acks.
        let eff = run(&mut node, &mut rng, &mut nt, put(frags[0].clone()));
        assert!(matches!(
            eff.sends(),
            [(_, StoreMsg::FragPutAck { shard: 1, .. })]
        ));
        assert!(node.frag_store().holds(&root));

        // A get returns the held bytes verbatim.
        let eff = run(
            &mut node,
            &mut rng,
            &mut nt,
            StoreMsg::BulkGet {
                shard: 1,
                digest: root,
                tag: 7,
            },
        );
        let [(
            to,
            StoreMsg::FragGetAck {
                tag: 7,
                frag: Some((0, served, _)),
                ..
            },
        )] = eff.sends()
        else {
            panic!("expected one FragGetAck, got {:?}", eff.sends());
        };
        assert_eq!(*to, client);
        assert_eq!(served.as_ref(), bytes.as_ref());
    }

    /// The deployment guard refuses every wire-controlled lie the bulk
    /// plane could otherwise be fed: fragments with a foreign index
    /// (pre-seeding a correct replica with another replica's fragment
    /// to poison push-quorum acks), forged dispersal shapes (`total = 1`
    /// or `0` instead of the deployment's window), puts for shards
    /// outside this replica's window (unbounded retention state), and
    /// any fragment on a full-replication deployment.
    #[test]
    fn bulk_guard_refuses_foreign_indices_totals_and_shards() {
        use sbs_bulk::{encode_fragments, fragment_leaves, merkle_proof, merkle_root};
        use sbs_core::ServerNode;
        type P = u64;
        let run = |node: &mut StoreServerNode<P, ServerNode<P, ()>>,
                   rng: &mut DetRng,
                   nt: &mut u64,
                   msg: StoreMsg<P>| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(sbs_sim::SimTime::ZERO, ProcessId(9), rng, nt, &mut eff);
            node.on_message(ProcessId(0), msg, &mut ctx);
            eff
        };
        let mut rng = DetRng::from_seed(5);
        let mut nt = 0u64;

        // Fleet slot 1 of 9, 4 shards, 3-replica windows: shard 1's
        // window is slots {1, 2, 3}, so this server's position (=
        // fragment index) for shard 1 is 0.
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).bulk_guard(1, 9, 4, 3);
        let payload = vec![3u8; 64];
        let frags = encode_fragments(&payload, 2, 3);
        let leaves = fragment_leaves(&frags);
        let root = merkle_root(&leaves);
        let frag_put = |shard: u32, index: usize| StoreMsg::FragPut {
            shard,
            root,
            index: index as u32,
            total: 3,
            bytes: frags[index].clone(),
            proof: merkle_proof(&leaves, index),
        };

        // A *different replica's* fragment — commitment-valid, wrong
        // index for this slot — is refused unacked.
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(1, 1));
        assert!(eff.sends().is_empty(), "foreign index must not be acked");
        assert_eq!(node.frag_store().fragment_count(), 0);

        // Forged shapes are refused by the shape pin: a `total = 1`
        // "dispersal" of bytes hashing straight to the announced root,
        // and the shapeless `total = 0` push of the garbage generator.
        let blob: SharedBytes = b"a whole blob".to_vec().into();
        let d = digest_of(&blob);
        for total in [1, 0] {
            let eff = run(
                &mut node,
                &mut rng,
                &mut nt,
                StoreMsg::FragPut {
                    shard: 1,
                    root: d,
                    index: 0,
                    total,
                    bytes: blob.clone(),
                    proof: Vec::new(),
                },
            );
            assert!(
                eff.sends().is_empty(),
                "total={total} forgery must be refused"
            );
        }
        assert_eq!(node.frag_store().fragment_count(), 0);

        // This replica's own fragment is stored and acked.
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(1, 0));
        assert!(matches!(
            eff.sends(),
            [(_, StoreMsg::FragPutAck { index: 0, .. })]
        ));

        // Puts outside the deployment: nonexistent shard, and a shard
        // whose window skips this slot (shard 2's window is {2, 3, 4}).
        for bad_shard in [9u32, 2] {
            let eff = run(&mut node, &mut rng, &mut nt, frag_put(bad_shard, 0));
            assert!(eff.sends().is_empty(), "shard {bad_shard} must be refused");
        }
        assert_eq!(node.frag_store().fragment_count(), 1);

        // A full-replication deployment (no data window) refuses every
        // fragment.
        let mut full: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).bulk_guard(1, 9, 4, 0);
        let eff = run(&mut full, &mut rng, &mut nt, frag_put(1, 0));
        assert!(
            eff.sends().is_empty(),
            "fragments on full replication refused"
        );
        assert_eq!(full.frag_store().fragment_count(), 0);
    }

    /// Regression (REVIEW of ISSUE 5, write liveness): shard windows
    /// overlap — slot 1 of 9 sits at position 1 in shard 0's window
    /// {0, 1, 2} and position 0 in shard 1's window {1, 2, 3} — so when
    /// both shards disperse byte-identical payloads (one commitment
    /// root), this replica must store **both** shards' fragment indices
    /// and acknowledge both pushes. Pre-fix the fragment store held one
    /// index per root and silently refused the second shard's put, which
    /// could never then reach its `k + t` push quorum.
    #[test]
    fn overlapping_windows_store_each_shards_fragment_of_an_aliased_root() {
        use sbs_bulk::{encode_fragments, fragment_leaves, merkle_proof, merkle_root};
        use sbs_core::ServerNode;
        type P = u64;
        let run = |node: &mut StoreServerNode<P, ServerNode<P, ()>>,
                   rng: &mut DetRng,
                   nt: &mut u64,
                   msg: StoreMsg<P>| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(sbs_sim::SimTime::ZERO, ProcessId(9), rng, nt, &mut eff);
            node.on_message(ProcessId(0), msg, &mut ctx);
            eff
        };
        let mut rng = DetRng::from_seed(13);
        let mut nt = 0u64;
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).bulk_guard(1, 9, 4, 3);

        let payload = vec![8u8; 64];
        let frags = encode_fragments(&payload, 2, 3);
        let leaves = fragment_leaves(&frags);
        let root = merkle_root(&leaves);
        let frag_put = |shard: u32, index: usize| StoreMsg::FragPut {
            shard,
            root,
            index: index as u32,
            total: 3,
            bytes: frags[index].clone(),
            proof: merkle_proof(&leaves, index),
        };

        // Shard 0's dispersal reaches this replica as fragment 1…
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(0, 1));
        assert!(matches!(
            eff.sends(),
            [(
                _,
                StoreMsg::FragPutAck {
                    shard: 0,
                    index: 1,
                    ..
                }
            )]
        ));
        // …and shard 1's identical dispersal as fragment 0: it MUST be
        // stored and acked too, or shard 1's push wedges forever.
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(1, 0));
        assert!(
            matches!(
                eff.sends(),
                [(
                    _,
                    StoreMsg::FragPutAck {
                        shard: 1,
                        index: 0,
                        ..
                    }
                )]
            ),
            "the second shard's index of the aliased root must be acked, got {:?}",
            eff.sends()
        );
        assert_eq!(node.frag_store().fragment_count(), 2);

        // Each shard's fetch is served its own window position's index.
        for (shard, index) in [(0u32, 1u32), (1, 0)] {
            let eff = run(
                &mut node,
                &mut rng,
                &mut nt,
                StoreMsg::BulkGet {
                    shard,
                    digest: root,
                    tag: 5,
                },
            );
            assert!(
                matches!(
                    eff.sends(),
                    [(_, StoreMsg::FragGetAck { frag: Some((i, _, _)), .. })] if *i == index
                ),
                "shard {shard} must be served index {index}, got {:?}",
                eff.sends()
            );
        }
    }

    /// A Byzantine data replica stores honestly but serves garbage: a
    /// held fragment comes back garbled (never root-verifying), and a
    /// miss comes back as a fabricated fragment instead of a miss.
    #[test]
    fn byzantine_bulk_server_serves_garbled_bytes() {
        use sbs_core::ServerNode;
        type P = u64;
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).byzantine_bulk();
        let mut rng = DetRng::from_seed(3);
        let mut nt = 0u64;
        let bytes: SharedBytes = b"honest bytes".to_vec().into();
        let frags = encode_fragments(&bytes, 1, 3);
        let tree = MerkleTree::build(&fragment_leaves(&frags));
        let root = tree.root();

        let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
        let mut ctx = Context::new(SimTime::ZERO, ProcessId(9), &mut rng, &mut nt, &mut eff);
        node.on_message(
            ProcessId(0),
            StoreMsg::FragPut {
                shard: 0,
                root,
                index: 0,
                total: 3,
                bytes: frags[0].clone(),
                proof: tree.proof(0),
            },
            &mut ctx,
        );
        for digest in [root, digest_of(b"never stored")] {
            node.on_message(
                ProcessId(0),
                StoreMsg::BulkGet {
                    shard: 0,
                    digest,
                    tag: 1,
                },
                &mut ctx,
            );
        }
        let served: Vec<(u32, SharedBytes, Vec<BulkDigest>)> = eff
            .sends()
            .iter()
            .filter_map(|(_, m)| match m {
                StoreMsg::FragGetAck { frag, .. } => frag.clone(),
                _ => None,
            })
            .collect();
        assert_eq!(served.len(), 2, "byz replica answers hits and misses alike");
        let (index, garbled, proof) = &served[0];
        assert_ne!(garbled, &bytes, "byz replica must serve wrong bytes");
        assert!(
            !verify_fragment(root, 3, *index as usize, garbled, proof),
            "…which can never verify against the root"
        );
        let (_, fabricated, proof) = &served[1];
        assert_eq!(fabricated.len(), 16, "a miss is answered with filler");
        assert!(proof.is_empty());
    }
}
