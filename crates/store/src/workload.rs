//! The workload engine: YCSB-style operation mixes, key-popularity
//! distributions, open- and closed-loop clients, and pluggable fault
//! plans — the load generator that exercises the store the way a
//! benchmark exercises a production system.
//!
//! A [`Workload`] is fully declarative: build one, point it at a
//! [`StoreBuilder`], and [`Workload::run`] deploys the fleet, schedules
//! the fault plan, drives the clients, and returns the measured
//! [`WorkloadReport`] together with the finished [`StoreSystem`] so the
//! caller can hand per-key histories to `sbs-check`.
//!
//! Workloads are **mode-generic**: the same declarative workload runs
//! unchanged against an asynchronous or a synchronous builder (and
//! either data plane). Because each client samples its op stream from
//! its own derived RNG stream with a fixed quota (see [`Workload::run`]),
//! the issued per-client operation sequences are a pure function of the
//! `Workload` — which is what makes *differential* runs across modes
//! comparable: `sbs_check::equivalent_write_histories` can demand that a
//! synchronous 4-server run and an asynchronous 9-server run of the same
//! workload agree key by key, write sequence by write sequence
//! (`tests/mode_sync.rs`).

use crate::harness::{StoreBuilder, StoreSystem};
use crate::router::{KeyRouter, ReshardPlan};
use sbs_bulk::BulkCodec;
use sbs_core::{ByzStrategy, Payload};
use sbs_sim::{DetRng, LatencySummary, OpId, SimDuration};
use std::collections::HashMap;

/// Key-popularity distribution over the key space.
#[derive(Clone, Debug)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian popularity: key ranked `r` (0-based) has weight
    /// `1 / (r+1)^theta`. YCSB's default skew is `theta ≈ 0.99`.
    Zipfian {
        /// The skew exponent (`0` degenerates to uniform).
        theta: f64,
    },
}

impl KeyDist {
    /// Precomputes the sampling table over global ranks `0..n`.
    fn sampler(&self, n: usize) -> DistSampler {
        self.sampler_for_ranks((0..n).collect())
    }

    /// Precomputes a sampling table restricted to the given *global*
    /// ranks: item `i` of the result keeps the weight of global rank
    /// `ranks[i]`, so a restricted distribution (e.g. one writer's owned
    /// keys) stays the renormalized slice of the global one rather than
    /// being re-ranked locally.
    fn sampler_for_ranks(&self, ranks: Vec<usize>) -> DistSampler {
        assert!(!ranks.is_empty(), "cannot sample from an empty key space");
        let weights: Vec<f64> = match self {
            KeyDist::Uniform => vec![1.0; ranks.len()],
            KeyDist::Zipfian { theta } => ranks
                .iter()
                .map(|&r| 1.0 / ((r + 1) as f64).powf(*theta))
                .collect(),
        };
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(ranks.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        DistSampler { cdf }
    }
}

/// A precomputed inverse-CDF sampler.
#[derive(Clone, Debug)]
struct DistSampler {
    cdf: Vec<f64>,
}

impl DistSampler {
    /// Samples a rank in `[0, n)`.
    fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// The read/write operation mix.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_fraction: f64,
}

impl OpMix {
    /// YCSB workload A analogue: 50% reads / 50% writes (update-heavy).
    pub fn ycsb_a() -> Self {
        OpMix { read_fraction: 0.5 }
    }

    /// YCSB workload B analogue: 95% reads / 5% writes (read-heavy).
    pub fn ycsb_b() -> Self {
        OpMix {
            read_fraction: 0.95,
        }
    }

    /// YCSB workload C analogue: 100% reads.
    pub fn ycsb_c() -> Self {
        OpMix { read_fraction: 1.0 }
    }
}

/// How clients issue operations.
#[derive(Clone, Copy, Debug)]
pub enum LoopMode {
    /// Closed loop: every client keeps exactly one operation in flight
    /// (throughput is completion-driven).
    Closed,
    /// Open loop: operations arrive at exponentially distributed
    /// interarrival times (mean per client) regardless of completions;
    /// late clients queue.
    Open {
        /// Mean interarrival time per client.
        mean_interarrival: SimDuration,
    },
}

/// A declarative fault schedule, driving the existing [`ByzStrategy`]
/// adversaries and the simulator's transient-fault hooks.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Servers that are Byzantine from the start: `(server index,
    /// strategy)`.
    pub byzantine: Vec<(usize, ByzStrategy)>,
    /// Transient state corruption of one server at a virtual-time offset:
    /// `(offset from start, server index)`.
    pub corruptions: Vec<(SimDuration, usize)>,
    /// Transient state corruption of one **client** at a virtual-time
    /// offset: `(offset from start, client index)`. Corrupting a shard
    /// owner exercises the writer-map recovery rule.
    pub client_corruptions: Vec<(SimDuration, usize)>,
    /// Garbage injection into every client⇄server link at a virtual-time
    /// offset: `(offset from start, batches per link direction)`.
    pub link_garbage: Vec<(SimDuration, usize)>,
    /// Wipe of one server's bulk **data store** (its fragments;
    /// register metadata survives) at a virtual-time offset:
    /// `(offset from start, server index)`. Applied at the first drive
    /// slice boundary at or after the offset — deterministic, since
    /// slice boundaries are fixed virtual times. Pair with
    /// [`StoreBuilder::anti_entropy`](crate::StoreBuilder::anti_entropy)
    /// to watch the store heal itself.
    pub data_wipes: Vec<(SimDuration, usize)>,
    /// Live reshards started at a virtual-time offset: `(offset from
    /// start, plan)`. Not a fault in the adversarial sense — it rides
    /// the fault plan because it is the same kind of *scheduled
    /// mid-workload event* (applied at the first drive-slice boundary
    /// at or after its offset, deterministic like the wipes), and
    /// because a handoff is exactly the window a checker wants to probe.
    /// A plan whose predecessor handoff is still in flight waits for the
    /// next boundary where the table is settled.
    pub reshards: Vec<(SimDuration, ReshardPlan)>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// One Byzantine server with the given strategy.
    pub fn one_byzantine(index: usize, strategy: ByzStrategy) -> Self {
        FaultPlan {
            byzantine: vec![(index, strategy)],
            ..FaultPlan::default()
        }
    }
}

/// A declarative workload over a [`StoreSystem`].
#[derive(Clone, Debug)]
pub struct Workload {
    /// Total operations to issue.
    pub ops: u64,
    /// Number of keys (`key0`, `key1`, …).
    pub keys: usize,
    /// The read/write mix.
    pub mix: OpMix,
    /// Key popularity.
    pub dist: KeyDist,
    /// Open or closed loop.
    pub loop_mode: LoopMode,
    /// Seed for operation/key sampling (independent of the simulator
    /// seed).
    pub seed: u64,
    /// The fault schedule.
    pub faults: FaultPlan,
}

impl Workload {
    /// A closed-loop YCSB-B workload over `keys` keys with YCSB's default
    /// Zipfian skew — the canonical smoke-test shape.
    pub fn ycsb_b(ops: u64, keys: usize) -> Self {
        Workload {
            ops,
            keys,
            mix: OpMix::ycsb_b(),
            dist: KeyDist::Zipfian { theta: 0.99 },
            loop_mode: LoopMode::Closed,
            seed: 42,
            faults: FaultPlan::none(),
        }
    }

    /// Deploys `builder` (plus this workload's Byzantine plan), drives the
    /// load to completion, and returns the measurements and the finished
    /// system. Values are the operation sequence numbers themselves
    /// (unique, as the checkers require); use [`Workload::run_with`] to
    /// map them onto a custom value type (e.g. sized payloads).
    pub fn run(&self, builder: &StoreBuilder) -> (WorkloadReport, StoreSystem<u64>) {
        self.run_with(builder, |id| id)
    }

    /// Like [`Workload::run`], but writes `mk(id)` for the `id`-th unique
    /// value — the hook payload-size sweeps use (`mk` must stay
    /// injective or the checkers will reject the history).
    pub fn run_with<V: Payload + BulkCodec>(
        &self,
        builder: &StoreBuilder,
        mk: impl Fn(u64) -> V,
    ) -> (WorkloadReport, StoreSystem<V>) {
        let mut builder = builder.clone();
        for (i, s) in &self.faults.byzantine {
            builder = builder.byzantine(*i, s.clone());
        }
        let mut sys: StoreSystem<V> = builder.build();
        let start = sys.sim.now();
        for &(offset, server) in &self.faults.corruptions {
            let s = sys.servers[server];
            sys.sim.schedule_corruption(start + offset, s);
        }
        for &(offset, client) in &self.faults.client_corruptions {
            let c = sys.clients[client];
            sys.sim.schedule_corruption(start + offset, c);
        }
        // Garbage is scheduled upfront at its exact offsets, like the
        // corruptions — the drive loops never need to know about it.
        for &(offset, count) in &self.faults.link_garbage {
            sys.pollute_links_at(start + offset, count);
        }
        // Data wipes reach into node state from the harness, so they
        // cannot ride the event queue: the drive loops apply each at the
        // first slice boundary at or after its offset.
        let mut wipes: Vec<(sbs_sim::SimTime, usize)> = self
            .faults
            .data_wipes
            .iter()
            .map(|&(offset, server)| (start + offset, server))
            .collect();
        wipes.sort_by_key(|&(at, _)| at);
        let mut apply_due_wipes = |sys: &mut StoreSystem<V>| {
            while wipes.first().is_some_and(|&(at, _)| at <= sys.sim.now()) {
                let (_, server) = wipes.remove(0);
                sys.wipe_server_data(server);
            }
        };
        // Reshards follow the same slice-boundary discipline as the
        // wipes; one handoff at a time (a due plan waits while its
        // predecessor's handoff is still in flight).
        let mut reshards: Vec<(sbs_sim::SimTime, ReshardPlan)> = self
            .faults
            .reshards
            .iter()
            .map(|(offset, plan)| (start + *offset, plan.clone()))
            .collect();
        reshards.sort_by_key(|&(at, _)| at);
        let mut apply_due_reshards = |sys: &mut StoreSystem<V>| {
            while !sys.reshard_active()
                && reshards.first().is_some_and(|&(at, _)| at <= sys.sim.now())
            {
                let (_, plan) = reshards.remove(0);
                sys.begin_reshard(&plan);
            }
        };

        let mut driver = Driver::new(self, &sys);
        let mut reads = 0u64;
        let mut writes = 0u64;

        match self.loop_mode {
            LoopMode::Closed => {
                // Prime every client with one operation, then refill on
                // completion.
                for c in 0..sys.clients.len() {
                    driver.issue_next_for(c, &mut sys, &mk, &mut reads, &mut writes);
                }
                let mut idle_slices = 0;
                while driver.completed < driver.issued || driver.issued < self.ops {
                    let done = sys.run_for(DRIVE_SLICE);
                    apply_due_wipes(&mut sys);
                    apply_due_reshards(&mut sys);
                    if done.is_empty() {
                        idle_slices += 1;
                        assert!(
                            idle_slices < STALL_SLICES,
                            "workload stalled: {} of {} ops completed",
                            driver.completed,
                            self.ops
                        );
                        continue;
                    }
                    idle_slices = 0;
                    driver.completed += done.len() as u64;
                    for (pid, op) in done {
                        // Refill the stream that *issued* the op, not the
                        // client it completed at: after a reshard the put
                        // executes (and completes) at the shard's new
                        // owner, while the quota being drained is the
                        // issuing stream's.
                        let c = driver.inflight.remove(&op).unwrap_or_else(|| {
                            sys.clients.iter().position(|&p| p == pid).expect("client")
                        });
                        driver.issue_next_for(c, &mut sys, &mk, &mut reads, &mut writes);
                    }
                }
            }
            LoopMode::Open { mean_interarrival } => {
                // Precompute one exponential arrival sequence per client,
                // merge-sorted, and inject on schedule. Arrival times come
                // from a dedicated scheduling stream so the per-client op
                // streams stay schedule-independent.
                let mut sched = DetRng::derive(self.seed, u64::MAX);
                let mut arrivals: Vec<(SimDuration, usize)> = Vec::new();
                let clients = sys.clients.len();
                for c in 0..clients {
                    let mut t = SimDuration::ZERO;
                    let per_client = self.ops / clients as u64
                        + u64::from((self.ops % clients as u64) > c as u64);
                    for _ in 0..per_client {
                        let u = sched.next_f64().max(1e-12);
                        let gap = mean_interarrival.as_nanos() as f64 * -u.ln();
                        t += SimDuration::nanos(gap.max(1.0) as u64);
                        arrivals.push((t, c));
                    }
                }
                arrivals.sort_by_key(|&(t, _)| t);
                for (at, c) in arrivals {
                    let target = start + at;
                    if sys.sim.now() < target {
                        let done = sys.run_for(target - sys.sim.now());
                        driver.completed += done.len() as u64;
                        apply_due_wipes(&mut sys);
                        apply_due_reshards(&mut sys);
                    }
                    driver.issue_next_for(c, &mut sys, &mk, &mut reads, &mut writes);
                }
                let mut idle_slices = 0;
                while driver.completed < driver.issued {
                    let done = sys.run_for(DRIVE_SLICE).len() as u64;
                    driver.completed += done;
                    apply_due_wipes(&mut sys);
                    apply_due_reshards(&mut sys);
                    idle_slices = if done == 0 { idle_slices + 1 } else { 0 };
                    assert!(
                        idle_slices < STALL_SLICES,
                        "open-loop drain stalled: {} of {} ops completed",
                        driver.completed,
                        driver.issued
                    );
                }
            }
        }

        // The last scheduled reshard may still be mid-handoff when the
        // final operation completes — drive it home so the returned
        // system is at a settled epoch (and `stabilization_time` can be
        // read off it).
        let mut idle_slices = 0;
        while sys.reshard_active() {
            sys.run_for(DRIVE_SLICE);
            idle_slices += 1;
            assert!(
                idle_slices < STALL_SLICES,
                "reshard handoff never completed after the workload drained"
            );
        }

        let elapsed = sys.sim.now() - start;
        let secs = elapsed.as_nanos() as f64 / 1e9;
        let report = WorkloadReport {
            issued: driver.issued,
            completed: driver.completed,
            reads,
            writes,
            sim_elapsed: elapsed,
            ops_per_sim_sec: if secs > 0.0 {
                driver.completed as f64 / secs
            } else {
                0.0
            },
            messages_delivered: sys.sim.metrics().messages_delivered,
            events_processed: sys.sim.metrics().events_processed,
            metadata_messages: sys.sim.metrics().sent_with_label("BATCH"),
            metadata_bytes: sys.sim.metrics().metadata_bytes_sent,
            bulk_bytes: sys.sim.metrics().bulk_bytes_sent,
            put_latency: sys.merged_latency("put").summary(),
            get_latency: sys.merged_latency("get").summary(),
            slow_retransmits: sys.sim.metrics().slow_paths.retransmits,
            slow_dead_fetch_rounds: sys.sim.metrics().slow_paths.dead_fetch_rounds,
            slow_metadata_rereads: sys.sim.metrics().slow_paths.metadata_rereads,
            repair_rounds: sys.sim.metrics().slow_paths.repair_rounds,
        };
        (report, sys)
    }
}

/// Virtual-time slice between completion sweeps of the drive loop.
const DRIVE_SLICE: SimDuration = SimDuration::millis(5);
/// Consecutive completion-free slices after which the driver declares a
/// stall (liveness tripwire — 5 simulated minutes).
const STALL_SLICES: u32 = 60_000;

/// One client's deterministic operation stream.
///
/// Each client samples its operations from its **own** RNG stream
/// (derived from the workload seed and the client index) and works
/// through a fixed per-client quota. The issued operation sequence of
/// every client is therefore a pure function of the `Workload` — *not* of
/// scheduling, link delays, or which implementation serves the requests.
/// That is what makes differential runs comparable: the same workload
/// replayed against full replication and against the bulk data plane
/// issues bit-identical per-client op streams even though completions
/// interleave differently (it is also how YCSB's per-thread generators
/// behave).
struct ClientStream {
    rng: DetRng,
    remaining: u64,
    writes_issued: u64,
}

/// One operation from a client's deterministic stream, before it is
/// handed to any particular system: what to do, not how to run it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlannedOp {
    /// Read `key` through the issuing client.
    Get {
        /// The key to read.
        key: String,
    },
    /// Write the `id`-th unique value to `key` (the caller maps `id` onto
    /// its value type; the mapping must stay injective for the checkers).
    Put {
        /// The key to write (owned by the issuing client's stream at
        /// epoch 0 — under a live reshard the runtime routes the put to
        /// the shard's current owner, which may be another client).
        key: String,
        /// Globally unique write sequence number, a pure function of
        /// (client, per-client write count).
        id: u64,
    },
}

/// The deterministic per-client operation streams of a [`Workload`],
/// decoupled from any runtime.
///
/// Sampling is a pure function of the workload and the
/// [`KeyRouter`]'s writer assignment — *not* of scheduling, link
/// delays, or which backend serves the requests. Both the simulator's
/// drive loops ([`Workload::run`]) and the socket harness in `sbs-net`
/// pull from this same planner, which is what makes differential
/// sim ≡ socket runs compare bit-identical issued op sequences.
pub struct WorkloadStreams {
    keys: Vec<String>,
    global: DistSampler,
    /// Keys each writer client owns, by popularity rank (the write-side
    /// restriction of the SWMR rule), with a matching sampler.
    owned_keys: Vec<Vec<usize>>,
    owned_samplers: Vec<Option<DistSampler>>,
    read_fraction: f64,
    streams: Vec<ClientStream>,
}

impl std::fmt::Debug for WorkloadStreams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadStreams")
            .field("keys", &self.keys.len())
            .field("clients", &self.streams.len())
            .finish_non_exhaustive()
    }
}

impl WorkloadStreams {
    /// Plans `w`'s operation streams for a deployment of `clients`
    /// clients whose writer assignment comes from `router`.
    pub fn new(w: &Workload, router: &KeyRouter, clients: usize) -> Self {
        let keys: Vec<String> = (0..w.keys).map(|i| format!("key{i}")).collect();
        let mut owned_keys: Vec<Vec<usize>> = vec![Vec::new(); clients];
        for (rank, key) in keys.iter().enumerate() {
            owned_keys[router.writer_of(key)].push(rank);
        }
        let owned_samplers = owned_keys
            .iter()
            .map(|ranks| {
                if ranks.is_empty() {
                    None
                } else {
                    // Restricted to the owned keys but weighted by their
                    // *global* popularity ranks.
                    Some(w.dist.sampler_for_ranks(ranks.clone()))
                }
            })
            .collect();
        let streams = (0..clients)
            .map(|c| ClientStream {
                rng: DetRng::derive(w.seed, c as u64),
                remaining: w.ops / clients as u64 + u64::from((w.ops % clients as u64) > c as u64),
                writes_issued: 0,
            })
            .collect();
        WorkloadStreams {
            keys,
            global: w.dist.sampler(w.keys),
            owned_keys,
            owned_samplers,
            read_fraction: w.mix.read_fraction,
            streams,
        }
    }

    /// Number of planned client streams.
    pub fn clients(&self) -> usize {
        self.streams.len()
    }

    /// Draws the next operation of client `c`'s stream, honoring the mix
    /// and the writer assignment: reads draw from the global key
    /// distribution, writes draw from the distribution restricted to the
    /// client's owned keys (a read-only client always reads). Returns
    /// `None` once the client's quota is exhausted.
    pub fn next_for(&mut self, c: usize) -> Option<PlannedOp> {
        let clients = self.streams.len() as u64;
        let stream = &mut self.streams[c];
        if stream.remaining == 0 {
            return None;
        }
        stream.remaining -= 1;
        let wants_read = stream.rng.chance(self.read_fraction);
        let can_write = self.owned_samplers[c].is_some();
        if wants_read || !can_write {
            let key = self.keys[self.global.sample(&mut stream.rng)].clone();
            Some(PlannedOp::Get { key })
        } else {
            let sampler = self.owned_samplers[c].as_ref().expect("checked");
            let rank = self.owned_keys[c][sampler.sample(&mut stream.rng)];
            let key = self.keys[rank].clone();
            // Ids are globally unique (checkers require unique write
            // values) yet a pure function of (client, write count), so
            // they replay identically across implementations.
            let id = stream.writes_issued * clients + c as u64 + 1;
            stream.writes_issued += 1;
            Some(PlannedOp::Put { key, id })
        }
    }
}

/// Per-run sampling state: the shared [`WorkloadStreams`] planner plus
/// the sim drive loop's issue/complete bookkeeping.
struct Driver {
    issued: u64,
    completed: u64,
    streams: WorkloadStreams,
    /// In-flight operation → issuing stream index. A put issued after a
    /// reshard executes (and completes) at the shard's *new* owner, so
    /// closed-loop refill maps each completion back to the stream that
    /// issued it instead of trusting the completing process id.
    inflight: HashMap<OpId, usize>,
}

impl Driver {
    fn new<V: Payload + BulkCodec>(w: &Workload, sys: &StoreSystem<V>) -> Self {
        Driver {
            issued: 0,
            completed: 0,
            streams: WorkloadStreams::new(w, sys.router(), sys.clients.len()),
            inflight: HashMap::new(),
        }
    }

    /// Issues the next operation of client `c`'s stream into `sys`. A
    /// client whose quota is exhausted issues nothing.
    fn issue_next_for<V: Payload + BulkCodec>(
        &mut self,
        c: usize,
        sys: &mut StoreSystem<V>,
        mk: &impl Fn(u64) -> V,
        reads: &mut u64,
        writes: &mut u64,
    ) {
        let op = match self.streams.next_for(c) {
            None => return,
            Some(PlannedOp::Get { key }) => {
                *reads += 1;
                sys.get(c, &key)
            }
            Some(PlannedOp::Put { key, id }) => {
                *writes += 1;
                sys.put(&key, mk(id))
            }
        };
        self.inflight.insert(op, c);
        self.issued += 1;
    }
}

/// Measurements from one [`Workload::run`].
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Operations issued.
    pub issued: u64,
    /// Operations completed.
    pub completed: u64,
    /// Reads issued.
    pub reads: u64,
    /// Writes issued.
    pub writes: u64,
    /// Virtual time from first invocation to last completion sweep.
    pub sim_elapsed: SimDuration,
    /// Completed operations per simulated second.
    pub ops_per_sim_sec: f64,
    /// Delivery events the run cost (batches, not inner messages).
    pub messages_delivered: u64,
    /// Total simulator events processed.
    pub events_processed: u64,
    /// Metadata-plane sends: `StoreMsg::Batch` envelopes handed to links.
    /// The per-op quotient is the batching-efficiency headline.
    pub metadata_messages: u64,
    /// Estimated metadata-plane bytes on the wire (register batches).
    pub metadata_bytes: u64,
    /// Estimated bulk-plane bytes on the wire (payload transfers to/from
    /// the data replicas; `0` under full replication).
    pub bulk_bytes: u64,
    /// Completed-put latency percentiles, merged across shards (`None`
    /// when the run completed no put).
    pub put_latency: Option<LatencySummary>,
    /// Completed-get latency percentiles, merged across shards (`None`
    /// when the run completed no get).
    pub get_latency: Option<LatencySummary>,
    /// Slow-path retransmissions (fetch re-rounds, bulk re-pushes).
    pub slow_retransmits: u64,
    /// Fetch rounds that died and fell back to the metadata register.
    pub slow_dead_fetch_rounds: u64,
    /// Metadata re-reads forced by unresolvable references.
    pub slow_metadata_rereads: u64,
    /// Self-healing repair fan-outs (peer-pull rounds started by data
    /// replicas after detecting a missing or corrupt fragment);
    /// `0` unless [`StoreBuilder::anti_entropy`] is enabled.
    pub repair_rounds: u64,
}

impl WorkloadReport {
    /// Estimated total bytes on the wire across both planes.
    pub fn total_bytes(&self) -> u64 {
        self.metadata_bytes + self.bulk_bytes
    }

    /// Metadata-plane messages per completed operation.
    pub fn metadata_messages_per_op(&self) -> f64 {
        self.metadata_messages as f64 / self.completed.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_skews_toward_low_ranks() {
        let sampler = KeyDist::Zipfian { theta: 0.99 }.sampler(64);
        let mut rng = DetRng::from_seed(9);
        let mut counts = [0usize; 64];
        for _ in 0..10_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[10] && counts[10] > counts[40],
            "head must dominate: {counts:?}"
        );
        // Sanity: Zipf(0.99) head mass — rank 0 draws roughly 1/H_64 ≈ 21%.
        assert!(counts[0] > 1_500);
    }

    #[test]
    fn uniform_is_flat() {
        let sampler = KeyDist::Uniform.sampler(16);
        let mut rng = DetRng::from_seed(10);
        let mut counts = [0usize; 16];
        for _ in 0..16_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700 && c < 1_300), "{counts:?}");
    }

    #[test]
    fn restricted_sampler_keeps_global_weights() {
        // A writer owning global ranks {5, 13} must weight them
        // 1/6^θ : 1/14^θ — NOT re-ranked locally as 1 : 1/2^θ.
        let dist = KeyDist::Zipfian { theta: 1.0 };
        let sampler = dist.sampler_for_ranks(vec![5, 13]);
        let mut rng = DetRng::from_seed(3);
        let mut first = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if sampler.sample(&mut rng) == 0 {
                first += 1;
            }
        }
        // Expected share of rank 5: (1/6) / (1/6 + 1/14) = 0.7.
        let share = first as f64 / n as f64;
        assert!(
            (share - 0.7).abs() < 0.02,
            "rank-5 share {share:.3}, want ≈0.70 (local re-ranking would give ≈0.667)"
        );
    }

    #[test]
    fn mixes_have_expected_fractions() {
        assert_eq!(OpMix::ycsb_a().read_fraction, 0.5);
        assert_eq!(OpMix::ycsb_b().read_fraction, 0.95);
        assert_eq!(OpMix::ycsb_c().read_fraction, 1.0);
    }
}
