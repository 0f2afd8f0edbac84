//! One-call construction of a complete store deployment inside the
//! simulator: the shared server fleet, the writer/reader clients, fault
//! hooks, and per-key history extraction for the checkers.

use crate::health::{FlightRecord, ReplicaHealth, ShardHealth, StoreHealth};
use crate::msg::{StoreMsg, StoreOut};
use crate::node::{DataPlane, StoreClientNode, StorePayload, StoreServerNode, StoreWire};
use crate::router::{KeyRouter, ReshardPlan, RoutingTable};
use crate::val::StoreVal;
use sbs_bulk::{data_replica_count, BulkCodec, BulkRef, FragmentStore};
use sbs_check::{
    atomic_stabilization_point, check_linearizable, History, InitialState, OpKind, OpRecord,
};
use sbs_core::{
    ByzServerNode, ByzStrategy, Payload, ReadKind, RegId, RegMsg, RegisterConfig, SeqVal,
    ServerNode, SyncMode,
};
use sbs_sim::{
    ConsistencyMonitor, DelayModel, DetRng, LatencyHistogram, LatencySummary, Node, OpId,
    ProcessId, SimConfig, SimDuration, SimTime, Simulation, Violation,
};
use sbs_stamps::{RingSeq, PAPER_MODULUS};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How long `settle` simulates before declaring the store non-quiescent
/// (the [`StoreBuilder::settle_horizon`] default).
const SETTLE_HORIZON: SimDuration = SimDuration::secs(600);

/// The communication assumption a store is built for, as carried by the
/// builder: the synchronous variant keeps the *link bound* it was declared
/// with (the per-round timeout is derived from it at build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BuilderMode {
    /// Figure 2/3: unbounded delays, `n ≥ 8t + 1`.
    Async,
    /// Figure 5 / Appendix A: delays bounded by `link_bound`, `n ≥ 3t + 1`.
    Sync { link_bound: SimDuration },
}

/// A frozen snapshot of everything one deployment was built with: the
/// communication mode (with its derived timeout), the data plane, the
/// sharding shape, and the per-mode quorum sizes the embedded register
/// engines will use. Obtained from [`StoreBuilder::config`] before
/// building, or [`StoreSystem::config`] on a running deployment.
///
/// The quorum fields are *derived* values (they follow from `n`, `t` and
/// `mode` per the Figure 2/5 table in `sbs_core::RegisterConfig`), frozen
/// here so tests can pin them and operators can read them off a deployment
/// without re-deriving the paper's arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of servers in the shared fleet.
    pub n: usize,
    /// Byzantine servers tolerated.
    pub t: usize,
    /// Communication assumption (the synchronous variant carries the
    /// derived per-round timeout).
    pub mode: SyncMode,
    /// Where shard payload bytes travel.
    pub plane: DataPlane,
    /// Register shards the keyspace is hashed onto.
    pub shards: u32,
    /// Writer clients the shards are partitioned over.
    pub writers: usize,
    /// Additional read-only clients.
    pub extra_readers: usize,
    /// Acknowledgements a client round waits for (`n − t` async; all `n`
    /// — or the timeout — sync).
    pub ack_quorum: usize,
    /// Identical `last_val` copies a read needs (`2t + 1` / `t + 1`).
    pub last_quorum: usize,
    /// Identical helping copies a read needs (`2t + 1` / `t + 1`).
    pub help_quorum: usize,
    /// Identical helping copies letting the writer skip `NEW_HELP_VAL`
    /// (`4t + 1` / `t + 1`).
    pub writer_help_quorum: usize,
}

impl StoreConfig {
    /// True in synchronous mode.
    pub fn is_sync(&self) -> bool {
        matches!(self.mode, SyncMode::Sync { .. })
    }

    /// The derived per-round timeout, if operating synchronously.
    pub fn timeout(&self) -> Option<SimDuration> {
        match self.mode {
            SyncMode::Async => None,
            SyncMode::Sync { timeout } => Some(timeout),
        }
    }
}

/// Builder for a [`StoreSystem`].
///
/// Entry points carry the communication mode and derive the minimal fleet
/// for it — [`StoreBuilder::asynchronous`] (`n = 8t + 1`) and
/// [`StoreBuilder::synchronous`] (`n = 3t + 1`) — with [`StoreBuilder::n`]
/// to deploy more servers than the minimum. Cross-knob consistency is
/// validated when the deployment is built (or when
/// [`StoreBuilder::config`] snapshots it): the resilience bound for the
/// mode, a synchronous link bound that dominates the delay model, a
/// bulk window that fits the fleet and the `k + t` push quorum, and
/// well-formed Byzantine slots.
#[derive(Clone, Debug)]
pub struct StoreBuilder {
    n: usize,
    t: usize,
    mode: BuilderMode,
    seed: u64,
    shards: u32,
    writers: usize,
    extra_readers: usize,
    delay: DelayModel,
    byz: Vec<(usize, ByzStrategy)>,
    retry_after: Option<SimDuration>,
    wsn_modulus: u128,
    plane: DataPlane,
    settle_horizon: SimDuration,
    batch_window: SimDuration,
    adaptive_batch: bool,
    bulk_retain: Option<usize>,
    anti_entropy: Option<SimDuration>,
    trace: usize,
    monitor: bool,
}

impl StoreBuilder {
    fn with_mode(n: usize, t: usize, mode: BuilderMode, delay: DelayModel) -> Self {
        StoreBuilder {
            n,
            t,
            mode,
            seed: 1,
            shards: 1,
            writers: 1,
            extra_readers: 0,
            delay,
            byz: Vec::new(),
            retry_after: None,
            wsn_modulus: PAPER_MODULUS,
            plane: DataPlane::Full,
            settle_horizon: SETTLE_HORIZON,
            batch_window: SimDuration::ZERO,
            adaptive_batch: false,
            bulk_retain: None,
            anti_entropy: None,
            trace: 0,
            monitor: false,
        }
    }

    /// An **asynchronous** store (Figure 2/3 registers: unbounded link
    /// delays, rounds wait for `n − t` acknowledgements) tolerating `t`
    /// Byzantine servers on the minimal fleet `n = 8t + 1`, with one shard
    /// and one writer by default. Use [`StoreBuilder::n`] to deploy more
    /// servers than the minimum.
    pub fn asynchronous(t: usize) -> Self {
        Self::with_mode(
            8 * t + 1,
            t,
            BuilderMode::Async,
            DelayModel::Uniform {
                lo: SimDuration::micros(50),
                hi: SimDuration::millis(2),
            },
        )
    }

    /// A **synchronous** store (Figure 5 / Appendix A registers: link
    /// delays bounded by `link_bound`, rounds wait for all `n`
    /// acknowledgements or the timeout derived from the bound) tolerating
    /// `t` Byzantine servers on the minimal fleet `n = 3t + 1` — fewer
    /// than half the asynchronous fleet for the same `t`, paying with
    /// timeout-bound latency whenever a server is silent.
    ///
    /// The default delay model is uniform in `[link_bound / 10,
    /// link_bound]`; overriding it with [`StoreBuilder::delay`] is
    /// validated at build time — the model's upper bound must stay within
    /// `link_bound`, otherwise the mode's "wait for all `n` or time out"
    /// rule would wrongly suspect correct-but-slow servers.
    pub fn synchronous(t: usize, link_bound: SimDuration) -> Self {
        Self::with_mode(
            3 * t + 1,
            t,
            BuilderMode::Sync { link_bound },
            DelayModel::Uniform {
                lo: SimDuration::nanos(link_bound.as_nanos() / 10),
                hi: link_bound,
            },
        )
    }

    /// Deploys `n` servers instead of the mode's minimal fleet. The
    /// mode's resilience bound (`n ≥ 8t + 1` asynchronous, `n ≥ 3t + 1`
    /// synchronous) is still enforced at build time.
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Switches the payload to the **bulk data plane** with whole copies
    /// on the data replicas — exactly [`StoreBuilder::bulk_coded`]`(1)`,
    /// the `k = 1` dispersal whose every fragment is the whole payload.
    /// The window is the canonical `2t + 1` data replicas per shard (the
    /// Cachin–Dobre–Vukolić bound) unless [`StoreBuilder::data_replicas`]
    /// chose another; the metadata quorum then carries only fixed-size
    /// references. The default remains [`DataPlane::Full`] — full
    /// replication, the paper's original scheme.
    pub fn bulk(self) -> Self {
        self.bulk_coded(1)
    }

    /// Sets the bulk-plane window to `replicas` data replicas per shard,
    /// keeping the reconstruction threshold `k` already chosen (whole
    /// copies, `k = 1`, when none was) — so `.data_replicas(m)` and
    /// [`StoreBuilder::bulk_coded`] commute. The `k + t ≤ replicas` rule
    /// is validated at build time.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ replicas ≤ n`.
    pub fn data_replicas(mut self, replicas: usize) -> Self {
        assert!(
            (1..=self.n).contains(&replicas),
            "replication factor {replicas} out of range for n={}",
            self.n
        );
        let k = self.plane.coding().map_or(1, |(k, _)| k);
        self.plane = DataPlane::Coded { replicas, k };
        self
    }

    /// Switches the payload to the **bulk data plane** with
    /// erasure-coded dispersal (AVID-style): each replica of the window
    /// — `2t + 1` by default, or whatever [`StoreBuilder::data_replicas`]
    /// selected — stores only **one `k`-of-`m` fragment** (~`1/k` of the
    /// payload), verified against a Merkle commitment whose root rides
    /// the metadata quorum. Pushes wait for `k + t` verified
    /// acknowledgements; reads reconstruct from any `k` verified
    /// fragments. `k = 1` is [`StoreBuilder::bulk`].
    ///
    /// Cross-knob consistency (`k ≥ 1`, `k + t ≤ replicas` — reads must
    /// stay live with `t` Byzantine replicas garbling their fragments)
    /// is validated at build time.
    ///
    /// Write-liveness note: on the minimal `2t + 1` window with `k > 1`
    /// the `k + t` push quorum needs acks from every replica, so a
    /// **fail-silent** data replica would stall puts (the in-repo
    /// adversaries ack honestly and lie only when serving, so
    /// simulations stay live). Deployments that must tolerate silent
    /// data replicas should overprovision:
    /// `.data_replicas(3 * t + 1).bulk_coded(t + 1)` restores write
    /// liveness from honest acks alone (the classical AVID shape).
    pub fn bulk_coded(mut self, k: usize) -> Self {
        let replicas = self
            .plane
            .coding()
            .map_or(data_replica_count(self.t), |(_, m)| m);
        self.plane = DataPlane::Coded { replicas, k };
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of register shards the keyspace is hashed onto.
    pub fn shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1);
        self.shards = shards;
        self
    }

    /// Number of writer clients the shards are partitioned over
    /// (round-robin; each shard keeps a single writer — the SWMR rule).
    pub fn writers(mut self, writers: usize) -> Self {
        assert!(writers >= 1);
        self.writers = writers;
        self
    }

    /// Additional read-only clients.
    pub fn extra_readers(mut self, readers: usize) -> Self {
        self.extra_readers = readers;
        self
    }

    /// Overrides the link delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Makes server `index` Byzantine with the given strategy. Validated
    /// at build time: the index must name a server (`index < n`), no
    /// server may be assigned twice, and at most `t` servers may be
    /// Byzantine (the resilience claim is meaningless beyond `t`).
    pub fn byzantine(mut self, index: usize, strategy: ByzStrategy) -> Self {
        self.byz.push((index, strategy));
        self
    }

    /// Overrides the asynchronous retransmission period.
    pub fn retry_after(mut self, d: SimDuration) -> Self {
        self.retry_after = Some(d);
        self
    }

    /// Overrides the bounded sequence-number modulus (must be odd).
    pub fn wsn_modulus(mut self, modulus: u128) -> Self {
        self.wsn_modulus = modulus;
        self
    }

    /// Sets the clients' Nagle **batch window**: an operation arriving at
    /// a fully idle client is held up to `window` so operations arriving
    /// within it (open-loop bursts) fold into the same register round —
    /// queued puts on one shard share a single map publish, queued gets
    /// on one shard share a single metadata read. Zero (the default)
    /// launches every operation immediately, reproducing the unbatched
    /// behavior exactly. No operation is ever held past its flush
    /// deadline, and queue order is preserved. Safe in both communication
    /// modes: the hold delays only the *launch*, never a round in flight,
    /// so the synchronous timeout discipline is untouched.
    pub fn batch_window(mut self, window: SimDuration) -> Self {
        self.batch_window = window;
        self
    }

    /// Makes the Nagle [`StoreBuilder::batch_window`] **adaptive**: an
    /// operation that finds its client fully idle — nothing held,
    /// nothing in flight, i.e. the queue has just drained — closes the
    /// window early and launches immediately, killing the idle-latency
    /// cost of the hold. Operations arriving while a round is in flight
    /// still coalesce exactly as before, so batching under backlog (and
    /// per-key write order) is preserved; launching *earlier* only
    /// shrinks latitude the register contract already grants. Off by
    /// default: without this call every run is bit-identical to the
    /// fixed-window behavior. No effect while the window is zero.
    pub fn adaptive_batch(mut self) -> Self {
        self.adaptive_batch = true;
        self
    }

    /// Bounds every data replica's fragment store to the last `retain`
    /// distinct roots per shard (retain-last-K GC): overwrite churn
    /// then plateaus instead of accumulating orphaned snapshots.
    /// `retain ≥ 2` keeps the previous snapshot resolvable for concurrent
    /// readers; readers chasing older references fall back to a metadata
    /// re-read. Only meaningful on the bulk plane.
    ///
    /// # Panics
    ///
    /// Panics on `retain == 0` at build time (a replica storing nothing
    /// could never acknowledge a push).
    pub fn bulk_retain(mut self, retain: usize) -> Self {
        self.bulk_retain = Some(retain);
        self
    }

    /// Enables the **self-healing data plane** with anti-entropy period
    /// `period`: every data replica then (a) pulls missing or corrupt
    /// entries from its window peers the moment a serve detects them
    /// (proactive repair — no writer involvement), (b) re-checks the
    /// Merkle path of everything it serves, and (c) gossips a
    /// bounded rotating digest summary to one peer per period, pulling
    /// whatever it should hold but does not — so a replica whose data
    /// stores were wiped mid-run converges back to the committed state.
    /// Server↔server links are installed only when this is set.
    ///
    /// **Off by default**, and deliberately so: with it off no extra
    /// timers, messages, links, or RNG draws exist, keeping every
    /// pre-existing run bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on a zero period at build time (the gossip timer could
    /// never advance).
    pub fn anti_entropy(mut self, period: SimDuration) -> Self {
        self.anti_entropy = Some(period);
        self
    }

    /// Enables the protocol trace: the simulation keeps the most recent
    /// `capacity` structured events (op lifecycle, phase transitions,
    /// quorum acks, retransmissions, fault injections, guard refusals),
    /// readable through [`StoreSystem::tracer`](StoreSystem) and
    /// exportable as JSONL or Chrome trace-event JSON. Zero (the default)
    /// leaves tracing off — the hot path then pays a single branch and
    /// allocates nothing, and every message/byte count is bit-identical
    /// to an untraced run.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace = capacity;
        self
    }

    /// Enables the online atomicity monitor: every `put`/`get` is fed to
    /// an incremental per-key WGL-style checker as it is invoked and
    /// completed, so a non-atomic response is flagged **at event time**
    /// (with the violating op, its sim-time, and the culprit op set —
    /// see [`StoreSystem::monitor_violations`](StoreSystem)) instead of
    /// by a post-hoc history check. Off by default; monitoring is
    /// harness-side only and never perturbs the simulation schedule.
    pub fn monitor(mut self) -> Self {
        self.monitor = true;
        self
    }

    /// Overrides how long [`StoreSystem::settle`] simulates before
    /// declaring the store non-quiescent (default 600 simulated seconds).
    /// Long open-loop runs and timeout-heavy synchronous deployments can
    /// extend it; tests probing wedged states can shrink it.
    ///
    /// # Panics
    ///
    /// Panics on a zero horizon (settle could then never make progress).
    pub fn settle_horizon(mut self, horizon: SimDuration) -> Self {
        assert!(
            horizon > SimDuration::ZERO,
            "settle horizon must be positive"
        );
        self.settle_horizon = horizon;
        self
    }

    /// Validates cross-knob consistency and derives the register
    /// configuration the embedded engines will run with.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency: the mode's resilience bound
    /// (`n ≥ 8t + 1` / `n ≥ 3t + 1`), a synchronous link bound that the
    /// delay model exceeds (or an unbounded delay model in synchronous
    /// mode), a bulk window outside `1..=n` or too small for the `k + t`
    /// push quorum, a Byzantine index
    /// `≥ n`, a duplicated Byzantine index, or more than `t` Byzantine
    /// slots.
    fn register_config(&self) -> RegisterConfig {
        let mut cfg = match self.mode {
            BuilderMode::Async => RegisterConfig::asynchronous(self.n, self.t),
            BuilderMode::Sync { link_bound } => {
                let hi = self.delay.upper_bound().unwrap_or_else(|| {
                    panic!(
                        "synchronous mode requires a bounded delay model, got {:?}",
                        self.delay
                    )
                });
                assert!(
                    hi <= link_bound,
                    "synchronous link bound {link_bound} must dominate the delay model's \
                     upper bound {hi} — a slower link would make correct servers look faulty"
                );
                RegisterConfig::synchronous(self.n, self.t, link_bound)
            }
        };
        if let Some((k, replicas)) = self.plane.coding() {
            assert!(
                (1..=self.n).contains(&replicas),
                "bulk replication factor {replicas} out of range for n={}",
                self.n
            );
            assert!(k >= 1, "coded mode needs at least one fragment to read");
            assert!(
                k + self.t <= replicas,
                "coded reconstruction threshold k={k} too high: k + t must fit within the \
                 {replicas}-replica window, or t={} Byzantine replicas could starve every \
                 push (k + t acks) and every read (k verified fragments)",
                self.t
            );
            // Fragment indices are GF(2⁸) field points: the Reed–Solomon
            // code caps a dispersal at 256 fragments. Catch an oversized
            // window here, at build time, instead of panicking inside the
            // encoder on the first publish.
            assert!(
                replicas <= 256,
                "coded window of {replicas} replicas exceeds 256: fragment indices are \
                 GF(2⁸) field points, so a dispersal cannot span more fragments"
            );
        }
        assert!(
            self.anti_entropy != Some(SimDuration::ZERO),
            "anti-entropy period must be positive — a zero period could never advance the \
             gossip timer"
        );
        let mut seen = BTreeSet::new();
        for &(i, _) in &self.byz {
            assert!(
                i < self.n,
                "byzantine index {i} out of range: the fleet has servers 0..{}",
                self.n
            );
            assert!(
                seen.insert(i),
                "byzantine index {i} assigned twice — each server takes one strategy"
            );
        }
        assert!(
            self.byz.len() <= self.t,
            "{} byzantine servers exceed the tolerated t={}",
            self.byz.len(),
            self.t
        );
        if let Some(r) = self.retry_after {
            cfg = cfg.with_retry_after(r);
        }
        cfg
    }

    /// Validates the builder and snapshots the [`StoreConfig`] a
    /// deployment built from it would run with — mode, derived timeout,
    /// plane, sharding shape, and the per-mode quorum sizes.
    ///
    /// # Panics
    ///
    /// Panics on any cross-knob inconsistency (see the builder docs).
    pub fn config(&self) -> StoreConfig {
        self.snapshot(self.register_config())
    }

    /// The [`StoreConfig`] for an already-validated register config
    /// (keeps `build` from running the validation twice).
    fn snapshot(&self, cfg: RegisterConfig) -> StoreConfig {
        StoreConfig {
            n: self.n,
            t: self.t,
            mode: cfg.mode,
            plane: self.plane,
            shards: self.shards,
            writers: self.writers,
            extra_readers: self.extra_readers,
            ack_quorum: cfg.ack_quorum(),
            last_quorum: cfg.last_quorum(),
            help_quorum: cfg.help_quorum(),
            writer_help_quorum: cfg.writer_help_quorum(),
        }
    }

    /// Builds the deployment: `n` servers, `writers + extra_readers`
    /// clients, every client↔server link installed, Byzantine slots
    /// filled (Byzantine at *both* planes: register strategy + garbled
    /// bulk serving), and the garbage generator armed for link-corruption
    /// drills.
    ///
    /// # Panics
    ///
    /// Panics on any cross-knob inconsistency (see
    /// [`StoreBuilder::config`]).
    pub fn build<V: Payload + BulkCodec>(&self) -> StoreSystem<V> {
        let cfg = self.register_config();
        let snapshot = self.snapshot(cfg);
        let router = KeyRouter::new(self.shards, self.writers as u32);
        let mut sim: Simulation<StoreWire<V>, StoreOut<V>> =
            Simulation::new(SimConfig::with_seed(self.seed));
        if self.trace > 0 {
            sim.enable_tracing(self.trace);
        }
        let clients: Vec<ProcessId> = (0..self.writers + self.extra_readers)
            .map(|_| sim.reserve_id())
            .collect();
        let servers: Vec<ProcessId> = (0..self.n).map(|_| sim.reserve_id()).collect();
        for &s in &servers {
            for &c in &clients {
                sim.add_duplex(c, s, self.delay.clone());
            }
        }
        // Server↔server links exist only for the self-healing repair
        // plane: without anti-entropy no server ever addresses a peer,
        // and not installing the links keeps the link table (and the
        // delay-model RNG consumption) bit-identical to older builds.
        if self.anti_entropy.is_some() {
            for (i, &a) in servers.iter().enumerate() {
                for &b in &servers[i + 1..] {
                    sim.add_duplex(a, b, self.delay.clone());
                }
            }
        }
        let initial: StorePayload<V> =
            SeqVal::new(RingSeq::zero(self.wsn_modulus), StoreVal::empty());
        let mut byz_set = BTreeSet::new();
        for (i, &s) in servers.iter().enumerate() {
            match self.byz_strategy(i) {
                Some(strat) => {
                    byz_set.insert(i);
                    let inner = ByzServerNode::new(strat.clone(), initial.clone());
                    sim.add_node_at(s, self.server_node(i, inner, &servers).byzantine_bulk())
                }
                None => {
                    let inner = ServerNode::new(initial.clone());
                    sim.add_node_at(s, self.server_node(i, inner, &servers))
                }
            }
        }
        for (i, &c) in clients.iter().enumerate() {
            let owned = if i < self.writers {
                router.shards_of_writer(i)
            } else {
                Vec::new()
            };
            sim.add_node_at(
                c,
                StoreClientNode::<V>::new(
                    cfg,
                    router,
                    servers.clone(),
                    clients.clone(),
                    &owned,
                    self.wsn_modulus,
                    self.plane,
                )
                .batch_window(self.batch_window)
                .adaptive_batch(self.adaptive_batch),
            );
        }
        install_garbage_gen(&mut sim, initial, self.shards);
        StoreSystem {
            sim,
            clients,
            servers,
            table: RoutingTable::initial(router),
            config: snapshot,
            settle_horizon: self.settle_horizon,
            byz_servers: byz_set,
            log: StoreLog::new(),
            latency: BTreeMap::new(),
            monitor: self.monitor.then(|| ConsistencyMonitor::with_initial(None)),
            reshard: None,
        }
    }

    /// Builds the same fleet as [`StoreBuilder::build`] — same node types,
    /// same process-id assignment (clients `0..writers+extra_readers`,
    /// then servers), same Byzantine slots — but **runtime-detached**:
    /// instead of installing the nodes into the simulator it returns them
    /// as boxed [`Node`]s for a thread or socket runtime
    /// (`ThreadRuntime::spawn`, `sbs-net`) to host. The simulator-only
    /// fault hooks (link garbage, scheduled corruption) do not apply.
    ///
    /// # Panics
    ///
    /// Panics on any cross-knob inconsistency (see
    /// [`StoreBuilder::config`]).
    pub fn build_nodes<V: Payload + BulkCodec + Send + Sync>(&self) -> StoreNodeSet<V> {
        let cfg = self.register_config();
        let snapshot = self.snapshot(cfg);
        let router = KeyRouter::new(self.shards, self.writers as u32);
        let clients: Vec<ProcessId> = (0..self.writers + self.extra_readers)
            .map(|i| ProcessId(i as u32))
            .collect();
        let base = clients.len() as u32;
        let servers: Vec<ProcessId> = (0..self.n).map(|i| ProcessId(base + i as u32)).collect();
        let initial: StorePayload<V> =
            SeqVal::new(RingSeq::zero(self.wsn_modulus), StoreVal::empty());
        let mut nodes: Vec<Box<dyn Node<Msg = StoreWire<V>, Out = StoreOut<V>> + Send>> =
            Vec::with_capacity(clients.len() + servers.len());
        for (i, _) in clients.iter().enumerate() {
            let owned = if i < self.writers {
                router.shards_of_writer(i)
            } else {
                Vec::new()
            };
            nodes.push(Box::new(
                StoreClientNode::<V>::new(
                    cfg,
                    router,
                    servers.clone(),
                    clients.clone(),
                    &owned,
                    self.wsn_modulus,
                    self.plane,
                )
                .batch_window(self.batch_window)
                .adaptive_batch(self.adaptive_batch),
            ));
        }
        for i in 0..self.n {
            match self.byz_strategy(i) {
                Some(strat) => {
                    let inner = ByzServerNode::new(strat.clone(), initial.clone());
                    nodes.push(Box::new(
                        self.server_node(i, inner, &servers).byzantine_bulk(),
                    ))
                }
                None => {
                    let inner = ServerNode::new(initial.clone());
                    nodes.push(Box::new(self.server_node(i, inner, &servers)))
                }
            }
        }
        StoreNodeSet {
            nodes,
            clients,
            servers,
            router,
            config: snapshot,
            wsn_modulus: self.wsn_modulus,
            seed: self.seed,
            monitor: self.monitor,
        }
    }

    /// The strategy server `slot` runs, if the builder made it Byzantine.
    fn byz_strategy(&self, slot: usize) -> Option<&ByzStrategy> {
        self.byz.iter().find(|(i, _)| *i == slot).map(|(_, s)| s)
    }

    /// Wraps server `slot`'s register machine in the store's data-plane
    /// layer, identically for every backend: the admission guard (its
    /// fleet slot, the shard count, and the plane's window, so
    /// wire-supplied shard tags, fragment totals, and fragment indices
    /// are checked against the deployment instead of trusted), the
    /// retention bound, and — with anti-entropy on — the self-healing
    /// plane over the whole fleet `servers`.
    fn server_node<P: Payload, Inner>(
        &self,
        slot: usize,
        inner: Inner,
        servers: &[ProcessId],
    ) -> StoreServerNode<P, Inner> {
        let (k, replicas) = self.plane.coding().unwrap_or((1, 0));
        let node = StoreServerNode::new(inner)
            .bulk_guard(slot, self.n, self.shards, replicas)
            .bulk_retention(self.bulk_retain);
        match self.anti_entropy {
            Some(period) => node.self_healing(servers.to_vec(), k, period),
            None => node,
        }
    }
}

/// A runtime-detached fleet from [`StoreBuilder::build_nodes`]: the boxed
/// node state machines plus the deployment facts a hosting runtime needs
/// (id layout, routing, config, seed). `nodes[i]` is the node addressed
/// as `ProcessId(i)` — clients first, then servers, matching the
/// simulator's id assignment so differential runs line up.
pub struct StoreNodeSet<V: Payload> {
    /// The node state machines, indexed by process id.
    pub nodes: Vec<Box<dyn Node<Msg = StoreWire<V>, Out = StoreOut<V>> + Send>>,
    /// Client process ids (`writers` first, then extra readers).
    pub clients: Vec<ProcessId>,
    /// Server process ids.
    pub servers: Vec<ProcessId>,
    /// The key→shard→writer routing table.
    pub router: KeyRouter,
    /// The frozen deployment snapshot.
    pub config: StoreConfig,
    /// The write-sequence-number ring modulus (a codec needs it to
    /// validate decoded sequence numbers).
    pub wsn_modulus: u128,
    /// The builder's seed, for the hosting runtime's per-node RNG streams.
    pub seed: u64,
    /// Whether the builder asked for an online consistency monitor.
    pub monitor: bool,
}

impl<V: Payload> std::fmt::Debug for StoreNodeSet<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreNodeSet")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Arms the garbage generator: arbitrary initial link contents are batches
/// of fabricated protocol messages over random shards — or fabricated
/// bulk-plane transfers, whose forged fragments the replica-side guard
/// and commitment replay and the client-side verification must reject.
fn install_garbage_gen<V: Payload + BulkCodec>(
    sim: &mut Simulation<StoreWire<V>, StoreOut<V>>,
    template: StorePayload<V>,
    shards: u32,
) {
    sim.set_garbage_gen(move |rng: &mut DetRng, _from, _to| {
        let mut val = template.clone();
        val.scramble(rng);
        let shard = (rng.next_u64() % shards as u64) as u32;
        let reg = RegId(shard);
        let msg = match rng.next_u64() % 9 {
            0 => RegMsg::Write {
                reg,
                tag: rng.next_u64(),
                val,
            },
            1 => RegMsg::Read {
                reg,
                tag: rng.next_u64(),
                kind: if rng.chance(0.5) {
                    ReadKind::New
                } else {
                    ReadKind::Again
                },
            },
            2 => RegMsg::SsAck {
                tag: rng.next_u64(),
            },
            3 => RegMsg::AckWrite {
                reg,
                helping: vec![(ProcessId(0), Some(val))],
            },
            4 => RegMsg::AckRead {
                reg,
                last: val,
                helping: None,
            },
            5 => {
                // Forged shapeless push: a zero-fragment "dispersal" of
                // garbage bytes under a random root — the replica-side
                // guard must refuse its shape outright.
                let mut fake = BulkRef::to_bytes(b"");
                Payload::scramble(&mut fake, rng);
                return StoreMsg::FragPut {
                    shard,
                    root: fake.digest,
                    index: 0,
                    total: 0,
                    bytes: (0..(rng.next_u64() % 32))
                        .map(|_| rng.next_u64() as u8)
                        .collect::<Vec<u8>>()
                        .into(),
                    proof: Vec::new(),
                };
            }
            6 => {
                // Forged fetch reply with garbage bytes, no proof, and a
                // random tag.
                let mut fake = BulkRef::to_bytes(b"");
                Payload::scramble(&mut fake, rng);
                return StoreMsg::FragGetAck {
                    shard,
                    root: fake.digest,
                    tag: rng.next_u64(),
                    frag: rng.chance(0.5).then(|| {
                        let bytes = (0..(rng.next_u64() % 32))
                            .map(|_| rng.next_u64() as u8)
                            .collect::<Vec<u8>>()
                            .into();
                        (0, bytes, Vec::new())
                    }),
                };
            }
            7 => {
                // Forged fragment push: a Merkle path of random digests
                // that (almost surely) does not authenticate the bytes —
                // the replica-side commitment replay must refuse it.
                let mut fake = BulkRef::to_bytes(b"");
                Payload::scramble(&mut fake, rng);
                let mut sib = BulkRef::to_bytes(b"");
                Payload::scramble(&mut sib, rng);
                return StoreMsg::FragPut {
                    shard,
                    root: fake.digest,
                    index: (rng.next_u64() % 4) as u32,
                    total: 3,
                    bytes: (0..(rng.next_u64() % 32))
                        .map(|_| rng.next_u64() as u8)
                        .collect::<Vec<u8>>()
                        .into(),
                    proof: vec![sib.digest],
                };
            }
            _ => {
                // Forged fragment reply: garbage index, bytes, and proof
                // under a random root and tag — the client-side
                // verification must count it bad (or ignore its stale
                // tag), never feed it to reconstruction.
                let mut fake = BulkRef::to_bytes(b"");
                Payload::scramble(&mut fake, rng);
                let mut sib = BulkRef::to_bytes(b"");
                Payload::scramble(&mut sib, rng);
                return StoreMsg::FragGetAck {
                    shard,
                    root: fake.digest,
                    tag: rng.next_u64(),
                    frag: rng.chance(0.7).then(|| {
                        (
                            (rng.next_u64() % 4) as u32,
                            (0..(rng.next_u64() % 32))
                                .map(|_| rng.next_u64() as u8)
                                .collect::<Vec<u8>>()
                                .into(),
                            vec![sib.digest],
                        )
                    }),
                };
            }
        };
        StoreMsg::Batch(vec![msg])
    });
}

/// What one completed store operation did to its key.
#[derive(Clone, Debug)]
struct KeyedRecord<V> {
    key: String,
    record: OpRecord<Option<V>>,
}

/// Store operation bookkeeping: invocation intervals plus the key each
/// operation touched, so per-key histories can be extracted.
#[derive(Debug)]
struct StoreLog<V> {
    next_op: u64,
    invoked: HashMap<OpId, (ProcessId, SimTime, String, Option<V>)>,
    completed: Vec<KeyedRecord<V>>,
}

impl<V: Payload> StoreLog<V> {
    fn new() -> Self {
        StoreLog {
            next_op: 0,
            invoked: HashMap::new(),
            completed: Vec::new(),
        }
    }

    /// Every touched key's history, in sorted key order, grouped in one
    /// pass over the completed log (each key's records keep their
    /// completion order). Histories are built one key at a time as the
    /// iterator advances, so a checker holds one copy of one key's
    /// records at once.
    fn histories(&self) -> impl Iterator<Item = (&str, History<Option<V>>)> + '_ {
        let mut by_key: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, r) in self.completed.iter().enumerate() {
            by_key.entry(&r.key).or_default().push(i);
        }
        by_key.into_iter().map(|(key, idx)| {
            let records = idx.iter().map(|&i| self.completed[i].record.clone());
            (key, History::new(records.collect()))
        })
    }

    fn fresh(&mut self, client: ProcessId, now: SimTime, key: &str, put_val: Option<V>) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.invoked
            .insert(op, (client, now, key.to_string(), put_val));
        op
    }

    /// Records the completion; returns `(kind, shard, latency_ns)` for
    /// the latency histograms (`None` on a duplicate completion).
    fn complete(
        &mut self,
        op: OpId,
        at: SimTime,
        read_value: Option<Option<V>>,
        router: &KeyRouter,
    ) -> Option<(&'static str, u32, u64)> {
        let Some((client, invoked, key, put_val)) = self.invoked.remove(&op) else {
            return None; // duplicate completion after corruption — ignore
        };
        let kind_name = if put_val.is_some() { "put" } else { "get" };
        let shard = router.shard_of(&key);
        let latency_ns = at.as_nanos().saturating_sub(invoked.as_nanos());
        let kind = match put_val {
            Some(v) => OpKind::Write(Some(v)),
            None => OpKind::Read(read_value.expect("get completion carries a value")),
        };
        self.completed.push(KeyedRecord {
            key,
            record: OpRecord {
                client,
                op,
                invoked,
                responded: at,
                kind,
            },
        });
        Some((kind_name, shard, latency_ns))
    }
}

/// One live shard handoff, tracked from [`StoreSystem::begin_reshard`]
/// until every migrating shard has been adopted by its new owner. The
/// harness is the *orchestrator* role of the dual-commit protocol: it
/// observes the control events the clients emit and gates each step on
/// the previous one, so the new owner's adoption read never races the
/// old owner's final publish.
#[derive(Debug)]
struct ReshardInFlight {
    /// The migrating shards as `(shard, old_writer, new_writer)`.
    moves: Vec<(u32, u32, u32)>,
    /// Shards whose old owner has not yet emitted `ShardRetired`.
    awaiting_retire: BTreeSet<u32>,
    /// Whether the coordinator's `EpochCommitted` has been observed.
    committed: bool,
    /// Whether the acquire step has been issued to the new owners (it
    /// is gated on all retires *and* the commit).
    acquires_issued: bool,
    /// Shards whose new owner has emitted `ShardAcquired`.
    acquired: BTreeSet<u32>,
}

/// A running store deployment.
#[derive(Debug)]
pub struct StoreSystem<V: Payload + BulkCodec> {
    /// The underlying simulation (exposed for custom scheduling).
    pub sim: Simulation<StoreWire<V>, StoreOut<V>>,
    /// All clients: the `writers` shard owners first, then the read-only
    /// clients.
    pub clients: Vec<ProcessId>,
    /// The shared server fleet.
    pub servers: Vec<ProcessId>,
    table: RoutingTable,
    config: StoreConfig,
    settle_horizon: SimDuration,
    byz_servers: BTreeSet<usize>,
    log: StoreLog<V>,
    /// Completed-op latency histograms keyed by op kind × shard, fed as
    /// completions are drained.
    latency: BTreeMap<(&'static str, u32), LatencyHistogram>,
    /// The online atomicity monitor over `Option<V>` (`None` = key
    /// absent), fed at invoke/drain time; `None` when not enabled.
    monitor: Option<ConsistencyMonitor<Option<V>>>,
    /// The in-flight shard handoff, if a reshard is underway.
    reshard: Option<ReshardInFlight>,
}

impl<V: Payload + BulkCodec> StoreSystem<V> {
    /// The static key→shard hash base the routing table is built on.
    pub fn router(&self) -> &KeyRouter {
        self.table.base()
    }

    /// The epoch-versioned routing table in force. New puts route by it
    /// the moment [`StoreSystem::begin_reshard`] flips it — the handoff
    /// window stages them at the incoming owner.
    pub fn routing_table(&self) -> &RoutingTable {
        &self.table
    }

    /// The validated configuration snapshot this store was built with:
    /// mode (and derived timeout), data plane, sharding shape, and the
    /// per-mode quorum sizes.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of writer clients.
    pub fn writers(&self) -> usize {
        self.config.writers
    }

    /// The data plane this store was built with.
    pub fn plane(&self) -> DataPlane {
        self.config.plane
    }

    /// Invokes `put(key, val)` on the shard's owning writer (per the
    /// router). Values must be unique per key across the run so the
    /// checkers can identify which write a read observed.
    pub fn put(&mut self, key: &str, val: V) -> OpId {
        let w = self.table.writer_of(key);
        let client = self.clients[w];
        let now = self.sim.now();
        let op = self.log.fresh(client, now, key, Some(val.clone()));
        if let Some(m) = &mut self.monitor {
            m.op_invoked(op.0, key, now.as_nanos(), Some(Some(val.clone())));
        }
        let key = key.to_string();
        self.sim
            .with_node::<StoreClientNode<V>, _>(client, |n, ctx| n.invoke_put(op, key, val, ctx));
        op
    }

    /// Invokes `get(key)` at client `client_idx` (any client may read any
    /// key).
    pub fn get(&mut self, client_idx: usize, key: &str) -> OpId {
        let client = self.clients[client_idx];
        let now = self.sim.now();
        let op = self.log.fresh(client, now, key, None);
        if let Some(m) = &mut self.monitor {
            m.op_invoked(op.0, key, now.as_nanos(), None);
        }
        let key = key.to_string();
        self.sim
            .with_node::<StoreClientNode<V>, _>(client, |n, ctx| n.invoke_get(op, key, ctx));
        op
    }

    /// Runs until the event queue drains (or the settle horizon passes —
    /// see [`StoreBuilder::settle_horizon`]), then records completions.
    /// Returns `true` on quiescence.
    ///
    /// A reshard in flight re-arms the event queue from the harness side
    /// (draining control events is what releases the gated acquire
    /// step), so settling loops until the handoff completes too — a
    /// handoff that stops making progress reports non-quiescence rather
    /// than spinning.
    pub fn settle(&mut self) -> bool {
        let mut prev: Option<(bool, bool, usize, usize)> = None;
        loop {
            let quiet = self
                .sim
                .run_until_quiescent(self.sim.now() + self.settle_horizon);
            self.drain();
            if !quiet {
                return false;
            }
            let Some(r) = &self.reshard else { return true };
            let state = (
                r.committed,
                r.acquires_issued,
                r.awaiting_retire.len(),
                r.acquired.len(),
            );
            if prev == Some(state) {
                return false; // quiescent but the handoff is wedged
            }
            prev = Some(state);
        }
    }

    /// Runs for `d` of virtual time, then records completions. Returns the
    /// completions of this slice as `(client process, operation)` pairs —
    /// closed-loop drivers use them to refill clients.
    pub fn run_for(&mut self, d: SimDuration) -> Vec<(ProcessId, OpId)> {
        self.sim.run_for(d);
        self.drain()
    }

    /// Records completions emitted so far; returns `(client process,
    /// operation)` per completion, in completion order — the hook
    /// closed-loop workload drivers use to refill clients.
    pub fn drain(&mut self) -> Vec<(ProcessId, OpId)> {
        let mut done = Vec::new();
        for (at, pid, out) in self.sim.take_outputs() {
            let completed = match out {
                StoreOut::PutDone { op } => {
                    done.push((pid, op));
                    if let Some(m) = &mut self.monitor {
                        m.op_completed(op.0, at.as_nanos(), None);
                    }
                    self.log.complete(op, at, None, self.table.base())
                }
                StoreOut::GetDone { op, value } => {
                    done.push((pid, op));
                    if let Some(m) = &mut self.monitor {
                        m.op_completed(op.0, at.as_nanos(), Some(value.clone()));
                    }
                    self.log.complete(op, at, Some(value), self.table.base())
                }
                // Dual-commit control events: they advance the handoff
                // state machine, never the op log, monitor, or latency
                // books (they are not client operations).
                StoreOut::ShardRetired { shard } => {
                    if let Some(r) = &mut self.reshard {
                        r.awaiting_retire.remove(&shard);
                    }
                    None
                }
                StoreOut::EpochCommitted { .. } => {
                    if let Some(r) = &mut self.reshard {
                        r.committed = true;
                    }
                    None
                }
                StoreOut::ShardAcquired { shard } => {
                    if let Some(r) = &mut self.reshard {
                        r.acquired.insert(shard);
                    }
                    None
                }
            };
            if let Some((kind, shard, latency_ns)) = completed {
                self.latency
                    .entry((kind, shard))
                    .or_default()
                    .record(latency_ns);
            }
        }
        self.advance_reshard();
        done
    }

    /// Progresses the in-flight handoff: once every retiring owner has
    /// published its final map and the epoch flip is committed through
    /// the quorum, the new owners are told to adopt their shards; once
    /// every adoption has republished, the handoff is over.
    fn advance_reshard(&mut self) {
        let Some(r) = &mut self.reshard else { return };
        if !r.acquires_issued && r.committed && r.awaiting_retire.is_empty() {
            r.acquires_issued = true;
            let moves = r.moves.clone();
            for (shard, _, new) in moves {
                let c = self.clients[new as usize];
                self.sim
                    .with_node::<StoreClientNode<V>, _>(c, move |n, ctx| {
                        n.acquire_shard(shard, ctx)
                    });
            }
        }
        let Some(r) = &self.reshard else { return };
        if r.acquires_issued && r.moves.iter().all(|&(s, _, _)| r.acquired.contains(&s)) {
            self.reshard = None;
        }
    }

    /// Starts a live reshard: applies `plan` to the routing table and
    /// kicks off the dual-commit handoff for every shard whose owner
    /// changes. New puts route by the next epoch immediately — the
    /// incoming owner stages them until it has adopted the shard — while
    /// each outgoing owner drains its queue, publishes one final time,
    /// and retires. The epoch itself is committed as a register write
    /// through the dedicated routing register by the first move's new
    /// owner (or the first writer, for a plan that changes no
    /// ownership). Drive the simulation (`settle` / `run_for`) until
    /// [`StoreSystem::reshard_active`] reports `false`.
    ///
    /// The reshard is stamped as a fault, so
    /// [`StoreSystem::stabilization_time`] measures how long the history
    /// takes to provably stabilize after the flip.
    ///
    /// # Panics
    ///
    /// Panics if a reshard is already in flight or the plan is invalid
    /// for the current table (unknown shard, writer out of range, or a
    /// shard moved twice).
    pub fn begin_reshard(&mut self, plan: &ReshardPlan) {
        assert!(
            self.reshard.is_none(),
            "a reshard is already in flight — settle it before the next plan"
        );
        let next = self.table.apply(plan).unwrap_or_else(|e| {
            panic!("invalid reshard plan: {e}");
        });
        let moves = self.table.moves_to(&next);
        let coordinator = self.clients[moves.first().map(|&(_, _, new)| new as usize).unwrap_or(0)];
        self.sim.record_fault(coordinator, "reshard");
        for &(shard, old, new) in &moves {
            let old_c = self.clients[old as usize];
            let new_c = self.clients[new as usize];
            self.sim
                .with_node::<StoreClientNode<V>, _>(old_c, move |n, ctx| {
                    n.retire_shard(shard, ctx)
                });
            self.sim
                .with_node::<StoreClientNode<V>, _>(new_c, move |n, _| n.grant_shard(shard));
        }
        let (epoch, owners) = (next.epoch(), next.owners().to_vec());
        self.sim
            .with_node::<StoreClientNode<V>, _>(coordinator, move |n, ctx| {
                n.commit_epoch(epoch, owners, ctx)
            });
        self.reshard = Some(ReshardInFlight {
            awaiting_retire: moves.iter().map(|&(s, _, _)| s).collect(),
            moves,
            committed: false,
            acquires_issued: false,
            acquired: BTreeSet::new(),
        });
        self.table = next;
    }

    /// True while a shard handoff started by
    /// [`StoreSystem::begin_reshard`] is still in flight.
    pub fn reshard_active(&self) -> bool {
        self.reshard.is_some()
    }

    /// The completed-op latency histogram of `kind` (`"put"` / `"get"`)
    /// on `shard`, if any such operation completed.
    pub fn latency_histogram(&self, kind: &str, shard: u32) -> Option<&LatencyHistogram> {
        self.latency.get(&(
            match kind {
                "put" => "put",
                "get" => "get",
                _ => return None,
            },
            shard,
        ))
    }

    /// All per-(kind, shard) latency summaries, sorted by kind then shard.
    pub fn latency_summaries(&self) -> Vec<(&'static str, u32, LatencySummary)> {
        self.latency
            .iter()
            .filter_map(|(&(kind, shard), h)| h.summary().map(|s| (kind, shard, s)))
            .collect()
    }

    /// The latency population of `kind` merged across every shard (empty
    /// histogram if no such operation completed).
    pub fn merged_latency(&self, kind: &str) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for ((k, _), h) in &self.latency {
            if *k == kind {
                merged.merge(h);
            }
        }
        merged
    }

    /// The simulation's protocol tracer (disabled unless the store was
    /// built with [`StoreBuilder::trace`]).
    pub fn tracer(&self) -> &sbs_sim::Tracer {
        self.sim.tracer()
    }

    /// The online atomicity monitor, if the store was built with
    /// [`StoreBuilder::monitor`]. Completions reach the monitor when
    /// they are drained — run [`StoreSystem::settle`] /
    /// [`StoreSystem::drain`] before reading verdicts.
    pub fn monitor(&self) -> Option<&ConsistencyMonitor<Option<V>>> {
        self.monitor.as_ref()
    }

    /// The atomicity violations flagged so far (empty when the monitor
    /// is off or the run is clean). Each names the violating operation,
    /// its sim-time, and the culprit op set.
    pub fn monitor_violations(&self) -> &[Violation] {
        self.monitor.as_ref().map_or(&[], |m| m.violations())
    }

    /// `(pid, role)` names for every process in the deployment —
    /// `client-N` in client order, then `server-N` in fleet order. Used
    /// to label Chrome trace exports (pass to
    /// [`Tracer::to_chrome_trace_named`](sbs_sim::Tracer)).
    pub fn role_names(&self) -> Vec<(u32, String)> {
        self.clients
            .iter()
            .enumerate()
            .map(|(i, c)| (c.0, format!("client-{i}")))
            .chain(
                self.servers
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.0, format!("server-{i}"))),
            )
            .collect()
    }

    /// Assembles a point-in-time health snapshot: per-shard completed-op
    /// tallies (with the hot-shard detector), per-replica message
    /// traffic, slow-path counters, pending-op count, and per-plane byte
    /// totals. Cheap — reads existing counters, simulates nothing.
    pub fn health(&self) -> StoreHealth {
        let mut shards: BTreeMap<u32, ShardHealth> = (0..self.config.shards)
            .map(|shard| {
                (
                    shard,
                    ShardHealth {
                        shard,
                        puts: 0,
                        gets: 0,
                    },
                )
            })
            .collect();
        for ((kind, shard), h) in &self.latency {
            let entry = shards.entry(*shard).or_insert(ShardHealth {
                shard: *shard,
                puts: 0,
                gets: 0,
            });
            match *kind {
                "put" => entry.puts += h.count(),
                _ => entry.gets += h.count(),
            }
        }
        let m = self.sim.metrics();
        let replicas = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, &s)| ReplicaHealth {
                server: i,
                pid: s.0,
                msgs_in: self.clients.iter().map(|&c| m.sent_on_link(c, s)).sum(),
                msgs_out: self.clients.iter().map(|&c| m.sent_on_link(s, c)).sum(),
            })
            .collect();
        let mut health = StoreHealth {
            shards: shards.into_values().collect(),
            replicas,
            slow: m.slow_paths,
            pending_ops: self.log.invoked.len(),
            hot_shards: Vec::new(),
            metadata_bytes_sent: m.metadata_bytes_sent,
            bulk_bytes_sent: m.bulk_bytes_sent,
        };
        health.detect_hot_shards();
        health
    }

    /// **Load-driven rebalancing**: turns [`StoreSystem::health`]'s
    /// hot-shard signal into a [`ReshardPlan`] that dedicates a writer
    /// to the hottest shard — every *other* shard co-resident on that
    /// writer migrates to the least-loaded writer. Returns `None` when
    /// no shard is hot, the hot shard already has a dedicated writer,
    /// or there is no other writer to take the load. The caller decides
    /// when to [`StoreSystem::begin_reshard`] the proposal.
    pub fn propose_rebalance(&self) -> Option<ReshardPlan> {
        let health = self.health();
        let &hot = health.hot_shards.first()?;
        let owner = self.table.writer_of_shard(hot);
        let siblings: Vec<u32> = self
            .table
            .shards_of_writer(owner)
            .into_iter()
            .filter(|&s| s != hot)
            .collect();
        if siblings.is_empty() {
            return None;
        }
        let mut load = vec![0u64; self.table.writers() as usize];
        for ((_, shard), h) in &self.latency {
            load[self.table.writer_of_shard(*shard)] += h.count();
        }
        let (target, _) = load
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != owner)
            .min_by_key(|&(_, &l)| l)?;
        let mut plan = ReshardPlan::default();
        for s in siblings {
            plan = plan.and_migrate(s, target as u32);
        }
        Some(plan)
    }

    /// Dumps the flight recorder: the causal slice of the trace ring
    /// leading to the suspect operations — the monitor's violating ops
    /// when violations exist, otherwise every still-pending (possibly
    /// timed-out) operation. Non-empty slices need the deployment built
    /// with [`StoreBuilder::trace`] (the slice is cut from the ring) —
    /// without tracing the dump carries the seeds and violations alone.
    pub fn flight_recorder(&self) -> FlightRecord {
        let violations = self.monitor_violations().to_vec();
        let seed_ops: Vec<u64> = if violations.is_empty() {
            let mut pending: Vec<u64> = self.log.invoked.keys().map(|op| op.0).collect();
            pending.sort_unstable();
            pending
        } else {
            let mut ops: Vec<u64> = violations
                .iter()
                .flat_map(|v| v.culprits.iter().copied().chain([v.op]))
                .collect();
            ops.sort_unstable();
            ops.dedup();
            ops
        };
        let records: Vec<sbs_sim::TraceRecord> = self.tracer().records().copied().collect();
        FlightRecord {
            records: sbs_sim::causal_slice(&records, &seed_ops),
            seed_ops,
            violations,
            names: self.role_names(),
        }
    }

    /// Sim-time from the run's **last fault injection** (corruption, link
    /// garbage, or link wipe) to the point the completed history is
    /// provably clean again: the latest per-key atomic stabilization
    /// point over every touched key, minus the fault time (clamped at
    /// zero if the history stabilized before the fault landed).
    ///
    /// `None` when no fault was injected, when any touched key's history
    /// has no atomic suffix yet (not yet stabilized), or when a key's
    /// history is too tangled to judge. Drain completions (e.g. via
    /// [`StoreSystem::settle`]) before asking.
    pub fn stabilization_time(&self) -> Option<SimDuration> {
        let fault = self.sim.last_fault_at()?;
        let mut latest_point = SimTime::ZERO;
        for (_, h) in self.log.histories() {
            let point = atomic_stabilization_point(&h).ok().flatten()?;
            latest_point = latest_point.max(point);
        }
        Some(SimDuration::nanos(
            latest_point.as_nanos().saturating_sub(fault.as_nanos()),
        ))
    }

    /// Operations invoked but not yet completed.
    pub fn pending_ops(&self) -> usize {
        self.log.invoked.len()
    }

    /// Completed operations so far.
    pub fn completed_ops(&self) -> usize {
        self.log.completed.len()
    }

    /// Every completed operation's id, in completion order (ties broken
    /// by emission order — which is what the batching guarantees pin).
    pub fn completion_order(&self) -> Vec<OpId> {
        self.log.completed.iter().map(|r| r.record.op).collect()
    }

    /// Every key touched by a completed operation.
    pub fn keys_touched(&self) -> BTreeSet<String> {
        self.log.completed.iter().map(|r| r.key.clone()).collect()
    }

    /// The extracted history of one key: its puts as writes, its gets as
    /// reads (`None` = key absent). Judged independently per key — the
    /// store's correctness claim is per-key regularity/atomicity.
    pub fn history_for_key(&self, key: &str) -> History<Option<V>> {
        History::new(
            self.log
                .completed
                .iter()
                .filter(|r| r.key == key)
                .map(|r| r.record.clone())
                .collect(),
        )
    }

    /// Checks every touched key's history for register linearizability
    /// (initial state: absent). Returns the offending key and diagnosis on
    /// failure.
    ///
    /// Intended for closed-loop histories, whose concurrency is bounded by
    /// the client count. Open-loop runs queue operations at the clients,
    /// so a backlogged client's operations all overlap — the exact search
    /// then has no quiescent points to divide at and can blow up (or
    /// return [`LinError::SegmentTooLarge`](sbs_check::LinError)); judge
    /// such runs with `sbs_check::check_regularity` per key instead.
    pub fn check_per_key_atomicity(&self) -> Result<usize, String> {
        let mut checked = 0;
        for (key, h) in self.log.histories() {
            h.validate_unique_writes()
                .map_err(|e| format!("key {key}: {e}"))?;
            let initial = InitialState::OneOf(std::iter::once(None).collect());
            let rep = check_linearizable(&h, &initial).map_err(|e| format!("key {key}: {e}"))?;
            if !rep.linearizable {
                return Err(format!(
                    "key {key}: history not linearizable (failed segment {:?}) — {h:?}",
                    rep.failed_segment
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Applies a transient fault to server `i` *now*.
    pub fn corrupt_server(&mut self, i: usize) {
        let now = self.sim.now();
        let s = self.servers[i];
        self.sim.schedule_corruption(now, s);
    }

    /// Wipes server `i`'s fragment store *now* — the data-loss fault the self-healing plane
    /// ([`StoreBuilder::anti_entropy`]) repairs without writer
    /// involvement. Register (metadata) state is untouched; retention
    /// bounds survive. The fault is stamped, so
    /// [`StoreSystem::stabilization_time`] measures recovery from it.
    pub fn wipe_server_data(&mut self, i: usize) {
        type Correct<V> =
            StoreServerNode<StorePayload<V>, ServerNode<StorePayload<V>, StoreOut<V>>>;
        type Byz<V> = StoreServerNode<StorePayload<V>, ByzServerNode<StorePayload<V>, StoreOut<V>>>;
        let pid = self.servers[i];
        if self.byz_servers.contains(&i) {
            self.sim
                .with_node::<Byz<V>, _>(pid, |n, _| n.wipe_data_stores());
        } else {
            self.sim
                .with_node::<Correct<V>, _>(pid, |n, _| n.wipe_data_stores());
        }
        self.sim.record_fault(pid, "data-wipe");
    }

    /// Applies a transient fault to client `i` *now* — including a shard
    /// owner, whose authoritative map is scrambled and then repaired by
    /// the writer-map recovery rule (re-read own register, republish)
    /// before its next put.
    pub fn corrupt_client(&mut self, i: usize) {
        let now = self.sim.now();
        let c = self.clients[i];
        self.sim.schedule_corruption(now, c);
    }

    /// Applies a transient fault to every server *now*.
    pub fn corrupt_all_servers(&mut self) {
        let now = self.sim.now();
        for s in self.servers.clone() {
            self.sim.schedule_corruption(now, s);
        }
    }

    /// Injects `count` garbage batches into every client⇄server link *now*.
    pub fn pollute_links(&mut self, count: usize) {
        self.pollute_links_at(self.sim.now(), count);
    }

    /// Schedules `count` garbage batches on every client⇄server link at
    /// absolute time `at` (fault plans schedule these upfront, exactly).
    pub fn pollute_links_at(&mut self, at: SimTime, count: usize) {
        for s in self.servers.clone() {
            for c in self.clients.clone() {
                self.sim.schedule_link_garbage(at, c, s, count);
                self.sim.schedule_link_garbage(at, s, c, count);
            }
        }
    }

    /// Queued + in-flight operations at client `i`.
    pub fn client_backlog(&mut self, i: usize) -> usize {
        let pid = self.clients[i];
        self.sim
            .node_ref::<StoreClientNode<V>, _>(pid, |n| n.backlog())
    }

    /// Writer-map recoveries (re-read + republish after transient
    /// corruption) completed by client `i`.
    pub fn client_recoveries(&mut self, i: usize) -> u64 {
        let pid = self.clients[i];
        self.sim
            .node_ref::<StoreClientNode<V>, _>(pid, |n| n.recoveries())
    }

    /// Runs `f` against server `i`'s fragment store (dispatching on the
    /// concrete wrapper type, which differs for Byzantine slots).
    fn with_server_bulk<R>(&mut self, i: usize, f: impl FnOnce(&FragmentStore) -> R) -> R {
        type Correct<V> =
            StoreServerNode<StorePayload<V>, ServerNode<StorePayload<V>, StoreOut<V>>>;
        type Byz<V> = StoreServerNode<StorePayload<V>, ByzServerNode<StorePayload<V>, StoreOut<V>>>;
        let pid = self.servers[i];
        if self.byz_servers.contains(&i) {
            self.sim.node_ref::<Byz<V>, _>(pid, |n| f(n.frag_store()))
        } else {
            self.sim
                .node_ref::<Correct<V>, _>(pid, |n| f(n.frag_store()))
        }
    }

    /// Which server indices hold bulk payload fragments for each shard —
    /// the placement the `2t + 1` windows promise. Empty under full
    /// replication.
    pub fn bulk_placement(&mut self) -> BTreeMap<u32, BTreeSet<usize>> {
        let mut placement: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
        for i in 0..self.servers.len() {
            let held = self.with_server_bulk(i, FragmentStore::shards_held);
            for shard in held {
                placement.entry(shard).or_default().insert(i);
            }
        }
        placement
    }

    /// Total bulk payload bytes stored on server `i` — the per-replica
    /// storage footprint that `k`-of-`m` dispersal cuts by ~`k`× against
    /// whole copies.
    pub fn bulk_bytes_stored(&mut self, i: usize) -> u64 {
        self.with_server_bulk(i, FragmentStore::bytes_stored)
    }

    /// Number of fragment entries held on server `i` (bounded by the
    /// [`StoreBuilder::bulk_retain`] window when one is set).
    pub fn bulk_blob_count(&mut self, i: usize) -> usize {
        self.with_server_bulk(i, FragmentStore::fragment_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_key_put_get_round_trip() {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1).seed(7).shards(4).build();
        sys.put("alpha", 11);
        assert!(sys.settle());
        sys.get(0, "alpha");
        sys.get(0, "beta");
        assert!(sys.settle());
        let h = sys.history_for_key("alpha");
        assert_eq!(h.len(), 2);
        let read = h.reads().next().unwrap();
        assert_eq!(read.kind.value(), &Some(11));
        // An unwritten key reads as absent.
        let hb = sys.history_for_key("beta");
        assert_eq!(hb.reads().next().unwrap().kind.value(), &None);
        assert_eq!(sys.check_per_key_atomicity().unwrap(), 2);
        assert_eq!(sys.pending_ops(), 0);
    }

    #[test]
    fn multi_writer_routing_honors_shard_ownership() {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
            .seed(3)
            .shards(8)
            .writers(4)
            .extra_readers(2)
            .build();
        for i in 0..16u64 {
            sys.put(&format!("key{i}"), 100 + i);
        }
        assert!(sys.settle());
        for i in 0..16u64 {
            // Read each key from a different client, including read-only ones.
            sys.get((i % 6) as usize, &format!("key{i}"));
        }
        assert!(sys.settle());
        assert_eq!(sys.completed_ops(), 32);
        assert_eq!(sys.check_per_key_atomicity().unwrap(), 16);
    }

    #[test]
    fn reshard_migrates_ownership_and_keeps_history_atomic() {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
            .seed(9)
            .shards(4)
            .writers(2)
            .build();
        for i in 0..8u64 {
            sys.put(&format!("key{i}"), i);
        }
        assert!(sys.settle());
        // Move every shard writer 1 owns to writer 0.
        let plan = ReshardPlan::merge_writer(sys.routing_table(), 1, 0);
        sys.begin_reshard(&plan);
        assert!(sys.reshard_active());
        // Puts issued mid-handoff route to the new owner and are staged.
        for i in 0..8u64 {
            sys.put(&format!("key{i}"), 100 + i);
        }
        assert!(sys.settle(), "handoff + staged puts must complete");
        assert!(!sys.reshard_active());
        assert_eq!(sys.routing_table().epoch(), 1);
        assert_eq!(sys.routing_table().shards_of_writer(1), Vec::<u32>::new());
        for i in 0..8u64 {
            sys.get((i % 2) as usize, &format!("key{i}"));
        }
        assert!(sys.settle());
        assert_eq!(sys.check_per_key_atomicity().unwrap(), 8);
        // Reads after the flip observe the post-flip writes.
        for i in 0..8u64 {
            let h = sys.history_for_key(&format!("key{i}"));
            assert_eq!(h.reads().next().unwrap().kind.value(), &Some(100 + i));
        }
        // The reshard is stamped as a fault, so stabilization is measured.
        assert!(sys.stabilization_time().is_some());
    }

    #[test]
    fn batching_reduces_delivery_events() {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1).seed(5).build();
        sys.put("k", 1);
        assert!(sys.settle());
        let m = sys.sim.metrics();
        // The put runs a WRITE round (9 requests, 9 two-message reply
        // batches) and a NEW_HELP_VAL round (9 requests, 9 acks): 36
        // delivery events. Un-batched, the reply pairs would be separate
        // events — 45 deliveries. Batching must stay below that.
        assert!(m.messages_delivered >= 9 * 4, "both rounds must run");
        assert!(
            m.messages_delivered < 45,
            "un-batched this put would cost 45 delivery events, got {}",
            m.messages_delivered
        );
    }
}
