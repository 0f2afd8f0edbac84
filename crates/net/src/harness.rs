//! A socket deployment of the store: the same builder, nodes, workload
//! engine, monitor, and history checkers as the simulator harness —
//! over loopback TCP.
//!
//! [`NetStoreSystem::deploy`] takes the very same
//! [`StoreBuilder`] the simulator uses, asks it for a
//! runtime-detached fleet ([`StoreBuilder::build_nodes`]), and hosts
//! the nodes on a [`ThreadRuntime`] whose transports are
//! [`TcpTransport`]s — every protocol message crosses a real socket
//! through the canonical codec. The harness mirrors
//! `sbs_store::StoreSystem` where it matters for verification:
//! `put`/`get` bookkeeping with [`OpId`] intervals, the online
//! [`ConsistencyMonitor`], per-key [`History`] extraction, and the
//! per-key atomicity check — so the differential sim ≡ socket tests can
//! hold both backends to the identical standard.
//!
//! Time here is wall-clock (mapped onto [`SimTime`] nanoseconds since
//! deployment), so latencies and throughput are *real*; scheduling is
//! the OS's, so runs are not replayable. Of the
//! [`FaultPlan`](sbs_store::FaultPlan) drills, `data_wipes` (the
//! self-healing repair trigger) and `reshards` (the dual-commit shard
//! handoff) run here too — virtual-time offsets reinterpreted as
//! wall-clock offsets; the adversarial kinds (scheduled corruption,
//! link garbage) remain simulator-only.

use crate::codec::WireCodec;
use crate::transport::{NetFabric, TcpTransport};
use sbs_bulk::BulkCodec;
use sbs_check::{check_linearizable, History, InitialState, OpKind, OpRecord};
use sbs_core::{Payload, ServerNode};
use sbs_sim::{
    ConsistencyMonitor, LatencyHistogram, LatencySummary, OpId, ProcessId, SimTime, SlowPath,
    ThreadRuntime, Violation,
};
use sbs_store::{
    KeyRouter, LoopMode, PlannedOp, ReshardPlan, RoutingTable, StoreBuilder, StoreClientNode,
    StoreConfig, StoreOut, StorePayload, StoreServerNode, StoreWire, Workload, WorkloadStreams,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock patience for the next completion before a closed-loop run
/// declares the deployment stalled. Loopback round trips are
/// microseconds; thirty seconds is unambiguous deadlock.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// What one completed operation did to its key (wall-clock interval).
#[derive(Clone, Debug)]
struct KeyedRecord<V> {
    key: String,
    record: OpRecord<Option<V>>,
}

/// Operation bookkeeping, mirroring the sim harness's log: invocation
/// intervals plus the touched key, for history extraction.
#[derive(Debug)]
struct NetLog<V> {
    next_op: u64,
    invoked: HashMap<OpId, (ProcessId, SimTime, String, Option<V>)>,
    completed: Vec<KeyedRecord<V>>,
}

impl<V: Payload> NetLog<V> {
    fn new() -> Self {
        NetLog {
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

    /// Records the completion; returns `(kind, latency_ns)` for the
    /// latency histograms (`None` on an unknown or duplicate op).
    fn complete(
        &mut self,
        op: OpId,
        at: SimTime,
        read_value: Option<Option<V>>,
    ) -> Option<(&'static str, u64)> {
        let (client, invoked, key, put_val) = self.invoked.remove(&op)?;
        let kind_name = if put_val.is_some() { "put" } else { "get" };
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
        Some((kind_name, latency_ns))
    }
}

/// A store deployment on loopback TCP.
///
/// Field order is load-bearing for shutdown: the [`ThreadRuntime`] is
/// dropped first (stopping the node threads, which closes their
/// outbound streams), then the [`NetFabric`] joins its accept/reader
/// threads.
pub struct NetStoreSystem<V: Payload + BulkCodec + Send + Sync> {
    rt: ThreadRuntime<StoreWire<V>, StoreOut<V>>,
    fabric: NetFabric,
    /// All clients: the `writers` shard owners first, then read-only
    /// clients.
    pub clients: Vec<ProcessId>,
    /// The shared server fleet.
    pub servers: Vec<ProcessId>,
    table: RoutingTable,
    config: StoreConfig,
    epoch: Instant,
    log: NetLog<V>,
    latency: BTreeMap<&'static str, LatencyHistogram>,
    monitor: Option<ConsistencyMonitor<Option<V>>>,
    drops: Arc<AtomicU64>,
    reshard: Option<NetReshard>,
}

/// One live shard handoff on the socket backend — the same orchestrator
/// state machine the sim harness runs, driven by the control events the
/// node threads emit (see `sbs_store::StoreSystem::begin_reshard`).
#[derive(Debug)]
struct NetReshard {
    moves: Vec<(u32, u32, u32)>,
    awaiting_retire: BTreeSet<u32>,
    committed: bool,
    acquires_issued: bool,
    acquired: BTreeSet<u32>,
}

impl<V: Payload + BulkCodec + Send + Sync> std::fmt::Debug for NetStoreSystem<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStoreSystem")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<V: Payload + BulkCodec + Send + Sync> NetStoreSystem<V> {
    /// Deploys `builder`'s fleet on loopback TCP: binds one listener per
    /// node, spawns the node threads with [`TcpTransport`] backends, and
    /// starts the inbound fabric. The builder's `monitor()` flag carries
    /// over to an online [`ConsistencyMonitor`] fed by `put`/`get`.
    pub fn deploy(builder: &StoreBuilder) -> io::Result<Self> {
        let set = builder.build_nodes::<V>();
        let total = set.nodes.len();
        let codec = WireCodec::new(set.wsn_modulus);
        let mut fabric = NetFabric::bind(total)?;
        let addrs = fabric.addrs().to_vec();
        let drops = Arc::new(AtomicU64::new(0));
        let transport_drops = Arc::clone(&drops);
        let rt = ThreadRuntime::spawn_with_transport(set.nodes, set.seed, move |me, _| {
            Box::new(TcpTransport::<V>::new(
                me,
                addrs.clone(),
                codec,
                Arc::clone(&transport_drops),
            ))
        });
        let injectors = (0..total)
            .map(|i| rt.injector(ProcessId(i as u32)))
            .collect();
        fabric.start(codec, injectors);
        Ok(NetStoreSystem {
            rt,
            fabric,
            clients: set.clients,
            servers: set.servers,
            table: RoutingTable::initial(set.router),
            config: set.config,
            epoch: Instant::now(),
            log: NetLog::new(),
            latency: BTreeMap::new(),
            monitor: set.monitor.then(|| ConsistencyMonitor::with_initial(None)),
            drops,
            reshard: None,
        })
    }

    /// Wall-clock time since deployment, as the harness's [`SimTime`].
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// The static key→shard hash base the routing table is built on.
    pub fn router(&self) -> &KeyRouter {
        self.table.base()
    }

    /// The epoch-versioned routing table in force.
    pub fn routing_table(&self) -> &RoutingTable {
        &self.table
    }

    /// The validated configuration snapshot this store was built with.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Invokes `put(key, val)` on the shard's owning writer. Values must
    /// be unique per key across the run (the checkers' requirement).
    pub fn put(&mut self, key: &str, val: V) -> OpId {
        let w = self.table.writer_of(key);
        let client = self.clients[w];
        let now = self.now();
        let op = self.log.fresh(client, now, key, Some(val.clone()));
        if let Some(m) = &mut self.monitor {
            m.op_invoked(op.0, key, now.as_nanos(), Some(Some(val.clone())));
        }
        let key = key.to_string();
        self.rt
            .invoke::<StoreClientNode<V>>(client, move |n, ctx| n.invoke_put(op, key, val, ctx));
        op
    }

    /// Invokes `get(key)` at client `client_idx` (any client may read
    /// any key).
    pub fn get(&mut self, client_idx: usize, key: &str) -> OpId {
        let client = self.clients[client_idx];
        let now = self.now();
        let op = self.log.fresh(client, now, key, None);
        if let Some(m) = &mut self.monitor {
            m.op_invoked(op.0, key, now.as_nanos(), None);
        }
        let key = key.to_string();
        self.rt
            .invoke::<StoreClientNode<V>>(client, move |n, ctx| n.invoke_get(op, key, ctx));
        op
    }

    /// Records one raw completion. The completion timestamp is the
    /// drain time — marginally later than the node emitted it, which
    /// only *widens* the recorded interval and therefore never turns an
    /// atomic history into a violation.
    fn record(&mut self, pid: ProcessId, out: StoreOut<V>) -> Option<(ProcessId, OpId)> {
        let at = self.now();
        let completed = match out {
            StoreOut::PutDone { op } => {
                if let Some(m) = &mut self.monitor {
                    m.op_completed(op.0, at.as_nanos(), None);
                }
                (op, self.log.complete(op, at, None))
            }
            StoreOut::GetDone { op, value } => {
                if let Some(m) = &mut self.monitor {
                    m.op_completed(op.0, at.as_nanos(), Some(value.clone()));
                }
                (op, self.log.complete(op, at, Some(value)))
            }
            // Dual-commit control events advance the handoff state
            // machine; they are not client operations and never touch
            // the op log, monitor, or latency books.
            StoreOut::ShardRetired { shard } => {
                if let Some(r) = &mut self.reshard {
                    r.awaiting_retire.remove(&shard);
                }
                return None;
            }
            StoreOut::EpochCommitted { .. } => {
                if let Some(r) = &mut self.reshard {
                    r.committed = true;
                }
                return None;
            }
            StoreOut::ShardAcquired { shard } => {
                if let Some(r) = &mut self.reshard {
                    r.acquired.insert(shard);
                }
                return None;
            }
        };
        if let Some((kind, latency_ns)) = completed.1 {
            self.latency.entry(kind).or_default().record(latency_ns);
        }
        Some((pid, completed.0))
    }

    /// Waits up to `timeout` for at least one output, then drains
    /// whatever else is immediately available; returns the operation
    /// completions among them (control events advance the reshard state
    /// machine instead). Empty on timeout — or when the window carried
    /// only control events.
    pub fn await_completions(&mut self, timeout: Duration) -> Vec<(ProcessId, OpId)> {
        let mut raw = Vec::new();
        if let Some(first) = self.rt.recv_output(timeout) {
            raw.push(first);
            raw.extend(self.rt.drain_outputs());
        }
        let done = raw
            .into_iter()
            .filter_map(|(pid, out)| self.record(pid, out))
            .collect();
        self.advance_reshard();
        done
    }

    /// Mirror of the sim harness's handoff progression: acquires are
    /// gated on every retire plus the commit; once every new owner has
    /// adopted its shard the handoff is over.
    fn advance_reshard(&mut self) {
        let Some(r) = &mut self.reshard else { return };
        if !r.acquires_issued && r.committed && r.awaiting_retire.is_empty() {
            r.acquires_issued = true;
            let moves = r.moves.clone();
            for (shard, _, new) in moves {
                let c = self.clients[new as usize];
                self.rt
                    .invoke::<StoreClientNode<V>>(c, move |n, ctx| n.acquire_shard(shard, ctx));
            }
        }
        let Some(r) = &self.reshard else { return };
        if r.acquires_issued && r.moves.iter().all(|&(s, _, _)| r.acquired.contains(&s)) {
            self.reshard = None;
        }
    }

    /// Starts a live reshard on the socket deployment — the same
    /// dual-commit handoff `sbs_store::StoreSystem::begin_reshard`
    /// drives in the simulator, here over real TCP: retire and grant
    /// messages are enqueued to the node threads, the epoch flip is
    /// committed as a register write through the routing register, and
    /// the gated acquire step is released as the control events come
    /// back. Keep draining (`await_completions` or a running workload)
    /// until [`NetStoreSystem::reshard_active`] reports `false`.
    ///
    /// # Panics
    ///
    /// Panics if a reshard is already in flight or the plan is invalid
    /// for the current table.
    pub fn begin_reshard(&mut self, plan: &ReshardPlan) {
        assert!(
            self.reshard.is_none(),
            "a reshard is already in flight — drain it before the next plan"
        );
        let next = self.table.apply(plan).unwrap_or_else(|e| {
            panic!("invalid reshard plan: {e}");
        });
        let moves = self.table.moves_to(&next);
        for &(shard, old, new) in &moves {
            let old_c = self.clients[old as usize];
            let new_c = self.clients[new as usize];
            self.rt
                .invoke::<StoreClientNode<V>>(old_c, move |n, ctx| n.retire_shard(shard, ctx));
            self.rt
                .invoke::<StoreClientNode<V>>(new_c, move |n, _| n.grant_shard(shard));
        }
        let coordinator = self.clients[moves.first().map(|&(_, _, new)| new as usize).unwrap_or(0)];
        let (epoch, owners) = (next.epoch(), next.owners().to_vec());
        self.rt
            .invoke::<StoreClientNode<V>>(coordinator, move |n, ctx| {
                n.commit_epoch(epoch, owners, ctx)
            });
        self.reshard = Some(NetReshard {
            awaiting_retire: moves.iter().map(|&(s, _, _)| s).collect(),
            moves,
            committed: false,
            acquires_issued: false,
            acquired: BTreeSet::new(),
        });
        self.table = next;
    }

    /// True while a shard handoff started by
    /// [`NetStoreSystem::begin_reshard`] is still in flight.
    pub fn reshard_active(&self) -> bool {
        self.reshard.is_some()
    }

    /// Wipes server `i`'s fragment store — the data-loss
    /// fault the self-healing plane repairs, here injected into a node
    /// running on a real socket runtime. Register metadata survives.
    /// Supported for *correct* servers only (a Byzantine slot hosts a
    /// different node type and would fail the downcast).
    pub fn wipe_server_data(&mut self, i: usize) {
        type Correct<V> =
            StoreServerNode<StorePayload<V>, ServerNode<StorePayload<V>, StoreOut<V>>>;
        let pid = self.servers[i];
        self.rt
            .invoke::<Correct<V>>(pid, |n, _| n.wipe_data_stores());
    }

    /// Drives `w` to completion, closed-loop (one in-flight operation
    /// per client, refilled on completion), writing `mk(id)` for the
    /// `id`-th planned write. The plan's `data_wipes` and `reshards`
    /// *are* honoured — their virtual-time offsets are read as
    /// wall-clock offsets from the start of the run — so the wipe-repair
    /// drill and live resharding both run on real sockets; the
    /// adversarial fault kinds remain simulator-only. Returns the
    /// wall-clock measurements.
    ///
    /// # Panics
    ///
    /// Panics if the workload is open-loop or carries a simulator-only
    /// fault (Byzantine servers are a builder knob), or if the
    /// deployment stalls for thirty wall-clock seconds.
    pub fn run_workload(&mut self, w: &Workload, mk: impl Fn(u64) -> V) -> NetReport {
        assert!(
            matches!(w.loop_mode, LoopMode::Closed),
            "the socket harness drives closed-loop workloads only"
        );
        let f = &w.faults;
        assert!(
            f.byzantine.is_empty()
                && f.corruptions.is_empty()
                && f.client_corruptions.is_empty()
                && f.link_garbage.is_empty(),
            "adversarial fault plans are simulator-only (Byzantine servers are a builder knob)"
        );
        let mut wipes: Vec<(Duration, usize)> = f
            .data_wipes
            .iter()
            .map(|&(at, i)| (Duration::from_nanos(at.as_nanos()), i))
            .collect();
        wipes.sort_by_key(|&(at, _)| at);
        let mut reshards: Vec<(Duration, ReshardPlan)> = f
            .reshards
            .iter()
            .map(|(at, p)| (Duration::from_nanos(at.as_nanos()), p.clone()))
            .collect();
        reshards.sort_by_key(|&(at, _)| at);
        let mut streams = WorkloadStreams::new(w, self.table.base(), self.clients.len());
        let mut inflight: HashMap<OpId, usize> = HashMap::new();
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let started = Instant::now();
        let mut issue =
            |sys: &mut Self, streams: &mut WorkloadStreams, c: usize| match streams.next_for(c) {
                None => None,
                Some(PlannedOp::Get { key }) => {
                    reads += 1;
                    Some(sys.get(c, &key))
                }
                Some(PlannedOp::Put { key, id }) => {
                    writes += 1;
                    Some(sys.put(&key, mk(id)))
                }
            };
        for c in 0..self.clients.len() {
            if let Some(op) = issue(self, &mut streams, c) {
                inflight.insert(op, c);
                issued += 1;
            }
        }
        // Control-only drain windows (handoff events, idle waits before
        // a scheduled fault falls due) legitimately complete zero ops,
        // so stall detection is a wall-clock deadline since the last
        // sign of progress — not per-window emptiness.
        let mut last_progress = Instant::now();
        while completed < issued
            || issued < w.ops
            || !wipes.is_empty()
            || !reshards.is_empty()
            || self.reshard_active()
        {
            while wipes
                .first()
                .is_some_and(|&(at, _)| started.elapsed() >= at)
            {
                let (_, i) = wipes.remove(0);
                self.wipe_server_data(i);
                last_progress = Instant::now();
            }
            // One handoff at a time: a due plan waits until its
            // predecessor has fully drained, exactly as in the sim.
            while !self.reshard_active()
                && reshards
                    .first()
                    .is_some_and(|&(at, _)| started.elapsed() >= at)
            {
                let (_, plan) = reshards.remove(0);
                self.begin_reshard(&plan);
                last_progress = Instant::now();
            }
            let done = self.await_completions(Duration::from_millis(100));
            assert!(
                last_progress.elapsed() < STALL_TIMEOUT,
                "socket workload stalled: {completed} of {} ops completed",
                w.ops
            );
            if done.is_empty() {
                continue;
            }
            last_progress = Instant::now();
            completed += done.len() as u64;
            for (pid, op) in done {
                // Refill the stream that issued the op. After a shard
                // migration a put completes at the *new* owner, so the
                // completing pid no longer identifies the stream — the
                // issue-time map does. Positional fallback covers
                // duplicate-op edge cases.
                let c = inflight.remove(&op).unwrap_or_else(|| {
                    self.clients
                        .iter()
                        .position(|&p| p == pid)
                        .expect("completion from a client")
                });
                if let Some(op) = issue(self, &mut streams, c) {
                    inflight.insert(op, c);
                    issued += 1;
                }
            }
        }
        let wall_elapsed = started.elapsed();
        let secs = wall_elapsed.as_secs_f64();
        NetReport {
            issued,
            completed,
            reads,
            writes,
            wall_elapsed,
            ops_per_wall_sec: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            put_latency: self.latency.get("put").and_then(LatencyHistogram::summary),
            get_latency: self.latency.get("get").and_then(LatencyHistogram::summary),
            slow: self.rt.slow_paths(),
            transport_drops: self.transport_drops(),
            decode_rejects: self.decode_rejects(),
        }
    }

    /// The completed-op latency histogram of `kind` (`"put"` / `"get"`).
    pub fn latency_histogram(&self, kind: &str) -> Option<&LatencyHistogram> {
        self.latency.get(kind)
    }

    /// Slow-path counters folded from every node thread — the same
    /// tallies the simulator reports in its `Metrics`.
    pub fn slow_paths(&self) -> SlowPath {
        self.rt.slow_paths()
    }

    /// Messages dropped by transports after exhausting reconnects.
    pub fn transport_drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Inbound frames that failed to decode (each one killed its
    /// connection).
    pub fn decode_rejects(&self) -> u64 {
        self.fabric.decode_rejects()
    }

    /// The online atomicity monitor, when enabled at build time.
    pub fn monitor(&self) -> Option<&ConsistencyMonitor<Option<V>>> {
        self.monitor.as_ref()
    }

    /// Violations the online monitor has flagged (empty when the monitor
    /// is off or clean).
    pub fn monitor_violations(&self) -> &[Violation] {
        self.monitor.as_ref().map_or(&[], |m| m.violations())
    }

    /// Keys touched by completed operations.
    pub fn keys_touched(&self) -> BTreeSet<String> {
        self.log.completed.iter().map(|r| r.key.clone()).collect()
    }

    /// The extracted history of one key — same shape as the sim
    /// harness's, so the same checkers (and the differential
    /// `equivalent_write_histories`) apply.
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

    /// Every touched key's history, keyed — the input shape of
    /// `sbs_check::equivalent_write_histories`.
    pub fn histories(&self) -> BTreeMap<String, History<Option<V>>> {
        self.log
            .histories()
            .map(|(key, h)| (key.to_string(), h))
            .collect()
    }

    /// Checks every touched key's history for register linearizability
    /// (initial state: absent), exactly like the sim harness.
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
}

/// Wall-clock measurements from one [`NetStoreSystem::run_workload`].
#[derive(Clone, Debug)]
pub struct NetReport {
    /// Operations issued.
    pub issued: u64,
    /// Operations completed.
    pub completed: u64,
    /// Reads issued.
    pub reads: u64,
    /// Writes issued.
    pub writes: u64,
    /// Wall time from first invocation to last completion.
    pub wall_elapsed: Duration,
    /// Completed operations per wall-clock second — the number the sim
    /// benches could never report.
    pub ops_per_wall_sec: f64,
    /// Completed-put latency percentiles (wall nanoseconds).
    pub put_latency: Option<LatencySummary>,
    /// Completed-get latency percentiles (wall nanoseconds).
    pub get_latency: Option<LatencySummary>,
    /// Slow-path counters folded across all node threads.
    pub slow: SlowPath,
    /// Messages the transports gave up on (link loss).
    pub transport_drops: u64,
    /// Inbound frames refused by the codec.
    pub decode_rejects: u64,
}
