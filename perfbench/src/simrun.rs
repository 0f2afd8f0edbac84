//! The simulator workloads: a closed-loop drive loop over the public
//! `WorkloadStreams` that survives stalls, and the tracing shim that
//! times every node handler from outside the program.

use sbs_bulk::{BulkDigest, BulkRef};
use sbs_check::atomic_stabilization_point;
use sbs_core::Payload;
use sbs_sim::{Context, DetRng, Message, Metrics, Node, OpId, ProcessId, SimDuration, TimerId};
use sbs_store::{
    DataPlane, KeyDist, LoopMode, OpMix, PlannedOp, ShardMap, SizedVal, StoreBuilder, StoreMsg,
    StoreOut, StoreSystem, StoreVal, StoreWire, Workload, WorkloadStreams,
};
use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual time between completion sweeps of the drive loop (the same
/// slice `Workload::run` uses).
const DRIVE_SLICE: SimDuration = SimDuration::millis(5);
/// Simulated time without a completion after which the drive loop stops and
/// counts every unfinished operation as failed.
const STALL: SimDuration = SimDuration::secs(1);

/// One transient episode: a server's state is corrupted and every
/// client⇄server link receives garbage batches.
#[derive(Clone, Copy, Debug)]
pub struct Transient {
    /// Completed share of the op quota at which the episode starts.
    pub at_fraction: f64,
    /// The corrupted server.
    pub server: usize,
    /// Garbage batches injected per link direction.
    pub garbage: usize,
}

/// A wipe of one server's bulk data stores.
#[derive(Clone, Copy, Debug)]
pub struct Wipe {
    /// Completed share of the op quota at which the wipe happens.
    pub at_fraction: f64,
    /// The wiped server.
    pub server: usize,
}

/// A simulator workload: deployment shape, op stream shape and faults.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// The deployment, Byzantine slots included; the seed is set per round.
    pub builder: StoreBuilder,
    /// Operations asked for per round.
    pub ops: u64,
    /// Key space size.
    pub keys: usize,
    /// Filler bytes of every written `SizedVal`.
    pub value_len: u32,
    /// Share of reads in a writer's stream (read-only clients only read).
    pub read_fraction: f64,
    /// Mid-run transient episode, if any.
    pub transient: Option<Transient>,
    /// Mid-run data wipe, if any.
    pub wipe: Option<Wipe>,
    /// Write every key once before the timed loop (YCSB's load phase),
    /// so snapshots start at their full size.
    pub preload: bool,
    /// Rounds every run makes; its simulated quantities are reported over
    /// these, so they are a pure function of the seed. Host-time
    /// quantities use every round of the timed run.
    pub rounds: u64,
    /// Host seconds one round takes on a 2-vCPU VM, set on workloads
    /// whose faults can stall a round. Such a run makes a fixed number of
    /// rounds sized from `--seconds` with this figure, instead of
    /// repeating rounds until `--seconds` have passed, so the ops it asks
    /// for and the ops that fail are a pure function of `--seed` and
    /// `--seconds`, not of the host's speed.
    pub fixed_round_s: Option<f64>,
}

/// Values of the load phase carry ids `PRELOAD_IDS + key rank`, disjoint
/// from the ids the op streams plan.
const PRELOAD_IDS: u64 = 1 << 40;

impl SimSpec {
    fn value(&self, id: u64) -> SizedVal {
        SizedVal::new(id, self.value_len)
    }

    fn workload(&self, seed: u64) -> Workload {
        Workload {
            ops: self.ops,
            keys: self.keys,
            mix: OpMix {
                read_fraction: self.read_fraction,
            },
            dist: KeyDist::Zipfian { theta: 0.99 },
            loop_mode: LoopMode::Closed,
            seed,
            faults: Default::default(),
        }
    }
}

/// Simulator and workload seeds of round `round` of a run seeded `seed`.
pub fn round_seeds(seed: u64, round: u64) -> (u64, u64) {
    let mut rng = DetRng::derive(seed, round);
    (rng.next_u64(), rng.next_u64())
}

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    /// Operations the round asked for.
    pub asked: u64,
    /// Operations that completed.
    pub completed: u64,
    /// Operations completed when the first scheduled fault was applied
    /// (the known stalls only start after it).
    pub completed_at_fault: Option<u64>,
    /// Host seconds from the first invocation to the last completion.
    pub host_s: f64,
    /// Simulated seconds from the first invocation to the last completion.
    pub clock_s: f64,
    /// Exact put latencies, simulated nanoseconds.
    pub put_ns: Vec<u64>,
    /// Exact get latencies, simulated nanoseconds.
    pub get_ns: Vec<u64>,
    /// The simulator's counters at the end of the round.
    pub metrics: Metrics,
    /// Metadata envelopes sent up to the last completion.
    pub envelopes: u64,
    /// Metadata plus bulk bytes sent up to the last completion.
    pub wire_bytes: u64,
    /// Largest per-server stored shard bytes at the end of the round.
    pub stored_max_bytes: u64,
    /// Simulated seconds from the transient episode until every key's
    /// history has an atomic suffix (capped at the last completion).
    pub stabilization_s: Option<f64>,
    /// `(op, invoked, responded)` of every completed op, in completion
    /// order — with `metrics`, the deterministic fingerprint the traced
    /// rerun must reproduce.
    pub records: Vec<(u64, u64, u64)>,
    /// Per-key atomicity verdict (`check_per_key_atomicity`).
    pub atomicity: Result<usize, String>,
}

/// Host time the benchmark-side drive loop spent outside node handlers
/// (traced rounds only).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopTimes {
    /// `Simulation::run_for` wall time (includes every handler).
    pub run_for: Duration,
    /// `StoreSystem::drain` wall time (harness bookkeeping).
    pub drain: Duration,
    /// `StoreSystem::put` / `get` wall time and call count.
    pub invoke: Duration,
    /// Number of invocations.
    pub invocations: u64,
}

/// Which side of the fleet a shimmed node is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Client,
    Server,
}

/// Handler time and counts the shims accumulate.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// `(role, message label or "timer")` → (calls, handler nanoseconds).
    pub by_label: BTreeMap<(&'static str, &'static str), (u64, u64)>,
    /// Client handler calls and nanoseconds.
    pub client: (u64, u64),
    /// Server handler calls and nanoseconds.
    pub server: (u64, u64),
    /// Metadata envelopes (`Batch`) delivered.
    pub envelopes: u64,
    /// Register-protocol messages delivered inside envelopes.
    pub regmsgs: u64,
    /// Timer fires at clients (where the register engines live).
    pub client_timers: u64,
}

impl Counters {
    /// Adds `other`'s counts into these.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.by_label {
            let e = self.by_label.entry(*k).or_insert((0, 0));
            e.0 += v.0;
            e.1 += v.1;
        }
        self.client = (
            self.client.0 + other.client.0,
            self.client.1 + other.client.1,
        );
        self.server = (
            self.server.0 + other.server.0,
            self.server.1 + other.server.1,
        );
        self.envelopes += other.envelopes;
        self.regmsgs += other.regmsgs;
        self.client_timers += other.client_timers;
    }

    fn charge(&mut self, role: Role, label: &'static str, ns: u64) {
        let (side, name) = match role {
            Role::Client => (&mut self.client, "client"),
            Role::Server => (&mut self.server, "server"),
        };
        side.0 += 1;
        side.1 += ns;
        let e = self.by_label.entry((name, label)).or_insert((0, 0));
        e.0 += 1;
        e.1 += ns;
    }
}

/// Everything the shims record.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Handler time and counts.
    pub counters: Counters,
    /// Dispersal commitments seen on the wire: root → (fragment length,
    /// fragment total).
    pub dispersals: HashMap<BulkDigest, (usize, usize)>,
    /// Fragment replies carrying a fragment, per (client, round tag).
    pub frag_replies: HashMap<(ProcessId, u64), u64>,
}

type Wire = StoreWire<SizedVal>;
type Out = StoreOut<SizedVal>;
type Inner = Box<dyn Node<Msg = Wire, Out = Out>>;

/// Wraps one node: forwards every handler and times it. `on_start` is
/// the default no-op, so installing a shim re-arms nothing.
struct Shim {
    inner: Option<Inner>,
    role: Role,
    stats: Rc<RefCell<LayerStats>>,
}

impl Shim {
    fn inner(&mut self) -> &mut Inner {
        self.inner.as_mut().expect("shim installed with its node")
    }
}

impl Node for Shim {
    type Msg = Wire;
    type Out = Out;

    fn on_message(&mut self, from: ProcessId, msg: Wire, ctx: &mut Context<'_, Wire, Out>) {
        let label = msg.label();
        {
            let mut s = self.stats.borrow_mut();
            match &msg {
                StoreMsg::Batch(inner) => {
                    s.counters.envelopes += 1;
                    s.counters.regmsgs += inner.len() as u64;
                }
                StoreMsg::FragPut {
                    root, bytes, total, ..
                } => {
                    s.dispersals.insert(*root, (bytes.len(), *total as usize));
                }
                StoreMsg::FragGetAck {
                    tag, frag: Some(_), ..
                } if self.role == Role::Client => {
                    *s.frag_replies.entry((ctx.me(), *tag)).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        let t0 = Instant::now();
        self.inner().on_message(from, msg, ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats
            .borrow_mut()
            .counters
            .charge(self.role, label, ns);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, Wire, Out>) {
        let t0 = Instant::now();
        self.inner().on_timer(timer, ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        let c = &mut self.stats.borrow_mut().counters;
        if self.role == Role::Client {
            c.client_timers += 1;
        }
        c.charge(self.role, "timer", ns);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.inner().on_corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        // Once installed, the harness's downcasts must reach the wrapped
        // node; only the installation step addresses the shim itself.
        if self.inner.is_some() {
            self.inner().as_any_mut()
        } else {
            self
        }
    }
}

/// Swaps every node of `sys` for a timing shim around it.
fn install_shims(sys: &mut StoreSystem<SizedVal>, stats: &Rc<RefCell<LayerStats>>) {
    let nodes: Vec<(ProcessId, Role)> = sys
        .clients
        .iter()
        .map(|&p| (p, Role::Client))
        .chain(sys.servers.iter().map(|&p| (p, Role::Server)))
        .collect();
    for (pid, role) in nodes {
        let shim = Shim {
            inner: None,
            role,
            stats: Rc::clone(stats),
        };
        let old = sys.sim.replace_node(pid, shim);
        sys.sim
            .with_node::<Shim, _>(pid, move |s, _| s.inner = Some(old));
    }
}

/// A traced round's layer data. Counts, times and simulator counters are
/// taken at the last completion, so the work a stalled round does after
/// it is not charged to completed operations.
#[derive(Debug)]
pub struct Traced {
    /// What the shims saw over the whole round.
    pub stats: LayerStats,
    /// Shim counters at the last completion.
    pub upto: Counters,
    /// The drive loop's own split at the last completion.
    pub times: LoopTimes,
    /// Simulator counters at the last completion.
    pub metrics: Metrics,
    /// The data plane the round ran.
    pub plane: DataPlane,
}

/// Runs one closed-loop round of `spec` with round seeds `seeds`; when
/// `traced`, every node is shimmed and the drive loop times its calls.
pub fn drive(spec: &SimSpec, seeds: (u64, u64), traced: bool) -> (Round, Option<Traced>) {
    let builder = spec.builder.clone().seed(seeds.0);
    let mut sys: StoreSystem<SizedVal> = builder.build();
    let stats = traced.then(|| Rc::new(RefCell::new(LayerStats::default())));
    if let Some(stats) = &stats {
        install_shims(&mut sys, stats);
    }
    let mut times = LoopTimes::default();
    // Load phase, outside the timed window and the op accounting.
    let mut run_ops_from = 0;
    if spec.preload {
        for rank in 0..spec.keys {
            sys.put(&format!("key{rank}"), spec.value(PRELOAD_IDS + rank as u64));
        }
        run_ops_from = spec.keys as u64;
        let mut loaded = 0;
        let mut idle = SimDuration::ZERO;
        while loaded < spec.keys {
            let done = sys.run_for(DRIVE_SLICE).len();
            idle = if done == 0 {
                idle + DRIVE_SLICE
            } else {
                SimDuration::ZERO
            };
            assert!(
                idle < STALL,
                "the load phase stalled at {loaded} of {} puts",
                spec.keys
            );
            loaded += done;
        }
    }
    if let Some(stats) = &stats {
        let mut s = stats.borrow_mut();
        s.dispersals.clear();
        s.frag_replies.clear();
    }
    let mut snapshot = None;
    let w = spec.workload(seeds.1);
    let mut streams = WorkloadStreams::new(&w, sys.router(), sys.clients.len());
    let mut inflight: HashMap<OpId, usize> = HashMap::new();
    let mut issue = |sys: &mut StoreSystem<SizedVal>, c: usize, times: &mut LoopTimes| {
        let t = traced.then(Instant::now);
        let op = match streams.next_for(c)? {
            PlannedOp::Get { key } => sys.get(c, &key),
            PlannedOp::Put { key, id } => sys.put(&key, spec.value(id)),
        };
        if let Some(t) = t {
            times.invoke += t.elapsed();
            times.invocations += 1;
        }
        Some(op)
    };

    let start_sim = sys.sim.now();
    let start = Instant::now();
    let mut issued = 0u64;
    for c in 0..sys.clients.len() {
        if let Some(op) = issue(&mut sys, c, &mut times) {
            inflight.insert(op, c);
            issued += 1;
        }
    }
    let mut completed = 0u64;
    let (mut envelopes, mut wire_bytes) = (0, 0);
    let mut last_done_wall = start;
    let mut last_done_sim = start_sim;
    let mut transient = spec.transient;
    let mut wipe = spec.wipe;
    let mut fault_at = None;
    let mut completed_at_fault = None;
    while completed < issued || issued < spec.ops {
        let t = traced.then(Instant::now);
        sys.sim.run_for(DRIVE_SLICE);
        let t = t.map(|t| {
            times.run_for += t.elapsed();
            Instant::now()
        });
        let done = sys.drain();
        if let Some(t) = t {
            times.drain += t.elapsed();
        }
        let quota_share = completed as f64 / spec.ops as f64;
        if let Some(tr) = transient.filter(|tr| quota_share >= tr.at_fraction) {
            sys.corrupt_server(tr.server);
            sys.pollute_links(tr.garbage);
            fault_at = Some(sys.sim.now());
            completed_at_fault.get_or_insert(completed);
            transient = None;
        }
        if let Some(wp) = wipe.filter(|wp| quota_share >= wp.at_fraction) {
            sys.wipe_server_data(wp.server);
            completed_at_fault.get_or_insert(completed);
            wipe = None;
        }
        if done.is_empty() {
            if sys.sim.now() - last_done_sim >= STALL {
                break;
            }
            continue;
        }
        last_done_wall = Instant::now();
        last_done_sim = sys.sim.now();
        completed += done.len() as u64;
        let m = sys.sim.metrics();
        envelopes = m.sent_with_label("BATCH");
        wire_bytes = m.metadata_bytes_sent + m.bulk_bytes_sent;
        if let Some(stats) = &stats {
            snapshot = Some((
                stats.borrow().counters.clone(),
                times,
                sys.sim.metrics().clone(),
            ));
        }
        for (pid, op) in done {
            let c = inflight
                .remove(&op)
                .unwrap_or_else(|| sys.clients.iter().position(|&p| p == pid).expect("client"));
            if let Some(op) = issue(&mut sys, c, &mut times) {
                inflight.insert(op, c);
                issued += 1;
            }
        }
    }
    let host_s = (last_done_wall - start).as_secs_f64();
    let clock_s = (last_done_sim - start_sim).as_nanos() as f64 / 1e9;

    // Everything below runs outside the timed window.
    let mut put_ns = Vec::new();
    let mut get_ns = Vec::new();
    let mut records = Vec::new();
    let mut final_maps: BTreeMap<u32, ShardMap<SizedVal>> = BTreeMap::new();
    let mut latest_point = 0u64;
    let mut stabilized = true;
    for key in sys.keys_touched() {
        let h = sys.history_for_key(&key);
        let mut last_write: Option<(u64, SizedVal)> = None;
        for r in h.ops() {
            let lat = r.responded.as_nanos() - r.invoked.as_nanos();
            records.push((r.op.0, r.invoked.as_nanos(), r.responded.as_nanos()));
            let timed = r.op.0 >= run_ops_from;
            if r.kind.is_write() {
                if timed {
                    put_ns.push(lat);
                }
                let v = r.kind.value().expect("a put writes a value");
                if last_write.is_none_or(|(at, _)| at < r.responded.as_nanos()) {
                    last_write = Some((r.responded.as_nanos(), v));
                }
            } else if timed {
                get_ns.push(lat);
            }
        }
        if let Some((_, v)) = last_write {
            final_maps
                .entry(sys.router().shard_of(&key))
                .or_insert_with(ShardMap::new)
                .insert(&key, v);
        }
        if fault_at.is_some() {
            // A key whose whole history is the atomic suffix never left
            // the atomic regime; only later suffix starts count.
            let first = h.ops().first().map(|r| r.invoked);
            match atomic_stabilization_point(&h) {
                Ok(Some(p)) if Some(p) != first => latest_point = latest_point.max(p.as_nanos()),
                Ok(Some(_)) => {}
                _ => stabilized = false,
            }
        }
    }
    records.sort_by_key(|&(op, _, responded)| (responded, op));
    let stabilization_s = fault_at.map(|f| {
        let end = if stabilized {
            latest_point
        } else {
            last_done_sim.as_nanos()
        };
        end.saturating_sub(f.as_nanos()) as f64 / 1e9
    });
    let plane = sys.plane();
    let register_bytes: u64 = match plane {
        DataPlane::Full => final_maps
            .values()
            .map(|m| StoreVal::Inline(Arc::new(m.clone())).wire_size())
            .sum(),
        DataPlane::Bulk { .. } | DataPlane::Coded { .. } => {
            let reference: StoreVal<SizedVal> = StoreVal::Ref(BulkRef::to_bytes(b""));
            sys.config().shards as u64 * reference.wire_size()
        }
    };
    let stored_max_bytes = (0..sys.servers.len())
        .map(|i| register_bytes + sys.bulk_bytes_stored(i))
        .max()
        .expect("a fleet has servers");
    let atomicity = sys.check_per_key_atomicity();
    let round = Round {
        asked: spec.ops,
        completed,
        completed_at_fault,
        host_s,
        clock_s,
        put_ns,
        get_ns,
        metrics: sys.sim.metrics().clone(),
        envelopes,
        wire_bytes,
        stored_max_bytes,
        stabilization_s,
        records,
        atomicity,
    };
    drop(sys);
    let traced = stats.map(|s| {
        let (upto, times, metrics) = snapshot.unwrap_or_default();
        Traced {
            stats: Rc::try_unwrap(s)
                .unwrap_or_else(|_| panic!("shims dropped with the system"))
                .into_inner(),
            upto,
            times,
            metrics,
            plane,
        }
    });
    (round, traced)
}

/// `StoreBuilder::build` times of `reps` deployments of `spec`, seeded
/// from a round's seeds, in seconds.
pub fn setup_samples(spec: &SimSpec, seeds: (u64, u64), reps: u64) -> Vec<f64> {
    (0..reps)
        .map(|r| {
            let b = spec.builder.clone().seed(seeds.0.wrapping_add(r));
            let t0 = Instant::now();
            let sys: StoreSystem<SizedVal> = b.build();
            let s = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(sys));
            s
        })
        .collect()
}
