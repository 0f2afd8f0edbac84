//! The loopback-TCP workload. The deployment is the one
//! `NetStoreSystem::deploy` builds, assembled here from the same public
//! parts (`StoreBuilder::build_nodes`, `NetFabric`, `ThreadRuntime`,
//! `TcpTransport`) so that every outbound message can be counted — and,
//! in a traced run, timed and captured — at the transport boundary.

use sbs_check::{check_linearizable, History, InitialState, OpKind, OpRecord};
use sbs_core::Payload;
use sbs_net::{NetFabric, TcpTransport, WireCodec};
use sbs_sim::{Message, OpId, ProcessId, SimTime, ThreadRuntime, Transport};
use sbs_store::{
    KeyDist, KeyRouter, LoopMode, OpMix, PlannedOp, ShardMap, StoreBuilder, StoreClientNode,
    StoreMsg, StoreOut, StoreVal, StoreWire, Workload, WorkloadStreams,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall time without a completion after which the loop stops and counts
/// every unfinished operation as failed.
const STALL: Duration = Duration::from_secs(10);

/// A socket workload: deployment shape and op stream shape.
#[derive(Clone, Debug)]
pub struct NetSpec {
    /// The deployment; the seed is set per round.
    pub builder: StoreBuilder,
    /// Operations asked for per round.
    pub ops: u64,
    /// Key space size.
    pub keys: usize,
    /// Share of reads in a writer's stream.
    pub read_fraction: f64,
}

impl NetSpec {
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

/// Counters shared by every node's transport.
#[derive(Debug, Default)]
struct Wire {
    /// Metadata envelopes (`Batch`) handed to the transport.
    envelopes: AtomicU64,
    /// Every message handed to the transport.
    frames: AtomicU64,
    /// `Message::wire_bytes` of every message (the simulator's measure).
    bytes: AtomicU64,
    /// Wall nanoseconds inside `TcpTransport::send` (traced rounds).
    send_ns: AtomicU64,
    /// Messages kept for the codec replay (traced rounds).
    captured: Mutex<Vec<StoreWire<u64>>>,
}

/// `TcpTransport` plus counting; timing and capture when traced.
struct Counted {
    inner: TcpTransport<u64>,
    wire: Arc<Wire>,
    capture_limit: Option<usize>,
}

impl Transport<StoreWire<u64>> for Counted {
    fn send(&mut self, from: ProcessId, to: ProcessId, msg: StoreWire<u64>) {
        if matches!(msg, StoreMsg::Batch(_)) {
            self.wire.envelopes.fetch_add(1, Ordering::Relaxed);
        }
        self.wire.frames.fetch_add(1, Ordering::Relaxed);
        self.wire
            .bytes
            .fetch_add(msg.wire_bytes(), Ordering::Relaxed);
        let Some(limit) = self.capture_limit else {
            self.inner.send(from, to, msg);
            return;
        };
        {
            let mut captured = self.wire.captured.lock().expect("capture lock");
            if captured.len() < limit {
                captured.push(msg.clone());
            }
        }
        let t = Instant::now();
        self.inner.send(from, to, msg);
        self.wire
            .send_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A running loopback deployment. Field order matters on drop: the
/// runtime stops the node threads before the fabric joins its readers.
struct Deployment {
    rt: ThreadRuntime<StoreWire<u64>, StoreOut<u64>>,
    fabric: NetFabric,
    clients: Vec<ProcessId>,
    router: KeyRouter,
    wsn_modulus: u128,
    drops: Arc<AtomicU64>,
    wire: Arc<Wire>,
    epoch: Instant,
    next_op: u64,
    /// In-flight op → (issuing stream, client, invoked, key, put value).
    invoked: HashMap<OpId, (usize, ProcessId, SimTime, String, Option<u64>)>,
    completed: BTreeMap<String, Vec<OpRecord<Option<u64>>>>,
}

impl Deployment {
    fn deploy(builder: &StoreBuilder, capture_limit: Option<usize>) -> Self {
        let set = builder.build_nodes::<u64>();
        let total = set.nodes.len();
        let codec = WireCodec::new(set.wsn_modulus);
        let mut fabric = NetFabric::bind(total).expect("bind loopback listeners");
        let addrs = fabric.addrs().to_vec();
        let drops = Arc::new(AtomicU64::new(0));
        let wire = Arc::new(Wire::default());
        let rt = ThreadRuntime::spawn_with_transport(set.nodes, set.seed, |me, _| {
            Box::new(Counted {
                inner: TcpTransport::new(me, addrs.clone(), codec, Arc::clone(&drops)),
                wire: Arc::clone(&wire),
                capture_limit,
            })
        });
        let injectors = (0..total)
            .map(|i| rt.injector(ProcessId(i as u32)))
            .collect();
        fabric.start(codec, injectors);
        Deployment {
            rt,
            fabric,
            clients: set.clients,
            router: set.router,
            wsn_modulus: set.wsn_modulus,
            drops,
            wire,
            epoch: Instant::now(),
            next_op: 0,
            invoked: HashMap::new(),
            completed: BTreeMap::new(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn issue(&mut self, stream: usize, op: PlannedOp) {
        let id = OpId(self.next_op);
        self.next_op += 1;
        let (client, key, val) = match op {
            PlannedOp::Get { key } => (self.clients[stream], key, None),
            PlannedOp::Put { key, id } => {
                (self.clients[self.router.writer_of(&key)], key, Some(id))
            }
        };
        self.invoked
            .insert(id, (stream, client, self.now(), key.clone(), val));
        match val {
            Some(v) => self
                .rt
                .invoke::<StoreClientNode<u64>>(client, move |n, ctx| {
                    n.invoke_put(id, key, v, ctx)
                }),
            None => self
                .rt
                .invoke::<StoreClientNode<u64>>(client, move |n, ctx| n.invoke_get(id, key, ctx)),
        }
    }

    /// Waits up to `timeout` for completions; returns the issuing stream
    /// of each completed op.
    fn await_completions(&mut self, timeout: Duration) -> Vec<usize> {
        let mut outs = Vec::new();
        if let Some(first) = self.rt.recv_output(timeout) {
            outs.push(first);
            outs.extend(self.rt.drain_outputs());
        }
        let at = self.now();
        let mut streams = Vec::new();
        for (_, out) in outs {
            let (op, read) = match out {
                StoreOut::PutDone { op } => (op, None),
                StoreOut::GetDone { op, value } => (op, Some(value)),
                _ => continue,
            };
            let Some((stream, client, invoked, key, val)) = self.invoked.remove(&op) else {
                continue;
            };
            let kind = match val {
                Some(v) => OpKind::Write(Some(v)),
                None => OpKind::Read(read.expect("a get completion carries its value")),
            };
            self.completed.entry(key).or_default().push(OpRecord {
                client,
                op,
                invoked,
                responded: at,
                kind,
            });
            streams.push(stream);
        }
        streams
    }
}

/// Everything one socket round measured.
#[derive(Debug)]
pub struct NetRound {
    /// Operations asked for.
    pub asked: u64,
    /// Operations completed.
    pub completed: u64,
    /// Wall seconds from the first invocation to the last completion.
    pub host_s: f64,
    /// Exact put latencies, wall nanoseconds.
    pub put_ns: Vec<u64>,
    /// Exact get latencies, wall nanoseconds.
    pub get_ns: Vec<u64>,
    /// Metadata envelopes sent.
    pub envelopes: u64,
    /// Messages sent (one frame each).
    pub frames: u64,
    /// `wire_bytes` of every message sent.
    pub bytes: u64,
    /// Wall nanoseconds inside `TcpTransport::send` (traced rounds).
    pub send_ns: u64,
    /// Messages kept for the codec replay (traced rounds).
    pub captured: Vec<StoreWire<u64>>,
    /// The deployment's write-sequence ring modulus (codec replay).
    pub wsn_modulus: u128,
    /// Largest per-server stored shard bytes (every server holds every
    /// shard's final map under full replication).
    pub stored_max_bytes: u64,
    /// Messages the transports gave up on.
    pub drops: u64,
    /// Inbound frames the codec refused.
    pub rejects: u64,
    /// Per-key atomicity verdict.
    pub atomicity: Result<usize, String>,
}

/// Runs one closed-loop round on a fresh loopback deployment; with
/// `capture = Some(limit)` the transports also time each send and keep
/// up to `limit` messages.
pub fn drive(spec: &NetSpec, seeds: (u64, u64), capture: Option<usize>) -> NetRound {
    let builder = spec.builder.clone().seed(seeds.0);
    let mut sys = Deployment::deploy(&builder, capture);
    let w = spec.workload(seeds.1);
    let mut streams = WorkloadStreams::new(&w, &sys.router, sys.clients.len());

    let start = Instant::now();
    let mut issued = 0u64;
    for c in 0..sys.clients.len() {
        if let Some(op) = streams.next_for(c) {
            sys.issue(c, op);
            issued += 1;
        }
    }
    let mut completed = 0u64;
    let mut last_done = start;
    while completed < issued || issued < spec.ops {
        let done = sys.await_completions(Duration::from_millis(100));
        if done.is_empty() {
            if last_done.elapsed() >= STALL {
                break;
            }
            continue;
        }
        last_done = Instant::now();
        completed += done.len() as u64;
        for c in done {
            if let Some(op) = streams.next_for(c) {
                sys.issue(c, op);
                issued += 1;
            }
        }
    }
    let host_s = (last_done - start).as_secs_f64();
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let (envelopes, frames, bytes, send_ns) = (
        load(&sys.wire.envelopes),
        load(&sys.wire.frames),
        load(&sys.wire.bytes),
        load(&sys.wire.send_ns),
    );

    // Outside the timed window.
    let (drops, rejects) = (load(&sys.drops), sys.fabric.decode_rejects());
    let captured = std::mem::take(&mut *sys.wire.captured.lock().expect("capture lock"));
    let Deployment {
        rt,
        fabric,
        router,
        wsn_modulus,
        completed: histories,
        ..
    } = sys;
    drop(rt);
    drop(fabric);
    let mut put_ns = Vec::new();
    let mut get_ns = Vec::new();
    let mut final_maps: BTreeMap<u32, ShardMap<u64>> = BTreeMap::new();
    let mut atomicity = Ok(0);
    for (key, records) in histories {
        let h = History::new(records);
        let mut last_write: Option<(SimTime, u64)> = None;
        for r in h.ops() {
            let lat = r.responded.as_nanos() - r.invoked.as_nanos();
            match r.kind {
                OpKind::Write(Some(v)) => {
                    put_ns.push(lat);
                    if last_write.is_none_or(|(at, _)| at < r.responded) {
                        last_write = Some((r.responded, v));
                    }
                }
                _ => get_ns.push(lat),
            }
        }
        if let Some((_, v)) = last_write {
            final_maps
                .entry(router.shard_of(&key))
                .or_default()
                .insert(&key, v);
        }
        if let Ok(checked) = atomicity {
            atomicity = check_key(&key, &h).map(|()| checked + 1);
        }
    }
    let stored_max_bytes = final_maps
        .into_values()
        .map(|m| StoreVal::Inline(Arc::new(m)).wire_size())
        .sum();
    NetRound {
        asked: spec.ops,
        completed,
        host_s,
        put_ns,
        get_ns,
        envelopes,
        frames,
        bytes,
        send_ns,
        captured,
        wsn_modulus,
        stored_max_bytes,
        drops,
        rejects,
        atomicity,
    }
}

/// The store's per-key correctness claim, as `check_per_key_atomicity`
/// judges it: unique writes, and a linearizable register history from
/// the absent initial state.
fn check_key(key: &str, h: &History<Option<u64>>) -> Result<(), String> {
    h.validate_unique_writes()
        .map_err(|e| format!("key {key}: {e}"))?;
    let initial = InitialState::OneOf(std::iter::once(None).collect());
    let rep = check_linearizable(h, &initial).map_err(|e| format!("key {key}: {e}"))?;
    if rep.linearizable {
        Ok(())
    } else {
        Err(format!(
            "key {key}: history not linearizable (failed segment {:?})",
            rep.failed_segment
        ))
    }
}

/// Deployment times of `reps` loopback deployments, seconds.
pub fn setup_samples(spec: &NetSpec, seeds: (u64, u64), reps: u64) -> Vec<f64> {
    (0..reps)
        .map(|r| {
            let b = spec.builder.clone().seed(seeds.0.wrapping_add(r));
            let t0 = Instant::now();
            let sys = Deployment::deploy(&b, None);
            let s = t0.elapsed().as_secs_f64();
            drop(sys);
            s
        })
        .collect()
}
