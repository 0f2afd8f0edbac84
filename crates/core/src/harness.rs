//! Scenario harness: one-call construction of complete register
//! deployments inside the simulator, with fault plans, operation
//! bookkeeping, and [`History`] extraction for the checkers.
//!
//! Four scenario types cover the paper's four constructions:
//!
//! - [`RegularSwsr`] — Figure 2 / Figure 5 (via [`SwsrBuilder::sync`]);
//! - [`AtomicSwsr`] — Figure 3;
//! - [`SwmrSystem`] — §5.1 (one writer, many readers);
//! - [`MwmrSystem`] — Figure 4 (every process reads and writes).
//!
//! The harness requires **unique write values** (pass a fresh value to
//! every `write`) so the extracted history can be checked; see
//! `sbs_check::History::validate_unique_writes`.

use crate::byz::{ByzServerNode, ByzStrategy};
use crate::config::{RegId, RegisterConfig};
use crate::msg::{ClientOut, ReadKind, RegMsg};
use crate::mwmr::{MwmrPayload, MwmrProcessNode, Triple};
use crate::server::ServerNode;
use crate::swsr::{
    AtomicPolicy, AtomicReader, AtomicWriter, PlainStamp, RegularPolicy, RegularReader,
    RegularWriter, WsnStamp,
};
use crate::value::{Payload, SeqVal};
use sbs_check::{History, OpKind, OpRecord};
use sbs_sim::{DelayModel, DetRng, OpId, ProcessId, SimConfig, SimDuration, SimTime, Simulation};
use sbs_stamps::{EpochDomain, RingSeq, PAPER_MODULUS};
use std::collections::HashMap;

/// How long `settle` is willing to simulate before declaring the system
/// non-quiescent.
const SETTLE_HORIZON: SimDuration = SimDuration::secs(600);

/// Operation bookkeeping shared by all scenario types.
#[derive(Debug, Default)]
pub struct OpLog<V> {
    next_op: u64,
    invoked: HashMap<OpId, (ProcessId, SimTime, Option<V>)>,
    completed: Vec<OpRecord<V>>,
}

impl<V: Payload> OpLog<V> {
    /// Creates an empty log. Public so downstream harnesses (e.g. the
    /// baseline registers) can reuse the bookkeeping.
    pub fn new() -> Self {
        OpLog {
            next_op: 0,
            invoked: HashMap::new(),
            completed: Vec::new(),
        }
    }

    /// Records an invocation (`write_val` is `Some` for writes) and
    /// assigns the operation id.
    pub fn fresh(&mut self, client: ProcessId, now: SimTime, write_val: Option<V>) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.invoked.insert(op, (client, now, write_val));
        op
    }

    /// Records a completion (`read_value` is `Some` for reads).
    pub fn complete(&mut self, op: OpId, at: SimTime, read_value: Option<V>) {
        let Some((client, invoked, write_val)) = self.invoked.remove(&op) else {
            return; // duplicate completion of a corrupted run — ignore
        };
        let kind = match write_val {
            Some(v) => OpKind::Write(v),
            None => OpKind::Read(read_value.expect("read completion carries a value")),
        };
        self.completed.push(OpRecord {
            client,
            op,
            invoked,
            responded: at,
            kind,
        });
    }

    /// Completed operations so far, as a checkable history.
    pub fn history(&self) -> History<V> {
        History::new(self.completed.clone())
    }

    /// Operations invoked but not yet completed.
    pub fn pending(&self) -> usize {
        self.invoked.len()
    }
}

/// Configuration shared by every scenario builder.
#[derive(Clone, Debug)]
pub struct SwsrBuilder {
    n: usize,
    t: usize,
    seed: u64,
    delay: DelayModel,
    sync_bound: Option<SimDuration>,
    byz: Vec<(usize, ByzStrategy)>,
    unchecked: bool,
    retry_after: Option<SimDuration>,
    wsn_modulus: u128,
}

impl SwsrBuilder {
    /// Starts a builder for `n` servers tolerating `t` Byzantine ones.
    pub fn new(n: usize, t: usize) -> Self {
        SwsrBuilder {
            n,
            t,
            seed: 1,
            delay: DelayModel::Uniform {
                lo: SimDuration::micros(50),
                hi: SimDuration::millis(2),
            },
            sync_bound: None,
            byz: Vec::new(),
            unchecked: false,
            retry_after: None,
            wsn_modulus: PAPER_MODULUS,
        }
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the link delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Switches to the synchronous model (Figure 5): links are bounded by
    /// `bound` and clients use timeouts derived from it.
    pub fn sync(mut self, bound: SimDuration) -> Self {
        self.delay = DelayModel::Uniform {
            lo: SimDuration::nanos(bound.as_nanos() / 10),
            hi: bound,
        };
        self.sync_bound = Some(bound);
        self
    }

    /// Makes server `index` Byzantine with the given strategy.
    pub fn byzantine(mut self, index: usize, strategy: ByzStrategy) -> Self {
        self.byz.push((index, strategy));
        self
    }

    /// Skips the resilience assertion (`n ≥ 8t+1` / `n ≥ 3t+1`) so
    /// behaviour beyond the proven bound can be probed.
    pub fn unchecked_resilience(mut self) -> Self {
        self.unchecked = true;
        self
    }

    /// Overrides the asynchronous retransmission period.
    pub fn retry_after(mut self, d: SimDuration) -> Self {
        self.retry_after = Some(d);
        self
    }

    /// Overrides the bounded sequence-number modulus of the atomic
    /// constructions (must be odd; the paper uses `2^64 + 1`).
    pub fn wsn_modulus(mut self, modulus: u128) -> Self {
        self.wsn_modulus = modulus;
        self
    }

    fn config(&self) -> RegisterConfig {
        let mut cfg = match (self.sync_bound, self.unchecked) {
            (None, false) => RegisterConfig::asynchronous(self.n, self.t),
            (None, true) => RegisterConfig::asynchronous_unchecked(self.n, self.t),
            (Some(b), false) => RegisterConfig::synchronous(self.n, self.t, b),
            (Some(b), true) => RegisterConfig::synchronous_unchecked(self.n, self.t, b),
        };
        if let Some(r) = self.retry_after {
            cfg = cfg.with_retry_after(r);
        }
        cfg
    }

    /// Builds the Figure 2 (or Figure 5, with [`SwsrBuilder::sync`])
    /// deployment: one writer, one reader, `n` servers.
    pub fn build_regular<V: Payload>(&self, initial: V) -> RegularSwsr<V> {
        let cfg = self.config();
        let mut sim: Simulation<RegMsg<V>, ClientOut<V>> =
            Simulation::new(SimConfig::with_seed(self.seed));
        let writer = sim.reserve_id();
        let reader = sim.reserve_id();
        let servers: Vec<ProcessId> = (0..self.n).map(|_| sim.reserve_id()).collect();
        for &s in &servers {
            sim.add_duplex(writer, s, self.delay.clone());
            sim.add_duplex(reader, s, self.delay.clone());
        }
        for (i, &s) in servers.iter().enumerate() {
            match self.byz.iter().find(|(bi, _)| *bi == i) {
                Some((_, strat)) => {
                    sim.add_node_at(s, ByzServerNode::new(strat.clone(), initial.clone()))
                }
                None => sim.add_node_at(s, ServerNode::<V, ClientOut<V>>::new(initial.clone())),
            }
        }
        sim.add_node_at(
            writer,
            RegularWriter::<V>::new(RegId(0), cfg, servers.clone(), vec![reader], PlainStamp),
        );
        sim.add_node_at(
            reader,
            RegularReader::<V>::new(RegId(0), cfg, servers.clone(), RegularPolicy),
        );
        install_garbage_gen(&mut sim, initial);
        RegularSwsr {
            sim,
            writer,
            reader,
            servers,
            log: OpLog::new(),
        }
    }

    /// Builds the Figure 3 deployment (practically atomic SWSR).
    pub fn build_atomic<V: Payload>(&self, initial: V) -> AtomicSwsr<V> {
        let sys = self.build_swmr(initial, 1);
        AtomicSwsr { inner: sys }
    }

    /// Builds the §5.1 SWMR deployment: one writer, `readers` readers.
    pub fn build_swmr<V: Payload>(&self, initial: V, readers: usize) -> SwmrSystem<V> {
        assert!(readers >= 1, "need at least one reader");
        let cfg = self.config();
        let mut sim: Simulation<RegMsg<SeqVal<V>>, ClientOut<SeqVal<V>>> =
            Simulation::new(SimConfig::with_seed(self.seed));
        let writer = sim.reserve_id();
        let reader_ids: Vec<ProcessId> = (0..readers).map(|_| sim.reserve_id()).collect();
        let servers: Vec<ProcessId> = (0..self.n).map(|_| sim.reserve_id()).collect();
        for &s in &servers {
            sim.add_duplex(writer, s, self.delay.clone());
            for &r in &reader_ids {
                sim.add_duplex(r, s, self.delay.clone());
            }
        }
        let initial_p = SeqVal::new(RingSeq::zero(self.wsn_modulus), initial);
        for (i, &s) in servers.iter().enumerate() {
            match self.byz.iter().find(|(bi, _)| *bi == i) {
                Some((_, strat)) => {
                    sim.add_node_at(s, ByzServerNode::new(strat.clone(), initial_p.clone()))
                }
                None => sim.add_node_at(
                    s,
                    ServerNode::<SeqVal<V>, ClientOut<SeqVal<V>>>::new(initial_p.clone()),
                ),
            }
        }
        sim.add_node_at(
            writer,
            AtomicWriter::<V>::new(
                RegId(0),
                cfg,
                servers.clone(),
                reader_ids.clone(),
                WsnStamp::new(RingSeq::zero(self.wsn_modulus)),
            ),
        );
        for &r in &reader_ids {
            sim.add_node_at(
                r,
                AtomicReader::<V>::new(RegId(0), cfg, servers.clone(), AtomicPolicy::new()),
            );
        }
        install_garbage_gen(&mut sim, initial_p);
        SwmrSystem {
            sim,
            writer,
            readers: reader_ids,
            servers,
            log: OpLog::new(),
        }
    }

    /// Builds the Figure 4 MWMR deployment with `m` reader/writer
    /// processes. `seq_bound` is the per-epoch sequence limit (paper:
    /// `2^64`) — lower it to force epoch renewal in experiments.
    pub fn build_mwmr<V: Payload>(&self, initial: V, m: usize, seq_bound: u64) -> MwmrSystem<V> {
        assert!(m >= 2, "MWMR needs at least two processes");
        let cfg = self.config();
        let dom = EpochDomain::new(m as u32);
        let mut sim: Simulation<RegMsg<MwmrPayload<V>>, ClientOut<V>> =
            Simulation::new(SimConfig::with_seed(self.seed));
        let processes: Vec<ProcessId> = (0..m).map(|_| sim.reserve_id()).collect();
        let servers: Vec<ProcessId> = (0..self.n).map(|_| sim.reserve_id()).collect();
        for &s in &servers {
            for &p in &processes {
                sim.add_duplex(p, s, self.delay.clone());
            }
        }
        let initial_p = SeqVal::new(
            RingSeq::zero(self.wsn_modulus),
            Triple {
                val: initial.clone(),
                epoch: dom.initial(),
                seq: 0,
            },
        );
        for (i, &s) in servers.iter().enumerate() {
            match self.byz.iter().find(|(bi, _)| *bi == i) {
                Some((_, strat)) => {
                    sim.add_node_at(s, ByzServerNode::new(strat.clone(), initial_p.clone()))
                }
                None => sim.add_node_at(
                    s,
                    ServerNode::<MwmrPayload<V>, ClientOut<V>>::new(initial_p.clone()),
                ),
            }
        }
        for (i, &p) in processes.iter().enumerate() {
            sim.add_node_at(
                p,
                MwmrProcessNode::<V>::new(
                    i as u32,
                    m,
                    cfg,
                    servers.clone(),
                    processes.clone(),
                    dom,
                    seq_bound,
                    self.wsn_modulus,
                    initial.clone(),
                ),
            );
        }
        install_garbage_gen(&mut sim, initial_p);
        MwmrSystem {
            sim,
            processes,
            servers,
            log: OpLog::new(),
        }
    }
}

/// Installs a garbage generator fabricating arbitrary protocol messages
/// (for `schedule_link_garbage`).
fn install_garbage_gen<P: Payload, O: 'static>(sim: &mut Simulation<RegMsg<P>, O>, template: P) {
    sim.set_garbage_gen(move |rng: &mut DetRng, _from, _to| {
        let mut val = template.clone();
        val.scramble(rng);
        match rng.next_u64() % 6 {
            0 => RegMsg::Write {
                reg: RegId(0),
                tag: rng.next_u64(),
                val,
            },
            1 => RegMsg::NewHelpVal {
                reg: RegId(0),
                tag: rng.next_u64(),
                val,
                readers: vec![],
            },
            2 => RegMsg::Read {
                reg: RegId(0),
                tag: rng.next_u64(),
                kind: if rng.chance(0.5) {
                    ReadKind::New
                } else {
                    ReadKind::Again
                },
            },
            3 => RegMsg::SsAck {
                tag: rng.next_u64(),
            },
            4 => RegMsg::AckWrite {
                reg: RegId(0),
                helping: vec![(ProcessId(1), Some(val))],
            },
            _ => RegMsg::AckRead {
                reg: RegId(0),
                last: val,
                helping: None,
            },
        }
    });
}

macro_rules! scenario_common {
    ($ty:ident, $payload:ty, $extract:expr) => {
        impl<V: Payload> $ty<V> {
            /// Runs until the event queue drains (or the settle horizon
            /// passes), then records completions. Returns `true` on
            /// quiescence.
            pub fn settle(&mut self) -> bool {
                let quiet = self
                    .sim
                    .run_until_quiescent(self.sim.now() + SETTLE_HORIZON);
                self.drain();
                quiet
            }

            /// Runs for `d` of virtual time, then records completions.
            pub fn run_for(&mut self, d: SimDuration) {
                self.sim.run_for(d);
                self.drain();
            }

            /// Records completions emitted so far.
            pub fn drain(&mut self) {
                let extract = $extract;
                for (at, _pid, out) in self.sim.take_outputs() {
                    match out {
                        ClientOut::WriteDone { op } => self.log.complete(op, at, None),
                        ClientOut::ReadDone { op, value } => {
                            self.log.complete(op, at, Some(extract(value)))
                        }
                    }
                }
            }

            /// The completed-operation history for the checkers.
            pub fn history(&self) -> History<V> {
                self.log.history()
            }

            /// Operations invoked but not yet completed.
            pub fn pending_ops(&self) -> usize {
                self.log.pending()
            }

            /// Applies a transient fault to every server *now*.
            pub fn corrupt_all_servers(&mut self) {
                let now = self.sim.now();
                for s in self.servers.clone() {
                    self.sim.schedule_corruption(now, s);
                }
            }

            /// Applies a transient fault to server `i` *now*.
            pub fn corrupt_server(&mut self, i: usize) {
                let now = self.sim.now();
                let s = self.servers[i];
                self.sim.schedule_corruption(now, s);
            }

            /// Injects `count` garbage messages into every client⇄server
            /// link *now* (arbitrary initial link contents).
            pub fn pollute_links(&mut self, count: usize) {
                let now = self.sim.now();
                for s in self.servers.clone() {
                    for c in self.clients() {
                        self.sim.schedule_link_garbage(now, c, s, count);
                        self.sim.schedule_link_garbage(now, s, c, count);
                    }
                }
            }

            /// Mobile Byzantine fault (footnote 1 of the paper): the fault
            /// leaves server `from` — which resumes *correct* behaviour,
            /// with freshly initialized (i.e. stale) state — and takes over
            /// server `to` with the given strategy. The paper allows this
            /// between operations; the harness performs it immediately.
            pub fn move_byzantine(
                &mut self,
                from: usize,
                to: usize,
                strategy: crate::byz::ByzStrategy,
                initial: $payload,
            ) {
                let healed = self.servers[from];
                let infected = self.servers[to];
                self.sim.replace_node(
                    healed,
                    crate::server::ServerNode::<$payload, _>::new(initial.clone()),
                );
                self.sim.replace_node(
                    infected,
                    crate::byz::ByzServerNode::<$payload, _>::new(strategy, initial),
                );
            }
        }
    };
}

/// A running Figure 2 / Figure 5 deployment.
#[derive(Debug)]
pub struct RegularSwsr<V: Payload> {
    /// The underlying simulation (exposed for custom scheduling).
    pub sim: Simulation<RegMsg<V>, ClientOut<V>>,
    /// The writer's process id.
    pub writer: ProcessId,
    /// The reader's process id.
    pub reader: ProcessId,
    /// The servers' process ids.
    pub servers: Vec<ProcessId>,
    log: OpLog<V>,
}

scenario_common!(RegularSwsr, V, |v: V| v);

impl<V: Payload> RegularSwsr<V> {
    fn clients(&self) -> Vec<ProcessId> {
        vec![self.writer, self.reader]
    }

    /// Invokes `write(v)`. Values must be unique across the run.
    pub fn write(&mut self, v: V) -> OpId {
        let now = self.sim.now();
        let op = self.log.fresh(self.writer, now, Some(v.clone()));
        self.sim
            .with_node::<RegularWriter<V>, _>(self.writer, |w, ctx| w.invoke_write(op, v, ctx));
        op
    }

    /// Invokes `read()`.
    pub fn read(&mut self) -> OpId {
        let now = self.sim.now();
        let op = self.log.fresh(self.reader, now, None);
        self.sim
            .with_node::<RegularReader<V>, _>(self.reader, |r, ctx| r.invoke_read(op, ctx));
        op
    }

    /// Applies a transient fault to the writer and reader *now*.
    pub fn corrupt_clients(&mut self) {
        let now = self.sim.now();
        self.sim.schedule_corruption(now, self.writer);
        self.sim.schedule_corruption(now, self.reader);
    }
}

/// A running §5.1 SWMR deployment (one writer, many readers).
#[derive(Debug)]
pub struct SwmrSystem<V: Payload> {
    /// The underlying simulation.
    pub sim: Simulation<RegMsg<SeqVal<V>>, ClientOut<SeqVal<V>>>,
    /// The writer's process id.
    pub writer: ProcessId,
    /// The readers' process ids.
    pub readers: Vec<ProcessId>,
    /// The servers' process ids.
    pub servers: Vec<ProcessId>,
    log: OpLog<V>,
}

scenario_common!(SwmrSystem, SeqVal<V>, |v: SeqVal<V>| v.val);

impl<V: Payload> SwmrSystem<V> {
    fn clients(&self) -> Vec<ProcessId> {
        let mut c = vec![self.writer];
        c.extend(&self.readers);
        c
    }

    /// Invokes `write(v)`. Values must be unique across the run.
    pub fn write(&mut self, v: V) -> OpId {
        let now = self.sim.now();
        let op = self.log.fresh(self.writer, now, Some(v.clone()));
        self.sim
            .with_node::<AtomicWriter<V>, _>(self.writer, |w, ctx| w.invoke_write(op, v, ctx));
        op
    }

    /// Invokes `read()` at reader `i`.
    pub fn read(&mut self, i: usize) -> OpId {
        let now = self.sim.now();
        let reader = self.readers[i];
        let op = self.log.fresh(reader, now, None);
        self.sim
            .with_node::<AtomicReader<V>, _>(reader, |r, ctx| r.invoke_read(op, ctx));
        op
    }

    /// Applies a transient fault to the writer and all readers *now*.
    pub fn corrupt_clients(&mut self) {
        let now = self.sim.now();
        self.sim.schedule_corruption(now, self.writer);
        for &r in &self.readers {
            self.sim.schedule_corruption(now, r);
        }
    }
}

/// A running Figure 3 deployment (practically atomic SWSR) — the
/// single-reader instance of [`SwmrSystem`].
#[derive(Debug)]
pub struct AtomicSwsr<V: Payload> {
    inner: SwmrSystem<V>,
}

impl<V: Payload> AtomicSwsr<V> {
    /// Invokes `prac_at_write(v)`. Values must be unique across the run.
    pub fn write(&mut self, v: V) -> OpId {
        self.inner.write(v)
    }

    /// Invokes `prac_at_read()`.
    pub fn read(&mut self) -> OpId {
        self.inner.read(0)
    }

    /// See [`SwmrSystem::settle`].
    pub fn settle(&mut self) -> bool {
        self.inner.settle()
    }

    /// See [`SwmrSystem::run_for`].
    pub fn run_for(&mut self, d: SimDuration) {
        self.inner.run_for(d)
    }

    /// See [`SwmrSystem::history`].
    pub fn history(&self) -> History<V> {
        self.inner.history()
    }

    /// See [`SwmrSystem::pending_ops`].
    pub fn pending_ops(&self) -> usize {
        self.inner.pending_ops()
    }

    /// See [`SwmrSystem::corrupt_all_servers`].
    pub fn corrupt_all_servers(&mut self) {
        self.inner.corrupt_all_servers()
    }

    /// See [`SwmrSystem::corrupt_clients`].
    pub fn corrupt_clients(&mut self) {
        self.inner.corrupt_clients()
    }

    /// See [`SwmrSystem::pollute_links`].
    pub fn pollute_links(&mut self, count: usize) {
        self.inner.pollute_links(count)
    }

    /// The underlying SWMR system (e.g. for direct `sim` access).
    pub fn as_swmr(&mut self) -> &mut SwmrSystem<V> {
        &mut self.inner
    }
}

/// A running Figure 4 MWMR deployment.
#[derive(Debug)]
pub struct MwmrSystem<V: Payload> {
    /// The underlying simulation.
    pub sim: Simulation<RegMsg<MwmrPayload<V>>, ClientOut<V>>,
    /// The reader/writer processes.
    pub processes: Vec<ProcessId>,
    /// The servers' process ids.
    pub servers: Vec<ProcessId>,
    log: OpLog<V>,
}

scenario_common!(MwmrSystem, MwmrPayload<V>, |v: V| v);

impl<V: Payload> MwmrSystem<V> {
    fn clients(&self) -> Vec<ProcessId> {
        self.processes.clone()
    }

    /// Invokes `mwmr_write(v)` at process `i`. Values must be unique.
    pub fn write(&mut self, i: usize, v: V) -> OpId {
        let now = self.sim.now();
        let p = self.processes[i];
        let op = self.log.fresh(p, now, Some(v.clone()));
        self.sim
            .with_node::<MwmrProcessNode<V>, _>(p, |n, ctx| n.invoke_write(op, v, ctx));
        op
    }

    /// Invokes `mwmr_read()` at process `i`.
    pub fn read(&mut self, i: usize) -> OpId {
        let now = self.sim.now();
        let p = self.processes[i];
        let op = self.log.fresh(p, now, None);
        self.sim
            .with_node::<MwmrProcessNode<V>, _>(p, |n, ctx| n.invoke_read(op, ctx));
        op
    }

    /// Applies a transient fault to every process *now*.
    pub fn corrupt_clients(&mut self) {
        let now = self.sim.now();
        for &p in &self.processes {
            self.sim.schedule_corruption(now, p);
        }
    }
}
