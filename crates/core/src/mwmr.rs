//! The MWMR atomic register of Figure 4, built from one SWMR register per
//! process and bounded epochs.
//!
//! Every process is both a reader and a writer. Process `p_i` owns the
//! SWMR register `REG[i]` (it alone writes it; everyone reads it). A value
//! carries a timestamp `(epoch, seq)`:
//!
//! - `mwmr_write(v)` reads all `REG[1..m]`, finds the greatest epoch (or
//!   starts a fresh one via `next_epoch` if none dominates or the sequence
//!   number is exhausted), and writes `(v, epoch, seqmax + 1)` into its own
//!   register (lines 01–08);
//! - `mwmr_read()` reads all registers, renews the epoch the same way if
//!   needed (line 11 — republishing its *own* current value under the new
//!   epoch), and returns the value with the greatest `(epoch, seq)`,
//!   minimal process index breaking ties (lines 13–16).
//!
//! Underneath, each `REG[j]` access is a full SWSR practically-atomic
//! operation (Figure 3) against the same `n` servers — the sub-protocols
//! run through the exact [`ReadEngine`]/[`WriteEngine`] used standalone,
//! with per-register [`AtomicPolicy`] state.

use crate::clientlink::ClientLink;
use crate::config::{RegId, RegisterConfig};
use crate::engine::{ReadEngine, ReadProgress, WriteEngine};
use crate::msg::{ClientOut, RegMsg};
use crate::swsr::{AtomicPolicy, ReadPolicy, WriteStamper, WsnStamp};
use crate::value::{Payload, SeqVal};
use sbs_sim::{Context, DetRng, Node, OpId, ProcessId, TimerId};
use sbs_stamps::{Epoch, EpochDomain, RingSeq};
use std::any::Any;
use std::collections::VecDeque;

/// A register value with its bounded timestamp: `(v, epoch, seq)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple<V> {
    /// The application value.
    pub val: V,
    /// The bounded epoch label.
    pub epoch: Epoch,
    /// The sequence number within the epoch.
    pub seq: u64,
}

impl<V: std::fmt::Debug> std::fmt::Debug for Triple<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:?}, {:?}, {})", self.val, self.epoch, self.seq)
    }
}

impl<V: Payload> Payload for Triple<V> {
    fn scramble(&mut self, rng: &mut DetRng) {
        self.val.scramble(rng);
        let k = (self.epoch.aset().len() as u32).max(2);
        self.epoch = EpochDomain::new(k).arbitrary(&mut || rng.next_u64());
        self.seq = rng.next_u64();
    }
}

/// The wire payload of the MWMR stack: SWMR-stamped triples.
pub type MwmrPayload<V> = SeqVal<Triple<V>>;

/// An operation a process can run on the MWMR register.
#[derive(Clone, Debug)]
enum MwmrOp<V> {
    Write(V),
    Read,
}

/// Loop rounds after which a non-converging sub-read of the process's own
/// register triggers a refresh write (see [`MPhase::Refreshing`]).
const REFRESH_AFTER_ROUNDS: u32 = 4;

#[derive(Debug)]
enum MPhase<V> {
    Idle,
    /// Collecting `reg_i[1..m]` (line 01 / 09): sub-read of register `j`.
    Reading {
        op: OpId,
        kind: MwmrOp<V>,
        j: usize,
        view: Vec<Option<Triple<V>>>,
    },
    /// Stabilization unblocking: the sub-read of our *own* register is not
    /// converging (transient faults left the server copies in disagreement
    /// and nobody else can write `REG[i]`), so republish the last value we
    /// wrote — the sole writer may always do that safely — then resume the
    /// sub-read. Without this rule the composition of §5 can deadlock
    /// after corruption: every process blocks reading a register whose
    /// writer is itself blocked (the paper's extended abstract leaves this
    /// corner to the SWSR assumption "the writer writes at least once after
    /// τ_no_tr", which the refresh realizes per register).
    Refreshing {
        op: OpId,
        kind: MwmrOp<V>,
        j: usize,
        view: Vec<Option<Triple<V>>>,
    },
    /// Final `swmr_write` of a `mwmr_write` (line 07).
    Writing {
        op: OpId,
    },
    /// Epoch-renewal `swmr_write` on the read path (line 11); afterwards
    /// the read returns `result`.
    Renewing {
        op: OpId,
        result: V,
    },
}

/// One MWMR process: reader + writer of the shared register.
#[derive(Debug)]
pub struct MwmrProcessNode<V> {
    idx: u32,
    m: usize,
    cfg: RegisterConfig,
    dom: EpochDomain,
    seq_bound: u64,
    processes: Vec<ProcessId>,
    link: ClientLink,
    read_engine: ReadEngine<MwmrPayload<V>>,
    write_engine: WriteEngine<MwmrPayload<V>>,
    stamper: WsnStamp,
    policies: Vec<AtomicPolicy<Triple<V>>>,
    phase: MPhase<V>,
    pending: VecDeque<(OpId, MwmrOp<V>)>,
    /// The last triple this process wrote to its own register (refresh
    /// source). Falls back to the register's initial value.
    last_written: Triple<V>,
}

type MwmrCtx<'a, V> = Context<'a, RegMsg<MwmrPayload<V>>, ClientOut<V>>;

impl<V: Payload> MwmrProcessNode<V> {
    /// Creates process `idx` of `m`, talking to `servers`, with all
    /// `processes` as readers of its own register.
    ///
    /// `dom` must have `k ≥ m` (a view holds `m` epochs);
    /// `seq_bound` is the per-epoch sequence limit (paper: `2^64`);
    /// `wsn_modulus` parameterizes the underlying SWMR stamps;
    /// `initial` is the register's known initial value (the refresh
    /// fallback).
    ///
    /// # Panics
    ///
    /// Panics if `dom.k() < m` or `idx >= m`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        idx: u32,
        m: usize,
        cfg: RegisterConfig,
        servers: Vec<ProcessId>,
        processes: Vec<ProcessId>,
        dom: EpochDomain,
        seq_bound: u64,
        wsn_modulus: u128,
        initial: V,
    ) -> Self {
        assert!(
            (idx as usize) < m,
            "process index {idx} out of range (m={m})"
        );
        assert!(
            dom.k() as usize >= m,
            "epoch domain k={} must cover m={m} concurrent labels",
            dom.k()
        );
        let last_written = Triple {
            val: initial,
            epoch: dom.initial(),
            seq: 0,
        };
        MwmrProcessNode {
            idx,
            m,
            cfg,
            dom,
            seq_bound,
            processes: processes.clone(),
            link: ClientLink::new(servers, cfg.t),
            read_engine: ReadEngine::new(RegId(0), cfg),
            write_engine: WriteEngine::new(RegId(idx), cfg, processes),
            stamper: WsnStamp::new(RingSeq::zero(wsn_modulus)),
            policies: (0..m).map(|_| AtomicPolicy::new()).collect(),
            phase: MPhase::Idle,
            pending: VecDeque::new(),
            last_written,
        }
    }

    /// Invokes `mwmr_write(v)`; completion arrives as
    /// [`ClientOut::WriteDone`].
    pub fn invoke_write(&mut self, op: OpId, v: V, ctx: &mut MwmrCtx<'_, V>) {
        self.pending.push_back((op, MwmrOp::Write(v)));
        self.try_start(ctx);
        self.pump(ctx);
    }

    /// Invokes `mwmr_read()`; completion arrives as
    /// [`ClientOut::ReadDone`].
    pub fn invoke_read(&mut self, op: OpId, ctx: &mut MwmrCtx<'_, V>) {
        self.pending.push_back((op, MwmrOp::Read));
        self.try_start(ctx);
        self.pump(ctx);
    }

    /// Operations queued or in flight.
    pub fn backlog(&self) -> usize {
        self.pending.len() + usize::from(!matches!(self.phase, MPhase::Idle))
    }

    fn try_start(&mut self, ctx: &mut MwmrCtx<'_, V>) {
        if !matches!(self.phase, MPhase::Idle) {
            return;
        }
        let Some((op, kind)) = self.pending.pop_front() else {
            return;
        };
        // Line 01 / 09: for j ∈ {1..m} read REG[j] — sequentially, first
        // register first. Each sub-read is a full Figure-3 read.
        self.read_engine = ReadEngine::new(RegId(0), self.cfg);
        self.read_engine.start_sanity(&mut self.link, ctx);
        self.phase = MPhase::Reading {
            op,
            kind,
            j: 0,
            view: vec![None; self.m],
        };
    }

    fn pump(&mut self, ctx: &mut MwmrCtx<'_, V>) {
        loop {
            match std::mem::replace(&mut self.phase, MPhase::Idle) {
                MPhase::Idle => {
                    self.try_start(ctx);
                    if matches!(self.phase, MPhase::Idle) {
                        return;
                    }
                }
                MPhase::Reading {
                    op,
                    kind,
                    j,
                    mut view,
                } => match self.read_engine.poll(&mut self.link, ctx) {
                    Some(ReadProgress::SanityDone(agreed)) => {
                        self.policies[j].on_sanity(agreed.as_ref());
                        self.read_engine.start_read(&mut self.link, ctx);
                        self.phase = MPhase::Reading { op, kind, j, view };
                    }
                    Some(ReadProgress::Done(source, p)) => {
                        let stamped = self.policies[j].transform(source, p);
                        view[j] = Some(stamped.val);
                        let next = j + 1;
                        if next < self.m {
                            self.read_engine = ReadEngine::new(RegId(next as u32), self.cfg);
                            self.read_engine.start_sanity(&mut self.link, ctx);
                            self.phase = MPhase::Reading {
                                op,
                                kind,
                                j: next,
                                view,
                            };
                        } else {
                            self.decide(op, kind, view, ctx);
                            if matches!(self.phase, MPhase::Idle) {
                                // Fast-path read completed; keep pumping
                                // for the next queued op.
                                continue;
                            }
                        }
                    }
                    None => {
                        // Refresh rule: our own register is not converging
                        // and only we can write it.
                        if j == self.idx as usize
                            && self.read_engine.rounds() >= REFRESH_AFTER_ROUNDS
                        {
                            self.read_engine.abort(ctx);
                            let triple = self.last_written.clone();
                            self.start_own_write(triple, ctx);
                            self.phase = MPhase::Refreshing { op, kind, j, view };
                            continue;
                        }
                        self.phase = MPhase::Reading { op, kind, j, view };
                        return;
                    }
                },
                MPhase::Refreshing { op, kind, j, view } => {
                    if self.write_engine.poll(&mut self.link, ctx) {
                        // Refresh installed; resume the blocked sub-read.
                        self.read_engine = ReadEngine::new(RegId(j as u32), self.cfg);
                        self.read_engine.start_sanity(&mut self.link, ctx);
                        self.phase = MPhase::Reading { op, kind, j, view };
                        continue;
                    }
                    self.phase = MPhase::Refreshing { op, kind, j, view };
                    return;
                }
                MPhase::Writing { op } => {
                    if self.write_engine.poll(&mut self.link, ctx) {
                        ctx.output(ClientOut::WriteDone { op });
                        self.phase = MPhase::Idle;
                        continue;
                    }
                    self.phase = MPhase::Writing { op };
                    return;
                }
                MPhase::Renewing { op, result } => {
                    if self.write_engine.poll(&mut self.link, ctx) {
                        ctx.output(ClientOut::ReadDone { op, value: result });
                        self.phase = MPhase::Idle;
                        continue;
                    }
                    self.phase = MPhase::Renewing { op, result };
                    return;
                }
            }
        }
    }

    /// Lines 02–08 (write) / 10–16 (read), once the view is complete.
    fn decide(
        &mut self,
        op: OpId,
        kind: MwmrOp<V>,
        view: Vec<Option<Triple<V>>>,
        ctx: &mut MwmrCtx<'_, V>,
    ) {
        let view: Vec<Triple<V>> = view
            .into_iter()
            .map(|t| t.expect("view complete"))
            .collect();
        let epochs: Vec<Epoch> = view.iter().map(|t| t.epoch.clone()).collect();
        let max = self.dom.max_epoch(&epochs);
        let renewal = match max {
            None => true,
            Some(mi) => view[mi].seq >= self.seq_bound,
        };

        match kind {
            MwmrOp::Write(v) => {
                let (epoch, seq) = if renewal {
                    // Lines 02–04 + 05–07 with the local view updated: the
                    // fresh epoch dominates everything, seqmax = 0.
                    (self.next_epoch(&epochs), 1)
                } else {
                    let mi = max.expect("no renewal implies a max epoch");
                    let epoch = epochs[mi].clone();
                    let seqmax = view
                        .iter()
                        .filter(|t| t.epoch == epoch)
                        .map(|t| t.seq)
                        .max()
                        .unwrap_or(0);
                    (epoch, seqmax + 1)
                };
                let triple = Triple { val: v, epoch, seq };
                self.start_own_write(triple, ctx);
                self.phase = MPhase::Writing { op };
            }
            MwmrOp::Read => {
                if renewal {
                    // Lines 10–11: republish our own current value under a
                    // fresh epoch with seq 0, then return it (lines 13–16
                    // then select our own register).
                    let own = view[self.idx as usize].clone();
                    let triple = Triple {
                        val: own.val.clone(),
                        epoch: self.next_epoch(&epochs),
                        seq: 0,
                    };
                    self.start_own_write(triple, ctx);
                    self.phase = MPhase::Renewing {
                        op,
                        result: own.val,
                    };
                } else {
                    // Lines 13–16: greatest (epoch, seq), minimal index.
                    let mi = max.expect("no renewal implies a max epoch");
                    let epoch = epochs[mi].clone();
                    let seqmax = view
                        .iter()
                        .filter(|t| t.epoch == epoch)
                        .map(|t| t.seq)
                        .max()
                        .unwrap_or(0);
                    let min_idx = view
                        .iter()
                        .position(|t| t.epoch == epoch && t.seq == seqmax)
                        .expect("seqmax comes from the view");
                    ctx.output(ClientOut::ReadDone {
                        op,
                        value: view[min_idx].val.clone(),
                    });
                    self.phase = MPhase::Idle;
                }
            }
        }
    }

    /// `next_epoch` over the *valid* labels of the view (malformed labels —
    /// possible only through corruption — are ignored for domination but
    /// can never be maximal either).
    fn next_epoch(&self, epochs: &[Epoch]) -> Epoch {
        let valid: Vec<&Epoch> = epochs.iter().filter(|e| self.dom.validate(e)).collect();
        self.dom.next_epoch(valid)
    }

    fn start_own_write(&mut self, triple: Triple<V>, ctx: &mut MwmrCtx<'_, V>) {
        self.last_written = triple.clone();
        self.write_engine = WriteEngine::new(RegId(self.idx), self.cfg, self.processes.clone());
        let stamped = self.stamper.stamp(triple);
        self.write_engine.start(stamped, &mut self.link, ctx);
    }
}

impl<V: Payload> Node for MwmrProcessNode<V> {
    type Msg = RegMsg<MwmrPayload<V>>;
    type Out = ClientOut<V>;

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: RegMsg<MwmrPayload<V>>,
        ctx: &mut MwmrCtx<'_, V>,
    ) {
        match msg {
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
            _ => return,
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut MwmrCtx<'_, V>) {
        self.read_engine.on_timer(id);
        self.write_engine.on_timer(id);
        self.pump(ctx);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.link.corrupt(rng);
        self.read_engine.corrupt(rng);
        self.write_engine.corrupt(rng);
        <WsnStamp as WriteStamper<Triple<V>, MwmrPayload<V>>>::corrupt(&mut self.stamper, rng);
        for p in &mut self.policies {
            ReadPolicy::<MwmrPayload<V>>::corrupt(p, rng);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_scramble_keeps_epoch_wellformed_shape() {
        let dom = EpochDomain::new(3);
        let mut rng = DetRng::from_seed(3);
        let mut t = Triple {
            val: 5u64,
            epoch: dom.initial(),
            seq: 1,
        };
        t.scramble(&mut rng);
        assert_eq!(t.epoch.aset().len(), 3, "scrambled epoch keeps k");
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn domain_smaller_than_m_is_rejected() {
        let _ = MwmrProcessNode::<u64>::new(
            0,
            5,
            RegisterConfig::asynchronous(41, 5),
            vec![],
            vec![],
            EpochDomain::new(3),
            1 << 20,
            257,
            0,
        );
    }
}
