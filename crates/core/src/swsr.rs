//! The client nodes of the SWSR constructions: the writer and reader of
//! Figure 2 (regular) and Figure 3 (practically atomic), in both the
//! asynchronous and synchronous (Figure 5) modes.
//!
//! The two constructions share their machinery — Figure 3 *is* Figure 2
//! with values replaced by `(wsn, value)` pairs plus reader-side sequence
//! bookkeeping. That factoring is expressed with two small plug-ins:
//!
//! - [`WriteStamper`]: how a write request turns an application value into
//!   the wire payload ([`PlainStamp`] = identity; [`WsnStamp`] = attach the
//!   next bounded sequence number, Fig. 3 line N1).
//! - [`ReadPolicy`]: what the reader does around the read loop
//!   ([`RegularPolicy`] = nothing; [`AtomicPolicy`] = the sanity probe
//!   N2–N7 and the `pwsn`/`pv` inversion-prevention logic 13M/15M).
//!
//! The same nodes serve the SWMR composition of §5.1: construct the writer
//! with several readers and give each reader its own node — the servers
//! keep per-reader helping state either way.

use crate::clientlink::ClientLink;
use crate::config::{RegId, RegisterConfig};
use crate::engine::{ReadEngine, ReadProgress, ReadSource, WriteEngine};
use crate::msg::{ClientOut, RegMsg};
use crate::value::{Payload, SeqVal};
use sbs_sim::{Context, DetRng, Node, OpId, ProcessId, TimerId};
use sbs_stamps::RingSeq;
use std::any::Any;
use std::collections::VecDeque;

/// Turns the application value of a `write(v)` into the wire payload.
pub trait WriteStamper<V, P>: 'static {
    /// Stamps one write.
    fn stamp(&mut self, v: V) -> P;
    /// Transient-fault hook for the stamper's own state.
    fn corrupt(&mut self, _rng: &mut DetRng) {}
}

/// Identity stamping: the regular register writes bare values.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainStamp;

impl<V: Payload> WriteStamper<V, V> for PlainStamp {
    fn stamp(&mut self, v: V) -> V {
        v
    }
}

/// Bounded sequence-number stamping (Fig. 3 line N1):
/// `wsn ← (wsn + 1) mod (2^64 + 1)` — the modulus is configurable so
/// wrap-around is observable in experiments.
#[derive(Clone, Copy, Debug)]
pub struct WsnStamp {
    wsn: RingSeq,
}

impl WsnStamp {
    /// Starts counting from `wsn`.
    pub fn new(wsn: RingSeq) -> Self {
        WsnStamp { wsn }
    }

    /// The current sequence number.
    pub fn current(&self) -> RingSeq {
        self.wsn
    }
}

impl<V: Payload> WriteStamper<V, SeqVal<V>> for WsnStamp {
    fn stamp(&mut self, v: V) -> SeqVal<V> {
        self.wsn = self.wsn.succ();
        SeqVal::new(self.wsn, v)
    }

    fn corrupt(&mut self, rng: &mut DetRng) {
        // The counter can be set to anything — this is exactly the failure
        // the clockwise-distance order is designed to survive.
        let modulus = self.wsn.modulus();
        self.wsn = RingSeq::new(rng.next_u64() as u128 % modulus, modulus);
    }
}

/// Reader-side behaviour around the read loop.
pub trait ReadPolicy<P>: 'static {
    /// Whether each read starts with the sanity probe (lines N2–N7).
    fn wants_sanity(&self) -> bool {
        false
    }
    /// Receives the probe's agreed helping value (line N4–N6).
    fn on_sanity(&mut self, _agreed: Option<&P>) {}
    /// Post-processes the loop's outcome into the returned payload
    /// (lines 13/15, or 13M/15M for the atomic variant).
    fn transform(&mut self, _source: ReadSource, p: P) -> P {
        p
    }
    /// Transient-fault hook.
    fn corrupt(&mut self, _rng: &mut DetRng) {}
}

/// The regular register's reader does no post-processing (Figure 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct RegularPolicy;

impl<P: Payload> ReadPolicy<P> for RegularPolicy {}

/// The practically-atomic reader state: the local pair `(pwsn, pv)` used to
/// trade an older incoming value for the newer one already known
/// (Figure 3).
#[derive(Clone, Debug, Default)]
pub struct AtomicPolicy<V> {
    prev: Option<SeqVal<V>>,
}

impl<V> AtomicPolicy<V> {
    /// Starts with no remembered pair (`pwsn`/`pv` uninitialized — the
    /// model lets them be arbitrary; `None` means "adopt the first
    /// evidence").
    pub fn new() -> Self {
        AtomicPolicy { prev: None }
    }

    /// The remembered `(pwsn, pv)` pair.
    pub fn remembered(&self) -> Option<&SeqVal<V>> {
        self.prev.as_ref()
    }
}

impl<V: Payload> ReadPolicy<SeqVal<V>> for AtomicPolicy<V> {
    fn wants_sanity(&self) -> bool {
        true
    }

    /// Line N6: adopt the servers' agreed pair when the local `pwsn` is
    /// *ahead* of it (a corrupted local counter), or when nothing is
    /// remembered yet.
    fn on_sanity(&mut self, agreed: Option<&SeqVal<V>>) {
        if let Some(a) = agreed {
            match &self.prev {
                Some(p) if !p.wsn.cd_gt(a.wsn) => {}
                _ => self.prev = Some(a.clone()),
            }
        }
    }

    /// Lines 13M1–13M4 and 15M.
    fn transform(&mut self, source: ReadSource, p: SeqVal<V>) -> SeqVal<V> {
        match source {
            ReadSource::Last => match &self.prev {
                // 13M3: the incoming pair is older than what we returned
                // before — prevent the new/old inversion by returning pv.
                Some(prev) if !p.wsn.cd_gt(prev.wsn) && p.wsn != prev.wsn => prev.clone(),
                // 13M2: newer (or first evidence): adopt and return.
                _ => {
                    self.prev = Some(p.clone());
                    p
                }
            },
            // 15M: helping values are already atomic; adopt unconditionally.
            ReadSource::Help => {
                self.prev = Some(p.clone());
                p
            }
        }
    }

    fn corrupt(&mut self, rng: &mut DetRng) {
        if let Some(prev) = &mut self.prev {
            prev.scramble(rng);
        }
    }
}

/// The writer node: queues sequential `write` invocations and drives the
/// [`WriteEngine`].
#[derive(Debug)]
pub struct WriterNode<V, P, St> {
    link: ClientLink,
    engine: WriteEngine<P>,
    stamper: St,
    pending: VecDeque<(OpId, V)>,
    current: Option<OpId>,
}

impl<V, P, St> WriterNode<V, P, St>
where
    V: Payload,
    P: Payload,
    St: WriteStamper<V, P>,
{
    /// Creates a writer for register `reg` on `servers`, whose helping
    /// mechanism serves `readers`.
    pub fn new(
        reg: RegId,
        cfg: RegisterConfig,
        servers: Vec<ProcessId>,
        readers: Vec<ProcessId>,
        stamper: St,
    ) -> Self {
        WriterNode {
            link: ClientLink::new(servers, cfg.t),
            engine: WriteEngine::new(reg, cfg, readers),
            stamper,
            pending: VecDeque::new(),
            current: None,
        }
    }

    /// Invokes `write(v)`; completion is reported as
    /// [`ClientOut::WriteDone`] with the same `op`.
    pub fn invoke_write(&mut self, op: OpId, v: V, ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>) {
        self.pending.push_back((op, v));
        self.try_start(ctx);
    }

    /// Writes queued but not yet started plus the in-flight one.
    pub fn backlog(&self) -> usize {
        self.pending.len() + usize::from(self.current.is_some())
    }

    /// The stamper (e.g. to inspect the current `wsn` in tests).
    pub fn stamper(&self) -> &St {
        &self.stamper
    }

    fn try_start(&mut self, ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>) {
        if self.current.is_none() && self.engine.is_idle() {
            if let Some((op, v)) = self.pending.pop_front() {
                self.current = Some(op);
                let p = self.stamper.stamp(v);
                self.engine.start(p, &mut self.link, ctx);
            }
        }
    }

    fn pump(&mut self, ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>) {
        while self.engine.poll(&mut self.link, ctx) {
            let op = self
                .current
                .take()
                .expect("write completed without an active op");
            ctx.output(ClientOut::WriteDone { op });
            self.try_start(ctx);
        }
    }
}

impl<V, P, St> Node for WriterNode<V, P, St>
where
    V: Payload,
    P: Payload,
    St: WriteStamper<V, P>,
{
    type Msg = RegMsg<P>;
    type Out = ClientOut<P>;

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: RegMsg<P>,
        ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>,
    ) {
        match msg {
            RegMsg::SsAck { tag } => {
                self.link.on_ss_ack(from, tag);
            }
            RegMsg::AckWrite { reg, helping } => {
                let anchored = self.link.anchored_tag(from);
                self.engine.on_ack_write(from, reg, helping, anchored);
            }
            _ => return,
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>) {
        self.engine.on_timer(id);
        self.pump(ctx);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.link.corrupt(rng);
        self.engine.corrupt(rng);
        self.stamper.corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The reader node: queues sequential `read` invocations, drives the
/// [`ReadEngine`], and applies its [`ReadPolicy`].
#[derive(Debug)]
pub struct ReaderNode<P, Pol> {
    link: ClientLink,
    engine: ReadEngine<P>,
    policy: Pol,
    pending: VecDeque<OpId>,
    current: Option<OpId>,
}

impl<P, Pol> ReaderNode<P, Pol>
where
    P: Payload,
    Pol: ReadPolicy<P>,
{
    /// Creates a reader for register `reg` on `servers`.
    pub fn new(reg: RegId, cfg: RegisterConfig, servers: Vec<ProcessId>, policy: Pol) -> Self {
        ReaderNode {
            link: ClientLink::new(servers, cfg.t),
            engine: ReadEngine::new(reg, cfg),
            policy,
            pending: VecDeque::new(),
            current: None,
        }
    }

    /// Invokes `read()`; completion is reported as [`ClientOut::ReadDone`]
    /// with the same `op`.
    pub fn invoke_read(&mut self, op: OpId, ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>) {
        self.pending.push_back(op);
        self.try_start(ctx);
    }

    /// Reads queued but not yet started plus the in-flight one.
    pub fn backlog(&self) -> usize {
        self.pending.len() + usize::from(self.current.is_some())
    }

    /// The policy (e.g. to inspect `pwsn`/`pv` in tests).
    pub fn policy(&self) -> &Pol {
        &self.policy
    }

    fn try_start(&mut self, ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>) {
        if self.current.is_none() && self.engine.is_idle() {
            if let Some(op) = self.pending.pop_front() {
                self.current = Some(op);
                if self.policy.wants_sanity() {
                    self.engine.start_sanity(&mut self.link, ctx);
                } else {
                    self.engine.start_read(&mut self.link, ctx);
                }
            }
        }
    }

    fn pump(&mut self, ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>) {
        while let Some(progress) = self.engine.poll(&mut self.link, ctx) {
            match progress {
                ReadProgress::SanityDone(agreed) => {
                    self.policy.on_sanity(agreed.as_ref());
                    self.engine.start_read(&mut self.link, ctx);
                }
                ReadProgress::Done(source, p) => {
                    let value = self.policy.transform(source, p);
                    let op = self
                        .current
                        .take()
                        .expect("read completed without an active op");
                    ctx.output(ClientOut::ReadDone { op, value });
                    self.try_start(ctx);
                }
            }
        }
    }
}

impl<P, Pol> Node for ReaderNode<P, Pol>
where
    P: Payload,
    Pol: ReadPolicy<P>,
{
    type Msg = RegMsg<P>;
    type Out = ClientOut<P>;

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: RegMsg<P>,
        ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>,
    ) {
        match msg {
            RegMsg::SsAck { tag } => {
                self.link.on_ss_ack(from, tag);
            }
            RegMsg::AckRead { reg, last, helping } => {
                let anchored = self.link.anchored_tag(from);
                self.engine.on_ack_read(from, reg, last, helping, anchored);
            }
            RegMsg::AckProbe { reg, helping } => {
                let anchored = self.link.anchored_tag(from);
                self.engine.on_ack_probe(from, reg, helping, anchored);
            }
            _ => return,
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, RegMsg<P>, ClientOut<P>>) {
        self.engine.on_timer(id);
        self.pump(ctx);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.link.corrupt(rng);
        self.engine.corrupt(rng);
        self.policy.corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Figure 2's writer: bare values.
pub type RegularWriter<V> = WriterNode<V, V, PlainStamp>;
/// Figure 2's reader.
pub type RegularReader<V> = ReaderNode<V, RegularPolicy>;
/// Figure 3's writer: `(wsn, v)` pairs.
pub type AtomicWriter<V> = WriterNode<V, SeqVal<V>, WsnStamp>;
/// Figure 3's reader.
pub type AtomicReader<V> = ReaderNode<SeqVal<V>, AtomicPolicy<V>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wsn_stamp_increments_and_wraps() {
        let mut st = WsnStamp::new(RingSeq::new(255, 257));
        let a: SeqVal<u64> = st.stamp(10);
        assert_eq!(a.wsn.value(), 256);
        let b: SeqVal<u64> = st.stamp(11);
        assert_eq!(b.wsn.value(), 0, "wraps at the modulus");
        assert!(b.wsn.cd_gt(a.wsn), "order survives the wrap");
    }

    #[test]
    fn atomic_policy_blocks_new_old_inversion() {
        let mut pol: AtomicPolicy<u64> = AtomicPolicy::new();
        let ring = |v| RingSeq::new(v, 257);
        // First read returns wsn=5.
        let out = pol.transform(ReadSource::Last, SeqVal::new(ring(5), 50));
        assert_eq!(out.val, 50);
        // A later read sees the *older* wsn=4 — the policy substitutes the
        // remembered newer pair (13M3).
        let out = pol.transform(ReadSource::Last, SeqVal::new(ring(4), 40));
        assert_eq!(out.val, 50);
        assert_eq!(out.wsn, ring(5));
        // Genuinely newer values flow through (13M2).
        let out = pol.transform(ReadSource::Last, SeqVal::new(ring(6), 60));
        assert_eq!(out.val, 60);
    }

    #[test]
    fn atomic_policy_equal_wsn_passes_through() {
        let mut pol: AtomicPolicy<u64> = AtomicPolicy::new();
        let ring = |v| RingSeq::new(v, 257);
        pol.transform(ReadSource::Last, SeqVal::new(ring(5), 50));
        // Same wsn again: 13M2's strict `>cd` fails, 13M3 returns pv —
        // which is the same pair, so the result is unchanged.
        let out = pol.transform(ReadSource::Last, SeqVal::new(ring(5), 50));
        assert_eq!(out.val, 50);
    }

    #[test]
    fn atomic_policy_help_values_adopt_unconditionally() {
        let mut pol: AtomicPolicy<u64> = AtomicPolicy::new();
        let ring = |v| RingSeq::new(v, 257);
        pol.transform(ReadSource::Last, SeqVal::new(ring(9), 90));
        let out = pol.transform(ReadSource::Help, SeqVal::new(ring(2), 20));
        assert_eq!(out.val, 20, "15M adopts the helping pair");
        assert_eq!(pol.remembered().unwrap().wsn, ring(2));
    }

    #[test]
    fn sanity_adopts_when_local_counter_is_ahead() {
        let mut pol: AtomicPolicy<u64> = AtomicPolicy::new();
        let ring = |v| RingSeq::new(v, 257);
        // Corrupted local state claims wsn=100.
        pol.prev = Some(SeqVal::new(ring(100), 999));
        // Servers agree the real latest is wsn=7 — N6 repairs.
        pol.on_sanity(Some(&SeqVal::new(ring(7), 70)));
        assert_eq!(pol.remembered().unwrap().wsn, ring(7));
        // But when the local pair is *behind* the agreed one, keep it.
        pol.on_sanity(Some(&SeqVal::new(ring(9), 90)));
        assert_eq!(pol.remembered().unwrap().wsn, ring(7));
    }

    #[test]
    fn regular_policy_is_transparent() {
        let mut pol = RegularPolicy;
        assert!(!ReadPolicy::<u64>::wants_sanity(&pol));
        assert_eq!(pol.transform(ReadSource::Last, 7u64), 7);
        assert_eq!(pol.transform(ReadSource::Help, 8u64), 8);
    }
}
