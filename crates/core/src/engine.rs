//! Client-side protocol engines: the write operation (Fig. 2/3 lines
//! 01–06) and the read loop (lines 07–18, plus the sanity probe N2–N7 of
//! the atomic variant).
//!
//! Engines are *embedded* state machines, not top-level nodes: the SWSR
//! writer node holds one [`WriteEngine`], the MWMR process node holds a
//! [`ReadEngine`] and a [`WriteEngine`] and sequences them. The host node
//! routes incoming acknowledgements to the engine and calls
//! [`WriteEngine::poll`] / [`ReadEngine::poll`] after every event; `poll`
//! advances the phase machine and reports completion.
//!
//! ## Round liveness
//!
//! Every round arms a timer. In synchronous mode it is the paper's
//! "wait … or time-out" (Fig. 5): when it fires the round is evaluated with
//! whatever acknowledgements arrived. In asynchronous mode it is a
//! *retransmission* deadline: the round restarts with a fresh session tag.
//! The paper needs no explicit retransmission at this layer because its
//! ss-broadcast invocation terminates unconditionally (its data-link keeps
//! retransmitting, footnote 3); re-broadcasting the round is the equivalent
//! at session granularity and is what keeps operations live when transient
//! faults hit in-flight state.

use crate::clientlink::ClientLink;
use crate::config::{RegId, RegisterConfig};
use crate::msg::{ReadKind, RegMsg};
use crate::value::Payload;
use sbs_link::SsTag;
use sbs_sim::{Context, DetRng, ProcessId, TimerId};
use std::collections::BTreeMap;

/// The write operation engine.
#[derive(Clone, Debug)]
pub struct WriteEngine<P> {
    reg: RegId,
    cfg: RegisterConfig,
    readers: Vec<ProcessId>,
    phase: WPhase<P>,
}

#[derive(Clone, Debug)]
enum WPhase<P> {
    Idle,
    /// WRITE broadcast; waiting for broadcast completion + ACK_WRITEs
    /// (line 02).
    WriteRound {
        tag: SsTag,
        val: P,
        acks: BTreeMap<ProcessId, Vec<(ProcessId, Option<P>)>>,
        timer: TimerId,
        timed_out: bool,
    },
    /// NEW_HELP_VAL broadcast; waiting for its completion (lines 04–05).
    HelpRound {
        tag: SsTag,
        val: P,
        readers: Vec<ProcessId>,
        timer: TimerId,
        timed_out: bool,
    },
}

impl<P: Payload> WriteEngine<P> {
    /// Creates an idle engine for register `reg` whose helping mechanism
    /// serves `readers`.
    pub fn new(reg: RegId, cfg: RegisterConfig, readers: Vec<ProcessId>) -> Self {
        WriteEngine {
            reg,
            cfg,
            readers,
            phase: WPhase::Idle,
        }
    }

    /// True when no write is in progress.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, WPhase::Idle)
    }

    /// Begins a write of `val` (line 01: ss-broadcast WRITE).
    ///
    /// # Panics
    ///
    /// Panics if a write is already in progress (clients are sequential).
    pub fn start<O: 'static>(
        &mut self,
        val: P,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        assert!(self.is_idle(), "writer is sequential; write already active");
        let reg = self.reg;
        let tag = link.broadcast(ctx, |tag| RegMsg::Write {
            reg,
            tag,
            val: val.clone(),
        });
        let timer = ctx.set_timer(self.round_timer());
        self.phase = WPhase::WriteRound {
            tag,
            val,
            acks: BTreeMap::new(),
            timer,
            timed_out: false,
        };
    }

    /// Feeds one `ACK_WRITE`. `anchored` is the session tag the sender last
    /// acknowledged (see `ClientLink::anchored_tag`).
    pub fn on_ack_write(
        &mut self,
        from: ProcessId,
        reg: RegId,
        helping: Vec<(ProcessId, Option<P>)>,
        anchored: Option<SsTag>,
    ) {
        if let WPhase::WriteRound { tag, acks, .. } = &mut self.phase {
            if reg == self.reg && anchored == Some(*tag) {
                acks.entry(from).or_insert(helping);
            }
        }
    }

    /// Feeds a timer firing; stale timers are ignored.
    pub fn on_timer(&mut self, id: TimerId) {
        match &mut self.phase {
            WPhase::WriteRound {
                timer, timed_out, ..
            }
            | WPhase::HelpRound {
                timer, timed_out, ..
            } if *timer == id => *timed_out = true,
            _ => {}
        }
    }

    /// Advances the machine. Returns `true` exactly once per operation,
    /// when the write completes (line 06).
    pub fn poll<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) -> bool {
        match std::mem::replace(&mut self.phase, WPhase::Idle) {
            WPhase::Idle => false,
            WPhase::WriteRound {
                tag,
                val,
                acks,
                timer,
                timed_out,
            } => {
                let ready = if self.cfg.is_sync() {
                    timed_out || acks.len() >= self.cfg.n
                } else if timed_out {
                    // Async retransmission: restart the round.
                    self.restart_write(val, link, ctx);
                    return false;
                } else {
                    link.is_complete(tag) && acks.len() >= self.cfg.ack_quorum()
                };
                if !ready {
                    self.phase = WPhase::WriteRound {
                        tag,
                        val,
                        acks,
                        timer,
                        timed_out,
                    };
                    return false;
                }
                ctx.cancel_timer(timer);
                // Line 03: does some w ≠ ⊥ appear in ≥ writer_help_quorum
                // acknowledgements, for every reader?
                let failing: Vec<ProcessId> = self
                    .readers
                    .iter()
                    .copied()
                    .filter(|r| !self.reader_has_agreed_help(&acks, *r))
                    .collect();
                if failing.is_empty() {
                    true
                } else {
                    // Lines 04–05: refresh the helping values.
                    let reg = self.reg;
                    let failing_clone = failing.clone();
                    let htag = link.broadcast(ctx, |tag| RegMsg::NewHelpVal {
                        reg,
                        tag,
                        val: val.clone(),
                        readers: failing_clone.clone(),
                    });
                    let timer = ctx.set_timer(self.round_timer());
                    self.phase = WPhase::HelpRound {
                        tag: htag,
                        val,
                        readers: failing,
                        timer,
                        timed_out: false,
                    };
                    false
                }
            }
            WPhase::HelpRound {
                tag,
                val,
                readers,
                timer,
                timed_out,
            } => {
                let ready = if self.cfg.is_sync() {
                    timed_out
                } else if timed_out {
                    // Async retransmission of the helping broadcast.
                    let reg = self.reg;
                    let readers_clone = readers.clone();
                    let htag = link.broadcast(ctx, |tag| RegMsg::NewHelpVal {
                        reg,
                        tag,
                        val: val.clone(),
                        readers: readers_clone.clone(),
                    });
                    let t = ctx.set_timer(self.round_timer());
                    self.phase = WPhase::HelpRound {
                        tag: htag,
                        val,
                        readers,
                        timer: t,
                        timed_out: false,
                    };
                    return false;
                } else {
                    link.is_complete(tag)
                };
                if ready {
                    ctx.cancel_timer(timer);
                    true
                } else {
                    self.phase = WPhase::HelpRound {
                        tag,
                        val,
                        readers,
                        timer,
                        timed_out,
                    };
                    false
                }
            }
        }
    }

    /// Transient fault: in-flight acknowledgement payloads become garbage.
    /// (Round control state is re-established by the retransmission timer.)
    pub fn corrupt(&mut self, rng: &mut DetRng) {
        if let WPhase::WriteRound { acks, .. } = &mut self.phase {
            for snapshot in acks.values_mut() {
                for (_, h) in snapshot.iter_mut() {
                    if let Some(v) = h {
                        v.scramble(rng);
                    }
                }
            }
        }
    }

    fn restart_write<O: 'static>(
        &mut self,
        val: P,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        let reg = self.reg;
        let tag = link.broadcast(ctx, |tag| RegMsg::Write {
            reg,
            tag,
            val: val.clone(),
        });
        let timer = ctx.set_timer(self.round_timer());
        self.phase = WPhase::WriteRound {
            tag,
            val,
            acks: BTreeMap::new(),
            timer,
            timed_out: false,
        };
    }

    fn reader_has_agreed_help(
        &self,
        acks: &BTreeMap<ProcessId, Vec<(ProcessId, Option<P>)>>,
        reader: ProcessId,
    ) -> bool {
        let mut counts: BTreeMap<&P, usize> = BTreeMap::new();
        for snapshot in acks.values() {
            if let Some((_, Some(w))) = snapshot.iter().find(|(r, _)| *r == reader) {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        counts.values().any(|&c| c >= self.cfg.writer_help_quorum())
    }

    fn round_timer(&self) -> sbs_sim::SimDuration {
        self.cfg.timeout().unwrap_or(self.cfg.retry_after)
    }
}

/// Uniform random choice among the values reaching `quorum`. `BTreeMap`
/// iteration is already ordered; the explicit sort keeps the choice
/// independent of the tally's container.
fn pick_quorum<P: Payload>(
    counts: BTreeMap<&P, usize>,
    quorum: usize,
    rng: &mut DetRng,
) -> Option<P> {
    let mut candidates: Vec<&P> = counts
        .into_iter()
        .filter(|&(_, c)| c >= quorum)
        .map(|(p, _)| p)
        .collect();
    candidates.sort();
    rng.pick(&candidates).map(|p| (*p).clone())
}

/// How a completed read found its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadSource {
    /// Agreement on `last_val` (lines 12–13).
    Last,
    /// Agreement on a helping value (lines 14–15).
    Help,
}

/// Progress reported by [`ReadEngine::poll`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadProgress<P> {
    /// The sanity probe (lines N2–N7) finished; the payload is the
    /// helping value `2t + 1` servers agreed on, if any.
    SanityDone(Option<P>),
    /// The read loop finished with this value from this source.
    Done(ReadSource, P),
}

/// The read operation engine.
#[derive(Clone, Debug)]
pub struct ReadEngine<P> {
    reg: RegId,
    cfg: RegisterConfig,
    phase: RPhase<P>,
    /// Rounds broadcast for the current operation (loop iterations plus
    /// retransmissions). Callers use this to detect a non-converging read
    /// (e.g. the MWMR own-register refresh rule).
    rounds: u32,
}

#[derive(Clone, Debug)]
enum RPhase<P> {
    Idle,
    Round {
        /// The round's `READ` kind; `Probe` while executing the N2–N7
        /// probe of the atomic variant.
        kind: ReadKind,
        tag: SsTag,
        /// `(last_val, helping_val)` per server. The probe keeps no
        /// `last_val` (`None`); a loop round keeps no ack without one.
        acks: BTreeMap<ProcessId, (Option<P>, Option<P>)>,
        timer: TimerId,
        timed_out: bool,
    },
}

impl<P: Payload> ReadEngine<P> {
    /// Creates an idle engine for register `reg`.
    pub fn new(reg: RegId, cfg: RegisterConfig) -> Self {
        ReadEngine {
            reg,
            cfg,
            phase: RPhase::Idle,
            rounds: 0,
        }
    }

    /// True when no read is in progress.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, RPhase::Idle)
    }

    /// Rounds broadcast for the current operation so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Abandons the in-flight read (its round timer is cancelled). Used by
    /// the MWMR refresh rule before republishing the process's own
    /// register.
    pub fn abort<O: 'static>(&mut self, ctx: &mut Context<'_, RegMsg<P>, O>) {
        if let RPhase::Round { timer, .. } = std::mem::replace(&mut self.phase, RPhase::Idle) {
            ctx.cancel_timer(timer);
        }
        self.rounds = 0;
    }

    /// Begins the sanity probe (line N2: ss-broadcast READ(false), sent
    /// as a probe `READ` so servers answer without `last_val`).
    pub fn start_sanity<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        assert!(self.is_idle(), "reader is sequential; read already active");
        self.rounds = 0;
        self.broadcast_round(ReadKind::Probe, link, ctx);
    }

    /// Begins the read loop (line 07: new_read ← true; line 09).
    pub fn start_read<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        assert!(self.is_idle(), "reader is sequential; read already active");
        self.broadcast_round(ReadKind::New, link, ctx);
    }

    /// Feeds one `ACK_READ`. The probe counts it with its helping value
    /// only (lines N4–N5).
    pub fn on_ack_read(
        &mut self,
        from: ProcessId,
        reg: RegId,
        last: P,
        helping: Option<P>,
        anchored: Option<SsTag>,
    ) {
        self.record(from, reg, Some(last), helping, anchored);
    }

    /// Feeds one `ACK_PROBE`. Only the probe counts it: the read loop
    /// needs `last_val`, so to a loop round a server answering this way
    /// is as good as silent.
    pub fn on_ack_probe(
        &mut self,
        from: ProcessId,
        reg: RegId,
        helping: Option<P>,
        anchored: Option<SsTag>,
    ) {
        self.record(from, reg, None, helping, anchored);
    }

    fn record(
        &mut self,
        from: ProcessId,
        reg: RegId,
        last: Option<P>,
        helping: Option<P>,
        anchored: Option<SsTag>,
    ) {
        if let RPhase::Round {
            kind, tag, acks, ..
        } = &mut self.phase
        {
            if reg != self.reg || anchored != Some(*tag) {
                return;
            }
            let last = match (*kind, last) {
                (ReadKind::Probe, _) => None,
                (_, Some(last)) => Some(last),
                (_, None) => return,
            };
            acks.entry(from).or_insert((last, helping));
        }
    }

    /// Feeds a timer firing; stale timers are ignored.
    pub fn on_timer(&mut self, id: TimerId) {
        if let RPhase::Round {
            timer, timed_out, ..
        } = &mut self.phase
        {
            if *timer == id {
                *timed_out = true;
            }
        }
    }

    /// Advances the machine; reports sanity completion or the read's value.
    pub fn poll<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) -> Option<ReadProgress<P>> {
        let RPhase::Round {
            kind,
            tag,
            acks,
            timer,
            timed_out,
        } = std::mem::replace(&mut self.phase, RPhase::Idle)
        else {
            return None;
        };
        let ready = if self.cfg.is_sync() {
            timed_out || acks.len() >= self.cfg.n
        } else if timed_out {
            // Async retransmission: restart the same round.
            self.broadcast_round(kind, link, ctx);
            return None;
        } else {
            link.is_complete(tag) && acks.len() >= self.cfg.ack_quorum()
        };
        if !ready {
            self.phase = RPhase::Round {
                kind,
                tag,
                acks,
                timer,
                timed_out,
            };
            return None;
        }
        ctx.cancel_timer(timer);

        if kind == ReadKind::Probe {
            // Lines N4–N5: look only at the helping values.
            let agreed = self.agreed_help(&acks, ctx.rng());
            return Some(ReadProgress::SanityDone(agreed));
        }
        // Line 12: 2t+1 (t+1 sync) identical last_val?
        if let Some(p) = self.agreed_last(&acks, ctx.rng()) {
            return Some(ReadProgress::Done(ReadSource::Last, p));
        }
        // Line 14: 2t+1 (t+1 sync) identical helping_val ≠ ⊥?
        if let Some(p) = self.agreed_help(&acks, ctx.rng()) {
            return Some(ReadProgress::Done(ReadSource::Help, p));
        }
        // Line 18: loop again (READ(false) — new_read was consumed).
        self.broadcast_round(ReadKind::Again, link, ctx);
        None
    }

    /// Transient fault: in-flight acknowledgement payloads become garbage.
    pub fn corrupt(&mut self, rng: &mut DetRng) {
        if let RPhase::Round { acks, .. } = &mut self.phase {
            for (last, helping) in acks.values_mut() {
                if let Some(l) = last {
                    l.scramble(rng);
                }
                if let Some(h) = helping {
                    h.scramble(rng);
                }
            }
        }
    }

    fn broadcast_round<O: 'static>(
        &mut self,
        kind: ReadKind,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        self.rounds = self.rounds.saturating_add(1);
        let reg = self.reg;
        let tag = link.broadcast(ctx, |tag| RegMsg::Read { reg, tag, kind });
        let timer = ctx.set_timer(self.round_timer());
        self.phase = RPhase::Round {
            kind,
            tag,
            acks: BTreeMap::new(),
            timer,
            timed_out: false,
        };
    }

    /// The quorum predicates of lines 12/14 do not say *which* value to
    /// take when several reach the threshold (during a write both the old
    /// and the new value can hold a quorum). Any of them is a legal regular
    /// answer; choosing one deterministically would silently bias the
    /// register toward (or away from) new/old inversions, so the choice is
    /// made uniformly at random from the client's seeded stream — this is
    /// exactly the nondeterminism that Figure 1 exploits and that the
    /// atomic construction's `pwsn` bookkeeping then defeats.
    fn agreed_last(
        &self,
        acks: &BTreeMap<ProcessId, (Option<P>, Option<P>)>,
        rng: &mut DetRng,
    ) -> Option<P> {
        let mut counts: BTreeMap<&P, usize> = BTreeMap::new();
        for last in acks.values().filter_map(|(last, _)| last.as_ref()) {
            *counts.entry(last).or_insert(0) += 1;
        }
        pick_quorum(counts, self.cfg.last_quorum(), rng)
    }

    fn agreed_help(
        &self,
        acks: &BTreeMap<ProcessId, (Option<P>, Option<P>)>,
        rng: &mut DetRng,
    ) -> Option<P> {
        let mut counts: BTreeMap<&P, usize> = BTreeMap::new();
        for (_, helping) in acks.values() {
            if let Some(w) = helping {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        pick_quorum(counts, self.cfg.help_quorum(), rng)
    }

    fn round_timer(&self) -> sbs_sim::SimDuration {
        self.cfg.timeout().unwrap_or(self.cfg.retry_after)
    }
}
