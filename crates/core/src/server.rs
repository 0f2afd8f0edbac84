//! The server side of every register construction (Fig. 2/3, lines 19–23).
//!
//! A server's internal representation of one register is the pair of
//! variables the paper gives it:
//!
//! - `last_val` — the last value written by the writer, as known here
//!   (line 19);
//! - `helping_val` — the value the writer installs when the reader needs
//!   assistance because writes are too frequent (line 21), reset to ⊥ at
//!   the start of every read (line 22). The SWMR composition (§5.1) keeps
//!   one helping slot *per reader* ("the servers maintaining variables for
//!   each reader"); the SWSR case is the one-reader instance.
//!
//! One [`ServerCore`] hosts any number of logical registers (keyed by
//! [`RegId`]) — that is exactly what the MWMR construction needs, where the
//! same `n` servers implement one SWMR register per writer.

use crate::config::RegId;
use crate::msg::{ReadKind, RegMsg};
use crate::value::Payload;
use sbs_link::{Reception, SsReceiver};
use sbs_sim::{Context, DetRng, Node, ProcessId};
use std::any::Any;
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// One register's state at one server.
#[derive(Clone, Debug)]
pub struct RegSlot<P> {
    /// `last_val` — the latest written value known here.
    pub last: P,
    /// `helping_val` per reader (`None` = ⊥).
    pub helping: BTreeMap<ProcessId, Option<P>>,
}

/// Protocol state machine for a correct server.
#[derive(Clone, Debug)]
pub struct ServerCore<P> {
    recv: SsReceiver,
    slots: BTreeMap<RegId, RegSlot<P>>,
    initial: P,
}

impl<P: Payload> ServerCore<P> {
    /// Creates a server whose registers start at `initial` (the paper
    /// allows arbitrary initial state; experiments overwrite this through
    /// [`ServerCore::corrupt`]).
    pub fn new(initial: P) -> Self {
        ServerCore {
            recv: SsReceiver::new(),
            slots: BTreeMap::new(),
            initial,
        }
    }

    /// Read access to a register slot, if it exists yet.
    pub fn slot(&self, reg: RegId) -> Option<&RegSlot<P>> {
        self.slots.get(&reg)
    }

    /// The value registers hold before their first write.
    pub fn initial(&self) -> &P {
        &self.initial
    }

    fn slot_mut(&mut self, reg: RegId) -> &mut RegSlot<P> {
        self.slots.entry(reg).or_insert_with(|| RegSlot {
            last: self.initial.clone(),
            helping: BTreeMap::new(),
        })
    }

    /// Handles one protocol message (lines 19–23 of Figures 2/3).
    pub fn handle<O: 'static>(
        &mut self,
        from: ProcessId,
        msg: RegMsg<P>,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        match msg {
            RegMsg::Write { reg, tag, val } => {
                match self.recv.on_payload(from, tag) {
                    Reception::DeliverAndAck => {
                        // Line 19: last_val ← v.
                        self.slot_mut(reg).last = val;
                        ctx.send(from, RegMsg::SsAck { tag });
                        // Line 20: ACK_WRITE(helping_val) — per reader.
                        let mut helping: Vec<(ProcessId, Option<P>)> = self
                            .slot_mut(reg)
                            .helping
                            .iter()
                            .map(|(r, h)| (*r, h.clone()))
                            .collect();
                        helping.sort_by_key(|(r, _)| *r);
                        ctx.send(from, RegMsg::AckWrite { reg, helping });
                    }
                    Reception::AckOnly => ctx.send(from, RegMsg::SsAck { tag }),
                }
            }
            RegMsg::NewHelpVal {
                reg,
                tag,
                val,
                readers,
            } => {
                match self.recv.on_payload(from, tag) {
                    Reception::DeliverAndAck => {
                        // Line 21: helping_val ← v, for the named readers.
                        let slot = self.slot_mut(reg);
                        for r in readers {
                            slot.helping.insert(r, Some(val.clone()));
                        }
                        ctx.send(from, RegMsg::SsAck { tag });
                    }
                    Reception::AckOnly => ctx.send(from, RegMsg::SsAck { tag }),
                }
            }
            RegMsg::Read { reg, tag, kind } => {
                match self.recv.on_payload(from, tag) {
                    Reception::DeliverAndAck => {
                        // Line 22: reset this reader's helping slot on a new read.
                        let slot = self.slot_mut(reg);
                        if kind == ReadKind::New {
                            slot.helping.insert(from, None);
                        }
                        let helping = slot.helping.get(&from).cloned().flatten();
                        let ack = if kind == ReadKind::Probe {
                            // Line N3: the probe reads only helping_val.
                            RegMsg::AckProbe { reg, helping }
                        } else {
                            // Line 23: ACK_READ(last_val, helping_val).
                            let last = slot.last.clone();
                            RegMsg::AckRead { reg, last, helping }
                        };
                        ctx.send(from, RegMsg::SsAck { tag });
                        ctx.send(from, ack);
                    }
                    Reception::AckOnly => ctx.send(from, RegMsg::SsAck { tag }),
                }
            }
            // Acknowledgements are client-bound; a server receiving one is
            // garbage from a transient fault. Drop it.
            RegMsg::SsAck { .. }
            | RegMsg::AckWrite { .. }
            | RegMsg::AckRead { .. }
            | RegMsg::AckProbe { .. } => {}
        }
    }

    /// Transient fault: every local variable becomes arbitrary.
    pub fn corrupt(&mut self, rng: &mut DetRng) {
        for slot in self.slots.values_mut() {
            slot.last.scramble(rng);
            for h in slot.helping.values_mut() {
                if rng.chance(0.5) {
                    *h = None;
                } else {
                    let mut v = self.initial.clone();
                    v.scramble(rng);
                    *h = Some(v);
                }
            }
        }
        self.recv.corrupt(rng);
    }
}

/// [`ServerCore`] as a simulation [`Node`]. Generic over the output type so
/// it can share a simulation with any client stack.
pub struct ServerNode<P, O> {
    core: ServerCore<P>,
    _out: PhantomData<fn() -> O>,
}

impl<P: Payload, O> ServerNode<P, O> {
    /// Creates a server node with the given initial register value.
    pub fn new(initial: P) -> Self {
        ServerNode {
            core: ServerCore::new(initial),
            _out: PhantomData,
        }
    }

    /// The protocol state (for assertions in tests).
    pub fn core(&self) -> &ServerCore<P> {
        &self.core
    }
}

impl<P: Payload, O> std::fmt::Debug for ServerNode<P, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerNode")
            .field("core", &self.core)
            .finish()
    }
}

impl<P: Payload, O: 'static> Node for ServerNode<P, O> {
    type Msg = RegMsg<P>;
    type Out = O;

    fn on_message(&mut self, from: ProcessId, msg: RegMsg<P>, ctx: &mut Context<'_, RegMsg<P>, O>) {
        self.core.handle(from, msg, ctx);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.core.corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_sim::{Effects, SimTime};

    fn ctx_fixture() -> (DetRng, u64, Effects<RegMsg<u64>, ()>) {
        (DetRng::from_seed(1), 0u64, Effects::new())
    }

    fn run<F: FnOnce(&mut ServerCore<u64>, &mut Context<'_, RegMsg<u64>, ()>)>(
        core: &mut ServerCore<u64>,
        f: F,
    ) -> Vec<(ProcessId, RegMsg<u64>)> {
        let (mut rng, mut nt, mut eff) = ctx_fixture();
        {
            let mut ctx = Context::new(SimTime::ZERO, ProcessId(99), &mut rng, &mut nt, &mut eff);
            f(core, &mut ctx);
        }
        eff.sends().to_vec()
    }

    const W: ProcessId = ProcessId(0);
    const R: ProcessId = ProcessId(1);

    #[test]
    fn write_updates_last_and_acks() {
        let mut core = ServerCore::new(0u64);
        let sends = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::Write {
                    reg: RegId(0),
                    tag: 7,
                    val: 42,
                },
                ctx,
            );
        });
        assert_eq!(core.slot(RegId(0)).unwrap().last, 42);
        assert_eq!(sends.len(), 2);
        assert!(matches!(sends[0].1, RegMsg::SsAck { tag: 7 }));
        assert!(matches!(sends[1].1, RegMsg::AckWrite { .. }));
        assert_eq!(sends[0].0, W);
    }

    #[test]
    fn duplicate_write_acks_without_redelivering() {
        let mut core = ServerCore::new(0u64);
        let _ = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::Write {
                    reg: RegId(0),
                    tag: 7,
                    val: 42,
                },
                ctx,
            );
        });
        let sends = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::Write {
                    reg: RegId(0),
                    tag: 7,
                    val: 43,
                },
                ctx,
            );
        });
        // Same tag: no state change, SS_ACK only.
        assert_eq!(core.slot(RegId(0)).unwrap().last, 42);
        assert_eq!(sends.len(), 1);
        assert!(matches!(sends[0].1, RegMsg::SsAck { tag: 7 }));
    }

    #[test]
    fn new_read_resets_helping_then_answers() {
        let mut core = ServerCore::new(0u64);
        let _ = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::NewHelpVal {
                    reg: RegId(0),
                    tag: 1,
                    val: 9,
                    readers: vec![R],
                },
                ctx,
            );
        });
        assert_eq!(core.slot(RegId(0)).unwrap().helping.get(&R), Some(&Some(9)));
        let sends = run(&mut core, |c, ctx| {
            c.handle(
                R,
                RegMsg::Read {
                    reg: RegId(0),
                    tag: 2,
                    kind: ReadKind::New,
                },
                ctx,
            );
        });
        // Helping reset to ⊥ before answering (lines 22-23).
        assert_eq!(core.slot(RegId(0)).unwrap().helping.get(&R), Some(&None));
        assert!(matches!(sends[1].1, RegMsg::AckRead { helping: None, .. }));
    }

    #[test]
    fn old_read_round_does_not_reset_helping() {
        let mut core = ServerCore::new(0u64);
        let _ = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::NewHelpVal {
                    reg: RegId(0),
                    tag: 1,
                    val: 9,
                    readers: vec![R],
                },
                ctx,
            );
        });
        let sends = run(&mut core, |c, ctx| {
            c.handle(
                R,
                RegMsg::Read {
                    reg: RegId(0),
                    tag: 2,
                    kind: ReadKind::Again,
                },
                ctx,
            );
        });
        assert!(matches!(
            sends[1].1,
            RegMsg::AckRead {
                helping: Some(9),
                ..
            }
        ));
    }

    #[test]
    fn probe_resets_nothing_and_answers_with_helping_only() {
        let mut core = ServerCore::new(0u64);
        let _ = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::NewHelpVal {
                    reg: RegId(0),
                    tag: 1,
                    val: 9,
                    readers: vec![R],
                },
                ctx,
            );
        });
        let sends = run(&mut core, |c, ctx| {
            c.handle(
                R,
                RegMsg::Read {
                    reg: RegId(0),
                    tag: 2,
                    kind: ReadKind::Probe,
                },
                ctx,
            );
        });
        assert_eq!(core.slot(RegId(0)).unwrap().helping.get(&R), Some(&Some(9)));
        assert!(matches!(sends[0].1, RegMsg::SsAck { tag: 2 }));
        assert!(matches!(
            sends[1].1,
            RegMsg::AckProbe {
                helping: Some(9),
                ..
            }
        ));
    }

    #[test]
    fn helping_slots_are_per_reader() {
        let mut core = ServerCore::new(0u64);
        let r2 = ProcessId(2);
        let _ = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::NewHelpVal {
                    reg: RegId(0),
                    tag: 1,
                    val: 9,
                    readers: vec![R, r2],
                },
                ctx,
            );
        });
        // R starts a new read: only R's slot resets.
        let _ = run(&mut core, |c, ctx| {
            c.handle(
                R,
                RegMsg::Read {
                    reg: RegId(0),
                    tag: 2,
                    kind: ReadKind::New,
                },
                ctx,
            );
        });
        let slot = core.slot(RegId(0)).unwrap();
        assert_eq!(slot.helping.get(&R), Some(&None));
        assert_eq!(slot.helping.get(&r2), Some(&Some(9)));
    }

    #[test]
    fn registers_are_independent() {
        let mut core = ServerCore::new(0u64);
        let _ = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::Write {
                    reg: RegId(0),
                    tag: 1,
                    val: 1,
                },
                ctx,
            );
            c.handle(
                W,
                RegMsg::Write {
                    reg: RegId(1),
                    tag: 2,
                    val: 2,
                },
                ctx,
            );
        });
        assert_eq!(core.slot(RegId(0)).unwrap().last, 1);
        assert_eq!(core.slot(RegId(1)).unwrap().last, 2);
    }

    #[test]
    fn corruption_scrambles_state() {
        let mut core = ServerCore::new(0u64);
        let _ = run(&mut core, |c, ctx| {
            c.handle(
                W,
                RegMsg::Write {
                    reg: RegId(0),
                    tag: 1,
                    val: 42,
                },
                ctx,
            );
        });
        let mut rng = DetRng::from_seed(9);
        core.corrupt(&mut rng);
        // With overwhelming probability the value changed; deterministic
        // seed makes this test stable.
        assert_ne!(core.slot(RegId(0)).unwrap().last, 42);
    }

    #[test]
    fn stray_acks_are_dropped() {
        let mut core = ServerCore::new(0u64);
        let sends = run(&mut core, |c, ctx| {
            c.handle(R, RegMsg::SsAck { tag: 3 }, ctx);
            c.handle(
                R,
                RegMsg::AckRead {
                    reg: RegId(0),
                    last: 1,
                    helping: None,
                },
                ctx,
            );
            c.handle(
                R,
                RegMsg::AckProbe {
                    reg: RegId(0),
                    helping: Some(5),
                },
                ctx,
            );
            c.handle(
                R,
                RegMsg::AckWrite {
                    reg: RegId(0),
                    helping: vec![(R, Some(5))],
                },
                ctx,
            );
        });
        assert!(sends.is_empty());
        assert!(core.slot(RegId(0)).is_none(), "no state is touched");
    }
}
