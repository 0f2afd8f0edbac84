//! Byzantine server behaviours.
//!
//! A Byzantine server "behaves arbitrarily" (§2.1) — it can stay silent,
//! reply with fabricated values, replay stale state, answer different
//! clients differently, or flood clients with acknowledgements. Each
//! [`ByzStrategy`] is one concrete adversary used by the resilience
//! experiments; [`ByzServerNode`] drops into a simulation wherever a
//! correct [`ServerNode`](crate::ServerNode) would go.
//!
//! The adversaries are *protocol-aware*: most of them maintain the correct
//! server state internally (via an embedded [`ServerCore`]) so their lies
//! are plausible — e.g. [`ByzStrategy::InversionHelper`] answers reads with
//! the value *preceding* the latest write, which is exactly the reply
//! pattern that maximizes the new/old-inversion window of Figure 1.

use crate::config::RegId;
use crate::msg::RegMsg;
use crate::server::ServerCore;
use crate::value::Payload;
use sbs_sim::{Context, DetRng, Effects, Node, ProcessId, SimTime};
use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;

/// One Byzantine behaviour.
#[derive(Clone, Debug, PartialEq)]
pub enum ByzStrategy {
    /// Never sends anything (fail-silent; the worst case for quorum
    /// availability).
    Silent,
    /// Correct until the given instant, silent afterwards.
    CrashAt(SimTime),
    /// Follows the protocol shape but scrambles every payload it returns.
    RandomGarbage,
    /// Answers every read with the first value it ever stored, forever.
    StaleReplay,
    /// Alternates between honest and scrambled replies per message.
    Equivocate,
    /// Sends every reply multiple times and sprinkles spurious `SS_ACK`s
    /// with random tags (attacks acknowledgement alignment).
    AckFlood {
        /// How many copies of each reply to send.
        copies: u32,
    },
    /// Maintains correct state but answers reads one write behind, with no
    /// helping value — the reply pattern that widens the new/old-inversion
    /// window.
    InversionHelper,
}

/// A server slot occupied by an adversary.
pub struct ByzServerNode<P, O> {
    strategy: ByzStrategy,
    core: ServerCore<P>,
    /// First value ever stored per register (for `StaleReplay`).
    first_seen: HashMap<RegId, P>,
    /// Value preceding the latest write per register (for
    /// `InversionHelper`).
    previous: HashMap<RegId, P>,
    flip: bool,
    _out: PhantomData<fn() -> O>,
}

impl<P: Payload, O> ByzServerNode<P, O> {
    /// Creates an adversarial server. `initial` seeds the embedded honest
    /// state, exactly as for a correct server.
    pub fn new(strategy: ByzStrategy, initial: P) -> Self {
        ByzServerNode {
            strategy,
            core: ServerCore::new(initial),
            first_seen: HashMap::new(),
            previous: HashMap::new(),
            flip: false,
            _out: PhantomData,
        }
    }

    /// The strategy in force.
    pub fn strategy(&self) -> &ByzStrategy {
        &self.strategy
    }
}

impl<P: Payload, O> std::fmt::Debug for ByzServerNode<P, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzServerNode")
            .field("strategy", &self.strategy)
            .finish_non_exhaustive()
    }
}

impl<P: Payload, O: 'static> Node for ByzServerNode<P, O> {
    type Msg = RegMsg<P>;
    type Out = O;

    fn on_message(&mut self, from: ProcessId, msg: RegMsg<P>, ctx: &mut Context<'_, RegMsg<P>, O>) {
        match self.strategy.clone() {
            ByzStrategy::Silent => {}
            ByzStrategy::CrashAt(when) => {
                if ctx.now() < when {
                    self.core.handle(from, msg, ctx);
                }
            }
            ByzStrategy::RandomGarbage => {
                let sends = self.honest_sends(from, msg, ctx);
                for (to, mut m) in sends {
                    scramble_payload(&mut m, ctx.rng());
                    ctx.send(to, m);
                }
            }
            ByzStrategy::Equivocate => {
                let sends = self.honest_sends(from, msg, ctx);
                for (to, mut m) in sends {
                    // Alternate per payload-carrying reply; session acks
                    // have nothing to lie about.
                    if matches!(
                        m,
                        RegMsg::AckWrite { .. } | RegMsg::AckRead { .. } | RegMsg::AckProbe { .. }
                    ) {
                        self.flip = !self.flip;
                        if self.flip {
                            scramble_payload(&mut m, ctx.rng());
                        }
                    }
                    ctx.send(to, m);
                }
            }
            ByzStrategy::AckFlood { copies } => {
                let sends = self.honest_sends(from, msg, ctx);
                for (to, m) in sends {
                    for _ in 0..copies.max(1) {
                        ctx.send(to, m.clone());
                    }
                    let bogus = ctx.rng().next_u64();
                    ctx.send(to, RegMsg::SsAck { tag: bogus });
                }
            }
            ByzStrategy::StaleReplay => {
                self.track_writes(&msg);
                let sends = self.honest_sends(from, msg, ctx);
                for (to, mut m) in sends {
                    replay_without_help(&mut m, &self.first_seen);
                    ctx.send(to, m);
                }
            }
            ByzStrategy::InversionHelper => {
                self.track_writes(&msg);
                let sends = self.honest_sends(from, msg, ctx);
                for (to, mut m) in sends {
                    replay_without_help(&mut m, &self.previous);
                    ctx.send(to, m);
                }
            }
        }
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.core.corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<P: Payload, O: 'static> ByzServerNode<P, O> {
    /// Runs the honest server logic into a scratch buffer and returns what
    /// it *would* have sent, so strategies can perturb it.
    fn honest_sends(
        &mut self,
        from: ProcessId,
        msg: RegMsg<P>,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) -> Vec<(ProcessId, RegMsg<P>)> {
        let mut eff: Effects<RegMsg<P>, O> = Effects::new();
        let mut scratch_timer = u64::MAX / 2;
        {
            let now = ctx.now();
            let me = ctx.me();
            let mut sub = Context::new(now, me, ctx.rng(), &mut scratch_timer, &mut eff);
            self.core.handle(from, msg, &mut sub);
        }
        eff.sends().to_vec()
    }

    /// Records pre-write values for the replay/inversion strategies.
    fn track_writes(&mut self, msg: &RegMsg<P>) {
        if let RegMsg::Write { reg, .. } = msg {
            let before = self
                .core
                .slot(*reg)
                .map(|s| s.last.clone())
                .unwrap_or_else(|| self.core.initial().clone());
            self.previous.insert(*reg, before.clone());
            self.first_seen.entry(*reg).or_insert(before);
        }
    }
}

/// Rewrites a read acknowledgement to report `replay`'s value for its
/// register as `last_val` (when there is one) and ⊥ as the helping value.
fn replay_without_help<P: Payload>(msg: &mut RegMsg<P>, replay: &HashMap<RegId, P>) {
    match msg {
        RegMsg::AckRead { reg, last, helping } => {
            if let Some(v) = replay.get(reg) {
                *last = v.clone();
            }
            *helping = None;
        }
        RegMsg::AckProbe { helping, .. } => *helping = None,
        _ => {}
    }
}

fn scramble_payload<P: Payload>(msg: &mut RegMsg<P>, rng: &mut DetRng) {
    match msg {
        RegMsg::AckWrite { helping, .. } => {
            for (_, h) in helping.iter_mut() {
                if let Some(v) = h {
                    v.scramble(rng);
                }
            }
        }
        RegMsg::AckRead { last, helping, .. } => {
            last.scramble(rng);
            if let Some(h) = helping {
                h.scramble(rng);
            }
        }
        RegMsg::AckProbe {
            helping: Some(h), ..
        } => h.scramble(rng),
        // Session acks and client-bound requests pass through: lying about
        // tags is modelled by AckFlood.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ReadKind;
    use sbs_sim::SimTime;

    fn drive(
        node: &mut ByzServerNode<u64, ()>,
        from: ProcessId,
        msg: RegMsg<u64>,
        now: SimTime,
    ) -> Vec<(ProcessId, RegMsg<u64>)> {
        let mut rng = DetRng::from_seed(7);
        let mut nt = 0u64;
        let mut eff: Effects<RegMsg<u64>, ()> = Effects::new();
        {
            let mut ctx = Context::new(now, ProcessId(50), &mut rng, &mut nt, &mut eff);
            node.on_message(from, msg, &mut ctx);
        }
        eff.sends().to_vec()
    }

    const W: ProcessId = ProcessId(0);
    const R: ProcessId = ProcessId(1);

    fn write_msg(tag: u64, val: u64) -> RegMsg<u64> {
        RegMsg::Write {
            reg: RegId(0),
            tag,
            val,
        }
    }

    fn read_msg(tag: u64) -> RegMsg<u64> {
        RegMsg::Read {
            reg: RegId(0),
            tag,
            kind: ReadKind::Again,
        }
    }

    fn probe_msg(tag: u64) -> RegMsg<u64> {
        RegMsg::Read {
            reg: RegId(0),
            tag,
            kind: ReadKind::Probe,
        }
    }

    fn help_msg(tag: u64, val: u64) -> RegMsg<u64> {
        RegMsg::NewHelpVal {
            reg: RegId(0),
            tag,
            val,
            readers: vec![R],
        }
    }

    /// The helping value of the probe ack among `sends`.
    fn probe_help(sends: &[(ProcessId, RegMsg<u64>)]) -> Option<u64> {
        sends
            .iter()
            .find_map(|(_, m)| match m {
                RegMsg::AckProbe { helping, .. } => Some(*helping),
                _ => None,
            })
            .expect("the probe must be answered with a probe ack")
    }

    #[test]
    fn silent_says_nothing() {
        let mut node = ByzServerNode::new(ByzStrategy::Silent, 0u64);
        assert!(drive(&mut node, W, write_msg(1, 5), SimTime::ZERO).is_empty());
    }

    #[test]
    fn crash_at_flips_behavior() {
        let mut node = ByzServerNode::new(ByzStrategy::CrashAt(SimTime::from_nanos(100)), 0u64);
        let before = drive(&mut node, W, write_msg(1, 5), SimTime::from_nanos(50));
        assert_eq!(before.len(), 2, "correct before the crash");
        let after = drive(&mut node, W, write_msg(2, 6), SimTime::from_nanos(150));
        assert!(after.is_empty(), "silent after the crash");
    }

    #[test]
    fn garbage_scrambles_ack_read_payloads() {
        let mut node = ByzServerNode::new(ByzStrategy::RandomGarbage, 0u64);
        let _ = drive(&mut node, W, write_msg(1, 42), SimTime::ZERO);
        let sends = drive(&mut node, R, read_msg(2), SimTime::ZERO);
        let ack = sends
            .iter()
            .find_map(|(_, m)| match m {
                RegMsg::AckRead { last, .. } => Some(*last),
                _ => None,
            })
            .expect("read must be answered");
        assert_ne!(ack, 42, "payload must be garbled (deterministic seed)");
    }

    #[test]
    fn inversion_helper_reports_one_write_behind() {
        let mut node = ByzServerNode::new(ByzStrategy::InversionHelper, 0u64);
        let _ = drive(&mut node, W, write_msg(1, 10), SimTime::ZERO);
        let _ = drive(&mut node, W, write_msg(2, 20), SimTime::ZERO);
        let sends = drive(&mut node, R, read_msg(3), SimTime::ZERO);
        let (last, helping) = sends
            .iter()
            .find_map(|(_, m)| match m {
                RegMsg::AckRead { last, helping, .. } => Some((*last, *helping)),
                _ => None,
            })
            .unwrap();
        assert_eq!(last, 10, "answers with the value before the latest write");
        assert_eq!(helping, None, "denies helping");
    }

    #[test]
    fn stale_replay_pins_the_first_value() {
        let mut node = ByzServerNode::new(ByzStrategy::StaleReplay, 0u64);
        let _ = drive(&mut node, W, write_msg(1, 10), SimTime::ZERO);
        let _ = drive(&mut node, W, write_msg(2, 20), SimTime::ZERO);
        let _ = drive(&mut node, W, write_msg(3, 30), SimTime::ZERO);
        let sends = drive(&mut node, R, read_msg(4), SimTime::ZERO);
        let last = sends
            .iter()
            .find_map(|(_, m)| match m {
                RegMsg::AckRead { last, .. } => Some(*last),
                _ => None,
            })
            .unwrap();
        assert_eq!(last, 0, "the pre-first-write value is replayed forever");
    }

    #[test]
    fn ack_flood_duplicates_and_fabricates() {
        let mut node = ByzServerNode::new(ByzStrategy::AckFlood { copies: 3 }, 0u64);
        let sends = drive(&mut node, W, write_msg(1, 5), SimTime::ZERO);
        // Honest behaviour: SS_ACK + ACK_WRITE = 2 messages; flooded:
        // 3 copies each + 2 bogus SS_ACKs.
        assert_eq!(sends.len(), 3 * 2 + 2);
    }

    #[test]
    fn equivocate_alternates() {
        let mut node = ByzServerNode::new(ByzStrategy::Equivocate, 0u64);
        let _ = drive(&mut node, W, write_msg(1, 42), SimTime::ZERO);
        // Collect several read answers; some honest, some scrambled.
        let mut honest = 0;
        let mut garbled = 0;
        for tag in 10..20 {
            for (_, m) in drive(&mut node, R, read_msg(tag), SimTime::ZERO) {
                if let RegMsg::AckRead { last, .. } = m {
                    if last == 42 {
                        honest += 1;
                    } else {
                        garbled += 1;
                    }
                }
            }
        }
        assert!(
            honest > 0 && garbled > 0,
            "honest={honest} garbled={garbled}"
        );
    }

    #[test]
    fn stale_replay_and_inversion_helper_deny_help_to_the_probe() {
        for strategy in [ByzStrategy::StaleReplay, ByzStrategy::InversionHelper] {
            let mut node = ByzServerNode::new(strategy.clone(), 0u64);
            let _ = drive(&mut node, W, write_msg(1, 10), SimTime::ZERO);
            let _ = drive(&mut node, W, help_msg(2, 10), SimTime::ZERO);
            let sends = drive(&mut node, R, probe_msg(3), SimTime::ZERO);
            assert_eq!(probe_help(&sends), None, "{strategy:?} answers ⊥");
        }
        // An honest server would have helped.
        let mut honest = ByzServerNode::new(ByzStrategy::CrashAt(SimTime::MAX), 0u64);
        let _ = drive(&mut honest, W, help_msg(1, 10), SimTime::ZERO);
        let sends = drive(&mut honest, R, probe_msg(2), SimTime::ZERO);
        assert_eq!(probe_help(&sends), Some(10));
    }

    #[test]
    fn equivocate_alternates_over_probe_acks() {
        let mut node = ByzServerNode::new(ByzStrategy::Equivocate, 0u64);
        let _ = drive(&mut node, W, help_msg(1, 42), SimTime::ZERO);
        let helps: Vec<Option<u64>> = (10..20)
            .map(|tag| probe_help(&drive(&mut node, R, probe_msg(tag), SimTime::ZERO)))
            .collect();
        let honest = helps.iter().filter(|h| **h == Some(42)).count();
        assert_eq!(honest, 5, "every other probe ack is honest: {helps:?}");
    }

    #[test]
    fn garbage_scrambles_only_what_a_probe_ack_carries() {
        let mut node = ByzServerNode::new(ByzStrategy::RandomGarbage, 0u64);
        let _ = drive(&mut node, W, help_msg(1, 42), SimTime::ZERO);
        let sends = drive(&mut node, R, probe_msg(2), SimTime::ZERO);
        let help = probe_help(&sends).expect("a scrambled value is still a value");
        assert_ne!(help, 42, "helping value garbled (deterministic seed)");
        // ⊥ has nothing to scramble: the ack keeps its shape.
        let mut fresh = ByzServerNode::new(ByzStrategy::RandomGarbage, 0u64);
        let sends = drive(&mut fresh, R, probe_msg(1), SimTime::ZERO);
        assert_eq!(probe_help(&sends), None);
    }
}
