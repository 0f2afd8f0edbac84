//! The wire protocol: the message kinds of Figures 2/3 plus the
//! session-layer acknowledgement, and the client-side output events.
//!
//! Acknowledgements never re-ship a value their receiver ignores or has
//! just been sent: the sanity probe's `READ` is answered by an
//! [`RegMsg::AckProbe`] without `last_val`, and an `ACK_WRITE` carries
//! each distinct helping value once. [`HelpingForm`] is that rule;
//! [`RegMsg::wire_size`] and the socket codec both follow it.
//!
//! Message payloads are generic over the stored [`Payload`] type `P`: the
//! regular register (Figure 2) instantiates `P = V`, the practically atomic
//! register (Figure 3) instantiates `P = SeqVal<V>` — "the data value `v`
//! appearing in Figure 2 is now replaced by the pair `(wsn, v)`".
//!
//! Protocol acknowledgements (`ACK_WRITE`, `ACK_READ`) deliberately carry
//! **no sequence numbers**, reproducing the paper's remark in §3.1: FIFO
//! links plus ss-broadcast ordering align acknowledgements with requests.
//! The alignment itself is anchored on the session-layer `SS_ACK` tags —
//! which belong to the ss-broadcast abstraction, not to the register
//! protocol (see `ClientLink`).

use crate::config::RegId;
use crate::value::Payload;
use sbs_link::SsTag;
use sbs_sim::{Message, OpId, ProcessId};

/// Protocol messages over payload type `P`.
#[derive(Clone, Debug)]
pub enum RegMsg<P> {
    /// Writer → servers: store `val` as the register's latest value
    /// (Fig. 2 line 01 / Fig. 3 line 01M).
    Write {
        /// Which logical register.
        reg: RegId,
        /// Session-layer broadcast tag.
        tag: SsTag,
        /// The (possibly stamped) value being written.
        val: P,
    },
    /// Writer → servers: refresh the helping value for the given readers
    /// (Fig. 2/3 line 04).
    NewHelpVal {
        /// Which logical register.
        reg: RegId,
        /// Session-layer broadcast tag.
        tag: SsTag,
        /// The helping value to install.
        val: P,
        /// The readers whose helping slots must be refreshed.
        readers: Vec<ProcessId>,
    },
    /// Reader → servers: an inquiry round (Fig. 2/3 line 09 / N2).
    Read {
        /// Which logical register.
        reg: RegId,
        /// Session-layer broadcast tag.
        tag: SsTag,
        /// Which round of the read this is.
        kind: ReadKind,
    },
    /// Server → client: session-layer delivery acknowledgement. Carries the
    /// tag so the client can both complete its broadcast and anchor
    /// subsequent protocol acknowledgements from this server.
    SsAck {
        /// The tag being acknowledged.
        tag: SsTag,
    },
    /// Server → writer: response to `Write` (line 20). Carries the server's
    /// helping state per reader so the writer can evaluate line 03.
    AckWrite {
        /// Which logical register.
        reg: RegId,
        /// This server's helping value for each reader it knows about.
        helping: Vec<(ProcessId, Option<P>)>,
    },
    /// Server → reader: response to a loop `Read` (line 23).
    AckRead {
        /// Which logical register.
        reg: RegId,
        /// The server's current `last_val`.
        last: P,
        /// The server's helping value for this reader (`None` = ⊥).
        helping: Option<P>,
    },
    /// Server → reader: response to a probe `Read` (line N3). The probe
    /// reads only helping values (lines N4–N5), so `last_val` stays home.
    AckProbe {
        /// Which logical register.
        reg: RegId,
        /// The server's helping value for this reader (`None` = ⊥).
        helping: Option<P>,
    },
}

/// The round a `READ` belongs to. The discriminant is the flag byte the
/// socket codec puts on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// A later loop round (line 10: `new_read` already consumed).
    Again = 0,
    /// The first loop round of a read: the server resets this reader's
    /// helping slot (line 22).
    New = 1,
    /// The sanity probe of the atomic variant (line N2). Handled like
    /// `Again`, answered with an [`RegMsg::AckProbe`].
    Probe = 2,
}

/// How one helping value travels in an acknowledgement: the option flag
/// byte of the wire encoding and what follows it. Only an `ACK_WRITE`
/// entry can be a [`HelpingForm::Repeat`]; the other acks carry one
/// helping value and send it as ⊥ or in full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HelpingForm<'a, P> {
    /// ⊥ (flag 0, nothing follows).
    Bottom,
    /// The value itself (flag 1, the payload follows).
    Full(&'a P),
    /// A back-reference to the earlier `ACK_WRITE` entry that carries
    /// the value in full (flag 2, a 3-byte entry index follows).
    Repeat(usize),
}

impl<'a, P: Payload> HelpingForm<'a, P> {
    /// The form of a lone helping value: ⊥ or in full.
    pub fn of(helping: &'a Option<P>) -> Self {
        helping
            .as_ref()
            .map_or(HelpingForm::Bottom, HelpingForm::Full)
    }

    /// Bytes on the wire, flag byte included.
    fn size(&self) -> u64 {
        match self {
            HelpingForm::Bottom => 1,
            HelpingForm::Full(v) => 1 + v.wire_size(),
            HelpingForm::Repeat(_) => 1 + 3,
        }
    }
}

/// The forms of an `ACK_WRITE`'s entries: an entry whose value equals an
/// earlier entry's refers to the first such entry, which carries it in
/// full. Quadratic in the entry count, which is the reader count; equal
/// values installed by one `NEW_HELP_VAL` usually share storage, so most
/// comparisons are pointer checks.
pub fn ack_write_forms<P: Payload>(
    helping: &[(ProcessId, Option<P>)],
) -> impl Iterator<Item = HelpingForm<'_, P>> {
    helping.iter().enumerate().map(|(i, (_, h))| match h {
        None => HelpingForm::Bottom,
        Some(v) => helping[..i]
            .iter()
            .position(|(_, e)| e.as_ref() == Some(v))
            .map_or(HelpingForm::Full(v), HelpingForm::Repeat),
    })
}

impl<P: Payload> RegMsg<P> {
    /// Serialized size: a fixed per-message header (kind tag, register
    /// id, session tag, count) plus the carried payloads in their
    /// [`HelpingForm`]s. The socket codec's encoding of a message is
    /// exactly this long.
    pub fn wire_size(&self) -> u64 {
        const HEADER: u64 = 16;
        match self {
            RegMsg::Write { val, .. } => HEADER + val.wire_size(),
            RegMsg::NewHelpVal { val, readers, .. } => {
                HEADER + val.wire_size() + 4 * readers.len() as u64
            }
            RegMsg::Read { .. } => HEADER + 1,
            RegMsg::SsAck { .. } => HEADER,
            RegMsg::AckWrite { helping, .. } => {
                HEADER + ack_write_forms(helping).map(|f| 4 + f.size()).sum::<u64>()
            }
            RegMsg::AckRead { last, helping, .. } => {
                HEADER + last.wire_size() + HelpingForm::of(helping).size()
            }
            RegMsg::AckProbe { helping, .. } => HEADER + HelpingForm::of(helping).size(),
        }
    }
}

impl<P: Payload> Message for RegMsg<P> {
    fn label(&self) -> &'static str {
        match self {
            RegMsg::Write { .. } => "WRITE",
            RegMsg::NewHelpVal { .. } => "NEW_HELP_VAL",
            RegMsg::Read { .. } => "READ",
            RegMsg::SsAck { .. } => "SS_ACK",
            RegMsg::AckWrite { .. } => "ACK_WRITE",
            RegMsg::AckRead { .. } => "ACK_READ",
            RegMsg::AckProbe { .. } => "ACK_PROBE",
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_size()
    }
}

/// Client-visible operation completions. `T` is the completed read's value
/// type: the wire payload `P` for SWSR/SWMR stacks (the harness projects
/// the application value out), the application value `V` for MWMR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOut<T> {
    /// A `write` finished (Fig. 2 line 06).
    WriteDone {
        /// The operation, as assigned at invocation.
        op: OpId,
    },
    /// A `read` finished (Fig. 2 lines 13/15).
    ReadDone {
        /// The operation, as assigned at invocation.
        op: OpId,
        /// The value returned.
        value: T,
    },
}

impl<T> ClientOut<T> {
    /// The completed operation's id.
    pub fn op(&self) -> OpId {
        match self {
            ClientOut::WriteDone { op } | ClientOut::ReadDone { op, .. } => *op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_kinds() {
        let w: RegMsg<u64> = RegMsg::Write {
            reg: RegId(0),
            tag: 1,
            val: 5,
        };
        assert_eq!(w.label(), "WRITE");
        let h: RegMsg<u64> = RegMsg::NewHelpVal {
            reg: RegId(0),
            tag: 2,
            val: 5,
            readers: vec![],
        };
        assert_eq!(h.label(), "NEW_HELP_VAL");
        let r: RegMsg<u64> = RegMsg::Read {
            reg: RegId(0),
            tag: 3,
            kind: ReadKind::New,
        };
        assert_eq!(r.label(), "READ");
        assert_eq!(RegMsg::<u64>::SsAck { tag: 4 }.label(), "SS_ACK");
        let aw: RegMsg<u64> = RegMsg::AckWrite {
            reg: RegId(0),
            helping: vec![],
        };
        assert_eq!(aw.label(), "ACK_WRITE");
        let ar: RegMsg<u64> = RegMsg::AckRead {
            reg: RegId(0),
            last: 5,
            helping: None,
        };
        assert_eq!(ar.label(), "ACK_READ");
        let ap: RegMsg<u64> = RegMsg::AckProbe {
            reg: RegId(0),
            helping: None,
        };
        assert_eq!(ap.label(), "ACK_PROBE");
    }

    #[test]
    fn read_kinds_share_one_size() {
        for kind in [ReadKind::Again, ReadKind::New, ReadKind::Probe] {
            let r: RegMsg<u64> = RegMsg::Read {
                reg: RegId(0),
                tag: 1,
                kind,
            };
            assert_eq!(r.wire_size(), 16 + 1);
        }
        assert_eq!(ReadKind::Probe as u8, 2);
    }

    #[test]
    fn probe_ack_carries_only_the_helping_value() {
        let bottom: RegMsg<u64> = RegMsg::AckProbe {
            reg: RegId(0),
            helping: None,
        };
        assert_eq!(bottom.wire_size(), 16 + 1);
        let help: RegMsg<u64> = RegMsg::AckProbe {
            reg: RegId(0),
            helping: Some(9),
        };
        assert_eq!(help.wire_size(), 16 + 1 + 8);
    }

    #[test]
    fn ack_write_sends_each_distinct_value_once() {
        let helping = vec![
            (ProcessId(1), Some(7u64)),
            (ProcessId(2), None),
            (ProcessId(3), Some(7)),
            (ProcessId(4), Some(8)),
            (ProcessId(5), Some(8)),
        ];
        assert_eq!(
            ack_write_forms(&helping).collect::<Vec<_>>(),
            vec![
                HelpingForm::Full(&7),
                HelpingForm::Bottom,
                HelpingForm::Repeat(0),
                HelpingForm::Full(&8),
                HelpingForm::Repeat(3),
            ]
        );
        let ack = RegMsg::AckWrite {
            reg: RegId(0),
            helping,
        };
        // Five (pid, flag) entries, two full values, two 3-byte indices.
        assert_eq!(ack.wire_size(), 16 + 5 * 5 + 2 * 8 + 2 * 3);
    }

    #[test]
    fn ack_read_carries_last_and_the_helping_value() {
        // A helping value equal to `last` still travels in full.
        let same: RegMsg<u64> = RegMsg::AckRead {
            reg: RegId(0),
            last: 5,
            helping: Some(5),
        };
        assert_eq!(same.wire_size(), 16 + 8 + 1 + 8);
        let differ: RegMsg<u64> = RegMsg::AckRead {
            reg: RegId(0),
            last: 5,
            helping: Some(6),
        };
        assert_eq!(differ.wire_size(), 16 + 8 + 1 + 8);
        let bottom: RegMsg<u64> = RegMsg::AckRead {
            reg: RegId(0),
            last: 5,
            helping: None,
        };
        assert_eq!(bottom.wire_size(), 16 + 8 + 1);
    }

    #[test]
    fn client_out_exposes_op() {
        assert_eq!(ClientOut::<u64>::WriteDone { op: OpId(3) }.op(), OpId(3));
        assert_eq!(
            ClientOut::ReadDone {
                op: OpId(4),
                value: 9u64
            }
            .op(),
            OpId(4)
        );
    }
}
