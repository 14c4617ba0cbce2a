//! The wire messages of the ISIS protocol stack.
//!
//! One enum covers membership (join/leave/flush/install), data casts,
//! liveness, and application-direct traffic, so a single simulated process
//! type can run the whole stack. Every send is classified by
//! [`IsisMsg::category`] into a named counter, letting experiments report
//! protocol overhead per message class.

use now_sim::Pid;

use crate::types::{CastKind, GroupId, GroupView, MsgId, ViewId};
use crate::vclock::VClock;

/// Per-stream delivery progress, piggybacked on casts and heartbeats.
///
/// Stability ("everyone has delivered it") is computed as the pointwise
/// minimum of these vectors over the current view; stable messages are
/// garbage-collected from retransmission buffers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StabilityVector {
    /// View these counters refer to (they reset at each view change).
    pub view: ViewId,
    /// Delivered causal casts per sender.
    pub cvt: VClock,
    /// Delivered FIFO casts per sender.
    pub fvt: VClock,
    /// Highest contiguously delivered ABCAST global sequence number.
    pub adel: u64,
}

impl StabilityVector {
    /// Estimated wire bytes.
    pub fn wire_bytes(&self) -> usize {
        16 + self.cvt.storage_bytes() + self.fvt.storage_bytes()
    }
}

/// A data broadcast within a group.
#[derive(Clone, Debug)]
pub struct CastData<P> {
    /// Destination group.
    pub gid: GroupId,
    /// View in which the sender initiated the cast.
    pub view: ViewId,
    /// Ordering discipline.
    pub kind: CastKind,
    /// Unique id; `id.seq` is the per-stream sender sequence number.
    pub id: MsgId,
    /// Causal timestamp (meaningful for [`CastKind::Causal`]; zero
    /// otherwise).
    pub vt: VClock,
    /// Sender's delivery progress, for stability tracking.
    pub stab: StabilityVector,
    /// Whether receivers should send a [`IsisMsg::CastAck`] on delivery.
    pub want_ack: bool,
    /// Application payload.
    pub payload: P,
}

/// Messages carried forward across a view change so that every survivor
/// delivers the same set ("virtual synchrony").
#[derive(Clone, Debug)]
pub struct RelaySet<P> {
    /// Causal casts: `(id, vt, payload)`.
    pub causal: Vec<(MsgId, VClock, P)>,
    /// FIFO casts: `(id, payload)`.
    pub fifo: Vec<(MsgId, P)>,
    /// Total-order casts whose global sequence is known:
    /// `(gseq, id, payload)`.
    pub total_ordered: Vec<(u64, MsgId, P)>,
    /// Total-order casts received but never sequenced (their sequencer
    /// failed); the view-change leader assigns them final positions.
    pub total_unordered: Vec<(MsgId, P)>,
}

impl<P> Default for RelaySet<P> {
    fn default() -> RelaySet<P> {
        RelaySet {
            causal: Vec::new(),
            fifo: Vec::new(),
            total_ordered: Vec::new(),
            total_unordered: Vec::new(),
        }
    }
}

impl<P> RelaySet<P> {
    /// Total number of messages carried.
    pub fn len(&self) -> usize {
        self.causal.len() + self.fifo.len() + self.total_ordered.len() + self.total_unordered.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The donor's delivery progress at the instant a joiner's state snapshot
/// was exported.
///
/// A joiner admitted mid-view (a restart the group never noticed, or a
/// first join whose install was lost and re-sent) receives application
/// state that already reflects every message the donor delivered. Its
/// runtime must therefore start at the same cut: with these floors
/// installed, flush relays and retransmissions of snapshot-covered
/// messages are recognized as delivered instead of being applied a second
/// time on top of their own effects.
#[derive(Clone, Debug, Default)]
pub struct DeliveryFloor {
    /// Delivered causal casts per sender.
    pub cvt: VClock,
    /// Delivered FIFO casts per sender.
    pub fdel: VClock,
    /// Highest contiguously delivered ABCAST global sequence.
    pub adel: u64,
    /// Delivered-but-not-yet-stable ids (dedups cross-view relays, which
    /// bypass the per-view floors above). Sorted; bounded by the donor's
    /// retransmission buffers.
    pub delivered: Vec<MsgId>,
}

impl DeliveryFloor {
    /// Estimated wire bytes.
    pub fn wire_bytes(&self) -> usize {
        16 + self.cvt.storage_bytes() + self.fdel.storage_bytes() + self.delivered.len() * 16
    }
}

/// Every message exchanged by [`crate::process::IsisProcess`] instances.
///
/// `P` is the application payload type, `S` the application state-transfer
/// type.
#[derive(Clone, Debug)]
pub enum IsisMsg<P, S> {
    // ------------------------------------------------------ membership --
    /// A non-member asks `contact` to be admitted to `gid`.
    JoinReq { gid: GroupId },
    /// A member forwards a join request to the group coordinator.
    JoinForward { gid: GroupId, joiner: Pid },
    /// The contacted process does not know the group.
    JoinDenied { gid: GroupId },
    /// A member announces it wants to leave.
    LeaveReq { gid: GroupId },
    /// A member tells the (would-be) view-change leader about a suspected
    /// failure.
    SuspectReport { gid: GroupId, suspect: Pid },
    /// Phase 1 of GBCAST: the leader proposes a view and asks members to
    /// wedge and report unstable messages.
    Flush {
        gid: GroupId,
        attempt: u64,
        proposal: GroupView,
    },
    /// Phase 1 reply: the member's unstable buffers and current view id.
    FlushAck {
        gid: GroupId,
        attempt: u64,
        member_view: ViewId,
        /// The member's delivery progress (the leader needs `adel` floors
        /// when assigning final order to orphaned ABCASTs).
        stab: StabilityVector,
        buffers: RelaySet<P>,
    },
    /// Phase 2 of GBCAST: deliver the relay, then install the view.
    InstallView {
        gid: GroupId,
        attempt: u64,
        view: GroupView,
        relay: RelaySet<P>,
        /// Application state for joining members (None for old members).
        state: Option<S>,
        /// The delivery cut `state` was exported at (None for old
        /// members, who track their own floors).
        floor: Option<DeliveryFloor>,
    },

    // ------------------------------------------------------------ data --
    /// A broadcast data message.
    Cast(CastData<P>),
    /// The ABCAST sequencer's ordering decision for one message.
    AbcastOrder {
        gid: GroupId,
        view: ViewId,
        gseq: u64,
        id: MsgId,
    },
    /// Optional per-cast delivery acknowledgement (used by resiliency-
    /// bounded operations, cf. the paper's `resiliency` definition).
    CastAck { gid: GroupId, id: MsgId },

    // -------------------------------------------------------- liveness --
    /// Periodic liveness + stability beacon.
    Heartbeat { gid: GroupId, stab: StabilityVector },

    // ------------------------------------------------------------- app --
    /// Point-to-point application message (client/server traffic).
    Direct(P),
}

impl<P, S> IsisMsg<P, S> {
    /// Classifies the message: the name of its per-category send counter.
    pub fn category(&self) -> &'static str {
        match self {
            IsisMsg::JoinReq { .. } => "isis.sent.join_req",
            IsisMsg::JoinForward { .. } => "isis.sent.join_fwd",
            IsisMsg::JoinDenied { .. } => "isis.sent.join_denied",
            IsisMsg::LeaveReq { .. } => "isis.sent.leave_req",
            IsisMsg::SuspectReport { .. } => "isis.sent.suspect",
            IsisMsg::Flush { .. } => "isis.sent.flush",
            IsisMsg::FlushAck { .. } => "isis.sent.flush_ack",
            IsisMsg::InstallView { .. } => "isis.sent.install",
            IsisMsg::Cast(c) => match c.kind {
                CastKind::Fifo => "isis.sent.cast_fifo",
                CastKind::Causal => "isis.sent.cast_causal",
                CastKind::Total => "isis.sent.cast_total",
            },
            IsisMsg::AbcastOrder { .. } => "isis.sent.abcast_order",
            IsisMsg::CastAck { .. } => "isis.sent.cast_ack",
            IsisMsg::Heartbeat { .. } => "isis.sent.heartbeat",
            IsisMsg::Direct(_) => "isis.sent.direct",
        }
    }

    /// The group this message concerns, if any.
    pub fn group(&self) -> Option<GroupId> {
        match self {
            IsisMsg::JoinReq { gid }
            | IsisMsg::JoinForward { gid, .. }
            | IsisMsg::JoinDenied { gid }
            | IsisMsg::LeaveReq { gid }
            | IsisMsg::SuspectReport { gid, .. }
            | IsisMsg::Flush { gid, .. }
            | IsisMsg::FlushAck { gid, .. }
            | IsisMsg::InstallView { gid, .. }
            | IsisMsg::AbcastOrder { gid, .. }
            | IsisMsg::CastAck { gid, .. }
            | IsisMsg::Heartbeat { gid, .. } => Some(*gid),
            IsisMsg::Cast(c) => Some(c.gid),
            IsisMsg::Direct(_) => None,
        }
    }

    /// Estimated wire size, given a payload sizing function.
    pub fn wire_bytes(&self, payload_bytes: impl Fn(&P) -> usize, state_bytes: usize) -> usize {
        const HDR: usize = 24;
        HDR + match self {
            IsisMsg::JoinReq { .. }
            | IsisMsg::JoinDenied { .. }
            | IsisMsg::LeaveReq { .. } => 8,
            IsisMsg::JoinForward { .. } | IsisMsg::SuspectReport { .. } => 12,
            IsisMsg::Flush { proposal, .. } => 16 + proposal.storage_bytes(),
            IsisMsg::FlushAck { buffers, .. } => {
                24 + buffers.len() * 32
                    + buffers.causal.iter().map(|(_, _, p)| payload_bytes(p)).sum::<usize>()
                    + buffers.fifo.iter().map(|(_, p)| payload_bytes(p)).sum::<usize>()
                    + buffers
                        .total_ordered
                        .iter()
                        .map(|(_, _, p)| payload_bytes(p))
                        .sum::<usize>()
                    + buffers
                        .total_unordered
                        .iter()
                        .map(|(_, p)| payload_bytes(p))
                        .sum::<usize>()
            }
            IsisMsg::InstallView { view, relay, state, floor, .. } => {
                16 + view.storage_bytes()
                    + relay.len() * 32
                    + relay.causal.iter().map(|(_, _, p)| payload_bytes(p)).sum::<usize>()
                    + relay.fifo.iter().map(|(_, p)| payload_bytes(p)).sum::<usize>()
                    + relay
                        .total_ordered
                        .iter()
                        .map(|(_, _, p)| payload_bytes(p))
                        .sum::<usize>()
                    + relay
                        .total_unordered
                        .iter()
                        .map(|(_, p)| payload_bytes(p))
                        .sum::<usize>()
                    + if state.is_some() { state_bytes } else { 0 }
                    + floor.as_ref().map_or(0, DeliveryFloor::wire_bytes)
            }
            IsisMsg::Cast(c) => {
                32 + c.vt.storage_bytes() + c.stab.wire_bytes() + payload_bytes(&c.payload)
            }
            IsisMsg::AbcastOrder { .. } => 32,
            IsisMsg::CastAck { .. } => 24,
            IsisMsg::Heartbeat { stab, .. } => 8 + stab.wire_bytes(),
            IsisMsg::Direct(p) => payload_bytes(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type M = IsisMsg<u32, ()>;

    fn cast(kind: CastKind) -> M {
        IsisMsg::Cast(CastData {
            gid: GroupId(1),
            view: 1,
            kind,
            id: MsgId {
                sender: Pid(0),
                view: 1,
                stream: kind.stream(),
                seq: 1,
            },
            vt: VClock::new(),
            stab: StabilityVector::default(),
            want_ack: false,
            payload: 7,
        })
    }

    #[test]
    fn categories_distinguish_cast_kinds() {
        assert_eq!(cast(CastKind::Causal).category(), "isis.sent.cast_causal");
        assert_eq!(cast(CastKind::Total).category(), "isis.sent.cast_total");
        assert_eq!(cast(CastKind::Fifo).category(), "isis.sent.cast_fifo");
        let hb: M = IsisMsg::Heartbeat {
            gid: GroupId(1),
            stab: StabilityVector::default(),
        };
        assert_eq!(hb.category(), "isis.sent.heartbeat");
    }

    #[test]
    fn group_extraction() {
        assert_eq!(cast(CastKind::Fifo).group(), Some(GroupId(1)));
        let d: M = IsisMsg::Direct(3);
        assert_eq!(d.group(), None);
    }

    #[test]
    fn relay_set_len_counts_all_streams() {
        let mut r: RelaySet<u32> = RelaySet::default();
        assert!(r.is_empty());
        let id = MsgId {
            sender: Pid(1),
            view: 1,
            stream: 0,
            seq: 1,
        };
        r.causal.push((id, VClock::new(), 1));
        r.fifo.push((id, 2));
        r.total_ordered.push((1, id, 3));
        r.total_unordered.push((id, 4));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        let small = cast(CastKind::Causal).wire_bytes(|_| 10, 0);
        let large = cast(CastKind::Causal).wire_bytes(|_| 1_000, 0);
        assert_eq!(large - small, 990);
    }

    #[test]
    fn install_view_wire_bytes_include_state() {
        let v = GroupView::initial(GroupId(1), Pid(0));
        let with: IsisMsg<u32, ()> = IsisMsg::InstallView {
            gid: GroupId(1),
            attempt: 0,
            view: v.clone(),
            relay: RelaySet::default(),
            state: Some(()),
            floor: None,
        };
        let without: IsisMsg<u32, ()> = IsisMsg::InstallView {
            gid: GroupId(1),
            attempt: 0,
            view: v,
            relay: RelaySet::default(),
            state: None,
            floor: None,
        };
        assert_eq!(
            with.wire_bytes(|_| 0, 500) - without.wire_bytes(|_| 0, 500),
            500
        );
    }
}
