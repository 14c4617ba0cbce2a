//! Per-group protocol state: casting, ordered delivery, and stability.
//!
//! One `GroupRuntime` exists at each member for each group it belongs to.
//! It implements the data-plane protocols (FBCAST/CBCAST/ABCAST), tracks
//! message stability for garbage collection, and cooperates with the
//! membership machinery in [`crate::membership`] (implemented as further
//! methods on the same type) to realise virtually synchronous view changes.

use std::collections::{BTreeMap, BTreeSet};

use now_sim::trace::{EventKind as TraceKind, MsgKey};
use now_sim::{Ctx, Pid, SimTime};

use crate::app::{Application, MsgOf};
use crate::config::IsisConfig;
use crate::msg::{CastData, DeliveryFloor, IsisMsg, StabilityVector};
use crate::types::{CastKind, GroupId, GroupView, IsisError, MsgId, ViewId};
use crate::vclock::VClock;

/// Externally visible consequences of protocol handling, applied by
/// [`crate::process::IsisProcess`] after the runtime returns (application
/// callbacks must not run while the runtime is mutably borrowed).
#[derive(Debug)]
pub(crate) enum Effect<P> {
    /// Deliver a cast to the application.
    Deliver {
        gid: GroupId,
        from: Pid,
        kind: CastKind,
        payload: P,
    },
    /// A new view was installed.
    View { view: GroupView, joined: bool },
    /// This process is no longer a member of the group.
    Left { gid: GroupId },
    /// The group stalled in a minority partition.
    Stall { gid: GroupId },
    /// One of our acked casts accumulated another delivery ack.
    CastAcked {
        gid: GroupId,
        id: MsgId,
        count: usize,
    },
    /// After installing a view as leader: send state-bearing installs to
    /// these joiners (the process layer consults the application for the
    /// snapshot).
    SendJoinerInstalls {
        gid: GroupId,
        attempt: u64,
        view: GroupView,
        joiners: Vec<Pid>,
    },
    /// Remove the runtime for this group entirely.
    DropGroup { gid: GroupId },
}

/// Sends a protocol message, bumping its per-category counter
/// ([`IsisMsg::category`]). Every core send goes through here or
/// [`Env::multicast`], so the `isis.sent.*` counters sum to the messages
/// the core put on the network.
pub(crate) fn send_counted<P, S>(ctx: &mut Ctx<'_, IsisMsg<P, S>>, to: Pid, msg: IsisMsg<P, S>) {
    ctx.bump(msg.category());
    ctx.send(to, msg);
}

/// Borrowed context handed to every runtime method: the simulator effect
/// context, configuration, and the pending effect queue.
pub(crate) struct Env<'a, 'b, A: Application> {
    pub ctx: &'a mut Ctx<'b, MsgOf<A>>,
    pub cfg: &'a IsisConfig,
    pub effects: &'a mut Vec<Effect<A::Payload>>,
}

impl<'a, 'b, A: Application> Env<'a, 'b, A> {
    /// Sends a protocol message, bumping its per-category counter.
    pub fn send(&mut self, to: Pid, msg: MsgOf<A>) {
        send_counted(self.ctx, to, msg);
    }

    /// Sends one protocol message to every pid in `dsts` through the
    /// engine's shared-payload multicast: the message is built once and
    /// shared by `Rc` instead of deep-cloned per destination. Counts one
    /// message per destination, exactly like a loop of [`Env::send`].
    pub fn multicast(&mut self, dsts: Vec<Pid>, msg: MsgOf<A>) {
        if dsts.is_empty() {
            return;
        }
        self.ctx.bump_by(msg.category(), dsts.len() as u64);
        self.ctx.multicast(dsts, msg);
    }

    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }
}

/// Flattens a protocol [`MsgId`] into the tracer's plain-integer key.
pub(crate) fn trace_key(id: &MsgId) -> MsgKey {
    MsgKey {
        sender: id.sender.0,
        view: id.view,
        stream: id.stream,
        seq: id.seq,
    }
}

/// Flattens a [`VClock`] into the tracer's `(pid, count)` pairs.
pub(crate) fn trace_vt(vt: &VClock) -> Vec<(u32, u64)> {
    vt.iter().map(|(p, v)| (p.0, v)).collect()
}

/// Operational status of a group member.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Normal operation.
    Normal,
    /// A view change is in progress: casting is buffered, incoming data for
    /// the current view is ignored (the flush relay decides the cut).
    Wedged,
    /// Stalled in a minority partition; no primary view can form.
    Stalled,
}

/// A received-but-undelivered cast awaiting its ordering condition.
#[derive(Clone, Debug)]
pub(crate) struct PendingCast<P> {
    pub id: MsgId,
    pub vt: VClock,
    pub payload: P,
    pub want_ack: bool,
}

/// Leader-side state of an in-progress view change (see
/// [`crate::membership`]).
#[derive(Debug)]
pub(crate) struct ViewChangeLead<P> {
    pub attempt: u64,
    pub retry_round: u64,
    pub proposal: GroupView,
    /// Old-view members expected to ack (includes the leader itself).
    pub participants: Vec<Pid>,
    pub acks: BTreeMap<Pid, crate::msg::RelaySet<P>>,
    /// Highest current-view id reported by any participant, used to pick a
    /// fresh target view id after a botched install.
    pub max_member_view: ViewId,
    /// Highest delivered-ABCAST sequence reported by any participant;
    /// orphaned ABCASTs are re-sequenced above this floor.
    pub max_ack_floor: u64,
    pub started: SimTime,
}

/// Per-group member state.
pub(crate) struct GroupRuntime<A: Application> {
    pub gid: GroupId,
    pub me: Pid,
    pub view: GroupView,
    pub status: Status,

    // --- sender state (reset each view) ---
    seqs: [u64; 3],
    pub(crate) wedged_outbox: Vec<(CastKind, A::Payload, bool)>,

    // --- delivery state (reset each view) ---
    /// Delivered causal casts per sender (includes own).
    cvt: VClock,
    /// Delivered FIFO casts per sender.
    fdel: VClock,
    /// Highest contiguously delivered ABCAST global sequence.
    adel: u64,
    pending_causal: Vec<PendingCast<A::Payload>>,
    pending_fifo: BTreeMap<(Pid, u64), PendingCast<A::Payload>>,
    /// Received, undelivered ABCAST data by id.
    adata: BTreeMap<MsgId, PendingCast<A::Payload>>,
    /// Known but not yet delivered orders: gseq -> id.
    aorder: BTreeMap<u64, MsgId>,
    /// Sequencer-side: ids already assigned an order.
    aseq_assigned: BTreeMap<MsgId, u64>,
    /// Sequencer-side: next global sequence number to hand out.
    next_gseq: u64,

    // --- relay buffers (survive until stability or completed change) ---
    retained_causal: BTreeMap<MsgId, (VClock, A::Payload)>,
    retained_fifo: BTreeMap<MsgId, A::Payload>,
    retained_total: BTreeMap<u64, (MsgId, A::Payload)>,
    delivered_ids: BTreeSet<MsgId>,

    // --- stability ---
    stab_seen: BTreeMap<Pid, StabilityVector>,

    // --- liveness ---
    pub(crate) last_heard: BTreeMap<Pid, SimTime>,
    pub(crate) suspects: BTreeSet<Pid>,
    last_hb_sent: SimTime,

    // --- membership ---
    pub(crate) flush_acked: (ViewId, u64),
    pub(crate) vc: Option<ViewChangeLead<A::Payload>>,
    pub(crate) pending_joiners: Vec<Pid>,
    pub(crate) pending_leavers: Vec<Pid>,
    pub(crate) leaving: bool,

    // --- ack tracking for my want_ack casts ---
    ack_counts: BTreeMap<MsgId, usize>,

    // --- reordering across views ---
    pub(crate) future_inbox: Vec<(Pid, MsgOf<A>)>,

    /// True while [`GroupRuntime::apply_relay`] is delivering flush catch-up
    /// messages; marks those trace deliveries as relays (exempt from the
    /// per-view ordering monitors, which is correct: relays *are* the
    /// virtual-synchrony cut).
    in_relay: bool,

    /// True when a stability input (a delivery, a peer snapshot, the view)
    /// changed since the last completed [`GroupRuntime::gc_stability`] pass.
    /// While clear, a GC pass would recompute the same floors and prune
    /// nothing, so it is skipped outright.
    stab_dirty: bool,
}

impl<A: Application> GroupRuntime<A> {
    /// Creates the runtime for a founding member (singleton view 1).
    pub fn new_created(gid: GroupId, me: Pid, now: SimTime) -> GroupRuntime<A> {
        GroupRuntime::with_view(GroupView::initial(gid, me), me, now)
    }

    /// Creates the runtime for a joiner installing its first view.
    pub fn new_joined(view: GroupView, me: Pid, now: SimTime) -> GroupRuntime<A> {
        GroupRuntime::with_view(view, me, now)
    }

    fn with_view(view: GroupView, me: Pid, now: SimTime) -> GroupRuntime<A> {
        let mut rt = GroupRuntime {
            gid: view.gid,
            me,
            view,
            status: Status::Normal,
            seqs: [0; 3],
            wedged_outbox: Vec::new(),
            cvt: VClock::new(),
            fdel: VClock::new(),
            adel: 0,
            pending_causal: Vec::new(),
            pending_fifo: BTreeMap::new(),
            adata: BTreeMap::new(),
            aorder: BTreeMap::new(),
            aseq_assigned: BTreeMap::new(),
            next_gseq: 1,
            retained_causal: BTreeMap::new(),
            retained_fifo: BTreeMap::new(),
            retained_total: BTreeMap::new(),
            delivered_ids: BTreeSet::new(),
            stab_seen: BTreeMap::new(),
            last_heard: BTreeMap::new(),
            suspects: BTreeSet::new(),
            last_hb_sent: now,
            flush_acked: (0, 0),
            vc: None,
            pending_joiners: Vec::new(),
            pending_leavers: Vec::new(),
            leaving: false,
            ack_counts: BTreeMap::new(),
            future_inbox: Vec::new(),
            in_relay: false,
            stab_dirty: true,
        };
        rt.reset_liveness(now);
        rt
    }

    /// The current delivery cut, captured at the same instant as an
    /// exported state snapshot so a joiner install carries a consistent
    /// `(state, floor)` pair.
    pub(crate) fn delivery_floor(&self) -> DeliveryFloor {
        DeliveryFloor {
            cvt: self.cvt.clone(),
            fdel: self.fdel.clone(),
            adel: self.adel,
            delivered: self.delivered_ids.iter().copied().collect(),
        }
    }

    /// Starts a joiner's delivery state at the donor's snapshot cut.
    /// Without this, a joiner admitted mid-view (e.g. a restart the group
    /// never noticed) would re-deliver flush relays whose effects its
    /// imported state already contains.
    pub(crate) fn set_delivery_floor(&mut self, f: DeliveryFloor) {
        self.cvt = f.cvt;
        self.fdel = f.fdel;
        self.adel = f.adel;
        self.next_gseq = self.adel + 1;
        self.delivered_ids = f.delivered.into_iter().collect();
    }

    pub(crate) fn reset_liveness(&mut self, now: SimTime) {
        self.last_heard = self
            .view
            .members
            .iter()
            .filter(|&&m| m != self.me)
            .map(|&m| (m, now))
            .collect();
    }

    /// Records liveness evidence from `from`.
    pub(crate) fn heard_from(&mut self, from: Pid, now: SimTime) {
        if let Some(t) = self.last_heard.get_mut(&from) {
            *t = (*t).max(now);
        }
    }

    /// The sequencer of the current view (assigns ABCAST order).
    pub fn sequencer(&self) -> Pid {
        self.view.coordinator()
    }

    /// Whether this member currently acts as the ABCAST sequencer.
    pub fn i_am_sequencer(&self) -> bool {
        self.sequencer() == self.me
    }

    /// Everyone in the view but me.
    pub(crate) fn peers(&self) -> Vec<Pid> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me)
            .collect()
    }

    /// View members not currently suspected, oldest first.
    pub(crate) fn survivors(&self) -> Vec<Pid> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|m| !self.suspects.contains(m))
            .collect()
    }

    // ------------------------------------------------------------------
    // Casting
    // ------------------------------------------------------------------

    /// Initiates a broadcast. While wedged the cast is buffered and sent in
    /// the next view (returning `Ok(None)`); while stalled it is refused.
    pub fn cast(
        &mut self,
        kind: CastKind,
        payload: A::Payload,
        want_ack: bool,
        env: &mut Env<'_, '_, A>,
    ) -> Result<Option<MsgId>, IsisError> {
        match self.status {
            Status::Stalled => return Err(IsisError::Stalled(self.gid)),
            Status::Wedged => {
                self.wedged_outbox.push((kind, payload, want_ack));
                return Ok(None);
            }
            Status::Normal => {}
        }
        let stream = kind.stream() as usize;
        self.seqs[stream] += 1;
        let id = MsgId {
            sender: self.me,
            view: self.view.view_id,
            stream: kind.stream(),
            seq: self.seqs[stream],
        };
        if want_ack {
            self.ack_counts.insert(id, 0);
        }
        let tgid = self.gid.0;
        match kind {
            CastKind::Causal => {
                // Stamp with the post-send vector: own entry counts this
                // message itself (standard CBCAST self-delivery).
                self.cvt.set(self.me, id.seq);
                let vt = self.cvt.clone();
                env.ctx.trace_with(|| TraceKind::CastSend {
                    gid: tgid,
                    msg: trace_key(&id),
                    vt: trace_vt(&vt),
                });
                self.deliver_causal_local(id, vt.clone(), payload.clone(), env);
                let data = self.make_cast(CastKind::Causal, id, vt, want_ack, payload);
                env.multicast(self.peers(), IsisMsg::Cast(data));
            }
            CastKind::Fifo => {
                self.fdel.set(self.me, id.seq);
                env.ctx.trace_with(|| TraceKind::CastSend {
                    gid: tgid,
                    msg: trace_key(&id),
                    vt: Vec::new(),
                });
                self.deliver_fifo_local(id, payload.clone(), env);
                let data = self.make_cast(CastKind::Fifo, id, VClock::new(), want_ack, payload);
                env.multicast(self.peers(), IsisMsg::Cast(data));
            }
            CastKind::Total => {
                env.ctx.trace_with(|| TraceKind::CastSend {
                    gid: tgid,
                    msg: trace_key(&id),
                    vt: Vec::new(),
                });
                let data = self.make_cast(
                    CastKind::Total,
                    id,
                    VClock::new(),
                    want_ack,
                    payload.clone(),
                );
                env.multicast(self.peers(), IsisMsg::Cast(data));
                // Even the sender must wait for the global order.
                self.adata.insert(
                    id,
                    PendingCast {
                        id,
                        vt: VClock::new(),
                        payload,
                        want_ack,
                    },
                );
                if self.i_am_sequencer() {
                    self.assign_order(id, env);
                }
                self.try_deliver_total(env);
            }
        }
        Ok(Some(id))
    }

    fn make_cast(
        &self,
        kind: CastKind,
        id: MsgId,
        vt: VClock,
        want_ack: bool,
        payload: A::Payload,
    ) -> CastData<A::Payload> {
        CastData {
            gid: self.gid,
            view: self.view.view_id,
            kind,
            id,
            vt,
            stab: self.my_stab(),
            want_ack,
            payload,
        }
    }

    /// This member's own stability vector.
    pub(crate) fn my_stab(&self) -> StabilityVector {
        StabilityVector {
            view: self.view.view_id,
            cvt: self.cvt.clone(),
            fvt: self.fdel.clone(),
            adel: self.adel,
        }
    }

    // ------------------------------------------------------------------
    // Incoming data
    // ------------------------------------------------------------------

    /// Handles an incoming [`CastData`]. Returns `true` if consumed,
    /// `false` if it belongs to a future view (caller buffers it).
    pub fn handle_cast(
        &mut self,
        from: Pid,
        data: CastData<A::Payload>,
        env: &mut Env<'_, '_, A>,
    ) -> bool {
        self.heard_from(from, env.now());
        if data.view > self.view.view_id {
            return false;
        }
        if data.view < self.view.view_id {
            // Stale: the view change that superseded it already decided its
            // fate via the relay.
            env.ctx.bump("isis.recv.stale_cast");
            return true;
        }
        if self.status == Status::Wedged {
            // The flush cut is being computed; late arrivals are dropped —
            // if anyone delivered this message pre-ack it is in the relay.
            env.ctx.bump("isis.recv.wedged_drop");
            return true;
        }
        self.note_stab(from, &data.stab);
        if self.delivered_ids.contains(&data.id) {
            env.ctx.bump("isis.recv.dup");
            return true;
        }
        match data.kind {
            CastKind::Causal => {
                let id = data.id;
                self.pending_causal.push(PendingCast {
                    id,
                    vt: data.vt,
                    payload: data.payload,
                    want_ack: data.want_ack,
                });
                self.try_deliver_causal(env);
                if self.pending_causal.iter().any(|pc| pc.id == id) {
                    // Arrived ahead of a causal predecessor: held back.
                    env.ctx.bump("isis.causal_delayed");
                }
            }
            CastKind::Fifo => {
                self.pending_fifo.insert(
                    (data.id.sender, data.id.seq),
                    PendingCast {
                        id: data.id,
                        vt: VClock::new(),
                        payload: data.payload,
                        want_ack: data.want_ack,
                    },
                );
                self.try_deliver_fifo(env);
            }
            CastKind::Total => {
                let id = data.id;
                self.adata.insert(
                    id,
                    PendingCast {
                        id,
                        vt: VClock::new(),
                        payload: data.payload,
                        want_ack: data.want_ack,
                    },
                );
                if self.i_am_sequencer() {
                    self.assign_order(id, env);
                }
                self.try_deliver_total(env);
            }
        }
        self.gc_stability();
        true
    }

    /// Handles an ABCAST order announcement. Returns `false` for a future
    /// view (caller buffers).
    pub fn handle_order(
        &mut self,
        from: Pid,
        view: ViewId,
        gseq: u64,
        id: MsgId,
        env: &mut Env<'_, '_, A>,
    ) -> bool {
        self.heard_from(from, env.now());
        if view > self.view.view_id {
            return false;
        }
        if view < self.view.view_id || self.status == Status::Wedged {
            return true;
        }
        self.aorder.insert(gseq, id);
        self.try_deliver_total(env);
        true
    }

    /// Handles a delivery ack for one of our `want_ack` casts.
    pub fn handle_cast_ack(&mut self, from: Pid, id: MsgId, env: &mut Env<'_, '_, A>) {
        self.heard_from(from, env.now());
        if let Some(c) = self.ack_counts.get_mut(&id) {
            *c += 1;
            let count = *c;
            env.effects.push(Effect::CastAcked {
                gid: self.gid,
                id,
                count,
            });
        }
    }

    /// Handles a liveness/stability heartbeat.
    pub fn handle_heartbeat(&mut self, from: Pid, stab: StabilityVector, env: &mut Env<'_, '_, A>) {
        self.heard_from(from, env.now());
        self.note_stab(from, &stab);
        self.gc_stability();
    }

    fn note_stab(&mut self, from: Pid, stab: &StabilityVector) {
        let e = self.stab_seen.entry(from).or_default();
        if stab.view > e.view {
            *e = stab.clone();
            self.stab_dirty = true;
        } else if stab.view == e.view
            && (stab.adel > e.adel || stab.cvt != e.cvt || stab.fvt != e.fvt)
        {
            // Pointwise max, merged in place (max is commutative, so
            // merging the snapshot into the record equals rebuilding the
            // record from the snapshot).
            e.cvt.merge(&stab.cvt);
            e.fvt.merge(&stab.fvt);
            e.adel = e.adel.max(stab.adel);
            self.stab_dirty = true;
        }
    }

    // ------------------------------------------------------------------
    // Delivery machinery
    // ------------------------------------------------------------------

    fn deliver_causal_local(
        &mut self,
        id: MsgId,
        vt: VClock,
        payload: A::Payload,
        env: &mut Env<'_, '_, A>,
    ) {
        let (gid, view, relay) = (self.gid.0, self.view.view_id, self.in_relay);
        env.ctx.trace_with(|| TraceKind::CastDeliver {
            gid,
            view,
            msg: trace_key(&id),
            gseq: 0,
            relay,
            vt: trace_vt(&vt),
        });
        self.delivered_ids.insert(id);
        self.retained_causal.insert(id, (vt, payload.clone()));
        self.stab_dirty = true;
        env.effects.push(Effect::Deliver {
            gid: self.gid,
            from: id.sender,
            kind: CastKind::Causal,
            payload,
        });
    }

    fn deliver_fifo_local(&mut self, id: MsgId, payload: A::Payload, env: &mut Env<'_, '_, A>) {
        let (gid, view, relay) = (self.gid.0, self.view.view_id, self.in_relay);
        env.ctx.trace_with(|| TraceKind::CastDeliver {
            gid,
            view,
            msg: trace_key(&id),
            gseq: 0,
            relay,
            vt: Vec::new(),
        });
        self.delivered_ids.insert(id);
        self.retained_fifo.insert(id, payload.clone());
        self.stab_dirty = true;
        env.effects.push(Effect::Deliver {
            gid: self.gid,
            from: id.sender,
            kind: CastKind::Fifo,
            payload,
        });
    }

    fn deliver_total_local(
        &mut self,
        gseq: u64,
        id: MsgId,
        payload: A::Payload,
        env: &mut Env<'_, '_, A>,
    ) {
        let (gid, view, relay) = (self.gid.0, self.view.view_id, self.in_relay);
        env.ctx.trace_with(|| TraceKind::CastDeliver {
            gid,
            view,
            msg: trace_key(&id),
            gseq,
            relay,
            vt: Vec::new(),
        });
        self.delivered_ids.insert(id);
        self.retained_total.insert(gseq, (id, payload.clone()));
        self.stab_dirty = true;
        env.effects.push(Effect::Deliver {
            gid: self.gid,
            from: id.sender,
            kind: CastKind::Total,
            payload,
        });
    }

    fn ack_if_wanted(&mut self, id: MsgId, want_ack: bool, env: &mut Env<'_, '_, A>) {
        if want_ack && id.sender != self.me {
            env.send(
                id.sender,
                IsisMsg::CastAck {
                    gid: self.gid,
                    id,
                },
            );
        }
    }

    fn try_deliver_causal(&mut self, env: &mut Env<'_, '_, A>) {
        loop {
            let idx = self
                .pending_causal
                .iter()
                .position(|pc| self.cvt.deliverable(pc.id.sender, &pc.vt));
            let Some(idx) = idx else { break };
            let pc = self.pending_causal.swap_remove(idx);
            self.cvt.set(pc.id.sender, pc.id.seq);
            self.deliver_causal_local(pc.id, pc.vt.clone(), pc.payload.clone(), env);
            self.ack_if_wanted(pc.id, pc.want_ack, env);
        }
    }

    fn try_deliver_fifo(&mut self, env: &mut Env<'_, '_, A>) {
        loop {
            let next = self.pending_fifo.iter().find_map(|((s, q), _)| {
                if self.fdel.get(*s) + 1 == *q {
                    Some((*s, *q))
                } else {
                    None
                }
            });
            let Some(key) = next else { break };
            let pc = self.pending_fifo.remove(&key).expect("key just found");
            self.fdel.set(pc.id.sender, pc.id.seq);
            self.deliver_fifo_local(pc.id, pc.payload.clone(), env);
            self.ack_if_wanted(pc.id, pc.want_ack, env);
        }
    }

    fn try_deliver_total(&mut self, env: &mut Env<'_, '_, A>) {
        loop {
            let next = self.adel + 1;
            let Some(&id) = self.aorder.get(&next) else {
                break;
            };
            let Some(pc) = self.adata.remove(&id) else {
                break; // Data still in flight.
            };
            self.aorder.remove(&next);
            self.adel = next;
            self.deliver_total_local(next, id, pc.payload.clone(), env);
            self.ack_if_wanted(pc.id, pc.want_ack, env);
        }
    }

    /// Sequencer: assigns the next global sequence to `id` and announces
    /// the decision.
    fn assign_order(&mut self, id: MsgId, env: &mut Env<'_, '_, A>) {
        if self.aseq_assigned.contains_key(&id) || self.delivered_ids.contains(&id) {
            return;
        }
        let gseq = self.next_gseq;
        self.next_gseq += 1;
        self.aseq_assigned.insert(id, gseq);
        self.aorder.insert(gseq, id);
        let msg = IsisMsg::AbcastOrder {
            gid: self.gid,
            view: self.view.view_id,
            gseq,
            id,
        };
        env.multicast(self.peers(), msg);
    }

    // ------------------------------------------------------------------
    // Stability and garbage collection
    // ------------------------------------------------------------------

    /// Prunes buffers of messages everyone has delivered.
    ///
    /// Runs on the data path (after every cast and heartbeat), so it is
    /// gated by `stab_dirty` — if no delivery, peer snapshot, or view has
    /// changed since the last completed pass, the floors below would come
    /// out identical and nothing new could be pruned — and the floors are
    /// computed into one flat per-member table instead of keyed maps.
    fn gc_stability(&mut self) {
        if !self.stab_dirty {
            return;
        }
        let vid = self.view.view_id;
        let members = &self.view.members;
        // Per-sender stable floors: the minimum of my own delivery vectors
        // and every peer's snapshot (valid only if it refers to the current
        // view — otherwise stability cannot be concluded yet and the pass
        // is abandoned, leaving the dirty flag set for the next attempt).
        let mut stable_c: Vec<u64> = members.iter().map(|&s| self.cvt.get(s)).collect();
        let mut stable_f: Vec<u64> = members.iter().map(|&s| self.fdel.get(s)).collect();
        let mut stable_a = self.adel;
        for &p in members.iter().filter(|&&p| p != self.me) {
            let sv = match self.stab_seen.get(&p) {
                Some(sv) if sv.view == vid => sv,
                _ => return,
            };
            for (k, &s) in members.iter().enumerate() {
                stable_c[k] = stable_c[k].min(sv.cvt.get(s));
                stable_f[k] = stable_f[k].min(sv.fvt.get(s));
            }
            stable_a = stable_a.min(sv.adel);
        }
        let floor = |table: &[u64], sender: Pid| -> u64 {
            members
                .iter()
                .position(|&m| m == sender)
                .map_or(0, |k| table[k])
        };

        self.retained_causal
            .retain(|id, _| id.view != vid || id.seq > floor(&stable_c, id.sender));
        self.retained_fifo
            .retain(|id, _| id.view != vid || id.seq > floor(&stable_f, id.sender));
        self.retained_total.retain(|gseq, _| *gseq > stable_a);
        self.aseq_assigned.retain(|_, gseq| *gseq > stable_a);
        self.delivered_ids.retain(|id| {
            if id.view != vid {
                return true; // Cross-view ids pruned below.
            }
            match id.stream {
                0 => id.seq > floor(&stable_c, id.sender),
                1 => id.seq > floor(&stable_f, id.sender),
                _ => true, // Total: keyed by gseq via retained_total; prune below.
            }
        });
        // Total-stream delivered ids: stable once their gseq is stable; we
        // no longer know the gseq after pruning retained_total, so prune by
        // the conservative rule "not in any live buffer and view is old".
        // (Every peer snapshot was checked against `vid` above.)
        self.retained_causal.retain(|id, _| id.view >= vid);
        self.retained_fifo.retain(|id, _| id.view >= vid);
        self.delivered_ids
            .retain(|id| id.view + 1 >= vid || id.stream == 2);
        self.ack_counts.retain(|id, _| id.view + 1 >= vid);
        self.stab_dirty = false;
    }

    /// Collects everything unstable for a flush ack (see
    /// [`crate::membership`]).
    pub(crate) fn collect_unstable(&self) -> crate::msg::RelaySet<A::Payload> {
        let mut r = crate::msg::RelaySet::default();
        for (id, (vt, p)) in &self.retained_causal {
            r.causal.push((*id, vt.clone(), p.clone()));
        }
        for pc in &self.pending_causal {
            r.causal.push((pc.id, pc.vt.clone(), pc.payload.clone()));
        }
        for (id, p) in &self.retained_fifo {
            r.fifo.push((*id, p.clone()));
        }
        for pc in self.pending_fifo.values() {
            r.fifo.push((pc.id, pc.payload.clone()));
        }
        for (gseq, (id, p)) in &self.retained_total {
            r.total_ordered.push((*gseq, *id, p.clone()));
        }
        // Undelivered abcast data: ordered if we know the order.
        let order_of: BTreeMap<MsgId, u64> =
            self.aorder.iter().map(|(g, id)| (*id, *g)).collect();
        for (id, pc) in &self.adata {
            if let Some(g) = order_of.get(id) {
                r.total_ordered.push((*g, *id, pc.payload.clone()));
            } else {
                r.total_unordered.push((*id, pc.payload.clone()));
            }
        }
        r
    }

    /// Applies a relay set (during a view change), delivering every message
    /// this member has not yet delivered, in a deterministic order that
    /// extends causality.
    pub(crate) fn apply_relay(
        &mut self,
        relay: &crate::msg::RelaySet<A::Payload>,
        env: &mut Env<'_, '_, A>,
    ) {
        self.in_relay = true;
        self.stab_dirty = true;
        // Causal: sort by (vt sum, sender, seq) — a linear extension of the
        // causal order (vt sums strictly increase along causal chains).
        let mut causal: Vec<&(MsgId, VClock, A::Payload)> = relay.causal.iter().collect();
        causal.sort_by_key(|(id, vt, _)| (vt.sum(), id.sender, id.seq));
        for (id, vt, p) in causal {
            if self.delivered_ids.contains(id) {
                continue;
            }
            if id.view == self.view.view_id {
                if id.seq <= self.cvt.get(id.sender) {
                    continue;
                }
                self.cvt.set(id.sender, id.seq);
                self.deliver_causal_local(*id, vt.clone(), p.clone(), env);
            } else {
                // Cross-view relay (leader crashed mid-install): deliver to
                // the application without touching current-view counters.
                env.ctx.bump("isis.relay.crossview");
                let (gid, view) = (self.gid.0, self.view.view_id);
                env.ctx.trace_with(|| TraceKind::CastDeliver {
                    gid,
                    view,
                    msg: trace_key(id),
                    gseq: 0,
                    relay: true,
                    vt: trace_vt(vt),
                });
                self.delivered_ids.insert(*id);
                env.effects.push(Effect::Deliver {
                    gid: self.gid,
                    from: id.sender,
                    kind: CastKind::Causal,
                    payload: p.clone(),
                });
            }
        }
        let mut fifo: Vec<&(MsgId, A::Payload)> = relay.fifo.iter().collect();
        fifo.sort_by_key(|(id, _)| (id.sender, id.seq));
        for (id, p) in fifo {
            if self.delivered_ids.contains(id) {
                continue;
            }
            if id.view == self.view.view_id {
                if id.seq <= self.fdel.get(id.sender) {
                    continue;
                }
                self.fdel.set(id.sender, id.seq);
                self.deliver_fifo_local(*id, p.clone(), env);
            } else {
                env.ctx.bump("isis.relay.crossview");
                let (gid, view) = (self.gid.0, self.view.view_id);
                env.ctx.trace_with(|| TraceKind::CastDeliver {
                    gid,
                    view,
                    msg: trace_key(id),
                    gseq: 0,
                    relay: true,
                    vt: Vec::new(),
                });
                self.delivered_ids.insert(*id);
                env.effects.push(Effect::Deliver {
                    gid: self.gid,
                    from: id.sender,
                    kind: CastKind::Fifo,
                    payload: p.clone(),
                });
            }
        }
        let mut total: Vec<&(u64, MsgId, A::Payload)> = relay.total_ordered.iter().collect();
        total.sort_by_key(|(g, _, _)| *g);
        for (gseq, id, p) in total {
            if self.delivered_ids.contains(id) {
                continue;
            }
            if id.view == self.view.view_id {
                if *gseq <= self.adel {
                    continue;
                }
                self.adel = *gseq;
                self.adata.remove(id);
                self.aorder.remove(gseq);
                self.deliver_total_local(*gseq, *id, p.clone(), env);
            } else {
                env.ctx.bump("isis.relay.crossview");
                let (gid, view) = (self.gid.0, self.view.view_id);
                env.ctx.trace_with(|| TraceKind::CastDeliver {
                    gid,
                    view,
                    msg: trace_key(id),
                    gseq: *gseq,
                    relay: true,
                    vt: Vec::new(),
                });
                self.delivered_ids.insert(*id);
                env.effects.push(Effect::Deliver {
                    gid: self.gid,
                    from: id.sender,
                    kind: CastKind::Total,
                    payload: p.clone(),
                });
            }
        }
        debug_assert!(
            relay.total_unordered.is_empty(),
            "install relays carry only ordered totals"
        );
        self.in_relay = false;
    }

    /// Resets per-view protocol state after installing `view`.
    pub(crate) fn install(&mut self, view: GroupView, now: SimTime) {
        debug_assert!(view.view_id > self.view.view_id);
        self.view = view;
        self.stab_dirty = true;
        self.status = Status::Normal;
        self.seqs = [0; 3];
        self.cvt = VClock::new();
        self.fdel = VClock::new();
        self.adel = 0;
        self.pending_causal.clear();
        self.pending_fifo.clear();
        self.adata.clear();
        self.aorder.clear();
        self.aseq_assigned.clear();
        self.next_gseq = 1;
        // Retained buffers and delivered ids survive one view change, in
        // case the flush leader died mid-install; gc_stability prunes them
        // once everyone confirms the new view.
        self.stab_seen.clear();
        self.suspects.clear();
        self.vc = None;
        self.flush_acked = (0, 0);
        self.pending_joiners.clear();
        self.pending_leavers.clear();
        self.reset_liveness(now);
    }

    /// Estimated bytes of membership-related state held by this member —
    /// the quantity the paper's hierarchy bounds (experiment E7).
    pub fn membership_storage_bytes(&self) -> usize {
        self.view.storage_bytes()
            + self
                .stab_seen
                .values()
                .map(StabilityVector::wire_bytes)
                .sum::<usize>()
            + self.last_heard.len() * 12
            + self.suspects.len() * 4
            + self.cvt.storage_bytes()
            + self.fdel.storage_bytes()
    }

    /// Number of messages currently buffered for potential relay.
    pub fn relay_buffer_len(&self) -> usize {
        self.retained_causal.len()
            + self.retained_fifo.len()
            + self.retained_total.len()
            + self.pending_causal.len()
            + self.pending_fifo.len()
            + self.adata.len()
    }

    /// Exposes the heartbeat deadline logic to the process tick.
    pub(crate) fn maybe_heartbeat(&mut self, env: &mut Env<'_, '_, A>) {
        if !env.cfg.heartbeats_enabled || self.status == Status::Stalled {
            return;
        }
        let now = env.now();
        if now.since(self.last_hb_sent) < env.cfg.heartbeat {
            return;
        }
        self.last_hb_sent = now;
        let stab = self.my_stab();
        env.multicast(
            self.peers(),
            IsisMsg::Heartbeat {
                gid: self.gid,
                stab,
            },
        );
    }
}
