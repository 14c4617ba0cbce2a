//! Hierarchical services: the toolkit rebuilt the way section 4 of the
//! paper prescribes — "the large group is used for naming purposes to
//! identify the service, but requests are broadcast to individual
//! subgroups".
//!
//! One [`LeafServiceApp`] combines, per leaf subgroup:
//!
//! - **coordinator-cohort** request execution (cost `2·leaf_size` per
//!   request instead of the flat tool's `2·n` — experiments E1/E2);
//! - a **partitioned replicated store**: keys are sharded across leaves
//!   (each leaf is the resilient home of its shard);
//! - **distributed transactions**: two-phase commit whose participants are
//!   leaf subgroups, with replicated staging so a leaf tolerates member
//!   failures mid-transaction;
//! - **distributed mutual exclusion**: each lock lives in one leaf's
//!   replicated queue; waiters anywhere are notified directly.
//!
//! Key-to-leaf routing uses a *directory* (leaf gid → contacts) supplied
//! by the caller; the paper defers the large-scale name service to future
//! work (section 5), so the directory plays that role here.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use now_sim::trace::EventKind as TraceKind;
use now_sim::{Pid, SimDuration, SimTime};

use isis_core::{CastKind, GroupId, GroupView};

use isis_hier::{LargeApp, LargeGroupId, LargeUplink};

use crate::common::{apply_command, shard_of, KvState, ReqId};

/// A directory snapshot: each leaf's gid and contact list, in tree order.
/// Plays the role of the paper's (future-work) name service.
pub type Directory = Vec<(GroupId, Vec<Pid>)>;

/// Routes a key to its home leaf in a directory.
pub fn home_leaf<'d>(dir: &'d Directory, key: &str) -> &'d (GroupId, Vec<Pid>) {
    assert!(!dir.is_empty(), "empty directory");
    &dir[shard_of(key, dir.len())]
}

/// Applies one transactional write. Values of the form `+n` / `-n` are
/// numeric deltas against the current value (read-modify-write under the
/// transaction's lock); anything else is a blind put.
pub fn apply_write(state: &mut KvState, key: &str, value: &str) {
    let delta = value
        .strip_prefix('+')
        .map(|d| d.parse::<i64>())
        .or_else(|| value.strip_prefix('-').map(|d| d.parse::<i64>().map(|v| -v)));
    match delta {
        Some(Ok(d)) => {
            let cur: i64 = state.get(key).and_then(|s| s.parse().ok()).unwrap_or(0);
            state.put(key, &(cur + d).to_string());
        }
        _ => state.put(key, value),
    }
}

/// Wire payload of the hierarchical service.
#[derive(Clone, Debug)]
pub enum HSvcMsg {
    // ------------------------------ coordinator-cohort (per leaf) -----
    /// Client → every member of one leaf.
    Request { req: ReqId, body: String },
    /// Leaf rep → leaf (causal cast): executed result for the cohorts.
    Result { req: ReqId, body: String, reply: String },
    /// Leaf rep → client.
    Reply { req: ReqId, reply: String },

    // ---------------------------------------- transactions (2PC) -----
    /// Txn coordinator → participant leaf rep: stage these writes.
    Prepare {
        txn: u64,
        coord: Pid,
        writes: Vec<(String, String)>,
    },
    /// Participant leaf rep → txn coordinator.
    Vote { txn: u64, leaf: GroupId, ok: bool },
    /// Txn coordinator → participant leaf reps: final decision.
    Decide { txn: u64, commit: bool },
    /// Intra-leaf (total cast): replicate the staged writes + locks.
    Stage {
        txn: u64,
        coord: Pid,
        writes: Vec<(String, String)>,
    },
    /// Intra-leaf (total cast): apply or discard the stage.
    Finish { txn: u64, commit: bool },

    // ------------------------------------------- mutual exclusion -----
    /// Waiter → lock-home leaf rep.
    MAcquire { lock: String, waiter: Pid },
    /// Holder → lock-home leaf rep.
    MRelease { lock: String, holder: Pid },
    /// Intra-leaf (total cast): replicated queue operations.
    MQueue { lock: String, waiter: Pid },
    MDequeue { lock: String, holder: Pid },
    /// Lock-home leaf rep → waiter: you hold the lock now.
    MGrant { lock: String },

    // ---------------------------------------------- shard migration -----
    /// Intra-leaf (total cast): a member migrating in from a dissolved or
    /// split leaf contributes that leaf's shard; receivers adopt keys they
    /// do not already own (idempotent across multiple movers).
    MergeShard { entries: Vec<(String, String)> },
}

/// Timer kind for client-side retries.
const RETRY_TICK: u32 = 1;

/// A transaction staged at a participant leaf.
#[derive(Clone, Debug)]
struct StagedTxn {
    coord: Pid,
    writes: Vec<(String, String)>,
    ok: bool,
    staged_at: SimTime,
}

/// One participant's share of a transaction: its leaf, the writes staged
/// there, and the contact list used to reach its representative.
type LeafWrites = (GroupId, Vec<(String, String)>, Vec<Pid>);

/// Coordinator-side transaction progress.
#[derive(Clone, Debug)]
struct TxnProgress {
    participants: Vec<(GroupId, Vec<Pid>)>,
    votes: BTreeMap<GroupId, bool>,
    decided: Option<bool>,
    writes_by_leaf: Vec<LeafWrites>,
    started: SimTime,
}

/// The hierarchical service application (see module docs).
pub struct LeafServiceApp {
    /// The large group this service instance belongs to.
    pub lgid: LargeGroupId,

    // ---- per-leaf replicated state ----
    /// This leaf's shard of the store.
    pub state: KvState,
    pending: BTreeMap<ReqId, String>,
    completed: BTreeSet<ReqId>,
    /// Requests this member executed (acting-member accounting, E1).
    pub executed: Vec<ReqId>,
    /// Current leaf view.
    leaf_view: Option<GroupView>,
    /// Keys locked by staged transactions: key -> txn.
    lock_table: BTreeMap<String, u64>,
    staged: BTreeMap<u64, StagedTxn>,
    /// Replicated per-lock waiter queues (mutex tool).
    lock_queues: BTreeMap<String, VecDeque<Pid>>,

    // ---- client / coordinator side ----
    next_seq: u64,
    next_txn: u64,
    /// Replies to our requests.
    pub replies: BTreeMap<ReqId, String>,
    outstanding: BTreeMap<ReqId, (String, Vec<Pid>, SimTime)>,
    txns: BTreeMap<u64, TxnProgress>,
    /// Transaction outcomes: txn -> committed.
    pub txn_results: BTreeMap<u64, bool>,
    /// Locks we currently hold (granted by their home leaves).
    pub held_locks: Vec<String>,
    /// Shard carried across a leaf migration, broadcast after arrival.
    carry: Option<Vec<(String, String)>>,
    /// Retry pacing.
    pub retry: SimDuration,
    /// Participants abort staged transactions older than this (presumed
    /// abort when the coordinator vanishes).
    pub txn_abort_after: SimDuration,
}

impl LeafServiceApp {
    /// Creates a member (or client) of the service in `lgid`.
    pub fn new(lgid: LargeGroupId) -> LeafServiceApp {
        LeafServiceApp {
            lgid,
            state: KvState::new(),
            pending: BTreeMap::new(),
            completed: BTreeSet::new(),
            executed: Vec::new(),
            leaf_view: None,
            lock_table: BTreeMap::new(),
            staged: BTreeMap::new(),
            lock_queues: BTreeMap::new(),
            next_seq: 0,
            next_txn: 0,
            replies: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            txns: BTreeMap::new(),
            txn_results: BTreeMap::new(),
            held_locks: Vec::new(),
            carry: None,
            retry: SimDuration::from_millis(1_500),
            txn_abort_after: SimDuration::from_secs(20),
        }
    }

    fn i_am_rep(&self, me: Pid) -> bool {
        self.leaf_view
            .as_ref()
            .is_some_and(|v| v.coordinator() == me)
    }

    /// Number of logged-but-incomplete requests at this member.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    // ------------------------------------------------------------------
    // Client API (routing through a directory)
    // ------------------------------------------------------------------

    /// Sends `body` to the leaf owning its key (falling back to the first
    /// leaf for keyless commands). Returns the request id.
    pub fn send_request(
        &mut self,
        dir: &Directory,
        body: &str,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) -> ReqId {
        let key = crate::common::key_of(body).unwrap_or("");
        let (_, contacts) = home_leaf(dir, key);
        self.send_request_to(contacts, body, up)
    }

    /// Sends `body` to an explicit leaf contact list (the paper's pattern:
    /// the request is broadcast to one subgroup).
    pub fn send_request_to(
        &mut self,
        leaf_members: &[Pid],
        body: &str,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) -> ReqId {
        self.next_seq += 1;
        let req = ReqId {
            client: up.me(),
            seq: self.next_seq,
        };
        let (client, rseq) = (req.client.0, req.seq);
        up.trace_with(|| TraceKind::ReqSend { client, rseq });
        self.outstanding
            .insert(req, (body.to_owned(), leaf_members.to_vec(), up.now()));
        for &m in leaf_members {
            up.direct(
                m,
                HSvcMsg::Request {
                    req,
                    body: body.to_owned(),
                },
            );
        }
        if self.outstanding.len() == 1 {
            up.set_timer(self.retry, RETRY_TICK);
        }
        req
    }

    /// Begins a two-phase-commit transaction writing `writes`, with
    /// participants = the leaves owning the keys. Returns the txn id.
    pub fn begin_txn(
        &mut self,
        dir: &Directory,
        writes: &[(String, String)],
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) -> u64 {
        self.next_txn += 1;
        let txn = self.next_txn * 1_000_000 + up.me().0 as u64;
        type Share = (Vec<(String, String)>, Vec<Pid>);
        let mut by_leaf: BTreeMap<GroupId, Share> = BTreeMap::new();
        for (k, v) in writes {
            let (gid, contacts) = home_leaf(dir, k);
            let e = by_leaf
                .entry(*gid)
                .or_insert_with(|| (Vec::new(), contacts.clone()));
            e.0.push((k.clone(), v.clone()));
        }
        let progress = TxnProgress {
            participants: by_leaf
                .iter()
                .map(|(g, (_, c))| (*g, c.clone()))
                .collect(),
            votes: BTreeMap::new(),
            decided: None,
            writes_by_leaf: by_leaf
                .iter()
                .map(|(g, (w, c))| (*g, w.clone(), c.clone()))
                .collect(),
            started: up.now(),
        };
        for (_, w, contacts) in &progress.writes_by_leaf {
            if let Some(&rep) = contacts.first() {
                up.direct(
                    rep,
                    HSvcMsg::Prepare {
                        txn,
                        coord: up.me(),
                        writes: w.clone(),
                    },
                );
            }
        }
        self.txns.insert(txn, progress);
        up.set_timer(self.retry, RETRY_TICK);
        txn
    }

    /// Requests a lock (its home leaf queues us and grants in FIFO order).
    pub fn acquire_lock(
        &mut self,
        dir: &Directory,
        lock: &str,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        let (_, contacts) = home_leaf(dir, lock);
        if let Some(&rep) = contacts.first() {
            up.direct(
                rep,
                HSvcMsg::MAcquire {
                    lock: lock.to_owned(),
                    waiter: up.me(),
                },
            );
        }
    }

    /// Releases a held lock.
    pub fn release_lock(
        &mut self,
        dir: &Directory,
        lock: &str,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.held_locks.retain(|l| l != lock);
        let (_, contacts) = home_leaf(dir, lock);
        if let Some(&rep) = contacts.first() {
            up.direct(
                rep,
                HSvcMsg::MRelease {
                    lock: lock.to_owned(),
                    holder: up.me(),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Server internals
    // ------------------------------------------------------------------

    fn execute(&mut self, req: ReqId, up: &mut LargeUplink<'_, '_, '_, Self>) {
        let Some(body) = self.pending.get(&req).cloned() else {
            return;
        };
        let reply = apply_command(&mut self.state, &body);
        self.executed.push(req);
        self.pending.remove(&req);
        self.completed.insert(req);
        let (client, rseq) = (req.client.0, req.seq);
        up.trace_with(|| TraceKind::ReqExec { client, rseq });
        up.direct(
            req.client,
            HSvcMsg::Reply {
                req,
                reply: reply.clone(),
            },
        );
        up.leaf_cast(
            self.lgid,
            CastKind::Causal,
            HSvcMsg::Result { req, body, reply },
        );
        up.bump("tool.hsvc.executed");
    }

    fn coord_check_txn(&mut self, txn: u64, up: &mut LargeUplink<'_, '_, '_, Self>) {
        let Some(p) = self.txns.get_mut(&txn) else {
            return;
        };
        if p.decided.is_some() {
            return;
        }
        let all_voted = p
            .participants
            .iter()
            .all(|(g, _)| p.votes.contains_key(g));
        if !all_voted {
            return;
        }
        let commit = p.votes.values().all(|&ok| ok);
        p.decided = Some(commit);
        let targets: Vec<Pid> = p
            .participants
            .iter()
            .filter_map(|(_, c)| c.first().copied())
            .collect();
        for rep in targets {
            up.direct(rep, HSvcMsg::Decide { txn, commit });
        }
        self.txn_results.insert(txn, commit);
        self.txns.remove(&txn);
        up.bump(if commit {
            "tool.txn.committed"
        } else {
            "tool.txn.aborted"
        });
    }
}

impl LargeApp for LeafServiceApp {
    type Payload = HSvcMsg;
    type LeafState = (KvState, Vec<(ReqId, String)>, Vec<(String, Vec<Pid>)>);

    fn on_lbcast(
        &mut self,
        _lgid: LargeGroupId,
        _origin: Pid,
        _payload: &HSvcMsg,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        // The service tools use leaf-scoped traffic only; large-group
        // broadcasts are available to the application above.
    }

    fn on_direct(&mut self, _from: Pid, payload: &HSvcMsg, up: &mut LargeUplink<'_, '_, '_, Self>) {
        match payload {
            HSvcMsg::Request { req, body } => {
                if self.completed.contains(req) || self.leaf_view.is_none() {
                    return;
                }
                self.pending.insert(*req, body.clone());
                if self.i_am_rep(up.me()) {
                    self.execute(*req, up);
                }
            }
            HSvcMsg::Reply { req, reply } => {
                self.outstanding.remove(req);
                self.replies.insert(*req, reply.clone());
                let (client, rseq) = (req.client.0, req.seq);
                up.trace_with(|| TraceKind::ReqReply { client, rseq });
            }
            HSvcMsg::Result { .. } => {}
            HSvcMsg::Prepare { txn, coord, writes } => {
                if !self.i_am_rep(up.me()) {
                    return;
                }
                if let Some(st) = self.staged.get(txn) {
                    // Duplicate prepare: re-vote our recorded decision.
                    let leaf = self.leaf_view.as_ref().expect("rep has view").gid;
                    up.direct(
                        *coord,
                        HSvcMsg::Vote {
                            txn: *txn,
                            leaf,
                            ok: st.ok,
                        },
                    );
                    return;
                }
                up.leaf_cast(
                    self.lgid,
                    CastKind::Total,
                    HSvcMsg::Stage {
                        txn: *txn,
                        coord: *coord,
                        writes: writes.clone(),
                    },
                );
            }
            HSvcMsg::Vote { txn, leaf, ok } => {
                if let Some(p) = self.txns.get_mut(txn) {
                    p.votes.insert(*leaf, *ok);
                }
                self.coord_check_txn(*txn, up);
            }
            HSvcMsg::Decide { txn, commit } => {
                if self.i_am_rep(up.me()) && self.staged.contains_key(txn) {
                    up.leaf_cast(
                        self.lgid,
                        CastKind::Total,
                        HSvcMsg::Finish {
                            txn: *txn,
                            commit: *commit,
                        },
                    );
                }
            }
            HSvcMsg::MAcquire { lock, waiter } => {
                if self.i_am_rep(up.me()) {
                    up.leaf_cast(
                        self.lgid,
                        CastKind::Total,
                        HSvcMsg::MQueue {
                            lock: lock.clone(),
                            waiter: *waiter,
                        },
                    );
                }
            }
            HSvcMsg::MRelease { lock, holder } => {
                if self.i_am_rep(up.me()) {
                    up.leaf_cast(
                        self.lgid,
                        CastKind::Total,
                        HSvcMsg::MDequeue {
                            lock: lock.clone(),
                            holder: *holder,
                        },
                    );
                }
            }
            HSvcMsg::MGrant { lock } => {
                if !self.held_locks.contains(lock) {
                    self.held_locks.push(lock.clone());
                }
            }
            // Leaf-cast-only messages arriving point-to-point are protocol
            // errors.
            HSvcMsg::Stage { .. } | HSvcMsg::Finish { .. } | HSvcMsg::MQueue { .. }
            | HSvcMsg::MDequeue { .. } | HSvcMsg::MergeShard { .. } => {
                up.bump("tool.hsvc.misrouted")
            }
        }
    }

    fn on_leaf_cast(
        &mut self,
        leaf: GroupId,
        from: Pid,
        _kind: CastKind,
        payload: &HSvcMsg,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        match payload {
            HSvcMsg::Result { req, body, .. } => {
                if from != up.me() && !self.completed.contains(req) {
                    apply_command(&mut self.state, body);
                }
                self.pending.remove(req);
                self.completed.insert(*req);
            }
            HSvcMsg::Stage { txn, coord, writes } => {
                // Delivered in the same total order at every leaf member:
                // the lock check is deterministic.
                let conflict = writes.iter().any(|(k, _)| {
                    self.lock_table.get(k).is_some_and(|t| t != txn)
                });
                if !conflict {
                    for (k, _) in writes {
                        self.lock_table.insert(k.clone(), *txn);
                    }
                }
                self.staged.insert(
                    *txn,
                    StagedTxn {
                        coord: *coord,
                        writes: writes.clone(),
                        ok: !conflict,
                        staged_at: up.now(),
                    },
                );
                if self.i_am_rep(up.me()) {
                    up.direct(
                        *coord,
                        HSvcMsg::Vote {
                            txn: *txn,
                            leaf,
                            ok: !conflict,
                        },
                    );
                }
            }
            HSvcMsg::Finish { txn, commit } => {
                if let Some(st) = self.staged.remove(txn) {
                    if *commit && st.ok {
                        for (k, v) in &st.writes {
                            apply_write(&mut self.state, k, v);
                        }
                    }
                    self.lock_table.retain(|_, t| t != txn);
                }
            }
            HSvcMsg::MQueue { lock, waiter } => {
                let q = self.lock_queues.entry(lock.clone()).or_default();
                let grant = q.is_empty();
                if !q.contains(waiter) {
                    q.push_back(*waiter);
                }
                if grant && self.i_am_rep(up.me()) {
                    up.direct(*waiter, HSvcMsg::MGrant { lock: lock.clone() });
                }
            }
            HSvcMsg::MDequeue { lock, holder } => {
                let mut next = None;
                if let Some(q) = self.lock_queues.get_mut(lock) {
                    if q.front() == Some(holder) {
                        q.pop_front();
                        next = q.front().copied();
                    }
                    if q.is_empty() {
                        self.lock_queues.remove(lock);
                    }
                }
                if let Some(w) = next {
                    if self.i_am_rep(up.me()) {
                        up.direct(w, HSvcMsg::MGrant { lock: lock.clone() });
                    }
                }
            }
            HSvcMsg::MergeShard { entries } => {
                for (k, v) in entries {
                    if self.state.get(k).is_none() {
                        self.state.put(k, v);
                    }
                }
            }
            // Request/reply, 2PC coordination and lock traffic travel
            // point-to-point (see `on_direct`); enumerate them so a new
            // HSvcMsg variant forces a routing decision here.
            HSvcMsg::Request { .. }
            | HSvcMsg::Reply { .. }
            | HSvcMsg::Prepare { .. }
            | HSvcMsg::Vote { .. }
            | HSvcMsg::Decide { .. }
            | HSvcMsg::MAcquire { .. }
            | HSvcMsg::MRelease { .. }
            | HSvcMsg::MGrant { .. } => up.bump("tool.hsvc.misrouted_cast"),
        }
    }

    fn on_migrating(
        &mut self,
        _lgid: LargeGroupId,
        _from: Option<GroupId>,
        _to: GroupId,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        // Snapshot our (old) leaf's shard before the join replaces it.
        self.carry = Some(
            self.state
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        );
    }

    fn on_joined_large(
        &mut self,
        lgid: LargeGroupId,
        _leaf: GroupId,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        if let Some(entries) = self.carry.take() {
            if !entries.is_empty() {
                up.leaf_cast(lgid, CastKind::Total, HSvcMsg::MergeShard { entries });
            }
        }
    }

    fn on_leaf_view(
        &mut self,
        _lgid: LargeGroupId,
        view: &GroupView,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.leaf_view = Some(view.clone());
        let me = up.me();
        if view.coordinator() == me {
            // Takeover duties: finish logged requests, re-vote staged
            // transactions, re-grant current lock holders (grants are
            // idempotent at the waiters).
            let todo: Vec<ReqId> = self.pending.keys().copied().collect();
            for req in todo {
                up.bump("tool.hsvc.takeover_exec");
                self.execute(req, up);
            }
            let votes: Vec<(u64, Pid, bool)> = self
                .staged
                .iter()
                .map(|(t, st)| (*t, st.coord, st.ok))
                .collect();
            for (txn, coord, ok) in votes {
                up.direct(
                    coord,
                    HSvcMsg::Vote {
                        txn,
                        leaf: view.gid,
                        ok,
                    },
                );
            }
            // Prune dead waiters from lock queues and re-grant heads.
            let mut grants: Vec<(String, Pid)> = Vec::new();
            for (lock, q) in self.lock_queues.iter_mut() {
                let head_before = q.front().copied();
                q.retain(|p| view.contains(*p) || *p == me || head_before == Some(*p));
                if let Some(&h) = q.front() {
                    grants.push((lock.clone(), h));
                }
            }
            for (lock, h) in grants {
                up.direct(h, HSvcMsg::MGrant { lock });
            }
        }
    }

    fn on_timer(&mut self, kind: u32, up: &mut LargeUplink<'_, '_, '_, Self>) {
        if kind != RETRY_TICK {
            return;
        }
        let now = up.now();
        let retry = self.retry;
        // Client request retries.
        let due: Vec<(ReqId, String, Vec<Pid>)> = self
            .outstanding
            .iter_mut()
            .filter(|(_, (_, _, last))| now.since(*last) >= retry)
            .map(|(req, (body, members, last))| {
                *last = now;
                (*req, body.clone(), members.clone())
            })
            .collect();
        for (req, body, members) in due {
            up.bump("tool.hsvc.client_retry");
            for m in members {
                up.direct(m, HSvcMsg::Request { req, body: body.clone() });
            }
        }
        // Coordinator: re-prepare participants that have not voted.
        let reprep: Vec<(u64, Pid, Vec<LeafWrites>)> = self
            .txns
            .iter()
            .filter(|(_, p)| p.decided.is_none() && now.since(p.started) >= retry)
            .map(|(t, p)| {
                (
                    *t,
                    up.me(),
                    p.writes_by_leaf
                        .iter()
                        .filter(|(g, _, _)| !p.votes.contains_key(g))
                        .cloned()
                        .collect(),
                )
            })
            .collect();
        for (txn, coord, parts) in reprep {
            for (_, writes, contacts) in parts {
                if let Some(&rep) = contacts.first() {
                    up.direct(rep, HSvcMsg::Prepare { txn, coord, writes });
                }
            }
        }
        // Participant: presumed-abort for abandoned stages.
        let abort_after = self.txn_abort_after;
        let stale: Vec<u64> = self
            .staged
            .iter()
            .filter(|(_, st)| now.since(st.staged_at) >= abort_after)
            .map(|(t, _)| *t)
            .collect();
        for txn in stale {
            if self.i_am_rep(up.me()) {
                up.bump("tool.txn.presumed_abort");
                up.leaf_cast(
                    self.lgid,
                    CastKind::Total,
                    HSvcMsg::Finish { txn, commit: false },
                );
            }
        }
        if !self.outstanding.is_empty() || !self.txns.is_empty() || !self.staged.is_empty() {
            up.set_timer(self.retry, RETRY_TICK);
        }
    }

    fn export_leaf_state(&self, _lgid: LargeGroupId, _leaf: GroupId) -> Self::LeafState {
        (
            self.state.clone(),
            self.pending.iter().map(|(r, b)| (*r, b.clone())).collect(),
            self.lock_queues
                .iter()
                .map(|(l, q)| (l.clone(), q.iter().copied().collect()))
                .collect(),
        )
    }

    fn import_leaf_state(
        &mut self,
        _lgid: LargeGroupId,
        _leaf: GroupId,
        state: Self::LeafState,
    ) {
        self.state = state.0;
        self.pending = state.1.into_iter().collect();
        self.lock_queues = state
            .2
            .into_iter()
            .map(|(l, q)| (l, q.into_iter().collect()))
            .collect();
    }

    fn payload_bytes(p: &HSvcMsg) -> usize {
        16 + match p {
            HSvcMsg::Request { body, .. } => body.len(),
            HSvcMsg::Result { body, reply, .. } => body.len() + reply.len(),
            HSvcMsg::Reply { reply, .. } => reply.len(),
            HSvcMsg::Prepare { writes, .. } | HSvcMsg::Stage { writes, .. } => {
                writes.iter().map(|(k, v)| k.len() + v.len() + 8).sum()
            }
            HSvcMsg::Vote { .. } | HSvcMsg::Decide { .. } | HSvcMsg::Finish { .. } => 16,
            HSvcMsg::MAcquire { lock, .. }
            | HSvcMsg::MRelease { lock, .. }
            | HSvcMsg::MQueue { lock, .. }
            | HSvcMsg::MDequeue { lock, .. }
            | HSvcMsg::MGrant { lock } => lock.len() + 8,
            HSvcMsg::MergeShard { entries } => {
                entries.iter().map(|(k, v)| k.len() + v.len() + 8).sum()
            }
        }
    }
}
