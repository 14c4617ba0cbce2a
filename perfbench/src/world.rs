//! A simulated deployment driven only through the stack's public entry
//! points: `create_large`, `join_leader_group`, `join_large` and `lbcast`,
//! with completion checked between simulated-time slices.

use std::sync::mpsc::{channel, Receiver, Sender};

use isis_core::{IsisConfig, IsisProcess};
use isis_hier::{HierApp, LargeGroupConfig, LargeGroupId, LbcastId};
use now_sim::{Pid, Sim, SimConfig, SimDuration};

use crate::episode;
use crate::ledger::Ledgered;
use crate::probe::{Desk, Note, Tagged};

/// One simulated workstation process: the full stack under the ledger.
pub type Node<Q> = Ledgered<IsisProcess<HierApp<Desk<Q>>>>;

/// The large group every workload uses.
pub const LGID: LargeGroupId = LargeGroupId(1);

/// A simulation hosting one large group.
pub struct World<Q: Tagged> {
    /// The simulator.
    pub sim: Sim<Node<Q>>,
    /// Leader-group pids.
    pub leaders: Vec<Pid>,
    /// Member pids, in spawn order.
    pub members: Vec<Pid>,
    /// Notes from every desk.
    pub rx: Receiver<Note>,
    tx: Sender<Note>,
    cfg: LargeGroupConfig,
    icfg: IsisConfig,
    /// Largest pending-event count seen between slices of the measured
    /// phase.
    pub queue_peak: usize,
    /// Largest armed-timer count seen between slices of the measured phase.
    pub timers_peak: usize,
}

impl<Q: Tagged> World<Q> {
    /// Builds the simulator and forms the leader group (`cfg.resiliency`
    /// processes).
    pub fn new(scfg: SimConfig, cfg: LargeGroupConfig, icfg: IsisConfig) -> World<Q> {
        let (tx, rx) = channel();
        let mut w = World {
            sim: Sim::new(scfg),
            leaders: Vec::new(),
            members: Vec::new(),
            rx,
            tx,
            cfg: cfg.clone(),
            icfg: icfg.clone(),
            queue_peak: 0,
            timers_peak: 0,
        };
        let nleaders = cfg.resiliency.max(1);
        w.leaders = (0..nleaders).map(|_| w.spawn()).collect();
        let first = w.leaders[0];
        w.invoke(first, move |app, up| app.create_large(LGID, cfg, up));
        for l in w.leaders.clone().into_iter().skip(1) {
            w.invoke(l, move |app, up| app.join_leader_group(LGID, first, up));
        }
        let leaders = w.leaders.clone();
        let formed = w.run_until_done(
            SimDuration::from_millis(1),
            SimDuration::from_secs(60),
            |w| {
                leaders.iter().all(|&l| {
                    w.sim
                        .process(l)
                        .inner()
                        .view_of(LGID.leader_gid())
                        .is_some_and(|v| v.size() == nleaders)
                })
            },
        );
        assert!(formed, "leader group never formed");
        w
    }

    fn spawn(&mut self) -> Pid {
        let nd = self.sim.add_nodes(1)[0];
        let p = Ledgered::new(IsisProcess::new(
            HierApp::with_timers(Desk::new(self.tx.clone()), self.cfg.clone()),
            self.icfg.clone(),
        ));
        self.sim.spawn(nd, p)
    }

    /// Spawns `n` members (not yet joined).
    pub fn spawn_members(&mut self, n: usize) {
        for _ in 0..n {
            let p = self.spawn();
            self.members.push(p);
        }
    }

    /// Runs `f` on `pid`'s hierarchy layer under a live context.
    pub fn invoke<R>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut HierApp<Desk<Q>>, &mut isis_core::Uplink<'_, '_, HierApp<Desk<Q>>>) -> R,
    ) -> Option<R> {
        self.sim
            .invoke(pid, move |p, ctx| p.inner_mut().with_app(ctx, f))
    }

    /// Spawns `n` members, asks for all their admissions at once, waits
    /// until every one is admitted and the leader view accounts for them,
    /// then runs `settle` more. False if they did not form within ten
    /// simulated minutes.
    pub fn form_members(&mut self, n: usize, settle: SimDuration) -> bool {
        self.spawn_members(n);
        for m in self.members.clone() {
            self.join(m);
        }
        let want = self.members.len();
        let formed = self.run_until_done(
            SimDuration::from_millis(10),
            SimDuration::from_secs(600),
            |w| w.accounted() == want && w.members.iter().all(|&m| w.is_member(m)),
        );
        self.slice(settle);
        self.rx.try_iter().for_each(drop);
        formed
    }

    /// Asks the first leader to admit `m`.
    pub fn join(&mut self, m: Pid) {
        let contact = self.leaders[0];
        self.invoke(m, move |app, up| app.join_large(LGID, contact, up));
    }

    /// Broadcasts `payload` from `origin` to the whole large group.
    pub fn lbcast(&mut self, origin: Pid, payload: Q) -> Option<LbcastId> {
        self.invoke(origin, move |app, up| app.lbcast(LGID, payload, up))
            .flatten()
    }

    /// Whether `m` is an admitted member.
    pub fn is_member(&self, m: Pid) -> bool {
        self.sim.is_alive(m) && self.sim.process(m).inner().app().is_large_member(LGID)
    }

    /// Members the first leader's hierarchy view accounts for.
    pub fn accounted(&self) -> usize {
        self.sim
            .process(self.leaders[0])
            .inner()
            .app()
            .leader_view(LGID)
            .map_or(0, |v| v.total_members())
    }

    /// Starts the measured phase: forgets the set-up's queue and timer
    /// peaks and resets the ledger, turning it on when `traced`.
    pub fn begin_measure(&mut self, traced: bool) {
        self.queue_peak = 0;
        self.timers_peak = 0;
        episode::begin(traced);
    }

    /// Advances simulated time by `d` and records queue and timer peaks.
    pub fn slice(&mut self, d: SimDuration) {
        self.sim.run_for(d);
        self.queue_peak = self.queue_peak.max(self.sim.pending_events());
        self.timers_peak = self.timers_peak.max(self.sim.armed_timers());
    }

    /// Runs slices of `step` until `done` holds (true) or `limit` of
    /// simulated time passed (false).
    pub fn run_until_done(
        &mut self,
        step: SimDuration,
        limit: SimDuration,
        mut done: impl FnMut(&World<Q>) -> bool,
    ) -> bool {
        let deadline = self.sim.now() + limit;
        loop {
            if done(self) {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            self.slice(step);
        }
    }

    /// The broadcast log of `m`.
    pub fn log(&self, m: Pid) -> &[u64] {
        &self.sim.process(m).inner().app().biz().log
    }
}
