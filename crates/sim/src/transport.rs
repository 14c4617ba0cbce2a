//! The pluggable transport surface of the engine.
//!
//! Every externally visible effect of a process callback — sends,
//! multicasts, timers, halts — is buffered as an [`Action`] and applied by
//! a [`Transport`] after the callback returns. The deterministic simulator
//! ([`crate::engine::Sim`]) is the default implementation; a real backend
//! (the `now-net` daemon) implements the same trait over sockets and real
//! timers. Protocol crates are transport-agnostic: they only ever see a
//! [`Ctx`], which buffers actions without knowing who will interpret them.
//!
//! The split is three pieces:
//! - [`Action`] — the effect vocabulary (what a callback may ask for),
//! - [`Endpoint`] — the backend-shared process-hosting runtime: the clock
//!   snapshot, the seeded RNG, stats, the timer-id allocator,
//!   the reusable action buffer, and the optional tracer. Both backends
//!   drive callbacks through [`Endpoint::run`], so trace/stat emission is
//!   identical in simulation and on a real network.
//! - [`Transport`] — the backend contract: interpret one action. The
//!   engine routes into its event queue; the daemon encodes frames onto
//!   sockets and arms wall-clock timers.
//!
//! Determinism note: nothing here reads a wall clock or spawns a thread;
//! an `Endpoint` is exactly as deterministic as the `now` values its owner
//! feeds it. The simulator feeds simulated time and stays byte-identical;
//! the real backend feeds elapsed real time and deliberately gives that
//! guarantee up (see DESIGN.md, "Transport architecture").

use now_trace::{EventKind as TraceKind, Tracer};

use crate::det_rand::DetRng;
use crate::ids::{Pid, TimerId};
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};

/// One buffered effect emitted by a process callback through [`Ctx`].
///
/// Actions are interpreted by the owning [`Transport`] after the callback
/// returns, so a callback always observes a consistent snapshot of the
/// world regardless of backend.
pub enum Action<M> {
    /// Send `msg` to `to`.
    Send {
        /// Destination process.
        to: Pid,
        /// The message.
        msg: M,
    },
    /// One payload, many destinations. The sim shares the message via a
    /// single `Rc` instead of deep-cloning per destination; a real backend
    /// encodes the payload once per remote peer.
    Multicast {
        /// Destinations, in send order.
        dsts: Vec<Pid>,
        /// The shared message.
        msg: M,
    },
    /// Arm timer `id` (allocated by the endpoint) to fire at `at`.
    SetTimer {
        /// The pre-allocated timer handle.
        id: TimerId,
        /// Caller-chosen discriminator passed back to `on_timer`.
        kind: u32,
        /// Absolute deadline on the owning transport's clock.
        at: SimTime,
    },
    /// Disarm a timer; unknown or fired ids are a no-op.
    CancelTimer(TimerId),
    /// The process stops silently.
    Halt,
}

/// The engine-side contract a backend must provide to host processes:
/// a clock and an interpreter for buffered [`Action`]s.
///
/// [`crate::engine::Sim`] implements this over its deterministic event
/// queue; `now-net`'s daemon implements it over unix/TCP sockets and
/// wall-clock timers. Protocol crates never call this directly — they go
/// through [`Ctx`] — so they compile unchanged against either backend.
pub trait Transport<M> {
    /// The current instant on this transport's clock (simulated time in
    /// the engine, elapsed real microseconds in the daemon).
    fn clock(&self) -> SimTime;

    /// Interprets one action emitted by the process hosted at `from`.
    /// `cause` is the trace seq of the delivery/timer that triggered the
    /// emitting callback (None for harness-driven invocations).
    fn apply(&mut self, from: Pid, action: Action<M>, cause: Option<u64>);
}

/// Drains `actions` through the transport, preserving emission order.
/// Both backends funnel every callback's effects through here, so the
/// interpretation order is the buffering order on any transport.
pub fn dispatch<M>(
    t: &mut impl Transport<M>,
    from: Pid,
    actions: &mut Vec<Action<M>>,
    cause: Option<u64>,
) {
    for a in actions.drain(..) {
        t.apply(from, a, cause);
    }
}

/// The backend-shared process-hosting runtime.
///
/// Owns everything a [`Ctx`] borrows: the clock snapshot, the seeded RNG,
/// statistics, the timer-id allocator, the reusable
/// action buffer, and the optional tracer. A backend embeds one `Endpoint`
/// and drives every process callback through [`Endpoint::run`], which is
/// what makes stat counters and trace events mean the same thing in a
/// simulation and on a real network.
pub struct Endpoint<M> {
    pub(crate) now: SimTime,
    pub(crate) rng: DetRng,
    pub(crate) stats: Stats,
    pub(crate) next_timer: u64,
    pub(crate) scratch: Vec<Action<M>>,
    pub(crate) tracer: Option<Tracer>,
}

impl<M> Endpoint<M> {
    /// A fresh endpoint at time zero with a seeded RNG. The tracer is
    /// taken from the environment (`NOW_MONITORS` / `NOW_TRACE`), exactly
    /// as the simulator always did.
    pub fn new(seed: u64) -> Endpoint<M> {
        Endpoint {
            now: SimTime::ZERO,
            rng: DetRng::seed_from_u64(seed),
            stats: Stats::default(),
            next_timer: 0,
            scratch: Vec::new(),
            tracer: Tracer::from_env(),
        }
    }

    /// The clock snapshot handed to the next callback.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock snapshot. The owner (sim or daemon) is the
    /// single writer; `Endpoint` never moves time on its own.
    pub fn set_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// The deterministic RNG stream.
    pub fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Immutable statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable statistics (reset windows, per-proc tracking).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// Attaches a tracer, replacing and returning any existing one.
    pub fn set_tracer(&mut self, t: Tracer) -> Option<Tracer> {
        self.tracer.replace(t)
    }

    /// The attached tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Mutable access to the attached tracer.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }

    /// Detaches and returns the tracer.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Whether tracing is on (used to skip event construction when off).
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records a backend-level trace event stamped with the current clock;
    /// no-op returning 0 when tracing is off.
    pub fn trace(&mut self, pid: Pid, cause: Option<u64>, kind: TraceKind) -> u64 {
        match self.tracer.as_mut() {
            Some(tr) => tr.record(self.now.as_micros(), pid.0, cause, kind),
            None => 0,
        }
    }

    /// Runs `f` under a [`Ctx`] for the process `me`, buffering its effects
    /// into the endpoint-owned scratch buffer. Returns `f`'s result and the
    /// filled buffer; interpret it with [`dispatch`] and hand it back via
    /// [`Endpoint::give_back`] so steady-state callbacks never allocate.
    ///
    /// `incarnation` is the hosted process's current life number (0 for the
    /// first life; the sim bumps it on every restart, real backends that
    /// never restart in place pass 0). It is exposed to protocol layers via
    /// [`Ctx::incarnation`] so a recovering process can tell a rejoin from
    /// a first join.
    pub fn run<R>(
        &mut self,
        me: Pid,
        incarnation: u32,
        cause: Option<u64>,
        f: impl FnOnce(&mut Ctx<'_, M>) -> R,
    ) -> (R, Vec<Action<M>>) {
        let mut actions = std::mem::take(&mut self.scratch);
        let r = {
            let Endpoint { now, rng, stats, next_timer, tracer, .. } = self;
            let mut ctx = Ctx {
                now: *now,
                me,
                incarnation,
                rng,
                stats,
                next_timer,
                timer_base: 0,
                actions: &mut actions,
                tracer: tracer.as_mut(),
                cause,
            };
            f(&mut ctx)
        };
        (r, actions)
    }

    /// Returns the scratch buffer after dispatch, cleared for reuse.
    pub fn give_back(&mut self, mut buf: Vec<Action<M>>) {
        buf.clear();
        self.scratch = buf;
    }
}

/// Effect context passed to every process callback.
///
/// Effects are buffered and applied by the owning transport after the
/// callback returns, so a callback observes a consistent snapshot of the
/// world. The action buffer is owned by the [`Endpoint`] and reused across
/// callbacks, so buffering an effect does not allocate in steady state.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) me: Pid,
    pub(crate) incarnation: u32,
    pub(crate) rng: &'a mut DetRng,
    pub(crate) stats: &'a mut Stats,
    pub(crate) next_timer: &'a mut u64,
    /// High bits OR-ed into every allocated [`TimerId`]. The daemon path
    /// passes 0 (one global counter); the engine passes a pid-derived
    /// prefix with a *per-process* counter, so a timer id names its owner
    /// (`CancelTimer` finds the owning slot from it) and no process's timer
    /// allocations perturb another's.
    pub(crate) timer_base: u64,
    pub(crate) actions: &'a mut Vec<Action<M>>,
    pub(crate) tracer: Option<&'a mut Tracer>,
    /// Trace seq of the event (delivery, timer) that triggered this
    /// callback; threaded as the `cause` of everything it records.
    pub(crate) cause: Option<u64>,
}

impl<'a, M> Ctx<'a, M> {
    /// The current time on the hosting transport's clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The pid of the process being called.
    pub fn me(&self) -> Pid {
        self.me
    }

    /// This process's incarnation number: 0 in its first life, bumped on
    /// every restart. A recovering process (incarnation > 0) uses this to
    /// tell a rejoin from a first join.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Sends `msg` to `to`. Delivery is asynchronous and may fail if the
    /// network drops the message or `to` crashes first.
    pub fn send(&mut self, to: Pid, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends `msg` to every pid in `dsts` (a convenience multicast; each
    /// destination counts as one message, exactly as the paper counts them).
    /// The payload is shared across destinations rather than cloned per
    /// destination; a receiver only pays a clone when it is not the last
    /// holder of the shared envelope.
    pub fn multicast(&mut self, dsts: impl IntoIterator<Item = Pid>, msg: M) {
        let dsts: Vec<Pid> = dsts.into_iter().collect();
        if dsts.is_empty() {
            return;
        }
        self.actions.push(Action::Multicast { dsts, msg });
    }

    /// Arms a timer that fires after `delay` with the caller-chosen `kind`
    /// discriminator. Returns a handle usable with [`Ctx::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, kind: u32) -> TimerId {
        let id = TimerId(self.timer_base | *self.next_timer);
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer {
            id,
            kind,
            at: self.now + delay,
        });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }

    /// Halts the calling process (a voluntary, silent stop — used to model a
    /// process leaving the system without protocol-level goodbye).
    pub fn halt(&mut self) {
        self.actions.push(Action::Halt);
    }

    /// Deterministic randomness for protocol-level choices.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Adds one to a named global counter.
    pub fn bump(&mut self, name: &'static str) {
        self.stats.bump(name);
    }

    /// Adds `n` to a named global counter.
    pub fn bump_by(&mut self, name: &'static str, n: u64) {
        self.stats.bump_by(name, n);
    }

    /// Records a duration sample (milliseconds) in a named global series.
    pub fn sample_duration(&mut self, name: &'static str, d: SimDuration) {
        self.stats.sample_duration(name, d);
    }

    /// Whether a tracer is attached. Protocol layers may use this to skip
    /// building expensive event payloads when tracing is off.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records a trace event, lazily built by `f` only when tracing is on.
    /// The event is stamped with the current time, this pid, and the causal
    /// link to the delivery/timer that triggered this callback. Returns the
    /// event's seq (0 when tracing is off).
    pub fn trace_with(&mut self, f: impl FnOnce() -> now_trace::EventKind) -> u64 {
        match self.tracer.as_deref_mut() {
            Some(tr) => tr.record(self.now.as_micros(), self.me.0, self.cause, f()),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy transport that records applied actions; the trait is small
    /// enough that backends outside the engine stay this simple.
    struct Recorder {
        now: SimTime,
        applied: Vec<(Pid, String)>,
    }

    impl Transport<String> for Recorder {
        fn clock(&self) -> SimTime {
            self.now
        }

        fn apply(&mut self, from: Pid, action: Action<String>, _cause: Option<u64>) {
            let what = match action {
                Action::Send { to, msg } => format!("send {to} {msg}"),
                Action::Multicast { dsts, msg } => format!("mcast x{} {msg}", dsts.len()),
                Action::SetTimer { id, kind, .. } => format!("timer {id:?} k{kind}"),
                Action::CancelTimer(id) => format!("cancel {id:?}"),
                Action::Halt => "halt".into(),
            };
            self.applied.push((from, what));
        }
    }

    #[test]
    fn endpoint_runs_callbacks_and_dispatch_preserves_order() {
        let mut ep: Endpoint<String> = Endpoint::new(9);
        ep.set_now(SimTime(50));
        let me = Pid(3);
        let (got, mut actions) = ep.run(me, 0, None, |ctx| {
            assert_eq!(ctx.me(), me);
            assert_eq!(ctx.now(), SimTime(50));
            ctx.send(Pid(4), "a".into());
            let t = ctx.set_timer(SimDuration::from_millis(1), 7);
            ctx.multicast([Pid(5), Pid(6)], "b".into());
            ctx.cancel_timer(t);
            ctx.halt();
            42
        });
        assert_eq!(got, 42);
        let mut rec = Recorder { now: SimTime(50), applied: Vec::new() };
        dispatch(&mut rec, me, &mut actions, None);
        ep.give_back(actions);
        let kinds: Vec<&str> = rec
            .applied
            .iter()
            .map(|(_, w)| w.split(' ').next().expect("non-empty"))
            .collect();
        assert_eq!(kinds, vec!["send", "timer", "mcast", "cancel", "halt"]);
        assert!(rec.applied.iter().all(|(p, _)| *p == me));
    }

    #[test]
    fn endpoint_scratch_buffer_is_reused() {
        let mut ep: Endpoint<u32> = Endpoint::new(1);
        let (_, mut a) = ep.run(Pid(0), 0, None, |ctx| {
            for i in 0..16 {
                ctx.send(Pid(1), i);
            }
        });
        let cap = a.capacity();
        a.clear();
        ep.give_back(a);
        let (_, b) = ep.run(Pid(0), 0, None, |ctx| ctx.send(Pid(1), 1));
        assert_eq!(b.capacity(), cap, "scratch buffer must round-trip");
        ep.give_back(b);
    }

    #[test]
    fn endpoint_timer_ids_are_monotonic_across_callbacks() {
        let mut ep: Endpoint<u32> = Endpoint::new(1);
        let (t1, a) = ep.run(Pid(0), 0, None, |ctx| ctx.set_timer(SimDuration::ZERO, 0));
        ep.give_back(a);
        let (t2, b) = ep.run(Pid(7), 0, None, |ctx| ctx.set_timer(SimDuration::ZERO, 0));
        ep.give_back(b);
        assert!(t2 > t1, "timer ids must never repeat across processes");
    }

    #[test]
    fn timer_base_prefixes_allocated_ids() {
        // The engine allocates timer ids from per-process counters under a
        // pid-derived base; the ids must interleave the two without
        // colliding and without disturbing the counters' low bits.
        let mut rng = DetRng::seed_from_u64(0);
        let mut stats = Stats::default();
        let mut ctr: u64 = 5;
        let mut actions: Vec<Action<u32>> = Vec::new();
        let base = (3u64 + 1) << 32;
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            me: Pid(3),
            incarnation: 0,
            rng: &mut rng,
            stats: &mut stats,
            next_timer: &mut ctr,
            timer_base: base,
            actions: &mut actions,
            tracer: None,
            cause: None,
        };
        let a = ctx.set_timer(SimDuration::ZERO, 0);
        let b = ctx.set_timer(SimDuration::ZERO, 0);
        assert_eq!(a, TimerId(base | 5));
        assert_eq!(b, TimerId(base | 6));
        assert_eq!(ctr, 7);
    }

    #[test]
    fn endpoint_stats_flow_through_ctx() {
        let mut ep: Endpoint<u32> = Endpoint::new(2);
        ep.set_now(SimTime(7));
        let (_, a) = ep.run(Pid(1), 0, None, |ctx| {
            ctx.bump("x.count");
        });
        ep.give_back(a);
        assert_eq!(ep.stats().counter("x.count"), 1);
    }
}
