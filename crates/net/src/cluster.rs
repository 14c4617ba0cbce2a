//! Multi-daemon localhost clusters: boot, formation, experiment replays.
//!
//! This is the real-network mirror of `isis_hier::harness`: it boots `K`
//! daemons on localhost (unix sockets by default), spreads the leader
//! group and the large-group members across them round-robin, drives the
//! same formation sequence the sim harness uses (create → leader joins →
//! member joins), and then replays two of the paper's experiments over the
//! wire:
//!
//! - **E1 replay** — cast/abcast latency: rounds of large-group broadcasts
//!   from rotating senders, each timed from submission until every member
//!   has delivered it;
//! - **E9 replay** — the trading room: a quote feed streams symbol quotes
//!   through the hierarchy at a fixed rate and the report gives the
//!   delivery ratio across all analysts plus the post-feed drain time.
//!
//! Every daemon runs a retaining [`Tracer`], and after shutdown the per-
//! daemon event logs are merged on the shared clock and replayed through a
//! fresh [`Monitors`] set — the same virtual-synchrony invariants the sim
//! enforces, now checked against a real run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use now_sim::trace::{Monitors, TraceEvent, Tracer};
use now_sim::{Pid, Series};

use isis_core::{IsisConfig, IsisProcess};
use isis_hier::harness::RecorderBiz;
use isis_hier::{HierApp, LargeGroupConfig, LargeGroupId};

use crate::daemon::{Addr, Daemon, DaemonConfig};

/// The hosted process type of a cluster: the full ISIS + hierarchy stack
/// over the recording business application.
pub type ClusterProc = IsisProcess<HierApp<RecorderBiz>>;

/// Parameters of one cluster run.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Large-group member count (the paper's full run uses 64).
    pub members: usize,
    /// Number of daemons the processes are spread across.
    pub daemons: usize,
    /// Hierarchy shape (resiliency doubles as the leader-group size).
    pub cfg: LargeGroupConfig,
    /// Use loopback TCP instead of unix sockets.
    pub tcp: bool,
    /// E1 replay rounds (0 skips the replay).
    pub e1_rounds: usize,
    /// E9 replay quote count (0 skips the replay).
    pub e9_quotes: usize,
    /// E9 feed rate in quotes per second.
    pub e9_rate: u32,
    /// Seed for the endpoints' protocol-level RNG streams.
    pub seed: u64,
}

impl ClusterConfig {
    /// The CI smoke shape: 8 members in 2 daemons, short replays.
    pub fn smoke() -> ClusterConfig {
        ClusterConfig {
            members: 8,
            daemons: 2,
            cfg: LargeGroupConfig::new(2, 4),
            tcp: false,
            e1_rounds: 3,
            e9_quotes: 10,
            e9_rate: 40,
            seed: 42,
        }
    }

    /// The paper-scale run: 64 members across 4 daemons.
    pub fn full() -> ClusterConfig {
        ClusterConfig {
            members: 64,
            daemons: 4,
            cfg: LargeGroupConfig::new(3, 4),
            tcp: false,
            e1_rounds: 8,
            e9_quotes: 40,
            e9_rate: 40,
            seed: 42,
        }
    }
}

/// Latency percentiles over a set of completed rounds, in microseconds.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    /// Rounds attempted.
    pub rounds: usize,
    /// Rounds where every member delivered before the deadline.
    pub completed: usize,
    /// Median completion latency (µs).
    pub p50_us: u64,
    /// 99th-percentile completion latency (µs).
    pub p99_us: u64,
    /// Worst completion latency (µs).
    pub max_us: u64,
}

impl LatencyStats {
    /// Summarises per-round latencies by the simulator's nearest-rank
    /// rule ([`Series::quantile`]), so live and simulated percentiles
    /// mean the same thing.
    fn from_series(rounds: usize, us: &Series) -> LatencyStats {
        LatencyStats {
            rounds,
            completed: us.len(),
            p50_us: us.p50() as u64,
            p99_us: us.p99() as u64,
            max_us: us.max() as u64,
        }
    }
}

/// Outcome of the E9 (trading room) replay.
#[derive(Clone, Debug, Default)]
pub struct E9Report {
    /// Quotes streamed by the feed.
    pub quotes: usize,
    /// `quotes × analysts` — the deliveries a lossless run produces.
    pub expected: usize,
    /// Deliveries actually observed across all analysts.
    pub delivered: usize,
    /// Milliseconds from the last quote's submission until every analyst
    /// had the full stream (deadline-capped).
    pub drain_ms: u64,
}

impl E9Report {
    /// Fraction of expected deliveries observed.
    pub fn ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

/// Everything a cluster run reports.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Member count.
    pub members: usize,
    /// Daemon count.
    pub daemons: usize,
    /// Wall milliseconds from boot until the hierarchy was fully formed.
    pub formation_ms: u64,
    /// E1 replay latencies.
    pub e1: LatencyStats,
    /// E9 replay outcome.
    pub e9: E9Report,
    /// Total messages sent, summed over daemons.
    pub messages_sent: u64,
    /// Trace events recorded across all daemons.
    pub events: usize,
    /// Virtual-synchrony monitor violations found in the merged trace.
    pub violations: usize,
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn make_addrs(daemons: usize, tcp: bool) -> Vec<Addr> {
    let run = RUN_COUNTER.fetch_add(1, Ordering::SeqCst);
    let pid = std::process::id();
    if tcp {
        // Derive a port window from the OS pid so concurrent test
        // processes rarely collide; bind errors surface as Err from run().
        let base = 30000 + ((u64::from(pid) * 131 + run * 17) % 20000) as u16;
        (0..daemons)
            .map(|d| {
                Addr::Tcp(std::net::SocketAddr::from((
                    [127, 0, 0, 1],
                    base + d as u16,
                )))
            })
            .collect()
    } else {
        let dir = std::env::temp_dir();
        (0..daemons)
            .map(|d| Addr::Unix(dir.join(format!("now-cluster-{pid}-{run}-{d}.sock"))))
            .collect()
    }
}

struct Cluster {
    daemons: Vec<Daemon<ClusterProc>>,
    routing: Vec<u32>,
    lgid: LargeGroupId,
    leaders: Vec<Pid>,
    members: Vec<Pid>,
    epoch: Instant,
}

impl Cluster {
    fn daemon_of(&self, pid: Pid) -> &Daemon<ClusterProc> {
        &self.daemons[self.routing[pid.0 as usize] as usize]
    }

    /// True once `pred` holds for the app state of every pid in `pids`.
    fn all_apps(
        &self,
        pids: &[Pid],
        pred: impl Fn(&HierApp<RecorderBiz>) -> bool + Send + Sync + Clone + 'static,
    ) -> bool {
        for (d, daemon) in self.daemons.iter().enumerate() {
            let mine: Vec<u32> = pids
                .iter()
                .filter(|p| self.routing[p.0 as usize] == d as u32)
                .map(|p| p.0)
                .collect();
            if mine.is_empty() {
                continue;
            }
            let pred = pred.clone();
            let ok = daemon
                .with_core(move |core| {
                    mine.iter()
                        .all(|&p| core.proc(Pid(p)).is_some_and(|proc_| pred(proc_.app())))
                })
                .unwrap_or(false);
            if !ok {
                return false;
            }
        }
        true
    }

    /// Polls `cond` until it returns true or `limit` elapses.
    fn wait_for(&self, limit: Duration, mut cond: impl FnMut(&Cluster) -> bool) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            if cond(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Boots the cluster, forms the hierarchy, replays E1 and E9, checks the
/// merged trace against the VS monitors, and tears everything down.
pub fn run(cfg: &ClusterConfig) -> Result<ClusterReport, String> {
    let lgid = LargeGroupId(1);
    let nleaders = cfg.cfg.resiliency.max(1);
    let total = nleaders + cfg.members;
    let daemons = cfg.daemons.max(1);
    let addrs = make_addrs(daemons, cfg.tcp);
    let routing: Vec<u32> = (0..total).map(|p| (p % daemons) as u32).collect();
    let routing_arc = Arc::new(routing.clone());
    let epoch = Instant::now();

    // Boot: every process exists from the start; the hierarchy is formed
    // by explicit invocations afterwards, exactly like the sim harness.
    let mut handles = Vec::new();
    for d in 0..daemons {
        let procs: Vec<(Pid, ClusterProc)> = (0..total)
            .filter(|p| routing[*p] == d as u32)
            .map(|p| {
                (
                    Pid(p as u32),
                    IsisProcess::new(
                        HierApp::with_timers(RecorderBiz::default(), cfg.cfg.clone()),
                        IsisConfig::default(),
                    ),
                )
            })
            .collect();
        let daemon = Daemon::spawn(
            DaemonConfig {
                index: d as u32,
                addrs: addrs.clone(),
                routing: Arc::clone(&routing_arc),
                epoch,
                seed: cfg.seed.wrapping_add(d as u64),
            },
            procs,
        )
        .map_err(|e| format!("daemon {d} failed to boot: {e}"))?;
        daemon.with_core(|core| {
            core.endpoint_mut()
                .set_tracer(Tracer::new().retain_all());
        });
        handles.push(daemon);
    }

    let leaders: Vec<Pid> = (0..nleaders).map(|p| Pid(p as u32)).collect();
    let members: Vec<Pid> = (nleaders..total).map(|p| Pid(p as u32)).collect();
    let cluster = Cluster {
        daemons: handles,
        routing,
        lgid,
        leaders: leaders.clone(),
        members: members.clone(),
        epoch,
    };

    let report = (|| {
        form(&cluster, cfg)?;
        let formation_ms = epoch.elapsed().as_millis() as u64;
        let e1 = replay_e1(&cluster, cfg.e1_rounds)?;
        let e9 = replay_e9(&cluster, cfg.e9_quotes, cfg.e9_rate)?;
        Ok::<_, String>((formation_ms, e1, e9))
    })();

    // Tear down and collect traces even when a phase failed, so sockets
    // never leak.
    let mut messages_sent = 0u64;
    let mut tracers: Vec<Tracer> = Vec::new();
    for d in &cluster.daemons {
        if let Some(sent) = d.with_core(|core| core.endpoint().stats().messages_sent) {
            messages_sent += sent;
        }
        if let Some(Some(tr)) = d.with_core(|core| core.endpoint_mut().take_tracer()) {
            tracers.push(tr);
        }
    }
    for d in cluster.daemons {
        d.shutdown();
    }

    let (formation_ms, e1, e9) = report?;
    let (events, violations) = check_merged_trace(tracers);

    Ok(ClusterReport {
        members: cfg.members,
        daemons,
        formation_ms,
        e1,
        e9,
        messages_sent,
        events,
        violations,
    })
}

/// Drives the harness formation sequence over the wire.
fn form(cluster: &Cluster, cfg: &ClusterConfig) -> Result<(), String> {
    let lgid = cluster.lgid;
    let nleaders = cluster.leaders.len();
    let shape = cfg.cfg.clone();
    let first = cluster.leaders[0];
    cluster.daemon_of(first).invoke(first, move |p, ctx| {
        p.with_app(ctx, move |app, up| app.create_large(lgid, shape, up));
    });
    for &l in &cluster.leaders[1..] {
        cluster.daemon_of(l).invoke(l, move |p, ctx| {
            p.with_app(ctx, move |app, up| app.join_leader_group(lgid, first, up));
        });
    }
    let leader_gid = lgid.leader_gid();
    let leaders = cluster.leaders.clone();
    let formed = cluster.wait_for(Duration::from_secs(30), |c| {
        c.all_apps(&leaders, move |_| true)
            && leaders.iter().all(|&l| {
                c.daemon_of(l)
                    .invoke(l, move |p, _ctx| {
                        p.view_of(leader_gid).is_some_and(|v| v.size() == nleaders)
                    })
                    .unwrap_or(false)
            })
    });
    if !formed {
        return Err("leader group never formed".into());
    }

    for &m in &cluster.members {
        cluster.daemon_of(m).invoke(m, move |p, ctx| {
            p.with_app(ctx, move |app, up| app.join_large(lgid, first, up));
        });
    }
    let members = cluster.members.clone();
    let want = cluster.members.len();
    let joined = cluster.wait_for(Duration::from_secs(120), |c| {
        c.all_apps(&members, move |app| app.is_large_member(lgid))
            && c.daemon_of(first)
                .invoke(first, move |p, _ctx| {
                    p.app()
                        .leader_view(lgid)
                        .is_some_and(|v| v.total_members() == want)
                })
                .unwrap_or(false)
    });
    if !joined {
        let n = cluster
            .members
            .iter()
            .filter(|&&m| {
                cluster
                    .daemon_of(m)
                    .invoke(m, move |p, _ctx| p.app().is_large_member(lgid))
                    .unwrap_or(false)
            })
            .count();
        return Err(format!("large group never formed ({n}/{want} joined)"));
    }
    Ok(())
}

/// E1 replay: timed rounds of large-group broadcasts.
fn replay_e1(cluster: &Cluster, rounds: usize) -> Result<LatencyStats, String> {
    let lgid = cluster.lgid;
    let mut samples = Series::default();
    for i in 0..rounds {
        let sender = cluster.members[i % cluster.members.len()];
        let payload = format!("e1:{i}");
        let started = Instant::now();
        let pl = payload.clone();
        cluster.daemon_of(sender).invoke(sender, move |p, ctx| {
            p.with_app(ctx, move |app, up| {
                app.lbcast(lgid, pl, up);
            });
        });
        let members = cluster.members.clone();
        let done = cluster.wait_for(Duration::from_secs(15), |c| {
            let pl = payload.clone();
            c.all_apps(&members, move |app| {
                app.biz().lbcast_payloads(lgid).contains(&pl)
            })
        });
        if !done {
            return Err(format!("E1 round {i} never completed"));
        }
        samples.push(started.elapsed().as_micros() as f64);
    }
    Ok(LatencyStats::from_series(rounds, &samples))
}

/// E9 replay: the trading-room quote stream.
fn replay_e9(cluster: &Cluster, quotes: usize, rate: u32) -> Result<E9Report, String> {
    if quotes == 0 {
        return Ok(E9Report::default());
    }
    let lgid = cluster.lgid;
    let feed = cluster.members[0];
    let gap = Duration::from_micros(1_000_000 / u64::from(rate.max(1)));
    const SYMS: [&str; 4] = ["IBM", "DEC", "SUN", "HP"];
    for q in 0..quotes {
        let sent_us = cluster.epoch.elapsed().as_micros() as u64;
        let payload = format!("q:{}:{}:{}", SYMS[q % SYMS.len()], q, sent_us);
        cluster.daemon_of(feed).invoke(feed, move |p, ctx| {
            p.with_app(ctx, move |app, up| {
                app.lbcast(lgid, payload, up);
            });
        });
        thread::sleep(gap);
    }
    let last_submit = Instant::now();
    let members = cluster.members.clone();
    let drained = cluster.wait_for(Duration::from_secs(30), |c| {
        c.all_apps(&members, move |app| {
            app.biz()
                .lbcast_payloads(lgid)
                .iter()
                .filter(|p| p.starts_with("q:"))
                .count()
                >= quotes
        })
    });
    let drain_ms = last_submit.elapsed().as_millis() as u64;
    let mut delivered = 0usize;
    for &m in &cluster.members {
        delivered += cluster
            .daemon_of(m)
            .invoke(m, move |p, _ctx| {
                p.app()
                    .biz()
                    .lbcast_payloads(lgid)
                    .iter()
                    .filter(|s| s.starts_with("q:"))
                    .count()
            })
            .unwrap_or(0);
    }
    let report = E9Report {
        quotes,
        expected: quotes * cluster.members.len(),
        delivered,
        drain_ms,
    };
    if !drained {
        return Err(format!(
            "E9 never drained: {}/{} deliveries",
            report.delivered, report.expected
        ));
    }
    Ok(report)
}

/// Merges the per-daemon event logs on the shared clock and replays them
/// through a fresh monitor set. Returns (events, violations).
fn check_merged_trace(tracers: Vec<Tracer>) -> (usize, usize) {
    let mut merged: Vec<(u64, usize, TraceEvent)> = Vec::new();
    for (d, tr) in tracers.into_iter().enumerate() {
        for ev in tr.events() {
            merged.push((ev.at, d, ev));
        }
    }
    merged.sort_by_key(|a| (a.0, a.1, a.2.seq));
    let mut monitors = Monitors::new();
    let mut violations = 0usize;
    let n = merged.len();
    for (_, _, ev) in &merged {
        violations += monitors.observe(ev).len();
    }
    (n, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_use_the_simulator_rule() {
        let mut us = Series::default();
        for v in [800.0, 100.0, 700.0, 200.0, 600.0, 300.0, 500.0, 400.0] {
            us.push(v);
        }
        let l = LatencyStats::from_series(10, &us);
        assert_eq!((l.rounds, l.completed), (10, 8));
        // Nearest rank: p50 of 8 samples is the 4th smallest, as in `Series`.
        assert_eq!((l.p50_us, l.p99_us, l.max_us), (400, 800, 800));
    }
}
