//! `formation`: admit `n` members (resiliency 3, fanout 8, LAN model,
//! default `IsisConfig`), then let the structure traffic settle for one
//! simulated second. The operation is one member admitted.
//!
//! Every member asks the leader for admission at the same instant, as the
//! hierarchy harness does. The measured phase runs from the joins until the
//! settle second ends, because the structure pushes that follow admission
//! are most of the cost.
//!
//! The LAN model rather than the ideal network: on the ideal network every
//! admission takes the same few simulated microseconds whatever the seed,
//! so the protocol-clock latency could not be told from a constant. The
//! message and byte counts are those of the ideal network; only their
//! timing differs. 2048 members rather than 4096: at 4096 the structure
//! pushes in flight on the LAN model hold about 2.6 GB.

use std::collections::BTreeMap;
use std::time::Instant;

use isis_core::IsisConfig;
use isis_hier::LargeGroupConfig;
use now_sim::{Pid, SimConfig, SimDuration};

use crate::episode::{self, Counters, Episode, Workload};
use crate::probe::Note;
use crate::world::World;

/// Formation workload parameters.
pub struct Formation {
    /// Members admitted.
    pub n: usize,
    /// Settle time after the last admission.
    pub settle: SimDuration,
}

impl Formation {
    /// The benchmark size.
    pub fn standard() -> Formation {
        Formation {
            n: 2048,
            settle: SimDuration::from_secs(1),
        }
    }
}

/// Set-ups timed per episode.
const SETUPS: usize = 50;

fn config() -> LargeGroupConfig {
    LargeGroupConfig::new(3, 8)
}

impl Workload for Formation {
    fn episode(&self, seed: u64, traced: bool) -> Episode {
        let cfg = config();
        let bound = cfg.fanout + cfg.max_leaf + 2;
        let (setup_s, mut w) = episode::timed_setups(SETUPS, || {
            let mut w: World<String> =
                World::new(SimConfig::lan(seed), config(), IsisConfig::default());
            w.spawn_members(self.n);
            w
        });

        let c0 = Counters::of(w.sim.stats());
        w.begin_measure(traced);
        let t0 = Instant::now();
        let asked = w.sim.now().as_micros();
        for m in w.members.clone() {
            w.join(m);
        }
        let mut admitted: BTreeMap<Pid, u64> = BTreeMap::new();
        let n = self.n;
        let deadline = w.sim.now() + SimDuration::from_secs(600);
        loop {
            for note in w.rx.try_iter() {
                if let Note::Joined { pid, at_us } = note {
                    admitted.entry(pid).or_insert(at_us);
                }
            }
            if admitted.len() == n && w.accounted() == n || w.sim.now() >= deadline {
                break;
            }
            w.slice(SimDuration::from_millis(10));
        }
        let t_admitted = t0.elapsed().as_secs_f64();
        let accounted = w.accounted();
        let settle_end = w.sim.now() + self.settle;
        while w.sim.now() < settle_end {
            w.slice(SimDuration::from_millis(100));
        }
        let measure_s = t0.elapsed().as_secs_f64();
        let led = episode::end();
        let c = Counters::of(w.sim.stats()).since(&c0);
        w.rx.try_iter().for_each(drop);

        let mut e = Episode {
            setup_s,
            measure_s,
            ops: n as u64,
            failed: (n - admitted.len()) as u64,
            msgs: c.sent,
            bytes: c.bytes,
            ..Episode::default()
        };
        for &at in admitted.values() {
            e.proto_lat_ms.push(at.saturating_sub(asked) as f64 / 1e3);
        }
        if accounted != n {
            e.broken.push(format!(
                "when admission completed the leader view accounted for {accounted} of {n} members"
            ));
        }
        let fan = broadcast_fanout(&mut w);
        match fan {
            None => e
                .broken
                .push("a broadcast after formation missed members".into()),
            Some(f) if f > bound => e.broken.push(format!(
                "a broadcast made a process contact {f} distinct destinations, above \
                 fanout + max_leaf + 2 = {bound}"
            )),
            Some(_) => {}
        }
        e.lines.push(format!(
            "formation: n={n} admitted {} in {t_admitted:.3} s host, settled at {measure_s:.3} s; \
             leader view accounts for {accounted} at admission, {} after settling; \
             max distinct destinations in one broadcast {fan:?} (bound {bound})",
            admitted.len(),
            w.accounted()
        ));
        if traced {
            e.layers = episode::engine_layers(&led, &c, measure_s, w.queue_peak, w.timers_peak);
            e.layers.extend(episode::protocol_layers(&led, &c));
        }
        e
    }
}

/// Sends one broadcast over the formed hierarchy and returns the largest
/// number of distinct destinations any process contacted meanwhile (`None`
/// if the broadcast did not reach every member within a simulated minute).
fn broadcast_fanout(w: &mut World<String>) -> Option<usize> {
    w.sim.stats_mut().enable_fanout_tracking();
    w.sim.stats_mut().reset_window();
    let origin = w.members[w.members.len() / 3];
    let tag = u64::MAX - 1;
    w.lbcast(origin, format!("fanout:{tag}"));
    let mut got = 0;
    let want = w.members.len();
    let reached = w.run_until_done(
        SimDuration::from_millis(1),
        SimDuration::from_secs(60),
        |w| {
            got +=
                w.rx.try_iter()
                    .filter(|n| matches!(n, Note::Delivered { tag: t, .. } if *t == tag))
                    .count();
            got >= want
        },
    );
    reached.then(|| w.sim.stats().max_distinct_destinations())
}
