//! `trading`: `analysts` workstations on the LAN model (fanout 8, default
//! `IsisConfig`, so heartbeats and hierarchy maintenance run). After
//! set-up, quotes stream in at a fixed rate of simulated time (open loop),
//! each entering at a seed-chosen workstation, so that no one feed's place
//! in the tree sets the latency. The operation is one quote delivered to
//! every analyst.
//!
//! The run length is fixed (host cost per delivery grows with it), and the
//! traced run compares the ledger of the first and the second half of the
//! stream to name the bucket whose time per quote grows.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use isis_apps::trading::{rate_to_gap, Quote, QuoteStream};
use isis_core::IsisConfig;
use isis_hier::LargeGroupConfig;
use now_sim::{DetRng, Rng, SimConfig, SimDuration};

use crate::episode::{self, Counters, Episode, Workload};
use crate::ledger::{self, Ledger};
use crate::probe::Note;
use crate::world::World;

/// Trading workload parameters.
pub struct Trading {
    /// Analyst workstations (large-group members).
    pub analysts: usize,
    /// Quotes per episode.
    pub quotes: u64,
    /// Feed rate, quotes per simulated second.
    pub rate: u64,
}

impl Trading {
    /// The benchmark size.
    pub fn standard() -> Trading {
        Trading {
            analysts: 1000,
            quotes: 200,
            rate: 200,
        }
    }
}

/// Instruments quoted.
const SYMBOLS: u32 = 64;

/// Per-quote progress: deliveries seen, and the protocol clock at send
/// and at the last delivery.
struct Progress {
    sent_us: u64,
    got: usize,
    done: Option<u64>,
}

impl Workload for Trading {
    fn episode(&self, seed: u64, traced: bool) -> Episode {
        let n = self.analysts;
        // One set-up per episode: at about 0.4 s it is long enough to time
        // once.
        let (setup_s, (mut w, formed)) = episode::timed_setups(1, || {
            let mut w: World<Quote> = World::new(
                SimConfig::lan(seed),
                LargeGroupConfig::new(3, 8),
                IsisConfig::default(),
            );
            let formed = w.form_members(n, SimDuration::from_secs(2));
            (w, formed)
        });
        let mut e = Episode {
            setup_s,
            ..Episode::default()
        };
        if !formed {
            e.broken.push(format!("{n} analysts never formed"));
            return e;
        }

        let mut rng = DetRng::seed_from_u64(seed);
        let mut stream = QuoteStream::new(SYMBOLS);
        let gap = rate_to_gap(self.rate);
        let mut quotes: BTreeMap<u64, Progress> = BTreeMap::new();
        let mut halves: Vec<Ledger> = Vec::new();
        let c0 = Counters::of(w.sim.stats());
        w.begin_measure(traced);
        let t0 = Instant::now();
        for i in 0..self.quotes {
            if traced && (i == 0 || i == self.quotes / 2) {
                halves.push(ledger::snapshot());
            }
            let q = stream.next_quote(w.sim.now());
            quotes.insert(
                q.seq,
                Progress {
                    sent_us: q.sent_us,
                    got: 0,
                    done: None,
                },
            );
            let feed = w.members[rng.gen_range(0..n)];
            w.lbcast(feed, q);
            w.slice(gap);
            tally(&mut w, &mut quotes, n, &mut e.broken);
        }
        if traced {
            halves.push(ledger::snapshot());
        }
        let drain_end = w.sim.now() + SimDuration::from_secs(10);
        while quotes.values().any(|p| p.done.is_none()) && w.sim.now() < drain_end {
            w.slice(gap);
            tally(&mut w, &mut quotes, n, &mut e.broken);
        }
        e.measure_s = t0.elapsed().as_secs_f64();
        let led = episode::end();
        let c = Counters::of(w.sim.stats()).since(&c0);

        e.ops = self.quotes;
        e.msgs = c.sent;
        e.bytes = c.bytes;
        for p in quotes.values() {
            match p.done {
                Some(at) => e
                    .proto_lat_ms
                    .push(at.saturating_sub(p.sent_us) as f64 / 1e3),
                None => e.failed += 1,
            }
        }
        let first = w.log(w.members[0]).to_vec();
        if let Some(&m) = w.members.iter().find(|&&m| w.log(m) != first.as_slice()) {
            e.broken
                .push(format!("lbcast logs of {} and {m} differ", w.members[0]));
        }
        if traced {
            e.layers = episode::engine_layers(&led, &c, e.measure_s, w.queue_peak, w.timers_peak);
            e.layers.extend(episode::protocol_layers(&led, &c));
            if let [a, b, z] = halves.as_slice() {
                e.lines
                    .extend(growth(&b.since(a), &z.since(b), self.quotes / 2));
            }
        }
        e
    }
}

/// Counts the deliveries reported since the last call and marks quotes
/// that reached all `n` analysts.
fn tally(
    w: &mut World<Quote>,
    quotes: &mut BTreeMap<u64, Progress>,
    n: usize,
    broken: &mut Vec<String>,
) {
    for note in w.rx.try_iter() {
        if let Note::Delivered { tag, at_us, .. } = note {
            let Some(p) = quotes.get_mut(&tag) else {
                continue;
            };
            p.got += 1;
            if p.got == n {
                p.done = Some(at_us);
            } else if p.got > n {
                broken.push(format!(
                    "quote {tag} delivered {} times to {n} analysts",
                    p.got
                ));
            }
        }
    }
}

/// Names the buckets whose handler time per quote grew most between the
/// two halves of the stream.
fn growth(first: &Ledger, second: &Ledger, per_half: u64) -> Vec<String> {
    let per_quote = |l: &Ledger, k: &str| {
        l.buckets
            .get(k)
            .map_or(0.0, |a| a.ns as f64 / 1e3 / per_half.max(1) as f64)
    };
    let keys: BTreeSet<&String> = first.buckets.keys().chain(second.buckets.keys()).collect();
    let mut rows: Vec<(f64, &String, f64, f64)> = keys
        .into_iter()
        .map(|k| {
            let (a, b) = (per_quote(first, k), per_quote(second, k));
            (b - a, k, a, b)
        })
        .collect();
    rows.sort_by(|x, y| y.0.total_cmp(&x.0).then_with(|| x.1.cmp(y.1)));
    let total = |l: &Ledger| l.handler_ns() as f64 / 1e3 / per_half.max(1) as f64;
    let mut out = vec![format!(
        "trading growth: handler time per quote {:.1} us in the first half, {:.1} us in the second",
        total(first),
        total(second)
    )];
    for (d, k, a, b) in rows.iter().take(3) {
        out.push(format!(
            "trading growth: {k} {a:.1} -> {b:.1} us per quote ({d:+.1})"
        ));
    }
    if let Some((_, k, _, _)) = rows.first() {
        out.push(format!(
            "trading growth: the bucket behind the growth is {k}"
        ));
    }
    out
}
