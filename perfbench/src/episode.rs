//! One episode of a workload (set up, then measure), and how a run's
//! episodes are summarised into the reported metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use now_sim::Stats;

use crate::ledger::{self, Ledger};
use crate::metrics::{median, ratio, tail, Metric, Report, Tail};

/// What one episode measured.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// Host seconds spent setting up.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub measure_s: f64,
    /// Operations attempted in the measured phase.
    pub ops: u64,
    /// Operations that failed (the others completed).
    pub failed: u64,
    /// Protocol messages sent in the measured phase.
    pub msgs: u64,
    /// Protocol bytes sent in the measured phase.
    pub bytes: u64,
    /// Per-operation latency on the protocol clock, milliseconds.
    pub proto_lat_ms: Vec<f64>,
    /// Broken invariants (an empty list means every check held).
    pub broken: Vec<String>,
    /// Per-layer metrics, present when the ledger was on.
    pub layers: Vec<Metric>,
    /// Human-readable findings of this episode.
    pub lines: Vec<String>,
}

/// A workload: something that can run episodes.
pub trait Workload {
    /// Runs one episode; `traced` turns the ledger on for the measured
    /// phase.
    fn episode(&self, seed: u64, traced: bool) -> Episode;
}

/// Runs episodes of `w` until `budget` of host time is used (at least
/// `min_episodes` after a warm-up episode). With `traced`, untraced and
/// traced episodes alternate and the per-layer metrics come from the traced
/// ones.
pub fn run(
    w: &dyn Workload,
    seed: u64,
    budget: Duration,
    min_episodes: usize,
    traced: bool,
) -> Report {
    let start = Instant::now();
    // A first, unreported episode lets the allocator and the page cache
    // reach the state every later episode starts from.
    w.episode(seed, false);
    let mut plain: Vec<Episode> = Vec::new();
    let mut led: Vec<Episode> = Vec::new();
    loop {
        plain.push(w.episode(seed, false));
        if traced {
            led.push(w.episode(seed, true));
        }
        if plain.len() >= min_episodes && start.elapsed() >= budget {
            break;
        }
    }
    summarise(&plain, &led)
}

/// Sets up `times` times with `build` and returns the median host seconds
/// of one set-up and the last thing built. A set-up of a few milliseconds
/// is noisy to time once; the median of several is not.
pub fn timed_setups<T>(times: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t = Instant::now();
        let built = build();
        secs.push(t.elapsed().as_secs_f64());
        // The previous build is dropped here, outside the timed span.
        last = Some(built);
    }
    (median(&secs), last.expect("at least one set-up"))
}

fn summarise(plain: &[Episode], led: &[Episode]) -> Report {
    let all = plain.iter().chain(led);
    let mut r = Report {
        attempted: all.clone().map(|e| e.ops).sum(),
        failed: all.clone().map(|e| e.failed).sum(),
        ..Report::default()
    };
    let broken: Vec<&String> = all.clone().flat_map(|e| &e.broken).collect();
    r.correct = broken.is_empty();
    for b in broken {
        r.say(format!("BROKEN: {b}"));
    }
    if let Some(first) = plain.first() {
        r.lines.extend(first.lines.iter().cloned());
    }

    let setup: Vec<f64> = plain.iter().map(|e| e.setup_s).collect();
    // Throughput counts completed operations; the per-operation costs
    // divide by attempted ones, since a failed operation sends too.
    let rate: Vec<f64> = plain
        .iter()
        .map(|e| ratio((e.ops - e.failed) as f64, e.measure_s))
        .collect();
    let ops: u64 = plain.iter().map(|e| e.ops).sum();
    let msgs: u64 = plain.iter().map(|e| e.msgs).sum();
    let bytes: u64 = plain.iter().map(|e| e.bytes).sum();
    r.put("setup_s", median(&setup), "s");
    r.put("ops_per_s", median(&rate), "1/s");
    r.put("sim_msgs_per_op", ratio(msgs as f64, ops as f64), "msgs/op");
    r.put("sim_bytes_per_op", ratio(bytes as f64, ops as f64), "B/op");
    put_latency(&mut r, plain);
    r.put("peak_rss_mb", peak_rss_mb(), "MB");
    r.say(format!(
        "episodes: {} untraced, {} traced; setup_s per episode {:?}; ops_per_s per episode {:?}",
        plain.len(),
        led.len(),
        setup.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>(),
        rate.iter().map(|s| format!("{s:.1}")).collect::<Vec<_>>(),
    ));
    r.say(format!(
        "fail_ratio = {} (failed {} / attempted {} operations)",
        ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    ));

    if !led.is_empty() {
        // A bucket an episode did not touch counts as 0 there.
        let mut units: BTreeMap<&str, &'static str> = BTreeMap::new();
        for m in led.iter().flat_map(|e| &e.layers) {
            units.entry(m.name.as_str()).or_insert(m.unit);
        }
        for (name, unit) in units {
            let vals: Vec<f64> = led
                .iter()
                .map(|e| {
                    e.layers
                        .iter()
                        .find(|m| m.name == name)
                        .map_or(0.0, |m| m.value)
                })
                .collect();
            r.put(name, median(&vals), unit);
        }
        let traced_s = median(&led.iter().map(|e| e.measure_s).collect::<Vec<_>>());
        let plain_s = median(&plain.iter().map(|e| e.measure_s).collect::<Vec<_>>());
        r.put(
            "trace.overhead_pct",
            (ratio(traced_s, plain_s) - 1.0) * 100.0,
            "%",
        );
        r.say(format!(
            "trace.overhead_pct: measured phase {traced_s:.4} s traced vs {plain_s:.4} s untraced (medians)"
        ));
        r.lines.extend(led[0].lines.iter().cloned());
    }
    r
}

/// Reports `sim_lat_p50_ms` and `sim_lat_tail_ms`: each episode's median
/// and tail, then the median of those over episodes. The output names the
/// tail percentile and the sample counts. Nothing is reported without
/// samples.
fn put_latency(r: &mut Report, plain: &[Episode]) {
    let episodes: Vec<&[f64]> = plain
        .iter()
        .map(|e| e.proto_lat_ms.as_slice())
        .filter(|xs| !xs.is_empty())
        .collect();
    if episodes.is_empty() {
        return;
    }
    let p50s: Vec<f64> = episodes.iter().map(|xs| median(xs)).collect();
    let tails: Vec<Option<Tail>> = episodes.iter().map(|xs| tail(xs)).collect();
    r.put("sim_lat_p50_ms", median(&p50s), "ms");
    let counts: Vec<usize> = episodes.iter().map(|xs| xs.len()).collect();
    if let Some(Some(t)) = tails.first().filter(|_| tails.iter().all(Option::is_some)) {
        let values: Vec<f64> = tails.iter().flatten().map(|t| t.value).collect();
        r.put("sim_lat_tail_ms", median(&values), "ms");
        r.say(format!(
            "sim_lat_tail_ms is p{} per episode (of {counts:?} samples), median over {} episodes",
            t.pct,
            episodes.len()
        ));
    } else {
        let maxima: Vec<f64> = episodes
            .iter()
            .map(|xs| xs.iter().copied().fold(0.0, f64::max))
            .collect();
        r.put("sim_lat_tail_ms", median(&maxima), "ms");
        r.say(format!(
            "sim_lat_tail_ms is the per-episode maximum: {counts:?} samples are too few for a \
             percentile with {} beyond it",
            crate::metrics::TAIL_BEYOND
        ));
    }
}

/// Host peak resident memory of this process, in MB (0 where
/// `/proc/self/status` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Engine and protocol counters at one instant, for measured-phase deltas.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Messages sent.
    pub sent: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Messages dropped as addressed to a previous incarnation.
    pub stale: u64,
    /// Named protocol counters the per-layer metrics use.
    pub named: Vec<u64>,
}

/// Protocol counters read for per-layer ratios and retries.
const NAMED: [&str; 8] = [
    "isis.flushes_started",
    "isis.flushes_completed",
    "isis.flush_retries",
    "isis.causal_delayed",
    "hier.lbcast.delivered",
    "hier.lbcast.dup",
    "hier.forward.retry",
    "hier.submit.retry",
];

impl Counters {
    /// Reads `stats`.
    pub fn of(stats: &Stats) -> Counters {
        Counters {
            sent: stats.messages_sent,
            bytes: stats.bytes_sent,
            delivered: stats.messages_delivered,
            dropped: stats.messages_dropped,
            stale: stats.messages_stale_dropped,
            named: NAMED.iter().map(|n| stats.counter(n)).collect(),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            sent: self.sent - earlier.sent,
            bytes: self.bytes - earlier.bytes,
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
            stale: self.stale - earlier.stale,
            named: self
                .named
                .iter()
                .zip(&earlier.named)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    fn named(&self, name: &str) -> f64 {
        NAMED
            .iter()
            .position(|n| *n == name)
            .and_then(|i| self.named.get(i))
            .map_or(0.0, |&v| v as f64)
    }
}

/// The protocol-layer metrics (`core.*`, `hier.*`) of a ledger and the
/// counter deltas of the same window.
pub fn protocol_layers(led: &Ledger, c: &Counters) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut ctl_max = 0u64;
    for (key, a) in &led.buckets {
        if !(key.starts_with("core.") || key.starts_with("hier.")) {
            continue;
        }
        out.push(Metric {
            name: format!("{key}.n"),
            value: a.n as f64,
            unit: "count",
        });
        out.push(Metric {
            name: format!("{key}.s"),
            value: a.secs(),
            unit: "s",
        });
        if key.starts_with("hier.Ctl.") {
            out.push(Metric {
                name: format!("{key}.bytes"),
                value: a.bytes as f64,
                unit: "B",
            });
            ctl_max = ctl_max.max(a.max_bytes);
        }
    }
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_owned(),
        value,
        unit,
    };
    out.push(m("hier.Ctl.max_msg_bytes", ctl_max as f64, "B"));
    out.push(m(
        "core.flush_ok_ratio",
        ratio(
            c.named("isis.flushes_completed"),
            c.named("isis.flushes_started"),
        ),
        "done/started",
    ));
    out.push(m(
        "core.flush_retries",
        c.named("isis.flush_retries"),
        "count",
    ));
    out.push(m(
        "core.causal_delayed",
        c.named("isis.causal_delayed"),
        "count",
    ));
    let (dl, dup) = (c.named("hier.lbcast.delivered"), c.named("hier.lbcast.dup"));
    out.push(m(
        "hier.lbcast_useful_ratio",
        ratio(dl, dl + dup),
        "dlv/recv",
    ));
    out.push(m(
        "hier.forward.retry",
        c.named("hier.forward.retry"),
        "count",
    ));
    out.push(m(
        "hier.submit.retry",
        c.named("hier.submit.retry"),
        "count",
    ));
    out
}

/// The engine metrics (`sim.*`) of a simulated measured phase.
pub fn engine_layers(
    led: &Ledger,
    c: &Counters,
    measure_s: f64,
    queue_peak: usize,
    timers_peak: usize,
) -> Vec<Metric> {
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_owned(),
        value,
        unit,
    };
    vec![
        m(
            "sim.events",
            (led.deliveries + led.timer_fires) as f64,
            "count",
        ),
        m(
            "sim.self_s",
            measure_s - led.handler_ns() as f64 * 1e-9,
            "s",
        ),
        m(
            "sim.host_us_per_delivery",
            ratio(measure_s * 1e6, c.delivered as f64),
            "us/delivery",
        ),
        m("sim.queue_peak", queue_peak as f64, "count"),
        m("sim.timers_peak", timers_peak as f64, "count"),
        m("sim.dropped", c.dropped as f64, "count"),
        m("sim.stale_dropped", c.stale as f64, "count"),
    ]
}

/// Starts a measured phase: resets this thread's ledger and turns it on
/// when `traced`.
pub fn begin(traced: bool) {
    ledger::take();
    ledger::set_enabled(traced);
}

/// Ends a measured phase, returning what the ledger recorded.
pub fn end() -> Ledger {
    ledger::set_enabled(false);
    ledger::take()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(r: &Report, name: &str) -> Option<f64> {
        r.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    #[test]
    fn throughput_counts_completed_and_costs_attempted_operations() {
        let e = Episode {
            setup_s: 0.5,
            measure_s: 2.0,
            ops: 10,
            failed: 2,
            msgs: 400,
            bytes: 4000,
            proto_lat_ms: vec![1.0; 8],
            ..Episode::default()
        };
        let r = summarise(&[e], &[]);
        assert_eq!((r.attempted, r.failed), (10, 2));
        assert_eq!(value(&r, "ops_per_s"), Some(4.0), "8 completed in 2 s");
        assert_eq!(
            value(&r, "sim_msgs_per_op"),
            Some(40.0),
            "400 / 10 attempted"
        );
        assert_eq!(value(&r, "sim_bytes_per_op"), Some(400.0));
        assert_eq!(value(&r, "setup_s"), Some(0.5));
    }

    #[test]
    fn latency_is_the_median_over_episodes_of_each_episodes_figure() {
        let ep = |lat: Vec<f64>| Episode {
            ops: lat.len() as u64,
            measure_s: 1.0,
            proto_lat_ms: lat,
            ..Episode::default()
        };
        let r = summarise(
            &[ep(vec![1.0, 2.0, 3.0]), ep(vec![5.0; 3]), ep(vec![9.0; 3])],
            &[],
        );
        assert_eq!(value(&r, "sim_lat_p50_ms"), Some(5.0));
        // Three samples are too few for a percentile tail: the per-episode
        // maximum stands in, and its median over episodes is reported.
        assert_eq!(value(&r, "sim_lat_tail_ms"), Some(5.0));
    }

    #[test]
    fn timed_setups_keeps_the_last_build() {
        let mut k = 0;
        let (secs, last) = timed_setups(3, || {
            k += 1;
            k
        });
        assert_eq!(last, 3);
        assert!(secs >= 0.0);
    }
}
