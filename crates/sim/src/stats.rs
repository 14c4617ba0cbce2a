//! Measurement infrastructure.
//!
//! Every quantitative claim reproduced from the paper is a statement about
//! message counts, destination counts, state sizes, or latencies. Those are
//! collected *here*, centrally, so protocol code needs no instrumentation
//! beyond optional named counters and latency samples.
//!
//! Named counters and series are keyed by their `&'static str` name in a
//! sorted map: the first `bump`/`sample` of a name inserts it, every later
//! hit is a lookup by name. Reports iterate the maps, so they come out
//! sorted by name.

use std::collections::{BTreeMap, BTreeSet};

use crate::ids::Pid;
use crate::time::SimDuration;

/// Per-process message counters.
#[derive(Clone, Debug, Default)]
pub struct ProcStats {
    /// Messages this process sent (per destination, including loopback).
    pub sent: u64,
    /// Messages delivered to this process.
    pub received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages addressed to this process that the network dropped.
    pub dropped_to: u64,
}

/// A latency/size sample series. Every raw sample is kept; quantile
/// queries sort a copy, so a query costs O(n log n) in the series length.
#[derive(Clone, Debug, Default)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank, or 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample recorded"));
        let rank = ((q * sorted.len() as f64).ceil() as usize)
            .clamp(1, sorted.len())
            - 1;
        sorted[rank]
    }

    /// Convenience: the median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

}

/// Global simulation statistics.
///
/// Collected by the engine on every send/delivery; experiments read them
/// after (or during) a run. Named counters and series let protocol layers
/// record domain events (view changes, broadcasts completed, end-to-end
/// latencies) without new plumbing.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Total messages handed to the network (including later-dropped ones).
    pub messages_sent: u64,
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Total messages dropped by the network (loss or partition).
    pub messages_dropped: u64,
    /// Of the dropped messages, those addressed to a previous incarnation
    /// of a restarted process (stale-life traffic, also in `messages_dropped`).
    pub messages_stale_dropped: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Per-process counters, indexed by `Pid.0`.
    per_proc: Vec<ProcStats>,
    /// Distinct destinations each process has contacted. Enabled on demand
    /// because it costs a hash-set per process.
    fanout_tracking: Option<Vec<BTreeSet<Pid>>>,
    /// Named counters, sorted by name.
    counters: BTreeMap<&'static str, u64>,
    /// Named sample series, sorted by name.
    series: BTreeMap<&'static str, Series>,
}

impl Stats {
    /// Enables per-process distinct-destination tracking (experiment E8).
    pub fn enable_fanout_tracking(&mut self) {
        if self.fanout_tracking.is_none() {
            let n = self.per_proc.len();
            self.fanout_tracking = Some(vec![BTreeSet::new(); n]);
        }
    }

    /// Grows the per-process table to cover `pid`. Public for external
    /// transport backends that host processes (see [`Stats::record_send`]).
    pub fn ensure_proc(&mut self, pid: Pid) {
        let idx = pid.0 as usize;
        if self.per_proc.len() <= idx {
            self.per_proc.resize_with(idx + 1, ProcStats::default);
            if let Some(f) = &mut self.fanout_tracking {
                f.resize_with(idx + 1, BTreeSet::new);
            }
        }
    }

    /// Counts one message leaving `from` for `to`. Public so transport
    /// backends outside this crate (the `now-net` daemon) keep the same
    /// books as the simulator.
    pub fn record_send(&mut self, from: Pid, to: Pid, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        if !from.is_external() {
            self.ensure_proc(from);
            let p = &mut self.per_proc[from.0 as usize];
            p.sent += 1;
            p.bytes_sent += bytes as u64;
            if let Some(f) = &mut self.fanout_tracking {
                f[from.0 as usize].insert(to);
            }
        }
    }

    /// Counts one delivery at `to` (see [`Stats::record_send`]).
    pub fn record_delivery(&mut self, to: Pid) {
        self.messages_delivered += 1;
        self.ensure_proc(to);
        self.per_proc[to.0 as usize].received += 1;
    }

    /// Counts one drop bound for `to` (see [`Stats::record_send`]).
    pub fn record_drop(&mut self, to: Pid) {
        self.messages_dropped += 1;
        if !to.is_external() {
            self.ensure_proc(to);
            self.per_proc[to.0 as usize].dropped_to += 1;
        }
    }

    /// Counts one drop of a message addressed to a previous incarnation of
    /// `to` (a restarted process). Stale drops are also ordinary drops.
    pub fn record_stale_drop(&mut self, to: Pid) {
        self.messages_stale_dropped += 1;
        self.record_drop(to);
    }

    /// Per-process counters for `pid` (zeroes if it never communicated).
    pub fn proc(&self, pid: Pid) -> ProcStats {
        self.per_proc
            .get(pid.0 as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// The number of distinct destinations `pid` has contacted.
    ///
    /// # Panics
    ///
    /// Panics unless [`Stats::enable_fanout_tracking`] was called before the
    /// sends of interest.
    pub fn distinct_destinations(&self, pid: Pid) -> usize {
        let f = self
            .fanout_tracking
            .as_ref()
            .expect("fanout tracking not enabled");
        f.get(pid.0 as usize).map_or(0, BTreeSet::len)
    }

    /// The largest distinct-destination count over all processes — the
    /// paper's *fanout* bound, measured.
    pub fn max_distinct_destinations(&self) -> usize {
        let f = self
            .fanout_tracking
            .as_ref()
            .expect("fanout tracking not enabled");
        f.iter().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// Adds `n` to the named counter (registering it on first use).
    pub fn bump_by(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Adds 1 to the named counter.
    pub fn bump(&mut self, name: &'static str) {
        self.bump_by(name, 1);
    }

    /// Reads a named counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All named counters, sorted by name (built at report time).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(&name, &v)| (name.to_owned(), v))
            .collect()
    }

    /// Records one sample in the named series (registering on first use).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    /// Records a duration sample in milliseconds.
    pub fn sample_duration(&mut self, name: &'static str, d: SimDuration) {
        self.sample(name, d.as_millis_f64());
    }

    /// Reads a named series (empty when never sampled).
    pub fn series(&self, name: &str) -> Series {
        self.series.get(name).cloned().unwrap_or_default()
    }

    /// Resets message counters and series but keeps process table sizing
    /// (and counter/series names — cleared entries read as zero).
    ///
    /// Used by experiments that let the system reach steady state, then
    /// measure a window.
    pub fn reset_window(&mut self) {
        self.messages_sent = 0;
        self.messages_delivered = 0;
        self.messages_dropped = 0;
        self.messages_stale_dropped = 0;
        self.bytes_sent = 0;
        for p in &mut self.per_proc {
            *p = ProcStats::default();
        }
        if let Some(f) = &mut self.fanout_tracking {
            for s in f.iter_mut() {
                s.clear();
            }
        }
        for c in self.counters.values_mut() {
            *c = 0;
        }
        for s in self.series.values_mut() {
            *s = Series::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_percentiles() {
        let mut s = Series::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn series_empty_is_zero() {
        let s = Series::default();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn send_and_delivery_counters() {
        let mut st = Stats::default();
        st.record_send(Pid(0), Pid(1), 100);
        st.record_send(Pid(0), Pid(2), 50);
        st.record_delivery(Pid(1));
        st.record_drop(Pid(2));
        assert_eq!(st.messages_sent, 2);
        assert_eq!(st.messages_delivered, 1);
        assert_eq!(st.messages_dropped, 1);
        assert_eq!(st.bytes_sent, 150);
        assert_eq!(st.proc(Pid(0)).sent, 2);
        assert_eq!(st.proc(Pid(1)).received, 1);
        assert_eq!(st.proc(Pid(2)).dropped_to, 1);
    }

    #[test]
    fn external_sends_counted_globally_only() {
        let mut st = Stats::default();
        st.record_send(Pid::EXTERNAL, Pid(1), 10);
        assert_eq!(st.messages_sent, 1);
        // No per-proc slot was allocated for the external pseudo-pid.
        assert_eq!(st.proc(Pid::EXTERNAL).sent, 0);
    }

    #[test]
    fn fanout_tracking_counts_distinct_destinations() {
        let mut st = Stats::default();
        st.enable_fanout_tracking();
        st.record_send(Pid(0), Pid(1), 1);
        st.record_send(Pid(0), Pid(1), 1);
        st.record_send(Pid(0), Pid(2), 1);
        st.record_send(Pid(3), Pid(4), 1);
        assert_eq!(st.distinct_destinations(Pid(0)), 2);
        assert_eq!(st.distinct_destinations(Pid(3)), 1);
        assert_eq!(st.max_distinct_destinations(), 2);
    }

    #[test]
    fn named_counters_and_series() {
        let mut st = Stats::default();
        st.bump("view_changes");
        st.bump_by("view_changes", 2);
        st.sample("lat", 5.0);
        st.sample("lat", 15.0);
        assert_eq!(st.counter("view_changes"), 3);
        assert_eq!(st.counter("missing"), 0);
        assert_eq!(st.series("lat").mean(), 10.0);
    }

    #[test]
    fn counters_report_is_sorted_by_name() {
        let mut st = Stats::default();
        st.bump("zz");
        st.bump("aa");
        st.bump("mm");
        let names: Vec<String> = st.counters().into_keys().collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn reset_window_clears_counts() {
        let mut st = Stats::default();
        st.enable_fanout_tracking();
        st.record_send(Pid(0), Pid(1), 10);
        st.bump("x");
        st.sample("s", 1.0);
        st.reset_window();
        assert_eq!(st.messages_sent, 0);
        assert_eq!(st.proc(Pid(0)).sent, 0);
        assert_eq!(st.counter("x"), 0);
        assert_eq!(st.series("s").len(), 0);
        assert_eq!(st.distinct_destinations(Pid(0)), 0);
        // Names survive the reset and read as zero until bumped again.
        assert_eq!(st.counters().get("x"), Some(&0));
        st.bump("x");
        assert_eq!(st.counter("x"), 1);
    }
}
