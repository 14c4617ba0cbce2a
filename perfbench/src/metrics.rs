//! Summary statistics, the tail-percentile rule, ratios with explicit
//! bases, and the result line.

use std::fmt::Write as _;

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0–100] of sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let k = (q / 100.0 * n as f64).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Median of `xs` (nearest rank); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), 50.0)]
}

/// A tail latency: the highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The tail of `xs`, or `None` when fewer than `TAIL_BEYOND + 1` samples
/// lie above even the median.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&q| {
        let i = (n > 0).then(|| rank(n, q))?;
        (n - 1 - i >= TAIL_BEYOND).then(|| Tail {
            pct: q,
            value: v[i],
            samples: n,
        })
    })
}

/// `num / den`, defined as 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether `s` is a valid metric name: starts with a letter or digit, at
/// most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a valid unit: 1–16 of letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Whether every output check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (missed a delivery, an admission, ...).
    pub failed: u64,
    /// Metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a human-readable line.
    pub fn say(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                v,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).expect("200 samples have a tail");
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.pct), Some(99.0));
        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.pct), Some(99.9));
        // 20 samples: the median leaves exactly 10 beyond it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| (t.pct, t.value)), Some((50.0, 10.0)));
        assert_eq!(tail(&xs[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_tail_choice_honours_the_rule() {
        for n in 1..3_000usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            if let Some(t) = tail(&xs) {
                let beyond = xs.iter().filter(|&&x| x > t.value).count();
                assert!(beyond >= TAIL_BEYOND, "n={n}: {t:?} leaves {beyond}");
                let higher = TAIL_LADDER.iter().copied().filter(|&q| q > t.pct);
                for q in higher {
                    assert!(
                        n - 1 - rank(n, q) < TAIL_BEYOND,
                        "n={n}: p{q} also qualifies"
                    );
                }
            }
        }
    }

    #[test]
    fn median_and_ratio_bases() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0, "an empty base reads 0, not NaN");
    }

    #[test]
    fn metric_name_and_unit_charsets() {
        for ok in [
            "setup_s",
            "hier.Ctl.HierPush.bytes",
            "core.timer.n",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".dot", "_x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "B/op", "us/delivery"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seventeen-chars-x", "(x)"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.put("latency_ms", 1.25, "ms");
        r.put("bad", f64::NAN, "ms");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
