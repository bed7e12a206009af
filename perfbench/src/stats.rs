//! Summary statistics and the metric report the benchmark prints.

use ziv_common::json::JsonValue;

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count);
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail percentile reported under the benchmark's rule: the highest
/// percentile at or below the requested one that still has at least
/// [`TAIL_SAMPLES`] samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the requested one).
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The tail percentile of `samples` at `requested` (0–100) under the
/// ≥10-beyond rule; `None` when fewer than `TAIL_SAMPLES + 1` samples
/// exist, so no percentile has ten samples beyond it.
pub fn tail(samples: &[f64], requested: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    // Nearest rank: percentile p selects index ceil(p·n/100) − 1, and
    // index n − 1 − TAIL_SAMPLES is the last one with ten beyond it.
    let highest = 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64;
    let percentile = requested.min(highest);
    let rank = ((percentile * n as f64 / 100.0).ceil() as usize).clamp(1, n - TAIL_SAMPLES);
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile,
        value: v[rank - 1],
        samples: n,
    })
}

/// `(q3 − q1) / median` of `values`, with quartiles computed the way
/// Python's `statistics.quantiles(values, n=4)` does (the exclusive
/// method); `None` for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |i: usize| {
        // statistics.quantiles, method='exclusive', n=4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med)
}

/// Whether `name` is a legal metric name: a letter or digit first, at
/// most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ns`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
    /// For a tail metric, the percentile actually reported.
    pub percentile: Option<f64>,
}

/// The metrics of one run plus its operation accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed to run or failed an output check.
    pub failed: u64,
}

impl Report {
    /// Adds a plain metric.
    ///
    /// # Errors
    ///
    /// Rejects an illegal or duplicate name and a non-finite value.
    pub fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Result<(), String> {
        self.push_metric(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            percentile: None,
        })
    }

    /// Adds a tail metric; a missing tail (too few samples) is an error.
    ///
    /// # Errors
    ///
    /// As [`Report::push`], and when `tail` is `None`.
    pub fn push_tail(
        &mut self,
        name: &str,
        tail: Option<Tail>,
        unit: &'static str,
    ) -> Result<(), String> {
        let t = tail.ok_or_else(|| format!("{name}: fewer than {} samples", TAIL_SAMPLES + 1))?;
        self.push_metric(Metric {
            name: name.to_string(),
            value: t.value,
            unit,
            samples: t.samples,
            percentile: Some(t.percentile),
        })
    }

    fn push_metric(&mut self, m: Metric) -> Result<(), String> {
        if !valid_metric_name(&m.name) {
            return Err(format!("illegal metric name '{}'", m.name));
        }
        if self.metrics.iter().any(|x| x.name == m.name) {
            return Err(format!("duplicate metric '{}'", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric '{}' is not finite", m.name));
        }
        self.metrics.push(m);
        Ok(())
    }

    /// One human-readable line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let pct = m
                    .percentile
                    .map_or(String::new(), |p| format!(", at p{p:.2}"));
                format!(
                    "  {:<28} {:>16.6} {:<6} (n={}{pct})",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric as `{"value", "unit"}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.failed == 0)),
            ("attempted".into(), JsonValue::u64(self.attempted)),
            ("failed".into(), JsonValue::u64(self.failed)),
            (
                "metrics".into(),
                JsonValue::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                JsonValue::Obj(vec![
                                    ("value".into(), JsonValue::f64(m.value)),
                                    ("unit".into(), JsonValue::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        // 1000 samples: p99 has exactly ten beyond it.
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 200 samples: p99 would leave two, so the rule falls back to
        // p95 (190 of 200), the highest with ten beyond.
        let t = tail(&ramp(200), 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (95.0, 190.0, 200));
        // A percentile already below the limit is reported as asked.
        let t = tail(&ramp(200), 50.0).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 100.0));
        // 11 samples: only the first one has ten beyond it.
        let t = tail(&ramp(11), 90.0).unwrap();
        assert_eq!(t.value, 1.0);
        assert!(tail(&ramp(10), 90.0).is_none());
        assert!(tail(&[], 50.0).is_none());
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        for n in 11..300 {
            let v = ramp(n);
            for req in [50.0, 90.0, 99.0, 99.9] {
                let t = tail(&v, req).unwrap();
                let beyond = v.iter().filter(|&&x| x > t.value).count();
                assert!(beyond >= TAIL_SAMPLES, "n={n} req={req} beyond={beyond}");
                assert!(t.percentile <= req);
            }
        }
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // Python: statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = quartile_spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // Python: statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = quartile_spread(&[1.0, 2.0, 3.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in [
            "setup_s",
            "driver.run_s",
            "access_ns_p99",
            "trace.overhead_pct",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "a b",
            "a/b",
            "lat(ms)",
            "naïve",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let mut r = Report::default();
        assert!(r.push("a b", 1.0, "s", 1).is_err());
        assert!(r.push("ok", f64::NAN, "s", 1).is_err());
        r.push("ok", 1.0, "s", 1).unwrap();
        assert!(r.push("ok", 2.0, "s", 1).is_err(), "duplicates rejected");
        assert!(r.push_tail("t", None, "ns").is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        r.push("setup_s", 0.25, "s", 3).unwrap();
        let doc = ziv_common::json::parse(&r.to_json().to_string()).unwrap();
        let JsonValue::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
    }
}
