//! Metric samples, operation accounting and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// Samples per metric. A metric reports one quantile of its samples: the
/// median unless it was recorded with [`Samples::tail`]. Each sample is
/// one timer reading over a batch of work, never over a single
/// sub-microsecond call.
#[derive(Default)]
pub struct Samples {
    metrics: BTreeMap<&'static str, Metric>,
}

struct Metric {
    unit: &'static str,
    values: Vec<f64>,
    /// The quantile reported.
    q: f64,
    /// Shortest timer reading behind any sample (`None` for counts).
    min_interval_ns: Option<u128>,
}

/// The slow tail an end-to-end latency reports: its 90th percentile
/// (for a rate, the 10th). The host alternates between a fast and a slow
/// speed state every few seconds, so per-round times are bimodal and
/// their median jumps between the two states with the share of time a
/// run spends in each; the 90th percentile stays inside the slow state.
pub const TAIL: f64 = 0.9;

impl Samples {
    fn entry(&mut self, name: &'static str, unit: &'static str, q: f64) -> &mut Metric {
        self.metrics.entry(name).or_insert_with(|| Metric {
            unit,
            values: Vec::new(),
            q,
            min_interval_ns: None,
        })
    }

    /// Record one sample of a median-reported metric, derived from a timer
    /// reading `over`.
    pub fn timed(&mut self, name: &'static str, unit: &'static str, value: f64, over: Duration) {
        self.sample(name, unit, 0.5, value, over);
    }

    /// Record one sample of a tail-reported metric: a time (`rate` false)
    /// reports its [`TAIL`] quantile, a rate its `1 - TAIL` quantile.
    pub fn tail(
        &mut self,
        name: &'static str,
        unit: &'static str,
        rate: bool,
        value: f64,
        over: Duration,
    ) {
        let q = if rate { 1.0 - TAIL } else { TAIL };
        self.sample(name, unit, q, value, over);
    }

    fn sample(
        &mut self,
        name: &'static str,
        unit: &'static str,
        q: f64,
        value: f64,
        over: Duration,
    ) {
        let m = self.entry(name, unit, q);
        m.values.push(value);
        let ns = over.as_nanos();
        m.min_interval_ns = Some(m.min_interval_ns.map_or(ns, |old| old.min(ns)));
    }

    /// Record one sample of a count or size.
    pub fn count(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.entry(name, unit, 0.5).values.push(value);
    }

    /// The reported value of one metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| quantile(&m.values, m.q))
    }

    /// `(name, unit, value)` for every metric, sorted by name.
    pub fn values(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.metrics
            .iter()
            .map(|(&name, m)| (name, m.unit, quantile(&m.values, m.q)))
            .collect()
    }

    /// Per-metric sample counts and shortest timer readings, for the
    /// steadiness checks.
    pub fn diagnostics_json(&self) -> String {
        let mut o = nd_graph::json::JsonObject::new();
        for (name, m) in &self.metrics {
            let mut d = nd_graph::json::JsonObject::new();
            d.field_u64("samples", m.values.len() as u64)
                .field_f64("quantile", m.q);
            match m.min_interval_ns {
                Some(ns) => d.field_u64("min_interval_ns", ns as u64),
                None => d.field_null("min_interval_ns"),
            };
            o.field_raw(name, &d.finish());
        }
        o.finish()
    }
}

/// The `q` quantile, interpolated linearly between the nearest ranks (so
/// `q = 0.5` is the median).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
}

/// Operations attempted and failed. A failure is a typed error from the
/// program, a rejected or failed serve request, or a wrong answer; wrong
/// answers also clear `correct`.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

/// Wrong answers described on standard error before the rest are only
/// counted.
const REPORTED_MISMATCHES: u64 = 8;

impl Tally {
    /// Count one operation and unwrap its result, recording an error.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Count one answer check; a mismatch marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            if self.correct || self.failed < REPORTED_MISMATCHES {
                eprintln!("perfbench: wrong answer: {}", what());
            }
            self.failed += 1;
            self.correct = false;
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB, 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: the last line of standard output.
pub fn result_line(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let mut m = nd_graph::json::JsonObject::new();
    for &(name, unit, value) in metrics {
        let mut o = nd_graph::json::JsonObject::new();
        o.field_f64("value", value).field_str("unit", unit);
        m.field_raw(name, &o.finish());
    }
    let mut o = nd_graph::json::JsonObject::new();
    o.field_bool("correct", tally.correct)
        .field_u64("attempted", tally.attempted)
        .field_u64("failed", tally.failed)
        .field_raw("metrics", &m.finish());
    o.finish()
}
