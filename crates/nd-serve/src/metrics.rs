//! Lock-free serving metrics.
//!
//! Counters and latency histograms are plain relaxed atomics — recording
//! on the hot path is a handful of `fetch_add`s, no locks, no allocation.
//! [`Metrics::snapshot`] materializes a consistent-enough point-in-time
//! [`MetricsSnapshot`] (individual counters are exact; cross-counter skew
//! is bounded by in-flight requests) that renders itself to JSON via the
//! workspace's serde-free writer.
//!
//! Latencies land in log-linear histograms: each power of two
//! `[2^e, 2^(e+1))` is split into [`SUB_BUCKETS`] equal-width buckets
//! (values below 8 ns get a bucket each), so [`HISTOGRAM_BUCKETS`]
//! buckets span 0 ns to ~18 minutes and every reported quantile — a
//! bucket midpoint — is within 12.5% of the samples in its bucket. That
//! is fine enough to show a probe-path speedup, which plain log2 buckets
//! (every quantile `3·2^k`) hide.

use crate::request::{RequestKind, REQUEST_KINDS};
use nd_graph::json::{JsonArray, JsonObject};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Linear sub-buckets per power of two.
pub const SUB_BUCKETS: usize = 4;

/// Number of latency buckets: exact values 0–3, then [`SUB_BUCKETS`] per
/// power of two from `2^2` to `2^39` ns; larger values land in the last.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS * 39;

/// A log-linear latency histogram over nanoseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Index of the bucket covering `ns`: `ns` itself below
    /// [`SUB_BUCKETS`]; else, with `e = ⌊log2 ns⌋`, the power-of-two
    /// group `e − 1` and the sub-bucket given by the two bits after the
    /// leading one. Clamped to the last bucket.
    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as usize;
        let sub = (ns >> (e - 2)) as usize & (SUB_BUCKETS - 1);
        (SUB_BUCKETS * (e - 1) + sub).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The `[lo, hi)` nanosecond range of bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        if i < SUB_BUCKETS {
            return (i as u64, i as u64 + 1);
        }
        let shift = i / SUB_BUCKETS - 1;
        let lead = (SUB_BUCKETS + i % SUB_BUCKETS) as u64;
        (lead << shift, (lead + 1) << shift)
    }

    pub fn record_ns(&self, ns: u64) {
        self.record_ns_many(ns, 1);
    }

    /// Record `n` samples that share one latency value with a single
    /// atomic op — the hot path for batch completions, where every
    /// request in the batch resolves at the same instant.
    pub fn record_ns_many(&self, ns: u64, n: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(n, Ordering::Relaxed);
    }

    pub fn counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Point-in-time copy of one histogram, with percentile estimation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub counts: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the
    /// midpoint of the bucket holding the `⌈q·total⌉`-th sample, within
    /// 12.5% of every sample in that bucket. `None` on an empty
    /// histogram.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = LatencyHistogram::bucket_range(i);
                return Some(lo + (hi - lo) / 2);
            }
        }
        None
    }

    fn to_json(&self) -> String {
        // Drop the empty tail so the JSON stays compact.
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        let mut arr = JsonArray::new();
        for &c in &self.counts[..last] {
            arr.push_u64(c);
        }
        arr.finish()
    }
}

/// Per-request-kind live counters.
#[derive(Debug, Default)]
struct KindMetrics {
    /// Requests admitted into the queue.
    admitted: AtomicU64,
    /// Requests completed successfully.
    completed: AtomicU64,
    /// Requests rejected by admission control.
    rejected: AtomicU64,
    /// Requests reaped because their deadline expired in the queue.
    deadline_missed: AtomicU64,
    /// Requests that failed with a client (query) error.
    client_errors: AtomicU64,
    /// Submit→completion latency of completed requests.
    latency: LatencyHistogram,
}

/// The serving runtime's observability hub. One instance per pool; all
/// recording is lock-free.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    kinds: [KindMetrics; 3],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            kinds: std::array::from_fn(|_| KindMetrics::default()),
        }
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn of(&self, kind: RequestKind) -> &KindMetrics {
        &self.kinds[kind as usize]
    }

    pub fn record_admitted(&self, kind: RequestKind, n: u64) {
        self.of(kind).admitted.fetch_add(n, Ordering::Relaxed);
    }

    pub fn record_rejected(&self, kind: RequestKind, n: u64) {
        self.of(kind).rejected.fetch_add(n, Ordering::Relaxed);
    }

    pub fn record_deadline_missed(&self, kind: RequestKind, n: u64) {
        self.of(kind)
            .deadline_missed
            .fetch_add(n, Ordering::Relaxed);
    }

    pub fn record_client_error(&self, kind: RequestKind) {
        self.of(kind).client_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_completed(&self, kind: RequestKind, latency_ns: u64) {
        self.record_completed_many(kind, 1, latency_ns);
    }

    /// Record `n` completions sharing one latency (a whole batch) with
    /// two atomic ops instead of `2n`. Per-request recording makes the
    /// metric counters the scaling bottleneck: sub-µs probes executed by
    /// several workers ping-pong the counter cache lines and flatten
    /// multi-worker throughput.
    pub fn record_completed_many(&self, kind: RequestKind, n: u64, latency_ns: u64) {
        if n == 0 {
            return;
        }
        let k = self.of(kind);
        k.completed.fetch_add(n, Ordering::Relaxed);
        k.latency.record_ns_many(latency_ns, n);
    }

    /// Materialize a point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            kinds: REQUEST_KINDS.map(|kind| {
                let k = self.of(kind);
                KindSnapshot {
                    kind,
                    admitted: k.admitted.load(Ordering::Relaxed),
                    completed: k.completed.load(Ordering::Relaxed),
                    rejected: k.rejected.load(Ordering::Relaxed),
                    deadline_missed: k.deadline_missed.load(Ordering::Relaxed),
                    client_errors: k.client_errors.load(Ordering::Relaxed),
                    latency: HistogramSnapshot {
                        counts: k.latency.counts(),
                    },
                }
            }),
        }
    }
}

/// Point-in-time counters for one request kind.
#[derive(Clone, Debug)]
pub struct KindSnapshot {
    pub kind: RequestKind,
    pub admitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub deadline_missed: u64,
    pub client_errors: u64,
    pub latency: HistogramSnapshot,
}

impl KindSnapshot {
    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("admitted", self.admitted)
            .field_u64("completed", self.completed)
            .field_u64("rejected", self.rejected)
            .field_u64("deadline_missed", self.deadline_missed)
            .field_u64("client_errors", self.client_errors);
        for (name, q) in [("p50_ns", 0.50), ("p95_ns", 0.95), ("p99_ns", 0.99)] {
            match self.latency.quantile_ns(q) {
                Some(ns) => o.field_u64(name, ns),
                None => o.field_null(name),
            };
        }
        o.field_raw("latency_buckets_ns", &self.latency.to_json());
        o.finish()
    }
}

/// Everything [`Metrics`] knows, frozen. Rendered to JSON by
/// [`MetricsSnapshot::to_json`]; the pool's `metrics_snapshot` also
/// attaches prepare-phase stats from the snapshot under `"prepare"`.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    pub uptime_ms: u64,
    pub kinds: [KindSnapshot; 3],
}

impl MetricsSnapshot {
    pub fn kind(&self, kind: RequestKind) -> &KindSnapshot {
        &self.kinds[kind as usize]
    }

    pub fn total_rejected(&self) -> u64 {
        self.kinds.iter().map(|k| k.rejected).sum()
    }

    /// Serde-free JSON rendering: `{"uptime_ms":..,"test":{...},...}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("uptime_ms", self.uptime_ms);
        for k in &self.kinds {
            o.field_raw(k.kind.name(), &k.to_json());
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_tile_the_range() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(3), 3);
        assert_eq!(LatencyHistogram::bucket_of(4), 4);
        assert_eq!(LatencyHistogram::bucket_of(7), 7);
        assert_eq!(LatencyHistogram::bucket_of(8), 8);
        assert_eq!(LatencyHistogram::bucket_of(1024), 36);
        assert_eq!(LatencyHistogram::bucket_of(1279), 36);
        assert_eq!(LatencyHistogram::bucket_of(1280), 37);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Consecutive buckets are adjacent ranges, and every value below
        // the clamp lands in the bucket whose range holds it.
        let mut expect_lo = 0;
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = LatencyHistogram::bucket_range(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            assert_eq!(LatencyHistogram::bucket_of(lo), i);
            assert_eq!(LatencyHistogram::bucket_of(hi - 1), i);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, 1 << 40);
    }

    #[test]
    fn constant_streams_report_within_an_eighth() {
        // 150 µs and 196.608 µs both read 196,608 ns (3·2^16) under plain
        // log2 buckets; here each quantile stays within 12.5% of its
        // stream and the two streams are told apart.
        let mut p50s = Vec::new();
        for ns in [150_000u64, 196_608] {
            let h = LatencyHistogram::default();
            h.record_ns_many(ns, 1_000);
            let snap = HistogramSnapshot { counts: h.counts() };
            for q in [0.50, 0.95, 0.99] {
                let got = snap.quantile_ns(q).unwrap();
                assert!(got.abs_diff(ns) * 8 <= ns, "q{q} of {ns} ns read {got}");
            }
            p50s.push(snap.quantile_ns(0.5).unwrap());
        }
        assert_ne!(p50s[0], p50s[1]);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record_ns(100); // bucket 22: [96, 112)
        }
        for _ in 0..10 {
            h.record_ns(10_000); // bucket 48: [8192, 10240)
        }
        let snap = HistogramSnapshot { counts: h.counts() };
        assert_eq!(snap.total(), 100);
        let p50 = snap.quantile_ns(0.50).unwrap();
        assert!((96..112).contains(&p50), "p50 = {p50}");
        let p99 = snap.quantile_ns(0.99).unwrap();
        assert!((8_192..10_240).contains(&p99), "p99 = {p99}");
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.5), None);
    }

    #[test]
    fn snapshot_json_shape() {
        let m = Metrics::new();
        m.record_admitted(RequestKind::Test, 3);
        m.record_completed(RequestKind::Test, 500);
        m.record_rejected(RequestKind::EnumeratePage, 2);
        let j = m.snapshot().to_json();
        assert!(j.contains("\"test\":{\"admitted\":3,\"completed\":1"));
        assert!(j.contains("\"enumerate_page\":{\"admitted\":0,\"completed\":0,\"rejected\":2"));
        assert!(j.contains("\"latency_buckets_ns\":["));
    }
}
