//! Serving observability: per-model request / batch-width / latency /
//! queue-wait histograms with a zero-allocation hot path.
//!
//! The recording side is a handful of relaxed atomic increments into
//! fixed log2-bucket arrays — no locks, no allocation — so it sits
//! directly on the serve loop without perturbing the zero-alloc
//! guarantee the execution layer carries. The reading side
//! ([`Metrics::render`], behind the protocol's `stats` verb and the
//! `gcm stats` subcommand) snapshots the counters and formats a text
//! report; it allocates freely, which is fine off the hot path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Number of log2 buckets: bucket `i` counts values `v` with
/// `bucket_of(v) == i`, i.e. `v == 0` lands in bucket 0 and otherwise
/// `i = floor(log2(v)) + 1`, capped at the last bucket.
pub const BUCKETS: usize = 40;

/// A log2-bucketed histogram of `u64` samples. Recording is one relaxed
/// atomic increment — allocation- and lock-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket `v` falls in.
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (the value a percentile estimate
/// reports; an upper bound, so estimates err conservatively).
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // `AtomicU64` is not Copy; build the array element-wise.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. Zero-allocation, lock-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (mean = `sum / count`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper-bound estimate of the `q`-quantile (`q` in `0..=1`), from
    /// the bucket boundaries; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(i);
            }
        }
        bucket_hi(BUCKETS - 1)
    }

    /// `(bucket upper bound, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((bucket_hi(i), c))
            })
            .collect()
    }
}

/// Counters of one served model. All fields are recorded with relaxed
/// atomics on the request path.
#[derive(Debug, Default)]
pub struct ModelMetrics {
    /// Multiply requests that passed admission.
    pub requests: AtomicU64,
    /// Requests answered `OK`.
    pub ok: AtomicU64,
    /// Requests shed by admission control.
    pub overloaded: AtomicU64,
    /// Requests answered with any other error status.
    pub errors: AtomicU64,
    /// Kernel invocations (coalesced batches + direct panel calls).
    pub batches: AtomicU64,
    /// Vectors served across all kernel invocations (mean achieved
    /// batch width = `vectors / batches`).
    pub vectors: AtomicU64,
    /// Achieved batch width per kernel invocation.
    pub batch_width: Histogram,
    /// Request latency in microseconds (decode → response encoded).
    pub latency_us: Histogram,
    /// Per coalesced request: microseconds from entering its batching
    /// lane to the start of its batch's kernel.
    pub queue_wait_us: Histogram,
}

impl ModelMetrics {
    /// Mean achieved batch width (0 when no batch has run).
    pub fn mean_width(&self) -> f64 {
        let b = self.batches.load(Ordering::Relaxed);
        if b == 0 {
            return 0.0;
        }
        self.vectors.load(Ordering::Relaxed) as f64 / b as f64
    }
}

/// The server's metrics registry: one [`ModelMetrics`] per served model.
/// Lookup on the hot path is a read-locked `HashMap` probe by `&str` —
/// no allocation; entries are created once, when a model's serving lanes
/// are built.
#[derive(Debug)]
pub struct Metrics {
    models: RwLock<HashMap<String, Arc<ModelMetrics>>>,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            models: RwLock::new(HashMap::new()),
            started: Instant::now(),
        }
    }

    /// The metrics of `name`, if the model has been served.
    pub fn get(&self, name: &str) -> Option<Arc<ModelMetrics>> {
        self.models
            .read()
            .expect("metrics map poisoned")
            .get(name)
            .cloned()
    }

    /// The metrics of `name`, created on first use.
    pub fn get_or_create(&self, name: &str) -> Arc<ModelMetrics> {
        if let Some(m) = self.get(name) {
            return m;
        }
        let mut map = self.models.write().expect("metrics map poisoned");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(ModelMetrics::default())),
        )
    }

    /// Renders a text snapshot of every model's counters (or only
    /// `filter`'s, when non-empty) — the payload of the protocol's
    /// `stats` verb. Lines are `key=value` so shell pipelines (and the
    /// load generator) can scrape them.
    pub fn render(&self, filter: &str) -> String {
        use std::fmt::Write;
        let map = self.models.read().expect("metrics map poisoned");
        let mut names: Vec<&String> = map
            .keys()
            .filter(|n| filter.is_empty() || n.as_str() == filter)
            .collect();
        names.sort();
        let mut out = String::new();
        let _ = writeln!(out, "uptime_s={}", self.started.elapsed().as_secs());
        let _ = writeln!(out, "models={}", names.len());
        for name in names {
            let m = &map[name];
            let _ = writeln!(
                out,
                "model={name} requests={} ok={} overloaded={} errors={} batches={} vectors={} mean_width={:.2}",
                m.requests.load(Ordering::Relaxed),
                m.ok.load(Ordering::Relaxed),
                m.overloaded.load(Ordering::Relaxed),
                m.errors.load(Ordering::Relaxed),
                m.batches.load(Ordering::Relaxed),
                m.vectors.load(Ordering::Relaxed),
                m.mean_width(),
            );
            let _ = writeln!(
                out,
                "model={name} latency_us p50={} p99={} p999={} mean={:.1}",
                m.latency_us.quantile(0.50),
                m.latency_us.quantile(0.99),
                m.latency_us.quantile(0.999),
                if m.latency_us.count() == 0 {
                    0.0
                } else {
                    m.latency_us.sum() as f64 / m.latency_us.count() as f64
                },
            );
            let _ = writeln!(
                out,
                "model={name} queue_wait_us p50={} p99={}",
                m.queue_wait_us.quantile(0.50),
                m.queue_wait_us.quantile(0.99),
            );
            for (hi, c) in m.batch_width.nonzero_buckets() {
                let _ = writeln!(out, "model={name} width_le={hi} count={c}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_exact_zero() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1 << 38), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(1), 1);
        assert_eq!(bucket_hi(2), 3);
        assert_eq!(bucket_hi(3), 7);
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        // p50 falls in the bucket of 3 (values ≤ 3), p99/p999 in 1000's.
        assert_eq!(h.quantile(0.5), 3);
        assert!(h.quantile(0.99) >= 1000);
        assert!(h.quantile(0.999) >= 1000);
        assert!(h.quantile(0.0) >= 1);
        // Empty histogram reports zeros.
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn registry_renders_scrapeable_lines() {
        let metrics = Metrics::new();
        let m = metrics.get_or_create("demo");
        assert!(Arc::ptr_eq(&m, &metrics.get_or_create("demo")));
        m.requests.fetch_add(10, Ordering::Relaxed);
        m.ok.fetch_add(9, Ordering::Relaxed);
        m.overloaded.fetch_add(1, Ordering::Relaxed);
        m.batches.fetch_add(2, Ordering::Relaxed);
        m.vectors.fetch_add(9, Ordering::Relaxed);
        m.batch_width.record(4);
        m.batch_width.record(5);
        m.latency_us.record(120);
        m.queue_wait_us.record(3);
        m.queue_wait_us.record(300);
        let text = metrics.render("");
        assert!(
            text.contains("model=demo requests=10 ok=9 overloaded=1"),
            "{text}"
        );
        assert!(text.contains("mean_width=4.50"), "{text}");
        assert!(text.contains("latency_us p50="), "{text}");
        // Log2 upper bounds: 3 sits in the ≤ 3 bucket, 300 in ≤ 511.
        assert!(
            text.contains("model=demo queue_wait_us p50=3 p99=511\n"),
            "{text}"
        );
        // Filtering by an unknown model renders no model lines.
        assert!(!metrics.render("other").contains("model=demo"));
        assert_eq!(metrics.get("missing").map(|_| ()), None);
        assert_eq!(m.mean_width(), 4.5);
    }
}
