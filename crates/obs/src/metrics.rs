//! The process-global metrics registry: named counters, gauges and
//! fixed-bucket latency histograms, with deterministic (name-sorted)
//! snapshots.

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// A monotone event counter. Always on; one relaxed atomic add per bump.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram bucket upper bounds in nanoseconds: powers of two from ~1 µs
/// to ~69 s. Everything above the last bound lands in the overflow bucket.
pub(crate) const BUCKET_BOUNDS_NANOS: [u64; 27] = {
    let mut bounds = [0u64; 27];
    let mut i = 0;
    while i < 27 {
        bounds[i] = 1u64 << (10 + i);
        i += 1;
    }
    bounds
};

/// A fixed-bucket latency histogram (log-2 bucket bounds, nanoseconds).
/// Observations are lock-free; quantiles are estimated at snapshot time as
/// the upper bound of the bucket holding the requested rank.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NANOS.len() + 1],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `nanos`.
    pub fn observe(&self, nanos: u64) {
        let idx = BUCKET_BOUNDS_NANOS
            .iter()
            .position(|&b| nanos <= b)
            .unwrap_or(BUCKET_BOUNDS_NANOS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy with estimated quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return BUCKET_BOUNDS_NANOS
                        .get(i)
                        .copied()
                        .unwrap_or(BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1]);
                }
            }
            BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1]
        };
        HistogramSnapshot {
            count,
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            p50_nanos: quantile(0.50),
            p90_nanos: quantile(0.90),
            p99_nanos: quantile(0.99),
            buckets,
        }
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed nanoseconds.
    pub sum_nanos: u64,
    /// Estimated median (upper bound of the bucket holding the rank).
    pub p50_nanos: u64,
    /// Estimated 90th percentile.
    pub p90_nanos: u64,
    /// Estimated 99th percentile.
    pub p99_nanos: u64,
    /// Per-bucket counts, `BUCKET_BOUNDS_NANOS` order plus the overflow
    /// bucket last.
    pub buckets: Vec<u64>,
}

/// The registry: name → metric. Metrics are registered on first use and
/// leaked, so handles are `&'static` and hot sites can cache them.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, &'static Counter>>,
    gauges: RwLock<BTreeMap<String, &'static Gauge>>,
    histograms: RwLock<BTreeMap<String, &'static Histogram>>,
}

fn intern<M: Default>(map: &RwLock<BTreeMap<String, &'static M>>, name: &str) -> &'static M {
    if let Some(m) = map.read().expect("metrics registry poisoned").get(name) {
        return m;
    }
    let mut w = map.write().expect("metrics registry poisoned");
    w.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(M::default())))
}

impl MetricsRegistry {
    /// The counter named `name`, registered on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, registered on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        intern(&self.histograms, name)
    }

    /// A deterministic (name-sorted) snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global registry.
pub fn registry() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// Shorthand for [`registry()`]`.counter(name)`.
pub fn counter(name: &str) -> &'static Counter {
    registry().counter(name)
}

/// Shorthand for [`registry()`]`.gauge(name)`.
pub fn gauge(name: &str) -> &'static Gauge {
    registry().gauge(name)
}

/// Shorthand for [`registry()`]`.histogram(name)`.
pub fn histogram(name: &str) -> &'static Histogram {
    registry().histogram(name)
}

/// A snapshot of the whole registry, plus any caller-merged counters and
/// gauges (values collected from external counter bags at snapshot time,
/// so collection never mutates global state).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merges an externally-collected monotone total into the snapshot as a
    /// counter (used by the serve layer to fold legacy counter bags —
    /// server, registry, engine-cache, kernel stats — into the unified
    /// plane without writing any global state).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Merges an externally-collected level (a value that can go down) into
    /// the snapshot as a gauge.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`, every
    /// map name-sorted so rendering is deterministic for a fixed state.
    pub fn to_json(&self) -> Value {
        let int_map = |m: &BTreeMap<String, u64>| {
            Value::Object(
                m.iter()
                    .map(|(k, v)| (k.clone(), Value::Int(*v as i128)))
                    .collect(),
            )
        };
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Object(vec![
                            ("count".to_string(), Value::Int(h.count as i128)),
                            ("sum_nanos".to_string(), Value::Int(h.sum_nanos as i128)),
                            ("p50_nanos".to_string(), Value::Int(h.p50_nanos as i128)),
                            ("p90_nanos".to_string(), Value::Int(h.p90_nanos as i128)),
                            ("p99_nanos".to_string(), Value::Int(h.p99_nanos as i128)),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("counters".to_string(), int_map(&self.counters)),
            ("gauges".to_string(), int_map(&self.gauges)),
            ("histograms".to_string(), histograms),
        ])
    }

    /// The snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        crate::prometheus::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let r = MetricsRegistry::default();
        r.counter("t.a").add(3);
        r.counter("t.a").inc();
        r.counter("t.b").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counters["t.a"], 4);
        assert_eq!(snap.counters["t.b"], 1);
    }

    #[test]
    fn histogram_quantiles_track_bucket_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.observe(1_000); // first bucket (<= 1024 ns)
        }
        h.observe(1 << 20); // ~1 ms outlier
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50_nanos, 1024);
        assert_eq!(snap.p90_nanos, 1024);
        assert_eq!(snap.p99_nanos, 1024);
        let h2 = Histogram::default();
        for _ in 0..10 {
            h2.observe(1 << 20);
        }
        assert_eq!(h2.snapshot().p99_nanos, 1 << 20);
    }

    #[test]
    fn overflow_observations_land_in_the_last_bucket() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(*snap.buckets.last().unwrap(), 1);
    }

    #[test]
    fn snapshot_json_is_name_sorted() {
        let r = MetricsRegistry::default();
        r.counter("z.last").inc();
        r.counter("a.first").inc();
        let json = serde_json::to_string(&r.snapshot().to_json()).unwrap();
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
    }

    #[test]
    fn merged_gauges_do_not_touch_global_state() {
        let r = MetricsRegistry::default();
        let mut snap = r.snapshot();
        snap.set_gauge("cache.crit.hits", 7);
        assert_eq!(snap.gauges["cache.crit.hits"], 7);
        assert!(r.snapshot().gauges.is_empty());
    }
}
