//! The traced run: per-layer numbers, measured from outside the program.
//!
//! Nothing inside the program is instrumented. The run
//!
//! 1. drives the first quarter of the workload's timed lines over TCP on
//!    one connection, in the order the in-process replays use, recording
//!    each round trip and checking each answer;
//! 2. replays the same lines in-process through
//!    `qvsec_serve::handle_request` without spans (the untraced replay);
//! 3. replays them again with spans around the calls the benchmark makes
//!    itself — decode, handle, encode — plus the store calls the registry
//!    makes through the benchmark's own `StoreBackend` wrapper, each a
//!    child of the request's handle span;
//! 4. probes every distinct input the workload generated: the front end
//!    (`SessionRegistry::parse`/`parse_sql_single`, `canonical_form`), the
//!    fast check, `CompiledArtifacts::crit` on fresh artifacts, and
//!    `ProbKernel::evaluate` on a fresh kernel, cold then warm.
//!
//! Counts come from `metrics`-op deltas and response fields. Spans are kept
//! in memory and written out when the run ends. A span's self time is its
//! duration minus its children's; per request, the self times of every
//! layer plus `other` (the request span's own self time) sum exactly to the
//! traced total, which the run verifies.

use crate::check::{self, Tally};
use crate::gen::{Class, Expect, Plan, Req};
use crate::util::{median, percentile, sorted, Metric};
use crate::{prep, start, timed_blocks, write_spec, Args, Report};
use qvsec::engine::{AuditDepth, AuditEngine, CacheStatsSnapshot};
use qvsec_cq::{canonical_form, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Ratio, Schema};
use qvsec_serve::{SessionRegistry, WireRequest, NS_JOURNAL};
use qvsec_store::{StoreBackend, StoreOp};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The TCP pass covers the first 1/`TCP_SHARE` of the timed lines.
const TCP_SHARE: usize = 4;
/// Blocks the TCP pass is split into (answers are checked between them).
const TCP_BLOCKS: usize = 4;
/// Repeats of each front-end and fast-check probe (the median is kept).
const PROBE_REPEATS: usize = 3;
/// Tail percentile over probe timings of distinct inputs.
const PROBE_TAIL: f64 = 90.0;
/// Tail percentile of journal appends.
const APPEND_TAIL: f64 = 90.0;

// ---------------------------------------------------------------------------
// Spans.

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    request: u32,
}

/// In-memory span recorder. `current` names the request and handle span
/// the store wrapper's spans belong to while a request is in the program.
#[derive(Debug)]
struct Recorder {
    base: Instant,
    spans: Mutex<Vec<SpanRec>>,
    current: Mutex<Option<(u32, u32)>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: Mutex::new(None),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: u32, request: u32) -> u32 {
        let mut spans = self.spans.lock().expect("spans");
        spans.push(SpanRec {
            name,
            start: self.now(),
            end: 0,
            parent,
            request,
        });
        (spans.len() - 1) as u32
    }

    fn close(&self, id: u32) {
        let end = self.now();
        self.spans.lock().expect("spans")[id as usize].end = end;
    }

    /// Opens a child of the current request's handle span, if a request
    /// is in flight.
    fn open_store(&self, name: &'static str) -> Option<u32> {
        let current = *self.current.lock().expect("current");
        current.map(|(request, parent)| self.open(name, parent, request))
    }
}

// ---------------------------------------------------------------------------
// The store wrapper.

/// What the wrapper saw of the store directory.
#[derive(Debug, Default, Clone)]
struct StoreObs {
    appended_bytes: u64,
    compactions: u64,
    rewritten_bytes: u64,
    /// Namespace file → (inode, length) after the last append.
    files: HashMap<PathBuf, (u64, u64)>,
}

/// Times every call into the real store and watches its directory: a
/// namespace file whose inode changes across an append was rewritten by
/// compaction (the log store replaces the file by rename).
#[derive(Debug)]
struct TimedStore {
    inner: Arc<dyn StoreBackend>,
    root: PathBuf,
    rec: Arc<Recorder>,
    obs: Mutex<StoreObs>,
}

/// The log store's file name for a namespace.
fn ns_file(root: &Path, ns: &str) -> PathBuf {
    let mut name = String::new();
    for b in ns.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => name.push(b as char),
            other => {
                let _ = write!(name, "%{other:02x}");
            }
        }
    }
    root.join(format!("{name}.log"))
}

impl TimedStore {
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.rec.open_store(name);
        let out = f();
        if let Some(id) = span {
            self.rec.close(id);
        }
        out
    }
}

impl StoreBackend for TimedStore {
    fn get(&self, ns: &str, key: &str) -> qvsec_store::Result<Option<Vec<u8>>> {
        self.timed("store.get", || self.inner.get(ns, key))
    }

    fn scan(&self, ns: &str) -> qvsec_store::Result<Vec<(String, Vec<u8>)>> {
        self.timed("store.scan", || self.inner.scan(ns))
    }

    fn append_batch(&self, ns: &str, ops: Vec<StoreOp>) -> qvsec_store::Result<()> {
        let bytes: usize = ops
            .iter()
            .map(|op| match op {
                StoreOp::Put { key, value } => key.len() + value.len(),
                StoreOp::Delete { key } => key.len(),
            })
            .sum();
        let name = if ns == NS_JOURNAL {
            "journal.append"
        } else {
            "store.append"
        };
        let out = self.timed(name, || self.inner.append_batch(ns, ops));
        let path = ns_file(&self.root, ns);
        let mut obs = self.obs.lock().expect("obs");
        obs.appended_bytes += bytes as u64;
        if let Ok(meta) = std::fs::metadata(&path) {
            let now = (meta.ino(), meta.len());
            if let Some(before) = obs.files.insert(path, now) {
                if before.0 != now.0 {
                    obs.compactions += 1;
                    obs.rewritten_bytes += now.1;
                }
            }
        }
        out
    }

    fn flush(&self) -> qvsec_store::Result<()> {
        self.timed("store.flush", || self.inner.flush())
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

// ---------------------------------------------------------------------------
// Building the registry the way `qvsec_cli::build_registry` does, over a
// caller-supplied store.

fn registry_over(spec_text: &str, store: Arc<dyn StoreBackend>) -> Result<SessionRegistry, String> {
    let spec = qvsec_cli::parse_serve_spec(spec_text).map_err(|e| e.to_string())?;
    let mut schema = Schema::new();
    for rel in &spec.relations {
        let attrs: Vec<&str> = rel.attributes.iter().map(String::as_str).collect();
        schema
            .try_add_relation(&rel.name, &attrs)
            .map_err(|e| e.to_string())?;
    }
    let domain = match &spec.constants {
        Some(constants) => Domain::with_constants(constants),
        None => Domain::new(),
    };
    let defaults = spec.defaults.clone().unwrap_or_default();
    let mut builder =
        AuditEngine::builder(schema.clone(), domain.clone()).store(Arc::clone(&store));
    if let Some(depth) = &defaults.depth {
        builder = builder.default_depth(match depth.to_ascii_lowercase().as_str() {
            "fast" => AuditDepth::Fast,
            "exact" => AuditDepth::Exact,
            _ => AuditDepth::Probabilistic,
        });
    }
    if let Some((n, d)) = defaults.minute_threshold {
        builder = builder.minute_threshold(Ratio::new(n, d));
    }
    if let Some(cap) = defaults.candidate_cap {
        builder = builder.candidate_cap(cap);
    }
    if let Some(total) = spec.cache_budget_bytes {
        builder = builder.cache_budget_bytes(total);
    }
    if let Some(cap) = spec.report_cap {
        builder = builder.report_cap(cap);
    }
    if let Some(dict) = &spec.dictionary {
        let (n, d) = dict.probability.unwrap_or((1, 2));
        let space =
            qvsec_data::TupleSpace::full_with_cap(&schema, &domain, dict.cap.unwrap_or(4096))
                .map_err(|e| e.to_string())?;
        builder = builder
            .dictionary(Dictionary::uniform(space, Ratio::new(n, d)).map_err(|e| e.to_string())?);
        if let Some(cutover) = dict.exact_cutover {
            builder = builder.exact_cutover(cutover);
        }
        if let Some(samples) = dict.samples {
            builder = builder.mc_samples(samples);
        }
        if let Some(seed) = dict.seed {
            builder = builder.mc_seed(seed);
        }
        if let (None, Some(cap)) = (spec.report_cap, dict.report_cap) {
            builder = builder.report_cap(cap);
        }
    }
    let config = qvsec_serve::RegistryConfig {
        shards: spec.shards.unwrap_or(16),
        idle_timeout: spec.idle_timeout_secs.map(Duration::from_secs),
    };
    SessionRegistry::with_store(Arc::new(builder.build()), config, store).map_err(|e| e.to_string())
}

/// A fresh in-process registry for one replay: over a fresh copy of the
/// prepared store (wrapped when `rec` is given) for the durable workload,
/// in memory otherwise. Returns the registry, the wrapper, and the build
/// time (rehydration included).
fn fresh_registry(
    plan: &Plan,
    prepared: Option<&Path>,
    dir: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Result<(SessionRegistry, Option<Arc<TimedStore>>, Duration), String> {
    let Some(src) = prepared else {
        let t0 = Instant::now();
        let registry = check::registry_for(&plan.spec)?;
        return Ok((registry, None, t0.elapsed()));
    };
    let _ = std::fs::remove_dir_all(dir);
    crate::drive::copy_dir(src, dir).map_err(|e| format!("store copy: {e}"))?;
    let t0 = Instant::now();
    let log: Arc<dyn StoreBackend> = Arc::new(
        qvsec_store::LogStore::open(dir.to_path_buf(), qvsec_store::DEFAULT_COMPACT_THRESHOLD)
            .map_err(|e| format!("store open: {e}"))?,
    );
    let (store, timed): (Arc<dyn StoreBackend>, _) = match rec {
        Some(rec) => {
            let mut files = HashMap::new();
            for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
                if let Ok(meta) = entry.metadata() {
                    files.insert(entry.path(), (meta.ino(), meta.len()));
                }
            }
            let timed = Arc::new(TimedStore {
                inner: log,
                root: dir.to_path_buf(),
                rec: Arc::clone(rec),
                obs: Mutex::new(StoreObs {
                    files,
                    ..StoreObs::default()
                }),
            });
            (Arc::clone(&timed) as Arc<dyn StoreBackend>, Some(timed))
        }
        None => (log, None),
    };
    let registry = registry_over(&plan.spec, store)?;
    Ok((registry, timed, t0.elapsed()))
}

fn warm_up(registry: &SessionRegistry, plan: &Plan) -> Result<(), String> {
    for req in plan.merged_warmup() {
        let (response, _) = qvsec_serve::handle_request(registry, &req.line);
        if response.field("ok") != &serde_json::Value::Bool(true) {
            return Err(format!("warm-up request `{}` failed", req.line));
        }
    }
    Ok(())
}

fn metrics_gauges(registry: &SessionRegistry) -> BTreeMap<String, u64> {
    let (response, _) = qvsec_serve::handle_request(registry, r#"{"op": "metrics"}"#);
    let mut out = BTreeMap::new();
    for section in ["counters", "gauges"] {
        if let Some(entries) = response.field("metrics").field(section).as_object() {
            for (k, v) in entries {
                out.insert(k.clone(), v.as_int().unwrap_or(0) as u64);
            }
        }
    }
    out
}

/// The raw value after `"key":` at or after `marker` in a compact JSON line.
fn scan_after<'a>(text: &'a str, marker: &str, key: &str) -> Option<&'a str> {
    let from = text.find(marker)?;
    let pattern = format!("\"{key}\":");
    let at = from + text[from..].find(&pattern)? + pattern.len();
    let rest = &text[at..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(&rest[..end])
}

// ---------------------------------------------------------------------------
// The run.

struct TracedRequest {
    class: Class,
    cold: bool,
    response_bytes: usize,
    pairs_checked: Option<u64>,
}

pub fn run(args: &Args, plan: &Plan, run_dir: &Path) -> Result<Report, String> {
    let spec = write_spec(plan, run_dir)?;
    let prepared = if plan.durable {
        Some(prep::prepared_store(&args.work, &args.server)?)
    } else {
        None
    };
    let merged: Vec<Req> = plan.merged_timed().into_iter().cloned().collect();
    let refs = check::references(plan, merged.iter())?;

    // 1. TCP round trips of the first `TCP_SHARE` of the lines, one
    // connection, merged order (their answers are the run's checks).
    let (server, _) = start(args, plan, &spec, prepared.as_deref(), run_dir, 0)?;
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let lists = [&merged[..merged.len() / TCP_SHARE]];
    let blocks = timed_blocks(
        &server.addr,
        &lists,
        TCP_BLOCKS,
        &refs,
        &mut tally,
        &mut notes,
    )?;
    let rtt: Vec<Option<u64>> = blocks
        .iter()
        .flat_map(|b| b.latency_ns[0].iter().copied())
        .collect();
    drop(blocks);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    // 2. Untraced in-process replay.
    let (registry, _, _) = fresh_registry(
        plan,
        prepared.as_deref(),
        &run_dir.join("store-untraced"),
        None,
    )?;
    warm_up(&registry, plan)?;
    let mut handled = Vec::with_capacity(merged.len());
    let t0 = Instant::now();
    for req in &merged {
        let t = Instant::now();
        let (response, _) = qvsec_serve::handle_request(&registry, &req.line);
        black_box(
            serde_json::to_string(&response)
                .map(|s| s.len())
                .unwrap_or(0),
        );
        handled.push(t.elapsed().as_nanos() as u64);
    }
    let untraced_wall = t0.elapsed();
    drop(registry);

    // 3. Traced in-process replay.
    let rec = Arc::new(Recorder::new());
    let (registry, store, rehydrate) = fresh_registry(
        plan,
        prepared.as_deref(),
        &run_dir.join("store-traced"),
        Some(&rec),
    )?;
    warm_up(&registry, plan)?;
    let engine = Arc::clone(registry.engine());
    let probabilistic = engine.dictionary().is_some();
    let gauges_before = metrics_gauges(&registry);
    let obs_before = store.as_ref().map(|s| s.obs.lock().expect("obs").clone());
    let first_span = rec.spans.lock().expect("spans").len();
    let mut traced = Vec::with_capacity(merged.len());
    let t0 = Instant::now();
    for (i, req) in merged.iter().enumerate() {
        let i = i as u32;
        let before = engine.cache_stats();
        let root = rec.open("request", NO_PARENT, i);
        let decode = rec.open("protocol.decode", root, i);
        let decoded =
            serde_json::parse(&req.line).and_then(|v| serde_json::from_value::<WireRequest>(&v));
        black_box(decoded.is_ok());
        rec.close(decode);
        let handle = rec.open("serve.handle", root, i);
        *rec.current.lock().expect("current") = Some((i, handle));
        let (response, _) = qvsec_serve::handle_request(&registry, &req.line);
        *rec.current.lock().expect("current") = None;
        rec.close(handle);
        let encode = rec.open("protocol.encode", root, i);
        let text = serde_json::to_string(&response).unwrap_or_default();
        rec.close(encode);
        rec.close(root);
        let delta = engine.cache_stats().delta_since(&before);
        traced.push(TracedRequest {
            class: req.class,
            cold: is_cold(&delta, probabilistic),
            response_bytes: text.len(),
            pairs_checked: scan_after(&text, "\"leakage\":", "pairs_checked")
                .and_then(|v| v.parse().ok()),
        });
    }
    let traced_wall = t0.elapsed();
    let gauges_after = metrics_gauges(&registry);
    let obs_after = store.as_ref().map(|s| s.obs.lock().expect("obs").clone());
    drop(registry);
    let spans: Vec<SpanRec> = rec.spans.lock().expect("spans")[first_span..]
        .iter()
        .map(|s| SpanRec {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent - first_span as u32
            },
            ..*s
        })
        .collect();

    // Self times per layer; per request they must sum to the total.
    let selfs = self_times(&spans, merged.len())?;
    let path = write_spans(args, plan, &spans)?;
    notes.push(format!(
        "spans: {} written to {}",
        spans.len(),
        path.display()
    ));
    let total: u64 = selfs.values().sum();
    for (layer, ns) in &selfs {
        notes.push(format!(
            "self {layer:<16} {:>10.3} ms  {:>6.2}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        ));
    }

    // Span durations by name.
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in &spans {
        by_name
            .entry(s.name)
            .or_default()
            .push((s.end - s.start) as f64);
    }
    let dur = |name: &str| sorted(by_name.get(name).cloned().unwrap_or_default());

    let mut m = Vec::new();
    // serve::server
    let overhead: Vec<f64> = rtt
        .iter()
        .zip(&handled)
        .filter_map(|(r, h)| r.map(|r| r as f64 - *h as f64))
        .collect();
    m.push(Metric::new(
        "server.rtt_overhead_p50_us",
        median(&overhead) / 1e3,
        "us",
    ));
    // serve::protocol
    m.push(Metric::new(
        "protocol.decode_p50_us",
        percentile(&dur("protocol.decode"), 50.0) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "protocol.encode_p50_us",
        percentile(&dur("protocol.encode"), 50.0) / 1e3,
        "us",
    ));
    let bytes: usize = traced.iter().map(|t| t.response_bytes).sum();
    m.push(Metric::new(
        "protocol.response_bytes_mean",
        bytes as f64 / traced.len().max(1) as f64,
        "bytes",
    ));

    // sql, cq, fast_check, critical, kernel probes.
    let probes = probe(plan, &merged)?;
    m.extend(probes.front_end);

    // serve::registry + core::session
    let handle_us = |cold: bool| -> Vec<f64> {
        let mut out = Vec::new();
        let handle_spans: Vec<&SpanRec> =
            spans.iter().filter(|s| s.name == "serve.handle").collect();
        for (t, s) in traced.iter().zip(handle_spans) {
            if matches!(t.class, Class::Publish | Class::Candidate) && t.cold == cold {
                out.push((s.end - s.start) as f64 / 1e3);
            }
        }
        sorted(out)
    };
    let warm = handle_us(false);
    let cold = handle_us(true);
    m.push(
        Metric::new("registry.warm_p50_us", percentile(&warm, 50.0), "us")
            .noted(format!("n={}", warm.len())),
    );
    m.push(
        Metric::new("registry.cold_p50_ms", percentile(&cold, 50.0) / 1e3, "ms")
            .noted(format!("n={}", cold.len())),
    );
    let audits = warm.len() + cold.len();
    m.push(Metric::new(
        "registry.cold_share",
        cold.len() as f64 / audits.max(1) as f64,
        "ratio",
    ));
    m.extend(probes.fast_check);

    // core::critical, prob::kernel, core::artifacts
    let delta = |k: &str| {
        gauges_after
            .get(k)
            .copied()
            .unwrap_or(0)
            .saturating_sub(gauges_before.get(k).copied().unwrap_or(0)) as f64
    };
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    m.extend(probes.critical);
    m.push(Metric::new(
        "cache.crit.hit_ratio",
        ratio(delta("cache.crit.hits"), delta("cache.crit.misses")),
        "ratio",
    ));
    m.extend(probes.kernel);
    m.push(Metric::new(
        "kernel.samples_drawn",
        delta("kernel.mc.samples_drawn"),
        "count",
    ));
    m.push(Metric::new(
        "kernel.samples_reused",
        delta("kernel.mc.samples_reused"),
        "count",
    ));
    let pairs: Vec<f64> = traced
        .iter()
        .filter_map(|t| t.pairs_checked.map(|p| p as f64))
        .collect();
    m.push(Metric::new(
        "kernel.pairs_checked_mean",
        pairs.iter().fold(0.0, |a, b| a + b) / pairs.len().max(1) as f64,
        "count",
    ));
    m.push(Metric::new(
        "kernel.compile.hit_ratio",
        ratio(
            delta("cache.compile.hits"),
            delta("kernel.queries_compiled"),
        ),
        "ratio",
    ));
    m.push(Metric::new(
        "artifacts.hit_ratio",
        ratio(
            delta("cache.crit.hits") + delta("cache.space.hits"),
            delta("cache.crit.misses") + delta("cache.space.misses"),
        ),
        "ratio",
    ));
    m.push(Metric::new(
        "artifacts.evictions",
        delta("cache.evictions"),
        "count",
    ));
    m.push(Metric::new(
        "artifacts.resident_bytes",
        gauges_after
            .get("cache.resident_bytes")
            .copied()
            .unwrap_or(0) as f64,
        "bytes",
    ));

    // serve::journal + store::log
    let appends = dur("journal.append");
    m.push(
        Metric::new(
            "journal.append_p50_ms",
            percentile(&appends, 50.0) / 1e6,
            "ms",
        )
        .noted(format!("n={}", appends.len())),
    );
    m.push(
        Metric::new(
            "journal.append_tail_ms",
            percentile(&appends, APPEND_TAIL) / 1e6,
            "ms",
        )
        .noted(format!("p{APPEND_TAIL}")),
    );
    let (appended, compactions, rewritten) = match (&obs_before, &obs_after) {
        (Some(a), Some(b)) => (
            b.appended_bytes - a.appended_bytes,
            b.compactions - a.compactions,
            b.rewritten_bytes - a.rewritten_bytes,
        ),
        _ => (0, 0, 0),
    };
    m.push(Metric::new(
        "store.bytes_per_request",
        appended as f64 / merged.len().max(1) as f64,
        "bytes",
    ));
    m.push(Metric::new(
        "store.compactions",
        compactions as f64,
        "count",
    ));
    m.push(Metric::new(
        "store.rewritten_mb",
        rewritten as f64 / (1 << 20) as f64,
        "MiB",
    ));
    m.push(Metric::new(
        "store.flush_p50_ms",
        percentile(&dur("store.flush"), 50.0) / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "store.rehydrate_s",
        if plan.durable {
            rehydrate.as_secs_f64()
        } else {
            0.0
        },
        "s",
    ));

    // obs / unattributed
    m.push(
        Metric::new(
            "trace.overhead_ratio",
            traced_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
            "ratio",
        )
        .noted(format!(
            "traced {:.3}s / untraced {:.3}s",
            traced_wall.as_secs_f64(),
            untraced_wall.as_secs_f64()
        )),
    );
    m.push(Metric::new(
        "other.self_share",
        selfs.get("other").copied().unwrap_or(0) as f64 / total.max(1) as f64,
        "ratio",
    ));
    Ok(Report {
        tally,
        metrics: m,
        notes,
    })
}

/// Whether an audit ran cold: on a probabilistic engine, it missed the
/// whole-audit memo; on an exact one, it computed a crit set or space.
fn is_cold(delta: &CacheStatsSnapshot, probabilistic: bool) -> bool {
    if probabilistic {
        delta.kernel_audit_hits == 0
    } else {
        delta.crit_cache_misses + delta.space_cache_misses > 0
    }
}

/// Self time per layer, summed over all requests; errors when a request's
/// self times do not sum to its traced total. `spans` holds every span of
/// the traced window, parents indexed within it.
fn self_times(spans: &[SpanRec], requests: usize) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut child_time = vec![0u64; spans.len()];
    let mut roots = vec![None; requests];
    for (id, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            roots[s.request as usize] = Some(id);
        } else {
            child_time[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut per_request = vec![0u64; requests];
    for (id, s) in spans.iter().enumerate() {
        let own = (s.end - s.start)
            .checked_sub(child_time[id])
            .ok_or_else(|| format!("span {id} ({}) is shorter than its children", s.name))?;
        let layer = if s.parent == NO_PARENT {
            "other"
        } else {
            s.name
        };
        *out.entry(layer).or_default() += own;
        per_request[s.request as usize] += own;
    }
    for (r, root) in roots.iter().enumerate() {
        let root = root.ok_or_else(|| format!("request {r} has no span"))?;
        let total = spans[root].end - spans[root].start;
        if per_request[r] != total {
            return Err(format!(
                "request {r}: self times sum to {} ns, traced total is {total} ns",
                per_request[r]
            ));
        }
    }
    Ok(out)
}

fn write_spans(args: &Args, plan: &Plan, spans: &[SpanRec]) -> Result<PathBuf, String> {
    let dir = args.work.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("traces dir: {e}"))?;
    let path = dir.join(format!("{}.spans.jsonl", plan.workload));
    let mut text = String::with_capacity(spans.len() * 80);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            text,
            r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
            s.name, s.start, s.end, s.request
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("write spans: {e}"))?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Probes over the distinct inputs of the workload.

struct Probes {
    front_end: Vec<Metric>,
    fast_check: Vec<Metric>,
    critical: Vec<Metric>,
    kernel: Vec<Metric>,
}

/// Median wall time of `repeats` calls, in nanoseconds.
fn time_ns<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// A string field of a generated request line (`"key": "value"`).
fn line_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": \"");
    let at = line.find(&pattern)? + pattern.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

fn probe(plan: &Plan, merged: &[Req]) -> Result<Probes, String> {
    let registry = check::registry_for(&plan.spec)?;
    let engine = Arc::clone(registry.engine());
    let queries = check::parse_queries(&registry, plan)?;

    // Front end: every distinct query text, in either spelling.
    let mut datalog: HashSet<&str> = HashSet::new();
    let mut sql: HashSet<(&str, &str)> = HashSet::new();
    for req in merged {
        if line_field(&req.line, "op") == Some("sql") {
            continue;
        }
        for key in ["view", "secret"] {
            datalog.extend(line_field(&req.line, key));
        }
        if let Some(text) = line_field(&req.line, "sql") {
            sql.insert((text, line_field(&req.line, "name").unwrap_or("V")));
        }
        if let Some(text) = line_field(&req.line, "secret_sql") {
            sql.insert((text, line_field(&req.line, "secret_name").unwrap_or("S")));
        }
    }
    let mut parsed: Vec<ConjunctiveQuery> = Vec::new();
    let mut parse_ns = Vec::new();
    for text in &datalog {
        parse_ns.push(time_ns(PROBE_REPEATS, || registry.parse(text).is_ok()));
        parsed.push(registry.parse(text).map_err(|e| e.to_string())?);
    }
    let mut compile_ns = Vec::new();
    for (text, name) in &sql {
        compile_ns.push(time_ns(PROBE_REPEATS, || {
            registry.parse_sql_single(text, name).is_ok()
        }));
        parsed.push(
            registry
                .parse_sql_single(text, name)
                .map_err(|e| e.to_string())?,
        );
    }
    let canonical_ns: Vec<f64> = parsed
        .iter()
        .map(|q| time_ns(PROBE_REPEATS, || canonical_form(q)))
        .collect();
    let p50_us = |v: Vec<f64>| percentile(&sorted(v), 50.0) / 1e3;
    let front_end = vec![
        Metric::new("sql.compile_p50_us", p50_us(compile_ns), "us")
            .noted(format!("{} distinct", sql.len())),
        Metric::new("cq.parse_p50_us", p50_us(parse_ns), "us")
            .noted(format!("{} distinct", datalog.len())),
        Metric::new("cq.canonicalize_p50_us", p50_us(canonical_ns), "us"),
    ];

    // Distinct audit inputs.
    let inputs: Vec<&Vec<u16>> = merged
        .iter()
        .filter_map(|r| match &r.expect {
            Expect::Audit(input) => Some(input),
            _ => None,
        })
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let audit_of = |input: &[u16]| {
        let views: Vec<ConjunctiveQuery> = input[1..]
            .iter()
            .map(|i| queries[*i as usize].clone())
            .collect();
        (
            queries[input[0] as usize].clone(),
            ViewSet::from_views(views),
        )
    };

    let mut fast_ns = Vec::new();
    let mut settled = 0;
    for input in &inputs {
        let (secret, views) = audit_of(input);
        fast_ns.push(time_ns(PROBE_REPEATS, || {
            qvsec::fast_check(&secret, &views)
        }));
        settled += qvsec::fast_check(&secret, &views).is_certainly_secure() as usize;
    }
    let fast_check = vec![
        Metric::new("fast_check.p50_us", p50_us(fast_ns), "us")
            .noted(format!("{} distinct audits", inputs.len())),
        Metric::new(
            "fast_check.settled_share",
            settled as f64 / inputs.len().max(1) as f64,
            "ratio",
        ),
    ];

    // crit(Q) on fresh artifacts, once per distinct (query, active domain).
    let mut seen = HashSet::new();
    let mut crit_ns = Vec::new();
    for input in &inputs {
        let (secret, views) = audit_of(input);
        let active = qvsec::security::active_domain(&secret, &views, engine.domain());
        for id in input.iter() {
            if !seen.insert((*id, active.len())) {
                continue;
            }
            let artifacts = qvsec::CompiledArtifacts::new();
            let q = &queries[*id as usize];
            let t = Instant::now();
            artifacts
                .crit(q, &active, qvsec::critical::DEFAULT_CANDIDATE_CAP)
                .map_err(|e| format!("crit probe: {e}"))?;
            crit_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    let crit_ns = sorted(crit_ns);
    let critical = vec![
        Metric::new(
            "critical.cold_p50_us",
            percentile(&crit_ns, 50.0) / 1e3,
            "us",
        )
        .noted(format!("n={}", crit_ns.len())),
        Metric::new(
            "critical.cold_tail_us",
            percentile(&crit_ns, PROBE_TAIL) / 1e3,
            "us",
        )
        .noted(format!("p{PROBE_TAIL}")),
    ];

    // The probabilistic kernel: a fresh kernel per distinct input, cold
    // then warm (a whole-audit memo hit).
    let mut cold_ms = Vec::new();
    let mut warm_us = Vec::new();
    let mut by_depth: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    if let Some(dict) = engine.dictionary() {
        let spec = qvsec_cli::parse_serve_spec(&plan.spec).map_err(|e| e.to_string())?;
        let dict_spec = spec.dictionary.expect("dictionary");
        let defaults = qvsec_prob::KernelConfig::default();
        let config = qvsec_prob::KernelConfig {
            samples: dict_spec.samples.unwrap_or(defaults.samples),
            seed: dict_spec.seed.unwrap_or(defaults.seed),
            exact_cutover: dict_spec.exact_cutover.unwrap_or(defaults.exact_cutover),
            report_cap: spec.report_cap.or(dict_spec.report_cap),
            audit_memo: true,
            ..defaults
        };
        let dict = Arc::new(dict.clone());
        for input in &inputs {
            let (secret, views) = audit_of(input);
            let kernel = qvsec_prob::ProbKernel::new(Arc::clone(&dict), config);
            let t = Instant::now();
            kernel
                .evaluate(&secret, &views)
                .map_err(|e| format!("kernel probe: {e}"))?;
            let cold = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            kernel
                .evaluate(&secret, &views)
                .map_err(|e| format!("kernel probe: {e}"))?;
            warm_us.push(t.elapsed().as_secs_f64() * 1e6);
            cold_ms.push(cold);
            by_depth.entry(views.len()).or_default().push(cold);
        }
    }
    let cold_ms = sorted(cold_ms);
    let mut kernel = vec![
        Metric::new("kernel.cold_p50_ms", percentile(&cold_ms, 50.0), "ms")
            .noted(format!("n={}", cold_ms.len())),
        Metric::new(
            "kernel.cold_tail_ms",
            percentile(&cold_ms, PROBE_TAIL),
            "ms",
        )
        .noted(format!("p{PROBE_TAIL}")),
        Metric::new(
            "kernel.warm_p50_us",
            percentile(&sorted(warm_us), 50.0),
            "us",
        ),
    ];
    for k in 1..=crate::gen::DEEP_K {
        let at = by_depth.get(&k).map(|v| median(v)).unwrap_or(0.0);
        let n = by_depth.get(&k).map_or(0, Vec::len);
        kernel.push(Metric::new(format!("kernel.depth_ms.k{k}"), at, "ms").noted(format!("n={n}")));
    }
    Ok(Probes {
        front_end,
        fast_check,
        critical,
        kernel,
    })
}
