//! The serve-layer telemetry bridge.
//!
//! [`collect_metrics`] folds the workspace's legacy counter bags — the
//! server's connection counters, the registry's lifecycle accounting and
//! the engine's cache statistics — into one [`MetricsSnapshot`] alongside
//! the process-global counters and span histograms, under the same dotted
//! naming scheme (`serve.*`, `registry.*`, `cache.*`, `kernel.*`,
//! `store.*`). Monotone totals (hits, misses, evictions, requests served,
//! connections accepted, ...) are merged as counters, so Prometheus
//! `rate()` applies to them; levels (tenants, shards, resident bytes,
//! active connections, queue depth, journal size) are merged as gauges.
//! Both go *into the snapshot copy*, so collection never mutates global
//! state and two back-to-back scrapes of a quiesced server render
//! identical text.
//!
//! [`serve_metrics_http`] exposes that snapshot in Prometheus text
//! exposition format over a minimal HTTP/1.1 listener, for `--metrics-addr`.

use crate::registry::SessionRegistry;
use crate::server::ServerCounters;
use qvsec_obs::MetricsSnapshot;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;

/// One unified snapshot: the global obs registry (counters + span
/// histograms) plus every legacy counter bag merged in as counters (totals)
/// or gauges (levels).
pub fn collect_metrics(
    registry: &SessionRegistry,
    counters: Option<&ServerCounters>,
) -> MetricsSnapshot {
    let mut snap = qvsec_obs::registry().snapshot();

    let stats = registry.stats();
    snap.set_gauge("registry.tenants", stats.tenants.len() as u64);
    snap.set_gauge("registry.shards", stats.shard_count as u64);
    snap.set_counter("registry.requests_served", stats.requests_served);
    snap.set_counter("registry.sessions_expired", stats.sessions_expired);
    snap.set_gauge("store.journal.records", stats.journal_records);
    snap.set_gauge("store.journal.bytes", stats.journal_bytes);

    let cache = &stats.engine_cache;
    snap.set_counter("cache.crit.hits", cache.crit_cache_hits);
    snap.set_counter("cache.crit.misses", cache.crit_cache_misses);
    snap.set_counter("cache.space.hits", cache.space_cache_hits);
    snap.set_counter("cache.space.misses", cache.space_cache_misses);
    snap.set_counter("cache.class.reused", cache.class_verdicts_reused);
    snap.set_counter("cache.compile.hits", cache.compile_cache_hits);
    snap.set_counter("cache.evictions", cache.evictions);
    snap.set_counter("cache.evicted_bytes", cache.evicted_bytes);
    snap.set_gauge("cache.resident_bytes", cache.resident_bytes);
    snap.set_counter("kernel.queries_compiled", cache.queries_compiled);
    snap.set_counter("kernel.mc.samples_drawn", cache.mc_samples_drawn);
    snap.set_counter("kernel.mc.samples_reused", cache.mc_samples_reused);
    snap.set_counter("kernel.pool.columns_built", cache.pool_columns_built);
    snap.set_counter("kernel.pool.column_hits", cache.pool_column_hits);
    snap.set_counter("kernel.audit.hits", cache.kernel_audit_hits);

    if let Some(counters) = counters {
        let s = counters.snapshot();
        snap.set_counter("serve.connections.accepted", s.accepted);
        snap.set_counter("serve.connections.rejected_busy", s.rejected_busy);
        snap.set_gauge("serve.connections.active", s.active_connections);
        snap.set_counter("serve.connections.dropped_idle", s.dropped_idle);
        snap.set_counter(
            "serve.connections.closed_request_limit",
            s.closed_request_limit,
        );
        snap.set_counter("serve.connections.closed_byte_limit", s.closed_byte_limit);
        snap.set_counter("serve.requests_pipelined", s.requests_pipelined);
        snap.set_counter("serve.responses_written", s.responses_written);
        snap.set_gauge("serve.queue_depth", s.queue_depth);
        snap.set_gauge("serve.inflight_peak", s.inflight_peak);
    }

    snap
}

/// Answers one HTTP exchange on `stream`: any well-formed GET gets a
/// `200 text/plain` Prometheus exposition; anything else gets a 400/405.
fn answer_scrape(
    stream: TcpStream,
    registry: &SessionRegistry,
    counters: &ServerCounters,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients see a clean close.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut stream = reader.into_inner();
    let (status, body) = match request_line.split_whitespace().next() {
        Some("GET") => (
            "200 OK",
            collect_metrics(registry, Some(counters)).to_prometheus(),
        ),
        Some(_) => ("405 Method Not Allowed", String::from("GET only\n")),
        None => ("400 Bad Request", String::from("empty request\n")),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Binds `addr` and serves Prometheus scrapes on a detached thread for the
/// life of the process. Returns the bound address (so `:0` works in tests).
///
/// The scrape plane is deliberately independent of the NDJSON server: it
/// holds only `Arc`s, never touches tenant state, and cannot perturb any
/// response byte.
pub fn serve_metrics_http(
    addr: impl ToSocketAddrs,
    registry: Arc<SessionRegistry>,
    counters: Arc<ServerCounters>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    thread::Builder::new()
        .name("qvsec-metrics-http".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // One scrape at a time: scrapes are tiny and serializing
                // them keeps the plane at a single extra thread.
                let _ = answer_scrape(stream, &registry, &counters);
            }
        })?;
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec::engine::AuditEngine;
    use qvsec_data::{Domain, Schema};
    use std::io::Read;

    fn sample_registry() -> SessionRegistry {
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        let engine = Arc::new(AuditEngine::builder(schema, Domain::new()).build());
        SessionRegistry::new(engine)
    }

    #[test]
    fn collect_merges_legacy_bags_as_gauges() {
        let registry = sample_registry();
        let snap = collect_metrics(&registry, None);
        assert_eq!(snap.gauges["registry.tenants"], 0);
        assert!(snap.counters.contains_key("cache.crit.hits"));
        assert!(snap.counters.contains_key("kernel.mc.samples_drawn"));
        assert!(
            !snap.counters.contains_key("serve.requests_pipelined"),
            "server counters only appear when counters are supplied"
        );
    }

    #[test]
    fn http_endpoint_serves_prometheus_text() {
        let registry = Arc::new(sample_registry());
        let counters = Arc::new(ServerCounters::default());
        let addr = serve_metrics_http("127.0.0.1:0", registry, counters).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("text/plain"));
        assert!(body.contains("qvsec_registry_tenants 0"));
        assert!(body.contains("# TYPE qvsec_registry_requests_served counter\n"));
        assert!(body.contains("# TYPE qvsec_registry_tenants gauge\n"));
    }

    #[test]
    fn non_get_requests_are_refused() {
        let registry = Arc::new(sample_registry());
        let counters = Arc::new(ServerCounters::default());
        let addr = serve_metrics_http("127.0.0.1:0", registry, counters).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 405"));
    }
}
