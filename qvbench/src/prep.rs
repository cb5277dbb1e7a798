//! The untimed preparation of `durable_restart`: a log store whose tenant
//! journal has passed `LogStore`'s compaction threshold, built once per
//! server binary by the same registry code the server runs.

use crate::gen;
use crate::util::{fnv1a, FNV_OFFSET};
use std::path::{Path, PathBuf};

/// Mixed into the cache key of prepared stores.
const HISTORY_VERSION: u64 = 1;

/// The prepared store for `server`, built under `work` on first use and
/// reused by every later run of the same binaries.
pub fn prepared_store(work: &Path, server: &Path) -> Result<PathBuf, String> {
    // Keyed by both binaries: the server's code and the history's generator.
    let mut key = FNV_OFFSET ^ HISTORY_VERSION;
    for binary in [
        server.to_path_buf(),
        std::env::current_exe().map_err(|e| e.to_string())?,
    ] {
        let bytes =
            std::fs::read(&binary).map_err(|e| format!("read {}: {e}", binary.display()))?;
        key = fnv1a(&bytes, key);
    }
    let dir = work.join(format!("prep-{key:016x}"));
    if dir.join("READY").exists() {
        return Ok(dir.join("store"));
    }
    let staging = work.join(format!("prep-{key:016x}.tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&staging);
    std::fs::create_dir_all(&staging).map_err(|e| format!("prep dir: {e}"))?;
    let records = build(&staging.join("store"))?;
    std::fs::write(staging.join("READY"), format!("{records}\n"))
        .map_err(|e| format!("prep: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&staging, &dir).map_err(|e| format!("prep rename: {e}"))?;
    Ok(dir.join("store"))
}

/// Drives the fixed history until the journal passes the compaction
/// threshold; returns the number of requests driven.
fn build(store: &Path) -> Result<usize, String> {
    let mut spec = qvsec_cli::parse_serve_spec(&gen::durable_spec()).map_err(|e| e.to_string())?;
    spec.store = Some(qvsec_store::StoreConfig::log_at(
        store.display().to_string(),
    ));
    let registry = qvsec_cli::build_registry(&spec).map_err(|e| e.to_string())?;
    let threshold = qvsec_store::DEFAULT_COMPACT_THRESHOLD;
    let mut driven = 0;
    for req in gen::prep_history() {
        let (response, _) = qvsec_serve::handle_request(&registry, &req.line);
        if response.field("ok") != &serde_json::Value::Bool(true) {
            return Err(format!("prep request `{}` failed", req.line));
        }
        driven += 1;
        if driven % 32 == 0 && registry.stats().journal_bytes > threshold {
            break;
        }
    }
    registry.flush_store().map_err(|e| e.to_string())?;
    Ok(driven)
}
