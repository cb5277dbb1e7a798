//! The `crit(Q)` kernel benchmark harness behind `BENCH_crit.json`.
//!
//! Measures the parallel, pruned kernel
//! ([`qvsec::critical::critical_tuples_traced`]) against the preserved
//! pre-kernel sequential path ([`qvsec::critical::critical_tuples_seq`]) on
//! the Table 1 workloads — each row's secret and views, exactly the
//! critical-tuple sets the engine's `Exact` stage computes — over a range of
//! active-domain sizes. Alongside wall-clock, every workload records the
//! kernel's pruning counters (candidates examined vs. pruned), so the
//! benchmark trajectory captures *why* the kernel is fast, not just that it
//! is.
//!
//! The binary `bench_crit` runs this harness and writes the report to
//! `BENCH_crit.json`.

use qvsec::critical::{critical_tuples_seq, critical_tuples_traced, CritStats, CritStatsSnapshot};
use qvsec_cq::ConjunctiveQuery;
use qvsec_data::Domain;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Candidate cap used by the harness (far above the largest workload).
pub const HARNESS_CANDIDATE_CAP: usize = 250_000;

/// Default active-domain sizes: the Table 1 queries have 3 symbols, so every
/// size is past the Proposition 4.9 bound; the smallest still gives each
/// workload hundreds of candidates (`size³` per subgoal), enough that the
/// measurement is not dominated by sub-100µs timer noise.
pub const DEFAULT_DOMAIN_SIZES: &[usize] = &[16, 20, 24];

/// One (Table 1 row, domain size) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CritWorkloadReport {
    /// Workload label, e.g. `table1-row2/domain12`.
    pub name: String,
    /// Active-domain size the crit sets were computed over.
    pub domain_size: usize,
    /// Number of queries (secret + views).
    pub queries: usize,
    /// Total critical tuples found (identical for both paths).
    pub critical_tuples: usize,
    /// Best-of-N wall clock of the sequential pre-kernel path, nanoseconds.
    pub seq_nanos: u64,
    /// Best-of-N wall clock of the parallel, pruned kernel, nanoseconds.
    pub kernel_nanos: u64,
    /// `seq_nanos / kernel_nanos`.
    pub speedup: f64,
    /// Whether the two paths produced byte-identical crit sets.
    pub verdicts_match: bool,
    /// Kernel pruning counters for one run of this workload.
    pub pruning: CritStatsSnapshot,
}

/// The full harness report serialized into `BENCH_crit.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CritBenchReport {
    /// Worker threads available to the parallel filter.
    pub threads: usize,
    /// Iterations per measurement (best-of).
    pub iterations: usize,
    /// Domain sizes exercised.
    pub domain_sizes: Vec<usize>,
    /// Per-workload measurements.
    pub workloads: Vec<CritWorkloadReport>,
    /// Smallest per-workload speedup.
    pub min_speedup: f64,
    /// Geometric mean of per-workload speedups.
    pub geomean_speedup: f64,
}

fn best_of<F: FnMut()>(iterations: usize, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iterations.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

fn run_workload(
    name: String,
    queries: &[&ConjunctiveQuery],
    domain: &Domain,
    iterations: usize,
) -> CritWorkloadReport {
    // Correctness + counters first, outside the timed region.
    let stats = CritStats::new();
    let kernel_sets: Vec<_> = queries
        .iter()
        .map(|q| critical_tuples_traced(q, domain, HARNESS_CANDIDATE_CAP, &stats).unwrap())
        .collect();
    let seq_sets: Vec<_> = queries
        .iter()
        .map(|q| critical_tuples_seq(q, domain, HARNESS_CANDIDATE_CAP).unwrap())
        .collect();
    let verdicts_match = kernel_sets == seq_sets;

    let seq_nanos = best_of(iterations, || {
        for q in queries {
            critical_tuples_seq(q, domain, HARNESS_CANDIDATE_CAP).unwrap();
        }
    });
    let kernel_nanos = best_of(iterations, || {
        let throwaway = CritStats::new();
        for q in queries {
            critical_tuples_traced(q, domain, HARNESS_CANDIDATE_CAP, &throwaway).unwrap();
        }
    });
    CritWorkloadReport {
        name,
        domain_size: domain.len(),
        queries: queries.len(),
        critical_tuples: kernel_sets.iter().map(|s| s.len()).sum(),
        seq_nanos,
        kernel_nanos,
        speedup: seq_nanos as f64 / kernel_nanos.max(1) as f64,
        verdicts_match,
        pruning: stats.snapshot(),
    }
}

/// Runs the harness over every Table 1 row at each domain size.
pub fn run_crit_bench(domain_sizes: &[usize], iterations: usize) -> CritBenchReport {
    let mut workloads = Vec::new();
    for row in qvsec_workload::paper::table1() {
        let mut queries: Vec<&ConjunctiveQuery> = vec![&row.secret];
        queries.extend(row.views.iter());
        for &size in domain_sizes {
            let mut domain = row.domain.clone();
            domain.pad_to(size);
            workloads.push(run_workload(
                format!("table1-row{}/domain{}", row.id, domain.len()),
                &queries,
                &domain,
                iterations,
            ));
        }
    }
    let speedups: Vec<f64> = workloads.iter().map(|w| w.speedup).collect();
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean_speedup =
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp();
    CritBenchReport {
        threads: rayon::current_num_threads(),
        iterations: iterations.max(1),
        domain_sizes: domain_sizes.to_vec(),
        workloads,
        min_speedup,
        geomean_speedup,
    }
}

/// Renders a compact human-readable table of the report.
pub fn render_report(report: &CritBenchReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "crit(Q) kernel vs sequential baseline ({} threads, best of {}):",
        report.threads, report.iterations
    );
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>12} {:>12} {:>8}  {:>10} {:>10}",
        "workload", "candidates", "seq µs", "kernel µs", "speedup", "collapsed", "decided"
    );
    for w in &report.workloads {
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>12.1} {:>12.1} {:>7.1}x  {:>10} {:>10}",
            w.name,
            w.pruning.candidates_examined,
            w.seq_nanos as f64 / 1000.0,
            w.kernel_nanos as f64 / 1000.0,
            w.speedup,
            w.pruning.pruned_by_symmetry,
            w.pruning.decisions_run,
        );
    }
    let _ = writeln!(
        out,
        "min speedup {:.2}x, geometric mean {:.2}x",
        report.min_speedup, report.geomean_speedup
    );
    out
}
