//! qvbench — the serving benchmark of qvsec.
//!
//! ```text
//! qvbench --workload <warm_mix|deep_sessions|durable_restart> --seed <n>
//!         --seconds <s> --trace <0|1> --server <qvsec-cli> --work <dir>
//!         [--commit <id>]
//! ```
//!
//! `--trace 0` is the end-to-end run: it drives the `qvsec-cli serve`
//! binary over TCP with the workload's fixed-count request sequence and
//! prints the end-to-end metrics. `--trace 1` is the traced run: it replays
//! the same lines in-process and prints the per-layer metrics. Both check
//! every answer after the timed phase and end with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod drive;
mod gen;
mod prep;
mod trace;
mod util;

use check::{Reason, Tally};
use gen::{Class, Plan};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use util::{percentile, sorted, Metric};

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server: PathBuf,
    pub work: PathBuf,
    pub commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut work = None;
    let mut commit = "unknown".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => trace = Some(value == "1"),
            "--server" => server = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !gen::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            gen::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        work: work.ok_or("--work is required")?,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qvbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = gen::plan(&args.workload, args.seed, args.seconds).expect("validated workload");
    let run_dir = args.work.join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("work dir: {e}"))
        .and_then(|_| {
            if args.trace {
                trace::run(&args, &plan, &run_dir)
            } else {
                end_to_end(&args, &plan, &run_dir)
            }
        });
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(report) => {
            report.print(&args, &plan);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qvbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run prints.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    fn print(&self, args: &Args, plan: &Plan) {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!(
            "# qvbench workload={} trace={} seed={} requests={} rounds={} connections={} nproc={} commit={}",
            plan.workload,
            args.trace as u8,
            args.seed,
            plan.timed_count(),
            if args.trace { 1 } else { plan.rounds },
            plan.timed.len(),
            nproc,
            args.commit
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            println!(
                "metric {:<28} {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!("attempted {}", self.tally.attempted);
        for r in Reason::ALL {
            println!("failed.{} {}", r.as_str(), self.tally.count(r));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed(),
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Writes the plan's spec where the server can read it.
pub fn write_spec(plan: &Plan, run_dir: &Path) -> Result<PathBuf, String> {
    let path = run_dir.join("spec.json");
    std::fs::write(&path, &plan.spec).map_err(|e| format!("spec: {e}"))?;
    Ok(path)
}

/// Starts the server and runs the warm-up; returns the server and the
/// wall time from spawn to the end of the warm-up. A durable server starts
/// from a fresh copy of the prepared store.
pub fn start(
    args: &Args,
    plan: &Plan,
    spec: &Path,
    prepared: Option<&Path>,
    run_dir: &Path,
    attempt: usize,
) -> Result<(drive::Server, Duration), String> {
    let store = match prepared {
        Some(src) => {
            let dst = run_dir.join(format!("store-{attempt}"));
            let _ = std::fs::remove_dir_all(&dst);
            drive::copy_dir(src, &dst).map_err(|e| format!("store copy: {e}"))?;
            Some(dst)
        }
        None => None,
    };
    let t0 = Instant::now();
    let server = drive::Server::spawn(&args.server, spec, store.as_deref())
        .map_err(|e| format!("server start: {e}"))?;
    let (outcomes, _) =
        drive::drive(&server.addr, &plan.warmup).map_err(|e| format!("warm-up: {e}"))?;
    let elapsed = t0.elapsed();
    for (list, out) in plan.warmup.iter().zip(&outcomes) {
        for (i, req) in list.iter().enumerate() {
            let response = out.response(i).unwrap_or("");
            if !response.starts_with(r#"{"ok":true"#) {
                return Err(format!("warm-up request `{}` failed: {response}", req.line));
            }
        }
    }
    Ok((server, elapsed))
}

/// One timed block: consecutive requests of every connection, driven over
/// fresh connections.
pub struct Block<'a> {
    pub lists: Vec<&'a [gen::Req]>,
    pub wall: Duration,
    pub answered: usize,
    /// Per list, per request: the round-trip time, when answered.
    pub latency_ns: Vec<Vec<Option<u64>>>,
}

/// Drives `lists` in `blocks` blocks of consecutive requests. Every answer
/// is checked between blocks, outside the timed windows, and then
/// dropped, so a run keeps only the latencies.
pub fn timed_blocks<'a, L: AsRef<[gen::Req]>>(
    addr: &str,
    lists: &'a [L],
    blocks: usize,
    refs: &std::collections::HashMap<Vec<u16>, check::Verdict>,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<Vec<Block<'a>>, String> {
    let mut out = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let chunk: Vec<&[gen::Req]> = lists
            .iter()
            .map(|l| {
                let l = l.as_ref();
                &l[l.len() * b / blocks..l.len() * (b + 1) / blocks]
            })
            .collect();
        let (outcomes, wall) = drive::drive(addr, &chunk).map_err(|e| format!("drive: {e}"))?;
        let mut answered = 0;
        let mut latency_ns = Vec::new();
        for (list, outcome) in chunk.iter().zip(&outcomes) {
            answered += outcome.answered();
            if let Some(e) = &outcome.transport_error {
                notes.push(format!("block {b}: transport error: {e}"));
            }
            for (i, req) in list.iter().enumerate() {
                tally.add(check::check(req, outcome.response(i), refs));
            }
            latency_ns.push(
                (0..list.len())
                    .map(|i| outcome.latency_ns.get(i).copied())
                    .collect(),
            );
        }
        out.push(Block {
            lists: chunk,
            wall,
            answered,
            latency_ns,
        });
    }
    Ok(out)
}

/// Index of a latency class among the reported ones.
pub fn class_slot(class: Class) -> Option<usize> {
    match class {
        Class::Publish => Some(0),
        Class::Candidate => Some(1),
        Class::Light => Some(2),
        Class::Other => None,
    }
}

/// The end-to-end run.
fn end_to_end(args: &Args, plan: &Plan, run_dir: &Path) -> Result<Report, String> {
    let spec = write_spec(plan, run_dir)?;
    let prepared = if plan.durable {
        Some(prep::prepared_store(&args.work, &args.server)?)
    } else {
        None
    };
    // Reference verdicts, computed untimed before the server starts.
    let refs = check::references(plan, plan.timed.iter().flatten())?;
    let mut setups = Vec::new();
    // Per block: requests per second and each class's p50 and tail.
    let mut stats: Vec<[f64; 7]> = Vec::new();
    // Every measured latency of each class, over all blocks and servers.
    let mut pooled: [Vec<f64>; 3] = Default::default();
    let mut rss = Vec::new();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    // Every start-up is timed; the last `plan.rounds` servers then each
    // replay the whole timed sequence from the same post-warm-up state.
    for attempt in 0..SETUPS {
        let (server, elapsed) = start(args, plan, &spec, prepared.as_deref(), run_dir, attempt)?;
        setups.push(elapsed.as_secs_f64());
        if attempt + plan.rounds >= SETUPS {
            let blocks = timed_blocks(
                &server.addr,
                &plan.timed,
                plan.blocks,
                &refs,
                &mut tally,
                &mut notes,
            )?;
            for block in &blocks {
                let mut latencies: [Vec<f64>; 3] = Default::default();
                for (list, lat) in block.lists.iter().zip(&block.latency_ns) {
                    for (req, ns) in list.iter().zip(lat) {
                        if let (Some(slot), Some(ns)) = (class_slot(req.class), ns) {
                            latencies[slot].push(*ns as f64 / 1e6);
                        }
                    }
                }
                let mut row = [0.0; 7];
                row[0] = block.answered as f64 / block.wall.as_secs_f64();
                for (slot, values) in latencies.into_iter().enumerate() {
                    let values = sorted(values);
                    row[1 + 2 * slot] = percentile(&values, 50.0);
                    row[2 + 2 * slot] = percentile(&values, plan.tail_pct[slot]);
                    pooled[slot].extend(values);
                }
                stats.push(row);
            }
            rss.push(server.peak_rss_mb().unwrap_or(0.0));
        }
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    notes.push(format!("setup_s runs: {setups:?}"));
    for (b, row) in stats.iter().enumerate() {
        notes.push(format!(
            "block {b}: requests_per_s {:.1}, p50/tail ms: publish {:.4}/{:.4}, candidate {:.4}/{:.4}, light {:.4}/{:.4}",
            row[0], row[1], row[2], row[3], row[4], row[5], row[6]
        ));
    }

    let throughputs: Vec<f64> = stats.iter().map(|s| s[0]).collect();
    let mut metrics = vec![
        Metric::new("setup_s", util::median(&setups), "s")
            .noted(format!("median of {SETUPS} start-ups")),
        Metric::new("requests_per_s", util::median(&throughputs), "1/s").noted(format!(
            "median of {} blocks on {} servers",
            stats.len(),
            plan.rounds
        )),
    ];
    for (slot, name) in ["publish", "candidate", "light"].iter().enumerate() {
        let pct = plan.tail_pct[slot];
        let values = sorted(std::mem::take(&mut pooled[slot]));
        let n = values.len();
        metrics.push(
            Metric::new(format!("{name}_p50_ms"), percentile(&values, 50.0), "ms")
                .noted(format!("n={n} over all blocks")),
        );
        metrics.push(
            Metric::new(format!("{name}_tail_ms"), percentile(&values, pct), "ms").noted(format!(
                "p{pct}, n={n} over all blocks, {} beyond",
                util::beyond(n, pct)
            )),
        );
    }
    metrics.push(
        Metric::new(
            "peak_rss_mb",
            rss.iter().sum::<f64>() / rss.len() as f64,
            "MiB",
        )
        .noted(format!("server VmHWM, mean of {} servers", rss.len())),
    );
    Ok(Report {
        tally,
        metrics,
        notes,
    })
}
