//! `qvsec-cli` — audit secrets against views from the command line.
//!
//! ```text
//! qvsec-cli audit --spec specs/table1.json [--pretty] [--sequential]
//! qvsec-cli audit --spec specs/table1_sql.json --out reports.json
//! qvsec-cli session --spec specs/session_collusion.json [--pretty]
//! qvsec-cli serve --spec specs/serve_employee.json --addr 127.0.0.1:7341 [--max-connections N] [--store DIR]
//! qvsec-cli request --addr 127.0.0.1:7341 --file specs/serve_requests.ndjson
//! qvsec-cli sql --spec specs/table1.json --query "SELECT name FROM Employee WHERE department = 'HR'"
//! qvsec-cli sql --addr 127.0.0.1:7341 --query "SHOW TABLES"
//! ```
//!
//! `audit` runs stateless audits; `session` replays a script of incremental
//! publish steps through an `AuditSession` (§6 collusion flow). `serve`
//! runs the multi-tenant NDJSON TCP server over a server spec, and
//! `request` drives a running server with one request per input line,
//! printing one response per line. `sql` analyzes one safe-SQL statement —
//! against a spec's schema locally, or over the wire via the server's
//! `sql` op — printing the compiled queries (datalog + canonical form) or
//! the structured rejection. Spec formats and the wire schema are
//! documented in the `qvsec_cli` library docs and `crates/cli/README.md`.

use std::process::ExitCode;

const USAGE: &str = "\
qvsec-cli — query-view security audits (Miklau & Suciu, SIGMOD 2004)

USAGE:
    qvsec-cli audit --spec <FILE> [OPTIONS]
    qvsec-cli session --spec <FILE> [--store <DIR>] [OPTIONS]
    qvsec-cli serve --spec <FILE> --addr <HOST:PORT> [--max-connections <N>] [--store <DIR>]
                    [--metrics-addr <HOST:PORT>] [--slow-ms <N>]
    qvsec-cli request --addr <HOST:PORT> [--file <FILE>] [--out <FILE>]
                      [--pipeline | --connections <N>]
    qvsec-cli sql (--spec <FILE> | --addr <HOST:PORT>) --query <SQL>
                  [--name <NAME>] [OPTIONS]
    qvsec-cli top --addr <HOST:PORT> [--out <FILE>]

COMMANDS:
    audit            Run the spec's stateless audits (parallel by default)
    session          Replay a session script of incremental publish steps
    serve            Run the multi-tenant NDJSON session server
    request          Send NDJSON requests (from --file or stdin) to a server
    sql              Compile one safe-SQL statement (SELECT or SHOW) to
                     canonical conjunctive queries — against a spec's
                     schema locally, or a running server's via its `sql` op
    top              Fetch a running server's unified metrics snapshot (the
                     `metrics` op) and print a ranked, human-readable view

OPTIONS:
    --spec <FILE>    JSON spec
    --query <SQL>    (sql) the statement to analyze
    --name <NAME>    (sql) name for the compiled query (default Q)
    --addr <ADDR>    Server address, e.g. 127.0.0.1:7341
    --max-connections <N>
                     (serve) accept-gate cap on concurrent connections
                     (overrides the spec's `server.max_connections`)
    --store <DIR>    (serve/session) durable log store at DIR: tenants and
                     compiled artifacts persist and rehydrate on restart
                     (overrides the spec's `store` block)
    --metrics-addr <ADDR>
                     (serve) also serve Prometheus text metrics over HTTP
                     at ADDR (GET, any path)
    --slow-ms <N>    (serve) log requests slower than N ms as NDJSON lines
                     on stderr, with their span stage breakdown; implies
                     span tracing (overrides the spec's `server.slow_ms`)
    --file <FILE>    (request) NDJSON request script (default: stdin)
    --pipeline       (request) write every request before reading any
                     response (responses still arrive in request order)
    --connections <N>
                     (request) open N concurrent keep-alive connections,
                     each replaying the script with `{conn}` replaced by
                     its connection index; print a latency/throughput
                     summary instead of the responses
    --out <FILE>     Write the output to FILE instead of stdout
    --pretty         Pretty-print the JSON output (audit/session)
    --sequential     (audit) one request at a time instead of in parallel
    -h, --help       Show this help

On Unix, `serve` drains gracefully on SIGTERM/SIGINT: accepting stops,
in-flight requests still get their responses, the store journal is
flushed, and the process exits 0.
";

enum Command {
    Audit,
    Session,
    Serve,
    Request,
    Sql,
    Top,
}

struct Args {
    command: Command,
    spec: Option<String>,
    addr: Option<String>,
    max_connections: Option<usize>,
    connections: Option<usize>,
    pipeline: bool,
    file: Option<String>,
    out: Option<String>,
    store: Option<String>,
    query: Option<String>,
    name: Option<String>,
    metrics_addr: Option<String>,
    slow_ms: Option<u64>,
    pretty: bool,
    sequential: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = match argv.next().as_deref() {
        Some("audit") => Command::Audit,
        Some("session") => Command::Session,
        Some("serve") => Command::Serve,
        Some("request") => Command::Request,
        Some("sql") => Command::Sql,
        Some("top") => Command::Top,
        Some("-h") | Some("--help") | None => return Err(String::new()),
        Some(other) => return Err(format!("unknown command `{other}`")),
    };
    let mut args = Args {
        command,
        spec: None,
        addr: None,
        max_connections: None,
        connections: None,
        pipeline: false,
        file: None,
        out: None,
        store: None,
        query: None,
        name: None,
        metrics_addr: None,
        slow_ms: None,
        pretty: false,
        sequential: false,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--spec" => args.spec = Some(argv.next().ok_or("--spec needs a file argument")?),
            "--addr" => args.addr = Some(argv.next().ok_or("--addr needs an address argument")?),
            "--max-connections" => {
                args.max_connections = Some(
                    argv.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--max-connections needs a positive integer")?,
                )
            }
            "--connections" => {
                args.connections = Some(
                    argv.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|n| *n > 0)
                        .ok_or("--connections needs a positive integer")?,
                )
            }
            "--pipeline" => args.pipeline = true,
            "--file" => args.file = Some(argv.next().ok_or("--file needs a file argument")?),
            "--out" => args.out = Some(argv.next().ok_or("--out needs a file argument")?),
            "--store" => {
                args.store = Some(argv.next().ok_or("--store needs a directory argument")?)
            }
            "--query" => {
                args.query = Some(
                    argv.next()
                        .ok_or("--query needs a SQL statement argument")?,
                )
            }
            "--name" => args.name = Some(argv.next().ok_or("--name needs a name argument")?),
            "--metrics-addr" => {
                args.metrics_addr = Some(
                    argv.next()
                        .ok_or("--metrics-addr needs an address argument")?,
                )
            }
            "--slow-ms" => {
                args.slow_ms = Some(
                    argv.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--slow-ms needs a non-negative integer")?,
                )
            }
            "--pretty" => args.pretty = true,
            "--sequential" => args.sequential = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.store.is_some()
        && matches!(
            args.command,
            Command::Audit | Command::Request | Command::Sql
        )
    {
        return Err("--store only applies to `serve` and `session`".into());
    }
    if (args.query.is_some() || args.name.is_some()) && !matches!(args.command, Command::Sql) {
        return Err("--query and --name only apply to `sql`".into());
    }
    if (args.connections.is_some() || args.pipeline) && !matches!(args.command, Command::Request) {
        return Err("--connections and --pipeline only apply to `request`".into());
    }
    if args.connections.is_some() && args.pipeline {
        return Err(
            "--connections drives whole connections; it cannot combine with --pipeline".into(),
        );
    }
    if args.max_connections.is_some() && !matches!(args.command, Command::Serve) {
        return Err("--max-connections only applies to `serve`".into());
    }
    if (args.metrics_addr.is_some() || args.slow_ms.is_some())
        && !matches!(args.command, Command::Serve)
    {
        return Err("--metrics-addr and --slow-ms only apply to `serve`".into());
    }
    match args.command {
        Command::Audit | Command::Session => {
            if args.spec.is_none() {
                return Err("missing required --spec <FILE>".into());
            }
            if args.sequential && matches!(args.command, Command::Session) {
                return Err(
                    "--sequential only applies to `audit` (sessions are inherently ordered)".into(),
                );
            }
        }
        Command::Serve => {
            if args.spec.is_none() || args.addr.is_none() {
                return Err("`serve` needs --spec <FILE> and --addr <HOST:PORT>".into());
            }
        }
        Command::Request => {
            if args.addr.is_none() {
                return Err("`request` needs --addr <HOST:PORT>".into());
            }
        }
        Command::Top => {
            if args.addr.is_none() {
                return Err("`top` needs --addr <HOST:PORT>".into());
            }
        }
        Command::Sql => {
            if args.query.is_none() {
                return Err("`sql` needs --query <SQL>".into());
            }
            if args.spec.is_some() == args.addr.is_some() {
                return Err(
                    "`sql` needs exactly one of --spec <FILE> (local schema) or --addr <HOST:PORT> (ask a server)"
                        .into(),
                );
            }
        }
    }
    Ok(args)
}

fn read_spec(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read spec `{path}`: {e}");
        ExitCode::FAILURE
    })
}

/// Writes `text` (newline-terminated) to `--out` or stdout, tolerating a
/// closed pipe (`qvsec-cli ... | head`) instead of panicking.
fn emit(out: &Option<String>, text: String) -> ExitCode {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("error: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        None => {
            use std::io::Write;
            let mut stdout = std::io::stdout();
            let _ = stdout
                .write_all(text.as_bytes())
                .and_then(|_| stdout.write_all(b"\n"));
            ExitCode::SUCCESS
        }
    }
}

/// SIGTERM/SIGINT → graceful drain, without a signal-handling dependency.
/// The raw handler only flips an atomic (the async-signal-safe subset); a
/// watcher thread polls the flag and calls `ServerHandle::shutdown`, which
/// stops the accept loop, drains in-flight requests and flushes the store
/// journal before `serve` exits 0.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATION_REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    extern "C" fn note_termination(_signum: i32) {
        TERMINATION_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn drain_on_termination(handle: qvsec_serve::ServerHandle) {
        unsafe {
            signal(SIGTERM, note_termination);
            signal(SIGINT, note_termination);
        }
        std::thread::spawn(move || loop {
            if TERMINATION_REQUESTED.load(Ordering::SeqCst) {
                eprintln!("qvsec-serve draining (termination signal)");
                handle.shutdown();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }
}

fn run_serve(args: &Args) -> ExitCode {
    let text = match read_spec(args.spec.as_deref().expect("validated")) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let mut spec = match qvsec_cli::parse_serve_spec(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.store {
        spec.store = Some(qvsec_store::StoreConfig::log_at(path.clone()));
    }
    let registry = match qvsec_cli::build_registry(&spec) {
        Ok(registry) => registry,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = args.addr.as_deref().expect("validated");
    let mut config = qvsec_cli::server_config(&spec, args.max_connections);
    if args.slow_ms.is_some() {
        config.slow_ms = args.slow_ms;
    }
    if config.slow_ms.is_some() {
        // The slow-query log needs the per-request stage breakdown, which
        // only exists with span tracing on, plus the op/tenant/canonical
        // notes, which wait for note capture. Neither changes response
        // bytes — they only start timing/context capture.
        qvsec_obs::set_tracing(true);
        qvsec_obs::set_note_capture(true);
    }
    let registry = std::sync::Arc::new(registry);
    let server =
        match qvsec_serve::Server::bind_with(std::sync::Arc::clone(&registry), addr, config) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("error: cannot bind `{addr}`: {e}");
                return ExitCode::FAILURE;
            }
        };
    match server.local_addr() {
        // Announced on stderr so request scripts piping stdout stay clean;
        // flushed line-wise, so `wait-for-line` style supervision works.
        Ok(bound) => eprintln!("qvsec-serve listening on {bound}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(metrics_addr) = &args.metrics_addr {
        match qvsec_serve::serve_metrics_http(metrics_addr.as_str(), registry, server.counters()) {
            Ok(bound) => eprintln!("qvsec-serve metrics on http://{bound}/metrics"),
            Err(e) => {
                eprintln!("error: cannot bind metrics address `{metrics_addr}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(unix)]
    match server.handle() {
        Ok(handle) => signals::drain_on_termination(handle),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            eprintln!("qvsec-serve shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_request(args: &Args) -> ExitCode {
    let input = match &args.file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            use std::io::Read;
            let mut text = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut text) {
                eprintln!("error: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            text
        }
    };
    let lines: Vec<String> = input.lines().map(String::from).collect();
    let addr = args.addr.as_deref().expect("validated");
    if let Some(connections) = args.connections {
        return run_saturation(args, addr, &lines, connections);
    }
    let sent = if args.pipeline {
        qvsec_serve::request_lines_pipelined(addr, &lines)
    } else {
        qvsec_serve::request_lines(addr, &lines)
    };
    match sent {
        Ok(responses) => emit(&args.out, responses.join("\n")),
        Err(e) => {
            eprintln!("error: request to `{addr}` failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `request --connections N`: N concurrent keep-alive connections each
/// replay the script (with `{conn}` replaced by the connection index, so
/// tenants can be kept disjoint), and a one-line JSON summary with
/// throughput and latency percentiles replaces the raw responses.
fn run_saturation(args: &Args, addr: &str, template: &[String], connections: usize) -> ExitCode {
    let scripts: Vec<Vec<String>> = (0..connections)
        .map(|conn| {
            template
                .iter()
                .map(|line| line.replace("{conn}", &conn.to_string()))
                .collect()
        })
        .collect();
    let started = std::time::Instant::now();
    let outcome = qvsec_serve::drive_scripts(addr, &scripts);
    let elapsed = started.elapsed();
    let responses: usize = outcome.responses.iter().map(Vec::len).sum();
    let requests = template.len() * connections;
    let rps = responses as f64 / elapsed.as_secs_f64().max(1e-9);
    let mut sorted = outcome.latencies_nanos.clone();
    sorted.sort_unstable();
    let percentile = |p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[rank] / 1_000
    };
    let summary = format!(
        concat!(
            "{{\"connections\": {}, \"requests\": {}, \"responses\": {}, ",
            "\"dropped\": {}, \"elapsed_millis\": {}, \"rps\": {:.1}, ",
            "\"p50_micros\": {}, \"p99_micros\": {}}}"
        ),
        connections,
        requests,
        responses,
        outcome.dropped,
        elapsed.as_millis(),
        rps,
        percentile(0.50),
        percentile(0.99),
    );
    emit(&args.out, summary)
}

/// Renders a rejected statement's byte span as a caret underline on
/// stderr, rustc-style — the structured JSON on stdout stays byte-for-byte
/// what it always was; this is purely additive human context:
///
/// ```text
/// error: sql rejected: OR is outside the safe subset
///     SELECT name FROM Employee WHERE department = 'HR' OR phone = '5'
///                                                       ^^
/// ```
fn print_rejection_caret(sql: &str, body: &serde_json::Value) {
    let error = body.field("error");
    let span = error.field("detail").field("span");
    let (Some(start), Some(end)) = (span.field("start").as_int(), span.field("end").as_int())
    else {
        return;
    };
    let (start, end) = (start.max(0) as usize, end.max(0) as usize);
    let start = start.min(sql.len());
    let end = end.clamp(start, sql.len());
    if !sql.is_char_boundary(start) || !sql.is_char_boundary(end) {
        return;
    }
    if let Some(reason) = error.field("reason").as_str() {
        eprintln!("error: {reason}");
    }
    // Underline within the line holding the span's start.
    let line_start = sql[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let line_end = sql[line_start..]
        .find('\n')
        .map(|i| line_start + i)
        .unwrap_or(sql.len());
    let pad = sql[line_start..start].chars().count();
    let width = sql[start..end.min(line_end)].chars().count().max(1);
    eprintln!("    {}", &sql[line_start..line_end]);
    eprintln!("    {}{}", " ".repeat(pad), "^".repeat(width));
}

/// `sql`: analyze one statement. With `--spec`, compile locally against the
/// spec's schema; with `--addr`, send the server a `{"op": "sql"}` request
/// and print its response. Either way the exit code reflects whether the
/// statement was accepted, and rejections are structured JSON on stdout —
/// plus a caret-underlined rendering of the offending span on stderr.
fn run_sql(args: &Args) -> ExitCode {
    let query = args.query.as_deref().expect("validated");
    let name = args.name.as_deref().unwrap_or("Q");
    if let Some(addr) = args.addr.as_deref() {
        let request = serde_json::to_string(&serde_json::Value::Object(vec![
            ("op".to_string(), serde_json::Value::Str("sql".to_string())),
            ("sql".to_string(), serde_json::Value::Str(query.to_string())),
            ("name".to_string(), serde_json::Value::Str(name.to_string())),
        ]))
        .expect("JSON rendering is infallible");
        return match qvsec_serve::request_lines(addr, &[request]) {
            Ok(responses) => {
                let parsed = responses
                    .first()
                    .and_then(|line| serde_json::parse(line).ok());
                let ok = parsed
                    .as_ref()
                    .map(|v| v.field("ok") == &serde_json::Value::Bool(true))
                    .unwrap_or(false);
                if !ok {
                    if let Some(body) = &parsed {
                        print_rejection_caret(query, body);
                    }
                }
                let code = emit(&args.out, responses.join("\n"));
                if ok {
                    code
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: request to `{addr}` failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let text = match read_spec(args.spec.as_deref().expect("validated")) {
        Ok(text) => text,
        Err(code) => return code,
    };
    match qvsec_cli::analyze_sql(&text, query, name) {
        Ok((body, accepted)) => {
            if !accepted {
                print_rejection_caret(query, &body);
            }
            let rendered = if args.pretty {
                serde_json::to_string_pretty(&body)
            } else {
                serde_json::to_string(&body)
            }
            .expect("JSON rendering is infallible");
            let code = emit(&args.out, rendered);
            if accepted {
                code
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Formats a nanosecond figure for the `top` view.
fn fmt_nanos(nanos: i128) -> String {
    match nanos {
        n if n < 1_000 => format!("{n}ns"),
        n if n < 1_000_000 => format!("{}µs", n / 1_000),
        n if n < 1_000_000_000 => format!("{}ms", n / 1_000_000),
        n => format!("{:.1}s", n as f64 / 1e9),
    }
}

/// `top`: one `{"op": "metrics"}` round trip, rendered as ranked sections
/// (counters and gauges by value, span histograms by observation count).
/// Zero-valued entries are elided — `top` answers "what is this server
/// actually doing", not "what could it count".
fn run_top(args: &Args) -> ExitCode {
    let addr = args.addr.as_deref().expect("validated");
    let response = match qvsec_serve::request_lines(addr, &[r#"{"op": "metrics"}"#.to_string()]) {
        Ok(responses) => match responses.first().and_then(|l| serde_json::parse(l).ok()) {
            Some(v) => v,
            None => {
                eprintln!("error: server at `{addr}` sent no parsable response");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("error: request to `{addr}` failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = response.field("metrics");
    if metrics.is_null() {
        eprintln!("error: unexpected response: {response:?}");
        return ExitCode::FAILURE;
    }
    let numbers = |section: &str| -> Vec<(String, i128)> {
        let mut entries = Vec::new();
        if let serde_json::Value::Object(pairs) = metrics.field(section) {
            for (name, value) in pairs {
                if let Some(n) = value.as_int() {
                    if n != 0 {
                        entries.push((name.clone(), n));
                    }
                }
            }
        }
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries
    };
    let mut out = format!("qvsec metrics @ {addr}\n");
    for section in ["counters", "gauges"] {
        let entries = numbers(section);
        if entries.is_empty() {
            continue;
        }
        out.push_str(&format!("\n{section}\n"));
        for (name, value) in entries {
            out.push_str(&format!("  {name:<42} {value}\n"));
        }
    }
    if let serde_json::Value::Object(pairs) = metrics.field("histograms") {
        let mut rows: Vec<(String, i128, i128, i128)> = pairs
            .iter()
            .filter_map(|(name, h)| {
                let count = h.field("count").as_int()?;
                (count > 0).then(|| {
                    (
                        name.clone(),
                        count,
                        h.field("p50_nanos").as_int().unwrap_or(0),
                        h.field("p99_nanos").as_int().unwrap_or(0),
                    )
                })
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if !rows.is_empty() {
            out.push_str("\nspans (count / p50 / p99)\n");
            for (name, count, p50, p99) in rows {
                out.push_str(&format!(
                    "  {name:<42} {count:>8}  {:>8}  {:>8}\n",
                    fmt_nanos(p50),
                    fmt_nanos(p99)
                ));
            }
        }
    }
    emit(&args.out, out.trim_end().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                eprint!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.command {
        Command::Serve => return run_serve(&args),
        Command::Request => return run_request(&args),
        Command::Sql => return run_sql(&args),
        Command::Top => return run_top(&args),
        Command::Audit | Command::Session => {}
    }
    let text = match read_spec(args.spec.as_deref().expect("validated")) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let run = match args.command {
        Command::Audit => qvsec_cli::run_spec(&text, args.sequential),
        Command::Session => {
            let store = args
                .store
                .as_ref()
                .map(|path| qvsec_store::StoreConfig::log_at(path.clone()));
            qvsec_cli::run_session_spec_with_store(&text, store.as_ref())
        }
        _ => unreachable!("serve/request handled above"),
    };
    let reports = match run {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = if args.pretty {
        serde_json::to_string_pretty(&reports)
    } else {
        serde_json::to_string(&reports)
    }
    .expect("JSON rendering is infallible");
    emit(&args.out, rendered)
}
