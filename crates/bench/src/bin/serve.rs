//! Run the long-running contextualization service against a replayed
//! campaign stream, then republish the batch artifacts as the final
//! epoch (DESIGN.md §18).
//!
//! ```text
//! serve [--scale S] [--seed N] [--out DIR] [--parallelism P]
//!       [--chunk-rows C] [--seal-rows R] [--epoch-rows E] [--warm]
//!       [--port PORT] [--linger SECS] [--wire-sessions N] [--metrics]
//!       [--baseline METRICS.json] [--wall-ratio R] [--wall-floor S]
//! serve --connect ADDR [--query CMD] [--timeout SECS]
//! ```
//!
//! Server mode binds the line-delimited JSON query API on loopback
//! (`--port 0` picks an ephemeral port; the chosen address is printed
//! as `listening on ADDR`), streams the generated campaigns through
//! [`st_serve::ContextService`] with the same chunk plan and interleave
//! as the `ingest` binary, drains, runs the batch fit/derive/render
//! stages, and publishes the final epoch carrying the rendered
//! headlines and the batch-comparable artifact hash. With `--warm`,
//! every epoch crossing also republishes warm headline analyses fitted
//! on the sealed rows so far. `--linger SECS` keeps the query API up
//! after the final epoch so scripted clients can read it; a `shutdown`
//! command (or the timeout) ends the run.
//!
//! Outputs and exit codes are `repro`'s (see `st_bench::output`); a
//! degraded run always exits 1. The appended `st-run/v2` ledger row
//! carries the artifact hash plus the `stream` section (plan,
//! chunk/segment/epoch counts and sustained ingest throughput): a serve
//! row and a batch row with equal `artifact_hash` produced the same
//! bytes.
//!
//! Client mode (`--connect`) sends one query to a running server and
//! prints the response line; it exits nonzero if the response reports
//! `ok: false`.

use st_bench::cli::{self, CliError, RunArgs};
use st_bench::ledger::artifact_hash;
use st_bench::{
    build_analyses_serve, city_partitions, make_warm_renderer, output, run_all_observed,
    SuperviseOptions,
};
use st_serve::{
    query_once, session_measurements, ContextService, PartitionSpec, QueryServer, ServeOptions,
};
use st_speedtest::wire::ShapedServer;
use st_speedtest::{run_load, BackoffSchedule, LoadOptions};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: serve [--scale S] [--seed N] [--out DIR] [--parallelism P] \
     [--chunk-rows C] [--seal-rows R] [--epoch-rows E] [--warm] \
     [--port PORT] [--linger SECS] [--wire-sessions N] [--metrics] \
     [--baseline METRICS.json] [--wall-ratio R] [--wall-floor S]\n\
       serve --connect ADDR [--query CMD] [--timeout SECS]";

struct Args {
    run: RunArgs,
    chunk_rows: usize,
    seal_rows: usize,
    epoch_rows: usize,
    warm: bool,
    port: u16,
    linger: u64,
    wire_sessions: usize,
    connect: Option<String>,
    query: String,
    timeout_s: u64,
}

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        run: RunArgs::new("serve-out"),
        chunk_rows: 2048,
        seal_rows: st_speedtest::DEFAULT_SEAL_ROWS,
        epoch_rows: st_serve::DEFAULT_EPOCH_ROWS,
        warm: false,
        port: 0,
        linger: 0,
        wire_sessions: 0,
        connect: None,
        query: "status".to_string(),
        timeout_s: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if args.run.parse_flag(&flag, &mut it)? {
            continue;
        }
        let mut value = |name: &str| cli::next_value(&mut it, name);
        match flag.as_str() {
            "--chunk-rows" => {
                args.chunk_rows = cli::parse_at_least_one("--chunk-rows", &value("--chunk-rows")?)?;
            }
            "--seal-rows" => {
                args.seal_rows = cli::parse_at_least_one("--seal-rows", &value("--seal-rows")?)?;
            }
            "--epoch-rows" => {
                args.epoch_rows = cli::parse_at_least_one("--epoch-rows", &value("--epoch-rows")?)?;
            }
            "--warm" => args.warm = true,
            "--port" => {
                args.port = cli::parse_u64("--port", &value("--port")?)?
                    .try_into()
                    .map_err(|_| CliError::Usage("--port must fit in 16 bits".into()))?;
            }
            "--linger" => args.linger = cli::parse_u64("--linger", &value("--linger")?)?,
            "--wire-sessions" => {
                args.wire_sessions =
                    cli::parse_count("--wire-sessions", &value("--wire-sessions")?)?;
            }
            "--connect" => args.connect = Some(value("--connect")?),
            "--query" => args.query = value("--query")?,
            "--timeout" => args.timeout_s = cli::parse_u64("--timeout", &value("--timeout")?)?,
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    Ok(args)
}

/// Turn a shorthand query (`status`, `city City-A`, `headline`, ...)
/// into a request line; raw JSON passes through untouched. The rest of
/// a `city` shorthand is the city name, and every string goes out
/// JSON-escaped, so a name holding quotes, backslashes or control
/// characters reaches the server as itself.
fn to_request(query: &str) -> String {
    let q = query.trim();
    if q.starts_with('{') {
        return q.to_string();
    }
    let quote = |s: &str| serde_json::to_string(s).expect("a string serializes");
    let (cmd, rest) = q.split_once(char::is_whitespace).unwrap_or((q, ""));
    let city = rest.trim();
    if cmd == "city" && !city.is_empty() {
        format!("{{\"cmd\":\"city\",\"city\":{}}}", quote(city))
    } else {
        format!("{{\"cmd\":{}}}", quote(if cmd.is_empty() { "status" } else { cmd }))
    }
}

fn run_client(args: &Args, addr_raw: &str) -> ExitCode {
    let addr: std::net::SocketAddr = match addr_raw.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad --connect address {addr_raw:?}: {e}");
            return ExitCode::from(cli::USAGE_EXIT_CODE);
        }
    };
    let request = to_request(&args.query);
    match query_once(addr, &request, Duration::from_secs(args.timeout_s)) {
        Ok(line) => {
            println!("{line}");
            let ok = serde_json::from_str(&line)
                .ok()
                .and_then(|v: serde_json::Value| v.get("ok").and_then(|o| o.as_bool()));
            if ok == Some(false) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("query {addr} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Drive `--wire-sessions` live sessions against a loopback shaped pool
/// and ingest the completed results into the service's wire partition
/// (wall-clock class: which sessions complete depends on real sockets,
/// so these rows never touch deterministic counters or epochs).
fn ingest_wire_sessions(service: &ContextService, sessions: usize, seed: u64) {
    let servers: Vec<ShapedServer> =
        match (0..2).map(|_| ShapedServer::start(200.0, 50.0)).collect::<std::io::Result<Vec<_>>>()
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("WARN: cannot start the wire pool, skipping wire sessions: {e}");
                return;
            }
        };
    let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let mut opts = LoadOptions::new(sessions);
    opts.with_upload = true; // upload-free rows would quarantine
    opts.backoff = BackoffSchedule::new(Duration::from_millis(5), Duration::from_millis(40), seed);
    let summary = run_load(&pool, &opts, &st_obs::Registry::disabled());
    let rows = session_measurements(&summary.reports, 100, 12);
    let n = rows.len();
    match service.ingest_chunk("wire", "sessions", rows) {
        Ok(receipt) => eprintln!(
            "wire: {} sessions completed, {} rows accepted into the wire partition",
            summary.sessions_completed,
            n as u64 - receipt.stats.quarantined
        ),
        Err(e) => eprintln!("WARN: wire ingest failed: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return e.report(USAGE),
    };
    if let Some(addr) = args.connect.clone() {
        return run_client(&args, &addr);
    }
    let run = &args.run;

    eprintln!(
        "serving 4 cities at scale {} (seed {}, parallelism {}, chunks of {}, seal at {}, \
         epoch every {}) ...",
        run.scale, run.seed, run.parallelism, args.chunk_rows, args.seal_rows, args.epoch_rows
    );
    let obs = st_obs::Registry::new();
    let warm = args.warm.then(|| make_warm_renderer(run.scale, run.seed));
    let mut specs = city_partitions();
    specs.push(PartitionSpec::wire());
    let service = Arc::new(ContextService::new(
        specs,
        ServeOptions { seal_rows: args.seal_rows, epoch_rows: args.epoch_rows, warm },
        obs.clone(),
    ));
    let server = match QueryServer::start(Arc::clone(&service), &format!("127.0.0.1:{}", args.port))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind the query API: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());

    if args.wire_sessions > 0 {
        ingest_wire_sessions(&service, args.wire_sessions, run.seed);
    }

    let (analyses, timings, sanitize, mut stream) = match build_analyses_serve(
        run.scale,
        run.seed,
        run.parallelism,
        args.chunk_rows,
        &service,
        &obs,
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("serve replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "streamed {} rows in {} chunks ({} segments, {} warm epochs) in {:.1}s; rendering ...",
        stream.rows, stream.chunks, stream.segments, stream.epochs, stream.ingest_s
    );

    let opts = SuperviseOptions { parallelism: run.parallelism, ..SuperviseOptions::default() };
    let report = run_all_observed(&analyses, run.scale, run.seed, &opts, timings, sanitize, &obs);

    // Publish the final epoch before any disk IO: queries arriving from
    // here on see the completed run.
    let (hash, files) = artifact_hash(&report.artifacts);
    let tables = report
        .artifacts
        .iter()
        .filter(|a| a.id.starts_with("table"))
        .map(|a| (a.id.clone(), a.text.clone()))
        .collect();
    stream.epochs = match service.publish_final(
        &report.health.sanitize,
        report.headlines.clone(),
        tables,
        Some(format!("{hash:016x}")),
        files as u64,
    ) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot publish the final epoch: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("published final epoch {} (artifact hash {hash:016x})", stream.epochs);

    let code = output::write_run("serve", run, &report, &analyses, &obs, Some(stream), false);
    if args.linger > 0 {
        eprintln!(
            "serving final epoch {} on {} for up to {}s (send {{\"cmd\":\"shutdown\"}} to exit)",
            stream.epochs,
            server.addr(),
            args.linger
        );
        if server.wait_shutdown(Duration::from_secs(args.linger)) {
            eprintln!("shutdown requested by a client");
        }
    }
    server.stop();
    code
}

#[cfg(test)]
mod tests {
    use super::to_request;

    fn field(line: &str, key: &str) -> Option<String> {
        let v = serde_json::from_str(line).unwrap_or_else(|e| panic!("{line:?} is not JSON: {e}"));
        v.get(key).and_then(|s| s.as_str()).map(str::to_string)
    }

    #[test]
    fn shorthand_strings_round_trip_escaped() {
        for name in ["City-A", "Ci\"ty", "back\\slash", "bell\u{7}", "tab\there", "New York"] {
            let line = to_request(&format!("city {name}"));
            assert_eq!(field(&line, "cmd").as_deref(), Some("city"), "{line}");
            assert_eq!(field(&line, "city").as_deref(), Some(name), "{line}");
        }
        assert_eq!(to_request("city City-A"), r#"{"cmd":"city","city":"City-A"}"#);
        assert_eq!(to_request(" status "), r#"{"cmd":"status"}"#);
        assert_eq!(to_request(""), r#"{"cmd":"status"}"#);
        assert_eq!(field(&to_request("no\"pe"), "cmd").as_deref(), Some("no\"pe"));
        // Raw requests pass through as written.
        assert_eq!(to_request(r#" {"cmd":"epoch"} "#), r#"{"cmd":"epoch"}"#);
    }
}
