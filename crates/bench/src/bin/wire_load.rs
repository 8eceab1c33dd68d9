//! Chaos-hardened wire load campaign driver (DESIGN.md §16).
//!
//! ```text
//! wire-load [--sessions N] [--pool N] [--seed S] [--fault-rate R]
//!           [--parallelism P] [--duration-ms MS] [--ramp-ms MS]
//!           [--conns N] [--pings N] [--attempts N] [--breaker-k K]
//!           [--breaker-cooldown C] [--down-mbps M] [--up-mbps M]
//!           [--with-upload] [--out DIR] [--baseline FILE]
//! ```
//!
//! Starts a pool of fault-injecting [`ShapedServer`]s on loopback,
//! drives the concurrent load harness against it, and writes:
//!
//! * `DIR/BENCH_load_metrics.json` — the metrics snapshot in the same
//!   header-plus-two-classes schema `obs-diff` consumes; the
//!   `deterministic` section is byte-identical for a fixed
//!   (sessions, seed, fault-rate, pool) tuple at every `--parallelism`.
//! * `DIR/BENCH_load_summary.json` — the full [`LoadSummary`] with
//!   per-session reports and quality scores.
//! * `DIR/BENCH_ledger.jsonl` — appends one `st-load/v1` row whose
//!   `metrics_hash` fingerprints the deterministic section, so CI can
//!   regression-gate campaigns across commits.
//!
//! With `--baseline OLD_METRICS.json` the run diffs itself against a
//! previous snapshot in-process (same contract as `obs-diff`).
//!
//! Exit code: `0` on a clean campaign (and for `--help`), `1` when any
//! session's actual fate diverged from the deterministic plan
//! (`unexpected_outcomes`), when every session died (`degraded`), or on
//! baseline drift; `2` on usage or I/O errors.

use st_bench::cli::{self, CliError};
use st_bench::diff::{diff_metrics, DiffOptions, MetricsDoc};
use st_bench::ledger::{append_ledger, LoadLedgerRow};
use st_obs::Registry;
use st_speedtest::wire::ShapedServer;
use st_speedtest::{run_load, FaultProfile, LoadOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: wire-load [--sessions N] [--pool N] [--seed S] [--fault-rate R] \
    [--parallelism P] [--duration-ms MS] [--ramp-ms MS] [--conns N] [--pings N] \
    [--attempts N] [--breaker-k K] [--breaker-cooldown C] [--down-mbps M] [--up-mbps M] \
    [--with-upload] [--out DIR] [--baseline FILE]";

struct Args {
    sessions: usize,
    pool: usize,
    seed: u64,
    fault_rate: f64,
    parallelism: usize,
    duration_ms: u64,
    ramp_ms: u64,
    conns: usize,
    pings: usize,
    attempts: u32,
    breaker_k: u32,
    breaker_cooldown: u32,
    down_mbps: f64,
    up_mbps: f64,
    with_upload: bool,
    out: PathBuf,
    baseline: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            sessions: 200,
            pool: 4,
            seed: 0xc0ffee,
            fault_rate: 0.35,
            parallelism: 8,
            duration_ms: 100,
            ramp_ms: 30,
            conns: 1,
            pings: 2,
            attempts: 3,
            breaker_k: 3,
            breaker_cooldown: 2,
            down_mbps: 400.0,
            up_mbps: 50.0,
            with_upload: false,
            out: PathBuf::from("."),
            baseline: None,
        }
    }
}

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| cli::next_value(&mut it, name);
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, CliError>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| CliError::Usage(format!("bad {name}: {e}")))
        }
        match flag.as_str() {
            "--sessions" => args.sessions = num("--sessions", value("--sessions")?)?,
            "--pool" => args.pool = num("--pool", value("--pool")?)?,
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--fault-rate" => args.fault_rate = num("--fault-rate", value("--fault-rate")?)?,
            "--parallelism" => args.parallelism = num("--parallelism", value("--parallelism")?)?,
            "--duration-ms" => args.duration_ms = num("--duration-ms", value("--duration-ms")?)?,
            "--ramp-ms" => args.ramp_ms = num("--ramp-ms", value("--ramp-ms")?)?,
            "--conns" => args.conns = num("--conns", value("--conns")?)?,
            "--pings" => args.pings = num("--pings", value("--pings")?)?,
            "--attempts" => args.attempts = num("--attempts", value("--attempts")?)?,
            "--breaker-k" => args.breaker_k = num("--breaker-k", value("--breaker-k")?)?,
            "--breaker-cooldown" => {
                args.breaker_cooldown = num("--breaker-cooldown", value("--breaker-cooldown")?)?
            }
            "--down-mbps" => args.down_mbps = num("--down-mbps", value("--down-mbps")?)?,
            "--up-mbps" => args.up_mbps = num("--up-mbps", value("--up-mbps")?)?,
            "--with-upload" => args.with_upload = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    if args.sessions == 0 || args.pool == 0 {
        return Err(CliError::Usage("--sessions and --pool must be at least 1".into()));
    }
    if !(0.0..=1.0).contains(&args.fault_rate) {
        return Err(CliError::Usage("--fault-rate must be in [0, 1]".into()));
    }
    if args.ramp_ms >= args.duration_ms {
        return Err(CliError::Usage("--ramp-ms must be shorter than --duration-ms".into()));
    }
    Ok(args)
}

/// `BENCH_load_metrics.json` schema: run header, then the two metric
/// classes (the layout `obs-diff` parses). `parallelism` is
/// documentation: the `deterministic` section must not depend on it.
#[derive(serde::Serialize)]
struct MetricsRecord {
    schema: &'static str,
    seed: u64,
    parallelism: usize,
    deterministic: st_obs::DeterministicMetrics,
    wall_clock: st_obs::WallClockMetrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return e.report(USAGE),
    };

    let profile = FaultProfile::new(args.seed, args.fault_rate);
    let servers: Vec<ShapedServer> = match (0..args.pool)
        .map(|_| ShapedServer::start_with_faults(args.down_mbps, args.up_mbps, profile))
        .collect()
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wire-load: cannot start the server pool: {e}");
            return ExitCode::from(2);
        }
    };
    let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();

    let duration = Duration::from_millis(args.duration_ms);
    let mut opts = LoadOptions::new(args.sessions);
    opts.n_conns = args.conns;
    opts.duration = duration;
    opts.ramp_discard = Duration::from_millis(args.ramp_ms);
    opts.n_pings = args.pings;
    opts.attempts = args.attempts;
    opts.backoff.seed = args.seed;
    opts.breaker_k = args.breaker_k;
    opts.breaker_cooldown = args.breaker_cooldown;
    opts.parallelism = args.parallelism;
    opts.with_upload = args.with_upload;
    opts.faults = Some(profile);
    opts.wire = st_speedtest::wire::WireOptions::for_duration(duration);

    let reg = Registry::new();
    let summary = run_load(&pool, &opts, &reg);
    drop(servers); // joined before reporting: no worker outlives the run

    let snapshot = reg.snapshot();
    let deterministic_json = snapshot.deterministic_json();
    eprintln!(
        "wire-load: {} sessions → ok {} retried {} degraded {} abandoned {} skipped {} \
         | completed {} unexpected {} | breaker trips {} | mean {:.1} Mbps / {:.2} ms \
         | scores s/g/c {:.0}/{:.0}/{:.0} | {:.2}s",
        summary.sessions_total,
        summary.sessions_ok,
        summary.sessions_retried,
        summary.sessions_degraded,
        summary.sessions_abandoned,
        summary.sessions_skipped,
        summary.sessions_completed,
        summary.unexpected_outcomes,
        summary.breaker_trips,
        summary.mean_down_mbps,
        summary.mean_latency_ms,
        summary.mean_streaming,
        summary.mean_gaming,
        summary.mean_conferencing,
        summary.elapsed_s,
    );

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("wire-load: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let record = MetricsRecord {
        schema: snapshot.schema,
        seed: args.seed,
        parallelism: args.parallelism,
        deterministic: snapshot.deterministic.clone(),
        wall_clock: snapshot.wall_clock.clone(),
    };
    let metrics_path = args.out.join("BENCH_load_metrics.json");
    let metrics_json = serde_json::to_string_pretty(&record).expect("metrics serialize");
    let summary_path = args.out.join("BENCH_load_summary.json");
    let summary_json = serde_json::to_string_pretty(&summary).expect("summary serialize");
    for (path, body) in [(&metrics_path, &metrics_json), (&summary_path, &summary_json)] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("wire-load: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }

    let row = LoadLedgerRow::from_summary(
        &summary,
        &deterministic_json,
        args.seed,
        args.fault_rate,
        args.pool,
        args.parallelism,
    );
    let ledger_path = args.out.join("BENCH_ledger.jsonl");
    match append_ledger(&ledger_path, &row) {
        Ok(()) => eprintln!("appended {} ({})", ledger_path.display(), row.metrics_hash),
        Err(e) => {
            eprintln!("wire-load: cannot append {}: {e}", ledger_path.display());
            return ExitCode::from(2);
        }
    }

    let mut failed = false;
    if let Some(baseline) = &args.baseline {
        let old = std::fs::read_to_string(baseline)
            .map_err(|e| format!("cannot read {}: {e}", baseline.display()))
            .and_then(|text| MetricsDoc::parse(&text).map_err(|e| format!("baseline: {e}")));
        let old = match old {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("wire-load: {e}");
                return ExitCode::from(2);
            }
        };
        let new = match MetricsDoc::parse(&metrics_json) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("wire-load: own snapshot failed to parse: {e}");
                return ExitCode::from(2);
            }
        };
        let diff = diff_metrics(&old, &new, DiffOptions::default());
        if !diff.deterministic_match() {
            print!("{}", diff.render(&old, &new));
            eprintln!(
                "wire-load: deterministic drift vs baseline {} ({} keys)",
                baseline.display(),
                diff.drift.len()
            );
            failed = true;
        }
    }

    if summary.unexpected_outcomes > 0 {
        eprintln!(
            "wire-load: {} sessions diverged from the deterministic plan",
            summary.unexpected_outcomes
        );
        failed = true;
    }
    if summary.degraded {
        eprintln!("wire-load: campaign fully degraded (no session completed)");
        failed = true;
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
