//! Replay the campaigns as incremental chunk streams through the
//! contextualization service, without its query listener, and
//! regenerate every table and figure from the frozen stores.
//!
//! ```text
//! ingest [--scale S] [--seed N] [--out DIR] [--parallelism P]
//!        [--chunk-rows C] [--seal-rows R] [--metrics]
//!        [--baseline METRICS.json] [--wall-ratio R] [--wall-floor S]
//! ```
//!
//! The batch `repro` binary sanitizes each campaign whole; this binary
//! instead builds an `st_serve::ContextService` over the four city
//! partitions and runs `st_bench::build_analyses_serve` on it: each
//! campaign is split into `C`-row chunks and appended in a
//! seed-scheduled interleave, sanitized per chunk, with immutable
//! segments sealed every `R` accepted rows. The frozen stores then flow
//! through the batch fit, derive and render stages. It is `serve`
//! without a listener, wire sessions, warm fits or the final epoch.
//!
//! The point of the exercise is the identity it proves: the artifact set
//! written here is byte-identical to a batch `repro` run at the same
//! scale and seed — for any chunk size, any seal threshold, and any
//! parallelism. The appended `st-run/v2` ledger row carries the artifact
//! hash plus the `stream` section (plan, chunk/segment/epoch counts and
//! throughput), so the identity is checkable straight from the ledger.
//! Outputs and exit codes are `repro`'s (see `st_bench::output`); a
//! degraded run always exits 1.

use st_bench::cli::{self, CliError, RunArgs};
use st_bench::{build_analyses_serve, city_partitions, output, run_all_observed, SuperviseOptions};
use st_serve::{ContextService, ServeOptions};
use std::process::ExitCode;

const USAGE: &str = "usage: ingest [--scale S] [--seed N] [--out DIR] [--parallelism P] \
     [--chunk-rows C] [--seal-rows R] [--metrics] \
     [--baseline METRICS.json] [--wall-ratio R] [--wall-floor S]";

struct Args {
    run: RunArgs,
    chunk_rows: usize,
    seal_rows: usize,
}

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        run: RunArgs::new("ingest-out"),
        chunk_rows: 2048,
        seal_rows: st_speedtest::DEFAULT_SEAL_ROWS,
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
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return e.report(USAGE),
    };
    let run = &args.run;

    eprintln!(
        "replaying 4 cities at scale {} (seed {}, parallelism {}, chunks of {}, seal at {}) ...",
        run.scale, run.seed, run.parallelism, args.chunk_rows, args.seal_rows
    );
    let obs = st_obs::Registry::new();
    let service = ContextService::new(
        city_partitions(),
        ServeOptions { seal_rows: args.seal_rows, ..ServeOptions::default() },
        obs.clone(),
    );
    let (analyses, timings, sanitize, stream) = match build_analyses_serve(
        run.scale,
        run.seed,
        run.parallelism,
        args.chunk_rows,
        &service,
        &obs,
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("ingest replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "ingested {} rows in {} chunks ({} segments sealed) in {:.1}s; running experiments ...",
        stream.rows, stream.chunks, stream.segments, stream.ingest_s
    );

    let opts = SuperviseOptions { parallelism: run.parallelism, ..SuperviseOptions::default() };
    let report = run_all_observed(&analyses, run.scale, run.seed, &opts, timings, sanitize, &obs);
    output::write_run("ingest", run, &report, &analyses, &obs, Some(stream), false)
}
