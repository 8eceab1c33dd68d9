//! Compare two `BENCH_metrics.json` snapshots under the two-class
//! metric contract (DESIGN.md §14).
//!
//! ```text
//! obs-diff <old> <new> [--wall-ratio R] [--wall-floor S]
//! ```
//!
//! The deterministic metric class (counters, gauges, histograms, series)
//! must match exactly; every mismatch is printed as a per-key drill-down.
//! Wall-clock span durations are compared by `new/old` ratio against a
//! tolerance band (`--wall-ratio`, default 2.0) with a noise floor
//! (`--wall-floor`, default 0.05 s); exceedances are warnings only.
//!
//! Exit code: `0` when the deterministic class is identical (and for
//! `--help`), `1` on deterministic drift, `2` on usage, I/O, or parse
//! errors. Wall-clock exceedances never change the exit code — timings
//! move with load and hardware, and gating on them would make the
//! regression gate flaky.

use st_bench::cli::{self, CliError};
use st_bench::diff::{diff_metrics, DiffOptions, MetricsDoc};
use std::process::ExitCode;

const USAGE: &str = "usage: obs-diff <old-metrics.json> <new-metrics.json> \
    [--wall-ratio R] [--wall-floor S]";

struct Args {
    old: String,
    new: String,
    options: DiffOptions,
}

fn parse_args() -> Result<Args, CliError> {
    let mut paths: Vec<String> = Vec::new();
    let mut options = DiffOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| cli::next_value(&mut it, name);
        match flag.as_str() {
            "--wall-ratio" => {
                options.wall_ratio =
                    cli::parse_float_min("--wall-ratio", &value("--wall-ratio")?, 1.0)?;
            }
            "--wall-floor" => {
                options.wall_floor_s =
                    cli::parse_float_min("--wall-floor", &value("--wall-floor")?, 0.0)?;
            }
            "--help" | "-h" => return Err(CliError::Help),
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {other}")))
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.len() != 2 {
        return Err(CliError::Usage(format!(
            "expected exactly two snapshot paths, got {}",
            paths.len()
        )));
    }
    let new = paths.pop().expect("two paths");
    let old = paths.pop().expect("two paths");
    Ok(Args { old, new, options })
}

fn load(path: &str) -> Result<MetricsDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    MetricsDoc::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return e.report(USAGE),
    };
    let (old, new) = match (load(&args.old), load(&args.new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let diff = diff_metrics(&old, &new, args.options);
    print!("{}", diff.render(&old, &new));
    if diff.deterministic_match() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "obs-diff: deterministic drift between {} and {} ({} keys)",
            args.old,
            args.new,
            diff.drift.len()
        );
        ExitCode::from(1)
    }
}
