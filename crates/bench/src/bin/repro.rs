//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale S] [--seed N] [--out DIR] [--parallelism P]
//!       [--dirty-rate R] [--inject-fail LABEL]... [--deadline-secs D]
//!       [--allow-degraded] [--metrics] [--baseline METRICS.json]
//!       [--wall-ratio R] [--wall-floor S]
//! ```
//!
//! Generates the four city datasets at `S` of the paper's campaign sizes
//! (default 0.05), fits BST, runs every experiment, and writes the
//! artifacts, `report.md`, `BENCH_trace.json`, `BENCH_metrics.json`
//! (with `--metrics`) and one appended `st-run/v2` row in
//! `BENCH_ledger.jsonl` (see `st_bench::output`).
//!
//! `--parallelism` fans dataset generation, BST fitting, and artifact
//! rendering out over worker threads (default: all cores). Output is
//! byte-identical at every parallelism level.
//!
//! `--baseline METRICS.json` diffs this run's metrics against a
//! previously written `BENCH_metrics.json` (see `obs-diff` and
//! DESIGN.md §14): the deterministic class must match exactly or the
//! run exits nonzero; wall-clock spans are compared against the
//! `--wall-ratio` tolerance (default 2.0, with a `--wall-floor` noise
//! floor, default 0.05 s) and only warn.
//!
//! The pipeline is supervised: `--dirty-rate R` corrupts a fraction `R`
//! of generated records with the dirty-measurement fault model (they are
//! repaired or quarantined by the sanitizer and accounted for in the
//! report's `## Health` section); `--inject-fail LABEL` forces the named
//! render job to panic (its artifacts degrade to a placeholder); each
//! render job gets `--deadline-secs` per attempt plus one retry. A run
//! with degraded artifacts exits 1 unless `--allow-degraded` is
//! passed — the report and surviving artifacts are written either way.
//! A run that cannot write one of its output files warns and exits 1
//! too: silently missing artifacts would poison any later baseline
//! comparison. Usage errors exit 2.

use st_bench::cli::{self, CliError, RunArgs};
use st_bench::{build_analyses_observed, output, run_all_observed, SuperviseOptions};
use st_datagen::DirtyScenario;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: repro [--scale S] [--seed N] [--out DIR] [--parallelism P] \
     [--dirty-rate R] [--inject-fail LABEL]... [--deadline-secs D] \
     [--allow-degraded] [--metrics] [--baseline METRICS.json] \
     [--wall-ratio R] [--wall-floor S]";

struct Args {
    run: RunArgs,
    dirty_rate: f64,
    inject_fail: Vec<String>,
    deadline_secs: u64,
    allow_degraded: bool,
}

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        run: RunArgs::new("repro-out"),
        dirty_rate: 0.0,
        inject_fail: Vec::new(),
        deadline_secs: 300,
        allow_degraded: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if args.run.parse_flag(&flag, &mut it)? {
            continue;
        }
        let mut value = |name: &str| cli::next_value(&mut it, name);
        match flag.as_str() {
            "--dirty-rate" => {
                args.dirty_rate =
                    cli::parse_float_min("--dirty-rate", &value("--dirty-rate")?, 0.0)?;
                if args.dirty_rate > 1.0 {
                    return Err(CliError::Usage("--dirty-rate must be in [0, 1]".into()));
                }
            }
            "--inject-fail" => args.inject_fail.push(value("--inject-fail")?),
            "--deadline-secs" => {
                args.deadline_secs =
                    cli::parse_at_least_one("--deadline-secs", &value("--deadline-secs")?)? as u64;
            }
            "--allow-degraded" => args.allow_degraded = true,
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
        "generating 4 cities at scale {} (seed {}, parallelism {}) ...",
        run.scale, run.seed, run.parallelism
    );
    let dirty = (args.dirty_rate > 0.0).then(|| DirtyScenario::with_total_rate(args.dirty_rate));
    let obs = st_obs::Registry::new();
    let (analyses, timings, sanitize) =
        build_analyses_observed(run.scale, run.seed, run.parallelism, dirty.as_ref(), &obs);
    eprintln!(
        "datasets in {:.1}s, BST fits in {:.1}s ({} records quarantined); running experiments ...",
        timings.generate_s, timings.fit_s, sanitize.quarantined
    );

    let opts = SuperviseOptions {
        parallelism: run.parallelism,
        deadline: Duration::from_secs(args.deadline_secs),
        fail_jobs: args.inject_fail.clone(),
        ..SuperviseOptions::default()
    };
    let report = run_all_observed(&analyses, run.scale, run.seed, &opts, timings, sanitize, &obs);
    output::write_run("repro", run, &report, &analyses, &obs, None, args.allow_degraded)
}
