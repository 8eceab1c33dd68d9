//! Shared validated flag parsing for the st-bench binaries.
//!
//! Every binary parses its flags through this module, so they all
//! reject the same nonsense the same way: [`RunArgs`] holds the flags
//! `repro`, `ingest` and `serve` share, and the `parse_*` helpers
//! validate the rest. The exit contract has two halves:
//!
//! * **usage errors** (bad flag, missing value, out-of-range knob like
//!   `--chunk-rows 0`) print the reason and the usage line to stderr and
//!   exit with [`USAGE_EXIT_CODE`] (2) — the caller never started doing
//!   work;
//! * **runtime failures** (degraded render, baseline drift, write
//!   failures) keep exiting 1 as before.
//!
//! `--help` is not an error: it prints the usage string to stdout and
//! exits 0.

use crate::diff::DiffOptions;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code for malformed invocations (POSIX-style "incorrect usage").
pub const USAGE_EXIT_CODE: u8 = 2;

/// How an argument parse ends early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h`: print the usage string to stdout, exit 0.
    Help,
    /// A malformed invocation, and why: print the reason and the usage
    /// string to stderr, exit [`USAGE_EXIT_CODE`].
    Usage(String),
}

impl CliError {
    /// Report the outcome against the binary's `usage` string and
    /// produce its exit code.
    pub fn report(self, usage: &str) -> ExitCode {
        match self {
            CliError::Help => {
                println!("{usage}");
                ExitCode::SUCCESS
            }
            CliError::Usage(msg) => {
                eprintln!("{msg}\n{usage}");
                ExitCode::from(USAGE_EXIT_CODE)
            }
        }
    }
}

/// Pull the value following `flag` off the argument iterator.
pub fn next_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    it.next().ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
}

/// Parse a `--scale`-style fraction: a float in `(0, 1]`.
pub fn parse_scale(flag: &str, raw: &str) -> Result<f64, CliError> {
    let v: f64 = raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))?;
    if !(v > 0.0 && v <= 1.0) {
        return Err(CliError::Usage(format!("{flag} must be in (0, 1], got {raw}")));
    }
    Ok(v)
}

/// Parse a count knob that must be at least 1 (`--chunk-rows`,
/// `--seal-rows`, `--epoch-rows`, `--parallelism`, ...). Zero is a
/// usage error, not a panic deep in the pipeline.
pub fn parse_at_least_one(flag: &str, raw: &str) -> Result<usize, CliError> {
    let v: usize = raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))?;
    if v == 0 {
        return Err(CliError::Usage(format!("{flag} must be >= 1")));
    }
    Ok(v)
}

/// Parse an unsigned 64-bit knob (`--seed`, session counts, ...).
pub fn parse_u64(flag: &str, raw: &str) -> Result<u64, CliError> {
    raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))
}

/// Parse an unsigned count that may legitimately be zero
/// (`--wire-sessions`, `--linger`, ...).
pub fn parse_count(flag: &str, raw: &str) -> Result<usize, CliError> {
    raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))
}

/// Parse a float knob with a lower bound (`--wall-ratio`, ...). NaN is
/// rejected.
pub fn parse_float_min(flag: &str, raw: &str, min: f64) -> Result<f64, CliError> {
    let v: f64 = raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))?;
    if v < min || v.is_nan() {
        return Err(CliError::Usage(format!("{flag} must be >= {min}")));
    }
    Ok(v)
}

/// The flags `repro`, `ingest` and `serve` share: what to generate,
/// where the outputs go, and the `--baseline` comparison.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// `--scale`: fraction of the paper's campaign sizes.
    pub scale: f64,
    /// `--seed`.
    pub seed: u64,
    /// `--out`: the output directory.
    pub out: PathBuf,
    /// `--parallelism`: worker threads for every stage.
    pub parallelism: usize,
    /// `--metrics`: also write `BENCH_metrics.json`.
    pub metrics: bool,
    /// `--baseline`: a previous `BENCH_metrics.json` to diff against.
    pub baseline: Option<PathBuf>,
    /// `--wall-ratio` and `--wall-floor` for the baseline diff.
    pub diff_options: DiffOptions,
}

impl RunArgs {
    /// The defaults, writing to `out`.
    pub fn new(out: &str) -> RunArgs {
        RunArgs {
            scale: 0.05,
            seed: 20220707,
            out: PathBuf::from(out),
            parallelism: st_datagen::par::default_parallelism(),
            metrics: false,
            baseline: None,
            diff_options: DiffOptions::default(),
        }
    }

    /// Take `flag` (and its value from `it`) if it is one of the shared
    /// flags; `Ok(false)` leaves it to the binary.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, CliError> {
        match flag {
            "--scale" => self.scale = parse_scale(flag, &next_value(it, flag)?)?,
            "--seed" => self.seed = parse_u64(flag, &next_value(it, flag)?)?,
            "--out" => self.out = PathBuf::from(next_value(it, flag)?),
            "--parallelism" => self.parallelism = parse_at_least_one(flag, &next_value(it, flag)?)?,
            "--metrics" => self.metrics = true,
            "--baseline" => self.baseline = Some(PathBuf::from(next_value(it, flag)?)),
            "--wall-ratio" => {
                self.diff_options.wall_ratio = parse_float_min(flag, &next_value(it, flag)?, 1.0)?;
            }
            "--wall-floor" => {
                self.diff_options.wall_floor_s =
                    parse_float_min(flag, &next_value(it, flag)?, 0.0)?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counts_are_usage_errors() {
        for flag in ["--chunk-rows", "--seal-rows", "--epoch-rows", "--parallelism"] {
            match parse_at_least_one(flag, "0") {
                Err(CliError::Usage(msg)) => assert!(msg.contains(flag), "{msg}"),
                other => panic!("{flag} 0 must be a usage error, got {other:?}"),
            }
        }
        assert_eq!(parse_at_least_one("--chunk-rows", "500"), Ok(500));
    }

    #[test]
    fn scale_bounds_and_garbage_are_usage_errors() {
        assert!(parse_scale("--scale", "0.05").is_ok());
        assert!(parse_scale("--scale", "1.0").is_ok());
        for bad in ["0", "1.5", "-0.1", "NaN", "banana"] {
            assert!(
                matches!(parse_scale("--scale", bad), Err(CliError::Usage(_))),
                "--scale {bad} must be rejected"
            );
        }
    }

    #[test]
    fn missing_values_and_floats_are_validated() {
        let mut empty = std::iter::empty::<String>();
        assert!(matches!(next_value(&mut empty, "--seed"), Err(CliError::Usage(_))));
        let mut one = ["7".to_string()].into_iter();
        assert_eq!(next_value(&mut one, "--seed").unwrap(), "7");
        assert_eq!(parse_u64("--seed", "7"), Ok(7));
        assert!(matches!(parse_float_min("--wall-ratio", "0.5", 1.0), Err(CliError::Usage(_))));
        assert!(matches!(parse_float_min("--wall-ratio", "NaN", 1.0), Err(CliError::Usage(_))));
        assert_eq!(parse_float_min("--wall-ratio", "1.25", 1.0), Ok(1.25));
        assert_eq!(parse_count("--linger", "0"), Ok(0));
    }

    #[test]
    fn run_args_take_the_shared_flags_and_leave_the_rest() {
        let mut args = RunArgs::new("out");
        let mut it = ["0.01", "7", "--chunk-rows", "500"].map(String::from).into_iter();
        assert_eq!(args.parse_flag("--scale", &mut it), Ok(true));
        assert_eq!(args.parse_flag("--seed", &mut it), Ok(true));
        assert_eq!(args.parse_flag("--metrics", &mut it), Ok(true));
        assert_eq!((args.scale, args.seed, args.metrics), (0.01, 7, true));
        assert_eq!(args.parse_flag("--chunk-rows", &mut it), Ok(false), "not a shared flag");
        assert_eq!(it.next().as_deref(), Some("--chunk-rows"), "an unknown flag takes no value");
        let mut zero = ["0".to_string()].into_iter();
        assert!(matches!(args.parse_flag("--parallelism", &mut zero), Err(CliError::Usage(_))));
    }
}
