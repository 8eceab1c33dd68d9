//! The one output writer of `repro`, `ingest` and `serve`.
//!
//! A finished run leaves, in its `--out` directory:
//!
//! * `<id>.svg` / `<id>.json` — one chart and one machine-readable
//!   payload per artifact, byte-identical whichever command ran;
//! * `BENCH_metrics.json` — the metrics snapshot (with `--metrics`): a
//!   `deterministic` section that is byte-identical at every
//!   parallelism level, and a `wall_clock` section that is not;
//! * `BENCH_trace.json` — the span tree and lifecycle events in Chrome
//!   Trace Event Format;
//! * `BENCH_ledger.jsonl` — one `st-run/v2` row appended per run;
//! * `report.md` — headlines, `## Timings`, `## Health`, `## Metrics`,
//!   every artifact's text and the shape-claim audit.
//!
//! The ledger append is the run's commit point: it happens after every
//! artifact is written, so a run cut down earlier leaves no row.

use crate::cli::RunArgs;
use crate::diff::{diff_metrics, MetricsDoc};
use crate::ledger::{append_ledger, LedgerRow};
use crate::{claims, render_report, ReproReport, StreamStats};
use serde::Serialize;
use st_analysis::CityAnalysis;
use st_obs::Registry;
use std::path::Path;
use std::process::ExitCode;

/// The `BENCH_metrics.json` schema: the run header, then the two metric
/// classes. The deterministic section is byte-identical at every
/// parallelism level; `wall_clock` (and the header's `parallelism`) is
/// excluded from that contract.
#[derive(Serialize)]
struct MetricsRecord {
    schema: &'static str,
    scale: f64,
    seed: u64,
    parallelism: usize,
    deterministic: st_obs::DeterministicMetrics,
    wall_clock: st_obs::WallClockMetrics,
}

/// Write one output file. Failures warn (with the path) and are counted
/// so the run can exit nonzero instead of silently dropping artifacts.
fn write_file(path: &Path, contents: &str, failures: &mut usize) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => true,
        Err(e) => {
            *failures += 1;
            eprintln!("WARN: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// Write everything `command`'s finished run leaves on disk (see the
/// module docs), print the report to stdout, run the `--baseline` diff,
/// and decide the exit code.
///
/// `report` must come from [`crate::run_all_observed`] with `obs`
/// enabled, and `stream` is the replay's section of the ledger row
/// (`None` for a batch run). The run exits 1 when an output file could
/// not be written, when the deterministic metrics drift from the
/// baseline, and when an artifact degraded unless `allow_degraded`.
pub fn write_run(
    command: &str,
    args: &RunArgs,
    report: &ReproReport,
    analyses: &[CityAnalysis],
    obs: &Registry,
    stream: Option<StreamStats>,
    allow_degraded: bool,
) -> ExitCode {
    let out = &args.out;
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let mut written = 0usize;
    let mut write_failures = 0usize;
    for a in &report.artifacts {
        if let Some(svg) = &a.svg {
            if write_file(&out.join(format!("{}.svg", a.id)), svg, &mut write_failures) {
                written += 1;
            }
        }
        if write_file(&out.join(format!("{}.json", a.id)), &a.json, &mut write_failures) {
            written += 1;
        }
    }

    // The metrics record is always assembled (`--baseline` diffs
    // against it); the snapshot file itself is only written under
    // `--metrics`.
    let snapshot = report.metrics.as_ref().expect("observed run carries metrics");
    let record = MetricsRecord {
        schema: snapshot.schema,
        scale: args.scale,
        seed: args.seed,
        parallelism: args.parallelism,
        deterministic: snapshot.deterministic.clone(),
        wall_clock: snapshot.wall_clock.clone(),
    };
    let metrics_json = serde_json::to_string_pretty(&record).expect("metrics serialize");
    if args.metrics {
        let metrics_path = out.join("BENCH_metrics.json");
        if write_file(&metrics_path, &metrics_json, &mut write_failures) {
            written += 1;
            eprintln!("wrote {}", metrics_path.display());
        }
    }

    // The process name deliberately excludes parallelism: with
    // `ts`/`dur` stripped, the file is byte-identical at every
    // parallelism level (DESIGN.md §14).
    let mut process = format!("{command} scale={} seed={}", args.scale, args.seed);
    if let Some(s) = &stream {
        process += &format!(
            " chunk_rows={} seal_rows={} epoch_rows={}",
            s.chunk_rows, s.seal_rows, s.epoch_rows
        );
    }
    let trace_path = out.join("BENCH_trace.json");
    if write_file(&trace_path, &obs.trace().to_chrome_json(&process), &mut write_failures) {
        written += 1;
        eprintln!("wrote {}", trace_path.display());
    }

    let ledger_path = out.join("BENCH_ledger.jsonl");
    let row = LedgerRow::from_report(command, report, args.parallelism, stream);
    match append_ledger(&ledger_path, &row) {
        Ok(()) => eprintln!("appended {command} ledger row to {}", ledger_path.display()),
        Err(e) => {
            write_failures += 1;
            eprintln!("WARN: cannot append to {}: {e}", ledger_path.display());
        }
    }

    let claims = claims::check_all(analyses);
    let mut md = render_report(report);
    md.push_str("\n## Shape claims (paper vs this run)\n\n");
    md.push_str(&claims::render_claims(&claims));
    let holds = claims.iter().filter(|c| c.holds).count();
    md.push_str(&format!("\n{holds}/{} claims hold\n", claims.len()));
    if let Err(e) = std::fs::write(out.join("report.md"), &md) {
        eprintln!("cannot write report: {e}");
        return ExitCode::FAILURE;
    }
    println!("{md}");

    // Regression gate: deterministic drift fails the run; wall-clock
    // deltas beyond tolerance only warn (DESIGN.md §14).
    let mut baseline_drift = false;
    if let Some(baseline_path) = &args.baseline {
        let baseline_text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline_doc = match MetricsDoc::parse(&baseline_text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let current_doc = MetricsDoc::parse(&metrics_json).expect("own snapshot parses");
        let diff = diff_metrics(&baseline_doc, &current_doc, args.diff_options);
        println!("{}", diff.render(&baseline_doc, &current_doc));
        if diff.deterministic_match() {
            eprintln!(
                "baseline {}: deterministic metrics match ({} keys)",
                baseline_path.display(),
                diff.matched_keys
            );
        } else {
            baseline_drift = true;
            eprintln!(
                "BASELINE DRIFT: {} deterministic keys differ from {}",
                diff.drift.len(),
                baseline_path.display()
            );
        }
    }

    let t = &report.timings;
    let stream_line = stream
        .map(|s| format!(" | stream {:.1}s ({:.0} rows/s)", s.ingest_s, s.rows_per_s))
        .unwrap_or_default();
    eprintln!(
        "generate {:.1}s{stream_line} | fit {:.1}s | derive {:.1}s | render {:.1}s",
        t.generate_s, t.fit_s, t.derive_s, t.render_s
    );
    eprintln!("wrote {} files to {}", written + 1, out.display());
    if write_failures > 0 {
        eprintln!("WRITE FAILURES: {write_failures} output files could not be written");
    }
    let degraded = report.health.is_degraded();
    if degraded {
        let h = &report.health;
        eprintln!(
            "DEGRADED: {} of {} render jobs failed ({} retried); see the report's Health section",
            h.jobs_failed, h.jobs_total, h.jobs_retried
        );
    }
    if (degraded && !allow_degraded) || baseline_drift || write_failures > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
