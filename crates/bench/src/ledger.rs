//! Append-only run ledger: one JSON line per completed run.
//!
//! `repro`, `ingest` and `serve` each append one [`LedgerRow`] (schema
//! [`RUN_LEDGER_SCHEMA`]) to `BENCH_ledger.jsonl` after every run
//! (DESIGN.md §14), so a working directory accumulates a queryable
//! history: the command, run knobs (scale, seed, parallelism), an FNV-1a
//! hash of the artifact set, headline counters, the per-stage wall-clock
//! durations, and — for a replay through the service — the `stream`
//! section. `wire-load` appends [`LoadLedgerRow`]s to the same kind of
//! file. The file is JSON Lines — append-only, one self-contained object
//! per line — so concurrent tooling can `tail` it and a truncated final
//! line (crash mid-append) never corrupts the rows before it.
//!
//! The artifact hash uses the same FNV-1a scheme as the golden-identity
//! capture ([`fnv1a`] over the sorted `<id>.svg`/`<id>.json` file set,
//! name bytes then content bytes), so a row's hash can be compared
//! directly against the pinned golden value: two rows with equal
//! `artifact_hash` produced byte-identical artifact sets, whichever
//! command wrote them.

use crate::diff::{diff_metrics, DiffOptions, MetricsDoc};
use crate::{Artifact, ReproReport, StreamStats};
use serde::Serialize;
use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema tag stamped on every `repro`, `ingest` and `serve` row.
pub const RUN_LEDGER_SCHEMA: &str = "st-run/v2";

/// Schema tag stamped on every `wire-load` campaign row.
pub const LOAD_LEDGER_SCHEMA: &str = "st-load/v1";

/// FNV-1a offset basis (matches the golden-identity test).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (matches the golden-identity test).
pub const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Fold `bytes` into an FNV-1a hash state.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash an artifact set the way the golden-identity capture did: the
/// `<id>.svg` / `<id>.json` files the repro binary writes (`report.md`
/// and the BENCH_* records carry wall-clock values and are excluded),
/// sorted by file name, each folded as name bytes then content bytes.
/// Returns `(hash, file_count)`.
pub fn artifact_hash(artifacts: &[Artifact]) -> (u64, usize) {
    let mut files: Vec<(String, &str)> = Vec::new();
    for a in artifacts {
        if let Some(svg) = &a.svg {
            files.push((format!("{}.svg", a.id), svg));
        }
        files.push((format!("{}.json", a.id), &a.json));
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = FNV_OFFSET;
    for (name, body) in &files {
        h = fnv1a(name.as_bytes(), h);
        h = fnv1a(body.as_bytes(), h);
    }
    (h, files.len())
}

/// One run's summary row. Everything except the stage durations and
/// the stream's `ingest_s`/`rows_per_s` is deterministic for a given
/// (code, command, scale, seed, fault-injection, plan) tuple —
/// `artifact_hash` in particular is the same for every command and at
/// every parallelism.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LedgerRow {
    /// Row schema tag ([`RUN_LEDGER_SCHEMA`]).
    pub schema: String,
    /// The binary that ran: `repro`, `ingest` or `serve`.
    pub command: String,
    /// The run's `--scale`.
    pub scale: f64,
    /// The run's `--seed`.
    pub seed: u64,
    /// The run's `--parallelism`.
    pub parallelism: usize,
    /// FNV-1a hash of the artifact file set, as 16 hex digits.
    pub artifact_hash: String,
    /// Files in the hashed artifact set.
    pub artifact_files: usize,
    /// Artifacts produced (placeholders included).
    pub artifacts: usize,
    /// Headline numbers produced.
    pub headlines: usize,
    /// Render jobs that failed both attempts (degraded placeholders).
    pub jobs_failed: usize,
    /// Render jobs that survived on their retry.
    pub jobs_retried: usize,
    /// Records the sanitizer passed through untouched.
    pub records_clean: u64,
    /// Records the sanitizer repaired.
    pub records_repaired: u64,
    /// Records the sanitizer quarantined.
    pub records_quarantined: u64,
    /// Wall-clock seconds of the generate stage.
    pub generate_s: f64,
    /// Wall-clock seconds of the fit stage.
    pub fit_s: f64,
    /// Wall-clock seconds of the derive stage.
    pub derive_s: f64,
    /// Wall-clock seconds of the render stage.
    pub render_s: f64,
    /// The replay's plan and counts; `null` for a batch run.
    pub stream: Option<StreamStats>,
}

impl LedgerRow {
    /// Parse one ledger line back into a row — the console's read side.
    /// `st-load/v1` rows and unknown schemas (an `st-ledger/v1` row from
    /// before the run row was unified included) are rejected with a
    /// typed message.
    pub fn parse(line: &str) -> Result<LedgerRow, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("bad ledger JSON: {e}"))?;
        LedgerRow::from_value(&v)
    }

    /// [`LedgerRow::parse`] over an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<LedgerRow, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| "ledger row has no string `schema` tag".to_string())?;
        if schema == LOAD_LEDGER_SCHEMA {
            return Err(format!(
                "{schema} rows carry a metrics hash, not an artifact set — not batch-comparable"
            ));
        }
        if schema != RUN_LEDGER_SCHEMA {
            return Err(format!("unknown ledger schema {schema:?}"));
        }
        let u64f = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{schema} row is missing u64 `{k}`"))
        };
        let f64f = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64_lossy)
                .ok_or_else(|| format!("{schema} row is missing number `{k}`"))
        };
        let strf = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{schema} row is missing string `{k}`"))
        };
        let artifact_hash = strf("artifact_hash")?;
        let stream = match v.get("stream") {
            None => return Err(format!("{schema} row is missing `stream`")),
            Some(Value::Null) => None,
            Some(s) => Some(StreamStats {
                chunk_rows: u64f(s, "chunk_rows")? as usize,
                seal_rows: u64f(s, "seal_rows")? as usize,
                epoch_rows: u64f(s, "epoch_rows")? as usize,
                chunks: u64f(s, "chunks")?,
                rows: u64f(s, "rows")?,
                segments: u64f(s, "segments")?,
                epochs: u64f(s, "epochs")?,
                ingest_s: f64f(s, "ingest_s")?,
                rows_per_s: f64f(s, "rows_per_s")?,
            }),
        };
        Ok(LedgerRow {
            schema: schema.to_string(),
            artifact_hash,
            command: strf("command")?,
            scale: f64f(v, "scale")?,
            seed: u64f(v, "seed")?,
            parallelism: u64f(v, "parallelism")? as usize,
            artifact_files: u64f(v, "artifact_files")? as usize,
            artifacts: u64f(v, "artifacts")? as usize,
            headlines: u64f(v, "headlines")? as usize,
            jobs_failed: u64f(v, "jobs_failed")? as usize,
            jobs_retried: u64f(v, "jobs_retried")? as usize,
            records_clean: u64f(v, "records_clean")?,
            records_repaired: u64f(v, "records_repaired")?,
            records_quarantined: u64f(v, "records_quarantined")?,
            generate_s: f64f(v, "generate_s")?,
            fit_s: f64f(v, "fit_s")?,
            derive_s: f64f(v, "derive_s")?,
            render_s: f64f(v, "render_s")?,
            stream,
        })
    }

    /// The row's batch-comparable fields as a [`MetricsDoc`], so ledger
    /// rows ride the exact-comparison machinery `obs-diff` uses: the
    /// counters every command shares become counters, the scale becomes
    /// a gauge, and the stage durations stay out (wall-clock class).
    pub fn deterministic_doc(&self) -> MetricsDoc {
        let mut doc = MetricsDoc {
            schema: self.schema.clone(),
            scale: Some(self.scale),
            seed: Some(self.seed),
            parallelism: Some(self.parallelism as u64),
            ..MetricsDoc::default()
        };
        for (key, value) in [
            ("ledger.artifacts", self.artifacts as u64),
            ("ledger.headlines", self.headlines as u64),
            ("ledger.jobs_failed", self.jobs_failed as u64),
            ("ledger.jobs_retried", self.jobs_retried as u64),
            ("ledger.records_clean", self.records_clean),
            ("ledger.records_repaired", self.records_repaired),
            ("ledger.records_quarantined", self.records_quarantined),
            ("ledger.artifact_files", self.artifact_files as u64),
        ] {
            doc.counters.insert(key.to_string(), value);
        }
        doc.gauges.insert("ledger.scale".to_string(), self.scale);
        doc
    }

    /// Drift flags for this row against a baseline row, one line per
    /// divergent key. Empty means the runs are batch-identical where
    /// the determinism contract requires it: seed, the counter surface,
    /// and the artifact hash. The command, `parallelism` and the
    /// `stream` section are exempt — comparing a serve run against a
    /// batch baseline across parallelism levels is exactly the
    /// console's job.
    pub fn drift_against(&self, baseline: &LedgerRow) -> Vec<String> {
        let mut flags = Vec::new();
        if self.seed != baseline.seed {
            flags.push(format!("seed: {} -> {}", baseline.seed, self.seed));
        }
        let diff = diff_metrics(
            &baseline.deterministic_doc(),
            &self.deterministic_doc(),
            DiffOptions::default(),
        );
        for d in &diff.drift {
            flags.push(format!("{} {}: {}", d.section, d.key, d.detail));
        }
        if self.artifact_hash != baseline.artifact_hash {
            flags.push(format!(
                "artifact_hash: {} -> {}",
                baseline.artifact_hash, self.artifact_hash
            ));
        }
        flags
    }

    /// Summarize one completed run of `command`; `stream` is the
    /// replay's section, `None` for a batch run.
    pub fn from_report(
        command: &str,
        report: &ReproReport,
        parallelism: usize,
        stream: Option<StreamStats>,
    ) -> LedgerRow {
        let (hash, files) = artifact_hash(&report.artifacts);
        let s = &report.health.sanitize;
        LedgerRow {
            schema: RUN_LEDGER_SCHEMA.to_string(),
            command: command.to_string(),
            scale: report.scale,
            seed: report.seed,
            parallelism,
            artifact_hash: format!("{hash:016x}"),
            artifact_files: files,
            artifacts: report.artifacts.len(),
            headlines: report.headlines.len(),
            jobs_failed: report.health.jobs_failed,
            jobs_retried: report.health.jobs_retried,
            records_clean: s.clean,
            records_repaired: s.repaired,
            records_quarantined: s.quarantined,
            generate_s: report.timings.generate_s,
            fit_s: report.timings.fit_s,
            derive_s: report.timings.derive_s,
            render_s: report.timings.render_s,
            stream,
        }
    }
}

/// One `wire-load` campaign's summary row (schema [`LOAD_LEDGER_SCHEMA`]).
/// Every field up to `breaker_trips` is deterministic for a given
/// (code, sessions, seed, fault-rate, pool) tuple — `metrics_hash` in
/// particular is parallelism-invariant, which is what the `chaos-smoke`
/// CI job regression-gates on. The trailing means and `elapsed_s` are
/// wall-clock class.
#[derive(Debug, Clone, Serialize)]
pub struct LoadLedgerRow {
    /// Row schema tag ([`LOAD_LEDGER_SCHEMA`]).
    pub schema: String,
    /// The campaign's `--seed` (fault schedule + backoff jitter).
    pub seed: u64,
    /// The campaign's `--fault-rate`.
    pub fault_rate: f64,
    /// Sessions driven.
    pub sessions: u64,
    /// Servers in the shaped pool.
    pub pool: usize,
    /// The campaign's `--parallelism` (documentation only: nothing
    /// deterministic may depend on it).
    pub parallelism: usize,
    /// FNV-1a of the deterministic metrics JSON, as 16 hex digits: two
    /// rows with equal hashes saw byte-identical deterministic sections.
    pub metrics_hash: String,
    /// Planned healthy completions.
    pub sessions_ok: u64,
    /// Planned retried completions.
    pub sessions_retried: u64,
    /// Planned degraded completions.
    pub sessions_degraded: u64,
    /// Planned abandonments.
    pub sessions_abandoned: u64,
    /// Breaker-skipped sessions.
    pub sessions_skipped: u64,
    /// Breaker trips summed over endpoints.
    pub breaker_trips: u64,
    /// Sessions whose actual fate diverged from the plan (wall-clock
    /// class; 0 on a healthy host).
    pub unexpected_outcomes: u64,
    /// True when no session completed (the NaN-free empty marker).
    pub degraded: bool,
    /// Mean download over completed sessions, Mbps.
    pub mean_down_mbps: f64,
    /// Mean RTT over completed sessions, milliseconds.
    pub mean_latency_ms: f64,
    /// Mean streaming score over completed sessions.
    pub mean_streaming: f64,
    /// Mean gaming score over completed sessions.
    pub mean_gaming: f64,
    /// Mean conferencing score over completed sessions.
    pub mean_conferencing: f64,
    /// Campaign wall time, seconds.
    pub elapsed_s: f64,
}

impl LoadLedgerRow {
    /// Summarize one completed campaign. `deterministic_json` is the
    /// registry snapshot's exact-compare section, hashed with the same
    /// FNV-1a scheme as artifact sets.
    pub fn from_summary(
        summary: &st_speedtest::LoadSummary,
        deterministic_json: &str,
        seed: u64,
        fault_rate: f64,
        pool: usize,
        parallelism: usize,
    ) -> LoadLedgerRow {
        LoadLedgerRow {
            schema: LOAD_LEDGER_SCHEMA.to_string(),
            seed,
            fault_rate,
            sessions: summary.sessions_total,
            pool,
            parallelism,
            metrics_hash: format!("{:016x}", fnv1a(deterministic_json.as_bytes(), FNV_OFFSET)),
            sessions_ok: summary.sessions_ok,
            sessions_retried: summary.sessions_retried,
            sessions_degraded: summary.sessions_degraded,
            sessions_abandoned: summary.sessions_abandoned,
            sessions_skipped: summary.sessions_skipped,
            breaker_trips: summary.breaker_trips,
            unexpected_outcomes: summary.unexpected_outcomes,
            degraded: summary.degraded,
            mean_down_mbps: summary.mean_down_mbps,
            mean_latency_ms: summary.mean_latency_ms,
            mean_streaming: summary.mean_streaming,
            mean_gaming: summary.mean_gaming,
            mean_conferencing: summary.mean_conferencing,
            elapsed_s: summary.elapsed_s,
        }
    }
}

/// Append one row to the JSON Lines ledger at `path`, creating the file
/// on first use. Strictly append-only: existing rows are never touched.
/// Accepts any serializable row type ([`LedgerRow`], [`LoadLedgerRow`]);
/// the `schema` field tells readers apart.
pub fn append_ledger<T: Serialize>(path: &Path, row: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(row)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{json}")
}

/// Read every row of a ledger back as parsed JSON values, newest last.
/// Blank lines are skipped; a malformed line is an error naming its
/// 1-based line number.
pub fn read_ledger(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = serde_json::from_str(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        rows.push(row);
    }
    Ok(rows)
}

/// Incremental reader over a live ledger file: remembers its byte
/// offset between polls and consumes only newline-terminated lines,
/// matching [`append_ledger`]'s crash contract — a torn final line is
/// not yet a row and will be re-read once its writer finishes it. The
/// file not existing yet is an empty poll, not an error, so a console
/// can attach before the first run completes.
pub struct LedgerTail {
    path: PathBuf,
    offset: u64,
}

impl LedgerTail {
    /// Tail the ledger at `path` from its beginning.
    pub fn new(path: impl Into<PathBuf>) -> LedgerTail {
        LedgerTail { path: path.into(), offset: 0 }
    }

    /// The ledger file being tailed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Run rows completed since the last poll. `st-load/v1` rows share
    /// the file but have no artifact surface, so they are skipped rather
    /// than errors. Any other row it cannot read (bad JSON, or a run row
    /// of a schema before `st-run/v2`) is reported once as an error and
    /// then stepped over: the rows finished before it come back first,
    /// the next poll returns its error, and the poll after that goes on
    /// with the rows behind it. A file that shrank (rotation) restarts
    /// the tail from the top.
    pub fn poll(&mut self) -> Result<Vec<LedgerRow>, String> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot open {}: {e}", self.path.display())),
        };
        let err = |e: std::io::Error| format!("cannot read {}: {e}", self.path.display());
        if file.metadata().map_err(err)?.len() < self.offset {
            self.offset = 0;
        }
        file.seek(SeekFrom::Start(self.offset)).map_err(err)?;
        let mut buf = String::new();
        file.read_to_string(&mut buf).map_err(err)?;
        let mut rows = Vec::new();
        let mut consumed = 0usize;
        while let Some(nl) = buf[consumed..].find('\n') {
            let line = buf[consumed..consumed + nl].trim();
            let start = consumed;
            consumed += nl + 1;
            if line.is_empty() {
                continue;
            }
            let parsed = match serde_json::from_str(line) {
                Ok(v) if v.get("schema").and_then(Value::as_str) == Some(LOAD_LEDGER_SCHEMA) => {
                    continue
                }
                Ok(v) => LedgerRow::from_value(&v),
                Err(e) => Err(format!("{}: bad ledger row: {e}", self.path.display())),
            };
            match parsed {
                Ok(row) => rows.push(row),
                Err(_) if !rows.is_empty() => {
                    consumed = start;
                    break;
                }
                Err(e) => {
                    self.offset += consumed as u64;
                    return Err(e);
                }
            }
        }
        self.offset += consumed as u64;
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(id: &str, svg: Option<&str>, json: &str) -> Artifact {
        Artifact {
            id: id.to_string(),
            text: String::new(),
            svg: svg.map(|s| s.to_string()),
            json: json.to_string(),
        }
    }

    #[test]
    fn artifact_hash_is_order_invariant_and_content_sensitive() {
        let a = art("fig01", Some("<svg/>"), "{}");
        let b = art("table1", None, "{\"rows\":1}");
        let fwd = artifact_hash(&[a.clone(), b.clone()]);
        let rev = artifact_hash(&[b.clone(), a.clone()]);
        assert_eq!(fwd, rev, "hash must sort by file name, not input order");
        assert_eq!(fwd.1, 3, "fig01.svg + fig01.json + table1.json");
        let mut changed = a.clone();
        changed.json = "{\"rows\":2}".to_string();
        assert_ne!(artifact_hash(&[changed, b]).0, fwd.0);
    }

    #[test]
    fn ledger_appends_one_parseable_line_per_row() {
        let dir = std::env::temp_dir().join(format!("st-ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_ledger.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut row = sample_row();
        append_ledger(&path, &row).expect("first append");
        row.parallelism = 4;
        append_ledger(&path, &row).expect("second append");

        let rows = read_ledger(&path).expect("ledger parses");
        assert_eq!(rows.len(), 2, "append-only: both rows survive");
        for r in &rows {
            assert_eq!(r.get("schema").and_then(Value::as_str), Some(RUN_LEDGER_SCHEMA));
            assert_eq!(r.get("command").and_then(Value::as_str), Some("repro"));
            assert_eq!(r.get("artifact_files").and_then(Value::as_u64), Some(89));
            assert_eq!(r.get("stream"), Some(&Value::Null), "a batch row has no stream");
        }
        assert_eq!(rows[0].get("parallelism").and_then(Value::as_u64), Some(1));
        assert_eq!(rows[1].get("parallelism").and_then(Value::as_u64), Some(4));
        let _ = std::fs::remove_file(&path);
    }

    fn sample_row() -> LedgerRow {
        LedgerRow {
            schema: RUN_LEDGER_SCHEMA.to_string(),
            command: "repro".to_string(),
            scale: 0.004,
            seed: 2024,
            parallelism: 1,
            artifact_hash: format!("{:016x}", 0xabcdu64),
            artifact_files: 89,
            artifacts: 40,
            headlines: 12,
            jobs_failed: 0,
            jobs_retried: 0,
            records_clean: 1000,
            records_repaired: 3,
            records_quarantined: 2,
            generate_s: 1.0,
            fit_s: 2.0,
            derive_s: 0.1,
            render_s: 3.0,
            stream: None,
        }
    }

    fn sample_stream() -> StreamStats {
        StreamStats {
            chunk_rows: 500,
            seal_rows: 4096,
            epoch_rows: 8192,
            chunks: 9,
            rows: 100,
            segments: 14,
            epochs: 2,
            ingest_s: 0.5,
            rows_per_s: 200.0,
        }
    }

    #[test]
    fn parse_round_trips_batch_and_stream_rows() {
        let batch = sample_row();
        let serve = LedgerRow {
            command: "serve".to_string(),
            stream: Some(sample_stream()),
            ..sample_row()
        };
        for row in [batch, serve] {
            let line = serde_json::to_string(&row).expect("row serializes");
            assert_eq!(LedgerRow::parse(&line).expect("row parses back"), row);
        }
    }

    #[test]
    fn parse_rejects_load_rows_unknown_schemas_and_torn_fields() {
        let load = format!("{{\"schema\":\"{LOAD_LEDGER_SCHEMA}\",\"seed\":1}}");
        assert!(LedgerRow::parse(&load).unwrap_err().contains("not batch-comparable"));
        assert!(LedgerRow::parse("{\"schema\":\"st-mystery/v9\"}")
            .unwrap_err()
            .contains("unknown ledger schema"));
        // A row from before the run row was unified is not read either.
        let v1 = serde_json::to_string(&sample_row())
            .unwrap()
            .replace(RUN_LEDGER_SCHEMA, "st-ledger/v1");
        assert!(LedgerRow::parse(&v1).unwrap_err().contains("unknown ledger schema"));
        assert!(LedgerRow::parse("{\"seed\":1}").unwrap_err().contains("schema"));
        assert!(LedgerRow::parse("not json").unwrap_err().contains("bad ledger JSON"));
        // A known schema with missing fields names the first one it
        // needed (the hash is extracted before the counters).
        let torn = format!("{{\"schema\":\"{RUN_LEDGER_SCHEMA}\",\"scale\":0.004}}");
        assert!(LedgerRow::parse(&torn).unwrap_err().contains("artifact_hash"));
        // The stream section is required (null for batch), and a present
        // section must be whole.
        let line = serde_json::to_string(&sample_row()).unwrap();
        let no_stream = line.replace(",\"stream\":null", "");
        assert!(LedgerRow::parse(&no_stream).unwrap_err().contains("`stream`"));
        let torn_stream = line.replace("\"stream\":null", "\"stream\":{\"chunk_rows\":500}");
        assert!(LedgerRow::parse(&torn_stream).unwrap_err().contains("seal_rows"));
    }

    #[test]
    fn drift_flags_fire_on_divergence_and_stay_silent_across_run_kinds() {
        let baseline = sample_row();
        // Same deterministic surface, different command, different
        // parallelism, a stream section, different timings: no drift.
        let serve = LedgerRow {
            command: "serve".to_string(),
            parallelism: 4,
            render_s: 99.0,
            stream: Some(sample_stream()),
            ..sample_row()
        };
        assert_eq!(serve.drift_against(&baseline), Vec::<String>::new());
        // Divergent counters, hash, and seed each produce a flag.
        let mut bad = sample_row();
        bad.seed = 2025;
        bad.records_quarantined = 7;
        bad.artifact_hash = format!("{:016x}", 0xbeefu64);
        let flags = bad.drift_against(&baseline);
        assert!(flags.iter().any(|f| f.starts_with("seed:")), "{flags:?}");
        assert!(flags.iter().any(|f| f.contains("ledger.records_quarantined")), "{flags:?}");
        assert!(flags.iter().any(|f| f.starts_with("artifact_hash:")), "{flags:?}");
    }

    #[test]
    fn tail_consumes_only_finished_lines_and_skips_load_rows() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("st-tail-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_ledger.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut tail = LedgerTail::new(&path);
        assert_eq!(tail.poll().expect("missing file is empty").len(), 0);

        append_ledger(&path, &sample_row()).expect("append");
        let rows = tail.poll().expect("first poll");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].seed, 2024);
        assert_eq!(tail.poll().expect("steady state").len(), 0, "no re-reads");

        // A load row shares the file and is skipped; a torn final line
        // (no newline yet) is not consumed until its writer finishes.
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("reopen ledger");
        writeln!(file, "{{\"schema\":\"{LOAD_LEDGER_SCHEMA}\",\"seed\":1}}").unwrap();
        let full = serde_json::to_string(&sample_row()).unwrap();
        let (head, rest) = full.split_at(10);
        write!(file, "{head}").unwrap();
        file.flush().unwrap();
        assert_eq!(tail.poll().expect("torn line poll").len(), 0);
        // Finish the torn line into a full row: now it arrives, once.
        writeln!(file, "{rest}").unwrap();
        drop(file);
        let rows = tail.poll().expect("completed line poll");
        assert_eq!(rows.len(), 1, "exactly the finished row, the load row skipped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tail_reports_an_unreadable_row_once_and_reads_on_past_it() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("st-tail-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_ledger.jsonl");
        let _ = std::fs::remove_file(&path);

        // An output directory from before `st-run/v2` holds an old row;
        // the runs after it append v2 rows behind it.
        let v1 = serde_json::to_string(&sample_row())
            .unwrap()
            .replace(RUN_LEDGER_SCHEMA, "st-ledger/v1");
        append_ledger(&path, &sample_row()).expect("append");
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("reopen ledger");
        writeln!(file, "{v1}").unwrap();
        writeln!(file, "not json").unwrap();
        drop(file);
        append_ledger(&path, &LedgerRow { seed: 7, ..sample_row() }).expect("append");

        let mut tail = LedgerTail::new(&path);
        let rows = tail.poll().expect("the row before the old one");
        assert_eq!(rows.iter().map(|r| r.seed).collect::<Vec<_>>(), vec![2024]);
        assert!(tail.poll().unwrap_err().contains("unknown ledger schema"));
        assert!(tail.poll().unwrap_err().contains("bad ledger row"));
        let rows = tail.poll().expect("the v2 row behind the bad ones");
        assert_eq!(rows.iter().map(|r| r.seed).collect::<Vec<_>>(), vec![7]);
        assert_eq!(tail.poll().expect("steady state").len(), 0, "each row read once");
        let _ = std::fs::remove_file(&path);
    }
}
