//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload dirty|clean [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run plays the whole operator story on campaigns generated from
//! the seed (default 20220707, scale 0.05: the `repro` defaults), through
//! the workspace crates' public entry points only:
//!
//! 1. **set-up** — generate the four cities' campaigns; `setup_s` is the
//!    median of two set-ups;
//! 2. **repro** — the analyst's batch run, `build_analyses_observed`
//!    then `run_all_observed`, hashed in memory; `repro_s` is the median
//!    of three;
//! 3. **serve** — `max(8, round(0.2 S))` identical rounds of the live
//!    service: one writer streams 2048-row chunks into a fresh
//!    `ContextService` while an open-loop poller queries it, then the
//!    round drains, fits, renders and publishes its final epoch;
//! 4. **query** — after each round, a `0.05 S / rounds` slice of two
//!    closed-loop clients against the round's finished service.
//!
//! The run is cut into three blocks, each a batch run and a third of the
//! rounds, the first two with a set-up before them, so the repeats of
//! every phase sample the host across the whole run. Between every two
//! samples it times the host-speed probe (`host.rs`), and every timed
//! end-to-end metric but the keep-alive latency is put on the reference
//! host's clock with the probes around its sample.
//!
//! The two workloads differ only in their input: `dirty` carries 2 %
//! dirty rows (`repro --dirty-rate 0.02`), so sanitize repairs and
//! quarantines; `clean` carries none. With `--trace 1` the run also
//! repeats the batch run and one serve round with every layer call
//! timed, probes the query layers in-process, and prints per-layer
//! metrics instead of end-to-end ones. The last stdout line is the JSON
//! result; every check that fails is printed and makes the exit code 1.

mod batch;
mod host;
mod query;
mod serve;
mod stats;
mod trace;

use batch::{counter_total, Input};
use host::HostClock;
use stats::{mean, median, minus_dispatch, percentile, self_time, Pct};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload dirty|clean [--seed N] [--seconds S] [--trace 0|1]";

/// The `repro` defaults: the default seed, and the scale every run uses.
const DEFAULT_SEED: u64 = 20220707;
const SCALE: f64 = 0.05;
/// Default `--seconds`, the value `BENCHMARK.json` runs with.
const DEFAULT_SECONDS: f64 = 40.0;
/// Dirty-row rate of the `dirty` workload (`repro --dirty-rate 0.02`).
const DIRTY_RATE: f64 = 0.02;
/// Blocks per run. Each block makes one batch run and serves its share
/// of the rounds, and the first `SETUPS` of them also set up, so the
/// repeats of every phase sample the host across the whole run.
/// `repro_s` is the median of `BLOCKS` batch runs, `setup_s` of `SETUPS`
/// set-ups: the batch run is gated on its spread, the set-up only on its
/// median, so the run spends its time on the former.
const BLOCKS: usize = 3;
const SETUPS: usize = 2;
/// Serve rounds per second of `--seconds`, and the least a run makes
/// (enough polls for a p99 with ten samples beyond it).
const ROUNDS_PER_SECOND: f64 = 0.2;
const MIN_ROUNDS: usize = 8;
/// Share of `--seconds` given to the read-only query phase.
const QUERY_SHARE: f64 = 0.05;
/// Open-loop poll interval during serve rounds: the fastest rate tried
/// at which the generator kept its schedule while the writer's metrics
/// stayed as they were with no poller (README.md, "Poll rate").
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Repetitions of each in-process probe.
const PROBE_REPS: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Dirty,
    Clean,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "dirty" => Some(Workload::Dirty),
            "clean" => Some(Workload::Clean),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Dirty => "dirty",
            Workload::Clean => "clean",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse::<u64>().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = s;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Operations attempted, the ones that failed, and every failed check.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn ops(&mut self, attempted: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += errors.len() as u64;
        self.problems.extend(errors.iter().take(5).cloned());
    }

    fn render(&mut self, what: &str, jobs: (usize, usize, usize)) {
        let (total, _, failed) = jobs;
        self.attempted += total as u64;
        self.failed += failed as u64;
        if failed > 0 {
            self.problems.push(format!("{what}: {failed} of {total} render jobs degraded"));
        }
    }

    fn expect(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric { name: name.to_string(), value, unit, note: note.into() }
}

/// A percentile in milliseconds with its sample note, or an error when
/// too few samples lie beyond it to report it.
fn pct_ms(name: &str, samples: &[f64], p: f64) -> Result<(f64, String), String> {
    let Pct { value, n, beyond } = percentile(samples, p).ok_or_else(|| {
        format!("{name}: {} samples leave fewer than 10 beyond p{}", samples.len(), p * 100.0)
    })?;
    Ok((value * 1e3, format!("p{} of n={n}, {beyond} beyond", p * 100.0)))
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// FNV-1a over every generated row's identity and measured values
/// (NaN-safe, unlike `==` on dirty rows).
fn fingerprint(datasets: &[st_datagen::CityDataset]) -> u64 {
    use st_bench::ledger::{fnv1a, FNV_OFFSET};
    let mut h = FNV_OFFSET;
    for ds in datasets {
        for m in ds.ookla.iter().chain(&ds.mlab).chain(&ds.mba) {
            for word in [m.id, m.user_id, m.down_mbps.to_bits(), m.up_mbps.to_bits()] {
                h = fnv1a(&word.to_le_bytes(), h);
            }
            h = fnv1a(&[m.day.to_le_bytes()[0], m.day.to_le_bytes()[1], m.hour], h);
        }
    }
    h
}

/// Work counts of a serve round; a function of the seed alone, so they
/// repeat exactly from round to round and from run to run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RoundCounts {
    rows: u64,
    chunks: u64,
    quarantined: u64,
    crossings: u64,
    warm_calls: u64,
    warm_rows: u64,
    epochs: u64,
}

impl RoundCounts {
    fn of(r: &serve::Round) -> Self {
        RoundCounts {
            rows: r.rows,
            chunks: r.chunks,
            quarantined: r.quarantined,
            crossings: r.crossings.len() as u64,
            warm_calls: r.warm.0,
            warm_rows: r.warm.1,
            epochs: r.epochs,
        }
    }
}

/// Check a finished serve round against the batch run and the first
/// round's work counts, and count its operations.
fn check_round(
    checks: &mut Checks,
    label: &str,
    r: &serve::Round,
    repro: &batch::Rendered,
    first: Option<RoundCounts>,
) {
    if let Some(first) = first {
        let now = RoundCounts::of(r);
        checks.expect(now == first, || {
            format!("{label}: counts {now:?} differ from round 1 {first:?}")
        });
    }
    checks.ops(r.chunks, &r.ingest_errors);
    checks.ops(r.polls.log.attempted(), &r.polls.log.errors);
    checks.render(label, r.rendered.jobs);
    let want = format!("{:016x}", r.rendered.hash);
    checks.expect(r.published_hash.as_deref() == Some(want.as_str()), || {
        format!("{label}: final epoch carries hash {:?}, render hashed {want}", r.published_hash)
    });
    let (a, b) = (&r.rendered.sanitize, &repro.sanitize);
    checks.expect(
        (a.clean, a.repaired, a.quarantined) == (b.clean, b.repaired, b.quarantined),
        || {
            format!(
            "{label}: incremental sanitize {}/{}/{} != batch {}/{}/{} (clean/repaired/quarantined)",
            a.clean, a.repaired, a.quarantined, b.clean, b.repaired, b.quarantined
        )
        },
    );
    let served = counter_total(&r.rendered.metrics, "serve.rows");
    checks.expect(served == r.rows, || {
        format!("{label}: serve.rows {served} != rows offered {}", r.rows)
    });
}

struct Outcome {
    checks: Checks,
    metrics: Vec<Metric>,
}

/// Generate the campaigns once, recording how long it took and a
/// fingerprint of what it made.
fn set_up(
    input: &Input,
    clock: &mut HostClock,
    times: &mut Samples,
    prints: &mut Vec<u64>,
) -> Result<(Vec<st_datagen::CityDataset>, u64), String> {
    let t0 = Instant::now();
    let (datasets, generated) = batch::generate(input);
    times.push(t0.elapsed().as_secs_f64(), clock.mark()?);
    prints.push(fingerprint(&datasets));
    Ok((datasets, generated))
}

/// The samples of one timed metric as measured, each with the probe
/// taken right after it, so that they can be put on the reference
/// host's clock once the run's probes are all in (`host.rs`).
#[derive(Default)]
struct Samples {
    measured: Vec<f64>,
    marks: Vec<usize>,
}

impl Samples {
    /// Add a sample measured just before probe `mark`.
    fn push(&mut self, value: f64, mark: usize) {
        self.measured.push(value);
        self.marks.push(mark);
    }

    /// Durations on the reference clock.
    fn times(&self, clock: &HostClock) -> Vec<f64> {
        self.measured.iter().zip(&self.marks).map(|(v, &k)| v * clock.factor(k)).collect()
    }

    /// Rates on the reference clock.
    fn rates(&self, clock: &HostClock) -> Vec<f64> {
        self.measured.iter().zip(&self.marks).map(|(v, &k)| v / clock.factor(k)).collect()
    }

    /// The note of a median metric: how many samples, and their median
    /// as measured.
    fn note(&self, what: &str, unit: &str) -> String {
        let n = self.measured.len();
        format!("median of {n} {what}; {:.4} {unit} as measured", median(&self.measured))
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let input = Input {
        scale: SCALE,
        seed: args.seed,
        dirty: (args.workload == Workload::Dirty)
            .then(|| st_datagen::DirtyScenario::with_total_rate(DIRTY_RATE)),
        parallelism: st_datagen::par::default_parallelism(),
    };
    let rounds = MIN_ROUNDS.max((args.seconds * ROUNDS_PER_SECOND).round() as usize);
    let query_slice = Duration::from_secs_f64(args.seconds * QUERY_SHARE / rounds as f64);
    println!(
        "perfbench workload={} seed={} scale={SCALE} parallelism={} seconds={} trace={} \
         blocks={BLOCKS} serve_rounds={rounds} query_s={:.1} poll_interval_ms={}",
        args.workload.name(),
        args.seed,
        input.parallelism,
        args.seconds,
        u8::from(args.trace),
        query_slice.as_secs_f64() * rounds as f64,
        POLL_INTERVAL.as_secs_f64() * 1e3,
    );
    let mut checks = Checks::default();
    // The probe runs on as many threads as the program does.
    let mut clock = HostClock::start(input.parallelism)?;

    // Set-up: the campaigns every serve round streams. The later
    // set-ups are only timed and fingerprinted.
    let (mut setup, mut prints) = (Samples::default(), Vec::new());
    let (datasets, generated) = set_up(&input, &mut clock, &mut setup, &mut prints)?;
    // The peak so far after each phase, so the phase that sets
    // `peak_rss_mb` can be read off.
    let mut peaks = vec![("set-up", peak_rss_mb()?)];

    let untraced = Tracer::new(false);
    let mut repro = Samples::default();
    let mut batch_render: Option<batch::Rendered> = None;
    let mut hashes = Vec::new();
    let mut first = None;
    let (mut rate, mut publish, mut final_s) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut polls, mut oneshot, mut oneshot_s) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut late_s, mut round_s) = (Vec::new(), Vec::new());
    let mut q = query::QueryLoad::default();
    for b in 0..BLOCKS {
        if b > 0 && b < SETUPS {
            set_up(&input, &mut clock, &mut setup, &mut prints)?;
        }
        // The batch run.
        let r = batch::repro(&input);
        repro.push(r.wall_s, clock.mark()?);
        checks.render("repro", r.rendered.jobs);
        hashes.push(("repro", r.rendered.hash));
        println!(
            "repro {}: {:.3} s, hash {:016x} over {} files",
            b + 1,
            r.wall_s,
            r.rendered.hash,
            r.rendered.files
        );
        // Serve rounds are checked against the first batch run.
        let reference = &*batch_render.get_or_insert(r.rendered);
        if b == 0 {
            peaks.push(("repro", peak_rss_mb()?));
        }

        // This block's serve rounds, all replaying the same work, each
        // followed by a slice of the query phase on its finished service.
        for k in rounds * b / BLOCKS..rounds * (b + 1) / BLOCKS {
            let r = serve::round(&input, &datasets, POLL_INTERVAL, &untraced)?;
            check_round(&mut checks, &format!("serve round {}", k + 1), &r, reference, first);
            first.get_or_insert(RoundCounts::of(&r));
            hashes.push(("serve", r.rendered.hash));
            let slice = query::query_load(r.server.addr(), query_slice);
            let crossing_s: Vec<f64> = r.crossings.iter().map(|&(chunk, _)| chunk).collect();
            let (stream_s, round_final_s, rows) = (r.stream_s, r.final_s, r.rows);
            let round_polls = r.polls.log.latencies();
            late_s.extend(r.polls.late_s.iter().copied());
            // The service goes before the probe, so that one finished
            // service at most is alive at a time.
            drop(r);
            let mark = clock.mark()?;
            rate.push(rows as f64 / stream_s, mark);
            publish.push(mean(&crossing_s), mark);
            final_s.push(round_final_s, mark);
            round_s.push(stream_s + round_final_s);
            for &lat in &round_polls {
                polls.push(lat, mark);
            }
            for lat in slice.oneshot.latencies() {
                oneshot.push(lat, mark);
            }
            oneshot_s.push(slice.oneshot_s, mark);
            q.absorb(slice);
            println!(
                "serve round {}: stream {stream_s:.3} s, publish {:.1} ms per crossing, \
                 final {round_final_s:.3} s, {} polls",
                k + 1,
                mean(&crossing_s) * 1e3,
                round_polls.len(),
            );
        }
    }
    let repro_render = batch_render.expect("at least one batch run ran");
    let counts = first.expect("at least one serve round ran");
    checks.expect(prints.iter().all(|&p| p == prints[0]), || {
        format!("set-up is not deterministic: fingerprints {prints:x?}")
    });
    let probe_s = median(clock.probes());
    let probes_ms: Vec<String> = clock.probes().iter().map(|p| format!("{:.2}", p * 1e3)).collect();
    println!(
        "host: median probe {:.2} ms (reference {:.2} ms) of {} probes [{}] ms",
        probe_s * 1e3,
        host::REFERENCE_S * 1e3,
        probes_ms.len(),
        probes_ms.join(", ")
    );
    let (setup_ref, repro_ref) = (setup.times(&clock), repro.times(&clock));
    println!(
        "setup and repro: set-ups {:.3?} s, batch runs {:.3?} s; on the reference clock {:.3?} s and {:.3?} s",
        setup.measured, repro.measured, setup_ref, repro_ref
    );
    checks.ops(q.oneshot.attempted(), &q.oneshot.errors);
    checks.ops(q.keepalive.attempted(), &q.keepalive.errors);
    let keepalive = q.keepalive.latencies();
    let peak_mb = peak_rss_mb()?;
    peaks.push(("serve and query", peak_mb));
    let peaks: Vec<String> = peaks.iter().map(|(phase, mb)| format!("{phase} {mb:.1}")).collect();
    println!("memory: VmHWM MB after {}", peaks.join(", "));

    // End-to-end metrics, on the reference clock but for the keep-alive
    // latency, which the peer's delayed-ACK timer sets (README.md).
    let (polls_ref, oneshot_ref) = (polls.times(&clock), oneshot.times(&clock));
    let (poll_p50, poll_p50_note) = pct_ms("poll_p50_ms", &polls_ref, 0.5)?;
    let (poll_p90, poll_p90_note) = pct_ms("poll_p90_ms", &polls_ref, 0.9)?;
    let (poll_p99, poll_p99_note) = pct_ms("poll.p99_ms", &polls_ref, 0.99)?;
    let (q50, q50_note) = pct_ms("query_p50_ms", &oneshot_ref, 0.5)?;
    let (q90, q90_note) = pct_ms("query.p90_ms", &oneshot_ref, 0.9)?;
    let (q99, q99_note) = pct_ms("query.p99_ms", &oneshot_ref, 0.99)?;
    let (ka50, ka50_note) = pct_ms("keepalive_p50_ms", &keepalive, 0.5)?;
    let as_measured =
        |samples: &[f64], p: f64| percentile(samples, p).map_or(f64::NAN, |pct| pct.value * 1e3);
    let oneshot_ref_s: f64 = oneshot_s.times(&clock).iter().sum();
    let e2e = vec![
        metric("setup_s", median(&setup_ref), "s", setup.note("set-ups", "s")),
        metric("peak_rss_mb", peak_mb, "MB", "VmHWM after the query phase"),
        metric("repro_s", median(&repro_ref), "s", repro.note("batch runs", "s")),
        metric(
            "ingest_rows_per_s",
            median(&rate.rates(&clock)),
            "rows/s",
            format!("{}, {} rows each", rate.note("rounds", "rows/s"), counts.rows),
        ),
        metric(
            "epoch_publish_ms",
            median(&publish.times(&clock)) * 1e3,
            "ms",
            format!(
                "median of {rounds} rounds' mean over {} crossing chunks; {:.4} ms as measured",
                counts.crossings,
                median(&publish.measured) * 1e3
            ),
        ),
        metric("final_epoch_s", median(&final_s.times(&clock)), "s", final_s.note("rounds", "s")),
        metric(
            "poll_p50_ms",
            poll_p50,
            "ms",
            format!("{poll_p50_note}; {:.4} ms as measured", as_measured(&polls.measured, 0.5)),
        ),
        metric(
            "poll_p90_ms",
            poll_p90,
            "ms",
            format!("{poll_p90_note}; {:.4} ms as measured", as_measured(&polls.measured, 0.9)),
        ),
        metric(
            "query_rps",
            oneshot_ref.len() as f64 / oneshot_ref_s,
            "req/s",
            format!(
                "{} one-shot requests in {:.2} s; {:.1} req/s as measured",
                oneshot_ref.len(),
                oneshot_ref_s,
                q.oneshot.samples.len() as f64 / q.oneshot_s
            ),
        ),
        metric(
            "query_p50_ms",
            q50,
            "ms",
            format!("{q50_note}; {:.4} ms as measured", as_measured(&oneshot.measured, 0.5)),
        ),
        metric("keepalive_p50_ms", ka50, "ms", format!("{ka50_note}; as measured")),
    ];

    let rm = &repro_render.metrics;
    let sanitize = &repro_render.sanitize;
    println!(
        "counts: datagen.records={} sanitize.clean={} sanitize.repaired={} \
         sanitize.quarantined={} bst.em_iterations_total={} bst.kde_grid_evals={} \
         render.jobs={} serve.rows={} serve.epochs={} ingest.chunks={} warm.rows={} \
         epoch.crossings={} (serve counts per round)",
        generated,
        sanitize.clean,
        sanitize.repaired,
        sanitize.quarantined,
        counter_total(rm, "bst.em_iterations_total"),
        counter_total(rm, "bst.kde_grid_evals"),
        counter_total(rm, "render.jobs"),
        counts.rows,
        counts.epochs,
        counts.chunks,
        counts.warm_rows,
        counts.crossings,
    );

    for m in &e2e {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    // These tails are printed but not gated: on a shared host they
    // follow the neighbours' load more than the code (see README.md).
    // Like the gated percentiles, they are on the reference clock.
    println!("tail poll.p99_ms = {poll_p99} ms ({poll_p99_note})");
    println!("tail query.p90_ms = {q90} ms ({q90_note})");
    println!("tail query.p99_ms = {q99} ms ({q99_note})");
    let mut out_metrics = e2e;
    if args.trace {
        let untraced = Untraced {
            generated,
            repro: &repro_render,
            repro_s: median(&repro.measured),
            round0: counts,
            round_s: median(&round_s),
            polls: polls.measured.len(),
            late_s: &late_s,
            tails_ms: [poll_p99, q90, q99],
            query: &q,
            probe_s,
        };
        let layers = traced(&input, &datasets, &untraced, &mut checks, &mut hashes)?;
        print_layers(&layers, &out_metrics);
        out_metrics = layers;
    }

    let known = stats::known_hash(args.seed, args.workload == Workload::Dirty);
    match stats::cross_check(&hashes, known) {
        Ok(h) => println!(
            "hash: {h:016x} agreed by {} renders{}",
            hashes.len(),
            if known.is_some() { " and the pinned value" } else { "" }
        ),
        Err(e) => checks.problems.push(format!("artifact hash: {e}")),
    }
    Ok(Outcome { checks, metrics: out_metrics })
}

/// Which end-to-end metric each per-layer metric should move, on which
/// phase. Printed next to every per-layer value of a traced run.
const LAYERS: &[(&str, &str, &str)] = &[
    ("datagen.s", "s", "repro_s setup_s"),
    ("datagen.records", "count", "repro_s setup_s"),
    ("datagen.ns_per_record", "ns/record", "repro_s setup_s"),
    ("sanitize.ns_per_row", "ns/row", "repro_s"),
    ("sanitize.repaired", "count", "repro_s"),
    ("sanitize.quarantined", "count", "repro_s"),
    ("store.ns_per_row", "ns/row", "repro_s"),
    ("derive.ns_per_row", "ns/row", "repro_s final_epoch_s"),
    ("ingest.ns_per_row", "ns/row", "ingest_rows_per_s"),
    ("ingest.chunks", "count", "ingest_rows_per_s"),
    ("ingest.quarantined", "count", "ingest_rows_per_s"),
    ("fit.s", "s", "repro_s final_epoch_s"),
    ("fit.em_iterations", "count", "repro_s final_epoch_s"),
    ("fit.kde_grid_evals", "count", "repro_s final_epoch_s"),
    ("fit.us_per_em_iteration", "us/iteration", "repro_s final_epoch_s"),
    ("warm.ms", "ms", "epoch_publish_ms ingest_rows_per_s"),
    ("warm.rows", "count", "epoch_publish_ms ingest_rows_per_s"),
    ("warm.ns_per_row", "ns/row", "epoch_publish_ms ingest_rows_per_s"),
    ("epoch.crossings", "count", "epoch_publish_ms peak_rss_mb"),
    ("epoch.snapshot_ms", "ms", "epoch_publish_ms peak_rss_mb"),
    ("render.s", "s", "repro_s final_epoch_s"),
    ("render.slowest_job_s", "s", "repro_s final_epoch_s"),
    ("render.jobs_retried", "count", "repro_s final_epoch_s"),
    ("render.jobs_failed", "count", "repro_s final_epoch_s"),
    ("final.drain_ms", "ms", "final_epoch_s"),
    ("final.publish_ms", "ms", "final_epoch_s"),
    ("query.dispatch_us.status", "us", "query_rps query_p50_ms poll_p90_ms"),
    ("query.dispatch_us.city", "us", "query_rps query_p50_ms poll_p90_ms"),
    ("query.dispatch_us.quarantine", "us", "query_rps query_p50_ms poll_p90_ms"),
    ("query.dispatch_us.headline", "us", "query_rps query_p50_ms poll_p90_ms"),
    ("query.dispatch_us.metrics", "us", "query_rps query_p50_ms poll_p90_ms"),
    ("query.dispatch_us.epoch", "us", "query_rps query_p50_ms poll_p90_ms"),
    ("query.bytes.status", "bytes", "query_rps keepalive_p50_ms"),
    ("query.bytes.city", "bytes", "query_rps keepalive_p50_ms"),
    ("query.bytes.quarantine", "bytes", "query_rps keepalive_p50_ms"),
    ("query.bytes.headline", "bytes", "query_rps keepalive_p50_ms"),
    ("query.bytes.metrics", "bytes", "query_rps keepalive_p50_ms"),
    ("query.bytes.epoch", "bytes", "query_rps keepalive_p50_ms"),
    ("query.transport_us", "us", "query_rps query_p50_ms"),
    ("keepalive.wait_ms", "ms", "keepalive_p50_ms"),
    ("obs.snapshot_cached_us", "us", "query_rps query_p50_ms"),
    ("obs.snapshot_rebuild_us", "us", "query_rps query_p50_ms"),
    ("obs.keys", "count", "query_rps query_p50_ms"),
    ("poll.count", "count", "poll_p50_ms poll_p90_ms"),
    ("poll.late_p99_ms", "ms", "poll_p50_ms poll_p90_ms"),
    ("poll.p99_ms", "ms", "poll_p90_ms"),
    ("query.p90_ms", "ms", "query_rps query_p50_ms"),
    ("query.p99_ms", "ms", "query_rps query_p50_ms"),
    ("host.probe_ms", "ms", "setup_s repro_s ingest_rows_per_s final_epoch_s query_rps"),
];

/// What the untraced phases measured that the traced passes check
/// against or report beside the per-layer metrics.
struct Untraced<'a> {
    /// Records the set-up's generate calls produced.
    generated: u64,
    /// The untraced batch render.
    repro: &'a batch::Rendered,
    /// Median of the untraced batch runs, seconds as measured.
    repro_s: f64,
    /// Work counts of the first untraced serve round.
    round0: RoundCounts,
    /// Median stream-plus-final seconds of the untraced serve rounds, as
    /// measured.
    round_s: f64,
    /// Polls answered across the untraced rounds.
    polls: usize,
    /// How late each of those polls was sent, seconds.
    late_s: &'a [f64],
    /// Poll p99 and one-shot query p90 and p99, milliseconds on the
    /// reference clock.
    tails_ms: [f64; 3],
    /// The read-only query phase, as measured.
    query: &'a query::QueryLoad,
    /// Median host-speed probe of the untraced run, seconds.
    probe_s: f64,
}

/// The traced passes: the batch run rebuilt from timed layer calls, one
/// timed serve round, and the in-process query and registry probes.
/// Returns every per-layer metric, in [`LAYERS`] order.
fn traced(
    input: &Input,
    datasets: &[st_datagen::CityDataset],
    load: &Untraced,
    checks: &mut Checks,
    hashes: &mut Vec<(&'static str, u64)>,
) -> Result<Vec<Metric>, String> {
    let (q, first) = (load.query, load.round0);
    let bt = Tracer::new(true);
    let tr = batch::repro_traced(input, &bt);
    checks.render("traced repro", tr.rendered.jobs);
    hashes.push(("traced repro", tr.rendered.hash));

    let st = Tracer::new(true);
    let round = serve::round(input, datasets, POLL_INTERVAL, &st)?;
    check_round(checks, "traced serve round", &round, load.repro, Some(first));
    hashes.push(("traced serve", round.rendered.hash));
    let traced_round_s = round.stream_s + round.final_s;
    drop(round.server);

    // The traced round's finished service is in the state the query
    // phase met after every untraced round.
    let (dispatch, dlog) = query::dispatch_probe(&round.service, PROBE_REPS);
    checks.ops(dlog.attempted(), &dlog.errors);
    let (cached_s, rebuild_s, keys) = query::obs_probe(round.service.registry(), PROBE_REPS);

    // The traced batch run is not `build_analyses_observed` with timers
    // added but the benchmark's own recomposition of it, so its figure
    // includes any cost of that recomposition. The serve round is the
    // same code with the warm renderer and the final calls timed.
    println!(
        "tracing overhead: batch run recomposed from timed layer calls {:.3} s \
         - build_analyses_observed path {:.3} s = {:+.3} s (recomposition and timers); \
         traced serve round {:.3} s - median of the untraced rounds {:.3} s = {:+.3} s",
        tr.wall_s,
        load.repro_s,
        tr.wall_s - load.repro_s,
        traced_round_s,
        load.round_s,
        traced_round_s - load.round_s,
    );

    let per = |busy_s: f64, work: u64, scale: f64| busy_s * scale / work.max(1) as f64;
    let datagen = bt.get("datagen");
    checks.expect(datagen.work == load.generated, || {
        format!("traced datagen produced {} records, set-up {}", datagen.work, load.generated)
    });
    let sanitize = bt.get("sanitize");
    let store = bt.get("store");
    let derive = bt.get("derive");
    let fit = bt.get("fit");
    let em = counter_total(&tr.rendered.metrics, "bst.em_iterations_total");
    let slowest_job_s = tr
        .rendered
        .metrics
        .wall_clock
        .spans
        .iter()
        .filter(|(k, _)| k.starts_with("render/"))
        .map(|(_, s)| s.total_s)
        .fold(0.0, f64::max);
    let warm: Vec<f64> = round.crossings.iter().map(|&(_, w)| w).collect();
    let epoch_self: Vec<f64> = round.crossings.iter().map(|&(c, w)| self_time(c, &[w])).collect();
    let dispatch_s: Vec<f64> = dispatch.iter().map(|&(s, _)| s).collect();
    let transport = percentile(&minus_dispatch(&q.oneshot.samples, &dispatch_s), 0.5)
        .ok_or("query.transport_us: too few one-shot samples")?;
    let wait = percentile(&minus_dispatch(&q.keepalive.samples, &dispatch_s), 0.5)
        .ok_or("keepalive.wait_ms: too few keep-alive samples")?;
    let late = percentile(load.late_s, 0.99).ok_or("poll.late_p99_ms: too few polls")?;

    let mut values: Vec<f64> = vec![
        datagen.busy_s,
        datagen.work as f64,
        per(datagen.busy_s, datagen.work, 1e9),
        per(sanitize.busy_s, sanitize.work, 1e9),
        tr.rendered.sanitize.repaired as f64,
        tr.rendered.sanitize.quarantined as f64,
        per(store.busy_s, store.work, 1e9),
        per(derive.busy_s, derive.work, 1e9),
        per(round.plain.0, round.plain.1, 1e9),
        round.chunks as f64,
        round.quarantined as f64,
        fit.busy_s,
        em as f64,
        counter_total(&tr.rendered.metrics, "bst.kde_grid_evals") as f64,
        per(fit.busy_s, em, 1e6),
        mean(&warm) * 1e3,
        round.warm.1 as f64,
        per(warm.iter().sum(), round.warm.1, 1e9),
        round.crossings.len() as f64,
        mean(&epoch_self) * 1e3,
        bt.get("render").busy_s,
        slowest_job_s,
        tr.rendered.jobs.1 as f64,
        tr.rendered.jobs.2 as f64,
        st.get("final.drain").busy_s * 1e3,
        st.get("final.publish").busy_s * 1e3,
    ];
    values.extend(dispatch.iter().map(|&(s, _)| s * 1e6));
    values.extend(dispatch.iter().map(|&(_, bytes)| bytes as f64));
    values.extend([
        transport.value * 1e6,
        wait.value * 1e3,
        cached_s * 1e6,
        rebuild_s * 1e6,
        keys as f64,
        load.polls as f64,
        late.value * 1e3,
    ]);
    values.extend(load.tails_ms);
    values.push(load.probe_s * 1e3);
    assert_eq!(values.len(), LAYERS.len(), "one value per per-layer metric");
    Ok(LAYERS
        .iter()
        .zip(values)
        .map(|(&(name, unit, moves), value)| metric(name, value, unit, moves))
        .collect())
}

fn print_layers(layers: &[Metric], e2e: &[Metric]) {
    for l in layers {
        let moves: Vec<String> = l
            .note
            .split_whitespace()
            .filter_map(|name| e2e.iter().find(|m| m.name == name))
            .map(|m| format!("{} = {:.4} {}", m.name, m.value, m.unit))
            .collect();
        println!("layer {} = {} {}  -> {}", l.name, l.value, l.unit, moves.join(", "));
    }
}

fn json_result(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    let correct = checks.problems.is_empty() && checks.failed == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = argv.as_slice() {
        if flag == host::PROBE_FLAG {
            let Ok(threads @ 1..) = threads.parse::<usize>() else {
                eprintln!("perfbench: {flag} needs a thread count");
                return ExitCode::from(2);
            };
            println!("{}", host::probe(threads));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Outcome { mut checks, metrics } = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        checks.expect(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    for p in &checks.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", json_result(&checks, &metrics));
    if checks.problems.is_empty() && checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_section(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
        let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |m: &serde_json::Value, k: &str| {
            m.get(k).and_then(|v| v.as_str()).expect("metric name and unit are strings").to_string()
        };
        spec.get(section)
            .and_then(|v| v.as_array())
            .expect("section is an array")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn layer_table_is_the_benchmark_json_per_layer_list() {
        let ours: Vec<(String, String)> =
            LAYERS.iter().map(|&(n, u, _)| (n.to_string(), u.to_string())).collect();
        assert_eq!(spec_section("per_layer"), ours);
    }

    #[test]
    fn every_layer_metric_names_end_to_end_metrics_it_should_move() {
        let e2e: Vec<String> = spec_section("end_to_end").into_iter().map(|(n, _)| n).collect();
        for &(name, _, moves) in LAYERS {
            assert!(!moves.is_empty(), "{name} moves nothing");
            for m in moves.split_whitespace() {
                assert!(e2e.iter().any(|e| e == m), "{name} names unknown metric {m}");
            }
        }
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let a = parse(&["--workload", "clean", "--seed", "7", "--seconds", "12", "--trace", "1"])
            .expect("valid arguments");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Clean, 7, 12.0, true));
        let d = parse(&["--workload", "dirty"]).expect("everything but the workload defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (20220707, 40.0, false));
        let base = ["--workload", "dirty", "--seed", "7", "--seconds", "20", "--trace", "0"];
        for (i, bad) in [(1, "hit"), (3, "-1"), (5, "0"), (5, "nan"), (7, "2")] {
            let mut args = base;
            args[i] = bad;
            assert!(parse(&args).is_err(), "{args:?} accepted");
        }
        assert!(parse(&base[2..]).is_err(), "a missing --workload is accepted");
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&[&base[..], &["--bogus", "1"]].concat()).is_err());
    }
}
