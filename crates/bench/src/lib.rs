//! The one run path behind the `repro`, `ingest` and `serve` binaries.
//!
//! [`build_analyses_observed`] generates the four city datasets and fits
//! the per-campaign BST models; [`run_all_observed`] regenerates every
//! table and figure of the paper from them. [`build_analyses_serve`] is
//! the replay front-end: the same generated campaigns stream through an
//! [`st_serve::ContextService`] as seed-scheduled chunks before the same
//! fit, derive and render stages. `ingest` is that replay without a
//! listener; `serve` adds the query API and the final epoch.
//! [`output::write_run`] writes what any of the three produced.
//!
//! Every stage fans out over up to `parallelism` workers on the
//! deterministic chunked engine of [`st_datagen::par`]: the report is
//! byte-identical at every parallelism level, only the wall-clock
//! changes. Per-stage timings are carried on [`ReproReport::timings`].
//!
//! The pipeline is **supervised** end to end (see DESIGN.md §"Fault
//! taxonomy and supervision contract"):
//!
//! * records flow through `st_speedtest::sanitize` before any model is
//!   fitted — dirty measurements are repaired or quarantined with
//!   per-reason counters instead of panicking downstream;
//! * every render job runs under `catch_unwind` with a per-attempt
//!   deadline and one retry; a job that still fails degrades to a
//!   placeholder artifact instead of aborting the run;
//! * [`render_report`] carries a `## Health` section (failed/retried
//!   jobs, quarantine counts by reason) so degradation is visible, and
//!   [`RunHealth::is_degraded`] lets the binary exit nonzero on it.
//!
//! The pipeline is also **observable** (DESIGN.md §"Observability"):
//! both builders and [`run_all_observed`] thread an [`st_obs::Registry`]
//! through every stage ([`Registry::disabled`] when nothing reads it).
//! Each parallel unit (city, campaign store, render job) records into
//! its own sub-registry; the coordinator merges them in fixed city/job
//! order — the same fold as the sanitize counters — so the deterministic
//! metric class is byte-identical at every parallelism level. Stage
//! wall-clocks come from the `generate`/`fit`/`derive`/`render` span
//! tree, which keeps feeding the same four numbers into
//! [`StageTimings`]. Observation is read-only: artifacts are
//! byte-identical with the registry enabled or disabled.
//!
//! The replay front-end (DESIGN.md §"Segmented store") splits each
//! campaign into chunks, sanitizes per chunk inside the service and seals
//! immutable segments as each stream's tail fills. Segment boundaries are
//! a pure function of the accepted-row sequence and the seal threshold,
//! so the rendered artifacts are byte-identical to the batch path for any
//! chunk plan — the `run_identity` test pins both front-ends to one
//! golden hash.

pub mod claims;
pub mod cli;
pub mod diff;
pub mod ledger;
pub mod output;

use serde::Serialize;
use st_analysis::{
    cities, ext_latency, fig01, fig02, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11,
    fig12, fig13, table1, table2, table3, table4, CityAnalysis,
};
use st_datagen::{City, CityConfig, CityDataset, DirtyScenario};
use st_obs::{MetricsSnapshot, Registry};
use st_serve::{ContextService, PartitionSpec, ServeError, WarmInput, WarmOutput, WarmRenderer};
use st_speedtest::{sanitize, Measurement, SanitizeReport, SegmentedStore};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One rendered artifact: an id, markdown/text body, and optional SVG.
#[derive(Clone)]
pub struct Artifact {
    /// Stable id ("fig09a", "table2", ...).
    pub id: String,
    /// Text rendering for the report.
    pub text: String,
    /// SVG document, when the artifact is a figure.
    pub svg: Option<String>,
    /// JSON payload of the underlying result.
    pub json: String,
}

/// Wall-clock seconds spent in each repro stage.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageTimings {
    /// Dataset generation + sanitization (four cities).
    pub generate_s: f64,
    /// BST model fitting (four cities).
    pub fit_s: f64,
    /// Derived-column materialization across all campaign stores.
    pub derive_s: f64,
    /// Experiment rendering (tables, figures, SVG/JSON).
    pub render_s: f64,
}

/// One render job that failed past its retry and was degraded to a
/// placeholder artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JobFailure {
    /// The job's stable label ("fig08", "appendix_b", ...).
    pub label: String,
    /// Why it failed ("panic: ...", "deadline exceeded", plus the retry's
    /// outcome).
    pub reason: String,
}

/// Supervision outcome of one repro run: what degraded, what retried,
/// and what the sanitizer did to the input records.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunHealth {
    /// Render jobs dispatched.
    pub jobs_total: usize,
    /// Jobs that needed (and survived on) a retry.
    pub jobs_retried: usize,
    /// Jobs that failed both attempts and were degraded to placeholders.
    pub jobs_failed: usize,
    /// One entry per degraded job, in paper order.
    pub failures: Vec<JobFailure>,
    /// Merged record-sanitization counters across all campaigns.
    pub sanitize: SanitizeReport,
}

impl RunHealth {
    /// Whether any artifact was degraded to a placeholder. Quarantined
    /// records alone do not count — dropping dirty records is the
    /// sanitizer doing its job, not a degraded run.
    pub fn is_degraded(&self) -> bool {
        self.jobs_failed > 0
    }
}

/// Everything the repro run produces.
pub struct ReproReport {
    /// The scale the datasets were generated at.
    pub scale: f64,
    /// The seed used.
    pub seed: u64,
    /// All artifacts, in paper order (placeholders included).
    pub artifacts: Vec<Artifact>,
    /// Headline numbers for the summary (label, value).
    pub headlines: Vec<(String, String)>,
    /// Per-stage wall-clock timings of this run.
    pub timings: StageTimings,
    /// Supervision and sanitization outcome.
    pub health: RunHealth,
    /// Metrics snapshot of the run, when [`run_all_observed`] ran with
    /// an enabled registry; `None` with [`Registry::disabled`].
    pub metrics: Option<MetricsSnapshot>,
}

/// Supervision knobs for [`run_all_observed`].
#[derive(Debug, Clone)]
pub struct SuperviseOptions {
    /// Worker threads for the render stage.
    pub parallelism: usize,
    /// Per-attempt deadline for one render job. A job that neither
    /// returns nor panics within this window is abandoned (its thread is
    /// detached and drains on its own) and retried once.
    pub deadline: Duration,
    /// Fault injection: labels of jobs forced to panic on every attempt
    /// (they degrade to placeholders). For tests and the CI smoke job.
    pub fail_jobs: Vec<String>,
    /// Fault injection: labels of jobs forced to panic on their first
    /// attempt only (they succeed on retry).
    pub flaky_jobs: Vec<String>,
    /// Fault injection: labels of jobs that stall well past any sane
    /// deadline before returning empty output.
    pub hang_jobs: Vec<String>,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        SuperviseOptions {
            parallelism: 1,
            deadline: Duration::from_secs(300),
            fail_jobs: Vec::new(),
            flaky_jobs: Vec::new(),
            hang_jobs: Vec::new(),
        }
    }
}

/// Map `items` through `f` on up to `workers` scoped threads, preserving
/// item order in the output. `f` gets the item's index and the item.
fn par_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let (job_tx, job_rx) = crossbeam::channel::bounded::<(usize, T)>(workers);
    let (out_tx, out_rx) = crossbeam::channel::unbounded::<(usize, U)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let out_tx = out_tx.clone();
            let f = &f;
            scope.spawn(move || {
                for (i, item) in job_rx.iter() {
                    if out_tx.send((i, f(i, item))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(job_rx);
        drop(out_tx);
        // Feed the bounded queue; workers drain it as they go.
        for pair in items.into_iter().enumerate() {
            assert!(job_tx.send(pair).is_ok(), "workers alive while feeding");
        }
        drop(job_tx);
        let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for (i, out) in out_rx.iter() {
            slots[i] = Some(out);
        }
        slots.into_iter().map(|s| s.expect("every job completed")).collect()
    })
}

fn cdf_artifact(r: &st_analysis::CdfResult) -> Artifact {
    Artifact {
        id: r.id.clone(),
        text: r.render(),
        svg: Some(r.to_svg()),
        json: serde_json::to_string_pretty(r).expect("serializable result"),
    }
}

fn table_artifact(t: &st_analysis::TableResult) -> Artifact {
    Artifact {
        id: t.id.clone(),
        text: t.render(),
        svg: None,
        json: serde_json::to_string_pretty(t).expect("serializable result"),
    }
}

fn density_artifact(d: &st_analysis::results::DensityResult) -> Artifact {
    Artifact {
        id: d.id.clone(),
        text: d.render(),
        svg: Some(d.to_svg()),
        json: serde_json::to_string_pretty(d).expect("serializable result"),
    }
}

/// Generate all four cities, optionally corrupt the campaigns with
/// `dirty` (ground-truth labeled dirty records, see
/// [`st_datagen::faults`]), run every record through the sanitizer, and
/// fit BST on what survives — the batch front-end. The four generate
/// jobs and then the four fit jobs spread over up to `parallelism`
/// worker threads; leftover workers parallelize *inside* each city's
/// campaign loops.
///
/// Each city runs against its own sub-registry of `obs` inside the
/// worker closure; the coordinator merges the four sub-registries **in
/// city order** — exactly how the [`SanitizeReport`]s are folded — so
/// every deterministic metric (record counts, quarantine tallies, EM
/// iterations, KDE grid evaluations, ...) and the returned report are
/// byte-identical at every parallelism level. Wall-clock spans
/// (`generate`, `fit`, `derive`, plus one child per city) are recorded
/// too but excluded from that contract; the returned [`StageTimings`]
/// has the generate, fit and derive wall-clocks filled in (`render_s`
/// stays 0 until [`run_all_observed`]).
///
/// Observation is read-only: the returned analyses are byte-identical
/// whether `obs` is enabled or [`Registry::disabled`].
pub fn build_analyses_observed(
    scale: f64,
    seed: u64,
    parallelism: usize,
    dirty: Option<&DirtyScenario>,
    obs: &Registry,
) -> (Arc<Vec<CityAnalysis>>, StageTimings, SanitizeReport) {
    let parallelism = parallelism.max(1);
    let (datasets, sanitize_total, generate_s) =
        generate_stage(scale, seed, parallelism, dirty, true, obs);
    let (analyses, fit_s) = fit_stage(
        datasets.into_iter().map(|ds| (ds.config.city, ds)).collect(),
        seed,
        parallelism,
        obs,
        CityAnalysis::new_observed,
    );
    let derive_s = derive_stage(&analyses, parallelism, obs);
    (
        Arc::new(analyses),
        StageTimings { generate_s, fit_s, derive_s, render_s: 0.0 },
        sanitize_total,
    )
}

/// City-level workers at `parallelism`, and the workers left for each
/// city's inner loops.
fn city_workers(parallelism: usize) -> (usize, usize) {
    let workers = parallelism.min(City::all().len());
    (workers, parallelism.div_ceil(workers))
}

/// The generate stage of both front-ends: one [`CityDataset`] per city,
/// each generated under a `generate/<City>` span against its own
/// sub-registry, merged back in city order.
///
/// The batch front-end passes `whole_campaign_sanitize`: the campaigns
/// are corrupted with `dirty` (when given) and sanitized whole inside
/// this stage, and the returned [`SanitizeReport`] merges the per-city
/// reports in city order. The replay leaves the campaigns raw — the
/// service sanitizes them per chunk — and gets an empty report.
fn generate_stage(
    scale: f64,
    seed: u64,
    parallelism: usize,
    dirty: Option<&DirtyScenario>,
    whole_campaign_sanitize: bool,
    obs: &Registry,
) -> (Vec<CityDataset>, SanitizeReport, f64) {
    let (workers, inner) = city_workers(parallelism);
    let dirty = dirty.copied();
    obs.event("stage.start", "lifecycle", &[("stage", "generate")]);
    let gen_span = obs.span("generate");
    let prepared = par_map(City::all().to_vec(), workers, |_, city| {
        let sub = obs.sub();
        let city_span = sub.span(&format!("generate/{}", city.label()));
        let mut ds = CityDataset::generate_with_parallelism(city, scale, seed, inner);
        let dirty_labels = dirty.as_ref().map(|scenario| ds.inject_dirty(scenario, seed));
        ds.observe(&sub);
        if let Some(labels) = &dirty_labels {
            ds.observe_dirty(&sub, labels);
        }
        let mut report = SanitizeReport::default();
        if whole_campaign_sanitize {
            for (campaign, records) in
                [("ookla", &mut ds.ookla), ("mlab", &mut ds.mlab), ("mba", &mut ds.mba)]
            {
                let (kept, r) = sanitize(std::mem::take(records));
                *records = kept;
                r.record(&sub, &[("campaign", campaign), ("city", city.label())]);
                report.merge(&r);
            }
        }
        city_span.stop();
        (ds, report, sub)
    });
    let generate_s = gen_span.stop();
    obs.event("stage.end", "lifecycle", &[("stage", "generate")]);

    let mut sanitize_total = SanitizeReport::default();
    let mut datasets = Vec::with_capacity(prepared.len());
    for (ds, report, sub) in prepared {
        sanitize_total.merge(&report);
        obs.merge(&sub);
        datasets.push(ds);
    }
    (datasets, sanitize_total, generate_s)
}

/// The fit stage of both front-ends: `fit` builds one [`CityAnalysis`]
/// per city on the city workers, each under a `fit/<City>` span against
/// its own sub-registry, merged back in city order. Every front-end
/// fits with the batch seed derivation (`seed ^ 0x5eed`), which is what
/// makes the service's final fit the batch fit.
fn fit_stage<T: Send>(
    inputs: Vec<(City, T)>,
    seed: u64,
    parallelism: usize,
    obs: &Registry,
    fit: impl Fn(T, u64, &Registry) -> CityAnalysis + Sync,
) -> (Vec<CityAnalysis>, f64) {
    obs.event("stage.start", "lifecycle", &[("stage", "fit")]);
    let fit_span = obs.span("fit");
    let fitted = par_map(inputs, city_workers(parallelism).0, |_, (city, input)| {
        let sub = obs.sub();
        let city_span = sub.span(&format!("fit/{}", city.label()));
        let analysis = fit(input, seed ^ 0x5eed, &sub);
        city_span.stop();
        (analysis, sub)
    });
    let fit_s = fit_span.stop();
    obs.event("stage.end", "lifecycle", &[("stage", "fit")]);
    let mut analyses = Vec::with_capacity(fitted.len());
    for (analysis, sub) in fitted {
        obs.merge(&sub);
        analyses.push(analysis);
    }
    (analyses, fit_s)
}

/// The derive stage of both front-ends: materialize every store's lazy
/// derived columns up front so the render jobs only ever read memoized
/// slices. Each column is a pure function of the base columns, so
/// building them in parallel (one job per campaign, city order preserved
/// by `par_map`) cannot change their contents.
fn derive_stage(analyses: &[CityAnalysis], parallelism: usize, obs: &Registry) -> f64 {
    obs.event("stage.start", "lifecycle", &[("stage", "derive")]);
    let derive_span = obs.span("derive");
    let stores: Vec<(&str, &str, &SegmentedStore)> = analyses
        .iter()
        .flat_map(|a| {
            let city = a.config.city.label();
            [("ookla", city, &a.ookla), ("mlab", city, &a.mlab), ("mba", city, &a.mba)]
        })
        .collect();
    let subs = par_map(stores, parallelism, |_, (campaign, city, store)| {
        let sub = obs.sub();
        store.materialize_derived();
        store.observe(&sub, &[("campaign", campaign), ("city", city)]);
        sub
    });
    let derive_s = derive_span.stop();
    obs.event("stage.end", "lifecycle", &[("stage", "derive")]);
    for sub in &subs {
        obs.merge(sub);
    }
    derive_s
}

/// SplitMix64 step — the replay scheduler's whole PRNG. Keeping it local
/// (rather than an `StdRng`) pins the chunk interleave to a documented
/// three-line recurrence that cannot drift under a rand upgrade.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Split one campaign's records into `chunk_rows`-row chunks, preserving
/// stream order — the replay's chunk plan.
pub fn split_chunks(records: Vec<Measurement>, chunk_rows: usize) -> VecDeque<Vec<Measurement>> {
    assert!(chunk_rows > 0, "chunk_rows must be >= 1");
    let mut chunks = VecDeque::new();
    let mut it = records.into_iter();
    loop {
        let chunk: Vec<Measurement> = it.by_ref().take(chunk_rows).collect();
        if chunk.is_empty() {
            return chunks;
        }
        chunks.push_back(chunk);
    }
}

/// The seed-scheduled chunk interleave of one city's campaign streams —
/// a pure function of `(seed, city index, pick sequence)`; worker
/// interleaving and wall-clock never feed into it, which is what makes
/// the replay's accepted-row sequence (and therefore the fitted models)
/// the same at every parallelism.
#[derive(Debug, Clone)]
pub struct ReplaySchedule {
    state: u64,
}

impl ReplaySchedule {
    /// Schedule for city number `city_index` under `seed`.
    pub fn new(seed: u64, city_index: usize) -> Self {
        ReplaySchedule { state: seed ^ (city_index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) }
    }

    /// Pick which of `live` still-nonempty streams sends next.
    pub fn pick(&mut self, live: usize) -> usize {
        assert!(live > 0, "pick needs a live stream");
        (splitmix64(&mut self.state) % live as u64) as usize
    }
}

/// What a replay through the service did: its chunk, seal and epoch
/// plan, the stream's counts, and its wall-clock. It is the `stream`
/// section of the run's `st-run/v2` ledger row ([`ledger::LedgerRow`]).
/// Every field but `ingest_s` and `rows_per_s` is deterministic for a
/// given (code, scale, seed, plan) — `epochs` too, because boundary
/// crossings telescope to `floor(accepted / epoch_rows)` whatever the
/// interleave or parallelism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StreamStats {
    /// Rows per replayed chunk (`--chunk-rows`).
    pub chunk_rows: usize,
    /// Sealed-segment size threshold of each stream (`--seal-rows`).
    pub seal_rows: usize,
    /// Accepted rows per published epoch (`--epoch-rows`).
    pub epoch_rows: usize,
    /// Chunks streamed into the service.
    pub chunks: u64,
    /// Rows offered to the incremental sanitizer.
    pub rows: u64,
    /// Sealed segments across all frozen stores after drain.
    pub segments: u64,
    /// Epochs the service published: the warm crossings, plus the final
    /// epoch once `serve` publishes it.
    pub epochs: u64,
    /// Wall-clock seconds of the streaming stage (chunks + drain).
    pub ingest_s: f64,
    /// Ingest throughput, rows per wall-clock second.
    pub rows_per_s: f64,
}

/// The partitions [`build_analyses_serve`] replays into: one
/// deterministic partition per [`City::all`] entry, with the standard
/// `ookla`/`mlab`/`mba` campaigns.
pub fn city_partitions() -> Vec<PartitionSpec> {
    City::all().iter().map(|c| PartitionSpec::city(c.label())).collect()
}

/// The warm-analysis renderer the `serve` binary injects into
/// [`st_serve::ContextService`]: fit whatever rows have sealed with the
/// batch fit path (`st_analysis::warm`) and render headline
/// figures/tables. City configs are reconstructed from `(scale, city)`
/// — [`CityConfig::at_scale`] is pure — so the closure captures no
/// dataset state. The fit seed is the batch derivation (`seed ^
/// 0x5eed`): a warm fit over the *complete* sealed stream is the batch
/// fit, which is what the identity suite pins.
pub fn make_warm_renderer(scale: f64, seed: u64) -> WarmRenderer {
    Arc::new(move |input: &WarmInput| {
        let mut analyses = Vec::new();
        for wc in &input.cities {
            let Some(city) = City::all().iter().copied().find(|c| c.label() == wc.city) else {
                continue; // non-city partitions (e.g. "wire") carry no warm fit
            };
            let stream = |name: &str| {
                wc.campaigns
                    .iter()
                    .find(|(c, _)| c == name)
                    .map(|(_, rows)| rows.as_slice())
                    .unwrap_or(&[])
            };
            analyses.push(st_analysis::warm::warm_fit(
                CityConfig::at_scale(city, scale),
                stream("ookla"),
                stream("mlab"),
                stream("mba"),
                seed ^ 0x5eed,
            ));
        }
        WarmOutput {
            headlines: st_analysis::warm::warm_headlines(&analyses),
            tables: st_analysis::warm::warm_tables(&analyses),
        }
    })
}

/// What the replay hands back: the fitted analyses, stage timings, the
/// deterministic-partition sanitize totals, and the stream statistics
/// for the ledger row.
pub type ServeBuildOutput = (Arc<Vec<CityAnalysis>>, StageTimings, SanitizeReport, StreamStats);

/// The replay front-end: the generate stage of
/// [`build_analyses_observed`] without its whole-campaign sanitize, then
/// every campaign streamed through `service` — split by
/// [`split_chunks`], interleaved by [`ReplaySchedule`], appended through
/// the service's sharded ingest path (incremental sanitize, segment
/// sealing, epoch publication). After the streams run dry the service
/// is drained and the frozen stores flow through the batch fit and
/// derive stages, so the final analyses are the batch analyses byte for
/// byte at any chunk plan, seal threshold and parallelism.
///
/// `service` must hold [`city_partitions`]. Extra partitions (e.g. the
/// wire partition) are left untouched by the replay but are frozen by
/// the drain like everything else.
///
/// The returned [`SanitizeReport`] covers the deterministic partitions
/// only; their per-campaign `sanitize.*` counters are recorded into
/// `obs` in partition order after the drain. Wire-partition rows stay
/// out of the deterministic metric class entirely (DESIGN.md §18).
pub fn build_analyses_serve(
    scale: f64,
    seed: u64,
    parallelism: usize,
    chunk_rows: usize,
    service: &ContextService,
    obs: &Registry,
) -> Result<ServeBuildOutput, ServeError> {
    assert!(chunk_rows > 0, "chunk_rows must be >= 1");
    let parallelism = parallelism.max(1);
    let (datasets, _, generate_s) = generate_stage(scale, seed, parallelism, None, false, obs);

    obs.event("stage.start", "lifecycle", &[("stage", "ingest")]);
    let ingest_span = obs.span("ingest");
    let streamed = par_map(datasets, city_workers(parallelism).0, |ci, ds| {
        let city = ds.config.city.label();
        let CityDataset { config, ookla, mlab, mba, .. } = ds;
        let mut streams = [
            ("ookla", split_chunks(ookla, chunk_rows)),
            ("mlab", split_chunks(mlab, chunk_rows)),
            ("mba", split_chunks(mba, chunk_rows)),
        ];
        let mut sched = ReplaySchedule::new(seed, ci);
        let (mut chunks, mut rows) = (0u64, 0u64);
        loop {
            let live: Vec<usize> =
                (0..streams.len()).filter(|&k| !streams[k].1.is_empty()).collect();
            if live.is_empty() {
                break;
            }
            let (campaign, queue) = &mut streams[live[sched.pick(live.len())]];
            let chunk = queue.pop_front().expect("stream is live");
            let receipt = service.ingest_chunk(city, campaign, chunk)?;
            chunks += 1;
            rows += receipt.stats.rows_in as u64;
        }
        Ok::<_, ServeError>((config, chunks, rows))
    });
    let mut stats = StreamStats {
        chunk_rows,
        seal_rows: service.seal_rows(),
        epoch_rows: service.epoch_rows() as usize,
        ..StreamStats::default()
    };
    let mut configs = Vec::with_capacity(streamed.len());
    for city in streamed {
        let (config, chunks, rows) = city?;
        stats.chunks += chunks;
        stats.rows += rows;
        configs.push(config);
    }

    let drained = service.drain()?;
    stats.ingest_s = ingest_span.stop();
    obs.event("stage.end", "lifecycle", &[("stage", "ingest")]);
    stats.segments = drained.segments;
    stats.epochs = service.current_epoch().epoch;
    if stats.ingest_s > 0.0 {
        stats.rows_per_s = stats.rows as f64 / stats.ingest_s;
    }

    // Post-drain, partition order: record the deterministic partitions'
    // sanitize taxonomy.
    let mut sanitize_total = SanitizeReport::default();
    let mut by_city: std::collections::BTreeMap<String, Vec<(String, SegmentedStore)>> =
        std::collections::BTreeMap::new();
    for part in drained.partitions {
        if !part.deterministic {
            continue;
        }
        for (campaign, store) in &part.stores {
            store.report().record(obs, &[("campaign", campaign), ("city", &part.city)]);
            sanitize_total.merge(store.report());
        }
        by_city.insert(part.city, part.stores);
    }

    let mut prepared = Vec::with_capacity(configs.len());
    for config in configs {
        let label = config.city.label();
        let stores =
            by_city.remove(label).ok_or_else(|| ServeError::UnknownCity(label.to_string()))?;
        let mut map: std::collections::BTreeMap<String, SegmentedStore> =
            stores.into_iter().collect();
        let mut take = |name: &str| {
            map.remove(name).ok_or_else(|| ServeError::UnknownCampaign {
                city: label.to_string(),
                campaign: name.to_string(),
            })
        };
        let (ookla, mlab, mba) = (take("ookla")?, take("mlab")?, take("mba")?);
        prepared.push((config.city, (config, ookla, mlab, mba)));
    }
    let (analyses, fit_s) =
        fit_stage(prepared, seed, parallelism, obs, |(config, ookla, mlab, mba), seed, sub| {
            CityAnalysis::from_stores(config, ookla, mlab, mba, seed, sub)
        });

    let derive_s = derive_stage(&analyses, parallelism, obs);

    Ok((
        Arc::new(analyses),
        StageTimings { generate_s, fit_s, derive_s, render_s: 0.0 },
        sanitize_total,
        stats,
    ))
}

/// What one render job yields: its artifacts and headlines, in paper
/// order within the job.
type JobOut = (Vec<Artifact>, Vec<(String, String)>);

/// A render job: shared so the supervisor can re-dispatch it for the
/// retry attempt, `'static` so an attempt can run on its own watchdogged
/// thread.
type RenderJob = Arc<dyn Fn() -> JobOut + Send + Sync + 'static>;

/// Build one labeled job from a slice-level closure.
fn job<F>(label: &str, analyses: &Arc<Vec<CityAnalysis>>, f: F) -> (String, RenderJob)
where
    F: Fn(&[CityAnalysis]) -> JobOut + Send + Sync + 'static,
{
    let analyses = Arc::clone(analyses);
    (label.to_string(), Arc::new(move || f(&analyses)))
}

/// The full experiment suite as independent labeled render jobs. Job
/// order is paper order; concatenating the outputs job by job reproduces
/// the sequential report exactly.
fn render_jobs(analyses: &Arc<Vec<CityAnalysis>>) -> Vec<(String, RenderJob)> {
    let mut jobs = Vec::new();

    // Table 1.
    jobs.push(job("table1", analyses, |all| {
        let refs: Vec<&CityAnalysis> = all.iter().collect();
        (vec![table_artifact(&table1::run(&refs))], vec![])
    }));

    // §2 cross-city comparison.
    jobs.push(job("cities", analyses, |all| {
        let all_refs: Vec<&CityAnalysis> = all.iter().collect();
        let (cities_table, _) = cities::run(&all_refs);
        (vec![table_artifact(&cities_table)], vec![])
    }));

    // Fig 1 + 2.
    jobs.push(job("fig01", analyses, |all| {
        let f1 = fig01::run(&all[0]);
        let headline = (
            "fig01 uncontextualized median (Mbps)".into(),
            format!("{:.1}", f1.medians.first().copied().unwrap_or(f64::NAN)),
        );
        (vec![cdf_artifact(&f1)], vec![headline])
    }));
    jobs.push(job("fig02", analyses, |all| {
        let f2 = fig02::run(&all[0]);
        let mut headlines = Vec::new();
        if f2.medians.len() == 2 {
            headlines.push((
                "fig02 consistency medians (down / up)".into(),
                format!("{:.2} / {:.2}", f2.medians[0], f2.medians[1]),
            ));
        }
        (vec![cdf_artifact(&f2)], headlines)
    }));

    // Table 2 across all states.
    jobs.push(job("table2", analyses, |all| {
        let refs: Vec<&CityAnalysis> = all.iter().collect();
        let (t2, stats) = table2::run(&refs);
        let headlines = stats
            .iter()
            .map(|s| {
                (
                    format!("table2 {} upload accuracy", s.state),
                    format!("{:.2}%", s.upload_accuracy * 100.0),
                )
            })
            .collect();
        (vec![table_artifact(&t2)], headlines)
    }));

    // Figs 4-7 and tables 3-4 (City/State-A) plus appendix variants.
    jobs.push(job("fig04", analyses, |all| (vec![density_artifact(&fig04::run(&all[0]))], vec![])));
    jobs.push(job("fig05", analyses, |all| {
        (fig05::run(&all[0]).iter().map(density_artifact).collect(), vec![])
    }));
    jobs.push(job("fig06", analyses, |all| (vec![density_artifact(&fig06::run(&all[0]))], vec![])));
    jobs.push(job("table3", analyses, |all| {
        let (t3, _) = table3::run(&all[0]);
        (vec![table_artifact(&t3)], vec![])
    }));
    jobs.push(job("fig07", analyses, |all| {
        (fig07::run(&all[0]).iter().map(density_artifact).collect(), vec![])
    }));
    jobs.push(job("table4", analyses, |all| {
        let (t4, _) = table4::run(&all[0]);
        (vec![table_artifact(&t4)], vec![])
    }));

    // Fig 8.
    jobs.push(job("fig08", analyses, |all| {
        let f8 = fig08::run(&all[0]);
        let headlines = f8
            .medians
            .first()
            .map(|m| ("fig08 alpha median".into(), format!("{m:.2}")))
            .into_iter()
            .collect();
        (vec![cdf_artifact(&f8)], headlines)
    }));

    // Fig 9 panels.
    jobs.push(job("fig09", analyses, |all| {
        (fig09::run(&all[0]).iter().map(cdf_artifact).collect(), vec![])
    }));

    // Fig 10.
    jobs.push(job("fig10", analyses, |all| {
        let (f10, shares) = fig10::run(&all[0]);
        let mut headlines = vec![(
            "fig10 local-bottleneck share".into(),
            format!("{:.0}%", shares.local_bottleneck_share * 100.0),
        )];
        if f10.medians.len() == 2 {
            headlines.push((
                "fig10 medians (best / bottleneck)".into(),
                format!("{:.2} / {:.2}", f10.medians[0], f10.medians[1]),
            ));
        }
        (vec![cdf_artifact(&f10)], headlines)
    }));

    // Figs 11-12.
    jobs.push(job("fig11", analyses, |all| {
        let (_vol, t11) = fig11::run(&all[0]);
        (vec![table_artifact(&t11)], vec![])
    }));
    jobs.push(job("fig12", analyses, |all| {
        (fig12::run_default(&all[0]).iter().map(cdf_artifact).collect(), vec![])
    }));

    // Fig 13.
    jobs.push(job("fig13", analyses, |all| {
        let (panels, gaps) = fig13::run(&all[0]);
        let headlines = gaps
            .iter()
            .map(|g| {
                (format!("fig13 {} Ookla/M-Lab median ratio", g.group), format!("{:.2}", g.ratio))
            })
            .collect();
        (panels.iter().map(cdf_artifact).collect(), headlines)
    }));

    // Extension: latency under load (not a paper figure; see the module
    // docs of `st_analysis::ext_latency`).
    jobs.push(job("ext_latency", analyses, |all| {
        let (lat_cdf, lat) = ext_latency::run(&all[0]);
        let headline = (
            "ext_latency medians (idle / loaded, ms)".into(),
            format!("{:.1} / {:.1}", lat.idle_median_ms, lat.loaded_median_ms),
        );
        (vec![cdf_artifact(&lat_cdf)], vec![headline])
    }));

    // Appendix: tables 5-7 (upload clusters for cities B-D) and the
    // per-state appendix densities.
    for i in 1..analyses.len() {
        let label = format!("appendix_{}", (b'a' + i as u8) as char);
        let analyses2 = Arc::clone(analyses);
        let f: RenderJob = Arc::new(move || {
            let city_a = &analyses2[i];
            let mut artifacts = Vec::new();
            let (mut t, _) = table3::run(city_a);
            t.id = format!("table{}", 4 + i); // tables 5, 6, 7
            artifacts.push(table_artifact(&t));
            let mut d = fig04::run(city_a);
            d.id = format!("fig14_{}", city_a.config.city.state_label().to_lowercase());
            artifacts.push(density_artifact(&d));
            for (j, mut dd) in fig05::run(city_a).into_iter().enumerate() {
                dd.id = format!(
                    "fig{}_{}",
                    15 + i, // figs 16, 17, 18
                    j
                );
                artifacts.push(density_artifact(&dd));
            }
            let mut f6 = fig06::run(city_a);
            f6.id = format!("fig15_{}", city_a.config.city.label().to_lowercase());
            artifacts.push(density_artifact(&f6));
            (artifacts, vec![])
        });
        jobs.push((label, f));
    }

    jobs
}

/// Outcome of one supervised attempt.
enum Attempt {
    Completed(Box<JobOut>),
    Panicked(String),
    TimedOut,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one attempt of `job` on a watchdogged thread. A panic is caught
/// and reported; a job that blows `deadline` is abandoned — its thread
/// keeps running detached and exits whenever the job returns, but its
/// result is discarded.
fn attempt_job(job: &RenderJob, deadline: Duration) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let job = Arc::clone(job);
    let handle = std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| job()));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(deadline) {
        Ok(Ok(out)) => {
            let _ = handle.join();
            Attempt::Completed(Box::new(out))
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            Attempt::Panicked(panic_message(payload.as_ref()))
        }
        Err(_) => Attempt::TimedOut,
    }
}

fn describe(a: &Attempt) -> String {
    match a {
        Attempt::Completed(_) => "completed".to_string(),
        Attempt::Panicked(msg) => format!("panic: {msg}"),
        Attempt::TimedOut => "deadline exceeded".to_string(),
    }
}

/// The stand-in artifact emitted for a job that failed both attempts.
fn placeholder_artifact(label: &str, reason: &str) -> Artifact {
    #[derive(Serialize)]
    struct Placeholder {
        degraded: bool,
        job: String,
        reason: String,
    }
    let payload =
        Placeholder { degraded: true, job: label.to_string(), reason: reason.to_string() };
    Artifact {
        id: format!("degraded_{label}"),
        text: format!("DEGRADED: render job '{label}' failed ({reason}); artifacts omitted.\n"),
        svg: None,
        json: serde_json::to_string_pretty(&payload).expect("placeholder serializes"),
    }
}

/// Apply the fault-injection knobs of `opts` to a labeled job.
fn instrument_job(label: &str, inner: RenderJob, opts: &SuperviseOptions) -> RenderJob {
    if opts.fail_jobs.iter().any(|l| l == label) {
        let label = label.to_string();
        return Arc::new(move || panic!("injected failure in job '{label}'"));
    }
    if opts.flaky_jobs.iter().any(|l| l == label) {
        let armed = AtomicBool::new(true);
        let label = label.to_string();
        return Arc::new(move || {
            if armed.swap(false, Ordering::SeqCst) {
                panic!("injected flaky failure in job '{label}'");
            }
            inner()
        });
    }
    if opts.hang_jobs.iter().any(|l| l == label) {
        return Arc::new(move || {
            // Stall far past any test deadline, but bounded, so the
            // abandoned thread drains instead of leaking forever.
            for _ in 0..100 {
                std::thread::sleep(Duration::from_millis(100));
            }
            (Vec::new(), Vec::new())
        });
    }
    inner
}

/// Run every experiment under supervision; `analyses` must hold the
/// four cities in order. The render jobs go to up to
/// `opts.parallelism` workers through a bounded queue and are stitched
/// back into paper order, so artifacts and headlines are identical at
/// every parallelism level.
///
/// Every job runs under `catch_unwind` with a per-attempt deadline and
/// one retry; a job that fails both attempts degrades to a placeholder
/// artifact at its paper-order position and is recorded in
/// [`ReproReport::health`]. The run always completes; callers decide
/// (via [`RunHealth::is_degraded`]) whether a degraded run is
/// acceptable. `timings` carries the builder's stage wall-clocks (this
/// call fills in `render_s`), and `sanitize` its record-quarantine
/// counters, which surface in the report's `## Health` section.
///
/// Each job records into its own sub-registry of `obs` (one
/// `render/<label>` span per job); the coordinator merges them in paper
/// order and adds the deterministic job counters (`render.jobs`,
/// `render.jobs_retried`, `render.jobs_failed`,
/// `render.artifacts{job}`, `render.headlines{job}`) while stitching
/// the outputs. With an enabled registry the returned
/// [`ReproReport::metrics`] carries the full snapshot of the run.
#[allow(clippy::too_many_arguments)]
pub fn run_all_observed(
    analyses: &Arc<Vec<CityAnalysis>>,
    scale: f64,
    seed: u64,
    opts: &SuperviseOptions,
    timings: StageTimings,
    sanitize: SanitizeReport,
    obs: &Registry,
) -> ReproReport {
    assert_eq!(analyses.len(), 4, "need all four cities");
    obs.event("stage.start", "lifecycle", &[("stage", "render")]);
    let render_span = obs.span("render");
    let jobs: Vec<(String, RenderJob)> = render_jobs(analyses)
        .into_iter()
        .map(|(label, inner)| {
            let instrumented = instrument_job(&label, inner, opts);
            (label, instrumented)
        })
        .collect();

    let deadline = opts.deadline;
    let outs = par_map(jobs, opts.parallelism.max(1), |_, (label, job)| {
        let sub = obs.sub();
        let job_span = sub.span(&format!("render/{label}"));
        let outcome = match attempt_job(&job, deadline) {
            Attempt::Completed(out) => (label, Ok(out), false),
            failed => {
                let first_reason = describe(&failed);
                match attempt_job(&job, deadline) {
                    Attempt::Completed(out) => (label, Ok(out), true),
                    retry_failed => {
                        let reason = format!("{first_reason}; retry: {}", describe(&retry_failed));
                        (label, Err(reason), true)
                    }
                }
            }
        };
        job_span.stop();
        (outcome, sub)
    });

    let mut artifacts = Vec::new();
    let mut headlines = Vec::new();
    let mut health = RunHealth { jobs_total: outs.len(), sanitize, ..RunHealth::default() };
    for ((label, result, retried), sub) in outs {
        obs.merge(&sub);
        obs.inc("render.jobs", &[]);
        match result {
            Ok(out) => {
                if retried {
                    health.jobs_retried += 1;
                    obs.inc("render.jobs_retried", &[]);
                    obs.event("render.retried", "lifecycle", &[("job", label.as_str())]);
                }
                let (art, heads) = *out;
                obs.add("render.artifacts", &[("job", label.as_str())], art.len() as u64);
                obs.add("render.headlines", &[("job", label.as_str())], heads.len() as u64);
                artifacts.extend(art);
                headlines.extend(heads);
            }
            Err(reason) => {
                health.jobs_failed += 1;
                obs.inc("render.jobs_failed", &[]);
                obs.event(
                    "render.degraded",
                    "lifecycle",
                    &[("job", label.as_str()), ("reason", reason.as_str())],
                );
                artifacts.push(placeholder_artifact(&label, &reason));
                health.failures.push(JobFailure { label, reason });
            }
        }
    }
    let timings = StageTimings { render_s: render_span.stop(), ..timings };
    obs.event("stage.end", "lifecycle", &[("stage", "render")]);
    let metrics = obs.is_enabled().then(|| obs.snapshot());
    ReproReport { scale, seed, artifacts, headlines, timings, health, metrics }
}

/// Render the `## Health` section body (shared by the report and tests;
/// wall-clock free, so it is byte-identical across parallelism levels).
pub fn render_health(health: &RunHealth) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "- render jobs: {} total, {} failed, {} retried\n",
        health.jobs_total, health.jobs_failed, health.jobs_retried
    ));
    let s = &health.sanitize;
    out.push_str(&format!(
        "- records: {} clean, {} repaired, {} quarantined\n",
        s.clean, s.repaired, s.quarantined
    ));
    if !s.quarantine_reasons.is_empty() {
        out.push_str("- quarantine reasons:\n");
        for (reason, count) in &s.quarantine_reasons {
            out.push_str(&format!("  - {reason}: {count}\n"));
        }
    }
    if !s.repair_reasons.is_empty() {
        out.push_str("- repair reasons:\n");
        for (reason, count) in &s.repair_reasons {
            out.push_str(&format!("  - {reason}: {count}\n"));
        }
    }
    if !health.failures.is_empty() {
        out.push_str("- degraded artifacts:\n");
        for f in &health.failures {
            out.push_str(&format!("  - {}: {}\n", f.label, f.reason));
        }
    }
    out
}

/// Render the `## Metrics` section body from the **deterministic**
/// metric class only. Wall-clock spans are deliberately excluded, so —
/// like the artifacts and the `## Health` section — the rendered text
/// is byte-identical at every parallelism level.
pub fn render_metrics(det: &st_obs::DeterministicMetrics) -> String {
    fn base(key: &str) -> &str {
        key.split('{').next().unwrap_or(key)
    }
    let mut out = String::new();
    out.push_str(&format!(
        "- deterministic keys: {} counters, {} gauges, {} histograms, {} series\n",
        det.counters.len(),
        det.gauges.len(),
        det.histograms.len(),
        det.series.len()
    ));
    let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (key, v) in &det.counters {
        *totals.entry(base(key)).or_default() += v;
    }
    if !totals.is_empty() {
        out.push_str("- counter totals (summed over labels):\n");
        for (name, total) in &totals {
            out.push_str(&format!("  - {name}: {total}\n"));
        }
    }
    if !det.histograms.is_empty() {
        let q = |h: &st_obs::Histogram, p: f64| {
            h.quantile(p).map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".to_string())
        };
        out.push_str("- histograms:\n");
        for (key, h) in &det.histograms {
            out.push_str(&format!(
                "  - {key}: n={} min={} max={} p50={} p90={} p99={}\n",
                h.count,
                h.min,
                h.max,
                q(h, 0.5),
                q(h, 0.9),
                q(h, 0.99)
            ));
        }
    }
    out
}

/// Render the full markdown report.
pub fn render_report(report: &ReproReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Repro run (scale {}, seed {})\n\n## Headlines\n\n",
        report.scale, report.seed
    ));
    for (label, value) in &report.headlines {
        out.push_str(&format!("- {label}: **{value}**\n"));
    }
    let t = &report.timings;
    out.push_str(&format!(
        "\n## Timings\n\n- generate: {:.2} s\n- fit: {:.2} s\n- derive: {:.2} s\n- render: {:.2} s\n",
        t.generate_s, t.fit_s, t.derive_s, t.render_s
    ));
    out.push_str("\n## Health\n\n");
    out.push_str(&render_health(&report.health));
    if let Some(metrics) = &report.metrics {
        out.push_str("\n## Metrics\n\n");
        out.push_str(&render_metrics(&metrics.deterministic));
    }
    out.push_str("\n## Artifacts\n\n");
    for a in &report.artifacts {
        out.push_str("```text\n");
        out.push_str(&a.text);
        out.push_str("```\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The render stage with no registry, at `opts`.
    fn render(
        analyses: &Arc<Vec<CityAnalysis>>,
        seed: u64,
        opts: &SuperviseOptions,
        sanitize: SanitizeReport,
    ) -> ReproReport {
        let off = Registry::disabled();
        run_all_observed(analyses, 0.004, seed, opts, StageTimings::default(), sanitize, &off)
    }

    #[test]
    fn tiny_run_produces_all_artifacts() {
        let (analyses, _, sanitize) =
            build_analyses_observed(0.004, 2024, 1, None, &Registry::disabled());
        let report = render(&analyses, 2024, &SuperviseOptions::default(), sanitize);
        assert!(report.artifacts.len() > 25, "artifacts: {}", report.artifacts.len());
        assert!(report.headlines.len() >= 8);
        let ids: Vec<&str> = report.artifacts.iter().map(|a| a.id.as_str()).collect();
        for want in [
            "table1", "fig01", "fig02", "table2", "fig04", "fig06", "table3", "table4", "fig08",
            "fig09a", "fig09d", "fig10", "fig11", "table5", "table6", "table7",
        ] {
            assert!(ids.contains(&want), "missing {want} in {ids:?}");
        }
        // A pristine generator sails through the sanitizer untouched and
        // nothing degrades.
        assert!(!report.health.is_degraded());
        assert_eq!(report.health.jobs_failed, 0);
        assert_eq!(report.health.jobs_retried, 0);
        let md = render_report(&report);
        assert!(md.contains("## Headlines"));
        assert!(md.contains("## Timings"));
        assert!(md.contains("## Health"));
        assert!(md.contains("0 failed, 0 retried"));
    }

    #[test]
    fn observed_run_records_metrics_and_plain_run_does_not() {
        let obs = Registry::new();
        let (analyses, timings, sanitize) = build_analyses_observed(0.004, 2024, 2, None, &obs);
        let opts = SuperviseOptions { parallelism: 2, ..SuperviseOptions::default() };
        let report = run_all_observed(&analyses, 0.004, 2024, &opts, timings, sanitize, &obs);
        let metrics = report.metrics.as_ref().expect("enabled registry yields a snapshot");
        let det = &metrics.deterministic;
        for prefix in ["datagen.records", "sanitize.clean", "bst.em_iterations_total", "store.rows"]
        {
            assert!(
                det.counters.keys().any(|k| k.starts_with(prefix)),
                "no {prefix} counter in {:?}",
                det.counters.keys().collect::<Vec<_>>()
            );
        }
        assert_eq!(det.counters.get("render.jobs").copied(), Some(report.health.jobs_total as u64));
        let spans = &metrics.wall_clock.spans;
        for root in ["generate", "fit", "derive", "render"] {
            assert!(spans.contains_key(root), "missing span {root}");
        }
        assert!(spans.keys().any(|k| k.starts_with("generate/City-")), "no per-city span");
        assert!(spans.contains_key("render/fig01"), "no per-job span");
        let md = render_report(&report);
        assert!(md.contains("## Metrics"));
        assert!(md.contains("counter totals"));
        // A disabled registry keeps the run metrics-free.
        let plain = render(&analyses, 2024, &opts, SanitizeReport::default());
        assert!(plain.metrics.is_none());
        assert!(!render_report(&plain).contains("## Metrics"));
    }

    #[test]
    fn parallel_report_matches_sequential() {
        let off = Registry::disabled();
        let (seq_analyses, _, _) = build_analyses_observed(0.004, 77, 1, None, &off);
        let (par_analyses, _, _) = build_analyses_observed(0.004, 77, 4, None, &off);
        let seq =
            render(&seq_analyses, 77, &SuperviseOptions::default(), SanitizeReport::default());
        let opts = SuperviseOptions { parallelism: 4, ..SuperviseOptions::default() };
        let par = render(&par_analyses, 77, &opts, SanitizeReport::default());
        assert_eq!(seq.artifacts.len(), par.artifacts.len());
        for (s, p) in seq.artifacts.iter().zip(&par.artifacts) {
            assert_eq!(s.id, p.id, "artifact order diverged");
            assert_eq!(s.text, p.text, "artifact {} text diverged", s.id);
            assert_eq!(s.svg, p.svg, "artifact {} svg diverged", s.id);
            assert_eq!(s.json, p.json, "artifact {} json diverged", s.id);
        }
        assert_eq!(seq.headlines, par.headlines);
    }

    #[test]
    fn sanitizer_counts_pristine_records_as_clean() {
        let (_, _, report) = build_analyses_observed(0.004, 2024, 2, None, &Registry::disabled());
        assert!(report.clean > 1000, "clean records: {}", report.clean);
        assert_eq!(report.quarantined, 0, "pristine generator quarantined: {report:?}");
        assert_eq!(report.repaired, 0);
    }

    #[test]
    fn dirty_records_quarantine_and_analysis_survives() {
        let dirty = DirtyScenario::with_total_rate(0.02);
        let (analyses, _, report) =
            build_analyses_observed(0.004, 2024, 2, Some(&dirty), &Registry::disabled());
        assert!(report.quarantined > 0, "2% dirty must quarantine something");
        // Duplicates and clock-skew repairs both occur at this rate.
        assert!(report.quarantine_reasons.contains_key("duplicate-id"), "{report:?}");
        assert!(report.repaired > 0, "clock-skewed records should be repaired: {report:?}");
        // The degraded dataset still fits and renders end to end.
        let run = render(&analyses, 2024, &SuperviseOptions::default(), report);
        assert!(run.artifacts.len() > 25);
        assert!(!run.health.is_degraded());
        assert!(run.health.sanitize.quarantined > 0);
    }

    #[test]
    fn injected_job_failure_degrades_to_placeholder() {
        let (analyses, _, _) = build_analyses_observed(0.004, 2024, 1, None, &Registry::disabled());
        let opts = SuperviseOptions {
            fail_jobs: vec!["fig08".into()],
            deadline: Duration::from_secs(60),
            ..SuperviseOptions::default()
        };
        let report = render(&analyses, 2024, &opts, SanitizeReport::default());
        assert!(report.health.is_degraded());
        assert_eq!(report.health.jobs_failed, 1);
        assert_eq!(report.health.failures[0].label, "fig08");
        assert!(report.health.failures[0].reason.contains("injected failure"));
        let ids: Vec<&str> = report.artifacts.iter().map(|a| a.id.as_str()).collect();
        assert!(ids.contains(&"degraded_fig08"), "placeholder missing: {ids:?}");
        assert!(!ids.contains(&"fig08"), "failed job still produced its artifact");
        // Everything else still rendered.
        for want in ["table1", "fig01", "fig09a", "table5", "table7"] {
            assert!(ids.contains(&want), "missing {want}");
        }
        let md = render_report(&report);
        assert!(md.contains("1 failed"));
        assert!(md.contains("degraded_fig08") || md.contains("fig08: panic"));
    }

    #[test]
    fn flaky_job_survives_on_retry() {
        let (analyses, _, _) = build_analyses_observed(0.004, 2024, 1, None, &Registry::disabled());
        let opts =
            SuperviseOptions { flaky_jobs: vec!["table1".into()], ..SuperviseOptions::default() };
        let report = render(&analyses, 2024, &opts, SanitizeReport::default());
        assert!(!report.health.is_degraded());
        assert_eq!(report.health.jobs_retried, 1);
        assert_eq!(report.health.jobs_failed, 0);
        let clean =
            render(&analyses, 2024, &SuperviseOptions::default(), SanitizeReport::default());
        assert_eq!(report.artifacts.len(), clean.artifacts.len());
        assert_eq!(report.artifacts[0].text, clean.artifacts[0].text);
    }

    #[test]
    fn hanging_job_hits_the_deadline_and_degrades() {
        let (analyses, _, _) = build_analyses_observed(0.004, 2024, 1, None, &Registry::disabled());
        let opts = SuperviseOptions {
            hang_jobs: vec!["ext_latency".into()],
            deadline: Duration::from_millis(250),
            ..SuperviseOptions::default()
        };
        let t0 = Instant::now();
        let report = render(&analyses, 2024, &opts, SanitizeReport::default());
        assert!(report.health.is_degraded());
        assert_eq!(report.health.failures[0].label, "ext_latency");
        assert!(report.health.failures[0].reason.contains("deadline exceeded"));
        // Two attempts at 250ms each plus the real jobs; nowhere near the
        // 10s the hang job sleeps.
        assert!(t0.elapsed() < Duration::from_secs(9), "deadline did not bound the run");
    }

    #[test]
    fn degraded_run_is_identical_across_parallelism() {
        let dirty = DirtyScenario::with_total_rate(0.02);
        let mk = |par: usize| {
            let (analyses, _, sanitize) =
                build_analyses_observed(0.004, 99, par, Some(&dirty), &Registry::disabled());
            let opts = SuperviseOptions {
                parallelism: par,
                fail_jobs: vec!["fig10".into()],
                ..SuperviseOptions::default()
            };
            render(&analyses, 99, &opts, sanitize)
        };
        let seq = mk(1);
        let par = mk(4);
        assert_eq!(seq.artifacts.len(), par.artifacts.len());
        for (s, p) in seq.artifacts.iter().zip(&par.artifacts) {
            assert_eq!(s.id, p.id, "artifact order diverged");
            assert_eq!(s.text, p.text, "artifact {} text diverged", s.id);
            assert_eq!(s.json, p.json, "artifact {} json diverged", s.id);
        }
        assert_eq!(seq.headlines, par.headlines);
        assert_eq!(render_health(&seq.health), render_health(&par.health));
    }
}
