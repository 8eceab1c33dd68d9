//! The batch side: generating the campaigns the service streams (the
//! run's set-up) and the analyst's `repro` run, either untraced through
//! `build_analyses_observed` or traced through the layer calls that
//! function is made of.

use crate::trace::Tracer;
use st_analysis::CityAnalysis;
use st_bench::ledger::artifact_hash;
use st_bench::{
    build_analyses_observed, run_all_observed, ReproReport, StageTimings, SuperviseOptions,
};
use st_datagen::{City, CityDataset, DirtyScenario};
use st_obs::{MetricsSnapshot, Registry};
use st_speedtest::{sanitize, SanitizeReport, SegmentedStore};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The fit seed the batch pipeline derives from the workload seed.
const FIT_SEED_XOR: u64 = 0x5eed;

/// What every phase is generated from.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    /// Generation scale.
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
    /// Dirty-row scenario, `None` for pristine campaigns.
    pub dirty: Option<DirtyScenario>,
    /// Program-internal parallelism.
    pub parallelism: usize,
}

impl Input {
    /// City-level workers and the parallelism left for each city, split
    /// the way `build_analyses_observed` and `build_analyses_serve` split it.
    pub fn city_workers(&self) -> (usize, usize) {
        let workers = self.parallelism.min(City::all().len());
        (workers, self.parallelism.div_ceil(workers))
    }

    /// Render knobs: the supervisor's defaults at this parallelism.
    pub fn supervise(&self) -> SuperviseOptions {
        SuperviseOptions { parallelism: self.parallelism, ..SuperviseOptions::default() }
    }
}

/// Map `items` through `f` on up to `workers` scoped threads, keeping
/// item order in the output.
pub fn par_map<T: Send, U: Send>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> U + Sync,
) -> Vec<U> {
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.clamp(1, n.max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next =
                            queue.lock().expect("a worker panicked holding the queue").next();
                        let Some((i, item)) = next else { return done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, u) in h.join().expect("benchmark worker panicked") {
                out[i] = Some(u);
            }
        }
    });
    out.into_iter().map(|u| u.expect("every item was mapped")).collect()
}

/// Records in one generated city.
pub fn records(ds: &CityDataset) -> u64 {
    (ds.ookla.len() + ds.mlab.len() + ds.mba.len()) as u64
}

/// Generate the four cities (dirty rows injected when the workload has
/// them), exactly as `build_analyses_observed` does before it sanitizes. Also
/// returns how many records generation produced before injection.
pub fn generate(input: &Input) -> (Vec<CityDataset>, u64) {
    let (workers, inner) = input.city_workers();
    let cities = par_map(City::all().to_vec(), workers, |city| {
        let mut ds = CityDataset::generate_with_parallelism(city, input.scale, input.seed, inner);
        let generated = records(&ds);
        if let Some(d) = &input.dirty {
            ds.inject_dirty(d, input.seed);
        }
        (ds, generated)
    });
    let generated = cities.iter().map(|(_, n)| n).sum();
    (cities.into_iter().map(|(ds, _)| ds).collect(), generated)
}

/// Sum of every counter named `base`, over all its label sets.
pub fn counter_total(snap: &MetricsSnapshot, base: &str) -> u64 {
    snap.deterministic
        .counters
        .iter()
        .filter(|(k, _)| {
            k.as_str() == base || k.strip_prefix(base).is_some_and(|r| r.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// One finished batch render: what the checks and metrics need.
pub struct Rendered {
    /// FNV-1a artifact hash and hashed file count.
    pub hash: u64,
    /// Files under the hash.
    pub files: usize,
    /// Render jobs dispatched, retried and failed.
    pub jobs: (usize, usize, usize),
    /// Headline pairs, for the final epoch.
    pub headlines: Vec<(String, String)>,
    /// Rendered tables, for the final epoch.
    pub tables: Vec<(String, String)>,
    /// Sanitize totals carried through the run.
    pub sanitize: SanitizeReport,
    /// The pipeline's metrics snapshot.
    pub metrics: MetricsSnapshot,
}

impl Rendered {
    /// Hash a finished run's artifacts in memory and keep what the
    /// checks, the metrics and the final epoch need.
    fn of(report: ReproReport) -> Self {
        let (hash, files) = artifact_hash(&report.artifacts);
        let tables = report
            .artifacts
            .iter()
            .filter(|a| a.id.starts_with("table"))
            .map(|a| (a.id.clone(), a.text.clone()))
            .collect();
        let h = report.health;
        Rendered {
            hash,
            files,
            jobs: (h.jobs_total, h.jobs_retried, h.jobs_failed),
            headlines: report.headlines,
            tables,
            sanitize: h.sanitize,
            metrics: report.metrics.expect("an enabled registry yields a snapshot"),
        }
    }
}

/// Render every artifact of `analyses` and hash them in memory.
pub fn render(
    input: &Input,
    analyses: &Arc<Vec<CityAnalysis>>,
    sanitize: SanitizeReport,
    obs: &Registry,
    tracer: &Tracer,
) -> Rendered {
    let opts = input.supervise();
    Rendered::of(tracer.time("render", 0, || {
        run_all_observed(
            analyses,
            input.scale,
            input.seed,
            &opts,
            StageTimings::default(),
            sanitize,
            obs,
        )
    }))
}

/// Fit every city from its frozen stores on the city workers, merging
/// each city's sub-registry back in city order (the batch fit stage).
pub fn fit(
    input: &Input,
    stores: Vec<(City, [SegmentedStore; 3])>,
    obs: &Registry,
    tracer: &Tracer,
) -> Arc<Vec<CityAnalysis>> {
    let (workers, _) = input.city_workers();
    let fitted = par_map(stores, workers, |(city, [ookla, mlab, mba])| {
        let sub = obs.sub();
        let config = st_datagen::CityConfig::at_scale(city, input.scale);
        let seed = input.seed ^ FIT_SEED_XOR;
        let analysis = tracer
            .time("fit", 0, || CityAnalysis::from_stores(config, ookla, mlab, mba, seed, &sub));
        (analysis, sub)
    });
    let mut analyses = Vec::with_capacity(fitted.len());
    for (analysis, sub) in fitted {
        obs.merge(&sub);
        analyses.push(analysis);
    }
    derive(input, &analyses, obs, tracer);
    Arc::new(analyses)
}

/// Materialize every store's derived columns, one job per campaign
/// store, merging the store observations back in order.
fn derive(input: &Input, analyses: &[CityAnalysis], obs: &Registry, tracer: &Tracer) {
    let stores: Vec<(&str, &str, &SegmentedStore)> = analyses
        .iter()
        .flat_map(|a| {
            let city = a.config.city.label();
            [("ookla", city, &a.ookla), ("mlab", city, &a.mlab), ("mba", city, &a.mba)]
        })
        .collect();
    let subs = par_map(stores, input.parallelism, |(campaign, city, store)| {
        let sub = obs.sub();
        tracer.time("derive", store.len() as u64, || store.materialize_derived());
        store.observe(&sub, &[("campaign", campaign), ("city", city)]);
        sub
    });
    for sub in &subs {
        obs.merge(sub);
    }
}

/// One `repro` run and its wall time, generate call to artifact hash.
pub struct Repro {
    /// Seconds from the generate call to the artifact hash.
    pub wall_s: f64,
    /// The render outcome.
    pub rendered: Rendered,
}

/// The analyst's batch run through the public batch entry points.
pub fn repro(input: &Input) -> Repro {
    let t0 = Instant::now();
    let obs = Registry::new();
    let (analyses, timings, sanitize) = build_analyses_observed(
        input.scale,
        input.seed,
        input.parallelism,
        input.dirty.as_ref(),
        &obs,
    );
    let rendered = Rendered::of(run_all_observed(
        &analyses,
        input.scale,
        input.seed,
        &input.supervise(),
        timings,
        sanitize,
        &obs,
    ));
    Repro { wall_s: t0.elapsed().as_secs_f64(), rendered }
}

/// The same batch run rebuilt from the layer calls inside
/// `build_analyses_observed` (generate, sanitize, store, fit, derive)
/// and `run_all_observed`, each timed. Its artifacts must hash the same.
pub fn repro_traced(input: &Input, tracer: &Tracer) -> Repro {
    let t0 = Instant::now();
    let obs = Registry::new();
    let (workers, inner) = input.city_workers();
    let prepared = par_map(City::all().to_vec(), workers, |city| {
        let sub = obs.sub();
        let t = Instant::now();
        let mut ds = CityDataset::generate_with_parallelism(city, input.scale, input.seed, inner);
        tracer.record("datagen", t.elapsed().as_secs_f64(), records(&ds));
        let labels = input.dirty.as_ref().map(|d| ds.inject_dirty(d, input.seed));
        ds.observe(&sub);
        if let Some(labels) = &labels {
            ds.observe_dirty(&sub, labels);
        }
        let mut report = SanitizeReport::default();
        let label = city.label();
        for (campaign, rows) in
            [("ookla", &mut ds.ookla), ("mlab", &mut ds.mlab), ("mba", &mut ds.mba)]
        {
            let n = rows.len() as u64;
            let (kept, r) = tracer.time("sanitize", n, || sanitize(std::mem::take(rows)));
            *rows = kept;
            r.record(&sub, &[("campaign", campaign), ("city", label)]);
            report.merge(&r);
        }
        let stores = [&ds.ookla, &ds.mlab, &ds.mba].map(|rows| {
            tracer.time("store", rows.len() as u64, || SegmentedStore::from_measurements(rows))
        });
        (city, stores, report, sub)
    });
    let mut sanitize_total = SanitizeReport::default();
    let mut stores = Vec::with_capacity(prepared.len());
    for (city, s, report, sub) in prepared {
        obs.merge(&sub);
        sanitize_total.merge(&report);
        stores.push((city, s));
    }
    let analyses = fit(input, stores, &obs, tracer);
    let rendered = render(input, &analyses, sanitize_total, &obs, tracer);
    Repro { wall_s: t0.elapsed().as_secs_f64(), rendered }
}
