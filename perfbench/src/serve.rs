//! The operator's live service. One serve round streams the generated
//! campaigns through a `ContextService` from a single writer thread
//! while an open-loop poller queries it over loopback, then drains,
//! fits, renders and publishes the final epoch.
//!
//! A single writer makes the round deterministic: the chunk order, and
//! with it every epoch boundary and every warm refit's input, is the
//! same in every round, so rounds repeat the same work exactly.

use crate::batch::{self, Input, Rendered};
use crate::query::{self, PollLog};
use crate::trace::Tracer;
use st_bench::{make_warm_renderer, split_chunks, ReplaySchedule};
use st_datagen::{City, CityDataset};
use st_obs::Registry;
use st_serve::{ContextService, PartitionSpec, QueryServer, ServeOptions, WarmInput, WarmRenderer};
use st_speedtest::{Measurement, SanitizeReport, SegmentedStore};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rows per streamed chunk (the `serve` binary's default).
pub const CHUNK_ROWS: usize = 2048;

/// What the warm renderer this benchmark injects has seen.
#[derive(Debug, Default)]
struct WarmLog {
    calls: u64,
    rows: u64,
    busy_s: f64,
}

/// Wrap the `serve` binary's warm renderer so the benchmark can count the
/// sealed rows each refit is handed and, when traced, time it.
fn wrap_warm(inner: WarmRenderer, log: Arc<Mutex<WarmLog>>, timed: bool) -> WarmRenderer {
    Arc::new(move |input: &WarmInput| {
        let rows: usize =
            input.cities.iter().flat_map(|c| &c.campaigns).map(|(_, rows)| rows.len()).sum();
        let t0 = timed.then(Instant::now);
        let out = inner(input);
        let mut log = log.lock().expect("warm log poisoned by a panicking refit");
        log.calls += 1;
        log.rows += rows as u64;
        if let Some(t0) = t0 {
            log.busy_s += t0.elapsed().as_secs_f64();
        }
        out
    })
}

/// One finished serve round.
pub struct Round {
    /// Seconds from the first chunk sent to the last chunk's return.
    pub stream_s: f64,
    /// Seconds from the last chunk's return until `publish_final`
    /// returned.
    pub final_s: f64,
    /// Rows offered.
    pub rows: u64,
    /// `ingest_chunk` calls made.
    pub chunks: u64,
    /// Rows the service quarantined.
    pub quarantined: u64,
    /// Errors of `ingest_chunk` calls that failed.
    pub ingest_errors: Vec<String>,
    /// `ingest_chunk` seconds of each chunk that crossed an epoch
    /// boundary, with the warm-refit seconds spent inside it (traced
    /// rounds only; zero otherwise).
    pub crossings: Vec<(f64, f64)>,
    /// Summed `ingest_chunk` seconds and rows of the chunks that crossed
    /// no boundary.
    pub plain: (f64, u64),
    /// Warm refits run, and sealed rows handed to them.
    pub warm: (u64, u64),
    /// `serve.epochs` after the final epoch.
    pub epochs: u64,
    /// The artifact hash the final epoch carries.
    pub published_hash: Option<String>,
    /// The final render.
    pub rendered: Rendered,
    /// What the poller saw while the round ran.
    pub polls: PollLog,
    /// The finished service, kept for the read-only query phase.
    pub service: Arc<ContextService>,
    /// Its query listener.
    pub server: QueryServer,
}

type Streams = Vec<(&'static str, [(&'static str, VecDeque<Vec<Measurement>>); 3], ReplaySchedule)>;

/// Seed of every round's `ReplaySchedule`. The arrival order is part of
/// the workload, not of its seed: warm-refit work depends heavily on
/// which epoch crossings find sealed segments, so an order drawn from
/// the workload seed would make the serve metrics differ by seed rather
/// than by code. Every round and every seed replays this one order.
pub const REPLAY_SEED: u64 = 20220707;

/// Each city's three campaign streams split into chunks, with the
/// city's replay schedule.
fn chunk_plan(datasets: &[CityDataset]) -> Streams {
    datasets
        .iter()
        .enumerate()
        .map(|(ci, ds)| {
            let streams = [
                ("ookla", split_chunks(ds.ookla.clone(), CHUNK_ROWS)),
                ("mlab", split_chunks(ds.mlab.clone(), CHUNK_ROWS)),
                ("mba", split_chunks(ds.mba.clone(), CHUNK_ROWS)),
            ];
            (ds.config.city.label(), streams, ReplaySchedule::new(REPLAY_SEED, ci))
        })
        .collect()
}

/// Run one serve round: set up a service and its listener, stream,
/// finish, and poll throughout.
pub fn round(
    input: &Input,
    datasets: &[CityDataset],
    poll_interval: Duration,
    tracer: &Tracer,
) -> Result<Round, String> {
    // As in the `serve` binary, the service shares its registry with
    // the pipeline, generation metrics included.
    let obs = Registry::new();
    for ds in datasets {
        ds.observe(&obs);
    }
    let log = Arc::new(Mutex::new(WarmLog::default()));
    let warm =
        wrap_warm(make_warm_renderer(input.scale, input.seed), Arc::clone(&log), tracer.is_on());
    let specs = City::all().iter().map(|c| PartitionSpec::city(c.label())).collect();
    let opts = ServeOptions { warm: Some(warm), ..ServeOptions::default() };
    let service = Arc::new(ContextService::new(specs, opts, obs.clone()));
    let server = QueryServer::start(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("cannot bind the query listener: {e}"))?;
    let plan = chunk_plan(datasets);

    let stop = AtomicBool::new(false);
    let addr = server.addr();
    let (written, polls) = std::thread::scope(|s| {
        let poller = s.spawn(|| query::poll_open_loop(addr, poll_interval, &stop));
        let written = write_and_finish(input, &service, plan, &obs, &log, tracer);
        stop.store(true, Ordering::Release);
        (written, poller.join().expect("poller thread panicked"))
    });
    let (w, rendered) = written?;
    let warm = {
        let log = log.lock().expect("warm log poisoned by a panicking refit");
        (log.calls, log.rows)
    };
    let epochs = batch::counter_total(&obs.snapshot(), "serve.epochs");
    let published_hash = service.current_epoch().artifact_hash.clone();
    Ok(Round {
        stream_s: w.stream_s,
        final_s: w.final_s,
        rows: w.rows,
        chunks: w.chunks,
        quarantined: w.quarantined,
        ingest_errors: w.ingest_errors,
        crossings: w.crossings,
        plain: w.plain,
        warm,
        epochs,
        published_hash,
        rendered,
        polls,
        service,
        server,
    })
}

struct Written {
    stream_s: f64,
    final_s: f64,
    rows: u64,
    chunks: u64,
    quarantined: u64,
    ingest_errors: Vec<String>,
    crossings: Vec<(f64, f64)>,
    plain: (f64, u64),
}

/// The writer thread: stream every chunk, taking cities round-robin and
/// campaigns by each city's replay schedule, then drain, fit, render
/// and publish the final epoch.
fn write_and_finish(
    input: &Input,
    service: &ContextService,
    mut plan: Streams,
    obs: &Registry,
    log: &Mutex<WarmLog>,
    tracer: &Tracer,
) -> Result<(Written, Rendered), String> {
    let warm_s = || log.lock().expect("warm log poisoned by a panicking refit").busy_s;
    let mut w = Written {
        stream_s: 0.0,
        final_s: 0.0,
        rows: 0,
        chunks: 0,
        quarantined: 0,
        ingest_errors: Vec::new(),
        crossings: Vec::new(),
        plain: (0.0, 0),
    };
    let t_stream = Instant::now();
    loop {
        let mut sent = false;
        for (city, streams, sched) in plan.iter_mut() {
            let live: Vec<usize> =
                (0..streams.len()).filter(|&k| !streams[k].1.is_empty()).collect();
            if live.is_empty() {
                continue;
            }
            sent = true;
            let (campaign, queue) = &mut streams[live[sched.pick(live.len())]];
            let chunk = queue.pop_front().expect("the picked stream is live");
            let rows = chunk.len() as u64;
            let warm_before = warm_s();
            let t0 = Instant::now();
            let result = service.ingest_chunk(city, campaign, chunk);
            let dt = t0.elapsed().as_secs_f64();
            w.chunks += 1;
            w.rows += rows;
            match result {
                Ok(receipt) if receipt.epochs_crossed > 0 => {
                    w.quarantined += receipt.stats.quarantined;
                    w.crossings.push((dt, warm_s() - warm_before));
                }
                Ok(receipt) => {
                    w.quarantined += receipt.stats.quarantined;
                    w.plain.0 += dt;
                    w.plain.1 += rows;
                }
                Err(e) => w.ingest_errors.push(format!("{city}/{campaign}: {e}")),
            }
        }
        if !sent {
            break;
        }
    }
    w.stream_s = t_stream.elapsed().as_secs_f64();

    let t_final = Instant::now();
    let drained =
        tracer.time("final.drain", 0, || service.drain()).map_err(|e| format!("drain: {e}"))?;
    let mut sanitize_total = SanitizeReport::default();
    let mut stores = Vec::with_capacity(drained.partitions.len());
    for part in drained.partitions {
        let city = City::all()
            .into_iter()
            .find(|c| c.label() == part.city)
            .ok_or_else(|| format!("drained an unknown partition {:?}", part.city))?;
        for (campaign, store) in &part.stores {
            store.report().record(obs, &[("campaign", campaign), ("city", &part.city)]);
            sanitize_total.merge(store.report());
        }
        let mut by_name = part.stores.into_iter();
        let mut take = |name: &str| match by_name.next() {
            Some((campaign, store)) if campaign == name => Ok(store),
            other => Err(format!(
                "{}: expected campaign {name}, drained {:?}",
                part.city,
                other.map(|(c, _)| c)
            )),
        };
        let three: [SegmentedStore; 3] = [take("ookla")?, take("mlab")?, take("mba")?];
        stores.push((city, three));
    }
    let analyses = batch::fit(input, stores, obs, tracer);
    let r = batch::render(input, &analyses, sanitize_total, obs, tracer);
    tracer
        .time("final.publish", 0, || {
            service.publish_final(
                &r.sanitize,
                r.headlines.clone(),
                r.tables.clone(),
                Some(format!("{:016x}", r.hash)),
                r.files as u64,
            )
        })
        .map_err(|e| format!("publish_final: {e}"))?;
    w.final_s = t_final.elapsed().as_secs_f64();
    Ok((w, r))
}
