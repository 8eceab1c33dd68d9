//! Thread-per-connection line-delimited JSON query API (DESIGN.md §18).
//!
//! Each request is one JSON object per line (`{"cmd": "status"}`);
//! each response is one JSON object per line with an `ok` field.
//! Every command answers from the *current epoch snapshot* — a single
//! immutable `Arc` grabbed once per request — so a response is always
//! internally consistent, reads never block ingest, and two fields of
//! one response can never disagree about which epoch they describe.
//!
//! Commands:
//!
//! | cmd          | answer                                             |
//! |--------------|----------------------------------------------------|
//! | `status`     | global counters + per-partition accepted rows      |
//! | `city`       | one partition's per-campaign detail (`"city": ...`)|
//! | `headline`   | warm/final headline figures and tables             |
//! | `quarantine` | sanitize taxonomy of the current epoch             |
//! | `epoch`      | the full epoch snapshot                            |
//! | `metrics`    | the full two-class metrics snapshot                |
//! | `watch`      | *streaming*: one row now + one per epoch crossing  |
//! | `shutdown`   | ack, then signals the server to stop accepting     |
//!
//! Every answer leaves as one write on a `TCP_NODELAY` socket, so a
//! client that keeps its connection open never waits on its own
//! delayed ACK. Queries are read-only: no verb writes to the metrics
//! registry, so the registry's snapshot cache (and the `metrics` verb's
//! cached JSON) survive from one request to the next while nothing
//! changes.
//!
//! Each request line is parsed once. The `city`, `headline`,
//! `quarantine` and `epoch` answers read nothing but the epoch
//! snapshot, so the first reader of a snapshot serializes them (one
//! `city` answer per partition) and later readers write those bytes
//! as they are (`AnswerCache`). `status` (uptime, live epoch count)
//! and `metrics` (the registry's own cache) are built per request.
//!
//! Malformed or unknown requests get a uniform structured error row:
//! `{"ok": false, "kind": "error", "detail": "..."}` — still one JSON
//! object per line, so clients never need a second parser for the
//! failure path. A line longer than `MAX_LINE_BYTES` gets that row
//! and then the connection is closed, unread remainder and all.
//!
//! `watch` is the one departure from request/response: the connection
//! switches to a push feed (the console's live feed). The server
//! writes one row immediately (the current epoch, with `serve.*`
//! counter *totals*), then one row per epoch crossing carrying the
//! counter *deltas* since the previous row — backed by
//! [`st_obs::MetricsSnapshot::delta`], so the rows telescope: base +
//! sum of deltas = final totals. The feed ends after the final epoch,
//! after an optional `"max": N` row budget, or when the server stops
//! accepting; the connection then returns to request/response.

use crate::epoch::{CitySnapshot, EpochSnapshot};
use crate::service::ContextService;
use serde::Serialize;
use serde_json::{ParseError, Value};
use st_obs::MetricsSnapshot;
use st_speedtest::SanitizeReport;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How often a streaming watch wakes up to notice server shutdown.
const WATCH_POLL: Duration = Duration::from_millis(200);

/// Longest request line the server reads, in bytes before its `\n`.
/// In-tree requests are under 100 bytes. A connection's line buffer
/// never grows past this plus one byte.
const MAX_LINE_BYTES: usize = 64 * 1024;

#[derive(Serialize)]
struct ErrorResponse {
    ok: bool,
    kind: &'static str,
    detail: String,
}

#[derive(Serialize)]
struct CityRows {
    city: String,
    accepted_rows: u64,
}

#[derive(Serialize)]
struct StatusResponse {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    final_epoch: bool,
    drained: bool,
    accepted_rows: u64,
    rows_in: u64,
    quarantined: u64,
    chunks: u64,
    segments_sealed: u64,
    epochs_published: u64,
    uptime_s: f64,
    cities: Vec<CityRows>,
}

#[derive(Serialize)]
struct CityResponse {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    city: CitySnapshot,
}

#[derive(Serialize)]
struct HeadlineResponse {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    final_epoch: bool,
    headlines: Vec<(String, String)>,
    tables: Vec<(String, String)>,
}

#[derive(Serialize)]
struct QuarantineResponse {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    rows_in: u64,
    quarantined: u64,
    sanitize: SanitizeReport,
}

#[derive(Serialize)]
struct EpochResponse {
    ok: bool,
    kind: &'static str,
    snapshot: EpochSnapshot,
}

#[derive(Serialize)]
struct ShutdownResponse {
    ok: bool,
    kind: &'static str,
}

/// Per-city sealed-segment count inside a watch row.
#[derive(Serialize)]
struct SealCount {
    city: String,
    sealed_segments: u64,
}

/// One line of the `watch` feed: the epoch that crossed plus the
/// `serve.*` deterministic counter deltas since the previous row.
#[derive(Serialize)]
struct WatchRow {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    final_epoch: bool,
    accepted_rows: u64,
    quarantined: u64,
    chunks: u64,
    segments_sealed: u64,
    seals: Vec<SealCount>,
    counters: BTreeMap<String, u64>,
}

fn err(msg: impl Into<String>) -> Answer {
    Answer::Fresh(json(&ErrorResponse { ok: false, kind: "error", detail: msg.into() }))
}

fn json<T: Serialize>(resp: &T) -> String {
    serde_json::to_string(resp).expect("query response serializes")
}

/// One answer line, ready to leave as a single write.
enum Answer {
    /// Built for this request; its `\n` is not yet appended.
    Fresh(String),
    /// An epoch's cached answer: the text and its `\n`.
    Cached(Arc<str>),
}

impl Answer {
    /// The line without its `\n`, as [`dispatch`] returns it.
    fn into_line(self) -> String {
        match self {
            Answer::Fresh(line) => line,
            Answer::Cached(line) => line[..line.len() - 1].to_string(),
        }
    }

    /// Send the line and its `\n` in one write.
    fn write_to(self, writer: &mut TcpStream) -> io::Result<()> {
        match self {
            Answer::Fresh(line) => write_line(writer, line),
            Answer::Cached(line) => writer.write_all(line.as_bytes()),
        }
    }
}

/// The answers of the four verbs that read nothing but one epoch
/// snapshot, each serialized once with its `\n`.
struct EpochAnswers {
    headline: Arc<str>,
    quarantine: Arc<str>,
    epoch: Arc<str>,
    /// `(partition, city answer)` in partition order.
    cities: Vec<(String, Arc<str>)>,
}

impl EpochAnswers {
    fn build(snap: &EpochSnapshot) -> Self {
        let line = |text: String| -> Arc<str> { (text + "\n").into() };
        EpochAnswers {
            headline: line(json(&HeadlineResponse {
                ok: true,
                kind: "headline",
                epoch: snap.epoch,
                final_epoch: snap.final_epoch,
                headlines: snap.headlines.clone(),
                tables: snap.tables.clone(),
            })),
            quarantine: line(json(&QuarantineResponse {
                ok: true,
                kind: "quarantine",
                epoch: snap.epoch,
                rows_in: snap.rows_in,
                quarantined: snap.quarantined,
                sanitize: snap.sanitize.clone(),
            })),
            epoch: line(json(&EpochResponse { ok: true, kind: "epoch", snapshot: snap.clone() })),
            cities: snap
                .cities
                .iter()
                .map(|c| {
                    let answer =
                        CityResponse { ok: true, kind: "city", epoch: snap.epoch, city: c.clone() };
                    (c.city.clone(), line(json(&answer)))
                })
                .collect(),
        }
    }

    fn city(&self, name: &str) -> Option<Arc<str>> {
        self.cities.iter().find(|(city, _)| city == name).map(|(_, line)| Arc::clone(line))
    }
}

/// The [`EpochAnswers`] of the newest snapshot a reader has asked
/// about. Like [`st_obs::Registry::snapshot_json_shared`], it is keyed
/// on the identity of the snapshot `Arc` the answers were built from
/// and holds that `Arc`, so an answer is only ever served for its own
/// snapshot. The writer never touches it: a crossing publishes, and
/// the first reader of the new snapshot builds.
#[derive(Default)]
pub(crate) struct AnswerCache(Mutex<Option<(Arc<EpochSnapshot>, Arc<EpochAnswers>)>>);

impl AnswerCache {
    /// `snap`'s answers: cached if they were built from this very
    /// `Arc`, else built now and stored. Readers racing on a crossing
    /// may both build; the last to finish is stored.
    fn get(&self, snap: &Arc<EpochSnapshot>) -> Arc<EpochAnswers> {
        if let Some((cached, answers)) = &*self.0.lock().expect("answer cache lock") {
            if Arc::ptr_eq(cached, snap) {
                return Arc::clone(answers);
            }
        }
        let answers = Arc::new(EpochAnswers::build(snap));
        *self.0.lock().expect("answer cache lock") = Some((Arc::clone(snap), Arc::clone(&answers)));
        answers
    }
}

/// Answer one request line. Returns the response line and whether the
/// request asked the server to shut down. Pure over (service state,
/// line) — exposed for direct use in tests and the in-process path.
pub fn dispatch(service: &ContextService, line: &str) -> (String, bool) {
    let (answer, shutdown) = respond(service, serde_json::from_str(line));
    (answer.into_line(), shutdown)
}

/// Answer one parsed request line: what [`dispatch`] does after its
/// parse, and what a connection does with the line it parsed.
fn respond(service: &ContextService, request: Result<Value, ParseError>) -> (Answer, bool) {
    let value = match request {
        Ok(v) => v,
        Err(e) => return (err(format!("bad request JSON: {e}")), false),
    };
    let Some(cmd) = value.get("cmd").and_then(|c| c.as_str()) else {
        return (err("request needs a string \"cmd\" field"), false);
    };
    let snap = service.current_epoch();
    let cached = || service.answer_cache().get(&snap);
    let answer = match cmd {
        "status" => {
            let epochs_published = service.registry().counter("serve.epochs", &[]);
            Answer::Fresh(json(&StatusResponse {
                ok: true,
                kind: "status",
                epoch: snap.epoch,
                final_epoch: snap.final_epoch,
                drained: service.is_drained(),
                accepted_rows: snap.accepted_rows,
                rows_in: snap.rows_in,
                quarantined: snap.quarantined,
                chunks: snap.chunks,
                segments_sealed: snap.segments_sealed,
                epochs_published,
                uptime_s: service.uptime_s(),
                cities: snap
                    .cities
                    .iter()
                    .map(|c| CityRows {
                        city: c.city.clone(),
                        accepted_rows: c.campaigns.iter().map(|s| s.accepted_rows).sum(),
                    })
                    .collect(),
            }))
        }
        "city" => match value.get("city").and_then(|c| c.as_str()) {
            None => err("city query needs a string \"city\" field"),
            Some(name) => match cached().city(name) {
                Some(line) => Answer::Cached(line),
                None => err(format!("unknown city {name:?}")),
            },
        },
        "headline" => Answer::Cached(Arc::clone(&cached().headline)),
        "quarantine" => Answer::Cached(Arc::clone(&cached().quarantine)),
        "epoch" => Answer::Cached(Arc::clone(&cached().epoch)),
        // Assembled by hand around the registry's cached JSON, which is
        // serialized once per metric change, not once per request.
        "metrics" => Answer::Fresh(format!(
            "{{\"ok\":true,\"kind\":\"metrics\",\"epoch\":{},\"snapshot\":{}}}",
            snap.epoch,
            service.registry().snapshot_json_shared()
        )),
        // Streaming is a connection-level mode, not a one-shot answer:
        // `handle_conn` intercepts it before `respond` ever runs.
        // Reaching this arm means the caller invoked the pure in-process
        // path, where a push feed cannot exist.
        "watch" => err(
            "watch is streaming-only: hold the connection open and read one row per epoch crossing",
        ),
        "shutdown" => {
            return (Answer::Fresh(json(&ShutdownResponse { ok: true, kind: "shutdown" })), true)
        }
        other => err(format!("unknown cmd {other:?}")),
    };
    (answer, false)
}

/// Wakeable latch the `shutdown` command trips.
struct Signal {
    fired: Mutex<bool>,
    cv: Condvar,
    stop_accepting: AtomicBool,
}

impl Signal {
    fn new() -> Self {
        Signal {
            fired: Mutex::new(false),
            cv: Condvar::new(),
            stop_accepting: AtomicBool::new(false),
        }
    }

    fn fire(&self) {
        *self.fired.lock().expect("signal lock") = true;
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> bool {
        let fired = self.fired.lock().expect("signal lock");
        if *fired {
            return true;
        }
        let (fired, _) = self.cv.wait_timeout(fired, timeout).expect("signal lock");
        *fired
    }
}

/// A running query listener: one accept thread, one thread per
/// connection.
pub struct QueryServer {
    addr: SocketAddr,
    signal: Arc<Signal>,
    accept: Option<thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting.
    pub fn start(service: Arc<ContextService>, addr: &str) -> io::Result<QueryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let signal = Arc::new(Signal::new());
        let accept_signal = Arc::clone(&signal);
        let accept = thread::Builder::new().name("serve-accept".into()).spawn(move || {
            for stream in listener.incoming() {
                if accept_signal.stop_accepting.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&service);
                let signal = Arc::clone(&accept_signal);
                let _ = thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_conn(stream, &service, &signal));
            }
        })?;
        Ok(QueryServer { addr, signal, accept: Some(accept) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a `shutdown` command arrives (or `stop` is called),
    /// up to `timeout`. Returns whether the signal fired.
    pub fn wait_shutdown(&self, timeout: Duration) -> bool {
        self.signal.wait(timeout)
    }

    /// Stop accepting and join the accept thread. In-flight
    /// connections finish their current line and exit on their own.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.signal.stop_accepting.store(true, Ordering::Release);
        self.signal.fire();
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Serialize one watch row for `snap`, carrying the `serve.*`
/// deterministic counter deltas since `prev` (which is advanced to the
/// metrics state captured for this row). Seeding `prev` with
/// [`MetricsSnapshot::empty`] makes the first row carry running totals;
/// every later row carries increments, and the rows telescope.
fn watch_row(
    service: &ContextService,
    snap: &EpochSnapshot,
    prev: &mut Arc<MetricsSnapshot>,
) -> String {
    let now = service.registry().snapshot_shared();
    let delta = now.delta(prev.as_ref());
    *prev = now;
    let counters: BTreeMap<String, u64> =
        delta.deterministic.counters.into_iter().filter(|(k, _)| k.starts_with("serve.")).collect();
    json(&WatchRow {
        ok: true,
        kind: "watch",
        epoch: snap.epoch,
        final_epoch: snap.final_epoch,
        accepted_rows: snap.accepted_rows,
        quarantined: snap.quarantined,
        chunks: snap.chunks,
        segments_sealed: snap.segments_sealed,
        seals: snap
            .cities
            .iter()
            .map(|c| SealCount {
                city: c.city.clone(),
                sealed_segments: c.campaigns.iter().map(|s| s.sealed_segments).sum(),
            })
            .collect(),
        counters,
    })
}

/// Send `line` and its `\n` in one write: a second, one-byte write
/// would sit behind Nagle until the peer's delayed ACK for the first.
fn write_line(writer: &mut TcpStream, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Run one `watch` feed on an open connection: emit the current epoch
/// immediately, then every snapshot the publisher hands us, exactly
/// once each and in order (see [`crate::EpochPublisher::subscribe`]).
/// Ends after the final epoch, after `max` rows, when the server stops
/// accepting, or on a client write error.
fn stream_watch(
    writer: &mut TcpStream,
    service: &ContextService,
    signal: &Signal,
    max: Option<u64>,
) -> io::Result<()> {
    let (base, rx) = service.subscribe_epochs();
    let mut prev = Arc::new(MetricsSnapshot::empty());
    let mut sent = 0u64;
    write_line(writer, watch_row(service, &base, &mut prev))?;
    sent += 1;
    if base.final_epoch || max.is_some_and(|m| sent >= m) {
        return Ok(());
    }
    loop {
        match rx.recv_timeout(WATCH_POLL) {
            Ok(snap) => {
                write_line(writer, watch_row(service, &snap, &mut prev))?;
                sent += 1;
                if snap.final_epoch || max.is_some_and(|m| sent >= m) {
                    return Ok(());
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if signal.stop_accepting.load(Ordering::Acquire) {
                    return Ok(());
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

fn handle_conn(stream: TcpStream, service: &ContextService, signal: &Signal) {
    // No Nagle: the short last segment of a long answer would otherwise
    // wait for the peer to ACK the ones before it. Every answer is one
    // write (`Answer::write_to`), so this sends no extra small segments.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Never buffer more than the cap: a line that has not ended
        // within it gets an error row, and the connection closes.
        let cap = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE_BYTES {
            let _ =
                err(format!("request line exceeds {MAX_LINE_BYTES} bytes")).write_to(&mut writer);
            // Send FIN behind the row, so the client reads the row and
            // then end of file.
            let _ = writer.shutdown(Shutdown::Write);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        let request = serde_json::from_str(line);
        // `watch` flips the connection into push mode until the feed
        // ends; everything else stays strict request/response.
        if let Ok(v) = &request {
            if v.get("cmd").and_then(|c| c.as_str()) == Some("watch") {
                let max = v.get("max").and_then(|m| m.as_u64());
                if stream_watch(&mut writer, service, signal, max).is_err() {
                    break;
                }
                continue;
            }
        }
        let (answer, shutdown) = respond(service, request);
        if answer.write_to(&mut writer).is_err() {
            break;
        }
        if shutdown {
            signal.fire();
            break;
        }
    }
}

/// One-shot client: connect, send `line`, read one response line.
/// What the `serve --connect` client mode and the test suites use.
pub fn query_once(addr: SocketAddr, line: &str, timeout: Duration) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_line(&mut stream, line.to_string())?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp)?;
    if resp.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response line"));
    }
    Ok(resp.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PartitionSpec, ServeOptions, WarmInput, WarmOutput, WarmRenderer};
    use st_obs::Registry;
    use st_speedtest::{Access, Measurement, Platform};
    use std::time::Instant;

    fn m(id: u64) -> Measurement {
        Measurement {
            id,
            user_id: id,
            platform: Platform::AndroidApp,
            city: 0,
            day: 10,
            hour: 12,
            down_mbps: 100.0,
            up_mbps: 10.0,
            rtt_ms: 20.0,
            loaded_rtt_ms: 40.0,
            access: Access::Ethernet,
            kernel_memory_gb: None,
            truth_tier: None,
        }
    }

    fn service() -> Arc<ContextService> {
        let s = ContextService::new(
            vec![PartitionSpec::city("City-A")],
            ServeOptions { seal_rows: 8, epoch_rows: 10, warm: None },
            Registry::new(),
        );
        s.ingest_chunk("City-A", "ookla", (0..12).map(m).collect()).unwrap();
        Arc::new(s)
    }

    fn get<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.get(key).unwrap_or_else(|| panic!("response missing {key:?}"))
    }

    /// A warm service over two cities and the wire partition, driven
    /// through epoch 0, two warm crossings and the final epoch. `at`
    /// runs at each with the epoch index the service must report.
    fn at_every_epoch(mut at: impl FnMut(&Arc<ContextService>, u64)) {
        let warm: WarmRenderer = Arc::new(|input: &WarmInput| {
            let sealed: usize =
                input.cities.iter().flat_map(|c| c.campaigns.iter()).map(|(_, r)| r.len()).sum();
            WarmOutput {
                headlines: vec![("sealed rows".into(), sealed.to_string())],
                tables: vec![("rows".into(), format!("epoch {}: {sealed} rows", input.epoch))],
            }
        });
        let s = Arc::new(ContextService::new(
            vec![
                PartitionSpec::city("City-A"),
                PartitionSpec::city("City-B"),
                PartitionSpec::wire(),
            ],
            ServeOptions { seal_rows: 8, epoch_rows: 10, warm: Some(warm) },
            Registry::new(),
        ));
        at(&s, 0);
        s.ingest_chunk("City-A", "ookla", (0..12).map(m).collect()).unwrap();
        at(&s, 1);
        let mut bad = m(99);
        bad.down_mbps = f64::NAN;
        s.ingest_chunk("wire", "sessions", (200..203).map(m).collect()).unwrap();
        s.ingest_chunk("City-B", "mlab", (100..110).map(m).chain([bad]).collect()).unwrap();
        at(&s, 2);
        let out = s.drain().unwrap();
        let headlines = vec![("final".into(), "22 rows".into())];
        let tables = vec![("rows".into(), "final".into())];
        s.publish_final(&out.sanitize, headlines, tables, Some("abc".into()), 3).unwrap();
        at(&s, 3);
    }

    /// Request lines for every cached verb, every partition of `snap`
    /// and an unknown city.
    fn epoch_only_requests(snap: &EpochSnapshot) -> Vec<String> {
        let mut lines: Vec<String> = ["headline", "quarantine", "epoch"]
            .iter()
            .map(|cmd| format!("{{\"cmd\":\"{cmd}\"}}"))
            .collect();
        for city in snap.cities.iter().map(|c| c.city.as_str()).chain(["Nowhere"]) {
            lines.push(format!("{{\"cmd\":\"city\",\"city\":\"{city}\"}}"));
        }
        lines
    }

    #[test]
    fn dispatch_answers_every_command_from_one_epoch() {
        let s = service();
        for cmd in ["status", "headline", "quarantine", "epoch", "metrics"] {
            let (resp, shutdown) = dispatch(&s, &format!("{{\"cmd\":\"{cmd}\"}}"));
            assert!(!shutdown);
            let v: serde_json::Value = serde_json::from_str(&resp).expect("response parses");
            assert_eq!(get(&v, "ok").as_bool(), Some(true), "{cmd}: {resp}");
        }
        let (resp, _) = dispatch(&s, "{\"cmd\":\"status\"}");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        // One 12-row chunk crossed the 10-row boundary once; the
        // snapshot captures the accepted count at the crossing.
        assert_eq!(get(&v, "epoch").as_u64(), Some(1));
        assert_eq!(get(&v, "accepted_rows").as_u64(), Some(12));
        assert_eq!(get(&v, "epochs_published").as_u64(), Some(1));

        let (resp, _) = dispatch(&s, "{\"cmd\":\"city\",\"city\":\"City-A\"}");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        let city = get(&v, "city");
        assert_eq!(get(city, "city").as_str(), Some("City-A"));
        assert!(get(city, "campaigns").as_array().is_some_and(|c| c.len() == 3));

        // metrics returns the full two-class snapshot, both sections
        // split exactly as BENCH_metrics.json lays them out.
        let (resp, _) = dispatch(&s, "{\"cmd\":\"metrics\"}");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(get(&v, "kind").as_str(), Some("metrics"));
        let snap = get(&v, "snapshot");
        assert_eq!(get(snap, "schema").as_str(), Some("st-obs/v1"));
        let det = get(snap, "deterministic");
        assert!(get(snap, "wall_clock").as_object().is_some());
        let rows = get(get(det, "counters"), "serve.rows{outcome=clean}");
        assert_eq!(rows.as_u64(), Some(12), "metrics carries the serve.* counters: {resp}");
    }

    #[test]
    fn cached_answers_equal_a_fresh_serialization_at_every_epoch() {
        at_every_epoch(|s, epoch| {
            let snap = s.current_epoch();
            assert_eq!((snap.epoch, snap.final_epoch), (epoch, epoch == 3));
            // What each verb serialized per request before the cache.
            let fresh = |line: &str| -> String {
                let v: serde_json::Value = serde_json::from_str(line).unwrap();
                match (get(&v, "cmd").as_str().unwrap(), v.get("city").and_then(|c| c.as_str())) {
                    ("headline", _) => json(&HeadlineResponse {
                        ok: true,
                        kind: "headline",
                        epoch: snap.epoch,
                        final_epoch: snap.final_epoch,
                        headlines: snap.headlines.clone(),
                        tables: snap.tables.clone(),
                    }),
                    ("quarantine", _) => json(&QuarantineResponse {
                        ok: true,
                        kind: "quarantine",
                        epoch: snap.epoch,
                        rows_in: snap.rows_in,
                        quarantined: snap.quarantined,
                        sanitize: snap.sanitize.clone(),
                    }),
                    ("epoch", _) => {
                        json(&EpochResponse { ok: true, kind: "epoch", snapshot: (*snap).clone() })
                    }
                    ("city", Some(name)) => match snap.cities.iter().find(|c| c.city == name) {
                        Some(c) => json(&CityResponse {
                            ok: true,
                            kind: "city",
                            epoch: snap.epoch,
                            city: c.clone(),
                        }),
                        None => json(&ErrorResponse {
                            ok: false,
                            kind: "error",
                            detail: format!("unknown city {name:?}"),
                        }),
                    },
                    (cmd, _) => panic!("no fresh answer for {cmd}"),
                }
            };
            // The first pass builds the epoch's answers, the second
            // serves them from the cache.
            for pass in 0..2 {
                for line in epoch_only_requests(&snap) {
                    let (answer, shutdown) = dispatch(s, &line);
                    assert!(!shutdown);
                    assert_eq!(answer, fresh(&line), "epoch {epoch}, pass {pass}: {line}");
                }
            }
        });
    }

    #[test]
    fn keepalive_answers_equal_dispatch_and_carry_each_new_epoch() {
        let t = Duration::from_secs(5);
        let mut conn = None;
        at_every_epoch(|s, epoch| {
            // One connection, opened at epoch 0 and kept to the end.
            let (_server, writer, reader) = conn.get_or_insert_with(|| {
                let server = QueryServer::start(Arc::clone(s), "127.0.0.1:0").expect("bind");
                let stream = TcpStream::connect_timeout(&server.addr(), t).expect("connect");
                stream.set_read_timeout(Some(t)).unwrap();
                let writer = stream.try_clone().expect("clone");
                (server, writer, BufReader::new(stream))
            });
            let mut lines = epoch_only_requests(&s.current_epoch());
            lines.extend(
                ["{\"cmd\":\"metrics\"}", "{\"cmd\":\"status\"}", "not json", "{\"cmd\":\"nope\"}"]
                    .map(String::from),
            );
            for line in lines {
                writer.write_all(format!("{line}\n").as_bytes()).unwrap();
                let mut answer = String::new();
                reader.read_line(&mut answer).expect("an answer");
                let answer = answer.strip_suffix('\n').expect("answers end in a newline");
                let v: serde_json::Value = serde_json::from_str(answer).expect("answer parses");
                if get(&v, "ok").as_bool() == Some(true) {
                    let at = if line.contains("epoch") { get(&v, "snapshot") } else { &v };
                    assert_eq!(get(at, "epoch").as_u64(), Some(epoch), "{line}: {answer}");
                }
                // status alone reads the clock (`uptime_s`).
                if !line.contains("status") {
                    assert_eq!(answer, dispatch(s, &line).0, "epoch {epoch}: {line}");
                }
            }
        });
        conn.expect("the connection was opened").0.stop();
    }

    #[test]
    fn an_oversized_line_gets_an_error_row_then_end_of_file() {
        let s = service();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let t = Duration::from_secs(5);
        let stream = TcpStream::connect_timeout(&server.addr(), t).expect("connect");
        stream.set_read_timeout(Some(t)).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        // 1 MiB and no newline. The server stops reading at the cap and
        // closes, so this write may fail part way; only the answer
        // matters.
        let sender = thread::spawn(move || {
            let _ = writer.write_all(&vec![b'['; 1 << 20]);
        });
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("an error row within the timeout");
        let v: serde_json::Value = serde_json::from_str(&line).expect("error row parses");
        assert_eq!(get(&v, "ok").as_bool(), Some(false), "{line}");
        let detail = get(&v, "detail").as_str().unwrap_or_default();
        assert!(detail.contains(&format!("exceeds {MAX_LINE_BYTES} bytes")), "{line}");
        line.clear();
        let n = reader.read_line(&mut line).expect("end of file within the timeout");
        assert_eq!(n, 0, "the server closes after the error row: {line:?}");
        sender.join().expect("sender");
        let resp = query_once(server.addr(), "{\"cmd\":\"status\"}", t).expect("a new client");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        server.stop();
    }

    #[test]
    fn malformed_requests_get_structured_errors() {
        let s = service();
        // One failure shape for every failure mode, streaming included:
        // ok:false, kind:"error", and a human-readable detail string.
        for bad in
            ["not json", "{}", "{\"cmd\":\"nope\"}", "{\"cmd\":\"city\"}", "{\"cmd\":\"watch\"}"]
        {
            let (resp, shutdown) = dispatch(&s, bad);
            assert!(!shutdown);
            let v: serde_json::Value = serde_json::from_str(&resp).expect("error responses parse");
            assert_eq!(get(&v, "ok").as_bool(), Some(false), "{bad}: {resp}");
            assert_eq!(get(&v, "kind").as_str(), Some("error"), "{bad}: {resp}");
            assert!(get(&v, "detail").as_str().is_some_and(|d| !d.is_empty()), "{bad}: {resp}");
        }
    }

    #[test]
    fn queries_never_write_to_the_registry() {
        let s = service();
        let reg = s.registry();
        let version = reg.version();
        for line in [
            "{\"cmd\":\"status\"}",
            "{\"cmd\":\"city\",\"city\":\"City-A\"}",
            "{\"cmd\":\"headline\"}",
            "{\"cmd\":\"quarantine\"}",
            "{\"cmd\":\"epoch\"}",
            "{\"cmd\":\"metrics\"}",
            "{\"cmd\":\"watch\"}",
            "{\"cmd\":\"shutdown\"}",
            "not json",
        ] {
            dispatch(&s, line);
            assert_eq!(reg.version(), version, "{line} wrote to the registry");
        }
        // status reads the one counter it reports; metrics wraps the
        // snapshot's exact JSON.
        let (resp, _) = dispatch(&s, "{\"cmd\":\"status\"}");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        let snap = reg.snapshot_shared();
        assert_eq!(get(&v, "epochs_published").as_u64(), Some(1));
        assert_eq!(
            get(&v, "epochs_published").as_u64(),
            snap.deterministic.counters.get("serve.epochs").copied()
        );
        let (resp, _) = dispatch(&s, "{\"cmd\":\"metrics\"}");
        let want = format!(
            "{{\"ok\":true,\"kind\":\"metrics\",\"epoch\":1,\"snapshot\":{}}}",
            serde_json::to_string(&*snap).unwrap()
        );
        assert_eq!(resp, want);
    }

    #[test]
    fn keepalive_answers_do_not_wait_on_delayed_acks() {
        let s = service();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let t = Duration::from_secs(5);
        let stream = TcpStream::connect_timeout(&server.addr(), t).expect("connect");
        stream.set_read_timeout(Some(t)).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // An answer sent as two writes waits ~40 ms for the client's
        // delayed ACK before its second write leaves, so 50 answers
        // would take about 2 s.
        let start = Instant::now();
        for i in 0..50 {
            let cmd = if i % 2 == 0 { "status" } else { "metrics" };
            writer.write_all(format!("{{\"cmd\":\"{cmd}\"}}\n").as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).expect("answer");
            let v: serde_json::Value = serde_json::from_str(&line).expect("answer parses");
            assert_eq!(get(&v, "kind").as_str(), Some(cmd), "{line}");
        }
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "50 keep-alive answers took {took:?}");
        server.stop();
    }

    #[test]
    fn watch_over_tcp_streams_rows_and_returns_to_request_response() {
        let s = service();
        let version = s.registry().version();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let t = Duration::from_secs(5);
        let stream = TcpStream::connect_timeout(&server.addr(), t).expect("connect");
        stream.set_read_timeout(Some(t)).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"cmd\":\"watch\",\"max\":1}\n").unwrap();
        writer.flush().unwrap();
        let mut row = String::new();
        reader.read_line(&mut row).expect("watch row");
        let v: serde_json::Value = serde_json::from_str(&row).expect("watch row parses");
        assert_eq!(get(&v, "kind").as_str(), Some("watch"));
        assert_eq!(get(&v, "epoch").as_u64(), Some(1));
        assert_eq!(get(&v, "accepted_rows").as_u64(), Some(12));
        // The first row is seeded from the empty snapshot: its counter
        // deltas are the running serve.* totals.
        let counters = get(&v, "counters").as_object().expect("counters map");
        assert!(counters.keys().all(|k| k.starts_with("serve.")), "{row}");
        assert_eq!(counters.get("serve.rows{outcome=clean}").and_then(|c| c.as_u64()), Some(12));
        // After the row budget the same connection answers one-shots.
        writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("status after watch");
        let v: serde_json::Value = serde_json::from_str(&resp).expect("status parses");
        assert_eq!(get(&v, "kind").as_str(), Some("status"));
        assert_eq!(s.registry().version(), version, "watch and status wrote to the registry");
        server.stop();
    }

    #[test]
    fn a_deeply_nested_line_gets_an_error_row_and_the_service_answers_on() {
        let s = service();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let t = Duration::from_secs(5);
        let stream = TcpStream::connect_timeout(&server.addr(), t).expect("connect");
        stream.set_read_timeout(Some(t)).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // Unbounded parser recursion would overflow the connection
        // thread's stack here and abort the whole process.
        writer.write_all(format!("{}\n", "[".repeat(10_000)).as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("an answer to the deep line");
        let v: serde_json::Value = serde_json::from_str(&line).expect("error row parses");
        assert_eq!(get(&v, "ok").as_bool(), Some(false), "{line}");
        assert!(
            get(&v, "detail").as_str().is_some_and(|d| d.contains("recursion limit")),
            "{line}"
        );
        writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).expect("status on the same connection");
        let v: serde_json::Value = serde_json::from_str(&line).expect("status parses");
        assert_eq!(get(&v, "kind").as_str(), Some("status"), "{line}");
        let resp = query_once(server.addr(), "{\"cmd\":\"status\"}", t).expect("a new client");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        server.stop();
    }

    #[test]
    fn tcp_round_trip_and_shutdown_signal() {
        let s = service();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let t = Duration::from_secs(5);
        let resp = query_once(addr, "{\"cmd\":\"status\"}", t).expect("status round-trip");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(get(&v, "ok").as_bool(), Some(true));
        assert!(!server.wait_shutdown(Duration::from_millis(10)), "no shutdown yet");
        let resp = query_once(addr, "{\"cmd\":\"shutdown\"}", t).expect("shutdown round-trip");
        assert!(resp.contains("\"shutdown\""));
        assert!(server.wait_shutdown(t), "shutdown command fires the signal");
        server.stop();
    }
}
