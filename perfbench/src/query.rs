//! Load on the query API and in-process probes of its layers.
//!
//! Three loads, each from at most two load threads and two open
//! connections: the open-loop poller that runs during a serve round,
//! and the two closed-loop clients of the read-only query phase (one on
//! a persistent connection, one connecting per request). The probes
//! call `st_serve::dispatch` and the registry's snapshot in-process, so
//! the socket path's own cost can be split from the answer's.

use crate::stats::Schedule;
use st_obs::Registry;
use st_serve::{dispatch, query_once, ContextService};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The six request types every load cycles through, in order.
pub const VERBS: [&str; 6] = ["status", "city", "quarantine", "headline", "metrics", "epoch"];

/// The request line for each of [`VERBS`].
pub const REQUESTS: [&str; 6] = [
    r#"{"cmd":"status"}"#,
    r#"{"cmd":"city","city":"City-A"}"#,
    r#"{"cmd":"quarantine"}"#,
    r#"{"cmd":"headline"}"#,
    r#"{"cmd":"metrics"}"#,
    r#"{"cmd":"epoch"}"#,
];

/// Socket timeout for every client request.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Check one answer: it must parse as JSON, say `"ok":true`, and be of
/// the kind asked for.
pub fn check_answer(answer: &str, verb: usize) -> Result<(), String> {
    let v = serde_json::from_str(answer)
        .map_err(|e| format!("{} answer does not parse: {e}", VERBS[verb]))?;
    if v.get("ok").and_then(|o| o.as_bool()) != Some(true) {
        return Err(format!("{} answer is not ok: {:.200}", VERBS[verb], answer));
    }
    if v.get("kind").and_then(|k| k.as_str()) != Some(VERBS[verb]) {
        return Err(format!("{} answer has the wrong kind: {:.200}", VERBS[verb], answer));
    }
    Ok(())
}

/// Requests of one load: `(verb, latency seconds)` of each answered
/// request, and the errors of the rest.
#[derive(Debug, Default)]
pub struct Log {
    /// `(verb index, seconds)` per answered request.
    pub samples: Vec<(usize, f64)>,
    /// One message per failed request.
    pub errors: Vec<String>,
}

impl Log {
    fn push(&mut self, verb: usize, seconds: f64, answer: std::io::Result<String>) {
        match answer
            .map_err(|e| format!("{}: {e}", VERBS[verb]))
            .and_then(|a| check_answer(&a, verb))
        {
            Ok(()) => self.samples.push((verb, seconds)),
            Err(e) => self.errors.push(e),
        }
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        (self.samples.len() + self.errors.len()) as u64
    }

    /// Latencies alone, seconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, s)| s).collect()
    }
}

/// What the open-loop poller saw: latencies from each request's due
/// time, and how late each was sent.
#[derive(Debug, Default)]
pub struct PollLog {
    /// Latency from due time per answered poll.
    pub log: Log,
    /// Seconds each poll was sent after it was due.
    pub late_s: Vec<f64>,
}

/// Poll one request every `interval`, cycling [`REQUESTS`], until
/// `stop` is set. Open loop: a request is due on its schedule whether
/// or not the previous one has returned, and its latency counts from
/// that due time. Each answer is checked and dropped as it arrives; if
/// checking ever delays the next send, that shows as lateness.
pub fn poll_open_loop(addr: SocketAddr, interval: Duration, stop: &AtomicBool) -> PollLog {
    let schedule = Schedule::new(Instant::now(), interval);
    let mut out = PollLog::default();
    for i in 0u32.. {
        let due = schedule.due(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let verb = i as usize % REQUESTS.len();
        let sent = Instant::now();
        let answer = query_once(addr, REQUESTS[verb], TIMEOUT);
        let t = schedule.account(i, sent, Instant::now());
        out.late_s.push(t.late_s);
        out.log.push(verb, t.latency_s, answer);
    }
    out
}

/// The read-only query phase's two closed-loop clients.
#[derive(Debug, Default)]
pub struct QueryLoad {
    /// One connection per request (`query_once`).
    pub oneshot: Log,
    /// One persistent connection for every request.
    pub keepalive: Log,
    /// Seconds the one-shot client ran.
    pub oneshot_s: f64,
}

impl QueryLoad {
    /// Fold another slice of the same load into this one.
    pub fn absorb(&mut self, other: QueryLoad) {
        for (ours, theirs) in
            [(&mut self.oneshot, other.oneshot), (&mut self.keepalive, other.keepalive)]
        {
            ours.samples.extend(theirs.samples);
            ours.errors.extend(theirs.errors);
        }
        self.oneshot_s += other.oneshot_s;
    }
}

/// Run both closed-loop clients against `addr` for `duration`.
pub fn query_load(addr: SocketAddr, duration: Duration) -> QueryLoad {
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        let keepalive = s.spawn(|| keepalive_client(addr, duration, &start));
        let oneshot = s.spawn(|| {
            start.wait();
            let t0 = Instant::now();
            let mut log = Log::default();
            for i in 0usize.. {
                if t0.elapsed() >= duration {
                    break;
                }
                let verb = i % REQUESTS.len();
                let sent = Instant::now();
                let answer = query_once(addr, REQUESTS[verb], TIMEOUT);
                log.push(verb, sent.elapsed().as_secs_f64(), answer);
            }
            (log, t0.elapsed().as_secs_f64())
        });
        let (oneshot, oneshot_s) = oneshot.join().expect("one-shot client panicked");
        QueryLoad {
            oneshot,
            keepalive: keepalive.join().expect("keep-alive client panicked"),
            oneshot_s,
        }
    })
}

fn keepalive_client(addr: SocketAddr, duration: Duration, start: &Barrier) -> Log {
    let mut log = Log::default();
    let connected = TcpStream::connect_timeout(&addr, TIMEOUT).and_then(|stream| {
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok((writer, BufReader::new(stream)))
    });
    start.wait();
    let (mut writer, mut reader) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            log.errors.push(format!("keep-alive connect: {e}"));
            return log;
        }
    };
    let t0 = Instant::now();
    for i in 0usize.. {
        if t0.elapsed() >= duration {
            break;
        }
        let verb = i % REQUESTS.len();
        let sent = Instant::now();
        let answer = writer.write_all(format!("{}\n", REQUESTS[verb]).as_bytes()).and_then(|()| {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            Ok(line)
        });
        let failed = answer.as_ref().map_or(true, |l| l.is_empty());
        log.push(verb, sent.elapsed().as_secs_f64(), answer);
        if failed {
            break; // the connection is gone; its error is logged
        }
    }
    log
}

/// In-process cost of each request type on the finished service:
/// `(median dispatch seconds, answer bytes)` per verb, and the errors of
/// answers that failed their check.
pub fn dispatch_probe(service: &ContextService, reps: usize) -> (Vec<(f64, usize)>, Log) {
    let mut log = Log::default();
    let per_verb = (0..REQUESTS.len())
        .map(|verb| {
            let mut times = Vec::with_capacity(reps);
            let mut bytes = 0;
            for _ in 0..reps {
                let t0 = Instant::now();
                let (answer, _) = dispatch(service, REQUESTS[verb]);
                let dt = t0.elapsed().as_secs_f64();
                times.push(dt);
                bytes = answer.len();
                log.push(verb, dt, Ok(answer));
            }
            (crate::stats::median(&times), bytes)
        })
        .collect();
    (per_verb, log)
}

/// The registry's shared snapshot: median seconds of a cached read, of
/// a read right after a write, and the number of keys it holds.
pub fn obs_probe(reg: &Registry, reps: usize) -> (f64, f64, usize) {
    let mut cached = Vec::with_capacity(reps);
    let mut rebuilt = Vec::with_capacity(reps);
    reg.snapshot_shared();
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(reg.snapshot_shared());
        cached.push(t0.elapsed().as_secs_f64());
        // The write every query makes before answering: one observation
        // of its own latency histogram, a key that already exists.
        reg.observe_wall("serve.query_seconds", &[("cmd", "status")], 0.0, &[0.1]);
        let t0 = Instant::now();
        std::hint::black_box(reg.snapshot_shared());
        rebuilt.push(t0.elapsed().as_secs_f64());
    }
    let snap = reg.snapshot_shared();
    let (d, w) = (&snap.deterministic, &snap.wall_clock);
    let keys = d.counters.len()
        + d.gauges.len()
        + d.histograms.len()
        + d.series.len()
        + w.spans.len()
        + w.values.len();
    (crate::stats::median(&cached), crate::stats::median(&rebuilt), keys)
}
