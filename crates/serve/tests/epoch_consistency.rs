//! Snapshot-consistency stress: concurrent query clients hammer the
//! TCP API while multiple ingest threads stream chunks, and every
//! response must be internally consistent — epochs monotone per
//! client, every line parseable, and the epoch/segment recurrences
//! holding inside each snapshot. A torn read (a snapshot mixing state
//! from two epochs' global counters) would violate the
//! `epoch == floor(accepted / epoch_rows)` invariant, which is checked
//! on every single response.

use st_obs::Registry;
use st_serve::{epoch_index, query_once, ContextService, PartitionSpec, QueryServer, ServeOptions};
use st_speedtest::{Access, Measurement, Platform};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEAL_ROWS: u64 = 16;
const EPOCH_ROWS: u64 = 64;

fn m(id: u64) -> Measurement {
    Measurement {
        id,
        user_id: id,
        platform: Platform::AndroidApp,
        city: 0,
        day: (id % 300) as u16,
        hour: (id % 24) as u8,
        down_mbps: 100.0,
        up_mbps: 10.0,
        rtt_ms: 20.0,
        loaded_rtt_ms: 40.0,
        access: Access::Ethernet,
        kernel_memory_gb: Some(4.0),
        truth_tier: None,
    }
}

/// Fetch a required field or panic with its name.
fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.get(key).unwrap_or_else(|| panic!("response missing {key:?}: {v:?}"))
}

/// Every invariant a single epoch snapshot must satisfy.
fn check_snapshot(v: &serde_json::Value) {
    let snap = field(v, "snapshot");
    let epoch = field(snap, "epoch").as_u64().expect("epoch is a count");
    let accepted = field(snap, "accepted_rows").as_u64().expect("accepted_rows is a count");
    let final_epoch = field(snap, "final_epoch").as_bool().expect("final_epoch is a bool");
    if !final_epoch {
        assert_eq!(
            epoch,
            epoch_index(accepted, EPOCH_ROWS),
            "torn read: epoch {epoch} does not match accepted {accepted}"
        );
    }
    for city in field(snap, "cities").as_array().expect("cities array") {
        check_city(city);
    }
}

/// The seal recurrences every campaign of one city must satisfy.
fn check_city(city: &serde_json::Value) {
    for c in field(city, "campaigns").as_array().expect("campaigns array") {
        let rows = field(c, "accepted_rows").as_u64().expect("campaign accepted");
        let sealed = field(c, "sealed_segments").as_u64().expect("sealed_segments");
        let tail = field(c, "tail_rows").as_u64().expect("tail_rows");
        let frozen = field(c, "frozen").as_bool().expect("frozen");
        if frozen {
            assert_eq!(tail, 0, "a frozen store has no tail");
            assert!(sealed * SEAL_ROWS >= rows, "frozen store lost rows");
        } else {
            // Seal boundaries are a pure function of the accepted
            // prefix: exactly floor(rows / R) segments, rows % R
            // buffered in the tail. A snapshot that mixed the two
            // reads would break the recurrence.
            assert_eq!(sealed, rows / SEAL_ROWS, "sealed segments diverged at {rows} rows");
            assert_eq!(tail, rows % SEAL_ROWS, "tail rows diverged at {rows} rows");
        }
    }
}

#[test]
fn concurrent_queries_never_observe_torn_state() {
    let service = Arc::new(ContextService::new(
        vec![PartitionSpec::city("City-A"), PartitionSpec::city("City-B")],
        ServeOptions { seal_rows: SEAL_ROWS as usize, epoch_rows: EPOCH_ROWS as usize, warm: None },
        Registry::new(),
    ));
    let server = QueryServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let done = AtomicBool::new(false);
    let total_rows: u64 = 4 * 60 * 7; // 4 writers x 60 chunks x 7 rows

    std::thread::scope(|scope| {
        // Four ingest threads, each owning one (city, campaign) stream
        // with a disjoint id range so nothing quarantines as duplicate.
        let targets =
            [("City-A", "ookla"), ("City-A", "mlab"), ("City-B", "ookla"), ("City-B", "mba")];
        let mut writers = Vec::new();
        for (w, (city, campaign)) in targets.into_iter().enumerate() {
            let service = Arc::clone(&service);
            writers.push(scope.spawn(move || {
                let base = w as u64 * 1_000_000;
                for chunk in 0..60u64 {
                    let rows: Vec<Measurement> = (0..7).map(|r| m(base + chunk * 7 + r)).collect();
                    let receipt =
                        service.ingest_chunk(city, campaign, rows).expect("live ingest succeeds");
                    assert_eq!(receipt.stats.quarantined, 0, "ids are disjoint");
                }
            }));
        }

        // Three query clients reading over real TCP the whole time, each
        // cycling through the verbs, the ones served from an epoch's
        // cached answers among them. Each asks once before it first
        // checks `done`, so it answers at least once however fast the
        // writers finish.
        let requests = [
            r#"{"cmd":"epoch"}"#,
            r#"{"cmd":"status"}"#,
            r#"{"cmd":"headline"}"#,
            r#"{"cmd":"city","city":"City-A"}"#,
            r#"{"cmd":"city","city":"City-B"}"#,
        ];
        let mut readers = Vec::new();
        for client in 0..3 {
            let done = &done;
            readers.push(scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut i = 0u64;
                loop {
                    let line = requests[(i as usize + client) % requests.len()];
                    let resp =
                        query_once(addr, line, Duration::from_secs(5)).expect("query round-trips");
                    let v: serde_json::Value = serde_json::from_str(&resp)
                        .unwrap_or_else(|e| panic!("client {client}: unparseable {resp:?}: {e}"));
                    assert_eq!(field(&v, "ok").as_bool(), Some(true), "{resp}");
                    let epoch = if v.get("snapshot").is_some() {
                        check_snapshot(&v);
                        field(field(&v, "snapshot"), "epoch").as_u64().unwrap()
                    } else {
                        if let Some(city) = v.get("city") {
                            check_city(city);
                        }
                        field(&v, "epoch").as_u64().unwrap()
                    };
                    // Monotone across all verbs: no cached answer is
                    // older than an answer this client already read.
                    assert!(
                        epoch >= last_epoch,
                        "client {client}: epoch went backwards ({last_epoch} -> {epoch}) on {line}"
                    );
                    last_epoch = epoch;
                    i += 1;
                    if done.load(Ordering::Acquire) {
                        return i;
                    }
                }
            }));
        }

        for w in writers {
            w.join().expect("writer");
        }
        done.store(true, Ordering::Release);
        for (client, r) in readers.into_iter().enumerate() {
            let answered = r.join().expect("reader");
            assert!(answered >= 1, "every client answered at least one query (client {client})");
        }
    });

    // All rows accepted: the published epoch matches the telescoped
    // crossing count for the coordinator's accepted total.
    let snap = service.current_epoch();
    assert_eq!(snap.epoch, epoch_index(snap.accepted_rows, EPOCH_ROWS));
    assert!(snap.accepted_rows <= total_rows);

    // Drain, publish the final epoch, and read it back over TCP.
    let out = service.drain().expect("drain once");
    assert_eq!(out.sanitize.quarantined, 0);
    let final_epoch = service
        .publish_final(
            &out.sanitize,
            vec![("rows".into(), total_rows.to_string())],
            Vec::new(),
            None,
            0,
        )
        .expect("final publish");
    let resp =
        query_once(addr, "{\"cmd\":\"epoch\"}", Duration::from_secs(5)).expect("final query");
    let v: serde_json::Value = serde_json::from_str(&resp).expect("final parses");
    let snap = field(&v, "snapshot");
    assert_eq!(field(snap, "final_epoch").as_bool(), Some(true));
    assert_eq!(field(snap, "epoch").as_u64(), Some(final_epoch));
    assert_eq!(field(snap, "accepted_rows").as_u64(), Some(total_rows));
    assert_eq!(final_epoch, epoch_index(total_rows, EPOCH_ROWS) + 1);
    check_snapshot(&v);

    server.stop();
}

/// The watch feed's core contract: with a single writer (so every
/// boundary crossing wins the publish race), a subscriber attached
/// before the first row must see epoch 0 as its base and then every
/// crossing exactly once, in order, ending with the final epoch — and
/// each row must satisfy the same floor/seal recurrences the polling
/// readers check, with counter deltas that telescope to the totals.
#[test]
fn watch_delivers_every_epoch_crossing_exactly_once() {
    let service = Arc::new(ContextService::new(
        vec![PartitionSpec::city("City-A")],
        ServeOptions { seal_rows: SEAL_ROWS as usize, epoch_rows: EPOCH_ROWS as usize, warm: None },
        Registry::new(),
    ));
    let server = QueryServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"{\"cmd\":\"watch\"}\n").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);

    // Read the base row on this thread *before* ingesting anything:
    // from here on, no crossing can predate the subscription.
    let mut base = String::new();
    reader.read_line(&mut base).expect("base row");
    let v: serde_json::Value = serde_json::from_str(&base).expect("base parses");
    assert_eq!(field(&v, "epoch").as_u64(), Some(0));
    assert_eq!(field(&v, "final_epoch").as_bool(), Some(false));

    let watcher = std::thread::spawn(move || {
        let mut rows = vec![v];
        for line in reader.lines() {
            let line = line.expect("watch line");
            let row: serde_json::Value = serde_json::from_str(&line)
                .unwrap_or_else(|e| panic!("unparseable watch row {line:?}: {e}"));
            let done = field(&row, "final_epoch").as_bool() == Some(true);
            rows.push(row);
            if done {
                return rows;
            }
        }
        panic!("feed ended before the final epoch");
    });

    // One writer, 7-row chunks (7 < EPOCH_ROWS, so a chunk crosses at
    // most one boundary): the published epoch sequence is 1, 2, 3, ...
    let total: u64 = 60 * 7;
    for chunk in 0..60u64 {
        let rows: Vec<Measurement> = (0..7).map(|r| m(chunk * 7 + r)).collect();
        let receipt = service.ingest_chunk("City-A", "ookla", rows).expect("ingest");
        assert_eq!(receipt.stats.quarantined, 0, "ids are unique");
    }
    let out = service.drain().expect("drain once");
    let final_epoch = service
        .publish_final(&out.sanitize, Vec::new(), Vec::new(), None, 0)
        .expect("final publish");
    assert_eq!(final_epoch, epoch_index(total, EPOCH_ROWS) + 1);

    let rows = watcher.join().expect("watcher thread");
    // Exactly once and in order: the base plus one row per crossing,
    // no index skipped, none repeated, the final epoch last.
    let epochs: Vec<u64> =
        rows.iter().map(|r| field(r, "epoch").as_u64().expect("epoch")).collect();
    let expected: Vec<u64> = (0..=final_epoch).collect();
    assert_eq!(epochs, expected, "watch feed missed or repeated a crossing");

    let mut clean = 0u64;
    let mut epochs_counted = 0u64;
    for row in &rows {
        let accepted = field(row, "accepted_rows").as_u64().expect("accepted_rows");
        let sealed = field(row, "segments_sealed").as_u64().expect("segments_sealed");
        let final_row = field(row, "final_epoch").as_bool().expect("final_epoch");
        if final_row {
            assert_eq!(accepted, total);
            assert!(sealed * SEAL_ROWS >= accepted, "frozen stores lost rows");
        } else {
            // The same recurrences check_snapshot asserts, visible
            // through the feed: the epoch is the floor of the accepted
            // count and seals track the accepted prefix exactly.
            assert_eq!(field(row, "epoch").as_u64().unwrap(), epoch_index(accepted, EPOCH_ROWS));
            assert_eq!(sealed, accepted / SEAL_ROWS, "seal recurrence diverged at {accepted}");
        }
        let seals = field(row, "seals").as_array().expect("seals");
        let per_city: u64 =
            seals.iter().map(|s| field(s, "sealed_segments").as_u64().unwrap()).sum();
        assert_eq!(per_city, sealed, "per-city seal counts must sum to the total");
        let counters = field(row, "counters").as_object().expect("counters");
        assert!(counters.keys().all(|k| k.starts_with("serve.")), "{row:?}");
        clean += counters.get("serve.rows{outcome=clean}").and_then(|c| c.as_u64()).unwrap_or(0);
        epochs_counted += counters.get("serve.epochs").and_then(|c| c.as_u64()).unwrap_or(0);
    }
    // Deltas telescope: base totals + per-row increments = final totals.
    assert_eq!(clean, total, "serve.rows deltas must telescope to the accepted total");
    assert_eq!(epochs_counted, final_epoch, "serve.epochs deltas must telescope");

    server.stop();
}
