//! Live operator console over the ledger / metrics / serve surface.
//!
//! ```text
//! console (--connect ADDR | --ledger PATH)... [--baseline PATH]
//!         [--headless] [--frames N] [--width W] [--interval-ms MS]
//! ```
//!
//! Attaches up to two feeds and renders fixed-width plain-text frames
//! (st-console): a live feed against an st-serve query listener
//! (`--connect`) — one `watch` subscription plus `status`/`metrics`
//! polls per frame — and a ledger tail (`--ledger`) that parses
//! batch-comparable rows as they are appended. With `--baseline`,
//! every tailed row is compared against the baseline's first
//! batch-comparable row and divergences are raised in the drift panel.
//!
//! `--headless` renders `--frames N` frames to stdout and exits — the
//! mode CI uses to byte-compare the deterministic pane across
//! parallelism levels. Without it the console clears the screen
//! between frames and runs until the watched run publishes its final
//! epoch.
//!
//! Exit code: `0` clean, `1` when drift flags are raised (or the live
//! feed could not be attached), `2` on usage errors — including an
//! unreadable or row-less `--baseline`, matching `obs-diff`'s
//! contract that a missing comparison input is a usage error, not
//! drift.

use std::process::ExitCode;
use std::time::Duration;

use st_bench::cli::{next_value, parse_at_least_one, parse_count, CliError};
use st_bench::ledger::{read_ledger, LedgerRow, LedgerTail};
use st_console::{run_headless, Controller, Event, QueryClient, Renderer, RunIdentity, WatchFeed};

const USAGE: &str = "usage: console (--connect ADDR | --ledger PATH)... [--baseline PATH] \
    [--headless] [--frames N] [--width W] [--interval-ms MS]";

struct Args {
    connect: Option<String>,
    ledger: Option<String>,
    baseline: Option<String>,
    headless: bool,
    frames: u64,
    width: usize,
    interval: Duration,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, CliError> {
    let mut args = Args {
        connect: None,
        ledger: None,
        baseline: None,
        headless: false,
        frames: 3,
        width: st_console::DEFAULT_WIDTH,
        interval: Duration::from_millis(250),
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => args.connect = Some(next_value(&mut it, "--connect")?),
            "--ledger" => args.ledger = Some(next_value(&mut it, "--ledger")?),
            "--baseline" => args.baseline = Some(next_value(&mut it, "--baseline")?),
            "--headless" => args.headless = true,
            "--frames" => {
                args.frames =
                    parse_at_least_one("--frames", &next_value(&mut it, "--frames")?)? as u64;
            }
            "--width" => {
                args.width = parse_at_least_one("--width", &next_value(&mut it, "--width")?)?;
            }
            "--interval-ms" => {
                let ms = parse_count("--interval-ms", &next_value(&mut it, "--interval-ms")?)?;
                args.interval = Duration::from_millis(ms as u64);
            }
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    if args.connect.is_none() && args.ledger.is_none() {
        return Err(CliError::Usage(
            "at least one feed is required (--connect or --ledger)".to_string(),
        ));
    }
    Ok(args)
}

/// Load the baseline's first batch-comparable row. Any failure here is
/// a usage error: the operator asked for a comparison that cannot
/// start.
fn load_baseline(path: &str) -> Result<LedgerRow, CliError> {
    let rows = read_ledger(std::path::Path::new(path))
        .map_err(|e| CliError::Usage(format!("cannot read --baseline {path}: {e}")))?;
    rows.iter().find_map(|v| LedgerRow::from_value(v).ok()).ok_or_else(|| {
        CliError::Usage(format!("--baseline {path} has no batch-comparable ledger row"))
    })
}

fn run_identity(row: &LedgerRow) -> RunIdentity {
    RunIdentity {
        schema: format!("{} {}", row.schema, row.command),
        scale: row.scale,
        seed: row.seed,
        parallelism: row.parallelism as u64,
        artifact_hash: row.artifact_hash.clone(),
        artifact_files: row.artifact_files as u64,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return e.report(USAGE),
    };
    let baseline = match args.baseline.as_deref().map(load_baseline).transpose() {
        Ok(b) => b,
        Err(e) => return e.report(USAGE),
    };

    let mut controller = Controller::new();
    let renderer = Renderer::new(args.width);
    let timeout = Duration::from_millis(500);

    let client = args.connect.as_deref().map(|addr| QueryClient::new(addr, timeout));
    let watch = match args.connect.as_deref() {
        Some(addr) => match WatchFeed::connect(addr, timeout) {
            Ok(feed) => {
                controller.apply(Event::Connected { addr: addr.to_string() });
                Some(feed)
            }
            Err(e) => {
                eprintln!("console: {e}");
                return ExitCode::from(1);
            }
        },
        None => None,
    };
    let mut tail = args.ledger.as_deref().map(|path| {
        controller.apply(Event::LedgerAttached { path: path.to_string() });
        LedgerTail::new(path)
    });

    let mut first = true;
    let interval = args.interval;
    let poll = move |c: &mut Controller| {
        if !first {
            std::thread::sleep(interval);
        }
        first = false;
        if let Some(feed) = &watch {
            for event in feed.drain() {
                c.apply(event);
            }
        }
        if let Some(client) = &client {
            for result in [client.status(), client.metrics()] {
                match result {
                    Ok(event) => c.apply(event),
                    Err(e) => c.apply(Event::Note(e)),
                }
            }
        }
        if let Some(tail) = &mut tail {
            match tail.poll() {
                Ok(rows) => {
                    for row in rows {
                        if let Some(base) = &baseline {
                            c.apply(Event::Drift(row.drift_against(base)));
                        }
                        c.apply(Event::Ledger(run_identity(&row)));
                    }
                }
                Err(e) => c.apply(Event::Note(format!("ledger: {e}"))),
            }
        }
    };

    let mut stdout = std::io::stdout().lock();
    let render_result = if args.headless {
        run_headless(&mut controller, &renderer, args.frames, poll, &mut stdout)
    } else {
        run_screen(&mut controller, &renderer, poll, &mut stdout)
    };
    if let Err(e) = render_result {
        eprintln!("console: cannot write frames: {e}");
        return ExitCode::from(1);
    }
    if controller.drifted() {
        eprintln!(
            "console: drift against baseline ({} flags)",
            controller.state.drift.as_ref().map_or(0, Vec::len)
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Interactive mode: clear the screen between frames and run until the
/// watched run publishes its final epoch (or forever for a pure ledger
/// tail — it is an operator's dashboard, Ctrl-C ends it).
fn run_screen<W: std::io::Write>(
    controller: &mut Controller,
    renderer: &Renderer,
    mut poll: impl FnMut(&mut Controller),
    out: &mut W,
) -> std::io::Result<()> {
    let mut idx = 0u64;
    loop {
        poll(controller);
        controller.apply(Event::Tick);
        idx += 1;
        out.write_all(b"\x1b[2J\x1b[H")?;
        out.write_all(renderer.render(&controller.state, idx).to_text().as_bytes())?;
        out.flush()?;
        if controller.state.feed_done {
            return Ok(());
        }
    }
}
